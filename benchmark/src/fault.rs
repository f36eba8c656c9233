//! `fault_checkpoint`: a snapshot-forked fault-injection campaign on the
//! nested-recovery kernel. Each program boots once to its first user
//! instruction and is snapshotted; every cell then restores that image,
//! arms a fault plan, runs to a seeded instruction boundary, takes a
//! mid-flight snapshot and runs to the end. Every 8th cell also replays
//! its cut through a format-v3 re-encode and `restore_migrated` on a twin
//! machine, which must reproduce the original's exit and counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use sva_inject::{DropRecorder, FaultClass, FaultPlan, PROBE_DEFER};
use sva_ir::Module;
use sva_kernel::build::KernelOptions;
use sva_kernel::harness::boot_user_paused;
use sva_vm::bundle::CrashReason;
use sva_vm::{CrashBundle, KernelKind, Tracer, Vm, VmConfig, VmError, VmExit, VmStats};

use crate::hostclock::HostClock;
use crate::rng::Rng;
use crate::setup;
use crate::solo::{self, item, Instance, Item, Ladder, LADDER};
use crate::stats::{fastest, median, tail};
use crate::{ladder_metrics, Bench, CHUNKS};

/// Inject on every other trap (as the repository's campaign does).
const PERIOD: u64 = 2;
const FUEL: u64 = 3_000_000;
const BUDGET: u32 = 3;
/// Fault seeds drawn per (image, fault class). Which instructions a fault
/// cuts short depends on its seed; two per class halve how much that
/// moves one seed's throughput against another's.
const SEEDS_PER_CLASS: usize = 2;
/// Rounds every run completes, whatever its time budget: 5 rounds of 20
/// images × 6 fault classes × 2 seeds = 1200 cells.
const MIN_ROUNDS: usize = 5;
const MIGRATE_EVERY: u64 = 8;

fn items() -> Vec<Item> {
    let mut v = vec![
        item("user_getpid_loop", 200, 0),
        item("user_openclose_loop", 60, 0),
    ];
    for size in CHUNKS {
        v.push(item("user_pipe_loop", 40, size));
        v.push(item("user_write_loop", 80, size));
    }
    v
}

pub fn nested() -> KernelOptions {
    KernelOptions {
        recovery: true,
        nested: true,
        ..Default::default()
    }
}

fn cell_config() -> VmConfig {
    VmConfig {
        fuel: FUEL,
        violation_budget: BUDGET,
        ..solo::config(KernelKind::SvaSafe)
    }
}

pub fn loads() -> Vec<VmConfig> {
    LADDER
        .iter()
        .map(|&k| solo::config(k))
        .chain([cell_config()])
        .collect()
}

/// A program's post-boot image and the pool drops its boot emitted
/// (replayed into each cell's plan so stale-use faults learn the same
/// candidates a rebooted machine would).
struct Image {
    bytes: Vec<u8>,
    drops: Vec<(u32, u64)>,
}

fn boot_image(module: &Module, cfg: &VmConfig, inst: &Instance) -> Image {
    let rec = Arc::new(DropRecorder::new());
    let mut vm = Vm::new(
        module.clone(),
        VmConfig {
            fault_hook: Some(rec.clone()),
            ..cfg.clone()
        },
    )
    .expect("kernel loads");
    match boot_user_paused(&mut vm, inst.program, inst.arg) {
        Ok(None) => Image {
            bytes: vm.snapshot(),
            drops: rec.drops(),
        },
        other => panic!("{} never reached user mode: {other:?}", inst.label),
    }
}

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct Cell {
    image: usize,
    class: FaultClass,
    fault_seed: u64,
    cut: u64,
    migrate: bool,
}

impl Cell {
    fn label(&self, insts: &[Instance]) -> String {
        format!("{} {}", insts[self.image].label, self.class.name())
    }
}

/// What a cell produced and what it cost.
#[derive(Default)]
struct CellOut {
    wall_s: f64,
    restore_s: f64,
    snapshot_s: Option<f64>,
    image_len: usize,
    migrate: Option<(f64, f64)>,
    instructions: u64,
    traps: u64,
    injected: u64,
    delta: VmStats,
    /// Exit and terminal counters, compared between traced and untraced
    /// runs of the same cell.
    fingerprint: String,
    death: Option<String>,
}

fn plan(cell: &Cell, targets: &[u32]) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(cell.class, cell.fault_seed, PERIOD, targets.to_vec())
            .with_defer(PROBE_DEFER),
    )
}

fn delta(after: &VmStats, before: &VmStats) -> VmStats {
    VmStats {
        instructions: after.instructions - before.instructions,
        traps: after.traps - before.traps,
        violations_recovered: after.violations_recovered - before.violations_recovered,
        domains_pushed: after.domains_pushed - before.domains_pushed,
        repairs: after.repairs - before.repairs,
        ..VmStats::default()
    }
}

fn death(exit: &Result<VmExit, VmError>) -> Option<String> {
    match exit {
        Ok(VmExit::Halted(c @ (41 | 42))) => Some(format!("machine death (halt {c})")),
        Err(VmError::Safety(e)) => Some(format!("escaped safety violation: {e}")),
        _ => None,
    }
}

fn run_cell<T: Tracer>(
    vm: &mut Vm<T>,
    twin: &mut Vm,
    image: &Image,
    cell: &Cell,
    targets: &[u32],
) -> CellOut {
    let mut out = CellOut::default();
    let p = plan(cell, targets);
    let t0 = Instant::now();
    vm.restore(&image.bytes).expect("own boot image restores");
    out.restore_s = t0.elapsed().as_secs_f64();
    vm.arm_faults(p.clone());
    p.replay_drops(&image.drops);
    let before = vm.stats();
    let exit = match vm.run_steps(cell.cut) {
        Ok(None) => {
            let t = Instant::now();
            let cut = vm.snapshot_midflight();
            out.snapshot_s = Some(t.elapsed().as_secs_f64());
            out.image_len = cut.len();
            let state = p.state_image();
            let exit = vm.run();
            if cell.migrate {
                let t = Instant::now();
                let v3 = sva_vm::reencode_at(&cut, 3);
                let reencode_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let restored = v3.map_err(|e| e.to_string()).and_then(|img| {
                    twin.restore_migrated(&img)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                });
                out.migrate = Some((reencode_s, t.elapsed().as_secs_f64()));
                match restored {
                    Err(e) => out.death = Some(format!("v3 migration failed: {e}")),
                    Ok(()) => {
                        let p2 = plan(cell, targets);
                        p2.restore_state(state);
                        twin.arm_faults(p2);
                        let at_cut = twin.stats();
                        let exit2 = twin.run();
                        let twin_stats = twin.stats();
                        out.instructions += twin_stats.instructions - at_cut.instructions;
                        out.traps += twin_stats.traps - at_cut.traps;
                        if format!("{exit:?}") != format!("{exit2:?}")
                            || vm.stats().equivalence_key() != twin_stats.equivalence_key()
                            || vm.console != twin.console
                        {
                            out.death = Some("migrated twin diverged".into());
                        }
                    }
                }
            }
            exit
        }
        Ok(Some(exit)) => Ok(exit),
        Err(e) => Err(e),
    };
    out.wall_s = t0.elapsed().as_secs_f64();
    let after = vm.stats();
    out.delta = delta(&after, &before);
    out.instructions += out.delta.instructions;
    out.traps += out.delta.traps;
    out.injected = p.injected();
    out.fingerprint = format!("{exit:?} {after:?} {:?}", vm.pools.total_stats());
    if out.death.is_none() {
        out.death = death(&exit);
    }
    out
}

/// Everything the cells of a grid measured: the first run of each cell,
/// which every later run must reproduce, each cell's walls, and the codec
/// samples of every run.
struct Tally {
    firsts: Vec<Option<CellOut>>,
    walls: Vec<Vec<f64>>,
    restores: Vec<f64>,
    snapshots: Vec<f64>,
    image_lens: Vec<f64>,
    reencodes: Vec<f64>,
    migrated: Vec<f64>,
    bundles: (Vec<f64>, Vec<f64>),
}

impl Tally {
    fn new(cells: usize) -> Tally {
        Tally {
            firsts: (0..cells).map(|_| None).collect(),
            walls: vec![Vec::new(); cells],
            restores: Vec::new(),
            snapshots: Vec::new(),
            image_lens: Vec::new(),
            reencodes: Vec::new(),
            migrated: Vec::new(),
            bundles: (Vec::new(), Vec::new()),
        }
    }

    /// Runs every cell of `grid` once, in a seeded order. A cell fails if
    /// it panics, kills the machine, lets a safety violation escape, has
    /// its migrated twin diverge, or differs from its first run.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        b: &mut Bench,
        vm: &mut Vm,
        twin: &mut Vm,
        images: &[Image],
        grid: &[Cell],
        targets: &[u32],
        insts: &[Instance],
        rng: &mut Rng,
    ) {
        let mut order: Vec<usize> = (0..grid.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let cell = &grid[i];
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_cell(vm, twin, &images[cell.image], cell, targets)
            }));
            let Ok(out) = r else {
                b.note(format!("{}: cell panicked", cell.label(insts)));
                b.op(false);
                continue;
            };
            let mut ok = out.death.is_none();
            if let Some(d) = &out.death {
                b.note(format!("{}: {d}", cell.label(insts)));
            }
            self.walls[i].push(out.wall_s);
            self.restores.push(out.restore_s * 1e3);
            if let Some(s) = out.snapshot_s {
                self.snapshots.push(s * 1e3);
                self.image_lens.push(out.image_len as f64);
            }
            if let Some((re, rs)) = out.migrate {
                self.reencodes.push(re * 1e3);
                self.migrated.push(rs * 1e3);
            }
            match &self.firsts[i] {
                Some(first) if first.fingerprint != out.fingerprint => {
                    ok = false;
                    b.note(format!(
                        "{}: replay diverged from the first run",
                        cell.label(insts)
                    ));
                }
                Some(_) => {}
                None => self.firsts[i] = Some(out),
            }
            b.op(ok);
        }
    }

    /// Forces a crash bundle out of a finished cell machine and times its
    /// encode and decode.
    fn bundle(&mut self, vm: &mut Vm) {
        vm.enable_crash_capture(None, "svabench");
        vm.capture_crash(CrashReason::Halt, 0, "benchmark probe".into());
        vm.disable_crash_capture();
        if let Some(bundle) = vm.take_crash_bundle() {
            let t = Instant::now();
            let bytes = bundle.to_bytes();
            self.bundles.0.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let back = CrashBundle::from_bytes(&bytes);
            self.bundles.1.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(back.is_ok(), "a bundle we just encoded decodes");
        }
    }

    /// Sets the cell, codec and recovery metrics. Returns the instructions
    /// and traps of one pass over the grid and its host seconds, the sum
    /// of each cell's fastest wall.
    fn report(&self, b: &mut Bench) -> (u64, u64, f64) {
        let (mut wall, mut instructions, mut traps, mut injected) = (0.0, 0u64, 0u64, 0u64);
        let mut recovery = VmStats::default();
        for (out, w) in self.firsts.iter().zip(&self.walls) {
            let Some(out) = out else { continue };
            wall += fastest(w);
            instructions += out.instructions;
            traps += out.traps;
            injected += out.injected;
            recovery.fold(&out.delta);
        }
        let cell_ms: Vec<f64> = self.walls.iter().flatten().map(|w| w * 1e3).collect();
        let v = &mut b.values;
        v.set("sva-inject.cells_per_s", self.walls.len() as f64 / wall);
        v.set("sva-vm.cell_run_ms_p50", median(&cell_ms));
        v.set("sva-vm.cell_run_ms_tail", tail(&cell_ms).value);
        v.set("sva-inject.faults_injected", injected as f64);
        v.set(
            "sva-vm.violations_recovered",
            recovery.violations_recovered as f64,
        );
        v.set("sva-vm.domains_pushed", recovery.domains_pushed as f64);
        v.set("sva-vm.repairs", recovery.repairs as f64);
        v.set(
            "sva-vm.snapshot.image_kb",
            median(&self.image_lens) / 1024.0,
        );
        v.set("sva-vm.snapshot.snapshot_ms_p50", median(&self.snapshots));
        v.set(
            "sva-vm.snapshot.snapshot_ms_tail",
            tail(&self.snapshots).value,
        );
        v.set("sva-vm.snapshot.restore_ms_p50", median(&self.restores));
        v.set(
            "sva-vm.snapshot.restore_ms_tail",
            tail(&self.restores).value,
        );
        v.set("sva-vm.snapshot.samples", self.snapshots.len() as f64);
        v.set("sva-vm.migrate.reencode_ms", median(&self.reencodes));
        v.set("sva-vm.migrate.restore_ms", median(&self.migrated));
        v.set("sva-vm.bundle.encode_ms", median(&self.bundles.0));
        v.set("sva-vm.bundle.decode_ms", median(&self.bundles.1));
        for (what, s) in [
            ("cell", &cell_ms),
            ("restore", &self.restores),
            ("snapshot", &self.snapshots),
        ] {
            let t = tail(s);
            b.say(format!(
                "{what}: p50 {:.3} ms, tail p{} {:.3} ms of {} samples",
                median(s),
                t.percentile,
                t.value,
                t.samples
            ));
        }
        (instructions, traps, wall)
    }
}

pub fn run(b: &mut Bench) {
    let mut rng = Rng::new(b.seed);
    let opts = nested();
    let kernels = b.first_setup(&opts, &loads());

    let insts = solo::instances(&items(), &mut rng);
    let images: Vec<Image> = insts
        .iter()
        .map(|i| boot_image(&kernels.safe, &cell_config(), i))
        .collect();
    let mut vm = Vm::new(kernels.safe.clone(), cell_config()).expect("kernel loads");
    let mut twin = Vm::new(kernels.safe.clone(), cell_config()).expect("kernel loads");
    let targets: Vec<u32> = (0..vm.pools.len() as u32)
        .filter(|&i| vm.pools.pool(sva_rt::MetaPoolId(i)).complete)
        .collect();
    let mut golden = Ladder::new(insts.clone());

    // The grid is drawn once and replayed every round: each cell must
    // reproduce its first run exactly, and its cost is its fastest round,
    // which keeps a burst of host interference from moving the result.
    let grid: Vec<Cell> = (0..images.len())
        .flat_map(|image| FaultClass::ALL.map(|class| (image, class)))
        .flat_map(|cell| [cell; SEEDS_PER_CLASS])
        .enumerate()
        .map(|(i, (image, class))| Cell {
            image,
            class,
            fault_seed: rng.next_u64(),
            cut: 500 + rng.below(3500),
            migrate: i as u64 % MIGRATE_EVERY == MIGRATE_EVERY - 1,
        })
        .collect();
    let mut tally = Tally::new(grid.len());
    let until = b.deadline();
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < until {
        golden.rep(b, &kernels, &mut rng);
        tally.round(
            b, &mut vm, &mut twin, &images, &grid, &targets, &insts, &mut rng,
        );
        b.between_reps(&opts, &loads(), 7);
        round += 1;
    }
    for out in tally.firsts.iter().flatten() {
        b.digest_line(&out.fingerprint);
    }
    b.say(format!(
        "{} cells ({} distinct, {round} rounds), {} v3 migrations",
        tally.walls.iter().map(Vec::len).sum::<usize>(),
        grid.len(),
        tally.migrated.len()
    ));

    if b.trace {
        crate::smp::plane_probe(&vm, 1, &mut b.values);
        setup::layers(&opts, &cell_config(), 20, &mut b.values);
        // The traced rep: every cell of the grid again, untraced and then on
        // a machine carrying a HostClock; both must end identically.
        let mut traced = Vm::with_tracer(kernels.safe.clone(), cell_config(), HostClock::default())
            .expect("kernel loads");
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for cell in grid.iter().map(|c| Cell {
            migrate: false,
            ..*c
        }) {
            let image = &images[cell.image];
            let plain = run_cell(&mut vm, &mut twin, image, &cell, &targets);
            tally.bundle(&mut vm);
            let t = run_cell(&mut traced, &mut twin, image, &cell, &targets);
            let same = plain.fingerprint == t.fingerprint;
            if !same {
                b.note(format!("{}: tracing changed the cell", cell.label(&insts)));
            }
            b.op(same);
            plain_s += plain.wall_s;
            traced_s += t.wall_s;
        }
        let clock = std::mem::take(traced.tracer_mut());
        b.traced(clock, plain_s, traced_s);
    }

    let (instructions, traps, wall) = tally.report(b);
    let v = &mut b.values;
    v.set("guest_mips", instructions as f64 / wall / 1e6);
    v.set("syscalls_per_s", traps as f64 / wall);
    ladder_metrics(&golden.rungs(), v);
}

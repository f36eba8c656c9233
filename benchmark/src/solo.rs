//! Guest programs booted solo, one fresh machine per run, on every rung
//! of the kernel-config ladder: native → sva-llvm → sva-safe. The llvm −
//! native difference is the cost of the SVA-OS layer, safe − llvm the
//! cost of the run-time checks.

use std::time::Instant;

use sva_kernel::build::KernelOptions;
use sva_kernel::harness::{boot_user, pack_arg};
use sva_rt::CheckStats;
use sva_vm::{KernelKind, Tracer, Vm, VmConfig, VmError, VmExit, VmStats};

use crate::hostclock::HostClock;
use crate::rng::Rng;
use crate::setup::{self, Kernels};
use crate::stats::{fastest, median};
use crate::{ladder_metrics, Bench, CHUNKS};

pub const LADDER: [KernelKind; 3] = [KernelKind::Native, KernelKind::SvaLlvm, KernelKind::SvaSafe];
pub const SAFE: usize = 2;

pub fn config(kind: KernelKind) -> VmConfig {
    VmConfig {
        kind,
        opt_level: 2,
        ..Default::default()
    }
}

/// One program of a workload at its nominal size.
#[derive(Clone, Copy)]
pub struct Item {
    pub program: &'static str,
    pub iters: u64,
    pub size: u64,
}

/// A program with its generated argument.
#[derive(Clone, Debug)]
pub struct Instance {
    pub label: String,
    pub program: &'static str,
    pub arg: u64,
}

impl Item {
    pub fn instance(&self, iters: u64) -> Instance {
        Instance {
            label: format!("{}({iters}x{})", self.program, self.size),
            program: self.program,
            arg: pack_arg(iters, self.size, 0),
        }
    }
}

/// Each item becomes an instance per iteration count the seed draws for
/// it (see [`Rng::iteration_counts`]).
pub fn instances(items: &[Item], rng: &mut Rng) -> Vec<Instance> {
    let mut out = Vec::new();
    for it in items {
        for iters in rng.iteration_counts(it.iters) {
            out.push(it.instance(iters));
        }
    }
    out
}

/// What one boot → workload → halt produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub wall_s: f64,
    pub exit: Result<VmExit, VmError>,
    pub stats: VmStats,
    pub checks: CheckStats,
    pub console: Vec<u8>,
}

impl Outcome {
    pub fn clean(&self) -> bool {
        matches!(self.exit, Ok(VmExit::Halted(0) | VmExit::Returned(0)))
    }
}

pub fn boot<T: Tracer>(vm: &mut Vm<T>, inst: &Instance) -> Outcome {
    let t = Instant::now();
    let exit = boot_user(vm, inst.program, inst.arg);
    Outcome {
        wall_s: t.elapsed().as_secs_f64(),
        exit,
        stats: vm.stats(),
        checks: vm.pools.total_stats(),
        console: vm.console.clone(),
    }
}

/// A workload's kernel-config ladder: the wall samples of each program
/// (one per rep) on the native, sva-llvm and sva-safe rungs, and each
/// rung's counters summed over programs (the same in every rep).
#[derive(Clone, Debug, Default)]
pub struct Rungs {
    pub walls: Vec<[Vec<f64>; 3]>,
    pub stats: [VmStats; 3],
    pub checks: [CheckStats; 3],
}

impl Rungs {
    /// Host seconds of one pass over the programs on `rung`: the sum of
    /// each program's fastest wall. See README.md, "Host noise".
    pub fn wall(&self, rung: usize) -> f64 {
        self.walls.iter().map(|w| fastest(&w[rung])).sum()
    }

    /// How much longer a pass takes on rung `to` than on rung `from`: the
    /// median over reps of the two rungs' pass walls in that rep. The
    /// rungs of one program run back to back, so each rep's ratio
    /// compares walls taken under the same host conditions.
    pub fn ratio(&self, to: usize, from: usize) -> f64 {
        let reps = self
            .walls
            .iter()
            .flat_map(|w| w.iter().map(Vec::len))
            .min()
            .unwrap_or(0);
        let pass = |k: usize, r: usize| self.walls.iter().map(|w| w[k][r]).sum::<f64>();
        let ratios: Vec<f64> = (0..reps).map(|r| pass(to, r) / pass(from, r)).collect();
        median(&ratios)
    }
}

/// Per-(instance, rung) wall samples and the first run's outcome, which
/// every later run of the same pair must reproduce exactly.
pub struct Ladder {
    pub insts: Vec<Instance>,
    walls: Vec<[Vec<f64>; 3]>,
    first: Vec<[Option<Outcome>; 3]>,
    pub reps: usize,
}

impl Ladder {
    pub fn new(insts: Vec<Instance>) -> Ladder {
        let n = insts.len();
        Ladder {
            insts,
            walls: (0..n).map(|_| Default::default()).collect(),
            first: (0..n).map(|_| Default::default()).collect(),
            reps: 0,
        }
    }

    /// Records one run and checks it: a clean exit, the same stats as the
    /// first run of this (instance, rung), and the same console bytes as
    /// the instance's runs on the other rungs.
    fn record(&mut self, b: &mut Bench, i: usize, rung: usize, o: Outcome) {
        let label = &self.insts[i].label;
        let mut ok = o.clean();
        if !ok {
            b.note(format!("{label} on {}: {:?}", LADDER[rung].label(), o.exit));
        }
        match &self.first[i][rung] {
            None => {
                b.digest(&o.stats, &o.checks);
                if let Some(other) = self.first[i].iter().flatten().next() {
                    if other.console != o.console {
                        ok = false;
                        b.note(format!("{label}: console differs across configurations"));
                    }
                }
                self.first[i][rung] = Some(o.clone());
            }
            Some(f) => {
                if (f.stats, f.checks) != (o.stats, o.checks) {
                    ok = false;
                    b.note(format!(
                        "{label} on {}: stats differ across reps",
                        LADDER[rung].label()
                    ));
                }
            }
        }
        b.op(ok);
        self.walls[i][rung].push(o.wall_s);
    }

    /// One rep: every instance on every rung, programs in a seeded order
    /// and the rung order rotating from rep to rep.
    pub fn rep(&mut self, b: &mut Bench, kernels: &Kernels, rng: &mut Rng) {
        let mut order: Vec<usize> = (0..self.insts.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            for k in 0..LADDER.len() {
                let rung = (self.reps + k) % LADDER.len();
                let kind = LADDER[rung];
                let mut vm = Vm::new(kernels.for_kind(kind), config(kind)).expect("kernel loads");
                let o = boot(&mut vm, &self.insts[i]);
                self.record(b, i, rung, o);
            }
        }
        self.reps += 1;
    }

    /// Every program's wall samples, and the counters summed over
    /// programs.
    pub fn rungs(&self) -> Rungs {
        let mut r = Rungs {
            walls: self.walls.clone(),
            ..Default::default()
        };
        for first in &self.first {
            for (k, o) in first.iter().enumerate() {
                if let Some(o) = o {
                    r.stats[k].fold(&o.stats);
                    r.checks[k].merge(&o.checks);
                }
            }
        }
        r
    }

    /// Reruns every instance once on a sva-safe machine carrying a
    /// [`HostClock`], right after an untraced run of the same instance,
    /// and checks that tracing changed no counter. Returns the clock and
    /// the traced and untraced wall sums.
    pub fn traced_rep(&self, b: &mut Bench, kernels: &Kernels) -> (HostClock, f64, f64) {
        let mut clock = HostClock::default();
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for inst in &self.insts {
            let mut vm =
                Vm::new(kernels.safe.clone(), config(KernelKind::SvaSafe)).expect("kernel loads");
            let plain = boot(&mut vm, inst);
            let mut vm = Vm::with_tracer(
                kernels.safe.clone(),
                config(KernelKind::SvaSafe),
                HostClock::default(),
            )
            .expect("kernel loads");
            let traced = boot(&mut vm, inst);
            let same = (plain.stats, plain.checks) == (traced.stats, traced.checks);
            if !same {
                b.note(format!("{}: tracing changed the stats", inst.label));
            }
            b.op(same && traced.clean());
            plain_s += plain.wall_s;
            traced_s += traced.wall_s;
            clock.absorb(vm.into_tracer());
        }
        (clock, plain_s, traced_s)
    }
}

pub fn item(program: &'static str, iters: u64, size: u64) -> Item {
    Item {
        program,
        iters,
        size,
    }
}

/// Table 7's raw kernel operations. `write` and `pipe` run once per chunk
/// size, so that every seed exercises every size in the same proportion.
fn syscall_mix_items() -> Vec<Item> {
    let mut v = vec![
        item("user_getpid_loop", 2000, 0),
        item("user_getrusage_loop", 2000, 0),
        item("user_gettimeofday_loop", 2000, 0),
        item("user_sbrk_loop", 2000, 0),
        item("user_sigaction_loop", 2000, 0),
        item("user_openclose_loop", 500, 0),
        item("user_fork_loop", 60, 0),
        item("user_forkexec_loop", 60, 0),
    ];
    for size in CHUNKS {
        v.push(item("user_write_loop", 250, size));
        v.push(item("user_pipe_loop", 75, size));
    }
    v
}

/// Table 8's data movers and Table 5's applications, scaled down so that
/// a rep of all three rungs takes under a second.
fn copy_apps_items() -> Vec<Item> {
    vec![
        item("user_pipe_bw", 24, 2048),
        item("user_fileread_bw", 16, 4096),
        item("user_scp", 8, 4096),
        item("user_thttpd", 1, 85 * 1024),
        item("user_bzip2", 12, 0),
        item("user_gcc", 20, 0),
    ]
}

/// At least this many reps of every (program, rung) pair.
const MIN_REPS: usize = 11;

pub fn syscall_mix(b: &mut Bench) {
    run(b, &syscall_mix_items());
}

pub fn copy_apps(b: &mut Bench) {
    run(b, &copy_apps_items());
}

pub fn loads() -> Vec<VmConfig> {
    LADDER.iter().map(|&k| config(k)).collect()
}

fn run(b: &mut Bench, items: &[Item]) {
    let mut rng = Rng::new(b.seed);
    let opts = KernelOptions::default();
    let loads = loads();
    let kernels = b.first_setup(&opts, &loads);
    let mut ladder = Ladder::new(instances(items, &mut rng));
    let until = b.deadline();
    while ladder.reps < MIN_REPS || Instant::now() < until {
        ladder.rep(b, &kernels, &mut rng);
        b.between_reps(&opts, &loads, 5);
    }
    let rungs = ladder.rungs();
    let (safe, wall) = (&rungs.stats[SAFE], rungs.wall(SAFE));
    let v = &mut b.values;
    v.set("guest_mips", safe.instructions as f64 / wall / 1e6);
    v.set("syscalls_per_s", safe.traps as f64 / wall);
    ladder_metrics(&rungs, v);
    b.say(format!(
        "{} reps of {} programs",
        ladder.reps,
        ladder.insts.len()
    ));
    if b.trace {
        let template =
            Vm::new(kernels.safe.clone(), config(KernelKind::SvaSafe)).expect("kernel loads");
        crate::smp::plane_probe(&template, 1, &mut b.values);
        setup::layers(&opts, &config(KernelKind::SvaSafe), 20, &mut b.values);
        let (clock, plain_s, traced_s) = ladder.traced_rep(b, &kernels);
        b.traced(clock, plain_s, traced_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_every_generated_argument() {
        let args = |seed| {
            let mut rng = Rng::new(seed);
            instances(&syscall_mix_items(), &mut rng)
                .into_iter()
                .map(|i| i.arg)
                .collect::<Vec<_>>()
        };
        assert_eq!(args(11), args(11));
        assert_ne!(args(11), args(12));
    }

    #[test]
    fn the_rung_ratio_pairs_walls_of_the_same_rep() {
        // The host halves its speed after two reps; every rep's safe pass
        // still takes 1.5 times its native pass.
        let rungs = Rungs {
            walls: vec![[
                vec![1.0, 1.0, 2.0, 2.0],
                vec![1.2, 1.2, 2.4, 2.4],
                vec![1.5, 1.5, 3.0, 3.0],
            ]],
            ..Default::default()
        };
        assert_eq!(rungs.ratio(SAFE, 0), 1.5);
    }
}

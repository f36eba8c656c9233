//! `smp_churn`: syscall job batches on an `SmpMachine` whose vCPUs share
//! one epoch-published metapool plane. 2-vCPU batches alternate with
//! 1-vCPU batches of the same per-vCPU work; native and sva-llvm 2-vCPU
//! batches complete the kernel-config ladder.

use std::sync::Arc;
use std::time::Instant;

use sva_kernel::build::KernelOptions;
use sva_rt::{CheckStats, PlaneReader, SharedMetaPlane};
use sva_vm::{KernelKind, SmpJob, SmpMachine, SmpReport, Vm, VmConfig, VmStats};

use crate::metrics::Values;
use crate::rng::Rng;
use crate::setup;
use crate::solo::{self, item, Instance, Item, Rungs, SAFE};
use crate::stats::median;
use crate::{ladder_metrics, Bench, CHUNKS};

fn items() -> Vec<Item> {
    let mut v = vec![
        item("user_getpid_loop", 100, 0),
        item("user_openclose_loop", 30, 0),
    ];
    for size in CHUNKS {
        v.push(item("user_write_loop", 40, size));
        v.push(item("user_pipe_loop", 20, size));
    }
    v
}

/// At least this many rounds, each a 2-vCPU/1-vCPU pair plus the ladder.
const MIN_ROUNDS: usize = 9;

/// The four machines: (label, kind, vCPUs).
const MACHINES: [(&str, KernelKind, u32); 4] = [
    ("safe2", KernelKind::SvaSafe, 2),
    ("safe1", KernelKind::SvaSafe, 1),
    ("native2", KernelKind::Native, 2),
    ("llvm2", KernelKind::SvaLlvm, 2),
];

fn machine_config(kind: KernelKind, vcpus: u32) -> VmConfig {
    VmConfig {
        vcpus,
        ..solo::config(kind)
    }
}

pub fn loads() -> Vec<VmConfig> {
    MACHINES
        .iter()
        .map(|&(_, kind, vcpus)| machine_config(kind, vcpus))
        .collect()
}

fn jobs(template: &Vm, insts: &[Instance], rng: &mut Rng) -> Vec<SmpJob> {
    let mut jobs: Vec<SmpJob> = insts
        .iter()
        .map(|i| {
            let addr = template
                .func_address(i.program)
                .expect("workload program exists");
            SmpJob::boot_user(i.label.clone(), addr, i.arg)
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

#[derive(Default)]
struct Batches {
    walls: Vec<f64>,
    first: Option<VmStats>,
    checks: Option<CheckStats>,
    epochs: Vec<f64>,
    steals: Vec<f64>,
    parks: Vec<f64>,
    retired: Vec<f64>,
}

/// The counters that do not depend on how jobs interleave across vCPUs.
fn schedule_invariant(s: &VmStats) -> (u64, u64, u64) {
    (s.instructions, s.cycles, s.traps)
}

pub fn run(b: &mut Bench) {
    let mut rng = Rng::new(b.seed);
    let opts = KernelOptions::default();
    let kernels = b.first_setup(&opts, &loads());

    // The antithetic halves: a 2-vCPU batch runs both, a 1-vCPU batch
    // runs them in turn, so every vCPU does the same nominal work.
    let mut halves: [Vec<Instance>; 2] = [Vec::new(), Vec::new()];
    for it in items() {
        for (half, iters) in rng.iteration_counts(it.iters).into_iter().enumerate() {
            halves[half].push(it.instance(iters));
        }
    }
    let insts: Vec<Instance> = halves.concat();
    let mut machines: Vec<SmpMachine> = MACHINES
        .iter()
        .map(|&(_, kind, vcpus)| {
            SmpMachine::new(
                Vm::new(kernels.for_kind(kind), machine_config(kind, vcpus)).expect("kernel loads"),
            )
        })
        .collect();
    let mut batches: Vec<Batches> = (0..MACHINES.len()).map(|_| Batches::default()).collect();
    let mut half_stats: [Option<VmStats>; 2] = [None, None];
    let mut speedups = Vec::new();
    let until = b.deadline();
    let mut round = 0usize;
    while round < MIN_ROUNDS || Instant::now() < until {
        let half = round % 2;
        let mut order = [0usize, 1, 2, 3];
        if round % 2 == 1 {
            order = [1, 0, 3, 2];
        }
        let mut tput = [0.0; 2];
        for m in order {
            let insts = if MACHINES[m].2 == 2 {
                &insts
            } else {
                &halves[half]
            };
            let batch = jobs(machines[m].template(), insts, &mut rng);
            let epoch0 = machines[m].plane().map_or(0, |p| p.epoch());
            let r = machines[m].run(batch);
            record(b, MACHINES[m].0, &mut batches[m], &r, epoch0);
            // Every batch of a machine runs the same jobs (a 1-vCPU batch
            // one of the two halves). A 1-vCPU machine is the classic
            // deterministic one; on two vCPUs only the counters that do not
            // depend on the interleaving must repeat.
            let key = |s: &VmStats| match MACHINES[m].2 {
                1 => format!("{s:?}"),
                _ => format!("{:?}", schedule_invariant(s)),
            };
            let expected = if m == 1 {
                &mut half_stats[half]
            } else {
                &mut batches[m].first
            };
            match expected {
                None => {
                    b.digest_line(&format!("{} {}", MACHINES[m].0, key(&r.merged)));
                    *expected = Some(r.merged);
                }
                Some(f) => b.check(
                    key(f) == key(&r.merged),
                    &format!(
                        "smp_churn: {} batches differ in merged counters",
                        MACHINES[m].0
                    ),
                ),
            }
            if m < 2 {
                tput[m] = r.total_syscalls as f64 / r.wall.as_secs_f64();
            }
        }
        speedups.push(tput[0] / tput[1]);
        b.between_reps(&opts, &loads(), 4);
        round += 1;
    }
    // A 2-vCPU batch runs both halves: its merged instructions and traps
    // must equal the two 1-vCPU batches added together.
    if let (Some(a), Some(c), Some(two)) = (&half_stats[0], &half_stats[1], &batches[0].first) {
        let mut sum = *a;
        sum.fold(c);
        b.check(
            (sum.instructions, sum.traps) == (two.instructions, two.traps),
            "smp_churn: 2-vCPU merged counters are not the sum of the 1-vCPU batches",
        );
    }

    // The ladder's one "program" is the 2-vCPU batch; rounds are its reps.
    let ladder_machines = [2, 3, 0];
    let mut rungs = Rungs {
        walls: vec![ladder_machines.map(|m| batches[m].walls.clone())],
        ..Default::default()
    };
    for (k, m) in ladder_machines.into_iter().enumerate() {
        rungs.stats[k] = batches[m].first.unwrap_or_default();
        rungs.checks[k] = batches[m].checks.unwrap_or_default();
    }
    let safe2 = &batches[0];
    let wall = rungs.wall(SAFE);
    let s = rungs.stats[SAFE];
    let v = &mut b.values;
    v.set("guest_mips", s.instructions as f64 / wall / 1e6);
    v.set("syscalls_per_s", s.traps as f64 / wall);
    ladder_metrics(&rungs, v);
    v.set("sva-vm.smp.speedup", median(&speedups));
    v.set("sva-vm.smp.steals", median(&safe2.steals));
    v.set("sva-vm.smp.parks", median(&safe2.parks));
    v.set("sva-vm.smp.retired_snapshots", median(&safe2.retired));
    let publishes = median(&safe2.epochs);
    v.set("sva-rt.shared.publishes", publishes);

    if b.trace {
        let publish_us = plane_probe(machines[0].template(), 2, &mut b.values);
        b.values.set(
            "sva-rt.shared.publish_share",
            publishes * publish_us * 1e-6 / wall,
        );
        setup::layers(&opts, &solo::config(KernelKind::SvaSafe), 20, &mut b.values);
        let traced = solo::Ladder::new(insts.clone());
        let (clock, plain_s, traced_s) = traced.traced_rep(b, &kernels);
        b.traced(clock, plain_s, traced_s);
    }
}

fn record(b: &mut Bench, label: &str, bt: &mut Batches, r: &SmpReport, epoch0: u64) {
    let failures = r.failures();
    for j in &failures {
        b.note(format!(
            "{label}: job {} on cpu {}: {:?}",
            j.label, j.cpu, j.exit
        ));
    }
    b.ops(r.jobs.len() as u64, failures.len() as u64);
    if bt.checks.is_none() {
        let mut checks = CheckStats::default();
        for c in &r.cpus {
            checks.merge(&c.checks);
        }
        bt.checks = Some(checks);
    }
    bt.walls.push(r.wall.as_secs_f64());
    bt.epochs.push((r.final_epoch - epoch0) as f64);
    bt.steals
        .push(r.cpus.iter().map(|c| c.steals).sum::<u64>() as f64);
    bt.parks
        .push(r.cpus.iter().map(|c| c.parks).sum::<u64>() as f64);
    bt.retired.push(r.retired_snapshots as f64);
}

/// Times the shared plane's write and read paths on a plane built from
/// the workload's own template (one slot range per vCPU): one publish
/// per `register` or `drop_obj`, and an epoch-validated reader lookup.
/// Returns the publish cost in microseconds.
pub fn plane_probe(template: &Vm, vcpus: u32, v: &mut Values) -> f64 {
    const PUBLISHES: u64 = 2000;
    const LOOKUPS: u64 = 200_000;
    const BASE: u64 = 0x7f00_0000_0000;
    let plane = Arc::new(SharedMetaPlane::new());
    let bases: Vec<u32> = (0..vcpus)
        .map(|_| template.pools.publish_to_plane(&plane))
        .collect();
    let slot = bases[0];
    let t = Instant::now();
    for i in 0..PUBLISHES / 2 {
        let addr = BASE + i * 64;
        plane.register(slot, addr, 32).expect("probe range is free");
        plane.drop_obj(slot, addr).expect("probe object is live");
    }
    let publish_us = t.elapsed().as_secs_f64() * 1e6 / PUBLISHES as f64;
    plane.register(slot, BASE, 32).expect("probe range is free");
    let mut reader = PlaneReader::new(plane);
    let t = Instant::now();
    for i in 0..LOOKUPS {
        std::hint::black_box(reader.lookup(slot, BASE + i % 32));
    }
    v.set("sva-rt.shared.publish_us", publish_us);
    v.set(
        "sva-rt.shared.lookup_ns",
        t.elapsed().as_secs_f64() * 1e9 / LOOKUPS as f64,
    );
    publish_us
}

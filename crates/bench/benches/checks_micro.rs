//! Microbenchmarks of the safety substrate itself: splay-tree lookups
//! (the cost unit behind every bounds check) and metapool operations.
//! This is the ablation behind the paper's §7.1.3 "fat pointers instead of
//! splay lookups" optimization discussion.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sva_kernel::harness::{boot_user, make_vm_cfg, pack_arg, USER_HEAP_BASE};
use sva_rt::{MetaPool, SplayTree};
use sva_trace::{
    EventClass, FlightRecorder, LookupLayer, NullTracer, RingTracer, TraceEvent, Tracer,
};
use sva_vm::{KernelKind, VmConfig};

fn splay(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt/splay");
    // Hot lookup: repeated hits on the same object (the common pattern the
    // splay tree optimizes for).
    g.bench_function("lookup_hot", |b| {
        let mut t = SplayTree::new();
        for i in 0..1024u64 {
            t.insert(i * 64, 64);
        }
        b.iter(|| t.lookup(512 * 64 + 8));
    });
    // Cold lookups: uniformly spread accesses.
    g.bench_function("lookup_spread", |b| {
        let mut t = SplayTree::new();
        for i in 0..1024u64 {
            t.insert(i * 64, 64);
        }
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.lookup((x % 1024) * 64 + 8)
        });
    });
    g.bench_function("insert_remove", |b| {
        b.iter_batched(
            SplayTree::new,
            |mut t| {
                for i in 0..256u64 {
                    t.insert(i * 32, 32);
                }
                for i in 0..256u64 {
                    t.remove(i * 32);
                }
                t
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();

    let mut g = c.benchmark_group("rt/metapool");
    g.bench_function("bounds_check_hit", |b| {
        let mut p = MetaPool::new("bench", true, true, Some(64));
        p.reg_obj(0x1000, 4096).unwrap();
        b.iter(|| p.bounds_check(0x1800, 0x1801));
    });
    g.bench_function("ls_check_hit", |b| {
        let mut p = MetaPool::new("bench", false, true, None);
        p.reg_obj(0x1000, 4096).unwrap();
        b.iter(|| p.ls_check(0x1800));
    });
    g.finish();
}

/// Builds a pool with `n` registered 64-byte objects, 256 bytes apart.
fn pool_with_objects(n: u64, fast_path: bool) -> MetaPool {
    let mut p = MetaPool::new("bench", false, true, None);
    p.set_fast_path(fast_path);
    for i in 0..n {
        p.reg_obj(0x1_0000 + i * 0x100, 64).unwrap();
    }
    p
}

/// The fast path vs. the splay-only baseline (set_fast_path(false)) on the
/// two workload shapes that matter: repeated access to the same few hot
/// objects (the paper's locality argument — served by the MRU cache) and a
/// pseudo-random spread over many objects (served by the range index).
fn fastpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt/fastpath");
    for (label, fast) in [("repeat_fast", true), ("repeat_baseline", false)] {
        g.bench_function(label, |b| {
            let mut p = pool_with_objects(1024, fast);
            let mut i = 0u64;
            b.iter(|| {
                // Two hot objects, alternating: fits the 2-entry MRU.
                i = i.wrapping_add(1);
                let addr = 0x1_0000 + (i & 1) * 0x100 + 8;
                p.ls_check(addr)
            });
        });
    }
    for (label, fast) in [("spread_fast", true), ("spread_baseline", false)] {
        g.bench_function(label, |b| {
            let mut p = pool_with_objects(1024, fast);
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = 0x1_0000 + (x % 1024) * 0x100 + 8;
                p.ls_check(addr)
            });
        });
    }
    g.finish();

    // One-shot layer breakdown on a mixed workload, so the bench output
    // documents where lookups resolve (cache / range index / tree).
    let mut p = pool_with_objects(1024, true);
    let mut x = 0u64;
    for i in 0..100_000u64 {
        // 75% hot-pair traffic, 25% spread.
        let addr = if i % 4 != 0 {
            0x1_0000 + (i & 1) * 0x100 + 8
        } else {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            0x1_0000 + (x % 1024) * 0x100 + 8
        };
        let _ = p.ls_check(addr);
    }
    let s = *p.stats();
    println!(
        "rt/fastpath breakdown (100k mixed lookups): cache_hits {} ({:.1}%), \
         page_hits {} ({:.1}%), tree_walks {} ({:.1}%)",
        s.cache_hits,
        100.0 * s.cache_hits as f64 / s.lookups() as f64,
        s.page_hits,
        100.0 * s.page_hits as f64 / s.lookups() as f64,
        s.tree_walks,
        100.0 * s.tree_walks as f64 / s.lookups() as f64,
    );
}

/// The singleton test (DESIGN.md §4.1): a pool holding exactly one live
/// object answers every lookup with two compares, ahead of the MRU. The
/// nightly gate watches this repeat-hit median next to `repeat_fast`.
fn singleton(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt/singleton");
    g.bench_function("repeat_singleton", |b| {
        let mut p = pool_with_objects(1, true);
        let mut i = 0u64;
        b.iter(|| {
            // Walk offsets inside the lone 64-byte object.
            i = i.wrapping_add(1);
            p.ls_check(0x1_0000 + (i & 0x38))
        });
    });
    g.finish();
}

/// One iteration of a traced repeat-hit check site, mirroring the VM's
/// `pchk.lscheck` dispatch: the check itself and a recording block behind
/// `T::wants(EventClass::Check)`. The `wants` test is a constant per
/// monomorphization, so the compiler deletes the whole block for tracers
/// whose `WANTED` mask excludes the `Check` class.
#[inline(always)]
fn traced_check_step<T: Tracer>(p: &mut MetaPool, tracer: &mut T, i: &mut u64) -> bool {
    *i = i.wrapping_add(1);
    let addr = 0x1_0000 + (*i & 1) * 0x100 + 8;
    let r = p.ls_check(addr);
    if T::wants(EventClass::Check) {
        tracer.record(
            *i * 16,
            TraceEvent::Check {
                check: "pchk.lscheck",
                pool: 0,
                layer: LookupLayer::Cache,
                passed: r.is_ok(),
                cost: 16,
            },
        );
    }
    r.is_ok()
}

/// Times one slice of the traced site; returns ns per iteration.
fn flight_slice<T: Tracer>(p: &mut MetaPool, tracer: &mut T, i: &mut u64, iters: u64) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        criterion::black_box(traced_check_step(p, tracer, i));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Appends a result line in the criterion shim's JSON format, so
/// `bench_gate` can read hand-measured ids alongside shim-measured ones.
fn emit_result(id: &str, ns: &mut [f64], iters: u64) {
    ns.sort_by(|a, b| a.total_cmp(b));
    let (lo, median, hi) = (ns[0], ns[ns.len() / 2], ns[ns.len() - 1]);
    println!("{id:<44} time: [{lo:.2} ns {median:.2} ns {hi:.2} ns]");
    let dir = std::env::var("SVA_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            let mut cur = std::env::var("CARGO_MANIFEST_DIR")
                .map(std::path::PathBuf::from)
                .or_else(|_| std::env::current_dir())
                .unwrap_or_else(|_| std::path::PathBuf::from("."));
            loop {
                if cur.join("Cargo.lock").exists() {
                    break cur.join("target").join("sva-bench");
                }
                if !cur.pop() {
                    break std::path::PathBuf::from("target/sva-bench");
                }
            }
        });
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("checks_micro.json"))
    {
        let _ = writeln!(
            f,
            "{{\"bench\":\"checks_micro\",\"id\":\"{id}\",\"ns_low\":{lo:.1},\"ns_median\":{median:.1},\
             \"ns_high\":{hi:.1},\"iters_per_sample\":{iters},\"samples\":{}}}",
            ns.len()
        );
    }
}

/// The always-on flight recorder's tax on the repeat-hit check path
/// (DESIGN.md §4.7). `FlightRecorder` excludes the `Check` class from its
/// `WANTED` mask, so `repeat_flight` must price the same as `repeat_null`
/// — `bench_gate` pairs the two at ≤5%. A 5% bar on a ~7 ns site is far
/// below this runner's noise floor if the two sides differ in *anything*
/// but the tracer: separately allocated pools can land on unlucky
/// cache-aliasing addresses and one side then pays ~2x for the whole
/// process. So both sides drive the *same* pool and counter in
/// alternating slices within one harness — layout luck and machine-speed
/// drift apply to both equally and cancel. `repeat_ring` (the
/// full-firehose tracer on the identical site) stays on the shim as an
/// ungated contrast number.
fn flight(c: &mut Criterion) {
    const SLICE_ITERS: u64 = 200_000;
    const SAMPLES: usize = 61;
    let mut pool = pool_with_objects(1024, true);
    let mut null_tracer = NullTracer;
    let mut flight_tracer = FlightRecorder::default();
    let mut i = 0u64;
    // Warmup, alternating like the measurement will.
    for _ in 0..3 {
        flight_slice(&mut pool, &mut null_tracer, &mut i, SLICE_ITERS);
        flight_slice(&mut pool, &mut flight_tracer, &mut i, SLICE_ITERS);
    }
    let mut null_ns = Vec::with_capacity(SAMPLES);
    let mut flight_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        null_ns.push(flight_slice(
            &mut pool,
            &mut null_tracer,
            &mut i,
            SLICE_ITERS,
        ));
        flight_ns.push(flight_slice(
            &mut pool,
            &mut flight_tracer,
            &mut i,
            SLICE_ITERS,
        ));
    }
    emit_result("rt/flight/repeat_null", &mut null_ns, SLICE_ITERS);
    emit_result("rt/flight/repeat_flight", &mut flight_ns, SLICE_ITERS);

    let mut g = c.benchmark_group("rt/flight");
    g.bench_function("repeat_ring", |b| {
        let mut p = pool_with_objects(1024, true);
        let mut t = RingTracer::default();
        let mut i = 0u64;
        b.iter(|| traced_check_step(&mut p, &mut t, &mut i));
    });
    g.finish();
}

/// The fused checked-load path on the real kernel (DESIGN.md §4.4): the
/// same pool-checked syscall (`sys_getrusage` dereferences user memory
/// through a metapool check) on the sva-safe kernel with the optimizing
/// tier off vs on. At opt 2 the hot checked loads dispatch as
/// `FusedGepChkLoad` triples; the delta is the dispatch overhead fusion
/// deletes. Reported for context — the cycle-exact accounting is gated
/// by `opt_equiv` and the nightly `--opt-compare` artifact.
fn fused_checked_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm/fusion");
    for (label, opt) in [("getrusage_unfused", 0u8), ("getrusage_fused", 2)] {
        g.bench_function(label, |b| {
            let mut vm = make_vm_cfg(VmConfig {
                kind: KernelKind::SvaSafe,
                opt_level: opt,
                ..Default::default()
            });
            boot_user(&mut vm, "user_hello", 0).unwrap();
            assert_eq!(vm.fused_chk_sites() > 0, opt == 2);
            b.iter(|| vm.call("sys_getrusage", &[USER_HEAP_BASE]));
        });
    }
    g.finish();
}

/// The host price of the run-time checks on the real kernel (DESIGN.md
/// §4.11): a `user_fileread_bw` boot (16 reads of 4 KiB, each byte
/// copied through a bounds check and an `lscheck`) on the native rung
/// and on sva-safe, each on a fresh machine built untimed. A sample is
/// the fastest of three boots, and the two sides alternate sample by
/// sample, as the flight pair's slices do: on a shared host, load bursts
/// then land on both sides alike instead of on whichever ran during one.
/// No gate reads the pair: run to run its ratio swings about as far as
/// the check ops moved it (EXPERIMENTS.md, "Check ops").
fn checked_fileread(_c: &mut Criterion) {
    const SAMPLES: usize = 61;
    let boot = |kind: KernelKind| {
        let mut vm = make_vm_cfg(VmConfig {
            kind,
            ..Default::default()
        });
        let start = std::time::Instant::now();
        boot_user(&mut vm, "user_fileread_bw", pack_arg(16, 4096, 0)).unwrap();
        start.elapsed().as_nanos() as f64
    };
    let sample = |kind| (0..3).map(|_| boot(kind)).fold(f64::INFINITY, f64::min);
    sample(KernelKind::Native);
    sample(KernelKind::SvaSafe);
    let (mut native, mut safe) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        native.push(sample(KernelKind::Native));
        safe.push(sample(KernelKind::SvaSafe));
    }
    emit_result("vm/checks/fileread_native", &mut native, 3);
    emit_result("vm/checks/fileread_safe", &mut safe, 3);
}

criterion_group!(
    benches,
    splay,
    fastpath,
    singleton,
    flight,
    fused_checked_load,
    checked_fileread
);
criterion_main!(benches);

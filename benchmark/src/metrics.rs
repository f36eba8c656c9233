//! Every metric the benchmark reports, declared once. `BENCHMARK.json`
//! mirrors these tables (a unit test keeps the two in step) and the
//! README explains each one.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` counts a regression. Every end-to-end metric has one (the
    /// one `BENCHMARK.json` lists); a per-layer metric has one only when it
    /// is a workload's own headline number.
    pub bound: Option<f64>,
    /// The end-to-end metric and workload a per-layer metric should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

/// A per-layer metric that carries one workload's headline number, so
/// `compare` holds it to a bound of its own.
const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> Metric {
    Metric {
        bound: Some(bound),
        ..layer(name, unit, better, moves)
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("guest_mips", "MIPS", Higher, 0.25),
    e2e("syscalls_per_s", "1/s", Higher, 0.25),
    e2e("host_overhead_pct", "%", Lower, 0.25),
    e2e("vcycle_overhead_pct", "%", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Deterministic metrics: `compare` counts any change in them, better or
/// worse, as a regression, whatever their bound.
pub const EXACT: &[&str] = &["vcycle_overhead_pct"];

const SETUP: &str = "setup_s on every workload";
const DISPATCH: &str = "guest_mips, mostly on copy_apps (bzip2, gcc)";
const OS: &str = "syscalls_per_s on syscall_mix; about nothing on copy_apps";
const CHECK_READ: &str = "host_overhead_pct and guest_mips on copy_apps; little on syscall_mix";
const CHECK_WRITE: &str = "syscalls_per_s on syscall_mix and smp_churn";
const PLANE: &str = "syscalls_per_s and host_overhead_pct on smp_churn only";
const CODEC: &str = "guest_mips and syscalls_per_s on fault_checkpoint only";
const RECOVERY: &str = "guest_mips on fault_checkpoint";
const TRACED: &str = "traced run only: where syscalls_per_s goes, per workload";

/// Single layers, measured in the `--trace 1` run. Grouped by the crate
/// that owns the layer.
pub const PER_LAYER: &[Metric] = &[
    // Set-up chain, timed around each public call.
    layer("sva-kernel.build_ms", "ms", Lower, SETUP),
    layer("sva-analysis.analyze_ms", "ms", Lower, SETUP),
    layer("sva-core.compile_ms", "ms", Lower, SETUP),
    layer("sva-core.verify_ms", "ms", Lower, SETUP),
    layer("sva-ir.encode_ms", "ms", Lower, SETUP),
    layer("sva-ir.decode_ms", "ms", Lower, SETUP),
    layer("sva-ir.bytecode_kb", "KiB", Lower, SETUP),
    layer("sva-vm.load_ms", "ms", Lower, SETUP),
    layer("sva-vm.fused_sites", "count", Higher, SETUP),
    // Interpreter dispatch, per rep of the sva-safe machine.
    layer("sva-vm.instructions", "count", Lower, DISPATCH),
    layer("sva-vm.vcycles", "count", Lower, DISPATCH),
    layer("sva-vm.fused_execs", "count", Higher, DISPATCH),
    layer("sva-vm.ns_per_inst.native", "ns", Lower, DISPATCH),
    layer("sva-vm.ns_per_inst.llvm", "ns", Lower, DISPATCH),
    layer("sva-vm.ns_per_inst.safe", "ns", Lower, DISPATCH),
    // SVA-OS: the llvm − native rung of the kernel-config ladder.
    layer("sva-vm.traps", "count", Lower, OS),
    layer("sva-vm.context_switches", "count", Lower, OS),
    layer("sva-vm.interrupts", "count", Lower, OS),
    layer("sva-vm.os_host_ms", "ms", Lower, OS),
    // Run-time checks, read side: the safe − llvm rung.
    layer("sva-rt.checks", "count", Lower, CHECK_READ),
    layer("sva-rt.range_checks", "count", Lower, CHECK_READ),
    layer("sva-rt.lookup.singleton", "count", Higher, CHECK_READ),
    layer("sva-rt.lookup.cache", "count", Higher, CHECK_READ),
    layer("sva-rt.lookup.page", "count", Lower, CHECK_READ),
    layer("sva-rt.lookup.tree", "count", Lower, CHECK_READ),
    layer("sva-rt.mru_hit_ratio", "ratio", Higher, CHECK_READ),
    layer("sva-rt.check_host_ms", "ms", Lower, CHECK_READ),
    layer("sva-rt.ns_per_check", "ns", Lower, CHECK_READ),
    // Run-time checks, write side.
    layer("sva-rt.registrations", "count", Lower, CHECK_WRITE),
    layer("sva-rt.drops", "count", Lower, CHECK_WRITE),
    // Shared metadata plane.
    layer("sva-rt.shared.publishes", "count", Lower, PLANE),
    layer("sva-rt.shared.publish_us", "us", Lower, PLANE),
    layer("sva-rt.shared.lookup_ns", "ns", Lower, PLANE),
    layer("sva-rt.shared.publish_share", "ratio", Lower, PLANE),
    // SMP scheduler.
    layer("sva-vm.smp.steals", "count", Lower, PLANE),
    layer("sva-vm.smp.parks", "count", Lower, PLANE),
    layer("sva-vm.smp.retired_snapshots", "count", Lower, PLANE),
    gated("sva-vm.smp.speedup", "ratio", Higher, 0.2, PLANE),
    // Snapshot, migrate and bundle codec.
    layer("sva-vm.snapshot.image_kb", "KiB", Lower, CODEC),
    gated("sva-vm.snapshot.snapshot_ms_p50", "ms", Lower, 0.25, CODEC),
    gated("sva-vm.snapshot.snapshot_ms_tail", "ms", Lower, 0.2, CODEC),
    gated("sva-vm.snapshot.restore_ms_p50", "ms", Lower, 0.25, CODEC),
    gated("sva-vm.snapshot.restore_ms_tail", "ms", Lower, 0.25, CODEC),
    layer("sva-vm.snapshot.samples", "count", Higher, CODEC),
    layer("sva-vm.migrate.reencode_ms", "ms", Lower, CODEC),
    layer("sva-vm.migrate.restore_ms", "ms", Lower, CODEC),
    layer("sva-vm.bundle.encode_ms", "ms", Lower, CODEC),
    layer("sva-vm.bundle.decode_ms", "ms", Lower, CODEC),
    layer("sva-vm.cell_run_ms_p50", "ms", Lower, CODEC),
    layer("sva-vm.cell_run_ms_tail", "ms", Lower, CODEC),
    gated("sva-inject.cells_per_s", "1/s", Higher, 0.25, CODEC),
    // Recovery domains, repair and fault injection.
    layer("sva-inject.faults_injected", "count", Higher, RECOVERY),
    layer("sva-vm.violations_recovered", "count", Higher, RECOVERY),
    layer("sva-vm.domains_pushed", "count", Lower, RECOVERY),
    layer("sva-vm.repairs", "count", Lower, RECOVERY),
    // Host-time spans from the traced rep.
    layer("sva-vm.trap_ns_p50", "ns", Lower, TRACED),
    layer("sva-vm.trap_ns_tail", "ns", Lower, TRACED),
    layer("sva-vm.trap_samples", "count", Higher, TRACED),
    layer("sva-vm.os_op_ns_mean", "ns", Lower, TRACED),
    layer("sva-vm.os_ops", "count", Lower, TRACED),
    layer("sva-vm.trap_self_share", "ratio", Lower, TRACED),
    layer("sva-trace.overhead_pct", "%", Lower, TRACED),
];

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(all[..i].iter().all(|o| o.name != m.name), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = setup.bound.unwrap();
        assert!(widest <= 0.25);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= widest)));
        assert!(PER_LAYER
            .iter()
            .all(|m| m.bound.is_none_or(|b| b > 0.0 && b <= widest)));
        assert!(EXACT
            .iter()
            .all(|e| END_TO_END.iter().any(|m| m.name == *e)));
    }

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// metrics declared here.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let check = |key: &str, table: &[Metric], end_to_end: bool| {
            let listed = doc.get(key).map(Json::arr).unwrap_or_default();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::str), Some(m.name));
                assert_eq!(
                    j.get("unit").and_then(Json::str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    j.get("better").and_then(Json::str),
                    Some(m.better.name()),
                    "{}",
                    m.name
                );
                // Per-layer bounds are `compare`'s own; `BENCHMARK.json`
                // lists bounds for end-to-end metrics only.
                let listed_bound = j.get("bound").and_then(Json::num);
                if end_to_end {
                    assert_eq!(listed_bound, m.bound, "{}", m.name);
                } else {
                    assert_eq!(listed_bound, None, "{}", m.name);
                }
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}

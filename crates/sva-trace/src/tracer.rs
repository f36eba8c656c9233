//! The [`Tracer`] trait and its two implementations.
//!
//! Instrumentation points in the VM are written as
//!
//! ```ignore
//! if T::ENABLED {
//!     self.tracer.record(ts, TraceEvent::...);
//! }
//! ```
//!
//! with `T: Tracer` a *type parameter* of the VM. For [`NullTracer`]
//! (`ENABLED = false`) the whole block is dead code after monomorphization
//! — no branch, no event construction, no timestamp read — which is the
//! "zero overhead when off" discipline: the traced and untraced VMs are
//! distinct compiled functions, and the untraced one is the pre-tracing
//! code, byte for byte in behaviour.

use std::collections::HashMap;

use crate::event::{EventClass, LookupLayer, TimedEvent, TraceEvent};
use crate::metrics::MetricsRegistry;
use crate::ring::{EventRing, RingConfig};

/// An instrumentation sink for VM and runtime events.
pub trait Tracer {
    /// Whether this tracer records anything. Instrumentation points guard
    /// on this associated constant so disabled tracing compiles away.
    const ENABLED: bool;

    /// Bitmask of [`EventClass`] bits this tracer consumes (build it from
    /// [`EventClass::bit`]). Instrumentation points for a class outside the
    /// mask guard with [`Tracer::wants`] and monomorphize away exactly like
    /// the `NullTracer` path — which is how the flight recorder stays off
    /// the per-instruction and per-check hot paths while still seeing
    /// every violation and unwind. Defaults to all classes.
    const WANTED: u16 = u16::MAX;

    /// Whether instrumentation for `class` should be compiled in. Both
    /// operands are associated constants, so each call site folds to
    /// `true` or `false` at monomorphization time.
    #[inline(always)]
    fn wants(class: EventClass) -> bool
    where
        Self: Sized,
    {
        Self::ENABLED && (Self::WANTED & class.bit()) != 0
    }

    /// Records one event at virtual-cycle timestamp `ts`.
    fn record(&mut self, ts: u64, event: TraceEvent);

    /// The most recent buffered events, oldest first — what a crash
    /// bundle embeds as the black-box timeline. Tracers without a buffer
    /// return nothing.
    fn recent_events(&self) -> Vec<TimedEvent> {
        Vec::new()
    }

    /// Supplies the guest function-name table (index = function id).
    fn note_function_names(&mut self, _names: &[String]) {}

    /// Supplies the metapool-name table (index = pool id).
    fn note_pool_names(&mut self, _names: &[String]) {}

    /// Notifies the tracer that the machine's state was replaced by a
    /// snapshot restore: `cycles` is the image's virtual-cycle counter, so
    /// every subsequent event timestamp continues on the *image's* clock,
    /// not the pre-restore one. The default does nothing.
    fn on_restore(&mut self, _cycles: u64) {}
}

/// The disabled tracer: every instrumentation point compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ts: u64, _event: TraceEvent) {}
}

/// Cycle/count accumulator for one profile key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleCount {
    /// Occurrences.
    pub count: u64,
    /// Virtual cycles attributed.
    pub cycles: u64,
}

impl CycleCount {
    fn add(&mut self, cycles: u64) {
        self.count += 1;
        self.cycles += cycles;
    }
}

/// Per-pool lookup-layer and registration traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Checks resolved by the singleton fast path (one live object).
    pub singleton_hits: u64,
    /// Checks resolved by the MRU cache.
    pub cache_hits: u64,
    /// Checks resolved by the range index.
    pub page_hits: u64,
    /// Checks that walked the splay tree.
    pub tree_walks: u64,
    /// Checks with no object lookup.
    pub no_lookup: u64,
    /// Check cycles attributed to this pool.
    pub check_cycles: u64,
    /// Object registrations.
    pub registrations: u64,
    /// Object drops.
    pub drops: u64,
}

impl PoolProfile {
    /// Total checks observed against this pool.
    pub fn checks(&self) -> u64 {
        self.singleton_hits + self.cache_hits + self.page_hits + self.tree_walks + self.no_lookup
    }
}

/// Per-check aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckProfile {
    /// Executions.
    pub count: u64,
    /// Executions that failed (at most one per run: a violation halts).
    pub failed: u64,
    /// Virtual cycles charged.
    pub cycles: u64,
}

/// Online flame-style aggregation. Fed every event as it is recorded, so
/// its totals survive ring-buffer wraparound: the ring holds the *recent*
/// event stream, the profile holds the *whole run's* attribution.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Cycles attributed per guest function (from `Inst` events).
    pub per_func: HashMap<u32, CycleCount>,
    /// Cycles attributed per opcode.
    pub per_opcode: HashMap<&'static str, CycleCount>,
    /// SVA-OS operation counts/cycles (from `OsExit`).
    pub per_os: HashMap<&'static str, CycleCount>,
    /// Syscall counts/latencies (from `SyscallExit`).
    pub per_syscall: HashMap<i64, CycleCount>,
    /// Run-time check aggregates.
    pub per_check: HashMap<&'static str, CheckProfile>,
    /// Per-pool lookup-layer breakdown.
    pub per_pool: HashMap<u32, PoolProfile>,
    /// Cycles attributed to instructions + interrupt delivery. Compared
    /// against the VM's final cycle counter this is the profile coverage;
    /// the instrumentation is built to keep it at ~100%.
    pub attributed_cycles: u64,
    /// Violations observed.
    pub violations: u64,
}

impl Profile {
    fn absorb(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Inst { func, opcode, cost } => {
                self.per_func.entry(*func).or_default().add(*cost);
                self.per_opcode.entry(opcode).or_default().add(*cost);
                self.attributed_cycles += cost;
            }
            TraceEvent::OsEnter { .. } => {}
            TraceEvent::OsExit { op, cost } => {
                self.per_os.entry(op).or_default().add(*cost);
            }
            TraceEvent::Check {
                check,
                pool,
                layer,
                passed,
                cost,
            } => {
                let c = self.per_check.entry(check).or_default();
                c.count += 1;
                c.cycles += cost;
                if !passed {
                    c.failed += 1;
                }
                let p = self.per_pool.entry(*pool).or_default();
                p.check_cycles += cost;
                match layer {
                    LookupLayer::Singleton => p.singleton_hits += 1,
                    LookupLayer::Cache => p.cache_hits += 1,
                    LookupLayer::Page => p.page_hits += 1,
                    LookupLayer::Tree => p.tree_walks += 1,
                    LookupLayer::None => p.no_lookup += 1,
                }
            }
            TraceEvent::PoolReg { pool, .. } => {
                self.per_pool.entry(*pool).or_default().registrations += 1;
            }
            TraceEvent::PoolDrop { pool, .. } => {
                self.per_pool.entry(*pool).or_default().drops += 1;
            }
            TraceEvent::SyscallEnter { .. } => {}
            TraceEvent::SyscallExit { num, cost } => {
                self.per_syscall.entry(*num).or_default().add(*cost);
            }
            TraceEvent::IrqDeliver { cost, .. } => {
                self.attributed_cycles += cost;
            }
            TraceEvent::Violation { .. } => {
                self.violations += 1;
            }
            TraceEvent::RecoverUnwind { .. }
            | TraceEvent::DomainPush { .. }
            | TraceEvent::DomainPop { .. }
            | TraceEvent::PoolQuarantine { .. }
            | TraceEvent::Repair { .. }
            | TraceEvent::Probation { .. } => {}
        }
    }

    /// Fraction of `total_cycles` the profile attributes (0..=1).
    pub fn coverage(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.attributed_cycles as f64 / total_cycles as f64
        }
    }
}

/// The live tracer: ring buffer + online profile + metrics registry.
#[derive(Clone, Debug)]
pub struct RingTracer {
    ring: EventRing,
    profile: Profile,
    metrics: MetricsRegistry,
    func_names: Vec<String>,
    pool_names: Vec<String>,
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::new(RingConfig::default())
    }
}

impl RingTracer {
    /// Creates a tracer with the given ring configuration.
    pub fn new(cfg: RingConfig) -> RingTracer {
        RingTracer {
            ring: EventRing::new(cfg),
            profile: Profile::default(),
            metrics: MetricsRegistry::new(),
            func_names: Vec::new(),
            pool_names: Vec::new(),
        }
    }

    /// The buffered event stream.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The whole-run profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access (for folding in external counters like
    /// `CheckStats` at the end of a run).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Name of guest function `id` (falls back to `fn#id`).
    pub fn func_name(&self, id: u32) -> String {
        self.func_names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("fn#{id}"))
    }

    /// Name of metapool `id` (`u32::MAX` means "no pool").
    pub fn pool_name(&self, id: u32) -> String {
        if id == u32::MAX {
            return "(static)".to_string();
        }
        self.pool_names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("pool#{id}"))
    }
}

impl Tracer for RingTracer {
    const ENABLED: bool = true;

    fn record(&mut self, ts: u64, event: TraceEvent) {
        self.profile.absorb(&event);
        match &event {
            TraceEvent::Check { cost, .. } => self.metrics.record("check_cycles", *cost),
            TraceEvent::SyscallExit { cost, .. } => self.metrics.record("syscall_cycles", *cost),
            TraceEvent::OsExit { cost, .. } => self.metrics.record("os_op_cycles", *cost),
            _ => {}
        }
        self.ring.push(ts, event);
    }

    fn recent_events(&self) -> Vec<TimedEvent> {
        self.ring.iter().cloned().collect()
    }

    fn note_function_names(&mut self, names: &[String]) {
        self.func_names = names.to_vec();
    }

    fn note_pool_names(&mut self, names: &[String]) {
        self.pool_names = names.to_vec();
    }

    fn on_restore(&mut self, cycles: u64) {
        // Counted rather than traced as an event: the event stream stays
        // byte-comparable with an uninterrupted run of the same machine,
        // while exporters can still surface that a restore happened.
        self.metrics.add_counter("snapshot_restores", 1);
        self.metrics.set_counter("snapshot_restore_cycles", cycles);
    }
}

/// Iterate the buffered events (exporters use this).
impl<'a> IntoIterator for &'a RingTracer {
    type Item = &'a TimedEvent;
    type IntoIter = Box<dyn Iterator<Item = &'a TimedEvent> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.ring.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_disabled() {
        const { assert!(!NullTracer::ENABLED) };
        // And recording is a no-op (compiles, does nothing).
        NullTracer.record(0, TraceEvent::SyscallEnter { num: 1 });
    }

    #[test]
    fn profile_attributes_inst_and_irq_cycles() {
        let mut t = RingTracer::default();
        t.record(
            1,
            TraceEvent::Inst {
                func: 0,
                opcode: "add",
                cost: 1,
            },
        );
        t.record(
            2,
            TraceEvent::Inst {
                func: 0,
                opcode: "call",
                cost: 41,
            },
        );
        t.record(
            50,
            TraceEvent::IrqDeliver {
                vector: 3,
                cost: 40,
            },
        );
        let p = t.profile();
        assert_eq!(p.attributed_cycles, 82);
        assert_eq!(p.per_func[&0].count, 2);
        assert_eq!(p.per_func[&0].cycles, 42);
        assert_eq!(p.per_opcode["call"].cycles, 41);
        assert!((p.coverage(82) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_layers_and_checks() {
        let mut t = RingTracer::default();
        for (layer, passed) in [
            (LookupLayer::Cache, true),
            (LookupLayer::Page, true),
            (LookupLayer::Tree, false),
        ] {
            t.record(
                0,
                TraceEvent::Check {
                    check: "pchk.bounds",
                    pool: 2,
                    layer,
                    passed,
                    cost: 16,
                },
            );
        }
        t.record(
            0,
            TraceEvent::PoolReg {
                pool: 2,
                addr: 0x100,
                len: 8,
            },
        );
        t.record(
            0,
            TraceEvent::PoolDrop {
                pool: 2,
                addr: 0x100,
            },
        );
        let p = &t.profile().per_pool[&2];
        assert_eq!((p.cache_hits, p.page_hits, p.tree_walks), (1, 1, 1));
        assert_eq!(p.checks(), 3);
        assert_eq!((p.registrations, p.drops), (1, 1));
        let c = &t.profile().per_check["pchk.bounds"];
        assert_eq!((c.count, c.failed, c.cycles), (3, 1, 48));
        assert_eq!(t.metrics().histogram("check_cycles").unwrap().count(), 3);
    }

    #[test]
    fn name_tables_resolve_with_fallback() {
        let mut t = RingTracer::default();
        t.note_function_names(&["boot".to_string(), "main".to_string()]);
        t.note_pool_names(&["MP0".to_string()]);
        assert_eq!(t.func_name(1), "main");
        assert_eq!(t.func_name(9), "fn#9");
        assert_eq!(t.pool_name(0), "MP0");
        assert_eq!(t.pool_name(u32::MAX), "(static)");
        assert_eq!(t.pool_name(5), "pool#5");
    }

    #[test]
    fn syscall_latencies_hit_the_histogram() {
        let mut t = RingTracer::default();
        t.record(0, TraceEvent::SyscallEnter { num: 7 });
        t.record(120, TraceEvent::SyscallExit { num: 7, cost: 120 });
        assert_eq!(t.profile().per_syscall[&7].cycles, 120);
        let h = t.metrics().histogram("syscall_cycles").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(120));
    }
}

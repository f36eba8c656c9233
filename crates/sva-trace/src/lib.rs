//! # `sva-trace`: tracing, metrics and profiling for the SVM
//!
//! The paper's evaluation (Tables 5–9) attributes overhead to individual
//! run-time checks and SVA-OS operations. This crate is the observability
//! substrate that makes such attribution possible *per event* instead of
//! only via after-the-fact aggregate counters:
//!
//! * [`TraceEvent`] — structured events: instruction retired, run-time
//!   check executed (with the lookup layer that resolved it), metapool
//!   registration/release, SVA-OS call enter/exit, syscall enter/exit,
//!   interrupt delivery, and safety violations with object + access
//!   provenance. Every event carries a virtual-cycle timestamp.
//! * [`EventRing`] — a lock-free (no locks, single writer) fixed-capacity
//!   ring buffer. Event classes can be *pinned*: wraparound moves pinned
//!   records to a side buffer instead of dropping them, so a violation
//!   observed once is never lost to later traffic.
//! * [`Tracer`] — the instrumentation-point trait. [`NullTracer`] sets
//!   [`Tracer::ENABLED`]` = false`; call sites guard with
//!   `if T::ENABLED { ... }` so the disabled path monomorphizes to
//!   nothing: no branch, no event construction, no timestamp read. The
//!   calibrated virtual-cycle tables are byte-identical with tracing on or
//!   off by construction — the tracer only *reads* the cycle counter.
//! * [`RingTracer`] — the live tracer: ring + online [`Profile`]
//!   aggregation (per-function / per-opcode / per-check / per-pool cycle
//!   attribution that survives ring wraparound) + a [`MetricsRegistry`] of
//!   counters and log2-bucketed latency [`Histogram`]s.
//! * Exporters — Chrome `trace_event` JSON (load in `about://tracing` or
//!   [ui.perfetto.dev](https://ui.perfetto.dev)), a JSONL event log, and a
//!   flame-style "top functions / top checks / top pools / top opcodes"
//!   text report.

//! * [`FlightRecorder`] — the third mode: an always-on black box. Only
//!   the high-signal classes ([`Tracer::WANTED`]) are compiled in, so the
//!   hot check path matches `NullTracer` byte for byte while syscall
//!   spans, IRQ deliveries, violations and recovery traffic land in a
//!   small pinned tail buffer that crash bundles embed.

pub mod event;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod ring;
pub mod tracer;

pub use event::{intern, EventClass, LookupLayer, TimedEvent, TraceEvent};
pub use export::{metrics_to_prometheus, to_chrome_trace, to_jsonl, to_prometheus, top_report};
pub use flight::{FlightConfig, FlightRecorder};
pub use metrics::{Histogram, MetricsRegistry};
pub use ring::{EventRing, RingConfig};
pub use tracer::{CycleCount, NullTracer, Profile, RingTracer, Tracer};

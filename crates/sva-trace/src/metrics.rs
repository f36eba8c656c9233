//! Counters and log2-bucketed histograms.
//!
//! The registry is the "metrics" face of the tracing layer: cheap scalar
//! counters (folded in from the [`counter_table!`](crate::counter_table)
//! blocks, `CheckStats` and `VmStats`, at the end of a run)
//! plus latency histograms with power-of-two buckets, the standard shape
//! for virtual-cycle latencies that span several orders of magnitude
//! (a cache-served check vs a fork syscall).

use std::collections::BTreeMap;
use std::fmt;

/// A histogram with 65 log2 buckets: bucket `i` counts values `v` with
/// `floor(log2(v)) == i - 1` (bucket 0 counts zeros), i.e. bucket
/// boundaries at 1, 2, 4, 8, ...
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the floor of the bucket containing the
    /// `q`-quantile observation (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(i));
            }
        }
        Some(Self::bucket_floor(64))
    }

    /// Occupied `(bucket_floor, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    /// A compact one-line rendering: `count` / `mean` / `p50` / `p99` /
    /// `max` — what the top-N report prints per histogram.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50≥{} p99≥{} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
            self.max().unwrap_or(0)
        )
    }
}

/// Named counters and histograms. `BTreeMap` keeps report output sorted
/// and deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `v` to counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets counter `name` to `v` (for fold-in of externally maintained
    /// totals like `CheckStats`, where adding would double-count).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Current value of a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a value into histogram `name` (creating it).
    pub fn record(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-sorted.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sums every counter and merges every histogram of `other` into
    /// this registry.
    pub fn fold(&mut self, other: &MetricsRegistry) {
        for (k, v) in other.counters() {
            self.add_counter(k, v);
        }
        for (k, h) in other.histograms() {
            self.histograms.entry(k.to_string()).or_default().merge(h);
        }
    }

    /// Per-CPU fold (DESIGN.md §4.9): every series of `other` lands
    /// twice — under `cpu<id>.<name>` for the per-vCPU view the nightly
    /// `--prom-diff` tracks, and summed into the unprefixed machine
    /// total. Fold each vCPU's registry exactly once, in cpu-id order,
    /// into a fresh registry; the result is deterministic because both
    /// maps iterate name-sorted.
    pub fn fold_cpu(&mut self, cpu: u32, other: &MetricsRegistry) {
        for (k, v) in other.counters() {
            self.add_counter(&format!("cpu{cpu}.{k}"), v);
            self.add_counter(k, v);
        }
        for (k, h) in other.histograms() {
            self.histograms
                .entry(format!("cpu{cpu}.{k}"))
                .or_default()
                .merge(h);
            self.histograms.entry(k.to_string()).or_default().merge(h);
        }
    }
}

/// Declares a block of `u64` counters once (DESIGN.md §4.13). From the
/// list it generates the struct, one plain `pub u64` field per entry
/// with `Clone, Copy, Default, Debug, PartialEq, Eq`, and:
///
/// * `NAMES`, each counter's registry name, and `WORDS`, their number;
/// * `to_words` / `from_words`, the positional array snapshots and
///   bundles carry — declaration order is wire order;
/// * the field-wise sum, under the name given after `fn`;
/// * `fold_into`, which sets every counter in a [`MetricsRegistry`]
///   under its registry name.
///
/// The caller writes the struct's doc comment, its name, the summing
/// method's doc comment and name, and one `field => "registry.name"`
/// entry per counter with its doc comment.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(#[$sum_meta:meta])*
            fn $sum:ident;
            $( $(#[$field_meta:meta])* $field:ident => $reg:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $name {
            /// Number of counters: the width of `to_words`.
            pub const WORDS: usize = [$(stringify!($field)),+].len();

            /// Each counter's registry name, in declaration (wire) order.
            pub const NAMES: [&'static str; Self::WORDS] = [$($reg),+];

            /// The counters as a word array in declaration order, the
            /// form snapshots and bundles carry.
            pub fn to_words(&self) -> [u64; Self::WORDS] {
                [$(self.$field),+]
            }

            /// Rebuilds a block from `to_words` output.
            pub fn from_words(words: [u64; Self::WORDS]) -> Self {
                let [$($field),+] = words;
                $name { $($field),+ }
            }

            $(#[$sum_meta])*
            pub fn $sum(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }

            /// Sets every counter in `metrics` under its registry name.
            /// Set, not add: the block is already a running total, and
            /// adding would double-count across exports.
            pub fn fold_into(&self, metrics: &mut $crate::MetricsRegistry) {
                $(metrics.set_counter($reg, self.$field);)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_cpu_builds_prefixed_and_total_series() {
        let mut cpu0 = MetricsRegistry::new();
        cpu0.add_counter("recovery.repairs", 2);
        cpu0.record("check.cost", 16);
        let mut cpu1 = MetricsRegistry::new();
        cpu1.add_counter("recovery.repairs", 3);
        cpu1.add_counter("check.ls_checks", 7);
        cpu1.record("check.cost", 32);

        let mut m = MetricsRegistry::new();
        m.fold_cpu(0, &cpu0);
        m.fold_cpu(1, &cpu1);
        assert_eq!(m.counter("cpu0.recovery.repairs"), 2);
        assert_eq!(m.counter("cpu1.recovery.repairs"), 3);
        assert_eq!(m.counter("recovery.repairs"), 5);
        assert_eq!(m.counter("cpu1.check.ls_checks"), 7);
        assert_eq!(m.counter("cpu0.check.ls_checks"), 0);
        assert_eq!(m.histogram("check.cost").unwrap().count(), 2);
        assert_eq!(m.histogram("cpu0.check.cost").unwrap().count(), 1);

        // Plain fold: unprefixed sum only.
        let mut flat = MetricsRegistry::new();
        flat.fold(&cpu0);
        flat.fold(&cpu1);
        assert_eq!(flat.counter("recovery.repairs"), 5);
        assert_eq!(flat.histogram("check.cost").unwrap().count(), 2);
    }

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        let got = h.nonzero_buckets();
        // 0→bucket0; 1→[1,2); 2,3→[2,4); 4,7→[4,8); 8→[8,16); 1024; MAX.
        assert_eq!(
            got,
            vec![
                (0, 1),
                (1, 1),
                (2, 2),
                (4, 2),
                (8, 1),
                (1024, 1),
                (1 << 63, 1)
            ]
        );
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(16);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), Some(16));
        assert_eq!(h.quantile(0.99), Some(16));
        assert_eq!(h.quantile(1.0), Some(1 << 20));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        a.record(4);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(100));
        assert_eq!(a.min(), Some(4));
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.add_counter("checks", 3);
        m.add_counter("checks", 2);
        m.set_counter("pools", 7);
        m.record("lat", 8);
        m.record("lat", 9);
        assert_eq!(m.counter("checks"), 5);
        assert_eq!(m.counter("pools"), 7);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["checks", "pools"]);
    }
}

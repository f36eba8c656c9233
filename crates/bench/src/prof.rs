//! Offline `svaprof` machinery: Prometheus text parsing and diffing.
//!
//! `svaprof --prom-diff OLD NEW` compares two exports of the same
//! workload: counter deltas and de-accumulated per-bucket histogram
//! shifts, which catch a latency shift that leaves the medians
//! untouched.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed histogram: cumulative buckets in file order (`le` label,
/// cumulative count), plus `_sum` and `_count`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromHistogram {
    /// `(le, cumulative count)` in exposition order, `+Inf` last.
    pub buckets: Vec<(String, f64)>,
    /// The `_sum` series.
    pub sum: f64,
    /// The `_count` series.
    pub count: f64,
}

/// A parsed Prometheus text exposition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, f64>,
    /// Histogram name → buckets/sum/count.
    pub histograms: BTreeMap<String, PromHistogram>,
}

/// Parses the subset of the Prometheus text exposition format that
/// `sva_trace::to_prometheus` emits: `# TYPE` comments, bare counter
/// samples, and histogram `_bucket{le="..."}`/`_sum`/`_count` series.
pub fn parse_prom(text: &str) -> Result<PromSnapshot, String> {
    let mut snap = PromSnapshot::default();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |msg: &str| format!("prom line {}: {msg}: {raw}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("TYPE") {
                let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
                match kind {
                    "counter" => {
                        snap.counters.insert(name.to_string(), 0.0);
                    }
                    "histogram" => {
                        snap.histograms
                            .insert(name.to_string(), PromHistogram::default());
                    }
                    _ => return Err(err("unsupported metric type")),
                }
            }
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(char::is_whitespace)
            .ok_or_else(|| err("no value"))?;
        let value: f64 = value_part
            .parse()
            .map_err(|_| err("value is not a number"))?;
        if let Some((base, labels)) = name_part.split_once('{') {
            let base = base
                .strip_suffix("_bucket")
                .ok_or_else(|| err("labeled series is not a _bucket"))?;
            let h = snap
                .histograms
                .get_mut(base)
                .ok_or_else(|| err("bucket without a histogram TYPE"))?;
            let le = labels
                .trim_end_matches('}')
                .strip_prefix("le=\"")
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| err("bucket without an le label"))?;
            h.buckets.push((le.to_string(), value));
        } else if let Some(base) = name_part.strip_suffix("_sum") {
            snap.histograms
                .get_mut(base)
                .ok_or_else(|| err("_sum without a histogram TYPE"))?
                .sum = value;
        } else if let Some(base) = name_part
            .strip_suffix("_count")
            .filter(|b| snap.histograms.contains_key(*b))
        {
            snap.histograms.get_mut(base).unwrap().count = value;
        } else if let Some(v) = snap.counters.get_mut(name_part) {
            *v = value;
        } else {
            return Err(err("sample without a TYPE comment"));
        }
    }
    Ok(snap)
}

/// The rendered diff between two snapshots plus a change tally, so
/// callers can distinguish "ran, nothing moved" from "ran, N shifts".
pub struct PromDiff {
    /// Human-readable report, one line per changed series.
    pub report: String,
    /// Changed counters + changed histograms + added/removed metrics.
    pub changes: usize,
}

fn fmt_delta(d: f64) -> String {
    if d >= 0.0 {
        format!("+{d}")
    } else {
        format!("{d}")
    }
}

/// Per-bucket (non-cumulative) increments of a histogram, keyed by `le`.
fn increments(h: &PromHistogram) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut prev = 0.0;
    for (le, cum) in &h.buckets {
        out.insert(le.clone(), cum - prev);
        prev = *cum;
    }
    out
}

/// Diffs two parsed expositions: counter deltas, histogram-bucket shifts
/// (per-bucket increments, not the cumulative series, so a latency shift
/// shows up in exactly the buckets it moved between), and added/removed
/// metrics. Unchanged series are omitted from the report.
pub fn diff_prom(old: &PromSnapshot, new: &PromSnapshot) -> PromDiff {
    let mut report = String::new();
    let mut changes = 0usize;

    let counter_names: std::collections::BTreeSet<&String> =
        old.counters.keys().chain(new.counters.keys()).collect();
    for name in counter_names {
        match (old.counters.get(name), new.counters.get(name)) {
            (Some(a), Some(b)) if a != b => {
                changes += 1;
                let _ = writeln!(report, "counter {name}: {a} -> {b} ({})", fmt_delta(b - a));
            }
            (Some(a), None) => {
                changes += 1;
                let _ = writeln!(report, "counter {name}: removed (was {a})");
            }
            (None, Some(b)) => {
                changes += 1;
                let _ = writeln!(report, "counter {name}: added ({b})");
            }
            _ => {}
        }
    }

    let histo_names: std::collections::BTreeSet<&String> =
        old.histograms.keys().chain(new.histograms.keys()).collect();
    for name in histo_names {
        match (old.histograms.get(name), new.histograms.get(name)) {
            (Some(a), Some(b)) => {
                if a == b {
                    continue;
                }
                changes += 1;
                let _ = writeln!(
                    report,
                    "histogram {name}: count {} -> {} ({}), sum {} -> {} ({})",
                    a.count,
                    b.count,
                    fmt_delta(b.count - a.count),
                    a.sum,
                    b.sum,
                    fmt_delta(b.sum - a.sum),
                );
                let (ia, ib) = (increments(a), increments(b));
                let les: std::collections::BTreeSet<&String> = ia.keys().chain(ib.keys()).collect();
                let mut rows: Vec<(&String, f64, f64)> = les
                    .into_iter()
                    .map(|le| {
                        (
                            le,
                            ia.get(le).copied().unwrap_or(0.0),
                            ib.get(le).copied().unwrap_or(0.0),
                        )
                    })
                    .filter(|(_, a, b)| a != b)
                    .collect();
                // Numeric le order where possible (+Inf sorts last).
                rows.sort_by(|x, y| {
                    let key = |le: &str| le.parse::<f64>().unwrap_or(f64::INFINITY);
                    key(x.0)
                        .partial_cmp(&key(y.0))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for (le, a, b) in rows {
                    let _ = writeln!(
                        report,
                        "  bucket le={le}: {a} -> {b} ({})",
                        fmt_delta(b - a)
                    );
                }
            }
            (Some(_), None) => {
                changes += 1;
                let _ = writeln!(report, "histogram {name}: removed");
            }
            (None, Some(_)) => {
                changes += 1;
                let _ = writeln!(report, "histogram {name}: added");
            }
            (None, None) => unreachable!(),
        }
    }

    PromDiff { report, changes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_trace::{to_prometheus, RingTracer, TraceEvent, Tracer};

    #[test]
    fn prom_round_trip_and_diff_reports_shifts() {
        let old = "\
# TYPE sva_traps counter
sva_traps 10
# TYPE sva_lat histogram
sva_lat_bucket{le=\"8\"} 3
sva_lat_bucket{le=\"16\"} 5
sva_lat_bucket{le=\"+Inf\"} 6
sva_lat_sum 70
sva_lat_count 6
";
        let new = "\
# TYPE sva_traps counter
sva_traps 14
# TYPE sva_fresh counter
sva_fresh 1
# TYPE sva_lat histogram
sva_lat_bucket{le=\"8\"} 3
sva_lat_bucket{le=\"16\"} 7
sva_lat_bucket{le=\"+Inf\"} 8
sva_lat_sum 100
sva_lat_count 8
";
        let a = parse_prom(old).unwrap();
        let b = parse_prom(new).unwrap();
        assert_eq!(a.counters["sva_traps"], 10.0);
        assert_eq!(a.histograms["sva_lat"].buckets.len(), 3);
        let d = diff_prom(&a, &b);
        assert_eq!(d.changes, 3, "{}", d.report);
        assert!(d.report.contains("counter sva_traps: 10 -> 14 (+4)"));
        assert!(d.report.contains("counter sva_fresh: added (1)"));
        assert!(d.report.contains("histogram sva_lat: count 6 -> 8 (+2)"));
        // The shift lands in the le=16 increment, not le=8.
        assert!(
            d.report.contains("bucket le=16: 2 -> 4 (+2)"),
            "{}",
            d.report
        );
        assert!(!d.report.contains("le=8:"), "{}", d.report);
        // Identical snapshots: no changes.
        assert_eq!(diff_prom(&a, &a).changes, 0);
    }

    #[test]
    fn parse_prom_rejects_untyped_samples() {
        assert!(parse_prom("sva_orphan 3\n").is_err());
        assert!(parse_prom("# TYPE sva_x gauge\nsva_x 1\n").is_err());
    }

    #[test]
    fn real_exporter_output_parses_back() {
        let mut t = RingTracer::default();
        t.record(5, TraceEvent::SyscallEnter { num: 4 });
        t.record(40, TraceEvent::SyscallExit { num: 4, cost: 35 });
        let snap = parse_prom(&to_prometheus(&t)).unwrap();
        assert!(
            !snap.counters.is_empty() || !snap.histograms.is_empty(),
            "exporter emitted nothing"
        );
    }
}

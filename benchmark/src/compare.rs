//! `compare` judges a change against its parent from repeated runs, and
//! `ledger` records the benchmark's trajectory point for a commit.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, EXACT, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::{DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

/// The result lines (`{"correct":..,"metrics":{..}}`) in a file, in order.
fn results(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| l.starts_with('{'))
        .filter_map(|l| json::parse(l).ok())
        .filter(|j| j.get("metrics").is_some())
        .collect())
}

fn values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.num())
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    TooFewPairs,
    Gain,
    Regressed,
    /// A deterministic metric ([`EXACT`]) took another value.
    Changed,
    Unresolved,
    NoRegression,
}

/// The rule for a deterministic metric: every run, parent or change,
/// must give the same value.
pub fn judge_exact(parent: &[f64], change: &[f64]) -> Verdict {
    match parent.first() {
        Some(first) if parent.iter().chain(change).any(|x| x != first) => Verdict::Changed,
        _ => Verdict::NoRegression,
    }
}

/// The rule for one metric: at least ten pairs of parent and change runs
/// (alternated by whoever ran them); a gain needs nine tenths of the pairs
/// won and medians further apart than the parent's interquartile range; a
/// regression is a median worse by more than the metric's bound, reported
/// as unresolved when the parent's own spread exceeds the bound, unless
/// every change run beats every parent run.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return Verdict::TooFewPairs;
    }
    let gain = |p: f64, c: f64| match better {
        Better::Higher => c - p,
        Better::Lower => p - c,
    };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(**p, **c) > 0.0)
        .count();
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    if wins * 10 >= pairs * 9 && gain(mp, mc) > q3 - q1 {
        return Verdict::Gain;
    }
    let Some(bound) = bound else {
        return Verdict::NoRegression;
    };
    let all_better = parent
        .iter()
        .all(|p| change.iter().all(|c| gain(*p, *c) > 0.0));
    let spread = (q3 - q1) / mp.abs().max(f64::MIN_POSITIVE);
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else if -gain(mp, mc) > bound * mp.abs() {
        Verdict::Regressed
    } else {
        Verdict::NoRegression
    }
}

pub fn compare(parent_path: &str, change_path: &str) -> ExitCode {
    let (parent, change) = match (results(parent_path), results(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("svabench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<36} {:>34} {:>34} {:>8} {:>6}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    let mut regressed = false;
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let (p, c) = (values(&parent, m.name), values(&change, m.name));
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let verdict = if EXACT.contains(&m.name) {
            judge_exact(&p, &c)
        } else {
            judge(&p, &c, m.better, m.bound)
        };
        regressed |= matches!(verdict, Verdict::Regressed | Verdict::Changed);
        let show = |v: &[f64]| {
            let [q1, q2, q3] = quartiles(v);
            format!("{q2:.6} [{q1:.6}, {q3:.6}]")
        };
        let wins = p
            .iter()
            .zip(&c)
            .filter(|(p, c)| match m.better {
                Better::Higher => c > p,
                Better::Lower => c < p,
            })
            .count();
        let (mp, mc) = (median(&p), median(&c));
        println!(
            "{:<36} {:>34} {:>34} {:>7.2}% {:>3}/{:<2}  {verdict:?}",
            m.name,
            show(&p),
            show(&c),
            100.0 * (mc - mp) / mp.abs().max(f64::MIN_POSITIVE),
            wins,
            p.len().min(c.len()),
        );
    }
    let failed =
        |runs: &[Json]| -> f64 { runs.iter().filter_map(|r| r.get("failed")?.num()).sum() };
    if failed(&change) > failed(&parent) {
        println!("the change failed more operations than the parent: no gain counts");
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    json::write(
        &Json::Obj(vec![
            ("cpu".into(), Json::Str(cpu)),
            ("available_parallelism".into(), Json::Num(threads as f64)),
        ]),
        &mut out,
    );
    out
}

/// Runs every workload, untraced and traced, twice at the default seed
/// and once at a held-out seed, each in a process of its own, and writes
/// the results as one ledger file.
pub fn ledger(args: &[String]) -> ExitCode {
    let (out, heldout) = match args {
        [o, out, h, heldout] if o == "--out" && h == "--heldout" => (out.clone(), heldout),
        _ => {
            eprintln!("svabench ledger: expected --out <file> --heldout <seed>");
            return ExitCode::from(2);
        }
    };
    let heldout: u64 = match heldout.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("svabench ledger: --heldout {heldout}: {e}");
            return ExitCode::from(2);
        }
    };
    let (seconds, seed) = (DEFAULT_SECONDS, DEFAULT_SEED);
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("svabench ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs = Vec::new();
    let mut e2e: Vec<(String, String, Json)> = Vec::new();
    for (set, s) in [
        ("default-a", seed),
        ("default-b", seed),
        ("heldout", heldout),
    ] {
        for w in WORKLOADS {
            for trace in ["0", "1"] {
                let o = Command::new(&exe)
                    .args(["run", "--workload", w, "--seed", &s.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", trace])
                    .output();
                let stdout = match o {
                    Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                    Ok(o) => {
                        eprintln!("svabench ledger: {w} seed {s} exited {}", o.status);
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("svabench ledger: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let digest = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("sim_digest"))
                    .map(|d| d.trim().to_string())
                    .unwrap_or_default();
                let Some(result) = stdout.lines().last().and_then(|l| json::parse(l).ok()) else {
                    eprintln!("svabench ledger: {w} seed {s} printed no result");
                    return ExitCode::FAILURE;
                };
                eprintln!("{set} {w} trace {trace}: done");
                if trace == "0" {
                    e2e.push((set.to_string(), w.to_string(), result.clone()));
                }
                runs.push(Json::Obj(vec![
                    ("set".into(), Json::Str(set.into())),
                    ("workload".into(), Json::Str(w.into())),
                    ("seed".into(), Json::Num(s as f64)),
                    (
                        "trace".into(),
                        Json::Num(trace.parse::<f64>().unwrap_or(0.0)),
                    ),
                    ("sim_digest".into(), Json::Str(digest)),
                    ("result".into(), result),
                ]));
            }
        }
    }
    let mut text = String::from("{\n");
    let _ = writeln!(text, "  \"host\": {},", host());
    let _ = writeln!(text, "  \"run_seconds\": {seconds},");
    let _ = writeln!(text, "  \"default_seed\": {seed},");
    let _ = writeln!(text, "  \"heldout_seed\": {heldout},");
    text.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(text, "    {}{sep}", json::to_string(r));
    }
    text.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("svabench ledger: {out}: {e}");
        return ExitCode::FAILURE;
    }
    // The two default-seed sets must agree within every bound.
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "default-a", "default-b", "heldout", "a/b"
    );
    for w in WORKLOADS {
        let get = |set: &str, name: &str| {
            e2e.iter()
                .find(|(s, wl, _)| s == set && wl == w)
                .and_then(|(_, _, r)| r.get("metrics")?.get(name)?.get("value")?.num())
                .unwrap_or(f64::NAN)
        };
        for m in END_TO_END {
            let (a, b, h) = (
                get("default-a", m.name),
                get("default-b", m.name),
                get("heldout", m.name),
            );
            let within = if EXACT.contains(&m.name) {
                a == b
            } else {
                m.bound
                    .is_some_and(|bound| (b - a).abs() <= bound * a.abs())
            };
            println!(
                "{w:<18} {:<22} {a:>14.4} {b:>14.4} {h:>14.4} {}",
                m.name,
                if within { "within" } else { "OUTSIDE" }
            );
        }
    }
    println!("ledger written to {out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        let parent = series(100.0, 0.1);
        let change = series(110.0, 0.1);
        assert_eq!(
            judge(&parent, &change, Better::Higher, Some(0.1)),
            Verdict::Gain
        );
        assert_eq!(
            judge(&change, &parent, Better::Lower, Some(0.1)),
            Verdict::Gain
        );
    }

    #[test]
    fn a_worse_median_beyond_the_bound_regresses() {
        let parent = series(100.0, 0.1);
        let change = series(80.0, 0.1);
        assert_eq!(
            judge(&parent, &change, Better::Higher, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &change, Better::Higher, Some(0.25)),
            Verdict::NoRegression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = series(50.0, 10.0);
        let change = series(45.0, 10.0);
        assert_eq!(
            judge(&parent, &change, Better::Higher, Some(0.1)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn fewer_than_ten_pairs_decide_nothing() {
        let parent = vec![1.0; 9];
        assert_eq!(
            judge(&parent, &parent, Better::Higher, Some(0.1)),
            Verdict::TooFewPairs
        );
    }

    #[test]
    fn any_change_in_a_deterministic_metric_counts() {
        let parent = vec![133.25; 10];
        assert_eq!(judge_exact(&parent, &parent), Verdict::NoRegression);
        let mut change = parent.clone();
        change[3] = 133.0;
        assert_eq!(judge_exact(&parent, &change), Verdict::Changed);
    }

    #[test]
    fn eight_wins_in_ten_are_not_a_gain() {
        let parent = series(100.0, 0.1);
        let mut change = series(120.0, 0.1);
        change[0] = 90.0;
        change[1] = 90.0;
        assert_ne!(
            judge(&parent, &change, Better::Higher, Some(0.1)),
            Verdict::Gain
        );
    }
}

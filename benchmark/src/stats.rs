//! Order statistics used by `run` and `compare`.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads reported here match the ones an outside
/// checker computes from the same values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The smallest sample; 0 for none. Every guest run repeats exactly, so
/// host interference can only add to its wall: the fastest of a
/// program's runs is the one least disturbed.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// A latency tail: the highest standard percentile that still has at
/// least ten samples beyond it, with the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Candidate percentiles in tenths of a percent (integer arithmetic keeps
/// the rank exact).
const PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Picks the tail percentile for `v` (nearest-rank). With fewer than 20
/// samples no percentile has ten beyond it and the median is reported.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: 0.0,
            samples: 0,
        };
    }
    let pm = PERMILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .unwrap_or(500);
    let rank = (pm * n).div_ceil(1000);
    Tail {
        percentile: pm as f64 / 10.0,
        value: s[rank.clamp(1, n) - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 99.0,
                value: 990.0,
                samples: 1000
            }
        );
        // 999 samples leave only 9.99 beyond p99: fall back to p95.
        let t = tail(&v[..999]);
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 950.0, 999));
        // 10 000 samples reach p99.9.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big).percentile, 99.9);
        assert_eq!(tail(&big).value, 9990.0);
        // Too few samples for any tail: the median rank.
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 2.0, 3));
    }
}

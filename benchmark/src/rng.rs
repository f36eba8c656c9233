//! Seeded input generation. Every input the guest receives is derived
//! from `--seed` through this generator, so a seed always reproduces the
//! same inputs.

/// splitmix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5bd1_e995_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// An antithetic pair of iteration counts around `nominal`: the first
    /// is uniform within ±20%, the second mirrors it, so the pair always
    /// sums to `2 * nominal`. Each work item runs once with each count:
    /// the seed changes what the guest executes while every item keeps its
    /// nominal share of the workload, which is what keeps the end-to-end
    /// metrics comparable across seeds. A nominal count under 5 has no
    /// room to vary and comes back alone.
    pub fn iteration_counts(&mut self, nominal: u64) -> Vec<u64> {
        let span = nominal / 5;
        if span == 0 {
            return vec![nominal];
        }
        let a = nominal - span + self.below(2 * span + 1);
        vec![a, 2 * nominal - a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut order: Vec<u32> = (0..16).collect();
            r.shuffle(&mut order);
            (r.iteration_counts(2000), r.next_u64(), order)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn iteration_pairs_stay_within_twenty_percent_and_sum_to_nominal() {
        let mut r = Rng::new(3);
        for nominal in [5, 38, 60, 200, 2000] {
            for _ in 0..1000 {
                let counts = r.iteration_counts(nominal);
                assert_eq!(counts.len(), 2);
                assert_eq!(counts.iter().sum::<u64>(), 2 * nominal);
                for x in counts {
                    assert!(
                        x * 5 >= nominal * 4 && x * 5 <= nominal * 6,
                        "{x} vs {nominal}"
                    );
                }
            }
        }
        assert_eq!(r.iteration_counts(1), vec![1]);
        assert_eq!(r.iteration_counts(4), vec![4]);
    }
}

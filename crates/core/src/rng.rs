//! Deterministic random-number streams for simulation.
//!
//! Every simulation run is a pure function of `(net, config, seed)`. The
//! engine owns one [`SimRng`]; replication harnesses derive independent
//! child seeds with [`SimRng::child_seed`] (a SplitMix64 jump, so replication
//! `i` gets a stream decorrelated from replication `j`).
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! seeded through SplitMix64 — the same construction the `rand` crate's
//! `SmallRng` uses — so the build has no external dependency while keeping
//! the statistical quality the engine's weighted choices and exponential
//! streams rely on. It is the workspace's one generator: the fleet's
//! backoff jitter and chaos schedules draw from it too (as `FleetRng`).
//! Only the `des` crate keeps its own, on purpose: it is the independent
//! oracle the engine is checked against.

/// Simulation RNG: a seeded, reproducible generator plus distribution
/// helpers used by the timing module.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// One SplitMix64 step: the seed expander behind [`SimRng::seed_from_u64`],
/// also used to mix span IDs and chaos-fault salts.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed through SplitMix64 (never yields the all-zero
        // state xoshiro must avoid).
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high bits -> the standard [0, 1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[low, high]`.
    #[inline]
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        if high <= low {
            return low;
        }
        low + (high - low) * self.unit()
    }

    /// Exponential with rate `rate` (mean `1/rate`), via inverse transform.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        // 1 - unit() is in (0, 1], so ln() is finite and <= 0.
        -(1.0 - self.unit()).ln() / rate
    }

    /// Standard normal (Box–Muller, one value per call; simple and fine for
    /// measurement-noise emulation).
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Widening-multiply range reduction (Lemire); bias is < 2^-64 per
        // draw, far below anything a simulation estimate can resolve.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Draw in `[0, n)` by plain modulo (`0` when `n == 0`). The bias is
    /// irrelevant at backoff-jitter and chaos-fault granularity, and those
    /// schedules are pinned to this exact reduction.
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli draw with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u32) -> bool {
        per_mille > 0 && self.next_below(1000) < per_mille as u64
    }

    /// Pick an index in `[0, weights.len())` with probability proportional to
    /// `weights[i]`. Weights must be non-negative with a positive sum;
    /// falls back to index 0 if the sum degenerates.
    // `!(total > 0.0)` deliberately catches NaN too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        debug_assert!(!weights.is_empty());
        let total: f64 = weights.iter().sum();
        if !(total > 0.0) {
            return 0;
        }
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Derive a decorrelated child seed for replication `index` from a base
    /// seed (SplitMix64 finalizer over `base + golden-ratio * (index+1)`).
    pub fn child_seed(base: u64, index: u64) -> u64 {
        let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_in_range() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let i = rng.below(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exp_positive_and_mean() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.exp(2.0);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = rng.gaussian(10.0, 2.0);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::seed_from_u64(21);
        let w = [1.0, 3.0];
        let n = 40_000;
        let ones = (0..n).filter(|_| rng.weighted_choice(&w) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn weighted_choice_degenerate_sum() {
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(rng.weighted_choice(&[0.0, 0.0]), 0);
    }

    #[test]
    fn child_seeds_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(SimRng::child_seed(42, i)));
        }
        // Different bases give different streams too.
        assert_ne!(SimRng::child_seed(1, 0), SimRng::child_seed(2, 0));
    }

    #[test]
    fn uniform_degenerate_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.uniform(2.0, 2.0), 2.0);
    }
}

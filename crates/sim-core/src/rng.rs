//! Deterministic random number generation and workload distributions.
//!
//! All stochastic behaviour in the reproduction (request inter-arrival jitter,
//! key popularity, cache-miss probabilities, …) flows through [`DetRng`] so
//! that a fixed seed reproduces the exact metric streams the `figures`
//! binary prints (pinned in `tests/golden/figures/`).

/// A seedable deterministic random number generator.
///
/// Internally this is a xoshiro256++ generator seeded through SplitMix64, the
/// standard recipe for reproducible simulation RNGs.  It is intentionally
/// self-contained so that the exact sample streams pinned in
/// `tests/golden/figures/` remain stable across dependency upgrades.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { state }
    }

    /// Uniform `u64` (xoshiro256++ output function).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result =
            self.state[0].wrapping_add(self.state[3]).rotate_left(23).wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.next_f64() < p
    }

    /// Zipf-distributed rank in `[0, n)` with skew `s` (used for key
    /// popularity in the Redis-like workload).
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        if n <= 1 {
            return 0;
        }
        // Rejection-free inverse-CDF approximation over a harmonic sum sample.
        // For monitoring workloads precision is unimportant; determinism is.
        let u = self.next_f64();
        let n_f = n as f64;
        if s <= 0.0 {
            return (u * n_f) as u64;
        }
        // Approximate the inverse CDF of the Zipf distribution with the
        // continuous bounded Pareto distribution.
        let one_minus_s = 1.0 - s;
        let rank = if (one_minus_s).abs() < 1e-9 {
            n_f.powf(u) - 1.0
        } else {
            ((n_f.powf(one_minus_s) - 1.0) * u + 1.0).powf(1.0 / one_minus_s) - 1.0
        };
        (rank.max(0.0) as u64).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DetRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from_u64(3);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
        assert!((0..100).all(|_| rng.chance(2.0)));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = DetRng::seed_from_u64(17);
        let n = 10_000u64;
        let samples: Vec<u64> = (0..50_000).map(|_| rng.zipf(n, 1.1)).collect();
        assert!(samples.iter().all(|&r| r < n));
        let low = samples.iter().filter(|&&r| r < n / 10).count();
        assert!(
            low > samples.len() / 2,
            "zipf should concentrate mass on low ranks, got {low}/{}",
            samples.len()
        );
        assert_eq!(rng.zipf(1, 1.0), 0);
        assert_eq!(rng.zipf(0, 1.0), 0);
    }
}

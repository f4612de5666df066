//! Deterministic random source for simulations.
//!
//! [`SimRng`] wraps a small, fast, seedable generator (xoshiro256**-style,
//! implemented locally so the stream is stable across toolchain upgrades and
//! needs no external crates) and provides exactly the distributions the
//! workload generators need: uniform, Bernoulli, normal (Box–Muller),
//! log-normal, exponential and Pareto. Child generators can be split off for
//! independent subsystems so that adding a consumer does not perturb the
//! streams of existing ones.

/// A seedable, splittable simulation RNG.
///
/// ```
/// use simkit::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
///
/// let mut child = a.split("video-scenario");
/// let _frame_jitter = child.normal(0.0, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            *s = splitmix64(&mut sm);
        }
        // All-zero state would lock xoshiro at zero; splitmix cannot produce
        // four zeros from any seed, but guard anyway.
        if state == [0; 4] {
            state = [1, 0, 0, 0];
        }
        SimRng { state }
    }

    /// Derives an independent child generator labelled by `stream`.
    ///
    /// The child stream depends on the parent's *current* state and the
    /// label, so the same label split at different points yields different
    /// streams, while identical histories yield identical children.
    pub fn split(&mut self, stream: &str) -> SimRng {
        SimRng::seed_from(self.next_u64() ^ crate::Fnv1a64::hash(stream.as_bytes()))
    }

    fn next_raw(&mut self) -> u64 {
        // xoshiro256** scrambler.
        let [s0, s1, s2, s3] = &mut self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize requires n > 0");
        // Multiply-shift bounded sampling; bias is negligible for the small
        // n used in this workspace (< 2^32).
        ((self.next_raw() as u128 * n as u128) >> 64) as usize
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A normal variate (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (std::f64::consts::TAU * u2).cos()
    }

    /// A log-normal variate with the given *underlying* normal parameters.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// An exponential variate with the given rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// A Pareto variate with scale `x_min` and shape `alpha` (heavy-tailed
    /// burst sizes for the web-browsing scenario).
    ///
    /// # Panics
    ///
    /// Panics if `x_min` or `alpha` is not strictly positive.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(
            x_min > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        x_min / u.powf(1.0 / alpha)
    }

    /// Picks an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index requires at least one weight"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "weights must be finite and non-negative"
                );
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1 // floating-point edge: last bucket
    }

    /// The next 32 random bits (upper half of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            for (d, b) in chunk.iter_mut().zip(bytes) {
                *d = b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SimRng;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be essentially disjoint");
    }

    #[test]
    fn split_streams_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed_from(99);
        let mut parent2 = SimRng::seed_from(99);
        let mut video1 = parent1.split("video");
        let mut video2 = parent2.split("video");
        assert_eq!(video1.next_u64(), video2.next_u64());

        let mut parent3 = SimRng::seed_from(99);
        let mut web = parent3.split("web");
        let mut video3 = SimRng::seed_from(99).split("video");
        assert_ne!(web.next_u64(), video3.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut rng = SimRng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed_from(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed_from(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            assert!(rng.pareto(3.0, 2.0) >= 3.0);
        }
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut rng = SimRng::seed_from(8);
        let weights = [1.0, 3.0, 0.0, 6.0];
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight bucket must never be picked");
        let p1 = counts[1] as f64 / n as f64;
        let p3 = counts[3] as f64 / n as f64;
        assert!((p1 - 0.3).abs() < 0.01, "p1={p1}");
        assert!((p3 - 0.6).abs() < 0.01, "p3={p3}");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_index_rejects_empty() {
        SimRng::seed_from(1).weighted_index(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn weighted_index_rejects_all_zero() {
        SimRng::seed_from(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed_from(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(
            buf.iter().any(|&b| b != 0),
            "13 zero bytes is astronomically unlikely"
        );
    }

    proptest! {
        #[test]
        fn prop_uniform_in_stays_in_range(lo in -1e6f64..1e6, width in 0.0f64..1e6, seed: u64) {
            let hi = lo + width;
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..32 {
                let x = rng.uniform_in(lo, hi);
                prop_assert!(x >= lo && (x < hi || width == 0.0));
            }
        }

        #[test]
        fn prop_uniform_usize_in_bounds(n in 1usize..10_000, seed: u64) {
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..64 {
                prop_assert!(rng.uniform_usize(n) < n);
            }
        }

        #[test]
        fn prop_chance_extremes(seed: u64) {
            let mut rng = SimRng::seed_from(seed);
            prop_assert!(!rng.chance(0.0));
            prop_assert!(rng.chance(1.0));
        }
    }
}

//! Deterministic random number generation.
//!
//! [`DetRng`] is a small, fast, splittable PRNG (SplitMix64 core feeding an
//! xoshiro256++ state) with explicit seeding. Every stochastic component of
//! the simulation derives its own stream via [`DetRng::derive`], so adding a
//! new consumer never perturbs the random sequence seen by existing ones —
//! a property plain shared RNGs do not have.

use rand::RngCore;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        DetRng { s }
    }

    /// Derive the master seed of an independent trial, identified by
    /// `(base_seed, trial_index)`.
    ///
    /// This is the seed-splitting contract of the parallel trial harness:
    /// the seed of trial `i` depends only on the base seed and `i`, never
    /// on which thread runs the trial or in which order trials complete,
    /// so a fan-out over any number of threads reproduces the serial run
    /// bit for bit. Internally this is [`DetRng::derive`] keyed by the
    /// trial index, so trial streams inherit the same independence
    /// guarantees as any other derived stream.
    pub fn trial_seed(base_seed: u64, trial_index: u64) -> u64 {
        DetRng::new(base_seed).derive(trial_index).next()
    }

    /// Derive an independent child stream identified by `stream`.
    ///
    /// Children with different stream ids (or from different parents) are
    /// statistically independent; the parent state is not consumed.
    pub fn derive(&self, stream: u64) -> DetRng {
        let [s0, _, s2, _] = self.s;
        let mut sm = s0 ^ s2 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0, 0, 0, 0] {
            s = [1, 0, 0, 0];
        }
        DetRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite stream of u64
    #[inline]
    pub fn next(&mut self) -> u64 {
        // Destructured, not indexed: four words by construction, so no
        // bounds check and nothing for detlint's panic_reachable to find.
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range upper bound must be positive");
        let mut x = self.next();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn gen_range_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.gen_range(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean (> 0).
    ///
    /// Used for Poisson inter-arrival times.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Avoid ln(0) by nudging the uniform sample away from zero.
        let u = self.gen_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.gen_range(xs.len() as u64) as usize]
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// A sampler for the Zipf distribution over `{0, 1, ..., n-1}` with
/// exponent `theta`, using precomputed cumulative weights.
///
/// Zipf-distributed item popularity is the standard model for e-commerce
/// catalogue skew (a few hot products, a long cold tail).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with skew `theta >= 0`
    /// (`theta = 0` is uniform; classic Zipf is `theta ≈ 1`).
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(theta >= 0.0, "Zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(theta);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        // Guard against floating-point shortfall at the end.
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if there is exactly zero ranks (never; kept for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Sample a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.gen_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_deterministic_and_independent_of_parent_use() {
        let parent = DetRng::new(7);
        let mut c1 = parent.derive(3);
        let mut parent2 = DetRng::new(7);
        parent2.next(); // consuming the parent must not change child streams
        let mut c2 = DetRng::new(7).derive(3);
        for _ in 0..100 {
            assert_eq!(c1.next(), c2.next());
        }
        let mut other = parent.derive(4);
        assert_ne!(c2.next(), other.next());
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = DetRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let v = rng.gen_range_in(100, 105);
        assert!((100..105).contains(&v));
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = DetRng::new(11);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.gen_range(8) as usize] += 1;
        }
        let expected = n / 8;
        for &c in &counts {
            // Within 5% of expectation is far looser than 5-sigma here.
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < expected as u64 / 20,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = DetRng::new(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} not near 0.5");
    }

    #[test]
    fn bernoulli_edges_and_rate() {
        let mut rng = DetRng::new(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::new(13);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gen_exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean} not near 4.0");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = DetRng::new(17);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = DetRng::new(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = DetRng::new(23);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            counts[r] += 1;
        }
        // Rank 0 should dominate rank 50 heavily at theta=1.
        assert!(counts[0] > counts[50] * 10);
        // Theta=0 is uniform-ish.
        let z0 = Zipf::new(10, 0.0);
        let mut c0 = [0u32; 10];
        for _ in 0..50_000 {
            c0[z0.sample(&mut rng)] += 1;
        }
        assert!(c0.iter().all(|&c| c > 3_500));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }
}

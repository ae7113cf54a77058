//! Seeded randomness with the distribution helpers traffic generation
//! needs. A xoshiro256++ generator seeded through splitmix64, so every
//! experiment is reproducible from a single `--seed`.

/// The splitmix64 increment, 2^64 / φ; also spreads labels over seeds.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: advance `state` and return its mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive a child seed from `(seed, label)` with no RNG state involved
/// (a splitmix64 finalizer over the mixed inputs). Unlike [`SimRng::fork`]
/// — which draws from the parent and therefore depends on how much the
/// parent has already been used — this is a pure function: any thread can
/// compute the same child seed locally. Parallel scenario producers use
/// it to give every campaign its own RNG stream derived only from the
/// plan seed and the campaign's global index.
pub fn split_seed(seed: u64, label: u64) -> u64 {
    splitmix64(&mut (seed ^ label.wrapping_mul(GAMMA)))
}

/// Deterministic simulation RNG (xoshiro256++).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeded RNG.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// The raw generator state, for checkpointing. Pair with
    /// [`SimRng::from_state`]: the rebuilt RNG continues the exact
    /// output stream from the point the state was taken.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild an RNG from a captured [`SimRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }

    /// Next 64 random bits.
    #[inline]
    fn next_u64(&mut self) -> u64 {
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

    /// Derive an independent child stream (for per-campaign/per-host
    /// RNGs that must not perturb each other when one draws more).
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ label.wrapping_mul(GAMMA))
    }

    /// Uniform in `[0, 1)`: 53 uniform mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`; `lo == hi` returns `lo`.
    /// Multiply-shift maps 64 random bits onto the span with negligible
    /// bias for the spans simulations use.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + ((self.next_u64() as u128 * (hi - lo) as u128) >> 64) as u64
    }

    /// Bernoulli draw.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with the given mean (inter-arrival times of a
    /// Poisson process).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.f64();
        -mean * (1.0 - u).ln()
    }

    /// Poisson-distributed count with the given rate (Knuth's method;
    /// fine for the λ ≤ ~100 this workspace uses, with a normal
    /// approximation above that).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 100.0 {
            // Normal approximation for large λ.
            let g = self.gaussian();
            return (lambda + lambda.sqrt() * g).round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Standard normal variate (Box-Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.f64().max(f64::MIN_POSITIVE);
        let u2: f64 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal variate parameterized by the *median* and σ of the
    /// underlying normal (heavy-tailed file sizes / transfer volumes).
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.gaussian()).exp()
    }

    /// Pick an index by weight. Panics on empty weights; zero total
    /// weight falls back to index 0.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted() needs at least one weight");
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut draw = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    /// Choose one element of a slice uniformly.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose() needs a non-empty slice");
        let i = self.range(0, items.len() as u64) as usize;
        &items[i]
    }

    /// Fill a buffer with random bytes: whole 8-byte little-endian words,
    /// then a tail cut from one more.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1000), b.range(0, 1000));
        }
        let mut c = SimRng::new(8);
        let diverged = (0..100).any(|_| a.range(0, 1000) != c.range(0, 1000));
        assert!(diverged);
    }

    /// The stream every golden digest and checkpoint depends on: a change
    /// to seeding, `next_u64`, `range`, `f64`, `fill_bytes` or `fork`
    /// fails here first.
    #[test]
    fn known_answers_for_seed_42() {
        let mut r = SimRng::new(42);
        let ranges: Vec<u64> = (0..4).map(|_| r.range(0, 1 << 40)).collect();
        assert_eq!(
            ranges,
            [895337975620, 350547440727, 1081803078412, 770906742796]
        );
        let mut r = SimRng::new(42);
        let floats: Vec<u64> = (0..4).map(|_| r.f64().to_bits()).collect();
        assert_eq!(
            floats,
            [
                4605509828241559245,
                4599414989186784204,
                4607037350363628701,
                4604490487582268166
            ]
        );
        let mut r = SimRng::new(42);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert_eq!(
            buf,
            [159, 104, 118, 68, 79, 77, 118, 208, 145, 55, 111, 87, 116]
        );
        let mut r = SimRng::new(42);
        let child = r.fork(7);
        assert_eq!(
            child.state(),
            [
                17467064678554401701,
                15689417978771277957,
                18402477364202588587,
                13005246820964357577
            ]
        );
        assert_eq!(
            r.state(),
            [
                14781993660996615170,
                15162131492471177412,
                4387123674275312071,
                9390829987253819269
            ]
        );
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.f64()));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            assert!((10..20).contains(&rng.range(10, 20)));
        }
    }

    #[test]
    fn fill_covers_tail() {
        let mut rng = SimRng::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf[8..].iter().any(|&b| b != 0));
    }

    #[test]
    fn split_seed_pure_and_spread() {
        // Pure: same inputs agree regardless of calling context.
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
        // Distinct labels and distinct seeds diverge.
        assert_ne!(split_seed(42, 7), split_seed(42, 8));
        assert_ne!(split_seed(42, 7), split_seed(43, 7));
        // Sequential labels do not produce sequential seeds.
        let a = split_seed(1, 0);
        let b = split_seed(1, 1);
        assert!(a.abs_diff(b) > 1 << 32);
    }

    #[test]
    fn state_round_trip_continues_stream() {
        let mut a = SimRng::new(9);
        for _ in 0..17 {
            a.f64();
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.range(0, 1 << 40), b.range(0, 1 << 40));
        }
    }

    #[test]
    fn fork_streams_independent() {
        let mut root = SimRng::new(1);
        let mut x = root.fork(1);
        let mut y = root.fork(2);
        let xs: Vec<u64> = (0..10).map(|_| x.range(0, 1 << 30)).collect();
        let ys: Vec<u64> = (0..10).map(|_| y.range(0, 1 << 30)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = SimRng::new(42);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_mean_close() {
        let mut rng = SimRng::new(43);
        for lambda in [0.5f64, 5.0, 50.0, 500.0] {
            let n = 5_000;
            let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "λ={lambda} mean={mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::new(44);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = SimRng::new(45);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[rng.weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        let f2 = counts[2] as f64 / n as f64;
        assert!((f2 - 0.7).abs() < 0.03, "f2 {f2}");
        // Degenerate weights fall back to 0.
        assert_eq!(rng.weighted(&[0.0, 0.0]), 0);
    }

    #[test]
    fn range_degenerate() {
        let mut rng = SimRng::new(46);
        assert_eq!(rng.range(5, 5), 5);
        assert_eq!(rng.range(7, 3), 7);
    }

    #[test]
    fn lognormal_median_close() {
        let mut rng = SimRng::new(47);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.lognormal(100.0, 1.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.1, "median {median}");
    }
}

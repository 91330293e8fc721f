//! Deterministic pseudo-random number generation.
//!
//! Experiments must be reproducible bit-for-bit across runs and platforms, so
//! the simulation uses its own small PCG-XSH-RR 64/32 generator instead of a
//! thread-local or OS-seeded RNG. The generator is intentionally minimal: the
//! simulation only needs uniform samples, exponential inter-arrival times
//! (Poisson processes), and normal/lognormal noise factors.
//!
//! A 64-bit draw is two steps of the underlying linear congruential
//! generator, its top word the first step's output and its low word the
//! second's. The state advances by the two steps composed into one affine
//! map, `state ↦ M² · state + (M + 1) · inc`, so the chain from one draw to
//! the next is one multiply-add; the state between the two steps, which
//! gives the low word, is computed beside it, off that chain.

use serde::{Deserialize, Serialize};

use crate::time::Nanos;

/// A deterministic PCG-XSH-RR 64/32 pseudo-random number generator.
///
/// Each component of the simulation owns its own `SimRng`, typically derived
/// from a root seed with [`SimRng::derive`], so that adding RNG consumers to
/// one component does not perturb the random streams seen by others.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

/// `steps` steps of the generator as one affine map of the state,
/// `state ↦ mult · state + sum · inc`, returned as `(mult, sum)`: `mult` is
/// `PCG_MULT^steps` and `sum` is `1 + PCG_MULT + … + PCG_MULT^(steps − 1)`.
/// Built by squaring, in O(log steps) multiplications.
const fn lcg_power(mut steps: u64) -> (u64, u64) {
    let (mut mult, mut sum) = (1u64, 0u64);
    let (mut step_mult, mut step_sum) = (PCG_MULT, 1u64);
    while steps > 0 {
        if steps & 1 == 1 {
            mult = mult.wrapping_mul(step_mult);
            sum = sum.wrapping_mul(step_mult).wrapping_add(step_sum);
        }
        step_sum = step_mult.wrapping_add(1).wrapping_mul(step_sum);
        step_mult = step_mult.wrapping_mul(step_mult);
        steps >>= 1;
    }
    (mult, sum)
}

/// The two steps of one 64-bit draw as one map: `(M², M + 1)`.
const DRAW: (u64, u64) = lcg_power(2);

/// The PCG-XSH-RR output of the step from `state`.
fn output(state: u64) -> u32 {
    let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
    xorshifted.rotate_right((state >> 59) as u32)
}

/// A 64-bit draw taken from a stream, whose words are formed when read
/// ([`SimRng::split_draw`]).
#[derive(Clone, Copy, Debug)]
pub struct SplitDraw {
    /// The draw's top word: the output of its first step.
    top: u32,
    /// The state the draw started from, and the stream's increment.
    old: u64,
    inc: u64,
}

impl SplitDraw {
    /// The draw's top word: the output of its first step.
    pub fn top(self) -> u32 {
        self.top
    }

    /// The draw's low word: the output of the state one step past its
    /// first.
    fn low(self) -> u32 {
        output(self.old.wrapping_mul(PCG_MULT).wrapping_add(self.inc))
    }

    /// The [`SimRng::uniform`] sample of the draw.
    pub fn uniform(self) -> f64 {
        SimRng::uniform_from_words(self.top, self.low())
    }
}

impl SimRng {
    /// Creates a generator from a seed and a stream identifier.
    ///
    /// Different stream identifiers with the same seed produce statistically
    /// independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SimRng {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator from a seed on the default stream.
    pub fn seeded(seed: u64) -> Self {
        SimRng::new(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Derives an independent child generator, keyed by `tag`.
    ///
    /// This is how per-model / per-worker / per-client streams are created
    /// from a single experiment seed.
    pub fn derive(&self, tag: u64) -> SimRng {
        // Mix the tag through SplitMix64 so sequential tags land far apart.
        let mut z = self.state ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        SimRng::new(z, tag.wrapping_add(0x1405_7b7e))
    }

    /// Next raw 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        output(old)
    }

    /// Next raw 64-bit output: the outputs of two steps, the first on top.
    /// The state takes both steps in one multiply-add, `(M², (M + 1) · inc)`;
    /// the state between them, whose output is the low word, is computed
    /// beside it.
    pub fn next_u64(&mut self) -> u64 {
        let draw = self.split_draw();
        (u64::from(draw.top()) << 32) | u64::from(draw.low())
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.split_draw().uniform()
    }

    /// The [`SimRng::uniform`] sample whose raw draw has top word `hi` and
    /// low word `lo`. It never falls as `(hi, lo)`, read as one number,
    /// rises.
    pub fn uniform_from_words(hi: u32, lo: u32) -> f64 {
        // 53 random mantissa bits.
        let raw = (u64::from(hi) << 32) | u64::from(lo);
        (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Moves the stream one draw on, both steps in one map, and returns the
    /// draw unformed: its top word is one output, and its low word and
    /// [`SimRng::uniform`] sample are formed only when asked for.
    pub fn split_draw(&mut self) -> SplitDraw {
        let old = self.state;
        self.state = DRAW
            .0
            .wrapping_mul(old)
            .wrapping_add(DRAW.1.wrapping_mul(self.inc));
        SplitDraw {
            top: output(old),
            old,
            inc: self.inc,
        }
    }

    /// Moves the stream past `draws` [`SimRng::uniform`] draws without
    /// making them: the generator is then where drawing them would leave
    /// it. A draw takes two steps of the underlying linear congruential
    /// generator, and `n` steps compose into one affine map.
    pub fn skip_uniforms(&mut self, draws: u64) {
        let (mult, sum) = lcg_power(draws.wrapping_mul(2));
        self.state = mult
            .wrapping_mul(self.state)
            .wrapping_add(sum.wrapping_mul(self.inc));
    }

    /// A uniform sample in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.uniform() * (hi - lo)
    }

    /// A uniform integer in `[0, bound)`. Returns 0 when `bound` is 0.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// A uniform index in `[0, len)`. Returns 0 when `len` is 0.
    pub fn index(&mut self, len: usize) -> usize {
        self.uniform_u64(len as u64) as usize
    }

    /// A Bernoulli sample with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// A standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            let u2 = self.uniform();
            if u1 > f64::MIN_POSITIVE {
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// A lognormal multiplicative factor with median 1.0 and the given sigma.
    ///
    /// This is the shape used for execution-time noise: tiny sigma produces
    /// the near-deterministic latencies of Fig. 2a.
    pub fn lognormal_factor(&mut self, sigma: f64) -> f64 {
        (sigma * self.normal()).exp()
    }

    /// An exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// An exponentially distributed inter-arrival gap for a Poisson process
    /// with the given rate (events per second).
    pub fn poisson_gap(&mut self, rate_per_sec: f64) -> Nanos {
        if rate_per_sec <= 0.0 {
            return Nanos::MAX;
        }
        Nanos::from_secs_f64(self.exponential(1.0 / rate_per_sec))
    }

    /// A Poisson-distributed count with the given mean (Knuth's algorithm for
    /// small means, normal approximation for large means).
    pub fn poisson_count(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let v = self.normal_with(mean, mean.sqrt());
            return if v < 0.0 { 0 } else { v.round() as u64 };
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `next_u64` as it was first written, two `next_u32` steps: the twin
    /// the one-map draw must match.
    fn next_u64_by_steps(rng: &mut SimRng) -> u64 {
        let hi = rng.next_u32() as u64;
        let lo = rng.next_u32() as u64;
        (hi << 32) | lo
    }

    proptest! {
        #[test]
        fn a_draw_is_the_two_steps_it_composes(
            seed in any::<u64>(),
            stream in any::<u64>(),
            tag in any::<u64>(),
            steps in 0u64..300,
        ) {
            let root = SimRng::new(seed, stream);
            for start in [root.clone(), root.derive(tag)] {
                let mut drawn = start.clone();
                let mut twin = start.clone();
                for _ in 0..64 {
                    prop_assert_eq!(drawn.next_u64(), next_u64_by_steps(&mut twin));
                }
                prop_assert_eq!(&drawn, &twin);

                let mut rng = start.clone();
                for _ in 0..64 {
                    let top = next_u64_by_steps(&mut rng.clone()) >> 32;
                    let mut whole = rng.clone();
                    let u = whole.uniform();
                    let mut skipped = rng.clone();
                    skipped.skip_uniforms(1);
                    let mut split = rng.clone();
                    let draw = split.split_draw();
                    prop_assert_eq!(u64::from(draw.top()), top);
                    prop_assert_eq!(draw.uniform(), u);
                    prop_assert_eq!(&split, &whole);
                    prop_assert_eq!(&split, &skipped);
                    rng.uniform();
                }

                // The affine-power helper against stepping one at a time.
                let (mult, sum) = lcg_power(steps);
                let mut stepped = start.clone();
                for _ in 0..steps {
                    stepped.next_u32();
                }
                prop_assert_eq!(
                    mult.wrapping_mul(start.state).wrapping_add(sum.wrapping_mul(start.inc)),
                    stepped.state,
                    "{} steps", steps
                );
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_produces_independent_streams() {
        let root = SimRng::seeded(7);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
        // Deriving with the same tag twice gives the same stream.
        let mut c = root.derive(1);
        let mut d = root.derive(1);
        for _ in 0..16 {
            assert_eq!(c.next_u64(), d.next_u64());
        }
    }

    #[test]
    fn skipping_draws_leaves_the_stream_where_drawing_them_does() {
        for (seed, draws) in [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 7),
            (4, 64),
            (5, 1_000),
            (6, 65_537),
        ] {
            let mut drawn = SimRng::seeded(seed).derive(draws);
            let mut skipped = drawn.clone();
            for _ in 0..draws {
                drawn.uniform();
            }
            skipped.skip_uniforms(draws);
            assert_eq!(skipped, drawn, "{draws} draws");
            assert_eq!(skipped.next_u64(), drawn.next_u64());
        }
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::seeded(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_roughly_half() {
        let mut rng = SimRng::seeded(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.uniform()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn uniform_u64_respects_bound() {
        let mut rng = SimRng::seeded(11);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(rng.uniform_u64(bound) < bound);
            }
        }
        assert_eq!(rng.uniform_u64(0), 0);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::seeded(13);
        let n = 100_000;
        let mean_target = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn poisson_count_mean_matches() {
        let mut rng = SimRng::seeded(17);
        for mean_target in [0.5f64, 3.0, 20.0, 200.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| rng.poisson_count(mean_target)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - mean_target).abs() < mean_target.max(1.0) * 0.05,
                "target {mean_target} got {mean}"
            );
        }
    }

    #[test]
    fn poisson_gap_rate_matches() {
        let mut rng = SimRng::seeded(19);
        let rate = 1000.0; // 1000 requests per second => mean gap 1 ms.
        let n = 50_000;
        let total: f64 = (0..n).map(|_| rng.poisson_gap(rate).as_secs_f64()).sum();
        let mean_gap = total / n as f64;
        assert!((mean_gap - 0.001).abs() < 0.0001, "mean gap {mean_gap}");
        assert_eq!(rng.poisson_gap(0.0), Nanos::MAX);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seeded(23);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn lognormal_factor_median_near_one() {
        let mut rng = SimRng::seeded(29);
        let mut samples: Vec<f64> = (0..10_001).map(|_| rng.lognormal_factor(0.1)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.02, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn chance_probability() {
        let mut rng = SimRng::seeded(31);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.chance(0.25)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.01, "p {p}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seeded(37);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }
}

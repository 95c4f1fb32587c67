//! Deterministic seed derivation and the workspace's one random generator.
//!
//! Large experiments need many independent random streams (one per
//! topology, per failure schedule, per publisher, ...). Deriving them all
//! from a single experiment seed keeps whole runs reproducible while
//! guaranteeing the streams don't accidentally correlate: each stream's
//! seed is the SplitMix64 hash of the parent seed and a label.
//!
//! Every stream is a [`SmallRng`] from [`rng_for`] or [`rng_for_indexed`].
//! Its generator and sampling algorithms are those of `rand` 0.8.5 on a
//! 64-bit target, bit for bit, so seeded streams equal that crate's.

use std::ops::{Bound, RangeBounds};

/// SplitMix64 step — a high-quality 64-bit mixer (Steele et al.). It seeds
/// [`SmallRng`] and is the stateless hash behind every per-epoch draw of
/// the failure, chaos, membership and gossip models.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64's increment (2⁶⁴ / φ).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps a hash to a uniform `f64` in `[0, 1)` with 53-bit precision.
#[inline]
#[must_use]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Derives a child seed from a parent seed and a stream label.
///
/// Distinct `(seed, label)` pairs map to (practically) distinct, decorrelated
/// child seeds; equal pairs always map to the same child seed.
///
/// # Example
///
/// ```
/// use dcrd_sim::rng::derive_seed;
///
/// let a = derive_seed(42, "failures");
/// let b = derive_seed(42, "workload");
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, "failures"));
/// ```
#[must_use]
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = splitmix64(seed ^ 0xD6E8_FEB8_6659_FD93);
    for &byte in label.as_bytes() {
        h = splitmix64(h ^ u64::from(byte));
    }
    // One extra round so short labels still fully avalanche.
    splitmix64(h ^ label.len() as u64)
}

/// Derives a child seed from a parent seed and an index (e.g. a repetition
/// number or node id).
#[must_use]
pub fn derive_seed_indexed(seed: u64, label: &str, index: u64) -> u64 {
    splitmix64(derive_seed(seed, label) ^ splitmix64(index))
}

/// Creates a fast deterministic RNG from a parent seed and label.
#[must_use]
pub fn rng_for(seed: u64, label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(seed, label))
}

/// Creates a fast deterministic RNG from a parent seed, label and index.
#[must_use]
pub fn rng_for_indexed(seed: u64, label: &str, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed_indexed(seed, label, index))
}

/// xoshiro256++ — the generator `rand` 0.8.5 calls `SmallRng` on 64-bit
/// targets, with that crate's sampling algorithms. [`rng_for`] and
/// [`rng_for_indexed`] make every one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// `rand`'s `seed_from_u64`: the state is four SplitMix64 outputs, word
    /// `i` from `seed + i·γ`. SplitMix64 is a bijection, so at most one
    /// word is zero and the state never is.
    fn seed_from_u64(seed: u64) -> Self {
        let word = |i: u64| splitmix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(i)));
        SmallRng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next 64 random bits: `gen::<u64>()`.
    #[inline]
    fn next_u64(&mut self) -> u64 {
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

    /// The high half of [`next_u64`](Self::next_u64): `gen::<u32>()`.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A draw from `T`'s standard distribution: every value of an integer
    /// type equally likely, an `f64` in `[0, 1)` on 53 bits, a fair `bool`.
    #[inline]
    pub fn gen<T: Sample>(&mut self) -> T {
        T::standard(self)
    }

    /// A uniform draw from `low..high` or `low..=high`.
    ///
    /// # Panics
    ///
    /// If the range is empty or has another form, or `T` has no range
    /// form (`u8`, `bool`).
    #[inline]
    pub fn gen_range<T: Sample>(&mut self, range: impl RangeBounds<T>) -> T {
        match (range.start_bound(), range.end_bound()) {
            (Bound::Included(&low), Bound::Excluded(&high)) => T::uniform(low, high, self),
            (Bound::Included(&low), Bound::Included(&high)) => {
                T::uniform_inclusive(low, high, self)
            }
            _ => panic!("gen_range: the range must be `low..high` or `low..=high`"),
        }
    }

    /// `true` with probability `p`, as `rand`'s `Bernoulli`: one draw
    /// below `p · 2⁶⁴`, and no draw at all for `p == 1`.
    ///
    /// # Panics
    ///
    /// If `p` is not in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        /// 2⁶⁴.
        const SCALE: f64 = 2.0 * (1u64 << 63) as f64;
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: {p} is not a probability"
        );
        p == 1.0 || self.next_u64() < (p * SCALE) as u64
    }

    /// Shuffles `slice` in place: Fisher–Yates from the back.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`; `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            slice.get(self.below(slice.len()))
        }
    }

    /// A uniform index below `bound`, drawn as a `u32` when `bound` fits
    /// one, as `rand`'s slice helpers do.
    #[inline]
    fn below(&mut self, bound: usize) -> usize {
        match u32::try_from(bound) {
            Ok(bound) => self.gen_range(0..bound) as usize,
            Err(_) => self.gen_range(0..bound),
        }
    }
}

/// A type [`SmallRng::gen`] draws and [`SmallRng::gen_range`] bounds, each
/// by `rand` 0.8.5's algorithm for it.
pub trait Sample: Copy {
    /// A draw from the type's standard distribution (see [`SmallRng::gen`]).
    fn standard(rng: &mut SmallRng) -> Self;

    /// Uniform in `[low, high)`.
    ///
    /// # Panics
    ///
    /// If `low >= high`, or the type has no range form.
    fn uniform(low: Self, high: Self, rng: &mut SmallRng) -> Self {
        let _ = (low, high, rng);
        panic!(
            "gen_range: {} has no range form",
            std::any::type_name::<Self>()
        )
    }

    /// Uniform in `[low, high]`.
    ///
    /// # Panics
    ///
    /// If `low > high`, or the type has no range form.
    fn uniform_inclusive(low: Self, high: Self, rng: &mut SmallRng) -> Self {
        Self::uniform(low, high, rng)
    }
}

impl Sample for u8 {
    #[inline]
    fn standard(rng: &mut SmallRng) -> Self {
        rng.next_u32() as u8
    }
}

impl Sample for bool {
    /// The sign bit of a `u32` draw.
    #[inline]
    fn standard(rng: &mut SmallRng) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

/// An integer type whose ranges draw `$unsigned` words: a widening multiply,
/// rejecting the low words above the `(range << lz) - 1` zone.
macro_rules! sample_int {
    ($ty:ty, $unsigned:ty, $wide:ty, $draw:ident) => {
        impl Sample for $ty {
            #[inline]
            fn standard(rng: &mut SmallRng) -> Self {
                rng.$draw() as $ty
            }

            #[inline]
            fn uniform(low: Self, high: Self, rng: &mut SmallRng) -> Self {
                assert!(low < high, "gen_range: empty range");
                Self::uniform_inclusive(low, high - 1, rng)
            }

            #[inline]
            fn uniform_inclusive(low: Self, high: Self, rng: &mut SmallRng) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned;
                if range == 0 {
                    // The type's whole span.
                    return Self::standard(rng);
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let wide = (rng.$draw() as $unsigned as $wide) * (range as $wide);
                    if wide as $unsigned <= zone {
                        return low.wrapping_add((wide >> <$unsigned>::BITS) as $ty);
                    }
                }
            }
        }
    };
}

sample_int!(u32, u32, u64, next_u32);
sample_int!(i32, u32, u64, next_u32);
sample_int!(u64, u64, u128, next_u64);
sample_int!(usize, usize, u128, next_u64);

impl Sample for f64 {
    #[inline]
    fn standard(rng: &mut SmallRng) -> Self {
        unit(rng.next_u64())
    }

    /// Rounding can land on `high`; then the scale shrinks by one ulp and
    /// the draw repeats.
    #[inline]
    fn uniform(low: Self, high: Self, rng: &mut SmallRng) -> Self {
        assert!(low < high, "gen_range: empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            let res = unit_52bit(rng) * scale + low;
            if res < high {
                return res;
            }
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    /// The scale shrinks by ulps until the largest draw stays at or below
    /// `high`.
    #[inline]
    fn uniform_inclusive(low: Self, high: Self, rng: &mut SmallRng) -> Self {
        assert!(low <= high, "gen_range: empty range");
        let max_rand = 1.0 - f64::EPSILON;
        let mut scale = (high - low) / max_rand;
        assert!(scale.is_finite(), "gen_range: range overflow");
        while scale * max_rand + low > high {
            scale = f64::from_bits(scale.to_bits() - 1);
        }
        unit_52bit(rng) * scale + low
    }
}

/// A float in `[0, 1)` on 52 bits: a `[1, 2)` mantissa draw, minus one.
#[inline]
fn unit_52bit(rng: &mut SmallRng) -> f64 {
    f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52)) - 1.0
}

/// Runs a randomized property over `count` seeded cases: case `i` draws its
/// inputs from `rng_for_indexed(0, name, i)`, so every run of the property
/// sees the same inputs and a failure replays from its index alone.
///
/// # Panics
///
/// Re-raises a failing case's panic with the property name and the case
/// index prepended. There is no shrinking.
///
/// # Example
///
/// ```
/// use dcrd_sim::rng::cases;
///
/// cases("addition_commutes", 64, |rng| {
///     let (a, b) = (rng.gen_range(0..1000u64), rng.gen_range(0..1000u64));
///     assert_eq!(a + b, b + a);
/// });
/// ```
pub fn cases(name: &str, count: u64, mut check: impl FnMut(&mut SmallRng)) {
    for i in 0..count {
        let mut rng = rng_for_indexed(0, name, i);
        let run = std::panic::AssertUnwindSafe(|| check(&mut rng));
        if let Err(payload) = std::panic::catch_unwind(run) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("property `{name}` failed at case {i} of {count}: {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // The reference generator's outputs from state 0 and 1234567: each
        // step adds the golden-ratio increment and mixes.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
        let mut state = 1_234_567u64;
        for expected in [
            6_457_827_717_110_365_317u64,
            3_203_168_211_198_807_973,
            9_817_491_932_198_370_423,
        ] {
            assert_eq!(splitmix64(state), expected);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[test]
    fn unit_spans_zero_to_just_below_one() {
        assert_eq!(unit(0), 0.0);
        assert_eq!(unit(1 << 63), 0.5);
        assert_eq!(unit(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        // The low 11 bits do not reach the 53-bit mantissa.
        assert_eq!(unit(0x7FF), 0.0);
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(7, "x"), derive_seed(7, "x"));
        assert_eq!(
            derive_seed_indexed(7, "x", 3),
            derive_seed_indexed(7, "x", 3)
        );
    }

    #[test]
    fn labels_separate_streams() {
        assert_ne!(derive_seed(7, "x"), derive_seed(7, "y"));
        assert_ne!(derive_seed(7, "x"), derive_seed(8, "x"));
        assert_ne!(derive_seed(7, "ab"), derive_seed(7, "ba"));
        assert_ne!(
            derive_seed_indexed(7, "x", 0),
            derive_seed_indexed(7, "x", 1)
        );
    }

    #[test]
    fn empty_and_prefix_labels_differ() {
        assert_ne!(derive_seed(7, ""), derive_seed(7, "a"));
        assert_ne!(derive_seed(7, "a"), derive_seed(7, "aa"));
    }

    #[test]
    fn derived_seeds_have_no_obvious_collisions() {
        let mut seen = HashSet::new();
        for seed in 0..100u64 {
            for idx in 0..100u64 {
                assert!(seen.insert(derive_seed_indexed(seed, "rep", idx)));
            }
        }
    }

    #[test]
    fn rngs_reproduce_streams() {
        let mut a = rng_for(99, "s");
        let mut b = rng_for(99, "s");
        let va: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(va, vb);

        let mut c = rng_for_indexed(99, "s", 1);
        let vc: Vec<u64> = (0..16).map(|_| c.gen()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn cases_draw_the_same_inputs_for_the_same_name() {
        let draws = |name: &str| {
            let mut seen = Vec::new();
            cases(name, 8, |rng| seen.push(rng.gen::<u64>()));
            seen
        };
        let a = draws("prop");
        assert_eq!(a.len(), 8);
        assert_eq!(a, draws("prop"));
        assert_ne!(a, draws("other_prop"));
        // Case `i` is the indexed stream, so a failure replays from its index.
        assert_eq!(a[3], rng_for_indexed(0, "prop", 3).gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "property `fails_from_case_two` failed at case 2 of 5: boom at 2")]
    fn a_failing_case_names_the_property_and_the_case() {
        let mut i = 0;
        cases("fails_from_case_two", 5, |_| {
            assert!(i < 2, "boom at {i}");
            i += 1;
        });
    }

    #[test]
    fn splitmix_avalanche_sanity() {
        // Flipping one input bit should flip roughly half the output bits.
        let x = derive_seed(0x1234_5678, "avalanche");
        let y = derive_seed(0x1234_5679, "avalanche");
        let flipped = (x ^ y).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "weak avalanche: {flipped} bits"
        );
    }

    /// Draws `n` values from a fresh copy of each of the two pinned streams:
    /// `rng_for(7, "vectors")` and `rng_for_indexed(20110620, "vectors", 3)`.
    fn draws<T>(n: usize, draw: impl Fn(&mut SmallRng) -> T) -> [Vec<T>; 2] {
        [
            rng_for(7, "vectors"),
            rng_for_indexed(20_110_620, "vectors", 3),
        ]
        .map(|mut rng| (0..n).map(|_| draw(&mut rng)).collect())
    }

    /// Recorded from `benchmark/vendor/rand`, the `rand` 0.8.5 stand-in whose
    /// streams the pinned trace digests come from: a change to any
    /// algorithm moves every seeded result, and fails here first.
    #[test]
    fn streams_match_rand_0_8_5() {
        assert_eq!(
            draws(4, SmallRng::next_u64),
            [
                vec![
                    5_375_850_962_440_854_539,
                    15_921_953_754_200_294_337,
                    13_882_538_486_959_792_314,
                    5_298_666_938_406_654_399,
                ],
                vec![
                    15_869_958_571_696_378_351,
                    7_660_401_821_117_361_166,
                    17_888_679_195_444_815_383,
                    15_632_537_693_660_175_639,
                ],
            ]
        );
        assert_eq!(
            draws(4, SmallRng::next_u32),
            [
                vec![1_251_662_839, 3_707_118_740, 3_232_280_371, 1_233_692_033],
                vec![3_695_012_669, 1_783_576_286, 4_165_032_691, 3_639_733_813],
            ]
        );
        assert_eq!(
            draws(6, |r| r.gen_range(0..10u32)),
            [vec![7, 3, 4, 2, 9, 2], vec![8, 4, 8, 5, 0, 4]]
        );
        assert_eq!(
            draws(6, |r| r.gen_range(1..=6u32)),
            [vec![2, 6, 5, 2, 3, 2], vec![6, 3, 6, 2, 4, 1]]
        );
        assert_eq!(
            draws(6, |r| r.gen_range(-5..5i32)),
            [vec![2, -2, -1, -3, 4, -3], vec![3, -1, 3, 0, -5, -1]]
        );
        assert_eq!(
            draws(6, |r| r.gen_range(-3..=3i32)),
            [vec![-1, 3, 2, -1, -1, 0], vec![3, 3, 0, -3, 0, 3]]
        );
        assert_eq!(
            draws(6, |r| r.gen_range(0..1000u64)),
            [
                vec![291, 863, 752, 287, 310, 456],
                vec![860, 415, 969, 847, 271, 523]
            ]
        );
        assert_eq!(
            draws(6, |r| r.gen_range(10..=20u64)),
            [vec![13, 19, 18, 13, 13, 15], vec![19, 14, 20, 19, 10, 15]]
        );
        // The whole span takes the raw draw.
        assert_eq!(
            draws(2, |r| r.gen_range(0..=u64::MAX)),
            draws(2, SmallRng::next_u64)
        );
        assert_eq!(
            draws(6, |r| r.gen_range(0..7usize)),
            [vec![2, 6, 5, 2, 2, 3], vec![6, 6, 3, 0, 3, 6]]
        );
        assert_eq!(
            draws(6, |r| r.gen_range(3..=9usize)),
            [vec![5, 9, 8, 5, 5, 6], vec![9, 9, 6, 3, 6, 9]]
        );
        assert_eq!(
            draws(3, |r| r.gen_range(0.2..0.6)),
            [
                vec![
                    0.316_570_185_848_733_2,
                    0.545_252_337_010_353_8,
                    0.501_029_567_743_508_6
                ],
                vec![
                    0.544_124_871_213_763_3,
                    0.366_108_485_931_347_1,
                    0.587_898_896_931_950_3
                ],
            ]
        );
        assert_eq!(
            draws(3, |r| r.gen_range(-1.5..=2.5)),
            [
                vec![
                    -0.334_298_141_512_667_57,
                    1.952_523_370_103_539_2,
                    1.510_295_677_435_087_7
                ],
                vec![
                    1.941_248_712_137_634,
                    0.161_084_859_313_471_27,
                    2.378_988_969_319_503_4
                ],
            ]
        );
        assert_eq!(
            draws(3, SmallRng::gen::<f64>),
            [
                vec![
                    0.291_425_464_621_833_16,
                    0.863_130_842_525_884_6,
                    0.752_573_919_358_771_7
                ],
                vec![
                    0.860_312_178_034_408_3,
                    0.415_271_214_828_367_8,
                    0.969_747_242_329_875_6
                ],
            ]
        );
        assert_eq!(
            draws(1, |r| {
                let mut v: Vec<u32> = (0..10).collect();
                r.shuffle(&mut v);
                v
            }),
            [
                vec![vec![5, 9, 0, 3, 1, 8, 6, 2, 4, 7]],
                vec![vec![9, 3, 7, 6, 1, 5, 0, 4, 2, 8]]
            ]
        );
        let pool = [10u32, 20, 30, 40, 50, 60, 70];
        assert_eq!(
            draws(6, |r| r.choose(&pool).copied()),
            [
                [30, 70, 60, 30, 30, 40].map(Some).to_vec(),
                [70, 70, 40, 10, 40, 70].map(Some).to_vec()
            ]
        );
        assert_eq!(draws(1, |r| r.choose::<u32>(&[])), [vec![None], vec![None]]);
    }

    /// Computed from `rand` 0.8.5's formulas rather than recorded, as the
    /// stand-in lacks these draws: `Bernoulli` is
    /// `next_u64() < (p · 2⁶⁴) as u64`, a `u8` is `next_u32() as u8` and a
    /// `bool` is the sign bit of `next_u32()`.
    #[test]
    fn bool_and_byte_draws_follow_rand_0_8_5() {
        assert_eq!(
            draws(10, |r| r.gen_bool(0.3)),
            [
                vec![true, false, false, true, false, false, true, false, false, true],
                vec![false, false, false, false, true, false, true, false, false, true],
            ]
        );
        assert_eq!(
            draws(6, SmallRng::gen::<u8>),
            [
                vec![247, 148, 51, 129, 193, 224],
                vec![61, 222, 243, 53, 195, 28]
            ]
        );
        assert_eq!(
            draws(10, SmallRng::gen::<bool>),
            [
                vec![false, true, true, false, false, false, false, true, true, false],
                vec![true, false, true, true, false, true, false, false, true, false],
            ]
        );
    }

    #[test]
    fn gen_bool_of_one_draws_nothing_and_of_zero_is_never_true() {
        let mut rng = rng_for(7, "vectors");
        let before = rng.clone();
        assert!(rng.gen_bool(1.0));
        assert_eq!(rng, before);
        assert!((0..10_000).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    #[should_panic(expected = "gen_bool: 1.5 is not a probability")]
    fn gen_bool_rejects_a_probability_above_one() {
        let _ = rng_for(7, "vectors").gen_bool(1.5);
    }
}

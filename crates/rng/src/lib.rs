//! A small, deterministic, dependency-free PRNG for the partitioner.
//!
//! The multilevel partitioner and the RHOP refiner only need cheap,
//! reproducible pseudo-randomness: tie-breaking visit orders, seeded
//! initial-partition tries, and fuzz-test input generation. This crate
//! provides an xoshiro256** generator seeded through splitmix64,
//! exposed through the same call shapes as the subset of `rand` the
//! workspace historically used (`SmallRng::seed_from_u64`,
//! `rng.gen_range(lo..hi)`, `slice.shuffle(&mut rng)`), so call sites
//! read identically while the build stays fully offline.
//!
//! Determinism is part of the contract: for a given seed the sequence
//! is stable across platforms and releases, which keeps partition
//! results and test expectations reproducible.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

/// Core trait: a source of uniformly distributed `u64`s plus the
/// derived sampling helpers the workspace uses.
pub trait Rng {
    /// Next raw 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from `range` (half-open, `lo..hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, matching `rand`'s behaviour. All
    /// in-tree call sites guard the range first.
    fn gen_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self.next_u64(), range)
    }

    /// A bernoulli sample: `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        // 53 random mantissa bits give a uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

/// Types samplable from a half-open range by [`Rng::gen_range`].
pub trait SampleRange: Copy {
    /// Maps 64 uniform bits into `range`.
    fn sample(bits: u64, range: std::ops::Range<Self>) -> Self;
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(bits: u64, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end - range.start) as u64;
                range.start + (bits % span) as $t
            }
        }
    )*};
}
impl_sample_uint!(u16, u32, u64, usize);

impl SampleRange for i64 {
    fn sample(bits: u64, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add((bits % span) as i64)
    }
}

/// Derives an independent child seed from a base seed and a stream
/// index, for handing each parallel task (a function, a restart, a
/// workload) its own deterministic RNG stream.
///
/// The derivation is two rounds of splitmix64 over a mix of `base` and
/// `stream`, so nearby stream indices produce statistically unrelated
/// sequences and `derive_seed(s, a) != derive_seed(s, b)` in practice
/// for `a != b`. The mapping is part of the determinism contract:
/// results produced from derived streams are identical regardless of
/// how many threads consume them.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut s = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = splitmix64(&mut s);
    splitmix64(&mut s)
}

/// Seeding constructor, mirroring `rand::SeedableRng` where only
/// `seed_from_u64` was ever used in this workspace.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// xoshiro256** — fast, tiny state, excellent statistical quality for
/// heuristic tie-breaking. Not cryptographic.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SmallRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }
}

impl Rng for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Slice helpers, mirroring the used subset of `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// Uniform Fisher–Yates shuffle.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

    /// A uniformly chosen element, or `None` on an empty slice.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[(rng.next_u64() % self.len() as u64) as usize])
        }
    }
}

/// Module aliases so `use mcpart_rng::rngs::SmallRng;` mirrors the
/// `rand::rngs::SmallRng` path shape at call sites.
pub mod rngs {
    pub use super::SmallRng;
}

/// See [`SliceRandom`]; path-compatible with `rand::seq`.
pub mod seq {
    pub use super::SliceRandom;
}

/// The used subset of `rand::prelude`.
pub mod prelude {
    pub use super::{Rng, SeedableRng, SliceRandom, SmallRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
        for _ in 0..100 {
            let v = rng.gen_range(3u16..4);
            assert_eq!(v, 3);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        // Stable across calls (part of the determinism contract).
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        // Distinct across streams and bases for small indices (the ones
        // the partitioner actually uses).
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for stream in 0..64u64 {
                assert!(seen.insert(derive_seed(base, stream)), "collision at {base}/{stream}");
            }
        }
        // A derived stream differs from the base stream.
        let mut base_rng = SmallRng::seed_from_u64(7);
        let mut child = SmallRng::seed_from_u64(derive_seed(7, 0));
        assert_ne!(base_rng.next_u64(), child.next_u64());
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = SmallRng::seed_from_u64(2);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let one = [42u8];
        assert_eq!(one.choose(&mut rng), Some(&42));
    }
}

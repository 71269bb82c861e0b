//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no cargo registry
//! cache, so the real `rand` cannot be fetched. This crate provides the
//! API subset the workspace actually uses — `RngCore`, `Rng::random`,
//! `Rng::random_range`, `SeedableRng`, and `rngs::StdRng` — backed by
//! xoshiro256++ seeded through SplitMix64. Streams are deterministic per
//! seed (a property the simulator's reproducibility tests rely on) but
//! are *not* bit-compatible with the real `rand` crate.

/// The core random-number-generator interface (object safe, so
/// `&mut dyn RngCore` works as a trait object).
pub trait RngCore {
    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can be sampled uniformly from an RNG's raw bits (the
/// stand-in for rand's `StandardUniform` distribution).
pub trait StandardSample {
    /// Draws one uniformly distributed value.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift bounds the modulo bias far below any
                // statistical tolerance used in this workspace.
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + draw as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let draw = ((rng.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
                start + draw as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::standard_sample(rng);
        let x = self.start + u * (self.end - self.start);
        // For `u` near 1 the sum can round up to the excluded end.
        if x < self.end {
            x
        } else {
            self.end.next_down()
        }
    }
}

/// Convenience sampling methods, available on every [`RngCore`]
/// (including `dyn RngCore` trait objects).
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard uniform distribution.
    fn random<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Creates an RNG deterministically from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;

    /// Creates an RNG from OS entropy. Offline stand-in: derives the seed
    /// from the system clock (good enough for non-cryptographic
    /// simulation defaults; everything in this workspace seeds
    /// explicitly).
    fn from_os_rng() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        Self::seed_from_u64(nanos)
    }
}

/// Named RNGs, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++ (Blackman–Vigna),
    /// seeded via SplitMix64 exactly as the reference implementation
    /// recommends. Passes BigCrush; period 2²⁵⁶ − 1.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng as _, RngCore as _, SeedableRng as _};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_sampling_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let i = rng.random_range(3usize..17);
            assert!((3..17).contains(&i));
            let f = rng.random_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    /// A draw of `u = 1 − 2⁻⁵³`, the largest `f64` below 1.
    struct LargestBelowOne;

    impl super::RngCore for LargestBelowOne {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(u8::MAX);
        }
    }

    #[test]
    fn f64_range_excludes_its_end_at_the_top_draw() {
        assert_eq!(LargestBelowOne.random::<f64>(), 1.0 - f64::EPSILON / 2.0);
        for (start, end) in [(0.5, 1.5), (5.506555923319262, 8.84958534673029)] {
            // `start + u·(end − start)` rounds to `end` itself here.
            let u = LargestBelowOne.random::<f64>();
            assert_eq!(start + u * (end - start), end, "the example no longer rounds up");
            assert_eq!(LargestBelowOne.random_range(start..end), end.next_down());
        }
    }

    #[test]
    fn works_through_dyn_trait_object() {
        let mut rng = StdRng::seed_from_u64(3);
        let dynamic: &mut dyn super::RngCore = &mut rng;
        let x = dynamic.random::<f64>();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}

//! Seeded, dependency-free randomness: the one copy of each generator,
//! mixer and hash in the workspace. [`SplitMix64`] defines every workload
//! stream and [`XorShift64Star`] every TAGE tie-break and fault site, so
//! neither may change. Every function is `#[inline]`: the workspace builds
//! without LTO, and the trace generator draws in its inner loop.

/// 2^64 / φ: the SplitMix64 increment.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output mixer (its finalizer): a bijection with
/// `mix(0) == 0`.
#[inline]
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a. Cache fingerprints and workload seeds depend on it.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seed of the sub-stream named `label`: `seed ^ fnv1a64(label)`.
#[inline]
#[must_use]
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    seed ^ fnv1a64(label.as_bytes())
}

/// SplitMix64. `new` adds one [`GOLDEN_GAMMA`] to the seed, so the first
/// draw mixes `seed + 2·GOLDEN_GAMMA`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for any seed, zero included.
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(GOLDEN_GAMMA))
    }

    /// Next 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        mix(self.0)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `next_u64() % n`; `below(0)` is 0 and draws nothing.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// xorshift64*: shifts 12/25/27, then a multiply.
#[derive(Debug, Clone)]
pub struct XorShift64Star(u64);

impl XorShift64Star {
    /// A generator for `seed`; zero, xorshift's fixed point, maps to
    /// [`GOLDEN_GAMMA`].
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64Star(if seed == 0 { GOLDEN_GAMMA } else { seed })
    }

    /// Next 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// `next_u64() % n`; `below(0)` is 0 and draws nothing.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeds of the known-answer tests: zero, small and all-ones.
    const SEEDS: [u64; 4] = [0, 1, 42, u64::MAX];

    fn first_three(mut next: impl FnMut() -> u64) -> [u64; 3] {
        [next(), next(), next()]
    }

    #[test]
    fn splitmix64_matches_its_known_answers() {
        let expected = [
            [0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec],
            [0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b],
            [0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394],
            [0xe99ff867dbf682c9, 0x382ff84cb27281e9, 0x6d1db36ccba982d2],
        ];
        for (seed, expected) in SEEDS.into_iter().zip(expected) {
            let mut rng = SplitMix64::new(seed);
            assert_eq!(first_three(|| rng.next_u64()), expected, "seed {seed:#x}");
        }
        let mut rng = SplitMix64::new(7);
        assert_eq!(rng.next_f64(), 0.016_788_294_528_156_11);
        assert_eq!(rng.below(1000), 346);
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.next_u64(), 0x953aeb70673e29cb, "below(0) drew nothing");
    }

    #[test]
    fn xorshift64star_matches_its_known_answers() {
        let expected = [
            [0x0d83b3e29a21487a, 0x54c44c79f1fe9d67, 0xa845f342007a0e78],
            [0x47e4ce4b896cdd1d, 0xabcfa6a8e079651d, 0xb9d10d8feb731f57],
            [0x56ce4ab7719ba3a0, 0xc841eb53ebbb2dda, 0xca466be0c9980276],
            [0xf92cc9e5c6000000, 0x8ff484d8fd1eaee3, 0x346c95f3326fabc6],
        ];
        for (seed, expected) in SEEDS.into_iter().zip(expected) {
            let mut rng = XorShift64Star::new(seed);
            assert_eq!(first_three(|| rng.next_u64()), expected, "seed {seed:#x}");
        }
        let mut gamma = XorShift64Star::new(GOLDEN_GAMMA);
        assert_eq!(
            first_three(|| gamma.next_u64()),
            expected[0],
            "zero maps to GOLDEN_GAMMA"
        );
        let mut rng = XorShift64Star::new(1);
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.next_u64(), expected[1][0], "below(0) drew nothing");
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn derive_seed_xors_the_label_hash_into_the_seed() {
        for seed in [0, 1, 7, u64::MAX] {
            for label in ["", "mcf", "serve.http.conn.stall"] {
                assert_eq!(derive_seed(seed, label), seed ^ fnv1a64(label.as_bytes()));
            }
        }
        assert_eq!(derive_seed(0, "mcf"), 0x0816_3b19_1773_1945);
    }

    #[test]
    fn mix_is_the_splitmix64_finalizer() {
        // The first output of a SplitMix64 whose state starts at zero.
        assert_eq!(mix(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(1u64.wrapping_add(GOLDEN_GAMMA)), 0x910a_2dec_8902_5cc1);
        assert_eq!(mix(0), 0);
    }
}

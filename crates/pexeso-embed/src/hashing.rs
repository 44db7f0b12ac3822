//! Deterministic 64-bit hashing used throughout the embedding substrate.
//!
//! We intentionally avoid `std::collections::hash_map::DefaultHasher`
//! because its output is not specified across Rust releases; embeddings must
//! be bit-stable so that persisted indexes remain valid.

/// FNV-1a 64-bit hash of a byte slice.
///
/// Small, fast, and good enough for feature hashing when finalised with
/// [`splitmix64`] to break up FNV's weak avalanche on short inputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// SplitMix64 finaliser: a strong 64-bit mixing function.
///
/// Used both to post-process FNV hashes and as a tiny seeded PRNG step when
/// deriving concept vectors.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Hash a string (with an extra domain-separation salt) to a well-mixed u64.
pub fn hash_str(s: &str, salt: u64) -> u64 {
    splitmix64(fnv1a64(s.as_bytes()) ^ salt)
}

/// A tiny deterministic generator of standard-normal-ish values derived from
/// a 64-bit state. Uses the sum-of-uniforms approximation (Irwin–Hall with
/// 4 terms, rescaled), which is plenty for generating random unit vectors.
#[derive(Debug, Clone)]
pub struct GaussianStream {
    state: u64,
}

impl GaussianStream {
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero state producing a low-entropy first draw.
        Self {
            state: splitmix64(seed ^ 0xa076_1d64_78bd_642f),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        splitmix64(self.state)
    }

    fn next_unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Approximately N(0, 1) distributed value.
    pub(crate) fn next_gaussian(&mut self) -> f32 {
        // Irwin–Hall with n = 4: sum of 4 uniforms has mean 2, var 1/3.
        let s: f64 = (0..4).map(|_| self.next_unit_f64()).sum();
        (((s - 2.0) * (3.0f64).sqrt()) as f32).clamp(-6.0, 6.0)
    }

    /// Fill `out` with an L2-normalised pseudo-random direction.
    pub fn fill_unit_vector(&mut self, out: &mut [f32]) {
        for x in out.iter_mut() {
            *x = self.next_gaussian();
        }
        crate::l2_normalize(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_strings() {
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_ne!(fnv1a64(b""), fnv1a64(b"a"));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: embeddings must be bit-stable across builds.
        assert_eq!(fnv1a64(b"pexeso"), 0x7576_fadb_a26e_0ee7);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(42);
        let b = splitmix64(43);
        let flipped = (a ^ b).count_ones();
        assert!(flipped > 16 && flipped < 48, "weak avalanche: {flipped}");
    }

    #[test]
    fn hash_str_salt_separates_domains() {
        assert_ne!(hash_str("x", 1), hash_str("x", 2));
    }

    #[test]
    fn gaussian_stream_statistics() {
        let mut g = GaussianStream::new(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| g.next_gaussian()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn unit_vector_is_unit() {
        let mut g = GaussianStream::new(3);
        let mut v = vec![0.0f32; 64];
        g.fill_unit_vector(&mut v);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gaussian_deterministic_for_seed() {
        let mut a = GaussianStream::new(99);
        let mut b = GaussianStream::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_gaussian(), b.next_gaussian());
        }
    }
}

//! Small internal utilities: a fast non-cryptographic hasher for the
//! integer-keyed maps of the search path (quick browsing's candidate
//! seeds, keyed by query vector).
//!
//! The standard library's SipHash costs more than the work such a map
//! guards. This FxHash-style multiply-xor hasher is not HashDoS-resistant,
//! which is fine: keys are our own ids, not attacker input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (FxHash-style) for integer-keyed maps.
#[derive(Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// HashMap with the fast hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes_mostly() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u128 {
            let mut h = FastHasher::default();
            h.write_u128(i * 0x1_0001_0001);
            seen.insert(h.finish());
        }
        assert!(seen.len() > 9_990, "too many collisions: {}", seen.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u128, u32> = FastMap::default();
        for i in 0..1000u128 {
            m.insert(i << 64 | i, i as u32);
        }
        for i in 0..1000u128 {
            assert_eq!(m.get(&(i << 64 | i)), Some(&(i as u32)));
        }
    }

    #[test]
    fn byte_writes_consistent() {
        let mut a = FastHasher::default();
        a.write(b"hello world, this is a test");
        let mut b = FastHasher::default();
        b.write(b"hello world, this is a test");
        assert_eq!(a.finish(), b.finish());
    }
}

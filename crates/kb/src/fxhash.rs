//! A minimal FxHash-style hasher.
//!
//! PARIS spends most of its time probing integer-keyed hash maps (entity and
//! relation ids). SipHash — the standard library default — is needlessly slow
//! for that workload; the Firefox/rustc "Fx" multiply-rotate hash is the
//! conventional replacement. We inline the ~40-line algorithm here rather
//! than pulling an extra dependency: the workspace builds on std alone.

use std::hash::{BuildHasherDefault, Hasher};

/// Seed from the golden ratio, as in rustc's `FxHasher`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; not DoS-resistant, which is fine for ids we
/// assign ourselves.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes() {
        // Sanity, not cryptography: consecutive ids should not collide.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            assert!(seen.insert(h.finish()), "collision at {i}");
        }
    }

    #[test]
    fn string_hashing_is_deterministic() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash("abc"), hash("abc"));
        assert_ne!(hash("abc"), hash("abd"));
        assert_ne!(hash("abc"), hash("abc\0"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m[&1], "one");
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }
}

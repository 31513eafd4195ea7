//! A fast FxHash-style hasher for hot-path hash maps.
//!
//! The inverted index performs one hash-map probe per posting-list lookup;
//! SipHash (std's default) dominates profiles there. This is the rustc /
//! Firefox "Fx" multiply-rotate hash — low quality but extremely fast, and
//! HashDoS is not a concern for an offline index. Implemented locally to
//! stay within the allowed dependency set (see DESIGN.md).

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
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

    /// The multiply leaves the product's low bits a function of the
    /// input's low bits alone, i.e. of a string's first bytes, yet hash
    /// tables slot on exactly those bits. Rotating the well-mixed high bits
    /// down (rustc-hash 2's finalizer) keeps keys that differ only at the
    /// end, like `key1`, `key2`, ..., out of one probe cluster.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with Fx hashing.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with Fx hashing.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of("hello"), hash_of("hello"));
        assert_eq!(hash_of(42u64), hash_of(42u64));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of("hello"), hash_of("hellp"));
        assert_ne!(hash_of(1u32), hash_of(2u32));
    }

    #[test]
    fn map_and_set_usable() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m["a"], 1);

        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn uneven_byte_lengths() {
        // Exercise the chunk remainder path.
        let mut seen = std::collections::HashSet::new();
        for len in 0..20 {
            let v: Vec<u8> = (0..len).collect();
            assert!(seen.insert(hash_of(&v[..])));
        }
    }
}

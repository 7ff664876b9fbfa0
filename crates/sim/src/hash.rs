//! A fixed-key, word-at-a-time hasher for the simulator's hot maps.
//!
//! `std`'s default `RandomState` (SipHash-1-3 with a per-process random
//! key) guards against hash flooding, which a closed, deterministic
//! simulation never faces — and it costs a keyed permutation per
//! lookup. [`FxHasher`] folds each input word with one rotate, one xor
//! and one multiply (the multiply-rotate scheme used by the Rust
//! compiler's own maps). Its key is fixed, so iteration order of a
//! [`FxHashMap`] is the same on every run; code must still not let that
//! order leak into simulated outcomes.
//!
//! [`FxHasher`] also drives the cluster's delivery digests: a digest
//! built with it is order-sensitive and only ever compared for
//! equality, never against a committed value.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: 2^64 divided by the golden ratio, rounded to odd.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher over 64-bit words (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher whose running state starts at `seed`.
    pub fn with_seed(seed: u64) -> Self {
        FxHasher { hash: seed }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            // The tail length rides in the top byte, so trailing zero
            // bytes still change the hash.
            self.add(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, fixed key).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`]. Build with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`]. Build with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn fixed_key_is_stable_across_builders() {
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
        assert_ne!(hash_of(&(3u32, 7u64)), hash_of(&(7u32, 3u64)));
    }

    #[test]
    fn trailing_zero_bytes_change_the_hash() {
        let digest = |b: &[u8]| {
            let mut h = FxHasher::with_seed(1);
            h.write(b);
            h.finish()
        };
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 3, 0]));
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[0; 8]), digest(&[0; 9]));
    }

    #[test]
    fn maps_work_with_the_fixed_key() {
        let mut m: FxHashMap<(u32, u64), &str> = FxHashMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m.get(&(1, 2)), Some(&"a"));
        assert_eq!(m.remove(&(2, 1)), Some("b"));
        let s: FxHashSet<u64> = (0..100).collect();
        assert_eq!(s.len(), 100);
    }
}

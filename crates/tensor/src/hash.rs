//! A fast, deterministic hasher for the memo maps on the mapping search's
//! and the session's hot paths.
//!
//! [`FxHasher`] is the multiply-rotate mix of the Rust compiler's
//! `rustc-hash` (Firefox's hash): each machine word `w` of a key updates
//! the state as `h = (h.rotate_left(5) ^ w) * 0x517c_c1b7_2722_0a95`.
//! A lookup keyed by a few small integers then costs a handful of
//! instructions, where std's SipHash runs its rounds over every byte.
//!
//! SipHash's keyed seed defends a map against keys crafted to collide.
//! That defence guards nothing where these maps are used: every key is
//! built by the program itself from the layer shapes it was asked to
//! schedule and its own candidate tiles, loop orders and cluster
//! budgets, and no map outlives one search's candidates or one
//! session's layers, so colliding keys could only slow the caller's own
//! session, as more layers would. Keep std's hasher for any map whose
//! keys are read from outside the program, such as a report or a trace.
//!
//! The hash has no random seed, so a map built by the same inserts
//! iterates in the same order in every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the `rustc-hash` mix.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The `rustc-hash` word hasher (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Mixes `bytes` in little-endian 8-byte words, the last one padded
    /// with zeros.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`HashMap`] hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`HashSet`] hashed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// A map keyed by owned chains answers lookups by slice, as the
    /// chain-summary index does.
    #[test]
    fn vec_keys_answer_slice_lookups() {
        let mut map: FxHashMap<Vec<usize>, usize> = FxHashMap::default();
        map.insert(vec![7, 4, 1], 0);
        map.insert(vec![7, 4], 1);
        map.insert(vec![], 2);
        assert_eq!(map.get(&[7, 4, 1][..]), Some(&0));
        assert_eq!(map.get(&[7, 4][..]), Some(&1));
        assert_eq!(map.get(&[][..]), Some(&2));
        assert_eq!(map.get(&[4, 7][..]), None);
    }

    /// The hash has no per-builder seed: one key hashes the same through
    /// two fresh builders, so map order repeats from run to run.
    #[test]
    fn fresh_builders_agree() {
        let key = (vec![3usize, 1, 4], 1u16, "chain");
        let (a, b) = (
            BuildHasherDefault::<FxHasher>::default(),
            BuildHasherDefault::<FxHasher>::default(),
        );
        assert_eq!(a.hash_one(&key), b.hash_one(&key));
        assert_ne!(a.hash_one(&key), FxHasher::default().finish());
    }
}

//! The id hasher: what every `Value`-keyed hash table on the query path
//! hashes with.
//!
//! A [`Value`](crate::Value) hashes as a tag and one `u64` — a term id, an
//! integer, or float bits — so SipHash's resistance to chosen text buys
//! nothing there and costs a keyed permutation per cell. [`IdHasher`] is an
//! Fx-style hasher instead: each word is added to the state, which is then
//! multiplied by an odd constant. A product mixes upward only, so
//! [`finish`](std::hash::Hasher::finish) folds the high bits into the low
//! ones, where a table takes its bucket index: keys that differ only above
//! bit 32 (`k << 32`, millisecond timestamps aligned to 1 024) would
//! otherwise share buckets, and a join over them would turn quadratic.
//!
//! Maps keyed by text from outside the program (the
//! [`TermDict`](crate::TermDict), maps keyed by `rdf::Term`) keep std's
//! SipHash: this hasher is only as good as its input is benign. Term ids
//! are the dictionary's to assign, but an integer key can come from an
//! inserted row, and the multiplier is fixed: a writer who knows it can
//! choose keys that collide. The engine takes that trade for a probe that
//! costs one multiply.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: odd, and picked so that dense ids, strided timestamps
/// and keys shifted past bit 32 all spread over the low bits.
const K: u64 = 0xd1b1_cd7d_a21e_9455;

/// An Fx-style add–multiply hasher over `u64` words (see the module docs).
#[derive(Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.hash = self.hash.wrapping_add(i).wrapping_mul(K);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    /// The product's bits in reverse, so that a table of any size indexes
    /// by the best-mixed high bits; the top 7 bits, which std's table
    /// compares as a tag, also take the product's own top bits.
    fn finish(&self) -> u64 {
        const TAG: u64 = !(u64::MAX >> 7);
        self.hash.reverse_bits() ^ (self.hash & TAG)
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn finish_of(word: u64) -> u64 {
        let mut h = IdHasher::default();
        h.write_u64(word);
        h.finish()
    }

    /// Dense ids, millisecond strides and keys that differ only above bit
    /// 40 each land in nearly as many of 1 024 buckets as there are keys.
    #[test]
    fn low_bits_spread_keys_that_differ_high_or_by_strides() {
        for (family, key) in [
            ("i << 40", (|i| i << 40) as fn(u64) -> u64),
            ("i * 1000", |i| i * 1000),
            ("i", |i| i),
        ] {
            let buckets: IdSet<u64> = (0..1024).map(|i| finish_of(key(i)) & 1023).collect();
            assert!(buckets.len() >= 900, "{family}: {} buckets", buckets.len());
        }
    }

    /// A `Value` reaches the hasher as a tag and one word, so equal values
    /// of different variants (`Int(3)`, `Float(3.0)`) hash alike.
    #[test]
    fn values_hash_as_a_tag_and_a_word() {
        let hash = |v: &crate::Value| {
            let mut h = IdHasher::default();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&crate::Value::Int(3)), hash(&crate::Value::Float(3.0)));
        assert_ne!(hash(&crate::Value::Int(3)), hash(&crate::Value::Int(4)));
        let mut ints: IdSet<crate::Value> = (0..100).map(crate::Value::Int).collect();
        assert!(ints.insert(crate::Value::Timestamp(100)));
        assert!(!ints.insert(crate::Value::Float(5.0)));
    }
}

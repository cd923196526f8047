//! Relation-to-stream operators of CQL: `IStream`, `DStream`, `RStream`.
//!
//! CQL queries compute, at every tick, a relation from the current window
//! contents; these operators turn the tick-indexed sequence of relations
//! back into a stream: `RStream` emits each whole relation (so it needs no
//! operator here), `IStream` emits insertions w.r.t. the previous tick,
//! `DStream` emits deletions.
//!
//! The operators are generic over the tuple type: the relational layer
//! diffs `Vec<Value>` rows (the default), while the STARQL engine diffs the
//! RDF triples a tick constructs — one differ per registered query turns
//! its per-tick graph sequence into a delta stream.

use std::collections::BTreeMap;

use optique_relational::Value;

/// Multiset difference `a − b` over tuples.
fn multiset_diff<T: Ord + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let mut counts: BTreeMap<&T, isize> = BTreeMap::new();
    for row in b {
        *counts.entry(row).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for row in a {
        let slot = counts.entry(row).or_insert(0);
        if *slot > 0 {
            *slot -= 1;
        } else {
            out.push(row.clone());
        }
    }
    out
}

/// `IStream`: tuples present now but not at the previous tick (multiset).
pub fn istream<T: Ord + Clone>(previous: &[T], current: &[T]) -> Vec<T> {
    multiset_diff(current, previous)
}

/// `DStream`: tuples present at the previous tick but not now (multiset).
pub fn dstream<T: Ord + Clone>(previous: &[T], current: &[T]) -> Vec<T> {
    multiset_diff(previous, current)
}

/// Stateful wrapper that tracks the previous tick for repeated application.
#[derive(Debug, Clone)]
pub struct StreamDiffer<T = Vec<Value>> {
    previous: Vec<T>,
}

impl<T> Default for StreamDiffer<T> {
    fn default() -> Self {
        StreamDiffer {
            previous: Vec::new(),
        }
    }
}

impl<T: Ord + Clone> StreamDiffer<T> {
    /// Fresh differ with an empty previous relation.
    pub fn new() -> Self {
        StreamDiffer::default()
    }

    /// Advances one tick, returning `(inserted, deleted)`.
    pub fn tick(&mut self, current: Vec<T>) -> (Vec<T>, Vec<T>) {
        let ins = istream(&self.previous, &current);
        let del = dstream(&self.previous, &current);
        self.previous = current;
        (ins, del)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[i64]) -> Vec<Vec<Value>> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    #[test]
    fn istream_emits_new_rows() {
        assert_eq!(istream(&r(&[1, 2]), &r(&[2, 3])), r(&[3]));
    }

    #[test]
    fn dstream_emits_dropped_rows() {
        assert_eq!(dstream(&r(&[1, 2]), &r(&[2, 3])), r(&[1]));
    }

    #[test]
    fn multiset_semantics() {
        // Two copies now, one before → one insertion.
        assert_eq!(istream(&r(&[5]), &r(&[5, 5])), r(&[5]));
        // One copy now, two before → one deletion.
        assert_eq!(dstream(&r(&[5, 5]), &r(&[5])), r(&[5]));
    }

    #[test]
    fn differ_tracks_state() {
        let mut d = StreamDiffer::new();
        let (ins, del) = d.tick(r(&[1]));
        assert_eq!((ins, del), (r(&[1]), vec![]));
        let (ins, del) = d.tick(r(&[1, 2]));
        assert_eq!((ins, del), (r(&[2]), vec![]));
        let (ins, del) = d.tick(r(&[2]));
        assert_eq!((ins, del), (vec![], r(&[1])));
    }

    #[test]
    fn empty_relations() {
        assert!(istream(&r(&[]), &r(&[])).is_empty());
        assert!(dstream(&r(&[]), &r(&[])).is_empty());
    }

    #[test]
    fn differ_is_generic_over_tuple_type() {
        // The STARQL engine diffs plain strings-of-triples shapes; any Ord
        // tuple works.
        let mut d: StreamDiffer<&'static str> = StreamDiffer::new();
        assert_eq!(d.tick(vec!["a", "b"]), (vec!["a", "b"], vec![]));
        assert_eq!(d.tick(vec!["b", "c"]), (vec!["c"], vec!["a"]));
    }
}

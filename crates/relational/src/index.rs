//! Secondary indexes: hash (point lookups) and B-tree (range scans).
//!
//! [`Database`](crate::Database) builds and keeps them on request, one per
//! `(table, column)`.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::value::Value;

/// A hash index from column value to row ids.
#[derive(Clone, Debug, Default)]
pub struct HashIndex {
    map: HashMap<Value, Vec<usize>>,
    column: usize,
}

impl HashIndex {
    /// Builds over `rows`, keyed by column `column`. NULL keys are skipped —
    /// SQL equality never matches NULL.
    pub fn build(rows: &[Vec<Value>], column: usize) -> Self {
        let mut map: HashMap<Value, Vec<usize>> = HashMap::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let key = &row[column];
            if key.is_null() {
                continue;
            }
            map.entry(key.clone()).or_default().push(i);
        }
        HashIndex { map, column }
    }

    /// Row ids whose key equals `key`.
    pub fn lookup(&self, key: &Value) -> &[usize] {
        if key.is_null() {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The indexed column position.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// A B-tree index supporting point and range lookups.
#[derive(Clone, Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<usize>>,
    column: usize,
}

impl BTreeIndex {
    /// Builds over `rows`, keyed by column `column`. NULL keys are skipped.
    pub fn build(rows: &[Vec<Value>], column: usize) -> Self {
        let mut map: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            let key = &row[column];
            if key.is_null() {
                continue;
            }
            map.entry(key.clone()).or_default().push(i);
        }
        BTreeIndex { map, column }
    }

    /// Row ids whose key equals `key`.
    pub fn lookup(&self, key: &Value) -> &[usize] {
        if key.is_null() {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row ids with keys in `[low, high]`; either bound may be absent.
    pub fn range(&self, low: Option<&Value>, high: Option<&Value>) -> Vec<usize> {
        let lower = match low {
            Some(v) => Bound::Included(v.clone()),
            None => Bound::Unbounded,
        };
        let upper = match high {
            Some(v) => Bound::Included(v.clone()),
            None => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for ids in self.map.range((lower, upper)).map(|(_, ids)| ids) {
            out.extend_from_slice(ids);
        }
        out
    }

    /// The indexed column position.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Smallest and largest key, when non-empty.
    pub fn key_bounds(&self) -> Option<(&Value, &Value)> {
        let first = self.map.keys().next()?;
        let last = self.map.keys().next_back()?;
        Some((first, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(10), Value::text("a")],
            vec![Value::Int(20), Value::text("b")],
            vec![Value::Int(10), Value::text("c")],
            vec![Value::Null, Value::text("d")],
        ]
    }

    #[test]
    fn hash_lookup_groups_duplicates() {
        let idx = HashIndex::build(&rows(), 0);
        assert_eq!(idx.lookup(&Value::Int(10)), &[0, 2]);
        assert_eq!(idx.lookup(&Value::Int(99)), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 2, "NULL key skipped");
    }

    #[test]
    fn null_never_matches() {
        let idx = HashIndex::build(&rows(), 0);
        assert!(idx.lookup(&Value::Null).is_empty());
        let bidx = BTreeIndex::build(&rows(), 0);
        assert!(bidx.lookup(&Value::Null).is_empty());
    }

    #[test]
    fn btree_range_inclusive() {
        let idx = BTreeIndex::build(&rows(), 0);
        assert_eq!(
            idx.range(Some(&Value::Int(10)), Some(&Value::Int(15))),
            vec![0, 2]
        );
        assert_eq!(
            idx.range(Some(&Value::Int(10)), Some(&Value::Int(20)))
                .len(),
            3
        );
        assert_eq!(idx.range(None, None).len(), 3);
        assert_eq!(idx.range(Some(&Value::Int(21)), None).len(), 0);
    }

    #[test]
    fn btree_bounds() {
        let idx = BTreeIndex::build(&rows(), 0);
        let (lo, hi) = idx.key_bounds().unwrap();
        assert_eq!(lo, &Value::Int(10));
        assert_eq!(hi, &Value::Int(20));
    }

    #[test]
    fn cross_type_numeric_keys_unify() {
        let rows = vec![vec![Value::Int(5)], vec![Value::Float(5.0)]];
        let idx = HashIndex::build(&rows, 0);
        assert_eq!(idx.lookup(&Value::Float(5.0)).len(), 2);
    }
}

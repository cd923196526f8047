//! A bounded cache of prepared fragment statements keyed by wire text.
//!
//! The gateway no longer keeps one per worker — fragments cross the worker
//! boundary typed, so there is nothing to re-parse — and nothing in the
//! product calls this. It stays because the frozen benchmark's staged
//! replay links it to price the text path (decode + parse per miss);
//! delete it with the next `benchmark` PR.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use optique_relational::{PlanFragment, SelectStatement, SqlError};
use parking_lot::Mutex;

/// How many prepared statements the cache retains.
const PLAN_CACHE_CAPACITY: usize = 256;

/// Prepared fragment statements keyed by the fragment's wire text (which
/// fully determines the parsed, sliced, restricted statement). FIFO
/// eviction.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<PlanEntries>,
}

#[derive(Default)]
struct PlanEntries {
    map: HashMap<String, Arc<SelectStatement>>,
    order: VecDeque<String>,
}

impl PlanCache {
    /// The prepared statement for `wire`, decoding and parsing (and
    /// memoizing) on first sight. The flag reports whether this call hit
    /// the cache.
    pub fn get_or_prepare(&self, wire: &str) -> Result<(Arc<SelectStatement>, bool), SqlError> {
        if let Some(hit) = self.inner.lock().map.get(wire) {
            return Ok((Arc::clone(hit), true));
        }
        let statement = Arc::new(PlanFragment::decode(wire)?.statement()?);
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.map.get(wire) {
            // A racing thread prepared it first; share that one (this call
            // still parsed, so it reports the miss it was).
            return Ok((Arc::clone(existing), false));
        }
        if inner.map.len() >= PLAN_CACHE_CAPACITY {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
            }
        }
        inner.order.push_back(wire.to_string());
        inner.map.insert(wire.to_string(), Arc::clone(&statement));
        Ok((statement, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The surface the benchmark links: a first sight decodes and parses,
    /// a repeat is a hit on the same statement, and the oldest entry goes
    /// once the cache is full.
    #[test]
    fn prepares_once_and_evicts_fifo() {
        let cache = PlanCache::default();
        let wire = |i: usize| PlanFragment::new(0, format!("SELECT a FROM t{i}"), 1.0).encode();
        let (first, hit) = cache.get_or_prepare(&wire(0)).unwrap();
        assert!(!hit);
        let (again, hit) = cache.get_or_prepare(&wire(0)).unwrap();
        assert!(hit && Arc::ptr_eq(&first, &again));
        for i in 1..=PLAN_CACHE_CAPACITY {
            cache.get_or_prepare(&wire(i)).unwrap();
        }
        assert!(!cache.get_or_prepare(&wire(0)).unwrap().1, "evicted");
        assert!(cache.get_or_prepare("nonsense").is_err());
    }
}

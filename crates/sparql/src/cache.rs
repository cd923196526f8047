//! Per-BGP result caching for the static pipeline.
//!
//! Unfolding is the expensive half of static query answering: one basic
//! graph pattern fans out into a `UNION ALL` over every mapping combination
//! (Hovland et al.'s OBDA-constraints work measures exactly this
//! redundancy). The *same* BGP routinely recurs — across `OPTIONAL`/`UNION`
//! branches of one query, and across queries, since dashboards re-ask the
//! same patterns. The [`BgpCache`] memoizes the *solution set* of a BGP
//! (post-rewrite, post-unfold, post-execution, post-dedup), so a repeat
//! skips the whole rewrite → unfold → SQL pipeline.
//!
//! **Validity is decided by versions.** Every entry is stamped with the
//! write version (from the storing reader's snapshot, [`TableVersions`])
//! of each base table its unfolded SQL read, and answers exactly the
//! readers whose snapshots carry the same versions for those tables
//! ([`BgpCache::lookup_any_versioned`]) — a write to `turbines` leaves
//! cached sensor BGPs warm, and a novelty merge, which changes no table's
//! contents, hides nothing. That is the only rule: every statement the
//! pipeline runs names its tables (FROM reads tables and subqueries, never
//! a function), so every entry knows what it read. *Eviction* is separate
//! and only hygiene: a write calls [`BgpCache::invalidate_table`] to free
//! the entries no post-write reader can match any more, and
//! [`BgpCache::invalidate`] clears everything.
//! Hit/miss/invalidation counters feed the platform dashboard.
//!
//! **Concurrency contract.** A reader captures its [`TableVersions`]
//! *together with* its database snapshot (the platform bundles both in one
//! atomically-swapped `PlatformSnapshot`) and uses them for every lookup
//! and store of the request. No gate between writers and in-flight
//! readers is needed beyond that: a table's version only ever grows, and
//! it grows on every write that changes the table, so equal versions ⇒
//! equal contents. An entry computed over a pre-write snapshot is stamped
//! pre-write and can only ever answer readers still pinning those versions
//! — storing it *after* the write landed is harmless, because no
//! post-write reader matches it; symmetrically a pre-write reader never
//! matches an entry stamped post-write.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use optique_rewrite::Atom;

use crate::eval::SolutionSet;

/// How many BGP solution sets the cache retains (FIFO eviction).
const CAPACITY: usize = 256;

/// A shared, thread-safe cache of BGP solution sets.
#[derive(Default)]
pub struct BgpCache {
    inner: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// Monotonic per-table write versions, kept alongside the database snapshot
/// they describe. A write bumps the written table's version: a cache entry
/// answers a reader exactly when the reader's snapshot carries the same
/// versions for every table the entry read
/// ([`BgpCache::lookup_any_versioned`]). A merge folds overlay rows
/// into the base without changing what any table contains, so it bumps
/// *nothing* — entries stay warm across merges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableVersions {
    tables: HashMap<String, u64>,
}

impl TableVersions {
    /// All-zero versions (a fresh deployment).
    pub fn new() -> Self {
        TableVersions::default()
    }

    /// The version of `table` (0 until its first write).
    pub fn of(&self, table: &str) -> u64 {
        self.tables.get(table).copied().unwrap_or(0)
    }

    /// These versions after one write to `table`.
    pub fn bumped(&self, table: &str) -> TableVersions {
        let mut next = self.clone();
        *next.tables.entry(table.to_string()).or_insert(0) += 1;
        next
    }
}

struct Entry {
    solutions: SolutionSet,
    /// The `(table, version)` pairs of the base tables the entry's unfolded
    /// SQL read, at store time.
    deps: Vec<(String, u64)>,
}

#[derive(Default)]
struct Entries {
    map: HashMap<String, Entry>,
    order: VecDeque<String>,
}

impl BgpCache {
    /// An empty cache.
    pub fn new() -> Self {
        BgpCache::default()
    }

    /// The canonical cache key of a BGP: its exact atom sequence. (Atom
    /// order determines the solution set's variable order, so two textual
    /// permutations of one BGP cache separately — a correctness choice, not
    /// a limitation.)
    pub fn key(atoms: &[Atom]) -> String {
        format!("{atoms:?}")
    }

    /// The cache key of a BGP executed under a semi-join restriction: the
    /// restricted solution set is a *subset* of the plain BGP's, so it must
    /// never serve a plain lookup — the restriction fingerprint keeps the
    /// entries apart.
    pub fn restricted_key(atoms: &[Atom], fingerprint: &str) -> String {
        format!("{atoms:?}⋉{fingerprint}")
    }

    /// Stores a BGP's solutions stamped with the versions (from the
    /// reader's snapshot) of every table the unfolded SQL read (`tables`).
    /// Evicts the oldest entry when full.
    /// The stamp is the validity proof: a write that landed since the
    /// snapshot was taken bumped some dependency's version, so the entry
    /// simply never matches newer readers.
    pub fn store_versioned(
        &self,
        key: String,
        solutions: SolutionSet,
        versions: &TableVersions,
        tables: BTreeSet<String>,
    ) {
        let entry = Entry {
            solutions,
            deps: tables
                .into_iter()
                .map(|t| {
                    let version = versions.of(&t);
                    (t, version)
                })
                .collect(),
        };
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(existing) = inner.map.get_mut(&key) {
            *existing = entry;
            return;
        }
        if inner.map.len() >= CAPACITY {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
            }
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, entry);
    }

    /// Looks up the first of `keys` whose entry was stored at exactly the
    /// versions the reader's snapshot carries — one *logical* lookup:
    /// exactly one hit (any key answers) or one miss (none) is counted,
    /// however many keys are probed. The pipeline uses this to prefer a
    /// restriction-exact entry while still accepting the unrestricted
    /// superset, without double-counting. An entry matches when every
    /// dependency's version agrees.
    pub fn lookup_any_versioned(
        &self,
        keys: &[&str],
        versions: &TableVersions,
    ) -> Option<SolutionSet> {
        let inner = self.inner.lock().expect("cache lock");
        for key in keys {
            let Some(entry) = inner.map.get(*key) else {
                continue;
            };
            if entry.deps.iter().all(|(t, v)| versions.of(t) == *v) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.solutions.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Drops every entry, returning how many were evicted.
    pub fn invalidate(&self) -> usize {
        let mut inner = self.inner.lock().expect("cache lock");
        let evicted = inner.map.len();
        inner.map.clear();
        inner.order.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        evicted
    }

    /// Evicts the entries that depend on `table` (read it in their
    /// unfolded SQL) — the ones a write to `table` has just made
    /// unmatchable for post-write readers;
    /// independent entries stay. Counts one invalidation and returns how
    /// many entries were evicted.
    pub fn invalidate_table(&self, table: &str) -> usize {
        let mut guard = self.inner.lock().expect("cache lock");
        let inner = &mut *guard;
        let before = inner.map.len();
        inner
            .map
            .retain(|_, entry| entry.deps.iter().all(|(t, _)| t != table));
        let map = &inner.map;
        inner.order.retain(|k| map.contains_key(k));
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        before - inner.map.len()
    }

    /// Cumulative cache hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative cache misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Times the cache has been invalidated.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit rate in `[0, 1]`, `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }
}

impl std::fmt::Debug for BgpCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BgpCache({} entries, {} hits, {} misses)",
            self.len(),
            self.hits(),
            self.misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_rdf::Term;

    fn solutions(n: i64) -> SolutionSet {
        SolutionSet {
            vars: vec!["x".into()],
            rows: (0..n)
                .map(|i| vec![Some(Term::iri(format!("http://x/{i}")))])
                .collect(),
        }
    }

    fn deps(tables: &[&str]) -> BTreeSet<String> {
        tables.iter().map(|t| t.to_string()).collect()
    }

    /// Stores `n` solutions under `key`, stamped at `versions` over `deps`.
    fn store(
        cache: &BgpCache,
        key: &str,
        n: i64,
        versions: &TableVersions,
        deps: BTreeSet<String>,
    ) {
        cache.store_versioned(key.into(), solutions(n), versions, deps);
    }

    fn lookup(cache: &BgpCache, key: &str, versions: &TableVersions) -> Option<SolutionSet> {
        cache.lookup_any_versioned(&[key], versions)
    }

    #[test]
    fn miss_then_hit() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        assert!(lookup(&cache, "k", &v0).is_none());
        store(&cache, "k", 3, &v0, deps(&["t"]));
        assert_eq!(lookup(&cache, "k", &v0).unwrap().len(), 3);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hit_rate(), Some(0.5));
    }

    #[test]
    fn invalidate_clears_and_counts() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        store(&cache, "a", 1, &v0, deps(&["t"]));
        store(&cache, "b", 2, &v0, deps(&[]));
        assert_eq!(cache.invalidate(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations(), 1);
        assert!(lookup(&cache, "a", &v0).is_none());
        // A clear gates nothing: the stamp, not the clear, proves validity.
        store(&cache, "a", 1, &v0, deps(&["t"]));
        assert!(lookup(&cache, "a", &v0).is_some());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        for i in 0..CAPACITY + 1 {
            store(&cache, &format!("k{i}"), 1, &v0, deps(&["t"]));
        }
        assert_eq!(cache.len(), CAPACITY);
        assert!(lookup(&cache, "k0", &v0).is_none(), "oldest entry evicted");
        assert!(lookup(&cache, "k1", &v0).is_some());
        assert!(lookup(&cache, &format!("k{CAPACITY}"), &v0).is_some());
    }

    #[test]
    fn restore_overwrites_in_place() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        store(&cache, "k", 1, &v0, deps(&["t"]));
        store(&cache, "k", 5, &v0, deps(&["t"]));
        assert_eq!(cache.len(), 1);
        assert_eq!(lookup(&cache, "k", &v0).unwrap().len(), 5);
    }

    #[test]
    fn lookup_any_counts_once() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        store(&cache, "plain", 3, &v0, deps(&["t"]));
        // Fallback hit: restricted key absent, plain present → one hit.
        let hit = cache.lookup_any_versioned(&["restricted", "plain"], &v0);
        assert_eq!(hit.unwrap().len(), 3);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        // Full miss over two keys still counts one miss…
        assert!(cache.lookup_any_versioned(&["a", "b"], &v0).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // …and so do two present-but-outdated entries.
        store(&cache, "restricted", 1, &v0, deps(&["t"]));
        let v1 = v0.bumped("t");
        assert!(cache
            .lookup_any_versioned(&["restricted", "plain"], &v1)
            .is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn restricted_keys_never_collide_with_plain() {
        let plain = BgpCache::key(&[]);
        let restricted = BgpCache::restricted_key(&[], "fp");
        assert_ne!(plain, restricted);
        assert_ne!(
            BgpCache::restricted_key(&[], "a"),
            BgpCache::restricted_key(&[], "b")
        );
    }

    /// A write to one table evicts only the entries that read it; entries
    /// over other tables, or over none, stay warm.
    #[test]
    fn table_invalidation_evicts_only_dependents() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        store(&cache, "sensors", 1, &v0, deps(&["sensors"]));
        store(&cache, "joined", 2, &v0, deps(&["sensors", "turbines"]));
        store(&cache, "turbines", 3, &v0, deps(&["turbines"]));
        store(&cache, "unmapped", 4, &v0, deps(&[]));

        let evicted = cache.invalidate_table("sensors");
        assert_eq!(evicted, 2, "sensors and joined go");
        assert_eq!(cache.len(), 2);
        let v1 = v0.bumped("sensors");
        assert!(
            lookup(&cache, "turbines", &v1).is_some(),
            "independent entry warm"
        );
        assert!(lookup(&cache, "unmapped", &v1).is_some());
        assert!(lookup(&cache, "sensors", &v1).is_none());
        assert!(lookup(&cache, "joined", &v1).is_none());
        assert_eq!(cache.invalidations(), 1);
    }

    /// An in-flight computation that pinned its snapshot before a write
    /// may store *after* the write's eviction ran. The entry lands, but it
    /// is stamped pre-write: no post-write reader is ever answered by it,
    /// while readers still pinning the pre-write snapshot validly are. A
    /// pre-write store over an unrelated table stays good for everyone.
    #[test]
    fn table_invalidation_rejects_in_flight_stores() {
        let cache = BgpCache::new();
        let pre = TableVersions::new();
        let post = pre.bumped("sensors");
        cache.invalidate_table("sensors");
        store(&cache, "sensors", 1, &pre, deps(&["sensors"]));
        store(&cache, "turbines", 1, &pre, deps(&["turbines"]));
        assert!(lookup(&cache, "sensors", &post).is_none());
        assert!(lookup(&cache, "sensors", &pre).is_some());
        assert!(lookup(&cache, "turbines", &post).is_some());
    }

    /// Eviction keeps the FIFO order coherent: surviving entries still
    /// evict oldest-first once capacity refills.
    #[test]
    fn table_invalidation_preserves_fifo_order() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        store(&cache, "a", 1, &v0, deps(&["t_a"]));
        store(&cache, "b", 1, &v0, deps(&["t_b"]));
        cache.invalidate_table("t_a");
        for i in 0..CAPACITY - 1 {
            store(&cache, &format!("k{i}"), 1, &v0, deps(&["t"]));
        }
        assert_eq!(cache.len(), CAPACITY);
        store(&cache, "one-more", 1, &v0, deps(&["t"]));
        assert!(
            lookup(&cache, "b", &v0).is_none(),
            "oldest survivor evicts first"
        );
        assert!(lookup(&cache, "k0", &v0).is_some());
    }

    /// An entry answers exactly the readers whose snapshots carry the
    /// versions it was stamped with — writes to a dependency hide it from
    /// newer readers, writes elsewhere don't.
    #[test]
    fn versioned_lookup_matches_on_dependency_versions() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        store(&cache, "sensors", 2, &v0, deps(&["sensors"]));

        assert!(lookup(&cache, "sensors", &v0).is_some());
        // A write to an unrelated table leaves the entry answering both the
        // old and the new snapshot (its dependency's version is unchanged).
        let v1 = v0.bumped("turbines");
        assert!(lookup(&cache, "sensors", &v1).is_some());
        // A write to the dependency hides it from post-write readers while
        // pre-write readers (still pinning v0/v1 snapshots) keep hitting.
        let v2 = v1.bumped("sensors");
        assert!(lookup(&cache, "sensors", &v2).is_none());
        assert!(lookup(&cache, "sensors", &v0).is_some());
        assert_eq!((cache.hits(), cache.misses()), (3, 1));
    }

    /// An entry that read no table (an unmapped BGP is empty whatever the
    /// rows) has no version to fall behind: it answers every reader.
    #[test]
    fn entry_over_no_tables_answers_every_reader() {
        let cache = BgpCache::new();
        let v0 = TableVersions::new();
        store(&cache, "unmapped", 0, &v0, deps(&[]));
        assert!(lookup(&cache, "unmapped", &v0).is_some());
        assert!(lookup(&cache, "unmapped", &v0.bumped("anything")).is_some());
    }
}

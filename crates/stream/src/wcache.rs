//! The `wCache` shared window cache.
//!
//! "wCache acts as an index for answering efficiently equality constraints on
//! the time column when processing infinite streams. … WCache will then
//! produce results to multiple queries accessing different streams."
//!
//! Concretely: many concurrent diagnostic tasks window the *same* measurement
//! streams (the 1,024-task showcase registers variations of a handful of
//! templates). Without sharing, each query re-slices the stream and
//! re-derives its state sequence per window; with `WCache`, the first query
//! to need a window evaluates it and every other query gets the shared
//! result. Two things are shared:
//!
//! * **Windows**, keyed by their bounds — `(stream, open, close, variant)`.
//!   A window id means nothing without the range and slide that produced it,
//!   so the key is the `(open, close]` interval itself: queries share a
//!   window exactly when they ask for the same rows. A [`Window`] holds the
//!   rows and, per reader fingerprint, whatever the readers
//!   [derived](Window::derived) from them (STARQL keeps the window's enriched
//!   state sequence and its postings index there), built once.
//! * **Slices** — what a reader derived from the rows of *one timestamp*
//!   ([`WCache::slice`]). Consecutive and differently-ranged windows overlap
//!   in all but a few timestamps, so the per-timestamp part of a derivation
//!   is reused across them. A slice is valid only under its stamp, the
//!   number of rows at that timestamp: stream tables are append-only, so an
//!   equal count means the same rows, and a late row changes the count.
//!
//! The cache is bounded by its caller: [`WCache::evict_below`] drops the
//! windows closed before one instant and the slices stamped before another.
//! After every driven round the platform passes the stream's clock — each
//! query asks for a closed window once, in the round that closes it — and
//! `clock − longest registered range`, the oldest timestamp a window yet to
//! close can cover. What stays is one copy of each timestamp in range, not
//! one per window over it. Hit statistics count window lookups.

use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use optique_relational::Value;

/// Key identifying one materialized window of one stream.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WindowKey {
    /// Stream name.
    pub stream: String,
    /// Exclusive lower bound of the window's `(open, close]` interval.
    pub open: i64,
    /// Inclusive upper bound — the window's close instant.
    pub close: i64,
    /// Content variant: whatever else decides the rows. STARQL ticks stamp
    /// the stream table's row count (tables are append-only, so the count
    /// names the content) and, for windows materialized under a subject-key
    /// semi-join, the restriction (a restricted window is a *subset* of the
    /// full one, so it must never answer a full-window lookup).
    pub variant: String,
}

impl WindowKey {
    fn new(stream: &str, open: i64, close: i64, variant: &str) -> Self {
        WindowKey {
            stream: stream.to_string(),
            open,
            close,
            variant: variant.to_string(),
        }
    }
}

type Shared = Arc<dyn Any + Send + Sync>;

/// One cached window: its rows, plus what its readers derived from them.
pub struct Window {
    rows: Vec<Vec<Value>>,
    derived: Mutex<HashMap<(TypeId, u64), Shared>>,
}

impl Window {
    fn new(rows: Vec<Vec<Value>>) -> Self {
        Window {
            rows,
            derived: Mutex::new(HashMap::new()),
        }
    }

    /// The window's tuples.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The value readers with this `fingerprint` derive from the window's
    /// rows, built on first use; the flag says whether this call built it.
    /// The fingerprint must cover everything besides the rows that `build`
    /// reads. Builds run outside the lock: racing builders all build, the
    /// first insert wins (builds are pure).
    pub fn derived<T: Any + Send + Sync>(
        &self,
        fingerprint: u64,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        let key = (TypeId::of::<T>(), fingerprint);
        let typed = |shared: &Shared| {
            Arc::clone(shared)
                .downcast::<T>()
                .expect("derived values are keyed by their type")
        };
        if let Some(hit) = self.derived.lock().expect("window poisoned").get(&key) {
            return (typed(hit), false);
        }
        let built: Shared = Arc::new(build());
        let mut map = self.derived.lock().expect("window poisoned");
        let fresh = !map.contains_key(&key);
        (typed(map.entry(key).or_insert(built)), fresh)
    }
}

/// What a reader derived from the rows of one timestamp, and the row count
/// it was derived under.
struct Slice {
    stamp: usize,
    value: Shared,
}

/// Slices of one stream: reader scope → timestamp → slice.
type StreamSlices = HashMap<u64, BTreeMap<i64, Slice>>;

/// A shared, thread-safe window cache with hit/miss accounting.
#[derive(Default)]
pub struct WCache {
    windows: RwLock<HashMap<WindowKey, Arc<Window>>>,
    slices: RwLock<HashMap<String, StreamSlices>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WCache {
    /// An empty cache.
    pub fn new() -> Self {
        WCache::default()
    }

    /// Looks up a cached window variant, counting a hit or a miss. A miss
    /// is filled with [`Self::insert`] once the caller has built the rows —
    /// a build can fail (a fragment round over a federation), and its error
    /// stays the caller's.
    pub fn lookup(
        &self,
        stream: &str,
        open: i64,
        close: i64,
        variant: &str,
    ) -> Option<Arc<Window>> {
        let key = WindowKey::new(stream, open, close, variant);
        match self.windows.read().expect("wcache poisoned").get(&key) {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(hit))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a materialized window variant, returning the shared window
    /// (the first insert wins a race; later inserts are discarded — builds
    /// are pure, so every racer built the same rows).
    pub fn insert(
        &self,
        stream: &str,
        open: i64,
        close: i64,
        variant: &str,
        rows: Vec<Vec<Value>>,
    ) -> Arc<Window> {
        let key = WindowKey::new(stream, open, close, variant);
        let mut map = self.windows.write().expect("wcache poisoned");
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(Window::new(rows))),
        )
    }

    /// The slice readers of `scope` kept for timestamp `ts` of `stream`, if
    /// it was derived under the same `stamp` (the row count at `ts`).
    pub fn slice<T: Any + Send + Sync>(
        &self,
        stream: &str,
        scope: u64,
        ts: i64,
        stamp: usize,
    ) -> Option<Arc<T>> {
        let slices = self.slices.read().expect("wcache poisoned");
        let slice = slices.get(stream)?.get(&scope)?.get(&ts)?;
        if slice.stamp != stamp {
            return None;
        }
        Arc::clone(&slice.value).downcast::<T>().ok()
    }

    /// Keeps `value` as the slice of `(stream, scope, ts)` under `stamp`,
    /// replacing one kept under another stamp.
    pub fn keep_slice<T: Any + Send + Sync>(
        &self,
        stream: &str,
        scope: u64,
        ts: i64,
        stamp: usize,
        value: Arc<T>,
    ) {
        let mut slices = self.slices.write().expect("wcache poisoned");
        let of_stream = slices.entry(stream.to_string()).or_default();
        let by_time = of_stream.entry(scope).or_default();
        by_time.insert(ts, Slice { stamp, value });
    }

    /// Evicts every window of `stream` that closed strictly before
    /// `closed_before`, and every slice of it stamped strictly before
    /// `stamped_before` — called as the stream's clock advances past their
    /// last possible use.
    pub fn evict_below(&self, stream: &str, closed_before: i64, stamped_before: i64) {
        self.windows
            .write()
            .expect("wcache poisoned")
            .retain(|k, _| k.stream != stream || k.close >= closed_before);
        if let Some(of_stream) = self
            .slices
            .write()
            .expect("wcache poisoned")
            .get_mut(stream)
        {
            for by_time in of_stream.values_mut() {
                *by_time = by_time.split_off(&stamped_before);
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached windows.
    pub fn len(&self) -> usize {
        self.windows.read().expect("wcache poisoned").len()
    }

    /// True when no window is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached slices.
    pub fn slices(&self) -> usize {
        self.slices
            .read()
            .expect("wcache poisoned")
            .values()
            .flat_map(|of_stream| of_stream.values())
            .map(BTreeMap::len)
            .sum()
    }
}

impl std::fmt::Debug for WCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WCache({} windows, {} slices, {} hits, {} misses)",
            self.len(),
            self.slices(),
            self.hits(),
            self.misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int(i)]).collect()
    }

    /// How a tick fills the cache: look the window up, and on a miss
    /// build its rows and insert them.
    fn fetch(
        cache: &WCache,
        stream: &str,
        open: i64,
        close: i64,
        build: impl FnOnce() -> Vec<Vec<Value>>,
    ) -> Arc<Window> {
        cache
            .lookup(stream, open, close, "")
            .unwrap_or_else(|| cache.insert(stream, open, close, "", build()))
    }

    #[test]
    fn build_once_share_after() {
        let cache = WCache::new();
        let mut builds = 0;
        let a = fetch(&cache, "S", 0, 10, || {
            builds += 1;
            rows(3)
        });
        let b = fetch(&cache, "S", 0, 10, || {
            builds += 1;
            rows(3)
        });
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_windows_distinct_entries() {
        let cache = WCache::new();
        fetch(&cache, "S", 0, 10, || rows(1));
        fetch(&cache, "S", 1, 11, || rows(2));
        fetch(&cache, "T", 0, 10, || rows(3));
        // Same close, another range: the rows differ, so must the entry.
        let wide = fetch(&cache, "S", -20, 10, || rows(4));
        assert_eq!(wide.rows().len(), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn eviction_respects_stream_and_watermark() {
        let cache = WCache::new();
        for k in 0..5 {
            fetch(&cache, "S", k - 10, k, || rows(1));
            cache.keep_slice("S", 7, k, 1, Arc::new(k));
        }
        fetch(&cache, "T", -10, 0, || rows(1));
        cache.keep_slice("T", 7, 0, 1, Arc::new(0i64));
        cache.evict_below("S", 3, 1);
        assert_eq!(cache.len(), 3, "S closing at 3 and 4, and T, remain");
        assert_eq!(cache.slices(), 5, "S from 1 on, and T, remain");
        assert!(cache.slice::<i64>("S", 7, 0, 1).is_none());
        assert_eq!(cache.slice::<i64>("S", 7, 1, 1).as_deref(), Some(&1));
        // Re-fetching evicted window is a miss again.
        let before = cache.misses();
        fetch(&cache, "S", -10, 0, || rows(1));
        assert_eq!(cache.misses(), before + 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(WCache::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for k in 0..50i64 {
                        let got = fetch(&cache, "S", k - 5, k, || rows(k % 7));
                        assert_eq!(got.rows().len(), (k % 7) as usize, "thread {t} window {k}");
                        let (n, _) = got.derived(0, || got.rows().len());
                        assert_eq!(*n, (k % 7) as usize);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.hits() + cache.misses(), 400);
        assert!(cache.misses() >= 50);
    }

    #[test]
    fn derived_values_build_once_per_fingerprint() {
        let cache = WCache::new();
        let window = fetch(&cache, "S", 0, 10, || rows(3));
        let (a, built_a) = window.derived(1, || window.rows().len());
        let (b, built_b) = window.derived(1, || unreachable!("already derived"));
        assert!(built_a && !built_b);
        assert!(Arc::ptr_eq(&a, &b));
        // Another fingerprint, or another type, is another derivation.
        let (c, built_c) = window.derived(2, || 99usize);
        assert!(built_c);
        assert_eq!((*a, *c), (3, 99));
        let (d, built_d) = window.derived(1, || "three".to_string());
        assert!(built_d);
        assert_eq!(*d, "three");
    }

    #[test]
    fn slices_are_valid_only_under_their_stamp() {
        let cache = WCache::new();
        cache.keep_slice("S", 1, 1_000, 2, Arc::new("two rows"));
        assert_eq!(
            cache.slice::<&str>("S", 1, 1_000, 2).as_deref(),
            Some(&"two rows")
        );
        assert!(
            cache.slice::<&str>("S", 1, 1_000, 3).is_none(),
            "a late row changed the count"
        );
        assert!(cache.slice::<&str>("S", 2, 1_000, 2).is_none(), "scope");
        assert!(cache.slice::<&str>("T", 1, 1_000, 2).is_none(), "stream");
        cache.keep_slice("S", 1, 1_000, 3, Arc::new("three rows"));
        assert_eq!(cache.slices(), 1, "the stale slice was replaced");
        assert!(cache.slice::<&str>("S", 1, 1_000, 2).is_none());
    }
}

//! The novelty overlay — an append-only in-memory write log over the
//! immutable base catalog.
//!
//! A relational write does not rebuild the catalog: it publishes a new
//! [`NoveltyOverlay`] — the previous overlay plus the appended rows —
//! stamped with a fresh, globally monotonic **epoch**. Every scan merges base rows with the
//! overlay's rows for the scanned table, so readers see writes
//! immediately while the base `Database` (and everything keyed on its
//! pointer identity: federation pools, partitioned shards) stays intact.
//! A table's log is [`Segments`], the representation stored tables use
//! too: its appended batches in arrival order, each batch one segment
//! shared by every overlay that contains it, so a write copies one pointer
//! per earlier batch and no row. The platform folds the overlay into the
//! base synchronously, inside the append that makes it a fixed share of
//! the tables it sits on, by appending each log's segments to its table's
//! (no row copied), and starts over from the empty overlay (epoch 0).
//!
//! Epochs are the distributed-consistency handle: a plan fragment
//! carries the epoch its coordinator pinned, and a worker resolves that
//! epoch back to the overlay through a process-global registry
//! ([`NoveltyOverlay::resolve`]) — the same pragmatic global-registry
//! discipline the term dictionary uses for `semid` wire decoding. The
//! registry holds weak references only; the strong reference lives in
//! the platform snapshot that published the overlay, so an overlay is
//! resolvable exactly as long as some snapshot can still route queries
//! at it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::error::SqlError;
use crate::table::{Database, Segments};
use crate::value::Value;

/// Next epoch to hand out; epoch `0` is reserved for the empty overlay.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Process-global epoch → overlay registry (weak references; pruned on
/// registration once it grows).
fn registry() -> &'static Mutex<HashMap<u64, Weak<NoveltyOverlay>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, Weak<NoveltyOverlay>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Dead registry entries are pruned whenever the map exceeds this size.
const REGISTRY_PRUNE_AT: usize = 64;

/// An immutable per-table log of rows appended since the last merge.
/// Successive writes build successor overlays ([`Self::with_rows`]);
/// nothing mutates a published overlay.
#[derive(Debug, Default)]
pub struct NoveltyOverlay {
    epoch: u64,
    tables: HashMap<String, Segments>,
}

impl NoveltyOverlay {
    /// The empty overlay: epoch 0, no rows, never registered.
    pub fn empty() -> Arc<NoveltyOverlay> {
        Arc::new(NoveltyOverlay::default())
    }

    /// A successor overlay with `rows` appended to `table`'s log as one
    /// batch — every earlier batch is shared, not copied — stamped with a
    /// fresh globally monotonic epoch and registered for [`Self::resolve`].
    pub fn with_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Arc<NoveltyOverlay> {
        // Cloning the map clones each log's segment *pointers*. An empty
        // batch mints an epoch and leaves the logs as they were.
        let mut tables = self.tables.clone();
        if !rows.is_empty() {
            tables.entry(table.to_string()).or_default().push(rows);
        }
        let overlay = Arc::new(NoveltyOverlay {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            tables,
        });
        let mut reg = registry().lock().expect("novelty registry lock");
        if reg.len() >= REGISTRY_PRUNE_AT {
            reg.retain(|_, weak| weak.strong_count() > 0);
        }
        reg.insert(overlay.epoch, Arc::downgrade(&overlay));
        overlay
    }

    /// The overlay registered under `epoch`, while some snapshot still
    /// holds it alive. Epoch 0 (the empty overlay) resolves to `None`.
    pub fn resolve(epoch: u64) -> Option<Arc<NoveltyOverlay>> {
        if epoch == 0 {
            return None;
        }
        registry()
            .lock()
            .expect("novelty registry lock")
            .get(&epoch)
            .and_then(Weak::upgrade)
    }

    /// The overlay's epoch (0 for the empty overlay).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total appended rows across all tables — the merge-policy signal.
    pub fn depth(&self) -> usize {
        self.tables.values().map(Segments::len).sum()
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(Segments::is_empty)
    }

    /// The appended rows of `table`, if any.
    pub fn rows(&self, table: &str) -> Option<&Segments> {
        self.tables.get(table)
    }

    /// `(table, appended rows)` pairs in sorted table order (determinism
    /// for merge and tests).
    pub fn tables(&self) -> Vec<(&str, &Segments)> {
        let mut out: Vec<_> = self
            .tables
            .iter()
            .map(|(name, rows)| (name.as_str(), rows))
            .collect();
        out.sort_by_key(|(name, _)| *name);
        out
    }
}

/// A worker's slice of the overlay under a hash-partitioned pool: for a
/// table partitioned on `keys[table]`, only the overlay rows hashing to
/// this worker's shard are visible, so a scatter round covers each
/// novelty row exactly once. Tables without an entry (replicated on the
/// worker) see the full overlay.
#[derive(Clone, Debug)]
pub struct NoveltyScope {
    /// This worker's shard index.
    pub shard: usize,
    /// Total shards in the pool.
    pub shards: usize,
    /// Partitioned table → key column index in its schema.
    pub keys: HashMap<String, usize>,
}

/// Resolves the database a fragment pinned at `epoch` executes over:
///
/// * epoch 0, or an epoch the database already carries — `Ok(None)`, use
///   `db` as-is (prevents double application),
/// * a live registered epoch — `Ok(Some(view))`: a clone of `db` with
///   that overlay installed (the clone shares every table `Arc`, so this
///   is a catalog-map copy, not a data copy),
/// * anything else — the overlay was dropped or never existed; the round
///   is unanswerable at its pinned epoch.
pub fn view_at(db: &Database, epoch: u64) -> Result<Option<Database>, SqlError> {
    if epoch == 0 || epoch == db.novelty_epoch() {
        return Ok(None);
    }
    let overlay = NoveltyOverlay::resolve(epoch).ok_or_else(|| {
        SqlError::Execution(format!("unknown novelty epoch {epoch} (overlay retired)"))
    })?;
    let mut view = db.clone();
    view.set_novelty(Some(overlay));
    Ok(Some(view))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::shard_of;
    use crate::schema::ColumnType;
    use crate::table::table_of;

    fn base() -> Database {
        let mut db = Database::new();
        db.put_table(
            "t",
            table_of(
                "t",
                &[("id", ColumnType::Int)],
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn epochs_are_monotonic_and_resolvable() {
        let a = NoveltyOverlay::empty().with_rows("t", vec![vec![Value::Int(3)]]);
        let b = a.with_rows("t", vec![vec![Value::Int(4)]]);
        assert!(b.epoch() > a.epoch());
        assert_eq!(a.depth(), 1);
        assert_eq!(b.depth(), 2);
        assert!(Arc::ptr_eq(
            &NoveltyOverlay::resolve(a.epoch()).unwrap(),
            &a
        ));
        assert!(Arc::ptr_eq(
            &NoveltyOverlay::resolve(b.epoch()).unwrap(),
            &b
        ));
        assert!(NoveltyOverlay::resolve(0).is_none());
    }

    #[test]
    fn dropped_overlays_stop_resolving() {
        let a = NoveltyOverlay::empty().with_rows("t", vec![vec![Value::Int(9)]]);
        let epoch = a.epoch();
        drop(a);
        assert!(NoveltyOverlay::resolve(epoch).is_none());
    }

    #[test]
    fn view_at_installs_and_skips() {
        let db = base();
        assert!(view_at(&db, 0).unwrap().is_none());
        let overlay = NoveltyOverlay::empty().with_rows("t", vec![vec![Value::Int(7)]]);
        let view = view_at(&db, overlay.epoch()).unwrap().unwrap();
        assert_eq!(view.novelty_epoch(), overlay.epoch());
        // The same epoch applied twice is a no-op, not a double merge.
        assert!(view_at(&view, overlay.epoch()).unwrap().is_none());
        // A retired epoch errors instead of silently answering stale.
        let retired = overlay.with_rows("t", vec![vec![Value::Int(8)]]).epoch();
        // (drop the only strong ref by not binding the successor)
        assert!(view_at(&db, retired).is_err());
    }

    #[test]
    fn scope_slices_partitioned_tables_only() {
        let overlay =
            NoveltyOverlay::empty().with_rows("t", (0..8).map(|i| vec![Value::Int(i)]).collect());
        let shards = 2;
        let mut dbs: Vec<Database> = (0..shards)
            .map(|shard| {
                let mut db = base();
                db.set_novelty(Some(Arc::clone(&overlay)));
                db.set_novelty_scope(Some(Arc::new(NoveltyScope {
                    shard,
                    shards,
                    keys: [("t".to_string(), 0usize)].into_iter().collect(),
                })));
                db
            })
            .collect();
        let mut seen = 0usize;
        for (shard, db) in dbs.iter().enumerate() {
            for row in db.novelty_rows("t") {
                assert_eq!(shard_of(&row[0], shards), shard);
                seen += 1;
            }
        }
        assert_eq!(seen, 8, "every novelty row lands on exactly one shard");
        // A table outside the key map sees the full overlay on any shard.
        let mut db = dbs.pop().unwrap();
        db.set_novelty(Some(
            NoveltyOverlay::empty().with_rows("other", vec![vec![Value::Int(1)]]),
        ));
        assert_eq!(db.novelty_rows("other").count(), 1);
    }
    /// `PROPTEST_CASES` dials generative coverage, as in the integration
    /// suites.
    fn proptest_cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: proptest_cases() })]

        /// The batched log is the flat log: for any batch sizes, empty
        /// batches included, `iter_from(k)` is the flat log's `[k..]` for
        /// every `k ≤ len` (and nothing past it); a predecessor overlay
        /// reads unchanged after its successors append; successive overlays
        /// share every earlier batch by pointer — no row was copied.
        #[test]
        fn batched_log_reads_like_the_flat_log(
            sizes in proptest::collection::vec(0usize..6, 0..12),
        ) {
            let mut flat: Vec<Vec<Value>> = Vec::new();
            let mut lineage = vec![(NoveltyOverlay::empty(), 0usize)];
            for size in sizes {
                let batch: Vec<Vec<Value>> = (flat.len()..flat.len() + size)
                    .map(|i| vec![Value::Int(i as i64)])
                    .collect();
                flat.extend(batch.iter().cloned());
                let next = lineage.last().unwrap().0.with_rows("t", batch);
                lineage.push((next, flat.len()));
            }
            for (overlay, len) in &lineage {
                proptest::prop_assert_eq!(overlay.depth(), *len);
                proptest::prop_assert_eq!(overlay.is_empty(), *len == 0);
                let Some(log) = overlay.rows("t") else {
                    proptest::prop_assert_eq!(*len, 0);
                    continue;
                };
                proptest::prop_assert_eq!(log.len(), *len);
                proptest::prop_assert!(log.iter().eq(flat[..*len].iter()));
                for k in 0..=*len {
                    proptest::prop_assert!(log.iter_from(k).eq(flat[k..*len].iter()), "k = {}", k);
                }
                proptest::prop_assert_eq!(log.iter_from(len + 3).count(), 0);
            }
            for pair in lineage.windows(2) {
                let (Some(before), Some(after)) = (pair[0].0.rows("t"), pair[1].0.rows("t")) else {
                    continue;
                };
                proptest::prop_assert!(before.segments().len() <= after.segments().len());
                for (a, b) in before.segments().iter().zip(after.segments()) {
                    proptest::prop_assert!(Arc::ptr_eq(a, b));
                }
            }
        }
    }
}

//! Pane-based partial aggregation for sliding windows — the "No Pane, No
//! Gain" decomposition that turns O(range) window rescans into O(slide)
//! incremental work.
//!
//! A **pane** is one slide-aligned slice of a stream: with pane width
//! `w = gcd(range, slide)`, every sliding window `(open, close]` whose
//! bounds sit on the slide grid is an exact run of consecutive panes, so
//! overlapping windows of the same stream *share* panes instead of each
//! rescanning the overlap. A [`PaneStore`] keeps, per worker and per probed
//! stream, one [`AggAcc`] per `(pane, grouping key)` — enough to answer
//! SUM/COUNT/MIN/MAX/AVG (avg = sum + count) for any aligned window by
//! combining panes, never touching raw rows again.
//!
//! Two combination regimes, chosen per aggregate:
//!
//! * **additive** (COUNT/SUM, and AVG through them): the store caches one
//!   sliding accumulator per window geometry and advances it by *adding
//!   entering panes and subtracting leaving panes* — O(slide) per tick,
//!   flat in the window range;
//! * **extrema** (MIN/MAX): subtraction is undefined, and reusing a cached
//!   whole-window extremum is the classic staleness bug (the pane holding
//!   the current maximum slides out and the stale maximum survives).
//!   Extrema are therefore **recombined from the window's panes on every
//!   tick** — O(range/w) pane merges, still far below a row rescan.
//!
//! Novelty discipline: a probe executes at a pinned novelty epoch. The
//! store folds the base shard table once, then advances along the overlay
//! lineage by folding only the *suffix* of the append log it has not seen
//! (overlay logs are append-only and order-preserving across successor
//! epochs, so the seen prefix is stable). A probe pinned at an epoch
//! *older* than the cached state answers store-lessly instead — the cache
//! never rewinds, and no overlay row is ever double-counted.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::SqlError;
use crate::fragment::shard_of;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{Database, Table};
use crate::value::Value;

/// Greatest common divisor of two positive spans (the pane width law:
/// `width = gcd(range, slide)` divides both, so window bounds land on the
/// pane grid).
pub fn pane_width(range_ms: i64, slide_ms: i64) -> i64 {
    let (mut a, mut b) = (range_ms.max(1), slide_ms.max(1));
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One partial aggregate: everything SUM/COUNT/MIN/MAX/AVG need, kept so
/// that two accumulators over disjoint row sets merge losslessly. Integer
/// sums stay exact (checked `i64`); float sums are exact for
/// whole-number-valued data, which is what the differential oracle pins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AggAcc {
    /// Non-NULL values observed.
    pub count: i64,
    /// Sum of integer-typed values (checked; overflow surfaces as
    /// [`SqlError::Overflow`], never wraps).
    pub sum_i: i64,
    /// Sum of float-typed values.
    pub sum_f: f64,
    /// Minimum observed value, as f64 (`None` until a numeric value lands).
    pub min: Option<f64>,
    /// Maximum observed value, as f64.
    pub max: Option<f64>,
}

impl AggAcc {
    /// Folds one raw value in. NULLs don't count; non-numeric values count
    /// (COUNT is type-agnostic) but contribute no sum or extremum.
    pub fn observe(&mut self, v: &Value) -> Result<(), SqlError> {
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match v {
            Value::Int(i) | Value::Timestamp(i) => {
                self.sum_i = self
                    .sum_i
                    .checked_add(*i)
                    .ok_or_else(|| SqlError::Overflow("integer overflow: windowed SUM".into()))?;
            }
            Value::Float(f) => self.sum_f += f,
            _ => return Ok(()),
        }
        let x = v.as_f64().expect("numeric value");
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
        Ok(())
    }

    /// Merges another accumulator over a *disjoint* row set in.
    pub fn merge(&mut self, other: &AggAcc) -> Result<(), SqlError> {
        self.count += other.count;
        self.sum_i = self
            .sum_i
            .checked_add(other.sum_i)
            .ok_or_else(|| SqlError::Overflow("integer overflow: windowed SUM".into()))?;
        self.sum_f += other.sum_f;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        Ok(())
    }

    /// Removes a previously-merged accumulator (additive fields only —
    /// extrema cannot be subtracted and are recombined by the caller).
    fn unmerge_additive(&mut self, other: &AggAcc) {
        self.count -= other.count;
        self.sum_i = self.sum_i.wrapping_sub(other.sum_i);
        self.sum_f -= other.sum_f;
    }

    /// The combined sum as f64 (integer and float parts).
    pub fn sum(&self) -> f64 {
        self.sum_i as f64 + self.sum_f
    }

    /// The mean, when any value was observed.
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum() / self.count as f64)
    }
}

/// A pane-combine probe — the payload of a `pane` wire section: which
/// stream to aggregate, how rows group and align to the pane grid, and
/// which window `(open_ms, close_ms]` to combine. Self-contained, like
/// every fragment section: a worker needs nothing but this and its shard.
#[derive(Clone, Debug, PartialEq)]
pub struct PaneProbe {
    /// The stream's base table.
    pub stream: String,
    /// Timestamp column (pane alignment).
    pub ts_col: String,
    /// Grouping-key column (one [`AggAcc`] per key per pane).
    pub key_col: String,
    /// Aggregated value column.
    pub val_col: String,
    /// Pane width: `gcd(range, slide)` of the probing window.
    pub width_ms: i64,
    /// Pane-grid origin (the window's pulse start).
    pub start_ms: i64,
    /// Window open (exclusive).
    pub open_ms: i64,
    /// Window close (inclusive).
    pub close_ms: i64,
    /// Whether MIN/MAX must be recombined (additive-only probes skip the
    /// per-tick extrema pass entirely).
    pub needs_extrema: bool,
}

impl PaneProbe {
    /// The store key identifying the pane grid this probe reads — windows
    /// of any range share panes as long as stream, columns, width and
    /// origin agree.
    fn grid_key(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.stream, self.ts_col, self.key_col, self.val_col, self.width_ms, self.start_ms
        )
    }

    /// Pane index of a timestamp: pane `p` covers
    /// `(start + p·w, start + (p+1)·w]`.
    fn pane_of(&self, ts: i64) -> i64 {
        (ts - self.start_ms - 1).div_euclid(self.width_ms)
    }

    /// The window's pane run `[p_open, p_close)`; `None` when the bounds
    /// don't sit on the pane grid (misaligned probes answer store-lessly).
    fn pane_run(&self) -> Option<(i64, i64)> {
        let (o, c) = (self.open_ms - self.start_ms, self.close_ms - self.start_ms);
        (self.width_ms > 0 && o % self.width_ms == 0 && c % self.width_ms == 0 && o < c)
            .then(|| (o / self.width_ms, c / self.width_ms))
    }
}

/// The schema every pane-combine answer uses: one row per grouping key with
/// the mergeable accumulator fields laid out flat. `min`/`max` are NULL for
/// additive-only probes.
pub fn pane_result_schema(key_type: ColumnType) -> Schema {
    Schema::qualified(
        "panes",
        vec![
            Column::new("key", key_type),
            Column::new("cnt", ColumnType::Int),
            Column::new("sum_i", ColumnType::Int),
            Column::new("sum_f", ColumnType::Float),
            Column::new("min", ColumnType::Float),
            Column::new("max", ColumnType::Float),
        ],
    )
}

fn acc_row(key: &Value, acc: &AggAcc, needs_extrema: bool) -> Vec<Value> {
    let opt = |x: Option<f64>| {
        if needs_extrema {
            x.map_or(Value::Null, Value::Float)
        } else {
            Value::Null
        }
    };
    vec![
        key.clone(),
        Value::Int(acc.count),
        Value::Int(acc.sum_i),
        Value::Float(acc.sum_f),
        opt(acc.min),
        opt(acc.max),
    ]
}

/// Rebuilds the accumulator map from pane-answer rows (the gather side:
/// a coordinator merges per-shard answers — shards hold disjoint rows, so
/// the merge is lossless).
pub fn merge_pane_rows(
    groups: &mut BTreeMap<Value, AggAcc>,
    rows: &[Vec<Value>],
) -> Result<(), SqlError> {
    for row in rows {
        if row.len() < 6 {
            return Err(SqlError::Execution("short pane-answer row".into()));
        }
        let acc = AggAcc {
            count: row[1].as_i64().unwrap_or(0),
            sum_i: row[2].as_i64().unwrap_or(0),
            sum_f: row[3].as_f64().unwrap_or(0.0),
            min: row[4].as_f64(),
            max: row[5].as_f64(),
        };
        groups.entry(row[0].clone()).or_default().merge(&acc)?;
    }
    Ok(())
}

/// Resolved column indices + key type of a probe against a catalog.
struct ProbeCols {
    ts: usize,
    key: usize,
    val: usize,
    key_type: ColumnType,
}

fn resolve_cols(probe: &PaneProbe, db: &Database) -> Result<ProbeCols, SqlError> {
    let table = db.table(&probe.stream)?;
    let idx = |name: &str| {
        table.schema.index_of(name).ok_or_else(|| {
            SqlError::Binding(format!("no column {name} on stream {}", probe.stream))
        })
    };
    let key = idx(&probe.key_col)?;
    Ok(ProbeCols {
        ts: idx(&probe.ts_col)?,
        key,
        val: idx(&probe.val_col)?,
        key_type: table.schema.columns()[key].ty,
    })
}

/// Store-less reference computation: folds the window's raw rows (base
/// shard + visible overlay rows) directly into per-key accumulators.
/// The coordinator-fallback path of [`crate::PlanFragment::execute`] and
/// the store's own decline path share this, so every execution path
/// produces bit-identical answers.
pub fn compute_window_aggregates(probe: &PaneProbe, db: &Database) -> Result<Table, SqlError> {
    let cols = resolve_cols(probe, db)?;
    let mut groups: BTreeMap<Value, AggAcc> = BTreeMap::new();
    let base = db.table(&probe.stream)?;
    for row in base.rows.iter().chain(db.novelty_rows(&probe.stream)) {
        let Some(ts) = row[cols.ts].as_i64() else {
            continue;
        };
        if ts > probe.open_ms && ts <= probe.close_ms {
            groups
                .entry(row[cols.key].clone())
                .or_default()
                .observe(&row[cols.val])?;
        }
    }
    groups_to_table(&groups, cols.key_type, probe.needs_extrema)
}

fn groups_to_table(
    groups: &BTreeMap<Value, AggAcc>,
    key_type: ColumnType,
    needs_extrema: bool,
) -> Result<Table, SqlError> {
    let rows = groups
        .iter()
        .filter(|(_, acc)| acc.count > 0)
        .map(|(k, acc)| acc_row(k, acc, needs_extrema))
        .collect();
    Table::new(pane_result_schema(key_type), rows)
}

/// Cached additive (COUNT/SUM) state of one window geometry, advanced by
/// pane add/subtract as the window slides forward.
struct SlidingWindow {
    p_open: i64,
    p_close: i64,
    groups: BTreeMap<Value, AggAcc>,
}

/// Per-grid pane state: which data has been folded, the panes themselves,
/// and the cached sliding accumulators (one per window range probing this
/// grid).
struct GridState {
    /// Novelty epoch the state is current at.
    epoch: u64,
    /// Prefix of the stream's *full, unfiltered* overlay log already
    /// folded (stable across successor epochs: logs are append-only).
    overlay_seen: usize,
    /// pane index → grouping key → partial aggregate.
    panes: BTreeMap<i64, BTreeMap<Value, AggAcc>>,
    /// range_ms → cached additive window state.
    windows: BTreeMap<i64, SlidingWindow>,
}

/// One worker's shard-local pane store. Keyed by pane grid
/// (`PaneProbe::grid_key`): every window probing the same stream with the
/// same width and origin shares one set of panes.
#[derive(Default)]
pub struct PaneStore {
    grids: Mutex<HashMap<String, GridState>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PaneStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative `(hits, misses)`: a hit answered a probe from panes that
    /// were already warm (at most O(slide) incremental folding); a miss
    /// paid a full fold (first touch of a grid) or answered store-lessly
    /// (epoch older than the cached state, misaligned bounds).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Answers a pane-combine probe from shard-local panes, maintaining
    /// them incrementally. Returns the answer table plus whether the probe
    /// was a warm hit.
    pub fn combine(&self, probe: &PaneProbe, db: &Database) -> Result<(Table, bool), SqlError> {
        let Some((p_open, p_close)) = probe.pane_run() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok((compute_window_aggregates(probe, db)?, false));
        };
        let cols = resolve_cols(probe, db)?;
        let mut grids = self.grids.lock().expect("pane store lock");
        let epoch = db.novelty_epoch();
        let log_len = db
            .novelty()
            .and_then(|n| n.rows(&probe.stream))
            .map_or(0, |r| r.len());
        let entry = grids.entry(probe.grid_key());
        let warm;
        let state = match entry {
            std::collections::hash_map::Entry::Occupied(e) => {
                let state = e.into_mut();
                if state.epoch != epoch && log_len < state.overlay_seen {
                    // Pinned at an epoch older than the cached state: the
                    // cache never rewinds — answer store-lessly.
                    drop(grids);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Ok((compute_window_aggregates(probe, db)?, false));
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                warm = true;
                state
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                // First touch: fold the whole base shard into panes once.
                self.misses.fetch_add(1, Ordering::Relaxed);
                warm = false;
                let mut state = GridState {
                    epoch: 0,
                    overlay_seen: 0,
                    panes: BTreeMap::new(),
                    windows: BTreeMap::new(),
                };
                let base = db.table(&probe.stream)?;
                for row in &base.rows {
                    fold_row(&mut state.panes, probe, &cols, row)?;
                }
                e.insert(state)
            }
        };

        // Advance along the overlay lineage: fold only the unseen suffix
        // of the append log, applying this worker's shard filter manually
        // (the suffix index is into the unfiltered log).
        if state.epoch != epoch || log_len > state.overlay_seen {
            let scope = db.novelty_scope().and_then(|s| {
                s.keys
                    .get(&probe.stream)
                    .map(|&col| (s.shard, s.shards, col))
            });
            if let Some(log) = db.novelty().and_then(|n| n.rows(&probe.stream)) {
                let touched: Vec<&Vec<Value>> = log[state.overlay_seen..]
                    .iter()
                    .filter(|row| match scope {
                        Some((shard, shards, col)) => shard_of(&row[col], shards) == shard,
                        None => true,
                    })
                    .collect();
                for row in touched {
                    fold_row(&mut state.panes, probe, &cols, row)?;
                }
            }
            state.overlay_seen = log_len;
            state.epoch = epoch;
            // Appends may land in panes already inside a cached window;
            // cheaper to rebuild the additive caches than to track which
            // panes changed.
            state.windows.clear();
        }

        // Additive state: advance the cached window for this range by
        // subtracting leaving panes and adding entering panes; rebuild
        // from panes when the geometry doesn't extend a cached one.
        let range = probe.close_ms - probe.open_ms;
        let window = match state.windows.get_mut(&range) {
            Some(w) if w.p_open <= p_open && w.p_close <= p_close => {
                for p in w.p_open..p_open.min(w.p_close) {
                    if let Some(pane) = state.panes.get(&p) {
                        for (k, acc) in pane {
                            if let Some(g) = w.groups.get_mut(k) {
                                g.unmerge_additive(acc);
                                if g.count == 0 {
                                    w.groups.remove(k);
                                }
                            }
                        }
                    }
                }
                for p in w.p_close.max(p_open)..p_close {
                    if let Some(pane) = state.panes.get(&p) {
                        for (k, acc) in pane {
                            w.groups.entry(k.clone()).or_default().merge(acc)?;
                        }
                    }
                }
                w.p_open = p_open;
                w.p_close = p_close;
                w
            }
            _ => {
                let mut groups: BTreeMap<Value, AggAcc> = BTreeMap::new();
                for (_, pane) in state.panes.range(p_open..p_close) {
                    for (k, acc) in pane {
                        groups.entry(k.clone()).or_default().merge(acc)?;
                    }
                }
                state.windows.insert(
                    range,
                    SlidingWindow {
                        p_open,
                        p_close,
                        groups,
                    },
                );
                state.windows.get_mut(&range).expect("just inserted")
            }
        };

        // Extrema are NEVER carried across slides — the pane holding the
        // current extremum may just have left the window. Recombine them
        // fresh from the window's panes each tick.
        let mut out: BTreeMap<Value, AggAcc> = window
            .groups
            .iter()
            .filter(|(_, acc)| acc.count > 0)
            .map(|(k, acc)| {
                (
                    k.clone(),
                    AggAcc {
                        min: None,
                        max: None,
                        ..acc.clone()
                    },
                )
            })
            .collect();
        if probe.needs_extrema {
            for (_, pane) in state.panes.range(p_open..p_close) {
                for (k, acc) in pane {
                    if let Some(g) = out.get_mut(k) {
                        g.min = match (g.min, acc.min) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        g.max = match (g.max, acc.max) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            (a, b) => a.or(b),
                        };
                    }
                }
            }
        }
        let table = groups_to_table(&out, cols.key_type, probe.needs_extrema)?;
        Ok((table, warm))
    }
}

fn fold_row(
    panes: &mut BTreeMap<i64, BTreeMap<Value, AggAcc>>,
    probe: &PaneProbe,
    cols: &ProbeCols,
    row: &[Value],
) -> Result<(), SqlError> {
    let Some(ts) = row[cols.ts].as_i64() else {
        return Ok(());
    };
    panes
        .entry(probe.pane_of(ts))
        .or_default()
        .entry(row[cols.key].clone())
        .or_default()
        .observe(&row[cols.val])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::novelty::{NoveltyOverlay, NoveltyScope};
    use crate::table::table_of;
    use std::sync::Arc;

    fn probe(open: i64, close: i64, width: i64) -> PaneProbe {
        PaneProbe {
            stream: "s".into(),
            ts_col: "ts".into(),
            key_col: "k".into(),
            val_col: "v".into(),
            width_ms: width,
            start_ms: 0,
            open_ms: open,
            close_ms: close,
            needs_extrema: true,
        }
    }

    fn stream_db(rows: Vec<(i64, i64, f64)>) -> Database {
        let mut db = Database::new();
        db.put_table(
            "s",
            table_of(
                "s",
                &[
                    ("ts", ColumnType::Timestamp),
                    ("k", ColumnType::Int),
                    ("v", ColumnType::Float),
                ],
                rows.into_iter()
                    .map(|(ts, k, v)| vec![Value::Timestamp(ts), Value::Int(k), Value::Float(v)])
                    .collect(),
            )
            .unwrap(),
        );
        db
    }

    fn by_key(t: &Table) -> BTreeMap<i64, (i64, f64, Option<f64>, Option<f64>)> {
        t.rows
            .iter()
            .map(|r| {
                (
                    r[0].as_i64().unwrap(),
                    (
                        r[1].as_i64().unwrap(),
                        r[2].as_i64().unwrap() as f64 + r[3].as_f64().unwrap(),
                        r[4].as_f64(),
                        r[5].as_f64(),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn pane_indexing_matches_interval_convention() {
        let p = probe(0, 10, 5);
        // Pane 0 covers (0, 5]: ts=1..=5 land there, ts=6 in pane 1.
        assert_eq!(p.pane_of(1), 0);
        assert_eq!(p.pane_of(5), 0);
        assert_eq!(p.pane_of(6), 1);
        assert_eq!(p.pane_of(0), -1);
        assert_eq!(p.pane_of(-3), -1);
        assert_eq!(p.pane_run(), Some((0, 2)));
        assert_eq!(probe(3, 10, 5).pane_run(), None, "misaligned open");
    }

    #[test]
    fn store_matches_storeless_reference() {
        let db = stream_db((0..200).map(|i| (i * 10, i % 3, (i % 7) as f64)).collect());
        let store = PaneStore::new();
        for close in [500, 1000, 1500, 1900] {
            let p = probe(close - 500, close, 100);
            let (paned, _) = store.combine(&p, &db).unwrap();
            let reference = compute_window_aggregates(&p, &db).unwrap();
            assert_eq!(by_key(&paned), by_key(&reference), "close={close}");
        }
        let (hits, misses) = store.stats();
        assert_eq!(misses, 1, "only the first touch folds the base");
        assert_eq!(hits, 3);
    }

    #[test]
    fn extrema_are_not_cached_across_slides() {
        // A spike of 99.0 at ts=100; after the window slides past it the
        // max must drop back to the ambient values.
        let mut rows: Vec<(i64, i64, f64)> = (1..=60).map(|i| (i * 10, 0, 1.0)).collect();
        rows.push((100, 0, 99.0));
        let db = stream_db(rows);
        let store = PaneStore::new();
        let spike = store.combine(&probe(0, 200, 100), &db).unwrap().0;
        assert_eq!(by_key(&spike)[&0].3, Some(99.0), "spike inside window");
        let after = store.combine(&probe(200, 400, 100), &db).unwrap().0;
        assert_eq!(
            by_key(&after)[&0].3,
            Some(1.0),
            "stale maximum must not survive the pane sliding out"
        );
        // The additive path agrees with a fresh rescan too.
        assert_eq!(
            by_key(&after),
            by_key(&compute_window_aggregates(&probe(200, 400, 100), &db).unwrap())
        );
    }

    #[test]
    fn overlay_rows_fold_incrementally_and_only_once() {
        let db = stream_db((0..50).map(|i| (i * 10, i % 2, 1.0)).collect());
        let store = PaneStore::new();
        let p = probe(0, 500, 100);
        let (cold, _) = store.combine(&p, &db).unwrap();
        // Key 0: i ∈ {2,4,…,48} (ts=0 sits on the exclusive open bound).
        assert_eq!(by_key(&cold)[&0].0, 24);

        // Append rows through a novelty overlay and re-probe at the new
        // epoch: the suffix folds in exactly once.
        let overlay = NoveltyOverlay::empty().with_rows(
            "s",
            vec![vec![
                Value::Timestamp(495),
                Value::Int(0),
                Value::Float(5.0),
            ]],
        );
        let mut view = db.clone();
        view.set_novelty(Some(Arc::clone(&overlay)));
        for _ in 0..3 {
            let (warm, hit) = store.combine(&p, &view).unwrap();
            assert!(hit);
            let got = by_key(&warm)[&0];
            assert_eq!(got.0, 25, "overlay row counted exactly once");
            assert_eq!(got.1, 29.0);
            assert_eq!(
                by_key(&warm),
                by_key(&compute_window_aggregates(&p, &view).unwrap())
            );
        }

        // Probing back at the pre-append epoch answers store-lessly (the
        // cache never rewinds) and still matches the reference.
        let (old, hit) = store.combine(&p, &db).unwrap();
        assert!(!hit);
        assert_eq!(by_key(&old)[&0].0, 24);
    }

    #[test]
    fn scoped_overlay_rows_fold_shard_local() {
        let db = stream_db((0..40).map(|i| (i * 10, i % 4, 1.0)).collect());
        let overlay = NoveltyOverlay::empty().with_rows(
            "s",
            (0..8)
                .map(|i| vec![Value::Timestamp(395), Value::Int(i), Value::Float(2.0)])
                .collect(),
        );
        let shards = 2;
        let mut total = 0i64;
        for shard in 0..shards {
            let mut view = db.clone();
            view.set_novelty(Some(Arc::clone(&overlay)));
            view.set_novelty_scope(Some(Arc::new(NoveltyScope {
                shard,
                shards,
                keys: [("s".to_string(), 1usize)].into_iter().collect(),
            })));
            let store = PaneStore::new();
            let (t, _) = store.combine(&probe(0, 400, 100), &view).unwrap();
            let reference = compute_window_aggregates(&probe(0, 400, 100), &view).unwrap();
            assert_eq!(by_key(&t), by_key(&reference));
            // Sum the per-shard counts for key 0: shard filtering must
            // cover each overlay row exactly once across the pool.
            total += t
                .rows
                .iter()
                .filter(|r| r[0] == Value::Int(0))
                .map(|r| r[1].as_i64().unwrap())
                .sum::<i64>();
        }
        // Both views share the *unsharded* base table (9 k=0 rows each —
        // only real pools shard the base), so the exactly-once property
        // under test is the overlay's: the appended k=0 row folds on one
        // shard and only one. 2·9 base + 1 overlay = 19.
        assert_eq!(total, 19);
    }

    #[test]
    fn sliding_window_cache_advances_additively() {
        let db = stream_db((0..1000).map(|i| (i, i % 5, 1.0)).collect());
        let store = PaneStore::new();
        let mut last = None;
        for k in 5..9 {
            let close = k * 100;
            let p = probe(close - 500, close, 100);
            let (t, _) = store.combine(&p, &db).unwrap();
            let reference = compute_window_aggregates(&p, &db).unwrap();
            assert_eq!(by_key(&t), by_key(&reference), "close={close}");
            last = Some(by_key(&t));
        }
        assert_eq!(last.unwrap()[&0].0, 100);
    }

    #[test]
    fn integer_sums_overflow_loudly() {
        let mut db = Database::new();
        db.put_table(
            "s",
            table_of(
                "s",
                &[
                    ("ts", ColumnType::Timestamp),
                    ("k", ColumnType::Int),
                    ("v", ColumnType::Int),
                ],
                vec![
                    vec![Value::Timestamp(1), Value::Int(0), Value::Int(i64::MAX)],
                    vec![Value::Timestamp(2), Value::Int(0), Value::Int(i64::MAX)],
                ],
            )
            .unwrap(),
        );
        let store = PaneStore::new();
        assert!(matches!(
            store.combine(&probe(0, 10, 5), &db),
            Err(SqlError::Overflow(_))
        ));
    }

    #[test]
    fn merge_pane_rows_rebuilds_accumulators() {
        let db = stream_db((0..30).map(|i| (i * 10, i % 2, i as f64)).collect());
        let p = probe(0, 300, 100);
        let t = compute_window_aggregates(&p, &db).unwrap();
        let mut groups = BTreeMap::new();
        merge_pane_rows(&mut groups, &t.rows).unwrap();
        // Merging the same rows twice doubles counts — proof the merge is
        // additive, which is what makes disjoint shard answers safe.
        merge_pane_rows(&mut groups, &t.rows).unwrap();
        assert_eq!(groups[&Value::Int(0)].count, 28);
    }
}

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
//! The store caches one sliding accumulator per window geometry and keeps
//! it current through slides *and* appends, so a warm probe costs what
//! entered, what left and what was appended — flat in the window range:
//!
//! * **slides**: entering panes merge in, leaving panes are subtracted
//!   from the additive fields (COUNT/SUM, and AVG through them). Extrema
//!   (MIN/MAX) cannot be subtracted, and a cached whole-window extremum
//!   going stale is the classic bug (the pane holding the maximum slides
//!   out and the maximum survives) — so a leaving pane *marks* every key
//!   whose extremum it may have held (its own is not strictly inside the
//!   window's), and only the marked keys are recombined from the new
//!   run's panes: O(marked keys × range/w), nothing when no extremum left;
//! * **appends**: a row folded from the overlay log is also observed into
//!   every cached window whose pane run contains the row's pane. A row in
//!   a pane the window has not reached arrives with that pane; a row in a
//!   pane the window already left never mattered to it.
//!
//! A window nobody has asked extrema of does not maintain them. Float sums
//! are exact for whole-valued data; otherwise the add/subtract rounding of
//! a cached window accumulates until the pool (and its stores) is rebuilt.
//!
//! Novelty discipline: a probe executes at a pinned novelty epoch. The
//! store folds the base shard table once, then advances along the overlay
//! lineage by folding only the *suffix* of the append log it has not seen
//! (overlay logs are append-only and order-preserving across successor
//! epochs, so the seen prefix is stable). A probe pinned at an epoch
//! *older* than the cached state answers store-lessly instead — the cache
//! never rewinds, and no overlay row is ever double-counted.

use std::collections::{btree_map, hash_map, BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::SqlError;
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
        self.merge_extrema(other);
        Ok(())
    }

    /// The MIN/MAX half of [`Self::merge`].
    fn merge_extrema(&mut self, other: &AggAcc) {
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Removes a previously-merged accumulator (additive fields only —
    /// extrema cannot be subtracted and are recombined by the caller).
    fn unmerge_additive(&mut self, other: &AggAcc) {
        self.count -= other.count;
        self.sum_i = self.sum_i.wrapping_sub(other.sum_i);
        self.sum_f -= other.sum_f;
    }

    /// Whether `self`, the accumulator of a window that contains the pane
    /// `leaving` summarizes, keeps its extrema when that pane goes: both of
    /// the pane's lie strictly inside the window's, or the pane has none.
    /// A comparison with NaN is false, which lands on the recombining side.
    fn outlasts(&self, leaving: &AggAcc) -> bool {
        match (leaving.min, leaving.max) {
            (Some(low), Some(high)) => {
                self.min.is_some_and(|min| low > min) && self.max.is_some_and(|max| high < max)
            }
            _ => leaving.min.is_none() && leaving.max.is_none(),
        }
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
    /// Whether the answer carries MIN/MAX (a window only ever probed
    /// without them does not maintain them).
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

/// Folds rows into one accumulator per key — the one window → groups fold:
/// [`compute_window_aggregates`] and the STARQL engine's full-window tick
/// both call it, so every path that does not go through a pane store
/// produces bit-identical accumulators.
pub fn fold_groups<'a>(
    rows: impl IntoIterator<Item = &'a Vec<Value>>,
    key_idx: usize,
    val_idx: usize,
) -> Result<BTreeMap<Value, AggAcc>, SqlError> {
    let mut groups: BTreeMap<Value, AggAcc> = BTreeMap::new();
    for row in rows {
        groups
            .entry(row[key_idx].clone())
            .or_default()
            .observe(&row[val_idx])?;
    }
    Ok(groups)
}

/// Store-less reference computation: folds the window's raw rows (base
/// shard + visible overlay rows) directly into per-key accumulators.
/// The coordinator-fallback path of [`crate::PlanFragment::execute`] and
/// the store's own decline path share this.
pub fn compute_window_aggregates(probe: &PaneProbe, db: &Database) -> Result<Table, SqlError> {
    let cols = resolve_cols(probe, db)?;
    let base = db.table(&probe.stream)?;
    let in_window = |row: &&Vec<Value>| {
        row[cols.ts]
            .as_i64()
            .is_some_and(|ts| ts > probe.open_ms && ts <= probe.close_ms)
    };
    let rows = base.rows.iter().chain(db.novelty_rows(&probe.stream));
    let groups = fold_groups(rows.filter(in_window), cols.key, cols.val)?;
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

/// Cached state of one window geometry: the combined accumulator of every
/// key over the pane run `[p_open, p_close)`, kept current as the window
/// slides and as rows are appended inside it.
struct SlidingWindow {
    p_open: i64,
    p_close: i64,
    groups: BTreeMap<Value, AggAcc>,
    /// Whether `groups` keeps `min`/`max` true across slides. Set once a
    /// probe needs them (the window is rebuilt then) and never cleared.
    extrema: bool,
}

type Panes = BTreeMap<i64, BTreeMap<Value, AggAcc>>;

impl SlidingWindow {
    /// The window over `[p_open, p_close)`, combined from its panes.
    fn build(
        panes: &Panes,
        (p_open, p_close): (i64, i64),
        extrema: bool,
        ops: &mut u64,
    ) -> Result<Self, SqlError> {
        let mut groups: BTreeMap<Value, AggAcc> = BTreeMap::new();
        for (_, pane) in panes.range(p_open..p_close) {
            for (k, acc) in pane {
                groups.entry(k.clone()).or_default().merge(acc)?;
                *ops += 1;
            }
        }
        Ok(SlidingWindow {
            p_open,
            p_close,
            groups,
            extrema,
        })
    }

    /// Advances the window to `[p_open, p_close)`, which must not lie
    /// behind it: subtracts the panes that leave, merges the panes that
    /// enter, and recombines the extrema of the keys a leaving pane may
    /// have held them for.
    fn slide_to(
        &mut self,
        panes: &Panes,
        (p_open, p_close): (i64, i64),
        ops: &mut u64,
    ) -> Result<(), SqlError> {
        let mut marked: Vec<&Value> = Vec::new();
        for (_, pane) in panes.range(self.p_open..p_open.min(self.p_close)) {
            for (k, acc) in pane {
                *ops += 1;
                let Some(g) = self.groups.get_mut(k) else {
                    continue;
                };
                g.unmerge_additive(acc);
                if g.count == 0 {
                    self.groups.remove(k);
                } else if self.extrema && !g.outlasts(acc) {
                    marked.push(k);
                }
            }
        }
        for (_, pane) in panes.range(self.p_close.max(p_open)..p_close) {
            for (k, acc) in pane {
                self.groups.entry(k.clone()).or_default().merge(acc)?;
                *ops += 1;
            }
        }
        marked.sort_unstable();
        marked.dedup();
        for k in marked {
            // Gone with its last pane, unless an entering pane brought it
            // back — then its extrema are the entering panes' already.
            let Some(g) = self.groups.get_mut(k) else {
                continue;
            };
            (g.min, g.max) = (None, None);
            for (_, pane) in panes.range(p_open..p_close) {
                *ops += 1;
                if let Some(acc) = pane.get(k) {
                    g.merge_extrema(acc);
                }
            }
        }
        (self.p_open, self.p_close) = (p_open, p_close);
        Ok(())
    }
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
    panes: Panes,
    /// range_ms → cached window state.
    windows: BTreeMap<i64, SlidingWindow>,
}

impl GridState {
    /// Folds one raw row into its pane and into every cached window whose
    /// run contains that pane.
    fn fold_row(
        &mut self,
        probe: &PaneProbe,
        cols: &ProbeCols,
        row: &[Value],
        ops: &mut u64,
    ) -> Result<(), SqlError> {
        let Some(ts) = row[cols.ts].as_i64() else {
            return Ok(());
        };
        let pane = probe.pane_of(ts);
        let (key, val) = (&row[cols.key], &row[cols.val]);
        let slot = self.panes.entry(pane).or_default();
        slot.entry(key.clone()).or_default().observe(val)?;
        *ops += 1;
        for w in self.windows.values_mut() {
            if (w.p_open..w.p_close).contains(&pane) {
                w.groups.entry(key.clone()).or_default().observe(val)?;
                *ops += 1;
            }
        }
        Ok(())
    }

    /// Brings the state up to `db`'s overlay and answers `probe` over the
    /// pane run `run`.
    fn answer(
        &mut self,
        probe: &PaneProbe,
        cols: &ProbeCols,
        db: &Database,
        run: (i64, i64),
        ops: &mut u64,
    ) -> Result<Table, SqlError> {
        // Advance along the overlay lineage: fold only the unseen suffix
        // of the append log (this worker's shard of it).
        let log_len = overlay_len(db, &probe.stream);
        if log_len > self.overlay_seen {
            for row in db.novelty_rows_from(&probe.stream, self.overlay_seen) {
                self.fold_row(probe, cols, row, ops)?;
            }
            self.overlay_seen = log_len;
        }
        self.epoch = db.novelty_epoch();

        let range = probe.close_ms - probe.open_ms;
        let window = match self.windows.entry(range) {
            btree_map::Entry::Occupied(e)
                if e.get().p_open <= run.0
                    && e.get().p_close <= run.1
                    && (e.get().extrema || !probe.needs_extrema) =>
            {
                let w = e.into_mut();
                w.slide_to(&self.panes, run, ops)?;
                w
            }
            // No window of this range yet, one that lies ahead of the
            // probe, or one that never kept the extrema this probe needs.
            btree_map::Entry::Occupied(mut e) => {
                let extrema = probe.needs_extrema || e.get().extrema;
                e.insert(SlidingWindow::build(&self.panes, run, extrema, ops)?);
                e.into_mut()
            }
            btree_map::Entry::Vacant(e) => e.insert(SlidingWindow::build(
                &self.panes,
                run,
                probe.needs_extrema,
                ops,
            )?),
        };
        groups_to_table(&window.groups, cols.key_type, probe.needs_extrema)
    }
}

/// Rows in the *unfiltered* overlay log of `stream` under `db`.
fn overlay_len(db: &Database, stream: &str) -> usize {
    db.novelty()
        .and_then(|n| n.rows(stream))
        .map_or(0, |log| log.len())
}

/// One worker's shard-local pane store. Keyed by pane grid
/// (`PaneProbe::grid_key`): every window probing the same stream with the
/// same width and origin shares one set of panes.
#[derive(Default)]
pub struct PaneStore {
    grids: Mutex<HashMap<String, GridState>>,
    hits: AtomicU64,
    misses: AtomicU64,
    acc_ops: AtomicU64,
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

    /// Cumulative accumulator operations the store's probes performed:
    /// rows observed into panes and windows, pane partials merged into and
    /// subtracted from windows, and pane look-ups while recombining a
    /// marked key's extrema. The work of a probe, as a count.
    pub fn acc_ops(&self) -> u64 {
        self.acc_ops.load(Ordering::Relaxed)
    }

    /// Answers a pane-combine probe from shard-local panes, maintaining
    /// them incrementally. Returns the answer table plus whether the probe
    /// was a warm hit.
    pub fn combine(&self, probe: &PaneProbe, db: &Database) -> Result<(Table, bool), SqlError> {
        let storeless = || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            Ok((compute_window_aggregates(probe, db)?, false))
        };
        let Some(run) = probe.pane_run() else {
            return storeless();
        };
        let cols = resolve_cols(probe, db)?;
        let mut grids = self.grids.lock().expect("pane store lock");
        let mut ops = 0u64;
        let key = probe.grid_key();
        let warm = match grids.get(&key) {
            // Pinned at an epoch older than the cached state: the cache
            // never rewinds — answer store-lessly.
            Some(state)
                if state.epoch != db.novelty_epoch()
                    && overlay_len(db, &probe.stream) < state.overlay_seen =>
            {
                drop(grids);
                return storeless();
            }
            Some(_) => true,
            None => false,
        };
        let answer = (|| {
            let state = match grids.entry(key.clone()) {
                hash_map::Entry::Occupied(e) => e.into_mut(),
                // First touch: fold the whole base shard into panes once.
                hash_map::Entry::Vacant(e) => {
                    let mut state = GridState {
                        epoch: 0,
                        overlay_seen: 0,
                        panes: BTreeMap::new(),
                        windows: BTreeMap::new(),
                    };
                    for row in &db.table(&probe.stream)?.rows {
                        state.fold_row(probe, &cols, row, &mut ops)?;
                    }
                    e.insert(state)
                }
            };
            state.answer(probe, &cols, db, run, &mut ops)
        })();
        self.acc_ops.fetch_add(ops, Ordering::Relaxed);
        let counter = if warm { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        if answer.is_err() {
            // A fold that failed half-way leaves panes and windows that
            // no longer add up; the next probe folds afresh.
            grids.remove(&key);
        }
        Ok((answer?, warm))
    }
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
                values(rows),
            )
            .unwrap(),
        );
        db
    }

    fn values(rows: Vec<(i64, i64, f64)>) -> Vec<Vec<Value>> {
        rows.into_iter()
            .map(|(ts, k, v)| vec![Value::Timestamp(ts), Value::Int(k), Value::Float(v)])
            .collect()
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

    /// Keys every second of [`widening_second`] reports.
    const KEYS: i64 = 8;

    /// Second `sec` of a 1 Hz stream whose every key reports a new maximum
    /// *and* a new minimum (`±(sec + 1)`), stamped on the second's closing
    /// edge so that it is exactly pane `sec` of a 1 s grid. The pane that
    /// leaves a sliding window over it never holds the window's extrema.
    fn widening_second(sec: i64) -> Vec<(i64, i64, f64)> {
        (0..KEYS)
            .flat_map(|k| {
                let ts = (sec + 1) * 1_000;
                let v = (sec + 1) as f64;
                [(ts, k, v), (ts, k, -v)]
            })
            .collect()
    }

    /// The append-driven loop the platform runs, against one store: before
    /// step `i` the batch `batches[i]` joins the overlay, then a SUM probe
    /// and a MAX probe read the `range_s` window closing `i + 1` seconds
    /// after `first_close_s`. Every answer is checked against the
    /// store-less reference; returns the accumulator operations each step
    /// took.
    fn append_driven_ops(
        base: Vec<(i64, i64, f64)>,
        batches: Vec<Vec<(i64, i64, f64)>>,
        first_close_s: i64,
        range_s: i64,
    ) -> Vec<u64> {
        let db = stream_db(base);
        let store = PaneStore::new();
        let window = |close_s: i64, needs_extrema: bool| PaneProbe {
            needs_extrema,
            ..probe((close_s - range_s) * 1_000, close_s * 1_000, 1_000)
        };
        for needs_extrema in [false, true] {
            store
                .combine(&window(first_close_s, needs_extrema), &db)
                .unwrap();
        }
        let mut overlay = NoveltyOverlay::empty();
        let mut steps = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            overlay = overlay.with_rows("s", values(batch));
            let mut view = db.clone();
            view.set_novelty(Some(Arc::clone(&overlay)));
            let before = store.acc_ops();
            for needs_extrema in [false, true] {
                let p = window(first_close_s + 1 + i as i64, needs_extrema);
                let (got, warm) = store.combine(&p, &view).unwrap();
                assert!(warm, "step {i}");
                assert_eq!(
                    by_key(&got),
                    by_key(&compute_window_aggregates(&p, &view).unwrap()),
                    "range {range_s} s, step {i}, extrema {needs_extrema}"
                );
            }
            steps.push(store.acc_ops() - before);
        }
        steps
    }

    /// O(slide) under the path the platform actually runs — one appended
    /// batch before every probe: a warm step observes the batch into its
    /// pane, merges the pane that enters and subtracts the pane that
    /// leaves, whatever the range.
    #[test]
    fn warm_probe_work_does_not_grow_with_the_range_under_appends() {
        const HISTORY_S: i64 = 210;
        let base: Vec<_> = (0..HISTORY_S).flat_map(widening_second).collect();
        let batches: Vec<_> = (HISTORY_S..HISTORY_S + 20).map(widening_second).collect();
        let per_range: Vec<Vec<u64>> = [2, 20, 200]
            .into_iter()
            .map(|range_s| append_driven_ops(base.clone(), batches.clone(), HISTORY_S, range_s))
            .collect();
        // 2·KEYS rows observed, KEYS partials merged, KEYS subtracted; the
        // MAX probe finds the window the SUM probe just advanced.
        let step = (4 * KEYS) as u64;
        for (range_s, steps) in [2, 20, 200].into_iter().zip(&per_range) {
            assert!(
                steps.iter().all(|&ops| ops == step),
                "{range_s} s: {steps:?}, expected {step} per step"
            );
        }

        // The maximum leaves: key 3 spikes in second 195, which slides out
        // of the 20 s window at step 5 and of the 200 s window never (in
        // this run). That step recombines one key over the run's panes —
        // not every key.
        let mut spiked = base.clone();
        spiked.push((196_000, 3, 1e9));
        for (range_s, leaves_at) in [(20, Some(5)), (200, None)] {
            let steps = append_driven_ops(spiked.clone(), batches.clone(), HISTORY_S, range_s);
            for (i, &ops) in steps.iter().enumerate() {
                let recombined = if Some(i) == leaves_at {
                    range_s as u64
                } else {
                    0
                };
                assert_eq!(ops, step + recombined, "{range_s} s, step {i}: {steps:?}");
            }
        }
    }

    /// Late rows under a cached window: one in a pane inside the window
    /// (observed into it), one in its newest pane, one in a pane it has
    /// already left (ignored by it, kept by the panes), one in a pane it
    /// has not reached (arrives with the pane).
    #[test]
    fn appended_rows_reach_the_cached_windows_that_contain_them() {
        let db = stream_db((0..100).flat_map(widening_second).collect());
        let store = PaneStore::new();
        // Window (90 s, 100 s] = panes 90..100.
        let p = probe(90_000, 100_000, 1_000);
        store.combine(&p, &db).unwrap();
        let late = vec![
            (95_500, 0, 5_000.0),  // inside
            (99_500, 1, -5_000.0), // newest pane
            (80_500, 2, 7_000.0),  // already left
            (100_500, 3, 9_000.0), // not reached
        ];
        let overlay = NoveltyOverlay::empty().with_rows("s", values(late));
        let mut view = db.clone();
        view.set_novelty(Some(overlay));
        let before = store.acc_ops();
        let (got, warm) = store.combine(&p, &view).unwrap();
        assert!(warm);
        assert_eq!(
            store.acc_ops() - before,
            4 + 2,
            "four rows into panes, two of them into the window"
        );
        let got = by_key(&got);
        assert_eq!(got, by_key(&compute_window_aggregates(&p, &view).unwrap()));
        assert_eq!(got[&0].3, Some(5_000.0));
        assert_eq!(got[&1].2, Some(-5_000.0));
        assert_eq!(got[&2].3, Some(100.0), "the window left pane 80 long ago");
        // Sliding on picks up the row that was ahead; reaching back
        // (a rebuild from panes) finds the one that was behind.
        for (open, close) in [(91_000, 101_000), (75_000, 85_000)] {
            let p = probe(open, close, 1_000);
            assert_eq!(
                by_key(&store.combine(&p, &view).unwrap().0),
                by_key(&compute_window_aggregates(&p, &view).unwrap()),
                "({open}, {close}]"
            );
        }
    }

    /// A window only ever probed for COUNT/SUM keeps no extrema and so
    /// recombines none — even over data whose every leaving pane holds the
    /// minimum — until a probe asks for them.
    #[test]
    fn additive_windows_do_not_pay_for_extrema() {
        let rising = |sec: i64| (0..KEYS).map(move |k| ((sec + 1) * 1_000, k, sec as f64));
        let db = stream_db((0..60).flat_map(rising).collect());
        let store = PaneStore::new();
        let sum = |close_s: i64| PaneProbe {
            needs_extrema: false,
            ..probe((close_s - 20) * 1_000, close_s * 1_000, 1_000)
        };
        store.combine(&sum(30), &db).unwrap();
        for close_s in 31..40 {
            let before = store.acc_ops();
            store.combine(&sum(close_s), &db).unwrap();
            assert_eq!(
                store.acc_ops() - before,
                2 * KEYS as u64,
                "close {close_s} s"
            );
        }
        let max = PaneProbe {
            needs_extrema: true,
            ..sum(40)
        };
        let got = by_key(&store.combine(&max, &db).unwrap().0);
        assert_eq!(got, by_key(&compute_window_aggregates(&max, &db).unwrap()));
        assert_eq!(got[&0].2, Some(20.0), "the minimum is the oldest pane's");
        // From here on the window keeps them: each slide loses every key's
        // minimum and recombines it over the run's 20 panes.
        let next = PaneProbe {
            needs_extrema: true,
            ..sum(41)
        };
        let before = store.acc_ops();
        let got = by_key(&store.combine(&next, &db).unwrap().0);
        assert_eq!(store.acc_ops() - before, (2 * KEYS + 20 * KEYS) as u64);
        assert_eq!(got[&0].2, Some(21.0));
    }

    /// A fold that fails half-way must not leave its half behind: the grid
    /// is dropped, and a later probe (here: pinned before the poisonous
    /// rows) folds afresh instead of counting the rows before the failure
    /// twice.
    #[test]
    fn failed_folds_do_not_leave_partial_state() {
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
                vec![vec![Value::Timestamp(1), Value::Int(0), Value::Int(1)]],
            )
            .unwrap(),
        );
        let row = |v: i64| vec![Value::Timestamp(2), Value::Int(0), Value::Int(v)];
        let fine = NoveltyOverlay::empty().with_rows("s", vec![row(2)]);
        let poisoned = fine.with_rows("s", vec![row(i64::MAX), row(i64::MAX)]);
        let at = |overlay: &Arc<NoveltyOverlay>| {
            let mut view = db.clone();
            view.set_novelty(Some(Arc::clone(overlay)));
            view
        };
        let store = PaneStore::new();
        let p = probe(0, 10, 5);
        store.combine(&p, &db).unwrap();
        assert!(matches!(
            store.combine(&p, &at(&poisoned)),
            Err(SqlError::Overflow(_))
        ));
        let (got, warm) = store.combine(&p, &at(&fine)).unwrap();
        assert!(!warm, "the failed grid was dropped");
        let got = by_key(&got)[&0];
        assert_eq!((got.0, got.1), (2, 3.0));
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

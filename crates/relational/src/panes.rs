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
//!   out and the maximum survives) — so each key keeps a *monotone wedge*
//!   per extremum: the `(pane, value)` pairs no later pane of the run
//!   matches or beats, decreasing for MAX and increasing for MIN, the
//!   window's extremum at the front. An entering pane pushes at the back,
//!   popping what it covers (a tie covers: the later pane outlasts the
//!   earlier); a leaving pane pops the front if the front is that pane.
//!   A slide costs O(entering + leaving) amortized, with no term in the
//!   range and none in the ties;
//! * **appends**: a row folded from the overlay log is also observed into
//!   every cached window whose pane run contains the row's pane — and,
//!   where the window keeps extrema, updates that pane's wedge entry and
//!   drops the entries it now covers. A row in a pane the window has not
//!   reached arrives with that pane; a row in a pane the window already
//!   left never mattered to it.
//!
//! A window nobody has asked extrema of keeps no wedges. Integer sums are
//! exact (`i128`), so no fold, merge or slide can fail: whether a window's
//! SUM fits `i64` is decided once, when the window is answered, and only
//! the windows whose SUM leaves it fail. Float sums are exact for
//! whole-valued data; otherwise the add/subtract rounding of a cached
//! window accumulates until the next merge rebases the store
//! ([`PaneStore::rebase`]), which drops the cached windows: they rebuild
//! from the panes, bit for bit what a fresh store's would be.
//!
//! Novelty discipline: a probe executes at a pinned novelty epoch. The
//! store folds the base shard table once, then advances along the overlay
//! lineage by folding only the *suffix* of the append log it has not seen
//! (overlay logs are append-only and order-preserving across successor
//! epochs, so the seen prefix is stable). A probe pinned at an epoch
//! *older* than the cached state answers store-lessly instead — the cache
//! never rewinds, and no overlay row is ever double-counted.
//!
//! A merge folds the overlay into the base, and a worker's shard becomes
//! its old shard followed by the overlay rows that hash to it, in log
//! order. The panes survive it: [`PaneStore::rebase`] folds the suffix of
//! the final overlay a grid has not seen and restarts the grid's overlay
//! cursor, so its panes are exactly what a fresh store folds from the new
//! shard, row for row in the same order.

use std::collections::{btree_map, hash_map, BTreeMap, HashMap, VecDeque};
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
/// sums stay exact whatever the order rows arrive in; float sums are exact
/// for whole-number-valued data, which is what the differential oracle
/// pins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AggAcc {
    /// Non-NULL values observed.
    pub count: i64,
    /// Exact sum of integer-typed values: `i128` holds any sum of `i64`s
    /// that a count of `i64` can reach. An answer row carries it as an
    /// `i64`, or fails with [`SqlError::Overflow`] — never wraps.
    pub sum_i: i128,
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
    pub fn observe(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        match v {
            Value::Int(i) | Value::Timestamp(i) => self.sum_i += i128::from(*i),
            Value::Float(f) => self.sum_f += f,
            _ => return,
        }
        let x = v.as_f64().expect("numeric value");
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Merges another accumulator over a *disjoint* row set in.
    pub fn merge(&mut self, other: &AggAcc) {
        self.count += other.count;
        self.sum_i += other.sum_i;
        self.sum_f += other.sum_f;
        self.merge_extrema(other);
    }

    /// The integer sum as an answer: [`SqlError::Overflow`] when it leaves
    /// `i64`.
    fn sum_i64(&self) -> Result<i64, SqlError> {
        i64::try_from(self.sum_i)
            .map_err(|_| SqlError::Overflow("integer overflow: windowed SUM".into()))
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
    /// extrema cannot be subtracted; a window's wedges keep them).
    fn unmerge_additive(&mut self, other: &AggAcc) {
        self.count -= other.count;
        self.sum_i -= other.sum_i;
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

/// One answer row; the window fails here when its integer SUM leaves
/// `i64`.
fn acc_row(key: &Value, acc: &AggAcc, needs_extrema: bool) -> Result<Vec<Value>, SqlError> {
    let opt = |x: Option<f64>| {
        if needs_extrema {
            x.map_or(Value::Null, Value::Float)
        } else {
            Value::Null
        }
    };
    Ok(vec![
        key.clone(),
        Value::Int(acc.count),
        Value::Int(acc.sum_i64()?),
        Value::Float(acc.sum_f),
        opt(acc.min),
        opt(acc.max),
    ])
}

/// Fails when any group's integer SUM leaves `i64`.
fn check_sums(groups: &BTreeMap<Value, AggAcc>) -> Result<(), SqlError> {
    groups.values().try_for_each(|acc| acc.sum_i64().map(drop))
}

/// Rebuilds the accumulator map from pane-answer rows (the gather side:
/// a coordinator merges per-shard answers — shards hold disjoint rows, so
/// the merge is lossless), and fails when a merged SUM leaves `i64`.
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
            sum_i: row[2].as_i64().unwrap_or(0).into(),
            sum_f: row[3].as_f64().unwrap_or(0.0),
            min: row[4].as_f64(),
            max: row[5].as_f64(),
        };
        groups.entry(row[0].clone()).or_default().merge(&acc);
    }
    check_sums(groups)
}

/// Resolved column indices + key type of a probe against a catalog.
#[derive(Clone, Copy)]
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
/// produces bit-identical accumulators. Fails when a group's integer SUM
/// leaves `i64`.
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
            .observe(&row[val_idx]);
    }
    check_sums(&groups)?;
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
    groups_to_table(groups.iter(), cols.key_type, probe.needs_extrema)
}

fn groups_to_table<'a>(
    groups: impl Iterator<Item = (&'a Value, &'a AggAcc)>,
    key_type: ColumnType,
    needs_extrema: bool,
) -> Result<Table, SqlError> {
    let rows = groups
        .filter(|(_, acc)| acc.count > 0)
        .map(|(k, acc)| acc_row(k, acc, needs_extrema))
        .collect::<Result<_, _>>()?;
    Table::new(pane_result_schema(key_type), rows)
}

/// A monotone wedge: `(pane, extremum)` pairs in pane order, no one of
/// them covered by a later one — so its front is the extremum of the run.
type Wedge = VecDeque<(i64, f64)>;

/// An accumulator's `(min, max)`.
type Extrema = (Option<f64>, Option<f64>);

/// Whether `newer`, the extremum of a later pane, makes `older` unable to
/// be the window's: `older` does not beat it (a tie covers — the later
/// pane outlasts the earlier). `f64::max` / `f64::min` skip a NaN, so a
/// NaN is covered by anything and covers only a NaN.
fn covers(newer: f64, older: f64, is_max: bool) -> bool {
    older.is_nan()
        || (!newer.is_nan()
            && if is_max {
                older <= newer
            } else {
                older >= newer
            })
}

/// Pushes the extremum of the pane entering at the back, popping what it
/// covers.
fn wedge_enter(wedge: &mut Wedge, pane: i64, value: f64, is_max: bool, ops: &mut u64) {
    while wedge
        .back()
        .is_some_and(|&(_, older)| covers(value, older, is_max))
    {
        wedge.pop_back();
        *ops += 1;
    }
    wedge.push_back((pane, value));
    *ops += 1;
}

/// A late row raised the extremum of `pane`, inside the window, to
/// `value`: updates the pane's entry (or inserts it, unless a later pane
/// covers it) and drops the earlier entries it now covers.
fn wedge_raise(wedge: &mut Wedge, pane: i64, value: f64, is_max: bool, ops: &mut u64) {
    let mut at = wedge.partition_point(|&(p, _)| p < pane);
    match wedge.get(at) {
        Some(&(p, _)) if p == pane => wedge[at].1 = value,
        Some(&(_, later)) if covers(later, value, is_max) => return,
        _ => wedge.insert(at, (pane, value)),
    }
    *ops += 1;
    while at > 0 && covers(value, wedge[at - 1].1, is_max) {
        wedge.remove(at - 1);
        at -= 1;
        *ops += 1;
    }
}

/// One key of a cached window: its accumulator over the run and, when
/// the window keeps extrema, the wedges its `min`/`max` are read from.
#[derive(Default)]
struct Group {
    acc: AggAcc,
    max: Wedge,
    min: Wedge,
}

impl Group {
    /// Pane `pane`, summarized by `acc`, enters the run.
    fn enter(&mut self, pane: i64, acc: &AggAcc, ops: &mut u64) {
        if let Some(high) = acc.max {
            wedge_enter(&mut self.max, pane, high, true, ops);
        }
        if let Some(low) = acc.min {
            wedge_enter(&mut self.min, pane, low, false, ops);
        }
    }

    /// Pane `pane`, the oldest of the run, leaves it: the extrema become
    /// the wedges' new fronts (the entering panes merge in after).
    fn leave(&mut self, pane: i64, ops: &mut u64) {
        for wedge in [&mut self.max, &mut self.min] {
            if wedge.front().is_some_and(|&(p, _)| p == pane) {
                wedge.pop_front();
                *ops += 1;
            }
        }
        self.acc.max = self.max.front().map(|&(_, high)| high);
        self.acc.min = self.min.front().map(|&(_, low)| low);
    }

    /// A late row moved pane `pane`'s extrema from `(min, max)` to
    /// `pane_acc`'s.
    fn raise(&mut self, pane: i64, (min, max): Extrema, pane_acc: &AggAcc, ops: &mut u64) {
        if let Some(high) = pane_acc.max.filter(|_| pane_acc.max != max) {
            wedge_raise(&mut self.max, pane, high, true, ops);
        }
        if let Some(low) = pane_acc.min.filter(|_| pane_acc.min != min) {
            wedge_raise(&mut self.min, pane, low, false, ops);
        }
    }
}

/// Cached state of one window geometry: the combined accumulator of every
/// key over the pane run `[p_open, p_close)`, kept current as the window
/// slides and as rows are appended inside it.
struct SlidingWindow {
    p_open: i64,
    p_close: i64,
    groups: BTreeMap<Value, Group>,
    /// Whether the groups keep wedges, and so `min`/`max` true across
    /// slides. Set once a probe needs them (the window is rebuilt then)
    /// and never cleared.
    extrema: bool,
}

type Panes = BTreeMap<i64, BTreeMap<Value, AggAcc>>;

impl SlidingWindow {
    /// The window over `[p_open, p_close)`, combined from its panes.
    fn build(panes: &Panes, (p_open, p_close): (i64, i64), extrema: bool, ops: &mut u64) -> Self {
        let mut window = SlidingWindow {
            p_open,
            p_close,
            groups: BTreeMap::new(),
            extrema,
        };
        window.merge_panes(panes, p_open..p_close, ops);
        window
    }

    /// Merges the panes of `run` into the window, oldest first.
    fn merge_panes(&mut self, panes: &Panes, run: std::ops::Range<i64>, ops: &mut u64) {
        for (&p, pane) in panes.range(run) {
            for (k, acc) in pane {
                let g = self.groups.entry(k.clone()).or_default();
                g.acc.merge(acc);
                *ops += 1;
                if self.extrema {
                    g.enter(p, acc, ops);
                }
            }
        }
    }

    /// Advances the window to `[p_open, p_close)`, which must not lie
    /// behind it: subtracts the panes that leave (popping them off the
    /// wedges' fronts), then merges the panes that enter.
    fn slide_to(&mut self, panes: &Panes, (p_open, p_close): (i64, i64), ops: &mut u64) {
        for (&p, pane) in panes.range(self.p_open..p_open.min(self.p_close)) {
            for (k, acc) in pane {
                *ops += 1;
                let Some(g) = self.groups.get_mut(k) else {
                    continue;
                };
                g.acc.unmerge_additive(acc);
                if g.acc.count == 0 {
                    // Every pane of the key has left, and its wedges with
                    // them.
                    self.groups.remove(k);
                } else if self.extrema {
                    g.leave(p, ops);
                }
            }
        }
        self.merge_panes(panes, self.p_close.max(p_open)..p_close, ops);
        (self.p_open, self.p_close) = (p_open, p_close);
    }
}

/// Per-grid pane state: the grid's geometry, which data has been folded,
/// the panes themselves, and the cached sliding accumulators (one per
/// window range probing this grid).
struct GridState {
    /// The probe that created the grid: its stream, columns, width and
    /// origin are the grid's (its window bounds are not read).
    geometry: PaneProbe,
    /// `geometry`'s columns, resolved against the stream's schema.
    cols: ProbeCols,
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
    /// An empty grid with `probe`'s geometry.
    fn new(probe: &PaneProbe, cols: ProbeCols) -> Self {
        GridState {
            geometry: probe.clone(),
            cols,
            epoch: 0,
            overlay_seen: 0,
            panes: Panes::new(),
            windows: BTreeMap::new(),
        }
    }

    /// Folds one raw row into its pane and into every cached window whose
    /// run contains that pane.
    fn fold_row(&mut self, row: &[Value], ops: &mut u64) {
        let cols = self.cols;
        let Some(ts) = row[cols.ts].as_i64() else {
            return;
        };
        let pane = self.geometry.pane_of(ts);
        let (key, val) = (&row[cols.key], &row[cols.val]);
        let slot = self.panes.entry(pane).or_default();
        let pane_acc = slot.entry(key.clone()).or_default();
        let before = (pane_acc.min, pane_acc.max);
        pane_acc.observe(val);
        *ops += 1;
        for w in self.windows.values_mut() {
            if (w.p_open..w.p_close).contains(&pane) {
                let g = w.groups.entry(key.clone()).or_default();
                g.acc.observe(val);
                *ops += 1;
                if w.extrema {
                    g.raise(pane, before, pane_acc, ops);
                }
            }
        }
    }

    /// Folds the rows of `db`'s overlay log this grid has not seen (this
    /// worker's shard of them) and moves the state to `db`'s epoch.
    fn catch_up(&mut self, db: &Database, ops: &mut u64) {
        let log_len = overlay_len(db, &self.geometry.stream);
        if log_len > self.overlay_seen {
            for row in db.novelty_rows_from(&self.geometry.stream, self.overlay_seen) {
                self.fold_row(row, ops);
            }
            self.overlay_seen = log_len;
        }
        self.epoch = db.novelty_epoch();
    }

    /// Brings the state up to `db`'s overlay and answers `probe` over the
    /// pane run `run`.
    fn answer(
        &mut self,
        probe: &PaneProbe,
        db: &Database,
        run: (i64, i64),
        ops: &mut u64,
    ) -> Result<Table, SqlError> {
        // Advance along the overlay lineage: fold only the unseen suffix
        // of the append log (this worker's shard of it).
        self.catch_up(db, ops);

        let range = probe.close_ms - probe.open_ms;
        let window = match self.windows.entry(range) {
            btree_map::Entry::Occupied(e)
                if e.get().p_open <= run.0
                    && e.get().p_close <= run.1
                    && (e.get().extrema || !probe.needs_extrema) =>
            {
                let w = e.into_mut();
                w.slide_to(&self.panes, run, ops);
                w
            }
            // No window of this range yet, one that lies ahead of the
            // probe, or one that never kept the extrema this probe needs.
            btree_map::Entry::Occupied(mut e) => {
                let extrema = probe.needs_extrema || e.get().extrema;
                e.insert(SlidingWindow::build(&self.panes, run, extrema, ops));
                e.into_mut()
            }
            btree_map::Entry::Vacant(e) => e.insert(SlidingWindow::build(
                &self.panes,
                run,
                probe.needs_extrema,
                ops,
            )),
        };
        let groups = window.groups.iter().map(|(k, g)| (k, &g.acc));
        groups_to_table(groups, self.cols.key_type, probe.needs_extrema)
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
}

impl PaneStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Answers a pane-combine probe from shard-local panes, maintaining
    /// them incrementally. Returns the answer table plus what this probe
    /// cost: a hit (panes already warm, at most O(slide) incremental
    /// folding) or a miss (a full fold on first touch of a grid, or a
    /// store-less answer — epoch older than the cached state, misaligned
    /// bounds), and the accumulator operations it performed — exact
    /// whatever other probes run on the store meanwhile. A window whose
    /// integer SUM leaves `i64` fails this probe only: the panes and cached
    /// windows stay exact, and every other window of the grid answers.
    pub fn combine(
        &self,
        probe: &PaneProbe,
        db: &Database,
    ) -> Result<(Table, PaneCounts), SqlError> {
        let storeless = || {
            let counts = PaneCounts {
                misses: 1,
                ..PaneCounts::default()
            };
            Ok((compute_window_aggregates(probe, db)?, counts))
        };
        let Some(run) = probe.pane_run() else {
            return storeless();
        };
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
        let state = match grids.entry(key) {
            hash_map::Entry::Occupied(e) => e.into_mut(),
            // First touch: fold the whole base shard into panes once.
            hash_map::Entry::Vacant(e) => {
                let mut state = GridState::new(probe, resolve_cols(probe, db)?);
                for row in &db.table(&probe.stream)?.rows {
                    state.fold_row(row, &mut ops);
                }
                e.insert(state)
            }
        };
        let answer = state.answer(probe, db, run, &mut ops)?;
        let counts = PaneCounts {
            hits: warm as u64,
            misses: !warm as u64,
            acc_ops: ops,
        };
        Ok((answer, counts))
    }

    /// Moves this store's grids into a store over the shard a merge makes
    /// of this worker's: its base shard followed by the overlay rows that
    /// hash to it, in log order. `db` is this worker's catalog with the
    /// merge's final overlay installed. Each grid over a stream `carries`
    /// admits (one whose shard is extended, not re-partitioned) folds the
    /// suffix of that overlay it has not seen and restarts at the empty
    /// overlay — its panes are then a fresh store's over the new shard —
    /// and drops its cached windows, which rebuild from the panes when
    /// next probed. Every other grid is dropped. This store is left empty:
    /// a probe still running over the old shard folds it afresh.
    pub fn rebase(&self, db: &Database, carries: impl Fn(&str) -> bool) -> PaneStore {
        let grids = std::mem::take(&mut *self.grids.lock().expect("pane store lock"));
        let mut ops = 0u64;
        let grids = grids
            .into_iter()
            .filter(|(_, grid)| carries(&grid.geometry.stream))
            .map(|(key, mut grid)| {
                grid.windows.clear();
                grid.catch_up(db, &mut ops);
                (grid.epoch, grid.overlay_seen) = (0, 0);
                (key, grid)
            })
            .collect();
        PaneStore {
            grids: Mutex::new(grids),
        }
    }

    /// Panes held across this store's grids.
    pub fn live_panes(&self) -> usize {
        let grids = self.grids.lock().expect("pane store lock");
        grids.values().map(|grid| grid.panes.len()).sum()
    }
}

/// What answering pane probes cost, summable across probes and workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PaneCounts {
    /// Probes answered from panes that were already warm.
    pub hits: u64,
    /// Probes that folded a grid from scratch or answered store-lessly.
    pub misses: u64,
    /// Accumulator operations performed: rows observed into panes and
    /// windows, pane partials merged into and subtracted from windows, and
    /// wedge entries pushed, updated in place or popped — the work of a
    /// probe, as a count.
    pub acc_ops: u64,
}

impl std::ops::AddAssign for PaneCounts {
    fn add_assign(&mut self, other: PaneCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.acc_ops += other.acc_ops;
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
        let mut total = PaneCounts::default();
        for close in [500, 1000, 1500, 1900] {
            let p = probe(close - 500, close, 100);
            let (paned, counts) = store.combine(&p, &db).unwrap();
            total += counts;
            let reference = compute_window_aggregates(&p, &db).unwrap();
            assert_eq!(by_key(&paned), by_key(&reference), "close={close}");
        }
        assert_eq!(total.misses, 1, "only the first touch folds the base");
        assert_eq!(total.hits, 3);
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
            let (warm, counts) = store.combine(&p, &view).unwrap();
            assert_eq!(counts.hits, 1);
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
        let (old, counts) = store.combine(&p, &db).unwrap();
        assert_eq!((counts.hits, counts.misses), (0, 1));
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
            let mut ops = 0;
            for needs_extrema in [false, true] {
                let p = window(first_close_s + 1 + i as i64, needs_extrema);
                let (got, counts) = store.combine(&p, &view).unwrap();
                assert_eq!(counts.hits, 1, "step {i}");
                ops += counts.acc_ops;
                assert_eq!(
                    by_key(&got),
                    by_key(&compute_window_aggregates(&p, &view).unwrap()),
                    "range {range_s} s, step {i}, extrema {needs_extrema}"
                );
            }
            steps.push(ops);
        }
        steps
    }

    /// Distinct values in [`tied_second`].
    const ALPHABET: i64 = 4;

    /// Second `sec` of a 1 Hz stream whose every key reports two readings
    /// from a small integer alphabet: every window holds its extrema many
    /// times over, and the pane that leaves often holds one of them.
    fn tied_second(sec: i64) -> Vec<(i64, i64, f64)> {
        (0..KEYS)
            .flat_map(|k| {
                let ts = (sec + 1) * 1_000;
                let mix = |salt: i64| (sec * 7_919 + k * 104_729 + salt).wrapping_mul(0x9E37) >> 5;
                [0, 1].map(|salt| (ts, k, mix(salt).rem_euclid(ALPHABET) as f64))
            })
            .collect()
    }

    /// O(slide) under the path the platform actually runs — one appended
    /// batch before every probe: a warm step observes the batch into its
    /// pane, merges the pane that enters and subtracts the pane that
    /// leaves, and moves the extrema wedges by what entered and left —
    /// whatever the range, ties included.
    #[test]
    fn warm_probe_work_does_not_grow_with_the_range_under_appends() {
        const HISTORY_S: i64 = 210;
        let base: Vec<_> = (0..HISTORY_S).flat_map(widening_second).collect();
        let batches: Vec<_> = (HISTORY_S..HISTORY_S + 20).map(widening_second).collect();
        let per_range: Vec<Vec<u64>> = [2, 20, 200]
            .into_iter()
            .map(|range_s| append_driven_ops(base.clone(), batches.clone(), HISTORY_S, range_s))
            .collect();
        // Per key: 2 rows observed, 1 partial merged, 1 subtracted, and the
        // entering pane pops the newest entry off each wedge and pushes its
        // own (the widening values leave one entry per wedge); the MAX probe
        // finds the window the SUM probe just advanced.
        let step = (8 * KEYS) as u64;
        for (range_s, steps) in [2, 20, 200].into_iter().zip(&per_range) {
            assert!(
                steps.iter().all(|&ops| ops == step),
                "{range_s} s: {steps:?}, expected {step} per step"
            );
        }

        // The maximum leaves: key 3 spikes in second 195, which slides out
        // of the 20 s window at step 5 and of the 200 s window never (in
        // this run). That step pops one wedge front — no recombination.
        let mut spiked = base.clone();
        spiked.push((196_000, 3, 1e9));
        for (range_s, leaves_at) in [(20, Some(5)), (200, None)] {
            let steps = append_driven_ops(spiked.clone(), batches.clone(), HISTORY_S, range_s);
            for (i, &ops) in steps.iter().enumerate() {
                let popped = (Some(i) == leaves_at) as u64;
                assert_eq!(ops, step + popped, "{range_s} s, step {i}: {steps:?}");
            }
        }

        // Ties: every window holds its maximum and its minimum several
        // times, and a leaving pane often holds one. A step stays within
        // what entered and left — 2 rows, 1 merge, 1 subtraction, the two
        // fronts popped, and per wedge one push plus at most the alphabet
        // in pops — at every range.
        let base: Vec<_> = (0..HISTORY_S).flat_map(tied_second).collect();
        let batches: Vec<_> = (HISTORY_S..HISTORY_S + 20).map(tied_second).collect();
        let bound = (KEYS * (2 + 1 + 1 + 2 + 2 * (1 + ALPHABET))) as u64;
        for range_s in [2, 20, 200] {
            let steps = append_driven_ops(base.clone(), batches.clone(), HISTORY_S, range_s);
            assert!(
                steps.iter().all(|&ops| ops <= bound),
                "{range_s} s: {steps:?}, expected at most {bound} per step"
            );
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
        let (got, counts) = store.combine(&p, &view).unwrap();
        assert_eq!(counts.hits, 1);
        assert_eq!(
            counts.acc_ops,
            4 + 2 + 2,
            "four rows into panes, two of them into the window, each of those \
             two moving one wedge entry"
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

    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases()))]

        /// Whole-valued appends from a small alphabet (ties everywhere),
        /// with rows late inside the cached windows, at their newest pane
        /// and behind them, keys that fall silent for longer than a range,
        /// and appends that jump the clock by several panes: at every probe
        /// the wedges' MIN/MAX — and every other field — equal a rescan's,
        /// for two extrema-keeping windows and an additive one on one grid.
        #[test]
        fn wedge_extrema_equal_a_rescan_under_appends(
            range_s in 1i64..6,
            steps in proptest::collection::vec(
                (1i64..4, proptest::collection::vec((0i64..4, 0usize..5, 0i64..6), 0..7)),
                5..40,
            ),
        ) {
            let db = stream_db(Vec::new());
            let store = PaneStore::new();
            let mut overlay = NoveltyOverlay::empty();
            let mut now_s = 10;
            for (advance, rows) in steps {
                now_s += advance;
                let batch = rows
                    .iter()
                    .map(|&(key, lateness, value)| {
                        let back_ms = [0, 300, 1_000, 2_500, 15_000][lateness];
                        (now_s * 1_000 - back_ms, key, value as f64)
                    })
                    .collect();
                overlay = overlay.with_rows("s", values(batch));
                let mut view = db.clone();
                view.set_novelty(Some(Arc::clone(&overlay)));
                for (range, needs_extrema) in [(range_s, true), (range_s + 3, true), (range_s + 1, false)] {
                    let p = PaneProbe {
                        needs_extrema,
                        ..probe((now_s - range) * 1_000, now_s * 1_000, 1_000)
                    };
                    let got = by_key(&store.combine(&p, &view).unwrap().0);
                    let want = by_key(&compute_window_aggregates(&p, &view).unwrap());
                    proptest::prop_assert_eq!(
                        &got,
                        &want,
                        "({}, {}]: store {:?}, rescan {:?}",
                        p.open_ms,
                        p.close_ms,
                        got,
                        want
                    );
                }
            }
        }
    }

    /// Every pane of `store`, as `(grid, pane, key, count, sum_i, sum_f,
    /// min, max)` with the floats as bits: equal dumps are bit-identical
    /// panes.
    #[allow(clippy::type_complexity)]
    fn pane_bits(
        store: &PaneStore,
    ) -> Vec<(String, i64, Value, i64, i128, u64, Option<u64>, Option<u64>)> {
        let grids = store.grids.lock().unwrap();
        let mut out = Vec::new();
        for (grid, state) in grids.iter() {
            for (&pane, accs) in &state.panes {
                for (key, acc) in accs {
                    out.push((
                        grid.clone(),
                        pane,
                        key.clone(),
                        acc.count,
                        acc.sum_i,
                        acc.sum_f.to_bits(),
                        acc.min.map(f64::to_bits),
                        acc.max.map(f64::to_bits),
                    ));
                }
            }
        }
        out.sort_by(|a, b| (&a.0, a.1, &a.2).cmp(&(&b.0, b.1, &b.2)));
        out
    }

    /// An answer's rows with every float as its bits.
    fn answer_bits(t: &Table) -> Vec<Vec<String>> {
        (t.rows.iter())
            .map(|row| {
                (row.iter())
                    .map(|v| match v {
                        Value::Float(f) => format!("f{:x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases()))]

        /// A merge's rebase is a fresh store over the merged shard: a
        /// worker's store probes its shard through some of an overlay's
        /// batches, the merge rebases it past the rest (the unseen suffix),
        /// and its panes are then bit for bit those a fresh store folds from
        /// the worker's new shard — its old shard followed by the overlay
        /// rows hashing to it, in log order — whatever the float values, the
        /// late rows or the shard. So are the answers of both stores, at the
        /// merge and through appends after it, and the rebased store's
        /// probes are hits from the first.
        #[test]
        fn a_rebased_store_is_a_fresh_store_over_the_merged_shard(
            base in proptest::collection::vec((0i64..30, 0i64..6, 0i64..1_000), 0..40),
            batches in proptest::collection::vec(
                proptest::collection::vec((0i64..6, 0usize..5, 0i64..1_000), 0..6),
                1..8,
            ),
            after in proptest::collection::vec(
                proptest::collection::vec((0i64..6, 0usize..5, 0i64..1_000), 0..6),
                1..4,
            ),
            seen in 0usize..8,
            shards in 1usize..3,
        ) {
            let row = |ts: i64, key: i64, milli: i64| {
                vec![Value::Timestamp(ts), Value::Int(key), Value::Float(milli as f64 / 7.0)]
            };
            // Batch `i` lands at second 30 + i; a row may be late by up
            // to 15 s.
            let batch_rows = |i: usize, batch: &[(i64, usize, i64)]| -> Vec<Vec<Value>> {
                let now = (30 + i as i64) * 1_000;
                (batch.iter())
                    .map(|&(key, late, milli)| {
                        row(now - [0, 300, 1_000, 2_500, 15_000][late], key, milli)
                    })
                    .collect()
            };
            let probes = |close_s: i64| {
                [(4, true), (9, false)].map(|(range_s, needs_extrema)| PaneProbe {
                    needs_extrema,
                    ..probe((close_s - range_s) * 1_000, close_s * 1_000, 1_000)
                })
            };
            let seen = seen.min(batches.len());
            for shard in 0..shards {
                let scope = Arc::new(NoveltyScope {
                    shard,
                    shards,
                    keys: [("s".to_string(), 1usize)].into_iter().collect(),
                });
                let on_shard = |r: &Vec<Value>| crate::fragment::shard_of(&r[1], shards) == shard;
                let worker = |rows: Vec<Vec<Value>>, overlay: Option<&Arc<NoveltyOverlay>>| {
                    let mut db = stream_db(Vec::new());
                    let schema = db.table("s").unwrap().schema.clone();
                    db.put_table("s", Table::new(schema, rows).unwrap());
                    db.set_novelty(overlay.cloned());
                    db.set_novelty_scope(Some(Arc::clone(&scope)));
                    db
                };
                let old_shard: Vec<Vec<Value>> = (base.iter())
                    .map(|&(sec, key, milli)| row(sec * 1_000 + 500, key, milli))
                    .filter(|r| on_shard(r))
                    .collect();
                let store = PaneStore::new();
                let mut overlay = NoveltyOverlay::empty();
                for (i, batch) in batches.iter().enumerate() {
                    overlay = overlay.with_rows("s", batch_rows(i, batch));
                    if i < seen {
                        let view = worker(old_shard.clone(), Some(&overlay));
                        for p in probes(30 + i as i64) {
                            store.combine(&p, &view).unwrap();
                        }
                    }
                }
                let carried = store
                    .rebase(&worker(old_shard.clone(), Some(&overlay)), |stream| stream == "s");
                proptest::prop_assert!(store.grids.lock().unwrap().is_empty());
                let mut new_shard = old_shard.clone();
                let log = overlay.rows("s").cloned().unwrap_or_default();
                new_shard.extend(log.iter().filter(|r| on_shard(r)).cloned());
                let merged = worker(new_shard.clone(), None);
                let fresh = PaneStore::new();
                let mut overlay = NoveltyOverlay::empty();
                // The rebased store holds the grid if the old one did.
                let mut warm = seen > 0;
                for (k, batch) in std::iter::once(&Vec::new()).chain(&after).enumerate() {
                    let clock_s = 30 + (batches.len() + k) as i64;
                    let view = if k == 0 {
                        merged.clone()
                    } else {
                        overlay = overlay.with_rows("s", batch_rows(batches.len() + k, batch));
                        worker(new_shard.clone(), Some(&overlay))
                    };
                    for p in probes(clock_s) {
                        let (got, counts) = carried.combine(&p, &view).unwrap();
                        let (want, _) = fresh.combine(&p, &view).unwrap();
                        proptest::prop_assert_eq!(answer_bits(&got), answer_bits(&want));
                        proptest::prop_assert_eq!(counts.hits, warm as u64);
                        warm = true;
                    }
                    if k == 0 {
                        proptest::prop_assert_eq!(pane_bits(&carried), pane_bits(&fresh));
                    }
                }
            }
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
            let (_, counts) = store.combine(&sum(close_s), &db).unwrap();
            assert_eq!(counts.acc_ops, 2 * KEYS as u64, "close {close_s} s");
        }
        let max = PaneProbe {
            needs_extrema: true,
            ..sum(40)
        };
        let got = by_key(&store.combine(&max, &db).unwrap().0);
        assert_eq!(got, by_key(&compute_window_aggregates(&max, &db).unwrap()));
        assert_eq!(got[&0].2, Some(20.0), "the minimum is the oldest pane's");
        // From here on the window keeps them: each slide loses every key's
        // minimum with its oldest pane — the front of a MIN wedge that holds
        // the whole rising run — and the entering pane replaces the one
        // entry of the MAX wedge: per key one subtraction, one merge, one
        // pop off the MIN front and three wedge moves at the back.
        let next = PaneProbe {
            needs_extrema: true,
            ..sum(41)
        };
        let (got, counts) = store.combine(&next, &db).unwrap();
        assert_eq!(counts.acc_ops, (6 * KEYS) as u64);
        let got = by_key(&got);
        assert_eq!(got[&0].2, Some(21.0));
    }

    /// A stream table of key 0 with an INT value column: `(ts, v)` rows.
    fn int_stream(rows: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        let columns = [
            ("ts", ColumnType::Timestamp),
            ("k", ColumnType::Int),
            ("v", ColumnType::Int),
        ];
        db.put_table("s", table_of("s", &columns, int_rows(rows)).unwrap());
        db
    }

    fn int_rows(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
        (rows.iter())
            .map(|&(ts, v)| vec![Value::Timestamp(ts), Value::Int(0), Value::Int(v)])
            .collect()
    }

    /// Rows that take a window's SUM past `i64` fail its answer, not the
    /// store: a probe pinned before them answers store-lessly and exactly,
    /// and rows that bring the SUM back make the same warm window answer
    /// again, every row counted once.
    #[test]
    fn failed_folds_do_not_leave_partial_state() {
        let db = int_stream(&[(1, 1)]);
        let fine = NoveltyOverlay::empty().with_rows("s", int_rows(&[(2, 2)]));
        let poisoned = fine.with_rows("s", int_rows(&[(2, i64::MAX), (2, i64::MAX)]));
        let healed = poisoned.with_rows("s", int_rows(&[(3, i64::MIN), (3, i64::MIN)]));
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
        let (got, counts) = store.combine(&p, &at(&fine)).unwrap();
        assert_eq!(counts.misses, 1, "pinned before the poison: store-less");
        let got = by_key(&got)[&0];
        assert_eq!((got.0, got.1), (2, 3.0));
        let (got, counts) = store.combine(&p, &at(&healed)).unwrap();
        assert_eq!(counts.hits, 1);
        assert_eq!(got.rows[0][1..3], [Value::Int(6), Value::Int(1)]);
    }

    /// A late row takes a cached long window's SUM past `i64`: the probe
    /// of a short window on the same grid folds that row, and answers; the
    /// long window's probe alone fails, as its rescan does; the short
    /// window's next probe is warm.
    #[test]
    fn a_late_overflow_fails_only_the_window_it_lands_in() {
        let db = int_stream(&[(500, i64::MAX - 10), (9_500, 1)]);
        let store = PaneStore::new();
        let long = probe(0, 10_000, 1_000);
        for p in [&long, &probe(8_000, 10_000, 1_000)] {
            store.combine(p, &db).unwrap();
        }
        let mut view = db.clone();
        view.set_novelty(Some(
            NoveltyOverlay::empty().with_rows("s", int_rows(&[(5_500, 100)])),
        ));
        for (close, hits) in [(10_000, 1), (11_000, 1)] {
            let short = probe(close - 2_000, close, 1_000);
            let (got, counts) = store.combine(&short, &view).unwrap();
            assert_eq!((counts.hits, counts.misses), (hits, 0), "close {close}");
            let rescan = compute_window_aggregates(&short, &view).unwrap();
            assert_eq!(got.rows, rescan.rows, "close {close}");
            if close == 10_000 {
                for answer in [
                    store.combine(&long, &view).map(drop),
                    compute_window_aggregates(&long, &view).map(drop),
                ] {
                    assert!(matches!(answer, Err(SqlError::Overflow(_))), "{answer:?}");
                }
            }
        }
    }

    /// Two `i64::MAX` rows in one pane fail exactly the windows that hold
    /// that pane, and the grid answers past them: a window whose rows climb
    /// past `i64::MAX` and come back (`MAX, +1, −1`) answers `MAX` from
    /// panes and from a rescan alike.
    #[test]
    fn an_overflowing_pane_fails_only_the_windows_that_hold_it() {
        let max = i64::MAX;
        let db = int_stream(&[
            (1_500, max),
            (1_600, max),
            (2_500, max),
            (3_500, 1),
            (3_600, -1),
        ]);
        let store = PaneStore::new();
        for open in [0, 1_000, 2_000] {
            let p = probe(open, open + 2_000, 1_000);
            let paned = store.combine(&p, &db).map(|(t, _)| t.rows);
            let rescan = compute_window_aggregates(&p, &db).map(|t| t.rows);
            if open < 2_000 {
                for answer in [paned, rescan] {
                    assert!(
                        matches!(answer, Err(SqlError::Overflow(_))),
                        "{open}: {answer:?}"
                    );
                }
            } else {
                let rows = paned.unwrap();
                assert_eq!(rows, rescan.unwrap());
                assert_eq!(rows[0][1..3], [Value::Int(3), Value::Int(max)]);
            }
        }
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

//! Volcano-style executor.
//!
//! A node hands its parent rows it built or rows it borrows. Rows are
//! borrowed, not copied, where a node only passes them on or reads them:
//! an identity projection hands its input up as is, a LIMIT slices, and
//! join sides, projections, filters and aggregates read their input in
//! place. A scan the plan holds more than once — one `(table, filter,
//! projection)` in several `UNION ALL` branches, as the unfolding of a BGP
//! whose atoms several mappings answer produces — reads its table once per
//! [`execute`] call and lends its rows to every occurrence: the catalog
//! snapshot is fixed for the call, so they are the same rows.
//! [`execute_counted`] reports that work as [`ExecCounts`].
//!
//! Joins with equi-keys run as hash joins built on the right side: one
//! head per distinct key and a `next` chain through the right rows that
//! share it, in row order, so matches come out in the order the rows
//! came in and no list is allocated per key. Other joins fall back to
//! nested loops. Aggregation is hash-grouped, DISTINCT hash-deduplicated
//! in first-seen order. Every one of these tables hashes with the id
//! hasher ([`crate::hash`]): a `Value` hashes as a tag and one word, so
//! SipHash would only slow the probe. This is deliberately simple and
//! allocation-conscious rather than vectorized — the distribution layer in
//! `optique-exastream` provides the parallelism the paper's numbers come
//! from.

use std::cell::{Cell, OnceCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use crate::error::SqlError;
use crate::expr::Expr;
use crate::functions::AggState;
use crate::hash::{IdMap, IdSet};
use crate::parser::JoinType;
use crate::plan::LogicalPlan;
use crate::table::{Database, Table};
use crate::value::Value;

type Row = Vec<Value>;

/// The scan work one [`execute_counted`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounts {
    /// Scans that read their table.
    pub scans: usize,
    /// Scan nodes answered by an identical scan's rows, read earlier in
    /// the same call.
    pub scans_shared: usize,
    /// Table rows (base and novelty overlay) the scans read, before their
    /// filters.
    pub rows_scanned: usize,
}

/// Executes a bound (optionally optimized) logical plan.
pub fn execute(plan: &LogicalPlan, db: &Database) -> Result<Table, SqlError> {
    execute_counted(plan, db).map(|(table, _)| table)
}

/// [`execute`], also reporting the scan work it did.
pub fn execute_counted(plan: &LogicalPlan, db: &Database) -> Result<(Table, ExecCounts), SqlError> {
    let exec = Exec::new(plan, db);
    let rows = exec.run(plan)?.into_owned();
    let table = Table {
        schema: plan.schema().clone(),
        rows,
    };
    Ok((table, exec.counts.get()))
}

/// [`execute_counted`], keeping the rows of each input of a root `UNION
/// ALL` apart: one row list per input, in order (one list for any other
/// plan). The inputs share one scan memo, as they do under
/// [`execute_counted`]. A `UNION ALL` statement plans to exactly such a
/// root, one input per branch, so the lists are its branches' answers.
pub fn execute_branches(
    plan: &LogicalPlan,
    db: &Database,
) -> Result<(Vec<Vec<Row>>, ExecCounts), SqlError> {
    let exec = Exec::new(plan, db);
    let inputs = match plan {
        LogicalPlan::Union { inputs } => inputs.as_slice(),
        other => std::slice::from_ref(other),
    };
    let branches = (inputs.iter())
        .map(|input| Ok(exec.run(input)?.into_owned()))
        .collect::<Result<_, SqlError>>()?;
    Ok((branches, exec.counts.get()))
}

/// Convenience: parse, plan, optimize, execute.
pub fn query(sql: &str, db: &Database) -> Result<Table, SqlError> {
    let stmt = crate::parser::parse_select(sql)?;
    let plan = crate::plan::plan_select(&stmt, db)?;
    let plan = crate::optimizer::optimize(plan);
    execute(&plan, db)
}

/// A node's output: rows it built, or rows it borrows from a shared scan.
enum Rows<'a> {
    Owned(Vec<Row>),
    Borrowed(&'a [Row]),
}

impl Rows<'_> {
    fn as_slice(&self) -> &[Row] {
        match self {
            Rows::Owned(rows) => rows,
            Rows::Borrowed(rows) => rows,
        }
    }

    fn into_owned(self) -> Vec<Row> {
        match self {
            Rows::Owned(rows) => rows,
            Rows::Borrowed(rows) => rows.to_vec(),
        }
    }

    /// The rows whose `keep` flag is set, in order; borrowed rows are
    /// copied, owned ones moved.
    fn select(self, keep: &[bool]) -> Vec<Row> {
        let kept = keep.iter().filter(|&&k| k).count();
        let mut out = Vec::with_capacity(kept);
        match self {
            Rows::Owned(rows) => out.extend(
                rows.into_iter()
                    .zip(keep)
                    .filter_map(|(row, &k)| k.then_some(row)),
            ),
            Rows::Borrowed(rows) => out.extend(
                rows.iter()
                    .zip(keep)
                    .filter(|(_, &k)| k)
                    .map(|(row, _)| row.clone()),
            ),
        }
        out
    }
}

/// One [`execute_counted`] call: the catalog, the memo of scans the plan
/// holds more than once, and the counts.
struct Exec<'a> {
    db: &'a Database,
    /// A repeated scan node's address → its slot in `memo`.
    shared: HashMap<*const LogicalPlan, usize>,
    /// The rows of each repeated scan, read by its first occurrence.
    memo: Vec<OnceCell<Vec<Row>>>,
    counts: Cell<ExecCounts>,
}

impl<'a> Exec<'a> {
    fn new(plan: &LogicalPlan, db: &'a Database) -> Self {
        let mut scans = Vec::new();
        collect_scans(plan, &mut scans);
        // Group the scans by what they read; a group of two or more shares
        // one slot. (One scan has nothing to share.)
        if scans.len() < 2 {
            scans.clear();
        }
        let mut groups: Vec<Vec<&LogicalPlan>> = Vec::new();
        let mut by_table: HashMap<&str, Vec<usize>> = HashMap::new();
        for scan in scans {
            let LogicalPlan::Scan { table, .. } = scan else {
                unreachable!("collect_scans yields scans")
            };
            let candidates = by_table.entry(table).or_default();
            match candidates
                .iter()
                .find(|&&g| reads_same_rows(groups[g][0], scan))
            {
                Some(&g) => groups[g].push(scan),
                None => {
                    candidates.push(groups.len());
                    groups.push(vec![scan]);
                }
            }
        }
        let mut shared = HashMap::new();
        let mut slots = 0;
        for group in groups.iter().filter(|g| g.len() > 1) {
            for &scan in group {
                shared.insert(scan as *const LogicalPlan, slots);
            }
            slots += 1;
        }
        Exec {
            db,
            shared,
            memo: (0..slots).map(|_| OnceCell::new()).collect(),
            counts: Cell::new(ExecCounts::default()),
        }
    }

    fn tally(&self, f: impl FnOnce(&mut ExecCounts)) {
        let mut counts = self.counts.get();
        f(&mut counts);
        self.counts.set(counts);
    }

    fn run<'s>(&'s self, plan: &'s LogicalPlan) -> Result<Rows<'s>, SqlError> {
        Ok(match plan {
            LogicalPlan::Scan {
                table,
                filter,
                projection,
                ..
            } => {
                let read = || self.scan(table, filter.as_ref(), projection.as_deref());
                match self.shared.get(&(plan as *const LogicalPlan)) {
                    None => Rows::Owned(read()?),
                    Some(&slot) => {
                        let cell = &self.memo[slot];
                        if cell.get().is_some() {
                            self.tally(|c| c.scans_shared += 1);
                        } else {
                            // `set` cannot fail: the cell was just empty.
                            let _ = cell.set(read()?);
                        }
                        Rows::Borrowed(cell.get().expect("memo slot filled above"))
                    }
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let pass = |row: &Row| Ok::<_, SqlError>(predicate.eval(row)?.is_truthy());
                let mut out = Vec::new();
                match self.run(input)? {
                    Rows::Owned(rows) => {
                        for row in rows {
                            if pass(&row)? {
                                out.push(row);
                            }
                        }
                    }
                    Rows::Borrowed(rows) => {
                        for row in rows {
                            if pass(row)? {
                                out.push(row.clone());
                            }
                        }
                    }
                }
                Rows::Owned(out)
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let rows = self.run(input)?;
                if is_identity(exprs, input.schema().len()) {
                    return Ok(rows);
                }
                let mut out = Vec::with_capacity(rows.as_slice().len());
                for row in rows.as_slice() {
                    let mut projected = Vec::with_capacity(exprs.len());
                    for (e, _) in exprs {
                        projected.push(e.eval(row)?);
                    }
                    out.push(projected);
                }
                Rows::Owned(out)
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                equi,
                residual,
                ..
            } => {
                let left_rows = self.run(left)?;
                let right_rows = self.run(right)?;
                Rows::Owned(exec_join(
                    left_rows.as_slice(),
                    right_rows.as_slice(),
                    right.schema().len(),
                    *join_type,
                    equi,
                    residual.as_ref(),
                )?)
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                ..
            } => {
                let rows = self.run(input)?;
                Rows::Owned(aggregate(rows.as_slice(), group_exprs, aggregates)?)
            }
            LogicalPlan::Sort { input, keys } => {
                Rows::Owned(sort(self.run(input)?.into_owned(), keys)?)
            }
            LogicalPlan::Limit { input, n } => match self.run(input)? {
                Rows::Owned(mut rows) => {
                    rows.truncate(*n);
                    Rows::Owned(rows)
                }
                Rows::Borrowed(rows) => Rows::Borrowed(&rows[..rows.len().min(*n)]),
            },
            LogicalPlan::Union { inputs } => {
                let mut out = Vec::new();
                for branch in inputs {
                    match self.run(branch)? {
                        Rows::Owned(rows) if out.is_empty() => out = rows,
                        Rows::Owned(rows) => out.extend(rows),
                        Rows::Borrowed(rows) => out.extend_from_slice(rows),
                    }
                }
                Rows::Owned(out)
            }
            LogicalPlan::Distinct { input } => {
                let rows = self.run(input)?;
                // `Value`'s hash and equality agree with its order and see
                // text by dictionary id, so this keeps what an ordered set
                // would, in first-seen order, without comparing text.
                let mut seen =
                    IdSet::with_capacity_and_hasher(rows.as_slice().len(), Default::default());
                let keep: Vec<bool> = rows
                    .as_slice()
                    .iter()
                    .map(|row| seen.insert(row.as_slice()))
                    .collect();
                drop(seen);
                Rows::Owned(rows.select(&keep))
            }
        })
    }

    /// Reads `table` — base rows first, then the novelty overlay's
    /// appended rows, the order a merged table would scan in, so overlay
    /// and post-merge answers are row-for-row identical.
    fn scan(
        &self,
        table: &str,
        filter: Option<&Expr>,
        projection: Option<&[usize]>,
    ) -> Result<Vec<Row>, SqlError> {
        let t = self.db.table(table)?;
        let mut out = Vec::new();
        let mut read = 0;
        for row in t.rows.iter().chain(self.db.novelty_rows(table)) {
            read += 1;
            if let Some(f) = filter {
                if !f.eval(row)?.is_truthy() {
                    continue;
                }
            }
            match projection {
                Some(cols) => out.push(cols.iter().map(|&c| row[c].clone()).collect()),
                None => out.push(row.clone()),
            }
        }
        self.tally(|c| {
            c.scans += 1;
            c.rows_scanned += read;
        });
        Ok(out)
    }
}

/// Every scan node of `plan`, in execution order.
fn collect_scans<'p>(plan: &'p LogicalPlan, out: &mut Vec<&'p LogicalPlan>) {
    match plan {
        LogicalPlan::Scan { .. } => out.push(plan),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => collect_scans(input, out),
        LogicalPlan::Join { left, right, .. } => {
            collect_scans(left, out);
            collect_scans(right, out);
        }
        LogicalPlan::Union { inputs } => {
            for input in inputs {
                collect_scans(input, out);
            }
        }
    }
}

/// True when two scans of one table yield the same rows: same filter and
/// projection. `Expr` equality compares literals as values (`2 = 2.0`),
/// and an expression can tell those apart (`v / 2` against `v / 2.0`), so
/// the literals must also be of one variant each.
fn reads_same_rows(a: &LogicalPlan, b: &LogicalPlan) -> bool {
    let (
        LogicalPlan::Scan {
            filter: fa,
            projection: pa,
            ..
        },
        LogicalPlan::Scan {
            filter: fb,
            projection: pb,
            ..
        },
    ) = (a, b)
    else {
        return false;
    };
    let literal_variants = |e: &Expr| {
        let mut variants = Vec::new();
        e.walk(&mut |n| {
            if let Expr::Literal(v) = n {
                variants.push(std::mem::discriminant(v));
            }
        });
        variants
    };
    pa == pb
        && fa == fb
        && match (fa, fb) {
            (Some(fa), Some(fb)) => literal_variants(fa) == literal_variants(fb),
            _ => true,
        }
}

/// True when a projection hands column `i` of a `width`-column input to
/// output `i`, and nothing else.
fn is_identity(exprs: &[(Expr, String)], width: usize) -> bool {
    exprs.len() == width
        && exprs
            .iter()
            .enumerate()
            .all(|(i, (e, _))| matches!(e, Expr::ColumnIdx { index, .. } if *index == i))
}

fn aggregate(
    rows: &[Row],
    group_exprs: &[Expr],
    aggregates: &[(crate::functions::AggFunc, Vec<Expr>)],
) -> Result<Vec<Row>, SqlError> {
    // Groups in first-seen order, for deterministic output; `slots` finds
    // a key's group.
    let mut slots: IdMap<Vec<Value>, usize> = IdMap::default();
    let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
    for row in rows {
        let mut key = Vec::with_capacity(group_exprs.len());
        for g in group_exprs {
            key.push(g.eval(row)?);
        }
        let slot = match slots.get(&key) {
            Some(&slot) => slot,
            None => {
                slots.insert(key.clone(), groups.len());
                let states = aggregates.iter().map(|(f, _)| f.new_state()).collect();
                groups.push((key, states));
                groups.len() - 1
            }
        };
        let states = &mut groups[slot].1;
        for ((_, args), state) in aggregates.iter().zip(states.iter_mut()) {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(a.eval(row)?);
            }
            state.update(&values)?;
        }
    }
    // Global aggregate over empty input still yields one row.
    if groups.is_empty() && group_exprs.is_empty() {
        let states: Vec<AggState> = aggregates.iter().map(|(f, _)| f.new_state()).collect();
        let row: Vec<Value> = states.iter().map(AggState::finish).collect();
        return Ok(vec![row]);
    }
    Ok(groups
        .into_iter()
        .map(|(mut row, states)| {
            row.extend(states.iter().map(AggState::finish));
            row
        })
        .collect())
}

fn sort(mut rows: Vec<Row>, keys: &[(Expr, bool)]) -> Result<Vec<Row>, SqlError> {
    // Pre-compute key tuples to avoid re-evaluating during comparison.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        let mut k = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            k.push(e.eval(&row)?);
        }
        keyed.push((k, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, desc)) in keys.iter().enumerate() {
            let ord = ka[i].total_cmp(&kb[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

fn exec_join(
    left_rows: &[Row],
    right_rows: &[Row],
    right_width: usize,
    join_type: JoinType,
    equi: &[(Expr, Expr)],
    residual: Option<&Expr>,
) -> Result<Vec<Row>, SqlError> {
    if equi.is_empty() {
        // Nested loop join.
        let mut out = Vec::new();
        for l in left_rows {
            let mut matched = false;
            for r in right_rows {
                let mut joined = l.clone();
                joined.extend(r.iter().cloned());
                let pass = match residual {
                    Some(p) => p.eval(&joined)?.is_truthy(),
                    None => true,
                };
                if pass {
                    matched = true;
                    out.push(joined);
                }
            }
            if !matched && join_type == JoinType::Left {
                let mut padded = l.clone();
                padded.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(padded);
            }
        }
        return Ok(out);
    }

    // Hash join: build on the right side (for LEFT joins the right side must
    // be the build side anyway to preserve left rows). Keys are extracted
    // **column-at-a-time** — one pass per equi term over each batch — so the
    // probe loop works on contiguous key vectors; with interned text, each
    // hash/equality is an O(1) dictionary-id operation, never a string walk.
    let right_keys = key_columns(right_rows, equi.iter().map(|(_, r)| r))?;
    let left_keys = key_columns(left_rows, equi.iter().map(|(l, _)| l))?;

    let mut out = Vec::new();
    let emit = |l: &Vec<Value>,
                matches: &mut dyn Iterator<Item = usize>,
                out: &mut Vec<Vec<Value>>|
     -> Result<bool, SqlError> {
        let mut matched = false;
        for i in matches {
            let mut joined = l.clone();
            joined.extend(right_rows[i].iter().cloned());
            let pass = match residual {
                Some(p) => p.eval(&joined)?.is_truthy(),
                None => true,
            };
            if pass {
                matched = true;
                out.push(joined);
            }
        }
        Ok(matched)
    };
    let pad = |l: &Vec<Value>, out: &mut Vec<Vec<Value>>| {
        let mut padded = l.clone();
        padded.extend(std::iter::repeat_n(Value::Null, right_width));
        out.push(padded);
    };

    if equi.len() == 1 {
        // Single-key fast path (the dominant shape for unfolded OBDA
        // joins): scalar keys, no per-row key-tuple allocation.
        let build = Chains::build(
            right_keys[0]
                .iter()
                .map(|key| (!key.is_null()).then_some(key)),
        );
        for (l, key) in left_rows.iter().zip(&left_keys[0]) {
            let matched = !key.is_null() && emit(l, &mut build.rows(&key), &mut out)?;
            if !matched && join_type == JoinType::Left {
                pad(l, &mut out);
            }
        }
        return Ok(out);
    }

    let key_at = |cols: &[Vec<Value>], i: usize| -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(cols.len());
        for col in cols {
            if col[i].is_null() {
                return None;
            }
            key.push(col[i].clone());
        }
        Some(key)
    };
    let build = Chains::build((0..right_rows.len()).map(|i| key_at(&right_keys, i)));
    for (i, l) in left_rows.iter().enumerate() {
        let matched = match key_at(&left_keys, i) {
            Some(key) => emit(l, &mut build.rows(&key), &mut out)?,
            None => false,
        };
        if !matched && join_type == JoinType::Left {
            pad(l, &mut out);
        }
    }
    Ok(out)
}

/// A hash join's build side: one head per distinct key and a `next` chain
/// through the rows that share it, in row order — no list allocated per
/// key.
struct Chains<K> {
    /// Each key's first and last row.
    heads: IdMap<K, (usize, usize)>,
    /// `next[i]`: the row after `i` with `i`'s key ([`Chains::END`] if none).
    next: Vec<usize>,
}

impl<K: Hash + Eq> Chains<K> {
    const END: usize = usize::MAX;

    /// Chains rows by key; a row keyed `None` (a NULL key) joins nothing.
    fn build(keys: impl ExactSizeIterator<Item = Option<K>>) -> Self {
        let mut chains = Chains {
            heads: IdMap::with_capacity_and_hasher(keys.len(), Default::default()),
            next: vec![Self::END; keys.len()],
        };
        for (i, key) in keys.enumerate() {
            let Some(key) = key else { continue };
            match chains.heads.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert((i, i));
                }
                Entry::Occupied(mut slot) => {
                    let (_, last) = slot.get_mut();
                    chains.next[*last] = i;
                    *last = i;
                }
            }
        }
        chains
    }

    /// The rows keyed `key`, in row order.
    fn rows(&self, key: &K) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads.get(key).map(|&(first, _)| first);
        std::iter::from_fn(move || {
            let row = at?;
            at = Some(self.next[row]).filter(|&next| next != Self::END);
            Some(row)
        })
    }
}

/// Evaluates each key expression over the whole batch, yielding one
/// contiguous key column per expression (NULLs stay in place; the join
/// loops skip them).
fn key_columns<'a>(
    rows: &[Vec<Value>],
    exprs: impl Iterator<Item = &'a Expr>,
) -> Result<Vec<Vec<Value>>, SqlError> {
    exprs
        .map(|e| rows.iter().map(|row| e.eval(row)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::table::table_of;

    fn db() -> Database {
        let mut db = Database::new();
        db.put_table(
            "m",
            table_of(
                "m",
                &[
                    ("sensor_id", ColumnType::Int),
                    ("ts", ColumnType::Timestamp),
                    ("value", ColumnType::Float),
                ],
                vec![
                    vec![Value::Int(1), Value::Timestamp(0), Value::Float(70.0)],
                    vec![Value::Int(1), Value::Timestamp(1000), Value::Float(75.0)],
                    vec![Value::Int(1), Value::Timestamp(2000), Value::Float(80.0)],
                    vec![Value::Int(2), Value::Timestamp(0), Value::Float(60.0)],
                    vec![Value::Int(2), Value::Timestamp(1000), Value::Float(58.0)],
                    vec![Value::Int(3), Value::Timestamp(0), Value::Null],
                ],
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[
                    ("id", ColumnType::Int),
                    ("name", ColumnType::Text),
                    ("assembly", ColumnType::Text),
                ],
                vec![
                    vec![Value::Int(1), Value::text("inlet"), Value::text("burner")],
                    vec![Value::Int(2), Value::text("outlet"), Value::text("burner")],
                    vec![Value::Int(9), Value::text("spare"), Value::text("none")],
                ],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn select_where() {
        let t = query(
            "SELECT value FROM m WHERE sensor_id = 1 AND value >= 75",
            &db(),
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn projection_expressions() {
        let t = query(
            "SELECT value * 2 AS double FROM m WHERE sensor_id = 2 ORDER BY double",
            &db(),
        )
        .unwrap();
        assert_eq!(t.rows[0][0], Value::Float(116.0));
        assert_eq!(t.schema.header(), vec!["double"]);
    }

    #[test]
    fn inner_join_matches() {
        let t = query(
            "SELECT s.name, m.value FROM m JOIN sensors s ON m.sensor_id = s.id WHERE m.ts = 0",
            &db(),
        )
        .unwrap();
        assert_eq!(
            t.len(),
            2,
            "sensor 3 has no match; sensor 9 has no measurements"
        );
    }

    #[test]
    fn left_join_pads() {
        let t = query(
            "SELECT s.id, m.value FROM sensors s LEFT JOIN m ON m.sensor_id = s.id AND m.ts = 0",
            &db(),
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        let spare = t.rows.iter().find(|r| r[0] == Value::Int(9)).unwrap();
        assert!(spare[1].is_null());
    }

    #[test]
    fn join_on_null_never_matches() {
        let mut db = db();
        db.put_table(
            "n",
            table_of(
                "n",
                &[("k", ColumnType::Int)],
                vec![vec![Value::Null], vec![Value::Int(1)]],
            )
            .unwrap(),
        );
        let t = query("SELECT m.value FROM n JOIN m ON n.k = m.sensor_id", &db).unwrap();
        assert_eq!(t.len(), 3, "only k=1 matches its three measurements");
    }

    #[test]
    fn group_by_aggregates() {
        let t = query(
            "SELECT sensor_id, COUNT(*) AS n, AVG(value) AS a FROM m GROUP BY sensor_id ORDER BY sensor_id",
            &db(),
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.rows[0],
            vec![Value::Int(1), Value::Int(3), Value::Float(75.0)]
        );
        // Sensor 3's AVG over a single NULL is NULL.
        assert_eq!(t.rows[2][2], Value::Null);
    }

    #[test]
    fn having_filters_groups() {
        let t = query(
            "SELECT sensor_id FROM m GROUP BY sensor_id HAVING AVG(value) > 70",
            &db(),
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], Value::Int(1));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let t = query("SELECT COUNT(*) AS n FROM m WHERE value > 1000", &db()).unwrap();
        assert_eq!(t.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn arithmetic_on_aggregates() {
        let t = query(
            "SELECT sensor_id, MAX(value) - MIN(value) AS spread FROM m GROUP BY sensor_id ORDER BY sensor_id",
            &db(),
        )
        .unwrap();
        assert_eq!(t.rows[0][1], Value::Float(10.0));
    }

    #[test]
    fn corr_via_self_join() {
        // Correlation of sensor 1 vs sensor 2 values at matching timestamps.
        let t = query(
            "SELECT CORR(a.value, b.value) AS c FROM m a JOIN m b ON a.ts = b.ts \
             WHERE a.sensor_id = 1 AND b.sensor_id = 2",
            &db(),
        )
        .unwrap();
        let Value::Float(c) = t.rows[0][0] else {
            panic!("got {:?}", t.rows[0][0])
        };
        // Sensor1 rises (70,75) while sensor2 falls (60,58): perfect anticorrelation.
        assert!((c + 1.0).abs() < 1e-9);
    }

    #[test]
    fn union_all_concatenates() {
        let t = query(
            "SELECT value FROM m WHERE sensor_id = 1 UNION ALL SELECT value FROM m WHERE sensor_id = 2",
            &db(),
        )
        .unwrap();
        assert_eq!(t.len(), 5);
    }

    /// Per-branch execution returns the same rows as the concatenation,
    /// split at the branch boundaries, and shares repeated scans alike.
    #[test]
    fn branches_split_a_union_at_its_inputs() {
        let db = db();
        let sql = "SELECT value FROM m WHERE sensor_id = 1 UNION ALL \
                   SELECT value FROM m WHERE sensor_id = 2 UNION ALL \
                   SELECT value FROM m WHERE sensor_id = 1";
        let plan = crate::optimizer::optimize(
            crate::plan::plan_select(&crate::parser::parse_select(sql).unwrap(), &db).unwrap(),
        );
        let (whole, counts) = execute_counted(&plan, &db).unwrap();
        let (branches, branch_counts) = execute_branches(&plan, &db).unwrap();
        assert_eq!(branches.iter().map(Vec::len).collect::<Vec<_>>(), [3, 2, 3]);
        assert_eq!(branches.concat(), whole.rows);
        assert_eq!(branch_counts, counts);
        assert_eq!(
            counts.scans_shared, 1,
            "the repeated branch shares its scan"
        );

        let single = crate::plan::plan_select(
            &crate::parser::parse_select("SELECT value FROM m").unwrap(),
            &db,
        )
        .unwrap();
        let (branches, _) = execute_branches(&single, &db).unwrap();
        assert_eq!(branches.len(), 1, "a plain statement is one branch");
    }

    #[test]
    fn distinct_dedups() {
        let t = query("SELECT DISTINCT sensor_id FROM m", &db()).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn order_desc_and_limit() {
        let t = query(
            "SELECT value FROM m WHERE value IS NOT NULL ORDER BY value DESC LIMIT 2",
            &db(),
        )
        .unwrap();
        assert_eq!(t.rows[0][0], Value::Float(80.0));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn subquery_pipeline() {
        let t = query(
            "SELECT a FROM (SELECT AVG(value) AS a, sensor_id FROM m GROUP BY sensor_id) x \
             WHERE x.sensor_id = 2",
            &db(),
        )
        .unwrap();
        assert_eq!(t.rows[0][0], Value::Float(59.0));
    }

    #[test]
    fn scalar_functions_in_queries() {
        let t = query("SELECT UPPER(name) AS u FROM sensors ORDER BY u", &db()).unwrap();
        assert_eq!(t.rows[0][0], Value::text("INLET"));
    }

    #[test]
    fn nested_loop_join_with_inequality() {
        let t = query(
            "SELECT a.value FROM m a JOIN m b ON a.value < b.value WHERE a.sensor_id = 2 AND b.sensor_id = 2",
            &db(),
        )
        .unwrap();
        assert_eq!(t.len(), 1, "58 < 60 only");
    }

    /// `k` holds 2^53 and 2^53 + 1, which one `f64` rounds together.
    fn near_two_pow_53() -> Database {
        let big = 1i64 << 53;
        let mut db = Database::new();
        db.put_table(
            "n",
            table_of(
                "n",
                &[("k", ColumnType::Int)],
                vec![vec![Value::Int(big)], vec![Value::Int(big + 1)]],
            )
            .unwrap(),
        );
        db
    }

    // Regressions: integers compared through `f64`, so each of these
    // matched both keys.

    #[test]
    fn integer_equality_past_2_pow_53_is_exact() {
        let t = query(
            "SELECT k FROM n WHERE k = 9007199254740993",
            &near_two_pow_53(),
        )
        .unwrap();
        assert_eq!(t.rows, vec![vec![Value::Int((1 << 53) + 1)]]);
    }

    #[test]
    fn distinct_keeps_integers_past_2_pow_53_apart() {
        let t = query("SELECT DISTINCT k FROM n", &near_two_pow_53()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn self_join_on_integers_past_2_pow_53_is_exact() {
        let sql = "SELECT a.k FROM n a JOIN n b ON a.k = b.k";
        let t = query(sql, &near_two_pow_53()).unwrap();
        assert_eq!(t.len(), 2);
    }

    /// Identical scans across `UNION ALL` branches read the table once;
    /// a scan with another filter, projection or literal type reads again.
    #[test]
    fn repeated_scans_read_once_per_call() {
        let db = db();
        let run = |sql: &str| {
            let stmt = crate::parser::parse_select(sql).unwrap();
            let plan = crate::optimizer::optimize(crate::plan::plan_select(&stmt, &db).unwrap());
            execute_counted(&plan, &db).unwrap()
        };
        let (t, counts) = run("SELECT value FROM m WHERE sensor_id = 1 UNION ALL \
             SELECT value FROM m WHERE sensor_id = 1 UNION ALL \
             SELECT value FROM m WHERE sensor_id = 2");
        assert_eq!(t.len(), 3 + 3 + 2);
        let m_rows = db.table("m").unwrap().len();
        let expected = ExecCounts {
            scans: 2,
            scans_shared: 1,
            rows_scanned: 2 * m_rows,
        };
        assert_eq!(counts, expected);
        // `2 = 2.0` as values, but `value / 2` and `value / 2.0` differ.
        let (_, counts) = run("SELECT sensor_id FROM m WHERE sensor_id / 2 = 0 UNION ALL \
             SELECT sensor_id FROM m WHERE sensor_id / 2.0 = 0");
        assert_eq!(counts.scans, 2);
        assert_eq!(counts.scans_shared, 0);
    }

    #[test]
    fn optimized_equals_unoptimized() {
        let sql = "SELECT s.name, AVG(m.value) AS a FROM m JOIN sensors s ON m.sensor_id = s.id \
                   WHERE m.ts >= 0 GROUP BY s.name HAVING COUNT(*) > 1 ORDER BY a DESC";
        let stmt = crate::parser::parse_select(sql).unwrap();
        let raw = crate::plan::plan_select(&stmt, &db()).unwrap();
        let unopt = execute(&raw, &db()).unwrap();
        let opt = execute(&crate::optimizer::optimize(raw.clone()), &db()).unwrap();
        assert_eq!(unopt.rows, opt.rows);
    }
}

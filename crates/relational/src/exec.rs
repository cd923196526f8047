//! Volcano-style materializing executor.
//!
//! Every node materializes its output rows. Joins with equi-keys run as hash
//! joins (build on the smaller side for inner joins); other joins fall back
//! to nested loops. Aggregation is hash-grouped. This is deliberately simple
//! and allocation-conscious rather than vectorized — the distribution layer
//! in `optique-exastream` provides the parallelism the paper's numbers come
//! from.

use std::collections::HashMap;

use crate::error::SqlError;
use crate::expr::Expr;
use crate::functions::AggState;
use crate::parser::JoinType;
use crate::plan::LogicalPlan;
use crate::table::{Database, Table};
use crate::value::Value;

/// Executes a bound (optionally optimized) logical plan.
pub fn execute(plan: &LogicalPlan, db: &Database) -> Result<Table, SqlError> {
    let rows = run(plan, db)?;
    Ok(Table {
        schema: plan.schema().clone(),
        rows,
    })
}

/// Convenience: parse, plan, optimize, execute.
pub fn query(sql: &str, db: &Database) -> Result<Table, SqlError> {
    let stmt = crate::parser::parse_select(sql)?;
    let plan = crate::plan::plan_select(&stmt, db)?;
    let plan = crate::optimizer::optimize(plan);
    execute(&plan, db)
}

fn run(plan: &LogicalPlan, db: &Database) -> Result<Vec<Vec<Value>>, SqlError> {
    match plan {
        LogicalPlan::Scan {
            table,
            filter,
            projection,
            ..
        } => {
            let t = db.table(table)?;
            let mut out = Vec::new();
            // Base rows first, then the novelty overlay's appended rows —
            // the same order a merged table would scan in, so overlay and
            // post-merge answers are row-for-row identical.
            for row in t.rows.iter().chain(db.novelty_rows(table)) {
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
            Ok(out)
        }
        LogicalPlan::Filter { input, predicate } => {
            let rows = run(input, db)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if predicate.eval(&row)?.is_truthy() {
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = run(input, db)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut projected = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    projected.push(e.eval(&row)?);
                }
                out.push(projected);
            }
            Ok(out)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            equi,
            residual,
            ..
        } => exec_join(left, right, *join_type, equi, residual.as_ref(), db),
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            ..
        } => {
            let rows = run(input, db)?;
            let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
            // Preserve first-seen group order for deterministic output.
            let mut order: Vec<Vec<Value>> = Vec::new();
            for row in &rows {
                let mut key = Vec::with_capacity(group_exprs.len());
                for g in group_exprs {
                    key.push(g.eval(row)?);
                }
                let states = match groups.get_mut(&key) {
                    Some(s) => s,
                    None => {
                        order.push(key.clone());
                        groups.entry(key.clone()).or_insert_with(|| {
                            aggregates.iter().map(|(f, _)| f.new_state()).collect()
                        })
                    }
                };
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
            let mut out = Vec::with_capacity(order.len());
            for key in order {
                let states = &groups[&key];
                let mut row = key.clone();
                row.extend(states.iter().map(AggState::finish));
                out.push(row);
            }
            Ok(out)
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = run(input, db)?;
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
        LogicalPlan::Limit { input, n } => {
            let mut rows = run(input, db)?;
            rows.truncate(*n);
            Ok(rows)
        }
        LogicalPlan::Union { inputs } => {
            let mut out = Vec::new();
            for branch in inputs {
                out.extend(run(branch, db)?);
            }
            Ok(out)
        }
        LogicalPlan::Distinct { input } => {
            let rows = run(input, db)?;
            let mut seen = std::collections::BTreeSet::new();
            let mut out = Vec::new();
            for row in rows {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            Ok(out)
        }
    }
}

fn exec_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    join_type: JoinType,
    equi: &[(Expr, Expr)],
    residual: Option<&Expr>,
    db: &Database,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let left_rows = run(left, db)?;
    let right_rows = run(right, db)?;
    let right_width = right.schema().len();

    if equi.is_empty() {
        // Nested loop join.
        let mut out = Vec::new();
        for l in &left_rows {
            let mut matched = false;
            for r in &right_rows {
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
    let right_keys = key_columns(&right_rows, equi.iter().map(|(_, r)| r))?;
    let left_keys = key_columns(&left_rows, equi.iter().map(|(l, _)| l))?;

    let mut out = Vec::new();
    let emit =
        |l: &Vec<Value>, ids: &[usize], out: &mut Vec<Vec<Value>>| -> Result<bool, SqlError> {
            let mut matched = false;
            for &i in ids {
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

    if equi.len() == 1 {
        // Single-key fast path (the dominant shape for unfolded OBDA
        // joins): scalar keys, no per-row key-tuple allocation.
        let rkeys = &right_keys[0];
        let mut build: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(right_rows.len());
        for (i, key) in rkeys.iter().enumerate() {
            if !key.is_null() {
                build.entry(key).or_default().push(i);
            }
        }
        for (l, key) in left_rows.iter().zip(&left_keys[0]) {
            let mut matched = false;
            if !key.is_null() {
                if let Some(ids) = build.get(key) {
                    matched = emit(l, ids, &mut out)?;
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
    let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right_rows.len());
    for i in 0..right_rows.len() {
        if let Some(key) = key_at(&right_keys, i) {
            build.entry(key).or_default().push(i);
        }
    }
    for (i, l) in left_rows.iter().enumerate() {
        let mut matched = false;
        if let Some(key) = key_at(&left_keys, i) {
            if let Some(ids) = build.get(&key) {
                matched = emit(l, ids, &mut out)?;
            }
        }
        if !matched && join_type == JoinType::Left {
            let mut padded = l.clone();
            padded.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(padded);
        }
    }
    Ok(out)
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

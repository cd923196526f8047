//! Partition/merge dataflow between workers.
//!
//! Two movement patterns cover the unfolded Siemens plans: **repartition**
//! (hash rows to the worker owning their key — used when a join/group key
//! differs from the current partitioning) and **merge** (gather per-worker
//! partial results and combine). Partial-aggregate merging understands the
//! decomposable aggregates (`COUNT`/`SUM`/`MIN`/`MAX`), which is what
//! shard-local aggregation plus a global combine step needs.

use std::collections::HashMap;

use optique_relational::{SqlError, Table, Value};

use crate::cluster::shard_of;

/// Hash-repartitions rows across `n` buckets by `key_col`.
pub fn repartition(rows: Vec<Vec<Value>>, key_col: usize, n: usize) -> Vec<Vec<Vec<Value>>> {
    let mut buckets: Vec<Vec<Vec<Value>>> = (0..n).map(|_| Vec::new()).collect();
    for row in rows {
        let b = shard_of(&row[key_col], n);
        buckets[b].push(row);
    }
    buckets
}

/// Concatenates per-worker tables (schemas must agree in arity).
pub fn merge_concat(parts: Vec<Table>) -> Result<Table, SqlError> {
    let mut iter = parts.into_iter();
    let Some(mut first) = iter.next() else {
        return Err(SqlError::Execution("merge of zero partitions".into()));
    };
    for part in iter {
        if part.schema.len() != first.schema.len() {
            return Err(SqlError::Execution(format!(
                "partition arity mismatch: {} vs {}",
                part.schema.len(),
                first.schema.len()
            )));
        }
        first.rows.extend(part.rows);
    }
    Ok(first)
}

/// How to combine one partial-aggregate column during a global merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOp {
    /// Sum partials (COUNT and SUM).
    Sum,
    /// Keep the minimum.
    Min,
    /// Keep the maximum.
    Max,
}

/// Merges per-worker pre-aggregated tables of shape
/// `[group key columns..., aggregate columns...]`, combining rows with equal
/// keys using `ops` (one per aggregate column).
pub fn merge_partial_aggregates(
    parts: Vec<Table>,
    key_cols: usize,
    ops: &[MergeOp],
) -> Result<Table, SqlError> {
    let concat = merge_concat(parts)?;
    if key_cols + ops.len() != concat.schema.len() {
        return Err(SqlError::Execution(format!(
            "merge shape mismatch: {} keys + {} aggs vs {} columns",
            key_cols,
            ops.len(),
            concat.schema.len()
        )));
    }
    let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for row in concat.rows {
        let key: Vec<Value> = row[..key_cols].to_vec();
        let aggs = &row[key_cols..];
        match groups.get_mut(&key) {
            None => {
                order.push(key.clone());
                groups.insert(key, aggs.to_vec());
            }
            Some(acc) => {
                for (i, op) in ops.iter().enumerate() {
                    let current = &acc[i];
                    let incoming = &aggs[i];
                    acc[i] = combine(*op, current, incoming)?;
                }
            }
        }
    }
    let mut out = Table::empty(concat.schema);
    for key in order {
        let mut row = key.clone();
        row.extend(groups.remove(&key).expect("group present"));
        out.rows.push(row);
    }
    Ok(out)
}

fn combine(op: MergeOp, a: &Value, b: &Value) -> Result<Value, SqlError> {
    if a.is_null() {
        return Ok(b.clone());
    }
    if b.is_null() {
        return Ok(a.clone());
    }
    Ok(match op {
        MergeOp::Sum => match (a, b) {
            // Checked like the worker-side SUM accumulator: merging partials
            // must overflow (typed) exactly where single-node execution would,
            // not wrap.
            (Value::Int(x), Value::Int(y)) => Value::Int(
                x.checked_add(*y)
                    .ok_or_else(|| SqlError::Overflow(format!("merging SUM partials {x} + {y}")))?,
            ),
            _ => {
                let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                    return Err(SqlError::Type(format!("cannot sum {a} and {b}")));
                };
                Value::Float(x + y)
            }
        },
        MergeOp::Min => {
            if a.total_cmp(b).is_le() {
                a.clone()
            } else {
                b.clone()
            }
        }
        MergeOp::Max => {
            if a.total_cmp(b).is_ge() {
                a.clone()
            } else {
                b.clone()
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_relational::{Column, ColumnType, Schema};

    fn agg_table(rows: Vec<Vec<Value>>) -> Table {
        let schema = Schema::new(vec![
            Column::new("sensor_id", ColumnType::Int),
            Column::new("n", ColumnType::Int),
            Column::new("mx", ColumnType::Float),
        ]);
        Table::new(schema, rows).unwrap()
    }

    #[test]
    fn repartition_routes_by_key() {
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(i % 10)]).collect();
        let buckets = repartition(rows, 0, 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        for bucket in &buckets {
            for row in bucket {
                assert_eq!(
                    shard_of(&row[0], 4),
                    buckets
                        .iter()
                        .position(|b| std::ptr::eq(b, bucket))
                        .unwrap()
                );
            }
        }
    }

    #[test]
    fn merge_concat_appends() {
        let a = agg_table(vec![vec![Value::Int(1), Value::Int(2), Value::Float(9.0)]]);
        let b = agg_table(vec![vec![Value::Int(2), Value::Int(3), Value::Float(8.0)]]);
        let m = merge_concat(vec![a, b]).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn merge_partials_combines_matching_keys() {
        let a = agg_table(vec![
            vec![Value::Int(1), Value::Int(2), Value::Float(9.0)],
            vec![Value::Int(2), Value::Int(1), Value::Float(5.0)],
        ]);
        let b = agg_table(vec![vec![Value::Int(1), Value::Int(3), Value::Float(11.0)]]);
        let m = merge_partial_aggregates(vec![a, b], 1, &[MergeOp::Sum, MergeOp::Max]).unwrap();
        assert_eq!(m.len(), 2);
        let s1 = m.rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(s1[1], Value::Int(5));
        assert_eq!(s1[2], Value::Float(11.0));
    }

    #[test]
    fn merge_handles_null_partials() {
        let a = agg_table(vec![vec![Value::Int(1), Value::Int(1), Value::Null]]);
        let b = agg_table(vec![vec![Value::Int(1), Value::Int(1), Value::Float(3.0)]]);
        let m = merge_partial_aggregates(vec![a, b], 1, &[MergeOp::Sum, MergeOp::Max]).unwrap();
        assert_eq!(m.rows[0][2], Value::Float(3.0));
    }

    #[test]
    fn merge_shape_mismatch_rejected() {
        let a = agg_table(vec![]);
        let err = merge_partial_aggregates(vec![a], 1, &[MergeOp::Sum]).unwrap_err();
        assert!(matches!(err, SqlError::Execution(_)));
    }

    #[test]
    fn merge_of_nothing_rejected() {
        assert!(merge_concat(vec![]).is_err());
    }
}

//! Rule-based logical optimizer.
//!
//! The unfolding stage produces mechanically-generated SQL — large unions of
//! joins with repeated filters — which the paper notes "can be very
//! inefficient, e.g., they contain many redundant joins and unions" [§1,
//! challenge C3]. The rules here are the relational share of the fix:
//!
//! 1. **Constant folding** — pure subexpressions evaluate at plan time.
//! 2. **Filter merging** — `Filter(Filter(x))` → one conjunctive filter.
//! 3. **Predicate pushdown** — through projections (when column-pure),
//!    union branches, into join sides (respecting LEFT-join semantics), and
//!    finally into scans.
//! 4. **Union flattening** — nested `UnionAll` trees become one n-ary node.
//! 5. **Scan projection pruning** — scans materialize only referenced
//!    columns.
//!
//! Self-join elimination — the mapping-level redundancy — happens earlier,
//! in `optique-mapping::unfold`, where the mapping structure is still known.

use crate::expr::{BinOp, Expr};
use crate::parser::JoinType;
use crate::plan::{split_conjuncts, LogicalPlan};
use crate::schema::Schema;

/// Optimizes a bound logical plan.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_exprs(plan, &fold_expr);
    let plan = flatten_unions(plan);
    let plan = push_filters(plan);
    prune_scans(plan)
}

/// Applies `f` to every expression in the plan.
fn map_exprs(plan: LogicalPlan, f: &impl Fn(Expr) -> Expr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            alias,
            schema,
            filter,
            projection,
        } => LogicalPlan::Scan {
            table,
            alias,
            schema,
            filter: filter.map(f),
            projection,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(map_exprs(*input, f)),
            predicate: f(predicate),
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(map_exprs(*input, f)),
            exprs: exprs.into_iter().map(|(e, n)| (f(e), n)).collect(),
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            equi,
            residual,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(map_exprs(*left, f)),
            right: Box::new(map_exprs(*right, f)),
            join_type,
            equi: equi.into_iter().map(|(l, r)| (f(l), f(r))).collect(),
            residual: residual.map(f),
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(map_exprs(*input, f)),
            group_exprs: group_exprs.into_iter().map(f).collect(),
            aggregates: aggregates
                .into_iter()
                .map(|(func, args)| (func, args.into_iter().map(f).collect()))
                .collect(),
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(map_exprs(*input, f)),
            keys: keys.into_iter().map(|(e, d)| (f(e), d)).collect(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(map_exprs(*input, f)),
            n,
        },
        LogicalPlan::Union { inputs } => LogicalPlan::Union {
            inputs: inputs.into_iter().map(|p| map_exprs(p, f)).collect(),
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(map_exprs(*input, f)),
        },
    }
}

/// Folds constant subexpressions bottom-up.
fn fold_expr(expr: Expr) -> Expr {
    expr.transform(&mut |e| {
        if matches!(e, Expr::Literal(_)) {
            return Ok(None);
        }
        let has_refs = {
            let mut found = false;
            e.walk(&mut |n| {
                if matches!(
                    n,
                    Expr::Column(_) | Expr::ColumnIdx { .. } | Expr::Aggregate { .. }
                ) {
                    found = true;
                }
            });
            found
        };
        if has_refs {
            return Ok(None);
        }
        // All leaves are literals: evaluate. Evaluation errors (e.g. type
        // errors in dead branches) leave the expression as-is.
        match e.eval(&[]) {
            Ok(v) => Ok(Some(Expr::Literal(v))),
            Err(_) => Ok(None),
        }
    })
    .expect("fold transform is infallible")
}

/// Flattens nested unions.
fn flatten_unions(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Union { inputs } => {
            let mut flat = Vec::new();
            for input in inputs {
                match flatten_unions(input) {
                    LogicalPlan::Union { inputs: nested } => flat.extend(nested),
                    other => flat.push(other),
                }
            }
            LogicalPlan::Union { inputs: flat }
        }
        other => map_children(other, flatten_unions),
    }
}

/// Applies `f` to each direct child plan.
fn map_children(plan: LogicalPlan, f: impl Fn(LogicalPlan) -> LogicalPlan + Copy) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(f(*input)),
            exprs,
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            equi,
            residual,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            join_type,
            equi,
            residual,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(f(*input)),
            group_exprs,
            aggregates,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(f(*input)),
            n,
        },
        LogicalPlan::Union { inputs } => LogicalPlan::Union {
            inputs: inputs.into_iter().map(f).collect(),
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(f(*input)),
        },
    }
}

/// Pushes filters toward the leaves.
fn push_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_filters(*input);
            push_predicate(input, predicate)
        }
        other => map_children(other, push_filters),
    }
}

fn push_predicate(input: LogicalPlan, predicate: Expr) -> LogicalPlan {
    match input {
        // Merge adjacent filters into one conjunction and keep pushing.
        LogicalPlan::Filter {
            input: inner,
            predicate: inner_pred,
        } => {
            let merged = Expr::binary(BinOp::And, inner_pred, predicate);
            push_predicate(*inner, merged)
        }
        LogicalPlan::Scan {
            table,
            alias,
            schema,
            filter,
            projection,
        } => {
            let combined = match filter {
                Some(f) => Expr::binary(BinOp::And, f, predicate),
                None => predicate,
            };
            LogicalPlan::Scan {
                table,
                alias,
                schema,
                filter: Some(combined),
                projection,
            }
        }
        LogicalPlan::Union { inputs } => {
            // Union branches share positional schemas, so the predicate can
            // be replicated verbatim.
            let inputs = inputs
                .into_iter()
                .map(|branch| push_predicate(branch, predicate.clone()))
                .collect();
            LogicalPlan::Union { inputs }
        }
        LogicalPlan::Project {
            input: inner,
            exprs,
            schema,
        } => {
            // Push through when every column the predicate references maps
            // to a pure column expression in the projection.
            if let Some(remapped) = remap_through_project(&predicate, &exprs) {
                let pushed = push_predicate(*inner, remapped);
                LogicalPlan::Project {
                    input: Box::new(pushed),
                    exprs,
                    schema,
                }
            } else {
                LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Project {
                        input: inner,
                        exprs,
                        schema,
                    }),
                    predicate,
                }
            }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            equi,
            residual,
            schema,
        } => {
            let left_len = left.schema().len();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            for conjunct in split_conjuncts(&predicate) {
                let cols = conjunct.referenced_columns();
                let all_left = cols.iter().all(|&c| c < left_len);
                let all_right = cols.iter().all(|&c| c >= left_len);
                if all_left {
                    to_left.push(conjunct);
                } else if all_right && join_type == JoinType::Inner {
                    // Shift column indices into the right input's frame.
                    to_right.push(shift_columns(&conjunct, left_len));
                } else {
                    keep.push(conjunct);
                }
            }
            let left = if let Some(p) = Expr::and_all(to_left) {
                Box::new(push_predicate(*left, p))
            } else {
                left
            };
            let right = if let Some(p) = Expr::and_all(to_right) {
                Box::new(push_predicate(*right, p))
            } else {
                right
            };
            let join = LogicalPlan::Join {
                left,
                right,
                join_type,
                equi,
                residual,
                schema,
            };
            match Expr::and_all(keep) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: p,
                },
                None => join,
            }
        }
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// Rewrites a predicate's column references through a projection when every
/// referenced output column is a bare column expression.
fn remap_through_project(predicate: &Expr, exprs: &[(Expr, String)]) -> Option<Expr> {
    let mut ok = true;
    let result = predicate
        .transform(&mut |e| {
            if let Expr::ColumnIdx { index, .. } = e {
                match exprs.get(*index) {
                    Some((Expr::ColumnIdx { index: src, name }, _)) => {
                        return Ok(Some(Expr::ColumnIdx {
                            index: *src,
                            name: name.clone(),
                        }))
                    }
                    _ => {
                        ok = false;
                    }
                }
            }
            Ok(None)
        })
        .expect("remap transform is infallible");
    ok.then_some(result)
}

/// Shifts all column indices down by `offset` (join-right reframing).
fn shift_columns(expr: &Expr, offset: usize) -> Expr {
    expr.transform(&mut |e| {
        if let Expr::ColumnIdx { index, name } = e {
            return Ok(Some(Expr::ColumnIdx {
                index: index - offset,
                name: name.clone(),
            }));
        }
        Ok(None)
    })
    .expect("shift transform is infallible")
}

/// Prunes scan columns: `Project` directly above `Scan` narrows the scan to
/// the referenced columns and remaps the projection.
fn prune_scans(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, prune_scans);
    let LogicalPlan::Project {
        input,
        exprs,
        schema,
    } = plan
    else {
        return plan;
    };
    let LogicalPlan::Scan {
        table,
        alias,
        schema: scan_schema,
        filter,
        projection: None,
    } = *input
    else {
        return LogicalPlan::Project {
            input,
            exprs,
            schema,
        };
    };
    // Columns the projection expressions need. The scan filter runs on the
    // FULL row before projection (executor semantics), so its column
    // references stay in full-row coordinates and do not force
    // materialization.
    let mut needed: Vec<usize> = exprs
        .iter()
        .flat_map(|(e, _)| e.referenced_columns())
        .collect();
    needed.sort_unstable();
    needed.dedup();
    if needed.len() == scan_schema.len() {
        // Nothing to prune.
        return LogicalPlan::Project {
            input: Box::new(LogicalPlan::Scan {
                table,
                alias,
                schema: scan_schema,
                filter,
                projection: None,
            }),
            exprs,
            schema,
        };
    }
    let remap = |e: &Expr| {
        e.transform(&mut |n| {
            if let Expr::ColumnIdx { index, name } = n {
                let new = needed.binary_search(index).expect("needed column present");
                return Ok(Some(Expr::ColumnIdx {
                    index: new,
                    name: name.clone(),
                }));
            }
            Ok(None)
        })
        .expect("remap is infallible")
    };
    let new_exprs: Vec<(Expr, String)> = exprs.iter().map(|(e, n)| (remap(e), n.clone())).collect();
    let pruned_schema = {
        let cols: Vec<_> = needed
            .iter()
            .map(|&i| scan_schema.columns()[i].clone())
            .collect();
        let mut s = Schema::new(cols);
        if let Some(q) = scan_schema.qualifier(0) {
            s = s.with_qualifier(q);
        }
        s
    };
    LogicalPlan::Project {
        input: Box::new(LogicalPlan::Scan {
            table,
            alias,
            schema: pruned_schema,
            filter,
            projection: Some(needed),
        }),
        exprs: new_exprs,
        schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::plan::plan_select;
    use crate::schema::ColumnType;
    use crate::table::{table_of, Database};
    use crate::value::Value;

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
                vec![vec![Value::Int(1), Value::Timestamp(0), Value::Float(70.0)]],
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("id", ColumnType::Int), ("name", ColumnType::Text)],
                vec![vec![Value::Int(1), Value::text("inlet")]],
            )
            .unwrap(),
        );
        db
    }

    fn optimized(sql: &str) -> LogicalPlan {
        optimize(plan_select(&parse_select(sql).unwrap(), &db()).unwrap())
    }

    #[test]
    fn filter_reaches_scan() {
        let p = optimized("SELECT value FROM m WHERE sensor_id = 1");
        let ex = p.explain();
        assert!(ex.contains("Scan m AS m [filter:"), "{ex}");
        assert!(
            !ex.contains("\nFilter"),
            "no standalone filter remains: {ex}"
        );
    }

    #[test]
    fn filter_splits_across_join() {
        let p = optimized(
            "SELECT name FROM m JOIN sensors s ON m.sensor_id = s.id \
             WHERE m.value > 50 AND s.name = 'inlet'",
        );
        let ex = p.explain();
        // Both conjuncts should land in their respective scans.
        assert!(ex.contains("Scan m AS m [filter:"), "{ex}");
        assert!(ex.contains("Scan sensors AS s [filter:"), "{ex}");
    }

    #[test]
    fn left_join_right_filter_not_pushed() {
        let p = optimized(
            "SELECT name FROM m LEFT JOIN sensors s ON m.sensor_id = s.id WHERE s.name = 'inlet'",
        );
        let ex = p.explain();
        assert!(
            ex.contains("Filter"),
            "right-side filter must stay above the left join: {ex}"
        );
        assert!(!ex.contains("Scan sensors AS s [filter:"), "{ex}");
    }

    #[test]
    fn filter_pushes_into_union_branches() {
        let p = optimized(
            "SELECT v FROM (SELECT value AS v FROM m UNION ALL SELECT value AS v FROM m) u WHERE v > 1",
        );
        let ex = p.explain();
        let pushed = ex.matches("Scan m AS m [filter:").count();
        assert_eq!(pushed, 2, "{ex}");
    }

    #[test]
    fn constants_fold() {
        let p = optimized("SELECT value FROM m WHERE value > 2 + 3");
        let ex = p.explain();
        assert!(ex.contains("> 5"), "{ex}");
        assert!(!ex.contains("2 + 3"), "{ex}");
    }

    #[test]
    fn unions_flatten() {
        let p = optimized(
            "SELECT value FROM m UNION ALL SELECT value FROM m UNION ALL SELECT value FROM m",
        );
        let ex = p.explain();
        assert!(ex.contains("UnionAll (3 branches)"), "{ex}");
    }

    #[test]
    fn scan_pruning_narrows_columns() {
        let p = optimized("SELECT value FROM m");
        let ex = p.explain();
        assert!(ex.contains("[cols: [2]]"), "{ex}");
    }

    #[test]
    fn pruned_plan_schema_stable() {
        let p = optimized("SELECT value, sensor_id FROM m WHERE ts = 0");
        assert_eq!(p.schema().header(), vec!["value", "sensor_id"]);
    }

    /// Regression: the scan filter runs on the full row, so pruning must NOT
    /// remap its column indices (doing so silently filtered everything out).
    #[test]
    fn pruned_scan_filter_still_correct() {
        let plan = optimized("SELECT value FROM m WHERE sensor_id = 1");
        let result = crate::exec::execute(&plan, &db()).unwrap();
        assert_eq!(result.len(), 1, "plan:\n{}", plan.explain());
        // And through a subquery, where the filter column is not projected.
        let sub = optimized("SELECT v FROM (SELECT value AS v FROM m WHERE sensor_id = 1) AS u");
        let result = crate::exec::execute(&sub, &db()).unwrap();
        assert_eq!(result.len(), 1, "plan:\n{}", sub.explain());
    }
}

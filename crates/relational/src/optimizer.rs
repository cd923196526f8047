//! Rule-based logical optimizer.
//!
//! The unfolding stage produces mechanically-generated SQL — large unions of
//! joins with repeated filters — which the paper notes "can be very
//! inefficient, e.g., they contain many redundant joins and unions" [§1,
//! challenge C3]. The rules here are the relational share of the fix:
//!
//! 1. **Constant folding** — pure subexpressions evaluate at plan time.
//! 2. **Filter merging** — `Filter(Filter(x))` → one conjunctive filter.
//! 3. **Predicate pushdown**, one conjunct at a time (a conjunct that cannot
//!    pass a node stays above it, the rest go on) — through DISTINCT (a
//!    conjunct that cannot tell equal values apart), projections, union
//!    branches, into join sides (respecting LEFT-join semantics), and
//!    finally into scans. A projection passes a conjunct by substituting
//!    its bare-column outputs and its mints over a column ([`Expr::Mint`],
//!    `iri_template('P', col)` in SQL text). At the scan,
//!    where the key column's declared type is known, every test of a
//!    minted IRI (`=`, `IN`, `[NOT] IN`, `IS [NOT] NULL`) over an `INT` or
//!    `TEXT` key lowers to a test of the key: a semi-join's `a IN
//!    (…IRIs…)` lands as `key IN (…keys…)`, the unfolder's constant
//!    `iri_template('P', b) = '…/5'` as `b = 5`.
//! 4. **Union flattening** — nested `UnionAll` trees become one n-ary node.
//! 5. **Scan projection pruning** — scans materialize only referenced
//!    columns.
//!
//! Self-join elimination — the mapping-level redundancy — happens earlier,
//! in `optique-mapping::unfold`, where the mapping structure is still known.

use std::sync::Arc;

use crate::expr::{BinOp, Expr, UnaryOp};
use crate::iri_template::IriTemplate;
use crate::parser::JoinType;
use crate::plan::{split_conjuncts, LogicalPlan};
use crate::schema::{ColumnType, Schema};
use crate::value::Value;

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
            let mut predicate = predicate;
            lower_minted(&mut predicate, &schema);
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
            // Conjunct by conjunct: each one the projection can rewrite into
            // its input's frame goes down, the rest stay above. (A predicate
            // it rewrites whole goes down without the split.)
            let mut pushed = Vec::new();
            let mut kept = Vec::new();
            match remap_columns(&predicate, &exprs) {
                Some(remapped) => pushed.push(remapped),
                None => {
                    for conjunct in split_conjuncts(&predicate) {
                        match remap_columns(&conjunct, &exprs) {
                            Some(remapped) => pushed.push(remapped),
                            None => kept.push(conjunct),
                        }
                    }
                }
            }
            let inner = match Expr::and_all(pushed) {
                Some(p) => Box::new(push_predicate(*inner, p)),
                None => inner,
            };
            filter_over(
                LogicalPlan::Project {
                    input: inner,
                    exprs,
                    schema,
                },
                kept,
            )
        }
        LogicalPlan::Distinct { input } => {
            let (through, kept): (Vec<Expr>, Vec<Expr>) = if respects_equality(&predicate) {
                (vec![predicate], Vec::new())
            } else {
                split_conjuncts(&predicate)
                    .into_iter()
                    .partition(respects_equality)
            };
            let input = match Expr::and_all(through) {
                Some(p) => Box::new(push_predicate(*input, p)),
                None => input,
            };
            filter_over(LogicalPlan::Distinct { input }, kept)
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
            filter_over(join, keep)
        }
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// `plan` under a filter of the conjunction of `conjuncts` (none: `plan`).
fn filter_over(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    match Expr::and_all(conjuncts) {
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        },
        None => plan,
    }
}

/// True when `predicate` answers alike on rows that are equal under
/// `Value`'s equality, so filtering commutes with DISTINCT: comparisons,
/// membership and null tests of columns and literals, under AND / OR / NOT.
/// Arithmetic and function calls can tell equal values apart (`3 / 2` is
/// `1`, `3.0 / 2` is `1.5`), and so can a bare column's truthiness
/// (`Int(5)` is true, the equal `Timestamp(5)` is not).
fn respects_equality(predicate: &Expr) -> bool {
    let operand = |e: &Expr| matches!(e, Expr::ColumnIdx { .. } | Expr::Literal(_));
    match predicate {
        Expr::Literal(_) => true,
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            left,
            right,
        } => respects_equality(left) && respects_equality(right),
        Expr::Binary {
            op: BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            left,
            right,
        } => operand(left) && operand(right),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => respects_equality(expr),
        Expr::IsNull { expr, .. } | Expr::InSet { expr, .. } => operand(expr),
        Expr::InList { expr, list, .. } => operand(expr) && list.iter().all(operand),
        Expr::Between { expr, low, high } => operand(expr) && operand(low) && operand(high),
        _ => false,
    }
}

/// Rewrites a predicate's column references into a projection's input
/// frame when every referenced output is a bare column or an IRI minted from
/// one, `iri_template('P', col)` — which the scan may then lower to a test
/// of `col` ([`lower_minted`]). `None` when some referenced output is
/// anything else.
fn remap_columns(predicate: &Expr, exprs: &[(Expr, String)]) -> Option<Expr> {
    let mut ok = true;
    let result = predicate
        .transform(&mut |e| {
            if let Expr::ColumnIdx { index, .. } = e {
                match exprs.get(*index) {
                    Some((output, _))
                        if matches!(output, Expr::ColumnIdx { .. })
                            || minted_key(output).is_some() =>
                    {
                        return Ok(Some(output.clone()))
                    }
                    _ => ok = false,
                }
            }
            Ok(None)
        })
        .expect("remap transform is infallible");
    ok.then_some(result)
}

/// The template, key column and key index of a mint over a column,
/// `iri_template('P', col)`.
fn minted_key(expr: &Expr) -> Option<(&IriTemplate, &Expr, usize)> {
    match expr {
        Expr::Mint { template, key } => match &**key {
            Expr::ColumnIdx { index, .. } => Some((template, key, *index)),
            _ => None,
        },
        _ => None,
    }
}

/// Lowers each test of a minted IRI in a scan's `predicate`, under AND / OR
/// / NOT, to the test of its key that answers alike on every row, NULL
/// included: `iri_template('P', k)` in `IN {…}`, in `[NOT] IN (literals)`
/// or `= c` keeps the keys the IRIs invert to (an IRI no key renders
/// matches no row and is dropped), and `IS [NOT] NULL` becomes `k IS [NOT]
/// NULL`.
///
/// Exact only when `k` holds keys of one type that renders one way, so `k`
/// must be declared `INT` or `TEXT` in the scan's `schema`. A `FLOAT` or
/// `TIMESTAMP` column also admits `Int` values, which render differently
/// (`Int(5)` as `…/5`, `Timestamp(5)` as `…/@5`), so those tests keep
/// rendering. Rewrites in place: only a replaced atom is rebuilt.
fn lower_minted(predicate: &mut Expr, schema: &Schema) {
    match predicate {
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            left,
            right,
        } => {
            lower_minted(left, schema);
            lower_minted(right, schema);
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => lower_minted(expr, schema),
        atom => {
            if let Some(lowered) = lowered_atom(atom, schema) {
                *atom = lowered;
            }
        }
    }
}

/// The key test [`lower_minted`] puts in place of `atom`, if it is one.
fn lowered_atom(atom: &Expr, schema: &Schema) -> Option<Expr> {
    // The template, key and key type behind a tested minted IRI.
    fn template<'e>(
        tested: &'e Expr,
        schema: &Schema,
    ) -> Option<(&'e IriTemplate, Box<Expr>, ColumnType)> {
        let (template, key, index) = minted_key(tested)?;
        let key_type = schema.columns().get(index)?.ty;
        // Without a slot every key renders the pattern itself.
        (template.has_slot() && matches!(key_type, ColumnType::Int | ColumnType::Text))
            .then(|| (template, Box::new(key.clone()), key_type))
    }
    let invert = |template: &IriTemplate, iri: &Value, key_type| match iri {
        Value::Text(iri) => template.invert(iri, key_type),
        _ => None,
    };
    match atom {
        Expr::IsNull { expr, negated } => {
            let (_, key, _) = template(expr, schema)?;
            Some(Expr::IsNull {
                expr: key,
                negated: *negated,
            })
        }
        Expr::InSet { expr, set } => {
            let (pattern, key, key_type) = template(expr, schema)?;
            let keys = set
                .iter()
                .filter_map(|iri| invert(pattern, iri, key_type))
                .collect();
            Some(Expr::InSet {
                expr: key,
                set: Arc::new(keys),
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let (pattern, key, key_type) = template(expr, schema)?;
            let mut keys = Vec::with_capacity(list.len());
            for item in list {
                let Expr::Literal(iri) = item else {
                    return None;
                };
                if iri.is_null() {
                    keys.push(Expr::Literal(Value::Null));
                } else if let Some(k) = invert(pattern, iri, key_type) {
                    keys.push(Expr::Literal(k));
                }
            }
            Some(Expr::InList {
                expr: key,
                list: keys,
                negated: *negated,
            })
        }
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let (tested, constant) = match (&**left, &**right) {
                (tested, Expr::Literal(c)) | (Expr::Literal(c), tested) => (tested, c),
                _ => return None,
            };
            let (pattern, key, key_type) = template(tested, schema)?;
            Some(if constant.is_null() {
                Expr::eq(*key, Expr::Literal(Value::Null))
            } else {
                match invert(pattern, constant, key_type) {
                    Some(k) => Expr::eq(*key, Expr::Literal(k)),
                    // No key renders `c`: false, or NULL on a NULL key.
                    None => Expr::InList {
                        expr: key,
                        list: Vec::new(),
                        negated: false,
                    },
                }
            })
        }
        _ => None,
    }
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

    fn answers(sql: &str, db: &Database) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, String) {
        let (unopt, opt, plan) = answers_and_plan(sql, db);
        (unopt, opt, plan.explain())
    }

    fn answers_and_plan(
        sql: &str,
        db: &Database,
    ) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, LogicalPlan) {
        let plan = plan_select(&parse_select(sql).unwrap(), db).unwrap();
        let unopt = crate::exec::execute(&plan, db).unwrap().rows;
        let plan = optimize(plan);
        let opt = crate::exec::execute(&plan, db).unwrap().rows;
        (unopt, opt, plan)
    }

    /// The `Expr::Mint` nodes of `plan`: in its filters (scan filters and
    /// `Filter` predicates), and in its projections.
    fn mints(plan: &LogicalPlan) -> (usize, usize) {
        let count = |e: &Expr| {
            let mut n = 0;
            e.walk(&mut |node| n += usize::from(matches!(node, Expr::Mint { .. })));
            n
        };
        let (mut filters, mut projections) = (0, 0);
        let mut stack = vec![plan];
        while let Some(node) = stack.pop() {
            match node {
                LogicalPlan::Scan { filter, .. } => filters += filter.as_ref().map_or(0, count),
                LogicalPlan::Filter { input, predicate } => {
                    filters += count(predicate);
                    stack.push(input);
                }
                LogicalPlan::Project { input, exprs, .. } => {
                    projections += exprs.iter().map(|(e, _)| count(e)).sum::<usize>();
                    stack.push(input);
                }
                LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Distinct { input } => stack.push(input),
                LogicalPlan::Join { left, right, .. } => stack.extend([&**left, &**right]),
                LogicalPlan::Union { inputs } => stack.extend(inputs),
            }
        }
        (filters, projections)
    }

    #[test]
    fn filter_passes_distinct_and_inverts_through_an_iri_template() {
        let sql = "SELECT a FROM (SELECT DISTINCT iri_template('http://x/s/{}', id) AS a, name \
                   FROM sensors) d WHERE a IN ('http://x/s/1', 'http://x/s/x') AND name <> 'q'";
        let (unopt, opt, plan) = answers_and_plan(sql, &db());
        let ex = plan.explain();
        assert_eq!(unopt, vec![vec![Value::text("http://x/s/1")]]);
        assert_eq!(opt, unopt);
        // Both conjuncts reach the scan; the IRI that no INT key renders is
        // dropped from the key list.
        assert!(
            ex.contains("Scan sensors AS sensors [filter: ((id IN (1)) AND (name <> 'q'))]"),
            "{ex}"
        );
        assert!(!ex.contains("Filter"), "{ex}");
        assert_eq!(
            mints(&plan),
            (0, 1),
            "the mint stays in the projection: {ex}"
        );
    }

    /// The unfolder's constant shape, `iri_template(P, u0.b) = 'c'`, lowers
    /// at the scan by the key's declared type: an `INT` or `TEXT` key to key
    /// equality with no `Expr::Mint` left in any filter, a `FLOAT` or
    /// `TIMESTAMP` key (which also admits `Int`s that render another way)
    /// to the render test itself. Answers agree either way.
    #[test]
    fn a_minted_constant_lowers_to_a_key_test_by_the_scans_column_type() {
        let mut db = db();
        for (ty, lowered) in [
            (ColumnType::Int, "[filter: (b = 5)]"),
            (ColumnType::Text, "[filter: (b = '5')]"),
            (
                ColumnType::Float,
                "[filter: (iri_template('http://x/o/{}', b) = 'http://x/o/5')]",
            ),
            (
                ColumnType::Timestamp,
                "[filter: (iri_template('http://x/o/{}', b) = 'http://x/o/5')]",
            ),
        ] {
            let five = match ty {
                ColumnType::Text => Value::text("5"),
                ColumnType::Timestamp => Value::Timestamp(5),
                _ => Value::Int(5),
            };
            let rows = vec![
                vec![Value::Int(1), five],
                vec![Value::Int(2), Value::Int(5)],
                vec![Value::Int(3), Value::Null],
            ];
            let rows = rows.into_iter().filter(|r| ty.admits(&r[1])).collect();
            db.put_table(
                "k",
                table_of("k", &[("a", ColumnType::Int), ("b", ty)], rows).unwrap(),
            );
            let sql = "SELECT DISTINCT iri_template('http://x/o/{}', u0.a) AS s \
                       FROM (SELECT a, b FROM k) u0 \
                       WHERE iri_template('http://x/o/{}', u0.b) = 'http://x/o/5'";
            let (unopt, opt, plan) = answers_and_plan(sql, &db);
            let ex = plan.explain();
            assert_eq!(opt, unopt, "{ty}: {ex}");
            assert!(ex.contains(&format!("Scan k AS k {lowered}")), "{ty}: {ex}");
            assert!(!ex.contains("\nFilter"), "{ty}: {ex}");
            let filtered = usize::from(!matches!(ty, ColumnType::Int | ColumnType::Text));
            assert_eq!(mints(&plan), (filtered, 1), "{ty}: {ex}");
        }
    }

    /// A conjunct a projection cannot rewrite stays above it; the others
    /// still go down.
    #[test]
    fn conjuncts_push_one_at_a_time() {
        let sql = "SELECT v FROM (SELECT value * 2 AS v, sensor_id FROM m) d \
                   WHERE v > 100 AND sensor_id = 1";
        let (unopt, opt, ex) = answers(sql, &db());
        assert_eq!(opt, unopt);
        assert!(ex.contains("Scan m AS m [filter: (sensor_id = 1)]"), "{ex}");
        assert!(ex.contains("Filter (v > 100)"), "{ex}");
    }

    /// `Int(3)` and `Float(3.0)` are one value to DISTINCT but not to
    /// `f / 2 = 1`: filtering before the dedup would keep the `Int` that
    /// DISTINCT drops, so arithmetic stays above it.
    #[test]
    fn filters_that_tell_equal_values_apart_stay_above_distinct() {
        let mut db = db();
        db.put_table(
            "g",
            table_of(
                "g",
                &[("f", ColumnType::Float)],
                vec![vec![Value::Float(3.0)], vec![Value::Int(3)]],
            )
            .unwrap(),
        );
        let sql = "SELECT f FROM (SELECT DISTINCT f FROM g) d WHERE f / 2 = 1";
        let (unopt, opt, ex) = answers(sql, &db);
        assert!(unopt.is_empty());
        assert_eq!(opt, unopt, "{ex}");
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

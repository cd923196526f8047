//! Prepared statements: a `UNION ALL` statement whose constants are
//! [`Expr::Param`] leaves, built and planned once per query shape, and the
//! [`Binding`] that makes one execution of it.
//!
//! A binding carries a value per parameter and, per branch of the chain,
//! whether the branch is live: a constant that cannot meet a branch's term
//! map (an IRI outside its template's fixed parts) prunes the branch, as
//! unfolding that constant would have. Binding a statement
//! ([`bind_statement`]) substitutes the values and drops the pruned
//! branches: it is the statement the constants unfold to. Binding a plan
//! ([`bind_plan`]) does the same to the plan of the prepared statement,
//! and in each scan filter lowers the minted-IRI tests the values complete
//! to key tests by the scan's column types — what the optimizer does to a
//! constant it sees at planning time — so a bound plan is the plan of the
//! bound statement.

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::SqlError;
use crate::expr::Expr;
use crate::parser::{Projection, SelectStatement, TableRef};
use crate::plan::LogicalPlan;
use crate::value::Value;

/// The values of one execution of a prepared statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Binding {
    /// The value of each parameter, by index.
    pub values: Vec<Value>,
    /// Per branch of the prepared `UNION ALL` chain, in order: false when
    /// the values prune it.
    pub live: Vec<bool>,
}

impl Binding {
    /// True when every branch is pruned: the statement answers nothing.
    pub fn prunes_all(&self) -> bool {
        !self.live.contains(&true)
    }
}

/// A prepared statement with the binding of one execution — what a
/// fragment built from a cached query shape carries
/// ([`crate::PlanFragment::from_prepared`]).
#[derive(Debug)]
pub struct Prepared {
    /// Identifies `statement` among the prepared statements of a process:
    /// what plans cached for it are keyed by.
    pub shape: u64,
    /// The prepared `UNION ALL` statement, shared with its cache entry.
    pub statement: Arc<SelectStatement>,
    /// This execution's values.
    pub binding: Binding,
}

/// `statement` with `binding`'s values in place of its parameters and its
/// pruned branches dropped (`None` when every branch is).
pub fn bind_statement(statement: &SelectStatement, binding: &Binding) -> Option<SelectStatement> {
    let branches = (statement.branches().zip(&binding.live))
        .filter(|(_, live)| **live)
        .map(|(branch, _)| {
            // Field by field: cloning `branch` whole would clone the rest
            // of the chain behind it.
            let mut branch = SelectStatement {
                distinct: branch.distinct,
                projections: branch.projections.clone(),
                from: branch.from.clone(),
                joins: branch.joins.clone(),
                where_clause: branch.where_clause.clone(),
                group_by: branch.group_by.clone(),
                having: branch.having.clone(),
                order_by: branch.order_by.clone(),
                limit: branch.limit,
                union_all: None,
            };
            substitute_statement(&mut branch, &binding.values);
            branch
        })
        .collect();
    SelectStatement::union_all_of(branches)
}

/// `plan` — the optimized plan of a prepared `UNION ALL` statement whose
/// branches `live` marks — with `values` in place of its parameters, the
/// minted-IRI tests of its scans lowered, and the inputs of pruned branches
/// dropped. A statement of several branches plans to one `Union` root with
/// an input per branch; of one, to that branch's plan. A binding with no
/// value that prunes nothing leaves the plan as it is, so it is lent, not
/// copied.
pub fn bind_plan<'a>(
    plan: &'a LogicalPlan,
    values: &[Value],
    live: &[bool],
) -> Result<Cow<'a, LogicalPlan>, SqlError> {
    let union = match plan {
        LogicalPlan::Union { inputs } if live.len() > 1 => Some(inputs),
        _ => None,
    };
    if union.map_or(1, Vec::len) != live.len() {
        return Err(SqlError::Execution(format!(
            "a prepared plan does not have the {} branches of its binding",
            live.len()
        )));
    }
    if values.is_empty() && !live.contains(&false) {
        return Ok(Cow::Borrowed(plan));
    }
    let mut bound = match union {
        Some(inputs) => LogicalPlan::Union {
            inputs: (inputs.iter().zip(live))
                .filter(|(_, live)| **live)
                .map(|(input, _)| input.clone())
                .collect(),
        },
        None => plan.clone(),
    };
    bind_node(&mut bound, values);
    Ok(Cow::Owned(bound))
}

/// Substitutes `values` for the parameters of `plan` in place, lowering the
/// minted tests of each scan filter that held one.
fn bind_node(plan: &mut LogicalPlan, values: &[Value]) {
    match plan {
        LogicalPlan::Scan { filter, schema, .. } => {
            if let Some(filter) = filter.as_mut().filter(|f| f.has_params()) {
                substitute(filter, values);
                crate::optimizer::lower_minted(filter, schema);
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            substitute(predicate, values);
            bind_node(input, values);
        }
        LogicalPlan::Project { input, exprs, .. } => {
            exprs.iter_mut().for_each(|(e, _)| substitute(e, values));
            bind_node(input, values);
        }
        LogicalPlan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            for (l, r) in equi.iter_mut() {
                substitute(l, values);
                substitute(r, values);
            }
            if let Some(residual) = residual {
                substitute(residual, values);
            }
            bind_node(left, values);
            bind_node(right, values);
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            ..
        } => {
            group_exprs.iter_mut().for_each(|e| substitute(e, values));
            for (_, args) in aggregates.iter_mut() {
                args.iter_mut().for_each(|e| substitute(e, values));
            }
            bind_node(input, values);
        }
        LogicalPlan::Sort { input, keys } => {
            keys.iter_mut().for_each(|(e, _)| substitute(e, values));
            bind_node(input, values);
        }
        LogicalPlan::Limit { input, .. } | LogicalPlan::Distinct { input } => {
            bind_node(input, values)
        }
        LogicalPlan::Union { inputs } => inputs.iter_mut().for_each(|i| bind_node(i, values)),
    }
}

/// Replaces every [`Expr::Param`] of `expr` by its value (NULL for an index
/// past `values`, which no prepared statement holds).
fn substitute(expr: &mut Expr, values: &[Value]) {
    expr.walk_mut(&mut |e| {
        if let Expr::Param(i) = e {
            *e = Expr::Literal(values.get(*i).cloned().unwrap_or(Value::Null));
        }
    });
}

/// [`substitute`] over every expression of one statement, subqueries
/// included (its `union_all` excepted).
fn substitute_statement(statement: &mut SelectStatement, values: &[Value]) {
    for projection in &mut statement.projections {
        if let Projection::Expr { expr, .. } = projection {
            substitute(expr, values);
        }
    }
    let mut refs = vec![&mut statement.from];
    for join in &mut statement.joins {
        substitute(&mut join.on, values);
        refs.push(&mut join.table);
    }
    for table in refs {
        if let TableRef::Subquery { query, .. } = table {
            substitute_statement(query, values);
        }
    }
    let clauses = (statement.where_clause.iter_mut())
        .chain(statement.having.iter_mut())
        .chain(statement.group_by.iter_mut())
        .chain(statement.order_by.iter_mut().map(|(e, _)| e));
    clauses.for_each(|e| substitute(e, values));
}

/// An estimate of the heap a prepared statement, plan or rewriting holds:
/// the length of its debug rendering, which writes every node, name and
/// constant it owns once. For unfolded statements and their plans it reads
/// 0.65–0.8× of the bytes they allocate, and so tracks what a cache of
/// them keeps far better than their SQL text, a fifth of it.
pub fn estimated_bytes(value: &impl std::fmt::Debug) -> usize {
    struct Count(usize);
    impl std::fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    let _ = std::fmt::write(&mut count, format_args!("{value:?}"));
    count.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::table::{table_of, Database};

    fn db() -> Database {
        let mut db = Database::new();
        for (name, ty) in [("ints", ColumnType::Int), ("texts", ColumnType::Text)] {
            let rows = (0..4)
                .map(|k| {
                    let key = match ty {
                        ColumnType::Int => Value::Int(k),
                        _ => Value::text(k.to_string()),
                    };
                    vec![key, Value::Int(k * 10)]
                })
                .collect();
            let schema = [("k", ty), ("v", ColumnType::Int)];
            db.put_table(name, table_of(name, &schema, rows).unwrap());
        }
        db
    }

    /// `SELECT DISTINCT u0.v FROM (SELECT k, v FROM t) AS u0 WHERE
    /// iri_template('http://x/{}', u0.k) = <iri>` per table, chained.
    fn prepared(iri: Expr) -> SelectStatement {
        let branches = ["ints", "texts"].map(|table| {
            let text = format!(
                "SELECT DISTINCT u0.v AS v FROM (SELECT k, v FROM {table}) AS u0 \
                 WHERE iri_template('http://x/{{}}', u0.k) = 'placeholder'"
            );
            let mut branch = crate::parse_select(&text).unwrap();
            let Some(Expr::Binary { right, .. }) = &mut branch.where_clause else {
                panic!("a comparison");
            };
            **right = iri.clone();
            branch
        });
        SelectStatement::union_all_of(branches.into()).unwrap()
    }

    fn plan(statement: &SelectStatement, db: &Database) -> LogicalPlan {
        crate::optimizer::optimize(crate::plan::plan_select(statement, db).unwrap())
    }

    /// A bound plan is the plan of the bound statement — the minted test
    /// lowered to `k = 2` on the INT key and `k = '2'` on the TEXT one —
    /// and a pruned branch is gone from both. With nothing to bind, the
    /// plan is lent, not copied.
    #[test]
    fn a_bound_plan_is_the_plan_of_the_bound_statement() {
        let db = db();
        let with_param = prepared(Expr::Param(0));
        let param_plan = plan(&with_param, &db);
        for live in [vec![true, true], vec![true, false], vec![false, true]] {
            let binding = Binding {
                values: vec![Value::text("http://x/2")],
                live: live.clone(),
            };
            let bound = bind_statement(&with_param, &binding).unwrap();
            let fresh = plan(&bound, &db);
            let by_binding = bind_plan(&param_plan, &binding.values, &live).unwrap();
            let fresh_inputs = match &fresh {
                LogicalPlan::Union { inputs } => inputs.clone(),
                one => vec![one.clone()],
            };
            let bound_inputs = match &*by_binding {
                LogicalPlan::Union { inputs } => inputs.clone(),
                one => vec![one.clone()],
            };
            assert_eq!(
                format!("{fresh_inputs:?}"),
                format!("{bound_inputs:?}"),
                "{live:?}"
            );
            let rows = crate::execute(&by_binding, &db).unwrap();
            let live_branches = live.iter().filter(|l| **l).count();
            assert_eq!(rows.len(), live_branches, "v = 20 once per live branch");
        }
        let all_pruned = Binding {
            values: vec![Value::text("http://x/2")],
            live: vec![false, false],
        };
        assert!(all_pruned.prunes_all());
        assert_eq!(bind_statement(&with_param, &all_pruned), None);

        // No value and no pruned branch: the plan is lent as it is.
        let constant_plan = plan(&prepared(Expr::Literal(Value::text("http://x/2"))), &db);
        let lent = bind_plan(&constant_plan, &[], &[true, true]).unwrap();
        assert!(matches!(lent, Cow::Borrowed(lent) if std::ptr::eq(lent, &constant_plan)));
        let pruned = bind_plan(&constant_plan, &[], &[true, false]).unwrap();
        assert!(matches!(pruned, Cow::Owned(LogicalPlan::Union { inputs }) if inputs.len() == 1));
    }

    /// An unbound parameter never evaluates: it is an error, not a value.
    #[test]
    fn an_unbound_parameter_is_an_execution_error() {
        let db = db();
        let err = crate::execute(&plan(&prepared(Expr::Param(0)), &db), &db).unwrap_err();
        assert!(err.to_string().contains("$0"), "{err}");
    }
}

//! Logical plans and the name binder.
//!
//! [`plan_select`] turns a parsed [`SelectStatement`] into a [`LogicalPlan`]
//! whose expressions are fully bound (positional column references), ready
//! for the [`crate::optimizer`] and [`crate::exec`] stages.

use crate::error::SqlError;
use crate::expr::Expr;
use crate::functions::AggFunc;
use crate::parser::{Join as AstJoin, JoinType, Projection, SelectStatement, TableRef};
use crate::schema::{Column, ColumnType, Schema};
use crate::table::Database;

/// A bound logical plan node. Every node knows its output schema.
#[derive(Clone, Debug)]
pub enum LogicalPlan {
    /// Base-table scan with optional pushed filter and column projection.
    Scan {
        /// Catalog table name.
        table: String,
        /// Binding alias.
        alias: String,
        /// Output schema (post-projection).
        schema: Schema,
        /// Pushed-down predicate over the *full* table schema.
        filter: Option<Expr>,
        /// Kept column positions (None = all).
        projection: Option<Vec<usize>>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// Expression projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions with names.
        exprs: Vec<(Expr, String)>,
        /// Output schema.
        schema: Schema,
    },
    /// Join of two inputs.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// INNER or LEFT.
        join_type: JoinType,
        /// Equi-join pairs: (left expr, right expr), each bound against its
        /// own side's schema.
        equi: Vec<(Expr, Expr)>,
        /// Residual ON predicate over the concatenated schema.
        residual: Option<Expr>,
        /// Output schema = left ⊕ right.
        schema: Schema,
    },
    /// Grouped aggregation; output = group keys then aggregate results.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-key expressions over the input schema.
        group_exprs: Vec<Expr>,
        /// Aggregates: function + bound argument expressions.
        aggregates: Vec<(AggFunc, Vec<Expr>)>,
        /// Output schema.
        schema: Schema,
    },
    /// Sort by keys (expr, desc).
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys over the input schema.
        keys: Vec<(Expr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: usize,
    },
    /// UNION ALL of schema-compatible inputs.
    Union {
        /// The branches.
        inputs: Vec<LogicalPlan>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Union { inputs } => inputs[0].schema(),
        }
    }

    /// Counts nodes, for plan-shape assertions in tests and benches.
    pub fn node_count(&self) -> usize {
        1 + match self {
            LogicalPlan::Scan { .. } => 0,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.node_count(),
            LogicalPlan::Aggregate { input, .. } => input.node_count(),
            LogicalPlan::Join { left, right, .. } => left.node_count() + right.node_count(),
            LogicalPlan::Union { inputs } => inputs.iter().map(|p| p.node_count()).sum(),
        }
    }

    /// Pretty multi-line plan rendering (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan {
                table,
                alias,
                filter,
                projection,
                ..
            } => {
                out.push_str(&format!("{pad}Scan {table} AS {alias}"));
                if let Some(f) = filter {
                    out.push_str(&format!(" [filter: {f}]"));
                }
                if let Some(p) = projection {
                    out.push_str(&format!(" [cols: {p:?}]"));
                }
                out.push('\n');
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate}\n"));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                out.push_str(&format!("{pad}Project {}\n", cols.join(", ")));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                equi,
                residual,
                ..
            } => {
                let kind = match join_type {
                    JoinType::Inner => "InnerJoin",
                    JoinType::Left => "LeftJoin",
                };
                let keys: Vec<String> = equi.iter().map(|(l, r)| format!("{l}={r}")).collect();
                out.push_str(&format!("{pad}{kind} on [{}]", keys.join(", ")));
                if let Some(r) = residual {
                    out.push_str(&format!(" residual: {r}"));
                }
                out.push('\n');
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                ..
            } => {
                let groups: Vec<String> = group_exprs.iter().map(|e| e.to_string()).collect();
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|(f, args)| {
                        let a: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                        format!("{f}({})", a.join(", "))
                    })
                    .collect();
                out.push_str(&format!(
                    "{pad}Aggregate groups=[{}] aggs=[{}]\n",
                    groups.join(", "),
                    aggs.join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort {}\n", ks.join(", ")));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Union { inputs } => {
                out.push_str(&format!("{pad}UnionAll ({} branches)\n", inputs.len()));
                for i in inputs {
                    i.explain_into(out, depth + 1);
                }
            }
            LogicalPlan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// Plans (binds) a parsed statement against the catalog.
pub fn plan_select(stmt: &SelectStatement, db: &Database) -> Result<LogicalPlan, SqlError> {
    let mut plan = plan_single(stmt, db)?;
    // UNION ALL chain.
    if stmt.union_all.is_some() {
        let mut branches = vec![plan];
        let mut cur = &stmt.union_all;
        while let Some(next) = cur {
            let branch = plan_single(next, db)?;
            if branch.schema().len() != branches[0].schema().len() {
                return Err(SqlError::Binding(format!(
                    "UNION ALL arity mismatch: {} vs {}",
                    branches[0].schema().len(),
                    branch.schema().len()
                )));
            }
            branches.push(branch);
            cur = &next.union_all;
        }
        plan = LogicalPlan::Union { inputs: branches };
    }
    Ok(plan)
}

fn plan_single(stmt: &SelectStatement, db: &Database) -> Result<LogicalPlan, SqlError> {
    // FROM + JOINs.
    let mut plan = plan_table_ref(&stmt.from, db)?;
    for AstJoin {
        join_type,
        table,
        on,
    } in &stmt.joins
    {
        let right = plan_table_ref(table, db)?;
        plan = build_join(plan, right, *join_type, on)?;
    }

    // WHERE.
    if let Some(w) = &stmt.where_clause {
        if w.contains_aggregate() {
            return Err(SqlError::Binding(
                "aggregates are not allowed in WHERE".into(),
            ));
        }
        let predicate = w.bind(plan.schema())?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    // Aggregation?
    let has_aggs = stmt.projections.iter().any(|p| match p {
        Projection::Expr { expr, .. } => expr.contains_aggregate(),
        Projection::Star => false,
    }) || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate());

    let (mut plan, projections): (LogicalPlan, Vec<(Expr, String)>) =
        if !stmt.group_by.is_empty() || has_aggs {
            plan_aggregate(stmt, plan)?
        } else {
            if stmt.having.is_some() {
                return Err(SqlError::Binding(
                    "HAVING requires GROUP BY or aggregates".into(),
                ));
            }
            let mut out = Vec::new();
            for p in &stmt.projections {
                match p {
                    Projection::Star => {
                        for (i, name) in plan.schema().header().into_iter().enumerate() {
                            let short = name.rsplit('.').next().unwrap_or(&name).to_string();
                            out.push((Expr::ColumnIdx { index: i, name }, short));
                        }
                    }
                    Projection::Expr { expr, alias } => {
                        let bound = expr.bind(plan.schema())?;
                        let name = alias.clone().unwrap_or_else(|| expr.default_name());
                        out.push((bound, name));
                    }
                }
            }
            (plan, out)
        };

    // ORDER BY keys resolve against the projection output when possible;
    // otherwise against the pre-projection input (standard SQL permits
    // `SELECT value FROM m ORDER BY ts`), in which case the sort runs
    // below the projection.
    let mut sort_below: Option<Vec<(Expr, bool)>> = None;
    let mut sort_above: Option<Vec<(Expr, bool)>> = None;
    if !stmt.order_by.is_empty() {
        let out_schema = Schema::new(
            projections
                .iter()
                .map(|(_, name)| Column::new(name.clone(), ColumnType::Any))
                .collect(),
        );
        let above: Result<Vec<_>, SqlError> = stmt
            .order_by
            .iter()
            .map(|(e, desc)| Ok((e.bind(&out_schema)?, *desc)))
            .collect();
        match above {
            Ok(keys) => sort_above = Some(keys),
            Err(_) => {
                let below = stmt
                    .order_by
                    .iter()
                    .map(|(e, desc)| Ok((e.bind(plan.schema())?, *desc)))
                    .collect::<Result<Vec<_>, SqlError>>()?;
                sort_below = Some(below);
            }
        }
    }
    if let Some(keys) = sort_below {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    // Final projection node.
    let schema = Schema::new(
        projections
            .iter()
            .map(|(_, name)| Column::new(name.clone(), ColumnType::Any))
            .collect(),
    );
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: projections,
        schema,
    };

    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }

    if let Some(keys) = sort_above {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

fn plan_table_ref(table_ref: &TableRef, db: &Database) -> Result<LogicalPlan, SqlError> {
    match table_ref {
        TableRef::Named { name, alias } => {
            let table = db.table(name)?;
            let schema = table.schema.with_qualifier(alias);
            Ok(LogicalPlan::Scan {
                table: name.clone(),
                alias: alias.clone(),
                schema,
                filter: None,
                projection: None,
            })
        }
        TableRef::Subquery { query, alias } => {
            let inner = plan_select(query, db)?;
            let schema = inner.schema().with_qualifier(alias);
            // Re-qualification is a schema-only change: wrap in a Project
            // that renames (identity expressions).
            let exprs: Vec<(Expr, String)> = inner
                .schema()
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    (
                        Expr::ColumnIdx {
                            index: i,
                            name: c.name.clone(),
                        },
                        c.name.clone(),
                    )
                })
                .collect();
            Ok(LogicalPlan::Project {
                input: Box::new(inner),
                exprs,
                schema,
            })
        }
    }
}

/// Splits an ON condition into equi-join pairs and a residual, binding each
/// piece appropriately.
fn build_join(
    left: LogicalPlan,
    right: LogicalPlan,
    join_type: JoinType,
    on: &Expr,
) -> Result<LogicalPlan, SqlError> {
    let joint = left.schema().join(right.schema());
    let left_len = left.schema().len();
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for conjunct in split_conjuncts(on) {
        if let Expr::Binary {
            op: crate::expr::BinOp::Eq,
            left: l,
            right: r,
        } = &conjunct
        {
            // Try binding each side exclusively to one input.
            let ll = l.bind(left.schema());
            let lr = l.bind(right.schema());
            let rl = r.bind(left.schema());
            let rr = r.bind(right.schema());
            match (ll, rr, lr, rl) {
                (Ok(lb), Ok(rb), _, _) => {
                    equi.push((lb, rb));
                    continue;
                }
                (_, _, Ok(rb), Ok(lb)) => {
                    equi.push((lb, rb));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(conjunct.bind(&joint)?);
    }
    let residual = Expr::and_all(residual);
    let _ = left_len;
    Ok(LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        join_type,
        equi,
        residual,
        schema: joint,
    })
}

/// Flattens nested ANDs into a conjunct list.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            op: crate::expr::BinOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Builds the Aggregate node and the post-aggregation projection list.
fn plan_aggregate(
    stmt: &SelectStatement,
    input: LogicalPlan,
) -> Result<(LogicalPlan, Vec<(Expr, String)>), SqlError> {
    let input_schema = input.schema().clone();

    // Collect distinct aggregate calls from projections and HAVING.
    let mut agg_calls: Vec<Expr> = Vec::new();
    let mut collect = |e: &Expr| {
        e.walk(&mut |n| {
            if matches!(n, Expr::Aggregate { .. }) && !agg_calls.contains(n) {
                agg_calls.push(n.clone());
            }
        });
    };
    for p in &stmt.projections {
        if let Projection::Expr { expr, .. } = p {
            collect(expr);
        }
    }
    if let Some(h) = &stmt.having {
        collect(h);
    }

    // Bind group keys and aggregate arguments over the input.
    let group_bound = stmt
        .group_by
        .iter()
        .map(|e| e.bind(&input_schema))
        .collect::<Result<Vec<_>, _>>()?;
    let aggregates = agg_calls
        .iter()
        .map(|call| {
            let Expr::Aggregate { func, args } = call else {
                unreachable!()
            };
            let bound_args = args
                .iter()
                .map(|a| a.bind(&input_schema))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((*func, bound_args))
        })
        .collect::<Result<Vec<_>, SqlError>>()?;

    // Aggregate output schema: group keys then aggregate slots.
    let mut columns = Vec::new();
    for (i, g) in stmt.group_by.iter().enumerate() {
        let name = g.default_name();
        columns.push(Column::new(
            if name.is_empty() {
                format!("g{i}")
            } else {
                name
            },
            ColumnType::Any,
        ));
    }
    for (j, call) in agg_calls.iter().enumerate() {
        let _ = call;
        columns.push(Column::new(format!("agg{j}"), ColumnType::Any));
    }
    let agg_schema = Schema::new(columns);

    let plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group_exprs: group_bound,
        aggregates,
        schema: agg_schema.clone(),
    };

    // Rewrites a post-aggregation expression: group-by subtrees and aggregate
    // calls become positional references into the aggregate output.
    let group_len = stmt.group_by.len();
    fn rewrite_post_agg(
        e: &Expr,
        group_by: &[Expr],
        agg_calls: &[Expr],
        group_len: usize,
    ) -> Result<Expr, SqlError> {
        if let Some(i) = group_by.iter().position(|g| g == e) {
            return Ok(Expr::ColumnIdx {
                index: i,
                name: e.default_name(),
            });
        }
        if let Some(j) = agg_calls.iter().position(|a| a == e) {
            return Ok(Expr::ColumnIdx {
                index: group_len + j,
                name: format!("agg{j}"),
            });
        }
        match e {
            Expr::Column(name) => Err(SqlError::Binding(format!(
                "column {name} must appear in GROUP BY or inside an aggregate"
            ))),
            Expr::Literal(_) | Expr::ColumnIdx { .. } | Expr::Param(_) => Ok(e.clone()),
            Expr::Unary { op, expr } => Ok(Expr::Unary {
                op: *op,
                expr: Box::new(rewrite_post_agg(expr, group_by, agg_calls, group_len)?),
            }),
            Expr::Binary { op, left, right } => Ok(Expr::Binary {
                op: *op,
                left: Box::new(rewrite_post_agg(left, group_by, agg_calls, group_len)?),
                right: Box::new(rewrite_post_agg(right, group_by, agg_calls, group_len)?),
            }),
            Expr::Function { name, args } => Ok(Expr::Function {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| rewrite_post_agg(a, group_by, agg_calls, group_len))
                    .collect::<Result<_, _>>()?,
            }),
            Expr::Mint { template, key } => Ok(Expr::Mint {
                template: template.clone(),
                key: Box::new(rewrite_post_agg(key, group_by, agg_calls, group_len)?),
            }),
            Expr::Aggregate { .. } => Err(SqlError::Binding(
                "nested aggregates are not supported".into(),
            )),
            Expr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(rewrite_post_agg(expr, group_by, agg_calls, group_len)?),
                negated: *negated,
            }),
            Expr::InSet { expr, set } => Ok(Expr::InSet {
                expr: Box::new(rewrite_post_agg(expr, group_by, agg_calls, group_len)?),
                set: std::sync::Arc::clone(set),
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(Expr::InList {
                expr: Box::new(rewrite_post_agg(expr, group_by, agg_calls, group_len)?),
                list: list
                    .iter()
                    .map(|a| rewrite_post_agg(a, group_by, agg_calls, group_len))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            }),
            Expr::Between { expr, low, high } => Ok(Expr::Between {
                expr: Box::new(rewrite_post_agg(expr, group_by, agg_calls, group_len)?),
                low: Box::new(rewrite_post_agg(low, group_by, agg_calls, group_len)?),
                high: Box::new(rewrite_post_agg(high, group_by, agg_calls, group_len)?),
            }),
        }
    }

    let mut plan = plan;
    if let Some(h) = &stmt.having {
        let predicate = rewrite_post_agg(h, &stmt.group_by, &agg_calls, group_len)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    let mut projections = Vec::new();
    for p in &stmt.projections {
        match p {
            Projection::Star => {
                return Err(SqlError::Binding(
                    "SELECT * is not valid with GROUP BY".into(),
                ))
            }
            Projection::Expr { expr, alias } => {
                let rewritten = rewrite_post_agg(expr, &stmt.group_by, &agg_calls, group_len)?;
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                projections.push((rewritten, name));
            }
        }
    }
    Ok((plan, projections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::table::table_of;
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
                vec![
                    vec![Value::Int(1), Value::Timestamp(0), Value::Float(70.0)],
                    vec![Value::Int(1), Value::Timestamp(1000), Value::Float(75.0)],
                    vec![Value::Int(2), Value::Timestamp(0), Value::Float(60.0)],
                ],
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("id", ColumnType::Int), ("name", ColumnType::Text)],
                vec![
                    vec![Value::Int(1), Value::text("inlet")],
                    vec![Value::Int(2), Value::text("outlet")],
                ],
            )
            .unwrap(),
        );
        db
    }

    fn plan(sql: &str) -> LogicalPlan {
        plan_select(&parse_select(sql).unwrap(), &db()).unwrap()
    }

    #[test]
    fn star_projects_all() {
        let p = plan("SELECT * FROM m");
        assert_eq!(p.schema().len(), 3);
    }

    #[test]
    fn where_binds() {
        let p = plan("SELECT value FROM m WHERE sensor_id = 1");
        assert!(p.explain().contains("Filter"));
    }

    #[test]
    fn join_splits_equi_keys() {
        let p = plan("SELECT name FROM m JOIN sensors s ON m.sensor_id = s.id");
        let ex = p.explain();
        assert!(ex.contains("InnerJoin"), "{ex}");
        assert!(
            ex.contains("m.sensor_id=s.id") || ex.contains("sensor_id=id"),
            "{ex}"
        );
    }

    #[test]
    fn aggregate_schema_and_having() {
        let p = plan(
            "SELECT sensor_id, AVG(value) AS a FROM m GROUP BY sensor_id HAVING AVG(value) > 60",
        );
        let ex = p.explain();
        assert!(ex.contains("Aggregate"), "{ex}");
        assert!(ex.contains("Filter"), "having became a filter: {ex}");
        assert_eq!(p.schema().header(), vec!["sensor_id", "a"]);
    }

    #[test]
    fn global_aggregate_without_group() {
        let p = plan("SELECT COUNT(*) FROM m");
        assert!(p.explain().contains("Aggregate"));
        assert_eq!(p.schema().len(), 1);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = plan_select(
            &parse_select("SELECT value, COUNT(*) FROM m GROUP BY sensor_id").unwrap(),
            &db(),
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Binding(_)));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let err = plan_select(
            &parse_select("SELECT sensor_id FROM m WHERE COUNT(*) > 1").unwrap(),
            &db(),
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Binding(_)));
    }

    #[test]
    fn union_arity_checked() {
        let err = plan_select(
            &parse_select("SELECT sensor_id FROM m UNION ALL SELECT sensor_id, value FROM m")
                .unwrap(),
            &db(),
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Binding(_)));
    }

    #[test]
    fn subquery_planned() {
        let p = plan("SELECT v FROM (SELECT value AS v FROM m) sub WHERE v > 60");
        assert!(p.explain().contains("Project"));
    }

    /// FROM names tables and subqueries only: a function call there never
    /// reaches the binder.
    #[test]
    fn unknown_table_function_rejected() {
        let err = crate::exec::query("SELECT * FROM nosuchfn(1) AS w", &db()).unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }), "{err}");
    }
}

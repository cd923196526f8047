//! Conjunctive-query → SQL unfolding (GAV expansion).
//!
//! Each atom of the (already enriched) query picks one of its term's mapping
//! assertions; each combination of picks yields one conjunctive SQL query —
//! one FROM item per atom, join conditions wherever atoms share variables —
//! and the combinations are assembled with `UNION ALL`. Combinations whose
//! term maps can never produce equal RDF terms (different IRI templates,
//! IRI-vs-literal) are pruned before emission, and aliases over the same
//! source joined on a declared unique key are merged (**self-join
//! elimination** — the redundancy the paper calls out in challenge C3).
//!
//! [`unfold_prepared`] unfolds a query once per *shape*: each query
//! constant listed as a parameter becomes an [`Expr::Param`] where it meets
//! a term map, and a branch whose emission depended on the constant's value
//! carries a [`Guard`] instead. [`PreparedUnfolding::bind`] then decides
//! the guards for one set of constants: the branches and counts it leaves
//! are those unfolding the constants themselves emits.

use std::collections::HashMap;

use optique_rdf::Term;
use optique_relational::iri_template::IriTemplate;
use optique_relational::parser::{Join, JoinType, Projection, SelectStatement, TableRef};
use optique_relational::{Binding, ColumnType, Expr, Value};
use optique_rewrite::{Atom, ConjunctiveQuery, QueryTerm, UnionQuery};

use crate::assertion::{MappingAssertion, MappingHead, TermMap};
use crate::catalog::MappingCatalog;
use crate::virtualize::literal_to_value;

/// Unfolder limits.
#[derive(Clone, Copy, Debug)]
pub struct UnfoldSettings {
    /// Upper bound on mapping combinations per CQ.
    pub max_combinations: usize,
}

impl Default for UnfoldSettings {
    fn default() -> Self {
        UnfoldSettings {
            max_combinations: 100_000,
        }
    }
}

/// Unfolding observability (feeds E3/E5 reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnfoldStats {
    /// Mapping combinations enumerated.
    pub combinations: usize,
    /// SQL disjuncts emitted.
    pub emitted: usize,
    /// Combinations pruned as term-incompatible.
    pub pruned: usize,
    /// Alias pairs merged by self-join elimination.
    pub self_joins_eliminated: usize,
}

/// One RDF position inside a candidate: which alias produces it, with which
/// term map.
#[derive(Clone, Debug)]
struct Position {
    alias: usize,
    map: TermMap,
}

/// Join/filter conditions over aliases, pre-AST.
#[derive(Clone, Debug, PartialEq)]
enum Cond {
    ColEq {
        left: (usize, String),
        right: (usize, String),
    },
    /// The column equals a literal's value (a literal or a parameter).
    ColConst { col: (usize, String), value: Expr },
    /// `template` mints the constant IRI `iri` (a text literal or a
    /// parameter) from the column.
    Minted {
        col: (usize, String),
        template: IriTemplate,
        iri: Expr,
    },
}

/// What one branch of a [`PreparedUnfolding`] needs of a parameter's value
/// to be emitted: unfolding the value itself prunes the branch otherwise.
#[derive(Clone, Debug, PartialEq)]
pub enum Guard {
    /// The IRI lies inside `template`'s fixed parts — some TEXT key renders
    /// it (which key type the column has is the scan's business).
    Mints {
        /// The parameter.
        param: usize,
        /// The term map's template.
        template: IriTemplate,
    },
    /// The value is `term`, a constant term map's term.
    Equals {
        /// The parameter.
        param: usize,
        /// The term map's constant.
        term: Term,
    },
}

impl Guard {
    fn holds(&self, params: &[Term]) -> bool {
        match self {
            Guard::Mints { param, template } => match &params[*param] {
                Term::Iri(iri) => template.invert(iri.as_str(), ColumnType::Text).is_some(),
                _ => false,
            },
            Guard::Equals { param, term } => &params[*param] == term,
        }
    }
}

/// A UCQ unfolded with query constants as parameters ([`unfold_prepared`]).
#[derive(Clone, Debug)]
pub struct PreparedUnfolding {
    /// The `UNION ALL` of every branch some binding emits, with
    /// `Param(i)` where the `i`-th constant meets a term map (`None` when
    /// none is emitted for any binding).
    pub statement: Option<SelectStatement>,
    /// Per branch of `statement`, in order, the guards a binding must pass
    /// for the branch to be emitted.
    pub guards: Vec<Vec<Guard>>,
    /// The counts of a binding that passes every guard.
    pub stats: UnfoldStats,
}

impl PreparedUnfolding {
    /// Binds `params`, the constants in parameter order: their values, the
    /// branches whose guards they pass, and the counts unfolding the
    /// constants themselves reports — a branch a guard prunes is a pruned
    /// combination, not an emitted one.
    pub fn bind(&self, params: &[Term]) -> (Binding, UnfoldStats) {
        let live: Vec<bool> = (self.guards.iter())
            .map(|guards| guards.iter().all(|g| g.holds(params)))
            .collect();
        let pruned = live.iter().filter(|live| !**live).count();
        let stats = UnfoldStats {
            emitted: self.stats.emitted - pruned,
            pruned: self.stats.pruned + pruned,
            ..self.stats
        };
        let values = params.iter().map(constant_value).collect();
        (Binding { values, live }, stats)
    }
}

/// The SQL value a constant stands for: an IRI's text, a literal's value.
fn constant_value(term: &Term) -> Value {
    match term {
        Term::Iri(iri) => Value::text(iri.as_str()),
        Term::Literal(lit) => literal_to_value(lit),
        Term::BNode(id) => Value::text(format!("_:b{id}")),
    }
}

/// Unfolds a UCQ with each constant of `params` as a parameter (its index
/// in `params`); a constant not listed is inlined, as [`unfold_ucq`] does.
/// The UCQ's constants must be the query's: rewriting adds none, so the
/// prepared unfolding of one query serves every query of its shape —
/// whose constants, bound in the same order, take the parameters' place.
pub fn unfold_prepared(
    ucq: &UnionQuery,
    catalog: &MappingCatalog,
    settings: &UnfoldSettings,
    params: &[Term],
) -> Result<PreparedUnfolding, String> {
    let mut stats = UnfoldStats::default();
    let mut statements: Vec<SelectStatement> = Vec::new();
    let mut guards: Vec<Vec<Guard>> = Vec::new();
    for cq in &ucq.disjuncts {
        let (branches, s) = unfold_branches(cq, catalog, settings, params)?;
        stats.combinations += s.combinations;
        stats.emitted += s.emitted;
        stats.pruned += s.pruned;
        stats.self_joins_eliminated += s.self_joins_eliminated;
        for (statement, guarded) in branches {
            statements.push(statement);
            guards.push(guarded);
        }
    }
    Ok(PreparedUnfolding {
        statement: chain_union(statements),
        guards,
        stats,
    })
}

/// Unfolds a UCQ into a single SQL statement (`None` when no disjunct has
/// mappings for all its atoms).
pub fn unfold_ucq(
    ucq: &UnionQuery,
    catalog: &MappingCatalog,
    settings: &UnfoldSettings,
) -> Result<(Option<SelectStatement>, UnfoldStats), String> {
    let unfolded = unfold_prepared(ucq, catalog, settings, &[])?;
    Ok((unfolded.statement, unfolded.stats))
}

/// Unfolds one conjunctive query.
pub fn unfold_cq(
    cq: &ConjunctiveQuery,
    catalog: &MappingCatalog,
    settings: &UnfoldSettings,
) -> Result<(Option<SelectStatement>, UnfoldStats), String> {
    let (branches, stats) = unfold_branches(cq, catalog, settings, &[])?;
    let statements = branches.into_iter().map(|(statement, _)| statement);
    Ok((chain_union(statements.collect()), stats))
}

/// An unfolded branch and the guards it is emitted under.
type Branch = (SelectStatement, Vec<Guard>);

/// The branches one conjunctive query unfolds to, each with its guards on
/// `params`.
fn unfold_branches(
    cq: &ConjunctiveQuery,
    catalog: &MappingCatalog,
    settings: &UnfoldSettings,
    params: &[Term],
) -> Result<(Vec<Branch>, UnfoldStats), String> {
    let mut stats = UnfoldStats::default();
    if cq.atoms.is_empty() {
        return Err("cannot unfold an empty query body".into());
    }
    // Candidate assertions per atom.
    let mut candidates: Vec<Vec<&MappingAssertion>> = Vec::with_capacity(cq.atoms.len());
    for atom in &cq.atoms {
        let list = match atom {
            Atom::Class { class, .. } => catalog.for_class(class),
            Atom::Property { property, .. } => catalog.for_property(property),
        };
        if list.is_empty() {
            // An unmapped term makes the whole CQ empty over the sources.
            return Ok((Vec::new(), stats));
        }
        candidates.push(list);
    }

    let total: usize = candidates.iter().map(Vec::len).product();
    if total > settings.max_combinations {
        return Err(format!(
            "unfolding would enumerate {total} combinations (limit {})",
            settings.max_combinations
        ));
    }

    let mut statements = Vec::new();
    let mut odometer = vec![0usize; cq.atoms.len()];
    loop {
        stats.combinations += 1;
        let picks: Vec<&MappingAssertion> = odometer
            .iter()
            .enumerate()
            .map(|(i, &j)| candidates[i][j])
            .collect();
        match build_candidate(cq, &picks, params, &mut stats)? {
            Some(branch) => {
                statements.push(branch);
                stats.emitted += 1;
            }
            None => stats.pruned += 1,
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == odometer.len() {
                return Ok((statements, stats));
            }
            odometer[i] += 1;
            if odometer[i] < candidates[i].len() {
                break;
            }
            odometer[i] = 0;
            i += 1;
        }
    }
}

/// Builds the SQL statement for one combination of mapping picks, with
/// the guards its parameters must pass, or `None` when the combination is
/// term-incompatible whatever the parameters' values.
fn build_candidate(
    cq: &ConjunctiveQuery,
    picks: &[&MappingAssertion],
    params: &[Term],
    stats: &mut UnfoldStats,
) -> Result<Option<Branch>, String> {
    // Gather positions: query term → (alias, term map) occurrences.
    let mut var_positions: HashMap<&str, Vec<Position>> = HashMap::new();
    let mut conds: Vec<Cond> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();

    for (i, (atom, assertion)) in cq.atoms.iter().zip(picks).enumerate() {
        let object_map = assertion.object.clone();
        let pairs: Vec<(&QueryTerm, TermMap)> = match (atom, &assertion.head) {
            (Atom::Class { arg, .. }, MappingHead::Class(_)) => {
                vec![(arg, assertion.subject.clone())]
            }
            (
                Atom::Property {
                    subject, object, ..
                },
                MappingHead::Property(_),
            ) => {
                let obj = object_map
                    .ok_or_else(|| format!("mapping {} lacks an object map", assertion.id))?;
                vec![(subject, assertion.subject.clone()), (object, obj)]
            }
            _ => {
                return Err(format!(
                    "mapping {} head does not fit its atom",
                    assertion.id
                ))
            }
        };
        for (term, map) in pairs {
            match term {
                QueryTerm::Var(v) => {
                    var_positions
                        .entry(v)
                        .or_default()
                        .push(Position { alias: i, map });
                }
                QueryTerm::Const(c) => {
                    let param = params.iter().position(|p| p == c);
                    match constant_condition(&map, c, param, i) {
                        Outcome::Cond(cond) => conds.push(cond),
                        Outcome::AlwaysTrue => {}
                        Outcome::Incompatible => return Ok(None),
                        Outcome::Guarded(guard, cond) => {
                            guards.push(guard);
                            conds.extend(cond);
                        }
                    }
                }
            }
        }
    }

    // Shared variables induce join conditions.
    for positions in var_positions.values() {
        let first = &positions[0];
        for later in &positions[1..] {
            match join_condition(first, later) {
                Outcome::Cond(cond) => conds.push(cond),
                Outcome::AlwaysTrue => {}
                Outcome::Incompatible => return Ok(None),
                Outcome::Guarded(..) => unreachable!("term maps hold no parameter"),
            }
        }
    }

    // Alias → the alias that reads its source: itself while live, the
    // survivor once self-join elimination merged it away.
    let mut alias_rewrite: Vec<usize> = (0..picks.len()).collect();
    eliminate_self_joins(picks, &mut alias_rewrite, &mut conds, stats);

    // Canonicalize conditions through alias rewrites and drop tautologies.
    let rewrite = |a: usize| -> usize {
        let mut x = a;
        while alias_rewrite[x] != x {
            x = alias_rewrite[x];
        }
        x
    };
    let mut final_conds: Vec<Cond> = Vec::new();
    for cond in conds {
        let cond = match cond {
            Cond::ColEq { left, right } => {
                let l = (rewrite(left.0), left.1);
                let r = (rewrite(right.0), right.1);
                if l == r {
                    continue;
                }
                Cond::ColEq { left: l, right: r }
            }
            Cond::ColConst { col, value } => Cond::ColConst {
                col: (rewrite(col.0), col.1),
                value,
            },
            Cond::Minted { col, template, iri } => Cond::Minted {
                col: (rewrite(col.0), col.1),
                template,
                iri,
            },
        };
        if !final_conds.contains(&cond) {
            final_conds.push(cond);
        }
    }

    // SELECT list from answer variables. A boolean (ASK-style) query has
    // none; project a constant so the statement stays renderable and row
    // counts still witness satisfiability.
    let mut projections = Vec::with_capacity(cq.answer_vars.len().max(1));
    for v in &cq.answer_vars {
        let positions = var_positions
            .get(v.as_str())
            .ok_or_else(|| format!("answer variable ?{v} does not occur in the query body"))?;
        let p = &positions[0];
        let alias = rewrite(p.alias);
        let expr = term_expr(&p.map, alias);
        projections.push(Projection::Expr {
            expr,
            alias: Some(v.clone()),
        });
    }
    if projections.is_empty() {
        projections.push(Projection::Expr {
            expr: Expr::Literal(Value::Int(1)),
            alias: Some("__exists".into()),
        });
    }

    // FROM / JOIN over live aliases.
    let live: Vec<usize> = (0..picks.len())
        .filter(|&i| alias_rewrite[i] == i)
        .collect();
    let mut table_refs: Vec<(usize, TableRef)> = Vec::with_capacity(live.len());
    for &i in &live {
        table_refs.push((
            i,
            TableRef::Subquery {
                query: Box::new(picks[i].source()?.clone()),
                alias: alias_name(i),
            },
        ));
    }

    // Assign each condition: join ON for conditions bridging a later alias
    // to an earlier one; WHERE otherwise.
    let order_of = |a: usize| live.iter().position(|&x| x == a).expect("live alias");
    let mut on_conds: Vec<Vec<Expr>> = vec![Vec::new(); live.len()];
    let mut where_conds: Vec<Expr> = Vec::new();
    for cond in &final_conds {
        match cond {
            Cond::ColEq { left, right } => {
                let (lo, ro) = (order_of(left.0), order_of(right.0));
                let expr = Expr::eq(col_expr(left), col_expr(right));
                let later = lo.max(ro);
                if later == 0 {
                    where_conds.push(expr);
                } else {
                    on_conds[later].push(expr);
                }
            }
            Cond::ColConst { col, value } => {
                where_conds.push(Expr::eq(col_expr(col), value.clone()));
            }
            Cond::Minted { col, template, iri } => {
                where_conds.push(Expr::eq(minted(template, col), iri.clone()));
            }
        }
    }

    let mut refs = table_refs.into_iter();
    let (_, from) = refs.next().expect("at least one alias");
    let joins: Vec<Join> = refs
        .enumerate()
        .map(|(idx, (_, table))| Join {
            join_type: JoinType::Inner,
            table,
            on: Expr::and_all(on_conds[idx + 1].clone())
                .unwrap_or(Expr::Literal(Value::Bool(true))),
        })
        .collect();

    let statement = SelectStatement {
        distinct: true,
        projections,
        from,
        joins,
        where_clause: Expr::and_all(where_conds),
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: None,
        union_all: None,
    };
    Ok(Some((statement, guards)))
}

/// How a position's term map meets a constant (a query constant, or the
/// other side's constant term map).
enum Outcome {
    Cond(Cond),
    AlwaysTrue,
    Incompatible,
    /// Met only by some values of a parameter: the guard says which, and
    /// the condition (if any) holds the parameter.
    Guarded(Guard, Option<Cond>),
}

/// The column condition under which `map`, read at `alias`, produces
/// `constant` — the `param`-th parameter when `param` is set. A template
/// states what the IRI means, `iri_template('P', col) = 'iri'`: the
/// column's type is not known here, and the optimizer lowers the test to
/// one of the key at the scan, where it is. An IRI outside the template's
/// fixed parts — which not even a TEXT key inverts from — is incompatible;
/// for a parameter, a [`Guard`] defers that to the binding.
fn constant_condition(
    map: &TermMap,
    constant: &Term,
    param: Option<usize>,
    alias: usize,
) -> Outcome {
    let col = |column: &str| (alias, column.to_string());
    let value = |v: Value| param.map_or(Expr::Literal(v), Expr::Param);
    match (map, constant) {
        (TermMap::Template(t), Term::Iri(iri)) => {
            let cond = Cond::Minted {
                col: col(t.column()),
                template: t.codec().clone(),
                iri: value(Value::text(iri.as_str())),
            };
            match param {
                Some(param) => {
                    let template = t.codec().clone();
                    Outcome::Guarded(Guard::Mints { param, template }, Some(cond))
                }
                None if t.invert(iri.as_str(), ColumnType::Text).is_some() => Outcome::Cond(cond),
                None => Outcome::Incompatible,
            }
        }
        (TermMap::Column { column, .. }, Term::Literal(lit)) => Outcome::Cond(Cond::ColConst {
            col: col(column),
            value: value(literal_to_value(lit)),
        }),
        (TermMap::Constant(c), k) => match param {
            Some(param) => Outcome::Guarded(
                Guard::Equals {
                    param,
                    term: c.clone(),
                },
                None,
            ),
            None if c == k => Outcome::AlwaysTrue,
            None => Outcome::Incompatible,
        },
        // IRI-producing map vs literal constant (or vice versa) never match.
        _ => Outcome::Incompatible,
    }
}

fn join_condition(a: &Position, b: &Position) -> Outcome {
    match (&a.map, &b.map) {
        (TermMap::Template(ta), TermMap::Template(tb)) if ta.compatible_with(tb) => {
            Outcome::Cond(Cond::ColEq {
                left: (a.alias, ta.column().to_string()),
                right: (b.alias, tb.column().to_string()),
            })
        }
        (TermMap::Column { column: ca, .. }, TermMap::Column { column: cb, .. }) => {
            Outcome::Cond(Cond::ColEq {
                left: (a.alias, ca.clone()),
                right: (b.alias, cb.clone()),
            })
        }
        (map, TermMap::Constant(constant)) => constant_condition(map, constant, None, a.alias),
        (TermMap::Constant(constant), map) => constant_condition(map, constant, None, b.alias),
        // Different templates, or an IRI-producing position against a
        // literal-producing one, can never be equal.
        _ => Outcome::Incompatible,
    }
}

/// Merges pairs of aliases reading the same source when the join conditions
/// equate a declared unique key of that source column-by-column.
fn eliminate_self_joins(
    picks: &[&MappingAssertion],
    alias_rewrite: &mut [usize],
    conds: &mut [Cond],
    stats: &mut UnfoldStats,
) {
    for i in 0..picks.len() {
        for j in (i + 1)..picks.len() {
            if alias_rewrite[j] != j || alias_rewrite[i] != i {
                continue;
            }
            if picks[i].source_sql != picks[j].source_sql {
                continue;
            }
            let Some(key) = &picks[i].source_key else {
                continue;
            };
            if picks[j].source_key.as_deref() != Some(key.as_slice()) {
                continue;
            }
            // All key columns must be equated between aliases i and j.
            let all_keyed = key.iter().all(|k| {
                conds.iter().any(|c| match c {
                    Cond::ColEq { left, right } => {
                        (left == &(i, k.clone()) && right == &(j, k.clone()))
                            || (left == &(j, k.clone()) && right == &(i, k.clone()))
                    }
                    Cond::ColConst { .. } | Cond::Minted { .. } => false,
                })
            });
            if all_keyed {
                alias_rewrite[j] = i;
                stats.self_joins_eliminated += 1;
            }
        }
    }
}

fn alias_name(i: usize) -> String {
    format!("u{i}")
}

fn col_expr(col: &(usize, String)) -> Expr {
    Expr::col(format!("{}.{}", alias_name(col.0), col.1))
}

/// `iri_template('P', col)`: the IRI `template` mints from `col`.
fn minted(template: &IriTemplate, col: &(usize, String)) -> Expr {
    Expr::Mint {
        template: template.clone(),
        key: Box::new(col_expr(col)),
    }
}

fn term_expr(map: &TermMap, alias: usize) -> Expr {
    match map {
        TermMap::Template(t) => minted(t.codec(), &(alias, t.column().to_string())),
        TermMap::Column { column, .. } => col_expr(&(alias, column.clone())),
        TermMap::Constant(term) => match term {
            Term::Iri(iri) => Expr::Literal(Value::text(iri.as_str())),
            Term::Literal(lit) => Expr::Literal(literal_to_value(lit)),
            Term::BNode(id) => Expr::Literal(Value::text(format!("_:b{id}"))),
        },
    }
}

fn chain_union(statements: Vec<SelectStatement>) -> Option<SelectStatement> {
    let mut iter = statements.into_iter();
    let mut head = iter.next()?;
    for stmt in iter {
        // Statements may already be UNION ALL chains themselves; append at
        // the tail so no disjunct is dropped.
        let mut tail = &mut head;
        while tail.union_all.is_some() {
            tail = tail.union_all.as_mut().expect("just checked");
        }
        tail.union_all = Some(Box::new(stmt));
    }
    Some(head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_rdf::{Datatype, Iri};
    use optique_relational::plan::plan_select;
    use optique_relational::{table::table_of, ColumnType, Database, LogicalPlan};

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[("tid", ColumnType::Int), ("model", ColumnType::Text)],
                vec![
                    vec![Value::Int(1), Value::text("SGT-400")],
                    vec![Value::Int(2), Value::text("SGT-800")],
                ],
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("tid", ColumnType::Int)],
                vec![
                    vec![Value::Int(10), Value::Int(1)],
                    vec![Value::Int(11), Value::Int(1)],
                    vec![Value::Int(12), Value::Int(2)],
                ],
            )
            .unwrap(),
        );
        db
    }

    fn catalog() -> MappingCatalog {
        let mut c = MappingCatalog::new();
        c.add(
            MappingAssertion::class(
                "turbine",
                iri("Turbine"),
                "SELECT tid FROM turbines",
                TermMap::template("http://x/turbine/{tid}"),
            )
            .with_key(vec!["tid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::class(
                "sensor",
                iri("Sensor"),
                "SELECT sid FROM sensors",
                TermMap::template("http://x/sensor/{sid}"),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::property(
                "attached",
                iri("attachedTo"),
                "SELECT sid, tid FROM sensors",
                TermMap::template("http://x/sensor/{sid}"),
                TermMap::template("http://x/turbine/{tid}"),
            )
            .with_key(vec!["sid".into(), "tid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::property(
                "model",
                iri("hasModel"),
                "SELECT tid, model FROM turbines",
                TermMap::template("http://x/turbine/{tid}"),
                TermMap::column("model", Datatype::String),
            )
            .with_key(vec!["tid".into()]),
        )
        .unwrap();
        c
    }

    fn var(v: &str) -> QueryTerm {
        QueryTerm::var(v)
    }

    fn run_unfolded(
        cq: &ConjunctiveQuery,
        settings: &UnfoldSettings,
    ) -> (Option<optique_relational::Table>, UnfoldStats) {
        let (stmt, stats) = unfold_cq(cq, &catalog(), settings).unwrap();
        let table = stmt.map(|s| {
            optique_relational::exec::query(&s.to_string(), &db()).expect("unfolded SQL runs")
        });
        (table, stats)
    }

    #[test]
    fn single_class_atom() {
        let cq = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("Turbine"), var("x"))],
        );
        let (table, stats) = run_unfolded(&cq, &UnfoldSettings::default());
        let table = table.unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(stats.emitted, 1);
        let vals: Vec<&str> = table.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert!(vals.contains(&"http://x/turbine/1"));
    }

    #[test]
    fn join_across_atoms() {
        // q(s, t) ← Sensor(s) ∧ attachedTo(s, t)
        let cq = ConjunctiveQuery::new(
            vec!["s".into(), "t".into()],
            vec![
                Atom::class(iri("Sensor"), var("s")),
                Atom::property(iri("attachedTo"), var("s"), var("t")),
            ],
        );
        let (table, _) = run_unfolded(&cq, &UnfoldSettings::default());
        assert_eq!(table.unwrap().len(), 3);
    }

    #[test]
    fn constant_iri_inverts_to_column_filter() {
        let cq = ConjunctiveQuery::new(
            vec!["s".into()],
            vec![Atom::property(
                iri("attachedTo"),
                var("s"),
                QueryTerm::Const(Term::iri("http://x/turbine/1")),
            )],
        );
        let (stmt, _) = unfold_cq(&cq, &catalog(), &UnfoldSettings::default()).unwrap();
        assert_eq!(
            stmt.unwrap().where_clause.unwrap().to_string(),
            "(iri_template('http://x/turbine/{}', u0.tid) = 'http://x/turbine/1')",
            "the unfolder states what the constant means; the scan lowers it"
        );
        let (table, _) = run_unfolded(&cq, &UnfoldSettings::default());
        assert_eq!(
            table.unwrap().len(),
            2,
            "sensors 10 and 11 attach to turbine 1"
        );
    }

    /// The unfolder mints with `Expr::Mint`, prints it as
    /// `iri_template('P', key)`, and parsing that text builds the same
    /// node: print → parse is the identity on what the unfolder emits —
    /// minted projections, the minted constant test, joins, `UNION ALL`.
    /// A mint whose pattern is no text literal is refused at parse.
    #[test]
    fn mint_round_trips_through_sql_text() {
        let ucq = UnionQuery {
            disjuncts: vec![
                ConjunctiveQuery::new(
                    vec!["s".into(), "t".into()],
                    vec![
                        Atom::property(iri("attachedTo"), var("s"), var("t")),
                        Atom::class(iri("Turbine"), var("t")),
                    ],
                ),
                ConjunctiveQuery::new(
                    vec!["s".into()],
                    vec![Atom::property(
                        iri("attachedTo"),
                        var("s"),
                        QueryTerm::Const(Term::iri("http://x/turbine/1")),
                    )],
                ),
                ConjunctiveQuery::new(
                    vec!["t".into(), "m".into()],
                    vec![Atom::property(iri("hasModel"), var("t"), var("m"))],
                ),
            ],
        };
        let (stmt, _) = unfold_ucq(&ucq, &catalog(), &UnfoldSettings::default()).unwrap();
        let stmt = stmt.unwrap();
        let text = stmt.to_string();
        let parsed = optique_relational::parse_select(&text).unwrap();
        assert_eq!(parsed, stmt, "{text}");
        assert_eq!(parsed.to_string(), text);
        let mut mints = 0;
        for branch in parsed.branches() {
            for projection in &branch.projections {
                if let Projection::Expr { expr, .. } = projection {
                    expr.walk(&mut |e| mints += usize::from(matches!(e, Expr::Mint { .. })));
                }
            }
            if let Some(filter) = &branch.where_clause {
                filter.walk(&mut |e| mints += usize::from(matches!(e, Expr::Mint { .. })));
            }
        }
        assert_eq!(mints, 2 + 1 + 1 + 1, "{text}");
        for refused in [
            "SELECT iri_template(tid, 'x') AS s FROM turbines",
            "SELECT iri_template('http://x/{}') AS s FROM turbines",
            "SELECT iri_template('http://x/{}', tid, tid) AS s FROM turbines",
            "SELECT iri_template(5, tid) AS s FROM turbines",
        ] {
            let err = optique_relational::parse_select(refused).unwrap_err();
            assert!(err.to_string().contains("iri_template"), "{refused}: {err}");
        }
    }

    /// Every filter of `plan`: scan filters and `Filter` predicates.
    fn filters(plan: &LogicalPlan) -> Vec<&Expr> {
        match plan {
            LogicalPlan::Scan { filter, .. } => filter.iter().collect(),
            LogicalPlan::Filter { input, predicate } => {
                let mut below = filters(input);
                below.push(predicate);
                below
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => filters(input),
            LogicalPlan::Join { left, right, .. } => {
                let mut both = filters(left);
                both.extend(filters(right));
                both
            }
            LogicalPlan::Union { inputs } => inputs.iter().flat_map(filters).collect(),
        }
    }

    /// `fanout_probe`'s constant path, pinned as counts: one property over
    /// 100 INT-keyed sources with a constant object. Every disjunct's
    /// optimized plan tests the key in its scan, `b = 7`, with no hash set
    /// and no `iri_template` call left in any filter.
    #[test]
    fn a_constant_object_reaches_every_int_scan_as_key_equality() {
        let mut db = Database::new();
        let mut cat = MappingCatalog::new();
        for i in 0..100 {
            let rows = (0..8).map(|k| vec![Value::Int(i * 8 + k), Value::Int(k)]);
            let schema = [("a", ColumnType::Int), ("b", ColumnType::Int)];
            db.put_table(
                format!("t{i}"),
                table_of(&format!("t{i}"), &schema, rows.collect()).unwrap(),
            );
            cat.add(MappingAssertion::property(
                format!("p{i}"),
                iri("p"),
                format!("SELECT a, b FROM t{i}"),
                TermMap::template("http://x/obj/{a}"),
                TermMap::template("http://x/obj/{b}"),
            ))
            .unwrap();
        }
        let cq = ConjunctiveQuery::new(
            vec!["s".into()],
            vec![Atom::property(
                iri("p"),
                var("s"),
                QueryTerm::Const(Term::iri("http://x/obj/7")),
            )],
        );
        let (stmt, stats) = unfold_cq(&cq, &cat, &UnfoldSettings::default()).unwrap();
        assert_eq!(stats.emitted, 100);
        let (mut key_tests, mut in_sets, mut minted, mut rows) = (0, 0, 0, 0);
        let mut disjunct = stmt;
        while let Some(mut d) = disjunct {
            disjunct = d.union_all.take().map(|next| *next);
            let plan = plan_select(&d, &db).unwrap();
            let plan = optique_relational::optimizer::optimize(plan);
            for filter in filters(&plan) {
                key_tests += usize::from(filter.to_string() == "(b = 7)");
                filter.walk(&mut |e| match e {
                    Expr::InSet { .. } => in_sets += 1,
                    Expr::Mint { .. } => minted += 1,
                    _ => {}
                });
            }
            rows += optique_relational::execute(&plan, &db).unwrap().len();
        }
        assert_eq!((key_tests, in_sets, minted), (100, 0, 0));
        assert_eq!(rows, 100, "one subject per source");
    }

    #[test]
    fn incompatible_constant_prunes() {
        let cq = ConjunctiveQuery::new(
            vec!["s".into()],
            vec![Atom::property(
                iri("attachedTo"),
                var("s"),
                QueryTerm::Const(Term::iri("http://other/thing/1")),
            )],
        );
        let (table, stats) = run_unfolded(&cq, &UnfoldSettings::default());
        assert!(table.is_none());
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn literal_object_variable() {
        let cq = ConjunctiveQuery::new(
            vec!["t".into(), "m".into()],
            vec![Atom::property(iri("hasModel"), var("t"), var("m"))],
        );
        let (table, _) = run_unfolded(&cq, &UnfoldSettings::default());
        let table = table.unwrap();
        assert_eq!(table.len(), 2);
        assert!(table.rows.iter().any(|r| r[1].as_str() == Some("SGT-400")));
    }

    #[test]
    fn unmapped_term_yields_empty() {
        let cq = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("UnmappedThing"), var("x"))],
        );
        let (stmt, _) = unfold_cq(&cq, &catalog(), &UnfoldSettings::default()).unwrap();
        assert!(stmt.is_none());
    }

    #[test]
    fn self_join_eliminated_with_key() {
        // q(s, t) ← attachedTo(s, t) ∧ attachedTo(s, t) — artificially
        // duplicated atom; with keys declared the second alias collapses.
        let cq = ConjunctiveQuery::new(
            vec!["s".into(), "t".into()],
            vec![
                Atom::property(iri("attachedTo"), var("s"), var("t")),
                Atom::property(iri("attachedTo"), var("s"), var("t")),
            ],
        );
        let (stmt, stats) = unfold_cq(&cq, &catalog(), &UnfoldSettings::default()).unwrap();
        let stmt = stmt.unwrap();
        assert_eq!(stats.self_joins_eliminated, 1);
        assert!(stmt.joins.is_empty(), "the duplicate alias is gone: {stmt}");
        // Same answers as the atom asked once.
        let table = optique_relational::exec::query(&stmt.to_string(), &db()).unwrap();
        assert_eq!(table.len(), 3);
    }

    /// Every emitted disjunct reads its pick's source as the statement
    /// `add` parsed — no text in between.
    #[test]
    fn disjuncts_carry_the_typed_source_of_their_pick() {
        let mut cat = MappingCatalog::new();
        for i in 0..100 {
            cat.add(MappingAssertion::property(
                format!("m{i}"),
                iri("hasValue"),
                format!("SELECT sid, val FROM msmt_{i} WHERE val > {i}"),
                TermMap::template("http://x/sensor/{sid}"),
                TermMap::column("val", Datatype::Integer),
            ))
            .unwrap();
        }
        let ucq = UnionQuery {
            disjuncts: vec![ConjunctiveQuery::new(
                vec!["s".into(), "v".into()],
                vec![Atom::property(iri("hasValue"), var("s"), var("v"))],
            )],
        };
        let (stmt, stats) = unfold_ucq(&ucq, &cat, &UnfoldSettings::default()).unwrap();
        assert_eq!(stats.emitted, 100);
        // One atom: the odometer emits disjuncts in catalog order.
        let mut disjunct = stmt.as_ref();
        for assertion in cat.assertions() {
            let d = disjunct.expect("one disjunct per mapping");
            let TableRef::Subquery { query, .. } = &d.from else {
                panic!("disjunct reads {:?}, not a subquery", d.from);
            };
            let parsed = optique_relational::parse_select(&assertion.source_sql).unwrap();
            assert_eq!(**query, parsed);
            disjunct = d.union_all.as_deref();
        }
        assert!(disjunct.is_none());
    }

    /// Regression: one atom with several mappings must produce one UNION
    /// branch per mapping — an earlier chaining bug silently dropped all
    /// but the first combination.
    #[test]
    fn multiple_mappings_all_union_branches_survive() {
        let mut db = db();
        db.put_table(
            "legacy_turbines",
            table_of(
                "legacy_turbines",
                &[("tid", ColumnType::Int)],
                vec![vec![Value::Int(77)]],
            )
            .unwrap(),
        );
        let mut cat = catalog();
        cat.add(
            MappingAssertion::class(
                "turbine-legacy",
                iri("Turbine"),
                "SELECT tid FROM legacy_turbines",
                TermMap::template("http://x/turbine/{tid}"),
            )
            .with_key(vec!["tid".into()]),
        )
        .unwrap();
        let cq = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("Turbine"), var("x"))],
        );
        let (stmt, stats) = unfold_cq(&cq, &cat, &UnfoldSettings::default()).unwrap();
        assert_eq!(stats.emitted, 2);
        let stmt = stmt.unwrap();
        // Both branches present in the chain…
        let mut branches = 1;
        let mut cur = &stmt;
        while let Some(next) = &cur.union_all {
            branches += 1;
            cur = next;
        }
        assert_eq!(branches, 2);
        // …and both sources answer.
        let table = optique_relational::exec::query(&stmt.to_string(), &db).unwrap();
        assert_eq!(table.len(), 3, "2 modern + 1 legacy turbine");
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let ucq = UnionQuery {
            disjuncts: vec![
                ConjunctiveQuery::new(
                    vec!["x".into()],
                    vec![Atom::class(iri("Turbine"), var("x"))],
                ),
                ConjunctiveQuery::new(vec!["x".into()], vec![Atom::class(iri("Sensor"), var("x"))]),
            ],
        };
        let (stmt, stats) = unfold_ucq(&ucq, &catalog(), &UnfoldSettings::default()).unwrap();
        let table = optique_relational::exec::query(&stmt.unwrap().to_string(), &db()).unwrap();
        assert_eq!(table.len(), 5, "2 turbines + 3 sensors");
        assert_eq!(stats.emitted, 2);
    }

    /// The oracle test: unfolded SQL ≡ CQ over the materialized virtual graph.
    #[test]
    fn unfolding_agrees_with_materialization() {
        let cq = ConjunctiveQuery::new(
            vec!["s".into(), "t".into(), "m".into()],
            vec![
                Atom::property(iri("attachedTo"), var("s"), var("t")),
                Atom::property(iri("hasModel"), var("t"), var("m")),
            ],
        );
        let (stmt, _) = unfold_cq(&cq, &catalog(), &UnfoldSettings::default()).unwrap();
        let table = optique_relational::exec::query(&stmt.unwrap().to_string(), &db()).unwrap();

        let graph = crate::virtualize::materialize_catalog(&catalog(), &db()).unwrap();
        let oracle = cq.evaluate(&graph);

        assert_eq!(table.len(), oracle.len());
        for row in &table.rows {
            let tuple: Vec<Term> = row
                .iter()
                .map(|v| match v {
                    Value::Text(s) if s.starts_with("http") => Term::iri(s.as_ref()),
                    other => Term::Literal(optique_rdf::Literal::string(other.to_string())),
                })
                .collect();
            // Compare IRIs positionally; literals compare via lexical form.
            let hit = oracle.iter().any(|o| {
                o.iter().zip(&tuple).all(|(a, b)| match (a, b) {
                    (Term::Iri(x), Term::Iri(y)) => x == y,
                    (Term::Literal(x), Term::Literal(y)) => {
                        x.lexical().trim_matches('\'') == y.lexical().trim_matches('\'')
                    }
                    _ => false,
                })
            });
            assert!(hit, "row {row:?} missing from oracle");
        }
    }
}

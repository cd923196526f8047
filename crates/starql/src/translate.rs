//! STARQL → SQL translation: enrichment + unfolding.
//!
//! This is the paper's STARQL2SQL(+) translator: the WHERE clause (a
//! conjunctive query over the ontology) is **enriched** by PerfectRef and
//! **unfolded** through the mapping catalog into one SQL statement over the
//! static sources; the stream side is the window slice a tick reads, a scan
//! of the stream between the window's `(open, close]` bounds. The
//! translator also reports the
//! *fleet* — the set of low-level data queries the single STARQL query
//! replaces — which is the paper's headline conciseness argument (§1: a
//! fleet of hundreds of queries, up to 80 % of diagnostic time).

use std::collections::{BTreeSet, HashMap};

use optique_mapping::{unfold_ucq, MappingCatalog, UnfoldSettings, UnfoldStats};
use optique_ontology::Ontology;
use optique_relational::parser::{Projection, SelectStatement};
use optique_relational::Expr;
use optique_rewrite::{
    rewrite, Atom, ConjunctiveQuery, QueryTerm, RewriteSettings, RewriteStats, UnionQuery,
};
use optique_sparql::{expression_to_sql, split_union_chain, Expression};

use crate::ast::StarQlQuery;
use crate::having::{expand, HavingFormula};

/// Everything translation needs from the deployment.
pub struct TranslationContext<'a> {
    /// The TBox.
    pub ontology: &'a Ontology,
    /// The mapping catalog over the static sources.
    pub mappings: &'a MappingCatalog,
    /// Enrichment settings.
    pub rewrite_settings: RewriteSettings,
    /// Unfolding settings.
    pub unfold_settings: UnfoldSettings,
}

/// Translation failure.
#[derive(Debug, Clone)]
pub struct TranslateError(pub String);

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "translation error: {}", self.0)
    }
}

impl std::error::Error for TranslateError {}

/// The translated query: ready for continuous execution and for fleet-size
/// accounting.
#[derive(Clone, Debug)]
pub struct TranslatedQuery {
    /// The source query.
    pub query: StarQlQuery,
    /// The macro-expanded HAVING formula.
    pub having: HavingFormula,
    /// WHERE answer variables (those shared with CONSTRUCT/HAVING).
    pub where_answer_vars: Vec<String>,
    /// The enriched WHERE clause (union of conjunctive queries).
    pub enriched_where: UnionQuery,
    /// The unfolded static-side SQL (`None` when some WHERE term has no
    /// mapping — the query can then never produce bindings).
    pub static_sql: Option<SelectStatement>,
    /// The low-level query fleet this one STARQL query stands for.
    pub fleet: Vec<String>,
    /// Enrichment statistics.
    pub rewrite_stats: RewriteStats,
    /// Unfolding statistics.
    pub unfold_stats: UnfoldStats,
    /// A copy of the TBox for state-level reasoning at execution time.
    pub ontology: Ontology,
}

impl TranslatedQuery {
    /// Number of low-level queries the fleet contains.
    pub fn fleet_size(&self) -> usize {
        self.fleet.len()
    }
}

/// Runs enrichment and unfolding for a parsed STARQL query.
pub fn translate(
    query: &StarQlQuery,
    ctx: &TranslationContext<'_>,
) -> Result<TranslatedQuery, TranslateError> {
    // Expand aggregate macros first: HAVING decides the answer variables.
    let having = expand(&query.having, &query.aggregates).map_err(TranslateError)?;

    // Answer variables: WHERE variables (across all UNION disjuncts) used
    // by CONSTRUCT or HAVING.
    let disjuncts: &[Vec<Atom>] = if query.where_disjuncts.is_empty() {
        std::slice::from_ref(&query.where_bgp)
    } else {
        &query.where_disjuncts
    };
    let mut where_vars: BTreeSet<String> = BTreeSet::new();
    for d in disjuncts {
        where_vars.extend(atom_vars(d));
    }
    let construct_vars = atom_vars(&query.construct);
    let mut used = construct_vars.clone();
    collect_having_vars(&having, &mut used);
    let where_answer_vars: Vec<String> = where_vars
        .iter()
        .filter(|v| used.contains(*v))
        .cloned()
        .collect();
    if where_answer_vars.is_empty() {
        return Err(TranslateError(
            "no WHERE variable is used by CONSTRUCT or HAVING — the query is degenerate".into(),
        ));
    }
    // The CONSTRUCT template is instantiated from the WHERE bindings alone:
    // a variable no branch binds could only fail every tick that fires.
    if let Some(unbound) = construct_vars.iter().find(|v| !where_vars.contains(*v)) {
        return Err(TranslateError(format!(
            "CONSTRUCT variable ?{unbound} is not bound in WHERE — every output term must \
             come from a WHERE binding"
        )));
    }
    // Continuous-query bindings are total: every answer variable must bind
    // in every UNION branch (the engine has no notion of a partially bound
    // sensor). Reject asymmetric branches with a pointed message instead of
    // letting unfolding fail on a missing projection.
    for (i, disjunct) in disjuncts.iter().enumerate() {
        let branch_vars = atom_vars(disjunct);
        if let Some(missing) = where_answer_vars.iter().find(|v| !branch_vars.contains(*v)) {
            return Err(TranslateError(format!(
                "variable ?{missing} is used by CONSTRUCT or HAVING but not bound in WHERE \
                 UNION branch {} — every branch must bind every used variable",
                i + 1
            )));
        }
    }

    // Per-disjunct FILTERs (parallel to `disjuncts`; pad for hand-built
    // queries that did not fill the field).
    let empty_filters: Vec<Expression> = Vec::new();
    let filters_of = |i: usize| -> &[Expression] {
        query
            .where_filters
            .get(i)
            .map(Vec::as_slice)
            .unwrap_or(&empty_filters)
    };
    // A filter constrains its own branch, so its variables must be bound
    // there (they need not be answer variables — pushdown projects them
    // internally and drops them again).
    for (i, disjunct) in disjuncts.iter().enumerate() {
        let branch_vars = atom_vars(disjunct);
        for filter in filters_of(i) {
            if let Some(v) = filter
                .variables()
                .into_iter()
                .find(|v| !branch_vars.contains(v))
            {
                return Err(TranslateError(format!(
                    "FILTER variable ?{v} is not bound in its WHERE branch {}",
                    i + 1
                )));
            }
        }
    }

    // Stages (i) + (ii) per source disjunct: enrichment (PerfectRef) on the
    // disjunct's own CQ, unfolding of the enriched UCQ, then FILTER pushdown
    // into each emitted SQL branch's WHERE clause. Disjuncts sharing a
    // filter set deduplicate up to variable renaming, exactly as before.
    let mut enriched_where = UnionQuery {
        disjuncts: Vec::new(),
    };
    let mut rewrite_stats = RewriteStats {
        generated: 0,
        retained: 0,
        iterations: 0,
        elapsed: std::time::Duration::ZERO,
    };
    let mut unfold_stats = UnfoldStats::default();
    let mut seen_keys: BTreeSet<String> = BTreeSet::new();
    let mut statements: Vec<SelectStatement> = Vec::new();
    for (i, disjunct) in disjuncts.iter().enumerate() {
        let filters = filters_of(i);
        // Filter variables ride along as internal answer variables so each
        // unfolded branch exposes a SQL expression for them.
        let mut ext_vars = where_answer_vars.clone();
        for filter in filters {
            for v in filter.variables() {
                if !ext_vars.contains(&v) {
                    ext_vars.push(v);
                }
            }
        }
        let where_cq = ConjunctiveQuery::new(ext_vars, disjunct.clone());
        let (ucq, stats) = rewrite(&where_cq, ctx.ontology, &ctx.rewrite_settings)
            .map_err(|e| TranslateError(e.to_string()))?;
        rewrite_stats.generated += stats.generated;
        rewrite_stats.retained += stats.retained;
        rewrite_stats.iterations += stats.iterations;
        rewrite_stats.elapsed += stats.elapsed;

        let filter_key = format!("{filters:?}");
        let mut branch_ucq = UnionQuery {
            disjuncts: Vec::new(),
        };
        for cq in ucq.disjuncts {
            if seen_keys.insert(format!("{filter_key}|{}", cq.canonical_key())) {
                branch_ucq.disjuncts.push(cq.clone());
                enriched_where.disjuncts.push(cq);
            }
        }
        if branch_ucq.disjuncts.is_empty() {
            continue;
        }

        let (sql, stats) =
            unfold_ucq(&branch_ucq, ctx.mappings, &ctx.unfold_settings).map_err(TranslateError)?;
        unfold_stats.combinations += stats.combinations;
        unfold_stats.emitted += stats.emitted;
        unfold_stats.pruned += stats.pruned;
        unfold_stats.self_joins_eliminated += stats.self_joins_eliminated;
        let Some(chain) = sql else { continue };
        for mut statement in split_union_chain(chain) {
            if !filters.is_empty() {
                push_filters(&mut statement, filters, &where_answer_vars)
                    .map_err(TranslateError)?;
            }
            statements.push(statement);
        }
    }
    // The fleet: each unfolded disjunct is one low-level static query; each
    // stream-attribute mapping adds one window slice, the query a tick
    // ships. Rendered from the per-disjunct statements before they are
    // chained.
    let mut fleet: Vec<String> = statements.iter().map(|s| s.to_string()).collect();
    let static_sql = SelectStatement::union_all_of(statements);
    for property in having_properties(&having) {
        let stream_assertions = ctx.mappings.for_property(&property);
        let n = stream_assertions.len().max(1);
        for _ in 0..n {
            fleet.push(format!(
                "SELECT * FROM {} WHERE <ts> > <open> AND <ts> <= <close> -- attribute {property}",
                query.stream.name
            ));
        }
    }

    Ok(TranslatedQuery {
        query: query.clone(),
        having,
        where_answer_vars,
        enriched_where,
        static_sql,
        fleet,
        rewrite_stats,
        unfold_stats,
        ontology: ctx.ontology.clone(),
    })
}

/// Pushes a branch's FILTERs into one unfolded SQL statement: each filter
/// translates over the statement's projection expressions
/// (`optique_sparql::expression_to_sql`) and lands in the `WHERE` clause;
/// the internal filter-variable projections are then dropped so every UNION
/// branch keeps the common answer signature.
fn push_filters(
    statement: &mut SelectStatement,
    filters: &[Expression],
    answer_vars: &[String],
) -> Result<(), String> {
    let by_var: HashMap<String, Expr> = statement
        .projections
        .iter()
        .filter_map(|p| match p {
            Projection::Expr {
                expr,
                alias: Some(alias),
            } => Some((alias.clone(), expr.clone())),
            _ => None,
        })
        .collect();
    let lookup = |v: &str| by_var.get(v).cloned();
    let mut conds: Vec<Expr> = statement.where_clause.take().into_iter().collect();
    for filter in filters {
        conds.push(expression_to_sql(filter, &lookup)?);
    }
    statement.where_clause = Expr::and_all(conds);
    statement.projections.retain(|p| {
        matches!(p, Projection::Expr { alias: Some(alias), .. }
            if answer_vars.iter().any(|v| v == alias))
    });
    Ok(())
}

fn atom_vars(atoms: &[Atom]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for atom in atoms {
        for term in atom.terms() {
            if let QueryTerm::Var(v) = term {
                out.insert(v.clone());
            }
        }
    }
    out
}

/// The variables of HAVING's graph, comparison and aggregate atoms.
fn collect_having_vars(f: &HavingFormula, out: &mut BTreeSet<String>) {
    for leaf in f.leaves() {
        let terms = match leaf {
            HavingFormula::Graph { atoms, .. } => {
                out.extend(atom_vars(atoms));
                continue;
            }
            HavingFormula::Cmp { left, right, .. } => [left, right],
            HavingFormula::Agg {
                subject, threshold, ..
            } => [subject, threshold],
            _ => continue,
        };
        for term in terms {
            if let QueryTerm::Var(v) = term {
                out.insert(v.clone());
            }
        }
    }
}

/// Properties mentioned in HAVING graph patterns and aggregates (the
/// stream attributes).
fn having_properties(f: &HavingFormula) -> BTreeSet<optique_rdf::Iri> {
    let mut out = BTreeSet::new();
    for leaf in f.leaves() {
        match leaf {
            HavingFormula::Graph { atoms, .. } => {
                out.extend(atoms.iter().filter_map(|atom| match atom {
                    Atom::Property { property, .. } => Some(property.clone()),
                    Atom::Class { .. } => None,
                }))
            }
            HavingFormula::Agg { property, .. } => {
                out.insert(property.clone());
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_starql, FIGURE1};
    use optique_mapping::{MappingAssertion, TermMap};
    use optique_ontology::{Axiom, BasicConcept};
    use optique_rdf::{Datatype, Iri, Namespaces};

    const SIE: &str = "http://siemens.example/ontology#";

    fn iri(s: &str) -> Iri {
        Iri::new(format!("{SIE}{s}"))
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::subclass(
            BasicConcept::atomic(iri("TemperatureSensor")),
            BasicConcept::atomic(iri("Sensor")),
        ));
        o.add_axiom(Axiom::range(
            iri("inAssembly"),
            BasicConcept::atomic(iri("Sensor")),
        ));
        o.add_axiom(Axiom::domain(
            iri("inAssembly"),
            BasicConcept::atomic(iri("Assembly")),
        ));
        o
    }

    fn mappings() -> MappingCatalog {
        let mut c = MappingCatalog::new();
        c.add(
            MappingAssertion::class(
                "assembly",
                iri("Assembly"),
                "SELECT aid FROM assemblies",
                TermMap::template("http://siemens.example/data/assembly/{aid}"),
            )
            .with_key(vec!["aid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::class(
                "sensor",
                iri("Sensor"),
                "SELECT sid FROM sensors",
                TermMap::template("http://siemens.example/data/sensor/{sid}"),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::class(
                "temp_sensor",
                iri("TemperatureSensor"),
                "SELECT sid FROM sensors WHERE kind = 'temperature'",
                TermMap::template("http://siemens.example/data/sensor/{sid}"),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::property(
                "in_assembly",
                iri("inAssembly"),
                "SELECT aid, sid FROM sensors",
                TermMap::template("http://siemens.example/data/assembly/{aid}"),
                TermMap::template("http://siemens.example/data/sensor/{sid}"),
            )
            .with_key(vec!["aid".into(), "sid".into()]),
        )
        .unwrap();
        c
    }

    fn translate_figure1() -> TranslatedQuery {
        let ns = Namespaces::with_w3c_defaults();
        let q = parse_starql(FIGURE1, &ns).unwrap();
        let onto = ontology();
        let maps = mappings();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
        };
        translate(&q, &ctx).unwrap()
    }

    #[test]
    fn answer_vars_are_the_shared_ones() {
        let t = translate_figure1();
        assert_eq!(t.where_answer_vars, vec!["c2".to_string()]);
    }

    #[test]
    fn enrichment_expands_where() {
        let t = translate_figure1();
        // Sensor(x) rewrites via TemperatureSensor ⊑ Sensor and the
        // domain/range axioms; reduction then collapses the union to the
        // most general disjunct {inAssembly(c1, c2)} — several candidates
        // are generated, subsumption keeps the minimal set.
        assert!(
            t.rewrite_stats.generated >= 3,
            "generated {}",
            t.rewrite_stats.generated
        );
        assert!(!t.enriched_where.is_empty());
        assert!(t.rewrite_stats.retained <= t.rewrite_stats.generated);
        // The surviving disjunct must still reach the data through the
        // role atom (that is what makes all sensor variants reachable).
        let has_role = t.enriched_where.disjuncts.iter().any(|cq| {
            cq.atoms.iter().any(|a| {
                matches!(a, Atom::Property { property, .. }
                if property.local_name() == "inAssembly")
            })
        });
        assert!(has_role);
    }

    #[test]
    fn static_sql_is_executable_union() {
        let t = translate_figure1();
        let sql = t.static_sql.expect("mapped terms");
        // Must re-parse cleanly.
        optique_relational::parse_select(&sql.to_string()).unwrap();
    }

    #[test]
    fn fleet_counts_static_and_stream_queries() {
        let t = translate_figure1();
        assert!(t.fleet_size() >= 2, "fleet: {:#?}", t.fleet);
        assert!(t.fleet.iter().any(|q| q.starts_with(
            "SELECT * FROM S_Msmt WHERE <ts> > <open> AND <ts> <= <close> -- attribute"
        )));
        assert!(t.fleet.iter().any(|q| q.starts_with("SELECT DISTINCT")));
    }

    #[test]
    fn union_where_unions_enrichments() {
        let ns = Namespaces::with_w3c_defaults();
        let text = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW { ?c2 a sie:Alert }
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { { ?c2 a sie:TemperatureSensor } UNION { ?c1 sie:inAssembly ?c2 } }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }
        "#;
        let q = parse_starql(text, &ns).unwrap();
        assert_eq!(q.where_disjuncts.len(), 2);
        let onto = ontology();
        let maps = mappings();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
        };
        let t = translate(&q, &ctx).unwrap();
        // Both branches reach the data: the temperature-sensor class and the
        // role atom each contribute at least one disjunct.
        assert!(
            t.enriched_where.len() >= 2,
            "enriched: {}",
            t.enriched_where
        );
        let sql = t.static_sql.expect("both branches are mapped").to_string();
        assert!(sql.contains("UNION ALL"), "{sql}");
    }

    fn mappings_with_serial() -> MappingCatalog {
        let mut maps = mappings();
        maps.add(
            MappingAssertion::property(
                "serial",
                iri("hasSerial"),
                "SELECT sid FROM sensors",
                TermMap::template("http://siemens.example/data/sensor/{sid}"),
                TermMap::column("sid", Datatype::Integer),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        maps
    }

    #[test]
    fn filter_pushes_into_static_sql_where_clause() {
        let ns = Namespaces::with_w3c_defaults();
        let text = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW { ?c2 a sie:Alert }
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { ?c1 sie:inAssembly ?c2 . ?c2 sie:hasSerial ?n . FILTER(?n > 10) }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }
        "#;
        let q = parse_starql(text, &ns).unwrap();
        assert_eq!(q.where_filters[0].len(), 1);
        let onto = ontology();
        let maps = mappings_with_serial();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
        };
        let t = translate(&q, &ctx).unwrap();
        // The filter variable rides along internally but is not an answer
        // variable.
        assert_eq!(t.where_answer_vars, vec!["c2".to_string()]);
        let sql = t.static_sql.expect("mapped terms").to_string();
        // The comparison landed in the SQL WHERE clause…
        assert!(sql.contains("> 10"), "{sql}");
        // …and the filter variable's projection was dropped again.
        assert!(!sql.contains(" AS n"), "{sql}");
        // The filtered statement still re-parses cleanly.
        optique_relational::parse_select(&sql).unwrap();
    }

    #[test]
    fn filter_on_unbound_variable_rejected() {
        let ns = Namespaces::with_w3c_defaults();
        let text = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW { ?c2 a sie:Alert }
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { ?c1 sie:inAssembly ?c2 . FILTER(?nope > 10) }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }
        "#;
        let q = parse_starql(text, &ns).unwrap();
        let onto = ontology();
        let maps = mappings();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
        };
        let err = translate(&q, &ctx).unwrap_err();
        assert!(err.0.contains("?nope"), "{}", err.0);
    }

    #[test]
    fn asymmetric_union_branch_rejected_with_explanation() {
        let ns = Namespaces::with_w3c_defaults();
        // ?c1 is used by CONSTRUCT but only bound in the second branch.
        let text = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW { ?c1 a sie:Alert }
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { { ?c2 a sie:TemperatureSensor } UNION { ?c1 sie:inAssembly ?c2 } }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }
        "#;
        let q = parse_starql(text, &ns).unwrap();
        let onto = ontology();
        let maps = mappings();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
        };
        let err = translate(&q, &ctx).unwrap_err();
        assert!(err.0.contains("?c1"), "{}", err.0);
        assert!(err.0.contains("UNION branch 1"), "{}", err.0);
    }

    /// Regression: `?ghost` appears only in CONSTRUCT. It used to translate
    /// and register, and then fail every tick whose HAVING held.
    #[test]
    fn unbound_construct_variable_rejected() {
        let ns = Namespaces::with_w3c_defaults();
        let text = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW { ?c2 sie:alertsFor ?ghost }
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { ?c1 sie:inAssembly ?c2 }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }
        "#;
        let q = parse_starql(text, &ns).unwrap();
        let onto = ontology();
        let maps = mappings();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
        };
        let err = translate(&q, &ctx).unwrap_err();
        assert!(err.0.contains("CONSTRUCT variable ?ghost"), "{}", err.0);
    }

    #[test]
    fn degenerate_query_rejected() {
        let ns = Namespaces::with_w3c_defaults();
        let text = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW { sie:x a sie:Alert }
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { ?a a sie:Assembly }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { sie:x sie:hasValue ?v }
        "#;
        let q = parse_starql(text, &ns).unwrap();
        let onto = ontology();
        let maps = mappings();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
        };
        assert!(translate(&q, &ctx).is_err());
    }
}

//! Conformance suite for the `optique-sparql` front-end.
//!
//! Three table-driven sections:
//! 1. queries that must parse, with algebra-shape assertions,
//! 2. malformed queries that must be rejected with positioned errors,
//! 3. end-to-end `Platform::query_static` runs over the Siemens deployment
//!    (parse → PerfectRef rewrite → mapping unfolding → relational
//!    execution → residual algebra).

use optique::OptiquePlatform;
use optique_rdf::Namespaces;
use optique_siemens::SiemensDeployment;
use optique_sparql::{parse_sparql, PatternElement, Projection, Query, SelectItem, SparqlError};

fn ns() -> Namespaces {
    let mut ns = Namespaces::with_w3c_defaults();
    ns.bind("sie", "http://siemens.example/ontology#");
    ns.bind("", "http://siemens.example/ontology#");
    ns
}

fn parse(text: &str) -> Result<Query, SparqlError> {
    parse_sparql(text, &ns())
}

// ---- 1. valid parses + algebra shapes ---------------------------------

/// A predicate over the parsed algebra.
type ShapeCheck = fn(&Query) -> bool;

/// Each entry: (name, query, predicate over the parsed algebra).
fn valid_cases() -> Vec<(&'static str, &'static str, ShapeCheck)> {
    vec![
        ("plain_select", "SELECT ?s WHERE { ?s a sie:Sensor }", |q| {
            matches!(q, Query::Select(s) if !s.distinct
                && matches!(&s.projection, Projection::Items(items) if items.len() == 1))
        }),
        (
            "select_star",
            "SELECT * WHERE { ?s a sie:Sensor }",
            |q| matches!(q, Query::Select(s) if s.projection == Projection::All),
        ),
        (
            "distinct",
            "SELECT DISTINCT ?s WHERE { ?s a sie:Sensor }",
            |q| matches!(q, Query::Select(s) if s.distinct),
        ),
        (
            "where_keyword_optional",
            "SELECT ?s { ?s a sie:Sensor }",
            |q| matches!(q, Query::Select(_)),
        ),
        (
            "prologue_prefix",
            "PREFIX x: <http://example.org/> SELECT ?s WHERE { ?s a x:Thing }",
            |q| matches!(q, Query::Select(_)),
        ),
        (
            "base_resolution",
            "BASE <http://example.org/> SELECT ?s WHERE { ?s a <Thing> }",
            |q| matches!(q, Query::Select(_)),
        ),
        (
            "predicate_object_list",
            "SELECT ?s ?v WHERE { ?s a sie:Sensor ; sie:hasValue ?v . }",
            |q| bgp_len(q, 0) == Some(2),
        ),
        (
            "object_list",
            "SELECT ?s WHERE { ?s sie:relatedTo sie:a1 , sie:a2 . }",
            |q| bgp_len(q, 0) == Some(2),
        ),
        (
            "multiple_triples_one_block",
            "SELECT ?a ?s WHERE { ?a a sie:Assembly . ?s a sie:Sensor . ?a sie:inAssembly ?s . }",
            |q| bgp_len(q, 0) == Some(3),
        ),
        (
            "optional_element",
            "SELECT ?t ?c WHERE { ?t a sie:Turbine . OPTIONAL { ?t sie:locatedIn ?c } }",
            |q| matches!(element(q, 1), Some(PatternElement::Optional(_))),
        ),
        (
            "union_element",
            "SELECT ?x WHERE { { ?x a sie:GasTurbine } UNION { ?x a sie:SteamTurbine } }",
            |q| matches!(element(q, 0), Some(PatternElement::Union(b)) if b.len() == 2),
        ),
        (
            "three_way_union",
            "SELECT ?x WHERE { { ?x a :A } UNION { ?x a :B } UNION { ?x a :C } }",
            |q| matches!(element(q, 0), Some(PatternElement::Union(b)) if b.len() == 3),
        ),
        (
            "filter_comparison",
            "SELECT ?v WHERE { ?s sie:hasValue ?v . FILTER(?v >= 90.5) }",
            |q| matches!(element(q, 1), Some(PatternElement::Filter(_))),
        ),
        (
            "filter_connectives",
            "SELECT ?v WHERE { ?s sie:hasValue ?v . FILTER(?v > 1 && (?v < 9 || !(?v = 5))) }",
            |q| matches!(element(q, 1), Some(PatternElement::Filter(_))),
        ),
        (
            "filter_regex_flags",
            "SELECT ?m WHERE { ?t sie:hasModel ?m . FILTER(REGEX(?m, \"^sgt\", \"i\")) }",
            |q| matches!(element(q, 1), Some(PatternElement::Filter(_))),
        ),
        (
            "filter_bound",
            "SELECT ?t WHERE { ?t a sie:Turbine . OPTIONAL { ?t sie:locatedIn ?c } \
          FILTER(!BOUND(?c)) }",
            |q| matches!(element(q, 2), Some(PatternElement::Filter(_))),
        ),
        (
            "order_limit_offset",
            "SELECT ?s WHERE { ?s a sie:Sensor } ORDER BY ?s LIMIT 10 OFFSET 5",
            |q| {
                matches!(q, Query::Select(s)
             if s.modifiers.limit == Some(10) && s.modifiers.offset == Some(5)
                && s.modifiers.order_by.len() == 1)
            },
        ),
        (
            "order_desc",
            "SELECT ?v WHERE { ?s sie:hasValue ?v } ORDER BY DESC(?v) ?s",
            |q| {
                matches!(q, Query::Select(s) if s.modifiers.order_by.len() == 2
             && s.modifiers.order_by[0].1)
            },
        ),
        (
            "count_star_group_by",
            "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s sie:attachedTo ?t } GROUP BY ?t",
            |q| {
                matches!(q, Query::Select(s) if s.group_by == vec!["t".to_string()]
             && matches!(&s.projection, Projection::Items(items)
                 if matches!(items[1], SelectItem::Aggregate { var: None, .. })))
            },
        ),
        (
            "aggregate_suite",
            "SELECT (COUNT(?v) AS ?n) (AVG(?v) AS ?mean) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) \
          WHERE { ?s sie:hasValue ?v }",
            |q| {
                matches!(q, Query::Select(s)
             if matches!(&s.projection, Projection::Items(items) if items.len() == 4))
            },
        ),
        (
            "count_distinct",
            "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s sie:attachedTo ?t }",
            |q| {
                matches!(q, Query::Select(s)
             if matches!(&s.projection, Projection::Items(items)
                 if matches!(items[0], SelectItem::Aggregate { distinct: true, .. })))
            },
        ),
        ("ask_form", "ASK { ?s a sie:Sensor }", |q| {
            matches!(q, Query::Ask(_))
        }),
        ("ask_with_where", "ASK WHERE { ?s a sie:Sensor }", |q| {
            matches!(q, Query::Ask(_))
        }),
        (
            "typed_literal",
            "SELECT ?s WHERE { ?s sie:hasValue \"42\"^^xsd:integer }",
            |q| bgp_len(q, 0) == Some(1),
        ),
        (
            "negative_number_filter",
            "SELECT ?v WHERE { ?s sie:hasValue ?v . FILTER(?v > -5) }",
            |q| matches!(element(q, 1), Some(PatternElement::Filter(_))),
        ),
        (
            "comments_ignored",
            "# find sensors\nSELECT ?s # projection\nWHERE { ?s a sie:Sensor }",
            |q| matches!(q, Query::Select(_)),
        ),
        (
            "nested_group",
            "SELECT ?s WHERE { { ?s a sie:Sensor . } }",
            |q| matches!(element(q, 0), Some(PatternElement::SubGroup(_))),
        ),
    ]
}

fn element(q: &Query, i: usize) -> Option<&PatternElement> {
    q.pattern().elements.get(i)
}

fn bgp_len(q: &Query, i: usize) -> Option<usize> {
    match element(q, i) {
        Some(PatternElement::Triples(atoms)) => Some(atoms.len()),
        _ => None,
    }
}

#[test]
fn valid_queries_parse_with_expected_shapes() {
    for (name, text, check) in valid_cases() {
        match parse(text) {
            Ok(query) => assert!(check(&query), "{name}: unexpected shape: {query:#?}"),
            Err(e) => panic!("{name}: failed to parse: {e}"),
        }
    }
}

// ---- 2. malformed inputs ----------------------------------------------

/// Each entry: (name, query, substring expected in the error display).
fn invalid_cases() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("empty_input", "", "SELECT or ASK"),
        ("bare_keyword", "SELECT", "SELECT needs"),
        (
            "missing_brace",
            "SELECT ?s WHERE { ?s a sie:Sensor",
            "unterminated",
        ),
        (
            "missing_object",
            "SELECT ?s WHERE { ?s a }",
            "expected a term",
        ),
        (
            "variable_predicate",
            "SELECT ?s WHERE { ?s ?p ?o }",
            "variable predicate",
        ),
        (
            "unbound_prefix",
            "SELECT ?s WHERE { ?s a nope:Thing }",
            "unbound prefix",
        ),
        (
            "bad_aggregate",
            "SELECT (MEDIAN(?v) AS ?m) WHERE { ?s sie:hasValue ?v }",
            "unknown aggregate",
        ),
        (
            "sum_star",
            "SELECT (SUM(*) AS ?x) WHERE { ?s sie:hasValue ?v }",
            "COUNT(*)",
        ),
        (
            "aggregate_without_alias",
            "SELECT (COUNT(?v)) WHERE { ?s sie:hasValue ?v }",
            "expected AS",
        ),
        (
            "limit_not_a_number",
            "SELECT ?s WHERE { ?s a sie:Sensor } LIMIT many",
            "non-negative integer",
        ),
        (
            "group_by_without_vars",
            "SELECT ?s WHERE { ?s a sie:Sensor } GROUP BY",
            "at least one variable",
        ),
        (
            "trailing_garbage",
            "SELECT ?s WHERE { ?s a sie:Sensor } EXTRA",
            "trailing input",
        ),
        (
            "lone_ampersand",
            "SELECT ?v WHERE { ?s sie:hasValue ?v . FILTER(?v > 1 & ?v < 2) }",
            "lone '&'",
        ),
        (
            "unterminated_string",
            "SELECT ?s WHERE { ?s sie:hasModel \"SGT",
            "unterminated",
        ),
        (
            "filter_without_parens",
            "SELECT ?v WHERE { ?s sie:hasValue ?v . FILTER ?v > 5 }",
            "after FILTER",
        ),
    ]
}

#[test]
fn malformed_queries_rejected_with_positions() {
    for (name, text, needle) in invalid_cases() {
        match parse(text) {
            Ok(q) => panic!("{name}: should have been rejected, parsed as {q:#?}"),
            Err(e) => {
                let shown = e.to_string();
                assert!(
                    shown.contains(needle),
                    "{name}: error {shown:?} does not mention {needle:?}"
                );
                assert!(
                    shown.contains("line"),
                    "{name}: error {shown:?} carries no position"
                );
            }
        }
    }
}

// ---- 3. end-to-end over the Siemens deployment ------------------------

fn platform() -> OptiquePlatform {
    OptiquePlatform::from_siemens(SiemensDeployment::small())
}

/// The acceptance query: SELECT with FILTER + OPTIONAL +
/// ORDER/LIMIT over the Siemens mappings, end to end.
#[test]
fn select_filter_optional_order_limit_end_to_end() {
    let p = platform();
    let results = p
        .query_static(
            "SELECT ?t ?m ?c WHERE { \
               ?t a sie:Turbine ; sie:hasModel ?m . \
               OPTIONAL { ?t sie:locatedIn ?c } \
               FILTER(REGEX(?m, \"^SGT\")) \
             } ORDER BY ?m LIMIT 7",
        )
        .unwrap();
    assert_eq!(results.vars(), ["t", "m", "c"]);
    assert!(results.len() <= 7 && !results.is_empty());
    // Ordered ascending by model, and every model passed the filter.
    let models: Vec<String> = results
        .rows()
        .iter()
        .map(|r| match &r[1] {
            Some(optique_rdf::Term::Literal(l)) => l.lexical().to_string(),
            other => panic!("model should be a literal, got {other:?}"),
        })
        .collect();
    let mut sorted = models.clone();
    sorted.sort();
    assert_eq!(models, sorted);
    assert!(models.iter().all(|m| m.starts_with("SGT")));
    // locatedIn is mapped for every turbine, so the OPTIONAL binds.
    assert!(results.rows().iter().all(|r| r[2].is_some()));
    // The pipeline surfaced its counters on the dashboard.
    let dash = p.dashboard();
    assert_eq!(dash.static_queries.len(), 1);
    assert!(dash.static_queries[0].stats.sql_disjuncts >= 1);
}

#[test]
fn taxonomy_reachability_via_rewriting() {
    let p = platform();
    // PowerGeneratingAppliance has no mapping of its own; only rewriting
    // through GasTurbine/SteamTurbine ⊑ Turbine ⊑ PowerGeneratingAppliance
    // reaches the data.
    let all = p
        .query_static("SELECT ?t WHERE { ?t a sie:PowerGeneratingAppliance }")
        .unwrap();
    let direct = p
        .query_static("SELECT ?t WHERE { ?t a sie:Turbine }")
        .unwrap();
    assert_eq!(all.len(), direct.len());
    assert!(!all.is_empty());
}

#[test]
fn union_and_distinct_over_regional_registries() {
    let p = platform();
    let (results, stats) = p
        .query_static_with_stats(
            "SELECT DISTINCT ?s WHERE { \
               { ?s a sie:TemperatureSensor } UNION { ?s a sie:PressureSensor } }",
        )
        .unwrap();
    // 3 sensors per assembly, kinds assigned round-robin per assembly →
    // 20 temperature + 20 pressure.
    assert_eq!(results.len(), 40);
    // Each branch fans out across the unified + 3 regional registries.
    assert!(stats.sql_disjuncts >= 8, "stats: {stats:?}");
}

#[test]
fn aggregates_group_sensors_per_assembly() {
    let p = platform();
    let results = p
        .query_static(
            "SELECT ?a (COUNT(DISTINCT ?s) AS ?n) WHERE { ?a sie:inAssembly ?s } \
             GROUP BY ?a ORDER BY DESC(?n) LIMIT 5",
        )
        .unwrap();
    assert!(!results.is_empty() && results.len() <= 5);
    // Every assembly hosts at least one sensor.
    for row in results.rows() {
        let n = match &row[1] {
            Some(optique_rdf::Term::Literal(l)) => l.as_i64().unwrap(),
            other => panic!("count should be an integer, got {other:?}"),
        };
        assert!(n >= 1);
    }
}

#[test]
fn ask_and_empty_results() {
    let p = platform();
    assert_eq!(
        p.query_static("ASK { ?s a sie:RotorSpeedSensor }")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    assert_eq!(
        p.query_static("ASK { ?s a sie:VibrationSensor }")
            .unwrap()
            .as_bool(),
        Some(false),
        "the small fleet assigns 3 sensors per assembly; vibration is the 4th kind"
    );
    let empty = p
        .query_static("SELECT ?x WHERE { ?x a sie:DiagnosticMessage }")
        .unwrap();
    assert!(
        empty.is_empty(),
        "diagnostic messages only exist on streams"
    );
}

// ---- 4. per-BGP cache behaviour ---------------------------------------

/// A query whose UNION branches repeat the same BGP hits the cache within a
/// single execution, and re-running a query hits for every BGP; the
/// counters surface on the dashboard.
#[test]
fn repeated_bgps_raise_hit_counters() {
    let p = platform();
    let text = "SELECT ?s WHERE { { ?s a sie:Sensor } UNION { ?s a sie:Sensor } }";
    let (_, stats) = p.query_static_with_stats(text).unwrap();
    assert_eq!(stats.cache_misses, 1, "first branch fills: {stats:?}");
    assert_eq!(stats.cache_hits, 1, "second branch hits: {stats:?}");
    let (_, stats) = p.query_static_with_stats(text).unwrap();
    assert_eq!(stats.cache_hits, 2, "warm re-run hits everywhere");
    assert_eq!(stats.cache_misses, 0);
    let dash = p.dashboard();
    assert_eq!(dash.bgp_cache_hits, 3);
    assert_eq!(dash.bgp_cache_misses, 1);
    assert_eq!(dash.bgp_cache_hit_rate(), Some(0.75));
    assert!(
        dash.render().contains("BGP cache 75% hit"),
        "{}",
        dash.render()
    );
}

/// A relational INSERT invalidates the cache; answers after the write are
/// correct (they include the new row) on both the single-node and the
/// federated path, and caching resumes on the new snapshot.
#[test]
fn insert_invalidates_and_results_stay_correct() {
    let p = platform();
    let text = "SELECT DISTINCT ?t WHERE { ?t a sie:Turbine }";
    let before = p.query_static(text).unwrap();
    // Warm the cache over the old snapshot.
    let (_, stats) = p.query_static_with_stats(text).unwrap();
    assert!(stats.cache_hits >= 1);

    // Append one turbine row (gas → reachable through GasTurbine ⊑ Turbine).
    let turbines = p.db().table("turbines").unwrap().clone();
    let mut row = turbines.rows[0].clone();
    row[0] = optique_relational::Value::Int(424_242);
    p.insert_static("turbines", vec![row]).unwrap();

    let after = p.query_static(text).unwrap();
    assert_eq!(
        after.len(),
        before.len() + 1,
        "stale cached answers would miss the inserted turbine"
    );
    let distributed = p.query_static_distributed(text, 4).unwrap();
    assert_eq!(distributed.len(), after.len(), "federation re-provisioned");
    // Caching resumed on the new snapshot.
    let (warm, stats) = p.query_static_with_stats(text).unwrap();
    assert!(stats.cache_hits >= 1);
    assert_eq!(warm.len(), after.len());
    assert_eq!(p.dashboard().bgp_cache_invalidations, 1);
    // Inserting into a missing table is a positioned failure, not a panic.
    assert!(p.insert_static("no_such_table", vec![]).is_err());
}

#[test]
fn results_render_for_the_dashboard() {
    let p = platform();
    let results = p
        .query_static("SELECT ?t ?m WHERE { ?t sie:hasModel ?m } ORDER BY ?m LIMIT 3")
        .unwrap();
    let rendered = results.render(2);
    assert!(rendered.contains("?t | ?m"));
    assert!(rendered.contains("more rows"), "{rendered}");
}

/// `?v-1` is `?v - 1`: SPARQL's VARNAME has no `-`. Read as one variable
/// named `v-1`, the filter reads an unbound variable and drops every row.
#[test]
fn a_minus_after_a_variable_subtracts() {
    let p = platform();
    let results = p
        .query_static(
            "SELECT ?s ?v WHERE { ?s a sie:Sensor . VALUES ?v { 2 4 5 7 } FILTER(?v-1 > 3) }",
        )
        .unwrap();
    let mut values: Vec<i64> = results
        .rows()
        .iter()
        .map(|r| match &r[1] {
            Some(optique_rdf::Term::Literal(l)) => l.as_i64().unwrap(),
            other => panic!("?v should be an integer, got {other:?}"),
        })
        .collect();
    values.sort();
    values.dedup();
    assert_eq!(values, [5, 7], "{} rows", results.len());
}

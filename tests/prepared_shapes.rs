//! A query shape is planned once: the prepared-shape oracle and its counts.
//!
//! **Counts.** On the fan-out shape (one property through 100 tables, 2
//! workers) only the probe's constant changes from op to op: after the
//! first op, no op rewrites, unfolds, regroups or plans anything — every
//! BGP binds its constant into the shape its pool planned.
//!
//! **Oracle: prepared ≡ fresh, answer for answer.** A warm platform, whose
//! shapes were planned for other constants (and whose pools were carried
//! across merges), must answer every query exactly as a cold platform
//! deployed over the same rows answers it, and — on queries of one BGP —
//! as the pipeline without shapes did: PerfectRef, unfolding with the
//! constants inlined, one plan, one execution. Three generators: a
//! deployment keyed by every column type (a constant that inverts on some
//! branches and not others, digit text on TEXT keys, integers near ±2^53,
//! a constant no branch mints, a merge that re-partitions a table), the
//! Siemens federation generator and the novelty-overlay generator, each at
//! single-node and 1, 2 and 4 workers, with writes and `merge_now`
//! interleaved.
//!
//! Generated-case count comes from `PROPTEST_CASES` (CI runs at 256).

mod common;

use std::sync::OnceLock;

use common::{canon, proptest_cases, query_strategy, streaming};
use optique::OptiquePlatform;
use optique_mapping::{unfold_ucq, MappingAssertion, MappingCatalog, TermMap, UnfoldSettings};
use optique_rdf::{Datatype, Iri, Namespaces};
use optique_relational::{execute_prepared, table::table_of, ColumnType, Database, Value};
use optique_rewrite::{rewrite, ConjunctiveQuery, QueryTerm, RewriteSettings};
use optique_siemens::SiemensDeployment;
use optique_sparql::{
    parse_sparql, solutions_from_tables, PatternElement, PipelineStats, Query, SparqlResults,
};
use proptest::prelude::*;

/// Where a query runs: single-node, or a pool of 1, 2 or 4 workers.
const POOLS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];

/// Answers `text` on `p` over `pool`, past the BGP cache (a cached
/// solution set would answer without binding anything).
fn answer(p: &OptiquePlatform, text: &str, pool: Option<usize>) -> (SparqlResults, PipelineStats) {
    p.bgp_cache().invalidate();
    let answered = match pool {
        None => p.query_static_with_stats(text),
        Some(workers) => p.query_static_distributed_with_stats(text, workers),
    };
    answered.unwrap_or_else(|e| panic!("{text} at {pool:?}: {e}"))
}

/// The pipeline without shapes, on a query of one BGP whose SELECT lists
/// its variables in first-seen order: PerfectRef, the constants unfolded
/// inline, the unfolded statement planned and executed single-node over
/// `p`'s current catalog (base and overlay rows).
fn inline_reference(p: &OptiquePlatform, text: &str) -> SparqlResults {
    let query = parse_sparql(text, &p.namespaces).unwrap();
    let Query::Select(select) = &query else {
        panic!("{text} is no SELECT");
    };
    let [PatternElement::Triples(atoms)] = select.pattern.elements.as_slice() else {
        panic!("{text} is not one BGP");
    };
    let mut vars: Vec<String> = Vec::new();
    for term in atoms.iter().flat_map(|atom| atom.terms()) {
        if let QueryTerm::Var(v) = term {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
    }
    let cq = ConjunctiveQuery::new(vars.clone(), atoms.clone());
    let (ucq, _) = rewrite(&cq, &p.ontology, &RewriteSettings::default()).unwrap();
    let (sql, _) = unfold_ucq(&ucq, &p.mappings, &UnfoldSettings::default()).unwrap();
    let db = p.db();
    let tables = sql.map(|s| vec![execute_prepared(&s, &db).unwrap()]);
    SparqlResults::Solutions(solutions_from_tables(vars, tables.unwrap_or_default()))
}

// ---- counts ------------------------------------------------------------

/// 1 000 `fanout_probe`-shaped ops, the constant cycling through 64
/// values, on 2 workers: after the first op, plans built = 0, PerfectRef
/// calls = 0, unfold calls = 0, regroups = 0, and every BGP is a shape
/// hit. One `fanout_scan`-shaped op after its warm-up builds no plan
/// either.
#[test]
fn a_query_shape_is_planned_once() {
    let p = common::fan_out();
    let probe = |k: usize| format!("SELECT ?a WHERE {{ ?a <http://x/p> <http://x/obj/{k}> }}");
    let (_, first) = answer(&p, &probe(0), Some(2));
    assert_eq!((first.rewrites, first.unfolds, first.regroups), (1, 1, 1));
    assert!(first.plans_built >= 1, "{first:?}");
    assert_eq!((first.shape_hits, first.shape_misses), (0, 1));
    for op in 1..1_000 {
        let (got, stats) = answer(&p, &probe(op % 64), Some(2));
        assert_eq!(got.len(), 100, "one row per table at op {op}");
        assert_eq!(
            (
                stats.plans_built,
                stats.rewrites,
                stats.unfolds,
                stats.regroups
            ),
            (0, 0, 0, 0),
            "op {op}: {stats:?}"
        );
        assert_eq!((stats.shape_hits, stats.shape_misses), (1, 0), "op {op}");
    }

    let scan = "SELECT ?a ?b WHERE { ?a <http://x/p> ?b }";
    let (_, warm_up) = answer(&p, scan, Some(2));
    assert_eq!(warm_up.rewrites, 1, "another shape: {warm_up:?}");
    let (got, stats) = answer(&p, scan, Some(2));
    assert_eq!(got.len(), 6_400);
    assert_eq!(
        (
            stats.plans_built,
            stats.rewrites,
            stats.unfolds,
            stats.regroups
        ),
        (0, 0, 0, 0),
        "{stats:?}"
    );
}

// ---- the keyed generator -------------------------------------------------

/// Rows `grow` starts with: below the partition floor (48), so inserts and
/// a merge make the advisor start partitioning it.
const GROW_BASE: i64 = 40;

/// The `i`-th row appended to `grow`.
fn grow_row(i: i64) -> Vec<Value> {
    let gid = 1_000 + i;
    vec![Value::Int(gid), Value::Int(gid % 7)]
}

/// A deployment keyed by every column type, `grown` appended to `grow`:
///
/// * `parts(code TEXT, at TIMESTAMP, load FLOAT, num INT)`, codes digit
///   text, one `"a7"`, and numbers near ±2^53;
/// * `lots(k INT, n TEXT)`, `n` digit text (`"007"` among it);
/// * `grow(gid INT, val INT)`.
///
/// `x:tag` maps through all three with different subject templates and
/// one object template (`…/num/{…}` over INT and TEXT keys), so a
/// constant subject inverts on some branches and not others; classes
/// `Part`, `Mark`, `Gauge`, `Lot` mint from each `parts` column;
/// `x:weight` is `load` as a literal and `x:stamp` mints `at`.
fn keyed(grown: &[Vec<Value>]) -> OptiquePlatform {
    const BIG: i64 = 1 << 53;
    let mut parts: Vec<Vec<Value>> = (0..60)
        .map(|i| {
            vec![
                Value::text((100 + i).to_string()),
                Value::Timestamp(i),
                Value::Float(i as f64 / 4.0),
                Value::Int(i),
            ]
        })
        .collect();
    for (code, num) in [
        ("a7", -5),
        ("9007199254740993", BIG + 1),
        ("big", BIG),
        ("neg", -BIG - 1),
    ] {
        parts.push(vec![
            Value::text(code),
            Value::Timestamp(num % 1_000),
            Value::Float(num as f64),
            Value::Int(num),
        ]);
    }
    let lots = (0..50)
        .map(|k| {
            let n = if k == 7 {
                "007".to_string()
            } else {
                (k * 3).to_string()
            };
            vec![Value::Int(k), Value::text(n)]
        })
        .collect();
    let grow = (0..GROW_BASE)
        .map(|gid| vec![Value::Int(gid), Value::Int(gid % 7)])
        .chain(grown.iter().cloned())
        .collect();
    let mut db = Database::new();
    let parts_schema = [
        ("code", ColumnType::Text),
        ("at", ColumnType::Timestamp),
        ("load", ColumnType::Float),
        ("num", ColumnType::Int),
    ];
    db.put_table("parts", table_of("parts", &parts_schema, parts).unwrap());
    let lots_schema = [("k", ColumnType::Int), ("n", ColumnType::Text)];
    db.put_table("lots", table_of("lots", &lots_schema, lots).unwrap());
    let grow_schema = [("gid", ColumnType::Int), ("val", ColumnType::Int)];
    db.put_table("grow", table_of("grow", &grow_schema, grow).unwrap());

    let x = |name: &str| Iri::new(format!("http://x/{name}"));
    let mut mappings = MappingCatalog::new();
    for (class, column) in [
        ("Part", "code"),
        ("Mark", "at"),
        ("Gauge", "load"),
        ("Lot", "num"),
    ] {
        let subject = TermMap::template(&format!("http://x/{column}/{{{column}}}"));
        let source = format!("SELECT {column} FROM parts");
        mappings
            .add(MappingAssertion::class(class, x(class), source, subject))
            .unwrap();
    }
    for (id, source, subject, object) in [
        (
            "tag-parts",
            "SELECT code, num FROM parts",
            "http://x/code/{code}",
            "http://x/num/{num}",
        ),
        (
            "tag-lots",
            "SELECT k, n FROM lots",
            "http://x/lot/{k}",
            "http://x/num/{n}",
        ),
        (
            "tag-grow",
            "SELECT gid, val FROM grow",
            "http://x/g/{gid}",
            "http://x/num/{val}",
        ),
        (
            "stamp",
            "SELECT code, at FROM parts",
            "http://x/code/{code}",
            "http://x/at/{at}",
        ),
    ] {
        let property = if id == "stamp" { "stamp" } else { "tag" };
        mappings
            .add(MappingAssertion::property(
                id,
                x(property),
                source,
                TermMap::template(subject),
                TermMap::template(object),
            ))
            .unwrap();
    }
    mappings
        .add(MappingAssertion::property(
            "weight",
            x("weight"),
            "SELECT code, load FROM parts",
            TermMap::template("http://x/code/{code}"),
            TermMap::column("load", Datatype::Double),
        ))
        .unwrap();
    let mut namespaces = Namespaces::with_w3c_defaults();
    namespaces.bind("x", "http://x/");
    OptiquePlatform::deploy(
        db,
        Default::default(),
        namespaces,
        mappings,
        SiemensDeployment::small().stream_to_rdf,
    )
}

/// The keyed generator's query texts: `shape` picks the pattern, `k` the
/// constant. Every one is one BGP selecting its variables in first-seen
/// order, so the inline reference answers it too.
fn keyed_query(shape: usize, k: usize) -> String {
    const OBJECTS: [&str; 9] = [
        "http://x/num/5",
        "http://x/num/007",
        "http://x/num/21",
        "http://x/num/9007199254740993",
        "http://x/num/9007199254740992",
        "http://x/num/-9007199254740993",
        "http://x/num/1.5",
        "http://x/num/abc",
        "http://y/none",
    ];
    const SUBJECTS: [&str; 8] = [
        "http://x/code/123",
        "http://x/code/a7",
        "http://x/code/9007199254740993",
        "http://x/lot/7",
        "http://x/g/5",
        "http://x/g/1003",
        "http://x/code/",
        "http://y/none",
    ];
    const WEIGHTS: [&str; 5] = ["1.5", "2.0", "15", "\"0.25\"^^xsd:double", "-5"];
    const STAMPS: [&str; 4] = [
        "http://x/at/5",
        "http://x/at/@5",
        "http://x/at/-5",
        "http://x/num/5",
    ];
    let object = OBJECTS[k % OBJECTS.len()];
    let subject = SUBJECTS[k % SUBJECTS.len()];
    match shape % 6 {
        0 => format!("SELECT ?s WHERE {{ ?s x:tag <{object}> }}"),
        1 => format!("SELECT ?o WHERE {{ <{subject}> x:tag ?o }}"),
        2 => format!("SELECT ?s WHERE {{ ?s a x:Part . ?s x:tag <{object}> }}"),
        3 => format!(
            "SELECT ?s WHERE {{ ?s x:weight {} }}",
            WEIGHTS[k % WEIGHTS.len()]
        ),
        4 => format!(
            "SELECT ?s WHERE {{ ?s x:stamp <{}> }}",
            STAMPS[k % STAMPS.len()]
        ),
        _ => format!("SELECT ?o ?t WHERE {{ <{subject}> x:tag ?o . <{subject}> x:stamp ?t }}"),
    }
}

/// One generated step: `(kind, a, b, c)` — an insert of `a % 4 + 1` rows
/// into the growing table, a merge, or a query of shape `a` and constant
/// `b` over pool `c`.
type Step = (usize, usize, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0usize..8, 0usize..64, 0usize..64, 0usize..4), 1..24)
}

/// Runs `steps` on a warm platform over the keyed generator, checking
/// every answer against a cold platform over the same rows and the inline
/// reference. Returns how many tables merges re-partitioned.
fn run_keyed(steps: &[Step], subject: &OptiquePlatform, grown: &mut Vec<Vec<Value>>) {
    for &(kind, a, b, c) in steps {
        match kind {
            0 | 1 => {
                let first = grown.len() as i64;
                let batch: Vec<Vec<Value>> =
                    (first..first + (a % 4 + 1) as i64).map(grow_row).collect();
                grown.extend(batch.iter().cloned());
                subject.insert_static("grow", batch).unwrap();
            }
            2 => {
                subject.merge_now().unwrap();
            }
            _ => {
                let text = keyed_query(a, b);
                let pool = POOLS[c % POOLS.len()];
                let (warm, stats) = answer(subject, &text, pool);
                if text.contains("http://y/none") {
                    // Every branch prunes: nothing executes.
                    assert_eq!((stats.fragments, stats.fragment_rows), (0, 0), "{text}");
                }
                let (cold, _) = answer(&keyed(grown), &text, pool);
                assert_eq!(
                    canon(&warm),
                    canon(&cold),
                    "prepared ≠ fresh: {text} at {pool:?}"
                );
                assert_eq!(
                    canon(&warm),
                    canon(&inline_reference(subject, &text)),
                    "prepared ≠ inline: {text} at {pool:?}"
                );
            }
        }
    }
}

/// Every keyed query, every constant and every pool, fixed: each answer
/// equals the cold platform's and the inline reference's, then again
/// after inserts and a merge that re-partitions `grow` (planned shapes of
/// `grow` are dropped from the carried pools, the others carried).
#[test]
fn every_key_type_binds_as_fresh_unfolding_does() {
    let subject = keyed(&[]);
    let mut grown = Vec::new();
    let sweep: Vec<Step> = (0..6)
        .flat_map(|shape| (0..9).flat_map(move |k| (0..4).map(move |pool| (3, shape, k, pool))))
        .collect();
    run_keyed(&sweep, &subject, &mut grown);
    // The pool slots hold their planned shapes; a merge that re-partitions
    // `grow` keeps them warm for every other table.
    run_keyed(
        &[(0, 3, 0, 0), (0, 3, 0, 0), (0, 3, 0, 0), (2, 0, 0, 0)],
        &subject,
        &mut grown,
    );
    let metrics = subject.metrics_snapshot();
    assert!(
        metrics
            .counter("novelty.tables_repartitioned.grow")
            .unwrap_or(0)
            >= 1,
        "the merge re-partitions grow"
    );
    run_keyed(&sweep, &subject, &mut grown);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

    /// The keyed generator with inserts and merges interleaved.
    #[test]
    fn prepared_equals_fresh_over_every_key_type(steps in steps()) {
        let subject = keyed(&[]);
        let mut grown = Vec::new();
        run_keyed(&steps, &subject, &mut grown);
    }

    /// The Siemens federation generator: a warm platform shared by every
    /// case ≡ a cold platform per query.
    #[test]
    fn prepared_equals_fresh_on_the_federation_generator(
        queries in proptest::collection::vec((query_strategy(), 0usize..4), 1..6)
    ) {
        static WARM: OnceLock<OptiquePlatform> = OnceLock::new();
        let warm = WARM.get_or_init(|| OptiquePlatform::from_siemens(SiemensDeployment::small()));
        for (text, pool) in &queries {
            let pool = POOLS[*pool];
            let (got, _) = answer(warm, text, pool);
            let cold = OptiquePlatform::from_siemens(SiemensDeployment::small());
            let (want, _) = answer(&cold, text, pool);
            prop_assert_eq!(canon(&got), canon(&want), "{} at {:?}", text, pool);
        }
    }

    /// The novelty generator: sensors inserted and merged on a warm
    /// platform ≡ a platform deployed over every row, and ≡ the inline
    /// reference, on queries whose constants name assemblies and sensors.
    #[test]
    fn prepared_equals_fresh_under_novelty(steps in steps()) {
        use streaming::{DATA, SIE};
        let subject = streaming::deployment(streaming::ramp_stream());
        let mut inserted: Vec<Vec<Value>> = Vec::new();
        for &(kind, a, b, c) in &steps {
            match kind {
                0 | 1 => {
                    let first = 2_000 + inserted.len() as i64;
                    let batch: Vec<Vec<Value>> = (first..first + (a % 4 + 1) as i64)
                        .map(|sid| vec![
                            Value::Int(sid),
                            Value::Int(sid % 8),
                            Value::text(if sid % 2 == 0 { "temperature" } else { "pressure" }),
                        ])
                        .collect();
                    inserted.extend(batch.iter().cloned());
                    subject.insert_static("sensors", batch).unwrap();
                }
                2 => {
                    subject.merge_now().unwrap();
                }
                _ => {
                    let text = match a % 4 {
                        0 => format!("SELECT ?s WHERE {{ <{DATA}assembly/{}> <{SIE}inAssembly> ?s }}", b % 10),
                        1 => format!("SELECT ?a WHERE {{ ?a <{SIE}inAssembly> <{DATA}sensor/{}> }}", 2_000 + b % 6),
                        2 => format!(
                            "SELECT ?a WHERE {{ ?a a <{SIE}Assembly> . ?a <{SIE}inAssembly> <{DATA}sensor/{}> }}",
                            b % 70
                        ),
                        _ => format!("SELECT ?s WHERE {{ <{DATA}assembly/{}> <{SIE}inAssembly> ?s . ?s a <{SIE}TemperatureSensor> }}", b % 9),
                    };
                    let pool = POOLS[c % POOLS.len()];
                    let (got, _) = answer(&subject, &text, pool);
                    let cold = streaming::deployment_with(streaming::ramp_stream(), inserted.clone());
                    let (want, _) = answer(&cold, &text, pool);
                    prop_assert_eq!(canon(&got), canon(&want), "{} at {:?}", text, pool);
                    prop_assert_eq!(canon(&got), canon(&inline_reference(&subject, &text)), "{}", text);
                }
            }
        }
    }
}

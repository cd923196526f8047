//! Federation equivalence: distributed `query_static` must return exactly
//! the single-node answer *set* — over the shared fixed suite of
//! handwritten queries and the shared property-based generator of
//! BGP/UNION/OPTIONAL/FILTER shapes (`tests/common`) — at 1, 2, 4 and 8
//! workers.
//!
//! The platform's per-BGP cache is invalidated between runs so every
//! execution genuinely exercises its own backend (otherwise the second run
//! would answer from the first run's cache and the comparison would be
//! vacuous).

mod common;

use std::sync::OnceLock;

use common::{canon, proptest_cases, query_strategy, FIXED_QUERIES};
use optique::OptiquePlatform;
use optique_siemens::SiemensDeployment;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn platform() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| OptiquePlatform::from_siemens(SiemensDeployment::small()))
}

/// Runs `text` single-node and at every worker count, asserting identical
/// answer sets. Invalidates the BGP cache around each execution.
fn assert_equivalent(text: &str) {
    let p = platform();
    p.bgp_cache().invalidate();
    let single = p
        .query_static(text)
        .unwrap_or_else(|e| panic!("single-node failed for {text}: {e}"));
    for workers in WORKER_COUNTS {
        p.bgp_cache().invalidate();
        let (distributed, stats) = p
            .query_static_distributed_with_stats(text, workers)
            .unwrap_or_else(|e| panic!("{workers}-worker run failed for {text}: {e}"));
        assert_eq!(
            canon(&single),
            canon(&distributed),
            "distributed ≠ single-node at {workers} workers for {text}"
        );
        assert!(
            stats.fragments >= stats.sql_disjuncts.min(1),
            "no fragments shipped at {workers} workers for {text}: {stats:?}"
        );
        assert_eq!(
            stats.coordinator_fallbacks, 0,
            "replicated pools must never fall back for {text}: {stats:?}"
        );
    }
    p.bgp_cache().invalidate();
}

// ---- fixed suite -------------------------------------------------------

#[test]
fn fixed_suite_is_equivalent_across_worker_counts() {
    for text in FIXED_QUERIES {
        assert_equivalent(text);
    }
}

/// Federated execution populates the same BGP cache: a distributed run
/// primes it, and a later single-node run of the same query hits.
#[test]
fn federated_runs_share_the_bgp_cache() {
    // Own platform: the shared one's cache is invalidated concurrently by
    // the equivalence tests, which would make counter assertions flaky.
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    let text = "SELECT ?t WHERE { ?t a sie:GasTurbine }";
    let (_, cold) = p.query_static_distributed_with_stats(text, 4).unwrap();
    assert_eq!(cold.cache_hits, 0);
    let (_, warm) = p.query_static_with_stats(text).unwrap();
    assert!(
        warm.cache_hits >= 1,
        "single-node reuses the federated fill"
    );
}

/// Regression, federated twin of
/// `sparql::compile::tests::constant_iris_agree_with_select_whatever_the_key_type`:
/// a constant IRI over a key column whose values look like another type's
/// (`TEXT "123"`) or render unlike their SQL spelling (`TIMESTAMP @5`,
/// `FLOAT 1.5`) must select what `SELECT` says it names, and an IRI only a
/// key of another type mints (`…/at/5` over TIMESTAMP, `…/num/@5` over INT)
/// must select nothing — single-node and at 2 workers, where the `parts`
/// table shards on `code` and the constant travels to the workers typed.
#[test]
fn constant_iris_agree_with_select_whatever_the_key_type() {
    use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
    use optique_rdf::{Iri, Namespaces, Term};
    use optique_relational::{table::table_of, ColumnType, Database, Value};

    let keys = [
        ("code", ColumnType::Text),
        ("at", ColumnType::Timestamp),
        ("load", ColumnType::Float),
        ("num", ColumnType::Int),
    ];
    let mut rows: Vec<Vec<Value>> = (0..60)
        .map(|i| {
            vec![
                Value::text((100 + i).to_string()),
                Value::Timestamp(i),
                Value::Float(i as f64 / 4.0),
                Value::Int(i),
            ]
        })
        .collect();
    rows.push(vec![
        Value::text("a7"),
        Value::Timestamp(-5),
        Value::Float(-1.5),
        Value::Int(-5),
    ]);
    let classes = [
        ("Part", "code"),
        ("Mark", "at"),
        ("Gauge", "load"),
        ("Lot", "num"),
    ];
    let mut db = Database::new();
    db.put_table("parts", table_of("parts", &keys, rows).unwrap());
    let x = |name: &str| Iri::new(format!("http://x/{name}"));
    let mut mappings = MappingCatalog::new();
    for (class, column) in classes {
        let subject = TermMap::template(&format!("http://x/{column}/{{{column}}}"));
        let source = format!("SELECT {column} FROM parts");
        mappings
            .add(MappingAssertion::class(class, x(class), source, subject))
            .unwrap();
    }
    mappings
        .add(MappingAssertion::property(
            "stamped",
            x("stampedAt"),
            "SELECT code, at FROM parts",
            TermMap::template("http://x/code/{code}"),
            TermMap::template("http://x/at/{at}"),
        ))
        .unwrap();
    let mut namespaces = Namespaces::with_w3c_defaults();
    namespaces.bind("x", "http://x/");
    let siemens = SiemensDeployment::small();
    let p = OptiquePlatform::deploy(
        db,
        Default::default(),
        namespaces,
        mappings,
        siemens.stream_to_rdf,
    );

    // Every run starts from a cold BGP cache, so it exercises its own backend.
    let run = |text: &str, workers: usize| {
        p.bgp_cache().invalidate();
        let answered = match workers {
            1 => p.query_static_with_stats(text),
            _ => p.query_static_distributed_with_stats(text, workers),
        };
        answered.unwrap_or_else(|e| panic!("{text} at {workers}: {e}"))
    };
    let iris = |text: &str, workers: usize| -> Vec<Vec<String>> {
        let iri = |term: &Option<Term>| match term {
            Some(Term::Iri(iri)) => iri.as_str().to_string(),
            other => panic!("not an IRI: {other:?}"),
        };
        let (answered, _) = run(text, workers);
        let mut rows: Vec<Vec<String>> = answered
            .rows()
            .iter()
            .map(|row| row.iter().map(iri).collect())
            .collect();
        rows.sort();
        rows
    };
    let (_, stats) = run("SELECT ?p WHERE { ?p a x:Part }", 2);
    assert!(
        stats.partitioned_fragments > 0,
        "parts is sharded: {stats:?}"
    );
    for workers in [1, 2] {
        for (class, _) in classes {
            let members = iris(&format!("SELECT ?p WHERE {{ ?p a x:{class} }}"), workers);
            assert_eq!(members.len(), 61, "{class}");
            for member in members.iter().flatten().step_by(7) {
                let ask = format!("ASK {{ <{member}> a x:{class} }}");
                assert_eq!(
                    run(&ask, workers).0.as_bool(),
                    Some(true),
                    "{ask} at {workers}"
                );
            }
        }
        let lots = iris("SELECT ?p WHERE { ?p a x:Lot }", workers);
        assert!(lots.contains(&vec!["http://x/num/5".to_string()]));
        for ask in [
            "ASK { <http://x/at/5> a x:Mark }",
            "ASK { <http://x/num/@5> a x:Lot }",
        ] {
            assert_eq!(
                run(ask, workers).0.as_bool(),
                Some(false),
                "{ask} at {workers}"
            );
        }
        let pairs = iris("SELECT ?p ?t WHERE { ?p x:stampedAt ?t }", workers);
        assert_eq!(pairs.len(), 61);
        for pair in pairs.iter().step_by(7) {
            let (part, mark) = (&pair[0], &pair[1]);
            let by_object = format!("SELECT ?p WHERE {{ ?p x:stampedAt <{mark}> }}");
            assert_eq!(iris(&by_object, workers), [[part.clone()]], "{mark}");
            let by_subject = format!("SELECT ?t WHERE {{ <{part}> x:stampedAt ?t }}");
            assert_eq!(iris(&by_subject, workers), [[mark.clone()]], "{part}");
        }
    }
}

/// Rows of different `UNION ALL` branches are never deduplicated against
/// each other: three 64-row sources map `x:p` to the same numbers as INT,
/// FLOAT and TIMESTAMP literals — three RDF terms per subject, though
/// `Value` equality merges `Int(5)`, `Float(5.0)` and `Timestamp(5)`. Each
/// query equals single-node at every worker count on both topologies;
/// under auto-partitioning all three branches scatter.
#[test]
fn mixed_literal_sources_keep_every_term() {
    use optique::FederationTopology;
    use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
    use optique_rdf::{Datatype, Iri, Namespaces};
    use optique_relational::{table::table_of, ColumnType, Database, Value};

    // Table, its `v` column type, the literal datatype, the value of row i.
    type Source = (&'static str, ColumnType, Datatype, fn(i64) -> Value);
    let sources: [Source; 3] = [
        ("ints", ColumnType::Int, Datatype::Integer, Value::Int),
        ("floats", ColumnType::Float, Datatype::Double, |i| {
            Value::Float(i as f64)
        }),
        (
            "stamps",
            ColumnType::Timestamp,
            Datatype::DateTime,
            Value::Timestamp,
        ),
    ];
    let mut db = Database::new();
    let mut mappings = MappingCatalog::new();
    for (table, ty, datatype, value) in sources {
        let rows = (0..64).map(|i| vec![Value::Int(i), value(i)]).collect();
        let columns = [("a", ColumnType::Int), ("v", ty)];
        db.put_table(table, table_of(table, &columns, rows).unwrap());
        mappings
            .add(MappingAssertion::property(
                format!("p-{table}"),
                Iri::new("http://x/p"),
                format!("SELECT a, v FROM {table}"),
                TermMap::template("http://x/s/{a}"),
                TermMap::column("v", datatype),
            ))
            .unwrap();
    }
    let p = OptiquePlatform::deploy(
        db,
        Default::default(),
        Namespaces::with_w3c_defaults(),
        mappings,
        SiemensDeployment::small().stream_to_rdf,
    );
    let queries = [
        ("SELECT ?s ?v WHERE { ?s <http://x/p> ?v }", 192),
        ("SELECT DISTINCT ?v WHERE { ?s <http://x/p> ?v }", 192),
        ("SELECT ?v WHERE { <http://x/s/5> <http://x/p> ?v }", 3),
    ];
    for topology in [
        FederationTopology::AutoPartitioned,
        FederationTopology::Replicated,
    ] {
        p.set_federation_topology(topology);
        for (text, rows) in queries {
            p.bgp_cache().invalidate();
            let single = p.query_static(text).unwrap();
            assert_eq!(single.len(), rows, "{text} single-node");
            for workers in WORKER_COUNTS {
                p.bgp_cache().invalidate();
                let (distributed, stats) = p
                    .query_static_distributed_with_stats(text, workers)
                    .unwrap_or_else(|e| panic!("{text} at {workers}: {e}"));
                let run = format!("{text} at {workers} workers, {topology:?}");
                assert_eq!(canon(&single), canon(&distributed), "{run}");
                if topology == FederationTopology::AutoPartitioned && workers > 1 {
                    assert_eq!(stats.partitioned_fragments, 3, "{run}: {stats:?}");
                }
            }
        }
    }
    p.bgp_cache().invalidate();
}

// ---- property-based suite ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(32)))]
    #[test]
    fn generated_queries_are_equivalent(text in query_strategy()) {
        let p = platform();
        p.bgp_cache().invalidate();
        let single = p.query_static(&text);
        prop_assert!(single.is_ok(), "single-node failed for {}: {:?}", text, single.err());
        let single = single.unwrap();
        for workers in WORKER_COUNTS {
            p.bgp_cache().invalidate();
            let distributed = p.query_static_distributed(&text, workers);
            prop_assert!(
                distributed.is_ok(),
                "{} workers failed for {}: {:?}", workers, text, distributed.err()
            );
            prop_assert_eq!(
                canon(&single),
                canon(&distributed.unwrap()),
                "distributed ≠ single-node at {} workers for {}", workers, text
            );
        }
        p.bgp_cache().invalidate();
    }
}

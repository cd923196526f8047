//! Property tests: the IRI-template codec's inversion laws and
//! unfolding-vs-virtual-graph agreement on generated data.

use optique_mapping::{
    materialize_catalog, unfold_cq, IriTemplate, MappingAssertion, MappingCatalog, TermMap,
};
use optique_rdf::Iri;
use optique_relational::{table::table_of, ColumnType, Database, Value};
use optique_rewrite::{Atom, ConjunctiveQuery, QueryTerm};
use proptest::prelude::*;

/// A key of every column type the codec inverts; the text keys include
/// digit strings, `@n` look-alikes and the empty string.
fn key() -> impl Strategy<Value = (Value, ColumnType)> {
    prop_oneof![
        any::<i64>().prop_map(|n| (Value::Int(n), ColumnType::Int)),
        (-1e9f64..1e9).prop_map(|x| (Value::Float(x), ColumnType::Float)),
        (-99i64..99).prop_map(|n| (Value::Float(n as f64 / 4.0), ColumnType::Float)),
        any::<i64>().prop_map(|t| (Value::Timestamp(t), ColumnType::Timestamp)),
        "[0-9]{0,6}".prop_map(|s| (Value::text(s), ColumnType::Text)),
        "[a-z@.+]{0,4}[0-9]{0,3}".prop_map(|s| (Value::text(s), ColumnType::Text)),
    ]
}

/// `PROPTEST_CASES` dials the codec's coverage (CI runs it at 4096).
fn codec_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: codec_cases() })]

    /// invert ∘ render is the identity on keys of every invertible type, a
    /// minted IRI inverts as TEXT (so the unfolder keeps its constant), and
    /// an IRI with a foreign prefix or suffix inverts to nothing, not even
    /// as TEXT (so the unfolder prunes it).
    #[test]
    fn template_invert_render_roundtrip(
        prefix in "[a-z]{1,8}",
        suffix in "[a-z]{0,5}",
        typed in key(),
    ) {
        let (key, key_type) = typed;
        let template = IriTemplate::parse(&format!("http://x/{prefix}/{{id}}{suffix}")).unwrap();
        let codec = template.codec();
        let iri = codec.render(&key).unwrap();
        prop_assert_eq!(template.render(&key), Some(iri.clone()));
        prop_assert_eq!(codec.invert(&iri, key_type), Some(key.clone()));
        prop_assert_eq!(template.invert(&iri, key_type), Some(key.clone()));
        prop_assert!(codec.invert(&iri, ColumnType::Text).is_some(), "{iri}");
        let mut foreign = vec![format!("y{iri}"), iri.replacen("x", "y", 1)];
        if !suffix.is_empty() {
            foreign.push(format!("{iri}#"));
        }
        for foreign in foreign {
            prop_assert_eq!(codec.invert(&foreign, key_type), None);
            prop_assert_eq!(codec.invert(&foreign, ColumnType::Text), None);
        }
    }
}

proptest! {
    /// Unfolded SQL answers = CQ over the materialized virtual graph, for a
    /// generated two-table FK instance.
    #[test]
    fn unfolding_agrees_with_virtual_graph(
        turbines in proptest::collection::vec(0i64..30, 1..12),
        sensor_links in proptest::collection::vec((0i64..40, any::<proptest::sample::Index>()), 0..20),
    ) {
        let mut tids: Vec<i64> = turbines;
        tids.sort_unstable();
        tids.dedup();
        let mut db = Database::new();
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[("tid", ColumnType::Int)],
                tids.iter().map(|&t| vec![Value::Int(t)]).collect(),
            )
            .unwrap(),
        );
        let mut sids: Vec<(i64, i64)> = sensor_links
            .into_iter()
            .map(|(s, pick)| (s, tids[pick.index(tids.len())]))
            .collect();
        sids.sort_unstable();
        sids.dedup_by_key(|(s, _)| *s);
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("tid", ColumnType::Int)],
                sids.iter().map(|&(s, t)| vec![Value::Int(s), Value::Int(t)]).collect(),
            )
            .unwrap(),
        );

        let mut catalog = MappingCatalog::new();
        catalog
            .add(
                MappingAssertion::class(
                    "turbine",
                    Iri::new("http://x/Turbine"),
                    "SELECT tid FROM turbines",
                    TermMap::template("http://x/turbine/{tid}"),
                )
                .with_key(vec!["tid".into()]),
            )
            .unwrap();
        catalog
            .add(
                MappingAssertion::property(
                    "attached",
                    Iri::new("http://x/attachedTo"),
                    "SELECT sid, tid FROM sensors",
                    TermMap::template("http://x/sensor/{sid}"),
                    TermMap::template("http://x/turbine/{tid}"),
                )
                .with_key(vec!["sid".into()]),
            )
            .unwrap();

        let q = ConjunctiveQuery::new(
            vec!["s".into(), "t".into()],
            vec![
                Atom::property(
                    Iri::new("http://x/attachedTo"),
                    QueryTerm::var("s"),
                    QueryTerm::var("t"),
                ),
                Atom::class(Iri::new("http://x/Turbine"), QueryTerm::var("t")),
            ],
        );
        let (sql, _) = unfold_cq(&q, &catalog, &Default::default()).unwrap();
        let via_sql = match sql {
            Some(stmt) => optique_relational::exec::query(&stmt.to_string(), &db).unwrap().len(),
            None => 0,
        };
        let graph = materialize_catalog(&catalog, &db).unwrap();
        let via_graph = q.evaluate(&graph).len();
        prop_assert_eq!(via_sql, via_graph);
    }
}

//! Shared helpers for the repo-level integration suites.
//!
//! The federation- and planner-equivalence suites check the same invariant
//! from two angles — every execution strategy must return the same answer
//! *set* — so they share one canonical form, one fixed query corpus and one
//! property-based query generator instead of forking them per suite.
//!
//! The generative suites read the `PROPTEST_CASES` environment variable
//! ([`proptest_cases`]), so CI can dial coverage up (or a quick local run
//! down) without editing test code.

#![allow(dead_code)] // each test binary uses the subset it needs

use optique::SparqlResults;
use proptest::prelude::*;

/// Canonical form for answer-set comparison: the variable header plus
/// sorted debug-rendered rows.
pub fn canon(results: &SparqlResults) -> (Vec<String>, Vec<String>) {
    let vars = results.vars().to_vec();
    let mut rows: Vec<String> = results
        .rows()
        .iter()
        .map(|row| format!("{row:?}"))
        .collect();
    rows.sort();
    (vars, rows)
}

/// Number of generated cases for a property suite: the `PROPTEST_CASES`
/// environment variable when set (CI dials coverage up without code
/// edits), `default` otherwise.
pub fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Handwritten queries mirroring the conformance suite's end-to-end
/// section: taxonomy rewriting, joins, OPTIONAL, UNION, FILTER, aggregates,
/// modifiers and ASK, all over the Siemens deployment.
pub const FIXED_QUERIES: &[&str] = &[
    "SELECT ?s WHERE { ?s a sie:Sensor }",
    "SELECT DISTINCT ?s WHERE { ?s a sie:MonitoringDevice }",
    "SELECT ?t WHERE { ?t a sie:PowerGeneratingAppliance }",
    "SELECT ?t ?m WHERE { ?t a sie:Turbine ; sie:hasModel ?m }",
    "SELECT ?t ?m ?c WHERE { ?t a sie:Turbine ; sie:hasModel ?m . \
     OPTIONAL { ?t sie:locatedIn ?c } FILTER(REGEX(?m, \"^SGT\")) } ORDER BY ?m LIMIT 7",
    "SELECT DISTINCT ?s WHERE { \
     { ?s a sie:TemperatureSensor } UNION { ?s a sie:PressureSensor } }",
    "SELECT ?a (COUNT(DISTINCT ?s) AS ?n) WHERE { ?a sie:inAssembly ?s } \
     GROUP BY ?a ORDER BY DESC(?n) LIMIT 5",
    "SELECT ?a ?s WHERE { ?a sie:inAssembly ?s . ?s a sie:TemperatureSensor }",
    // Adjacent groups create residual joins the planner may reorder and
    // semi-join; textual order puts the wide scan first on purpose.
    "SELECT ?a ?s WHERE { { ?a sie:inAssembly ?s } { ?s a sie:TemperatureSensor } }",
    "SELECT ?t ?m WHERE { { ?t sie:hasModel ?m } { ?t a sie:GasTurbine } }",
    // A nested OPTIONAL inside a restricted sibling: pushdown below a left
    // join would flip matches into unbound survivors — the planner must
    // leave this subtree unrestricted (regression for exactly that bug).
    "SELECT ?s ?a ?m WHERE { { ?s a sie:TemperatureSensor } \
     { { ?a sie:inAssembly ?s } OPTIONAL { ?s sie:hasModel ?m } } }",
    "SELECT ?x WHERE { ?x a sie:Sensor } ORDER BY ?x LIMIT 10 OFFSET 5",
    "ASK { ?s a sie:RotorSpeedSensor }",
    "ASK { ?s a sie:VibrationSensor }",
    "SELECT ?x WHERE { ?x a sie:DiagnosticMessage }",
];

/// Classes the generator draws from (all mapped, with deliberately varied
/// cardinalities so the planner sees real ordering choices).
pub const CLASSES: [&str; 7] = [
    "Sensor",
    "TemperatureSensor",
    "PressureSensor",
    "Turbine",
    "GasTurbine",
    "MonitoringDevice",
    "Assembly",
];

/// The instance-data namespace the Siemens deployment mints IRIs in —
/// constant-anchored shapes below name individuals directly, which inverts
/// to a filter on the anchored table's key column.
pub const DATA_NS: &str = "http://siemens.example/data/";

/// Fixtures for the **streaming** differential oracle: a deployment whose
/// static side is big enough to partition, whose stream hash-partitions on
/// the sensor key, and whose TBox carries no integrity constraints — so
/// window-restriction pushdown is admissible and the oracle exercises both
/// the restricted and the unrestricted distributed paths.
pub mod streaming {
    use optique::OptiquePlatform;
    use optique_mapping::{IriTemplate, MappingAssertion, MappingCatalog, TermMap};
    use optique_ontology::{Axiom, BasicConcept, Ontology};
    use optique_rdf::{Datatype, Iri, Namespaces};
    use optique_relational::{table::table_of, ColumnType, Database, Value};
    use optique_starql::StreamToRdf;
    use proptest::prelude::*;

    /// Ontology namespace.
    pub const SIE: &str = "http://siemens.example/ontology#";
    /// Instance namespace.
    pub const DATA: &str = "http://siemens.example/data/";
    /// Sensors in the deployment (enough rows that the partition advisor
    /// may shard the static side too).
    pub const SENSORS: i64 = 64;
    /// Sensor ids the stream generator draws from (a subset, so windows
    /// overlap heavily across cases).
    pub const STREAM_SENSORS: i64 = 16;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("{SIE}{s}"))
    }

    /// One measurement row: `(ts, sensor_id, value, event)`.
    pub fn msmt(ts: i64, sensor: i64, value: f64, failure: bool) -> Vec<Value> {
        vec![
            Value::Timestamp(ts),
            Value::Int(sensor),
            Value::Float(value),
            if failure {
                Value::text("failure")
            } else {
                Value::Null
            },
        ]
    }

    /// A deterministic ramp stream: every sensor reports each second over
    /// `600s..=612s`; even sensors rise (and fail at 609 s), odd sensors
    /// fall.
    pub fn ramp_stream() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for i in 0..13i64 {
            let ts = 600_000 + i * 1_000;
            for sensor in 0..STREAM_SENSORS {
                let rising = sensor % 2 == 0;
                let value = if rising {
                    60.0 + i as f64
                } else {
                    90.0 - i as f64
                };
                rows.push(msmt(ts, sensor, value, rising && i == 9));
            }
        }
        rows
    }

    /// Builds the deployment platform over the given stream rows.
    pub fn deployment(stream_rows: Vec<Vec<Value>>) -> OptiquePlatform {
        deployment_with(stream_rows, vec![])
    }

    /// [`deployment`] with `extra_sensor_rows` (`sid, aid, kind`) appended
    /// to the base `sensors` table — a platform that was *deployed* over
    /// rows another one had to insert.
    pub fn deployment_with(
        stream_rows: Vec<Vec<Value>>,
        extra_sensor_rows: Vec<Vec<Value>>,
    ) -> OptiquePlatform {
        let mut db = Database::new();
        db.put_table(
            "assemblies",
            table_of(
                "assemblies",
                &[("aid", ColumnType::Int)],
                (0..8).map(|a| vec![Value::Int(a)]).collect(),
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[
                    ("sid", ColumnType::Int),
                    ("aid", ColumnType::Int),
                    ("kind", ColumnType::Text),
                ],
                (0..SENSORS)
                    .map(|s| {
                        vec![
                            Value::Int(s),
                            Value::Int(s % 8),
                            Value::text(if s % 2 == 0 {
                                "temperature"
                            } else {
                                "pressure"
                            }),
                        ]
                    })
                    .chain(extra_sensor_rows)
                    .collect(),
            )
            .unwrap(),
        );
        db.put_table(
            "S_Msmt",
            table_of(
                "S_Msmt",
                &[
                    ("ts", ColumnType::Timestamp),
                    ("sensor_id", ColumnType::Int),
                    ("value", ColumnType::Float),
                    ("event", ColumnType::Text),
                ],
                stream_rows,
            )
            .unwrap(),
        );

        // Subclass + domain/range only: no functional/disjointness
        // constraints, so window restriction stays admissible.
        let mut onto = Ontology::new();
        onto.add_axiom(Axiom::subclass(
            BasicConcept::atomic(iri("TemperatureSensor")),
            BasicConcept::atomic(iri("Sensor")),
        ));
        onto.add_axiom(Axiom::subclass(
            BasicConcept::atomic(iri("PressureSensor")),
            BasicConcept::atomic(iri("Sensor")),
        ));
        onto.add_axiom(Axiom::domain(
            iri("inAssembly"),
            BasicConcept::atomic(iri("Assembly")),
        ));
        onto.add_axiom(Axiom::range(
            iri("inAssembly"),
            BasicConcept::atomic(iri("Sensor")),
        ));

        let mut maps = MappingCatalog::new();
        maps.add(
            MappingAssertion::class(
                "assembly",
                iri("Assembly"),
                "SELECT aid FROM assemblies",
                TermMap::template(&format!("{DATA}assembly/{{aid}}")),
            )
            .with_key(vec!["aid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::class(
                "sensor",
                iri("Sensor"),
                "SELECT sid FROM sensors",
                TermMap::template(&format!("{DATA}sensor/{{sid}}")),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::class(
                "temp_sensor",
                iri("TemperatureSensor"),
                "SELECT sid FROM sensors WHERE kind = 'temperature'",
                TermMap::template(&format!("{DATA}sensor/{{sid}}")),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::class(
                "pressure_sensor",
                iri("PressureSensor"),
                "SELECT sid FROM sensors WHERE kind = 'pressure'",
                TermMap::template(&format!("{DATA}sensor/{{sid}}")),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::property(
                "in_assembly",
                iri("inAssembly"),
                "SELECT aid, sid FROM sensors",
                TermMap::template(&format!("{DATA}assembly/{{aid}}")),
                TermMap::template(&format!("{DATA}sensor/{{sid}}")),
            )
            .with_key(vec!["aid".into(), "sid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::property(
                "serial",
                iri("hasSerial"),
                "SELECT sid FROM sensors",
                TermMap::template(&format!("{DATA}sensor/{{sid}}")),
                TermMap::column("sid", Datatype::Integer),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();

        let stream_to_rdf = StreamToRdf {
            timestamp_col: "ts".into(),
            subject: IriTemplate::parse(&format!("{DATA}sensor/{{sensor_id}}")).unwrap(),
            value_property: iri("hasValue"),
            value_col: "value".into(),
            value_datatype: Datatype::Double,
            event_col: Some("event".into()),
            event_classes: vec![("failure".into(), iri("showsFailure"))],
        };
        OptiquePlatform::deploy(
            db,
            onto,
            Namespaces::with_w3c_defaults(),
            maps,
            stream_to_rdf,
        )
    }

    /// One generated oracle case: a STARQL program plus the stream it runs
    /// over.
    #[derive(Clone, Debug)]
    pub struct StreamingCase {
        /// The STARQL text.
        pub text: String,
        /// Measurement rows for `S_Msmt`.
        pub rows: Vec<Vec<Value>>,
    }

    /// Renders a STARQL program from shape parameters. Shapes cover: the
    /// Figure 1 monotonic macro, threshold and failure-event EXISTS
    /// conditions, FILTER-narrowed stream-static joins (tiny binding sets
    /// → shard pruning), UNION WHERE clauses, a negated HAVING (restriction
    /// provably unsafe → unrestricted scatter), and a HAVING-local subject
    /// variable (likewise unrestricted).
    pub fn program(shape: usize, range_s: i64, slide_s: i64, pulse: bool, knob: i64) -> String {
        let header = format!("PREFIX sie: <{SIE}>\nPREFIX : <{SIE}>\nCREATE STREAM S_out AS\n");
        let window = format!(
            "FROM STREAM S_Msmt [NOW-\"PT{range_s}S\"^^xsd:duration, NOW]->\"PT{slide_s}S\"^^xsd:duration\n"
        );
        let pulse = if pulse {
            "USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"PT1S\"\n"
        } else {
            ""
        };
        let threshold = 60 + (knob % 30);
        let serial_cap = 1 + (knob % 5);
        let (construct, where_clause, having) = match shape % 7 {
            0 => (
                "CONSTRUCT GRAPH NOW { ?c2 a :MonInc }",
                "WHERE { ?c1 sie:inAssembly ?c2 }".to_string(),
                "HAVING MONOTONIC.HAVING(?c2, sie:hasValue)\n\
                 CREATE AGGREGATE MONOTONIC:HAVING ($var, $attr) AS\n\
                 HAVING EXISTS ?k IN seq: GRAPH ?k { $var sie:showsFailure } AND\n\
                 FORALL ?i < ?j IN seq, ?x, ?y:\n\
                 IF ( ?i, ?j < ?k AND GRAPH ?i {$var $attr ?x} AND GRAPH ?j {$var $attr ?y}) THEN ?x<=?y"
                    .to_string(),
            ),
            1 => (
                "CONSTRUCT GRAPH NOW { ?c2 a :Hot }",
                "WHERE { ?c2 a sie:TemperatureSensor }".to_string(),
                format!(
                    "HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:hasValue ?v }} AND ?v >= {threshold}"
                ),
            ),
            2 => (
                "CONSTRUCT GRAPH NOW { ?c2 a :Failed }",
                "WHERE { ?c1 sie:inAssembly ?c2 }".to_string(),
                "HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure }".to_string(),
            ),
            3 => (
                "CONSTRUCT GRAPH NOW { ?c2 a :Watched }",
                format!(
                    "WHERE {{ ?c1 sie:inAssembly ?c2 . ?c2 sie:hasSerial ?n . FILTER(?n < {serial_cap}) }}"
                ),
                format!(
                    "HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:hasValue ?v }} AND ?v >= {threshold}"
                ),
            ),
            4 => (
                "CONSTRUCT GRAPH NOW { ?c2 a :Active }",
                "WHERE { { ?c2 a sie:TemperatureSensor } UNION { ?c1 sie:inAssembly ?c2 } }"
                    .to_string(),
                format!(
                    "HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:hasValue ?v }} AND ?v >= {threshold}"
                ),
            ),
            5 => (
                "CONSTRUCT GRAPH NOW { ?c2 a :Quiet }",
                "WHERE { ?c1 sie:inAssembly ?c2 }".to_string(),
                // Negation: restriction-unsafe — distributed ticks must
                // ship the full window and still agree.
                "HAVING NOT EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure }".to_string(),
            ),
            _ => (
                "CONSTRUCT GRAPH NOW { ?c2 a :NearActivity }",
                "WHERE { ?c1 sie:inAssembly ?c2 }".to_string(),
                // HAVING-local subject ?c3 ranges over the whole window:
                // restriction-unsafe, unrestricted scatter.
                format!(
                    "HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?c3 sie:hasValue ?v }} AND ?v >= {threshold}"
                ),
            ),
        };
        format!("{header}{construct}\n{window}{pulse}{where_clause}\nSEQUENCE BY StdSeq AS seq\n{having}")
    }

    /// Renders an **aggregate-HAVING** program over the stream-static
    /// join: shapes 0–5 are pure aggregate threshold trees
    /// (COUNT/SUM/AVG/MIN/MAX and an AND/NOT combination — all
    /// pane-combinable, so distributed ticks answer from shard-local pane
    /// partials); shape 6 mixes in an EXISTS graph condition, which the
    /// pane analysis must decline (ticks fall back to full-window
    /// shipping). `mode` is the relation-to-stream operator (`""` /
    /// `"RSTREAM"` / `"ISTREAM"` / `"DSTREAM"`).
    pub fn agg_program(
        shape: usize,
        mode: &str,
        range_s: i64,
        slide_s: i64,
        pulse: bool,
        knob: i64,
    ) -> String {
        let header =
            format!("PREFIX sie: <{SIE}>\nPREFIX : <{SIE}>\nCREATE STREAM S_out AS {mode}\n");
        let window = format!(
            "FROM STREAM S_Msmt [NOW-\"PT{range_s}S\"^^xsd:duration, NOW]->\"PT{slide_s}S\"^^xsd:duration\n"
        );
        let pulse = if pulse {
            "USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"PT1S\"\n"
        } else {
            ""
        };
        // Thresholds span the generated value band (whole numbers only:
        // whole-valued f64 sums are exact, so pane-merge order cannot
        // flip a threshold).
        let threshold = 55 + (knob % 40);
        let count_cap = 1 + (knob % 20);
        let having = match shape % 7 {
            0 => format!("HAVING COUNT(?c2, sie:hasValue) >= {count_cap}"),
            1 => format!("HAVING SUM(?c2, sie:hasValue) >= {}", threshold * 5),
            2 => format!("HAVING AVG(?c2, sie:hasValue) >= {threshold}"),
            3 => format!("HAVING MIN(?c2, sie:hasValue) >= {threshold}"),
            4 => format!("HAVING MAX(?c2, sie:hasValue) >= {threshold}"),
            5 => format!(
                "HAVING MAX(?c2, sie:hasValue) >= {threshold} AND \
                 NOT COUNT(?c2, sie:hasValue) > {count_cap}"
            ),
            _ => format!(
                "HAVING AVG(?c2, sie:hasValue) >= {threshold} AND \
                 EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:showsFailure }}"
            ),
        };
        format!(
            "{header}CONSTRUCT GRAPH NOW {{ ?c2 a :AggAlarm }}\n\
             {window}{pulse}WHERE {{ ?c1 sie:inAssembly ?c2 }}\n\
             SEQUENCE BY StdSeq AS seq\n{having}"
        )
    }

    /// Property-based generator for the **pane** oracle: aggregate program
    /// shape × output mode × window geometry × a generated whole-valued
    /// measurement stream (whole values keep float sums order-exact).
    pub fn pane_case_strategy() -> impl Strategy<Value = StreamingCase> {
        let row = (0..STREAM_SENSORS, 0i64..12_000, 0i64..100, 0u32..12).prop_map(
            |(sensor, dt, value, failure)| msmt(600_000 + dt, sensor, value as f64, failure == 0),
        );
        (
            (
                0usize..7,
                prop_oneof![Just(""), Just("ISTREAM"), Just("DSTREAM")],
                prop_oneof![Just(2i64), Just(5i64), Just(10i64)],
                prop_oneof![Just(1i64), Just(2i64)],
            ),
            (0u32..2, 0i64..100, proptest::collection::vec(row, 0..100)),
        )
            .prop_map(|((shape, mode, range_s, slide_s), (pulse, knob, rows))| {
                StreamingCase {
                    text: agg_program(shape, mode, range_s, slide_s, pulse == 0, knob),
                    rows,
                }
            })
    }

    /// Property-based generator of oracle cases: program shape × window
    /// geometry × pulse × a generated measurement stream.
    pub fn case_strategy() -> impl Strategy<Value = StreamingCase> {
        let row = (0..STREAM_SENSORS, 0i64..12_000, 0u32..1000, 0u32..12).prop_map(
            |(sensor, dt, centivalue, failure)| {
                msmt(600_000 + dt, sensor, centivalue as f64 / 10.0, failure == 0)
            },
        );
        (
            (
                0usize..7,
                prop_oneof![Just(2i64), Just(5i64), Just(10i64)],
                prop_oneof![Just(1i64), Just(2i64)],
            ),
            (0u32..2, 0i64..100, proptest::collection::vec(row, 0..100)),
        )
            .prop_map(
                |((shape, range_s, slide_s), (pulse, knob, rows))| StreamingCase {
                    text: program(shape, range_s, slide_s, pulse == 0, knob),
                    rows,
                },
            )
    }
}

/// The fan-out shape: one property, `<http://x/p>`, mapped through 100
/// tables of 64 rows each (`a`, `b`: INT; subject `…/obj/{a}`, object
/// `…/obj/{b}`), each auto-partitioned on its subject key. A probe
/// `?a <http://x/p> <http://x/obj/k>` answers one row per table for `k` in
/// `0..64`; a scan answers all 6 400.
pub fn fan_out() -> optique::OptiquePlatform {
    use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
    use optique_rdf::{Iri, Namespaces};
    use optique_relational::{table::table_of, ColumnType, Database, Value};

    let mut db = Database::new();
    let mut mappings = MappingCatalog::new();
    for i in 0..100i64 {
        let table = format!("t{i}");
        let rows = (0..64)
            .map(|k| vec![Value::Int(i * 64 + k), Value::Int(k)])
            .collect();
        let columns = [("a", ColumnType::Int), ("b", ColumnType::Int)];
        db.put_table(&table, table_of(&table, &columns, rows).unwrap());
        mappings
            .add(
                MappingAssertion::property(
                    format!("p-src{i}"),
                    Iri::new("http://x/p"),
                    format!("SELECT a, b FROM {table}"),
                    TermMap::template("http://x/obj/{a}"),
                    TermMap::template("http://x/obj/{b}"),
                )
                .with_key(vec!["a".into(), "b".into()]),
            )
            .unwrap();
    }
    optique::OptiquePlatform::deploy(
        db,
        Default::default(),
        Namespaces::with_w3c_defaults(),
        mappings,
        optique_siemens::SiemensDeployment::small().stream_to_rdf,
    )
}

/// A generator of query texts over the Siemens vocabulary: single BGPs,
/// two-branch UNIONs, OPTIONAL extensions, FILTERed joins, adjacent
/// subgroups (residual joins the planner reorders / semi-joins),
/// multi-atom and multi-table join chains (joins *inside* one unfolded
/// fragment — the co-partitioning unit), skewed joins through the turbine
/// taxonomy, and partition-key-anchored constants whose tiny binding sets
/// drive shard routing and pruning. Type-mismatch combinations (e.g.
/// `hasModel` on a sensor class) are deliberately kept — they exercise the
/// empty-result paths, where equivalence must also hold.
pub fn query_strategy() -> impl Strategy<Value = String> {
    (0usize..7, 0usize..7, 0usize..12, 0usize..3, 0usize..20).prop_map(
        |(c1, c2, shape, filter, anchor)| {
            let a = CLASSES[c1];
            let b = CLASSES[c2];
            let filter = match filter {
                0 => "",
                1 => "FILTER(REGEX(?m, \"^SGT\")) ",
                _ => "FILTER(?m > \"S\") ",
            };
            match shape {
                0 => format!("SELECT ?x WHERE {{ ?x a sie:{a} }}"),
                1 => format!(
                    "SELECT DISTINCT ?x WHERE {{ {{ ?x a sie:{a} }} UNION {{ ?x a sie:{b} }} }}"
                ),
                2 => format!(
                    "SELECT ?x ?m WHERE {{ ?x a sie:{a} . \
                     OPTIONAL {{ ?x sie:hasModel ?m }} {filter}}}"
                ),
                3 => format!(
                    "SELECT ?x ?s WHERE {{ ?x a sie:{a} . OPTIONAL {{ ?x sie:inAssembly ?s }} }}"
                ),
                4 => format!(
                    "SELECT ?x ?m WHERE {{ \
                     {{ ?x a sie:{a} . ?x sie:hasModel ?m }} UNION {{ ?x a sie:{b} }} {filter}}}"
                ),
                // Adjacent groups: a residual join between separately-unfolded
                // BGPs — the planner's reorder/semi-join unit.
                5 => {
                    format!(
                        "SELECT ?x ?s WHERE {{ {{ ?x sie:inAssembly ?s }} {{ ?s a sie:{a} }} }}"
                    )
                }
                6 => format!(
                    "SELECT ?x ?s ?m WHERE {{ {{ ?x sie:inAssembly ?s }} {{ ?s a sie:{a} }} \
                     OPTIONAL {{ ?x sie:hasModel ?m }} {filter}}}"
                ),
                // OPTIONAL nested inside a restricted sibling subgroup: the
                // planner must not push the class bindings below the left join.
                7 => format!(
                    "SELECT ?x ?s ?m WHERE {{ {{ ?s a sie:{a} }} \
                     {{ {{ ?x sie:inAssembly ?s }} OPTIONAL {{ ?s sie:hasModel ?m }} }} }}"
                ),
                // Multi-atom BGP: the join lands *inside* each unfolded
                // fragment (sensors ⋈ sensors on the sensor key) — the
                // co-partitioning case shard routing must keep complete.
                8 => format!("SELECT ?x ?s WHERE {{ ?x sie:inAssembly ?s . ?s a sie:{a} }}"),
                // Multi-table chain through the part-whole hierarchy:
                // assemblies ⋈ sensors in one fragment, replicated ⋈
                // partitioned.
                9 => format!(
                    "SELECT ?x ?t ?s WHERE {{ ?x sie:partOf ?t . ?x sie:inAssembly ?s . \
                     ?s a sie:{a} }}"
                ),
                // Skewed join: turbine models/kinds concentrate on a few
                // values, so the restriction lists repeat heavily.
                10 => format!(
                    "SELECT ?x ?t ?m WHERE {{ {{ ?x sie:partOf ?t }} {{ ?t a sie:{b} }} \
                     {{ ?t sie:hasModel ?m }} {filter}}}"
                ),
                // Partition-key anchor: a constant assembly pins the sensor
                // set to at most a handful of keys — the selective binding
                // list that makes shard routing actually prune.
                _ => format!(
                    "SELECT ?s WHERE {{ {{ <{DATA_NS}assembly/{anchor}> sie:inAssembly ?s }} \
                     {{ ?s a sie:{a} }} }}"
                ),
            }
        },
    )
}

/// Hostile-text mutation for the never-panic suites: a valid query text
/// takes one to three random edits and must still come back from every
/// front end as `Ok` or a positioned `Err`.
pub mod hostile {
    use proptest::prelude::*;
    use proptest::sample::Index;

    /// What gets spliced in: non-ASCII, unbalanced quotes and brackets,
    /// over-long numbers and durations, `\u` escapes whole and cut short —
    /// and a few well-formed tokens, so that some mutants get past the
    /// parser with a shape no test wrote by hand.
    const JUNK: &[&str] = &[
        " ?s ",
        " . ",
        " a ",
        " sie:hasValue ",
        " 0 ",
        "é",
        "→𝄞",
        "\u{202e}",
        "\"",
        "'",
        "\"\"\"",
        "{",
        "}",
        "(",
        ")",
        "[",
        "<",
        ">",
        "^^",
        "99999999999999999999999999999999999999",
        "-0.00000000000000000000000000000000001e999999",
        "\"PT99999999999999999999999S\"^^xsd:duration",
        "\"P1Y2M3DT4H5M6.789S\"^^xsd:duration",
        "\"PT-1S\"^^xsd:duration",
        "\\u",
        "\\u12",
        "\\uD800",
        "\\U0010FFFF",
        "\"\\u0041\\",
        "]",
        "->",
        " $p ",
    ];

    /// One edit: `(kind, where, how much, which junk)`.
    pub type Edit = (usize, Index, usize, Index);

    /// One to three edits.
    pub fn edits() -> impl Strategy<Value = Vec<Edit>> {
        proptest::collection::vec((0usize..6, any::<Index>(), 0usize..6, any::<Index>()), 1..4)
    }

    /// Applies `edits` to `text` in order, always on character boundaries:
    /// insert junk (three times in six), delete a short run (two), or
    /// truncate (one) — weighted so that some mutants still parse and reach
    /// the stages behind the parser.
    pub fn mutate(text: &str, edits: &[Edit]) -> String {
        let mut chars: Vec<char> = text.chars().collect();
        for (kind, at, len, junk) in edits {
            let at = at.index(chars.len() + 1);
            match kind {
                0..=2 => {
                    chars.splice(at..at, JUNK[junk.index(JUNK.len())].chars());
                }
                3 | 4 => {
                    chars.drain(at..(at + len).min(chars.len()));
                }
                _ => chars.truncate(at),
            }
        }
        chars.into_iter().collect()
    }

    /// Whether `position` lies inside `text`: on one of its lines, at most
    /// one column past that line's last character (where an unterminated
    /// construct ends).
    pub fn inside(text: &str, position: optique_sparql::Position) -> bool {
        let line = (position.line as usize)
            .checked_sub(1)
            .and_then(|i| text.split('\n').nth(i));
        line.is_some_and(|l| position.column as usize <= l.chars().count() + 1)
    }
}

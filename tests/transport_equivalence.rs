//! Transport-differential oracle: handing workers the typed fragment must
//! answer exactly what shipping it through the text codec answers, and both
//! must equal single-node execution — at 1, 2, 4 and 8 workers.
//!
//! The product path is the typed hand-off (`Arc<PlanFragment>` in, `Table`
//! back). The wire path here is a test-support [`FragmentExecutor`],
//! [`ViaWire`], that maps every fragment through
//! `PlanFragment::decode(&f.encode())` before delegating to the *same*
//! [`Federation`] — so the only thing that differs between the two runs is
//! whether the statement a worker executes came straight from the unfolder
//! or was printed and re-parsed. `ViaWire` also checks, for every fragment
//! it maps, that the decoded copy prepares the same executable statement.
//!
//! Also here: hostile fragment wires error without panicking, and the
//! regression for the coordinator panic on non-ASCII SQL previews.

mod common;

use std::sync::{Arc, OnceLock};

use common::{canon, proptest_cases, query_strategy, streaming, FIXED_QUERIES};
use optique::{Federation, OptiquePlatform, SparqlResults};
use optique_relational::{
    parse_select, table::table_of, ColumnType, Database, PaneProbe, PlanFragment, SemiJoin, Table,
    Value, WindowSlice,
};
use optique_siemens::SiemensDeployment;
use optique_sparql::{
    parse_sparql, FragmentExecutor, FragmentRound, PipelineStats, StaticPipeline,
};
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The text-wire transport: every fragment is encoded, decoded and only
/// then handed to the wrapped federation.
struct ViaWire<'a>(&'a Federation);

impl FragmentExecutor for ViaWire<'_> {
    fn execute(&self, fragments: Vec<PlanFragment>) -> Result<FragmentRound, String> {
        let decoded = fragments
            .iter()
            .map(|f| {
                let back = PlanFragment::decode(&f.encode()).map_err(|e| e.to_string())?;
                // Compare on a clone: the copy handed on must reach the
                // federation as unparsed as a real decoded wire would.
                if back != *f || back.clone().statement() != f.statement() {
                    return Err(format!("wire round trip changed {f:?} into {back:?}"));
                }
                Ok(back)
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.0.execute(decoded)
    }

    fn workers(&self) -> usize {
        self.0.workers()
    }

    fn max_restriction_values(&self, base: usize) -> usize {
        self.0.max_restriction_values(base)
    }
}

/// A pool over `p`'s current snapshot, built the way the platform builds
/// one (registered streams are passed explicitly).
fn pool(p: &OptiquePlatform, workers: usize, streams: &[(String, String)]) -> Federation {
    let snap = p.snapshot();
    Federation::for_deployment(
        Arc::clone(&snap.db),
        workers,
        snap.topology,
        &snap.stats,
        &p.mappings,
        streams,
    )
}

/// Answers `text` over `p`'s current snapshot single-node, typed and via
/// the wire, asserting all three agree at every worker count. Returns the
/// typed runs' stats so callers can assert what the case exercised.
fn assert_transports_agree(p: &OptiquePlatform, text: &str) -> Vec<PipelineStats> {
    let snap = p.snapshot();
    let query = parse_sparql(text, &p.namespaces).unwrap_or_else(|e| panic!("{text}: {e}"));
    let pipeline = || {
        StaticPipeline::new(&p.ontology, &p.mappings, &snap.view)
            .with_planner(snap.planner)
            .with_table_stats(&snap.stats)
    };
    let run = |pipeline: StaticPipeline<'_>, how: &str| -> (SparqlResults, PipelineStats) {
        pipeline
            .answer(&query)
            .unwrap_or_else(|e| panic!("{how} failed for {text}: {e}"))
    };
    let (single, _) = run(pipeline(), "single-node");
    WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let federation = pool(p, workers, &[]);
            let (typed, stats) = run(pipeline().with_executor(&federation), "typed");
            let (wire, _) = run(pipeline().with_executor(&ViaWire(&federation)), "wire");
            assert_eq!(
                canon(&typed),
                canon(&single),
                "typed ≠ single-node at {workers} workers for {text}"
            );
            assert_eq!(
                canon(&wire),
                canon(&typed),
                "wire ≠ typed at {workers} workers for {text}"
            );
            assert_eq!(stats.plan_cache_misses, 0, "typed fragments never parse");
            stats
        })
        .collect()
}

fn siemens() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| OptiquePlatform::from_siemens(SiemensDeployment::small()))
}

// ---- static pipeline ----------------------------------------------------

/// The shared fixed corpus; the adjacent-group queries in it push
/// semi-join restrictions into scattered join fragments.
#[test]
fn fixed_suite_agrees_across_transports() {
    let mut semi_joins = 0;
    let mut fragments = 0;
    for text in FIXED_QUERIES {
        for stats in assert_transports_agree(siemens(), text) {
            semi_joins += stats.semi_joins_pushed;
            fragments += stats.fragments;
        }
    }
    assert!(fragments > 0 && semi_joins > 0, "the suite must restrict");
}

/// A round pinned at a novelty epoch with overlay depth > 0: the `nov`
/// section survives the wire and both transports see the appended rows.
#[test]
fn pinned_novelty_epoch_agrees_across_transports() {
    let p = streaming::deployment(streaming::ramp_stream());
    let before = p.query_static(&sensors_query()).unwrap().rows().len();
    let appended = (1_000..1_012)
        .map(|s| vec![Value::Int(s), Value::Int(s % 8), Value::text("temperature")])
        .collect();
    p.insert_static("sensors", appended).unwrap();
    assert!(p.novelty_depth() > 0, "the rows sit in the overlay");
    assert_ne!(p.snapshot().view.novelty_epoch(), 0);
    for text in [
        sensors_query(),
        format!(
            "SELECT ?a ?s WHERE {{ {{ ?a <{sie}inAssembly> ?s }} \
             {{ ?s a <{sie}TemperatureSensor> }} }}",
            sie = streaming::SIE
        ),
    ] {
        assert_transports_agree(&p, &text);
    }
    let after = p.query_static_distributed(&sensors_query(), 4).unwrap();
    assert_eq!(after.rows().len(), before + 12);
}

fn sensors_query() -> String {
    format!("SELECT ?s WHERE {{ ?s a <{}Sensor> }}", streaming::SIE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

    /// The shared generator: typed ≡ wire ≡ single-node, and (inside
    /// `ViaWire`) `decode(encode(f)).statement() == f.statement()` for
    /// every typed fragment the unfolder produced.
    #[test]
    fn generated_queries_agree_across_transports(text in query_strategy()) {
        assert_transports_agree(siemens(), &text);
    }
}

// ---- fragment level: joins, window slices, pane probes ---------------------

fn sorted(table: &Table) -> Vec<String> {
    let mut rows: Vec<String> = table.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Runs hand-built typed fragments through both transports of a pool that
/// partitions the stream, against `PlanFragment::execute` on the full
/// catalog.
#[test]
fn fragment_shapes_agree_across_transports() {
    let p = streaming::deployment(streaming::ramp_stream());
    let db = p.snapshot().db.clone();
    let typed = |sql: &str| PlanFragment::from_statement(0, parse_select(sql).unwrap(), 1.0);
    let sensor_iri = |s: i64| Value::text(format!("{}sensor/{s}", streaming::DATA));
    let fragments = [
        // A join restricted through a key-derived column: scatters, prunes
        // shards, slices the IN-list per shard.
        typed(&format!(
            "SELECT iri_template('{data}sensor/{{}}', u0.sid) AS s, u1.aid AS a \
             FROM (SELECT sid, aid FROM sensors) AS u0 \
             JOIN (SELECT aid FROM assemblies) AS u1 ON u0.aid = u1.aid",
            data = streaming::DATA
        ))
        .with_semi_joins(vec![SemiJoin::new(
            "s",
            (0..40).step_by(3).map(sensor_iri).collect(),
        )]),
        // A window-sliced stream scan restricted on the stream key.
        typed("SELECT ts, sensor_id, value, event FROM S_Msmt")
            .with_window(WindowSlice {
                column: "ts".into(),
                open_ms: 603_000,
                close_ms: 608_000,
            })
            .with_semi_joins(vec![SemiJoin::new(
                "sensor_id",
                vec![Value::Int(2), Value::Int(5), Value::Int(11)],
            )]),
        // A pane probe: answered from the workers' pane stores.
        typed("SELECT sensor_id, value FROM S_Msmt").with_pane(PaneProbe {
            stream: "S_Msmt".into(),
            ts_col: "ts".into(),
            key_col: "sensor_id".into(),
            val_col: "value".into(),
            width_ms: 1_000,
            start_ms: 600_000,
            open_ms: 602_000,
            close_ms: 607_000,
            needs_extrema: true,
        }),
    ];
    let streams = [("S_Msmt".to_string(), "sensor_id".to_string())];
    for workers in WORKER_COUNTS {
        let federation = pool(&p, workers, &streams);
        for fragment in &fragments {
            let want = sorted(&fragment.execute(&db).unwrap());
            assert!(!want.is_empty(), "vacuous case: {fragment:?}");
            for round in 0..2 {
                let typed = federation.execute(vec![fragment.clone()]).unwrap();
                let wire = ViaWire(&federation)
                    .execute(vec![fragment.clone()])
                    .unwrap();
                assert_eq!(
                    sorted(typed.tables[0].as_ref().unwrap()),
                    want,
                    "typed, {workers} workers, round {round}: {fragment:?}"
                );
                assert_eq!(
                    sorted(wire.tables[0].as_ref().unwrap()),
                    want,
                    "wire, {workers} workers, round {round}: {fragment:?}"
                );
                assert_eq!(typed.plan_cache_misses, 0, "typed fragments never parse");
                if fragment.pane.is_none() {
                    assert_eq!(wire.plan_cache_misses, 1, "a decoded fragment parses once");
                }
            }
        }
    }
}

// ---- hostile wires ---------------------------------------------------------

/// A fragment exercising every wire section.
fn full_wire() -> String {
    PlanFragment::new(7, "SELECT a AS v,\n b FROM t WHERE c = 'x\ty'", 2.5)
        .with_semi_joins(vec![
            SemiJoin::new("v", vec![Value::text("é\\"), Value::text("b")]),
            SemiJoin::new("b", vec![Value::Int(-3), Value::Null, Value::Float(0.5)]),
        ])
        .with_window(WindowSlice {
            column: "ts".into(),
            open_ms: -1,
            close_ms: 9,
        })
        .with_pane(PaneProbe {
            stream: "s".into(),
            ts_col: "ts".into(),
            key_col: "k".into(),
            val_col: "v".into(),
            width_ms: 10,
            start_ms: 0,
            open_ms: 0,
            close_ms: 40,
            needs_extrema: false,
        })
        .with_partition(optique_relational::PartitionSpec {
            tables: vec![("t".into(), "a".into())],
            column_type: ColumnType::Int,
        })
        .at_epoch(3)
        .encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(256)))]

    /// The fragment-side twin of `hostile_batch_wires_error_without_panicking`:
    /// arbitrary text is an `Err` or a fragment, never a panic — and
    /// whatever decodes can be asked for its statement and its preview.
    #[test]
    fn arbitrary_fragment_wires_never_panic(wire in "\\PC{0,80}", tabs in 0usize..6) {
        let wire = wire.replacen(' ', "\t", tabs);
        for candidate in [wire.clone(), format!("frag\t{wire}"), format!("frag\t1\t1\t{wire}")] {
            if let Ok(fragment) = PlanFragment::decode(&candidate) {
                let _ = fragment.statement();
                let _ = fragment.describe();
            }
        }
    }

    /// A valid wire with one edit (a cut, a dropped or doubled byte run, a
    /// swapped separator) still decodes to `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_valid_wires_never_panic(
        at in 0usize..400,
        len in 0usize..12,
        edit in 0usize..4,
        junk in "[\\t\\n\\\\a-z0-9é-]{0,6}",
    ) {
        let wire = full_wire();
        let chars: Vec<char> = wire.chars().collect();
        let at = at % chars.len();
        let end = (at + len).min(chars.len());
        let head: String = chars[..at].iter().collect();
        let cut: String = chars[at..end].iter().collect();
        let tail: String = chars[end..].iter().collect();
        let mutated = match edit {
            0 => head,
            1 => format!("{head}{tail}"),
            2 => format!("{head}{cut}{cut}{tail}"),
            _ => format!("{head}{junk}{tail}"),
        };
        if let Ok(fragment) = PlanFragment::decode(&mutated) {
            let _ = fragment.statement();
            let _ = fragment.describe();
        }
    }
}

#[test]
fn the_full_wire_is_valid() {
    let fragment = PlanFragment::decode(&full_wire()).unwrap();
    assert_eq!(fragment.encode(), full_wire());
    assert!(fragment.statement().is_ok());
}

// ---- regression: non-ASCII SQL previews ------------------------------------

/// A deployment whose instance IRIs are not ASCII. The unfolded SQL opens
/// with `SELECT DISTINCT iri_template('http://d.example/…`, which puts the
/// run of `é` across byte 48 — where the fragment preview used to
/// `String::truncate`, panicking the coordinator thread inside
/// `run_static_round`. Two namespaces one byte apart, so whichever parity
/// the SQL head has, one of them has a character straddling the cut.
fn geraete() -> OptiquePlatform {
    use optique_mapping::{IriTemplate, MappingAssertion, MappingCatalog, TermMap};
    use optique_ontology::Ontology;
    use optique_rdf::{Datatype, Iri, Namespaces};
    use optique_starql::StreamToRdf;

    let mut db = Database::new();
    db.put_table(
        "geraete",
        table_of(
            "geraete",
            &[("gid", ColumnType::Int), ("gruppe", ColumnType::Int)],
            (0..96)
                .map(|g| vec![Value::Int(g), Value::Int(g % 6)])
                .collect(),
        )
        .unwrap(),
    );
    let voc = |s: &str| Iri::new(format!("http://d.example/vokabular#{s}"));
    let mut maps = MappingCatalog::new();
    for (name, pad) in [("Geraet", ""), ("Messgeraet", "a")] {
        let template = format!("http://d.example/{pad}ééééééééééé/{{gid}}");
        maps.add(
            MappingAssertion::class(
                name,
                voc(name),
                "SELECT gid FROM geraete",
                TermMap::template(&template),
            )
            .with_key(vec!["gid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::property(
                format!("gruppe_{name}"),
                voc(&format!("gruppe{name}")),
                "SELECT gid, gruppe FROM geraete",
                TermMap::template(&template),
                TermMap::column("gruppe", Datatype::Integer),
            )
            .with_key(vec!["gid".into()]),
        )
        .unwrap();
    }
    let stream_to_rdf = StreamToRdf {
        timestamp_col: "ts".into(),
        subject: IriTemplate::parse("http://d.example/strom/{gid}").unwrap(),
        value_property: voc("wert"),
        value_col: "wert".into(),
        value_datatype: Datatype::Double,
        event_col: None,
        event_classes: vec![],
    };
    OptiquePlatform::deploy(
        db,
        Ontology::new(),
        Namespaces::with_w3c_defaults(),
        maps,
        stream_to_rdf,
    )
}

#[test]
fn non_ascii_iris_do_not_panic_the_coordinator() {
    let p = geraete();
    let voc = "http://d.example/vokabular#";
    for (name, pad) in [("Geraet", ""), ("Messgeraet", "a")] {
        let scan = format!("SELECT ?g WHERE {{ ?g a <{voc}{name}> }}");
        let anchored = format!(
            "SELECT ?n WHERE {{ <http://d.example/{pad}ééééééééééé/7> <{voc}gruppe{name}> ?n }}"
        );
        for text in [scan, anchored] {
            let single = p.query_static(&text).unwrap();
            assert!(!single.rows().is_empty(), "vacuous: {text}");
            for workers in [2, 4] {
                let distributed = p.query_static_distributed(&text, workers).unwrap();
                assert_eq!(
                    canon(&distributed),
                    canon(&single),
                    "{workers} workers: {text}"
                );
            }
        }
    }
    // The preview is cut (on a character boundary) and says so.
    p.bgp_cache().invalidate();
    let explained = p
        .explain_analyze(
            &format!("SELECT ?g WHERE {{ ?g a <{voc}Geraet> }}"),
            Some(2),
        )
        .unwrap();
    assert!(
        explained.contains("op=SELECT DISTINCT iri_template('http://d.example/…"),
        "{explained}"
    );
}

//! Distributed query tracing, end to end: cross-worker span-tree
//! stitching at every worker count, the EXPLAIN ANALYZE rendering, the
//! dashboard's latency percentiles and slow-query log, streaming tick
//! spans, the metrics exporters — and the **tracing differential guard**:
//! a traced run must return exactly the untraced answer set, over the
//! shared fixed suite and the shared property-based query generator.

mod common;

use std::sync::OnceLock;

use common::{canon, proptest_cases, query_strategy, FIXED_QUERIES};
use optique::telemetry::{render_tree, Span, Tracer};
use optique::{Federation, FederationTopology, OptiquePlatform};
use optique_siemens::SiemensDeployment;
use optique_sparql::{parse_sparql, StaticPipeline};
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A query whose enrichment fans out into several disjuncts, so every
/// worker count genuinely ships multiple fragments.
const FAN_OUT: &str = "SELECT DISTINCT ?s WHERE { ?s a sie:MonitoringDevice }";

fn platform() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| OptiquePlatform::from_siemens(SiemensDeployment::small()))
}

/// Runs `text` through a traced federated pipeline and returns the
/// stitched span tree.
fn traced_spans(text: &str, workers: usize) -> Vec<Span> {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    let stats = p.table_stats();
    let federation = Federation::for_deployment(
        p.db(),
        workers,
        FederationTopology::default(),
        &stats,
        &p.mappings,
        &[],
    );
    let tracer = Tracer::new();
    let query = parse_sparql(text, &p.namespaces).unwrap();
    let db = p.db();
    let pipeline = StaticPipeline::new(&p.ontology, &p.mappings, &db)
        .with_executor(&federation)
        .with_tracer(&tracer, None);
    pipeline.answer(&query).unwrap();
    tracer.spans()
}

// ---- the shape outcome ----------------------------------------------------

/// The `bgp` span line of an EXPLAIN ANALYZE report.
fn bgp_line(report: &str) -> &str {
    let mut bgps = report.lines().filter(|line| line.contains("bgp  ("));
    let line = bgps
        .next()
        .unwrap_or_else(|| panic!("no bgp span:\n{report}"));
    assert!(bgps.next().is_none(), "one BGP:\n{report}");
    line
}

/// The `plan` attributes of a report's worker `fragment` spans, sorted.
fn plan_attrs(report: &str) -> Vec<&str> {
    let mut plans: Vec<&str> = (report.lines())
        .filter(|line| line.contains("fragment  ("))
        .map(|line| {
            if line.contains("plan=built") {
                "built"
            } else {
                "shared"
            }
        })
        .collect();
    plans.sort_unstable();
    plans
}

/// A shape's first query misses (`shape=miss shape_miss=new`): it
/// rewrites, unfolds, and the first execution of each statement shipped
/// reports its plan built for the shape (a scattered statement's other
/// shards share it). The next query of the shape, another constant, hits
/// (`shape=hit`): no rewrite or unfold span, and every execution reuses
/// the pool's plan (`plan=shared`). EXPLAIN ANALYZE shows both.
#[test]
fn a_shape_misses_once_then_hits() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    let query = |assembly: usize| {
        format!(
            "SELECT ?s WHERE {{ <{}assembly/{assembly}> sie:inAssembly ?s }}",
            common::DATA_NS
        )
    };
    let miss = p.explain_analyze(&query(1), Some(2)).unwrap();
    let line = bgp_line(&miss);
    assert!(
        line.contains("shape=miss") && line.contains("shape_miss=new"),
        "{miss}"
    );
    assert!(
        miss.contains("rewrite  (") && miss.contains("unfold  ("),
        "{miss}"
    );
    let plans = plan_attrs(&miss);
    assert!(
        plans.contains(&"built") && plans.contains(&"shared"),
        "{miss}"
    );

    let hit = p.explain_analyze(&query(2), Some(2)).unwrap();
    let line = bgp_line(&hit);
    assert!(
        line.contains("shape=hit") && !line.contains("shape_miss"),
        "{hit}"
    );
    assert!(
        !hit.contains("rewrite  (") && !hit.contains("unfold  ("),
        "{hit}"
    );
    assert!(
        plan_attrs(&hit).iter().all(|plan| *plan == "shared"),
        "{hit}"
    );
    assert_eq!(plan_attrs(&hit).len(), plans.len(), "{hit}");
}

/// Filling the shape cache past its capacity keeps `shapes.entries` at the
/// capacity and `shapes.bytes` bounded, and evicts deterministically — the
/// least recently used shape: the first shape, evicted by the
/// `capacity + 1`-th, misses with reason `evicted`, while the shape used
/// last still hits. `shapes.bytes` also counts the plans a pool keeps,
/// until the cache evicts their shape.
#[test]
fn shape_gauges_stay_bounded_and_eviction_is_deterministic() {
    use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
    use optique_rdf::{Iri, Namespaces};
    use optique_relational::{table::table_of, ColumnType, Database, Value};
    use optique_sparql::SHAPE_CAPACITY;
    // One table and a property per shape: `?s <p{i}> ?o` is shape `i`.
    let mut db = Database::new();
    let rows = (0..4)
        .map(|k| vec![Value::Int(k), Value::Int(k * 2)])
        .collect();
    let columns = [("a", ColumnType::Int), ("b", ColumnType::Int)];
    db.put_table("t", table_of("t", &columns, rows).unwrap());
    let mut mappings = MappingCatalog::new();
    for i in 0..2 * SHAPE_CAPACITY {
        let assertion = MappingAssertion::property(
            format!("p{i}"),
            Iri::new(format!("http://x/p{i}")),
            "SELECT a, b FROM t",
            TermMap::template("http://x/s/{a}"),
            TermMap::template("http://x/o/{b}"),
        );
        mappings.add(assertion).unwrap();
    }
    let stream = SiemensDeployment::small().stream_to_rdf;
    let p = OptiquePlatform::deploy(
        db,
        Default::default(),
        Namespaces::with_w3c_defaults(),
        mappings,
        stream,
    );
    let query = |i: usize| format!("SELECT ?s ?o WHERE {{ ?s <http://x/p{i}> ?o }}");
    let outcome = |i: usize| {
        p.bgp_cache().invalidate();
        let report = p.explain_analyze(&query(i), None).unwrap();
        let line = bgp_line(&report).to_string();
        let attr = |key: &str| {
            let start = line.find(&format!("{key}="))? + key.len() + 1;
            let value = &line[start..];
            Some(value[..value.find([',', ')']).unwrap_or(value.len())].to_string())
        };
        (attr("shape").unwrap(), attr("shape_miss"))
    };
    let gauges = || {
        let metrics = p.metrics_snapshot();
        (
            metrics.gauge("shapes.entries").unwrap(),
            metrics.gauge("shapes.bytes").unwrap(),
        )
    };
    for i in 0..SHAPE_CAPACITY {
        assert_eq!(outcome(i), ("miss".into(), Some("new".into())), "shape {i}");
    }
    let (entries, full) = gauges();
    assert_eq!(entries, SHAPE_CAPACITY as i64);
    assert!(full > 0);
    for i in SHAPE_CAPACITY..2 * SHAPE_CAPACITY {
        assert_eq!(outcome(i).0, "miss", "shape {i}");
        let (entries, bytes) = gauges();
        assert_eq!(entries, SHAPE_CAPACITY as i64, "after shape {i}");
        // Every shape is the same query but for one property's name.
        assert!(bytes <= full + full / 8, "{bytes} against {full} when full");
    }
    let last = 2 * SHAPE_CAPACITY - 1;
    assert_eq!(outcome(last), ("hit".into(), None));
    assert_eq!(outcome(0), ("miss".into(), Some("evicted".into())));
    assert_eq!(outcome(last), ("hit".into(), None));

    // The plans a pool keeps for a shape count too: a shape's first
    // distributed execution adds them, a hit adds nothing.
    let distributed = || {
        p.bgp_cache().invalidate();
        p.query_static_distributed(&query(last), 2).unwrap();
        gauges()
    };
    let (entries, before) = gauges();
    let (_, pooled) = distributed();
    assert!(pooled > before, "{pooled} against {before}");
    assert_eq!(distributed(), (entries, pooled));

    // One eviction governs both: once the cache evicts that shape, the
    // pool's plans for it no longer count. The first `SHAPE_CAPACITY`
    // shapes again are exactly what the cache held when it first filled.
    for i in 0..SHAPE_CAPACITY {
        outcome(i);
    }
    assert_eq!(gauges(), (SHAPE_CAPACITY as i64, full));
    assert_eq!(outcome(last), ("miss".into(), Some("evicted".into())));

    // Every BGP execution above, counted by outcome: 128 distinct shapes,
    // the distributed execution that planned on the pool (`layout`), and
    // each return of an evicted shape.
    let metrics = p.metrics_snapshot();
    let count = |name: &str| metrics.gauge(&format!("shapes.{name}")).unwrap();
    let outcomes = ["hits", "misses.new", "misses.layout", "misses.evicted"].map(count);
    let capacity = SHAPE_CAPACITY as i64;
    assert_eq!(outcomes, [4, 2 * capacity, 1, capacity + 1]);
    assert_eq!(count("misses.schema") + count("misses.restricted"), 0);
}

// ---- cross-worker span-tree stitching ----------------------------------

/// At 1, 2, 4 and 8 workers the worker-side records graft into the
/// coordinator's tree: every `fragment` span hangs under a `worker` span,
/// every `worker` span hangs under the coordinator's `exec` span, and the
/// per-fragment attributes (worker id, rows, queue wait, parse outcome,
/// scan counts) ride back with the round.
#[test]
fn worker_spans_stitch_under_exec_at_every_worker_count() {
    for workers in WORKER_COUNTS {
        let spans = traced_spans(FAN_OUT, workers);
        let find = |id| spans.iter().find(|s: &&Span| s.id == id).unwrap();

        let exec_ids: Vec<_> = spans
            .iter()
            .filter(|s| s.label == "exec")
            .map(|s| s.id)
            .collect();
        assert!(!exec_ids.is_empty(), "{workers} workers: no exec span");

        let worker_spans: Vec<&Span> = spans.iter().filter(|s| s.label == "worker").collect();
        let fragment_spans: Vec<&Span> = spans.iter().filter(|s| s.label == "fragment").collect();
        assert!(
            !worker_spans.is_empty() && !fragment_spans.is_empty(),
            "{workers} workers: worker/fragment spans missing"
        );
        assert!(
            worker_spans.len() <= workers,
            "{workers} workers but {} worker spans",
            worker_spans.len()
        );

        for w in &worker_spans {
            let parent = w.parent.expect("worker spans are grafted, never roots");
            assert_eq!(
                find(parent).label,
                "exec",
                "{workers} workers: worker span not under exec"
            );
        }
        for f in &fragment_spans {
            let parent = f.parent.expect("fragment spans hang under their worker");
            assert_eq!(find(parent).label, "worker");
            for key in [
                "op",
                "worker",
                "rows",
                "queue_us",
                "cache",
                "scans",
                "scans_shared",
                "rows_scanned",
                "plan",
            ] {
                assert!(
                    f.attrs.iter().any(|(k, _)| k == key),
                    "{workers} workers: fragment span lacks {key}: {f:?}"
                );
            }
        }
    }
}

// ---- EXPLAIN ANALYZE ---------------------------------------------------

/// The acceptance shape: a 4-worker distributed query renders one stitched
/// tree with the coordinator stage spans *and* the per-fragment worker
/// child spans, carrying worker id and row attributes (no `bytes=`: the
/// result table moves back typed, nothing is put on a wire).
#[test]
fn explain_analyze_renders_one_stitched_tree() {
    let p = platform();
    let out = p.explain_analyze(FAN_OUT, Some(4)).unwrap();
    assert!(out.starts_with("EXPLAIN ANALYZE"), "{out}");
    for label in [
        "static_query",
        "parse",
        "rewrite",
        "unfold",
        "exec",
        "worker",
        "fragment",
    ] {
        assert!(out.contains(label), "missing {label} span:\n{out}");
    }
    for attr in ["worker=", "rows=", "time="] {
        assert!(out.contains(attr), "missing {attr} attribute:\n{out}");
    }
    assert!(
        out.contains("├──") || out.contains("└──"),
        "no tree structure:\n{out}"
    );
    // One stitched tree, not a forest: exactly one top-level span (the
    // root line carries no branch prefix).
    let roots = out
        .lines()
        .skip(1) // the EXPLAIN ANALYZE banner
        .filter(|l| {
            !l.is_empty()
                && !l.starts_with(' ')
                && !l.starts_with('│')
                && !l.starts_with('├')
                && !l.starts_with('└')
        })
        .count();
    assert_eq!(roots, 1, "expected a single stitched root:\n{out}");

    // Single-node EXPLAIN ANALYZE falls back to the `sql` leaf spans
    // (cold cache — a warm BGP entry would short-circuit execution).
    p.bgp_cache().invalidate();
    let single = p.explain_analyze(FAN_OUT, None).unwrap();
    assert!(single.contains("sql"), "{single}");
    assert!(!single.contains("worker="), "{single}");
}

// ---- dashboard latency percentiles + slow-query log --------------------

#[test]
fn dashboard_shows_latency_percentiles_after_32_queries() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    p.set_slow_query_threshold_us(1); // everything lands on the slow log
    for _ in 0..32 {
        p.query_static("SELECT ?s WHERE { ?s a sie:Sensor }")
            .unwrap();
    }
    let dash = p.dashboard();
    assert!(dash.static_p50_us > 0, "{dash:?}");
    assert!(dash.static_p95_us >= dash.static_p50_us);
    assert!(dash.static_p99_us >= dash.static_p95_us);
    assert!(!dash.slow_queries.is_empty());
    assert!(dash.slow_queries.iter().all(|s| s.total_us >= 1));
    let r = dash.render();
    assert!(r.contains("p50/p95/p99"), "{r}");
    assert!(r.contains("slow queries ─ ≥ 1 µs"), "{r}");

    // The metrics snapshot exports the same histogram both ways.
    let snap = p.metrics_snapshot();
    let summary = snap.histogram("static.query_us").unwrap();
    assert_eq!(summary.count, 32);
    assert_eq!(summary.p50, dash.static_p50_us);
    assert!(snap.to_json().contains("static.query_us"));
    assert!(snap.to_prometheus().contains("static_query_us"));

    // Raising the threshold silences the log for fast queries.
    let quiet = OptiquePlatform::from_siemens(SiemensDeployment::small());
    quiet.set_slow_query_threshold_us(u64::MAX);
    quiet
        .query_static("SELECT ?s WHERE { ?s a sie:Sensor }")
        .unwrap();
    assert!(quiet.dashboard().slow_queries.is_empty());
}

/// The term dictionary is append-only and process-wide: its gauges grow
/// when a write brings text nobody interned before, and never shrink.
#[test]
fn dict_gauges_grow_with_fresh_text_and_never_shrink() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    let gauges = |p: &OptiquePlatform| {
        let snap = p.metrics_snapshot();
        (
            snap.gauge("dict.terms").unwrap(),
            snap.gauge("dict.bytes").unwrap(),
        )
    };
    let (terms, bytes) = gauges(&p);
    assert!(terms > 0 && bytes > 0, "the deployment interned its text");

    let model = "SGT-never-interned-before-this-test";
    let mut row = p.db().table("turbines").unwrap().rows[0].clone();
    row[0] = optique_relational::Value::Int(93_001);
    row[1] = optique_relational::Value::text(model);
    p.insert_static("turbines", vec![row]).unwrap();
    let (terms_after, bytes_after) = gauges(&p);
    assert!(terms_after > terms, "{terms_after} vs {terms}");
    assert!(bytes_after >= bytes + model.len() as i64);

    // Merging the overlay away, or deploying afresh, reclaims nothing.
    p.merge_now().unwrap();
    let fresh = OptiquePlatform::from_siemens(SiemensDeployment::small());
    for (t, b) in [gauges(&p), gauges(&fresh)] {
        assert!(t >= terms_after && b >= bytes_after, "{t} terms, {b} bytes");
    }
    assert!(p.metrics_snapshot().to_prometheus().contains("dict_bytes"));
}

#[test]
fn tick_percentiles_populate_per_query() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    p.register_starql(optique_starql::FIGURE1).unwrap();
    for tick in (600_000..=632_000).step_by(1_000) {
        p.tick_all(tick).unwrap();
    }
    let dash = p.dashboard();
    assert_eq!(dash.panels[0].ticks, 33);
    assert!(dash.panels[0].tick_p50_us > 0, "{:?}", dash.panels[0]);
    assert!(dash.panels[0].tick_p99_us >= dash.panels[0].tick_p50_us);
    let snap = p.metrics_snapshot();
    assert!(snap.histogram("tick.q1.us").is_some());
}

// ---- streaming tick spans ----------------------------------------------

#[test]
fn tick_spans_cover_the_streaming_path() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    p.register_starql(optique_starql::FIGURE1).unwrap();
    p.register_starql(optique_starql::FIGURE1).unwrap();
    let mut labels: Vec<String> = Vec::new();
    for tick in (600_000..=612_000).step_by(1_000) {
        let out = p.tick_all(tick).unwrap();
        let spans = &out[0].1.spans;
        if spans.is_empty() {
            continue; // no window closed at this tick
        }
        labels = spans.iter().map(|s| s.label.clone()).collect();
        // The records graft into one renderable tree.
        let tracer = Tracer::new();
        tracer.graft(None, 0, spans);
        let rendered = render_tree(&tracer.spans());
        for label in ["tick", "window_build", "wcache_lookup", "r2s"] {
            assert!(rendered.contains(label), "missing {label}:\n{rendered}");
        }
        // A tick says why it was slow, or not: the first query on a window
        // built its states, the second took them.
        let states_built = |tick: &optique_starql::TickOutput| {
            let build = tick.spans.iter().find(|s| s.label == "window_build");
            let (_, built) = build?.attrs.iter().find(|(k, _)| k == "states_built")?;
            Some(built.to_string())
        };
        assert_ne!(states_built(&out[0].1).as_deref(), Some("0"));
        assert_eq!(states_built(&out[1].1).as_deref(), Some("0"));
        assert!(
            rendered.contains("candidates=") && rendered.contains("probes="),
            "r2s says what the evaluation visited:\n{rendered}"
        );
        break;
    }
    assert!(!labels.is_empty(), "no tick ever closed a window");

    // A distributed registration's wcache misses record scatter spans.
    let pd = OptiquePlatform::from_siemens(SiemensDeployment::small());
    pd.register_starql_distributed(optique_starql::FIGURE1, 4)
        .unwrap();
    let mut saw_scatter = false;
    for tick in (600_000..=612_000).step_by(1_000) {
        let out = pd.tick_all(tick).unwrap();
        saw_scatter |= out[0].1.spans.iter().any(|s| s.label == "scatter");
    }
    assert!(
        saw_scatter,
        "distributed ticks never recorded a scatter span"
    );
}

// ---- tracing differential guard ----------------------------------------

fn traced_untraced_pair() -> &'static (OptiquePlatform, OptiquePlatform) {
    static PAIR: OnceLock<(OptiquePlatform, OptiquePlatform)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let traced = OptiquePlatform::from_siemens(SiemensDeployment::small());
        let untraced = OptiquePlatform::from_siemens(SiemensDeployment::small());
        untraced.set_tracing(false);
        (traced, untraced)
    })
}

fn assert_tracing_invisible(text: &str) {
    let (traced, untraced) = traced_untraced_pair();
    assert!(traced.tracing_enabled() && !untraced.tracing_enabled());
    traced.bgp_cache().invalidate();
    untraced.bgp_cache().invalidate();
    let a = traced
        .query_static(text)
        .unwrap_or_else(|e| panic!("traced failed for {text}: {e}"));
    let b = untraced
        .query_static(text)
        .unwrap_or_else(|e| panic!("untraced failed for {text}: {e}"));
    assert_eq!(canon(&a), canon(&b), "tracing changed answers for {text}");
    traced.bgp_cache().invalidate();
    untraced.bgp_cache().invalidate();
    let a = traced.query_static_distributed(text, 4).unwrap();
    let b = untraced.query_static_distributed(text, 4).unwrap();
    assert_eq!(
        canon(&a),
        canon(&b),
        "tracing changed distributed answers for {text}"
    );
}

#[test]
fn tracing_differential_fixed_suite() {
    for text in FIXED_QUERIES {
        assert_tracing_invisible(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

    #[test]
    fn tracing_differential_generated(text in query_strategy()) {
        assert_tracing_invisible(&text);
    }
}

//! `fanout_scan` and `fanout_probe`: one property mapped through 100
//! tables, answered by `query_static_distributed(_, 2)` with the BGP cache
//! invalidated between ops.
//!
//! Same fixture, two shapes. The scan returns every row (6 400), so row
//! volume through the worker boundary dominates. The probe fixes the object
//! and returns 100 rows, cycling 64 constants: 6 400 distinct fragment wires
//! overflow the 256-entry worker plan caches, so every fragment pays its
//! fixed cost — print, encode, decode, re-parse, dispatch — every time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use optique::{Federation, OptiquePlatform};
use optique_exastream::cluster::hash_partition;
use optique_exastream::PlanCache;
use optique_mapping::{unfold_ucq, UnfoldSettings};
use optique_relational::{execute_prepared, Database, PlanFragment, ResultBatch, Table};
use optique_rewrite::{rewrite, ConjunctiveQuery, QueryTerm, RewriteSettings};
use optique_sparql::{
    parse_sparql, solutions_from_tables, split_union_chain, FragmentExecutor, PatternElement,
    PipelineStats, PlannerSettings, Query, SparqlResults,
};

use super::{
    answer_digest, ratio, report_layer_times, report_unattributed, sum_layers,
    tally_pipeline_stats, Tally,
};
use crate::fixtures::{fanout_platform, FANOUT_PROPERTY, FANOUT_ROWS, FANOUT_SOURCES};
use crate::harness::{
    closed_loop, end_to_end, micros, peak_rss_mb, replay_loop, setup, timed, Limit, RunConfig,
    WORKERS,
};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{median, Checksum, Rng};

/// Which query the workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `SELECT ?a ?b WHERE { ?a <p> ?b }` — every row.
    Scan,
    /// `SELECT ?a WHERE { ?a <p> <obj/k> }` — one row per table.
    Probe,
}

impl Shape {
    /// The op's query text; `k` picks the probe's constant.
    pub fn query(self, k: u64) -> String {
        match self {
            Shape::Scan => format!("SELECT ?a ?b WHERE {{ ?a <{FANOUT_PROPERTY}> ?b }}"),
            Shape::Probe => {
                format!("SELECT ?a WHERE {{ ?a <{FANOUT_PROPERTY}> <http://x/obj/{k}> }}")
            }
        }
    }

    /// Distinct query texts the workload cycles through.
    fn distinct(self) -> u64 {
        match self {
            Shape::Scan => 1,
            Shape::Probe => FANOUT_ROWS as u64,
        }
    }

    fn expected_rows(self) -> u64 {
        match self {
            Shape::Scan => FANOUT_SOURCES as u64 * FANOUT_ROWS as u64,
            Shape::Probe => FANOUT_SOURCES as u64,
        }
    }
}

/// The deployed platform plus what set-up measured on the way.
struct State {
    platform: OptiquePlatform,
    /// The first distributed call: pool build plus a cold round.
    federation_build_us: f64,
}

/// Deploys and warms: the first distributed query builds the 2-worker pool.
fn build(shape: Shape, seed: u64) -> State {
    let platform = fanout_platform(seed);
    let (warm, took) = timed(|| platform.query_static_distributed(&shape.query(0), WORKERS));
    warm.expect("warm-up query runs");
    State {
        platform,
        federation_build_us: micros(took),
    }
}

/// The seeded order in which ops cycle the query constants.
fn constant_cycle(shape: Shape, seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..shape.distinct()).collect();
    Rng::new(seed ^ 0x5eed_c0de).shuffle(&mut order);
    order
}

/// Reference digests, one per distinct query, through the single-node,
/// planner-disabled path of a platform of its own.
fn reference(shape: Shape, seed: u64) -> Vec<Checksum> {
    let oracle = fanout_platform(seed);
    oracle.set_planner_settings(PlannerSettings::disabled());
    (0..shape.distinct())
        .map(|k| {
            let answer = oracle
                .query_static(&shape.query(k))
                .expect("reference query runs");
            let digest = answer_digest(&answer);
            assert_eq!(
                digest.rows,
                shape.expected_rows(),
                "fixture answers its design size"
            );
            digest
        })
        .collect()
}

/// One timed op against `platform`: invalidate the BGP cache (between, not
/// inside, timed ops), time the distributed query, digest the answer.
fn timed_query(
    platform: &OptiquePlatform,
    text: &str,
) -> Option<(std::time::Duration, Checksum, PipelineStats)> {
    platform.bgp_cache().invalidate();
    let started = Instant::now();
    let answer = platform.query_static_distributed_with_stats(text, WORKERS);
    let took = started.elapsed();
    let (results, stats) = answer.ok()?;
    Some((took, answer_digest(&results), stats))
}

/// Runs the workload.
pub fn run(shape: Shape, cfg: &RunConfig) -> Report {
    let (state, setup_s) = setup(cfg, || build(shape, cfg.seed));
    let cycle = constant_cycle(shape, cfg.seed);
    let constant = |i: u64| cycle[i as usize % cycle.len()];
    let mut report = Report::default();

    // The traced run's platform pass reads per-op counts off
    // `PipelineStats` and, on the probe, interleaves a twin with span
    // recording off, for the platform's own tracing overhead.
    let untraced_twin = (cfg.trace && shape == Shape::Probe).then(|| {
        let twin = build(shape, cfg.seed).platform;
        twin.set_tracing(false);
        twin
    });
    let mut tally = Tally::default();
    let mut twin_latencies = Vec::new();
    let mut pass = closed_loop(Limit::seconds(cfg.pass_seconds()), WORKERS, |i| {
        let text = shape.query(constant(i));
        if let Some(twin) = &untraced_twin {
            twin_latencies.extend(timed_query(twin, &text).map(|(took, ..)| micros(took)));
        }
        let (latency, digest, stats) = timed_query(&state.platform, &text)?;
        tally_pipeline_stats(&mut tally, &stats);
        Some((latency, digest))
    });
    let rss = peak_rss_mb();
    let expected = reference(shape, cfg.seed);
    pass.check(|i, digest| *digest == expected[constant(i) as usize]);
    if !cfg.trace {
        end_to_end(&mut report, std::slice::from_ref(&pass), setup_s, rss);
        return report;
    }

    report.attempted = pass.attempted;
    report.failed = pass.failed;
    let untraced_p50 = median(&pass.latencies_us);
    report.set("harness.slowdown", pass.slowdown());
    tally.report_medians(&mut report);
    report.set(
        "sparql.bgp_cache_hit_ratio",
        ratio(tally.sum("bgp_hits"), tally.sum("bgp_misses")),
    );
    report.set(
        "exastream.plan_cache_hit_ratio",
        ratio(tally.sum("plan_hits"), tally.sum("plan_misses")),
    );
    report.set("core.federation_build_us", state.federation_build_us);
    if !twin_latencies.is_empty() {
        report.set(
            "telemetry.overhead_ratio",
            untraced_p50 / median(&twin_latencies).max(f64::MIN_POSITIVE),
        );
    }

    // Second half: the staged replay.
    let stage = Stage::new(&state.platform);
    let mut rec = Recorder::new();
    let mut wire_bytes = Vec::new();
    let mut rounds = Vec::new();
    replay_loop(&mut report, cfg.seconds * 0.3, |i| {
        let (answer, bytes, fragments) = stage.replay(&mut rec, &shape.query(constant(i)));
        wire_bytes.push(bytes as f64);
        rounds.push(fragments);
        answer_digest(&answer) == expected[constant(i) as usize]
    });
    report.set("relational.wire_bytes", median(&wire_bytes));
    // The real round over each op's fragments, for the dispatch cost — in a
    // pass of its own, back to back as the platform runs them: right after
    // the staged layers (which walk other copies of the same tables) a round
    // would find the pool's shards evicted from the CPU caches.
    for (op, fragments) in rounds.into_iter().enumerate() {
        rec.resume_op(op as u64 + 1);
        rec.span("exastream.round", |_| stage.pool.execute(fragments))
            .expect("round executes");
    }

    let per_op = report_layer_times(&mut report, rec.spans());
    // Blocking path of one op: the coordinator-side stages plus the real
    // round (which contains fragment encode, both workers side by side,
    // batch decode and the gateway's own dispatch).
    let blocking = [
        "sparql.parse",
        "rewrite.perfectref",
        "mapping.unfold",
        "relational.sql_print",
        "exastream.round",
        "sparql.merge",
    ];
    let attributed = sum_layers(&per_op, &blocking);
    report_unattributed(&mut report, untraced_p50, &attributed);
    // Dispatch: what the round costs beyond the layer work replayed on its
    // blocking path — encode, the slower worker, decode.
    let slowest_worker = slowest_worker_per_op(&rec);
    let dispatch: Vec<f64> = (0..slowest_worker.len())
        .map(|i| {
            per_op["exastream.round"][i]
                - per_op["relational.frag_encode"][i]
                - per_op["relational.batch_decode"][i]
                - slowest_worker[i]
        })
        .collect();
    report.set("exastream.dispatch_us", median(&dispatch));
    cfg.finish_trace(&mut report, &rec);
    report
}

/// Per op, the longest `exastream.worker` span: workers run side by side
/// in the platform, so the slower one is what the round waits for.
fn slowest_worker_per_op(rec: &Recorder) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for span in rec.spans() {
        if span.name == "exastream.worker" {
            let slot = by_op.entry(span.op).or_insert(0.0);
            *slot = slot.max(span.end_us - span.start_us);
        }
    }
    by_op.into_values().collect()
}

/// What the staged replay calls into: the platform's assets, a pool of its
/// own built the way the platform builds one, and the per-worker shard
/// catalogs that pool's layout implies.
struct Stage<'a> {
    platform: &'a OptiquePlatform,
    pool: Federation,
    /// Each worker's shard catalog and a prepared-plan cache like the one
    /// its gateway worker keeps (same type, so the same capacity and
    /// eviction decide what the replay re-parses).
    shards: Vec<(Database, PlanCache)>,
}

impl<'a> Stage<'a> {
    fn new(platform: &'a OptiquePlatform) -> Self {
        let snap = platform.snapshot();
        let pool = Federation::for_deployment(
            Arc::clone(&snap.db),
            WORKERS,
            snap.topology,
            &snap.stats,
            &platform.mappings,
            &[],
        );
        let mut shards: Vec<(Database, PlanCache)> = (0..WORKERS)
            .map(|_| ((*snap.db).clone(), PlanCache::default()))
            .collect();
        for (table, key) in pool.partition() {
            let full = snap.db.table(table).expect("partitioned table exists");
            let column = full.schema.index_of(key).expect("partition key exists");
            for ((shard, _), part) in shards.iter_mut().zip(hash_partition(full, column, WORKERS)) {
                shard.put_table(table.clone(), part);
            }
        }
        Stage {
            platform,
            pool,
            shards,
        }
    }

    /// Replays one query stage by stage, in pipeline order, each call into a
    /// layer under its own span. Returns the staged answer, the bytes the
    /// result batches put on the wire, and the fragments it shipped.
    fn replay(&self, rec: &mut Recorder, text: &str) -> (SparqlResults, usize, Vec<PlanFragment>) {
        let p = self.platform;
        rec.next_op();
        let mut wire_bytes = 0;
        let (results, fragments) = rec.span("op", |rec| {
            let query = rec
                .span("sparql.parse", |_| parse_sparql(text, &p.namespaces))
                .expect("workload query parses");
            let Query::Select(select) = &query else {
                panic!("fan-out queries are SELECTs");
            };
            let [PatternElement::Triples(atoms)] = select.pattern.elements.as_slice() else {
                panic!("fan-out queries are one basic graph pattern");
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
            let (ucq, _) = rec
                .span("rewrite.perfectref", |_| {
                    rewrite(&cq, &p.ontology, &RewriteSettings::default())
                })
                .expect("enrichment succeeds");
            let (sql, _) = rec
                .span("mapping.unfold", |_| {
                    unfold_ucq(&ucq, &p.mappings, &UnfoldSettings::default())
                })
                .expect("unfolding succeeds");
            let statements = split_union_chain(sql.expect("the property is mapped"));
            let fragments: Vec<PlanFragment> = statements
                .iter()
                .enumerate()
                .map(|(i, statement)| {
                    let text = rec.span("relational.sql_print", |_| statement.to_string());
                    PlanFragment::new(i as u64, text, (statement.joins.len() + 1) as f64)
                })
                .collect();
            let wires: Vec<String> = fragments
                .iter()
                .map(|f| rec.span("relational.frag_encode", |_| f.encode()))
                .collect();
            // Each worker's queue, one worker after the other (the platform
            // runs them side by side; see `slowest_worker_per_op`).
            let shipped: Vec<Vec<String>> = self
                .shards
                .iter()
                .map(|(shard, plans)| {
                    rec.span("exastream.worker", |rec| {
                        wires
                            .iter()
                            .map(|wire| {
                                // A wire the worker's plan cache holds costs
                                // no decode and no parse; one it misses
                                // costs both, timed here a layer at a time.
                                let (statement, hit) =
                                    plans.get_or_prepare(wire).expect("fragment prepares");
                                if !hit {
                                    let fragment = rec
                                        .span("relational.frag_decode", |_| {
                                            PlanFragment::decode(wire)
                                        })
                                        .expect("fragment wire decodes");
                                    rec.span("relational.sql_parse", |_| fragment.statement())
                                        .expect("fragment SQL parses");
                                }
                                let table = rec
                                    .span("relational.exec", |_| {
                                        execute_prepared(&statement, shard)
                                    })
                                    .expect("fragment executes");
                                rec.span("relational.batch_encode", |_| {
                                    ResultBatch::from_table(&table).encode()
                                })
                            })
                            .collect()
                    })
                })
                .collect();
            // Gather: decode every batch, concatenating a fragment's shards.
            let mut tables: Vec<Option<Table>> = wires.iter().map(|_| None).collect();
            for batches in &shipped {
                for (slot, wire) in tables.iter_mut().zip(batches) {
                    wire_bytes += wire.len();
                    let part = rec
                        .span("relational.batch_decode", |_| {
                            ResultBatch::decode(wire).and_then(ResultBatch::into_table)
                        })
                        .expect("batch wire decodes");
                    match slot {
                        Some(table) => table.rows.extend(part.rows),
                        None => *slot = Some(part),
                    }
                }
            }
            let tables: Vec<Table> = tables.into_iter().flatten().collect();
            let solutions = rec.span("sparql.merge", |_| solutions_from_tables(vars, tables));
            (SparqlResults::Solutions(solutions), fragments)
        });
        // Off today's request path, recorded as the baseline for a
        // rendering endpoint: roots of their own, outside the op span.
        rec.span("sparql.render", |_| results.render(usize::MAX));
        (results, wire_bytes, fragments)
    }
}

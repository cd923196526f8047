//! `siemens_join`: a selective three-way join over the Siemens fleet through
//! single-node `query_static`, BGP cache invalidated between ops.
//!
//! Taxonomy enrichment (`TemperatureSensor` reaches four sources), semi-join
//! pushdown from the model-filtered turbines into the two wider BGPs, and
//! hash joins — with **no** worker boundary. `relational::exec` and the
//! planner do the work and the wire does none, so a wire gain must read "no
//! change" here and an exec or planner gain must show.

use std::time::Instant;

use optique::OptiquePlatform;
use optique_sparql::{parse_sparql, PlannerSettings, SparqlResults};

use super::{
    answer_digest, ratio, report_layer_times, report_unattributed, staged_pipeline, sum_layers,
    tally_pipeline_stats, Tally, PIPELINE_LAYERS,
};
use crate::fixtures::{siemens_deployment, MODELS};
use crate::harness::{
    closed_loop, end_to_end, micros, peak_rss_mb, replay_loop, setup, timed, Limit, RunConfig,
};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{median, Checksum, Rng};

/// Fleet shape: 48 turbines × 8 assemblies × 14 sensors = 5 376 sensors,
/// 12 turbines per model. Sized so one run collects several hundred
/// samples; every turbine has the same structure, so each model constant
/// costs the same.
const TURBINES: usize = 48;
const ASSEMBLIES: usize = 8;
const SENSORS: usize = 14;

/// The query, for one turbine model.
pub fn query(model: &str) -> String {
    format!(
        "PREFIX sie: <http://siemens.example/ontology#> \
         SELECT ?t ?a ?s WHERE {{ ?t sie:hasModel \"{model}\" . \
         {{ ?a sie:partOf ?t }} \
         {{ ?a sie:inAssembly ?s . ?s a sie:TemperatureSensor }} }}"
    )
}

struct State {
    platform: OptiquePlatform,
    build_us: f64,
}

fn build(seed: u64) -> State {
    let (deployment, took) = timed(|| siemens_deployment(seed, TURBINES, ASSEMBLIES, SENSORS, 12));
    let platform = OptiquePlatform::from_siemens(deployment);
    // First query: planner statistics, mapping indexes, lazy parses.
    platform
        .query_static(&query(MODELS[0]))
        .expect("warm-up query runs");
    State {
        platform,
        build_us: micros(took),
    }
}

/// Reference digest per model through a planner-disabled platform.
fn reference(seed: u64) -> Vec<Checksum> {
    let oracle =
        OptiquePlatform::from_siemens(siemens_deployment(seed, TURBINES, ASSEMBLIES, SENSORS, 12));
    oracle.set_planner_settings(PlannerSettings::disabled());
    MODELS
        .iter()
        .map(|model| {
            let answer = oracle.query_static(&query(model)).expect("reference runs");
            let digest = answer_digest(&answer);
            // 12 turbines × 8 assemblies × the 4 temperature sensors of 14.
            assert_eq!(digest.rows as usize, TURBINES / 4 * ASSEMBLIES * 4);
            digest
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let (state, setup_s) = setup(cfg, || build(cfg.seed));
    let mut cycle: Vec<usize> = (0..MODELS.len()).collect();
    Rng::new(cfg.seed ^ 0x5eed_c0de).shuffle(&mut cycle);
    let model = |i: u64| cycle[i as usize % cycle.len()];
    let platform = &state.platform;
    let mut report = Report::default();

    let mut tally = Tally::default();
    let mut pass = closed_loop(Limit::seconds(cfg.pass_seconds()), 1, |i| {
        platform.bgp_cache().invalidate();
        let started = Instant::now();
        let answer = platform.query_static_with_stats(&query(MODELS[model(i)]));
        let took = started.elapsed();
        let (results, stats) = answer.ok()?;
        tally_pipeline_stats(&mut tally, &stats);
        Some((took, (answer_digest(&results), stats.semi_joins_pushed)))
    });
    let rss = peak_rss_mb();
    let expected = reference(cfg.seed);
    // The workload exists to exercise semi-join pushdown: an op in which the
    // planner pushed none measured something else, and counts as failed.
    pass.check(|i, (digest, pushed)| *digest == expected[model(i)] && *pushed > 0);
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
    report.set("siemens.build_us", state.build_us);

    let mut rec = Recorder::new();
    replay_loop(&mut report, cfg.seconds * 0.4, |i| {
        let m = model(i);
        answer_digest(&replay(platform, &mut rec, &query(MODELS[m]))) == expected[m]
    });
    let per_op = report_layer_times(&mut report, rec.spans());
    // No worker boundary: the blocking path is parse plus the pipeline with
    // everything under it.
    let mut blocking = vec!["sparql.parse"];
    blocking.extend(PIPELINE_LAYERS);
    let attributed = sum_layers(&per_op, &blocking);
    report_unattributed(&mut report, untraced_p50, &attributed);
    cfg.finish_trace(&mut report, &rec);
    report
}

/// Replays one query: parse, the staged pipeline, render.
fn replay(platform: &OptiquePlatform, rec: &mut Recorder, text: &str) -> SparqlResults {
    let snap = platform.snapshot();
    rec.next_op();
    let results = rec.span("op", |rec| {
        let parsed = rec
            .span("sparql.parse", |_| parse_sparql(text, &platform.namespaces))
            .expect("workload query parses");
        staged_pipeline(platform, &snap, rec, &parsed)
    });
    rec.span("sparql.render", |_| results.render(usize::MAX));
    results
}

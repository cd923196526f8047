//! The seven workloads. Each module exposes `run(&RunConfig) -> Report`:
//! set up (timed, repeated), compute the reference answers, run the timed
//! pass in a closed loop checking every answer, and — in a traced run —
//! replay ops stage by stage under the harness's span recorder.

use std::collections::BTreeMap;

use optique::telemetry::Tracer;
use optique::{OptiquePlatform, PlatformSnapshot, SparqlResults};
use optique_sparql::{PipelineStats, Query, StaticPipeline};

use crate::harness::RunConfig;
use crate::metrics::Report;
use crate::spans::{self_time_per_op, Recorder, Span};
use crate::stats::{median, Checksum};

pub mod fanout;
pub mod fleet_register;
pub mod serve_mixed;
pub mod siemens_join;
pub mod streams;

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Report> {
    Some(match name {
        "fanout_scan" => fanout::run(fanout::Shape::Scan, cfg),
        "fanout_probe" => fanout::run(fanout::Shape::Probe, cfg),
        "siemens_join" => siemens_join::run(cfg),
        "fleet_register" => fleet_register::run(cfg),
        "fleet_stream" => streams::run(streams::Shape::Fleet, cfg),
        "pane_stream" => streams::run(streams::Shape::Pane, cfg),
        "serve_mixed" => serve_mixed::run(cfg),
        _ => return None,
    })
}

/// Row count and order-independent digest of a SPARQL answer.
pub fn answer_digest(results: &SparqlResults) -> Checksum {
    match results.as_bool() {
        Some(truth) => Checksum::of([truth]),
        None => Checksum::of(results.rows()),
    }
}

/// Per-op counts read from the platform's public outputs, by metric name.
#[derive(Default)]
pub struct Tally(BTreeMap<&'static str, Vec<f64>>);

impl Tally {
    /// Records one op's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Sum of every recorded value of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Writes the per-op median of every name that is a per-layer metric
    /// into `report` (other names are accumulators for ratios).
    pub fn report_medians(&self, report: &mut Report) {
        for (name, values) in &self.0 {
            if crate::metrics::PER_LAYER.iter().any(|m| m.name == *name) {
                report.set(name, median(values));
            }
        }
    }
}

/// `hits ÷ (hits + misses)`, 0 when nothing was looked up.
pub fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Writes the median per-op self time of each replayed layer span into
/// `report`: span `a.b` feeds metric `a.b_us`. Spans without a metric of
/// that name (op roots, worker groupings) are skipped. Returns the per-op
/// totals so callers can reconcile them with the untraced latency.
pub fn report_layer_times(report: &mut Report, spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let per_op = self_time_per_op(spans);
    for (span_name, totals) in &per_op {
        let metric = format!("{span_name}_us");
        if let Some(def) = crate::metrics::PER_LAYER.iter().find(|m| m.name == metric) {
            report.set(def.name, median(totals));
        }
    }
    per_op
}

/// Sets `core.unattributed_us` / `core.unattributed_share`: the untraced
/// p50 minus what the replay attributes to layers on the op's blocking
/// path — planner, snapshot pinning, dashboard accounting and thread
/// hand-off that only in-program spans could split. Printed, not hidden.
pub fn report_unattributed(report: &mut Report, untraced_p50_us: f64, attributed_us: &[f64]) {
    let unattributed = untraced_p50_us - median(attributed_us);
    report.set("core.unattributed_us", unattributed);
    report.set(
        "core.unattributed_share",
        if untraced_p50_us > 0.0 {
            unattributed / untraced_p50_us
        } else {
            0.0
        },
    );
}

/// Folds one query's `PipelineStats` into the per-op tallies.
pub fn tally_pipeline_stats(tally: &mut Tally, stats: &PipelineStats) {
    tally.push("rewrite.ucq_disjuncts", stats.ucq_disjuncts as f64);
    tally.push("mapping.sql_disjuncts", stats.sql_disjuncts as f64);
    tally.push("exastream.fragments", stats.fragments as f64);
    tally.push("exastream.shards_pruned", stats.shards_pruned as f64);
    tally.push(
        "exastream.coordinator_fallbacks",
        stats.coordinator_fallbacks as f64,
    );
    tally.push("sparql.semi_joins_pushed", stats.semi_joins_pushed as f64);
    tally.push("sparql.join_reorders", stats.join_reorders as f64);
    tally.push(
        "sparql.estimate_ratio",
        stats.estimated_rows as f64 / (stats.actual_rows as f64).max(1.0),
    );
    tally.push(
        "relational.rows_examined_per_result",
        stats.fragment_rows as f64 / (stats.rows as f64).max(1.0),
    );
    tally.push("bgp_hits", stats.cache_hits as f64);
    tally.push("bgp_misses", stats.cache_misses as f64);
    tally.push("plan_hits", stats.plan_cache_hits as f64);
    tally.push("plan_misses", stats.plan_cache_misses as f64);
}

/// One staged `StaticPipeline::answer`, single-node with no cache, under
/// `snap`'s planner and statistics, inside a `sparql.pipeline` span. The
/// pipeline runs under a program `Tracer` (a public builder option) and its
/// `rewrite`, `unfold` and `sql` spans are imported as children, so the
/// pipeline's self time is what remains: planning, restriction building,
/// joins, projection.
pub fn staged_pipeline(
    platform: &OptiquePlatform,
    snap: &PlatformSnapshot,
    rec: &mut Recorder,
    query: &Query,
) -> SparqlResults {
    rec.span("sparql.pipeline", |rec| {
        let tracer = Tracer::new();
        let (results, _) = StaticPipeline::new(&platform.ontology, &platform.mappings, &snap.view)
            .with_planner(snap.planner)
            .with_table_stats(&snap.stats)
            .with_tracer(&tracer, None)
            .answer(query)
            .expect("pipeline answers");
        for span in tracer.spans() {
            let name = match span.label.as_str() {
                "rewrite" => "rewrite.perfectref",
                "unfold" => "mapping.unfold",
                "sql" => "relational.exec",
                _ => continue,
            };
            rec.import(name, span.start_us as f64, span.duration_us as f64);
        }
        results
    })
}

/// The layers on the blocking path of a request answered by
/// [`staged_pipeline`], besides its parse.
pub const PIPELINE_LAYERS: [&str; 4] = [
    "sparql.pipeline",
    "rewrite.perfectref",
    "mapping.unfold",
    "relational.exec",
];

/// Per op, the sum of the named layers' self times.
pub fn sum_layers(per_op: &BTreeMap<&'static str, Vec<f64>>, names: &[&str]) -> Vec<f64> {
    let ops = per_op.values().next().map_or(0, Vec::len);
    (0..ops)
        .map(|i| {
            names
                .iter()
                .filter_map(|name| per_op.get(name))
                .map(|totals| totals[i])
                .sum()
        })
        .collect()
}

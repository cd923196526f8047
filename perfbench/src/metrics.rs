//! The metric vocabulary: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! at the repository root is generated from these tables (`bench spec`) and
//! a test keeps the two equal, so the names later changes claim against
//! live in exactly one place.

use std::collections::BTreeMap;

use crate::json::quote;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// One named workload and the reason it exists.
pub struct WorkloadDef {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// The seven workloads, in run order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "fanout_scan",
        why: "6400 answer rows from 100 disjuncts through 2 workers: row volume across the worker boundary (batch encode/decode, merge, exec) dominates",
    },
    WorkloadDef {
        name: "fanout_probe",
        why: "100 answer rows from 100 distinct fragments that overflow the worker plan cache: fixed per-fragment wire cost (print, encode, decode, re-parse, dispatch) dominates",
    },
    WorkloadDef {
        name: "siemens_join",
        why: "single-node taxonomy enrichment, semi-join pushdown and hash joins with no worker boundary: a wire gain must read no change, an exec or planner gain must show",
    },
    WorkloadDef {
        name: "fleet_register",
        why: "register/deregister the 18 STARQL catalog tasks on tiny data: STARQL parse, translate, PerfectRef, unfolding and planning do the work, exec and wire almost none",
    },
    WorkloadDef {
        name: "fleet_stream",
        why: "the paper's headline scenario: the 18 catalog tasks over 8 streamed sensors, single-node full-window sequence-HAVING ticks with window sharing, no pane probes",
    },
    WorkloadDef {
        name: "pane_stream",
        why: "four aggregate-HAVING queries over 640 sensors on 2 workers: shard-local pane stores, O(slide) ticks, auto-merge of a growing stream table sets the tail",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "90/10 read/write mix through the server (2 workers, 2 clients): cold reads after writes, warm reads beside them, merges inside the run, server hop on cached reads",
    },
];

/// One metric definition.
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only; 0 for per-layer metrics, which carry no bound).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the platform sees, per workload. `op` is the workload's
/// request: a query on the three static workloads, a registration on
/// `fleet_register`, an append (call to returned tick outputs) on the two
/// stream workloads, any served request (read or write) on `serve_mixed`.
/// The three speed metrics and `setup_s` are at nominal machine speed: each
/// measured time over the machine's slowdown when it was measured (see
/// [`crate::harness::Calibrator`]), percentiles over every op of the run.
/// The bounds leave room for what that does not take out; the README
/// records the measured spreads.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("op_p95_us", "us", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics (layer = crate). A `*_us` metric is the median over
/// replayed ops of the layer's summed self time in one op; counts and
/// ratios are per op, read from the platform's public outputs. A workload
/// that never enters a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sparql.parse_us", "us", "lower"),
    layer("sparql.pipeline_us", "us", "lower"),
    layer("sparql.merge_us", "us", "lower"),
    layer("sparql.render_us", "us", "lower"),
    layer("sparql.bgp_cache_hit_ratio", "ratio", "higher"),
    layer("sparql.semi_joins_pushed", "count", "higher"),
    layer("sparql.join_reorders", "count", "higher"),
    layer("sparql.estimate_ratio", "ratio", "lower"),
    layer("rewrite.perfectref_us", "us", "lower"),
    layer("rewrite.ucq_disjuncts", "count", "lower"),
    layer("mapping.unfold_us", "us", "lower"),
    layer("mapping.sql_disjuncts", "count", "lower"),
    layer("relational.sql_print_us", "us", "lower"),
    layer("relational.frag_encode_us", "us", "lower"),
    layer("relational.frag_decode_us", "us", "lower"),
    layer("relational.sql_parse_us", "us", "lower"),
    layer("relational.exec_us", "us", "lower"),
    layer("relational.rows_examined_per_result", "ratio", "lower"),
    layer("relational.batch_encode_us", "us", "lower"),
    layer("relational.batch_decode_us", "us", "lower"),
    layer("relational.wire_bytes", "B", "lower"),
    layer("relational.append_us", "us", "lower"),
    layer("relational.merge_us", "us", "lower"),
    layer("relational.merges", "count", "lower"),
    layer("relational.novelty_depth_max", "count", "lower"),
    layer("relational.pane_probes", "count", "lower"),
    layer("relational.pane_hit_ratio", "ratio", "higher"),
    layer("exastream.round_us", "us", "lower"),
    layer("exastream.dispatch_us", "us", "lower"),
    layer("exastream.fragments", "count", "lower"),
    layer("exastream.plan_cache_hit_ratio", "ratio", "higher"),
    layer("exastream.shards_pruned", "count", "higher"),
    layer("exastream.coordinator_fallbacks", "count", "lower"),
    layer("starql.parse_us", "us", "lower"),
    layer("starql.translate_us", "us", "lower"),
    layer("starql.register_us", "us", "lower"),
    layer("starql.tick_us", "us", "lower"),
    layer("starql.tuples_in_window", "count", "lower"),
    layer("starql.window_fragments", "count", "lower"),
    layer("starql.stream_rows_shipped", "count", "lower"),
    layer("stream.wcache_hit_ratio", "ratio", "higher"),
    layer("stream.tuples_per_s", "1/s", "higher"),
    layer("core.server_hop_us", "us", "lower"),
    layer("core.server_shed", "count", "lower"),
    layer("core.queue_depth_max", "count", "lower"),
    layer("core.read_p50_us", "us", "lower"),
    layer("core.write_p50_us", "us", "lower"),
    layer("core.write_p95_us", "us", "lower"),
    layer("core.federation_build_us", "us", "lower"),
    layer("core.unattributed_us", "us", "lower"),
    layer("core.unattributed_share", "ratio", "lower"),
    layer("telemetry.overhead_ratio", "ratio", "lower"),
    layer("siemens.build_us", "us", "lower"),
    layer("harness.replayed_ops", "count", "higher"),
    layer("harness.span_cost_us", "us", "lower"),
    layer("harness.slowdown", "ratio", "lower"),
];

/// The outcome of one run: what the last line of output reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Ops attempted in the timed pass.
    pub attempted: u64,
    /// Ops that failed, were shed, or answered wrongly.
    pub failed: u64,
    /// Metric values by name. A run with `--trace 0` fills every
    /// [`END_TO_END`] name; a traced run fills the [`PER_LAYER`] names that
    /// apply (the rest print as 0).
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentile metrics, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Report {
    /// Sets metric `name`. Panics on a name outside the vocabulary — a typo
    /// must fail the smoke tests, not print a metric nobody defined.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the vocabulary"
        );
        self.values.insert(name, value);
    }

    /// Sets a percentile metric together with its sample count.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, n: usize) {
        self.set(name, value);
        self.samples.insert(name, n);
    }

    /// The run's result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being every name of `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|m| {
                let value = self.values.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all measured digits (non-finite values print as 0:
/// JSON has no NaN).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn spec_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--bin\", \"bench\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                number(m.bound)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

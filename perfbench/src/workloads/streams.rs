//! `fleet_stream` and `pane_stream`: continuous queries driven by
//! `append_stream`, one 1 Hz second of readings per op. Latency runs from
//! the append call to its returned tick outputs — last contributing event to
//! emitted result.
//!
//! The two use the same `starql`/`exastream` layers the opposite way.
//! `fleet_stream` is the paper's headline scenario: the 18 catalog tasks,
//! registered single-node, over 32 sensors — no task is pane-combinable, so
//! every tick is a full-window sequence-HAVING evaluation, windows shared
//! across tasks through the window cache, and every fifth append also closes
//! the six one-minute windows. `pane_stream` registers four aggregate-HAVING
//! queries on 2 workers over 640 sensors: shard-local pane stores answer
//! ticks in O(slide), and because appends run at the default merge
//! threshold the tail is the auto-merge of a growing stream table. A pane
//! gain that costs the window path, or the reverse, moves the two apart.

use std::sync::Arc;
use std::time::Instant;

use optique::{Federation, OptiquePlatform};
use optique_relational::Value;
use optique_sparql::{FragmentExecutor, PlannerSettings};
use optique_starql::{parse_starql, ContinuousQuery, TickOutput};
use optique_stream::WCache;

use super::fleet_register::{staged_registration, starql_tasks};
use super::{ratio, report_layer_times, report_unattributed, sum_layers, Tally};
use crate::fixtures::{put_stream, siemens_deployment, stream_second, STREAM_START_MS};
use crate::harness::{
    closed_loop, end_to_end, micros, peak_rss_mb, replay_loop, setup, timed, Limit, RunConfig,
    WORKERS,
};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{median, Checksum};

/// The stream table every query reads.
const STREAM: &str = "S_Msmt";
/// Its key column (the subject template's column).
const STREAM_KEY: &str = "sensor_id";
/// The pulse grid's origin in every workload query (`START =
/// "00:10:00CET"`), which is also the stream's first timestamp.
const PULSE_START_MS: i64 = STREAM_START_MS;

/// Which continuous workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 18 catalog tasks, single-node, 8 streamed sensors.
    Fleet,
    /// 4 aggregate-HAVING queries on 2 workers, 640 streamed sensors.
    Pane,
}

impl Shape {
    /// Streamed sensors (of the 640 in the 20 × 4 × 8 fleet).
    fn streamed(self) -> usize {
        match self {
            Shape::Fleet => 8,
            Shape::Pane => 640,
        }
    }

    /// Appends charged to set-up. The fleet's first five-second tick, the
    /// pane shape's pool build and first pane fold happen here, not in the
    /// timed pass.
    fn warmup_appends(self) -> i64 {
        match self {
            Shape::Fleet => 6,
            Shape::Pane => 2,
        }
    }

    /// Appends the reference twin answers; the platform's first ops are
    /// checked against them output for output. A twin append of the pane
    /// shape rescans four windows of up to 128 000 rows single-node and
    /// takes over a second, hence so few.
    fn reference_prefix(self) -> i64 {
        match self {
            Shape::Fleet => 10,
            Shape::Pane => 2,
        }
    }

    /// First second the timed pass appends.
    fn first_second(self) -> i64 {
        self.prehistory_s() + self.warmup_appends()
    }

    /// Seconds of readings in the stream table before the first append.
    fn prehistory_s(self) -> i64 {
        match self {
            Shape::Fleet => 60,
            Shape::Pane => 300,
        }
    }

    /// Appends per second of nominal run time. The run is op-bounded: the
    /// stream table grows with every append, so a faster build must measure
    /// the same appends, not more of them.
    fn appends_per_second(self) -> f64 {
        match self {
            Shape::Fleet => 20.0,
            Shape::Pane => 30.0,
        }
    }

    /// Cores an append runs on: the single-node path stays on its thread,
    /// the pane path folds and probes on the worker pool.
    fn cores(self) -> usize {
        match self {
            Shape::Fleet => 1,
            Shape::Pane => WORKERS,
        }
    }

    /// The STARQL texts registered, in order.
    fn programs(self) -> Vec<String> {
        match self {
            Shape::Fleet => starql_tasks().into_iter().map(|(_, text)| text).collect(),
            Shape::Pane => [
                ("SUM", 200, ">= 14000"),
                ("AVG", 60, ">= 72"),
                ("MAX", 200, ">= 99"),
                ("COUNT", 20, ">= 20"),
            ]
            .iter()
            .map(|(agg, range_s, cmp)| {
                format!(
                    "PREFIX sie: <http://siemens.example/ontology#>\n\
                     PREFIX : <http://siemens.example/ontology#>\n\
                     CREATE STREAM S_{agg} AS\n\
                     CONSTRUCT GRAPH NOW {{ ?c2 a :Hot{agg} }}\n\
                     FROM STREAM {STREAM} [NOW-\"PT{range_s}S\"^^xsd:duration, NOW]->\"PT1S\"^^xsd:duration\n\
                     USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"PT1S\"\n\
                     WHERE {{ ?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2. }}\n\
                     SEQUENCE BY StdSeq AS seq\n\
                     HAVING {agg}(?c2, sie:hasValue) {cmp}\n"
                )
            })
            .collect(),
        }
    }

    /// Registers `text` the way the workload does.
    fn register(self, platform: &OptiquePlatform, text: &str) {
        match self {
            Shape::Fleet => platform.register_starql(text),
            Shape::Pane => platform.register_starql_distributed(text, WORKERS),
        }
        .expect("workload query registers");
    }
}

/// A deployed platform whose stream holds seconds `0..history_s`, plus the
/// sensors it streams. No query registered, no append made.
fn deploy(shape: Shape, seed: u64, history_s: i64) -> (OptiquePlatform, Vec<i64>, f64) {
    let (mut deployment, took) = timed(|| siemens_deployment(seed, 20, 4, 8, shape.streamed()));
    let sensors = deployment.stream_config.sensor_ids.clone();
    let prehistory = (0..history_s)
        .flat_map(|sec| stream_second(seed, &sensors, sec))
        .collect();
    put_stream(&mut deployment, prehistory);
    (
        OptiquePlatform::from_siemens(deployment),
        sensors,
        micros(took),
    )
}

struct State {
    platform: OptiquePlatform,
    sensors: Vec<i64>,
    build_us: f64,
}

/// Deploys, registers the workload's queries and appends the warm-up
/// seconds.
fn build(shape: Shape, seed: u64) -> State {
    let (platform, sensors, build_us) = deploy(shape, seed, shape.prehistory_s());
    for text in shape.programs() {
        shape.register(&platform, &text);
    }
    for sec in shape.prehistory_s()..shape.first_second() {
        platform
            .append_stream(STREAM, stream_second(seed, &sensors, sec))
            .expect("warm-up append runs");
    }
    State {
        platform,
        sensors,
        build_us,
    }
}

/// Digest of one append's driven ticks: every `(query, window, triple)`
/// emitted, plus one row per tick so an empty tick still counts.
fn digest(outputs: &[(u64, TickOutput)]) -> Checksum {
    let mut sum = Checksum::default();
    for (query, out) in outputs {
        sum.add(&(query, out.window_id, out.satisfied));
        for triple in &out.triples {
            sum.add(&(query, out.window_id, triple));
        }
    }
    sum
}

/// The oracle: single-node twins with planner and pane aggregation off
/// answer the first [`Shape::reference_prefix`] appends of the timed pass.
/// A twin's stream already holds the warm-up seconds at registration, so it
/// pays for no tick the platform's answers are not compared with; an append
/// drives the same windows either way.
///
/// The pane shape gets one twin *per query*. The platform's window cache
/// keys a window by `(stream, window id)` alone, so single-node queries
/// that share a slide but not a range hand each other the wrong rows (the
/// first to tick a window id decides its range for all). The pane path
/// never touches that cache and answers correctly; a twin holding all four
/// queries would not, and the comparison would blame the wrong side. The
/// fleet shape keeps one twin for the whole catalog — there the platform
/// under test is itself the single-node path, collisions included, and the
/// check is differential: same outputs with the planner off.
fn reference(shape: Shape, seed: u64) -> Vec<Checksum> {
    let programs = shape.programs();
    let groups: Vec<&[String]> = match shape {
        Shape::Fleet => vec![&programs[..]],
        Shape::Pane => programs.chunks(1).collect(),
    };
    let prefix = shape.first_second()..shape.first_second() + shape.reference_prefix();
    let mut digests = vec![Checksum::default(); prefix.clone().count()];
    let mut offset = 0;
    for group in groups {
        let (twin, sensors, _) = deploy(shape, seed, shape.first_second());
        twin.set_planner_settings(PlannerSettings::disabled());
        for text in group {
            twin.register_starql(text).expect("reference registers");
        }
        twin.set_pane_aggregation(false);
        for (slot, sec) in digests.iter_mut().zip(prefix.clone()) {
            let mut outputs = twin
                .append_stream(STREAM, stream_second(seed, &sensors, sec))
                .expect("reference append runs");
            // A twin numbers its queries from 1; the platform numbered
            // them in catalog order.
            for (id, _) in &mut outputs {
                *id += offset;
            }
            slot.merge(digest(&outputs));
        }
        offset += group.len() as u64;
    }
    digests
}

/// Ticks the append of second `sec` must drive: one per window it closes,
/// from the queries' own slide lengths.
fn expected_ticks(slides_ms: &[i64], sec: i64) -> usize {
    let clock = STREAM_START_MS + sec * 1_000 - PULSE_START_MS;
    slides_ms
        .iter()
        .map(|slide| (clock / slide - (clock - 1_000) / slide) as usize)
        .sum()
}

/// Runs the workload.
pub fn run(shape: Shape, cfg: &RunConfig) -> Report {
    let (state, setup_s) = setup(cfg, || build(shape, cfg.seed));
    let platform = &state.platform;
    let first = shape.first_second();
    let mut report = Report::default();

    let mut tally = Tally::default();
    let mut depth_max = 0usize;
    let wcache_before = (platform.wcache().hits(), platform.wcache().misses());
    let mut pass = closed_loop(
        Limit::ops_for(cfg.pass_seconds(), shape.appends_per_second()),
        shape.cores(),
        |i| {
            let rows = stream_second(cfg.seed, &state.sensors, first + i as i64);
            let started = Instant::now();
            let outputs = platform.append_stream(STREAM, rows);
            let took = started.elapsed();
            let outputs = outputs.ok()?;
            depth_max = depth_max.max(platform.novelty_depth());
            for (_, out) in &outputs {
                tally.push("tuples", out.tuples_in_window as f64);
                tally.push("fragments", out.window_fragments as f64);
                tally.push("shipped", out.stream_rows_shipped as f64);
                tally.push("pane_hits", out.pane_hits as f64);
                tally.push("pane_misses", out.pane_misses as f64);
            }
            Some((took, (digest(&outputs), outputs.len())))
        },
    );
    let rss = peak_rss_mb();
    // Every op must drive exactly the ticks its second closes; the first
    // ops must also equal the reference twin's outputs.
    let prefix = reference(shape, cfg.seed);
    let slides_ms: Vec<i64> = shape
        .programs()
        .iter()
        .map(|text| {
            parse_starql(text, &platform.namespaces)
                .expect("workload query parses")
                .stream
                .slide_ms
        })
        .collect();
    pass.check(|i, (digest, ticks)| {
        *ticks == expected_ticks(&slides_ms, first + i as i64)
            && prefix.get(i as usize).is_none_or(|want| digest == want)
    });
    if !cfg.trace {
        end_to_end(&mut report, std::slice::from_ref(&pass), setup_s, rss);
        return report;
    }

    report.attempted = pass.attempted;
    report.failed = pass.failed;
    let untraced_p50 = median(&pass.latencies_us);
    report.set("harness.slowdown", pass.slowdown());
    let appends = pass.latencies_us.len().max(1) as f64;
    report.set("starql.tuples_in_window", tally.sum("tuples") / appends);
    report.set("starql.window_fragments", tally.sum("fragments") / appends);
    report.set("starql.stream_rows_shipped", tally.sum("shipped") / appends);
    report.set(
        "relational.pane_probes",
        (tally.sum("pane_hits") + tally.sum("pane_misses")) / appends,
    );
    report.set(
        "relational.pane_hit_ratio",
        ratio(tally.sum("pane_hits"), tally.sum("pane_misses")),
    );
    report.set(
        "stream.wcache_hit_ratio",
        ratio(
            (platform.wcache().hits() - wcache_before.0) as f64,
            (platform.wcache().misses() - wcache_before.1) as f64,
        ),
    );
    report.set(
        "stream.tuples_per_s",
        appends * state.sensors.len() as f64 / pass.wall_s.max(f64::MIN_POSITIVE),
    );
    report.set("relational.novelty_depth_max", depth_max as f64);
    if let Some(merges) = platform.metrics_snapshot().histogram("novelty.merge_us") {
        report.set("relational.merges", merges.count as f64);
        report.set("relational.merge_us", merges.p50 as f64);
    }
    report.set("siemens.build_us", state.build_us);

    // The staged replay feeds the same seconds to a query-less twin and
    // ticks harness-owned continuous queries the way `append_stream` does.
    let mut rec = Recorder::new();
    let mut stage = Stage::new(shape, cfg.seed, &mut rec);
    for sec in shape.prehistory_s()..first {
        stage.append(&mut rec, sec);
    }
    replay_loop(&mut report, cfg.seconds * 0.4, |i| {
        let got = digest(&stage.append(&mut rec, first + i as i64));
        // Seconds past the platform pass have no platform answer to match.
        pass.answers
            .get(i as usize)
            .is_none_or(|(_, (want, _))| got == *want)
    });
    let per_op = report_layer_times(&mut report, rec.spans());
    let attributed = sum_layers(
        &per_op,
        &["relational.append", "starql.tick", "core.federation_build"],
    );
    report_unattributed(&mut report, untraced_p50, &attributed);
    cfg.finish_trace(&mut report, &rec);
    report
}

/// The replay's apparatus: a platform that only stores the stream (no query
/// registered, so `insert_static` is the append and nothing else), the
/// continuous queries registered stage by stage outside it, and — for the
/// distributed shape — a pool built the way the platform builds one.
struct Stage {
    shape: Shape,
    seed: u64,
    store: OptiquePlatform,
    sensors: Vec<i64>,
    /// Each query with the last window an append already drove.
    queries: Vec<(ContinuousQuery, Option<u64>)>,
    wcache: WCache,
    pool: Option<Federation>,
}

impl Stage {
    fn new(shape: Shape, seed: u64, rec: &mut Recorder) -> Self {
        let (store, sensors, _) = deploy(shape, seed, shape.prehistory_s());
        let snap = store.snapshot();
        let clock = STREAM_START_MS + (shape.prehistory_s() - 1) * 1_000;
        let mut counts = Tally::default();
        // Registrations are recorded under op 0, ahead of the first append.
        let queries = shape
            .programs()
            .iter()
            .map(|text| {
                let query = staged_registration(&store, &snap, rec, &mut counts, text);
                // Windows the prehistory already closed never fire.
                let closed = query.window().last_closed(query.window_start(), clock);
                (query, closed)
            })
            .collect();
        Stage {
            shape,
            seed,
            store,
            sensors,
            queries,
            wcache: WCache::new(),
            pool: None,
        }
    }

    /// One append, staged: store the rows, then tick every query once per
    /// window the new rows closed, at that window's close instant, oldest
    /// first — what `append_stream` does behind its one call.
    fn append(&mut self, rec: &mut Recorder, sec: i64) -> Vec<(u64, TickOutput)> {
        let rows: Vec<Vec<Value>> = stream_second(self.seed, &self.sensors, sec);
        let clock = STREAM_START_MS + sec * 1_000;
        rec.next_op();
        rec.span("op", |rec| {
            rec.span("relational.append", |_| {
                self.store.insert_static(STREAM, rows)
            })
            .expect("append stores");
            let snap = self.store.snapshot();
            if self.shape == Shape::Pane {
                // A merge swapped the base catalog: the platform drops its
                // pools then, and with them the workers' pane stores.
                let stale = self
                    .pool
                    .as_ref()
                    .is_none_or(|pool| !Arc::ptr_eq(pool.catalog(), &snap.db));
                if stale {
                    self.pool = Some(rec.span("core.federation_build", |_| {
                        Federation::for_deployment(
                            Arc::clone(&snap.db),
                            WORKERS,
                            snap.topology,
                            &snap.stats,
                            &self.store.mappings,
                            &[(STREAM.to_string(), STREAM_KEY.to_string())],
                        )
                    }));
                }
            }
            let executor = self.pool.as_ref().map(|pool| pool as &dyn FragmentExecutor);
            let mut outputs = Vec::new();
            for (index, (query, driven)) in self.queries.iter_mut().enumerate() {
                let window = query.window();
                let start = query.window_start();
                let Some(newest) = window.last_closed(start, clock) else {
                    continue;
                };
                for w in driven.map_or(0, |w| w + 1)..=newest {
                    let close = window.bounds(start, w).1;
                    let out = rec
                        .span("starql.tick", |_| {
                            query.tick_via(&snap.view, &self.wcache, close, executor)
                        })
                        .expect("tick runs");
                    outputs.push((index as u64 + 1, out));
                }
                *driven = Some(newest);
            }
            outputs
        })
    }
}

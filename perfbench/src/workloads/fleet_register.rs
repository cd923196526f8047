//! `fleet_register`: the paper's "register a continuous query" action.
//!
//! The 18 STARQL tasks of the diagnostic catalog are registered and
//! deregistered in rounds over a tiny fleet, the BGP cache invalidated before
//! each registration. STARQL parse, `translate`, PerfectRef, unfolding and
//! planning do the work; exec and wire almost none.

use std::collections::HashMap;
use std::time::Instant;

use optique::{OptiquePlatform, PlatformSnapshot};
use optique_mapping::UnfoldSettings;
use optique_rdf::Term;
use optique_rewrite::{Atom, RewriteSettings};
use optique_siemens::catalog::TaskQuery;
use optique_siemens::{diagnostic_tasks, DiagnosticTask};
use optique_sparql::{
    GroupPattern, PatternElement, PlannerSettings, Projection, Query, SelectItem, SelectQuery,
    SolutionModifier,
};
use optique_starql::{
    parse_starql, translate, ContinuousQuery, TranslatedQuery, TranslationContext,
};

use super::{
    report_layer_times, report_unattributed, staged_pipeline, sum_layers, Tally, PIPELINE_LAYERS,
};
use crate::fixtures::siemens_deployment;
use crate::harness::{
    closed_loop, end_to_end, micros, peak_rss_mb, replay_loop, setup, timed, Limit, RunConfig,
};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{median, Rng};

/// The catalog's STARQL tasks (T19 and T20 are SQL(+) dataflows the
/// platform does not register).
pub fn starql_tasks() -> Vec<(DiagnosticTask, String)> {
    diagnostic_tasks()
        .into_iter()
        .filter_map(|task| match &task.query {
            TaskQuery::StarQl(text) => {
                let text = text.clone();
                Some((task, text))
            }
            TaskQuery::SqlPlus(_) => None,
        })
        .collect()
}

/// 12 turbines × 2 assemblies × 3 sensors: the test-scale fleet, seeded.
fn deployment(seed: u64) -> optique_siemens::SiemensDeployment {
    siemens_deployment(seed, 12, 2, 3, 12)
}

struct State {
    platform: OptiquePlatform,
    build_us: f64,
}

fn build(seed: u64, tasks: &[(DiagnosticTask, String)]) -> State {
    let (deployment, took) = timed(|| deployment(seed));
    let platform = OptiquePlatform::from_siemens(deployment);
    // One round through the catalog: lazy indexes, planner statistics.
    for (task, _) in tasks {
        let id = platform
            .register_task(task)
            .expect("catalog task registers");
        platform.deregister(id);
    }
    State {
        platform,
        build_us: micros(took),
    }
}

/// What a registration must produce, per task: `(bindings, fleet size)`.
type Shape = (usize, usize);

/// Reference shapes through a planner-disabled platform's dashboard.
fn reference(seed: u64, tasks: &[(DiagnosticTask, String)]) -> Vec<Shape> {
    let oracle = OptiquePlatform::from_siemens(deployment(seed));
    oracle.set_planner_settings(PlannerSettings::disabled());
    for (task, _) in tasks {
        oracle.register_task(task).expect("reference registers");
    }
    registered_shapes(&oracle)
}

/// `(bindings, fleet size)` of every registered query, in id order.
fn registered_shapes(platform: &OptiquePlatform) -> Vec<Shape> {
    platform
        .dashboard()
        .panels
        .iter()
        .map(|panel| (panel.bindings, panel.fleet_size))
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let tasks = starql_tasks();
    let (state, setup_s) = setup(cfg, || build(cfg.seed, &tasks));
    // The seed decides the order a round registers the catalog in.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    Rng::new(cfg.seed ^ 0x5eed_c0de).shuffle(&mut order);
    let platform = &state.platform;
    let mut report = Report::default();

    // A round registers every task (each registration one timed op), then
    // deregisters them, untimed. The first round and the last are left
    // registered long enough to read their panels off the dashboard; the
    // rounds between are not read, because each `dashboard()` call leaves
    // one `tick.q<id>.us` histogram per panel in the metrics registry for
    // good, and a read on every round would make the harness, not the
    // platform, set `peak_rss_mb`.
    let mut round: Vec<u64> = Vec::new();
    let mut first_round: Vec<Shape> = Vec::new();
    let pass = closed_loop(Limit::seconds(cfg.pass_seconds()), 1, |i| {
        if round.len() == order.len() {
            if i as usize == order.len() {
                first_round = registered_shapes(platform);
            }
            round.drain(..).for_each(|id| {
                platform.deregister(id);
            });
        }
        let (task, _) = &tasks[order[i as usize % order.len()]];
        platform.bgp_cache().invalidate();
        let started = Instant::now();
        let id = platform.register_task(task);
        let took = started.elapsed();
        round.push(id.ok()?);
        Some((took, ()))
    });
    let rss = peak_rss_mb();
    let last_round = registered_shapes(platform);
    let expected = reference(cfg.seed, &tasks);
    let mismatches = |got: &[Shape], registered: usize| -> u64 {
        let want = order[..registered].iter().map(|&t| expected[t]);
        let differing = got.iter().zip(want).filter(|(g, w)| *g != w).count();
        (differing + got.len().abs_diff(registered)) as u64
    };
    let mut wrong = mismatches(&last_round, round.len());
    if pass.attempted > order.len() as u64 {
        wrong += mismatches(&first_round, order.len());
    }

    if !cfg.trace {
        end_to_end(&mut report, std::slice::from_ref(&pass), setup_s, rss);
        report.failed += wrong;
        return report;
    }

    report.attempted = pass.attempted;
    report.failed = pass.failed + wrong;
    let untraced_p50 = median(&pass.latencies_us);
    report.set("harness.slowdown", pass.slowdown());
    report.set("siemens.build_us", state.build_us);

    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    replay_loop(&mut report, cfg.seconds * 0.4, |i| {
        let t = order[i as usize % order.len()];
        replay(platform, &mut rec, &mut tally, &tasks[t].1) == expected[t]
    });
    tally.report_medians(&mut report);
    let per_op = report_layer_times(&mut report, rec.spans());
    let mut blocking = vec!["starql.parse", "starql.translate", "starql.register"];
    blocking.extend(PIPELINE_LAYERS);
    let attributed = sum_layers(&per_op, &blocking);
    report_unattributed(&mut report, untraced_p50, &attributed);
    cfg.finish_trace(&mut report, &rec);
    report
}

/// Replays one registration as an op; returns the staged query's
/// `(bindings, fleet size)`.
fn replay(platform: &OptiquePlatform, rec: &mut Recorder, tally: &mut Tally, text: &str) -> Shape {
    let snap = platform.snapshot();
    rec.next_op();
    rec.span("op", |rec| {
        let query = staged_registration(platform, &snap, rec, tally, text);
        (query.binding_count(), query.translated.fleet_size())
    })
}

/// One registration the way `register_starql` stages it: STARQL parse,
/// `translate` (validation, HAVING expansion, enrichment, unfolding, fleet),
/// the WHERE bindings as `SELECT DISTINCT <answer vars>` through the static
/// pipeline (which enriches and unfolds a second time — the BGP cache is
/// cold), then `ContinuousQuery::register_with_bindings` (window, stream
/// keys, pane planning). Each stage under its own span.
pub fn staged_registration(
    platform: &OptiquePlatform,
    snap: &PlatformSnapshot,
    rec: &mut Recorder,
    tally: &mut Tally,
    text: &str,
) -> ContinuousQuery {
    let parsed = rec
        .span("starql.parse", |_| parse_starql(text, &platform.namespaces))
        .expect("STARQL text parses");
    let ctx = TranslationContext {
        ontology: &platform.ontology,
        mappings: &platform.mappings,
        rewrite_settings: RewriteSettings::default(),
        unfold_settings: UnfoldSettings::default(),
    };
    let translated = rec
        .span("starql.translate", |_| translate(&parsed, &ctx))
        .expect("STARQL query translates");
    tally.push(
        "rewrite.ucq_disjuncts",
        translated.enriched_where.disjuncts.len() as f64,
    );
    tally.push(
        "mapping.sql_disjuncts",
        translated.unfold_stats.emitted as f64,
    );
    let answers = staged_pipeline(platform, snap, rec, &bindings_query(&translated));
    let bindings: Vec<HashMap<String, Term>> = answers
        .rows()
        .iter()
        .map(|row| {
            answers
                .vars()
                .iter()
                .zip(row)
                .filter_map(|(var, term)| Some((var.clone(), term.clone()?)))
                .collect()
        })
        .collect();
    rec.span("starql.register", |_| {
        ContinuousQuery::register_with_bindings(
            translated,
            platform.stream_to_rdf.clone(),
            &snap.db,
            bindings,
        )
    })
    .expect("STARQL query registers")
}

/// The static query whose answers are a translated task's WHERE bindings:
/// `SELECT DISTINCT <answer vars>` over the task's disjuncts, each with its
/// filters — the query `register_starql` sends through the static pipeline.
pub fn bindings_query(translated: &TranslatedQuery) -> Query {
    let source = &translated.query;
    let disjuncts: Vec<&Vec<Atom>> = if source.where_disjuncts.is_empty() {
        vec![&source.where_bgp]
    } else {
        source.where_disjuncts.iter().collect()
    };
    let mut branches: Vec<GroupPattern> = disjuncts
        .iter()
        .enumerate()
        .map(|(i, atoms)| {
            let mut elements = vec![PatternElement::Triples((*atoms).clone())];
            let filters = source.where_filters.get(i).into_iter().flatten();
            elements.extend(filters.cloned().map(PatternElement::Filter));
            GroupPattern { elements }
        })
        .collect();
    let pattern = if branches.len() == 1 {
        branches.remove(0)
    } else {
        GroupPattern {
            elements: vec![PatternElement::Union(branches)],
        }
    };
    Query::Select(SelectQuery {
        distinct: true,
        projection: Projection::Items(
            translated
                .where_answer_vars
                .iter()
                .cloned()
                .map(SelectItem::Var)
                .collect(),
        ),
        pattern,
        group_by: Vec::new(),
        modifiers: SolutionModifier::default(),
    })
}

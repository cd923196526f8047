//! Differential plan equivalence: every plan the statistics-driven planner
//! emits (join reordering + semi-join pushdown) must return an answer set
//! identical to the naive (planner-disabled) plan — on the shared fixed
//! suite and the shared property-based generator (`tests/common`), both
//! single-node and federated at 1, 2, 4 and 8 workers.
//!
//! Two platforms over the same deployment keep the comparison race-free:
//! one pinned to [`PlannerSettings::disabled`] (the naive oracle), one on
//! the default (optimized) settings. No test ever toggles a shared
//! platform's knobs mid-flight.
//!
//! Alongside the oracle, this suite pins down the planner's observable
//! side-channel: stats refresh on `insert_static`, cache interaction under
//! restricted executions, and the dashboard counters that prove fragments
//! actually shipped (and semi-joins actually pruned).

mod common;

use std::sync::OnceLock;

use common::{canon, proptest_cases, query_strategy, FIXED_QUERIES};
use optique::OptiquePlatform;
use optique_relational::Value;
use optique_siemens::SiemensDeployment;
use optique_sparql::PlannerSettings;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The naive oracle: planner disabled, textual join order, no pushdown.
fn naive() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| {
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        p.set_planner_settings(PlannerSettings::disabled());
        p
    })
}

/// The system under test: default (optimized) planner settings.
fn optimized() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| OptiquePlatform::from_siemens(SiemensDeployment::small()))
}

/// Asserts the optimized plans for `text` — single-node and at every worker
/// count — return exactly the naive single-node answer set. Caches are
/// invalidated around every run so each execution exercises its own plan.
fn assert_plan_equivalent(text: &str) {
    let n = naive();
    n.bgp_cache().invalidate();
    let reference = n
        .query_static(text)
        .unwrap_or_else(|e| panic!("naive run failed for {text}: {e}"));

    let o = optimized();
    o.bgp_cache().invalidate();
    let single = o
        .query_static(text)
        .unwrap_or_else(|e| panic!("optimized run failed for {text}: {e}"));
    assert_eq!(
        canon(&reference),
        canon(&single),
        "optimized ≠ naive single-node for {text}"
    );

    for workers in WORKER_COUNTS {
        o.bgp_cache().invalidate();
        let (distributed, stats) = o
            .query_static_distributed_with_stats(text, workers)
            .unwrap_or_else(|e| panic!("{workers}-worker optimized run failed for {text}: {e}"));
        assert_eq!(
            canon(&reference),
            canon(&distributed),
            "optimized distributed ≠ naive at {workers} workers for {text}"
        );
        assert!(
            stats.fragments >= stats.sql_disjuncts.min(1),
            "no fragments shipped at {workers} workers for {text}: {stats:?}"
        );
        assert_eq!(
            stats.coordinator_fallbacks, 0,
            "silent coordinator fallback at {workers} workers for {text}: {stats:?}"
        );
    }
    o.bgp_cache().invalidate();
    n.bgp_cache().invalidate();
}

// ---- fixed suite -------------------------------------------------------

#[test]
fn fixed_suite_plans_are_equivalent() {
    for text in FIXED_QUERIES {
        assert_plan_equivalent(text);
    }
}

/// The planner must actually *do* something on the join-shaped queries —
/// otherwise this suite proves nothing.
#[test]
fn planner_reorders_and_pushes_on_join_queries() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    // Textual order puts the wide inAssembly scan first; the planner must
    // flip it and push the temperature-sensor bindings into the scan.
    let text = "SELECT ?a ?s WHERE { { ?a sie:inAssembly ?s } { ?s a sie:TemperatureSensor } }";
    let (_, stats) = p.query_static_with_stats(text).unwrap();
    assert!(stats.join_reorders >= 1, "no reorder happened: {stats:?}");
    assert!(
        stats.semi_joins_pushed >= 1,
        "no semi-join pushed: {stats:?}"
    );
    assert!(
        stats.estimated_rows > 0 && stats.actual_rows > 0,
        "{stats:?}"
    );
    // The dashboard surfaces the same counters.
    let dash = p.dashboard();
    assert!(dash.total_join_reorders() >= 1);
    assert!(dash.total_semi_joins_pushed() >= 1);
}

/// Semi-join pushdown must shrink what fragments return over the wire on a
/// federated join — naive and optimized platforms, same query, same
/// workers, strictly fewer fetched rows (and identical answers).
#[test]
fn semi_join_pushdown_shrinks_federated_row_traffic() {
    let text = "SELECT ?a ?s WHERE { { ?a sie:inAssembly ?s } { ?s a sie:TemperatureSensor } }";
    let n = OptiquePlatform::from_siemens(SiemensDeployment::small());
    n.set_planner_settings(PlannerSettings::disabled());
    let o = OptiquePlatform::from_siemens(SiemensDeployment::small());

    let (naive_results, naive_stats) = n.query_static_distributed_with_stats(text, 4).unwrap();
    let (opt_results, opt_stats) = o.query_static_distributed_with_stats(text, 4).unwrap();

    assert_eq!(canon(&naive_results), canon(&opt_results));
    assert_eq!(naive_stats.semi_joins_pushed, 0);
    assert!(opt_stats.semi_joins_pushed >= 1, "{opt_stats:?}");
    assert!(
        opt_stats.fragment_rows < naive_stats.fragment_rows,
        "pushdown must shrink fragment traffic: {} !< {}",
        opt_stats.fragment_rows,
        naive_stats.fragment_rows
    );
}

// ---- stats refresh & cache interaction ---------------------------------

/// `insert_static` refreshes the `TableStats` catalog, invalidates the BGP
/// cache, and subsequent plans see the new cardinalities — visible through
/// the planner counters.
#[test]
fn insert_static_refreshes_stats_and_invalidates_cache() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    let text = "SELECT ?t ?m WHERE { { ?t a sie:Turbine } { ?t sie:hasModel ?m } }";

    let (first, cold) = p.query_static_with_stats(text).unwrap();
    assert!(cold.estimated_rows > 0, "planner estimated: {cold:?}");
    let (_, warm) = p.query_static_with_stats(text).unwrap();
    assert!(warm.cache_hits >= 1, "second run answers from cache");

    // Grow the turbines table substantially.
    let stats_before = p.table_stats();
    let rows_before = stats_before.row_count("turbines").unwrap();
    let turbines = p.db().table("turbines").unwrap().clone();
    let id_col = turbines.schema.index_of("tid").expect("turbines.tid");
    let inserted: Vec<Vec<Value>> = (0..50)
        .map(|i| {
            let mut row = turbines.rows[0].clone();
            row[id_col] = Value::Int(90_000 + i);
            row
        })
        .collect();
    p.insert_static("turbines", inserted).unwrap();

    // The stats catalog reflects the write immediately.
    let stats_after = p.table_stats();
    assert_eq!(
        stats_after.row_count("turbines"),
        Some(rows_before + 50),
        "TableStats refreshed on insert_static"
    );
    assert!(stats_after.total_rows() > stats_before.total_rows());

    // The cache was invalidated: the next run misses, sees the new rows,
    // and its plan reflects the new cardinalities.
    let (after, fresh) = p.query_static_with_stats(text).unwrap();
    assert_eq!(fresh.cache_hits, 0, "stale cache served: {fresh:?}");
    assert!(fresh.cache_misses >= 1);
    assert!(after.len() > first.len(), "inserted turbines are visible");
    assert!(
        fresh.estimated_rows > cold.estimated_rows,
        "plan estimates must grow with the table: {} !> {}",
        fresh.estimated_rows,
        cold.estimated_rows
    );
    assert!(fresh.actual_rows > cold.actual_rows);
    assert_eq!(p.dashboard().bgp_cache_invalidations, 1);
}

/// A distributed run must genuinely ship: fragments > 0 and zero
/// coordinator fallbacks, both on the per-query stats and the dashboard
/// (yesterday a silent fallback could make a "distributed" test pass on
/// the coordinator).
#[test]
fn distributed_runs_prove_fragments_shipped() {
    let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
    let (_, stats) = p
        .query_static_distributed_with_stats(
            "SELECT DISTINCT ?s WHERE { ?s a sie:MonitoringDevice }",
            4,
        )
        .unwrap();
    assert!(stats.fragments >= 1, "{stats:?}");
    assert_eq!(stats.coordinator_fallbacks, 0, "{stats:?}");
    let dash = p.dashboard();
    let panel = dash.static_queries.last().unwrap();
    assert!(panel.stats.fragments >= 1);
    assert_eq!(panel.stats.coordinator_fallbacks, 0);
    assert_eq!(dash.total_coordinator_fallbacks(), 0);
}

// ---- property-based suite ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(32)))]
    #[test]
    fn generated_plans_are_equivalent(text in query_strategy()) {
        let n = naive();
        n.bgp_cache().invalidate();
        let reference = n.query_static(&text);
        prop_assert!(reference.is_ok(), "naive failed for {}: {:?}", text, reference.err());
        let reference = reference.unwrap();

        let o = optimized();
        o.bgp_cache().invalidate();
        let single = o.query_static(&text);
        prop_assert!(single.is_ok(), "optimized failed for {}: {:?}", text, single.err());
        prop_assert_eq!(
            canon(&reference),
            canon(&single.unwrap()),
            "optimized ≠ naive single-node for {}", text
        );
        for workers in WORKER_COUNTS {
            o.bgp_cache().invalidate();
            let distributed = o.query_static_distributed(&text, workers);
            prop_assert!(
                distributed.is_ok(),
                "{} workers failed for {}: {:?}", workers, text, distributed.err()
            );
            prop_assert_eq!(
                canon(&reference),
                canon(&distributed.unwrap()),
                "optimized distributed ≠ naive at {} workers for {}", workers, text
            );
        }
        o.bgp_cache().invalidate();
        n.bgp_cache().invalidate();
    }
}

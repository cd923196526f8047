//! Partition-routed federation, proven by a **three-way differential
//! oracle**: for every query — the shared fixed suite plus the shared
//! property-based generator (`tests/common`) — the answer set must be
//! identical across
//!
//! 1. **single-node** execution (`query_static`),
//! 2. **replicated** pools (every worker holds the full catalog), and
//! 3. **auto-partitioned** pools (advisor-picked hash partitioning, with
//!    the sharded → replicated → coordinator per-fragment fallback ladder
//!    and shard-pruned semi-join routing),
//!
//! at 1, 2, 4 and 8 workers. Alongside the oracle, the suite pins down
//! that the machinery actually engages (fragments shard, pruning fires on
//! a fixed case), that per-fragment fallback never changes answers, and
//! that the BGP cache stays correct across topology switches and
//! re-partitioning writes.
//!
//! Two shared platforms (one pinned to each topology) keep the comparison
//! race-free under the parallel test runner — no test ever flips a shared
//! platform's topology mid-flight.

mod common;

use std::sync::OnceLock;

use common::{canon, proptest_cases, query_strategy, DATA_NS, FIXED_QUERIES};
use optique::{FederationTopology, OptiquePlatform};
use optique_relational::Value;
use optique_siemens::SiemensDeployment;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Replicated-pool platform (also serves the single-node reference).
fn replicated() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| {
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        p.set_federation_topology(FederationTopology::Replicated);
        p
    })
}

/// Auto-partitioned platform (the smart default under test).
fn partitioned() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| OptiquePlatform::from_siemens(SiemensDeployment::small()))
}

/// Asserts the three-way equivalence for one query at every worker count.
/// Caches are invalidated around every run so each execution exercises its
/// own routing, not a cached solution set.
fn assert_three_way_equivalent(text: &str) {
    let r = replicated();
    r.bgp_cache().invalidate();
    let reference = r
        .query_static(text)
        .unwrap_or_else(|e| panic!("single-node run failed for {text}: {e}"));

    let p = partitioned();
    for workers in WORKER_COUNTS {
        r.bgp_cache().invalidate();
        let over_replicas = r
            .query_static_distributed(text, workers)
            .unwrap_or_else(|e| panic!("{workers}-worker replicated run failed for {text}: {e}"));
        assert_eq!(
            canon(&reference),
            canon(&over_replicas),
            "replicated ≠ single-node at {workers} workers for {text}"
        );

        p.bgp_cache().invalidate();
        let (over_shards, stats) = p
            .query_static_distributed_with_stats(text, workers)
            .unwrap_or_else(|e| panic!("{workers}-worker partitioned run failed for {text}: {e}"));
        assert_eq!(
            canon(&reference),
            canon(&over_shards),
            "partitioned ≠ single-node at {workers} workers for {text}"
        );
        assert!(
            stats.fragments >= stats.sql_disjuncts.min(1),
            "no fragments shipped at {workers} workers for {text}: {stats:?}"
        );
    }
    r.bgp_cache().invalidate();
    p.bgp_cache().invalidate();
}

// Tests live in a module named after the suite so a bare
// `cargo test partitioned_equivalence` filter selects them all.
mod partitioned_equivalence {
    use super::*;

    // ---- fixed suite ---------------------------------------------------

    #[test]
    fn fixed_suite_is_three_way_equivalent() {
        for text in FIXED_QUERIES {
            assert_three_way_equivalent(text);
        }
    }

    /// The advisor must actually partition the Siemens deployment (sensors on
    /// `sid`) and fragments must actually shard — otherwise the oracle above
    /// proves nothing about partition routing.
    #[test]
    fn auto_partitioning_actually_engages() {
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        assert_eq!(p.federation_topology(), FederationTopology::AutoPartitioned);
        let (_, stats) = p
            .query_static_distributed_with_stats("SELECT ?s WHERE { ?s a sie:Sensor }", 4)
            .unwrap();
        assert!(
            stats.partitioned_fragments >= 1,
            "sensor scans must shard: {stats:?}"
        );
        assert_eq!(stats.coordinator_fallbacks, 0, "{stats:?}");
        let dash = p.dashboard();
        assert!(dash.total_partitioned_fragments() >= 1);
        let panel = dash.static_queries.last().unwrap();
        assert!(panel.stats.partitioned_fragments >= 1);
    }

    /// Shard pruning must fire on a selective fixed case: a constant assembly
    /// binds ≤ 3 sensors, and pushing those keys into the sharded sensor scan
    /// routes each fragment to at most 4 of 8 shards.
    #[test]
    fn shard_pruning_fires_on_selective_join() {
        let text = format!(
            "SELECT ?s WHERE {{ {{ <{DATA_NS}assembly/0> sie:inAssembly ?s }} \
         {{ ?s a sie:Sensor }} }}"
        );
        // Own platform: the shared one's BGP cache is filled/invalidated
        // concurrently by the oracle tests, and a cache hit would skip
        // fragment shipping and zero every routing counter.
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        let (results, stats) = p.query_static_distributed_with_stats(&text, 8).unwrap();
        assert!(
            stats.shards_pruned > 0,
            "≤ 4 of 8 shards can hold the 3 anchored sensors: {stats:?}"
        );
        assert!(stats.semi_joins_pushed >= 1, "{stats:?}");
        assert_eq!(results.len(), 3, "assembly 0 has exactly 3 sensors");

        // The same query, replicated and single-node, agrees — pruning must
        // not drop answers.
        assert_three_way_equivalent(&text);

        // And the dashboard surfaces the pruning.
        let dash = p.dashboard();
        assert!(dash.total_shards_pruned() > 0);
    }

    /// Per-fragment fallback: one query whose unfolded fragments hit all three
    /// rungs of the ladder — sensors⋈sensors on a non-key column falls back to
    /// the coordinator, regional⋈sensors scatters, regional⋈regional places on
    /// a replica — and the answers still match the other backends exactly.
    #[test]
    fn per_fragment_fallback_never_changes_answers() {
        let text = "SELECT ?s1 ?s2 WHERE { ?a sie:inAssembly ?s1 . ?a sie:inAssembly ?s2 }";
        // Own platform: counter assertions must not race the shared cache.
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        let (_, stats) = p.query_static_distributed_with_stats(text, 4).unwrap();
        assert!(
            stats.coordinator_fallbacks >= 1,
            "sensors⋈sensors joined on the assembly (non-key) column must fall \
         back: {stats:?}"
        );
        assert!(
            stats.partitioned_fragments >= 1,
            "mixed regional⋈sensors fragments must still shard: {stats:?}"
        );
        assert!(
            stats.replicated_fallbacks >= 1,
            "regional⋈regional fragments run on a single replica: {stats:?}"
        );
        assert_three_way_equivalent(text);
    }

    /// Co-partitioned fragments (sensors⋈sensors on the partition key) must
    /// ship — zero coordinator fallbacks — and still answer exactly.
    #[test]
    fn co_partitioned_joins_ship_without_fallback() {
        let text = "SELECT ?x ?s WHERE { ?x sie:inAssembly ?s . ?s a sie:TemperatureSensor }";
        // Own platform: counter assertions must not race the shared cache.
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        let (_, stats) = p.query_static_distributed_with_stats(text, 4).unwrap();
        assert_eq!(
            stats.coordinator_fallbacks, 0,
            "key-joined sensor fragments are co-partitioned: {stats:?}"
        );
        assert!(stats.partitioned_fragments >= 1, "{stats:?}");
        assert_three_way_equivalent(text);
    }

    // ---- shipping counts ---------------------------------------------------

    /// The fan-out shape: one property mapped through 100 tables of 64
    /// rows, each auto-partitioned on its subject key.
    fn fan_out() -> OptiquePlatform {
        use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
        use optique_rdf::{Iri, Namespaces};
        use optique_relational::{table::table_of, ColumnType, Database};

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
        OptiquePlatform::deploy(
            db,
            Default::default(),
            Namespaces::with_w3c_defaults(),
            mappings,
            SiemensDeployment::small().stream_to_rdf,
        )
    }

    /// A BGP's unfolded `UNION ALL` ships as one statement per shard set.
    /// On the fan-out shape every disjunct scatters (one worker holds the
    /// whole catalog and places them), so each query ships one statement at
    /// every worker count, planned once per round: exactly one worker
    /// `fragment` span builds the plan and every other shares it. Each
    /// disjunct still counts on its rung. A query whose disjuncts hit all
    /// three rungs ships at most one statement per worker for the placed
    /// ones, one scatter statement and one coordinator statement.
    #[test]
    fn a_bgp_ships_one_statement_per_shard_set() {
        let p = fan_out();
        for text in [
            "SELECT ?a WHERE { ?a <http://x/p> <http://x/obj/7> }",
            "SELECT ?a ?b WHERE { ?a <http://x/p> ?b }",
        ] {
            p.bgp_cache().invalidate();
            let single = p.query_static(text).unwrap();
            for workers in WORKER_COUNTS {
                p.bgp_cache().invalidate();
                let (answer, stats) = p
                    .query_static_distributed_with_stats(text, workers)
                    .unwrap();
                let run = format!("{text} at {workers} workers: {stats:?}");
                assert_eq!(canon(&answer), canon(&single), "{run}");
                assert_eq!(
                    (stats.bgps, stats.sql_disjuncts, stats.fragments),
                    (1, 100, 1),
                    "one statement per BGP: {run}"
                );
                let scattered = if workers > 1 { 100 } else { 0 };
                assert_eq!(stats.partitioned_fragments, scattered, "{run}");

                p.bgp_cache().invalidate();
                let report = p.explain_analyze(text, Some(workers)).unwrap();
                let spans: Vec<&str> = (report.lines())
                    .filter(|line| line.contains("fragment  ("))
                    .collect();
                let count = |plan: &str| spans.iter().filter(|s| s.contains(plan)).count();
                assert_eq!(spans.len(), workers, "{report}");
                assert_eq!(count("plan=built"), 1, "{report}");
                assert_eq!(count("plan=shared"), workers - 1, "{report}");
            }
        }

        let text = "SELECT ?s1 ?s2 WHERE { ?a sie:inAssembly ?s1 . ?a sie:inAssembly ?s2 }";
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        for workers in WORKER_COUNTS {
            p.bgp_cache().invalidate();
            let (_, stats) = p
                .query_static_distributed_with_stats(text, workers)
                .unwrap();
            assert_eq!(stats.bgps, 1, "{stats:?}");
            assert!(
                stats.fragments <= workers + 2,
                "{workers} workers: {stats:?}"
            );
        }
    }

    // ---- BGP cache across topology switches --------------------------------

    /// A solution set cached under one topology may serve the other — results
    /// are a function of the relational snapshot alone, which the three-way
    /// oracle proves — and the warm run must return the identical answer.
    #[test]
    fn cache_fills_cross_topologies_when_results_identical() {
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        let text = "SELECT DISTINCT ?s WHERE { ?s a sie:MonitoringDevice }";

        p.set_federation_topology(FederationTopology::Replicated);
        let (cold_results, cold) = p.query_static_distributed_with_stats(text, 4).unwrap();
        assert_eq!(cold.cache_hits, 0);

        p.set_federation_topology(FederationTopology::AutoPartitioned);
        let (warm_results, warm) = p.query_static_distributed_with_stats(text, 4).unwrap();
        assert!(
            warm.cache_hits >= 1,
            "partitioned run reuses the replicated fill: {warm:?}"
        );
        assert_eq!(canon(&cold_results), canon(&warm_results));
    }

    /// Restricted executions cache under restriction-fingerprinted keys; the
    /// fingerprints match across topologies exactly when the restriction (and
    /// therefore the result subset) is identical — so a topology switch hits
    /// the warm entries and answers identically.
    #[test]
    fn restricted_cache_entries_survive_topology_switch() {
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        let text = "SELECT ?x ?s WHERE { { ?s a sie:TemperatureSensor } { ?x sie:inAssembly ?s } }";

        p.set_federation_topology(FederationTopology::Replicated);
        let (cold_results, cold) = p.query_static_distributed_with_stats(text, 2).unwrap();
        assert!(cold.semi_joins_pushed >= 1, "{cold:?}");

        p.set_federation_topology(FederationTopology::AutoPartitioned);
        let (warm_results, warm) = p.query_static_distributed_with_stats(text, 2).unwrap();
        assert_eq!(canon(&cold_results), canon(&warm_results));
        assert!(
            warm.cache_hits >= 1,
            "identical restriction → identical fingerprint → warm hit: {warm:?}"
        );
    }

    /// `insert_static` refreshes stats and bumps the written table's cache
    /// version. A solution set cached under the old shards must never
    /// be served afterwards — the next partitioned run recomputes over the new
    /// snapshot and sees the new rows.
    #[test]
    fn insert_static_repartitions_without_stale_cache() {
        let p = OptiquePlatform::from_siemens(SiemensDeployment::small());
        let text = "SELECT ?s WHERE { ?s a sie:Sensor }";
        let (before, cold) = p.query_static_distributed_with_stats(text, 4).unwrap();
        assert!(cold.cache_misses >= 1);

        // Insert a sensor row (new sid → lands on some shard after the
        // re-partition).
        let sensors = p.db().table("sensors").unwrap().clone();
        let sid_col = sensors.schema.index_of("sid").expect("sensors.sid");
        let mut row = sensors.rows[0].clone();
        row[sid_col] = Value::Int(77_777);
        p.insert_static("sensors", vec![row]).unwrap();

        let (after, fresh) = p.query_static_distributed_with_stats(text, 4).unwrap();
        assert_eq!(fresh.cache_hits, 0, "stale cache served: {fresh:?}");
        assert_eq!(
            after.len(),
            before.len() + 1,
            "the inserted sensor is visible through the re-partitioned shards"
        );
        assert_eq!(p.dashboard().bgp_cache_invalidations, 1);

        // And the re-partitioned pool still agrees with single-node.
        let single = p.query_static(text).unwrap();
        let distributed = p.query_static_distributed(text, 4).unwrap();
        assert_eq!(canon(&single), canon(&distributed));
    }

    // ---- property-based suite ----------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases(32)))]
        #[test]
        fn generated_queries_are_three_way_equivalent(text in query_strategy()) {
            let r = replicated();
            r.bgp_cache().invalidate();
            let reference = r.query_static(&text);
            prop_assert!(reference.is_ok(), "single-node failed for {}: {:?}", text, reference.err());
            let reference = reference.unwrap();

            let p = partitioned();
            for workers in WORKER_COUNTS {
                r.bgp_cache().invalidate();
                let over_replicas = r.query_static_distributed(&text, workers);
                prop_assert!(
                    over_replicas.is_ok(),
                    "{} workers replicated failed for {}: {:?}", workers, text, over_replicas.err()
                );
                prop_assert_eq!(
                    canon(&reference),
                    canon(&over_replicas.unwrap()),
                    "replicated ≠ single-node at {} workers for {}", workers, text
                );

                p.bgp_cache().invalidate();
                let over_shards = p.query_static_distributed(&text, workers);
                prop_assert!(
                    over_shards.is_ok(),
                    "{} workers partitioned failed for {}: {:?}", workers, text, over_shards.err()
                );
                prop_assert_eq!(
                    canon(&reference),
                    canon(&over_shards.unwrap()),
                    "partitioned ≠ single-node at {} workers for {}", workers, text
                );
            }
            r.bgp_cache().invalidate();
            p.bgp_cache().invalidate();
        }
    }
}

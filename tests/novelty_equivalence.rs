//! Novelty-overlay differential oracle: the write-heavy equivalence suite
//! for the incremental write path.
//!
//! **The oracle:** a platform taking inserts through the novelty overlay
//! — rows land in the in-memory novelty log, merges fold it into the base
//! catalog at arbitrary points — must be answer-indistinguishable from a
//! stop-the-world reference: a platform freshly *deployed* over the base
//! rows plus every row inserted so far, which has never seen a write. The
//! property suites generate interleavings of `insert → query → merge →
//! query …` and check every answer (single-node and across
//! 1/2/4/8-worker pools, direct and through the `optique::server` front
//! door) against the reference's single-node answer.
//!
//! A separate property pins the statistics side: the incrementally
//! maintained [`StatsCatalog`] (O(1) row-count deltas on append, per-table
//! re-analyze on merge) must equal a from-scratch analyze after any
//! append/merge history — so the partition-key advisor makes the same
//! choices it would have made with exact statistics.
//!
//! Generated-case count comes from `PROPTEST_CASES` (CI runs at 64).

mod common;

use std::sync::Arc;

use common::{canon, proptest_cases, streaming};
use optique::{OptiquePlatform, Server, ServerConfig};
use optique_relational::{advise_partition_keys, StatsCatalog, Value};
use proptest::prelude::*;

use streaming::SIE;

/// Worker-pool choices a query op draws from (`None` = single-node).
const POOLS: [Option<usize>; 5] = [None, Some(1), Some(2), Some(4), Some(8)];

/// First inserted sensor id (the fixture's base sensors stop at 63).
const FRESH_SID: i64 = 2_000;

/// The query corpus: a plain cached BGP, a two-entry UNION, a
/// planner-reordered join with a semi-join seam, an aggregate, and ASK.
fn corpus() -> Vec<String> {
    vec![
        format!("SELECT ?x WHERE {{ ?x a <{SIE}Sensor> }}"),
        format!(
            "SELECT DISTINCT ?x WHERE {{ {{ ?x a <{SIE}TemperatureSensor> }} \
             UNION {{ ?x a <{SIE}PressureSensor> }} }}"
        ),
        format!(
            "SELECT ?x ?s WHERE {{ {{ ?x <{SIE}inAssembly> ?s }} \
             {{ ?s a <{SIE}TemperatureSensor> }} }}"
        ),
        format!(
            "SELECT ?a (COUNT(?s) AS ?n) WHERE {{ ?a <{SIE}inAssembly> ?s }} \
             GROUP BY ?a ORDER BY DESC(?n) LIMIT 4"
        ),
        format!("ASK {{ ?x a <{SIE}PressureSensor> }}"),
    ]
}

/// One step of a generated interleaving.
#[derive(Clone, Debug)]
enum Op {
    /// Append `rows` fresh sensors (sequential sids, alternating kinds).
    Insert { rows: usize },
    /// Answer `corpus()[query]` on the subject over `workers` and compare
    /// with the reference's single-node answer.
    Query {
        query: usize,
        workers: Option<usize>,
    },
    /// Fold the subject's overlay now (the reference has none).
    Merge,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    // The vendored prop_oneof! is uniform; repeating options weights the
    // mix toward the write/query churn the oracle is about (~3:4:1).
    let insert = || (1usize..4usize).prop_map(|rows| Op::Insert { rows });
    let query = || {
        (0usize..5usize, 0usize..POOLS.len()).prop_map(|(query, p)| Op::Query {
            query,
            workers: POOLS[p],
        })
    };
    proptest::collection::vec(
        prop_oneof![
            insert(),
            insert(),
            insert(),
            query(),
            query(),
            query(),
            query(),
            Just(Op::Merge),
        ],
        1..16,
    )
}

/// The `k`-th fresh sensor row: `(sid, aid, kind)` with kinds alternating
/// so both UNION branches keep growing.
fn sensor_row(sid: i64) -> Vec<Value> {
    vec![
        Value::Int(sid),
        Value::Int(sid % 8),
        Value::text(if sid % 2 == 0 {
            "temperature"
        } else {
            "pressure"
        }),
    ]
}

/// The stop-the-world reference: a platform deployed from scratch over the
/// base rows plus `inserted`, independent of the platform's write path.
fn reference(inserted: &[Vec<Value>]) -> OptiquePlatform {
    streaming::deployment_with(streaming::ramp_stream(), inserted.to_vec())
}

/// Runs one interleaving on the subject (optionally behind a server);
/// every query answer must match a fresh deployment over the rows inserted
/// so far, and after a final fold the whole corpus must still agree.
fn run_case(ops: &[Op], served: bool) {
    let subject = Arc::new(streaming::deployment(streaming::ramp_stream()));
    let server = served.then(|| Server::serve(Arc::clone(&subject), ServerConfig::default()));
    let client = server.as_ref().map(|s| s.client("oracle"));
    let corpus = corpus();
    let mut inserted: Vec<Vec<Value>> = Vec::new();
    for op in ops {
        match op {
            Op::Insert { rows } => {
                let first = FRESH_SID + inserted.len() as i64;
                let batch: Vec<Vec<Value>> =
                    (first..first + *rows as i64).map(sensor_row).collect();
                inserted.extend(batch.iter().cloned());
                let n = match &client {
                    Some(c) => c.insert("sensors", batch).unwrap(),
                    None => subject.insert_static("sensors", batch).unwrap(),
                };
                assert_eq!(n, *rows);
            }
            Op::Query { query, workers } => {
                let text = &corpus[*query];
                let got = match (&client, workers) {
                    (Some(c), None) => c.query(text).unwrap(),
                    (Some(c), Some(w)) => c.query_distributed(text, *w).unwrap(),
                    (None, None) => subject.query_static(text).unwrap(),
                    (None, Some(w)) => subject.query_static_distributed(text, *w).unwrap(),
                };
                let want = reference(&inserted).query_static(text).unwrap();
                assert_eq!(
                    canon(&got),
                    canon(&want),
                    "query {query} (workers {workers:?}) diverged from the \
                     stop-the-world reference"
                );
            }
            Op::Merge => {
                match &client {
                    Some(c) => {
                        c.merge().unwrap();
                    }
                    None => {
                        subject.merge_now().unwrap();
                    }
                }
                assert_eq!(subject.novelty_depth(), 0);
            }
        }
    }
    // Fold whatever is left and sweep the whole corpus one last time —
    // single-node and sharded — against the reference.
    subject.merge_now().unwrap();
    let reference = reference(&inserted);
    for (i, text) in corpus.iter().enumerate() {
        let want = canon(&reference.query_static(text).unwrap());
        assert_eq!(
            canon(&subject.query_static(text).unwrap()),
            want,
            "final sweep q{i}"
        );
        assert_eq!(
            canon(&subject.query_static_distributed(text, 2).unwrap()),
            want,
            "final distributed sweep q{i}"
        );
    }
}

/// A history of append batches with optional merges in between, applied to
/// an overlay platform; returns it ready for the stats comparison.
fn apply_history(history: &[(usize, bool)]) -> OptiquePlatform {
    let p = streaming::deployment(streaming::ramp_stream());
    let mut next_sid = FRESH_SID;
    for (rows, merge_after) in history {
        let batch: Vec<Vec<Value>> = (0..*rows)
            .map(|_| {
                let row = sensor_row(next_sid);
                next_sid += 1;
                row
            })
            .collect();
        p.insert_static("sensors", batch).unwrap();
        if *merge_after {
            p.merge_now().unwrap();
        }
    }
    p.merge_now().unwrap();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

    #[test]
    fn interleaved_writes_match_stop_the_world_replay_direct(ops in ops_strategy()) {
        run_case(&ops, false);
    }

    #[test]
    fn interleaved_writes_match_stop_the_world_replay_served(ops in ops_strategy()) {
        run_case(&ops, true);
    }

    /// After any append/merge history, the incrementally maintained stats
    /// equal a from-scratch analyze of the folded catalog — so the
    /// partition-key advisor's choices are identical to what exact
    /// statistics would produce.
    #[test]
    fn incremental_stats_never_drift_from_scratch_analyze(
        history in proptest::collection::vec((1usize..6usize, any::<bool>()), 1..10)
    ) {
        let p = apply_history(&history);
        let incremental = p.table_stats();
        let fresh = StatsCatalog::analyze(&p.db());
        prop_assert_eq!(&*incremental, &fresh);
        // The advisor sees the same world through either catalog.
        let usage = [
            ("sensors".to_string(), "sid".to_string(), 3usize),
            ("sensors".to_string(), "aid".to_string(), 2usize),
            ("assemblies".to_string(), "aid".to_string(), 1usize),
        ];
        prop_assert_eq!(
            advise_partition_keys(&incremental, &usage, 16),
            advise_partition_keys(&fresh, &usage, 16)
        );
    }
}

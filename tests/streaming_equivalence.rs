//! Distributed STARQL window execution, proven by a **differential
//! oracle**: for every continuous query — a fixed suite plus the
//! property-based generator in `tests/common` — the *output stream* of
//! distributed ticks (windows compiled to plan fragments, scattered over a
//! stream-partitioned federation, stream-key semi-joins pushed when the
//! safety analysis admits them) must be identical to single-node ticks at
//! 1, 2, 4 and 8 workers: same window ids, same satisfied bindings, same
//! CONSTRUCT triples at every pulse instant.
//!
//! Alongside the oracle, the suite pins down that the machinery actually
//! engages: windows ship as fragments over partitioned streams, a
//! FILTER-narrowed stream-static join pushes its key list into the window
//! fragment (`semi_joins_pushed > 0`) and prunes stream shards
//! (`shards_pruned > 0`), restriction-unsafe formulas fall back to
//! unrestricted scatter without changing answers, shared windows are
//! shipped once across queries, and stream writes re-partition the pools.
//!
//! A second oracle pins the window cache's key: programs of one slide and
//! different ranges, ticked through one platform's shared cache, answer
//! exactly as each does on a platform — and a cache — of its own.

mod common;

use common::proptest_cases;
use common::streaming::{self, StreamingCase};
use optique_rdf::Triple;
use optique_starql::TickOutput;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Pulse instants the oracle ticks over (the generated streams live in
/// `600s..612s`; one extra tick past the end covers empty trailing
/// windows).
fn tick_instants() -> impl Iterator<Item = i64> {
    (600_000..=613_000).step_by(1_000)
}

fn canon_triples(triples: &[Triple]) -> Vec<String> {
    let mut out: Vec<String> = triples.iter().map(|t| format!("{t:?}")).collect();
    out.sort();
    out
}

/// The comparable slice of one tick: everything that defines the output
/// stream. Shipping accounting (`tuples_in_window`, `states`,
/// `stream_rows_shipped`, …) legitimately differs between backends — a
/// restricted window evaluates fewer tuples — and is asserted separately.
fn output_stream(tick: &TickOutput) -> (u64, usize, usize, Vec<String>) {
    (
        tick.window_id,
        tick.satisfied,
        tick.bindings_checked,
        canon_triples(&tick.triples),
    )
}

/// Asserts single-node ≡ distributed output streams for one program over
/// one stream, at every worker count.
fn assert_streaming_equivalent(case: &StreamingCase) {
    let single = streaming::deployment(case.rows.clone());
    single
        .register_starql(&case.text)
        .unwrap_or_else(|e| panic!("single-node registration failed for\n{}\n{e}", case.text));
    let reference: Vec<(u64, usize, usize, Vec<String>)> = tick_instants()
        .map(|t| output_stream(&single.tick_all(t).unwrap()[0].1))
        .collect();

    for workers in WORKER_COUNTS {
        let distributed = streaming::deployment(case.rows.clone());
        distributed
            .register_starql_distributed(&case.text, workers)
            .unwrap_or_else(|e| {
                panic!(
                    "{workers}-worker registration failed for\n{}\n{e}",
                    case.text
                )
            });
        for (instant, expected) in tick_instants().zip(&reference) {
            let outputs = distributed.tick_all(instant).unwrap_or_else(|e| {
                panic!(
                    "{workers}-worker tick {instant} failed for\n{}\n{e}",
                    case.text
                )
            });
            assert_eq!(
                &output_stream(&outputs[0].1),
                expected,
                "{workers}-worker tick {instant} diverged for\n{}",
                case.text
            );
        }
    }
}

// Tests live in a module named after the suite so a bare
// `cargo test streaming_equivalence` filter selects them all.
mod streaming_equivalence {
    use super::*;

    /// Handwritten programs: the Figure 1 macro, thresholds, failure
    /// events, FILTER-narrowed joins, UNION WHERE clauses, and both
    /// restriction-unsafe shapes (negation, HAVING-local subject).
    #[test]
    fn fixed_suite_is_equivalent() {
        let rows = streaming::ramp_stream();
        for shape in 0..7 {
            let case = StreamingCase {
                text: streaming::program(shape, 10, 1, true, 3),
                rows: rows.clone(),
            };
            assert_streaming_equivalent(&case);
        }
        // A tumbling window (slide == range) and a no-pulse grid.
        assert_streaming_equivalent(&StreamingCase {
            text: streaming::program(1, 2, 2, false, 12),
            rows: rows.clone(),
        });
        // An empty stream: every window is empty everywhere.
        assert_streaming_equivalent(&StreamingCase {
            text: streaming::program(2, 5, 1, true, 0),
            rows: Vec::new(),
        });
    }

    /// The acceptance case: a stream-static join whose FILTER narrows the
    /// monitored sensors to a couple of keys. The window fragment carries
    /// the key list as a semi-join (`semi_joins_pushed > 0`) and key
    /// routing skips the stream shards that cannot hold those keys
    /// (`shards_pruned > 0`) — while the alarms match single-node exactly.
    #[test]
    fn narrowed_join_pushes_keys_and_prunes_stream_shards() {
        let text = streaming::program(3, 10, 1, true, 1); // FILTER(?n < 2)
        let case = StreamingCase {
            text: text.clone(),
            rows: streaming::ramp_stream(),
        };
        assert_streaming_equivalent(&case);

        let p = streaming::deployment(case.rows.clone());
        p.register_starql_distributed(&text, 8).unwrap();
        let outputs = p.tick_all(609_000).unwrap();
        let tick = &outputs[0].1;
        assert_eq!(tick.bindings_checked, 2, "serials 0 and 1 pass the FILTER");
        assert_eq!(tick.window_fragments, 1, "the window shipped as a fragment");
        assert!(
            tick.semi_joins_pushed > 0,
            "the key list rode the fragment: {tick:?}"
        );
        assert!(
            tick.shards_pruned > 0,
            "2 keys over 8 stream shards must skip some: {tick:?}"
        );
        assert!(
            tick.stream_rows_shipped < streaming::ramp_stream().len(),
            "restriction ships a subset: {tick:?}"
        );
        // The panels surface the same story.
        let dash = p.dashboard();
        assert!(dash.panels[0].semi_joins_pushed > 0);
        assert!(dash.total_stream_shards_pruned() > 0);
    }

    /// Restriction-unsafe formulas (negation) still scatter over the
    /// stream shards — just unrestricted: every worker slices its shard of
    /// the full window.
    #[test]
    fn unsafe_formula_scatters_unrestricted() {
        let text = streaming::program(5, 5, 1, true, 0); // NOT EXISTS …
        let p = streaming::deployment(streaming::ramp_stream());
        p.register_starql_distributed(&text, 4).unwrap();
        let outputs = p.tick_all(605_000).unwrap();
        let tick = &outputs[0].1;
        assert_eq!(tick.semi_joins_pushed, 0, "no key list: {tick:?}");
        assert_eq!(tick.window_fragments, 1);
        assert_eq!(
            tick.partitioned_fragments, 1,
            "the window scattered over the stream shards: {tick:?}"
        );
        assert_eq!(
            tick.stream_rows_shipped, tick.tuples_in_window,
            "scatter ships each window row exactly once, not per worker"
        );
    }

    /// Two distributed queries with the same window spec share one shipped
    /// window through the cache: the second query's tick ships nothing.
    #[test]
    fn shared_windows_ship_once() {
        let text = streaming::program(5, 10, 1, true, 0);
        let p = streaming::deployment(streaming::ramp_stream());
        p.register_starql_distributed(&text, 4).unwrap();
        p.register_starql_distributed(&text, 4).unwrap();
        let outputs = p.tick_all(606_000).unwrap();
        let shipped: Vec<usize> = outputs.iter().map(|(_, t)| t.window_fragments).collect();
        assert_eq!(shipped.iter().sum::<usize>(), 1, "one fragment for both");
        assert!(p.wcache().hits() >= 1);
    }

    /// The window-cache key oracle. Programs that share a slide agree on
    /// every window *id* and — with different ranges — on no window's rows:
    /// a cache keyed by id hands the 5 s and 10 s programs the 2 s window
    /// whichever ticked it first built. Each program must answer through
    /// the shared cache exactly as alone, while programs asking for the
    /// same window still share it.
    #[test]
    fn shared_cache_equals_private_caches_across_ranges() {
        let rows = streaming::ramp_stream();
        let programs = [
            streaming::program(2, 2, 1, true, 0),   // failure events, 2 s
            streaming::program(2, 5, 1, true, 0),   // …5 s
            streaming::program(4, 10, 1, true, 25), // any reading ≥ 85, 10 s
            streaming::program(0, 10, 1, true, 0),  // Figure 1, 10 s
            streaming::program(2, 4, 2, true, 0),   // another slide
        ];
        let shared = streaming::deployment(rows.clone());
        let private: Vec<_> = programs
            .iter()
            .map(|text| {
                shared.register_starql(text).unwrap();
                let alone = streaming::deployment(rows.clone());
                alone.register_starql(text).unwrap();
                alone
            })
            .collect();
        let mut alarms = vec![0; programs.len()];
        for instant in tick_instants() {
            let together = shared.tick_all(instant).unwrap();
            for (i, alone) in private.iter().enumerate() {
                let alone = alone.tick_all(instant).unwrap();
                assert_eq!(
                    output_stream(&together[i].1),
                    output_stream(&alone[0].1),
                    "program {i} diverged at tick {instant}"
                );
                alarms[i] += alone[0].1.satisfied;
            }
        }
        assert!(
            alarms.iter().all(|&n| n > 0) && alarms[0] < alarms[1],
            "every program fires, the wider range more often: {alarms:?}"
        );
        assert!(
            shared.wcache().hits() > 0,
            "the two 10 s programs share their windows"
        );
    }

    /// A stream write lands in later windows on both backends: pools
    /// re-partition the appended stream and ticks stay equivalent.
    #[test]
    fn stream_writes_repartition_and_stay_equivalent() {
        let text = streaming::program(2, 5, 1, true, 0); // failure events
        let rows = streaming::ramp_stream();
        let single = streaming::deployment(rows.clone());
        let distributed = streaming::deployment(rows);
        single.register_starql(&text).unwrap();
        distributed.register_starql_distributed(&text, 4).unwrap();

        let appended: Vec<Vec<optique_relational::Value>> = (0..streaming::STREAM_SENSORS)
            .map(|s| streaming::msmt(614_000, s, 50.0, true))
            .collect();
        single.insert_static("S_Msmt", appended.clone()).unwrap();
        distributed.insert_static("S_Msmt", appended).unwrap();

        for instant in [614_000, 615_000] {
            let s = output_stream(&single.tick_all(instant).unwrap()[0].1);
            let d = output_stream(&distributed.tick_all(instant).unwrap()[0].1);
            assert_eq!(s, d, "post-write tick {instant}");
        }
        // The planted failures actually fire after the write.
        let last = single.tick_all(616_000).unwrap()[0].1.clone();
        assert!(last.window_id > 0);
    }

    /// Repeated ticks of the same distributed query ship one window
    /// fragment per round, and the per-tick fragments land on the
    /// dashboard.
    #[test]
    fn tick_rounds_ship_a_window_fragment_each_onto_the_dashboard() {
        let text = streaming::program(1, 5, 1, true, 7);
        let p = streaming::deployment(streaming::ramp_stream());
        p.register_starql_distributed(&text, 4).unwrap();
        for instant in tick_instants() {
            p.tick_all(instant).unwrap();
        }
        let dash = p.dashboard();
        assert_eq!(dash.panels[0].ticks, tick_instants().count() as u64);
        assert!(dash.panels[0].window_fragments > 1);
        assert!(dash.panels[0].stream_rows > 0);
    }

    // ---- generated suite -----------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases(12)))]

        /// Generated programs over generated streams: distributed ticks
        /// (1/2/4/8 workers) reproduce single-node output streams exactly.
        #[test]
        fn generated_programs_are_equivalent(case in streaming::case_strategy()) {
            assert_streaming_equivalent(&case);
        }
    }
}

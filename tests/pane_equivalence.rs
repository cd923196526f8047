//! Incremental window aggregation, proven by a **differential oracle**:
//! for every aggregate-HAVING continuous query — a fixed suite plus the
//! property-based generator in `tests/common` — three backends must emit
//! identical output streams at every pulse instant:
//!
//! 1. single-node ticks (the reference),
//! 2. distributed ticks answering from **shard-local pane partials**
//!    (the default once the pane analysis accepts the HAVING tree), and
//! 3. distributed ticks with pane aggregation disabled, i.e. full-window
//!    rescans (`set_pane_aggregation(false)`),
//!
//! at 1, 2, 4 and 8 workers. Alongside the oracle, the suite pins down
//! that the pane path actually engages on combinable trees (warm ticks
//! hit the per-shard pane stores), that mixed aggregate/graph HAVING
//! trees are *declined* and fall back to full-window shipping without
//! changing answers, that IStream/DStream delta modes stay equivalent
//! while genuinely emitting deltas, and that mid-stream appends — both
//! novelty-overlay writes and `append_stream`-driven ticking — keep the
//! backends in agreement, and that a warm pane tick's work does not grow
//! with the window range while a rescan's does.
//!
//! Generated streams carry whole-numbered values only: whole-valued f64
//! sums are exact, so pane-merge order cannot flip a SUM/AVG threshold
//! and every divergence the oracle reports is a real bug.

mod common;

use common::proptest_cases;
use common::streaming::{self, StreamingCase};
use optique::OptiquePlatform;
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
/// stream. Shipping accounting (`tuples_in_window`, `pane_hits`, …)
/// legitimately differs between backends and is asserted separately.
fn output_stream(tick: &TickOutput) -> (u64, usize, usize, Vec<String>) {
    (
        tick.window_id,
        tick.satisfied,
        tick.bindings_checked,
        canon_triples(&tick.triples),
    )
}

/// Registers `text` distributed over `workers`, optionally disabling the
/// pane path so ticks rescan full windows.
fn distributed(case: &StreamingCase, workers: usize, panes: bool) -> OptiquePlatform {
    let p = streaming::deployment(case.rows.clone());
    p.register_starql_distributed(&case.text, workers)
        .unwrap_or_else(|e| {
            panic!(
                "{workers}-worker registration failed for\n{}\n{e}",
                case.text
            )
        });
    if !panes {
        p.set_pane_aggregation(false);
    }
    p
}

/// Asserts single-node ≡ pane-distributed ≡ rescan-distributed output
/// streams for one program over one stream, at every worker count.
fn assert_pane_equivalent(case: &StreamingCase) {
    let single = streaming::deployment(case.rows.clone());
    single
        .register_starql(&case.text)
        .unwrap_or_else(|e| panic!("single-node registration failed for\n{}\n{e}", case.text));
    let reference: Vec<(u64, usize, usize, Vec<String>)> = tick_instants()
        .map(|t| output_stream(&single.tick_all(t).unwrap()[0].1))
        .collect();

    for workers in WORKER_COUNTS {
        for panes in [true, false] {
            let arm = if panes { "pane" } else { "rescan" };
            let p = distributed(case, workers, panes);
            for (instant, expected) in tick_instants().zip(&reference) {
                let outputs = p.tick_all(instant).unwrap_or_else(|e| {
                    panic!(
                        "{workers}-worker {arm} tick {instant} failed for\n{}\n{e}",
                        case.text
                    )
                });
                assert_eq!(
                    &output_stream(&outputs[0].1),
                    expected,
                    "{workers}-worker {arm} tick {instant} diverged for\n{}",
                    case.text
                );
            }
        }
    }
}

// Tests live in a module named after the suite so a bare
// `cargo test pane_equivalence` filter selects them all.
mod pane_equivalence {
    use super::*;

    /// Handwritten programs: COUNT/SUM/AVG/MIN/MAX thresholds, the
    /// AND/NOT combination, and the declined mixed aggregate/graph tree —
    /// each proven equivalent across all three backends.
    #[test]
    fn fixed_suite_is_equivalent() {
        let rows = streaming::ramp_stream();
        for shape in 0..7 {
            assert_pane_equivalent(&StreamingCase {
                text: streaming::agg_program(shape, "", 10, 1, true, 3),
                rows: rows.clone(),
            });
        }
        // A tumbling window (slide == range) and a no-pulse grid: pane
        // width degenerates to the full range.
        assert_pane_equivalent(&StreamingCase {
            text: streaming::agg_program(1, "", 2, 2, false, 12),
            rows: rows.clone(),
        });
        // An empty stream: every group aggregate is absent everywhere.
        assert_pane_equivalent(&StreamingCase {
            text: streaming::agg_program(2, "", 5, 1, true, 0),
            rows: Vec::new(),
        });
    }

    /// The pane path genuinely engages on a combinable tree: warm ticks
    /// answer from the per-shard pane stores (`pane_hits > 0`), and the
    /// platform counters mirror the panel.
    #[test]
    fn combinable_tree_answers_from_panes() {
        let case = StreamingCase {
            text: streaming::agg_program(4, "", 10, 1, true, 30), // MAX ≥ 85
            rows: streaming::ramp_stream(),
        };
        let p = distributed(&case, 4, true);
        for instant in tick_instants() {
            p.tick_all(instant).unwrap();
        }
        let panel = &p.dashboard().panels[0];
        assert!(
            panel.pane_hits > 0,
            "warm ticks must hit the pane stores: {panel:?}"
        );
        assert!(panel.pane_hits + panel.pane_misses > 0);
    }

    /// A mixed aggregate/graph HAVING tree is declined by the pane
    /// analysis: no pane traffic at all, full windows ship instead — and
    /// the fallback was already proven equivalent by the fixed suite.
    #[test]
    fn declined_analysis_falls_back_to_window_shipping() {
        let case = StreamingCase {
            text: streaming::agg_program(6, "", 10, 1, true, 30), // AVG ∧ EXISTS
            rows: streaming::ramp_stream(),
        };
        let p = distributed(&case, 4, true);
        for instant in tick_instants() {
            p.tick_all(instant).unwrap();
        }
        let panel = &p.dashboard().panels[0];
        assert_eq!(
            panel.pane_hits + panel.pane_misses,
            0,
            "declined trees must not touch panes: {panel:?}"
        );
        assert!(
            panel.window_fragments > 0,
            "the fallback ships full windows: {panel:?}"
        );
    }

    /// Disabling pane aggregation is a true kill switch: even a
    /// combinable tree rescans full windows with zero pane traffic.
    #[test]
    fn kill_switch_forces_full_rescans() {
        let case = StreamingCase {
            text: streaming::agg_program(4, "", 10, 1, true, 30),
            rows: streaming::ramp_stream(),
        };
        let p = distributed(&case, 4, false);
        for instant in tick_instants() {
            p.tick_all(instant).unwrap();
        }
        let panel = &p.dashboard().panels[0];
        assert_eq!(panel.pane_hits + panel.pane_misses, 0, "{panel:?}");
        assert!(panel.window_fragments > 0, "{panel:?}");
    }

    /// IStream/DStream delta modes stay equivalent across backends while
    /// genuinely emitting deltas. With `MAX ≥ 85` over the ramp, the odd
    /// (falling) sensors satisfy from the first window and drop out once
    /// their in-window maximum decays below the threshold — so IStream
    /// fires a burst up front then goes quiet, and DStream is quiet up
    /// front then fires a deletion burst. Each backend holds its own
    /// differ state, ticked in lockstep from scratch.
    #[test]
    fn delta_modes_are_equivalent_and_emit_deltas() {
        // Tick past the stream's end so windows decay and empty out.
        let instants = || (600_000..=622_000).step_by(1_000);
        for mode in ["ISTREAM", "DSTREAM"] {
            let case = StreamingCase {
                text: streaming::agg_program(4, mode, 10, 1, true, 30), // MAX ≥ 85
                rows: streaming::ramp_stream(),
            };
            let single = streaming::deployment(case.rows.clone());
            single.register_starql(&case.text).unwrap();
            let reference: Vec<_> = instants()
                .map(|t| output_stream(&single.tick_all(t).unwrap()[0].1))
                .collect();

            let bursts = reference
                .iter()
                .filter(|(_, _, _, triples)| !triples.is_empty())
                .count();
            let quiet_while_satisfied = reference
                .iter()
                .filter(|(_, satisfied, _, triples)| *satisfied > 0 && triples.is_empty())
                .count();
            assert!(bursts > 0, "{mode} never emitted a delta");
            assert!(
                quiet_while_satisfied > 0,
                "{mode} must stay quiet while the relation is stable"
            );

            for workers in WORKER_COUNTS {
                for panes in [true, false] {
                    let p = distributed(&case, workers, panes);
                    for (instant, expected) in instants().zip(&reference) {
                        assert_eq!(
                            &output_stream(&p.tick_all(instant).unwrap()[0].1),
                            expected,
                            "{mode} {workers}-worker (panes={panes}) tick {instant} diverged"
                        );
                    }
                }
            }
        }
    }

    /// Novelty-overlay writes land mid-stream: rows inserted after
    /// registration stay in the unmerged overlay (`novelty_depth > 0`)
    /// yet appear in every subsequent window on all backends — the pane
    /// fragments read the same epoch-pinned view the reference does.
    #[test]
    fn mid_stream_novelty_appends_stay_equivalent() {
        let case = StreamingCase {
            text: streaming::agg_program(4, "", 10, 1, true, 30), // MAX ≥ 85
            rows: streaming::ramp_stream(),
        };
        let single = streaming::deployment(case.rows.clone());
        single.register_starql(&case.text).unwrap();
        let dist = distributed(&case, 4, true);

        // Warm both backends over the base stream.
        for instant in tick_instants() {
            let s = output_stream(&single.tick_all(instant).unwrap()[0].1);
            let d = output_stream(&dist.tick_all(instant).unwrap()[0].1);
            assert_eq!(s, d, "pre-append tick {instant}");
        }

        // Append hot readings for the even (previously sub-threshold)
        // sensors; the write path keeps them as a novelty overlay.
        let appended: Vec<Vec<optique_relational::Value>> = (613..=616)
            .flat_map(|sec| {
                (0..streaming::STREAM_SENSORS)
                    .filter(|s| s % 2 == 0)
                    .map(move |s| streaming::msmt(sec * 1_000, s, 95.0, false))
            })
            .collect();
        single.insert_static("S_Msmt", appended.clone()).unwrap();
        dist.insert_static("S_Msmt", appended).unwrap();
        assert!(
            dist.novelty_depth() > 0,
            "appended rows must be served from the unmerged overlay"
        );

        let mut post_append_alarms = 0;
        for instant in (614_000..=618_000).step_by(1_000) {
            let s = single.tick_all(instant).unwrap()[0].1.clone();
            let d = dist.tick_all(instant).unwrap()[0].1.clone();
            assert_eq!(
                output_stream(&s),
                output_stream(&d),
                "post-append tick {instant}"
            );
            post_append_alarms += s.satisfied;
        }
        assert!(
            post_append_alarms > 0,
            "the overlay rows must push even sensors over the threshold"
        );
    }

    /// Append-driven ticking matches across backends: the same
    /// `append_stream` call drives the same closed windows on a
    /// single-node and a pane-distributed deployment, producing identical
    /// output streams without any external pulse.
    #[test]
    fn append_driven_ticks_are_equivalent_across_backends() {
        let case = StreamingCase {
            text: streaming::agg_program(4, "", 10, 1, true, 30), // MAX ≥ 85
            rows: streaming::ramp_stream(),
        };
        let single = streaming::deployment(case.rows.clone());
        single.register_starql(&case.text).unwrap();
        let dist = distributed(&case, 4, true);

        let appended: Vec<Vec<optique_relational::Value>> = (613..=617)
            .flat_map(|sec| {
                (0..streaming::STREAM_SENSORS)
                    .map(move |s| streaming::msmt(sec * 1_000, s, 90.0, false))
            })
            .collect();
        let s_driven = single.append_stream("S_Msmt", appended.clone()).unwrap();
        let d_driven = dist.append_stream("S_Msmt", appended).unwrap();

        assert!(!s_driven.is_empty(), "the append must drive ticks");
        assert_eq!(s_driven.len(), d_driven.len(), "same driven window count");
        for ((s_id, s_tick), (d_id, d_tick)) in s_driven.iter().zip(&d_driven) {
            assert_eq!(s_id, d_id);
            assert_eq!(
                output_stream(s_tick),
                output_stream(d_tick),
                "driven window {} diverged",
                s_tick.window_id
            );
        }
        assert!(
            s_driven.iter().any(|(_, t)| t.satisfied > 0),
            "the hot appended readings must raise alarms"
        );
    }

    /// Warm pane ticks cost O(slide), not O(range): the additive `SUM`
    /// program at ranges of 2, 20 and 200 s with a 1 s slide does the same
    /// per-tick work at every range once warm — no pane store folds from
    /// scratch and the same rows come back from the workers — while its
    /// rescan twin evaluates a window that grows with the range.
    #[test]
    fn warm_pane_ticks_do_not_grow_with_the_range() {
        const RANGES_S: [i64; 3] = [2, 20, 200];
        const WARMUP: i64 = 3;
        const MEASURED: i64 = 20;
        // 1 Hz, long enough that the widest window plus every measured
        // tick stays inside the data.
        let rows: Vec<_> = (0..260)
            .flat_map(|sec| {
                (0..streaming::STREAM_SENSORS).map(move |sensor| {
                    let value = (40 + (sec + sensor * 7) % 50) as f64;
                    streaming::msmt(600_000 + sec * 1_000, sensor, value, false)
                })
            })
            .collect();
        for workers in [1, 4] {
            let mut pane_work = Vec::new();
            let mut rescan_tuples = Vec::new();
            for range_s in RANGES_S {
                let case = StreamingCase {
                    text: streaming::agg_program(1, "", range_s, 1, true, 0), // SUM ≥ 275
                    rows: rows.clone(),
                };
                let warm_ticks = |panes: bool| -> Vec<TickOutput> {
                    let p = distributed(&case, workers, panes);
                    let first = 600_000 + range_s * 1_000;
                    (0..WARMUP + MEASURED)
                        .map(|k| p.tick_all(first + k * 1_000).unwrap().remove(0).1)
                        .skip(WARMUP as usize)
                        .collect()
                };
                let pane = warm_ticks(true);
                assert!(
                    pane.iter().all(|t| t.pane_hits > 0),
                    "{workers} worker(s), {range_s} s: warm ticks answer from panes"
                );
                pane_work.push(
                    pane.iter()
                        .map(|t| (t.pane_misses, t.stream_rows_shipped))
                        .collect::<Vec<_>>(),
                );
                let rescan = warm_ticks(false);
                assert!(rescan.iter().all(|t| t.pane_hits + t.pane_misses == 0));
                rescan_tuples.push(rescan.iter().map(|t| t.tuples_in_window).sum::<usize>());
            }
            assert!(
                pane_work.iter().all(|work| *work == pane_work[0]),
                "{workers} worker(s): pane work per tick varies with the range: {pane_work:?}"
            );
            assert!(
                pane_work[0].iter().all(|&(misses, _)| misses == 0),
                "{workers} worker(s): a warm tick folded from scratch: {pane_work:?}"
            );
            assert!(
                rescan_tuples.windows(2).all(|w| w[1] == w[0] * 10),
                "{workers} worker(s): a rescan evaluates the whole range: {rescan_tuples:?}"
            );
        }
    }

    // ---- generated suite -----------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases(8)))]

        /// Generated aggregate programs (all five aggregates, AND/NOT
        /// combinations, the declined mixed shape, every output mode)
        /// over generated whole-valued streams: pane-distributed and
        /// rescan-distributed ticks (1/2/4/8 workers) reproduce
        /// single-node output streams exactly.
        #[test]
        fn generated_agg_programs_are_equivalent(case in streaming::pane_case_strategy()) {
            assert_pane_equivalent(&case);
        }
    }
}

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
//! backends in agreement, that a warm pane tick's work does not grow
//! with the window range while a rescan's does (pulsed and append-driven,
//! the latter counted in accumulator operations), and that hundreds of
//! appends — extrema sliding out, late rows, keys coming and going, merges
//! mid-run — never let the pane stores' cached windows drift from a rescan.
//!
//! Generated streams carry whole-numbered values only: whole-valued f64
//! sums are exact, so pane-merge order cannot flip a SUM/AVG threshold
//! and every divergence the oracle reports is a real bug.

mod common;

use common::proptest_cases;
use common::streaming::{self, StreamingCase};
use optique::telemetry::AttrValue;
use optique::OptiquePlatform;
use optique_rdf::Triple;
use optique_relational::Value;
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

/// The accumulator operations a pane tick's workers performed: the
/// `acc_ops` attribute of its `pane_combine` span.
fn acc_ops(tick: &TickOutput) -> u64 {
    let span = tick.spans.iter().find(|s| s.label == "pane_combine");
    let attr = span.and_then(|s| s.attrs.iter().find(|(key, _)| key == "acc_ops"));
    match attr {
        Some((_, AttrValue::Uint(ops))) => *ops,
        other => panic!("pane ticks record acc_ops, got {other:?}"),
    }
}

/// One append-driven run: ten programs — COUNT/SUM/AVG/MIN/MAX at two
/// ranges with a 1 s slide, so all ten share one pane grid — over a stream
/// that arrives batch by batch through `append_stream`.
struct AppendRun {
    ranges_s: [i64; 2],
    /// Threshold knob of each aggregate shape (`streaming::agg_program`).
    knobs: [i64; 5],
    /// Rows the stream table holds at deployment.
    history: Vec<Vec<Value>>,
    batches: Vec<Vec<Vec<Value>>>,
    /// Ops after which every platform is told to merge, beside whatever
    /// its own trigger decides.
    merge_after: Vec<usize>,
}

impl AppendRun {
    fn programs(&self) -> Vec<String> {
        let mut programs = Vec::new();
        for range_s in self.ranges_s {
            for (shape, &knob) in self.knobs.iter().enumerate() {
                programs.push(streaming::agg_program(shape, "", range_s, 1, true, knob));
            }
        }
        programs
    }

    /// Drives the run through a single-node platform and, per worker
    /// count, a pane and a rescan platform, asserting identical output
    /// streams at *every* driven tick. Returns how many appends merged on
    /// their own (the same on every platform: same rows, same rule).
    fn assert_equivalent(&self, worker_counts: &[usize]) -> usize {
        let programs = self.programs();
        let single = streaming::deployment(self.history.clone());
        for text in &programs {
            single.register_starql(text).unwrap();
        }
        let mut arms = Vec::new();
        for &workers in worker_counts {
            for panes in [true, false] {
                let p = streaming::deployment(self.history.clone());
                for text in &programs {
                    p.register_starql_distributed(text, workers).unwrap();
                }
                if !panes {
                    p.set_pane_aggregation(false);
                }
                let arm = if panes { "pane" } else { "rescan" };
                arms.push((format!("{workers}-worker {arm}"), p));
            }
        }
        let driven = |p: &OptiquePlatform, batch: &[Vec<Value>]| -> Vec<_> {
            (p.append_stream("S_Msmt", batch.to_vec()).unwrap().iter())
                .map(|(id, tick)| (*id, output_stream(tick)))
                .collect()
        };
        let (mut merges, mut ticks, mut alarms) = (0, 0, 0);
        for (op, batch) in self.batches.iter().enumerate() {
            let expected = driven(&single, batch);
            ticks += expected.len();
            alarms += expected.iter().map(|(_, out)| out.1).sum::<usize>();
            let merged = !batch.is_empty() && single.novelty_depth() == 0;
            merges += merged as usize;
            for (arm, p) in &arms {
                assert_eq!(driven(p, batch), expected, "{arm} diverged at op {op}");
                assert_eq!(
                    !batch.is_empty() && p.novelty_depth() == 0,
                    merged,
                    "{arm} merges where single-node does (op {op})"
                );
            }
            if self.merge_after.contains(&op) {
                for p in arms.iter().map(|(_, p)| p).chain([&single]) {
                    p.merge_now().unwrap();
                }
            }
        }
        assert!(
            ticks == 0 || alarms > 0,
            "vacuous: no tick of the run raised an alarm"
        );
        for (arm, p) in &arms {
            let probes: u64 = (p.dashboard().panels.iter())
                .map(|panel| panel.pane_hits + panel.pane_misses)
                .sum();
            assert_eq!(probes > 0, arm.ends_with("pane") && ticks > 0, "{arm}");
        }
        merges
    }
}

/// The handwritten long run: 16 sensors reporting twice a second for 260
/// seconds, shaped so that every hazard of a cached window comes up
/// repeatedly.
///
/// * **Extrema leave, ties included.** Ambient readings sit in `56..=70`;
///   each sensor spikes to 99 in two seconds two apart, every nine
///   seconds, and dips to 1 likewise every eleven. Under the 4 s window
///   the pair is inside together, so the first spike leaving must *not*
///   lower the maximum (a tie held by two panes) and the second must.
/// * **Late rows.** The half-second reading of every second is late
///   within the newest pane; every tenth second one sensor also gets a
///   99 stamped 2.5 s back (a pane inside both cached windows) and a 0
///   stamped 20 s back (a pane both have left).
/// * **Keys come and go.** Sensor 5 is silent for seconds 60–89, longer
///   than the widest window; sensor 9 first reports in second 100.
/// * **Merges.** 32 rows a second pass the 4096-row floor (and the share
///   of a table that small) at op ≈ 128 and again at ≈ 256.
fn long_run() -> AppendRun {
    const START_MS: i64 = 600_000;
    const HISTORY_S: i64 = 30;
    let second = |sec: i64| -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for s in 0..streaming::STREAM_SENSORS {
            if (s == 5 && (60..90).contains(&sec)) || (s == 9 && sec < 100) {
                continue;
            }
            let ambient = (56 + (sec * 13 + s * 7) % 14) as f64;
            let value = match ((sec + s) % 9, (sec + 2 * s) % 11) {
                (0 | 2, _) => 99.0,
                (_, 0 | 3) => 1.0,
                _ => ambient,
            };
            let ts = START_MS + sec * 1_000;
            rows.push(streaming::msmt(ts, s, value, false));
            rows.push(streaming::msmt(ts - 500, s, ambient + 1.0, false));
        }
        if sec % 10 == 4 {
            let s = (sec / 10) % streaming::STREAM_SENSORS;
            let ts = START_MS + sec * 1_000;
            rows.push(streaming::msmt(ts - 2_500, s, 99.0, false));
            rows.push(streaming::msmt(ts - 20_000, s, 0.0, false));
        }
        rows
    };
    AppendRun {
        ranges_s: [4, 12],
        // COUNT ≥ 7, SUM ≥ 470, AVG ≥ 62, MIN ≥ 55, MAX ≥ 90: each
        // straddled by what the windows hold.
        knobs: [6, 39, 7, 0, 35],
        history: (0..HISTORY_S).flat_map(second).collect(),
        batches: (HISTORY_S..HISTORY_S + 260).map(second).collect(),
        merge_after: Vec::new(),
    }
}

/// Generated runs of the same shapes: few sensors and few distinct
/// values, so ties, vanishing keys and departing extrema are the norm;
/// rows arrive on time, late inside the cached windows, or after every
/// window has left their pane; seconds may bring nothing at all (the next
/// append then closes several windows at once); explicit merges rebuild
/// the pools mid-run.
fn append_run_strategy() -> impl Strategy<Value = (AppendRun, usize)> {
    const START_MS: i64 = 600_000;
    // (sensor, value class, lateness class, sub-second offset)
    let row = (0i64..5, 0usize..6, 0usize..8, 0i64..4);
    let batch = proptest::collection::vec(row, 0..7);
    (
        prop_oneof![Just([2i64, 5]), Just([3, 10]), Just([4, 12])],
        proptest::collection::vec(0i64..100, 5),
        proptest::collection::vec(batch, 30..60),
        proptest::collection::vec(0usize..60, 0..3),
        prop_oneof![Just(1usize), Just(2), Just(4)],
    )
        .prop_map(|(ranges_s, knobs, ops, merge_after, workers)| {
            let second = |(op, rows): (usize, &Vec<(i64, usize, usize, i64)>)| {
                let now = START_MS + (20 + op as i64) * 1_000;
                (rows.iter())
                    .map(|&(sensor, value, late, sub)| {
                        let value = [1.0, 1.0, 57.0, 64.0, 99.0, 99.0][value];
                        let back_ms = match late {
                            0..=4 => 0,
                            5 => 1_000,
                            6 => 2_000,
                            _ => 15_000,
                        };
                        streaming::msmt(now - back_ms - sub * 250, sensor, value, false)
                    })
                    .collect::<Vec<_>>()
            };
            let mut seconds = ops.iter().enumerate().map(second);
            let run = AppendRun {
                ranges_s,
                knobs: [knobs[0], knobs[1], knobs[2], knobs[3], knobs[4]],
                history: seconds.by_ref().take(10).flatten().collect(),
                batches: seconds.collect(),
                merge_after,
            };
            (run, workers)
        })
}

/// One batched-round run: programs that read one stream every way a round
/// can — two distributed pane queries over one window, two over windows
/// nobody else reads, a distributed query whose HAVING needs the state
/// sequence, and a single-node query — over a stream that arrives batch by
/// batch.
struct BatchedRun {
    /// `(STARQL text, distributed)`, in registration order.
    programs: Vec<(String, bool)>,
    /// Rows the stream table holds at deployment.
    history: Vec<Vec<Value>>,
    batches: Vec<Vec<Vec<Value>>>,
    /// Ops after which every platform is told to merge.
    merge_after: Vec<usize>,
}

impl BatchedRun {
    /// The programs for window ranges `[shared, avg, count]` (seconds, all
    /// distinct) and threshold knobs.
    fn programs(ranges_s: [i64; 3], knobs: [i64; 4]) -> Vec<(String, bool)> {
        let [shared, avg, count] = ranges_s;
        let pane = |shape, range_s, knob| {
            (
                streaming::agg_program(shape, "", range_s, 1, true, knob),
                true,
            )
        };
        vec![
            pane(1, shared, knobs[0]), // SUM
            pane(4, shared, knobs[1]), // MAX, the SUM's window
            pane(2, avg, knobs[2]),    // AVG, alone on its window
            pane(0, count, knobs[3]),  // COUNT, alone on its window
            // AVG ∧ EXISTS: declined by the pane analysis, so it ships its
            // windows and reads the state sequence.
            pane(6, shared, knobs[2]),
            // MAX single-node, on the same stream and window.
            (
                streaming::agg_program(4, "", shared, 1, true, knobs[1]),
                false,
            ),
        ]
    }

    /// Drives the run through one platform holding every program at
    /// `workers` and, per program, one platform holding it alone — a round
    /// of one — asserting that each query's driven ticks equal its twin's,
    /// output for output, and come in registration order. Returns the
    /// appends that closed more than one window and the pane probes the
    /// batched platform shared.
    fn assert_equivalent(&self, workers: usize) -> (usize, u64) {
        let register = |p: &OptiquePlatform, (text, distributed): &(String, bool)| {
            let id = match distributed {
                true => p.register_starql_distributed(text, workers),
                false => p.register_starql(text),
            };
            id.unwrap_or_else(|e| panic!("registration failed for\n{text}\n{e}"))
        };
        let batched = streaming::deployment(self.history.clone());
        let ids: Vec<u64> = (self.programs.iter())
            .map(|program| register(&batched, program))
            .collect();
        let alone: Vec<OptiquePlatform> = (self.programs.iter())
            .map(|program| {
                let p = streaming::deployment(self.history.clone());
                register(&p, program);
                p
            })
            .collect();
        let mut multi_window_appends = 0;
        for (op, batch) in self.batches.iter().enumerate() {
            let driven = batched.append_stream("S_Msmt", batch.clone()).unwrap();
            let order: Vec<u64> = driven.iter().map(|(id, _)| *id).collect();
            assert!(
                order.windows(2).all(|w| w[0] <= w[1]),
                "{workers} workers, op {op}: tails out of registration order: {order:?}"
            );
            for ((id, twin), (text, _)) in ids.iter().zip(&alone).zip(&self.programs) {
                let expected: Vec<_> = (twin.append_stream("S_Msmt", batch.clone()).unwrap())
                    .iter()
                    .map(|(_, tick)| output_stream(tick))
                    .collect();
                let got: Vec<_> = (driven.iter().filter(|(of, _)| of == id))
                    .map(|(_, tick)| output_stream(tick))
                    .collect();
                multi_window_appends += (id == &ids[0] && got.len() > 1) as usize;
                assert_eq!(
                    got, expected,
                    "{workers} workers, op {op}, batched vs alone:\n{text}"
                );
            }
            if self.merge_after.contains(&op) {
                for p in alone.iter().chain([&batched]) {
                    p.merge_now().unwrap();
                }
            }
        }
        let shared = batched
            .dashboard()
            .panels
            .iter()
            .map(|p| p.panes_shared)
            .sum();
        (multi_window_appends, shared)
    }
}

/// Generated batched-round runs: window ranges, thresholds, few sensors and
/// few distinct values, rows late inside the windows and behind them,
/// seconds that bring nothing (the next append closes several windows at
/// once), merges mid-run, 1/2/4/8 workers.
fn batched_run_strategy() -> impl Strategy<Value = (BatchedRun, usize)> {
    const START_MS: i64 = 600_000;
    // (sensor, value class, lateness class, sub-second offset)
    let row = (0i64..5, 0usize..6, 0usize..8, 0i64..4);
    let batch = proptest::collection::vec(row, 0..6);
    (
        (
            prop_oneof![Just(3i64), Just(5)],
            prop_oneof![Just(2i64), Just(4)],
            prop_oneof![Just(6i64), Just(10)],
        ),
        proptest::collection::vec(0i64..100, 4),
        proptest::collection::vec(batch, 20..40),
        proptest::collection::vec(0usize..40, 0..3),
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    )
        .prop_map(|((shared, avg, count), knobs, ops, merge_after, workers)| {
            let second = |(op, rows): (usize, &Vec<(i64, usize, usize, i64)>)| {
                let now = START_MS + (20 + op as i64) * 1_000;
                (rows.iter())
                    .map(|&(sensor, value, late, sub)| {
                        let value = [1.0, 1.0, 57.0, 64.0, 99.0, 99.0][value];
                        let back_ms = match late {
                            0..=4 => 0,
                            5 => 1_000,
                            6 => 2_000,
                            _ => 15_000,
                        };
                        streaming::msmt(now - back_ms - sub * 250, sensor, value, false)
                    })
                    .collect::<Vec<_>>()
            };
            let mut seconds = ops.iter().enumerate().map(second);
            let run = BatchedRun {
                programs: BatchedRun::programs(
                    [shared, avg, count],
                    [knobs[0], knobs[1], knobs[2], knobs[3]],
                ),
                history: seconds.by_ref().take(8).flatten().collect(),
                batches: seconds.collect(),
                merge_after,
            };
            (run, workers)
        })
}

/// Sums the accumulator operations, pane misses and shipped pane rows of a
/// round's driven ticks.
fn pane_work(driven: &[(u64, TickOutput)]) -> (u64, u64, usize) {
    driven
        .iter()
        .fold((0, 0, 0), |(ops, misses, rows), (_, tick)| {
            (
                ops + acc_ops(tick),
                misses + tick.pane_misses,
                rows + tick.stream_rows_shipped,
            )
        })
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

    /// The same claim on the path the platform actually runs — every
    /// tick driven by an `append_stream` — and as a count: a warm
    /// append-driven SUM tick observes the appended rows, merges the pane
    /// that enters and subtracts the pane that leaves, the same number of
    /// accumulator operations at 2, 20 and 200 s.
    #[test]
    fn warm_pane_ticks_do_not_grow_with_the_range_under_appends() {
        const RANGES_S: [i64; 3] = [2, 20, 200];
        const HISTORY_S: i64 = 205;
        const WARMUP: i64 = 3;
        const MEASURED: i64 = 20;
        let second = |sec: i64| -> Vec<Vec<Value>> {
            (0..streaming::STREAM_SENSORS)
                .map(|sensor| {
                    let value = (40 + (sec + sensor * 7) % 50) as f64;
                    streaming::msmt(600_000 + sec * 1_000, sensor, value, false)
                })
                .collect()
        };
        let history: Vec<_> = (0..HISTORY_S).flat_map(second).collect();
        for workers in [1, 4] {
            let mut pane_work = Vec::new();
            for range_s in RANGES_S {
                let case = StreamingCase {
                    text: streaming::agg_program(1, "", range_s, 1, true, 0), // SUM ≥ 275
                    rows: history.clone(),
                };
                let p = distributed(&case, workers, true);
                let work: Vec<(u64, u64)> = (HISTORY_S..HISTORY_S + WARMUP + MEASURED)
                    .map(|sec| {
                        let mut driven = p.append_stream("S_Msmt", second(sec)).unwrap();
                        assert_eq!(driven.len(), 1, "one window closes per second");
                        let tick = driven.remove(0).1;
                        (tick.pane_misses, acc_ops(&tick))
                    })
                    .skip(WARMUP as usize)
                    .collect();
                pane_work.push(work);
            }
            // 16 rows observed, 16 partials merged, 16 subtracted.
            let step = 3 * streaming::STREAM_SENSORS as u64;
            assert!(
                pane_work.iter().flatten().all(|&work| work == (0, step)),
                "{workers} worker(s): append-driven pane work per tick varies with the range \
                 (expected no miss and {step} accumulator operations): {pane_work:?}"
            );
        }
    }

    /// The oracle the benchmark does not have: 260 `append_stream` ops,
    /// all five aggregates at two ranges on one grid, pane ≡ rescan ≡
    /// single-node at every driven tick at 1, 2 and 4 workers — with the
    /// maximum and minimum sliding out (ties included), late rows inside,
    /// at the edge of and behind the cached windows, keys vanishing and
    /// reappearing, and the platform's own merge trigger firing mid-run.
    #[test]
    fn long_append_driven_run_is_equivalent() {
        let run = long_run();
        assert!(run.batches.len() >= 250);
        let merges = run.assert_equivalent(&[1, 2, 4]);
        assert!(merges >= 1, "the run must cross the merge floor mid-way");
    }

    /// The batched round ≡ each query alone, on a handwritten run: ties,
    /// late rows, silent seconds before appends that close three windows,
    /// a merge mid-run — at 1, 2, 4 and 8 workers.
    #[test]
    fn batched_round_matches_each_query_alone() {
        const START_MS: i64 = 600_000;
        let second = |sec: i64| -> Vec<Vec<Value>> {
            if sec % 7 == 3 || sec % 7 == 4 {
                return Vec::new();
            }
            let mut rows: Vec<_> = (0..streaming::STREAM_SENSORS)
                .map(|s| {
                    let value = [1.0, 57.0, 64.0, 99.0][((sec * 3 + s) % 4) as usize];
                    streaming::msmt(START_MS + sec * 1_000, s, value, false)
                })
                .collect();
            if sec % 5 == 0 {
                rows.push(streaming::msmt(
                    START_MS + sec * 1_000 - 1_500,
                    sec % 16,
                    99.0,
                    false,
                ));
            }
            rows
        };
        let run = BatchedRun {
            programs: BatchedRun::programs([5, 2, 10], [40, 35, 7, 6]),
            history: (0..12).flat_map(second).collect(),
            batches: (12..60).map(second).collect(),
            merge_after: vec![20],
        };
        for workers in WORKER_COUNTS {
            let (multi_window_appends, shared) = run.assert_equivalent(workers);
            assert!(multi_window_appends > 0, "no append closed several windows");
            assert!(
                shared > 0,
                "{workers} workers: the SUM and MAX queries never shared a probe"
            );
        }
    }

    /// Regression: two pane queries over one window range, and an append
    /// that closes five of their windows. Each window is probed once, in
    /// close order, so the workers' cached window of that range slides
    /// forward five times — the work a single query does alone. Ticked one
    /// query after the other, the second query's first probe landed behind
    /// the window the first had slid to, which rebuilt it from its panes
    /// (about range × keys operations).
    #[test]
    fn same_range_queries_slide_each_window_once_per_append() {
        const RANGE_S: i64 = 20;
        const HISTORY_S: i64 = 40;
        let second = |sec: i64| -> Vec<Vec<Value>> {
            (0..streaming::STREAM_SENSORS)
                .map(|s| {
                    let value = (40 + (sec * 7 + s * 3) % 50) as f64;
                    streaming::msmt(600_000 + sec * 1_000, s, value, false)
                })
                .collect()
        };
        let history: Vec<_> = (0..HISTORY_S).flat_map(second).collect();
        let sum = streaming::agg_program(1, "", RANGE_S, 1, true, 0);
        let max = streaming::agg_program(4, "", RANGE_S, 1, true, 30);
        for workers in [1, 2] {
            let work = |programs: &[&String]| {
                let p = streaming::deployment(history.clone());
                for text in programs {
                    p.register_starql_distributed(text, workers).unwrap();
                }
                // Warm: the stores fold their shards, one window each.
                p.append_stream("S_Msmt", second(HISTORY_S)).unwrap();
                let five = (HISTORY_S + 1..=HISTORY_S + 5).flat_map(second).collect();
                let driven = p.append_stream("S_Msmt", five).unwrap();
                assert_eq!(driven.len(), 5 * programs.len(), "five windows each");
                pane_work(&driven)
            };
            let alone = work(&[&max]);
            let both = work(&[&sum, &max]);
            assert_eq!(alone.1, 0, "{workers} workers: warm probes only");
            assert_eq!(
                both, alone,
                "{workers} workers: (acc_ops, misses, rows shipped) of two queries reading \
                 one window range must be one query's"
            );
        }
    }

    // ---- generated suite -----------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases(8)))]

        /// Generated batched-round runs ≡ each query on a platform of its
        /// own, output for output.
        #[test]
        fn generated_batched_rounds_match_each_query_alone(case in batched_run_strategy()) {
            let (run, workers) = case;
            run.assert_equivalent(workers);
        }

        /// Generated append-driven runs (ties, late rows, gaps, vanishing
        /// keys, explicit merges mid-run) keep pane ≡ rescan ≡ single-node
        /// at every driven tick.
        #[test]
        fn generated_append_driven_runs_are_equivalent(case in append_run_strategy()) {
            let (run, workers) = case;
            run.assert_equivalent(&[workers]);
        }

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

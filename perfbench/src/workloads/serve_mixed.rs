//! `serve_mixed`: writes beside reads through `optique::server`.
//!
//! Two closed-loop clients (no think time) drive a 2-worker server over a
//! 200-turbine fleet: nine requests in ten are reads rotating over three
//! queries — two over `turbines`, one over `sensors` — and one in ten inserts
//! a 16-row batch into `turbines`, at the default write policy and merge
//! threshold. Reads over the written table go cold after every write and scan
//! base plus novelty; reads over `sensors` stay BGP-cache-warm; merges land
//! inside the run; and the server hop is a large share of a cached read.

use std::sync::{Arc, Barrier};

use optique::{Client, OptiquePlatform, Server, ServerConfig};
use optique_relational::Value;
use optique_sparql::PlannerSettings;

use super::{answer_digest, ratio, report_layer_times};
use crate::fixtures::{siemens_deployment, MODELS};
use crate::harness::{
    closed_loop, end_to_end, micros, peak_rss_mb, replay_loop, setup, timed, Limit, Pass,
    RunConfig, WORKERS,
};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{median, percentile, Checksum, Rng};

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Rows per written batch: four turbines of each model.
const BATCH: usize = 16;
/// Requests per second of nominal run time, all clients together. The run
/// is op-bounded: every write grows `turbines`, so a faster build must
/// measure the same requests, not more of them.
const OPS_PER_SECOND: f64 = 800.0;
const PREFIX: &str = "PREFIX sie: <http://siemens.example/ontology#> ";

/// The read queries with, for the two over the written table, how many
/// answer rows one batch adds.
fn reads() -> [(String, Option<u64>); 3] {
    [
        (
            format!(
                "{PREFIX}SELECT ?t WHERE {{ ?t sie:hasModel \"{}\" }}",
                MODELS[1]
            ),
            Some((BATCH / MODELS.len()) as u64),
        ),
        (
            // Three of the four models are gas turbines.
            format!("{PREFIX}SELECT ?t WHERE {{ ?t a sie:GasTurbine }}"),
            Some((BATCH / MODELS.len() * 3) as u64),
        ),
        (
            format!("{PREFIX}SELECT ?s WHERE {{ ?s a sie:VibrationSensor }}"),
            None,
        ),
    ]
}

/// What a client sends as its `i`-th request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Read(usize),
    Write(u64),
}

/// A client's seeded request sequence: one request of every ten, at a seeded
/// place among them, is a write; the others are the next read in rotation.
/// (With each request a write by its own coin toss, the number of writes —
/// and so how far `turbines` grows, which sets the tail — differed from seed
/// to seed by several percent.)
fn schedule(seed: u64, client: usize, ops: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0x5eed_c0de));
    let (mut reads, mut writes, mut write_at) = (0, 0, 0);
    (0..ops)
        .map(|i| {
            if i % 10 == 0 {
                write_at = rng.below(10);
            }
            if i % 10 == write_at {
                writes += 1;
                Op::Write(writes - 1)
            } else {
                reads += 1;
                Op::Read((reads - 1) % 3)
            }
        })
        .collect()
}

/// The `n`-th batch `client` writes: new turbine ids, four per model.
fn batch(client: usize, n: u64) -> Vec<Vec<Value>> {
    (0..BATCH)
        .map(|r| {
            let model = MODELS[r % MODELS.len()];
            let tid = 1_000_000 * (client as i64 + 1) + n as i64 * BATCH as i64 + r as i64;
            vec![
                Value::Int(tid),
                Value::text(model),
                Value::text(if model.starts_with("SST") {
                    "steam"
                } else {
                    "gas"
                }),
                Value::Int(1 + r as i64 % 6),
                Value::Int(2005),
            ]
        })
        .collect()
}

fn deployment(seed: u64) -> optique_siemens::SiemensDeployment {
    siemens_deployment(seed, 200, 4, 4, 12)
}

struct State {
    server: Server,
    build_us: f64,
}

/// Deploys, starts the server and answers each read once (statistics,
/// mapping indexes, the BGP cache's first fill).
fn build(seed: u64) -> State {
    let (deployment, took) = timed(|| deployment(seed));
    let platform = Arc::new(OptiquePlatform::from_siemens(deployment));
    let server = Server::serve(
        platform,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    );
    let warm = server.client("warm-up");
    for (text, _) in reads() {
        warm.query(&text).expect("warm-up read runs");
    }
    State {
        server,
        build_us: micros(took),
    }
}

/// What a client keeps of one answered request.
#[derive(Clone, Copy, Debug)]
enum Answer {
    /// A read of query `q`: its digest.
    Read(usize, Checksum),
    /// A write: rows the server reported inserted.
    Wrote(usize),
}

/// One client's closed loop over its schedule. Also samples the server's
/// queue depth after every request.
fn client_loop(
    client: &Client,
    index: usize,
    plan: &[Op],
    limit: Limit,
    depth: &dyn Fn() -> usize,
) -> (Pass<Answer>, usize) {
    let texts = reads();
    let mut depth_max = 0;
    let pass = closed_loop(limit, 1, |i| {
        let answer = match plan[i as usize] {
            Op::Read(q) => {
                let (results, took) = timed(|| client.query(&texts[q].0));
                (took, Answer::Read(q, answer_digest(&results.ok()?)))
            }
            Op::Write(n) => {
                let rows = batch(index, n);
                let (inserted, took) = timed(|| client.insert("turbines", rows));
                (took, Answer::Wrote(inserted.ok()?))
            }
        };
        depth_max = depth_max.max(depth());
        Some(answer)
    });
    (pass, depth_max)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let (state, setup_s) = setup(cfg, || build(cfg.seed));
    let server = &state.server;
    let platform = Arc::clone(server.platform());
    let mut report = Report::default();

    let limit = Limit::ops_for(cfg.pass_seconds(), OPS_PER_SECOND / CLIENTS as f64);
    let plans: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| schedule(cfg.seed, c, limit.ops))
        .collect();
    let cache_before = (platform.bgp_cache().hits(), platform.bgp_cache().misses());
    let barrier = Barrier::new(CLIENTS);
    let (mut passes, depths): (Vec<Pass<Answer>>, Vec<usize>) = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(index, plan)| {
                let client = server.client(&format!("client-{index}"));
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(&client, index, plan, limit, &|| server.queue_depth())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread ran"))
            .unzip()
    });
    let rss = peak_rss_mb();
    let depth_max = depths.into_iter().max().unwrap_or(0);

    // Per-request checks. A read of the unwritten table must equal the
    // reference exactly. A read of the written table must hold the base
    // answer plus a whole number of batches (writes are atomic), never fewer
    // than the same client saw before, never more than were ever written.
    let (oracle, oracle_rec) = oracle_after(cfg.seed, &plans, &passes);
    let texts = reads();
    let base: Vec<Checksum> = {
        let fresh = OptiquePlatform::from_siemens(deployment(cfg.seed));
        fresh.set_planner_settings(PlannerSettings::disabled());
        texts
            .iter()
            .map(|(text, _)| answer_digest(&fresh.query_static(text).expect("base reference")))
            .collect()
    };
    let written: u64 = passes
        .iter()
        .flat_map(|pass| &pass.answers)
        .filter(|(_, a)| matches!(a, Answer::Wrote(_)))
        .count() as u64;
    let (mut read_us, mut write_us) = (Vec::new(), Vec::new());
    for pass in &mut passes {
        let mut seen = [0u64; 3];
        pass.check(|_, answer| match *answer {
            Answer::Wrote(rows) => rows == BATCH,
            Answer::Read(q, digest) => match texts[q].1 {
                None => digest == base[q],
                Some(per_batch) => {
                    let extra = digest.rows.saturating_sub(base[q].rows);
                    let ok = digest.rows >= base[q].rows
                        && extra % per_batch == 0
                        && extra >= seen[q]
                        && extra <= written * per_batch;
                    seen[q] = seen[q].max(extra);
                    ok
                }
            },
        });
        for ((_, answer), latency) in pass.answers.iter().zip(&pass.latencies_us) {
            match answer {
                Answer::Read(..) => read_us.push(*latency),
                Answer::Wrote(_) => write_us.push(*latency),
            }
        }
    }
    // After the run, quiesced: every read, served, must equal the oracle — a
    // planner-disabled platform that received the same batches directly.
    let client = server.client("verifier");
    let mut unequal = 0;
    for (text, _) in &texts {
        let served = client.query(text).map(|r| answer_digest(&r)).ok();
        let wanted = answer_digest(&oracle.query_static(text).expect("oracle read runs"));
        unequal += u64::from(served != Some(wanted));
    }

    if !cfg.trace {
        end_to_end(&mut report, &passes, setup_s, rss);
        report.failed += unequal;
        return report;
    }

    report.attempted = passes.iter().map(|p| p.attempted).sum();
    report.failed = passes.iter().map(|p| p.failed).sum::<u64>() + unequal;
    report.set(
        "harness.slowdown",
        median(&passes.iter().map(Pass::slowdown).collect::<Vec<_>>()),
    );
    report.set("core.read_p50_us", median(&read_us));
    report.set("core.write_p50_us", median(&write_us));
    report.set(
        "core.write_p95_us",
        percentile(&write_us, 95.0).unwrap_or(0.0),
    );
    report.set("core.queue_depth_max", depth_max as f64);
    let snapshot = platform.metrics_snapshot();
    report.set(
        "core.server_shed",
        snapshot.counter("server.shed").unwrap_or(0) as f64,
    );
    if let Some(merges) = snapshot.histogram("novelty.merge_us") {
        report.set("relational.merges", merges.count as f64);
        report.set("relational.merge_us", merges.p50 as f64);
    }
    report.set(
        "sparql.bgp_cache_hit_ratio",
        ratio(
            (platform.bgp_cache().hits() - cache_before.0) as f64,
            (platform.bgp_cache().misses() - cache_before.1) as f64,
        ),
    );
    report.set("siemens.build_us", state.build_us);

    // Staged: the same cached read served and direct, side by side, for the
    // server hop. (The writes were staged into the oracle above, each
    // `insert_static` under a `relational.append` span.)
    let mut rec = oracle_rec;
    let warm = &texts[2].0;
    let expected = answer_digest(&platform.query_static(warm).expect("warm read runs"));
    replay_loop(&mut report, cfg.seconds * 0.2, |_| {
        rec.next_op();
        let served = rec.span("core.served_read", |_| client.query(warm));
        let direct = rec.span("core.direct_read", |_| platform.query_static(warm));
        [served.ok(), direct.ok()]
            .iter()
            .all(|r| r.as_ref().map(answer_digest) == Some(expected))
    });
    let per_op = report_layer_times(&mut report, rec.spans());
    let hops: Vec<f64> = per_op["core.served_read"]
        .iter()
        .zip(&per_op["core.direct_read"])
        .filter(|(served, _)| **served > 0.0)
        .map(|(served, direct)| served - direct)
        .collect();
    report.set("core.server_hop_us", median(&hops));
    let appends: Vec<f64> = per_op["relational.append"]
        .iter()
        .copied()
        .filter(|us| *us > 0.0)
        .collect();
    report.set("relational.append_us", median(&appends));
    cfg.finish_trace(&mut report, &rec);
    report
}

/// The state the served platform must end in: a planner-disabled platform
/// over the same deployment, handed every batch a client got acknowledged,
/// directly and one at a time. Each insert is recorded as a
/// `relational.append` span (an op of its own), which the traced run reads
/// as the cost of the write with no server and no contention around it.
fn oracle_after(
    seed: u64,
    plans: &[Vec<Op>],
    passes: &[Pass<Answer>],
) -> (OptiquePlatform, Recorder) {
    let oracle = OptiquePlatform::from_siemens(deployment(seed));
    oracle.set_planner_settings(PlannerSettings::disabled());
    let mut rec = Recorder::new();
    for (client, (plan, pass)) in plans.iter().zip(passes).enumerate() {
        for (i, answer) in &pass.answers {
            if let (Op::Write(n), Answer::Wrote(_)) = (plan[*i as usize], answer) {
                let rows = batch(client, n);
                rec.next_op();
                rec.span("relational.append", |_| {
                    oracle.insert_static("turbines", rows)
                })
                .expect("oracle insert runs");
            }
        }
    }
    (oracle, rec)
}

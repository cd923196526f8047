//! The round gateway: the one door between a coordinator and the workers.
//!
//! A caller hands [`Gateway::run_static_round`] a batch of plan fragments;
//! the gateway places or scatters them over the cluster's workers, runs
//! every worker's queue in parallel and gathers the per-fragment tables in
//! input order. Continuous STARQL queries are registered with the platform,
//! which ticks them by submitting their window and pane fragments as
//! rounds — the gateway itself remembers nothing between rounds but the
//! workers' pane stores.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use optique_relational::hash::IdSet;
use optique_relational::{
    execute_branches, Database, ExecCounts, LogicalPlan, NoveltyOverlay, PaneCounts, PaneStore,
    PlanFragment, Schema, SqlError, Table, Value,
};
use optique_telemetry::SpanRecord;

use crate::cluster::{worker_panicked, Cluster, Worker};
use crate::scheduler::lpt_assign;

/// The gateway: a cluster handle plus the workers' pane stores.
pub struct Gateway {
    cluster: Arc<Cluster>,
    /// One pane store per worker: shard-local partial aggregates answering
    /// pane-combine fragments incrementally (a real cluster's store lives
    /// with the worker process, so the simulation keeps them worker-local
    /// too).
    pane_stores: Vec<PaneStore>,
}

impl Gateway {
    /// A gateway over `cluster`.
    pub fn new(cluster: Arc<Cluster>) -> Arc<Self> {
        let pane_stores = (0..cluster.size()).map(|_| PaneStore::new()).collect();
        Arc::new(Gateway {
            cluster,
            pane_stores,
        })
    }

    /// A gateway over `cluster`, the cluster a merge of `overlay` makes of
    /// this gateway's (as many workers; each shard of a table it keeps
    /// partitioned is the old shard followed by the overlay rows hashing
    /// to it). Each worker's pane store moves over, rebased past `overlay`
    /// through the old worker's catalog ([`PaneStore::rebase`]), keeping
    /// the grids over the streams `carries` admits. This gateway's stores
    /// are left empty.
    pub fn successor(
        &self,
        cluster: Arc<Cluster>,
        overlay: &Arc<NoveltyOverlay>,
        carries: impl Fn(&str) -> bool,
    ) -> Arc<Self> {
        assert_eq!(
            cluster.size(),
            self.cluster.size(),
            "a successor keeps the workers"
        );
        let pane_stores = (self.cluster.workers().iter().zip(&self.pane_stores))
            .map(|(worker, store)| {
                let mut view = (*worker.db).clone();
                view.set_novelty(Some(Arc::clone(overlay)));
                store.rebase(&view, &carries)
            })
            .collect();
        Arc::new(Gateway {
            cluster,
            pane_stores,
        })
    }

    /// The cluster the gateway runs rounds on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Panes held across the workers' pane stores.
    pub fn live_panes(&self) -> usize {
        self.pane_stores.iter().map(PaneStore::live_panes).sum()
    }

    /// Executes a round of federated static-query fragments and gathers the
    /// per-fragment results, in input order, plus the round's accounting.
    ///
    /// Fragments cross the worker boundary typed: each worker's queue holds
    /// `Arc<PlanFragment>`s, and the result rows move back (see
    /// [`optique_relational::fragment`]). A text-built fragment is parsed
    /// here, on the coordinator, once — not once per worker. Placement:
    ///
    /// * **placed** fragments (`scatter == false`) go to one worker each,
    ///   LPT-style by cost ([`lpt_assign`]);
    /// * **scatter** fragments (`scatter == true`) run on every worker's
    ///   shard of a hash-partitioned table and their per-worker partial
    ///   results are concatenated on gather, each `DISTINCT` branch of the
    ///   statement deduplicated across shards (by `Value` equality, as a
    ///   shard-local `DISTINCT` does; rows of different branches are never
    ///   compared) — unless the fragment's partition metadata plus a
    ///   key-derived semi-join let [`PlanFragment::shard_plan`] prune the
    ///   round, in which case only the shards that can hold matching keys
    ///   execute, each receiving just its slice of the `IN`-list.
    ///
    /// Every shipped statement is **planned once**. A fragment that arrives
    /// with a [`ReadyPlan`] — a prepared shape's plan, which its pool built
    /// once for the shape and bound for this execution — is not planned
    /// here at all: every worker it runs on executes that plan, and no
    /// worker waits on another. Of the rest, a statement that runs on one
    /// worker (placed, or one shard's slice of a pruned scatter) is planned
    /// by that worker ([`PlanFragment::plan`]); an unpruned scatter
    /// statement is planned here, once, before the workers start, and every
    /// shard executes that plan. Planning reads only schemas, which every
    /// shard and novelty view of a table shares. A planning error fails
    /// every slot the statement serves. Each worker `fragment` span says
    /// whether its plan was `plan=built` — for the shape, or for this
    /// statement, by its first execution — or `plan=shared`, reused.
    ///
    /// A worker that panics fails its own fragments with
    /// `worker N panicked`; the round, the pool and the other workers'
    /// results survive.
    pub fn run_static_round(&self, fragments: &[StaticFragment]) -> StaticRound {
        let size = self.cluster.size();
        let round_started = Instant::now();

        // Place the non-scatter fragments; `placed` yields their workers in
        // submission order.
        let costs: Vec<f64> = fragments
            .iter()
            .filter(|f| !f.scatter)
            .map(|f| f.fragment.cost)
            .collect();
        let mut placed = lpt_assign(&costs, size).into_iter();

        // Coordinator side: per-worker queues of shared fragments, each
        // entry holding the plan it executes or planning its own.
        // Shard-pruned scatter fragments queue one copy per target shard
        // (each carrying that shard's `IN`-list slice, so its own
        // statement); everything else queues the submitted `Arc`.
        let mut queues: Vec<Vec<Queued>> = (0..size).map(|_| Vec::new()).collect();
        let mut shards_pruned = 0usize;
        let mut parses = 0u64;
        let mut plans_built = 0usize;
        for (idx, f) in fragments.iter().enumerate() {
            // Pane probes never touch their SQL. Everything else must hold
            // a statement before it is shared; a parse error is memoized
            // and surfaces from planning.
            let parsed_here = f.fragment.pane.is_none() && !f.fragment.is_parsed();
            if parsed_here {
                parses += 1;
                let _ = f.fragment.base_statement();
            }
            let queued = |fragment: Arc<PlanFragment>, plan: Planned| Queued {
                idx,
                fragment,
                scatter: f.scatter,
                parsed_here,
                plan,
            };
            // The plan every execution of `f` shares, if it has one: the
            // first execution reports whether it was built.
            let shared = |first: bool| match &f.ready {
                Some(ready) => Planned::Ready(Arc::clone(&ready.plan), first && ready.built),
                None => Planned::Own,
            };
            if !f.scatter {
                let worker = placed.next().expect("one placement per placed fragment");
                queues[worker].push(queued(Arc::clone(&f.fragment), shared(true)));
            } else if let Some(plan) = f
                .ready
                .is_none()
                .then(|| f.fragment.shard_plan(size))
                .flatten()
            {
                shards_pruned += size - plan.len();
                for (shard, fragment) in plan {
                    queues[shard].push(queued(Arc::new(fragment), Planned::Own));
                }
            } else {
                let plan = match (&f.ready, &f.fragment.pane) {
                    (None, None) => {
                        plans_built += 1;
                        let db = &self.cluster.workers()[0].db;
                        // A planner panic fails the statement's slot, as
                        // it would on a worker, not the round.
                        let planned =
                            std::panic::catch_unwind(AssertUnwindSafe(|| f.fragment.plan(db)))
                                .unwrap_or_else(|_| {
                                    Err(SqlError::Execution("planning panicked".into()))
                                });
                        Some(Arc::new(planned))
                    }
                    _ => None,
                };
                for (worker, queue) in queues.iter_mut().enumerate() {
                    let entry = match &plan {
                        Some(plan) => Planned::Ready(Arc::clone(plan), worker == 0),
                        None => shared(worker == 0),
                    };
                    queue.push(queued(Arc::clone(&f.fragment), entry));
                }
            }
        }

        let outputs = self
            .cluster
            .parallel_map(|worker| self.run_queue(worker, &queues[worker.id], round_started));

        // Gather: take the rows, concatenating scatter partials branch by
        // branch and accounting the rows each worker handed back. Worker
        // span batches merge into one round batch, parent indices shifted
        // past the records already merged (worker roots stay roots).
        let mut worker_rows = vec![0usize; size];
        let mut gathered: Vec<Option<Result<Partial, SqlError>>> =
            fragments.iter().map(|_| None).collect();
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut executions = 0u64;
        let mut panes = vec![PaneCounts::default(); fragments.len()];
        for (worker, output) in outputs.into_iter().enumerate() {
            let output = output.unwrap_or_else(|_| WorkerOutput {
                results: queues[worker]
                    .iter()
                    .map(|q| (q.idx, Err(worker_panicked(worker))))
                    .collect(),
                ..WorkerOutput::default()
            });
            executions += output.executions;
            plans_built += output.plans_built;
            for (idx, counts) in output.panes {
                panes[idx] += counts;
            }
            let base = spans.len();
            spans.extend(output.spans.into_iter().map(|mut record| {
                record.parent = record.parent.map(|p| p + base);
                record
            }));
            for (idx, partial) in output.results {
                if let Ok(p) = &partial {
                    worker_rows[worker] += p.len();
                }
                match (&mut gathered[idx], partial) {
                    (slot @ None, incoming) => *slot = Some(incoming),
                    (Some(Ok(acc)), Ok(part)) => {
                        for (rows, more) in acc.branches.iter_mut().zip(part.branches) {
                            rows.extend(more);
                        }
                    }
                    (Some(Ok(_)), Err(e)) => gathered[idx] = Some(Err(e)),
                    (Some(Err(_)), _) => {}
                }
            }
        }
        StaticRound {
            tables: (gathered.into_iter().zip(fragments))
                .map(|(slot, f)| {
                    let partial = slot.expect("every fragment was queued on some worker")?;
                    Ok(partial.into_table(f))
                })
                .collect(),
            worker_rows,
            shards_pruned,
            plans_built,
            plan_cache_hits: executions.saturating_sub(parses),
            plan_cache_misses: parses,
            panes,
            spans,
        }
    }

    /// Worker side of a round: executes this worker's queue on its shard
    /// and records one span per fragment execution — queue wait, parse
    /// outcome, whether it built or shared the statement's plan, rows —
    /// under a per-worker root span, all relative to the round start so the
    /// coordinator can graft them into its trace.
    fn run_queue(&self, worker: &Worker, queue: &[Queued], round_started: Instant) -> WorkerOutput {
        let mut out = WorkerOutput::default();
        // Per-round memo of resolved novelty views: every fragment pinned
        // at the same epoch shares one merged catalog (`None` means the
        // worker's base db already answers that epoch).
        let mut views: HashMap<u64, Option<Database>> = HashMap::new();
        let worker_start_us = round_started.elapsed().as_micros() as u64;
        let mut frag_spans: Vec<SpanRecord> = Vec::with_capacity(queue.len());
        for q in queue {
            let queue_us =
                (round_started.elapsed().as_micros() as u64).saturating_sub(worker_start_us);
            let frag_started = Instant::now();
            // "hit" = nothing was prepared for this execution: a warm pane
            // store, or a statement that arrived typed or already parsed.
            let mut cache_hit = !q.parsed_here;
            let mut counts = ExecCounts::default();
            // Whether this execution planned the statement (`None` for a
            // pane probe, or a view that did not resolve).
            let mut plan_built = None;
            let result = (|| {
                let epoch = q.fragment.novelty_epoch;
                if let std::collections::hash_map::Entry::Vacant(slot) = views.entry(epoch) {
                    slot.insert(optique_relational::view_at(&worker.db, epoch)?);
                }
                let db = views[&epoch].as_ref().unwrap_or(&worker.db);
                // Pane probes bypass SQL planning entirely: the worker
                // answers from its shard-local pane store, folding at most
                // the rows appended since the last probe.
                if let Some(probe) = &q.fragment.pane {
                    let (table, counts) = self.pane_stores[worker.id].combine(probe, db)?;
                    cache_hit = counts.hits > 0;
                    out.panes.push((q.idx, counts));
                    return Ok(Partial {
                        schema: table.schema,
                        branches: vec![table.rows],
                    });
                }
                out.executions += 1;
                let own;
                let plan = match &q.plan {
                    Planned::Ready(plan, built) => {
                        plan_built = Some(*built);
                        plan.as_ref().as_ref().map_err(Clone::clone)?
                    }
                    Planned::Own => {
                        plan_built = Some(true);
                        out.plans_built += 1;
                        own = q.fragment.plan(db)?;
                        &own
                    }
                };
                let (branches, exec_counts) = execute_branches(plan, db)?;
                counts = exec_counts;
                Ok(Partial {
                    schema: plan.schema().clone(),
                    branches,
                })
            })();
            let rows = result.as_ref().map_or(0, Partial::len);
            let mut span = SpanRecord::new(
                "fragment",
                worker_start_us + queue_us,
                frag_started.elapsed().as_micros() as u64,
            )
            // Parent index 0 is the worker root, prepended below.
            .under(0)
            .attr("op", q.fragment.describe())
            .attr("frag", q.idx)
            .attr("worker", worker.id)
            .attr("queue_us", queue_us)
            .attr("cache", if cache_hit { "hit" } else { "miss" })
            .attr("rows", rows)
            .attr("scans", counts.scans)
            .attr("scans_shared", counts.scans_shared)
            .attr("rows_scanned", counts.rows_scanned);
            if let Some(built) = plan_built {
                span = span.attr("plan", if built { "built" } else { "shared" });
            }
            if q.scatter {
                span = span.attr("shard", worker.id);
            }
            frag_spans.push(span);
            out.results.push((q.idx, result));
        }
        if !frag_spans.is_empty() {
            out.spans.push(
                SpanRecord::new(
                    "worker",
                    worker_start_us,
                    (round_started.elapsed().as_micros() as u64).saturating_sub(worker_start_us),
                )
                .attr("worker", worker.id)
                .attr("fragments", frag_spans.len()),
            );
            out.spans.extend(frag_spans);
        }
        out
    }
}

/// The plan a queued execution runs.
enum Planned {
    /// Built before the round reached the worker and shared by every
    /// execution of the statement; true for the execution that reports the
    /// build.
    Ready(Arc<Result<LogicalPlan, SqlError>>, bool),
    /// The worker plans the statement itself: it runs nowhere else.
    Own,
}

/// One fragment execution queued on one worker.
struct Queued {
    /// The submitted fragment's slot in the round.
    idx: usize,
    fragment: Arc<PlanFragment>,
    scatter: bool,
    /// The coordinator parsed this fragment's SQL text this round.
    parsed_here: bool,
    plan: Planned,
}

/// What one execution hands back, or several gathered: the statement's
/// output schema and its rows, kept apart per `UNION ALL` branch until the
/// gather has deduplicated the scattered `DISTINCT` ones.
struct Partial {
    schema: Schema,
    branches: Vec<Vec<Vec<Value>>>,
}

impl Partial {
    fn len(&self) -> usize {
        self.branches.iter().map(Vec::len).sum()
    }

    /// The gathered table of `fragment`: for a scatter, each `DISTINCT`
    /// branch first deduplicated across the shards' partials.
    fn into_table(mut self, fragment: &StaticFragment) -> Table {
        if fragment.scatter {
            let distinct: Vec<bool> = match &fragment.ready {
                Some(ready) => ready.distinct.clone(),
                None => (fragment.fragment.base_statement())
                    .map(|statement| statement.branches().map(|b| b.distinct).collect())
                    .unwrap_or_default(),
            };
            for (rows, distinct) in self.branches.iter_mut().zip(distinct) {
                if distinct {
                    dedup_rows(rows);
                }
            }
        }
        let mut branches = self.branches.into_iter();
        let mut rows = branches.next().unwrap_or_default();
        for more in branches {
            rows.extend(more);
        }
        Table {
            schema: self.schema,
            rows,
        }
    }
}

/// Removes duplicate rows in place, keeping first occurrences.
fn dedup_rows(rows: &mut Vec<Vec<Value>>) {
    let mut seen = IdSet::with_capacity_and_hasher(rows.len(), Default::default());
    let keep: Vec<bool> = rows.iter().map(|row| seen.insert(row.as_slice())).collect();
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next().unwrap_or(true));
}

/// What one worker hands back from a round.
#[derive(Default)]
struct WorkerOutput {
    results: Vec<(usize, Result<Partial, SqlError>)>,
    /// SQL fragment executions (pane probes count under `panes`).
    executions: u64,
    /// Statements this worker planned itself.
    plans_built: usize,
    /// What each pane probe this worker answered cost, by fragment slot.
    panes: Vec<(usize, PaneCounts)>,
    spans: Vec<SpanRecord>,
}

/// The gathered outcome of one federated static round.
#[derive(Debug)]
pub struct StaticRound {
    /// One result per submitted fragment, in input order (a scatter
    /// fragment's partials gathered as [`Gateway::run_static_round`]
    /// describes).
    pub tables: Vec<Result<Table, SqlError>>,
    /// Rows each worker shipped back this round — per-shard observability
    /// (skew here means one shard did most of the work). The dashboard's
    /// `fragment_rows` totals are summed from the gathered tables instead;
    /// this vector is the per-worker breakdown for callers that want it.
    pub worker_rows: Vec<usize>,
    /// Scatter executions skipped because key routing proved the shard
    /// could hold no matching row.
    pub shards_pruned: usize,
    /// Plans the round built, on the coordinator or a worker (a fragment
    /// that arrived with a [`ReadyPlan`] built none here).
    pub plans_built: usize,
    /// Worker-side SQL fragment executions that needed no parse of their
    /// own this round: the statement arrived typed, was parsed earlier, or
    /// was parsed once for several shards.
    pub plan_cache_hits: u64,
    /// Fragment SQL parses paid this round — one per text-built fragment
    /// that arrived unparsed, on the coordinator.
    pub plan_cache_misses: u64,
    /// Per submitted fragment, in input order: what its pane probes cost,
    /// summed over the workers that answered it (default for a fragment
    /// that carries no probe).
    pub panes: Vec<PaneCounts>,
    /// Worker-side trace spans for the round, one batch root per worker
    /// that executed anything, with per-fragment children carrying worker
    /// id, shard, queue wait, parse / pane-store outcome and rows.
    /// Starts are relative to the round start; the coordinator stitches
    /// them under its execution span with `Tracer::graft`.
    pub spans: Vec<SpanRecord>,
}

/// One unit of a federated static query, as submitted to
/// [`Gateway::run_static_round`].
#[derive(Clone, Debug)]
pub struct StaticFragment {
    /// The fragment, shared with every worker queue it lands on.
    pub fragment: Arc<PlanFragment>,
    /// When true, the fragment scans a hash-partitioned table: it runs on
    /// every worker's shard and the partial results are concatenated.
    /// When false, any single worker's replica can answer it.
    pub scatter: bool,
    /// The plan to execute, when the caller has it: the gateway then plans
    /// nothing for the fragment and ignores its statement but for display.
    pub ready: Option<ReadyPlan>,
}

/// A plan handed to the gateway ready to execute — a prepared shape's plan
/// as its pool holds it, bound for this execution.
#[derive(Clone, Debug)]
pub struct ReadyPlan {
    /// The plan, or the error planning it failed with.
    pub plan: Arc<Result<LogicalPlan, SqlError>>,
    /// Per input of the plan's root `UNION ALL` (one entry for any other
    /// root), whether that branch is `DISTINCT` — what a scatter's gather
    /// deduplicates across shards.
    pub distinct: Vec<bool>,
    /// True when this round built the plan rather than reused it.
    pub built: bool,
}

impl StaticFragment {
    /// A fragment answered by one worker's replica.
    pub fn placed(fragment: PlanFragment) -> Self {
        StaticFragment {
            fragment: Arc::new(fragment),
            scatter: false,
            ready: None,
        }
    }

    /// A fragment scanning every worker's partition.
    pub fn scattered(fragment: PlanFragment) -> Self {
        StaticFragment {
            fragment: Arc::new(fragment),
            scatter: true,
            ready: None,
        }
    }

    /// The fragment with the plan it executes (builder style).
    pub fn with_plan(mut self, ready: ReadyPlan) -> Self {
        self.ready = Some(ready);
        self
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gateway({} workers)", self.cluster.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_relational::{Column, ColumnType, Database, Schema, Value};

    fn cluster(n: usize) -> Arc<Cluster> {
        Arc::new(Cluster::provision(n, |id| {
            let schema = Schema::qualified(
                "m",
                vec![
                    Column::new("sensor_id", ColumnType::Int),
                    Column::new("value", ColumnType::Float),
                ],
            );
            let rows = (0..100)
                .map(|i| vec![Value::Int((id * 100 + i) as i64), Value::Float(i as f64)])
                .collect();
            let mut db = Database::new();
            db.put_table("m", Table::new(schema, rows).unwrap());
            db
        }))
    }

    #[test]
    fn static_fragments_execute_and_gather_in_order() {
        let g = Gateway::new(cluster(4));
        let fragments: Vec<StaticFragment> = (0..8)
            .map(|i| {
                StaticFragment::placed(PlanFragment::new(
                    i,
                    format!("SELECT COUNT(*) AS n FROM m WHERE value >= {i}"),
                    1.0,
                ))
            })
            .collect();
        let results = g.run_static_round(&fragments).tables;
        assert_eq!(results.len(), 8);
        for (i, result) in results.iter().enumerate() {
            let t = result.as_ref().unwrap();
            assert_eq!(
                t.rows[0][0],
                Value::Int(100 - i as i64),
                "fragment {i} gathered out of order"
            );
        }
    }

    /// Concurrent static rounds on one shared gateway never cross results:
    /// every round's gather order and values match its own fragments. This
    /// is the serving layer's pool-lifetime contract — many simultaneous
    /// distributed queries share one `Arc<Federation>` (and thus one
    /// gateway) between write-induced pool drops.
    #[test]
    fn concurrent_static_rounds_do_not_cross_results() {
        let g = Gateway::new(cluster(4));
        std::thread::scope(|scope| {
            for round in 0..8usize {
                let g = &g;
                scope.spawn(move || {
                    let fragments: Vec<StaticFragment> = (0..4)
                        .map(|i| {
                            let threshold = round * 4 + i;
                            StaticFragment::placed(PlanFragment::new(
                                i as u64,
                                format!("SELECT COUNT(*) AS n FROM m WHERE value >= {threshold}"),
                                1.0,
                            ))
                        })
                        .collect();
                    for _ in 0..4 {
                        let results = g.run_static_round(&fragments).tables;
                        for (i, result) in results.iter().enumerate() {
                            let t = result.as_ref().unwrap();
                            let expected = 100 - (round * 4 + i) as i64;
                            assert_eq!(
                                t.rows[0][0],
                                Value::Int(expected),
                                "round {round} fragment {i} crossed with another round"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn scatter_fragments_concatenate_partitions() {
        // Each of 4 workers holds 100 distinct sensor rows; a scatter scan
        // must see all 400.
        let g = Gateway::new(cluster(4));
        let results = g
            .run_static_round(&[StaticFragment::scattered(PlanFragment::new(
                0,
                "SELECT sensor_id FROM m",
                1.0,
            ))])
            .tables;
        let t = results[0].as_ref().unwrap();
        assert_eq!(t.len(), 400);
        let distinct: std::collections::HashSet<i64> =
            t.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(distinct.len(), 400, "per-partition scans are disjoint");
    }

    /// A scatter fragment whose semi-join restricts a key-derived column
    /// runs only on the shards its values hash to (plus the NULL home
    /// shard 0) — and still gathers the exact matching rows.
    #[test]
    fn keyed_scatter_prunes_shards() {
        use optique_relational::{PartitionSpec, SemiJoin};

        let shards = 8;
        // Partition a 400-row table by sensor_id across 8 workers, the same
        // hash the fragment router uses.
        let full: Vec<Vec<Value>> = (0..400)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        let g = Gateway::new(Arc::new(Cluster::provision(shards, |id| {
            let schema = Schema::qualified(
                "m",
                vec![
                    Column::new("sensor_id", ColumnType::Int),
                    Column::new("value", ColumnType::Float),
                ],
            );
            let rows = full
                .iter()
                .filter(|row| crate::cluster::shard_of(&row[0], shards) == id)
                .cloned()
                .collect();
            let mut db = Database::new();
            db.put_table("m", Table::new(schema, rows).unwrap());
            db
        })));

        let wanted = vec![Value::Int(3), Value::Int(77)];
        let fragment = PlanFragment::new(0, "SELECT sensor_id FROM m", 1.0)
            .with_partition(PartitionSpec {
                tables: vec![("m".into(), "sensor_id".into())],
                column_type: ColumnType::Int,
            })
            .with_semi_joins(vec![SemiJoin::new("sensor_id", wanted.clone())]);
        let round = g.run_static_round(&[StaticFragment::scattered(fragment)]);

        // ≤ 3 target shards (two keys + the NULL home) out of 8.
        assert!(round.shards_pruned >= shards - 3, "{round:?}");
        let t = round.tables[0].as_ref().unwrap();
        let mut got: Vec<i64> = t.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![3, 77]);
        // Row accounting: only the target shards shipped anything.
        assert_eq!(round.worker_rows.iter().sum::<usize>(), 2);
        assert!(
            round.worker_rows.iter().filter(|&&n| n > 0).count() <= 2,
            "{:?}",
            round.worker_rows
        );
    }

    /// Per-shard row accounting sums to the gathered total on an unpruned
    /// scatter.
    #[test]
    fn static_round_accounts_rows_per_worker() {
        let g = Gateway::new(cluster(4));
        let round = g.run_static_round(&[StaticFragment::scattered(PlanFragment::new(
            0,
            "SELECT sensor_id FROM m",
            1.0,
        ))]);
        assert_eq!(round.shards_pruned, 0);
        assert_eq!(round.worker_rows, vec![100; 4]);
        assert_eq!(round.tables[0].as_ref().unwrap().len(), 400);
    }

    /// A text-built scatter fragment is parsed once on the coordinator —
    /// not once per worker — and a repeated round over the same fragment
    /// parses nothing; a typed fragment never parses at all.
    #[test]
    fn plan_cache_amortizes_repeated_scatter_rounds() {
        let g = Gateway::new(cluster(4));
        let sql = "SELECT sensor_id FROM m";
        let scatter = vec![StaticFragment::scattered(PlanFragment::new(0, sql, 1.0))];
        let first = g.run_static_round(&scatter);
        assert_eq!(first.plan_cache_misses, 1, "one parse for four workers");
        assert_eq!(first.plan_cache_hits, 3);
        let second = g.run_static_round(&scatter);
        assert_eq!(second.plan_cache_misses, 0, "the parse is memoized");
        assert_eq!(second.plan_cache_hits, 4);
        assert_eq!(
            second.tables[0].as_ref().unwrap().len(),
            400,
            "the shared statement returns the same rows"
        );
        let typed =
            PlanFragment::from_statement(0, optique_relational::parse_select(sql).unwrap(), 1.0);
        let round = g.run_static_round(&[StaticFragment::scattered(typed)]);
        assert_eq!((round.plan_cache_hits, round.plan_cache_misses), (4, 0));
        assert_eq!(round.tables[0].as_ref().unwrap().len(), 400);
    }

    /// Fragments sharing SQL but differing in their window slice are
    /// different plans: each executes its own slice, never a neighbour's.
    #[test]
    fn plan_cache_distinguishes_wires() {
        use optique_relational::WindowSlice;
        let g = Gateway::new(cluster(1));
        let windowed = |close: i64| {
            vec![StaticFragment::placed(
                PlanFragment::new(0, "SELECT sensor_id, value FROM m", 1.0).with_window(
                    WindowSlice {
                        column: "value".into(),
                        open_ms: -1,
                        close_ms: close,
                    },
                ),
            )]
        };
        let narrow = g.run_static_round(&windowed(4));
        let wide = g.run_static_round(&windowed(49));
        assert_eq!(narrow.tables[0].as_ref().unwrap().len(), 5);
        assert_eq!(wide.tables[0].as_ref().unwrap().len(), 50);
        assert_eq!(
            narrow.plan_cache_misses + wide.plan_cache_misses,
            2,
            "two distinct text fragments parse"
        );
    }

    /// Rounds pinned at a novelty epoch merge that overlay's rows — and
    /// *only* that overlay's: a newer append never leaks into an older
    /// round, and the epoch never costs a parse (it selects the *data* a
    /// fragment scans; every epoch of one fragment shares its statement).
    #[test]
    fn novelty_epoch_pins_rounds_without_churning_plan_cache() {
        use optique_relational::NoveltyOverlay;
        let g = Gateway::new(cluster(1));
        let base = PlanFragment::new(0, "SELECT COUNT(*) AS n FROM m", 1.0);
        let count = |epoch: u64| {
            let frag = base.clone().at_epoch(epoch);
            let round = g.run_static_round(&[StaticFragment::placed(frag)]);
            let n = round.tables[0].as_ref().unwrap().rows[0][0]
                .as_i64()
                .unwrap();
            (n, round.plan_cache_hits, round.plan_cache_misses)
        };
        assert_eq!(count(0), (100, 0, 1), "base only; an unparsed clone parses");
        base.base_statement().unwrap();
        let overlay =
            NoveltyOverlay::empty().with_rows("m", vec![vec![Value::Int(1000), Value::Float(0.5)]]);
        assert_eq!(
            count(overlay.epoch()),
            (101, 1, 0),
            "pinned round merges the overlay without re-parsing"
        );
        let newer = overlay.with_rows("m", vec![vec![Value::Int(1001), Value::Float(0.6)]]);
        assert_eq!(
            count(overlay.epoch()),
            (101, 1, 0),
            "a newer append never leaks into a round pinned at the older epoch"
        );
        assert_eq!(count(newer.epoch()), (102, 1, 0));
        // A retired (dropped) epoch fails the round rather than silently
        // serving torn data.
        let dead = overlay.epoch();
        drop(overlay);
        drop(newer);
        let frag = PlanFragment::new(0, "SELECT COUNT(*) AS n FROM m", 1.0).at_epoch(dead);
        let round = g.run_static_round(&[StaticFragment::placed(frag)]);
        assert!(round.tables[0].is_err(), "retired epoch must error");
    }

    /// A scattered pane fragment is answered worker-side from the pane
    /// stores — its SQL is never parsed — and the gathered partials
    /// concatenate into disjoint per-shard groups. Repeating the round is
    /// a warm hit on every worker.
    #[test]
    fn pane_fragments_answer_from_worker_stores() {
        use optique_relational::{table::table_of, PaneProbe};
        // 4 workers, each holding a disjoint shard of stream rows keyed by
        // sensor: worker w owns sensors 4i+w.
        let g = Gateway::new(Arc::new(Cluster::provision(4, |id| {
            let rows = (0..200)
                .filter(|i| (i % 4) as usize == id)
                .map(|i| {
                    vec![
                        Value::Timestamp((i % 50) * 10 + 5),
                        Value::Int(i % 4),
                        Value::Float(1.0),
                    ]
                })
                .collect();
            let mut db = Database::new();
            db.put_table(
                "s",
                table_of(
                    "s",
                    &[
                        ("ts", ColumnType::Timestamp),
                        ("k", ColumnType::Int),
                        ("v", ColumnType::Float),
                    ],
                    rows,
                )
                .unwrap(),
            );
            db
        })));
        let fragment = || {
            StaticFragment::scattered(
                PlanFragment::new(0, "SELECT ts, k, v FROM s", 1.0).with_pane(PaneProbe {
                    stream: "s".into(),
                    ts_col: "ts".into(),
                    key_col: "k".into(),
                    val_col: "v".into(),
                    width_ms: 100,
                    start_ms: 0,
                    open_ms: 0,
                    close_ms: 400,
                    needs_extrema: false,
                }),
            )
        };
        let cold = g.run_static_round(&[fragment()]);
        assert_eq!(cold.panes[0].misses, 4, "first touch folds each shard");
        assert_eq!(cold.panes[0].hits, 0);
        assert_eq!(cold.plan_cache_hits + cold.plan_cache_misses, 0);
        let t = cold.tables[0].as_ref().unwrap();
        assert_eq!(t.len(), 4, "one group per key, keys disjoint per shard");
        // Window (0,400] holds ts 5,15,…,395 → 40 of each worker's 50
        // distinct timestamps, one row per timestamp (i%50 cycles once per
        // shard... each shard has 50 rows at 50 distinct ts).
        let total: i64 = t.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(total, 4 * 40);
        let warm = g.run_static_round(&[fragment()]);
        assert_eq!(warm.panes[0].hits, 4, "repeat rounds hit every store");
    }

    /// The `plan` attribute of each worker `fragment` span of `round`.
    fn plan_attrs(round: &StaticRound) -> Vec<String> {
        (round.spans.iter())
            .filter(|span| span.label == "fragment")
            .filter_map(|span| span.attrs.iter().find(|(key, _)| key == "plan"))
            .map(|(_, value)| match value {
                optique_telemetry::AttrValue::Text(text) => text.clone(),
                other => format!("{other:?}"),
            })
            .collect()
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|row| format!("{row:?}"));
        rows
    }

    /// An unpruned scatter statement is planned once, before the workers
    /// start: the first shard's span reports the plan built, the other
    /// three execute it, and the gathered rows are exactly what planning
    /// on every shard gives.
    #[test]
    fn a_scatter_statement_is_planned_once_per_round() {
        let cluster = cluster(4);
        let g = Gateway::new(Arc::clone(&cluster));
        let fragment = PlanFragment::new(
            0,
            "SELECT sensor_id, value FROM m WHERE value < 10 \
             UNION ALL SELECT sensor_id, value FROM m WHERE value >= 90",
            1.0,
        );
        let round = g.run_static_round(&[StaticFragment::scattered(fragment.clone())]);
        let mut plans = plan_attrs(&round);
        plans.sort();
        assert_eq!(plans, ["built", "shared", "shared", "shared"]);
        let per_shard: Vec<Vec<Value>> = (cluster.workers().iter())
            .flat_map(|worker| fragment.execute(&worker.db).unwrap().rows)
            .collect();
        let gathered = round.tables[0].as_ref().unwrap().rows.clone();
        assert_eq!(gathered.len(), 4 * 20);
        assert_eq!(sorted(gathered), sorted(per_shard));
    }

    /// A statement that fails to plan fails the slot it serves with the
    /// planning error — on every shard, with no panic and no hang — and
    /// the round answers its other fragments.
    #[test]
    fn a_planning_error_fails_only_its_statements_slot() {
        let g = Gateway::new(cluster(4));
        let round = g.run_static_round(&[
            StaticFragment::scattered(PlanFragment::new(0, "SELECT nope FROM m", 1.0)),
            StaticFragment::scattered(PlanFragment::new(1, "SELECT sensor_id FROM m", 1.0)),
        ]);
        let error = round.tables[0].as_ref().unwrap_err();
        assert!(error.to_string().contains("nope"), "{error}");
        assert_eq!(round.tables[1].as_ref().unwrap().len(), 400);
        let built = plan_attrs(&round).iter().filter(|p| *p == "built").count();
        assert_eq!(built, 2, "each statement is planned once, failed or not");
    }

    /// A plan built on a worker's base catalog answers on that worker's
    /// novelty view exactly as a plan built on the view: planning reads
    /// only schemas, which the view shares.
    #[test]
    fn a_plan_built_on_the_base_answers_on_the_novelty_view() {
        use optique_relational::{view_at, NoveltyOverlay};
        let cluster = cluster(1);
        let worker = &cluster.workers()[0];
        let overlay =
            NoveltyOverlay::empty().with_rows("m", vec![vec![Value::Int(1000), Value::Float(0.5)]]);
        let fragment = PlanFragment::new(0, "SELECT sensor_id FROM m WHERE value < 1", 1.0)
            .at_epoch(overlay.epoch());
        let view = view_at(&worker.db, overlay.epoch())
            .unwrap()
            .expect("the overlay is newer than the base");
        let on_base = fragment.plan(&worker.db).unwrap();
        let on_view = fragment.plan(&view).unwrap();
        let (rows, _) = execute_branches(&on_base, &view).unwrap();
        assert_eq!(rows, execute_branches(&on_view, &view).unwrap().0);
        assert_eq!(rows[0].len(), 2, "base row 0 and the appended row");
        let round = Gateway::new(Arc::clone(&cluster))
            .run_static_round(&[StaticFragment::placed(fragment)]);
        assert_eq!(round.tables[0].as_ref().unwrap().rows, rows[0]);
    }

    /// A scattered `DISTINCT` branch is deduplicated across shards, and
    /// only against its own rows: branches answering the same values keep
    /// every copy, as their `UNION ALL` does.
    #[test]
    fn scatter_dedups_each_distinct_branch_alone() {
        let g = Gateway::new(cluster(4));
        // Every shard holds the values 0..100.
        let sql = "SELECT DISTINCT value FROM m \
                   UNION ALL SELECT DISTINCT value FROM m WHERE value < 10 \
                   UNION ALL SELECT value FROM m WHERE value < 10";
        let round =
            g.run_static_round(&[StaticFragment::scattered(PlanFragment::new(0, sql, 1.0))]);
        assert_eq!(round.tables[0].as_ref().unwrap().len(), 100 + 10 + 4 * 10);
    }

    #[test]
    fn static_fragment_errors_are_per_fragment() {
        let g = Gateway::new(cluster(2));
        let results = g
            .run_static_round(&[
                StaticFragment::placed(PlanFragment::new(0, "SELECT value FROM m", 1.0)),
                StaticFragment::placed(PlanFragment::new(1, "SELECT value FROM nope", 1.0)),
            ])
            .tables;
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "bad fragment fails alone");
    }

    /// Failure containment: a worker that panics mid-round (here: a shard
    /// whose table holds a row shorter than its schema) fails only the
    /// fragments queued on it, with a typed error naming the worker. The
    /// round returns, the other workers' answers stand, and the pool and
    /// its pane stores answer the next round.
    #[test]
    fn worker_panic_fails_only_that_workers_fragments() {
        use optique_relational::{table::table_of, PaneProbe};
        let g = Gateway::new(Arc::new(Cluster::provision(2, |id| {
            let mut m = table_of(
                "m",
                &[("ts", ColumnType::Timestamp), ("k", ColumnType::Int)],
                (0..10)
                    .map(|i| vec![Value::Timestamp(i * 10 + 5), Value::Int(i % 2)])
                    .collect(),
            )
            .unwrap();
            let mut db = Database::new();
            db.put_table("ok", m.clone());
            if id == 1 {
                m.rows.push(vec![Value::Timestamp(1)]);
            }
            db.put_table("m", m);
            db
        })));
        let scan = |table: &str| {
            StaticFragment::scattered(PlanFragment::new(0, format!("SELECT k FROM {table}"), 1.0))
        };
        let pane = || {
            StaticFragment::scattered(PlanFragment::new(1, "SELECT ts, k FROM ok", 1.0).with_pane(
                PaneProbe {
                    stream: "ok".into(),
                    ts_col: "ts".into(),
                    key_col: "k".into(),
                    val_col: "k".into(),
                    width_ms: 50,
                    start_ms: 0,
                    open_ms: 0,
                    close_ms: 100,
                    needs_extrema: false,
                },
            ))
        };
        assert!(g.run_static_round(&[pane()]).tables[0].is_ok());

        let round = g.run_static_round(&[scan("m"), pane()]);
        for table in &round.tables {
            assert_eq!(
                table.as_ref().unwrap_err(),
                &SqlError::Execution("worker 1 panicked".into()),
                "both fragments were queued on the worker that went down"
            );
        }
        assert_eq!(round.worker_rows[1], 0);
        assert!(round.worker_rows[0] > 0, "worker 0 still answered");

        let next = g.run_static_round(&[scan("ok"), pane()]);
        assert_eq!(next.tables[0].as_ref().unwrap().len(), 20);
        assert!(next.tables[1].is_ok());
        assert_eq!(next.panes[1].hits, 2, "both pane stores are still warm");
        assert_eq!(
            next.panes[0],
            PaneCounts::default(),
            "a scan probes no panes"
        );
    }
}

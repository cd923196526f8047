//! ExaStream-backed federation — **one** fragment pipeline for static
//! queries *and* continuous-query windows.
//!
//! The static pipeline ([`optique_sparql::StaticPipeline`]) ships each
//! BGP's unfolded `UNION ALL` as one [`PlanFragment`], and the STARQL
//! engine compiles each tick's window to a window-sliced fragment
//! (`ContinuousQuery::tick_via`); this module is the [`FragmentExecutor`]
//! that hands both, typed, to the same gateway/scheduler machinery.
//! Stream tables always hash-partition on their stream key
//! ([`Federation::for_deployment`]) so window fragments **scatter** —
//! every worker slices its shard of the window — instead of replicating
//! the stream onto one node. Two catalog layouts for the static tables:
//!
//! * **replicated** — every worker shares the full relational catalog;
//!   a fragment's branches are placed one group per worker, LPT by cost.
//! * **partitioned** — named tables are hash-partitioned across workers
//!   (each worker holds one shard), everything else replicated. Each
//!   branch of a fragment's `UNION ALL` is classified down a fallback
//!   ladder — **sharded → replicated → coordinator**:
//!
//!   1. branches whose partitioned scans are shard-sound (one occurrence,
//!      or several **co-partitioned** on their keys) **scatter**: every
//!      worker scans its shard and the partials concatenate on gather.
//!      Semi-join `IN`-lists over key-derived columns additionally prune
//!      the scatter to the shards that can hold matching keys
//!      ([`PlanFragment::shard_plan`]);
//!   2. branches reading only replicated tables run on one worker's
//!      replicas (placed LPT by cost);
//!   3. everything else (non-co-partitioned multi-shard joins,
//!      non-decomposable shapes) falls back to the coordinator's full
//!      catalog, which is always correct.
//!
//! The branches then **regroup** into one `UNION ALL` statement per
//! routing group: one per shard set for the scatter branches (branches
//! that derive the restricted columns from keys of one type the same way
//! prune together, [`key_routing`]; the rest scatter unpruned together),
//! one per worker for the placed branches, one for the coordinator's. The
//! gateway plans each shipped statement once, and deduplicates a
//! scattered `DISTINCT` branch across shards only against its own rows.
//! The rung counters of a [`FragmentRound`] count branches;
//! [`FragmentRound::statements`] counts the statements.
//!
//! A **prepared** fragment (a BGP's cached shape bound to its constants,
//! [`PlanFragment::from_prepared`]) skips all of that after its first
//! execution on a pool: the pool keeps, per shape, its branches regrouped
//! and each group planned, and an execution only binds the constants into
//! each group's plan, dropping the branches they prune
//! ([`optique_relational::bind_plan`]). The kept plans live and die with
//! the pool, and with their shape: once the shape cache
//! ([`optique_sparql::ShapeCache`]) evicts a shape, every pool's plans for
//! it go too. A successor keeps those of every shape whose tables all keep
//! their layout.
//!
//! [`FederationTopology::AutoPartitioned`] makes the partitioned layout the
//! smart default: a partition-key advisor scores every term-map column of
//! the mapping catalog (join frequency × distinctness × evenness, from the
//! [`StatsCatalog`]'s sampled statistics) and shards each qualifying table
//! on its best key, falling back to full replication when nothing
//! qualifies.
//!
//! A pool outlives a merge of the novelty overlay:
//! [`Federation::successor`] builds the pool over the folded catalog from
//! the one over the catalog it replaces. The layout is decided again, as
//! [`Federation::for_deployment`] decides it; a table that keeps its key
//! keeps its worker shards and gains, per worker, one segment of the
//! overlay rows that hash there, and the workers' pane stores move over.
//! Only a table whose key changed is re-partitioned from the folded table.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock, Weak};

use optique_exastream::cluster::{hash_partition, shard_rows};
use optique_exastream::scheduler::lpt_assign;
use optique_exastream::{Cluster, Gateway, ReadyPlan, StaticFragment};
use optique_mapping::MappingCatalog;
use optique_relational::{
    bind_plan, estimated_bytes, key_routing, referenced_tables, shard_compatibility, ColumnType,
    Database, KeyRouting, LogicalPlan, NoveltyOverlay, NoveltyScope, PaneCounts, PartitionSpec,
    PlanFragment, Prepared, Segments, SelectStatement, SemiJoin, ShardCompatibility, SqlError,
    StatsCatalog, StoredTable, Table,
};
use optique_sparql::{split_union_chain, FragmentExecutor, FragmentRound};
use parking_lot::Mutex;

/// Tables smaller than this never partition under
/// [`FederationTopology::AutoPartitioned`]: sharding a tiny table buys no
/// parallelism and costs every scan a scatter round.
pub const MIN_PARTITION_ROWS: usize = 48;

/// Which worker-pool layout the platform builds for distributed static
/// queries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FederationTopology {
    /// Advisor-picked hash partitioning: the partition-key advisor
    /// ([`optique_relational::advise_partition_keys`]) scores every term-map
    /// column the mapping catalog joins through and each qualifying table
    /// shards on its best key. Falls back to full replication when nothing
    /// qualifies (tiny tables, skewed keys) or only one worker exists (one
    /// shard is the whole table anyway).
    #[default]
    AutoPartitioned,
    /// Full replication: every worker holds the whole catalog.
    Replicated,
}

/// A static-query worker pool over the deployment's relational sources.
pub struct Federation {
    gateway: Arc<Gateway>,
    /// The full (unpartitioned) catalog, for fragments that cannot run
    /// shard-locally.
    coordinator: Arc<Database>,
    workers: usize,
    /// `(table, key_column)` pairs hash-partitioned across the workers.
    partition: Vec<(String, String)>,
    /// The topology and the always-partitioned `(table, key)` pairs the
    /// layout was decided from; a successor decides its own from them.
    topology: FederationTopology,
    streams: Vec<(String, String)>,
    /// Per prepared shape (by [`Prepared::shape`]), its branches regrouped
    /// and planned for this pool.
    shapes: Mutex<PoolShapes>,
    /// The catalog generation of the platform snapshot this pool was built
    /// for, stamped by [`Self::at_generation`] (0 outside a platform).
    generation: u64,
}

/// What a pool built for one prepared shape: its branches regrouped and
/// each group planned, once.
struct PoolShape {
    /// The tables the shape reads: a successor drops the shape when one of
    /// them changes layout.
    tables: BTreeSet<String>,
    groups: Vec<PlannedGroup>,
    /// The groups' plans' estimated size ([`estimated_bytes`]), taken when
    /// first asked for.
    bytes: OnceLock<usize>,
}

impl PoolShape {
    fn bytes(&self) -> usize {
        *self.bytes.get_or_init(|| {
            (self.groups.iter())
                .map(|group| (*group.plan).as_ref().map_or(0, estimated_bytes))
                .sum()
        })
    }
}

/// One routing group of a shape's branches, planned.
struct PlannedGroup {
    rung: Rung,
    /// The group's branches, by index in the shape's `UNION ALL` chain.
    branches: Vec<usize>,
    /// Per branch: whether it is `DISTINCT`, and its placement cost.
    distinct: Vec<bool>,
    costs: Vec<f64>,
    /// The group statement's plan, with the shape's parameters in it.
    plan: Arc<Result<LogicalPlan, SqlError>>,
}

/// A pool's planned shapes, by [`Prepared::shape`]. An entry lives as long
/// as its shape: it holds the shape's statement weakly, so once the shape
/// cache evicts (or rebuilds) the shape and the last execution of it ends,
/// the entry is dead — left out of every count and dropped by the next
/// insert. The shape cache's eviction is the only one.
#[derive(Default)]
struct PoolShapes {
    entries: HashMap<u64, (Weak<SelectStatement>, Arc<PoolShape>)>,
}

impl PoolShapes {
    fn get(&self, shape: u64) -> Option<Arc<PoolShape>> {
        (self.entries.get(&shape)).map(|(_, planned)| Arc::clone(planned))
    }

    /// Keeps `planned` for `prepared`'s shape, dropping the dead entries.
    fn insert(&mut self, prepared: &Prepared, planned: Arc<PoolShape>) {
        self.entries
            .retain(|_, (shape, _)| shape.strong_count() > 0);
        let shape = Arc::downgrade(&prepared.statement);
        self.entries.insert(prepared.shape, (shape, planned));
    }

    /// The planned shapes whose shape is still alive.
    fn live(&self) -> impl Iterator<Item = &Arc<PoolShape>> {
        (self.entries.values())
            .filter(|(shape, _)| shape.strong_count() > 0)
            .map(|(_, planned)| planned)
    }

    /// The live shapes none of whose tables is in `relaid`.
    fn keeping(&self, relaid: &[String]) -> PoolShapes {
        let entries = (self.entries.iter())
            .filter(|(_, (shape, planned))| {
                shape.strong_count() > 0 && !relaid.iter().any(|t| planned.tables.contains(t))
            })
            .map(|(id, (shape, planned))| (*id, (Weak::clone(shape), Arc::clone(planned))))
            .collect();
        PoolShapes { entries }
    }
}

/// What building a [`Federation::successor`] cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Succession {
    /// Rows copied into worker shards: the overlay rows of each table
    /// that kept its key, and every row of each table partitioned anew.
    pub rows_copied: usize,
    /// Tables whose layout changed — partitioned on another key, newly
    /// partitioned, or replicated again — in layout order.
    pub repartitioned: Vec<String>,
}

impl Federation {
    /// A federation whose workers all share the full catalog.
    pub fn replicated(db: Arc<Database>, workers: usize) -> Self {
        let cluster = Arc::new(Cluster::replicated(workers, Arc::clone(&db)));
        Federation {
            gateway: Gateway::new(cluster),
            coordinator: db,
            workers,
            partition: Vec::new(),
            topology: FederationTopology::Replicated,
            streams: Vec::new(),
            shapes: Mutex::default(),
            generation: 0,
        }
    }

    /// A federation that hash-partitions each `(table, key_column)` in
    /// `partition` across the workers and replicates every other table.
    pub fn partitioned(
        db: Arc<Database>,
        workers: usize,
        partition: &[(String, String)],
    ) -> Result<Self, String> {
        // Shard each partitioned table by its key column; the shards are
        // fresh copies of the table's rows.
        let shards = partition
            .iter()
            .map(|(table, key)| {
                let (t, col) = key_column(&db, table, key)?;
                let shards = hash_partition(t, col, workers);
                Ok(shards.into_iter().map(|s| Arc::new(s.into())).collect())
            })
            .collect::<Result<_, String>>()?;
        let cluster = provision(&db, workers, partition, shards)?;
        Ok(Federation {
            gateway: Gateway::new(cluster),
            coordinator: db,
            workers,
            partition: partition.to_vec(),
            // Deciding the layout again from these reproduces it.
            topology: FederationTopology::Replicated,
            streams: partition.to_vec(),
            shapes: Mutex::default(),
            generation: 0,
        })
    }

    /// The deployment-wide constructor the platform uses: static tables
    /// partition per `topology` (advisor-picked keys, or none under
    /// [`FederationTopology::Replicated`]), while the `(stream table,
    /// stream key)` pairs in `streams` **always** hash-partition — window
    /// fragments must scatter, not replicate, whatever the static layout.
    /// Streams unknown to the catalog (or with a missing key column) are
    /// skipped rather than failing pool construction; their window
    /// fragments then run placed on a replica, which stays correct.
    pub fn for_deployment(
        db: Arc<Database>,
        workers: usize,
        topology: FederationTopology,
        stats: &StatsCatalog,
        mappings: &MappingCatalog,
        streams: &[(String, String)],
    ) -> Self {
        let keys = layout(&db, workers, topology, stats, mappings, streams);
        let mut federation = (!keys.is_empty())
            .then(|| Federation::partitioned(Arc::clone(&db), workers, &keys).ok())
            .flatten()
            .unwrap_or_else(|| Federation::replicated(db, workers));
        federation.topology = topology;
        federation.streams = streams.to_vec();
        federation
    }

    /// The pool a merge of `overlay` makes of this one: over `folded` —
    /// this pool's catalog with the overlay appended — its layout decided
    /// again from `stats` (the folded catalog's) and `mappings`, under this
    /// pool's topology and stream keys, as [`Self::for_deployment`] decides
    /// it. Row for row, the pool is what `for_deployment(folded, …)` builds:
    /// a table that keeps its key keeps each worker's shard and appends to
    /// it, as one segment, the overlay rows that hash there, in log order;
    /// a table whose key changed, or that starts being partitioned, is
    /// hash-partitioned from `folded`. The workers' pane stores move over
    /// ([`Gateway::successor`]), keeping the grids of every stream whose
    /// layout is unchanged; this pool's stores are left empty, so a probe
    /// still running on it folds its own shard afresh. So do the planned
    /// shapes that read no table whose layout changed: a plan reads only
    /// schemas, and a group's routing only the layout.
    pub fn successor(
        &self,
        folded: Arc<Database>,
        overlay: &Arc<NoveltyOverlay>,
        stats: &StatsCatalog,
        mappings: &MappingCatalog,
    ) -> (Federation, Succession) {
        let workers = self.workers;
        let keys = layout(
            &folded,
            workers,
            self.topology,
            stats,
            mappings,
            &self.streams,
        );
        let mut rows_copied = 0;
        let partitioned = match keys.is_empty() {
            true => None,
            false => (self.successor_cluster(&folded, overlay, &keys, &mut rows_copied)).ok(),
        };
        // As `for_deployment` does, a layout that cannot be built replicates.
        let (cluster, keys) = partitioned.map_or_else(
            || {
                rows_copied = 0;
                let cluster = Cluster::replicated(workers, Arc::clone(&folded));
                (Arc::new(cluster), Vec::new())
            },
            |cluster| (cluster, keys),
        );
        let old_key = |table: &str| self.partition.iter().find(|(t, _)| t == table);
        let new_key = |table: &str| keys.iter().find(|(t, _)| t == table);
        let mut repartitioned: Vec<String> = Vec::new();
        for (table, _) in self.partition.iter().chain(&keys) {
            if old_key(table) != new_key(table) && !repartitioned.contains(table) {
                repartitioned.push(table.clone());
            }
        }
        let gateway = (self.gateway).successor(cluster, overlay, |stream| {
            old_key(stream) == new_key(stream)
        });
        let federation = Federation {
            gateway,
            coordinator: folded,
            workers,
            partition: keys,
            topology: self.topology,
            streams: self.streams.clone(),
            shapes: Mutex::new(self.shapes.lock().keeping(&repartitioned)),
            generation: 0,
        };
        let succession = Succession {
            rows_copied,
            repartitioned,
        };
        (federation, succession)
    }

    /// The cluster of [`Self::successor`] when it partitions `keys`: per
    /// table, each worker's shard carried with the overlay rows that hash
    /// to it appended, or — for a table this pool did not partition on the
    /// same key — fresh shards of the folded table. Adds the rows it copies
    /// to `copied`.
    fn successor_cluster(
        &self,
        folded: &Arc<Database>,
        overlay: &NoveltyOverlay,
        keys: &[(String, String)],
        copied: &mut usize,
    ) -> Result<Arc<Cluster>, String> {
        let mut shard_sets = Vec::with_capacity(keys.len());
        for pair @ (table, key) in keys {
            let (t, col) = key_column(folded, table, key)?;
            if !self.partition.contains(pair) {
                *copied += t.len();
                let shards = hash_partition(t, col, self.workers).into_iter();
                shard_sets.push(shards.map(|s| Arc::new(s.into())).collect());
                continue;
            }
            let log = overlay.rows(table).cloned().unwrap_or_default();
            *copied += log.len();
            let parts = shard_rows(&log, col, self.workers);
            let shards = (self.gateway.cluster().workers().iter().zip(parts))
                .map(|(worker, rows)| {
                    let shard = worker.db.table(table).map_err(|e| e.to_string())?;
                    Ok(match rows.is_empty() {
                        true => Arc::clone(shard),
                        false => Arc::new(shard.appended(&Segments::from(rows))),
                    })
                })
                .collect::<Result<_, String>>()?;
            shard_sets.push(shards);
        }
        provision(folded, self.workers, keys, shard_sets)
    }

    /// The pool, stamped as built for a platform snapshot of catalog
    /// `generation` (builder style).
    pub(crate) fn at_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The catalog generation this pool was built for.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Prepared shapes this pool holds regrouped and planned, counting only
    /// shapes still alive.
    pub fn planned_shapes(&self) -> usize {
        self.shapes.lock().live().count()
    }

    /// The estimated size of the plans this pool holds for live prepared
    /// shapes ([`estimated_bytes`]), taken outside the lock, which
    /// executions need.
    pub fn planned_shape_bytes(&self) -> usize {
        let planned: Vec<Arc<PoolShape>> = self.shapes.lock().live().cloned().collect();
        planned.iter().map(|planned| planned.bytes()).sum()
    }

    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The catalog snapshot this pool was sharded from. Pool caches compare
    /// it by pointer identity against the current platform snapshot to
    /// detect pools built over a superseded catalog.
    pub fn catalog(&self) -> &Arc<Database> {
        &self.coordinator
    }

    /// The `(table, key_column)` pairs partitioned across the workers
    /// (empty for replicated pools).
    pub fn partition(&self) -> &[(String, String)] {
        &self.partition
    }

    /// Panes held across the workers' pane stores.
    pub fn live_panes(&self) -> usize {
        self.gateway.live_panes()
    }

    /// Each worker's catalog, in worker order.
    #[cfg(test)]
    pub(crate) fn worker_catalogs(&self) -> Vec<Arc<Database>> {
        let workers = self.gateway.cluster().workers();
        workers.iter().map(|w| Arc::clone(&w.db)).collect()
    }

    /// Decides how one branch may execute against this federation's layout:
    /// `Unpartitioned` → placed on one replica, `Scatter` → every shard,
    /// `Incompatible` → the coordinator's full catalog.
    fn classify(&self, branch: &SelectStatement) -> ShardCompatibility {
        if self.partition.is_empty() {
            return ShardCompatibility::Unpartitioned;
        }
        shard_compatibility(branch, &self.partition)
    }

    /// The declared type of `table`'s partition-key `column`.
    fn key_type(&self, table: &str, column: &str) -> ColumnType {
        self.coordinator
            .table(table)
            .ok()
            .and_then(|t| Some(t.schema.columns()[t.schema.index_of(column)?].ty))
            .unwrap_or(ColumnType::Any)
    }

    /// Classifies each branch of `statement` down the ladder and regroups
    /// the branches into one statement per routing group: the scatter
    /// groups, by shard set, then the placed ones, by worker, then the
    /// coordinator's.
    fn regroup(&self, statement: SelectStatement, semi_joins: &[SemiJoin]) -> Vec<Routed> {
        let mut scatter: Vec<Routed> = Vec::new();
        let mut placed: Vec<(usize, SelectStatement)> = Vec::new();
        let mut coordinator = Group::default();
        for (id, branch) in split_union_chain(statement).into_iter().enumerate() {
            match self.classify(&branch) {
                ShardCompatibility::Unpartitioned => placed.push((id, branch)),
                ShardCompatibility::Scatter { table, column } => {
                    // Branches prune together when they derive the
                    // restricted columns from keys of one type the same
                    // way; the rest scatter unpruned, together.
                    let prunes = (!semi_joins.is_empty())
                        .then(|| key_routing(&branch, &self.partition, semi_joins))
                        .filter(|routing| !routing.is_empty())
                        .map(|routing| (self.key_type(&table, &column), routing));
                    let at = match scatter.iter().position(|g| g.prunes == prunes) {
                        Some(at) => at,
                        None => {
                            scatter.push(Routed::new(Rung::Scatter, prunes));
                            scatter.len() - 1
                        }
                    };
                    scatter[at].group.push(id, branch);
                }
                ShardCompatibility::Incompatible => coordinator.push(id, branch),
            }
        }
        let mut routed = scatter;
        // Placed branches: one group per worker, LPT by summed cost.
        if !placed.is_empty() {
            let costs: Vec<f64> = placed.iter().map(|(_, b)| branch_cost(b)).collect();
            let mut by_worker: Vec<Group> = (0..self.workers).map(|_| Group::default()).collect();
            for ((id, branch), worker) in placed.into_iter().zip(lpt_assign(&costs, self.workers)) {
                by_worker[worker].push(id, branch);
            }
            routed.extend(
                (by_worker.into_iter().filter(|g| !g.is_empty())).map(|group| Routed {
                    group,
                    ..Routed::new(Rung::Placed, None)
                }),
            );
        }
        if !coordinator.is_empty() {
            routed.push(Routed {
                group: coordinator,
                ..Routed::new(Rung::Coordinator, None)
            });
        }
        routed
    }

    /// Sends one routing group's statement, `fragment`, down `rung`,
    /// counting its `branches` there: shipped to the workers — with `plan`
    /// when the pool holds the group planned — or, on the coordinator's
    /// rung, answered here at the fragment's epoch.
    fn dispatch(
        &self,
        out: &mut Outbox,
        slot: usize,
        (rung, branches): (Rung, usize),
        fragment: PlanFragment,
        plan: Option<ReadyPlan>,
    ) {
        let shipped = match rung {
            Rung::Scatter => {
                out.counts.partitioned += branches;
                StaticFragment::scattered(fragment)
            }
            Rung::Placed => {
                if !self.partition.is_empty() {
                    out.counts.replicated += branches;
                }
                StaticFragment::placed(fragment)
            }
            Rung::Coordinator => {
                out.counts.coordinator += branches;
                let answer = match plan {
                    Some(ready) => (*ready.plan)
                        .as_ref()
                        .map_err(Clone::clone)
                        .and_then(|plan| {
                            let view = optique_relational::view_at(
                                &self.coordinator,
                                fragment.novelty_epoch,
                            )?;
                            optique_relational::execute(
                                plan,
                                view.as_ref().unwrap_or(&self.coordinator),
                            )
                        }),
                    // Planned here; `PlanFragment::execute` honors semi-join
                    // restrictions on the fallback path too.
                    None => {
                        out.plans_built += 1;
                        fragment.execute(&self.coordinator)
                    }
                };
                out.answer(slot, answer.map_err(|e| e.to_string()));
                return;
            }
        };
        out.shipped.push(match plan {
            Some(ready) => shipped.with_plan(ready),
            None => shipped,
        });
        out.slots.push(slot);
    }
}

impl Federation {
    /// This pool's regrouped, planned statements for `prepared`'s shape,
    /// and whether this call built them (the shape's first execution on
    /// the pool, or its first since the pool forgot it).
    fn planned_shape(&self, prepared: &Prepared) -> (Arc<PoolShape>, bool) {
        if let Some(planned) = self.shapes.lock().get(prepared.shape) {
            return (planned, false);
        }
        let statement = SelectStatement::clone(&prepared.statement);
        let tables = referenced_tables(&statement);
        let groups = (self.regroup(statement, &[]).into_iter())
            .map(|Routed { rung, group, .. }| {
                let distinct = group.branches.iter().map(|b| b.distinct).collect();
                let costs = group.branches.iter().map(branch_cost).collect();
                let branches = group.ids.clone();
                let plan = optique_relational::plan::plan_select(
                    &group.into_statement(),
                    &self.coordinator,
                )
                .map(optique_relational::optimizer::optimize);
                PlannedGroup {
                    rung,
                    branches,
                    distinct,
                    costs,
                    plan: Arc::new(plan),
                }
            })
            .collect();
        let shape = Arc::new(PoolShape {
            tables,
            groups,
            bytes: OnceLock::new(),
        });
        self.shapes.lock().insert(prepared, Arc::clone(&shape));
        (shape, true)
    }

    /// Binds `prepared` into this pool's plans for its shape: per group
    /// that keeps a live branch, its rung and live branch count, `fragment`
    /// costed by those branches, and the group's plan bound and stripped of
    /// the pruned branches. Also returns the plans this call built (0 when
    /// the pool had them).
    fn bind_shape(&self, fragment: &PlanFragment, prepared: &Prepared) -> (usize, Vec<BoundGroup>) {
        let (planned, built) = self.planned_shape(prepared);
        let live = &prepared.binding.live;
        let mut bound = Vec::new();
        for group in &planned.groups {
            let in_group: Vec<bool> = group.branches.iter().map(|&b| live[b]).collect();
            let branches = in_group.iter().filter(|l| **l).count();
            if branches == 0 {
                continue;
            }
            let live_of = |flags: &[bool]| -> Vec<bool> {
                (flags.iter().zip(&in_group))
                    .filter(|(_, l)| **l)
                    .map(|(f, _)| *f)
                    .collect()
            };
            // A binding that changes nothing shares the pool's plan.
            let plan = match group.plan.as_ref() {
                Ok(plan) => match bind_plan(plan, &prepared.binding.values, &in_group) {
                    Ok(Cow::Borrowed(_)) => Arc::clone(&group.plan),
                    bound => Arc::new(bound.map(Cow::into_owned)),
                },
                Err(_) => Arc::clone(&group.plan),
            };
            let mut shipped = fragment.clone();
            shipped.cost = (group.costs.iter().zip(&in_group))
                .filter(|(_, l)| **l)
                .map(|(c, _)| c)
                .sum();
            let ready = ReadyPlan {
                plan,
                distinct: live_of(&group.distinct),
                built,
            };
            bound.push(BoundGroup {
                rung: group.rung,
                branches,
                fragment: shipped,
                plan: ready,
            });
        }
        (if built { planned.groups.len() } else { 0 }, bound)
    }
}

/// The `(table, key)` pairs a pool of `workers` over `db` partitions: the
/// advisor's picks from `stats` and `mappings` under
/// [`FederationTopology::AutoPartitioned`] (none under
/// [`FederationTopology::Replicated`]), then every `(stream, key)` in
/// `streams` the catalog resolves, which replaces an advisor pick for the
/// same table; nothing on one worker.
fn layout(
    db: &Database,
    workers: usize,
    topology: FederationTopology,
    stats: &StatsCatalog,
    mappings: &MappingCatalog,
    streams: &[(String, String)],
) -> Vec<(String, String)> {
    let mut keys: Vec<(String, String)> = Vec::new();
    if workers > 1 {
        if topology == FederationTopology::AutoPartitioned {
            let usage = mappings.term_column_usage();
            keys = optique_relational::advise_partition_keys(stats, &usage, MIN_PARTITION_ROWS);
        }
        for (stream, key) in streams {
            let resolvable = db
                .table(stream)
                .is_ok_and(|t| t.schema.index_of(key).is_some());
            if resolvable {
                // The stream key wins over an advisor pick for the same
                // table: window fragments restrict and route on the stream
                // key, so partitioning on anything else would silently
                // disable stream-shard pruning.
                keys.retain(|(t, _)| t != stream);
                keys.push((stream.clone(), key.clone()));
            }
        }
    }
    keys
}

/// `table` of `db` and the index of its partition-key column `key`.
fn key_column<'a>(
    db: &'a Database,
    table: &str,
    key: &str,
) -> Result<(&'a Arc<StoredTable>, usize), String> {
    let t = db.table(table).map_err(|e| e.to_string())?;
    let col = t
        .schema
        .index_of(key)
        .ok_or_else(|| format!("no column {key} on partitioned table {table}"))?;
    Ok((t, col))
}

/// The cluster of a pool over `db` that partitions each `(table, key)` of
/// `partition`: worker `w` holds `shards[i][w]` of the `i`-th table and
/// shares every other table with `db`.
fn provision(
    db: &Arc<Database>,
    workers: usize,
    partition: &[(String, String)],
    shards: Vec<Vec<Arc<StoredTable>>>,
) -> Result<Arc<Cluster>, String> {
    let mut key_columns: HashMap<String, usize> = HashMap::new();
    for (table, key) in partition {
        key_columns.insert(table.clone(), key_column(db, table, key)?.1);
    }
    let key_columns = Arc::new(key_columns);
    let mut shard_sets: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    Ok(Arc::new(Cluster::provision(workers, |id| {
        let mut worker_db = (**db).clone();
        for ((table, _), shards) in partition.iter().zip(&mut shard_sets) {
            let shard = shards.next().expect("one shard per worker");
            worker_db.put_stored(table.clone(), shard);
        }
        // A partitioned worker sees only the novelty-overlay rows that hash
        // to its shard for the keyed tables (replicated tables' overlay rows
        // stay fully visible) — a scatter round then covers each appended
        // row exactly once, like the base shards.
        worker_db.set_novelty_scope(Some(Arc::new(NoveltyScope {
            shard: id,
            shards: workers,
            keys: (*key_columns).clone(),
        })));
        worker_db
    })))
}

/// A branch's placement cost: its FROM item count (join width drives
/// disjunct cost far more than anything else we can see statically).
fn branch_cost(branch: &SelectStatement) -> f64 {
    (branch.joins.len() + 1) as f64
}

/// Branches bound for one statement, in order, with their indices in the
/// chain they came from and their summed cost.
#[derive(Default)]
struct Group {
    branches: Vec<SelectStatement>,
    ids: Vec<usize>,
    cost: f64,
}

impl Group {
    fn push(&mut self, id: usize, branch: SelectStatement) {
        self.cost += branch_cost(&branch);
        self.ids.push(id);
        self.branches.push(branch);
    }

    fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// The group's `UNION ALL` statement, chained by move.
    fn into_statement(self) -> SelectStatement {
        SelectStatement::union_all_of(self.branches).expect("a group holds a branch")
    }
}

/// Where a routing group's statement runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rung {
    Scatter,
    Placed,
    Coordinator,
}

/// One routing group of a fragment's branches and its rung.
struct Routed {
    rung: Rung,
    /// The key type and [`KeyRouting`] a scatter group's branches prune
    /// by; `None` for branches that scatter unpruned, and off the scatter
    /// rung.
    prunes: Option<(ColumnType, KeyRouting)>,
    group: Group,
}

impl Routed {
    fn new(rung: Rung, prunes: Option<(ColumnType, KeyRouting)>) -> Self {
        Routed {
            rung,
            prunes,
            group: Group::default(),
        }
    }
}

/// One routing group of a bound shape: its rung, its live branches, the
/// fragment costed by them and the group's bound plan.
struct BoundGroup {
    rung: Rung,
    branches: usize,
    fragment: PlanFragment,
    plan: ReadyPlan,
}

/// What a round sends where: the statements shipped to the workers, each
/// with its fragment's slot, and per slot the answers of its statements
/// run on the coordinator.
struct Outbox {
    shipped: Vec<StaticFragment>,
    slots: Vec<usize>,
    answers: Vec<Vec<Result<Table, String>>>,
    coordinator_statements: usize,
    /// Statements planned on the coordinator.
    plans_built: usize,
    counts: RungCounts,
}

impl Outbox {
    fn answer(&mut self, slot: usize, answer: Result<Table, String>) {
        self.coordinator_statements += 1;
        self.answers[slot].push(answer);
    }
}

/// Branches per rung of the ladder.
#[derive(Default)]
struct RungCounts {
    partitioned: usize,
    replicated: usize,
    coordinator: usize,
}

/// One fragment's answer: its statements' tables concatenated, as its
/// `UNION ALL` would concatenate its branches (the first error instead,
/// if any statement failed).
fn concat_tables(parts: Vec<Result<Table, String>>) -> Result<Table, String> {
    let mut parts = parts.into_iter();
    let mut table = parts.next().expect("every fragment ran a statement")?;
    for part in parts {
        let part = part?;
        if part.schema.len() != table.schema.len() {
            return Err(format!(
                "UNION ALL arity mismatch: {} vs {}",
                table.schema.len(),
                part.schema.len()
            ));
        }
        table.rows.extend(part.rows);
    }
    Ok(table)
}

impl FragmentExecutor for Federation {
    /// Ships each fragment's statement as one statement per routing group
    /// of its `UNION ALL` branches: every branch is classified down the
    /// ladder, scatter branches group by shard set (how they prune), placed
    /// branches by worker (LPT by cost), and coordinator branches run as
    /// one statement on the full catalog. The rung counters count
    /// branches; [`FragmentRound::statements`] counts the statements.
    fn execute(&self, fragments: Vec<PlanFragment>) -> Result<FragmentRound, String> {
        let mut out = Outbox {
            shipped: Vec::new(),
            slots: Vec::new(),
            answers: fragments.iter().map(|_| Vec::new()).collect(),
            coordinator_statements: 0,
            plans_built: 0,
            counts: RungCounts::default(),
        };
        let mut regroups = 0usize;
        // A text-built fragment nobody parsed yet costs this round exactly
        // one parse, here, when its statement is taken apart.
        let parses = fragments
            .iter()
            .filter(|f| f.pane.is_none() && !f.is_parsed())
            .count() as u64;
        for (slot, mut fragment) in fragments.into_iter().enumerate() {
            // Pane-combine fragments route on their probe, not their SQL:
            // a partitioned stream scatters (each worker combines its
            // shard's panes; per-key partials concatenate on gather), any
            // other layout places on one worker's full replica — answering
            // on every replica would multiply each group by the pool size.
            if let Some(probe) = &fragment.pane {
                let rung = if self.partition.iter().any(|(t, _)| t == &probe.stream) {
                    Rung::Scatter
                } else {
                    Rung::Placed
                };
                self.dispatch(&mut out, slot, (rung, 1), fragment, None);
                continue;
            }
            // A prepared shape the pool has planned runs its plans, bound:
            // nothing is regrouped or planned.
            let unrestricted = fragment.semi_joins.is_empty() && fragment.window.is_none();
            if let Some(prepared) = fragment.prepared().filter(|_| unrestricted).cloned() {
                let (built, groups) = self.bind_shape(&fragment, &prepared);
                if built > 0 {
                    regroups += 1;
                    out.plans_built += built;
                }
                for group in groups {
                    let routing = (group.rung, group.branches);
                    self.dispatch(&mut out, slot, routing, group.fragment, Some(group.plan));
                }
                continue;
            }
            let semi_joins = std::mem::take(&mut fragment.semi_joins);
            let window = fragment.window.take();
            let (id, epoch) = (fragment.id, fragment.novelty_epoch);
            let statement = match fragment.into_statement() {
                Ok(statement) => statement,
                // Unparseable SQL (text-built fragments only) cannot be
                // classified; it fails on the coordinator's rung.
                Err(e) => {
                    out.counts.coordinator += 1;
                    out.answer(slot, Err(e.to_string()));
                    continue;
                }
            };
            regroups += 1;
            // Each group's statement carries the fragment's restrictions,
            // window and epoch: every worker resolves the same overlay.
            for Routed {
                rung,
                prunes,
                group,
            } in self.regroup(statement, &semi_joins)
            {
                let (branches, cost) = (group.branches.len(), group.cost);
                let mut statement = PlanFragment::from_statement(id, group.into_statement(), cost)
                    .with_semi_joins(semi_joins.clone())
                    .at_epoch(epoch);
                statement.window = window.clone();
                // The layout the branches' routing was read against: the
                // gateway's `shard_plan` reads it again, alike.
                if let Some((column_type, _)) = prunes {
                    statement = statement.with_partition(PartitionSpec {
                        tables: self.partition.clone(),
                        column_type,
                    });
                }
                self.dispatch(&mut out, slot, (rung, branches), statement, None);
            }
        }
        let round = self.gateway.run_static_round(&out.shipped);
        let mut panes = vec![PaneCounts::default(); out.answers.len()];
        for (&slot, counts) in out.slots.iter().zip(&round.panes) {
            panes[slot] += *counts;
        }
        for (&slot, outcome) in out.slots.iter().zip(round.tables) {
            out.answers[slot].push(outcome.map_err(|e| e.to_string()));
        }
        let counts = out.counts;
        Ok(FragmentRound {
            tables: out.answers.into_iter().map(concat_tables).collect(),
            statements: out.shipped.len() + out.coordinator_statements,
            coordinator_fallbacks: counts.coordinator,
            partitioned_fragments: counts.partitioned,
            replicated_fallbacks: counts.replicated,
            shards_pruned: round.shards_pruned,
            // One accounting for the whole round: every statement execution
            // (worker-side or on the coordinator) either paid one of the
            // round's parses or needed none.
            plan_cache_hits: (round.plan_cache_hits
                + round.plan_cache_misses
                + out.coordinator_statements as u64)
                .saturating_sub(parses),
            plan_cache_misses: parses,
            panes,
            regroups,
            plans_built: out.plans_built + round.plans_built,
            // Worker-side spans ride back with the round; a traced pipeline
            // grafts them under its exec span (untraced callers drop them).
            spans: round.spans,
        })
    }

    fn workers(&self) -> usize {
        self.workers
    }

    /// A partitioned federation slices key-derived `IN`-lists per shard
    /// (`PlanFragment::shard_plan`), so it accepts lists up to
    /// `base × workers`: in the common case — a scatter fragment restricted
    /// through its partition key — each worker sees only its ~`base`-value
    /// slice. Fragments on the other rungs (or restricted on non-key
    /// columns) still ship the whole list; that costs wire bytes, never
    /// answers. Replicated pools ship every list whole and keep the base
    /// budget.
    fn max_restriction_values(&self, base: usize) -> usize {
        if self.partition.is_empty() {
            base
        } else {
            base.saturating_mul(self.workers)
        }
    }
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Federation({} workers, {} partitioned tables)",
            self.workers,
            self.partition.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_relational::{table::table_of, ColumnType, Value};

    fn db() -> Arc<Database> {
        let mut db = Database::new();
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("tid", ColumnType::Int)],
                (0..100)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                    .collect(),
            )
            .unwrap(),
        );
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[("tid", ColumnType::Int)],
                (0..7).map(|i| vec![Value::Int(i)]).collect(),
            )
            .unwrap(),
        );
        Arc::new(db)
    }

    fn canon(t: &Table) -> Vec<Vec<Value>> {
        let mut rows = t.rows.clone();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    fn classify(federation: &Federation, sql: &str) -> ShardCompatibility {
        federation.classify(&optique_relational::parse_select(sql).unwrap())
    }

    fn sensors_by_sid(db: Arc<Database>, workers: usize) -> Federation {
        Federation::partitioned(db, workers, &[("sensors".to_string(), "sid".to_string())]).unwrap()
    }

    #[test]
    fn replicated_execution_matches_local() {
        let db = db();
        let federation = Federation::replicated(Arc::clone(&db), 4);
        let sql = "SELECT sid FROM sensors WHERE tid = 3";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        let round = federation
            .execute(vec![PlanFragment::new(0, sql, 1.0)])
            .unwrap();
        assert_eq!(canon(round.tables[0].as_ref().unwrap()), canon(&local));
        // Placed execution on a replicated pool is the design, not a
        // fallback rung.
        assert_eq!(round.replicated_fallbacks, 0);
        assert_eq!(round.partitioned_fragments, 0);
    }

    #[test]
    fn partitioned_scan_covers_all_shards() {
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 4);
        let sql = "SELECT sid FROM sensors";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        let round = federation
            .execute(vec![PlanFragment::new(0, sql, 1.0)])
            .unwrap();
        assert_eq!(round.tables[0].as_ref().unwrap().len(), 100);
        assert_eq!(canon(round.tables[0].as_ref().unwrap()), canon(&local));
        assert_eq!(round.partitioned_fragments, 1);
    }

    #[test]
    fn partitioned_join_with_replica_is_complete() {
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 4);
        // One partitioned occurrence + one replica: scatter is sound.
        let sql = "SELECT s.sid FROM sensors AS s JOIN turbines AS t ON s.tid = t.tid";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        let results = federation
            .execute(vec![PlanFragment::new(0, sql, 2.0)])
            .unwrap()
            .tables;
        assert_eq!(canon(results[0].as_ref().unwrap()), canon(&local));
    }

    #[test]
    fn co_partitioned_self_join_scatters() {
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 4);
        // Joined on the partition key: matching rows share a shard, so the
        // scatter is complete — no coordinator fallback needed.
        let sql = "SELECT a.sid FROM sensors AS a JOIN sensors AS b ON a.sid = b.sid";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        let round = federation
            .execute(vec![PlanFragment::new(0, sql, 4.0)])
            .unwrap();
        assert_eq!(round.coordinator_fallbacks, 0, "key join scatters");
        assert_eq!(round.partitioned_fragments, 1);
        assert_eq!(canon(round.tables[0].as_ref().unwrap()), canon(&local));
    }

    #[test]
    fn partitioned_self_join_falls_back_to_coordinator() {
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 4);
        // Two partitioned occurrences joined on a non-partition key: a
        // shard-local join would miss cross-shard pairs; the coordinator
        // path must keep it complete.
        let sql = "SELECT a.sid FROM sensors AS a JOIN sensors AS b ON a.tid = b.tid";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        let round = federation
            .execute(vec![PlanFragment::new(0, sql, 4.0)])
            .unwrap();
        assert_eq!(round.coordinator_fallbacks, 1, "non-key join falls back");
        let results = round.tables;
        assert_eq!(canon(results[0].as_ref().unwrap()), canon(&local));
    }

    #[test]
    fn classification_counts_table_refs_not_text() {
        let db = db();
        let federation = sensors_by_sid(db, 2);
        assert!(matches!(
            classify(&federation, "SELECT sid FROM sensors"),
            ShardCompatibility::Scatter { .. }
        ));
        assert!(matches!(
            classify(&federation, "SELECT DISTINCT sid FROM sensors"),
            ShardCompatibility::Scatter { .. }
        ));
        // Two partitioned references joined off-key: shard-local joins
        // would be incomplete.
        assert!(matches!(
            classify(
                &federation,
                "SELECT a.sid FROM sensors AS a JOIN sensors AS b ON a.tid = b.tid"
            ),
            ShardCompatibility::Incompatible
        ));
        // A partitioned-table name inside a string literal is data, not a
        // scan: this fragment reads only the replicated `turbines` table.
        assert!(matches!(
            classify(
                &federation,
                "SELECT tid FROM turbines WHERE 'sensors' = 'sensors'"
            ),
            ShardCompatibility::Unpartitioned
        ));
        // Aggregates / GROUP BY / LIMIT are not concat-decomposable.
        for sql in [
            "SELECT COUNT(*) AS n FROM sensors",
            "SELECT tid, COUNT(*) AS n FROM sensors GROUP BY tid",
            "SELECT sid FROM sensors LIMIT 3",
            "SELECT sid FROM sensors ORDER BY sid",
            "SELECT sid FROM (SELECT sid FROM sensors) AS s \
             UNION ALL SELECT sid FROM sensors",
        ] {
            assert!(
                matches!(classify(&federation, sql), ShardCompatibility::Incompatible),
                "{sql} must fall back to the coordinator"
            );
        }
        // Unparseable SQL cannot be classified: it fails its slot on the
        // coordinator's rung, surfacing the real error.
        let round = federation
            .execute(vec![PlanFragment::new(0, "SELECT FROM", 1.0)])
            .unwrap();
        assert_eq!(round.coordinator_fallbacks, 1);
        assert!(round.tables[0].is_err());
        // The scatter verdict names the key column; its type routes.
        if let ShardCompatibility::Scatter { table, column } =
            classify(&federation, "SELECT sid FROM sensors")
        {
            assert_eq!((table.as_str(), column.as_str()), ("sensors", "sid"));
            assert_eq!(federation.key_type(&table, &column), ColumnType::Int);
        } else {
            panic!("expected scatter");
        }
    }

    /// Non-decomposable fragments over a partitioned table must return the
    /// *global* result, not per-shard partials.
    #[test]
    fn aggregates_over_partitioned_tables_stay_global() {
        let db = db();
        let federation = sensors_by_sid(db, 4);
        let round = federation
            .execute(vec![
                PlanFragment::new(0, "SELECT COUNT(*) AS n FROM sensors", 1.0),
                PlanFragment::new(1, "SELECT sid FROM sensors LIMIT 3", 1.0),
                PlanFragment::new(2, "SELECT DISTINCT tid FROM sensors", 1.0),
            ])
            .unwrap();
        // COUNT(*) and LIMIT fall back; DISTINCT scatters with gather-dedup.
        assert_eq!(round.coordinator_fallbacks, 2);
        let results = round.tables;
        assert_eq!(
            results[0].as_ref().unwrap().rows,
            vec![vec![Value::Int(100)]],
            "one global count"
        );
        assert_eq!(
            results[1].as_ref().unwrap().len(),
            3,
            "global LIMIT, not 4×3"
        );
        assert_eq!(
            results[2].as_ref().unwrap().len(),
            7,
            "DISTINCT deduped across shards"
        );
    }

    /// A fragment that fails does so in its own slot: the round answers
    /// every other fragment, on either layout.
    #[test]
    fn a_failing_fragment_fails_only_its_slot() {
        let db = db();
        let sql = "SELECT sid FROM sensors WHERE tid = 3";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        for federation in [
            Federation::replicated(Arc::clone(&db), 2),
            sensors_by_sid(Arc::clone(&db), 2),
        ] {
            let round = federation
                .execute(vec![
                    PlanFragment::new(0, "SELECT x FROM missing", 1.0),
                    PlanFragment::new(1, sql, 1.0),
                ])
                .unwrap();
            assert!(round.tables[0].is_err(), "{federation:?}: {round:?}");
            assert_eq!(canon(round.tables[1].as_ref().unwrap()), canon(&local));
        }
    }

    /// A literal containing a partitioned table's name must not force
    /// scatter execution (which would duplicate replicated rows per worker).
    #[test]
    fn literal_mentions_do_not_scatter() {
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 4);
        let sql = "SELECT tid FROM turbines WHERE 'sensors' = 'sensors'";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        let round = federation
            .execute(vec![PlanFragment::new(0, sql, 1.0)])
            .unwrap();
        assert_eq!(
            round.tables[0].as_ref().unwrap().len(),
            local.len(),
            "scatter would return 4x the rows"
        );
        // In a partitioned pool, a placed fragment is the ladder's middle
        // rung.
        assert_eq!(round.replicated_fallbacks, 1);
    }

    /// Semi-join `IN`-lists over the partition key prune the scatter to the
    /// shards that can hold matching rows — without changing the answer.
    #[test]
    fn keyed_semi_join_prunes_shards() {
        use optique_relational::SemiJoin;
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 8);
        let fragment = PlanFragment::new(0, "SELECT sid FROM sensors", 1.0)
            .with_semi_joins(vec![SemiJoin::new("sid", vec![Value::Int(5)])]);
        let round = federation.execute(vec![fragment]).unwrap();
        assert!(round.shards_pruned >= 6, "8 shards, ≤ 2 targets: {round:?}");
        assert_eq!(
            round.tables[0].as_ref().unwrap().rows,
            vec![vec![Value::Int(5)]]
        );
    }

    /// A `UNION ALL` fragment regroups by rung: its scatter, placed and
    /// coordinator branches run as one statement each, each branch counts
    /// on its rung, and the answer is the union's.
    #[test]
    fn a_union_ships_one_statement_per_rung() {
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 4);
        let sql = "SELECT sid FROM sensors WHERE tid = 1 \
                   UNION ALL SELECT tid FROM turbines \
                   UNION ALL SELECT sid FROM sensors WHERE tid = 2 \
                   UNION ALL SELECT a.sid FROM sensors AS a JOIN sensors AS b ON a.tid = b.tid";
        let local = optique_relational::exec::query(sql, &db).unwrap();
        let round = federation
            .execute(vec![PlanFragment::new(0, sql, 1.0)])
            .unwrap();
        assert_eq!(canon(round.tables[0].as_ref().unwrap()), canon(&local));
        assert_eq!(round.statements, 3, "{round:?}");
        assert_eq!(
            (
                round.partitioned_fragments,
                round.replicated_fallbacks,
                round.coordinator_fallbacks
            ),
            (2, 1, 1)
        );
    }

    /// Branches that derive a restricted column from their key the same
    /// way prune as one statement: each target shard runs the union with
    /// its slice of the list.
    #[test]
    fn a_keyed_union_prunes_as_one_statement() {
        use optique_relational::SemiJoin;
        let db = db();
        let federation = sensors_by_sid(Arc::clone(&db), 8);
        let sql = "SELECT sid FROM sensors WHERE tid = 5 \
                   UNION ALL SELECT sid FROM sensors WHERE tid = 6";
        let fragment = PlanFragment::new(0, sql, 1.0).with_semi_joins(vec![SemiJoin::new(
            "sid",
            vec![Value::Int(5), Value::Int(6)],
        )]);
        let local = fragment.execute(&db).unwrap();
        let round = federation.execute(vec![fragment]).unwrap();
        assert_eq!(round.statements, 1, "{round:?}");
        assert!(round.shards_pruned >= 5, "8 shards, ≤ 3 targets: {round:?}");
        assert_eq!(canon(round.tables[0].as_ref().unwrap()), canon(&local));
        assert_eq!(local.len(), 2);
    }

    /// The advisor partitions the 100-row sensors table on `sid` (unique,
    /// even, most-joined) and leaves the 7-row turbines table replicated.
    #[test]
    fn advisor_picks_keys_from_stats_and_mappings() {
        use optique_mapping::{MappingAssertion, TermMap};
        let db = db();
        let stats = StatsCatalog::analyze(&db);
        let mut mappings = MappingCatalog::new();
        mappings
            .add(MappingAssertion::class(
                "sensor",
                optique_rdf::Iri::new("http://x/Sensor"),
                "SELECT sid FROM sensors",
                TermMap::template("http://x/sensor/{sid}"),
            ))
            .unwrap();
        mappings
            .add(MappingAssertion::property(
                "at",
                optique_rdf::Iri::new("http://x/at"),
                "SELECT sid, tid FROM sensors",
                TermMap::template("http://x/sensor/{sid}"),
                TermMap::template("http://x/turbine/{tid}"),
            ))
            .unwrap();
        mappings
            .add(MappingAssertion::class(
                "turbine",
                optique_rdf::Iri::new("http://x/Turbine"),
                "SELECT tid FROM turbines",
                TermMap::template("http://x/turbine/{tid}"),
            ))
            .unwrap();

        let advised = |workers: usize, stats: &StatsCatalog| {
            let topology = FederationTopology::AutoPartitioned;
            Federation::for_deployment(Arc::clone(&db), workers, topology, stats, &mappings, &[])
        };
        let federation = advised(4, &stats);
        assert_eq!(
            federation.partition(),
            &[("sensors".to_string(), "sid".to_string())],
            "sensors shard on sid; turbines (7 rows) stay replicated"
        );

        // One worker, or no qualifying table: plain replication.
        assert!(advised(1, &stats).partition().is_empty());
        assert!(advised(4, &StatsCatalog::new()).partition().is_empty());
    }

    /// Stream tables partition unconditionally under `for_deployment`:
    /// window fragments scatter even when the advisor shards nothing.
    #[test]
    fn for_deployment_always_partitions_streams() {
        use optique_relational::WindowSlice;
        let mut db = Database::new();
        db.put_table(
            "S_M",
            table_of(
                "S_M",
                &[("ts", ColumnType::Timestamp), ("sid", ColumnType::Int)],
                (0..40)
                    .map(|i| vec![Value::Timestamp(i * 100), Value::Int(i % 8)])
                    .collect(),
            )
            .unwrap(),
        );
        let db = Arc::new(db);
        let streams = [("S_M".to_string(), "sid".to_string())];
        let federation = Federation::for_deployment(
            Arc::clone(&db),
            4,
            FederationTopology::Replicated,
            &StatsCatalog::new(),
            &MappingCatalog::new(),
            &streams,
        );
        assert_eq!(federation.partition(), &streams);

        // A window fragment over the partitioned stream scatters, and the
        // gathered rows are exactly the local slice.
        let fragment =
            PlanFragment::new(0, "SELECT ts, sid FROM S_M", 1.0).with_window(WindowSlice {
                column: "ts".into(),
                open_ms: 900,
                close_ms: 1900,
            });
        let local = fragment.execute(&db).unwrap();
        let round = federation.execute(vec![fragment]).unwrap();
        assert_eq!(round.partitioned_fragments, 1, "the window scattered");
        assert_eq!(canon(round.tables[0].as_ref().unwrap()), canon(&local));
        assert_eq!(local.len(), 10);

        // Unknown streams are skipped, not fatal.
        let lenient = Federation::for_deployment(
            Arc::clone(&db),
            4,
            FederationTopology::Replicated,
            &StatsCatalog::new(),
            &MappingCatalog::new(),
            &[("nope".to_string(), "sid".to_string())],
        );
        assert!(lenient.partition().is_empty());
        // One worker: a single shard is the whole stream anyway.
        let single = Federation::for_deployment(
            db,
            1,
            FederationTopology::Replicated,
            &StatsCatalog::new(),
            &MappingCatalog::new(),
            &streams,
        );
        assert!(single.partition().is_empty());
    }

    /// When the advisor picks a key for a table that is also a registered
    /// stream, the stream key wins: window routing restricts on it, so
    /// partitioning on the advisor's column would silently disable
    /// stream-shard pruning.
    #[test]
    fn stream_key_overrides_advisor_pick() {
        use optique_mapping::{MappingAssertion, TermMap};
        let mut db = Database::new();
        db.put_table(
            "S_M",
            table_of(
                "S_M",
                &[
                    ("ts", ColumnType::Timestamp),
                    ("sid", ColumnType::Int),
                    ("other", ColumnType::Int),
                ],
                (0..64)
                    .map(|i| vec![Value::Timestamp(i * 100), Value::Int(i % 16), Value::Int(i)])
                    .collect(),
            )
            .unwrap(),
        );
        let db = Arc::new(db);
        let stats = StatsCatalog::analyze(&db);
        // The mapping joins through `other`, so the advisor would shard
        // S_M on it.
        let mut mappings = MappingCatalog::new();
        mappings
            .add(MappingAssertion::class(
                "event",
                optique_rdf::Iri::new("http://x/Event"),
                "SELECT other FROM S_M",
                TermMap::template("http://x/event/{other}"),
            ))
            .unwrap();
        let advisor_only = Federation::for_deployment(
            Arc::clone(&db),
            4,
            FederationTopology::AutoPartitioned,
            &stats,
            &mappings,
            &[],
        );
        assert_eq!(
            advisor_only.partition(),
            &[("S_M".to_string(), "other".to_string())],
            "precondition: the advisor picks `other`"
        );
        let with_stream = Federation::for_deployment(
            db,
            4,
            FederationTopology::AutoPartitioned,
            &stats,
            &mappings,
            &[("S_M".to_string(), "sid".to_string())],
        );
        assert_eq!(
            with_stream.partition(),
            &[("S_M".to_string(), "sid".to_string())],
            "the stream key replaces the advisor pick"
        );
    }

    /// A stream-key semi-join on a scattered window fragment prunes the
    /// shards that hold no admissible key — the stream side of the
    /// stream-static join pushdown.
    #[test]
    fn restricted_window_fragment_prunes_stream_shards() {
        use optique_relational::{SemiJoin, WindowSlice};
        let mut db = Database::new();
        db.put_table(
            "S_M",
            table_of(
                "S_M",
                &[("ts", ColumnType::Timestamp), ("sid", ColumnType::Int)],
                (0..80)
                    .map(|i| vec![Value::Timestamp(i * 10), Value::Int(i % 16)])
                    .collect(),
            )
            .unwrap(),
        );
        let db = Arc::new(db);
        let federation = Federation::for_deployment(
            Arc::clone(&db),
            8,
            FederationTopology::Replicated,
            &StatsCatalog::new(),
            &MappingCatalog::new(),
            &[("S_M".to_string(), "sid".to_string())],
        );
        let fragment = PlanFragment::new(0, "SELECT ts, sid FROM S_M", 1.0)
            .with_window(WindowSlice {
                column: "ts".into(),
                open_ms: -1,
                close_ms: 1000,
            })
            .with_semi_joins(vec![SemiJoin::new("sid", vec![Value::Int(3)])]);
        let local = fragment.execute(&db).unwrap();
        let round = federation.execute(vec![fragment]).unwrap();
        assert!(round.shards_pruned >= 6, "8 shards, ≤ 2 targets: {round:?}");
        assert_eq!(canon(round.tables[0].as_ref().unwrap()), canon(&local));
        assert!(!round.tables[0].as_ref().unwrap().rows.is_empty());
    }

    /// A scatter round pinned at a novelty epoch gathers each overlay row
    /// exactly once: partitioned workers slice the overlay by the same
    /// hash as the base shards, while replicated pools (one worker answers)
    /// see the full overlay.
    #[test]
    fn scatter_covers_novelty_rows_exactly_once() {
        use optique_relational::NoveltyOverlay;
        let db = db();
        let overlay = NoveltyOverlay::empty().with_rows(
            "sensors",
            (100..110)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                .collect(),
        );
        let pinned =
            || PlanFragment::new(0, "SELECT sid FROM sensors", 1.0).at_epoch(overlay.epoch());

        let partitioned = sensors_by_sid(Arc::clone(&db), 4);
        let round = partitioned.execute(vec![pinned()]).unwrap();
        assert_eq!(round.partitioned_fragments, 1, "the scan scattered");
        let distinct: std::collections::HashSet<i64> = (round.tables[0].as_ref().unwrap().rows)
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(
            round.tables[0].as_ref().unwrap().len(),
            110,
            "no overlay row duplicated"
        );
        assert_eq!(distinct.len(), 110, "no overlay row missed");

        let replicated = Federation::replicated(Arc::clone(&db), 4);
        let round = replicated.execute(vec![pinned()]).unwrap();
        assert_eq!(round.tables[0].as_ref().unwrap().len(), 110);
    }

    /// The restriction budget widens only for pools that can slice lists
    /// per shard.
    #[test]
    fn restriction_budget_scales_with_partitioning() {
        let db = db();
        let replicated = Federation::replicated(Arc::clone(&db), 4);
        assert_eq!(replicated.max_restriction_values(256), 256);
        let partitioned = sensors_by_sid(db, 4);
        assert_eq!(partitioned.max_restriction_values(256), 1024);
    }
}

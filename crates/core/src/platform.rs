//! The OPTIQUE platform: deployment, the snapshot and its write path, static
//! queries, admin and metrics. The continuous-query lifecycle and the driven
//! round are the same type's other half, in [`crate::streaming`].
//!
//! # Concurrency model
//!
//! The platform is a shared `&self` service. All query-relevant mutable
//! state — catalog, statistics, topology, planner knobs, per-table write
//! versions — lives in **one** [`PlatformSnapshot`] behind a single
//! `RwLock<Arc<…>>`. Queries capture the current snapshot with one atomic
//! read at the start and never touch shared state again (MVCC-style), so a
//! request cannot mix pre-write and post-write state across its
//! parse→rewrite→unfold→exec pipeline. Writers
//! ([`insert_static`](OptiquePlatform::insert_static),
//! [`merge_now`](OptiquePlatform::merge_now)) build the next snapshot and
//! evict or drop what it supersedes while still holding the write lock,
//! then publish everything with one swap.
//!
//! # Incremental writes
//!
//! `insert_static` does **not** rebuild the catalog: appended rows land in
//! an immutable per-table novelty log
//! ([`optique_relational::NoveltyOverlay`]) swapped in alongside the
//! *same* base catalog `Arc` — so federation pools stay valid, statistics
//! take an O(1) row-count delta, and the BGP cache keeps every entry
//! whose tables were untouched (per-table write versions,
//! [`optique_sparql::TableVersions`]). Scans merge base + overlay; plan
//! fragments pin the overlay's epoch so every worker in a
//! round resolves the same overlay. A merge
//! ([`merge_now`](OptiquePlatform::merge_now), or automatic inside the
//! insert that brings the overlay to [`MERGE_FLOOR_ROWS`] rows *and* to one
//! [`MERGE_SHARE`]th of the base tables it sits on) folds the log into the
//! base tables — each log's batches become segments of its table, no row
//! copied — brings only the touched tables' statistics up to date, and
//! replaces each pool by its [`successor`](Federation::successor) over the
//! folded catalog, which keeps the worker shards and pane stores of every
//! table that keeps its partition key. A fold costs what was appended
//! since the last one; owing one per fixed *share* of new rows keeps the
//! overlay every scan chains through bounded by that share.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use optique_bootstrap::{bootstrap_direct, BootstrapSettings, RelationalSchema};
use optique_mapping::MappingCatalog;
use optique_ontology::Ontology;
use optique_rdf::Namespaces;
use optique_relational::{Database, NoveltyOverlay, StatsCatalog, TermDict, Value};
use optique_siemens::SiemensDeployment;
use optique_sparql::{
    parse_sparql, BgpCache, PipelineStats, PlannerSettings, ShapeCache, ShapeMiss, SparqlResults,
    StaticPipeline, TableVersions,
};
use optique_starql::StreamToRdf;
use optique_stream::WCache;
use optique_telemetry::{render_tree, MetricsRegistry, MetricsSnapshot, Tracer};
use parking_lot::{Mutex, RwLock};

use crate::dashboard::{Dashboard, SlowQuery, StaticQueryPanel};
use crate::federation::{Federation, FederationTopology};
use crate::streaming::RegisteredStarQl;

/// An immutable, internally consistent view of everything a static or
/// streaming query reads: captured with one atomic load at request start
/// and pinned for the request's whole pipeline. Writers never mutate a
/// published snapshot — they install a complete replacement, so in-flight
/// readers keep a coherent (if momentarily stale) world.
#[derive(Clone)]
pub struct PlatformSnapshot {
    /// The **base** data sources (static tables + stream tables) — overlay
    /// rows excluded. Federation pools shard this catalog and validate by
    /// pointer identity against it; overlay appends keep the `Arc`, merges
    /// swap it.
    pub db: Arc<Database>,
    /// The catalog static queries read: [`Self::db`] with
    /// [`Self::novelty`] installed, so scans merge base + overlay rows.
    /// The same `Arc` as [`Self::db`] while the overlay is empty.
    pub view: Arc<Database>,
    /// Rows appended since the last merge, immutably versioned by epoch.
    pub novelty: Arc<NoveltyOverlay>,
    /// Per-table write versions of this snapshot: bumped by every insert,
    /// *unchanged* by merges (a merge changes no table's contents), so
    /// versioned BGP-cache entries survive exactly as long as their data
    /// is current.
    pub versions: Arc<TableVersions>,
    /// Per-table row/distinct statistics over exactly [`Self::db`] —
    /// refreshed in the same swap that installs the catalog, so a
    /// snapshot's cardinalities always describe its rows (no db/stats
    /// tear).
    pub stats: Arc<StatsCatalog>,
    /// Pool layout distributed queries build under this snapshot.
    pub topology: FederationTopology,
    /// Join-order / semi-join planner knobs in force for this snapshot.
    pub planner: PlannerSettings,
    /// The catalog generation: 0 at deploy, bumped by every merge, which is
    /// what swaps [`Self::db`]. A pool slot only ever moves to a pool of a
    /// newer generation.
    pub generation: u64,
    /// Per-table stream clocks: the highest timestamp among the rows (base
    /// and overlay) of every table that has the stream mapping's timestamp
    /// column — scanned once at deploy, then advanced from each inserted
    /// batch alone. A table without the column, or without a timestamped
    /// row yet, has no entry.
    pub clocks: Arc<HashMap<String, i64>>,
}

/// The deployed integration platform.
pub struct OptiquePlatform {
    /// The query-relevant mutable state, swapped wholesale as one
    /// [`PlatformSnapshot`]: readers take one `read` to pin a consistent
    /// view; writers build the successor and publish it atomically.
    state: RwLock<Arc<PlatformSnapshot>>,
    /// The deployment TBox.
    pub ontology: Ontology,
    /// Prefixes for query text.
    pub namespaces: Namespaces,
    /// The mapping catalog.
    pub mappings: MappingCatalog,
    /// The stream-side mapping.
    pub stream_to_rdf: StreamToRdf,
    pub(crate) wcache: Arc<WCache>,
    /// The registered continuous queries, in registration order (the
    /// streaming half lives in [`crate::streaming`]).
    pub(crate) queries: Mutex<BTreeMap<u64, RegisteredStarQl>>,
    pub(crate) next_id: std::sync::atomic::AtomicU64,
    static_log: Mutex<VecDeque<StaticQueryPanel>>,
    static_next_id: std::sync::atomic::AtomicU64,
    /// Per-BGP solution-set cache shared by every static query (single-node
    /// and distributed). Validity is decided by the snapshot's per-table
    /// versions; a write also evicts the written table's dependents inside
    /// its critical section (memory hygiene, dashboard counter).
    static_cache: BgpCache,
    /// Prepared BGP shapes shared by every static query and registration:
    /// rewritten and unfolded once, bound per query (see
    /// [`optique_sparql::shapes`]). Writes and merges keep it; what each pool
    /// planned for a shape lives in the pool.
    shapes: ShapeCache,
    /// Static-query worker pools, one per requested `(worker count,
    /// topology)`, each replaced by its successor over the folded catalog
    /// inside the merge critical section (workers snapshot the base
    /// catalog they were built over — and a fold may change the advisor's
    /// partition keys). Lookups additionally validate
    /// the cached pool's catalog against the request snapshot by pointer
    /// identity, so a pool raced into the map over a superseded catalog is
    /// never served.
    pub(crate) federations: Mutex<HashMap<(usize, FederationTopology), Arc<Federation>>>,
    /// Fired once (and cleared) right after `insert_static`'s critical
    /// section — the seam where the successor snapshot has just been
    /// published. Interleaving regression tests hang their assertions here.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    write_probe: Mutex<Option<Box<dyn FnOnce(&OptiquePlatform) + Send>>>,
    /// Fired once (and cleared) right after [`merge_now`]'s critical
    /// section — the seam where the folded catalog has just been published.
    /// The merge-race regression tests hang their assertions here.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    merge_probe: Mutex<Option<Box<dyn FnOnce(&OptiquePlatform) + Send>>>,
    /// Makes every pane round of a driven round fail (see
    /// `set_round_fault`).
    #[cfg(test)]
    pub(crate) round_fault: std::sync::atomic::AtomicBool,
    /// Platform-wide counters and latency histograms, exported by
    /// [`metrics_snapshot`](Self::metrics_snapshot). Static queries feed
    /// `static.query_us`; every registered continuous query feeds
    /// `tick.q<id>.us`.
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Whether static queries record span trees (on by default; the
    /// tracing-overhead bench flips it off for its untraced baseline).
    tracing: std::sync::atomic::AtomicBool,
    /// End-to-end latency at which a static query lands on the slow-query
    /// log, in microseconds.
    slow_threshold_us: std::sync::atomic::AtomicU64,
    /// The most recent slow static queries, oldest first (capped at
    /// [`SLOW_LOG_CAP`]; a deque so eviction pops the front in O(1)).
    slow_log: Mutex<VecDeque<SlowQuery>>,
}

/// How many executed static queries the dashboard remembers.
const STATIC_LOG_CAP: usize = 64;

/// How many slow queries the log remembers.
const SLOW_LOG_CAP: usize = 32;

/// Default slow-query threshold: 100 ms.
const DEFAULT_SLOW_THRESHOLD_US: u64 = 100_000;

/// An overlay shallower than this never merges on its own: folding a few
/// rows is all overhead (every carried pool's pane stores rebuild their
/// cached windows from the panes after it).
pub const MERGE_FLOOR_ROWS: usize = 4096;

/// Past the floor, an insert merges once the overlay is this fraction
/// (1/8) of the base rows of the tables it touches — the autovacuum-analyze
/// rule: a fold copies only the overlay, but every carried pool's windows
/// rebuild after it, so it is owed when a fixed share of the tables is
/// new — and the overlay every scan chains through stays within that
/// share.
pub const MERGE_SHARE: usize = 8;

/// The largest worker pool a request may name: the paper's largest
/// deployment, and what `fleet_scaling` sweeps to. `workers` arrives from
/// outside (`Request::SparqlDistributed`), and every distinct count keeps a
/// re-sharding of the whole catalog in the pool map.
pub const MAX_WORKERS: usize = 128;

/// The one check on a caller-supplied worker count (`None` = single-node).
pub(crate) fn check_workers(workers: Option<usize>) -> Result<(), String> {
    match workers {
        Some(w) if !(1..=MAX_WORKERS).contains(&w) => Err(format!(
            "a worker pool has 1 to {MAX_WORKERS} workers, not {w}"
        )),
        _ => Ok(()),
    }
}

/// The highest timestamp in `rows` (`None` when no row carries one).
fn batch_clock<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>, ts_idx: usize) -> Option<i64> {
    (rows.into_iter())
        .filter_map(|row| row.get(ts_idx).and_then(Value::as_i64))
        .max()
}

impl OptiquePlatform {
    /// Deploys over explicit assets.
    pub fn deploy(
        db: Database,
        ontology: Ontology,
        namespaces: Namespaces,
        mappings: MappingCatalog,
        stream_to_rdf: StreamToRdf,
    ) -> Self {
        let stats = Arc::new(StatsCatalog::analyze(&db));
        let clocks = db
            .table_names()
            .into_iter()
            .filter_map(|name| {
                let table = db.table(name).ok()?;
                let ts_idx = table.schema.index_of(&stream_to_rdf.timestamp_col)?;
                Some((name.to_string(), batch_clock(&table.rows, ts_idx)?))
            })
            .collect();
        let db = Arc::new(db);
        let state = RwLock::new(Arc::new(PlatformSnapshot {
            view: Arc::clone(&db),
            db,
            novelty: NoveltyOverlay::empty(),
            versions: Arc::new(TableVersions::new()),
            stats,
            topology: FederationTopology::default(),
            planner: PlannerSettings::default(),
            generation: 0,
            clocks: Arc::new(clocks),
        }));
        OptiquePlatform {
            state,
            ontology,
            namespaces,
            mappings,
            stream_to_rdf,
            wcache: Arc::new(WCache::new()),
            queries: Mutex::new(BTreeMap::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
            static_log: Mutex::new(VecDeque::new()),
            static_next_id: std::sync::atomic::AtomicU64::new(1),
            static_cache: BgpCache::new(),
            shapes: ShapeCache::new(),
            federations: Mutex::new(HashMap::new()),
            #[cfg(test)]
            write_probe: Mutex::new(None),
            #[cfg(test)]
            merge_probe: Mutex::new(None),
            #[cfg(test)]
            round_fault: std::sync::atomic::AtomicBool::new(false),
            registry: Arc::new(MetricsRegistry::new()),
            tracing: std::sync::atomic::AtomicBool::new(true),
            slow_threshold_us: std::sync::atomic::AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// Pins the current [`PlatformSnapshot`]: one atomic load, after which
    /// the caller's view of catalog, statistics, topology, planner and
    /// table versions is immutable for as long as the `Arc` is held.
    pub fn snapshot(&self) -> Arc<PlatformSnapshot> {
        Arc::clone(&self.state.read())
    }

    /// The current relational snapshot (static tables + stream tables),
    /// **including** any unmerged novelty-overlay rows: scans over the
    /// returned catalog merge base + overlay, so readers see every
    /// committed insert whether or not it has been merged yet.
    pub fn db(&self) -> Arc<Database> {
        Arc::clone(&self.state.read().view)
    }

    /// Deploys straight from a generated Siemens scenario.
    pub fn from_siemens(deployment: SiemensDeployment) -> Self {
        OptiquePlatform::deploy(
            deployment.db,
            deployment.ontology,
            deployment.namespaces,
            deployment.mappings,
            deployment.stream_to_rdf,
        )
    }

    /// Deploys by **bootstrapping** ontology and mappings from a relational
    /// schema (demo scenario S3), then merging any extra curated assets.
    pub fn deploy_with_bootstrap(
        db: Database,
        schema: &RelationalSchema,
        settings: &BootstrapSettings,
        namespaces: Namespaces,
        stream_to_rdf: StreamToRdf,
        extra_ontology: Option<&Ontology>,
        extra_mappings: Option<MappingCatalog>,
    ) -> Result<Self, String> {
        let out = bootstrap_direct(schema, settings)?;
        let mut ontology = out.ontology;
        if let Some(extra) = extra_ontology {
            for ax in extra.axioms() {
                ontology.add_axiom(ax.clone());
            }
            for p in extra.data_properties() {
                ontology.declare_data_property(p.clone());
            }
        }
        let mut mappings = out.mappings;
        if let Some(extra) = extra_mappings {
            mappings.merge(extra)?;
        }
        Ok(OptiquePlatform::deploy(
            db,
            ontology,
            namespaces,
            mappings,
            stream_to_rdf,
        ))
    }

    /// The static pipeline every request runs under `snap`: the view
    /// catalog, the shared shape cache, the shared BGP cache at the
    /// snapshot's table versions, the snapshot's planner knobs and
    /// statistics, and `federation` as the fragment executor when the
    /// request is distributed.
    pub(crate) fn pipeline<'a>(
        &'a self,
        snap: &'a PlatformSnapshot,
        federation: Option<&'a Federation>,
    ) -> StaticPipeline<'a> {
        let pipeline = StaticPipeline::new(&self.ontology, &self.mappings, &snap.view)
            .with_shapes(&self.shapes)
            .with_cache(&self.static_cache, &snap.versions)
            .with_planner(snap.planner)
            .with_table_stats(&snap.stats);
        match federation {
            Some(federation) => pipeline.with_executor(federation),
            None => pipeline,
        }
    }

    /// The cached federation pool for `workers` under `snap`'s topology,
    /// building it (static tables per topology, registered streams always
    /// hash-partitioned) on first use. A cached pool is served only when
    /// its catalog **is** the snapshot's catalog (pointer identity). A
    /// reader whose snapshot the slot's pool does not serve builds a pool
    /// over its own catalog and answers from it, but the slot moves only
    /// to a newer catalog generation: a straggler pinned before a merge
    /// never replaces the successor the merge carried over, with its
    /// shards, pane stores and planned shapes.
    pub(crate) fn federation_for(
        &self,
        workers: usize,
        snap: &PlatformSnapshot,
    ) -> Arc<Federation> {
        let key = (workers, snap.topology);
        if let Some(pool) = self.federations.lock().get(&key) {
            if Arc::ptr_eq(pool.catalog(), &snap.db) {
                return Arc::clone(pool);
            }
        }
        // Build outside the map lock: sharding the catalog is the slow
        // part, and `stream_partition_pairs` takes the queries lock.
        let streams = self.stream_partition_pairs();
        let pool = Federation::for_deployment(
            Arc::clone(&snap.db),
            workers,
            snap.topology,
            &snap.stats,
            &self.mappings,
            &streams,
        );
        let pool = Arc::new(pool.at_generation(snap.generation));
        let mut pools = self.federations.lock();
        match pools.get(&key) {
            // Another reader of this catalog raced us into the slot.
            Some(slot) if Arc::ptr_eq(slot.catalog(), &snap.db) => Arc::clone(slot),
            // The slot serves a newer catalog: ours answers this reader.
            Some(slot) if slot.generation() > snap.generation => pool,
            _ => {
                pools.insert(key, Arc::clone(&pool));
                pool
            }
        }
    }

    /// Answers a **static** SPARQL query over the deployment's relational
    /// sources: parse → PerfectRef enrichment against the TBox → mapping
    /// unfolding → relational execution → residual algebra (OPTIONAL/UNION
    /// joins, filters, modifiers, aggregates). Per-stage counters land on
    /// the [`Dashboard`].
    ///
    /// This is the paper's one-time-query half: where `register_starql`
    /// installs a continuous query over the streams, `query_static` answers
    /// a SPARQL question about the static side immediately.
    pub fn query_static(&self, text: &str) -> Result<SparqlResults, String> {
        self.query_static_with_stats(text)
            .map(|(results, _)| results)
    }

    /// [`query_static`](Self::query_static), also returning the pipeline
    /// stats (including parse time) recorded on the dashboard.
    pub fn query_static_with_stats(
        &self,
        text: &str,
    ) -> Result<(SparqlResults, PipelineStats), String> {
        self.run_static(text, None)
    }

    /// Answers a static SPARQL query **federated over ExaStream workers**:
    /// the unfolded `UNION ALL` of every BGP ships as one plan fragment,
    /// regrouped into one statement per routing group of its disjuncts,
    /// the gateway routes those across `workers` worker threads, and the
    /// gathered rows merge back before the residual algebra. Answers are always the same *set* as
    /// [`query_static`](Self::query_static) — the federation and
    /// partitioned equivalence suites pin that down.
    ///
    /// By default the pool is **auto-partitioned**: the partition-key
    /// advisor shards each qualifying table on its best key (join
    /// frequency × distinctness × evenness over the live [`StatsCatalog`])
    /// and fragments fall down a per-fragment ladder — sharded scatter,
    /// single-replica placement, coordinator — so one awkward fragment
    /// never forces a whole query off the shards.
    /// [`set_federation_topology`](Self::set_federation_topology) pins the
    /// layout back to full replication.
    ///
    /// The worker pool for each `(count, topology)` is built once and
    /// reused; relational writes ([`insert_static`](Self::insert_static))
    /// drop the pools along with the BGP cache — a write may change the
    /// advisor's keys, so pools re-partition on next use. `workers` outside
    /// `1..=`[`MAX_WORKERS`] is an error, which also bounds the pool map.
    pub fn query_static_distributed(
        &self,
        text: &str,
        workers: usize,
    ) -> Result<SparqlResults, String> {
        self.query_static_distributed_with_stats(text, workers)
            .map(|(results, _)| results)
    }

    /// [`query_static_distributed`](Self::query_static_distributed), also
    /// returning the pipeline stats recorded on the dashboard.
    pub fn query_static_distributed_with_stats(
        &self,
        text: &str,
        workers: usize,
    ) -> Result<(SparqlResults, PipelineStats), String> {
        self.run_static(text, Some(workers))
    }

    /// The pool layout distributed static queries currently build.
    pub fn federation_topology(&self) -> FederationTopology {
        self.state.read().topology
    }

    /// Switches the pool layout for subsequent distributed static queries.
    /// Pools of both layouts are cached side by side (keyed by `(workers,
    /// topology)`), so the partitioned-equivalence oracle can flip between
    /// them without rebuild churn — and without ever sharing a pool built
    /// over the wrong layout. In-flight queries keep the snapshot (and
    /// topology) they pinned at start.
    pub fn set_federation_topology(&self, topology: FederationTopology) {
        let mut guard = self.state.write();
        let mut next = (**guard).clone();
        next.topology = topology;
        *guard = Arc::new(next);
    }

    /// Shared static-query driver: parse, answer (single-node or federated
    /// over `workers`), log the dashboard panel.
    fn run_static(
        &self,
        text: &str,
        workers: Option<usize>,
    ) -> Result<(SparqlResults, PipelineStats), String> {
        let trace = self.tracing_enabled();
        self.run_static_traced(text, workers, trace)
            .map(|(results, stats, _)| (results, stats))
    }

    /// The driver behind every static entry point: parse and answer under a
    /// per-query [`Tracer`] (when `trace` is set), log the dashboard panel
    /// with span-derived stage timings, feed the latency histogram and the
    /// slow-query log, and hand the tracer back for EXPLAIN ANALYZE.
    fn run_static_traced(
        &self,
        text: &str,
        workers: Option<usize>,
        trace: bool,
    ) -> Result<(SparqlResults, PipelineStats, Option<Tracer>), String> {
        check_workers(workers)?;
        let started = std::time::Instant::now();
        // One atomic snapshot pin for the whole request: db, stats,
        // planner, topology and table versions all describe the same
        // instant, no matter what writers do while we run.
        let snap = self.snapshot();
        let tracer = trace.then(Tracer::new);
        let results;
        let stats;
        {
            // Guards borrow the tracer; this scope closes every borrow
            // before the tracer moves into the return value below.
            let mut root = tracer.as_ref().map(|t| t.span(None, "static_query"));
            let root_id = root.as_ref().map(|g| g.id());

            let parse_span = tracer.as_ref().map(|t| t.span(root_id, "parse"));
            let query = parse_sparql(text, &self.namespaces).map_err(|e| e.to_string())?;
            if let Some(g) = parse_span {
                g.finish();
            }

            // Only text that parsed pins a worker pool: a cold pool shards
            // the whole catalog and stays cached in `federations`.
            let federation = workers.map(|w| self.federation_for(w, &snap));
            let mut pipeline = self.pipeline(&snap, federation.as_deref());
            if let Some(tracer) = tracer.as_ref() {
                pipeline = pipeline.with_tracer(tracer, root_id);
            }
            let answered = pipeline.answer(&query).map_err(|e| e.to_string())?;
            if let Some(mut g) = root.take() {
                g.set_attr("rows", answered.1.rows as u64);
                g.set_attr("workers", workers.unwrap_or(1) as u64);
                g.finish();
            }
            results = answered.0;
            stats = answered.1;
        }
        let workers = workers.unwrap_or(1);

        let total_us = started.elapsed().as_micros() as u64;
        self.registry.histogram("static.query_us").record(total_us);

        // Stage timings come off the span tree (0 when tracing is off) —
        // the panel and EXPLAIN ANALYZE read the same clock.
        let (parse_us, rewrite_us, unfold_us, exec_us) = match tracer.as_ref() {
            Some(t) => (
                t.sum_duration("parse"),
                t.sum_duration("rewrite"),
                t.sum_duration("unfold"),
                t.sum_duration("exec"),
            ),
            None => (0, 0, 0, 0),
        };

        let id = self
            .static_next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let preview = text.split_whitespace().collect::<Vec<_>>().join(" ");
        if total_us
            >= self
                .slow_threshold_us
                .load(std::sync::atomic::Ordering::Relaxed)
        {
            let mut slow = self.slow_log.lock();
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(SlowQuery {
                id,
                query: preview.clone(),
                workers,
                total_us,
            });
        }
        let mut log = self.static_log.lock();
        if log.len() == STATIC_LOG_CAP {
            log.pop_front();
        }
        log.push_back(StaticQueryPanel {
            id,
            query: preview,
            workers,
            parse_micros: parse_us,
            rewrite_micros: rewrite_us,
            unfold_micros: unfold_us,
            exec_micros: exec_us,
            stats,
        });
        drop(log);
        Ok((results, stats, tracer))
    }

    /// Whether static queries currently record span trees.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Turns span recording for static queries on or off (on by default).
    /// Latency histograms and the slow-query log keep working either way;
    /// only the per-stage span tree (and the panel's stage-time columns)
    /// goes dark when tracing is off.
    pub fn set_tracing(&self, enabled: bool) {
        self.tracing
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    /// The slow-query threshold in microseconds.
    pub fn slow_query_threshold_us(&self) -> u64 {
        self.slow_threshold_us
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Sets the end-to-end latency at which a static query lands on the
    /// dashboard's slow-query log (default 100 ms).
    pub fn set_slow_query_threshold_us(&self, threshold_us: u64) {
        self.slow_threshold_us
            .store(threshold_us, std::sync::atomic::Ordering::Relaxed);
    }

    /// A point-in-time snapshot of every platform counter and latency
    /// histogram; the snapshot carries the JSON and Prometheus exporters.
    /// The `dict.terms` / `dict.bytes` gauges are sampled here (the term
    /// dictionary is process-wide and append-only, so they never shrink),
    /// and so are `wcache.windows` / `wcache.slices`, which every driven
    /// round trims back to the registered ranges, and `shapes.entries` /
    /// `shapes.bytes`: the prepared-shape cache's entries (at most
    /// [`optique_sparql::SHAPE_CAPACITY`]) and the estimated size of what
    /// they and every pool's plans for them hold, beside `shapes.hits` and
    /// `shapes.misses.<reason>`: the BGP executions since deploy that
    /// answered from a planned shape or missed, per reason (`new` counts the
    /// distinct shapes seen).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let dict = TermDict::global();
        self.registry.gauge("dict.terms").set(dict.len() as i64);
        self.registry.gauge("dict.bytes").set(dict.bytes() as i64);
        let (windows, slices) = (self.wcache.len(), self.wcache.slices());
        self.registry.gauge("wcache.windows").set(windows as i64);
        self.registry.gauge("wcache.slices").set(slices as i64);
        self.registry
            .gauge("shapes.entries")
            .set(self.shapes.len() as i64);
        let pools: Vec<Arc<Federation>> = self.federations.lock().values().cloned().collect();
        let pooled: usize = pools.iter().map(|pool| pool.planned_shape_bytes()).sum();
        self.registry
            .gauge("shapes.bytes")
            .set((self.shapes.bytes() + pooled) as i64);
        let (hits, misses) = self.shapes.outcomes();
        self.registry.gauge("shapes.hits").set(hits as i64);
        for (reason, count) in ShapeMiss::ALL.iter().zip(misses) {
            (self.registry)
                .gauge(&format!("shapes.misses.{}", reason.as_str()))
                .set(count as i64);
        }
        self.registry.snapshot()
    }

    /// The shared metrics registry (the server records its counters here
    /// so everything exports together).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Runs a static query with tracing forced on and renders the stitched
    /// span tree — coordinator stage spans plus the per-fragment worker
    /// spans grafted under `exec` — as an EXPLAIN ANALYZE report.
    /// `workers` picks the federated pool (`None` = single-node).
    pub fn explain_analyze(&self, text: &str, workers: Option<usize>) -> Result<String, String> {
        let (results, _, tracer) = self.run_static_traced(text, workers, true)?;
        let tracer = tracer.expect("tracing was forced on");
        let mut out = format!(
            "EXPLAIN ANALYZE — {} row(s), {} worker(s)\n",
            results.len(),
            workers.unwrap_or(1),
        );
        out.push_str(&render_tree(&tracer.spans()));
        Ok(out)
    }

    /// Appends rows to a static table by publishing a successor
    /// [`PlatformSnapshot`]: the rows are validated against the base schema
    /// and land in the novelty log alongside the *same* base catalog `Arc`
    /// — pools survive, stats take an O(1) row-count delta, the table's
    /// write version bumps (which is what hides every BGP-cache entry that
    /// read it from post-write readers) and its dependent cache entries are
    /// evicted, all **inside the critical section**, so no concurrent
    /// reader can pair the new rows with a pre-write cache entry or stale
    /// cardinalities. The critical section copies the batch's own rows and
    /// nothing that grows with the overlay's (the log shares its earlier
    /// batches). Once the overlay holds [`MERGE_FLOOR_ROWS`] rows and one
    /// [`MERGE_SHARE`]th of the base tables it touches, a merge runs
    /// afterwards, outside the critical section. Returns the number of
    /// inserted rows; an empty batch changes nothing and publishes nothing.
    pub fn insert_static(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, String> {
        let inserted = rows.len();
        let merge_pending;
        {
            let mut guard = self.state.write();
            // Validate arity and types against the base table *without*
            // cloning it — a rejected batch must leave no trace.
            let base = guard.db.table(table).map_err(|e| e.to_string())?;
            for row in &rows {
                base.schema.check_row(row).map_err(|e| e.to_string())?;
            }
            if rows.is_empty() {
                return Ok(0);
            }
            // The stream clock advances from the batch alone (late rows
            // never turn it back); merges carry it over untouched.
            let ts_idx = base.schema.index_of(&self.stream_to_rdf.timestamp_col);
            let batch = ts_idx.and_then(|ts_idx| batch_clock(&rows, ts_idx));
            let clocks = match batch {
                Some(ts) if guard.clocks.get(table).is_none_or(|&clock| clock < ts) => {
                    let mut clocks = (*guard.clocks).clone();
                    clocks.insert(table.to_string(), ts);
                    Arc::new(clocks)
                }
                _ => Arc::clone(&guard.clocks),
            };
            let novelty = guard.novelty.with_rows(table, rows);
            let depth = novelty.depth();
            if ts_idx.is_some() {
                let appended = novelty.rows(table).map_or(0, |log| log.len());
                self.stream_rows_gauge(table, base.len() + appended);
            }
            merge_pending = Self::merge_owed(&guard.db, &novelty);
            // Validity is the version bump below; the eviction frees the
            // entries no post-write reader can match any more and feeds the
            // dashboard's invalidation counter.
            self.static_cache.invalidate_table(table);
            let mut view = (*guard.db).clone();
            view.set_novelty(Some(Arc::clone(&novelty)));
            // `db` keeps the same base Arc: pools keyed on its pointer
            // identity stay valid, and a scatter round merges overlay rows
            // per shard through each worker's NoveltyScope.
            *guard = Arc::new(PlatformSnapshot {
                view: Arc::new(view),
                novelty,
                versions: Arc::new(guard.versions.bumped(table)),
                // O(1) stats refresh: the planner sees the new cardinality
                // immediately; per-column histograms refresh at merge.
                stats: Arc::new(guard.stats.with_row_delta(table, inserted)),
                clocks,
                ..(**guard).clone()
            });
            self.registry.gauge("novelty.depth").set(depth as i64);
        }
        #[cfg(test)]
        if let Some(probe) = self.write_probe.lock().take() {
            probe(self);
        }
        if merge_pending {
            self.merge_now()?;
        }
        Ok(inserted)
    }

    /// The one merge rule: the overlay is past its floor and has grown to
    /// its share of the base rows of the tables it holds rows for.
    fn merge_owed(db: &Database, novelty: &NoveltyOverlay) -> bool {
        let depth = novelty.depth();
        let base_rows: usize = novelty
            .tables()
            .iter()
            .filter_map(|(table, _)| db.table(table).ok())
            .map(|t| t.len())
            .sum();
        depth >= MERGE_FLOOR_ROWS && depth.saturating_mul(MERGE_SHARE) >= base_rows
    }

    /// `db` with every overlay row appended to its base table — each
    /// table's segments followed by its log's, shared, so no row is copied
    /// (rows were validated against the schema on append); returns the
    /// folded catalog (novelty cleared) and the names of the touched
    /// tables, in sorted order.
    fn fold_overlay(
        db: &Database,
        novelty: &NoveltyOverlay,
    ) -> Result<(Database, Vec<String>), String> {
        let mut folded = db.clone();
        folded.set_novelty(None);
        folded.set_novelty_scope(None);
        let mut touched = Vec::new();
        for (table, rows) in novelty.tables() {
            let base = folded.table(table).map_err(|e| e.to_string())?;
            let grown = Arc::new(base.appended(rows));
            folded.put_stored(table, grown);
            touched.push(table.to_string());
        }
        Ok((folded, touched))
    }

    /// Sets the `stream.rows.<table>` gauge: the rows, base plus overlay,
    /// of a table that carries the stream timestamp column.
    fn stream_rows_gauge(&self, table: &str, rows: usize) {
        self.registry
            .gauge(&format!("stream.rows.{table}"))
            .set(rows as i64);
    }

    /// Folds the novelty overlay into the base catalog **now**, at a cost
    /// in what was appended since the last merge, not in the tables: every
    /// overlay batch becomes a segment of its base table (no row copied),
    /// the touched tables' stats catch up with the O(1) deltas (re-reading
    /// no row once a table's prefix sample is full), and every cached pool
    /// over the pre-merge base is replaced by its
    /// [`successor`](Federation::successor) — a table that keeps its key
    /// gains on each worker the overlay rows hashing there, only a table
    /// whose advisor key drifted is re-partitioned, and the workers' pane
    /// stores move over, rebased. Table versions do **not** bump: a merge
    /// changes no table's contents, so versioned BGP-cache entries stay
    /// warm across it. Returns the number of rows folded (0 when the
    /// overlay was already empty).
    ///
    /// Counted: `novelty.merge_rows_copied` (rows copied into successor
    /// shards), `novelty.pools_carried`, and `novelty.tables_repartitioned`
    /// — with `novelty.tables_repartitioned.<table>` naming each table.
    ///
    /// An [`insert_static`](Self::insert_static) that brings the overlay
    /// to its floor and its share ([`MERGE_FLOOR_ROWS`], [`MERGE_SHARE`])
    /// triggers this automatically, on the inserting thread; calling it
    /// directly makes merge timing deterministic for tests and benchmarks.
    pub fn merge_now(&self) -> Result<usize, String> {
        let started = std::time::Instant::now();
        let merged;
        {
            let mut guard = self.state.write();
            if guard.novelty.is_empty() {
                return Ok(0);
            }
            merged = guard.novelty.depth();
            let (folded, touched) = Self::fold_overlay(&guard.db, &guard.novelty)?;
            let folded = Arc::new(folded);
            let mut stats = (*guard.stats).clone();
            for table in &touched {
                let t = folded.table(table).expect("folded table exists");
                stats = stats.with_appended_table(table, t);
                let ts_col = &self.stream_to_rdf.timestamp_col;
                if t.schema.index_of(ts_col).is_some() {
                    self.stream_rows_gauge(table, t.len());
                }
            }
            // The fold swaps the base catalog Arc the pools shard, so each
            // pool over it is succeeded here, while the write lock still
            // blocks snapshot pins: no reader can pair the folded catalog
            // with an old-shard pool. A pool over any other catalog is
            // stale already and goes. Successors take their stream keys
            // from the pool they succeed, not from the queries lock.
            // Each successor is stamped with the generation of the snapshot
            // installed below, which its slot then serves.
            let generation = guard.generation + 1;
            let mut pools = self.federations.lock();
            pools.retain(|_, pool| Arc::ptr_eq(pool.catalog(), &guard.db));
            for pool in pools.values_mut() {
                let (next, succession) =
                    pool.successor(Arc::clone(&folded), &guard.novelty, &stats, &self.mappings);
                *pool = Arc::new(next.at_generation(generation));
                self.registry.counter("novelty.pools_carried").inc();
                (self.registry.counter("novelty.merge_rows_copied"))
                    .add(succession.rows_copied as u64);
                for table in succession.repartitioned {
                    self.registry.counter("novelty.tables_repartitioned").inc();
                    (self.registry)
                        .counter(&format!("novelty.tables_repartitioned.{table}"))
                        .inc();
                }
            }
            drop(pools);
            // `versions` carries over unchanged: pre-merge and post-merge
            // answers are identical, so cached solution sets stay valid.
            *guard = Arc::new(PlatformSnapshot {
                view: Arc::clone(&folded),
                db: folded,
                novelty: NoveltyOverlay::empty(),
                stats: Arc::new(stats),
                generation,
                ..(**guard).clone()
            });
            self.registry.gauge("novelty.depth").set(0);
        }
        self.registry
            .histogram("novelty.merge_us")
            .record(started.elapsed().as_micros() as u64);
        #[cfg(test)]
        if let Some(probe) = self.merge_probe.lock().take() {
            probe(self);
        }
        Ok(merged)
    }

    /// Rows currently in the novelty overlay (0 right after a merge).
    pub fn novelty_depth(&self) -> usize {
        self.state.read().novelty.depth()
    }

    /// Number of cached federation pools whose catalog is not the current
    /// snapshot's — must always be zero at rest; the interleaving
    /// regression tests assert it right after `insert_static`'s critical
    /// section.
    #[cfg(test)]
    fn stale_pool_count(&self) -> usize {
        // Pools shard the *base* catalog — overlay appends must not make
        // them look stale.
        let base = Arc::clone(&self.state.read().db);
        self.federations
            .lock()
            .values()
            .filter(|f| !Arc::ptr_eq(f.catalog(), &base))
            .count()
    }

    /// Arms the one-shot write probe fired at the seam right after
    /// `insert_static`'s critical section (see the field docs).
    #[cfg(test)]
    fn set_write_probe(&self, probe: impl FnOnce(&OptiquePlatform) + Send + 'static) {
        *self.write_probe.lock() = Some(Box::new(probe));
    }

    /// Arms the one-shot merge probe fired at the seam right after
    /// [`merge_now`](Self::merge_now)'s critical section.
    #[cfg(test)]
    fn set_merge_probe(&self, probe: impl FnOnce(&OptiquePlatform) + Send + 'static) {
        *self.merge_probe.lock() = Some(Box::new(probe));
    }

    /// The shared per-BGP solution-set cache (hit/miss counters feed the
    /// dashboard).
    pub fn bgp_cache(&self) -> &BgpCache {
        &self.static_cache
    }

    /// The planner's statistics snapshot over the current relational state.
    pub fn table_stats(&self) -> Arc<StatsCatalog> {
        Arc::clone(&self.state.read().stats)
    }

    /// The static-query planner knobs currently in force.
    pub fn planner_settings(&self) -> PlannerSettings {
        self.state.read().planner
    }

    /// Replaces the static-query planner knobs. Passing
    /// [`PlannerSettings::disabled`] runs every subsequent static query on
    /// the naive textual-order pipeline — the differential plan-equivalence
    /// suite flips this to compare optimized and naive answers. In-flight
    /// queries keep the snapshot (and planner) they pinned at start.
    pub fn set_planner_settings(&self, settings: PlannerSettings) {
        let mut guard = self.state.write();
        let mut next = (**guard).clone();
        next.planner = settings;
        *guard = Arc::new(next);
    }

    /// A monitoring snapshot of all registered queries.
    pub fn dashboard(&self) -> Dashboard {
        let static_latency = self.registry.histogram("static.query_us").summary();
        Dashboard {
            panels: self.query_panels(),
            static_queries: self.static_log.lock().iter().cloned().collect(),
            wcache_hits: self.wcache.hits(),
            wcache_misses: self.wcache.misses(),
            bgp_cache_hits: self.static_cache.hits(),
            bgp_cache_misses: self.static_cache.misses(),
            bgp_cache_invalidations: self.static_cache.invalidations(),
            static_p50_us: static_latency.p50,
            static_p95_us: static_latency.p95,
            static_p99_us: static_latency.p99,
            slow_queries: self.slow_log.lock().iter().cloned().collect(),
            slow_threshold_us: self.slow_query_threshold_us(),
        }
    }
}

impl std::fmt::Debug for OptiquePlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OptiquePlatform({} queries, {} mappings, {:?})",
            self.registered(),
            self.mappings.len(),
            self.ontology
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> OptiquePlatform {
        OptiquePlatform::from_siemens(SiemensDeployment::small())
    }

    /// A write hides (and evicts) only the cache entries that read the
    /// written table; entries over other tables stay warm.
    #[test]
    fn dependent_invalidation_keeps_unrelated_entries() {
        let p = platform();
        let sensors = "SELECT ?s WHERE { ?s a sie:Sensor }";
        let turbines = "SELECT ?t WHERE { ?t a sie:Turbine }";
        p.query_static(sensors).unwrap();
        p.query_static(turbines).unwrap();

        // Insert into turbines: the sensor entry must survive…
        p.insert_static("turbines", vec![new_turbine_row(&p, 77_001)])
            .unwrap();
        let (_, stats) = p.query_static_with_stats(sensors).unwrap();
        assert!(stats.cache_hits >= 1, "sensor entry stayed warm: {stats:?}");
        // …while the turbine entry was evicted and sees the new row.
        let (fresh, stats) = p.query_static_with_stats(turbines).unwrap();
        assert_eq!(stats.cache_hits, 0, "turbine entry evicted: {stats:?}");
        assert!(!fresh.is_empty());
    }

    /// Fragment executions and parses the remembered static panels report.
    fn fragment_execution_totals(dash: &Dashboard) -> (u64, u64) {
        dash.static_queries.iter().fold((0, 0), |(h, m), q| {
            (h + q.stats.plan_cache_hits, m + q.stats.plan_cache_misses)
        })
    }

    /// Regression: a merge replaces the federation pools by their
    /// successors, but the dashboard's fragment-execution totals must
    /// accumulate across the replacement: they ride back with each round,
    /// so nothing a retired pool takes with it can zero them.
    #[test]
    fn fragment_execution_totals_survive_pool_rebuilds() {
        let p = platform();
        // Reads `turbines`, so the insert below evicts its BGP-cache entry
        // and the post-write run re-executes on the rebuilt pool.
        let q = "SELECT ?t WHERE { ?t a sie:Turbine }";
        p.query_static_distributed(q, 2).unwrap();
        let before = fragment_execution_totals(&p.dashboard());
        assert!(before.0 > 0, "typed fragments execute without a parse");
        assert_eq!(before.1, 0, "the pipeline never ships SQL text");

        p.insert_static("turbines", vec![new_turbine_row(&p, 88_001)])
            .unwrap();
        p.merge_now().unwrap();
        assert_eq!(fragment_execution_totals(&p.dashboard()), before);

        // New traffic lands on top of the earlier totals.
        p.query_static_distributed(q, 2).unwrap();
        let later = fragment_execution_totals(&p.dashboard());
        assert!(later.0 > before.0);
        assert_eq!(later.1, 0);
    }

    /// A straggler holding a pre-merge snapshot gets a pool over its own,
    /// superseded catalog, but never the slot: the dashboard's totals and
    /// the pool every current reader gets are the merge's successor's.
    #[test]
    fn fragment_execution_totals_survive_pool_replacement() {
        let p = platform();
        let q = "SELECT ?t WHERE { ?t a sie:Turbine }";
        p.query_static_distributed(q, 2).unwrap();
        let old_snap = p.snapshot();
        // A merge swaps the base catalog and succeeds the pools.
        p.insert_static("turbines", vec![new_turbine_row(&p, 97_001)])
            .unwrap();
        p.merge_now().unwrap();
        p.query_static_distributed(q, 2).unwrap();
        let before = fragment_execution_totals(&p.dashboard());
        assert!(before.0 > 0);
        let current = p.federation_for(2, &p.snapshot());

        let straggler = p.federation_for(2, &old_snap);
        assert!(Arc::ptr_eq(straggler.catalog(), &old_snap.db));
        assert!(Arc::ptr_eq(&p.federation_for(2, &p.snapshot()), &current));
        assert_eq!(fragment_execution_totals(&p.dashboard()), before);
    }

    /// Regression: after `merge_now`, `federation_for(2, &old_snap)` — a
    /// reader pinned before the merge — let the straggler's pool over the
    /// superseded catalog win the slot, so the next current reader rebuilt
    /// from scratch and the carried successor's shards, warm pane stores
    /// and planned shapes were lost. The slot now moves only to a newer
    /// catalog generation: the current reader's pool is the successor the
    /// merge carried, and its planned shape answers with no plan built.
    #[test]
    fn a_straggler_never_takes_the_slot_from_the_carried_successor() {
        let p = platform();
        let q = "SELECT ?t WHERE { ?t a sie:Turbine }";
        p.query_static_distributed(q, 2).unwrap();
        let old_snap = p.snapshot();
        p.insert_static("turbines", vec![new_turbine_row(&p, 97_002)])
            .unwrap();
        p.merge_now().unwrap();
        let key = (2, old_snap.topology);
        let carried = Arc::clone(&p.federations.lock()[&key]);
        assert!(
            carried.planned_shapes() >= 1,
            "the successor carries the shape"
        );

        let straggler = p.federation_for(2, &old_snap);
        assert!(Arc::ptr_eq(straggler.catalog(), &old_snap.db));
        assert!(!Arc::ptr_eq(&straggler, &carried));
        let now = p.snapshot();
        assert_eq!(now.generation, old_snap.generation + 1);
        assert!(Arc::ptr_eq(&p.federation_for(2, &now), &carried));

        p.bgp_cache().invalidate();
        let (_, stats) = p.query_static_distributed_with_stats(q, 2).unwrap();
        assert_eq!((stats.plans_built, stats.shape_hits), (0, 1), "{stats:?}");
    }

    /// The reference the clock mark replaced: the maximum timestamp over
    /// the table's base and overlay rows.
    fn scanned_clock(p: &OptiquePlatform, table: &str) -> Option<i64> {
        let view = p.db();
        let base = view.table(table).ok()?;
        let ts_idx = base.schema.index_of(&p.stream_to_rdf.timestamp_col)?;
        base.rows
            .iter()
            .chain(view.novelty_rows(table))
            .filter_map(|row| row.get(ts_idx).and_then(Value::as_i64))
            .max()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// After any append history — late batches, repeated timestamps,
        /// empty batches, merges in between — the snapshot's clock mark is
        /// what a scan of the table finds.
        #[test]
        fn stream_clock_mark_equals_the_scan(
            history in proptest::collection::vec(
                (proptest::collection::vec(-5i64..40, 0..4), 0u8..6),
                1..12,
            ),
        ) {
            let p = platform();
            proptest::prop_assert_eq!(
                p.snapshot().clocks.get("S_Msmt").copied(),
                scanned_clock(&p, "S_Msmt")
            );
            proptest::prop_assert!(!p.snapshot().clocks.contains_key("turbines"));
            for (batch, merge) in history {
                let rows = batch
                    .iter()
                    .map(|dt| {
                        let ts = Value::Timestamp(655_000 + dt * 500);
                        vec![ts, Value::Int(1), Value::Float(50.0), Value::Null]
                    })
                    .collect();
                p.insert_static("S_Msmt", rows).unwrap();
                if merge == 0 {
                    p.merge_now().unwrap();
                }
                proptest::prop_assert_eq!(
                    p.snapshot().clocks.get("S_Msmt").copied(),
                    scanned_clock(&p, "S_Msmt")
                );
            }
        }
    }

    /// A `turbines` row with a fresh primary key, cloned off the first row.
    fn new_turbine_row(p: &OptiquePlatform, tid: i64) -> Vec<Value> {
        let turbines = p.db().table("turbines").unwrap().clone();
        let mut row: Vec<Value> = turbines.rows[0].clone();
        let id_col = turbines.schema.index_of("tid").expect("turbines.tid");
        row[id_col] = Value::Int(tid);
        row
    }

    /// Interleaving regression (write-path race #1): at the seam right
    /// after `insert_static`'s critical section the written table's cache
    /// entries must already be unreachable. Under the pre-fix ordering —
    /// invalidate *after* the write lock dropped — a reader at the seam
    /// paired the new catalog with the stale cached solution set.
    #[test]
    fn bgp_cache_invalidated_inside_insert_critical_section() {
        let p = platform();
        let text = "SELECT ?t WHERE { ?t a sie:Turbine }";
        let before = p.query_static(text).unwrap().len();
        let row = new_turbine_row(&p, 88_001);
        p.set_write_probe(move |p| {
            assert_eq!(
                p.bgp_cache().invalidations(),
                1,
                "dependents are evicted before the snapshot publishes"
            );
            let fresh = p.query_static(text).unwrap();
            assert_eq!(
                fresh.len(),
                before + 1,
                "a reader at the seam sees the inserted row, not the stale cache entry"
            );
        });
        p.insert_static("turbines", vec![row]).unwrap();
    }

    /// Interleaving regression (write-path race #2): an insert that fills
    /// the overlay folds it, and the fold is the one writer that swaps the
    /// base catalog — so at the seam right after the merge's critical
    /// section every cached pool is the successor over the folded catalog,
    /// and none sharded over the superseded one remains visible to new
    /// lookups. Pre-fix, the pools were cleared after the lock dropped, so
    /// a distributed query at the seam grabbed a pool built over the old
    /// shards and missed the insert.
    #[test]
    fn federation_pools_carried_inside_insert_critical_section() {
        let p = platform();
        let text = "SELECT DISTINCT ?t WHERE { ?t a sie:Turbine }";
        let before = p.query_static_distributed(text, 2).unwrap().len();
        let batch: Vec<Vec<Value>> = (0..MERGE_FLOOR_ROWS as i64)
            .map(|k| new_turbine_row(&p, 100_000 + k))
            .collect();
        p.set_merge_probe(move |p| {
            assert_eq!(
                p.stale_pool_count(),
                0,
                "no pool over the superseded catalog survives publication"
            );
            let folded = Arc::clone(&p.snapshot().db);
            let pools = p.federations.lock().values().cloned().collect::<Vec<_>>();
            assert_eq!(pools.len(), 1, "the pool was carried, not dropped");
            assert!(Arc::ptr_eq(pools[0].catalog(), &folded));
            let fresh = p.query_static_distributed(text, 2).unwrap();
            assert_eq!(
                fresh.len(),
                before + MERGE_FLOOR_ROWS,
                "a distributed reader at the seam shards over the folded catalog"
            );
        });
        p.insert_static("turbines", batch).unwrap();
        assert_eq!(p.novelty_depth(), 0, "the insert folded the overlay");
    }

    /// The catalogs of two pools are the same, table for table and row for
    /// row: the same tables on every worker, each holding the same rows in
    /// the same order, and the same partition.
    fn assert_same_layout(got: &Federation, want: &Federation, context: &str) {
        assert_eq!(got.partition(), want.partition(), "{context}");
        let (got, want) = (got.worker_catalogs(), want.worker_catalogs());
        assert_eq!(got.len(), want.len(), "{context}");
        for (worker, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                a.table_names(),
                b.table_names(),
                "{context}, worker {worker}"
            );
            for name in a.table_names() {
                let (x, y) = (a.table(name).unwrap(), b.table(name).unwrap());
                assert!(**x == **y, "{context}, worker {worker}, table {name}");
            }
            let scope =
                |db: &Database| (db.novelty_scope()).map(|s| (s.shard, s.shards, s.keys.clone()));
            assert_eq!(scope(a), scope(b), "{context}, worker {worker}");
        }
    }

    /// The successor oracle: at 1, 2, 4 and 8 workers, each pool a merge
    /// carries is what `for_deployment` builds over the folded catalog,
    /// table for table and row for row — through a static table that
    /// crosses [`MIN_PARTITION_ROWS`](crate::federation::MIN_PARTITION_ROWS)
    /// at the merge (its layout changes: re-partitioned, and counted), a
    /// write to a table that stays replicated, and stream rows appended to
    /// each worker's shard of the stream. The carried stream shards share
    /// the old shards' segments, and every pool answers as single-node.
    #[test]
    fn a_successor_is_the_pool_for_deployment_builds_over_the_folded_catalog() {
        let p = platform();
        p.register_starql_distributed(optique_starql::FIGURE1, 2)
            .unwrap();
        let text = "SELECT DISTINCT ?t ?a WHERE { ?a sie:inTurbine ?t }";
        for workers in [1, 2, 4, 8] {
            p.query_static_distributed(text, workers).unwrap();
        }
        let key = |workers| (workers, p.snapshot().topology);
        let before: Vec<Arc<Federation>> = [1, 2, 4, 8]
            .map(|w| Arc::clone(&p.federations.lock()[&key(w)]))
            .to_vec();
        let turbines = p.snapshot().db.table("turbines").unwrap().len();
        let grown = (turbines..crate::federation::MIN_PARTITION_ROWS + 2)
            .map(|k| new_turbine_row(&p, 70_000 + k as i64))
            .collect();
        p.insert_static("turbines", grown).unwrap();
        let country = p.snapshot().db.table("countries").unwrap().rows[0].clone();
        p.insert_static("countries", vec![country]).unwrap();
        let sensor = p.snapshot().db.table("S_Msmt").unwrap().rows[0][1].clone();
        let readings = (0..40)
            .map(|i| {
                let sensor = if i % 2 == 0 {
                    sensor.clone()
                } else {
                    Value::Int(i)
                };
                vec![
                    Value::Timestamp(700_000 + i),
                    sensor,
                    Value::Float(0.5),
                    Value::Null,
                ]
            })
            .collect();
        p.insert_static("S_Msmt", readings).unwrap();
        let overlay = p.snapshot().novelty.depth();
        let count = |name: &str| p.metrics_snapshot().counter(name).unwrap_or(0);

        assert_eq!(p.merge_now().unwrap(), overlay);
        let snap = p.snapshot();
        let streams = p.stream_partition_pairs();
        for (old, workers) in before.iter().zip([1, 2, 4, 8]) {
            let carried = Arc::clone(&p.federations.lock()[&key(workers)]);
            let fresh = Federation::for_deployment(
                Arc::clone(&snap.db),
                workers,
                snap.topology,
                &snap.stats,
                &p.mappings,
                &streams,
            );
            assert_same_layout(&carried, &fresh, &format!("{workers} workers"));
            let partitioned =
                |pool: &Federation, table: &str| pool.partition().iter().any(|(t, _)| t == table);
            assert_eq!(partitioned(&carried, "S_Msmt"), workers > 1);
            assert_eq!(
                partitioned(&carried, "turbines"),
                workers > 1,
                "crossed the floor"
            );
            assert!(!partitioned(old, "turbines") && !partitioned(&carried, "countries"));
            if workers > 1 {
                for (new, was) in carried.worker_catalogs().iter().zip(old.worker_catalogs()) {
                    let (new, was) = (new.table("S_Msmt").unwrap(), was.table("S_Msmt").unwrap());
                    let shared = was.rows.segments();
                    assert!(new.rows.segments()[..shared.len()]
                        .iter()
                        .zip(shared)
                        .all(|(a, b)| Arc::ptr_eq(a, b)));
                }
            }
            assert_eq!(
                canon(&p.query_static_distributed(text, workers).unwrap()),
                canon(&p.query_static(text).unwrap()),
                "{workers} workers"
            );
        }
        assert_eq!(count("novelty.pools_carried"), 4);
        assert_eq!(count("novelty.tables_repartitioned.turbines"), 3);
        assert_eq!(count("novelty.tables_repartitioned"), 3);
    }

    fn canon(results: &SparqlResults) -> Vec<String> {
        let mut rows: Vec<String> = results.rows().iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    }

    /// A reader that pinned its snapshot before a merge never meets the
    /// carried pool: read distributed after the merge, it builds a pool
    /// over its own catalog and answers exactly as single-node at that
    /// snapshot — base plus the overlay the merge folded away.
    #[test]
    fn a_snapshot_pinned_before_a_merge_reads_distributed_as_single_node() {
        let p = platform();
        let text = "SELECT DISTINCT ?t WHERE { ?t a sie:Turbine }";
        p.query_static_distributed(text, 2).unwrap();
        p.insert_static("turbines", vec![new_turbine_row(&p, 93_001)])
            .unwrap();
        let pinned = p.snapshot();
        p.merge_now().unwrap();
        p.insert_static("turbines", vec![new_turbine_row(&p, 93_002)])
            .unwrap();
        let query = parse_sparql(text, &p.namespaces).unwrap();
        let single = p.pipeline(&pinned, None).answer(&query).unwrap().0;
        let pool = p.federation_for(2, &pinned);
        assert!(Arc::ptr_eq(pool.catalog(), &pinned.db), "its own pool");
        let distributed = p.pipeline(&pinned, Some(&pool)).answer(&query).unwrap().0;
        assert_eq!(canon(&distributed), canon(&single));
        assert_eq!(single.len(), p.query_static(text).unwrap().len() - 1);
    }

    /// A pinned snapshot's stats always describe its db — before a write
    /// and after its merge grows the base table (no db/stats tear); the
    /// unmerged state in between is the overlay twin's below.
    #[test]
    fn snapshot_stats_describe_snapshot_db() {
        let p = platform();
        let old = p.snapshot();
        let old_rows = old.db.table("turbines").unwrap().rows.len();
        assert_eq!(old.stats.row_count("turbines"), Some(old_rows));

        p.insert_static("turbines", vec![new_turbine_row(&p, 88_003)])
            .unwrap();
        p.merge_now().unwrap();

        // The pre-write snapshot still coheres…
        assert_eq!(old.db.table("turbines").unwrap().rows.len(), old_rows);
        assert_eq!(old.stats.row_count("turbines"), Some(old_rows));
        // …and the folded one describes the grown base table.
        let new = p.snapshot();
        assert_eq!(new.db.table("turbines").unwrap().rows.len(), old_rows + 1);
        assert_eq!(new.stats.row_count("turbines"), Some(old_rows + 1));
    }

    /// Regression: an empty batch is not a write. Pre-fix it minted a
    /// novelty epoch, bumped the table's version (hiding every warm cache
    /// entry that read it), evicted dependents and published a snapshot —
    /// direct and through the server alike.
    #[test]
    fn empty_insert_changes_nothing() {
        let p = Arc::new(platform());
        let text = "SELECT ?t WHERE { ?t a sie:Turbine }";
        p.query_static(text).unwrap();
        let before = p.snapshot();
        let server = crate::Server::serve(Arc::clone(&p), crate::ServerConfig::default());

        assert_eq!(p.insert_static("turbines", vec![]), Ok(0));
        assert_eq!(server.client("t").insert("turbines", vec![]).unwrap(), 0);
        assert!(Arc::ptr_eq(&before, &p.snapshot()), "nothing published");
        assert_eq!(p.bgp_cache().invalidations(), 0);
        let (_, stats) = p.query_static_with_stats(text).unwrap();
        assert_eq!(stats.cache_misses, 0, "warm entry still hits: {stats:?}");
        // The table is still validated first.
        assert!(p.insert_static("no_such_table", vec![]).is_err());
    }

    /// A distributed query that fails to parse is rejected before any
    /// worker pool is built for it — directly and through EXPLAIN ANALYZE —
    /// and the worker count stays usable afterwards.
    #[test]
    fn rejected_distributed_query_builds_no_pool() {
        let p = platform();
        assert!(p.query_static_distributed("not sparql", 64).is_err());
        assert!(p.explain_analyze("not sparql", Some(64)).is_err());
        assert!(
            p.federations.lock().is_empty(),
            "a syntax error must not shard the catalog 64 ways"
        );
        let text = "SELECT ?t WHERE { ?t a sie:Turbine }";
        let answered = p.query_static_distributed(text, 64).unwrap();
        assert_eq!(answered.len(), p.query_static(text).unwrap().len());
        assert_eq!(p.federations.lock().len(), 1);
    }

    /// Regression: `workers` arrives from outside and was never bounded —
    /// `usize::MAX` panicked with "capacity overflow" while sharding, and
    /// every distinct count parked one more pool. A count past
    /// [`MAX_WORKERS`] is an error before anything is built.
    #[test]
    fn oversized_worker_count_is_rejected_by_query_static_distributed() {
        let p = platform();
        let text = "SELECT ?t WHERE { ?t a sie:Turbine }";
        for workers in [0, MAX_WORKERS + 1, usize::MAX] {
            assert!(p.query_static_distributed(text, workers).is_err());
        }
        assert!(p.federations.lock().is_empty());
        // The bound itself is usable.
        let answered = p.query_static_distributed(text, MAX_WORKERS).unwrap();
        assert_eq!(answered.len(), p.query_static(text).unwrap().len());
    }

    #[test]
    fn oversized_worker_count_is_rejected_by_explain_analyze() {
        let p = platform();
        let text = "SELECT ?t WHERE { ?t a sie:Turbine }";
        for workers in [0, MAX_WORKERS + 1, usize::MAX] {
            assert!(p.explain_analyze(text, Some(workers)).is_err());
        }
        assert!(p.federations.lock().is_empty());
    }

    /// Overlay seam regression: right after an overlay insert publishes,
    /// the federation pools must still be valid (same base catalog Arc —
    /// nothing was dropped) and a distributed reader at the seam already
    /// sees the row through the fragment's pinned novelty epoch.
    #[test]
    fn overlay_insert_keeps_pools_and_is_visible_at_seam() {
        let p = platform();
        let text = "SELECT DISTINCT ?t WHERE { ?t a sie:Turbine }";
        let before = p.query_static_distributed(text, 2).unwrap().len();
        let base_before = Arc::clone(&p.snapshot().db);
        let row = new_turbine_row(&p, 90_001);
        p.set_write_probe(move |p| {
            assert_eq!(p.stale_pool_count(), 0, "pools survive an overlay append");
            assert_eq!(p.federations.lock().len(), 1, "…without being rebuilt");
            let fresh = p.query_static_distributed(text, 2).unwrap();
            assert_eq!(
                fresh.len(),
                before + 1,
                "a distributed reader at the seam sees the appended row"
            );
        });
        p.insert_static("turbines", vec![row]).unwrap();
        assert_eq!(p.novelty_depth(), 1);
        let snap = p.snapshot();
        assert!(
            Arc::ptr_eq(&snap.db, &base_before),
            "overlay writes keep the base catalog"
        );
        assert_eq!(snap.novelty.epoch(), snap.view.novelty_epoch());
        assert_eq!(p.query_static(text).unwrap().len(), before + 1);
    }

    /// Overlay twin of `snapshot_stats_describe_snapshot_db`: the base
    /// stays put, the view layers the row, the stats carry the O(1)
    /// cardinality delta, and the table's write version bumps.
    #[test]
    fn overlay_snapshot_stats_and_versions_cohere() {
        let p = platform();
        let old = p.snapshot();
        let old_rows = old.db.table("turbines").unwrap().rows.len();
        p.insert_static("turbines", vec![new_turbine_row(&p, 90_002)])
            .unwrap();
        // The pre-write snapshot still coheres…
        assert_eq!(old.novelty.depth(), 0);
        assert_eq!(old.stats.row_count("turbines"), Some(old_rows));
        // …and the new one layers the row over the same base.
        let new = p.snapshot();
        assert!(Arc::ptr_eq(&new.db, &old.db));
        assert_eq!(new.db.table("turbines").unwrap().rows.len(), old_rows);
        assert_eq!(new.view.novelty_rows("turbines").count(), 1);
        assert_eq!(new.stats.row_count("turbines"), Some(old_rows + 1));
        assert_eq!(new.versions.of("turbines"), old.versions.of("turbines") + 1);
    }

    /// Interleaving regression (merge race): a query at the seam right
    /// after `merge_now` publishes sees the folded catalog — the same
    /// answer as before the merge, never a torn mix — while a reader that
    /// pinned its snapshot pre-merge keeps answering over base + overlay.
    #[test]
    fn query_racing_a_merge_is_never_torn() {
        let p = platform();
        let text = "SELECT ?t WHERE { ?t a sie:Turbine }";
        let before = p.query_static(text).unwrap().len();
        p.insert_static("turbines", vec![new_turbine_row(&p, 91_001)])
            .unwrap();
        p.insert_static("turbines", vec![new_turbine_row(&p, 91_002)])
            .unwrap();
        let old = p.snapshot();
        assert_eq!(old.novelty.depth(), 2);
        p.set_merge_probe(move |p| {
            assert_eq!(p.novelty_depth(), 0);
            assert_eq!(p.query_static(text).unwrap().len(), before + 2);
            assert_eq!(
                p.query_static_distributed(text, 2).unwrap().len(),
                before + 2,
                "a distributed reader at the seam shards over the folded catalog"
            );
        });
        assert_eq!(p.merge_now().unwrap(), 2);
        // The pre-merge snapshot holds its overlay strong and still
        // resolves: scans over its view keep merging base + overlay.
        assert_eq!(old.view.novelty_epoch(), old.novelty.epoch());
        let rows = optique_relational::exec::query("SELECT tid FROM turbines", &old.view).unwrap();
        assert_eq!(rows.rows.len(), before + 2);
    }

    /// A merge changes no table's contents, so versioned BGP-cache entries
    /// stay warm across it — and the incrementally maintained stats equal
    /// a from-scratch analyze (no drift survives a merge).
    #[test]
    fn merge_keeps_versioned_cache_entries_warm() {
        let p = platform();
        let sensors = "SELECT ?s WHERE { ?s a sie:Sensor }";
        p.query_static(sensors).unwrap();
        p.insert_static("turbines", vec![new_turbine_row(&p, 94_001)])
            .unwrap();
        assert_eq!(p.merge_now().unwrap(), 1);
        let (_, stats) = p.query_static_with_stats(sensors).unwrap();
        assert!(
            stats.cache_hits >= 1,
            "merge must not cold the cache: {stats:?}"
        );
        assert_eq!(*p.table_stats(), StatsCatalog::analyze(&p.db()));
    }

    #[test]
    fn auto_merge_triggers_past_threshold() {
        let p = platform();
        let base_rows = p.snapshot().db.table("turbines").unwrap().rows.len();
        p.insert_static("turbines", vec![new_turbine_row(&p, 92_000)])
            .unwrap();
        assert_eq!(p.novelty_depth(), 1, "below the threshold nothing folds");
        let batch: Vec<Vec<Value>> = (1..MERGE_FLOOR_ROWS as i64)
            .map(|k| new_turbine_row(&p, 92_000 + k))
            .collect();
        p.insert_static("turbines", batch).unwrap();
        // The second insert reached the threshold and folded the log.
        assert_eq!(p.novelty_depth(), 0);
        assert_eq!(
            p.snapshot().db.table("turbines").unwrap().rows.len(),
            base_rows + MERGE_FLOOR_ROWS
        );
    }

    /// The small deployment with `rows` one-per-millisecond readings in its
    /// stream table, and a generator of further readings.
    fn stream_platform(rows: i64) -> (OptiquePlatform, impl Fn(i64) -> Vec<Value>) {
        let msmt = |ts: i64| {
            vec![
                Value::Timestamp(ts),
                Value::Int(ts % 7),
                Value::Float((ts % 50) as f64),
                Value::Null,
            ]
        };
        let mut deployment = SiemensDeployment::small();
        let schema = deployment.db.table("S_Msmt").unwrap().schema.clone();
        let table = optique_relational::Table::new(schema, (0..rows).map(msmt).collect()).unwrap();
        deployment.db.put_table("S_Msmt", table);
        (OptiquePlatform::from_siemens(deployment), msmt)
    }

    /// The merge is owed per *share* of the table, past the floor: over
    /// 40 000 base rows the overlay merges on reaching 5 000 (an eighth),
    /// not 4 096; over 200 base rows it merges at the floor, as
    /// `auto_merge_triggers_past_threshold` pins for `turbines`.
    #[test]
    fn merge_waits_for_its_share_of_a_large_table() {
        let (p, msmt) = stream_platform(40_000);
        let floor = MERGE_FLOOR_ROWS as i64;
        p.insert_static("S_Msmt", (40_000..40_000 + floor).map(&msmt).collect())
            .unwrap();
        assert_eq!(
            p.novelty_depth(),
            MERGE_FLOOR_ROWS,
            "floor reached, share not"
        );
        p.insert_static("S_Msmt", (40_000 + floor..44_999).map(&msmt).collect())
            .unwrap();
        assert_eq!(p.novelty_depth(), 4_999, "one row short of an eighth");
        p.insert_static("S_Msmt", vec![msmt(44_999)]).unwrap();
        assert_eq!(p.novelty_depth(), 0, "an eighth of the table is new: fold");
        assert_eq!(p.snapshot().db.table("S_Msmt").unwrap().len(), 45_000);
        // The share is of every table the overlay holds rows for, taken
        // together: a turbine row beside 4 096 stream rows changes nothing.
        p.insert_static("turbines", vec![new_turbine_row(&p, 95_000)])
            .unwrap();
        p.insert_static("S_Msmt", (45_000..45_000 + floor).map(&msmt).collect())
            .unwrap();
        assert_eq!(p.novelty_depth(), MERGE_FLOOR_ROWS + 1);

        let (small, msmt) = stream_platform(200);
        small
            .insert_static("S_Msmt", (200..199 + floor).map(&msmt).collect())
            .unwrap();
        assert_eq!(small.novelty_depth(), MERGE_FLOOR_ROWS - 1);
        small
            .insert_static("S_Msmt", vec![msmt(199 + floor)])
            .unwrap();
        assert_eq!(
            small.novelty_depth(),
            0,
            "a small table merges at the floor"
        );
    }

    /// `overlay_snapshot_stats_and_versions_cohere`, across a merge of a
    /// deep overlay built from many batches: the folded base holds every
    /// row in arrival order, the stats equal a from-scratch analyze, the
    /// write versions moved with the inserts and not with the merge, the
    /// stream clock is the newest reading's, and the snapshot pinned before
    /// the merge still reads base + overlay.
    #[test]
    fn deep_overlay_merge_keeps_stats_versions_and_clocks() {
        let (p, msmt) = stream_platform(40_000);
        let deployed = p.snapshot();
        assert_eq!(deployed.clocks.get("S_Msmt"), Some(&39_999));
        // 49 batches of 100 stay in the overlay; a late batch (old
        // timestamps) must not turn the clock back.
        for batch in 0..49 {
            let from = 40_000 + batch * 100;
            p.insert_static("S_Msmt", (from..from + 100).map(&msmt).collect())
                .unwrap();
        }
        p.insert_static("S_Msmt", (0..99).map(&msmt).collect())
            .unwrap();
        let deep = p.snapshot();
        assert_eq!(deep.novelty.depth(), 4_999);
        assert!(Arc::ptr_eq(&deep.db, &deployed.db), "appends keep the base");
        assert_eq!(deep.stats.row_count("S_Msmt"), Some(44_999));
        assert_eq!(
            deep.versions.of("S_Msmt"),
            deployed.versions.of("S_Msmt") + 50
        );
        assert_eq!(deep.clocks.get("S_Msmt"), Some(&44_899));

        p.insert_static("S_Msmt", vec![msmt(44_900)]).unwrap();
        let merged = p.snapshot();
        assert_eq!(merged.novelty.depth(), 0, "the share is reached: folded");
        assert!(Arc::ptr_eq(&merged.db, &merged.view));
        let folded = &merged.db.table("S_Msmt").unwrap().rows;
        let arrival = (0..44_900).chain(0..99).chain([44_900]).map(&msmt);
        assert!(folded.iter().eq(arrival.collect::<Vec<_>>().iter()));
        assert_eq!(*merged.stats, StatsCatalog::analyze(&merged.db));
        assert_eq!(merged.versions.of("S_Msmt"), deep.versions.of("S_Msmt") + 1);
        assert_eq!(merged.clocks.get("S_Msmt"), Some(&44_900));
        // The pre-merge snapshot is untouched by the fold.
        assert_eq!(deep.view.novelty_rows("S_Msmt").count(), 4_999);
        assert_eq!(deep.db.table("S_Msmt").unwrap().len(), 40_000);
    }

    #[test]
    fn query_static_answers_select() {
        let p = platform();
        let results = p
            .query_static("SELECT ?s WHERE { ?s a sie:Sensor }")
            .unwrap();
        // The small deployment has 60 sensors; the regional registries remap
        // the same individuals, and the pipeline returns distinct solutions.
        assert_eq!(results.len(), 60);
    }

    #[test]
    fn query_static_enriches_through_the_taxonomy() {
        let p = platform();
        // MonitoringDevice has no direct mapping; only the subclass axiom
        // Sensor ⊑ MonitoringDevice (and the sensor-kind taxonomy below it)
        // makes the data reachable.
        let results = p
            .query_static("SELECT DISTINCT ?s WHERE { ?s a sie:MonitoringDevice }")
            .unwrap();
        assert_eq!(results.len(), 60);
    }

    #[test]
    fn query_static_ask_and_errors() {
        let p = platform();
        assert_eq!(
            p.query_static("ASK { ?s a sie:Sensor }").unwrap().as_bool(),
            Some(true)
        );
        let err = p.query_static("SELECT ?x WHERE { ?x a }").unwrap_err();
        assert!(err.contains("line"), "positioned error: {err}");
    }

    #[test]
    fn query_static_distributed_matches_single_node() {
        let p = platform();
        let text = "SELECT DISTINCT ?s WHERE { ?s a sie:MonitoringDevice }";
        let single = p.query_static(text).unwrap();
        for workers in [1usize, 2, 4] {
            let distributed = p.query_static_distributed(text, workers).unwrap();
            let canon = |r: &SparqlResults| {
                let mut rows: Vec<String> = r.rows().iter().map(|row| format!("{row:?}")).collect();
                rows.sort();
                rows
            };
            assert_eq!(canon(&single), canon(&distributed), "workers={workers}");
        }
        assert!(p
            .query_static_distributed("ASK { ?s a sie:Sensor }", 0)
            .is_err());
    }

    #[test]
    fn bgp_cache_hits_and_insert_invalidation() {
        let p = platform();
        let text = "SELECT ?t WHERE { ?t a sie:Turbine }";
        let first = p.query_static(text).unwrap();
        let (_, stats) = p.query_static_with_stats(text).unwrap();
        assert!(stats.cache_hits >= 1, "second run hits: {stats:?}");
        let hits_before = p.dashboard().bgp_cache_hits;
        assert!(hits_before >= 1);

        // A relational INSERT invalidates: a new turbine row appears in the
        // next answer instead of the stale cached set.
        let turbines = p.db().table("turbines").unwrap().clone();
        let mut row: Vec<Value> = turbines.rows[0].clone();
        let id_col = turbines.schema.index_of("tid").expect("turbines.tid");
        row[id_col] = Value::Int(99_999);
        p.insert_static("turbines", vec![row]).unwrap();
        let after = p.query_static(text).unwrap();
        assert_eq!(after.len(), first.len() + 1, "inserted turbine is visible");
        assert_eq!(p.dashboard().bgp_cache_invalidations, 1);
    }

    #[test]
    fn query_static_lands_on_the_dashboard() {
        let p = platform();
        p.query_static("SELECT ?s WHERE { ?s a sie:Sensor } LIMIT 5")
            .unwrap();
        p.query_static("ASK { ?s a sie:Sensor }").unwrap();
        let dash = p.dashboard();
        assert_eq!(dash.static_queries.len(), 2);
        assert_eq!(dash.static_queries[0].stats.rows, 5);
        assert!(dash.static_queries[0].stats.sql_disjuncts >= 1);
        assert!(dash.render().contains("static SPARQL"));
    }

    #[test]
    fn bootstrap_deployment_path() {
        let deployment = SiemensDeployment::small();
        let schema = optique_siemens::fleet::fleet_schema();
        let p = OptiquePlatform::deploy_with_bootstrap(
            deployment.db,
            &schema,
            &BootstrapSettings {
                vocab_ns: optique_siemens::SIE_NS.into(),
                data_ns: optique_siemens::DATA_NS.into(),
                mandatory_participation: true,
            },
            deployment.namespaces,
            deployment.stream_to_rdf,
            Some(&deployment.ontology),
            Some(deployment.mappings),
        )
        .unwrap();
        // Both bootstrapped and curated terms are mapped.
        assert!(p.mappings.len() > 13);
        let id = p.register_starql(optique_starql::FIGURE1).unwrap();
        let _ = p.tick_all(609_000).unwrap();
        assert!(p.deregister(id));
    }
}

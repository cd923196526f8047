//! The OPTIQUE platform: deployment + continuous-query lifecycle.
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
//! base tables, re-analyzes only the touched tables' statistics, and drops
//! the pools so the next distributed query re-partitions over the folded
//! shards. A fold costs in proportion to the tables it rewrites, so owing
//! one per fixed *share* of new rows keeps it amortized O(1) per appended
//! row however large the table grows, and keeps the overlay every scan
//! chains through bounded by that share.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use optique_bootstrap::{bootstrap_direct, BootstrapSettings, RelationalSchema};
use optique_mapping::MappingCatalog;
use optique_ontology::Ontology;
use optique_rdf::Namespaces;
use optique_relational::{Database, DictSnapshot, NoveltyOverlay, StatsCatalog, TermDict, Value};
use optique_rewrite::RewriteSettings;
use optique_siemens::{DiagnosticTask, SiemensDeployment};
use optique_sparql::{
    parse_sparql, BgpCache, GroupPattern, PatternElement, PipelineStats, PlannerSettings,
    Projection, Query, SelectItem, SelectQuery, SolutionModifier, SparqlResults, StaticPipeline,
    TableVersions,
};
use optique_starql::{
    parse_starql, translate, ContinuousQuery, StreamToRdf, TickOutput, TranslationContext,
};
use optique_stream::WCache;
use optique_telemetry::{render_tree, MetricsRegistry, MetricsSnapshot, Tracer};
use parking_lot::{Mutex, RwLock};

use crate::dashboard::{Dashboard, QueryPanel, SlowQuery, StaticQueryPanel};
use crate::federation::{Federation, FederationTopology};

/// A registered STARQL query with its accumulated monitoring counters.
pub struct RegisteredStarQl {
    /// Platform-assigned id.
    pub id: u64,
    /// Human-readable name (output-stream name or task id).
    pub name: String,
    /// The compiled continuous query.
    pub query: ContinuousQuery,
    /// Worker count whose federation pool evaluates this query's ticks
    /// (`None` = single-node, the reference path).
    pub workers: Option<usize>,
    /// Cumulative alarms raised.
    pub alarms: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Cumulative tuples inspected.
    pub tuples: u64,
    /// Cumulative window fragments shipped to the federation.
    pub window_fragments: u64,
    /// Cumulative stream rows the federation shipped back (window-cache
    /// hits ship nothing).
    pub stream_rows: u64,
    /// Cumulative stream shards skipped by key routing.
    pub shards_pruned: u64,
    /// Cumulative stream-key semi-joins pushed into window fragments.
    pub semi_joins_pushed: u64,
    /// Cumulative worker pane-store probes answered from warm incremental
    /// state (pane-combinable distributed queries only).
    pub pane_hits: u64,
    /// Cumulative worker pane-store probes folded from scratch.
    pub pane_misses: u64,
    /// Highest window id already driven by
    /// [`append_stream`](OptiquePlatform::append_stream) — initialized to
    /// the last window the stream's rows had closed at registration, so an
    /// append only ticks windows it *newly* closes.
    last_auto_window: Option<u64>,
}

/// The conciseness report behind experiment E3: one STARQL text versus the
/// fleet of low-level queries it replaces.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Query name.
    pub name: String,
    /// Characters of STARQL text.
    pub starql_chars: usize,
    /// Number of generated low-level queries.
    pub fleet_queries: usize,
    /// Total characters of generated SQL.
    pub fleet_chars: usize,
}

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
    /// Watermark of the global term dictionary at capture. The dictionary
    /// is append-only, so every id a batch produced under this snapshot can
    /// carry resolves stably for the snapshot's lifetime; writers that
    /// intern new terms only ever append past the watermark.
    pub dict: DictSnapshot,
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
    wcache: Arc<WCache>,
    queries: Mutex<BTreeMap<u64, RegisteredStarQl>>,
    next_id: std::sync::atomic::AtomicU64,
    static_log: Mutex<VecDeque<StaticQueryPanel>>,
    static_next_id: std::sync::atomic::AtomicU64,
    /// Per-BGP solution-set cache shared by every static query (single-node
    /// and distributed). Validity is decided by the snapshot's per-table
    /// versions; a write also evicts the written table's dependents inside
    /// its critical section (memory hygiene, dashboard counter).
    static_cache: BgpCache,
    /// Static-query worker pools, one per requested `(worker count,
    /// topology)`, dropped inside the merge critical section (workers
    /// snapshot the base catalog they were built over — and a fold may
    /// change the advisor's partition keys). Lookups additionally validate
    /// the cached pool's catalog against the request snapshot by pointer
    /// identity, so a pool raced into the map over a superseded catalog is
    /// never served.
    federations: Mutex<HashMap<(usize, FederationTopology), Arc<Federation>>>,
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
    /// Platform-wide counters and latency histograms, exported by
    /// [`metrics_snapshot`](Self::metrics_snapshot). Static queries feed
    /// `static.query_us`; every registered continuous query feeds
    /// `tick.q<id>.us`.
    registry: Arc<MetricsRegistry>,
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
/// rows is all overhead (pools and pane stores are rebuilt after it).
pub const MERGE_FLOOR_ROWS: usize = 4096;

/// Past the floor, an insert merges once the overlay is this fraction
/// (1/8) of the base rows of the tables it touches — the autovacuum-analyze
/// rule: a fold rewrites and re-analyzes whole tables, so it is owed when a
/// fixed share of them is new, not every fixed number of rows.
pub const MERGE_SHARE: usize = 8;

/// The largest worker pool a request may name: the paper's largest
/// deployment, and what `fleet_scaling` sweeps to. `workers` arrives from
/// outside (`Request::SparqlDistributed`), and every distinct count keeps a
/// re-sharding of the whole catalog in the pool map.
pub const MAX_WORKERS: usize = 128;

/// The one check on a caller-supplied worker count (`None` = single-node).
fn check_workers(workers: Option<usize>) -> Result<(), String> {
    match workers {
        Some(w) if !(1..=MAX_WORKERS).contains(&w) => Err(format!(
            "a worker pool has 1 to {MAX_WORKERS} workers, not {w}"
        )),
        _ => Ok(()),
    }
}

/// Registry counters accumulating worker pane-store probe outcomes across
/// every registered query (pane-combinable distributed ticks only).
const PANE_HITS: &str = "pane.hits";
const PANE_MISSES: &str = "pane.misses";

/// Registry counters accumulating, across every sequence-HAVING tick, the
/// states the tick built and the states it took from the window cache.
const STATES_BUILT: &str = "seq.states_built";
const STATES_SHARED: &str = "seq.states_shared";

/// The highest timestamp in `rows` (`None` when no row carries one).
fn batch_clock(rows: &[Vec<Value>], ts_idx: usize) -> Option<i64> {
    rows.iter()
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
            dict: TermDict::global().snapshot(),
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
            federations: Mutex::new(HashMap::new()),
            #[cfg(test)]
            write_probe: Mutex::new(None),
            #[cfg(test)]
            merge_probe: Mutex::new(None),
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

    /// Parses, translates (enrich + unfold) and registers a STARQL query.
    /// Ticks evaluate single-node; the static WHERE bindings are computed
    /// through the full static pipeline (per-BGP cache, planner).
    pub fn register_starql(&self, text: &str) -> Result<u64, String> {
        self.register_named(None, text, None)
    }

    /// [`register_starql`](Self::register_starql), with ticks evaluated
    /// **distributed over `workers` ExaStream workers** — mirroring
    /// [`query_static_distributed`](Self::query_static_distributed). The
    /// query's stream hash-partitions across the pool on its stream key,
    /// so every tick's window compiles to a plan fragment that *scatters*:
    /// each worker slices its shard of the window and the partials gather.
    /// The static WHERE bindings run through the same federation (BGP
    /// cache, planner pushdown, partitioned shards). Output streams are
    /// identical to single-node registration — the streaming equivalence
    /// oracle pins this down.
    pub fn register_starql_distributed(&self, text: &str, workers: usize) -> Result<u64, String> {
        self.register_named(None, text, Some(workers))
    }

    /// Registers a catalog task.
    pub fn register_task(&self, task: &DiagnosticTask) -> Result<u64, String> {
        match &task.query {
            optique_siemens::catalog::TaskQuery::StarQl(text) => {
                self.register_named(Some(format!("{}:{}", task.id, task.name)), text, None)
            }
            optique_siemens::catalog::TaskQuery::SqlPlus(_) => Err(format!(
                "task {} is a SQL(+) dataflow; run it on the relational engine directly",
                task.id
            )),
        }
    }

    fn register_named(
        &self,
        name: Option<String>,
        text: &str,
        workers: Option<usize>,
    ) -> Result<u64, String> {
        check_workers(workers)?;
        let parsed = parse_starql(text, &self.namespaces).map_err(|e| e.to_string())?;
        let ctx = TranslationContext {
            ontology: &self.ontology,
            mappings: &self.mappings,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: Default::default(),
        };
        // Translation stays the validator (answer-variable totality,
        // filter scoping, HAVING expansion) and still carries the fleet /
        // window machinery; the *bindings* are answered by the static
        // pipeline below instead of the raw unfolded SQL.
        let translated = translate(&parsed, &ctx).map_err(|e| e.to_string())?;
        // One snapshot for bindings *and* registration, so the continuous
        // query's initial state is internally consistent.
        let snap = self.snapshot();
        let bindings = self.starql_bindings(&translated, workers, &snap)?;
        let query = ContinuousQuery::register_with_bindings(
            translated,
            self.stream_to_rdf.clone(),
            &snap.db,
            bindings,
        )?;
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = name.unwrap_or_else(|| parsed.output_stream.clone());
        // Windows the stream's existing rows have already closed never
        // re-fire on the first append: the append-driven clock starts at
        // the registration-time high-water mark.
        let last_auto_window = snap
            .clocks
            .get(&query.translated.query.stream.name)
            .and_then(|&ts| query.window().last_closed(query.window_start(), ts));
        self.queries.lock().insert(
            id,
            RegisteredStarQl {
                id,
                name,
                query,
                workers,
                alarms: 0,
                ticks: 0,
                tuples: 0,
                window_fragments: 0,
                stream_rows: 0,
                shards_pruned: 0,
                semi_joins_pushed: 0,
                pane_hits: 0,
                pane_misses: 0,
                last_auto_window,
            },
        );
        // A distributed registration may introduce a stream the existing
        // pools do not partition; drop them so the next tick's pool
        // re-shards over the full stream set.
        if workers.is_some() {
            self.federations.lock().clear();
        }
        Ok(id)
    }

    /// Answers a translated STARQL query's static WHERE clause through the
    /// static pipeline — `SELECT DISTINCT <answer vars> WHERE { … }` over
    /// the query's (already-validated) disjuncts and filters — so
    /// continuous queries ride the per-BGP cache, the planner, and (when
    /// `workers` is set) the federated fragment executor.
    fn starql_bindings(
        &self,
        translated: &optique_starql::TranslatedQuery,
        workers: Option<usize>,
        snap: &PlatformSnapshot,
    ) -> Result<Vec<HashMap<String, optique_rdf::Term>>, String> {
        let fallback = [translated.query.where_bgp.clone()];
        let disjuncts: &[Vec<optique_rewrite::Atom>] =
            if translated.query.where_disjuncts.is_empty() {
                &fallback
            } else {
                &translated.query.where_disjuncts
            };
        let branch = |i: usize| -> GroupPattern {
            let mut elements = vec![PatternElement::Triples(disjuncts[i].clone())];
            if let Some(filters) = translated.query.where_filters.get(i) {
                elements.extend(filters.iter().cloned().map(PatternElement::Filter));
            }
            GroupPattern { elements }
        };
        let pattern = if disjuncts.len() <= 1 {
            branch(0)
        } else {
            GroupPattern {
                elements: vec![PatternElement::Union(
                    (0..disjuncts.len()).map(branch).collect(),
                )],
            }
        };
        let select = SelectQuery {
            distinct: true,
            projection: Projection::Items(
                translated
                    .where_answer_vars
                    .iter()
                    .map(|v| SelectItem::Var(v.clone()))
                    .collect(),
            ),
            pattern,
            group_by: Vec::new(),
            modifiers: SolutionModifier::default(),
        };
        let federation = workers.map(|w| self.federation_for(w, snap));
        let (results, _) = self
            .pipeline(snap, federation.as_deref())
            .answer(&Query::Select(select))
            .map_err(|e| format!("static bindings query failed: {e}"))?;
        let vars = results.vars().to_vec();
        let mut bindings = Vec::new();
        for row in results.rows() {
            let mut env = HashMap::with_capacity(vars.len());
            for (var, term) in vars.iter().zip(row) {
                if let Some(term) = term {
                    env.insert(var.clone(), term.clone());
                }
            }
            bindings.push(env);
        }
        Ok(bindings)
    }

    /// The static pipeline every request runs under `snap`: the view
    /// catalog, the shared BGP cache at the snapshot's table versions, the
    /// snapshot's planner knobs and statistics, and `federation` as the
    /// fragment executor when the request is distributed.
    fn pipeline<'a>(
        &'a self,
        snap: &'a PlatformSnapshot,
        federation: Option<&'a Federation>,
    ) -> StaticPipeline<'a> {
        let pipeline = StaticPipeline::new(&self.ontology, &self.mappings, &snap.view)
            .with_cache(&self.static_cache, &snap.versions)
            .with_planner(snap.planner)
            .with_table_stats(&snap.stats);
        match federation {
            Some(federation) => pipeline.with_executor(federation),
            None => pipeline,
        }
    }

    /// The `(stream table, stream key)` pairs of every registered
    /// continuous query — what federation pools hash-partition the stream
    /// side on.
    fn stream_partition_pairs(&self) -> Vec<(String, String)> {
        let queries = self.queries.lock();
        let mut pairs: Vec<(String, String)> = Vec::new();
        for reg in queries.values() {
            let stream = reg.query.translated.query.stream.name.clone();
            let key = reg.query.stream_to_rdf.subject.column().to_string();
            if !pairs.iter().any(|(s, _)| *s == stream) {
                pairs.push((stream, key));
            }
        }
        pairs
    }

    /// The cached federation pool for `workers` under `snap`'s topology,
    /// building it (static tables per topology, registered streams always
    /// hash-partitioned) on first use. A cached pool is served only when
    /// its catalog **is** the snapshot's catalog (pointer identity) — a
    /// pool built over a superseded catalog, even one raced into the map
    /// after a write cleared it, misses and is rebuilt over `snap`.
    fn federation_for(&self, workers: usize, snap: &PlatformSnapshot) -> Arc<Federation> {
        let key = (workers, snap.topology);
        if let Some(pool) = self.federations.lock().get(&key) {
            if Arc::ptr_eq(pool.catalog(), &snap.db) {
                return Arc::clone(pool);
            }
        }
        // Build outside the map lock: sharding the catalog is the slow
        // part, and `stream_partition_pairs` takes the queries lock.
        let streams = self.stream_partition_pairs();
        let pool = Arc::new(Federation::for_deployment(
            Arc::clone(&snap.db),
            workers,
            snap.topology,
            &snap.stats,
            &self.mappings,
            &streams,
        ));
        // Double-checked insert. When the slot holds a pool over a
        // *different* catalog than ours, ours wins the slot — if that other
        // pool was actually fresher, its own readers re-validate and
        // rebuild, so staleness never escapes (only redundant builds).
        let mut pools = self.federations.lock();
        let entry = pools.entry(key).or_insert_with(|| Arc::clone(&pool));
        if !Arc::ptr_eq(entry.catalog(), &snap.db) {
            *entry = Arc::clone(&pool);
        }
        Arc::clone(entry)
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
    /// the unfolded `UNION ALL` of every BGP splits into per-disjunct plan
    /// fragments, the gateway routes them across `workers` worker threads,
    /// and the per-fragment solution sets merge back before the residual
    /// algebra. Answers are always the same *set* as
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
    /// round trims back to the registered ranges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let dict = TermDict::global();
        self.registry.gauge("dict.terms").set(dict.len() as i64);
        self.registry.gauge("dict.bytes").set(dict.bytes() as i64);
        let (windows, slices) = (self.wcache.len(), self.wcache.slices());
        self.registry.gauge("wcache.windows").set(windows as i64);
        self.registry.gauge("wcache.slices").set(slices as i64);
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
                base.check_row(row).map_err(|e| e.to_string())?;
            }
            if rows.is_empty() {
                return Ok(0);
            }
            // The stream clock advances from the batch alone (late rows
            // never turn it back); merges carry it over untouched.
            let batch = base
                .schema
                .index_of(&self.stream_to_rdf.timestamp_col)
                .and_then(|ts_idx| batch_clock(&rows, ts_idx));
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
                // Re-pin after interning the inserted rows' text: ids for
                // the new literals fall at or below the fresh watermark.
                dict: TermDict::global().snapshot(),
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

    /// `db` with every overlay row appended to its base table; returns the
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
            let mut t = (**folded.table(table).map_err(|e| e.to_string())?).clone();
            for row in rows.iter() {
                // Rows were validated against this schema on append.
                t.push_row(row.clone()).map_err(|e| e.to_string())?;
            }
            folded.put_table(table, t);
            touched.push(table.to_string());
        }
        Ok((folded, touched))
    }

    /// Folds the novelty overlay into the base catalog **now**: every
    /// overlay row becomes a base-table row, the touched tables' stats are
    /// re-analyzed (per-column histograms catch up with the O(1) deltas),
    /// and the pools are dropped so the next distributed query
    /// re-partitions over the folded shards — only tables whose advisor
    /// keys drifted actually change layout. Table versions do **not**
    /// bump: a merge changes no table's contents, so versioned BGP-cache
    /// entries stay warm across it. Returns the number of rows folded
    /// (0 when the overlay was already empty).
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
                let t = Arc::clone(folded.table(table).expect("folded table exists"));
                stats = stats.with_refreshed_table(table, &t);
            }
            // The fold swaps the base catalog Arc the pools shard, so they
            // retire here, while the write lock still blocks snapshot pins:
            // no reader can pair the folded catalog with an old-shard pool.
            self.federations.lock().clear();
            // `versions` carries over unchanged: pre-merge and post-merge
            // answers are identical, so cached solution sets stay valid.
            *guard = Arc::new(PlatformSnapshot {
                view: Arc::clone(&folded),
                db: folded,
                novelty: NoveltyOverlay::empty(),
                stats: Arc::new(stats),
                dict: TermDict::global().snapshot(),
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

    /// Deregisters a query; returns whether it existed. Its tick-latency
    /// histogram goes with it (under the query lock, which ticks hold while
    /// they record — so no tick can re-create it afterwards).
    pub fn deregister(&self, id: u64) -> bool {
        let mut queries = self.queries.lock();
        self.registry.remove_histogram(&format!("tick.q{id}.us"));
        queries.remove(&id).is_some()
    }

    /// Number of registered queries.
    pub fn registered(&self) -> usize {
        self.queries.lock().len()
    }

    /// Runs one pulse tick for every registered query, updating counters.
    /// Outputs come back in registration order. Queries registered through
    /// [`register_starql_distributed`](Self::register_starql_distributed)
    /// materialize their windows as plan fragments over their federation
    /// pool; the rest slice locally.
    pub fn tick_all(&self, tick_ms: i64) -> Result<Vec<(u64, TickOutput)>, String> {
        // One snapshot for the whole tick round: the pools and the db
        // every query slices are the same world, even if a write lands
        // mid-round (its rows show up next tick).
        let snap = self.snapshot();
        // Pools build outside the query lock (pool construction calls
        // back into `stream_partition_pairs`, which takes it).
        let worker_counts: Vec<usize> = {
            let queries = self.queries.lock();
            let mut counts: Vec<usize> = queries.values().filter_map(|r| r.workers).collect();
            counts.sort_unstable();
            counts.dedup();
            counts
        };
        let pools: HashMap<usize, Arc<Federation>> = worker_counts
            .into_iter()
            .map(|w| (w, self.federation_for(w, &snap)))
            .collect();

        let mut out = Vec::new();
        // Ticks read the *view* catalog: unmerged novelty-overlay rows are
        // part of every window, single-node and distributed alike (the
        // fragments pin the overlay epoch).
        let db = &snap.view;
        let mut queries = self.queries.lock();
        for (id, reg) in queries.iter_mut() {
            // A query whose worker count registered *between* the snapshot
            // above and this lock has no pool yet: it ticks single-node
            // this once (identical output stream — the oracle's contract)
            // and gets its pool next tick. Building here would deadlock on
            // the queries lock (pool construction reads the stream pairs).
            let executor = reg.workers.and_then(|w| pools.get(&w));
            let result = self.run_tick(reg, db, tick_ms, executor)?;
            out.push((*id, result));
        }
        self.evict_windows(&queries, None, tick_ms);
        Ok(out)
    }

    /// One timed tick of one registered query, folding the tick's counters
    /// into the query's panel and the pane counters into the registry —
    /// shared by [`tick_all`](Self::tick_all) and append-driven ticking.
    fn run_tick(
        &self,
        reg: &mut RegisteredStarQl,
        db: &Arc<Database>,
        tick_ms: i64,
        executor: Option<&Arc<Federation>>,
    ) -> Result<TickOutput, String> {
        let tick_started = std::time::Instant::now();
        let result =
            reg.query
                .tick_via(db, &self.wcache, tick_ms, executor.map(|f| f.as_ref() as _))?;
        self.registry
            .histogram(&format!("tick.q{}.us", reg.id))
            .record(tick_started.elapsed().as_micros() as u64);
        reg.ticks += 1;
        reg.alarms += result.satisfied as u64;
        reg.tuples += result.tuples_in_window as u64;
        reg.window_fragments += result.window_fragments as u64;
        reg.stream_rows += result.stream_rows_shipped as u64;
        reg.shards_pruned += result.shards_pruned as u64;
        reg.semi_joins_pushed += result.semi_joins_pushed as u64;
        reg.pane_hits += result.pane_hits;
        reg.pane_misses += result.pane_misses;
        if result.pane_hits > 0 {
            self.registry.counter(PANE_HITS).add(result.pane_hits);
        }
        if result.pane_misses > 0 {
            self.registry.counter(PANE_MISSES).add(result.pane_misses);
        }
        if result.states_built > 0 {
            self.registry
                .counter(STATES_BUILT)
                .add(result.states_built as u64);
        }
        if result.states_shared > 0 {
            self.registry
                .counter(STATES_SHARED)
                .add(result.states_shared as u64);
        }
        Ok(result)
    }

    /// Drops from the window cache what no registered query can ask for
    /// again once its stream's clock reads `clock`. A query asks for a
    /// closed window once, in the round that closes it, so every window
    /// closed before `clock` goes; a window yet to close reaches back at
    /// most the longest range registered on the stream, so states stamped
    /// before `clock −` that go. `only` names the stream an append
    /// advanced; a pulse (`None`) is the clock of every stream.
    fn evict_windows(
        &self,
        queries: &BTreeMap<u64, RegisteredStarQl>,
        only: Option<&str>,
        clock: i64,
    ) {
        let mut longest: BTreeMap<&str, i64> = BTreeMap::new();
        for reg in queries.values() {
            let stream = reg.query.translated.query.stream.name.as_str();
            if only.is_none_or(|only| only == stream) {
                let range_ms = longest.entry(stream).or_default();
                *range_ms = (*range_ms).max(reg.query.window().range_ms);
            }
        }
        for (stream, range_ms) in longest {
            self.wcache.evict_below(stream, clock, clock - range_ms);
        }
    }

    /// Appends rows to a stream table **and drives the continuous queries
    /// over it**: after the write publishes, every registered query on
    /// `table` ticks once per window the appended rows newly closed (each
    /// tick at that window's close instant), exactly as if
    /// [`tick_all`](Self::tick_all) had been pulsed at those times.
    /// Returns the driven tick outputs as `(query id, output)` pairs in
    /// registration order, oldest window first — empty when the append
    /// left every window still open.
    ///
    /// This is the push half of the paper's pulse model: where `tick_all`
    /// polls on an external clock, `append_stream` lets the *data* advance
    /// the clock — the batch's maximum timestamp becomes the stream's new
    /// high-water mark.
    pub fn append_stream(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<(u64, TickOutput)>, String> {
        self.insert_static(table, rows)?;
        // One snapshot for the whole driven round, pinned *after* the
        // write so the ticks see the rows that closed their windows.
        let snap = self.snapshot();
        let Some(&clock) = snap.clocks.get(table) else {
            return Ok(Vec::new());
        };
        // Pools build outside the queries lock, exactly as in `tick_all`.
        let worker_counts: Vec<usize> = {
            let queries = self.queries.lock();
            let mut counts: Vec<usize> = queries
                .values()
                .filter(|r| r.query.translated.query.stream.name == table)
                .filter_map(|r| r.workers)
                .collect();
            counts.sort_unstable();
            counts.dedup();
            counts
        };
        let pools: HashMap<usize, Arc<Federation>> = worker_counts
            .into_iter()
            .map(|w| (w, self.federation_for(w, &snap)))
            .collect();

        let mut out = Vec::new();
        let db = &snap.view;
        let mut queries = self.queries.lock();
        for (id, reg) in queries.iter_mut() {
            if reg.query.translated.query.stream.name != table {
                continue;
            }
            let window = reg.query.window();
            let start = reg.query.window_start();
            let Some(newest) = window.last_closed(start, clock) else {
                continue;
            };
            let first = reg.last_auto_window.map_or(0, |w| w + 1);
            let executor = reg.workers.and_then(|w| pools.get(&w));
            for w in first..=newest {
                let close = window.bounds(start, w).1;
                let result = self.run_tick(reg, db, close, executor)?;
                out.push((*id, result));
            }
            reg.last_auto_window = Some(newest);
        }
        self.evict_windows(&queries, Some(table), clock);
        Ok(out)
    }

    /// Enables/disables incremental pane aggregation on every registered
    /// query. Disabled queries rescan the full window even when
    /// pane-combinable — the differential oracle's reference arm; output
    /// streams are identical either way.
    pub fn set_pane_aggregation(&self, enabled: bool) {
        for reg in self.queries.lock().values() {
            reg.query.set_pane_aggregation(enabled);
        }
    }

    /// The shared window cache (hit/miss statistics for E8).
    pub fn wcache(&self) -> &WCache {
        &self.wcache
    }

    /// Conciseness report for one registered query (E3).
    pub fn fleet_report(&self, id: u64, starql_text: &str) -> Option<FleetReport> {
        let queries = self.queries.lock();
        let reg = queries.get(&id)?;
        let fleet = &reg.query.translated.fleet;
        Some(FleetReport {
            name: reg.name.clone(),
            starql_chars: starql_text.len(),
            fleet_queries: fleet.len(),
            fleet_chars: fleet.iter().map(String::len).sum(),
        })
    }

    /// A monitoring snapshot of all registered queries.
    pub fn dashboard(&self) -> Dashboard {
        let queries = self.queries.lock();
        let panels = queries
            .values()
            .map(|reg| {
                // Read, never create: a panel for a query that has not
                // ticked yet must not leave a histogram behind.
                let ticks = self
                    .registry
                    .find_histogram(&format!("tick.q{}.us", reg.id))
                    .map(|h| h.summary())
                    .unwrap_or_default();
                QueryPanel {
                    id: reg.id,
                    name: reg.name.clone(),
                    bindings: reg.query.binding_count(),
                    ticks: reg.ticks,
                    alarms: reg.alarms,
                    tuples: reg.tuples,
                    fleet_size: reg.query.translated.fleet.len(),
                    workers: reg.workers.unwrap_or(1),
                    window_fragments: reg.window_fragments,
                    stream_rows: reg.stream_rows,
                    shards_pruned: reg.shards_pruned,
                    semi_joins_pushed: reg.semi_joins_pushed,
                    pane_hits: reg.pane_hits,
                    pane_misses: reg.pane_misses,
                    tick_p50_us: ticks.p50,
                    tick_p95_us: ticks.p95,
                    tick_p99_us: ticks.p99,
                }
            })
            .collect();
        drop(queries);
        let static_latency = self.registry.histogram("static.query_us").summary();
        Dashboard {
            panels,
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
    use optique_siemens::catalog::TaskQuery;

    fn platform() -> OptiquePlatform {
        OptiquePlatform::from_siemens(SiemensDeployment::small())
    }

    #[test]
    fn register_and_tick_figure1() {
        let p = platform();
        let id = p.register_starql(optique_starql::FIGURE1).unwrap();
        assert_eq!(p.registered(), 1);
        // The small deployment plants ramp failures near the end of its 60 s
        // stream; tick across the stream and count alarms.
        let mut alarms = 0;
        for tick in (600_000..=660_000).step_by(1_000) {
            let outputs = p.tick_all(tick).unwrap();
            alarms += outputs[0].1.satisfied;
        }
        assert!(alarms >= 1, "the planted monotonic ramp must fire");
        assert!(p.deregister(id));
    }

    #[test]
    fn catalog_tasks_register() {
        let p = platform();
        let mut registered = 0;
        for task in optique_siemens::diagnostic_tasks() {
            match &task.query {
                TaskQuery::StarQl(_) => {
                    p.register_task(&task)
                        .unwrap_or_else(|e| panic!("{}: {e}", task.id));
                    registered += 1;
                }
                TaskQuery::SqlPlus(sql) => {
                    optique_relational::exec::query(sql, &p.db()).unwrap();
                }
            }
        }
        assert_eq!(registered, 18);
        assert_eq!(p.registered(), 18);
    }

    /// Distributed registration evaluates ticks through window fragments
    /// over a stream-partitioned pool and raises the same alarms.
    #[test]
    fn distributed_starql_ticks_match_single_node() {
        let single = platform();
        let distributed = platform();
        single.register_starql(optique_starql::FIGURE1).unwrap();
        distributed
            .register_starql_distributed(optique_starql::FIGURE1, 4)
            .unwrap();
        let mut single_alarms = 0usize;
        let mut distributed_alarms = 0usize;
        for tick in (600_000..=660_000).step_by(1_000) {
            let s = single.tick_all(tick).unwrap();
            let d = distributed.tick_all(tick).unwrap();
            single_alarms += s[0].1.satisfied;
            distributed_alarms += d[0].1.satisfied;
            let mut st = s[0].1.triples.clone();
            let mut dt = d[0].1.triples.clone();
            st.sort_by_key(|t| format!("{t:?}"));
            dt.sort_by_key(|t| format!("{t:?}"));
            assert_eq!(st, dt, "tick {tick}");
        }
        assert!(single_alarms >= 1);
        assert_eq!(single_alarms, distributed_alarms);
        // The distributed panel shows windows genuinely shipped.
        let dash = distributed.dashboard();
        assert_eq!(dash.panels[0].workers, 4);
        assert!(dash.panels[0].window_fragments > 0, "{:?}", dash.panels[0]);
        assert!(dash.panels[0].stream_rows > 0);
        assert!(dash.render().contains("wfrag"));
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

    /// Regression (unbounded registry): `dashboard()` used to get-or-create
    /// a `tick.q<id>.us` histogram per panel and `deregister` never dropped
    /// it — ~7 KB per registration, for good. Register → dashboard → tick →
    /// deregister rounds must leave the registry where it started.
    #[test]
    fn deregistered_queries_leave_no_histogram_behind() {
        let p = platform();
        let histograms = |p: &OptiquePlatform| p.metrics_snapshot().histograms.len();
        let round = |p: &OptiquePlatform| {
            let id = p.register_starql(optique_starql::FIGURE1).unwrap();
            let before_read = histograms(p);
            assert_eq!(p.dashboard().panels.len(), 1);
            p.tick_all(600_000).unwrap();
            assert_eq!(p.dashboard().panels[0].ticks, 1);
            assert!(p.deregister(id));
            before_read
        };
        // One warm-up round creates the fixed-name instruments.
        round(&p);
        let baseline = histograms(&p);
        for i in 0..8 {
            let at_registration = round(&p);
            assert_eq!(
                at_registration, baseline,
                "round {i}: nothing per-query yet"
            );
            assert_eq!(histograms(&p), baseline, "round {i}: deregister drops it");
        }
        // Reading a panel that never ticked creates nothing either.
        let id = p.register_starql(optique_starql::FIGURE1).unwrap();
        p.dashboard();
        assert_eq!(histograms(&p), baseline);
        p.deregister(id);
    }

    /// Fragment executions and parses the remembered static panels report.
    fn plan_cache_totals(dash: &Dashboard) -> (u64, u64) {
        dash.static_queries.iter().fold((0, 0), |(h, m), q| {
            (h + q.stats.plan_cache_hits, m + q.stats.plan_cache_misses)
        })
    }

    /// Regression: a merge drops the federation pools, but the dashboard's
    /// plan-cache totals must accumulate across the rebuild. They once
    /// lived in per-worker caches and had to be retired into the registry;
    /// they now ride back with each round, so nothing a pool drop takes
    /// with it can zero them.
    #[test]
    fn plan_cache_counters_survive_pool_rebuilds() {
        let p = platform();
        // Reads `turbines`, so the insert below evicts its BGP-cache entry
        // and the post-write run re-executes on the rebuilt pool.
        let q = "SELECT ?t WHERE { ?t a sie:Turbine }";
        p.query_static_distributed(q, 2).unwrap();
        let before = plan_cache_totals(&p.dashboard());
        assert!(before.0 > 0, "typed fragments execute without a parse");
        assert_eq!(before.1, 0, "the pipeline never ships SQL text");

        p.insert_static("turbines", vec![new_turbine_row(&p, 88_001)])
            .unwrap();
        p.merge_now().unwrap();
        assert_eq!(plan_cache_totals(&p.dashboard()), before);

        // New traffic lands on top of the earlier totals.
        p.query_static_distributed(q, 2).unwrap();
        let later = plan_cache_totals(&p.dashboard());
        assert!(later.0 > before.0);
        assert_eq!(later.1, 0);
    }

    /// Regression (pool-*replacement* counter loss): a straggler holding a
    /// pre-write snapshot can win the pool slot back from a fresher pool
    /// via `federation_for`'s double-checked insert. The replaced pool
    /// takes no dashboard history with it.
    #[test]
    fn plan_cache_counters_survive_pool_replacement() {
        let p = platform();
        let q = "SELECT ?t WHERE { ?t a sie:Turbine }";
        p.query_static_distributed(q, 2).unwrap();
        let old_snap = p.snapshot();
        // A merge swaps the base catalog and drops the pools.
        p.insert_static("turbines", vec![new_turbine_row(&p, 97_001)])
            .unwrap();
        p.merge_now().unwrap();
        // Fresh pool over the new catalog.
        p.query_static_distributed(q, 2).unwrap();
        let before = plan_cache_totals(&p.dashboard());
        assert!(before.0 > 0);

        // The straggler rebuilds over the superseded catalog and replaces
        // the fresh pool in the slot.
        let _ = p.federation_for(2, &old_snap);
        assert_eq!(plan_cache_totals(&p.dashboard()), before);
    }

    /// An aggregate HAVING over the Siemens stream: a pure `MAX` threshold
    /// tree over the stream's value property — pane-combinable by
    /// construction, and exact across backends (`MAX` is order-independent,
    /// unlike a float `SUM`). The planted ramps peak at 87.5 and the hot
    /// bursts at 96+, so `>= 85` fires on the anomalies only.
    const AGG_QUERY: &str = r#"
PREFIX sie: <http://siemens.example/ontology#>
CREATE STREAM S_agg AS
CONSTRUCT GRAPH NOW { ?c2 a sie:MonInc }
FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
USING PULSE WITH START = "00:10:00CET", FREQUENCY = "1S"
WHERE {?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2.}
SEQUENCE BY StdSeq AS seq
HAVING MAX(?c2, sie:hasValue) >= 85
"#;

    /// An `S_Msmt` row (`ts TIMESTAMP, sensor_id INT, value FLOAT,
    /// event TEXT`).
    fn msmt_row(ts: i64, sensor_id: i64, value: f64) -> Vec<Value> {
        vec![
            Value::Timestamp(ts),
            Value::Int(sensor_id),
            Value::Float(value),
            Value::Null,
        ]
    }

    /// A sensor id that actually streams (first row of `S_Msmt`).
    fn streamed_sensor(p: &OptiquePlatform) -> i64 {
        p.db().table("S_Msmt").unwrap().rows[0][1]
            .as_i64()
            .expect("sensor_id is an int")
    }

    /// Appending stream rows drives registered queries without any
    /// external `tick_all` pulse: each newly closed window ticks at its
    /// close instant, counters accumulate, and an append that closes no
    /// window drives nothing.
    #[test]
    fn append_driven_ticks_fire_without_external_pulse() {
        let p = platform();
        p.register_starql(AGG_QUERY).unwrap();
        let sensor = streamed_sensor(&p);

        // Within the last already-closed window: no new window, no tick.
        let out = p
            .append_stream("S_Msmt", vec![msmt_row(659_500, sensor, 50.0)])
            .unwrap();
        assert!(out.is_empty(), "no window newly closed: {out:?}");
        assert_eq!(p.dashboard().panels[0].ticks, 0);

        // Ten seconds past the stream end, hot values: ten windows close
        // and the threshold fires.
        let rows: Vec<Vec<Value>> = (1..=10)
            .map(|k| msmt_row(659_000 + k * 1_000, sensor, 99.0))
            .collect();
        let out = p.append_stream("S_Msmt", rows).unwrap();
        assert_eq!(out.len(), 10, "one driven tick per newly closed window");
        assert!(
            out.iter().any(|(_, t)| t.satisfied > 0),
            "hot appended values must fire: {out:?}"
        );
        let dash = p.dashboard();
        assert_eq!(dash.panels[0].ticks, 10);
        assert!(dash.panels[0].alarms > 0);

        // Re-appending inside the now-closed span drives nothing again.
        let out = p
            .append_stream("S_Msmt", vec![msmt_row(669_000, sensor, 99.0)])
            .unwrap();
        assert!(out.is_empty());
    }

    /// Append-driven ticking raises the same output stream as external
    /// pulses at the same instants — over base rows *and* unmerged
    /// novelty-overlay rows (the overlay write path is the default).
    #[test]
    fn append_driven_ticks_match_external_pulses() {
        let driven = platform();
        let pulsed = platform();
        driven.register_starql(AGG_QUERY).unwrap();
        pulsed.register_starql(AGG_QUERY).unwrap();
        let sensor = streamed_sensor(&driven);
        let rows: Vec<Vec<Value>> = (1..=5)
            .map(|k| msmt_row(659_000 + k * 1_000, sensor, 99.0))
            .collect();

        let driven_out = driven.append_stream("S_Msmt", rows.clone()).unwrap();
        pulsed.insert_static("S_Msmt", rows).unwrap();
        let mut pulsed_out = Vec::new();
        for tick in (660_000..=664_000).step_by(1_000) {
            pulsed_out.extend(pulsed.tick_all(tick).unwrap());
        }

        assert_eq!(driven_out.len(), pulsed_out.len());
        for ((_, d), (_, e)) in driven_out.iter().zip(&pulsed_out) {
            assert_eq!(d.tick_ms, e.tick_ms);
            let mut dt = d.triples.clone();
            let mut et = e.triples.clone();
            dt.sort_by_key(|t| format!("{t:?}"));
            et.sort_by_key(|t| format!("{t:?}"));
            assert_eq!(dt, et, "tick {}", d.tick_ms);
        }
    }

    /// The window cache holds what the registered ranges can still ask for,
    /// however long the stream runs: after 500 appends under three ranges
    /// it is as large as after 50 — the windows of the newest round, and
    /// one state per timestamp the longest range reaches back over.
    #[test]
    fn window_cache_is_bounded_by_the_ranges_not_the_appends() {
        let p = platform();
        let ranges_s = [2, 5, 20];
        for range_s in ranges_s {
            let text = AGG_QUERY
                .replace("PT10S", &format!("PT{range_s}S"))
                .replace(
                    "MAX(?c2, sie:hasValue) >= 85",
                    "EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v } AND ?v >= 85",
                );
            p.register_starql(&text).unwrap();
        }
        let sensor = streamed_sensor(&p);
        let mut sizes = Vec::new();
        for k in 1..=500 {
            let value = if k % 7 == 0 { 90.0 } else { 50.0 };
            let out = p
                .append_stream("S_Msmt", vec![msmt_row(659_000 + k * 1_000, sensor, value)])
                .unwrap();
            assert_eq!(out.len(), ranges_s.len(), "one tick per range");
            if k == 50 || k == 500 {
                sizes.push((p.wcache().len(), p.wcache().slices()));
            }
        }
        // One window per range closes each second; the 20 s range reaches
        // back over 21 timestamps, the newest included.
        assert_eq!(sizes, [(3, 21), (3, 21)]);
        let snap = p.metrics_snapshot();
        assert_eq!(snap.gauge("wcache.windows"), Some(3));
        assert_eq!(snap.gauge("wcache.slices"), Some(21));
        // Each appended timestamp's state was built once, by one of its
        // round's three ticks, and taken from the cache ever after (the
        // first round also built the 19 states the recorded stream had left
        // in range).
        assert_eq!(snap.counter(STATES_BUILT), Some(500 + 19));
        assert!(snap.counter(STATES_SHARED).unwrap() > 10 * 500);
        assert!(p.dashboard().panels.iter().all(|panel| panel.alarms > 0));
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
                    .map(|dt| msmt_row(655_000 + dt * 500, 1, 50.0))
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

    /// A stream that starts empty has no clock until its first timestamped
    /// row, and drives nothing until then.
    #[test]
    fn empty_stream_has_no_clock_until_its_first_row() {
        let mut deployment = SiemensDeployment::small();
        let mut empty = (**deployment.db.table("S_Msmt").unwrap()).clone();
        empty.rows.clear();
        deployment.db.put_table("S_Msmt", empty);
        let p = OptiquePlatform::from_siemens(deployment);
        p.register_starql(AGG_QUERY).unwrap();
        assert_eq!(p.snapshot().clocks.get("S_Msmt"), None);
        let out = p
            .append_stream("S_Msmt", vec![msmt_row(601_500, 1, 99.0)])
            .unwrap();
        assert_eq!(p.snapshot().clocks.get("S_Msmt"), Some(&601_500));
        assert_eq!(out.len(), 2, "the windows closing at 600 s and 601 s");
    }

    /// A pane-combinable distributed query answers its ticks from
    /// shard-local pane stores: probe counters surface on the panel and
    /// the registry, and overlapping windows re-use warm panes.
    #[test]
    fn pane_counters_accumulate_on_distributed_agg_query() {
        let p = platform();
        p.register_starql_distributed(AGG_QUERY, 4).unwrap();
        for tick in (600_000..=620_000).step_by(1_000) {
            p.tick_all(tick).unwrap();
        }
        let dash = p.dashboard();
        let panel = &dash.panels[0];
        assert!(
            panel.pane_hits + panel.pane_misses > 0,
            "pane path never probed: {panel:?}"
        );
        assert!(
            panel.pane_hits > 0,
            "overlapping windows must re-use warm panes: {panel:?}"
        );
        assert_eq!(
            p.registry.counter(PANE_HITS).get() + p.registry.counter(PANE_MISSES).get(),
            panel.pane_hits + panel.pane_misses,
            "registry mirrors the panel"
        );
        assert!(dash.pane_hit_rate().is_some());
        assert!(dash.render().contains("phit"));
    }

    /// The pane-combined distributed backend, the rescan fallback
    /// (panes disabled), and single-node evaluation raise identical
    /// output streams tick for tick.
    #[test]
    fn distributed_agg_ticks_match_single_node_with_and_without_panes() {
        let single = platform();
        let panes = platform();
        let rescan = platform();
        single.register_starql(AGG_QUERY).unwrap();
        panes.register_starql_distributed(AGG_QUERY, 4).unwrap();
        rescan.register_starql_distributed(AGG_QUERY, 4).unwrap();
        rescan.set_pane_aggregation(false);
        let mut alarms = 0usize;
        for tick in (600_000..=660_000).step_by(1_000) {
            let s = single.tick_all(tick).unwrap();
            let p = panes.tick_all(tick).unwrap();
            let r = rescan.tick_all(tick).unwrap();
            alarms += s[0].1.satisfied;
            let sort = |t: &TickOutput| {
                let mut v = t.triples.clone();
                v.sort_by_key(|t| format!("{t:?}"));
                v
            };
            assert_eq!(sort(&s[0].1), sort(&p[0].1), "panes, tick {tick}");
            assert_eq!(sort(&s[0].1), sort(&r[0].1), "rescan, tick {tick}");
        }
        assert!(alarms >= 1, "planted anomalies must fire");
        // The pane arm genuinely used panes; the rescan arm genuinely
        // did not.
        assert!(panes.dashboard().panels[0].pane_hits > 0);
        let rp = &rescan.dashboard().panels[0];
        assert_eq!(rp.pane_hits + rp.pane_misses, 0);
        assert!(rp.window_fragments > 0, "rescan fell back to shipping");
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
    /// section no federation pool sharded over the superseded catalog may
    /// remain visible to new lookups. Pre-fix, the pools were cleared after
    /// the lock dropped, so a distributed query at the seam grabbed a pool
    /// built over the old shards and missed the insert.
    #[test]
    fn federation_pools_dropped_inside_insert_critical_section() {
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

    #[test]
    fn oversized_worker_count_is_rejected_by_register_starql_distributed() {
        let p = platform();
        for workers in [0, MAX_WORKERS + 1, usize::MAX] {
            assert!(p
                .register_starql_distributed(optique_starql::FIGURE1, workers)
                .is_err());
        }
        assert!(p.federations.lock().is_empty());
        assert_eq!(p.registered(), 0);
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
    fn dashboard_reflects_activity() {
        let p = platform();
        p.register_starql(optique_starql::FIGURE1).unwrap();
        p.tick_all(609_000).unwrap();
        let dash = p.dashboard();
        assert_eq!(dash.panels.len(), 1);
        assert_eq!(dash.panels[0].ticks, 1);
        assert!(dash.panels[0].bindings > 0);
        assert!(dash.render().contains("S_out"));
    }

    #[test]
    fn fleet_report_shows_conciseness() {
        let p = platform();
        let id = p.register_starql(optique_starql::FIGURE1).unwrap();
        let report = p.fleet_report(id, optique_starql::FIGURE1).unwrap();
        assert!(report.fleet_queries >= 2);
        assert!(report.fleet_chars > 0);
    }

    #[test]
    fn bad_starql_rejected() {
        let p = platform();
        assert!(p.register_starql("CREATE NONSENSE").is_err());
        assert_eq!(p.registered(), 0);
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

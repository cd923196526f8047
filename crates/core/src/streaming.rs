//! The streaming half of the platform: the continuous-query lifecycle and
//! the one driven round behind [`tick_all`](OptiquePlatform::tick_all) and
//! [`append_stream`](OptiquePlatform::append_stream).
//!
//! # The round's contract
//!
//! A round first collects every due `(query, window)` pair. The
//! distributed pane ticks among them — pane-combinable queries with a pool
//! — are grouped by pool and by the window their probe reads (stream,
//! columns, pane grid, bounds): each pool gets **one** gateway round
//! carrying each distinct window once, sorted by close so a worker's cached
//! window of one range only ever slides forward, and each window's
//! partials are merged once. Only then do the ticks' tails run — deciding
//! HAVING, CONSTRUCT, relation-to-stream — in registration order, oldest
//! window first, as every other tick does. A window's first reader is
//! charged what the workers shipped and probed for it; a later reader
//! reports none of it and counts one shared probe
//! ([`TickOutput::panes_shared`]). The pool's first tick that answers is
//! charged the round's own cost — its fragments, pruned shards and µs.
//!
//! A tick that errs is charged to **its** query
//! ([`QueryPanel::tick_errors`], registry counter `tick.errors`) and ends
//! that query's windows for this round; every other query still ticks, and
//! the window cache is trimmed whether or not anything failed. A window a
//! worker fails — its integer SUM leaves `i64`, say — fails exactly the
//! ticks that read it: the pool's one round answers per window, so every
//! other window of it still answers, and no worker's panes are reset. A
//! pane round that fails as a whole fails exactly the ticks that read one
//! of its windows; ticks that read nothing from it — single-node,
//! sequence-path, another pool's — tick as if it had not run. An append marks each window it
//! drove as driven the moment its tick succeeds, so a retry after a
//! failure never re-fires a window that already answered. Only then does
//! the call return the first error, naming its query.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use optique_rdf::Term;
use optique_relational::{Database, PaneProbe, Value};
use optique_rewrite::{Atom, RewriteSettings};
use optique_siemens::catalog::TaskQuery;
use optique_siemens::DiagnosticTask;
use optique_sparql::{
    GroupPattern, PatternElement, Projection, Query, SelectItem, SelectQuery, SolutionModifier,
};
use optique_starql::engine::{combine_panes, PaneAnswers, PanePartials, PaneRoundCost};
use optique_starql::{
    parse_starql, translate, ContinuousQuery, TickOutput, TranslatedQuery, TranslationContext,
};
use optique_stream::WCache;
use optique_telemetry::SpanRecord;

use crate::dashboard::{QueryPanel, PANES_LIVE, PANE_PROBES, PANE_ROUNDS};
use crate::federation::Federation;
use crate::platform::{check_workers, OptiquePlatform, PlatformSnapshot};

/// A registered STARQL query: the compiled query, where its ticks run, and
/// its monitoring panel.
pub(crate) struct RegisteredStarQl {
    query: ContinuousQuery,
    /// Worker count whose federation pool evaluates this query's ticks
    /// (`None` = single-node, the reference path).
    workers: Option<usize>,
    /// Everything the dashboard shows for the query but the latency
    /// percentiles; every tick's counters land here through
    /// [`QueryPanel::absorb`].
    panel: QueryPanel,
    /// Highest window id already driven by
    /// [`append_stream`](OptiquePlatform::append_stream) — initialized to
    /// the last window the stream's rows had closed at registration, so an
    /// append only ticks windows it *newly* closes.
    last_auto_window: Option<u64>,
    /// Makes every tick of the query fail (see `set_tick_fault`).
    #[cfg(test)]
    tick_fault: bool,
}

impl RegisteredStarQl {
    fn stream(&self) -> &str {
        &self.query.translated.query.stream.name
    }

    /// The `(stream table, stream key)` pair federation pools must
    /// hash-partition for this query's windows to scatter.
    fn partition_pair(&self) -> (String, String) {
        let key = self.query.stream_to_rdf.subject.column();
        (self.stream().to_string(), key.to_string())
    }

    /// The ticks a round owes the query, as `(window to mark as driven,
    /// tick instant)`: a pulse (`only` = `None`) one, at `clock`; an append
    /// one per window `clock` newly closed, at the window's close instant,
    /// oldest first.
    fn due(&self, only: Option<&str>, clock: i64) -> DueTicks {
        let (window, start) = (self.query.window(), self.query.window_start());
        match only {
            None => vec![(None, clock)],
            Some(_) => match window.last_closed(start, clock) {
                Some(newest) => (self.last_auto_window.map_or(0, |w| w + 1)..=newest)
                    .map(|w| (Some(w), window.bounds(start, w).1))
                    .collect(),
                None => Vec::new(),
            },
        }
    }
}

/// The ticks a round owes a query: `(window to mark as driven, tick
/// instant)`, oldest first.
type DueTicks = Vec<(Option<u64>, i64)>;

/// One pool's pane round: each probe's combined partials with whether a
/// tick has read them yet, and the round's own cost until a tick that
/// answers is charged it.
struct PoolRound {
    probes: Vec<(Result<PanePartials, String>, bool)>,
    cost: Option<PaneRoundCost>,
}

/// The pane half of a driven round, shipped before any tick's tail runs:
/// per pool, one batch of distinct probes and their combined partials.
#[derive(Default)]
struct PaneRound {
    /// The probe each pane tick reads, by `(query, tick instant)`: its
    /// pool and its place in the pool's batch.
    reads: HashMap<(u64, i64), (usize, usize)>,
    /// Per pool, its round.
    pools: HashMap<usize, PoolRound>,
    /// The round's `round` span, for the first pane tick that answers.
    span: Option<SpanRecord>,
}

impl PaneRound {
    /// The tail of the pane tick `read` names, over its probe's partials:
    /// the probe's first reader is charged what the workers spent on it, a
    /// later reader shares the probe; the pool's first tick that answers
    /// is charged the round's own cost.
    fn tick(
        &mut self,
        query: &ContinuousQuery,
        (pool, probe): (usize, usize),
        tick_ms: i64,
    ) -> Result<TickOutput, String> {
        let pool = self.pools.get_mut(&pool).expect("a planned pool");
        let (answer, read) = &mut pool.probes[probe];
        let partials = answer.as_ref().map_err(Clone::clone)?;
        let mut output = query.pane_tick(tick_ms, partials, !*read, pool.cost)?;
        *read = true;
        pool.cost = None;
        output.spans.extend(self.span.take());
        Ok(output)
    }
}

/// What a pane probe reads — everything but whether it needs extrema:
/// probes that agree on it are one window of one pane grid.
type ProbedWindow<'p> = (&'p str, &'p str, &'p str, &'p str, i64, i64, i64, i64);

fn probed_window(p: &PaneProbe) -> ProbedWindow<'_> {
    (
        &p.stream, &p.ts_col, &p.key_col, &p.val_col, p.width_ms, p.start_ms, p.open_ms, p.close_ms,
    )
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

impl OptiquePlatform {
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
            TaskQuery::StarQl(text) => {
                self.register_named(Some(format!("{}:{}", task.id, task.name)), text, None)
            }
            TaskQuery::SqlPlus(_) => Err(format!(
                "task {} is plain SQL; run it on the relational engine directly",
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
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Windows the stream's existing rows have already closed never
        // re-fire on the first append: the append-driven clock starts at
        // the registration-time high-water mark.
        let last_auto_window = snap
            .clocks
            .get(&query.translated.query.stream.name)
            .and_then(|&ts| query.window().last_closed(query.window_start(), ts));
        let reg = RegisteredStarQl {
            panel: QueryPanel {
                id,
                name: name.unwrap_or_else(|| parsed.output_stream.clone()),
                bindings: query.binding_count(),
                fleet_size: query.translated.fleet.len(),
                workers: workers.unwrap_or(1),
                ..QueryPanel::default()
            },
            query,
            workers,
            last_auto_window,
            #[cfg(test)]
            tick_fault: false,
        };
        let pair = reg.partition_pair();
        self.queries.lock().insert(id, reg);
        // A pool that does not hash-partition this query's stream on its
        // key would run its windows on one replica: such pools go, and the
        // next tick re-shards. Pools that already partition it stay — the
        // 2nd…nth task on a stream re-shards (and re-folds) nothing.
        if workers.is_some() {
            self.federations
                .lock()
                .retain(|_, pool| pool.partition().contains(&pair));
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
        translated: &TranslatedQuery,
        workers: Option<usize>,
        snap: &PlatformSnapshot,
    ) -> Result<Vec<HashMap<String, Term>>, String> {
        let fallback = [translated.query.where_bgp.clone()];
        let disjuncts: &[Vec<Atom>] = if translated.query.where_disjuncts.is_empty() {
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

    /// The `(stream table, stream key)` pairs of every registered
    /// continuous query — what federation pools hash-partition the stream
    /// side on.
    pub(crate) fn stream_partition_pairs(&self) -> Vec<(String, String)> {
        let queries = self.queries.lock();
        let mut pairs: Vec<(String, String)> = Vec::new();
        for reg in queries.values() {
            if !pairs.iter().any(|(s, _)| s == reg.stream()) {
                pairs.push(reg.partition_pair());
            }
        }
        pairs
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
    /// pool; the rest slice locally. A failing query fails the call, not
    /// the round (see the [module docs](self)).
    pub fn tick_all(&self, tick_ms: i64) -> Result<Vec<(u64, TickOutput)>, String> {
        // One snapshot for the whole tick round: the pools and the db
        // every query slices are the same world, even if a write lands
        // mid-round (its rows show up next tick).
        self.drive_round(&self.snapshot(), None, tick_ms)
    }

    /// Appends rows to a stream table **and drives the continuous queries
    /// over it**: after the write publishes, every registered query on
    /// `table` ticks once per window the appended rows newly closed (each
    /// tick at that window's close instant), exactly as if
    /// [`tick_all`](Self::tick_all) had been pulsed at those times.
    /// Returns the driven tick outputs as `(query id, output)` pairs in
    /// registration order, oldest window first — empty when the append
    /// left every window still open. A failing query fails the call, not
    /// the round (see the [module docs](self)); the rows stay appended.
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
        match snap.clocks.get(table) {
            Some(&clock) => self.drive_round(&snap, Some(table), clock),
            None => Ok(Vec::new()),
        }
    }

    /// The one driven round. A pulse (`only` = `None`) ticks every query
    /// once, at `clock`; an append ticks the queries on the stream it
    /// advanced (`only`) once per window `clock` newly closed, at the
    /// window's close instant. The pane ticks' probes ship first, one round
    /// per pool. The contract is the [module docs](self)'.
    fn drive_round(
        &self,
        snap: &PlatformSnapshot,
        only: Option<&str>,
        clock: i64,
    ) -> Result<Vec<(u64, TickOutput)>, String> {
        let on_round = |reg: &RegisteredStarQl| only.is_none_or(|stream| stream == reg.stream());
        // Pools build outside the queries lock (pool construction calls
        // back into `stream_partition_pairs`, which takes it).
        let worker_counts: BTreeSet<usize> = {
            let queries = self.queries.lock();
            let on_round = queries.values().filter(|reg| on_round(reg));
            on_round.filter_map(|reg| reg.workers).collect()
        };
        let pools: HashMap<usize, Arc<Federation>> = worker_counts
            .into_iter()
            .map(|w| (w, self.federation_for(w, snap)))
            .collect();

        // Ticks read the *view* catalog: unmerged novelty-overlay rows are
        // part of every window, single-node and distributed alike (the
        // fragments pin the overlay epoch).
        let db = &snap.view;
        let mut out = Vec::new();
        let mut first_error: Option<String> = None;
        let mut queries = self.queries.lock();
        let due: Vec<(u64, DueTicks)> = (queries.iter())
            .filter(|(_, reg)| on_round(reg))
            .map(|(id, reg)| (*id, reg.due(only, clock)))
            .collect();
        let mut panes = self.pane_round(&queries, &due, &pools, db);
        for (id, ticks) in due {
            let reg = queries.get_mut(&id).expect("held under the queries lock");
            // A query whose worker count registered *between* the pool
            // build above and this lock has no pool yet: it ticks
            // single-node this once (identical output stream — the oracle's
            // contract) and gets its pool next round. Building here would
            // deadlock on the queries lock (pool construction reads the
            // stream pairs).
            let executor = reg.workers.and_then(|w| pools.get(&w));
            for (driven, tick_ms) in ticks {
                let result = match panes.reads.get(&(id, tick_ms)) {
                    Some(&read) => self.run_tick(reg, |query| panes.tick(query, read, tick_ms)),
                    None => self.run_tick(reg, |query| {
                        let executor = executor.map(|f| f.as_ref() as _);
                        query.tick_via(db, &self.wcache, tick_ms, executor)
                    }),
                };
                match result {
                    Ok(output) => {
                        reg.last_auto_window = driven.or(reg.last_auto_window);
                        out.push((id, output));
                    }
                    Err(e) => {
                        reg.panel.tick_errors += 1;
                        self.registry.counter("tick.errors").inc();
                        first_error.get_or_insert(format!("query {id} ({}): {e}", reg.panel.name));
                        break;
                    }
                }
            }
        }
        self.evict_windows(&queries, only, clock);
        first_error.map_or(Ok(out), Err)
    }

    /// Plans and ships the pane half of a round: every due tick that reads
    /// panes through a pool has its probe keyed by pool and window; each
    /// pool's distinct windows — the `needs_extrema` of a window's readers
    /// OR-ed — go out as one round, sorted by close.
    fn pane_round(
        &self,
        queries: &BTreeMap<u64, RegisteredStarQl>,
        due: &[(u64, DueTicks)],
        pools: &HashMap<usize, Arc<Federation>>,
        db: &Database,
    ) -> PaneRound {
        let started = Instant::now();
        let mut planned: Vec<((u64, i64), usize, PaneProbe)> = Vec::new();
        for (id, ticks) in due {
            let reg = &queries[id];
            let Some(pool) = reg.workers.filter(|w| pools.contains_key(w)) else {
                continue;
            };
            for &(_, tick_ms) in ticks {
                if let Some(probe) = reg.query.pane_probe(tick_ms) {
                    planned.push(((*id, tick_ms), pool, probe));
                }
            }
        }
        let mut round = PaneRound::default();
        if planned.is_empty() {
            return round;
        }
        // Each pool's distinct windows in close order (the tails' order is
        // registration order whatever the planning order).
        planned.sort_by_key(|(_, pool, probe)| (*pool, probe.close_ms));
        let mut batches: BTreeMap<usize, Vec<PaneProbe>> = BTreeMap::new();
        let mut slot: HashMap<(usize, ProbedWindow<'_>), usize> = HashMap::new();
        for (tick, pool, probe) in &planned {
            let batch = batches.entry(*pool).or_default();
            let at = *slot
                .entry((*pool, probed_window(probe)))
                .or_insert_with(|| {
                    batch.push(PaneProbe {
                        needs_extrema: false,
                        ..probe.clone()
                    });
                    batch.len() - 1
                });
            batch[at].needs_extrema |= probe.needs_extrema;
            round.reads.insert(*tick, (*pool, at));
        }
        for (pool, batch) in &batches {
            let answers = self.ship_panes(batch, db, &pools[pool]);
            let probes = answers.probes.into_iter().map(|answer| (answer, false));
            let pool_round = PoolRound {
                probes: probes.collect(),
                cost: Some(answers.cost),
            };
            round.pools.insert(*pool, pool_round);
        }
        let probes: usize = batches.values().map(Vec::len).sum();
        self.registry.counter(PANE_ROUNDS).add(batches.len() as u64);
        self.registry.counter(PANE_PROBES).add(probes as u64);
        let live: usize = batches.keys().map(|pool| pools[pool].live_panes()).sum();
        self.registry.gauge(PANES_LIVE).set(live as i64);
        round.span = Some(
            SpanRecord::new("round", 0, started.elapsed().as_micros() as u64)
                .under(0)
                .attr("pools", batches.len())
                .attr("probes", probes)
                .attr("probes_shared", planned.len() - probes),
        );
        round
    }

    /// One pool's pane round.
    fn ship_panes(&self, probes: &[PaneProbe], db: &Database, pool: &Federation) -> PaneAnswers {
        #[cfg(test)]
        if self.round_fault.load(Ordering::Relaxed) {
            return PaneAnswers {
                probes: (probes.iter())
                    .map(|_| Err("injected round fault".into()))
                    .collect(),
                ..PaneAnswers::default()
            };
        }
        combine_panes(probes, db.novelty_epoch(), pool)
    }

    /// One timed tick of one registered query, run by `tick`; the counters
    /// land on the query's panel and in the registry through
    /// [`QueryPanel::absorb`]. The tick's time is its `tick` span's, which
    /// a pane tick charged with its round begins with the round.
    fn run_tick(
        &self,
        reg: &mut RegisteredStarQl,
        tick: impl FnOnce(&ContinuousQuery) -> Result<TickOutput, String>,
    ) -> Result<TickOutput, String> {
        #[cfg(test)]
        if reg.tick_fault {
            return Err("injected tick fault".into());
        }
        let tick_started = Instant::now();
        let result = tick(&reg.query)?;
        // A tick that found no closed window has no span.
        let tick_us = (result.spans.first()).map_or_else(
            || tick_started.elapsed().as_micros() as u64,
            |tick| tick.duration_us,
        );
        self.registry
            .histogram(&format!("tick.q{}.us", reg.panel.id))
            .record(tick_us);
        reg.panel.absorb(&result, &self.registry);
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
            if only.is_none_or(|only| only == reg.stream()) {
                let range_ms = longest.entry(reg.stream()).or_default();
                *range_ms = (*range_ms).max(reg.query.window().range_ms);
            }
        }
        for (stream, range_ms) in longest {
            self.wcache.evict_below(stream, clock, clock - range_ms);
        }
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
            name: reg.panel.name.clone(),
            starql_chars: starql_text.len(),
            fleet_queries: fleet.len(),
            fleet_chars: fleet.iter().map(String::len).sum(),
        })
    }

    /// The continuous-query half of [`dashboard`](Self::dashboard): every
    /// registered query's panel, in registration order, with the latency
    /// percentiles of its tick histogram filled in.
    pub(crate) fn query_panels(&self) -> Vec<QueryPanel> {
        let queries = self.queries.lock();
        queries
            .values()
            .map(|reg| {
                // Read, never create: a panel for a query that has not
                // ticked yet must not leave a histogram behind.
                let ticks = self
                    .registry
                    .find_histogram(&format!("tick.q{}.us", reg.panel.id))
                    .map(|h| h.summary())
                    .unwrap_or_default();
                QueryPanel {
                    tick_p50_us: ticks.p50,
                    tick_p95_us: ticks.p95,
                    tick_p99_us: ticks.p99,
                    ..reg.panel.clone()
                }
            })
            .collect()
    }
}

/// The integration suites' shared helpers: the program generators.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dashboard::{PANE_HITS, PANE_MISSES, STATES_BUILT, STATES_SHARED};
    use crate::MAX_WORKERS;
    use optique_siemens::SiemensDeployment;

    fn platform() -> OptiquePlatform {
        OptiquePlatform::from_siemens(SiemensDeployment::small())
    }

    impl OptiquePlatform {
        /// Makes every tick of query `id` fail (or stop failing) — the seam the
        /// round-contract tests hang on, now that the two user-reachable ways
        /// to register a query that can only fail are registration errors.
        fn set_tick_fault(&self, id: u64, failing: bool) {
            self.queries
                .lock()
                .get_mut(&id)
                .expect("registered")
                .tick_fault = failing;
        }
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

    /// Every STARQL text the repository ships registers on the Siemens
    /// deployment: the 18 catalog tasks (which the examples register too),
    /// `FIGURE1`, and the grids of the `tests/common` program generators.
    /// A task whose WHERE class no sensor has — T04's vibration sensors,
    /// none at this scale — registers with no binding and ticks empty.
    #[test]
    fn catalog_tasks_register() {
        use common::streaming::{agg_program, program};
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

        let panels = p.dashboard().panels;
        let vibration = panels.iter().find(|panel| panel.name.starts_with("T04:"));
        assert_eq!(vibration.map(|panel| panel.bindings), Some(0));
        let vibration = vibration.unwrap().id;
        for (id, tick) in p.tick_all(660_000).unwrap() {
            if id == vibration {
                assert_eq!((tick.bindings_checked, tick.satisfied), (0, 0));
                assert!(tick.triples.is_empty());
            }
        }

        let mut texts = vec![optique_starql::FIGURE1.to_string()];
        for shape in 0..7 {
            for (range_s, slide_s, pulse, knob) in
                [(10, 1, true, 0), (5, 2, false, 7), (2, 1, true, 29)]
            {
                texts.push(program(shape, range_s, slide_s, pulse, knob));
            }
            for mode in ["", "RSTREAM", "ISTREAM", "DSTREAM"] {
                for (range_s, slide_s, pulse, knob) in [(10, 1, true, 3), (5, 2, false, 19)] {
                    texts.push(agg_program(shape, mode, range_s, slide_s, pulse, knob));
                }
            }
        }
        let p = platform();
        for text in &texts {
            p.register_starql(text)
                .unwrap_or_else(|e| panic!("{e}\n{text}"));
        }
        assert_eq!(p.registered(), texts.len());
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

    /// Per tick, the alarms of `?x >= constant` over 1 s windows that each
    /// hold one appended reading of one sensor: 100, 9, 100, 9, 100, 9.
    fn threshold_alarms(constant: &str) -> Vec<(i64, Vec<String>)> {
        let text = AGG_QUERY.replace("PT10S", "PT1S").replace(
            "MAX(?c2, sie:hasValue) >= 85",
            &format!("EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:hasValue ?x }} AND ?x >= {constant}"),
        );
        let p = platform();
        p.register_starql(&text).unwrap();
        let sensor = streamed_sensor(&p);
        let rows = (1..=6)
            .map(|k| msmt_row(659_000 + k * 1_000, sensor, [9.0, 100.0][k as usize % 2]))
            .collect();
        let out = p.append_stream("S_Msmt", rows).unwrap();
        out.into_iter()
            .map(|(_, tick)| {
                let mut triples: Vec<String> =
                    tick.triples.iter().map(|t| format!("{t:?}")).collect();
                triples.sort();
                (tick.tick_ms, triples)
            })
            .collect()
    }

    /// A HAVING constant means what it means in SPARQL: `"70"^^xsd:integer`
    /// is the number 70, so its threshold fires on exactly the ticks the
    /// plain `70`'s does.
    #[test]
    fn typed_threshold_streams_like_the_plain_one() {
        let run = threshold_alarms;
        let plain = run("70");
        assert!(
            plain.iter().any(|(_, triples)| !triples.is_empty()),
            "the threshold fires: {plain:?}"
        );
        assert_eq!(run(r#""70"^^xsd:integer"#), plain);
    }

    /// Regression: a number never orders against a string. The readings 9
    /// and 100 ordered the other way as terms, so `?x >= "70"` fired on 9
    /// and not on 100; like a SPARQL type error, it now fires on neither.
    #[test]
    fn a_number_never_orders_against_a_string() {
        let ticks = threshold_alarms(r#""70""#);
        assert_eq!(ticks.len(), 6, "every window ticks: {ticks:?}");
        assert!(
            ticks.iter().all(|(_, triples)| triples.is_empty()),
            "{ticks:?}"
        );
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
        // The two entry points share one loop, so they share one accounting.
        assert_eq!(timeless_panels(&driven), timeless_panels(&pulsed));
    }

    /// Window bounds where ticks read them. With a 3 s slide over a 1 s
    /// range the windows are (599 s, 600 s], (602 s, 603 s], (605 s, 606 s],
    /// … The stream holds rows exactly at a window's open (602 s, 605 s),
    /// exactly at its close (600 s, 603 s, 606 s), inside one (602.5 s) and
    /// in the gap between two (604 s). A tick sees exactly `(open, close]`,
    /// single-node (the filtered stream table) and through a 2-worker pool
    /// (a scattered `WindowSlice` fragment).
    #[test]
    fn ticks_see_exactly_open_close_and_nothing_in_the_gaps() {
        const GAPPED: &str = r#"
PREFIX sie: <http://siemens.example/ontology#>
CREATE STREAM S_gap AS
CONSTRUCT GRAPH NOW { ?c2 a sie:MonInc }
FROM STREAM S_Msmt [NOW-"PT1S"^^xsd:duration, NOW]->"PT3S"^^xsd:duration
USING PULSE WITH START = "00:10:00CET", FREQUENCY = "3S"
WHERE {?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2.}
SEQUENCE BY StdSeq AS seq
HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?x }
"#;
        let times = [
            600_000, 602_000, 602_500, 603_000, 604_000, 605_000, 606_000,
        ];
        let gapped = || {
            let mut d = SiemensDeployment::small();
            let sensors = d.sensor_ids[..4].to_vec();
            let rows = (times.iter())
                .flat_map(|&ts| sensors.iter().map(move |&s| msmt_row(ts, s, 50.0)))
                .collect();
            let schema = d.db.table("S_Msmt").unwrap().schema.clone();
            d.db.put_table(
                "S_Msmt",
                optique_relational::Table::new(schema, rows).unwrap(),
            );
            OptiquePlatform::from_siemens(d)
        };
        let single = gapped();
        let distributed = gapped();
        single.register_starql(GAPPED).unwrap();
        distributed.register_starql_distributed(GAPPED, 2).unwrap();

        // Instants per window: 600 s; 602.5 s and 603 s; 606 s; none.
        for (tick, instants) in [(600_000, 1), (603_000, 2), (606_000, 1), (609_000, 0)] {
            let (_, s) = single.tick_all(tick).unwrap().remove(0);
            let (_, d) = distributed.tick_all(tick).unwrap().remove(0);
            assert_eq!(s.tuples_in_window, 4 * instants, "tick {tick}");
            assert_eq!(s.states, instants, "tick {tick}");
            assert_eq!(s.satisfied, if instants > 0 { 4 } else { 0 });
            assert_eq!(d.window_fragments, 1, "tick {tick}");
            assert!(d.partitioned_fragments > 0, "tick {tick}: scattered");
            assert_eq!(d.stream_rows_shipped, 4 * instants, "tick {tick}");
            assert_eq!(d.tuples_in_window, s.tuples_in_window);
            assert_eq!(d.states, s.states);
            assert_eq!(d.triples.len(), s.triples.len(), "tick {tick}");
        }
    }

    /// The dashboard's panels without their latency percentiles — every
    /// field that is a count.
    fn timeless_panels(p: &OptiquePlatform) -> Vec<QueryPanel> {
        let timeless = |panel| QueryPanel {
            tick_p50_us: 0,
            tick_p95_us: 0,
            tick_p99_us: 0,
            ..panel
        };
        p.dashboard().panels.into_iter().map(timeless).collect()
    }

    /// `k` hot readings, one per second, the first one second past the
    /// recorded stream's end plus `after` seconds: each closes one window.
    fn hot_seconds(p: &OptiquePlatform, after: i64, k: i64) -> Vec<Vec<Value>> {
        let sensor = streamed_sensor(p);
        (after + 1..=after + k)
            .map(|s| msmt_row(659_000 + s * 1_000, sensor, 99.0))
            .collect()
    }

    /// The round's contract, append-driven: a query whose ticks fail is
    /// charged the error and ends its own windows; the query registered
    /// after it still answers every window, eviction still runs, the call
    /// names the failing query — and a retry re-fires nothing the healthy
    /// query already answered. At the parent the first error returned out
    /// of the loop: the second query never ticked, nothing was evicted.
    #[test]
    fn failing_query_does_not_take_the_append_round_with_it() {
        let p = platform();
        let healthy = platform();
        let bad = p.register_starql(AGG_QUERY).unwrap();
        let good = p.register_starql(AGG_QUERY).unwrap();
        for _ in 0..2 {
            healthy.register_starql(AGG_QUERY).unwrap();
        }
        p.set_tick_fault(bad, true);

        let err = p
            .append_stream("S_Msmt", hot_seconds(&p, 0, 5))
            .unwrap_err();
        assert!(err.contains(&format!("query {bad} (S_agg)")), "{err}");
        let expected = healthy
            .append_stream("S_Msmt", hot_seconds(&p, 0, 5))
            .unwrap();
        let panels = p.dashboard().panels;
        assert_eq!((panels[0].ticks, panels[0].tick_errors), (0, 1));
        assert_eq!((panels[1].ticks, panels[1].tick_errors), (5, 0));
        assert_eq!(timeless_panels(&p)[1], timeless_panels(&healthy)[1]);
        assert_eq!(p.metrics_snapshot().counter("tick.errors"), Some(1));
        assert_eq!(p.wcache().len(), healthy.wcache().len(), "eviction ran");
        assert!(expected.iter().any(|(_, t)| t.satisfied > 0));

        // Still failing: the healthy query ticks only the two new windows.
        p.append_stream("S_Msmt", hot_seconds(&p, 5, 2))
            .unwrap_err();
        healthy
            .append_stream("S_Msmt", hot_seconds(&p, 5, 2))
            .unwrap();
        let panels = p.dashboard().panels;
        assert_eq!((panels[0].ticks, panels[0].tick_errors), (0, 2));
        assert_eq!(panels[1].ticks, 5 + 2);
        assert_eq!(panels[1].alarms, healthy.dashboard().panels[1].alarms);

        // Healed: the once-failing query catches up on every window it
        // owes, oldest first; the healthy one answers the new window only,
        // with exactly the output a platform that never failed gives.
        p.set_tick_fault(bad, false);
        let out = p.append_stream("S_Msmt", hot_seconds(&p, 7, 1)).unwrap();
        let expected = healthy
            .append_stream("S_Msmt", hot_seconds(&p, 7, 1))
            .unwrap();
        let ticks_of = |id: u64| -> Vec<i64> {
            let of_id = out.iter().filter(|(q, _)| *q == id);
            of_id.map(|(_, t)| t.tick_ms).collect()
        };
        assert_eq!(
            ticks_of(bad),
            (660..=667).map(|s| s * 1_000).collect::<Vec<_>>()
        );
        assert_eq!(ticks_of(good), [667_000]);
        let triples_of = |out: &[(u64, TickOutput)], id: u64| -> Vec<_> {
            let of_id = out.iter().filter(|(q, _)| *q == id);
            of_id.flat_map(|(_, t)| t.triples.clone()).collect()
        };
        assert_eq!(triples_of(&out, good), triples_of(&expected, good));
        assert_eq!(p.dashboard().panels[0].ticks, 8);
    }

    /// The `pane_stream` shape on the small deployment: four aggregate
    /// queries on one 2-worker pool — SUM and MAX over one 200 s window,
    /// AVG over 60 s, COUNT over 20 s.
    fn pane_stream_programs() -> Vec<String> {
        [
            ("SUM", 200, 1_000),
            ("AVG", 60, 72),
            ("MAX", 200, 99),
            ("COUNT", 20, 20),
        ]
        .iter()
        .map(|(agg, range_s, at_least)| {
            AGG_QUERY
                .replace("PT10S", &format!("PT{range_s}S"))
                .replace(
                    "MAX(?c2, sie:hasValue) >= 85",
                    &format!("{agg}(?c2, sie:hasValue) >= {at_least}"),
                )
        })
        .collect()
    }

    /// One append, one pane round: the four queries' four windows are
    /// three distinct probes in one gateway round of the pool, each probed
    /// once per worker; the window SUM and MAX share is charged to SUM, and
    /// MAX counts one shared probe.
    #[test]
    fn one_pane_round_per_pool_probes_each_window_once() {
        const WORKERS: u64 = 2;
        let p = platform();
        for text in pane_stream_programs() {
            p.register_starql_distributed(&text, WORKERS as usize)
                .unwrap();
        }
        let count = |name: &str| p.metrics_snapshot().counter(name).unwrap_or(0);
        for k in 0..4 {
            let (rounds, probes) = (count(PANE_ROUNDS), count(PANE_PROBES));
            let out = p.append_stream("S_Msmt", hot_seconds(&p, k, 1)).unwrap();
            assert_eq!(out.len(), 4, "append {k}: one window per query");
            assert_eq!(count(PANE_ROUNDS) - rounds, 1, "append {k}: one round");
            assert_eq!(count(PANE_PROBES) - probes, 3, "append {k}: three windows");
            let sum = |f: fn(&TickOutput) -> u64| out.iter().map(|(_, t)| f(t)).sum::<u64>();
            assert_eq!(sum(|t| t.pane_hits + t.pane_misses), 3 * WORKERS);
            assert_eq!(sum(|t| t.window_fragments as u64), 3);
            assert_eq!(sum(|t| t.panes_shared as u64), 1);
            // The round's own cost — three scattered fragments — is
            // charged once, to its first tick.
            assert_eq!(sum(|t| t.partitioned_fragments as u64), 3);
            assert_eq!(out[0].1.partitioned_fragments, 3);
            let (_, max) = &out[2];
            assert_eq!(
                (max.panes_shared, max.window_fragments),
                (1, 0),
                "MAX reads SUM's"
            );
            if k > 0 {
                assert_eq!(sum(|t| t.pane_misses), 0, "append {k}: every store warm");
            }
            let rounds: Vec<_> = (out.iter().flat_map(|(_, t)| &t.spans))
                .filter(|span| span.label == "round")
                .collect();
            assert_eq!(rounds.len(), 1, "append {k}: one round span");
            let attr = |key: &str| {
                rounds[0]
                    .attrs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(attr("pools"), Some(1usize.into()));
            assert_eq!(attr("probes"), Some(3usize.into()));
            assert_eq!(attr("probes_shared"), Some(1usize.into()));
        }
        let panels = p.dashboard().panels;
        assert_eq!(panels[2].panes_shared, 4);
        assert_eq!(
            panels[0].panes_shared + panels[1].panes_shared + panels[3].panes_shared,
            0
        );
    }

    /// The accumulator operations a round's pane ticks performed: the
    /// `acc_ops` attributes of their `pane_combine` spans.
    fn acc_ops(out: &[(u64, TickOutput)]) -> u64 {
        let spans = out.iter().flat_map(|(_, tick)| &tick.spans);
        let combines = spans.filter(|span| span.label == "pane_combine");
        let attrs = combines.flat_map(|span| &span.attrs);
        (attrs.filter(|(key, _)| key == "acc_ops"))
            .map(|(_, value)| match value {
                optique_telemetry::AttrValue::Uint(ops) => *ops,
                other => panic!("acc_ops is a count, got {other:?}"),
            })
            .sum()
    }

    /// Merge accounting on the `pane_stream` shape (one 2-worker pool): a
    /// merge copies the overlay rows once each, into the worker shards, and
    /// nothing else — the folded stream table's segments are the old
    /// base's followed by the overlay's, the one pool is carried and no
    /// table re-partitioned — and the gauges follow the table and the
    /// stores. The next append's probes all hit, and they do the work a
    /// fresh store does minus folding the base: a twin whose pool is
    /// dropped at the merge (what a merge did before pools were carried)
    /// pays exactly the folded table's rows more.
    #[test]
    fn a_merge_copies_only_the_overlay_and_keeps_the_panes_warm() {
        const WORKERS: usize = 2;
        let (p, twin) = (platform(), platform());
        let table = p.db().table("S_Msmt").unwrap().clone();
        let sensors: BTreeSet<i64> = (table.rows.iter())
            .map(|row| row[1].as_i64().unwrap())
            .collect();
        let second = |s: i64| -> Vec<Vec<Value>> {
            (sensors.iter())
                .map(|&id| msmt_row(660_000 + s * 1_000, id, (s * 7 + id) as f64 / 4.0))
                .collect()
        };
        for p in [&p, &twin] {
            for text in pane_stream_programs() {
                p.register_starql_distributed(&text, WORKERS).unwrap();
            }
            for s in 0..3 {
                p.append_stream("S_Msmt", second(s)).unwrap();
            }
        }
        let metrics = || p.metrics_snapshot();
        let count = |name: &str| metrics().counter(name).unwrap_or(0);
        let before = p.snapshot();
        let base = Arc::clone(before.db.table("S_Msmt").unwrap());
        let log = before.novelty.rows("S_Msmt").unwrap().clone();
        let rows = |n: usize| Some(n as i64);
        assert_eq!(
            metrics().gauge("stream.rows.S_Msmt"),
            rows(base.len() + log.len())
        );
        let live = metrics().gauge(PANES_LIVE).unwrap();
        assert!(live > 0);

        assert_eq!(p.merge_now().unwrap(), log.len());
        assert_eq!(count("novelty.merge_rows_copied"), log.len() as u64);
        assert_eq!(count("novelty.pools_carried"), 1);
        assert_eq!(count("novelty.tables_repartitioned"), 0);
        let folded = Arc::clone(p.snapshot().db.table("S_Msmt").unwrap());
        let shared: Vec<_> = base.rows.segments().iter().chain(log.segments()).collect();
        assert_eq!(folded.rows.segments().len(), shared.len());
        for (segment, was) in folded.rows.segments().iter().zip(shared) {
            assert!(Arc::ptr_eq(segment, was), "the fold shares every segment");
        }
        assert_eq!(metrics().gauge("stream.rows.S_Msmt"), rows(folded.len()));
        twin.merge_now().unwrap();
        twin.federations.lock().clear();

        let out = p.append_stream("S_Msmt", second(3)).unwrap();
        let fresh = twin.append_stream("S_Msmt", second(3)).unwrap();
        assert_eq!(out.len(), 4, "one window per query");
        let sum = |out: &[(u64, TickOutput)], f: fn(&TickOutput) -> u64| {
            out.iter().map(|(_, t)| f(t)).sum::<u64>()
        };
        assert_eq!(
            sum(&out, |t| t.pane_hits),
            3 * WORKERS as u64,
            "every probe hits"
        );
        assert_eq!(sum(&out, |t| t.pane_misses), 0);
        assert_eq!(
            sum(&fresh, |t| t.pane_misses),
            WORKERS as u64,
            "a fold per store"
        );
        assert_eq!(acc_ops(&fresh), acc_ops(&out) + folded.len() as u64);
        let outputs = |out: &[(u64, TickOutput)]| {
            (out.iter())
                .map(|(id, t)| (*id, t.window_id, t.satisfied, t.triples.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(outputs(&out), outputs(&fresh));
        let pools: usize = (p.federations.lock().values())
            .map(|pool| pool.live_panes())
            .sum();
        assert_eq!(metrics().gauge(PANES_LIVE), Some(pools as i64));
        assert!(
            pools as i64 > live,
            "the carried panes and the new second's"
        );
    }

    impl OptiquePlatform {
        /// Makes every pane round fail (or stop failing).
        fn set_round_fault(&self, failing: bool) {
            self.round_fault.store(failing, Ordering::Relaxed);
        }
    }

    /// The round's contract when its pane round fails: exactly the ticks
    /// that read a probe of it fail — each pane query charged its own error
    /// and its windows stopped — while a single-node query and a
    /// sequence-path query on the same stream tick every window as if the
    /// round had not run. Healed, the pane queries catch up on every window
    /// they owe; nothing answered re-fires.
    #[test]
    fn failing_pane_round_fails_exactly_its_readers() {
        let hot_or_failing = AGG_QUERY.replace(
            "MAX(?c2, sie:hasValue) >= 85",
            "MAX(?c2, sie:hasValue) >= 85 AND EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }",
        );
        let short = AGG_QUERY.replace("PT10S", "PT4S");
        let register = |p: &OptiquePlatform| {
            let pane = p.register_starql_distributed(AGG_QUERY, 2).unwrap();
            let other_pane = p.register_starql_distributed(&short, 2).unwrap();
            p.register_starql(AGG_QUERY).unwrap();
            p.register_starql_distributed(&hot_or_failing, 2).unwrap();
            (pane, other_pane)
        };
        let (p, healthy) = (platform(), platform());
        let (pane, other_pane) = register(&p);
        register(&healthy);
        p.set_round_fault(true);

        let err = p
            .append_stream("S_Msmt", hot_seconds(&p, 0, 3))
            .unwrap_err();
        assert!(err.contains(&format!("query {pane} (S_agg)")), "{err}");
        assert!(err.contains("injected round fault"), "{err}");
        let expected = healthy
            .append_stream("S_Msmt", hot_seconds(&p, 0, 3))
            .unwrap();
        let panels = p.dashboard().panels;
        let ticks: Vec<_> = panels.iter().map(|p| (p.ticks, p.tick_errors)).collect();
        assert_eq!(ticks, [(0, 1), (0, 1), (3, 0), (3, 0)]);
        assert_eq!(p.metrics_snapshot().counter("tick.errors"), Some(2));
        let (panels, healthy_panels) = (timeless_panels(&p), timeless_panels(&healthy));
        assert_eq!(
            panels[2..],
            healthy_panels[2..],
            "the other ticks ran as if alone"
        );

        // Healed: the pane queries answer the three windows they owe and
        // the new one, oldest first; the others answer the new one only.
        p.set_round_fault(false);
        let out = p.append_stream("S_Msmt", hot_seconds(&p, 3, 1)).unwrap();
        let more = healthy
            .append_stream("S_Msmt", hot_seconds(&p, 3, 1))
            .unwrap();
        let ticks_of = |id: u64| -> Vec<i64> {
            let of_id = out.iter().filter(|(q, _)| *q == id);
            of_id.map(|(_, t)| t.tick_ms).collect()
        };
        assert_eq!(ticks_of(pane), [660_000, 661_000, 662_000, 663_000]);
        assert_eq!(ticks_of(other_pane), [660_000, 661_000, 662_000, 663_000]);
        assert_eq!(ticks_of(3), [663_000]);
        assert_eq!(ticks_of(4), [663_000]);
        let triples_of = |out: &[(u64, TickOutput)], id: u64| -> Vec<_> {
            let of_id = out.iter().filter(|(q, _)| *q == id);
            of_id.flat_map(|(_, t)| t.triples.clone()).collect()
        };
        for id in [pane, other_pane] {
            let caught_up = [expected.clone(), more.clone()].concat();
            assert_eq!(
                triples_of(&out, id),
                triples_of(&caught_up, id),
                "query {id}"
            );
        }
        let panels = p.dashboard().panels;
        let ticks: Vec<_> = panels.iter().map(|p| (p.ticks, p.tick_errors)).collect();
        assert_eq!(ticks, [(4, 1), (4, 1), (4, 0), (4, 0)]);
    }

    /// The aggregate query with `SUM(…) >= 100` over a `range_s` window.
    fn sum_query(range_s: i64) -> String {
        AGG_QUERY
            .replace("PT10S", &format!("PT{range_s}S"))
            .replace(
                "MAX(?c2, sie:hasValue) >= 85",
                "SUM(?c2, sie:hasValue) >= 100",
            )
    }

    /// An `S_Msmt` row at `ts` whose value is half of `i64::MAX`, rounded
    /// up: `S_Msmt.value` is FLOAT, which admits integers, and two of them
    /// take a SUM past `i64`.
    fn half_max_row(ts: i64, sensor_id: i64) -> Vec<Value> {
        let mut row = msmt_row(ts, sensor_id, 0.0);
        row[2] = Value::Int(i64::MAX / 2 + 1);
        row
    }

    /// A worker fails one probe of a pane round — its window's integer SUM
    /// overflows — and only that probe's reader fails: a pane query over
    /// other windows of the same pool ticks every window, as it does on a
    /// platform of its own. Two half-`i64::MAX` rows, 5 s apart, overflow
    /// every 10 s window that holds both, and no 2 s window holds two.
    #[test]
    fn overflowing_pane_window_fails_only_its_readers() {
        let (p, alone) = (platform(), platform());
        let long = p.register_starql_distributed(&sum_query(10), 2).unwrap();
        let short = p.register_starql_distributed(&sum_query(2), 2).unwrap();
        alone.register_starql_distributed(&sum_query(2), 2).unwrap();
        let sensor = streamed_sensor(&p);
        let mut failed = Vec::new();
        for s in 1..=12 {
            let ts = 659_000 + s * 1_000;
            let row = if s == 1 || s == 6 {
                half_max_row(ts, sensor)
            } else {
                msmt_row(ts, sensor, 60.0)
            };
            if let Err(e) = p.append_stream("S_Msmt", vec![row.clone()]) {
                assert!(e.contains(&format!("query {long} (S_agg)")), "{e}");
                assert!(e.contains("overflow"), "{e}");
                assert!(!e.contains(&format!("query {short} ")), "{e}");
                failed.push(s);
            }
            alone.append_stream("S_Msmt", vec![row]).unwrap();
        }
        // The window closing at 665 s holds both: the long query stops
        // there, and owes it on every later append.
        assert_eq!(failed, (6..=12).collect::<Vec<_>>());
        let panels = p.dashboard().panels;
        assert_eq!((panels[0].ticks, panels[0].tick_errors), (5, 7));
        let alone_panel = &alone.dashboard().panels[0];
        assert_eq!((panels[1].ticks, panels[1].tick_errors), (12, 0));
        assert_eq!(panels[1].alarms, alone_panel.alarms);
        assert!(alone_panel.alarms > 0, "the short windows answer");
    }

    /// A late row takes a window the long query's workers have cached past
    /// `i64`, and the short query — registered first, so probed first —
    /// folds it. Only the long query fails: on the window the row lands in
    /// and on every append after, as it still owes that window. The short
    /// query answers every window as it does alone, and its probes stay
    /// warm throughout: no append costs it a pane miss.
    #[test]
    fn a_late_overflow_fails_only_the_window_it_lands_in() {
        let (p, alone) = (platform(), platform());
        let short = p.register_starql_distributed(&sum_query(2), 2).unwrap();
        let long = p.register_starql_distributed(&sum_query(10), 2).unwrap();
        alone.register_starql_distributed(&sum_query(2), 2).unwrap();
        let sensor = streamed_sensor(&p);
        let mut failed = Vec::new();
        for s in 1..=12 {
            let ts = 659_000 + s * 1_000;
            let rows = match s {
                1 => vec![half_max_row(ts, sensor)],
                // Inside the long query's cached window (654 s, 664 s],
                // behind every short window from now on.
                6 => vec![half_max_row(662_000, sensor), msmt_row(ts, sensor, 60.0)],
                _ => vec![msmt_row(ts, sensor, 60.0)],
            };
            let misses = p.dashboard().panels[0].pane_misses;
            if let Err(e) = p.append_stream("S_Msmt", rows.clone()) {
                assert!(e.contains(&format!("query {long} (S_agg)")), "{e}");
                assert!(e.contains("overflow"), "{e}");
                assert!(!e.contains(&format!("query {short} ")), "{e}");
                failed.push(s);
            }
            if s > 1 {
                let more = p.dashboard().panels[0].pane_misses - misses;
                assert_eq!(more, 0, "append {s}: the short query's probes stay warm");
            }
            alone.append_stream("S_Msmt", rows).unwrap();
        }
        assert_eq!(failed, (6..=12).collect::<Vec<_>>());
        let panels = p.dashboard().panels;
        assert_eq!((panels[1].ticks, panels[1].tick_errors), (5, 7));
        let alone_panel = &alone.dashboard().panels[0];
        assert_eq!((panels[0].ticks, panels[0].tick_errors), (12, 0));
        assert_eq!(panels[0].alarms, alone_panel.alarms);
        assert!(alone_panel.alarms > 0, "the short windows answer");
    }

    /// The same contract through a pulse.
    #[test]
    fn failing_query_does_not_take_the_pulse_round_with_it() {
        let p = platform();
        let healthy = platform();
        let bad = p.register_starql(optique_starql::FIGURE1).unwrap();
        p.register_starql(AGG_QUERY).unwrap();
        healthy.register_starql(optique_starql::FIGURE1).unwrap();
        healthy.register_starql(AGG_QUERY).unwrap();
        p.set_tick_fault(bad, true);
        for tick in [658_000, 659_000] {
            let err = p.tick_all(tick).unwrap_err();
            assert!(err.contains(&format!("query {bad} (S_out)")), "{err}");
            healthy.tick_all(tick).unwrap();
        }
        let (panels, expected) = (timeless_panels(&p), timeless_panels(&healthy));
        assert_eq!((panels[0].ticks, panels[0].tick_errors), (0, 2));
        assert_eq!(panels[1], expected[1], "the later query ticked as if alone");
        assert_eq!(p.wcache().len(), 1, "the pulse's own window");
        // A healed query simply ticks again: pulses keep no backlog.
        p.set_tick_fault(bad, false);
        assert_eq!(p.tick_all(660_000).unwrap().len(), 2);
    }

    /// Regression: a distributed registration used to drop every pool, so
    /// the 2nd…18th task on a stream re-sharded the whole catalog (and
    /// re-folded every pane store) on the next tick. A pool that already
    /// partitions the new query's stream on its key stays; one that does
    /// not goes.
    #[test]
    fn distributed_registration_keeps_pools_that_partition_its_stream() {
        let mut deployment = SiemensDeployment::small();
        let twin = deployment.db.table("S_Msmt").unwrap().to_table();
        deployment.db.put_table("S_Aux", twin);
        let p = OptiquePlatform::from_siemens(deployment);
        let snap = p.snapshot();

        p.register_starql_distributed(AGG_QUERY, 2).unwrap();
        let pool = p.federation_for(2, &snap);
        let pair = |stream: &str| (stream.to_string(), "sensor_id".to_string());
        assert_eq!(pool.partition().last(), Some(&pair("S_Msmt")));
        p.register_starql_distributed(optique_starql::FIGURE1, 2)
            .unwrap();
        assert!(
            Arc::ptr_eq(&pool, &p.federation_for(2, &snap)),
            "a second task on a partitioned stream re-shards nothing"
        );

        let on_aux = AGG_QUERY.replace("S_Msmt", "S_Aux");
        p.register_starql_distributed(&on_aux, 2).unwrap();
        let resharded = p.federation_for(2, &snap);
        assert!(!Arc::ptr_eq(&pool, &resharded), "a new stream re-shards");
        assert!(resharded.partition().contains(&pair("S_Aux")));
        assert!(resharded.partition().contains(&pair("S_Msmt")));
    }

    /// Regression: these texts used to register and then fail every tick
    /// (or every tick that read the culprit) — starving every query
    /// registered after them. They are refused where they enter, with the
    /// culprit named, and leave nothing behind.
    #[test]
    fn what_can_only_fail_at_tick_time_is_rejected_at_registration() {
        let p = platform();
        let ghost = AGG_QUERY.replace("{ ?c2 a sie:MonInc }", "{ ?c2 sie:flags ?ghost }");
        let err = p.register_starql(&ghost).unwrap_err();
        assert!(err.contains("CONSTRUCT variable ?ghost"), "{err}");
        let nowhere = AGG_QUERY.replace("S_Msmt", "S_Nowhere");
        let err = p.register_starql(&nowhere).unwrap_err();
        assert!(err.contains("S_Nowhere"), "{err}");
        assert!(p.register_starql_distributed(&nowhere, 2).is_err());
        // HAVING reads a value variable nothing binds, names a state
        // variable no quantifier binds, or thresholds an aggregate by
        // something other than a numeric literal.
        let max = "MAX(?c2, sie:hasValue) >= 85";
        let having = [
            (format!("{max} AND ?u >= 3"), "?u"),
            (
                format!("{max} AND GRAPH ?q {{ ?c2 sie:hasValue ?x }}"),
                "?q",
            ),
            (r#"MAX(?c2, sie:hasValue) >= "85""#.to_string(), r#""85""#),
            ("MAX(?c2, sie:hasValue) >= ?c1".to_string(), "?c1"),
        ];
        for (condition, culprit) in having {
            let text = AGG_QUERY.replace(max, &condition);
            for registered in [
                p.register_starql(&text),
                p.register_starql_distributed(&text, 2),
            ] {
                let err = registered.unwrap_err();
                assert!(err.contains(culprit), "{condition}: {err}");
            }
        }
        assert_eq!(p.registered(), 0);
        assert!(p.dashboard().panels.is_empty());
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

    /// A stream that starts empty has no clock until its first timestamped
    /// row, and drives nothing until then.
    #[test]
    fn empty_stream_has_no_clock_until_its_first_row() {
        let mut deployment = SiemensDeployment::small();
        let mut empty = deployment.db.table("S_Msmt").unwrap().to_table();
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
}

//! The static OBDA pipeline: BGP → PerfectRef rewrite → mapping unfolding →
//! SQL execution → residual-algebra evaluation.
//!
//! Each basic graph pattern becomes one `optique_rewrite::ConjunctiveQuery`
//! whose answer variables are the BGP's variables. The CQ is enriched
//! against the deployment TBox (PerfectRef), unfolded through the mapping
//! catalog into one `UNION ALL` SQL statement, and executed on the
//! relational engine. Everything the SQL cannot express — joins across
//! `OPTIONAL`/`UNION` branches, `FILTER`s, modifiers, aggregates — runs
//! over [`SolutionSet`]s in [`crate::eval`].
//!
//! Execution of the unfolded SQL has two backends:
//!
//! * **single-node** (the default): the whole `UNION ALL` chain runs on the
//!   pipeline's [`Database`];
//! * **federated**: a [`FragmentExecutor`] receives the whole `UNION ALL`
//!   as **one** [`PlanFragment`] per BGP and executes it on a worker pool
//!   (ExaStream, in `optique`'s wiring), which regroups the disjuncts into
//!   one statement per routing group; the gathered table merges back into
//!   one solution set in [`crate::eval::solutions_from_tables`]. Both
//!   backends produce the same certain-answer *set*, which the federation
//!   equivalence suite asserts.
//!
//! A [`BgpCache`] can be attached to memoize whole-BGP solution sets across
//! `OPTIONAL`/`UNION` branches and across queries.
//!
//! A statistics-driven **planner** (see [`crate::planner`]) sits between
//! the algebra and the BGP executions: consecutive inner-joinable group
//! elements are reordered smallest-estimated-cardinality-first (connected
//! operands preferred), and the bound-variable values of already-joined
//! solutions are pushed into sibling BGP executions as semi-join `IN`-list
//! restrictions. Both levers are advisory — [`PlannerSettings::disabled`]
//! reproduces the naive pipeline bit-for-bit, and the differential
//! plan-equivalence suite asserts both modes return identical answers.

use std::collections::BTreeSet;
use std::sync::Arc;

use optique_mapping::{unfold_prepared, MappingCatalog, UnfoldSettings};
use optique_ontology::Ontology;
use optique_rdf::{Iri, Literal, Term};
use optique_relational::parser::SelectStatement;
use optique_relational::{
    bind_statement, expr::BinOp, expr::UnaryOp, Binding, Database, Expr, PaneCounts, PlanFragment,
    Prepared, SemiJoin, StatsCatalog, Table, Value,
};
use optique_rewrite::{rewrite, Atom, ConjunctiveQuery, QueryTerm, RewriteSettings};
use optique_telemetry::{SpanId, SpanRecord, Tracer};

use crate::algebra::{
    ArithmeticOperator, ComparisonOperator, Expression, GroupPattern, PatternElement, Projection,
    Query, SelectItem, SelectQuery,
};
use crate::cache::{BgpCache, TableVersions};
use crate::error::SparqlError;
use crate::eval::{aggregate, solutions_from_tables, SolutionSet};
use crate::planner::{greedy_order, CardinalityModel, JoinOperand, PlannerSettings, Restriction};
use crate::results::SparqlResults;
use crate::shapes::{Shape, ShapeCache, ShapeKey, ShapeMiss};

/// The gathered results of one fragment round, with enough provenance for
/// the pipeline's planner counters.
#[derive(Clone, Debug, Default)]
pub struct FragmentRound {
    /// One result per fragment, in fragment order: its table or its error.
    pub tables: Vec<Result<Table, String>>,
    /// Statements the round executed: an executor that regroups a
    /// fragment's `UNION ALL` branches runs one statement per group.
    pub statements: usize,
    /// Disjuncts the executor could not ship and answered on the
    /// coordinator instead (0 for fully-shipped rounds).
    pub coordinator_fallbacks: usize,
    /// Disjuncts that executed sharded (scattered over a hash-partitioned
    /// table's per-worker shards).
    pub partitioned_fragments: usize,
    /// Disjuncts that fell back one rung on the ladder — answered by a
    /// single worker's replicas while the executor's catalog had
    /// partitioned tables (0 for fully-replicated executors, where placed
    /// execution is the design, not a fallback).
    pub replicated_fallbacks: usize,
    /// Scatter statement executions skipped because key routing proved
    /// the shard could hold no matching row.
    pub shards_pruned: usize,
    /// Fragment executions that needed no SQL parse this round (the
    /// statement arrived typed, or its one parse was already paid).
    pub plan_cache_hits: u64,
    /// Fragment SQL parses paid this round (text-built fragments only).
    pub plan_cache_misses: u64,
    /// Per fragment, in fragment order, what its pane probes cost on the
    /// workers: probes answered from a warm pane store (at most O(slide)
    /// incremental folding), probes that paid a full fold or answered
    /// store-lessly, and the accumulator operations performed
    /// ([`PaneCounts::acc_ops`]) — their work as a count, flat in the
    /// window range while the stores are warm. Empty when the executor
    /// reports none (a store-less executor).
    pub panes: Vec<PaneCounts>,
    /// `UNION ALL` statements the executor took apart and regrouped into
    /// routing groups this round (a shape its pool had planned needs none).
    pub regroups: usize,
    /// Plans the round built: for a prepared shape, the plans its pool
    /// built for it (none once the pool holds them); for any other
    /// statement, one per statement shipped.
    pub plans_built: usize,
    /// Worker-side trace spans for the round (batch-relative, see
    /// [`optique_telemetry::SpanRecord`]). A traced pipeline grafts them
    /// under its execution span so worker-side children stitch into the
    /// coordinator's tree; an untraced pipeline ignores them.
    pub spans: Vec<SpanRecord>,
}

/// A distributed backend for unfolded-SQL execution: takes one
/// [`PlanFragment`] per BGP (the whole unfolded `UNION ALL`), returns one
/// result per fragment, in order. Implementations hand fragments to
/// workers however they like (the platform's implementation regroups the
/// disjuncts and rides ExaStream's gateway and scheduler) but **must
/// honor each fragment's semi-join restrictions** — executing
/// through [`PlanFragment::execute`] does so; executing the bare
/// [`PlanFragment::base_statement`] silently widens the answer a worker
/// returns.
pub trait FragmentExecutor: Sync {
    /// Executes the fragments of one BGP round. A fragment that fails is
    /// an `Err` in its own slot and fails no other; the outer `Err`, for a
    /// round that cannot run at all, stays for callers that `expect` a
    /// whole round, but no executor in this workspace returns it.
    fn execute(&self, fragments: Vec<PlanFragment>) -> Result<FragmentRound, String>;

    /// How many workers back this executor (observability only).
    fn workers(&self) -> usize {
        1
    }

    /// How many values a pushed semi-join list may carry, given the
    /// planner's per-executor budget `base`. Executors that can split a
    /// list across shards (partition-routed federations) may raise it —
    /// each shard then receives only its slice, so the per-worker list
    /// stays within `base` even though the whole list exceeds it.
    fn max_restriction_values(&self, base: usize) -> usize {
        base
    }
}

/// Everything query answering needs from a deployment.
pub struct StaticPipeline<'a> {
    /// The TBox used for enrichment.
    pub ontology: &'a Ontology,
    /// The mapping catalog over the static sources.
    pub mappings: &'a MappingCatalog,
    /// The data sources.
    pub db: &'a Database,
    /// Enrichment knobs.
    pub rewrite_settings: RewriteSettings,
    /// Unfolding knobs.
    pub unfold_settings: UnfoldSettings,
    /// Distributed execution backend; `None` runs single-node on [`Self::db`].
    pub executor: Option<&'a dyn FragmentExecutor>,
    /// The prepared-shape cache BGPs plan through (see
    /// [`crate::shapes`]); `None` prepares every BGP afresh, the same way.
    pub shapes: Option<&'a ShapeCache>,
    /// Per-BGP solution-set cache paired with the per-table write versions
    /// of this pipeline's database snapshot (see [`Self::with_cache`]);
    /// `None` disables caching.
    pub cache: Option<(&'a BgpCache, &'a TableVersions)>,
    /// Join-order / semi-join planner knobs.
    pub planner: PlannerSettings,
    /// Source statistics feeding the planner's cardinality model; `None`
    /// degrades estimates to mapping fan-out counts.
    pub table_stats: Option<&'a StatsCatalog>,
    /// Span recorder for per-stage timing; `None` (the default) skips all
    /// trace recording. Tracing never changes what a query answers — the
    /// telemetry differential suite asserts traced ≡ untraced.
    pub tracer: Option<&'a Tracer>,
    /// Parent span the pipeline's stage spans attach under (typically the
    /// platform's per-query root span).
    pub trace_parent: Option<SpanId>,
}

/// Per-query observability, surfaced on the platform dashboard.
///
/// Counters only: per-stage *timings* come from the telemetry spans a
/// traced pipeline records (see [`StaticPipeline::with_tracer`]) — one
/// timing source instead of two that can drift.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Basic graph patterns evaluated.
    pub bgps: usize,
    /// Total UCQ disjuncts after enrichment.
    pub ucq_disjuncts: usize,
    /// Total SQL disjuncts emitted by unfolding.
    pub sql_disjuncts: usize,
    /// Rows in the final result.
    pub rows: usize,
    /// BGPs answered from the [`BgpCache`].
    pub cache_hits: usize,
    /// BGPs that went through the full pipeline (cache attached but cold).
    pub cache_misses: usize,
    /// Statements the distributed executor ran: one per routing group of
    /// each BGP's unfolded `UNION ALL` (a whole scatter over one shard set
    /// is one).
    pub fragments: usize,
    /// Disjuncts the executor answered on the coordinator instead of a
    /// worker (a silent-fallback "distributed" run shows up here).
    pub coordinator_fallbacks: usize,
    /// Join batches the planner executed in a non-textual order.
    pub join_reorders: usize,
    /// Bound-variable value lists pushed into BGP executions as semi-join
    /// `IN` restrictions (one count per restricted variable per BGP).
    pub semi_joins_pushed: usize,
    /// Planner-estimated BGP cardinalities, summed (0 with the planner
    /// disabled).
    pub estimated_rows: u64,
    /// Actual BGP solution rows, summed — compare with
    /// [`Self::estimated_rows`] to judge the cardinality model.
    pub actual_rows: u64,
    /// Rows returned by SQL execution (summed over fragments / statements)
    /// before the residual merge — semi-join pushdown shrinks this.
    pub fragment_rows: usize,
    /// Disjuncts executed sharded over a hash-partitioned table.
    pub partitioned_fragments: usize,
    /// Disjuncts answered by a single worker's replicas while the executor
    /// held partitioned tables (the middle rung of the sharded → replicated
    /// → coordinator ladder).
    pub replicated_fallbacks: usize,
    /// Statement executions skipped by partition-key routing (shards that
    /// provably held no matching row).
    pub shards_pruned: usize,
    /// Fragment executions that needed no SQL parse (the pipeline's own
    /// fragments are typed, so on its rounds this is every execution).
    pub plan_cache_hits: u64,
    /// Fragment SQL parses paid (text-built fragments only).
    pub plan_cache_misses: u64,
    /// BGPs answered from a prepared shape: no rewrite, unfold, regroup or
    /// plan, only a binding.
    pub shape_hits: usize,
    /// BGPs that built (part of) their prepared shape, or were restricted.
    pub shape_misses: usize,
    /// PerfectRef rewritings run (one per shape built).
    pub rewrites: usize,
    /// Unfoldings run (one per shape built).
    pub unfolds: usize,
    /// `UNION ALL` statements regrouped by the distributed executor.
    pub regroups: usize,
    /// Plans built, on the coordinator or a worker.
    pub plans_built: usize,
}

impl<'a> StaticPipeline<'a> {
    /// A single-node, cache-less pipeline with default settings.
    pub fn new(ontology: &'a Ontology, mappings: &'a MappingCatalog, db: &'a Database) -> Self {
        StaticPipeline {
            ontology,
            mappings,
            db,
            rewrite_settings: RewriteSettings::default(),
            unfold_settings: UnfoldSettings::default(),
            executor: None,
            shapes: None,
            cache: None,
            planner: PlannerSettings::default(),
            table_stats: None,
            tracer: None,
            trace_parent: None,
        }
    }

    /// Routes unfolded SQL through a distributed executor.
    pub fn with_executor(mut self, executor: &'a dyn FragmentExecutor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Records per-stage spans into `tracer`, attaching them under
    /// `parent` (pass the caller's per-query root span, or `None` to make
    /// the pipeline's spans roots).
    pub fn with_tracer(mut self, tracer: &'a Tracer, parent: Option<SpanId>) -> Self {
        self.tracer = Some(tracer);
        self.trace_parent = parent;
        self
    }

    /// Plans BGPs through `shapes`: a BGP whose shape is cached runs no
    /// rewrite, unfold or plan, only a binding of its constants.
    pub fn with_shapes(mut self, shapes: &'a ShapeCache) -> Self {
        self.shapes = Some(shapes);
        self
    }

    /// Sets the planner knobs ([`PlannerSettings::disabled`] reproduces the
    /// naive textual-order pipeline).
    pub fn with_planner(mut self, planner: PlannerSettings) -> Self {
        self.planner = planner;
        self
    }

    /// Attaches a statistics snapshot for the planner's cardinality model.
    pub fn with_table_stats(mut self, stats: &'a StatsCatalog) -> Self {
        self.table_stats = Some(stats);
        self
    }

    /// Attaches a per-BGP solution-set cache. `versions` are the per-table
    /// write versions of this pipeline's database snapshot, captured
    /// atomically with it (all-zero [`TableVersions::new`] for a database
    /// that never changes). Entries are stamped with the versions of the
    /// tables they read and answer exactly the readers whose snapshots
    /// agree — a write to one table hides only the entries that read it,
    /// and a novelty merge (which changes no table's contents) hides
    /// nothing.
    pub fn with_cache(mut self, cache: &'a BgpCache, versions: &'a TableVersions) -> Self {
        self.cache = Some((cache, versions));
        self
    }

    /// Answers a parsed query.
    pub fn answer(&self, query: &Query) -> Result<(SparqlResults, PipelineStats), SparqlError> {
        let mut stats = PipelineStats::default();
        let unrestricted = Restriction::empty();
        // One memoizing cardinality model per query: atom estimates and
        // source-SQL parses are shared across every batch and BGP.
        let model = CardinalityModel::new(self.ontology, self.mappings, self.table_stats);
        match query {
            Query::Ask(ask) => {
                let solutions = self.eval_group(&ask.pattern, &unrestricted, &model, &mut stats)?;
                let truth = !solutions.is_empty();
                stats.rows = usize::from(truth);
                Ok((SparqlResults::Boolean(truth), stats))
            }
            Query::Select(select) => {
                let solutions =
                    self.eval_group(&select.pattern, &unrestricted, &model, &mut stats)?;
                let result = self.finish_select(select, solutions)?;
                stats.rows = result.len();
                Ok((SparqlResults::Solutions(result), stats))
            }
        }
    }

    fn finish_select(
        &self,
        select: &SelectQuery,
        mut solutions: SolutionSet,
    ) -> Result<SolutionSet, SparqlError> {
        let has_aggregates = !select.group_by.is_empty()
            || matches!(&select.projection, Projection::Items(items)
                if items.iter().any(|i| matches!(i, SelectItem::Aggregate { .. })));

        if has_aggregates {
            let Projection::Items(items) = &select.projection else {
                return Err(SparqlError::execution(
                    "SELECT * cannot be combined with aggregates or GROUP BY",
                ));
            };
            let mut out = aggregate(&solutions, &select.group_by, items)?;
            out.order_by(&select.modifiers.order_by);
            if select.distinct {
                out.distinct();
            }
            out.slice(select.modifiers.offset, select.modifiers.limit);
            return Ok(out);
        }

        // Order over the full solution (ORDER BY may use unprojected vars),
        // then project, dedup, slice.
        solutions.order_by(&select.modifiers.order_by);
        let names: Vec<String> = match &select.projection {
            Projection::All => select.pattern.variables(),
            Projection::Items(items) => items.iter().map(|i| i.name().to_string()).collect(),
        };
        let mut out = solutions.project(&names);
        if select.distinct {
            out.distinct();
        }
        out.slice(select.modifiers.offset, select.modifiers.limit);
        Ok(out)
    }

    /// Evaluates a group pattern: consecutive inner-joinable elements
    /// (triples blocks, nested groups, `UNION`s) form a **batch** the
    /// planner may reorder; `OPTIONAL` is a batch barrier (a left join is
    /// not commutative with what precedes it); `FILTER`s scope over the
    /// whole group and run last. `restriction` carries the outer context's
    /// bound-variable values for semi-join pushdown.
    fn eval_group(
        &self,
        group: &GroupPattern,
        restriction: &Restriction,
        model: &CardinalityModel,
        stats: &mut PipelineStats,
    ) -> Result<SolutionSet, SparqlError> {
        let mut current = SolutionSet::unit();
        let mut filters = Vec::new();
        let mut batch: Vec<&PatternElement> = Vec::new();
        for element in &group.elements {
            match element {
                PatternElement::Triples(_)
                | PatternElement::SubGroup(_)
                | PatternElement::Union(_)
                | PatternElement::Values(_) => batch.push(element),
                PatternElement::Optional(inner) => {
                    current = self.flush_batch(current, &mut batch, restriction, model, stats)?;
                    // The OPTIONAL's right side may only be restricted by
                    // the values of its own left side (`current`): an
                    // outer-context entry could prune a row that matches a
                    // left row on a variable `current` leaves unbound,
                    // flipping a match into an unbound survivor that joins
                    // anything upstream. And no restriction at all may
                    // enter a subtree with further OPTIONALs inside — see
                    // [`GroupPattern::contains_optional`].
                    let context = if self.planner.semi_join_pushdown && !inner.contains_optional() {
                        Restriction::from_solutions(&current, self.restriction_cap())
                    } else {
                        Restriction::empty()
                    };
                    let sub = self.eval_group(inner, &context, model, stats)?;
                    current = current.left_join(&sub);
                }
                PatternElement::Filter(expr) => filters.push(expr),
            }
        }
        current = self.flush_batch(current, &mut batch, restriction, model, stats)?;
        // FILTERs scope over the whole group.
        for expr in filters {
            current = current.filter(expr);
        }
        Ok(current)
    }

    /// Joins the batched operands into `current`, in planner order when
    /// reordering is enabled (smallest estimate first, connected-subgraph
    /// preference, `current`'s variables as the seed), textual order
    /// otherwise.
    fn flush_batch(
        &self,
        mut current: SolutionSet,
        batch: &mut Vec<&PatternElement>,
        restriction: &Restriction,
        model: &CardinalityModel,
        stats: &mut PipelineStats,
    ) -> Result<SolutionSet, SparqlError> {
        if batch.is_empty() {
            return Ok(current);
        }
        let operands = std::mem::take(batch);
        let order: Vec<usize> = if self.planner.reorder_joins && operands.len() > 1 {
            let mut span = self.tracer.map(|t| t.span(self.trace_parent, "plan_batch"));
            let infos: Vec<JoinOperand> = operands
                .iter()
                .map(|element| JoinOperand {
                    vars: element_vars(element),
                    estimate: model.estimate_element(element),
                })
                .collect();
            let order = greedy_order(&current.vars, &infos);
            let reordered = order.iter().enumerate().any(|(pos, &idx)| pos != idx);
            if reordered {
                stats.join_reorders += 1;
            }
            if let Some(span) = span.as_mut() {
                span.set_attr("operands", operands.len());
                span.set_attr("reordered", reordered);
            }
            order
        } else {
            (0..operands.len()).collect()
        };
        for idx in order {
            if self.planner.reorder_joins && current.is_empty() {
                // Inner joins against an empty set stay empty; skip the
                // remaining operands (pure optimization — never taken in
                // naive mode, so the oracle compares against full
                // evaluation).
                break;
            }
            // Restrictions may only enter OPTIONAL-free operands: below a
            // left join, pruning flips matches into unbound survivors that
            // join anything upstream (adding answers). A plain BGP has no
            // left joins; groups/unions are checked transitively.
            let context = if element_is_optional_free(operands[idx]) {
                self.context_restriction(restriction, &current)
            } else {
                Restriction::empty()
            };
            let solutions = match operands[idx] {
                PatternElement::Triples(atoms) => self.eval_bgp(atoms, &context, model, stats)?,
                PatternElement::SubGroup(inner) => {
                    self.eval_group(inner, &context, model, stats)?
                }
                PatternElement::Union(branches) => {
                    let mut united = SolutionSet::empty();
                    for branch in branches {
                        united = united.union(self.eval_group(branch, &context, model, stats)?);
                    }
                    united
                }
                // Inline bindings are already materialized: they join like
                // any operand (and, reordered first by their tiny
                // estimate, their values push into sibling BGPs as
                // semi-join restrictions).
                PatternElement::Values(block) => SolutionSet {
                    vars: block.vars.clone(),
                    rows: block.rows.clone(),
                },
                _ => unreachable!("only joinable elements are batched"),
            };
            current = current.join(&solutions);
        }
        Ok(current)
    }

    /// The semi-join context for an operand evaluated after `current` has
    /// materialized: the outer restriction merged with `current`'s
    /// bound-value lists. Empty whenever pushdown is disabled.
    fn context_restriction(&self, outer: &Restriction, current: &SolutionSet) -> Restriction {
        if !self.planner.semi_join_pushdown {
            return Restriction::empty();
        }
        outer.merged(Restriction::from_solutions(current, self.restriction_cap()))
    }

    /// The per-variable cap on pushed restriction values: the planner's
    /// `max_in_list`, raised when the attached executor can slice a list
    /// across shards ([`FragmentExecutor::max_restriction_values`]).
    fn restriction_cap(&self) -> usize {
        match self.executor {
            Some(executor) => executor.max_restriction_values(self.planner.max_in_list),
            None => self.planner.max_in_list,
        }
    }

    /// One BGP through cache lookup → rewrite → unfold → SQL execution
    /// (single-node or federated), under an optional semi-join restriction
    /// from the already-materialized join context.
    fn eval_bgp(
        &self,
        atoms: &[Atom],
        restriction: &Restriction,
        model: &CardinalityModel,
        stats: &mut PipelineStats,
    ) -> Result<SolutionSet, SparqlError> {
        stats.bgps += 1;
        if atoms.is_empty() {
            return Ok(SolutionSet::unit());
        }
        let mut bgp_span = self.tracer.map(|t| t.span(self.trace_parent, "bgp"));
        if let Some(span) = bgp_span.as_mut() {
            span.set_attr("atoms", atoms.len());
        }
        let bgp_id = bgp_span.as_ref().map(|s| s.id());
        let vars = bgp_variables(atoms);
        let restriction = restriction.restrict_to(&vars);
        if self.planner.reorder_joins {
            // At least 1 per estimated BGP: `estimated_rows == 0` then
            // means exactly "planner off", which the dashboard's accuracy
            // column relies on (a genuine rounds-to-zero estimate renders
            // as a maximally-wrong ratio instead of "no estimate").
            stats.estimated_rows += (model.estimate_bgp(atoms).round() as u64).max(1);
        }

        let plain_key = self.cache.map(|_| BgpCache::key(atoms));
        let restricted_key = (!restriction.is_empty())
            .then(|| BgpCache::restricted_key(atoms, &restriction.fingerprint()));
        if let (Some((cache, versions)), Some(plain)) = (self.cache, plain_key.as_deref()) {
            // One logical lookup: the restriction-exact entry is preferred,
            // the unrestricted superset also answers (the join filters it);
            // the cache counts one hit or one miss either way.
            let keys: Vec<&str> = match restricted_key.as_deref() {
                Some(restricted) => vec![restricted, plain],
                None => vec![plain],
            };
            let mut lookup_span = self.tracer.map(|t| t.span(bgp_id, "cache_lookup"));
            // Probed at the versions captured with this pipeline's
            // database snapshot: an entry computed over different contents
            // of a table it read never matches.
            let cached = cache.lookup_any_versioned(&keys, versions);
            if let Some(span) = lookup_span.as_mut() {
                span.set_attr("outcome", if cached.is_some() { "hit" } else { "miss" });
            }
            drop(lookup_span);
            if let Some(cached) = cached {
                stats.cache_hits += 1;
                stats.actual_rows += cached.len() as u64;
                if let Some(span) = bgp_span.as_mut() {
                    span.set_attr("cache", "hit");
                    span.set_attr("rows", cached.len());
                }
                return Ok(cached);
            }
            stats.cache_misses += 1;
        }

        // The BGP's shape: rewritten, unfolded and (per executor) planned
        // once; this query binds its constants into it. The shape's
        // statement answers the BGP's variables by position, under the
        // shape's names for them, which the restrictions name too.
        let lifted = ShapeKey::lift(atoms);
        let semi_joins: Vec<SemiJoin> = restriction
            .entries()
            .iter()
            .map(|(var, terms)| {
                let at = vars
                    .iter()
                    .position(|v| v == var)
                    .expect("restricted to the BGP's vars");
                let values = terms.iter().map(term_to_value).collect();
                SemiJoin::new(lifted.vars[at].clone(), values)
            })
            .collect();
        let looked_up = match self.shapes {
            Some(shapes) => shapes.lookup(&lifted.key, self.db),
            None => Err(ShapeMiss::New),
        };
        let constants = &lifted.constants;
        let (shape, mut miss) = match looked_up {
            Ok(shape) => (shape, None),
            Err(miss) => {
                let shape =
                    self.prepare_shape(&lifted.vars, &lifted.atoms, constants, bgp_id, stats)?;
                let shape = Arc::new(shape);
                if let Some(shapes) = self.shapes {
                    shapes.store(lifted.key, Arc::clone(&shape));
                }
                (shape, Some(miss))
            }
        };
        stats.ucq_disjuncts += shape.rewriting.len();
        let (binding, unfold_stats) = shape.bind(constants);
        stats.sql_disjuncts += unfold_stats.emitted;

        // What a cached result depends on: the base tables the unfolded SQL
        // reads. A BGP every branch of which its constants prune (or that
        // some term leaves unmapped) reads nothing: no row insert can make
        // it non-empty — mappings are immutable — so its dependency set is
        // empty.
        let statement = shape.statement.as_ref().filter(|_| !binding.prunes_all());
        let tables_read: BTreeSet<String> = match statement {
            Some(_) => shape
                .tables
                .iter()
                .map(|(table, _)| table.clone())
                .collect(),
            None => BTreeSet::new(),
        };
        let solutions = match statement {
            None => SolutionSet {
                vars,
                rows: Vec::new(),
            },
            Some(statement) => {
                stats.semi_joins_pushed += semi_joins.len();
                let mut exec_span = self.tracer.map(|t| t.span(bgp_id, "exec"));
                let exec_id = exec_span.as_ref().map(|s| s.id());
                let tables = if semi_joins.is_empty() {
                    let prepared = Prepared {
                        shape: shape.id,
                        statement: Arc::clone(statement),
                        binding,
                    };
                    let (tables, built) =
                        self.execute_prepared(&shape, prepared, exec_id, stats)?;
                    if built && miss.is_none() {
                        miss = Some(ShapeMiss::Layout);
                    }
                    tables
                } else {
                    // A restriction's values are the execution's own: the
                    // bound statement is planned with them, for this
                    // execution only.
                    miss = miss.or(Some(ShapeMiss::Restricted));
                    let bound = bound_statement(statement, &binding);
                    self.execute_statement(bound, &semi_joins, exec_id, stats)?
                };
                if let Some(span) = exec_span.as_mut() {
                    span.set_attr("rows", tables.iter().map(Table::len).sum::<usize>());
                }
                drop(exec_span);

                if vars.is_empty() {
                    // Constant-only BGP: satisfiable iff any row came back.
                    if tables.iter().any(|t| !t.is_empty()) {
                        SolutionSet::unit()
                    } else {
                        SolutionSet::empty()
                    }
                } else {
                    // Certain-answer semantics: a UCQ's answers are the *set*
                    // union of its disjuncts' answers, so duplicates across
                    // `UNION ALL` branches / fragments (one sensor reachable
                    // through several mappings) collapse in the merge.
                    solutions_from_tables(vars, tables)
                }
            }
        };
        match miss {
            None => stats.shape_hits += 1,
            Some(_) => stats.shape_misses += 1,
        }
        if let Some(shapes) = self.shapes {
            shapes.record(miss);
        }
        if let Some(span) = bgp_span.as_mut() {
            span.set_attr("shape", if miss.is_none() { "hit" } else { "miss" });
            if let Some(miss) = miss {
                span.set_attr("shape_miss", miss.as_str());
            }
        }
        stats.actual_rows += solutions.len() as u64;
        if let Some(span) = bgp_span.as_mut() {
            span.set_attr("rows", solutions.len());
        }

        if let Some((cache, versions)) = self.cache {
            // A restricted execution materializes a *subset* of the BGP's
            // solutions: it caches under the restriction-fingerprinted key,
            // never the plain one. The stamp carries this snapshot's
            // versions, so a write that landed since the snapshot was taken
            // leaves the entry unmatchable for post-write readers.
            if let Some(key) = restricted_key.or(plain_key) {
                cache.store_versioned(key, solutions.clone(), versions, tables_read);
            }
        }
        Ok(solutions)
    }

    /// Builds the shape of a BGP over `vars` and `atoms`: PerfectRef, then
    /// unfolding with `constants` as parameters — the one place either
    /// runs.
    fn prepare_shape(
        &self,
        vars: &[String],
        atoms: &[Atom],
        constants: &[Term],
        bgp_id: Option<SpanId>,
        stats: &mut PipelineStats,
    ) -> Result<Shape, SparqlError> {
        let cq = ConjunctiveQuery::new(vars.to_vec(), atoms.to_vec());
        let rewrite_span = self.tracer.map(|t| t.span(bgp_id, "rewrite"));
        let (ucq, _) = rewrite(&cq, self.ontology, &self.rewrite_settings)
            .map_err(|e| SparqlError::execution(format!("enrichment failed: {e}")))?;
        stats.rewrites += 1;
        if let Some(mut span) = rewrite_span {
            span.set_attr("ucq_disjuncts", ucq.len());
            span.finish();
        }

        let unfold_span = self.tracer.map(|t| t.span(bgp_id, "unfold"));
        let unfolded = unfold_prepared(&ucq, self.mappings, &self.unfold_settings, constants)
            .map_err(|e| SparqlError::execution(format!("unfolding failed: {e}")))?;
        stats.unfolds += 1;
        if let Some(mut span) = unfold_span {
            span.set_attr("sql_disjuncts", unfolded.stats.emitted);
            span.finish();
        }
        Ok(Shape::new(ucq, unfolded, self.db))
    }

    /// Runs one bound shape: on the distributed executor as one prepared
    /// fragment — the pool binds the plans it holds for the shape — or on
    /// the local engine through the shape's single-node plan. Returns the
    /// tables to merge and whether a plan was built for the shape.
    fn execute_prepared(
        &self,
        shape: &Shape,
        prepared: Prepared,
        parent: Option<SpanId>,
        stats: &mut PipelineStats,
    ) -> Result<(Vec<Table>, bool), SparqlError> {
        match self.executor {
            Some(_) => {
                let fragment = PlanFragment::from_prepared(0, Arc::new(prepared), 1.0);
                let built_before = stats.plans_built;
                let tables = self.execute_fragment(fragment, parent, stats)?;
                Ok((tables, stats.plans_built > built_before))
            }
            None => {
                let sql_span = self.tracer.map(|t| t.span(parent, "sql"));
                let failed = |e: optique_relational::SqlError| {
                    SparqlError::execution(format!("SQL execution failed: {e}"))
                };
                let (plan, built) = shape
                    .local_plan(&prepared.binding, self.db)
                    .map_err(failed)?;
                stats.plans_built += usize::from(built);
                let (table, counts) =
                    optique_relational::exec::execute_counted(&plan, self.db).map_err(failed)?;
                if let Some(mut span) = sql_span {
                    span.set_attr("rows", table.len());
                    span.set_attr("plan", if built { "built" } else { "shared" });
                    span.set_attr("scans", counts.scans);
                    span.set_attr("scans_shared", counts.scans_shared);
                    span.set_attr("rows_scanned", counts.rows_scanned);
                    span.finish();
                }
                stats.fragment_rows += table.len();
                Ok((vec![table], built))
            }
        }
    }

    /// Runs one BGP's fragment on the distributed executor, pinned at the
    /// coordinator snapshot's novelty epoch — every worker resolves the same
    /// overlay, so one round never mixes pre- and post-append rows.
    fn execute_fragment(
        &self,
        fragment: PlanFragment,
        parent: Option<SpanId>,
        stats: &mut PipelineStats,
    ) -> Result<Vec<Table>, SparqlError> {
        let executor = self.executor.expect("a distributed pipeline");
        let fragment = fragment.at_epoch(self.db.novelty_epoch());
        // The round's worker spans are recorded relative to its own
        // start; capture that instant on the tracer's clock so the
        // graft lands them under the exec span at the right offset.
        let round_base = self.tracer.map(|t| t.now_us());
        let failed = |e: String| SparqlError::execution(format!("federated execution failed: {e}"));
        let round = executor.execute(vec![fragment]).map_err(failed)?;
        if let (Some(tracer), Some(base)) = (self.tracer, round_base) {
            tracer.graft(parent, base, &round.spans);
        }
        stats.fragments += round.statements;
        stats.coordinator_fallbacks += round.coordinator_fallbacks;
        stats.partitioned_fragments += round.partitioned_fragments;
        stats.replicated_fallbacks += round.replicated_fallbacks;
        stats.shards_pruned += round.shards_pruned;
        stats.plan_cache_hits += round.plan_cache_hits;
        stats.plan_cache_misses += round.plan_cache_misses;
        stats.regroups += round.regroups;
        stats.plans_built += round.plans_built;
        let tables = (round.tables.into_iter())
            .collect::<Result<Vec<Table>, String>>()
            .map_err(failed)?;
        stats.fragment_rows += tables.iter().map(Table::len).sum::<usize>();
        Ok(tables)
    }

    /// Runs one unfolded `UNION ALL` statement: on the distributed executor
    /// as one fragment when one is attached, on the local engine
    /// otherwise. Semi-join restrictions ride on the fragment (federated)
    /// or wrap the statement structurally (single-node) — value lists are
    /// never spliced into SQL text. Returns the result tables to merge.
    fn execute_statement(
        &self,
        statement: SelectStatement,
        semi_joins: &[SemiJoin],
        parent: Option<SpanId>,
        stats: &mut PipelineStats,
    ) -> Result<Vec<Table>, SparqlError> {
        match self.executor {
            Some(_) => {
                // The fragment carries the unfolder's AST as is — nothing
                // prints or re-parses it on the way to a worker — and the
                // executor costs the disjuncts it regroups.
                let fragment = PlanFragment::from_statement(0, statement, 1.0)
                    .with_semi_joins(semi_joins.to_vec());
                self.execute_fragment(fragment, parent, stats)
            }
            None => {
                let sql_span = self.tracer.map(|t| t.span(parent, "sql"));
                let restricted =
                    optique_relational::fragment::restrict_statement(statement, semi_joins);
                let (table, counts) =
                    optique_relational::execute_prepared_counted(&restricted, self.db).map_err(
                        |e| SparqlError::execution(format!("SQL execution failed: {e}")),
                    )?;
                stats.plans_built += 1;
                if let Some(mut span) = sql_span {
                    span.set_attr("rows", table.len());
                    span.set_attr("scans", counts.scans);
                    span.set_attr("scans_shared", counts.scans_shared);
                    span.set_attr("rows_scanned", counts.rows_scanned);
                    span.finish();
                }
                stats.fragment_rows += table.len();
                Ok(vec![table])
            }
        }
    }
}

/// `statement` bound: its parameters in place, its pruned branches gone
/// (the caller checked that some branch is live).
fn bound_statement(statement: &SelectStatement, binding: &Binding) -> SelectStatement {
    bind_statement(statement, binding).expect("a live branch")
}

/// True when a batched operand contains no `OPTIONAL` anywhere — the
/// precondition for pushing a semi-join restriction into it.
fn element_is_optional_free(element: &PatternElement) -> bool {
    match element {
        PatternElement::Triples(_) | PatternElement::Values(_) => true,
        PatternElement::SubGroup(inner) => !inner.contains_optional(),
        PatternElement::Union(branches) => branches.iter().all(|b| !b.contains_optional()),
        _ => false,
    }
}

/// The variables one inner-joinable element can bind.
fn element_vars(element: &PatternElement) -> Vec<String> {
    match element {
        PatternElement::Triples(atoms) => bgp_variables(atoms),
        PatternElement::SubGroup(inner) => inner.variables(),
        PatternElement::Union(branches) => {
            let mut out: Vec<String> = Vec::new();
            for branch in branches {
                for v in branch.variables() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            out
        }
        PatternElement::Values(block) => block.vars.clone(),
        _ => Vec::new(),
    }
}

/// Splits an unfolded `UNION ALL` chain into its disjunct statements, by
/// move — the inverse of the unfolder's chaining, and what a federation
/// classifies and regroups.
pub fn split_union_chain(statement: SelectStatement) -> Vec<SelectStatement> {
    let mut out = Vec::new();
    let mut cursor = Some(statement);
    while let Some(mut stmt) = cursor {
        cursor = stmt.union_all.take().map(|next| *next);
        out.push(stmt);
    }
    out
}

/// Translates a SPARQL `FILTER` expression into a relational [`Expr`] over
/// SQL columns. `lookup` maps a SPARQL variable to the SQL expression that
/// produces it (typically a projection of the unfolded statement). Only the
/// SQL-expressible fragment translates: comparisons, `&&`/`||`/`!`,
/// arithmetic, variables and constants. `REGEX`/`BOUND` (and anything else
/// engine-specific) is rejected — those stay in the residual algebra.
pub fn expression_to_sql(
    expr: &Expression,
    lookup: &dyn Fn(&str) -> Option<Expr>,
) -> Result<Expr, String> {
    match expr {
        Expression::Var(v) => {
            lookup(v).ok_or_else(|| format!("?{v} has no SQL column in this statement"))
        }
        Expression::Const(term) => Ok(Expr::Literal(term_to_value(term))),
        Expression::And(a, b) => Ok(Expr::binary(
            BinOp::And,
            expression_to_sql(a, lookup)?,
            expression_to_sql(b, lookup)?,
        )),
        Expression::Or(a, b) => Ok(Expr::binary(
            BinOp::Or,
            expression_to_sql(a, lookup)?,
            expression_to_sql(b, lookup)?,
        )),
        Expression::Not(a) => Ok(Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(expression_to_sql(a, lookup)?),
        }),
        Expression::Compare(op, a, b) => {
            let op = match op {
                ComparisonOperator::Eq => BinOp::Eq,
                ComparisonOperator::Ne => BinOp::Ne,
                ComparisonOperator::Lt => BinOp::Lt,
                ComparisonOperator::Le => BinOp::Le,
                ComparisonOperator::Gt => BinOp::Gt,
                ComparisonOperator::Ge => BinOp::Ge,
            };
            Ok(Expr::binary(
                op,
                expression_to_sql(a, lookup)?,
                expression_to_sql(b, lookup)?,
            ))
        }
        Expression::Arithmetic(op, a, b) => {
            let op = match op {
                ArithmeticOperator::Add => BinOp::Add,
                ArithmeticOperator::Sub => BinOp::Sub,
                ArithmeticOperator::Mul => BinOp::Mul,
                ArithmeticOperator::Div => BinOp::Div,
            };
            Ok(Expr::binary(
                op,
                expression_to_sql(a, lookup)?,
                expression_to_sql(b, lookup)?,
            ))
        }
        Expression::Regex { .. } => Err("FILTER REGEX has no SQL translation".into()),
        Expression::Bound(_) => Err("FILTER BOUND has no SQL translation".into()),
    }
}

/// Lowers a constant RDF term to a SQL value (IRIs travel as their text,
/// matching how mapping templates mint them).
fn term_to_value(term: &Term) -> Value {
    match term {
        Term::Iri(iri) => Value::text(iri.as_str()),
        Term::BNode(id) => Value::text(format!("_:b{id}")),
        Term::Literal(lit) => optique_mapping::virtualize::literal_to_value(lit),
    }
}

/// Variables of a BGP in first-seen order — the CQ's answer signature.
fn bgp_variables(atoms: &[Atom]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for atom in atoms {
        for term in atom.terms() {
            if let QueryTerm::Var(v) = term {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
        }
    }
    out
}

/// Lifts a SQL value back into an RDF term. Mapping templates mint IRIs as
/// text, so text that looks like an IRI becomes one (the same convention
/// the unfolding oracle tests use); everything else stays a typed literal.
pub fn value_to_term(value: &Value) -> Option<Term> {
    match value {
        Value::Null => None,
        Value::Int(i) => Some(Term::Literal(Literal::integer(*i))),
        Value::Float(f) => Some(Term::Literal(Literal::double(*f))),
        Value::Bool(b) => Some(Term::Literal(Literal::boolean(*b))),
        Value::Timestamp(t) => Some(Term::Literal(Literal::datetime_millis(*t))),
        Value::Text(s) => {
            // Interned text decodes zero-copy: the RDF term shares the
            // dictionary's allocation instead of copying per result cell.
            if s.contains("://") || s.starts_with("urn:") {
                Some(Term::Iri(Iri::from_shared(s.text_arc())))
            } else {
                Some(Term::Literal(Literal::string_shared(s.text_arc())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_mapping::{MappingAssertion, TermMap};
    use optique_ontology::{Axiom, BasicConcept};
    use optique_rdf::{Datatype, Iri, Namespaces};
    use optique_relational::{table::table_of, ColumnType};

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn ns() -> Namespaces {
        let mut ns = Namespaces::with_w3c_defaults();
        ns.bind("x", "http://x/");
        ns
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[
                    ("tid", ColumnType::Int),
                    ("model", ColumnType::Text),
                    ("kind", ColumnType::Text),
                ],
                vec![
                    vec![Value::Int(1), Value::text("SGT-400"), Value::text("gas")],
                    vec![Value::Int(2), Value::text("SGT-800"), Value::text("gas")],
                    vec![Value::Int(3), Value::text("SST-600"), Value::text("steam")],
                ],
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("tid", ColumnType::Int)],
                vec![
                    vec![Value::Int(10), Value::Int(1)],
                    vec![Value::Int(11), Value::Int(1)],
                    vec![Value::Int(12), Value::Int(2)],
                ],
            )
            .unwrap(),
        );
        db
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::subclass(
            BasicConcept::atomic(iri("GasTurbine")),
            BasicConcept::atomic(iri("Turbine")),
        ));
        o.declare_data_property(iri("hasModel"));
        o
    }

    fn catalog() -> MappingCatalog {
        let mut c = MappingCatalog::new();
        c.add(
            MappingAssertion::class(
                "gas",
                iri("GasTurbine"),
                "SELECT tid FROM turbines WHERE kind = 'gas'",
                TermMap::template("http://x/turbine/{tid}"),
            )
            .with_key(vec!["tid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::class(
                "steam",
                iri("Turbine"),
                "SELECT tid FROM turbines WHERE kind = 'steam'",
                TermMap::template("http://x/turbine/{tid}"),
            )
            .with_key(vec!["tid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::property(
                "model",
                iri("hasModel"),
                "SELECT tid, model FROM turbines",
                TermMap::template("http://x/turbine/{tid}"),
                TermMap::column("model", Datatype::String),
            )
            .with_key(vec!["tid".into()]),
        )
        .unwrap();
        c.add(
            MappingAssertion::property(
                "attached",
                iri("attachedTo"),
                "SELECT sid, tid FROM sensors",
                TermMap::template("http://x/sensor/{sid}"),
                TermMap::template("http://x/turbine/{tid}"),
            )
            .with_key(vec!["sid".into(), "tid".into()]),
        )
        .unwrap();
        c
    }

    fn answer(text: &str) -> (SparqlResults, PipelineStats) {
        let db = db();
        let onto = ontology();
        let maps = catalog();
        let pipeline = StaticPipeline::new(&onto, &maps, &db);
        let query = crate::parse_sparql(text, &ns()).unwrap();
        pipeline.answer(&query).unwrap()
    }

    /// A loopback fragment executor: runs every fragment on the local
    /// database, after a full wire round trip of the fragment text —
    /// exactly what a worker pool does, minus the threads.
    struct Loopback {
        db: Database,
    }

    impl FragmentExecutor for Loopback {
        fn execute(&self, fragments: Vec<PlanFragment>) -> Result<FragmentRound, String> {
            let tables: Vec<_> = fragments
                .into_iter()
                .map(|f| {
                    let decoded = PlanFragment::decode(&f.encode()).map_err(|e| e.to_string())?;
                    decoded.execute(&self.db).map_err(|e| e.to_string())
                })
                .collect();
            Ok(FragmentRound {
                statements: tables.len(),
                tables,
                ..FragmentRound::default()
            })
        }
    }

    #[test]
    fn rewriting_reaches_subclasses() {
        // Turbine(x): the direct mapping only covers steam turbines;
        // PerfectRef adds GasTurbine ⊑ Turbine, reaching all three.
        let (r, stats) = answer("SELECT ?t WHERE { ?t a x:Turbine }");
        assert_eq!(r.len(), 3);
        assert!(stats.ucq_disjuncts >= 2, "enrichment added a disjunct");
    }

    #[test]
    fn join_filter_order_limit() {
        let (r, _) = answer(
            "SELECT ?t ?m WHERE { ?t a x:Turbine ; x:hasModel ?m . \
             FILTER(REGEX(?m, \"^SGT\")) } ORDER BY DESC(?m) LIMIT 1",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.value(0, "m"),
            Some(Term::Literal(Literal::string("SGT-800")))
        );
    }

    #[test]
    fn optional_binds_where_present() {
        // Sensors are attached to turbines 1 and 2; turbine 3 has none.
        let (r, _) = answer(
            "SELECT ?t ?s WHERE { ?t a x:Turbine . \
             OPTIONAL { ?s x:attachedTo ?t } } ORDER BY ?t",
        );
        assert_eq!(r.len(), 4, "3 attachments + 1 bare turbine");
        let unbound = r.rows().iter().filter(|row| row[1].is_none()).count();
        assert_eq!(unbound, 1);
    }

    #[test]
    fn union_merges_branches() {
        let (r, _) =
            answer("SELECT ?x WHERE { { ?x a x:GasTurbine } UNION { ?s x:attachedTo ?x } }");
        // 2 gas turbines + 3 attachment targets (turbines 1, 1, 2).
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn distinct_dedups() {
        let (r, _) = answer(
            "SELECT DISTINCT ?x WHERE { { ?x a x:GasTurbine } UNION { ?s x:attachedTo ?x } }",
        );
        assert_eq!(r.len(), 2, "turbines 1 and 2");
    }

    #[test]
    fn aggregates_group_and_count() {
        let (r, _) = answer(
            "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s x:attachedTo ?t } \
             GROUP BY ?t ORDER BY DESC(?n)",
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "n"), Some(Term::Literal(Literal::integer(2))));
    }

    #[test]
    fn ask_true_and_false() {
        let (r, _) = answer("ASK { ?s x:attachedTo <http://x/turbine/1> }");
        assert_eq!(r.as_bool(), Some(true));
        let (r, _) = answer("ASK { ?s x:attachedTo <http://x/turbine/3> }");
        assert_eq!(r.as_bool(), Some(false));
    }

    #[test]
    fn unmapped_class_is_empty_not_an_error() {
        let (r, _) = answer("SELECT ?x WHERE { ?x a x:Unmapped }");
        assert!(r.is_empty());
    }

    #[test]
    fn stats_track_pipeline_stages() {
        let (_, stats) = answer("SELECT ?t ?m WHERE { ?t a x:Turbine ; x:hasModel ?m }");
        assert_eq!(stats.bgps, 1);
        assert!(stats.sql_disjuncts >= 2);
        assert!(stats.rows > 0);
    }

    fn answer_with(
        text: &str,
        executor: Option<&dyn FragmentExecutor>,
    ) -> (SparqlResults, PipelineStats) {
        let db = db();
        let onto = ontology();
        let maps = catalog();
        let mut pipeline = StaticPipeline::new(&onto, &maps, &db);
        pipeline.executor = executor;
        let query = crate::parse_sparql(text, &ns()).unwrap();
        pipeline.answer(&query).unwrap()
    }

    fn canonical(r: &SparqlResults) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = r
            .rows()
            .iter()
            .map(|row| row.iter().map(|t| format!("{t:?}")).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn fragmented_execution_matches_single_node() {
        let queries = [
            "SELECT ?t WHERE { ?t a x:Turbine }",
            "SELECT ?t ?m WHERE { ?t a x:Turbine ; x:hasModel ?m . \
             FILTER(REGEX(?m, \"^SGT\")) } ORDER BY ?m",
            "SELECT ?t ?s WHERE { ?t a x:Turbine . OPTIONAL { ?s x:attachedTo ?t } }",
            "SELECT DISTINCT ?x WHERE { { ?x a x:GasTurbine } UNION { ?s x:attachedTo ?x } }",
            "ASK { ?s x:attachedTo <http://x/turbine/1> }",
        ];
        let loopback = Loopback { db: db() };
        for text in queries {
            let (single, _) = answer_with(text, None);
            let (fragmented, stats) = answer_with(text, Some(&loopback));
            assert_eq!(canonical(&single), canonical(&fragmented), "{text}");
            assert!(stats.fragments >= 1, "{text} shipped no fragments");
        }
    }

    #[test]
    fn cache_hits_on_repeated_bgp() {
        let db = db();
        let onto = ontology();
        let maps = catalog();
        let cache = BgpCache::new();
        let versions = TableVersions::new();
        let pipeline = StaticPipeline::new(&onto, &maps, &db).with_cache(&cache, &versions);
        // The same BGP appears in both UNION branches: first is a miss, the
        // second hits within the very same query.
        let text = "SELECT ?x WHERE { { ?x a x:Turbine } UNION { ?x a x:Turbine } }";
        let query = crate::parse_sparql(text, &ns()).unwrap();
        let (_, stats) = pipeline.answer(&query).unwrap();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        // Re-running the whole query now hits for every BGP.
        let (_, stats) = pipeline.answer(&query).unwrap();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cached_results_stay_correct() {
        let db = db();
        let onto = ontology();
        let maps = catalog();
        let cache = BgpCache::new();
        let versions = TableVersions::new();
        let pipeline = StaticPipeline::new(&onto, &maps, &db).with_cache(&cache, &versions);
        let query = crate::parse_sparql("SELECT ?t WHERE { ?t a x:Turbine }", &ns()).unwrap();
        let (cold, _) = pipeline.answer(&query).unwrap();
        let (warm, _) = pipeline.answer(&query).unwrap();
        assert_eq!(canonical(&cold), canonical(&warm));
        assert_eq!(warm.len(), 3);
    }

    /// Novelty-overlay rows answer through both backends: single-node scans
    /// merge the overlay directly, and fragments pin the coordinator
    /// snapshot's epoch so a worker holding only the *base* catalog
    /// resolves the same overlay from the epoch registry.
    #[test]
    fn novelty_overlay_rows_reach_both_backends() {
        use optique_relational::NoveltyOverlay;
        let mut overlaid = db();
        let overlay = NoveltyOverlay::empty().with_rows(
            "turbines",
            vec![vec![
                Value::Int(4),
                Value::text("SGT-750"),
                Value::text("gas"),
            ]],
        );
        overlaid.set_novelty(Some(overlay));
        let onto = ontology();
        let maps = catalog();
        let query = crate::parse_sparql("SELECT ?t WHERE { ?t a x:Turbine }", &ns()).unwrap();

        let (single, _) = StaticPipeline::new(&onto, &maps, &overlaid)
            .answer(&query)
            .unwrap();
        assert_eq!(single.len(), 4, "overlay turbine joins the base three");

        // The worker's catalog has no overlay installed — the pinned epoch
        // on the wire is its only path to the appended row.
        let loopback = Loopback { db: db() };
        let (fragmented, stats) = StaticPipeline::new(&onto, &maps, &overlaid)
            .with_executor(&loopback)
            .answer(&query)
            .unwrap();
        assert!(stats.fragments >= 1);
        assert_eq!(canonical(&single), canonical(&fragmented));
    }

    /// Two adjacent groups force a residual join; with the planner on, the
    /// selective class scan runs first and its bindings restrict the
    /// sibling BGP's fragments.
    #[test]
    fn semi_join_pushdown_shrinks_fragment_rows() {
        let text = "SELECT ?t ?m WHERE { { ?t x:hasModel ?m } { ?t a x:GasTurbine } }";
        let loopback = Loopback { db: db() };

        let naive = {
            let db = db();
            let onto = ontology();
            let maps = catalog();
            let pipeline = StaticPipeline::new(&onto, &maps, &db)
                .with_executor(&loopback)
                .with_planner(PlannerSettings::disabled());
            let query = crate::parse_sparql(text, &ns()).unwrap();
            pipeline.answer(&query).unwrap()
        };
        let optimized = {
            let db = db();
            let onto = ontology();
            let maps = catalog();
            let stats = optique_relational::StatsCatalog::analyze(&db);
            let pipeline = StaticPipeline::new(&onto, &maps, &db)
                .with_executor(&loopback)
                .with_table_stats(&stats);
            let query = crate::parse_sparql(text, &ns()).unwrap();
            pipeline.answer(&query).unwrap()
        };

        assert_eq!(canonical(&naive.0), canonical(&optimized.0));
        assert_eq!(naive.1.semi_joins_pushed, 0);
        assert_eq!(naive.1.join_reorders, 0);
        assert_eq!(naive.1.estimated_rows, 0, "naive mode never estimates");
        assert!(
            optimized.1.join_reorders >= 1,
            "hasModel (3 rows) must yield to GasTurbine (2 rows): {:?}",
            optimized.1
        );
        assert!(
            optimized.1.semi_joins_pushed >= 1,
            "gas-turbine bindings must restrict the hasModel BGP: {:?}",
            optimized.1
        );
        assert!(
            optimized.1.fragment_rows < naive.1.fragment_rows,
            "pushdown must shrink what fragments return: {} !< {}",
            optimized.1.fragment_rows,
            naive.1.fragment_rows
        );
        assert!(optimized.1.estimated_rows > 0);
        assert!(optimized.1.actual_rows > 0);
    }

    /// A shape cached over one catalog misses with reason `schema` over a
    /// catalog whose table has another schema — here `turbines.tid` TEXT
    /// instead of INT, where the INT plan would lower the constant to the
    /// integer key 1 and match no TEXT key — and answers what a pipeline
    /// without shapes answers; over the first catalog it hits.
    #[test]
    fn a_schema_change_misses_the_shape() {
        use optique_telemetry::{render_tree, Tracer};
        let onto = ontology();
        let maps = catalog();
        let shapes = ShapeCache::new();
        let text_keyed = {
            let mut db = db();
            let rows = ["1", "2", "3"]
                .iter()
                .zip(["SGT-400", "SGT-800", "SST-600"])
                .map(|(tid, model)| vec![Value::text(*tid), Value::text(model), Value::text("gas")])
                .collect();
            let schema = [
                ("tid", ColumnType::Text),
                ("model", ColumnType::Text),
                ("kind", ColumnType::Text),
            ];
            db.put_table("turbines", table_of("turbines", &schema, rows).unwrap());
            db
        };
        let int_keyed = db();
        let query = |k: u32| {
            let text = format!("SELECT ?m WHERE {{ <http://x/turbine/{k}> x:hasModel ?m }}");
            crate::parse_sparql(&text, &ns()).unwrap()
        };
        let run = |db: &Database, k: u32| {
            let tracer = Tracer::new();
            let pipeline = StaticPipeline::new(&onto, &maps, db)
                .with_shapes(&shapes)
                .with_tracer(&tracer, None);
            let (got, _) = pipeline.answer(&query(k)).unwrap();
            let (want, _) = StaticPipeline::new(&onto, &maps, db)
                .answer(&query(k))
                .unwrap();
            assert_eq!(canonical(&got), canonical(&want));
            assert_eq!(got.len(), 1, "turbine {k} has one model");
            let tree = render_tree(&tracer.spans());
            let miss = |reason: &str| tree.contains(&format!("shape_miss={reason}"));
            match (
                tree.contains("shape=hit"),
                ["new", "schema"].into_iter().find(|r| miss(r)),
            ) {
                (true, None) => "hit",
                (false, Some(reason)) => reason,
                _ => panic!("no shape outcome:\n{tree}"),
            }
        };
        assert_eq!(run(&int_keyed, 1), "new");
        assert_eq!(run(&int_keyed, 2), "hit");
        assert_eq!(run(&text_keyed, 1), "schema");
        assert_eq!(run(&text_keyed, 3), "hit");
        assert_eq!(run(&int_keyed, 3), "schema");
    }

    /// Restricted executions cache under restriction-fingerprinted keys —
    /// a restricted subset must never answer an unrestricted lookup.
    #[test]
    fn restricted_results_do_not_poison_the_cache() {
        let db = db();
        let onto = ontology();
        let maps = catalog();
        let cache = BgpCache::new();
        let versions = TableVersions::new();
        let pipeline = StaticPipeline::new(&onto, &maps, &db).with_cache(&cache, &versions);
        // The join pushes the 2 gas-turbine bindings into `?t x:hasModel ?m`.
        let joined = crate::parse_sparql(
            "SELECT ?t ?m WHERE { { ?t a x:GasTurbine } { ?t x:hasModel ?m } }",
            &ns(),
        )
        .unwrap();
        let (_, s) = pipeline.answer(&joined).unwrap();
        assert!(s.semi_joins_pushed >= 1);
        // Alone, the same BGP must still return all 3 models, not the
        // cached restricted pair.
        let alone = crate::parse_sparql("SELECT ?t ?m WHERE { ?t x:hasModel ?m }", &ns()).unwrap();
        let (r, _) = pipeline.answer(&alone).unwrap();
        assert_eq!(r.len(), 3, "restricted cache entry leaked into plain use");
        // Re-running the join hits the restricted entry.
        let (_, warm) = pipeline.answer(&joined).unwrap();
        assert!(warm.cache_hits >= 2, "{warm:?}");
    }

    /// Regression: a restriction must never cross into a subtree holding an
    /// OPTIONAL. Pruning the nested OPTIONAL's BGP (t = turbine/3, outside
    /// the gas-turbine set) would flip its match into an unbound survivor
    /// that joins every gas turbine — 6 spurious rows where the naive plan
    /// returns 0.
    #[test]
    fn restriction_never_crosses_into_optional_subtrees() {
        let text = "SELECT ?t ?u ?m WHERE { { ?t a x:GasTurbine } \
                    { { ?u x:hasModel ?m } OPTIONAL { ?t x:hasModel \"SST-600\" } } }";
        let (naive, _) = {
            let db = db();
            let onto = ontology();
            let maps = catalog();
            let pipeline =
                StaticPipeline::new(&onto, &maps, &db).with_planner(PlannerSettings::disabled());
            let query = crate::parse_sparql(text, &ns()).unwrap();
            pipeline.answer(&query).unwrap()
        };
        let (planned, _) = answer(text);
        assert_eq!(
            canonical(&naive),
            canonical(&planned),
            "pushdown through an OPTIONAL subtree changed the answer"
        );
    }

    /// An empty operand short-circuits the rest of the batch when the
    /// planner is on — and both modes agree on the (empty) answer.
    #[test]
    fn empty_join_input_short_circuits() {
        let text = "SELECT ?t ?m WHERE { { ?t a x:Unmapped } { ?t x:hasModel ?m } }";
        let (naive, ns_stats) = {
            let db = db();
            let onto = ontology();
            let maps = catalog();
            let pipeline =
                StaticPipeline::new(&onto, &maps, &db).with_planner(PlannerSettings::disabled());
            let query = crate::parse_sparql(text, &ns()).unwrap();
            pipeline.answer(&query).unwrap()
        };
        let (optimized, opt_stats) = answer(text);
        assert!(naive.is_empty());
        assert!(optimized.is_empty());
        assert_eq!(ns_stats.bgps, 2, "naive evaluates both operands");
        assert!(
            opt_stats.bgps <= ns_stats.bgps,
            "planner may prune after the empty input"
        );
    }

    #[test]
    fn values_joins_inline_bindings() {
        // Full form with a two-variable block.
        let (r, _) = answer(
            "SELECT ?t ?m WHERE { ?t x:hasModel ?m . \
             VALUES (?t) { (<http://x/turbine/1>) (<http://x/turbine/3>) } }",
        );
        assert_eq!(r.len(), 2, "two anchored turbines keep their models");
        // Single-variable short form.
        let (r, _) =
            answer("SELECT ?t ?m WHERE { VALUES ?t { <http://x/turbine/2> } ?t x:hasModel ?m }");
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.value(0, "m"),
            Some(Term::Literal(Literal::string("SGT-800")))
        );
        // UNDEF joins with anything.
        let (r, _) = answer(
            "SELECT ?t ?m WHERE { ?t x:hasModel ?m . \
             VALUES (?t ?m) { (<http://x/turbine/1> UNDEF) } }",
        );
        assert_eq!(r.len(), 1);
    }

    /// A VALUES block is an exact-cardinality operand: the planner orders
    /// it first and pushes its bindings into the sibling BGP as a
    /// semi-join restriction — the anchor the streaming oracle's generator
    /// uses for window joins.
    #[test]
    fn values_anchor_drives_semi_join_pushdown() {
        let db = db();
        let onto = ontology();
        let maps = catalog();
        let stats = optique_relational::StatsCatalog::analyze(&db);
        let pipeline = StaticPipeline::new(&onto, &maps, &db).with_table_stats(&stats);
        let query = crate::parse_sparql(
            "SELECT ?t ?m WHERE { { ?t x:hasModel ?m } \
             VALUES ?t { <http://x/turbine/1> } }",
            &ns(),
        )
        .unwrap();
        let (r, s) = pipeline.answer(&query).unwrap();
        assert_eq!(r.len(), 1);
        assert!(s.join_reorders >= 1, "VALUES (1 row) runs first: {s:?}");
        assert!(s.semi_joins_pushed >= 1, "anchor restricts the BGP: {s:?}");
    }

    #[test]
    fn values_parse_errors_are_positioned() {
        for bad in [
            "SELECT ?x WHERE { VALUES { 1 } }",
            "SELECT ?x WHERE { VALUES (?x) { (1 2) } }",
            "SELECT ?x WHERE { VALUES (?x) { (?y) } }",
            "SELECT ?x WHERE { VALUES () { } }",
        ] {
            assert!(crate::parse_sparql(bad, &ns()).is_err(), "{bad}");
        }
    }

    #[test]
    fn split_union_chain_round_trips() {
        let sql = "SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL SELECT c FROM v";
        let statement = optique_relational::parse_select(sql).unwrap();
        let parts = split_union_chain(statement);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.union_all.is_none()));
        assert!(parts[1].to_string().contains("FROM u"));
    }

    #[test]
    fn filter_expressions_translate_to_sql() {
        let lookup = |v: &str| -> Option<Expr> { (v == "v").then(|| Expr::col("u0.value")) };
        // ?v > 5 && !(?v = 9)
        let expr = Expression::And(
            Box::new(Expression::Compare(
                ComparisonOperator::Gt,
                Box::new(Expression::Var("v".into())),
                Box::new(Expression::Const(Term::Literal(Literal::integer(5)))),
            )),
            Box::new(Expression::Not(Box::new(Expression::Compare(
                ComparisonOperator::Eq,
                Box::new(Expression::Var("v".into())),
                Box::new(Expression::Const(Term::Literal(Literal::integer(9)))),
            )))),
        );
        let sql = expression_to_sql(&expr, &lookup).unwrap();
        assert_eq!(sql.to_string(), "((u0.value > 5) AND NOT ((u0.value = 9)))");
        // Unprojected variables and REGEX are rejected.
        assert!(expression_to_sql(&Expression::Var("w".into()), &lookup).is_err());
        assert!(expression_to_sql(
            &Expression::Regex {
                text: Box::new(Expression::Var("v".into())),
                pattern: "^x".into(),
                case_insensitive: false,
            },
            &lookup
        )
        .is_err());
    }

    /// `parts(code TEXT, at TIMESTAMP, load FLOAT, num INT)`: key columns
    /// whose values *look* like another type's (`"123"`), or whose rendering
    /// is not their SQL spelling (`@5`).
    fn typed_keys() -> (Database, MappingCatalog) {
        let mut db = Database::new();
        let row = |code: &str, at: i64, load: f64| {
            vec![
                Value::text(code),
                Value::Timestamp(at),
                Value::Float(load),
                Value::Int(at),
            ]
        };
        db.put_table(
            "parts",
            table_of(
                "parts",
                &[
                    ("code", ColumnType::Text),
                    ("at", ColumnType::Timestamp),
                    ("load", ColumnType::Float),
                    ("num", ColumnType::Int),
                ],
                vec![row("123", 5, 1.5), row("a7", 6, 2.0), row("", 7, -0.25)],
            )
            .unwrap(),
        );
        let mut c = MappingCatalog::new();
        for (class, column) in TYPED_CLASSES {
            c.add(MappingAssertion::class(
                class,
                iri(class),
                format!("SELECT {column} FROM parts"),
                TermMap::template(&format!("http://x/{column}/{{{column}}}")),
            ))
            .unwrap();
        }
        c.add(MappingAssertion::property(
            "stamped",
            iri("stampedAt"),
            "SELECT code, at FROM parts",
            TermMap::template("http://x/code/{code}"),
            TermMap::template("http://x/at/{at}"),
        ))
        .unwrap();
        (db, c)
    }

    /// The classes [`typed_keys`] maps, one per key column.
    const TYPED_CLASSES: [(&str, &str); 4] = [
        ("Part", "code"),
        ("Mark", "at"),
        ("Gauge", "load"),
        ("Lot", "num"),
    ];

    /// Regression: the unfolder guessed a constant IRI's key type from the
    /// look of its text, so `ASK { <http://x/code/123> a x:Part }` over a
    /// TEXT key holding `"123"` compared the column with the *integer* 123
    /// and answered false — while `SELECT ?p` returned that very IRI; a
    /// TIMESTAMP key's `@5` was compared as the text `'@5'`. For every IRI a
    /// SELECT returns, the ASK and the constant-subject / constant-object
    /// forms must agree with it. And an IRI no key of the column's type
    /// mints is absent, even when a key of another type would mint it: the
    /// TIMESTAMP 5 mints `…/at/@5`, not `…/at/5`, and the INT 5 mints
    /// `…/num/5`, not `…/num/@5` (readings of every type once matched both).
    #[test]
    fn constant_iris_agree_with_select_whatever_the_key_type() {
        let (db, maps) = typed_keys();
        let onto = Ontology::new();
        let pipeline = StaticPipeline::new(&onto, &maps, &db);
        let answer = |text: &str| {
            let query = crate::parse_sparql(text, &ns()).unwrap();
            pipeline.answer(&query).unwrap().0
        };
        let iris = |r: &SparqlResults, col: usize| -> Vec<String> {
            let cell = |row: &Vec<Option<Term>>| match &row[col] {
                Some(Term::Iri(i)) => i.as_str().to_string(),
                other => panic!("not an IRI: {other:?}"),
            };
            r.rows().iter().map(cell).collect()
        };
        for (class, _) in TYPED_CLASSES {
            let members = answer(&format!("SELECT ?p WHERE {{ ?p a x:{class} }}"));
            assert_eq!(members.len(), 3, "{class}");
            for member in iris(&members, 0) {
                let ask = answer(&format!("ASK {{ <{member}> a x:{class} }}"));
                assert_eq!(ask.as_bool(), Some(true), "{member}");
            }
        }
        let lots = iris(&answer("SELECT ?p WHERE { ?p a x:Lot }"), 0);
        assert!(lots.iter().any(|lot| lot == "http://x/num/5"), "{lots:?}");
        for (absent, class) in [
            ("http://x/code/124", "Part"),
            ("http://x/at/5", "Mark"),
            ("http://x/num/@5", "Lot"),
        ] {
            let ask = answer(&format!("ASK {{ <{absent}> a x:{class} }}"));
            assert_eq!(ask.as_bool(), Some(false), "{absent}");
        }
        let pairs = answer("SELECT ?p ?t WHERE { ?p x:stampedAt ?t }");
        for (part, mark) in iris(&pairs, 0).into_iter().zip(iris(&pairs, 1)) {
            let by_object = answer(&format!("SELECT ?p WHERE {{ ?p x:stampedAt <{mark}> }}"));
            assert_eq!(iris(&by_object, 0), [part.as_str()], "{mark}");
            let by_subject = answer(&format!("SELECT ?t WHERE {{ <{part}> x:stampedAt ?t }}"));
            assert_eq!(iris(&by_subject, 0), [mark.as_str()], "{part}");
        }
    }

    /// Regression: integers compared through a rounded `f64`, so the
    /// unfolded raw-key join `u0.sid = u1.sid` matched sensor 2^53 with
    /// sensor 2^53 + 1 — each sensor answered with both labels.
    #[test]
    fn raw_key_joins_tell_integers_past_2_pow_53_apart() {
        let big = 1i64 << 53;
        let mut db = Database::new();
        let sensors = vec![
            vec![Value::Int(big), Value::Int(1)],
            vec![Value::Int(big + 1), Value::Int(2)],
        ];
        let labels = vec![
            vec![Value::Int(big), Value::text("inlet")],
            vec![Value::Int(big + 1), Value::text("outlet")],
        ];
        let sid = ("sid", ColumnType::Int);
        db.put_table(
            "sensors",
            table_of("sensors", &[sid, ("tid", ColumnType::Int)], sensors).unwrap(),
        );
        db.put_table(
            "labels",
            table_of("labels", &[sid, ("label", ColumnType::Text)], labels).unwrap(),
        );
        let mut maps = catalog();
        maps.add(MappingAssertion::property(
            "label",
            iri("hasLabel"),
            "SELECT sid, label FROM labels",
            TermMap::template("http://x/sensor/{sid}"),
            TermMap::column("label", Datatype::String),
        ))
        .unwrap();
        let onto = ontology();
        let pipeline = StaticPipeline::new(&onto, &maps, &db);
        let query = crate::parse_sparql(
            "SELECT ?s ?t ?l WHERE { ?s x:attachedTo ?t ; x:hasLabel ?l }",
            &ns(),
        )
        .unwrap();
        let (answers, _) = pipeline.answer(&query).unwrap();
        let mut got = canonical(&answers);
        got.sort();
        let row = |sid: i64, tid: i64, label: &str| {
            vec![
                format!("Some(Iri(<http://x/sensor/{sid}>))"),
                format!("Some(Iri(<http://x/turbine/{tid}>))"),
                format!("Some(Literal(\"{label}\"))"),
            ]
        };
        assert_eq!(got, vec![row(big, 1, "inlet"), row(big + 1, 2, "outlet")]);
    }

    /// The `siemens_join` benchmark's query, for one turbine model.
    const SIEMENS_JOIN: &str = "PREFIX sie: <http://siemens.example/ontology#> \
        SELECT ?t ?a ?s WHERE { ?t sie:hasModel \"SGT-400\" . \
        { ?a sie:partOf ?t } \
        { ?a sie:inAssembly ?s . ?s a sie:TemperatureSensor } }";

    fn siemens() -> optique_siemens::SiemensDeployment {
        let fleet = optique_siemens::FleetConfig {
            turbines: 8,
            assemblies_per_turbine: 4,
            sensors_per_assembly: 14,
            seed: 1,
        };
        optique_siemens::SiemensDeployment::build(fleet, 1).unwrap()
    }

    /// The four sensor registries: `inAssembly` and `TemperatureSensor`
    /// each map one source over every one of them.
    const REGISTRIES: [&str; 4] = ["sensors", "sensors_eu", "sensors_na", "sensors_apac"];

    /// `{?a inAssembly ?s . ?s a TemperatureSensor}` unfolds to 4 × 4
    /// disjuncts of two scans each. Restricted to the model's assemblies,
    /// its statement reads each of its 8 distinct scans once — the other 24
    /// scan nodes borrow those rows — so it reads every registry twice,
    /// where one read per scan node would be 8 times (4×). The counts ride
    /// on the `sql` span that EXPLAIN ANALYZE renders.
    #[test]
    fn restricted_siemens_bgp_scans_each_source_once() {
        let d = siemens();
        let tracer = Tracer::new();
        let pipeline =
            StaticPipeline::new(&d.ontology, &d.mappings, &d.db).with_tracer(&tracer, None);
        let query = crate::parse_sparql(SIEMENS_JOIN, &d.namespaces).unwrap();
        let (answers, stats) = pipeline.answer(&query).unwrap();
        // 2 turbines of the model × 4 assemblies × the 4 temperature
        // sensors of 14.
        assert_eq!(answers.len(), 32);
        assert!(stats.semi_joins_pushed > 0, "{stats:?}");
        let spans = tracer.spans();
        let count = |span: &optique_telemetry::Span, key: &str| -> usize {
            let (_, value) = span.attrs.iter().find(|(k, _)| k == key).unwrap();
            value.to_string().parse().unwrap()
        };
        let third = spans
            .iter()
            .filter(|s| s.label == "sql")
            .find(|s| count(s, "scans") + count(s, "scans_shared") == 32)
            .expect("a statement with 32 scan nodes");
        assert_eq!(count(third, "scans"), 8);
        assert_eq!(count(third, "scans_shared"), 24);
        let registry_rows: usize = REGISTRIES
            .iter()
            .map(|t| d.db.table(t).unwrap().len())
            .sum();
        assert_eq!(count(third, "rows_scanned"), 2 * registry_rows);
    }

    /// The same statement's plan: the restriction on `?a` leaves no filter
    /// above the DISTINCT or the IRI rendering; it reaches each of the 16
    /// `inAssembly` scans as a membership test of the raw assembly key.
    #[test]
    fn siemens_restriction_reaches_the_scans_as_its_key() {
        let d = siemens();
        let atoms = vec![
            Atom::property(
                optique_siemens::ontology::sie("inAssembly"),
                QueryTerm::var("a"),
                QueryTerm::var("s"),
            ),
            Atom::class(
                optique_siemens::ontology::sie("TemperatureSensor"),
                QueryTerm::var("s"),
            ),
        ];
        let cq = ConjunctiveQuery::new(vec!["a".into(), "s".into()], atoms);
        let (ucq, _) = rewrite(&cq, &d.ontology, &RewriteSettings::default()).unwrap();
        let (statement, _) =
            optique_mapping::unfold_ucq(&ucq, &d.mappings, &UnfoldSettings::default()).unwrap();
        // More keys than the `IN`-list threshold, so the restriction is a
        // hash-set probe; one IRI no key renders.
        let mut assemblies: Vec<Value> = (0..12)
            .map(|aid| Value::text(format!("{}assembly/{aid}", optique_siemens::DATA_NS)))
            .collect();
        assemblies.push(Value::text("http://elsewhere/assembly/1"));
        let restricted = optique_relational::fragment::restrict_statement(
            statement.unwrap(),
            &[SemiJoin::new("a", assemblies)],
        );
        let plan = optique_relational::optimizer::optimize(
            optique_relational::plan::plan_select(&restricted, &d.db).unwrap(),
        );
        let explain = plan.explain();
        let scans: Vec<&str> = explain.lines().filter(|l| l.contains("Scan ")).collect();
        assert_eq!(scans.len(), 32, "{explain}");
        let keys = "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)";
        let restricted_scans = scans
            .iter()
            .filter(|l| l.contains("[filter:") && l.contains(&format!("IN {keys}")))
            .count();
        assert_eq!(restricted_scans, 16, "{explain}");
        assert!(
            !explain.contains("Filter"),
            "restriction left above: {explain}"
        );
    }
}

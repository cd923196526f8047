//! Continuous evaluation of translated STARQL queries.
//!
//! Execution stage (iii): at every pulse tick, the engine takes the closed
//! window from the shared [`WCache`] — its rows, its `StdSeq` state sequence
//! and the sequence's postings index, each built by whichever query ticks
//! the window first — and evaluates the compiled HAVING condition once per
//! static WHERE binding; satisfied bindings instantiate the CONSTRUCT
//! template onto the output stream.
//!
//! **What is shared, and under which key.** A window is keyed by its bounds
//! and content, `(stream, open, close, variant)`: the variant stamps the
//! stream table's row count (tables are append-only, so the count names the
//! content) and, for a key-restricted window, the restriction. The
//! sequence is a function of those rows, the stream mapping and the TBox —
//! and a [`ContinuousQuery`] carries its own copies of the last two — so it
//! hangs off the window under a fingerprint of them taken at registration:
//! queries that do not agree never share one. States are shared *across*
//! windows the same way, per timestamp (see
//! [`sequence`](crate::sequence)). HAVING and the CONSTRUCT template are
//! compiled at registration too ([`CompiledHaving`]), against the WHERE
//! bindings laid out as rows: deciding a binding allocates nothing.
//!
//! **Window materialization has two backends**, mirroring the static
//! pipeline: single-node (slice the stream table locally, the reference
//! semantics) and **distributed** — each tick compiles its window to a
//! [`PlanFragment`] carrying a [`WindowSlice`] time-slice section, shipped
//! through the same [`FragmentExecutor`] the static side uses. Over a
//! federation whose stream tables hash-partition on the stream key, the
//! window fragment *scatters*: every worker slices its shard and the
//! partials concatenate — windows spread across the cluster instead of
//! replicating onto one node. When the static bindings admit it (see
//! `HavingFormula::restriction_safe`), the fragment additionally carries a
//! semi-join on the stream-key column restricted to the bound subjects'
//! raw keys — the stream-static join pushdown — which also lets the
//! gateway's shard routing skip shards that can hold no admissible key.
//!
//! **A pane tick is three pieces.** When HAVING is a pure tree of window
//! aggregates, a distributed tick materializes no window at all: its
//! [`ContinuousQuery::pane_probe`] names the window on the pane grid,
//! [`combine_panes`] ships a batch of probes as one round and merges each
//! probe's per-shard partials once, and [`ContinuousQuery::pane_tick`]
//! decides the bindings off the merged accumulators. A driven round batches
//! every due window of every query on a pool this way, each distinct window
//! once; [`ContinuousQuery::tick_via`] is the round of one.
//!
//! **A subject is its stream key.** Registration inverts every subject an
//! aggregate atom can read — a binding cell of the column it groups by, or
//! an IRI constant — through the stream's subject template at the key
//! column's declared type, the codec the stream-key restriction and shard
//! routing use, and keeps the sorted keys ([`SubjectKeys`]). A tick's
//! aggregate context is one ordered pass over the window's key-ordered
//! groups, so a tick mints no IRI and an aggregate atom reads one slot.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use optique_rdf::{Term, Triple};
use optique_relational::{
    fold_groups, merge_pane_rows, pane_width, AggAcc, ColumnType, Database, PaneCounts, PaneProbe,
    PlanFragment, Schema, SelectStatement, SemiJoin, Value, WindowSlice,
};
use optique_rewrite::{Atom, QueryTerm};
use optique_sparql::{FragmentExecutor, FragmentRound};
use optique_stream::{StreamDiffer, WCache, WindowSpec};
use optique_telemetry::SpanRecord;

use crate::ast::OutputMode;
use crate::having::{AggFunc, BindingRow, CompiledHaving, HavingFormula, SubjectKeys};
use crate::sequence::{
    sequence_fingerprint, shared_sequence, EvaluatedWindow, IndexedSequence, StreamToRdf,
};
use crate::translate::TranslatedQuery;

/// Per-variable cap on stream-key restriction values: binding sets past
/// this ship the window unrestricted (a longer `IN` list costs more than
/// it prunes — the same economics as the static planner's `max_in_list`).
pub const MAX_STREAM_KEYS: usize = 256;

/// A registered continuous query, ready to tick.
pub struct ContinuousQuery {
    /// The translated query.
    pub translated: TranslatedQuery,
    /// The stream-side mapping (tuple → state triples).
    pub stream_to_rdf: StreamToRdf,
    /// The static WHERE bindings, as rows over their variables: what the
    /// compiled HAVING condition and the compiled CONSTRUCT template read,
    /// by position.
    bindings: Vec<BindingRow>,
    /// The stream keys the aggregate atoms can read.
    keys: SubjectKeys,
    having: CompiledHaving,
    construct: Vec<TemplateTriple>,
    /// What decides a window's sequence besides its rows, fingerprinted:
    /// the key under which this query shares sequences and states.
    fingerprint: u64,
    window: WindowSpec,
    window_start: i64,
    /// Where the stream table keeps what ticks read.
    stream_columns: StreamColumns,
    /// Raw stream-key values the static bindings admit (`None` =
    /// restriction not provably sound, or too many keys): distributed
    /// ticks push these into the window fragment as a semi-join.
    stream_keys: Option<Vec<Value>>,
    /// The window-cache variant suffix of key-restricted windows (empty
    /// without `stream_keys`), and the fingerprint narrowed by it — the
    /// scope their states are shared under.
    restriction: String,
    restricted_scope: u64,
    /// `Some` when the HAVING condition is a pure tree of window aggregates
    /// over the stream's value property: distributed ticks then skip window
    /// materialization and combine per-shard pane partials instead. The
    /// flag says whether a MIN/MAX atom appears — extrema partials must
    /// ride along.
    pane_extrema: Option<bool>,
    /// Runtime switch for the pane path (`true` by default); turning it
    /// off forces the full-window rescan — the oracle's reference arm.
    pane_enabled: AtomicBool,
    /// Relation-to-stream differ for ISTREAM/DSTREAM output: tracks the
    /// previous tick's constructed triples.
    differ: Mutex<StreamDiffer<Triple>>,
}

/// Where the stream table keeps the columns the stream mapping names, and
/// whether ticks aggregate over them — resolved once, at registration (a
/// table's schema never changes), and read by the stream-key analysis, the
/// pane analysis and every tick.
#[derive(Clone, Copy, Debug)]
struct StreamColumns {
    /// The timestamp column.
    ts: usize,
    /// The declared type of the subject-key column, when the table has it.
    key_type: Option<ColumnType>,
    /// The declared type of the value column, when the table has it.
    val_type: Option<ColumnType>,
    /// The subject-key and value columns, when HAVING holds an aggregate
    /// atom: ticks then fold the window into per-subject accumulators.
    fold: Option<(usize, usize)>,
}

impl StreamColumns {
    /// Refuses what a tick could only fail on: an unknown stream table, a
    /// missing timestamp column and, under an aggregate HAVING, a missing
    /// subject or value column, or a subject column whose keys no IRI
    /// names (`BOOL`, `ANY`: the codec does not invert them).
    fn resolve(
        translated: &TranslatedQuery,
        stream_to_rdf: &StreamToRdf,
        db: &Database,
    ) -> Result<Self, String> {
        let stream = &translated.query.stream.name;
        let schema = &db.table(stream).map_err(|e| e.to_string())?.schema;
        let typed = |name: &str| schema.index_of(name).map(|i| (i, schema.columns()[i].ty));
        let lacks = |what: &str, name: &str| format!("stream {stream} lacks {what}column {name}");
        let (ts_col, key_col, val_col) = (
            &stream_to_rdf.timestamp_col,
            stream_to_rdf.subject.column(),
            &stream_to_rdf.value_col,
        );
        let ts = schema.index_of(ts_col).ok_or_else(|| lacks("", ts_col))?;
        let (key, val) = (typed(key_col), typed(val_col));
        let leaves = translated.having.leaves();
        let has_agg = leaves
            .iter()
            .any(|leaf| matches!(leaf, HavingFormula::Agg { .. }));
        let fold = match (has_agg, key, val) {
            (false, ..) => None,
            (true, Some((_, ty @ (ColumnType::Bool | ColumnType::Any))), _) => {
                return Err(format!(
                    "stream {stream} subject column {key_col} is {ty}: no IRI names its keys, \
                     so no aggregate can read their groups"
                ))
            }
            (true, Some((key, _)), Some((val, _))) => Some((key, val)),
            (true, None, _) => return Err(lacks("subject ", key_col)),
            (true, _, None) => return Err(lacks("value ", val_col)),
        };
        Ok(StreamColumns {
            ts,
            key_type: key.map(|(_, ty)| ty),
            val_type: val.map(|(_, ty)| ty),
            fold,
        })
    }
}

/// What either window path of a tick hands the shared tail.
struct Windowed<'g> {
    /// The tick's accounting so far: the window-side counters and the
    /// window-side spans (children of `tick`, which the tail puts at index
    /// 0), everything else default.
    out: TickOutput,
    /// The window's evaluated sequence (empty on the pane path, which
    /// materializes none).
    evaluated: Arc<EvaluatedWindow>,
    /// The window's per-key accumulators: folded from its rows, or
    /// combined from pane partials a round shares; empty when HAVING
    /// aggregates nothing.
    groups: Cow<'g, BTreeMap<Value, AggAcc>>,
    /// When the window side was done, in µs since the tick began.
    ready_us: u64,
}

/// One pane probe's answer, merged across the shards once for every tick
/// that reads it, and what the workers spent on it.
#[derive(Debug, Default)]
pub struct PanePartials {
    /// Per stream key, the accumulator over the probed window.
    groups: BTreeMap<Value, AggAcc>,
    /// Pane-answer rows the workers shipped for the probe.
    rows_shipped: usize,
    /// What the workers' pane stores spent on the probe.
    counts: PaneCounts,
}

/// What a pane round cost as a whole, charged once: fragments that
/// scattered, shards pruned, and µs from shipping the round to its last
/// merge.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaneRoundCost {
    partitioned_fragments: usize,
    shards_pruned: usize,
    us: u64,
}

/// A pane round's answers: per probe, in the order shipped, its combined
/// partials or why it failed; and what the round cost.
#[derive(Debug, Default)]
pub struct PaneAnswers {
    /// Per probe, its partials or its error.
    pub probes: Vec<Result<PanePartials, String>>,
    /// The round's own cost.
    pub cost: PaneRoundCost,
}

/// Ships `probes` through `executor` as **one** round, pinned at novelty
/// epoch `epoch`, and merges each probe's per-shard partials once. Probes
/// go in the order given, so a worker's cached window of one range only
/// slides forward when they come sorted by close. A probe fails alone —
/// one a worker fails (its window's integer SUM leaves `i64`, say) or
/// whose partials do not merge — and the batch is shipped once whatever
/// fails.
pub fn combine_panes(
    probes: &[PaneProbe],
    epoch: u64,
    executor: &dyn FragmentExecutor,
) -> PaneAnswers {
    let started = Instant::now();
    // A statement only describes a probe's scan (spans, the wire,
    // store-less fallbacks read the probe); it is never executed.
    let fragments = probes
        .iter()
        .enumerate()
        .map(|(i, probe)| {
            let columns = [probe.key_col.clone(), probe.val_col.clone()];
            let scan = SelectStatement::scan(&probe.stream, columns);
            PlanFragment::from_statement(i as u64, scan, 1.0)
                .with_pane(probe.clone())
                .at_epoch(epoch)
        })
        .collect();
    // A round that cannot run at all fails every probe of it.
    let round = executor
        .execute(fragments)
        .unwrap_or_else(|e| FragmentRound {
            tables: probes.iter().map(|_| Err(e.clone())).collect(),
            ..FragmentRound::default()
        });
    let answers = (round.tables.into_iter().enumerate())
        .map(|(i, table)| {
            let table = table.map_err(|e| format!("pane fragment round failed: {e}"))?;
            let mut groups = BTreeMap::new();
            merge_pane_rows(&mut groups, &table.rows).map_err(|e| e.to_string())?;
            Ok(PanePartials {
                groups,
                rows_shipped: table.rows.len(),
                counts: round.panes.get(i).copied().unwrap_or_default(),
            })
        })
        .collect();
    PaneAnswers {
        probes: answers,
        cost: PaneRoundCost {
            partitioned_fragments: round.partitioned_fragments,
            shards_pruned: round.shards_pruned,
            us: started.elapsed().as_micros() as u64,
        },
    }
}

fn now_us(epoch: &Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

/// What [`ContinuousQuery::decide`] found for one window.
struct Decided {
    triples: Vec<Triple>,
    satisfied: usize,
    candidates: u64,
    probes: u64,
}

/// One tick's output and accounting.
#[derive(Clone, Debug, Default)]
pub struct TickOutput {
    /// The tick instant.
    pub tick_ms: i64,
    /// The window that closed at (or before) the tick.
    pub window_id: u64,
    /// CONSTRUCT-template instantiations for satisfied bindings.
    pub triples: Vec<Triple>,
    /// Bindings whose HAVING held.
    pub satisfied: usize,
    /// Bindings evaluated.
    pub bindings_checked: usize,
    /// Tuples in the (possibly key-restricted) window the tick evaluated.
    pub tuples_in_window: usize,
    /// States in the sequence.
    pub states: usize,
    /// States dropped for integrity violations.
    pub dropped_states: usize,
    /// States this tick built: mapped, constraint-checked and saturated.
    pub states_built: usize,
    /// States it took from the window cache — the whole sequence when
    /// another query already evaluated the window, else the timestamps an
    /// overlapping window already built.
    pub states_shared: usize,
    /// Window fragments shipped to the distributed executor this tick
    /// (0 = single-node, or the window came from the shared cache).
    pub window_fragments: usize,
    /// Stream rows the executor shipped back for this tick's window
    /// (0 on a window-cache hit — sharing, not shipping).
    pub stream_rows_shipped: usize,
    /// Stream-key semi-joins pushed into the window fragment.
    pub semi_joins_pushed: usize,
    /// Scatter executions skipped because stream-key routing proved the
    /// shard held no admissible key.
    pub shards_pruned: usize,
    /// Window fragments that executed sharded over a hash-partitioned
    /// stream (scatter) rather than on a single replica.
    pub partitioned_fragments: usize,
    /// Worker pane-store probes answered from warm incremental state.
    pub pane_hits: u64,
    /// Worker pane-store probes that had to fold panes from scratch (or
    /// fell back to the store-less reference fold).
    pub pane_misses: u64,
    /// Pane probes this tick read from its round without being charged
    /// for them: another tick of the round read the same window first and
    /// carries the probe's shipping and pane-store counts (0 or 1).
    pub panes_shared: usize,
    /// Per-tick telemetry spans as flat wire records relative to the tick
    /// epoch: `tick` at index 0, `window_build` (with its `wcache_lookup`
    /// and `scatter` children; a pane tick has `pane_combine` in its place)
    /// and `r2s` nested under it. Graft them into
    /// a coordinator [`Tracer`](optique_telemetry::Tracer) to stitch or
    /// render; empty when the tick closed no window.
    pub spans: Vec<SpanRecord>,
}

impl ContinuousQuery {
    /// Registers the query with its WHERE bindings, which the platform
    /// answers through the full OBDA pipeline (per-BGP cache, planner,
    /// federated fragments). Refuses what a tick could only fail on: a
    /// binding that lacks an answer variable, a HAVING formula
    /// [`CompiledHaving::compile`] refuses, a stream table without the
    /// columns the mapping names.
    pub fn register_with_bindings(
        translated: TranslatedQuery,
        stream_to_rdf: StreamToRdf,
        db: &Database,
        bindings: Vec<HashMap<String, Term>>,
    ) -> Result<Self, String> {
        let window = WindowSpec::new(
            translated.query.stream.range_ms,
            translated.query.stream.slide_ms,
        )
        .map_err(|e| e.to_string())?;
        let window_start = translated
            .query
            .pulse
            .as_ref()
            .map(|p| p.start_ms)
            .unwrap_or(0);
        let stream_columns = StreamColumns::resolve(&translated, &stream_to_rdf, db)?;
        let stream_keys =
            admissible_stream_keys(&translated, &stream_to_rdf, &stream_columns, &bindings);
        let pane_extrema = pane_extrema(&translated, &stream_to_rdf, &stream_columns);
        // The maps are read once: the answer variables — which every UNION
        // branch binds, so even an empty binding set has them — become
        // columns, every binding a row over them, every subject an
        // aggregate reads a key.
        let columns = &translated.where_answer_vars;
        let keys = SubjectKeys::new(
            &translated.having,
            &bindings,
            &stream_to_rdf.subject,
            stream_columns.key_type,
        );
        let having = CompiledHaving::compile(&translated.having, columns, &keys)?;
        let construct = compile_construct(&translated.query.construct, columns)?;
        let bindings = bindings
            .iter()
            .map(|binding| BindingRow::new(columns, binding, &keys))
            .collect::<Result<_, _>>()?;
        let fingerprint = sequence_fingerprint(&stream_to_rdf, &translated.ontology);
        // Key-restricted windows hold other rows than full ones, so their
        // states are kept apart from the full windows' — and from those of
        // other restrictions.
        let (restriction, restricted_scope) = match &stream_keys {
            Some(keys) => {
                let restriction = format!("⋉{keys:?}");
                let mut scope = std::collections::hash_map::DefaultHasher::new();
                (fingerprint, &restriction).hash(&mut scope);
                (restriction, scope.finish())
            }
            None => (String::new(), fingerprint),
        };
        Ok(ContinuousQuery {
            translated,
            stream_to_rdf,
            bindings,
            keys,
            having,
            construct,
            fingerprint,
            window,
            window_start,
            stream_columns,
            stream_keys,
            restriction,
            restricted_scope,
            pane_extrema,
            pane_enabled: AtomicBool::new(true),
            differ: Mutex::new(StreamDiffer::new()),
        })
    }

    /// Number of static WHERE bindings.
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    /// The window specification.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// The raw stream-key values the static bindings admit, when the
    /// HAVING formula is restriction-safe (observability / tests).
    pub fn stream_keys(&self) -> Option<&[Value]> {
        self.stream_keys.as_deref()
    }

    /// First window start (the pulse's START, or 0).
    pub fn window_start(&self) -> i64 {
        self.window_start
    }

    /// The query's relation-to-stream output mode.
    pub fn output_mode(&self) -> OutputMode {
        self.translated.query.output_mode
    }

    /// True when registration proved the HAVING condition answerable from
    /// per-shard pane partials (distributed ticks then skip window
    /// materialization).
    pub fn pane_combinable(&self) -> bool {
        self.pane_extrema.is_some()
    }

    /// Enables/disables the pane path at runtime; disabled queries rescan
    /// the full window even when pane-combinable (the differential oracle's
    /// reference arm).
    pub fn set_pane_aggregation(&self, enabled: bool) {
        self.pane_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Evaluates one pulse tick at `tick_ms` over the stream table in `db`,
    /// sharing window materializations through `wcache` — single-node: the
    /// window is sliced locally, the reference semantics.
    pub fn tick(&self, db: &Database, wcache: &WCache, tick_ms: i64) -> Result<TickOutput, String> {
        self.tick_via(db, wcache, tick_ms, None)
    }

    /// [`Self::tick`], with the window materialized through an optional
    /// [`FragmentExecutor`]: the tick compiles its window slice to a
    /// [`PlanFragment`] (window time-slice + stream-key semi-join) and the
    /// executor runs it exactly as it runs static-query fragments — over a
    /// stream-partitioned federation the window scatters across shards.
    /// Output streams are identical across backends (the streaming
    /// equivalence oracle pins this down); only the shipping accounting
    /// differs.
    ///
    /// A pane-combinable query's distributed tick is a round of one: its
    /// [`Self::pane_probe`] through [`combine_panes`], then
    /// [`Self::pane_tick`] — the pieces a driven round runs for many
    /// queries at once.
    pub fn tick_via(
        &self,
        db: &Database,
        wcache: &WCache,
        tick_ms: i64,
        executor: Option<&dyn FragmentExecutor>,
    ) -> Result<TickOutput, String> {
        let pane = executor.and_then(|executor| Some((executor, self.pane_probe(tick_ms)?)));
        if let Some((executor, probe)) = pane {
            let answers = combine_panes(&[probe], db.novelty_epoch(), executor);
            let partials = (answers.probes.into_iter().next()).expect("one probe, one answer")?;
            return self.pane_tick(tick_ms, &partials, true, Some(answers.cost));
        }
        let Some(window_id) = self.window.last_closed(self.window_start, tick_ms) else {
            return Ok(TickOutput {
                tick_ms,
                ..TickOutput::default()
            });
        };
        let (open, close) = self.window.bounds(self.window_start, window_id);
        let epoch = Instant::now();
        let windowed = self.sequence_window(db, wcache, open, close, executor, &epoch)?;
        Ok(self.finish(tick_ms, window_id, windowed, &epoch))
    }

    /// The pane probe a distributed tick at `tick_ms` reads: `None` when no
    /// window has closed by then, or when the tick reads no panes — HAVING
    /// is not pane-combinable, or the pane path is switched off. Such
    /// ticks skip window materialization entirely: each worker answers from
    /// its shard-local incremental pane store and only per-group partial
    /// aggregates travel, independent of the window's row count.
    pub fn pane_probe(&self, tick_ms: i64) -> Option<PaneProbe> {
        let needs_extrema = self
            .pane_extrema
            .filter(|_| self.pane_enabled.load(Ordering::Relaxed))?;
        let window_id = self.window.last_closed(self.window_start, tick_ms)?;
        let (open_ms, close_ms) = self.window.bounds(self.window_start, window_id);
        let stream = &self.translated.query.stream;
        Some(PaneProbe {
            stream: stream.name.clone(),
            ts_col: self.stream_to_rdf.timestamp_col.clone(),
            key_col: self.stream_to_rdf.subject.column().to_string(),
            val_col: self.stream_to_rdf.value_col.clone(),
            width_ms: pane_width(stream.range_ms, stream.slide_ms),
            start_ms: self.window_start,
            open_ms,
            close_ms,
            needs_extrema,
        })
    }

    /// The tail of a pane tick at `tick_ms` over its probe's combined
    /// partials: decides every binding straight off the accumulators, over
    /// an empty sequence. The probe's `first` reader is charged what the
    /// workers spent on it; a later reader of the same window reports none
    /// of it and counts one shared probe instead. The tick given the
    /// round's `round` cost is charged that too, and its tick began with
    /// the round.
    pub fn pane_tick(
        &self,
        tick_ms: i64,
        partials: &PanePartials,
        first: bool,
        round: Option<PaneRoundCost>,
    ) -> Result<TickOutput, String> {
        let window_id = self
            .window
            .last_closed(self.window_start, tick_ms)
            .ok_or_else(|| format!("no window has closed at {tick_ms} ms"))?;
        let round = round.unwrap_or_default();
        let ready_us = round.us;
        let now = Instant::now();
        let epoch = now
            .checked_sub(Duration::from_micros(ready_us))
            .unwrap_or(now);
        let tuples_in_window: i64 = partials.groups.values().map(|a| a.count).sum();
        let charged = |n: usize| if first { n } else { 0 };
        let counts = if first {
            partials.counts
        } else {
            PaneCounts::default()
        };
        let out = TickOutput {
            tuples_in_window: tuples_in_window.max(0) as usize,
            window_fragments: charged(1),
            stream_rows_shipped: charged(partials.rows_shipped),
            shards_pruned: round.shards_pruned,
            partitioned_fragments: round.partitioned_fragments,
            pane_hits: counts.hits,
            pane_misses: counts.misses,
            panes_shared: (!first) as usize,
            spans: vec![SpanRecord::new("pane_combine", 0, ready_us)
                .under(0)
                .attr("groups", partials.groups.len() as u64)
                .attr("rows", charged(partials.rows_shipped) as u64)
                .attr("pane_hits", counts.hits)
                .attr("pane_misses", counts.misses)
                .attr("acc_ops", counts.acc_ops)
                .attr("shared", !first)],
            ..TickOutput::default()
        };
        let windowed = Windowed {
            out,
            evaluated: Arc::default(),
            groups: Cow::Borrowed(&partials.groups),
            ready_us,
        };
        Ok(self.finish(tick_ms, window_id, windowed, &epoch))
    }

    /// The one tail: decides every binding against what the window side
    /// produced, then assembles the output around its accounting.
    fn finish(
        &self,
        tick_ms: i64,
        window_id: u64,
        windowed: Windowed<'_>,
        epoch: &Instant,
    ) -> TickOutput {
        let Windowed {
            out,
            evaluated,
            groups,
            ready_us,
        } = windowed;
        let sequence = &evaluated.sequence;
        let decided = self.decide(sequence, &groups);
        let end_us = now_us(epoch);
        let mut spans = vec![SpanRecord::new("tick", 0, end_us)
            .attr("window", window_id)
            .attr("tuples", out.tuples_in_window as u64)
            .attr("satisfied", decided.satisfied as u64)];
        spans.extend(out.spans);
        spans.push(
            SpanRecord::new("r2s", ready_us, end_us - ready_us)
                .under(0)
                .attr("states", sequence.len() as u64)
                .attr("bindings", self.bindings.len() as u64)
                .attr("candidates", decided.candidates)
                .attr("probes", decided.probes),
        );
        TickOutput {
            tick_ms,
            window_id,
            triples: decided.triples,
            satisfied: decided.satisfied,
            bindings_checked: self.bindings.len(),
            states: sequence.len(),
            dropped_states: evaluated.dropped,
            spans,
            ..out
        }
    }

    /// The full-window path: the window's rows from the shared cache —
    /// sliced locally, or shipped as a fragment through `executor` — its
    /// shared state sequence, and the per-subject fold of its rows when
    /// HAVING aggregates.
    fn sequence_window(
        &self,
        db: &Database,
        wcache: &WCache,
        open: i64,
        close: i64,
        executor: Option<&dyn FragmentExecutor>,
        epoch: &Instant,
    ) -> Result<Windowed<'static>, String> {
        let stream_name = &self.translated.query.stream.name;
        let table = db.table(stream_name).map_err(|e| e.to_string())?;
        let schema = &table.schema;
        let ts_col = self.stream_columns.ts;
        let mut out = TickOutput::default();
        // Spans assemble in the tail under fixed indices — tick 0,
        // window_build 1 — so children recorded here name their parents
        // up front.
        let build_start = now_us(epoch);
        // Stream tables only grow, so the row count — base plus unmerged
        // overlay — names the table's content: a window cached under it is
        // current exactly while no row was appended, merges included.
        let appended = db.novelty().and_then(|n| n.rows(stream_name));
        let mut variant = format!("n{}", table.len() + appended.map_or(0, |rows| rows.len()));
        // A shipped window is restricted to the admissible stream keys — a
        // *subset* of the full window, cached under its own variant and
        // state scope; an unrestricted one is the same multiset as the
        // local slice and shares its entry.
        let scope = match executor {
            Some(_) => {
                variant.push_str(&self.restriction);
                self.restricted_scope
            }
            None => self.fingerprint,
        };
        let hit = wcache.lookup(stream_name, open, close, &variant);
        let lookup_span =
            SpanRecord::new("wcache_lookup", build_start, now_us(epoch) - build_start)
                .under(1)
                .attr("outcome", if hit.is_some() { "hit" } else { "miss" });
        let mut scatter_span: Option<SpanRecord> = None;
        let window = match (hit, executor) {
            (Some(hit), _) => hit,
            (None, None) => {
                // The base table is neither copied nor sorted: its in-range
                // rows are picked out and put in time order (table order
                // within an instant — the order aggregates fold in), then
                // chained with the overlay's.
                let in_window = |row: &&Vec<Value>| {
                    row[ts_col]
                        .as_i64()
                        .is_some_and(|ts| ts > open && ts <= close)
                };
                let mut rows: Vec<&Vec<Value>> = table.rows.iter().filter(in_window).collect();
                rows.sort_by_key(|row| row[ts_col].as_i64());
                let overlay = db.novelty_rows(stream_name).filter(in_window);
                let built = rows.into_iter().chain(overlay).cloned().collect();
                wcache.insert(stream_name, open, close, &variant, built)
            }
            (None, Some(executor)) => {
                let fragment = self
                    .window_fragment(schema, stream_name, open, close)
                    .at_epoch(db.novelty_epoch());
                out.window_fragments = 1;
                out.semi_joins_pushed = fragment.semi_joins.len();
                let scatter_start = now_us(epoch);
                let failed = |e: String| format!("window fragment round failed: {e}");
                let round = executor.execute(vec![fragment]).map_err(failed)?;
                out.shards_pruned = round.shards_pruned;
                out.partitioned_fragments = round.partitioned_fragments;
                let built: Vec<Vec<Value>> = (round.tables.into_iter().next())
                    .transpose()
                    .map_err(failed)?
                    .map(|t| t.rows)
                    .unwrap_or_default();
                out.stream_rows_shipped = built.len();
                scatter_span = Some(
                    SpanRecord::new("scatter", scatter_start, now_us(epoch) - scatter_start)
                        .under(1)
                        .attr("rows", built.len() as u64)
                        .attr("pruned", round.shards_pruned as u64)
                        .attr("partitioned", round.partitioned_fragments as u64),
                );
                wcache.insert(stream_name, open, close, &variant, built)
            }
        };
        let rows = window.rows();
        let shared = shared_sequence(
            wcache,
            &window,
            stream_name,
            self.fingerprint,
            scope,
            schema,
            &self.stream_to_rdf,
            &self.translated.ontology,
        );
        let ready_us = now_us(epoch);

        // Aggregate atoms evaluate against per-subject accumulators over the
        // whole window — the store-less fold pane combination reconstructs.
        let groups = match self.stream_columns.fold {
            Some((key_idx, val_idx)) => {
                fold_groups(rows, key_idx, val_idx).map_err(|e| e.to_string())?
            }
            None => BTreeMap::new(),
        };

        out.tuples_in_window = rows.len();
        out.states_built = shared.states_built;
        out.states_shared = shared.states_shared;
        out.spans = vec![
            SpanRecord::new("window_build", build_start, ready_us - build_start)
                .under(0)
                .attr("rows", rows.len() as u64)
                .attr("states_built", shared.states_built as u64)
                .attr("states_shared", shared.states_shared as u64),
            lookup_span,
        ];
        out.spans.extend(scatter_span);
        Ok(Windowed {
            out,
            evaluated: shared.window,
            groups: Cow::Owned(groups),
            ready_us,
        })
    }

    /// Decides every binding against one window's sequence and per-key
    /// accumulators, and puts the satisfied ones through the CONSTRUCT
    /// template and the relation-to-stream operator. The groups enter the
    /// aggregate context by stream key, so an aggregate atom reads one
    /// slot and no IRI is minted.
    fn decide(&self, sequence: &IndexedSequence, groups: &BTreeMap<Value, AggAcc>) -> Decided {
        let context = self.keys.context(groups);
        let mut evaluator = self.having.evaluator(sequence, &context);
        let mut triples = Vec::new();
        let mut satisfied = 0usize;
        for binding in &self.bindings {
            if evaluator.holds(binding) {
                satisfied += 1;
                instantiate_construct(&self.construct, binding, &mut triples);
            }
        }
        Decided {
            triples: self.apply_output_mode(triples),
            satisfied,
            candidates: evaluator.candidates,
            probes: evaluator.probes,
        }
    }

    /// Applies the query's relation-to-stream operator to one tick's
    /// constructed triples. RSTREAM leaves the differ untouched, so
    /// RSTREAM queries stay stateless across backends.
    fn apply_output_mode(&self, triples: Vec<Triple>) -> Vec<Triple> {
        match self.translated.query.output_mode {
            OutputMode::RStream => triples,
            OutputMode::IStream => {
                let (ins, _) = self.differ.lock().expect("differ poisoned").tick(triples);
                ins
            }
            OutputMode::DStream => {
                let (_, del) = self.differ.lock().expect("differ poisoned").tick(triples);
                del
            }
        }
    }

    /// Compiles one window into its plan fragment: a plain scan of the
    /// stream's columns (built as an AST, never as SQL text), the
    /// `(open, close]` time-slice as the fragment's window section, and —
    /// when the static bindings admit it — a semi-join restricting the
    /// stream-key column to the bound subjects' raw keys.
    fn window_fragment(
        &self,
        schema: &Schema,
        stream_name: &str,
        open: i64,
        close: i64,
    ) -> PlanFragment {
        let scan = SelectStatement::scan(stream_name, schema.header());
        let mut fragment = PlanFragment::from_statement(0, scan, 1.0).with_window(WindowSlice {
            column: self.stream_to_rdf.timestamp_col.clone(),
            open_ms: open,
            close_ms: close,
        });
        // Stream keys exist only when the table has the key column.
        if let Some(keys) = &self.stream_keys {
            let subject_col = self.stream_to_rdf.subject.column().to_string();
            fragment = fragment.with_semi_joins(vec![SemiJoin::new(subject_col, keys.clone())]);
        }
        fragment
    }
}

/// The raw stream-key values the static bindings admit, or `None` when
/// restricting the shipped window could change tick semantics. Sound
/// exactly when:
///
/// * the HAVING formula is restriction-safe (`restriction_safe`: no
///   negation, guarded quantifiers — dropping all-foreign states is
///   invisible),
/// * every graph-atom subject is a WHERE-bound variable or an IRI
///   constant, and every such subject value **inverts** through the
///   stream's subject template to a raw key of the key column's type
///   (subject IRIs the template cannot mint match no state triple and are
///   skipped; non-IRI subjects disable the restriction — enrichment can
///   in principle derive literal-subject assertions from foreign rows),
/// * the TBox carries no integrity constraints (a foreign row can get a
///   whole state dropped), and
/// * the key set stays within [`MAX_STREAM_KEYS`].
fn admissible_stream_keys(
    translated: &TranslatedQuery,
    stream_to_rdf: &StreamToRdf,
    columns: &StreamColumns,
    bindings: &[HashMap<String, Term>],
) -> Option<Vec<Value>> {
    if !translated.having.restriction_safe() {
        return None;
    }
    // Any integrity constraint makes state dropping depend on *all* tuples
    // of the state, foreign ones included.
    if !translated.ontology.disjoint_concepts().is_empty()
        || translated.ontology.functional_roles().next().is_some()
    {
        return None;
    }
    let key_type = columns.key_type?;
    // Bool/Any keys cannot be inverted unambiguously (Text("1") and
    // Int(1) render identically) — same refusal as shard routing's.
    if matches!(key_type, ColumnType::Bool | ColumnType::Any) {
        return None;
    }

    let mut keys: BTreeSet<Value> = BTreeSet::new();
    let admit = |keys: &mut BTreeSet<Value>, term: &Term| match term {
        Term::Iri(iri) => {
            // A subject the template cannot mint is never a state
            // subject: it constrains nothing and adds no key.
            keys.extend(stream_to_rdf.subject.invert(iri.as_str(), key_type));
            Some(())
        }
        // Literal / blank subjects could match enrichment-derived
        // assertions whose provenance includes foreign rows.
        _ => None,
    };
    for subject in translated.having.graph_subjects() {
        match subject {
            QueryTerm::Const(term) => admit(&mut keys, term)?,
            QueryTerm::Var(v) => {
                if !translated.where_answer_vars.iter().any(|w| w == v) {
                    // A HAVING-local subject variable ranges over the whole
                    // window; restricting would hide its witnesses.
                    return None;
                }
                for binding in bindings {
                    admit(&mut keys, binding.get(v)?)?;
                }
            }
        }
        if keys.len() > MAX_STREAM_KEYS {
            return None;
        }
    }
    Some(keys.into_iter().collect())
}

/// Decides, at registration, whether ticks can be answered from per-shard
/// pane partials alone. Sound exactly when:
///
/// * the HAVING condition is a boolean tree (`AND`/`OR`/`NOT`/`TRUE`) of
///   aggregate atoms only — no quantifier, graph pattern, state order, or
///   bare comparison needs the state sequence;
/// * every aggregate reads the stream's mapped value property, so the
///   pane store's one (key, value) accumulator grid answers them all;
/// * every aggregate subject is a WHERE-bound variable or an IRI constant
///   (both invert through the subject template) — in a tree without
///   patterns a variable can only be WHERE-bound, and every threshold a
///   numeric literal, or registration refuses the formula;
/// * the value column is numeric (that the columns exist is registration's
///   own check).
///
/// Anything else declines: the tick falls back to full-window shipping,
/// whose semantics the streaming-equivalence oracle already pins down.
/// The verdict carries whether a MIN/MAX atom appears.
fn pane_extrema(
    translated: &TranslatedQuery,
    stream_to_rdf: &StreamToRdf,
    columns: &StreamColumns,
) -> Option<bool> {
    let having = &translated.having;
    columns.fold?;
    if !pane_combinable_tree(having, stream_to_rdf)
        || !matches!(columns.val_type?, ColumnType::Int | ColumnType::Float)
    {
        return None;
    }
    let extremum = |f: AggFunc| matches!(f, AggFunc::Min | AggFunc::Max);
    let leaves = having.leaves();
    Some(
        leaves
            .iter()
            .any(|leaf| matches!(leaf, HavingFormula::Agg { func, .. } if extremum(*func))),
    )
}

fn pane_combinable_tree(f: &HavingFormula, stream_to_rdf: &StreamToRdf) -> bool {
    match f {
        HavingFormula::True => true,
        HavingFormula::And(a, b) | HavingFormula::Or(a, b) => {
            pane_combinable_tree(a, stream_to_rdf) && pane_combinable_tree(b, stream_to_rdf)
        }
        HavingFormula::Not(a) => pane_combinable_tree(a, stream_to_rdf),
        HavingFormula::Agg {
            subject, property, ..
        } => {
            property == &stream_to_rdf.value_property
                && matches!(subject, QueryTerm::Var(_) | QueryTerm::Const(Term::Iri(_)))
        }
        _ => false,
    }
}

/// A CONSTRUCT-template term, resolved against the binding columns.
enum TemplateTerm {
    Const(Term),
    /// A variable, read from the binding's column.
    Var(usize),
}

/// One CONSTRUCT-template atom as the triple it emits (`C(x)` emits
/// `x rdf:type C`).
struct TemplateTriple {
    subject: TemplateTerm,
    predicate: optique_rdf::Iri,
    object: TemplateTerm,
}

/// The CONSTRUCT template over the binding `columns`: refused when a
/// variable is none of them.
fn compile_construct(template: &[Atom], columns: &[String]) -> Result<Vec<TemplateTriple>, String> {
    let term = |t: &QueryTerm| match t {
        QueryTerm::Const(c) => Ok(TemplateTerm::Const(c.clone())),
        QueryTerm::Var(v) => (columns.iter().position(|column| column == v))
            .map(TemplateTerm::Var)
            .ok_or_else(|| format!("CONSTRUCT variable ?{v} is no WHERE answer variable")),
    };
    template
        .iter()
        .map(|atom| {
            Ok(match atom {
                Atom::Class { class, arg } => TemplateTriple {
                    subject: term(arg)?,
                    predicate: optique_rdf::Iri::new(optique_rdf::vocab::rdf::TYPE),
                    object: TemplateTerm::Const(Term::Iri(class.clone())),
                },
                Atom::Property {
                    property,
                    subject,
                    object,
                } => TemplateTriple {
                    subject: term(subject)?,
                    predicate: property.clone(),
                    object: term(object)?,
                },
            })
        })
        .collect()
}

fn instantiate_construct(template: &[TemplateTriple], binding: &BindingRow, out: &mut Vec<Triple>) {
    let resolve = |t: &TemplateTerm| match t {
        TemplateTerm::Const(c) => c.clone(),
        TemplateTerm::Var(column) => binding.term(*column).clone(),
    };
    for triple in template {
        out.push(Triple::new(
            resolve(&triple.subject),
            triple.predicate.clone(),
            resolve(&triple.object),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_starql, FIGURE1};
    use crate::translate::{translate, TranslationContext};
    use optique_mapping::{IriTemplate, MappingAssertion, MappingCatalog, TermMap};
    use optique_ontology::{Axiom, BasicConcept, Ontology};
    use optique_rdf::{Datatype, Iri, Namespaces};
    use optique_relational::{table::table_of, ColumnType};

    const SIE: &str = "http://siemens.example/ontology#";

    impl ContinuousQuery {
        /// Test-side registration: WHERE bindings from the raw unfolded
        /// static SQL (the platform computes them through its pipeline).
        fn register(
            translated: TranslatedQuery,
            stream_to_rdf: StreamToRdf,
            db: &Database,
        ) -> Result<Self, String> {
            let mut bindings = Vec::new();
            if let Some(sql) = &translated.static_sql {
                let table = optique_relational::exec::query(&sql.to_string(), db)
                    .map_err(|e| format!("static bindings query failed: {e}"))?;
                let names: Vec<String> = table.schema.header();
                // Certain answers are a set: the enriched UCQ's disjuncts
                // often overlap (a subclass disjunct returns a subset of the
                // general one), so deduplicate across the UNION ALL.
                let mut seen = std::collections::BTreeSet::new();
                for row in &table.rows {
                    if !seen.insert(row.clone()) {
                        continue;
                    }
                    let mut env = HashMap::with_capacity(names.len());
                    for (name, value) in names.iter().zip(row) {
                        env.insert(name.clone(), value_to_term(value));
                    }
                    bindings.push(env);
                }
            }
            Self::register_with_bindings(translated, stream_to_rdf, db, bindings)
        }
    }

    /// Static-binding SQL values come back as rendered IRIs or plain literals.
    fn value_to_term(value: &Value) -> Term {
        match value {
            Value::Text(s) if s.contains("://") => Term::iri(s.as_ref()),
            Value::Int(i) => Term::Literal(optique_rdf::Literal::integer(*i)),
            Value::Float(f) => Term::Literal(optique_rdf::Literal::double(*f)),
            Value::Bool(b) => Term::Literal(optique_rdf::Literal::boolean(*b)),
            Value::Timestamp(t) => Term::Literal(optique_rdf::Literal::datetime_millis(*t)),
            Value::Text(s) => Term::Literal(optique_rdf::Literal::string(s.as_ref())),
            Value::Null => Term::Literal(optique_rdf::Literal::string("")),
        }
    }

    fn iri(s: &str) -> Iri {
        Iri::new(format!("{SIE}{s}"))
    }

    /// Static DB: 1 assembly, 2 sensors (10 rising-to-failure, 11 falling);
    /// stream: 10s of measurements for both.
    fn deployment() -> (Database, Ontology, MappingCatalog) {
        let mut db = Database::new();
        db.put_table(
            "assemblies",
            table_of(
                "assemblies",
                &[("aid", ColumnType::Int)],
                vec![vec![Value::Int(1)]],
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("aid", ColumnType::Int)],
                vec![
                    vec![Value::Int(10), Value::Int(1)],
                    vec![Value::Int(11), Value::Int(1)],
                ],
            )
            .unwrap(),
        );
        // Stream S_Msmt: sensor 10 rises each second and fails at t=609s;
        // sensor 11 falls.
        let mut rows = Vec::new();
        for i in 0..10i64 {
            let t = 600_000 + i * 1_000;
            rows.push(vec![
                Value::Timestamp(t),
                Value::Int(10),
                Value::Float(70.0 + i as f64),
                if i == 9 {
                    Value::text("failure")
                } else {
                    Value::Null
                },
            ]);
            rows.push(vec![
                Value::Timestamp(t),
                Value::Int(11),
                Value::Float(90.0 - i as f64),
                Value::Null,
            ]);
        }
        db.put_table(
            "S_Msmt",
            table_of(
                "S_Msmt",
                &[
                    ("ts", ColumnType::Timestamp),
                    ("sensor_id", ColumnType::Int),
                    ("value", ColumnType::Float),
                    ("event", ColumnType::Text),
                ],
                rows,
            )
            .unwrap(),
        );

        let mut onto = Ontology::new();
        onto.add_axiom(Axiom::domain(
            iri("inAssembly"),
            BasicConcept::atomic(iri("Assembly")),
        ));
        onto.add_axiom(Axiom::range(
            iri("inAssembly"),
            BasicConcept::atomic(iri("Sensor")),
        ));

        let mut maps = MappingCatalog::new();
        maps.add(
            MappingAssertion::class(
                "assembly",
                iri("Assembly"),
                "SELECT aid FROM assemblies",
                TermMap::template("http://siemens.example/data/assembly/{aid}"),
            )
            .with_key(vec!["aid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::class(
                "sensor",
                iri("Sensor"),
                "SELECT sid FROM sensors",
                TermMap::template("http://siemens.example/data/sensor/{sid}"),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        maps.add(
            MappingAssertion::property(
                "in_assembly",
                iri("inAssembly"),
                "SELECT aid, sid FROM sensors",
                TermMap::template("http://siemens.example/data/assembly/{aid}"),
                TermMap::template("http://siemens.example/data/sensor/{sid}"),
            )
            .with_key(vec!["aid".into(), "sid".into()]),
        )
        .unwrap();
        (db, onto, maps)
    }

    fn stream_mapping() -> StreamToRdf {
        StreamToRdf {
            timestamp_col: "ts".into(),
            subject: IriTemplate::parse("http://siemens.example/data/sensor/{sensor_id}").unwrap(),
            value_property: iri("hasValue"),
            value_col: "value".into(),
            value_datatype: Datatype::Double,
            event_col: Some("event".into()),
            event_classes: vec![("failure".into(), iri("showsFailure"))],
        }
    }

    fn registered() -> (ContinuousQuery, Database) {
        let (db, onto, maps) = deployment();
        let ns = Namespaces::with_w3c_defaults();
        let q = parse_starql(FIGURE1, &ns).unwrap();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: Default::default(),
            unfold_settings: Default::default(),
        };
        let translated = translate(&q, &ctx).unwrap();
        let cq = ContinuousQuery::register(translated, stream_mapping(), &db).unwrap();
        (cq, db)
    }

    #[test]
    fn registration_computes_bindings() {
        let (cq, _db) = registered();
        assert_eq!(cq.binding_count(), 2, "two sensors bound via WHERE");
    }

    /// Figure 1's MONOTONIC formula is restriction-safe and all its graph
    /// subjects are WHERE-bound: registration inverts the two sensor IRIs
    /// to raw keys for window-fragment pushdown.
    #[test]
    fn stream_keys_invert_bound_subjects() {
        let (cq, _db) = registered();
        assert_eq!(
            cq.stream_keys(),
            Some(&[Value::Int(10), Value::Int(11)][..]),
            "both monitored sensors admit"
        );
    }

    /// Any integrity constraint disables window restriction: a foreign
    /// tuple can flip a whole state's IC verdict.
    #[test]
    fn stream_keys_disabled_under_constraints() {
        use optique_ontology::Role;
        let (db, mut onto, maps) = deployment();
        onto.add_axiom(Axiom::Functional(Role::named(iri("hasValue"))));
        let ns = Namespaces::with_w3c_defaults();
        let q = parse_starql(FIGURE1, &ns).unwrap();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: Default::default(),
            unfold_settings: Default::default(),
        };
        let translated = translate(&q, &ctx).unwrap();
        let cq = ContinuousQuery::register(translated, stream_mapping(), &db).unwrap();
        assert_eq!(cq.stream_keys(), None);
    }

    /// A loopback fragment executor: runs every window fragment on the
    /// local database after a full wire round trip — exactly what a
    /// worker pool does, minus the threads.
    struct Loopback {
        db: Database,
    }

    impl optique_sparql::FragmentExecutor for Loopback {
        fn execute(
            &self,
            fragments: Vec<PlanFragment>,
        ) -> Result<optique_sparql::FragmentRound, String> {
            let tables = fragments
                .into_iter()
                .map(|f| {
                    let decoded = PlanFragment::decode(&f.encode()).map_err(|e| e.to_string())?;
                    decoded.execute(&self.db).map_err(|e| e.to_string())
                })
                .collect();
            Ok(optique_sparql::FragmentRound {
                tables,
                ..Default::default()
            })
        }
    }

    /// Counts the rounds it hands on to a [`Loopback`].
    struct Counting(Loopback, std::sync::atomic::AtomicUsize);

    impl optique_sparql::FragmentExecutor for Counting {
        fn execute(&self, fragments: Vec<PlanFragment>) -> Result<FragmentRound, String> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.execute(fragments)
        }
    }

    /// A batch holding one window whose integer SUM leaves `i64` is still
    /// one round: that probe fails alone, and the others answer.
    #[test]
    fn one_overflowing_probe_does_not_reship_the_batch() {
        let columns = [
            ("ts", ColumnType::Timestamp),
            ("k", ColumnType::Int),
            ("v", ColumnType::Int),
        ];
        let rows = [(1, i64::MAX), (2, i64::MAX), (6, 1)]
            .map(|(ts, v)| vec![Value::Timestamp(ts), Value::Int(0), Value::Int(v)]);
        let mut db = Database::new();
        db.put_table("s", table_of("s", &columns, rows.to_vec()).unwrap());
        let probe = |open_ms: i64| PaneProbe {
            stream: "s".into(),
            ts_col: "ts".into(),
            key_col: "k".into(),
            val_col: "v".into(),
            width_ms: 5,
            start_ms: 0,
            open_ms,
            close_ms: open_ms + 5,
            needs_extrema: false,
        };
        let executor = Counting(Loopback { db }, Default::default());
        let answers = combine_panes(&[probe(0), probe(5), probe(10)], 0, &executor);
        assert_eq!(executor.1.load(Ordering::Relaxed), 1, "one round");
        let [overflowed, fits, empty] = &answers.probes[..] else {
            panic!("one answer per probe: {answers:?}");
        };
        assert!(
            matches!(overflowed, Err(e) if e.contains("overflow")),
            "{overflowed:?}"
        );
        assert_eq!(fits.as_ref().unwrap().groups[&Value::Int(0)].sum_i, 1);
        assert!(empty.as_ref().unwrap().groups.is_empty());
    }

    /// Ticks through the fragment pipeline produce the same output stream
    /// as local slicing — including the restricted-window path.
    #[test]
    fn fragment_ticks_match_local_ticks() {
        let (cq, db) = registered();
        assert!(cq.stream_keys().is_some(), "restriction engages");
        let loopback = Loopback { db: db.clone() };
        for tick_ms in [1_000, 604_000, 605_000, 609_000, 700_000] {
            let local = cq.tick(&db, &WCache::new(), tick_ms).unwrap();
            let shipped = cq
                .tick_via(&db, &WCache::new(), tick_ms, Some(&loopback))
                .unwrap();
            assert_eq!(local.window_id, shipped.window_id);
            assert_eq!(local.satisfied, shipped.satisfied, "tick {tick_ms}");
            assert_eq!(local.triples, shipped.triples, "tick {tick_ms}");
            assert_eq!(local.states, shipped.states);
            if shipped.window_id > 0 || shipped.tuples_in_window > 0 {
                assert_eq!(shipped.window_fragments, 1, "window shipped as a fragment");
                assert_eq!(
                    shipped.semi_joins_pushed, 1,
                    "stream-key restriction rode along"
                );
            }
        }
    }

    /// The shared window cache keeps restricted and full windows apart,
    /// and a second distributed tick reuses the shipped window.
    #[test]
    fn distributed_windows_cache_by_variant() {
        let (cq, db) = registered();
        let loopback = Loopback { db: db.clone() };
        let wcache = WCache::new();
        let first = cq.tick_via(&db, &wcache, 609_000, Some(&loopback)).unwrap();
        assert!(first.stream_rows_shipped > 0);
        let second = cq.tick_via(&db, &wcache, 609_000, Some(&loopback)).unwrap();
        assert_eq!(second.window_fragments, 0, "cache hit ships nothing");
        assert_eq!(second.stream_rows_shipped, 0);
        assert_eq!(first.triples, second.triples);
        // A local tick of the same window builds the *full* variant —
        // the restricted entry must not answer it.
        let local = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(local.tuples_in_window, 20, "full window, not the subset");
    }

    /// A WHERE FILTER, pushed into the unfolded static SQL, narrows the set
    /// of monitored bindings before any tick runs.
    #[test]
    fn where_filter_narrows_bindings() {
        let (db, onto, mut maps) = deployment();
        maps.add(
            MappingAssertion::property(
                "serial",
                iri("hasSerial"),
                "SELECT sid FROM sensors",
                TermMap::template("http://siemens.example/data/sensor/{sid}"),
                TermMap::column("sid", Datatype::Integer),
            )
            .with_key(vec!["sid".into()]),
        )
        .unwrap();
        let text = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM S_out AS
            CONSTRUCT GRAPH NOW { ?c2 a sie:MonInc }
            FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { ?c1 sie:inAssembly ?c2 . ?c2 sie:hasSerial ?n . FILTER(?n > 10) }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }
        "#;
        let ns = Namespaces::with_w3c_defaults();
        let q = parse_starql(text, &ns).unwrap();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: Default::default(),
            unfold_settings: Default::default(),
        };
        let translated = translate(&q, &ctx).unwrap();
        let cq = ContinuousQuery::register(translated, stream_mapping(), &db).unwrap();
        assert_eq!(
            cq.binding_count(),
            1,
            "sensors 10 and 11 exist; FILTER(?n > 10) keeps only 11"
        );
    }

    /// The end-to-end Figure 1 behaviour: at the tick after sensor 10's
    /// failure, the monotonic-increase alarm fires for sensor 10 only.
    #[test]
    fn figure1_detects_monotonic_failure() {
        let (cq, db) = registered();
        let wcache = WCache::new();
        // Failure occurs at 609 s; the window closing at 609 s covers
        // (599s, 609s] = the whole ramp.
        let out = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(out.bindings_checked, 2);
        assert_eq!(
            out.satisfied, 1,
            "only the rising sensor with a failure fires"
        );
        assert_eq!(out.triples.len(), 1);
        let t = &out.triples[0];
        assert_eq!(
            t.subject,
            Term::iri("http://siemens.example/data/sensor/10")
        );
        assert_eq!(t.object, Term::Iri(iri("MonInc")));
    }

    #[test]
    fn no_alarm_before_failure() {
        let (cq, db) = registered();
        let wcache = WCache::new();
        // At 605 s the ramp is rising but no failure message exists yet.
        let out = cq.tick(&db, &wcache, 605_000).unwrap();
        assert_eq!(out.satisfied, 0);
        assert!(out.tuples_in_window > 0);
    }

    #[test]
    fn wcache_shared_across_ticks_and_queries() {
        let (cq, db) = registered();
        let wcache = WCache::new();
        let _ = cq.tick(&db, &wcache, 609_000).unwrap();
        let misses_after_first = wcache.misses();
        // Second query (same window spec) reuses the window.
        let (cq2, _) = registered();
        let _ = cq2.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(wcache.misses(), misses_after_first);
        assert!(wcache.hits() >= 1);
    }

    /// A second query that agrees with the first on mapping and TBox takes
    /// the window's whole sequence; a later window takes every state but the
    /// one timestamp that is new to it.
    #[test]
    fn states_are_built_once_and_shared() {
        let (cq, db) = registered();
        let (cq2, _) = registered();
        let wcache = WCache::new();
        let first = cq.tick(&db, &wcache, 608_000).unwrap();
        assert_eq!((first.states_built, first.states_shared), (9, 0));
        let second = cq2.tick(&db, &wcache, 608_000).unwrap();
        assert_eq!((second.states_built, second.states_shared), (0, 9));
        assert_eq!(first.triples, second.triples);
        let next = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!((next.states_built, next.states_shared), (1, 9));
        assert_eq!(next.satisfied, 1, "the shared states still answer Figure 1");
    }

    /// Registers Figure 1 over the shared deployment with its own TBox and
    /// stream mapping.
    fn registered_with(onto: &Ontology, mapping: StreamToRdf) -> ContinuousQuery {
        let (db, _, maps) = deployment();
        let q = parse_starql(FIGURE1, &Namespaces::with_w3c_defaults()).unwrap();
        let ctx = TranslationContext {
            ontology: onto,
            mappings: &maps,
            rewrite_settings: Default::default(),
            unfold_settings: Default::default(),
        };
        ContinuousQuery::register(translate(&q, &ctx).unwrap(), mapping, &db).unwrap()
    }

    /// A sequence is a function of the rows, the stream mapping *and* the
    /// TBox, and every query carries its own copies of the last two: two
    /// queries that disagree on either share the window's rows on one
    /// `WCache`, never its sequence or its states.
    #[test]
    fn queries_that_disagree_never_share_a_sequence() {
        let (db, onto, _) = deployment();
        // Under this TBox every reading is a failure message; under this
        // mapping no event is.
        let mut alarmist = onto.clone();
        alarmist.add_axiom(Axiom::SubClass {
            sub: BasicConcept::exists(iri("hasValue")),
            sup: BasicConcept::atomic(iri("showsFailure")),
        });
        let mut deaf = stream_mapping();
        deaf.event_classes.clear();
        let queries = [
            registered_with(&onto, stream_mapping()),
            registered_with(&alarmist, stream_mapping()),
            registered_with(&onto, deaf),
        ];
        let alone: Vec<TickOutput> = queries
            .iter()
            .map(|cq| cq.tick(&db, &WCache::new(), 609_000).unwrap())
            .collect();
        let alarms: Vec<usize> = alone.iter().map(|out| out.satisfied).collect();
        assert_eq!(
            alarms,
            [1, 2, 0],
            "the three read the same rows differently"
        );

        let wcache = WCache::new();
        for (cq, alone) in queries.iter().zip(&alone) {
            let shared = cq.tick(&db, &wcache, 609_000).unwrap();
            assert_eq!(shared.triples, alone.triples);
            assert_eq!(
                (shared.states_built, shared.states_shared),
                (10, 0),
                "nothing another query built fits"
            );
        }
        assert_eq!(
            (wcache.misses(), wcache.hits()),
            (1, 2),
            "one window of rows"
        );
    }

    /// A row that arrives late, for a timestamp whose state is already
    /// built and cached, is in the next tick's window: the row count that
    /// stamps the state moved, so that one state is rebuilt.
    #[test]
    fn late_row_is_visible_in_the_next_tick() {
        let (cq, mut db) = registered_text(&agg_query(
            "",
            "EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure }",
        ));
        let wcache = WCache::new();
        let before = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(before.satisfied, 1, "sensor 10 fails at 609 s");

        let mut table = db.table("S_Msmt").unwrap().to_table();
        table
            .push_row(vec![
                Value::Timestamp(605_000),
                Value::Int(11),
                Value::Float(85.5),
                Value::text("failure"),
            ])
            .unwrap();
        db.put_table("S_Msmt", table);

        let after = cq.tick(&db, &wcache, 610_000).unwrap();
        assert_eq!(after.satisfied, 2, "sensor 11's late failure counts");
        assert_eq!(
            (after.states_built, after.states_shared),
            (1, 8),
            "605 s was rebuilt, 602 s … 609 s otherwise shared"
        );
        // And the window that closed before the row arrived is stale under
        // its old stamp only: ticked again, it sees the row too.
        let replay = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(replay.satisfied, 2);
    }

    #[test]
    fn tick_before_first_window_is_empty() {
        let (cq, db) = registered();
        let wcache = WCache::new();
        let out = cq.tick(&db, &wcache, 1_000).unwrap();
        assert_eq!(out.bindings_checked, 0);
        assert!(out.triples.is_empty());
    }

    /// Registers a query over the shared deployment from explicit STARQL
    /// text (the Figure 1 static side, custom CONSTRUCT/HAVING).
    fn registered_text(text: &str) -> (ContinuousQuery, Database) {
        let (db, onto, maps) = deployment();
        let ns = Namespaces::with_w3c_defaults();
        let q = parse_starql(text, &ns).unwrap();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: Default::default(),
            unfold_settings: Default::default(),
        };
        let translated = translate(&q, &ctx).unwrap();
        let cq = ContinuousQuery::register(translated, stream_mapping(), &db).unwrap();
        (cq, db)
    }

    fn agg_query(output_mode: &str, having: &str) -> String {
        format!(
            r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM S_out AS {output_mode}
            CONSTRUCT GRAPH NOW {{ ?c2 a sie:HighLoad }}
            FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE {{ ?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2. }}
            SEQUENCE BY StdSeq AS seq
            HAVING {having}
            "#
        )
    }

    /// Registers `text` over the shared deployment after `reshape` has had
    /// its way with the database.
    fn register_over(
        text: &str,
        reshape: impl FnOnce(&mut Database),
    ) -> Result<ContinuousQuery, String> {
        let (mut db, onto, maps) = deployment();
        reshape(&mut db);
        let q = parse_starql(text, &Namespaces::with_w3c_defaults()).unwrap();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: Default::default(),
            unfold_settings: Default::default(),
        };
        ContinuousQuery::register(translate(&q, &ctx).unwrap(), stream_mapping(), &db)
    }

    /// `S_Msmt` without the named column.
    fn drop_stream_column(column: &'static str) -> impl FnOnce(&mut Database) {
        move |db| {
            let table = db.table("S_Msmt").unwrap();
            let keep: Vec<usize> = (0..table.schema.columns().len())
                .filter(|&i| table.schema.columns()[i].name != column)
                .collect();
            let columns: Vec<(&str, ColumnType)> = keep
                .iter()
                .map(|&i| {
                    let c = &table.schema.columns()[i];
                    (c.name.as_str(), c.ty)
                })
                .collect();
            let rows = table
                .rows
                .iter()
                .map(|row| keep.iter().map(|&i| row[i].clone()).collect())
                .collect();
            let reshaped = table_of("S_Msmt", &columns, rows).unwrap();
            db.put_table("S_Msmt", reshaped);
        }
    }

    /// `S_Msmt` with `sensor_id` declared `ty`, its keys cast to fit.
    fn retype_sensor_key(ty: ColumnType) -> impl FnOnce(&mut Database) {
        move |db| {
            let table = db.table("S_Msmt").unwrap();
            let key = table.schema.index_of("sensor_id").unwrap();
            let columns: Vec<(&str, ColumnType)> = (table.schema.columns().iter().enumerate())
                .map(|(i, c)| (c.name.as_str(), if i == key { ty } else { c.ty }))
                .collect();
            let rows = (table.rows.iter())
                .map(|row| {
                    let mut row = row.clone();
                    if ty == ColumnType::Bool {
                        row[key] = Value::Bool(row[key] == Value::Int(10));
                    }
                    row
                })
                .collect();
            db.put_table("S_Msmt", table_of("S_Msmt", &columns, rows).unwrap());
        }
    }

    /// Regression: what a tick could only fail on is refused at
    /// registration — an unknown stream table, a missing timestamp column
    /// and, under an aggregate HAVING only, a missing subject or value
    /// column, or a subject column no IRI names a key of; and a WHERE
    /// binding that lacks an answer variable, however the caller made it.
    /// All of these used to register and then fail every tick, or read no
    /// group.
    #[test]
    fn registration_refuses_what_every_tick_would_fail_on() {
        let agg = agg_query("", "AVG(?c2, sie:hasValue) >= 80");
        let err = |r: Result<ContinuousQuery, String>| r.err().expect("refused");

        let (db, onto, maps) = deployment();
        let q = parse_starql(FIGURE1, &Namespaces::with_w3c_defaults()).unwrap();
        let ctx = TranslationContext {
            ontology: &onto,
            mappings: &maps,
            rewrite_settings: Default::default(),
            unfold_settings: Default::default(),
        };
        let translated = translate(&q, &ctx).unwrap();
        let sensor = Term::iri("http://siemens.example/data/sensor/10");
        let bindings = vec![
            HashMap::from([("c2".to_string(), sensor)]),
            HashMap::from([("c1".to_string(), Term::iri("http://x/assembly/1"))]),
        ];
        let e = err(ContinuousQuery::register_with_bindings(
            translated,
            stream_mapping(),
            &db,
            bindings,
        ));
        assert!(e.contains("lacks answer variable ?c2"), "{e}");

        let unknown = FIGURE1.replace("S_Msmt", "S_Nowhere");
        assert!(err(register_over(&unknown, |_| {})).contains("S_Nowhere"));
        let e = err(register_over(FIGURE1, drop_stream_column("ts")));
        assert!(e.contains("lacks column ts"), "{e}");
        let e = err(register_over(&agg, drop_stream_column("sensor_id")));
        assert!(e.contains("lacks subject column sensor_id"), "{e}");
        let e = err(register_over(&agg, drop_stream_column("value")));
        assert!(e.contains("lacks value column value"), "{e}");

        // Without an aggregate the subject and value columns are the
        // mapping's business: rows simply mint no triple, as before.
        let cq = register_over(FIGURE1, drop_stream_column("value")).unwrap();
        assert_eq!(
            cq.stream_keys(),
            Some(&[Value::Int(10), Value::Int(11)][..])
        );
        assert!(register_over(FIGURE1, drop_stream_column("sensor_id")).is_ok());

        // The codec inverts no IRI to a BOOL or ANY key, so no aggregate
        // atom can name a group of one; the sequence path still registers.
        for ty in [ColumnType::Any, ColumnType::Bool] {
            let e = err(register_over(&agg, retype_sensor_key(ty)));
            assert!(
                e.contains(&format!("subject column sensor_id is {ty}")),
                "{e}"
            );
            let cq = register_over(FIGURE1, retype_sensor_key(ty)).unwrap();
            assert_eq!(cq.binding_count(), 2);
        }
    }

    /// A pure aggregate HAVING tree is proven pane-combinable at
    /// registration; mixing in a graph pattern declines the analysis.
    #[test]
    fn pane_analysis_accepts_pure_aggregate_trees() {
        let (cq, _) = registered_text(&agg_query("", "AVG(?c2, sie:hasValue) >= 80"));
        assert!(cq.pane_combinable());
        let (cq, _) = registered_text(&agg_query(
            "",
            "SUM(?c2, sie:hasValue) >= 100 AND NOT COUNT(?c2, sie:hasValue) > 99",
        ));
        assert!(cq.pane_combinable());
        // A graph pattern needs the state sequence: declined.
        let (cq, _) = registered_text(&agg_query(
            "",
            "SUM(?c2, sie:hasValue) >= 100 AND EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure }",
        ));
        assert!(!cq.pane_combinable());
        // An aggregate over a property other than the mapped value
        // property has no pane grid: declined.
        let (cq, _) = registered_text(&agg_query("", "SUM(?c2, sie:hasTemperature) >= 100"));
        assert!(!cq.pane_combinable());
    }

    /// Pane-combined distributed ticks produce exactly the local reference
    /// output, and disabling the pane path at runtime falls back to
    /// full-window shipping with the same result.
    #[test]
    fn pane_ticks_match_local_ticks() {
        // Sensor 10 averages 74.5 over the ramp, sensor 11 averages 85.5:
        // threshold 80 fires for sensor 11 only.
        let (cq, db) = registered_text(&agg_query("", "AVG(?c2, sie:hasValue) >= 80"));
        assert!(cq.pane_combinable());
        let loopback = Loopback { db: db.clone() };
        for tick_ms in [1_000, 604_000, 609_000, 700_000] {
            let local = cq.tick(&db, &WCache::new(), tick_ms).unwrap();
            let paned = cq
                .tick_via(&db, &WCache::new(), tick_ms, Some(&loopback))
                .unwrap();
            assert_eq!(local.window_id, paned.window_id);
            assert_eq!(local.triples, paned.triples, "tick {tick_ms}");
            assert_eq!(local.satisfied, paned.satisfied);
            assert_eq!(local.tuples_in_window, paned.tuples_in_window);
            cq.set_pane_aggregation(false);
            let rescan = cq
                .tick_via(&db, &WCache::new(), tick_ms, Some(&loopback))
                .unwrap();
            cq.set_pane_aggregation(true);
            assert_eq!(local.triples, rescan.triples, "rescan tick {tick_ms}");
        }
        let alarm = cq.tick(&db, &WCache::new(), 609_000).unwrap();
        assert_eq!(alarm.satisfied, 1);
        assert_eq!(
            alarm.triples[0].subject,
            Term::iri("http://siemens.example/data/sensor/11")
        );
    }

    /// A declined-analysis query (aggregate AND graph pattern) still ticks
    /// identically through the full-window fragment fallback.
    #[test]
    fn declined_analysis_falls_back_to_window_shipping() {
        let (cq, db) = registered_text(&agg_query(
            "",
            "SUM(?c2, sie:hasValue) >= 100 AND EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure }",
        ));
        assert!(!cq.pane_combinable());
        let loopback = Loopback { db: db.clone() };
        for tick_ms in [604_000, 609_000, 700_000] {
            let local = cq.tick(&db, &WCache::new(), tick_ms).unwrap();
            let shipped = cq
                .tick_via(&db, &WCache::new(), tick_ms, Some(&loopback))
                .unwrap();
            assert_eq!(local.triples, shipped.triples, "tick {tick_ms}");
            assert_eq!(shipped.pane_hits + shipped.pane_misses, 0, "no pane probe");
        }
        // Only the failing-and-heavy sensor 10 fires at 609 s.
        let out = cq.tick(&db, &WCache::new(), 609_000).unwrap();
        assert_eq!(out.satisfied, 1);
        assert_eq!(
            out.triples[0].subject,
            Term::iri("http://siemens.example/data/sensor/10")
        );
    }

    /// ISTREAM emits an alarm only on the tick where it first appears;
    /// steady-state re-confirmations are empty deltas.
    #[test]
    fn istream_emits_only_new_alarms() {
        let (cq, db) = registered_text(&agg_query("ISTREAM", "AVG(?c2, sie:hasValue) >= 80"));
        assert_eq!(cq.output_mode(), OutputMode::IStream);
        let wcache = WCache::new();
        let first = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(first.triples.len(), 1, "first appearance streams out");
        assert_eq!(first.satisfied, 1, "satisfaction accounting is pre-differ");
        let second = cq.tick(&db, &wcache, 610_000).unwrap();
        assert_eq!(second.satisfied, 1, "alarm still holds");
        assert!(second.triples.is_empty(), "unchanged relation, empty delta");
    }

    /// DSTREAM emits an alarm only when it disappears.
    #[test]
    fn dstream_emits_dropped_alarms() {
        let (cq, db) = registered_text(&agg_query("DSTREAM", "AVG(?c2, sie:hasValue) >= 80"));
        let wcache = WCache::new();
        let present = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(present.satisfied, 1);
        assert!(present.triples.is_empty(), "nothing dropped yet");
        // The window (690s, 700s] is empty: the alarm disappears.
        let gone = cq.tick(&db, &wcache, 700_000).unwrap();
        assert_eq!(gone.satisfied, 0);
        assert_eq!(gone.triples.len(), 1, "the dropped alarm streams out");
        assert_eq!(
            gone.triples[0].subject,
            Term::iri("http://siemens.example/data/sensor/11")
        );
    }

    #[test]
    fn states_count_matches_distinct_timestamps() {
        let (cq, db) = registered();
        let wcache = WCache::new();
        let out = cq.tick(&db, &wcache, 609_000).unwrap();
        assert_eq!(out.states, 10, "ten distinct timestamps in the window");
        assert_eq!(out.tuples_in_window, 20);
    }
}

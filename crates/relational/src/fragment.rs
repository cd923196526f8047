//! Plan fragments and result batches — the unit of work and the unit of
//! result of the federated pipeline.
//!
//! A coordinator ships an unfolded `UNION ALL` statement as
//! [`PlanFragment`]s — one per routing group of its branches, each a
//! `UNION ALL` of its own carrying its **typed** [`SelectStatement`]
//! straight from the unfolder (or, for a STARQL window, straight from the
//! engine) — and hands them to ExaStream workers. Workers are threads of
//! the coordinator's process, and the boundary says so. What crosses it:
//!
//! * an `Arc<PlanFragment>` — the statement is shared, never printed,
//!   encoded or re-parsed on the request path. A fragment's execution has
//!   two halves: [`PlanFragment::plan`] slices, restricts and plans it
//!   against a catalog's schemas, and [`crate::exec::execute_branches`]
//!   runs that plan on a catalog's rows. Planning reads only schemas, which
//!   every shard and novelty view of a table shares, so a statement that
//!   runs unchanged on several shards is planned once and its
//!   [`LogicalPlan`] shared — for a prepared shape
//!   ([`PlanFragment::from_prepared`]), once per pool, bound per query;
//!   each worker moves its rows back;
//! * **term ids** — text values are [`crate::dict::TermDict`] terms, so a
//!   fragment's restriction lists and a result's text cells are only
//!   meaningful inside the process that interned them;
//! * a **novelty epoch** — a number each worker resolves through the
//!   overlay registry ([`crate::novelty::view_at`]), not the overlay's rows.
//!
//! None of that is self-contained, and nothing here pretends otherwise.
//! The text codec that *would* put a fragment or a batch on a socket is
//! [`crate::wire`], an adapter with no caller on the request path.
//! [`PlanFragment::new`] still takes SQL text (decoded wires and tests
//! start there); such a fragment parses lazily, at most once.
//!
//! Fragments may carry **semi-join restrictions** ([`SemiJoin`]): value
//! lists a coordinator learned from an already-materialized sibling of the
//! join, so each worker filters its disjunct down to join-compatible rows
//! *before* handing the result back. The restriction is applied
//! structurally ([`restrict_statement`]), never by splicing values into SQL
//! text.
//!
//! Fragments may additionally carry **partition metadata**
//! ([`PartitionSpec`]): when the coordinator's catalog hash-partitions a
//! table the fragment scans, the spec names the partition-key column so the
//! shipping layer can route the fragment. Two analyses build on it:
//!
//! * [`shard_compatibility`] decides whether a statement may run
//!   shard-locally at all — one partitioned scan always may; several may
//!   only when they are **co-partitioned** (their partition keys are
//!   equated by the join conditions, so joining rows share a shard);
//! * [`PlanFragment::shard_plan`] prunes a scatter round: when a semi-join
//!   restricts an output column derived 1:1 from the partition key (a bare
//!   column or an `iri_template` minting over it), each restriction value
//!   can only match rows on the shard it hashes to — the fragment ships
//!   only to those shards, each carrying just its shard's slice of the
//!   `IN`-list. A `UNION ALL` fragment prunes when every branch derives the
//!   restricted columns from its key the same way ([`key_routing`]): one
//!   slice then serves every branch.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::error::SqlError;
use crate::exec::ExecCounts;
use crate::expr::{BinOp, Expr};
use crate::iri_template::IriTemplate;
use crate::panes::PaneProbe;
use crate::parser::{Projection, SelectStatement, TableRef};
use crate::plan::LogicalPlan;
use crate::prepared::{bind_statement, Prepared};
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{Database, Table};
use crate::value::Value;

/// The shard a key value routes to under hash partitioning (NULL keys live
/// on shard 0). The single source of truth: table sharding
/// (`optique-exastream`) and fragment routing must agree bit-for-bit.
pub fn shard_of(key: &Value, n: usize) -> usize {
    if key.is_null() {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// One pushed-down semi-join: the named output column of a fragment must
/// take one of `values` (or be NULL — an unbound SPARQL position joins with
/// anything, so NULL rows must survive the filter).
#[derive(Clone, Debug, PartialEq)]
pub struct SemiJoin {
    /// The fragment output column (the projection alias) being restricted.
    pub column: String,
    /// The admissible values, as learned from the materialized side.
    pub values: Vec<Value>,
}

impl SemiJoin {
    /// A restriction of `column` to `values`. Values are canonically
    /// sorted at construction: restrictions are sets, and a canonical
    /// order makes equality and the wire encoding stable across rounds
    /// that learned the same set in a different order.
    pub fn new(column: impl Into<String>, mut values: Vec<Value>) -> Self {
        values.sort_by(Value::total_cmp);
        SemiJoin {
            column: column.into(),
            values,
        }
    }

    /// The sorted dictionary-id slice of an all-text restriction: what the
    /// wire codec writes instead of the lexical `IN`-list. `None` when any
    /// value is not interned text (mixed lists keep the tagged encoding).
    pub fn id_slice(&self) -> Option<Vec<u64>> {
        let mut ids = Vec::with_capacity(self.values.len());
        for value in &self.values {
            match value {
                Value::Text(t) => ids.push(t.id()),
                _ => return None,
            }
        }
        ids.sort_unstable();
        Some(ids)
    }
}

/// A time-slice a coordinator attaches to a **window fragment**: the
/// fragment's output keeps only rows whose `column` lies in
/// `(open_ms, close_ms]` — the CQL snapshot convention of one sliding
/// window. This is how continuous (STARQL) ticks ride the same fragment
/// path as static queries: a tick ships one scan-shaped fragment per window,
/// sliced worker-side, instead of evaluating privately on the coordinator.
/// Applied structurally around the statement ([`PlanFragment::statement`]),
/// like semi-joins — never by splicing values into SQL text.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSlice {
    /// The timestamp column (by output name) the slice filters on.
    pub column: String,
    /// Exclusive lower bound (window open), in milliseconds.
    pub open_ms: i64,
    /// Inclusive upper bound (window close), in milliseconds.
    pub close_ms: i64,
}

/// Partition-layout metadata a coordinator attaches to a scatter fragment:
/// the hash-partitioned tables the fragment scans, each with its
/// partition-key column, the keys all of `column_type`. Pure routing
/// metadata — execution ignores it — but [`PlanFragment::shard_plan`] uses
/// it to prune the scatter.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionSpec {
    /// `(table, key column)` of each hash-partitioned base table the
    /// fragment scans (the branches of a `UNION ALL` fragment may scan
    /// several).
    pub tables: Vec<(String, String)>,
    /// The key columns' declared type (drives `IN`-list value coercion when
    /// inverting minted IRIs back to raw keys).
    pub column_type: ColumnType,
}

/// One executable unit of a federated static query: a statement (typically
/// one disjunct of an unfolded `UNION ALL`) plus the cost estimate the
/// scheduler places it by and any semi-join restrictions the planner
/// pushed down.
#[derive(Clone, Debug)]
pub struct PlanFragment {
    /// Coordinator-assigned id; results are gathered back in id order.
    pub id: u64,
    /// Placement cost estimate in abstract work units (e.g. join count).
    pub cost: f64,
    /// Semi-join restrictions applied on top of the statement at execution.
    pub semi_joins: Vec<SemiJoin>,
    /// Partition layout of the scanned table, when the coordinator shards
    /// it — enables shard-pruned scatter ([`Self::shard_plan`]).
    pub partition: Option<PartitionSpec>,
    /// Time-slice of one sliding window, for fragments a continuous query
    /// ships per tick ([`WindowSlice`]).
    pub window: Option<WindowSlice>,
    /// A pane-combine probe ([`PaneProbe`]): instead of executing the
    /// statement, each worker answers with per-key partial aggregates
    /// combined from its shard-local pane store. The statement still
    /// describes the equivalent scan for humans and fallback paths.
    pub pane: Option<PaneProbe>,
    /// The novelty epoch the coordinator pinned for this round (0 = no
    /// overlay): every worker resolves the same overlay
    /// ([`crate::novelty::view_at`]), so one scatter round never mixes
    /// pre- and post-append rows across workers.
    pub novelty_epoch: u64,
    body: Body,
}

/// What a fragment was built from. Clones share the statement (and a
/// text fragment's parse, once it happened).
#[derive(Clone, Debug)]
enum Body {
    /// Built from the AST: workers execute off this very statement.
    Typed(Arc<SelectStatement>),
    /// Built from SQL text; `parsed` memoizes the one parse (or its error).
    Text {
        sql: Arc<str>,
        parsed: OnceLock<Result<Arc<SelectStatement>, SqlError>>,
    },
    /// A prepared statement and its binding; `bound` memoizes the one
    /// binding of the statement, for whoever asks for it (an executor that
    /// plans a shape once binds its plan instead).
    Prepared {
        prepared: Arc<Prepared>,
        bound: OnceLock<Result<Arc<SelectStatement>, SqlError>>,
    },
}

/// Fragments are equal when they would put the same bytes on the wire:
/// same sections, same SQL text (a typed fragment's is its statement,
/// printed).
impl PartialEq for PlanFragment {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.cost == other.cost
            && self.novelty_epoch == other.novelty_epoch
            && self.semi_joins == other.semi_joins
            && self.partition == other.partition
            && self.window == other.window
            && self.pane == other.pane
            && self.sql() == other.sql()
    }
}

impl PlanFragment {
    fn with_body(id: u64, body: Body, cost: f64) -> Self {
        PlanFragment {
            id,
            cost,
            semi_joins: Vec::new(),
            partition: None,
            window: None,
            pane: None,
            novelty_epoch: 0,
            body,
        }
    }

    /// A fragment over SQL text (no restrictions). The text is parsed
    /// lazily, at most once ([`Self::base_statement`]).
    pub fn new(id: u64, sql: impl Into<String>, cost: f64) -> Self {
        let body = Body::Text {
            sql: sql.into().into(),
            parsed: OnceLock::new(),
        };
        Self::with_body(id, body, cost)
    }

    /// A fragment over an already-typed statement (no restrictions) — what
    /// the unfolder and the STARQL engine hand over; nothing is printed or
    /// parsed to execute it.
    pub fn from_statement(id: u64, statement: SelectStatement, cost: f64) -> Self {
        Self::with_body(id, Body::Typed(Arc::new(statement)), cost)
    }

    /// A fragment over a prepared statement bound for one execution. Read
    /// as a statement ([`Self::base_statement`], [`Self::sql`], …) it is
    /// the bound statement: its values in place, its pruned branches gone.
    pub fn from_prepared(id: u64, prepared: Arc<Prepared>, cost: f64) -> Self {
        let body = Body::Prepared {
            prepared,
            bound: OnceLock::new(),
        };
        Self::with_body(id, body, cost)
    }

    /// The prepared statement and binding of a fragment built by
    /// [`Self::from_prepared`].
    pub fn prepared(&self) -> Option<&Arc<Prepared>> {
        match &self.body {
            Body::Prepared { prepared, .. } => Some(prepared),
            _ => None,
        }
    }

    /// Attaches semi-join restrictions (builder style).
    pub fn with_semi_joins(mut self, semi_joins: Vec<SemiJoin>) -> Self {
        self.semi_joins = semi_joins;
        self
    }

    /// Attaches partition metadata (builder style).
    pub fn with_partition(mut self, partition: PartitionSpec) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Attaches a window time-slice (builder style).
    pub fn with_window(mut self, window: WindowSlice) -> Self {
        self.window = Some(window);
        self
    }

    /// Attaches a pane-combine probe (builder style): the fragment answers
    /// from shard-local panes instead of executing its statement.
    pub fn with_pane(mut self, pane: PaneProbe) -> Self {
        self.pane = Some(pane);
        self
    }

    /// Pins the fragment to a novelty epoch (builder style): workers
    /// execute it over the base catalog merged with exactly that overlay.
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.novelty_epoch = epoch;
        self
    }

    /// The fragment's SQL text: what it was built from, or its statement
    /// printed (for the wire codec and for humans — execution never asks).
    pub fn sql(&self) -> Cow<'_, str> {
        match &self.body {
            Body::Typed(statement) => Cow::Owned(statement.to_string()),
            Body::Text { sql, .. } => Cow::Borrowed(sql),
            Body::Prepared { .. } => match self.base_statement() {
                Ok(statement) => Cow::Owned(statement.to_string()),
                Err(e) => Cow::Owned(format!("-- {e}")),
            },
        }
    }

    /// False only for a text-built fragment nobody has parsed yet — the
    /// next [`Self::base_statement`] call on it pays a SQL parse.
    pub fn is_parsed(&self) -> bool {
        match &self.body {
            Body::Typed(_) | Body::Prepared { .. } => true,
            Body::Text { parsed, .. } => parsed.get().is_some(),
        }
    }

    /// The statement as built or parsed, before the window slice and the
    /// semi-join restrictions — what classification and shard routing
    /// read. A text-built fragment parses here, once; clones made afterwards
    /// share the parse.
    pub fn base_statement(&self) -> Result<&Arc<SelectStatement>, SqlError> {
        match &self.body {
            Body::Typed(statement) => Ok(statement),
            Body::Text { sql, parsed } => parsed
                .get_or_init(|| crate::parser::parse_select(sql).map(Arc::new))
                .as_ref()
                .map_err(Clone::clone),
            Body::Prepared { prepared, bound } => bound
                .get_or_init(|| {
                    bind_statement(&prepared.statement, &prepared.binding)
                        .map(Arc::new)
                        .ok_or_else(|| SqlError::Execution("every branch is pruned".into()))
                })
                .as_ref()
                .map_err(Clone::clone),
        }
    }

    /// The fragment's executable statement: the base statement with the
    /// window time-slice (when present) and any semi-join restrictions
    /// applied around it, in that order.
    pub fn statement(&self) -> Result<SelectStatement, SqlError> {
        Ok(self.executable()?.into_owned())
    }

    /// [`Self::statement`], borrowing the shared AST when there is nothing
    /// to wrap around it.
    fn executable(&self) -> Result<Cow<'_, SelectStatement>, SqlError> {
        let base = self.base_statement()?;
        if self.window.is_none() && self.semi_joins.is_empty() {
            return Ok(Cow::Borrowed(base));
        }
        let mut statement = SelectStatement::clone(base);
        if let Some(window) = &self.window {
            statement = slice_statement(statement, window);
        }
        Ok(Cow::Owned(restrict_statement(statement, &self.semi_joins)))
    }

    /// The fragment's base statement, owned: moved out when nothing else
    /// shares it, cloned otherwise. A text-built fragment nobody parsed
    /// yet parses here.
    pub fn into_statement(self) -> Result<SelectStatement, SqlError> {
        if let Body::Prepared { .. } = &self.body {
            return Ok(SelectStatement::clone(self.base_statement()?));
        }
        let shared = match self.body {
            Body::Typed(statement) => statement,
            Body::Text { sql, parsed } => match parsed.into_inner() {
                Some(parsed) => parsed?,
                None => Arc::new(crate::parser::parse_select(&sql)?),
            },
            Body::Prepared { .. } => unreachable!("answered above"),
        };
        Ok(Arc::try_unwrap(shared).unwrap_or_else(|shared| SelectStatement::clone(&shared)))
    }

    /// Slices, restricts and plans the fragment against `db`'s schemas —
    /// the first half of every execution, so a window slice or restriction
    /// is never silently dropped on any path. Planning reads only schemas:
    /// the plan executes unchanged on every shard and every novelty view of
    /// the tables it scans ([`crate::exec::execute_branches`]).
    pub fn plan(&self, db: &Database) -> Result<LogicalPlan, SqlError> {
        plan_prepared(self.executable()?.as_ref(), db)
    }

    /// Plans and executes the fragment against `db`, at its novelty epoch —
    /// what a coordinator runs when it answers a fragment itself.
    pub fn execute(&self, db: &Database) -> Result<Table, SqlError> {
        let view = crate::novelty::view_at(db, self.novelty_epoch)?;
        let db = view.as_ref().unwrap_or(db);
        // A pane probe bypasses SQL execution entirely: the store-less
        // reference fold keeps coordinator fallbacks and single-worker
        // loopbacks bit-identical to the pane-store answers.
        if let Some(probe) = &self.pane {
            return crate::panes::compute_window_aggregates(probe, db);
        }
        crate::exec::execute(&self.plan(db)?, db)
    }

    /// A one-line human summary for trace spans and plan displays: the
    /// first `SQL_PREVIEW` bytes of the SQL (whitespace-collapsed, cut on
    /// a character boundary) plus markers for the window slice, semi-join
    /// restrictions and partition metadata it carries.
    pub fn describe(&self) -> String {
        let mut preview = Preview::default();
        // The preview stops the printer once it is full (`Err` is how a
        // `fmt::Write` says "no more"), so a typed fragment never prints
        // its whole statement to keep the head of it.
        let _ = match &self.body {
            Body::Typed(statement) => write!(preview, "{statement}"),
            Body::Text { sql, .. } => preview.write_str(sql),
            Body::Prepared { prepared, .. } => write!(preview, "{}", prepared.statement),
        };
        let mut out = preview.0;
        out.truncate(out.trim_end().len());
        if let Some(win) = &self.window {
            let _ = write!(out, " [win {}..{})", win.open_ms, win.close_ms);
        }
        if let Some(pane) = &self.pane {
            let _ = write!(
                out,
                " [pane w{} {}..{}]",
                pane.width_ms, pane.open_ms, pane.close_ms
            );
        }
        if !self.semi_joins.is_empty() {
            let keys: usize = self.semi_joins.iter().map(|s| s.values.len()).sum();
            let _ = write!(out, " [⋉ {} col, {} key]", self.semi_joins.len(), keys);
        }
        if let Some(part) = &self.partition {
            let columns: BTreeSet<&str> = part.tables.iter().map(|(_, c)| c.as_str()).collect();
            let columns: Vec<&str> = columns.into_iter().collect();
            let _ = write!(out, " [part {}]", columns.join(","));
        }
        out
    }
}

/// Bytes of SQL a [`PlanFragment::describe`] line keeps.
const SQL_PREVIEW: usize = 48;

/// The sink behind [`PlanFragment::describe`]: collapses whitespace, keeps
/// whole characters while they fit in [`SQL_PREVIEW`] bytes, then marks
/// the cut and refuses further input.
#[derive(Default)]
struct Preview(String);

impl std::fmt::Write for Preview {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for c in s.chars() {
            let c = if c.is_whitespace() { ' ' } else { c };
            if c == ' ' && (self.0.is_empty() || self.0.ends_with(' ')) {
                continue;
            }
            if self.0.len() + c.len_utf8() > SQL_PREVIEW {
                self.0.push('…');
                return Err(std::fmt::Error);
            }
            self.0.push(c);
        }
        Ok(())
    }
}

/// Plans and executes an already-built statement against `db` — the
/// execution half of [`PlanFragment::execute`].
pub fn execute_prepared(statement: &SelectStatement, db: &Database) -> Result<Table, SqlError> {
    execute_prepared_counted(statement, db).map(|(table, _)| table)
}

/// [`execute_prepared`], also reporting the scan work it did.
pub fn execute_prepared_counted(
    statement: &SelectStatement,
    db: &Database,
) -> Result<(Table, ExecCounts), SqlError> {
    crate::exec::execute_counted(&plan_prepared(statement, db)?, db)
}

/// Plans and optimizes an already-built statement against `db`'s schemas —
/// the planning half of [`execute_prepared_counted`].
fn plan_prepared(statement: &SelectStatement, db: &Database) -> Result<LogicalPlan, SqlError> {
    Ok(crate::optimizer::optimize(crate::plan::plan_select(
        statement, db,
    )?))
}

/// The base tables a statement reads, across joins, subqueries and
/// `UNION ALL` arms — what a cached result of the statement *depends on*.
pub fn referenced_tables(statement: &SelectStatement) -> BTreeSet<String> {
    fn walk(statement: &SelectStatement, out: &mut BTreeSet<String>) {
        let mut refs = vec![&statement.from];
        refs.extend(statement.joins.iter().map(|j| &j.table));
        for table_ref in refs {
            match table_ref {
                TableRef::Named { name, .. } => {
                    out.insert(name.clone());
                }
                TableRef::Subquery { query, .. } => walk(query, out),
            }
        }
        if let Some(next) = statement.union_all.as_deref() {
            walk(next, out);
        }
    }
    let mut out = BTreeSet::new();
    walk(statement, &mut out);
    out
}

/// Applies a window time-slice around a statement: each disjunct of its
/// `UNION ALL` chain is wrapped in `SELECT * FROM (disjunct) WHERE col >
/// open AND col <= close` — the `(open, close]` half-open convention of
/// every window ([`WindowSlice`]).
fn slice_statement(statement: SelectStatement, window: &WindowSlice) -> SelectStatement {
    map_disjuncts(statement, &|disjunct| slice_one(disjunct, window))
}

/// Applies `wrap` to every disjunct of a `UNION ALL` chain, keeping the
/// chain's order.
fn map_disjuncts(
    mut statement: SelectStatement,
    wrap: &impl Fn(SelectStatement) -> SelectStatement,
) -> SelectStatement {
    let rest = statement.union_all.take();
    let mut wrapped = wrap(statement);
    wrapped.union_all = rest.map(|next| Box::new(map_disjuncts(*next, wrap)));
    wrapped
}

fn slice_one(statement: SelectStatement, window: &WindowSlice) -> SelectStatement {
    let column = || Box::new(Expr::Column(window.column.clone()));
    let predicate = Expr::binary(
        BinOp::And,
        Expr::binary(
            BinOp::Gt,
            *column(),
            Expr::Literal(Value::Timestamp(window.open_ms)),
        ),
        Expr::binary(
            BinOp::Le,
            *column(),
            Expr::Literal(Value::Timestamp(window.close_ms)),
        ),
    );
    filter_around(statement, "__win", predicate)
}

/// `SELECT * FROM (statement) AS alias WHERE predicate`.
fn filter_around(statement: SelectStatement, alias: &str, predicate: Expr) -> SelectStatement {
    SelectStatement {
        where_clause: Some(predicate),
        ..SelectStatement::plain(
            vec![Projection::Star],
            TableRef::Subquery {
                query: Box::new(statement),
                alias: alias.into(),
            },
        )
    }
}

/// Applies semi-join restrictions around a statement: each disjunct of its
/// `UNION ALL` chain is wrapped in `SELECT * FROM (disjunct) WHERE col IN
/// (values) OR col IS NULL` for every restriction. NULL output positions
/// survive — an unbound SPARQL variable is join-compatible with anything —
/// so restricting can only drop rows that cannot contribute to the join.
pub fn restrict_statement(statement: SelectStatement, semi_joins: &[SemiJoin]) -> SelectStatement {
    if semi_joins.is_empty() {
        return statement;
    }
    let predicate = restriction_predicate(semi_joins);
    map_disjuncts(statement, &|disjunct| {
        filter_around(disjunct, "__semi", predicate.clone())
    })
}

/// Lists longer than this restrict through a hash-set probe
/// ([`Expr::InSet`]) instead of a linear `IN` scan — pushdown can ship
/// hundreds of values per fragment, and a per-row linear probe would make
/// restricted scans quadratic.
const IN_SET_THRESHOLD: usize = 8;

/// `col IN (values) OR col IS NULL` for every restriction, conjoined.
fn restriction_predicate(semi_joins: &[SemiJoin]) -> Expr {
    Expr::and_all(
        semi_joins
            .iter()
            .map(|semi| {
                let column = || Box::new(Expr::Column(semi.column.clone()));
                let is_null = Expr::IsNull {
                    expr: column(),
                    negated: false,
                };
                if semi.values.is_empty() {
                    // No admissible bound value: only NULL rows can join.
                    is_null
                } else {
                    let membership = if semi.values.len() > IN_SET_THRESHOLD
                        && semi.values.iter().all(|v| !v.is_null())
                    {
                        Expr::InSet {
                            expr: column(),
                            set: std::sync::Arc::new(semi.values.iter().cloned().collect()),
                        }
                    } else {
                        Expr::InList {
                            expr: column(),
                            list: semi
                                .values
                                .iter()
                                .map(|v| Expr::Literal(v.clone()))
                                .collect(),
                            negated: false,
                        }
                    };
                    Expr::binary(crate::expr::BinOp::Or, membership, is_null)
                }
            })
            .collect(),
    )
    .expect("semi_joins is non-empty")
}

// ---- shard compatibility & pruning -------------------------------------

/// How one statement may execute over a catalog whose tables in `partition`
/// are hash-partitioned (each worker holding one shard, everything else
/// replicated).
#[derive(Clone, Debug, PartialEq)]
pub enum ShardCompatibility {
    /// The statement scans no partitioned table: any single worker's
    /// replicas answer it.
    Unpartitioned,
    /// The statement may scatter: every worker runs it over its shard and
    /// the partial results concatenate to the global answer. Either exactly
    /// one partitioned scan, or several whose partition keys the join
    /// conditions equate (**co-partitioned** — joining rows share a shard).
    ///
    /// A DISTINCT statement scatters too: shard-local dedup cannot see
    /// cross-shard duplicates, so the gather deduplicates its partials.
    Scatter {
        /// A partitioned table the statement scans (the first occurrence) —
        /// the routing spec shard pruning keys on.
        table: String,
        /// That table's partition-key column.
        column: String,
    },
    /// Shard-local execution would be incomplete (a non-co-partitioned
    /// multi-shard join, a non-decomposable shape, or a partitioned scan
    /// buried where the analysis cannot see it): only a catalog holding the
    /// full tables answers correctly.
    Incompatible,
}

/// One resolved occurrence of a partitioned table among a statement's
/// top-level FROM/JOIN relations.
struct PartitionedOccurrence {
    table: String,
    key: String,
    /// Outer column names that read the partition key (`u0.sid`), empty
    /// when the occurrence does not project it.
    key_names: Vec<String>,
}

enum RefOutcome {
    /// Reads only replicated tables.
    Replicated,
    /// A partitioned scan the analysis fully resolved.
    Partitioned(PartitionedOccurrence),
    /// Touches a partitioned table in a shape the analysis cannot decompose
    /// (nested subqueries, subquery-local joins / modifiers / aggregates).
    Opaque,
}

/// Walks a statement tree (including subqueries and `UNION ALL`) checking
/// whether any base-table reference is partitioned.
fn references_partitioned(statement: &SelectStatement, partition: &[(String, String)]) -> bool {
    let mut refs = vec![&statement.from];
    refs.extend(statement.joins.iter().map(|j| &j.table));
    for table_ref in refs {
        match table_ref {
            TableRef::Named { name, .. } => {
                if partition.iter().any(|(t, _)| t == name) {
                    return true;
                }
            }
            TableRef::Subquery { query, .. } => {
                if references_partitioned(query, partition) {
                    return true;
                }
            }
        }
    }
    statement
        .union_all
        .as_deref()
        .is_some_and(|next| references_partitioned(next, partition))
}

/// True when concatenating per-shard results of `statement` yields the
/// global result (modulo DISTINCT, handled by the caller): plain
/// select-project-join with no aggregation, grouping, ordering or slicing —
/// exactly the shape mapping unfolding emits.
fn concat_decomposable(statement: &SelectStatement) -> bool {
    statement.group_by.is_empty()
        && statement.having.is_none()
        && statement.order_by.is_empty()
        && statement.limit.is_none()
        && statement.union_all.is_none()
        && !statement.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate(),
            Projection::Star => false,
        })
}

/// Resolves one top-level relation against the partition map.
fn analyze_ref(table_ref: &TableRef, partition: &[(String, String)], sole_ref: bool) -> RefOutcome {
    let key_of = |table: &str| {
        partition
            .iter()
            .find(|(t, _)| t == table)
            .map(|(_, k)| k.as_str())
    };
    match table_ref {
        TableRef::Named { name, alias } => match key_of(name) {
            None => RefOutcome::Replicated,
            Some(key) => {
                let mut key_names = vec![format!("{alias}.{key}")];
                if sole_ref {
                    key_names.push(key.to_string());
                }
                RefOutcome::Partitioned(PartitionedOccurrence {
                    table: name.clone(),
                    key: key.to_string(),
                    key_names,
                })
            }
        },
        TableRef::Subquery { query, alias } => {
            if !references_partitioned(query, partition) {
                return RefOutcome::Replicated;
            }
            // The scan must be a simple, concat-decomposable select over
            // the partitioned base table itself — a subquery-local join,
            // modifier or deeper nesting hides rows the shard analysis
            // cannot account for.
            let TableRef::Named { name, .. } = &query.from else {
                return RefOutcome::Opaque;
            };
            let Some(key) = key_of(name) else {
                // The partitioned reference sits in a join arm or deeper.
                return RefOutcome::Opaque;
            };
            // A subquery-level DISTINCT is also out: per-shard dedup misses
            // cross-shard duplicates, and the top-level dedup flag cannot
            // repair a nested one (the outer projection may widen it).
            if !query.joins.is_empty() || query.distinct || !concat_decomposable(query) {
                return RefOutcome::Opaque;
            }
            let mut key_names = Vec::new();
            for projection in &query.projections {
                match projection {
                    Projection::Star => key_names.push(format!("{alias}.{key}")),
                    Projection::Expr {
                        expr: Expr::Column(c),
                        alias: out,
                    } if last_segment(c) == key => {
                        let out = out.as_deref().unwrap_or_else(|| last_segment(c));
                        key_names.push(format!("{alias}.{out}"));
                    }
                    _ => {}
                }
            }
            RefOutcome::Partitioned(PartitionedOccurrence {
                table: name.clone(),
                key: key.to_string(),
                key_names,
            })
        }
    }
}

fn last_segment(column: &str) -> &str {
    column.rsplit('.').next().unwrap_or(column)
}

/// Column-equality edges (`a.x = b.y`) from every JOIN `ON` and the WHERE
/// clause — the join graph co-partitioning is checked against.
fn equality_edges(statement: &SelectStatement) -> Vec<(String, String)> {
    let mut conjuncts: Vec<Expr> = Vec::new();
    for join in &statement.joins {
        conjuncts.extend(crate::plan::split_conjuncts(&join.on));
    }
    if let Some(where_clause) = &statement.where_clause {
        conjuncts.extend(crate::plan::split_conjuncts(where_clause));
    }
    conjuncts
        .into_iter()
        .filter_map(|conjunct| match conjunct {
            Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => match (*left, *right) {
                (Expr::Column(l), Expr::Column(r)) => Some((l, r)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Union-find over column names.
struct ColumnClasses {
    parent: HashMap<String, String>,
}

impl ColumnClasses {
    fn new() -> Self {
        ColumnClasses {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, name: &str) -> String {
        let up = match self.parent.get(name) {
            None => {
                self.parent.insert(name.to_string(), name.to_string());
                return name.to_string();
            }
            Some(up) => up.clone(),
        };
        if up == name {
            return up;
        }
        let root = self.find(&up);
        self.parent.insert(name.to_string(), root.clone());
        root
    }

    fn union(&mut self, a: &str, b: &str) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Decides how `statement` may execute when the tables in `partition`
/// (`(table, key_column)` pairs) are hash-partitioned across workers. See
/// [`ShardCompatibility`] for the verdicts.
pub fn shard_compatibility(
    statement: &SelectStatement,
    partition: &[(String, String)],
) -> ShardCompatibility {
    if !references_partitioned(statement, partition) {
        return ShardCompatibility::Unpartitioned;
    }
    if !concat_decomposable(statement) {
        return ShardCompatibility::Incompatible;
    }
    // Outer joins are not scatter-sound once a shard is involved: a LEFT
    // JOIN preserving a replicated side would NULL-pad every replicated row
    // lacking a *shard-local* match, on every worker — spurious rows the
    // global join does not contain.
    if statement
        .joins
        .iter()
        .any(|join| join.join_type != crate::parser::JoinType::Inner)
    {
        return ShardCompatibility::Incompatible;
    }
    let sole_ref = statement.joins.is_empty();
    let mut occurrences: Vec<PartitionedOccurrence> = Vec::new();
    let mut refs = vec![&statement.from];
    refs.extend(statement.joins.iter().map(|j| &j.table));
    for table_ref in refs {
        match analyze_ref(table_ref, partition, sole_ref) {
            RefOutcome::Replicated => {}
            RefOutcome::Partitioned(occurrence) => occurrences.push(occurrence),
            RefOutcome::Opaque => return ShardCompatibility::Incompatible,
        }
    }
    let scatter = |first: &PartitionedOccurrence| ShardCompatibility::Scatter {
        table: first.table.clone(),
        column: first.key.clone(),
    };
    match occurrences.as_slice() {
        [] => ShardCompatibility::Unpartitioned,
        [single] => scatter(single),
        several => {
            // Several partitioned scans join soundly shard-locally only
            // when co-partitioned: every occurrence's partition key sits in
            // one equality class, so joining rows hash to the same shard.
            let mut classes = ColumnClasses::new();
            for (a, b) in equality_edges(statement) {
                classes.union(&a, &b);
            }
            for occurrence in several {
                // An occurrence's aliases for its own key are one thing.
                for pair in occurrence.key_names.windows(2) {
                    classes.union(&pair[0], &pair[1]);
                }
            }
            let mut roots = several
                .iter()
                .map(|occurrence| occurrence.key_names.first().map(|name| classes.find(name)));
            let Some(Some(first_root)) = roots.next() else {
                return ShardCompatibility::Incompatible;
            };
            if roots.all(|root| root.as_deref() == Some(first_root.as_str())) {
                scatter(&several[0])
            } else {
                ShardCompatibility::Incompatible
            }
        }
    }
}

/// How a restricted output column derives from the partition key.
#[derive(Clone, Debug, PartialEq)]
enum KeyDerivation {
    /// The projection is the key column itself.
    Direct,
    /// The projection mints an IRI over the key: `iri_template(pattern, key)`.
    Template(IriTemplate),
}

/// How a statement derives the output columns its semi-joins restrict from
/// its partition keys: per key-derived restriction (by index), the
/// derivation — what shard pruning inverts each restriction value by.
/// Two statements with equal routing (and keys of one type) prune by the
/// same per-shard slices. Empty when no restriction is key-derived, or
/// when the branches of a `UNION ALL` statement disagree: then nothing
/// prunes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KeyRouting(Vec<(usize, KeyDerivation)>);

impl KeyRouting {
    /// True when no restriction routes: the statement scatters unpruned.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The [`KeyRouting`] of `statement` under `semi_joins`, where `partition`
/// lists the hash-partitioned `(table, key column)` pairs: every branch of
/// a `UNION ALL` must route alike, or the statement does not route.
pub fn key_routing(
    statement: &SelectStatement,
    partition: &[(String, String)],
    semi_joins: &[SemiJoin],
) -> KeyRouting {
    let mut branches =
        (statement.branches()).map(|branch| branch_routing(branch, partition, semi_joins));
    let first = branches.next().unwrap_or_default();
    if first.is_empty() || !branches.all(|routing| routing == first) {
        return KeyRouting::default();
    }
    KeyRouting(first)
}

/// [`key_routing`] of one branch (its `union_all` ignored).
fn branch_routing(
    statement: &SelectStatement,
    partition: &[(String, String)],
    semi_joins: &[SemiJoin],
) -> Vec<(usize, KeyDerivation)> {
    // Outer names of the partition key (co-partitioned occurrences all
    // qualify — their keys are equated, so any of them routes).
    let mut key_names: BTreeSet<String> = BTreeSet::new();
    let sole_ref = statement.joins.is_empty();
    let mut refs = vec![&statement.from];
    refs.extend(statement.joins.iter().map(|j| &j.table));
    for table_ref in refs {
        if let RefOutcome::Partitioned(occurrence) = analyze_ref(table_ref, partition, sole_ref) {
            key_names.extend(occurrence.key_names);
        }
    }
    if key_names.is_empty() {
        return Vec::new();
    }
    (semi_joins.iter().enumerate())
        .filter_map(|(idx, semi)| Some((idx, key_derivation(statement, &semi.column, &key_names)?)))
        .collect()
}

impl PlanFragment {
    /// Shard-pruned scatter plan: when this fragment carries partition
    /// metadata and a semi-join restricts an output column derived 1:1 from
    /// the partition key — the same way in every branch ([`key_routing`]) —
    /// each restriction value can only match rows on the shard it hashes
    /// to. Returns the per-shard fragments to run — each carrying only its
    /// shard's slice of the key-derived `IN`-lists, which every branch
    /// reads — for exactly the shards that can hold matching rows (shard 0
    /// always included: NULL keys live there and NULL outputs survive every
    /// restriction). When a large list targets every shard the plan still
    /// pays off: each worker receives only its slice of the values. `None`
    /// means no key derivation applies and the fragment must scatter to
    /// all `shards` unchanged.
    pub fn shard_plan(&self, shards: usize) -> Option<Vec<(usize, PlanFragment)>> {
        let spec = self.partition.as_ref()?;
        // Bool/Any keys cannot be routed: a minted IRI's text does not pin
        // down which variant the stored value has, and `Value`'s hash is
        // variant-sensitive for non-numerics.
        if shards <= 1
            || self.semi_joins.is_empty()
            || matches!(spec.column_type, ColumnType::Bool | ColumnType::Any)
        {
            return None;
        }
        let statement = self.base_statement().ok()?;
        let KeyRouting(derivations) = key_routing(statement, &spec.tables, &self.semi_joins);
        if derivations.is_empty() {
            return None;
        }

        // Slice each key-derived list by target shard; intersect targets.
        let mut targets: Option<BTreeSet<usize>> = None;
        let mut slices: Vec<(usize, BTreeMap<usize, Vec<Value>>)> = Vec::new();
        for (idx, derivation) in derivations {
            let mut by_shard: BTreeMap<usize, Vec<Value>> = BTreeMap::new();
            for value in &self.semi_joins[idx].values {
                // A value the derivation cannot map to a raw key cannot be
                // minted by this fragment's scan — it matches no row on any
                // shard and is dropped from every slice.
                let Some(raw) = invert_restriction_value(value, &derivation, spec.column_type)
                else {
                    continue;
                };
                by_shard
                    .entry(shard_of(&raw, shards))
                    .or_default()
                    .push(value.clone());
            }
            let mut mine: BTreeSet<usize> = by_shard.keys().copied().collect();
            // NULL partition keys live on shard 0 and NULL outputs survive
            // every restriction.
            mine.insert(0);
            targets = Some(match targets {
                None => mine,
                Some(prev) => prev.intersection(&mine).copied().collect(),
            });
            slices.push((idx, by_shard));
        }
        let targets = targets.expect("at least one derivation");
        // Even when every shard is targeted (a large list hashing
        // everywhere), the per-shard slices still matter: each worker
        // receives ~1/shards of the values instead of the whole list —
        // exactly the promise behind the widened restriction budget.
        Some(
            targets
                .into_iter()
                .map(|shard| {
                    let mut fragment = self.clone();
                    for (idx, by_shard) in &slices {
                        fragment.semi_joins[*idx].values =
                            by_shard.get(&shard).cloned().unwrap_or_default();
                    }
                    (shard, fragment)
                })
                .collect(),
        )
    }
}

/// Finds the projection producing output column `column` and decides
/// whether it derives 1:1 from a partition-key column in `key_names`.
fn key_derivation(
    statement: &SelectStatement,
    column: &str,
    key_names: &BTreeSet<String>,
) -> Option<KeyDerivation> {
    let is_key = |c: &str| key_names.contains(c);
    for projection in &statement.projections {
        let Projection::Expr { expr, alias } = projection else {
            continue;
        };
        let output = match (alias, expr) {
            (Some(alias), _) => alias.as_str(),
            (None, Expr::Column(c)) => last_segment(c),
            _ => continue,
        };
        if output != column {
            continue;
        }
        return match expr {
            Expr::Column(c) if is_key(c) => Some(KeyDerivation::Direct),
            Expr::Mint { template, key } => match &**key {
                Expr::Column(c) if is_key(c) => Some(KeyDerivation::Template(template.clone())),
                _ => None,
            },
            _ => None,
        };
    }
    None
}

/// Maps one restriction value back to the raw partition-key value it must
/// have been minted from, or `None` when no row can produce it.
fn invert_restriction_value(
    value: &Value,
    derivation: &KeyDerivation,
    key_type: ColumnType,
) -> Option<Value> {
    match derivation {
        KeyDerivation::Direct => {
            // NULL in an IN-list matches nothing (the NULL-row case is the
            // separate IS NULL branch, handled by always targeting shard 0).
            (!value.is_null()).then(|| value.clone())
        }
        // Bool and Any keys never reach this point: `shard_plan` declines
        // up front, because the minted text does not pin down the stored
        // value's variant — Text("123") and Int(123) render identically but
        // hash to different shards.
        KeyDerivation::Template(template) => template.invert(value.as_str()?, key_type),
    }
}

/// One dictionary-encoded column of a [`ResultBatch`]: typed primitive
/// vectors for the uniform cases, dictionary ids for text, tagged cells as
/// the mixed-type fallback. The representation is chosen per column from
/// the *values* (not the declared type), so a loosely-typed `ANY` column
/// that happens to be all integers still ships as a primitive vector.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers (`None` = NULL).
    Int(Vec<Option<i64>>),
    /// 64-bit floats (`None` = NULL).
    Float(Vec<Option<f64>>),
    /// Booleans (`None` = NULL).
    Bool(Vec<Option<bool>>),
    /// Millisecond timestamps (`None` = NULL).
    Timestamp(Vec<Option<i64>>),
    /// Interned text as global-dictionary ids; id 0 = NULL. The lexical
    /// term never touches the wire — decode resolves ids back through the
    /// shared [`crate::dict::TermDict`] with a refcount bump.
    Text(Vec<u64>),
    /// Mixed-type fallback: one tagged cell per row.
    Any(Vec<Value>),
}

impl ColumnData {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Any(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the best representation for one column of values.
    fn from_values(values: Vec<Value>) -> ColumnData {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Unknown,
            Int,
            Float,
            Bool,
            Timestamp,
            Text,
            Mixed,
        }
        let mut kind = Kind::Unknown;
        for v in &values {
            let this = match v {
                Value::Null => continue,
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Bool(_) => Kind::Bool,
                Value::Timestamp(_) => Kind::Timestamp,
                Value::Text(_) => Kind::Text,
            };
            if kind == Kind::Unknown {
                kind = this;
            } else if kind != this {
                kind = Kind::Mixed;
                break;
            }
        }
        match kind {
            // All-NULL columns ship as the cheapest primitive form.
            Kind::Unknown | Kind::Int => ColumnData::Int(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(i) => Some(i),
                        _ => None,
                    })
                    .collect(),
            ),
            Kind::Float => ColumnData::Float(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Float(f) => Some(f),
                        _ => None,
                    })
                    .collect(),
            ),
            Kind::Bool => ColumnData::Bool(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Bool(b) => Some(b),
                        _ => None,
                    })
                    .collect(),
            ),
            Kind::Timestamp => ColumnData::Timestamp(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Timestamp(t) => Some(t),
                        _ => None,
                    })
                    .collect(),
            ),
            Kind::Text => ColumnData::Text(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Text(t) => t.id(),
                        _ => 0,
                    })
                    .collect(),
            ),
            Kind::Mixed => ColumnData::Any(values),
        }
    }

    /// Materializes the column back into values (text ids resolve through
    /// the global dictionary — a refcount bump per distinct term, no string
    /// copy).
    fn into_values(self) -> Result<Vec<Value>, SqlError> {
        Ok(match self {
            ColumnData::Int(v) => v
                .into_iter()
                .map(|c| c.map_or(Value::Null, Value::Int))
                .collect(),
            ColumnData::Float(v) => v
                .into_iter()
                .map(|c| c.map_or(Value::Null, Value::Float))
                .collect(),
            ColumnData::Bool(v) => v
                .into_iter()
                .map(|c| c.map_or(Value::Null, Value::Bool))
                .collect(),
            ColumnData::Timestamp(v) => v
                .into_iter()
                .map(|c| c.map_or(Value::Null, Value::Timestamp))
                .collect(),
            ColumnData::Text(ids) => {
                let dict = crate::dict::TermDict::global();
                ids.into_iter()
                    .map(|id| {
                        if id == 0 {
                            Ok(Value::Null)
                        } else {
                            dict.resolve(id).map(Value::Text).ok_or_else(|| {
                                SqlError::Execution(format!("unknown term id {id} in batch"))
                            })
                        }
                    })
                    .collect::<Result<_, _>>()?
            }
            ColumnData::Any(v) => v,
        })
    }
}

/// A self-contained result relation in **dictionary-encoded columnar**
/// form: column names/types plus one [`ColumnData`] per column, with no
/// schema qualifiers or index handles attached — exactly what survives a
/// trip over the wire. Text cells travel as `u64` dictionary ids (interned
/// once at the source, resolved once at the edge), so the wire never
/// re-ships lexical IRIs a round already moved.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultBatch {
    /// Output columns in order.
    pub columns: Vec<(String, ColumnType)>,
    /// Column-major data, one entry per column, all the same length.
    pub data: Vec<ColumnData>,
}

impl ResultBatch {
    /// Captures a table as a columnar batch (transposes the table's
    /// row-major storage once, at the ship boundary).
    pub fn from_table(table: &Table) -> Self {
        let columns: Vec<(String, ColumnType)> = table
            .schema
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        let data = (0..columns.len())
            .map(|i| ColumnData::from_values(table.rows.iter().map(|row| row[i].clone()).collect()))
            .collect();
        ResultBatch { columns, data }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.data.first().map_or(0, ColumnData::len)
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the batch's rows (text ids decode to shared terms).
    pub fn to_rows(&self) -> Result<Vec<Vec<Value>>, SqlError> {
        let rows = self.len();
        let mut cols = Vec::with_capacity(self.data.len());
        for col in &self.data {
            cols.push(col.clone().into_values()?);
        }
        let mut out = vec![Vec::with_capacity(cols.len()); rows];
        for col in cols {
            for (row, value) in out.iter_mut().zip(col) {
                row.push(value);
            }
        }
        Ok(out)
    }

    /// Rebuilds a table from the batch — the decode edge where dictionary
    /// ids become lexical terms again.
    pub fn into_table(self) -> Result<Table, SqlError> {
        let schema = Schema::new(
            self.columns
                .iter()
                .map(|(name, ty)| Column::new(name.clone(), *ty))
                .collect(),
        );
        let rows = self.to_rows()?;
        Table::new(schema, rows)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of;

    /// A batch from row-major values.
    fn batch_from_rows(columns: Vec<(String, ColumnType)>, rows: Vec<Vec<Value>>) -> ResultBatch {
        let data = (0..columns.len())
            .map(|i| ColumnData::from_values(rows.iter().map(|row| row[i].clone()).collect()))
            .collect();
        ResultBatch { columns, data }
    }

    #[test]
    fn fragment_round_trip() {
        let f = PlanFragment::new(
            7,
            "SELECT a FROM t WHERE name = 'x\ty'\n  AND a > 1 -- back\\slash",
            3.5,
        );
        let decoded = PlanFragment::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn fragment_rejects_garbage() {
        assert!(PlanFragment::decode("nonsense").is_err());
        assert!(PlanFragment::decode("frag\txyz\t1.0\tSELECT 1").is_err());
        assert!(PlanFragment::decode("frag\t1\t1.0\tSELECT a FROM t\nbogus\tx").is_err());
        assert!(PlanFragment::decode("frag\t1\t1.0\tSELECT a FROM t\nnov\tx").is_err());
    }

    /// Regression: the preview used to `String::truncate(48)` on a byte
    /// index, so SQL whose 48th byte fell inside a multibyte character
    /// panicked the coordinator inside `run_static_round`.
    #[test]
    fn describe_cuts_on_a_char_boundary() {
        let sql = format!("SELECT a FROM t WHERE b = '{}'", "é".repeat(40));
        assert!(!sql.is_char_boundary(SQL_PREVIEW), "byte 48 splits an é");
        let text = PlanFragment::new(0, sql.clone(), 1.0);
        let typed =
            PlanFragment::from_statement(0, crate::parser::parse_select(&sql).unwrap(), 1.0);
        for fragment in [text, typed] {
            let line = fragment.describe();
            assert!(line.starts_with("SELECT a FROM t WHERE"), "{line}");
            assert!(line.ends_with('…'), "{line}");
            assert!(line.len() <= SQL_PREVIEW + '…'.len_utf8(), "{line}");
        }
        // Short SQL is kept whole, whitespace collapsed, markers appended.
        let short = PlanFragment::new(0, "SELECT  a\n FROM t", 1.0).with_window(WindowSlice {
            column: "a".into(),
            open_ms: 1,
            close_ms: 2,
        });
        assert_eq!(short.describe(), "SELECT a FROM t [win 1..2)");
    }

    /// A typed fragment never parses; a text fragment parses once, and
    /// clones made after the parse share it.
    #[test]
    fn text_fragments_parse_lazily_and_at_most_once() {
        let sql = "SELECT a AS v FROM t";
        let typed = PlanFragment::from_statement(0, crate::parser::parse_select(sql).unwrap(), 1.0);
        assert!(typed.is_parsed());
        assert_eq!(typed.sql(), sql);
        let text = PlanFragment::new(0, sql, 1.0);
        assert!(!text.is_parsed());
        assert_eq!(text, typed, "same wire bytes, same fragment");
        assert!(!text.is_parsed(), "comparing and printing never parse");
        let parsed = Arc::clone(text.base_statement().unwrap());
        assert!(text.is_parsed());
        let clone = text.clone();
        assert!(Arc::ptr_eq(clone.base_statement().unwrap(), &parsed));
        assert_eq!(&parsed, typed.base_statement().unwrap());
        // A parse error is memoized like a parse.
        let bad = PlanFragment::new(1, "SELECT FROM", 1.0);
        assert!(bad.base_statement().is_err());
        assert!(bad.is_parsed());
        assert_eq!(
            bad.statement().unwrap_err(),
            bad.base_statement().unwrap_err()
        );
    }

    #[test]
    fn novelty_epoch_rides_the_wire() {
        let f = PlanFragment::new(2, "SELECT a FROM t", 1.0).at_epoch(41);
        let wire = f.encode();
        assert!(wire.contains("\nnov\t41"));
        assert_eq!(PlanFragment::decode(&wire).unwrap(), f);
        // Epoch 0 ships no section — pre-novelty wires stay byte-identical.
        let plain = PlanFragment::new(2, "SELECT a FROM t", 1.0);
        assert!(!plain.encode().contains("nov\t"));
    }

    #[test]
    fn execute_resolves_the_pinned_overlay() {
        let db = restricted_db();
        let overlay = crate::novelty::NoveltyOverlay::empty()
            .with_rows("t", vec![vec![Value::Int(9), Value::text("new")]]);
        let f = PlanFragment::new(0, "SELECT a AS v, b AS w FROM t", 1.0);
        assert_eq!(f.execute(&db).unwrap().len(), 4, "epoch 0 sees base only");
        let pinned = f.clone().at_epoch(overlay.epoch());
        assert_eq!(pinned.execute(&db).unwrap().len(), 5, "pinned epoch merges");
        // A newer overlay does not leak into the pinned round.
        let newer = overlay.with_rows("t", vec![vec![Value::Int(10), Value::Null]]);
        assert_eq!(pinned.execute(&db).unwrap().len(), 5);
        assert_eq!(
            f.clone()
                .at_epoch(newer.epoch())
                .execute(&db)
                .unwrap()
                .len(),
            6
        );
    }

    #[test]
    fn carriage_returns_survive_the_wire() {
        // `decode` splits on `lines()`, which would eat a trailing literal
        // `\r` before the next section line if it were not escaped.
        let f = PlanFragment::new(1, "SELECT a AS v FROM t", 1.0).with_semi_joins(vec![
            SemiJoin::new("v", vec![Value::text("abc\r")]),
            SemiJoin::new("w\r\n", vec![]),
        ]);
        assert_eq!(PlanFragment::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn semi_joins_round_trip_the_wire() {
        let f = PlanFragment::new(3, "SELECT a AS v FROM t", 1.0).with_semi_joins(vec![
            SemiJoin::new(
                "v",
                vec![
                    Value::text("http://x/tab\there"),
                    Value::Int(-7),
                    Value::Null,
                ],
            ),
            SemiJoin::new("w", vec![]),
        ]);
        let decoded = PlanFragment::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    fn restricted_db() -> Database {
        let mut db = Database::new();
        db.put_table(
            "t",
            table_of(
                "t",
                &[("a", ColumnType::Int), ("b", ColumnType::Text)],
                vec![
                    vec![Value::Int(1), Value::text("x")],
                    vec![Value::Int(2), Value::text("y")],
                    vec![Value::Int(3), Value::Null],
                    vec![Value::Null, Value::text("z")],
                ],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn execute_applies_semi_join_and_keeps_nulls() {
        let db = restricted_db();
        let unrestricted = PlanFragment::new(0, "SELECT a AS v, b AS w FROM t", 1.0);
        assert_eq!(unrestricted.execute(&db).unwrap().len(), 4);

        let restricted = unrestricted
            .clone()
            .with_semi_joins(vec![SemiJoin::new("v", vec![Value::Int(1)])]);
        let out = restricted.execute(&db).unwrap();
        // Row with v=1 matches; the v=NULL row survives (unbound positions
        // join with anything); v=2 and v=3 are filtered out.
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema.header(), vec!["v", "w"]);

        // A round trip over the wire preserves the restriction's effect.
        let shipped = PlanFragment::decode(&restricted.encode()).unwrap();
        assert_eq!(shipped.execute(&db).unwrap().rows, out.rows);
    }

    #[test]
    fn empty_value_list_keeps_only_nulls() {
        let db = restricted_db();
        let f = PlanFragment::new(0, "SELECT a AS v FROM t", 1.0)
            .with_semi_joins(vec![SemiJoin::new("v", vec![])]);
        let out = f.execute(&db).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn restriction_applies_to_every_union_disjunct() {
        let db = restricted_db();
        let f = PlanFragment::new(
            0,
            "SELECT a AS v FROM t UNION ALL SELECT a AS v FROM t",
            1.0,
        )
        .with_semi_joins(vec![SemiJoin::new("v", vec![Value::Int(2)])]);
        let out = f.execute(&db).unwrap();
        // Each disjunct contributes its v=2 row and its v=NULL row.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn window_slice_round_trips_and_filters() {
        let mut db = Database::new();
        db.put_table(
            "s",
            table_of(
                "s",
                &[("ts", ColumnType::Timestamp), ("v", ColumnType::Int)],
                (0..10)
                    .map(|i| vec![Value::Timestamp(i * 1000), Value::Int(i)])
                    .collect(),
            )
            .unwrap(),
        );
        let f = PlanFragment::new(0, "SELECT ts, v FROM s", 1.0).with_window(WindowSlice {
            column: "ts".into(),
            open_ms: 2000,
            close_ms: 5000,
        });
        // Wire round trip preserves the slice.
        let decoded = PlanFragment::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
        // (2000, 5000] keeps ts = 3000, 4000, 5000.
        let out = decoded.execute(&db).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out
            .rows
            .iter()
            .all(|r| r[0].as_i64().unwrap() > 2000 && r[0].as_i64().unwrap() <= 5000));
        // A window combined with a semi-join applies both.
        let both = f.with_semi_joins(vec![SemiJoin::new("v", vec![Value::Int(4)])]);
        let out = PlanFragment::decode(&both.encode())
            .unwrap()
            .execute(&db)
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Timestamp(4000), Value::Int(4)]]);
    }

    /// An integer timestamp column still slices: numeric comparison spans
    /// Int/Timestamp variants.
    #[test]
    fn window_slice_accepts_integer_time_columns() {
        let mut db = Database::new();
        db.put_table(
            "s",
            table_of(
                "s",
                &[("ts", ColumnType::Int)],
                (0..5).map(|i| vec![Value::Int(i * 10)]).collect(),
            )
            .unwrap(),
        );
        let f = PlanFragment::new(0, "SELECT ts FROM s", 1.0).with_window(WindowSlice {
            column: "ts".into(),
            open_ms: 10,
            close_ms: 30,
        });
        assert_eq!(f.execute(&db).unwrap().len(), 2, "ts = 20 and 30");
    }

    #[test]
    fn referenced_tables_walks_the_statement() {
        let deps = |sql: &str| referenced_tables(&crate::parser::parse_select(sql).unwrap());
        let named: BTreeSet<String> = ["sensors".to_string(), "turbines".to_string()]
            .into_iter()
            .collect();
        assert_eq!(
            deps("SELECT s.sid FROM sensors AS s JOIN turbines AS t ON s.tid = t.tid"),
            named
        );
        assert_eq!(
            deps(
                "SELECT sid FROM (SELECT sid FROM sensors) AS u \
                 UNION ALL SELECT tid FROM turbines"
            ),
            named
        );
    }

    #[test]
    fn partition_spec_round_trips_the_wire() {
        let f = PlanFragment::new(4, "SELECT sid FROM sensors", 1.0)
            .with_partition(PartitionSpec {
                tables: vec![("sensors".into(), "sid".into())],
                column_type: ColumnType::Int,
            })
            .with_semi_joins(vec![SemiJoin::new("sid", vec![Value::Int(3)])]);
        assert_eq!(PlanFragment::decode(&f.encode()).unwrap(), f);
    }

    // ---- shard compatibility --------------------------------------------

    fn partition() -> Vec<(String, String)> {
        vec![("sensors".to_string(), "sid".to_string())]
    }

    fn compat(sql: &str) -> ShardCompatibility {
        shard_compatibility(&crate::parser::parse_select(sql).unwrap(), &partition())
    }

    #[test]
    fn unpartitioned_statements_are_free() {
        assert_eq!(
            compat("SELECT tid FROM turbines"),
            ShardCompatibility::Unpartitioned
        );
        assert_eq!(
            compat("SELECT COUNT(*) AS n FROM turbines"),
            ShardCompatibility::Unpartitioned,
            "shape only matters once a partitioned table is scanned"
        );
    }

    #[test]
    fn single_partitioned_scan_scatters() {
        assert!(matches!(
            compat("SELECT sid FROM sensors"),
            ShardCompatibility::Scatter { .. }
        ));
        assert!(matches!(
            compat("SELECT DISTINCT sid FROM sensors"),
            ShardCompatibility::Scatter { .. }
        ));
        assert!(matches!(
            compat("SELECT s.sid FROM (SELECT sid FROM sensors WHERE sid > 3) AS s"),
            ShardCompatibility::Scatter { .. }
        ));
    }

    #[test]
    fn non_decomposable_shapes_are_incompatible() {
        for sql in [
            "SELECT COUNT(*) AS n FROM sensors",
            "SELECT sid FROM sensors LIMIT 3",
            "SELECT sid FROM sensors ORDER BY sid",
            "SELECT sid FROM sensors UNION ALL SELECT sid FROM sensors",
            // A modifier hidden inside the subquery is just as unsound.
            "SELECT sid FROM (SELECT sid FROM sensors LIMIT 3) AS s",
            // A nested DISTINCT dedups per shard only; the global result
            // dedups across shards, and the outer statement carries no
            // DISTINCT to repair it at gather.
            "SELECT aid FROM (SELECT DISTINCT aid FROM sensors) AS s",
        ] {
            assert_eq!(compat(sql), ShardCompatibility::Incompatible, "{sql}");
        }
    }

    #[test]
    fn co_partitioned_joins_scatter() {
        // Joined on the partition key (directly or via subquery aliases):
        // matching rows share a shard.
        assert!(matches!(
            compat("SELECT a.sid FROM sensors AS a JOIN sensors AS b ON a.sid = b.sid"),
            ShardCompatibility::Scatter { .. }
        ));
        assert!(matches!(
            compat(
                "SELECT u0.sid FROM (SELECT aid, sid FROM sensors) AS u0 \
                 JOIN (SELECT sid FROM sensors WHERE aid = 1) AS u1 ON u0.sid = u1.sid"
            ),
            ShardCompatibility::Scatter { .. }
        ));
        // Transitive equating through a replicated middle table.
        assert!(matches!(
            compat(
                "SELECT a.sid FROM sensors AS a JOIN turbines AS t ON a.sid = t.tid \
                 JOIN sensors AS b ON t.tid = b.sid"
            ),
            ShardCompatibility::Scatter { .. }
        ));
    }

    /// A LEFT JOIN preserving a replicated side would NULL-pad per shard:
    /// scatter must refuse any outer join that touches a partitioned table.
    #[test]
    fn outer_joins_are_incompatible() {
        assert_eq!(
            compat("SELECT t.tid FROM turbines AS t LEFT JOIN sensors AS s ON t.tid = s.sid"),
            ShardCompatibility::Incompatible
        );
        assert_eq!(
            compat("SELECT s.sid FROM sensors AS s LEFT JOIN turbines AS t ON s.tid = t.tid"),
            ShardCompatibility::Incompatible
        );
        // Outer joins among replicated tables only are still free.
        assert_eq!(
            compat("SELECT a.tid FROM turbines AS a LEFT JOIN turbines AS b ON a.tid = b.tid"),
            ShardCompatibility::Unpartitioned
        );
    }

    #[test]
    fn non_key_joins_are_incompatible() {
        // Joined on a non-key column: cross-shard pairs would be missed.
        assert_eq!(
            compat("SELECT a.sid FROM sensors AS a JOIN sensors AS b ON a.aid = b.aid"),
            ShardCompatibility::Incompatible
        );
        // A key that one side does not even project cannot be checked.
        assert_eq!(
            compat(
                "SELECT u0.sid FROM (SELECT sid FROM sensors) AS u0 \
                 JOIN (SELECT aid FROM sensors) AS u1 ON u0.sid = u1.aid"
            ),
            ShardCompatibility::Incompatible
        );
    }

    // ---- shard pruning --------------------------------------------------

    fn pruned_fragment(values: Vec<Value>) -> PlanFragment {
        PlanFragment::new(
            0,
            "SELECT iri_template('http://x/sensor/{}', u0.sid) AS s, u0.aid AS a \
             FROM (SELECT sid, aid FROM sensors) AS u0",
            1.0,
        )
        .with_partition(PartitionSpec {
            tables: vec![("sensors".into(), "sid".into())],
            column_type: ColumnType::Int,
        })
        .with_semi_joins(vec![SemiJoin::new("s", values)])
    }

    #[test]
    fn shard_plan_routes_template_minted_keys() {
        let shards = 8;
        let f = pruned_fragment(vec![
            Value::text("http://x/sensor/1"),
            Value::text("http://x/sensor/2"),
        ]);
        // The restriction routes through the mint node over the key.
        let statement = f.base_statement().unwrap();
        let Projection::Expr {
            expr: Expr::Mint { template, .. },
            ..
        } = &statement.projections[0]
        else {
            panic!("the restricted output is minted: {statement}")
        };
        let tables = &f.partition.as_ref().unwrap().tables;
        assert_eq!(
            key_routing(statement, tables, &f.semi_joins),
            KeyRouting(vec![(0, KeyDerivation::Template(template.clone()))])
        );
        let plan = f.shard_plan(shards).expect("prunable");
        // At most shard(1), shard(2) and the NULL home shard 0.
        assert!(plan.len() <= 3, "{plan:?}");
        let mut shipped: Vec<Value> = Vec::new();
        for (shard, fragment) in &plan {
            assert!(*shard < shards);
            for v in &fragment.semi_joins[0].values {
                // Each value rides exactly the shard its raw key hashes to.
                assert_eq!(
                    shard_of(
                        &Value::Int(v.as_str().unwrap()[16..].parse().unwrap()),
                        shards
                    ),
                    *shard
                );
                shipped.push(v.clone());
            }
        }
        assert_eq!(shipped.len(), 2, "every value ships exactly once");
        // Shard 0 is always targeted (NULL keys live there).
        assert!(plan.iter().any(|(s, _)| *s == 0));
    }

    #[test]
    fn shard_plan_declines_when_not_applicable() {
        // No semi-join, single shard, or a non-key-derived restriction.
        assert!(pruned_fragment(vec![]).shard_plan(1).is_none());
        let no_semi =
            PlanFragment::new(0, "SELECT sid FROM sensors", 1.0).with_partition(PartitionSpec {
                tables: vec![("sensors".into(), "sid".into())],
                column_type: ColumnType::Int,
            });
        assert!(no_semi.shard_plan(4).is_none());
        let non_key =
            pruned_fragment(vec![]).with_semi_joins(vec![SemiJoin::new("a", vec![Value::Int(1)])]);
        assert!(non_key.shard_plan(4).is_none());
    }

    /// A `UNION ALL` prunes when every branch derives the restricted
    /// column from its key the same way — across tables — and scatters
    /// unpruned when one branch does not.
    #[test]
    fn shard_plan_routes_a_union_whose_branches_agree() {
        let spec = PartitionSpec {
            tables: vec![
                ("sensors".into(), "sid".into()),
                ("probes".into(), "pid".into()),
            ],
            column_type: ColumnType::Int,
        };
        let union = |second: &str| {
            PlanFragment::new(
                0,
                format!(
                    "SELECT iri_template('http://x/sensor/{{}}', u0.sid) AS s \
                     FROM (SELECT sid FROM sensors) AS u0 UNION ALL {second}"
                ),
                1.0,
            )
            .with_partition(spec.clone())
            .with_semi_joins(vec![SemiJoin::new(
                "s",
                vec![Value::text("http://x/sensor/1")],
            )])
        };
        let agreeing = union(
            "SELECT iri_template('http://x/sensor/{}', u0.pid) AS s \
             FROM (SELECT pid FROM probes) AS u0",
        );
        let plan = agreeing.shard_plan(8).expect("both branches route alike");
        assert!(plan.len() <= 2, "shard(1) and the NULL home: {plan:?}");
        let unkeyed = union(
            "SELECT iri_template('http://x/sensor/{}', u0.aid) AS s \
             FROM (SELECT aid FROM probes) AS u0",
        );
        assert!(unkeyed.shard_plan(8).is_none());
    }

    /// Regression: a Text partition key holding `""` mints the bare
    /// prefix IRI — such a restriction value must target that row's shard,
    /// not be dropped as unproducible.
    #[test]
    fn shard_plan_routes_empty_text_keys() {
        let shards = 8;
        let f = PlanFragment::new(
            0,
            "SELECT iri_template('http://x/sensor/{}', u0.sid) AS s \
             FROM (SELECT sid FROM sensors) AS u0",
            1.0,
        )
        .with_partition(PartitionSpec {
            tables: vec![("sensors".into(), "sid".into())],
            column_type: ColumnType::Text,
        })
        .with_semi_joins(vec![SemiJoin::new(
            "s",
            vec![Value::text("http://x/sensor/")],
        )]);
        let plan = f.shard_plan(shards).expect("prunable");
        let home = shard_of(&Value::text(""), shards);
        assert!(
            plan.iter().any(|(shard, fragment)| *shard == home
                && fragment.semi_joins[0].values == vec![Value::text("http://x/sensor/")]),
            "the empty-key shard must execute with the value: {plan:?}"
        );
    }

    /// Regression: Timestamp keys mint through Display as `@{t}` — the
    /// inversion must route `…/@5` to Timestamp(5)'s shard, never drop it
    /// as unparseable.
    #[test]
    fn shard_plan_routes_timestamp_keys() {
        let shards = 8;
        let f = PlanFragment::new(
            0,
            "SELECT iri_template('http://x/e/{}', u0.ts) AS e \
             FROM (SELECT ts FROM events) AS u0",
            1.0,
        )
        .with_partition(PartitionSpec {
            tables: vec![("events".into(), "ts".into())],
            column_type: ColumnType::Timestamp,
        })
        .with_semi_joins(vec![SemiJoin::new("e", vec![Value::text("http://x/e/@5")])]);
        let plan = f.shard_plan(shards).expect("prunable");
        let home = shard_of(&Value::Timestamp(5), shards);
        assert!(
            plan.iter().any(|(shard, fragment)| *shard == home
                && fragment.semi_joins[0].values == vec![Value::text("http://x/e/@5")]),
            "the timestamp's home shard must execute with the value: {plan:?}"
        );
        // A bare number cannot be minted from a Timestamp key: it is
        // unproducible and pins the plan to the NULL home only.
        let bare = f.with_semi_joins(vec![SemiJoin::new("e", vec![Value::text("http://x/e/5")])]);
        let plan = bare.shard_plan(shards).expect("prunable");
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].0, 0);
    }

    /// Bool/Any partition keys decline pruning entirely: minted text does
    /// not pin down the stored variant, and Text("1") hashes differently
    /// from Int(1).
    #[test]
    fn shard_plan_declines_untyped_keys() {
        for ty in [ColumnType::Any, ColumnType::Bool] {
            let f = pruned_fragment(vec![Value::text("http://x/sensor/1")]);
            let f = PlanFragment {
                partition: Some(PartitionSpec {
                    column_type: ty,
                    ..f.partition.clone().unwrap()
                }),
                ..f
            };
            assert!(f.shard_plan(8).is_none(), "{ty:?} keys must not route");
        }
    }

    #[test]
    fn shard_plan_drops_foreign_template_values() {
        // A value from an incompatible template cannot be minted by this
        // scan: it targets no shard (only the NULL home remains).
        let f = pruned_fragment(vec![Value::text("http://x/turbine/1")]);
        let plan = f.shard_plan(8).expect("prunable");
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].0, 0);
        assert!(plan[0].1.semi_joins[0].values.is_empty());
    }

    #[test]
    fn shard_plan_execution_matches_unpruned_union() {
        // Differential check: executing the per-shard fragments over the
        // matching shards returns exactly what the unpruned fragment
        // returns over the whole table.
        let mut db = Database::new();
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("aid", ColumnType::Int)],
                (0..64)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
                    .chain(std::iter::once(vec![Value::Null, Value::Int(99)]))
                    .collect(),
            )
            .unwrap(),
        );
        let shards = 8;
        let shard_tables: Vec<Table> = {
            let t = db.table("sensors").unwrap();
            let col = t.schema.index_of("sid").unwrap();
            let mut out: Vec<Table> = (0..shards)
                .map(|_| Table::empty(t.schema.clone()))
                .collect();
            for row in &t.rows {
                out[shard_of(&row[col], shards)].rows.push(row.clone());
            }
            out
        };
        let values: Vec<Value> = (0..3)
            .map(|i| Value::text(format!("http://x/sensor/{}", i * 7)))
            .collect();
        let fragment = pruned_fragment(values);

        let unpruned = fragment.execute(&db).unwrap();
        let plan = fragment.shard_plan(shards).expect("prunable");
        assert!(plan.len() < shards || shards == 1);

        let mut gathered: Vec<Vec<Value>> = Vec::new();
        for (shard, shard_fragment) in plan {
            let mut shard_db = Database::new();
            shard_db.put_table("sensors", shard_tables[shard].clone());
            gathered.extend(shard_fragment.execute(&shard_db).unwrap().rows);
        }
        let canon = |mut rows: Vec<Vec<Value>>| {
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            rows
        };
        assert_eq!(canon(gathered), canon(unpruned.rows));
    }

    #[test]
    fn batch_round_trip_all_types() {
        let t = table_of(
            "t",
            &[
                ("i", ColumnType::Int),
                ("f", ColumnType::Float),
                ("s", ColumnType::Text),
                ("b", ColumnType::Bool),
                ("ts", ColumnType::Timestamp),
            ],
            vec![
                vec![
                    Value::Int(-4),
                    Value::Float(0.1),
                    Value::text("tab\there\nand \\ there"),
                    Value::Bool(true),
                    Value::Timestamp(600_000),
                ],
                vec![
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
            ],
        )
        .unwrap();
        let batch = ResultBatch::from_table(&t);
        let decoded = ResultBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        let back = decoded.into_table().unwrap();
        assert_eq!(back.rows, t.rows);
        // Qualifiers are a binder-local concern and do not cross the wire;
        // the column names and types themselves must.
        assert_eq!(back.schema.header(), vec!["i", "f", "s", "b", "ts"]);
    }

    #[test]
    fn float_precision_survives_the_wire() {
        let batch = batch_from_rows(
            vec![("x".into(), ColumnType::Float)],
            vec![vec![Value::Float(1.0 / 3.0)], vec![Value::Float(1e300)]],
        );
        let decoded = ResultBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        assert_eq!(
            decoded.to_rows().unwrap(),
            vec![vec![Value::Float(1.0 / 3.0)], vec![Value::Float(1e300)]]
        );
    }

    #[test]
    fn empty_batch_round_trip() {
        let batch = batch_from_rows(vec![("only".into(), ColumnType::Int)], vec![]);
        assert_eq!(ResultBatch::decode(&batch.encode()).unwrap(), batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn arity_mismatch_rejected() {
        // A column shorter than the declared row count, and a missing
        // column line.
        assert!(ResultBatch::decode("cbatch\t2\ta:INT\ni\t1\n").is_err());
        assert!(ResultBatch::decode("cbatch\t1\ta:INT\tb:INT\ni\t1\n").is_err());
    }

    /// Text columns ship dictionary ids, not lexical terms: the wire line
    /// for a text column is digits only, and decode resolves the ids back
    /// to the exact interned strings.
    #[test]
    fn text_columns_ship_dictionary_ids() {
        let iri = "http://example.org/sensor/wire-id-test";
        let t = table_of(
            "r",
            &[("s", ColumnType::Text)],
            vec![vec![Value::text(iri)], vec![Value::Null]],
        )
        .unwrap();
        let batch = ResultBatch::from_table(&t);
        let wire = batch.encode();
        assert!(
            !wire.contains("example.org"),
            "lexical term must not cross the wire: {wire:?}"
        );
        let id = match &batch.data[0] {
            ColumnData::Text(ids) => ids[0],
            other => panic!("expected a text column, got {other:?}"),
        };
        assert!(wire.contains(&format!("d\t{id}\t0")), "{wire:?}");
        let back = ResultBatch::decode(&wire).unwrap().into_table().unwrap();
        assert_eq!(back.rows, t.rows);
    }

    /// Hostile wires fail the request, never the worker: an unknown tag
    /// (including the retired row-major `batch` form), an empty wire, a
    /// column line shorter than the header's row count and an unparsable
    /// row count are all `Err`.
    #[test]
    fn hostile_batch_wires_error_without_panicking() {
        for wire in [
            "batch\tx:INT\n1\n",
            "",
            "cbatch\t2\tx:INT\ni\t1\n",
            "cbatch\tmany\tx:INT\ni\t1\n",
        ] {
            assert!(
                matches!(ResultBatch::decode(wire), Err(SqlError::Execution(_))),
                "{wire:?}"
            );
        }
    }

    /// A column whose values mix variants falls back to tagged cells and
    /// still round-trips exactly.
    #[test]
    fn mixed_type_columns_round_trip() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::text("two")],
            vec![Value::Bool(true)],
            vec![Value::Null],
        ];
        let batch = batch_from_rows(vec![("v".into(), ColumnType::Any)], rows.clone());
        assert!(matches!(batch.data[0], ColumnData::Any(_)));
        let decoded = ResultBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        assert_eq!(decoded.to_rows().unwrap(), rows);
    }

    /// `PROPTEST_CASES` dials generative coverage, as in the integration
    /// suites (tests/common reads the same variable).
    fn proptest_cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: proptest_cases() })]

        /// Satellite coverage: columnar encode → decode is the identity
        /// over generated batches — NULLs, every variant, mixed-type
        /// columns, empty batches — and materialized rows match the
        /// originals exactly.
        #[test]
        fn columnar_wire_round_trip(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 1..5),
                0..12,
            ),
            seed in 0u64..u64::MAX,
        ) {
            // Shape the raw matrix into a rectangle: the first row fixes
            // the arity; every row is cycled/truncated to it.
            let arity = raw.first().map_or(1, Vec::len);
            let value_of = |tag: u8, r: usize, c: usize| match tag {
                0 => Value::Null,
                1 => Value::Int((seed as i64).wrapping_add((r * 7 + c) as i64)),
                2 => Value::Float((seed % 1000) as f64 / 3.0 + r as f64),
                3 => Value::text(format!("term-{seed}-{}", (r + c) % 5)),
                4 => Value::Bool((r + c).is_multiple_of(2)),
                _ => Value::Timestamp((seed % 1_000_000) as i64 + r as i64),
            };
            let rows: Vec<Vec<Value>> = raw
                .iter()
                .enumerate()
                .map(|(r, tags)| {
                    (0..arity)
                        .map(|c| value_of(tags[c % tags.len()], r, c))
                        .collect()
                })
                .collect();
            let columns: Vec<(String, ColumnType)> =
                (0..arity).map(|i| (format!("c{i}"), ColumnType::Any)).collect();
            let batch = batch_from_rows(columns, rows.clone());
            let decoded = ResultBatch::decode(&batch.encode()).unwrap();
            proptest::prop_assert_eq!(&decoded, &batch);
            proptest::prop_assert_eq!(decoded.to_rows().unwrap(), rows);
        }
    }
}

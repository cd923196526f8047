//! In-memory relational engine — the "SQLite" substrate under ExaStream.
//!
//! The paper builds EXASTREAM "as a streaming extension of the SQLite DBMS",
//! reading windows through SQL(+) table functions. This crate is the
//! relational core of that substitution, and windows do not go through SQL
//! text here: a window is a scan with a typed `(open, close]` slice
//! ([`WindowSlice`]) or a pane probe ([`PaneProbe`]), and a FROM clause
//! names only tables and subqueries. It owns:
//!
//! * [`Value`]/[`ColumnType`] — the dynamic value model with SQL NULL
//!   semantics,
//! * [`Schema`]/[`Table`]/[`Database`] — catalogs of named, typed,
//!   row-oriented tables,
//! * [`parse_select`] — a lexer + recursive-descent parser for the SQL
//!   subset that STARQL unfolding emits (SELECT / JOIN / WHERE / GROUP BY /
//!   HAVING / ORDER BY / LIMIT / UNION ALL / subqueries),
//! * [`plan`] — the logical plan, name binder, and rule-based [`optimizer`]
//!   (predicate pushdown, projection pruning, constant folding),
//! * [`exec`] — an executor with hash joins, grouped aggregation, one read
//!   per distinct scan of a statement ([`ExecCounts`] reports the reads)
//!   and an extensible scalar/aggregate function registry (including
//!   `CORR`, the Pearson-correlation aggregate the Siemens catalog uses),
//! * [`fragment`] — typed [`PlanFragment`]s (with pushed-down [`SemiJoin`]
//!   restrictions) and columnar [`ResultBatch`]es, the units the federated
//!   pipeline hands to and takes back from workers; [`wire`] is their text
//!   codec, an adapter at the edge with no caller on the request path,
//! * [`iri_template`] — the one codec between key values and the IRIs
//!   mapping templates mint from them (render and typed inversion, which
//!   the optimizer uses to lower a minted-IRI test to a key test at the
//!   scan, by the key column's declared type). Its [`IriTemplate`](iri_template::IriTemplate)
//!   is split at the slot once, when SQL's `iri_template('P', key)` parses
//!   to the mint node [`Expr::Mint`]; rows mint from the borrowed template,
//! * [`hash`] — the id hasher every `Value`-keyed table on the query path
//!   uses (hash-join builds, `DISTINCT`, groups, `IN`-sets): a value hashes
//!   as a tag and one `u64`, so an Fx-style add–multiply hasher, its high
//!   bits folded into the low ones, replaces SipHash there; the
//!   [`TermDict`] keeps SipHash, because it hashes text from outside,
//! * [`stats`] — the [`StatsCatalog`] of per-table row counts and distinct
//!   estimates that feeds the OBDA planner's join ordering.

pub mod dict;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fragment;
pub mod functions;
pub mod hash;
pub mod iri_template;
pub mod lexer;
pub mod novelty;
pub mod optimizer;
pub mod panes;
pub mod parser;
pub mod plan;
pub mod prepared;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod wire;

pub use dict::{Term, TermDict};
pub use error::SqlError;
pub use exec::{execute, execute_branches, ExecCounts};
pub use expr::Expr;
pub use fragment::{
    execute_prepared, execute_prepared_counted, key_routing, referenced_tables,
    shard_compatibility, shard_of, KeyRouting, PartitionSpec, PlanFragment, ResultBatch, SemiJoin,
    ShardCompatibility, WindowSlice,
};
pub use novelty::{view_at, NoveltyOverlay, NoveltyScope};
pub use panes::{
    compute_window_aggregates, fold_groups, merge_pane_rows, pane_width, AggAcc, PaneCounts,
    PaneProbe, PaneStore,
};
pub use parser::{parse_select, SelectStatement};
pub use plan::LogicalPlan;
pub use prepared::{bind_plan, bind_statement, estimated_bytes, Binding, Prepared};
pub use schema::{Column, ColumnType, Schema};
pub use stats::{advise_partition_keys, StatsCatalog, TableStats};
pub use table::{Database, SegmentRows, Segments, StoredTable, Table};
pub use value::Value;

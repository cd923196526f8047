//! **optique-sparql** — the SPARQL front-end for Optique's static OBDA side.
//!
//! The paper's static half answers SPARQL queries over relational data via
//! ontology rewriting and mapping unfolding; this crate is that query
//! *language* surface. It follows the classic OBDA architecture (Ontop,
//! Hovland et al.'s *OBDA Constraints for Effective Query Answering*,
//! Kharlamov et al.'s *Towards Analytics-Aware OBDA*): a SPARQL entry point
//! feeding the rewrite → unfold → relational-execution pipeline.
//!
//! Layers:
//!
//! * [`lexer`] / [`parser`] — a hand-written tokenizer and recursive-descent
//!   parser for a SPARQL 1.1 subset: `PREFIX`/`BASE`, `SELECT`/`ASK` with
//!   `DISTINCT`, basic graph patterns (`;`/`,` abbreviations, `a`),
//!   `OPTIONAL`, `UNION`, `FILTER` (comparisons, `&&`/`||`/`!`, arithmetic,
//!   `REGEX`-lite, `BOUND`), `GROUP BY` with `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`
//!   aggregates, `ORDER BY`/`LIMIT`/`OFFSET`. Errors carry line/column.
//!   STARQL parses through the same [`Parser`]: the lexer also knows its
//!   header tokens (`[`, `]`, `->`, `$param`).
//! * [`algebra`] — the query algebra ([`GroupPattern`], [`Expression`],
//!   [`SolutionModifier`]) in the style of oxigraph's `spargebra`; BGPs
//!   reuse `optique_rewrite::Atom`, so rewriting needs no translation.
//! * [`compile`] — [`StaticPipeline`]: each BGP is enriched by PerfectRef,
//!   unfolded through the mapping catalog into `UNION ALL` SQL, and run on
//!   the relational engine; [`PipelineStats`] reports per-stage timings.
//! * [`eval`] — the residual algebra over [`SolutionSet`]s: joins across
//!   `OPTIONAL`/`UNION` branches, filters, modifiers, aggregation — and the
//!   merge of federated per-fragment results.
//! * [`planner`] — statistics-driven join ordering (smallest estimate
//!   first, connected-subgraph preference) and semi-join pushdown
//!   ([`Restriction`]s become `IN`-list predicates on plan fragments);
//!   [`PlannerSettings::disabled`] reproduces the naive pipeline for the
//!   differential plan-equivalence oracle.
//! * [`cache`] — [`BgpCache`]: per-BGP solution-set memoization with
//!   hit/miss counters and whole-cache invalidation on relational writes.
//! * [`results`] — [`SparqlResults`]: solution tables / ASK booleans.
//!
//! ```
//! use optique_rdf::Namespaces;
//! let mut ns = Namespaces::with_w3c_defaults();
//! ns.bind("sie", "http://siemens.example/ontology#");
//! let query = optique_sparql::parse_sparql(
//!     "SELECT ?s WHERE { ?s a sie:Sensor } LIMIT 10",
//!     &ns,
//! ).unwrap();
//! assert!(matches!(query, optique_sparql::Query::Select(_)));
//! ```

pub mod algebra;
pub mod cache;
pub mod compile;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod results;

pub use algebra::{
    AggregateFunction, ArithmeticOperator, AskQuery, ComparisonOperator, Expression, GroupPattern,
    PatternElement, Projection, Query, SelectItem, SelectQuery, SolutionModifier, ValuesBlock,
};
pub use cache::{BgpCache, TableVersions};
pub use compile::{
    expression_to_sql, split_union_chain, FragmentExecutor, FragmentRound, PipelineStats,
    StaticPipeline,
};
pub use error::{ErrorKind, Position, SparqlError};
pub use eval::{solutions_from_tables, SolutionSet};
pub use parser::{parse_sparql, Parser};
pub use planner::{CardinalityModel, PlannerSettings, Restriction};
pub use results::SparqlResults;

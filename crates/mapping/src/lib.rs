//! R2RML-style GAV mappings and the **unfolding** stage.
//!
//! A mapping in OBSSDI relates one ontological term to queries over the
//! data: `Turbine(f(x⃗)) ← ∃y⃗ SQL(x⃗, y⃗)`, "a view definition … where `f` is
//! a function that converts tuples returned by SQL into identifiers of
//! objects populating the class Turbine". This crate models those
//! assertions and implements stage (ii) of query evaluation: translating an
//! enriched UCQ into SQL — "STARQL unfolding is linear-time in the size
//! of both mappings and query".
//!
//! * [`IriTemplate`] — the `f` above: single-variable IRI templates with
//!   inversion (needed to push constant IRIs down to column predicates),
//! * [`MappingAssertion`]/[`MappingCatalog`] — the mapping store indexed by
//!   ontological term; each source is parsed once, when it is added,
//! * [`unfold`] — CQ/UCQ → `SELECT … UNION ALL …` over the mapped sources,
//!   with incompatible-combination pruning and self-join elimination,
//! * [`virtualize`] — materializes the virtual RDF graph a catalog defines
//!   over a database; the unfolding test oracle and the STATIC DATA path.

pub mod assertion;
pub mod catalog;
pub mod template;
pub mod unfold;
pub mod virtualize;

pub use assertion::{MappingAssertion, MappingHead, TermMap};
pub use catalog::MappingCatalog;
pub use template::IriTemplate;
pub use unfold::{unfold_cq, unfold_ucq, UnfoldSettings, UnfoldStats};
pub use virtualize::materialize_catalog;

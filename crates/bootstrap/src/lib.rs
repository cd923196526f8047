//! BOOTOX — bootstrapping ontologies and mappings from relational sources
//! (challenge C1, paper ref \[9\]).
//!
//! "Our BOOTOX component allows to extract W3C standardised OWL 2 ontologies
//! and R2RML mappings from relational streaming and static data. …
//! BOOTOX can map two tables like Turbine and Country into classes by
//! projecting them on primary keys, and the attribute locatedIn of Turbine
//! into an object property between these two classes if there is either an
//! explicit or implicit foreign key between Turbine and Country."
//!
//! * [`schema`] — the relational-schema model (tables, columns, PKs, FKs),
//!   with introspection over an `optique-relational` database,
//! * [`direct`] — the direct-mapping bootstrapper: tables → classes,
//!   non-key columns → data properties, FKs → object properties, ISA-shaped
//!   PKs → subclass axioms; emits the ontology *and* the mapping catalog,
//! * [`discovery`] — implicit-FK discovery by data-inclusion analysis,
//! * [`keyword`] — keyword-driven discovery of complex mappings: keywords
//!   match tables/columns/values, a join tree over the FK graph connects the
//!   matches, and the tree becomes a candidate SQL source (the paper's
//!   `{albatros, gas, 2008}` example),
//! * [`alignment`] — importing third-party ontologies: lexical matching
//!   proposes bridge axioms, a conservativity check rejects alignments that
//!   entail "undesired logical consequences".

pub mod alignment;
pub mod direct;
pub mod discovery;
pub mod keyword;
pub mod schema;

pub use alignment::{align, AlignmentResult};
pub use direct::{bootstrap_direct, BootstrapOutput, BootstrapSettings};
pub use discovery::discover_foreign_keys;
pub use keyword::{discover_by_keywords, KeywordCandidate};
pub use schema::{ForeignKey, RelColumn, RelTable, RelationalSchema};

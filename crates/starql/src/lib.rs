//! STARQL — the stream-temporal ontological query language [paper ref 12].
//!
//! STARQL is challenge C2's answer: "a query language over ontologies that
//! combines streaming and static data and allows for efficient enrichment
//! and unfolding that preserves semantics of ontological queries". A query
//! (paper Figure 1) reads:
//!
//! ```text
//! CREATE STREAM S_out AS
//! CONSTRUCT GRAPH NOW { ?c2 rdf:type :MonInc }
//! FROM STREAM S_Msmt [NOW - "PT10S"^^xsd:duration, NOW] -> "PT1S"^^xsd:duration,
//!      STATIC DATA <http://…/ABoxstatic>,
//!      ONTOLOGY <http://…/TBox>
//! USING PULSE WITH START = "00:10:00CET", FREQUENCY = "1S"
//! WHERE { ?c1 a sie:Assembly . ?c2 a sie:Sensor . ?c1 sie:inAssembly ?c2 . }
//! SEQUENCE BY StdSeq AS seq
//! HAVING MONOTONIC.HAVING(?c2, sie:hasValue)
//! CREATE AGGREGATE MONOTONIC:HAVING ($var, $attr) AS
//! HAVING EXISTS ?k IN seq : GRAPH ?k { $var sie:showsFailure } AND
//! FORALL ?i < ?j IN seq, ?x, ?y :
//! IF ( ?i, ?j < ?k AND GRAPH ?i { $var $attr ?x } AND GRAPH ?j { $var $attr ?y } ) THEN ?x <= ?y
//! ```
//!
//! Modules:
//! * [`ast`]/[`parser`] — the surface language. STARQL is SPARQL plus a
//!   header: the text lexes once, with `optique_sparql`'s lexer, and parses
//!   as one token stream through [`optique_sparql::Parser`], whose group
//!   patterns, terms and verbs are WHERE, CONSTRUCT and HAVING's,
//! * [`duration`] — `xsd:duration` and wall-clock literals in milliseconds,
//! * [`sequence`] — the `StdSeq` sequencing semantics: window contents
//!   become a sequence of per-timestamp RDF states; a state violating a
//!   functionality integrity constraint is dropped. Built once per window
//!   and shared, with a postings index over the saturated states,
//! * [`having`] — the HAVING condition language (state quantifiers, graph
//!   patterns at states, value comparisons), compiled at registration into
//!   an evaluator that probes that index,
//! * [`mod@translate`] — **enrichment** (PerfectRef over the WHERE clause) and
//!   **unfolding** (mapping expansion into SQL), producing the low-level
//!   query fleet the paper counts,
//! * [`engine`] — the continuous evaluation loop: pulse ticks, windows
//!   evaluated once and shared, one HAVING verdict per WHERE binding,
//!   CONSTRUCT output streams.

pub mod ast;
pub mod duration;
pub mod engine;
pub mod having;
pub mod parser;
pub mod sequence;
pub mod translate;

pub use ast::StarQlQuery;
pub use engine::{ContinuousQuery, TickOutput};
pub use having::HavingFormula;
pub use parser::{parse_starql, FIGURE1};
pub use sequence::StreamToRdf;
pub use translate::{translate, TranslatedQuery, TranslationContext};

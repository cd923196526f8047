//! The STARQL abstract syntax tree.

use optique_rewrite::Atom;
use optique_sparql::Expression;

use crate::having::ProtoFormula;

/// CQL-style relation-to-stream operator selecting what a tick emits.
///
/// Each tick computes a relation (the constructed graph for the closed
/// window); the output mode turns the tick-indexed sequence of relations
/// back into a stream: `RSTREAM` emits the whole relation, `ISTREAM` only
/// the triples new since the previous tick, `DSTREAM` only the triples
/// that disappeared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputMode {
    /// Emit the full per-tick relation (the default).
    #[default]
    RStream,
    /// Emit insertions w.r.t. the previous tick.
    IStream,
    /// Emit deletions w.r.t. the previous tick.
    DStream,
}

/// A parsed STARQL continuous query (paper Figure 1 shape).
#[derive(Clone, Debug)]
pub struct StarQlQuery {
    /// `CREATE STREAM <name> AS` — the output stream's name.
    pub output_stream: String,
    /// `AS [RSTREAM|ISTREAM|DSTREAM] CONSTRUCT` — the relation-to-stream
    /// operator applied to the per-tick constructed graphs.
    pub output_mode: OutputMode,
    /// `CONSTRUCT GRAPH NOW { … }` — the output triple template (atoms over
    /// WHERE/HAVING variables).
    pub construct: Vec<Atom>,
    /// `FROM STREAM <name> [window] -> slide`.
    pub stream: StreamClause,
    /// `STATIC DATA <iri>`, when present.
    pub static_data: Option<String>,
    /// `ONTOLOGY <iri>`, when present.
    pub ontology_ref: Option<String>,
    /// `USING PULSE WITH START = …, FREQUENCY = …`.
    pub pulse: Option<PulseClause>,
    /// The WHERE basic graph pattern (a conjunctive query over the
    /// ontology's vocabulary). When the clause uses `UNION`, this is the
    /// first disjunct; see [`StarQlQuery::where_disjuncts`].
    pub where_bgp: Vec<Atom>,
    /// The full WHERE clause as a union of basic graph patterns. STARQL
    /// WHERE clauses are parsed with the SPARQL group-graph-pattern parser
    /// (`optique-sparql`), so nested groups flatten and `UNION` distributes
    /// into disjuncts; each disjunct is enriched and unfolded separately and
    /// the results are unioned. Invariant: `where_disjuncts[0] == where_bgp`.
    pub where_disjuncts: Vec<Vec<Atom>>,
    /// Per-disjunct `FILTER` expressions (parallel to
    /// [`StarQlQuery::where_disjuncts`]). Only the SQL-expressible fragment
    /// is accepted — comparisons, `&&`/`||`/`!`, arithmetic — and the
    /// translator pushes each filter into the unfolded SQL `WHERE` clause,
    /// so filtered continuous queries monitor exactly the bindings that
    /// pass. Invariant: `where_filters.len() == where_disjuncts.len()`.
    pub where_filters: Vec<Vec<Expression>>,
    /// `SEQUENCE BY` method.
    pub sequence: SequenceMethod,
    /// The HAVING condition, pre-macro-expansion.
    pub having: ProtoFormula,
    /// `CREATE AGGREGATE` macro definitions appearing with the query.
    pub aggregates: Vec<AggregateDef>,
}

/// The windowed input stream reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamClause {
    /// Stream name.
    pub name: String,
    /// Window range in ms (`NOW - range` to `NOW`).
    pub range_ms: i64,
    /// Window slide in ms (`-> slide`).
    pub slide_ms: i64,
}

/// The output pulse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PulseClause {
    /// First tick, ms (clock literals are ms since the logical midnight).
    pub start_ms: i64,
    /// Tick period, ms.
    pub frequency_ms: i64,
}

/// Window sequencing strategies. The paper's demo uses the *standard
/// sequence* (one state per distinct timestamp); the enum leaves room for
/// the sensitivity variants of \[12\].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SequenceMethod {
    /// One state per distinct timestamp, states ordered by time.
    StdSeq {
        /// The sequence variable name (`AS seq`).
        alias: String,
    },
}

impl SequenceMethod {
    /// The sequence alias.
    pub fn alias(&self) -> &str {
        match self {
            SequenceMethod::StdSeq { alias } => alias,
        }
    }
}

/// A `CREATE AGGREGATE NS:NAME ($p1, $p2) AS HAVING <formula>` macro.
#[derive(Clone, Debug)]
pub struct AggregateDef {
    /// Namespace part (`MONOTONIC`).
    pub namespace: String,
    /// Name part (`HAVING`).
    pub name: String,
    /// Formal parameters, `$`-stripped (`var`, `attr`).
    pub params: Vec<String>,
    /// The body, with [`crate::having::ProtoTerm::Param`] placeholders.
    pub body: ProtoFormula,
}

impl std::fmt::Display for StreamClause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [NOW-\"{}\"^^xsd:duration, NOW]->\"{}\"^^xsd:duration",
            self.name,
            crate::duration::format_duration_ms(self.range_ms),
            crate::duration::format_duration_ms(self.slide_ms)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_clause_displays_durations() {
        let c = StreamClause {
            name: "S_Msmt".into(),
            range_ms: 10_000,
            slide_ms: 1_000,
        };
        assert_eq!(
            c.to_string(),
            "S_Msmt [NOW-\"PT10S\"^^xsd:duration, NOW]->\"PT1S\"^^xsd:duration"
        );
    }

    #[test]
    fn sequence_alias() {
        let s = SequenceMethod::StdSeq {
            alias: "seq".into(),
        };
        assert_eq!(s.alias(), "seq");
    }
}

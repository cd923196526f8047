//! `StdSeq` sequencing semantics: window contents → a sequence of RDF
//! states.
//!
//! STARQL "extends snapshot semantics for window operators \[1\] with
//! sequencing semantics that can handle integrity constraints such as
//! functionality assertions". `StdSeq` (the *standard sequence*) groups the
//! window's tuples by timestamp; each group becomes one **state** — a small
//! RDF graph produced by the stream-to-RDF mapping — and states are ordered
//! by time. Functionality constraints from the ontology are checked per
//! state: a sensor reporting two different values at one instant violates
//! `funct(hasValue)`, and the violating state is dropped (dirty sensor data
//! must not stop a window's evaluation).

use std::collections::BTreeMap;

use optique_ontology::materialize::check_constraints;
use optique_ontology::Ontology;
use optique_rdf::{Datatype, Graph, Iri, Term, Triple};
use optique_relational::{Schema, Value};

use optique_mapping::IriTemplate;

/// How one stream tuple becomes RDF triples inside a state.
///
/// This is the stream-side mapping of the deployment: the measurement
/// stream's columns are mapped to a subject IRI (via a template over the
/// sensor-id column), a value property, and optionally an event column whose
/// values denote class memberships (e.g. `"failure"` ↦ `sie:showsFailure`).
#[derive(Clone, Debug)]
pub struct StreamToRdf {
    /// Name of the timestamp column.
    pub timestamp_col: String,
    /// Template minting the subject IRI from the sensor-id column.
    pub subject: IriTemplate,
    /// The value property (e.g. `sie:hasValue`).
    pub value_property: Iri,
    /// Name of the value column.
    pub value_col: String,
    /// Datatype of emitted value literals.
    pub value_datatype: Datatype,
    /// Optional event column: `(column name, value → class)` pairs.
    pub event_col: Option<String>,
    /// Event lexical value → class IRI.
    pub event_classes: Vec<(String, Iri)>,
}

impl StreamToRdf {
    /// Emits the triples of one tuple (may be empty if the value is NULL and
    /// no event fires).
    pub fn tuple_triples(&self, row: &[Value], schema: &Schema) -> Vec<Triple> {
        let mut out = Vec::new();
        let Some(subj_idx) = schema.index_of(self.subject.column()) else {
            return out;
        };
        let subj_val = &row[subj_idx];
        if subj_val.is_null() {
            return out;
        }
        let subject = Term::iri(self.subject.render(subj_val));
        if let Some(value_idx) = schema.index_of(&self.value_col) {
            if let Some(lit) =
                optique_mapping::virtualize::value_to_literal(&row[value_idx], self.value_datatype)
            {
                out.push(Triple::new(
                    subject.clone(),
                    self.value_property.clone(),
                    Term::Literal(lit),
                ));
            }
        }
        if let Some(event_col) = &self.event_col {
            if let Some(event_idx) = schema.index_of(event_col) {
                if let Some(event) = row[event_idx].as_str() {
                    for (lexical, class) in &self.event_classes {
                        if lexical == event {
                            out.push(Triple::class_assertion(subject.clone(), class.clone()));
                        }
                    }
                }
            }
        }
        out
    }
}

/// One state: an instant and the RDF graph of the tuples at that instant.
#[derive(Clone, Debug)]
pub struct State {
    /// The state's timestamp.
    pub timestamp: i64,
    /// The state's ABox.
    pub graph: Graph,
}

/// A time-ordered sequence of states (the denotation of `SEQUENCE BY StdSeq`
/// for one window).
#[derive(Clone, Debug, Default)]
pub struct StateSequence {
    /// States in ascending timestamp order.
    pub states: Vec<State>,
}

impl StateSequence {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the window produced no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Builds the standard sequence from window rows; also returns how many
/// states were dropped.
///
/// Rows are grouped by the timestamp column; each group's triples (via
/// `mapping`) form the state graph. When `ontology` is given, a state
/// violating its functionality/disjointness constraints is dropped.
pub fn build_stdseq(
    rows: &[Vec<Value>],
    schema: &Schema,
    mapping: &StreamToRdf,
    ontology: Option<&Ontology>,
) -> (StateSequence, usize) {
    let Some(ts_idx) = schema.index_of(&mapping.timestamp_col) else {
        return (StateSequence::default(), 0);
    };
    let mut by_time: BTreeMap<i64, Vec<&Vec<Value>>> = BTreeMap::new();
    for row in rows {
        if let Some(ts) = row[ts_idx].as_i64() {
            by_time.entry(ts).or_default().push(row);
        }
    }
    let mut states = Vec::with_capacity(by_time.len());
    let mut dropped = 0usize;
    for (timestamp, group) in by_time {
        let mut graph = Graph::new();
        for row in group {
            graph.extend(mapping.tuple_triples(row, schema));
        }
        if ontology.is_some_and(|onto| !check_constraints(&graph, onto).is_empty()) {
            dropped += 1;
            continue;
        }
        states.push(State { timestamp, graph });
    }
    (StateSequence { states }, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_ontology::{Axiom, Role};
    use optique_relational::{Column, ColumnType};

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn schema() -> Schema {
        Schema::qualified(
            "S_Msmt",
            vec![
                Column::new("ts", ColumnType::Timestamp),
                Column::new("sensor_id", ColumnType::Int),
                Column::new("value", ColumnType::Float),
                Column::new("event", ColumnType::Text),
            ],
        )
    }

    fn mapping() -> StreamToRdf {
        StreamToRdf {
            timestamp_col: "ts".into(),
            subject: IriTemplate::parse("http://x/sensor/{sensor_id}").unwrap(),
            value_property: iri("hasValue"),
            value_col: "value".into(),
            value_datatype: Datatype::Double,
            event_col: Some("event".into()),
            event_classes: vec![("failure".into(), iri("showsFailure"))],
        }
    }

    fn row(ts: i64, sensor: i64, value: f64, event: Option<&str>) -> Vec<Value> {
        vec![
            Value::Timestamp(ts),
            Value::Int(sensor),
            Value::Float(value),
            event.map(Value::text).unwrap_or(Value::Null),
        ]
    }

    #[test]
    fn states_group_by_timestamp() {
        let rows = vec![
            row(1000, 1, 70.0, None),
            row(1000, 2, 60.0, None),
            row(2000, 1, 75.0, None),
        ];
        let (seq, dropped) = build_stdseq(&rows, &schema(), &mapping(), None);
        assert_eq!(seq.len(), 2);
        assert_eq!(dropped, 0);
        assert_eq!(seq.states[0].timestamp, 1000);
        assert_eq!(
            seq.states[0].graph.len(),
            2,
            "two sensors' values at t=1000"
        );
    }

    #[test]
    fn event_column_emits_class_assertion() {
        let rows = vec![row(1000, 1, 99.0, Some("failure"))];
        let (seq, _) = build_stdseq(&rows, &schema(), &mapping(), None);
        let g = &seq.states[0].graph;
        assert_eq!(g.len(), 2, "value triple + failure class assertion");
        assert_eq!(g.instances_of(&iri("showsFailure")).len(), 1);
    }

    #[test]
    fn functionality_violation_drop_policy_skips_state() {
        let mut onto = Ontology::new();
        onto.add_axiom(Axiom::Functional(Role::named(iri("hasValue"))));
        let rows = vec![
            row(1000, 1, 70.0, None),
            row(1000, 1, 71.0, None),
            row(2000, 1, 75.0, None),
        ];
        let (seq, dropped) = build_stdseq(&rows, &schema(), &mapping(), Some(&onto));
        assert_eq!(dropped, 1);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq.states[0].timestamp, 2000);
    }

    #[test]
    fn null_values_emit_no_value_triple() {
        let rows = vec![vec![
            Value::Timestamp(1000),
            Value::Int(1),
            Value::Null,
            Value::Null,
        ]];
        let (seq, _) = build_stdseq(&rows, &schema(), &mapping(), None);
        assert_eq!(seq.len(), 1);
        assert!(seq.states[0].graph.is_empty());
    }

    #[test]
    fn empty_window_empty_sequence() {
        let (seq, _) = build_stdseq(&[], &schema(), &mapping(), None);
        assert!(seq.is_empty());
    }
}

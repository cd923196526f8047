//! `StdSeq` sequencing semantics: window contents → a sequence of RDF
//! states, evaluated once per window and shared.
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
//!
//! A window's sequence is a function of its rows, the stream mapping and the
//! TBox, so it is built once — `shared_sequence`, by whichever query ticks
//! the window first — and kept with the window in the [`WCache`] under a
//! fingerprint of the latter two. The unit shared *across* windows is the
//! enriched state of one timestamp: consecutive windows, and windows of
//! different ranges closing together, differ in a few states only, so a
//! built state is kept as a `WCache` slice stamped with the row count it was
//! built from and reused while that count holds (stream tables are
//! append-only; a late row changes the count and rebuilds the state).
//!
//! With the sequence comes its **postings index** ([`IndexedSequence`]):
//! for every subject, the states (and objects) of each of its properties
//! and the states of each of its classes, over the *saturated* state graphs
//! — inferred triples included. The HAVING evaluator answers a pattern with
//! a bound subject by probing it, and draws a quantified state variable's
//! candidates from it, instead of walking the states.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use optique_ontology::materialize::{check_constraints, materialize};
use optique_ontology::Ontology;
use optique_rdf::{Datatype, Graph, Iri, Term, Triple};
use optique_relational::{Schema, Value};
use optique_stream::{WCache, Window};

use optique_mapping::IriTemplate;

/// How one stream tuple becomes RDF triples inside a state.
///
/// This is the stream-side mapping of the deployment: the measurement
/// stream's columns are mapped to a subject IRI (via a template over the
/// sensor-id column), a value property, and optionally an event column whose
/// values denote class memberships (e.g. `"failure"` ↦ `sie:showsFailure`).
#[derive(Clone, Debug, Hash)]
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
        let Some(subject) = self.subject.render(&row[subj_idx]).map(Term::iri) else {
            return out;
        };
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
    /// States in ascending timestamp order (shared with every other window
    /// that covers their timestamps).
    pub states: Vec<Arc<State>>,
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
pub fn build_stdseq<'a>(
    rows: impl IntoIterator<Item = &'a Vec<Value>>,
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
        states.push(Arc::new(State { timestamp, graph }));
    }
    (StateSequence { states }, dropped)
}

/// A term with its numeric reading, parsed once (comparisons read it many
/// times).
#[derive(Clone, Debug)]
pub(crate) struct Val {
    /// The term.
    pub term: Term,
    /// Its value, if it is a numeric literal.
    pub num: Option<f64>,
}

impl Val {
    pub fn new(term: Term) -> Self {
        Val {
            num: term.as_literal().and_then(|lit| lit.as_f64()),
            term,
        }
    }
}

/// One `subject property object` triple of a window: where and what.
#[derive(Clone, Debug)]
pub(crate) struct Posting {
    /// Index of the state holding the triple.
    pub state: u32,
    /// The triple's object.
    pub value: Val,
}

/// The postings of one `(subject, property)` pair, in state order.
#[derive(Debug, Default)]
pub(crate) struct PropertyPostings {
    /// The distinct states with at least one posting, ascending.
    pub states: Vec<u32>,
    /// Every posting, ascending by state.
    pub entries: Vec<Posting>,
}

impl PropertyPostings {
    /// The postings at state `idx`.
    pub fn at(&self, idx: usize) -> &[Posting] {
        let lo = self.entries.partition_point(|p| (p.state as usize) < idx);
        let len = self.entries[lo..]
            .iter()
            .take_while(|p| p.state as usize == idx)
            .count();
        &self.entries[lo..lo + len]
    }
}

/// Everything a window says about one subject. A subject has a handful of
/// properties and classes, so both are short association lists.
#[derive(Debug, Default)]
pub(crate) struct SubjectPostings {
    properties: Vec<(Iri, PropertyPostings)>,
    classes: Vec<(Iri, Vec<u32>)>,
}

impl SubjectPostings {
    /// The subject's postings under `property` (never `rdf:type`: class
    /// memberships are [`Self::class`]).
    pub fn property(&self, property: &Iri) -> Option<&PropertyPostings> {
        let (_, postings) = self.properties.iter().find(|(p, _)| p == property)?;
        Some(postings)
    }

    /// The states, ascending, at which the subject is a `class` member.
    pub fn class(&self, class: &Iri) -> Option<&[u32]> {
        let (_, states) = self.classes.iter().find(|(c, _)| c == class)?;
        Some(states)
    }
}

/// The entry of `key` in a short association list, added when missing.
fn entry<T: Default>(list: &mut Vec<(Iri, T)>, key: Iri) -> &mut T {
    let at = list.iter().position(|(k, _)| *k == key);
    let at = at.unwrap_or_else(|| {
        list.push((key, T::default()));
        list.len() - 1
    });
    &mut list[at].1
}

/// A state sequence with its window-level postings index: `(subject,
/// property) → [(state, object)]` and `(subject, class) → [state]` over the
/// saturated state graphs.
#[derive(Debug, Default)]
pub struct IndexedSequence {
    sequence: StateSequence,
    subjects: HashMap<Term, SubjectPostings>,
}

impl IndexedSequence {
    /// Indexes a sequence. `rdf:type` triples whose object is not an IRI
    /// name no class and stay out of the index; patterns that could match
    /// them scan the state graph instead.
    pub fn new(sequence: StateSequence) -> Self {
        let mut subjects: HashMap<Term, SubjectPostings> = HashMap::new();
        for (idx, state) in sequence.states.iter().enumerate() {
            let idx = u32::try_from(idx).expect("a window holds fewer than 2^32 states");
            for triple in state.graph.iter() {
                let of_subject = subjects.entry(triple.subject).or_default();
                if triple.predicate.as_str() == optique_rdf::vocab::rdf::TYPE {
                    if let Term::Iri(class) = triple.object {
                        entry(&mut of_subject.classes, class).push(idx);
                    }
                } else {
                    let postings = entry(&mut of_subject.properties, triple.predicate);
                    if postings.states.last() != Some(&idx) {
                        postings.states.push(idx);
                    }
                    postings.entries.push(Posting {
                        state: idx,
                        value: Val::new(triple.object),
                    });
                }
            }
        }
        IndexedSequence { sequence, subjects }
    }

    /// The indexed sequence.
    pub fn sequence(&self) -> &StateSequence {
        &self.sequence
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True when the window produced no states.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// What the window says about `subject`; `None` when no state mentions
    /// it in subject position.
    pub(crate) fn subject(&self, subject: &Term) -> Option<&SubjectPostings> {
        self.subjects.get(subject)
    }
}

/// A window evaluated: its indexed sequence and how many states the
/// integrity constraints dropped from it.
#[derive(Debug, Default)]
pub(crate) struct EvaluatedWindow {
    /// The enriched states and their postings index.
    pub sequence: IndexedSequence,
    /// States dropped for integrity violations.
    pub dropped: usize,
}

/// What decides a window's sequence besides its rows: a fingerprint of the
/// stream mapping and the TBox (its axioms decide both the saturation and
/// the constraint check). Queries whose fingerprints differ never share a
/// sequence or a state.
pub(crate) fn sequence_fingerprint(mapping: &StreamToRdf, ontology: &Ontology) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    mapping.hash(&mut hasher);
    ontology.axioms().hash(&mut hasher);
    hasher.finish()
}

/// What the cache keeps for one timestamp: its enriched state, or `None`
/// when the integrity constraints dropped it — a verdict worth keeping too.
type StateSlice = Option<Arc<State>>;

/// One window's sequence, and how it came to be.
pub(crate) struct SharedSequence {
    /// The evaluated window.
    pub window: Arc<EvaluatedWindow>,
    /// States this call built (mapped, constraint-checked, saturated).
    pub states_built: usize,
    /// States it took over from the window or from the slices.
    pub states_shared: usize,
}

/// The evaluated sequence of `window` for queries with this `fingerprint`:
/// taken from the window when a query already built it, assembled otherwise
/// from the per-timestamp states the cache holds under `scope` (the
/// fingerprint, narrowed by the window's row restriction), building — and
/// keeping — only the states that are missing or whose row count moved.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shared_sequence(
    wcache: &WCache,
    window: &Window,
    stream: &str,
    fingerprint: u64,
    scope: u64,
    schema: &Schema,
    mapping: &StreamToRdf,
    ontology: &Ontology,
) -> SharedSequence {
    let mut states_built = 0;
    let (evaluated, fresh) = window.derived(fingerprint, || {
        let Some(ts_idx) = schema.index_of(&mapping.timestamp_col) else {
            return EvaluatedWindow::default();
        };
        let timestamp = |row: &Vec<Value>| row[ts_idx].as_i64();
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        for ts in window.rows().iter().filter_map(timestamp) {
            *counts.entry(ts).or_default() += 1;
        }
        let mut states: BTreeMap<i64, StateSlice> = BTreeMap::new();
        for (&ts, &rows) in &counts {
            if let Some(kept) = wcache.slice::<StateSlice>(stream, scope, ts, rows) {
                states.insert(ts, (*kept).clone());
            }
        }
        if states.len() < counts.len() {
            let missing = window
                .rows()
                .iter()
                .filter(|row| timestamp(row).is_some_and(|ts| !states.contains_key(&ts)));
            let (mut built, _) = build_stdseq(missing, schema, mapping, Some(ontology));
            // Stream-side enrichment: saturate each state with the TBox.
            for state in &mut built.states {
                materialize(&mut Arc::make_mut(state).graph, ontology, 0);
            }
            let mut built: BTreeMap<i64, Arc<State>> = built
                .states
                .into_iter()
                .map(|state| (state.timestamp, state))
                .collect();
            for (&ts, &rows) in &counts {
                if states.contains_key(&ts) {
                    continue;
                }
                states_built += 1;
                let state = built.remove(&ts);
                wcache.keep_slice(stream, scope, ts, rows, Arc::new(state.clone()));
                states.insert(ts, state);
            }
        }
        let dropped = states.values().filter(|state| state.is_none()).count();
        let sequence = StateSequence {
            states: states.into_values().flatten().collect(),
        };
        EvaluatedWindow {
            sequence: IndexedSequence::new(sequence),
            dropped,
        }
    });
    // A racing builder's states went unused: this call shared the winner's.
    let states_built = if fresh { states_built } else { 0 };
    SharedSequence {
        states_shared: evaluated.sequence.len() + evaluated.dropped - states_built,
        states_built,
        window: evaluated,
    }
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

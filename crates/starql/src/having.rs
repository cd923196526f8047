//! The HAVING condition language and its evaluator.
//!
//! HAVING conditions quantify over the *states* of a window's sequence
//! (`EXISTS ?k IN seq`, `FORALL ?i < ?j IN seq`), inspect the RDF graph at a
//! state (`GRAPH ?i { ?s sie:hasValue ?x }`), and compare values
//! (`?x <= ?y`). Three layers:
//!
//! * [`ProtoFormula`] — the parser's output: may contain `$param`
//!   placeholders and macro calls (`MONOTONIC.HAVING(?c2, sie:hasValue)`);
//!   [`expand`] substitutes macro definitions away,
//! * [`HavingFormula`] — the closed form: the AST the parser, the
//!   restriction-safety analysis and the engine's pane analysis read,
//! * [`CompiledHaving`] — what a tick runs. Compiled once at registration:
//!   variables are slots, the WHERE bindings are rows read by position
//!   ([`BindingRow`]), and an evaluation *probes* the window's
//!   postings index ([`IndexedSequence`]) instead of enumerating its
//!   states. A pattern with a bound subject is one probe; a quantified state
//!   variable whose conjunctive scope holds such a pattern ranges over that
//!   pattern's postings only, inside the bounds the state-order conjuncts in
//!   scope set (`?i < ?j < ?k` enumerates ordered tuples); a variable with
//!   no such guard — under `NOT`, say — still ranges over every state.
//!   Compilation refuses what an evaluation could only fail on
//!   ([`CompiledHaving::compile`]): a registered formula reads only bound
//!   slots, so no shortcut can skip a failure, and deciding a binding is
//!   total.
//!
//! `FORALL`'s universally-quantified value variables are range-restricted
//! by the graph patterns in the `IF` condition (the classical safe-formula
//! requirement): evaluation enumerates the condition's satisfying
//! extensions and checks the consequent under each.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use optique_mapping::IriTemplate;
use optique_rdf::vocab::rdf::TYPE as RDF_TYPE;
use optique_rdf::{Iri, Term, TriplePattern};
use optique_relational::{AggAcc, ColumnType, Value};
use optique_rewrite::{Atom, QueryTerm};

use crate::sequence::{IndexedSequence, SubjectPostings, Val};

/// Window-aggregate functions usable in HAVING atoms like
/// `SUM(?c, sie:hasValue) >= 100`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// Number of non-null values.
    Count,
    /// Sum of numeric values.
    Sum,
    /// Arithmetic mean of numeric values.
    Avg,
    /// Smallest numeric value.
    Min,
    /// Largest numeric value.
    Max,
}

impl AggFunc {
    /// Parses an aggregate keyword (case-insensitive); `None` for any other
    /// identifier, so ordinary macro namespaces keep working.
    pub fn from_keyword(word: &str) -> Option<AggFunc> {
        match word.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// The stream keys a query's aggregate atoms can read, inverted once, at
/// registration: every IRI constant an aggregate atom names and every cell
/// of the binding columns one reads, through the stream's subject template
/// at the key column's declared type — the codec the stream-key
/// restriction, shard routing and the scan lowering use. Sorted and
/// distinct, so a tick's [`AggContext`] is one ordered pass over the
/// window's key-ordered groups; a subject a graph pattern binds is inverted
/// when it is read. Immutable once built.
#[derive(Debug)]
pub struct SubjectKeys {
    template: IriTemplate,
    /// The key column's declared type; `None` when the stream has no key
    /// column, and then no IRI names a key.
    key_type: Option<ColumnType>,
    /// The variables an aggregate atom groups by.
    columns: Vec<String>,
    keys: Vec<Value>,
}

impl SubjectKeys {
    /// The keys `formula`'s aggregate atoms can read under `bindings`, for
    /// a stream whose subjects `template` mints from a `key_type` column.
    pub fn new(
        formula: &HavingFormula,
        bindings: &[HashMap<String, Term>],
        template: &IriTemplate,
        key_type: Option<ColumnType>,
    ) -> Self {
        let mut keyed = SubjectKeys {
            template: template.clone(),
            key_type,
            columns: Vec::new(),
            keys: Vec::new(),
        };
        let mut subjects = Vec::new();
        let aggregated = formula.leaves().into_iter().filter_map(|leaf| match leaf {
            HavingFormula::Agg { subject, .. } => Some(subject),
            _ => None,
        });
        for subject in aggregated {
            match subject {
                QueryTerm::Var(var) if keyed.columns.contains(var) => {}
                QueryTerm::Var(var) => keyed.columns.push(var.clone()),
                QueryTerm::Const(term) => subjects.push(term),
            }
        }
        let cells = bindings
            .iter()
            .flat_map(|binding| (keyed.columns.iter()).filter_map(|column| binding.get(column)));
        subjects.extend(cells);
        let mut keys: Vec<Value> = subjects
            .into_iter()
            .filter_map(|t| keyed.invert(t))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        SubjectKeys { keys, ..keyed }
    }

    /// The stream key `subject` names, if any.
    fn invert(&self, subject: &Term) -> Option<Value> {
        match subject {
            Term::Iri(iri) => self.template.invert(iri.as_str(), self.key_type?),
            _ => None,
        }
    }

    /// The slot of the key `subject` names, when it is one of the keys.
    fn slot(&self, subject: &Term) -> Option<u32> {
        let slot = self.keys.binary_search(&self.invert(subject)?).ok()?;
        Some(slot as u32)
    }

    /// A tick's aggregate context over the window's `groups`: each key's
    /// group, filled by one ordered pass. Groups with no non-NULL value are
    /// skipped, on every path alike.
    pub fn context<'a>(&'a self, groups: &'a BTreeMap<Value, AggAcc>) -> AggContext<'a> {
        let mut window = groups.iter().filter(|(_, acc)| acc.count > 0).peekable();
        let slots = (self.keys.iter())
            .map(|key| {
                while window.next_if(|(group, _)| *group < key).is_some() {}
                window
                    .next_if(|(group, _)| *group == key)
                    .map(|(_, acc)| acc)
            })
            .collect();
        AggContext {
            keys: self,
            groups,
            slots,
        }
    }
}

/// Per-subject window aggregates handed to the evaluator for a tick: the
/// window's groups by stream key, and one slot per key of [`SubjectKeys`]
/// holding that key's group, if the window has one.
#[derive(Debug)]
pub struct AggContext<'a> {
    keys: &'a SubjectKeys,
    groups: &'a BTreeMap<Value, AggAcc>,
    slots: Vec<Option<&'a AggAcc>>,
}

impl<'a> AggContext<'a> {
    /// The group of a subject: in its key slot when registration keyed it
    /// (`Some`, possibly with no slot), else — a subject a pattern bound —
    /// by its term, inverted.
    fn group(&self, keyed: Option<Option<u32>>, subject: &Term) -> Option<&'a AggAcc> {
        match keyed {
            Some(slot) => self.slots[slot? as usize],
            None => (self.groups.get(&self.keys.invert(subject)?)).filter(|acc| acc.count > 0),
        }
    }
}

/// Comparison operators in value comparisons.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether an ordering satisfies the operator.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A term in the pre-expansion formula: variable, constant, or `$param`.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtoTerm {
    /// `?x`.
    Var(String),
    /// An IRI or literal constant.
    Const(Term),
    /// `$param` (macro formal).
    Param(String),
}

/// A graph-pattern atom whose predicate may still be a `$param`.
#[derive(Clone, PartialEq, Debug)]
pub struct ProtoAtom {
    /// Subject.
    pub subject: ProtoTerm,
    /// Predicate: an IRI or a parameter. `None` encodes the unary
    /// class-style pattern `{ ?x sie:showsFailure }` where the "predicate"
    /// slot is really a class.
    pub predicate: ProtoPred,
    /// Object, absent for unary patterns.
    pub object: Option<ProtoTerm>,
}

/// Predicate slot of a proto atom.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtoPred {
    /// A known IRI.
    Iri(Iri),
    /// A macro parameter.
    Param(String),
}

/// Pre-expansion HAVING formula.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtoFormula {
    /// Always true.
    True,
    /// `EXISTS ?k IN seq : body`.
    Exists {
        /// Quantified state variables.
        state_vars: Vec<String>,
        /// Scope.
        body: Box<ProtoFormula>,
    },
    /// `FORALL ?i < ?j IN seq, ?x, ?y : body`.
    Forall {
        /// Quantified state variables (the `< `-chain order constraint is
        /// expressed separately inside the body when present).
        state_vars: Vec<String>,
        /// Universally quantified value variables.
        value_vars: Vec<String>,
        /// Scope (normally an `IF`).
        body: Box<ProtoFormula>,
    },
    /// `IF (cond) THEN then`.
    If {
        /// Antecedent (range-restricts value variables).
        cond: Box<ProtoFormula>,
        /// Consequent.
        then: Box<ProtoFormula>,
    },
    /// Conjunction.
    And(Box<ProtoFormula>, Box<ProtoFormula>),
    /// Disjunction.
    Or(Box<ProtoFormula>, Box<ProtoFormula>),
    /// Negation.
    Not(Box<ProtoFormula>),
    /// `?i, ?j < ?k`: every left state index precedes the right one.
    StateLess {
        /// Left state variables.
        left: Vec<String>,
        /// Right state variable.
        right: String,
    },
    /// `GRAPH ?k { atoms }`.
    Graph {
        /// The state variable.
        state: String,
        /// The pattern.
        atoms: Vec<ProtoAtom>,
    },
    /// Value comparison.
    Cmp {
        /// Left term.
        left: ProtoTerm,
        /// Operator.
        op: CmpOp,
        /// Right term.
        right: ProtoTerm,
    },
    /// `NS.NAME(args)` aggregate macro call.
    MacroCall {
        /// Namespace part.
        namespace: String,
        /// Name part.
        name: String,
        /// Actual arguments.
        args: Vec<ProtoTerm>,
    },
    /// `SUM(?c, sie:hasValue) >= 100` — a window aggregate over one
    /// subject's values of a property, compared against a threshold.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The grouped subject (a WHERE variable or a constant IRI).
        subject: ProtoTerm,
        /// The aggregated value property.
        property: ProtoPred,
        /// Comparison operator.
        op: CmpOp,
        /// Threshold term (registration requires a numeric literal).
        threshold: ProtoTerm,
    },
}

/// Macro-expansion and `$param` resolution: turns a [`ProtoFormula`] into an
/// evaluable [`HavingFormula`] given the query's aggregate definitions.
pub fn expand(
    formula: &ProtoFormula,
    macros: &[crate::ast::AggregateDef],
) -> Result<HavingFormula, String> {
    expand_with(formula, macros, &HashMap::new(), 0)
}

fn expand_with(
    formula: &ProtoFormula,
    macros: &[crate::ast::AggregateDef],
    params: &HashMap<String, ProtoTerm>,
    depth: usize,
) -> Result<HavingFormula, String> {
    if depth > 16 {
        return Err("aggregate macros nest too deep (cycle?)".into());
    }
    let resolve_term = |t: &ProtoTerm| -> Result<QueryTerm, String> {
        match t {
            ProtoTerm::Var(v) => Ok(QueryTerm::var(v.clone())),
            ProtoTerm::Const(c) => Ok(QueryTerm::Const(c.clone())),
            ProtoTerm::Param(p) => match params.get(p) {
                Some(ProtoTerm::Var(v)) => Ok(QueryTerm::var(v.clone())),
                Some(ProtoTerm::Const(c)) => Ok(QueryTerm::Const(c.clone())),
                Some(ProtoTerm::Param(_)) => Err(format!("parameter ${p} bound to a parameter")),
                None => Err(format!("unbound macro parameter ${p}")),
            },
        }
    };
    let resolve_pred = |p: &ProtoPred| -> Result<Iri, String> {
        match p {
            ProtoPred::Iri(iri) => Ok(iri.clone()),
            ProtoPred::Param(name) => match params.get(name) {
                Some(ProtoTerm::Const(Term::Iri(iri))) => Ok(iri.clone()),
                Some(other) => Err(format!(
                    "parameter ${name} used as predicate but bound to {other:?}"
                )),
                None => Err(format!("unbound macro parameter ${name}")),
            },
        }
    };

    Ok(match formula {
        ProtoFormula::True => HavingFormula::True,
        ProtoFormula::Exists { state_vars, body } => HavingFormula::Exists {
            state_vars: state_vars.clone(),
            body: Box::new(expand_with(body, macros, params, depth)?),
        },
        ProtoFormula::Forall {
            state_vars,
            value_vars,
            body,
        } => HavingFormula::Forall {
            state_vars: state_vars.clone(),
            value_vars: value_vars.clone(),
            body: Box::new(expand_with(body, macros, params, depth)?),
        },
        ProtoFormula::If { cond, then } => HavingFormula::If {
            cond: Box::new(expand_with(cond, macros, params, depth)?),
            then: Box::new(expand_with(then, macros, params, depth)?),
        },
        ProtoFormula::And(a, b) => HavingFormula::And(
            Box::new(expand_with(a, macros, params, depth)?),
            Box::new(expand_with(b, macros, params, depth)?),
        ),
        ProtoFormula::Or(a, b) => HavingFormula::Or(
            Box::new(expand_with(a, macros, params, depth)?),
            Box::new(expand_with(b, macros, params, depth)?),
        ),
        ProtoFormula::Not(a) => {
            HavingFormula::Not(Box::new(expand_with(a, macros, params, depth)?))
        }
        ProtoFormula::StateLess { left, right } => HavingFormula::StateLess {
            left: left.clone(),
            right: right.clone(),
        },
        ProtoFormula::Graph { state, atoms } => {
            let mut out = Vec::with_capacity(atoms.len());
            for atom in atoms {
                let subject = resolve_term(&atom.subject)?;
                match &atom.object {
                    Some(object) => {
                        let predicate = resolve_pred(&atom.predicate)?;
                        out.push(Atom::Property {
                            property: predicate,
                            subject,
                            object: resolve_term(object)?,
                        });
                    }
                    None => {
                        // Unary pattern `{ ?x C }`: class membership.
                        let class = resolve_pred(&atom.predicate)?;
                        out.push(Atom::Class {
                            class,
                            arg: subject,
                        });
                    }
                }
            }
            HavingFormula::Graph {
                state: state.clone(),
                atoms: out,
            }
        }
        ProtoFormula::Cmp { left, op, right } => HavingFormula::Cmp {
            left: resolve_term(left)?,
            op: *op,
            right: resolve_term(right)?,
        },
        ProtoFormula::MacroCall {
            namespace,
            name,
            args,
        } => {
            let def = macros
                .iter()
                .find(|d| {
                    d.namespace.eq_ignore_ascii_case(namespace) && d.name.eq_ignore_ascii_case(name)
                })
                .ok_or_else(|| format!("unknown aggregate macro {namespace}.{name}"))?;
            if def.params.len() != args.len() {
                return Err(format!(
                    "macro {namespace}.{name} expects {} arguments, got {}",
                    def.params.len(),
                    args.len()
                ));
            }
            // Resolve actual args in the current param scope first.
            let mut inner: HashMap<String, ProtoTerm> = HashMap::new();
            for (formal, actual) in def.params.iter().zip(args) {
                let resolved = match actual {
                    ProtoTerm::Param(p) => params
                        .get(p)
                        .cloned()
                        .ok_or_else(|| format!("unbound macro parameter ${p}"))?,
                    other => other.clone(),
                };
                inner.insert(formal.clone(), resolved);
            }
            expand_with(&def.body, macros, &inner, depth + 1)?
        }
        ProtoFormula::Agg {
            func,
            subject,
            property,
            op,
            threshold,
        } => HavingFormula::Agg {
            func: *func,
            subject: resolve_term(subject)?,
            property: resolve_pred(property)?,
            op: *op,
            threshold: resolve_term(threshold)?,
        },
    })
}

/// The closed HAVING formula ([`CompiledHaving`] is its evaluable form).
#[derive(Clone, PartialEq, Debug)]
pub enum HavingFormula {
    /// Always true.
    True,
    /// Existential state quantifier.
    Exists {
        /// Quantified state variables.
        state_vars: Vec<String>,
        /// Scope.
        body: Box<HavingFormula>,
    },
    /// Universal state/value quantifier.
    Forall {
        /// Quantified state variables.
        state_vars: Vec<String>,
        /// Universally quantified value variables (range-restricted by the
        /// `IF` condition in the body).
        value_vars: Vec<String>,
        /// Scope.
        body: Box<HavingFormula>,
    },
    /// Guarded implication.
    If {
        /// Antecedent.
        cond: Box<HavingFormula>,
        /// Consequent.
        then: Box<HavingFormula>,
    },
    /// Conjunction.
    And(Box<HavingFormula>, Box<HavingFormula>),
    /// Disjunction.
    Or(Box<HavingFormula>, Box<HavingFormula>),
    /// Negation.
    Not(Box<HavingFormula>),
    /// State-order constraint.
    StateLess {
        /// Left state variables.
        left: Vec<String>,
        /// Right state variable.
        right: String,
    },
    /// Graph pattern at a state.
    Graph {
        /// State variable.
        state: String,
        /// Pattern atoms.
        atoms: Vec<Atom>,
    },
    /// Value comparison.
    Cmp {
        /// Left term.
        left: QueryTerm,
        /// Operator.
        op: CmpOp,
        /// Right term.
        right: QueryTerm,
    },
    /// Window aggregate comparison: `FUNC(subject, property) op threshold`.
    ///
    /// Evaluated against the tick's [`AggContext`] (per-subject accumulators
    /// over the whole window), not against individual states — which is what
    /// lets the engine answer it from pane partials without materializing
    /// the window.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The grouped subject.
        subject: QueryTerm,
        /// The aggregated value property.
        property: Iri,
        /// Comparison operator.
        op: CmpOp,
        /// Threshold term.
        threshold: QueryTerm,
    },
}

/// Whether `a op b` holds: numerically when both are numeric literals, by
/// term order when neither is. A number never orders against a non-number
/// — `<`, `<=`, `>` and `>=` between them are false, as a SPARQL type error
/// would be — and equals it never.
fn compare(a: &Val, op: CmpOp, b: &Val) -> bool {
    match (a.num, b.num) {
        (Some(x), Some(y)) => op.test(x.total_cmp(&y)),
        (None, None) => op.test(a.term.cmp(&b.term)),
        _ => op == CmpOp::Ne,
    }
}

// ---- the compiled evaluator ----------------------------------------------
//
// Semantics, pinned by `tests/having_equivalence.rs` against the interpreter
// this replaced (kept there as the reference):
//
// * `AND` reads existentially over the extensions its graph patterns
//   produce, left to right: `GRAPH ?k {?s :v ?x} AND ?x >= 95` holds when
//   SOME match of the pattern satisfies the comparison; conjuncts that bind
//   nothing are boolean filters.
// * `IF` is implication over the antecedent's satisfying extensions.
// * A registered formula reads only bound slots, so no shortcut can skip a
//   failure: compilation refuses a comparison or aggregate atom that reads
//   a value variable nothing binds where it is read, a state variable no
//   enclosing quantifier binds, and an aggregate threshold that is not a
//   numeric literal. Binding flows only through `AND` and `GRAPH` (and from
//   an `IF` antecedent into its consequent); every other connective is a
//   filter to what follows it. So an evaluation stops at the first
//   extension that decides it and visits candidate states only.

/// What a value slot stands for.
#[derive(Debug)]
enum SlotDecl {
    /// A variable: read from the binding's `column` when it is one of the
    /// query's answer variables, else bound by a graph pattern.
    Var { column: Option<usize> },
    /// A constant of the formula, bound from the start, with its key slot
    /// ([`SubjectKeys`]) when it names a key an aggregate atom can read.
    Const(Val, Option<u32>),
}

/// Which of a subject's postings answer a pattern.
#[derive(Clone, Debug)]
enum PostingKey {
    /// Its objects under a property.
    Property(Iri),
    /// Its memberships of a class.
    Class(Iri),
}

/// One triple pattern of a `GRAPH` block.
#[derive(Debug)]
struct PatternAtom {
    subject: usize,
    predicate: Iri,
    object: usize,
    /// Where the index answers the pattern once its subject is bound.
    /// `None` for `rdf:type` with anything but a constant class: that can
    /// match memberships the index does not hold, and scans the state graph.
    key: Option<PostingKey>,
}

/// One quantified state variable and what narrows its range.
#[derive(Debug)]
struct QuantifiedVar {
    slot: usize,
    /// Patterns at this variable that every tuple worth visiting must
    /// match, as `(subject slot, postings)`: the candidates are the postings
    /// of the first whose subject is bound.
    guards: Vec<(usize, PostingKey)>,
    /// State slots, assigned before this one, that it must stay below…
    below: Vec<usize>,
    /// …and above.
    above: Vec<usize>,
}

#[derive(Debug)]
struct Quantifier {
    vars: Vec<QuantifiedVar>,
    body: Box<Node>,
}

/// A compiled formula node. State references are state slots, value
/// references value slots.
#[derive(Debug)]
enum Node {
    True,
    Exists(Quantifier),
    Forall(Quantifier),
    If {
        cond: Box<Node>,
        then: Box<Node>,
    },
    /// A conjunction chain, flattened: extensions flow left to right
    /// whichever way the `AND`s nested.
    And(Vec<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    StateLess {
        left: Vec<usize>,
        right: usize,
    },
    Graph {
        state: usize,
        atoms: Vec<PatternAtom>,
    },
    Cmp {
        left: usize,
        op: CmpOp,
        right: usize,
    },
    Agg {
        func: AggFunc,
        subject: usize,
        op: CmpOp,
        threshold: f64,
    },
}

/// A [`HavingFormula`] compiled for evaluation against [`BindingRow`]s of
/// known columns: state and value variables are slots, constants are
/// pre-bound slots, WHERE variables read their column, and every quantifier
/// knows which postings its candidates come from. Built once per query, at
/// registration.
#[derive(Debug)]
pub struct CompiledHaving {
    root: Node,
    slots: Vec<SlotDecl>,
    state_slots: usize,
    columns: usize,
}

/// One WHERE binding as a row over the query's binding columns (its WHERE
/// answer variables, in a fixed order): resolved once, at registration, and
/// read by position ever after — by the HAVING evaluator and by the
/// CONSTRUCT template alike. A cell of a column an aggregate atom groups by
/// carries its key slot ([`SubjectKeys`]).
#[derive(Clone, Debug)]
pub struct BindingRow {
    values: Vec<Val>,
    keys: Vec<Option<u32>>,
}

impl BindingRow {
    /// The row of `binding` over `columns`, the cells `keys` groups by
    /// given their key slots. Refuses a binding that lacks a column: a
    /// registered formula reads every column unchecked.
    pub fn new(
        columns: &[String],
        binding: &HashMap<String, Term>,
        keys: &SubjectKeys,
    ) -> Result<Self, String> {
        let mut row = BindingRow {
            values: Vec::with_capacity(columns.len()),
            keys: Vec::with_capacity(columns.len()),
        };
        for column in columns {
            let term = binding
                .get(column)
                .ok_or_else(|| format!("a WHERE binding lacks answer variable ?{column}"))?;
            let keyed = keys.columns.contains(column);
            row.keys.push(keyed.then(|| keys.slot(term)).flatten());
            row.values.push(Val::new(term.clone()));
        }
        Ok(row)
    }

    /// The term bound to `column`.
    pub fn term(&self, column: usize) -> &Term {
        &self.values[column].term
    }
}

struct Compiler<'c> {
    columns: &'c [String],
    keys: &'c SubjectKeys,
    slots: Vec<SlotDecl>,
    var_slots: HashMap<String, usize>,
    const_slots: HashMap<Term, usize>,
    /// Lexical scope of state variables: `(name, slot)`, innermost last.
    scope: Vec<(String, usize)>,
    state_slots: usize,
    /// Variable slots the graph patterns in conjunctive scope bind, innermost
    /// last.
    bound: Vec<usize>,
}

impl Compiler<'_> {
    fn value_slot(&mut self, term: &QueryTerm) -> usize {
        let next = self.slots.len();
        match term {
            QueryTerm::Var(name) => *self.var_slots.entry(name.clone()).or_insert_with(|| {
                let column = self.columns.iter().position(|column| column == name);
                self.slots.push(SlotDecl::Var { column });
                next
            }),
            QueryTerm::Const(term) => *self.const_slots.entry(term.clone()).or_insert_with(|| {
                let constant = SlotDecl::Const(Val::new(term.clone()), self.keys.slot(term));
                self.slots.push(constant);
                next
            }),
        }
    }

    /// The slot of a value `term` an atom reads: refused unless a binding
    /// column, a constant or a pattern in conjunctive scope binds it.
    fn read(&mut self, term: &QueryTerm) -> Result<usize, String> {
        let slot = self.value_slot(term);
        match (&self.slots[slot], term) {
            (SlotDecl::Var { column: None }, QueryTerm::Var(name))
                if !self.bound.contains(&slot) =>
            {
                Err(format!(
                    "HAVING reads ?{name} where nothing binds it: it is no WHERE answer \
                     variable, and no GRAPH pattern before it in a conjunction binds it"
                ))
            }
            _ => Ok(slot),
        }
    }

    fn state_slot(&self, name: &str) -> Result<usize, String> {
        match self.scope.iter().rev().find(|(n, _)| n == name) {
            Some((_, slot)) => Ok(*slot),
            None => Err(format!(
                "HAVING names state variable ?{name}, which no enclosing quantifier binds"
            )),
        }
    }

    fn atom(&mut self, atom: &Atom) -> PatternAtom {
        match atom {
            Atom::Class { class, arg } => PatternAtom {
                subject: self.value_slot(arg),
                predicate: Iri::new(RDF_TYPE),
                object: self.value_slot(&QueryTerm::Const(Term::Iri(class.clone()))),
                key: Some(PostingKey::Class(class.clone())),
            },
            Atom::Property {
                property,
                subject,
                object,
            } => PatternAtom {
                subject: self.value_slot(subject),
                predicate: property.clone(),
                object: self.value_slot(object),
                key: match object {
                    _ if property.as_str() != RDF_TYPE => {
                        Some(PostingKey::Property(property.clone()))
                    }
                    QueryTerm::Const(Term::Iri(class)) => Some(PostingKey::Class(class.clone())),
                    _ => None,
                },
            },
        }
    }

    /// Compiles `formula`, entered as a conjunct (`binding`) — its pattern
    /// bindings flow on to what follows — or as a filter, which leaves the
    /// bound slots as it found them.
    fn node(&mut self, formula: &HavingFormula, binding: bool) -> Result<Node, String> {
        Ok(match formula {
            HavingFormula::True => Node::True,
            HavingFormula::Exists { state_vars, body } => {
                Node::Exists(self.quantifier(state_vars, body, false)?)
            }
            HavingFormula::Forall {
                state_vars, body, ..
            } => Node::Forall(self.quantifier(state_vars, body, true)?),
            HavingFormula::If { cond, then } => {
                let outer = self.bound.len();
                let cond = Box::new(self.node(cond, true)?);
                let then = Box::new(self.node(then, false)?);
                self.bound.truncate(outer);
                Node::If { cond, then }
            }
            HavingFormula::And(..) => {
                let outer = self.bound.len();
                let mut conjuncts = Vec::new();
                self.conjuncts(formula, &mut conjuncts)?;
                if !binding {
                    self.bound.truncate(outer);
                }
                Node::And(conjuncts)
            }
            HavingFormula::Or(a, b) => Node::Or(
                Box::new(self.node(a, false)?),
                Box::new(self.node(b, false)?),
            ),
            HavingFormula::Not(a) => Node::Not(Box::new(self.node(a, false)?)),
            HavingFormula::StateLess { left, right } => Node::StateLess {
                left: (left.iter())
                    .map(|name| self.state_slot(name))
                    .collect::<Result<_, _>>()?,
                right: self.state_slot(right)?,
            },
            HavingFormula::Graph { state, atoms } => {
                let state = self.state_slot(state)?;
                let atoms: Vec<PatternAtom> = atoms.iter().map(|atom| self.atom(atom)).collect();
                // A pattern reads nothing: a bound slot is a constant to
                // it, a free one it binds — for what follows, if anything
                // does.
                if binding {
                    (self.bound).extend(atoms.iter().flat_map(|atom| [atom.subject, atom.object]));
                }
                Node::Graph { state, atoms }
            }
            HavingFormula::Cmp { left, op, right } => Node::Cmp {
                left: self.read(left)?,
                op: *op,
                right: self.read(right)?,
            },
            HavingFormula::Agg {
                func,
                subject,
                property: _,
                op,
                threshold,
            } => Node::Agg {
                func: *func,
                subject: self.read(subject)?,
                op: *op,
                threshold: match threshold {
                    QueryTerm::Const(Term::Literal(lit)) => lit.as_f64(),
                    _ => None,
                }
                .ok_or_else(|| {
                    format!("aggregate threshold {threshold} is not a numeric literal")
                })?,
            },
        })
    }

    fn conjuncts(&mut self, formula: &HavingFormula, out: &mut Vec<Node>) -> Result<(), String> {
        match formula {
            HavingFormula::And(left, right) => {
                self.conjuncts(left, out)?;
                self.conjuncts(right, out)
            }
            conjunct => {
                out.push(self.node(conjunct, true)?);
                Ok(())
            }
        }
    }

    fn quantifier(
        &mut self,
        names: &[String],
        body: &HavingFormula,
        universal: bool,
    ) -> Result<Quantifier, String> {
        let outer = self.scope.len();
        let slots: Vec<usize> = names
            .iter()
            .map(|name| {
                self.scope.push((name.clone(), self.state_slots));
                self.state_slots += 1;
                self.state_slots - 1
            })
            .collect();
        let body = Box::new(self.node(body, false)?);
        self.scope.truncate(outer);

        // What decides a tuple outside the candidates: an EXISTS body must
        // hold there; a FORALL body holds there vacuously when it is an IF
        // whose condition fails. Any other FORALL body has no guards and no
        // bounds, so it visits every state.
        let mut conjuncts = Vec::new();
        match (&*body, universal) {
            (body, false) => required_conjuncts(body, &mut conjuncts),
            (Node::If { cond, .. }, true) => required_conjuncts(cond, &mut conjuncts),
            (_, true) => {}
        }
        let vars = slots
            .into_iter()
            .map(|slot| {
                let mut var = QuantifiedVar {
                    slot,
                    guards: Vec::new(),
                    below: Vec::new(),
                    above: Vec::new(),
                };
                for conjunct in &conjuncts {
                    match conjunct {
                        Node::Graph { state, atoms } if *state == slot => {
                            var.guards.extend(
                                atoms
                                    .iter()
                                    .filter_map(|atom| Some((atom.subject, atom.key.clone()?))),
                            );
                        }
                        Node::StateLess { left, right } => {
                            // Slots are handed out in binding order: a lower
                            // slot in scope is assigned before this one.
                            for &l in left {
                                if l == slot && *right < slot {
                                    var.below.push(*right);
                                }
                                if *right == slot && l < slot {
                                    var.above.push(l);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                var
            })
            .collect();
        Ok(Quantifier { vars, body })
    }
}

/// The `GRAPH` and state-order nodes that must all hold for `node` to hold
/// (or, for an antecedent, to have an extension): through `AND`, and through
/// a nested `EXISTS`, whose body must hold for some inner tuple.
fn required_conjuncts<'n>(node: &'n Node, out: &mut Vec<&'n Node>) {
    match node {
        Node::And(conjuncts) => {
            for conjunct in conjuncts {
                required_conjuncts(conjunct, out);
            }
        }
        Node::Exists(inner) => required_conjuncts(&inner.body, out),
        Node::Graph { .. } | Node::StateLess { .. } => out.push(node),
        _ => {}
    }
}

impl CompiledHaving {
    /// Compiles a formula for bindings over `columns` — the query's WHERE
    /// answer variables, which every binding binds — its constants keyed by
    /// `keys`. Refuses what an evaluation could only fail on, naming the
    /// variable or threshold: a comparison or aggregate atom reading a
    /// value variable nothing binds where it is read, a state variable no
    /// enclosing quantifier binds, an aggregate threshold that is not a
    /// numeric literal.
    pub fn compile(
        formula: &HavingFormula,
        columns: &[String],
        keys: &SubjectKeys,
    ) -> Result<Self, String> {
        let mut compiler = Compiler {
            columns,
            keys,
            slots: Vec::new(),
            var_slots: HashMap::new(),
            const_slots: HashMap::new(),
            scope: Vec::new(),
            state_slots: 0,
            bound: Vec::new(),
        };
        let root = compiler.node(formula, false)?;
        Ok(CompiledHaving {
            root,
            slots: compiler.slots,
            state_slots: compiler.state_slots,
            columns: columns.len(),
        })
    }

    /// An evaluator of this formula over one window's sequence and the
    /// tick's per-subject aggregates (an empty context when the window has
    /// none); [`Evaluator::holds`] then decides each binding.
    pub fn evaluator<'a>(
        &'a self,
        sequence: &'a IndexedSequence,
        aggs: &'a AggContext<'a>,
    ) -> Evaluator<'a> {
        Evaluator {
            formula: self,
            sequence,
            aggs,
            states: vec![0; self.state_slots],
            row: None,
            values: Vec::with_capacity(self.slots.len()),
            subjects: Vec::with_capacity(self.slots.len()),
            candidates: 0,
            probes: 0,
        }
    }
}

/// The continuation of a satisfying extension: returns whether the
/// enumeration may stop.
type Next<'n, 'a> = &'n mut dyn FnMut(&mut Evaluator<'a>) -> bool;

/// Evaluates one compiled formula over one window, binding after binding,
/// reusing its scratch space.
pub struct Evaluator<'a> {
    formula: &'a CompiledHaving,
    sequence: &'a IndexedSequence,
    aggs: &'a AggContext<'a>,
    states: Vec<usize>,
    /// The binding row being decided.
    row: Option<&'a BindingRow>,
    values: Vec<Option<Cow<'a, Val>>>,
    /// Per value slot: the postings of the subject it is bound to, looked
    /// up at most once per binding of the slot.
    subjects: Vec<Option<Option<&'a SubjectPostings>>>,
    /// State tuples visited so far, summed over the quantifiers.
    pub candidates: u64,
    /// Pattern evaluations and candidate look-ups so far.
    pub probes: u64,
}

impl<'a> Evaluator<'a> {
    /// Whether the formula holds under `binding`, a row over the columns
    /// the formula was compiled for.
    pub fn holds(&mut self, binding: &'a BindingRow) -> bool {
        let formula = self.formula;
        assert_eq!(
            binding.values.len(),
            formula.columns,
            "a row over other columns than the formula's"
        );
        self.row = Some(binding);
        self.values.clear();
        self.values.extend(
            formula
                .slots
                .iter()
                .map(|slot| match slot {
                    SlotDecl::Var { column } => column.map(|column| &binding.values[column]),
                    SlotDecl::Const(value, _) => Some(value),
                })
                .map(|value| value.map(Cow::Borrowed)),
        );
        self.subjects.clear();
        self.subjects.resize(formula.slots.len(), None);
        self.eval(&formula.root)
    }

    /// The value a slot holds where the formula reads it — bound there, as
    /// compilation proved.
    fn value(&self, slot: usize) -> &Val {
        self.values[slot]
            .as_deref()
            .expect("a registered formula reads only bound slots")
    }

    fn set(&mut self, slot: usize, value: Option<Cow<'a, Val>>) {
        self.values[slot] = value;
        self.subjects[slot] = None;
    }

    /// The key slot of the value `slot` holds, when registration keyed it
    /// (`Some`, possibly with no slot): a constant, or the binding row's
    /// value — patterns bind only free slots, so a column's slot holds the
    /// row's value. `None` for a pattern-bound value.
    fn keyed(&self, slot: usize) -> Option<Option<u32>> {
        match &self.formula.slots[slot] {
            SlotDecl::Const(_, key) => Some(*key),
            SlotDecl::Var {
                column: Some(column),
            } => Some(self.row?.keys[*column]),
            SlotDecl::Var { column: None } => None,
        }
    }

    fn subject_postings(&mut self, slot: usize) -> Option<&'a SubjectPostings> {
        if let Some(known) = self.subjects[slot] {
            return known;
        }
        let sequence = self.sequence;
        let found = self.values[slot]
            .as_ref()
            .and_then(|subject| sequence.subject(&subject.term));
        self.subjects[slot] = Some(found);
        found
    }

    fn eval(&mut self, node: &'a Node) -> bool {
        match node {
            Node::True => true,
            Node::Exists(q) => self.quantify(q, 0, false),
            Node::Forall(q) => self.quantify(q, 0, true),
            Node::If { cond, then } => {
                let mut holds = true;
                self.satisfy(cond, &mut |e| {
                    holds = e.eval(then);
                    !holds
                });
                holds
            }
            Node::And(conjuncts) => self.satisfy_all(conjuncts, &mut |_| true),
            Node::Or(a, b) => self.eval(a) || self.eval(b),
            Node::Not(a) => !self.eval(a),
            Node::StateLess { left, right } => {
                let right = self.states[*right];
                left.iter().all(|&left| self.states[left] < right)
            }
            Node::Graph { state, atoms } => {
                self.match_atoms(self.states[*state], atoms, &mut |_| true)
            }
            Node::Cmp { left, op, right } => compare(self.value(*left), *op, self.value(*right)),
            Node::Agg {
                func,
                subject,
                op,
                threshold,
            } => {
                let acc = self
                    .aggs
                    .group(self.keyed(*subject), &self.value(*subject).term);
                // A subject with no rows in the window has COUNT 0 but no
                // defined SUM/AVG/MIN/MAX — those comparisons are false.
                let value = match (func, acc) {
                    (AggFunc::Count, None) => Some(0.0),
                    (AggFunc::Count, Some(a)) => Some(a.count as f64),
                    (_, None) => None,
                    (AggFunc::Sum, Some(a)) => (a.count > 0).then(|| a.sum()),
                    (AggFunc::Avg, Some(a)) => (a.count > 0).then(|| a.sum() / a.count as f64),
                    (AggFunc::Min, Some(a)) => a.min,
                    (AggFunc::Max, Some(a)) => a.max,
                };
                value.is_some_and(|v| op.test(v.total_cmp(threshold)))
            }
        }
    }

    /// Calls `next` under every extension of the current bindings that
    /// satisfies `node` — defined for the conjunctive fragment (AND /
    /// GRAPH); every other node is a boolean filter. Returns whether `next`
    /// stopped the enumeration.
    fn satisfy(&mut self, node: &'a Node, next: Next<'_, 'a>) -> bool {
        match node {
            Node::And(conjuncts) => self.satisfy_all(conjuncts, next),
            Node::Graph { state, atoms } => self.match_atoms(self.states[*state], atoms, next),
            filter => self.eval(filter) && next(self),
        }
    }

    /// [`Self::satisfy`] for `conjuncts` in turn, each under the extensions
    /// of those before it.
    fn satisfy_all(&mut self, conjuncts: &'a [Node], next: Next<'_, 'a>) -> bool {
        match conjuncts.split_first() {
            Some((first, rest)) => self.satisfy(first, &mut |e| e.satisfy_all(rest, &mut *next)),
            None => next(self),
        }
    }

    /// Enumerates the tuples of `q`'s variables from `depth` on: a variable
    /// ranges over the states its guard's postings list, inside the bounds
    /// the state-order conjuncts set — over every state when it has
    /// neither.
    fn quantify(&mut self, q: &'a Quantifier, depth: usize, universal: bool) -> bool {
        let Some(var) = q.vars.get(depth) else {
            self.candidates += 1;
            return self.eval(&q.body);
        };
        let mut range = 0..self.sequence.len();
        for &other in &var.below {
            range.end = range.end.min(self.states[other]);
        }
        for &other in &var.above {
            range.start = range.start.max(self.states[other] + 1);
        }
        let guard = var
            .guards
            .iter()
            .find(|(subject, _)| self.values[*subject].is_some());
        let listed = guard.map(|(subject, key)| {
            self.probes += 1;
            let of_subject = self.subject_postings(*subject);
            of_subject
                .and_then(|of_subject| match key {
                    PostingKey::Class(class) => of_subject.class(class),
                    PostingKey::Property(property) => {
                        of_subject.property(property).map(|p| &p.states[..])
                    }
                })
                .unwrap_or_default()
        });
        // EXISTS is decided by the first tuple that holds, FORALL by the
        // first that does not.
        match listed {
            Some(states) => {
                let from = states.partition_point(|&s| (s as usize) < range.start);
                for &state in &states[from..] {
                    if state as usize >= range.end {
                        break;
                    }
                    self.states[var.slot] = state as usize;
                    if self.quantify(q, depth + 1, universal) != universal {
                        return !universal;
                    }
                }
            }
            None => {
                for state in range {
                    self.states[var.slot] = state;
                    if self.quantify(q, depth + 1, universal) != universal {
                        return !universal;
                    }
                }
            }
        }
        universal
    }

    /// Runs `then` with `slot` holding `value`: as a check when the slot is
    /// bound, as a binding — undone afterwards — when it is free.
    fn with_value(&mut self, slot: usize, value: Cow<'a, Val>, then: Next<'_, 'a>) -> bool {
        match self.values[slot]
            .as_ref()
            .map(|bound| bound.term == value.term)
        {
            Some(true) => then(self),
            Some(false) => false,
            None => {
                self.set(slot, Some(value));
                let stopped = then(self);
                self.set(slot, None);
                stopped
            }
        }
    }

    /// Matches `atoms`, left to right, against state `idx`, calling `next`
    /// under every match.
    fn match_atoms(&mut self, idx: usize, atoms: &'a [PatternAtom], next: Next<'_, 'a>) -> bool {
        let Some((atom, rest)) = atoms.split_first() else {
            return next(self);
        };
        self.probes += 1;
        let key = match &atom.key {
            Some(key) if self.values[atom.subject].is_some() => key,
            _ => return self.scan_atom(idx, atom, rest, next),
        };
        let Some(of_subject) = self.subject_postings(atom.subject) else {
            return false;
        };
        match key {
            PostingKey::Class(class) => {
                let member = of_subject
                    .class(class)
                    .is_some_and(|states| states.binary_search(&(idx as u32)).is_ok());
                member && self.match_atoms(idx, rest, next)
            }
            PostingKey::Property(property) => {
                let Some(postings) = of_subject.property(property) else {
                    return false;
                };
                postings.at(idx).iter().any(|posting| {
                    let value = Cow::Borrowed(&posting.value);
                    self.with_value(atom.object, value, &mut |e| {
                        e.match_atoms(idx, rest, &mut *next)
                    })
                })
            }
        }
    }

    /// The pattern the index cannot answer — a free subject, or `rdf:type`
    /// with a free or non-class object — matched against the state graph.
    fn scan_atom(
        &mut self,
        idx: usize,
        atom: &'a PatternAtom,
        rest: &'a [PatternAtom],
        next: Next<'_, 'a>,
    ) -> bool {
        let sequence = self.sequence;
        let mut pattern = TriplePattern::any().with_predicate(atom.predicate.clone());
        if let Some(subject) = &self.values[atom.subject] {
            pattern = pattern.with_subject(subject.term.clone());
        }
        if let Some(object) = &self.values[atom.object] {
            pattern = pattern.with_object(object.term.clone());
        }
        sequence.sequence().states[idx]
            .graph
            .matching(&pattern)
            .into_iter()
            .any(|triple| {
                let object = triple.object;
                let subject = Cow::Owned(Val::new(triple.subject));
                self.with_value(atom.subject, subject, &mut |e| {
                    let object = Cow::Owned(Val::new(object.clone()));
                    e.with_value(atom.object, object, &mut |e| {
                        e.match_atoms(idx, rest, &mut *next)
                    })
                })
            })
    }
}

// ---- stream-restriction safety -----------------------------------------
//
// The distributed tick path may ship each window *restricted* to the rows
// whose subject key belongs to some statically-bound subject (a semi-join
// pushed from the static side of the stream-static join). Restriction
// drops rows that are **foreign** to every binding — and with them it may
// drop whole states (timestamps whose every tuple was foreign). The
// analysis below decides, purely syntactically, when that can never change
// the formula's outcome for any binding:
//
// * every `GRAPH` atom's subject must be a WHERE-bound variable or a
//   constant (checked by the caller, which also inverts the subjects to
//   raw keys) — then a foreign state satisfies *no* graph atom;
// * no `NOT` anywhere — negation can turn a foreign state into a witness;
// * every `EXISTS`-quantified state variable is **guarded**: any witness
//   must satisfy a graph atom at it, so a foreign state is never a
//   witness and removing it removes nothing;
// * every `FORALL`-quantified state variable is **vacuously satisfied at
//   foreign states**: the body is an `IF` whose condition guards the
//   variable (false at foreign ⇒ implication true), so removing the state
//   removes only trivially-met obligations — the classical safe-formula
//   shape the parser already enforces for value variables.

impl HavingFormula {
    /// The formula's leaves — `TRUE`, state-order, graph, comparison and
    /// aggregate atoms — left to right. The one walk for analyses that only
    /// look at leaves; those that branch on the connectives
    /// ([`Self::restriction_safe`] and its helpers) keep their own matches.
    pub fn leaves(&self) -> Vec<&HavingFormula> {
        fn walk<'a>(f: &'a HavingFormula, out: &mut Vec<&'a HavingFormula>) {
            match f {
                HavingFormula::Exists { body, .. }
                | HavingFormula::Forall { body, .. }
                | HavingFormula::Not(body) => walk(body, out),
                HavingFormula::If { cond, then } => {
                    walk(cond, out);
                    walk(then, out);
                }
                HavingFormula::And(a, b) | HavingFormula::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                HavingFormula::True
                | HavingFormula::StateLess { .. }
                | HavingFormula::Graph { .. }
                | HavingFormula::Cmp { .. }
                | HavingFormula::Agg { .. } => out.push(f),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// The subject terms of every `GRAPH` atom in the formula — and of every
    /// aggregate atom: aggregates group by subject exactly as graph atoms
    /// match by subject, so the restriction machinery must keep every
    /// aggregated subject's rows in the shipped window.
    pub fn graph_subjects(&self) -> Vec<&QueryTerm> {
        let mut out = Vec::new();
        for leaf in self.leaves() {
            match leaf {
                HavingFormula::Graph { atoms, .. } => {
                    out.extend(atoms.iter().map(|atom| match atom {
                        Atom::Class { arg, .. } => arg,
                        Atom::Property { subject, .. } => subject,
                    }))
                }
                HavingFormula::Agg { subject, .. } => out.push(subject),
                _ => {}
            }
        }
        out
    }

    /// True when dropping stream tuples foreign to every statically-bound
    /// subject provably cannot change this formula's outcome (see the
    /// module-level discussion above). The caller must separately ensure
    /// every graph-atom subject is bound or constant and inverts to a
    /// stream key.
    pub fn restriction_safe(&self) -> bool {
        match self {
            // An aggregate atom reads only its own subject's group; the
            // restricted window keeps all rows of every bound subject (and
            // of every inverted constant subject — `graph_subjects` reports
            // them), so the group's accumulator is unchanged.
            HavingFormula::True
            | HavingFormula::StateLess { .. }
            | HavingFormula::Graph { .. }
            | HavingFormula::Cmp { .. }
            | HavingFormula::Agg { .. } => true,
            HavingFormula::Not(_) => false,
            HavingFormula::And(a, b) | HavingFormula::Or(a, b) => {
                a.restriction_safe() && b.restriction_safe()
            }
            HavingFormula::If { cond, then } => cond.restriction_safe() && then.restriction_safe(),
            HavingFormula::Exists { state_vars, body } => {
                body.restriction_safe() && state_vars.iter().all(|v| body.guards(v))
            }
            HavingFormula::Forall {
                state_vars, body, ..
            } => body.restriction_safe() && state_vars.iter().all(|v| body.vacuous_at_foreign(v)),
        }
    }

    /// True when any satisfying assignment must match a graph atom at
    /// state variable `var` — so a state with no bound-subject triples can
    /// never participate in a witness.
    fn guards(&self, var: &str) -> bool {
        match self {
            HavingFormula::Graph { state, atoms } => state == var && !atoms.is_empty(),
            HavingFormula::And(a, b) => a.guards(var) || b.guards(var),
            HavingFormula::Or(a, b) => a.guards(var) && b.guards(var),
            // An EXISTS holds only through some satisfying body
            // assignment, which must itself guard the outer variable.
            HavingFormula::Exists { body, .. } => body.guards(var),
            // FORALL over an empty candidate set is vacuously true without
            // any graph match; IF escapes through ¬cond; the rest never
            // force a match.
            _ => false,
        }
    }

    /// True when the formula is satisfied by *any* assignment placing
    /// `var` on a foreign state — so removing that state removes only
    /// vacuously-met obligations of an enclosing FORALL.
    fn vacuous_at_foreign(&self, var: &str) -> bool {
        match self {
            HavingFormula::True => true,
            // ¬cond ∨ then: cond guarding `var` is false at a foreign
            // state, so the implication holds there.
            HavingFormula::If { cond, then } => cond.guards(var) || then.vacuous_at_foreign(var),
            HavingFormula::And(a, b) => a.vacuous_at_foreign(var) && b.vacuous_at_foreign(var),
            HavingFormula::Or(a, b) => a.vacuous_at_foreign(var) || b.vacuous_at_foreign(var),
            _ => false,
        }
    }
}

#[cfg(test)]
mod restriction_safety_tests {
    use super::*;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn graph(state: &str, subject: &str) -> HavingFormula {
        HavingFormula::Graph {
            state: state.into(),
            atoms: vec![Atom::Property {
                property: iri("hasValue"),
                subject: QueryTerm::var(subject),
                object: QueryTerm::var("x"),
            }],
        }
    }

    #[test]
    fn guarded_exists_is_safe() {
        let f = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::And(
                Box::new(graph("k", "c")),
                Box::new(HavingFormula::Cmp {
                    left: QueryTerm::var("x"),
                    op: CmpOp::Ge,
                    right: QueryTerm::Const(Term::Literal(optique_rdf::Literal::integer(90))),
                }),
            )),
        };
        assert!(f.restriction_safe());
    }

    #[test]
    fn unguarded_exists_is_unsafe() {
        // A witness state need not match any graph pattern: a foreign
        // state could be the witness.
        let f = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::True),
        };
        assert!(!f.restriction_safe());
        // An IF body escapes through ¬cond: also no guard.
        let via_if = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::If {
                cond: Box::new(graph("k", "c")),
                then: Box::new(HavingFormula::True),
            }),
        };
        assert!(!via_if.restriction_safe());
    }

    #[test]
    fn negation_is_unsafe_anywhere() {
        let f = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::And(
                Box::new(graph("k", "c")),
                Box::new(HavingFormula::Not(Box::new(graph("k", "c")))),
            )),
        };
        assert!(!f.restriction_safe());
    }

    #[test]
    fn forall_needs_a_guarding_condition() {
        // The classical safe shape: IF cond guards every quantified state
        // var → vacuous at foreign states.
        let safe = HavingFormula::Forall {
            state_vars: vec!["i".into(), "j".into()],
            value_vars: vec!["x".into()],
            body: Box::new(HavingFormula::If {
                cond: Box::new(HavingFormula::And(
                    Box::new(graph("i", "c")),
                    Box::new(graph("j", "c")),
                )),
                then: Box::new(HavingFormula::True),
            }),
        };
        assert!(safe.restriction_safe());
        // A condition guarding only one var leaves real obligations at
        // foreign assignments of the other (a trivially-true consequent
        // would still be vacuous — so use a comparison).
        let unsafe_forall = HavingFormula::Forall {
            state_vars: vec!["i".into(), "j".into()],
            value_vars: vec![],
            body: Box::new(HavingFormula::If {
                cond: Box::new(graph("i", "c")),
                then: Box::new(HavingFormula::Graph {
                    state: "j".into(),
                    atoms: vec![Atom::Class {
                        class: iri("Ok"),
                        arg: QueryTerm::var("c"),
                    }],
                }),
            }),
        };
        assert!(!unsafe_forall.restriction_safe());
    }

    #[test]
    fn or_guards_only_when_both_branches_guard() {
        let both = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::Or(
                Box::new(graph("k", "c")),
                Box::new(graph("k", "d")),
            )),
        };
        assert!(both.restriction_safe());
        let one = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::Or(
                Box::new(graph("k", "c")),
                Box::new(HavingFormula::True),
            )),
        };
        assert!(!one.restriction_safe());
    }

    #[test]
    fn graph_subjects_collects_all_positions() {
        let f = HavingFormula::And(
            Box::new(graph("k", "c")),
            Box::new(HavingFormula::Graph {
                state: "k".into(),
                atoms: vec![Atom::Class {
                    class: iri("Failure"),
                    arg: QueryTerm::Const(Term::iri("http://x/sensor/7")),
                }],
            }),
        );
        let subjects = f.graph_subjects();
        assert_eq!(subjects.len(), 2);
        assert!(subjects
            .iter()
            .any(|s| matches!(s, QueryTerm::Var(v) if v == "c")));
        assert!(subjects.iter().any(|s| matches!(s, QueryTerm::Const(_))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{State, StateSequence};
    use optique_rdf::{Graph, Iri, Literal, Triple};
    use std::sync::Arc;

    /// The WHERE binding a test evaluates under.
    type Env = HashMap<String, Term>;

    /// Window aggregates by stream key, the way a tick hands them over.
    type Groups = BTreeMap<Value, AggAcc>;

    /// The subject template of the sensors below.
    fn template() -> IriTemplate {
        IriTemplate::parse("http://x/sensor/{sensor_id}").unwrap()
    }

    /// A compiled formula, one binding as a row, and the keys both read.
    type Compiled = (CompiledHaving, BindingRow, SubjectKeys);

    /// `f` compiled for the variables of `env` as answer variables, `env`
    /// as a row over them, and the keys both read, over a stream of
    /// `key_type` sensor keys; `Err` when compilation refuses `f`.
    fn compile_keyed(
        f: &HavingFormula,
        env: &Env,
        key_type: ColumnType,
    ) -> Result<Compiled, String> {
        let bindings = std::slice::from_ref(env);
        let columns: Vec<String> = env.keys().cloned().collect();
        let keys = SubjectKeys::new(f, bindings, &template(), Some(key_type));
        let compiled = CompiledHaving::compile(f, &columns, &keys)?;
        let row = BindingRow::new(&columns, env, &keys)?;
        Ok((compiled, row, keys))
    }

    /// [`compile_keyed`] over `INT` sensor keys.
    fn compile_under(f: &HavingFormula, env: &Env) -> Result<Compiled, String> {
        compile_keyed(f, env, ColumnType::Int)
    }

    /// What a tick does, end to end: compile, index, bind, key the groups
    /// (none without `aggs`), decide. `Err` when compilation refuses.
    trait Evaluate {
        fn eval_with(
            &self,
            seq: &StateSequence,
            env: &Env,
            aggs: Option<&Groups>,
        ) -> Result<bool, String>;

        fn eval(&self, seq: &StateSequence, env: &Env) -> Result<bool, String> {
            self.eval_with(seq, env, None)
        }
    }

    impl Evaluate for HavingFormula {
        fn eval_with(
            &self,
            seq: &StateSequence,
            env: &Env,
            aggs: Option<&Groups>,
        ) -> Result<bool, String> {
            let (compiled, row, keys) = compile_under(self, env)?;
            let none = Groups::new();
            let ctx = keys.context(aggs.unwrap_or(&none));
            let indexed = IndexedSequence::new(seq.clone());
            let verdict = compiled.evaluator(&indexed, &ctx).holds(&row);
            Ok(verdict)
        }
    }

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn sensor(n: u32) -> Term {
        Term::iri(format!("http://x/sensor/{n}"))
    }

    /// Sequence of 4 states: sensor 1's value rises 70, 75, 80 then shows a
    /// failure; sensor 2 falls.
    fn rising_sequence() -> StateSequence {
        let mut states = Vec::new();
        for (t, (v1, v2)) in [(70.0, 90.0), (75.0, 85.0), (80.0, 80.0)]
            .iter()
            .enumerate()
        {
            let mut g = Graph::new();
            g.insert(Triple::new(
                sensor(1),
                iri("hasValue"),
                Term::Literal(Literal::double(*v1)),
            ));
            g.insert(Triple::new(
                sensor(2),
                iri("hasValue"),
                Term::Literal(Literal::double(*v2)),
            ));
            states.push(Arc::new(State {
                timestamp: t as i64 * 1000,
                graph: g,
            }));
        }
        let mut g = Graph::new();
        g.insert(Triple::class_assertion(sensor(1), iri("showsFailure")));
        states.push(Arc::new(State {
            timestamp: 3000,
            graph: g,
        }));
        StateSequence { states }
    }

    /// The Figure 1 monotonicity formula for a given sensor.
    fn monotonic_formula(sensor_var: &str) -> HavingFormula {
        let graph_failure = HavingFormula::Graph {
            state: "k".into(),
            atoms: vec![Atom::class(iri("showsFailure"), QueryTerm::var(sensor_var))],
        };
        let cond = HavingFormula::And(
            Box::new(HavingFormula::StateLess {
                left: vec!["i".into(), "j".into()],
                right: "k".into(),
            }),
            Box::new(HavingFormula::And(
                Box::new(HavingFormula::Graph {
                    state: "i".into(),
                    atoms: vec![Atom::property(
                        iri("hasValue"),
                        QueryTerm::var(sensor_var),
                        QueryTerm::var("x"),
                    )],
                }),
                Box::new(HavingFormula::Graph {
                    state: "j".into(),
                    atoms: vec![Atom::property(
                        iri("hasValue"),
                        QueryTerm::var(sensor_var),
                        QueryTerm::var("y"),
                    )],
                }),
            )),
        );
        let implication = HavingFormula::If {
            cond: Box::new(cond),
            then: Box::new(HavingFormula::Cmp {
                left: QueryTerm::var("x"),
                op: CmpOp::Le,
                right: QueryTerm::var("y"),
            }),
        };
        // NOTE: ?i < ?j ordering is enforced via StateLess in the antecedent
        // together with i,j < k; the original formula's `?i < ?j` is added:
        let ordered = HavingFormula::If {
            cond: Box::new(HavingFormula::And(
                Box::new(HavingFormula::StateLess {
                    left: vec!["i".into()],
                    right: "j".into(),
                }),
                match implication.clone() {
                    HavingFormula::If { cond, .. } => cond,
                    _ => unreachable!(),
                },
            )),
            then: Box::new(HavingFormula::Cmp {
                left: QueryTerm::var("x"),
                op: CmpOp::Le,
                right: QueryTerm::var("y"),
            }),
        };
        HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::And(
                Box::new(graph_failure),
                Box::new(HavingFormula::Forall {
                    state_vars: vec!["i".into(), "j".into()],
                    value_vars: vec!["x".into(), "y".into()],
                    body: Box::new(ordered),
                }),
            )),
        }
    }

    fn env_with_sensor(n: u32) -> Env {
        let mut env = Env::default();
        env.insert("c".into(), sensor(n));
        env
    }

    #[test]
    fn monotonic_rise_detected() {
        let seq = rising_sequence();
        let formula = monotonic_formula("c");
        assert!(formula.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    #[test]
    fn falling_sensor_rejected() {
        // Sensor 2 falls and shows no failure: EXISTS fails already.
        let seq = rising_sequence();
        let formula = monotonic_formula("c");
        assert!(!formula.eval(&seq, &env_with_sensor(2)).unwrap());
    }

    #[test]
    fn failure_without_monotonicity_rejected() {
        // Rearrange: sensor 1 falls then fails — FORALL must reject.
        let mut seq = rising_sequence();
        seq.states.swap(0, 2); // values now 80, 75, 70, then failure
        let formula = monotonic_formula("c");
        assert!(!formula.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    #[test]
    fn empty_sequence_has_no_witness() {
        let seq = StateSequence { states: vec![] };
        let formula = monotonic_formula("c");
        assert!(!formula.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    #[test]
    fn vacuous_forall_is_true() {
        let seq = rising_sequence();
        // FORALL over a pattern that never matches.
        let f = HavingFormula::Forall {
            state_vars: vec!["i".into()],
            value_vars: vec!["x".into()],
            body: Box::new(HavingFormula::If {
                cond: Box::new(HavingFormula::Graph {
                    state: "i".into(),
                    atoms: vec![Atom::property(
                        iri("noSuchProp"),
                        QueryTerm::var("c"),
                        QueryTerm::var("x"),
                    )],
                }),
                then: Box::new(HavingFormula::Cmp {
                    left: QueryTerm::var("x"),
                    op: CmpOp::Lt,
                    right: QueryTerm::var("x"),
                }),
            }),
        };
        assert!(f.eval(&seq, &env_with_sensor(1)).unwrap());
    }

    /// Probes and visited state tuples of one evaluation.
    fn work(f: &HavingFormula, seq: &StateSequence, env: &Env) -> (bool, u64, u64) {
        let (compiled, row, keys) = compile_under(f, env).unwrap();
        let indexed = IndexedSequence::new(seq.clone());
        let groups = Groups::new();
        let ctx = keys.context(&groups);
        let mut evaluator = compiled.evaluator(&indexed, &ctx);
        let verdict = evaluator.holds(&row);
        (verdict, evaluator.probes, evaluator.candidates)
    }

    #[test]
    fn absent_subject_costs_one_probe() {
        // No state mentions sensor 7: the failure pattern's postings are
        // the candidates of `?k`, and there are none.
        let (verdict, probes, candidates) = work(
            &monotonic_formula("c"),
            &rising_sequence(),
            &env_with_sensor(7),
        );
        assert_eq!((verdict, probes, candidates), (false, 1, 0));
    }

    /// `EXISTS ?i: EXISTS ?j: ?i < ?j AND GRAPH ?i {…} AND GRAPH ?j {…} AND …`
    /// — the catalog's big-swing shape.
    fn swing_formula(guard: HavingFormula) -> HavingFormula {
        let reading = |state: &str, value: &str| HavingFormula::Graph {
            state: state.into(),
            atoms: vec![Atom::property(
                iri("hasValue"),
                QueryTerm::var("c"),
                QueryTerm::var(value),
            )],
        };
        let conjuncts = [
            HavingFormula::StateLess {
                left: vec!["i".into()],
                right: "j".into(),
            },
            reading("i", "x"),
            reading("j", "y"),
            guard,
            HavingFormula::Cmp {
                left: QueryTerm::var("x"),
                op: CmpOp::Gt,
                right: QueryTerm::var("y"),
            },
        ];
        let body = conjuncts
            .into_iter()
            .reduce(|a, b| HavingFormula::And(Box::new(a), Box::new(b)))
            .unwrap();
        HavingFormula::Exists {
            state_vars: vec!["i".into()],
            body: Box::new(HavingFormula::Exists {
                state_vars: vec!["j".into()],
                body: Box::new(body),
            }),
        }
    }

    #[test]
    fn ordered_quantifiers_visit_ordered_tuples_of_postings_only() {
        // Sensor 1 reads at three of the four states and never falls: no
        // witness, so every candidate is visited — its three readings for
        // `?i` and their three ordered pairs for `?j`, not the four states
        // and sixteen pairs the interpreter walked.
        let (verdict, _, candidates) = work(
            &swing_formula(HavingFormula::True),
            &rising_sequence(),
            &env_with_sensor(1),
        );
        assert_eq!((verdict, candidates), (false, 3 + 3));
        // Sensor 2 falls: the first reading and the first pair are the
        // witness.
        let (verdict, _, candidates) = work(
            &swing_formula(HavingFormula::True),
            &rising_sequence(),
            &env_with_sensor(2),
        );
        assert_eq!((verdict, candidates), (true, 1 + 1));
    }

    #[test]
    fn a_variable_read_unbound_is_refused_and_a_bound_one_narrows() {
        // `?u` is bound by nothing: every tuple that reached the comparison
        // would fail, so compilation refuses the formula, naming `?u`…
        let reads_u = HavingFormula::Cmp {
            left: QueryTerm::var("u"),
            op: CmpOp::Eq,
            right: QueryTerm::var("u"),
        };
        let err = swing_formula(reads_u.clone())
            .eval(&rising_sequence(), &env_with_sensor(1))
            .unwrap_err();
        assert!(err.contains("?u"), "{err}");
        // …and where the binding provides `?u`, it narrows as ever.
        let mut env = env_with_sensor(1);
        env.insert("u".into(), sensor(1));
        let (verdict, _, candidates) = work(&swing_formula(reads_u), &rising_sequence(), &env);
        assert_eq!((verdict, candidates), (false, 3 + 3));
    }

    #[test]
    fn unguarded_quantifier_ranges_over_every_state() {
        // Under NOT no pattern has to match at `?k`: every state is a
        // candidate.
        let f = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::Not(Box::new(HavingFormula::Or(
                Box::new(HavingFormula::True),
                Box::new(HavingFormula::Graph {
                    state: "k".into(),
                    atoms: vec![Atom::class(iri("showsFailure"), QueryTerm::var("c"))],
                }),
            )))),
        };
        let (verdict, _, candidates) = work(&f, &rising_sequence(), &env_with_sensor(1));
        assert_eq!((verdict, candidates), (false, 4));
    }

    #[test]
    fn cmp_numeric_semantics() {
        let seq = StateSequence { states: vec![] };
        let f = HavingFormula::Cmp {
            left: QueryTerm::Const(Term::Literal(Literal::integer(2))),
            op: CmpOp::Lt,
            right: QueryTerm::Const(Term::Literal(Literal::double(2.5))),
        };
        assert!(f.eval(&seq, &Env::default()).unwrap());
        // A number never orders against a non-number, and equals it never.
        let against_text = |n: f64, op| HavingFormula::Cmp {
            left: QueryTerm::Const(Term::Literal(Literal::double(n))),
            op,
            right: QueryTerm::Const(Term::Literal(Literal::string("70"))),
        };
        for n in [9.0, 100.0] {
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
                assert!(!against_text(n, op).eval(&seq, &Env::default()).unwrap());
            }
            assert!(against_text(n, CmpOp::Ne)
                .eval(&seq, &Env::default())
                .unwrap());
        }
    }

    /// Compilation refuses what an evaluation could only fail on, naming
    /// it. Binding flows through `AND` and `GRAPH` only, left to right: a
    /// comparison before the pattern that binds its variable, or after an
    /// `EXISTS` that binds it inside, is refused; so are a state variable
    /// no quantifier binds and a threshold that is no numeric literal.
    #[test]
    fn unbound_variable_is_an_error() {
        let seq = rising_sequence();
        let f = HavingFormula::Cmp {
            left: QueryTerm::var("nope"),
            op: CmpOp::Eq,
            right: QueryTerm::var("nope"),
        };
        assert!(f.eval(&seq, &Env::default()).is_err());
        let reading = |state: &str| HavingFormula::Graph {
            state: state.into(),
            atoms: vec![Atom::property(
                iri("hasValue"),
                QueryTerm::var("c"),
                QueryTerm::var("x"),
            )],
        };
        let hot = HavingFormula::Cmp {
            left: QueryTerm::var("x"),
            op: CmpOp::Ge,
            right: QueryTerm::Const(Term::Literal(Literal::integer(80))),
        };
        let and = |a: HavingFormula, b: HavingFormula| HavingFormula::And(Box::new(a), Box::new(b));
        let exists = |body: HavingFormula| HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(body),
        };
        let env = env_with_sensor(1);
        assert!(exists(and(reading("k"), hot.clone()))
            .eval(&seq, &env)
            .unwrap());
        let threshold = QueryTerm::Const(Term::Literal(Literal::string("85")));
        let refused = [
            (exists(and(hot.clone(), reading("k"))), "?x"),
            (and(exists(reading("k")), hot), "?x"),
            (exists(reading("q")), "?q"),
            (
                HavingFormula::Agg {
                    func: AggFunc::Max,
                    subject: QueryTerm::var("c"),
                    property: iri("hasValue"),
                    op: CmpOp::Ge,
                    threshold,
                },
                "\"85\"",
            ),
        ];
        for (formula, named) in refused {
            let err = formula.eval(&seq, &env).unwrap_err();
            assert!(err.contains(named), "{named}: {err}");
        }
    }

    #[test]
    fn macro_expansion_substitutes_params() {
        use crate::ast::AggregateDef;
        let def = AggregateDef {
            namespace: "M".into(),
            name: "TEST".into(),
            params: vec!["var".into(), "attr".into()],
            body: ProtoFormula::Exists {
                state_vars: vec!["k".into()],
                body: Box::new(ProtoFormula::Graph {
                    state: "k".into(),
                    atoms: vec![ProtoAtom {
                        subject: ProtoTerm::Param("var".into()),
                        predicate: ProtoPred::Param("attr".into()),
                        object: Some(ProtoTerm::Var("x".into())),
                    }],
                }),
            },
        };
        let call = ProtoFormula::MacroCall {
            namespace: "M".into(),
            name: "TEST".into(),
            args: vec![
                ProtoTerm::Var("c".into()),
                ProtoTerm::Const(Term::Iri(iri("hasValue"))),
            ],
        };
        let expanded = expand(&call, &[def]).unwrap();
        let HavingFormula::Exists { body, .. } = expanded else {
            panic!()
        };
        let HavingFormula::Graph { atoms, .. } = *body else {
            panic!()
        };
        assert_eq!(
            atoms[0],
            Atom::property(iri("hasValue"), QueryTerm::var("c"), QueryTerm::var("x"))
        );
    }

    #[test]
    fn unknown_macro_is_an_error() {
        let call = ProtoFormula::MacroCall {
            namespace: "NO".into(),
            name: "PE".into(),
            args: vec![],
        };
        assert!(expand(&call, &[]).is_err());
    }

    fn agg_formula(func: AggFunc, op: CmpOp, threshold: f64) -> HavingFormula {
        HavingFormula::Agg {
            func,
            subject: QueryTerm::var("c"),
            property: iri("hasValue"),
            op,
            threshold: QueryTerm::Const(Term::Literal(Literal::double(threshold))),
        }
    }

    fn agg_ctx() -> Groups {
        let mut acc = AggAcc::default();
        for v in [70.0, 75.0, 80.0] {
            acc.observe(&optique_relational::Value::Float(v));
        }
        Groups::from([(Value::Int(1), acc)])
    }

    #[test]
    fn agg_atoms_evaluate_against_the_context() {
        let seq = StateSequence { states: vec![] };
        let ctx = agg_ctx();
        let env = env_with_sensor(1);
        let cases = [
            (AggFunc::Sum, CmpOp::Ge, 225.0, true),
            (AggFunc::Sum, CmpOp::Gt, 225.0, false),
            (AggFunc::Count, CmpOp::Eq, 3.0, true),
            (AggFunc::Avg, CmpOp::Eq, 75.0, true),
            (AggFunc::Min, CmpOp::Eq, 70.0, true),
            (AggFunc::Max, CmpOp::Eq, 80.0, true),
        ];
        for (func, op, t, expect) in cases {
            let f = agg_formula(func, op, t);
            assert_eq!(
                f.eval_with(&seq, &env, Some(&ctx)).unwrap(),
                expect,
                "{func:?} {op:?} {t}"
            );
        }
    }

    #[test]
    fn missing_group_counts_zero_and_fails_other_aggregates() {
        let seq = StateSequence { states: vec![] };
        let ctx = agg_ctx();
        let env = env_with_sensor(2); // no group for sensor 2
        assert!(agg_formula(AggFunc::Count, CmpOp::Eq, 0.0)
            .eval_with(&seq, &env, Some(&ctx))
            .unwrap());
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            assert!(
                !agg_formula(func, CmpOp::Ge, -1e18)
                    .eval_with(&seq, &env, Some(&ctx))
                    .unwrap(),
                "{func:?} over an empty group must not satisfy any comparison"
            );
        }
    }

    /// A window with no groups — an aggregate-free query's, say — counts
    /// every subject zero and gives none a SUM.
    #[test]
    fn agg_over_an_empty_context_counts_zero() {
        let seq = StateSequence { states: vec![] };
        let env = env_with_sensor(1);
        let counted = agg_formula(AggFunc::Count, CmpOp::Eq, 0.0);
        assert!(counted.eval(&seq, &env).unwrap());
        let summed = agg_formula(AggFunc::Sum, CmpOp::Ge, 0.0);
        assert!(!summed.eval(&seq, &env).unwrap());
    }

    #[test]
    fn agg_combines_with_connectives_and_graph_atoms() {
        let seq = rising_sequence();
        let ctx = agg_ctx();
        let env = env_with_sensor(1);
        // AND with a graph pattern: both sides must hold.
        let combo = HavingFormula::And(
            Box::new(HavingFormula::Exists {
                state_vars: vec!["k".into()],
                body: Box::new(HavingFormula::Graph {
                    state: "k".into(),
                    atoms: vec![Atom::class(iri("showsFailure"), QueryTerm::var("c"))],
                }),
            }),
            Box::new(agg_formula(AggFunc::Max, CmpOp::Ge, 80.0)),
        );
        assert!(combo.eval_with(&seq, &env, Some(&ctx)).unwrap());
        let failing = HavingFormula::And(
            Box::new(HavingFormula::True),
            Box::new(agg_formula(AggFunc::Max, CmpOp::Gt, 80.0)),
        );
        assert!(!failing.eval_with(&seq, &env, Some(&ctx)).unwrap());
    }

    /// A subject a graph pattern binds is inverted when it is read and
    /// looked up in the window's groups; one the row binds reads its key
    /// slot.
    #[test]
    fn pattern_bound_subjects_read_their_groups_by_term() {
        let seq = rising_sequence();
        // Some reading of `?var`'s subject sums to at least 225.
        let witness = |var: &str| HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(HavingFormula::And(
                Box::new(HavingFormula::Graph {
                    state: "k".into(),
                    atoms: vec![Atom::property(
                        iri("hasValue"),
                        QueryTerm::var(var),
                        QueryTerm::var("x"),
                    )],
                }),
                Box::new(HavingFormula::Agg {
                    func: AggFunc::Sum,
                    subject: QueryTerm::var(var),
                    property: iri("hasValue"),
                    op: CmpOp::Ge,
                    threshold: QueryTerm::Const(Term::Literal(Literal::double(225.0))),
                }),
            )),
        };
        // The row names sensor 2 only; the pattern binds `?s` to sensor 1,
        // whose group is the witness.
        let env = env_with_sensor(2);
        assert!(witness("s")
            .eval_with(&seq, &env, Some(&agg_ctx()))
            .unwrap());
        // Bound from the row, the subject reads its own group only, and
        // sensor 2 has none.
        assert!(!witness("c")
            .eval_with(&seq, &env, Some(&agg_ctx()))
            .unwrap());
    }

    /// A context holds the group of exactly the keys registration named
    /// and the window has: a named key the window lacks stays empty, a
    /// window key nothing names takes no slot, and an all-NULL group is
    /// none.
    #[test]
    fn subject_keys_context_fills_exactly_the_named_slots() {
        let by_constant = HavingFormula::Agg {
            func: AggFunc::Count,
            subject: QueryTerm::Const(sensor(6)),
            property: iri("hasValue"),
            op: CmpOp::Ge,
            threshold: QueryTerm::Const(Term::Literal(Literal::integer(1))),
        };
        let f = HavingFormula::Or(
            Box::new(agg_formula(AggFunc::Count, CmpOp::Ge, 1.0)),
            Box::new(by_constant),
        );
        let bindings = [1, 3, 5, 3].map(env_with_sensor);
        let keys = SubjectKeys::new(&f, &bindings, &template(), Some(ColumnType::Int));
        assert_eq!(keys.keys, [1, 3, 5, 6].map(Value::Int));
        let counted = |n: i64, value: Value| {
            let mut acc = AggAcc::default();
            (0..n).for_each(|_| acc.observe(&value));
            acc
        };
        let groups = Groups::from([
            (Value::Int(0), counted(1, Value::Int(1))),
            (Value::Int(1), counted(2, Value::Int(1))),
            (Value::Int(3), counted(3, Value::Null)),
            (Value::Int(4), counted(4, Value::Int(1))),
            (Value::Int(5), counted(5, Value::Int(1))),
            (Value::Int(7), counted(7, Value::Int(1))),
        ]);
        let ctx = keys.context(&groups);
        let counts: Vec<Option<i64>> = (ctx.slots.iter())
            .map(|slot| slot.map(|acc| acc.count))
            .collect();
        assert_eq!(counts, [Some(2), None, Some(5), None]);
    }

    /// A group answers to the IRI its key column's declared type spells:
    /// one folded under `Int(5)` is `…/5` under a FLOAT key, and `…/@5` —
    /// not `…/5` — under a TIMESTAMP key; by constant and by binding alike.
    #[test]
    fn a_group_answers_to_its_declared_key_spelling() {
        let mut acc = AggAcc::default();
        acc.observe(&Value::Float(1.0));
        let groups = Groups::from([(Value::Int(5), acc)]);
        let holds = |f: &HavingFormula, env: &Env, key_type| {
            let (compiled, row, keys) = compile_keyed(f, env, key_type).unwrap();
            let ctx = keys.context(&groups);
            let indexed = IndexedSequence::new(StateSequence { states: vec![] });
            let verdict = compiled.evaluator(&indexed, &ctx).holds(&row);
            verdict
        };
        let counted = |subject: &str, key_type| {
            let subject = Term::iri(subject);
            let by_row = agg_formula(AggFunc::Count, CmpOp::Eq, 1.0);
            let by_constant = with_subject(&by_row, subject.clone());
            let env = Env::from([("c".to_string(), subject)]);
            let verdicts = [
                holds(&by_row, &env, key_type),
                holds(&by_constant, &Env::default(), key_type),
            ];
            assert_eq!(verdicts[0], verdicts[1], "by row and by constant");
            verdicts[0]
        };
        assert!(counted("http://x/sensor/5", ColumnType::Float));
        assert!(counted("http://x/sensor/@5", ColumnType::Timestamp));
        assert!(!counted("http://x/sensor/5", ColumnType::Timestamp));
        assert!(counted("http://x/sensor/5", ColumnType::Int));
        assert!(!counted("http://x/sensor/@5", ColumnType::Int));
    }

    /// An aggregate atom with its subject replaced by `subject`.
    fn with_subject(f: &HavingFormula, subject: Term) -> HavingFormula {
        let HavingFormula::Agg {
            func,
            property,
            op,
            threshold,
            ..
        } = f
        else {
            panic!("an aggregate atom")
        };
        HavingFormula::Agg {
            func: *func,
            subject: QueryTerm::Const(subject),
            property: property.clone(),
            op: *op,
            threshold: threshold.clone(),
        }
    }

    #[test]
    fn agg_is_restriction_safe_and_reports_its_subject() {
        let f = agg_formula(AggFunc::Sum, CmpOp::Ge, 100.0);
        assert!(f.restriction_safe());
        let subjects = f.graph_subjects();
        assert_eq!(subjects.len(), 1);
        assert!(matches!(subjects[0], QueryTerm::Var(v) if v == "c"));
        // But an aggregate never guards a state variable: EXISTS over an
        // agg-only body stays unsafe.
        let unguarded = HavingFormula::Exists {
            state_vars: vec!["k".into()],
            body: Box::new(agg_formula(AggFunc::Sum, CmpOp::Ge, 100.0)),
        };
        assert!(!unguarded.restriction_safe());
    }

    #[test]
    fn agg_expands_through_macros() {
        use crate::ast::AggregateDef;
        let def = AggregateDef {
            namespace: "THRESH".into(),
            name: "SUMGE".into(),
            params: vec!["var".into(), "attr".into()],
            body: ProtoFormula::Agg {
                func: AggFunc::Sum,
                subject: ProtoTerm::Param("var".into()),
                property: ProtoPred::Param("attr".into()),
                op: CmpOp::Ge,
                threshold: ProtoTerm::Const(Term::Literal(Literal::integer(100))),
            },
        };
        let call = ProtoFormula::MacroCall {
            namespace: "THRESH".into(),
            name: "SUMGE".into(),
            args: vec![
                ProtoTerm::Var("c".into()),
                ProtoTerm::Const(Term::Iri(iri("hasValue"))),
            ],
        };
        let HavingFormula::Agg {
            func,
            subject,
            property,
            ..
        } = expand(&call, &[def]).unwrap()
        else {
            panic!()
        };
        assert_eq!(func, AggFunc::Sum);
        assert_eq!(subject, QueryTerm::var("c"));
        assert_eq!(property, iri("hasValue"));
    }

    #[test]
    fn unary_pattern_expands_to_class_atom() {
        let proto = ProtoFormula::Graph {
            state: "k".into(),
            atoms: vec![ProtoAtom {
                subject: ProtoTerm::Var("c".into()),
                predicate: ProtoPred::Iri(iri("showsFailure")),
                object: None,
            }],
        };
        let HavingFormula::Graph { atoms, .. } = expand(&proto, &[]).unwrap() else {
            panic!()
        };
        assert!(matches!(&atoms[0], Atom::Class { .. }));
    }
}

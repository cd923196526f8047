//! The compiled HAVING evaluator, proven by a **differential oracle**
//! against the interpreter it replaced (`reference/`, the moved code).
//! Every formula is compiled first, as registration does. Compilation
//! refuses what an evaluation could only fail on; for every formula it
//! accepts, and every window sequence, WHERE binding of the answer
//! variables and aggregate context, the reference never fails and both
//! return the same verdict. The reference walks every state tuple and
//! every extension, so the oracle is also what says that the registration
//! check is sound: no accepted formula fails anywhere the compiled
//! evaluator's shortcuts skip.
//!
//! Formulas: the 18 catalog tasks, the seven shapes of
//! `tests/common::streaming::program`, those same formulas with their
//! conjuncts permuted (which reads variables before their pattern binds
//! them — refused) and with the subject variable replaced by a constant,
//! and generated trees: `NOT`, unguarded quantifiers, constants as
//! subjects, aggregate atoms, variables read where patterns bind them —
//! and, in a refusal arm of their own, a state variable nothing
//! quantifies, a value variable nothing binds or a threshold that is no
//! number, which registration must refuse by name.
//! Sequences come from generated rows through the product's own
//! `build_stdseq` → `materialize`, under the Siemens TBox with and without
//! `funct(hasValue)`: subjects absent from the window, duplicate readings
//! per timestamp, states the constraint drops. The compiled evaluator reads
//! the window's groups by raw stream key, as a tick does; the reference
//! reads them by subject term.

#[path = "../../../tests/common/mod.rs"]
mod common;
mod reference;

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use common::proptest_cases;
use optique_mapping::IriTemplate;
use optique_ontology::materialize::materialize;
use optique_ontology::{Axiom, Ontology, Role};
use optique_rdf::{Datatype, Iri, Literal, Term};
use optique_relational::{AggAcc, Column, ColumnType, Schema, Value};
use optique_rewrite::{Atom, QueryTerm};
use optique_siemens::catalog::TaskQuery;
use optique_siemens::ontology::{namespaces, siemens_ontology};
use optique_siemens::{diagnostic_tasks, SIE_NS};
use optique_starql::having::{
    expand, AggFunc, BindingRow, CmpOp, CompiledHaving, HavingFormula, SubjectKeys,
};
use optique_starql::sequence::{build_stdseq, IndexedSequence, StateSequence};
use optique_starql::{parse_starql, StreamToRdf};
use proptest::prelude::*;
use reference::{AggContext as TermAggs, Env, Reference};

/// Sensors that stream; bindings also name sensors past this, which no
/// window mentions.
const STREAMED: i64 = 4;
const BOUND: i64 = 6;

fn sie(name: &str) -> Iri {
    Iri::new(format!("{SIE_NS}{name}"))
}

fn sensor(n: i64) -> Term {
    Term::iri(format!("http://x/sensor/{n}"))
}

fn number(n: i64) -> Term {
    Term::Literal(Literal::integer(n))
}

// ---- a small deterministic generator -------------------------------------

/// SplitMix64: the vendored proptest has no recursive strategies, so a case
/// is one seed and everything else is drawn from it here.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.below(options.len() as u64) as usize]
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

// ---- sequences -------------------------------------------------------------

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
        value_property: sie("hasValue"),
        value_col: "value".into(),
        value_datatype: Datatype::Double,
        event_col: Some("event".into()),
        event_classes: vec![("failure".into(), sie("showsFailure"))],
    }
}

/// The Siemens TBox, and the same with `funct(hasValue)`: under the second,
/// a timestamp where one sensor reports two values loses its state.
fn tboxes() -> &'static [Ontology; 2] {
    static TBOXES: OnceLock<[Ontology; 2]> = OnceLock::new();
    TBOXES.get_or_init(|| {
        let mut strict = siemens_ontology();
        strict.add_axiom(Axiom::Functional(Role::named(sie("hasValue"))));
        [siemens_ontology(), strict]
    })
}

/// A generated window: up to eight timestamps, a few readings each from a
/// small value domain (so flatlines and monotone runs happen), rare failure
/// events, NULL values, repeated readings.
fn window_rows(rng: &mut Rng) -> Vec<Vec<Value>> {
    let timestamps = rng.below(9) as i64;
    let domain: Vec<f64> = [38.0, 40.0, 60.0, 80.0, 95.0][..1 + rng.below(5) as usize].to_vec();
    let mut rows = Vec::new();
    for t in 0..timestamps {
        for s in 0..STREAMED {
            for _ in 0..[0, 1, 1, 1, 2][rng.below(5) as usize] {
                rows.push(vec![
                    Value::Timestamp(t * 1_000),
                    Value::Int(s),
                    if rng.chance(12) {
                        Value::Null
                    } else {
                        Value::Float(*rng.pick(&domain))
                    },
                    if rng.chance(8) {
                        Value::text("failure")
                    } else {
                        Value::Null
                    },
                ]);
            }
        }
    }
    rows
}

/// A window's aggregates by raw stream key, as a tick folds them: all-NULL
/// groups included.
type Groups = BTreeMap<Value, AggAcc>;

/// The window's sequence the way a tick builds it, and its per-key
/// aggregates.
fn evaluate_window(rows: &[Vec<Value>], tbox: &Ontology) -> (StateSequence, Groups) {
    let (mut seq, _) = build_stdseq(rows, &schema(), &mapping(), Some(tbox));
    for state in &mut seq.states {
        materialize(&mut Arc::make_mut(state).graph, tbox, 0);
    }
    let mut groups = Groups::new();
    for row in rows {
        groups.entry(row[1].clone()).or_default().observe(&row[2]);
    }
    (seq, groups)
}

/// The groups the reference reads: by the subject term each key mints,
/// the groups with a non-NULL value only.
fn by_term(groups: &Groups) -> TermAggs {
    (groups.iter())
        .filter(|(_, acc)| acc.count > 0)
        .map(|(key, acc)| (sensor(key.as_i64().unwrap()), acc.clone()))
        .collect()
}

// ---- formulas ---------------------------------------------------------------

/// The 18 catalog HAVING conditions, macro-expanded.
fn catalog_formulas() -> &'static [HavingFormula] {
    static FORMULAS: OnceLock<Vec<HavingFormula>> = OnceLock::new();
    FORMULAS.get_or_init(|| {
        diagnostic_tasks()
            .into_iter()
            .filter_map(|task| match task.query {
                TaskQuery::StarQl(text) => Some(text),
                TaskQuery::SqlPlus(_) => None,
            })
            .map(|text| {
                let query = parse_starql(&text, &namespaces()).unwrap();
                expand(&query.having, &query.aggregates).unwrap()
            })
            .collect()
    })
}

/// The seven program shapes of the streaming oracle, at two thresholds.
fn shape_formulas() -> &'static [HavingFormula] {
    static FORMULAS: OnceLock<Vec<HavingFormula>> = OnceLock::new();
    FORMULAS.get_or_init(|| {
        (0..7)
            .flat_map(|shape| [0, 20].map(|knob| (shape, knob)))
            .map(|(shape, knob)| {
                let text = common::streaming::program(shape, 10, 1, true, knob);
                let query = parse_starql(&text, &namespaces()).unwrap();
                expand(&query.having, &query.aggregates).unwrap()
            })
            .collect()
    })
}

/// `EXISTS ?k IN seq: GRAPH ?k { ?s sie:hasValue ?y } AND FUNC(?s, …) op t`
/// for every function, two operators and three thresholds, over `?s` (bound
/// by the pattern alone: any sensor of the state) and `?c2` (the
/// binding's).
fn pattern_bound_formulas() -> &'static [HavingFormula] {
    static FORMULAS: OnceLock<Vec<HavingFormula>> = OnceLock::new();
    FORMULAS.get_or_init(|| {
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let mut out = Vec::new();
        for var in ["s", "c2"] {
            for func in funcs {
                for op in [CmpOp::Ge, CmpOp::Lt] {
                    for threshold in [1, 70, 150] {
                        let reading = Atom::property(
                            sie("hasValue"),
                            QueryTerm::var(var),
                            QueryTerm::var("y"),
                        );
                        let agg = HavingFormula::Agg {
                            func,
                            subject: QueryTerm::var(var),
                            property: sie("hasValue"),
                            op,
                            threshold: QueryTerm::Const(number(threshold)),
                        };
                        let pattern = HavingFormula::Graph {
                            state: "k".into(),
                            atoms: vec![reading],
                        };
                        out.push(HavingFormula::Exists {
                            state_vars: vec!["k".into()],
                            body: Box::new(HavingFormula::And(Box::new(pattern), Box::new(agg))),
                        });
                    }
                }
            }
        }
        out
    })
}

/// `f` with every conjunction's conjuncts reshuffled.
fn permuted(f: &HavingFormula, rng: &mut Rng) -> HavingFormula {
    fn conjuncts<'f>(f: &'f HavingFormula, out: &mut Vec<&'f HavingFormula>) {
        match f {
            HavingFormula::And(a, b) => {
                conjuncts(a, out);
                conjuncts(b, out);
            }
            other => out.push(other),
        }
    }
    let boxed = |f: &HavingFormula, rng: &mut Rng| Box::new(permuted(f, rng));
    match f {
        HavingFormula::And(..) => {
            let mut parts = Vec::new();
            conjuncts(f, &mut parts);
            let mut parts: Vec<HavingFormula> = parts.iter().map(|p| permuted(p, rng)).collect();
            for i in (1..parts.len()).rev() {
                parts.swap(i, rng.below(i as u64 + 1) as usize);
            }
            parts
                .into_iter()
                .reduce(|a, b| HavingFormula::And(Box::new(a), Box::new(b)))
                .expect("a conjunction has conjuncts")
        }
        HavingFormula::Exists { state_vars, body } => HavingFormula::Exists {
            state_vars: state_vars.clone(),
            body: boxed(body, rng),
        },
        HavingFormula::Forall {
            state_vars,
            value_vars,
            body,
        } => HavingFormula::Forall {
            state_vars: state_vars.clone(),
            value_vars: value_vars.clone(),
            body: boxed(body, rng),
        },
        HavingFormula::If { cond, then } => HavingFormula::If {
            cond: boxed(cond, rng),
            then: boxed(then, rng),
        },
        HavingFormula::Or(a, b) => HavingFormula::Or(boxed(a, rng), boxed(b, rng)),
        HavingFormula::Not(a) => HavingFormula::Not(boxed(a, rng)),
        leaf => leaf.clone(),
    }
}

/// `f` with the variable `var` replaced by `constant` everywhere a value
/// term stands.
fn with_constant(f: &HavingFormula, var: &str, constant: &Term) -> HavingFormula {
    let term = |t: &QueryTerm| match t {
        QueryTerm::Var(v) if v == var => QueryTerm::Const(constant.clone()),
        other => other.clone(),
    };
    let boxed = |f: &HavingFormula| Box::new(with_constant(f, var, constant));
    match f {
        HavingFormula::Graph { state, atoms } => HavingFormula::Graph {
            state: state.clone(),
            atoms: atoms
                .iter()
                .map(|atom| match atom {
                    Atom::Class { class, arg } => Atom::class(class.clone(), term(arg)),
                    Atom::Property {
                        property,
                        subject,
                        object,
                    } => Atom::property(property.clone(), term(subject), term(object)),
                })
                .collect(),
        },
        HavingFormula::Cmp { left, op, right } => HavingFormula::Cmp {
            left: term(left),
            op: *op,
            right: term(right),
        },
        HavingFormula::Agg {
            func,
            subject,
            property,
            op,
            threshold,
        } => HavingFormula::Agg {
            func: *func,
            subject: term(subject),
            property: property.clone(),
            op: *op,
            threshold: term(threshold),
        },
        HavingFormula::Exists { state_vars, body } => HavingFormula::Exists {
            state_vars: state_vars.clone(),
            body: boxed(body),
        },
        HavingFormula::Forall {
            state_vars,
            value_vars,
            body,
        } => HavingFormula::Forall {
            state_vars: state_vars.clone(),
            value_vars: value_vars.clone(),
            body: boxed(body),
        },
        HavingFormula::If { cond, then } => HavingFormula::If {
            cond: boxed(cond),
            then: boxed(then),
        },
        HavingFormula::And(a, b) => HavingFormula::And(boxed(a), boxed(b)),
        HavingFormula::Or(a, b) => HavingFormula::Or(boxed(a), boxed(b)),
        HavingFormula::Not(a) => HavingFormula::Not(boxed(a)),
        HavingFormula::True | HavingFormula::StateLess { .. } => f.clone(),
    }
}

/// What a generated tree may read where it is built, as
/// `CompiledHaving::compile` walks it: the state variables the enclosing
/// quantifiers bind, and the value variables bound there — the WHERE
/// answer variables, and the slots of `GRAPH` patterns earlier in a
/// conjunction or in an `IF` antecedent.
struct Scope {
    states: Vec<String>,
    values: Vec<String>,
    /// Leaves left to draw before the one refusal leaf, if the tree gets
    /// one.
    refuse_in: Option<u32>,
    /// What the refusal leaf names: `?u`, a state variable, a threshold.
    culprit: Option<String>,
}

/// A generated tree and, when it holds one, the culprit its refusal leaf
/// names. One tree in three is drawn with a refusal leaf, somewhere among
/// its first leaves; every other leaf reads only what its scope binds, so
/// registration accepts exactly the trees without a culprit.
fn generated(rng: &mut Rng) -> (HavingFormula, Option<String>) {
    let mut scope = Scope {
        states: Vec::new(),
        values: answer_vars(),
        refuse_in: rng.chance(3).then(|| rng.below(3) as u32),
        culprit: None,
    };
    let formula = tree(rng, 4, &mut scope, false);
    (formula, scope.culprit)
}

/// A generated tree at a position that binds (`binding`: an `AND`
/// conjunct, an `IF` antecedent) or does not. Value terms mix the bound
/// `?c2`, the bound assembly `?c1` (an IRI the sensor template does not
/// invert), pattern-bound `?x ?y ?s`, and constants — sensors present and
/// absent, numbers, a class.
fn tree(rng: &mut Rng, depth: u32, scope: &mut Scope, binding: bool) -> HavingFormula {
    const STATE_VARS: [&str; 4] = ["i", "j", "k", "z"];
    fn subject(rng: &mut Rng) -> QueryTerm {
        match rng.below(9) {
            0..=3 => QueryTerm::var("c2"),
            4 => QueryTerm::var("s"),
            5 => QueryTerm::Const(sensor(0)),
            6 => QueryTerm::Const(sensor(BOUND + 3)),
            7 => QueryTerm::var("c1"),
            _ => QueryTerm::var("x"),
        }
    }
    fn value(rng: &mut Rng) -> QueryTerm {
        match rng.below(8) {
            0..=2 => QueryTerm::var("x"),
            3 | 4 => QueryTerm::var("y"),
            5 => QueryTerm::Const(number(*rng.pick(&[40, 80]))),
            6 => QueryTerm::Const(Term::Literal(Literal::double(60.0))),
            _ => QueryTerm::var("c2"),
        }
    }
    /// A drawn term where it is read: a variable nothing binds here gives
    /// way to one that is bound.
    fn read(rng: &mut Rng, scope: &Scope, draw: fn(&mut Rng) -> QueryTerm) -> QueryTerm {
        match draw(rng) {
            QueryTerm::Var(v) if !scope.values.contains(&v) => {
                QueryTerm::Var(rng.pick(&scope.values).clone())
            }
            term => term,
        }
    }
    fn atom(rng: &mut Rng) -> Atom {
        match rng.below(8) {
            0 | 1 => {
                let class: &&str = rng.pick(&["showsFailure", "Sensor", "Turbine"]);
                Atom::class(sie(class), subject(rng))
            }
            2 => Atom::property(
                Iri::new(optique_rdf::vocab::rdf::TYPE),
                subject(rng),
                match rng.below(3) {
                    0 => QueryTerm::Const(Term::Iri(sie("MonitoringDevice"))),
                    1 => QueryTerm::var("y"),
                    _ => QueryTerm::Const(number(40)),
                },
            ),
            3 => Atom::property(sie("inAssembly"), subject(rng), value(rng)),
            _ => Atom::property(sie("hasValue"), subject(rng), value(rng)),
        }
    }
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    if depth == 0 || rng.chance(4) {
        let refuse = match &mut scope.refuse_in {
            Some(0) => {
                scope.refuse_in = None;
                true
            }
            Some(left) => {
                *left -= 1;
                false
            }
            None => false,
        };
        if refuse {
            // The refusal arm: one culprit registration must name.
            let (formula, culprit) = match rng.below(3) {
                0 => (
                    HavingFormula::Cmp {
                        left: QueryTerm::var("u"),
                        op: *rng.pick(&OPS),
                        right: read(rng, scope, value),
                    },
                    "?u".to_string(),
                ),
                1 => {
                    let free: Vec<&str> = (STATE_VARS.iter().copied())
                        .filter(|v| !scope.states.iter().any(|s| s == v))
                        .collect();
                    let state = rng.pick(&free).to_string();
                    let formula = if rng.chance(2) {
                        HavingFormula::Graph {
                            state: state.clone(),
                            atoms: vec![atom(rng)],
                        }
                    } else {
                        HavingFormula::StateLess {
                            left: vec![state.clone()],
                            right: state.clone(),
                        }
                    };
                    (formula, format!("?{state}"))
                }
                _ => {
                    let threshold = match rng.below(3) {
                        0 => QueryTerm::var("c2"),
                        1 => QueryTerm::Const(Term::Literal(Literal::string("seventy"))),
                        _ => QueryTerm::Const(sensor(0)),
                    };
                    let culprit = threshold.to_string();
                    let formula = HavingFormula::Agg {
                        func: *rng.pick(&FUNCS),
                        subject: read(rng, scope, subject),
                        property: sie("hasValue"),
                        op: *rng.pick(&OPS),
                        threshold,
                    };
                    (formula, culprit)
                }
            };
            scope.culprit = Some(culprit);
            return formula;
        }
        // Patterns and state order need a quantifier around them.
        let kinds = if scope.states.is_empty() { 5 } else { 10 };
        return match rng.below(kinds) {
            0 => HavingFormula::True,
            1 | 2 => HavingFormula::Cmp {
                left: read(rng, scope, value),
                op: *rng.pick(&OPS),
                right: read(rng, scope, value),
            },
            3 | 4 => HavingFormula::Agg {
                func: *rng.pick(&FUNCS),
                subject: read(rng, scope, subject),
                property: sie("hasValue"),
                op: *rng.pick(&OPS),
                threshold: match rng.below(3) {
                    0 => QueryTerm::Const(Term::Literal(Literal::double(60.5))),
                    _ => QueryTerm::Const(number(*rng.pick(&[1, 70, 150]))),
                },
            },
            5..=8 => {
                let atoms: Vec<Atom> = (0..[1, 1, 1, 2, 0][rng.below(5) as usize])
                    .map(|_| atom(rng))
                    .collect();
                if binding {
                    for term in atoms.iter().flat_map(Atom::terms) {
                        if let QueryTerm::Var(v) = term {
                            scope.values.push(v.clone());
                        }
                    }
                }
                HavingFormula::Graph {
                    state: rng.pick(&scope.states).clone(),
                    atoms,
                }
            }
            _ => HavingFormula::StateLess {
                left: (0..1 + rng.below(2))
                    .map(|_| rng.pick(&scope.states).clone())
                    .collect(),
                right: rng.pick(&scope.states).clone(),
            },
        };
    }
    let outer = scope.values.len();
    let formula = match rng.below(10) {
        0..=2 => {
            let a = tree(rng, depth - 1, scope, true);
            let b = tree(rng, depth - 1, scope, true);
            if !binding {
                scope.values.truncate(outer);
            }
            return HavingFormula::And(Box::new(a), Box::new(b));
        }
        3 => HavingFormula::Or(
            Box::new(tree(rng, depth - 1, scope, false)),
            Box::new(tree(rng, depth - 1, scope, false)),
        ),
        4 => HavingFormula::Not(Box::new(tree(rng, depth - 1, scope, false))),
        5 => {
            let cond = Box::new(tree(rng, depth - 1, scope, true));
            let then = Box::new(tree(rng, depth - 1, scope, false));
            HavingFormula::If { cond, then }
        }
        kind => {
            let outer_states = scope.states.len();
            let state_vars: Vec<String> = (0..1 + rng.below(2))
                .map(|_| rng.pick(&STATE_VARS[..3]).to_string())
                .collect();
            scope.states.extend(state_vars.iter().cloned());
            // FORALL bodies are mostly the safe shape, IF … THEN ….
            let body = if kind >= 8 && !rng.chance(4) {
                let cond = Box::new(tree(rng, depth - 1, scope, true));
                let then = Box::new(tree(rng, depth - 1, scope, false));
                Box::new(HavingFormula::If { cond, then })
            } else {
                Box::new(tree(rng, depth - 1, scope, false))
            };
            scope.states.truncate(outer_states);
            if kind >= 8 {
                HavingFormula::Forall {
                    state_vars,
                    value_vars: vec!["x".into(), "y".into()],
                    body,
                }
            } else {
                HavingFormula::Exists { state_vars, body }
            }
        }
    };
    scope.values.truncate(outer);
    formula
}

// ---- the oracle -------------------------------------------------------------

/// The WHERE answer variables every binding binds: the columns a formula
/// compiles for.
fn answer_vars() -> Vec<String> {
    vec!["c1".to_string(), "c2".to_string()]
}

/// `formula` compiled as registration compiles it, the keys its aggregate
/// atoms read, and `bindings` as rows; `Err` when compilation refuses it.
fn compile(
    formula: &HavingFormula,
    bindings: &[HashMap<String, Term>],
) -> Result<(CompiledHaving, SubjectKeys, Vec<BindingRow>), String> {
    let columns = answer_vars();
    let keys = SubjectKeys::new(formula, bindings, &mapping().subject, Some(ColumnType::Int));
    let compiled = CompiledHaving::compile(formula, &columns, &keys)?;
    let rows = (bindings.iter())
        .map(|b| BindingRow::new(&columns, b, &keys))
        .collect::<Result<_, _>>()?;
    Ok((compiled, keys, rows))
}

/// Compiled and reference agree on `formula` over `seq` for every binding
/// in `bindings`, when compilation accepts it: the reference never fails,
/// and its verdict is the compiled one. Both read the same groups: the
/// reference by subject term, the compiled evaluator by the stream keys
/// registration inverts. Returns whether compilation accepted `formula`.
fn assert_equivalent(
    formula: &HavingFormula,
    seq: &StateSequence,
    bindings: &[HashMap<String, Term>],
    groups: &Groups,
) -> Result<bool, TestCaseError> {
    let Ok((compiled, keys, rows)) = compile(formula, bindings) else {
        return Ok(false);
    };
    let indexed = IndexedSequence::new(seq.clone());
    // As at a tick: the window's groups by key.
    let context = keys.context(groups);
    let aggs = by_term(groups);
    let mut evaluator = compiled.evaluator(&indexed, &context);
    for (binding, row) in bindings.iter().zip(&rows) {
        let env = Env {
            states: HashMap::new(),
            values: binding.clone(),
        };
        let expected = formula.eval_with(seq, &env, Some(&aggs));
        let got = evaluator.holds(row);
        prop_assert!(
            expected == Ok(got),
            "reference {expected:?}, compiled {got:?}\nover {} states under {binding:?}\nfor {formula:#?}",
            seq.len()
        );
    }
    Ok(true)
}

/// One binding per sensor, streamed or not.
fn bindings() -> Vec<HashMap<String, Term>> {
    (0..BOUND)
        .map(|s| {
            HashMap::from([
                ("c2".to_string(), sensor(s)),
                ("c1".to_string(), Term::iri("http://x/assembly/1")),
            ])
        })
        .collect()
}

// Tests live in a module named after the suite so a bare
// `cargo test having_equivalence` filter selects them all.
mod having_equivalence {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases(96)))]

        /// The formulas the product ships and its oracles run, as written,
        /// and aggregates over the subjects a pattern binds: every one
        /// compiles.
        #[test]
        fn catalog_and_program_formulas_agree(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let rows = window_rows(&mut rng);
            let (seq, aggs) = evaluate_window(&rows, rng.pick(tboxes()));
            let formulas = catalog_formulas().iter().chain(shape_formulas());
            for formula in formulas.chain(pattern_bound_formulas()) {
                prop_assert!(assert_equivalent(formula, &seq, &bindings(), &aggs)?);
            }
        }

        /// The same formulas with conjuncts permuted — patterns after the
        /// comparisons that read them (refused), state order after the
        /// patterns — and with a constant for the subject.
        #[test]
        fn permuted_and_constant_subject_formulas_agree(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let rows = window_rows(&mut rng);
            let (seq, aggs) = evaluate_window(&rows, rng.pick(tboxes()));
            for formula in catalog_formulas().iter().chain(shape_formulas()) {
                let shuffled = permuted(formula, &mut rng);
                assert_equivalent(&shuffled, &seq, &bindings(), &aggs)?;
                let subject = sensor(rng.below(BOUND as u64) as i64);
                let constant = with_constant(formula, "c2", &subject);
                prop_assert!(assert_equivalent(&constant, &seq, &bindings()[..1], &aggs)?);
            }
        }

        /// Generated trees over generated sequences, with the window's
        /// aggregates or with none. Registration refuses exactly the trees
        /// drawn with a refusal leaf, naming its culprit.
        #[test]
        fn generated_trees_agree(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let rows = window_rows(&mut rng);
            let (seq, aggs) = evaluate_window(&rows, rng.pick(tboxes()));
            let none = Groups::new();
            for _ in 0..8 {
                let (formula, culprit) = generated(&mut rng);
                let aggs = if rng.chance(4) { &none } else { &aggs };
                match (compile(&formula, &bindings()), culprit) {
                    (Ok(_), None) => {
                        prop_assert!(assert_equivalent(&formula, &seq, &bindings(), aggs)?);
                    }
                    (Err(refusal), Some(culprit)) => prop_assert!(
                        refusal.contains(&culprit),
                        "the refusal {refusal:?} does not name {culprit}\nin {formula:#?}"
                    ),
                    (Ok(_), Some(culprit)) => {
                        prop_assert!(false, "{culprit} accepted in {formula:#?}")
                    }
                    (Err(refusal), None) => {
                        prop_assert!(false, "refused {refusal:?} with no culprit in {formula:#?}")
                    }
                }
            }
        }
    }

    /// The generators reach what the suite says it covers: both verdicts
    /// of accepted formulas, refused formulas, dropped states — and most
    /// generated trees are accepted, in every shape a tree can take.
    #[test]
    fn generators_cover_verdicts_failures_and_dropped_states() {
        let (mut held, mut failed_to_hold, mut refused, mut dropped) = (0, 0, 0, 0);
        let mut shapes: BTreeMap<&str, usize> = BTreeMap::new();
        for seed in 0..64 {
            let mut rng = Rng(seed);
            let rows = window_rows(&mut rng);
            let (strict, _) = build_stdseq(&rows, &schema(), &mapping(), Some(&tboxes()[1]));
            let (lax, groups) = evaluate_window(&rows, &tboxes()[0]);
            let aggs = by_term(&groups);
            dropped += lax.len() - strict.len();
            for _ in 0..8 {
                let (formula, _) = generated(&mut rng);
                if compile(&formula, &bindings()).is_err() {
                    refused += 1;
                    continue;
                }
                count_shapes(&formula, &mut shapes);
                for binding in bindings() {
                    let env = Env {
                        states: HashMap::new(),
                        values: binding,
                    };
                    match formula.eval_with(&lax, &env, Some(&aggs)) {
                        Ok(true) => held += 1,
                        Ok(false) => failed_to_hold += 1,
                        Err(e) => panic!("an accepted formula failed: {e}\n{formula:#?}"),
                    }
                }
            }
        }
        let accepted = 64 * 8 - refused;
        println!(
            "{accepted} of 512 trees accepted, {refused} refused; {held} held, \
             {failed_to_hold} did not, {dropped} states dropped; shapes {shapes:?}"
        );
        assert!(
            held > 100 && failed_to_hold > 100 && refused > 100 && dropped > 10,
            "{held} held, {failed_to_hold} did not, {refused} refused, {dropped} states dropped"
        );
        // A generator that draws unbound reads, unquantified states and
        // non-numeric thresholds anywhere gets 107 of 512 trees accepted;
        // an aimed one must compare at least three times as many.
        assert!(accepted >= 3 * 107, "{accepted} of 512 trees accepted");
        let every_shape = [
            "True",
            "Graph",
            "Cmp",
            "StateLess",
            "Agg",
            "And",
            "Or",
            "Not",
            "If",
            "Exists",
            "Forall",
        ];
        for shape in every_shape {
            assert!(
                shapes.get(shape) > Some(&0),
                "no accepted tree holds {shape}"
            );
        }
    }

    /// Tallies the node kinds of `formula`.
    fn count_shapes(formula: &HavingFormula, shapes: &mut BTreeMap<&'static str, usize>) {
        let (shape, children): (&str, Vec<&HavingFormula>) = match formula {
            HavingFormula::True => ("True", vec![]),
            HavingFormula::Graph { .. } => ("Graph", vec![]),
            HavingFormula::Cmp { .. } => ("Cmp", vec![]),
            HavingFormula::StateLess { .. } => ("StateLess", vec![]),
            HavingFormula::Agg { .. } => ("Agg", vec![]),
            HavingFormula::And(a, b) => ("And", vec![a, b]),
            HavingFormula::Or(a, b) => ("Or", vec![a, b]),
            HavingFormula::Not(a) => ("Not", vec![a]),
            HavingFormula::If { cond, then } => ("If", vec![cond, then]),
            HavingFormula::Exists { body, .. } => ("Exists", vec![body]),
            HavingFormula::Forall { body, .. } => ("Forall", vec![body]),
        };
        *shapes.entry(shape).or_default() += 1;
        for child in children {
            count_shapes(child, shapes);
        }
    }
}

//! The reference HAVING interpreter: the evaluator `optique_starql::having`
//! ran before HAVING was compiled, moved here unedited as the oracle the
//! compiled evaluator is compared against (`having_equivalence.rs`). It
//! interprets the [`HavingFormula`] AST per binding, per state tuple, per
//! pattern — building a `ConjunctiveQuery` for every `GRAPH` leaf — which is
//! why it is the reference and no longer the product. Two changes: a
//! foreign crate cannot add inherent methods to `HavingFormula`, so they
//! hang off the [`Reference`] trait; and the per-subject aggregate context
//! it reads, keyed by subject term, is defined here — the product's is
//! keyed by raw stream key. Its comparison follows the product's: a number
//! never orders against a non-number.

use std::collections::{BTreeMap, HashMap};

use optique_rdf::Term;
use optique_relational::AggAcc;
use optique_rewrite::{Atom, ConjunctiveQuery, QueryTerm};
use optique_starql::having::{AggFunc, CmpOp, HavingFormula};
use optique_starql::sequence::StateSequence;

/// Per-subject window aggregates for one tick: the group key is the minted
/// subject term (one group per sensor), the value the combined accumulator
/// over the window's tuples.
pub type AggContext = BTreeMap<Term, AggAcc>;

/// The interpreter's entry points (all that moved, whether or not the suite
/// calls each).
#[allow(dead_code)]
pub trait Reference {
    /// See the implementation.
    fn eval(&self, seq: &StateSequence, env: &Env) -> Result<bool, String>;
    /// See the implementation.
    fn eval_with(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<bool, String>;
    /// See the implementation.
    fn satisfying_assignments(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<Vec<Env>, String>;
}

/// Evaluation environment: state variables → state indices, value
/// variables → RDF terms.
#[derive(Clone, Debug, Default)]
pub struct Env {
    /// State-variable bindings.
    pub states: HashMap<String, usize>,
    /// Value-variable bindings.
    pub values: HashMap<String, Term>,
}

impl Reference for HavingFormula {
    /// Evaluates the formula over a state sequence under an environment
    /// binding its free variables. Formulas containing [`HavingFormula::Agg`]
    /// atoms need [`Reference::eval_with`] and an aggregate context.
    fn eval(&self, seq: &StateSequence, env: &Env) -> Result<bool, String> {
        self.eval_with(seq, env, None)
    }

    /// Evaluates the formula, additionally supplying the tick's per-subject
    /// window aggregates for [`HavingFormula::Agg`] atoms.
    fn eval_with(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<bool, String> {
        match self {
            HavingFormula::True => Ok(true),
            HavingFormula::Exists { state_vars, body } => {
                let n = seq.states.len();
                let mut env = env.clone();
                exists_rec(state_vars, 0, n, &mut env, |e| body.eval_with(seq, e, aggs))
            }
            HavingFormula::Forall {
                state_vars,
                value_vars: _,
                body,
            } => {
                // Enumerate all state assignments; the body (typically an
                // IF) handles value-variable range restriction.
                let n = seq.states.len();
                let mut env = env.clone();
                forall_rec(state_vars, 0, n, &mut env, |e| body.eval_with(seq, e, aggs))
            }
            HavingFormula::If { cond, then } => {
                // For every satisfying extension of the antecedent, the
                // consequent must hold.
                for extended in cond.satisfying_assignments(seq, env, aggs)? {
                    if !then.eval_with(seq, &extended, aggs)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            HavingFormula::And(..) => {
                // Conjunctions evaluate existentially over the bindings their
                // graph patterns produce: `GRAPH ?k {?s :v ?x} AND ?x >= 95`
                // holds when SOME match of the pattern satisfies the
                // comparison. Non-binding conjuncts act as boolean filters.
                Ok(!self.satisfying_assignments(seq, env, aggs)?.is_empty())
            }
            HavingFormula::Or(a, b) => {
                Ok(a.eval_with(seq, env, aggs)? || b.eval_with(seq, env, aggs)?)
            }
            HavingFormula::Not(a) => Ok(!a.eval_with(seq, env, aggs)?),
            HavingFormula::StateLess { left, right } => {
                let r = lookup_state(env, right)?;
                for l in left {
                    if lookup_state(env, l)? >= r {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            HavingFormula::Graph { state, atoms } => {
                let idx = lookup_state(env, state)?;
                let graph = &seq
                    .states
                    .get(idx)
                    .ok_or_else(|| format!("state index {idx} out of range"))?
                    .graph;
                let cq = pattern_query(atoms, env, &[]);
                Ok(!cq.evaluate(graph).is_empty())
            }
            HavingFormula::Cmp { left, op, right } => {
                let l = lookup_value(env, left)?;
                let r = lookup_value(env, right)?;
                Ok(compare_terms(&l, *op, &r))
            }
            HavingFormula::Agg {
                func,
                subject,
                property: _,
                op,
                threshold,
            } => {
                let Some(ctx) = aggs else {
                    return Err(
                        "aggregate atom requires a windowed aggregate context (eval_with)".into(),
                    );
                };
                let subj = lookup_value(env, subject)?;
                let threshold = match lookup_value(env, threshold)? {
                    Term::Literal(lit) => lit
                        .as_f64()
                        .ok_or_else(|| format!("aggregate threshold {lit:?} is not numeric"))?,
                    other => return Err(format!("aggregate threshold {other:?} is not a literal")),
                };
                let acc = ctx.get(&subj);
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
                Ok(value.is_some_and(|v| op.test(v.total_cmp(&threshold))))
            }
        }
    }

    /// Enumerates the environments extending `env` that satisfy this
    /// formula — defined for the conjunctive fragment (AND / Graph /
    /// StateLess / Cmp); other connectives act as boolean filters.
    fn satisfying_assignments(
        &self,
        seq: &StateSequence,
        env: &Env,
        aggs: Option<&AggContext>,
    ) -> Result<Vec<Env>, String> {
        match self {
            HavingFormula::And(a, b) => {
                let mut out = Vec::new();
                for e in a.satisfying_assignments(seq, env, aggs)? {
                    out.extend(b.satisfying_assignments(seq, &e, aggs)?);
                }
                Ok(out)
            }
            HavingFormula::Graph { state, atoms } => {
                let idx = lookup_state(env, state)?;
                let graph = &seq
                    .states
                    .get(idx)
                    .ok_or_else(|| format!("state index {idx} out of range"))?
                    .graph;
                // Free variables of the pattern become answer variables.
                let free = free_value_vars(atoms, env);
                let cq = pattern_query(atoms, env, &free);
                let mut out = Vec::new();
                for tuple in cq.evaluate(graph) {
                    let mut extended = env.clone();
                    for (var, term) in free.iter().zip(tuple) {
                        extended.values.insert(var.clone(), term);
                    }
                    out.push(extended);
                }
                Ok(out)
            }
            other => {
                if other.eval_with(seq, env, aggs)? {
                    Ok(vec![env.clone()])
                } else {
                    Ok(vec![])
                }
            }
        }
    }
}

fn exists_rec(
    vars: &[String],
    i: usize,
    n: usize,
    env: &mut Env,
    check: impl Fn(&Env) -> Result<bool, String> + Copy,
) -> Result<bool, String> {
    if i == vars.len() {
        return check(env);
    }
    for s in 0..n {
        env.states.insert(vars[i].clone(), s);
        if exists_rec(vars, i + 1, n, env, check)? {
            env.states.remove(&vars[i]);
            return Ok(true);
        }
    }
    env.states.remove(&vars[i]);
    Ok(false)
}

fn forall_rec(
    vars: &[String],
    i: usize,
    n: usize,
    env: &mut Env,
    check: impl Fn(&Env) -> Result<bool, String> + Copy,
) -> Result<bool, String> {
    if i == vars.len() {
        return check(env);
    }
    for s in 0..n {
        env.states.insert(vars[i].clone(), s);
        if !forall_rec(vars, i + 1, n, env, check)? {
            env.states.remove(&vars[i]);
            return Ok(false);
        }
    }
    env.states.remove(&vars[i]);
    Ok(true)
}

fn lookup_state(env: &Env, var: &str) -> Result<usize, String> {
    env.states
        .get(var)
        .copied()
        .ok_or_else(|| format!("unbound state variable ?{var}"))
}

fn lookup_value(env: &Env, term: &QueryTerm) -> Result<Term, String> {
    match term {
        QueryTerm::Const(c) => Ok(c.clone()),
        QueryTerm::Var(v) => env
            .values
            .get(v)
            .cloned()
            .ok_or_else(|| format!("unbound value variable ?{v}")),
    }
}

/// Whether `a op b` holds: numerically when both terms are numeric
/// literals, by term order when neither is. A number never orders against
/// a non-number — `<`, `<=`, `>` and `>=` between them are false, as a
/// SPARQL type error would be — and equals it never.
fn compare_terms(a: &Term, op: CmpOp, b: &Term) -> bool {
    let number = |t: &Term| match t {
        Term::Literal(lit) => lit.as_f64(),
        _ => None,
    };
    match (number(a), number(b)) {
        (Some(x), Some(y)) => op.test(x.total_cmp(&y)),
        (None, None) => op.test(a.cmp(b)),
        _ => op == CmpOp::Ne,
    }
}

/// Builds a CQ from pattern atoms, substituting env-bound variables by
/// constants; `answer_vars` selects which free variables to report.
fn pattern_query(atoms: &[Atom], env: &Env, answer_vars: &[String]) -> ConjunctiveQuery {
    let substitute = |t: &QueryTerm| -> QueryTerm {
        match t {
            QueryTerm::Var(v) => match env.values.get(v) {
                Some(term) => QueryTerm::Const(term.clone()),
                None => t.clone(),
            },
            QueryTerm::Const(_) => t.clone(),
        }
    };
    let atoms = atoms
        .iter()
        .map(|a| match a {
            Atom::Class { class, arg } => Atom::Class {
                class: class.clone(),
                arg: substitute(arg),
            },
            Atom::Property {
                property,
                subject,
                object,
            } => Atom::Property {
                property: property.clone(),
                subject: substitute(subject),
                object: substitute(object),
            },
        })
        .collect();
    ConjunctiveQuery::new(answer_vars.to_vec(), atoms)
}

/// Variables of the pattern not bound in the environment, in first-seen
/// order.
fn free_value_vars(atoms: &[Atom], env: &Env) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for atom in atoms {
        for term in atom.terms() {
            if let QueryTerm::Var(v) = term {
                if !env.values.contains_key(v) && !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
    }
    out
}

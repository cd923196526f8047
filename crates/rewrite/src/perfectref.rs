//! PerfectRef-style rewriting (Calvanese et al., the Ontop/Mastro lineage the
//! paper cites as the static-OBDA baseline) plus redundancy elimination.
//!
//! The algorithm alternates two steps until a fixpoint:
//!
//! 1. **Atom rewriting** — for every query in the frontier, every atom, and
//!    every applicable TBox inclusion, replace the atom by the axiom's
//!    left-hand side.
//! 2. **Reduction** — unify pairs of unifiable atoms; unification can turn a
//!    bound variable unbound, enabling further atom rewritings.
//!
//! The result is a UCQ equivalent (w.r.t. certain answers) to the input over
//! any data source. Subsumption-based pruning keeps the union small: a
//! disjunct is dropped when a homomorphism from another disjunct into it
//! fixes the answer variables.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::Instant;

use optique_ontology::{BasicConcept, Ontology, Role};

use crate::query::{Atom, ConjunctiveQuery, QueryTerm, UnionQuery};

/// Rewriter limits.
#[derive(Clone, Copy, Debug)]
pub struct RewriteSettings {
    /// Safety valve on the number of produced disjuncts. The theoretical
    /// bound is polynomial in the TBox for a fixed query, but adversarial
    /// inputs in tests deserve a crisp error instead of an OOM.
    pub max_disjuncts: usize,
}

impl Default for RewriteSettings {
    fn default() -> Self {
        RewriteSettings {
            max_disjuncts: 100_000,
        }
    }
}

/// Observability record for one enrichment run (feeds the E4 bench tables).
#[derive(Clone, Debug)]
pub struct RewriteStats {
    /// Disjuncts produced before redundancy elimination.
    pub generated: usize,
    /// Disjuncts surviving redundancy elimination.
    pub retained: usize,
    /// Fixpoint iterations of the rewrite/reduce loop.
    pub iterations: usize,
    /// Wall-clock duration of the run.
    pub elapsed: std::time::Duration,
}

/// Errors from rewriting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The disjunct budget in [`RewriteSettings::max_disjuncts`] was hit.
    TooManyDisjuncts(usize),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::TooManyDisjuncts(n) => {
                write!(f, "rewriting exceeded the disjunct budget of {n}")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// Rewrites `query` with respect to `ontology`, returning the enriched UCQ
/// and run statistics.
pub fn rewrite(
    query: &ConjunctiveQuery,
    ontology: &Ontology,
    settings: &RewriteSettings,
) -> Result<(UnionQuery, RewriteStats), RewriteError> {
    let start = Instant::now();
    let mut seen: HashSet<String> = HashSet::new();
    let mut output: Vec<ConjunctiveQuery> = Vec::new();
    let mut frontier: VecDeque<ConjunctiveQuery> = VecDeque::new();
    let mut fresh_counter = 0usize;
    let mut iterations = 0usize;

    seen.insert(query.canonical_key());
    output.push(query.clone());
    frontier.push_back(query.clone());

    while let Some(current) = frontier.pop_front() {
        iterations += 1;
        let mut candidates: Vec<ConjunctiveQuery> = Vec::new();

        // Step (a): atom rewriting by applicable inclusion axioms.
        for (idx, atom) in current.atoms.iter().enumerate() {
            for replacement in applicable_rewritings(atom, &current, ontology, &mut fresh_counter) {
                let mut atoms = current.atoms.clone();
                atoms[idx] = replacement;
                candidates.push(dedup_atoms(ConjunctiveQuery {
                    answer_vars: current.answer_vars.clone(),
                    atoms,
                }));
            }
        }

        // Step (b): reduction — unify pairs of atoms.
        for i in 0..current.atoms.len() {
            for j in (i + 1)..current.atoms.len() {
                if let Some(subst) = unify(&current.atoms[i], &current.atoms[j], &current) {
                    candidates.push(current.substitute(&subst));
                }
            }
        }

        for cand in candidates {
            let key = cand.canonical_key();
            if seen.insert(key) {
                if output.len() >= settings.max_disjuncts {
                    return Err(RewriteError::TooManyDisjuncts(settings.max_disjuncts));
                }
                output.push(cand.clone());
                frontier.push_back(cand);
            }
        }
    }

    let generated = output.len();
    let retained_queries = eliminate_subsumed(output);
    let stats = RewriteStats {
        generated,
        retained: retained_queries.len(),
        iterations,
        elapsed: start.elapsed(),
    };
    Ok((
        UnionQuery {
            disjuncts: retained_queries,
        },
        stats,
    ))
}

fn dedup_atoms(mut cq: ConjunctiveQuery) -> ConjunctiveQuery {
    let mut seen = HashSet::new();
    cq.atoms.retain(|a| seen.insert(a.clone()));
    cq
}

/// All single-atom rewritings licensed by the TBox for `atom` within `cq`.
fn applicable_rewritings(
    atom: &Atom,
    cq: &ConjunctiveQuery,
    ontology: &Ontology,
    fresh: &mut usize,
) -> Vec<Atom> {
    let mut out = Vec::new();
    match atom {
        Atom::Class { class, arg } => {
            let target = BasicConcept::Atomic(class.clone());
            for sub in ontology.direct_sub_concepts(&target) {
                out.push(concept_to_atom(sub, arg.clone(), fresh));
            }
        }
        Atom::Property {
            property,
            subject,
            object,
        } => {
            // Role inclusions apply unconditionally.
            let named = Role::Named(property.clone());
            for sub in ontology.direct_sub_roles(&named) {
                out.push(match sub {
                    Role::Named(p) => Atom::property(p.clone(), subject.clone(), object.clone()),
                    Role::Inverse(p) => Atom::property(p.clone(), object.clone(), subject.clone()),
                });
            }
            // Concept inclusions into ∃P apply when the object is unbound…
            if !cq.is_bound(object) {
                let target = BasicConcept::Exists(named.clone());
                for sub in ontology.direct_sub_concepts(&target) {
                    out.push(concept_to_atom(sub, subject.clone(), fresh));
                }
            }
            // …and into ∃P⁻ when the subject is unbound.
            if !cq.is_bound(subject) {
                let target = BasicConcept::Exists(named.inverse());
                for sub in ontology.direct_sub_concepts(&target) {
                    out.push(concept_to_atom(sub, object.clone(), fresh));
                }
            }
        }
    }
    out
}

/// Materialises a basic concept as an atom about `arg`, minting a fresh
/// non-shared variable for the existential partner position.
fn concept_to_atom(concept: &BasicConcept, arg: QueryTerm, fresh: &mut usize) -> Atom {
    match concept {
        BasicConcept::Atomic(class) => Atom::class(class.clone(), arg),
        BasicConcept::Exists(Role::Named(p)) => {
            *fresh += 1;
            Atom::property(p.clone(), arg, QueryTerm::var(format!("_u{fresh}")))
        }
        BasicConcept::Exists(Role::Inverse(p)) => {
            *fresh += 1;
            Atom::property(p.clone(), QueryTerm::var(format!("_u{fresh}")), arg)
        }
    }
}

/// Most-general unifier of two atoms within `cq`, as a variable substitution.
/// Constants are rigid; distinguished variables may only be unified with
/// terms, never renamed away (we orient every pair so the kept side is the
/// distinguished or constant one).
fn unify(a: &Atom, b: &Atom, cq: &ConjunctiveQuery) -> Option<HashMap<String, QueryTerm>> {
    let pairs: Vec<(QueryTerm, QueryTerm)> = match (a, b) {
        (Atom::Class { class: c1, arg: x1 }, Atom::Class { class: c2, arg: x2 }) => {
            if c1 != c2 {
                return None;
            }
            vec![(x1.clone(), x2.clone())]
        }
        (
            Atom::Property {
                property: p1,
                subject: s1,
                object: o1,
            },
            Atom::Property {
                property: p2,
                subject: s2,
                object: o2,
            },
        ) => {
            if p1 != p2 {
                return None;
            }
            vec![(s1.clone(), s2.clone()), (o1.clone(), o2.clone())]
        }
        _ => return None,
    };

    let mut subst: HashMap<String, QueryTerm> = HashMap::new();
    let resolve = |t: &QueryTerm, subst: &HashMap<String, QueryTerm>| -> QueryTerm {
        let mut cur = t.clone();
        while let QueryTerm::Var(v) = &cur {
            match subst.get(v) {
                Some(next) if next != &cur => cur = next.clone(),
                _ => break,
            }
        }
        cur
    };
    for (l, r) in pairs {
        let l = resolve(&l, &subst);
        let r = resolve(&r, &subst);
        if l == r {
            continue;
        }
        let is_answer = |t: &QueryTerm| {
            t.as_var()
                .is_some_and(|v| cq.answer_vars.iter().any(|a| a == v))
        };
        match (&l, &r) {
            (QueryTerm::Const(_), QueryTerm::Const(_)) => return None,
            (QueryTerm::Var(v), _) if !is_answer(&l) => {
                subst.insert(v.clone(), r);
            }
            (_, QueryTerm::Var(v)) if !is_answer(&r) => {
                subst.insert(v.clone(), l);
            }
            // Both remaining positions are answer variables (or an answer
            // variable against a constant). Substituting would remove an
            // answer variable from the body, making it unbound in the
            // reduced query — unsound. Skip this reduction; the original
            // disjunct already covers these answers.
            _ => return None,
        }
    }
    if subst.is_empty() {
        None
    } else {
        Some(subst)
    }
}

/// Drops disjuncts subsumed by a more general disjunct: `q` subsumes `q'`
/// when a homomorphism maps `q`'s atoms into `q'`'s fixing answer variables.
fn eliminate_subsumed(queries: Vec<ConjunctiveQuery>) -> Vec<ConjunctiveQuery> {
    let mut keep: Vec<bool> = vec![true; queries.len()];
    for i in 0..queries.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..queries.len() {
            if i == j || !keep[j] {
                continue;
            }
            // Prefer keeping the smaller query; on ties keep the earlier one.
            let (small, large, large_idx) = if queries[i].atoms.len() <= queries[j].atoms.len() {
                (&queries[i], &queries[j], j)
            } else {
                (&queries[j], &queries[i], i)
            };
            if large_idx == i && !keep[j] {
                continue;
            }
            if subsumes(small, large) {
                keep[large_idx] = false;
                if large_idx == i {
                    break;
                }
            }
        }
    }
    queries
        .into_iter()
        .zip(keep)
        .filter_map(|(q, k)| k.then_some(q))
        .collect()
}

/// Homomorphism check: does `general` map into `specific` fixing answer vars?
fn subsumes(general: &ConjunctiveQuery, specific: &ConjunctiveQuery) -> bool {
    if general.answer_vars != specific.answer_vars {
        return false;
    }
    let mut mapping: BTreeMap<String, QueryTerm> = BTreeMap::new();
    for v in &general.answer_vars {
        mapping.insert(v.clone(), QueryTerm::var(v.clone()));
    }
    hom_search(general, specific, 0, &mut mapping)
}

fn hom_search(
    general: &ConjunctiveQuery,
    specific: &ConjunctiveQuery,
    idx: usize,
    mapping: &mut BTreeMap<String, QueryTerm>,
) -> bool {
    if idx == general.atoms.len() {
        return true;
    }
    let atom = &general.atoms[idx];
    for target in &specific.atoms {
        let pairs: Vec<(&QueryTerm, &QueryTerm)> = match (atom, target) {
            (Atom::Class { class: c1, arg: a1 }, Atom::Class { class: c2, arg: a2 })
                if c1 == c2 =>
            {
                vec![(a1, a2)]
            }
            (
                Atom::Property {
                    property: p1,
                    subject: s1,
                    object: o1,
                },
                Atom::Property {
                    property: p2,
                    subject: s2,
                    object: o2,
                },
            ) if p1 == p2 => vec![(s1, s2), (o1, o2)],
            _ => continue,
        };
        let mut added: Vec<String> = Vec::new();
        let mut ok = true;
        for (from, to) in pairs {
            match from {
                QueryTerm::Const(_) => {
                    if from != to {
                        ok = false;
                        break;
                    }
                }
                QueryTerm::Var(v) => match mapping.get(v) {
                    Some(existing) if existing != to => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        mapping.insert(v.clone(), to.clone());
                        added.push(v.clone());
                    }
                },
            }
        }
        if ok && hom_search(general, specific, idx + 1, mapping) {
            return true;
        }
        for v in added {
            mapping.remove(&v);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_ontology::Axiom;
    use optique_rdf::Iri;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn atomic(s: &str) -> BasicConcept {
        BasicConcept::atomic(iri(s))
    }

    fn settings() -> RewriteSettings {
        RewriteSettings::default()
    }

    #[test]
    fn class_hierarchy_expands() {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::subclass(atomic("TempSensor"), atomic("Sensor")));
        o.add_axiom(Axiom::subclass(atomic("PressureSensor"), atomic("Sensor")));
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("Sensor"), QueryTerm::var("x"))],
        );
        let (ucq, stats) = rewrite(&q, &o, &settings()).unwrap();
        assert_eq!(ucq.len(), 3, "original + two subclasses");
        assert_eq!(stats.retained, 3);
    }

    #[test]
    fn domain_axiom_rewrites_class_to_role() {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::domain(iri("inAssembly"), atomic("Sensor")));
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("Sensor"), QueryTerm::var("x"))],
        );
        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        assert_eq!(ucq.len(), 2);
        let has_role = ucq.disjuncts.iter().any(|cq| {
            cq.atoms.iter().any(
                |a| matches!(a, Atom::Property { property, .. } if property == &iri("inAssembly")),
            )
        });
        assert!(has_role);
    }

    #[test]
    fn mandatory_participation_rewrites_role_to_class() {
        // A ⊑ ∃p: query p(x, y) with y unbound rewrites to A(x).
        let mut o = Ontology::new();
        o.add_axiom(Axiom::SubClass {
            sub: atomic("A"),
            sup: BasicConcept::exists(iri("p")),
        });
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::property(
                iri("p"),
                QueryTerm::var("x"),
                QueryTerm::var("y"),
            )],
        );
        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        assert!(ucq.disjuncts.iter().any(|cq| cq
            .atoms
            .contains(&Atom::class(iri("A"), QueryTerm::var("x")))));
    }

    #[test]
    fn bound_object_blocks_concept_rewriting() {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::SubClass {
            sub: atomic("A"),
            sup: BasicConcept::exists(iri("p")),
        });
        // y is distinguished, so p(x, y) may NOT be rewritten to A(x).
        let q = ConjunctiveQuery::new(
            vec!["x".into(), "y".into()],
            vec![Atom::property(
                iri("p"),
                QueryTerm::var("x"),
                QueryTerm::var("y"),
            )],
        );
        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        assert_eq!(ucq.len(), 1, "no rewriting applicable");
    }

    #[test]
    fn role_hierarchy_expands() {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::subrole(
            Role::named(iri("partOf")),
            Role::named(iri("locatedIn")),
        ));
        let q = ConjunctiveQuery::new(
            vec!["x".into(), "y".into()],
            vec![Atom::property(
                iri("locatedIn"),
                QueryTerm::var("x"),
                QueryTerm::var("y"),
            )],
        );
        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        assert_eq!(ucq.len(), 2);
    }

    #[test]
    fn inverse_role_inclusion_swaps_positions() {
        let mut o = Ontology::new();
        for ax in Axiom::inverse_properties(iri("hasPart"), iri("partOf")) {
            o.add_axiom(ax);
        }
        let q = ConjunctiveQuery::new(
            vec!["x".into(), "y".into()],
            vec![Atom::property(
                iri("hasPart"),
                QueryTerm::var("x"),
                QueryTerm::var("y"),
            )],
        );
        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        assert!(ucq
            .disjuncts
            .iter()
            .any(|cq| cq.atoms.contains(&Atom::property(
                iri("partOf"),
                QueryTerm::var("y"),
                QueryTerm::var("x")
            ))));
    }

    #[test]
    fn reduction_enables_further_rewriting() {
        // Classic PerfectRef example: q(x) ← p(x,y) ∧ p(z,y) — reduce unifies
        // the two atoms (making y unbound), then A ⊑ ∃p applies.
        let mut o = Ontology::new();
        o.add_axiom(Axiom::SubClass {
            sub: atomic("A"),
            sup: BasicConcept::exists(iri("p")),
        });
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![
                Atom::property(iri("p"), QueryTerm::var("x"), QueryTerm::var("y")),
                Atom::property(iri("p"), QueryTerm::var("z"), QueryTerm::var("y")),
            ],
        );
        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        assert!(ucq.disjuncts.iter().any(|cq| cq
            .atoms
            .contains(&Atom::class(iri("A"), QueryTerm::var("x")))));
    }

    #[test]
    fn subsumption_elimination_prunes() {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::subclass(atomic("B"), atomic("A")));
        // q(x) ← A(x) ∧ B(x): rewriting A→B yields q(x) ← B(x), which
        // subsumes the original (hom B(x)→B(x)).
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![
                Atom::class(iri("A"), QueryTerm::var("x")),
                Atom::class(iri("B"), QueryTerm::var("x")),
            ],
        );
        let (ucq, stats) = rewrite(&q, &o, &settings()).unwrap();
        assert!(stats.retained < stats.generated);
        assert_eq!(ucq.len(), stats.retained);
        assert!(ucq.disjuncts.iter().any(|cq| cq.atoms.len() == 1));
    }

    #[test]
    fn transitive_hierarchy_fully_expands() {
        let mut o = Ontology::new();
        o.add_axiom(Axiom::subclass(atomic("C"), atomic("B")));
        o.add_axiom(Axiom::subclass(atomic("B"), atomic("A")));
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("A"), QueryTerm::var("x"))],
        );
        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        assert_eq!(ucq.len(), 3);
    }

    #[test]
    fn empty_tbox_is_identity() {
        let o = Ontology::new();
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("A"), QueryTerm::var("x"))],
        );
        let (ucq, stats) = rewrite(&q, &o, &settings()).unwrap();
        assert_eq!(ucq.len(), 1);
        assert_eq!(stats.generated, 1);
    }

    #[test]
    fn disjunct_budget_enforced() {
        let mut o = Ontology::new();
        for i in 0..50 {
            o.add_axiom(Axiom::subclass(atomic(&format!("S{i}")), atomic("A")));
        }
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("A"), QueryTerm::var("x"))],
        );
        let err = rewrite(&q, &o, &RewriteSettings { max_disjuncts: 10 }).unwrap_err();
        assert_eq!(err, RewriteError::TooManyDisjuncts(10));
    }

    /// End-to-end soundness/completeness vs the materialization oracle.
    #[test]
    fn rewriting_agrees_with_materialization() {
        use optique_ontology::materialize::materialize;
        use optique_rdf::{Graph, Term, Triple};

        let mut o = Ontology::new();
        o.add_axiom(Axiom::subclass(atomic("TempSensor"), atomic("Sensor")));
        o.add_axiom(Axiom::domain(iri("inAssembly"), atomic("Sensor")));
        o.add_axiom(Axiom::range(iri("inAssembly"), atomic("Assembly")));
        o.add_axiom(Axiom::subrole(
            Role::named(iri("partOf")),
            Role::named(iri("locatedIn")),
        ));

        let mut g = Graph::new();
        g.insert(Triple::class_assertion(
            Term::iri("http://x/s1"),
            iri("TempSensor"),
        ));
        g.insert(Triple::new(
            Term::iri("http://x/s2"),
            iri("inAssembly"),
            Term::iri("http://x/a1"),
        ));
        g.insert(Triple::new(
            Term::iri("http://x/a1"),
            iri("partOf"),
            Term::iri("http://x/t1"),
        ));

        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![Atom::class(iri("Sensor"), QueryTerm::var("x"))],
        );

        let (ucq, _) = rewrite(&q, &o, &settings()).unwrap();
        let rewritten_answers = ucq.evaluate(&g);

        let mut mat = g.clone();
        materialize(&mut mat, &o, 2);
        let oracle_answers = q.evaluate(&mat);

        assert_eq!(rewritten_answers, oracle_answers);
        assert_eq!(rewritten_answers.len(), 2, "s1 via subclass, s2 via domain");
    }
}

//! Statistics-driven planning for the residual algebra.
//!
//! Post-unfolding, a query is a tree of solution-set joins around the BGPs
//! (`OPTIONAL` / `UNION` branches, nested groups). The paper line this repo
//! reproduces (Hovland et al.'s *OBDA Constraints for Effective Query
//! Answering*, the Analytics-Aware OBDA extension) shows that exploiting
//! backend statistics is what keeps unfolded queries tractable. This module
//! supplies the two planning levers [`crate::compile`] pulls:
//!
//! * **join ordering** — [`greedy_order`] picks a
//!   smallest-estimated-cardinality-first order over the inner-joinable
//!   operands of a group, preferring operands connected (by shared
//!   variables) to what is already joined, so cross products come last;
//!   estimates come from a [`CardinalityModel`] over the mapping catalog,
//!   the ontology taxonomy and a [`StatsCatalog`] snapshot;
//! * **semi-join pushdown** — a [`Restriction`] captures the bound-variable
//!   value lists of an already-materialized solution set; sibling BGPs
//!   execute with those lists attached as `IN`-list predicates
//!   ([`optique_relational::SemiJoin`]), so fragments return only
//!   join-compatible rows.
//!
//! Everything here is advisory: a bad estimate can only produce a slower
//! plan, never a different answer — the differential plan-equivalence suite
//! (`tests/planner_equivalence.rs`) pins optimized answers to naive ones.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
use optique_ontology::{BasicConcept, Ontology, Role};
use optique_rdf::Term;
use optique_relational::parser::TableRef;
use optique_relational::StatsCatalog;
use optique_rewrite::{Atom, QueryTerm};

use crate::algebra::{GroupPattern, PatternElement};
use crate::eval::SolutionSet;

/// Planner knobs. The default enables everything; [`Self::disabled`] is the
/// naive baseline the differential oracle compares against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannerSettings {
    /// Reorder inner-joinable group operands smallest-estimate-first
    /// (connected-subgraph preference). Off = textual order, exactly the
    /// pre-planner pipeline.
    pub reorder_joins: bool,
    /// Push bound-variable value lists of materialized solution sets into
    /// sibling BGP executions as `IN`-list predicates.
    pub semi_join_pushdown: bool,
    /// Per-variable cap on pushed values; larger bound sets are not pushed
    /// (an `IN` list past this size costs more than it prunes).
    pub max_in_list: usize,
}

impl Default for PlannerSettings {
    fn default() -> Self {
        PlannerSettings {
            reorder_joins: true,
            semi_join_pushdown: true,
            max_in_list: 256,
        }
    }
}

impl PlannerSettings {
    /// The naive baseline: textual join order, no pushdown.
    pub fn disabled() -> Self {
        PlannerSettings {
            reorder_joins: false,
            semi_join_pushdown: false,
            max_in_list: 0,
        }
    }
}

// ---- restrictions ------------------------------------------------------

/// Bound-variable value lists learned from a materialized solution set:
/// for each entry `(var, values)`, any solution joining with that set must
/// bind `var` to one of `values` (or leave it unbound). Values are sorted
/// and deduplicated, so equal restrictions have equal fingerprints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Restriction {
    entries: Vec<(String, Vec<Term>)>,
}

impl Restriction {
    /// The unrestricted context.
    pub fn empty() -> Self {
        Restriction::default()
    }

    /// True when nothing is restricted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The restricted variables and their value lists.
    pub fn entries(&self) -> &[(String, Vec<Term>)] {
        &self.entries
    }

    /// Derives a restriction from `solutions`: one entry per variable that
    /// is bound in **every** row (a row with the variable unbound joins
    /// with anything, so such a variable must not be restricted) with at
    /// most `max_values` distinct values.
    pub fn from_solutions(solutions: &SolutionSet, max_values: usize) -> Restriction {
        let mut entries = Vec::new();
        if max_values == 0 || solutions.rows.is_empty() {
            return Restriction { entries };
        }
        for (idx, var) in solutions.vars.iter().enumerate() {
            let mut values: BTreeSet<&Term> = BTreeSet::new();
            let mut fully_bound = true;
            for row in &solutions.rows {
                match &row[idx] {
                    Some(term) => {
                        values.insert(term);
                        if values.len() > max_values {
                            break;
                        }
                    }
                    None => {
                        fully_bound = false;
                        break;
                    }
                }
            }
            if fully_bound && values.len() <= max_values {
                entries.push((var.clone(), values.into_iter().cloned().collect()));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Restriction { entries }
    }

    /// Combines an outer-context restriction with this one. Variables
    /// restricted by both intersect (a joining value must satisfy both
    /// contexts); others union.
    pub fn merged(&self, inner: Restriction) -> Restriction {
        let mut entries = inner.entries;
        for (var, outer_values) in &self.entries {
            match entries.iter_mut().find(|(v, _)| v == var) {
                Some((_, values)) => {
                    values.retain(|t| outer_values.binary_search(t).is_ok());
                }
                None => entries.push((var.clone(), outer_values.clone())),
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Restriction { entries }
    }

    /// Keeps only the entries for `vars` (the variables a BGP can actually
    /// use).
    pub fn restrict_to(&self, vars: &[String]) -> Restriction {
        Restriction {
            entries: self
                .entries
                .iter()
                .filter(|(v, _)| vars.iter().any(|w| w == v))
                .cloned()
                .collect(),
        }
    }

    /// A deterministic fingerprint (entries are kept sorted), used to key
    /// restricted executions in the BGP cache.
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.entries)
    }
}

// ---- cardinality estimation --------------------------------------------

/// Fallback row estimate for sources with no statistics.
const DEFAULT_ROWS: f64 = 1_000.0;
/// Estimated selectivity of one WHERE conjunct in a mapping's source SQL.
const WHERE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Fallback equality selectivity for constants with no column statistics.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Damping divisor per repeated variable occurrence inside one BGP (a
/// coarse stand-in for `1 / distinct(join key)` when the key's provenance
/// is unknown).
const JOIN_DAMPING: f64 = 10.0;

/// Estimates BGP / group cardinalities from the mapping catalog, the
/// ontology taxonomy (a class atom reaches every mapped subclass after
/// PerfectRef) and a [`StatsCatalog`] snapshot of the sources.
///
/// Construct one per query and reuse it: atom estimates (taxonomy-closure
/// walks) are memoized per model, so repeated estimation of the same BGP —
/// ordering in one batch, counter accounting in another — walks each
/// closure once. Mapping sources are read as the statements the catalog
/// parsed at load.
pub struct CardinalityModel<'a> {
    ontology: &'a Ontology,
    mappings: &'a MappingCatalog,
    stats: Option<&'a StatsCatalog>,
    /// Per-atom estimate memo (taxonomy closures are the expensive part).
    atoms: RefCell<HashMap<Atom, f64>>,
}

impl<'a> CardinalityModel<'a> {
    /// A model over the deployment's assets; `stats` of `None` falls back
    /// to `DEFAULT_ROWS` everywhere (ordering degenerates to mapping
    /// fan-out counts).
    pub fn new(
        ontology: &'a Ontology,
        mappings: &'a MappingCatalog,
        stats: Option<&'a StatsCatalog>,
    ) -> Self {
        CardinalityModel {
            ontology,
            mappings,
            stats,
            atoms: RefCell::new(HashMap::new()),
        }
    }

    /// Estimated result rows of a BGP: atom estimates multiplied under
    /// independence, damped once per repeated variable occurrence.
    pub fn estimate_bgp(&self, atoms: &[Atom]) -> f64 {
        if atoms.is_empty() {
            return 1.0;
        }
        let mut estimate = 1.0;
        let mut seen_vars: Vec<&str> = Vec::new();
        for atom in atoms {
            estimate *= self.estimate_atom(atom);
            for term in atom.terms() {
                if let QueryTerm::Var(v) = term {
                    if seen_vars.iter().any(|w| *w == v) {
                        estimate /= JOIN_DAMPING;
                    } else {
                        seen_vars.push(v);
                    }
                }
            }
        }
        estimate.max(0.0)
    }

    /// Estimated rows of one atom: the summed source cardinalities of every
    /// mapping the (taxonomy-enriched) atom can unfold through, scaled by
    /// equality selectivity for each constant position. Memoized per atom.
    pub fn estimate_atom(&self, atom: &Atom) -> f64 {
        if let Some(&cached) = self.atoms.borrow().get(atom) {
            return cached;
        }
        let estimate = self.estimate_atom_uncached(atom);
        self.atoms.borrow_mut().insert(atom.clone(), estimate);
        estimate
    }

    fn estimate_atom_uncached(&self, atom: &Atom) -> f64 {
        match atom {
            Atom::Class { class, arg } => {
                let mut rows = 0.0;
                // PerfectRef reaches every sub-concept: atomic subclasses
                // contribute their class mappings, ∃R sub-concepts the
                // mappings of R.
                for concept in self
                    .ontology
                    .sub_concepts_closure(&BasicConcept::atomic(class.clone()))
                {
                    if let Some(iri) = concept.as_atomic() {
                        for assertion in self.mappings.for_class(iri) {
                            rows += self.assertion_rows(assertion, &[arg]);
                        }
                    } else if let Some(role) = concept.as_exists() {
                        for assertion in self.mappings.for_property(role.property()) {
                            rows += self.assertion_rows(assertion, &[arg]);
                        }
                    }
                }
                rows
            }
            Atom::Property {
                property,
                subject,
                object,
            } => {
                let properties: BTreeSet<optique_rdf::Iri> = self
                    .ontology
                    .sub_roles_closure(&Role::named(property.clone()))
                    .into_iter()
                    .map(|role| role.property().clone())
                    .collect();
                let mut rows = 0.0;
                for iri in &properties {
                    for assertion in self.mappings.for_property(iri) {
                        rows += self.assertion_rows(assertion, &[subject, object]);
                    }
                }
                rows
            }
        }
    }

    /// Rows one assertion's source contributes, after constant-position
    /// selectivities.
    fn assertion_rows(&self, assertion: &MappingAssertion, terms: &[&QueryTerm]) -> f64 {
        let (base_table, mut rows) = self.source_rows(assertion);
        let maps = [Some(&assertion.subject), assertion.object.as_ref()];
        for (term, map) in terms.iter().zip(maps) {
            if matches!(term, QueryTerm::Const(_)) {
                rows *= self.eq_selectivity(base_table, map);
            }
        }
        rows
    }

    /// `(base table, estimated rows)` of a mapping's source: the FROM
    /// table's statistics row count, discounted per WHERE conjunct.
    fn source_rows<'m>(&self, assertion: &'m MappingAssertion) -> (Option<&'m str>, f64) {
        let Ok(statement) = assertion.source() else {
            return (None, DEFAULT_ROWS);
        };
        let (table, mut rows) = match &statement.from {
            TableRef::Named { name, .. } => (
                Some(name.as_str()),
                self.stats
                    .and_then(|s| s.row_count(name))
                    .map_or(DEFAULT_ROWS, |n| n as f64),
            ),
            _ => (None, DEFAULT_ROWS),
        };
        if let Some(where_clause) = &statement.where_clause {
            let conjuncts = optique_relational::plan::split_conjuncts(where_clause).len();
            rows *= WHERE_SELECTIVITY.powi(conjuncts as i32);
        }
        (table, rows.max(0.0))
    }

    /// Equality selectivity of a constant bound through `map`, using the
    /// distinct count of the term map's column on the source's base table.
    fn eq_selectivity(&self, base_table: Option<&str>, map: Option<&TermMap>) -> f64 {
        let column = match map {
            Some(TermMap::Template(t)) => Some(t.column().to_string()),
            Some(TermMap::Column { column, .. }) => Some(column.clone()),
            _ => None,
        };
        match (self.stats, base_table, column) {
            (Some(stats), Some(table), Some(column)) => stats
                .table(table)
                .map(|t| t.eq_selectivity(&column))
                .unwrap_or(DEFAULT_EQ_SELECTIVITY),
            _ => DEFAULT_EQ_SELECTIVITY,
        }
    }

    /// Estimated rows of a whole group pattern (used to order `UNION` /
    /// nested-group operands): joinable elements multiply, `UNION` branches
    /// sum, `FILTER` halves, `OPTIONAL` preserves (a left join keeps every
    /// left row).
    pub fn estimate_group(&self, group: &GroupPattern) -> f64 {
        let mut estimate = 1.0;
        for element in &group.elements {
            match element {
                PatternElement::Triples(atoms) => estimate *= self.estimate_bgp(atoms),
                PatternElement::SubGroup(inner) => estimate *= self.estimate_group(inner),
                PatternElement::Union(branches) => {
                    estimate *= branches.iter().map(|b| self.estimate_group(b)).sum::<f64>();
                }
                PatternElement::Optional(_) => {}
                PatternElement::Filter(_) => estimate *= 0.5,
                // Inline bindings are exact: their cardinality is known.
                PatternElement::Values(block) => estimate *= block.rows.len() as f64,
            }
        }
        estimate
    }

    /// Estimate for one inner-joinable group operand.
    pub fn estimate_element(&self, element: &PatternElement) -> f64 {
        match element {
            PatternElement::Triples(atoms) => self.estimate_bgp(atoms),
            PatternElement::SubGroup(inner) => self.estimate_group(inner),
            PatternElement::Union(branches) => {
                branches.iter().map(|b| self.estimate_group(b)).sum::<f64>()
            }
            PatternElement::Values(block) => block.rows.len() as f64,
            // OPTIONAL / FILTER are never batch operands.
            _ => DEFAULT_ROWS,
        }
    }
}

// ---- join ordering -----------------------------------------------------

/// One inner-joinable operand of a group, as seen by the ordering pass.
#[derive(Clone, Debug)]
pub struct JoinOperand {
    /// Variables the operand can bind.
    pub vars: Vec<String>,
    /// Estimated result cardinality.
    pub estimate: f64,
}

/// Greedy smallest-first ordering with connected-subgraph preference:
/// start from the seed variables (what is already joined), repeatedly pick
/// the cheapest operand sharing a variable with the connected set, falling
/// back to the cheapest overall when nothing connects (the unavoidable
/// cross product runs over the smallest inputs). Returns operand indexes
/// in execution order.
pub fn greedy_order(seed_vars: &[String], operands: &[JoinOperand]) -> Vec<usize> {
    let mut connected: Vec<&str> = seed_vars.iter().map(String::as_str).collect();
    let mut remaining: Vec<usize> = (0..operands.len()).collect();
    let mut order = Vec::with_capacity(operands.len());
    while !remaining.is_empty() {
        let connects = |i: usize| {
            operands[i]
                .vars
                .iter()
                .any(|v| connected.iter().any(|w| w == v))
        };
        let candidates: Vec<usize> = if connected.is_empty() {
            remaining.clone()
        } else {
            let linked: Vec<usize> = remaining.iter().copied().filter(|&i| connects(i)).collect();
            if linked.is_empty() {
                remaining.clone()
            } else {
                linked
            }
        };
        // Cheapest candidate; ties break on the textual position for
        // deterministic plans.
        let chosen = candidates
            .into_iter()
            .min_by(|&a, &b| {
                operands[a]
                    .estimate
                    .total_cmp(&operands[b].estimate)
                    .then(a.cmp(&b))
            })
            .expect("candidates is non-empty");
        remaining.retain(|&i| i != chosen);
        for v in &operands[chosen].vars {
            if !connected.iter().any(|w| w == v) {
                connected.push(v);
            }
        }
        order.push(chosen);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_rdf::Literal;

    fn sol(vars: &[&str], rows: Vec<Vec<Option<Term>>>) -> SolutionSet {
        SolutionSet {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    fn iri(s: &str) -> Option<Term> {
        Some(Term::iri(format!("http://x/{s}")))
    }

    #[test]
    fn restriction_skips_unbound_and_caps() {
        let s = sol(
            &["x", "y", "z"],
            vec![
                vec![iri("a"), iri("p"), None],
                vec![iri("b"), iri("p"), iri("q")],
                vec![iri("a"), iri("p"), iri("q")],
            ],
        );
        let r = Restriction::from_solutions(&s, 16);
        // z has an unbound row → excluded; x has 2 distinct, y has 1.
        assert_eq!(r.entries().len(), 2);
        assert_eq!(r.entries()[0].0, "x");
        assert_eq!(r.entries()[0].1.len(), 2);
        assert_eq!(r.entries()[1].0, "y");
        // A cap of 1 drops x (2 distinct values).
        let capped = Restriction::from_solutions(&s, 1);
        assert_eq!(capped.entries().len(), 1);
        assert_eq!(capped.entries()[0].0, "y");
        // A cap of 0 disables restriction entirely.
        assert!(Restriction::from_solutions(&s, 0).is_empty());
    }

    #[test]
    fn restriction_merge_intersects_overlap() {
        let outer =
            Restriction::from_solutions(&sol(&["x"], vec![vec![iri("a")], vec![iri("b")]]), 16);
        let inner = Restriction::from_solutions(
            &sol(
                &["x", "y"],
                vec![vec![iri("b"), iri("p")], vec![iri("c"), iri("p")]],
            ),
            16,
        );
        let merged = outer.merged(inner);
        let x = merged
            .entries()
            .iter()
            .find(|(v, _)| v == "x")
            .map(|(_, vals)| vals.clone())
            .unwrap();
        assert_eq!(x, vec![Term::iri("http://x/b")]);
        assert!(merged.entries().iter().any(|(v, _)| v == "y"));
    }

    #[test]
    fn restriction_fingerprint_is_order_stable() {
        let a = Restriction::from_solutions(&sol(&["x", "y"], vec![vec![iri("a"), iri("b")]]), 16);
        let b = Restriction::from_solutions(&sol(&["y", "x"], vec![vec![iri("b"), iri("a")]]), 16);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn greedy_prefers_small_then_connected() {
        // Operands: big scan {x}, small scan {y}, bridge {x, y}.
        let operands = vec![
            JoinOperand {
                vars: vec!["x".into()],
                estimate: 1_000.0,
            },
            JoinOperand {
                vars: vec!["y".into()],
                estimate: 3.0,
            },
            JoinOperand {
                vars: vec!["x".into(), "y".into()],
                estimate: 500.0,
            },
        ];
        // Smallest first (y), then the connected bridge, then the big scan:
        // the cross product y × x never materializes.
        assert_eq!(greedy_order(&[], &operands), vec![1, 2, 0]);
        // With x seeded by the context, only the x-operands connect; the
        // cheaper bridge goes first and unlocks the small y scan.
        assert_eq!(greedy_order(&["x".to_string()], &operands), vec![2, 1, 0]);
    }

    #[test]
    fn greedy_is_identity_when_already_sorted() {
        let operands = vec![
            JoinOperand {
                vars: vec!["x".into()],
                estimate: 1.0,
            },
            JoinOperand {
                vars: vec!["x".into()],
                estimate: 2.0,
            },
        ];
        assert_eq!(greedy_order(&[], &operands), vec![0, 1]);
    }

    #[test]
    fn literal_terms_restrict_too() {
        let s = sol(
            &["m"],
            vec![vec![Some(Term::Literal(Literal::string("SGT-400")))]],
        );
        let r = Restriction::from_solutions(&s, 4);
        assert_eq!(r.entries().len(), 1);
    }
}

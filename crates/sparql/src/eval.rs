//! Solution sets and the residual-algebra operators.
//!
//! BGPs are answered by the rewrite → unfold → SQL pipeline (see
//! [`crate::compile`]); everything *around* the BGPs — joins across
//! `OPTIONAL`/`UNION` branches, `FILTER`s, ordering, slicing, aggregation —
//! runs here over [`SolutionSet`]s of RDF terms.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use optique_rdf::{Datatype, Literal, Term};
use optique_relational::hash::IdSet;
use optique_relational::{Table, Value};

use crate::algebra::{
    AggregateFunction, ArithmeticOperator, ComparisonOperator, Expression, SelectItem,
};
use crate::error::SparqlError;

/// A multiset of variable bindings: one column per variable, one row per
/// solution; `None` is an unbound position (from `OPTIONAL` or `UNION`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolutionSet {
    /// Column names (no `?`).
    pub vars: Vec<String>,
    /// Rows; every row has `vars.len()` entries.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl SolutionSet {
    /// The join identity: no variables, one empty solution.
    pub fn unit() -> Self {
        SolutionSet {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    /// No variables, no solutions (the empty result).
    pub fn empty() -> Self {
        SolutionSet::default()
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value of `var` in `row`, if the variable exists and is bound.
    pub fn value(&self, row: &[Option<Term>], var: &str) -> Option<Term> {
        let idx = self.vars.iter().position(|v| v == var)?;
        row.get(idx).and_then(|t| t.clone())
    }

    /// Natural join: rows merge when every shared variable is compatible
    /// (equal, or unbound on at least one side).
    pub fn join(&self, other: &SolutionSet) -> SolutionSet {
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.vars.iter().position(|w| w == v).map(|j| (i, j)))
            .collect();
        let mut out = self.merged_header(other);

        if shared.is_empty() {
            for l in &self.rows {
                for r in &other.rows {
                    out.rows.push(merge_rows(l, r, &shared, other.vars.len()));
                }
            }
            return out;
        }

        // Hash right rows on their fully-bound shared-key prefix; rows with
        // unbound key positions go to a scan list (only OPTIONAL/UNION
        // produce them, so it stays short).
        let mut keyed: HashMap<Vec<Term>, Vec<&Vec<Option<Term>>>> = HashMap::new();
        let mut wildcards: Vec<&Vec<Option<Term>>> = Vec::new();
        for r in &other.rows {
            match shared
                .iter()
                .map(|&(_, j)| r[j].clone())
                .collect::<Option<Vec<Term>>>()
            {
                Some(key) => keyed.entry(key).or_default().push(r),
                None => wildcards.push(r),
            }
        }
        for l in &self.rows {
            let key: Option<Vec<Term>> = shared.iter().map(|&(i, _)| l[i].clone()).collect();
            match key {
                Some(key) => {
                    if let Some(matches) = keyed.get(&key) {
                        for r in matches {
                            out.rows.push(merge_rows(l, r, &shared, other.vars.len()));
                        }
                    }
                    for r in &wildcards {
                        if compatible(l, r, &shared) {
                            out.rows.push(merge_rows(l, r, &shared, other.vars.len()));
                        }
                    }
                }
                None => {
                    for r in &other.rows {
                        if compatible(l, r, &shared) {
                            out.rows.push(merge_rows(l, r, &shared, other.vars.len()));
                        }
                    }
                }
            }
        }
        out
    }

    /// Left (outer) join — the `OPTIONAL` operator: unmatched left rows
    /// survive with the right-only columns unbound.
    pub fn left_join(&self, other: &SolutionSet) -> SolutionSet {
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.vars.iter().position(|w| w == v).map(|j| (i, j)))
            .collect();
        let mut out = self.merged_header(other);
        let right_only = out.vars.len() - self.vars.len();
        for l in &self.rows {
            let mut matched = false;
            for r in &other.rows {
                if compatible(l, r, &shared) {
                    out.rows.push(merge_rows(l, r, &shared, other.vars.len()));
                    matched = true;
                }
            }
            if !matched {
                let mut row = l.clone();
                row.extend(std::iter::repeat_with(|| None).take(right_only));
                out.rows.push(row);
            }
        }
        out
    }

    /// Multiset union, aligning columns and padding missing ones.
    pub fn union(mut self, other: SolutionSet) -> SolutionSet {
        let mapping: Vec<usize> = other
            .vars
            .iter()
            .map(|v| {
                self.vars.iter().position(|w| w == v).unwrap_or_else(|| {
                    self.vars.push(v.clone());
                    self.vars.len() - 1
                })
            })
            .collect();
        let width = self.vars.len();
        for row in &mut self.rows {
            row.resize(width, None);
        }
        for row in other.rows {
            let mut aligned: Vec<Option<Term>> = vec![None; width];
            for (j, value) in row.into_iter().enumerate() {
                aligned[mapping[j]] = value;
            }
            self.rows.push(aligned);
        }
        self
    }

    /// Keeps rows whose effective boolean value of `expr` is true.
    pub fn filter(mut self, expr: &Expression) -> SolutionSet {
        let vars = self.vars.clone();
        self.rows.retain(|row| {
            effective_boolean_value(&eval_expression(expr, &vars, row)).unwrap_or(false)
        });
        self
    }

    /// Sorts rows by the given `(expression, descending)` keys. Ties break
    /// on the full row, so the order — and anything sliced off it by
    /// `LIMIT` — is a function of the solution *set* alone, never of the
    /// arrival order an execution backend happens to produce (single-node,
    /// replicated and shard-scattered runs all agree).
    pub fn order_by(&mut self, keys: &[(Expression, bool)]) {
        if keys.is_empty() {
            return;
        }
        let vars = self.vars.clone();
        self.rows.sort_by(|a, b| {
            for (expr, descending) in keys {
                let va = eval_expression(expr, &vars, a);
                let vb = eval_expression(expr, &vars, b);
                let ord = term_order(&va, &vb);
                if ord != Ordering::Equal {
                    return if *descending { ord.reverse() } else { ord };
                }
            }
            for (ta, tb) in a.iter().zip(b) {
                let ord = term_order(ta, tb);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    /// Projects onto `names` (unknown names become all-unbound columns,
    /// matching SPARQL's treatment of never-bound variables).
    pub fn project(&self, names: &[String]) -> SolutionSet {
        let indexes: Vec<Option<usize>> = names
            .iter()
            .map(|n| self.vars.iter().position(|v| v == n))
            .collect();
        SolutionSet {
            vars: names.to_vec(),
            rows: self
                .rows
                .iter()
                .map(|row| {
                    indexes
                        .iter()
                        .map(|ix| ix.and_then(|i| row[i].clone()))
                        .collect()
                })
                .collect(),
        }
    }

    /// Removes duplicate rows, keeping first occurrences in order: a flag
    /// per borrowed row, then one `retain`, so no row is cloned.
    pub fn distinct(&mut self) {
        let mut seen = HashSet::with_capacity(self.rows.len());
        let keep: Vec<bool> = (self.rows.iter())
            .map(|row| seen.insert(row.as_slice()))
            .collect();
        let mut keep = keep.into_iter();
        self.rows.retain(|_| keep.next().unwrap_or(true));
    }

    /// Applies OFFSET then LIMIT.
    pub fn slice(&mut self, offset: Option<usize>, limit: Option<usize>) {
        if let Some(skip) = offset {
            self.rows.drain(..skip.min(self.rows.len()));
        }
        if let Some(cap) = limit {
            self.rows.truncate(cap);
        }
    }

    fn merged_header(&self, other: &SolutionSet) -> SolutionSet {
        let mut vars = self.vars.clone();
        for v in &other.vars {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        SolutionSet {
            vars,
            rows: Vec::new(),
        }
    }
}

/// Merges the per-fragment result tables of a federated BGP round back into
/// one solution set. Each table holds one unfolded disjunct's answers (or
/// one partition's concatenated scan); a UCQ's certain answers are the
/// *set* union of its disjuncts' answers, so rows deduplicate here — the
/// same collapse the single-node `UNION ALL` path performs. Rows are
/// deduplicated as SQL values, by the identity of the terms they convert
/// to, and only the first occurrence of each is converted.
pub fn solutions_from_tables(vars: Vec<String>, tables: Vec<Table>) -> SolutionSet {
    let gathered = tables.iter().map(|table| table.rows.len()).sum();
    let mut seen = IdSet::with_capacity_and_hasher(gathered, Default::default());
    let rows = (tables.iter())
        .flat_map(|table| &table.rows)
        .filter(|row| seen.insert(TermIdentity(row)))
        .map(|row| row.iter().map(crate::compile::value_to_term).collect())
        .collect();
    SolutionSet { vars, rows }
}

/// A row of SQL values compared as the RDF terms
/// [`value_to_term`](crate::compile::value_to_term) makes of them: by
/// variant and term id, integer or float bits, every NaN one key. Not by
/// `Value` equality, under which `Int(5)`, `Float(5.0)` and `Timestamp(5)`
/// are one value but three terms, and NaNs of different payloads are
/// different values but one term, `NaN`.
struct TermIdentity<'a>(&'a [Value]);

/// The variant and the word that tell one cell's term from another's.
fn term_identity(value: &Value) -> (u8, u64) {
    match value {
        Value::Null => (0, 0),
        Value::Int(i) => (1, *i as u64),
        Value::Float(f) if f.is_nan() => (2, f64::NAN.to_bits()),
        Value::Float(f) => (2, f.to_bits()),
        Value::Text(t) => (3, t.id()),
        Value::Bool(b) => (4, u64::from(*b)),
        Value::Timestamp(t) => (5, *t as u64),
    }
}

impl PartialEq for TermIdentity<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && (self.0.iter().zip(other.0)).all(|(a, b)| term_identity(a) == term_identity(b))
    }
}

impl Eq for TermIdentity<'_> {}

impl Hash for TermIdentity<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for value in self.0 {
            let (variant, word) = term_identity(value);
            state.write_u8(variant);
            state.write_u64(word);
        }
    }
}

fn compatible(l: &[Option<Term>], r: &[Option<Term>], shared: &[(usize, usize)]) -> bool {
    shared.iter().all(|&(i, j)| match (&l[i], &r[j]) {
        (Some(a), Some(b)) => a == b,
        _ => true,
    })
}

fn merge_rows(
    l: &[Option<Term>],
    r: &[Option<Term>],
    shared: &[(usize, usize)],
    right_width: usize,
) -> Vec<Option<Term>> {
    let mut row = l.to_vec();
    // Fill shared positions left unbound by the left side.
    for &(i, j) in shared {
        if row[i].is_none() {
            row[i] = r[j].clone();
        }
    }
    for (j, value) in r.iter().enumerate().take(right_width) {
        if !shared.iter().any(|&(_, sj)| sj == j) {
            row.push(value.clone());
        }
    }
    row
}

// ---- expressions -------------------------------------------------------

/// Evaluates an expression over one row; `None` is SPARQL's "error" value
/// (unbound variable, type error), which filters treat as false.
pub fn eval_expression(expr: &Expression, vars: &[String], row: &[Option<Term>]) -> Option<Term> {
    match expr {
        Expression::Var(v) => {
            let idx = vars.iter().position(|w| w == v)?;
            row.get(idx).and_then(|t| t.clone())
        }
        Expression::Const(t) => Some(t.clone()),
        Expression::Or(a, b) => {
            let left = effective_boolean_value(&eval_expression(a, vars, row));
            let right = effective_boolean_value(&eval_expression(b, vars, row));
            // SPARQL's three-valued OR: true beats error.
            match (left, right) {
                (Some(true), _) | (_, Some(true)) => Some(Term::Literal(Literal::boolean(true))),
                (Some(false), Some(false)) => Some(Term::Literal(Literal::boolean(false))),
                _ => None,
            }
        }
        Expression::And(a, b) => {
            let left = effective_boolean_value(&eval_expression(a, vars, row));
            let right = effective_boolean_value(&eval_expression(b, vars, row));
            match (left, right) {
                (Some(false), _) | (_, Some(false)) => Some(Term::Literal(Literal::boolean(false))),
                (Some(true), Some(true)) => Some(Term::Literal(Literal::boolean(true))),
                _ => None,
            }
        }
        Expression::Not(a) => {
            let inner = effective_boolean_value(&eval_expression(a, vars, row))?;
            Some(Term::Literal(Literal::boolean(!inner)))
        }
        Expression::Compare(op, a, b) => {
            let left = eval_expression(a, vars, row)?;
            let right = eval_expression(b, vars, row)?;
            let outcome = match op {
                ComparisonOperator::Eq => terms_equal(&left, &right),
                ComparisonOperator::Ne => !terms_equal(&left, &right),
                _ => {
                    let ord = comparable_order(&left, &right)?;
                    match op {
                        ComparisonOperator::Lt => ord == Ordering::Less,
                        ComparisonOperator::Le => ord != Ordering::Greater,
                        ComparisonOperator::Gt => ord == Ordering::Greater,
                        ComparisonOperator::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    }
                }
            };
            Some(Term::Literal(Literal::boolean(outcome)))
        }
        Expression::Arithmetic(op, a, b) => {
            let left = eval_expression(a, vars, row)?;
            let right = eval_expression(b, vars, row)?;
            let (x, y) = (numeric(&left)?, numeric(&right)?);
            let result = match op {
                ArithmeticOperator::Add => x + y,
                ArithmeticOperator::Sub => x - y,
                ArithmeticOperator::Mul => x * y,
                ArithmeticOperator::Div => {
                    if y == 0.0 {
                        return None;
                    }
                    x / y
                }
            };
            // Preserve integer typing for closed integer operations.
            let both_int = is_integer(&left) && is_integer(&right);
            if both_int && *op != ArithmeticOperator::Div && result.fract() == 0.0 {
                Some(Term::Literal(Literal::integer(result as i64)))
            } else {
                Some(Term::Literal(Literal::double(result)))
            }
        }
        Expression::Regex {
            text,
            pattern,
            case_insensitive,
        } => {
            let value = eval_expression(text, vars, row)?;
            let haystack = term_text(&value);
            Some(Term::Literal(Literal::boolean(regex_lite(
                &haystack,
                pattern,
                *case_insensitive,
            ))))
        }
        Expression::Bound(v) => {
            let idx = vars.iter().position(|w| w == v);
            let bound = idx.is_some_and(|i| row.get(i).is_some_and(|t| t.is_some()));
            Some(Term::Literal(Literal::boolean(bound)))
        }
    }
}

/// SPARQL's effective boolean value; `None` on type error.
pub fn effective_boolean_value(term: &Option<Term>) -> Option<bool> {
    match term {
        Some(Term::Literal(lit)) => {
            if let Some(b) = lit.as_bool() {
                Some(b)
            } else if let Some(n) = lit.as_f64() {
                Some(n != 0.0 && !n.is_nan())
            } else {
                Some(!lit.lexical().is_empty())
            }
        }
        _ => None,
    }
}

fn terms_equal(a: &Term, b: &Term) -> bool {
    if let (Some(x), Some(y)) = (term_numeric(a), term_numeric(b)) {
        return x == y;
    }
    a == b
}

/// Ordering for `<`/`>` comparisons: numeric when both sides are numeric,
/// lexicographic over text forms otherwise.
fn comparable_order(a: &Term, b: &Term) -> Option<Ordering> {
    match (term_numeric(a), term_numeric(b)) {
        (Some(x), Some(y)) => Some(x.total_cmp(&y)),
        _ => Some(term_text(a).cmp(&term_text(b))),
    }
}

/// Total order for ORDER BY: unbound first, then numerics, then the rest by
/// text — stable and deterministic across runs.
pub fn term_order(a: &Option<Term>, b: &Option<Term>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => match (term_numeric(x), term_numeric(y)) {
            (Some(nx), Some(ny)) => nx.total_cmp(&ny),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => term_text(x).cmp(&term_text(y)),
        },
    }
}

fn numeric(term: &Term) -> Option<f64> {
    term_numeric(term)
}

fn term_numeric(term: &Term) -> Option<f64> {
    match term {
        Term::Literal(lit) => lit.as_f64(),
        _ => None,
    }
}

fn is_integer(term: &Term) -> bool {
    integer(term).is_some()
}

fn integer(term: &Term) -> Option<i64> {
    match term {
        Term::Literal(lit) => lit.as_i64(),
        _ => None,
    }
}

/// The comparable / regex-able text of a term.
pub fn term_text(term: &Term) -> String {
    match term {
        Term::Iri(iri) => iri.as_str().to_string(),
        Term::Literal(lit) => lit.lexical().to_string(),
        Term::BNode(id) => format!("_:b{id}"),
    }
}

/// The `REGEX`-lite dialect: `^` / `$` anchors, `.*` gaps, literal text
/// otherwise, optional case-insensitivity.
fn regex_lite(haystack: &str, pattern: &str, case_insensitive: bool) -> bool {
    let (hay, pat) = if case_insensitive {
        (haystack.to_lowercase(), pattern.to_lowercase())
    } else {
        (haystack.to_string(), pattern.to_string())
    };
    let anchored_start = pat.starts_with('^');
    let anchored_end = pat.ends_with('$') && !pat.ends_with("\\$");
    let core = pat.trim_start_matches('^').trim_end_matches('$');

    if core.is_empty() {
        // `^$` matches only the empty string; a bare anchor matches all.
        return !(anchored_start && anchored_end) || hay.is_empty();
    }
    let segments: Vec<&str> = core.split(".*").collect();
    let mut cursor = 0usize;
    for (i, segment) in segments.iter().enumerate() {
        if segment.is_empty() {
            continue;
        }
        match hay[cursor..].find(segment) {
            Some(found) => {
                if i == 0 && anchored_start && found != 0 {
                    return false;
                }
                cursor += found + segment.len();
            }
            None => return false,
        }
    }
    // A pattern ending in `.*` (trailing empty segment) satisfies `$`
    // unconditionally; otherwise the final literal must close the string.
    if anchored_end {
        if let Some(last) = segments.last() {
            if !last.is_empty() && !hay.ends_with(last) {
                return false;
            }
        }
    }
    true
}

// ---- aggregation -------------------------------------------------------

/// Groups `solutions` by `group_by` and evaluates the aggregate items; the
/// output has one column per item, in item order.
pub fn aggregate(
    solutions: &SolutionSet,
    group_by: &[String],
    items: &[SelectItem],
) -> Result<SolutionSet, SparqlError> {
    for item in items {
        if let SelectItem::Var(v) = item {
            if !group_by.contains(v) {
                return Err(SparqlError::execution(format!(
                    "?{v} is projected but neither aggregated nor in GROUP BY"
                )));
            }
        }
    }

    // Group keys in input order (deterministic output).
    let mut order: Vec<Vec<Option<Term>>> = Vec::new();
    let mut groups: HashMap<Vec<Option<Term>>, Vec<&Vec<Option<Term>>>> = HashMap::new();
    for row in &solutions.rows {
        let key: Vec<Option<Term>> = group_by.iter().map(|v| solutions.value(row, v)).collect();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }
    // A grand aggregate over zero rows still yields one (empty-key) group.
    if groups.is_empty() && group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    let vars: Vec<String> = items.iter().map(|i| i.name().to_string()).collect();
    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let members = &groups[&key];
        let mut out_row = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SelectItem::Var(v) => {
                    let idx = group_by.iter().position(|g| g == v).expect("checked above");
                    out_row.push(key[idx].clone());
                }
                SelectItem::Aggregate {
                    func,
                    distinct,
                    var,
                    ..
                } => {
                    out_row.push(eval_aggregate(solutions, members, *func, *distinct, var));
                }
            }
        }
        rows.push(out_row);
    }
    Ok(SolutionSet { vars, rows })
}

fn eval_aggregate(
    solutions: &SolutionSet,
    members: &[&Vec<Option<Term>>],
    func: AggregateFunction,
    distinct: bool,
    var: &Option<String>,
) -> Option<Term> {
    // Collect the aggregated values (bound only), deduplicating under
    // DISTINCT.
    let mut values: Vec<Term> = Vec::new();
    match var {
        None => {
            // COUNT(*) counts solutions, not values.
            let n = members.len() as i64;
            return Some(Term::Literal(Literal::integer(n)));
        }
        Some(v) => {
            for row in members {
                if let Some(t) = solutions.value(row, v) {
                    values.push(t);
                }
            }
        }
    }
    if distinct {
        let mut seen: std::collections::HashSet<Term> = Default::default();
        values.retain(|t| seen.insert(t.clone()));
    }
    match func {
        AggregateFunction::Count => Some(Term::Literal(Literal::integer(values.len() as i64))),
        AggregateFunction::Sum => Some(Term::Literal(if values.iter().all(is_integer) {
            // Exact: an `xsd:integer` past `i64` once the sum leaves it.
            let sum: i128 = values.iter().filter_map(integer).map(i128::from).sum();
            Literal::typed(sum.to_string(), Datatype::Integer)
        } else {
            Literal::double(values.iter().filter_map(term_numeric).sum())
        })),
        AggregateFunction::Avg => {
            let nums: Vec<f64> = values.iter().filter_map(term_numeric).collect();
            if nums.is_empty() {
                None
            } else {
                Some(Term::Literal(Literal::double(
                    nums.iter().sum::<f64>() / nums.len() as f64,
                )))
            }
        }
        AggregateFunction::Min => values.into_iter().map(Some).min_by(term_order).flatten(),
        AggregateFunction::Max => values.into_iter().map(Some).max_by(term_order).flatten(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Option<Term> {
        Some(Term::iri(format!("http://x/{s}")))
    }

    fn int(i: i64) -> Option<Term> {
        Some(Term::Literal(Literal::integer(i)))
    }

    fn set(vars: &[&str], rows: Vec<Vec<Option<Term>>>) -> SolutionSet {
        SolutionSet {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    #[test]
    fn join_on_shared_var() {
        let left = set(
            &["x", "y"],
            vec![vec![iri("a"), int(1)], vec![iri("b"), int(2)]],
        );
        let right = set(
            &["x", "z"],
            vec![vec![iri("a"), int(10)], vec![iri("c"), int(30)]],
        );
        let joined = left.join(&right);
        assert_eq!(joined.vars, vec!["x", "y", "z"]);
        assert_eq!(joined.rows, vec![vec![iri("a"), int(1), int(10)]]);
    }

    #[test]
    fn cross_product_without_shared_vars() {
        let left = set(&["x"], vec![vec![iri("a")], vec![iri("b")]]);
        let right = set(&["y"], vec![vec![int(1)], vec![int(2)]]);
        assert_eq!(left.join(&right).len(), 4);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let left = set(&["x"], vec![vec![iri("a")], vec![iri("b")]]);
        let right = set(&["x", "z"], vec![vec![iri("a"), int(10)]]);
        let joined = left.left_join(&right);
        assert_eq!(joined.len(), 2);
        assert_eq!(joined.rows[1], vec![iri("b"), None]);
    }

    #[test]
    fn union_aligns_columns() {
        let a = set(&["x"], vec![vec![iri("a")]]);
        let b = set(&["y"], vec![vec![int(1)]]);
        let u = a.union(b);
        assert_eq!(u.vars, vec!["x", "y"]);
        assert_eq!(u.rows, vec![vec![iri("a"), None], vec![None, int(1)]]);
    }

    #[test]
    fn filter_numeric_comparison() {
        let s = set(&["v"], vec![vec![int(5)], vec![int(15)]]);
        let kept = s.filter(&Expression::Compare(
            ComparisonOperator::Gt,
            Box::new(Expression::Var("v".into())),
            Box::new(Expression::Const(Term::Literal(Literal::integer(10)))),
        ));
        assert_eq!(kept.rows, vec![vec![int(15)]]);
    }

    #[test]
    fn filter_drops_error_rows() {
        // Comparing an unbound value is an error → row dropped.
        let s = set(&["v"], vec![vec![None], vec![int(1)]]);
        let kept = s.filter(&Expression::Compare(
            ComparisonOperator::Ge,
            Box::new(Expression::Var("v".into())),
            Box::new(Expression::Const(Term::Literal(Literal::integer(0)))),
        ));
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn bound_sees_unbound() {
        let s = set(&["v"], vec![vec![None], vec![int(1)]]);
        let kept = s.filter(&Expression::Not(Box::new(Expression::Bound("v".into()))));
        assert_eq!(kept.rows, vec![vec![None]]);
    }

    #[test]
    fn regex_lite_modes() {
        assert!(regex_lite("SGT-400", "SGT", false));
        assert!(regex_lite("SGT-400", "^SGT", false));
        assert!(!regex_lite("XSGT-400", "^SGT", false));
        assert!(regex_lite("SGT-400", "400$", false));
        assert!(!regex_lite("SGT-400x", "400$", false));
        assert!(regex_lite("SGT-400", "sgt", true));
        assert!(!regex_lite("SGT-400", "sgt", false));
        assert!(regex_lite("alpha-beta-gamma", "^alpha.*gamma$", false));
        assert!(!regex_lite("alpha-beta", "^alpha.*gamma$", false));
        // `$` after a trailing `.*` gap is satisfied by any suffix.
        assert!(regex_lite("SGT-400", "^SGT.*$", false));
        assert!(regex_lite("SGT", "^SGT.*$", false));
        assert!(!regex_lite("XGT-400", "^SGT.*$", false));
        // `^$` only matches the empty string; bare `.*` matches anything.
        assert!(regex_lite("", "^$", false));
        assert!(!regex_lite("x", "^$", false));
        assert!(regex_lite("anything", ".*", false));
    }

    #[test]
    fn order_by_numeric_then_slice() {
        let mut s = set(&["v"], vec![vec![int(30)], vec![int(10)], vec![int(20)]]);
        s.order_by(&[(Expression::Var("v".into()), false)]);
        assert_eq!(s.rows, vec![vec![int(10)], vec![int(20)], vec![int(30)]]);
        s.slice(Some(1), Some(1));
        assert_eq!(s.rows, vec![vec![int(20)]]);
    }

    #[test]
    fn aggregate_count_and_avg() {
        let s = set(
            &["g", "v"],
            vec![
                vec![iri("a"), int(1)],
                vec![iri("a"), int(3)],
                vec![iri("b"), int(10)],
            ],
        );
        let out = aggregate(
            &s,
            &["g".to_string()],
            &[
                SelectItem::Var("g".into()),
                SelectItem::Aggregate {
                    func: AggregateFunction::Count,
                    distinct: false,
                    var: None,
                    alias: "n".into(),
                },
                SelectItem::Aggregate {
                    func: AggregateFunction::Avg,
                    distinct: false,
                    var: Some("v".into()),
                    alias: "mean".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(out.vars, vec!["g", "n", "mean"]);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][1], int(2));
        assert_eq!(out.rows[0][2], Some(Term::Literal(Literal::double(2.0))));
        assert_eq!(out.rows[1][1], int(1));
    }

    /// Regression: an integer SUM is exact. It went through `f64`, so
    /// `2^53 + 1` answered `2^53`, and a sum past `i64` saturated at
    /// `i64::MAX`; one past `i64` is now the exact `xsd:integer`.
    #[test]
    fn integer_sum_is_exact() {
        let sum = |ints: &[i64]| {
            let rows = ints.iter().map(|&i| vec![int(i)]).collect();
            let out = aggregate(
                &set(&["v"], rows),
                &[],
                &[SelectItem::Aggregate {
                    func: AggregateFunction::Sum,
                    distinct: false,
                    var: Some("v".into()),
                    alias: "s".into(),
                }],
            )
            .unwrap();
            out.rows[0][0].clone()
        };
        assert_eq!(sum(&[1 << 53, 1]), int((1 << 53) + 1));
        assert_eq!(
            sum(&[i64::MAX, 1]),
            Some(Term::Literal(Literal::typed(
                "9223372036854775808",
                Datatype::Integer
            )))
        );
        assert_eq!(sum(&[i64::MAX, 1, -2]), int(i64::MAX - 1));
        assert_eq!(sum(&[]), int(0));
    }

    #[test]
    fn grand_aggregate_over_empty_input() {
        let s = set(&["v"], vec![]);
        let out = aggregate(
            &s,
            &[],
            &[SelectItem::Aggregate {
                func: AggregateFunction::Count,
                distinct: false,
                var: None,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.rows, vec![vec![int(0)]]);
    }

    #[test]
    fn projecting_an_unaggregated_var_errors() {
        let s = set(&["g", "v"], vec![]);
        assert!(aggregate(&s, &[], &[SelectItem::Var("g".into())],).is_err());
    }
}

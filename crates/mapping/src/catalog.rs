//! The mapping catalog, indexed by ontological term.

use std::collections::{BTreeMap, HashMap};

use optique_rdf::Iri;
use optique_relational::parser::TableRef;

use crate::assertion::{MappingAssertion, MappingHead, TermMap};

/// A set of mapping assertions with term-indexed lookup — the deployment
/// artifact BootOX produces and the unfolder consumes.
#[derive(Clone, Debug, Default)]
pub struct MappingCatalog {
    assertions: Vec<MappingAssertion>,
    by_class: HashMap<Iri, Vec<usize>>,
    by_property: HashMap<Iri, Vec<usize>>,
}

impl MappingCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        MappingCatalog::default()
    }

    /// Adds an assertion after validation.
    pub fn add(&mut self, assertion: MappingAssertion) -> Result<(), String> {
        assertion.validate()?;
        let idx = self.assertions.len();
        match &assertion.head {
            MappingHead::Class(c) => self.by_class.entry(c.clone()).or_default().push(idx),
            MappingHead::Property(p) => self.by_property.entry(p.clone()).or_default().push(idx),
        }
        self.assertions.push(assertion);
        Ok(())
    }

    /// All assertions.
    pub fn assertions(&self) -> &[MappingAssertion] {
        &self.assertions
    }

    /// Number of assertions.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Assertions populating class `c`.
    pub fn for_class(&self, c: &Iri) -> Vec<&MappingAssertion> {
        self.by_class
            .get(c)
            .map(|ids| ids.iter().map(|&i| &self.assertions[i]).collect())
            .unwrap_or_default()
    }

    /// Assertions populating property `p`.
    pub fn for_property(&self, p: &Iri) -> Vec<&MappingAssertion> {
        self.by_property
            .get(p)
            .map(|ids| ids.iter().map(|&i| &self.assertions[i]).collect())
            .unwrap_or_default()
    }

    /// Ontological terms that have at least one mapping.
    pub fn mapped_terms(&self) -> Vec<&Iri> {
        let mut terms: Vec<&Iri> = self
            .by_class
            .keys()
            .chain(self.by_property.keys())
            .collect();
        terms.sort();
        terms
    }

    /// Merges another catalog into this one (BootOX "importing" flow).
    pub fn merge(&mut self, other: MappingCatalog) -> Result<(), String> {
        for a in other.assertions {
            self.add(a)?;
        }
        Ok(())
    }

    /// How often each `(base table, column)` pair appears as a **term-map
    /// column** across the catalog, sorted by table then column.
    ///
    /// Term-map columns (an IRI template's slot, a literal map's column)
    /// are exactly the positions unfolded disjuncts join and filter
    /// through: two atoms sharing a variable become an equality between the
    /// term-map columns of their picked sources. The counts therefore
    /// estimate join frequency per column — the weight the partition-key
    /// advisor (`optique_relational::advise_partition_keys`) scores
    /// candidates by. Assertions whose source is not a simple single-table
    /// select are skipped (column-to-table attribution would be ambiguous).
    pub fn term_column_usage(&self) -> Vec<(String, String, usize)> {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for assertion in &self.assertions {
            let Ok(statement) = assertion.source() else {
                continue;
            };
            let TableRef::Named { name, .. } = &statement.from else {
                continue;
            };
            if !statement.joins.is_empty() || statement.union_all.is_some() {
                continue;
            }
            let maps = [Some(&assertion.subject), assertion.object.as_ref()];
            for map in maps.into_iter().flatten() {
                let column = match map {
                    TermMap::Template(t) => Some(t.column().to_string()),
                    TermMap::Column { column, .. } => Some(column.clone()),
                    TermMap::Constant(_) => None,
                };
                if let Some(column) = column {
                    *counts.entry((name.clone(), column)).or_default() += 1;
                }
            }
        }
        counts
            .into_iter()
            .map(|((table, column), n)| (table, column, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::TermMap;
    use optique_rdf::Datatype;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn catalog() -> MappingCatalog {
        let mut c = MappingCatalog::new();
        c.add(MappingAssertion::class(
            "m1",
            iri("Turbine"),
            "SELECT tid FROM turbines",
            TermMap::template("http://x/turbine/{tid}"),
        ))
        .unwrap();
        c.add(MappingAssertion::class(
            "m2",
            iri("Turbine"),
            "SELECT tid FROM legacy_turbines",
            TermMap::template("http://x/turbine/{tid}"),
        ))
        .unwrap();
        c.add(MappingAssertion::property(
            "m3",
            iri("hasValue"),
            "SELECT sid, val FROM msmt",
            TermMap::template("http://x/sensor/{sid}"),
            TermMap::column("val", Datatype::Double),
        ))
        .unwrap();
        c
    }

    #[test]
    fn lookup_by_term() {
        let c = catalog();
        assert_eq!(c.for_class(&iri("Turbine")).len(), 2);
        assert_eq!(c.for_property(&iri("hasValue")).len(), 1);
        assert!(c.for_class(&iri("Nope")).is_empty());
    }

    #[test]
    fn invalid_assertion_rejected() {
        let mut c = catalog();
        let err = c.add(MappingAssertion::class(
            "bad",
            iri("X"),
            "SELECT FROM WHERE",
            TermMap::template("http://x/{id}"),
        ));
        assert!(err
            .unwrap_err()
            .starts_with("mapping bad: source SQL invalid"));
        // The catalog is as it was: nothing stored, nothing indexed.
        assert_eq!(c.len(), 3);
        assert!(c.for_class(&iri("X")).is_empty());
        assert_eq!(c.mapped_terms().len(), 2);
    }

    /// A source that reads a window through a function in FROM is refused
    /// when it is added. Accepted, its rows would have no table behind
    /// them, so shard analysis could only guess which workers hold them.
    #[test]
    fn window_function_source_is_refused() {
        let mut c = catalog();
        let err = c
            .add(MappingAssertion::property(
                "w",
                iri("hasValue"),
                "SELECT sensor_id, value \
                 FROM sliding_window('S_Msmt', 0, 10000, 10000, 600000, 0, 5) AS w",
                TermMap::template("http://x/sensor/{sensor_id}"),
                TermMap::column("value", Datatype::Double),
            ))
            .unwrap_err();
        assert!(
            err.starts_with("mapping w: source SQL invalid: parse error"),
            "{err}"
        );
        assert_eq!(c.len(), 3);
        assert_eq!(c.for_property(&iri("hasValue")).len(), 1);
    }

    #[test]
    fn mapped_terms_sorted() {
        let c = catalog();
        let terms = c.mapped_terms();
        assert_eq!(terms.len(), 2);
    }

    #[test]
    fn term_column_usage_counts_join_positions() {
        let usage = catalog().term_column_usage();
        // turbines.tid: subject of m1; legacy_turbines.tid: subject of m2;
        // msmt.sid + msmt.val: subject/object of m3.
        assert_eq!(
            usage,
            vec![
                ("legacy_turbines".to_string(), "tid".to_string(), 1),
                ("msmt".to_string(), "sid".to_string(), 1),
                ("msmt".to_string(), "val".to_string(), 1),
                ("turbines".to_string(), "tid".to_string(), 1),
            ]
        );
        // Duplicate references accumulate.
        let mut c = catalog();
        c.add(MappingAssertion::class(
            "m4",
            iri("Generator"),
            "SELECT tid FROM turbines WHERE tid > 3",
            TermMap::template("http://x/turbine/{tid}"),
        ))
        .unwrap();
        let usage = c.term_column_usage();
        assert!(usage.contains(&("turbines".to_string(), "tid".to_string(), 2)));
    }

    #[test]
    fn merge_catalogs() {
        let mut a = catalog();
        let mut b = MappingCatalog::new();
        b.add(MappingAssertion::class(
            "m9",
            iri("Sensor"),
            "SELECT sid FROM sensors",
            TermMap::template("http://x/sensor/{sid}"),
        ))
        .unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.len(), 4);
    }
}

//! Mapping assertions: one ontological term ← one SQL source.

use std::sync::OnceLock;

use optique_rdf::{Datatype, Iri, Term};
use optique_relational::parser::Projection;
use optique_relational::{SelectStatement, SqlError};

use crate::template::IriTemplate;

/// How one RDF position (subject or object) is produced from the SQL
/// source's output row.
#[derive(Clone, PartialEq, Debug)]
pub enum TermMap {
    /// An IRI built by a template over one column.
    Template(IriTemplate),
    /// A typed literal read from a column.
    Column {
        /// Source column name.
        column: String,
        /// Literal datatype.
        datatype: Datatype,
    },
    /// A fixed RDF term.
    Constant(Term),
}

impl TermMap {
    /// Template shorthand (panics on malformed templates — mapping
    /// definitions are code, not input).
    pub fn template(t: &str) -> Self {
        TermMap::Template(IriTemplate::parse(t).expect("valid template"))
    }

    /// Column-literal shorthand.
    pub fn column(name: impl Into<String>, datatype: Datatype) -> Self {
        TermMap::Column {
            column: name.into(),
            datatype,
        }
    }
}

/// The ontological term a mapping populates.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MappingHead {
    /// A class: the assertion produces `subject rdf:type C` triples.
    Class(Iri),
    /// A property: `subject P object` triples.
    Property(Iri),
}

impl MappingHead {
    /// The term's IRI.
    pub fn iri(&self) -> &Iri {
        match self {
            MappingHead::Class(iri) | MappingHead::Property(iri) => iri,
        }
    }
}

/// One mapping assertion `head(subject[, object]) ← source_sql`.
#[derive(Clone, Debug)]
pub struct MappingAssertion {
    /// Stable identifier (for reports and provenance).
    pub id: String,
    /// The populated ontological term.
    pub head: MappingHead,
    /// The logical source: a SQL query over the underlying database. Read
    /// it typed through [`source`](Self::source); do not edit it once that
    /// has run.
    pub source_sql: String,
    /// Subject term map.
    pub subject: TermMap,
    /// Object term map (`None` for class heads).
    pub object: Option<TermMap>,
    /// Columns forming a unique key of `source_sql`'s output, when known.
    /// Unlocks sound self-join elimination during unfolding.
    pub source_key: Option<Vec<String>>,
    /// `source_sql`, parsed at most once (or its error). `validate()` fills
    /// it, so every assertion a catalog holds is already typed.
    source: OnceLock<Result<SelectStatement, SqlError>>,
}

impl MappingAssertion {
    /// A class mapping.
    pub fn class(
        id: impl Into<String>,
        class: Iri,
        source_sql: impl Into<String>,
        subject: TermMap,
    ) -> Self {
        MappingAssertion {
            id: id.into(),
            head: MappingHead::Class(class),
            source_sql: source_sql.into(),
            subject,
            object: None,
            source_key: None,
            source: OnceLock::new(),
        }
    }

    /// A property mapping.
    pub fn property(
        id: impl Into<String>,
        property: Iri,
        source_sql: impl Into<String>,
        subject: TermMap,
        object: TermMap,
    ) -> Self {
        MappingAssertion {
            id: id.into(),
            head: MappingHead::Property(property),
            source_sql: source_sql.into(),
            subject,
            object: Some(object),
            source_key: None,
            source: OnceLock::new(),
        }
    }

    /// Declares the unique key of the source output (builder style).
    pub fn with_key(mut self, columns: Vec<String>) -> Self {
        self.source_key = Some(columns);
        self
    }

    /// The source as a statement — the one parse of `source_sql`, shared by
    /// validation, unfolding, cardinality estimation and materialization.
    pub fn source(&self) -> Result<&SelectStatement, String> {
        self.source
            .get_or_init(|| optique_relational::parse_select(&self.source_sql))
            .as_ref()
            .map_err(|e| format!("mapping {}: source SQL invalid: {e}", self.id))
    }

    /// Validates that the source SQL parses and that term-map columns exist
    /// among its projected names. `None`-aliased expression projections are
    /// skipped (they can't be referenced by term maps anyway).
    pub fn validate(&self) -> Result<(), String> {
        let stmt = self.source()?;
        let mut names: Vec<String> = Vec::new();
        for p in &stmt.projections {
            match p {
                Projection::Star => return Ok(()), // can't check
                Projection::Expr { expr, alias } => {
                    names.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                }
            }
        }
        let check = |tm: &TermMap| -> Result<(), String> {
            let col = match tm {
                TermMap::Template(t) => t.column(),
                TermMap::Column { column, .. } => column.as_str(),
                TermMap::Constant(_) => return Ok(()),
            };
            if names.iter().any(|n| n == col) {
                Ok(())
            } else {
                Err(format!(
                    "mapping {}: column {col} not among source projections {names:?}",
                    self.id
                ))
            }
        };
        check(&self.subject)?;
        if let Some(obj) = &self.object {
            check(obj)?;
        }
        if matches!(self.head, MappingHead::Class(_)) && self.object.is_some() {
            return Err(format!(
                "mapping {}: class mapping must not have an object",
                self.id
            ));
        }
        if matches!(self.head, MappingHead::Property(_)) && self.object.is_none() {
            return Err(format!(
                "mapping {}: property mapping needs an object",
                self.id
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for MappingAssertion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.head, &self.object) {
            (MappingHead::Class(c), _) => {
                write!(f, "{c}(subject) ← {}", self.source_sql)
            }
            (MappingHead::Property(p), Some(_)) => {
                write!(f, "{p}(subject, object) ← {}", self.source_sql)
            }
            (MappingHead::Property(p), None) => write!(f, "{p}(?, ?) ← {}", self.source_sql),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    #[test]
    fn class_mapping_validates() {
        let m = MappingAssertion::class(
            "m1",
            iri("Turbine"),
            "SELECT tid FROM turbines",
            TermMap::template("http://x/turbine/{tid}"),
        );
        m.validate().unwrap();
    }

    #[test]
    fn missing_column_caught() {
        let m = MappingAssertion::class(
            "m1",
            iri("Turbine"),
            "SELECT model FROM turbines",
            TermMap::template("http://x/turbine/{tid}"),
        );
        assert!(m.validate().is_err());
    }

    #[test]
    fn bad_sql_caught() {
        let m = MappingAssertion::class(
            "m1",
            iri("Turbine"),
            "SELECT FROM WHERE",
            TermMap::template("http://x/turbine/{tid}"),
        );
        assert!(m.validate().is_err());
    }

    #[test]
    fn property_needs_object() {
        let mut m = MappingAssertion::property(
            "m2",
            iri("hasValue"),
            "SELECT sid, val FROM msmt",
            TermMap::template("http://x/sensor/{sid}"),
            TermMap::column("val", Datatype::Double),
        );
        m.validate().unwrap();
        m.object = None;
        assert!(m.validate().is_err());
    }

    #[test]
    fn alias_projection_names_respected() {
        let m = MappingAssertion::property(
            "m3",
            iri("locatedIn"),
            "SELECT t.id AS tid, c.name AS cname FROM turbines t JOIN countries c ON t.cid = c.id",
            TermMap::template("http://x/turbine/{tid}"),
            TermMap::column("cname", Datatype::String),
        );
        m.validate().unwrap();
    }
}

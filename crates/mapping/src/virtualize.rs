//! Materializing the virtual RDF graph a catalog defines.
//!
//! Mappings define a *virtual* graph that unfolding queries without ever
//! building; materializing it explicitly gives (a) the ground-truth oracle
//! for unfolding tests — `unfolded SQL over DB ≡ CQ over materialized
//! graph` — and (b) the `STATIC DATA <ABox>` evaluation path STARQL's FROM
//! clause references.

use optique_rdf::{Datatype, Graph, Iri, Literal, Term, Triple};
use optique_relational::{Database, Value};

use crate::assertion::{MappingAssertion, MappingHead, TermMap};
use crate::catalog::MappingCatalog;

/// Converts an RDF literal to the SQL value that would produce it.
pub fn literal_to_value(lit: &Literal) -> Value {
    match lit.datatype() {
        Datatype::Integer => lit.as_i64().map(Value::Int).unwrap_or(Value::Null),
        Datatype::Double => lit.as_f64().map(Value::Float).unwrap_or(Value::Null),
        Datatype::Boolean => lit.as_bool().map(Value::Bool).unwrap_or(Value::Null),
        Datatype::DateTime => lit.as_i64().map(Value::Timestamp).unwrap_or(Value::Null),
        Datatype::String | Datatype::Duration => Value::text(lit.lexical()),
    }
}

/// Converts a SQL value to an RDF literal of the declared datatype;
/// `None` for SQL NULL (no triple is produced).
pub fn value_to_literal(value: &Value, datatype: Datatype) -> Option<Literal> {
    if value.is_null() {
        return None;
    }
    Some(match datatype {
        Datatype::Integer => Literal::integer(value.as_i64()?),
        Datatype::Double => Literal::double(value.as_f64()?),
        Datatype::Boolean => Literal::boolean(value.as_bool()?),
        Datatype::DateTime => Literal::datetime_millis(value.as_i64()?),
        Datatype::Duration => Literal::duration(value.as_str()?),
        Datatype::String => match value {
            Value::Text(s) => Literal::string(s.as_ref()),
            other => Literal::string(other.to_string()),
        },
    })
}

/// Evaluates a term map against one source row.
fn term_of(tm: &TermMap, row: &[Value], schema: &optique_relational::Schema) -> Option<Term> {
    match tm {
        TermMap::Template(t) => {
            let idx = schema.index_of(t.column())?;
            t.render(&row[idx]).map(|iri| Term::Iri(Iri::new(iri)))
        }
        TermMap::Column { column, datatype } => {
            let idx = schema.index_of(column)?;
            value_to_literal(&row[idx], *datatype).map(Term::Literal)
        }
        TermMap::Constant(term) => Some(term.clone()),
    }
}

/// Runs one assertion's source over the database and emits its triples.
pub fn materialize_assertion(
    assertion: &MappingAssertion,
    db: &Database,
) -> Result<Vec<Triple>, String> {
    let table = optique_relational::execute_prepared(assertion.source()?, db)
        .map_err(|e| format!("mapping {}: {e}", assertion.id))?;
    let mut out = Vec::with_capacity(table.len());
    for row in &table.rows {
        let Some(subject) = term_of(&assertion.subject, row, &table.schema) else {
            continue;
        };
        match (&assertion.head, &assertion.object) {
            (MappingHead::Class(c), _) => {
                out.push(Triple::class_assertion(subject, c.clone()));
            }
            (MappingHead::Property(p), Some(obj_map)) => {
                let Some(object) = term_of(obj_map, row, &table.schema) else {
                    continue;
                };
                out.push(Triple::new(subject, p.clone(), object));
            }
            (MappingHead::Property(_), None) => {
                return Err(format!(
                    "mapping {}: property without object map",
                    assertion.id
                ))
            }
        }
    }
    Ok(out)
}

/// Materializes the whole catalog into a graph.
pub fn materialize_catalog(catalog: &MappingCatalog, db: &Database) -> Result<Graph, String> {
    let mut graph = Graph::new();
    for assertion in catalog.assertions() {
        graph.extend(materialize_assertion(assertion, db)?);
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_relational::{table::table_of, ColumnType};

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://x/{s}"))
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[("tid", ColumnType::Int), ("model", ColumnType::Text)],
                vec![
                    vec![Value::Int(1), Value::text("SGT-400")],
                    vec![Value::Int(2), Value::text("SGT-800")],
                    vec![Value::Int(3), Value::Null],
                ],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn class_assertion_materializes_instances() {
        let m = MappingAssertion::class(
            "m1",
            iri("Turbine"),
            "SELECT tid FROM turbines",
            TermMap::template("http://x/turbine/{tid}"),
        );
        let triples = materialize_assertion(&m, &db()).unwrap();
        assert_eq!(triples.len(), 3);
        assert!(triples
            .iter()
            .all(|t| t.predicate.as_str() == optique_rdf::vocab::rdf::TYPE));
    }

    #[test]
    fn property_skips_null_objects() {
        let m = MappingAssertion::property(
            "m2",
            iri("hasModel"),
            "SELECT tid, model FROM turbines",
            TermMap::template("http://x/turbine/{tid}"),
            TermMap::column("model", Datatype::String),
        );
        let triples = materialize_assertion(&m, &db()).unwrap();
        assert_eq!(triples.len(), 2, "NULL model produces no triple");
    }

    #[test]
    fn filtered_source_respects_where() {
        let m = MappingAssertion::class(
            "m3",
            iri("ModernTurbine"),
            "SELECT tid FROM turbines WHERE tid > 1",
            TermMap::template("http://x/turbine/{tid}"),
        );
        let triples = materialize_assertion(&m, &db()).unwrap();
        assert_eq!(triples.len(), 2);
    }

    #[test]
    fn literal_value_roundtrip() {
        for (lit, val) in [
            (Literal::integer(5), Value::Int(5)),
            (Literal::double(2.5), Value::Float(2.5)),
            (Literal::boolean(true), Value::Bool(true)),
            (Literal::string("x"), Value::text("x")),
            (Literal::datetime_millis(99), Value::Timestamp(99)),
        ] {
            assert_eq!(literal_to_value(&lit), val);
            let dt = lit.datatype();
            assert_eq!(value_to_literal(&val, dt), Some(lit));
        }
        assert_eq!(value_to_literal(&Value::Null, Datatype::Integer), None);
    }

    #[test]
    fn int_column_as_double_literal() {
        let l = value_to_literal(&Value::Int(3), Datatype::Double).unwrap();
        assert_eq!(l.as_f64(), Some(3.0));
    }
}

//! Column types and relation schemas.

use std::fmt;

use crate::error::SqlError;
use crate::value::Value;

/// Static column types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
    /// Millisecond instant.
    Timestamp,
    /// Unconstrained (expression results whose type isn't tracked).
    Any,
}

impl ColumnType {
    /// True when a value inhabits this type (NULL inhabits every type).
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Any, _)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_) | Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Timestamp, Value::Timestamp(_) | Value::Int(_))
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Text => "TEXT",
            ColumnType::Bool => "BOOL",
            ColumnType::Timestamp => "TIMESTAMP",
            ColumnType::Any => "ANY",
        };
        f.write_str(s)
    }
}

/// A named, typed column.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    /// Column name, unqualified.
    pub name: String,
    /// Static type.
    pub ty: ColumnType,
}

impl Column {
    /// Builds a column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// A relation schema: ordered columns, each optionally qualified by the
/// relation alias it came from (`sensor.id` after a join of aliased inputs).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    columns: Vec<Column>,
    qualifiers: Vec<Option<String>>,
}

impl Schema {
    /// Schema from unqualified columns.
    pub fn new(columns: Vec<Column>) -> Self {
        let qualifiers = vec![None; columns.len()];
        Schema {
            columns,
            qualifiers,
        }
    }

    /// Schema where every column carries the same qualifier.
    pub fn qualified(alias: &str, columns: Vec<Column>) -> Self {
        let qualifiers = vec![Some(alias.to_string()); columns.len()];
        Schema {
            columns,
            qualifiers,
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Qualifier of column `i`, if any.
    pub fn qualifier(&self, i: usize) -> Option<&str> {
        self.qualifiers.get(i).and_then(|q| q.as_deref())
    }

    /// Re-qualifies every column (used when a subquery gets an alias).
    pub fn with_qualifier(&self, alias: &str) -> Schema {
        Schema {
            columns: self.columns.clone(),
            qualifiers: vec![Some(alias.to_string()); self.columns.len()],
        }
    }

    /// Concatenates two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        let mut qualifiers = self.qualifiers.clone();
        qualifiers.extend(other.qualifiers.iter().cloned());
        Schema {
            columns,
            qualifiers,
        }
    }

    /// Resolves a possibly-qualified name to a column index.
    ///
    /// `"t.c"` requires qualifier and name to match; `"c"` must match exactly
    /// one column name (ambiguity is a binding error).
    pub fn resolve(&self, name: &str) -> Result<usize, SqlError> {
        if let Some((qual, col)) = name.split_once('.') {
            let mut hit = None;
            for (i, c) in self.columns.iter().enumerate() {
                if c.name == col && self.qualifier(i) == Some(qual) {
                    if hit.is_some() {
                        return Err(SqlError::Binding(format!("ambiguous column {name}")));
                    }
                    hit = Some(i);
                }
            }
            return hit.ok_or_else(|| SqlError::Binding(format!("unknown column {name}")));
        }
        let mut hit = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.name == name {
                if hit.is_some() {
                    return Err(SqlError::Binding(format!("ambiguous column {name}")));
                }
                hit = Some(i);
            }
        }
        hit.ok_or_else(|| SqlError::Binding(format!("unknown column {name}")))
    }

    /// Index of a column by exact unqualified name, first match.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validates a row against the schema: arity, then each value's type.
    pub fn check_row(&self, row: &[Value]) -> Result<(), SqlError> {
        if row.len() != self.len() {
            return Err(SqlError::Execution(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.len()
            )));
        }
        for (value, column) in row.iter().zip(&self.columns) {
            if !column.ty.admits(value) {
                return Err(SqlError::Type(format!(
                    "value {value} not admitted by column {} of type {}",
                    column.name, column.ty
                )));
            }
        }
        Ok(())
    }

    /// Human-readable header, qualified where applicable.
    pub fn header(&self) -> Vec<String> {
        self.columns
            .iter()
            .enumerate()
            .map(|(i, c)| match self.qualifier(i) {
                Some(q) => format!("{q}.{}", c.name),
                None => c.name.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::qualified(
            "s",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("value", ColumnType::Float),
            ],
        )
    }

    #[test]
    fn resolve_unqualified() {
        assert_eq!(schema().resolve("value").unwrap(), 1);
    }

    #[test]
    fn resolve_qualified() {
        assert_eq!(schema().resolve("s.id").unwrap(), 0);
        assert!(schema().resolve("t.id").is_err());
    }

    #[test]
    fn join_detects_ambiguity() {
        let j = schema().join(&schema().with_qualifier("t"));
        assert!(matches!(j.resolve("id"), Err(SqlError::Binding(_))));
        assert_eq!(j.resolve("t.id").unwrap(), 2);
    }

    #[test]
    fn header_renders_qualifiers() {
        assert_eq!(schema().header(), vec!["s.id", "s.value"]);
    }

    #[test]
    fn admits_with_null_and_widening() {
        assert!(ColumnType::Int.admits(&Value::Null));
        assert!(ColumnType::Float.admits(&Value::Int(3)));
        assert!(!ColumnType::Int.admits(&Value::text("x")));
        assert!(ColumnType::Timestamp.admits(&Value::Int(3)));
        assert!(ColumnType::Any.admits(&Value::Bool(true)));
    }
}

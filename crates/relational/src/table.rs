//! Row-oriented tables and the database catalog.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::SqlError;
use crate::novelty::{NoveltyOverlay, NoveltyScope};
use crate::schema::{Column, ColumnType, Schema};
use crate::value::Value;

/// A materialized relation: a schema plus rows.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// The relation schema.
    pub schema: Schema,
    /// Row-major data; every row has `schema.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Builds a table, validating row arity and column types.
    pub fn new(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self, SqlError> {
        let mut t = Table::empty(schema);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// Appends a row after arity/type validation.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), SqlError> {
        self.check_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Validates a row against the schema (arity + column types) without
    /// appending it — the novelty write path admits rows into the overlay
    /// log without cloning the base table.
    pub fn check_row(&self, row: &[Value]) -> Result<(), SqlError> {
        if row.len() != self.schema.len() {
            return Err(SqlError::Execution(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        for (value, column) in row.iter().zip(self.schema.columns()) {
            if !column.ty.admits(value) {
                return Err(SqlError::Type(format!(
                    "value {value} not admitted by column {} of type {}",
                    column.name, column.ty
                )));
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an ASCII preview of up to `limit` rows (dashboard + examples).
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.schema.header().join(" | "));
        out.push('\n');
        for row in self.rows.iter().take(limit) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > limit {
            out.push_str(&format!("… {} more rows\n", self.rows.len() - limit));
        }
        out
    }
}

/// The catalog: named tables plus the novelty overlay scans merge with.
#[derive(Clone, Default)]
pub struct Database {
    tables: HashMap<String, Arc<Table>>,
    /// Rows appended since the last merge; scans union these with the
    /// base rows of the scanned table ([`Self::novelty_rows`]).
    novelty: Option<Arc<NoveltyOverlay>>,
    /// On a partitioned worker: which slice of the overlay this catalog
    /// sees (None = the full overlay).
    novelty_scope: Option<Arc<NoveltyScope>>,
}

impl Database {
    /// An empty catalog.
    pub fn new() -> Self {
        Database::default()
    }

    /// Registers (or replaces) a table under `name`.
    pub fn put_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Fetches a table.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>, SqlError> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// True when a table named `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Installs (or clears) the novelty overlay scans merge with.
    pub fn set_novelty(&mut self, overlay: Option<Arc<NoveltyOverlay>>) {
        self.novelty = overlay;
    }

    /// The installed novelty overlay, if any.
    pub fn novelty(&self) -> Option<&Arc<NoveltyOverlay>> {
        self.novelty.as_ref()
    }

    /// The installed overlay's epoch (0 when none is installed).
    pub fn novelty_epoch(&self) -> u64 {
        self.novelty.as_ref().map_or(0, |n| n.epoch())
    }

    /// Restricts the visible overlay to one worker's shard slice (see
    /// [`NoveltyScope`]).
    pub fn set_novelty_scope(&mut self, scope: Option<Arc<NoveltyScope>>) {
        self.novelty_scope = scope;
    }

    /// The overlay rows of `table` visible through this catalog: all of
    /// them by default, or — for a table this catalog's [`NoveltyScope`]
    /// partitions — only the rows hashing to this worker's shard.
    pub fn novelty_rows<'a>(&'a self, table: &str) -> impl Iterator<Item = &'a Vec<Value>> + 'a {
        self.novelty_rows_from(table, 0)
    }

    /// [`Self::novelty_rows`] past the first `seen` rows of the table's
    /// *unfiltered* log — what a reader that has already folded that
    /// prefix (the pane store) still has to look at.
    pub fn novelty_rows_from<'a>(
        &'a self,
        table: &str,
        seen: usize,
    ) -> impl Iterator<Item = &'a Vec<Value>> + 'a {
        let slice = self
            .novelty_scope
            .as_ref()
            .and_then(|s| s.keys.get(table).map(|&col| (s.shard, s.shards, col)));
        self.novelty
            .as_ref()
            .and_then(|n| n.rows(table))
            .into_iter()
            .flat_map(move |log| log.iter_from(seen))
            .filter(move |row| match slice {
                Some((shard, shards, col)) => crate::fragment::shard_of(&row[col], shards) == shard,
                None => true,
            })
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Database({} tables, novelty@{})",
            self.tables.len(),
            self.novelty_epoch()
        )
    }
}

/// Convenience builder used pervasively by tests and the workload generator.
pub fn table_of(
    alias: &str,
    cols: &[(&str, ColumnType)],
    rows: Vec<Vec<Value>>,
) -> Result<Table, SqlError> {
    let schema = Schema::qualified(
        alias,
        cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
    );
    Table::new(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensors() -> Table {
        table_of(
            "sensor",
            &[("id", ColumnType::Int), ("name", ColumnType::Text)],
            vec![
                vec![Value::Int(1), Value::text("t-inlet")],
                vec![Value::Int(2), Value::text("t-outlet")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sensors();
        let err = t.push_row(vec![Value::Int(3)]).unwrap_err();
        assert!(matches!(err, SqlError::Execution(_)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = sensors();
        let err = t
            .push_row(vec![Value::text("x"), Value::text("y")])
            .unwrap_err();
        assert!(matches!(err, SqlError::Type(_)));
    }

    #[test]
    fn catalog_roundtrip() {
        let mut db = Database::new();
        db.put_table("sensor", sensors());
        assert!(db.has_table("sensor"));
        assert_eq!(db.table("sensor").unwrap().len(), 2);
        assert!(matches!(
            db.table("missing"),
            Err(SqlError::UnknownTable(_))
        ));
    }

    #[test]
    fn render_truncates() {
        let r = sensors().render(1);
        assert!(r.contains("… 1 more rows"));
    }
}

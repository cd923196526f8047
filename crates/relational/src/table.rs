//! Row-oriented tables and the database catalog.
//!
//! A query result is a [`Table`]: a schema and one owned row vector. A
//! table the catalog stores is a [`StoredTable`]: a schema and its rows as
//! [`Segments`], a list of shared, immutable row vectors. The novelty
//! overlay's per-table logs are `Segments` too, so folding an overlay into
//! the base appends the log's segments to the table's — pointer pushes, no
//! row copied — and a worker shard that gains the overlay rows hashing to
//! it shares every earlier segment with the shard it succeeds.

use std::collections::HashMap;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Rows as a list of shared, immutable segments, read in order. Cloning
/// copies one pointer per segment and no row, so a successor list shares
/// every segment of the list it grew from, and a reader that remembers how
/// many rows it has seen reads only the rest ([`Self::iter_from`]).
/// Equality is by rows, in order, whatever the segment boundaries.
#[derive(Clone, Default)]
pub struct Segments {
    segments: Vec<Arc<Vec<Vec<Value>>>>,
    len: usize,
}

impl Segments {
    /// Rows in all segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no segment holds a row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every row, in order.
    pub fn iter(&self) -> SegmentRows<'_> {
        self.iter_from(0)
    }

    /// The rows after the first `seen`, in order (none when `seen >= len`).
    /// Finds its place from the newest segment backwards, so a reader that
    /// keeps up pays for the suffix alone.
    pub fn iter_from(&self, seen: usize) -> SegmentRows<'_> {
        if seen >= self.len {
            return SegmentRows {
                segments: [].iter(),
                rows: [].iter(),
            };
        }
        let (mut first, mut start) = (self.segments.len(), self.len);
        while start > seen {
            first -= 1;
            start -= self.segments[first].len();
        }
        SegmentRows {
            segments: self.segments[first + 1..].iter(),
            rows: self.segments[first][seen - start..].iter(),
        }
    }

    /// Appends `rows` as the newest segment (an empty batch adds none).
    pub fn push(&mut self, rows: Vec<Vec<Value>>) {
        if !rows.is_empty() {
            self.len += rows.len();
            self.segments.push(Arc::new(rows));
        }
    }

    /// Appends every segment of `other`, shared, not copied.
    pub fn extend(&mut self, other: &Segments) {
        self.len += other.len;
        self.segments.extend(other.segments.iter().cloned());
    }

    /// The segments, oldest first.
    pub fn segments(&self) -> &[Arc<Vec<Vec<Value>>>] {
        &self.segments
    }
}

impl From<Vec<Vec<Value>>> for Segments {
    fn from(rows: Vec<Vec<Value>>) -> Self {
        let mut segments = Segments::default();
        segments.push(rows);
        segments
    }
}

impl Index<usize> for Segments {
    type Output = Vec<Value>;

    /// Row `index`, found by walking the segments from the oldest.
    fn index(&self, index: usize) -> &Vec<Value> {
        let mut at = index;
        for segment in &self.segments {
            if at < segment.len() {
                return &segment[at];
            }
            at -= segment.len();
        }
        panic!("row {index} out of range for {} rows", self.len)
    }
}

impl<'a> IntoIterator for &'a Segments {
    type Item = &'a Vec<Value>;
    type IntoIter = SegmentRows<'a>;

    fn into_iter(self) -> SegmentRows<'a> {
        self.iter()
    }
}

impl PartialEq for Segments {
    fn eq(&self, other: &Segments) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Segments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The rows of [`Segments`], in order.
#[derive(Clone)]
pub struct SegmentRows<'a> {
    segments: std::slice::Iter<'a, Arc<Vec<Vec<Value>>>>,
    rows: std::slice::Iter<'a, Vec<Value>>,
}

impl<'a> Iterator for SegmentRows<'a> {
    type Item = &'a Vec<Value>;

    fn next(&mut self) -> Option<&'a Vec<Value>> {
        loop {
            if let Some(row) = self.rows.next() {
                return Some(row);
            }
            self.rows = self.segments.next()?.iter();
        }
    }
}

/// A table the catalog stores: a schema plus its rows as shared segments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoredTable {
    /// The relation schema.
    pub schema: Schema,
    /// Every row has `schema.len()` values.
    pub rows: Segments,
}

impl StoredTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// This table with `rows` appended, their segments shared.
    pub fn appended(&self, rows: &Segments) -> StoredTable {
        let mut table = self.clone();
        table.rows.extend(rows);
        table
    }

    /// An owned copy of the rows, as a result table.
    pub fn to_table(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.iter().cloned().collect(),
        }
    }
}

impl From<Table> for StoredTable {
    /// Moves the rows in as one segment.
    fn from(table: Table) -> Self {
        StoredTable {
            schema: table.schema,
            rows: table.rows.into(),
        }
    }
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
        self.schema.check_row(&row)?;
        self.rows.push(row);
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
    tables: HashMap<String, Arc<StoredTable>>,
    /// Per table, the generation of its schema: drawn from one process-wide
    /// counter when the table is first put or put with another schema, so
    /// equal generations mean a schema plans alike.
    generations: HashMap<String, u64>,
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

    /// Registers (or replaces) a table under `name`, its rows moved in as
    /// one segment.
    pub fn put_table(&mut self, name: impl Into<String>, table: Table) {
        self.put_stored(name, Arc::new(table.into()));
    }

    /// Registers (or replaces) a stored table under `name`, shared. A
    /// replacement with another schema moves the table's
    /// [`Self::schema_generation`].
    pub fn put_stored(&mut self, name: impl Into<String>, table: Arc<StoredTable>) {
        static GENERATIONS: AtomicU64 = AtomicU64::new(1);
        let name = name.into();
        let kept = (self.tables.get(&name)).is_some_and(|old| old.schema == table.schema);
        if !kept {
            let generation = GENERATIONS.fetch_add(1, Ordering::Relaxed);
            self.generations.insert(name.clone(), generation);
        }
        self.tables.insert(name, table);
    }

    /// The generation of `name`'s schema (`None` for a missing table):
    /// unchanged by appends, merges and shards, moved by a put with
    /// another schema. What a plan cache keys a table's plans by.
    pub fn schema_generation(&self, name: &str) -> Option<u64> {
        self.generations.get(name).copied()
    }

    /// Fetches a table.
    pub fn table(&self, name: &str) -> Result<&Arc<StoredTable>, SqlError> {
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

    /// The installed overlay slice, if any.
    pub fn novelty_scope(&self) -> Option<&Arc<NoveltyScope>> {
        self.novelty_scope.as_ref()
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

    /// Segments compare, index and iterate by rows, whatever the segment
    /// boundaries, and appending shares segments instead of copying rows.
    #[test]
    fn segments_read_as_their_rows() {
        let rows: Vec<Vec<Value>> = (0..7).map(|i| vec![Value::Int(i)]).collect();
        let whole = Segments::from(rows.clone());
        let mut split = Segments::from(rows[..3].to_vec());
        split.push(Vec::new());
        split.push(rows[3..].to_vec());
        assert_eq!(split.segments().len(), 2, "an empty batch adds no segment");
        assert_eq!(whole, split);
        assert_ne!(whole, Segments::from(rows[..6].to_vec()));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&split[i], row);
            assert!(split.iter_from(i).eq(rows[i..].iter()));
        }
        assert_eq!(split.iter_from(9).count(), 0);
        assert!((&split).into_iter().eq(rows.iter()));
        assert_eq!(format!("{split:?}"), format!("{rows:?}"));

        let table = StoredTable::from(sensors());
        let grown = table.appended(&split);
        assert_eq!(grown.len(), 9);
        let shared = grown.rows.segments();
        assert!(Arc::ptr_eq(&shared[0], &table.rows.segments()[0]));
        assert!(Arc::ptr_eq(&shared[1], &split.segments()[0]));
        assert!(Arc::ptr_eq(&shared[2], &split.segments()[1]));
        assert_eq!(grown.to_table().rows.len(), 9);
    }

    #[test]
    fn render_truncates() {
        let r = sensors().render(1);
        assert!(r.contains("… 1 more rows"));
    }
}

//! Registered streams: timestamp-ordered relations.

use optique_relational::{SqlError, Table, Value};

/// A stream registration: the backing relation (ordered by its time column)
/// plus the position of that column.
///
/// In batch/replay mode — how the demo emulates real-time streams by
/// "playing" archived data — the whole history is present and windows are
/// computed over slices of it.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Stream name (also the backing table's catalog name).
    pub name: String,
    /// The data, sorted ascending by the time column.
    pub table: Table,
    /// Index of the time column in the schema.
    pub timestamp_col: usize,
}

impl Stream {
    /// Wraps a table as a stream, sorting by the time column and validating
    /// that every timestamp is a non-NULL instant/integer.
    pub fn new(
        name: impl Into<String>,
        mut table: Table,
        timestamp_col: usize,
    ) -> Result<Self, SqlError> {
        if timestamp_col >= table.schema.len() {
            return Err(SqlError::Binding(format!(
                "timestamp column {timestamp_col} out of range for stream schema"
            )));
        }
        for row in &table.rows {
            if row[timestamp_col].as_i64().is_none() {
                return Err(SqlError::Type(format!(
                    "stream timestamp must be a non-NULL instant, got {}",
                    row[timestamp_col]
                )));
            }
        }
        table
            .rows
            .sort_by(|a, b| a[timestamp_col].total_cmp(&b[timestamp_col]));
        Ok(Stream {
            name: name.into(),
            table,
            timestamp_col,
        })
    }

    /// Timestamp of a row.
    pub fn ts(&self, row: &[Value]) -> i64 {
        row[self.timestamp_col]
            .as_i64()
            .expect("validated at construction")
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the stream holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The half-open slice of rows with timestamps in `(from, to]` — the
    /// content of a window closing at `to` with range `to - from`. Binary
    /// search on both ends keeps replay scans logarithmic.
    pub fn slice(&self, from_exclusive: i64, to_inclusive: i64) -> &[Vec<Value>] {
        let rows = &self.table.rows;
        let lo = rows.partition_point(|r| self.ts(r) <= from_exclusive);
        let hi = rows.partition_point(|r| self.ts(r) <= to_inclusive);
        &rows[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_relational::{Column, ColumnType, Schema};

    fn measurements() -> Table {
        let schema = Schema::qualified(
            "msmt",
            vec![
                Column::new("ts", ColumnType::Timestamp),
                Column::new("sensor_id", ColumnType::Int),
                Column::new("value", ColumnType::Float),
            ],
        );
        let rows = vec![
            vec![Value::Timestamp(3000), Value::Int(1), Value::Float(72.0)],
            vec![Value::Timestamp(1000), Value::Int(1), Value::Float(70.0)],
            vec![Value::Timestamp(2000), Value::Int(1), Value::Float(71.0)],
        ];
        Table::new(schema, rows).unwrap()
    }

    #[test]
    fn construction_sorts_by_time() {
        let s = Stream::new("S_Msmt", measurements(), 0).unwrap();
        let times: Vec<i64> = s.table.rows.iter().map(|r| s.ts(r)).collect();
        assert_eq!(times, vec![1000, 2000, 3000]);
    }

    #[test]
    fn null_timestamp_rejected() {
        let mut t = measurements();
        t.rows
            .push(vec![Value::Null, Value::Int(2), Value::Float(1.0)]);
        assert!(Stream::new("s", t, 0).is_err());
    }

    #[test]
    fn slice_is_half_open() {
        let s = Stream::new("S_Msmt", measurements(), 0).unwrap();
        // (1000, 3000] excludes the tuple at exactly 1000.
        let w = s.slice(1000, 3000);
        assert_eq!(w.len(), 2);
        // (0, 1000] includes it.
        let w = s.slice(0, 1000);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn bad_timestamp_column_rejected() {
        assert!(Stream::new("s", measurements(), 9).is_err());
    }
}

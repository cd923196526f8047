//! Time-based sliding windows — the `timeSlidingWindow` operator.
//!
//! "timeSlidingWindow groups tuples that belong to the same time window and
//! associates them with a unique window id." Windows of range `r` close at
//! `start + k·slide` (k = 0, 1, …) and cover the half-open interval
//! `(close − r, close]` — the CQL snapshot convention, matching the STARQL
//! window `[NOW − r, NOW] → slide`.

use optique_relational::{Column, ColumnType, Schema, SqlError, Table, Value};

use crate::stream::Stream;

/// A window specification: range and slide, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width.
    pub range_ms: i64,
    /// Distance between consecutive window closes.
    pub slide_ms: i64,
}

impl WindowSpec {
    /// Builds a spec, validating positivity.
    pub fn new(range_ms: i64, slide_ms: i64) -> Result<Self, SqlError> {
        if range_ms <= 0 || slide_ms <= 0 {
            return Err(SqlError::Execution(format!(
                "window range and slide must be positive, got range={range_ms} slide={slide_ms}"
            )));
        }
        Ok(WindowSpec { range_ms, slide_ms })
    }

    /// The close time of window `k` with the first close at `start`.
    pub fn close_time(&self, start: i64, k: u64) -> i64 {
        start + (k as i64) * self.slide_ms
    }

    /// The `(open, close]` bounds of window `k`.
    pub fn bounds(&self, start: i64, k: u64) -> (i64, i64) {
        let close = self.close_time(start, k);
        (close - self.range_ms, close)
    }

    /// The inclusive id range of windows containing a tuple at `ts`
    /// (`None` when the tuple precedes every window).
    pub fn windows_containing(&self, start: i64, ts: i64) -> Option<(u64, u64)> {
        // Need close_k ∈ [ts, ts + range): k ≥ (ts − start)/slide and
        // close_k < ts + range.
        let lo_num = ts - start;
        let k_min = if lo_num <= 0 {
            0
        } else {
            div_ceil(lo_num, self.slide_ms)
        };
        let hi_num = ts + self.range_ms - start; // close_k < hi_num
        if hi_num <= 0 {
            return None;
        }
        let k_max = div_ceil(hi_num, self.slide_ms) - 1;
        if k_max < k_min {
            return None;
        }
        Some((k_min as u64, k_max as u64))
    }

    /// The id of the last window closing at or before `ts` (`None` if `ts`
    /// precedes the first close).
    pub fn last_closed(&self, start: i64, ts: i64) -> Option<u64> {
        if ts < start {
            return None;
        }
        Some(((ts - start) / self.slide_ms) as u64)
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    if a <= 0 {
        0
    } else {
        (a + b - 1) / b
    }
}

/// Applies `timeSlidingWindow` to a stream over the window-id range
/// `[first_window, last_window]`: returns a relation whose first column is
/// the window id, followed by the stream's columns; tuples are replicated
/// into every window containing them, ordered by window id.
pub fn time_sliding_window(
    stream: &Stream,
    spec: WindowSpec,
    start: i64,
    first_window: u64,
    last_window: u64,
) -> Result<Table, SqlError> {
    let mut columns = vec![Column::new("window_id", ColumnType::Int)];
    columns.extend(stream.table.schema.columns().iter().cloned());
    let schema = Schema::qualified(&stream.name, columns);
    let mut out = Table::empty(schema);
    for k in first_window..=last_window {
        let (open, close) = spec.bounds(start, k);
        for row in stream.slice(open, close) {
            let mut tagged = Vec::with_capacity(row.len() + 1);
            tagged.push(Value::Int(k as i64));
            tagged.extend(row.iter().cloned());
            out.push_row(tagged)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_relational::{Column, ColumnType, Schema, Table};

    fn stream_with_times(times: &[i64]) -> Stream {
        let schema = Schema::qualified(
            "s",
            vec![
                Column::new("ts", ColumnType::Timestamp),
                Column::new("v", ColumnType::Int),
            ],
        );
        let rows = times
            .iter()
            .enumerate()
            .map(|(i, &t)| vec![Value::Timestamp(t), Value::Int(i as i64)])
            .collect();
        Stream::new("s", Table::new(schema, rows).unwrap(), 0).unwrap()
    }

    #[test]
    fn spec_validation() {
        assert!(WindowSpec::new(0, 1).is_err());
        assert!(WindowSpec::new(10, -1).is_err());
        assert!(WindowSpec::new(10_000, 1_000).is_ok());
    }

    #[test]
    fn bounds_and_close_times() {
        let w = WindowSpec::new(10_000, 1_000).unwrap();
        assert_eq!(w.bounds(0, 0), (-10_000, 0));
        assert_eq!(w.bounds(0, 5), (-5_000, 5_000));
    }

    #[test]
    fn tuple_window_membership() {
        let w = WindowSpec::new(10_000, 1_000).unwrap();
        // Tuple at t=0 is in windows closing at 0..=9000 (close < 10000).
        assert_eq!(w.windows_containing(0, 0), Some((0, 9)));
        // Tuple at 2500 is in windows closing at 3000..=12000.
        assert_eq!(w.windows_containing(0, 2500), Some((3, 12)));
    }

    #[test]
    fn tumbling_window_membership() {
        let w = WindowSpec::new(1_000, 1_000).unwrap();
        // Tumbling: each tuple in exactly one window; (open, close] semantics
        // put a tuple exactly at a close time into that window.
        assert_eq!(w.windows_containing(0, 1_000), Some((1, 1)));
        assert_eq!(w.windows_containing(0, 999), Some((1, 1)));
        assert_eq!(w.windows_containing(0, 1_001), Some((2, 2)));
    }

    #[test]
    fn tuple_before_all_windows() {
        let w = WindowSpec::new(1_000, 1_000).unwrap();
        assert_eq!(w.windows_containing(100_000, 5_000), None);
    }

    #[test]
    fn every_tuple_lands_in_its_windows() {
        // Invariant: materialized window content agrees with per-tuple
        // membership computation.
        let w = WindowSpec::new(5_000, 2_000).unwrap();
        let s = stream_with_times(&[0, 1_000, 2_500, 4_000, 8_000, 9_999]);
        let table = time_sliding_window(&s, w, 0, 0, 8).unwrap();
        for row in &table.rows {
            let wid = row[0].as_i64().unwrap() as u64;
            let ts = row[1].as_i64().unwrap();
            let (lo, hi) = w.windows_containing(0, ts).unwrap();
            assert!(
                wid >= lo && wid <= hi,
                "tuple at {ts} misplaced in window {wid}"
            );
        }
        // And conversely: count matches the sum over windows of slice sizes.
        let mut expected = 0;
        for k in 0..=8u64 {
            let (open, close) = w.bounds(0, k);
            expected += s.slice(open, close).len();
        }
        assert_eq!(table.len(), expected);
    }

    #[test]
    fn window_output_sorted_by_wid() {
        let w = WindowSpec::new(2_000, 1_000).unwrap();
        let s = stream_with_times(&[0, 500, 1_500]);
        let table = time_sliding_window(&s, w, 0, 0, 3).unwrap();
        let wids: Vec<i64> = table.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut sorted = wids.clone();
        sorted.sort_unstable();
        assert_eq!(wids, sorted);
    }

    #[test]
    fn last_closed() {
        let w = WindowSpec::new(10_000, 1_000).unwrap();
        assert_eq!(w.last_closed(0, 0), Some(0));
        assert_eq!(w.last_closed(0, 2_999), Some(2));
        assert_eq!(w.last_closed(1_000, 500), None);
    }
}

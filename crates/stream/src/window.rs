//! Time-based sliding windows.
//!
//! Windows of range `r` close at `start + k·slide` (k = 0, 1, …) and cover
//! the half-open interval `(close − r, close]` — the CQL snapshot
//! convention, matching the STARQL window `[NOW − r, NOW] → slide`. A slide
//! longer than the range leaves gaps no window covers. A tick reads a
//! window's rows by these bounds: the single-node tick filters the stream
//! table, a distributed one ships them as a `WindowSlice` fragment, and a
//! pane probe combines the panes between them.

use optique_relational::SqlError;

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

    /// The id of the last window closing at or before `ts` (`None` if `ts`
    /// precedes the first close).
    pub fn last_closed(&self, start: i64, ts: i64) -> Option<u64> {
        if ts < start {
            return None;
        }
        Some(((ts - start) / self.slide_ms) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids among the first `n` windows whose bounds hold instant `ts`.
    fn holding(w: &WindowSpec, start: i64, ts: i64, n: u64) -> Vec<u64> {
        (0..n)
            .filter(|&k| {
                let (open, close) = w.bounds(start, k);
                open < ts && ts <= close
            })
            .collect()
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
        // A tuple at t=0 is in the windows closing at 0..=9000 (close < 10000).
        assert_eq!(holding(&w, 0, 0, 40), (0..=9).collect::<Vec<_>>());
        // A tuple at 2500 is in the windows closing at 3000..=12000.
        assert_eq!(holding(&w, 0, 2_500, 40), (3..=12).collect::<Vec<_>>());
    }

    #[test]
    fn tumbling_window_membership() {
        let w = WindowSpec::new(1_000, 1_000).unwrap();
        // Tumbling: each tuple in exactly one window; (open, close] puts a
        // tuple exactly at a close time into that window.
        assert_eq!(holding(&w, 0, 1_000, 10), vec![1]);
        assert_eq!(holding(&w, 0, 999, 10), vec![1]);
        assert_eq!(holding(&w, 0, 1_001, 10), vec![2]);
    }

    #[test]
    fn tuple_before_all_windows() {
        let w = WindowSpec::new(1_000, 1_000).unwrap();
        assert!(holding(&w, 100_000, 5_000, 10).is_empty());
        assert_eq!(w.last_closed(100_000, 5_000), None);
    }

    #[test]
    fn every_tuple_lands_in_its_windows() {
        // The windows holding an instant are the run after the last window
        // to close before it, up to the last to close before it leaves the
        // range: `bounds` and `last_closed` agree.
        let w = WindowSpec::new(5_000, 2_000).unwrap();
        for ts in [0, 1_000, 2_500, 4_000, 8_000, 9_999] {
            let first = w.last_closed(0, ts - 1).map_or(0, |k| k + 1);
            let last = w.last_closed(0, ts + w.range_ms - 1).unwrap();
            assert_eq!(
                holding(&w, 0, ts, 40),
                (first..=last).collect::<Vec<_>>(),
                "tuple at {ts}"
            );
        }
    }

    #[test]
    fn window_output_sorted_by_wid() {
        // Window ids order windows by time: each window is its predecessor
        // moved by one slide, and closes when `last_closed` says it does.
        let w = WindowSpec::new(2_000, 1_000).unwrap();
        for k in 0..8u64 {
            let (open, close) = w.bounds(600_000, k);
            assert_eq!(w.bounds(600_000, k + 1), (open + 1_000, close + 1_000));
            assert_eq!(w.last_closed(600_000, close), Some(k));
            assert_eq!(w.close_time(600_000, k), close);
        }
    }

    #[test]
    fn last_closed() {
        let w = WindowSpec::new(10_000, 1_000).unwrap();
        assert_eq!(w.last_closed(0, 0), Some(0));
        assert_eq!(w.last_closed(0, 2_999), Some(2));
        assert_eq!(w.last_closed(1_000, 500), None);
    }
}

//! Property tests: the windows holding an instant are exactly the ones
//! `WindowSpec` predicts, and a shipped window slice holds exactly the rows
//! between its bounds, for arbitrary window specs.

use optique_relational::{table::table_of, ColumnType, Database, PlanFragment, Value, WindowSlice};
use optique_stream::WindowSpec;
use proptest::prelude::*;

proptest! {
    /// A window holds an instant exactly when its `(open, close]` bounds
    /// do, and those windows are the run `last_closed` predicts: every
    /// window after the last to close before the instant, up to the last to
    /// close before the instant leaves the range (none, in a gap).
    #[test]
    fn window_partitioning_invariant(
        range in 1i64..20_000,
        slide in 1i64..20_000,
        start in -5_000i64..5_000,
        times in proptest::collection::vec(0i64..30_000, 0..60),
    ) {
        let spec = WindowSpec::new(range, slide).unwrap();
        let last_window = 40u64;
        for &ts in &times {
            let holding: Vec<u64> = (0..=last_window)
                .filter(|&k| {
                    let (open, close) = spec.bounds(start, k);
                    open < ts && ts <= close
                })
                .collect();
            let first = spec.last_closed(start, ts - 1).map_or(0, |k| k + 1);
            let predicted: Vec<u64> = match spec.last_closed(start, ts + range - 1) {
                Some(last) => (first..=last.min(last_window)).collect(),
                None => Vec::new(),
            };
            prop_assert_eq!(holding, predicted, "tuple at {}", ts);
        }
    }

    /// Slices are consistent with window bounds: a `WindowSlice` fragment
    /// over window `k` returns the rows a plain `(open, close]` filter
    /// keeps — rows exactly at both bounds included.
    #[test]
    fn slice_matches_bounds(
        range in 1i64..10_000,
        slide in 1i64..10_000,
        k in 0u64..30,
        times in proptest::collection::vec(0i64..20_000, 1..40),
    ) {
        let spec = WindowSpec::new(range, slide).unwrap();
        let (open_ms, close_ms) = spec.bounds(0, k);
        let mut times = times;
        times.extend([open_ms, close_ms]);
        let rows: Vec<Vec<Value>> = times.iter().map(|&t| vec![Value::Timestamp(t)]).collect();
        let mut db = Database::new();
        db.put_table("s", table_of("s", &[("ts", ColumnType::Timestamp)], rows).unwrap());
        let window = WindowSlice { column: "ts".into(), open_ms, close_ms };
        let in_slice = PlanFragment::new(0, "SELECT ts FROM s", 1.0)
            .with_window(window)
            .execute(&db)
            .unwrap()
            .len();
        let by_filter = times.iter().filter(|&&t| t > open_ms && t <= close_ms).count();
        prop_assert_eq!(in_slice, by_filter);
    }
}

//! Boundary behavior of the stream substrate: empty windows, slides wider
//! than the range (gap windows), out-of-order pulses, window-cache
//! variants, and relation-to-stream diffs over degenerate inputs. Windows
//! are read the way a distributed tick reads them: a scan of the stream
//! table with the window's bounds as a `WindowSlice`.

use std::sync::Arc;

use optique_relational::{table::table_of, ColumnType, Database, PlanFragment, Value, WindowSlice};
use optique_stream::r2s::StreamDiffer;
use optique_stream::wcache::WCache;
use optique_stream::WindowSpec;

/// A stream table `s(ts, v)` with one row per instant, `v` its position.
fn stream_db(times: &[i64]) -> Database {
    let rows = times
        .iter()
        .enumerate()
        .map(|(i, &t)| vec![Value::Timestamp(t), Value::Int(i as i64)])
        .collect();
    let mut db = Database::new();
    db.put_table(
        "s",
        table_of(
            "s",
            &[("ts", ColumnType::Timestamp), ("v", ColumnType::Int)],
            rows,
        )
        .unwrap(),
    );
    db
}

/// The rows of the window `(open, close]`, as a tick ships it.
fn window_rows(db: &Database, open_ms: i64, close_ms: i64) -> Vec<Vec<Value>> {
    let window = WindowSlice {
        column: "ts".into(),
        open_ms,
        close_ms,
    };
    PlanFragment::new(0, "SELECT ts, v FROM s", 1.0)
        .with_window(window)
        .execute(db)
        .unwrap()
        .rows
}

/// The instants of the rows of window `k`.
fn window_times(db: &Database, w: WindowSpec, start: i64, k: u64) -> Vec<i64> {
    let (open, close) = w.bounds(start, k);
    (window_rows(db, open, close).iter())
        .map(|row| row[0].as_i64().unwrap())
        .collect()
}

// ---- empty windows ------------------------------------------------------

#[test]
fn empty_stream_yields_empty_windows() {
    let db = stream_db(&[]);
    let w = WindowSpec::new(5_000, 1_000).unwrap();
    assert!((0..=10).all(|k| window_times(&db, w, 0, k).is_empty()));
    assert!(window_rows(&db, i64::MIN + 1, i64::MAX).is_empty());
}

#[test]
fn window_past_the_data_is_empty() {
    let db = stream_db(&[1_000, 2_000]);
    let w = WindowSpec::new(1_000, 1_000).unwrap();
    // Window 10 covers (9000, 10000]: nothing there.
    assert!(window_times(&db, w, 0, 10).is_empty());
    // A window entirely before the data is just as empty.
    assert!(window_rows(&db, -10_000, -5_000).is_empty());
}

#[test]
fn window_boundaries_are_half_open() {
    let db = stream_db(&[1_000, 2_000, 3_000]);
    // (1000, 2000]: exactly the middle tuple — the one at the open instant
    // is out, the one at the close instant is in.
    assert_eq!(window_rows(&db, 1_000, 2_000).len(), 1);
    assert_eq!(
        window_rows(&db, 1_000, 2_000)[0][0],
        Value::Timestamp(2_000)
    );
    // (2000, 2000]: degenerate interval, empty.
    assert!(window_rows(&db, 2_000, 2_000).is_empty());
}

// ---- slide > range (gap windows) ----------------------------------------

#[test]
fn slide_wider_than_range_leaves_gaps() {
    // Range 1 s, slide 3 s: windows cover (-1s,0s], (2s,3s], (5s,6s], … —
    // tuples in the gaps belong to no window at all.
    let w = WindowSpec::new(1_000, 3_000).unwrap();
    let db = stream_db(&[500, 2_500, 4_000, 5_500]);
    let windows: Vec<Vec<i64>> = (0..=4).map(|k| window_times(&db, w, 0, k)).collect();
    // Only the tuples at 2500 (window 1) and 5500 (window 2) are read.
    assert_eq!(
        windows,
        vec![vec![], vec![2_500], vec![5_500], vec![], vec![]]
    );
    // The tick between two windows still answers the one before the gap.
    assert_eq!(w.last_closed(0, 4_000), Some(1));
}

// ---- out-of-order pulses ------------------------------------------------

#[test]
fn ticks_before_the_pulse_grid_close_nothing() {
    let w = WindowSpec::new(2_000, 1_000).unwrap();
    assert_eq!(w.last_closed(600_000, 599_999), None);
    assert_eq!(w.last_closed(600_000, 600_000), Some(0));
}

#[test]
fn out_of_order_ticks_are_idempotent_over_the_cache() {
    // A monitoring loop may re-tick an earlier instant (replay, retry):
    // the same window bounds resolve and the cache serves the same rows.
    let w = WindowSpec::new(2_000, 1_000).unwrap();
    let db = stream_db(&[600_500, 601_500, 602_500]);
    let cache = WCache::new();
    let materialize = |tick: i64| {
        let id = w.last_closed(600_000, tick).unwrap();
        let (open, close) = w.bounds(600_000, id);
        (cache.lookup("s", open, close, ""))
            .unwrap_or_else(|| cache.insert("s", open, close, "", window_rows(&db, open, close)))
    };
    let forward = materialize(602_000);
    let _ = materialize(603_000);
    let replay = materialize(602_000); // out-of-order: earlier tick again
    assert!(Arc::ptr_eq(&forward, &replay), "replay hits the cache");
    assert_eq!(forward.rows().len(), 2, "(600000, 602000] holds two rows");
    assert_eq!((cache.misses(), cache.hits()), (2, 1), "two windows built");
    assert_eq!(cache.len(), 2);
}

// ---- window-cache variants ----------------------------------------------

#[test]
fn wcache_variants_keep_restricted_windows_apart() {
    let cache = WCache::new();
    let full = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
    let restricted = vec![vec![Value::Int(1)]];
    cache.insert("s", 5_000, 7_000, "", full.clone());
    cache.insert("s", 5_000, 7_000, "⋉[Int(1)]", restricted.clone());
    assert_eq!(cache.len(), 2, "variants are distinct entries");
    assert_eq!(cache.lookup("s", 5_000, 7_000, "").unwrap().rows(), full);
    assert_eq!(
        cache.lookup("s", 5_000, 7_000, "⋉[Int(1)]").unwrap().rows(),
        restricted
    );
    assert!(cache.lookup("s", 5_000, 7_000, "⋉[Int(2)]").is_none());
    // A window with the same close and another range is another window.
    assert!(cache.lookup("s", 4_000, 7_000, "").is_none());
    // Eviction by watermark drops every variant of the window.
    cache.evict_below("s", 8_000, 8_000);
    assert!(cache.is_empty());
}

#[test]
fn wcache_insert_race_keeps_first() {
    let cache = WCache::new();
    let first = cache.insert("s", 0, 1_000, "", vec![vec![Value::Int(1)]]);
    let second = cache.insert("s", 0, 1_000, "", vec![vec![Value::Int(1)]]);
    assert!(
        Arc::ptr_eq(&first, &second),
        "first insert wins, later share"
    );
}

// ---- r2s over degenerate inputs -----------------------------------------

#[test]
fn differ_handles_empty_and_identical_ticks() {
    let mut d = StreamDiffer::new();
    let (ins, del) = d.tick(vec![]);
    assert!(ins.is_empty() && del.is_empty());
    let row = vec![vec![Value::Int(1)]];
    let _ = d.tick(row.clone());
    let (ins, del) = d.tick(row);
    assert!(ins.is_empty(), "identical relation inserts nothing");
    assert!(del.is_empty());
}

#[test]
fn first_tick_is_all_insertions_and_no_deletions() {
    // IStream's previous relation starts empty: the very first non-empty
    // tick inserts everything and deletes nothing — there is no phantom
    // deletion of a "pre-stream" state.
    let mut d = StreamDiffer::new();
    let rel = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
    let (ins, del) = d.tick(rel.clone());
    assert_eq!(ins, rel, "first tick: every tuple is new");
    assert!(del.is_empty(), "nothing existed to delete");
}

#[test]
fn empty_delta_ticks_emit_nothing_until_the_relation_changes() {
    // A stable relation produces a silent IStream/DStream for any number
    // of ticks; the next genuine change surfaces exactly the delta.
    let mut d = StreamDiffer::new();
    let rel = vec![vec![Value::Int(7)]];
    let _ = d.tick(rel.clone());
    for _ in 0..5 {
        let (ins, del) = d.tick(rel.clone());
        assert!(ins.is_empty() && del.is_empty(), "quiet tick stays quiet");
    }
    let (ins, del) = d.tick(vec![vec![Value::Int(8)]]);
    assert_eq!(ins, vec![vec![Value::Int(8)]]);
    assert_eq!(del, vec![vec![Value::Int(7)]]);
}

#[test]
fn relation_emptying_emits_full_dstream() {
    // The relation dropping to empty is a pure DStream tick — and staying
    // empty afterwards is a quiet tick, not a repeated deletion.
    let mut d = StreamDiffer::new();
    let rel = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
    let _ = d.tick(rel.clone());
    let (ins, del) = d.tick(vec![]);
    assert!(ins.is_empty());
    assert_eq!(del, rel, "every tuple deletes exactly once");
    let (ins, del) = d.tick(vec![]);
    assert!(ins.is_empty() && del.is_empty(), "no repeated deletions");
}

#[test]
fn differ_diffs_duplicate_rows_as_multisets() {
    // Duplicate rows are counted, not collapsed: going 2×a → 3×a inserts
    // one copy; 3×a → 1×a deletes two copies; and a swap of equal-count
    // duplicates is a no-op.
    let a = || vec![Value::Int(1)];
    let mut d = StreamDiffer::new();
    let _ = d.tick(vec![a(), a()]);
    let (ins, del) = d.tick(vec![a(), a(), a()]);
    assert_eq!(ins.len(), 1, "one extra copy inserts once");
    assert!(del.is_empty());
    let (ins, del) = d.tick(vec![a()]);
    assert!(ins.is_empty());
    assert_eq!(del.len(), 2, "two lost copies delete twice");
    let (ins, del) = d.tick(vec![a()]);
    assert!(ins.is_empty() && del.is_empty());
}

#[test]
fn gap_windows_produce_delta_bursts_between_empty_ticks() {
    // Slide 3 s over range 1 s: consecutive window contents alternate
    // between covered tuples and gap emptiness, so IStream/DStream fire in
    // bursts — insert on entering a covered window, delete on leaving it.
    let w = WindowSpec::new(1_000, 3_000).unwrap();
    let db = stream_db(&[2_500, 5_500]);
    let mut d: StreamDiffer<Vec<Value>> = StreamDiffer::new();
    let mut log = Vec::new();
    for id in 0..3u64 {
        let (open, close) = w.bounds(0, id);
        let (ins, del) = d.tick(window_rows(&db, open, close));
        log.push((ins.len(), del.len()));
    }
    // Window 0 (-1000,0] empty; window 1 (2000,3000] holds ts 2500;
    // window 2 (5000,6000] swaps it for ts 5500.
    assert_eq!(log, vec![(0, 0), (1, 0), (1, 1)]);
}

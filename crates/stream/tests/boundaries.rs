//! Boundary behavior of the stream substrate: empty windows, slides wider
//! than the range (gap windows), out-of-order pulses, window-cache
//! variants, and relation-to-stream diffs over degenerate inputs.

use std::sync::Arc;

use optique_relational::{Column, ColumnType, Schema, Table, Value};
use optique_stream::r2s::StreamDiffer;
use optique_stream::wcache::{WCache, Window};
use optique_stream::{time_sliding_window, Stream, WindowSpec};

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

// ---- empty windows ------------------------------------------------------

#[test]
fn empty_stream_yields_empty_windows() {
    let s = stream_with_times(&[]);
    let w = WindowSpec::new(5_000, 1_000).unwrap();
    let table = time_sliding_window(&s, w, 0, 0, 10).unwrap();
    assert!(table.is_empty());
    assert!(s.slice(i64::MIN + 1, i64::MAX).is_empty());
}

#[test]
fn window_past_the_data_is_empty() {
    let s = stream_with_times(&[1_000, 2_000]);
    let w = WindowSpec::new(1_000, 1_000).unwrap();
    // Window 10 covers (9000, 10000]: nothing there.
    let table = time_sliding_window(&s, w, 0, 10, 10).unwrap();
    assert!(table.is_empty());
    // A window entirely before the data is just as empty.
    assert!(s.slice(-10_000, -5_000).is_empty());
}

#[test]
fn window_boundaries_are_half_open() {
    let s = stream_with_times(&[1_000, 2_000, 3_000]);
    // (1000, 2000]: exactly the middle tuple.
    assert_eq!(s.slice(1_000, 2_000).len(), 1);
    // (2000, 2000]: degenerate interval, empty.
    assert!(s.slice(2_000, 2_000).is_empty());
}

// ---- slide > range (gap windows) ----------------------------------------

#[test]
fn slide_wider_than_range_leaves_gaps() {
    // Range 1 s, slide 3 s: windows cover (2s,3s], (5s,6s], … — tuples in
    // the gaps belong to no window at all.
    let w = WindowSpec::new(1_000, 3_000).unwrap();
    assert_eq!(w.windows_containing(0, 2_500), Some((1, 1)));
    assert_eq!(
        w.windows_containing(0, 4_000),
        None,
        "a tuple in the gap is in no window"
    );
    let s = stream_with_times(&[500, 2_500, 4_000, 5_500]);
    let table = time_sliding_window(&s, w, 0, 0, 4).unwrap();
    // Only the tuples at 2500 (window 1) and 5500 (window 2) materialize.
    assert_eq!(table.len(), 2);
    let wids: Vec<i64> = table.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(wids, vec![1, 2]);
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
    let s = stream_with_times(&[600_500, 601_500, 602_500]);
    let cache = WCache::new();
    let materialize = |tick: i64| -> Arc<Window> {
        let id = w.last_closed(600_000, tick).unwrap();
        let (open, close) = w.bounds(600_000, id);
        cache.get_or_build("s", open, close, "", || s.slice(open, close).to_vec())
    };
    let forward = materialize(602_000);
    let _ = materialize(603_000);
    let replay = materialize(602_000); // out-of-order: earlier tick again
    assert!(Arc::ptr_eq(&forward, &replay), "replay hits the cache");
    assert_eq!(cache.misses(), 2, "two distinct windows built");
    assert!(cache.hits() >= 1);
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
    let s = stream_with_times(&[2_500, 5_500]);
    let mut d: StreamDiffer<Vec<Value>> = StreamDiffer::new();
    let mut log = Vec::new();
    for id in 0..3u64 {
        let (open, close) = w.bounds(0, id);
        let (ins, del) = d.tick(s.slice(open, close).to_vec());
        log.push((ins.len(), del.len()));
    }
    // Window 0 (-1000,0] empty; window 1 (2000,3000] holds ts 2500;
    // window 2 (5000,6000] swaps it for ts 5500.
    assert_eq!(log, vec![(0, 0), (1, 0), (1, 1)]);
}

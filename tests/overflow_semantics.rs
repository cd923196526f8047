//! Integer-overflow semantics: arithmetic and SUM that leave the i64 range
//! must raise a typed [`SqlError::Overflow`] — never wrap — and they must do
//! so identically on a single node and on the distributed path (worker
//! partials + the coordinator's pane merge), so answers can't silently
//! diverge by topology.

use std::collections::BTreeMap;

use std::sync::Arc;

use optique_exastream::cluster::{hash_partition, Cluster};
use optique_exastream::gateway::{Gateway, StaticFragment};
use optique_relational::{
    compute_window_aggregates, merge_pane_rows, Column, ColumnType, Database, PaneProbe,
    PlanFragment, Schema, SqlError, Table, Value,
};

/// A table of one INT column `v` holding `values`, keyed for partitioning by
/// a leading `k` column (the row number); `g` puts every row in one group.
fn int_db(values: &[i64]) -> Database {
    let schema = Schema::new(vec![
        Column::new("k", ColumnType::Int),
        Column::new("v", ColumnType::Int),
        Column::new("g", ColumnType::Int),
    ]);
    let rows = values
        .iter()
        .enumerate()
        .map(|(i, &v)| vec![Value::Int(i as i64), Value::Int(v), Value::Int(0)])
        .collect();
    let mut db = Database::new();
    db.put_table("t", Table::new(schema, rows).unwrap());
    db
}

fn cluster_of(db: &Database, workers: usize) -> Cluster {
    let shards = hash_partition(db.table("t").unwrap(), 0, workers);
    Cluster::provision(workers, |id| {
        let mut wdb = Database::new();
        wdb.put_table("t", shards[id].clone());
        wdb
    })
}

/// Scalar `+` on i64::MAX overflows with the typed error on both paths.
#[test]
fn scalar_add_overflow_is_typed_and_topology_independent() {
    let db = int_db(&[1, i64::MAX]);
    let sql = "SELECT v + 1 AS w FROM t";

    let single = optique_relational::exec::query(sql, &db).unwrap_err();
    assert!(matches!(single, SqlError::Overflow(_)), "got {single}");

    let round = Gateway::new(Arc::new(cluster_of(&db, 2)))
        .run_static_round(&[StaticFragment::scattered(PlanFragment::new(0, sql, 1.0))]);
    let distributed = round.tables[0].clone().unwrap_err();
    assert!(
        matches!(distributed, SqlError::Overflow(_)),
        "got {distributed}"
    );
}

/// `i64::MIN / -1` and `i64::MIN % -1` are the division-shaped overflows;
/// division by zero stays NULL (SQLite semantics), not an error.
#[test]
fn division_edge_cases() {
    let db = int_db(&[i64::MIN]);
    for sql in ["SELECT v / -1 AS w FROM t", "SELECT v % -1 AS w FROM t"] {
        let err = optique_relational::exec::query(sql, &db).unwrap_err();
        assert!(matches!(err, SqlError::Overflow(_)), "{sql}: got {err}");
    }
    let null = optique_relational::exec::query("SELECT v / 0 AS w FROM t", &db).unwrap();
    assert_eq!(null.rows[0][0], Value::Null);
}

/// Integer SUM overflow: on one node the accumulator overflows; distributed,
/// each shard's pane partial fits but the coordinator's merge of them
/// overflows. Both must surface the same typed error — the differential
/// oracle for satellite semantics.
#[test]
fn sum_overflow_matches_between_single_node_and_merge() {
    let db = int_db(&[i64::MAX, i64::MAX]);

    let single = optique_relational::exec::query("SELECT SUM(v) AS s FROM t", &db).unwrap_err();
    assert!(matches!(single, SqlError::Overflow(_)), "got {single}");

    // Two shards, one MAX row each: a window over both rows (`k` is the
    // clock), one group — every shard's partial succeeds…
    let probe = PaneProbe {
        stream: "t".into(),
        ts_col: "k".into(),
        key_col: "g".into(),
        val_col: "v".into(),
        width_ms: 2,
        start_ms: -1,
        open_ms: -1,
        close_ms: 1,
        needs_extrema: false,
    };
    let cluster = cluster_of(&db, 2);
    let partials: Vec<Table> = cluster
        .workers()
        .iter()
        .map(|w| compute_window_aggregates(&probe, &w.db).unwrap())
        .collect();
    assert!(partials
        .iter()
        .all(|t| t.rows.len() == 1 && t.rows[0][2] == Value::Int(i64::MAX)));
    // …and the gather-side merge is where the overflow must reappear.
    let mut groups = BTreeMap::new();
    merge_pane_rows(&mut groups, &partials[0].rows).unwrap();
    let merged = merge_pane_rows(&mut groups, &partials[1].rows).unwrap_err();
    assert!(matches!(merged, SqlError::Overflow(_)), "got {merged}");
}

/// Sums that stay in range keep returning exact integers (no float detour).
#[test]
fn in_range_sum_stays_exact_int() {
    let db = int_db(&[i64::MAX - 10, 7]);
    let sql = "SELECT SUM(v) AS s FROM t";
    let t = optique_relational::exec::query(sql, &db).unwrap();
    assert_eq!(t.rows[0][0], Value::Int(i64::MAX - 3));
}

//! Property tests: value-order laws, optimizer-equivalence on generated
//! queries, and hostile SQL text.

use optique_relational::{table::table_of, ColumnType, Database, SqlError, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1e9f64..1e9f64).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    /// total_cmp is a total order: antisymmetric and transitive.
    #[test]
    fn value_order_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    /// Eq-equal values hash equally (HashMap soundness).
    #[test]
    fn equal_values_hash_equal(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// The optimizer never changes answers: random filters over a table run
    /// identically optimized and unoptimized.
    #[test]
    fn optimizer_preserves_answers(
        rows in proptest::collection::vec((0i64..20, -50i64..50), 0..60),
        threshold in -50i64..50,
        key in 0i64..20,
    ) {
        let table = table_of(
            "m",
            &[("k", ColumnType::Int), ("v", ColumnType::Int)],
            rows.iter().map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]).collect(),
        )
        .unwrap();
        let mut db = Database::new();
        db.put_table("m", table);
        let sql = format!(
            "SELECT k, v FROM m WHERE v >= {threshold} AND k = {key} ORDER BY v DESC, k"
        );
        let stmt = optique_relational::parse_select(&sql).unwrap();
        let plan = optique_relational::plan::plan_select(&stmt, &db).unwrap();
        let unopt = optique_relational::exec::execute(&plan, &db).unwrap();
        let opt_plan = optique_relational::optimizer::optimize(plan);
        let opt = optique_relational::exec::execute(&opt_plan, &db).unwrap();
        prop_assert_eq!(unopt.rows, opt.rows);
    }

    /// Aggregates computed by the engine match hand-rolled fold.
    #[test]
    fn aggregates_match_reference(
        rows in proptest::collection::vec((0i64..5, -100i64..100), 1..60),
    ) {
        let table = table_of(
            "m",
            &[("k", ColumnType::Int), ("v", ColumnType::Int)],
            rows.iter().map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]).collect(),
        )
        .unwrap();
        let mut db = Database::new();
        db.put_table("m", table);
        let out = optique_relational::exec::query(
            "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM m GROUP BY k",
            &db,
        )
        .unwrap();
        for row in &out.rows {
            let k = row[0].as_i64().unwrap();
            let group: Vec<i64> = rows.iter().filter(|(g, _)| *g == k).map(|(_, v)| *v).collect();
            prop_assert_eq!(row[1].as_i64().unwrap(), group.len() as i64);
            prop_assert_eq!(row[2].as_i64().unwrap(), group.iter().sum::<i64>());
            prop_assert_eq!(row[3].as_i64().unwrap(), *group.iter().min().unwrap());
            prop_assert_eq!(row[4].as_i64().unwrap(), *group.iter().max().unwrap());
        }
    }
}

/// Cases for the hostile-text property: `PROPTEST_CASES` when set.
fn hostile_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Valid statements to edit — every clause the parser knows, and a
/// function call in FROM, which it refuses.
const SEEDS: &[&str] = &[
    "SELECT k, v FROM m WHERE v >= 3 AND k IN (1, 2) ORDER BY v DESC LIMIT 5",
    "SELECT k, COUNT(*) AS n, AVG(v) FROM m GROUP BY k HAVING COUNT(*) > 1",
    "SELECT a.k FROM m AS a JOIN m b ON a.k = b.k LEFT JOIN m c ON c.v = a.v",
    "SELECT x FROM (SELECT k AS x FROM m) AS s UNION ALL SELECT v FROM m",
    "SELECT CEIL((v - 5) / 2.0) - 1 AS b, COUNT(*) FROM m GROUP BY CEIL((v - 5) / 2.0)",
    "SELECT * FROM sliding_window('m', 0, 10000, 1000) AS w",
];

/// What gets spliced in: brackets, quotes, clause keywords, a function call
/// opening, non-ASCII and an over-long number.
const JUNK: &[&str] = &[
    "(",
    ")",
    ",",
    "'",
    "''",
    " FROM ",
    " AS ",
    " f(",
    " JOIN ",
    " ON ",
    " SELECT ",
    "é",
    "-",
    "*",
    ".",
    "99999999999999999999",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(hostile_cases()))]

    /// A valid statement with one to three edits — junk inserted, a run
    /// deleted, the tail cut off — comes back from parse, plan and execute
    /// as `Ok` or `Err`, never a panic; a parse error points into the text.
    #[test]
    fn hostile_sql_never_panics(
        seed in 0usize..64,
        edits in proptest::collection::vec((0usize..3, 0usize..200, 0usize..6, 0usize..64), 1..4),
    ) {
        let mut text: Vec<char> = SEEDS[seed % SEEDS.len()].chars().collect();
        for (kind, at, len, junk) in edits {
            let at = at % (text.len() + 1);
            match kind {
                0 => {
                    let tail = text.split_off(at);
                    text.extend(JUNK[junk % JUNK.len()].chars());
                    text.extend(tail);
                }
                1 => {
                    text.drain(at..(at + len).min(text.len()));
                }
                _ => text.truncate(at),
            }
        }
        let sql: String = text.into_iter().collect();
        let table = table_of(
            "m",
            &[("k", ColumnType::Int), ("v", ColumnType::Int)],
            (0..8).map(|i| vec![Value::Int(i % 3), Value::Int(i)]).collect(),
        )
        .unwrap();
        let mut db = Database::new();
        db.put_table("m", table);
        if let Err(SqlError::Parse { offset, .. }) = optique_relational::exec::query(&sql, &db) {
            prop_assert!(offset <= sql.len(), "offset {} past {:?}", offset, sql);
        }
    }
}

//! Property tests: value-order laws and optimizer-equivalence on
//! generated queries.

use optique_relational::{table::table_of, ColumnType, Database, Value};
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

//! Property tests: value-order laws, optimizer-equivalence on generated
//! queries, and hostile SQL text.

use optique_relational::fragment::restrict_statement;
use optique_relational::iri_template::IriTemplate;
use optique_relational::{table::table_of, ColumnType, Database, SemiJoin, SqlError, Table, Value};
use proptest::prelude::*;

const TWO_POW_53: i64 = 1 << 53;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1e9f64..1e9f64).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::text),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|i| Value::Timestamp(i as i64)),
        // Where one f64 stands for several integers, and the integral
        // floats there.
        (any::<bool>(), -3i64..3).prop_map(|(neg, d)| {
            let i = TWO_POW_53 + d;
            Value::Int(if neg { -i } else { i })
        }),
        (any::<bool>(), -3i64..3).prop_map(|(neg, d)| {
            let f = (TWO_POW_53 + d) as f64;
            Value::Float(if neg { -f } else { f })
        }),
        prop_oneof![Just(-0.0), Just(0.0), Just(f64::INFINITY), Just(f64::NAN)]
            .prop_map(Value::Float),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(64)))]

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

    /// The optimizer never changes answers on the statements the unfolder
    /// and semi-join pushdown emit: `UNION ALL` chains of
    /// `SELECT DISTINCT iri_template(P, key) … FROM (…) u0 JOIN (…) u1`,
    /// some with the unfolder's constant test `WHERE iri_template(P, u0.key)
    /// = 'c'`, each wrapped in `a IN (…) OR a IS NULL` or not, over keys of
    /// every type (INT, FLOAT and TIMESTAMP columns holding `Int`s, NULLs,
    /// digit text, `""`, integers near ±2^53), constants and restriction
    /// lists of IRIs some key renders, `+5` and foreign ones, lists on both
    /// sides of the `IN`-set threshold, and repeated scans. Row for row,
    /// order included.
    #[test]
    fn optimizer_preserves_answers_on_restricted_unfoldings(
        rows in proptest::collection::vec(arb_key_row(), 0..12),
        joins in proptest::collection::vec(0i64..2, 0..3),
        disjuncts in proptest::collection::vec(
            (0usize..KEYS.len(), 0usize..PATTERNS.len(), arb_constant()),
            1..5,
        ),
        restricted in any::<bool>(),
        restriction in proptest::collection::vec(arb_restriction_value(), 0..14),
        extra in 0usize..4,
    ) {
        let db = key_db(rows, joins);
        let chain: Vec<String> = disjuncts
            .iter()
            .map(|(key, pattern, constant)| {
                let disjunct = unfolded_disjunct(KEYS[*key].0, PATTERNS[*pattern]);
                match constant {
                    None => disjunct,
                    Some((key, pattern, iri)) => format!(
                        "{disjunct} WHERE iri_template('{}', u0.{}) = '{iri}'",
                        PATTERNS[*pattern], KEYS[*key].0
                    ),
                }
            })
            .collect();
        let statement = optique_relational::parse_select(&chain.join(" UNION ALL ")).unwrap();
        let semi_joins: Vec<SemiJoin> =
            restricted.then(|| SemiJoin::new("a", restriction)).into_iter().collect();
        let statement = restrict_statement(statement, &semi_joins);
        // One more outer test per disjunct, of the forms the scan lowers.
        let extra = [
            None,
            Some("a = 'http://x/k/5'"),
            Some("NOT (a IN ('http://x/k/', NULL)) OR b IS NULL"),
            Some("a IS NOT NULL AND a <> 'http://x/k/7'"),
        ][extra];
        let statement = match extra {
            None => statement,
            Some(test) => {
                let wrapped = format!("SELECT * FROM ({statement}) AS w WHERE {test}");
                optique_relational::parse_select(&wrapped).unwrap()
            }
        };
        let plan = optique_relational::plan::plan_select(&statement, &db).unwrap();
        let unopt = optique_relational::exec::execute(&plan, &db).unwrap();
        let opt_plan = optique_relational::optimizer::optimize(plan);
        let opt = optique_relational::exec::execute(&opt_plan, &db).unwrap();
        prop_assert_eq!(unopt.rows, opt.rows, "plan:\n{}", opt_plan.explain());
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

/// The key columns of `s`, by type: each admits what its type admits, so
/// FLOAT and TIMESTAMP keys also hold `Int` values, which render another
/// way (`…/5`, not `…/5.0` or `…/@5`).
const KEYS: [(&str, ColumnType); 4] = [
    ("k", ColumnType::Int),
    ("f", ColumnType::Float),
    ("t", ColumnType::Timestamp),
    ("x", ColumnType::Text),
];

/// Templates the disjuncts mint through — one without a slot, which mints
/// the same IRI for every key.
const PATTERNS: [&str; 3] = ["http://x/k/{}", "http://x/k/{}/v", "http://x/k/"];

fn arb_int_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..3).prop_map(Value::Int),
        (-2i64..2).prop_map(|d| Value::Int(TWO_POW_53 + d)),
        (-2i64..2).prop_map(|d| Value::Int(-TWO_POW_53 + d)),
    ]
}

/// One row of `s(k INT, f FLOAT, t TIMESTAMP, x TEXT, j INT)`.
fn arb_key_row() -> impl Strategy<Value = Vec<Value>> {
    let float = prop_oneof![
        arb_int_key(),
        Just(Value::Float(5.0)),
        Just(Value::Float(0.5)),
        Just(Value::Float(TWO_POW_53 as f64)),
    ];
    let timestamp = prop_oneof![arb_int_key(), (0i64..3).prop_map(Value::Timestamp)];
    let text = prop_oneof![
        Just(Value::Null),
        Just(Value::text("")),
        Just(Value::text("5")),
        Just(Value::text("a7")),
        Just(Value::text("9007199254740993")),
    ];
    let join = prop_oneof![Just(Value::Null), (0i64..2).prop_map(Value::Int)];
    (arb_int_key(), float, timestamp, text, join).prop_map(|(k, f, t, x, j)| vec![k, f, t, x, j])
}

/// A key some column of `s` may hold, to render into an IRI.
fn arb_rendered_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_int_key(),
        (0i64..3).prop_map(Value::Timestamp),
        Just(Value::Float(5.0)),
        Just(Value::Float(0.5)),
        Just(Value::text("")),
        Just(Value::text("5")),
        Just(Value::text("a7")),
    ]
}

/// A restriction value: an IRI some key of some type renders through some
/// pattern, an IRI no key renders, or a non-text value.
fn arb_restriction_value() -> impl Strategy<Value = Value> {
    (0u8..6, arb_rendered_key(), 0usize..PATTERNS.len())
        .prop_map(|(pick, key, p)| match pick {
            0 => Value::text("http://x/k/+5"),
            1 => Value::Int(5),
            _ => IriTemplate::new(PATTERNS[p]).mint(&key),
        })
        .prop_filter("restriction lists hold no NULL", |v| !v.is_null())
}

/// Maybe a constant the unfolder tests a key column against, as `(key,
/// pattern, IRI)`: mostly an IRI the pattern renders from some key, else
/// `+5` or a foreign IRI.
fn arb_constant() -> impl Strategy<Value = Option<(usize, usize, String)>> {
    let column = (0usize..KEYS.len(), 0usize..PATTERNS.len());
    (any::<bool>(), column, 0u8..6, arb_rendered_key()).prop_map(
        |(on, (column, pattern), pick, key)| {
            let iri = match pick {
                0 => "http://x/k/+5".to_string(),
                1 => "http://y/k/5".to_string(),
                _ => IriTemplate::new(PATTERNS[pattern]).render(&key)?,
            };
            on.then_some((column, pattern, iri))
        },
    )
}

/// `s` from generated rows, `r(j INT)` from generated join keys.
fn key_db(rows: Vec<Vec<Value>>, joins: Vec<i64>) -> Database {
    let mut columns: Vec<(&str, ColumnType)> = KEYS.to_vec();
    columns.push(("j", ColumnType::Int));
    let mut db = Database::new();
    db.put_table("s", table_of("s", &columns, rows).unwrap());
    let joins = joins.into_iter().map(|j| vec![Value::Int(j)]).collect();
    db.put_table(
        "r",
        table_of("r", &[("j", ColumnType::Int)], joins).unwrap(),
    );
    db
}

/// One disjunct as the unfolder writes it: DISTINCT IRIs minted over a
/// join of two mapping sources.
fn unfolded_disjunct(key: &str, pattern: &str) -> String {
    format!(
        "SELECT DISTINCT iri_template('{pattern}', u0.{key}) AS a, \
         iri_template('http://x/j/{{}}', u1.j) AS b \
         FROM (SELECT k, f, t, x, j FROM s) u0 JOIN (SELECT j FROM r) u1 ON u0.j = u1.j"
    )
}

fn optimized_and_not(sql: &str, db: &Database) -> (Table, Table) {
    let statement = optique_relational::parse_select(sql).unwrap();
    let plan = optique_relational::plan::plan_select(&statement, db).unwrap();
    let unopt = optique_relational::exec::execute(&plan, db).unwrap();
    let opt = optique_relational::exec::execute(&optique_relational::optimizer::optimize(plan), db);
    (unopt, opt.unwrap())
}

/// A TIMESTAMP key holding `Int(5)` mints `…/5`, which no timestamp's
/// spelling (`@5`) inverts to: inverting by the declared type would drop
/// the row, so that restriction must keep rendering at the scan.
#[test]
fn timestamp_key_holding_an_int_still_matches_after_optimization() {
    let db = key_db(
        vec![vec![
            Value::Null,
            Value::Null,
            Value::Int(5),
            Value::Null,
            Value::Int(0),
        ]],
        vec![0],
    );
    let sql = format!(
        "SELECT a FROM ({}) AS u WHERE a IN ('http://x/k/5')",
        unfolded_disjunct("t", PATTERNS[0])
    );
    let (unopt, opt) = optimized_and_not(&sql, &db);
    assert_eq!(unopt.rows, vec![vec![Value::text("http://x/k/5")]]);
    assert_eq!(opt.rows, unopt.rows);
}

/// Cases per property: `PROPTEST_CASES` when set, `default` otherwise.
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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
    #![proptest_config(ProptestConfig::with_cases(cases_or(256)))]

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

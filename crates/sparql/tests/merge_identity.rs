//! The federated merge deduplicates SQL rows by the identity of the RDF
//! terms they convert to, and converts only first occurrences. Over
//! generated tables whose cells mix values that are equal as SQL values but
//! different terms — `Int(5)`, `Float(5.0)` and `Timestamp(5)` — values
//! that are different SQL values but one term (NaN payloads), `±0.0`,
//! booleans, NULL and the text of a number, `solutions_from_tables` must
//! equal converting every row and then deduplicating the terms, row for
//! row and in order. That reference is the merge as it was before it
//! deduplicated by identity.

use std::collections::HashSet;

use optique_relational::{Column, ColumnType, Schema, Table, Value};
use optique_sparql::compile::value_to_term;
use optique_sparql::{solutions_from_tables, SolutionSet};
use proptest::prelude::*;

/// Convert every row, then keep each row of terms the first time it is
/// seen.
fn convert_then_distinct(vars: Vec<String>, tables: Vec<Table>) -> SolutionSet {
    let mut rows = Vec::new();
    for table in &tables {
        for row in &table.rows {
            rows.push(row.iter().map(value_to_term).collect::<Vec<_>>());
        }
    }
    let mut seen = HashSet::new();
    rows.retain(|row| seen.insert(row.clone()));
    SolutionSet { vars, rows }
}

/// Cells that collide as SQL values, as terms, or as neither.
fn cell(pick: usize) -> Value {
    match pick {
        0 => Value::Int(5),
        1 => Value::Float(5.0),
        2 => Value::Timestamp(5),
        3 => Value::text("5"),
        4 => Value::Int(0),
        5 => Value::Float(0.0),
        6 => Value::Float(-0.0),
        7 => Value::Float(f64::NAN),
        8 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        9 => Value::Float(-f64::NAN),
        10 => Value::Bool(true),
        11 => Value::Bool(false),
        12 => Value::Null,
        13 => Value::text("http://x/5"),
        _ => Value::Float(2.5),
    }
}

const CELLS: usize = 15;

fn tables() -> impl Strategy<Value = Vec<Table>> {
    let row = proptest::collection::vec(0usize..CELLS, 2..=2)
        .prop_map(|picks| picks.into_iter().map(cell).collect::<Vec<_>>());
    let table = proptest::collection::vec(row, 0..12).prop_map(|rows| Table {
        schema: Schema::new(vec![
            Column::new("a", ColumnType::Any),
            Column::new("b", ColumnType::Any),
        ]),
        rows,
    });
    proptest::collection::vec(table, 0..4)
}

/// Cases per property: `PROPTEST_CASES` when set, `default` otherwise.
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(256)))]

    #[test]
    fn merge_equals_convert_then_distinct(tables in tables()) {
        let vars = vec!["a".to_string(), "b".to_string()];
        let merged = solutions_from_tables(vars.clone(), tables.clone());
        prop_assert_eq!(merged, convert_then_distinct(vars, tables));
    }
}

/// The collisions the property draws, pinned: one number in four types is
/// four terms, `±0.0` are two, and every NaN is one.
#[test]
fn identity_is_the_terms_not_the_values() {
    let merged = |picks: &[usize]| {
        let table = Table {
            schema: Schema::new(vec![Column::new("a", ColumnType::Any)]),
            rows: picks.iter().map(|&p| vec![cell(p)]).collect(),
        };
        solutions_from_tables(vec!["a".to_string()], vec![table])
    };
    assert_eq!(merged(&[0, 1, 2, 3, 0]).len(), 4, "one number, four terms");
    assert_eq!(merged(&[5, 6, 5, 6]).len(), 2, "±0.0, two terms");
    assert_eq!(merged(&[7, 8, 9, 7]).len(), 1, "every NaN, one term");
    assert_eq!(
        merged(&[12, 10, 12, 11, 10]).len(),
        3,
        "unbound, true, false"
    );
}

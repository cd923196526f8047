//! `BENCH_HISTORY.json` is well formed: the benchmark's trajectory, one
//! row per (PR, workload, metric, seed) with the parent's and the change's
//! median over the pairs run, how many pairs the change won, and where the
//! row came from (`"changelog"`: back-filled from a CHANGES.md pair table;
//! `"measured"`: appended by the PR that ran the pairs). A value a source
//! did not record is `null`.
//!
//! The file is a JSON array with one flat row object per line, so this
//! check reads it without a JSON crate. It fails on a malformed row, on a
//! workload or metric `BENCHMARK.json` does not declare, on a duplicate
//! key, and on a ratio that disagrees with its two values. It does not
//! judge the numbers.

use std::collections::{BTreeMap, BTreeSet};

const HISTORY: &str = include_str!("../BENCH_HISTORY.json");
const BENCHMARK: &str = include_str!("../BENCHMARK.json");

/// The fields every row has, and nothing else.
const FIELDS: [&str; 12] = [
    "pr",
    "workload",
    "metric",
    "seed",
    "parent",
    "change",
    "ratio",
    "parent_q1",
    "parent_q3",
    "pairs",
    "wins",
    "source",
];

/// A recorded ratio is `change / parent` rounded to at least two decimals.
const RATIO_TOLERANCE: f64 = 0.005;

#[derive(Clone, Debug, PartialEq)]
enum Cell {
    Null,
    Number(f64),
    Text(String),
}

/// Parses one flat object: `{"key": value, …}` with string, number and
/// `null` values, strings without escapes.
fn parse_row(line: &str) -> Result<BTreeMap<String, Cell>, String> {
    let body = (line.strip_prefix('{'))
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or("a row is one {…} object on one line")?;
    let mut row = BTreeMap::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let (key, after) = string(rest)?;
        let after = (after.trim_start().strip_prefix(':'))
            .ok_or_else(|| format!("no ':' after \"{key}\""))?
            .trim_start();
        let (cell, after) = match after.strip_prefix('"') {
            Some(_) => {
                let (text, after) = string(after)?;
                (Cell::Text(text), after)
            }
            None => {
                let end = after.find(',').unwrap_or(after.len());
                let token = after[..end].trim();
                let cell = match token {
                    "null" => Cell::Null,
                    number => Cell::Number(
                        (number.parse::<f64>().ok())
                            .filter(|n| n.is_finite())
                            .ok_or_else(|| format!("\"{key}\": {number:?} is no number"))?,
                    ),
                };
                (cell, &after[end..])
            }
        };
        if row.insert(key.clone(), cell).is_some() {
            return Err(format!("\"{key}\" twice"));
        }
        let after = after.trim_start();
        rest = match after.strip_prefix(',') {
            Some(next) => next.trim_start(),
            None if after.is_empty() => after,
            None => return Err(format!("junk after \"{key}\": {after:?}")),
        };
    }
    Ok(row)
}

/// A leading `"…"` string and what follows it.
fn string(text: &str) -> Result<(String, &str), String> {
    let inner = text
        .strip_prefix('"')
        .ok_or("a key or text value is a string")?;
    let end = inner.find('"').ok_or("an unterminated string")?;
    let value = &inner[..end];
    if value.contains('\\') {
        return Err(format!("{value:?}: no escapes"));
    }
    Ok((value.to_string(), &inner[end + 1..]))
}

/// The row's value of `field` as a number, `None` for `null`.
fn number(row: &BTreeMap<String, Cell>, field: &str) -> Result<Option<f64>, String> {
    match &row[field] {
        Cell::Null => Ok(None),
        Cell::Number(n) => Ok(Some(*n)),
        Cell::Text(_) => Err(format!("{field} is a number or null")),
    }
}

/// The row's value of `field` as a whole number, `None` for `null`.
fn count(row: &BTreeMap<String, Cell>, field: &str) -> Result<Option<u64>, String> {
    match number(row, field)? {
        Some(n) if n < 0.0 || n.fract() != 0.0 => Err(format!("{field} {n} is no count")),
        n => Ok(n.map(|n| n as u64)),
    }
}

fn text<'r>(row: &'r BTreeMap<String, Cell>, field: &str) -> Result<&'r str, String> {
    match &row[field] {
        Cell::Text(text) if !text.is_empty() => Ok(text),
        _ => Err(format!("{field} is a non-empty string")),
    }
}

/// Checks one parsed row; returns its key.
fn check(row: &BTreeMap<String, Cell>) -> Result<(u64, String, String, Option<u64>), String> {
    let fields: BTreeSet<&str> = row.keys().map(String::as_str).collect();
    if fields != BTreeSet::from(FIELDS) {
        return Err(format!("fields {fields:?}, want {FIELDS:?}"));
    }
    let pr = count(row, "pr")?.ok_or("pr is set")?;
    let (workload, metric) = (text(row, "workload")?, text(row, "metric")?);
    if !BENCHMARK.contains(&format!("{{\"name\": \"{workload}\", \"why\"")) {
        return Err(format!("BENCHMARK.json declares no workload {workload}"));
    }
    if !BENCHMARK.contains(&format!("{{\"name\": \"{metric}\", \"unit\"")) {
        return Err(format!("BENCHMARK.json declares no metric {metric}"));
    }
    if !matches!(text(row, "source")?, "changelog" | "measured") {
        return Err("source is \"changelog\" or \"measured\"".into());
    }
    let seed = count(row, "seed")?;
    let (parent, change) = (number(row, "parent")?, number(row, "change")?);
    if let Some(ratio) = number(row, "ratio")? {
        let (Some(parent), Some(change)) = (parent, change) else {
            return Err("a ratio needs both medians".into());
        };
        if parent <= 0.0 || (ratio - change / parent).abs() > RATIO_TOLERANCE {
            return Err(format!("ratio {ratio} is not {change} / {parent}"));
        }
    }
    if let (Some(q1), Some(q3)) = (number(row, "parent_q1")?, number(row, "parent_q3")?) {
        if !(q1 <= q3 && parent.is_none_or(|median| q1 <= median && median <= q3)) {
            return Err(format!(
                "quartiles {q1}–{q3} do not hold the median {parent:?}"
            ));
        }
    }
    if let (Some(pairs), Some(wins)) = (count(row, "pairs")?, count(row, "wins")?) {
        if pairs == 0 || wins > pairs {
            return Err(format!("{wins} wins of {pairs} pairs"));
        }
    }
    Ok((pr, workload.to_string(), metric.to_string(), seed))
}

#[test]
fn every_row_is_well_formed_and_its_ratio_agrees() {
    let lines: Vec<&str> = HISTORY.lines().map(str::trim).collect();
    assert_eq!(lines.first(), Some(&"["), "the file opens an array");
    assert_eq!(lines.last(), Some(&"]"), "the file closes the array");
    let rows = &lines[1..lines.len() - 1];
    assert!(!rows.is_empty(), "no rows");
    let mut keys = BTreeSet::new();
    for (i, line) in rows.iter().enumerate() {
        let last = i + 1 == rows.len();
        let object = match line.strip_suffix(',') {
            Some(_) if last => panic!("line {}: a comma after the last row", i + 2),
            Some(object) => object,
            None if last => line,
            None => panic!("line {}: rows are separated by commas", i + 2),
        };
        let key = parse_row(object)
            .and_then(|row| check(&row))
            .unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 2));
        assert!(keys.insert(key.clone()), "line {}: {key:?} twice", i + 2);
    }
}

#[test]
fn the_check_refuses_what_it_must() {
    let good = r#"{"pr": 1, "workload": "fleet_stream", "metric": "op_p50_us", "seed": 1, "parent": 100, "change": 110, "ratio": 1.1, "parent_q1": 90, "parent_q3": 105, "pairs": 10, "wins": 2, "source": "measured"}"#;
    assert!(parse_row(good).and_then(|row| check(&row)).is_ok());
    for (from, to) in [
        ("\"ratio\": 1.1", "\"ratio\": 0.9"),
        ("\"wins\": 2", "\"wins\": 11"),
        ("\"parent_q3\": 105", "\"parent_q3\": 95"),
        ("fleet_stream", "fleet_dream"),
        ("op_p50_us", "op_p51_us"),
        ("\"measured\"", "\"guessed\""),
        ("\"seed\": 1, ", ""),
        ("\"pairs\": 10", "\"pairs\": ten"),
        ("\"parent\": 100", "\"parent\": null"),
    ] {
        let bad = good.replace(from, to);
        assert!(
            parse_row(&bad).and_then(|row| check(&row)).is_err(),
            "{bad}"
        );
    }
}

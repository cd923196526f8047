//! Keyword-driven discovery of complex mappings.
//!
//! "For more complex mappings, BOOTOX requires users to provide a set of
//! examples of entities from the class … where each example is a set of
//! keywords, e.g., `{albatros, gas, 2008}`. Then the system turns these
//! keywords into SQL queries by exploiting graph based techniques similar
//! to \[8\] (DISCOVER) for keyword-based query answering over DBs."
//!
//! The implementation follows DISCOVER's shape: each keyword matches
//! tables/columns (by name) and rows (by value); matched tables are nodes
//! in the schema's FK join graph; a minimal connecting subtree (BFS-grown
//! Steiner-tree approximation) becomes a join query proposal whose
//! projection is the PK of a user-chosen (or heuristically chosen) center
//! table.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use optique_relational::{Database, Value};

use crate::schema::RelationalSchema;

/// A proposed mapping source discovered from keywords.
#[derive(Clone, Debug, PartialEq)]
pub struct KeywordCandidate {
    /// The table whose PK will mint instance IRIs.
    pub center_table: String,
    /// The generated SQL source.
    pub sql: String,
    /// Which keyword matched where (`keyword → table.column`), for the
    /// interactive UI's explanation panel.
    pub matches: BTreeMap<String, String>,
    /// Relevance score (matched keywords / total keywords).
    pub score: f64,
}

/// Finds join-query candidates covering as many keywords as possible.
/// Returns candidates sorted by descending score, best first.
pub fn discover_by_keywords(
    schema: &RelationalSchema,
    db: &Database,
    keywords: &[&str],
) -> Vec<KeywordCandidate> {
    if keywords.is_empty() {
        return Vec::new();
    }
    // 1. Match keywords against table names, column names and cell values.
    //    keyword → set of (table, column-for-explanation).
    let mut hits: HashMap<&str, BTreeSet<(String, String)>> = HashMap::new();
    for table in &schema.tables {
        let Ok(data) = db.table(&table.name) else {
            continue;
        };
        for kw in keywords {
            let kw_lower = kw.to_ascii_lowercase();
            if table.name.to_ascii_lowercase().contains(&kw_lower) {
                hits.entry(kw)
                    .or_default()
                    .insert((table.name.clone(), "<name>".into()));
            }
            for (c_idx, column) in table.columns.iter().enumerate() {
                if column.name.to_ascii_lowercase().contains(&kw_lower) {
                    hits.entry(kw)
                        .or_default()
                        .insert((table.name.clone(), column.name.clone()));
                    continue;
                }
                let Some(idx) = data.schema.index_of(&column.name) else {
                    continue;
                };
                let _ = c_idx;
                let value_hit = data.rows.iter().any(|row| match &row[idx] {
                    Value::Text(s) => s.to_ascii_lowercase().contains(&kw_lower),
                    other if !other.is_null() => other.to_string().contains(kw),
                    _ => false,
                });
                if value_hit {
                    hits.entry(kw)
                        .or_default()
                        .insert((table.name.clone(), column.name.clone()));
                }
            }
        }
    }
    if hits.is_empty() {
        return Vec::new();
    }

    // 2. FK adjacency over tables (undirected).
    let mut adjacency: HashMap<&str, Vec<(&str, String)>> = HashMap::new();
    for table in &schema.tables {
        for fk in &table.foreign_keys {
            if let (Some(t), [col], [rc]) = (
                schema.table(&fk.ref_table),
                fk.columns.as_slice(),
                fk.ref_columns.as_slice(),
            ) {
                let cond = format!("{}.{} = {}.{}", table.name, col, t.name, rc);
                adjacency
                    .entry(&table.name)
                    .or_default()
                    .push((&t.name, cond.clone()));
                adjacency
                    .entry(&t.name)
                    .or_default()
                    .push((&table.name, cond));
            }
        }
    }

    // 3. For each matched table as a potential center, grow a BFS tree until
    //    it touches a table for every matched keyword; emit a candidate.
    let matched_tables: BTreeSet<&str> = hits
        .values()
        .flat_map(|s| s.iter().map(|(t, _)| t.as_str()))
        .collect();

    let mut candidates = Vec::new();
    for center in &matched_tables {
        let Some(center_table) = schema.table(center) else {
            continue;
        };
        let [pk] = center_table.primary_key.as_slice() else {
            continue;
        };

        // BFS from the center, recording join edges.
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        let mut joins: Vec<(String, String)> = Vec::new(); // (table, condition)
        let mut queue = VecDeque::new();
        visited.insert(center);
        queue.push_back(*center);
        while let Some(current) = queue.pop_front() {
            for (next, cond) in adjacency.get(current).into_iter().flatten() {
                if visited.insert(next) {
                    joins.push(((*next).to_string(), cond.clone()));
                    queue.push_back(next);
                }
            }
        }

        // Which keywords are covered by the connected component?
        let mut matches: BTreeMap<String, String> = BTreeMap::new();
        let mut covered = 0usize;
        for kw in keywords {
            if let Some(kw_hits) = hits.get(kw) {
                if let Some((t, c)) = kw_hits.iter().find(|(t, _)| visited.contains(t.as_str())) {
                    matches.insert((*kw).to_string(), format!("{t}.{c}"));
                    covered += 1;
                }
            }
        }
        if covered == 0 {
            continue;
        }

        // Keep only the joins leading to matched tables (prune leaf tables
        // that never serve a keyword) — repeatedly drop unmatched leaves.
        let needed: BTreeSet<&str> = matches
            .values()
            .map(|v| v.split('.').next().expect("table.column"))
            .collect();
        let mut kept = joins.clone();
        loop {
            let mut degree: HashMap<String, usize> = HashMap::new();
            for (t, _) in &kept {
                *degree.entry(t.clone()).or_insert(0) += 1;
            }
            let before = kept.len();
            kept.retain(|(t, _)| needed.contains(t.as_str()) || degree[t] > 1);
            if kept.len() == before {
                break;
            }
        }

        let mut sql = format!("SELECT {center}.{pk} FROM {center}");
        for (t, cond) in &kept {
            sql.push_str(&format!(" JOIN {t} ON {cond}"));
        }
        candidates.push(KeywordCandidate {
            center_table: (*center).to_string(),
            sql,
            matches,
            score: covered as f64 / keywords.len() as f64,
        });
    }
    candidates.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.sql.len().cmp(&b.sql.len()))
            .then_with(|| a.center_table.cmp(&b.center_table))
    });
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelTable;
    use optique_relational::{table::table_of, ColumnType};

    fn fixture() -> (RelationalSchema, Database) {
        let schema = RelationalSchema::new()
            .with_table(
                RelTable::new(
                    "turbines",
                    vec![
                        ("tid", ColumnType::Int),
                        ("name", ColumnType::Text),
                        ("fuel", ColumnType::Text),
                        ("built", ColumnType::Int),
                    ],
                )
                .with_pk(&["tid"]),
            )
            .with_table(
                RelTable::new(
                    "sensors",
                    vec![("sid", ColumnType::Int), ("turbine_id", ColumnType::Int)],
                )
                .with_pk(&["sid"])
                .with_fk("turbine_id", "turbines", "tid"),
            );
        let mut db = Database::new();
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[
                    ("tid", ColumnType::Int),
                    ("name", ColumnType::Text),
                    ("fuel", ColumnType::Text),
                    ("built", ColumnType::Int),
                ],
                vec![
                    vec![
                        Value::Int(1),
                        Value::text("Albatros"),
                        Value::text("gas"),
                        Value::Int(2008),
                    ],
                    vec![
                        Value::Int(2),
                        Value::text("Kestrel"),
                        Value::text("steam"),
                        Value::Int(1999),
                    ],
                ],
            )
            .unwrap(),
        );
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("turbine_id", ColumnType::Int)],
                vec![vec![Value::Int(10), Value::Int(1)]],
            )
            .unwrap(),
        );
        (schema, db)
    }

    #[test]
    fn paper_example_keywords_find_turbines() {
        let (schema, db) = fixture();
        let candidates = discover_by_keywords(&schema, &db, &["albatros", "gas", "2008"]);
        assert!(!candidates.is_empty());
        let best = &candidates[0];
        assert_eq!(best.center_table, "turbines");
        assert_eq!(best.score, 1.0);
        assert!(best.sql.starts_with("SELECT turbines.tid FROM turbines"));
        // All keywords explained.
        assert_eq!(best.matches.len(), 3);
    }

    #[test]
    fn candidate_sql_executes() {
        let (schema, db) = fixture();
        let candidates = discover_by_keywords(&schema, &db, &["gas"]);
        let best = &candidates[0];
        let t = optique_relational::exec::query(&best.sql, &db).unwrap();
        assert_eq!(t.len(), 2, "projection over turbines PK");
    }

    #[test]
    fn cross_table_keywords_produce_join() {
        let (schema, db) = fixture();
        let candidates = discover_by_keywords(&schema, &db, &["sensor", "gas"]);
        let joined = candidates.iter().find(|c| c.sql.contains("JOIN"));
        assert!(joined.is_some(), "{candidates:#?}");
        let t = optique_relational::exec::query(&joined.unwrap().sql, &db).unwrap();
        assert!(!t.is_empty());
    }

    #[test]
    fn no_keywords_no_candidates() {
        let (schema, db) = fixture();
        assert!(discover_by_keywords(&schema, &db, &[]).is_empty());
        assert!(discover_by_keywords(&schema, &db, &["zzz_nothing"]).is_empty());
    }

    #[test]
    fn scores_rank_candidates() {
        let (schema, db) = fixture();
        let candidates = discover_by_keywords(&schema, &db, &["albatros", "zzz_nothing"]);
        assert!(!candidates.is_empty());
        assert!(candidates[0].score <= 0.5 + 1e-9);
    }
}

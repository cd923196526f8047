//! Implicit foreign-key discovery by data-inclusion analysis.
//!
//! The paper: an object property is bootstrapped "if there is either an
//! explicit or **implicit** foreign key". A column pair `(A.c → B.pk)` is
//! proposed when every non-NULL value of `A.c` occurs in `B.pk`, `B.pk` is
//! (observed) unique, the types agree, and enough evidence exists (a
//! minimum number of distinct matched values — sheer emptiness proves
//! nothing).

use std::collections::HashSet;

use optique_relational::{Database, Value};

use crate::schema::{ForeignKey, RelationalSchema};

/// Discovery thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DiscoverySettings {
    /// Minimum distinct non-NULL values in the referencing column.
    pub min_distinct: usize,
    /// Required inclusion fraction (1.0 = strict containment).
    pub min_inclusion: f64,
}

impl Default for DiscoverySettings {
    fn default() -> Self {
        DiscoverySettings {
            min_distinct: 3,
            min_inclusion: 1.0,
        }
    }
}

/// Scans the database for implicit FKs between schema tables. Declared FKs
/// are not re-proposed. Results are deterministic (table/column order).
pub fn discover_foreign_keys(
    schema: &RelationalSchema,
    db: &Database,
    settings: &DiscoverySettings,
) -> Vec<(String, ForeignKey)> {
    let mut proposals = Vec::new();
    for target in &schema.tables {
        let [target_pk] = target.primary_key.as_slice() else {
            continue;
        };
        let Ok(target_table) = db.table(&target.name) else {
            continue;
        };
        let Some(pk_idx) = target_table.schema.index_of(target_pk) else {
            continue;
        };
        let mut pk_values: HashSet<&Value> = HashSet::new();
        let mut pk_unique = true;
        for row in &target_table.rows {
            if row[pk_idx].is_null() {
                continue;
            }
            if !pk_values.insert(&row[pk_idx]) {
                pk_unique = false;
                break;
            }
        }
        if !pk_unique || pk_values.is_empty() {
            continue;
        }

        for source in &schema.tables {
            if source.name == target.name {
                continue;
            }
            let Ok(source_table) = db.table(&source.name) else {
                continue;
            };
            for column in &source.columns {
                // Skip declared FKs and type mismatches.
                if source.is_fk_column(&column.name) {
                    continue;
                }
                if target.column(target_pk).map(|c| c.ty) != Some(column.ty) {
                    continue;
                }
                let Some(col_idx) = source_table.schema.index_of(&column.name) else {
                    continue;
                };
                let mut distinct: HashSet<&Value> = HashSet::new();
                for row in &source_table.rows {
                    if !row[col_idx].is_null() {
                        distinct.insert(&row[col_idx]);
                    }
                }
                if distinct.len() < settings.min_distinct {
                    continue;
                }
                let included = distinct.iter().filter(|v| pk_values.contains(**v)).count();
                let fraction = included as f64 / distinct.len() as f64;
                if fraction >= settings.min_inclusion {
                    proposals.push((
                        source.name.clone(),
                        ForeignKey {
                            columns: vec![column.name.clone()],
                            ref_table: target.name.clone(),
                            ref_columns: vec![target_pk.clone()],
                        },
                    ));
                }
            }
        }
    }
    proposals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelTable;
    use optique_relational::{table::table_of, ColumnType};

    fn db() -> Database {
        let mut db = Database::new();
        db.put_table(
            "countries",
            table_of(
                "countries",
                &[("id", ColumnType::Int), ("name", ColumnType::Text)],
                (1..=5)
                    .map(|i| vec![Value::Int(i), Value::text(format!("c{i}"))])
                    .collect(),
            )
            .unwrap(),
        );
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[("tid", ColumnType::Int), ("loc", ColumnType::Int)],
                (0..10)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 5 + 1)])
                    .collect(),
            )
            .unwrap(),
        );
        db
    }

    fn schema() -> RelationalSchema {
        RelationalSchema::new()
            .with_table(
                RelTable::new(
                    "countries",
                    vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
                )
                .with_pk(&["id"]),
            )
            .with_table(
                RelTable::new(
                    "turbines",
                    vec![("tid", ColumnType::Int), ("loc", ColumnType::Int)],
                )
                .with_pk(&["tid"]),
            )
    }

    #[test]
    fn discovers_inclusion_dependency() {
        let proposals = discover_foreign_keys(&schema(), &db(), &DiscoverySettings::default());
        assert!(proposals.iter().any(|(t, fk)| t == "turbines"
            && fk.columns == vec!["loc".to_string()]
            && fk.ref_table == "countries"));
    }

    #[test]
    fn non_included_column_not_proposed() {
        let mut db = db();
        // Add a turbine pointing to a non-existent country.
        let mut t = db.table("turbines").unwrap().to_table();
        t.rows.push(vec![Value::Int(99), Value::Int(42)]);
        db.put_table("turbines", t);
        let proposals = discover_foreign_keys(&schema(), &db, &DiscoverySettings::default());
        assert!(!proposals.iter().any(|(t, _)| t == "turbines"));
    }

    #[test]
    fn partial_inclusion_threshold() {
        let mut db = db();
        let mut t = db.table("turbines").unwrap().to_table();
        t.rows.push(vec![Value::Int(99), Value::Int(42)]);
        db.put_table("turbines", t);
        // 5 of 6 distinct values included ≈ 0.83.
        let relaxed = DiscoverySettings {
            min_inclusion: 0.8,
            ..Default::default()
        };
        let proposals = discover_foreign_keys(&schema(), &db, &relaxed);
        assert!(proposals.iter().any(|(t, _)| t == "turbines"));
    }

    #[test]
    fn too_little_evidence_not_proposed() {
        let mut db = Database::new();
        db.put_table(
            "countries",
            table_of(
                "countries",
                &[("id", ColumnType::Int)],
                vec![vec![Value::Int(1)]],
            )
            .unwrap(),
        );
        db.put_table(
            "turbines",
            table_of(
                "turbines",
                &[("tid", ColumnType::Int), ("loc", ColumnType::Int)],
                vec![vec![Value::Int(1), Value::Int(1)]],
            )
            .unwrap(),
        );
        let proposals = discover_foreign_keys(&schema(), &db, &DiscoverySettings::default());
        assert!(proposals.is_empty(), "one matching value is not evidence");
    }

    #[test]
    fn non_unique_target_rejected() {
        let mut db = db();
        let mut c = db.table("countries").unwrap().to_table();
        c.rows.push(vec![Value::Int(1), Value::text("dup")]);
        db.put_table("countries", c);
        let proposals = discover_foreign_keys(&schema(), &db, &DiscoverySettings::default());
        // A duplicated countries.id disqualifies countries as an FK target
        // (the reverse direction, countries.id ⊆ turbines.tid, may still be
        // proposed — it is a genuine inclusion in this data).
        assert!(!proposals.iter().any(|(_, fk)| fk.ref_table == "countries"));
    }
}

//! Table statistics — the cardinality catalog behind cost-based planning.
//!
//! The OBDA planner (join-order selection and semi-join pushdown in
//! `optique-sparql`) needs per-source cardinalities to order the residual
//! joins of an unfolded query: Hovland et al.'s OBDA-constraints work shows
//! that exactly this kind of backend statistic is what makes unfolded
//! queries tractable. A [`StatsCatalog`] snapshots row counts and
//! per-column distinct-value estimates for every table of a [`Database`];
//! the platform bumps a table's row count on every append
//! (`insert_static`) and brings the appended table's estimates up to date
//! when a merge folds the overlay in ([`StatsCatalog::with_appended_table`],
//! which re-reads nothing once the prefix sample is full).

use std::collections::{BTreeMap, HashMap};

use crate::table::{Database, StoredTable};
use crate::value::Value;

/// Rows sampled per table when estimating distinct counts; tables larger
/// than this extrapolate from the sample (distinct estimation is advisory —
/// it steers plan choice, never correctness).
const DISTINCT_SAMPLE_CAP: usize = 65_536;

/// Statistics for one table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableStats {
    /// Exact row count at analysis time.
    pub rows: usize,
    /// `(column name, estimated distinct values)` in schema order.
    pub distinct: Vec<(String, usize)>,
    /// `(column name, share of sampled rows holding the most common
    /// value)` in schema order — the skew signal hash-partitioning keys are
    /// vetted against (a column where one value dominates makes one shard
    /// hold most of the table).
    pub skew: Vec<(String, f64)>,
    /// Rows the distinct sample read: the table's first rows, at most
    /// `DISTINCT_SAMPLE_CAP` of them.
    pub sample_rows: usize,
    /// Distinct values among the sampled rows, per column in schema order
    /// — what `distinct` extrapolates from.
    pub sample_distinct: Vec<usize>,
}

impl TableStats {
    /// Estimated distinct values of `column`, if the column exists.
    pub fn distinct_of(&self, column: &str) -> Option<usize> {
        self.distinct
            .iter()
            .find(|(name, _)| name == column)
            .map(|&(_, n)| n)
    }

    /// Share of sampled rows holding `column`'s most common value, in
    /// `[0, 1]` (`0` for empty tables), if the column exists.
    pub fn max_share_of(&self, column: &str) -> Option<f64> {
        self.skew
            .iter()
            .find(|(name, _)| name == column)
            .map(|&(_, share)| share)
    }

    /// Estimated selectivity of an equality predicate on `column`:
    /// `1 / distinct`, defaulting to `0.1` when the column is unknown.
    pub fn eq_selectivity(&self, column: &str) -> f64 {
        match self.distinct_of(column) {
            Some(0) | None => 0.1,
            Some(n) => 1.0 / n as f64,
        }
    }
}

/// Per-table statistics for a whole database snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsCatalog {
    tables: HashMap<String, TableStats>,
}

impl StatsCatalog {
    /// An empty catalog (planners fall back to defaults for every table).
    pub fn new() -> Self {
        StatsCatalog::default()
    }

    /// Analyzes every table of `db`: exact row counts, sampled distinct
    /// estimates per column.
    pub fn analyze(db: &Database) -> Self {
        let mut tables = HashMap::new();
        for name in db.table_names() {
            let table = db.table(name).expect("listed table exists");
            tables.insert(name.to_string(), Self::analyze_table(table));
        }
        StatsCatalog { tables }
    }

    /// A copy of this catalog with `name`'s statistics brought up to
    /// `table`, which is the table they were analyzed over with rows
    /// appended — the merge's path, so folding appends into one table never
    /// re-scans the whole database. When the analysis already filled its
    /// prefix sample, the appended rows leave the sample as it was: the
    /// estimates re-extrapolate to the new row count without reading a
    /// row, exactly as [`Self::analyze`] would compute them. Otherwise the
    /// table is re-analyzed.
    pub fn with_appended_table(&self, name: &str, table: &StoredTable) -> StatsCatalog {
        let stats = match self.tables.get(name) {
            Some(old) if old.sample_rows == DISTINCT_SAMPLE_CAP => TableStats {
                rows: table.len(),
                distinct: (old.distinct.iter().zip(&old.sample_distinct))
                    .map(|((column, _), &seen)| {
                        (
                            column.clone(),
                            extrapolate(seen, old.sample_rows, table.len()),
                        )
                    })
                    .collect(),
                ..old.clone()
            },
            _ => Self::analyze_table(table),
        };
        let mut tables = self.tables.clone();
        tables.insert(name.to_string(), stats);
        StatsCatalog { tables }
    }

    /// A copy of this catalog with `name`'s row count bumped by `added` —
    /// the O(1) path for novelty-overlay appends. Distinct/skew estimates
    /// are left as analyzed (advisory only) until the next merge
    /// re-samples the touched table.
    pub fn with_row_delta(&self, name: &str, added: usize) -> StatsCatalog {
        let mut tables = self.tables.clone();
        if let Some(stats) = tables.get_mut(name) {
            stats.rows += added;
        }
        StatsCatalog { tables }
    }

    fn analyze_table(table: &StoredTable) -> TableStats {
        let rows = table.len();
        let sample = rows.min(DISTINCT_SAMPLE_CAP);
        let width = table.schema.columns().len();
        let mut distinct = Vec::with_capacity(width);
        let mut skew = Vec::with_capacity(width);
        let mut sample_distinct = Vec::with_capacity(width);
        for (idx, column) in table.schema.columns().iter().enumerate() {
            let mut seen: HashMap<&Value, usize> = HashMap::with_capacity(sample.min(1024));
            for row in table.rows.iter().take(sample) {
                *seen.entry(&row[idx]).or_default() += 1;
            }
            let top = seen.values().copied().max().unwrap_or(0);
            let share = if sample == 0 {
                0.0
            } else {
                top as f64 / sample as f64
            };
            distinct.push((column.name.clone(), extrapolate(seen.len(), sample, rows)));
            skew.push((column.name.clone(), share));
            sample_distinct.push(seen.len());
        }
        TableStats {
            rows,
            distinct,
            skew,
            sample_rows: sample,
            sample_distinct,
        }
    }

    /// Statistics for `table`, if analyzed.
    pub fn table(&self, table: &str) -> Option<&TableStats> {
        self.tables.get(table)
    }

    /// Exact row count of `table` at analysis time.
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.tables.get(table).map(|t| t.rows)
    }

    /// Estimated distinct values of `table.column`.
    pub fn distinct(&self, table: &str, column: &str) -> Option<usize> {
        self.tables.get(table).and_then(|t| t.distinct_of(column))
    }

    /// Number of analyzed tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when nothing has been analyzed.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total rows across all analyzed tables (a cheap fingerprint tests use
    /// to assert a refresh happened).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows).sum()
    }
}

/// The distinct estimate of a column with `seen` distinct values among the
/// first `sample` of `rows` rows: linear extrapolation, capped by the row
/// count.
fn extrapolate(seen: usize, sample: usize, rows: usize) -> usize {
    if sample < rows && sample > 0 {
        (seen * rows / sample).min(rows)
    } else {
        seen
    }
}

// ---- partition-key advisor ---------------------------------------------

/// Columns whose most common value covers more than this share of the
/// sample are rejected as partition keys: one shard would hold most of the
/// table and scatter would degenerate to a hot worker.
const MAX_KEY_SKEW: f64 = 0.5;

/// Picks one hash-partition key per table from `candidates` — `(table,
/// column, weight)` triples, typically the term-map column usage of a
/// mapping catalog, where the weight counts how often unfolded disjuncts
/// join through the column. Scoring per candidate:
///
/// ```text
/// weight × (distinct / rows) × (1 − max_value_share)
/// ```
///
/// join frequency × key-likeness × evenness — the column unfolded queries
/// route through most, provided hashing it spreads rows. Tables below
/// `min_rows` are skipped entirely (sharding a tiny table buys nothing and
/// costs every scan a scatter), as are columns with fewer than two distinct
/// values or past `MAX_KEY_SKEW`. Returns `(table, key_column)` pairs
/// sorted by table name — the exact shape
/// `Federation::partitioned`-style constructors take.
pub fn advise_partition_keys(
    stats: &StatsCatalog,
    candidates: &[(String, String, usize)],
    min_rows: usize,
) -> Vec<(String, String)> {
    let mut best: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    for (table, column, weight) in candidates {
        let Some(table_stats) = stats.table(table) else {
            continue;
        };
        if table_stats.rows < min_rows {
            continue;
        }
        let Some(distinct) = table_stats.distinct_of(column) else {
            continue;
        };
        if distinct < 2 {
            continue;
        }
        let share = table_stats.max_share_of(column).unwrap_or(1.0);
        if share > MAX_KEY_SKEW {
            continue;
        }
        let score = *weight as f64 * (distinct as f64 / table_stats.rows as f64) * (1.0 - share);
        let entry = best.entry(table).or_insert((f64::MIN, column));
        // Ties break toward the lexicographically smaller column so advice
        // is deterministic across runs.
        if score > entry.0 || (score == entry.0 && column.as_str() < entry.1) {
            *entry = (score, column);
        }
    }
    best.into_iter()
        .map(|(table, (_, column))| (table.to_string(), column.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::table::table_of;

    fn db() -> Database {
        let mut db = Database::new();
        db.put_table(
            "sensors",
            table_of(
                "sensors",
                &[("sid", ColumnType::Int), ("tid", ColumnType::Int)],
                (0..100)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                    .collect(),
            )
            .unwrap(),
        );
        db.put_table(
            "empty",
            table_of("empty", &[("x", ColumnType::Int)], vec![]).unwrap(),
        );
        db
    }

    #[test]
    fn analyze_counts_rows_and_distincts() {
        let stats = StatsCatalog::analyze(&db());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.row_count("sensors"), Some(100));
        assert_eq!(stats.distinct("sensors", "sid"), Some(100));
        assert_eq!(stats.distinct("sensors", "tid"), Some(7));
        assert_eq!(stats.row_count("empty"), Some(0));
        assert_eq!(stats.row_count("nope"), None);
        assert_eq!(stats.total_rows(), 100);
    }

    #[test]
    fn eq_selectivity_uses_distincts() {
        let stats = StatsCatalog::analyze(&db());
        let sensors = stats.table("sensors").unwrap();
        assert!((sensors.eq_selectivity("tid") - 1.0 / 7.0).abs() < 1e-9);
        assert!((sensors.eq_selectivity("sid") - 0.01).abs() < 1e-9);
        // Unknown column: conservative default.
        assert!((sensors.eq_selectivity("nope") - 0.1).abs() < 1e-9);
    }

    #[test]
    fn skew_tracks_dominant_values() {
        let stats = StatsCatalog::analyze(&db());
        let sensors = stats.table("sensors").unwrap();
        // sid is unique (share 1/100); tid cycles over 7 values evenly.
        assert!((sensors.max_share_of("sid").unwrap() - 0.01).abs() < 1e-9);
        assert!((sensors.max_share_of("tid").unwrap() - 15.0 / 100.0).abs() < 1e-9);
        assert_eq!(sensors.max_share_of("nope"), None);
        assert_eq!(stats.table("empty").unwrap().max_share_of("x"), Some(0.0));
    }

    #[test]
    fn advisor_scores_frequency_distinctness_and_skew() {
        let mut database = db();
        // A skewed column: one value covers 90% of the rows.
        database.put_table(
            "events",
            table_of(
                "events",
                &[("eid", ColumnType::Int), ("kind", ColumnType::Int)],
                (0..100)
                    .map(|i| vec![Value::Int(i), Value::Int(if i < 90 { 0 } else { i })])
                    .collect(),
            )
            .unwrap(),
        );
        let stats = StatsCatalog::analyze(&database);
        let candidates = vec![
            // tid is referenced more often than sid, but sid is the key
            // (100 distinct vs 7): key-likeness dominates here.
            ("sensors".to_string(), "sid".to_string(), 3),
            ("sensors".to_string(), "tid".to_string(), 5),
            // events.kind is hopelessly skewed; eid is clean.
            ("events".to_string(), "kind".to_string(), 9),
            ("events".to_string(), "eid".to_string(), 1),
            // Unknown table / column candidates are ignored.
            ("nope".to_string(), "x".to_string(), 99),
            ("sensors".to_string(), "nope".to_string(), 99),
        ];
        let keys = advise_partition_keys(&stats, &candidates, 10);
        assert_eq!(
            keys,
            vec![
                ("events".to_string(), "eid".to_string()),
                ("sensors".to_string(), "sid".to_string()),
            ]
        );
        // A row floor above every table yields no advice.
        assert!(advise_partition_keys(&stats, &candidates, 1_000).is_empty());
        // The empty table never qualifies (0 rows, 0 distinct).
        let with_empty = vec![("empty".to_string(), "x".to_string(), 50)];
        assert!(advise_partition_keys(&stats, &with_empty, 0).is_empty());
    }

    #[test]
    fn refresh_reflects_new_rows() {
        let mut database = db();
        let before = StatsCatalog::analyze(&database);
        let mut sensors = database.table("sensors").unwrap().to_table();
        sensors
            .push_row(vec![Value::Int(1000), Value::Int(99)])
            .unwrap();
        database.put_table("sensors", sensors);
        let after = StatsCatalog::analyze(&database);
        assert_eq!(after.row_count("sensors"), Some(101));
        assert_eq!(after.distinct("sensors", "tid"), Some(8));
        assert_ne!(before, after);
        // The incremental single-table refresh agrees with a full analyze.
        let incremental = before.with_appended_table("sensors", database.table("sensors").unwrap());
        assert_eq!(incremental, after);
    }

    /// Past a full prefix sample, an append re-extrapolates the sampled
    /// distinct counts without reading a row, and lands exactly where a
    /// from-scratch analyze does — at the cap and past it.
    #[test]
    fn appends_past_a_full_sample_re_extrapolate_exactly() {
        let row = |i: usize| vec![Value::Int(i as i64), Value::Int((i % 97) as i64)];
        let table = |rows: usize| {
            let t = table_of(
                "t",
                &[("id", ColumnType::Int), ("k", ColumnType::Int)],
                (0..rows).map(row).collect(),
            )
            .unwrap();
            let mut db = Database::new();
            db.put_table("t", t);
            db
        };
        for (first, second) in [
            (DISTINCT_SAMPLE_CAP, DISTINCT_SAMPLE_CAP + 1),
            (DISTINCT_SAMPLE_CAP + 10, 2 * DISTINCT_SAMPLE_CAP + 3),
            (DISTINCT_SAMPLE_CAP - 5, DISTINCT_SAMPLE_CAP + 7),
        ] {
            let before = StatsCatalog::analyze(&table(first));
            let grown = table(second);
            let incremental = before.with_appended_table("t", grown.table("t").unwrap());
            assert_eq!(
                incremental,
                StatsCatalog::analyze(&grown),
                "{first} → {second}"
            );
        }
    }
}

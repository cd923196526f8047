//! The Pearson-correlation diagnostic task (paper §3: "calculate the
//! Pearson correlation coefficient between turbine stream data"), three
//! ways: exact SQL `CORR`, exhaustive exact search, and the LSH UDF
//! (experiment E9).
//!
//! ```text
//! cargo run --release --example correlation_analysis [n_sensors]
//! ```

use std::time::Instant;

use optique_lsh::CorrelationIndex;
use optique_relational::Database;
use optique_siemens::{streamgen::sensor_series, StreamConfig};

fn main() {
    let n_sensors: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);

    // A stream with several planted correlated pairs.
    let mut db = Database::new();
    let config = StreamConfig {
        sensor_ids: (0..n_sensors as i64).collect(),
        start_ms: 0,
        duration_ms: 64_000,
        period_ms: 1_000,
        seed: 23,
        ramp_failures: 0,
        correlated_pairs: 4,
        hot_bursts: 0,
    };
    let truth = optique_siemens::streamgen::build_stream(&mut db, &config).unwrap();
    println!("planted correlated pairs: {:?}\n", truth.correlated_pairs);

    // 1. SQL CORR over a small sensor subset (all-pairs in SQL explodes).
    println!("== SQL CORR on the first 12 sensors ==");
    let start = Instant::now();
    let t = optique_relational::exec::query(
        "SELECT a.sensor_id AS s1, b.sensor_id AS s2, CORR(a.value, b.value) AS r \
         FROM S_Msmt a JOIN S_Msmt b ON a.ts = b.ts \
         WHERE a.sensor_id < b.sensor_id AND a.sensor_id < 12 AND b.sensor_id < 12 \
         GROUP BY a.sensor_id, b.sensor_id HAVING CORR(a.value, b.value) >= 0.9",
        &db,
    )
    .unwrap();
    println!("{}  ({:?})\n", t.render(10), start.elapsed());

    // 2. Exhaustive exact Pearson over all sensors.
    let mut index = CorrelationIndex::new(64, 16, 8, 5);
    for s in 0..n_sensors as i64 {
        let series = sensor_series(&db, s).unwrap();
        index.insert(s as u64, &series[..64.min(series.len())]);
    }
    let start = Instant::now();
    let exact = index.exact_pairs_above(0.9);
    let exact_time = start.elapsed();
    println!("== exhaustive exact Pearson over {n_sensors} sensors ==");
    println!("  {} pairs ≥ 0.9 in {exact_time:?}", exact.len());

    // 3. LSH banding: candidates only, then exact verification.
    let start = Instant::now();
    let approx = index.correlated_pairs(0.8);
    let lsh_time = start.elapsed();
    println!("\n== LSH (16 bands × 8 bits) ==");
    println!(
        "  {} candidate pairs verified in {lsh_time:?}",
        approx.len()
    );
    for pair in approx.iter().take(6) {
        println!(
            "  sensors {} & {}: estimate {:+.3}, exact {:+.3}",
            pair.a, pair.b, pair.estimated, pair.exact
        );
    }

    // Recall against the exact baseline.
    let exact_set: std::collections::BTreeSet<(u64, u64)> =
        exact.iter().map(|(a, b, _)| (*a, *b)).collect();
    let found: std::collections::BTreeSet<(u64, u64)> = approx.iter().map(|p| (p.a, p.b)).collect();
    let recalled = exact_set.intersection(&found).count();
    println!(
        "\nrecall {recalled}/{} — speedup ×{:.1}",
        exact_set.len(),
        exact_time.as_secs_f64() / lsh_time.as_secs_f64().max(1e-9)
    );
}

//! Distributed-vs-single-node answer equivalence: partitioned execution on
//! the simulated cluster must return exactly the answers of one node.

use optique_exastream::cluster::{hash_partition, Cluster};
use optique_relational::{Database, Value};
use optique_siemens::{FleetConfig, StreamConfig};

fn single_node_db() -> Database {
    let mut db = Database::new();
    let sensors = optique_siemens::fleet::build_fleet(&mut db, &FleetConfig::small()).unwrap();
    optique_siemens::streamgen::build_stream(&mut db, &StreamConfig::small(sensors)).unwrap();
    optique_stream::register_stream_functions(&mut db);
    db
}

fn cluster_of(db: &Database, workers: usize) -> Cluster {
    let stream = (**db.table("S_Msmt").unwrap()).clone();
    let shards = hash_partition(&stream, 1, workers);
    Cluster::provision(workers, |id| {
        let mut wdb = Database::new();
        wdb.put_table("S_Msmt", shards[id].clone());
        optique_stream::register_stream_functions(&mut wdb);
        wdb
    })
}

/// Global (non-grouped) counts distribute as sums.
#[test]
fn global_count_matches() {
    let db = single_node_db();
    let sql = "SELECT COUNT(*) AS n FROM S_Msmt WHERE value >= 60";
    let single = optique_relational::exec::query(sql, &db).unwrap().rows[0][0]
        .as_i64()
        .unwrap();
    let cluster = cluster_of(&db, 4);
    let distributed: i64 = cluster
        .parallel_query(sql)
        .unwrap()
        .iter()
        .map(|t| t.rows[0][0].as_i64().unwrap())
        .sum();
    assert_eq!(single, distributed);
}

/// Windowed per-sensor aggregation is shard-local (the partition key is the
/// group key), so concatenation suffices — no combine step.
#[test]
fn windowed_per_sensor_results_match() {
    let db = single_node_db();
    let sql = "SELECT window_id, sensor_id, AVG(value) AS a FROM \
               timeslidingwindow('S_Msmt', 0, 10000, 5000, 600000, 0, 5) AS w \
               GROUP BY window_id, sensor_id";
    let single = optique_relational::exec::query(sql, &db).unwrap();
    let cluster = cluster_of(&db, 4);
    let parts = cluster.parallel_query(sql).unwrap();
    let mut combined: Vec<Vec<Value>> = parts.into_iter().flat_map(|t| t.rows).collect();
    let mut expected = single.rows.clone();
    combined.sort();
    expected.sort();
    assert_eq!(expected, combined);
}

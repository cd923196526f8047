//! Distributed-vs-single-node answer equivalence: a scattered gateway round
//! over the stream's shards must return exactly the answers of one node.

use std::sync::Arc;

use optique_exastream::cluster::{hash_partition, Cluster};
use optique_exastream::gateway::{Gateway, StaticFragment};
use optique_relational::{Database, PlanFragment, Table, Value};
use optique_siemens::{FleetConfig, StreamConfig};
use optique_stream::WindowSpec;

fn single_node_db() -> Database {
    let mut db = Database::new();
    let sensors = optique_siemens::fleet::build_fleet(&mut db, &FleetConfig::small()).unwrap();
    optique_siemens::streamgen::build_stream(&mut db, &StreamConfig::small(sensors)).unwrap();
    db
}

/// A gateway over `workers` shards of the stream, hash-partitioned by
/// sensor.
fn gateway_of(db: &Database, workers: usize) -> Arc<Gateway> {
    let shards = hash_partition(db.table("S_Msmt").unwrap(), 1, workers);
    Gateway::new(Arc::new(Cluster::provision(workers, |id| {
        let mut wdb = Database::new();
        wdb.put_table("S_Msmt", shards[id].clone());
        wdb
    })))
}

/// One round scattering every statement over every shard; each statement's
/// per-shard tables come back concatenated.
fn scatter(gateway: &Gateway, sqls: &[String]) -> Vec<Table> {
    let fragments: Vec<StaticFragment> = (sqls.iter().zip(0..))
        .map(|(sql, id)| StaticFragment::scattered(PlanFragment::new(id, sql.as_str(), 1.0)))
        .collect();
    (gateway.run_static_round(&fragments).tables.into_iter())
        .map(Result::unwrap)
        .collect()
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Global (non-grouped) counts distribute as sums.
#[test]
fn global_count_matches() {
    let db = single_node_db();
    let sql = "SELECT COUNT(*) AS n FROM S_Msmt WHERE value >= 60";
    let single = optique_relational::exec::query(sql, &db).unwrap().rows[0][0]
        .as_i64()
        .unwrap();
    let partials = scatter(&gateway_of(&db, 4), &[sql.to_string()]).remove(0);
    assert_eq!(partials.len(), 4, "one partial count per shard");
    let distributed: i64 = partials.rows.iter().map(|r| r[0].as_i64().unwrap()).sum();
    assert_eq!(single, distributed);
}

/// Windowed per-sensor aggregation is shard-local (the partition key is the
/// group key), so concatenation suffices — no combine step. Six
/// overlapping windows (10 s range, 5 s slide) ship in one round.
#[test]
fn windowed_per_sensor_results_match() {
    let db = single_node_db();
    let spec = WindowSpec::new(10_000, 5_000).unwrap();
    let sqls: Vec<String> = (0..=5)
        .map(|k| {
            let (open, close) = spec.bounds(600_000, k);
            format!(
                "SELECT sensor_id, AVG(value) AS a FROM S_Msmt \
                 WHERE ts > {open} AND ts <= {close} GROUP BY sensor_id"
            )
        })
        .collect();
    let gathered = scatter(&gateway_of(&db, 4), &sqls);
    for (sql, distributed) in sqls.iter().zip(gathered) {
        let single = optique_relational::exec::query(sql, &db).unwrap();
        assert!(!single.is_empty(), "{sql}");
        assert_eq!(sorted(single.rows), sorted(distributed.rows), "{sql}");
    }
}

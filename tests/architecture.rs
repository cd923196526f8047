//! Reproduction of paper Figure 2 (experiment F2): the distributed
//! architecture as the product runs it — `OptiquePlatform → Federation →
//! Gateway round → workers`. The platform registers queries; the gateway
//! places or scatters each round's fragments and the workers execute them
//! on their shards.

use std::sync::Arc;

use optique::OptiquePlatform;
use optique_exastream::cluster::{hash_partition, Cluster};
use optique_exastream::gateway::{Gateway, StaticFragment};
use optique_relational::{Database, PlanFragment, Table, WindowSlice};
use optique_siemens::{FleetConfig, SiemensDeployment, StreamConfig};
use optique_starql::FIGURE1;

/// A cluster with the measurement stream hash-partitioned by sensor and
/// static tables replicated, plus the whole stream table.
fn siemens_cluster(workers: usize) -> (Arc<Cluster>, Table) {
    let mut db = Database::new();
    let sensor_ids = optique_siemens::fleet::build_fleet(&mut db, &FleetConfig::small()).unwrap();
    let config = StreamConfig::small(sensor_ids);
    optique_siemens::streamgen::build_stream(&mut db, &config).unwrap();
    let stream = db.table("S_Msmt").unwrap();
    let shards = hash_partition(stream, 1, workers); // column 1 = sensor_id
    let stream = stream.to_table();
    let statics: Vec<(String, _)> = ["turbines", "assemblies", "sensors", "countries"]
        .iter()
        .map(|t| (t.to_string(), Arc::clone(db.table(t).unwrap())))
        .collect();
    let cluster = Cluster::provision(workers, |id| {
        let mut worker_db = Database::new();
        worker_db.put_table("S_Msmt", shards[id].clone());
        for (name, table) in &statics {
            worker_db.put_stored(name.clone(), Arc::clone(table));
        }
        worker_db
    });
    (Arc::new(cluster), stream)
}

fn placed(id: u64, sql: &str, cost: f64) -> StaticFragment {
    StaticFragment::placed(PlanFragment::new(id, sql, cost))
}

#[test]
fn partitioned_execution_covers_every_tuple() {
    let (cluster, stream) = siemens_cluster(4);
    let round = Gateway::new(cluster).run_static_round(&[StaticFragment::scattered(
        PlanFragment::new(0, "SELECT COUNT(*) AS n FROM S_Msmt", 1.0),
    )]);
    let partials = round.tables[0].as_ref().unwrap();
    assert_eq!(partials.len(), 4, "one partial count per shard");
    let sum: i64 = partials.rows.iter().map(|r| r[0].as_i64().unwrap()).sum();
    assert_eq!(sum as usize, stream.len());
}

#[test]
fn gateway_places_queries_by_load() {
    let (cluster, _) = siemens_cluster(4);
    let gateway = Gateway::new(cluster);
    let fragments: Vec<StaticFragment> = (0..64)
        .map(|id| placed(id, "SELECT COUNT(*) AS n FROM S_Msmt", 1.0))
        .collect();
    let round = gateway.run_static_round(&fragments);
    assert!(round.tables.iter().all(Result::is_ok));
    assert_eq!(
        round.worker_rows,
        vec![16; 4],
        "uniform one-row fragments balance exactly"
    );
}

#[test]
fn placed_round_returns_per_fragment_answers() {
    let (cluster, _) = siemens_cluster(2);
    let gateway = Gateway::new(Arc::clone(&cluster));
    let queries = [
        "SELECT COUNT(*) AS n FROM S_Msmt",
        "SELECT COUNT(*) AS n FROM S_Msmt WHERE value >= 95",
    ];
    let fragments: Vec<StaticFragment> = (queries.iter().zip(0..))
        .map(|(sql, id)| placed(id, sql, 1.0))
        .collect();
    let round = gateway.run_static_round(&fragments);
    assert_eq!(round.tables.len(), 2);
    // Two equal-cost fragments on two idle workers: fragment i runs on
    // worker i's shard, and its table comes back in slot i.
    for (i, sql) in queries.iter().enumerate() {
        let want = optique_relational::exec::query(sql, &cluster.workers()[i].db).unwrap();
        let got = round.tables[i].as_ref().unwrap();
        assert_eq!(got.rows, want.rows, "fragment {i}: {sql}");
    }
    let count = |i: usize| {
        round.tables[i].as_ref().unwrap().rows[0][0]
            .as_i64()
            .unwrap()
    };
    assert!(count(0) > 0);
    assert!(
        count(1) < count(0),
        "hot readings are rarer than readings, shard for shard"
    );
}

/// A window is a scan of the stream with its `(open, close]` bounds as a
/// `WindowSlice`, scattered over the shards: the gathered rows are exactly
/// the whole table's rows between the bounds — every shard's, not one's.
#[test]
fn windowed_queries_run_on_workers() {
    let (cluster, stream) = siemens_cluster(4);
    let (open_ms, close_ms) = (600_000, 610_000);
    let fragment = PlanFragment::new(0, "SELECT ts, sensor_id, value, event FROM S_Msmt", 2.0)
        .with_window(WindowSlice {
            column: "ts".into(),
            open_ms,
            close_ms,
        });
    let round = Gateway::new(cluster).run_static_round(&[StaticFragment::scattered(fragment)]);
    let mut gathered = round.tables[0].as_ref().unwrap().rows.clone();
    let mut expected: Vec<_> = (stream.rows.into_iter())
        .filter(|row| {
            row[0]
                .as_i64()
                .is_some_and(|ts| ts > open_ms && ts <= close_ms)
        })
        .collect();
    assert!(!expected.is_empty());
    gathered.sort();
    expected.sort();
    assert_eq!(gathered, expected);
    assert!(
        round.worker_rows.iter().all(|&rows| rows > 0),
        "every shard shipped its slice: {:?}",
        round.worker_rows
    );
}

/// The whole of Figure 2 through the front door: a continuous query
/// registered with the platform ticks by scattering window fragments over
/// its worker pool, and a static query's fragments run as a gateway round
/// whose worker spans land in the platform's trace.
#[test]
fn platform_reaches_workers_through_gateway_rounds() {
    let deployment = SiemensDeployment::small();
    let tick = deployment.stream_config.start_ms + deployment.stream_config.duration_ms;
    let platform = OptiquePlatform::from_siemens(deployment);

    platform.register_starql_distributed(FIGURE1, 4).unwrap();
    let (_, out) = platform.tick_all(tick).unwrap().remove(0);
    assert!(out.window_fragments > 0, "the tick shipped a window round");
    assert!(out.partitioned_fragments > 0, "…scattered over the shards");
    assert!(out.stream_rows_shipped > 0);

    let report = platform
        .explain_analyze("SELECT ?s WHERE { ?s a sie:Sensor }", Some(4))
        .unwrap();
    assert!(report.contains("4 worker(s)"), "{report}");
    assert!(report.contains("fragment"), "{report}");
    assert!(report.contains("worker"), "{report}");
}

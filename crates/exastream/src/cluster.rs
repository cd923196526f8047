//! Worker nodes and data sharding.
//!
//! A cluster only provisions workers and runs one closure per worker
//! ([`Cluster::parallel_map`]); SQL reaches the workers as plan fragments
//! through [`crate::gateway::Gateway::run_static_round`], the one way to
//! run a query on them.

use std::sync::Arc;

use optique_relational::{Database, SqlError, StoredTable, Table, Value};

/// The shard a key value routes to — re-exported from the fragment layer so
/// table sharding and fragment routing share one hash, bit-for-bit.
pub use optique_relational::fragment::shard_of;

/// One simulated worker node: an id plus its private catalog shard.
///
/// Workers are deliberately share-nothing — answers meet only at the
/// coordinator's gather — so the thread-per-worker execution in
/// [`Cluster::parallel_map`] faithfully models the paper's distributed
/// layout on a single box.
#[derive(Clone, Debug)]
pub struct Worker {
    /// Worker id, `0..cluster.size()`.
    pub id: usize,
    /// The worker's catalog: its shard of partitioned tables plus full
    /// replicas of broadcast (static) tables.
    pub db: Arc<Database>,
}

/// A simulated cluster of share-nothing workers.
pub struct Cluster {
    workers: Vec<Worker>,
}

impl Cluster {
    /// Builds a cluster of `n` workers; `provision` constructs each worker's
    /// catalog (receives the worker id, once each, in order — so it can
    /// hand over shards it owns instead of copying them).
    pub fn provision(n: usize, mut provision: impl FnMut(usize) -> Database) -> Self {
        assert!(n > 0, "cluster needs at least one worker");
        let workers = (0..n)
            .map(|id| Worker {
                id,
                db: Arc::new(provision(id)),
            })
            .collect();
        Cluster { workers }
    }

    /// A cluster of `n` workers all sharing one catalog (broadcast
    /// replication — the static-source pattern: every worker can answer any
    /// fragment, and the federation layer spreads fragments across them).
    pub fn replicated(n: usize, db: Arc<Database>) -> Self {
        assert!(n > 0, "cluster needs at least one worker");
        let workers = (0..n)
            .map(|id| Worker {
                id,
                db: Arc::clone(&db),
            })
            .collect();
        Cluster { workers }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// The workers.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Runs a different closure per worker in parallel (operator placement
    /// execution path). Results come back in worker order; a worker whose
    /// closure panicked reports the join error in its slot instead of
    /// taking the calling thread (and the other workers' results) with it.
    pub fn parallel_map<T: Send>(
        &self,
        f: impl Fn(&Worker) -> T + Sync,
    ) -> Vec<std::thread::Result<T>> {
        let mut results: Vec<Option<std::thread::Result<T>>> =
            (0..self.workers.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers.len());
            for worker in &self.workers {
                let f = &f;
                handles.push((worker.id, scope.spawn(move || f(worker))));
            }
            for (id, handle) in handles {
                results[id] = Some(handle.join());
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("worker reported"))
            .collect()
    }
}

/// What a worker's share of a round reports when its thread panicked.
pub(crate) fn worker_panicked(worker: usize) -> SqlError {
    SqlError::Execution(format!("worker {worker} panicked"))
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster({} workers)", self.workers.len())
    }
}

/// Hash-partitions a table's rows into `n` shards by the value in `key_col`
/// (NULL keys go to shard 0), each shard in table order. This is how
/// measurement streams are distributed by sensor across the cluster.
pub fn hash_partition(table: &StoredTable, key_col: usize, n: usize) -> Vec<Table> {
    (shard_rows(&table.rows, key_col, n).into_iter())
        .map(|rows| Table {
            schema: table.schema.clone(),
            rows,
        })
        .collect()
}

/// Copies `rows` into `n` shards by the value in `key_col`, as
/// [`hash_partition`] does, each shard in input order — the rows a merge
/// appends to each worker's shard of a table it keeps partitioned.
pub fn shard_rows<'a>(
    rows: impl IntoIterator<Item = &'a Vec<Value>>,
    key_col: usize,
    n: usize,
) -> Vec<Vec<Vec<Value>>> {
    assert!(n > 0);
    let mut shards: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
    for row in rows {
        shards[shard_of(&row[key_col], n)].push(row.clone());
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_relational::{Column, ColumnType, Schema, Value};

    fn measurements(n: i64) -> StoredTable {
        let schema = Schema::qualified(
            "m",
            vec![
                Column::new("sensor_id", ColumnType::Int),
                Column::new("value", ColumnType::Float),
            ],
        );
        let rows = (0..n)
            .map(|i| vec![Value::Int(i % 50), Value::Float(i as f64)])
            .collect();
        Table::new(schema, rows).unwrap().into()
    }

    #[test]
    fn partitioning_is_complete_and_disjoint() {
        let t = measurements(1000);
        let shards = hash_partition(&t, 0, 8);
        assert_eq!(shards.iter().map(Table::len).sum::<usize>(), 1000);
        // Same key always lands on the same shard.
        for shard in &shards {
            for row in &shard.rows {
                assert_eq!(
                    shard_of(&row[0], 8),
                    shard_of(
                        &shards
                            .iter()
                            .flat_map(|s| &s.rows)
                            .find(|r| r[0] == row[0])
                            .unwrap()[0],
                        8
                    )
                );
            }
        }
    }

    #[test]
    fn partitioning_balances_reasonably() {
        let t = measurements(5000);
        let shards = hash_partition(&t, 0, 4);
        for s in &shards {
            assert!(
                s.len() > 500,
                "shard with {} rows is suspiciously empty",
                s.len()
            );
        }
    }

    /// A cluster over `m`'s shards, and one scattered round of `sql`
    /// through the gateway — per-shard tables concatenated on gather.
    fn scattered(shards: &[Table], sql: &str) -> Table {
        let cluster = Cluster::provision(shards.len(), |id| {
            let mut db = Database::new();
            db.put_table("m", shards[id].clone());
            db
        });
        let gateway = crate::gateway::Gateway::new(Arc::new(cluster));
        let fragment = optique_relational::PlanFragment::new(0, sql, 1.0);
        let mut round =
            gateway.run_static_round(&[crate::gateway::StaticFragment::scattered(fragment)]);
        round.tables.remove(0).unwrap()
    }

    #[test]
    fn scattered_round_covers_all_shards() {
        let t = measurements(1000);
        let shards = hash_partition(&t, 0, 4);
        let gathered = scattered(&shards, "SELECT COUNT(*) AS n FROM m");
        assert_eq!(gathered.len(), 4, "one partial count per shard");
        let total: i64 = gathered.rows.iter().map(|r| r[0].as_i64().unwrap()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn parallel_map_in_worker_order() {
        let cluster = Cluster::provision(6, |_| Database::new());
        let ids: Vec<usize> = cluster
            .parallel_map(|w| w.id)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    /// A panicking worker closure fails its own slot only: the caller and
    /// the other workers' results survive, and so does the cluster.
    #[test]
    fn parallel_map_contains_a_worker_panic() {
        let cluster = Cluster::provision(3, |_| Database::new());
        let outcomes = cluster.parallel_map(|w| {
            if w.id == 1 {
                panic!("injected worker fault");
            }
            w.id
        });
        assert!(matches!(outcomes[0], Ok(0)));
        assert!(outcomes[1].is_err());
        assert!(matches!(outcomes[2], Ok(2)));
        assert!(cluster.parallel_map(|w| w.id).iter().all(Result::is_ok));
    }

    #[test]
    fn per_key_grouping_is_shard_local() {
        // Because partitioning is by sensor, per-sensor aggregates computed
        // shard-locally are globally correct.
        let t = measurements(1000);
        let shards = hash_partition(&t, 0, 4);
        let gathered = scattered(
            &shards,
            "SELECT sensor_id, COUNT(*) AS n FROM m GROUP BY sensor_id",
        );
        // Each sensor lives on one shard, so the gathered groups are
        // already the global ones: no key repeats, no combine step.
        assert_eq!(gathered.len(), 50);
        assert!(gathered.rows.iter().all(|row| row[1] == Value::Int(20)));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_cluster_rejected() {
        let _ = Cluster::provision(0, |_| Database::new());
    }
}

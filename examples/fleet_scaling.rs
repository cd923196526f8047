//! Demo scenario S2 — performance showcase: continuous-query throughput
//! while scaling worker nodes and concurrent diagnostic tasks (the paper's
//! "up to 128 nodes", "more than a thousand concurrent tasks" claims,
//! experiments E1/E2), on the path every deployment runs: tasks register
//! through `register_starql_distributed`, the stream arrives one second at
//! a time through `append_stream`, and every driven tick is a gateway round
//! over the query's worker pool.
//!
//! ```text
//! cargo run --release --example fleet_scaling [max_nodes] [max_queries]
//! ```

use std::time::{Duration, Instant};

use optique::OptiquePlatform;
use optique_relational::{Table, Value};
use optique_siemens::catalog::TaskQuery;
use optique_siemens::{diagnostic_tasks, FleetConfig, SiemensDeployment};
use optique_starql::FIGURE1;

const STREAM: &str = "S_Msmt";

/// A platform whose stream table is empty, plus the generated stream cut
/// into one batch per second for `append_stream` to replay.
fn platform_and_stream() -> (OptiquePlatform, Vec<Vec<Vec<Value>>>) {
    let fleet = FleetConfig {
        turbines: 20,
        assemblies_per_turbine: 4,
        sensors_per_assembly: 5,
        seed: 9,
    };
    let mut d = SiemensDeployment::build(fleet, 100).expect("deployment builds");
    let recorded = d.db.table(STREAM).expect("stream table").clone();
    let (start, period) = (d.stream_config.start_ms, d.stream_config.period_ms);
    let mut seconds: Vec<Vec<Vec<Value>>> = Vec::new();
    for row in &recorded.rows {
        let second = ((row[0].as_i64().expect("timestamp") - start) / period) as usize;
        if seconds.len() <= second {
            seconds.resize_with(second + 1, Vec::new);
        }
        seconds[second].push(row.clone());
    }
    d.db.put_table(STREAM, Table::empty(recorded.schema.clone()));
    (OptiquePlatform::from_siemens(d), seconds)
}

/// What one replay of the stream did.
struct Replay {
    elapsed: Duration,
    ticks: usize,
    window_tuples: usize,
    alarms: usize,
}

impl Replay {
    fn row(&self) -> String {
        format!(
            "{:>12?} {:>8} {:>8} {:>14.1}",
            self.elapsed,
            self.ticks,
            self.alarms,
            self.window_tuples as f64 / self.elapsed.as_secs_f64() / 1e3
        )
    }
}

/// Registers `programs` over `workers` workers on a fresh platform and
/// replays the stream through `append_stream`.
fn replay(programs: &[&str], workers: usize) -> Replay {
    let (platform, seconds) = platform_and_stream();
    for text in programs {
        platform
            .register_starql_distributed(text, workers)
            .expect("task registers");
    }
    let (mut ticks, mut window_tuples, mut alarms) = (0, 0, 0);
    let started = Instant::now();
    for batch in seconds {
        for (_, tick) in platform.append_stream(STREAM, batch).expect("append") {
            ticks += 1;
            window_tuples += tick.tuples_in_window;
            alarms += tick.satisfied;
        }
    }
    Replay {
        elapsed: started.elapsed(),
        ticks,
        window_tuples,
        alarms,
    }
}

fn main() {
    let arg = |n: usize, default: usize| {
        std::env::args()
            .nth(n)
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    };
    let (max_nodes, max_queries) = (arg(1, 128), arg(2, 1024));
    let header = format!(
        "{:>12} {:>8} {:>8} {:>14}",
        "elapsed", "ticks", "alarms", "Ktuples/s"
    );

    println!("== E1: Figure 1 query, throughput vs nodes ==");
    println!("{:>8} {header}", "nodes");
    let mut nodes = 1;
    while nodes <= max_nodes {
        println!("{:>8} {}", nodes, replay(&[FIGURE1], nodes).row());
        nodes *= 2;
    }

    let workers = std::thread::available_parallelism().map_or(8, |n| n.get());
    let catalog: Vec<String> = diagnostic_tasks()
        .into_iter()
        .filter_map(|task| match task.query {
            TaskQuery::StarQl(text) => Some(text),
            TaskQuery::SqlPlus(_) => None,
        })
        .collect();
    println!("\n== E2: catalog tasks, throughput vs concurrent tasks ({workers} workers) ==");
    println!("{:>8} {header}", "tasks");
    let mut tasks = 1;
    while tasks <= max_queries {
        let programs: Vec<&str> = (catalog.iter().cycle().take(tasks))
            .map(String::as_str)
            .collect();
        println!("{:>8} {}", tasks, replay(&programs, workers).row());
        tasks *= 4;
    }
    println!("\n(paper claim shapes: near-linear node scaling until physical cores saturate;");
    println!(" >1,000 concurrent tasks sustained)");
}

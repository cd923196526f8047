//! Demo scenario S1 — diagnostics with a preconfigured deployment: register
//! tasks from the Siemens catalog, monitor continuous answers on the
//! dashboard (paper Figures 1 and 3).
//!
//! ```text
//! cargo run --example turbine_monitoring [n_tasks]
//! ```

use optique::OptiquePlatform;
use optique_siemens::catalog::TaskQuery;
use optique_siemens::{diagnostic_tasks, SiemensDeployment};

fn main() {
    let n_tasks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);

    let deployment = SiemensDeployment::small();
    let start = deployment.stream_config.start_ms;
    let end = start + deployment.stream_config.duration_ms;
    let truth = deployment.ground_truth.clone();
    let platform = OptiquePlatform::from_siemens(deployment);

    println!("== registering up to {n_tasks} catalog tasks ==");
    let mut registered = 0;
    for task in diagnostic_tasks() {
        if registered >= n_tasks {
            break;
        }
        match &task.query {
            TaskQuery::StarQl(_) => {
                let id = platform.register_task(&task).expect("task registers");
                println!("  {} [{}] → query #{id}", task.id, task.name);
                registered += 1;
            }
            TaskQuery::SqlPlus(sql) => {
                println!("  {} [{}] runs as plain SQL:", task.id, task.name);
                let t = optique_relational::exec::query(sql, &platform.db()).expect("runs");
                print!("{}", t.render(4));
            }
        }
    }

    println!("\n== ground truth planted by the generator ==");
    for (s, ts) in &truth.ramp_failures {
        println!("  monotonic ramp → failure on sensor {s} at {ts} ms");
    }
    for (s, ts) in &truth.hot_bursts {
        println!("  hot burst on sensor {s} from {ts} ms");
    }

    println!("\n== replaying the stream ({start}..{end} ms) ==");
    for tick in (start..=end).step_by(5_000) {
        let outputs = platform.tick_all(tick).expect("tick");
        let fired: usize = outputs.iter().map(|(_, o)| o.satisfied).sum();
        if fired > 0 {
            for (id, out) in &outputs {
                for triple in &out.triples {
                    println!("  [{tick} ms] query #{id}: {triple}");
                }
            }
        }
    }

    println!("\n== final dashboard frame ==");
    print!("{}", platform.dashboard().render());
}

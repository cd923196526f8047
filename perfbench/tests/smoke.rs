//! Every workload, end to end at a smoke size: the untraced run emits
//! exactly the end-to-end metrics `BENCHMARK.json` lists and passes its
//! oracle; the traced run's staged replay answers what the platform
//! answers; a second seed sees different inputs and still passes.

use perfbench::harness::{RunConfig, MIN_REPLAY_OPS};
use perfbench::json::Json;
use perfbench::metrics::{spec_json, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::workloads;

fn config(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.4,
        trace,
        spans_out: None,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .expect("list present")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_generated_from_the_vocabulary_and_within_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        spec_json(),
        "regenerate with `bench spec > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    let spec = benchmark_json();
    let workloads = spec.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| names(&spec, list))
        .collect();
    for name in &all {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        );
        assert_eq!(
            all.iter().filter(|n| *n == name).count(),
            1,
            "{name} is used once"
        );
    }
    assert!(names(&spec, "end_to_end").contains(&"setup_s".to_string()));
    assert!(names(&spec, "per_layer").len() <= 128);
    for m in spec.get("end_to_end").unwrap().items() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

/// One untraced run per workload, seed 1: the result object carries exactly
/// the listed end-to-end metrics, none of them zero, and no op failed.
#[test]
fn untraced_runs_emit_the_end_to_end_metrics_and_pass_their_oracles() {
    let listed = names(&benchmark_json(), "end_to_end");
    for workload in WORKLOADS {
        let report = workloads::run(workload.name, &config(1, false)).expect("known workload");
        assert_eq!(
            report.failed, 0,
            "{}: an op failed its check",
            workload.name
        );
        assert!(report.attempted >= 1, "{}", workload.name);
        let result = Json::parse(&report.to_json(END_TO_END)).expect("result line parses");
        let mut keys: Vec<&String> = result.members().map(|(k, _)| k).collect();
        keys.sort();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let emitted: Vec<&String> = result
            .get("metrics")
            .unwrap()
            .members()
            .map(|(k, _)| k)
            .collect();
        let mut wanted: Vec<&String> = listed.iter().collect();
        wanted.sort();
        assert_eq!(emitted, wanted, "{}", workload.name);
        for (name, metric) in result.get("metrics").unwrap().members() {
            let value = metric.get("value").and_then(Json::as_f64).unwrap();
            assert!(value > 0.0, "{}: {name} = {value}", workload.name);
        }
        assert!(
            report.samples["op_p95_us"] >= 1,
            "{}: n is stated",
            workload.name
        );
    }
}

/// One traced run per workload, seed 2 (other inputs than the test above):
/// every staged answer equalled the platform's, the replay recorded at least
/// the minimum of ops, and the result carries exactly the per-layer names.
#[test]
fn traced_runs_replay_the_platforms_answers_on_a_second_seed() {
    let listed = names(&benchmark_json(), "per_layer");
    for workload in WORKLOADS {
        let report = workloads::run(workload.name, &config(2, true)).expect("known workload");
        assert_eq!(
            report.failed, 0,
            "{}: a staged answer differed",
            workload.name
        );
        assert!(
            report.values["harness.replayed_ops"] >= MIN_REPLAY_OPS as f64,
            "{}",
            workload.name
        );
        let result = Json::parse(&report.to_json(PER_LAYER)).expect("result line parses");
        let emitted: Vec<&String> = result
            .get("metrics")
            .unwrap()
            .members()
            .map(|(k, _)| k)
            .collect();
        let mut wanted: Vec<&String> = listed.iter().collect();
        wanted.sort();
        assert_eq!(emitted, wanted, "{}", workload.name);
    }
}

#[test]
fn the_seed_changes_the_inputs() {
    use perfbench::fixtures::{fanout_platform, siemens_deployment, stream_second};
    let rows = |seed| fanout_platform(seed).db().table("t0").unwrap().rows.clone();
    assert_eq!(rows(1), rows(1));
    assert_ne!(rows(1), rows(2));
    let models = |seed| {
        siemens_deployment(seed, 12, 2, 3, 12)
            .db
            .table("turbines")
            .unwrap()
            .rows
            .clone()
    };
    assert_eq!(models(1), models(1));
    assert_ne!(models(1), models(2));
    // Balanced whatever the seed: three turbines per model.
    for seed in [1, 2, 3] {
        for model in perfbench::fixtures::MODELS {
            let count = models(seed)
                .iter()
                .filter(|r| r[1].as_str() == Some(model))
                .count();
            assert_eq!(count, 3, "seed {seed}, model {model}");
        }
    }
    let sensors = [3, 4, 5];
    assert_eq!(stream_second(1, &sensors, 7), stream_second(1, &sensors, 7));
    assert_ne!(stream_second(1, &sensors, 7), stream_second(2, &sensors, 7));
    assert_ne!(stream_second(1, &sensors, 7), stream_second(1, &sensors, 8));
}

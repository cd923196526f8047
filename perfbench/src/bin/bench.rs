//! The benchmark's one command.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <spans.json>]
//! bench all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <results.json>]
//! bench compare <parent.json> <change.json> [--spec <BENCHMARK.json>]
//! bench spec
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! output line is the run's result object. `all` runs every workload in a
//! child process of its own, one at a time (`--runs` untraced runs, then one
//! traced), so that `peak_rss_mb` is per workload. `compare` judges two
//! result files of `all` row by row. `spec` prints `BENCHMARK.json`.

use std::process::{Command, ExitCode};

use perfbench::compare::compare;
use perfbench::harness::RunConfig;
use perfbench::json::{quote, Json};
use perfbench::metrics::{
    spec_json, MetricDef, Report, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use perfbench::workloads;

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <spans.json>]
  bench all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <results.json>]
  bench compare <parent.json> <change.json> [--spec <BENCHMARK.json>]
  bench spec";

/// `--flag value` pairs after the subcommand, plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = iter.next().ok_or(format!("--{flag} needs a value"))?;
                    out.flags.push((flag.to_string(), value.clone()));
                }
                None => out.positional.push(arg.clone()),
            }
        }
        Ok(out)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.get(flag) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {text:?}")),
            None => default.ok_or(format!("--{flag} is required")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec_json());
            Ok(true)
        }
        Some("all") => Args::parse(&args[1..]).and_then(|a| run_all(&a)),
        Some("compare") => Args::parse(&args[1..]).and_then(|a| run_compare(&a)),
        _ => Args::parse(&args).and_then(|a| run_one(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload. `Ok(false)` when an op failed its check.
fn run_one(args: &Args) -> Result<bool, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    let trace = match args.number::<u8>("trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let cfg = RunConfig {
        seed: args.number("seed", None)?,
        seconds: args.number("seconds", None)?,
        trace,
        spans_out: args.get("out").map(Into::into),
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            cfg.seconds
        ));
    }
    let report = workloads::run(workload, &cfg).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload:?}; one of {}", names.join(", "))
    })?;
    let defs = if trace { PER_LAYER } else { END_TO_END };
    print_report(workload, &cfg, &report, defs);
    println!("{}", report.to_json(defs));
    Ok(report.failed == 0)
}

/// The human-readable part: every metric by name with its unit, and `n`
/// for the percentiles.
fn print_report(workload: &str, cfg: &RunConfig, report: &Report, defs: &[MetricDef]) {
    println!(
        "# {workload}  seed {}  {} s  {}  attempted {}  failed {}",
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed
    );
    for def in defs {
        let value = report.values.get(def.name).copied().unwrap_or(0.0);
        if value == 0.0 && cfg.trace {
            // A layer this workload never enters.
            continue;
        }
        let n = report
            .samples
            .get(def.name)
            .map_or(String::new(), |n| format!("  (n = {n})"));
        println!("{:<38} {:>16.3} {}{n}", def.name, value, def.unit);
    }
}

/// Every workload in a child process of its own, one at a time.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("seed", Some(1))?;
    let seconds: f64 = args.number("seconds", Some(RUN_SECONDS as f64))?;
    let runs: usize = args.number("runs", Some(1))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in std::iter::repeat_n(0, runs).chain([1]) {
            let output = Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .output()
                .map_err(|e| format!("cannot start a run of {}: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or_default();
            if Json::parse(result).is_err() {
                return Err(format!(
                    "{} (trace {trace}) printed no result: {}",
                    workload.name,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            print!("{}", &stdout[..stdout.rfind(result).unwrap_or(0)]);
            all_correct &= output.status.success();
            records.push(format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"result\": {result}}}",
                quote(workload.name)
            ));
        }
    }
    if let Some(path) = args.get("out") {
        let document = format!("{{\"runs\": [\n{}\n]}}\n", records.join(",\n"));
        std::fs::write(path, document).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(all_correct)
}

/// Judges two result files; `Ok(false)` when any row is worse.
fn run_compare(args: &Args) -> Result<bool, String> {
    let [parent, change] = args.positional.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let spec = read(args.get("spec").unwrap_or("BENCHMARK.json"))?;
    let (table, any_worse) = compare(&spec, &read(parent)?, &read(change)?)?;
    print!("{table}");
    Ok(!any_worse)
}

//! `bench compare <a.json> <b.json>`: applies each end-to-end metric's bound
//! to two result files, one row per (workload, metric).
//!
//! A result file is what `bench all --out` writes: `{"runs": [{"workload",
//! "seed", "trace", "result"}]}`, `result` being a run's last output line.
//! `a` is the parent, `b` the change. The verdicts follow the landing rule
//! of the choosing-metrics guide: a median that moved by more than the bound
//! is *better* or *worse*; one that did not is *within bound*; and where the
//! run-to-run spread of either side is wider than the bound the row is
//! *unresolved* — not "unchanged" — unless every run of one side beats every
//! run of the other.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{median, quartiles};

/// One end-to-end metric's comparison rule, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(spec: &Json) -> Result<Vec<Rule>, String> {
    let metrics = spec
        .get("end_to_end")
        .ok_or("spec has no end_to_end list")?
        .items();
    metrics
        .iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `workload → metric → one value per untraced run`, from a result file.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a result file's untraced runs.
pub fn samples(results: &Json) -> Result<Samples, String> {
    let mut out = Samples::new();
    for run in results
        .get("runs")
        .ok_or("result file has no runs")?
        .items()
    {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or("run without metrics")?;
        for (name, metric) in metrics.members() {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without a value")?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// How one (workload, metric) row came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Moved the right way by more than the bound.
    Better,
    /// Moved by no more than the bound.
    WithinBound,
    /// Moved the wrong way by more than the bound.
    Worse,
    /// The spread is wider than the bound and the runs overlap, or a side
    /// has no runs: the data cannot say.
    Unresolved,
}

/// Quartile distance as a share of the median; 0 for fewer than two runs.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Judges one row. `worsening` is the change of medians as a share of the
/// parent's, signed so that positive is worse.
pub fn judge(rule: &Rule, parent: &[f64], change: &[f64]) -> (Verdict, f64) {
    if parent.is_empty() || change.is_empty() {
        return (Verdict::Unresolved, 0.0);
    }
    let (a, b) = (median(parent), median(change));
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worsening = if a != 0.0 {
        sign * (b - a) / a.abs()
    } else {
        0.0
    };
    // In "badness" units (higher is worse), whichever way the metric points.
    let bad = |v: &f64| sign * v;
    let max = |vs: &[f64]| vs.iter().map(bad).fold(f64::NEG_INFINITY, f64::max);
    let min = |vs: &[f64]| vs.iter().map(bad).fold(f64::INFINITY, f64::min);
    let noisy = spread(parent).max(spread(change)) > rule.bound;
    let verdict = if noisy && max(change) < min(parent) {
        Verdict::Better
    } else if noisy && !(min(change) > max(parent) && worsening > rule.bound) {
        Verdict::Unresolved
    } else if worsening > rule.bound {
        Verdict::Worse
    } else if worsening < -rule.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worsening)
}

/// Compares two result files under `spec`; returns the printed table and
/// whether any row is worse.
pub fn compare(spec: &Json, parent: &Json, change: &Json) -> Result<(String, bool), String> {
    let rules = rules(spec)?;
    let (parent, change) = (samples(parent)?, samples(change)?);
    let mut table = format!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict\n",
        "workload", "metric", "parent", "change", "worse by", "bound", "spread"
    );
    let mut any_worse = false;
    let none = BTreeMap::new();
    for workload in parent
        .keys()
        .chain(change.keys().filter(|w| !parent.contains_key(*w)))
    {
        let (a, b) = (
            parent.get(workload).unwrap_or(&none),
            change.get(workload).unwrap_or(&none),
        );
        for rule in &rules {
            let (va, vb) = (
                a.get(&rule.name).map_or(&[][..], Vec::as_slice),
                b.get(&rule.name).map_or(&[][..], Vec::as_slice),
            );
            let (verdict, worsening) = judge(rule, va, vb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                table,
                "{:<16} {:<12} {:>14.3} {:>14.3} {:>+7.1}% {:>6.0}% {:>7.1}%  {}",
                workload,
                rule.name,
                median(va),
                median(vb),
                worsening * 100.0,
                rule.bound * 100.0,
                spread(va).max(spread(vb)) * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [100.0, 101.0, 99.0];
        let lower = rule(true, 0.10);
        assert_eq!(
            judge(&lower, &base, &[104.0, 105.0, 103.0]).0,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&lower, &base, &[120.0, 121.0, 119.0]).0,
            Verdict::Worse
        );
        assert_eq!(judge(&lower, &base, &[80.0, 81.0, 79.0]).0, Verdict::Better);
        let higher = rule(false, 0.10);
        assert_eq!(
            judge(&higher, &base, &[120.0, 121.0, 119.0]).0,
            Verdict::Better
        );
        assert_eq!(judge(&higher, &base, &[80.0, 81.0, 79.0]).0, Verdict::Worse);
        assert_eq!(judge(&lower, &base, &[]).0, Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let lower = rule(true, 0.05);
        let noisy = [100.0, 130.0, 90.0, 120.0];
        // Overlapping and noisy: no verdict either way.
        assert_eq!(
            judge(&lower, &noisy, &[105.0, 125.0, 95.0, 118.0]).0,
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(
            judge(&lower, &noisy, &[80.0, 60.0, 85.0, 70.0]).0,
            Verdict::Better
        );
        // Every run of the change is beaten by every run of the parent.
        assert_eq!(
            judge(&lower, &noisy, &[150.0, 190.0, 140.0, 170.0]).0,
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_result_files_and_flags_the_worse_row() {
        let spec = Json::parse(
            r#"{"end_to_end": [
                {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |p50: f64, rate: f64| {
            let run = |trace: u8, scale: f64| {
                format!(
                    r#"{{"workload": "w", "seed": 1, "trace": {trace}, "result": {{"correct": true,
                       "attempted": 9, "failed": 0, "metrics": {{
                       "op_p50_us": {{"value": {}, "unit": "us"}},
                       "ops_per_s": {{"value": {}, "unit": "1/s"}}}}}}}}"#,
                    p50 * scale,
                    rate * scale
                )
            };
            // The traced run (absurd values) must be ignored.
            Json::parse(&format!(
                r#"{{"runs": [{}, {}, {}, {}]}}"#,
                run(0, 1.0),
                run(0, 1.01),
                run(0, 0.99),
                run(1, 50.0)
            ))
            .unwrap()
        };
        let (table, worse) = compare(&spec, &file(100.0, 50.0), &file(102.0, 49.0)).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.matches("within bound").count(), 2, "{table}");
        let (table, worse) = compare(&spec, &file(100.0, 50.0), &file(130.0, 51.0)).unwrap();
        assert!(worse);
        assert!(table.contains("WORSE"), "{table}");
    }
}

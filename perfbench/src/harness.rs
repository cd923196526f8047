//! What every workload shares: the run configuration, the closed-loop
//! driver, set-up timing, and the end-to-end metrics derived from a pass.

use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::Report;
use crate::spans::{span_cost_us, Recorder};
use crate::stats::{median, percentile};

/// Worker threads behind every distributed or served run. Fixed, not taken
/// from the machine: at most 2 runnable threads, so numbers compare across
/// boxes.
pub const WORKERS: usize = 2;

/// Fewest set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Most set-ups per untraced run.
pub const SETUP_REPS_MAX: usize = 25;

/// Fewest ops a staged replay records, however short the run.
pub const MIN_REPLAY_OPS: u64 = 50;

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Seed for every generated input.
    pub seed: u64,
    /// Seconds the timed pass measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Where a traced run writes its span log (JSON) at exit, if anywhere.
    pub spans_out: Option<PathBuf>,
}

impl RunConfig {
    /// Seconds the platform pass gets: all of the run untraced, half of a
    /// traced run (the staged replay gets most of the rest).
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * 0.5
        } else {
            self.seconds
        }
    }

    /// Ends a traced run: records what a span costs the harness and writes
    /// the span log to [`Self::spans_out`].
    pub fn finish_trace(&self, report: &mut Report, rec: &Recorder) {
        report.set("harness.span_cost_us", span_cost_us());
        if let Some(path) = &self.spans_out {
            if let Err(e) = std::fs::write(path, rec.to_json()) {
                eprintln!("cannot write spans to {}: {e}", path.display());
            }
        }
    }
}

/// The calibration kernel's time on the reference box in a quiet phase, µs.
/// Every reported time is the measured one divided by the machine's
/// slowdown when it was measured — the kernel's time then, over this
/// constant — so the constant only fixes the scale: comparisons between two
/// builds on one machine do not depend on it.
pub const CAL_NOMINAL_US: f64 = 21.3;
/// A closed loop calibrates between ops, at most this often.
const CAL_EVERY: Duration = Duration::from_millis(5);
/// An op's slowdown is the median of the calibration before it and this many
/// on either side.
const CAL_NEIGHBOURS: usize = 4;

/// The fixed work a [`Calibrator`] times: dependent integer arithmetic and
/// loads over a 64 KB buffer.
struct Kernel {
    buf: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        Kernel { buf: vec![1; 8192] }
    }

    fn run(&mut self) -> Duration {
        let started = Instant::now();
        let mask = self.buf.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize & mask;
            self.buf[i] = self.buf[i].rotate_left(7) ^ x;
            x ^= self.buf[(i * 31 + 7) & mask];
        }
        std::hint::black_box(x);
        started.elapsed()
    }

    /// One sample, µs: the median of three timed runs after an untimed one
    /// (the op before has evicted the buffer).
    fn sample(&mut self) -> f64 {
        self.run();
        let mut timed = [self.run(), self.run(), self.run()];
        timed.sort();
        micros(timed[1])
    }
}

/// A second kernel on a thread of its own, run while the first runs.
struct Helper {
    go: Sender<()>,
    done: Receiver<f64>,
    thread: JoinHandle<()>,
}

/// The machine-speed probe. The boxes this benchmark runs on share their
/// cores: the same code runs a quarter slower for phases of 0.25–46 s, half of
/// the time, whatever clock it is timed with (thread CPU time reads the same
/// as wall time), each core on a schedule of its own. A fixed kernel timed
/// on the measuring thread right beside the ops slows down with them, so the
/// ratio of the two does not carry the phases. For a workload whose ops run
/// on both cores (a 2-worker pool; the coordinator wakes up on either), a
/// helper thread runs the kernel at the same moment — two runnable threads,
/// two cores — and a sample is the mean of the two.
pub struct Calibrator {
    kernel: Kernel,
    helper: Option<Helper>,
}

impl Calibrator {
    /// A probe of `cores` cores, 1 or 2.
    pub fn new(cores: usize) -> Self {
        let helper = (cores > 1).then(|| {
            let (go, go_rx) = channel::<()>();
            let (done_tx, done) = channel();
            let thread = std::thread::spawn(move || {
                let mut kernel = Kernel::new();
                while go_rx.recv().is_ok() && done_tx.send(kernel.sample()).is_ok() {}
            });
            Helper { go, done, thread }
        });
        Calibrator {
            kernel: Kernel::new(),
            helper,
        }
    }

    /// One sample, µs.
    pub fn sample(&mut self) -> f64 {
        let Some(helper) = &self.helper else {
            return self.kernel.sample();
        };
        helper.go.send(()).expect("calibration helper runs");
        let own = self.kernel.sample();
        let other = helper.done.recv().expect("calibration helper answers");
        (own + other) / 2.0
    }

    /// The machine's slowdown right now, from `samples` samples.
    pub fn slowdown(&mut self, samples: usize) -> f64 {
        let taken: Vec<f64> = (0..samples.max(1)).map(|_| self.sample()).collect();
        median(&taken) / CAL_NOMINAL_US
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        if let Some(Helper { go, thread, .. }) = self.helper.take() {
            drop(go); // the helper's `recv` fails and its loop ends
            thread.join().expect("calibration helper ended");
        }
    }
}

/// The slowdown at calibration `at` of `cals` (µs each): the median of it
/// and its [`CAL_NEIGHBOURS`] on either side, over [`CAL_NOMINAL_US`].
pub fn slowdown_at(cals: &[f64], at: usize) -> f64 {
    let lo = at.saturating_sub(CAL_NEIGHBOURS);
    let hi = (at + CAL_NEIGHBOURS + 1).min(cals.len());
    median(&cals[lo..hi]) / CAL_NOMINAL_US
}

/// The samples of one timed pass; `A` is what an op keeps of its answer
/// (a digest), checked against the reference after the pass.
#[derive(Clone, Debug)]
pub struct Pass<A> {
    /// Latency of every completed op as measured, µs, in completion order.
    pub latencies_us: Vec<f64>,
    /// `(op index, answer)` of every completed op.
    pub answers: Vec<(u64, A)>,
    /// Per attempted op, the wall time of its turn of the loop, seconds: the
    /// op plus the harness's own bookkeeping around it (input generation,
    /// cache invalidation, digests), calibration excluded.
    pub turns_s: Vec<f64>,
    /// Per attempted op, the machine's slowdown while it ran.
    pub slowdowns: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were shed, or (after [`Pass::check`]) answered
    /// wrongly.
    pub failed: u64,
    /// Wall time of the pass as measured, seconds, calibration excluded.
    pub wall_s: f64,
}

impl<A> Pass<A> {
    /// Counts every completed op whose answer `right` rejects as failed.
    /// Answers are checked after the pass, not inside it, so that the
    /// reference computation (a second platform, sometimes a far slower
    /// one) inflates neither the timed wall nor `peak_rss_mb`.
    pub fn check(&mut self, mut right: impl FnMut(u64, &A) -> bool) {
        let wrong = self.answers.iter().filter(|(i, a)| !right(*i, a)).count();
        self.failed += wrong as u64;
    }

    /// Latency of every completed op at nominal machine speed, µs.
    pub fn normalised_us(&self) -> Vec<f64> {
        self.latencies_us
            .iter()
            .zip(&self.answers)
            .map(|(latency, (op, _))| latency / self.slowdowns[*op as usize])
            .collect()
    }

    /// Completed ops per second of the pass at nominal machine speed.
    pub fn normalised_ops_per_s(&self) -> f64 {
        let wall: f64 = self
            .turns_s
            .iter()
            .zip(&self.slowdowns)
            .map(|(turn, slowdown)| turn / slowdown)
            .sum();
        self.latencies_us.len() as f64 / wall.max(1e-9)
    }

    /// The median slowdown over the pass.
    pub fn slowdown(&self) -> f64 {
        median(&self.slowdowns)
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// Stop once this much time has passed…
    pub time: Duration,
    /// …or after this many ops, whichever comes first. Workloads whose state
    /// grows with every op (stream appends, served writes) are op-bounded so
    /// that a faster build measures the same work, not more of it.
    pub ops: u64,
}

impl Limit {
    /// Time-bounded only.
    pub fn seconds(seconds: f64) -> Self {
        Limit {
            time: Duration::from_secs_f64(seconds),
            ops: u64::MAX,
        }
    }

    /// `per_second × seconds` ops, with twice the nominal time as a guard
    /// for a slow machine.
    pub fn ops_for(seconds: f64, per_second: f64) -> Self {
        Limit {
            time: Duration::from_secs_f64(seconds * 2.0),
            ops: (per_second * seconds).ceil().max(1.0) as u64,
        }
    }
}

/// Runs `op` in a closed loop: the next op starts only after the previous
/// one returned. `op` receives the op index and reports the latency of its
/// timed call — its own untimed preparation and digesting excluded — with
/// what it keeps of the answer; `None` marks an op that errored. Between
/// ops, every [`CAL_EVERY`], the loop calibrates the `cores` cores the ops
/// run on.
pub fn closed_loop<A>(
    limit: Limit,
    cores: usize,
    mut op: impl FnMut(u64) -> Option<(Duration, A)>,
) -> Pass<A> {
    let mut pass = Pass {
        latencies_us: Vec::new(),
        answers: Vec::new(),
        turns_s: Vec::new(),
        slowdowns: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let mut calibrator = Calibrator::new(cores);
    let mut cals: Vec<f64> = Vec::new();
    // Per attempted op, the calibration taken last before it.
    let mut cal_of: Vec<usize> = Vec::new();
    let started = Instant::now();
    let mut calibrated = started;
    while pass.attempted < limit.ops && started.elapsed() < limit.time {
        if cals.is_empty() || calibrated.elapsed() >= CAL_EVERY {
            let began = Instant::now();
            cals.push(calibrator.sample());
            calibrated = Instant::now();
            pass.wall_s -= (calibrated - began).as_secs_f64();
        }
        let began = Instant::now();
        match op(pass.attempted) {
            Some((latency, answer)) => {
                pass.latencies_us.push(micros(latency));
                pass.answers.push((pass.attempted, answer));
            }
            None => pass.failed += 1,
        }
        pass.turns_s.push(began.elapsed().as_secs_f64());
        cal_of.push(cals.len() - 1);
        pass.attempted += 1;
    }
    pass.wall_s += started.elapsed().as_secs_f64();
    pass.slowdowns = cal_of.iter().map(|&at| slowdown_at(&cals, at)).collect();
    pass
}

/// Runs the staged replay's ops for `seconds`, and for at least
/// [`MIN_REPLAY_OPS`] ops however long that takes. `op` reports whether the
/// staged answer equalled the platform's; one that did not is a failed op.
pub fn replay_loop(report: &mut Report, seconds: f64, mut op: impl FnMut(u64) -> bool) {
    let started = Instant::now();
    let mut ops = 0;
    while ops < MIN_REPLAY_OPS || started.elapsed().as_secs_f64() < seconds {
        report.failed += u64::from(!op(ops));
        ops += 1;
    }
    report.set("harness.replayed_ops", ops as f64);
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// A duration in microseconds, with its nanosecond digits.
pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

/// Builds the workload state several times, keeps the last and reports the
/// median build time in seconds at nominal machine speed (each build's time
/// over the slowdown calibrated right before and after it). `build` covers
/// everything a deployment pays before its first steady-state op: data
/// generation, deployment, pool construction, plan-cache warm-up,
/// registrations, the first pane fold.
///
/// An untraced run repeats the set-up at least [`SETUP_REPS`] times and, for
/// set-ups of a few milliseconds, on until a second has gone by or
/// [`SETUP_REPS_MAX`] are done — the cheaper the set-up, the more the median
/// needs. A traced run sets up once: it only needs the state.
pub fn setup<S>(cfg: &RunConfig, mut build: impl FnMut() -> S) -> (S, f64) {
    let (least, most) = if cfg.trace {
        (1, 1)
    } else {
        (SETUP_REPS, SETUP_REPS_MAX)
    };
    let mut calibrator = Calibrator::new(1);
    let mut times = Vec::new();
    let mut state = None;
    let began = Instant::now();
    let mut before = calibrator.slowdown(5);
    while times.len() < least || (times.len() < most && began.elapsed().as_secs_f64() < 1.0) {
        // Drop the previous state first, so peak RSS is one state's worth.
        drop(state.take());
        let (built, took) = timed(&mut build);
        let after = calibrator.slowdown(5);
        times.push(took.as_secs_f64() * 2.0 / (before + after));
        before = after;
        state = Some(built);
    }
    (state.expect("at least one set-up ran"), median(&times))
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills the five end-to-end metrics from the timed pass — the passes of
/// the clients that ran side by side, for a served workload. Times are at
/// nominal machine speed: nearest-rank percentiles over every completed op
/// of the run, and completed ops over the run's wall time (summed over
/// clients). `peak_rss_mb` is the caller's reading from right after the
/// pass, before any reference platform was built.
pub fn end_to_end<A>(report: &mut Report, passes: &[Pass<A>], setup_s: f64, peak_rss_mb: f64) {
    let latencies: Vec<f64> = passes.iter().flat_map(Pass::normalised_us).collect();
    report.attempted = passes.iter().map(|p| p.attempted).sum();
    report.failed = passes.iter().map(|p| p.failed).sum();
    if let (Some(p50), Some(p95)) = (percentile(&latencies, 50.0), percentile(&latencies, 95.0)) {
        report.set_sampled("op_p50_us", p50, latencies.len());
        report.set_sampled("op_p95_us", p95, latencies.len());
        report.set(
            "ops_per_s",
            passes.iter().map(Pass::normalised_ops_per_s).sum(),
        );
    }
    report.set("peak_rss_mb", peak_rss_mb);
    report.set("setup_s", setup_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_failures_and_honours_the_op_bound() {
        let limit = Limit {
            ops: 10,
            ..Limit::seconds(60.0)
        };
        let mut pass = closed_loop(limit, 1, |i| match i % 5 {
            0 => None, // errored
            _ => Some((Duration::from_micros(7), i % 5)),
        });
        assert_eq!((pass.attempted, pass.failed), (10, 2));
        assert_eq!(pass.latencies_us, vec![7.0; 8]);
        assert_eq!((pass.turns_s.len(), pass.slowdowns.len()), (10, 10));
        assert!(pass.slowdowns.iter().all(|s| *s > 0.0));
        // Two ops answered `1`, which the reference rejects.
        pass.check(|_, answer| *answer != 1);
        assert_eq!(pass.failed, 4);
        assert_eq!(pass.answers[0], (1, 1));
    }

    #[test]
    fn setup_repeats_untraced_and_keeps_the_last_state() {
        let cfg = |trace| RunConfig {
            seed: 1,
            seconds: 1.0,
            trace,
            spans_out: None,
        };
        let mut calls = 0;
        let (state, secs) = setup(&cfg(false), || {
            calls += 1;
            calls
        });
        // Instant set-ups: repeated up to the cap.
        assert_eq!(state, SETUP_REPS_MAX);
        assert!(secs >= 0.0);
        let (state, _) = setup(&cfg(true), || 7);
        assert_eq!(state, 7);
    }

    #[test]
    fn slowdown_is_the_local_median_over_the_nominal_time() {
        // A phase change between calibrations 9 and 10.
        let mut cals = vec![CAL_NOMINAL_US; 10];
        cals.extend([CAL_NOMINAL_US * 1.25; 10]);
        cals[3] = CAL_NOMINAL_US * 9.0; // an interrupt hit one sample
        assert_eq!(slowdown_at(&cals, 0), 1.0);
        assert_eq!(slowdown_at(&cals, 3), 1.0);
        assert_eq!(slowdown_at(&cals, 19), 1.25);
        assert_eq!(slowdown_at(&cals, 13), 1.25);
        assert!(Calibrator::new(1).sample() > 0.0);
        assert!(Calibrator::new(2).slowdown(3) > 0.0);
    }

    #[test]
    fn end_to_end_reports_times_at_nominal_speed() {
        // 100 ops of 10 µs every 0.1 ms, except that ops 40..100 ran in a
        // phase a quarter slower: 12.5 µs every 0.125 ms.
        let slow = |i: usize| if i < 40 { 1.0 } else { 1.25 };
        let pass = Pass {
            latencies_us: (0..100).map(|i| 10.0 * slow(i)).collect(),
            answers: (0..100).map(|i| (i, ())).collect(),
            turns_s: (0..100).map(|i| 1e-4 * slow(i)).collect(),
            slowdowns: (0..100).map(slow).collect(),
            attempted: 100,
            failed: 0,
            wall_s: 0.0115,
        };
        assert_eq!(pass.slowdown(), 1.25);
        let mut report = Report::default();
        end_to_end(&mut report, std::slice::from_ref(&pass), 0.5, 12.0);
        assert_eq!(report.values["op_p50_us"], 10.0);
        assert_eq!(report.values["op_p95_us"], 10.0);
        assert!((report.values["ops_per_s"] - 10_000.0).abs() < 1e-6);
        assert_eq!(report.samples["op_p95_us"], 100);
        // Two clients side by side: latencies pooled, throughputs added.
        end_to_end(&mut report, &[pass.clone(), pass], 0.5, 12.0);
        assert_eq!(report.samples["op_p50_us"], 200);
        assert!((report.values["ops_per_s"] - 20_000.0).abs() < 1e-6);
        assert_eq!(report.attempted, 200);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}

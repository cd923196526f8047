//! The harness's own span recorder.
//!
//! The staged replay wraps every call into a layer in one span: name,
//! start, end, the span that caused it and the op it belongs to. Spans stay
//! in memory while the benchmark runs and are written out once at exit. A
//! layer's *self time* is its span minus the part of that interval its
//! children cover — the arithmetic every `*_us` per-layer metric rests on.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are microseconds since the recorder was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `relational.exec`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// The op (one replayed request) the span belongs to.
    pub op: u64,
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1_000.0
    }

    /// Starts the next op: spans recorded from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Goes back to op `op`: spans recorded from here on carry its id (for
    /// a stage replayed in a later pass than the rest of its op).
    pub fn resume_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open. `f` receives the recorder so it can open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Records a span measured elsewhere (a program span imported through a
    /// public output) as a child of the open span, `offset_us` after that
    /// span's start. Clamped into the parent so self-time arithmetic holds.
    pub fn import(&mut self, name: &'static str, offset_us: f64, duration_us: f64) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let start_us = self.spans[parent].start_us + offset_us.max(0.0);
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us + duration_us.max(0.0),
            parent: Some(parent),
            op: self.op,
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_us, s.end_us, s.op
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children may overlap one
/// another (imported program spans can); the union counts shared time once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let lo = span.start_us.max(p.start_us);
            let hi = span.end_us.min(p.end_us);
            if hi > lo {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (span.end_us - span.start_us - covered).max(0.0)
        })
        .collect()
}

/// Per op, the summed self time of each span name: `name → one value per
/// op`, ops in id order, 0 where an op never entered the layer (so the
/// vectors of two names line up op by op). A layer called a hundred times
/// in one op (once per fragment) contributes its total, which is what the
/// op paid.
pub fn self_time_per_op(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let ops: BTreeMap<u64, usize> = spans
        .iter()
        .map(|s| s.op)
        .collect::<std::collections::BTreeSet<u64>>()
        .into_iter()
        .enumerate()
        .map(|(slot, op)| (op, slot))
        .collect();
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, self_us) in spans.iter().zip(selfs) {
        out.entry(span.name).or_insert_with(|| vec![0.0; ops.len()])[ops[&span.op]] += self_us;
    }
    out
}

/// What one span costs the harness, µs, measured on 10 000 empty spans.
pub fn span_cost_us() -> f64 {
    const N: u32 = 10_000;
    let mut rec = Recorder::new();
    for _ in 0..N {
        rec.span("op", |_| ());
    }
    rec.now_us() / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0.0, 100.0, None, 1),
            span("a", 10.0, 40.0, Some(0), 1),
            span("b", 30.0, 60.0, Some(0), 1), // overlaps `a` by 10
            span("a.leaf", 12.0, 20.0, Some(1), 1),
            span("late", 90.0, 130.0, Some(0), 1), // sticks out of the parent
        ];
        let selfs = self_times(&spans);
        // op: 100 − (union [10,60] = 50) − (clipped [90,100] = 10) = 40
        assert_eq!(selfs[0], 40.0);
        assert_eq!(selfs[1], 22.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[3], 8.0);
        assert_eq!(selfs[4], 40.0);
    }

    #[test]
    fn per_op_totals_sum_repeated_layers() {
        let spans = vec![
            span("op", 0.0, 10.0, None, 1),
            span("exec", 1.0, 3.0, Some(0), 1),
            span("exec", 4.0, 7.0, Some(0), 1),
            span("op", 20.0, 30.0, None, 2),
            span("exec", 21.0, 22.0, Some(3), 2),
        ];
        let per_op = self_time_per_op(&spans);
        assert_eq!(per_op["exec"], vec![5.0, 1.0]);
        assert_eq!(per_op["op"], vec![5.0, 9.0]);
        // A layer an op never entered counts 0 for that op.
        let mut spans = spans;
        spans.push(span("parse", 21.0, 21.5, Some(3), 2));
        assert_eq!(self_time_per_op(&spans)["parse"], vec![0.0, 0.5]);
    }

    #[test]
    fn recorder_nests_and_stamps_ops() {
        let mut rec = Recorder::new();
        let op = rec.next_op();
        let value = rec.span("op", |rec| {
            rec.span("child", |_| 7);
            rec.import("imported", 0.0, 0.0);
            41 + 1
        });
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == op));
        assert!(spans[0].end_us >= spans[1].end_us);
        assert!(rec.to_json().contains("\"name\":\"child\""));
    }
}

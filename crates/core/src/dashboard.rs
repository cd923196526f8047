//! Monitoring dashboards (the textual equivalent of paper Figure 3).
//!
//! "Dashboards show diagnostics results in real time, as well as statistics
//! on streaming answers, relevant turbines, and other information that is
//! typically required by Siemens Energy service engineers."

use optique_sparql::PipelineStats;
use optique_starql::TickOutput;
use optique_telemetry::MetricsRegistry;

/// Registry counters accumulating worker pane-store probe outcomes across
/// every registered query (pane-combinable distributed ticks only).
pub(crate) const PANE_HITS: &str = "pane.hits";
pub(crate) const PANE_MISSES: &str = "pane.misses";

/// Registry counters accumulating the pane rounds driven rounds shipped —
/// one per pool that had a pane tick due — and the distinct probes they
/// carried.
pub(crate) const PANE_ROUNDS: &str = "pane.rounds";
pub(crate) const PANE_PROBES: &str = "pane.probes";

/// Registry gauge: panes held in the stores of the pools the latest pane
/// round probed, set after each round.
pub(crate) const PANES_LIVE: &str = "panes.live";

/// Registry counters accumulating, across every sequence-HAVING tick, the
/// states the tick built and the states it took from the window cache.
pub(crate) const STATES_BUILT: &str = "seq.states_built";
pub(crate) const STATES_SHARED: &str = "seq.states_shared";

/// One query's monitoring panel — also the one set of counters the platform
/// keeps per registered query: ticks land on it through [`Self::absorb`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryPanel {
    /// Platform query id.
    pub id: u64,
    /// Query name.
    pub name: String,
    /// Static WHERE bindings (monitored sensors).
    pub bindings: usize,
    /// Ticks executed so far.
    pub ticks: u64,
    /// Ticks that failed: each ended the query's part of a driven round
    /// and was reported by that round's call, while the other queries'
    /// ticks went on.
    pub tick_errors: u64,
    /// Cumulative alarms.
    pub alarms: u64,
    /// Cumulative stream tuples inspected.
    pub tuples: u64,
    /// Size of the low-level query fleet this query replaces.
    pub fleet_size: usize,
    /// Workers evaluating this query's ticks (1 = single-node).
    pub workers: usize,
    /// Cumulative window fragments shipped to the federation (0 =
    /// single-node, or every window came from the shared cache).
    pub window_fragments: u64,
    /// Cumulative stream rows the federation shipped back.
    pub stream_rows: u64,
    /// Cumulative stream shards skipped by key routing.
    pub shards_pruned: u64,
    /// Cumulative stream-key semi-joins pushed into window fragments.
    pub semi_joins_pushed: u64,
    /// Cumulative worker pane-store probes answered from warm incremental
    /// state (pane-combinable distributed queries only).
    pub pane_hits: u64,
    /// Cumulative worker pane-store probes folded from scratch.
    pub pane_misses: u64,
    /// Cumulative pane probes read from a round that another query's tick
    /// read first, and was charged for.
    pub panes_shared: u64,
    /// Median tick latency in microseconds (0 before the first tick).
    pub tick_p50_us: u64,
    /// 95th-percentile tick latency in microseconds.
    pub tick_p95_us: u64,
    /// 99th-percentile tick latency in microseconds.
    pub tick_p99_us: u64,
}

impl QueryPanel {
    /// The one place a tick's counters land: on the panel and, for the
    /// platform-wide pane and sequence totals, in `registry`.
    pub fn absorb(&mut self, tick: &TickOutput, registry: &MetricsRegistry) {
        self.ticks += 1;
        self.alarms += tick.satisfied as u64;
        self.tuples += tick.tuples_in_window as u64;
        self.window_fragments += tick.window_fragments as u64;
        self.stream_rows += tick.stream_rows_shipped as u64;
        self.shards_pruned += tick.shards_pruned as u64;
        self.semi_joins_pushed += tick.semi_joins_pushed as u64;
        self.pane_hits += tick.pane_hits;
        self.pane_misses += tick.pane_misses;
        self.panes_shared += tick.panes_shared as u64;
        for (counter, n) in [
            (PANE_HITS, tick.pane_hits),
            (PANE_MISSES, tick.pane_misses),
            (STATES_BUILT, tick.states_built as u64),
            (STATES_SHARED, tick.states_shared as u64),
        ] {
            if n > 0 {
                registry.counter(counter).add(n);
            }
        }
    }
}

/// One executed static (SPARQL) query's panel.
///
/// The four stage-time columns are **span-derived**: the platform reads
/// them off the query's telemetry span tree (`parse` / `rewrite` / `unfold`
/// / `exec` spans), so the panel and EXPLAIN ANALYZE report the same clock.
/// With tracing off they render 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticQueryPanel {
    /// Platform-assigned id (its own sequence, separate from stream ids).
    pub id: u64,
    /// A one-line preview of the query text.
    pub query: String,
    /// Workers that executed this query (1 = single-node).
    pub workers: usize,
    /// Microseconds: parsing (from the `parse` span).
    pub parse_micros: u64,
    /// Microseconds: enrichment (summed `rewrite` spans).
    pub rewrite_micros: u64,
    /// Microseconds: unfolding (summed `unfold` spans).
    pub unfold_micros: u64,
    /// Microseconds: SQL execution (summed `exec` spans).
    pub exec_micros: u64,
    /// The pipeline's counters for this query, as it returned them.
    pub stats: PipelineStats,
}

impl StaticQueryPanel {
    /// End-to-end pipeline time in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.parse_micros + self.rewrite_micros + self.unfold_micros + self.exec_micros
    }

    /// The planner's `estimated ÷ actual` cardinality accuracy, clamped to
    /// a renderable range. `None` when there is no estimate (planner off —
    /// the pipeline floors live estimates to ≥ 1 per BGP, so 0 is
    /// unambiguous); when a round returns no rows the denominator is
    /// treated as 1 — a correctly-predicted empty result renders ≈ 1.0,
    /// an over-estimate renders as its magnitude — and the whole ratio
    /// caps at [`Self::ACCURACY_CAP`], never `inf`/`NaN`.
    pub fn estimate_accuracy(&self) -> Option<f64> {
        if self.stats.estimated_rows == 0 {
            return None;
        }
        let denominator = self.stats.actual_rows.max(1) as f64;
        Some((self.stats.estimated_rows as f64 / denominator).min(Self::ACCURACY_CAP))
    }

    /// Upper clamp for [`Self::estimate_accuracy`].
    pub const ACCURACY_CAP: f64 = 999.0;
}

/// One entry on the slow-query log: a static query whose end-to-end
/// latency crossed the platform's configurable threshold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// The static-query id (matches its [`StaticQueryPanel`]).
    pub id: u64,
    /// A one-line preview of the query text.
    pub query: String,
    /// Workers that executed it (1 = single-node).
    pub workers: usize,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
}

/// A point-in-time monitoring snapshot.
#[derive(Clone, Debug, Default)]
pub struct Dashboard {
    /// Per-query panels, in registration order.
    pub panels: Vec<QueryPanel>,
    /// Recently executed static SPARQL queries, oldest first.
    pub static_queries: Vec<StaticQueryPanel>,
    /// Shared window-cache hits.
    pub wcache_hits: u64,
    /// Shared window-cache misses.
    pub wcache_misses: u64,
    /// Per-BGP solution-set cache hits (static pipeline).
    pub bgp_cache_hits: u64,
    /// Per-BGP solution-set cache misses.
    pub bgp_cache_misses: u64,
    /// Times the per-BGP cache was invalidated by a relational write.
    pub bgp_cache_invalidations: u64,
    /// Median static-query latency in microseconds over the whole history
    /// (not just the remembered panels); 0 before the first query.
    pub static_p50_us: u64,
    /// 95th-percentile static-query latency in microseconds.
    pub static_p95_us: u64,
    /// 99th-percentile static-query latency in microseconds.
    pub static_p99_us: u64,
    /// Static queries that crossed the slow-query threshold, oldest first.
    pub slow_queries: Vec<SlowQuery>,
    /// The slow-query threshold in force when this snapshot was taken.
    pub slow_threshold_us: u64,
}

impl Dashboard {
    /// Total alarms across all panels.
    pub fn total_alarms(&self) -> u64 {
        self.panels.iter().map(|p| p.alarms).sum()
    }

    /// Total tuples inspected across all panels.
    pub fn total_tuples(&self) -> u64 {
        self.panels.iter().map(|p| p.tuples).sum()
    }

    /// Window-cache hit rate in `[0, 1]` (`None` before any access).
    pub fn wcache_hit_rate(&self) -> Option<f64> {
        let total = self.wcache_hits + self.wcache_misses;
        if total == 0 {
            None
        } else {
            Some(self.wcache_hits as f64 / total as f64)
        }
    }

    /// Total join-batch reorders across the remembered static queries.
    pub fn total_join_reorders(&self) -> usize {
        self.static_queries
            .iter()
            .map(|q| q.stats.join_reorders)
            .sum()
    }

    /// Total semi-join pushdowns across the remembered static queries.
    pub fn total_semi_joins_pushed(&self) -> usize {
        self.static_queries
            .iter()
            .map(|q| q.stats.semi_joins_pushed)
            .sum()
    }

    /// Total coordinator fallbacks across the remembered static queries —
    /// 0 proves every "distributed" answer genuinely shipped to workers.
    pub fn total_coordinator_fallbacks(&self) -> usize {
        self.static_queries
            .iter()
            .map(|q| q.stats.coordinator_fallbacks)
            .sum()
    }

    /// Total disjuncts executed sharded across the remembered static
    /// queries — 0 on a partitioned deployment means the advisor's keys
    /// never matched a scan.
    pub fn total_partitioned_fragments(&self) -> usize {
        self.static_queries
            .iter()
            .map(|q| q.stats.partitioned_fragments)
            .sum()
    }

    /// Total single-replica fallbacks across the remembered static queries
    /// (partitioned pools only).
    pub fn total_replicated_fallbacks(&self) -> usize {
        self.static_queries
            .iter()
            .map(|q| q.stats.replicated_fallbacks)
            .sum()
    }

    /// Total scatter executions skipped by partition-key routing.
    pub fn total_shards_pruned(&self) -> usize {
        self.static_queries
            .iter()
            .map(|q| q.stats.shards_pruned)
            .sum()
    }

    /// Per-BGP cache hit rate in `[0, 1]` (`None` before any lookup).
    pub fn bgp_cache_hit_rate(&self) -> Option<f64> {
        let total = self.bgp_cache_hits + self.bgp_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.bgp_cache_hits as f64 / total as f64)
        }
    }

    /// Total window fragments shipped across the continuous-query panels.
    pub fn total_window_fragments(&self) -> u64 {
        self.panels.iter().map(|p| p.window_fragments).sum()
    }

    /// Total stream rows the federations shipped for window fragments.
    pub fn total_stream_rows(&self) -> u64 {
        self.panels.iter().map(|p| p.stream_rows).sum()
    }

    /// Total stream shards skipped by key routing across the panels.
    pub fn total_stream_shards_pruned(&self) -> u64 {
        self.panels.iter().map(|p| p.shards_pruned).sum()
    }

    /// Worker pane-store hit rate across the continuous-query panels in
    /// `[0, 1]` (`None` before any pane probe — e.g. no pane-combinable
    /// distributed query registered).
    pub fn pane_hit_rate(&self) -> Option<f64> {
        let hits: u64 = self.panels.iter().map(|p| p.pane_hits).sum();
        let misses: u64 = self.panels.iter().map(|p| p.pane_misses).sum();
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Renders an ASCII dashboard frame.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "┌─ OPTIQUE monitoring ─ {} queries ─ {} alarms ─ wCache {}\n",
            self.panels.len(),
            self.total_alarms(),
            match self.wcache_hit_rate() {
                Some(rate) => format!("{:.0}% hit", rate * 100.0),
                None => "idle".to_string(),
            }
        ));
        let stream = stream_layout();
        out.push_str(&stream.header());
        for p in &self.panels {
            out.push_str(&stream.row(&[
                p.id.to_string(),
                truncate(&p.name, 36),
                p.bindings.to_string(),
                p.ticks.to_string(),
                p.tick_errors.to_string(),
                p.alarms.to_string(),
                p.tuples.to_string(),
                p.fleet_size.to_string(),
                p.workers.to_string(),
                p.window_fragments.to_string(),
                p.stream_rows.to_string(),
                p.shards_pruned.to_string(),
                p.semi_joins_pushed.to_string(),
                p.pane_hits.to_string(),
                p.pane_misses.to_string(),
                p.panes_shared.to_string(),
                p.tick_p50_us.to_string(),
                p.tick_p95_us.to_string(),
                p.tick_p99_us.to_string(),
            ]));
        }
        if !self.static_queries.is_empty() {
            out.push_str(&format!(
                "├─ static SPARQL ─ {} queries ─ p50/p95/p99 {}/{}/{} µs ─ BGP cache {}\n",
                self.static_queries.len(),
                self.static_p50_us,
                self.static_p95_us,
                self.static_p99_us,
                match self.bgp_cache_hit_rate() {
                    Some(rate) => format!(
                        "{:.0}% hit ({} inval)",
                        rate * 100.0,
                        self.bgp_cache_invalidations
                    ),
                    None => "idle".to_string(),
                }
            ));
            let layout = static_layout();
            out.push_str(&layout.header());
            for q in &self.static_queries {
                out.push_str(&layout.row(&[
                    q.id.to_string(),
                    truncate(&q.query, 33),
                    q.stats.rows.to_string(),
                    q.stats.bgps.to_string(),
                    q.stats.ucq_disjuncts.to_string(),
                    q.stats.sql_disjuncts.to_string(),
                    q.stats.cache_hits.to_string(),
                    q.stats.fragments.to_string(),
                    q.workers.to_string(),
                    q.stats.partitioned_fragments.to_string(),
                    q.stats.replicated_fallbacks.to_string(),
                    q.stats.coordinator_fallbacks.to_string(),
                    q.stats.shards_pruned.to_string(),
                    q.stats.join_reorders.to_string(),
                    q.stats.semi_joins_pushed.to_string(),
                    format!("{}/{}", q.stats.estimated_rows, q.stats.actual_rows),
                    match q.estimate_accuracy() {
                        Some(acc) => format!("{acc:.1}"),
                        None => "—".to_string(),
                    },
                    q.stats.fragment_rows.to_string(),
                    q.total_micros().to_string(),
                ]));
            }
        }
        if !self.slow_queries.is_empty() {
            out.push_str(&format!(
                "├─ slow queries ─ ≥ {} µs\n",
                self.slow_threshold_us
            ));
            let layout = slow_layout();
            out.push_str(&layout.header());
            for s in &self.slow_queries {
                out.push_str(&layout.row(&[
                    s.id.to_string(),
                    truncate(&s.query, 60),
                    s.workers.to_string(),
                    s.total_us.to_string(),
                ]));
            }
        }
        out.push_str("└─\n");
        out
    }
}

/// Column alignment for [`ColumnLayout`].
#[derive(Clone, Copy, Debug)]
enum Align {
    Left,
    Right,
}

/// A shared header/row layout: every panel table renders its header and
/// its rows through one set of column widths, so columns cannot drift when
/// a field is added (the old hand-counted `format!` strings could — and
/// did).
struct ColumnLayout {
    /// `(title, width, alignment)` per column; widths count chars, not
    /// bytes, and never undercut the title.
    columns: Vec<(&'static str, usize, Align)>,
}

impl ColumnLayout {
    fn new(columns: Vec<(&'static str, usize, Align)>) -> Self {
        let columns = columns
            .into_iter()
            .map(|(title, width, align)| (title, width.max(title.chars().count()), align))
            .collect();
        ColumnLayout { columns }
    }

    fn pad(text: &str, width: usize, align: Align) -> String {
        let fill = width.saturating_sub(text.chars().count());
        match align {
            Align::Left => format!("{text}{}", " ".repeat(fill)),
            Align::Right => format!("{}{text}", " ".repeat(fill)),
        }
    }

    /// The header line, each title aligned exactly like its values.
    fn header(&self) -> String {
        let titles: Vec<String> = self.columns.iter().map(|(t, _, _)| t.to_string()).collect();
        self.row(&titles)
    }

    /// One body line. Missing cells render empty; extra cells are ignored.
    fn row(&self, cells: &[String]) -> String {
        let mut line = String::from("│");
        for (i, (_, width, align)) in self.columns.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            line.push(' ');
            line.push_str(&Self::pad(cell, *width, *align));
        }
        while line.ends_with(' ') {
            line.pop();
        }
        line.push('\n');
        line
    }
}

fn stream_layout() -> ColumnLayout {
    ColumnLayout::new(vec![
        ("id", 4, Align::Left),
        ("name", 36, Align::Left),
        ("bindings", 8, Align::Right),
        ("ticks", 5, Align::Right),
        ("errs", 4, Align::Right),
        ("alarms", 6, Align::Right),
        ("tuples", 8, Align::Right),
        ("fleet", 5, Align::Right),
        ("wrk", 3, Align::Right),
        ("wfrag", 5, Align::Right),
        ("srows", 6, Align::Right),
        ("prune", 5, Align::Right),
        ("semi", 4, Align::Right),
        ("phit", 4, Align::Right),
        ("pmiss", 5, Align::Right),
        ("pshr", 4, Align::Right),
        ("p50µs", 6, Align::Right),
        ("p95µs", 6, Align::Right),
        ("p99µs", 6, Align::Right),
    ])
}

fn static_layout() -> ColumnLayout {
    ColumnLayout::new(vec![
        ("id", 4, Align::Left),
        ("query", 33, Align::Left),
        ("rows", 5, Align::Right),
        ("bgps", 4, Align::Right),
        ("ucq", 3, Align::Right),
        ("sql", 3, Align::Right),
        ("hit", 3, Align::Right),
        ("frag", 4, Align::Right),
        ("wrk", 3, Align::Right),
        ("part", 4, Align::Right),
        ("repl", 4, Align::Right),
        ("fall", 4, Align::Right),
        ("prune", 5, Align::Right),
        ("reord", 5, Align::Right),
        ("semi", 4, Align::Right),
        ("est/act", 8, Align::Right),
        ("acc", 5, Align::Right),
        ("fetched", 7, Align::Right),
        ("µs", 6, Align::Right),
    ])
}

fn slow_layout() -> ColumnLayout {
    ColumnLayout::new(vec![
        ("id", 4, Align::Left),
        ("query", 60, Align::Left),
        ("wrk", 3, Align::Right),
        ("µs", 9, Align::Right),
    ])
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dash() -> Dashboard {
        Dashboard {
            panels: vec![
                QueryPanel {
                    id: 1,
                    name: "T01:monotonic-increase/temperature".into(),
                    bindings: 60,
                    ticks: 10,
                    tick_errors: 1,
                    alarms: 2,
                    tuples: 1200,
                    fleet_size: 5,
                    workers: 4,
                    window_fragments: 10,
                    stream_rows: 1100,
                    shards_pruned: 12,
                    semi_joins_pushed: 10,
                    pane_hits: 8,
                    pane_misses: 2,
                    panes_shared: 3,
                    tick_p50_us: 800,
                    tick_p95_us: 950,
                    tick_p99_us: 990,
                },
                QueryPanel {
                    id: 2,
                    name: "T05:overheat/temperature".into(),
                    bindings: 15,
                    ticks: 10,
                    tick_errors: 0,
                    alarms: 1,
                    tuples: 300,
                    fleet_size: 3,
                    workers: 1,
                    window_fragments: 0,
                    stream_rows: 0,
                    shards_pruned: 0,
                    semi_joins_pushed: 0,
                    pane_hits: 0,
                    pane_misses: 0,
                    panes_shared: 0,
                    tick_p50_us: 0,
                    tick_p95_us: 0,
                    tick_p99_us: 0,
                },
            ],
            static_queries: vec![StaticQueryPanel {
                id: 1,
                query: "SELECT ?s WHERE { ?s a sie:Sensor }".into(),
                workers: 4,
                parse_micros: 40,
                rewrite_micros: 120,
                unfold_micros: 300,
                exec_micros: 2000,
                stats: PipelineStats {
                    rows: 60,
                    bgps: 1,
                    ucq_disjuncts: 5,
                    sql_disjuncts: 8,
                    cache_hits: 0,
                    cache_misses: 1,
                    fragments: 8,
                    coordinator_fallbacks: 1,
                    join_reorders: 1,
                    semi_joins_pushed: 2,
                    estimated_rows: 70,
                    actual_rows: 60,
                    fragment_rows: 95,
                    partitioned_fragments: 6,
                    replicated_fallbacks: 1,
                    shards_pruned: 9,
                    plan_cache_hits: 6,
                    plan_cache_misses: 2,
                },
            }],
            wcache_hits: 9,
            wcache_misses: 1,
            bgp_cache_hits: 3,
            bgp_cache_misses: 1,
            bgp_cache_invalidations: 1,
            static_p50_us: 2100,
            static_p95_us: 2400,
            static_p99_us: 2460,
            slow_queries: vec![SlowQuery {
                id: 1,
                query: "SELECT ?s WHERE { ?s a sie:Sensor }".into(),
                workers: 4,
                total_us: 2460,
            }],
            slow_threshold_us: 1000,
        }
    }

    #[test]
    fn totals() {
        let d = dash();
        assert_eq!(d.total_alarms(), 3);
        assert_eq!(d.total_tuples(), 1500);
        assert_eq!(d.wcache_hit_rate(), Some(0.9));
    }

    #[test]
    fn empty_dashboard_has_no_hit_rate() {
        assert_eq!(Dashboard::default().wcache_hit_rate(), None);
        assert_eq!(Dashboard::default().bgp_cache_hit_rate(), None);
    }

    #[test]
    fn streaming_totals_and_plan_cache_rate() {
        let d = dash();
        assert_eq!(d.total_window_fragments(), 10);
        assert_eq!(d.total_stream_rows(), 1100);
        assert_eq!(d.total_stream_shards_pruned(), 12);
        // The header's plan-cache rate went with the worker plan caches;
        // per-query parse counts stay on the static panels.
        assert_eq!(d.static_queries[0].stats.plan_cache_hits, 6);
        let r = d.render();
        assert!(!r.contains("plan cache"), "{r}");
        assert!(r.contains("wfrag"), "{r}");
        assert!(r.contains("srows"), "{r}");
    }

    #[test]
    fn pane_hit_rate_and_render() {
        let d = dash();
        assert_eq!(d.pane_hit_rate(), Some(0.8));
        let r = d.render();
        assert!(r.contains("phit"), "{r}");
        assert!(r.contains("pmiss"), "{r}");
        assert!(r.contains("pshr"), "{r}");
        assert_eq!(Dashboard::default().pane_hit_rate(), None);
    }

    #[test]
    fn bgp_cache_rate_and_render() {
        let d = dash();
        assert_eq!(d.bgp_cache_hit_rate(), Some(0.75));
        let r = d.render();
        assert!(r.contains("BGP cache 75% hit"), "{r}");
        assert!(r.contains("(1 inval)"), "{r}");
    }

    #[test]
    fn render_contains_all_panels() {
        let r = dash().render();
        assert!(r.contains("T01"));
        assert!(r.contains("T05"));
        assert!(r.contains("90% hit"));
    }

    #[test]
    fn render_contains_static_queries() {
        let r = dash().render();
        assert!(r.contains("static SPARQL"));
        assert!(r.contains("SELECT ?s WHERE"));
        assert!(r.contains("2460"), "total µs column: {r}");
        assert!(r.contains("70/60"), "est/act column: {r}");
        assert!(r.contains("reord"), "planner columns present: {r}");
    }

    #[test]
    fn render_contains_latency_columns_and_slow_log() {
        let r = dash().render();
        assert!(r.contains("p50µs"), "tick percentile header: {r}");
        assert!(r.contains("800"), "p50 value: {r}");
        assert!(r.contains("p50/p95/p99 2100/2400/2460 µs"), "{r}");
        assert!(r.contains("slow queries ─ ≥ 1000 µs"), "{r}");
        // An empty slow log renders no slow section at all.
        let mut quiet = dash();
        quiet.slow_queries.clear();
        assert!(!quiet.render().contains("slow queries"));
    }

    #[test]
    fn planner_totals_sum_across_queries() {
        let d = dash();
        assert_eq!(d.total_join_reorders(), 1);
        assert_eq!(d.total_semi_joins_pushed(), 2);
        assert_eq!(d.total_coordinator_fallbacks(), 1);
        assert_eq!(Dashboard::default().total_semi_joins_pushed(), 0);
    }

    #[test]
    fn partition_totals_sum_across_queries() {
        let d = dash();
        assert_eq!(d.total_partitioned_fragments(), 6);
        assert_eq!(d.total_replicated_fallbacks(), 1);
        assert_eq!(d.total_shards_pruned(), 9);
        assert_eq!(Dashboard::default().total_shards_pruned(), 0);
    }

    /// Regression: a fragment round returning no rows (actual = 0) used to
    /// make the estimated÷actual column divide by zero — the accuracy must
    /// clamp, and the rendered frame must never contain `inf`/`NaN`.
    #[test]
    fn estimate_accuracy_clamps_zero_denominators() {
        let mut panel = dash().static_queries[0].clone();
        assert!((panel.estimate_accuracy().unwrap() - 70.0 / 60.0).abs() < 1e-9);

        panel.stats.actual_rows = 0;
        assert_eq!(
            panel.estimate_accuracy(),
            Some(70.0),
            "zero actual rows divide by a floor of 1, never by zero"
        );
        // A correctly-predicted empty result is accurate, not maximally
        // wrong (the pipeline floors live estimates to 1).
        panel.stats.estimated_rows = 1;
        assert_eq!(panel.estimate_accuracy(), Some(1.0));
        // A wildly-over-estimated empty result clamps.
        panel.stats.estimated_rows = 1_000_000;
        assert_eq!(
            panel.estimate_accuracy(),
            Some(StaticQueryPanel::ACCURACY_CAP)
        );
        panel.stats.estimated_rows = 70;
        let mut d = dash();
        d.static_queries[0].stats.actual_rows = 0;
        let r = d.render();
        assert!(!r.contains("inf"), "{r}");
        assert!(!r.contains("NaN"), "{r}");
        assert!(r.contains("70.0"), "floored-denominator accuracy: {r}");

        // No estimate at all (planner off): no accuracy, not 0/0 noise.
        panel.stats.estimated_rows = 0;
        assert_eq!(panel.estimate_accuracy(), None);
        d.static_queries[0].stats.estimated_rows = 0;
        d.static_queries[0].stats.actual_rows = 0;
        assert!(!d.render().contains("NaN"));
    }

    #[test]
    fn render_contains_partition_columns() {
        let r = dash().render();
        assert!(r.contains("part"), "{r}");
        assert!(r.contains("prune"), "{r}");
        assert!(r.contains("acc"), "{r}");
    }

    #[test]
    fn static_panel_totals() {
        let p = &dash().static_queries[0];
        assert_eq!(p.total_micros(), 2460);
    }

    #[test]
    fn long_names_truncated() {
        assert_eq!(truncate("abcdef", 4), "abc…");
        assert_eq!(truncate("abc", 4), "abc");
    }

    /// Every layout keeps header titles and row cells inside the same
    /// column boundaries — the alignment guarantee the hand-counted
    /// `format!` strings never had.
    #[test]
    fn header_and_rows_share_column_boundaries() {
        for layout in [stream_layout(), static_layout(), slow_layout()] {
            let header: Vec<char> = layout.header().chars().collect();
            let cells = vec!["9".to_string(); layout.columns.len()];
            let row: Vec<char> = layout.row(&cells).chars().collect();
            let mut start = 2; // after "│ "
            for (title, width, align) in &layout.columns {
                let slot = |line: &[char]| -> String {
                    line.iter()
                        .chain(std::iter::repeat(&' '))
                        .skip(start)
                        .take(*width)
                        .collect()
                };
                let header_slot = slot(&header);
                let row_slot = slot(&row);
                match align {
                    Align::Left => {
                        assert!(header_slot.starts_with(title), "{title}: {header_slot:?}");
                        assert!(row_slot.starts_with('9'), "{title}: {row_slot:?}");
                    }
                    Align::Right => {
                        assert!(header_slot.ends_with(title), "{title}: {header_slot:?}");
                        assert!(row_slot.ends_with('9'), "{title}: {row_slot:?}");
                    }
                }
                start += width + 1;
            }
        }
    }

    /// A header title wider than its configured width widens the column
    /// instead of bleeding into its neighbor.
    #[test]
    fn narrow_columns_widen_to_their_title() {
        let layout = ColumnLayout::new(vec![("bindings", 2, Align::Right)]);
        assert_eq!(layout.columns[0].1, 8);
        assert_eq!(layout.header(), "│ bindings\n");
        assert_eq!(layout.row(&["7".into()]), "│        7\n");
    }
}

//! EXASTREAM — the distributed stream engine (paper Figure 2).
//!
//! "Queries are registered through the Asynchronous Gateway Server. Each
//! registered query passes through the EXAREME parser and then is fed to the
//! Scheduler module. The Scheduler places stream and relational operators on
//! worker nodes based on the node's load. These operators are executed by a
//! Stream Engine instance running on each node."
//!
//! The cluster here is *simulated*: a worker node is a thread plus its own
//! catalog shard (the paper's VMs had 2 CPUs / 4 GB each; our substitution
//! preserves the scaling *shape* — near-linear speedup until the host's
//! physical cores saturate). Components:
//!
//! * [`cluster`] — workers and data sharding (hash partitioning by key),
//! * [`scheduler`] — least-loaded operator placement,
//! * [`gateway`] — asynchronous query registration and the continuous-query
//!   registry,
//! * [`exchange`] — partition/merge dataflow between workers,
//! * [`plan_cache`] — a wire-keyed prepared-statement cache the benchmark
//!   still links (no product caller),
//! * [`adaptive`] — adaptive main-memory indexing of cached stream batches,
//! * [`udf`] — scalar UDFs and fused operator pipelines (standing in for the
//!   JIT tracing compilation the paper describes),
//! * [`metrics`] — throughput/latency accounting behind every number in
//!   EXPERIMENTS.md.

pub mod adaptive;
pub mod cluster;
pub mod exchange;
pub mod gateway;
pub mod metrics;
pub mod plan_cache;
pub mod scheduler;
pub mod udf;

pub use adaptive::AdaptiveIndexer;
pub use cluster::{Cluster, Worker};
pub use gateway::{Gateway, QueryId, RegisteredQuery, StaticFragment, StaticRound};
pub use metrics::ThroughputMeter;
pub use plan_cache::PlanCache;
pub use scheduler::{Placement, Scheduler, TaskKind};

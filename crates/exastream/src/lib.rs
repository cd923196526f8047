//! EXASTREAM — the distributed engine behind the gateway (paper Figure 2).
//!
//! "The Scheduler places stream and relational operators on worker nodes
//! based on the node's load. These operators are executed by a Stream
//! Engine instance running on each node." Here the platform owns query
//! registration and hands this crate *rounds* of plan fragments; the crate
//! places them, runs them on the workers and gathers the answers.
//!
//! The cluster is *simulated*: a worker node is a thread plus its own
//! catalog shard (the paper's VMs had 2 CPUs / 4 GB each; our substitution
//! preserves the scaling *shape* — near-linear speedup until the host's
//! physical cores saturate). Components:
//!
//! * [`cluster`] — workers, data sharding (hash partitioning by key) and
//!   the one spawn/join site every round runs through,
//! * [`scheduler`] — LPT placement of a round's fragments,
//! * [`gateway`] — the round executor: place or scatter, run, gather,
//! * [`plan_cache`] — a wire-keyed prepared-statement cache the benchmark
//!   still links (no product caller).

pub mod cluster;
pub mod gateway;
pub mod plan_cache;
pub mod scheduler;

pub use cluster::{Cluster, Worker};
pub use gateway::{Gateway, ReadyPlan, StaticFragment, StaticRound};
pub use plan_cache::PlanCache;

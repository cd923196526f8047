//! The repository's one benchmark: seven named workloads over the Optique
//! platform, end-to-end and per-layer metrics, and a staged-replay trace.
//! See `README.md` in this directory.

pub mod compare;
pub mod fixtures;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;

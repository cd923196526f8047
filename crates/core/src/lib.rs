//! OPTIQUE — end-to-end Ontology-Based Stream-Static Data Integration.
//!
//! This crate is the platform layer of the reproduction: it wires the
//! deployment assets (ontology + mappings, hand-written or BootOX-generated)
//! to the STARQL pipeline (enrich → unfold → execute) and the shared
//! streaming runtime (wCache, pulse ticks), and exposes the monitoring
//! [`Dashboard`] the demo scenarios show.
//!
//! ```no_run
//! use optique::OptiquePlatform;
//! use optique_siemens::SiemensDeployment;
//!
//! let mut platform = OptiquePlatform::from_siemens(SiemensDeployment::small());
//! let task = &optique_siemens::diagnostic_tasks()[0];
//! let id = platform.register_task(task).unwrap();
//! let outputs = platform.tick_all(609_000).unwrap();
//! for (qid, out) in outputs {
//!     println!("query {qid}: {} alarms", out.triples.len());
//! }
//! # let _ = id;
//! ```

pub mod dashboard;
pub mod federation;
pub mod platform;
pub mod server;
pub mod streaming;

pub use dashboard::{Dashboard, QueryPanel, SlowQuery, StaticQueryPanel};
pub use federation::{Federation, FederationTopology};
pub use optique_telemetry as telemetry;

pub use optique_sparql::SparqlResults;
pub use platform::{OptiquePlatform, PlatformSnapshot, MAX_WORKERS, MERGE_FLOOR_ROWS, MERGE_SHARE};
pub use server::{Client, Request, Response, Server, ServerConfig, ServerError, TenantQuota};
pub use streaming::FleetReport;

// The integration suites' shared helpers name this crate `optique`; the
// streaming tests include them too.
#[cfg(test)]
extern crate self as optique;

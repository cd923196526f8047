//! CQL-style data-stream substrate: window bounds, the shared window cache
//! and the relation-to-stream operators.
//!
//! ExaStream extends its relational core with "the essential operators for
//! stream handling", conforming to the CQL semantics of Arasu/Babu/Widom
//! [paper ref 1], and exposes them as SQL(+) UDFs. Here a window is not read
//! through SQL text: a tick reads the rows between a window's bounds (a
//! single-node filter, a `WindowSlice` fragment or a pane probe, all in
//! `optique-relational`). This crate holds what those readers share:
//!
//! * [`WindowSpec`] — the paper's `timeSlidingWindow` geometry: which
//!   `(open, close]` interval window `k` covers, and which window an
//!   instant last closed,
//! * [`WCache`] — the paper's `wCache` UDF: a shared cache "answering
//!   efficiently equality constraints on the time column" for many
//!   concurrent queries. Windows are keyed by their `(open, close]` bounds,
//!   hold their rows and what readers derived from them, and share
//!   per-timestamp slices of that derivation across overlapping windows;
//!   the caller bounds it with a time horizon,
//! * [`r2s`] — the relation-to-stream operators (`IStream`, `DStream`;
//!   `RStream` is the relation itself).

pub mod r2s;
pub mod wcache;
pub mod window;

pub use r2s::{dstream, istream, StreamDiffer};
pub use wcache::{WCache, Window};
pub use window::WindowSpec;

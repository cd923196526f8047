//! CQL-style data-stream substrate — the "SQL(+)" streaming operators.
//!
//! ExaStream extends its relational core with "the essential operators for
//! stream handling", conforming to the CQL semantics of Arasu/Babu/Widom
//! [paper ref 1]. This crate provides those operators over the engine in
//! `optique-relational`:
//!
//! * [`Stream`] — a registered stream: a timestamp-ordered relation plus the
//!   designated time column (archived batches of it live as ordinary tables,
//!   which is also how the demo "plays" recorded Siemens data),
//! * [`WindowSpec`] + [`time_sliding_window`] — the paper's
//!   `timeSlidingWindow` UDF: stream-to-relation conversion tagging every
//!   tuple with the ids of the sliding windows containing it,
//! * [`WCache`] — the paper's `wCache` UDF: a shared cache "answering
//!   efficiently equality constraints on the time column" for many
//!   concurrent queries. Windows are keyed by their `(open, close]` bounds,
//!   hold their rows and what readers derived from them, and share
//!   per-timestamp slices of that derivation across overlapping windows;
//!   the caller bounds it with a time horizon,
//! * [`r2s`] — the relation-to-stream operators (`IStream`, `DStream`;
//!   `RStream` is the relation itself),
//! * [`register_stream_functions`] — exposes the operators as SQL(+)
//!   table-valued functions on a [`Database`](optique_relational::Database).

pub mod r2s;
pub mod registry;
pub mod stream;
pub mod wcache;
pub mod window;

pub use r2s::{dstream, istream, StreamDiffer};
pub use registry::register_stream_functions;
pub use stream::Stream;
pub use wcache::{WCache, Window};
pub use window::{time_sliding_window, WindowSpec};

//! Locality-Sensitive Hashing for cross-stream correlation.
//!
//! The paper: "UDFs allow to express very complex dataflows … For OPTIQUE we
//! used UDFs to implement … data mining algorithms such as the
//! Locality-Sensitive Hashing technique \[7\] for computing the correlation
//! between values of multiple streams."
//!
//! The scheme is random-hyperplane LSH over z-normalized measurement
//! windows. For centered, unit-variance vectors the Pearson correlation of
//! two windows equals the cosine of the angle between them, and a random
//! hyperplane separates them with probability `θ/π`; so the Hamming
//! distance between bit signatures estimates `θ`, hence the correlation:
//! `r̂ = cos(π · hamming/bits)`. Banding the signature turns all-pairs
//! correlation search over thousands of sensors into a bucket join — the
//! E9 experiment measures the speedup and the precision/recall against the
//! exact Pearson baseline.

pub mod correlate;
pub mod signature;

pub use correlate::{exact_pearson, CorrelatedPair, CorrelationIndex};
pub use signature::{standardize, Signature, SignatureScheme};

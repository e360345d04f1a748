//! # hbc-rp — Achlioptas random projections and their optimisation
//!
//! Random projections (RPs) reduce the dimensionality of the heartbeat
//! representation before classification: a beat window of `d` samples is
//! mapped to `k ≪ d` coefficients by `u = P·v`, where `P` is a sparse
//! `k × d` matrix whose entries are drawn from the Achlioptas distribution
//! (+1 with probability 1/6, −1 with probability 1/6, 0 with probability 2/3).
//! The Johnson–Lindenstrauss lemma bounds the distortion such a projection
//! introduces, and because the entries are ternary the projection needs no
//! multiplications — only additions and subtractions — which is what makes it
//! attractive for a WBSN.
//!
//! This crate provides:
//!
//! * [`AchlioptasMatrix`] — generation and application (floating point and
//!   integer) of the projection;
//! * [`PackedProjection`] — the 2-bit-per-entry memory layout used on the
//!   embedded platform (¼ of the memory of a byte matrix, Section III-B of
//!   the paper);
//! * [`BitPlanes`] — the bit-sliced (two `u64` masks per row) working set
//!   derived from the packed form, powering the branch-free host-side
//!   projection kernel;
//! * [`genetic`] — the genetic algorithm used to search for a
//!   high-performance projection (population of 20 matrices, 30 generations
//!   in the paper);
//! * [`jl`] — utilities to measure empirical pairwise-distance distortion and
//!   compare it against the Johnson–Lindenstrauss bound.
//!
//! ```
//! use hbc_rp::AchlioptasMatrix;
//!
//! let p = AchlioptasMatrix::generate(8, 200, 42);
//! let beat = vec![0.5_f64; 200];
//! let coeffs = p.project(&beat);
//! assert_eq!(coeffs.len(), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod achlioptas;
pub mod bitplanes;
pub mod genetic;
pub mod jl;
pub mod packed;

pub use achlioptas::{AchlioptasMatrix, ProjectionEntry};
pub use bitplanes::BitPlanes;
pub use genetic::{GeneticConfig, GeneticOptimizer, GeneticOutcome};
pub use packed::PackedProjection;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpError {
    /// The projection dimensions are invalid (zero rows/columns, or an input
    /// vector whose length does not match the matrix).
    Dimension(String),
    /// The genetic optimiser was configured with unusable parameters.
    Config(String),
}

impl std::fmt::Display for RpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpError::Dimension(m) => write!(f, "dimension mismatch: {m}"),
            RpError::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for RpError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, RpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        assert!(RpError::Dimension("8 vs 16".into())
            .to_string()
            .contains("8 vs 16"));
        assert!(RpError::Config("empty population".into())
            .to_string()
            .contains("population"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RpError>();
    }
}

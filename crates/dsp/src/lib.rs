//! # hbc-dsp — embedded ECG signal processing
//!
//! The WBSN application of the paper wraps the RP-based classifier with a
//! conditioning front-end and an optional detailed-analysis back-end, all
//! taken from the embedded multi-lead delineation work of Rincón et al.
//! (reference \[1\] of the paper):
//!
//! * [`filter`] — **morphological filtering** removing baseline wander and
//!   motion artefacts with erosion/dilation (opening/closing) operators,
//!   computed by an O(n) monotone-deque kernel with allocation-free `_into`
//!   variants over a shared [`FrontendScratch`];
//! * [`wavelet`] — an **à-trous dyadic wavelet transform** (quadratic-spline
//!   mother wavelet) producing the four scales the peak detector works on;
//! * [`peak`] — the **R-peak detector**: maximum–minimum pairs across scales
//!   with a zero-crossing refinement on the first scale;
//! * [`delineation`] — **multi-scale morphological derivative (MMD)**
//!   delineation of the P, QRS and T waves (onset / peak / end fiducial
//!   points), combinable across three leads;
//! * [`downsample`] / [`window`] — decimation and beat-window extraction
//!   utilities shared by the PC and WBSN pipelines;
//! * [`streaming`] — push-based, bounded-memory equivalents of the
//!   conditioning chain (baseline filter, à-trous wavelet, R-peak scan,
//!   decimation and beat windowing), bit-identical to the batch kernels and
//!   the substrate of the online firmware in `hbc-embedded`.
//!
//! All algorithms are implemented both in `f64` (PC-side, training) and — for
//! the blocks that run on the WBSN — in integer arithmetic, so that the
//! platform model of `hbc-embedded` can meter realistic operation counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delineation;
pub mod downsample;
pub mod filter;
pub mod frontend;
pub mod peak;
pub mod streaming;
mod tape;
pub mod wavelet;
pub mod window;

pub use delineation::{BeatFiducials, Delineator, FiducialPoint, WaveFiducials};
pub use filter::{ExtremumKind, MorphologicalFilter};
pub use frontend::FrontendScratch;
pub use peak::{PeakDetector, PeakDetectorConfig, PeakScanner, PeakThresholds};
pub use streaming::{
    StreamingBaselineFilter, StreamingBeatWindower, StreamingDecimator, StreamingPeakDetector,
    StreamingWavelet,
};
pub use wavelet::DyadicWavelet;

/// Errors produced by the DSP crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// The input signal is too short for the requested operation.
    SignalTooShort {
        /// Minimum number of samples required.
        required: usize,
        /// Number of samples provided.
        provided: usize,
    },
    /// An invalid parameter was supplied (zero window, zero factor, …).
    InvalidParameter(String),
}

impl std::fmt::Display for DspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DspError::SignalTooShort { required, provided } => write!(
                f,
                "signal too short: {provided} samples provided, at least {required} required"
            ),
            DspError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
        }
    }
}

impl std::error::Error for DspError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, DspError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_clearly() {
        let e = DspError::SignalTooShort {
            required: 100,
            provided: 3,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("3"));
        assert!(DspError::InvalidParameter("factor".into())
            .to_string()
            .contains("factor"));
    }
}

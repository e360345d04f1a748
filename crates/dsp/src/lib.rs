//! # hbc-dsp — embedded ECG signal processing
//!
//! The WBSN application of the paper wraps the RP-based classifier with a
//! conditioning front-end and an optional detailed-analysis back-end, all
//! taken from the embedded multi-lead delineation work of Rincón et al.
//! (reference \[1\] of the paper):
//!
//! * [`filter`] — **morphological filtering** removing baseline wander and
//!   motion artefacts with erosion/dilation (opening/closing) operators: the
//!   filter geometry, its whole-signal entry point (which runs the streaming
//!   kernel) and the naive O(n·w) oracle the kernel is tested against;
//! * [`wavelet`] — the **à-trous dyadic wavelet transform** (quadratic-spline
//!   mother wavelet) producing the four scales the peak detector works on,
//!   whole-signal: the oracle the streaming cascade is tested against;
//! * [`peak`] — the **R-peak detector**: maximum–minimum pairs across scales
//!   with a zero-crossing refinement on the first scale;
//! * [`delineation`] — **multi-scale morphological derivative (MMD)**
//!   delineation of the P, QRS and T waves (onset / peak / end fiducial
//!   points), combinable across three leads;
//! * [`window`] — beat-window extraction and peak/annotation matching;
//! * [`streaming`] — push-based, bounded-memory kernels of the conditioning
//!   chain (baseline filter, à-trous wavelet, R-peak scan and beat
//!   windowing), bit-identical to the naive morphology oracle and the
//!   whole-signal wavelet transform, and the substrate of the firmware in
//!   `hbc-embedded`, online and over stored records alike. Its van Herk /
//!   Gil–Werman sliding extremum is the only morphology kernel, and its
//!   wavelet cascade the only wavelet, that production code runs.
//!
//! All algorithms are implemented both in `f64` (PC-side, training) and — for
//! the blocks that run on the WBSN — in integer arithmetic, so that the
//! platform model of `hbc-embedded` can meter realistic operation counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delineation;
pub mod filter;
pub mod peak;
pub mod streaming;
mod tape;
pub mod wavelet;
pub mod window;

pub use delineation::{BeatFiducials, Delineator, FiducialPoint, WaveFiducials};
pub use filter::{ExtremumKind, MorphologicalFilter};
pub use peak::{PeakDetector, PeakDetectorConfig, PeakScanner, PeakThresholds};
pub use streaming::{
    Millivolts, SampleScale, StreamingBaselineFilter, StreamingBeatWindower, StreamingPeakDetector,
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

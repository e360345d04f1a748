//! # hbc-core — the RP-based embedded heartbeat classification framework
//!
//! This crate is the public entry point of the reproduction of
//! *"A Methodology for Embedded Classification of Heartbeats Using Random
//! Projections"* (Braojos, Ansaloni, Atienza — DATE 2013). It ties the
//! substrate crates together:
//!
//! * [`hbc_ecg`] — beats, records, the MIT-BIH reader and the synthetic
//!   dataset used as its documented substitution;
//! * [`hbc_dsp`] — filtering, peak detection and delineation;
//! * [`hbc_rp`] — Achlioptas random projections and their genetic
//!   optimisation;
//! * [`hbc_nfc`] — the floating-point neuro-fuzzy classifier and its
//!   two-step training methodology;
//! * [`hbc_embedded`] — the integer classifier, the IcyHeart platform model
//!   and the complete WBSN firmware;
//! * [`hbc_baseline`] — the PCA comparison point.
//!
//! and exposes, on top of them:
//!
//! * [`config`] — experiment configuration with `quick` / `paper` presets;
//! * [`pipeline`] — training of the PC (floating-point) and WBSN (integer)
//!   pipelines from one dataset;
//! * [`engine`] — a work-stealing parallel runner that evaluates trained
//!   pipelines over beat sets, α sweeps and whole record collections on all
//!   cores, with bit-identical results to the sequential path;
//! * [`stream`] — the live serving layer: a [`StreamHub`] multiplexing many
//!   concurrent per-patient streaming-firmware sessions over the same
//!   parallel runner, with order-deterministic merged reports;
//! * [`experiments`] — one function per table / figure of the paper, each
//!   returning a typed report that prints the corresponding rows.
//!
//! ## Quickstart
//!
//! ```
//! use hbc_core::config::ExperimentConfig;
//! use hbc_core::pipeline::TrainedSystem;
//!
//! // Train the whole system (PC + WBSN variants) on a small synthetic
//! // dataset; `ExperimentConfig::paper()` reproduces the full-scale setup.
//! let config = ExperimentConfig::quick();
//! let system = TrainedSystem::train(&config)?;
//! let report = system.evaluate_pc_on_test()?;
//! println!("NDR = {:.2} %, ARR = {:.2} %", 100.0 * report.ndr(), 100.0 * report.arr());
//! # Ok::<(), hbc_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod experiments;
pub mod pipeline;
pub mod stream;

pub use config::{ExperimentConfig, Scale};
pub use engine::{BeatEvaluator, Engine, EngineConfig, MultiRecordReport};
pub use pipeline::{TrainedSystem, WbsnPipeline, WbsnScratch};
pub use stream::{SessionId, SessionReport, StreamHub};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use hbc_baseline;
pub use hbc_dsp;
pub use hbc_ecg;
pub use hbc_embedded;
pub use hbc_nfc;
pub use hbc_obs;
pub use hbc_par;
pub use hbc_rp;

/// Errors surfaced by the framework crate.
#[derive(Debug)]
pub enum CoreError {
    /// Error from the dataset substrate.
    Ecg(hbc_ecg::EcgError),
    /// Error from the signal-processing substrate.
    Dsp(hbc_dsp::DspError),
    /// Error from the projection crate.
    Rp(hbc_rp::RpError),
    /// Error from the classifier crate.
    Nfc(hbc_nfc::NfcError),
    /// Error from the embedded crate.
    Embedded(hbc_embedded::EmbeddedError),
    /// Error from the PCA baseline.
    Baseline(hbc_baseline::PcaError),
    /// Invalid experiment configuration.
    Config(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Ecg(e) => write!(f, "dataset error: {e}"),
            CoreError::Dsp(e) => write!(f, "signal-processing error: {e}"),
            CoreError::Rp(e) => write!(f, "projection error: {e}"),
            CoreError::Nfc(e) => write!(f, "classifier error: {e}"),
            CoreError::Embedded(e) => write!(f, "embedded error: {e}"),
            CoreError::Baseline(e) => write!(f, "baseline error: {e}"),
            CoreError::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ecg(e) => Some(e),
            CoreError::Dsp(e) => Some(e),
            CoreError::Rp(e) => Some(e),
            CoreError::Nfc(e) => Some(e),
            CoreError::Embedded(e) => Some(e),
            CoreError::Baseline(e) => Some(e),
            CoreError::Config(_) => None,
        }
    }
}

impl From<hbc_ecg::EcgError> for CoreError {
    fn from(e: hbc_ecg::EcgError) -> Self {
        CoreError::Ecg(e)
    }
}
impl From<hbc_dsp::DspError> for CoreError {
    fn from(e: hbc_dsp::DspError) -> Self {
        CoreError::Dsp(e)
    }
}
impl From<hbc_rp::RpError> for CoreError {
    fn from(e: hbc_rp::RpError) -> Self {
        CoreError::Rp(e)
    }
}
impl From<hbc_nfc::NfcError> for CoreError {
    fn from(e: hbc_nfc::NfcError) -> Self {
        CoreError::Nfc(e)
    }
}
impl From<hbc_embedded::EmbeddedError> for CoreError {
    fn from(e: hbc_embedded::EmbeddedError) -> Self {
        CoreError::Embedded(e)
    }
}
impl From<hbc_baseline::PcaError> for CoreError {
    fn from(e: hbc_baseline::PcaError) -> Self {
        CoreError::Baseline(e)
    }
}

/// Convenient result alias for the framework crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_preserve_sources() {
        let e: CoreError = hbc_ecg::EcgError::Format("bad".into()).into();
        assert!(e.to_string().contains("bad"));
        assert!(std::error::Error::source(&e).is_some());
        let e: CoreError = hbc_nfc::NfcError::Training("few".into()).into();
        assert!(e.to_string().contains("few"));
        let e = CoreError::Config("nope".into());
        assert!(std::error::Error::source(&e).is_none());
    }
}

//! End-to-end pipelines: the PC (floating-point) reference and the WBSN
//! (integer) deployment, trained from the same dataset.
//!
//! The framework of Figure 2 has two halves. The *training* half runs on a
//! PC: projection optimisation plus membership-function training in floating
//! point. The *test* half runs either on the PC (the `*-PC` rows of the
//! tables) or on the WBSN after the resource-constrained optimisation phase
//! (`*-WBSN` rows): 4× downsampling, 2-bit packed projection, linearised
//! integer membership functions, shift-normalised fuzzification.
//!
//! [`TrainedSystem`] trains both halves from one [`ExperimentConfig`] so that
//! every experiment compares them on exactly the same data.

use hbc_ecg::beat::Beat;
use hbc_ecg::dataset::Dataset;
use hbc_embedded::int_classifier::AlphaQ16;
use hbc_embedded::{IntegerNfc, MembershipKind, Quantizer};
use hbc_nfc::metrics::EvaluationReport;
use hbc_nfc::{FittedPipeline, TwoStepTrainer};
use hbc_rp::PackedProjection;

use crate::config::ExperimentConfig;
use crate::engine::{Engine, WbsnEvaluator};
use crate::Result;

/// The integer (WBSN) deployment of a trained classifier.
#[derive(Debug, Clone)]
pub struct WbsnPipeline {
    /// 2-bit packed projection operating on the downsampled window.
    pub projection: PackedProjection,
    /// Integer classifier (linearised or triangular membership functions).
    pub classifier: IntegerNfc,
    /// Calibrated defuzzification coefficient.
    pub alpha: AlphaQ16,
    /// Downsampling factor applied to acquisition-rate beat windows.
    pub downsample: usize,
    /// ADC front-end model used for quantisation.
    pub adc: hbc_embedded::AdcModel,
}

/// Reusable buffers for the WBSN per-beat hot path (downsampled window,
/// quantised codes, projected coefficients) — the same working set the
/// firmware uses, re-exported from [`hbc_embedded`].
///
/// Classifying a beat through [`WbsnPipeline::classify_with_alpha`] allocates
/// three vectors; batch loops instead hold one `WbsnScratch` and call
/// [`WbsnPipeline::classify_with_scratch`], so steady-state evaluation
/// performs no per-beat allocation. A scratch belongs to one worker at a
/// time — the engine creates one per batch.
pub type WbsnScratch = hbc_embedded::BeatScratch;

/// Conditioning-chain scratch (morphology wedge + stage buffers + wavelet
/// planes), re-exported from [`hbc_dsp`] next to [`WbsnScratch`] so
/// record-level drivers can hold both working sets of the deployment: the
/// front-end runs through a `FrontendScratch`
/// (`WbsnFirmware::process_record_with`, the engine's `process_records`
/// pool, the `StreamHub` calibration) and the per-beat stages through a
/// `WbsnScratch`. Same ownership rule: one scratch per worker at a time.
pub use hbc_dsp::FrontendScratch;

impl WbsnPipeline {
    /// Classifies one acquisition-rate beat window exactly as the node would.
    ///
    /// # Errors
    ///
    /// Returns an error when the window length does not match the pipeline.
    pub fn classify(&self, beat: &Beat) -> Result<hbc_ecg::BeatClass> {
        self.classify_with_alpha(beat, self.alpha)
    }

    /// Classifies one beat with an explicit α_test (used for the Figure 5
    /// sweeps).
    ///
    /// # Errors
    ///
    /// Returns an error when the window length does not match the pipeline.
    pub fn classify_with_alpha(&self, beat: &Beat, alpha: AlphaQ16) -> Result<hbc_ecg::BeatClass> {
        self.classify_with_scratch(beat, alpha, &mut WbsnScratch::default())
    }

    /// [`Self::classify_with_alpha`] against caller-owned scratch buffers:
    /// the per-beat intermediates live in `scratch` and are reused across
    /// calls, so batch loops perform no per-beat allocation.
    ///
    /// # Errors
    ///
    /// Returns an error when the window length does not match the pipeline.
    ///
    /// # Panics
    ///
    /// Panics when the pipeline's downsampling factor is zero.
    pub fn classify_with_scratch(
        &self,
        beat: &Beat,
        alpha: AlphaQ16,
        scratch: &mut WbsnScratch,
    ) -> Result<hbc_ecg::BeatClass> {
        scratch
            .classify(
                &beat.samples,
                self.downsample,
                &self.adc,
                &self.projection,
                &self.classifier,
                alpha,
            )
            .map_err(crate::CoreError::Embedded)
    }

    /// Evaluates the pipeline over a set of acquisition-rate beats, reusing
    /// one scratch across the whole set.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the pipeline.
    pub fn evaluate(&self, beats: &[Beat], alpha: AlphaQ16) -> Result<EvaluationReport> {
        let mut scratch = WbsnScratch::default();
        let mut report = EvaluationReport::new();
        for beat in beats {
            if beat.class.index().is_none() {
                continue;
            }
            let predicted = self.classify_with_scratch(beat, alpha, &mut scratch)?;
            report.record(beat.class, predicted);
        }
        Ok(report)
    }

    /// [`Self::evaluate`] spread over `engine`'s workers; the report is
    /// bit-identical to the sequential pass.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the pipeline.
    pub fn evaluate_with(
        &self,
        engine: &Engine,
        beats: &[Beat],
        alpha: AlphaQ16,
    ) -> Result<EvaluationReport> {
        engine.evaluate_beats(
            &WbsnEvaluator {
                pipeline: self,
                alpha,
            },
            beats,
        )
    }

    /// Calibrates α_test so the ARR measured on `beats` reaches
    /// `target_arr`, returning the calibrated α and its report.
    ///
    /// Every probe of the binary search scans the full beat set, so the
    /// probes run on all cores by default.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the pipeline.
    pub fn calibrate_alpha(
        &self,
        beats: &[Beat],
        target_arr: f64,
    ) -> Result<(AlphaQ16, EvaluationReport)> {
        self.calibrate_alpha_with(&Engine::default(), beats, target_arr)
    }

    /// [`Self::calibrate_alpha`] with an explicit evaluation engine.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the pipeline.
    pub fn calibrate_alpha_with(
        &self,
        engine: &Engine,
        beats: &[Beat],
        target_arr: f64,
    ) -> Result<(AlphaQ16, EvaluationReport)> {
        // Binary search over the Q16 grid (ARR is non-decreasing in α).
        let mut lo = 0u32;
        let mut hi = 65_536u32;
        let eval = |alpha: u32| self.evaluate_with(engine, beats, AlphaQ16(alpha));
        let hi_report = eval(hi)?;
        let mut best = (AlphaQ16(hi), hi_report);
        let lo_report = eval(lo)?;
        if lo_report.arr() >= target_arr {
            return Ok((AlphaQ16(lo), lo_report));
        }
        while hi - lo > 64 {
            let mid = lo + (hi - lo) / 2;
            let report = eval(mid)?;
            if report.arr() >= target_arr {
                best = (AlphaQ16(mid), report);
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(best)
    }
}

/// Both halves of the framework trained on the same dataset.
#[derive(Debug, Clone)]
pub struct TrainedSystem {
    /// The dataset used for training and evaluation.
    pub dataset: Dataset,
    /// The WBSN-rate dataset (every beat window downsampled), used to train
    /// the embedded variant.
    pub dataset_downsampled: Dataset,
    /// The floating-point PC pipeline (full-rate windows, Gaussian
    /// membership functions).
    pub pc: FittedPipeline,
    /// The floating-point pipeline trained on downsampled windows, from which
    /// the integer deployments are derived.
    pub pc_downsampled: FittedPipeline,
    /// The integer WBSN deployment with linearised membership functions.
    pub wbsn: WbsnPipeline,
    /// The configuration the system was trained with.
    pub config: ExperimentConfig,
}

impl TrainedSystem {
    /// Generates the dataset and trains every pipeline variant.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or training fails.
    pub fn train(config: &ExperimentConfig) -> Result<Self> {
        Self::train_with_coefficients(config, config.coefficients)
    }

    /// Same as [`Self::train`] but with an explicit coefficient count
    /// (used by the Table II sweep).
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or training fails.
    pub fn train_with_coefficients(config: &ExperimentConfig, coefficients: usize) -> Result<Self> {
        config.validate()?;
        let dataset = Dataset::synthetic(config.dataset, config.seed);
        Self::train_on(config, dataset, coefficients)
    }

    /// Same as [`Self::train_with_coefficients`] over an already generated
    /// `dataset` (the Table II sweep synthesises its dataset once for every
    /// coefficient count). `config.dataset` is not consulted; the seed still
    /// drives the projection draw.
    ///
    /// The full-rate and the downsampled pipeline are fitted one after the
    /// other on the calling thread. Fitting them concurrently saves ~4 ms of
    /// the gateway benchmark's set-up, but the fit on the spawned thread
    /// leaves its allocations in a second malloc arena, which raised
    /// `fleet_durable`'s peak RSS by ~0.45 MiB.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or training fails.
    pub fn train_on(
        config: &ExperimentConfig,
        dataset: Dataset,
        coefficients: usize,
    ) -> Result<Self> {
        config.validate()?;
        let dataset_downsampled = downsample_dataset(&dataset, config.downsample);

        let pc = fit(config, &dataset, coefficients)?;
        let pc_downsampled = fit(config, &dataset_downsampled, coefficients)?;
        let wbsn = build_wbsn(config, &pc_downsampled, MembershipKind::Linearized)?;

        Ok(TrainedSystem {
            dataset,
            dataset_downsampled,
            pc,
            pc_downsampled,
            wbsn,
            config: *config,
        })
    }

    /// Builds an alternative WBSN deployment with a different membership
    /// family (used by the Figure 5 comparison).
    ///
    /// # Errors
    ///
    /// Returns an error when quantisation fails.
    pub fn wbsn_with_kind(&self, kind: MembershipKind) -> Result<WbsnPipeline> {
        build_wbsn(&self.config, &self.pc_downsampled, kind)
    }

    /// Evaluates the PC pipeline on the test split at its calibrated
    /// α_train, using all cores.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the projection.
    pub fn evaluate_pc_on_test(&self) -> Result<EvaluationReport> {
        self.evaluate_pc_on_test_with(&Engine::default())
    }

    /// [`Self::evaluate_pc_on_test`] with an explicit evaluation engine.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the projection.
    pub fn evaluate_pc_on_test_with(&self, engine: &Engine) -> Result<EvaluationReport> {
        engine.evaluate_beats(
            &crate::engine::PcEvaluator {
                pipeline: &self.pc,
                alpha: self.pc.alpha_train,
            },
            &self.dataset.test,
        )
    }

    /// Evaluates the WBSN pipeline on the (acquisition-rate) test split at
    /// its calibrated α, using all cores.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the projection.
    pub fn evaluate_wbsn_on_test(&self) -> Result<EvaluationReport> {
        self.evaluate_wbsn_on_test_with(&Engine::default())
    }

    /// [`Self::evaluate_wbsn_on_test`] with an explicit evaluation engine.
    ///
    /// # Errors
    ///
    /// Returns an error when a beat window does not match the projection.
    pub fn evaluate_wbsn_on_test_with(&self, engine: &Engine) -> Result<EvaluationReport> {
        self.wbsn
            .evaluate_with(engine, &self.dataset.test, self.wbsn.alpha)
    }
}

/// Trains a floating-point pipeline, using the GA when the configuration
/// enables it.
fn fit(
    config: &ExperimentConfig,
    dataset: &Dataset,
    coefficients: usize,
) -> Result<FittedPipeline> {
    let trainer =
        TwoStepTrainer::new(config.two_step(coefficients)).map_err(crate::CoreError::Nfc)?;
    let fitted = if config.genetic.is_some() {
        trainer.fit(dataset)
    } else {
        trainer.fit_single(dataset, config.seed.wrapping_add(coefficients as u64))
    }
    .map_err(crate::CoreError::Nfc)?;
    Ok(fitted)
}

/// Derives the integer WBSN deployment from a pipeline trained on
/// downsampled windows.
fn build_wbsn(
    config: &ExperimentConfig,
    pc_downsampled: &FittedPipeline,
    kind: MembershipKind,
) -> Result<WbsnPipeline> {
    let quantizer = Quantizer::new().with_kind(kind);
    let classifier = quantizer.quantize_classifier(&pc_downsampled.classifier)?;
    let projection = PackedProjection::from_matrix(&pc_downsampled.projection);
    let alpha = AlphaQ16::from_f64(pc_downsampled.alpha_train)?;
    Ok(WbsnPipeline {
        projection,
        classifier,
        alpha,
        downsample: config.downsample,
        adc: quantizer.adc,
    })
}

/// Downsamples every beat window of a dataset (used to train the WBSN-rate
/// classifier).
pub fn downsample_dataset(dataset: &Dataset, factor: usize) -> Dataset {
    let map = |beats: &[Beat]| beats.iter().map(|b| b.downsample(factor)).collect();
    Dataset {
        training1: map(&dataset.training1),
        training2: map(&dataset.training2),
        test: map(&dataset.test),
        spec: dataset.spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_system() -> TrainedSystem {
        TrainedSystem::train(&ExperimentConfig::quick()).expect("training succeeds")
    }

    #[test]
    fn training_produces_consistent_dimensions() {
        let system = quick_system();
        assert_eq!(system.pc.projection.cols(), 200);
        assert_eq!(system.pc_downsampled.projection.cols(), 50);
        assert_eq!(system.wbsn.projection.cols(), 50);
        assert_eq!(system.wbsn.classifier.num_coefficients(), 8);
        assert_eq!(system.dataset_downsampled.test[0].samples.len(), 50);
    }

    #[test]
    fn pc_pipeline_meets_the_calibration_target_on_training2() {
        let system = quick_system();
        let report = system
            .pc
            .evaluate(&system.dataset.training2, system.pc.alpha_train)
            .expect("evaluate");
        assert!(report.arr() >= 0.97, "ARR {}", report.arr());
    }

    #[test]
    fn pc_and_wbsn_both_generalize_to_the_test_split() {
        let system = quick_system();
        let pc = system.evaluate_pc_on_test().expect("pc evaluation");
        let wbsn = system.evaluate_wbsn_on_test().expect("wbsn evaluation");
        assert!(pc.arr() > 0.85, "PC ARR {}", pc.arr());
        assert!(pc.ndr() > 0.6, "PC NDR {}", pc.ndr());
        assert!(wbsn.arr() > 0.80, "WBSN ARR {}", wbsn.arr());
        assert!(wbsn.ndr() > 0.5, "WBSN NDR {}", wbsn.ndr());
        // The paper's observation: the embedded version stays within a few
        // points of the PC version.
        assert!(
            (pc.ndr() - wbsn.ndr()).abs() < 0.25,
            "PC NDR {} and WBSN NDR {} diverged",
            pc.ndr(),
            wbsn.ndr()
        );
    }

    #[test]
    fn wbsn_alpha_calibration_reaches_the_target() {
        let system = quick_system();
        let (alpha, report) = system
            .wbsn
            .calibrate_alpha(&system.dataset.training2, 0.97)
            .expect("calibrate");
        assert!(report.arr() >= 0.97);
        // α = 1 always reaches the target, so the calibrated value is valid.
        assert!(alpha.0 <= 65_536);
    }

    #[test]
    fn triangular_variant_can_be_derived() {
        let system = quick_system();
        let tri = system
            .wbsn_with_kind(MembershipKind::Triangular)
            .expect("triangular variant");
        assert_eq!(tri.classifier.kind(), MembershipKind::Triangular);
        let report = tri
            .evaluate(&system.dataset.test, tri.alpha)
            .expect("evaluate");
        assert!(report.total() > 0);
    }

    #[test]
    fn downsampled_dataset_preserves_composition() {
        let system = quick_system();
        for split in [hbc_ecg::Split::Training1, hbc_ecg::Split::Test] {
            assert_eq!(
                system.dataset.class_counts(split),
                system.dataset_downsampled.class_counts(split)
            );
        }
    }
}

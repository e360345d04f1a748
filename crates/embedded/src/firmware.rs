//! The complete embedded application of Figure 6.
//!
//! [`WbsnFirmware`] assembles the blocks the WBSN executes online:
//!
//! 1. morphological filtering of the classification lead,
//! 2. wavelet-based R-peak detection,
//! 3. beat windowing, 4× downsampling and ADC-domain quantisation,
//! 4. random projection from the 2-bit packed matrix,
//! 5. integer neuro-fuzzy classification with α_test,
//! 6. three-lead MMD delineation, executed *only* for beats the classifier
//!    forwards (pathological or undecided),
//! 7. transmission bookkeeping (peak only for normal beats, all fiducial
//!    points for forwarded beats).
//!
//! Processing a record returns a [`FirmwareReport`] with the classification
//! outcome of every detected beat, the session statistics the energy model
//! consumes, and the duty-cycle report of the platform model.

use std::time::Instant;

use hbc_dsp::window::match_peaks;
use hbc_dsp::{MorphologicalFilter, PeakDetector};
use hbc_ecg::beat::{BeatClass, BeatWindow};
use hbc_ecg::record::{EcgRecord, Lead};
use hbc_rp::PackedProjection;

use crate::cycles::{CycleModel, DutyCycleReport, Workload};
use crate::energy::{EnergyModel, EnergyReport, SessionStats};
use crate::fixed::AdcModel;
use crate::int_classifier::{AlphaQ16, IntegerNfc};
use crate::platform::IcyHeartPlatform;
use crate::streaming::StreamingFirmware;
use crate::{EmbeddedError, Result};

/// Outcome of one detected beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeatOutcome {
    /// Sample position of the detected R peak in the record.
    pub peak: usize,
    /// Ground-truth class when a matching annotation exists.
    pub truth: Option<BeatClass>,
    /// Class assigned by the embedded classifier.
    pub predicted: BeatClass,
    /// Whether the delineation stage ran for this beat.
    pub delineated: bool,
    /// Number of fiducial points transmitted for this beat.
    pub fiducials_transmitted: usize,
}

/// Aggregate report of one processed record.
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareReport {
    /// Per-beat outcomes in temporal order.
    pub beats: Vec<BeatOutcome>,
    /// Session statistics for the energy model.
    pub stats: SessionStats,
    /// Duty cycles of the Table III configurations under this record's
    /// workload.
    pub duty: DutyCycleReport,
    /// Energy comparison for this record.
    pub energy: EnergyReport,
}

impl FirmwareReport {
    /// Fraction of detected beats forwarded to the delineator.
    pub fn forwarded_fraction(&self) -> f64 {
        self.stats.forwarded_fraction()
    }

    /// Normal Discard Rate measured against the annotated ground truth
    /// (annotated normal beats classified as normal). Beats without a
    /// matching annotation are ignored.
    pub fn ndr(&self) -> f64 {
        let (mut discarded, mut normals) = (0usize, 0usize);
        for b in &self.beats {
            if b.truth == Some(BeatClass::Normal) {
                normals += 1;
                if b.predicted == BeatClass::Normal {
                    discarded += 1;
                }
            }
        }
        if normals == 0 {
            1.0
        } else {
            discarded as f64 / normals as f64
        }
    }

    /// Abnormal Recognition Rate measured against the annotated ground truth.
    pub fn arr(&self) -> f64 {
        let (mut recognised, mut abnormals) = (0usize, 0usize);
        for b in &self.beats {
            match b.truth {
                Some(t) if t.is_abnormal() => {
                    abnormals += 1;
                    if b.predicted.is_abnormal() {
                        recognised += 1;
                    }
                }
                _ => {}
            }
        }
        if abnormals == 0 {
            1.0
        } else {
            recognised as f64 / abnormals as f64
        }
    }
}

/// Reusable working buffers for the per-beat stage 3-5 path (downsampled
/// window, ADC codes, projected coefficients) — on the node these live in
/// statically allocated RAM; on the host they are reused across beats so
/// [`WbsnFirmware::classify_window_with`] allocates nothing in steady state.
/// A scratch belongs to one caller at a time: a streaming session, or one
/// engine batch.
#[derive(Debug, Clone, Default)]
pub struct BeatScratch {
    downsampled: Vec<f64>,
    quantized: Vec<i32>,
    coefficients: Vec<i32>,
}

/// Wall-clock nanoseconds one beat spent in each stage of
/// [`WbsnFirmware::classify_window_with`], filled only when the caller
/// passes one in. A plain out-parameter so the scratch path stays
/// allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Window preparation: downsample + ADC quantisation.
    pub prepare: u64,
    /// Packed integer random projection.
    pub project: u64,
    /// Integer NFC classification.
    pub classify: u64,
}

impl StageNanos {
    /// Total nanoseconds across the three stages.
    pub fn total(&self) -> u64 {
        self.prepare + self.project + self.classify
    }
}

/// The embedded application: configuration plus all trained artefacts.
#[derive(Debug, Clone)]
pub struct WbsnFirmware {
    /// Packed projection matrix (already downsampled to the WBSN window).
    pub projection: PackedProjection,
    /// Integer classifier.
    pub classifier: IntegerNfc,
    /// Defuzzification coefficient used online.
    pub alpha: AlphaQ16,
    /// ADC front-end model.
    pub adc: AdcModel,
    /// Downsampling factor applied to beat windows before projection
    /// (4 in the paper: 360 Hz → 90 Hz).
    pub downsample: usize,
    /// Beat window at the acquisition rate.
    pub window: BeatWindow,
    /// Platform the firmware is deployed on.
    pub platform: IcyHeartPlatform,
}

impl WbsnFirmware {
    /// Assembles a firmware image.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddedError::Dimension`] when the projection width does not
    /// equal the downsampled window length or the classifier does not match
    /// the projection height.
    pub fn new(
        projection: PackedProjection,
        classifier: IntegerNfc,
        alpha: AlphaQ16,
        downsample: usize,
        window: BeatWindow,
    ) -> Result<Self> {
        let expected = window.len().div_ceil(downsample.max(1));
        if projection.cols() != expected {
            return Err(EmbeddedError::Dimension(format!(
                "projection expects {} samples but the downsampled window has {expected}",
                projection.cols()
            )));
        }
        if classifier.num_coefficients() != projection.rows() {
            return Err(EmbeddedError::Dimension(format!(
                "classifier expects {} coefficients but the projection produces {}",
                classifier.num_coefficients(),
                projection.rows()
            )));
        }
        Ok(WbsnFirmware {
            projection,
            classifier,
            alpha,
            adc: AdcModel::default_frontend(),
            downsample: downsample.max(1),
            window,
            platform: IcyHeartPlatform::paper(),
        })
    }

    /// Replaces the online defuzzification coefficient (α_test), which the
    /// paper tunes independently of α_train.
    pub fn with_alpha(mut self, alpha: AlphaQ16) -> Self {
        self.alpha = alpha;
        self
    }

    /// Classifies one already-windowed beat (acquisition-rate samples in
    /// millivolts) exactly as the node would.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddedError::Dimension`] when the window length does not
    /// match the firmware configuration.
    pub fn classify_window(&self, samples: &[f64]) -> Result<BeatClass> {
        self.classify_window_with(samples, self.alpha, &mut BeatScratch::default(), None)
    }

    /// The per-beat classification stages — downsample, ADC quantisation,
    /// packed integer projection, integer NFC at `alpha` — against
    /// caller-owned scratch buffers, the host equivalent of the node's
    /// statically allocated working RAM: per-beat loops hold one
    /// [`BeatScratch`] and perform no allocation in steady state.
    ///
    /// With `stages` set, the wall-clock nanoseconds of window preparation,
    /// projection and classification are written to it; with `None` the
    /// clock is never read. The class is the same either way.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddedError::Dimension`] when the window length does not
    /// match the firmware configuration.
    pub fn classify_window_with(
        &self,
        samples: &[f64],
        alpha: AlphaQ16,
        scratch: &mut BeatScratch,
        stages: Option<&mut StageNanos>,
    ) -> Result<BeatClass> {
        if samples.len() != self.window.len() {
            return Err(EmbeddedError::Dimension(format!(
                "expected a {}-sample window, got {}",
                self.window.len(),
                samples.len()
            )));
        }
        let mut last = stages.is_some().then(Instant::now);
        let mut lap = || {
            last.as_mut().map_or(0, |t| {
                let now = Instant::now();
                let nanos = (now - *t).as_nanos() as u64;
                *t = now;
                nanos
            })
        };
        scratch.downsampled.clear();
        scratch
            .downsampled
            .extend(samples.iter().step_by(self.downsample));
        self.adc
            .quantize_samples_into(&scratch.downsampled, &mut scratch.quantized);
        let prepare = lap();
        scratch.coefficients.resize(self.projection.rows(), 0);
        self.projection
            .project_into(&scratch.quantized, &mut scratch.coefficients)
            .map_err(|e| EmbeddedError::Dimension(e.to_string()))?;
        let project = lap();
        let class = self
            .classifier
            .classify(&scratch.coefficients, alpha)?
            .class;
        let classify = lap();
        if let Some(stages) = stages {
            *stages = StageNanos {
                prepare,
                project,
                classify,
            };
        }
        Ok(class)
    }

    /// Processes a full multi-lead record through the complete Figure 6
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddedError::Dimension`] when the record has no leads or is
    /// too short for the conditioning front-end.
    pub fn process_record(&self, record: &EcgRecord) -> Result<FirmwareReport> {
        self.process_record_with(record, &mut BeatScratch::default())
    }

    /// [`Self::process_record`] against a caller-owned per-beat scratch, so
    /// multi-record drivers (the evaluation engine, sweeps) reuse the
    /// classification working set across records.
    ///
    /// Every lead is filtered once, whole ([`MorphologicalFilter::apply`]),
    /// and the thresholds are calibrated over the whole filtered
    /// classification lead ([`PeakDetector::calibrate`]). Then the one
    /// implementation of the pipeline, [`StreamingFirmware`], runs that
    /// lead through its detector, windower, classifier and gated
    /// delineation, which fuses the windows of every lead. Each outcome is
    /// labelled through the matching of *every* finalized peak against the
    /// annotations, border peaks included, as the matching is
    /// order-sensitive.
    ///
    /// Output is identical to [`Self::process_record`].
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddedError::Dimension`] when the record has no leads or is
    /// too short for the conditioning front-end.
    pub fn process_record_with(
        &self,
        record: &EcgRecord,
        beat_scratch: &mut BeatScratch,
    ) -> Result<FirmwareReport> {
        fn dimension(e: impl std::fmt::Display) -> EmbeddedError {
            EmbeddedError::Dimension(e.to_string())
        }
        let filter = MorphologicalFilter::for_sampling_rate(record.fs);
        // A record without leads fails on lead 0.
        let leads = (0..record.num_leads().max(1))
            .map(|l| {
                let signal = record.lead(Lead(l)).map_err(dimension)?;
                filter.apply(signal).map_err(dimension)
            })
            .collect::<Result<Vec<_>>>()?;
        let thresholds = PeakDetector::new(record.fs)
            .calibrate(&leads[0])
            .map_err(dimension)?;
        let (mut outcomes, peaks) =
            StreamingFirmware::run_record(self, record.fs, thresholds, &leads, beat_scratch);

        // Ground truth is matched per *peak*: the windower skips peaks too
        // close to the record borders, so each beat is labelled through the
        // index of its own peak in the log — indexing the matching by beat
        // position would shift every label after a skipped border peak.
        let tolerance = (0.06 * record.fs) as usize;
        let matching = match_peaks(&peaks, &record.annotations, tolerance);
        let mut peak_index = 0;
        for outcome in &mut outcomes {
            while peaks[peak_index] != outcome.peak {
                peak_index += 1;
            }
            outcome.truth =
                matching.matched_annotation[peak_index].map(|a| record.annotations[a].class);
        }
        let forwarded = outcomes.iter().filter(|o| o.delineated).count();

        let stats = SessionStats {
            total_beats: outcomes.len(),
            forwarded_beats: forwarded,
            duration_s: record.duration_s(),
        };
        let workload = Workload {
            fs: record.fs,
            beats_per_second: if record.duration_s() > 0.0 {
                outcomes.len() as f64 / record.duration_s()
            } else {
                0.0
            },
            delineation_leads: record.num_leads(),
            delineation_window: self.window.len(),
            forwarded_fraction: stats.forwarded_fraction(),
        };
        let cycle_model = CycleModel::new(self.platform);
        let duty = cycle_model.duty_cycles(&self.projection, &self.classifier, &workload);
        let energy_model = EnergyModel {
            platform: self.platform,
            budget: crate::energy::PowerBudget::paper(),
        };
        let energy = energy_model.report(&duty, &stats);

        Ok(FirmwareReport {
            beats: outcomes,
            stats,
            duty,
            energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Quantizer;
    use hbc_ecg::dataset::DatasetSpec;
    use hbc_ecg::synthetic::SyntheticEcg;
    use hbc_ecg::Dataset;
    use hbc_nfc::pipeline_fit_quick;
    use hbc_rp::AchlioptasMatrix;

    /// Trains a quick pipeline on downsampled windows and converts it to the
    /// embedded form.
    fn build_firmware() -> WbsnFirmware {
        let spec = DatasetSpec::tiny();
        let mut dataset = Dataset::synthetic(spec, 9);
        // The WBSN classifier is trained on 4x-downsampled 50-sample windows.
        for split in [
            &mut dataset.training1,
            &mut dataset.training2,
            &mut dataset.test,
        ] {
            for beat in split.iter_mut() {
                *beat = beat.downsample(4);
            }
        }
        let pipeline = pipeline_fit_quick(&dataset, 8, 11);
        let classifier = Quantizer::new()
            .quantize_classifier(&pipeline.classifier)
            .expect("quantise");
        let packed = PackedProjection::from_matrix(&pipeline.projection);
        WbsnFirmware::new(
            packed,
            classifier,
            AlphaQ16::from_f64(pipeline.alpha_train).expect("alpha in range"),
            4,
            BeatWindow::PAPER,
        )
        .expect("consistent dimensions")
    }

    #[test]
    fn construction_checks_dimensions() {
        let projection = PackedProjection::from_matrix(&AchlioptasMatrix::generate(8, 50, 1));
        let classifier = {
            use crate::int_classifier::MembershipKind;
            use crate::linear_mf::IntMembership;
            IntegerNfc::new(
                (0..4)
                    .map(|_| [IntMembership::new(MembershipKind::Linearized, 0, 1); 3])
                    .collect(),
            )
            .expect("non-empty")
        };
        // 4-coefficient classifier with an 8-row projection: mismatch.
        assert!(matches!(
            WbsnFirmware::new(
                projection.clone(),
                classifier,
                AlphaQ16(0),
                4,
                BeatWindow::PAPER
            ),
            Err(EmbeddedError::Dimension(_))
        ));
        // Wrong downsampling factor for the window: mismatch.
        let good_classifier = {
            use crate::int_classifier::MembershipKind;
            use crate::linear_mf::IntMembership;
            IntegerNfc::new(
                (0..8)
                    .map(|_| [IntMembership::new(MembershipKind::Linearized, 0, 1); 3])
                    .collect(),
            )
            .expect("non-empty")
        };
        assert!(matches!(
            WbsnFirmware::new(
                projection,
                good_classifier,
                AlphaQ16(0),
                2,
                BeatWindow::PAPER
            ),
            Err(EmbeddedError::Dimension(_))
        ));
    }

    #[test]
    fn window_classification_rejects_wrong_lengths() {
        let fw = build_firmware();
        assert!(fw.classify_window(&[0.0; 199]).is_err());
        assert!(fw.classify_window(&[0.0; 200]).is_ok());
        let mut scratch = BeatScratch::default();
        let mut stages = StageNanos::default();
        for (len, ok) in [(199, false), (201, false), (200, true)] {
            let timed =
                fw.classify_window_with(&vec![0.0; len], fw.alpha, &mut scratch, Some(&mut stages));
            assert_eq!(timed.is_ok(), ok, "timed call on a {len}-sample window");
        }
    }

    #[test]
    fn timed_and_untimed_classification_agree_on_every_test_beat() {
        let fw = build_firmware();
        // The quick experiment configuration's test split.
        let test = Dataset::synthetic(DatasetSpec::tiny(), 2013).test;
        assert!(!test.is_empty());
        let mut scratch = BeatScratch::default();
        let mut total = 0u64;
        for beat in &test {
            let untimed = fw
                .classify_window_with(&beat.samples, fw.alpha, &mut scratch, None)
                .expect("untimed");
            let mut stages = StageNanos::default();
            let timed = fw
                .classify_window_with(&beat.samples, fw.alpha, &mut scratch, Some(&mut stages))
                .expect("timed");
            assert_eq!(timed, untimed);
            total += stages.total();
        }
        assert!(total > 0, "the timed calls read the clock");
    }

    #[test]
    fn full_record_processing_classifies_and_gates_delineation() {
        let fw = build_firmware();
        let mut gen = SyntheticEcg::with_seed(77);
        let rhythm = gen.rhythm(60, 0.12, 0.12);
        let record = gen.record(50, &rhythm, 3).expect("record");
        let report = fw.process_record(&record).expect("process");

        assert!(
            report.beats.len() >= 50,
            "most of the 60 beats should be detected, got {}",
            report.beats.len()
        );
        // Delineation must have run exactly for the forwarded beats.
        for b in &report.beats {
            assert_eq!(b.delineated, b.predicted.is_abnormal());
            if b.delineated {
                assert!(b.fiducials_transmitted >= 1);
            } else {
                assert_eq!(b.fiducials_transmitted, 1);
            }
        }
        assert_eq!(
            report.stats.forwarded_beats,
            report.beats.iter().filter(|b| b.delineated).count()
        );
        // The classifier must do better than chance on both figures of merit.
        assert!(report.arr() > 0.6, "ARR {}", report.arr());
        assert!(report.ndr() > 0.5, "NDR {}", report.ndr());
        // Gating must reduce the duty cycle and the energy relative to the
        // always-on delineator.
        assert!(report.duty.subsystem3 < report.duty.subsystem2);
        assert!(report.energy.compute_reduction() > 0.0);
        assert!(report.energy.radio_reduction() > 0.0);
    }

    #[test]
    fn alpha_test_can_be_retuned_after_deployment() {
        let fw = build_firmware();
        let mut gen = SyntheticEcg::with_seed(5);
        let record = gen
            .record(51, &gen.clone().rhythm(40, 0.1, 0.1), 1)
            .expect("record");
        let strict = fw
            .clone()
            .with_alpha(AlphaQ16::from_f64(0.9).expect("valid"))
            .process_record(&record)
            .expect("process");
        let lax = fw
            .with_alpha(AlphaQ16::from_f64(0.0).expect("valid"))
            .process_record(&record)
            .expect("process");
        // A stricter alpha can only forward more beats (more Unknown).
        assert!(strict.stats.forwarded_beats >= lax.stats.forwarded_beats);
    }
}

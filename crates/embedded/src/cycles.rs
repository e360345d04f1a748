//! Per-stage cycle accounting reproducing the structure of Table III.
//!
//! The run-time evaluation of the paper (Section IV-D) compares four
//! configurations on the IcyHeart SoC at 6 MHz:
//!
//! 1. the RP classifier alone,
//! 2. sub-system (1): single-lead filtering + peak detection + RP classifier,
//! 3. sub-system (2): always-on three-lead MMD delineation,
//! 4. sub-system (3): the proposed system, where delineation runs only for
//!    the beats the classifier forwards.
//!
//! This module estimates the operation mix of each stage from the actual
//! kernel parameters (structuring-element lengths, wavelet scales, projection
//! density, coefficient count) and converts it to cycles through the platform
//! cost table. Absolute duty cycles depend on the modelled core, but the
//! *relative* ordering and the gating benefit — the quantities the paper's
//! conclusions rest on — derive directly from the kernels implemented in this
//! repository.

use hbc_dsp::MorphologicalFilter;
use hbc_rp::PackedProjection;

use crate::int_classifier::IntegerNfc;
use crate::platform::{IcyHeartPlatform, OperationCounts};

/// Operation mix of the morphological filtering stage, per input sample of
/// one lead, charged at the cost of the **shipped van Herk / Gil–Werman
/// kernel** (`hbc_dsp::streaming::SlidingExtremum`): per pass, one
/// comparison extends the block's running prefix extremum, one picks
/// between it and the previous block's suffix extremum, and one builds the
/// suffix extrema in the backward pass over each completed block — the 3
/// of `EXTREMUM_COMPARISONS_PER_SAMPLE`, *independent of the
/// structuring-element length*. (The same 3 per pass once charged the
/// monotone-deque kernel this one replaced, so Table III is unchanged.)
/// The naive scan the model charged before costs one comparison per window
/// element (kept as [`naive_filtering_ops_per_sample`] so reports can call
/// out the delta).
pub fn filtering_ops_per_sample(filter: &MorphologicalFilter) -> OperationCounts {
    let compares = filter.comparisons_per_sample() as u64;
    let passes = hbc_dsp::filter::MORPHOLOGY_PASSES as u64;
    OperationCounts {
        compares,
        // Each comparison reads one buffered sample.
        loads: compares,
        // Block-buffer write + output write per pass.
        stores: 2 * passes,
        // Window-index bookkeeping per pass, plus the baseline averaging and
        // subtraction.
        adds: passes + 2,
        branches: compares,
        ..Default::default()
    }
}

/// Operation mix of the morphological filtering stage under the **naive
/// window rescan** (one comparison per effective-window element per pass) —
/// the cost before an O(1)-per-sample kernel, and what a literal reading of
/// the original firmware loop would charge. Kept as the reference point for
/// the model-delta callout in the Table III report.
pub fn naive_filtering_ops_per_sample(filter: &MorphologicalFilter) -> OperationCounts {
    let compares = filter.naive_comparisons_per_sample() as u64;
    OperationCounts {
        compares,
        // Each comparison reads one sample; results are written once per pass
        // (8 passes: erosion+dilation for 2 openings and 2 closings).
        loads: compares,
        stores: 8,
        adds: 2, // baseline averaging and subtraction
        branches: compares / 4,
        ..Default::default()
    }
}

/// How many times cheaper the shipped morphology kernel is than the naive
/// window scan on `platform`, per filtered sample — the model delta the
/// Table III report calls out.
pub fn morphology_model_speedup(filter: &MorphologicalFilter, platform: &IcyHeartPlatform) -> f64 {
    let naive = platform.cycles(&naive_filtering_ops_per_sample(filter));
    let shipped = platform.cycles(&filtering_ops_per_sample(filter));
    if shipped == 0 {
        return 1.0;
    }
    naive as f64 / shipped as f64
}

/// Operation mix of the à-trous wavelet decomposition + peak search, per
/// input sample of one lead.
pub fn peak_detection_ops_per_sample(scales: usize) -> OperationCounts {
    let scales = scales as u64;
    OperationCounts {
        // Low-pass (4 taps) and high-pass (2 taps) per scale.
        adds: 6 * scales,
        muls: scales,         // the 3·x terms of the low-pass filter
        compares: 4 * scales, // extremum tracking and thresholding
        loads: 8 * scales,
        stores: 2 * scales,
        branches: 2 * scales,
    }
}

/// Operation mix of one random projection (per beat): one addition or
/// subtraction per non-zero matrix entry, plus the unpacking loads.
pub fn projection_ops_per_beat(projection: &PackedProjection) -> OperationCounts {
    let entries = (projection.rows() * projection.cols()) as u64;
    // Expected non-zero fraction of an Achlioptas matrix is 1/3.
    let nonzero = entries / 3;
    OperationCounts {
        adds: nonzero,
        loads: entries / 4 + projection.cols() as u64, // packed bytes + samples
        stores: projection.rows() as u64,
        compares: entries, // the 2-bit decode tests
        branches: entries / 4,
        ..Default::default()
    }
}

/// Operation mix of one integer NFC evaluation (per beat).
pub fn nfc_ops_per_beat(classifier: &IntegerNfc) -> OperationCounts {
    let k = classifier.num_coefficients() as u64;
    let classes = hbc_ecg::beat::NUM_CLASSES as u64;
    OperationCounts {
        // Membership evaluation: distance + segment selection + interpolation.
        adds: k * classes * 3,
        muls: classifier.multiplications_per_beat() as u64,
        compares: k * classes * 4 + 8, // segment tests + defuzzification
        loads: k * classes * 2,
        stores: classes * (k + 1),
        branches: k * classes,
    }
}

/// Operation mix of the MMD delineation of one beat on one lead
/// (`window` samples analysed at `scales` morphological scales), charged at
/// the cost of a **monotone-wedge kernel**: two deque passes per scale
/// (trailing max, leading min) at ~`EXTREMUM_COMPARISONS_PER_SAMPLE` amortised
/// comparisons per sample each, *independent of the scale length* (the van
/// Herk kernel `hbc_dsp::Delineator::mmd` runs on the host also makes three
/// comparisons per sample: prefix, suffix pick, backward pass), plus the three-term
/// combine — against a full `s`-sample max and min rescan per output sample
/// for the naive operator the model charged before (kept as
/// [`naive_delineation_ops_per_beat_per_lead`]).
pub fn delineation_ops_per_beat_per_lead(window: usize, scales: &[usize]) -> OperationCounts {
    let window = window as u64;
    // One trailing-max and one leading-min wedge pass per scale.
    let passes = 2 * scales.len() as u64;
    let compares = hbc_dsp::filter::EXTREMUM_COMPARISONS_PER_SAMPLE as u64 * passes * window;
    OperationCounts {
        compares,
        // Each wedge comparison reads one buffered sample.
        loads: compares,
        // Wedge push + output write per pass.
        stores: 2 * passes * window,
        // The (max + min) − 2·x combine per output sample per scale (the
        // doubling is a shift/add on the integer core).
        adds: 3 * window * scales.len() as u64,
        branches: compares,
        muls: 0,
    }
}

/// Operation mix of the MMD delineation under the **naive per-output window
/// rescan** (`hbc_dsp::Delineator::mmd_naive`: a max over `s` samples and a
/// min over `s` samples per output sample per scale) — the cost the model
/// charged before the delineator was ported to the wedge kernel, expressed
/// with the same memory-traffic convention as
/// [`naive_filtering_ops_per_sample`]: every rescan comparison loads the
/// sample it compares. Kept as the reference point for the model-delta
/// callout in the Table III report.
pub fn naive_delineation_ops_per_beat_per_lead(window: usize, scales: &[usize]) -> OperationCounts {
    let window = window as u64;
    let scale_sum: u64 = scales.iter().map(|&s| s as u64).sum();
    // A `s + 1`-sample max and a `s + 1`-sample min rescan per output
    // sample per scale (clamped windows make the borders slightly cheaper;
    // charged at the interior cost like the naive morphology model).
    let compares = 2 * window * scale_sum;
    OperationCounts {
        compares,
        loads: compares,
        adds: 3 * window * scales.len() as u64,
        stores: window * scales.len() as u64,
        branches: compares / 4,
        muls: 0,
    }
}

/// How many times cheaper the wedge MMD delineation is charged than the
/// naive window rescan on `platform`, per analysed beat — the second model
/// delta the Table III report calls out (alongside
/// [`morphology_model_speedup`]).
pub fn delineation_model_speedup(
    window: usize,
    scales: &[usize],
    platform: &IcyHeartPlatform,
) -> f64 {
    let naive = platform.cycles(&naive_delineation_ops_per_beat_per_lead(window, scales));
    let deque = platform.cycles(&delineation_ops_per_beat_per_lead(window, scales));
    if deque == 0 {
        return 1.0;
    }
    naive as f64 / deque as f64
}

/// The three MMD analysis scales (in samples) the delineation stage runs at
/// a given sampling rate — 60, 100 and 140 ms, as in the reference
/// delineator. Shared by the duty-cycle model and the Table III report.
pub fn delineation_scales(fs: f64) -> [usize; 3] {
    [
        (0.06 * fs) as usize,
        (0.10 * fs) as usize,
        (0.14 * fs) as usize,
    ]
}

/// Parameters describing the workload the duty-cycle model is evaluated on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Sampling frequency of the acquisition front-end in Hz.
    pub fs: f64,
    /// Average heart rate in beats per second (the MIT-BIH average is ≈1.2).
    pub beats_per_second: f64,
    /// Number of leads processed by the delineation stage.
    pub delineation_leads: usize,
    /// Beat-window length (in samples at `fs`) analysed by the delineator.
    pub delineation_window: usize,
    /// Fraction of beats the classifier forwards to the delineation stage
    /// (abnormal beats plus misclassified normals).
    pub forwarded_fraction: f64,
}

impl Workload {
    /// The paper's evaluation workload: 360 Hz acquisition, three delineation
    /// leads, 200-sample windows, and the test-set beat rate.
    pub fn paper(forwarded_fraction: f64) -> Self {
        Workload {
            fs: 360.0,
            beats_per_second: 1.2,
            delineation_leads: 3,
            delineation_window: 200,
            forwarded_fraction,
        }
    }
}

/// Duty cycles of the four configurations of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleReport {
    /// RP classifier alone (projection + NFC, per beat).
    pub rp_classifier: f64,
    /// Sub-system (1): filtering + peak detection + RP classifier.
    pub subsystem1: f64,
    /// Sub-system (2): always-on three-lead delineation (including its own
    /// three-lead filtering).
    pub subsystem2: f64,
    /// Sub-system (3): the proposed gated system.
    pub subsystem3: f64,
}

impl DutyCycleReport {
    /// Relative run-time reduction of the proposed system over the always-on
    /// delineator: `1 − duty₃ / duty₂` (the paper reports 63 %).
    pub fn runtime_reduction(&self) -> f64 {
        if self.subsystem2 <= 0.0 {
            return 0.0;
        }
        1.0 - self.subsystem3 / self.subsystem2
    }
}

/// Cycle/duty-cycle model for the embedded application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleModel {
    /// Platform executing the firmware.
    pub platform: IcyHeartPlatform,
}

impl CycleModel {
    /// Creates a model for the given platform.
    pub fn new(platform: IcyHeartPlatform) -> Self {
        CycleModel { platform }
    }

    /// Cycles per second of the single-lead conditioning front-end
    /// (morphological filtering + wavelet peak detection).
    pub fn conditioning_cycles_per_second(&self, fs: f64) -> f64 {
        let filter = MorphologicalFilter::for_sampling_rate(fs);
        let per_sample = self.platform.cycles(&filtering_ops_per_sample(&filter))
            + self.platform.cycles(&peak_detection_ops_per_sample(
                hbc_dsp::wavelet::DEFAULT_SCALES,
            ));
        per_sample as f64 * fs
    }

    /// Cycles per second of the RP classifier alone.
    pub fn classifier_cycles_per_second(
        &self,
        projection: &PackedProjection,
        classifier: &IntegerNfc,
        beats_per_second: f64,
    ) -> f64 {
        let per_beat = self.platform.cycles(&projection_ops_per_beat(projection))
            + self.platform.cycles(&nfc_ops_per_beat(classifier));
        per_beat as f64 * beats_per_second
    }

    /// Cycles per second of the always-on multi-lead delineation (its own
    /// filtering of every lead plus per-beat MMD analysis).
    pub fn delineation_cycles_per_second(&self, workload: &Workload) -> f64 {
        let filter = MorphologicalFilter::for_sampling_rate(workload.fs);
        let filtering = self.platform.cycles(&filtering_ops_per_sample(&filter)) as f64
            * workload.fs
            * workload.delineation_leads as f64;
        let scales = delineation_scales(workload.fs);
        let per_beat_per_lead = self.platform.cycles(&delineation_ops_per_beat_per_lead(
            workload.delineation_window,
            &scales,
        ));
        let delineation = per_beat_per_lead as f64
            * workload.delineation_leads as f64
            * workload.beats_per_second;
        filtering + delineation
    }

    /// Builds the full Table III style duty-cycle report for a fitted
    /// embedded classifier and a workload.
    pub fn duty_cycles(
        &self,
        projection: &PackedProjection,
        classifier: &IntegerNfc,
        workload: &Workload,
    ) -> DutyCycleReport {
        let clock = self.platform.clock_hz;
        let rp =
            self.classifier_cycles_per_second(projection, classifier, workload.beats_per_second)
                / clock;
        let conditioning = self.conditioning_cycles_per_second(workload.fs) / clock;
        let subsystem1 = rp + conditioning;
        let subsystem2 = self.delineation_cycles_per_second(workload) / clock;
        let subsystem3 = subsystem1 + workload.forwarded_fraction * subsystem2;
        DutyCycleReport {
            rp_classifier: rp,
            subsystem1,
            subsystem2,
            subsystem3,
        }
    }
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel::new(IcyHeartPlatform::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int_classifier::MembershipKind;
    use crate::linear_mf::IntMembership;
    use hbc_rp::AchlioptasMatrix;

    fn toy_classifier(k: usize) -> IntegerNfc {
        let rows = (0..k)
            .map(|_| {
                [
                    IntMembership::new(MembershipKind::Linearized, 0, 100),
                    IntMembership::new(MembershipKind::Linearized, 500, 100),
                    IntMembership::new(MembershipKind::Linearized, -500, 100),
                ]
            })
            .collect();
        IntegerNfc::new(rows).expect("non-empty")
    }

    fn toy_projection(k: usize, d: usize) -> PackedProjection {
        PackedProjection::from_matrix(&AchlioptasMatrix::generate(k, d, 5))
    }

    #[test]
    fn classifier_alone_is_a_tiny_fraction_of_the_duty_cycle() {
        // Paper: the RP classifier uses less than 1 % of the duty cycle.
        let model = CycleModel::default();
        let workload = Workload::paper(0.25);
        let report = model.duty_cycles(&toy_projection(8, 50), &toy_classifier(8), &workload);
        assert!(
            report.rp_classifier < 0.01,
            "RP classifier duty cycle {} should be below 1 %",
            report.rp_classifier
        );
    }

    #[test]
    fn conditioning_dominates_subsystem1() {
        // Paper: most of sub-system (1) is filtering + peak detection, not
        // the classifier itself. The band reflects the deque morphology
        // kernel: ~24 comparisons per sample instead of the ~1000 of the
        // naive window scan, so sub-system (1) sits around 1–2 % duty.
        let model = CycleModel::default();
        let workload = Workload::paper(0.25);
        let report = model.duty_cycles(&toy_projection(8, 50), &toy_classifier(8), &workload);
        assert!(report.subsystem1 > 10.0 * report.rp_classifier);
        assert!(
            report.subsystem1 > 0.005 && report.subsystem1 < 0.05,
            "sub-system (1) duty cycle {} outside the plausible band",
            report.subsystem1
        );
    }

    #[test]
    fn deque_morphology_is_charged_far_below_the_naive_scan() {
        // The cost-model delta the Table III report calls out: at 360 Hz the
        // naive scan compares ~1000 samples per input sample (4 passes with
        // a 73-sample window + 4 with a 191-sample one) while the deque
        // kernel is window-length-independent.
        let filter = MorphologicalFilter::for_sampling_rate(360.0);
        let platform = IcyHeartPlatform::paper();
        let speedup = morphology_model_speedup(&filter, &platform);
        assert!(
            speedup > 10.0,
            "deque-vs-naive model speedup {speedup} should be an order of magnitude"
        );
        // The deque charge is window-independent; the naive one is not.
        let slow = MorphologicalFilter::for_sampling_rate(1000.0);
        assert_eq!(
            platform.cycles(&filtering_ops_per_sample(&filter)),
            platform.cycles(&filtering_ops_per_sample(&slow))
        );
        assert!(
            platform.cycles(&naive_filtering_ops_per_sample(&slow))
                > platform.cycles(&naive_filtering_ops_per_sample(&filter))
        );
    }

    #[test]
    fn always_on_delineation_costs_far_more_than_the_gated_system() {
        let model = CycleModel::default();
        let workload = Workload::paper(0.23); // the paper's forwarded fraction
        let report = model.duty_cycles(&toy_projection(8, 50), &toy_classifier(8), &workload);
        assert!(report.subsystem2 > report.subsystem1);
        assert!(report.subsystem3 < report.subsystem2);
        let reduction = report.runtime_reduction();
        // The paper reports 63 % against naive kernels. With both morphology
        // and MMD charged at the wedge-kernel cost, the always-on delineator
        // is far cheaper in absolute terms, so the *relative* benefit of
        // gating it shrinks in the model (~35 % here) — the gating ordering
        // (asserted above) is what the paper's conclusion rests on, and the
        // Table III report calls out both model deltas explicitly.
        assert!(
            reduction > 0.25 && reduction < 0.6,
            "run-time reduction {reduction} outside the wedge-charged band"
        );
    }

    #[test]
    fn wedge_delineation_is_charged_far_below_the_naive_scan() {
        // The second model delta the Table III report calls out: at 360 Hz
        // the naive MMD rescans ~2·s samples per output sample per scale
        // while the wedge charge is scale-independent.
        let platform = IcyHeartPlatform::paper();
        let scales = [21, 36, 50];
        let speedup = delineation_model_speedup(200, &scales, &platform);
        assert!(
            speedup > 3.0,
            "wedge-vs-naive delineation model speedup {speedup} should be substantial"
        );
        // The wedge charge does not grow with the scale lengths; the naive
        // one does.
        let coarse = [42, 72, 100];
        assert_eq!(
            platform.cycles(&delineation_ops_per_beat_per_lead(200, &scales)),
            platform.cycles(&delineation_ops_per_beat_per_lead(200, &coarse))
        );
        assert!(
            platform.cycles(&naive_delineation_ops_per_beat_per_lead(200, &coarse))
                > platform.cycles(&naive_delineation_ops_per_beat_per_lead(200, &scales))
        );
    }

    #[test]
    fn forwarding_everything_removes_the_gating_benefit() {
        let model = CycleModel::default();
        let all = model.duty_cycles(
            &toy_projection(8, 50),
            &toy_classifier(8),
            &Workload::paper(1.0),
        );
        let none = model.duty_cycles(
            &toy_projection(8, 50),
            &toy_classifier(8),
            &Workload::paper(0.0),
        );
        assert!(
            all.subsystem3 > all.subsystem2,
            "gating overhead when everything is forwarded"
        );
        assert!(none.subsystem3 < 0.5 * all.subsystem3);
        assert!(none.runtime_reduction() > all.runtime_reduction());
    }

    #[test]
    fn more_coefficients_cost_more_classifier_cycles() {
        let model = CycleModel::default();
        let c8 =
            model.classifier_cycles_per_second(&toy_projection(8, 50), &toy_classifier(8), 1.2);
        let c32 =
            model.classifier_cycles_per_second(&toy_projection(32, 50), &toy_classifier(32), 1.2);
        assert!(c32 > 3.0 * c8);
    }

    #[test]
    fn duty_report_reduction_handles_degenerate_input() {
        let r = DutyCycleReport {
            rp_classifier: 0.0,
            subsystem1: 0.0,
            subsystem2: 0.0,
            subsystem3: 0.0,
        };
        assert_eq!(r.runtime_reduction(), 0.0);
    }
}

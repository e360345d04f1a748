//! The firmware: the Figure 6 pipeline fed one ADC sample at a time.
//!
//! The node of the paper sees *one sample per ADC tick* and must hold only a
//! bounded slice of the past. [`StreamingFirmware`] is that execution model
//! on the host and the one implementation of the pipeline: gateway sessions
//! push samples into it, and
//! [`WbsnFirmware::process_record`](crate::firmware::WbsnFirmware::process_record)
//! runs a stored record through its stages after the filter.
//!
//! 1. [`StreamingBaselineFilter`] corrects each sample online (group delay
//!    `4·⌊qrs/2⌋ + 2·⌊beat/2⌋` samples);
//! 2. [`StreamingPeakDetector`] — the push-based à-trous wavelet cascade
//!    feeding the incremental R-peak scanner with pre-calibrated thresholds;
//! 3. a [`StreamingBeatWindower`] cuts the 200-sample window of every
//!    finalized peak from a bounded ring buffer;
//! 4. [`WbsnFirmware::classify_window_with`] runs, against a reused
//!    [`BeatScratch`], phase-correct decimation (`step_by` over the cut
//!    window, so the grid anchors at each window start and the classifier
//!    sees the same 4×-downsampled view wherever the beat occurred in the
//!    stream), ADC quantisation, packed projection and the integer NFC
//!    without allocating in steady state;
//! 5. beats flagged pathological are delineated and their fiducial count
//!    recorded, as the node would transmit them.
//!
//! Every stage is bit-identical to its whole-signal oracle (see
//! `hbc_dsp::streaming`), for any chunking of the input. A gateway session
//! delineates its one lead; the record path also hands over the record's
//! other filtered leads, whose windows delineation fuses with it
//! ([`Delineator::delineate_multilead`]).
//!
//! Ground truth is unknown online, so emitted [`BeatOutcome`]s carry
//! `truth: None`; the hub labels them by matching positions against
//! annotations (see `hbc_core`'s `StreamHub`), the record path through the
//! log of every finalized peak.

use std::collections::VecDeque;
use std::time::Instant;

use hbc_dsp::peak::{PeakDetector, PeakThresholds};
use hbc_dsp::streaming::{StreamingBaselineFilter, StreamingBeatWindower, BLOCK};
use hbc_dsp::{Delineator, Millivolts, SampleScale, StreamingPeakDetector};
use hbc_obs::Histogram;

use crate::firmware::{BeatOutcome, BeatScratch, StageNanos, WbsnFirmware};

/// The windower's history slack beyond the detector's latency bound, in
/// samples. The front-end runs in blocks of [`BLOCK`] samples, and a peak
/// found inside a block reaches the windower only after the whole block
/// has, up to `BLOCK − 1` samples later than its latency bound says; a
/// slack of at least the block width keeps its window in the ring.
const HISTORY_SLACK: usize = BLOCK;
const _: () = assert!(
    BLOCK <= HISTORY_SLACK,
    "the windower's slack must cover one block"
);

hbc_obs::metric_struct! {
    prefix = "hbc_stage_";
    /// Per-stage latency histograms for one online pipeline (nanoseconds).
    ///
    /// `conditioning` is recorded once per [`StreamingFirmware::push_chunk`]
    /// call and covers the front-end DSP — baseline filter, wavelet cascade,
    /// peak scan and windowing — with the per-beat stage time subtracted out.
    /// The remaining histograms are per beat. Histogram merge is deterministic
    /// (element-wise bucket addition), so per-session metrics aggregate to
    /// hub- or fleet-level distributions independent of how sessions were
    /// sharded.
    #[derive(Debug, Clone, Default)]
    pub struct StageMetrics {
        /// Per-chunk signal-conditioning time, in nanoseconds.
        ///
        /// Front-end conditioning per ingested chunk.
        histogram pub conditioning_nanos: Histogram,
        /// Per-beat window preparation plus random projection time.
        ///
        /// Window preparation + packed projection per beat, in nanoseconds.
        histogram pub projection_nanos: Histogram,
        /// Per-beat classifier scoring time, in nanoseconds.
        ///
        /// Integer NFC classification per beat.
        histogram pub classify_nanos: Histogram,
        /// Per-abnormal-beat delineation time, in nanoseconds.
        ///
        /// MMD delineation per forwarded (abnormal) beat.
        histogram pub delineation_nanos: Histogram,
    }
}

impl StageMetrics {
    /// Merges another pipeline's stage histograms into this one
    /// (deterministic: any split/merge order yields the same result).
    pub fn merge(&mut self, other: &StageMetrics) {
        self.conditioning_nanos.merge(&other.conditioning_nanos);
        self.projection_nanos.merge(&other.projection_nanos);
        self.classify_nanos.merge(&other.classify_nanos);
        self.delineation_nanos.merge(&other.delineation_nanos);
    }
}

/// The Figure 6 application as a push-based stream processor with bounded
/// memory and zero steady-state allocation.
///
/// The input sample type follows the [`SampleScale`] `S`: millivolts
/// (`f64`) by default, or ADC codes (`i16`) read through the
/// [`AdcModel`](crate::AdcModel) that produced them. Codes stay codes
/// through the baseline filter, the first stage with `f64` arithmetic, and
/// the outcomes equal those of the millivolt pipeline fed the dequantized
/// signal.
#[derive(Debug, Clone)]
pub struct StreamingFirmware<'fw, S: SampleScale = Millivolts> {
    firmware: &'fw WbsnFirmware,
    filter: StreamingBaselineFilter<S>,
    detector: StreamingPeakDetector,
    windower: StreamingBeatWindower,
    delineator: Delineator,
    /// The record's other filtered leads, fused by delineation; empty for
    /// a gateway session.
    leads: &'fw [Vec<f64>],
    /// Every finalized peak, for the record path's truth matching.
    peak_log: Option<Vec<usize>>,
    scratch: BeatScratch,
    /// Reused full-rate window buffer (classification + delineation input).
    window_buf: Vec<f64>,
    /// Reused smoothing buffer of the delineator.
    smoothed: Vec<f64>,
    outcomes: VecDeque<BeatOutcome>,
    samples_in: usize,
    beats_out: usize,
    forwarded: usize,
    finished: bool,
    stages: StageMetrics,
    /// Nanoseconds spent in per-beat stages since construction; `push_chunk`
    /// subtracts its delta from the chunk wall-clock to attribute the rest
    /// to front-end conditioning.
    beat_nanos_acc: u64,
}

impl<'fw> StreamingFirmware<'fw> {
    /// Builds the online pipeline around a trained firmware image, fed
    /// millivolt samples.
    ///
    /// `fs` is the acquisition sampling rate; `thresholds` are the fixed
    /// detection thresholds of the deployment (calibrate with
    /// [`PeakDetector::calibrate`] over a baseline-filtered stretch of the
    /// patient's signal, or reuse host-side thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive (propagated from the DSP stages).
    pub fn new(firmware: &'fw WbsnFirmware, fs: f64, thresholds: PeakThresholds) -> Self {
        Self::with_scale(firmware, fs, thresholds, Millivolts)
    }

    /// Runs a stored record's filtered leads through the stages after the
    /// filter, with `scratch` as the per-beat scratch: `leads[0]` is
    /// classified, and delineation fuses the windows of every lead. Returns
    /// the outcomes (`truth: None`) and every finalized peak, border peaks
    /// included.
    pub(crate) fn run_record(
        firmware: &'fw WbsnFirmware,
        fs: f64,
        thresholds: PeakThresholds,
        leads: &'fw [Vec<f64>],
        scratch: &mut BeatScratch,
    ) -> (Vec<BeatOutcome>, Vec<usize>) {
        let mut stream = Self::new(firmware, fs, thresholds);
        (stream.leads, stream.peak_log) = (&leads[1..], Some(Vec::new()));
        std::mem::swap(&mut stream.scratch, scratch);
        for block in leads[0].chunks(BLOCK) {
            stream.ingest_filtered(block);
        }
        // The filter, which the record bypasses, drains nothing.
        stream.finish();
        std::mem::swap(&mut stream.scratch, scratch);
        (stream.outcomes.into(), stream.peak_log.unwrap_or_default())
    }
}

impl<'fw, S: SampleScale> StreamingFirmware<'fw, S> {
    /// [`StreamingFirmware::new`] fed samples read through `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive (propagated from the DSP stages).
    pub fn with_scale(
        firmware: &'fw WbsnFirmware,
        fs: f64,
        thresholds: PeakThresholds,
        scale: S,
    ) -> Self {
        let detector_cfg = PeakDetector::new(fs);
        let detector = StreamingPeakDetector::new(&detector_cfg, thresholds);
        // The windower must retain enough history to serve a window whose
        // peak is only finalized `detector.delay()` samples later, plus the
        // block it was found in.
        let history = firmware.window.len() + detector.delay() + HISTORY_SLACK;
        StreamingFirmware {
            filter: StreamingBaselineFilter::with_scale(fs, scale),
            windower: StreamingBeatWindower::new(firmware.window, history),
            delineator: Delineator::new(fs),
            leads: &[],
            peak_log: None,
            detector,
            scratch: BeatScratch::default(),
            window_buf: Vec::new(),
            smoothed: Vec::new(),
            outcomes: VecDeque::new(),
            samples_in: 0,
            beats_out: 0,
            forwarded: 0,
            finished: false,
            stages: StageMetrics::default(),
            beat_nanos_acc: 0,
            firmware,
        }
    }

    /// Total end-to-end latency bound, in samples, between an R peak
    /// entering the node and its [`BeatOutcome`] becoming available.
    pub fn delay(&self) -> usize {
        self.filter.delay() + self.detector.delay() + self.firmware.window.post
    }

    /// Samples pushed so far.
    pub fn samples_pushed(&self) -> usize {
        self.samples_in
    }

    /// Beat outcomes emitted so far (drained or not).
    pub fn beats_emitted(&self) -> usize {
        self.beats_out
    }

    /// Beats forwarded to the delineation stage so far.
    pub fn forwarded_beats(&self) -> usize {
        self.forwarded
    }

    /// Fraction of emitted beats forwarded to delineation.
    pub fn forwarded_fraction(&self) -> f64 {
        if self.beats_out == 0 {
            0.0
        } else {
            self.forwarded as f64 / self.beats_out as f64
        }
    }

    /// Pushes one raw ADC-rate sample of the classification lead.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish`].
    pub fn push(&mut self, sample: S::Sample) {
        assert!(!self.finished, "push after finish");
        self.samples_in += 1;
        if let Some(filtered) = self.filter.push(sample) {
            self.ingest_filtered(&[filtered]);
        }
    }

    /// Pushes a chunk of consecutive samples, in blocks of at most
    /// [`BLOCK`]: each front-end stage runs over a whole block before the
    /// next one starts. Chunking is immaterial: any partition of the signal
    /// into `push_chunk`/`push` calls produces the identical outcome stream.
    ///
    /// Each call records one observation in the conditioning-stage
    /// histogram (chunk wall-clock minus the per-beat stage time), so the
    /// serving path's batch ingestion is telemetered for free; the
    /// per-sample [`Self::push`] entry point stays clock-free.
    pub fn push_chunk(&mut self, samples: &[S::Sample]) {
        if samples.is_empty() {
            return;
        }
        let started = Instant::now();
        let beats_before = self.beat_nanos_acc;
        for block in samples.chunks(BLOCK) {
            self.push_block(block);
        }
        let total = started.elapsed().as_nanos() as u64;
        let beat_time = self.beat_nanos_acc - beats_before;
        self.stages
            .conditioning_nanos
            .record(total.saturating_sub(beat_time));
    }

    /// Declares the end of the stream: the filter drains its right border
    /// (bit-identical to the batch filter's clamping), the wavelet reflects
    /// its tail, the scan runs to completion and all remaining beats are
    /// emitted. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut tail = Vec::new();
        self.filter.finish_into(&mut tail);
        for block in tail.chunks(BLOCK) {
            self.ingest_filtered(block);
        }
        self.detector.finish();
        self.drain_peaks();
        self.drain_windows();
    }

    /// Next classified beat, in temporal order.
    pub fn pop_outcome(&mut self) -> Option<BeatOutcome> {
        self.outcomes.pop_front()
    }

    /// The firmware image this stream currently classifies with.
    pub fn firmware(&self) -> &'fw WbsnFirmware {
        self.firmware
    }

    /// Replaces the firmware image mid-stream (model hot-swap).
    ///
    /// Beats are classified atomically inside [`Self::push`] — a window is
    /// cut, classified and emitted before the call returns — so a swap
    /// between pushes always lands on a beat boundary: every beat is scored
    /// entirely by the old image or entirely by the new one, never by a
    /// mixture, and already-emitted outcomes are untouched. The detector
    /// thresholds and filter state are per-patient calibration, not part of
    /// the image, and survive the swap.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EmbeddedError::Dimension`] when the new image's
    /// beat window differs from the current one: the windower's ring buffer
    /// and history are sized for the deployed window, so an image with a
    /// different geometry needs a fresh session, not a swap.
    pub fn swap_firmware(&mut self, firmware: &'fw WbsnFirmware) -> crate::Result<()> {
        if firmware.window != self.firmware.window {
            return Err(crate::EmbeddedError::Dimension(format!(
                "cannot hot-swap to a firmware with window {:?} (deployed: {:?})",
                firmware.window, self.firmware.window
            )));
        }
        self.firmware = firmware;
        Ok(())
    }

    /// One block through filter, windower, detector and classification.
    fn push_block(&mut self, block: &[S::Sample]) {
        assert!(!self.finished, "push after finish");
        self.samples_in += block.len();
        let mut filtered = [0.0; BLOCK];
        let n = self.filter.push_chunk(block, &mut filtered);
        self.ingest_filtered(&filtered[..n]);
    }

    fn ingest_filtered(&mut self, filtered: &[f64]) {
        for &y in filtered {
            self.windower.push_sample(y);
        }
        self.detector.push_chunk(filtered);
        self.drain_peaks();
        self.drain_windows();
    }

    fn drain_peaks(&mut self) {
        while let Some(peak) = self.detector.pop_peak() {
            if let Some(log) = &mut self.peak_log {
                log.push(peak);
            }
            self.windower.push_peak(peak);
        }
    }

    fn drain_windows(&mut self) {
        let mut window = std::mem::take(&mut self.window_buf);
        while let Some(peak) = self.windower.pop_window(&mut window) {
            self.emit_beat(peak, &window);
        }
        self.window_buf = window;
    }

    /// Per-stage latency histograms accumulated by this pipeline.
    pub fn stage_metrics(&self) -> &StageMetrics {
        &self.stages
    }

    fn emit_beat(&mut self, peak: usize, window: &[f64]) {
        // Stage 3-5 through the one classification body the batch path
        // runs: the decimation grid anchors at the window start
        // (phase-correct relative to the R peak), then ADC quantisation,
        // packed projection and integer NFC against reused buffers, timed.
        let fw = self.firmware;
        let mut beat_stages = StageNanos::default();
        let predicted = fw
            .classify_window_with(window, fw.alpha, &mut self.scratch, Some(&mut beat_stages))
            .expect("windower emits firmware-sized windows");
        let delineated = predicted.is_abnormal();
        let fiducials_transmitted = if delineated {
            self.forwarded += 1;
            let del_started = Instant::now();
            let pre = fw.window.pre;
            let fiducials = if self.leads.is_empty() {
                // One lead fuses to itself, so this equals
                // `delineate_multilead` without its per-beat allocations.
                self.delineator
                    .delineate_beat_with(window, pre, &mut self.smoothed)
            } else {
                let rest = self.leads.iter().map(|l| &l[peak - pre..][..window.len()]);
                let windows: Vec<&[f64]> = std::iter::once(window).chain(rest).collect();
                self.delineator.delineate_multilead(&windows, pre)
            }
            .map(|f| f.count().max(1))
            .unwrap_or(1);
            let del_nanos = del_started.elapsed().as_nanos() as u64;
            self.stages.delineation_nanos.record(del_nanos);
            self.beat_nanos_acc += del_nanos;
            fiducials
        } else {
            1 // peak position only
        };
        self.stages
            .projection_nanos
            .record(beat_stages.prepare + beat_stages.project);
        self.stages.classify_nanos.record(beat_stages.classify);
        self.beat_nanos_acc += beat_stages.total();
        self.beats_out += 1;
        self.outcomes.push_back(BeatOutcome {
            peak,
            truth: None,
            predicted,
            delineated,
            fiducials_transmitted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Quantizer;
    use crate::int_classifier::AlphaQ16;
    use hbc_dsp::MorphologicalFilter;
    use hbc_ecg::beat::BeatWindow;
    use hbc_ecg::dataset::DatasetSpec;
    use hbc_ecg::record::Lead;
    use hbc_ecg::synthetic::SyntheticEcg;
    use hbc_ecg::Dataset;
    use hbc_nfc::pipeline_fit_quick;
    use hbc_rp::PackedProjection;

    fn build_firmware() -> WbsnFirmware {
        let spec = DatasetSpec::tiny();
        let mut dataset = Dataset::synthetic(spec, 9);
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
    fn streaming_firmware_reproduces_process_record_sample_by_sample() {
        let fw = build_firmware();
        let mut gen = SyntheticEcg::with_seed(77);
        let rhythm = gen.rhythm(60, 0.12, 0.12);
        let record = gen.record(50, &rhythm, 1).expect("record");
        let batch = fw.process_record(&record).expect("batch run");

        // Calibrate thresholds exactly as the batch path derives them: over
        // the filtered classification lead.
        let raw = record.lead(Lead(0)).expect("lead 0");
        let filtered = MorphologicalFilter::for_sampling_rate(record.fs)
            .apply(raw)
            .expect("filter");
        let thresholds = PeakDetector::new(record.fs)
            .calibrate(&filtered)
            .expect("calibrate");

        let mut streaming = StreamingFirmware::new(&fw, record.fs, thresholds);
        let mut outcomes = Vec::new();
        for &s in raw {
            streaming.push(s);
            while let Some(o) = streaming.pop_outcome() {
                outcomes.push(o);
            }
        }
        streaming.finish();
        while let Some(o) = streaming.pop_outcome() {
            outcomes.push(o);
        }

        assert_eq!(
            outcomes.len(),
            batch.beats.len(),
            "streaming and batch must see the same beats"
        );
        for (s, b) in outcomes.iter().zip(&batch.beats) {
            assert_eq!(s.peak, b.peak, "peak positions must agree");
            assert_eq!(s.predicted, b.predicted, "classes must agree");
            assert_eq!(s.delineated, b.delineated);
            assert_eq!(s.truth, None, "online beats carry no ground truth");
        }
        assert_eq!(streaming.beats_emitted(), batch.beats.len());
        assert_eq!(streaming.forwarded_beats(), batch.stats.forwarded_beats);
        assert_eq!(streaming.samples_pushed(), raw.len());
        assert!(streaming.delay() > 0);
        assert!(streaming.forwarded_fraction() >= 0.0);
    }

    #[test]
    fn finishing_twice_is_harmless_and_push_after_finish_panics() {
        let fw = build_firmware();
        let thresholds = PeakThresholds {
            first_scale: 1.0,
            cross_scale: vec![1.0; 3],
        };
        let mut streaming = StreamingFirmware::new(&fw, 360.0, thresholds);
        streaming.push_chunk(&[0.0; 500]);
        streaming.finish();
        streaming.finish();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            streaming.push(0.0);
        }));
        assert!(result.is_err(), "push after finish must panic");
    }
}

//! Wavelet-based R-peak detection.
//!
//! The peak detector of the paper (Section IV-A, taken from Rincón et al.)
//! decomposes the filtered ECG into four dyadic wavelet scales and searches
//! for couples of maximum–minimum wavelet extrema that appear *across* the
//! scales; the R peak is then located at the zero crossing of the first-scale
//! coefficients between the two extrema. A refractory period suppresses
//! double detections inside a physiologically impossible interval.
//!
//! The scan itself is implemented once, as the incremental [`PeakScanner`]
//! state machine consuming one multi-scale coefficient frame at a time from a
//! bounded ring buffer. Production code drives it from the streaming wavelet
//! cascade ([`crate::streaming::StreamingPeakDetector`]), online and over
//! stored records alike. The whole-signal [`PeakDetector::detect`] drives the
//! *same* scanner over the [`DyadicWavelet::transform`] of a record; it is
//! the oracle the parity suites and the `peak_detection` bench compare the
//! streaming detector against.
//!
//! Detection thresholds are derived from the RMS of the wavelet detail
//! coefficients. A stored record can be calibrated over in full; an online
//! node cannot know that quantity ahead of time, so the thresholds are
//! factored out as [`PeakThresholds`] — calibrated once (e.g. over the first
//! seconds of signal, or on the host before deployment) and then held fixed,
//! exactly like the calibration phase of a real firmware.
//! [`PeakDetector::calibrate`] computes them in one pass of the streaming
//! cascade.

use std::collections::VecDeque;

use crate::streaming::BLOCK;
use crate::tape::Tape;
use crate::wavelet::DyadicWavelet;
use crate::{DspError, Result};

/// Configuration of the wavelet peak detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakDetectorConfig {
    /// Number of wavelet scales used for the cross-scale confirmation.
    pub scales: usize,
    /// Fraction of the running RMS of the first-scale coefficients used as
    /// the detection threshold.
    pub threshold_factor: f64,
    /// Minimum distance between two detected peaks, in seconds (refractory
    /// period; 200 ms by default, the physiological minimum).
    pub refractory_s: f64,
    /// How many scales (out of `scales`) must confirm an extremum pair.
    pub min_scales_agreeing: usize,
}

impl Default for PeakDetectorConfig {
    fn default() -> Self {
        PeakDetectorConfig {
            scales: 4,
            threshold_factor: 1.5,
            refractory_s: 0.2,
            min_scales_agreeing: 3,
        }
    }
}

/// Detection thresholds, one per wavelet scale, derived from the coefficient
/// RMS of a calibration signal (see [`PeakDetector::calibrate`]).
///
/// `first_scale` gates candidate extrema on scale 1; `cross_scale[s - 1]`
/// (for scale `s ≥ 2`) is the level a coarser scale must exceed near the
/// candidate pair to count as agreeing.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakThresholds {
    /// Threshold on the first-scale coefficients.
    pub first_scale: f64,
    /// Thresholds for the cross-scale confirmation (scales 2..).
    pub cross_scale: Vec<f64>,
}

/// Wavelet-based QRS / R-peak detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakDetector {
    config: PeakDetectorConfig,
    fs: f64,
}

impl PeakDetector {
    /// Creates a detector for signals sampled at `fs` Hz with the default
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive.
    pub fn new(fs: f64) -> Self {
        Self::with_config(fs, PeakDetectorConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive, `scales == 0` or
    /// `min_scales_agreeing > scales`.
    pub fn with_config(fs: f64, config: PeakDetectorConfig) -> Self {
        assert!(fs > 0.0, "sampling frequency must be positive");
        assert!(config.scales > 0, "at least one scale is required");
        assert!(
            config.min_scales_agreeing >= 1 && config.min_scales_agreeing <= config.scales,
            "min_scales_agreeing must be within [1, scales]"
        );
        PeakDetector { config, fs }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PeakDetectorConfig {
        &self.config
    }

    /// Sampling frequency the detector was built for, in Hz.
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Refractory period in samples.
    pub fn refractory_samples(&self) -> usize {
        (self.config.refractory_s * self.fs).round() as usize
    }

    /// Maximum span of a QRS modulus-maxima pair, in samples (~80 ms).
    pub fn pair_window_samples(&self) -> usize {
        (0.08 * self.fs).round() as usize
    }

    /// Derives fixed detection thresholds from the wavelet detail
    /// coefficients of a calibration signal (the per-scale RMS scaled by the
    /// configured threshold factor).
    pub fn thresholds_from_details(&self, details: &[Vec<f64>]) -> PeakThresholds {
        let energy = details.iter().map(|d| d.iter().map(|v| v * v).sum());
        self.thresholds_from_energy(&energy.collect::<Vec<f64>>(), details[0].len())
    }

    /// The thresholds of per-scale detail energies (sums of squares) over
    /// `len` coefficients each.
    fn thresholds_from_energy(&self, energy: &[f64], len: usize) -> PeakThresholds {
        let factor = self.config.threshold_factor;
        let mut thresholds = energy.iter().map(|e| factor * (e / len as f64).sqrt());
        PeakThresholds {
            first_scale: thresholds.next().expect("at least one scale"),
            cross_scale: thresholds.collect(),
        }
    }

    /// Computes [`PeakThresholds`] from a calibration signal (typically the
    /// baseline-filtered classification lead, or its first seconds) in one
    /// pass of the streaming wavelet cascade, which adds up each scale's
    /// squared details as it produces them. The result equals
    /// [`Self::thresholds_from_details`] over
    /// [`DyadicWavelet::transform`] of the signal, bit for bit, and no
    /// signal-length buffer is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`]
    /// when the signal cannot support the wavelet decomposition.
    pub fn calibrate(&self, signal: &[f64]) -> Result<PeakThresholds> {
        let required = DyadicWavelet::with_scales(self.config.scales).minimum_length();
        if signal.len() < required {
            return Err(DspError::SignalTooShort {
                required,
                provided: signal.len(),
            });
        }
        let energy = crate::streaming::detail_energy(self.config.scales, signal);
        Ok(self.thresholds_from_energy(&energy, signal.len()))
    }

    /// Creates the incremental scan state machine for these thresholds.
    pub fn scanner(&self, thresholds: PeakThresholds) -> PeakScanner {
        PeakScanner::new(
            self.config.scales,
            self.config.min_scales_agreeing,
            thresholds,
            self.refractory_samples(),
            self.pair_window_samples(),
        )
    }

    /// Detects R peaks in `signal`, returning their sample indices in
    /// ascending order.
    ///
    /// Thresholds are calibrated over `signal` itself, then the incremental
    /// [`PeakScanner`] consumes the coefficient frames of
    /// [`DyadicWavelet::transform`] in order — the same state machine the
    /// streaming front-end drives block by block.
    ///
    /// This is the whole-signal **oracle**: no production path runs it. The
    /// parity suites check the streaming detector (and so
    /// `WbsnFirmware::process_record`) against it, and the `peak_detection`
    /// bench times it as the reference.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`]
    /// when the signal cannot support the wavelet decomposition.
    pub fn detect(&self, signal: &[f64]) -> Result<Vec<usize>> {
        let details = DyadicWavelet::with_scales(self.config.scales).transform(signal)?;
        let mut scanner = self.scanner(self.thresholds_from_details(&details));
        let mut frame = vec![0.0; self.config.scales];
        for (i, &s) in signal.iter().enumerate() {
            for (f, d) in frame.iter_mut().zip(&details) {
                *f = d[i];
            }
            scanner.push(&frame, s);
        }
        scanner.finish();
        Ok(std::iter::from_fn(|| scanner.pop_peak()).collect())
    }
}

/// Incremental R-peak scan over multi-scale wavelet coefficient frames.
///
/// The scanner consumes one frame per input sample — the detail coefficients
/// of every scale at that index plus the (filtered) signal sample itself —
/// and emits finalized peak positions. All state lives in bounded ring
/// buffers: the history required is `refractory + 2 × pair_window + O(1)`
/// samples, and a scan index is only processed once `2 × pair_window + 2`
/// samples of lookahead are buffered (or the stream has been [`finished`]),
/// at which point its decision is exactly the one the whole-record scan
/// would take.
///
/// The streaming detector's wavelet cascade writes into the scanner's tapes
/// directly, a block of up to [`BLOCK`] frames at a time with each scale's
/// details and the signal running ahead of the last scale, and the scanner
/// scans once per block. The tapes are sized for that at construction, so
/// they never reallocate.
///
/// A detected peak is held back until it can no longer be displaced by a
/// larger peak inside the refractory period, so the emission latency is
/// bounded by `refractory + 2 × pair_window + 2` frames.
///
/// [`finished`]: PeakScanner::finish
#[derive(Debug, Clone)]
pub struct PeakScanner {
    scales: usize,
    min_scales_agreeing: usize,
    thresholds: PeakThresholds,
    refractory: usize,
    pair_window: usize,
    /// One tape per scale of detail coefficients.
    details: Vec<Tape>,
    /// The signal driving amplitude comparisons inside the refractory rule.
    signal: Tape,
    /// Frames received so far.
    avail: usize,
    /// Total stream length, once `finish` has been called.
    n: Option<usize>,
    /// Next scan index to process.
    i: usize,
    /// Most recent accepted peak, and whether it has been emitted.
    last: Option<usize>,
    last_emitted: bool,
    /// Finalized peaks awaiting `pop_peak`.
    out: VecDeque<usize>,
}

impl PeakScanner {
    fn new(
        scales: usize,
        min_scales_agreeing: usize,
        thresholds: PeakThresholds,
        refractory: usize,
        pair_window: usize,
    ) -> Self {
        assert_eq!(
            thresholds.cross_scale.len(),
            scales - 1,
            "one cross-scale threshold per scale beyond the first"
        );
        // After a scan the tapes keep `pair_window + 2` samples behind the
        // scan index and fewer than `lookahead` ahead of it; a block adds up
        // to `BLOCK` frames before the next scan. The cascade's scale `s`
        // runs `2·(2^scales − 2^(s+1))` samples ahead of the last scale, and
        // its input `2·(2^scales − 1)`.
        let retained = pair_window + 2 + 2 * pair_window + 1;
        let lead = |s: usize| 2 * ((1usize << scales) - (2 << s));
        let lead_input = 2 * ((1usize << scales) - 1);
        PeakScanner {
            scales,
            min_scales_agreeing,
            thresholds,
            refractory,
            pair_window,
            details: (0..scales)
                .map(|s| Tape::with_capacity(retained + BLOCK + lead(s)))
                .collect(),
            // The pending peak trails the scan index by less than
            // `refractory + pair_window`, and its signal is kept.
            signal: Tape::with_capacity(retained + refractory + 1 + BLOCK + lead_input),
            avail: 0,
            n: None,
            i: 1, // index 0 can never be a local extremum
            last: None,
            last_emitted: false,
            out: VecDeque::with_capacity(4),
        }
    }

    /// Number of lookahead frames the scanner buffers before deciding a scan
    /// index (away from the end of the stream).
    pub fn lookahead(&self) -> usize {
        2 * self.pair_window + 2
    }

    /// Feeds the coefficient frame of the next sample: `details[s]` is the
    /// scale-`s` detail coefficient at this index, `signal` the (filtered)
    /// input sample at the same index.
    ///
    /// # Panics
    ///
    /// Panics if `details` does not hold one coefficient per scale, or if
    /// called after [`PeakScanner::finish`].
    pub fn push(&mut self, details: &[f64], signal: f64) {
        assert_eq!(details.len(), self.scales, "one coefficient per scale");
        assert!(self.n.is_none(), "push after finish");
        for (tape, &d) in self.details.iter_mut().zip(details) {
            tape.push(d);
        }
        self.signal.push(signal);
        self.scan_available();
    }

    /// The per-scale detail tapes and the signal tape, for a producer that
    /// fills them ahead of [`Self::scan_available`].
    pub(crate) fn tapes(&mut self) -> (&mut [Tape], &mut Tape) {
        (&mut self.details, &mut self.signal)
    }

    /// Scans every frame the tapes complete: a frame is complete once the
    /// last (slowest) scale holds its coefficient.
    pub(crate) fn scan_available(&mut self) {
        self.avail = self.details.last().expect("at least one scale").end();
        self.pump();
    }

    /// Declares the end of the stream: remaining scan indices are processed
    /// with the end-of-record clamping of the batch scan, and the pending
    /// peak (if any) is finalized.
    pub fn finish(&mut self) {
        if self.n.is_some() {
            return;
        }
        self.n = Some(self.avail);
        self.pump();
        if let (Some(last), false) = (self.last, self.last_emitted) {
            self.out.push_back(last);
            self.last_emitted = true;
        }
    }

    /// Next finalized peak position, in ascending order.
    pub fn pop_peak(&mut self) -> Option<usize> {
        self.out.pop_front()
    }

    fn pump(&mut self) {
        loop {
            match self.n {
                Some(n) => {
                    if self.i >= n {
                        break;
                    }
                }
                None => {
                    if self.avail < self.i + self.lookahead() {
                        break;
                    }
                }
            }
            // Once the scan passes `last + refractory`, every future
            // candidate zero crossing lies at or beyond the scan index, so
            // the pending peak can no longer be displaced: finalize it.
            if let (Some(last), false) = (self.last, self.last_emitted) {
                if self.i >= last + self.refractory {
                    self.out.push_back(last);
                    self.last_emitted = true;
                }
            }
            self.step();
        }
        // Bound the history: the scan looks back `pair_window` for the
        // cross-scale window and one sample for the extremum test; the
        // refractory amplitude comparison needs the signal at the pending
        // peak.
        let detail_keep = self.i.saturating_sub(self.pair_window + 2);
        for tape in &mut self.details {
            tape.trim(detail_keep);
        }
        let pending = match (self.last, self.last_emitted) {
            (Some(last), false) => last,
            _ => self.i,
        };
        self.signal.trim(pending.min(self.i).saturating_sub(2));
    }

    /// Effective stream length for clamping: unknown until `finish`, and the
    /// lookahead guard guarantees unfinished scans never reach a clamp.
    fn clamp_len(&self) -> usize {
        self.n.unwrap_or(usize::MAX)
    }

    fn is_local_extremum(&self, i: usize) -> bool {
        if i == 0 || i + 1 >= self.clamp_len() {
            return false;
        }
        let first = &self.details[0];
        let (a, b, c) = (first.get(i - 1), first.get(i), first.get(i + 1));
        (b >= a && b >= c) || (b <= a && b <= c)
    }

    /// Finds the zero crossing of the first scale between `a` and `b`
    /// (exclusive), returning the index whose value is closest to zero
    /// around the sign change.
    fn zero_crossing(&self, a: usize, b: usize) -> Option<usize> {
        let first = &self.details[0];
        for i in a..b {
            if first.get(i).signum() != first.get(i + 1).signum() {
                return Some(if first.get(i).abs() <= first.get(i + 1).abs() {
                    i
                } else {
                    i + 1
                });
            }
        }
        None
    }

    /// Processes exactly one scan index — the body of the batch `while`
    /// loop, with `i` advanced in place.
    fn step(&mut self) {
        let i = self.i;
        let n = self.clamp_len();
        let first = &self.details[0];
        let threshold = self.thresholds.first_scale;

        if first.get(i).abs() < threshold || !self.is_local_extremum(i) {
            self.i += 1;
            return;
        }
        // Look for an opposite-sign extremum within the pair window.
        let sign = self.details[0].get(i).signum();
        let end = (i + self.pair_window).min(n);
        let mut partner: Option<usize> = None;
        for j in (i + 1)..end {
            if self.details[0].get(j).signum() == -sign
                && self.details[0].get(j).abs() >= 0.5 * threshold
                && self.is_local_extremum(j)
            {
                partner = Some(j);
                break;
            }
        }
        let Some(j) = partner else {
            self.i += 1;
            return;
        };

        // Cross-scale confirmation: enough coarser scales must show a
        // significant response in the same neighbourhood.
        let mut agreeing = 1usize; // scale 1 agrees by construction
        for (d, &scale_threshold) in self
            .details
            .iter()
            .skip(1)
            .zip(&self.thresholds.cross_scale)
        {
            let lo = i.saturating_sub(self.pair_window);
            let hi = (j + self.pair_window).min(n).min(self.avail);
            let mut local_max = 0.0f64;
            for k in lo..hi {
                local_max = local_max.max(d.get(k).abs());
            }
            if local_max > scale_threshold {
                agreeing += 1;
            }
        }
        if agreeing < self.min_scales_agreeing {
            self.i += 1;
            return;
        }

        // R peak = zero crossing of the first scale between the pair.
        let zero = self.zero_crossing(i, j).unwrap_or((i + j) / 2);

        if let Some(last) = self.last {
            if zero < last + self.refractory {
                // Too close to the previous peak: keep the larger one. The
                // pending peak cannot have been emitted yet (emission
                // requires the scan index to have passed the refractory
                // window, and `zero ≥ i`).
                debug_assert!(!self.last_emitted, "displacing an emitted peak");
                let last_amp = self.signal.get(last).abs();
                let this_amp = self.signal.get(zero).abs();
                if this_amp > last_amp {
                    self.last = Some(zero);
                }
                self.i = j + 1;
                return;
            }
        }
        if let (Some(last), false) = (self.last, self.last_emitted) {
            self.out.push_back(last);
        }
        self.last = Some(zero);
        self.last_emitted = false;
        self.i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DspError;
    use hbc_ecg::noise::NoiseModel;
    use hbc_ecg::record::Lead;
    use hbc_ecg::synthetic::SyntheticEcg;
    use hbc_ecg::BeatClass;

    #[test]
    fn detects_peaks_in_a_clean_synthetic_record() {
        let mut gen = SyntheticEcg::with_seed(42).with_noise(NoiseModel::clean());
        let rhythm = vec![BeatClass::Normal; 20];
        let record = gen.record(1, &rhythm, 1).expect("record");
        let signal = record.lead(Lead(0)).expect("lead 0");
        let detector = PeakDetector::new(record.fs);
        let peaks = detector.detect(signal).expect("detection");
        assert_eq!(
            peaks.len(),
            record.annotations.len(),
            "every beat should be detected exactly once"
        );
        // Each detection within 50 ms of an annotation.
        let tolerance = (0.05 * record.fs) as isize;
        for ann in &record.annotations {
            let ok = peaks
                .iter()
                .any(|&p| (p as isize - ann.sample as isize).abs() <= tolerance);
            assert!(ok, "annotation at {} not matched by any peak", ann.sample);
        }
    }

    #[test]
    fn detects_peaks_with_ambulatory_noise_and_mixed_morphologies() {
        let mut gen = SyntheticEcg::with_seed(7).with_noise(NoiseModel::ambulatory());
        let rhythm = gen.rhythm(30, 0.15, 0.15);
        let record = gen.record(2, &rhythm, 1).expect("record");
        let signal = record.lead(Lead(0)).expect("lead 0");
        // Remove baseline wander first, as the WBSN pipeline does.
        let filtered = crate::filter::MorphologicalFilter::for_sampling_rate(record.fs)
            .apply(signal)
            .expect("filter");
        let peaks = PeakDetector::new(record.fs)
            .detect(&filtered)
            .expect("detect");
        let tolerance = (0.06 * record.fs) as isize;
        let matched = record
            .annotations
            .iter()
            .filter(|ann| {
                peaks
                    .iter()
                    .any(|&p| (p as isize - ann.sample as isize).abs() <= tolerance)
            })
            .count();
        let sensitivity = matched as f64 / record.annotations.len() as f64;
        assert!(
            sensitivity >= 0.9,
            "sensitivity {sensitivity} too low ({matched}/{} beats)",
            record.annotations.len()
        );
        // No more than a handful of false positives.
        assert!(
            peaks.len() <= record.annotations.len() + 3,
            "too many detections: {} for {} beats",
            peaks.len(),
            record.annotations.len()
        );
    }

    #[test]
    fn refractory_period_suppresses_double_detection() {
        let mut gen = SyntheticEcg::with_seed(3).with_noise(NoiseModel::clean());
        let record = gen.record(3, &[BeatClass::Normal; 10], 1).expect("record");
        let signal = record.lead(Lead(0)).expect("lead");
        let peaks = PeakDetector::new(record.fs).detect(signal).expect("detect");
        let refractory = (0.2 * record.fs) as usize;
        for w in peaks.windows(2) {
            assert!(
                w[1] - w[0] >= refractory,
                "peaks {} and {} too close",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn flat_signal_has_no_peaks() {
        let detector = PeakDetector::new(360.0);
        let peaks = detector.detect(&vec![0.0; 1000]).expect("ok");
        assert!(peaks.is_empty());
    }

    #[test]
    fn short_signal_is_an_error() {
        let detector = PeakDetector::new(360.0);
        assert!(matches!(
            detector.detect(&[0.0; 5]),
            Err(DspError::SignalTooShort { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "min_scales_agreeing")]
    fn invalid_config_panics() {
        let cfg = PeakDetectorConfig {
            min_scales_agreeing: 9,
            ..Default::default()
        };
        PeakDetector::with_config(360.0, cfg);
    }

    #[test]
    fn calibrated_thresholds_reproduce_detect() {
        // Splitting detection into calibrate + scan must not change the
        // result when the calibration signal is the record itself.
        let mut gen = SyntheticEcg::with_seed(11).with_noise(NoiseModel::ambulatory());
        let rhythm = gen.rhythm(25, 0.2, 0.1);
        let record = gen.record(4, &rhythm, 1).expect("record");
        let signal = record.lead(Lead(0)).expect("lead");
        let detector = PeakDetector::new(record.fs);
        let reference = detector.detect(signal).expect("detect");

        let wavelet = DyadicWavelet::with_scales(detector.config().scales);
        let details = wavelet.transform(signal).expect("transform");
        let thresholds = detector.calibrate(signal).expect("calibrate");
        assert_eq!(thresholds, detector.thresholds_from_details(&details));
        let mut scanner = detector.scanner(thresholds);
        for (i, &s) in signal.iter().enumerate() {
            let frame: Vec<f64> = details.iter().map(|d| d[i]).collect();
            scanner.push(&frame, s);
        }
        scanner.finish();
        let split: Vec<usize> = std::iter::from_fn(|| scanner.pop_peak()).collect();
        assert_eq!(split, reference);
    }

    #[test]
    fn streaming_calibration_equals_the_transform_thresholds_bit_for_bit() {
        // Lengths around the minimum, the block width and the cascade's
        // lookahead, where the border reflection and the block drains meet.
        let detector = PeakDetector::new(360.0);
        let minimum = DyadicWavelet::new().minimum_length();
        for n in [minimum, minimum + 1, 30, 31, 63, 64, 65, 128, 129, 1_000] {
            let signal: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() + if i % 97 < 3 { 1.5 } else { 0.0 })
                .collect();
            let details = DyadicWavelet::new()
                .transform(&signal)
                .expect("long enough");
            assert_eq!(
                detector.calibrate(&signal).expect("long enough"),
                detector.thresholds_from_details(&details),
                "{n} samples"
            );
        }
        assert!(matches!(
            detector.calibrate(&vec![0.0; minimum - 1]),
            Err(DspError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn scanner_is_insensitive_to_frame_batching() {
        // The scanner consumes frames one at a time; feeding the same frames
        // must give the same peaks as the batch driver regardless of how the
        // caller groups its pushes around other work.
        let mut gen = SyntheticEcg::with_seed(21).with_noise(NoiseModel::clean());
        let record = gen.record(5, &[BeatClass::Normal; 12], 1).expect("record");
        let signal = record.lead(Lead(0)).expect("lead");
        let detector = PeakDetector::new(record.fs);
        let reference = detector.detect(signal).expect("detect");

        let wavelet = DyadicWavelet::with_scales(detector.config().scales);
        let details = wavelet.transform(signal).expect("transform");
        let thresholds = detector.thresholds_from_details(&details);
        let mut scanner = detector.scanner(thresholds);
        let mut frame = vec![0.0; detector.config().scales];
        let mut peaks = Vec::new();
        for (i, &s) in signal.iter().enumerate() {
            for (f, d) in frame.iter_mut().zip(&details) {
                *f = d[i];
            }
            scanner.push(&frame, s);
            // Drain opportunistically mid-stream, as a firmware would.
            while let Some(p) = scanner.pop_peak() {
                peaks.push(p);
            }
        }
        scanner.finish();
        while let Some(p) = scanner.pop_peak() {
            peaks.push(p);
        }
        assert_eq!(peaks, reference);
    }

    #[test]
    fn zero_crossing_helper_finds_sign_change() {
        let mut scanner = PeakDetector::new(360.0).scanner(PeakThresholds {
            first_scale: f64::INFINITY,
            cross_scale: vec![f64::INFINITY; 3],
        });
        for &v in &[2.0, 1.0, 0.25, -0.5, -2.0] {
            scanner.push(&[v, 0.0, 0.0, 0.0], 0.0);
        }
        assert_eq!(scanner.zero_crossing(0, 4), Some(2));
        let mut rising = PeakDetector::new(360.0).scanner(PeakThresholds {
            first_scale: f64::INFINITY,
            cross_scale: vec![f64::INFINITY; 3],
        });
        for &v in &[1.0, 2.0, 3.0] {
            rising.push(&[v, 0.0, 0.0, 0.0], 0.0);
        }
        assert_eq!(rising.zero_crossing(0, 2), None);
    }
}

//! Streaming (sample-by-sample) versions of the conditioning kernels.
//!
//! The batch functions of [`crate::filter`] and [`crate::wavelet`] are
//! convenient for training and for record-level experiments, but the firmware
//! on the WBSN processes one ADC sample at a time with bounded memory. This
//! module provides the online equivalents:
//!
//! * [`SlidingExtremum`] — O(1) amortised sliding-window minimum/maximum
//!   (monotone-wedge algorithm), the primitive behind streaming erosion and
//!   dilation;
//! * [`StreamingErosion`] / [`StreamingDilation`] — centred structuring
//!   elements with a fixed group delay of `size/2` samples;
//! * [`StreamingBaselineFilter`] — the opening/closing baseline estimator of
//!   [`crate::filter::MorphologicalFilter`] as a push-based pipeline, fed
//!   millivolts or — through a [`SampleScale`] — raw ADC codes, which stay
//!   codes up to the filter's output;
//! * [`StreamingWavelet`] — the à-trous dyadic wavelet transform of
//!   [`crate::wavelet::DyadicWavelet`] as a cascade of ring-buffered stages;
//! * [`StreamingPeakDetector`] — the wavelet cascade feeding the incremental
//!   [`PeakScanner`], for online R-peak detection with pre-calibrated
//!   thresholds;
//! * [`StreamingDecimator`] — phase-anchored keep-one-in-N decimation;
//! * [`StreamingBeatWindower`] — fixed-length beat windows cut around
//!   detected peaks from a bounded ring buffer.
//!
//! Every operator exposes its **group delay** explicitly, and every operator
//! with a right-border obligation exposes a `finish` drain that reproduces
//! the batch implementation's border handling (clamped windows for the
//! morphological operators, symmetric reflection for the wavelet). As a
//! result the streaming chain is *bit-identical* to the batch chain over the
//! whole record — not merely in the interior — which is what lets the
//! firmware parity suite compare per-beat classifications exactly.
//!
//! Because every operator advances one sample per `push`, outputs are
//! invariant to how callers chunk their input: pushing a signal in one call,
//! sample by sample, or in ragged chunks yields identical output sequences
//! (property-tested in `tests/streaming_parity.rs`).

use std::collections::VecDeque;

use hbc_ecg::beat::BeatWindow;

use crate::peak::{PeakDetector, PeakScanner, PeakThresholds};
use crate::tape::Tape;

pub use crate::filter::ExtremumKind;

/// Sliding-window extremum over the last `window` pushed samples, computed in
/// O(1) amortised time with a monotone wedge.
///
/// Generic over the sample type: the wedge only compares samples, so it
/// runs unchanged on millivolts (`f64`) or on raw ADC codes (`i16`). The
/// wedge is a ring sized at construction — it never holds more than
/// `window` entries, so it never reallocates — and stores each entry's
/// index relative to the stream as a wrapping `u16` (4 B per entry for
/// codes, 16 B for `f64`).
#[derive(Debug, Clone)]
pub struct SlidingExtremum<T = f64> {
    kind: ExtremumKind,
    window: usize,
    /// (index mod 2¹⁶, value) pairs forming a monotone sequence.
    wedge: VecDeque<(u16, T)>,
    pushed: u64,
}

impl<T: Copy + PartialOrd> SlidingExtremum<T> {
    /// Creates a tracker over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `window >= 65 536` (entry indices are
    /// kept modulo 2¹⁶, which is unambiguous only for shorter windows).
    pub fn new(kind: ExtremumKind, window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        assert!(
            window <= usize::from(u16::MAX),
            "window must be below 65 536"
        );
        SlidingExtremum {
            kind,
            window,
            wedge: VecDeque::with_capacity(window),
            pushed: 0,
        }
    }

    /// The wrapping `u16` index of the next advance.
    fn now(&self) -> u16 {
        self.pushed as u16
    }

    fn expire(&mut self) {
        // Every retained entry is at most `window` advances old, so the
        // wrapping difference is its true age.
        while let Some(&(idx, _)) = self.wedge.front() {
            if usize::from(self.now().wrapping_sub(idx)) >= self.window {
                self.wedge.pop_front();
            } else {
                break;
            }
        }
    }

    /// Pushes a sample and returns the extremum of the last `window` samples
    /// (fewer at the start of the stream).
    pub fn push(&mut self, value: T) -> T {
        // Drop samples that left the window.
        self.expire();
        // Maintain monotonicity: remove dominated tail entries. Ties keep
        // the earlier sample, like the batch deque kernel of
        // `crate::filter`, which mirrors this wedge.
        while let Some(&(_, v)) = self.wedge.back() {
            if self.kind.dominates(v, value) {
                break;
            }
            self.wedge.pop_back();
        }
        debug_assert!(self.wedge.len() < self.window, "wedge ring overflow");
        self.wedge.push_back((self.now(), value));
        self.pushed += 1;
        self.wedge.front().map(|&(_, v)| v).expect("just pushed")
    }

    /// Advances the window **without** pushing a new sample and returns the
    /// extremum of the samples still covered, or `None` once none remain.
    ///
    /// This drains the right border at end of stream: the window degrades
    /// from centred to right-clamped exactly like the batch operators of
    /// [`crate::filter`], whose windows are truncated at the signal end.
    pub fn skip(&mut self) -> Option<T> {
        self.expire();
        self.pushed += 1;
        self.wedge.front().map(|&(_, v)| v)
    }

    /// Number of window advances so far — one per [`Self::push`] **plus**
    /// one per [`Self::skip`], so after a right-border drain this exceeds
    /// the number of samples pushed.
    pub fn len(&self) -> u64 {
        self.pushed
    }

    /// Whether the window has never advanced.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }
}

/// One streaming morphological operator: a sliding extremum plus the
/// bookkeeping aligning outputs to the centre of the structuring element.
#[derive(Debug, Clone)]
struct Morph<T> {
    extremum: SlidingExtremum<T>,
    delay: usize,
    seen: usize,
    emitted: usize,
}

impl<T: Copy + PartialOrd> Morph<T> {
    fn new(kind: ExtremumKind, size: usize) -> Self {
        // Both the batch and the streaming operator derive their geometry
        // from the single even-`size` normalisation point, so an even
        // structuring element yields the same `size + 1`-sample window on
        // both paths.
        let window = crate::filter::effective_window(size);
        Morph {
            extremum: SlidingExtremum::new(kind, window),
            delay: window / 2,
            seen: 0,
            emitted: 0,
        }
    }

    fn push(&mut self, value: T) -> Option<T> {
        let out = self.extremum.push(value);
        self.seen += 1;
        if self.seen > self.delay {
            self.emitted += 1;
            Some(out)
        } else {
            None
        }
    }

    /// Drains one pending right-border output (the operator owes exactly
    /// `delay` outputs at end of stream, fewer if the stream was shorter
    /// than the delay). The shrinking window reproduces the batch
    /// operator's end-of-signal clamping sample for sample.
    fn finish_one(&mut self) -> Option<T> {
        if self.emitted >= self.seen {
            return None;
        }
        self.emitted += 1;
        Some(self.extremum.skip().expect("window still covers the tail"))
    }
}

macro_rules! impl_streaming_morph {
    ($name:ident, $kind:expr, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name<T = f64> {
            inner: Morph<T>,
        }

        impl<T: Copy + PartialOrd> $name<T> {
            /// Creates the operator for a structuring element of `size`
            /// samples.
            ///
            /// # Panics
            ///
            /// Panics if `size == 0`.
            pub fn new(size: usize) -> Self {
                assert!(size > 0, "structuring element must be non-empty");
                Self {
                    inner: Morph::new($kind, size),
                }
            }

            /// Group delay (samples) between an input and the output that
            /// corresponds to it.
            pub fn delay(&self) -> usize {
                self.inner.delay
            }

            /// Pushes one sample; returns the output aligned to the sample
            /// pushed `delay()` calls ago, or `None` while the pipeline is
            /// still filling.
            pub fn push(&mut self, value: T) -> Option<T> {
                self.inner.push(value)
            }

            /// Drains one of the `delay()` outputs still owed at end of
            /// stream (right-clamped windows, matching the batch border
            /// handling); `None` once fully drained.
            pub fn finish_one(&mut self) -> Option<T> {
                self.inner.finish_one()
            }
        }
    };
}

impl_streaming_morph!(
    StreamingErosion,
    ExtremumKind::Min,
    "Streaming erosion with a centred flat structuring element of `size`\n\
     samples: the output for input sample `n` is produced `size/2` samples\n\
     later (the group delay), matching [`crate::filter::erode`] exactly once\n\
     the right border is drained with [`StreamingErosion::finish_one`]."
);
impl_streaming_morph!(
    StreamingDilation,
    ExtremumKind::Max,
    "Streaming dilation with a centred flat structuring element (see\n\
     [`StreamingErosion`])."
);

/// How the streaming baseline filter reads its input samples as
/// millivolts.
///
/// The filter's morphology only *selects* samples (sliding minima and
/// maxima), so it runs on the input type itself. Millivolts appear only at
/// the two places the filter does arithmetic — the average `0.5·(o + c)`
/// of opening and closing, and the subtraction `delayed − baseline` — where
/// each operand is converted first. For the output to equal the filter run
/// on the converted signal bit for bit, [`Self::to_mv`] must be exact and
/// strictly increasing, so that it commutes with min and max, ties
/// included.
pub trait SampleScale: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// The input sample type.
    type Sample: Copy + PartialOrd + std::fmt::Debug + Send + Sync + 'static;

    /// Converts one input sample to millivolts.
    fn to_mv(&self, sample: Self::Sample) -> f64;
}

/// Input already in millivolts: the identity [`SampleScale`] over `f64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Millivolts;

impl SampleScale for Millivolts {
    type Sample = f64;

    #[inline]
    fn to_mv(&self, sample: f64) -> f64 {
        sample
    }
}

/// Streaming baseline-wander filter: opening followed by closing with the
/// short (QRS) structuring element, then the average of opening and closing
/// with the long (beat) element, subtracted from the delayed input — the
/// same computation as [`crate::filter::MorphologicalFilter`], expressed as a
/// push pipeline with a fixed total latency of [`Self::delay`] samples.
///
/// After [`Self::finish_into`] has drained the right border, the complete
/// output sequence is bit-identical to the batch filter over the whole
/// signal (the warm-up of each sliding window reproduces the batch
/// operators' left clamping, the drain their right clamping).
///
/// The input type is set by the [`SampleScale`] `S`: millivolts by default,
/// or ADC codes with a scale that dequantizes them exactly, in which case
/// both morphology stages, their wedges and the delay line hold codes and
/// the output equals that of the millivolt filter fed the dequantized
/// signal.
#[derive(Debug, Clone)]
pub struct StreamingBaselineFilter<S: SampleScale = Millivolts> {
    scale: S,
    /// Stage 1: opening (erode, dilate) then closing (dilate, erode) with
    /// the QRS element, chained.
    stage1: [Morph<S::Sample>; 4],
    /// Stage 2, in parallel on the stage-1 output: opening (erode, dilate)
    /// and closing (dilate, erode) with the beat element.
    open2: [Morph<S::Sample>; 2],
    close2: [Morph<S::Sample>; 2],
    /// Delay line aligning the raw input with the baseline estimate: a
    /// ring of `total_delay + 1` samples.
    input_delay: VecDeque<S::Sample>,
    total_delay: usize,
    finished: bool,
}

impl StreamingBaselineFilter {
    /// Builds the streaming filter for a sampling rate, using the same
    /// structuring-element durations as the batch filter.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive.
    pub fn for_sampling_rate(fs: f64) -> Self {
        Self::with_scale(fs, Millivolts)
    }
}

impl<S: SampleScale> StreamingBaselineFilter<S> {
    /// [`StreamingBaselineFilter::for_sampling_rate`] over input samples
    /// read through `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive.
    pub fn with_scale(fs: f64, scale: S) -> Self {
        let batch = crate::filter::MorphologicalFilter::for_sampling_rate(fs);
        let qrs_half = batch.qrs_element / 2;
        let beat_half = batch.beat_element / 2;
        let total_delay = 4 * qrs_half + 2 * beat_half;
        StreamingBaselineFilter {
            scale,
            stage1: [
                Morph::new(ExtremumKind::Min, batch.qrs_element),
                Morph::new(ExtremumKind::Max, batch.qrs_element),
                Morph::new(ExtremumKind::Max, batch.qrs_element),
                Morph::new(ExtremumKind::Min, batch.qrs_element),
            ],
            open2: [
                Morph::new(ExtremumKind::Min, batch.beat_element),
                Morph::new(ExtremumKind::Max, batch.beat_element),
            ],
            close2: [
                Morph::new(ExtremumKind::Max, batch.beat_element),
                Morph::new(ExtremumKind::Min, batch.beat_element),
            ],
            input_delay: VecDeque::with_capacity(total_delay + 1),
            total_delay,
            finished: false,
        }
    }

    /// Total group delay of the pipeline, in samples.
    pub fn delay(&self) -> usize {
        self.total_delay
    }

    fn push_stage1_from(&mut self, value: S::Sample, from: usize) -> Option<S::Sample> {
        let mut v = value;
        for m in &mut self.stage1[from..] {
            v = m.push(v)?;
        }
        Some(v)
    }

    /// The baseline estimate: the average of the stage-2 opening and
    /// closing, in millivolts.
    fn average(&self, open: S::Sample, close: S::Sample) -> f64 {
        0.5 * (self.scale.to_mv(open) + self.scale.to_mv(close))
    }

    fn push_stage2(&mut self, s1: S::Sample) -> Option<f64> {
        let open = self.open2[0].push(s1).and_then(|v| self.open2[1].push(v));
        let close = self.close2[0].push(s1).and_then(|v| self.close2[1].push(v));
        match (open, close) {
            (Some(o), Some(c)) => Some(self.average(o, c)),
            // Both branches share one delay, so they warm up in lockstep.
            (None, None) => None,
            _ => unreachable!("stage-2 branches have identical delays"),
        }
    }

    fn emit(&mut self, baseline: f64) -> Option<f64> {
        // Align the raw input with the baseline estimate.
        if self.input_delay.len() > self.total_delay {
            self.emit_tail(baseline)
        } else {
            None
        }
    }

    /// `emit` for the drain phase: no further inputs arrive, so every
    /// remaining baseline value pairs with the oldest delayed input.
    fn emit_tail(&mut self, baseline: f64) -> Option<f64> {
        let delayed = self.input_delay.pop_front()?;
        Some(self.scale.to_mv(delayed) - baseline)
    }

    /// Pushes one raw sample; returns the baseline-corrected sample aligned
    /// to the input pushed `delay()` calls ago, once the pipeline has filled.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish_into`].
    pub fn push(&mut self, value: S::Sample) -> Option<f64> {
        assert!(!self.finished, "push after finish");
        debug_assert!(
            self.input_delay.len() <= self.total_delay,
            "delay ring overflow"
        );
        self.input_delay.push_back(value);
        let s1 = self.push_stage1_from(value, 0)?;
        let baseline = self.push_stage2(s1)?;
        self.emit(baseline)
    }

    /// Drains the `delay()` outputs still owed at end of stream into `out`,
    /// reproducing the batch filter's right-border clamping, and seals the
    /// filter. For streams shorter than the group delay this produces one
    /// output per input pushed (the batch filter would reject such signals
    /// outright). Idempotent: a second call appends nothing.
    pub fn finish_into(&mut self, out: &mut Vec<f64>) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Drain stage 1 front to back: outputs of each operator continue
        // through the remainder of the chain and into stage 2.
        for idx in 0..self.stage1.len() {
            while let Some(v) = self.stage1[idx].finish_one() {
                if let Some(s1) = self.push_stage1_from(v, idx + 1) {
                    if let Some(baseline) = self.push_stage2(s1) {
                        if let Some(y) = self.emit_tail(baseline) {
                            out.push(y);
                        }
                    }
                }
            }
        }
        // Stage 1 fully drained: both stage-2 branches now hold the complete
        // intermediate signal. Drain them in lockstep.
        let mut open_tail = VecDeque::new();
        while let Some(v) = self.open2[0].finish_one() {
            if let Some(v) = self.open2[1].push(v) {
                open_tail.push_back(v);
            }
        }
        while let Some(v) = self.open2[1].finish_one() {
            open_tail.push_back(v);
        }
        let mut close_tail = VecDeque::new();
        while let Some(v) = self.close2[0].finish_one() {
            if let Some(v) = self.close2[1].push(v) {
                close_tail.push_back(v);
            }
        }
        while let Some(v) = self.close2[1].finish_one() {
            close_tail.push_back(v);
        }
        debug_assert_eq!(open_tail.len(), close_tail.len());
        while let (Some(o), Some(c)) = (open_tail.pop_front(), close_tail.pop_front()) {
            let baseline = self.average(o, c);
            if let Some(y) = self.emit_tail(baseline) {
                out.push(y);
            }
        }
        debug_assert!(
            self.input_delay.is_empty(),
            "drain left {} unmatched inputs",
            self.input_delay.len()
        );
    }
}

/// One à-trous stage: spacing `2^s`, producing the scale-`s+1` detail and
/// the next approximation from a bounded tape of its input.
#[derive(Debug, Clone)]
struct WaveletStage {
    spacing: usize,
    tape: Tape,
    next_out: usize,
    /// Input-stream length, once known (enables right-border reflection).
    n: Option<usize>,
}

impl WaveletStage {
    fn new(spacing: usize) -> Self {
        WaveletStage {
            spacing,
            tape: Tape::default(),
            next_out: 0,
            n: None,
        }
    }

    fn avail(&self) -> usize {
        self.tape.end()
    }

    /// Tape lookup with the symmetric border extension of
    /// [`crate::wavelet`]: indices are reflected at 0 and (once `n` is
    /// known) at the stream end. Before `finish`, the emission condition
    /// guarantees no right-border access, and a left index `-k` reflects to
    /// `k < avail` in one step.
    fn get(&self, index: isize) -> f64 {
        let mut i = index;
        match self.n {
            Some(1) => i = 0,
            Some(n) => {
                let n = n as isize;
                loop {
                    if i < 0 {
                        i = -i;
                    } else if i >= n {
                        i = 2 * (n - 1) - i;
                    } else {
                        break;
                    }
                }
            }
            None => {
                if i < 0 {
                    i = -i;
                }
            }
        }
        self.tape.get(i as usize)
    }

    /// Detail and approximation at output index `o` — the same expressions,
    /// in the same order, as the batch `high_pass` / `low_pass` filters.
    fn compute(&mut self, o: usize) -> (f64, f64) {
        let s = self.spacing as isize;
        let o = o as isize;
        let detail = 2.0 * (self.get(o + s) - self.get(o));
        let x0 = self.get(o - s);
        let x1 = self.get(o);
        let x2 = self.get(o + s);
        let x3 = self.get(o + 2 * s);
        let approx = (x0 + 3.0 * x1 + 3.0 * x2 + x3) / 8.0;
        self.next_out += 1;
        // Future outputs look back `spacing`; right-border reflection can
        // reach back a further `spacing + 1`.
        self.tape
            .trim(self.next_out.saturating_sub(2 * self.spacing + 1));
        (detail, approx)
    }

    fn push(&mut self, v: f64) -> Option<(f64, f64)> {
        self.tape.push(v);
        // Emitting output `o` requires input `o + 2*spacing`; one push can
        // unlock at most one output.
        if self.avail() > self.next_out + 2 * self.spacing {
            Some(self.compute(self.next_out))
        } else {
            None
        }
    }

    fn finish_one(&mut self) -> Option<(f64, f64)> {
        let n = self.n.expect("finish_one before set_n");
        if self.next_out >= n {
            return None;
        }
        Some(self.compute(self.next_out))
    }
}

/// A multi-scale coefficient frame produced by [`StreamingWavelet`]: the
/// detail coefficient of every scale at one sample index, plus the input
/// sample at that index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveletFrame<'a> {
    /// Sample index of this frame in the input stream.
    pub index: usize,
    /// The input sample at `index`.
    pub input: f64,
    /// Detail coefficients, one per scale (scale 1 first).
    pub details: &'a [f64],
}

/// Push-based à-trous dyadic wavelet transform: the cascade of
/// [`crate::wavelet::DyadicWavelet`] expressed as ring-buffered stages.
///
/// Frames become available [`Self::lookahead`] samples after the
/// corresponding input (each stage of spacing `2^s` needs `2·2^s` samples of
/// lookahead). The left border uses the same symmetric reflection as the
/// batch transform; calling [`Self::finish`] reflects the right border, so
/// the complete frame sequence is bit-identical to
/// [`DyadicWavelet::transform`](crate::wavelet::DyadicWavelet::transform)
/// over the whole signal.
#[derive(Debug, Clone)]
pub struct StreamingWavelet {
    stages: Vec<WaveletStage>,
    /// Per-scale details not yet assembled into frames.
    details: Vec<VecDeque<f64>>,
    /// Input samples not yet assembled into frames.
    raw: VecDeque<f64>,
    /// Reusable assembled-frame buffer.
    frame: Vec<f64>,
    frame_index: usize,
    pushed: usize,
    finished: bool,
}

impl StreamingWavelet {
    /// Streaming transform with `scales` dyadic scales.
    ///
    /// # Panics
    ///
    /// Panics if `scales == 0`.
    pub fn new(scales: usize) -> Self {
        assert!(scales > 0, "at least one scale is required");
        StreamingWavelet {
            stages: (0..scales).map(|s| WaveletStage::new(1 << s)).collect(),
            details: vec![VecDeque::new(); scales],
            raw: VecDeque::new(),
            frame: vec![0.0; scales],
            frame_index: 0,
            pushed: 0,
            finished: false,
        }
    }

    /// Number of scales computed per frame.
    pub fn scales(&self) -> usize {
        self.stages.len()
    }

    /// Group delay: a frame for input index `k` is available once input
    /// `k + lookahead()` has been pushed (`Σ 2·2^s = 2·(2^scales − 1)`).
    pub fn lookahead(&self) -> usize {
        2 * ((1 << self.scales()) - 1)
    }

    fn feed(&mut self, from: usize, value: f64) {
        let mut v = value;
        for s in from..self.stages.len() {
            match self.stages[s].push(v) {
                Some((d, a)) => {
                    self.details[s].push_back(d);
                    v = a;
                }
                None => break,
            }
        }
    }

    /// Pushes one input sample through the cascade.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish`].
    pub fn push(&mut self, value: f64) {
        assert!(!self.finished, "push after finish");
        self.raw.push_back(value);
        self.pushed += 1;
        self.feed(0, value);
    }

    /// Declares the end of the stream and drains the remaining frames using
    /// the batch transform's right-border reflection. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let n = self.pushed;
        for s in 0..self.stages.len() {
            self.stages[s].n = Some(n);
            while let Some((d, a)) = self.stages[s].finish_one() {
                self.details[s].push_back(d);
                self.feed(s + 1, a);
            }
        }
    }

    /// Assembles and returns the next complete frame, if every scale has
    /// produced its coefficient for that index.
    pub fn pop_frame(&mut self) -> Option<WaveletFrame<'_>> {
        if self.details.iter().any(VecDeque::is_empty) {
            return None;
        }
        for (f, d) in self.frame.iter_mut().zip(&mut self.details) {
            *f = d.pop_front().expect("checked non-empty");
        }
        let input = self.raw.pop_front().expect("one raw sample per frame");
        let index = self.frame_index;
        self.frame_index += 1;
        Some(WaveletFrame {
            index,
            input,
            details: &self.frame,
        })
    }
}

/// Online R-peak detection: [`StreamingWavelet`] frames feeding the
/// incremental [`PeakScanner`] — the *same* state machine the batch
/// [`PeakDetector::detect`] drives, so both paths take identical decisions
/// by construction.
///
/// The detector runs on pre-calibrated [`PeakThresholds`] (see
/// [`PeakDetector::calibrate`]): a deployed node calibrates during an
/// initial observation window, then scans with the thresholds held fixed.
/// Peaks are emitted in ascending position order with a latency bounded by
/// [`Self::delay`] samples.
#[derive(Debug, Clone)]
pub struct StreamingPeakDetector {
    wavelet: StreamingWavelet,
    scanner: PeakScanner,
    refractory: usize,
}

impl StreamingPeakDetector {
    /// Builds the online detector for the configuration of `detector` with
    /// fixed, pre-calibrated thresholds.
    pub fn new(detector: &PeakDetector, thresholds: PeakThresholds) -> Self {
        StreamingPeakDetector {
            wavelet: StreamingWavelet::new(detector.config().scales),
            scanner: detector.scanner(thresholds),
            refractory: detector.refractory_samples(),
        }
    }

    /// Upper bound on the emission latency, in samples: wavelet lookahead +
    /// scan lookahead + the refractory hold-back before a peak is final.
    pub fn delay(&self) -> usize {
        self.wavelet.lookahead() + self.scanner.lookahead() + self.refractory
    }

    fn drain_frames(&mut self) {
        while let Some(frame) = self.wavelet.pop_frame() {
            self.scanner.push(frame.details, frame.input);
        }
    }

    /// Pushes one baseline-corrected sample.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish`].
    pub fn push(&mut self, filtered: f64) {
        self.wavelet.push(filtered);
        self.drain_frames();
    }

    /// Declares the end of the stream: remaining wavelet frames are drained
    /// with right-border reflection and the scan is run to completion.
    pub fn finish(&mut self) {
        self.wavelet.finish();
        self.drain_frames();
        self.scanner.finish();
    }

    /// Next finalized peak position (ascending), if any.
    pub fn pop_peak(&mut self) -> Option<usize> {
        self.scanner.pop_peak()
    }
}

/// Phase-anchored keep-one-in-N decimation: emits the samples at positions
/// `0, factor, 2·factor, …` relative to the most recent [`Self::reset`].
///
/// Re-anchoring at every beat window start is what makes the firmware's
/// decimation *phase-correct*: the decimation grid is locked to the R peak
/// (matching the batch `step_by` over the extracted window) instead of
/// free-running over the record, so the classifier sees the same 50-sample
/// vector regardless of where in the stream the beat occurred.
#[derive(Debug, Clone)]
pub struct StreamingDecimator {
    factor: usize,
    phase: usize,
}

impl StreamingDecimator {
    /// Creates a decimator keeping one sample in `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn new(factor: usize) -> Self {
        assert!(factor > 0, "decimation factor must be non-zero");
        StreamingDecimator { factor, phase: 0 }
    }

    /// The decimation factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Re-anchors the decimation grid: the next pushed sample is kept.
    pub fn reset(&mut self) {
        self.phase = 0;
    }

    /// Pushes one sample; returns it when it falls on the decimation grid.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        let keep = self.phase == 0;
        self.phase += 1;
        if self.phase == self.factor {
            self.phase = 0;
        }
        keep.then_some(value)
    }
}

/// Streaming beat windower: buffers the most recent stretch of the
/// (filtered) signal in a bounded ring buffer and cuts fixed-length windows
/// around peak positions as they are finalized by the detector.
///
/// Peaks must be pushed in ascending order. Peaks whose window would start
/// before the stream (closer than `window.pre` to sample 0) are skipped,
/// mirroring the batch [`crate::window::windows_at_peaks`]; peaks whose
/// window has slid out of the ring buffer (detector latency exceeding the
/// configured history) are dropped and counted — with a history of at least
/// `window.pre + detector delay` this never happens.
#[derive(Debug, Clone)]
pub struct StreamingBeatWindower {
    window: BeatWindow,
    history: usize,
    tape: Tape,
    pending: VecDeque<usize>,
    skipped_border: usize,
    dropped_history: usize,
}

impl StreamingBeatWindower {
    /// Creates a windower keeping at least `history` samples of context.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `history < window.len()`.
    pub fn new(window: BeatWindow, history: usize) -> Self {
        assert!(!window.is_empty(), "beat window must be non-empty");
        assert!(
            history >= window.len(),
            "history must cover at least one window"
        );
        StreamingBeatWindower {
            window,
            history,
            tape: Tape::default(),
            pending: VecDeque::new(),
            skipped_border: 0,
            dropped_history: 0,
        }
    }

    /// The window geometry being cut.
    pub fn window(&self) -> BeatWindow {
        self.window
    }

    /// Number of samples pushed so far.
    pub fn samples_seen(&self) -> usize {
        self.tape.end()
    }

    /// Peaks skipped because their window would precede the stream start
    /// (the batch path skips these borders identically).
    pub fn skipped_border(&self) -> usize {
        self.skipped_border
    }

    /// Peaks dropped because their window had already left the ring buffer
    /// when they arrived (history configured too small for the detector
    /// latency).
    pub fn dropped_history(&self) -> usize {
        self.dropped_history
    }

    /// Pushes one signal sample.
    pub fn push_sample(&mut self, value: f64) {
        self.tape.push(value);
        // Retain `history` samples, and never evict the window of a pending
        // peak.
        let mut keep = self.tape.end().saturating_sub(self.history);
        if let Some(&p) = self.pending.front() {
            keep = keep.min(p.saturating_sub(self.window.pre));
        }
        self.tape.trim(keep);
    }

    /// Registers a finalized peak position (ascending order).
    pub fn push_peak(&mut self, peak: usize) {
        debug_assert!(
            self.pending.back().is_none_or(|&b| b <= peak),
            "peaks must arrive in ascending order"
        );
        self.pending.push_back(peak);
    }

    /// Cuts the next ready window into `out` (cleared first), returning its
    /// peak position; `None` when no pending peak has full context yet.
    pub fn pop_window(&mut self, out: &mut Vec<f64>) -> Option<usize> {
        loop {
            let &peak = self.pending.front()?;
            if peak < self.window.pre {
                self.pending.pop_front();
                self.skipped_border += 1;
                continue;
            }
            if peak + self.window.post > self.tape.end() {
                // The right context has not streamed in yet.
                return None;
            }
            let start = peak - self.window.pre;
            if start < self.tape.base() {
                self.pending.pop_front();
                self.dropped_history += 1;
                continue;
            }
            self.pending.pop_front();
            out.clear();
            self.tape.extend_into(start, self.window.len(), out);
            return Some(peak);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{dilate, erode, MorphologicalFilter};
    use crate::wavelet::DyadicWavelet;
    use hbc_ecg::noise::NoiseModel;
    use hbc_ecg::record::Lead;
    use hbc_ecg::synthetic::SyntheticEcg;

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 360.0;
                0.4 * (2.0 * std::f64::consts::PI * 0.25 * t).sin()
                    + if i % 300 < 8 { 1.0 } else { 0.0 }
            })
            .collect()
    }

    #[test]
    fn sliding_extremum_matches_naive_window() {
        let signal = test_signal(500);
        for (kind, pick) in [
            (ExtremumKind::Min, f64::min as fn(f64, f64) -> f64),
            (ExtremumKind::Max, f64::max as fn(f64, f64) -> f64),
        ] {
            let mut tracker = SlidingExtremum::new(kind, 31);
            for (i, &s) in signal.iter().enumerate() {
                let got = tracker.push(s);
                let lo = i.saturating_sub(30);
                let expected = signal[lo..=i]
                    .iter()
                    .copied()
                    .reduce(pick)
                    .expect("non-empty window");
                assert_eq!(got, expected, "mismatch at sample {i} for {kind:?}");
            }
            assert_eq!(tracker.len(), signal.len() as u64);
            assert!(!tracker.is_empty());
        }
    }

    #[test]
    fn sliding_extremum_with_window_one_is_the_identity() {
        let signal = test_signal(64);
        let mut tracker = SlidingExtremum::new(ExtremumKind::Min, 1);
        for &s in &signal {
            assert_eq!(tracker.push(s), s);
        }
        // Skipping with window 1 immediately exhausts the window.
        assert_eq!(tracker.skip(), None);
    }

    #[test]
    fn streaming_erosion_and_dilation_match_batch_everywhere() {
        let signal = test_signal(800);
        let size = 25;
        let batch_eroded = erode(&signal, size);
        let batch_dilated = dilate(&signal, size);

        let mut erosion = StreamingErosion::new(size);
        let mut dilation = StreamingDilation::new(size);
        let mut eroded = Vec::new();
        let mut dilated = Vec::new();
        for &s in &signal {
            if let Some(v) = erosion.push(s) {
                eroded.push(v);
            }
            if let Some(v) = dilation.push(s) {
                dilated.push(v);
            }
        }
        // The warm-up reproduces the batch left clamping; the drain
        // reproduces the right clamping. Full-signal equality, bit for bit.
        while let Some(v) = erosion.finish_one() {
            eroded.push(v);
        }
        while let Some(v) = dilation.finish_one() {
            dilated.push(v);
        }
        assert_eq!(eroded, batch_eroded);
        assert_eq!(dilated, batch_dilated);
    }

    #[test]
    fn even_structuring_elements_pin_batch_and_streaming_to_one_semantics() {
        // The even-`size` asymmetry is normalised in exactly one place
        // (`filter::effective_window`): an even element behaves as the next
        // odd one, identically on the batch and streaming paths.
        let signal = test_signal(400);
        for even in [2usize, 4, 24, 72] {
            let batch_even = erode(&signal, even);
            assert_eq!(batch_even, erode(&signal, even + 1), "size {even}");
            let mut erosion = StreamingErosion::new(even);
            let mut dilation = StreamingDilation::new(even);
            assert_eq!(erosion.delay(), even / 2);
            let mut eroded = Vec::new();
            let mut dilated = Vec::new();
            for &s in &signal {
                eroded.extend(erosion.push(s));
                dilated.extend(dilation.push(s));
            }
            while let Some(v) = erosion.finish_one() {
                eroded.push(v);
            }
            while let Some(v) = dilation.finish_one() {
                dilated.push(v);
            }
            assert_eq!(eroded, batch_even, "streaming erosion, size {even}");
            assert_eq!(
                dilated,
                dilate(&signal, even),
                "streaming dilation, size {even}"
            );
        }
    }

    #[test]
    fn streaming_morph_with_unit_element_is_the_identity_with_zero_delay() {
        let signal = test_signal(40);
        let mut erosion = StreamingErosion::new(1);
        assert_eq!(erosion.delay(), 0);
        for &s in &signal {
            assert_eq!(erosion.push(s), Some(s));
        }
        assert_eq!(erosion.finish_one(), None);
    }

    #[test]
    fn streaming_baseline_filter_is_bit_identical_to_batch() {
        let fs = 360.0;
        let signal = test_signal(3000);
        let batch = MorphologicalFilter::for_sampling_rate(fs)
            .apply(&signal)
            .expect("long enough");

        let mut streaming = StreamingBaselineFilter::for_sampling_rate(fs);
        let mut out = Vec::new();
        for &s in &signal {
            if let Some(v) = streaming.push(s) {
                out.push(v);
            }
        }
        assert_eq!(out.len() + streaming.delay(), signal.len());
        streaming.finish_into(&mut out);
        assert_eq!(out.len(), batch.len());
        // Same comparisons, same arithmetic, same order: exact equality.
        for (k, (a, b)) in out.iter().zip(&batch).enumerate() {
            assert_eq!(a, b, "streaming and batch filters differ at sample {k}");
        }
    }

    #[test]
    fn baseline_filter_on_a_stream_shorter_than_its_delay() {
        // The batch filter rejects signals shorter than its structuring
        // elements; the streaming filter emits nothing while running and
        // produces one best-effort output per input at finish.
        let mut streaming = StreamingBaselineFilter::for_sampling_rate(360.0);
        let short = test_signal(25);
        assert!(short.len() < streaming.delay());
        for &s in &short {
            assert_eq!(streaming.push(s), None);
        }
        let mut out = Vec::new();
        streaming.finish_into(&mut out);
        assert_eq!(out.len(), short.len());
        assert!(out.iter().all(|v| v.is_finite()));
        // A second finish appends nothing.
        streaming.finish_into(&mut out);
        assert_eq!(out.len(), short.len());
    }

    #[test]
    fn streaming_wavelet_is_bit_identical_to_batch_transform() {
        let signal = test_signal(700);
        let scales = 4;
        let batch = DyadicWavelet::with_scales(scales)
            .transform(&signal)
            .expect("long enough");

        let mut streaming = StreamingWavelet::new(scales);
        assert_eq!(streaming.lookahead(), 30);
        let mut got: Vec<Vec<f64>> = vec![Vec::new(); scales];
        let mut indices = Vec::new();
        let mut inputs = Vec::new();
        for &s in &signal {
            streaming.push(s);
            while let Some(frame) = streaming.pop_frame() {
                indices.push(frame.index);
                inputs.push(frame.input);
                for (acc, &d) in got.iter_mut().zip(frame.details) {
                    acc.push(d);
                }
            }
        }
        streaming.finish();
        while let Some(frame) = streaming.pop_frame() {
            indices.push(frame.index);
            inputs.push(frame.input);
            for (acc, &d) in got.iter_mut().zip(frame.details) {
                acc.push(d);
            }
        }
        assert_eq!(indices, (0..signal.len()).collect::<Vec<_>>());
        assert_eq!(inputs, signal, "frames carry the aligned input sample");
        for (scale, (g, b)) in got.iter().zip(&batch).enumerate() {
            assert_eq!(g.len(), b.len(), "scale {scale} length");
            for (k, (x, y)) in g.iter().zip(b).enumerate() {
                assert_eq!(x, y, "scale {scale} differs at index {k}");
            }
        }
    }

    #[test]
    fn streaming_wavelet_handles_streams_shorter_than_its_lookahead() {
        let signal = test_signal(9);
        let mut streaming = StreamingWavelet::new(4);
        for &s in &signal {
            streaming.push(s);
            assert!(streaming.pop_frame().is_none());
        }
        streaming.finish();
        let mut frames = 0;
        while let Some(frame) = streaming.pop_frame() {
            assert!(frame.details.iter().all(|d| d.is_finite()));
            frames += 1;
        }
        assert_eq!(frames, signal.len());
    }

    #[test]
    fn streaming_peak_detector_matches_batch_detection() {
        let mut gen = SyntheticEcg::with_seed(17).with_noise(NoiseModel::ambulatory());
        let rhythm = gen.rhythm(40, 0.15, 0.1);
        let record = gen.record(6, &rhythm, 1).expect("record");
        let raw = record.lead(Lead(0)).expect("lead 0");
        let filtered = MorphologicalFilter::for_sampling_rate(record.fs)
            .apply(raw)
            .expect("filter");

        let detector = PeakDetector::new(record.fs);
        let reference = detector.detect(&filtered).expect("batch detection");
        assert!(reference.len() >= 30, "enough beats to compare");

        let thresholds = detector.calibrate(&filtered).expect("calibrate");
        let mut streaming = StreamingPeakDetector::new(&detector, thresholds);
        let mut peaks = Vec::new();
        for &s in &filtered {
            streaming.push(s);
            while let Some(p) = streaming.pop_peak() {
                peaks.push(p);
            }
        }
        streaming.finish();
        while let Some(p) = streaming.pop_peak() {
            peaks.push(p);
        }
        assert_eq!(peaks, reference);
        assert!(streaming.delay() > 0);
    }

    #[test]
    fn decimator_keeps_the_anchored_grid() {
        let signal: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut dec = StreamingDecimator::new(4);
        assert_eq!(dec.factor(), 4);
        let kept: Vec<f64> = signal.iter().filter_map(|&s| dec.push(s)).collect();
        assert_eq!(kept, vec![0.0, 4.0, 8.0, 12.0, 16.0]);
        // Re-anchoring restarts the grid mid-stream.
        dec.reset();
        let kept: Vec<f64> = signal[2..8].iter().filter_map(|&s| dec.push(s)).collect();
        assert_eq!(kept, vec![2.0, 6.0]);
        // Factor 1 keeps everything.
        let mut unit = StreamingDecimator::new(1);
        assert!(signal.iter().all(|&s| unit.push(s) == Some(s)));
    }

    #[test]
    #[should_panic(expected = "decimation factor")]
    fn zero_decimation_factor_panics() {
        StreamingDecimator::new(0);
    }

    #[test]
    fn windower_cuts_windows_and_skips_borders() {
        let window = BeatWindow::new(3, 2);
        let mut w = StreamingBeatWindower::new(window, 16);
        let signal: Vec<f64> = (0..30).map(|i| i as f64).collect();
        // Peak at 1 is too close to the stream start; peaks at 10 and 20
        // have full context.
        for (i, &s) in signal.iter().enumerate() {
            w.push_sample(s);
            if i == 4 {
                w.push_peak(1);
                w.push_peak(10);
            }
            if i == 21 {
                w.push_peak(20);
            }
        }
        let mut out = Vec::new();
        assert_eq!(w.pop_window(&mut out), Some(10));
        assert_eq!(out, vec![7.0, 8.0, 9.0, 10.0, 11.0]);
        assert_eq!(w.pop_window(&mut out), Some(20));
        assert_eq!(out, vec![17.0, 18.0, 19.0, 20.0, 21.0]);
        assert_eq!(w.pop_window(&mut out), None);
        assert_eq!(w.skipped_border(), 1);
        assert_eq!(w.dropped_history(), 0);
        assert_eq!(w.samples_seen(), 30);
        assert_eq!(w.window(), window);
    }

    #[test]
    fn windower_waits_for_right_context_and_reports_stale_peaks() {
        let window = BeatWindow::new(2, 3);
        let mut w = StreamingBeatWindower::new(window, 5);
        for i in 0..4 {
            w.push_sample(i as f64);
        }
        w.push_peak(3);
        let mut out = Vec::new();
        // post = 3 ⇒ needs samples up to index 5: not yet streamed.
        assert_eq!(w.pop_window(&mut out), None);
        for i in 4..20 {
            w.push_sample(i as f64);
        }
        assert_eq!(w.pop_window(&mut out), Some(3));
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // With no pending peak pinning the buffer, streaming on evicts old
        // samples; a peak arriving for the evicted past is dropped and
        // counted.
        for i in 20..60 {
            w.push_sample(i as f64);
        }
        w.push_peak(6);
        assert_eq!(w.pop_window(&mut out), None);
        assert_eq!(w.dropped_history(), 1);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_panics() {
        SlidingExtremum::<f64>::new(ExtremumKind::Min, 0);
    }

    #[test]
    #[should_panic(expected = "window must be below 65 536")]
    fn a_window_the_u16_indices_cannot_age_panics() {
        SlidingExtremum::<i16>::new(ExtremumKind::Max, 1 << 16);
    }
}

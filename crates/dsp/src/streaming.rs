//! Streaming (sample-by-sample) conditioning kernels.
//!
//! The firmware on the WBSN processes one ADC sample at a time with bounded
//! memory, and so does every gateway session. This module holds those
//! online kernels, and they are the only conditioning kernels production
//! code runs: on a stored record too, [`MorphologicalFilter::apply`] pushes
//! each lead through the baseline filter, [`PeakDetector::calibrate`] the
//! filtered lead through one pass of the wavelet cascade, and the firmware
//! that lead through the peak detector and the beat windower:
//!
//! * [`SlidingExtremum`] — O(1) sliding-window minimum/maximum (the
//!   streaming van Herk / Gil–Werman algorithm), the primitive behind
//!   streaming erosion and dilation;
//! * [`StreamingErosion`] / [`StreamingDilation`] — centred structuring
//!   elements with a fixed group delay of `size/2` samples;
//! * [`StreamingBaselineFilter`] — the opening/closing baseline estimator of
//!   a [`MorphologicalFilter`] geometry as a push-based pipeline, fed
//!   millivolts or — through a [`SampleScale`] — raw ADC codes, which stay
//!   codes up to the filter's output;
//! * [`StreamingWavelet`] — the à-trous dyadic wavelet transform of
//!   [`crate::wavelet::DyadicWavelet`] as a cascade of ring-buffered stages;
//! * [`StreamingPeakDetector`] — the wavelet cascade feeding the incremental
//!   [`PeakScanner`], for online R-peak detection with pre-calibrated
//!   thresholds;
//! * [`StreamingBeatWindower`] — fixed-length beat windows cut around
//!   detected peaks from a bounded ring buffer.
//!
//! Every operator exposes its **group delay** explicitly, and every operator
//! with a right-border obligation exposes a `finish` drain that reproduces
//! the whole-signal border handling (clamped windows for the morphological
//! operators, symmetric reflection for the wavelet). As a result the
//! streaming chain is *bit-identical* over the whole record — not merely in
//! the interior — to its references, which no production path runs: the
//! naive morphology oracle ([`crate::filter::sliding_extreme_naive`],
//! [`MorphologicalFilter::apply_naive`]), the whole-signal wavelet
//! transform ([`crate::wavelet::DyadicWavelet::transform`]) and the
//! whole-signal detector ([`PeakDetector::detect`]). That is what lets the
//! parity suites compare per-beat classifications exactly.
//!
//! The filter, the wavelet and the peak detector also take chunks
//! (`push_chunk`), which they process **stage by stage** in blocks of at
//! most [`BLOCK`] samples: each stage loops over the whole block before the
//! next stage starts. Every stage still emits at most one output per input,
//! in order, with the same per-output arithmetic, so outputs are invariant
//! to how callers chunk their input: pushing a signal in one call, sample
//! by sample (`push` is a block of one), or in ragged chunks yields
//! identical output sequences (property-tested in
//! `tests/streaming_parity.rs`). All ring buffers are sized at construction
//! from their retention bounds (plus one block where a block passes through
//! whole), so nothing grows with the chunk length.

use std::collections::VecDeque;

use hbc_ecg::beat::BeatWindow;

use crate::filter::MorphologicalFilter;
use crate::peak::{PeakDetector, PeakScanner, PeakThresholds};
use crate::tape::Tape;

pub use crate::filter::ExtremumKind;

/// Width of the stage-by-stage blocks: the `push_chunk` entry points of
/// [`StreamingBaselineFilter`], [`StreamingWavelet`] and
/// [`StreamingPeakDetector`] cut their input into blocks of at most this
/// many samples. Each stage loops over a whole block before the next stage
/// starts, with the block's intermediates in stack arrays of this width;
/// the rings that a block passes through whole (the filter's delay line,
/// the peak scanner's tapes, the wavelet's frame queues) are sized with
/// this much slack at construction.
pub const BLOCK: usize = 64;

/// Sliding-window extremum over the last `window` pushed samples, computed
/// with the streaming van Herk / Gil–Werman algorithm: O(1) per sample,
/// with no data-dependent loop.
///
/// The stream is cut into blocks of `window` samples. The window ending at
/// phase `p` of the current block is the previous block's suffix
/// `[p + 1, window)` plus the current block's prefix `[0, p]`, so the
/// output is the extremum of the previous block's suffix extremum at
/// `p + 1` and the running prefix extremum. One array of `window` samples
/// holds both: phase `p` reads the suffix extremum at `p + 1` and
/// overwrites position `p` (whose suffix extremum phase `p − 1` already
/// read) with the incoming sample, so a completed block leaves its raw
/// samples in the array, and one backward pass turns them into suffix
/// extrema in place.
///
/// Ties keep the earlier sample, like a left-to-right window scan: the
/// suffix beats the prefix, the prefix keeps its value against an equal
/// incoming sample, and the backward pass keeps the earlier sample. For
/// `f64` this selects the earliest of equal `+0.0` and `-0.0` samples.
///
/// Generic over the sample type: the algorithm only compares samples, so
/// it runs unchanged on millivolts (`f64`) or on raw ADC codes (`i16`).
/// Its storage is that one array, reserved at construction: 2 B per window
/// sample for codes, 8 B for `f64`.
#[derive(Debug, Clone)]
pub struct SlidingExtremum<T = f64> {
    kind: ExtremumKind,
    window: usize,
    /// Below the phase, the current block's raw samples; from the phase
    /// on, the previous block's suffix extrema. Reserved at construction
    /// and filled (without reallocating) on the first push, so no identity
    /// or default value of `T` is needed.
    buf: Vec<T>,
    /// Phase within the current block.
    phase: usize,
    /// Extremum of the current block's samples so far (meaningful at a
    /// non-zero phase).
    prefix: Option<T>,
    /// Whether a previous block (and so its suffix extrema) exists.
    warm: bool,
    /// The last pushed sample, which [`Self::skip`] advances with.
    last: Option<T>,
    pushed: u64,
    advances: u64,
}

impl<T: Copy + PartialOrd> SlidingExtremum<T> {
    /// Creates a tracker over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(kind: ExtremumKind, window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        SlidingExtremum {
            kind,
            window,
            buf: Vec::with_capacity(window),
            phase: 0,
            prefix: None,
            warm: false,
            last: None,
            pushed: 0,
            advances: 0,
        }
    }

    /// Pushes a sample and returns the extremum of the last `window` samples
    /// (fewer at the start of the stream).
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::skip`].
    pub fn push(&mut self, value: T) -> T {
        let mut out = [value];
        self.push_block(&[value], &mut out);
        out[0]
    }

    /// Pushes `input` and writes, for each sample, the extremum of the last
    /// `window` samples up to it into `out`: a block of [`Self::push`]
    /// calls.
    #[inline]
    fn push_block(&mut self, input: &[T], out: &mut [T]) {
        assert!(self.advances == self.pushed, "push after skip");
        if let Some(&last) = input.last() {
            if self.buf.is_empty() {
                self.buf.resize(self.window, last);
            }
            self.last = Some(last);
            self.pushed += input.len() as u64;
            self.advance(input, &mut out[..input.len()]);
        }
    }

    /// The block kernel, monomorphized per extremum kind so the comparison
    /// is a plain `<=` or `>=` inside the loop.
    #[inline]
    fn advance(&mut self, input: &[T], out: &mut [T]) {
        match self.kind {
            ExtremumKind::Min => self.advance_by(input, out, |kept, incoming| {
                ExtremumKind::Min.dominates(kept, incoming)
            }),
            ExtremumKind::Max => self.advance_by(input, out, |kept, incoming| {
                ExtremumKind::Max.dominates(kept, incoming)
            }),
        }
        self.advances += input.len() as u64;
    }

    /// `dominates(kept, incoming)` is the kind's tie rule
    /// ([`ExtremumKind::dominates`]), which keeps the earlier sample.
    #[inline(always)]
    fn advance_by(&mut self, input: &[T], out: &mut [T], dominates: impl Fn(T, T) -> bool + Copy) {
        let Some(&first) = input.first() else {
            return;
        };
        let w = self.window;
        let (mut phase, mut warm) = (self.phase, self.warm);
        let mut prefix = self.prefix.unwrap_or(first);
        let buf = &mut self.buf[..w];
        for (&x, o) in input.iter().zip(out) {
            if phase == 0 || !dominates(prefix, x) {
                prefix = x;
            }
            // The window at the last phase is exactly the current block.
            *o = prefix;
            if warm && phase + 1 < w {
                let s = buf[phase + 1];
                if dominates(s, prefix) {
                    *o = s;
                }
            }
            buf[phase] = x;
            phase += 1;
            if phase == w {
                // Block complete: its suffix extrema serve the next block.
                Self::suffix_extrema(buf, dominates);
                phase = 0;
                warm = true;
            }
        }
        (self.phase, self.warm, self.prefix) = (phase, warm, Some(prefix));
    }

    /// The backward pass turning a completed block's raw samples into
    /// suffix extrema, in place; ties keep the earlier sample.
    #[inline(never)]
    fn suffix_extrema(buf: &mut [T], dominates: impl Fn(T, T) -> bool) {
        let mut acc = buf[buf.len() - 1];
        for v in buf.iter_mut().rev() {
            if dominates(*v, acc) {
                acc = *v;
            }
            *v = acc;
        }
    }

    /// Advances the window **without** pushing a new sample and returns the
    /// extremum of the samples still covered, or `None` once none remain.
    ///
    /// This drains the right border at end of stream: the window degrades
    /// from centred to right-clamped exactly like the naive oracle of
    /// [`crate::filter`], whose windows are truncated at the signal end.
    /// The window advances over a copy of the last pushed sample: while
    /// that sample is still covered, the copies change neither the
    /// extremum nor which tied sample is selected (they come later and
    /// equal a covered sample), so no identity element is needed. Once it
    /// has left, nothing real is covered. Pushing after a skip panics.
    pub fn skip(&mut self) -> Option<T> {
        // Advances since the last push, this one included.
        let skipped = self.advances - self.pushed + 1;
        if self.pushed == 0 || skipped >= self.window as u64 {
            self.advances += 1;
            return None;
        }
        let last = self.last.expect("a sample was pushed");
        let mut out = [last];
        self.advance(&[last], &mut out);
        Some(out[0])
    }

    /// Number of window advances so far — one per pushed sample **plus**
    /// one per [`Self::skip`], so after a right-border drain this exceeds
    /// the number of samples pushed.
    pub fn len(&self) -> u64 {
        self.advances
    }

    /// Whether the window has never advanced.
    pub fn is_empty(&self) -> bool {
        self.advances == 0
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
        // The streaming operator and the naive oracle derive their geometry
        // from the single even-`size` normalisation point, so an even
        // structuring element yields the same `size + 1`-sample window in
        // both.
        let window = crate::filter::effective_window(size);
        Morph {
            extremum: SlidingExtremum::new(kind, window),
            delay: window / 2,
            seen: 0,
            emitted: 0,
        }
    }

    /// Pushes a block and returns its outputs: one per input once the
    /// operator has filled, none for inputs still inside the group delay.
    #[inline]
    fn push_block<'o>(&mut self, input: &[T], out: &'o mut [T]) -> &'o [T] {
        let n = input.len();
        self.extremum.push_block(input, &mut out[..n]);
        let filling = self.delay.saturating_sub(self.seen).min(n);
        self.seen += n;
        self.emitted += n - filling;
        &out[filling..n]
    }

    fn push(&mut self, value: T) -> Option<T> {
        let mut out = [value];
        self.push_block(&[value], &mut out).first().copied()
    }

    /// Drains one pending right-border output (the operator owes exactly
    /// `delay` outputs at end of stream, fewer if the stream was shorter
    /// than the delay). The shrinking window reproduces the naive
    /// oracle's end-of-signal clamping sample for sample.
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
            /// stream (right-clamped windows, matching the naive oracle's
            /// border handling); `None` once fully drained.
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
     later (the group delay), matching [`crate::filter::sliding_extreme_naive`]\n\
     exactly once the right border is drained with\n\
     [`StreamingErosion::finish_one`]."
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
/// baseline removal of a [`MorphologicalFilter`] geometry as a push pipeline
/// with a fixed total latency of [`Self::delay`] samples.
///
/// After [`Self::finish_into`] has drained the right border, the complete
/// output sequence is bit-identical to the naive oracle
/// [`MorphologicalFilter::apply_naive`] over the whole signal (the warm-up
/// of each sliding window reproduces its left clamping, the drain its right
/// clamping). [`MorphologicalFilter::apply`] is this filter run over a
/// whole signal.
///
/// The input type is set by the [`SampleScale`] `S`: millivolts by default,
/// or ADC codes with a scale that dequantizes them exactly, in which case
/// both morphology stages, their sliding extrema and the delay line hold
/// codes and the output equals that of the millivolt filter fed the
/// dequantized signal.
///
/// [`Self::push_chunk`] runs each of the eight operators over a whole
/// block before the next one starts, with the intermediates in stack
/// arrays; [`Self::push`] is a block of one.
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
    /// ring of `total_delay + BLOCK` samples, since a block enters it
    /// whole before its outputs leave.
    input_delay: Tape<S::Sample>,
    total_delay: usize,
    finished: bool,
}

impl StreamingBaselineFilter {
    /// Builds the streaming filter for a sampling rate, with the geometry of
    /// [`MorphologicalFilter::for_sampling_rate`].
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
        Self::with_geometry(MorphologicalFilter::for_sampling_rate(fs), scale)
    }

    /// The streaming filter with the structuring elements of `geometry`,
    /// over input samples read through `scale`.
    ///
    /// # Panics
    ///
    /// Panics if either structuring element is empty.
    pub fn with_geometry(geometry: MorphologicalFilter, scale: S) -> Self {
        let MorphologicalFilter {
            qrs_element: qrs,
            beat_element: beat,
        } = geometry;
        let total_delay = 4 * (qrs / 2) + 2 * (beat / 2);
        StreamingBaselineFilter {
            scale,
            stage1: [
                Morph::new(ExtremumKind::Min, qrs),
                Morph::new(ExtremumKind::Max, qrs),
                Morph::new(ExtremumKind::Max, qrs),
                Morph::new(ExtremumKind::Min, qrs),
            ],
            open2: [
                Morph::new(ExtremumKind::Min, beat),
                Morph::new(ExtremumKind::Max, beat),
            ],
            close2: [
                Morph::new(ExtremumKind::Max, beat),
                Morph::new(ExtremumKind::Min, beat),
            ],
            input_delay: Tape::with_capacity(total_delay + BLOCK),
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

    /// Pairs a baseline value with the oldest delayed input.
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
        let mut out = [0.0];
        (self.run::<1>(&[value], &mut out) == 1).then_some(out[0])
    }

    /// Pushes a chunk of raw samples, in blocks of at most [`BLOCK`], and
    /// writes the baseline-corrected samples it completes to the front of
    /// `out`, returning their number: exactly the outputs of one
    /// [`Self::push`] per sample, in order.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `input`, or if called after
    /// [`Self::finish_into`].
    pub fn push_chunk(&mut self, input: &[S::Sample], out: &mut [f64]) -> usize {
        assert!(out.len() >= input.len(), "one output slot per input");
        let mut produced = 0;
        for block in input.chunks(BLOCK) {
            produced += self.run::<BLOCK>(block, &mut out[produced..]);
        }
        produced
    }

    /// The block path with stack arrays of `N` samples: [`Self::push`] is
    /// the block of one.
    fn run<const N: usize>(&mut self, input: &[S::Sample], out: &mut [f64]) -> usize {
        assert!(!self.finished, "push after finish");
        assert!(input.len() <= N, "blocks hold at most {N} samples");
        let Some(&fill) = input.first() else {
            return 0;
        };
        for &v in input {
            self.input_delay.push(v);
        }
        debug_assert!(
            self.input_delay.end() - self.input_delay.base() <= self.total_delay + N,
            "delay line holds more than the group delay plus one block"
        );
        let (mut a, mut b, mut c) = ([fill; N], [fill; N], [fill; N]);
        let [e1, d1, d2, e2] = &mut self.stage1;
        let v = e1.push_block(input, &mut a);
        let v = d1.push_block(v, &mut b);
        let v = d2.push_block(v, &mut a);
        let s1 = e2.push_block(v, &mut b);
        let v = self.open2[0].push_block(s1, &mut a);
        let open = self.open2[1].push_block(v, &mut c);
        let v = self.close2[0].push_block(s1, &mut a);
        let close = self.close2[1].push_block(v, &mut b);
        // Both branches share one delay, so they warm up in lockstep.
        debug_assert_eq!(open.len(), close.len());
        let m = open.len();
        for d in &mut a[..m] {
            *d = self.input_delay.pop_front().expect("delay line is full");
        }
        let scale = self.scale;
        for (((y, &o), &c), &d) in out.iter_mut().zip(open).zip(close).zip(&a[..m]) {
            let baseline = 0.5 * (scale.to_mv(o) + scale.to_mv(c));
            *y = scale.to_mv(d) - baseline;
        }
        m
    }

    /// Drains the `delay()` outputs still owed at end of stream into `out`,
    /// reproducing the whole-signal right-border clamping, and seals the
    /// filter. For streams shorter than the group delay this produces one
    /// output per input pushed ([`MorphologicalFilter::apply`] rejects
    /// signals shorter than the longest element outright). Idempotent: a
    /// second call appends nothing.
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
            self.input_delay.end() == self.input_delay.base(),
            "drain left {} unmatched inputs",
            self.input_delay.end() - self.input_delay.base()
        );
    }
}

/// Inputs a wavelet stage appends to its window between two compactions:
/// the stencil loop runs over at most this many outputs at a time, and
/// each stage window holds this many samples beyond its retention bound.
const STAGE_SUB_BLOCK: usize = 16;

/// One à-trous stage: spacing `2^s`, producing the scale-`s+1` detail and
/// the next approximation from a bounded, contiguous window of its input.
#[derive(Debug)]
struct WaveletStage {
    spacing: usize,
    /// The stage input from absolute index `base` on: `window[k]` is input
    /// `base + k`. Contiguous, so the stencil loop runs over plain slices;
    /// the retained `4·spacing + 1` samples move to the front when an
    /// append would overflow the capacity fixed at construction.
    window: Vec<f64>,
    base: usize,
    next_out: usize,
    /// Input-stream length, once known (enables right-border reflection).
    n: Option<usize>,
}

/// A clone reserves the whole window too.
impl Clone for WaveletStage {
    fn clone(&self) -> Self {
        let mut window = Vec::with_capacity(self.window.capacity());
        window.extend_from_slice(&self.window);
        WaveletStage { window, ..*self }
    }
}

impl WaveletStage {
    fn new(spacing: usize) -> Self {
        WaveletStage {
            spacing,
            window: Vec::with_capacity(Self::retained(spacing) + STAGE_SUB_BLOCK),
            base: 0,
            next_out: 0,
            n: None,
        }
    }

    /// Future outputs look back `spacing` and ahead `2·spacing`;
    /// right-border reflection can reach back a further `spacing + 1`.
    fn retained(spacing: usize) -> usize {
        4 * spacing + 1
    }

    fn end(&self) -> usize {
        self.base + self.window.len()
    }

    /// Input lookup with the symmetric border extension of
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
        self.window[i as usize - self.base]
    }

    /// Detail and approximation at output `next_out` with border
    /// reflection — the same expressions, in the same order, as the batch
    /// `high_pass` / `low_pass` filters.
    fn compute_reflected(&mut self) -> (f64, f64) {
        let s = self.spacing as isize;
        let o = self.next_out as isize;
        let detail = 2.0 * (self.get(o + s) - self.get(o));
        let x0 = self.get(o - s);
        let x1 = self.get(o);
        let x2 = self.get(o + s);
        let x3 = self.get(o + 2 * s);
        let approx = (x0 + 3.0 * x1 + 3.0 * x2 + x3) / 8.0;
        self.next_out += 1;
        (detail, approx)
    }

    /// Pushes `io[..len]` through the stage: each input unlocks at most
    /// one output, whose detail goes to `details` and whose approximation
    /// overwrites `io` from the front (never ahead of the inputs still to
    /// be read). Returns the number of outputs.
    #[inline]
    fn run(&mut self, io: &mut [f64], len: usize, details: &mut impl Sink) -> usize {
        let mut produced = 0;
        let mut read = 0;
        while read < len {
            let take = (len - read).min(STAGE_SUB_BLOCK);
            if self.window.len() + take > Self::retained(self.spacing) + STAGE_SUB_BLOCK {
                let keep = self.next_out.saturating_sub(2 * self.spacing + 1);
                let dropped = keep - self.base;
                let kept = self.window.len() - dropped;
                self.window.copy_within(dropped.., 0);
                self.window.truncate(kept);
                self.base = keep;
            }
            // Element by element: a block of one must not pay for a
            // `memcpy` call.
            for &x in &io[read..read + take] {
                self.window.push(x);
            }
            read += take;
            produced += self.emit(&mut io[produced..], details);
        }
        produced
    }

    /// Computes every output the window now reaches (output `o` needs input
    /// `o + 2·spacing`) into `out` and `details`. Only the first `spacing`
    /// outputs reach the left border; the rest run as one stencil loop over
    /// four shifted slices of the window, the batch expressions element by
    /// element.
    #[inline]
    fn emit(&mut self, out: &mut [f64], details: &mut impl Sink) -> usize {
        let s = self.spacing;
        let ready = self.end().saturating_sub(2 * s);
        let first = self.next_out;
        while self.next_out < ready.min(s) {
            let (d, a) = self.compute_reflected();
            details.put(d);
            out[self.next_out - 1 - first] = a;
        }
        let lo = self.next_out;
        if lo < ready {
            let m = ready - lo;
            let x = &self.window[lo - s - self.base..];
            let (x0, x1, x2, x3) = (
                &x[..m],
                &x[s..s + m],
                &x[2 * s..2 * s + m],
                &x[3 * s..3 * s + m],
            );
            let approx = &mut out[lo - first..lo - first + m];
            for k in 0..m {
                approx[k] = (x0[k] + 3.0 * x1[k] + 3.0 * x2[k] + x3[k]) / 8.0;
                details.put(2.0 * (x2[k] - x1[k]));
            }
            self.next_out = ready;
        }
        self.next_out - first
    }

    fn finish_one(&mut self) -> Option<(f64, f64)> {
        let n = self.n.expect("finish_one before set_n");
        if self.next_out >= n {
            return None;
        }
        Some(self.compute_reflected())
    }
}

/// The à-trous cascade shared by [`StreamingWavelet`],
/// [`StreamingPeakDetector`] and [`PeakDetector::calibrate`]: each stage
/// runs over a whole block before the next one starts, putting its details
/// straight into the consumer's per-scale sinks (tapes, or the calibration's
/// sums of squares) and its approximations into one stack array that
/// becomes the next stage's input.
#[derive(Debug, Clone)]
struct Cascade {
    stages: Vec<WaveletStage>,
    pushed: usize,
    finished: bool,
}

impl Cascade {
    fn new(scales: usize) -> Self {
        assert!(scales > 0, "at least one scale is required");
        Cascade {
            stages: (0..scales).map(|s| WaveletStage::new(1 << s)).collect(),
            pushed: 0,
            finished: false,
        }
    }

    /// `2·(2^scales − 1)`: how far the input runs ahead of the last scale.
    fn lookahead(&self) -> usize {
        2 * ((1 << self.stages.len()) - 1)
    }

    /// Pushes a block of at most `N` samples (the stack array's width:
    /// [`BLOCK`] for chunks, 1 for the public `push` entry points): the
    /// inputs go to `input`, scale `s`'s details to `details[s]`.
    fn push_block<const N: usize>(
        &mut self,
        block: &[f64],
        details: &mut [impl Sink],
        input: &mut impl Sink,
    ) {
        assert!(!self.finished, "push after finish");
        assert!(block.len() <= N, "blocks hold at most {N} samples");
        for &x in block {
            input.put(x);
        }
        self.pushed += block.len();
        let mut buf = [0.0; N];
        buf[..block.len()].copy_from_slice(block);
        let mut len = block.len();
        for (stage, tape) in self.stages.iter_mut().zip(details) {
            len = stage.run(&mut buf, len, tape);
        }
    }

    /// Declares the end of the stream and drains every stage with the
    /// batch transform's right-border reflection, stage by stage.
    /// Idempotent.
    fn finish(&mut self, details: &mut [impl Sink]) {
        if self.finished {
            return;
        }
        self.finished = true;
        let n = self.pushed;
        let mut buf = Vec::with_capacity(self.lookahead());
        for (stage, tape) in self.stages.iter_mut().zip(details) {
            let len = buf.len();
            let len = stage.run(&mut buf, len, tape);
            buf.truncate(len);
            stage.n = Some(n);
            while let Some((d, a)) = stage.finish_one() {
                tape.put(d);
                buf.push(a);
            }
        }
    }
}

/// Where the cascade puts each scale's details, and its input samples.
trait Sink {
    fn put(&mut self, v: f64);
}

impl Sink for Tape {
    fn put(&mut self, v: f64) {
        self.push(v);
    }
}

/// Drops what is put.
impl Sink for () {
    fn put(&mut self, _: f64) {}
}

/// Adds up the squares of what is put, in order.
#[derive(Clone, Copy, Default)]
struct Energy(f64);

impl Sink for Energy {
    fn put(&mut self, d: f64) {
        self.0 += d * d;
    }
}

/// The sum of squares of every scale's detail coefficients over `signal`,
/// from one pass of the cascade with the right border reflected: what
/// [`PeakDetector::calibrate`] reads. Each scale's squares are added in
/// index order as the cascade produces them, as
/// `d.iter().map(|v| v * v).sum()` over the detail plane of
/// [`DyadicWavelet::transform`](crate::wavelet::DyadicWavelet::transform)
/// adds them, so the sums are equal bit for bit; no detail is stored.
pub(crate) fn detail_energy(scales: usize, signal: &[f64]) -> Vec<f64> {
    let mut cascade = Cascade::new(scales);
    let mut energy = vec![Energy::default(); scales];
    for block in signal.chunks(BLOCK) {
        cascade.push_block::<BLOCK>(block, &mut energy, &mut ());
    }
    cascade.finish(&mut energy);
    energy.into_iter().map(|e| e.0).collect()
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
    cascade: Cascade,
    /// Per-scale details not yet assembled into frames.
    details: Vec<Tape>,
    /// Input samples not yet assembled into frames.
    raw: Tape,
    /// Reusable assembled-frame buffer.
    frame: Vec<f64>,
    frame_index: usize,
}

impl StreamingWavelet {
    /// Streaming transform with `scales` dyadic scales.
    ///
    /// # Panics
    ///
    /// Panics if `scales == 0`.
    pub fn new(scales: usize) -> Self {
        let cascade = Cascade::new(scales);
        // Popped frame by frame, each queue holds at most the lead of its
        // scale over the last one (all of the lookahead after `finish`)
        // plus one block.
        let capacity = cascade.lookahead() + BLOCK;
        StreamingWavelet {
            details: vec![Tape::with_capacity(capacity); scales],
            raw: Tape::with_capacity(capacity),
            frame: vec![0.0; scales],
            frame_index: 0,
            cascade,
        }
    }

    /// Number of scales computed per frame.
    pub fn scales(&self) -> usize {
        self.cascade.stages.len()
    }

    /// Group delay: a frame for input index `k` is available once input
    /// `k + lookahead()` has been pushed (`Σ 2·2^s = 2·(2^scales − 1)`).
    pub fn lookahead(&self) -> usize {
        self.cascade.lookahead()
    }

    /// Pushes one input sample through the cascade: a block of one.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish`].
    pub fn push(&mut self, value: f64) {
        self.cascade
            .push_block::<1>(&[value], &mut self.details, &mut self.raw);
    }

    /// Pushes a chunk of input samples in blocks of at most [`BLOCK`],
    /// each stage over a whole block in turn. The frames it completes are
    /// exactly those of one [`Self::push`] per sample. The frame queues
    /// hold one block of unpopped frames beyond the lookahead; a longer
    /// chunk grows them, so pop between chunks of at most [`BLOCK`] to keep
    /// the memory fixed.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish`].
    pub fn push_chunk(&mut self, input: &[f64]) {
        for block in input.chunks(BLOCK) {
            self.cascade
                .push_block::<BLOCK>(block, &mut self.details, &mut self.raw);
        }
    }

    /// Declares the end of the stream and drains the remaining frames using
    /// the batch transform's right-border reflection. Idempotent.
    pub fn finish(&mut self) {
        self.cascade.finish(&mut self.details);
    }

    /// Assembles and returns the next complete frame, if every scale has
    /// produced its coefficient for that index.
    pub fn pop_frame(&mut self) -> Option<WaveletFrame<'_>> {
        let index = self.frame_index;
        // The last scale is the slowest: its tape ends first. Every queue
        // starts at the next frame's index.
        if self.details.last().expect("at least one scale").end() <= index {
            return None;
        }
        for (f, d) in self.frame.iter_mut().zip(&mut self.details) {
            *f = d.pop_front().expect("faster scales hold the frame");
        }
        let input = self.raw.pop_front().expect("the input leads every scale");
        self.frame_index += 1;
        Some(WaveletFrame {
            index,
            input,
            details: &self.frame,
        })
    }
}

/// Online R-peak detection: the [`StreamingWavelet`] cascade feeding the
/// incremental [`PeakScanner`] — the *same* state machine the oracle
/// [`PeakDetector::detect`] drives, so both take identical decisions by
/// construction.
///
/// The cascade writes each scale's details and the input straight into the
/// scanner's tapes, and the scanner scans once per block.
///
/// The detector runs on pre-calibrated [`PeakThresholds`] (see
/// [`PeakDetector::calibrate`]): a deployed node calibrates during an
/// initial observation window, then scans with the thresholds held fixed.
/// Peaks are emitted in ascending position order with a latency bounded by
/// [`Self::delay`] samples, plus up to `BLOCK − 1` for a sample that
/// arrives inside a block.
#[derive(Debug, Clone)]
pub struct StreamingPeakDetector {
    cascade: Cascade,
    scanner: PeakScanner,
    refractory: usize,
}

impl StreamingPeakDetector {
    /// Builds the online detector for the configuration of `detector` with
    /// fixed, pre-calibrated thresholds.
    pub fn new(detector: &PeakDetector, thresholds: PeakThresholds) -> Self {
        StreamingPeakDetector {
            cascade: Cascade::new(detector.config().scales),
            scanner: detector.scanner(thresholds),
            refractory: detector.refractory_samples(),
        }
    }

    /// Upper bound on the emission latency, in samples: wavelet lookahead +
    /// scan lookahead + the refractory hold-back before a peak is final.
    pub fn delay(&self) -> usize {
        self.cascade.lookahead() + self.scanner.lookahead() + self.refractory
    }

    /// Pushes one baseline-corrected sample: a block of one.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish`].
    pub fn push(&mut self, filtered: f64) {
        self.push_frames::<1>(&[filtered]);
    }

    /// Pushes a chunk of baseline-corrected samples in blocks of at most
    /// [`BLOCK`]: every wavelet stage runs over a block, then the scanner
    /// scans the frames it completed. The peaks are exactly those of one
    /// [`Self::push`] per sample.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish`].
    pub fn push_chunk(&mut self, input: &[f64]) {
        for block in input.chunks(BLOCK) {
            self.push_frames::<BLOCK>(block);
        }
    }

    fn push_frames<const N: usize>(&mut self, block: &[f64]) {
        let (details, signal) = self.scanner.tapes();
        self.cascade.push_block::<N>(block, details, signal);
        self.scanner.scan_available();
    }

    /// Declares the end of the stream: remaining wavelet frames are drained
    /// with right-border reflection and the scan is run to completion.
    pub fn finish(&mut self) {
        let (details, _) = self.scanner.tapes();
        self.cascade.finish(details);
        self.scanner.scan_available();
        self.scanner.finish();
    }

    /// Next finalized peak position (ascending), if any.
    pub fn pop_peak(&mut self) -> Option<usize> {
        self.scanner.pop_peak()
    }
}

/// Streaming beat windower: buffers the most recent stretch of the
/// (filtered) signal in a bounded ring buffer and cuts fixed-length windows
/// around peak positions as they are finalized by the detector.
///
/// Peaks must be pushed in ascending order. Peaks whose window would start
/// before the stream (closer than `window.pre` to sample 0) are skipped,
/// like the oracle [`crate::window::windows_at_peaks`] skips them; peaks whose
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
            // Each push trims back to `history` samples; only a pending
            // peak's window can pin more, which grows the ring.
            tape: Tape::with_capacity(history + 1),
            pending: VecDeque::with_capacity(4),
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
    use crate::filter::{sliding_extreme_naive, MorphologicalFilter};
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
        let batch_eroded = sliding_extreme_naive(&signal, size, ExtremumKind::Min);
        let batch_dilated = sliding_extreme_naive(&signal, size, ExtremumKind::Max);

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
        // The warm-up reproduces the naive oracle's left clamping; the drain
        // reproduces its right clamping. Full-signal equality, bit for bit.
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
        // odd one, identically in the naive oracle and the streaming path.
        let signal = test_signal(400);
        for even in [2usize, 4, 24, 72] {
            let batch_even = sliding_extreme_naive(&signal, even, ExtremumKind::Min);
            assert_eq!(
                batch_even,
                sliding_extreme_naive(&signal, even + 1, ExtremumKind::Min),
                "size {even}"
            );
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
                sliding_extreme_naive(&signal, even, ExtremumKind::Max),
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
            .apply_naive(&signal)
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
            assert_eq!(a, b, "streaming and naive filters differ at sample {k}");
        }
    }

    #[test]
    fn baseline_filter_on_a_stream_shorter_than_its_delay() {
        // `MorphologicalFilter::apply` rejects signals shorter than its
        // structuring elements; the streaming filter emits nothing while running and
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
}

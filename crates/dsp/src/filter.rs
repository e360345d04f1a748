//! Morphological filtering of ECG signals.
//!
//! Ambulatory ECG is corrupted by baseline wander (respiration) and motion
//! artefacts. The embedded filtering stage of the paper (taken from Rincón et
//! al.) uses *mathematical morphology*: erosion and dilation with flat
//! structuring elements, combined into opening and closing, estimate the
//! baseline which is then subtracted from the signal. Morphological operators
//! need only comparisons — no multiplications — which is why they suit a
//! 6 MHz integer-only microcontroller.
//!
//! The baseline estimator follows the standard two-stage scheme:
//!
//! 1. opening followed by closing with a structuring element slightly longer
//!    than the QRS complex removes the beats and keeps the drift,
//! 2. a second pass with a longer element smooths the estimate,
//! 3. the estimate is subtracted from the input.
//!
//! ## The deque kernel
//!
//! Every operator is a sliding-window extremum, computed here with the
//! monotone-deque kernel: a wedge of candidate indices whose values are
//! monotone, so each sample enters the wedge once and leaves it at most
//! once — O(n) total, ~[`DEQUE_COMPARISONS_PER_SAMPLE`] comparisons per
//! sample *independent of the window length*, against the O(n·w) of the
//! naive per-output window rescan (kept as [`sliding_extreme_naive`], the
//! equivalence oracle and the pre-deque cost reference). The streaming
//! [`SlidingExtremum`](crate::streaming::SlidingExtremum) computes the same
//! windows with the van Herk / Gil–Werman algorithm instead (prefix and
//! suffix extrema over blocks of the window length, no data-dependent
//! loop). Both keep the earlier sample on ties and clamp borders the same
//! way, and since min/max are pure comparisons the two formulations are
//! *exactly* equal — `tests/frontend_equivalence.rs` proptests this across
//! window parities and border positions.
//!
//! ## Window normalisation
//!
//! A structuring element of `size` samples is centred on the output sample,
//! which only has a symmetric meaning for odd `size`. The effective window is
//! normalised in **one place** — [`effective_window`]: `2·(size/2) + 1`
//! samples, so an even `size` yields a `size + 1`-sample window. Batch and
//! streaming operators both derive their geometry from it and therefore
//! agree for every parity.

use std::collections::VecDeque;

use crate::frontend::FrontendScratch;
use crate::{DspError, Result};

/// Which extremum a sliding-window morphological operator tracks. Shared
/// with the streaming kernels (re-exported as
/// `streaming::ExtremumKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtremumKind {
    /// Sliding minimum (erosion).
    Min,
    /// Sliding maximum (dilation).
    Max,
}

impl ExtremumKind {
    /// Whether a retained wedge value still dominates an incoming one (ties
    /// keep the earlier sample, like the streaming van Herk kernel).
    #[inline]
    pub(crate) fn dominates<T: PartialOrd>(self, kept: T, incoming: T) -> bool {
        match self {
            ExtremumKind::Min => kept <= incoming,
            ExtremumKind::Max => kept >= incoming,
        }
    }
}

/// Number of erosion/dilation passes the baseline filter runs per input
/// sample: 2 openings + 2 closings, each an erosion followed by a dilation.
pub const MORPHOLOGY_PASSES: usize = 8;

/// Amortised comparisons per input sample of one deque-kernel pass,
/// independent of the structuring-element length: one wedge-domination test
/// per push (each sample is popped at most once, amortising the pop loop to
/// one extra comparison) plus one front-expiry test per output.
pub const DEQUE_COMPARISONS_PER_SAMPLE: usize = 3;

/// The effective (odd, centred) window of a structuring element of `size`
/// samples: `2·(size/2) + 1`. This is the **single normalisation point** for
/// the even-`size` asymmetry — an even `size` silently yields a
/// `size + 1`-sample window — used by the batch deque kernel, the naive
/// reference and the streaming operators alike, so all three agree for every
/// window parity.
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn effective_window(size: usize) -> usize {
    assert!(size > 0, "structuring element must be non-empty");
    2 * (size / 2) + 1
}

/// Flat-structuring-element erosion: each output sample is the minimum of the
/// input over [`effective_window(size)`](effective_window) samples centred on
/// it (edges are clamped).
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn erode(signal: &[f64], size: usize) -> Vec<f64> {
    let mut out = Vec::new();
    erode_into(signal, size, &mut FrontendScratch::default(), &mut out);
    out
}

/// Flat-structuring-element dilation: each output sample is the maximum of
/// the input over [`effective_window(size)`](effective_window) samples
/// centred on it.
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn dilate(signal: &[f64], size: usize) -> Vec<f64> {
    let mut out = Vec::new();
    dilate_into(signal, size, &mut FrontendScratch::default(), &mut out);
    out
}

/// [`erode`] against caller-owned scratch: `out` is cleared and refilled, and
/// nothing is allocated once the scratch has grown to size.
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn erode_into(signal: &[f64], size: usize, scratch: &mut FrontendScratch, out: &mut Vec<f64>) {
    sliding_extreme_into(signal, size, ExtremumKind::Min, &mut scratch.wedge, out);
}

/// [`dilate`] against caller-owned scratch (see [`erode_into`]).
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn dilate_into(signal: &[f64], size: usize, scratch: &mut FrontendScratch, out: &mut Vec<f64>) {
    sliding_extreme_into(signal, size, ExtremumKind::Max, &mut scratch.wedge, out);
}

/// The O(n) monotone-deque sliding extremum. The wedge holds indices whose
/// values are monotone (front = current extremum); each index is pushed once
/// and popped at most once, so the whole pass is O(n) with
/// ~[`DEQUE_COMPARISONS_PER_SAMPLE`] comparisons per sample. Borders are
/// clamped exactly like the naive reference: output `i` covers
/// `[i−half, min(i+half+1, n))`.
fn sliding_extreme_into(
    signal: &[f64],
    size: usize,
    kind: ExtremumKind,
    wedge: &mut VecDeque<usize>,
    out: &mut Vec<f64>,
) {
    let half = effective_window(size) / 2;
    let n = signal.len();
    out.clear();
    wedge.clear();
    if n == 0 {
        return;
    }
    out.reserve(n);
    for j in 0..n {
        let incoming = signal[j];
        while let Some(&back) = wedge.back() {
            if kind.dominates(signal[back], incoming) {
                break;
            }
            wedge.pop_back();
        }
        wedge.push_back(j);
        if j >= half {
            let centre = j - half;
            emit_extremum(signal, centre, half, wedge, out);
        }
    }
    // Right border: the window clamps at the signal end and shrinks, exactly
    // like the naive reference (and the streaming operators' `finish` drain).
    for centre in n.saturating_sub(half.min(n))..n {
        emit_extremum(signal, centre, half, wedge, out);
    }
}

/// Expires wedge entries left of `centre − half` and emits the front value.
#[inline]
fn emit_extremum(
    signal: &[f64],
    centre: usize,
    half: usize,
    wedge: &mut VecDeque<usize>,
    out: &mut Vec<f64>,
) {
    while wedge.front().is_some_and(|&front| front + half < centre) {
        wedge.pop_front();
    }
    let front = *wedge
        .front()
        .expect("window always covers its newest index");
    out.push(signal[front]);
}

/// The naive O(n·w) sliding extremum: rescans the clamped window for every
/// output sample. Kept as the equivalence oracle for the deque kernel
/// (`tests/frontend_equivalence.rs`), the naive side of the
/// `frontend_throughput` bench, and the pre-deque reference of the embedded
/// cost model.
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn sliding_extreme_naive(signal: &[f64], size: usize, kind: ExtremumKind) -> Vec<f64> {
    let (pick, identity): (fn(f64, f64) -> f64, f64) = match kind {
        ExtremumKind::Min => (f64::min, f64::INFINITY),
        ExtremumKind::Max => (f64::max, f64::NEG_INFINITY),
    };
    let half = effective_window(size) / 2;
    let n = signal.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let mut ext = identity;
        for &s in &signal[lo..hi] {
            ext = pick(ext, s);
        }
        out.push(ext);
    }
    out
}

/// Morphological opening: erosion followed by dilation. Removes upward peaks
/// narrower than the structuring element.
pub fn open(signal: &[f64], size: usize) -> Vec<f64> {
    let mut out = Vec::new();
    open_into(signal, size, &mut FrontendScratch::default(), &mut out);
    out
}

/// Morphological closing: dilation followed by erosion. Removes downward
/// spikes narrower than the structuring element.
pub fn close(signal: &[f64], size: usize) -> Vec<f64> {
    let mut out = Vec::new();
    close_into(signal, size, &mut FrontendScratch::default(), &mut out);
    out
}

/// [`open`] against caller-owned scratch (see [`erode_into`]).
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn open_into(signal: &[f64], size: usize, scratch: &mut FrontendScratch, out: &mut Vec<f64>) {
    let FrontendScratch { wedge, stage_a, .. } = scratch;
    sliding_extreme_into(signal, size, ExtremumKind::Min, wedge, stage_a);
    sliding_extreme_into(stage_a, size, ExtremumKind::Max, wedge, out);
}

/// [`close`] against caller-owned scratch (see [`erode_into`]).
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn close_into(signal: &[f64], size: usize, scratch: &mut FrontendScratch, out: &mut Vec<f64>) {
    let FrontendScratch { wedge, stage_a, .. } = scratch;
    sliding_extreme_into(signal, size, ExtremumKind::Max, wedge, stage_a);
    sliding_extreme_into(stage_a, size, ExtremumKind::Min, wedge, out);
}

/// Baseline-wander removal filter built from morphological opening/closing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorphologicalFilter {
    /// First structuring element length in samples (slightly longer than the
    /// QRS complex; the reference uses ≈0.2 s).
    pub qrs_element: usize,
    /// Second structuring element length in samples (longer than a full beat;
    /// the reference uses ≈0.53 s).
    pub beat_element: usize,
}

impl MorphologicalFilter {
    /// Filter tuned for a given sampling frequency, using the reference
    /// structuring-element durations (0.2 s and 0.53 s).
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive.
    pub fn for_sampling_rate(fs: f64) -> Self {
        assert!(fs > 0.0, "sampling frequency must be positive");
        MorphologicalFilter {
            qrs_element: ((0.2 * fs).round() as usize).max(1),
            beat_element: ((0.53 * fs).round() as usize).max(1),
        }
    }

    /// Estimates the baseline of `signal`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn baseline(&self, signal: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.baseline_into(signal, &mut FrontendScratch::default(), &mut out)?;
        Ok(out)
    }

    /// [`Self::baseline`] against caller-owned scratch: the six intermediate
    /// passes live in `scratch` and `out` receives the estimate, with no
    /// allocation once the buffers have grown to size.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn baseline_into(
        &self,
        signal: &[f64],
        scratch: &mut FrontendScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let required = self.beat_element.max(self.qrs_element);
        if signal.len() < required {
            return Err(DspError::SignalTooShort {
                required,
                provided: signal.len(),
            });
        }
        let FrontendScratch {
            wedge,
            stage_a,
            stage_b,
            stage_c,
            ..
        } = scratch;
        // Stage 1: remove beats (opening then closing with the short
        // element); the four passes ping-pong between two buffers.
        sliding_extreme_into(signal, self.qrs_element, ExtremumKind::Min, wedge, stage_a);
        sliding_extreme_into(stage_a, self.qrs_element, ExtremumKind::Max, wedge, stage_b);
        sliding_extreme_into(stage_b, self.qrs_element, ExtremumKind::Max, wedge, stage_a);
        sliding_extreme_into(stage_a, self.qrs_element, ExtremumKind::Min, wedge, stage_b);
        // Stage 2 on the stage-1 output (now in `stage_b`): opening into
        // `stage_c`, then closing back into `stage_b` (its last read), and
        // the average of the two to avoid the bias either one introduces
        // alone — same expressions, same order as the allocating original.
        sliding_extreme_into(
            stage_b,
            self.beat_element,
            ExtremumKind::Min,
            wedge,
            stage_a,
        );
        sliding_extreme_into(
            stage_a,
            self.beat_element,
            ExtremumKind::Max,
            wedge,
            stage_c,
        );
        sliding_extreme_into(
            stage_b,
            self.beat_element,
            ExtremumKind::Max,
            wedge,
            stage_a,
        );
        sliding_extreme_into(
            stage_a,
            self.beat_element,
            ExtremumKind::Min,
            wedge,
            stage_b,
        );
        out.clear();
        out.reserve(signal.len());
        out.extend(
            stage_c
                .iter()
                .zip(stage_b.iter())
                .map(|(a, b)| 0.5 * (a + b)),
        );
        Ok(())
    }

    /// Removes the baseline from `signal`, returning the corrected signal.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn apply(&self, signal: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.apply_into(signal, &mut FrontendScratch::default(), &mut out)?;
        Ok(out)
    }

    /// [`Self::apply`] against caller-owned scratch (see
    /// [`Self::baseline_into`]): bit-identical output, zero steady-state
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn apply_into(
        &self,
        signal: &[f64],
        scratch: &mut FrontendScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.baseline_into(signal, scratch, out)?;
        for (corrected, &s) in out.iter_mut().zip(signal) {
            *corrected = s - *corrected;
        }
        Ok(())
    }

    /// The naive (pre-deque) filter: every pass rescans its window. Kept as
    /// the equivalence oracle — [`Self::apply`] must match it exactly — and
    /// the naive side of the `frontend_throughput` bench.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn apply_naive(&self, signal: &[f64]) -> Result<Vec<f64>> {
        let required = self.beat_element.max(self.qrs_element);
        if signal.len() < required {
            return Err(DspError::SignalTooShort {
                required,
                provided: signal.len(),
            });
        }
        let naive = |signal: &[f64], size: usize, kind| sliding_extreme_naive(signal, size, kind);
        let open = |signal: &[f64], size: usize| {
            naive(
                &naive(signal, size, ExtremumKind::Min),
                size,
                ExtremumKind::Max,
            )
        };
        let close = |signal: &[f64], size: usize| {
            naive(
                &naive(signal, size, ExtremumKind::Max),
                size,
                ExtremumKind::Min,
            )
        };
        let stage1 = close(&open(signal, self.qrs_element), self.qrs_element);
        let opened = open(&stage1, self.beat_element);
        let closed = close(&stage1, self.beat_element);
        Ok(signal
            .iter()
            .zip(opened.iter().zip(&closed))
            .map(|(s, (a, b))| s - 0.5 * (a + b))
            .collect())
    }

    /// Comparison operations per input sample of the **shipped deque
    /// kernel** — [`MORPHOLOGY_PASSES`] passes at
    /// ~[`DEQUE_COMPARISONS_PER_SAMPLE`] amortised comparisons each,
    /// independent of the structuring-element lengths. Used by the platform
    /// cycle model of `hbc-embedded`.
    pub fn comparisons_per_sample(&self) -> usize {
        MORPHOLOGY_PASSES * DEQUE_COMPARISONS_PER_SAMPLE
    }

    /// Comparison operations per input sample of the **naive window scan**
    /// (one comparison per effective-window element per pass), the cost the
    /// embedded model charged before the deque kernel shipped. Kept so
    /// reports can call out the model delta.
    pub fn naive_comparisons_per_sample(&self) -> usize {
        4 * effective_window(self.qrs_element) + 4 * effective_window(self.beat_element)
    }
}

impl Default for MorphologicalFilter {
    fn default() -> Self {
        MorphologicalFilter::for_sampling_rate(360.0)
    }
}

/// Simple moving-average smoother, used by the delineator to stabilise the
/// MMD signal.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::new();
    moving_average_into(signal, window, &mut out);
    out
}

/// [`moving_average`] into a caller-owned buffer (cleared first), so a
/// streaming caller reuses one allocation.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn moving_average_into(signal: &[f64], window: usize, out: &mut Vec<f64>) {
    assert!(window > 0, "window must be non-empty");
    let n = signal.len();
    let half = window / 2;
    out.clear();
    out.reserve(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let sum: f64 = signal[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_ecg_with_drift(n: usize, fs: f64) -> (Vec<f64>, Vec<f64>) {
        // Impulsive "QRS" every second plus a slow sinusoidal drift.
        let mut clean = vec![0.0; n];
        let mut drift = vec![0.0; n];
        for i in 0..n {
            let t = i as f64 / fs;
            drift[i] = 0.4 * (2.0 * std::f64::consts::PI * 0.2 * t).sin();
            if (i % fs as usize) < 20 {
                clean[i] = 1.0 * (-((i % fs as usize) as f64 - 10.0).powi(2) / 8.0).exp();
            }
        }
        let noisy: Vec<f64> = clean.iter().zip(&drift).map(|(c, d)| c + d).collect();
        (clean, noisy)
    }

    #[test]
    fn erosion_and_dilation_are_extremes() {
        let x = vec![0.0, 1.0, 5.0, 1.0, 0.0, -3.0, 0.0];
        let e = erode(&x, 3);
        let d = dilate(&x, 3);
        for i in 0..x.len() {
            assert!(e[i] <= x[i] && x[i] <= d[i]);
        }
        assert_eq!(e[5], -3.0);
        assert_eq!(d[2], 5.0);
    }

    #[test]
    fn deque_kernel_matches_naive_reference() {
        let (_, signal) = synthetic_ecg_with_drift(700, 360.0);
        for size in [1, 2, 3, 4, 7, 8, 31, 50, 132, 133, 699, 700, 1400] {
            for kind in [ExtremumKind::Min, ExtremumKind::Max] {
                let naive = sliding_extreme_naive(&signal, size, kind);
                let deque = match kind {
                    ExtremumKind::Min => erode(&signal, size),
                    ExtremumKind::Max => dilate(&signal, size),
                };
                assert_eq!(deque, naive, "size {size}, {kind:?}");
            }
        }
    }

    #[test]
    fn even_sizes_share_the_next_odd_effective_window() {
        // The single normalisation point: size 2k and 2k+1 behave identically.
        assert_eq!(effective_window(4), 5);
        assert_eq!(effective_window(5), 5);
        assert_eq!(effective_window(1), 1);
        let (_, signal) = synthetic_ecg_with_drift(200, 360.0);
        for even in [2usize, 4, 8, 72] {
            assert_eq!(erode(&signal, even), erode(&signal, even + 1));
            assert_eq!(dilate(&signal, even), dilate(&signal, even + 1));
        }
    }

    #[test]
    fn opening_removes_narrow_peaks_closing_removes_narrow_valleys() {
        let mut x = vec![0.0; 50];
        x[25] = 10.0; // one-sample spike
        let o = open(&x, 5);
        assert!(
            o.iter().all(|&v| v.abs() < 1e-12),
            "opening removes the spike"
        );
        let mut y = vec![0.0; 50];
        y[25] = -10.0;
        let c = close(&y, 5);
        assert!(
            c.iter().all(|&v| v.abs() < 1e-12),
            "closing removes the dip"
        );
    }

    #[test]
    fn idempotence_of_opening_and_closing() {
        let x: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.3).sin() * 2.0).collect();
        let once = open(&x, 7);
        let twice = open(&once, 7);
        for (a, b) in once.iter().zip(&twice) {
            assert!((a - b).abs() < 1e-12, "opening is idempotent");
        }
        let once = close(&x, 7);
        let twice = close(&once, 7);
        for (a, b) in once.iter().zip(&twice) {
            assert!((a - b).abs() < 1e-12, "closing is idempotent");
        }
    }

    #[test]
    fn baseline_removal_recovers_flat_baseline() {
        let fs = 360.0;
        let (clean, noisy) = synthetic_ecg_with_drift(3600, fs);
        let filter = MorphologicalFilter::for_sampling_rate(fs);
        let corrected = filter.apply(&noisy).expect("long enough");
        // After correction the residual drift (measured away from beats)
        // should be far smaller than the original 0.4 mV drift.
        let mut residual: f64 = 0.0;
        let mut count = 0;
        for i in 400..3200 {
            if clean[i].abs() < 1e-6 {
                residual += corrected[i].abs();
                count += 1;
            }
        }
        let mean_residual = residual / count as f64;
        assert!(
            mean_residual < 0.08,
            "baseline residual {mean_residual} should be well below the 0.4 drift"
        );
        // The QRS peaks must survive filtering.
        let max_after = corrected.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max_after > 0.7,
            "QRS amplitude should be preserved, got {max_after}"
        );
    }

    #[test]
    fn apply_matches_the_naive_reference_and_scratch_reuse_is_transparent() {
        let fs = 360.0;
        let (_, noisy) = synthetic_ecg_with_drift(2000, fs);
        let filter = MorphologicalFilter::for_sampling_rate(fs);
        let naive = filter.apply_naive(&noisy).expect("long enough");
        let deque = filter.apply(&noisy).expect("long enough");
        assert_eq!(deque, naive, "deque chain must equal the naive chain");
        // One scratch reused across calls (different signals) stays exact.
        let mut scratch = FrontendScratch::default();
        let mut out = Vec::new();
        for n in [2000, 1500, 1999] {
            filter
                .apply_into(&noisy[..n], &mut scratch, &mut out)
                .expect("long enough");
            assert_eq!(out, filter.apply_naive(&noisy[..n]).expect("long enough"));
        }
    }

    #[test]
    fn too_short_signal_is_an_error() {
        let filter = MorphologicalFilter::for_sampling_rate(360.0);
        let r = filter.apply(&[0.0; 10]);
        assert!(matches!(r, Err(DspError::SignalTooShort { .. })));
        assert!(matches!(
            filter.apply_naive(&[0.0; 10]),
            Err(DspError::SignalTooShort { .. })
        ));
        assert!(matches!(
            filter.baseline(&[0.0; 10]),
            Err(DspError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn default_filter_matches_360_hz() {
        let f = MorphologicalFilter::default();
        assert_eq!(f.qrs_element, 72);
        assert_eq!(f.beat_element, 191);
        // The deque cost is window-independent; the naive reference scales
        // with the effective windows.
        assert_eq!(
            f.comparisons_per_sample(),
            MORPHOLOGY_PASSES * DEQUE_COMPARISONS_PER_SAMPLE
        );
        assert_eq!(f.naive_comparisons_per_sample(), 4 * 73 + 4 * 191);
        assert!(f.naive_comparisons_per_sample() > 10 * f.comparisons_per_sample());
    }

    #[test]
    fn moving_average_smooths_and_preserves_mean() {
        let x: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let y = moving_average(&x, 4);
        let energy_before: f64 = x.iter().map(|v| v * v).sum();
        let energy_after: f64 = y.iter().map(|v| v * v).sum();
        assert!(energy_after < energy_before / 4.0);
        let flat = vec![2.5; 30];
        let smoothed = moving_average(&flat, 7);
        assert!(smoothed.iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }

    #[test]
    fn empty_signal_yields_empty_output() {
        assert!(erode(&[], 3).is_empty());
        assert!(dilate(&[], 3).is_empty());
        assert!(sliding_extreme_naive(&[], 3, ExtremumKind::Min).is_empty());
    }

    #[test]
    #[should_panic(expected = "structuring element must be non-empty")]
    fn zero_size_panics() {
        erode(&[0.0; 4], 0);
    }
}

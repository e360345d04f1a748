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
//! ## One kernel and its oracle
//!
//! Every operator is a sliding-window extremum. Production code runs one
//! kernel for it, the streaming van Herk / Gil–Werman
//! [`SlidingExtremum`](crate::streaming::SlidingExtremum): prefix and
//! suffix extrema over blocks of the window length, no data-dependent loop,
//! ~[`EXTREMUM_COMPARISONS_PER_SAMPLE`] comparisons per sample *independent
//! of the window length*. [`MorphologicalFilter::apply`] pushes the whole
//! signal through a [`StreamingBaselineFilter`] built from the filter's own
//! geometry and drains its right border, so record processing and the
//! gateway's sessions run the same code.
//!
//! The naive O(n·w) per-output window rescan is kept as
//! [`sliding_extreme_naive`] and [`MorphologicalFilter::apply_naive`]. It
//! is the oracle the streaming kernel is tested against
//! (`tests/frontend_equivalence.rs`, `tests/streaming_parity.rs`), the naive
//! side of the `frontend_throughput` bench and the pre-kernel reference of
//! the embedded cost model. Both keep the earlier sample on ties and clamp
//! borders the same way, and since min/max are pure comparisons the two are
//! *exactly* equal for every window parity and border position.
//!
//! ## Window normalisation
//!
//! A structuring element of `size` samples is centred on the output sample,
//! which only has a symmetric meaning for odd `size`. The effective window is
//! normalised in **one place** — [`effective_window`]: `2·(size/2) + 1`
//! samples, so an even `size` yields a `size + 1`-sample window. The
//! streaming operators and the naive oracle both derive their geometry from
//! it and therefore agree for every parity.

use crate::streaming::{Millivolts, SampleScale, StreamingBaselineFilter};
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
    /// Whether a kept value still dominates an incoming one (ties keep the
    /// earlier sample, like the naive oracle's left-to-right scan).
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

/// Comparisons per input sample of one van Herk / Gil–Werman pass,
/// independent of the structuring-element length: one to extend the
/// running prefix extremum, one to pick between it and the previous
/// block's suffix extremum, and one in the backward pass that builds the
/// suffix extrema of each completed block.
pub const EXTREMUM_COMPARISONS_PER_SAMPLE: usize = 3;

/// The effective (odd, centred) window of a structuring element of `size`
/// samples: `2·(size/2) + 1`. This is the **single normalisation point** for
/// the even-`size` asymmetry — an even `size` silently yields a
/// `size + 1`-sample window — used by the streaming operators and the naive
/// oracle alike, so both agree for every window parity.
///
/// # Panics
///
/// Panics if `size == 0`.
pub fn effective_window(size: usize) -> usize {
    assert!(size > 0, "structuring element must be non-empty");
    2 * (size / 2) + 1
}

/// The naive O(n·w) sliding extremum: rescans the clamped window
/// `[i−half, min(i+half+1, n))` for every output sample `i`. Kept as the
/// oracle of the streaming kernel (`tests/frontend_equivalence.rs`), the
/// naive side of the `frontend_throughput` bench, and the pre-kernel
/// reference of the embedded cost model.
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

/// Baseline-wander removal filter built from morphological opening/closing.
///
/// The filter is its geometry — the two structuring-element lengths — which
/// the streaming filter, the oracle and the embedded cycle model (Table III)
/// all read; [`Self::apply`] runs it through the streaming kernel.
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

    /// Removes the baseline from `signal`, returning the corrected signal.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn apply(&self, signal: &[f64]) -> Result<Vec<f64>> {
        self.apply_scaled(Millivolts, signal)
    }

    /// [`Self::apply`] over input samples read through `scale` (ADC codes,
    /// for instance): the whole signal goes through one
    /// [`StreamingBaselineFilter`] with this filter's geometry, whose right
    /// border is then drained. The output equals [`Self::apply`] of the
    /// signal converted to millivolts, bit for bit (see [`SampleScale`]).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn apply_scaled<S: SampleScale>(&self, scale: S, signal: &[S::Sample]) -> Result<Vec<f64>> {
        self.check_length(signal.len())?;
        let mut filter = StreamingBaselineFilter::with_geometry(*self, scale);
        let mut out = vec![0.0; signal.len()];
        let produced = filter.push_chunk(signal, &mut out);
        out.truncate(produced);
        filter.finish_into(&mut out);
        Ok(out)
    }

    /// Rejects signals shorter than the longest structuring element.
    fn check_length(&self, provided: usize) -> Result<()> {
        let required = self.beat_element.max(self.qrs_element);
        if provided < required {
            return Err(DspError::SignalTooShort { required, provided });
        }
        Ok(())
    }

    /// The naive filter: every pass rescans its window. Kept as the oracle
    /// — [`Self::apply`] and every streaming filter must match it exactly —
    /// and the naive side of the `frontend_throughput` bench.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the signal is shorter than
    /// the longest structuring element.
    pub fn apply_naive(&self, signal: &[f64]) -> Result<Vec<f64>> {
        self.check_length(signal.len())?;
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

    /// Comparison operations per input sample of the **shipped van Herk
    /// kernel** — [`MORPHOLOGY_PASSES`] passes at
    /// [`EXTREMUM_COMPARISONS_PER_SAMPLE`] comparisons each, independent of
    /// the structuring-element lengths. Used by the platform cycle model of
    /// `hbc-embedded`.
    pub fn comparisons_per_sample(&self) -> usize {
        MORPHOLOGY_PASSES * EXTREMUM_COMPARISONS_PER_SAMPLE
    }

    /// Comparison operations per input sample of the **naive window scan**
    /// (one comparison per effective-window element per pass), the cost the
    /// embedded model charged before an O(1)-per-sample kernel shipped. Kept
    /// so reports can call out the model delta.
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
    use crate::streaming::{StreamingDilation, StreamingErosion};

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

    /// Erosion and dilation of `x` through the shipped streaming operators,
    /// right border drained.
    fn erode(x: &[f64], size: usize) -> Vec<f64> {
        let mut op = StreamingErosion::new(size);
        let mut out: Vec<f64> = x.iter().filter_map(|&s| op.push(s)).collect();
        out.extend(std::iter::from_fn(|| op.finish_one()));
        out
    }

    fn dilate(x: &[f64], size: usize) -> Vec<f64> {
        let mut op = StreamingDilation::new(size);
        let mut out: Vec<f64> = x.iter().filter_map(|&s| op.push(s)).collect();
        out.extend(std::iter::from_fn(|| op.finish_one()));
        out
    }

    fn open(x: &[f64], size: usize) -> Vec<f64> {
        dilate(&erode(x, size), size)
    }

    fn close(x: &[f64], size: usize) -> Vec<f64> {
        erode(&dilate(x, size), size)
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

    // The shipped streaming kernel against the naive rescan. (The name dates
    // from the monotone-deque kernel the streaming one replaced.)
    #[test]
    fn deque_kernel_matches_naive_reference() {
        let (_, signal) = synthetic_ecg_with_drift(700, 360.0);
        for size in [1, 2, 3, 4, 7, 8, 31, 50, 132, 133, 699, 700, 1400] {
            for kind in [ExtremumKind::Min, ExtremumKind::Max] {
                let naive = sliding_extreme_naive(&signal, size, kind);
                let streamed = match kind {
                    ExtremumKind::Min => erode(&signal, size),
                    ExtremumKind::Max => dilate(&signal, size),
                };
                assert_eq!(streamed, naive, "size {size}, {kind:?}");
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
            for kind in [ExtremumKind::Min, ExtremumKind::Max] {
                assert_eq!(
                    sliding_extreme_naive(&signal, even, kind),
                    sliding_extreme_naive(&signal, even + 1, kind)
                );
            }
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
        // Lengths around the filter's 334-sample group delay and the
        // longest element, and calls on different lengths in a row: every
        // call builds its own streaming filter, so nothing carries over.
        for n in [2000, 191, 200, 333, 334, 335, 1500, 1999] {
            assert_eq!(
                filter.apply(&noisy[..n]).expect("long enough"),
                filter.apply_naive(&noisy[..n]).expect("long enough"),
                "n = {n}"
            );
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
        assert_eq!(
            filter.apply(&[0.0; 190]),
            Err(DspError::SignalTooShort {
                required: 191,
                provided: 190
            })
        );
    }

    #[test]
    fn default_filter_matches_360_hz() {
        let f = MorphologicalFilter::default();
        assert_eq!(f.qrs_element, 72);
        assert_eq!(f.beat_element, 191);
        // The kernel's cost is window-independent; the naive reference
        // scales with the effective windows.
        assert_eq!(
            f.comparisons_per_sample(),
            MORPHOLOGY_PASSES * EXTREMUM_COMPARISONS_PER_SAMPLE
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
        sliding_extreme_naive(&[0.0; 4], 0, ExtremumKind::Min);
    }
}

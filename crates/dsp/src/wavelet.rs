//! À-trous dyadic wavelet transform.
//!
//! The peak detector of the paper (taken from Rincón et al.) decomposes the
//! ECG into four dyadic scales of a quadratic-spline wavelet using the
//! *algorithme à trous*: at scale `j`, the signal is convolved with the
//! derivative-of-smoothing filter whose taps are spaced by `2^(j-1)` zeros.
//! QRS complexes produce a positive-maximum / negative-minimum pair across
//! all four scales, whose zero crossing on the first scale marks the R peak.
//!
//! The filters used here are the classic Mallat quadratic-spline pair also
//! used by the Martínez et al. wavelet delineator:
//!
//! * low-pass  `h = (1/8)·[1, 3, 3, 1]`
//! * high-pass `g = 2·[1, −1]`
//!
//! Because the taps are tiny integers, the transform can run with shifts and
//! additions on the WBSN; `hbc-embedded` meters its integer cost. The
//! whole-signal implementation below is the reference for verification; the
//! firmware runs the same arithmetic as the push-based cascade of
//! [`crate::streaming::StreamingWavelet`].

use crate::{DspError, Result};

/// Number of dyadic scales used by the peak detector of the paper.
pub const DEFAULT_SCALES: usize = 4;

/// À-trous dyadic wavelet transform with the quadratic-spline filter pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DyadicWavelet {
    /// Number of scales to compute.
    pub scales: usize,
}

impl DyadicWavelet {
    /// Transform with the paper's four scales.
    pub fn new() -> Self {
        DyadicWavelet {
            scales: DEFAULT_SCALES,
        }
    }

    /// Transform with a custom number of scales.
    ///
    /// # Panics
    ///
    /// Panics if `scales == 0`.
    pub fn with_scales(scales: usize) -> Self {
        assert!(scales > 0, "at least one scale is required");
        DyadicWavelet { scales }
    }

    /// Minimum signal length the transform accepts for its configured scales
    /// (the largest filter support).
    pub fn minimum_length(&self) -> usize {
        // Largest spacing is 2^(scales-1); the low-pass filter spans
        // 3*spacing+1 samples.
        3 * (1 << (self.scales - 1)) + 1
    }

    /// Computes the wavelet detail coefficients at every scale.
    ///
    /// Returns one vector per scale, each the same length as the input.
    ///
    /// This whole-signal transform is the **oracle** of the streaming
    /// cascade ([`crate::streaming::StreamingWavelet`]): no production path
    /// runs it. The parity suites test the cascade against it bit for bit,
    /// [`PeakDetector::detect`](crate::peak::PeakDetector::detect) (the
    /// detector's oracle) runs on it, and the `frontend_throughput` bench
    /// times it as the reference.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the input is shorter than
    /// [`Self::minimum_length`].
    pub fn transform(&self, signal: &[f64]) -> Result<Vec<Vec<f64>>> {
        if signal.len() < self.minimum_length() {
            return Err(DspError::SignalTooShort {
                required: self.minimum_length(),
                provided: signal.len(),
            });
        }
        // Scale `s` filters the previous approximation with taps `2^s`
        // apart: detail `g`, next approximation `h`, borders reflected.
        let mut details = Vec::with_capacity(self.scales);
        let mut approx = signal.to_vec();
        for scale in 0..self.scales {
            let (s, n) = (1isize << scale, approx.len());
            let x = |i: isize| approx[reflect(i, n)];
            details.push((0..n as isize).map(|i| 2.0 * (x(i + s) - x(i))).collect());
            approx = (0..n as isize)
                .map(|i| (x(i - s) + 3.0 * x(i) + 3.0 * x(i + s) + x(i + 2 * s)) / 8.0)
                .collect();
        }
        Ok(details)
    }
}

impl Default for DyadicWavelet {
    fn default() -> Self {
        DyadicWavelet::new()
    }
}

/// Reflects an index into `[0, n)` (symmetric border extension).
fn reflect(i: isize, n: usize) -> usize {
    let n = n as isize;
    let mut i = i;
    if n == 1 {
        return 0;
    }
    loop {
        if i < 0 {
            i = -i;
        } else if i >= n {
            i = 2 * (n - 1) - i;
        } else {
            return i as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflect_handles_borders() {
        assert_eq!(reflect(-1, 10), 1);
        assert_eq!(reflect(-3, 10), 3);
        assert_eq!(reflect(0, 10), 0);
        assert_eq!(reflect(9, 10), 9);
        assert_eq!(reflect(10, 10), 8);
        assert_eq!(reflect(12, 10), 6);
        assert_eq!(reflect(5, 1), 0);
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        let w = DyadicWavelet::new();
        let signal = vec![3.3; 256];
        let details = w.transform(&signal).expect("long enough");
        assert_eq!(details.len(), 4);
        for d in &details {
            assert!(d.iter().all(|&v| v.abs() < 1e-12));
        }
    }

    #[test]
    fn linear_ramp_has_constant_detail() {
        // The detail filter is a first difference, so a ramp gives a constant
        // (away from the borders).
        let w = DyadicWavelet::with_scales(1);
        let signal: Vec<f64> = (0..128).map(|i| 0.5 * i as f64).collect();
        let d = &w.transform(&signal).expect("ok")[0];
        for &v in &d[2..120] {
            assert!(
                (v - 1.0).abs() < 1e-9,
                "2*(x[i+1]-x[i]) = 2*0.5 = 1, got {v}"
            );
        }
    }

    #[test]
    fn step_edge_produces_extremum_pair_across_scales() {
        // A sharp edge (like the QRS upstroke) must produce a large response
        // at every scale, centred near the edge.
        let mut signal = vec![0.0; 256];
        for s in signal.iter_mut().skip(128) {
            *s = 1.0;
        }
        let w = DyadicWavelet::new();
        let details = w.transform(&signal).expect("ok");
        for (scale, d) in details.iter().enumerate() {
            let (argmax, max) =
                d.iter().enumerate().fold(
                    (0, f64::MIN),
                    |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc },
                );
            assert!(max > 0.5, "scale {scale} should respond to the edge");
            assert!(
                (argmax as isize - 128).unsigned_abs() <= (2 << scale),
                "scale {scale} extremum at {argmax}, too far from the edge"
            );
        }
    }

    #[test]
    fn too_short_signal_is_rejected() {
        let w = DyadicWavelet::new();
        assert_eq!(w.minimum_length(), 25);
        assert!(matches!(
            w.transform(&[0.0; 10]),
            Err(DspError::SignalTooShort { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one scale")]
    fn zero_scales_panics() {
        DyadicWavelet::with_scales(0);
    }

    #[test]
    fn scales_increasingly_smooth_high_frequencies() {
        // Alternating signal: the first scale responds strongly, the fourth
        // barely at all (its filters span many samples).
        let signal: Vec<f64> = (0..256)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let details = DyadicWavelet::new().transform(&signal).expect("ok");
        let energy = |d: &[f64]| d.iter().map(|v| v * v).sum::<f64>();
        assert!(
            energy(&details[0]) > 10.0 * energy(&details[3]),
            "scale 1 energy {} should dominate scale 4 energy {}",
            energy(&details[0]),
            energy(&details[3])
        );
    }
}

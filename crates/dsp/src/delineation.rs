//! Multi-scale morphological derivative (MMD) delineation.
//!
//! The "detailed analysis" the RP classifier gates (sub-system (2) of
//! Figure 6) is a three-lead wave delineator based on multi-scale
//! morphological derivatives, following Rincón et al. For every beat it
//! produces the nine fiducial points the WBSN would transmit for a
//! pathological beat: onset, peak and end of the P wave, the QRS complex and
//! the T wave.
//!
//! The MMD operator at scale `s` is
//! `MMD(x, i) = max(x[i−s..=i]) + min(x[i..=i+s]) − 2·x[i]` — a second-
//! derivative-like operator computable with comparisons only. Wave onsets and
//! ends appear as MMD maxima surrounding a wave peak; the wave peak itself is
//! the extremum of the filtered signal between them.
//!
//! Like the morphological baseline filter, the per-sample window scans of the
//! operator are sliding extrema, so [`Delineator::mmd`] runs on the same
//! monotone-wedge kernel ([`SlidingExtremum`]) as the rest of the front-end:
//! the trailing maximum is one forward pass with a `s + 1`-sample wedge, the
//! leading minimum one backward pass, O(n) total and independent of the
//! scale. The original per-output rescans are kept as
//! [`Delineator::mmd_naive`] — the equivalence oracle (min/max are pure
//! comparisons, so the two are *exactly* equal) and the pre-deque reference
//! of the embedded cycle model.

use crate::filter::moving_average_into;
use crate::streaming::{ExtremumKind, SlidingExtremum};
use crate::{DspError, Result};

/// One fiducial point: a sample index inside the analysed window, or absent
/// when the wave could not be found (e.g. no P wave in a PVC).
pub type FiducialPoint = Option<usize>;

/// Onset / peak / end triple of one characteristic wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaveFiducials {
    /// Sample index of the wave onset.
    pub onset: FiducialPoint,
    /// Sample index of the wave peak.
    pub peak: FiducialPoint,
    /// Sample index of the wave end.
    pub end: FiducialPoint,
}

impl WaveFiducials {
    /// Number of fiducial points actually located (0–3).
    pub fn count(&self) -> usize {
        [self.onset, self.peak, self.end]
            .iter()
            .filter(|p| p.is_some())
            .count()
    }
}

/// The full set of fiducial points for one beat (P, QRS, T).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BeatFiducials {
    /// P-wave fiducials.
    pub p: WaveFiducials,
    /// QRS-complex fiducials.
    pub qrs: WaveFiducials,
    /// T-wave fiducials.
    pub t: WaveFiducials,
}

impl BeatFiducials {
    /// Total number of fiducial points located (0–9). The paper's wireless
    /// energy model transmits this many points for abnormal beats and only
    /// the R peak for normal ones.
    pub fn count(&self) -> usize {
        self.p.count() + self.qrs.count() + self.t.count()
    }
}

/// Multi-scale morphological derivative delineator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delineator {
    fs: f64,
    /// MMD scale used for the QRS complex, in samples.
    qrs_scale: usize,
    /// MMD scale used for the P and T waves, in samples.
    wave_scale: usize,
}

impl Delineator {
    /// Creates a delineator for signals sampled at `fs` Hz, with scales of
    /// 60 ms (QRS) and 100 ms (P/T) as in the reference implementation.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive.
    pub fn new(fs: f64) -> Self {
        assert!(fs > 0.0, "sampling frequency must be positive");
        Delineator {
            fs,
            qrs_scale: ((0.06 * fs).round() as usize).max(2),
            wave_scale: ((0.10 * fs).round() as usize).max(2),
        }
    }

    /// Sampling frequency the delineator was built for.
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Computes the MMD of `signal` at the given scale with the monotone-
    /// wedge kernel: the trailing maximum `max(x[i−s..=i])` is a forward
    /// [`SlidingExtremum`] pass over the last `s + 1` samples (the wedge
    /// warm-up reproduces the left clamping), the leading minimum
    /// `min(x[i..=i+s])` the same pass over the reversed signal. Two O(n)
    /// passes regardless of the scale, bit-identical to
    /// [`Self::mmd_naive`].
    pub fn mmd(signal: &[f64], scale: usize) -> Vec<f64> {
        let n = signal.len();
        let mut out = vec![0.0; n];
        if n == 0 || scale == 0 {
            return out;
        }
        let mut trailing_max = SlidingExtremum::new(ExtremumKind::Max, scale + 1);
        for (i, &x) in signal.iter().enumerate() {
            // After this push the wedge covers the last `min(i, s) + 1`
            // samples: exactly the clamped window `[i − s, i]`.
            out[i] = trailing_max.push(x);
        }
        let mut leading_min = SlidingExtremum::new(ExtremumKind::Min, scale + 1);
        for (i, &x) in signal.iter().enumerate().rev() {
            // Walking right-to-left, the trailing window of the reversed
            // stream is the clamped leading window `[i, i + s]`. Summed in
            // the oracle's association order, (max + min) − 2x.
            out[i] = (out[i] + leading_min.push(x)) - 2.0 * x;
        }
        out
    }

    /// The naive per-output window rescan of the MMD operator — O(n·s).
    /// Kept as the equivalence oracle for [`Self::mmd`] and as the cost the
    /// embedded cycle model charged before the deque port (see
    /// `hbc_embedded::cycles::naive_delineation_ops_per_beat_per_lead`).
    pub fn mmd_naive(signal: &[f64], scale: usize) -> Vec<f64> {
        let n = signal.len();
        let mut out = vec![0.0; n];
        if n == 0 || scale == 0 {
            return out;
        }
        for i in 0..n {
            let lo = i.saturating_sub(scale);
            let hi = (i + scale + 1).min(n);
            let left_max = signal[lo..=i].iter().cloned().fold(f64::MIN, f64::max);
            let right_min = signal[i..hi].iter().cloned().fold(f64::MAX, f64::min);
            out[i] = left_max + right_min - 2.0 * signal[i];
        }
        out
    }

    /// Delineates a single-lead beat window centred on the R peak at
    /// `peak_index`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::SignalTooShort`] when the window is shorter than
    /// four MMD scales and [`DspError::InvalidParameter`] when `peak_index`
    /// lies outside the window.
    pub fn delineate_beat(&self, window: &[f64], peak_index: usize) -> Result<BeatFiducials> {
        self.delineate_beat_with(window, peak_index, &mut Vec::new())
    }

    /// [`Self::delineate_beat`] with a caller-owned smoothing buffer, so a
    /// streaming caller delineates without allocating once the buffer has
    /// grown to the window length.
    ///
    /// # Errors
    ///
    /// As [`Self::delineate_beat`].
    pub fn delineate_beat_with(
        &self,
        window: &[f64],
        peak_index: usize,
        smoothed: &mut Vec<f64>,
    ) -> Result<BeatFiducials> {
        let required = 4 * self.wave_scale;
        if window.len() < required {
            return Err(DspError::SignalTooShort {
                required,
                provided: window.len(),
            });
        }
        if peak_index >= window.len() {
            return Err(DspError::InvalidParameter(format!(
                "peak index {peak_index} outside the {}-sample window",
                window.len()
            )));
        }
        moving_average_into(window, (0.01 * self.fs).max(1.0) as usize, smoothed);
        let smoothed = smoothed.as_slice();

        // --- QRS ---
        let qrs_half = (0.09 * self.fs) as usize;
        let qrs_lo = peak_index.saturating_sub(qrs_half);
        let qrs_hi = (peak_index + qrs_half).min(window.len());
        let qrs = self.delineate_wave(smoothed, qrs_lo, qrs_hi, self.qrs_scale, true);

        // --- P wave: search before QRS onset ---
        let p_search_hi = qrs.onset.unwrap_or(qrs_lo);
        let p_search_lo = p_search_hi.saturating_sub((0.22 * self.fs) as usize);
        let mut p = if p_search_hi > p_search_lo + self.wave_scale {
            self.delineate_wave(smoothed, p_search_lo, p_search_hi, self.wave_scale, false)
        } else {
            WaveFiducials::default()
        };
        // A genuine P wave is separated from the QRS by the PQ segment; a
        // "wave" hugging the QRS onset is really the start of a wide (e.g.
        // ventricular) QRS complex and must not be reported as P.
        if let Some(peak) = p.peak {
            let pq_gap = (0.05 * self.fs) as usize;
            if peak + pq_gap >= p_search_hi {
                p = WaveFiducials::default();
            }
        }

        // --- T wave: search after QRS end ---
        let t_search_lo = qrs.end.unwrap_or(qrs_hi);
        let t_search_hi = (t_search_lo + (0.36 * self.fs) as usize).min(window.len());
        let t = if t_search_hi > t_search_lo + self.wave_scale {
            self.delineate_wave(smoothed, t_search_lo, t_search_hi, self.wave_scale, false)
        } else {
            WaveFiducials::default()
        };

        Ok(BeatFiducials { p, qrs, t })
    }

    /// Delineates all three leads of a beat and fuses the per-lead results by
    /// majority / earliest-onset, latest-end combination — the multi-lead
    /// strategy of the reference delineator.
    ///
    /// # Errors
    ///
    /// Propagates the single-lead errors; at least one lead must be provided.
    pub fn delineate_multilead(
        &self,
        leads: &[&[f64]],
        peak_index: usize,
    ) -> Result<BeatFiducials> {
        if leads.is_empty() {
            return Err(DspError::InvalidParameter(
                "at least one lead is required".into(),
            ));
        }
        let per_lead: Vec<BeatFiducials> = leads
            .iter()
            .map(|l| self.delineate_beat(l, peak_index))
            .collect::<Result<_>>()?;
        Ok(fuse(&per_lead))
    }

    /// Finds a wave (onset, peak, end) inside `[lo, hi)`.
    ///
    /// The wave peak is the largest excursion of the smoothed signal from the
    /// local baseline (mean of the segment ends). Onset and end are located by
    /// walking away from the peak until the excursion drops below 10 % of the
    /// wave amplitude — the amplitude-threshold simplification of the MMD
    /// corner criterion, which behaves identically on the smooth synthetic
    /// morphologies while being robust to the short search windows used here.
    /// `is_qrs` selects the minimum amplitude a wave must exhibit to be
    /// reported at all (QRS complexes are always large; P/T waves may be
    /// genuinely absent).
    fn delineate_wave(
        &self,
        signal: &[f64],
        lo: usize,
        hi: usize,
        _scale: usize,
        is_qrs: bool,
    ) -> WaveFiducials {
        if hi <= lo || hi - lo < 3 {
            return WaveFiducials::default();
        }
        let segment = &signal[lo..hi];
        // Local baseline = mean of the segment ends.
        let baseline = 0.5 * (segment[0] + segment[segment.len() - 1]);

        // Wave peak: extremum of |signal - baseline|.
        let (rel_peak, amplitude) = segment
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, (v - baseline).abs()))
            .fold((0, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc });
        // A wave must stand out from the baseline to be reported at all.
        let min_amplitude = if is_qrs { 0.05 } else { 0.03 };
        if amplitude < min_amplitude {
            return WaveFiducials::default();
        }
        let peak = lo + rel_peak;
        let threshold = 0.1 * amplitude;

        // Onset: walk left from the peak until the excursion falls below the
        // threshold; end: walk right symmetrically.
        let mut onset_rel = 0usize;
        for i in (0..rel_peak).rev() {
            if (segment[i] - baseline).abs() < threshold {
                onset_rel = i;
                break;
            }
        }
        let mut end_rel = segment.len() - 1;
        for (i, &v) in segment.iter().enumerate().skip(rel_peak + 1) {
            if (v - baseline).abs() < threshold {
                end_rel = i;
                break;
            }
        }

        WaveFiducials {
            onset: Some(lo + onset_rel),
            peak: Some(peak),
            end: Some(lo + end_rel),
        }
    }
}

/// Fuses per-lead fiducials: earliest onset, median peak, latest end, per
/// wave; a wave is reported only when at least half of the leads found it.
fn fuse(per_lead: &[BeatFiducials]) -> BeatFiducials {
    let majority = per_lead.len().div_ceil(2);
    let fuse_wave = |select: fn(&BeatFiducials) -> WaveFiducials| -> WaveFiducials {
        let found: Vec<WaveFiducials> = per_lead
            .iter()
            .map(select)
            .filter(|w| w.peak.is_some())
            .collect();
        if found.len() < majority {
            return WaveFiducials::default();
        }
        let onset = found.iter().filter_map(|w| w.onset).min();
        let end = found.iter().filter_map(|w| w.end).max();
        let mut peaks: Vec<usize> = found.iter().filter_map(|w| w.peak).collect();
        peaks.sort_unstable();
        let peak = Some(peaks[peaks.len() / 2]);
        WaveFiducials { onset, peak, end }
    };
    BeatFiducials {
        p: fuse_wave(|b| b.p),
        qrs: fuse_wave(|b| b.qrs),
        t: fuse_wave(|b| b.t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_ecg::noise::NoiseModel;
    use hbc_ecg::synthetic::{SyntheticEcg, Variability};
    use hbc_ecg::BeatClass;

    fn clean_beat(class: BeatClass) -> hbc_ecg::Beat {
        SyntheticEcg::with_seed(4)
            .with_noise(NoiseModel::clean())
            .with_variability(Variability::none())
            .beat(class)
    }

    #[test]
    fn mmd_of_constant_signal_is_zero() {
        let mmd = Delineator::mmd(&[2.0; 64], 5);
        assert!(mmd.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn deque_mmd_is_bit_identical_to_the_naive_scan() {
        // Real beat morphology plus adversarial shapes (plateaus for tie
        // handling, monotone ramps for one-sided wedges), across scales
        // including degenerate (0), window-sized and over-length ones.
        let beat = clean_beat(BeatClass::Normal);
        let mut plateau = vec![0.0; 97];
        for (i, v) in plateau.iter_mut().enumerate() {
            *v = [1.0, 1.0, -2.0, 0.5, 0.5, 0.5][i % 6];
        }
        let ramp: Vec<f64> = (0..64).map(|i| i as f64 * 0.25 - 4.0).collect();
        for signal in [beat.samples.as_slice(), &plateau, &ramp, &[], &[3.0]] {
            for scale in [0usize, 1, 2, 3, 7, 21, 36, 50, 96, 97, 200] {
                assert_eq!(
                    Delineator::mmd(signal, scale),
                    Delineator::mmd_naive(signal, scale),
                    "n = {}, scale = {scale}",
                    signal.len()
                );
            }
        }
    }

    #[test]
    fn noisy_beats_keep_deque_and_naive_mmd_identical() {
        // Noise exercises tie-free dense orderings; several beats and both
        // delineation scales of the 360 Hz operating point.
        let d = Delineator::new(360.0);
        for seed in 0..4 {
            let beat = SyntheticEcg::with_seed(seed).beat(BeatClass::PrematureVentricular);
            for scale in [d.qrs_scale, d.wave_scale] {
                assert_eq!(
                    Delineator::mmd(&beat.samples, scale),
                    Delineator::mmd_naive(&beat.samples, scale),
                    "seed {seed}, scale {scale}"
                );
            }
        }
    }

    #[test]
    fn mmd_responds_at_slope_changes() {
        // Triangle wave: the apex is a slope change the MMD must flag.
        let mut signal = vec![0.0; 101];
        for (i, s) in signal.iter_mut().enumerate() {
            *s = if i <= 50 { i as f64 } else { 100.0 - i as f64 } * 0.02;
        }
        let mmd = Delineator::mmd(&signal, 10);
        let apex_response = mmd[50].abs();
        let flank_response = mmd[25].abs();
        assert!(
            apex_response > 5.0 * flank_response.max(1e-9),
            "apex {apex_response} vs flank {flank_response}"
        );
    }

    #[test]
    fn normal_beat_yields_all_nine_fiducials() {
        let beat = clean_beat(BeatClass::Normal);
        let d = Delineator::new(360.0);
        let f = d
            .delineate_beat(&beat.samples, beat.peak_index)
            .expect("delineate");
        assert_eq!(f.qrs.count(), 3, "QRS onset/peak/end should all be found");
        assert_eq!(f.p.count(), 3, "normal beats have a P wave: {f:?}");
        assert_eq!(f.t.count(), 3, "normal beats have a T wave: {f:?}");
        assert_eq!(f.count(), 9);
        // QRS peak must be near the annotated R peak.
        let qrs_peak = f.qrs.peak.expect("peak found");
        assert!(
            (qrs_peak as isize - 100).abs() <= 8,
            "QRS peak at {qrs_peak}"
        );
        // Ordering of fiducials must be physiological.
        assert!(f.p.peak.expect("p") < f.qrs.onset.expect("qrs onset"));
        assert!(f.qrs.end.expect("qrs end") <= f.t.onset.expect("t onset") + 1);
    }

    #[test]
    fn pvc_beat_has_no_p_wave_but_wide_qrs() {
        let d = Delineator::new(360.0);
        let n = clean_beat(BeatClass::Normal);
        let v = clean_beat(BeatClass::PrematureVentricular);
        let fn_ = d.delineate_beat(&n.samples, n.peak_index).expect("n");
        let fv = d.delineate_beat(&v.samples, v.peak_index).expect("v");
        assert_eq!(fv.p.count(), 0, "PVC should not expose a P wave: {fv:?}");
        let width = |f: &BeatFiducials| match (f.qrs.onset, f.qrs.end) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        assert!(
            width(&fv) > width(&fn_),
            "PVC QRS ({}) should be wider than normal ({})",
            width(&fv),
            width(&fn_)
        );
    }

    #[test]
    fn multilead_fusion_requires_majority() {
        let beat = clean_beat(BeatClass::Normal);
        let d = Delineator::new(360.0);
        // Lead 2 is a flat line: fusion should still report waves found by
        // the two informative leads.
        let flat = vec![0.0; beat.samples.len()];
        let scaled: Vec<f64> = beat.samples.iter().map(|s| s * 0.7).collect();
        let fused = d
            .delineate_multilead(&[&beat.samples, &scaled, &flat], beat.peak_index)
            .expect("multilead");
        assert_eq!(fused.qrs.count(), 3);
        assert!(fused.count() >= 6);
        // With two flat leads out of three, majority fails and nothing is
        // reported.
        let fused2 = d
            .delineate_multilead(&[&beat.samples, &flat, &flat], beat.peak_index)
            .expect("multilead");
        assert_eq!(fused2.qrs.count(), 0);
    }

    #[test]
    fn one_lead_fuses_to_itself_and_the_reused_buffer_changes_nothing() {
        // The streaming firmware delineates its single lead with
        // `delineate_beat_with` where the batch path fuses through
        // `delineate_multilead`: the two must agree bit for bit.
        let d = Delineator::new(360.0);
        let mut smoothed = Vec::new();
        for class in [
            BeatClass::Normal,
            BeatClass::PrematureVentricular,
            BeatClass::LeftBundleBranchBlock,
        ] {
            let beat = clean_beat(class);
            let single = d
                .delineate_beat_with(&beat.samples, beat.peak_index, &mut smoothed)
                .expect("single");
            assert_eq!(
                single,
                d.delineate_beat(&beat.samples, beat.peak_index)
                    .expect("beat")
            );
            assert_eq!(
                single,
                d.delineate_multilead(&[&beat.samples], beat.peak_index)
                    .expect("multilead")
            );
        }
        let flat = [0.0; 200];
        assert_eq!(
            d.delineate_beat_with(&flat, 100, &mut smoothed)
                .expect("flat"),
            d.delineate_multilead(&[&flat], 100).expect("flat")
        );
    }

    #[test]
    fn error_paths_are_reported() {
        let d = Delineator::new(360.0);
        assert!(matches!(
            d.delineate_beat(&[0.0; 10], 5),
            Err(DspError::SignalTooShort { .. })
        ));
        assert!(matches!(
            d.delineate_beat(&[0.0; 300], 400),
            Err(DspError::InvalidParameter(_))
        ));
        assert!(matches!(
            d.delineate_multilead(&[], 10),
            Err(DspError::InvalidParameter(_))
        ));
    }

    #[test]
    fn flat_window_produces_no_fiducials() {
        let d = Delineator::new(360.0);
        let f = d.delineate_beat(&[0.0; 200], 100).expect("flat ok");
        assert_eq!(f.count(), 0);
    }
}

//! Noise models for synthetic ECG generation.
//!
//! Ambulatory ECG recordings are corrupted by three dominant artefact sources,
//! which the paper's filtering stage is designed to remove:
//!
//! * **baseline wander** caused by respiration (slow, large-amplitude drift,
//!   typically below 0.5 Hz),
//! * **muscle (EMG) noise** from body movement (broadband, roughly Gaussian),
//! * **powerline interference** (a 50 Hz or 60 Hz sinusoid picked up by the
//!   electrodes).
//!
//! [`NoiseModel`] synthesises the sum of the three so that the synthetic
//! records exercise the same conditioning path the MIT-BIH recordings would.

use rand::Rng;

/// Draws a standard normal sample using the Box–Muller transform.
///
/// `rand` alone (without `rand_distr`) only provides uniform sampling; this
/// helper is all the crate needs for Gaussian noise.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Configuration of the additive noise applied to a synthetic ECG lead.
///
/// All amplitudes are in millivolts (peak for the deterministic components,
/// standard deviation for the EMG term).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Peak amplitude of the respiration-induced baseline wander.
    pub baseline_amplitude_mv: f64,
    /// Frequency of the baseline wander in Hz (respiration rate).
    pub baseline_frequency_hz: f64,
    /// Standard deviation of the broadband muscle-artefact noise.
    pub emg_std_mv: f64,
    /// Peak amplitude of the powerline interference.
    pub powerline_amplitude_mv: f64,
    /// Powerline frequency in Hz (50 Hz in Europe, 60 Hz in the US; the
    /// MIT-BIH recordings were acquired at 60 Hz mains).
    pub powerline_frequency_hz: f64,
}

impl NoiseModel {
    /// Moderate ambulatory noise: the default used by the dataset generator.
    pub fn ambulatory() -> Self {
        NoiseModel {
            baseline_amplitude_mv: 0.15,
            baseline_frequency_hz: 0.25,
            emg_std_mv: 0.02,
            powerline_amplitude_mv: 0.02,
            powerline_frequency_hz: 60.0,
        }
    }

    /// Clean signal: no noise at all. Useful for unit tests that check
    /// morphology in isolation.
    pub fn clean() -> Self {
        NoiseModel {
            baseline_amplitude_mv: 0.0,
            baseline_frequency_hz: 0.25,
            emg_std_mv: 0.0,
            powerline_amplitude_mv: 0.0,
            powerline_frequency_hz: 60.0,
        }
    }

    /// Heavy noise: stress-test setting exercising the filtering stage.
    pub fn heavy() -> Self {
        NoiseModel {
            baseline_amplitude_mv: 0.4,
            baseline_frequency_hz: 0.33,
            emg_std_mv: 0.06,
            powerline_amplitude_mv: 0.05,
            powerline_frequency_hz: 60.0,
        }
    }

    /// Whether every noise component is disabled.
    pub fn is_clean(&self) -> bool {
        self.baseline_amplitude_mv == 0.0
            && self.emg_std_mv == 0.0
            && self.powerline_amplitude_mv == 0.0
    }

    /// The number of 64-bit words [`Self::apply`] draws from its generator
    /// for a signal of `len` samples: two per sample for the EMG term, none
    /// at all for a clean model.
    pub fn rng_draws(&self, len: usize) -> usize {
        if self.is_clean() {
            0
        } else {
            2 * len
        }
    }

    /// Adds the configured noise, in place, to `signal` sampled at `fs` Hz.
    ///
    /// `phase_seed` decorrelates the deterministic components across leads and
    /// records (it offsets the sinusoid phases), while `rng` drives the
    /// stochastic EMG term.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        signal: &mut [f64],
        fs: f64,
        phase_seed: f64,
        rng: &mut R,
    ) {
        if self.is_clean() {
            return;
        }
        let two_pi = 2.0 * std::f64::consts::PI;
        for (i, s) in signal.iter_mut().enumerate() {
            let t = i as f64 / fs;
            let baseline = self.baseline_amplitude_mv
                * (two_pi * self.baseline_frequency_hz * t + phase_seed).sin();
            let powerline = self.powerline_amplitude_mv
                * (two_pi * self.powerline_frequency_hz * t + 1.7 * phase_seed).sin();
            let emg = self.emg_std_mv * standard_normal(rng);
            *s += baseline + powerline + emg;
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::ambulatory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn clean_model_leaves_signal_untouched() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut signal = vec![0.5; 256];
        NoiseModel::clean().apply(&mut signal, 360.0, 0.0, &mut rng);
        assert!(signal.iter().all(|&s| s == 0.5));
        assert!(NoiseModel::clean().is_clean());
        assert!(!NoiseModel::ambulatory().is_clean());
    }

    #[test]
    fn ambulatory_noise_perturbs_signal_within_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = NoiseModel::ambulatory();
        let mut signal = vec![0.0; 3600];
        model.apply(&mut signal, 360.0, 0.3, &mut rng);
        let max = signal.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(max > 0.01, "noise should be visible");
        // Bound: baseline + powerline + ~6 sigma of EMG.
        let bound =
            model.baseline_amplitude_mv + model.powerline_amplitude_mv + 6.0 * model.emg_std_mv;
        assert!(max < bound + 1e-9, "noise {max} exceeds bound {bound}");
    }

    #[test]
    fn rng_draws_counts_what_apply_draws() {
        use rand::RngCore;
        for model in [
            NoiseModel::clean(),
            NoiseModel::ambulatory(),
            NoiseModel::heavy(),
        ] {
            for len in [0, 1, 200] {
                let mut applied = StdRng::seed_from_u64(9);
                model.apply(&mut vec![0.0; len], 360.0, 0.4, &mut applied);
                let mut skipped = StdRng::seed_from_u64(9);
                for _ in 0..model.rng_draws(len) {
                    skipped.next_u64();
                }
                assert_eq!(applied, skipped, "{model:?}, {len} samples");
            }
        }
    }

    #[test]
    fn heavy_noise_is_larger_than_ambulatory() {
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let mut a = vec![0.0; 3600];
        let mut b = vec![0.0; 3600];
        NoiseModel::ambulatory().apply(&mut a, 360.0, 0.1, &mut rng_a);
        NoiseModel::heavy().apply(&mut b, 360.0, 0.1, &mut rng_b);
        let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        assert!(rms(&b) > rms(&a));
    }
}

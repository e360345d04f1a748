//! Synthetic ECG generation.
//!
//! The MIT-BIH Arrhythmia Database cannot be redistributed with this
//! repository, so this module provides the documented substitution (see
//! `DESIGN.md`): a morphology-accurate synthetic generator for the three beat
//! classes the paper evaluates.
//!
//! Each beat is modelled as a sum of Gaussian waves (P, Q, R, S, T), following
//! the classic dynamical ECG model of McSharry et al. restricted to a single
//! beat window. The class templates encode the clinically discriminative
//! features the neuro-fuzzy classifier exploits:
//!
//! * **Normal (N)** — narrow QRS (~80 ms), upright P and T waves.
//! * **Left bundle branch block (L)** — widened (~140 ms), notched QRS with a
//!   slurred R wave, absent Q, and a discordant (inverted) T wave.
//! * **Premature ventricular contraction (V)** — very wide (~160 ms), bizarre
//!   high-amplitude QRS with no preceding P wave and a large discordant T
//!   wave; the coupling interval to the previous beat is short.
//!
//! Intra-class variability is injected by jittering every wave's amplitude,
//! width and position, plus per-beat amplitude scaling, so that the classifier
//! faces a realistic within-class spread rather than copies of one template.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::beat::{Beat, BeatClass, BeatWindow};
use crate::noise::{standard_normal, NoiseModel};
use crate::record::{Annotation, EcgRecord};
use crate::MITBIH_FS;

/// A single Gaussian wave component of a beat template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    /// Peak amplitude in millivolts (negative for downward deflections).
    pub amplitude_mv: f64,
    /// Centre of the wave relative to the R peak, in seconds.
    pub center_s: f64,
    /// Gaussian width (standard deviation) in seconds.
    pub width_s: f64,
}

impl Wave {
    /// Creates a wave component.
    pub fn new(amplitude_mv: f64, center_s: f64, width_s: f64) -> Self {
        Wave {
            amplitude_mv,
            center_s,
            width_s,
        }
    }

    /// Evaluates the wave at time `t` (seconds relative to the R peak).
    pub fn value_at(&self, t: f64) -> f64 {
        let d = (t - self.center_s) / self.width_s;
        self.amplitude_mv * (-0.5 * d * d).exp()
    }
}

/// Morphology template: the set of Gaussian waves composing one beat class.
#[derive(Debug, Clone, PartialEq)]
pub struct BeatTemplate {
    /// Class this template generates.
    pub class: BeatClass,
    /// Wave components (P, Q, R, S, T and possible notches).
    pub waves: Vec<Wave>,
    /// Nominal RR interval preceding this beat, in seconds.
    pub nominal_rr_s: f64,
}

impl BeatTemplate {
    /// Template for a normal sinus beat.
    pub fn normal() -> Self {
        BeatTemplate {
            class: BeatClass::Normal,
            waves: vec![
                Wave::new(0.12, -0.180, 0.022),  // P
                Wave::new(-0.14, -0.030, 0.008), // Q
                Wave::new(1.05, 0.000, 0.011),   // R
                Wave::new(-0.22, 0.030, 0.009),  // S
                Wave::new(0.28, 0.230, 0.045),   // T
            ],
            nominal_rr_s: 0.80,
        }
    }

    /// Template for a left bundle branch block beat: wide, notched QRS with a
    /// discordant T wave.
    pub fn left_bundle_branch_block() -> Self {
        BeatTemplate {
            class: BeatClass::LeftBundleBranchBlock,
            waves: vec![
                Wave::new(0.10, -0.200, 0.022), // P (still present)
                Wave::new(0.75, -0.022, 0.020), // slurred R, first hump
                Wave::new(0.82, 0.028, 0.022),  // notched R, second hump
                Wave::new(-0.25, 0.085, 0.018), // delayed S
                Wave::new(-0.33, 0.270, 0.055), // discordant (inverted) T
            ],
            nominal_rr_s: 0.82,
        }
    }

    /// Template for a premature ventricular contraction: wide, bizarre,
    /// high-amplitude QRS, no P wave, large discordant T.
    pub fn premature_ventricular() -> Self {
        BeatTemplate {
            class: BeatClass::PrematureVentricular,
            waves: vec![
                Wave::new(-0.30, -0.060, 0.020), // deep initial deflection
                Wave::new(1.45, 0.005, 0.028),   // broad dominant R
                Wave::new(-0.55, 0.080, 0.026),  // wide S
                Wave::new(-0.45, 0.300, 0.065),  // large discordant T
            ],
            nominal_rr_s: 0.55, // short coupling interval
        }
    }

    /// The template associated with a ground-truth class.
    ///
    /// # Panics
    ///
    /// Panics if called with [`BeatClass::Unknown`], which is not a
    /// generatable morphology.
    pub fn for_class(class: BeatClass) -> Self {
        match class {
            BeatClass::Normal => Self::normal(),
            BeatClass::LeftBundleBranchBlock => Self::left_bundle_branch_block(),
            BeatClass::PrematureVentricular => Self::premature_ventricular(),
            BeatClass::Unknown => panic!("cannot generate a beat for the Unknown class"),
        }
    }

    /// Evaluates the noiseless template at time `t` seconds relative to the R
    /// peak.
    pub fn value_at(&self, t: f64) -> f64 {
        self.waves.iter().map(|w| w.value_at(t)).sum()
    }
}

/// Controls the amount of intra-class variability injected per generated beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variability {
    /// Relative standard deviation applied to each wave amplitude.
    pub amplitude_rel_std: f64,
    /// Relative standard deviation applied to each wave width.
    pub width_rel_std: f64,
    /// Absolute standard deviation (seconds) applied to each wave centre.
    pub timing_std_s: f64,
    /// Relative standard deviation of the whole-beat gain (electrode contact
    /// and inter-patient differences).
    pub gain_rel_std: f64,
}

impl Variability {
    /// Realistic default used by the record generator.
    pub fn realistic() -> Self {
        Variability {
            amplitude_rel_std: 0.08,
            width_rel_std: 0.06,
            timing_std_s: 0.004,
            gain_rel_std: 0.10,
        }
    }

    /// Wider intra-class spread used by the dataset generator: electrode
    /// placement, inter-patient anatomy and beat-to-beat changes make real
    /// MIT-BIH classes overlap, so the classification problem must not be
    /// trivially separable. These values are chosen so that the quick-scale
    /// experiments operate away from the 100 % saturation point.
    pub fn challenging() -> Self {
        Variability {
            amplitude_rel_std: 0.13,
            width_rel_std: 0.11,
            timing_std_s: 0.007,
            gain_rel_std: 0.18,
        }
    }

    /// No variability: every beat of a class is identical (testing only).
    pub fn none() -> Self {
        Variability {
            amplitude_rel_std: 0.0,
            width_rel_std: 0.0,
            timing_std_s: 0.0,
            gain_rel_std: 0.0,
        }
    }
}

impl Default for Variability {
    fn default() -> Self {
        Variability::realistic()
    }
}

/// Synthetic ECG generator.
///
/// The generator is deterministic for a given seed, so datasets and
/// experiments are reproducible run to run.
///
/// ```
/// use hbc_ecg::synthetic::SyntheticEcg;
/// use hbc_ecg::BeatClass;
///
/// let mut gen = SyntheticEcg::with_seed(1);
/// let a = gen.beat(BeatClass::PrematureVentricular);
/// let mut gen2 = SyntheticEcg::with_seed(1);
/// let b = gen2.beat(BeatClass::PrematureVentricular);
/// assert_eq!(a, b, "same seed, same beat");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticEcg {
    rng: StdRng,
    /// Sampling frequency of generated signals, in Hz.
    pub fs: f64,
    /// Window geometry used when producing isolated beats.
    pub window: BeatWindow,
    /// Intra-class variability settings.
    pub variability: Variability,
    /// Noise model applied to generated signals.
    pub noise: NoiseModel,
}

/// The randomness of one beat, drawn by [`SyntheticEcg::plan_beat`] and
/// rendered by [`SyntheticEcg::render`].
#[derive(Debug, Clone)]
pub struct BeatPlan {
    template: BeatTemplate,
    phase: f64,
    noise_rng: StdRng,
}

impl BeatPlan {
    /// The class of the planned beat.
    pub fn class(&self) -> BeatClass {
        self.template.class
    }
}

impl SyntheticEcg {
    /// Creates a generator with the paper's acquisition parameters (360 Hz,
    /// 100+100-sample window, ambulatory noise) and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        SyntheticEcg {
            rng: StdRng::seed_from_u64(seed),
            fs: MITBIH_FS,
            window: BeatWindow::PAPER,
            variability: Variability::realistic(),
            noise: NoiseModel::ambulatory(),
        }
    }

    /// Replaces the noise model, returning the modified generator (builder
    /// style).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the variability settings, returning the modified generator.
    pub fn with_variability(mut self, variability: Variability) -> Self {
        self.variability = variability;
        self
    }

    /// Draws a jittered copy of `template` according to the variability
    /// settings.
    fn jittered_template(&mut self, template: &BeatTemplate) -> BeatTemplate {
        let v = self.variability;
        let gain = 1.0 + v.gain_rel_std * standard_normal(&mut self.rng);
        let waves = template
            .waves
            .iter()
            .map(|w| {
                let amp = w.amplitude_mv
                    * gain
                    * (1.0 + v.amplitude_rel_std * standard_normal(&mut self.rng));
                let width = (w.width_s * (1.0 + v.width_rel_std * standard_normal(&mut self.rng)))
                    .max(0.002);
                let center = w.center_s + v.timing_std_s * standard_normal(&mut self.rng);
                Wave::new(amp, center, width)
            })
            .collect();
        BeatTemplate {
            class: template.class,
            waves,
            nominal_rr_s: template.nominal_rr_s,
        }
    }

    /// Generates a single windowed beat of the requested class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`BeatClass::Unknown`].
    pub fn beat(&mut self, class: BeatClass) -> Beat {
        let template = self.jittered_template(&BeatTemplate::for_class(class));
        let mut beat = self.empty_beat(class);
        self.sample_template(&template, &mut beat.samples);
        let phase: f64 = self.rng.gen::<f64>() * std::f64::consts::TAU;
        let noise = self.noise;
        noise.apply(&mut beat.samples, self.fs, phase, &mut self.rng);
        beat
    }

    /// Draws the randomness of the next beat of `class` — exactly what
    /// [`Self::beat`] would draw — without rendering it: the jittered
    /// template, the noise phase, and a copy of the generator state the
    /// noise is drawn from. The generator then skips the noise draws, so
    /// the next call plans the beat after this one.
    ///
    /// Plans are rendered by [`Self::render`], in any order and on any
    /// thread: planning `k` beats and rendering them gives the `k` beats
    /// `k` calls to [`Self::beat`] would, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`BeatClass::Unknown`].
    pub fn plan_beat(&mut self, class: BeatClass) -> BeatPlan {
        let template = self.jittered_template(&BeatTemplate::for_class(class));
        let phase: f64 = self.rng.gen::<f64>() * std::f64::consts::TAU;
        let noise_rng = self.rng.clone();
        for _ in 0..self.noise.rng_draws(self.window.len()) {
            self.rng.next_u64();
        }
        BeatPlan {
            template,
            phase,
            noise_rng,
        }
    }

    /// A beat of `class` with an all-zero window, ready for [`Self::render`].
    pub fn empty_beat(&self, class: BeatClass) -> Beat {
        Beat {
            samples: vec![0.0; self.window.len()],
            class,
            peak_index: self.window.pre,
            record_id: 0,
            record_position: 0,
        }
    }

    /// Renders a planned beat into `samples`, which must hold one window
    /// (as [`Self::empty_beat`] allocates it). Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is not one window long.
    pub fn render(&self, plan: &BeatPlan, samples: &mut [f64]) {
        assert_eq!(samples.len(), self.window.len(), "one beat window");
        self.sample_template(&plan.template, samples);
        let mut rng = plan.noise_rng.clone();
        self.noise.apply(samples, self.fs, plan.phase, &mut rng);
    }

    /// Overwrites `samples` with `template` sampled over the beat window.
    fn sample_template(&self, template: &BeatTemplate, samples: &mut [f64]) {
        let pre = self.window.pre as f64;
        for (i, s) in samples.iter_mut().enumerate() {
            *s = template.value_at((i as f64 - pre) / self.fs);
        }
    }

    /// Generates `count` beats of the requested class.
    pub fn beats(&mut self, class: BeatClass, count: usize) -> Vec<Beat> {
        (0..count).map(|_| self.beat(class)).collect()
    }

    /// Generates a continuous multi-lead annotated record.
    ///
    /// `rhythm` gives the beat classes in temporal order; RR intervals follow
    /// each class's nominal coupling interval with ±8 % variability. Lead 0 is
    /// the reference morphology; further leads are scaled and slightly
    /// time-shifted projections of the same cardiac activity, which is enough
    /// to exercise the multi-lead delineation path of the paper.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::EcgError`] if the assembled record is inconsistent
    /// (which would indicate a bug in the generator).
    pub fn record(
        &mut self,
        id: u32,
        rhythm: &[BeatClass],
        num_leads: usize,
    ) -> crate::Result<EcgRecord> {
        assert!(num_leads >= 1, "a record needs at least one lead");
        let fs = self.fs;
        // Lay out R-peak positions.
        let mut peaks = Vec::with_capacity(rhythm.len());
        let mut t = 0.5; // lead-in of half a second before the first beat
        for &class in rhythm {
            let template = BeatTemplate::for_class(class);
            let rr = template.nominal_rr_s * (1.0 + 0.08 * standard_normal(&mut self.rng));
            t += rr.max(0.3);
            peaks.push((t, class));
        }
        let total_s = t + 0.6;
        let len = (total_s * fs).ceil() as usize;

        // Per-lead projection parameters.
        let lead_gains: Vec<f64> = (0..num_leads)
            .map(|l| match l {
                0 => 1.0,
                1 => 0.65 + 0.1 * standard_normal(&mut self.rng),
                _ => 0.45 + 0.1 * standard_normal(&mut self.rng),
            })
            .collect();
        let lead_shifts: Vec<f64> = (0..num_leads).map(|l| l as f64 * 0.002).collect();

        let mut leads: Vec<Vec<f64>> = vec![vec![0.0; len]; num_leads];
        let mut annotations = Vec::with_capacity(rhythm.len());

        for &(peak_t, class) in &peaks {
            let template = self.jittered_template(&BeatTemplate::for_class(class));
            let peak_sample = (peak_t * fs).round() as usize;
            if peak_sample >= len {
                continue;
            }
            annotations.push(Annotation::new(peak_sample, class));
            // Render the beat into every lead over a ±0.45 s support.
            let half = (0.45 * fs) as isize;
            for (lead_idx, lead) in leads.iter_mut().enumerate() {
                let gain = lead_gains[lead_idx];
                let shift = lead_shifts[lead_idx];
                for off in -half..=half {
                    let idx = peak_sample as isize + off;
                    if idx < 0 || idx as usize >= len {
                        continue;
                    }
                    let tt = off as f64 / fs - shift;
                    lead[idx as usize] += gain * template.value_at(tt);
                }
            }
        }

        // Add noise independently per lead.
        let noise = self.noise;
        for lead in &mut leads {
            let phase: f64 = self.rng.gen::<f64>() * std::f64::consts::TAU;
            noise.apply(lead, fs, phase, &mut self.rng);
        }

        EcgRecord::new(id, fs, leads, annotations)
    }

    /// Generates a rhythm string with the requested number of beats where
    /// abnormal beats (V, L) are interleaved among normals with the given
    /// probabilities.
    pub fn rhythm(&mut self, beats: usize, p_v: f64, p_l: f64) -> Vec<BeatClass> {
        (0..beats)
            .map(|_| {
                let x: f64 = self.rng.gen();
                if x < p_v {
                    BeatClass::PrematureVentricular
                } else if x < p_v + p_l {
                    BeatClass::LeftBundleBranchBlock
                } else {
                    BeatClass::Normal
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Adversarial scenarios
    //
    // These generators stress the monitoring pipeline with inputs the
    // classifier was never trained on. The contract under test is *ARR-safe
    // degradation*: the pipeline may classify such beats as `Unknown`, but it
    // must keep detecting them and keep routing them onward (Unknown is
    // abnormal, hence transmitted), never silently dropping them.
    // ------------------------------------------------------------------

    /// Generates an atrial-fibrillation-like record: irregularly irregular RR
    /// intervals, conducted beats without a P wave, and a low-amplitude
    /// fibrillatory (6–8 Hz) baseline between beats.
    ///
    /// Every annotation carries [`BeatClass::Unknown`] — AF is not one of the
    /// three trained morphologies, so the ground truth for downstream
    /// evaluation is "abnormal, class unknown".
    ///
    /// # Errors
    ///
    /// Propagates [`crate::EcgError`] if the assembled record is inconsistent.
    pub fn af_record(
        &mut self,
        id: u32,
        beats: usize,
        num_leads: usize,
    ) -> crate::Result<EcgRecord> {
        assert!(num_leads >= 1, "a record needs at least one lead");
        let fs = self.fs;
        // Conducted AF beat: normal morphology minus the P wave (waves[0]).
        let base = BeatTemplate {
            class: BeatClass::Normal,
            waves: BeatTemplate::normal().waves[1..].to_vec(),
            nominal_rr_s: 0.70,
        };
        // Irregularly irregular: RR drawn uniformly, no memory beat to beat.
        let mut peaks = Vec::with_capacity(beats);
        let mut t = 0.5;
        for _ in 0..beats {
            t += self.rng.gen_range(0.35..1.10);
            peaks.push(t);
        }
        let total_s = t + 0.6;
        let len = (total_s * fs).ceil() as usize;

        let lead_gains: Vec<f64> = (0..num_leads)
            .map(|l| match l {
                0 => 1.0,
                1 => 0.65 + 0.1 * standard_normal(&mut self.rng),
                _ => 0.45 + 0.1 * standard_normal(&mut self.rng),
            })
            .collect();
        let lead_shifts: Vec<f64> = (0..num_leads).map(|l| l as f64 * 0.002).collect();

        let mut leads: Vec<Vec<f64>> = vec![vec![0.0; len]; num_leads];
        let mut annotations = Vec::with_capacity(beats);

        for &peak_t in &peaks {
            let template = self.jittered_template(&base);
            let peak_sample = (peak_t * fs).round() as usize;
            if peak_sample >= len {
                continue;
            }
            annotations.push(Annotation::new(peak_sample, BeatClass::Unknown));
            let half = (0.45 * fs) as isize;
            for (lead_idx, lead) in leads.iter_mut().enumerate() {
                let gain = lead_gains[lead_idx];
                let shift = lead_shifts[lead_idx];
                for off in -half..=half {
                    let idx = peak_sample as isize + off;
                    if idx < 0 || idx as usize >= len {
                        continue;
                    }
                    let tt = off as f64 / fs - shift;
                    lead[idx as usize] += gain * template.value_at(tt);
                }
            }
        }

        // Fibrillatory baseline: a ~0.06 mV oscillation at 6–8 Hz whose
        // amplitude wanders slowly, replacing the absent P waves.
        for lead in &mut leads {
            let f_hz: f64 = self.rng.gen_range(6.0..8.0);
            let phase: f64 = self.rng.gen::<f64>() * std::f64::consts::TAU;
            let wander_phase: f64 = self.rng.gen::<f64>() * std::f64::consts::TAU;
            for (i, s) in lead.iter_mut().enumerate() {
                let tt = i as f64 / fs;
                let envelope = 1.0 + 0.5 * (std::f64::consts::TAU * 0.3 * tt + wander_phase).sin();
                *s += 0.06 * envelope * (std::f64::consts::TAU * f_hz * tt + phase).sin();
            }
        }

        let noise = self.noise;
        for lead in &mut leads {
            let phase: f64 = self.rng.gen::<f64>() * std::f64::consts::TAU;
            noise.apply(lead, fs, phase, &mut self.rng);
        }

        EcgRecord::new(id, fs, leads, annotations)
    }

    /// Injects `pops` electrode-pop artifacts into an existing record: at a
    /// random position on a random lead, the signal jumps by ±3–8 mV and the
    /// offset decays exponentially with a ~0.3 s time constant, as when an
    /// electrode momentarily loses and regains skin contact.
    pub fn electrode_pop(&mut self, record: &mut EcgRecord, pops: usize) {
        let len = record.len();
        if len == 0 {
            return;
        }
        let fs = record.fs;
        let tau_samples = 0.3 * fs;
        for _ in 0..pops {
            let lead = self.rng.gen_range(0..record.leads.len());
            let at = self.rng.gen_range(0..len);
            let magnitude: f64 = self.rng.gen_range(3.0..8.0);
            let step = if self.rng.gen_bool(0.5) {
                magnitude
            } else {
                -magnitude
            };
            let signal = &mut record.leads[lead];
            for (off, s) in signal[at..].iter_mut().enumerate() {
                let decay = (-(off as f64) / tau_samples).exp();
                if decay < 1e-3 {
                    break;
                }
                *s += step * decay;
            }
        }
    }

    /// Flatlines one lead over `[start_s, start_s + dur_s)`: the lead holds
    /// its last pre-dropout value, as when a lead wire detaches. Other leads
    /// are untouched, so multi-lead delineation can still recover the beats.
    ///
    /// Out-of-range times are clamped to the record; an out-of-range lead is
    /// a no-op.
    pub fn lead_dropout(record: &mut EcgRecord, lead: usize, start_s: f64, dur_s: f64) {
        let len = record.len();
        let Some(signal) = record.leads.get_mut(lead) else {
            return;
        };
        let start = ((start_s * record.fs).round().max(0.0) as usize).min(len);
        let end = (((start_s + dur_s) * record.fs).round().max(0.0) as usize).min(len);
        if start >= end {
            return;
        }
        let hold = if start > 0 { signal[start - 1] } else { 0.0 };
        for s in &mut signal[start..end] {
            *s = hold;
        }
    }

    /// Adds a severe multi-component baseline-wander storm to every lead:
    /// three superimposed drifts at random frequencies in 0.10–0.60 Hz, each
    /// up to `amplitude_mv` peak — far beyond the ambulatory noise model, as
    /// during vigorous motion.
    pub fn baseline_storm(&mut self, record: &mut EcgRecord, amplitude_mv: f64) {
        let fs = record.fs;
        for lead in &mut record.leads {
            for _ in 0..3 {
                let f_hz: f64 = self.rng.gen_range(0.10..0.60);
                let amp: f64 = amplitude_mv * self.rng.gen_range(0.4..1.0);
                let phase: f64 = self.rng.gen::<f64>() * std::f64::consts::TAU;
                for (i, s) in lead.iter_mut().enumerate() {
                    let tt = i as f64 / fs;
                    *s += amp * (std::f64::consts::TAU * f_hz * tt + phase).sin();
                }
            }
        }
    }

    /// Superimposes pacemaker-like artifacts on every lead: very narrow
    /// (~2-sample) ~4 mV spikes repeating every `period_s` seconds with a
    /// small timing jitter. Narrow spikes stress the morphological R-peak
    /// detector, which must not mistake them for QRS complexes or lose the
    /// real beats between them.
    pub fn pacing_artifacts(&mut self, record: &mut EcgRecord, period_s: f64) {
        assert!(period_s > 0.0, "pacing period must be positive");
        let fs = record.fs;
        let len = record.len();
        let mut t = self.rng.gen_range(0.0..period_s);
        while (t * fs) < len as f64 {
            let at = (t * fs).round() as usize;
            let amp: f64 = 4.0 * self.rng.gen_range(0.8..1.2);
            let polarity = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            for lead in &mut record.leads {
                for off in 0..2usize {
                    if at + off < len {
                        lead[at + off] += polarity * amp * if off == 0 { 1.0 } else { 0.45 };
                    }
                }
            }
            t += period_s * (1.0 + 0.02 * standard_normal(&mut self.rng));
        }
    }

    /// Resamples a record by `factor` without changing its declared sampling
    /// frequency, simulating a sensor whose ADC clock runs fast
    /// (`factor > 1`, beats look slower/wider) or slow (`factor < 1`).
    /// Signals are linearly interpolated; annotation positions are scaled to
    /// stay on their R peaks. Deterministic — no generator state involved.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EcgError::OutOfRange`] when `factor` is not a normal
    /// positive number or the skewed record would be empty; otherwise
    /// propagates [`crate::EcgError`] from record assembly.
    pub fn rate_skew(record: &EcgRecord, factor: f64) -> crate::Result<EcgRecord> {
        if !factor.is_normal() || factor <= 0.0 {
            return Err(crate::EcgError::OutOfRange(format!(
                "rate-skew factor must be a positive finite number, got {factor}"
            )));
        }
        let src_len = record.len();
        let new_len = ((src_len as f64) * factor).round() as usize;
        if src_len < 2 || new_len < 2 {
            return Err(crate::EcgError::OutOfRange(
                "rate skew needs at least two samples before and after".into(),
            ));
        }
        let leads: Vec<Vec<f64>> = record
            .leads
            .iter()
            .map(|src| {
                (0..new_len)
                    .map(|i| {
                        let pos = i as f64 / factor;
                        let lo = (pos.floor() as usize).min(src_len - 1);
                        let hi = (lo + 1).min(src_len - 1);
                        let frac = pos - lo as f64;
                        src[lo] * (1.0 - frac) + src[hi] * frac
                    })
                    .collect()
            })
            .collect();
        let annotations: Vec<Annotation> = record
            .annotations
            .iter()
            .map(|a| {
                let sample = ((a.sample as f64) * factor).round() as usize;
                Annotation::new(sample.min(new_len - 1), a.class)
            })
            .collect();
        EcgRecord::new(record.id, record.fs, leads, annotations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qrs_width_above(beat: &Beat, threshold_mv: f64) -> f64 {
        // Width (in seconds at 360 Hz) of the region around the peak where the
        // absolute amplitude stays above the threshold.
        let above: Vec<usize> = beat
            .samples
            .iter()
            .enumerate()
            .filter(|(_, &s)| s.abs() > threshold_mv)
            .map(|(i, _)| i)
            .collect();
        if above.is_empty() {
            return 0.0;
        }
        (above[above.len() - 1] - above[0]) as f64 / MITBIH_FS
    }

    #[test]
    fn beats_have_the_requested_window_length() {
        let mut gen = SyntheticEcg::with_seed(3);
        for class in BeatClass::LABELLED {
            let b = gen.beat(class);
            assert_eq!(b.samples.len(), 200);
            assert_eq!(b.peak_index, 100);
            assert_eq!(b.class, class);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = SyntheticEcg::with_seed(11);
        let mut b = SyntheticEcg::with_seed(11);
        assert_eq!(a.beat(BeatClass::Normal), b.beat(BeatClass::Normal));
        let mut c = SyntheticEcg::with_seed(12);
        assert_ne!(a.beat(BeatClass::Normal), c.beat(BeatClass::Normal));
    }

    #[test]
    fn morphologies_are_discriminable() {
        // Clean templates: the V beat must have a much wider high-amplitude
        // region than the N beat, and the L beat must have an inverted T wave.
        let mut gen = SyntheticEcg::with_seed(5)
            .with_noise(NoiseModel::clean())
            .with_variability(Variability::none());
        let n = gen.beat(BeatClass::Normal);
        let v = gen.beat(BeatClass::PrematureVentricular);
        let l = gen.beat(BeatClass::LeftBundleBranchBlock);

        let wn = qrs_width_above(&n, 0.3);
        let wv = qrs_width_above(&v, 0.3);
        assert!(
            wv > 1.5 * wn,
            "V QRS ({wv}s) should be much wider than N ({wn}s)"
        );

        // T wave region: 180–270 ms after the peak (within the 100-sample
        // post-peak window).
        let t_region = |b: &Beat| -> f64 {
            let start = 100 + (0.18 * MITBIH_FS) as usize;
            let end = 100 + (0.27 * MITBIH_FS) as usize;
            b.samples[start..end].iter().sum::<f64>() / (end - start) as f64
        };
        assert!(t_region(&n) > 0.0, "normal T wave is upright");
        assert!(t_region(&l) < 0.0, "LBBB T wave is discordant (inverted)");
        assert!(t_region(&v) < 0.0, "PVC T wave is discordant (inverted)");
    }

    #[test]
    fn pvc_lacks_p_wave() {
        let mut gen = SyntheticEcg::with_seed(9)
            .with_noise(NoiseModel::clean())
            .with_variability(Variability::none());
        let n = gen.beat(BeatClass::Normal);
        let v = gen.beat(BeatClass::PrematureVentricular);
        // P-wave region: 220–140 ms before the peak.
        let p_region = |b: &Beat| -> f64 {
            let start = 100 - (0.22 * MITBIH_FS) as usize;
            let end = 100 - (0.14 * MITBIH_FS) as usize;
            b.samples[start..end].iter().map(|s| s.abs()).sum::<f64>() / (end - start) as f64
        };
        assert!(
            p_region(&n) > 3.0 * p_region(&v),
            "N has a P wave, V does not"
        );
    }

    #[test]
    fn record_generation_annotates_every_rendered_beat() {
        let mut gen = SyntheticEcg::with_seed(21);
        let rhythm = gen.rhythm(40, 0.1, 0.1);
        let record = gen.record(200, &rhythm, 3).expect("record generation");
        assert_eq!(record.num_leads(), 3);
        assert_eq!(record.annotations.len(), 40);
        assert!(record.duration_s() > 20.0);
        // Annotated peaks should coincide with locally large amplitudes.
        let lead0 = record.lead(crate::record::Lead(0)).expect("lead 0");
        for ann in &record.annotations {
            let lo = ann.sample.saturating_sub(5);
            let hi = (ann.sample + 5).min(lead0.len());
            let local_max = lead0[lo..hi].iter().cloned().fold(f64::MIN, f64::max);
            assert!(
                local_max > 0.4,
                "annotation at {} does not sit on a QRS (max {local_max})",
                ann.sample
            );
        }
    }

    #[test]
    fn rhythm_probabilities_are_respected_roughly() {
        let mut gen = SyntheticEcg::with_seed(33);
        let rhythm = gen.rhythm(5000, 0.2, 0.1);
        let v = rhythm
            .iter()
            .filter(|&&c| c == BeatClass::PrematureVentricular)
            .count() as f64
            / 5000.0;
        let l = rhythm
            .iter()
            .filter(|&&c| c == BeatClass::LeftBundleBranchBlock)
            .count() as f64
            / 5000.0;
        assert!((v - 0.2).abs() < 0.03, "V fraction {v}");
        assert!((l - 0.1).abs() < 0.03, "L fraction {l}");
    }

    #[test]
    #[should_panic(expected = "Unknown")]
    fn unknown_class_cannot_be_generated() {
        let mut gen = SyntheticEcg::with_seed(1);
        gen.beat(BeatClass::Unknown);
    }

    // ----- adversarial scenarios -----

    #[test]
    fn af_record_is_irregular_p_less_and_all_unknown() {
        let mut gen = SyntheticEcg::with_seed(71);
        let record = gen.af_record(300, 30, 2).expect("af record");
        assert_eq!(record.num_leads(), 2);
        assert_eq!(record.annotations.len(), 30);
        assert!(record
            .annotations
            .iter()
            .all(|a| a.class == BeatClass::Unknown));
        // Irregularly irregular: RR spread far wider than the ±8 % of a
        // sinus rhythm.
        let rrs: Vec<f64> = record
            .annotations
            .windows(2)
            .map(|w| (w[1].sample - w[0].sample) as f64 / record.fs)
            .collect();
        let min = rrs.iter().cloned().fold(f64::MAX, f64::min);
        let max = rrs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max / min > 1.5,
            "AF RR spread should be wide (min {min}, max {max})"
        );
        // Beats are still there: each annotation sits on a QRS.
        let lead0 = record.lead(crate::record::Lead(0)).expect("lead 0");
        for ann in &record.annotations {
            let lo = ann.sample.saturating_sub(5);
            let hi = (ann.sample + 5).min(lead0.len());
            let local_max = lead0[lo..hi].iter().cloned().fold(f64::MIN, f64::max);
            assert!(local_max > 0.4, "annotation at {} off a QRS", ann.sample);
        }
        // Determinism for a fixed seed.
        let again = SyntheticEcg::with_seed(71)
            .af_record(300, 30, 2)
            .expect("af record");
        assert_eq!(record, again);
    }

    #[test]
    fn electrode_pop_adds_large_decaying_steps() {
        let mut gen = SyntheticEcg::with_seed(41);
        let rhythm = vec![BeatClass::Normal; 10];
        let clean = gen.record(301, &rhythm, 2).expect("record");
        let mut popped = clean.clone();
        gen.electrode_pop(&mut popped, 3);
        assert_eq!(popped.len(), clean.len());
        assert_eq!(popped.annotations, clean.annotations, "labels untouched");
        // Somewhere, the difference to the clean record reaches pop scale.
        let max_diff = popped
            .leads
            .iter()
            .zip(&clean.leads)
            .flat_map(|(p, c)| p.iter().zip(c).map(|(a, b)| (a - b).abs()))
            .fold(f64::MIN, f64::max);
        assert!(
            max_diff > 2.5,
            "pop amplitude visible (max diff {max_diff})"
        );
    }

    #[test]
    fn lead_dropout_flatlines_only_the_requested_lead() {
        let mut gen = SyntheticEcg::with_seed(42);
        let rhythm = vec![BeatClass::Normal; 12];
        let clean = gen.record(302, &rhythm, 3).expect("record");
        let mut dropped = clean.clone();
        SyntheticEcg::lead_dropout(&mut dropped, 1, 2.0, 3.0);
        let fs = dropped.fs;
        let (start, end) = ((2.0 * fs) as usize, (5.0 * fs) as usize);
        let hold = dropped.leads[1][start];
        assert!(
            dropped.leads[1][start..end].iter().all(|&s| s == hold),
            "dropout window is flat"
        );
        assert_eq!(dropped.leads[0], clean.leads[0], "lead 0 untouched");
        assert_eq!(dropped.leads[2], clean.leads[2], "lead 2 untouched");
        // Out-of-range lead and empty window are no-ops.
        let before = dropped.clone();
        SyntheticEcg::lead_dropout(&mut dropped, 9, 0.0, 1.0);
        SyntheticEcg::lead_dropout(&mut dropped, 0, 5.0, 0.0);
        assert_eq!(dropped, before);
    }

    #[test]
    fn baseline_storm_adds_low_frequency_power() {
        let mut gen = SyntheticEcg::with_seed(43);
        let rhythm = vec![BeatClass::Normal; 10];
        let clean = gen.record(303, &rhythm, 1).expect("record");
        let mut stormy = clean.clone();
        gen.baseline_storm(&mut stormy, 1.5);
        assert_eq!(stormy.annotations, clean.annotations);
        // The added drift should move the signal mean over multi-second
        // windows by a sizeable fraction of the storm amplitude somewhere.
        let fs = clean.fs as usize;
        let max_window_shift = stormy.leads[0]
            .chunks(fs)
            .zip(clean.leads[0].chunks(fs))
            .map(|(s, c)| {
                let ms = s.iter().sum::<f64>() / s.len() as f64;
                let mc = c.iter().sum::<f64>() / c.len() as f64;
                (ms - mc).abs()
            })
            .fold(f64::MIN, f64::max);
        assert!(
            max_window_shift > 0.5,
            "storm shifts one-second means (max {max_window_shift})"
        );
    }

    #[test]
    fn pacing_artifacts_appear_at_the_requested_cadence() {
        let mut gen = SyntheticEcg::with_seed(44);
        let rhythm = vec![BeatClass::Normal; 10];
        let clean = gen.record(304, &rhythm, 1).expect("record");
        let mut paced = clean.clone();
        gen.pacing_artifacts(&mut paced, 1.0);
        assert_eq!(paced.annotations, clean.annotations);
        // Count samples whose difference to the clean record exceeds 2 mV:
        // roughly one spike (2 samples) per second.
        let spikes = paced.leads[0]
            .iter()
            .zip(&clean.leads[0])
            .filter(|(a, b)| (*a - *b).abs() > 2.0)
            .count();
        let seconds = clean.duration_s();
        assert!(
            spikes as f64 > seconds * 0.8 && (spikes as f64) < seconds * 4.0,
            "~2 spike samples per second expected, got {spikes} over {seconds:.1}s"
        );
    }

    #[test]
    fn rate_skew_scales_signal_and_annotations() {
        let mut gen = SyntheticEcg::with_seed(45);
        let rhythm = vec![BeatClass::Normal; 8];
        let clean = gen.record(305, &rhythm, 2).expect("record");
        let skewed = SyntheticEcg::rate_skew(&clean, 1.10).expect("skewed");
        assert_eq!(skewed.num_leads(), clean.num_leads());
        assert_eq!(skewed.annotations.len(), clean.annotations.len());
        let expected = ((clean.len() as f64) * 1.10).round() as usize;
        assert_eq!(skewed.len(), expected);
        for (s, c) in skewed.annotations.iter().zip(&clean.annotations) {
            assert_eq!(s.class, c.class);
            let expected = ((c.sample as f64) * 1.10).round() as usize;
            assert_eq!(s.sample, expected);
        }
        // Identity skew reproduces the record exactly.
        let same = SyntheticEcg::rate_skew(&clean, 1.0).expect("identity");
        assert_eq!(same, clean);
        // Invalid factors are rejected.
        assert!(SyntheticEcg::rate_skew(&clean, 0.0).is_err());
        assert!(SyntheticEcg::rate_skew(&clean, f64::NAN).is_err());
        assert!(SyntheticEcg::rate_skew(&clean, -1.0).is_err());
    }
}

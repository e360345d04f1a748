//! Parity of the parallel two-step training: for one seed, the fitted
//! pipeline must be *bit-identical* — winning matrix bytes, membership
//! parameters, calibrated α, fitness history — whatever the worker count.
//!
//! The guarantee rests on two facts the test pins down: the GA scores each
//! generation as one ordered batch (candidate fitness never touches the GA's
//! RNG), and `hbc_par::Par` returns batch results in submission order.
//!
//! The whole quick-scale training — dataset synthesis, both concurrent fits
//! and the WBSN quantisation — is pinned as well, by a fingerprint of its
//! output bits recorded before synthesis and fitting ran in parallel.

use std::num::NonZeroUsize;

use hbc_core::hbc_ecg::beat::Beat;
use hbc_core::hbc_ecg::dataset::DatasetSpec;
use hbc_core::hbc_ecg::Dataset;
use hbc_core::hbc_nfc::{FittedPipeline, TwoStepConfig, TwoStepTrainer};
use hbc_core::hbc_rp::PackedProjection;
use hbc_core::{ExperimentConfig, TrainedSystem};

fn ga_config() -> TwoStepConfig {
    let mut config = TwoStepConfig::quick(8);
    // Small but real search: two generations of a six-candidate population
    // keeps the test fast while exercising batched offspring evaluation.
    config.genetic.population = 6;
    config.genetic.generations = 2;
    config
}

/// Bit-level comparison of two fitted pipelines.
fn assert_bit_identical(a: &FittedPipeline, b: &FittedPipeline, label: &str) {
    assert_eq!(
        PackedProjection::from_matrix(&a.projection).as_bytes(),
        PackedProjection::from_matrix(&b.projection).as_bytes(),
        "{label}: winning matrix bytes diverged"
    );
    assert_eq!(
        a.classifier, b.classifier,
        "{label}: membership parameters diverged"
    );
    assert_eq!(
        a.alpha_train.to_bits(),
        b.alpha_train.to_bits(),
        "{label}: calibrated alpha diverged"
    );
    assert_eq!(
        a.fitness.to_bits(),
        b.fitness.to_bits(),
        "{label}: fitness diverged"
    );
    let history = |p: &FittedPipeline| p.ga_history.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(history(a), history(b), "{label}: GA history diverged");
}

#[test]
fn fit_is_bit_identical_for_any_thread_count() {
    let dataset = Dataset::synthetic(DatasetSpec::tiny(), 17);
    let trainer = TwoStepTrainer::new(ga_config()).expect("valid config");

    let reference = trainer
        .with_threads(NonZeroUsize::new(1).expect("non-zero"))
        .fit(&dataset)
        .expect("sequential fit");
    assert!(reference.fitness > 0.0, "degenerate reference fit");

    for threads in [2usize, 8] {
        let parallel = trainer
            .with_threads(NonZeroUsize::new(threads).expect("non-zero"))
            .fit(&dataset)
            .expect("parallel fit");
        assert_bit_identical(&reference, &parallel, &format!("{threads} threads"));
    }

    // The default trainer (one worker per core, whatever this host has) must
    // land on the same artefacts as the pinned runs.
    let default_run = trainer.fit(&dataset).expect("default fit");
    assert_bit_identical(&reference, &default_run, "default thread policy");
}

/// FNV-1a over the output bits of a trained system.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// Every beat's class, peak index and sample bits, split by split.
    fn dataset(&mut self, dataset: &Dataset) {
        for beats in [&dataset.training1, &dataset.training2, &dataset.test] {
            self.word(beats.len() as u64);
            for beat in beats.iter() {
                self.beat(beat);
            }
        }
    }

    fn beat(&mut self, beat: &Beat) {
        self.word(beat.class.index().map_or(u64::MAX, |i| i as u64));
        self.word(beat.peak_index as u64);
        for sample in &beat.samples {
            self.word(sample.to_bits());
        }
    }

    /// Packed projection bytes, classifier parameters and α.
    fn fitted(&mut self, pipeline: &FittedPipeline) {
        self.bytes(PackedProjection::from_matrix(&pipeline.projection).as_bytes());
        for parameter in pipeline.classifier.to_parameters() {
            self.word(parameter.to_bits());
        }
        self.word(pipeline.alpha_train.to_bits());
    }

    fn system(mut self, system: &TrainedSystem) -> u64 {
        self.dataset(&system.dataset);
        self.dataset(&system.dataset_downsampled);
        self.fitted(&system.pc);
        self.fitted(&system.pc_downsampled);
        self.bytes(system.wbsn.projection.as_bytes());
        // The integer membership table (centres and slopes are integers, so
        // their `Debug` form is exact).
        self.bytes(format!("{:?}", system.wbsn.classifier).as_bytes());
        self.word(u64::from(system.wbsn.alpha.0));
        self.0
    }
}

/// The fingerprint of `TrainedSystem::train(&ExperimentConfig::quick())` as
/// the one-thread synthesis and the back-to-back fits produced it.
const QUICK_SYSTEM_FINGERPRINT: u64 = 0x66ad_8ffd_7f7d_2343;

#[test]
fn quick_training_matches_the_pinned_fingerprint() {
    let system = TrainedSystem::train(&ExperimentConfig::quick()).expect("quick training");
    let fingerprint = Fingerprint::new().system(&system);
    assert_eq!(
        fingerprint, QUICK_SYSTEM_FINGERPRINT,
        "quick training changed: fingerprint {fingerprint:#018x}"
    );
}

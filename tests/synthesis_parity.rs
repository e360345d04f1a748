//! Parity of the parallel dataset synthesis: planning beats in generator
//! order and rendering them on any thread, in any order, must give exactly
//! the beats the one-at-a-time generator gives, and a dataset must not
//! depend on the thread count that rendered it.
//!
//! The generator skips each planned beat's noise draws instead of making
//! them, so a wrong skip count would shift every later beat. The clean noise
//! model draws nothing at all, which is where such a miscount would show
//! first.

use std::num::NonZeroUsize;

use hbc_core::hbc_ecg::beat::{Beat, BeatClass};
use hbc_core::hbc_ecg::dataset::{DatasetSpec, SplitSpec};
use hbc_core::hbc_ecg::noise::NoiseModel;
use hbc_core::hbc_ecg::synthetic::{SyntheticEcg, Variability};
use hbc_core::hbc_ecg::Dataset;
use hbc_core::hbc_par::Par;

fn bits(beats: &[Beat]) -> Vec<(BeatClass, usize, Vec<u64>)> {
    beats
        .iter()
        .map(|b| {
            let samples = b.samples.iter().map(|s| s.to_bits()).collect();
            (b.class, b.peak_index, samples)
        })
        .collect()
}

fn assert_same_dataset(a: &Dataset, b: &Dataset, label: &str) {
    assert_eq!(
        bits(&a.training1),
        bits(&b.training1),
        "{label}: training set 1"
    );
    assert_eq!(
        bits(&a.training2),
        bits(&b.training2),
        "{label}: training set 2"
    );
    assert_eq!(bits(&a.test), bits(&b.test), "{label}: test set");
    assert_eq!(a.spec, b.spec, "{label}: spec");
}

#[test]
fn rendered_plans_equal_generated_beats_for_every_class_and_noise_model() {
    let classes: Vec<BeatClass> = BeatClass::LABELLED
        .iter()
        .copied()
        .cycle()
        .take(12)
        .collect();
    for noise in [
        NoiseModel::clean(),
        NoiseModel::ambulatory(),
        NoiseModel::heavy(),
    ] {
        let generator = || {
            SyntheticEcg::with_seed(31)
                .with_variability(Variability::challenging())
                .with_noise(noise)
        };
        let mut planner = generator();
        let plans: Vec<_> = classes.iter().map(|&c| planner.plan_beat(c)).collect();
        // Render last to first: a plan carries all of its beat's randomness.
        let mut rendered: Vec<Beat> = plans
            .iter()
            .map(|p| planner.empty_beat(p.class()))
            .collect();
        for (beat, plan) in rendered.iter_mut().zip(&plans).rev() {
            planner.render(plan, &mut beat.samples);
        }
        let mut reference = generator();
        let generated: Vec<Beat> = classes.iter().map(|&c| reference.beat(c)).collect();
        assert_eq!(bits(&rendered), bits(&generated), "{noise:?}");
        // Both generators stand at the same place afterwards.
        assert_eq!(
            bits(&[planner.beat(BeatClass::Normal)]),
            bits(&[reference.beat(BeatClass::Normal)]),
            "{noise:?}: generator state after the plans"
        );
    }
}

#[test]
fn dataset_does_not_depend_on_the_rendering_thread_count() {
    let spec = DatasetSpec::tiny();
    let reference = Dataset::synthetic_with(spec, 5, Par::sequential());
    for threads in [2, 3, 8] {
        let par = Par::with_threads(NonZeroUsize::new(threads));
        let parallel = Dataset::synthetic_with(spec, 5, par);
        assert_same_dataset(&reference, &parallel, &format!("{threads} threads"));
    }
    assert_same_dataset(&reference, &Dataset::synthetic(spec, 5), "default policy");
}

#[test]
fn dataset_equals_one_beat_at_a_time_generation() {
    // The dataset as the generator built it before rendering was planned:
    // every beat generated in turn, each split sorted by its content hash.
    let spec = DatasetSpec {
        training1: SplitSpec::new(7, 5, 4),
        training2: SplitSpec::new(20, 3, 3),
        test: SplitSpec::new(30, 4, 6),
    };
    let mut gen = SyntheticEcg::with_seed(77)
        .with_variability(Variability::challenging())
        .with_noise(NoiseModel::ambulatory());
    let mut build = |split: SplitSpec| {
        let mut beats = Vec::new();
        for (class, &count) in BeatClass::LABELLED.iter().zip(&split.counts) {
            beats.extend(gen.beats(*class, count));
        }
        beats.sort_by_key(|b| {
            b.samples.iter().fold(0u64, |acc, &s| {
                acc.wrapping_mul(31).wrapping_add(s.to_bits())
            })
        });
        beats
    };
    let reference = Dataset {
        training1: build(spec.training1),
        training2: build(spec.training2),
        test: build(spec.test),
        spec,
    };
    let par = Par::with_threads(NonZeroUsize::new(4));
    assert_same_dataset(
        &reference,
        &Dataset::synthetic_with(spec, 77, par),
        "planned",
    );
}

//! Dataset construction matching Table I of the paper.
//!
//! The paper trains and evaluates on three disjoint beat sets drawn from the
//! MIT-BIH Arrhythmia Database:
//!
//! | split | N | V | L | total |
//! |---|---|---|---|---|
//! | training set 1 | 150 | 150 | 150 | 450 |
//! | training set 2 | 10 024 | 892 | 1 084 | 12 000 |
//! | test set | 74 355 | 6 618 | 8 039 | 89 012 |
//!
//! *Training set 1* (small, class-balanced) trains the neuro-fuzzy membership
//! functions with the scaled conjugate gradient; *training set 2* scores each
//! candidate random projection inside the genetic algorithm; the *test set*
//! (every N/V/L beat of the database) produces the reported figures of merit.
//!
//! [`DatasetSpec::paper`] reproduces those exact counts; scaled-down variants
//! are provided because the full 101 462-beat corpus is expensive to generate
//! and classify inside unit tests.

use crate::beat::{Beat, BeatClass, NUM_CLASSES};
use crate::synthetic::SyntheticEcg;
use crate::{EcgError, Result};
use hbc_par::Par;

/// Identifier of one of the three splits used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Small class-balanced set used to train the membership functions.
    Training1,
    /// Larger set used to score candidate projections in the genetic search.
    Training2,
    /// Full evaluation set.
    Test,
}

impl std::fmt::Display for Split {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Split::Training1 => write!(f, "training set 1"),
            Split::Training2 => write!(f, "training set 2"),
            Split::Test => write!(f, "test set"),
        }
    }
}

/// Per-split class composition (number of beats per class, in N/V/L order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitSpec {
    /// Beats per class in class-index order (N, V, L).
    pub counts: [usize; NUM_CLASSES],
}

impl SplitSpec {
    /// Creates a split specification from per-class counts (N, V, L).
    pub fn new(n: usize, v: usize, l: usize) -> Self {
        SplitSpec { counts: [n, v, l] }
    }

    /// Total number of beats in the split.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Fraction of abnormal (V + L) beats.
    pub fn abnormal_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.counts[1] + self.counts[2]) as f64 / self.total() as f64
    }

    /// Scales every class count by `factor` (rounding up so no class
    /// disappears as long as it was present).
    pub fn scaled(&self, factor: f64) -> SplitSpec {
        let scale = |c: usize| {
            if c == 0 {
                0
            } else {
                ((c as f64 * factor).ceil() as usize).max(1)
            }
        };
        SplitSpec {
            counts: [
                scale(self.counts[0]),
                scale(self.counts[1]),
                scale(self.counts[2]),
            ],
        }
    }
}

/// Composition of the three splits (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Training set 1 composition.
    pub training1: SplitSpec,
    /// Training set 2 composition.
    pub training2: SplitSpec,
    /// Test set composition.
    pub test: SplitSpec,
}

impl DatasetSpec {
    /// The exact Table I composition of the paper.
    pub fn paper() -> Self {
        DatasetSpec {
            training1: SplitSpec::new(150, 150, 150),
            training2: SplitSpec::new(10_024, 892, 1_084),
            test: SplitSpec::new(74_355, 6_618, 8_039),
        }
    }

    /// A reduced composition that preserves the class imbalance of Table I but
    /// scales the two large splits by `factor` (training set 1 is kept at its
    /// original 150/150/150 because it is already small).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn paper_scaled(factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        let full = Self::paper();
        DatasetSpec {
            training1: full.training1,
            training2: full.training2.scaled(factor),
            test: full.test.scaled(factor),
        }
    }

    /// A small composition for fast unit tests and doc examples.
    pub fn tiny() -> Self {
        DatasetSpec {
            training1: SplitSpec::new(60, 60, 60),
            training2: SplitSpec::new(320, 40, 40),
            test: SplitSpec::new(500, 50, 50),
        }
    }

    /// The composition of a given split.
    pub fn split(&self, split: Split) -> SplitSpec {
        match split {
            Split::Training1 => self.training1,
            Split::Training2 => self.training2,
            Split::Test => self.test,
        }
    }

    /// Total number of beats across all splits.
    pub fn total(&self) -> usize {
        self.training1.total() + self.training2.total() + self.test.total()
    }
}

impl Default for DatasetSpec {
    fn default() -> Self {
        DatasetSpec::paper()
    }
}

/// A fully materialised dataset: labelled beats for each split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Beats of training set 1.
    pub training1: Vec<Beat>,
    /// Beats of training set 2.
    pub training2: Vec<Beat>,
    /// Beats of the test set.
    pub test: Vec<Beat>,
    /// The specification the dataset was built from.
    pub spec: DatasetSpec,
}

impl Dataset {
    /// Generates a synthetic dataset following `spec`, using `seed` for
    /// reproducibility.
    ///
    /// Beats are generated independently per split with interleaved classes so
    /// that no split shares a beat with another, mirroring the paper's use of
    /// disjoint database excerpts. The generator uses the *challenging*
    /// intra-class variability and heavy ambulatory noise so the classes
    /// overlap like real MIT-BIH morphologies do — without this the
    /// classification experiments saturate at 100 % and the paper's
    /// comparisons become meaningless.
    ///
    /// Rendering runs on all cores ([`Self::synthetic_with`]); the dataset
    /// is bit-identical for any thread count.
    pub fn synthetic(spec: DatasetSpec, seed: u64) -> Dataset {
        Self::synthetic_with(spec, seed, Par::default())
    }

    /// [`Self::synthetic`] rendered on `par`.
    ///
    /// Every beat's randomness is drawn in generation order first
    /// ([`SyntheticEcg::plan_beat`]: split by split, class by class), and
    /// every sample buffer is allocated here on the calling thread; the
    /// workers then only compute samples ([`SyntheticEcg::render`]), which
    /// is where nearly all the time goes — about ten libm calls per sample.
    pub fn synthetic_with(spec: DatasetSpec, seed: u64, par: Par) -> Dataset {
        let mut gen = SyntheticEcg::with_seed(seed)
            .with_variability(crate::synthetic::Variability::challenging())
            .with_noise(crate::noise::NoiseModel::ambulatory());
        let splits = [spec.training1, spec.training2, spec.test];
        let mut plans = Vec::with_capacity(spec.total());
        for split in splits {
            for (class_idx, &count) in split.counts.iter().enumerate() {
                let class = BeatClass::from_index(class_idx).expect("class index in range");
                plans.extend((0..count).map(|_| gen.plan_beat(class)));
            }
        }
        let mut beats: Vec<Beat> = plans.iter().map(|p| gen.empty_beat(p.class())).collect();
        par.for_each(beats.iter_mut().zip(&plans), |(beat, plan)| {
            gen.render(plan, &mut beat.samples);
        });
        let mut rest = beats.into_iter();
        let [training1, training2, test] = splits.map(|split| {
            let mut beats: Vec<Beat> = rest.by_ref().take(split.total()).collect();
            // Interleave classes deterministically so batch-order effects do
            // not leak class information into any downstream consumer. A
            // simple deterministic shuffle key derived from the sample
            // content keeps the operation reproducible without an RNG; the
            // sort is stable, so equal keys keep generation order.
            beats.sort_by_cached_key(|b| {
                b.samples.iter().fold(0u64, |acc, &s| {
                    acc.wrapping_mul(31).wrapping_add(s.to_bits())
                })
            });
            beats
        });
        Dataset {
            training1,
            training2,
            test,
            spec,
        }
    }

    /// Builds a dataset from already-extracted beats (e.g. from real MIT-BIH
    /// records), splitting them according to `spec` in N/V/L order.
    ///
    /// # Errors
    ///
    /// Returns [`EcgError::Dataset`] when `beats` does not contain enough
    /// beats of some class to satisfy the specification.
    pub fn from_beats(spec: DatasetSpec, beats: &[Beat]) -> Result<Dataset> {
        let mut by_class: [Vec<&Beat>; NUM_CLASSES] = [Vec::new(), Vec::new(), Vec::new()];
        for b in beats {
            if let Some(i) = b.class.index() {
                by_class[i].push(b);
            }
        }
        let mut cursor = [0usize; NUM_CLASSES];
        let mut take = |s: SplitSpec| -> Result<Vec<Beat>> {
            let mut out = Vec::with_capacity(s.total());
            for (class_idx, &count) in s.counts.iter().enumerate() {
                let available = by_class[class_idx].len() - cursor[class_idx];
                if available < count {
                    return Err(EcgError::Dataset(format!(
                        "class {} needs {count} beats but only {available} remain",
                        BeatClass::from_index(class_idx).expect("valid index")
                    )));
                }
                for k in 0..count {
                    out.push(by_class[class_idx][cursor[class_idx] + k].clone());
                }
                cursor[class_idx] += count;
            }
            Ok(out)
        };
        let training1 = take(spec.training1)?;
        let training2 = take(spec.training2)?;
        let test = take(spec.test)?;
        Ok(Dataset {
            training1,
            training2,
            test,
            spec,
        })
    }

    /// Returns the beats of a split.
    pub fn split(&self, split: Split) -> &[Beat] {
        match split {
            Split::Training1 => &self.training1,
            Split::Training2 => &self.training2,
            Split::Test => &self.test,
        }
    }

    /// Counts the beats of each class in a split (N, V, L order).
    pub fn class_counts(&self, split: Split) -> [usize; NUM_CLASSES] {
        let mut counts = [0usize; NUM_CLASSES];
        for b in self.split(split) {
            if let Some(i) = b.class.index() {
                counts[i] += 1;
            }
        }
        counts
    }

    /// Formats the Table I style composition report for this dataset.
    pub fn table1_report(&self) -> String {
        let mut s = String::new();
        s.push_str("split              N        V        L    Total\n");
        for split in [Split::Training1, Split::Training2, Split::Test] {
            let c = self.class_counts(split);
            s.push_str(&format!(
                "{:<16} {:>7} {:>8} {:>8} {:>8}\n",
                split.to_string(),
                c[0],
                c[1],
                c[2],
                c.iter().sum::<usize>()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_matches_table1() {
        let spec = DatasetSpec::paper();
        assert_eq!(spec.training1.counts, [150, 150, 150]);
        assert_eq!(spec.training1.total(), 450);
        assert_eq!(spec.training2.counts, [10_024, 892, 1_084]);
        assert_eq!(spec.training2.total(), 12_000);
        assert_eq!(spec.test.counts, [74_355, 6_618, 8_039]);
        assert_eq!(spec.test.total(), 89_012);
        assert_eq!(spec.total(), 450 + 12_000 + 89_012);
    }

    #[test]
    fn scaled_spec_preserves_balance_and_keeps_train1() {
        let spec = DatasetSpec::paper_scaled(0.01);
        assert_eq!(spec.training1.counts, [150, 150, 150]);
        assert!(spec.test.counts[0] >= 740 && spec.test.counts[0] <= 745);
        assert!(spec.test.counts[1] >= 66 && spec.test.counts[1] <= 68);
        // Abnormal fraction close to the paper's 16.5 %.
        let full = DatasetSpec::paper();
        assert!(
            (spec.test.abnormal_fraction() - full.test.abnormal_fraction()).abs() < 0.01,
            "abnormal fraction drifted: {} vs {}",
            spec.test.abnormal_fraction(),
            full.test.abnormal_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn scaled_spec_rejects_zero_factor() {
        DatasetSpec::paper_scaled(0.0);
    }

    #[test]
    fn synthetic_dataset_matches_spec() {
        let spec = DatasetSpec::tiny();
        let ds = Dataset::synthetic(spec, 7);
        assert_eq!(ds.class_counts(Split::Training1), spec.training1.counts);
        assert_eq!(ds.class_counts(Split::Training2), spec.training2.counts);
        assert_eq!(ds.class_counts(Split::Test), spec.test.counts);
        assert_eq!(ds.training1.len(), spec.training1.total());
    }

    #[test]
    fn synthetic_dataset_is_reproducible() {
        let spec = DatasetSpec::tiny();
        let a = Dataset::synthetic(spec, 99);
        let b = Dataset::synthetic(spec, 99);
        assert_eq!(a.training1, b.training1);
        assert_eq!(a.test, b.test);
        let c = Dataset::synthetic(spec, 100);
        assert_ne!(a.training1, c.training1);
    }

    #[test]
    fn from_beats_respects_spec_and_reports_shortage() {
        let mut gen = SyntheticEcg::with_seed(5);
        let mut beats = Vec::new();
        beats.extend(gen.beats(BeatClass::Normal, 50));
        beats.extend(gen.beats(BeatClass::PrematureVentricular, 10));
        beats.extend(gen.beats(BeatClass::LeftBundleBranchBlock, 10));
        let small = DatasetSpec {
            training1: SplitSpec::new(10, 5, 5),
            training2: SplitSpec::new(20, 3, 3),
            test: SplitSpec::new(20, 2, 2),
        };
        let ds = Dataset::from_beats(small, &beats).expect("enough beats");
        assert_eq!(ds.class_counts(Split::Training1), [10, 5, 5]);
        assert_eq!(ds.class_counts(Split::Test), [20, 2, 2]);

        let too_big = DatasetSpec {
            training1: SplitSpec::new(10, 5, 5),
            training2: SplitSpec::new(20, 3, 3),
            test: SplitSpec::new(30, 2, 2), // needs 60 N but only 50 exist
        };
        assert!(matches!(
            Dataset::from_beats(too_big, &beats),
            Err(EcgError::Dataset(_))
        ));
    }

    #[test]
    fn table1_report_contains_all_rows() {
        let ds = Dataset::synthetic(DatasetSpec::tiny(), 1);
        let report = ds.table1_report();
        assert!(report.contains("training set 1"));
        assert!(report.contains("training set 2"));
        assert!(report.contains("test set"));
        assert!(report.contains("Total"));
    }

    #[test]
    fn splits_are_disjoint_objects() {
        let ds = Dataset::synthetic(DatasetSpec::tiny(), 3);
        // Disjointness of synthetic splits: no identical sample vectors across
        // splits (astronomically unlikely to collide if truly independent).
        for a in ds.training1.iter().take(10) {
            for b in ds.test.iter().take(50) {
                assert_ne!(a.samples, b.samples);
            }
        }
    }
}

//! Parallel multi-record evaluation engine.
//!
//! The experiments of the paper evaluate a trained pipeline over large beat
//! sets — the full Table I test split holds 89 012 beats, and a deployed
//! monitoring service would score many patient records at once. Beat
//! classification is embarrassingly parallel (every decision depends only on
//! one beat and the immutable trained pipeline), so this module provides a
//! work-stealing runner that spreads records, batches of beats, or arbitrary
//! sweep items over all cores.
//!
//! The generic substrate — the scoped-thread pool, the shared work iterator
//! and the ordered result slots that make the merged [`EvaluationReport`]
//! *bit-identical* to the sequential pass for any thread count — lives in the
//! [`hbc_par`] crate (training needs the same runner without depending on
//! this framework crate). This module layers the domain on top: beat
//! batching, per-batch scratch buffers, report merging in submission order
//! and the record-level drivers.
//!
//! The experiment modules ([`crate::experiments`]) route their dataset-scale
//! evaluations and α sweeps through an [`Engine`], as does
//! [`crate::pipeline::TrainedSystem`].

use std::num::NonZeroUsize;
use std::sync::Mutex;

use hbc_ecg::beat::{Beat, BeatClass, BeatWindow};
use hbc_ecg::record::{EcgRecord, Lead};
use hbc_embedded::firmware::{BeatScratch, FirmwareReport, WbsnFirmware};
use hbc_embedded::int_classifier::AlphaQ16;
use hbc_nfc::metrics::EvaluationReport;
use hbc_nfc::FittedPipeline;
use hbc_par::Par;

use crate::Result;

/// Configuration of the parallel runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads to use; `None` means one per available core.
    pub threads: Option<NonZeroUsize>,
    /// Number of beats grouped into one work item when evaluating a flat
    /// beat set. Small enough to load-balance, large enough that the shared
    /// work iterator is uncontended.
    pub batch_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: None,
            batch_size: 512,
        }
    }
}

/// Work-stealing parallel evaluator.
///
/// An engine is cheap to construct and holds no threads between calls; each
/// `map`/`evaluate` call spins up a scoped worker pool and tears it down on
/// return, so borrowing pipelines and datasets needs no `'static` bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine with an explicit configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// An engine pinned to one worker — the reference sequential path that
    /// parallel runs are asserted bit-identical against.
    pub fn sequential() -> Self {
        Engine::new(EngineConfig {
            threads: NonZeroUsize::new(1),
            ..EngineConfig::default()
        })
    }

    /// The batch size used when chunking flat collections into work items.
    pub fn batch_size(&self) -> usize {
        self.config.batch_size.max(1)
    }

    /// The generic runner this engine schedules its work on.
    pub fn par(&self) -> Par {
        Par::with_threads(self.config.threads)
    }

    /// The number of workers a call on `items` would use.
    pub fn workers_for(&self, items: usize) -> usize {
        self.par().workers_for(items)
    }

    /// Applies `f` to every item, returning the results in item order
    /// (see [`Par::map`]).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par().map(items, f)
    }

    /// Fallible [`Engine::map`]: short-circuits on the first error *in item
    /// order* (all items still run, but the reported error is deterministic).
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R> + Sync,
    {
        self.par().try_map(items, f)
    }

    /// Evaluates `evaluator` over a flat beat set, batching beats into work
    /// items of `batch_size` and merging the per-batch reports in order.
    ///
    /// The merged report is bit-identical to a sequential
    /// beat-by-beat pass (see [`EvaluationReport::merge`]).
    ///
    /// # Errors
    ///
    /// Returns the first (in beat order) classification error.
    pub fn evaluate_beats<E: BeatEvaluator>(
        &self,
        evaluator: &E,
        beats: &[Beat],
    ) -> Result<EvaluationReport> {
        let batch = self.batch_size();
        let batches: Vec<&[Beat]> = beats.chunks(batch).collect();
        let reports = self.try_map(&batches, |chunk| evaluator.evaluate_batch(chunk))?;
        Ok(merge_in_order(reports))
    }

    /// Evaluates `evaluator` over many annotated records concurrently: each
    /// record is one work item (beat extraction + batched classification),
    /// and the per-record reports are merged in record order.
    ///
    /// # Errors
    ///
    /// Returns the first (in record order) extraction or classification
    /// error.
    pub fn evaluate_records<E: BeatEvaluator>(
        &self,
        evaluator: &E,
        records: &[EcgRecord],
        lead: Lead,
        window: BeatWindow,
    ) -> Result<MultiRecordReport> {
        let per_record = self.try_map(records, |record| {
            let beats = record.extract_beats(lead, window)?;
            // Batch within the record as well so one record's beats share
            // cache-friendly contiguous scans.
            let mut report = EvaluationReport::new();
            for chunk in beats.chunks(self.batch_size()) {
                report.merge(&evaluator.evaluate_batch(chunk)?);
            }
            Ok(RecordReport {
                record_id: record.id,
                beats: beats.len(),
                report,
            })
        })?;
        let mut merged = EvaluationReport::new();
        for record in &per_record {
            merged.merge(&record.report);
        }
        Ok(MultiRecordReport { per_record, merged })
    }

    /// Runs the complete Figure 6 firmware pipeline over many records
    /// concurrently, one record per work item, returning the per-record
    /// [`FirmwareReport`]s in input order (bit-identical to a sequential
    /// pass — each record's outcome depends only on its own samples).
    ///
    /// Each record's conditioning front-end runs whole-signal on the
    /// streaming filter ([`WbsnFirmware::process_record_with`]); the
    /// per-beat working sets are drawn from a pool bounded by the worker
    /// count, so steady-state multi-record processing reuses a few
    /// [`BeatScratch`]es instead of re-allocating them per record.
    ///
    /// # Errors
    ///
    /// Returns the first (in record order) processing error.
    pub fn process_records(
        &self,
        firmware: &WbsnFirmware,
        records: &[EcgRecord],
    ) -> Result<Vec<FirmwareReport>> {
        let pool: Mutex<Vec<BeatScratch>> = Mutex::new(Vec::new());
        self.try_map(records, |record| {
            let mut beat = pool
                .lock()
                .expect("scratch pool poisoned")
                .pop()
                .unwrap_or_default();
            let report = firmware
                .process_record_with(record, &mut beat)
                .map_err(crate::CoreError::Embedded);
            pool.lock().expect("scratch pool poisoned").push(beat);
            report
        })
    }
}

/// One beat-classification backend the engine can drive.
///
/// Implementations must be cheap to call from many threads at once; both
/// trained pipelines qualify because classification only reads the trained
/// parameters.
pub trait BeatEvaluator: Sync {
    /// Classifies one beat.
    ///
    /// # Errors
    ///
    /// Returns an error when the beat window does not match the pipeline.
    fn classify_beat(&self, beat: &Beat) -> Result<BeatClass>;

    /// Evaluates one contiguous batch of beats, skipping unlabelled beats.
    ///
    /// The default walks [`Self::classify_beat`] beat by beat; evaluators
    /// whose hot path allocates per beat override this to reuse scratch
    /// buffers across the whole batch (the batch is always processed by a
    /// single worker, so the override needs no synchronisation).
    ///
    /// # Errors
    ///
    /// Returns the first (in beat order) classification error.
    fn evaluate_batch(&self, beats: &[Beat]) -> Result<EvaluationReport> {
        let mut report = EvaluationReport::new();
        for beat in beats {
            if beat.class.index().is_none() {
                continue;
            }
            let predicted = self.classify_beat(beat)?;
            report.record(beat.class, predicted);
        }
        Ok(report)
    }
}

/// The WBSN firmware image at its own α.
impl BeatEvaluator for WbsnFirmware {
    fn classify_beat(&self, beat: &Beat) -> Result<BeatClass> {
        Ok(self.classify_window(&beat.samples)?)
    }

    fn evaluate_batch(&self, beats: &[Beat]) -> Result<EvaluationReport> {
        WbsnEvaluator {
            firmware: self,
            alpha: self.alpha,
        }
        .evaluate_batch(beats)
    }
}

/// The WBSN firmware image at an explicit α_test (calibration probes and
/// the Figure 5 sweeps).
#[derive(Debug, Clone, Copy)]
pub struct WbsnEvaluator<'a> {
    /// The deployed image being driven.
    pub firmware: &'a WbsnFirmware,
    /// The α_test operating point.
    pub alpha: AlphaQ16,
}

impl BeatEvaluator for WbsnEvaluator<'_> {
    fn classify_beat(&self, beat: &Beat) -> Result<BeatClass> {
        Ok(self.firmware.classify_window_with(
            &beat.samples,
            self.alpha,
            &mut BeatScratch::default(),
            None,
        )?)
    }

    fn evaluate_batch(&self, beats: &[Beat]) -> Result<EvaluationReport> {
        // One scratch per batch: the downsample/quantise/projection buffers
        // are reused across every beat of the batch.
        let mut scratch = BeatScratch::default();
        let mut report = EvaluationReport::new();
        for beat in beats {
            if beat.class.index().is_none() {
                continue;
            }
            let predicted = self.firmware.classify_window_with(
                &beat.samples,
                self.alpha,
                &mut scratch,
                None,
            )?;
            report.record(beat.class, predicted);
        }
        Ok(report)
    }
}

/// The floating-point PC pipeline at an explicit α.
#[derive(Debug, Clone, Copy)]
pub struct PcEvaluator<'a> {
    /// The fitted floating-point pipeline.
    pub pipeline: &'a FittedPipeline,
    /// The defuzzification coefficient to evaluate at.
    pub alpha: f64,
}

impl BeatEvaluator for PcEvaluator<'_> {
    fn classify_beat(&self, beat: &Beat) -> Result<BeatClass> {
        let coefficients = self
            .pipeline
            .projection
            .try_project(&beat.samples)
            .map_err(crate::CoreError::Rp)?;
        Ok(self
            .pipeline
            .classifier
            .classify(&coefficients, self.alpha)
            .map_err(crate::CoreError::Nfc)?
            .class)
    }
}

/// Evaluation of one record within a [`MultiRecordReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordReport {
    /// Identifier of the evaluated record.
    pub record_id: u32,
    /// Number of beats extracted (and considered) from the record.
    pub beats: usize,
    /// Figures of merit for this record alone.
    pub report: EvaluationReport,
}

/// Aggregated outcome of a multi-record evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRecordReport {
    /// Per-record reports, in input record order.
    pub per_record: Vec<RecordReport>,
    /// All per-record reports merged (in record order).
    pub merged: EvaluationReport,
}

impl MultiRecordReport {
    /// Total number of classified beats across all records.
    pub fn total_beats(&self) -> usize {
        self.merged.total()
    }

    /// The report of one record, if it was part of the evaluation.
    pub fn record(&self, record_id: u32) -> Option<&RecordReport> {
        self.per_record.iter().find(|r| r.record_id == record_id)
    }
}

/// Merges per-batch reports in submission order.
fn merge_in_order(reports: Vec<EvaluationReport>) -> EvaluationReport {
    let mut merged = EvaluationReport::new();
    for report in &reports {
        merged.merge(report);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::pipeline::TrainedSystem;
    use std::sync::OnceLock;

    fn system() -> &'static TrainedSystem {
        static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
        SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
    }

    /// An engine guaranteed to run real worker threads even on a single-core
    /// host (where `Engine::default()` resolves to the sequential fast path).
    fn four_workers() -> Engine {
        Engine::new(EngineConfig {
            threads: NonZeroUsize::new(4),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = four_workers().map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        // Sequential engine takes the single-worker fast path.
        let seq = Engine::sequential().map(&items, |&x| x * 2);
        assert_eq!(doubled, seq);
    }

    #[test]
    fn try_map_reports_the_first_error_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let engine = four_workers();
        let failed = engine.try_map(&items, |&x| -> Result<usize> {
            if x % 10 == 3 {
                Err(crate::CoreError::Config(format!("bad item {x}")))
            } else {
                Ok(x)
            }
        });
        let message = failed.expect_err("items 3, 13, ... fail").to_string();
        assert!(message.contains("bad item 3"), "got: {message}");
    }

    #[test]
    fn workers_never_exceed_items() {
        let engine = Engine::default();
        assert_eq!(engine.workers_for(0), 1);
        assert_eq!(engine.workers_for(1), 1);
        assert!(engine.workers_for(10_000) >= 1);
        let two = Engine::new(EngineConfig {
            threads: NonZeroUsize::new(2),
            ..EngineConfig::default()
        });
        assert_eq!(two.workers_for(10_000), 2);
    }

    #[test]
    fn parallel_beat_evaluation_is_bit_identical_to_the_pipeline_loop() {
        let system = system();
        let reference = system
            .wbsn
            .evaluate_batch(&system.dataset.test)
            .expect("sequential evaluation");
        for engine in [
            Engine::sequential(),
            four_workers(),
            // A deliberately tiny batch size maximises merge boundaries.
            Engine::new(EngineConfig {
                threads: NonZeroUsize::new(3),
                batch_size: 7,
            }),
        ] {
            let parallel = engine
                .evaluate_beats(&system.wbsn, &system.dataset.test)
                .expect("parallel evaluation");
            assert_eq!(parallel, reference);
        }
    }

    #[test]
    fn process_records_is_bit_identical_for_any_thread_count() {
        use hbc_ecg::synthetic::SyntheticEcg;

        let firmware = &system().wbsn;
        let mut generator = SyntheticEcg::with_seed(41);
        let records: Vec<EcgRecord> = (0..4)
            .map(|i| {
                let rhythm = generator.rhythm(30, 0.1, 0.1);
                generator.record(300 + i, &rhythm, 2).expect("record")
            })
            .collect();

        let reference: Vec<_> = records
            .iter()
            .map(|r| firmware.process_record(r).expect("sequential"))
            .collect();
        for engine in [Engine::sequential(), four_workers()] {
            let parallel = engine
                .process_records(firmware, &records)
                .expect("parallel");
            assert_eq!(parallel, reference);
        }
    }

    #[test]
    fn pc_evaluator_matches_fitted_pipeline_evaluate() {
        let system = system();
        let alpha = system.pc.alpha_train;
        let reference = system
            .pc
            .evaluate(&system.dataset.test, alpha)
            .expect("sequential evaluation");
        let parallel = four_workers()
            .evaluate_beats(
                &PcEvaluator {
                    pipeline: &system.pc,
                    alpha,
                },
                &system.dataset.test,
            )
            .expect("parallel evaluation");
        assert_eq!(parallel, reference);
    }
}

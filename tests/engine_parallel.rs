//! Parity tests for the parallel evaluation engine: whatever the thread
//! count, batch size or record sharding, the merged [`EvaluationReport`]
//! must be *bit-identical* to the sequential reference pass. This is the
//! contract that lets every experiment route its dataset-scale scans through
//! the engine without changing a single reported figure.

use heartbeat_rp::engine::{BeatEvaluator, Engine, EngineConfig, PcEvaluator, WbsnEvaluator};
use heartbeat_rp::hbc_ecg::beat::{Beat, BeatWindow};
use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::int_classifier::AlphaQ16;
use heartbeat_rp::{ExperimentConfig, TrainedSystem};
use std::num::NonZeroUsize;
use std::sync::OnceLock;

fn system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
}

/// An engine guaranteed to use real worker threads even on single-core CI
/// hosts, where `Engine::default()` would resolve to the sequential fast
/// path and the parity assertions would be vacuous.
fn four_workers() -> Engine {
    Engine::new(EngineConfig {
        threads: NonZeroUsize::new(4),
        ..EngineConfig::default()
    })
}

/// A small fleet of annotated synthetic records with mixed rhythms.
fn records() -> Vec<EcgRecord> {
    let mut generator = SyntheticEcg::with_seed(41);
    (0..6)
        .map(|i| {
            let rhythm = generator.rhythm(40 + 5 * (i as usize), 0.12, 0.10);
            generator
                .record(100 + i, &rhythm, 2)
                .expect("synthetic record is consistent")
        })
        .collect()
}

#[test]
fn parallel_record_evaluation_is_bit_identical_to_sequential() {
    let system = system();
    let records = records();

    let sequential = Engine::sequential()
        .evaluate_records(&system.wbsn, &records, Lead(0), BeatWindow::PAPER)
        .expect("sequential multi-record evaluation");
    for engine in [
        four_workers(),
        Engine::new(EngineConfig {
            threads: NonZeroUsize::new(3),
            batch_size: 5,
        }),
    ] {
        let parallel = engine
            .evaluate_records(&system.wbsn, &records, Lead(0), BeatWindow::PAPER)
            .expect("parallel multi-record evaluation");
        // Bit-identical: merged aggregate AND every per-record report.
        assert_eq!(parallel.merged, sequential.merged);
        assert_eq!(parallel.per_record, sequential.per_record);
    }

    // The per-record structure is faithful: ids survive, every record
    // contributed, and the merge is exactly the sum of the parts.
    assert_eq!(sequential.per_record.len(), records.len());
    for record in &records {
        let per = sequential
            .record(record.id)
            .expect("record appears in the report");
        assert_eq!(per.report.total(), per.beats);
    }
    let summed: usize = sequential.per_record.iter().map(|r| r.report.total()).sum();
    assert_eq!(sequential.total_beats(), summed);
    assert!(
        summed > 0,
        "the synthetic fleet produced classifiable beats"
    );
}

#[test]
fn record_evaluation_matches_flat_concatenated_beats() {
    // Evaluating record-by-record and merging must equal one flat pass over
    // the concatenation of every record's beats.
    let system = system();
    let records = records();
    let multi = four_workers()
        .evaluate_records(&system.wbsn, &records, Lead(0), BeatWindow::PAPER)
        .expect("multi-record evaluation");

    let flat: Vec<Beat> = records
        .iter()
        .flat_map(|r| r.extract_beats(Lead(0), BeatWindow::PAPER).expect("lead 0"))
        .collect();
    let reference = system
        .wbsn
        .evaluate_batch(&flat)
        .expect("flat sequential evaluation");
    assert_eq!(multi.merged, reference);
}

#[test]
fn parallel_split_evaluation_matches_sequential_for_both_pipelines() {
    let system = system();
    let parallel = four_workers();

    // WBSN integer pipeline at a non-calibrated α, via the explicit
    // evaluator.
    let evaluator = WbsnEvaluator {
        firmware: &system.wbsn,
        alpha: AlphaQ16::from_f64(0.25).expect("valid alpha"),
    };
    let reference = evaluator
        .evaluate_batch(&system.dataset.test)
        .expect("sequential WBSN evaluation");
    let report = parallel
        .evaluate_beats(&evaluator, &system.dataset.test)
        .expect("parallel WBSN evaluation");
    assert_eq!(report, reference);

    // Floating-point PC pipeline.
    let reference = system
        .pc
        .evaluate(&system.dataset.test, system.pc.alpha_train)
        .expect("sequential PC evaluation");
    let report = parallel
        .evaluate_beats(
            &PcEvaluator {
                pipeline: &system.pc,
                alpha: system.pc.alpha_train,
            },
            &system.dataset.test,
        )
        .expect("parallel PC evaluation");
    assert_eq!(report, reference);
}

#[test]
fn engine_backed_test_split_helpers_match_direct_loops() {
    let system = system();
    let wbsn = system
        .evaluate_wbsn_on_test()
        .expect("engine-backed helper");
    let direct = system
        .wbsn
        .evaluate_batch(&system.dataset.test)
        .expect("direct loop");
    assert_eq!(wbsn, direct);

    let pc = system.evaluate_pc_on_test().expect("engine-backed helper");
    let direct = system
        .pc
        .evaluate(&system.dataset.test, system.pc.alpha_train)
        .expect("direct loop");
    assert_eq!(pc, direct);
}

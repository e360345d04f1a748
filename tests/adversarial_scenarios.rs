//! Adversarial ECG scenarios through the full embedded pipeline.
//!
//! The classifier is trained on three morphologies (N, V, L); ambulatory
//! reality serves rhythms and artifacts it has never seen. The safety
//! contract under test is **ARR-safe degradation**: whatever the input —
//! AF-like irregular rhythm, electrode pops, a flatlined lead, baseline
//! storms, pacing artifacts, a skewed ADC clock — the pipeline must
//!
//! * keep running (no errors, no panics),
//! * keep detecting beats, and
//! * keep the routing invariant: exactly the beats classified as abnormal
//!   (V, L or Unknown — everything but confident-Normal) are delineated and
//!   forwarded. A degraded input may cost classification accuracy; it must
//!   never silently discard a beat that should have travelled onward.

use std::sync::OnceLock;

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_ecg::beat::BeatClass;
use heartbeat_rp::hbc_ecg::record::EcgRecord;
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::firmware::FirmwareReport;
use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::pipeline::TrainedSystem;

fn system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
}

/// The ARR-safe routing invariant plus basic liveness.
fn assert_arr_safe(report: &FirmwareReport, label: &str) {
    assert!(
        !report.beats.is_empty(),
        "{label}: no beats detected at all"
    );
    for (i, beat) in report.beats.iter().enumerate() {
        assert_eq!(
            beat.delineated,
            beat.predicted.is_abnormal(),
            "{label}: beat {i} at sample {} predicted {:?} but routing disagrees",
            beat.peak,
            beat.predicted
        );
        if beat.delineated {
            assert!(
                beat.fiducials_transmitted > 0,
                "{label}: beat {i} routed onward without fiducials"
            );
        }
    }
}

fn process(fw: &WbsnFirmware, record: &EcgRecord, label: &str) -> FirmwareReport {
    let report = fw
        .process_record(record)
        .unwrap_or_else(|e| panic!("{label}: pipeline errored on degraded input: {e}"));
    assert_arr_safe(&report, label);
    report
}

#[test]
fn af_like_rhythm_is_degraded_arr_safely() {
    let fw = &system().wbsn;
    let mut gen = SyntheticEcg::with_seed(901);
    let record = gen.af_record(400, 35, 2).expect("af record");
    assert!(record
        .annotations
        .iter()
        .all(|a| a.class == BeatClass::Unknown));
    let report = process(fw, &record, "AF rhythm");
    // The irregular rhythm must not collapse beat detection: the pipeline
    // sees a substantial share of the conducted beats.
    assert!(
        report.beats.len() * 2 >= record.annotations.len(),
        "only {} of {} AF beats detected",
        report.beats.len(),
        record.annotations.len()
    );
}

#[test]
fn electrode_pops_do_not_silence_the_pipeline() {
    let fw = &system().wbsn;
    let mut gen = SyntheticEcg::with_seed(902);
    let rhythm = gen.rhythm(35, 0.1, 0.1);
    let mut record = gen.record(401, &rhythm, 2).expect("record");
    gen.electrode_pop(&mut record, 4);
    process(fw, &record, "electrode pops");
}

#[test]
fn lead_dropout_on_any_lead_keeps_the_pipeline_running() {
    let fw = &system().wbsn;
    let mut gen = SyntheticEcg::with_seed(903);
    let rhythm = gen.rhythm(35, 0.1, 0.1);
    let record = gen.record(402, &rhythm, 3).expect("record");
    // A detached wire on an auxiliary lead — and, harder, on the
    // classification lead itself. Both must degrade, not error.
    for lead in 0..record.num_leads() {
        let mut dropped = record.clone();
        SyntheticEcg::lead_dropout(&mut dropped, lead, 5.0, 4.0);
        process(fw, &dropped, &format!("dropout on lead {lead}"));
    }
}

#[test]
fn baseline_storm_is_degraded_arr_safely() {
    let fw = &system().wbsn;
    let mut gen = SyntheticEcg::with_seed(904);
    let rhythm = gen.rhythm(35, 0.1, 0.1);
    let mut record = gen.record(403, &rhythm, 2).expect("record");
    gen.baseline_storm(&mut record, 1.5);
    process(fw, &record, "baseline storm");
}

#[test]
fn pacing_artifacts_are_degraded_arr_safely() {
    let fw = &system().wbsn;
    let mut gen = SyntheticEcg::with_seed(905);
    let rhythm = gen.rhythm(35, 0.1, 0.1);
    let mut record = gen.record(404, &rhythm, 2).expect("record");
    gen.pacing_artifacts(&mut record, 1.0);
    process(fw, &record, "pacing artifacts");
}

#[test]
fn sample_rate_skew_is_degraded_arr_safely() {
    let fw = &system().wbsn;
    let mut gen = SyntheticEcg::with_seed(906);
    let rhythm = gen.rhythm(35, 0.1, 0.1);
    let record = gen.record(405, &rhythm, 2).expect("record");
    for factor in [0.92, 1.08] {
        let skewed = SyntheticEcg::rate_skew(&record, factor).expect("skew");
        process(fw, &skewed, &format!("rate skew ×{factor}"));
    }
}

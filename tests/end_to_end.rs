//! Cross-crate integration tests: the complete Figure 2 / Figure 6 flow from
//! synthetic acquisition to embedded classification, gating and energy
//! accounting.

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::engine::{BeatEvaluator, WbsnEvaluator};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::int_classifier::AlphaQ16;
use heartbeat_rp::pipeline::TrainedSystem;

fn trained_system() -> TrainedSystem {
    TrainedSystem::train(&ExperimentConfig::quick().with_seed(4242)).expect("training succeeds")
}

#[test]
fn trained_system_meets_the_paper_operating_point_on_synthetic_data() {
    let system = trained_system();

    // The PC classifier, calibrated on training set 2, must carry its
    // operating point to the unseen test split: the paper reports >97 % of
    // abnormal beats recognised with ~7 % of normals misinterpreted.
    let pc = system.evaluate_pc_on_test().expect("pc evaluation");
    assert!(pc.arr() > 0.90, "PC test ARR {}", pc.arr());
    assert!(pc.ndr() > 0.70, "PC test NDR {}", pc.ndr());

    // The integer WBSN variant stays within a few points of the PC version
    // (Table II's second conclusion).
    let wbsn = system.evaluate_wbsn_on_test().expect("wbsn evaluation");
    assert!(wbsn.arr() > 0.85, "WBSN test ARR {}", wbsn.arr());
    assert!(
        (pc.ndr() - wbsn.ndr()).abs() < 0.25,
        "PC NDR {} vs WBSN NDR {}",
        pc.ndr(),
        wbsn.ndr()
    );
}

#[test]
fn firmware_built_from_the_trained_system_processes_a_full_recording() {
    let system = trained_system();
    let firmware = &system.wbsn;

    let mut generator = SyntheticEcg::with_seed(99);
    let rhythm = generator.rhythm(120, 0.1, 0.08);
    let record = generator.record(1, &rhythm, 3).expect("record generation");
    let report = firmware.process_record(&record).expect("firmware run");

    // Most beats must be detected and classified.
    assert!(
        report.beats.len() as f64 > 0.85 * rhythm.len() as f64,
        "only {} of {} beats detected",
        report.beats.len(),
        rhythm.len()
    );
    // The gating invariant of Figure 6: delineation runs exactly for the
    // beats classified as abnormal.
    for beat in &report.beats {
        assert_eq!(beat.delineated, beat.predicted.is_abnormal());
    }
    // The whole point of the paper: the gated system is cheaper than the
    // always-on delineator, in duty cycle and in both energy terms.
    assert!(report.duty.subsystem3 < report.duty.subsystem2);
    assert!(report.energy.compute_reduction() > 0.2);
    assert!(report.energy.radio_reduction() > 0.3);
    assert!(report.energy.total_node_reduction() > 0.05);
}

#[test]
fn packed_projection_and_dense_projection_agree_inside_the_firmware_path() {
    let system = trained_system();
    // Pick a few test beats, push them through the WBSN pipeline and check
    // the packed integer projection matches the dense integer projection the
    // training used.
    let dense = &system.pc_downsampled.projection;
    let packed = &system.wbsn.projection;
    for beat in system.dataset.test.iter().take(20) {
        let downsampled = beat.downsample(system.config.downsample);
        let quantized = system.wbsn.adc.quantize_samples(&downsampled.samples);
        let a = dense.project_i32(&quantized).expect("dims");
        let b = packed.project_i32(&quantized).expect("dims");
        assert_eq!(a, b);
    }
}

#[test]
fn alpha_train_and_alpha_test_can_diverge_like_the_paper_describes() {
    // Section III-B: α_test is tunable independently of α_train. A larger
    // α_test must never decrease the ARR.
    let system = trained_system();
    let beats = &system.dataset.test;
    let at = |alpha: f64| {
        WbsnEvaluator {
            firmware: &system.wbsn,
            alpha: AlphaQ16::from_f64(alpha).expect("valid"),
        }
        .evaluate_batch(beats)
        .expect("evaluate")
    };
    let (lax, strict) = (at(0.0), at(0.6));
    assert!(strict.arr() >= lax.arr() - 1e-12);
    assert!(strict.ndr() <= lax.ndr() + 1e-12);
}

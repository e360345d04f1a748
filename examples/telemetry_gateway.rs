//! A complete telemetry deployment on loopback: the TCP ingestion gateway
//! (`hbc-net`) serving a fleet of WBSN nodes that replay synthetic patient
//! records over real sockets, with live per-patient NDR/ARR.
//!
//! One process, three roles:
//!
//! 1. the **gateway** thread runs the single-threaded nonblocking reactor,
//!    feeding every connection's samples into the shared `StreamHub` (which
//!    fans large batches out over all cores);
//! 2. one **node** thread per patient connects a blocking `NodeClient`,
//!    opens a session (the first seconds calibrate the detection
//!    thresholds, like a node's start-up phase) and replays its record in
//!    ragged chunks under credit-based flow control;
//! 3. the **monitor** (main thread) waits for the nodes, labels the beats
//!    each session received back against the held-back annotations and
//!    prints per-patient and fleet-wide figures of merit.
//!
//! ```text
//! cargo run --release --example telemetry_gateway            # 6 patients
//! cargo run --release --example telemetry_gateway -- paper   # paper-scale training
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use heartbeat_rp::hbc_dsp::window::match_peaks;
use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_embedded::{int_classifier::AlphaQ16, WbsnFirmware};
use heartbeat_rp::hbc_net::{Gateway, GatewayConfig, NodeClient, SessionSummary};
use heartbeat_rp::hbc_nfc::EvaluationReport;
use heartbeat_rp::hbc_rp::PackedProjection;
use heartbeat_rp::pipeline::TrainedSystem;
use heartbeat_rp::{hbc_ecg::beat::BeatWindow, scale_from_args};

/// Labels received beats against the held-back annotations (position match
/// within the firmware's tolerance) and accumulates the confusion counts.
fn label(record: &EcgRecord, outcomes: &[BeatOutcome]) -> EvaluationReport {
    let tolerance = (0.06 * record.fs) as usize;
    let peaks: Vec<usize> = outcomes.iter().map(|o| o.peak).collect();
    let matching = match_peaks(&peaks, &record.annotations, tolerance);
    let mut report = EvaluationReport::new();
    for (outcome, matched) in outcomes.iter().zip(&matching.matched_annotation) {
        if let Some(ai) = matched {
            report.record(record.annotations[*ai].class, outcome.predicted);
        }
    }
    report
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train off-line and burn the firmware image.
    let config = scale_from_args();
    println!("training the classifier off-line...");
    let system = TrainedSystem::train(&config)?;
    let firmware = WbsnFirmware::new(
        PackedProjection::from_matrix(&system.pc_downsampled.projection),
        system.wbsn.classifier.clone(),
        AlphaQ16::from_f64(system.pc_downsampled.alpha_train)?,
        config.downsample,
        BeatWindow::PAPER,
    )?;

    // 2. A fleet of synthetic patients.
    let patients: Vec<EcgRecord> = (0..6u32)
        .map(|i| {
            let mut generator = SyntheticEcg::with_seed(7000 + u64::from(i));
            let rhythm = generator.rhythm(60 + 12 * i as usize, 0.10, 0.08);
            generator.record(i + 1, &rhythm, 1).expect("record")
        })
        .collect();
    let fs = patients[0].fs;
    let calib_len = (8.0 * fs) as u32;

    // 3. Gateway on an ephemeral loopback port.
    let gateway = Gateway::bind("127.0.0.1:0", &firmware, fs, GatewayConfig::default())?;
    let addr = gateway.local_addr()?;
    println!(
        "gateway listening on {addr} (credit budget {} samples/session)",
        GatewayConfig::default().credit_budget
    );
    let shutdown = AtomicBool::new(false);

    let (summaries, report) = std::thread::scope(|scope| {
        let gateway_thread = scope.spawn(|| gateway.run_with_report(&shutdown).expect("gateway"));

        // 4. One node per patient, each replaying its record in ragged
        //    chunks under credit-based flow control.
        let nodes: Vec<_> = patients
            .iter()
            .map(|record| {
                scope.spawn(move || -> SessionSummary {
                    let mut node = NodeClient::connect(addr).expect("connect");
                    let session = node
                        .open_session(record.id, record.fs, calib_len)
                        .expect("open session");
                    let lead = record.lead(Lead(0)).expect("lead 0");
                    // Ragged replay: chunk lengths cycle through a bursty
                    // pattern, nothing the gateway's parity depends on.
                    let mut at = 0usize;
                    let mut burst = 113usize;
                    while at < lead.len() {
                        let end = (at + burst).min(lead.len());
                        node.send_mv(session, &lead[at..end]).expect("send");
                        at = end;
                        burst = 113 + (burst * 31) % 1361;
                    }
                    node.close_session(session).expect("close")
                })
            })
            .collect();
        let summaries: Vec<SessionSummary> =
            nodes.into_iter().map(|n| n.join().expect("node")).collect();
        shutdown.store(true, Ordering::Release);
        let report = gateway_thread.join().expect("gateway thread");
        (summaries, report)
    });
    let stats = &report.stats;

    // 5. Score what came back over the wire.
    println!("\nper-patient results (beats classified on the gateway, labelled post hoc):");
    println!(
        "{:>8} {:>7} {:>10} {:>8} {:>8}",
        "patient", "beats", "forwarded", "NDR %", "ARR %"
    );
    let mut fleet = EvaluationReport::new();
    let mut transmitted_points = 0usize;
    for (record, summary) in patients.iter().zip(&summaries) {
        let report = label(record, &summary.outcomes);
        println!(
            "{:>8} {:>7} {:>10} {:>8.2} {:>8.2}",
            record.id,
            summary.report.beats,
            summary.report.forwarded,
            100.0 * report.ndr(),
            100.0 * report.arr(),
        );
        transmitted_points += summary
            .outcomes
            .iter()
            .map(|o| o.fiducials_transmitted)
            .sum::<usize>();
        fleet.merge(&report);
    }
    println!(
        "\nfleet: NDR = {:.2} %, ARR = {:.2} % over {} labelled beats; {} fiducial points transmitted",
        100.0 * fleet.ndr(),
        100.0 * fleet.arr(),
        fleet.total(),
        transmitted_points,
    );
    println!(
        "gateway: {} connections, {} frames in / {} out, {} samples in, {} beats out, peak \
         buffer {} samples/session",
        stats.connections,
        stats.frames_in,
        stats.frames_out,
        stats.samples_in,
        stats.beats_out,
        stats.peak_buffered_samples,
    );

    // 6. The shutdown telemetry: the final metrics snapshot (latency
    //    quantiles of every instrumented stage) and the trace-ring tail.
    println!("\ngateway telemetry at shutdown (hbc-obs):");
    println!(
        "{:>34} {:>9} {:>10} {:>10} {:>10}",
        "histogram", "count", "p50", "p90", "p99"
    );
    for name in [
        "hbc_gateway_beat_to_outcome_micros",
        "hbc_gateway_sweep_micros",
        "hbc_gateway_frame_micros",
        "hbc_gateway_ingest_batch_micros",
        "hbc_hub_ingest_micros",
        "hbc_stage_conditioning_nanos",
        "hbc_stage_projection_nanos",
        "hbc_stage_classify_nanos",
        "hbc_stage_delineation_nanos",
    ] {
        let Some(h) = report.metrics.histogram(name) else {
            continue;
        };
        println!(
            "{:>34} {:>9} {:>10} {:>10} {:>10}",
            name,
            h.count(),
            h.p50(),
            h.p90(),
            h.p99()
        );
    }
    let trace = &report.trace;
    let tail = &trace[trace.len().saturating_sub(12)..];
    println!(
        "\ntrace-ring tail ({} of {} events):",
        tail.len(),
        trace.len()
    );
    for rec in tail {
        println!("  tick={:<6} {}", rec.tick, rec.event);
    }
    // Abnormal beats ship up to nine fiducial points, normal ones only the
    // peak — the transmission asymmetry the paper's radio budget rests on.
    assert!(transmitted_points >= fleet.total());
    Ok(())
}

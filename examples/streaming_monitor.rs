//! Live fleet monitoring: many patients streaming ECG into a [`StreamHub`],
//! each served by a push-based [`StreamingFirmware`] session with bounded
//! memory, scored concurrently over all cores.
//!
//! The simulation plays each patient's recording forward one second per
//! round — the hub never sees more than a chunk at a time, exactly like a
//! service terminating live sensor streams — and prints a rolling fleet
//! status. At the end, per-patient and fleet-wide NDR/ARR are computed by
//! matching the emitted beats against the (held-back) annotations, and the
//! streamed results are cross-checked against the batch firmware.
//!
//! ```text
//! cargo run --release --example streaming_monitor            # 8 patients
//! cargo run --release --example streaming_monitor -- paper   # paper-scale training
//! ```

use heartbeat_rp::hbc_ecg::record::{Annotation, EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::pipeline::TrainedSystem;
use heartbeat_rp::scale_from_args;
use heartbeat_rp::stream::{SessionId, StreamHub};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the classifier off-line and burn the firmware image.
    let config = scale_from_args();
    println!("training the classifier off-line...");
    let system = TrainedSystem::train(&config)?;
    let firmware = &system.wbsn;

    // 2. A fleet of synthetic patients, each with their own rhythm mix.
    let patients: Vec<EcgRecord> = (0..8u32)
        .map(|i| {
            let mut generator = SyntheticEcg::with_seed(4000 + u64::from(i));
            let rhythm = generator.rhythm(80 + 10 * i as usize, 0.10, 0.08);
            generator.record(i + 1, &rhythm, 1).expect("record")
        })
        .collect();
    let fs = patients[0].fs;

    // 3. Register one streaming session per patient; thresholds are
    //    calibrated per patient from the first seconds of their signal,
    //    like a node's start-up calibration phase.
    let mut hub = StreamHub::new(firmware, fs);
    let calibration_window = (8.0 * fs) as usize;
    let ids: Vec<SessionId> = patients
        .iter()
        .map(|record| {
            let lead = record.lead(Lead(0)).expect("lead 0");
            let stretch = &lead[..calibration_window.min(lead.len())];
            let thresholds = hub.calibrate_thresholds(stretch).expect("calibration");
            hub.add_patient(record.id, thresholds)
        })
        .collect();
    println!(
        "serving {} live sessions ({} worker threads available)",
        hub.num_sessions(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );

    // 4. Play the recordings forward one second per round.
    let chunk = fs as usize;
    let longest = patients.iter().map(EcgRecord::len).max().unwrap_or(0);
    let mut offset = 0;
    let mut round = 0usize;
    while offset < longest {
        let feeds: Vec<(SessionId, &[f64])> = patients
            .iter()
            .zip(&ids)
            .filter_map(|(record, &id)| {
                let lead = record.lead(Lead(0)).expect("lead 0");
                (offset < lead.len()).then(|| (id, &lead[offset..(offset + chunk).min(lead.len())]))
            })
            .collect();
        hub.ingest(&feeds)?;
        offset += chunk;
        round += 1;
        if round.is_multiple_of(20) {
            println!(
                "  t = {:>4} s: {:>4} beats classified across {} live streams",
                round,
                hub.total_beats(),
                feeds.len()
            );
        }
    }
    hub.finish();

    // 5. Score the fleet: per-session labelling against the annotations,
    //    merged in session order (bit-identical for any thread count).
    let tolerance = (0.06 * fs) as usize;
    println!();
    println!("patient   beats  forwarded     NDR      ARR");
    for (record, &id) in patients.iter().zip(&ids) {
        let outcomes = hub.outcomes(id)?;
        let forwarded = outcomes.iter().filter(|o| o.delineated).count();
        let report = hub.session_report(id, &record.annotations, tolerance)?;
        println!(
            "  #{:<5} {:>6} {:>10} {:>7.2}% {:>7.2}%",
            hub.patient_id(id)?,
            outcomes.len(),
            forwarded,
            100.0 * report.ndr(),
            100.0 * report.arr(),
        );
    }
    let truths: Vec<(SessionId, &[Annotation])> = patients
        .iter()
        .zip(&ids)
        .map(|(record, &id)| (id, record.annotations.as_slice()))
        .collect();
    let fleet = hub.merged_report(&truths, tolerance)?;
    println!(
        "  fleet  {:>6} beats labelled    NDR {:>6.2}%  ARR {:>6.2}%",
        fleet.total(),
        100.0 * fleet.ndr(),
        100.0 * fleet.arr(),
    );

    // 6. Cross-check: the streamed fleet report equals scoring each record
    //    with the batch firmware (the parity the test suite guarantees).
    let mut batch_total = 0usize;
    for record in &patients {
        batch_total += firmware.process_record(record)?.beats.len();
    }
    println!();
    println!(
        "cross-check: streaming emitted {} beats, batch firmware {} beats",
        hub.total_beats(),
        batch_total
    );
    Ok(())
}

//! WBSN monitoring scenario (Figure 6): stream a long three-lead synthetic
//! recording through the complete embedded firmware — filtering, peak
//! detection, RP classification and classifier-gated multi-lead delineation —
//! and report what the node would have computed and transmitted.
//!
//! ```text
//! cargo run --release --example wbsn_monitor              # ~3 minutes of ECG
//! cargo run --release --example wbsn_monitor -- paper     # trains at paper scale first
//! ```

use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::pipeline::TrainedSystem;
use heartbeat_rp::scale_from_args;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the classifier off-line (the PC half of Figure 2).
    let config = scale_from_args();
    println!("training the classifier off-line...");
    let system = TrainedSystem::train(&config)?;

    // 2. Burn the trained artefacts into a firmware image.
    let firmware = &system.wbsn;

    // 3. Acquire a three-lead ambulatory recording (synthetic stand-in for a
    //    patient wearing the node) with occasional PVCs and LBBB beats.
    let mut generator = SyntheticEcg::with_seed(2026);
    let rhythm = generator.rhythm(200, 0.08, 0.08);
    let record = generator.record(100, &rhythm, 3)?;
    println!(
        "acquired record {}: {:.1} s of {}-lead ECG, {} annotated beats",
        record.id,
        record.duration_s(),
        record.num_leads(),
        record.annotations.len()
    );

    // 4. Run the node.
    let report = firmware.process_record(&record)?;

    println!();
    println!("node summary");
    println!("  beats detected            : {}", report.beats.len());
    println!(
        "  beats forwarded to delineation: {} ({:.1} %)",
        report.stats.forwarded_beats,
        100.0 * report.forwarded_fraction()
    );
    println!(
        "  NDR on this recording     : {:.2} %",
        100.0 * report.ndr()
    );
    println!(
        "  ARR on this recording     : {:.2} %",
        100.0 * report.arr()
    );
    println!(
        "  duty cycle (gated / always-on delineation): {:.3} / {:.3}",
        report.duty.subsystem3, report.duty.subsystem2
    );
    println!(
        "  energy savings: compute {:.1} %, radio {:.1} %, node total {:.1} %",
        100.0 * report.energy.compute_reduction(),
        100.0 * report.energy.radio_reduction(),
        100.0 * report.energy.total_node_reduction()
    );

    // 5. Show the first few per-beat decisions like a node log would.
    println!();
    println!("first beats (sample, truth, predicted, delineated, fiducials sent):");
    let lead0_len = record.lead(Lead(0))?.len();
    for beat in report.beats.iter().take(12) {
        println!(
            "  {:>7} / {:>7}   truth {}   predicted {}   delineated {}   fiducials {}",
            beat.peak,
            lead0_len,
            beat.truth.map(|c| c.symbol()).unwrap_or('?'),
            beat.predicted.symbol(),
            beat.delineated,
            beat.fiducials_transmitted
        );
    }
    Ok(())
}

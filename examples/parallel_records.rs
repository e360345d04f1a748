//! Multi-record parallel evaluation: trains the quick system, generates a
//! fleet of annotated synthetic records (one per "patient") and scores all
//! of them concurrently on every core through the evaluation engine,
//! printing per-record and aggregate figures plus the measured speed-up over
//! the single-threaded reference pass. Two passes are timed: beats cut at
//! the annotations and classified by the trained image
//! (`Engine::evaluate_records`), and the whole Figure 6 firmware — filter,
//! peak detection, classification, gated delineation — over every record
//! (`Engine::process_records`), which is where a firmware change shows.
//!
//! ```text
//! cargo run --release --example parallel_records          # quick scale
//! cargo run --release --example parallel_records paper    # Table I scale
//! ```

use heartbeat_rp::engine::Engine;
use heartbeat_rp::hbc_ecg::beat::BeatWindow;
use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::TrainedSystem;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = heartbeat_rp::scale_from_args();
    println!("training the quick PC + WBSN system ...");
    let system = TrainedSystem::train(&config)?;

    // A fleet of synthetic ambulatory records with V/L arrhythmias
    // interleaved at realistic rates.
    let patients = 8;
    let beats_per_record = 400;
    println!("generating {patients} annotated records x {beats_per_record} beats ...");
    // Offset keeps the record-generation stream away from the dataset stream.
    let mut generator = SyntheticEcg::with_seed(config.seed ^ 0xF1EE7);
    let records: Vec<EcgRecord> = (0..patients)
        .map(|i| {
            let rhythm = generator.rhythm(beats_per_record, 0.08, 0.07);
            generator.record(200 + i, &rhythm, 2)
        })
        .collect::<Result<_, _>>()?;

    let sequential = Engine::sequential();
    let parallel = Engine::default();

    let start = Instant::now();
    let reference =
        sequential.evaluate_records(&system.wbsn, &records, Lead(0), BeatWindow::PAPER)?;
    let sequential_time = start.elapsed();

    let start = Instant::now();
    let report = parallel.evaluate_records(&system.wbsn, &records, Lead(0), BeatWindow::PAPER)?;
    let parallel_time = start.elapsed();

    assert_eq!(
        report, reference,
        "parallel evaluation must be bit-identical"
    );

    println!();
    println!("record      beats      NDR %      ARR %");
    for record in &report.per_record {
        println!(
            "{:<10} {:>6} {:>10.2} {:>10.2}",
            record.record_id,
            record.beats,
            100.0 * record.report.ndr(),
            100.0 * record.report.arr()
        );
    }
    println!(
        "merged     {:>6} {:>10.2} {:>10.2}",
        report.total_beats(),
        100.0 * report.merged.ndr(),
        100.0 * report.merged.arr()
    );
    println!();
    let workers = parallel.workers_for(records.len());
    let timings = |label: &str, sequential: Duration, parallel: Duration| {
        println!(
            "{label}sequential: {sequential:>10.2?}   parallel ({workers} workers): {parallel:>10.2?}   speed-up: {:.2}x",
            sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9)
        );
    };
    timings("", sequential_time, parallel_time);

    let start = Instant::now();
    let reference = sequential.process_records(&system.wbsn, &records)?;
    let sequential_time = start.elapsed();

    let start = Instant::now();
    let firmware = parallel.process_records(&system.wbsn, &records)?;
    let parallel_time = start.elapsed();

    assert_eq!(
        firmware, reference,
        "parallel firmware runs must be bit-identical"
    );
    timings("firmware   ", sequential_time, parallel_time);
    Ok(())
}

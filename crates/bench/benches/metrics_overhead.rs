//! Cost of leaving the `hbc-obs` instrumentation enabled on the ingest
//! path.
//!
//! Records a baseline in `BENCH_obs.json` (opt-in via `HBC_BENCH_BASELINE=1`)
//! and gates regressions in CI (`HBC_BENCH_REGRESSION=1`). Wall-clock
//! nanoseconds do not transfer between hosts, so the gated quantity is the
//! **cost ratio of the instrumented hub ingest (a single-worker
//! [`StreamHub::ingest`], which times every batch into its latency
//! histogram and every pipeline stage into the per-stage nanosecond
//! histograms) to the bare streaming pipeline ([`StreamingFirmware::push_chunk`]
//! fed directly)** over the same signal — both sides measured on the same
//! host, here and in the baseline. The instrumentation is designed to be
//! cheap enough for release builds (a clock read and a bucket increment
//! per batch and per stage); an overhead regression (allocation on the
//! record path, a histogram behind a hot lock, accidental per-sample
//! timing) inflates the ratio and fails the job; machine speed cancels
//! out.

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hbc_core::config::ExperimentConfig;
use hbc_core::pipeline::TrainedSystem;
use hbc_core::StreamHub;
use hbc_dsp::PeakThresholds;
use hbc_ecg::record::Lead;
use hbc_ecg::synthetic::SyntheticEcg;
use hbc_embedded::streaming::StreamingFirmware;
use hbc_embedded::WbsnFirmware;

fn quick_firmware() -> WbsnFirmware {
    TrainedSystem::train(&ExperimentConfig::quick())
        .expect("training")
        .wbsn
}

/// The shared workload: a synthetic lead and the detection thresholds its
/// calibration stretch produces.
struct Workload {
    firmware: WbsnFirmware,
    lead: Vec<f64>,
    fs: f64,
}

impl Workload {
    fn new() -> Self {
        let firmware = quick_firmware();
        let mut gen = SyntheticEcg::with_seed(47);
        let rhythm = gen.rhythm(24, 0.1, 0.1);
        let record = gen.record(1, &rhythm, 1).expect("record");
        let lead = record.lead(Lead(0)).expect("lead 0").to_vec();
        let fs = record.fs;
        Workload { firmware, lead, fs }
    }

    /// One full pass of the lead through a single-worker instrumented hub
    /// session (batch latency histogram + per-stage timing live).
    fn hub_pass(&self, hub: &mut StreamHub<'_>, chunk: usize) -> usize {
        let thresholds = hub
            .calibrate_thresholds(&self.lead[..(4.0 * self.fs) as usize])
            .expect("calibrate");
        let id = hub.add_patient(1, thresholds);
        for feed in self.lead.chunks(chunk) {
            hub.ingest(&[(id, feed)]).expect("ingest");
        }
        hub.close_session(id).expect("close").outcomes.len()
    }

    /// The same pass through the bare pipeline, no hub and no telemetry on
    /// the batch path.
    fn bare_pass(&self, thresholds: &PeakThresholds, chunk: usize) -> usize {
        let mut stream = StreamingFirmware::new(&self.firmware, self.fs, thresholds.clone());
        for feed in self.lead.chunks(chunk) {
            stream.push_chunk(feed);
        }
        stream.finish();
        let mut n = 0usize;
        while stream.pop_outcome().is_some() {
            n += 1;
        }
        n
    }
}

fn bench_overhead(c: &mut Criterion) {
    let workload = Workload::new();
    let mut hub = StreamHub::with_threads(&workload.firmware, workload.fs, NonZeroUsize::new(1));
    let thresholds = hub
        .calibrate_thresholds(&workload.lead[..(4.0 * workload.fs) as usize])
        .expect("calibrate");
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    for chunk in [256usize, 4096] {
        group.bench_function(format!("hub_instrumented/{chunk}spc"), |b| {
            b.iter(|| black_box(workload.hub_pass(&mut hub, chunk)))
        });
        group.bench_function(format!("bare_pipeline/{chunk}spc"), |b| {
            b.iter(|| black_box(workload.bare_pass(&thresholds, chunk)))
        });
    }
    group.finish();
}

/// Minimum per-iteration time of `f` in nanoseconds (same calibrated-min
/// estimator as the other gated benches).
fn min_ns_per_iter<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= Duration::from_millis(2) || iters >= 1 << 28 {
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Measures instrumented-vs-bare cost per sample for one chunk size.
fn measure_ratio(workload: &Workload, chunk: usize, samples: usize) -> (f64, f64, f64) {
    let n = workload.lead.len() as f64;
    let mut hub = StreamHub::with_threads(&workload.firmware, workload.fs, NonZeroUsize::new(1));
    let thresholds = hub
        .calibrate_thresholds(&workload.lead[..(4.0 * workload.fs) as usize])
        .expect("calibrate");
    let hub_ns = min_ns_per_iter(
        || {
            black_box(workload.hub_pass(&mut hub, chunk));
        },
        samples,
    ) / n;
    let bare_ns = min_ns_per_iter(
        || {
            black_box(workload.bare_pass(&thresholds, chunk));
        },
        samples,
    ) / n;
    (hub_ns, bare_ns, hub_ns / bare_ns)
}

/// Writes `BENCH_obs.json` (opt-in: the file is a checked-in reviewed
/// baseline; see the other `baseline_json` writers).
fn baseline_json(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_BASELINE").map_or(true, |v| v != "1") {
        println!("baseline_json: skipped (set HBC_BENCH_BASELINE=1 to rewrite BENCH_obs.json)");
        return;
    }
    let workload = Workload::new();
    let mut rows = String::new();
    for (i, chunk) in [256usize, 4096].into_iter().enumerate() {
        let (hub_ns, bare_ns, ratio) = measure_ratio(&workload, chunk, 9);
        println!(
            "baseline samples_per_chunk={chunk:>5}  instrumented {hub_ns:>8.3} ns/sample  bare \
             {bare_ns:>8.3} ns/sample  cost_ratio {ratio:.2}"
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"samples_per_chunk\": {chunk}, \"instrumented_ns_per_sample\": {hub_ns:.3}, \
             \"bare_ns_per_sample\": {bare_ns:.3}, \"cost_ratio\": {ratio:.3}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"metrics_overhead\",\n  \"units\": \"ns_per_sample\",\n  \"kernel\": \
         \"single-worker StreamHub::ingest with hbc-obs instrumentation live (batch latency + \
         per-stage histograms) vs the bare StreamingFirmware::push_chunk pipeline on the same \
         lead\",\n  \"estimator\": \"min of 9 calibrated samples\",\n  \"gate\": \"cost_ratio \
         (instrumented/bare) must stay within HBC_BENCH_MARGIN (default 2x) of this \
         baseline\",\n  \"results\": [\n{rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, json).expect("write BENCH_obs.json");
    println!("baseline_json: wrote {path}");
}

/// Parses `(samples_per_chunk, cost_ratio)` rows out of the baseline (same
/// dependency-free scraping as the other gates).
fn parse_baseline(json: &str) -> Vec<(usize, f64)> {
    json.lines()
        .filter_map(|line| {
            let chunk = line
                .split("\"samples_per_chunk\":")
                .nth(1)?
                .split([',', '}'])
                .next()?
                .trim()
                .parse()
                .ok()?;
            let ratio = line
                .split("\"cost_ratio\":")
                .nth(1)?
                .split([',', '}'])
                .next()?
                .trim()
                .parse()
                .ok()?;
            Some((chunk, ratio))
        })
        .collect()
}

/// CI regression gate (`HBC_BENCH_REGRESSION=1`): the instrumented-vs-bare
/// cost ratio must stay within the noise margin of the checked-in baseline.
fn regression_gate(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_REGRESSION").map_or(true, |v| v != "1") {
        println!("regression_gate: skipped (set HBC_BENCH_REGRESSION=1 to enable)");
        return;
    }
    let margin: f64 = std::env::var("HBC_BENCH_MARGIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let json = std::fs::read_to_string(path).expect("checked-in BENCH_obs.json");
    let baseline = parse_baseline(&json);
    assert!(!baseline.is_empty(), "no rows parsed from BENCH_obs.json");

    let workload = Workload::new();
    let mut failures = Vec::new();
    for (chunk, baseline_ratio) in baseline {
        let (hub_ns, bare_ns, ratio) = measure_ratio(&workload, chunk, 5);
        let ceiling = baseline_ratio * margin;
        let verdict = if ratio <= ceiling { "ok" } else { "REGRESSION" };
        println!(
            "regression_gate chunk={chunk:>5}  instrumented {hub_ns:>8.3} ns/sample  bare \
             {bare_ns:>8.3} ns/sample  cost_ratio {ratio:.2} (baseline {baseline_ratio:.2}, \
             ceiling {ceiling:.2})  {verdict}"
        );
        if ratio > ceiling {
            failures.push(format!(
                "samples_per_chunk={chunk}: cost ratio {ratio:.2} above ceiling {ceiling:.2} \
                 (baseline {baseline_ratio:.2} x margin {margin})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "instrumentation overhead regressed:\n{}",
        failures.join("\n")
    );
}

criterion_group!(benches, bench_overhead, baseline_json, regression_gate);
criterion_main!(benches);

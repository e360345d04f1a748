//! Throughput of the durable ingest log's append path.
//!
//! Records a baseline in `BENCH_wal.json` (opt-in via `HBC_BENCH_BASELINE=1`)
//! and gates regressions in CI (`HBC_BENCH_REGRESSION=1`). Wall-clock
//! nanoseconds do not transfer between hosts, so the gated quantity is the
//! **cost ratio of an append (encode + CRC + buffered-file write, sync
//! policy `Never`) to a bare `crc32` scan of the same encoded bytes**: the
//! CRC is the irreducible CPU cost of the record format, so a healthy
//! append sits within a small constant of it — both sides measured on the
//! same host, here and in the baseline. An append regression (extra copies,
//! per-record allocation, accidental fsync) inflates the ratio and fails
//! the job; machine speed cancels out. The ratio is per byte, so it does
//! not compare across log formats: format 2 Rice-codes the samples, doing
//! per-code work over about half the bytes of format 1's raw `i16`s, which
//! doubled the ratio at the same cost per record.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hbc_wal::{crc32, SyncPolicy, Wal, WalConfig, WalRecord};

/// A scratch log directory, removed on drop.
struct TempLog(std::path::PathBuf);

impl TempLog {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!("hbc-bench-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempLog(path)
    }

    /// A fresh log in the scratch dir, never fsyncing (the gate measures
    /// the CPU + pagecache path; fsync cost is the *policy's* business).
    fn wal(&self) -> Wal {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).expect("recreate scratch dir");
        let config = WalConfig::new(&self.0).sync(SyncPolicy::Never);
        Wal::open(config).expect("open wal").0
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `count` Samples records of `codes_per_record` ADC codes each, plus their
/// concatenated encoding (the crc32 comparator input).
fn sample_records(count: usize, codes_per_record: usize) -> (Vec<WalRecord>, Vec<u8>) {
    let records: Vec<WalRecord> = (0..count)
        .map(|seq| WalRecord::Samples {
            token: 0xFEED_F00D_u64,
            seq: seq as u32,
            codes: (0..codes_per_record)
                .map(|i| ((i * 37 + seq * 11) % 4096) as i16 - 2048)
                .collect(),
        })
        .collect();
    let mut bytes = Vec::new();
    for record in &records {
        record.encode_into(&mut bytes);
    }
    (records, bytes)
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    group.sample_size(10);
    for codes_per_record in [64usize, 1024] {
        let (records, bytes) = sample_records(64, codes_per_record);
        let tmp = TempLog::new(&format!("criterion-{codes_per_record}"));
        let mut wal = tmp.wal();
        group.bench_function(format!("append/{codes_per_record}cpr"), |b| {
            b.iter(|| {
                for record in &records {
                    wal.append(black_box(record)).expect("append");
                }
                black_box(wal.active_len())
            })
        });
        group.bench_function(format!("crc32_scan/{codes_per_record}cpr"), |b| {
            b.iter(|| black_box(crc32(black_box(&bytes))))
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

/// Measures append-vs-crc32 cost per byte for one record size.
fn measure_ratio(codes_per_record: usize, samples: usize) -> (f64, f64, f64) {
    let (records, bytes) = sample_records(64, codes_per_record);
    let n = bytes.len() as f64;
    let tmp = TempLog::new(&format!("gate-{codes_per_record}"));
    let mut wal = tmp.wal();
    let append_ns = min_ns_per_iter(
        || {
            for record in &records {
                wal.append(black_box(record)).expect("append");
            }
        },
        samples,
    ) / n;
    let crc_ns = min_ns_per_iter(
        || {
            black_box(crc32(black_box(&bytes)));
        },
        samples,
    ) / n;
    (append_ns, crc_ns, append_ns / crc_ns)
}

/// Writes `BENCH_wal.json` (opt-in: the file is a checked-in reviewed
/// baseline; see the other `baseline_json` writers).
fn baseline_json(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_BASELINE").map_or(true, |v| v != "1") {
        println!("baseline_json: skipped (set HBC_BENCH_BASELINE=1 to rewrite BENCH_wal.json)");
        return;
    }
    let mut rows = String::new();
    for (i, cpr) in [64usize, 1024].into_iter().enumerate() {
        let (append_ns, crc_ns, ratio) = measure_ratio(cpr, 9);
        println!(
            "baseline codes_per_record={cpr:>5}  append {append_ns:>7.3} ns/B  crc32 \
             {crc_ns:>7.3} ns/B  cost_ratio {ratio:.2}"
        );
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"codes_per_record\": {cpr}, \"append_ns_per_byte\": {append_ns:.3}, \
             \"crc32_ns_per_byte\": {crc_ns:.3}, \"cost_ratio\": {ratio:.3}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"wal_append\",\n  \"units\": \"ns_per_byte\",\n  \"kernel\": \
         \"hbc-wal append (encode + crc32 + pagecache write, SyncPolicy::Never) vs a bare crc32 \
         scan of the same encoded bytes\",\n  \"estimator\": \"min of 9 calibrated samples\",\n  \
         \"gate\": \"cost_ratio (append/crc32) must stay within HBC_BENCH_MARGIN (default 2x) of \
         this baseline\",\n  \"results\": [\n{rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal.json");
    std::fs::write(path, json).expect("write BENCH_wal.json");
    println!("baseline_json: wrote {path}");
}

/// Parses `(codes_per_record, cost_ratio)` rows out of the baseline (same
/// dependency-free scraping as the other gates).
fn parse_baseline(json: &str) -> Vec<(usize, f64)> {
    json.lines()
        .filter_map(|line| {
            let cpr = line
                .split("\"codes_per_record\":")
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
            Some((cpr, ratio))
        })
        .collect()
}

/// CI regression gate (`HBC_BENCH_REGRESSION=1`): the append-vs-crc32 cost
/// ratio must stay within the noise margin of the checked-in baseline.
fn regression_gate(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_REGRESSION").map_or(true, |v| v != "1") {
        println!("regression_gate: skipped (set HBC_BENCH_REGRESSION=1 to enable)");
        return;
    }
    let margin: f64 = std::env::var("HBC_BENCH_MARGIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wal.json");
    let json = std::fs::read_to_string(path).expect("checked-in BENCH_wal.json");
    let baseline = parse_baseline(&json);
    assert!(!baseline.is_empty(), "no rows parsed from BENCH_wal.json");

    let mut failures = Vec::new();
    for (cpr, baseline_ratio) in baseline {
        let (append_ns, crc_ns, ratio) = measure_ratio(cpr, 5);
        let ceiling = baseline_ratio * margin;
        let verdict = if ratio <= ceiling { "ok" } else { "REGRESSION" };
        println!(
            "regression_gate cpr={cpr:>5}  append {append_ns:>7.3} ns/B  crc32 {crc_ns:>7.3} \
             ns/B  cost_ratio {ratio:.2} (baseline {baseline_ratio:.2}, ceiling {ceiling:.2})  \
             {verdict}"
        );
        if ratio > ceiling {
            failures.push(format!(
                "codes_per_record={cpr}: cost ratio {ratio:.2} above ceiling {ceiling:.2} \
                 (baseline {baseline_ratio:.2} x margin {margin})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "wal append regressed:\n{}",
        failures.join("\n")
    );
}

criterion_group!(benches, bench_append, baseline_json, regression_gate);
criterion_main!(benches);

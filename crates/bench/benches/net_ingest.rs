//! Throughput of the network ingestion path: the pure [`FrameDecoder`] on a
//! pre-encoded `Samples` stream, frame encoding, and the full
//! gateway-on-loopback pipeline (sockets → decoder → credit flow →
//! `StreamHub` classification).
//!
//! The stream is a real-looking signal: quantised `hbc_ecg::synthetic`
//! records, cut into `Samples` frames, so the Rice-coded sample deltas see
//! the small sample-to-sample steps of an ECG.
//!
//! Records a baseline in `BENCH_net.json` (opt-in via `HBC_BENCH_BASELINE=1`)
//! and gates regressions in CI (`HBC_BENCH_REGRESSION=1`) on two figures:
//!
//! * **wire bytes per sample**, exact: the stream is seeded, so its encoded
//!   size is a fixed number, and any growth over the baseline fails with no
//!   margin;
//! * the **cost ratio of decoding to a raw `crc32` scan of the same
//!   bytes**. Wall-clock nanoseconds do not transfer between hosts, but
//!   both sides are measured on the same host, here and in the baseline, so
//!   machine speed cancels out. A decoder regression (quadratic buffering,
//!   extra copies, a slow bitstream path) inflates the ratio and fails the
//!   job. The ratio is per byte, so it does not compare across codecs: the
//!   same work per sample over fewer bytes raises it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hbc_core::config::ExperimentConfig;
use hbc_core::pipeline::TrainedSystem;
use hbc_ecg::record::Lead;
use hbc_ecg::synthetic::SyntheticEcg;
use hbc_embedded::WbsnFirmware;
use hbc_net::proto::{crc32, quantize_mv_into, Frame, FrameDecoder};
use hbc_net::{Gateway, GatewayConfig, NodeClient};

/// Samples in the benchmark stream (about 24 minutes at 360 Hz).
const STREAM_SAMPLES: usize = 1 << 19;

/// Frame sizes measured and gated. 36 samples is the paper node's 100 ms
/// packet at 360 Hz, the frame the gateway serves in real time.
const FRAME_SIZES: [usize; 3] = [36, 64, 4096];

/// ADC codes of seeded synthetic ECG records (mixed N/V/L rhythm, the
/// generator's realistic noise) quantised through the wire's transfer
/// function and cut to [`STREAM_SAMPLES`].
fn ecg_codes() -> Vec<i16> {
    let mut gen = SyntheticEcg::with_seed(2013);
    let mut codes = Vec::with_capacity(STREAM_SAMPLES);
    let mut record_codes = Vec::new();
    for id in 0.. {
        if codes.len() >= STREAM_SAMPLES {
            break;
        }
        let rhythm = gen.rhythm(300, 0.1, 0.1);
        let record = gen.record(id, &rhythm, 1).expect("synthetic record");
        quantize_mv_into(&record.leads[0], &mut record_codes);
        codes.extend_from_slice(&record_codes);
    }
    codes.truncate(STREAM_SAMPLES);
    codes
}

/// Encodes `codes` as consecutive Samples frames of `samples_per_frame`.
fn encoded_stream(codes: &[i16], samples_per_frame: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for (seq, frame) in codes.chunks(samples_per_frame).enumerate() {
        Frame::Samples {
            session: 1,
            seq: seq as u32,
            samples: frame.to_vec(),
        }
        .encode_into(&mut out);
    }
    out
}

/// Decodes a whole byte stream, returning the number of frames (consumed
/// fully, panics on protocol errors).
fn decode_all(bytes: &[u8]) -> usize {
    let mut decoder = FrameDecoder::new();
    let mut frames = 0usize;
    for chunk in bytes.chunks(16 * 1024) {
        decoder.feed(chunk);
        while decoder.next_frame().expect("valid stream").is_some() {
            frames += 1;
        }
    }
    frames
}

fn bench_decoder(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_ingest");
    group.sample_size(10);
    let codes = ecg_codes();
    for samples_per_frame in FRAME_SIZES {
        let bytes = encoded_stream(&codes, samples_per_frame);
        group.bench_function(format!("decode/{samples_per_frame}spf"), |b| {
            b.iter(|| black_box(decode_all(black_box(&bytes))))
        });
        group.bench_function(format!("crc32_scan/{samples_per_frame}spf"), |b| {
            b.iter(|| black_box(crc32(black_box(&bytes))))
        });
    }
    let mut sink = Vec::new();
    group.bench_function("encode/256spf", |b| {
        b.iter(|| {
            sink.clear();
            for (seq, frame) in codes.chunks(256).take(64).enumerate() {
                Frame::Samples {
                    session: 1,
                    seq: seq as u32,
                    samples: frame.to_vec(),
                }
                .encode_into(&mut sink);
            }
            black_box(sink.len())
        })
    });
    group.finish();
}

fn quick_firmware() -> WbsnFirmware {
    TrainedSystem::train(&ExperimentConfig::quick())
        .expect("training")
        .wbsn
}

/// End-to-end loopback throughput: one session streamed through sockets,
/// decoder, credit flow and the hub, per iteration.
fn bench_loopback(c: &mut Criterion) {
    let firmware = quick_firmware();
    let mut gen = SyntheticEcg::with_seed(31);
    let rhythm = gen.rhythm(20, 0.1, 0.1);
    let record = gen.record(1, &rhythm, 1).expect("record");
    let lead = record.lead(Lead(0)).expect("lead 0").to_vec();
    let fs = record.fs;
    let calib_len = ((2.0 * fs) as usize).min(lead.len()) as u32;

    let shutdown = AtomicBool::new(false);
    let gateway =
        Gateway::bind("127.0.0.1:0", &firmware, fs, GatewayConfig::default()).expect("bind");
    let addr = gateway.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway.run(&shutdown).expect("gateway"));
        {
            let mut group = c.benchmark_group("net_ingest");
            group.sample_size(10);
            let mut client = NodeClient::connect(addr).expect("connect");
            group.bench_function("loopback_session", |b| {
                b.iter(|| {
                    let session = client.open_session(1, fs, calib_len).expect("open");
                    for chunk in lead.chunks(1024) {
                        client.send_mv(session, chunk).expect("send");
                    }
                    let summary = client.close_session(session).expect("close");
                    black_box(summary.report.beats)
                })
            });
            group.finish();
        }
        shutdown.store(true, Ordering::Release);
        handle.join().expect("gateway thread");
    });
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

/// One frame size's figures: the encoded stream's size and the
/// decode-vs-crc32 cost per byte.
struct Row {
    wire_bytes: usize,
    decode_ns: f64,
    crc_ns: f64,
}

impl Row {
    fn measure(codes: &[i16], samples_per_frame: usize, samples: usize) -> Row {
        let bytes = encoded_stream(codes, samples_per_frame);
        let n = bytes.len() as f64;
        let decode_ns = min_ns_per_iter(
            || {
                black_box(decode_all(black_box(&bytes)));
            },
            samples,
        ) / n;
        let crc_ns = min_ns_per_iter(
            || {
                black_box(crc32(black_box(&bytes)));
            },
            samples,
        ) / n;
        Row {
            wire_bytes: bytes.len(),
            decode_ns,
            crc_ns,
        }
    }

    fn cost_ratio(&self) -> f64 {
        self.decode_ns / self.crc_ns
    }

    fn bytes_per_sample(&self) -> f64 {
        self.wire_bytes as f64 / STREAM_SAMPLES as f64
    }
}

/// Writes `BENCH_net.json` (opt-in: the file is a checked-in reviewed
/// baseline; see the other `baseline_json` writers).
fn baseline_json(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_BASELINE").map_or(true, |v| v != "1") {
        println!("baseline_json: skipped (set HBC_BENCH_BASELINE=1 to rewrite BENCH_net.json)");
        return;
    }
    let codes = ecg_codes();
    let mut rows = Vec::new();
    for spf in FRAME_SIZES {
        let row = Row::measure(&codes, spf, 9);
        println!(
            "baseline samples_per_frame={spf:>5}  {:.4} B/sample  decode {:>7.3} ns/B  crc32 \
             {:>7.3} ns/B  cost_ratio {:.2}",
            row.bytes_per_sample(),
            row.decode_ns,
            row.crc_ns,
            row.cost_ratio()
        );
        rows.push(format!(
            "    {{\"samples_per_frame\": {spf}, \"samples\": {STREAM_SAMPLES}, \"wire_bytes\": \
             {}, \"bytes_per_sample\": {:.4}, \"decode_ns_per_byte\": {:.3}, \
             \"crc32_ns_per_byte\": {:.3}, \"cost_ratio\": {:.3}}}",
            row.wire_bytes,
            row.bytes_per_sample(),
            row.decode_ns,
            row.crc_ns,
            row.cost_ratio()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"net_ingest\",\n  \"units\": \"ns_per_byte\",\n  \"kernel\": \
         \"incremental FrameDecoder on a Samples stream of quantised synthetic ECG vs a bare \
         crc32 scan of the same bytes\",\n  \"estimator\": \"min of 9 calibrated samples\",\n  \
         \"gate\": \"wire_bytes must not exceed this baseline (exact, no margin); cost_ratio \
         (decode/crc32) must stay within HBC_BENCH_MARGIN (default 2x) of this baseline\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, json).expect("write BENCH_net.json");
    println!("baseline_json: wrote {path}");
}

/// The number after `"key":` on a baseline row.
fn field(line: &str, key: &str) -> Option<f64> {
    line.split(&format!("\"{key}\":"))
        .nth(1)?
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// Parses `(samples_per_frame, wire_bytes, cost_ratio)` rows out of the
/// baseline (same dependency-free scraping as the other gates).
fn parse_baseline(json: &str) -> Vec<(usize, usize, f64)> {
    json.lines()
        .filter_map(|line| {
            Some((
                field(line, "samples_per_frame")? as usize,
                field(line, "wire_bytes")? as usize,
                field(line, "cost_ratio")?,
            ))
        })
        .collect()
}

/// CI regression gate (`HBC_BENCH_REGRESSION=1`): the encoded stream must
/// not grow by a single byte, and the decode-vs-crc32 cost ratio must stay
/// within the noise margin of the checked-in baseline.
fn regression_gate(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_REGRESSION").map_or(true, |v| v != "1") {
        println!("regression_gate: skipped (set HBC_BENCH_REGRESSION=1 to enable)");
        return;
    }
    let margin: f64 = std::env::var("HBC_BENCH_MARGIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    let json = std::fs::read_to_string(path).expect("checked-in BENCH_net.json");
    let baseline = parse_baseline(&json);
    assert!(!baseline.is_empty(), "no rows parsed from BENCH_net.json");

    let codes = ecg_codes();
    let mut failures = Vec::new();
    for (spf, baseline_bytes, baseline_ratio) in baseline {
        let row = Row::measure(&codes, spf, 5);
        let ratio = row.cost_ratio();
        let ceiling = baseline_ratio * margin;
        let verdict = if ratio <= ceiling && row.wire_bytes <= baseline_bytes {
            "ok"
        } else {
            "REGRESSION"
        };
        println!(
            "regression_gate spf={spf:>5}  {} B (baseline {baseline_bytes}, {:.4} B/sample)  \
             decode {:>7.3} ns/B  crc32 {:>7.3} ns/B  cost_ratio {ratio:.2} (baseline \
             {baseline_ratio:.2}, ceiling {ceiling:.2})  {verdict}",
            row.wire_bytes,
            row.bytes_per_sample(),
            row.decode_ns,
            row.crc_ns
        );
        if row.wire_bytes > baseline_bytes {
            failures.push(format!(
                "samples_per_frame={spf}: {} wire bytes, baseline {baseline_bytes}",
                row.wire_bytes
            ));
        }
        if ratio > ceiling {
            failures.push(format!(
                "samples_per_frame={spf}: cost ratio {ratio:.2} above ceiling {ceiling:.2} \
                 (baseline {baseline_ratio:.2} x margin {margin})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "wire codec regressed:\n{}",
        failures.join("\n")
    );
}

criterion_group!(
    benches,
    bench_decoder,
    bench_loopback,
    baseline_json,
    regression_gate
);
criterion_main!(benches);

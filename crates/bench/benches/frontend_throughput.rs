//! Micro-benchmark: per-sample cost of the conditioning front-end — the
//! naive O(n·w) sliding-extremum oracle against the shipped van Herk /
//! Gil–Werman streaming kernel at the paper's structuring-element lengths,
//! and the full baseline-removal + wavelet conditioning chain, naive against
//! the streaming-backed whole-signal filter. Records the ratios in
//! `BENCH_frontend.json` at the workspace root (next to
//! `BENCH_projection.json`) so front-end kernel regressions are visible in
//! review and gated in CI. One more row gates the gateway's block
//! front-end: the code-fed streaming conditioning chain (baseline filter +
//! wavelet cascade, block by block over 36-sample chunks) against the same
//! naive chain, so a return to per-sample streaming kernels shows in the
//! ratio. Also prints, as a report without a baseline or a gate, the
//! streaming baseline filter's per-sample cost fed millivolts and fed ADC
//! codes.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hbc_dsp::filter::{sliding_extreme_naive, ExtremumKind, MorphologicalFilter};
use hbc_dsp::streaming::{StreamingDilation, StreamingErosion};
use hbc_dsp::{DyadicWavelet, StreamingBaselineFilter, StreamingWavelet};
use hbc_embedded::AdcModel;

/// One minute of drifting synthetic ECG-like signal at `fs` Hz.
fn test_signal(fs: f64) -> Vec<f64> {
    let n = (60.0 * fs) as usize;
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            0.4 * (2.0 * std::f64::consts::PI * 0.25 * t).sin()
                + 0.1 * (2.0 * std::f64::consts::PI * 7.0 * t).sin()
                + if i % (fs as usize) < 8 { 1.0 } else { 0.0 }
        })
        .collect()
}

/// The shipped streaming erosion (`Min`) or dilation (`Max`) of `signal`,
/// pushed one sample at a time, right border drained.
fn streaming_extreme(signal: &[f64], size: usize, kind: ExtremumKind) -> Vec<f64> {
    let mut out = Vec::with_capacity(signal.len());
    match kind {
        ExtremumKind::Min => {
            let mut op = StreamingErosion::new(size);
            out.extend(signal.iter().filter_map(|&s| op.push(s)));
            out.extend(std::iter::from_fn(|| op.finish_one()));
        }
        ExtremumKind::Max => {
            let mut op = StreamingDilation::new(size);
            out.extend(signal.iter().filter_map(|&s| op.push(s)));
            out.extend(std::iter::from_fn(|| op.finish_one()));
        }
    }
    out
}

/// The naive conditioning chain: naive filter, then the wavelet transform.
fn naive_chain(filter: &MorphologicalFilter, wavelet: &DyadicWavelet, signal: &[f64]) {
    let filtered = filter.apply_naive(black_box(signal)).expect("filter");
    black_box(wavelet.transform(&filtered).expect("transform"));
}

/// The shipped whole-signal chain: the streaming-backed filter, then the
/// wavelet transform.
fn conditioning_chain(filter: &MorphologicalFilter, wavelet: &DyadicWavelet, signal: &[f64]) {
    let filtered = filter.apply(black_box(signal)).expect("filter");
    black_box(wavelet.transform(&filtered).expect("transform"));
}

fn bench_frontend(c: &mut Criterion) {
    // The 250 Hz operating point of the reference filter: a 50-sample QRS
    // element and a 133-sample beat element.
    let fs = 250.0;
    let filter = MorphologicalFilter::for_sampling_rate(fs);
    let signal = test_signal(fs);
    let wavelet = DyadicWavelet::new();

    let mut group = c.benchmark_group("frontend_one_minute");
    group.sample_size(10);
    for window in [filter.qrs_element, filter.beat_element] {
        group.bench_function(format!("erode_naive/w{window}"), |b| {
            b.iter(|| sliding_extreme_naive(black_box(&signal), window, ExtremumKind::Min))
        });
        group.bench_function(format!("erode_streaming/w{window}"), |b| {
            b.iter(|| streaming_extreme(black_box(&signal), window, ExtremumKind::Min))
        });
    }
    group.bench_function("baseline_filter_naive", |b| {
        b.iter(|| filter.apply_naive(black_box(&signal)).expect("filter"))
    });
    group.bench_function("baseline_filter", |b| {
        b.iter(|| filter.apply(black_box(&signal)).expect("filter"))
    });
    group.bench_function("wavelet_transform", |b| {
        b.iter(|| wavelet.transform(black_box(&signal)).expect("transform"))
    });
    group.bench_function("conditioning_chain", |b| {
        b.iter(|| conditioning_chain(&filter, &wavelet, &signal))
    });
    group.finish();
}

/// Minimum per-iteration time of `f` in nanoseconds: iterations are
/// calibrated until one sample lasts ≳2 ms, then the fastest of `samples`
/// such runs is taken (min is the standard low-noise estimator for
/// micro-kernels).
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

/// The streaming row's stage name.
const STREAMING_CHAIN: &str = "streaming_chain_codes";

/// The whole-chain row's stage name.
const CONDITIONING_CHAIN: &str = "conditioning_chain";

/// Samples per chunk of the streaming row: one gateway packet.
const STREAMING_CHUNK: usize = 36;

/// The code-fed streaming conditioning chain over `codes`, fed in
/// [`STREAMING_CHUNK`]-sample chunks: the baseline filter on codes, then the
/// wavelet cascade, with every frame popped.
fn streaming_chain(fs: f64, adc: AdcModel, codes: &[i16]) -> f64 {
    let mut filter = StreamingBaselineFilter::with_scale(fs, adc);
    let mut wavelet = StreamingWavelet::new(4);
    let mut filtered = [0.0; STREAMING_CHUNK];
    let mut acc = 0.0;
    for chunk in codes.chunks(STREAMING_CHUNK) {
        let n = filter.push_chunk(black_box(chunk), &mut filtered);
        wavelet.push_chunk(&filtered[..n]);
        while let Some(frame) = wavelet.pop_frame() {
            acc += frame.details[0];
        }
    }
    acc
}

/// The fixture every row is measured on: the 250 Hz operating point, one
/// minute of signal, and the same signal as 12-bit ADC codes.
struct Fixture {
    fs: f64,
    filter: MorphologicalFilter,
    wavelet: DyadicWavelet,
    signal: Vec<f64>,
    adc: AdcModel,
    codes: Vec<i16>,
}

impl Fixture {
    fn new() -> Self {
        let fs = 250.0;
        let signal = test_signal(fs);
        let adc = AdcModel::default_frontend();
        let codes = signal
            .iter()
            .map(|&s| adc.quantize_sample(s) as i16)
            .collect();
        Fixture {
            fs,
            filter: MorphologicalFilter::for_sampling_rate(fs),
            wavelet: DyadicWavelet::new(),
            signal,
            adc,
            codes,
        }
    }

    /// The recorded rows, as `(stage, window)`.
    fn rows(&self) -> Vec<(&'static str, usize)> {
        let mut rows = Vec::new();
        for window in [self.filter.qrs_element, self.filter.beat_element] {
            rows.push(("erode", window));
            rows.push(("dilate", window));
        }
        rows.push((CONDITIONING_CHAIN, self.filter.beat_element));
        rows.push((STREAMING_CHAIN, self.filter.beat_element));
        rows
    }

    /// One row's naive and streaming costs, in nanoseconds per input
    /// sample: the naive oracle (for the chains: naive filter + wavelet
    /// transform) against the shipped streaming path.
    fn measure(&self, stage: &str, window: usize, samples: usize) -> (f64, f64) {
        let Fixture {
            fs,
            filter,
            wavelet,
            signal,
            adc,
            codes,
        } = self;
        let n = signal.len() as f64;
        let naive_chain_ns = || min_ns_per_iter(|| naive_chain(filter, wavelet, signal), samples);
        let (naive, streaming) = match stage {
            CONDITIONING_CHAIN => (
                naive_chain_ns(),
                min_ns_per_iter(|| conditioning_chain(filter, wavelet, signal), samples),
            ),
            STREAMING_CHAIN => (
                naive_chain_ns(),
                min_ns_per_iter(
                    || {
                        black_box(streaming_chain(*fs, *adc, codes));
                    },
                    samples,
                ),
            ),
            _ => {
                let kind = match stage {
                    "erode" => ExtremumKind::Min,
                    "dilate" => ExtremumKind::Max,
                    other => panic!("unknown BENCH_frontend stage {other}"),
                };
                (
                    min_ns_per_iter(
                        || {
                            black_box(sliding_extreme_naive(black_box(signal), window, kind));
                        },
                        samples,
                    ),
                    min_ns_per_iter(
                        || {
                            black_box(streaming_extreme(black_box(signal), window, kind));
                        },
                        samples,
                    ),
                )
            }
        };
        (naive / n, streaming / n)
    }
}

/// Measures every row at the 250 Hz operating point and writes
/// `BENCH_frontend.json` at the workspace root.
///
/// Opt-in via `HBC_BENCH_BASELINE=1`: the file is a checked-in reviewed
/// baseline, so routine `cargo bench` runs (CI smoke included) must not
/// silently overwrite it with numbers from an arbitrary host.
fn baseline_json(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_BASELINE").map_or(true, |v| v != "1") {
        println!(
            "baseline_json: skipped (set HBC_BENCH_BASELINE=1 to rewrite BENCH_frontend.json)"
        );
        return;
    }
    let fixture = Fixture::new();
    let rows = fixture.rows();
    let mut json = String::from(
        "{\n  \"bench\": \"frontend_throughput\",\n  \"units\": \"ns_per_sample\",\n  \
         \"kernel\": \"naive oracle vs van Herk/Gil-Werman streaming kernel: operators pushed \
         per sample; conditioning_chain: whole-signal streaming filter + wavelet transform; \
         streaming_chain_codes: block front-end on ADC codes, 36-sample chunks\",\n  \
         \"operating_point\": \"250 Hz, one minute of signal\",\n  \
         \"estimator\": \"min of 9 calibrated samples\",\n  \"results\": [\n",
    );
    for (i, &(stage, window)) in rows.iter().enumerate() {
        let (naive, streaming) = fixture.measure(stage, window, 9);
        println!(
            "baseline {stage:<21} w={window:>3}  naive_ns {naive:>8.2} ns/sample  streaming_ns \
             {streaming:>8.2} ns/sample  ({:.2}x)",
            naive / streaming
        );
        json.push_str(&format!(
            "    {{\"stage\": \"{stage}\", \"window\": {window}, \"naive_ns\": {naive:.3}, \
             \"streaming_ns\": {streaming:.3}, \"speedup\": {:.2}}}{}\n",
            naive / streaming,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontend.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Extracts `(stage, window, speedup)` triples from the checked-in
/// `BENCH_frontend.json` (own format, so a hand-rolled scan suffices — the
/// workspace has no JSON dependency).
fn parse_baseline(json: &str) -> Vec<(String, usize, f64)> {
    fn field(row: &str, name: &str) -> Option<f64> {
        let tail = &row[row.find(&format!("\"{name}\":"))? + name.len() + 3..];
        let tail = tail.trim_start();
        let end = tail
            .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
            .unwrap_or(tail.len());
        tail[..end].parse().ok()
    }
    fn stage(row: &str) -> Option<String> {
        let tail = &row[row.find("\"stage\":")? + 8..];
        let open = tail.find('"')?;
        let close = tail[open + 1..].find('"')?;
        Some(tail[open + 1..open + 1 + close].to_string())
    }
    json.lines()
        .filter(|l| l.contains("\"stage\":"))
        .filter_map(|row| {
            Some((
                stage(row)?,
                field(row, "window")? as usize,
                field(row, "speedup")?,
            ))
        })
        .collect()
}

/// Regression gate for the streaming front-end, run by the CI bench smoke
/// job (`HBC_BENCH_REGRESSION=1`), using the same scheme as the projection
/// gate: wall-clock nanoseconds do not transfer between hosts, so the gate
/// checks each row's *naive-to-streaming speedup ratio* — both sides
/// measured on the same host, here and in the baseline — against the
/// checked-in value with a generous noise margin (2× by default,
/// `HBC_BENCH_MARGIN` to override). A kernel regression that erases the
/// streaming kernel's advantage over the naive oracle fails the job.
fn regression_gate(_c: &mut Criterion) {
    if std::env::var("HBC_BENCH_REGRESSION").map_or(true, |v| v != "1") {
        println!("regression_gate: skipped (set HBC_BENCH_REGRESSION=1 to enable)");
        return;
    }
    let margin: f64 = std::env::var("HBC_BENCH_MARGIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontend.json");
    let json = std::fs::read_to_string(path).expect("checked-in BENCH_frontend.json");
    let baseline = parse_baseline(&json);
    assert!(
        !baseline.is_empty(),
        "no rows parsed from BENCH_frontend.json"
    );

    let fixture = Fixture::new();
    let mut failures = Vec::new();
    for (stage, window, baseline_speedup) in baseline {
        let (naive_ns, streaming_ns) = fixture.measure(&stage, window, 5);
        let speedup = naive_ns / streaming_ns;
        let floor = baseline_speedup / margin;
        let verdict = if speedup >= floor { "ok" } else { "REGRESSION" };
        println!(
            "regression_gate {stage:<21} w={window:>3}  speedup {speedup:>6.2}x (baseline \
             {baseline_speedup:.2}x, floor {floor:.2}x)  {verdict}"
        );
        if speedup < floor {
            failures.push(format!(
                "{stage} w={window}: speedup {speedup:.2}x below floor {floor:.2}x \
                 (baseline {baseline_speedup:.2}x / margin {margin})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "streaming front-end kernel regressed:\n{}",
        failures.join("\n")
    );
}

/// Report only (no baseline, no gate): nanoseconds per pushed sample of the
/// streaming baseline filter at the gateway's 360 Hz, fed one minute of
/// signal as `f64` millivolts and as the same signal's 12-bit ADC codes
/// (`i16`, dequantized only where the filter does arithmetic).
fn streaming_filter_report(_c: &mut Criterion) {
    let fs = 360.0;
    let signal = test_signal(fs);
    let adc = AdcModel::default_frontend();
    let codes: Vec<i16> = signal
        .iter()
        .map(|&s| adc.quantize_sample(s) as i16)
        .collect();
    let n = signal.len() as f64;
    let f64_ns = min_ns_per_iter(
        || {
            let mut filter = StreamingBaselineFilter::for_sampling_rate(fs);
            for &s in &signal {
                black_box(filter.push(black_box(s)));
            }
        },
        5,
    ) / n;
    let code_ns = min_ns_per_iter(
        || {
            let mut filter = StreamingBaselineFilter::with_scale(fs, adc);
            for &c in &codes {
                black_box(filter.push(black_box(c)));
            }
        },
        5,
    ) / n;
    println!(
        "streaming_baseline_filter fs={fs}  f64 {f64_ns:>7.2} ns/sample  i16 codes {code_ns:>7.2} \
         ns/sample  (report only)"
    );
}

criterion_group!(
    benches,
    bench_frontend,
    baseline_json,
    regression_gate,
    streaming_filter_report
);
criterion_main!(benches);

//! Micro-benchmark: per-sample cost of the conditioning front-end kernels —
//! the naive O(n·w) sliding-extremum scan against the O(n) monotone-deque
//! kernel at the paper's structuring-element lengths, and the full
//! baseline-removal + wavelet conditioning chain in its allocating and
//! scratch-reused (`_into`) forms. Records the naive-vs-deque baseline in
//! `BENCH_frontend.json` at the workspace root (next to
//! `BENCH_projection.json`) so front-end kernel regressions are visible in
//! review and gated in CI. One more row gates the streaming front-end: the
//! code-fed streaming conditioning chain (baseline filter + wavelet cascade,
//! block by block over 36-sample chunks) against the batch deque chain, so
//! a return to per-sample streaming kernels fails the gate. Also prints, as
//! a report without a baseline or a gate, the streaming baseline filter's
//! per-sample cost fed millivolts and fed ADC codes.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hbc_dsp::filter::{dilate, erode, sliding_extreme_naive, ExtremumKind, MorphologicalFilter};
use hbc_dsp::{DyadicWavelet, FrontendScratch, StreamingBaselineFilter, StreamingWavelet};
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

fn bench_frontend(c: &mut Criterion) {
    // The 250 Hz operating point of the reference filter: a 50-sample QRS
    // element and a 133-sample beat element.
    let fs = 250.0;
    let filter = MorphologicalFilter::for_sampling_rate(fs);
    let signal = test_signal(fs);
    let wavelet = DyadicWavelet::new();
    let mut scratch = FrontendScratch::default();
    let mut out = Vec::new();
    let mut details = Vec::new();

    let mut group = c.benchmark_group("frontend_one_minute");
    group.sample_size(10);
    for window in [filter.qrs_element, filter.beat_element] {
        group.bench_function(format!("erode_naive/w{window}"), |b| {
            b.iter(|| sliding_extreme_naive(black_box(&signal), window, ExtremumKind::Min))
        });
        group.bench_function(format!("erode_deque/w{window}"), |b| {
            b.iter(|| erode(black_box(&signal), window))
        });
    }
    group.bench_function("baseline_filter_naive", |b| {
        b.iter(|| filter.apply_naive(black_box(&signal)).expect("filter"))
    });
    group.bench_function("baseline_filter_deque", |b| {
        b.iter(|| filter.apply(black_box(&signal)).expect("filter"))
    });
    group.bench_function("baseline_filter_deque_into", |b| {
        b.iter(|| {
            filter
                .apply_into(black_box(&signal), &mut scratch, &mut out)
                .expect("filter")
        })
    });
    group.bench_function("wavelet_transform", |b| {
        b.iter(|| wavelet.transform(black_box(&signal)).expect("transform"))
    });
    group.bench_function("wavelet_transform_into", |b| {
        b.iter(|| {
            wavelet
                .transform_into(black_box(&signal), &mut scratch, &mut details)
                .expect("transform")
        })
    });
    group.bench_function("conditioning_chain_into", |b| {
        b.iter(|| {
            filter
                .apply_into(black_box(&signal), &mut scratch, &mut out)
                .expect("filter");
            wavelet
                .transform_into(&out, &mut scratch, &mut details)
                .expect("transform");
        })
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

/// One row of the recorded baseline: an operator at one window length, a
/// reference implementation against the measured one, in nanoseconds per
/// input *sample*. The kernel rows compare naive vs deque; the streaming
/// row compares the batch deque chain vs the streaming chain.
struct BaselineRow {
    stage: &'static str,
    window: usize,
    /// JSON keys of the reference and measured costs.
    keys: (&'static str, &'static str),
    reference_ns: f64,
    measured_ns: f64,
}

/// The streaming row's stage name.
const STREAMING_CHAIN: &str = "streaming_chain_codes";

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

/// The signal as 12-bit ADC codes.
fn to_codes(adc: &AdcModel, signal: &[f64]) -> Vec<i16> {
    signal
        .iter()
        .map(|&s| adc.quantize_sample(s) as i16)
        .collect()
}

/// Batch deque chain vs code-fed streaming chain, ns per sample.
fn measure_streaming_row(
    filter: &MorphologicalFilter,
    fs: f64,
    signal: &[f64],
    samples: usize,
) -> (f64, f64) {
    let adc = AdcModel::default_frontend();
    let codes = to_codes(&adc, signal);
    let wavelet = DyadicWavelet::new();
    let mut scratch = FrontendScratch::default();
    let mut filtered = Vec::new();
    let mut details = Vec::new();
    let n = signal.len() as f64;
    let batch = min_ns_per_iter(
        || {
            filter
                .apply_into(black_box(signal), &mut scratch, &mut filtered)
                .expect("filter");
            wavelet
                .transform_into(&filtered, &mut scratch, &mut details)
                .expect("transform");
        },
        samples,
    );
    let streaming = min_ns_per_iter(
        || {
            black_box(streaming_chain(fs, adc, &codes));
        },
        samples,
    );
    (batch / n, streaming / n)
}

/// Measures naive vs deque at the 250 Hz operating point and writes
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
    let samples = 9;
    let fs = 250.0;
    let filter = MorphologicalFilter::for_sampling_rate(fs);
    let signal = test_signal(fs);
    let n = signal.len() as f64;
    let mut rows = Vec::new();
    for window in [filter.qrs_element, filter.beat_element] {
        rows.push(BaselineRow {
            stage: "erode",
            window,
            keys: ("naive_ns", "deque_ns"),
            reference_ns: min_ns_per_iter(
                || {
                    black_box(sliding_extreme_naive(
                        black_box(&signal),
                        window,
                        ExtremumKind::Min,
                    ));
                },
                samples,
            ) / n,
            measured_ns: min_ns_per_iter(
                || {
                    black_box(erode(black_box(&signal), window));
                },
                samples,
            ) / n,
        });
        rows.push(BaselineRow {
            stage: "dilate",
            window,
            keys: ("naive_ns", "deque_ns"),
            reference_ns: min_ns_per_iter(
                || {
                    black_box(sliding_extreme_naive(
                        black_box(&signal),
                        window,
                        ExtremumKind::Max,
                    ));
                },
                samples,
            ) / n,
            measured_ns: min_ns_per_iter(
                || {
                    black_box(dilate(black_box(&signal), window));
                },
                samples,
            ) / n,
        });
    }
    // The full conditioning chain (8 morphology passes + baseline subtraction
    // + 4-scale wavelet): naive-allocating versus deque + scratch reuse.
    let wavelet = DyadicWavelet::new();
    let mut scratch = FrontendScratch::default();
    let mut filtered = Vec::new();
    let mut details = Vec::new();
    rows.push(BaselineRow {
        stage: "conditioning_chain",
        window: filter.beat_element,
        keys: ("naive_ns", "deque_ns"),
        reference_ns: min_ns_per_iter(
            || {
                let f = filter.apply_naive(black_box(&signal)).expect("filter");
                black_box(wavelet.transform(&f).expect("transform"));
            },
            samples,
        ) / n,
        measured_ns: min_ns_per_iter(
            || {
                filter
                    .apply_into(black_box(&signal), &mut scratch, &mut filtered)
                    .expect("filter");
                wavelet
                    .transform_into(&filtered, &mut scratch, &mut details)
                    .expect("transform");
            },
            samples,
        ) / n,
    });
    let (batch_ns, streaming_ns) = measure_streaming_row(&filter, fs, &signal, samples);
    rows.push(BaselineRow {
        stage: STREAMING_CHAIN,
        window: filter.beat_element,
        keys: ("batch_ns", "streaming_ns"),
        reference_ns: batch_ns,
        measured_ns: streaming_ns,
    });

    let mut json = String::from(
        "{\n  \"bench\": \"frontend_throughput\",\n  \"units\": \"ns_per_sample\",\n  \
         \"kernel\": \"monotone-deque sliding extremum + scratch-reused conditioning chain; \
         streaming row: van Herk/Gil-Werman block front-end on ADC codes, 36-sample chunks\",\n  \
         \"operating_point\": \"250 Hz, one minute of signal\",\n  \
         \"estimator\": \"min of 9 calibrated samples\",\n  \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let (reference, measured) = r.keys;
        println!(
            "baseline {:<21} w={:>3}  {reference} {:>8.2} ns/sample  {measured} {:>8.2} \
             ns/sample  ({:.2}x)",
            r.stage,
            r.window,
            r.reference_ns,
            r.measured_ns,
            r.reference_ns / r.measured_ns
        );
        json.push_str(&format!(
            "    {{\"stage\": \"{}\", \"window\": {}, \"{reference}\": {:.3}, \
             \"{measured}\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.stage,
            r.window,
            r.reference_ns,
            r.measured_ns,
            r.reference_ns / r.measured_ns,
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

/// Regression gate for the deque front-end kernel, run by the CI bench smoke
/// job (`HBC_BENCH_REGRESSION=1`), using the same scheme as the projection
/// gate: wall-clock nanoseconds do not transfer between hosts, so the gate
/// checks the *naive-to-deque speedup ratio* — both sides measured on the
/// same host, here and in the baseline — against the checked-in value with a
/// generous noise margin (2× by default, `HBC_BENCH_MARGIN` to override). A
/// kernel regression that erases the deque advantage fails the job. The
/// streaming row's ratio is the batch deque chain's cost over the code-fed
/// streaming chain's, so streaming kernels that fall back to pushing each
/// sample through the whole cascade fail it.
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

    let samples = 5;
    let fs = 250.0;
    let filter = MorphologicalFilter::for_sampling_rate(fs);
    let signal = test_signal(fs);
    let wavelet = DyadicWavelet::new();
    let mut scratch = FrontendScratch::default();
    let mut filtered = Vec::new();
    let mut details = Vec::new();
    let mut failures = Vec::new();
    for (stage, window, baseline_speedup) in baseline {
        let kind = match stage.as_str() {
            "erode" => Some(ExtremumKind::Min),
            "dilate" => Some(ExtremumKind::Max),
            _ => None,
        };
        let (naive_ns, deque_ns) = if stage == STREAMING_CHAIN {
            measure_streaming_row(&filter, fs, &signal, samples)
        } else {
            match kind {
                Some(kind) => (
                    min_ns_per_iter(
                        || {
                            black_box(sliding_extreme_naive(black_box(&signal), window, kind));
                        },
                        samples,
                    ),
                    min_ns_per_iter(
                        || match kind {
                            ExtremumKind::Min => {
                                black_box(erode(black_box(&signal), window));
                            }
                            ExtremumKind::Max => {
                                black_box(dilate(black_box(&signal), window));
                            }
                        },
                        samples,
                    ),
                ),
                None => (
                    min_ns_per_iter(
                        || {
                            let f = filter.apply_naive(black_box(&signal)).expect("filter");
                            black_box(wavelet.transform(&f).expect("transform"));
                        },
                        samples,
                    ),
                    min_ns_per_iter(
                        || {
                            filter
                                .apply_into(black_box(&signal), &mut scratch, &mut filtered)
                                .expect("filter");
                            wavelet
                                .transform_into(&filtered, &mut scratch, &mut details)
                                .expect("transform");
                        },
                        samples,
                    ),
                ),
            }
        };
        let speedup = naive_ns / deque_ns;
        let floor = baseline_speedup / margin;
        let verdict = if speedup >= floor { "ok" } else { "REGRESSION" };
        println!(
            "regression_gate {stage:<18} w={window:>3}  speedup {speedup:>6.2}x (baseline \
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
        "deque front-end kernel regressed:\n{}",
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

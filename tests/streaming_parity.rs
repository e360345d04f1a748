//! Parity suite for the online ingestion subsystem: the streaming firmware
//! fed one sample at a time (or any other chunking) must reproduce the batch
//! `WbsnFirmware::process_record` per-beat classifications, and the
//! ground-truth alignment of the batch path must survive border peaks.
//!
//! Chunk-invariance property tests for the streaming operators live at the
//! bottom: pushing a signal in arbitrary chunks yields outputs identical to
//! a sample-at-a-time run, and the operators handle degenerate geometries
//! (unit windows, streams shorter than the group delay) without panicking.

use std::sync::OnceLock;

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_dsp::filter::MorphologicalFilter;
use heartbeat_rp::hbc_dsp::peak::PeakDetector;
use heartbeat_rp::hbc_dsp::streaming::{
    ExtremumKind, SlidingExtremum, StreamingBaselineFilter, StreamingBeatWindower,
    StreamingPeakDetector, StreamingWavelet, BLOCK,
};
use heartbeat_rp::hbc_dsp::wavelet::DyadicWavelet;
use heartbeat_rp::hbc_ecg::beat::{BeatClass, BeatWindow};
use heartbeat_rp::hbc_ecg::record::{Annotation, EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::streaming::StreamingFirmware;
use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::proto::{dequantize_mv_into, quantize_mv_into, wire_adc};
use heartbeat_rp::pipeline::TrainedSystem;
use heartbeat_rp::StreamHub;
use proptest::prelude::*;

fn trained_system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        TrainedSystem::train(&ExperimentConfig::quick()).expect("training succeeds")
    })
}

/// Runs the streaming firmware over `raw` in the given chunking and returns
/// the emitted outcomes.
fn run_streaming(
    fw: &WbsnFirmware,
    fs: f64,
    raw: &[f64],
    chunks: impl Iterator<Item = usize>,
) -> Vec<heartbeat_rp::hbc_embedded::BeatOutcome> {
    let filtered = MorphologicalFilter::for_sampling_rate(fs)
        .apply(raw)
        .expect("filter");
    let thresholds = PeakDetector::new(fs)
        .calibrate(&filtered)
        .expect("calibrate");
    let mut streaming = StreamingFirmware::new(fw, fs, thresholds);
    let mut outcomes = Vec::new();
    let mut offset = 0;
    for chunk in chunks {
        if offset >= raw.len() {
            break;
        }
        let end = (offset + chunk.max(1)).min(raw.len());
        streaming.push_chunk(&raw[offset..end]);
        while let Some(o) = streaming.pop_outcome() {
            outcomes.push(o);
        }
        offset = end;
    }
    if offset < raw.len() {
        streaming.push_chunk(&raw[offset..]);
    }
    streaming.finish();
    while let Some(o) = streaming.pop_outcome() {
        outcomes.push(o);
    }
    outcomes
}

/// The acceptance bar of the PR: the streaming path reproduces the batch
/// per-beat classifications for sample-at-a-time, ragged and whole-record
/// chunkings alike.
#[test]
fn streaming_firmware_reproduces_process_record_for_any_chunking() {
    let fw = &trained_system().wbsn;
    let mut gen = SyntheticEcg::with_seed(99);
    let rhythm = gen.rhythm(120, 0.1, 0.08);
    let record = gen.record(1, &rhythm, 3).expect("record generation");
    let batch = fw.process_record(&record).expect("batch firmware run");
    assert!(batch.beats.len() >= 100, "enough beats to compare");

    let raw = record.lead(Lead(0)).expect("lead 0");
    let chunkings: [(&str, Box<dyn Iterator<Item = usize>>); 4] = [
        ("sample-at-a-time", Box::new(std::iter::repeat(1))),
        ("odd 7-sample chunks", Box::new(std::iter::repeat(7))),
        ("one-second chunks", Box::new(std::iter::repeat(360))),
        ("whole record", Box::new(std::iter::once(raw.len()))),
    ];
    for (label, chunks) in chunkings {
        let outcomes = run_streaming(fw, record.fs, raw, chunks);
        assert_eq!(
            outcomes.len(),
            batch.beats.len(),
            "{label}: beat count differs from process_record"
        );
        for (s, b) in outcomes.iter().zip(&batch.beats) {
            assert_eq!(s.peak, b.peak, "{label}: peak position differs");
            assert_eq!(
                s.predicted, b.predicted,
                "{label}: predicted class differs at peak {}",
                b.peak
            );
            assert_eq!(s.delineated, b.delineated, "{label}: gating differs");
        }
    }
}

/// Builds a record whose first annotated beat sits closer to the record
/// start than `window.pre`, so its detected peak is skipped by the beat
/// windower while remaining matchable to its annotation.
fn record_with_border_beat() -> EcgRecord {
    let fs = 360.0;
    let positions: Vec<usize> = (0..8).map(|k| 60 + 400 * k).collect();
    let n = positions.last().expect("non-empty") + 240;
    let mut signal = vec![0.0f64; n];
    for (i, &p) in positions.iter().enumerate() {
        // A QRS-like biphasic deflection (sharper and larger for the
        // "ventricular" first beat, narrow for the rest).
        let (amp, width) = if i == 0 { (1.6, 0.016) } else { (1.1, 0.011) };
        for (j, s) in signal.iter_mut().enumerate() {
            let t = (j as f64 - p as f64) / fs;
            let d = t / width;
            *s += amp * (-0.5 * d * d).exp();
            // Small discordant wave after the R peak, as real beats have.
            let dt = (t - 0.12) / 0.04;
            *s += -0.12 * amp * (-0.5 * dt * dt).exp();
        }
    }
    let annotations: Vec<Annotation> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let class = if i == 0 {
                BeatClass::PrematureVentricular
            } else {
                BeatClass::Normal
            };
            Annotation::new(p, class)
        })
        .collect();
    EcgRecord::new(7, fs, vec![signal], annotations).expect("valid record")
}

/// Regression for the ground-truth misalignment: `windows_at_peaks` skips
/// border peaks, so indexing the peak↔annotation matching by *beat* position
/// shifted every truth label after a skipped peak — the first reported beat
/// inherited the border beat's (abnormal) label, silently corrupting
/// NDR/ARR. On the pre-fix code this test fails with the first in-window
/// beat labelled `V` instead of `N`.
#[test]
fn ground_truth_labels_stay_aligned_across_skipped_border_peaks() {
    let fw = &trained_system().wbsn;
    let record = record_with_border_beat();
    let window = BeatWindow::PAPER;

    // Preconditions that arm the regression: the detector must find the
    // border beat, and that peak must be unservable by the windower.
    let raw = record.lead(Lead(0)).expect("lead 0");
    let filtered = MorphologicalFilter::for_sampling_rate(record.fs)
        .apply(raw)
        .expect("filter");
    let peaks = PeakDetector::new(record.fs)
        .detect(&filtered)
        .expect("detect");
    assert!(
        peaks.first().is_some_and(|&p| p < window.pre),
        "first detected peak {:?} must lie inside the left border",
        peaks.first()
    );

    let report = fw.process_record(&record).expect("process");
    assert_eq!(
        report.beats.len(),
        record.annotations.len() - 1,
        "all but the border beat are windowed"
    );
    let tolerance = (0.06 * record.fs) as usize;
    for beat in &report.beats {
        let nearest = record
            .annotations
            .iter()
            .min_by_key(|a| a.sample.abs_diff(beat.peak))
            .expect("annotations exist");
        assert!(
            nearest.sample.abs_diff(beat.peak) <= tolerance,
            "beat at {} has no nearby annotation",
            beat.peak
        );
        assert_eq!(
            beat.truth,
            Some(nearest.class),
            "beat at {} carries the label of a different annotation",
            beat.peak
        );
    }
    // The decisive instance: the first *windowed* beat is the normal beat
    // near sample 460; with beat-indexed matching it inherited the border
    // PVC's label.
    assert_eq!(report.beats[0].truth, Some(BeatClass::Normal));
}

// ---------------------------------------------------------------------------
// Chunk-invariance and edge-case properties for the streaming operators.
// ---------------------------------------------------------------------------

fn synthetic_stretch(len: usize, seed_offset: u64) -> Vec<f64> {
    let mut gen = SyntheticEcg::with_seed(1234 + seed_offset);
    let rhythm = gen.rhythm(1 + len / 300, 0.2, 0.2);
    let record = gen.record(9, &rhythm, 1).expect("record");
    let mut signal = record.lead(Lead(0)).expect("lead").to_vec();
    signal.truncate(len);
    signal
}

/// Applies a chunking (cycled) to drive `push_chunk`-style ingestion.
fn chunk_spans(total: usize, chunks: &[usize]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut offset = 0;
    let mut k = 0;
    while offset < total {
        let len = chunks[k % chunks.len()].max(1);
        let end = (offset + len).min(total);
        spans.push((offset, end));
        offset = end;
        k += 1;
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The full streaming firmware emits an identical outcome stream for
    // every partition of the input into chunks.
    #[test]
    fn firmware_outcome_stream_is_chunk_invariant(
        chunks in prop::collection::vec(1usize..97, 1..12),
        seed in 0u64..4,
    ) {
        let fw = &trained_system().wbsn;
        let mut gen = SyntheticEcg::with_seed(300 + seed);
        let rhythm = gen.rhythm(24, 0.15, 0.1);
        let record = gen.record(2, &rhythm, 1).expect("record");
        let raw = record.lead(Lead(0)).expect("lead 0");

        let reference = run_streaming(fw, record.fs, raw, std::iter::repeat(1));
        let spans = chunk_spans(raw.len(), &chunks);
        let ragged = run_streaming(
            fw,
            record.fs,
            raw,
            spans.iter().map(|(lo, hi)| hi - lo),
        );
        prop_assert_eq!(ragged.len(), reference.len());
        for (a, b) in ragged.iter().zip(&reference) {
            prop_assert_eq!(a.peak, b.peak);
            prop_assert_eq!(a.predicted, b.predicted);
            prop_assert_eq!(a.delineated, b.delineated);
            prop_assert_eq!(a.fiducials_transmitted, b.fiducials_transmitted);
        }
    }
}

/// A synthetic record's classification lead quantized to wire codes, cut
/// to `len` samples, with `clips` bursts of ±2 048-code extremes (the
/// ADC's rails) written over it past the first `calib` samples.
fn wire_codes(seed: u64, len: usize, calib: usize, clips: &[(usize, usize, bool)]) -> Vec<i16> {
    let mut gen = SyntheticEcg::with_seed(500 + seed);
    let rhythm = gen.rhythm(30, 0.15, 0.1);
    let record = gen.record(3, &rhythm, 1).expect("record");
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    codes.truncate(len);
    let n = codes.len();
    for &(at, width, high) in clips {
        let from = calib + at % (n - calib);
        let rail = if high { 2047 } else { -2048 };
        codes[from..(from + width).min(n)].fill(rail);
    }
    codes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Codes in, the same outcomes out: the streaming firmware and the hub
    // fed wire codes emit exactly what they emit when fed the dequantized
    // signal, for random chunkings, rail-to-rail extremes and streams cut
    // anywhere (the close-time drain runs on whatever tail is left).
    #[test]
    fn code_fed_firmware_and_hub_match_millivolt_input(
        chunks in prop::collection::vec(1usize..400, 1..10),
        clips in prop::collection::vec((0usize..20_000, 1usize..60, any::<bool>()), 0..6),
        len in 2_000usize..9_000,
        seed in 0u64..4,
    ) {
        let fw = &trained_system().wbsn;
        let fs = 360.0;
        let calib = 1_800;
        let codes = wire_codes(seed, len, calib, &clips);
        let mut mv = Vec::new();
        dequantize_mv_into(&codes, &mut mv);
        let spans = chunk_spans(codes.len(), &chunks);

        let mv_hub = StreamHub::new(fw, fs);
        let code_hub = StreamHub::with_scale(fw, fs, None, wire_adc());
        let thresholds = mv_hub.calibrate_thresholds(&mv[..calib]);
        let code_thresholds = code_hub.calibrate_samples(&codes[..calib]);
        prop_assert_eq!(code_thresholds.as_ref().ok(), thresholds.as_ref().ok());
        let Ok(thresholds) = thresholds else { return Ok(()); };

        let mut by_mv = StreamingFirmware::new(fw, fs, thresholds.clone());
        let mut by_code = StreamingFirmware::with_scale(fw, fs, thresholds.clone(), wire_adc());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for &(lo, hi) in &spans {
            by_mv.push_chunk(&mv[lo..hi]);
            by_code.push_chunk(&codes[lo..hi]);
            want.extend(std::iter::from_fn(|| by_mv.pop_outcome()));
            got.extend(std::iter::from_fn(|| by_code.pop_outcome()));
            prop_assert_eq!(&got, &want, "outcomes after sample {}", hi);
        }
        by_mv.finish();
        by_code.finish();
        want.extend(std::iter::from_fn(|| by_mv.pop_outcome()));
        got.extend(std::iter::from_fn(|| by_code.pop_outcome()));
        prop_assert_eq!(&got, &want, "outcomes after the close-time drain");

        let (mut mv_hub, mut code_hub) = (mv_hub, code_hub);
        let mv_id = mv_hub.add_patient(7, thresholds.clone());
        let code_id = code_hub.add_patient(7, thresholds);
        for &(lo, hi) in &spans {
            mv_hub.ingest(&[(mv_id, &mv[lo..hi])]).expect("live session");
            code_hub.ingest(&[(code_id, &codes[lo..hi])]).expect("live session");
        }
        let report = code_hub.close_session(code_id).expect("live session");
        prop_assert_eq!(report, mv_hub.close_session(mv_id).expect("live session"));
        prop_assert_eq!(&got, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The streaming wavelet equals the batch transform bit for bit on
    // arbitrary signal lengths (longer than the batch minimum), for any
    // number of scales in use.
    #[test]
    fn streaming_wavelet_matches_batch_for_random_lengths(
        len in 64usize..600,
        scales in 1usize..5,
        seed in 0u64..8,
    ) {
        let signal = synthetic_stretch(len, seed);
        let batch = DyadicWavelet::with_scales(scales).transform(&signal);
        prop_assert!(batch.is_ok() || signal.len() < 3 * (1 << (scales - 1)) + 1);
        let Ok(batch) = batch else { return Ok(()); };

        let mut streaming = StreamingWavelet::new(scales);
        let mut got: Vec<Vec<f64>> = vec![Vec::new(); scales];
        for &s in &signal {
            streaming.push(s);
            while let Some(frame) = streaming.pop_frame() {
                for (acc, &d) in got.iter_mut().zip(frame.details) {
                    acc.push(d);
                }
            }
        }
        streaming.finish();
        while let Some(frame) = streaming.pop_frame() {
            for (acc, &d) in got.iter_mut().zip(frame.details) {
                acc.push(d);
            }
        }
        for (scale, (g, b)) in got.iter().zip(&batch).enumerate() {
            prop_assert_eq!(g.len(), b.len());
            for (k, (x, y)) in g.iter().zip(b).enumerate() {
                prop_assert_eq!(x, y, "scale {} index {}", scale, k);
            }
        }
    }

    // The streaming baseline filter equals the naive oracle bit for bit for
    // random signal lengths at and above the whole-signal minimum (the
    // longest structuring element).
    #[test]
    fn streaming_baseline_filter_matches_batch_for_random_lengths(
        len in 191usize..1200,
        seed in 0u64..8,
    ) {
        let signal = synthetic_stretch(len, seed);
        let batch = MorphologicalFilter::for_sampling_rate(360.0)
            .apply_naive(&signal)
            .expect("length at least the longest structuring element");
        let mut streaming = StreamingBaselineFilter::for_sampling_rate(360.0);
        let mut out = Vec::new();
        for &s in &signal {
            if let Some(v) = streaming.push(s) {
                out.push(v);
            }
        }
        streaming.finish_into(&mut out);
        prop_assert_eq!(out.len(), batch.len());
        for (k, (a, b)) in out.iter().zip(&batch).enumerate() {
            prop_assert_eq!(a, b, "sample {}", k);
        }
    }

    // Signals shorter than the group delay produce exactly one output per
    // input at finish, without panicking — the edge the whole-signal filter
    // rejects outright.
    #[test]
    fn streaming_baseline_filter_survives_short_streams(len in 0usize..64) {
        let signal = synthetic_stretch(len.max(1), 3);
        let signal = &signal[..len.min(signal.len())];
        let mut streaming = StreamingBaselineFilter::for_sampling_rate(360.0);
        let mut out = Vec::new();
        for &s in signal {
            prop_assert_eq!(streaming.push(s), None);
        }
        streaming.finish_into(&mut out);
        prop_assert_eq!(out.len(), signal.len());
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    // SlidingExtremum is exact against a naive window scan for any window
    // size, including the degenerate window of one sample: over flat runs
    // (every comparison a tie) and runs of alternating +0.0 / -0.0, where
    // the selected sample must be the earliest extreme one bit for bit, and
    // through the `skip()` drain of the right border.
    #[test]
    fn sliding_extremum_matches_naive_for_any_window(
        window in 1usize..80,
        len in 1usize..300,
        seed in 0u64..8,
        runs in prop::collection::vec((0usize..300, 1usize..60, 0u8..3), 0..5),
    ) {
        let mut signal = synthetic_stretch(len, seed);
        let n = signal.len();
        for &(at, width, shape) in &runs {
            for (k, x) in signal.iter_mut().enumerate().skip(at % n).take(width) {
                *x = match shape {
                    0 => 0.25,
                    1 => if k % 2 == 0 { 0.0 } else { -0.0 },
                    _ => if k % 3 == 0 { -0.0 } else { 0.0 },
                };
            }
        }
        // The earliest sample holding the window's extreme value: the tie
        // rule of a left-to-right window scan.
        let earliest = |window: &[f64], kind: ExtremumKind| {
            window.iter().copied().reduce(|kept, x| match kind {
                ExtremumKind::Min if x < kept => x,
                ExtremumKind::Max if x > kept => x,
                _ => kept,
            })
        };
        for kind in [ExtremumKind::Min, ExtremumKind::Max] {
            let mut tracker = SlidingExtremum::new(kind, window);
            for (i, &s) in signal.iter().enumerate() {
                let got = tracker.push(s);
                let lo = i.saturating_sub(window - 1);
                let expected = earliest(&signal[lo..=i], kind).expect("non-empty window");
                prop_assert_eq!(got.to_bits(), expected.to_bits(), "index {}", i);
            }
            // Advance `k` past the end covers the real samples from
            // `n + k − window` on, and none once `k` reaches the window.
            for k in 1..=window + 2 {
                let got = tracker.skip();
                let expected = (k < window)
                    .then(|| earliest(&signal[(n + k).saturating_sub(window)..], kind))
                    .flatten();
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "skip {}", k
                );
            }
            prop_assert_eq!(tracker.len(), (n + window + 2) as u64);
        }
    }
}

/// Runs the block front-end over `signal` cut into `chunks` (cycled) and
/// returns every output: the filtered samples (fed millivolts and fed the
/// codes), the wavelet frames as bits, the detector's peaks, and the beat
/// windows the firmware's windower cuts, with its dropped-window count. A
/// chunking of `[1]` is the sample-at-a-time reference, since `push` is a
/// block of one.
#[allow(clippy::type_complexity)]
fn run_front_end(
    codes: &[i16],
    chunks: &[usize],
) -> (
    Vec<u64>,
    Vec<u64>,
    Vec<Vec<u64>>,
    Vec<usize>,
    Vec<(usize, Vec<u64>)>,
    usize,
) {
    let fs = 360.0;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut mv = Vec::new();
    dequantize_mv_into(codes, &mut mv);
    let spans = chunk_spans(codes.len(), chunks);
    let per_sample = chunks == [1];

    let mut by_mv = StreamingBaselineFilter::for_sampling_rate(fs);
    let mut by_code = StreamingBaselineFilter::with_scale(fs, wire_adc());
    let (mut filtered, mut filtered_codes) = (Vec::new(), Vec::new());
    let mut out = vec![0.0; codes.len()];
    for &(lo, hi) in &spans {
        if per_sample {
            filtered.extend(by_mv.push(mv[lo]));
            filtered_codes.extend(by_code.push(codes[lo]));
        } else {
            let n = by_mv.push_chunk(&mv[lo..hi], &mut out);
            filtered.extend_from_slice(&out[..n]);
            let n = by_code.push_chunk(&codes[lo..hi], &mut out);
            filtered_codes.extend_from_slice(&out[..n]);
        }
    }
    by_mv.finish_into(&mut filtered);
    by_code.finish_into(&mut filtered_codes);

    let spans = chunk_spans(filtered.len(), chunks);
    let mut wavelet = StreamingWavelet::new(4);
    let mut frames = Vec::new();
    let mut pop_frames = |wavelet: &mut StreamingWavelet| {
        while let Some(frame) = wavelet.pop_frame() {
            let mut row = vec![frame.index as u64, frame.input.to_bits()];
            row.extend(bits(frame.details));
            frames.push(row);
        }
    };
    for &(lo, hi) in &spans {
        if per_sample {
            wavelet.push(filtered[lo]);
        } else {
            wavelet.push_chunk(&filtered[lo..hi]);
        }
        pop_frames(&mut wavelet);
    }
    wavelet.finish();
    pop_frames(&mut wavelet);

    // The detector and the windower fed as the firmware feeds them: each
    // chunk in blocks, the windower first, with a history slack of one
    // block; a second detector takes the whole chunks.
    let detector = PeakDetector::new(fs);
    let thresholds = detector.calibrate(&filtered).expect("calibrate");
    let mut online = StreamingPeakDetector::new(&detector, thresholds.clone());
    let mut whole = StreamingPeakDetector::new(&detector, thresholds);
    let window = BeatWindow::PAPER;
    let mut windower = StreamingBeatWindower::new(window, window.len() + online.delay() + BLOCK);
    let (mut peaks, mut whole_peaks, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    let mut cut = Vec::new();
    let mut drain = |online: &mut StreamingPeakDetector,
                     windower: &mut StreamingBeatWindower,
                     peaks: &mut Vec<usize>| {
        while let Some(p) = online.pop_peak() {
            peaks.push(p);
            windower.push_peak(p);
        }
        while let Some(p) = windower.pop_window(&mut cut) {
            windows.push((p, bits(&cut)));
        }
    };
    for &(lo, hi) in &spans {
        if per_sample {
            windower.push_sample(filtered[lo]);
            online.push(filtered[lo]);
            whole.push(filtered[lo]);
        } else {
            for block in filtered[lo..hi].chunks(BLOCK) {
                for &y in block {
                    windower.push_sample(y);
                }
                online.push_chunk(block);
                drain(&mut online, &mut windower, &mut peaks);
            }
            whole.push_chunk(&filtered[lo..hi]);
        }
        drain(&mut online, &mut windower, &mut peaks);
        whole_peaks.extend(std::iter::from_fn(|| whole.pop_peak()));
    }
    online.finish();
    whole.finish();
    drain(&mut online, &mut windower, &mut peaks);
    whole_peaks.extend(std::iter::from_fn(|| whole.pop_peak()));
    assert_eq!(
        whole_peaks, peaks,
        "whole chunks and blocks find the same peaks"
    );
    (
        bits(&filtered),
        bits(&filtered_codes),
        frames,
        peaks,
        windows,
        windower.dropped_history(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The block front-end is the per-sample front-end: the filter fed
    // millivolts and fed codes, the wavelet and the detector emit exactly
    // the outputs of one `push` per sample, bit for bit, for chunkings with
    // blocks longer than `BLOCK` and streams cut anywhere (the `finish`
    // tails run on whatever is left). The windower, fed block by block
    // with one block of history slack, never loses a window.
    #[test]
    fn block_front_end_matches_the_per_sample_front_end(
        chunks in prop::collection::vec(1usize..200, 1..8),
        len in 1_200usize..4_000,
        seed in 0u64..4,
    ) {
        let codes = wire_codes(seed, len, 0, &[]);
        let reference = run_front_end(&codes, &[1]);
        let blocks = run_front_end(&codes, &chunks);
        prop_assert!(!reference.3.is_empty(), "the stream must hold peaks");
        prop_assert_eq!(&blocks.0, &reference.0, "filtered millivolts");
        prop_assert_eq!(&blocks.1, &reference.0, "filtered codes");
        prop_assert_eq!(&blocks.2, &reference.2, "wavelet frames");
        prop_assert_eq!(&blocks.3, &reference.3, "peaks");
        prop_assert_eq!(&blocks.4, &reference.4, "beat windows");
        prop_assert_eq!(reference.5, 0, "per-sample windower dropped a window");
        prop_assert_eq!(blocks.5, 0, "block windower dropped a window");
    }
}

//! Equivalence suite for the conditioning front-end.
//!
//! Production code runs one morphology kernel: the streaming van Herk /
//! Gil–Werman sliding extremum behind `hbc_dsp::streaming` (the erosion and
//! dilation operators, and the baseline filter that
//! `MorphologicalFilter::apply` runs over whole signals). It must be
//! indistinguishable from the naive O(n·w) window rescan
//! (`sliding_extreme_naive`, `MorphologicalFilter::apply_naive`) for every
//! window parity, border position and element geometry, fed millivolts or
//! ADC codes — min/max are pure comparisons, so the equality is exact, not
//! approximate. The capstone test reconstructs the record pipeline from the
//! oracles (the naive filter, `PeakDetector::detect`, `windows_at_peaks`,
//! `Delineator::delineate_multilead` over the naive-filtered leads) and
//! checks `WbsnFirmware::process_record`, which runs the streaming firmware,
//! against it beat by beat on records of one to three leads: per-beat
//! classifications, ground-truth labels, delineation gating, transmitted
//! fiducial counts and the NDR/ARR figures of merit are bit-identical.
//!
//! (The zero-steady-state-allocation gate lives in `tests/frontend_alloc.rs`
//! — it needs a counting global allocator and therefore a test binary of its
//! own.)

use std::sync::OnceLock;

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_dsp::filter::{
    effective_window, sliding_extreme_naive, ExtremumKind, MorphologicalFilter,
};
use heartbeat_rp::hbc_dsp::streaming::{StreamingDilation, StreamingErosion};
use heartbeat_rp::hbc_dsp::window::{match_peaks, windows_at_peaks};
use heartbeat_rp::hbc_dsp::{Delineator, PeakDetector, StreamingBaselineFilter};
use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::{AdcModel, BeatScratch};
use heartbeat_rp::pipeline::TrainedSystem;
use proptest::prelude::*;

/// Deterministic pseudo-ECG signal of `n` samples: drift + ripple + spikes,
/// parameterised by a seed so proptest explores different waveforms.
fn signal(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            let t = i as f64 * 0.017;
            (t * 1.3).sin()
                + 0.25 * (t * 9.1).cos()
                + 0.2 * noise
                + if i % 97 < 3 { 2.5 } else { 0.0 }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Streaming kernel == naive rescan for every window parity and for
    // signals short enough that the borders dominate. (The name dates from
    // the monotone-deque kernel the streaming one replaced.)
    #[test]
    fn deque_kernel_matches_naive_for_all_parities_and_borders(
        n in 1usize..=400,
        size in 1usize..=150,
        seed in any::<u64>(),
    ) {
        let x = signal(n, seed);
        let (eroded, dilated) = stream_morphology(&x, size);
        prop_assert_eq!(&eroded, &sliding_extreme_naive(&x, size, ExtremumKind::Min),
            "erode, n={}, size={}", n, size);
        prop_assert_eq!(&dilated, &sliding_extreme_naive(&x, size, ExtremumKind::Max),
            "dilate, n={}, size={}", n, size);
        // Even sizes are normalised to the next odd effective window, in one
        // place, for the kernel and the oracle.
        prop_assert_eq!(effective_window(size), 2 * (size / 2) + 1);
        if size.is_multiple_of(2) {
            prop_assert_eq!((eroded, dilated), stream_morphology(&x, size + 1));
        }
    }

    // The MMD delineation operator rides the same wedge kernel (one
    // trailing-max and one leading-min pass per scale) and must equal the
    // naive per-output rescan exactly — same clamped borders, same
    // (max + min) − 2x association order — for every signal length and
    // scale, degenerate ones included.
    #[test]
    fn mmd_wedge_matches_the_naive_rescan(
        n in 0usize..=400,
        scale in 0usize..=150,
        seed in any::<u64>(),
    ) {
        let x = signal(n, seed);
        prop_assert_eq!(
            Delineator::mmd(&x, scale),
            Delineator::mmd_naive(&x, scale),
            "n={}, scale={}", n, scale
        );
    }

    // The full baseline filter: the streaming-backed `apply` == the naive
    // chain, for arbitrary element geometries (both parities, qrs ≶ beat).
    #[test]
    fn baseline_filter_matches_naive_chain_for_all_element_geometries(
        n in 60usize..=400,
        qrs in 1usize..=40,
        beat in 1usize..=60,
        seed in any::<u64>(),
    ) {
        let filter = MorphologicalFilter {
            qrs_element: qrs,
            beat_element: beat,
        };
        let x = signal(n, seed);
        let naive = filter.apply_naive(&x).expect("long enough");
        let streamed = filter.apply(&x).expect("long enough");
        prop_assert_eq!(&streamed, &naive, "qrs={}, beat={}, n={}", qrs, beat, n);
    }

    // The code-fed streaming filter (`StreamingBaselineFilter<AdcModel>`,
    // as the gateway runs it) == the naive chain over the dequantized
    // signal, for arbitrary element geometries, code shapes and chunkings,
    // through the whole-signal entry point and chunk by chunk.
    #[test]
    fn code_fed_baseline_filter_matches_naive_chain_for_all_element_geometries(
        n in 60usize..=400,
        qrs in 1usize..=40,
        beat in 1usize..=60,
        shape in 0u8..3,
        chunk in 1usize..=100,
        seed in any::<u64>(),
    ) {
        let filter = MorphologicalFilter {
            qrs_element: qrs,
            beat_element: beat,
        };
        let adc = AdcModel::default_frontend();
        let x = codes(n, qrs.max(beat), shape, seed);
        let x_mv: Vec<f64> = x.iter().map(|&c| adc.dequantize_sample(i32::from(c))).collect();
        let naive = filter.apply_naive(&x_mv).expect("long enough");
        let whole = filter.apply_scaled(adc, &x).expect("long enough");
        prop_assert_eq!(&whole, &naive, "qrs={}, beat={}, n={}", qrs, beat, n);
        let mut streaming = StreamingBaselineFilter::with_geometry(filter, adc);
        let mut out = vec![0.0; n];
        let mut produced = 0;
        for piece in x.chunks(chunk) {
            produced += streaming.push_chunk(piece, &mut out[produced..]);
        }
        out.truncate(produced);
        streaming.finish_into(&mut out);
        prop_assert_eq!(&out, &naive, "qrs={}, beat={}, n={}, chunk={}", qrs, beat, n, chunk);
    }

    // Streaming erosion/dilation == naive reference, pinned for *both*
    // window parities (the even-`size` normalisation is shared, so both see
    // the same effective window and the operator's delay is half of it).
    #[test]
    fn streaming_and_batch_morphology_share_even_size_semantics(
        n in 1usize..=300,
        size in 1usize..=60,
        seed in any::<u64>(),
    ) {
        let x = signal(n, seed);
        let batch_eroded = sliding_extreme_naive(&x, size, ExtremumKind::Min);
        let batch_dilated = sliding_extreme_naive(&x, size, ExtremumKind::Max);
        let mut erosion = StreamingErosion::new(size);
        let mut dilation = StreamingDilation::new(size);
        prop_assert_eq!(erosion.delay(), effective_window(size) / 2);
        let mut eroded = Vec::new();
        let mut dilated = Vec::new();
        for &s in &x {
            eroded.extend(erosion.push(s));
            dilated.extend(dilation.push(s));
        }
        while let Some(v) = erosion.finish_one() {
            eroded.push(v);
        }
        while let Some(v) = dilation.finish_one() {
            dilated.push(v);
        }
        prop_assert_eq!(&eroded, &batch_eroded, "size={}, n={}", size, n);
        prop_assert_eq!(&dilated, &batch_dilated, "size={}, n={}", size, n);
    }
}

/// 12-bit ADC codes in one of three shapes that stress the sliding
/// extremum: noise spanning the full ±2 048 code range (`shape` 0), flat
/// runs of a few levels, so most comparisons are ties (1), and long
/// monotone ramps that span whole windows, reversing every `2·size`
/// samples (2).
fn codes(n: usize, size: usize, shape: u8, seed: u64) -> Vec<i16> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut level = 0i16;
    let mut run = 0u32;
    (0..n)
        .map(|i| match shape {
            0 => (next() % 4096) as i16 - 2048,
            1 => {
                if run == 0 {
                    level = [-2048, -7, 0, 3, 2047][next() as usize % 5];
                    run = 1 + next() % 40;
                }
                run -= 1;
                level
            }
            _ => {
                let period = 4 * size.max(1);
                let phase = i % period;
                let ramp = phase.min(period - phase) as i64 - size as i64;
                ramp.clamp(-2048, 2047) as i16
            }
        })
        .collect()
}

/// Streaming erosion and dilation of `T` samples, right border drained.
fn stream_morphology<T: Copy + PartialOrd>(x: &[T], size: usize) -> (Vec<T>, Vec<T>) {
    let mut erosion = StreamingErosion::new(size);
    let mut dilation = StreamingDilation::new(size);
    let mut eroded = Vec::with_capacity(x.len());
    let mut dilated = Vec::with_capacity(x.len());
    for &s in x {
        eroded.extend(erosion.push(s));
        dilated.extend(dilation.push(s));
    }
    eroded.extend(std::iter::from_fn(|| erosion.finish_one()));
    dilated.extend(std::iter::from_fn(|| dilation.finish_one()));
    (eroded, dilated)
}

/// The generic streaming kernel, instantiated for codes and for
/// millivolts, against the naive oracle on the dequantized signal: the
/// `f64` kernel must equal it, and the `i16` kernel must equal it once its
/// output is dequantized.
fn check_ring_wedge(x: &[i16], size: usize) -> Result<(), TestCaseError> {
    let adc = AdcModel::default_frontend();
    let mv = |c: &i16| adc.dequantize_sample(i32::from(*c));
    let x_mv: Vec<f64> = x.iter().map(mv).collect();
    let batch_eroded = sliding_extreme_naive(&x_mv, size, ExtremumKind::Min);
    let batch_dilated = sliding_extreme_naive(&x_mv, size, ExtremumKind::Max);
    let (eroded, dilated) = stream_morphology(&x_mv, size);
    prop_assert_eq!(&eroded, &batch_eroded, "f64 erosion, size={}", size);
    prop_assert_eq!(&dilated, &batch_dilated, "f64 dilation, size={}", size);
    let (eroded, dilated) = stream_morphology(x, size);
    let eroded: Vec<f64> = eroded.iter().map(mv).collect();
    let dilated: Vec<f64> = dilated.iter().map(mv).collect();
    prop_assert_eq!(&eroded, &batch_eroded, "i16 erosion, size={}", size);
    prop_assert_eq!(&dilated, &batch_dilated, "i16 dilation, size={}", size);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Ties, ramps across whole windows and full-range noise, for both
    // sample types.
    #[test]
    fn ring_wedge_matches_the_batch_kernel_for_f64_and_codes(
        n in 1usize..=2_000,
        size in 1usize..=300,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        check_ring_wedge(&codes(n, size, shape, seed), size)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Streams longer than 65 536 samples, past any 16-bit index or counter,
    // over many thousands of van Herk blocks.
    #[test]
    fn ring_wedge_survives_the_u16_index_wrap(
        n in 65_537usize..=70_000,
        size in 1usize..=3_000,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        check_ring_wedge(&codes(n, size, shape, seed), size)?;
    }
}

fn trained_system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        TrainedSystem::train(&ExperimentConfig::quick()).expect("training succeeds")
    })
}

/// The acceptance bar: `process_record` (running the streaming firmware) is
/// bit-identical to the pipeline reconstructed here from the oracles:
/// naive filter on every lead → whole-signal peak detection →
/// peak/annotation matching → windowing → per-beat classification → gated
/// multi-lead delineation over the naive-filtered leads. Records of one, two
/// and three leads.
#[test]
fn process_record_is_bit_identical_to_the_naive_front_end_reconstruction() {
    let mut fused = 0;
    for seed in [77, 80] {
        for leads in 1..=3 {
            fused += check_against_naive_reconstruction(seed, leads);
        }
    }
    // On seed 80 the other leads change the fiducial count of some beats,
    // so delineation that ignored them would fail the check.
    assert!(fused > 0, "some fused fiducial counts differ from lead 0's");
}

/// Checks one record of `leads` leads and returns the number of forwarded
/// beats whose fused fiducial count differs from lead 0's alone.
fn check_against_naive_reconstruction(seed: u64, leads: usize) -> usize {
    let fw = &trained_system().wbsn;
    let mut gen = SyntheticEcg::with_seed(seed);
    let rhythm = gen.rhythm(80, 0.12, 0.12);
    let record = gen.record(50, &rhythm, leads).expect("record generation");
    assert_eq!(record.num_leads(), leads);

    let mut beat_scratch = BeatScratch::default();
    let report = fw
        .process_record_with(&record, &mut beat_scratch)
        .expect("firmware run");
    assert!(report.beats.len() >= 60, "enough beats to compare");
    // The scratch entry point and the plain one agree exactly.
    assert_eq!(
        report,
        fw.process_record(&record).expect("firmware run"),
        "process_record and process_record_with must agree"
    );

    // Pre-change reconstruction: naive O(n·w) filter, allocating transform,
    // whole-signal detection and windowing.
    let filter = MorphologicalFilter::for_sampling_rate(record.fs);
    let filtered_leads: Vec<Vec<f64>> = (0..leads)
        .map(|l| {
            filter
                .apply_naive(record.lead(Lead(l)).expect("lead"))
                .expect("filter")
        })
        .collect();
    let filtered = &filtered_leads[0];
    let detector = PeakDetector::new(record.fs);
    let peaks = detector.detect(filtered).expect("peaks");
    let tolerance = (0.06 * record.fs) as usize;
    let matching = match_peaks(&peaks, &record.annotations, tolerance);
    let beats = windows_at_peaks(filtered, &peaks, fw.window, record.id);
    let delineator = Delineator::new(record.fs);

    assert_eq!(report.beats.len(), beats.len(), "{leads} leads: beat count");
    let (mut forwarded, mut fused) = (0, 0);
    for ((peak_index, beat), outcome) in beats.iter().zip(&report.beats) {
        let predicted = fw.classify_window(&beat.samples).expect("classify");
        let truth = matching.matched_annotation[*peak_index].map(|a| record.annotations[a].class);
        assert_eq!(outcome.peak, beat.record_position, "peak position");
        assert_eq!(outcome.predicted, predicted, "per-beat classification");
        assert_eq!(outcome.truth, truth, "ground-truth label");
        // Delineation runs exactly for the forwarded beats, over the
        // windows of every naive-filtered lead.
        let delineated = predicted.is_abnormal();
        let fiducials = if delineated {
            forwarded += 1;
            let windows: Vec<Vec<f64>> = filtered_leads
                .iter()
                .map(|l| {
                    fw.window
                        .extract(l, beat.record_position)
                        .expect("the classification lead's window fits every lead")
                })
                .collect();
            let windows: Vec<&[f64]> = windows.iter().map(Vec::as_slice).collect();
            let count = |windows: &[&[f64]]| {
                delineator
                    .delineate_multilead(windows, fw.window.pre)
                    .map(|f| f.count().max(1))
                    .unwrap_or(1)
            };
            let all = count(&windows);
            if all != count(&windows[..1]) {
                fused += 1;
            }
            all
        } else {
            1
        };
        assert_eq!(outcome.delineated, delineated, "{leads} leads: gating");
        assert_eq!(
            outcome.fiducials_transmitted, fiducials,
            "{leads} leads: fiducials of the beat at {}",
            outcome.peak
        );
    }
    assert!(forwarded > 0, "{leads} leads: some beats are delineated");
    assert_eq!(report.stats.forwarded_beats, forwarded);

    // The figures of merit derive from the per-beat outcomes; recompute them
    // from the reconstruction and require exact equality.
    let (mut discarded, mut normals, mut recognised, mut abnormals) = (0usize, 0, 0, 0);
    for ((peak_index, beat), _) in beats.iter().zip(&report.beats) {
        let predicted = fw.classify_window(&beat.samples).expect("classify");
        match matching.matched_annotation[*peak_index].map(|a| record.annotations[a].class) {
            Some(heartbeat_rp::hbc_ecg::beat::BeatClass::Normal) => {
                normals += 1;
                if predicted == heartbeat_rp::hbc_ecg::beat::BeatClass::Normal {
                    discarded += 1;
                }
            }
            Some(t) if t.is_abnormal() => {
                abnormals += 1;
                if predicted.is_abnormal() {
                    recognised += 1;
                }
            }
            _ => {}
        }
    }
    assert!(normals > 0 && abnormals > 0, "both classes represented");
    let ndr = discarded as f64 / normals as f64;
    let arr = recognised as f64 / abnormals as f64;
    assert_eq!(report.ndr(), ndr, "NDR must be bit-identical");
    assert_eq!(report.arr(), arr, "ARR must be bit-identical");
    fused
}

/// Scratch-carried state never leaks across records: interleaving records of
/// different lengths and sampling rates through one per-beat scratch
/// reproduces fresh-scratch runs exactly.
#[test]
fn scratch_reuse_across_heterogeneous_records_is_transparent() {
    let fw = &trained_system().wbsn;
    let mut gen = SyntheticEcg::with_seed(123);
    let records = [
        gen.record(1, &gen.clone().rhythm(40, 0.1, 0.1), 1)
            .expect("record"),
        gen.record(2, &gen.clone().rhythm(25, 0.2, 0.05), 3)
            .expect("record"),
        gen.record(3, &gen.clone().rhythm(55, 0.05, 0.15), 2)
            .expect("record"),
    ];
    let mut beat_scratch = BeatScratch::default();
    for _round in 0..2 {
        for record in &records {
            let reused = fw
                .process_record_with(record, &mut beat_scratch)
                .expect("reused-scratch run");
            let fresh = fw.process_record(record).expect("fresh run");
            assert_eq!(reused, fresh, "record {}", record.id);
        }
    }
}

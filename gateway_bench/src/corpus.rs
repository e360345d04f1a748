//! Workload inputs and their reference outcomes.
//!
//! Every stream is a seeded synthetic single-lead ECG record quantised once
//! to the wire's ADC codes, so the gateway and the reference consume the
//! identical signal. The reference runs the same codes through
//! [`StreamingFirmware`] one sample at a time, with thresholds calibrated on
//! the same leading stretch the gateway calibrates on, and notes for every
//! beat its **trigger sample**: the index of the sample whose `push` made
//! the firmware emit it. Latency is anchored on the packet that carried the
//! trigger sample, which excludes the algorithmic lookahead
//! (`StreamingFirmware::delay()`) by construction.

use hbc_core::StreamHub;
use hbc_ecg::record::EcgRecord;
use hbc_ecg::synthetic::SyntheticEcg;
use hbc_ecg::MITBIH_FS;
use hbc_embedded::{StreamingFirmware, WbsnFirmware};
use hbc_net::proto::{dequantize_mv_into, quantize_mv_into, WireOutcome};
use hbc_par::Par;

use crate::util::Rng;

/// Sampling rate of every stream (the MIT-BIH rate the firmware targets).
pub const FS: f64 = MITBIH_FS;

/// What a record is made of. A quarter of a fleet is adversarial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Normal / ventricular / bundle-branch-block rhythm mix.
    Mix,
    AfRecord,
    ElectrodePop,
    BaselineStorm,
    PacingArtifacts,
}

impl Kind {
    /// The kind of the `slot`-th stream of a fleet: every fourth slot cycles
    /// through the adversarial scenarios.
    pub fn for_slot(slot: usize) -> Kind {
        if slot % 4 != 3 {
            return Kind::Mix;
        }
        match (slot / 4) % 4 {
            0 => Kind::AfRecord,
            1 => Kind::ElectrodePop,
            2 => Kind::BaselineStorm,
            _ => Kind::PacingArtifacts,
        }
    }
}

/// One reference beat: the outcome the gateway must deliver, plus the index
/// of the sample whose push emitted it (`== len` for beats the end-of-stream
/// drain emits at close).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefBeat {
    pub outcome: WireOutcome,
    pub trigger: u32,
}

/// Sessions may be closed early, but only after a multiple of this many
/// samples: the reference knows the close tail at each such cut.
pub const CUT_EVERY: usize = 8192;

/// A stream the generator sends: ADC codes plus the reference outcomes of
/// exactly these codes followed by a close.
#[derive(Debug, Clone)]
pub struct Stream {
    pub codes: Vec<i16>,
    pub reference: Vec<RefBeat>,
    /// `cut_tails[m]`: the beats a close emits after the first
    /// `(m + 1) · CUT_EVERY` samples (for cuts short of the whole stream).
    pub cut_tails: Vec<Vec<WireOutcome>>,
}

impl Stream {
    /// The close tail after the first `cut` samples (`cut` a multiple of
    /// [`CUT_EVERY`] below the stream length).
    pub fn cut_tail(&self, cut: usize) -> &[WireOutcome] {
        &self.cut_tails[cut / CUT_EVERY - 1]
    }

    /// Reference beats the gateway has emitted once the first `n` samples
    /// were ingested (without a close).
    pub fn beats_triggered_before(&self, n: usize) -> usize {
        self.reference
            .iter()
            .take_while(|b| (b.trigger as usize) < n)
            .count()
    }
}

/// A request for one stream: its kind, seed and exact length in samples.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub seed: u64,
    pub len: usize,
}

/// Synthesises and references every spec in parallel. Streams whose
/// calibration stretch would be rejected are re-drawn with a derived seed,
/// so no session of a workload fails by construction.
pub fn build(fw: &WbsnFirmware, specs: &[Spec], calib: usize) -> Vec<Stream> {
    Par::new().map(specs, |spec| {
        let mut seed = spec.seed;
        loop {
            let codes = synthesize(spec.kind, seed, spec.len);
            if let Some((reference, cut_tails)) = reference(fw, &codes, calib) {
                return Stream {
                    codes,
                    reference,
                    cut_tails,
                };
            }
            seed = Rng::new(seed).next_u64();
        }
    })
}

fn synthesize(kind: Kind, seed: u64, len: usize) -> Vec<i16> {
    let mut rng = Rng::new(seed);
    let mut gen = SyntheticEcg::with_seed(seed);
    // Synthesise with generous headroom, then cut to the exact length.
    let mut beats = len / (FS as usize / 2) + 4;
    let record = loop {
        let record = make_record(&mut gen, &mut rng, kind, beats);
        if record.len() >= len {
            break record;
        }
        beats += beats / 2 + 1;
    };
    let mut codes = Vec::with_capacity(record.len());
    quantize_mv_into(&record.leads[0][..len], &mut codes);
    codes
}

fn make_record(gen: &mut SyntheticEcg, rng: &mut Rng, kind: Kind, beats: usize) -> EcgRecord {
    let id = rng.next_u64() as u32;
    if kind == Kind::AfRecord {
        return gen.af_record(id, beats, 1).expect("af record");
    }
    let p_v = rng.uniform(0.04, 0.2);
    let p_l = rng.uniform(0.0, 0.15);
    let rhythm = gen.rhythm(beats, p_v, p_l);
    let mut record = gen.record(id, &rhythm, 1).expect("synthetic record");
    match kind {
        Kind::ElectrodePop => gen.electrode_pop(&mut record, beats / 40 + 1),
        Kind::BaselineStorm => gen.baseline_storm(&mut record, rng.uniform(0.8, 1.6)),
        Kind::PacingArtifacts => gen.pacing_artifacts(&mut record, rng.uniform(0.7, 1.1)),
        Kind::Mix | Kind::AfRecord => {}
    }
    record
}

/// The reference outcome stream of `codes` (sample-by-sample push, then a
/// close) and the close tail at every early cut, or `None` when the
/// calibration stretch is degenerate.
pub fn reference(
    fw: &WbsnFirmware,
    codes: &[i16],
    calib: usize,
) -> Option<(Vec<RefBeat>, Vec<Vec<WireOutcome>>)> {
    let mut samples = Vec::with_capacity(codes.len());
    dequantize_mv_into(codes, &mut samples);
    let thresholds = StreamHub::new(fw, FS)
        .calibrate_thresholds(&samples[..calib.min(samples.len())])
        .ok()?;
    let mut firmware = StreamingFirmware::new(fw, FS, thresholds);
    let mut beats = Vec::new();
    let mut cut_tails = Vec::new();
    for (i, &s) in samples.iter().enumerate() {
        firmware.push(s);
        while let Some(o) = firmware.pop_outcome() {
            beats.push(RefBeat {
                outcome: WireOutcome::from_outcome(&o),
                trigger: i as u32,
            });
        }
        if (i + 1) % CUT_EVERY == 0 && i + 1 < samples.len() {
            let mut closed = firmware.clone();
            closed.finish();
            cut_tails.push(
                std::iter::from_fn(|| closed.pop_outcome())
                    .map(|o| WireOutcome::from_outcome(&o))
                    .collect(),
            );
        }
    }
    firmware.finish();
    while let Some(o) = firmware.pop_outcome() {
        beats.push(RefBeat {
            outcome: WireOutcome::from_outcome(&o),
            trigger: samples.len() as u32,
        });
    }
    Some((beats, cut_tails))
}

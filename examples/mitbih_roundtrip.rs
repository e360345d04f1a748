//! MIT-BIH tooling demo: encode a synthetic record into the PhysioBank
//! format-212 + annotation byte formats, decode it back, and run the peak
//! detector on the decoded signal.
//!
//! When the real MIT-BIH Arrhythmia Database is available on disk, the same
//! `read_record` / `record_from_bytes` entry points load it directly; this
//! example exercises the identical code path without requiring the download.
//!
//! ```text
//! cargo run --release --example mitbih_roundtrip
//! ```

use heartbeat_rp::hbc_dsp::{MorphologicalFilter, PeakDetector, StreamingPeakDetector};
use heartbeat_rp::hbc_ecg::mitbih::{
    encode_annotations, encode_format_212, record_from_bytes, MitAnnotationCode, DEFAULT_ADC_GAIN,
    DEFAULT_ADC_ZERO,
};
use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_ecg::BeatClass;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Generate a two-lead recording and express it in ADC units.
    let mut generator = SyntheticEcg::with_seed(7);
    let rhythm = generator.rhythm(40, 0.1, 0.1);
    let record = generator.record(207, &rhythm, 2)?;
    let to_adc = |mv: f64| ((mv * DEFAULT_ADC_GAIN) as i32 + DEFAULT_ADC_ZERO).clamp(-2048, 2047);
    let ch0: Vec<i32> = record.lead(Lead(0))?.iter().map(|&s| to_adc(s)).collect();
    let ch1: Vec<i32> = record.lead(Lead(1))?.iter().map(|&s| to_adc(s)).collect();

    // Encode signal and annotations into the PhysioBank byte formats.
    let dat = encode_format_212(&ch0, &ch1);
    let atr: Vec<(usize, MitAnnotationCode)> = record
        .annotations
        .iter()
        .map(|a| {
            let code = match a.class {
                BeatClass::Normal => MitAnnotationCode::Normal,
                BeatClass::PrematureVentricular => MitAnnotationCode::Pvc,
                BeatClass::LeftBundleBranchBlock => MitAnnotationCode::Lbbb,
                BeatClass::Unknown => MitAnnotationCode::Other(13),
            };
            (a.sample, code)
        })
        .collect();
    let atr_bytes = encode_annotations(&atr);
    println!(
        "encoded record 207: {} signal bytes (format 212), {} annotation bytes",
        dat.len(),
        atr_bytes.len()
    );

    // Decode it back exactly as a real .dat/.atr pair would be read.
    let decoded = record_from_bytes(207, &dat, &atr_bytes, DEFAULT_ADC_GAIN, DEFAULT_ADC_ZERO)?;
    println!(
        "decoded {} samples x {} leads, {} beat annotations",
        decoded.len(),
        decoded.num_leads(),
        decoded.annotations.len()
    );

    // Run the embedded conditioning chain on the decoded signal.
    let filtered =
        MorphologicalFilter::for_sampling_rate(decoded.fs).apply(decoded.lead(Lead(0))?)?;
    let detector = PeakDetector::new(decoded.fs);
    let mut online = StreamingPeakDetector::new(&detector, detector.calibrate(&filtered)?);
    online.push_chunk(&filtered);
    online.finish();
    let peaks = std::iter::from_fn(|| online.pop_peak()).count();
    println!(
        "peak detector found {} beats ({} annotated)",
        peaks,
        decoded.annotations.len()
    );
    Ok(())
}

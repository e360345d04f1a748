//! Fixed-point quantisation: ADC front-end model and conversion of trained
//! classifier parameters into integer coefficient units.
//!
//! The embedded execution path never sees a floating-point number. Beat
//! samples arrive as signed ADC codes, the projection produces 32-bit integer
//! coefficients, and the membership functions must therefore be expressed in
//! the same integer coefficient units. [`Quantizer`] performs that conversion
//! from a trained floating-point [`NeuroFuzzyClassifier`].

use hbc_dsp::SampleScale;
use hbc_ecg::beat::Beat;
use hbc_nfc::NeuroFuzzyClassifier;

use crate::int_classifier::{IntegerNfc, MembershipKind};
use crate::linear_mf::IntMembership;
use crate::{EmbeddedError, Result};

/// Model of the acquisition ADC: full-scale range and bit width.
///
/// The IcyHeart SoC integrates a multi-channel ADC; the MIT-BIH recordings
/// are 11-bit over ±5 mV, and the synthetic generator produces millivolt
/// signals, so the default maps ±5 mV onto a signed 12-bit code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcModel {
    /// Full-scale amplitude in millivolts (the code saturates beyond ±this).
    pub full_scale_mv: f64,
    /// Resolution in bits (including the sign).
    pub bits: u32,
}

impl AdcModel {
    /// 12-bit, ±5 mV: the default front-end model.
    pub fn default_frontend() -> Self {
        AdcModel {
            full_scale_mv: 5.0,
            bits: 12,
        }
    }

    /// Number of ADC codes per millivolt.
    pub fn codes_per_mv(&self) -> f64 {
        (1i64 << (self.bits - 1)) as f64 / self.full_scale_mv
    }

    /// Quantises a beat window to ADC codes.
    pub fn quantize_beat(&self, beat: &Beat) -> Vec<i32> {
        beat.quantize(self.full_scale_mv, self.bits)
    }

    /// Quantises a raw sample vector (millivolts) to ADC codes.
    pub fn quantize_samples(&self, samples: &[f64]) -> Vec<i32> {
        let mut out = Vec::with_capacity(samples.len());
        self.quantize_samples_into(samples, &mut out);
        out
    }

    /// Quantises one millivolt sample to its ADC code — **the** transfer
    /// function of this front-end (round-to-nearest, saturating at the
    /// rails). Every quantisation path, including the wire protocol of
    /// `hbc-net`, routes through here so the firmware and the network can
    /// never disagree bit-wise.
    #[inline]
    pub fn quantize_sample(&self, mv: f64) -> i32 {
        let half = (1i64 << (self.bits - 1)) as f64;
        (mv / self.full_scale_mv * half)
            .round()
            .clamp(-half, half - 1.0) as i32
    }

    /// Millivolt value of one ADC code — the exact inverse step of
    /// [`Self::quantize_sample`] in `f64` (codes are small integers, the
    /// scale a power-of-two quotient), so quantise → dequantise → quantise
    /// is the identity on codes.
    #[inline]
    pub fn dequantize_sample(&self, code: i32) -> f64 {
        let half = (1i64 << (self.bits - 1)) as f64;
        f64::from(code) * self.full_scale_mv / half
    }

    /// Allocation-free [`Self::quantize_samples`]: clears `out` and refills it
    /// with one code per sample, reusing the buffer's capacity (the per-beat
    /// hot paths call this with a scratch vector).
    pub fn quantize_samples_into(&self, samples: &[f64], out: &mut Vec<i32>) {
        out.clear();
        out.extend(samples.iter().map(|&s| self.quantize_sample(s)));
    }
}

/// Wire and log ADC codes read as millivolts by the streaming baseline
/// filter: [`AdcModel::dequantize_sample`], which is exact and strictly
/// increasing, so a filter fed codes emits exactly what it emits when fed
/// the dequantized signal.
impl SampleScale for AdcModel {
    type Sample = i16;

    #[inline]
    fn to_mv(&self, code: i16) -> f64 {
        self.dequantize_sample(i32::from(code))
    }
}

impl Default for AdcModel {
    fn default() -> Self {
        AdcModel::default_frontend()
    }
}

/// Converts a trained floating-point classifier into the integer-only form
/// executed on the WBSN.
///
/// The conversion scales membership centres and spreads by the ADC gain
/// (codes per millivolt), because the integer projection of ADC codes is, up
/// to that gain, the same linear functional the float classifier was trained
/// on (the Achlioptas matrix has exactly the same ±1/0 entries in both
/// paths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    /// ADC front-end model used on the WBSN.
    pub adc: AdcModel,
    /// Membership-function family to instantiate (linearised or triangular).
    pub kind: MembershipKind,
}

impl Quantizer {
    /// Creates a quantizer with the default ADC and the 4-segment linearised
    /// membership functions of the paper.
    pub fn new() -> Self {
        Quantizer {
            adc: AdcModel::default_frontend(),
            kind: MembershipKind::Linearized,
        }
    }

    /// Selects the membership family (builder style).
    pub fn with_kind(mut self, kind: MembershipKind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects the ADC model (builder style).
    pub fn with_adc(mut self, adc: AdcModel) -> Self {
        self.adc = adc;
        self
    }

    /// Converts a trained float classifier into the integer classifier.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddedError::Range`] when a scaled centre does not fit in
    /// an `i32` (which would indicate the float classifier was trained on
    /// wildly out-of-range data).
    pub fn quantize_classifier(&self, classifier: &NeuroFuzzyClassifier) -> Result<IntegerNfc> {
        let gain = self.adc.codes_per_mv();
        let mut rows = Vec::with_capacity(classifier.num_coefficients());
        for mfs in classifier.memberships() {
            let mut row = [IntMembership::default(); hbc_ecg::beat::NUM_CLASSES];
            for (l, mf) in mfs.iter().enumerate() {
                let center = mf.center * gain;
                let half_width = mf.linearization_half_width() * gain;
                if !center.is_finite() || center.abs() > i32::MAX as f64 / 4.0 {
                    return Err(EmbeddedError::Range(format!(
                        "membership centre {center} does not fit the integer domain"
                    )));
                }
                let s = half_width.round().max(1.0) as i32;
                row[l] = IntMembership::new(self.kind, center.round() as i32, s);
            }
            rows.push(row);
        }
        IntegerNfc::new(rows)
    }
}

impl Default for Quantizer {
    fn default() -> Self {
        Quantizer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_ecg::BeatClass;
    use hbc_nfc::GaussianMf;

    #[test]
    fn adc_gain_and_quantization() {
        let adc = AdcModel::default_frontend();
        assert!((adc.codes_per_mv() - 2048.0 / 5.0).abs() < 1e-9);
        let beat = Beat::new(vec![0.0, 1.0, -1.0, 10.0, -10.0], BeatClass::Normal);
        let q = adc.quantize_beat(&beat);
        assert_eq!(q[0], 0);
        assert_eq!(q[1], 410); // 1 mV * 409.6 rounded
        assert_eq!(q[2], -410);
        assert_eq!(q[3], 2047); // saturated
        assert_eq!(q[4], -2048); // saturated
        assert_eq!(adc.quantize_samples(&beat.samples), q);
    }

    #[test]
    fn quantizer_scales_centers_by_the_adc_gain() {
        let mfs = vec![[
            GaussianMf::new(1.0, 0.5),
            GaussianMf::new(-2.0, 1.0),
            GaussianMf::new(0.0, 2.0),
        ]];
        let classifier = NeuroFuzzyClassifier::new(mfs).expect("valid");
        let q = Quantizer::new()
            .quantize_classifier(&classifier)
            .expect("fits");
        assert_eq!(q.num_coefficients(), 1);
        let gain = AdcModel::default_frontend().codes_per_mv();
        let m = q.membership(0);
        assert_eq!(m[0].center(), (1.0 * gain).round() as i32);
        assert_eq!(m[1].center(), (-2.0 * gain).round() as i32);
        // Half width = 2.35 sigma scaled by the gain.
        assert_eq!(m[0].half_width(), (2.35 * 0.5 * gain).round() as i32);
    }

    #[test]
    fn out_of_range_centers_are_rejected() {
        let mfs = vec![[
            GaussianMf::new(1e12, 0.5),
            GaussianMf::new(0.0, 1.0),
            GaussianMf::new(0.0, 1.0),
        ]];
        let classifier = NeuroFuzzyClassifier::new(mfs).expect("valid");
        assert!(matches!(
            Quantizer::new().quantize_classifier(&classifier),
            Err(EmbeddedError::Range(_))
        ));
    }

    #[test]
    fn builder_style_configuration() {
        let q = Quantizer::new()
            .with_kind(MembershipKind::Triangular)
            .with_adc(AdcModel {
                full_scale_mv: 10.0,
                bits: 10,
            });
        assert_eq!(q.kind, MembershipKind::Triangular);
        assert!((q.adc.codes_per_mv() - 51.2).abs() < 1e-9);
    }
}

//! Firmware table generation.
//!
//! The deployment step the paper only hints at ("the optimized projection and
//! the trained classifier [are transformed] according to the embedded
//! platform capabilities") ends, in practice, with the trained artefacts
//! being burned into the node's firmware image as constant tables. This
//! module emits those tables as a self-contained C header so the classifier
//! produced by the Rust training pipeline can be dropped into an embedded
//! C project targeting the IcyHeart-class microcontroller:
//!
//! * the 2-bit packed projection matrix,
//! * the integer membership-function parameter table (centre, half-width) in
//!   coefficient units,
//! * the defuzzification coefficient in Q16,
//! * the window geometry and downsampling factor.
//!
//! Every table and constant is read from one deployed [`WbsnFirmware`]
//! image, whose constructor checks that the projection, the classifier,
//! the window and the downsampling factor agree: a header cannot pair a
//! matrix with a geometry it was not trained for.
//!
//! The emitted header is plain C99, uses only `stdint.h` types and contains
//! no code — decoding the 2-bit entries and evaluating the linear segments is
//! a dozen lines on the firmware side, mirroring
//! [`crate::int_classifier::IntegerNfc`].

use crate::firmware::WbsnFirmware;
use crate::int_classifier::MembershipKind;

/// Configuration of the generated header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Prefix applied to every emitted identifier (upper-cased for macros).
    pub symbol_prefix: String,
    /// Include-guard macro name.
    pub include_guard: String,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            symbol_prefix: "hbc".to_string(),
            include_guard: "HBC_CLASSIFIER_TABLES_H".to_string(),
        }
    }
}

/// Emits a C header containing the classifier tables of `firmware`: its
/// projection, classifier, α, downsampling factor and beat window.
///
/// The header defines, for a prefix `hbc`:
///
/// * `HBC_NUM_COEFFICIENTS`, `HBC_WINDOW_SAMPLES`, `HBC_DOWNSAMPLE`,
///   `HBC_ALPHA_Q16`, `HBC_MF_KIND` (0 = linearised, 1 = triangular);
/// * `hbc_projection_packed[]` — the row-major 2-bit packed matrix;
/// * `hbc_mf_center[][3]` and `hbc_mf_half_width[][3]` — membership
///   parameters per (coefficient, class), classes ordered N, V, L.
pub fn emit_c_header(firmware: &WbsnFirmware, options: &CodegenOptions) -> String {
    let projection = &firmware.projection;
    let classifier = &firmware.classifier;
    let prefix = options.symbol_prefix.as_str();
    let upper = prefix.to_uppercase();
    let mut out = String::with_capacity(4096);

    out.push_str(&format!(
        "/* Auto-generated classifier tables — do not edit.\n\
         * projection: {} coefficients x {} samples (2-bit packed, {} bytes)\n\
         * membership functions: {}\n\
         */\n",
        projection.rows(),
        projection.cols(),
        projection.size_bytes(),
        classifier.kind(),
    ));
    out.push_str(&format!(
        "#ifndef {guard}\n#define {guard}\n\n#include <stdint.h>\n\n",
        guard = options.include_guard
    ));

    // Scalar configuration.
    out.push_str(&format!(
        "#define {upper}_NUM_COEFFICIENTS {}\n",
        projection.rows()
    ));
    out.push_str(&format!(
        "#define {upper}_PROJECTED_SAMPLES {}\n",
        projection.cols()
    ));
    out.push_str(&format!(
        "#define {upper}_WINDOW_SAMPLES {}\n",
        firmware.window.len()
    ));
    out.push_str(&format!(
        "#define {upper}_DOWNSAMPLE {}\n",
        firmware.downsample
    ));
    out.push_str(&format!(
        "#define {upper}_ALPHA_Q16 {}u\n",
        firmware.alpha.0
    ));
    let kind_code = match classifier.kind() {
        MembershipKind::Linearized => 0,
        MembershipKind::Triangular => 1,
    };
    out.push_str(&format!("#define {upper}_MF_KIND {kind_code}\n\n"));

    // Packed projection matrix.
    out.push_str(&format!(
        "static const uint8_t {prefix}_projection_packed[{}] = {{\n",
        projection.size_bytes()
    ));
    for chunk in projection.as_bytes().chunks(16) {
        out.push_str("    ");
        for byte in chunk {
            out.push_str(&format!("0x{byte:02x}, "));
        }
        out.push('\n');
    }
    out.push_str("};\n\n");

    // Membership parameter tables.
    let k = classifier.num_coefficients();
    out.push_str(&format!(
        "static const int32_t {prefix}_mf_center[{k}][3] = {{\n"
    ));
    for c in 0..k {
        let row = classifier.membership(c);
        out.push_str(&format!(
            "    {{ {}, {}, {} }},\n",
            row[0].center(),
            row[1].center(),
            row[2].center()
        ));
    }
    out.push_str("};\n\n");

    out.push_str(&format!(
        "static const int32_t {prefix}_mf_half_width[{k}][3] = {{\n"
    ));
    for c in 0..k {
        let row = classifier.membership(c);
        out.push_str(&format!(
            "    {{ {}, {}, {} }},\n",
            row[0].half_width(),
            row[1].half_width(),
            row[2].half_width()
        ));
    }
    out.push_str("};\n\n");

    out.push_str(&format!("#endif /* {} */\n", options.include_guard));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int_classifier::{AlphaQ16, IntegerNfc};
    use crate::linear_mf::IntMembership;
    use hbc_ecg::beat::BeatWindow;
    use hbc_rp::{AchlioptasMatrix, PackedProjection};

    /// An 8 × 50 image: the paper's 200-sample window downsampled 4×, or
    /// the given geometry when it also yields 50 samples.
    fn image(downsample: usize, window: BeatWindow) -> WbsnFirmware {
        let projection = PackedProjection::from_matrix(&AchlioptasMatrix::generate(8, 50, 3));
        let classifier = IntegerNfc::new(
            (0..8)
                .map(|i| {
                    [
                        IntMembership::new(MembershipKind::Linearized, i, 10 + i),
                        IntMembership::new(MembershipKind::Linearized, 100 + i, 20),
                        IntMembership::new(MembershipKind::Linearized, -100 - i, 30),
                    ]
                })
                .collect(),
        )
        .expect("non-empty");
        let alpha = AlphaQ16::from_f64(0.125).expect("valid");
        WbsnFirmware::new(projection, classifier, alpha, downsample, window).expect("consistent")
    }

    fn artefacts() -> WbsnFirmware {
        image(4, BeatWindow::PAPER)
    }

    #[test]
    fn header_contains_guards_constants_and_tables() {
        let firmware = artefacts();
        let header = emit_c_header(&firmware, &CodegenOptions::default());
        assert!(header.starts_with("/* Auto-generated"));
        assert!(header.contains("#ifndef HBC_CLASSIFIER_TABLES_H"));
        assert!(header.contains("#define HBC_NUM_COEFFICIENTS 8"));
        assert!(header.contains("#define HBC_PROJECTED_SAMPLES 50"));
        assert!(header.contains("#define HBC_WINDOW_SAMPLES 200"));
        assert!(header.contains("#define HBC_DOWNSAMPLE 4"));
        assert!(header.contains("#define HBC_ALPHA_Q16 8192u"));
        assert!(header.contains("#define HBC_MF_KIND 0"));
        assert!(header.contains("static const uint8_t hbc_projection_packed[100]"));
        assert!(header.contains("static const int32_t hbc_mf_center[8][3]"));
        assert!(header.contains("static const int32_t hbc_mf_half_width[8][3]"));
        assert!(header
            .trim_end()
            .ends_with("#endif /* HBC_CLASSIFIER_TABLES_H */"));
    }

    #[test]
    fn every_packed_byte_is_emitted() {
        let firmware = artefacts();
        let header = emit_c_header(&firmware, &CodegenOptions::default());
        let hex_count = header.matches("0x").count();
        assert_eq!(hex_count, firmware.projection.size_bytes());
        // Spot-check the first byte value.
        let first = format!("0x{:02x}", firmware.projection.as_bytes()[0]);
        assert!(header.contains(&first));
    }

    #[test]
    fn membership_rows_match_the_classifier() {
        let firmware = artefacts();
        let header = emit_c_header(&firmware, &CodegenOptions::default());
        // One centre row per coefficient with the exact values.
        for c in 0..firmware.classifier.num_coefficients() {
            let row = firmware.classifier.membership(c);
            let expected = format!(
                "{{ {}, {}, {} }},",
                row[0].center(),
                row[1].center(),
                row[2].center()
            );
            assert!(
                header.contains(&expected),
                "missing centre row {c}: {expected}"
            );
        }
    }

    #[test]
    fn custom_prefix_and_guard_are_respected() {
        let firmware = image(2, BeatWindow::new(50, 50));
        let options = CodegenOptions {
            symbol_prefix: "ecg_node".to_string(),
            include_guard: "ECG_NODE_TABLES_H".to_string(),
        };
        let header = emit_c_header(&firmware, &options);
        assert!(header.contains("#ifndef ECG_NODE_TABLES_H"));
        assert!(header.contains("ECG_NODE_NUM_COEFFICIENTS"));
        assert!(header.contains("static const uint8_t ecg_node_projection_packed"));
        assert!(header.contains("#define ECG_NODE_WINDOW_SAMPLES 100"));
        assert!(header.contains("#define ECG_NODE_DOWNSAMPLE 2"));
    }

    #[test]
    fn generation_is_deterministic() {
        let firmware = artefacts();
        let a = emit_c_header(&firmware, &CodegenOptions::default());
        let b = emit_c_header(&firmware, &CodegenOptions::default());
        assert_eq!(a, b);
    }
}

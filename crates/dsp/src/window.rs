//! Beat segmentation: from a continuous record and detected peaks to the
//! fixed-length windows the classifier consumes.
//!
//! This is the glue between the peak detector and the projection stage: the
//! paper defines each heartbeat as 100 samples before and 100 samples after
//! its R peak at 360 Hz.

use hbc_ecg::beat::{Beat, BeatClass, BeatWindow};
use hbc_ecg::record::{Annotation, EcgRecord, Lead};

use crate::{DspError, Result};

/// Extracts beat windows around the given peak positions. Peaks whose window
/// would extend outside the signal are silently skipped (matching the
/// behaviour of an embedded ring-buffer implementation, which simply cannot
/// serve them).
///
/// Each returned beat is paired with the index of the peak (in `peaks`) it
/// was cut around. Because border peaks are skipped, beat index and peak
/// index diverge; consumers that look up per-peak data (such as the
/// annotation matching of [`match_peaks`]) must use the returned peak index,
/// not the position of the beat in the output vector.
///
/// This whole-signal cut is the **oracle** of the firmware's
/// [`StreamingBeatWindower`](crate::streaming::StreamingBeatWindower): no
/// production path runs it, and the parity suites rebuild
/// `process_record` from it.
pub fn windows_at_peaks(
    signal: &[f64],
    peaks: &[usize],
    window: BeatWindow,
    record_id: u32,
) -> Vec<(usize, Beat)> {
    peaks
        .iter()
        .enumerate()
        .filter_map(|(pi, &p)| {
            window.extract(signal, p).map(|samples| {
                (
                    pi,
                    Beat {
                        samples,
                        class: BeatClass::Unknown,
                        peak_index: window.pre,
                        record_id,
                        record_position: p,
                    },
                )
            })
        })
        .collect()
}

/// Associates detected peaks with ground-truth annotations so that detected
/// beats can be labelled for evaluation.
///
/// Each detected peak is matched to the closest annotation within
/// `tolerance` samples; unmatched peaks keep the [`BeatClass::Unknown`]
/// label and unmatched annotations are counted as missed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeakMatching {
    /// For each detected peak, the index of the matched annotation (if any).
    pub matched_annotation: Vec<Option<usize>>,
    /// Number of annotations with no matching detection.
    pub missed: usize,
    /// Number of detections with no matching annotation (false positives).
    pub spurious: usize,
}

impl PeakMatching {
    /// Detection sensitivity: matched annotations / total annotations.
    pub fn sensitivity(&self, total_annotations: usize) -> f64 {
        if total_annotations == 0 {
            return 1.0;
        }
        (total_annotations - self.missed) as f64 / total_annotations as f64
    }
}

/// Matches detected peaks against record annotations.
///
/// Both inputs are sorted by sample position, so the assignment is computed
/// with a linear two-pointer sweep that maximises the number of matched
/// pairs. (The previous greedy per-peak nearest-annotation search was
/// order-dependent: an early peak could steal the annotation a later peak
/// was strictly closer to, manufacturing a missed + spurious pair where a
/// consistent assignment exists.) When the current peak sits within
/// tolerance of two consecutive annotations, the sweep prefers the closer
/// one exactly when doing so cannot cost a match — i.e. when no later peak
/// can reach the annotation being passed over.
pub fn match_peaks(peaks: &[usize], annotations: &[Annotation], tolerance: usize) -> PeakMatching {
    debug_assert!(peaks.windows(2).all(|w| w[0] <= w[1]), "peaks sorted");
    debug_assert!(
        annotations.windows(2).all(|w| w[0].sample <= w[1].sample),
        "annotations sorted"
    );
    let mut matched_annotation = vec![None; peaks.len()];
    let mut matched_count = 0usize;
    let (mut pi, mut ai) = (0usize, 0usize);
    while pi < peaks.len() && ai < annotations.len() {
        let p = peaks[pi];
        let a = annotations[ai].sample;
        if p + tolerance < a {
            // Peak lies left of every remaining annotation's reach: spurious.
            pi += 1;
            continue;
        }
        if a + tolerance < p {
            // Annotation lies left of every remaining peak's reach: missed.
            ai += 1;
            continue;
        }
        // Compatible pair. Prefer the next annotation when it is strictly
        // closer to this peak *and* the current annotation could not be
        // matched by any later peak anyway (peaks are sorted, so if the next
        // peak cannot reach the next annotation it cannot reach the current
        // one either) — skipping is then free, never costing a match.
        if let Some(next) = annotations.get(ai + 1) {
            let d = p.abs_diff(a);
            let d_next = p.abs_diff(next.sample);
            let next_peak_reaches = peaks
                .get(pi + 1)
                .is_some_and(|&q| q.abs_diff(next.sample) <= tolerance);
            if d_next < d && !next_peak_reaches {
                ai += 1; // current annotation goes unmatched (missed)
                continue;
            }
        }
        matched_annotation[pi] = Some(ai);
        matched_count += 1;
        pi += 1;
        ai += 1;
    }
    let missed = annotations.len() - matched_count;
    let spurious = peaks.len() - matched_count;
    PeakMatching {
        matched_annotation,
        missed,
        spurious,
    }
}

/// Cuts labelled beats from a record lead using detected peak positions and
/// the record's annotations for ground truth.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when the requested lead does not
/// exist in the record.
pub fn labelled_beats_from_record(
    record: &EcgRecord,
    lead: Lead,
    peaks: &[usize],
    window: BeatWindow,
    tolerance: usize,
) -> Result<Vec<Beat>> {
    let signal = record
        .lead(lead)
        .map_err(|e| DspError::InvalidParameter(e.to_string()))?;
    let matching = match_peaks(peaks, &record.annotations, tolerance);
    let mut beats = Vec::new();
    for (pi, &p) in peaks.iter().enumerate() {
        let Some(samples) = window.extract(signal, p) else {
            continue;
        };
        let class = matching.matched_annotation[pi]
            .map(|ai| record.annotations[ai].class)
            .unwrap_or(BeatClass::Unknown);
        beats.push(Beat {
            samples,
            class,
            peak_index: window.pre,
            record_id: record.id,
            record_position: p,
        });
    }
    Ok(beats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_skip_out_of_range_peaks_but_keep_their_indices() {
        let signal: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let beats = windows_at_peaks(&signal, &[10, 500, 990], BeatWindow::PAPER, 42);
        assert_eq!(beats.len(), 1);
        let (peak_index, beat) = &beats[0];
        // The surviving beat originates from peak #1, not #0: consumers that
        // index per-peak tables must use this index.
        assert_eq!(*peak_index, 1);
        assert_eq!(beat.record_position, 500);
        assert_eq!(beat.samples.len(), 200);
        assert_eq!(beat.record_id, 42, "record identity is threaded through");
    }

    #[test]
    fn matching_pairs_each_peak_with_closest_annotation() {
        let annotations = vec![
            Annotation::new(100, BeatClass::Normal),
            Annotation::new(500, BeatClass::PrematureVentricular),
            Annotation::new(900, BeatClass::Normal),
        ];
        let peaks = vec![103, 480, 910, 1200];
        let m = match_peaks(&peaks, &annotations, 30);
        assert_eq!(m.matched_annotation[0], Some(0));
        assert_eq!(m.matched_annotation[1], Some(1));
        assert_eq!(m.matched_annotation[2], Some(2));
        assert_eq!(m.matched_annotation[3], None);
        assert_eq!(m.missed, 0);
        assert_eq!(m.spurious, 1);
        assert!((m.sensitivity(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matching_reports_missed_annotations() {
        let annotations = vec![
            Annotation::new(100, BeatClass::Normal),
            Annotation::new(500, BeatClass::Normal),
        ];
        let m = match_peaks(&[102], &annotations, 10);
        assert_eq!(m.missed, 1);
        assert_eq!(m.spurious, 0);
        assert!((m.sensitivity(2) - 0.5).abs() < 1e-12);
        assert!((m.sensitivity(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_pointer_matching_does_not_let_an_early_peak_steal_a_later_peaks_annotation() {
        // Greedy nearest-first matching fails here: peak 108 is closest to
        // annotation 110 and would take it, leaving peak 112 unmatched and
        // annotation 100 missed — a manufactured missed + spurious pair.
        // The optimal assignment matches both: 108 → 100 (d = 8), 112 → 110
        // (d = 2).
        let annotations = vec![
            Annotation::new(100, BeatClass::Normal),
            Annotation::new(110, BeatClass::PrematureVentricular),
        ];
        let m = match_peaks(&[108, 112], &annotations, 10);
        assert_eq!(m.matched_annotation, vec![Some(0), Some(1)]);
        assert_eq!(m.missed, 0);
        assert_eq!(m.spurious, 0);
    }

    #[test]
    fn matching_prefers_the_closer_annotation_when_skipping_is_free() {
        // Both annotations are within tolerance of the only peak; 96 is
        // strictly closer and no later peak can rescue 90, so the sweep
        // matches 96 and reports 90 as missed.
        let annotations = vec![
            Annotation::new(90, BeatClass::Normal),
            Annotation::new(96, BeatClass::PrematureVentricular),
        ];
        let m = match_peaks(&[95], &annotations, 10);
        assert_eq!(m.matched_annotation, vec![Some(1)]);
        assert_eq!(m.missed, 1);
        assert_eq!(m.spurious, 0);
    }

    #[test]
    fn matching_does_not_skip_when_a_later_peak_needs_the_next_annotation() {
        // Peak 104 is closer to annotation 105 than to 100, but peak 107
        // can also reach 105; skipping 100 would trade one match for
        // another, so the sweep keeps the order-consistent assignment.
        let annotations = vec![
            Annotation::new(100, BeatClass::Normal),
            Annotation::new(105, BeatClass::Normal),
        ];
        let m = match_peaks(&[104, 107], &annotations, 5);
        assert_eq!(m.matched_annotation, vec![Some(0), Some(1)]);
        assert_eq!(m.missed, 0);
        assert_eq!(m.spurious, 0);
    }

    #[test]
    fn annotations_are_not_double_matched() {
        let annotations = vec![Annotation::new(100, BeatClass::Normal)];
        let m = match_peaks(&[98, 102], &annotations, 10);
        let matched = m.matched_annotation.iter().filter(|x| x.is_some()).count();
        assert_eq!(matched, 1, "one annotation can satisfy only one detection");
        assert_eq!(m.spurious, 1);
    }

    #[test]
    fn labelled_extraction_uses_annotations_for_ground_truth() {
        let mut signal = vec![0.0; 2000];
        signal[600] = 1.0;
        signal[1200] = 1.0;
        let record = EcgRecord::new(
            7,
            360.0,
            vec![signal],
            vec![
                Annotation::new(600, BeatClass::LeftBundleBranchBlock),
                Annotation::new(1200, BeatClass::Normal),
            ],
        )
        .expect("valid record");
        let beats =
            labelled_beats_from_record(&record, Lead(0), &[598, 1203, 1700], BeatWindow::PAPER, 15)
                .expect("lead exists");
        assert_eq!(beats.len(), 3);
        assert_eq!(beats[0].class, BeatClass::LeftBundleBranchBlock);
        assert_eq!(beats[1].class, BeatClass::Normal);
        assert_eq!(beats[2].class, BeatClass::Unknown);
        assert_eq!(beats[0].record_id, 7);
        assert!(labelled_beats_from_record(&record, Lead(5), &[], BeatWindow::PAPER, 15).is_err());
    }
}

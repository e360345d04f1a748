//! Multi-patient streaming service: many concurrent [`StreamingFirmware`]
//! sessions multiplexed over the `hbc-par` runner.
//!
//! A production node fleet terminates one sample stream per patient. The
//! [`StreamHub`] models that service point on the host: each patient gets an
//! independent push-based firmware session (bounded memory, bit-identical to
//! the batch pipeline), large batches of arriving chunks are dispatched over
//! all cores with the same deterministic work-stealing runner the evaluation
//! engine uses, and per-session figures of merit are merged **in session
//! order** through
//! [`EvaluationReport::merge`] — so the fleet-wide report is bit-identical
//! for any thread count, like every other parallel path in this workspace.
//!
//! Ground truth is unknown while streaming; outcomes are labelled after the
//! fact by matching emitted peak positions against reference annotations
//! with the same tolerance the batch firmware reports with.

use std::num::NonZeroUsize;

use hbc_dsp::window::match_peaks;
use hbc_dsp::{
    DspError, Millivolts, MorphologicalFilter, PeakDetector, PeakThresholds, SampleScale,
};
use hbc_ecg::record::Annotation;
use hbc_embedded::firmware::BeatOutcome;
use hbc_embedded::{StageMetrics, StreamingFirmware, WbsnFirmware};
use hbc_nfc::EvaluationReport;
use hbc_obs::{round_micros, Histogram};
use hbc_par::Par;

use crate::{CoreError, Result};

/// Handle of one patient session inside a [`StreamHub`].
///
/// Slots freed by [`StreamHub::close_session`] are reused by later
/// [`StreamHub::add_patient`] calls, so a handle is only meaningful until its
/// session is closed — a stale handle afterwards either errors (slot still
/// free) or aliases the new occupant. Serving layers that need to detect
/// stale handles (e.g. the network gateway) keep their own wire-level ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

impl SessionId {
    /// Position of the session in the hub (also its merge order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Everything a closed session leaves behind: identity, the complete outcome
/// stream and the session counters. Produced by [`StreamHub::close_session`];
/// figures of merit become available once ground truth is supplied to
/// [`SessionReport::labelled`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Patient identifier the session was registered with.
    pub patient_id: u32,
    /// Every beat outcome the session emitted, in temporal order.
    pub outcomes: Vec<BeatOutcome>,
    /// Raw samples the session ingested.
    pub samples_pushed: usize,
    /// Beats forwarded to the delineation stage.
    pub forwarded_beats: usize,
}

impl SessionReport {
    /// Labels the session's beats against reference annotations (two-pointer
    /// position matching within `tolerance` samples, unmatched beats ignored
    /// — the same convention as [`StreamHub::session_report`]) and returns
    /// the figures of merit.
    pub fn labelled(&self, annotations: &[Annotation], tolerance: usize) -> EvaluationReport {
        report_for(&self.outcomes, annotations, tolerance)
    }
}

/// One patient's live session: the streaming firmware plus the outcomes it
/// has emitted so far.
#[derive(Debug)]
struct PatientStream<'fw, S: SampleScale> {
    patient_id: u32,
    stream: StreamingFirmware<'fw, S>,
    outcomes: Vec<BeatOutcome>,
}

impl<S: SampleScale> PatientStream<'_, S> {
    fn drain(&mut self) {
        while let Some(o) = self.stream.pop_outcome() {
            self.outcomes.push(o);
        }
    }
}

/// Staged samples below which one [`StreamHub::ingest`] batch runs on the
/// caller's thread instead of fanning out over the hub's workers.
///
/// A fan-out spawns `workers − 1` scoped threads on every call
/// (`Par::for_each` runs the caller as the remaining worker, so a 2-vCPU
/// host spawns one). With every worker spawned, the gateway benchmark's
/// layer table measured that at 50–90 µs per call on a 2-vCPU host
/// (`par.map_overhead_us` fell from 53–63 to 38–45 µs when the caller
/// became a worker), while the block-at-a-time streaming firmware costs
/// 120–180 ns per sample cache-hot, and its conditioning alone 235–300 ns
/// per sample inside the hub, where each session's state is cold (traced
/// `fleet_realtime` runs). 2 048 samples are therefore ≈0.25–0.6 ms of
/// work, and the fan-out overhead is ~10–35 % of a batch at this size.
/// Realtime reactor sweeps (a few sessions × 36-sample packets, ~60–70
/// samples) fall far below it and run sequentially; calibration bursts
/// and recovery replays (many sessions × thousands of samples) fall far
/// above it and still fan out. Outcomes are identical either way: each
/// worker pushes whole chunks into sessions no other worker touches.
pub const FANOUT_MIN_SAMPLES: usize = 2048;

/// Whether any of the last `window` outcomes of `outcomes` carries an
/// abnormal prediction — the **priority hook** serving layers use to
/// protect ARR-flagged streams when shedding load: a session that recently
/// produced an abnormal beat must keep flowing, a session whose recent
/// stream is all-normal may have telemetry dropped first. `window = 0`
/// always reports `false`. Pass the history [`StreamHub::outcomes`]
/// borrows.
pub fn any_recent_abnormal(outcomes: &[BeatOutcome], window: usize) -> bool {
    outcomes[outcomes.len().saturating_sub(window)..]
        .iter()
        .any(|o| o.predicted.is_abnormal())
}

/// Multiplexes many concurrent per-patient [`StreamingFirmware`] sessions
/// over the deterministic parallel runner.
///
/// Sessions are independent, so a batch of chunks — at most one per session
/// — is ingested with one sweep, in parallel when the batch is large enough
/// ([`FANOUT_MIN_SAMPLES`]); results (emitted beats, reports) depend only on
/// each session's own sample stream, never on scheduling.
///
/// Sessions ingest samples of the [`SampleScale`] `S`: millivolts by
/// default, or ADC codes read through an [`AdcModel`](hbc_embedded::AdcModel)
/// ([`Self::with_scale`]), which every session then buffers and filters as
/// codes, with outcomes equal to those of a millivolt hub fed the
/// dequantized streams.
#[derive(Debug)]
pub struct StreamHub<'fw, S: SampleScale = Millivolts> {
    firmware: &'fw WbsnFirmware,
    fs: f64,
    scale: S,
    par: Par,
    /// Session slots. A closed session leaves a `None` hole whose index is
    /// queued on the free list and handed to the next [`Self::add_patient`].
    sessions: Vec<Option<PatientStream<'fw, S>>>,
    /// Indices of free slots, reused LIFO.
    free: Vec<usize>,
    /// Per-slot index of the feed the current [`Self::ingest`] batch holds
    /// for that session, if any. Reused by every call, so batch validation
    /// allocates nothing once the slot table has stopped growing.
    fed: Vec<Option<usize>>,
    /// Wall-clock microseconds per [`Self::ingest`] batch (the whole sweep,
    /// sequential or fanned out).
    ingest_micros: Histogram,
    /// Stage histograms of sessions that have closed, merged at close time
    /// so their timings survive slot reuse.
    closed_stages: StageMetrics,
}

impl<'fw> StreamHub<'fw> {
    /// Creates a hub serving sessions of `firmware` at sampling rate `fs`,
    /// fed millivolt samples, using one worker per core.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive (propagated from the DSP stages when
    /// the first session is added).
    pub fn new(firmware: &'fw WbsnFirmware, fs: f64) -> Self {
        Self::with_threads(firmware, fs, None)
    }

    /// Creates a hub with an explicit worker-thread policy (`None` = one per
    /// core).
    pub fn with_threads(
        firmware: &'fw WbsnFirmware,
        fs: f64,
        threads: Option<NonZeroUsize>,
    ) -> Self {
        Self::with_scale(firmware, fs, threads, Millivolts)
    }
}

impl<'fw, S: SampleScale> StreamHub<'fw, S> {
    /// Creates a hub whose sessions ingest samples read through `scale`,
    /// with an explicit worker-thread policy (`None` = one per core).
    pub fn with_scale(
        firmware: &'fw WbsnFirmware,
        fs: f64,
        threads: Option<NonZeroUsize>,
        scale: S,
    ) -> Self {
        StreamHub {
            firmware,
            fs,
            scale,
            par: Par::with_threads(threads),
            sessions: Vec::new(),
            free: Vec::new(),
            fed: Vec::new(),
            ingest_micros: Histogram::new(),
            closed_stages: StageMetrics::default(),
        }
    }

    /// Number of session slots (active sessions plus reusable holes left by
    /// closed ones) — the upper bound a caller may have handles for.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Number of sessions currently live (slots not yet closed).
    pub fn active_sessions(&self) -> usize {
        self.sessions.len() - self.free.len()
    }

    /// Derives per-patient detection thresholds from a raw calibration
    /// stretch in millivolts (typically the first seconds of the patient's
    /// signal): the stretch is baseline-filtered and the detector's RMS
    /// calibration runs over it — the same procedure the record path
    /// applies to whole records.
    ///
    /// # Errors
    ///
    /// Returns an error when the stretch is too short for the filter or the
    /// wavelet decomposition, and [`DspError::InvalidParameter`] when it is
    /// flat: a stretch whose filtered first wavelet scale is all zero
    /// calibrates a zero detection threshold, which no session can run on.
    pub fn calibrate_thresholds(&self, raw: &[f64]) -> Result<PeakThresholds> {
        self.calibrate_stretch(Millivolts, raw)
    }

    /// [`Self::calibrate_thresholds`] over a stretch of the hub's own input
    /// samples, filtered as they are (for a code-fed hub, exactly
    /// `calibrate_thresholds` of the dequantized stretch).
    ///
    /// # Errors
    ///
    /// As [`Self::calibrate_thresholds`].
    pub fn calibrate_samples(&self, stretch: &[S::Sample]) -> Result<PeakThresholds> {
        self.calibrate_stretch(self.scale, stretch)
    }

    /// The calibration behind both entry points: the stretch goes through
    /// the streaming baseline filter whole
    /// ([`MorphologicalFilter::apply_scaled`]), then the detector's RMS
    /// calibration runs over the filtered stretch.
    fn calibrate_stretch<T: SampleScale>(
        &self,
        scale: T,
        stretch: &[T::Sample],
    ) -> Result<PeakThresholds> {
        let filtered =
            MorphologicalFilter::for_sampling_rate(self.fs).apply_scaled(scale, stretch)?;
        let thresholds = PeakDetector::new(self.fs).calibrate(&filtered)?;
        if thresholds.first_scale == 0.0 {
            return Err(CoreError::Dsp(DspError::InvalidParameter(
                "calibration stretch is flat: its first-scale detection threshold is zero".into(),
            )));
        }
        Ok(thresholds)
    }

    /// [`Self::calibrate_samples`] over a batch of stretches at once, on the
    /// hub's workers: `stretch` picks each item's stretch, and the results
    /// come back in batch order, each exactly what `calibrate_samples`
    /// returns for its stretch. A stretch costs a few hundred microseconds
    /// of filtering, far above the cost of a fan-out, so any batch of two or
    /// more fans out.
    pub fn calibrate_batch<'s, T: Sync>(
        &self,
        batch: &[T],
        stretch: impl Fn(&T) -> &'s [S::Sample] + Sync,
    ) -> Vec<Result<PeakThresholds>>
    where
        S::Sample: 's,
    {
        self.par
            .map(batch, |item| self.calibrate_samples(stretch(item)))
    }

    /// Registers a new patient session with fixed detection thresholds,
    /// returning its handle. Slots freed by [`Self::close_session`] are
    /// reused (most recently freed first); otherwise a new slot is appended.
    /// Slot order is merge order.
    pub fn add_patient(&mut self, patient_id: u32, thresholds: PeakThresholds) -> SessionId {
        let session = PatientStream {
            patient_id,
            stream: StreamingFirmware::with_scale(self.firmware, self.fs, thresholds, self.scale),
            outcomes: Vec::new(),
        };
        match self.free.pop() {
            Some(index) => {
                self.sessions[index] = Some(session);
                SessionId(index)
            }
            None => {
                self.sessions.push(Some(session));
                SessionId(self.sessions.len() - 1)
            }
        }
    }

    /// Closes one session: its stream is finished (borders drained, all
    /// remaining beats emitted), the complete outcome history is returned as
    /// a [`SessionReport`], and the slot is freed for reuse by the next
    /// [`Self::add_patient`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or already-closed
    /// session.
    pub fn close_session(&mut self, id: SessionId) -> Result<SessionReport> {
        let mut session = self
            .sessions
            .get_mut(id.0)
            .ok_or_else(|| Self::unknown(id))?
            .take()
            .ok_or_else(|| CoreError::Config(format!("session #{} already closed", id.0)))?;
        session.stream.finish();
        session.drain();
        self.closed_stages.merge(session.stream.stage_metrics());
        self.free.push(id.0);
        Ok(SessionReport {
            patient_id: session.patient_id,
            samples_pushed: session.stream.samples_pushed(),
            forwarded_beats: session.stream.forwarded_beats(),
            outcomes: session.outcomes,
        })
    }

    /// The live session behind `id`.
    fn session(&self, id: SessionId) -> Result<&PatientStream<'fw, S>> {
        self.sessions
            .get(id.0)
            .ok_or_else(|| Self::unknown(id))?
            .as_ref()
            .ok_or_else(|| CoreError::Config(format!("session #{} is closed", id.0)))
    }

    fn unknown(id: SessionId) -> CoreError {
        CoreError::Config(format!("unknown session #{}", id.0))
    }

    /// Ingests one batch of chunks — at most one chunk per session — pushing
    /// every chunk through its session, in parallel when the batch is large
    /// enough: batches with fewer than [`FANOUT_MIN_SAMPLES`] samples in
    /// total run on the caller's thread, where a fan-out would cost more
    /// than it saves.
    ///
    /// Within a batch the sessions are independent, so the sweep is
    /// deterministic; feeding the same session twice in one batch would make
    /// its sample order scheduling-dependent and is rejected. The whole
    /// batch is validated before any session is fed, so a rejected batch
    /// feeds nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session or a
    /// duplicated session within the batch.
    pub fn ingest<C: AsRef<[S::Sample]> + Sync>(&mut self, feeds: &[(SessionId, C)]) -> Result<()> {
        self.fed.clear();
        self.fed.resize(self.sessions.len(), None);
        let mut samples = 0;
        for (index, (id, chunk)) in feeds.iter().enumerate() {
            self.session(*id)?;
            if self.fed[id.0].replace(index).is_some() {
                return Err(CoreError::Config(format!(
                    "session #{} fed twice in one batch",
                    id.0
                )));
            }
            samples += chunk.as_ref().len();
        }
        // One worker per fed session at most, as many as the hub's policy
        // allows; the slot walk below would otherwise size the pool by the
        // whole slot table.
        let workers = if samples < FANOUT_MIN_SAMPLES {
            1
        } else {
            self.par.workers_for(feeds.len())
        };
        let started = std::time::Instant::now();
        let par = Par::with_threads(NonZeroUsize::new(workers));
        par.for_each(self.sessions.iter_mut().zip(&self.fed), |slot| {
            if let (Some(session), Some(index)) = slot {
                session.stream.push_chunk(feeds[*index].1.as_ref());
                session.drain();
            }
        });
        self.ingest_micros.record(round_micros(started.elapsed()));
        Ok(())
    }

    /// Wall-clock microseconds per [`Self::ingest`] batch so far.
    pub fn ingest_latency(&self) -> &Histogram {
        &self.ingest_micros
    }

    /// Per-stage latency histograms aggregated across the hub: every closed
    /// session's timings (merged at close) plus the current state of every
    /// live session. Histogram merge is deterministic, so the aggregate is
    /// independent of session scheduling and close order.
    pub fn stage_metrics(&self) -> StageMetrics {
        let mut merged = self.closed_stages.clone();
        for session in self.sessions.iter().flatten() {
            merged.merge(session.stream.stage_metrics());
        }
        merged
    }

    /// Finishes every live session in parallel: borders are drained and all
    /// remaining beats emitted. Idempotent; closed slots are skipped.
    pub fn finish(&mut self) {
        let live = self.sessions.iter_mut().filter_map(Option::as_mut);
        self.par.for_each(live, |session| {
            session.stream.finish();
            session.drain();
        });
    }

    /// Migrates the hub — and every live session — to a retrained firmware
    /// image (model hot-swap), without dropping or duplicating a single
    /// outcome.
    ///
    /// The exclusive borrow *is* the swap barrier: `ingest` and `finish`
    /// take `&mut self` too, so no parallel sweep can be in flight while the
    /// swap runs, and no reader can observe a half-swapped hub. Beats are
    /// classified atomically inside the streaming firmware's `push`, so
    /// the swap always lands on a beat boundary — every beat is scored
    /// entirely by the old image or entirely by the new one, never a
    /// mixture. Emitted outcome histories are untouched; sessions keep
    /// their per-patient thresholds and filter state, so no re-calibration
    /// is needed. Sessions added after the swap use the new image.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Embedded`] when the new image's beat window
    /// differs from the deployed one (the streaming windowers are sized for
    /// it); the hub is left unchanged.
    pub fn swap_pipeline(&mut self, firmware: &'fw WbsnFirmware) -> Result<()> {
        if firmware.window != self.firmware.window {
            return Err(CoreError::Embedded(hbc_embedded::EmbeddedError::Dimension(
                format!(
                    "cannot hot-swap to a firmware with window {:?} (deployed: {:?})",
                    firmware.window, self.firmware.window
                ),
            )));
        }
        for session in self.sessions.iter_mut().flatten() {
            session
                .stream
                .swap_firmware(firmware)
                .map_err(CoreError::Embedded)?;
        }
        self.firmware = firmware;
        Ok(())
    }

    /// The firmware image the hub currently deploys to new sessions.
    pub fn firmware(&self) -> &'fw WbsnFirmware {
        self.firmware
    }

    /// The patient identifier of a session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn patient_id(&self, id: SessionId) -> Result<u32> {
        Ok(self.session(id)?.patient_id)
    }

    /// The outcomes a session has emitted so far, in temporal order —
    /// borrowed, so serving layers that read every sweep copy only the tail
    /// they have not forwarded yet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn outcomes(&self, id: SessionId) -> Result<&[BeatOutcome]> {
        Ok(&self.session(id)?.outcomes)
    }

    /// Total beats emitted across all live sessions so far.
    pub fn total_beats(&self) -> usize {
        self.sessions
            .iter()
            .flatten()
            .map(|session| session.outcomes.len())
            .sum()
    }

    /// Labels one session's emitted beats against reference annotations
    /// (two-pointer position matching within `tolerance` samples; unmatched
    /// beats are ignored, as in the batch firmware report) and returns its
    /// figures of merit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn session_report(
        &self,
        id: SessionId,
        annotations: &[Annotation],
        tolerance: usize,
    ) -> Result<EvaluationReport> {
        Ok(report_for(self.outcomes(id)?, annotations, tolerance))
    }

    /// Fleet-wide report: every listed session is labelled in parallel and
    /// the per-session reports are merged **in the order given** via
    /// [`EvaluationReport::merge`] — bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unknown or closed session.
    pub fn merged_report(
        &self,
        truths: &[(SessionId, &[Annotation])],
        tolerance: usize,
    ) -> Result<EvaluationReport> {
        let reports = self.par.try_map(truths, |&(id, annotations)| {
            self.session_report(id, annotations, tolerance)
        })?;
        let mut merged = EvaluationReport::new();
        for report in &reports {
            merged.merge(report);
        }
        Ok(merged)
    }
}

/// Labels outcomes by matching their peak positions against annotations and
/// accumulates the confusion counts.
fn report_for(
    outcomes: &[BeatOutcome],
    annotations: &[Annotation],
    tolerance: usize,
) -> EvaluationReport {
    let peaks: Vec<usize> = outcomes.iter().map(|o| o.peak).collect();
    let matching = match_peaks(&peaks, annotations, tolerance);
    let mut report = EvaluationReport::new();
    for (outcome, matched) in outcomes.iter().zip(&matching.matched_annotation) {
        if let Some(ai) = matched {
            report.record(annotations[*ai].class, outcome.predicted);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::pipeline::TrainedSystem;
    use hbc_ecg::record::{EcgRecord, Lead};
    use hbc_ecg::synthetic::SyntheticEcg;
    use std::sync::OnceLock;

    fn system() -> &'static TrainedSystem {
        static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
        SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
    }

    fn firmware() -> WbsnFirmware {
        system().wbsn.clone()
    }

    fn patient_record(seed: u64, beats: usize) -> EcgRecord {
        let mut gen = SyntheticEcg::with_seed(seed);
        let rhythm = gen.rhythm(beats, 0.1, 0.1);
        gen.record(seed as u32, &rhythm, 1).expect("record")
    }

    #[test]
    fn flat_calibration_stretches_are_rejected() {
        // A flat stretch filters to zero, so its wavelet RMS — and with it
        // every detection threshold — is zero: degenerate, like a stretch
        // too short for the filter.
        let fw = firmware();
        let adc = hbc_embedded::AdcModel::default_frontend();
        let hub = StreamHub::with_scale(&fw, 360.0, None, adc);
        for level in [0i16, 100] {
            assert!(
                matches!(
                    hub.calibrate_samples(&[level; 1800]),
                    Err(CoreError::Dsp(DspError::InvalidParameter(_)))
                ),
                "flat stretch of code {level}"
            );
            let mv = adc.dequantize_sample(i32::from(level));
            assert!(
                matches!(
                    hub.calibrate_thresholds(&[mv; 1800]),
                    Err(CoreError::Dsp(DspError::InvalidParameter(_)))
                ),
                "flat stretch of {mv} mV"
            );
        }
        assert!(matches!(
            hub.calibrate_samples(&[0; 4]),
            Err(CoreError::Dsp(DspError::SignalTooShort { .. }))
        ));
        // A real stretch still calibrates, to a positive threshold.
        let mut codes: Vec<i16> = patient_record(7, 10).leads[0]
            .iter()
            .map(|&v| adc.quantize_sample(v) as i16)
            .collect();
        codes.truncate(1800);
        let thresholds = hub.calibrate_samples(&codes).expect("calibrates");
        assert!(thresholds.first_scale > 0.0);
    }

    #[test]
    fn hub_matches_per_patient_batch_processing_for_any_thread_count() {
        let fw = firmware();
        let records: Vec<EcgRecord> = (0..3).map(|i| patient_record(100 + i, 40)).collect();
        let tolerance = (0.06 * records[0].fs) as usize;

        // Reference: the batch firmware on each record, labelled the same
        // way the hub labels streams.
        let mut reference = EvaluationReport::new();
        for record in &records {
            let report = fw.process_record(record).expect("batch");
            let outcomes: Vec<BeatOutcome> = report.beats.clone();
            reference.merge(&report_for(&outcomes, &record.annotations, tolerance));
        }

        for threads in [NonZeroUsize::new(1), NonZeroUsize::new(4)] {
            let mut hub = StreamHub::with_threads(&fw, records[0].fs, threads);
            let ids: Vec<SessionId> = records
                .iter()
                .map(|r| {
                    let thresholds = hub
                        .calibrate_thresholds(r.lead(Lead(0)).expect("lead"))
                        .expect("calibrate");
                    hub.add_patient(r.id, thresholds)
                })
                .collect();
            // Stream every patient concurrently, one-second chunks.
            let chunk = records[0].fs as usize;
            let longest = records.iter().map(EcgRecord::len).max().expect("records");
            let mut offset = 0;
            while offset < longest {
                let feeds: Vec<(SessionId, &[f64])> = records
                    .iter()
                    .zip(&ids)
                    .filter_map(|(r, &id)| {
                        let lead = r.lead(Lead(0)).expect("lead");
                        (offset < lead.len())
                            .then(|| (id, &lead[offset..(offset + chunk).min(lead.len())]))
                    })
                    .collect();
                hub.ingest(&feeds).expect("ingest");
                offset += chunk;
            }
            hub.finish();
            hub.finish(); // idempotent

            let truths: Vec<(SessionId, &[Annotation])> = records
                .iter()
                .zip(&ids)
                .map(|(r, &id)| (id, r.annotations.as_slice()))
                .collect();
            let merged = hub.merged_report(&truths, tolerance).expect("report");
            assert_eq!(merged, reference, "threads = {threads:?}");

            // Per-session reports merge (in session order) to the same
            // fleet-wide report.
            let mut manual = EvaluationReport::new();
            for &(id, anns) in &truths {
                manual.merge(&hub.session_report(id, anns, tolerance).expect("session"));
            }
            assert_eq!(manual, merged);
            assert_eq!(hub.num_sessions(), records.len());
            assert_eq!(hub.total_beats(), merged.total());
            assert_eq!(hub.patient_id(ids[0]).expect("known"), records[0].id);
            assert!(!hub.outcomes(ids[0]).expect("known").is_empty());
        }
    }

    #[test]
    fn outcomes_are_bit_identical_on_both_sides_of_the_fanout_threshold() {
        let fw = firmware();
        let records: Vec<EcgRecord> = (0..3).map(|i| patient_record(500 + i, 40)).collect();
        // Reference: per-record batch firmware (online beats carry no truth).
        let reference: Vec<Vec<BeatOutcome>> = records
            .iter()
            .map(|r| {
                let mut beats = fw.process_record(r).expect("batch").beats;
                for beat in &mut beats {
                    beat.truth = None;
                }
                beats
            })
            .collect();
        // 36-sample chunks keep every batch below the threshold (sequential
        // path); 4 096-sample chunks put full batches above it (fan-out).
        let sessions = records.len();
        assert!(sessions * 36 < FANOUT_MIN_SAMPLES);
        assert!(sessions * 4096 >= FANOUT_MIN_SAMPLES);
        for chunk in [36, 4096] {
            for threads in [NonZeroUsize::new(4), NonZeroUsize::new(1)] {
                let mut hub = StreamHub::with_threads(&fw, records[0].fs, threads);
                let leads: Vec<&[f64]> = records
                    .iter()
                    .map(|r| r.lead(Lead(0)).expect("lead"))
                    .collect();
                let ids: Vec<SessionId> = records
                    .iter()
                    .zip(&leads)
                    .map(|(r, lead)| {
                        let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
                        hub.add_patient(r.id, thresholds)
                    })
                    .collect();
                let longest = leads.iter().map(|l| l.len()).max().expect("records");
                for offset in (0..longest).step_by(chunk) {
                    let feeds: Vec<(SessionId, &[f64])> = ids
                        .iter()
                        .zip(&leads)
                        .filter(|(_, lead)| offset < lead.len())
                        .map(|(&id, lead)| (id, &lead[offset..(offset + chunk).min(lead.len())]))
                        .collect();
                    hub.ingest(&feeds).expect("ingest");
                }
                for (i, &id) in ids.iter().enumerate() {
                    let outcomes = hub.close_session(id).expect("close").outcomes;
                    assert_eq!(
                        outcomes, reference[i],
                        "chunk {chunk}, threads {threads:?}, record {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn close_session_returns_the_full_history_and_frees_the_slot() {
        let fw = firmware();
        let record = patient_record(300, 40);
        let tolerance = (0.06 * record.fs) as usize;
        let mut hub = StreamHub::with_threads(&fw, record.fs, NonZeroUsize::new(2));
        let lead = record.lead(Lead(0)).expect("lead");
        let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
        let keep = hub.add_patient(1, thresholds.clone());
        let id = hub.add_patient(record.id, thresholds.clone());
        assert_eq!(hub.active_sessions(), 2);

        // Stream in chunks, draining incrementally like the gateway does.
        let mut seen = 0usize;
        for chunk in lead.chunks(997) {
            hub.ingest(&[(id, chunk)]).expect("ingest");
            seen = hub.outcomes(id).expect("live").len();
        }
        let report = hub.close_session(id).expect("close");
        assert_eq!(report.patient_id, record.id);
        assert_eq!(report.samples_pushed, lead.len());
        assert!(report.outcomes.len() >= seen);
        assert_eq!(
            report.forwarded_beats,
            report.outcomes.iter().filter(|o| o.delineated).count()
        );

        // The closed session's history equals the batch-labelled reference.
        let batch = fw.process_record(&record).expect("batch");
        let reference = report_for(&batch.beats, &record.annotations, tolerance);
        assert_eq!(report.labelled(&record.annotations, tolerance), reference);

        // The slot is freed and every accessor now rejects the stale handle.
        assert_eq!(hub.active_sessions(), 1);
        assert_eq!(hub.num_sessions(), 2);
        assert!(hub.ingest(&[(id, &lead[..8])]).is_err());
        assert!(hub.outcomes(id).is_err());
        assert!(hub.patient_id(id).is_err());
        assert!(hub
            .session_report(id, &record.annotations, tolerance)
            .is_err());
        assert!(hub
            .merged_report(&[(id, &record.annotations)], tolerance)
            .is_err());
        assert!(hub.close_session(id).is_err(), "double close must error");
        hub.finish(); // must skip the hole without panicking

        // Index reuse: the next patient takes the freed slot.
        let reused = hub.add_patient(9, thresholds);
        assert_eq!(reused.index(), id.index());
        assert_eq!(hub.active_sessions(), 2);
        assert_eq!(hub.patient_id(reused).expect("live"), 9);
        assert_eq!(hub.patient_id(keep).expect("live"), 1);
        assert!(hub.outcomes(reused).expect("live").is_empty());
    }

    #[test]
    fn hot_swap_migrates_live_sessions_without_dropping_or_duplicating() {
        let old_fw = firmware();
        // A genuinely retrained image: same geometry, different projection
        // and classifier (fresh training seed), hence a different decision
        // boundary on part of the beats.
        let mut retrain_cfg = ExperimentConfig::quick();
        retrain_cfg.seed = 7777;
        let new_fw = TrainedSystem::train(&retrain_cfg).expect("training").wbsn;
        let record = patient_record(700, 60);
        let lead = record.lead(Lead(0)).expect("lead");
        let chunk = record.fs as usize;

        // References: the whole stream scored by the old image alone and by
        // the new image alone. Peaks are detector-driven (classifier
        // independent), so outcome i of both references describes the same
        // beat and differs at most in its predicted class.
        let reference = |fw: &WbsnFirmware| -> Vec<BeatOutcome> {
            let mut hub = StreamHub::with_threads(fw, record.fs, NonZeroUsize::new(2));
            let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
            let id = hub.add_patient(record.id, thresholds);
            for c in lead.chunks(chunk) {
                hub.ingest(&[(id, c)]).expect("ingest");
            }
            hub.finish();
            hub.outcomes(id).expect("live").to_vec()
        };
        let ref_old = reference(&old_fw);
        let ref_new = reference(&new_fw);
        assert_eq!(ref_old.len(), ref_new.len());
        assert!(
            ref_old != ref_new,
            "the retrained image must actually classify differently"
        );

        // Live migration: stream half, swap, stream the rest.
        let mut hub = StreamHub::with_threads(&old_fw, record.fs, NonZeroUsize::new(2));
        let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
        let id = hub.add_patient(record.id, thresholds.clone());
        let chunks: Vec<&[f64]> = lead.chunks(chunk).collect();
        let half = chunks.len() / 2;
        for c in &chunks[..half] {
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        let before_swap = hub.outcomes(id).expect("live").len();
        assert!(before_swap > 0, "the prefix must have emitted beats");
        hub.swap_pipeline(&new_fw).expect("compatible image");
        assert!(std::ptr::eq(hub.firmware(), &new_fw));
        for c in &chunks[half..] {
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        hub.finish();
        let migrated = hub.outcomes(id).expect("live");

        // Zero dropped, zero duplicated: same beats as both references, with
        // a single switch point at the swap.
        assert_eq!(migrated.len(), ref_old.len());
        assert_eq!(&migrated[..before_swap], &ref_old[..before_swap]);
        assert_eq!(&migrated[before_swap..], &ref_new[before_swap..]);

        // Swapping to an identical image is a no-op on the outcome stream.
        let mut hub = StreamHub::with_threads(&old_fw, record.fs, NonZeroUsize::new(2));
        let id = hub.add_patient(record.id, thresholds.clone());
        for (i, c) in chunks.iter().enumerate() {
            if i == half {
                hub.swap_pipeline(&old_fw).expect("identity swap");
            }
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        hub.finish();
        assert_eq!(hub.outcomes(id).expect("live"), ref_old);

        // Incompatible geometry is rejected and leaves the hub untouched.
        let mut bad = old_fw.clone();
        bad.window = hbc_ecg::beat::BeatWindow::new(bad.window.pre + 4, bad.window.post);
        assert!(hub.swap_pipeline(&bad).is_err());
        assert!(std::ptr::eq(hub.firmware(), &old_fw));

        // Sessions added after a swap use the new image: stream the same
        // record through a post-swap session and match the new reference.
        let mut hub = StreamHub::with_threads(&old_fw, record.fs, NonZeroUsize::new(2));
        hub.swap_pipeline(&new_fw).expect("compatible image");
        let id = hub.add_patient(record.id, thresholds);
        for c in &chunks {
            hub.ingest(&[(id, c)]).expect("ingest");
        }
        hub.finish();
        assert_eq!(hub.outcomes(id).expect("live"), ref_new);
    }

    #[test]
    fn recent_abnormal_window_tracks_the_outcome_stream() {
        let fw = firmware();
        let record = patient_record(410, 40);
        let lead = record.lead(Lead(0)).expect("lead");
        let mut hub = StreamHub::with_threads(&fw, record.fs, NonZeroUsize::new(2));
        let thresholds = hub.calibrate_thresholds(lead).expect("calibrate");
        let id = hub.add_patient(record.id, thresholds);

        // A fresh session has no outcomes: not abnormal.
        assert!(!any_recent_abnormal(hub.outcomes(id).expect("live"), 64));

        hub.ingest(&[(id, lead)]).expect("ingest");
        hub.finish();
        let outcomes = hub.outcomes(id).expect("live");
        assert!(!outcomes.is_empty());
        let any_abnormal = outcomes.iter().any(|o| o.predicted.is_abnormal());

        // The full-history window agrees with a direct scan; a zero window
        // never reports abnormal; a window of 1 sees exactly the last beat.
        assert_eq!(any_recent_abnormal(outcomes, outcomes.len()), any_abnormal);
        assert!(!any_recent_abnormal(outcomes, 0));
        assert_eq!(
            any_recent_abnormal(outcomes, 1),
            outcomes.last().expect("non-empty").predicted.is_abnormal()
        );

        // A closed session's history can no longer be read.
        hub.close_session(id).expect("close");
        assert!(hub.outcomes(id).is_err());
    }

    #[test]
    fn hub_rejects_bad_batches() {
        let fw = firmware();
        let mut hub = StreamHub::new(&fw, 360.0);
        let thresholds = PeakThresholds {
            first_scale: 1.0,
            cross_scale: vec![1.0; 3],
        };
        let id = hub.add_patient(7, thresholds.clone());
        let other = hub.add_patient(8, thresholds.clone());
        let closed = hub.add_patient(9, thresholds);
        hub.close_session(closed).expect("close");
        let chunk = [0.0f64; 16];
        // Unknown session.
        assert!(hub.ingest(&[(SessionId(9), &chunk)]).is_err());
        // Duplicate session in one batch.
        assert!(hub.ingest(&[(id, &chunk), (id, &chunk)]).is_err());
        // A duplicate after another session, and a closed session after a
        // live one: the whole batch is validated before any session is fed.
        assert!(hub
            .ingest(&[(id, &chunk), (other, &chunk), (id, &chunk)])
            .is_err());
        assert!(hub.ingest(&[(id, &chunk), (closed, &chunk)]).is_err());
        // Valid batch.
        hub.ingest(&[(id, &chunk)]).expect("ok");
        assert!(hub.outcomes(SessionId(3)).is_err());
        assert!(hub.session_report(SessionId(3), &[], 10).is_err());
        assert!(hub.patient_id(SessionId(3)).is_err());
        // Only the valid batch fed anything.
        let fed = hub.close_session(id).expect("live").samples_pushed;
        assert_eq!(fed, chunk.len());
        assert_eq!(hub.close_session(other).expect("live").samples_pushed, 0);
    }
}

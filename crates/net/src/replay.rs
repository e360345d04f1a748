//! Offline replay: re-score a durable ingest log through a firmware image.
//!
//! [`replay_log`] reads the segment log a [`crate::Gateway`] wrote (see
//! [`crate::GatewayConfig::wal`]) and re-runs every logged stream through a
//! fresh [`StreamHub`] — the same code path live ingestion uses — so the
//! produced outcome history is **bit-identical** to what the gateway
//! computed online, for any packetization and any worker-thread count
//! (chunk invariance of the streaming subsystem). Pointing it at a
//! *different* firmware image answers "what would this pipeline have said
//! about the exact traffic we served?" — retrospective evaluation of a
//! candidate model on real logged streams, without touching the live
//! service.
//!
//! The scan is read-only: a torn tail from a crash is skipped, never
//! repaired, so a replay can run against the log directory of a dead
//! gateway before (or instead of) restarting it.
//!
//! This module also owns the one **log fold** both readers of the log
//! share: `LogFold` groups records into sessions one at a time as the scan
//! decodes them, and `rebuild` turns the sessions of one hub back into hub
//! state in bounded rounds. Neither reader ever holds the log itself.
//! Crash recovery (`recover`, called by `Gateway::bind`) and
//! [`replay_log`] differ only in the policy they apply on top: recovery
//! frees a session's codes at its close and rebuilds open sessions only.

use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;
use std::path::Path;
use std::time::Instant;

use hbc_core::{SessionId, StreamHub};
use hbc_embedded::{AdcModel, BeatOutcome, WbsnFirmware};
use hbc_wal::{Wal, WalConfig, WalRecord};

use crate::proto::wire_adc;
use crate::session::{NetSession, SessionManager, SessionPhase, SessionPriority};

/// Turns calibration stretches into hub sessions — the one place the
/// gateway derives detection thresholds. `request` gives each batch item's
/// patient and stretch. The thresholds of every stretch are computed at
/// once on the hub's workers ([`StreamHub::calibrate_batch`]); the patients
/// are then registered in batch order, so hub slots are assigned exactly as
/// one-at-a-time promotion in that order would assign them. Returns, per
/// item, the handle a [`SessionPhase::Streaming`] session carries, or
/// `None` when the stretch is degenerate (too short or too flat for the
/// detector). Used by sweep promotion, close-while-calibrating and the log
/// rebuild.
pub(crate) fn promote<'s, T: Sync>(
    hub: &mut StreamHub<'_, AdcModel>,
    batch: &[T],
    request: impl Fn(&T) -> (u32, &'s [i16]) + Sync,
) -> Vec<Option<SessionId>> {
    let thresholds = hub.calibrate_batch(batch, |item| request(item).1);
    batch
        .iter()
        .zip(thresholds)
        .map(|(item, thresholds)| Some(hub.add_patient(request(item).0, thresholds.ok()?)))
        .collect()
}

/// One logged session re-scored through the pipeline, in log open order.
#[derive(Debug, Clone)]
pub struct ReplayedSession {
    /// Resume token the gateway issued (the log's session key).
    pub token: u64,
    /// Wire-level session id.
    pub wire_id: u32,
    /// Patient identifier from the open request.
    pub patient_id: u32,
    /// Sampling rate the session was opened with, in millihertz.
    pub fs_millihertz: u32,
    /// Samples logged for the session (accepted by the gateway).
    pub samples: u64,
    /// Whether the log records a clean end for the session.
    pub closed: bool,
    /// Whether the logged stream covered the calibration stretch (an
    /// uncalibrated session has no outcomes by construction).
    pub calibrated: bool,
    /// The full re-scored outcome history.
    pub outcomes: Vec<BeatOutcome>,
}

/// Everything [`replay_log`] reconstructs from one log directory.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Re-scored sessions, in the order their opens were logged.
    pub sessions: Vec<ReplayedSession>,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// Bytes ignored past a torn tail or corrupt record.
    pub bytes_truncated: u64,
    /// Whether the log carried a torn tail (the valid prefix was used).
    pub truncated: bool,
}

/// One session as the durable log records it.
pub(crate) struct LoggedSession {
    pub(crate) token: u64,
    pub(crate) wire_id: u32,
    pub(crate) patient_id: u32,
    pub(crate) calib_len: usize,
    pub(crate) fs_millihertz: u32,
    /// Every logged sample, as wire ADC codes (2 B per sample). Emptied
    /// when the session's close is folded, if the fold releases closed
    /// sessions.
    pub(crate) codes: Vec<i16>,
    /// The receive position: one past the last logged `Samples` seq.
    pub(crate) next_seq: u32,
    /// Whether the log records the session's end.
    pub(crate) closed: bool,
}

/// A log folded into sessions keyed by resume token, one record at a time
/// as the scan decodes them ([`LogFold::apply`]).
pub(crate) struct LogFold {
    /// Logged sessions, in the order their opens were logged.
    pub(crate) sessions: Vec<LoggedSession>,
    /// `SessionOpen` records seen, duplicates included: each consumed one
    /// resume token.
    pub(crate) opens: u64,
    /// The largest wire id any open carried.
    pub(crate) max_wire_id: Option<u32>,
    by_token: HashMap<u64, usize>,
    /// Whether a session's codes are freed when its close is folded.
    release_closed: bool,
}

impl LogFold {
    /// An empty fold. With `release_closed`, a session's codes are freed
    /// as soon as its close is folded, so the fold holds the codes of open
    /// sessions only.
    pub(crate) fn new(release_closed: bool) -> Self {
        LogFold {
            sessions: Vec::new(),
            opens: 0,
            max_wire_id: None,
            by_token: HashMap::new(),
            release_closed,
        }
    }

    /// Folds the next record of the log.
    ///
    /// A gateway never logs the same token twice. Should a log do so
    /// anyway, the first open wins and later opens of the token are
    /// ignored, though `opens` and `max_wire_id` count them. Samples
    /// logged after a session's close are ignored too.
    pub(crate) fn apply(&mut self, record: WalRecord) {
        match record {
            WalRecord::SessionOpen {
                token,
                wire_id,
                patient_id,
                calib_len,
                fs_millihertz,
            } => {
                self.opens += 1;
                self.max_wire_id = self.max_wire_id.max(Some(wire_id));
                let sessions = &mut self.sessions;
                self.by_token.entry(token).or_insert_with(|| {
                    sessions.push(LoggedSession {
                        token,
                        wire_id,
                        patient_id,
                        calib_len: calib_len as usize,
                        fs_millihertz,
                        codes: Vec::new(),
                        next_seq: 0,
                        closed: false,
                    });
                    sessions.len() - 1
                });
            }
            WalRecord::Samples { token, seq, codes } => {
                if let Some(&i) = self.by_token.get(&token) {
                    let session = &mut self.sessions[i];
                    if !session.closed {
                        session.codes.extend_from_slice(&codes);
                        session.next_seq = seq.wrapping_add(1);
                    }
                }
            }
            WalRecord::SessionClose { token } => {
                if let Some(&i) = self.by_token.get(&token) {
                    let session = &mut self.sessions[i];
                    session.closed = true;
                    if self.release_closed {
                        session.codes = Vec::new();
                    }
                }
            }
        }
    }
}

/// Samples per session that [`rebuild`] ingests per round, straight from
/// the logged codes (no buffer is filled). Bounds the work of one hub
/// ingest, whatever the length of the logged streams.
const REBUILD_ROUND: usize = 2048;

/// How far a rebuilt session got through threshold calibration.
pub(crate) enum Calibration {
    /// The logged stream ends inside the calibration stretch.
    Pending,
    /// The stretch is degenerate: no thresholds, no hub session.
    Failed,
    /// Calibrated, and the whole logged stream ingested into this hub
    /// session.
    Streaming(SessionId),
}

/// One logged session after [`rebuild`].
pub(crate) struct Rebuilt {
    /// The session as logged, codes included.
    pub(crate) session: LoggedSession,
    /// Length of the logged stream, in samples.
    pub(crate) samples: u64,
    pub(crate) calibration: Calibration,
}

/// Rebuilds logged sessions into `hub`, which must run at their sampling
/// rate: derives every session's thresholds from its calibration stretch
/// (one parallel [`promote`] batch), then feeds every calibrated stream's
/// codes from its first sample through parallel [`StreamHub::ingest`]
/// calls of [`REBUILD_ROUND`] samples per session. By chunk invariance the outcome history is bit-identical to the
/// live ingestion, whatever chunk sizes the node used.
///
/// Returns the sessions in input order, plus whether the hub rejected an
/// ingest round (a bug: the sessions are fresh and unique).
pub(crate) fn rebuild(
    hub: &mut StreamHub<'_, AdcModel>,
    logged: Vec<LoggedSession>,
) -> (Vec<Rebuilt>, bool) {
    // Every complete stretch is calibrated in one batch, and its session
    // registered in input order.
    let complete: Vec<(u32, &[i16])> = logged
        .iter()
        .filter_map(|s| Some((s.patient_id, s.codes.get(..s.calib_len)?)))
        .collect();
    let mut promoted = promote(hub, &complete, |&request| request).into_iter();
    let rebuilt: Vec<Rebuilt> = logged
        .into_iter()
        .map(|session| {
            let calibration = if session.codes.len() < session.calib_len {
                Calibration::Pending
            } else {
                promoted
                    .next()
                    .expect("one promotion per complete stretch")
                    .map_or(Calibration::Failed, Calibration::Streaming)
            };
            Rebuilt {
                samples: session.codes.len() as u64,
                session,
                calibration,
            }
        })
        .collect();
    // Each stream's codes not yet ingested.
    let mut streams: Vec<(SessionId, &[i16])> = rebuilt
        .iter()
        .filter_map(|r| match r.calibration {
            Calibration::Streaming(id) => Some((id, r.session.codes.as_slice())),
            Calibration::Pending | Calibration::Failed => None,
        })
        .collect();
    let mut rejected = false;
    while !streams.is_empty() {
        let feeds: Vec<(SessionId, &[i16])> = streams
            .iter_mut()
            .map(|(id, codes)| {
                let (now, later) = codes.split_at(codes.len().min(REBUILD_ROUND));
                *codes = later;
                (*id, now)
            })
            .collect();
        rejected |= hub.ingest(&feeds).is_err();
        streams.retain(|(_, codes)| !codes.is_empty());
    }
    debug_assert!(!rejected, "rebuilt hub sessions are fresh and unique");
    (rebuilt, rejected)
}

/// Opens the durable log at `config` and rebuilds the sessions a previous
/// gateway process left open in it, parked at `now` for
/// [`crate::proto::Frame::ResumeSession`]. Returns the opened log and the
/// number of sessions parked.
///
/// The log is folded record by record as [`Wal::open_with`] reads it, and
/// rebuilt by the code [`replay_log`] uses ([`LogFold`], [`rebuild`]), so
/// the rebuilt outcome history is bit-identical to the pre-crash
/// ingestion. The policy on top is recovery's: closed sessions are done
/// (their codes are freed as soon as their close is folded, so recovery
/// holds the open sessions' codes, not the log), sessions logged at
/// another sampling rate belong to a differently configured gateway, and a
/// session whose calibration stretch is degenerate is dropped. A session
/// whose log ends inside its calibration stretch is parked still
/// calibrating, with its logged samples buffered. The manager's wire-id and
/// token generators are fast-forwarded past every logged open so recovered
/// and freshly opened sessions can never collide. Invariant violations are
/// counted in `internal_skips`.
///
/// # Errors
///
/// Filesystem errors from opening the log, and
/// [`hbc_wal::WalError::UnsupportedFormat`] for a log in another format
/// (no file is changed); corrupt content is absorbed by the scan.
pub(crate) fn recover(
    hub: &mut StreamHub<'_, AdcModel>,
    sessions: &mut SessionManager,
    config: WalConfig,
    fs_millihertz: u32,
    internal_skips: &mut u64,
    now: Instant,
) -> hbc_wal::Result<(Wal, u64)> {
    let mut fold = LogFold::new(true);
    let (wal, _) = Wal::open_with(config, |record| fold.apply(record))?;
    // Replay the generators: every logged open consumed one wire id and one
    // token, whether or not its session survives recovery, so the post-
    // restart streams continue exactly where the pre-crash ones would have.
    sessions.skip_tokens(fold.opens);
    if let Some(max) = fold.max_wire_id {
        sessions.ensure_next_id(max.wrapping_add(1));
    }
    let open = fold
        .sessions
        .into_iter()
        .filter(|s| !s.closed && s.fs_millihertz == fs_millihertz)
        .collect();
    let (rebuilt, rejected) = rebuild(hub, open);
    if rejected {
        *internal_skips += 1;
    }
    let mut recovered = 0;
    for r in rebuilt {
        let logged = r.session;
        let mut session = NetSession::new(
            logged.wire_id,
            logged.token,
            usize::MAX,
            logged.patient_id,
            logged.calib_len,
            now,
        );
        session.next_seq = logged.next_seq;
        session.samples_received = r.samples;
        match r.calibration {
            // `outcomes_sent` restarts at the full replayed history: the
            // owner can only have received outcomes the pre-crash gateway
            // actually sent, which the replay covers (samples are logged
            // before they are ingested), so the resume-time `min()` rewind
            // lands exactly on the client's claim. The priority is scored
            // from the same history, which forwarding — skipping sessions
            // with nothing unsent — would otherwise never look at again.
            Calibration::Streaming(hub_id) => {
                session.phase = SessionPhase::Streaming { hub: hub_id };
                match hub.outcomes(hub_id) {
                    Ok(all) => {
                        session.outcomes_sent = all.len();
                        session.priority = SessionPriority::of(all);
                    }
                    Err(_) => {
                        *internal_skips += 1;
                        debug_assert!(false, "rebuilt session {hub_id:?} is not live in the hub");
                    }
                }
            }
            Calibration::Pending => session.pending = logged.codes,
            // A degenerate calibration stretch would have ended the
            // session live too; drop it.
            Calibration::Failed => continue,
        }
        // Refused only when a log reuses a wire id: the first session keeps it.
        if sessions.insert_parked(session, now) {
            recovered += 1;
        }
    }
    Ok((wal, recovered))
}

/// Re-scores every session in the log directory `dir` through `firmware`.
///
/// The log is folded record by record as [`hbc_wal::scan_with`] reads it,
/// keeping every session's codes (closed ones included, since they are
/// re-scored). Sessions are grouped by their logged sampling rate (one
/// [`StreamHub`] per distinct rate — a hub is single-rate) and each group
/// is rebuilt in rounds of parallel [`StreamHub::ingest`] calls, a bounded
/// number of samples per session each; `threads` picks the worker policy
/// (`None` = one per core) and has no effect on the produced outcomes. Sessions the log marks closed are finished and
/// drained exactly like a live close, so their histories match the final
/// reports the gateway sent; still-open sessions stop where the log stops,
/// matching what crash recovery rebuilds. A session whose stream does not
/// cover its calibration stretch, or whose stretch is degenerate, is
/// reported with `calibrated: false` and no outcomes.
///
/// # Errors
///
/// Filesystem errors (unreadable directory or segments), and a log in
/// another format: an [`std::io::Error`] of kind `Other` wrapping
/// [`hbc_wal::WalError::UnsupportedFormat`] (reach it with
/// `get_ref()` and `downcast_ref`). Corrupt log content is absorbed: the
/// valid prefix is replayed and [`ReplayReport::truncated`] is set.
pub fn replay_log(
    dir: impl AsRef<Path>,
    firmware: &WbsnFirmware,
    threads: Option<NonZeroUsize>,
) -> std::io::Result<ReplayReport> {
    let mut fold = LogFold::new(false);
    let recovery =
        hbc_wal::scan_with(dir.as_ref(), |record| fold.apply(record)).map_err(|e| match e {
            hbc_wal::WalError::Io(io) => io,
            other => std::io::Error::other(other),
        })?;

    // A hub runs at one sampling rate; group sessions by theirs. Group
    // order does not matter for the outcomes (sessions are independent) —
    // the report is re-assembled in log open order below.
    let mut sessions: Vec<Option<ReplayedSession>> = fold.sessions.iter().map(|_| None).collect();
    let mut by_fs: BTreeMap<u32, (Vec<usize>, Vec<LoggedSession>)> = BTreeMap::new();
    for (i, session) in fold.sessions.into_iter().enumerate() {
        let (order, group) = by_fs.entry(session.fs_millihertz).or_default();
        order.push(i);
        group.push(session);
    }

    for (fs_millihertz, (order, group)) in by_fs {
        let fs = f64::from(fs_millihertz) / 1000.0;
        let mut hub = StreamHub::with_scale(firmware, fs, threads, wire_adc());
        let (rebuilt, _) = rebuild(&mut hub, group);
        for (i, r) in order.into_iter().zip(rebuilt) {
            let outcomes = match r.calibration {
                Calibration::Streaming(id) if r.session.closed => hub
                    .close_session(id)
                    .map(|report| report.outcomes)
                    .unwrap_or_default(),
                Calibration::Streaming(id) => {
                    hub.outcomes(id).map(<[_]>::to_vec).unwrap_or_default()
                }
                Calibration::Pending | Calibration::Failed => Vec::new(),
            };
            sessions[i] = Some(ReplayedSession {
                token: r.session.token,
                wire_id: r.session.wire_id,
                patient_id: r.session.patient_id,
                fs_millihertz,
                samples: r.samples,
                closed: r.session.closed,
                calibrated: matches!(r.calibration, Calibration::Streaming(_)),
                outcomes,
            });
        }
    }

    Ok(ReplayReport {
        sessions: sessions.into_iter().flatten().collect(),
        segments_scanned: recovery.segments_scanned,
        bytes_truncated: recovery.bytes_truncated,
        truncated: recovery.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(token: u64, wire_id: u32) -> WalRecord {
        WalRecord::SessionOpen {
            token,
            wire_id,
            patient_id: 100 + wire_id,
            calib_len: 4,
            fs_millihertz: 360_000,
        }
    }

    fn samples(token: u64, seq: u32, codes: &[i16]) -> WalRecord {
        WalRecord::Samples {
            token,
            seq,
            codes: codes.to_vec(),
        }
    }

    fn fold(release_closed: bool, records: Vec<WalRecord>) -> LogFold {
        let mut fold = LogFold::new(release_closed);
        for record in records {
            fold.apply(record);
        }
        fold
    }

    #[test]
    fn a_duplicate_token_keeps_its_first_open() {
        let fold = fold(false, vec![open(7, 1), samples(7, 0, &[1, 2]), open(7, 9)]);
        assert_eq!(fold.sessions.len(), 1);
        let s = &fold.sessions[0];
        assert_eq!(
            (s.wire_id, s.patient_id, s.codes.as_slice()),
            (1, 101, &[1, 2][..])
        );
        assert_eq!(fold.opens, 2, "every open consumed a token");
        assert_eq!(fold.max_wire_id, Some(9));
    }

    #[test]
    fn samples_after_a_close_are_ignored() {
        let records = vec![
            open(7, 1),
            samples(7, 0, &[1, 2]),
            WalRecord::SessionClose { token: 7 },
            samples(7, 1, &[3]),
            samples(8, 0, &[4]),
        ];
        let fold = fold(false, records);
        let s = &fold.sessions[0];
        assert!(s.closed);
        assert_eq!((s.codes.as_slice(), s.next_seq), (&[1, 2][..], 1));
        assert_eq!(fold.sessions.len(), 1, "samples of an unopened token");
    }

    #[test]
    fn release_on_close_frees_the_codes_but_keeps_the_counts() {
        let records = vec![
            open(7, 3),
            samples(7, 0, &[1, 2, 3]),
            open(8, 2),
            samples(8, 0, &[5]),
            WalRecord::SessionClose { token: 7 },
        ];
        let released = fold(true, records.clone());
        let kept = fold(false, records);
        assert!(released.sessions[0].closed && released.sessions[0].codes.is_empty());
        assert_eq!(
            released.sessions[0].codes.capacity(),
            0,
            "the memory is freed"
        );
        assert_eq!(released.sessions[0].next_seq, 1);
        assert_eq!(kept.sessions[0].codes, [1, 2, 3]);
        assert_eq!(released.sessions[1].codes, [5], "open sessions keep theirs");
        assert_eq!((released.opens, released.max_wire_id), (2, Some(3)));
        assert_eq!((kept.opens, kept.max_wire_id), (2, Some(3)));
    }

    #[test]
    fn an_open_session_is_the_concatenation_of_its_records() {
        let mut records = vec![open(7, 1), open(8, 2)];
        let mut want = Vec::new();
        for seq in 0..50u32 {
            let chunk: Vec<i16> = (0..seq as i16 % 7).map(|i| i * 3 - seq as i16).collect();
            want.extend_from_slice(&chunk);
            records.push(samples(7, seq, &chunk));
            records.push(samples(8, seq, &[1]));
        }
        let fold = fold(true, records);
        let s = &fold.sessions[0];
        assert!(!s.closed);
        assert_eq!(s.codes, want);
        assert_eq!(s.next_seq, 50);
        assert_eq!(fold.sessions[1].codes.len(), 50);
    }
}

//! Session lifecycle management for the gateway.
//!
//! One [`NetSession`] tracks a patient stream from the wire side:
//!
//! ```text
//!  OpenSession           calib_len samples buffered      CloseSession /
//!  ───────────▶ Calibrating ───────────────────▶ Streaming ─────────▶ ended
//!                   │        thresholds from the   │        idle timeout
//!                   │        first stretch, hub    │
//!                   ▼        session created,      ▼
//!              (samples buffer)   stretch replayed  (samples flow into the
//!                                 into the stream    hub in credit-bounded
//!                                                    batches)
//! ```
//!
//! The manager is transport-agnostic: it owns the per-session sample buffer
//! (`pending`, bounded by the credit budget), the sequence check and the
//! idle clock, while the reactor in [`crate::server`] owns sockets and the
//! [`StreamHub`](hbc_core::StreamHub). That split keeps the state machine
//! testable without I/O.
//!
//! ## One table, one resume lifecycle
//!
//! Every session the gateway still answers for sits in one table keyed by
//! wire id, in one [`SessionState`]:
//!
//! ```text
//!  open          conn dies             window elapses
//!  ────▶ Attached ──────────▶ Parked ─────────────────▶ gone (id retired)
//!         │  ▲  ResumeSession  │
//!         │  └─────────────────┘ (or a takeover while still attached)
//!         │ CloseSession / idle eviction       window elapses
//!         └────────────────────────▶ Ended ──────────────▶ gone
//! ```
//!
//! A parked session keeps its hub handle (calibrated `PeakThresholds`,
//! stream position): a client that reconnects within the retention window
//! re-attaches with [`crate::proto::Frame::ResumeSession`] at the sequence
//! number the gateway reports — no re-calibration, no replayed samples. An
//! ended session's id retires at once and its buffer is freed, but its
//! final report and outcome history stay cached for the same window, so a
//! client whose link died around the end can re-fetch them. A token index
//! makes every resume one lookup. Only attached sessions are ingested,
//! forwarded, idle-evicted or scanned for quiet credit.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use hbc_core::stream::any_recent_abnormal;
use hbc_core::SessionId;
use hbc_embedded::firmware::BeatOutcome;

use crate::proto::{WireOutcome, WireReport};

/// How many ended-session ids the manager remembers for race tolerance.
/// In-flight frames for an ended session can only be a connection's
/// receive-buffer worth of traffic behind, so a small recent window
/// suffices; the cap keeps a long-running gateway's memory flat.
const RETIRED_CAP: usize = 4096;

/// How many recent outcomes the priority refresh scans: one abnormal beat
/// in the window flags the session [`SessionPriority::Critical`]; a clean
/// window decays it back to [`SessionPriority::Normal`].
const PRIORITY_WINDOW: usize = 64;

/// How much a session's buffered telemetry is worth protecting when the
/// gateway sheds load under its global memory budget.
///
/// Priority is **derived from the recent outcome stream** (see
/// `hbc_core::stream::any_recent_abnormal`): a session whose recent beats include an
/// abnormal prediction is ARR-critical and its buffers are shed last, so the
/// safety invariant *abnormal ⇒ routed onward* holds under overload too. A
/// session can decay back to [`SessionPriority::Normal`] once its recent
/// window is clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SessionPriority {
    /// Recent outcomes are all normal (or the session has produced none
    /// yet); buffered telemetry may be dropped first under overload.
    #[default]
    Normal,
    /// The recent outcome window contains an abnormal (ARR-flagged) beat;
    /// shed everything else before touching this stream.
    Critical,
}

impl SessionPriority {
    /// The shedding priority a session's outcome history earns: critical
    /// while its last [`PRIORITY_WINDOW`] outcomes hold an abnormal beat.
    pub(crate) fn of(outcomes: &[BeatOutcome]) -> Self {
        if any_recent_abnormal(outcomes, PRIORITY_WINDOW) {
            SessionPriority::Critical
        } else {
            SessionPriority::Normal
        }
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug)]
pub enum SessionPhase {
    /// Buffering the first `calib_len` samples; no hub session exists yet.
    Calibrating {
        /// Samples required before thresholds can be derived.
        calib_len: usize,
    },
    /// Thresholds derived, hub session live, samples flowing.
    Streaming {
        /// The hub-side session handle.
        hub: SessionId,
    },
}

/// One wire session's gateway-side state.
#[derive(Debug)]
pub struct NetSession {
    /// Wire-level id (never reused within a gateway).
    pub wire_id: u32,
    /// Resume token issued at open (unique per manager, never reused).
    pub token: u64,
    /// Index of the connection that owns the session while it is
    /// [`SessionState::Attached`]; stale once it is parked or ended.
    pub conn: usize,
    /// Patient identifier from the open request.
    pub patient_id: u32,
    /// Lifecycle phase.
    pub phase: SessionPhase,
    /// Wire ADC codes received but not yet consumed by the hub (2 B per
    /// sample). Bounded by the credit budget for well-behaved senders.
    pub pending: Vec<i16>,
    /// Next expected [`crate::proto::Frame::Samples`] sequence number.
    pub next_seq: u32,
    /// Hub outcomes already forwarded to the client.
    pub outcomes_sent: usize,
    /// Credit the gateway owes the sender: samples consumed by the hub,
    /// or shed or dropped at the memory budget, since the last grant.
    pub consumed_since_grant: usize,
    /// Total samples received over the wire.
    pub samples_received: u64,
    /// Last time a frame arrived for this session or the hub consumed
    /// from it (drives eviction and the quiet-credit rule).
    pub last_activity: Instant,
    /// Shedding priority, refreshed from the recent outcome stream by the
    /// reactor's forwarding sweep.
    pub priority: SessionPriority,
    /// Arrival time of the oldest sample in `pending`, kept while the buffer
    /// is non-empty. After a partial drain the anchor is left in place: the
    /// remaining samples arrived no earlier, so latency derived from it
    /// over-estimates rather than hides queueing delay.
    pub oldest_pending_at: Option<Instant>,
    /// Arrival anchor of the chunk most recently staged into the hub; the
    /// reactor charges `now - staged_anchor` to the beat-to-outcome
    /// histogram for every outcome that chunk produced, then clears it.
    pub staged_anchor: Option<Instant>,
}

impl NetSession {
    /// A session attached to connection `conn`, calibrating, with nothing
    /// received yet and `now` as its last activity.
    pub(crate) fn new(
        wire_id: u32,
        token: u64,
        conn: usize,
        patient_id: u32,
        calib_len: usize,
        now: Instant,
    ) -> Self {
        NetSession {
            wire_id,
            token,
            conn,
            patient_id,
            phase: SessionPhase::Calibrating { calib_len },
            pending: Vec::new(),
            next_seq: 0,
            outcomes_sent: 0,
            consumed_since_grant: 0,
            samples_received: 0,
            last_activity: now,
            priority: SessionPriority::Normal,
            oldest_pending_at: None,
            staged_anchor: None,
        }
    }

    /// Samples currently buffered gateway-side for this session.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// The hub handle, if the session has finished calibrating.
    pub fn hub_id(&self) -> Option<SessionId> {
        match self.phase {
            SessionPhase::Streaming { hub } => Some(hub),
            SessionPhase::Calibrating { .. } => None,
        }
    }
}

/// Where a session stands in the resume lifecycle (see the module docs).
/// Only [`SessionManager`] moves a session between these states.
#[derive(Debug)]
pub enum SessionState {
    /// Owned by the live connection [`NetSession::conn`].
    Attached,
    /// Parked at the given instant: its connection died (or the gateway
    /// restarted on its log); resumable until the retention window elapses.
    Parked(Instant),
    /// Closed or evicted; the cached end waits for a re-fetch until the
    /// retention window elapses.
    Ended {
        /// When the session ended.
        since: Instant,
        /// The final report.
        report: WireReport,
        /// The complete outcome history, for resending the tail a client
        /// lost.
        outcomes: Vec<WireOutcome>,
    },
}

#[derive(Debug)]
struct Entry {
    session: NetSession,
    state: SessionState,
}

/// What [`SessionManager::resume`] decided.
#[derive(Debug, PartialEq, Eq)]
pub enum ResumeOutcome {
    /// Re-attached: the wire id of the session now owned by the new
    /// connection.
    Resumed(u32),
    /// The session already ended within the retention window; its cached
    /// end is available from [`SessionManager::ended`].
    Ended(u32),
    /// No session carries this token (never issued, or the retention
    /// window elapsed and the session was discarded).
    UnknownToken,
    /// The token exists but belongs to a different patient id.
    WrongPatient,
    /// The client claims more acknowledged sample frames than the gateway
    /// received (the given receive position). The session did not move.
    ClaimAhead(u32),
}

/// Owns every attached, parked and ended [`NetSession`] of a gateway.
#[derive(Debug, Default)]
pub struct SessionManager {
    /// Every session in wire-id order, so scans over them (idle eviction,
    /// shedding, the quiet-credit scan, expiry) run deterministically
    /// without sorting.
    table: BTreeMap<u32, Entry>,
    /// Resume token → wire id of every entry in `table`.
    by_token: HashMap<u64, u32>,
    /// Outcomes cached across [`SessionState::Ended`] entries — the report
    /// cache's share of the gateway's global memory budget.
    cached_outcomes: usize,
    /// SplitMix64 state behind token issuance — deterministic per manager,
    /// unique per session; a correlation handle, not a security boundary.
    token_state: u64,
    /// Wire ids of recently ended sessions (closed, evicted or expired).
    /// Ends are asynchronous, so a compliant peer can still have frames for
    /// such a session in flight — the reactor ignores those instead of
    /// treating them as violations. Ids are never reused, so membership is
    /// unambiguous; retention is capped at [`RETIRED_CAP`] (oldest ids
    /// forgotten first), independent of the retention window, so a
    /// long-running gateway's memory stays flat.
    retired: HashSet<u32>,
    /// The retired ids in retirement order, backing the cap.
    retired_order: VecDeque<u32>,
    next_id: u32,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next resume token (SplitMix64 over a per-manager counter).
    fn next_token(&mut self) -> u64 {
        self.token_state = self.token_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.token_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Registers a new attached session in the calibrating phase and
    /// returns its wire id. Wire ids are assigned sequentially and never
    /// reused.
    pub fn open(&mut self, conn: usize, patient_id: u32, calib_len: usize, now: Instant) -> u32 {
        let wire_id = self.next_id;
        self.next_id += 1;
        let token = self.next_token();
        let session = NetSession::new(wire_id, token, conn, patient_id, calib_len, now);
        self.insert(session, SessionState::Attached);
        wire_id
    }

    /// Adds a session to the table and the token index; refuses (returns
    /// `false`) one whose wire id or token is already there.
    fn insert(&mut self, session: NetSession, state: SessionState) -> bool {
        if self.table.contains_key(&session.wire_id) || self.by_token.contains_key(&session.token) {
            return false;
        }
        self.by_token.insert(session.token, session.wire_id);
        self.table.insert(session.wire_id, Entry { session, state });
        true
    }

    /// Number of attached sessions.
    pub fn len(&self) -> usize {
        self.attached().count()
    }

    /// Whether no session is attached.
    pub fn is_empty(&self) -> bool {
        self.attached().next().is_none()
    }

    /// Number of sessions parked for resume.
    pub fn parked_len(&self) -> usize {
        self.entries()
            .filter(|(state, _)| matches!(state, SessionState::Parked(_)))
            .count()
    }

    /// Outcomes cached across ended sessions, kept incrementally.
    pub fn cached_outcomes(&self) -> usize {
        self.cached_outcomes
    }

    /// Looks an attached session up by wire id.
    pub fn get(&self, wire_id: u32) -> Option<&NetSession> {
        let entry = self.table.get(&wire_id)?;
        matches!(entry.state, SessionState::Attached).then_some(&entry.session)
    }

    /// Mutable lookup of an attached session by wire id.
    pub fn get_mut(&mut self, wire_id: u32) -> Option<&mut NetSession> {
        let entry = self.table.get_mut(&wire_id)?;
        matches!(entry.state, SessionState::Attached).then_some(&mut entry.session)
    }

    /// Any session by wire id, whatever its state — the shedding path
    /// drops buffered telemetry of parked streams too.
    pub fn entry_mut(&mut self, wire_id: u32) -> Option<(&SessionState, &mut NetSession)> {
        let entry = self.table.get_mut(&wire_id)?;
        Some((&entry.state, &mut entry.session))
    }

    /// Every session with its state, in wire-id order.
    pub fn entries(&self) -> impl Iterator<Item = (&SessionState, &NetSession)> {
        self.table.values().map(|e| (&e.state, &e.session))
    }

    /// The cached end of an ended session: its final receive position,
    /// final report and complete outcome history.
    pub fn ended(&self, wire_id: u32) -> Option<(u32, WireReport, &[WireOutcome])> {
        let entry = self.table.get(&wire_id)?;
        let SessionState::Ended {
            report, outcomes, ..
        } = &entry.state
        else {
            return None;
        };
        Some((entry.session.next_seq, *report, outcomes))
    }

    /// Attached sessions in wire-id order.
    fn attached(&self) -> impl Iterator<Item = &NetSession> {
        self.entries()
            .filter(|(state, _)| matches!(state, SessionState::Attached))
            .map(|(_, s)| s)
    }

    /// Ends an attached session: its id retires (see [`Self::is_retired`]),
    /// its sample buffer is freed, and `report` plus the complete outcome
    /// history stay cached until [`Self::expire`] drops them. Returns
    /// whether the wire id was attached.
    pub fn end(
        &mut self,
        wire_id: u32,
        report: WireReport,
        outcomes: Vec<WireOutcome>,
        now: Instant,
    ) -> bool {
        let Some(entry) = self.table.get_mut(&wire_id) else {
            return false;
        };
        if !matches!(entry.state, SessionState::Attached) {
            return false;
        }
        entry.session.pending = Vec::new();
        self.cached_outcomes += outcomes.len();
        entry.state = SessionState::Ended {
            since: now,
            report,
            outcomes,
        };
        self.retire(wire_id);
        true
    }

    /// Whether `wire_id` belonged to a session that ended recently —
    /// frames racing an asynchronous end (eviction, expiry) are dropped
    /// rather than denied.
    pub fn is_retired(&self, wire_id: u32) -> bool {
        self.retired.contains(&wire_id)
    }

    /// Wire ids of every session attached to connection `conn`, in id order.
    pub fn ids_for_conn(&self, conn: usize) -> Vec<u32> {
        self.attached()
            .filter(|s| s.conn == conn)
            .map(|s| s.wire_id)
            .collect()
    }

    /// Wire ids of attached sessions whose last activity is older than
    /// `idle` before `now`, in id order — the eviction candidates. Parked
    /// sessions are not idle, they are waiting (their clock is the
    /// retention window).
    pub fn idle_ids(&self, now: Instant, idle: Duration) -> Vec<u32> {
        self.attached()
            .filter(|s| now.duration_since(s.last_activity) > idle)
            .map(|s| s.wire_id)
            .collect()
    }

    /// Appends to `out` the wire ids of attached sessions that owe their
    /// sender credit and have been quiet — no frame received, nothing
    /// consumed — for at least `quiet` before `now`: the housekeeping
    /// tick's quiet-credit scan. Appends into a caller-owned buffer so the
    /// scan allocates nothing once the buffer has grown.
    pub fn owing_quiet_into(&self, now: Instant, quiet: Duration, out: &mut Vec<u32>) {
        out.extend(
            self.attached()
                .filter(|s| {
                    s.consumed_since_grant > 0 && now.duration_since(s.last_activity) >= quiet
                })
                .map(|s| s.wire_id),
        );
    }

    /// Parks an attached session (its connection died). The session keeps
    /// its hub handle — calibrated thresholds and stream position survive —
    /// and waits for a resume until the retention window expires. Returns
    /// whether the wire id was attached.
    pub fn park(&mut self, wire_id: u32, now: Instant) -> bool {
        match self.table.get_mut(&wire_id) {
            Some(entry) if matches!(entry.state, SessionState::Attached) => {
                entry.state = SessionState::Parked(now);
                true
            }
            _ => false,
        }
    }

    /// Samples buffered across every session — the recount behind the
    /// reactor's incremental global-memory ledger (the reactor audits its
    /// counter against this in debug builds). Ended sessions hold none.
    pub fn total_buffered_samples(&self) -> usize {
        self.entries().map(|(_, s)| s.buffered()).sum()
    }

    /// Parks a rebuilt session directly — the durable-log recovery path: a
    /// gateway restarted on its log directory parks every recovered session
    /// so the owning node can re-attach with the ordinary
    /// [`crate::proto::Frame::ResumeSession`] flow. Refuses (returns
    /// `false`) a session whose wire id or token is already in the table.
    pub fn insert_parked(&mut self, session: NetSession, since: Instant) -> bool {
        self.insert(session, SessionState::Parked(since))
    }

    /// Raises the next wire id to at least `min_next`, so ids assigned after
    /// a log recovery never collide with ids recovered from the log.
    pub fn ensure_next_id(&mut self, min_next: u32) {
        self.next_id = self.next_id.max(min_next);
    }

    /// Advances the token generator by `count` draws without issuing them.
    /// Tokens are SplitMix64 over a per-manager counter, so replaying the
    /// number of sessions ever opened (as counted from the durable log)
    /// reproduces the exact generator state of the crashed gateway — tokens
    /// issued after recovery continue the original sequence and can never
    /// collide with recovered ones.
    pub fn skip_tokens(&mut self, count: u64) {
        self.token_state = self
            .token_state
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(count));
    }

    /// Re-attaches the session carrying `token` to connection `conn`.
    ///
    /// Covers both the parked case (connection already reaped) and the
    /// takeover case (the old connection has not been noticed dead yet —
    /// the session is still attached to it); either way the token holder
    /// wins. The claim is checked first: a wrong patient or a
    /// `last_acked_seq` past the gateway's receive position leaves the
    /// session where it was, its retention clock untouched. An ended
    /// session answers [`ResumeOutcome::Ended`] and stays ended.
    pub fn resume(
        &mut self,
        token: u64,
        patient_id: u32,
        last_acked_seq: u32,
        conn: usize,
        now: Instant,
    ) -> ResumeOutcome {
        let Some(entry) = self
            .by_token
            .get(&token)
            .and_then(|wire_id| self.table.get_mut(wire_id))
        else {
            return ResumeOutcome::UnknownToken;
        };
        let s = &mut entry.session;
        if s.patient_id != patient_id {
            return ResumeOutcome::WrongPatient;
        }
        if matches!(entry.state, SessionState::Ended { .. }) {
            return ResumeOutcome::Ended(s.wire_id);
        }
        if last_acked_seq > s.next_seq {
            return ResumeOutcome::ClaimAhead(s.next_seq);
        }
        entry.state = SessionState::Attached;
        s.conn = conn;
        s.last_activity = now;
        ResumeOutcome::Resumed(s.wire_id)
    }

    /// Drops every parked and ended session older than `window` before
    /// `now`. Parked sessions retire their wire ids (stragglers and late
    /// resumes are then dropped / denied) and are returned in wire-id order
    /// for the caller to dispose of (hub-session teardown); ended ones just
    /// leave the report cache.
    pub fn expire(&mut self, now: Instant, window: Duration) -> Vec<NetSession> {
        let due: Vec<u32> = self
            .table
            .iter()
            .filter(|(_, e)| match e.state {
                SessionState::Attached => false,
                SessionState::Parked(since) | SessionState::Ended { since, .. } => {
                    now.duration_since(since) > window
                }
            })
            .map(|(&wire_id, _)| wire_id)
            .collect();
        let mut parked = Vec::new();
        for wire_id in due {
            let Some(entry) = self.table.remove(&wire_id) else {
                continue;
            };
            self.by_token.remove(&entry.session.token);
            match entry.state {
                SessionState::Parked(_) => {
                    self.retire(wire_id);
                    parked.push(entry.session);
                }
                SessionState::Ended { outcomes, .. } => self.cached_outcomes -= outcomes.len(),
                SessionState::Attached => unreachable!("only parked and ended entries are due"),
            }
        }
        parked
    }

    /// Marks a wire id as recently ended (see [`Self::is_retired`]).
    fn retire(&mut self, wire_id: u32) {
        if self.retired.insert(wire_id) {
            self.retired_order.push_back(wire_id);
            while self.retired_order.len() > RETIRED_CAP {
                let oldest = self.retired_order.pop_front().expect("non-empty");
                self.retired.remove(&oldest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn attached_ids(mgr: &SessionManager) -> Vec<u32> {
        mgr.attached().map(|s| s.wire_id).collect()
    }

    #[test]
    fn wire_ids_are_sequential_and_never_reused() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let a = mgr.open(0, 10, 100, now);
        let b = mgr.open(1, 11, 100, now);
        assert_eq!((a, b), (0, 1));
        assert!(mgr.end(a, WireReport::default(), Vec::new(), now));
        let c = mgr.open(0, 12, 100, now);
        assert_eq!(c, 2, "ended ids must not be reassigned");
        assert_eq!(mgr.len(), 2);
        assert_eq!(attached_ids(&mgr), vec![1, 2]);
        assert_eq!(mgr.ids_for_conn(0), vec![2]);
        assert!(mgr.is_retired(a), "ended ids are remembered");
        assert!(!mgr.is_retired(b));
        assert!(!mgr.is_retired(99), "never-assigned ids are not retired");
    }

    #[test]
    fn retired_memory_is_capped() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        for _ in 0..(RETIRED_CAP + 10) {
            let id = mgr.open(0, 1, 1, now);
            assert!(mgr.end(id, WireReport::default(), Vec::new(), now));
        }
        assert!(!mgr.is_retired(0), "oldest retired ids are forgotten");
        assert!(!mgr.is_retired(9));
        assert!(mgr.is_retired(10));
        assert!(mgr.is_retired((RETIRED_CAP + 9) as u32));
    }

    #[test]
    fn idle_sessions_are_found_by_age() {
        let mut mgr = SessionManager::new();
        let past = Instant::now() - Duration::from_secs(60);
        let old = mgr.open(0, 1, 10, past);
        let now = Instant::now();
        let fresh = mgr.open(0, 2, 10, now);
        let idle = mgr.idle_ids(now, Duration::from_secs(30));
        assert_eq!(idle, vec![old]);
        assert!(mgr.get(fresh).is_some());
    }

    #[test]
    fn quiet_scan_lists_only_sessions_owing_credit_past_the_quiet_period() {
        let mut mgr = SessionManager::new();
        let past = Instant::now() - Duration::from_secs(1);
        let owing_quiet = mgr.open(0, 1, 10, past);
        mgr.open(0, 2, 10, past); // quiet, owes nothing
        let owing_busy = mgr.open(0, 3, 10, Instant::now());
        mgr.get_mut(owing_quiet).expect("live").consumed_since_grant = 36;
        mgr.get_mut(owing_busy).expect("live").consumed_since_grant = 36;
        let mut out = vec![99];
        mgr.owing_quiet_into(Instant::now(), Duration::from_millis(50), &mut out);
        assert_eq!(
            out,
            vec![99, owing_quiet],
            "appends, and only the quiet debtor"
        );
    }

    #[test]
    fn detach_then_resume_keeps_state_and_reassigns_the_connection() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let id = mgr.open(0, 42, 100, now);
        let token = mgr.get(id).expect("live").token;
        let s = mgr.get_mut(id).expect("live");
        s.next_seq = 7;
        s.samples_received = 700;

        assert!(mgr.park(id, now));
        assert_eq!(mgr.len(), 0);
        assert_eq!(mgr.parked_len(), 1);
        assert!(
            !mgr.is_retired(id),
            "a parked session has not ended — its id must not be retired"
        );
        assert!(
            mgr.idle_ids(now + Duration::from_secs(3600), Duration::from_secs(1))
                .is_empty(),
            "parked sessions are not idle-eviction candidates"
        );

        assert_eq!(
            mgr.resume(token, 41, 0, 3, now),
            ResumeOutcome::WrongPatient,
            "token + wrong patient must not re-attach"
        );
        assert_eq!(mgr.resume(token, 42, 7, 3, now), ResumeOutcome::Resumed(id));
        let s = mgr.get(id).expect("re-attached");
        assert_eq!((s.conn, s.next_seq, s.samples_received), (3, 7, 700));
        assert_eq!(mgr.parked_len(), 0);
    }

    #[test]
    fn resume_of_a_still_live_session_is_a_takeover() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let id = mgr.open(0, 9, 64, now);
        let token = mgr.get(id).expect("live").token;
        assert_eq!(
            mgr.resume(token, 9, 1, 5, now),
            ResumeOutcome::ClaimAhead(0)
        );
        assert_eq!(
            mgr.get(id).expect("live").conn,
            0,
            "a denied claim moves nothing"
        );
        assert_eq!(mgr.resume(token, 9, 0, 5, now), ResumeOutcome::Resumed(id));
        assert_eq!(mgr.get(id).expect("live").conn, 5);
        assert_eq!(
            mgr.resume(0xBAD_70CEB, 9, 0, 5, now),
            ResumeOutcome::UnknownToken
        );
    }

    #[test]
    fn detached_sessions_expire_after_the_window_and_retire_their_ids() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let a = mgr.open(0, 1, 10, now);
        let b = mgr.open(0, 2, 10, now);
        let c = mgr.open(0, 3, 10, now);
        let token_a = mgr.get(a).expect("live").token;
        let token_c = mgr.get(c).expect("live").token;
        mgr.park(a, now);
        mgr.park(b, now + Duration::from_secs(5));
        let report = WireReport {
            beats: 2,
            forwarded: 1,
            samples: 10,
        };
        let beat = WireOutcome {
            peak: 0,
            class: 0,
            delineated: false,
            fiducials: 0,
        };
        assert!(mgr.end(c, report, vec![beat; 2], now));
        assert_eq!(mgr.cached_outcomes(), 2);
        assert_eq!(mgr.resume(token_c, 3, 0, 1, now), ResumeOutcome::Ended(c));
        assert_eq!(
            mgr.ended(c).map(|(_, r, o)| (r, o.len())),
            Some((report, 2))
        );

        let window = Duration::from_secs(10);
        assert!(mgr.expire(now + Duration::from_secs(9), window).is_empty());
        let expired = mgr.expire(now + Duration::from_secs(12), window);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].wire_id, a);
        assert!(mgr.is_retired(a), "expiry is an end — the id retires");
        assert!(!mgr.is_retired(b));
        assert_eq!(
            mgr.resume(token_a, 1, 0, 0, now + Duration::from_secs(12)),
            ResumeOutcome::UnknownToken,
            "an expired token is gone"
        );
        assert_eq!(mgr.parked_len(), 1);
        assert!(mgr.ended(c).is_none(), "the cached end expired too");
        assert_eq!(mgr.cached_outcomes(), 0);
    }

    #[test]
    fn tokens_are_unique_per_manager() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let id = mgr.open(0, 1, 1, now);
            assert!(seen.insert(mgr.get(id).expect("live").token));
            mgr.end(id, WireReport::default(), Vec::new(), now);
        }
    }

    #[test]
    fn recovery_inserts_park_and_replay_the_id_and_token_streams() {
        // Simulate what log recovery rebuilds: a fresh manager that must
        // continue a crashed manager's id/token sequences exactly.
        let mut crashed = SessionManager::new();
        let now = Instant::now();
        let a = crashed.open(0, 1, 10, now);
        let b = crashed.open(0, 2, 10, now);
        let token_b = crashed.get(b).expect("live").token;
        // The token the crashed manager would have issued next.
        let probe = crashed.open(0, 9, 1, now);
        let next_token_before_crash = crashed.get(probe).expect("live").token;

        let mut recovered = SessionManager::new();
        recovered.skip_tokens(2); // two opens counted from the log
        recovered.ensure_next_id(b + 1);
        let mut session = NetSession::new(b, token_b, usize::MAX, 2, 10, now);
        session.next_seq = 3;
        session.samples_received = 30;
        assert!(recovered.insert_parked(session, now));
        assert_eq!(recovered.parked_len(), 1);
        assert_eq!(
            recovered.resume(token_b, 2, 3, 4, now),
            ResumeOutcome::Resumed(b)
        );
        let s = recovered.get(b).expect("re-attached");
        assert_eq!((s.conn, s.next_seq, s.samples_received), (4, 3, 30));

        // New ids continue after the recovered maximum; new tokens continue
        // the crashed generator's sequence.
        let c = recovered.open(0, 3, 10, now);
        assert_eq!(c, b + 1, "recovered ids must never be reassigned");
        assert_eq!(
            recovered.get(c).expect("live").token,
            next_token_before_crash,
            "the token stream must continue exactly where the crash left it"
        );
        let _ = a;
    }

    #[test]
    fn buffered_totals_and_detached_access_cover_live_and_parked_sessions() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let a = mgr.open(0, 1, 10, now);
        let b = mgr.open(1, 2, 10, now);
        mgr.get_mut(a).expect("live").pending.extend([0; 5]);
        mgr.get_mut(b).expect("live").pending.extend([0; 7]);
        assert_eq!(mgr.total_buffered_samples(), 12);
        assert_eq!(
            mgr.get(a).expect("live").priority,
            SessionPriority::Normal,
            "sessions open at normal priority"
        );
        assert!(SessionPriority::Critical > SessionPriority::Normal);

        // Parking keeps the buffer, it does not free it: the global ledger
        // still counts parked pending samples.
        let token_b = mgr.get(b).expect("live").token;
        assert!(mgr.park(b, now));
        assert_eq!(mgr.total_buffered_samples(), 12);
        let parked: Vec<u64> = mgr
            .entries()
            .filter(|(state, _)| matches!(state, SessionState::Parked(_)))
            .map(|(_, s)| s.token)
            .collect();
        assert_eq!(parked, vec![token_b]);
        assert_eq!(mgr.entry_mut(b).expect("parked").1.buffered(), 7);

        // Shedding a parked session's tail shows up in the recount.
        mgr.entry_mut(b).expect("parked").1.pending.truncate(2);
        assert_eq!(mgr.total_buffered_samples(), 7);
        assert!(mgr.get(b).is_none(), "a parked session is not attached");
        assert!(mgr.entry_mut(0xDEAD).is_none());

        // Ending frees the buffer.
        assert!(mgr.end(a, WireReport::default(), Vec::new(), now));
        assert_eq!(mgr.total_buffered_samples(), 2);
    }

    #[test]
    fn phases_expose_the_hub_handle_only_once_streaming() {
        let mut mgr = SessionManager::new();
        let id = mgr.open(3, 9, 64, Instant::now());
        let s = mgr.get_mut(id).expect("live");
        assert!(s.hub_id().is_none());
        assert_eq!(s.buffered(), 0);
        s.pending.extend([0; 5]);
        assert_eq!(s.buffered(), 5);
    }
}

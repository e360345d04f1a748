//! Session lifecycle management for the gateway.
//!
//! One [`NetSession`] tracks a patient stream from the wire side:
//!
//! ```text
//!  OpenSession           calib_len samples buffered      CloseSession /
//!  ───────────▶ Calibrating ───────────────────▶ Streaming ─────────▶ gone
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
//! ## Resume
//!
//! When a connection dies with live sessions on it, those sessions are
//! **detached** rather than destroyed: the [`NetSession`] (and with it the
//! hub session holding the calibrated `PeakThresholds` and the stream
//! position) parks in a side table keyed by its resume token. A client that
//! reconnects within the retention window re-attaches with
//! [`crate::proto::Frame::ResumeSession`] and continues at the sequence
//! number the gateway reports — no re-calibration, no replayed samples.
//! Detached sessions the window expires are discarded and their wire ids
//! retired like any other end.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// How many ended-session ids the manager remembers for race tolerance.
/// In-flight frames for an ended session can only be a connection's
/// receive-buffer worth of traffic behind, so a small recent window
/// suffices; the cap keeps a long-running gateway's memory flat.
const RETIRED_CAP: usize = 4096;

use hbc_core::SessionId;

/// How much a session's buffered telemetry is worth protecting when the
/// gateway sheds load under its global memory budget.
///
/// Priority is **derived from the recent outcome stream** (see
/// `StreamHub::recent_abnormal`): a session whose recent beats include an
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
    /// Index of the connection that currently owns the session.
    pub conn: usize,
    /// Patient identifier from the open request.
    pub patient_id: u32,
    /// Lifecycle phase.
    pub phase: SessionPhase,
    /// Decoded millivolt samples received but not yet consumed by the hub.
    /// Bounded by the credit budget for well-behaved senders.
    pub pending: Vec<f64>,
    /// Next expected [`crate::proto::Frame::Samples`] sequence number.
    pub next_seq: u32,
    /// Hub outcomes already forwarded to the client.
    pub outcomes_sent: usize,
    /// Samples consumed by the hub since the last credit grant.
    pub consumed_since_grant: usize,
    /// Total samples received over the wire.
    pub samples_received: u64,
    /// Last time a frame touched this session (drives eviction).
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

/// A session parked after its connection died, waiting for a
/// [`crate::proto::Frame::ResumeSession`] within the retention window.
#[derive(Debug)]
struct DetachedSession {
    session: NetSession,
    /// When the session was detached; drives retention expiry.
    since: Instant,
}

/// What [`SessionManager::resume`] decided.
#[derive(Debug, PartialEq, Eq)]
pub enum ResumeOutcome {
    /// Re-attached: the wire id of the session now owned by the new
    /// connection.
    Resumed(u32),
    /// No live or detached session carries this token (never issued, or
    /// the retention window elapsed and the session was discarded).
    UnknownToken,
    /// The token exists but belongs to a different patient id.
    WrongPatient,
}

/// Owns every live [`NetSession`] of a gateway, keyed by wire id.
#[derive(Debug, Default)]
pub struct SessionManager {
    /// Live sessions in wire-id order, so every sweep visits them
    /// deterministically without sorting.
    sessions: BTreeMap<u32, NetSession>,
    /// Detached-but-resumable sessions, keyed by resume token.
    detached: HashMap<u64, DetachedSession>,
    /// SplitMix64 state behind token issuance — deterministic per manager,
    /// unique per session; a correlation handle, not a security boundary.
    token_state: u64,
    /// Wire ids of recently ended sessions (closed or evicted). Ends are
    /// asynchronous, so a compliant peer can still have frames for such a
    /// session in flight — the reactor ignores those instead of treating
    /// them as violations. Ids are never reused, so membership is
    /// unambiguous; retention is capped at [`RETIRED_CAP`] (oldest ids
    /// forgotten first) so a long-running gateway's memory stays flat.
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

    /// Registers a new session in the calibrating phase and returns its
    /// wire id. Wire ids are assigned sequentially and never reused.
    pub fn open(&mut self, conn: usize, patient_id: u32, calib_len: usize, now: Instant) -> u32 {
        let wire_id = self.next_id;
        self.next_id += 1;
        let token = self.next_token();
        self.sessions.insert(
            wire_id,
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
            },
        );
        wire_id
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Looks a session up by wire id.
    pub fn get(&self, wire_id: u32) -> Option<&NetSession> {
        self.sessions.get(&wire_id)
    }

    /// Mutable lookup by wire id.
    pub fn get_mut(&mut self, wire_id: u32) -> Option<&mut NetSession> {
        self.sessions.get_mut(&wire_id)
    }

    /// Removes a session, returning its final state and remembering the id
    /// as retired (see [`Self::is_retired`]).
    pub fn remove(&mut self, wire_id: u32) -> Option<NetSession> {
        let removed = self.sessions.remove(&wire_id);
        if removed.is_some() {
            self.retire(wire_id);
        }
        removed
    }

    /// Whether `wire_id` belonged to a session that ended recently —
    /// frames racing an asynchronous end (eviction, connection teardown)
    /// are dropped rather than denied.
    pub fn is_retired(&self, wire_id: u32) -> bool {
        self.retired.contains(&wire_id)
    }

    /// Wire ids of every session owned by connection `conn`, in id order.
    pub fn ids_for_conn(&self, conn: usize) -> Vec<u32> {
        self.sessions
            .values()
            .filter(|s| s.conn == conn)
            .map(|s| s.wire_id)
            .collect()
    }

    /// Wire ids of every live session, in id order (deterministic sweeps).
    pub fn ids(&self) -> Vec<u32> {
        self.sessions.keys().copied().collect()
    }

    /// [`Self::ids`] into a caller-owned buffer (cleared first), so a sweep
    /// that lists the sessions every poll reuses one allocation.
    pub fn ids_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.sessions.keys().copied());
    }

    /// Wire ids whose last activity is older than `idle` seconds before
    /// `now`, in id order — the eviction candidates. Detached sessions are
    /// not idle, they are waiting (their clock is the retention window).
    pub fn idle_ids(&self, now: Instant, idle: Duration) -> Vec<u32> {
        self.sessions
            .values()
            .filter(|s| now.duration_since(s.last_activity) > idle)
            .map(|s| s.wire_id)
            .collect()
    }

    /// Parks a live session in the detached table (its connection died).
    /// The session keeps its hub handle — calibrated thresholds and stream
    /// position survive — and waits for a resume until the retention window
    /// expires. Returns whether the wire id was live.
    pub fn detach(&mut self, wire_id: u32, now: Instant) -> bool {
        let Some(session) = self.sessions.remove(&wire_id) else {
            return false;
        };
        self.detached.insert(
            session.token,
            DetachedSession {
                session,
                since: now,
            },
        );
        true
    }

    /// Number of sessions currently parked for resume.
    pub fn detached_len(&self) -> usize {
        self.detached.len()
    }

    /// Resume tokens of every parked session, in wire-id order
    /// (deterministic shedding sweeps).
    pub fn detached_tokens(&self) -> Vec<u64> {
        let mut parked: Vec<(u32, u64)> = self
            .detached
            .iter()
            .map(|(&token, d)| (d.session.wire_id, token))
            .collect();
        parked.sort_unstable();
        parked.into_iter().map(|(_, token)| token).collect()
    }

    /// A parked session's state, by resume token.
    pub fn detached_get(&self, token: u64) -> Option<&NetSession> {
        self.detached.get(&token).map(|d| &d.session)
    }

    /// Mutable access to a parked session — the shedding path drops
    /// buffered telemetry of detached normal-priority streams too.
    pub fn detached_get_mut(&mut self, token: u64) -> Option<&mut NetSession> {
        self.detached.get_mut(&token).map(|d| &mut d.session)
    }

    /// Samples buffered across every live **and** parked session — the
    /// recount behind the reactor's incremental global-memory ledger (the
    /// reactor audits its counter against this in debug builds).
    pub fn total_buffered_samples(&self) -> usize {
        self.sessions
            .values()
            .map(NetSession::buffered)
            .chain(self.detached.values().map(|d| d.session.buffered()))
            .sum()
    }

    /// Inserts a rebuilt session directly into the detached table — the
    /// durable-log recovery path: a gateway restarted on its log directory
    /// parks every recovered session here so the owning node can re-attach
    /// with the ordinary [`crate::proto::Frame::ResumeSession`] flow.
    pub fn insert_detached(&mut self, session: NetSession, since: Instant) {
        self.detached
            .insert(session.token, DetachedSession { session, since });
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
    /// the session is still live on it); either way the token holder wins.
    pub fn resume(
        &mut self,
        token: u64,
        patient_id: u32,
        conn: usize,
        now: Instant,
    ) -> ResumeOutcome {
        // Parked?
        if let Some(parked) = self.detached.get(&token) {
            if parked.session.patient_id != patient_id {
                return ResumeOutcome::WrongPatient;
            }
            let mut parked = self.detached.remove(&token).expect("present");
            parked.session.conn = conn;
            parked.session.last_activity = now;
            let wire_id = parked.session.wire_id;
            self.sessions.insert(wire_id, parked.session);
            return ResumeOutcome::Resumed(wire_id);
        }
        // Still live on a dying connection?
        let live = self
            .sessions
            .values()
            .find(|s| s.token == token)
            .map(|s| (s.wire_id, s.patient_id));
        match live {
            Some((_, pid)) if pid != patient_id => ResumeOutcome::WrongPatient,
            Some((wire_id, _)) => {
                let s = self.sessions.get_mut(&wire_id).expect("found above");
                s.conn = conn;
                s.last_activity = now;
                ResumeOutcome::Resumed(wire_id)
            }
            None => ResumeOutcome::UnknownToken,
        }
    }

    /// Removes every detached session older than `window`, retiring its
    /// wire id (stragglers and late resumes are then dropped / denied).
    /// Returns the expired sessions for the caller to dispose of
    /// (hub-session teardown).
    pub fn expire_detached(&mut self, now: Instant, window: Duration) -> Vec<NetSession> {
        let expired: Vec<u64> = self
            .detached
            .iter()
            .filter(|(_, d)| now.duration_since(d.since) > window)
            .map(|(&token, _)| token)
            .collect();
        let mut out: Vec<NetSession> = expired
            .into_iter()
            .map(|token| self.detached.remove(&token).expect("listed").session)
            .collect();
        out.sort_unstable_by_key(|s| s.wire_id);
        for s in &out {
            self.retire(s.wire_id);
        }
        out
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

    #[test]
    fn wire_ids_are_sequential_and_never_reused() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let a = mgr.open(0, 10, 100, now);
        let b = mgr.open(1, 11, 100, now);
        assert_eq!((a, b), (0, 1));
        mgr.remove(a).expect("live");
        let c = mgr.open(0, 12, 100, now);
        assert_eq!(c, 2, "removed ids must not be reassigned");
        assert_eq!(mgr.len(), 2);
        assert_eq!(mgr.ids(), vec![1, 2]);
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
            mgr.remove(id).expect("live");
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
    fn detach_then_resume_keeps_state_and_reassigns_the_connection() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let id = mgr.open(0, 42, 100, now);
        let token = mgr.get(id).expect("live").token;
        let s = mgr.get_mut(id).expect("live");
        s.next_seq = 7;
        s.samples_received = 700;

        assert!(mgr.detach(id, now));
        assert_eq!(mgr.len(), 0);
        assert_eq!(mgr.detached_len(), 1);
        assert!(
            !mgr.is_retired(id),
            "a detached session has not ended — its id must not be retired"
        );
        assert!(
            mgr.idle_ids(now + Duration::from_secs(3600), Duration::from_secs(1))
                .is_empty(),
            "detached sessions are not idle-eviction candidates"
        );

        assert_eq!(
            mgr.resume(token, 41, 3, now),
            ResumeOutcome::WrongPatient,
            "token + wrong patient must not re-attach"
        );
        assert_eq!(mgr.resume(token, 42, 3, now), ResumeOutcome::Resumed(id));
        let s = mgr.get(id).expect("re-attached");
        assert_eq!((s.conn, s.next_seq, s.samples_received), (3, 7, 700));
        assert_eq!(mgr.detached_len(), 0);
    }

    #[test]
    fn resume_of_a_still_live_session_is_a_takeover() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let id = mgr.open(0, 9, 64, now);
        let token = mgr.get(id).expect("live").token;
        assert_eq!(mgr.resume(token, 9, 5, now), ResumeOutcome::Resumed(id));
        assert_eq!(mgr.get(id).expect("live").conn, 5);
        assert_eq!(
            mgr.resume(0xBAD_70CEB, 9, 5, now),
            ResumeOutcome::UnknownToken
        );
    }

    #[test]
    fn detached_sessions_expire_after_the_window_and_retire_their_ids() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let a = mgr.open(0, 1, 10, now);
        let b = mgr.open(0, 2, 10, now);
        let token_a = mgr.get(a).expect("live").token;
        mgr.detach(a, now);
        mgr.detach(b, now + Duration::from_secs(5));

        let window = Duration::from_secs(10);
        assert!(mgr
            .expire_detached(now + Duration::from_secs(9), window)
            .is_empty());
        let expired = mgr.expire_detached(now + Duration::from_secs(12), window);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].wire_id, a);
        assert!(mgr.is_retired(a), "expiry is an end — the id retires");
        assert!(!mgr.is_retired(b));
        assert_eq!(
            mgr.resume(token_a, 1, 0, now + Duration::from_secs(12)),
            ResumeOutcome::UnknownToken,
            "an expired token is gone"
        );
        assert_eq!(mgr.detached_len(), 1);
    }

    #[test]
    fn tokens_are_unique_per_manager() {
        let mut mgr = SessionManager::new();
        let now = Instant::now();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let id = mgr.open(0, 1, 1, now);
            assert!(seen.insert(mgr.get(id).expect("live").token));
            mgr.remove(id);
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
        recovered.insert_detached(
            NetSession {
                wire_id: b,
                token: token_b,
                conn: usize::MAX,
                patient_id: 2,
                phase: SessionPhase::Calibrating { calib_len: 10 },
                pending: Vec::new(),
                next_seq: 3,
                outcomes_sent: 0,
                consumed_since_grant: 0,
                samples_received: 30,
                last_activity: now,
                priority: SessionPriority::Normal,
                oldest_pending_at: None,
                staged_anchor: None,
            },
            now,
        );
        assert_eq!(recovered.detached_len(), 1);
        assert_eq!(
            recovered.resume(token_b, 2, 4, now),
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
        mgr.get_mut(a).expect("live").pending.extend([0.0; 5]);
        mgr.get_mut(b).expect("live").pending.extend([0.0; 7]);
        assert_eq!(mgr.total_buffered_samples(), 12);
        assert_eq!(
            mgr.get(a).expect("live").priority,
            SessionPriority::Normal,
            "sessions open at normal priority"
        );
        assert!(SessionPriority::Critical > SessionPriority::Normal);

        // Parking moves the buffer, it does not free it: the global ledger
        // still counts detached pending samples.
        let token_b = mgr.get(b).expect("live").token;
        assert!(mgr.detach(b, now));
        assert_eq!(mgr.total_buffered_samples(), 12);
        assert_eq!(mgr.detached_tokens(), vec![token_b]);
        assert_eq!(mgr.detached_get(token_b).expect("parked").buffered(), 7);

        // Shedding a parked session's tail shows up in the recount.
        mgr.detached_get_mut(token_b)
            .expect("parked")
            .pending
            .truncate(2);
        assert_eq!(mgr.total_buffered_samples(), 7);
        assert!(mgr.detached_get(0xDEAD).is_none());
        assert!(mgr.detached_get_mut(0xDEAD).is_none());
    }

    #[test]
    fn phases_expose_the_hub_handle_only_once_streaming() {
        let mut mgr = SessionManager::new();
        let id = mgr.open(3, 9, 64, Instant::now());
        let s = mgr.get_mut(id).expect("live");
        assert!(s.hub_id().is_none());
        assert_eq!(s.buffered(), 0);
        s.pending.extend([0.0; 5]);
        assert_eq!(s.buffered(), 5);
    }
}

//! The gateway reactor: a single-threaded nonblocking TCP server that
//! terminates node connections and feeds the [`StreamHub`].
//!
//! ## Reactor
//!
//! [`Gateway::poll`] runs one sweep, and its cost follows its events rather
//! than the number of sessions. Every sweep reads every socket (until a
//! short read, or until it would block), decodes and handles frames, then
//! visits only the **ready** sessions, in wire-id order: those with an
//! accepted frame, pending samples left over from an earlier sweep, a skip
//! over the outbox cap, a resume rewind, credit owed for shed or dropped
//! samples, or a flag from the quiet-credit scan. The visit promotes a
//! session whose calibration stretch is complete (in the sweep that
//! completes it), stages at most one pending chunk per session into a
//! single [`StreamHub::ingest`] call (which fans decode and classification
//! out over `hbc-par` when the batch is large enough), forwards freshly
//! classified beats and grants credit.
//! An idle session costs no map lookup and no hub lock. The sweep then
//! releases dead and drained connections, parking their sessions for
//! resumption, and flushes write buffers.
//!
//! Housekeeping runs on a [`HOUSEKEEPING_TICK`] of 1 ms instead of every
//! sweep: accepting connections, the admin listener, idle eviction,
//! slow-peer reaping, resume-window expiry and the quiet-credit scan.
//! Their deadlines are seconds long, while a busy reactor sweeps every few
//! hundred microseconds. [`Gateway::run`] loops `poll` until a shutdown
//! flag flips, then reports [`GatewayStats`].
//!
//! Every accept, read and flush, here and in the admin surface, goes
//! through the crate's private `transport` module, which the chaos proxy
//! and the node client share: how a nonblocking read or write ends, when
//! an outbox compacts and how a stream is prepared are decided there once.
//! This module keeps the policy (which accept errors are fatal, what EOF
//! and a dead socket mean for a connection and its sessions).
//!
//! Each sweep reads the clock once, at the top of `poll`; every timestamp
//! and deadline of the sweep (activity, arrival anchors, parking and end
//! times, the tick, eviction, reaping and expiry) uses that reading. Only
//! the per-frame and per-ingest latency probes read the clock again.
//!
//! ## Credit-based flow control
//!
//! Every session holds a **credit budget** of `credit_budget` samples — the
//! most it may have sent but not yet had returned. The budget is granted
//! in full at [`Frame::SessionOpened`]. Samples the hub consumes (or the
//! gateway sheds or drops at its memory budget) become credit the gateway
//! *owes*, and a [`Frame::Credit`] returns all of it once one of three
//! rules holds:
//!
//! * the owed credit reaches the quantum `max(1, credit_budget / 64)`,
//!   which bounds how far acknowledgements lag;
//! * the sender's window as the gateway sees it (`budget − buffered −
//!   owed`) falls below `min(credit_budget, MAX_SAMPLES_PER_FRAME)`. A
//!   sender blocked on credit is short of one frame, and no frame is
//!   larger than that, so a blocked sender always gets its grant: the
//!   schedule cannot deadlock. Budgets up to `MAX_SAMPLES_PER_FRAME` meet
//!   this rule whenever anything is owed, so they are granted every sweep;
//! * the session has been quiet — nothing received, nothing consumed —
//!   for [`CREDIT_QUIET`], so a stopped or lock-step sender gets its whole
//!   budget back. Coalescing therefore needs a session's packets to
//!   arrive less than `CREDIT_QUIET` apart; sparser packets are granted
//!   one by one.
//!
//! A compliant sender therefore stalls when the gateway falls behind
//! instead of ballooning its buffers; a sender that overruns its credit
//! hits the configurable [`OverflowPolicy`]. Back-pressure composes
//! through the write side too: while a connection's outbox exceeds
//! `max_outbox_bytes` (a slow *reader*), the gateway stops consuming that
//! connection's sessions — so no new outcomes are produced, no credit is
//! granted, and the sender stalls at its budget while other sessions keep
//! flowing. Gateway-side memory per session stays bounded by the budget
//! plus one in-flight chunk.
//!
//! ## Durable ingest log
//!
//! With [`GatewayConfig::wal`] set, every session open, every *accepted*
//! `Samples` chunk (post credit-truncation, as ADC codes) and every
//! session end is appended to an `hbc_wal` segment log **before** the data
//! reaches the hub and before anything is acknowledged on the wire. Frame
//! handling stages the records; the sweep writes them as one group, with
//! one `write(2)`, before it feeds the hub, before a close feeds its
//! session's tail, and before it flushes any socket. A gateway re-bound
//! to the same log directory rebuilds the state of every session that was
//! open at the crash: the calibration
//! stretch is re-derived from the logged samples (same thresholds), the
//! whole logged stream is replayed through the hub in bounded rounds of
//! parallel [`StreamHub::ingest`] calls (bit-identical outcomes, by chunk
//! invariance), and the session is parked in the session table — the
//! owning node re-attaches with the ordinary [`Frame::ResumeSession`] flow,
//! without re-calibration and without resending what the gateway already
//! has. The log is folded record by record as it is read, so recovery
//! holds the open sessions' logged samples, never the whole log.
//!
//! ## Overload protection & self-supervision
//!
//! Credit bounds *one* session; this layer bounds the *gateway*:
//!
//! * **Admission control** — [`GatewayConfig::max_connections`],
//!   [`GatewayConfig::max_sessions`] (live + parked: a parked session
//!   still holds resources) and [`GatewayConfig::global_memory_budget`]
//!   (sample buffers of live and parked sessions, connection outboxes and
//!   the cached reports of ended sessions, accounted in one ledger). Past
//!   a limit, [`Frame::OpenSession`] and fresh connections get
//!   [`Frame::Busy`] with a `retry_after_ms` hint instead of a silent
//!   accept.
//!   [`Frame::ResumeSession`] is admission-exempt: a parked session
//!   re-attaching is count-neutral, so recovery traffic is never locked out
//!   by the very overload that caused it.
//! * **Priority-aware shedding** — each streaming session's priority is
//!   refreshed from its recent outcome window (see
//!   [`SessionPriority`]): when accepting a frame would
//!   breach the global budget, the gateway first drops buffered telemetry
//!   of *normal-outcome* sessions (largest buffer first, live or parked),
//!   returning credit for the shed samples so their senders degrade instead
//!   of deadlocking. ARR-critical streams are shed last, so the safety
//!   invariant *abnormal ⇒ routed onward* survives overload.
//! * **Slow-peer defenses** — connections that never complete the
//!   session-level handshake within [`GatewayConfig::handshake_timeout`]
//!   are reaped, and established connections must make minimum progress
//!   per [`GatewayConfig::progress_interval`]: a trickle sender (bytes
//!   parked mid-frame in the decoder, reads below
//!   [`GatewayConfig::min_progress_bytes`]) or a frozen reader (queued
//!   outbox, zero write progress) is detached cleanly through the ordinary
//!   resume path.
//! * **Watchdog + health** — every sweep stamps a shared [`Heartbeat`];
//!   the run loop records the poll-latency high-water mark and counts
//!   sweeps over [`GatewayConfig::watchdog_budget`]
//!   ([`GatewayStats::watchdog_stalls`]). [`Gateway::health`] snapshots
//!   session counts and budget utilization for supervisors; the shed/deny
//!   counters are in [`Gateway::stats`].
//!
//! ## Observability
//!
//! The reactor carries an `hbc-obs` telemetry substrate, cheap enough to
//! stay on in release builds and allocation-free in steady state: log2
//! latency histograms for sweeps, per-frame handling, batched hub ingests
//! and the headline **first-ADC-sample-to-outcome** path, plus a bounded
//! [`TraceRing`] of typed lifecycle events (opens, closes, detach/resume,
//! sheds, reaps, durable-log appends, hot-swaps, watchdog stalls).
//! [`Gateway::metrics_snapshot`] assembles every source — reactor, hub,
//! per-stage firmware timings and the durable log — into one
//! [`MetricsSnapshot`]; [`Gateway::trace_dump`] returns the retained
//! timeline. With [`GatewayConfig::admin_addr`] set, a second listener
//! serves the same data over HTTP: `GET /metrics` (Prometheus text),
//! `/metrics.json`, `/health` and `/trace`. Instrumentation never changes
//! outcomes: every classification path stays bit-identical with telemetry
//! enabled.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbc_core::{SessionId, StreamHub};
use hbc_embedded::{AdcModel, WbsnFirmware};
use hbc_obs::{round_micros, Histogram, MetricsSnapshot, TraceEvent, TraceRecord, TraceRing};
use hbc_wal::{Wal, WalConfig, WalRecord};

mod admin;

use admin::AdminConn;

use crate::proto::{
    encode_outcomes_into, wire_adc, Frame, FrameDecoder, WireOutcome, WireReport,
    MAX_SAMPLES_PER_FRAME, PROTOCOL_VERSION,
};
use crate::replay::{self, promote};
use crate::session::{ResumeOutcome, SessionManager, SessionPhase, SessionPriority, SessionState};
use crate::transport::{self, Accepted, Outbox, ReadEnd};

/// Bytes one buffered sample occupies gateway-side: sessions buffer and
/// stage the wire's `i16` ADC codes (4× the signal of `f64`s per budget).
const SAMPLE_BYTES: usize = std::mem::size_of::<i16>();

/// Most beats one [`Frame::Outcomes`] carries; a longer tail (a resume
/// rewind, a re-fetched history) goes out in several frames.
const OUTCOMES_PER_FRAME: usize = 512;

/// Size of the reactor's one socket read buffer: the most one `read`
/// takes from a connection.
const READ_CHUNK: usize = 16 * 1024;

/// Capacity of the trace ring: older events are overwritten once it is
/// full ([`TraceRing::dropped`] counts the overwrites).
const TRACE_CAPACITY: usize = 4096;

/// Length of one poll-latency accounting window: the windowed high-water
/// mark ([`GatewayStats::poll_recent_high_water_micros`]) covers roughly
/// the last two.
const POLL_WINDOW: Duration = Duration::from_secs(10);

/// Period of the reactor's housekeeping tick: accepting connections, the
/// admin listener, idle eviction, slow-peer reaping, resume-window expiry
/// and the quiet-credit scan run only on sweeps where a tick is due. Their
/// deadlines are seconds long; a busy reactor sweeps every few hundred
/// microseconds, so running them every sweep would be pure overhead.
pub const HOUSEKEEPING_TICK: Duration = Duration::from_millis(1);

/// How long a session must be quiet — no frame received, nothing consumed
/// — before it is granted whatever credit it is owed, however little. A
/// stopped or lock-step sender thereby gets its whole budget back. The
/// quiet-credit scan runs on the [`HOUSEKEEPING_TICK`], so the grant
/// follows within a tick of the deadline.
///
/// Coalescing needs a session's packets to arrive less than this apart: a
/// sender with longer gaps is granted once per packet, each grant delayed
/// by the deadline. The value is two and a half packet periods of the
/// paper's node, which sends one 36-sample packet every 100 ms at 360 Hz,
/// so a node streaming in real time never looks quiet between packets.
pub const CREDIT_QUIET: Duration = Duration::from_millis(250);

/// The credit quantum is this share of the budget: owed credit is granted
/// once it reaches `max(1, credit_budget / CREDIT_QUANTUM_SHARE)` samples
/// (1 024 at the default budget), which bounds how far acks lag.
const CREDIT_QUANTUM_SHARE: usize = 64;

/// The grant schedule: whether a session owing `owed` samples of credit,
/// with `buffered` samples still pending and quiet for `quiet_for`, is
/// granted them now. Any one rule suffices (see the module docs):
///
/// * `owed` reached the quantum;
/// * the sender's window as the gateway sees it, `budget − buffered −
///   owed`, is below `min(budget, MAX_SAMPLES_PER_FRAME)`. The decoder
///   rejects larger frames, so a sender blocked on credit always falls
///   below this line and is granted: the deadlock guard;
/// * the session has been quiet for [`CREDIT_QUIET`].
fn credit_due(budget: usize, buffered: usize, owed: usize, quiet_for: Duration) -> bool {
    let quantum = (budget / CREDIT_QUANTUM_SHARE).max(1);
    let window = budget.saturating_sub(buffered + owed);
    owed > 0
        && (owed >= quantum
            || window < budget.min(MAX_SAMPLES_PER_FRAME)
            || quiet_for >= CREDIT_QUIET)
}

/// Linux `errno` values of descriptor and buffer exhaustion: `EMFILE`,
/// `ENFILE` and `ENOBUFS`. `ENOMEM` needs no entry: the standard library
/// maps it to [`ErrorKind::OutOfMemory`]. Other platforms number these
/// differently, so the table is consulted on Linux only; elsewhere just the
/// `ErrorKind` classes are transient.
const EXHAUSTION_ERRNOS: [i32; 3] = [24, 23, 105];

/// Whether a failed `accept` concerns only the connection it was about to
/// yield or a passing resource shortage, rather than the listener: a peer
/// that reset before it was accepted, or descriptors and buffers running
/// out under a connection storm. The reactor counts these in
/// [`GatewayStats::accept_errors`] and retries on the next tick; any other
/// error is fatal.
fn transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset | ErrorKind::OutOfMemory
    ) || (cfg!(target_os = "linux")
        && e.raw_os_error()
            .is_some_and(|code| EXHAUSTION_ERRNOS.contains(&code)))
}

/// What the gateway does to a sender that overruns its credit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Send [`Frame::Deny`] and drop the connection (default: an overrun is
    /// a protocol violation).
    Disconnect,
    /// Accept up to the budget and silently drop the excess samples (the
    /// session's stream develops a gap; its own results degrade, nobody
    /// else's do).
    DropExcess,
}

/// Tunables of the gateway reactor.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Per-session credit budget in samples: the most a sender may have in
    /// flight (sent but not yet returned by a [`Frame::Credit`]). Consumed
    /// samples are granted back on the schedule in the module docs: at
    /// once for budgets up to `MAX_SAMPLES_PER_FRAME`, in quanta of
    /// `budget / 64` (or when the sender's window runs low, or the session
    /// goes quiet) above that.
    pub credit_budget: usize,
    /// Write-buffer cap per connection; beyond it the gateway stops
    /// consuming that connection's sessions (slow-reader back-pressure).
    pub max_outbox_bytes: usize,
    /// Sessions without any frame for longer than this are evicted (drained,
    /// reported, freed).
    pub idle_timeout: Duration,
    /// Credit-overrun policy.
    pub overflow: OverflowPolicy,
    /// Most samples one session feeds into the hub per reactor sweep; keeps
    /// single sweeps short so no session can monopolise the reactor.
    pub max_ingest_per_poll: usize,
    /// How long a session whose connection died stays resumable (calibrated
    /// thresholds + stream position parked for [`Frame::ResumeSession`]).
    /// The window also bounds the final-report cache: a client whose link
    /// died *after* its `CloseSession` was processed can re-fetch the
    /// cached report within the same window. With `Duration::ZERO`, parked
    /// sessions and cached reports expire at the next housekeeping tick.
    pub resume_window: Duration,
    /// Durable ingest log. `None` (the default) keeps the pre-log
    /// behaviour: a process crash loses every in-flight stream. With a
    /// config, accepted samples are appended to the segment log before
    /// ingestion and [`Gateway::bind`] recovers crashed sessions from it.
    pub wal: Option<WalConfig>,
    /// Most concurrent connections. Newcomers past the cap are answered
    /// with [`Frame::Busy`] and closed once it flushes; their slot frees
    /// immediately after.
    pub max_connections: usize,
    /// Most concurrent sessions, live **plus parked**: a parked session
    /// still holds buffers and a resume claim on the hub.
    /// [`Frame::OpenSession`] past the cap gets [`Frame::Busy`];
    /// [`Frame::ResumeSession`] is exempt (parked → live is count-neutral),
    /// so recovery is never locked out by the overload that caused it.
    pub max_sessions: usize,
    /// Global memory budget in bytes, accounted in one ledger: buffered
    /// samples of live and parked sessions, connection outboxes and the
    /// cached reports of ended sessions. Opens whose calibration stretch no
    /// longer fits get [`Frame::Busy`]; accepted traffic that would breach
    /// the budget triggers priority-aware shedding first and drops the
    /// remainder of the incoming frame last (see
    /// [`GatewayStats::samples_shed`]).
    pub global_memory_budget: usize,
    /// The retry hint embedded in [`Frame::Busy`] responses; clients pause
    /// this long before retrying admission.
    pub busy_retry_after: Duration,
    /// Connections that have not completed a session-level handshake
    /// (open, resume or report re-fetch) within this deadline are reaped —
    /// a pre-session slot cannot be held open by a silent or trickling
    /// peer. `Duration::ZERO` disables the check.
    pub handshake_timeout: Duration,
    /// Length of one minimum-progress accounting interval for established
    /// connections (see [`GatewayConfig::min_progress_bytes`]).
    /// `Duration::ZERO` disables the check.
    pub progress_interval: Duration,
    /// A connection parking bytes mid-frame in its decoder that reads
    /// fewer than this many bytes over a whole progress interval is a
    /// trickle sender; a connection with a queued outbox and zero write
    /// progress over an interval is a frozen reader. Either is reaped and
    /// its sessions detach through the ordinary resume path.
    pub min_progress_bytes: usize,
    /// Reactor sweeps longer than this are counted as watchdog stalls
    /// ([`GatewayStats::watchdog_stalls`]) by the run loop.
    pub watchdog_budget: Duration,
    /// Optional admin listener address. When set, [`Gateway::bind`] opens a
    /// second (nonblocking) listener serving `GET /metrics` (Prometheus
    /// text exposition), `/metrics.json`, `/health` and `/trace` over
    /// HTTP/1.0 — a scrape surface that never mixes with the node protocol.
    /// Bind to port 0 and read [`Gateway::admin_addr`] for tests.
    pub admin_addr: Option<SocketAddr>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            credit_budget: 1 << 16,
            max_outbox_bytes: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            overflow: OverflowPolicy::Disconnect,
            max_ingest_per_poll: 8192,
            resume_window: Duration::from_secs(30),
            wal: None,
            max_connections: 1024,
            max_sessions: 1024,
            global_memory_budget: 64 << 20,
            busy_retry_after: Duration::from_millis(250),
            handshake_timeout: Duration::from_secs(10),
            progress_interval: Duration::from_secs(30),
            min_progress_bytes: 1,
            watchdog_budget: Duration::from_secs(1),
            admin_addr: None,
        }
    }
}

hbc_obs::metric_struct! {
    prefix = "hbc_gateway_";
    /// Counters the reactor maintains; returned by [`Gateway::run`] and readable
    /// any time via [`Gateway::stats`]. Every field is served on `/metrics`
    /// (see [`hbc_obs::metric_struct!`] for the naming rule).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct GatewayStats {
        /// Connections accepted.
        counter pub connections: u64,
        /// Frames decoded from clients.
        counter pub frames_in: u64,
        /// Frames sent to clients.
        counter pub frames_out: u64,
        /// Samples accepted into session buffers.
        counter pub samples_in: u64,
        /// Bytes read from client connections, framing included.
        ///
        /// Divided by [`GatewayStats::samples_in`] it is the uplink's wire
        /// cost per sample.
        counter pub wire_bytes_in: u64,
        /// Bytes written to client connections, framing included.
        counter pub wire_bytes_out: u64,
        /// Samples discarded without entering a session buffer.
        ///
        /// Overflow truncation under [`OverflowPolicy::DropExcess`], plus
        /// stragglers racing an asynchronous session end (eviction) under
        /// either policy.
        counter pub samples_dropped: u64,
        /// Beat outcomes forwarded to clients.
        counter pub beats_out: u64,
        /// Sessions opened.
        counter pub sessions_opened: u64,
        /// Sessions closed by request.
        counter pub sessions_closed: u64,
        /// Sessions evicted by the idle timeout.
        counter pub sessions_evicted: u64,
        /// Sessions parked for resume when their connection died.
        counter pub sessions_detached: u64,
        /// Sessions re-attached via ResumeSession.
        ///
        /// See [`Frame::ResumeSession`].
        counter pub sessions_resumed: u64,
        /// Detached sessions dropped at the end of the retention window.
        counter pub sessions_expired: u64,
        /// Sessions rebuilt from the durable log at bind time.
        ///
        /// They are parked for resume.
        counter pub sessions_recovered: u64,
        /// Cached final reports re-served after a lost link.
        ///
        /// A client whose connection died around its `CloseSession` gets
        /// the report again on resume or on a retried close of an
        /// already-ended session.
        counter pub reports_refetched: u64,
        /// Durable-log append failures (the log disables itself on the first).
        ///
        /// Service continues undurably, so a non-zero count means the log
        /// on disk is a prefix of the accepted traffic.
        counter pub wal_errors: u64,
        /// Connections denied (handshake, protocol or credit violations).
        counter pub denials: u64,
        /// Largest per-session sample buffer ever observed.
        ///
        /// The bounded-memory witness: for compliant senders it never
        /// exceeds [`GatewayConfig::credit_budget`].
        gauge pub peak_buffered_samples: usize,
        /// Admission denials answered with Busy.
        ///
        /// [`Frame::Busy`] answers the connection cap, the session cap and
        /// the global memory budget. Distinct from
        /// [`GatewayStats::denials`]: a Busy peer did nothing wrong and is
        /// invited to retry.
        counter pub busy_denials: u64,
        /// Shed events under the global memory budget.
        ///
        /// One per victim session whose buffered tail was dropped.
        counter pub sheds: u64,
        /// Samples shed from buffered sessions under the memory budget.
        ///
        /// Normal-priority sessions go first. Victims get their credit
        /// back, so their streams develop a gap instead of a deadlock.
        counter pub samples_shed: u64,
        /// Connections reaped at the pre-session handshake deadline.
        ///
        /// See [`GatewayConfig::handshake_timeout`].
        counter pub handshake_reaps: u64,
        /// Connections reaped by the minimum-progress check.
        ///
        /// Trickle senders and frozen readers; their sessions detach
        /// through the ordinary resume path.
        counter pub progress_reaps: u64,
        /// Sweeps that exceeded the watchdog budget.
        ///
        /// [`GatewayConfig::watchdog_budget`], as observed by the run loop.
        counter pub watchdog_stalls: u64,
        /// Worst sweep latency ever observed, in microseconds.
        ///
        /// The poll-latency high-water mark of the run loop.
        gauge pub poll_high_water_micros: u64,
        /// Worst sweep latency over roughly the last two poll windows.
        ///
        /// In microseconds, over 10 s poll windows: the *windowed*
        /// counterpart of [`GatewayStats::poll_high_water_micros`]. It decays once a slow
        /// sweep ages out, so a supervisor can tell a long-healed startup
        /// hiccup from an ongoing stall.
        gauge pub poll_recent_high_water_micros: u64,
        /// Largest total of buffered sample bytes ever observed.
        ///
        /// Live plus parked sessions: the *global* bounded-memory witness
        /// alongside the per-session
        /// [`GatewayStats::peak_buffered_samples`].
        gauge pub peak_buffered_bytes: usize,
        /// Internal invariant violations skipped at runtime.
        ///
        /// A listed session that vanished mid-sweep, a staged ingest the
        /// hub rejected, … Debug builds panic at the offending site;
        /// release builds count here so the skips stay visible instead of
        /// silent.
        counter pub internal_skips: u64,
        /// Credit frames sent.
        ///
        /// One per grant on the schedule of [`GatewayConfig::credit_budget`]:
        /// divided by [`GatewayStats::samples_in`] it is how often the
        /// gateway acknowledges.
        counter pub credit_grants: u64,
        /// Failed accepts that did not stop the gateway.
        ///
        /// A peer that reset before it was accepted, or descriptors and
        /// buffers running out under a connection storm. The listener
        /// retries on the next housekeeping tick.
        counter pub accept_errors: u64,
    }
}

/// A cloneable liveness probe of the reactor, stamped at the start of every
/// sweep. Obtain one with [`Gateway::heartbeat`] *before* handing the
/// gateway to [`Gateway::run`]; a supervisor thread then detects a stalled
/// reactor (a poll iteration that never returns) from outside, instead of
/// inferring it from silence.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    inner: Arc<HeartbeatInner>,
}

#[derive(Debug)]
struct HeartbeatInner {
    /// Anchor the beat offsets are measured from.
    epoch: Instant,
    /// Microseconds after `epoch` at which the latest sweep started.
    last_beat: AtomicU64,
    /// Sweeps begun.
    polls: AtomicU64,
}

impl Heartbeat {
    fn new(epoch: Instant) -> Self {
        Heartbeat {
            inner: Arc::new(HeartbeatInner {
                epoch,
                last_beat: AtomicU64::new(0),
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// Stamps `now`, the sweep's clock reading; called by the reactor at the
    /// start of every sweep.
    fn beat(&self, now: Instant) {
        let micros =
            u64::try_from(now.duration_since(self.inner.epoch).as_micros()).unwrap_or(u64::MAX);
        self.inner.last_beat.store(micros, Ordering::Release);
        self.inner.polls.fetch_add(1, Ordering::Release);
    }

    /// Sweeps begun so far.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Acquire)
    }

    /// Whether the reactor has gone longer than `tolerance` without
    /// starting a sweep — including the case where it never started one.
    pub fn stalled(&self, tolerance: Duration) -> bool {
        let last = Duration::from_micros(self.inner.last_beat.load(Ordering::Acquire));
        self.inner.epoch.elapsed().saturating_sub(last) > tolerance
    }
}

hbc_obs::metric_struct! {
    prefix = "hbc_gateway_";
    /// A point-in-time health snapshot of a gateway, from [`Gateway::health`]:
    /// the gauges a supervisor needs to decide whether the reactor is alive
    /// and how close it is to its global memory budget. Every field is served
    /// on `/metrics`; the overload counters (sheds, denials, stalls, log
    /// errors) and the poll-latency high-water marks are in
    /// [`Gateway::stats`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct GatewayHealth {
        /// Live wire sessions.
        gauge pub live_sessions: usize,
        /// Sessions parked for resume.
        gauge pub parked_sessions: usize,
        /// Open connections, including ones draining toward a close.
        gauge pub open_connections: usize,
        /// Bytes of buffered samples across live and parked sessions.
        gauge pub buffered_bytes: usize,
        /// Bytes charged against the global memory budget.
        ///
        /// Buffered samples, connection outboxes and cached reports.
        gauge pub memory_used_bytes: usize,
        /// The configured global memory budget.
        ///
        /// [`GatewayConfig::global_memory_budget`], in bytes.
        gauge pub memory_budget_bytes: usize,
        /// Fraction of the global memory budget in use.
        ///
        /// May momentarily exceed 1.0 while a shed sweep is catching up.
        gauge pub budget_utilization: f64,
        /// Bytes the durable ingest log occupies across its segments.
        ///
        /// `0` when no log is configured (or it was disabled by an append
        /// failure).
        gauge pub wal_log_bytes: u64,
        /// Whether the durable log is still accepting appends (1/0).
        ///
        /// `0` after an append failure: the gateway gave up on the log and
        /// runs undurably (see [`GatewayStats::wal_errors`]).
        gauge pub wal_active: u8,
    }
}

struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbox: Outbox,
    greeted: bool,
    /// Outbox still flushing, no further reads; reaped once drained.
    closing: bool,
    /// Socket gone; reaped immediately.
    dead: bool,
    /// The connection completed a session-level handshake (opened, resumed
    /// or re-fetched a session) and graduated from the handshake deadline
    /// to the minimum-progress check.
    established: bool,
    /// Bytes read since the current progress interval began.
    read_since_check: usize,
    /// Outbox bytes flushed since the current progress interval began.
    wrote_since_check: usize,
    /// When the current minimum-progress interval began; until the
    /// connection is established, when it was accepted (the handshake
    /// deadline runs from it).
    checked_at: Instant,
}

hbc_obs::metric_struct! {
    prefix = "hbc_gateway_";
    /// The reactor's latency histograms, served on `/metrics`.
    #[derive(Debug, Default)]
    struct GatewayLatency {
        /// Latency of one reactor sweep, in microseconds.
        histogram sweep_micros: Histogram,
        /// Latency of handling one decoded frame, in microseconds.
        histogram frame_micros: Histogram,
        /// Latency of one batched hub ingest issued by the sweep.
        ///
        /// One [`StreamHub::ingest`] call, in microseconds.
        histogram ingest_batch_micros: Histogram,
        /// First-ADC-sample-to-outcome latency, in microseconds.
        ///
        /// The headline path: from the arrival of the oldest sample
        /// buffered for a session to the sweep that forwarded the outcomes
        /// its chunk produced.
        histogram beat_to_outcome_micros: Histogram,
    }
}

/// The gateway's telemetry state: latency histograms, the bounded trace
/// ring and the rotation bookkeeping behind the windowed poll high-water
/// mark. Everything here is fixed-size after construction; recording is
/// allocation-free.
struct GatewayObs {
    /// Reactor latency histograms.
    latency: GatewayLatency,
    /// Bounded ring of typed reactor events.
    trace: TraceRing,
    /// When the current poll-latency window began.
    window_started: Instant,
    /// Worst sweep latency inside the current window, in microseconds.
    window_max_micros: u64,
    /// Worst sweep latency of the previous (complete) window.
    prev_window_max_micros: u64,
}

impl GatewayObs {
    fn new(now: Instant) -> Self {
        GatewayObs {
            latency: GatewayLatency::default(),
            trace: TraceRing::new(TRACE_CAPACITY),
            window_started: now,
            window_max_micros: 0,
            prev_window_max_micros: 0,
        }
    }
}

/// Everything [`Gateway::run_with_report`] hands back at shutdown: the
/// reactor counters, a final [`MetricsSnapshot`] and the retained trace
/// timeline.
#[derive(Debug, Clone)]
pub struct GatewayReport {
    /// Final reactor counters (what [`Gateway::run`] alone returns).
    pub stats: GatewayStats,
    /// Final metrics snapshot, as [`Gateway::metrics_snapshot`] would have
    /// produced it at the moment of shutdown.
    pub metrics: MetricsSnapshot,
    /// The retained trace timeline, oldest first.
    pub trace: Vec<TraceRecord>,
}

/// The TCP ingestion gateway: owns the listener, the connections and the
/// [`StreamHub`] every session streams into.
pub struct Gateway<'fw> {
    listener: TcpListener,
    hub: StreamHub<'fw, AdcModel>,
    fs_millihertz: u32,
    config: GatewayConfig,
    conns: Vec<Option<Connection>>,
    sessions: SessionManager,
    stats: GatewayStats,
    /// Sessions with work for the next sweep: a frame accepted, pending
    /// samples left over, a skip over the outbox cap, a resume rewind,
    /// credit owed for shed or dropped samples, a quiet-credit flag. May
    /// hold duplicates and ids of sessions that ended since; each sweep
    /// sorts and dedups it into `sweep`.
    ready: Vec<u32>,
    /// Per-sweep scratch, reused so a warm sweep allocates nothing: the
    /// ready session ids of the current sweep, sorted and unique,
    sweep: Vec<u32>,
    /// the socket read buffer (one connection's reads at a time),
    read_buf: Box<[u8]>,
    /// the frames decoded from one connection,
    frames: Vec<Frame>,
    /// one staging slot per session fed in this sweep (the first `n` slots
    /// are the batch; each keeps its sample buffer's capacity across
    /// sweeps),
    staged: Vec<(SessionId, Vec<i16>)>,
    /// the sessions whose calibration stretch completed in this sweep,
    promoting: Vec<u32>,
    /// and the outcome tail being forwarded to one session.
    outcomes: Vec<WireOutcome>,
    /// Durable ingest log, when configured. `None` after an append failure
    /// (see [`GatewayStats::wal_errors`]).
    wal: Option<Wal>,
    /// Incremental ledger of samples buffered across live **and** parked
    /// sessions — the sample-buffer share of the global memory budget,
    /// maintained at every mutation site and audited against
    /// [`SessionManager::total_buffered_samples`] in debug builds.
    buffered_samples: usize,
    /// Liveness probe stamped at the start of every sweep.
    heartbeat: Heartbeat,
    /// When the next housekeeping tick is due (see [`HOUSEKEEPING_TICK`]).
    next_tick: Instant,
    /// The clock reading of the current sweep, taken once at the top of
    /// [`Gateway::poll`] (at bind time before the first sweep): every
    /// timestamp and deadline of the sweep uses it.
    now: Instant,
    /// Telemetry: latency histograms, the trace ring and the poll-window
    /// rotation state.
    obs: GatewayObs,
    /// Optional admin listener serving metrics/health/trace over HTTP.
    admin: Option<TcpListener>,
    /// In-flight admin exchanges.
    admin_conns: Vec<AdminConn>,
}

impl<'fw> Gateway<'fw> {
    /// Binds the gateway and prepares a hub serving `firmware` sessions at
    /// sampling rate `fs`.
    ///
    /// With [`GatewayConfig::wal`] set, the durable log is opened (its
    /// directory created if needed), a torn tail from a previous crash is
    /// truncated away, and every session the log records as still open is
    /// rebuilt: thresholds re-derived from the logged calibration stretch,
    /// the logged stream replayed through the hub (bit-identical to the
    /// pre-crash ingestion) and the session parked for
    /// [`Frame::ResumeSession`] under its original token, wire id and
    /// stream position. [`GatewayStats::sessions_recovered`] counts the
    /// rebuilt sessions.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener and filesystem
    /// errors from opening the log. A log in another format is refused
    /// untouched: an error of kind `Other` wrapping
    /// [`hbc_wal::WalError::UnsupportedFormat`]. Corrupt log *content* is
    /// never an error: recovery keeps the valid prefix.
    pub fn bind(
        addr: impl ToSocketAddrs,
        firmware: &'fw WbsnFirmware,
        fs: f64,
        config: GatewayConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let now = Instant::now();
        let fs_millihertz = (fs * 1000.0).round() as u32;
        let mut hub = StreamHub::with_scale(firmware, fs, None, wire_adc());
        let mut sessions = SessionManager::new();
        let mut stats = GatewayStats::default();
        let wal = match &config.wal {
            Some(wal_config) => {
                let (wal, recovered) = replay::recover(
                    &mut hub,
                    &mut sessions,
                    wal_config.clone(),
                    fs_millihertz,
                    &mut stats.internal_skips,
                    now,
                )
                .map_err(std::io::Error::other)?;
                stats.sessions_recovered = recovered;
                Some(wal)
            }
            None => None,
        };
        // Recovered sessions arrive with their replay buffers; seed the
        // global ledger from the recount so the budget sees them.
        let buffered_samples = sessions.total_buffered_samples();
        let mut obs = GatewayObs::new(now);
        // Every session in the table at bind time is a recovered, parked one.
        for (_, s) in sessions.entries() {
            obs.trace
                .push(TraceEvent::SessionRecover { session: s.wire_id });
        }
        let admin = match config.admin_addr {
            Some(addr) => {
                let admin = TcpListener::bind(addr)?;
                admin.set_nonblocking(true)?;
                Some(admin)
            }
            None => None,
        };
        Ok(Gateway {
            listener,
            hub,
            fs_millihertz,
            config,
            conns: Vec::new(),
            sessions,
            stats,
            ready: Vec::new(),
            sweep: Vec::new(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            frames: Vec::new(),
            staged: Vec::new(),
            promoting: Vec::new(),
            outcomes: Vec::new(),
            wal,
            buffered_samples,
            heartbeat: Heartbeat::new(now),
            next_tick: now,
            now,
            obs,
            admin,
            admin_conns: Vec::new(),
        })
    }

    /// Stages one record for the durable log's next group write
    /// ([`Gateway::wal_commit`]).
    fn wal_log(&mut self, record: &WalRecord) {
        if let Some(wal) = self.wal.as_mut() {
            if wal.stage(record).is_err() {
                self.wal_failed();
            }
        }
    }

    /// Writes the staged records as one group, traced as one append. Runs
    /// before the hub sees samples and before a socket flush, so the log
    /// always holds what was ingested or acknowledged.
    fn wal_commit(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            match wal.commit() {
                Ok(0) => {}
                Ok(bytes) => self.obs.trace.push(TraceEvent::WalAppend {
                    bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
                }),
                Err(_) => self.wal_failed(),
            }
        }
    }

    /// A failed append disables the log for the rest of the gateway's
    /// lifetime (counted in [`GatewayStats::wal_errors`]): the service
    /// keeps running, the log on disk stays a valid prefix of the accepted
    /// traffic.
    fn wal_failed(&mut self) {
        self.stats.wal_errors += 1;
        self.obs.trace.push(TraceEvent::WalError);
        self.wal = None;
    }

    /// The address the gateway listens on (use with port 0 binds).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Counters so far.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// Sessions parked for resume (their connection died within the
    /// retention window).
    pub fn parked_sessions(&self) -> usize {
        self.sessions.parked_len()
    }

    /// Bytes currently charged against
    /// [`GatewayConfig::global_memory_budget`]: buffered samples of live
    /// and parked sessions, connection outboxes and the cached reports of
    /// ended sessions — the gateway's one memory ledger.
    fn memory_used(&self) -> usize {
        let outboxes: usize = self.conns.iter().flatten().map(|c| c.outbox.queued()).sum();
        let cached = self.sessions.cached_outcomes() * std::mem::size_of::<WireOutcome>();
        self.buffered_samples * SAMPLE_BYTES + outboxes + cached
    }

    /// A point-in-time health snapshot: session and connection counts and
    /// the memory budget's use. The overload counters are in
    /// [`Gateway::stats`].
    pub fn health(&self) -> GatewayHealth {
        let memory_used_bytes = self.memory_used();
        let memory_budget_bytes = self.config.global_memory_budget;
        GatewayHealth {
            live_sessions: self.sessions.len(),
            parked_sessions: self.sessions.parked_len(),
            open_connections: self.conns.iter().flatten().count(),
            buffered_bytes: self.buffered_samples * SAMPLE_BYTES,
            memory_used_bytes,
            memory_budget_bytes,
            budget_utilization: if memory_budget_bytes == 0 {
                0.0
            } else {
                memory_used_bytes as f64 / memory_budget_bytes as f64
            },
            wal_log_bytes: self.wal.as_ref().map_or(0, Wal::total_bytes),
            wal_active: u8::from(self.wal.is_some()),
        }
    }

    /// Feeds the latency of the sweep that started at `self.now` into the
    /// telemetry: the sweep histogram and the windowed high-water mark,
    /// the worst sweep over the current and the previous [`POLL_WINDOW`].
    fn note_sweep(&mut self, micros: u64) {
        self.obs.latency.sweep_micros.record(micros);
        if self.now.duration_since(self.obs.window_started) > POLL_WINDOW {
            self.obs.prev_window_max_micros = self.obs.window_max_micros;
            self.obs.window_max_micros = 0;
            self.obs.window_started = self.now;
        }
        self.obs.window_max_micros = self.obs.window_max_micros.max(micros);
        self.stats.poll_recent_high_water_micros = self
            .obs
            .window_max_micros
            .max(self.obs.prev_window_max_micros);
    }

    /// The reactor's liveness probe. Clone it out *before*
    /// [`Gateway::run`] consumes the gateway; every sweep stamps it, so a
    /// supervisor thread can ask [`Heartbeat::stalled`] whether the
    /// reactor has stopped sweeping.
    pub fn heartbeat(&self) -> Heartbeat {
        self.heartbeat.clone()
    }

    /// Runs the reactor until `shutdown` flips, then returns the final
    /// counters. Sleeps briefly on idle sweeps instead of spinning. Each
    /// sweep's latency feeds the watchdog: the high-water mark lands in
    /// [`GatewayStats::poll_high_water_micros`] and sweeps over
    /// [`GatewayConfig::watchdog_budget`] are counted as stalls, so a
    /// stalled iteration surfaces as diagnosable numbers rather than
    /// silence.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-connection errors only drop the
    /// affected connection, and a failed accept of one peer (or a passing
    /// descriptor shortage) is counted in [`GatewayStats::accept_errors`].
    pub fn run(self, shutdown: &AtomicBool) -> std::io::Result<GatewayStats> {
        Ok(self.run_with_report(shutdown)?.stats)
    }

    /// Like [`Gateway::run`], but additionally returns the final
    /// [`MetricsSnapshot`] and the retained trace timeline — everything a
    /// harness needs to inspect the telemetry of a gateway it just shut
    /// down, without racing the reactor for it while it was live.
    ///
    /// # Errors
    ///
    /// As [`Gateway::run`].
    pub fn run_with_report(mut self, shutdown: &AtomicBool) -> std::io::Result<GatewayReport> {
        while !shutdown.load(Ordering::Acquire) {
            let progress = self.poll()?;
            let latency = self.now.elapsed();
            let micros = round_micros(latency);
            self.stats.poll_high_water_micros = self.stats.poll_high_water_micros.max(micros);
            self.note_sweep(micros);
            if latency > self.config.watchdog_budget {
                self.stats.watchdog_stalls += 1;
                self.obs.trace.push(TraceEvent::WatchdogStall { micros });
            }
            if !progress {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        let metrics = self.metrics_snapshot();
        let trace = self.obs.trace.dump();
        Ok(GatewayReport {
            stats: self.stats,
            metrics,
            trace,
        })
    }

    /// The admin listener's address, when [`GatewayConfig::admin_addr`] was
    /// set (use with port 0 binds).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The retained trace timeline, oldest first.
    pub fn trace_dump(&self) -> Vec<TraceRecord> {
        self.obs.trace.dump()
    }

    /// Hot-swaps the classification pipeline under every live and parked
    /// session (delegates to [`StreamHub::swap_pipeline`]; the swap lands
    /// on a beat boundary) and records the swap on the trace ring.
    ///
    /// # Errors
    ///
    /// Propagates the hub's compatibility check: the incoming image must
    /// share the deployed window geometry.
    pub fn swap_pipeline(&mut self, firmware: &'fw WbsnFirmware) -> hbc_core::Result<()> {
        self.hub.swap_pipeline(firmware)?;
        let sessions = self.sessions.len() + self.sessions.parked_len();
        self.obs.trace.push(TraceEvent::HotSwap {
            sessions: u32::try_from(sessions).unwrap_or(u32::MAX),
        });
        Ok(())
    }

    /// One reactor sweep; returns whether any progress was made (bytes
    /// moved, frames handled, samples ingested). Reads the clock once on
    /// entry: that reading stamps the [`Heartbeat`] and dates every
    /// timestamp and deadline of the sweep. Housekeeping runs only when the
    /// [`HOUSEKEEPING_TICK`] is due; staging and forwarding visit only the
    /// ready sessions.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn poll(&mut self) -> std::io::Result<bool> {
        self.now = Instant::now();
        self.heartbeat.beat(self.now);
        let tick = self.now >= self.next_tick;
        let mut progress = false;
        if tick {
            self.next_tick = self.now + HOUSEKEEPING_TICK;
            progress |= self.accept_new()?;
            progress |= self.serve_admin();
        }
        for idx in 0..self.conns.len() {
            progress |= self.service_reads(idx);
        }
        if tick {
            self.sessions
                .owing_quiet_into(self.now, CREDIT_QUIET, &mut self.ready);
        }
        self.wal_commit();
        progress |= self.ingest_sweep();
        progress |= self.forward_outcomes_and_credit();
        if tick {
            self.evict_idle();
            self.reap_slow_peers();
        }
        self.reap();
        if tick {
            self.expire_sessions();
        }
        self.wal_commit();
        for idx in 0..self.conns.len() {
            progress |= self.flush(idx);
        }
        debug_assert_eq!(
            self.buffered_samples,
            self.sessions.total_buffered_samples(),
            "global buffered-sample ledger out of sync"
        );
        Ok(progress)
    }

    /// Accepts every pending connection. A failed accept that concerns
    /// only one peer or a passing shortage (see `transient_accept_error`)
    /// is counted and retried on the next tick; only other listener errors
    /// are fatal.
    fn accept_new(&mut self) -> std::io::Result<bool> {
        let mut accepted = false;
        loop {
            let stream = match transport::accept(&self.listener) {
                Ok(Some(Accepted::Stream(stream))) => stream,
                Ok(Some(Accepted::Dropped)) => {
                    self.stats.accept_errors += 1;
                    continue;
                }
                Ok(None) => break,
                Err(e) if transient_accept_error(&e) => {
                    self.stats.accept_errors += 1;
                    break;
                }
                Err(e) => return Err(e),
            };
            let conn = Connection {
                stream,
                decoder: FrameDecoder::awaiting_hello(),
                outbox: Outbox::default(),
                greeted: false,
                closing: false,
                dead: false,
                established: false,
                read_since_check: 0,
                wrote_since_check: 0,
                checked_at: self.now,
            };
            let idx = match self.conns.iter().position(Option::is_none) {
                Some(i) => {
                    self.conns[i] = Some(conn);
                    i
                }
                None => {
                    self.conns.push(Some(conn));
                    self.conns.len() - 1
                }
            };
            self.stats.connections += 1;
            accepted = true;
            // Admission: past the connection cap the newcomer gets a Busy
            // hint and a flush-then-close, so its slot frees as soon as the
            // hint drains.
            let live = self.conns.iter().flatten().filter(|c| !c.dead).count();
            if live > self.config.max_connections {
                self.busy(idx);
            }
        }
        Ok(accepted)
    }

    /// Reads one connection with one [`transport::read_pass`] (bounded per
    /// sweep; a short read ends it, and bytes or an EOF arriving after it
    /// are seen on the next sweep) and handles every complete frame.
    fn service_reads(&mut self, idx: usize) -> bool {
        const READ_BUDGET: usize = 256 * 1024;
        let buf = &mut self.read_buf;
        let Some(conn) = self.conns[idx].as_mut() else {
            return false;
        };
        if conn.closing || conn.dead {
            return false;
        }
        let decoder = &mut conn.decoder;
        let pass = transport::read_pass(&mut conn.stream, buf, READ_BUDGET, |chunk| {
            decoder.feed(chunk);
            true
        });
        let taken = pass.bytes;
        conn.read_since_check = conn.read_since_check.saturating_add(taken);
        conn.dead = matches!(pass.end, ReadEnd::Failed(_));
        let eof = matches!(pass.end, ReadEnd::Eof);
        let mut frames = std::mem::take(&mut self.frames);
        let mut violation = None;
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => {
                    violation = Some(format!("protocol error: {e}"));
                    break;
                }
            }
        }
        let progress = taken > 0 || !frames.is_empty();
        self.stats.wire_bytes_in += taken as u64;
        self.stats.frames_in += frames.len() as u64;
        for frame in frames.drain(..) {
            // A denial ends the conversation: one Deny goes out and the
            // rest of the batch is dropped, instead of one Deny per
            // already-buffered frame.
            if self.conns[idx].as_ref().is_none_or(|c| c.closing || c.dead) {
                break;
            }
            let frame_started = Instant::now();
            self.handle_frame(idx, frame);
            self.obs
                .latency
                .frame_micros
                .record(round_micros(frame_started.elapsed()));
        }
        self.frames = frames;
        if let Some(message) = violation {
            // Unless a frame before the bad bytes already ended it.
            if self.conns[idx].as_ref().is_some_and(|c| !c.closing) {
                self.deny(idx, &message);
            }
        }
        if eof {
            // EOF only closes the peer's *write* side (a client may
            // half-close after its last frame and still read replies), so
            // frames that arrived with it were handled above and the
            // connection now drains its outbox before being reaped.
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.closing = true;
            }
        }
        progress
    }

    /// Queues a frame on a connection's outbox: in the fixed envelope
    /// until the peer's Hello is accepted (the Hello echo, or the Busy or
    /// Deny answering a connection that never got that far), so a peer of
    /// any protocol version reads it; in the compact one after.
    fn send(&mut self, idx: usize, frame: &Frame) {
        if let Some(conn) = self.conns[idx].as_mut() {
            if !conn.dead {
                if conn.greeted {
                    frame.encode_into(&mut conn.outbox.bytes);
                } else {
                    frame.encode_handshake_into(&mut conn.outbox.bytes);
                }
                self.stats.frames_out += 1;
            }
        }
    }

    /// Sends [`Frame::Deny`] and marks the connection for a flush-then-close.
    fn deny(&mut self, idx: usize, message: &str) {
        self.stats.denials += 1;
        self.obs.trace.push(TraceEvent::Deny);
        self.send(
            idx,
            &Frame::Deny {
                message: message.to_string(),
            },
        );
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.closing = true;
        }
    }

    /// Sends [`Frame::Busy`] — the admission-control "come back later" —
    /// and marks the connection for a flush-then-close. Unlike a denial,
    /// the peer did nothing wrong and may retry after the embedded pause.
    fn busy(&mut self, idx: usize) {
        self.stats.busy_denials += 1;
        let retry_after_ms =
            u32::try_from(self.config.busy_retry_after.as_millis()).unwrap_or(u32::MAX);
        self.obs.trace.push(TraceEvent::Busy { retry_after_ms });
        self.send(idx, &Frame::Busy { retry_after_ms });
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.closing = true;
        }
    }

    /// Records that a connection completed a session-level handshake,
    /// graduating it from the handshake deadline to the minimum-progress
    /// check.
    fn mark_established(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.established = true;
        }
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame) {
        let greeted = self.conns[idx].as_ref().is_some_and(|c| c.greeted);
        if !greeted {
            match frame {
                Frame::Hello { version } if version == PROTOCOL_VERSION => {
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.greeted = true;
                    }
                    self.send(
                        idx,
                        &Frame::Hello {
                            version: PROTOCOL_VERSION,
                        },
                    );
                }
                Frame::Hello { version } => {
                    self.deny(idx, &format!("unsupported protocol version {version}"));
                }
                _ => self.deny(idx, "expected Hello first"),
            }
            return;
        }
        match frame {
            Frame::Hello { .. } => self.deny(idx, "duplicate Hello"),
            Frame::OpenSession {
                patient_id,
                fs_millihertz,
                calib_len,
            } => self.open_session(idx, patient_id, fs_millihertz, calib_len),
            Frame::Samples {
                session,
                seq,
                samples,
            } => self.accept_samples(idx, session, seq, samples),
            Frame::ResumeSession {
                patient_id,
                session_token,
                last_acked_seq,
                outcomes_received,
            } => self.resume_session(
                idx,
                patient_id,
                session_token,
                last_acked_seq,
                outcomes_received,
            ),
            Frame::CloseSession { session } => {
                if self.sessions.get(session).is_some_and(|s| s.conn == idx) {
                    self.close_requested(session, false);
                } else if let Some(report) = self.sessions.ended(session).map(|(_, r, _)| r) {
                    // The session already ended and the client retried its
                    // close (its link died before the Report arrived):
                    // re-serve the cached report so CloseSession stays
                    // idempotent within the retention window.
                    self.mark_established(idx);
                    self.stats.reports_refetched += 1;
                    self.send(idx, &Frame::Report { session, report });
                } else if self.sessions.is_retired(session) {
                    // Ends are asynchronous (idle eviction): a compliant
                    // client can race its close against the gateway's
                    // Report. The session is gone and reported; ignore.
                } else {
                    self.deny(idx, &format!("close of unknown session {session}"));
                }
            }
            // Server-only frames arriving at the server are violations.
            Frame::SessionOpened { .. }
            | Frame::SessionResumed { .. }
            | Frame::Credit { .. }
            | Frame::Outcomes { .. }
            | Frame::Report { .. }
            | Frame::Busy { .. } => self.deny(idx, "client sent a gateway-only frame"),
            Frame::Deny { message } => {
                // A client may announce why it is leaving; drop it politely.
                let _ = message;
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.closing = true;
                }
            }
        }
    }

    fn open_session(&mut self, idx: usize, patient_id: u32, fs_millihertz: u32, calib_len: u32) {
        if fs_millihertz != self.fs_millihertz {
            self.deny(
                idx,
                &format!(
                    "sampling rate {fs_millihertz} mHz does not match the gateway's {}",
                    self.fs_millihertz
                ),
            );
            return;
        }
        let calib_len = calib_len as usize;
        if calib_len == 0 || calib_len > self.config.credit_budget {
            self.deny(
                idx,
                &format!(
                    "calibration length {calib_len} outside (0, {}]",
                    self.config.credit_budget
                ),
            );
            return;
        }
        // A calibration stretch that alone exceeds the global memory
        // budget could never be buffered, let alone replayed from the
        // durable log at recovery: a hard denial, not a Busy retry hint —
        // no amount of waiting makes this request admissible.
        if calib_len * SAMPLE_BYTES > self.config.global_memory_budget {
            self.deny(
                idx,
                &format!(
                    "calibration length {calib_len} alone exceeds the gateway's memory budget"
                ),
            );
            return;
        }
        // Admission control. Parked sessions count against the cap — a
        // parked stream still holds buffers and a resume claim — but
        // ResumeSession itself is exempt (parked → live is count-neutral).
        if self.sessions.len() + self.sessions.parked_len() >= self.config.max_sessions {
            self.busy(idx);
            return;
        }
        if self.memory_used() + calib_len * SAMPLE_BYTES > self.config.global_memory_budget {
            self.busy(idx);
            return;
        }
        let wire_id = self.sessions.open(idx, patient_id, calib_len, self.now);
        let Some(token) = self.sessions.get(wire_id).map(|s| s.token) else {
            self.stats.internal_skips += 1;
            debug_assert!(false, "session {wire_id} vanished right after open");
            self.deny(idx, "internal session error");
            return;
        };
        self.mark_established(idx);
        self.stats.sessions_opened += 1;
        self.obs.trace.push(TraceEvent::SessionOpen {
            session: wire_id,
            patient: patient_id,
        });
        self.wal_log(&WalRecord::SessionOpen {
            token,
            wire_id,
            patient_id,
            calib_len: calib_len as u32,
            fs_millihertz,
        });
        self.send(
            idx,
            &Frame::SessionOpened {
                session: wire_id,
                credit: self.config.credit_budget as u32,
                token,
            },
        );
    }

    /// Re-attaches a parked (or takeover) session to connection `idx` and
    /// tells the client where to restart: the gateway's own receive
    /// position is authoritative, the client's `last_acked_seq` is only a
    /// cross-check, and `outcomes_received` rewinds outcome forwarding so
    /// beats that were in flight when the link died are sent again instead
    /// of leaving a gap. A resume of an ended session re-serves its cached
    /// end instead: only the client's copy of the end was lost with its
    /// link, so a connection that died around `CloseSession` converges.
    fn resume_session(
        &mut self,
        idx: usize,
        patient_id: u32,
        token: u64,
        last_acked_seq: u32,
        outcomes_received: u64,
    ) {
        let (wire_id, next_expected_seq, credit) = match self.sessions.resume(
            token,
            patient_id,
            last_acked_seq,
            idx,
            self.now,
        ) {
            ResumeOutcome::Resumed(wire_id) => {
                let budget = self.config.credit_budget;
                let Some(s) = self.sessions.get_mut(wire_id) else {
                    self.stats.internal_skips += 1;
                    debug_assert!(false, "session {wire_id} vanished right after resume");
                    self.deny(idx, "internal session error");
                    return;
                };
                // The client cannot have received more outcomes than were
                // ever forwarded; a smaller claim rewinds (resend), never a
                // skip.
                s.outcomes_sent = (outcomes_received as usize).min(s.outcomes_sent);
                // Credit restarts as an absolute figure: budget minus what
                // is still buffered gateway-side for this session.
                s.consumed_since_grant = 0;
                let credit = budget.saturating_sub(s.buffered()) as u32;
                let next_expected_seq = s.next_seq;
                // The rewind (and any samples buffered while parked) is
                // work for the next sweep.
                self.ready.push(wire_id);
                self.stats.sessions_resumed += 1;
                self.obs
                    .trace
                    .push(TraceEvent::SessionResume { session: wire_id });
                (wire_id, next_expected_seq, credit)
            }
            ResumeOutcome::Ended(wire_id) => {
                let Some((final_seq, ..)) = self.sessions.ended(wire_id) else {
                    return;
                };
                self.stats.reports_refetched += 1;
                (wire_id, final_seq, 0)
            }
            ResumeOutcome::UnknownToken => {
                self.deny(idx, "unknown or expired resume token");
                return;
            }
            ResumeOutcome::WrongPatient => {
                self.deny(
                    idx,
                    &format!("resume token does not belong to patient {patient_id}"),
                );
                return;
            }
            ResumeOutcome::ClaimAhead(received) => {
                self.deny(
                    idx,
                    &format!(
                        "resume claims {last_acked_seq} acked sample frames, gateway received {received}"
                    ),
                );
                return;
            }
        };
        self.mark_established(idx);
        self.send(
            idx,
            &Frame::SessionResumed {
                session: wire_id,
                next_expected_seq,
                credit,
            },
        );
        // An ended session's re-fetch: the outcome tail past the client's
        // claim, then the final report.
        if let Some((_, report, history)) = self.sessions.ended(wire_id) {
            let from = (outcomes_received as usize).min(history.len());
            send_outcomes(
                &mut self.conns,
                &mut self.stats,
                idx,
                wire_id,
                &history[from..],
            );
            self.send(
                idx,
                &Frame::Report {
                    session: wire_id,
                    report,
                },
            );
        }
    }

    fn accept_samples(&mut self, idx: usize, session: u32, seq: u32, mut samples: Vec<i16>) {
        let budget = self.config.credit_budget;
        let now = self.now;
        let Some(s) = self.sessions.get_mut(session) else {
            if self.sessions.is_retired(session) {
                // Samples racing an asynchronous end (eviction): the sender
                // has a Report on the wire telling it to stop; drop the
                // stragglers, keep the connection.
                self.stats.samples_dropped += samples.len() as u64;
            } else {
                self.deny(idx, &format!("samples for unknown session {session}"));
            }
            return;
        };
        if s.conn != idx {
            self.deny(
                idx,
                &format!("session {session} belongs to another connection"),
            );
            return;
        }
        if seq != s.next_seq {
            let expected = s.next_seq;
            self.deny(
                idx,
                &format!("sample frame gap: got seq {seq}, expected {expected}"),
            );
            return;
        }
        let room = budget.saturating_sub(s.buffered());
        if samples.len() > room && self.config.overflow == OverflowPolicy::Disconnect {
            // A denied frame is not received: the receive position and the
            // idle clock stay where they were, so a resume restarts at it.
            self.deny(
                idx,
                &format!(
                    "credit exceeded: {} samples in flight + {} sent > budget {budget}",
                    budget - room,
                    samples.len()
                ),
            );
            return;
        }
        s.next_seq += 1;
        s.last_activity = now;
        let token = s.token;
        // Under `DropExcess` the excess over the credit budget is dropped.
        let mut accepted = samples.len().min(room);
        self.stats.samples_dropped += (samples.len() - accepted) as u64;
        // Global-budget enforcement: shed buffered normal-priority
        // telemetry first (largest buffer first, live or parked); whatever
        // still does not fit — everything left is critical — is dropped
        // from the incoming frame instead, with credit returned either way
        // so the sender degrades (a stream gap) rather than deadlocking.
        let mut dropped_at_budget = 0usize;
        let budget_bytes = self.config.global_memory_budget;
        let need = (self.memory_used() + accepted * SAMPLE_BYTES).saturating_sub(budget_bytes);
        if need > 0 {
            self.shed_samples(need.div_ceil(SAMPLE_BYTES));
            let still = (self.memory_used() + accepted * SAMPLE_BYTES).saturating_sub(budget_bytes);
            if still > 0 {
                dropped_at_budget = still.div_ceil(SAMPLE_BYTES).min(accepted);
                accepted -= dropped_at_budget;
                self.stats.samples_dropped += dropped_at_budget as u64;
            }
        }
        // Log before the samples become visible to the hub: on recovery the
        // log is always a superset of what was ingested, so the post-crash
        // replay can never be behind what the session already reported. The
        // decoded frame's own buffer, cut to what was accepted, is the log
        // record's payload and comes back to be buffered — no copy.
        samples.truncate(accepted);
        if accepted > 0 && self.wal.is_some() {
            let record = WalRecord::Samples {
                token,
                seq,
                codes: samples,
            };
            self.wal_log(&record);
            let WalRecord::Samples { codes, .. } = record else {
                unreachable!("built as a Samples record above")
            };
            samples = codes;
        }
        let Some(s) = self.sessions.get_mut(session) else {
            self.stats.internal_skips += 1;
            debug_assert!(false, "session {session} vanished mid-frame");
            return;
        };
        // Anchor the beat-to-outcome clock on the empty → non-empty
        // transition: the oldest buffered sample arrived now.
        if s.pending.is_empty() && accepted > 0 && s.oldest_pending_at.is_none() {
            s.oldest_pending_at = Some(now);
        }
        s.pending.extend_from_slice(&samples);
        s.samples_received += accepted as u64;
        s.consumed_since_grant += dropped_at_budget;
        if accepted > 0 || dropped_at_budget > 0 {
            self.ready.push(session);
        }
        self.buffered_samples += accepted;
        self.stats.samples_in += accepted as u64;
        self.stats.peak_buffered_samples = self.stats.peak_buffered_samples.max(s.buffered());
        self.stats.peak_buffered_bytes = self
            .stats
            .peak_buffered_bytes
            .max(self.buffered_samples * SAMPLE_BYTES);
    }

    /// Frees roughly `need` buffered samples by truncating the pending
    /// tails of normal-priority sessions, largest buffer first (live or
    /// parked, ties broken by wire id for a deterministic shed order);
    /// critical sessions are only shed once no normal victim remains.
    /// Live victims get the shed samples back as credit, so their senders
    /// observe a stream gap, not a stall. Ended sessions hold no samples.
    fn shed_samples(&mut self, mut need: usize) {
        for critical_pass in [false, true] {
            if need == 0 {
                return;
            }
            let mut victims: Vec<(usize, u32)> = self
                .sessions
                .entries()
                .filter(|(_, s)| {
                    (s.priority == SessionPriority::Critical) == critical_pass && s.buffered() > 0
                })
                .map(|(_, s)| (s.buffered(), s.wire_id))
                .collect();
            victims.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for (_, wire_id) in victims {
                if need == 0 {
                    return;
                }
                let Some((state, s)) = self.sessions.entry_mut(wire_id) else {
                    continue;
                };
                let shed = s.pending.len().min(need);
                s.pending.truncate(s.pending.len() - shed);
                if matches!(state, SessionState::Attached) {
                    // The shed samples are owed back as credit.
                    s.consumed_since_grant += shed;
                    self.ready.push(wire_id);
                }
                need -= shed;
                self.buffered_samples -= shed;
                self.stats.samples_shed += shed as u64;
                self.stats.sheds += 1;
                self.obs.trace.push(TraceEvent::Shed {
                    session: wire_id,
                    samples: u32::try_from(shed).unwrap_or(u32::MAX),
                });
            }
        }
    }

    /// Reaps slow peers: connections that never completed a session-level
    /// handshake within the deadline, trickle senders (bytes parked
    /// mid-frame, reads below the minimum over a whole progress interval)
    /// and frozen readers (queued outbox, zero write progress). Reaped
    /// connections are marked dead and their sessions detach through the
    /// ordinary resume path.
    fn reap_slow_peers(&mut self) {
        let now = self.now;
        let handshake = self.config.handshake_timeout;
        let interval = self.config.progress_interval;
        let min_bytes = self.config.min_progress_bytes;
        let mut handshake_reaps = 0u64;
        let mut progress_reaps = 0u64;
        for conn in self.conns.iter_mut().flatten() {
            if conn.dead || conn.closing {
                continue;
            }
            if !conn.established {
                if !handshake.is_zero() && now.duration_since(conn.checked_at) > handshake {
                    conn.dead = true;
                    handshake_reaps += 1;
                    self.obs.trace.push(TraceEvent::ReapHandshake);
                }
                continue;
            }
            if interval.is_zero() || now.duration_since(conn.checked_at) < interval {
                continue;
            }
            // One whole progress interval has elapsed: judge it, then
            // start the next one.
            let trickling = conn.decoder.buffered() > 0 && conn.read_since_check < min_bytes;
            let frozen = conn.outbox.queued() > 0 && conn.wrote_since_check == 0;
            if trickling || frozen {
                conn.dead = true;
                progress_reaps += 1;
                self.obs.trace.push(TraceEvent::ReapStalled);
            }
            conn.read_since_check = 0;
            conn.wrote_since_check = 0;
            conn.checked_at = now;
        }
        self.stats.handshake_reaps += handshake_reaps;
        self.stats.progress_reaps += progress_reaps;
    }

    /// Visits this sweep's ready sessions in wire-id order. Sessions whose
    /// calibration stretch is complete are promoted first
    /// ([`Self::promote_completed`]), so the stretch is staged (and its
    /// credit granted) in the sweep that completes it. Each streaming
    /// session then stages at most one pending chunk, and the batch goes
    /// into the hub with a single [`StreamHub::ingest`] call (which fans out
    /// only when the batch is large enough to pay for it). The ready set
    /// stays in `sweep` for forwarding.
    fn ingest_sweep(&mut self) -> bool {
        std::mem::swap(&mut self.ready, &mut self.sweep);
        self.ready.clear();
        self.sweep.sort_unstable();
        self.sweep.dedup();
        let sweep = std::mem::take(&mut self.sweep);
        self.promote_completed(&sweep);
        let now = self.now;
        let mut batch = 0;
        for &wire_id in &sweep {
            // A session that ended after it was marked has no work left.
            let Some(s) = self.sessions.get_mut(wire_id) else {
                continue;
            };
            let hub_id = match s.phase {
                SessionPhase::Streaming { hub } => hub,
                // Still calibrating with the whole stretch buffered: its
                // promotion above failed. A degenerate calibration stretch
                // is a per-session failure: end *this* session like any
                // close — an empty Report whose samples counter tells the
                // client how much was consumed for nothing — without
                // calibrating the stretch a second time, and leave the
                // connection's other sessions untouched.
                SessionPhase::Calibrating { .. } if s.completed_stretch().is_some() => {
                    self.close_wire_session(wire_id, false);
                    continue;
                }
                SessionPhase::Calibrating { .. } => continue,
            };
            if s.pending.is_empty() {
                continue;
            }
            // Sessions on connections whose outbox is over the cap are
            // skipped: no consumption, no credit — the slow-reader stall.
            // They stay ready until the outbox drains.
            let writable = self.conns[s.conn]
                .as_ref()
                .is_some_and(|c| !c.dead && c.outbox.queued() <= self.config.max_outbox_bytes);
            if !writable {
                self.ready.push(wire_id);
                continue;
            }
            let take = s.pending.len().min(self.config.max_ingest_per_poll);
            if batch == self.staged.len() {
                self.staged.push((hub_id, Vec::new()));
            }
            let (slot_id, chunk) = &mut self.staged[batch];
            *slot_id = hub_id;
            chunk.clear();
            chunk.extend(s.pending.drain(..take));
            batch += 1;
            // Carry the beat-to-outcome anchor with the staged chunk. An
            // earlier staged anchor (a chunk that has not produced a
            // forwarded outcome yet) wins: the clock runs from the oldest
            // unanswered sample. The arrival anchor only resets once the
            // buffer fully drains — a partial drain keeps it, which
            // over-estimates rather than hides queueing delay.
            s.staged_anchor = s.staged_anchor.or(s.oldest_pending_at);
            if s.pending.is_empty() {
                s.oldest_pending_at = None;
            } else {
                self.ready.push(wire_id);
            }
            s.consumed_since_grant += take;
            // Staged samples leave the buffered ledger: from here they are
            // the one in-flight chunk, consumed this very sweep.
            self.buffered_samples -= take;
            // Consumption counts as activity: a compliant sender stalled on
            // credit (because this gateway is the slow side) must not be
            // idle-evicted while its buffer is still being drained.
            s.last_activity = now;
        }
        self.sweep = sweep;
        if batch == 0 {
            return false;
        }
        // Staged sessions are live, unique hub sessions by construction; a
        // rejection would mean the staging pass and the hub disagree about
        // liveness, and dropping the chunk beats poisoning the reactor.
        let ingest_started = Instant::now();
        let rejected = self.hub.ingest(&self.staged[..batch]).is_err();
        self.obs
            .latency
            .ingest_batch_micros
            .record(round_micros(ingest_started.elapsed()));
        if rejected {
            self.stats.internal_skips += 1;
            debug_assert!(false, "staged ingest rejected by the hub");
        }
        true
    }

    /// Promotes every session of `sweep` whose calibration stretch is
    /// complete: one [`promote`] batch derives all their thresholds on the
    /// hub's workers and creates their hub sessions in wire-id order (the
    /// order `sweep` is in), so hub slots are those one-at-a-time promotion
    /// would assign. Each stretch stays in `pending` and is staged by the
    /// sweep, like a node's start-up phase. A session whose stretch is
    /// degenerate is left calibrating, for the sweep to close. A sweep in
    /// which no stretch completes allocates nothing.
    fn promote_completed(&mut self, sweep: &[u32]) {
        let sessions = &self.sessions;
        self.promoting.clear();
        self.promoting.extend(sweep.iter().copied().filter(|&id| {
            sessions
                .get(id)
                .is_some_and(|s| s.completed_stretch().is_some())
        }));
        if self.promoting.is_empty() {
            return;
        }
        let promoted = promote(&mut self.hub, &self.promoting, |&id| {
            let s = sessions.get(id).expect("promoting a live session");
            (
                s.patient_id,
                s.completed_stretch().expect("a complete stretch"),
            )
        });
        for (&id, hub) in self.promoting.iter().zip(promoted) {
            if let (Some(s), Some(hub)) = (self.sessions.get_mut(id), hub) {
                s.phase = SessionPhase::Streaming { hub };
            }
        }
    }

    /// Forwards freshly classified beats of this sweep's ready sessions and
    /// grants the credit [`credit_due`] schedules. One hub read per session
    /// decides: a session with no new outcome and no grant due is skipped —
    /// it has nothing to send, and its priority window is the one its last
    /// visit already scored.
    fn forward_outcomes_and_credit(&mut self) -> bool {
        let mut progress = false;
        let sweep = std::mem::take(&mut self.sweep);
        let mut outcomes = std::mem::take(&mut self.outcomes);
        let budget = self.config.credit_budget;
        let now = self.now;
        for &wire_id in &sweep {
            let Some(s) = self.sessions.get_mut(wire_id) else {
                continue;
            };
            let Some(hub_id) = s.hub_id() else {
                continue;
            };
            let owed = s.consumed_since_grant;
            let quiet_for = now.saturating_duration_since(s.last_activity);
            let grant = if credit_due(budget, s.buffered(), owed, quiet_for) {
                owed
            } else {
                0
            };
            let (conn, sent, acked_seq) = (s.conn, s.outcomes_sent, s.next_seq);
            let Ok(all) = self.hub.outcomes(hub_id) else {
                self.stats.internal_skips += 1;
                debug_assert!(false, "streaming session {wire_id} is not live in the hub");
                continue;
            };
            if all.len() == sent && grant == 0 {
                continue;
            }
            // Copy the unsent tail into the reused scratch and refresh the
            // shedding priority from the recent outcome window: an abnormal
            // beat protects the stream under overload, and a clean window
            // decays the protection again.
            outcomes.clear();
            outcomes.extend(
                all[sent.min(all.len())..]
                    .iter()
                    .map(WireOutcome::from_outcome),
            );
            s.priority = SessionPriority::of(all);
            let n = outcomes.len();
            if n > 0 {
                s.outcomes_sent += n;
                let anchor = s.staged_anchor.take();
                send_outcomes(&mut self.conns, &mut self.stats, conn, wire_id, &outcomes);
                // The headline metric: from the arrival of the oldest
                // sample behind these outcomes to the sweep forwarding
                // them. One record per forwarding event.
                if let Some(anchor) = anchor {
                    self.obs
                        .latency
                        .beat_to_outcome_micros
                        .record(round_micros(anchor.elapsed()));
                }
                self.stats.beats_out += n as u64;
                progress = true;
            }
            if grant == 0 {
                continue;
            }
            // Credit is withheld while the outbox, these outcomes included,
            // is over the cap; the session stays ready until it drains.
            let under_cap = self.conns[conn]
                .as_ref()
                .is_some_and(|c| !c.dead && c.outbox.queued() <= self.config.max_outbox_bytes);
            if !under_cap {
                self.ready.push(wire_id);
                continue;
            }
            s.consumed_since_grant = 0;
            self.send(
                conn,
                &Frame::Credit {
                    session: wire_id,
                    grant: grant as u32,
                    acked_seq,
                },
            );
            self.stats.credit_grants += 1;
            progress = true;
        }
        self.sweep = sweep;
        self.outcomes = outcomes;
        progress
    }

    fn evict_idle(&mut self) {
        for wire_id in self.sessions.idle_ids(self.now, self.config.idle_timeout) {
            self.close_requested(wire_id, true);
        }
    }

    /// Ends a session its client closed or the gateway evicted. Such a
    /// close can arrive while the calibration stretch is still short, or
    /// complete but not yet promoted by a sweep; the session calibrates on
    /// what exists first (best effort — a degenerate stretch simply yields
    /// an empty session). A session whose sweep promotion already failed is
    /// ended by [`Self::close_wire_session`] directly, without calibrating
    /// the same stretch again.
    fn close_requested(&mut self, wire_id: u32, evicted: bool) {
        if let Some(s) = self.sessions.get_mut(wire_id) {
            if let SessionPhase::Calibrating { calib_len } = s.phase {
                let stretch = &s.pending[..calib_len.min(s.pending.len())];
                if let [Some(hub)] = promote(&mut self.hub, &[(s.patient_id, stretch)], |&r| r)[..]
                {
                    s.phase = SessionPhase::Streaming { hub };
                }
            }
        }
        self.close_wire_session(wire_id, evicted);
    }

    /// Ends a wire session: flushes its buffer into the hub, closes the hub
    /// session, sends any unforwarded beats plus the final report, logs the
    /// end to the durable log, and leaves the report cached for the
    /// retention window so a client that loses its link around the close
    /// can still fetch the end of its session.
    fn close_wire_session(&mut self, wire_id: u32, evicted: bool) {
        // The tail's staged Samples records reach the log before the hub.
        self.wal_commit();
        let Some(s) = self.sessions.get_mut(wire_id) else {
            return;
        };
        // Off the books: the buffer is drained into the hub below, and an
        // ended session keeps none. A session still calibrating has no hub
        // session and ends with an empty report.
        let pending = std::mem::take(&mut s.pending);
        self.buffered_samples -= pending.len();
        let mut report = WireReport {
            beats: 0,
            forwarded: 0,
            samples: s.samples_received,
        };
        let mut history: Vec<WireOutcome> = Vec::new();
        if let Some(hub_id) = s.hub_id() {
            if !pending.is_empty() && self.hub.ingest(&[(hub_id, pending.as_slice())]).is_err() {
                self.stats.internal_skips += 1;
                debug_assert!(false, "closing session {wire_id} is not live in the hub");
            }
            match self.hub.close_session(hub_id) {
                Ok(closed) => {
                    history = closed
                        .outcomes
                        .iter()
                        .map(WireOutcome::from_outcome)
                        .collect();
                    report.beats = history.len() as u64;
                    report.forwarded = closed.forwarded_beats as u64;
                }
                Err(_) => {
                    self.stats.internal_skips += 1;
                    debug_assert!(false, "closing session {wire_id} is not live in the hub");
                }
            }
        }
        let (token, conn, sent) = (s.token, s.conn, s.outcomes_sent);
        // The close is durable before it is acknowledged: a gateway crash
        // after this point must not resurrect the session.
        self.wal_log(&WalRecord::SessionClose { token });
        let unsent = &history[sent.min(history.len())..];
        self.stats.beats_out += unsent.len() as u64;
        send_outcomes(&mut self.conns, &mut self.stats, conn, wire_id, unsent);
        self.send(
            conn,
            &Frame::Report {
                session: wire_id,
                report,
            },
        );
        self.sessions.end(wire_id, report, history, self.now);
        if evicted {
            self.stats.sessions_evicted += 1;
            self.obs
                .trace
                .push(TraceEvent::SessionEvict { session: wire_id });
        } else {
            self.stats.sessions_closed += 1;
            self.obs
                .trace
                .push(TraceEvent::SessionClose { session: wire_id });
        }
    }

    /// Releases dead connections and closing connections whose outbox has
    /// drained, parking their sessions for resume within the retention
    /// window.
    fn reap(&mut self) {
        for idx in 0..self.conns.len() {
            let remove = match self.conns[idx].as_ref() {
                Some(c) => c.dead || (c.closing && c.outbox.queued() == 0),
                None => false,
            };
            if !remove {
                continue;
            }
            for wire_id in self.sessions.ids_for_conn(idx) {
                if self.sessions.park(wire_id, self.now) {
                    self.stats.sessions_detached += 1;
                    self.obs
                        .trace
                        .push(TraceEvent::SessionDetach { session: wire_id });
                }
            }
            self.conns[idx] = None;
        }
    }

    /// Drops parked sessions and cached reports whose retention window
    /// elapsed. Nobody can receive results for an expired parked session
    /// any more: it leaves the ledger, is closed in the log so recovery
    /// does not resurrect it, and its hub session is discarded unreported.
    fn expire_sessions(&mut self) {
        for s in self.sessions.expire(self.now, self.config.resume_window) {
            self.buffered_samples -= s.buffered();
            self.wal_log(&WalRecord::SessionClose { token: s.token });
            if let Some(hub_id) = s.hub_id() {
                if self.hub.close_session(hub_id).is_err() {
                    self.stats.internal_skips += 1;
                    debug_assert!(
                        false,
                        "expired session {} is not live in the hub",
                        s.wire_id
                    );
                }
            }
            self.stats.sessions_expired += 1;
            self.obs
                .trace
                .push(TraceEvent::SessionExpire { session: s.wire_id });
        }
    }

    /// Writes as much of the outbox as the socket accepts.
    fn flush(&mut self, idx: usize) -> bool {
        let Some(conn) = self.conns[idx].as_mut() else {
            return false;
        };
        if conn.dead {
            return false;
        }
        let flushed = conn.outbox.flush(&mut conn.stream, usize::MAX);
        conn.dead = flushed.dead;
        conn.wrote_since_check = conn.wrote_since_check.saturating_add(flushed.written);
        self.stats.wire_bytes_out += flushed.written as u64;
        flushed.written > 0
    }
}

/// Queues `outcomes` on connection `idx` as [`Frame::Outcomes`] frames of at
/// most [`OUTCOMES_PER_FRAME`] beats, encoded straight from the slice. Not a
/// method, so a re-fetch can send a history borrowed from the session table.
fn send_outcomes(
    conns: &mut [Option<Connection>],
    stats: &mut GatewayStats,
    idx: usize,
    session: u32,
    outcomes: &[WireOutcome],
) {
    let Some(conn) = conns[idx].as_mut().filter(|c| !c.dead) else {
        return;
    };
    for chunk in outcomes.chunks(OUTCOMES_PER_FRAME) {
        encode_outcomes_into(session, chunk, &mut conn.outbox.bytes);
        stats.frames_out += 1;
    }
}

impl std::fmt::Debug for Gateway<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("addr", &self.listener.local_addr().ok())
            .field("sessions", &self.sessions.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::{Read, Write};

    use hbc_core::{ExperimentConfig, TrainedSystem};
    use hbc_ecg::record::Lead;
    use hbc_ecg::synthetic::SyntheticEcg;

    use crate::proto::{dequantize_mv_into, quantize_mv_into, MAX_SAMPLES_PER_FRAME};
    use crate::PROTOCOL_VERSION;

    /// Reads whatever frames have arrived on a client socket whose read
    /// timeout makes an empty socket return at once.
    fn read_frames(conn: &mut TcpStream, decoder: &mut FrameDecoder, frames: &mut Vec<Frame>) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => decoder.feed(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) => panic!("client read: {e}"),
            }
        }
        while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
            frames.push(frame);
        }
    }

    #[test]
    fn a_burst_of_completed_stretches_promotes_in_wire_id_order() {
        // Four sessions send their whole calibration stretch in one write,
        // so every stretch completes in the same sweep and is calibrated in
        // one batch. Session 2's stretch is too short for the detector: it
        // alone ends, with an empty Report. The others get the hub slots
        // one-at-a-time promotion would give them — wire-id order — and
        // outcomes bit-identical to `process_record` (the stretch is the
        // whole record, as in `process_record`'s calibration).
        let fw = TrainedSystem::train(&ExperimentConfig::quick())
            .expect("training")
            .wbsn;
        let mut records = Vec::new();
        let mut streams = Vec::new();
        for seed in 0..4u64 {
            let mut gen = SyntheticEcg::with_seed(4100 + seed);
            let rhythm = gen.rhythm(14, 0.1, 0.1);
            let mut record = gen.record(seed as u32, &rhythm, 1).expect("record");
            let mut codes = Vec::new();
            quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
            if seed == 2 {
                codes.truncate(4);
            }
            dequantize_mv_into(&codes, &mut record.leads[0]);
            records.push(record);
            streams.push(codes);
        }
        let fs = records[0].fs;
        let config = GatewayConfig {
            credit_budget: 1 << 20,
            ..GatewayConfig::default()
        };
        let mut gateway = Gateway::bind("127.0.0.1:0", &fw, fs, config).expect("bind");
        let mut conn = TcpStream::connect(gateway.local_addr().expect("addr")).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(1)))
            .expect("read timeout");
        let mut decoder = FrameDecoder::new();
        let mut hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode();
        for codes in &streams {
            hello.extend(
                Frame::OpenSession {
                    patient_id: 7,
                    fs_millihertz: (fs * 1000.0).round() as u32,
                    calib_len: codes.len() as u32,
                }
                .encode(),
            );
        }
        conn.write_all(&hello).expect("open");
        let mut frames = Vec::new();
        let mut ids = Vec::new();
        while ids.len() < streams.len() {
            gateway.poll().expect("poll");
            read_frames(&mut conn, &mut decoder, &mut frames);
            ids.extend(frames.drain(..).filter_map(|f| match f {
                Frame::SessionOpened { session, .. } => Some(session),
                _ => None,
            }));
        }
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "wire ids {ids:?}");

        let mut burst = Vec::new();
        for (&session, codes) in ids.iter().zip(&streams) {
            for (seq, chunk) in codes.chunks(MAX_SAMPLES_PER_FRAME).enumerate() {
                let frame = Frame::Samples {
                    session,
                    seq: seq as u32,
                    samples: chunk.to_vec(),
                };
                burst.extend(frame.encode());
            }
        }
        conn.write_all(&burst).expect("burst");
        gateway
            .poll()
            .expect("the sweep that completes every stretch");
        let slots: Vec<Option<usize>> = ids
            .iter()
            .map(|&id| {
                gateway
                    .sessions
                    .get(id)
                    .and_then(|s| s.hub_id().map(|h| h.index()))
            })
            .collect();
        assert_eq!(slots, [Some(0), Some(1), None, Some(2)]);
        assert!(
            gateway.sessions.get(ids[2]).is_none(),
            "the short stretch ended"
        );

        let mut closes = Vec::new();
        for &session in [ids[0], ids[1], ids[3]].iter() {
            closes.extend(Frame::CloseSession { session }.encode());
        }
        conn.write_all(&closes).expect("close");
        let mut outcomes: Vec<Vec<WireOutcome>> = vec![Vec::new(); ids.len()];
        let mut reports: Vec<Option<WireReport>> = vec![None; ids.len()];
        while reports.iter().any(Option::is_none) {
            gateway.poll().expect("poll");
            read_frames(&mut conn, &mut decoder, &mut frames);
            for frame in frames.drain(..) {
                let index = |session| ids.iter().position(|&id| id == session).expect("known");
                match frame {
                    Frame::Outcomes {
                        session,
                        outcomes: o,
                    } => outcomes[index(session)].extend(o),
                    Frame::Report { session, report } => reports[index(session)] = Some(report),
                    _ => {}
                }
            }
        }
        for (i, record) in records.iter().enumerate() {
            let report = reports[i].expect("every session reported");
            assert_eq!(report.samples as usize, streams[i].len(), "session {i}");
            if i == 2 {
                assert_eq!((report.beats, report.forwarded), (0, 0));
                assert!(outcomes[i].is_empty());
                continue;
            }
            let reference: Vec<WireOutcome> = fw
                .process_record(record)
                .expect("batch")
                .beats
                .iter()
                .map(WireOutcome::from_outcome)
                .collect();
            assert!(!reference.is_empty(), "session {i} must emit beats");
            assert_eq!(outcomes[i], reference, "session {i} vs process_record");
            assert_eq!(report.beats as usize, reference.len());
        }
    }

    #[test]
    fn a_flat_calibration_stretch_ends_its_session_like_a_short_one() {
        // A flat stretch calibrates to a zero detection threshold, which the
        // hub rejects: the session ends in the sweep that completes its
        // stretch with the same empty Report as a stretch too short for the
        // detector (the 4-sample case of the burst test above).
        let fw = TrainedSystem::train(&ExperimentConfig::quick())
            .expect("training")
            .wbsn;
        let fs = 360.0;
        let streams: [Vec<i16>; 3] = [vec![0; 4], vec![0; 1800], vec![100; 1800]];
        let config = GatewayConfig {
            credit_budget: 1 << 20,
            ..GatewayConfig::default()
        };
        let mut gateway = Gateway::bind("127.0.0.1:0", &fw, fs, config).expect("bind");
        let mut conn = TcpStream::connect(gateway.local_addr().expect("addr")).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(1)))
            .expect("read timeout");
        let mut decoder = FrameDecoder::new();
        let mut hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode();
        for codes in &streams {
            hello.extend(
                Frame::OpenSession {
                    patient_id: 9,
                    fs_millihertz: (fs * 1000.0) as u32,
                    calib_len: codes.len() as u32,
                }
                .encode(),
            );
        }
        conn.write_all(&hello).expect("open");
        let mut frames = Vec::new();
        let mut ids = Vec::new();
        while ids.len() < streams.len() {
            gateway.poll().expect("poll");
            read_frames(&mut conn, &mut decoder, &mut frames);
            ids.extend(frames.drain(..).filter_map(|f| match f {
                Frame::SessionOpened { session, .. } => Some(session),
                _ => None,
            }));
        }
        let mut samples = Vec::new();
        for (&session, codes) in ids.iter().zip(&streams) {
            for (seq, chunk) in codes.chunks(MAX_SAMPLES_PER_FRAME).enumerate() {
                let frame = Frame::Samples {
                    session,
                    seq: seq as u32,
                    samples: chunk.to_vec(),
                };
                samples.extend(frame.encode());
            }
        }
        conn.write_all(&samples).expect("samples");
        let mut reports: Vec<Option<WireReport>> = vec![None; ids.len()];
        while reports.iter().any(Option::is_none) {
            gateway.poll().expect("poll");
            read_frames(&mut conn, &mut decoder, &mut frames);
            for frame in frames.drain(..) {
                match frame {
                    Frame::Report { session, report } => {
                        let i = ids.iter().position(|&id| id == session).expect("known");
                        reports[i] = Some(report);
                    }
                    Frame::Outcomes { session, .. } => panic!("session {session} emitted beats"),
                    _ => {}
                }
            }
        }
        for (i, codes) in streams.iter().enumerate() {
            let expected = WireReport {
                beats: 0,
                forwarded: 0,
                samples: codes.len() as u64,
            };
            assert_eq!(reports[i], Some(expected), "session {i}");
            assert!(gateway.sessions.get(ids[i]).is_none(), "session {i} ended");
        }
        assert_eq!(
            gateway.hub.active_sessions(),
            0,
            "no hub session was created"
        );
    }

    #[test]
    fn credit_schedule_coalesces_large_budgets_and_grants_small_ones_at_once() {
        let busy = Duration::ZERO;
        // Default budget: quantum 1 024, guard 16 384.
        let budget = GatewayConfig::default().credit_budget;
        assert!(!credit_due(budget, 0, 0, CREDIT_QUIET), "nothing owed");
        assert!(!credit_due(budget, 0, 1023, busy), "below the quantum");
        assert!(credit_due(budget, 0, 1024, busy), "the quantum");
        assert!(
            !credit_due(budget, 65536 - 16384 - 36, 36, busy),
            "the window is exactly at the guard"
        );
        assert!(
            credit_due(budget, 65536 - 16384 - 35, 36, busy),
            "the window fell below one maximal frame"
        );
        assert!(credit_due(budget, 0, 1, CREDIT_QUIET), "a quiet session");
        // A budget that admits at most one maximal frame: granted at once.
        for budget in [1024, 4096, MAX_SAMPLES_PER_FRAME] {
            assert!(credit_due(budget, 0, 1, busy), "budget {budget}");
        }
        // One sample more and the guard still catches a blocked sender.
        let budget = MAX_SAMPLES_PER_FRAME + 1;
        assert!(!credit_due(budget, 0, 1, busy));
        assert!(credit_due(budget, 0, 2, busy));
    }

    #[test]
    fn only_per_peer_and_exhaustion_accept_errors_are_transient() {
        use std::io::Error;
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::OutOfMemory,
        ] {
            assert!(transient_accept_error(&Error::from(kind)), "{kind:?}");
        }
        #[cfg(target_os = "linux")]
        for code in EXHAUSTION_ERRNOS {
            assert!(
                transient_accept_error(&Error::from_raw_os_error(code)),
                "errno {code}"
            );
        }
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::PermissionDenied,
            ErrorKind::NotConnected,
        ] {
            assert!(!transient_accept_error(&Error::from(kind)), "{kind:?}");
        }
        // ECONNABORTED (the peer reset before it was accepted),
        // ECONNRESET and ENOMEM reach their `ErrorKind` through the
        // standard library's errno mapping.
        #[cfg(target_os = "linux")]
        for code in [103, 104, 12] {
            assert!(
                transient_accept_error(&Error::from_raw_os_error(code)),
                "errno {code}"
            );
        }
        // EBADF / EINVAL: the listener itself is broken.
        for code in [9, 22] {
            assert!(
                !transient_accept_error(&Error::from_raw_os_error(code)),
                "errno {code}"
            );
        }
    }
}

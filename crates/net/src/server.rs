//! The gateway reactor: a single-threaded nonblocking TCP server that
//! terminates node connections and feeds the [`StreamHub`].
//!
//! ## Reactor
//!
//! [`Gateway::poll`] runs one sweep: accept pending connections, read every
//! socket until it would block, decode and handle frames, promote sessions
//! whose calibration stretch is complete, batch at most one pending chunk
//! per session into a single [`StreamHub::ingest`] call (so decode and
//! classification fan out over `hbc-par` when the batch is large enough),
//! forward freshly classified beats, grant credit, evict idle sessions,
//! park the sessions of dead
//! connections for resumption (and expire parked ones past the retention
//! window) and flush write buffers. [`Gateway::run`] loops `poll` until a
//! shutdown flag flips, then reports [`GatewayStats`].
//!
//! ## Credit-based flow control
//!
//! Every session holds a **credit budget** of `credit_budget` samples — the
//! most it may have sent but not yet had consumed by the hub. The budget is
//! granted in full at [`Frame::SessionOpened`]; as the hub consumes buffered
//! samples the gateway returns [`Frame::Credit`] grants. A compliant sender
//! therefore stalls when the gateway falls behind instead of ballooning its
//! buffers; a sender that overruns its credit hits the configurable
//! [`OverflowPolicy`]. Back-pressure composes through the write side too:
//! while a connection's outbox exceeds `max_outbox_bytes` (a slow *reader*),
//! the gateway stops consuming that connection's sessions — so no new
//! outcomes are produced, no credit is granted, and the sender stalls at its
//! budget while other sessions keep flowing. Gateway-side memory per session
//! stays bounded by the budget plus one in-flight chunk.
//!
//! ## Durable ingest log
//!
//! With [`GatewayConfig::wal`] set, every session open, every *accepted*
//! `Samples` chunk (post credit-truncation, as raw ADC codes) and every
//! session end is appended to an `hbc_wal` segment log **before** the data
//! reaches the hub. A gateway re-bound to the same log directory rebuilds
//! the state of every session that was open at the crash: the calibration
//! stretch is re-derived from the logged samples (same thresholds), the
//! whole logged stream is replayed through the hub in one parallel
//! [`StreamHub::ingest`] call (bit-identical outcomes, by chunk invariance),
//! and the session is parked in the detached table — the owning node
//! re-attaches with the ordinary [`Frame::ResumeSession`] flow, without
//! re-calibration and without resending what the gateway already has.
//!
//! ## Overload protection & self-supervision
//!
//! Credit bounds *one* session; this layer bounds the *gateway*:
//!
//! * **Admission control** — [`GatewayConfig::max_connections`],
//!   [`GatewayConfig::max_sessions`] (live + parked: a detached session
//!   still holds resources) and [`GatewayConfig::global_memory_budget`]
//!   (sample buffers of live and parked sessions, connection outboxes and
//!   the cached-report table, accounted in one ledger). Past a limit,
//!   [`Frame::OpenSession`] and fresh connections get [`Frame::Busy`] with
//!   a `retry_after_ms` hint instead of a silent accept.
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
//!   ([`GatewayStats::watchdog_stalls`]), and [`Gateway::health`] snapshots
//!   budget utilization and the shed/deny counters for supervisors.
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

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbc_core::stream::any_recent_abnormal;
use hbc_core::{SessionId, StreamHub};
use hbc_embedded::firmware::BeatOutcome;
use hbc_embedded::WbsnFirmware;
use hbc_obs::{Histogram, MetricsSnapshot, TraceEvent, TraceRecord, TraceRing};
use hbc_wal::{Wal, WalConfig, WalRecord};

mod admin;

use admin::AdminConn;

use crate::proto::{
    Frame, FrameDecoder, WireOutcome, WireReport, MAX_SAMPLES_PER_FRAME, PROTOCOL_VERSION,
};
use crate::replay::{self, Calibration};
use crate::session::{NetSession, ResumeOutcome, SessionManager, SessionPhase, SessionPriority};

/// Bytes one buffered sample occupies gateway-side (sessions buffer
/// dequantized `f64`s).
const SAMPLE_BYTES: usize = std::mem::size_of::<f64>();

/// How many recent outcomes the priority refresh scans: one abnormal beat
/// in the window flags the session [`SessionPriority::Critical`]; a clean
/// window decays it back to [`SessionPriority::Normal`].
const PRIORITY_WINDOW: usize = 64;

/// The shedding priority a session's outcome history earns: critical while
/// its last [`PRIORITY_WINDOW`] outcomes hold an abnormal beat.
fn priority_of(outcomes: &[BeatOutcome]) -> SessionPriority {
    if any_recent_abnormal(outcomes, PRIORITY_WINDOW) {
        SessionPriority::Critical
    } else {
        SessionPriority::Normal
    }
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
    /// flight (sent but not yet consumed by the hub).
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
    /// `Duration::ZERO` disables retention: a dead connection discards its
    /// sessions immediately, as before protocol version 2. The window also
    /// bounds the final-report cache: a client whose link died *after* its
    /// `CloseSession` was processed can re-fetch the cached report within
    /// the same window.
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
    /// Most concurrent sessions, live **plus parked**: a detached session
    /// still holds buffers and a resume claim on the hub.
    /// [`Frame::OpenSession`] past the cap gets [`Frame::Busy`];
    /// [`Frame::ResumeSession`] is exempt (parked → live is count-neutral),
    /// so recovery is never locked out by the overload that caused it.
    pub max_sessions: usize,
    /// Global memory budget in bytes, accounted in one ledger: buffered
    /// samples of live and parked sessions, connection outboxes and the
    /// cached-report table. Opens whose calibration stretch no longer fits
    /// get [`Frame::Busy`]; accepted traffic that would breach the budget
    /// triggers priority-aware shedding first and drops the remainder of
    /// the incoming frame last (see [`GatewayStats::samples_shed`]).
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
    /// Capacity of the trace ring (older events are overwritten once the
    /// ring is full; [`TraceRing::dropped`] counts the overwrites).
    pub trace_capacity: usize,
    /// Length of one poll-latency accounting window for the *windowed*
    /// high-water mark ([`GatewayStats::poll_recent_high_water_micros`]):
    /// unlike the all-time [`GatewayStats::poll_high_water_micros`], the
    /// windowed figure decays, covering roughly the last two windows.
    /// `Duration::ZERO` disables rotation (the windowed figure then equals
    /// the all-time mark).
    pub poll_window: Duration,
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
            trace_capacity: 4096,
            poll_window: Duration::from_secs(10),
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
        /// In microseconds, over [`GatewayConfig::poll_window`]s: the
        /// *windowed* counterpart of
        /// [`GatewayStats::poll_high_water_micros`]. It decays once a slow
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
    fn new() -> Self {
        Heartbeat {
            inner: Arc::new(HeartbeatInner {
                epoch: Instant::now(),
                last_beat: AtomicU64::new(0),
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// Stamps the current instant; called by the reactor at the start of
    /// every sweep.
    fn beat(&self) {
        let micros = u64::try_from(self.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
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

/// A point-in-time health snapshot of a gateway, from [`Gateway::health`]:
/// everything a supervisor needs to decide whether the reactor is alive,
/// how close it is to its global memory budget, and whether overload
/// protections have been firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayHealth {
    /// Live wire sessions.
    pub live_sessions: usize,
    /// Sessions parked for resume.
    pub parked_sessions: usize,
    /// Open connections (including ones draining toward a close).
    pub connections: usize,
    /// Bytes of buffered samples across live and parked sessions.
    pub buffered_bytes: usize,
    /// Total currently charged against the global memory budget: buffered
    /// samples, connection outboxes and the cached-report table.
    pub memory_used: usize,
    /// The configured [`GatewayConfig::global_memory_budget`].
    pub memory_budget: usize,
    /// Worst sweep latency the run loop has observed.
    pub poll_high_water: Duration,
    /// Worst sweep latency over roughly the last two
    /// [`GatewayConfig::poll_window`]s (the decaying high-water mark).
    pub poll_recent_high_water: Duration,
    /// Sweeps that overran [`GatewayConfig::watchdog_budget`].
    pub watchdog_stalls: u64,
    /// Admission denials answered with [`Frame::Busy`].
    pub busy_denials: u64,
    /// Shed events so far.
    pub sheds: u64,
    /// Samples shed so far.
    pub samples_shed: u64,
    /// Durable-log append failures so far. Non-zero means the gateway gave
    /// up on the log and is running undurably (see
    /// [`GatewayStats::wal_errors`]).
    pub wal_errors: u64,
    /// Bytes the durable ingest log occupies on disk across its live
    /// segments, `0` when no log is configured (or it was disabled by an
    /// append failure).
    pub wal_log_bytes: u64,
    /// Whether the durable ingest log is still accepting appends.
    pub wal_active: bool,
}

impl GatewayHealth {
    /// Fraction of the global memory budget in use (may momentarily exceed
    /// 1.0 while a shed sweep is catching up).
    pub fn budget_utilization(&self) -> f64 {
        if self.memory_budget == 0 {
            return 0.0;
        }
        self.memory_used as f64 / self.memory_budget as f64
    }
}

struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbox: Vec<u8>,
    sent: usize,
    greeted: bool,
    /// Outbox still flushing, no further reads; reaped once drained.
    closing: bool,
    /// Socket gone; reaped immediately.
    dead: bool,
    /// When the connection was accepted; drives the pre-session handshake
    /// deadline.
    accepted_at: Instant,
    /// The connection completed a session-level handshake (opened, resumed
    /// or re-fetched a session) and graduated from the handshake deadline
    /// to the minimum-progress check.
    established: bool,
    /// Bytes read since the current progress interval began.
    read_since_check: usize,
    /// Outbox bytes flushed since the current progress interval began.
    wrote_since_check: usize,
    /// When the current minimum-progress interval began.
    checked_at: Instant,
}

impl Connection {
    fn queued(&self) -> usize {
        self.outbox.len() - self.sent
    }
}

/// A session that ended normally, kept for the retention window so a client
/// whose connection died around its `CloseSession` can re-fetch the final
/// report (and any outcomes it missed) instead of observing a denial.
#[derive(Debug)]
struct CompletedSession {
    wire_id: u32,
    patient_id: u32,
    /// The complete outcome history, for resending the tail a client lost.
    outcomes: Vec<WireOutcome>,
    report: WireReport,
    /// The session's final receive position (`next_seq` at close).
    final_seq: u32,
    /// When the session ended; drives cache expiry (same window as resume).
    since: Instant,
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
    fn new(trace_capacity: usize) -> Self {
        GatewayObs {
            latency: GatewayLatency::default(),
            trace: TraceRing::new(trace_capacity),
            window_started: Instant::now(),
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
    hub: StreamHub<'fw>,
    fs_millihertz: u32,
    config: GatewayConfig,
    conns: Vec<Option<Connection>>,
    sessions: SessionManager,
    stats: GatewayStats,
    /// Per-sweep scratch, reused so a warm sweep allocates nothing: the
    /// live session ids of the current pass,
    ids: Vec<u32>,
    /// the frames decoded from one connection,
    frames: Vec<Frame>,
    /// one staging slot per session fed in this sweep (the first `n` slots
    /// are the batch; each keeps its sample buffer's capacity across
    /// sweeps),
    staged: Vec<(SessionId, Vec<f64>)>,
    /// and the outcome tail being forwarded to one session.
    outcomes: Vec<WireOutcome>,
    /// Durable ingest log, when configured. `None` after an append failure
    /// (see [`GatewayStats::wal_errors`]).
    wal: Option<Wal>,
    /// Final reports of recently ended sessions, keyed by resume token and
    /// expired on the resume window.
    completed: HashMap<u64, CompletedSession>,
    /// Wire-id → token index into [`Self::completed`], for retried closes.
    completed_by_wire: HashMap<u32, u64>,
    /// Incremental ledger of samples buffered across live **and** parked
    /// sessions — the sample-buffer share of the global memory budget,
    /// maintained at every mutation site and audited against
    /// [`SessionManager::total_buffered_samples`] in debug builds.
    buffered_samples: usize,
    /// Liveness probe stamped at the start of every sweep.
    heartbeat: Heartbeat,
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
    /// errors from opening the log. Corrupt log *content* is never an
    /// error: recovery keeps the valid prefix.
    pub fn bind(
        addr: impl ToSocketAddrs,
        firmware: &'fw WbsnFirmware,
        fs: f64,
        config: GatewayConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let fs_millihertz = (fs * 1000.0).round() as u32;
        let mut hub = StreamHub::new(firmware, fs);
        let mut sessions = SessionManager::new();
        let mut stats = GatewayStats::default();
        let wal = match &config.wal {
            Some(wal_config) => {
                let (wal, recovery) =
                    Wal::open(wal_config.clone()).map_err(std::io::Error::other)?;
                let recovered = recover_sessions(
                    &mut hub,
                    &mut sessions,
                    recovery.records,
                    fs_millihertz,
                    &mut stats,
                );
                stats.sessions_recovered = recovered;
                Some(wal)
            }
            None => None,
        };
        // Recovered sessions arrive with their replay buffers; seed the
        // global ledger from the recount so the budget sees them.
        let buffered_samples = sessions.total_buffered_samples();
        let mut obs = GatewayObs::new(config.trace_capacity);
        for token in sessions.detached_tokens() {
            if let Some(s) = sessions.detached_get(token) {
                obs.trace
                    .push(TraceEvent::SessionRecover { session: s.wire_id });
            }
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
            ids: Vec::new(),
            frames: Vec::new(),
            staged: Vec::new(),
            outcomes: Vec::new(),
            wal,
            completed: HashMap::new(),
            completed_by_wire: HashMap::new(),
            buffered_samples,
            heartbeat: Heartbeat::new(),
            obs,
            admin,
            admin_conns: Vec::new(),
        })
    }

    /// Appends one record to the durable log. An append failure disables
    /// the log for the rest of the gateway's lifetime (counted in
    /// [`GatewayStats::wal_errors`]): the service keeps running, the log on
    /// disk stays a valid prefix of the accepted traffic.
    fn wal_log(&mut self, record: &WalRecord) {
        if let Some(wal) = self.wal.as_mut() {
            match wal.append(record) {
                Ok(bytes) => self.obs.trace.push(TraceEvent::WalAppend {
                    bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
                }),
                Err(_) => {
                    self.stats.wal_errors += 1;
                    self.obs.trace.push(TraceEvent::WalError);
                    self.wal = None;
                }
            }
        }
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

    /// Live wire sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions parked for resume (their connection died within the
    /// retention window).
    pub fn parked_sessions(&self) -> usize {
        self.sessions.detached_len()
    }

    /// Bytes currently charged against
    /// [`GatewayConfig::global_memory_budget`]: buffered samples of live
    /// and parked sessions, connection outboxes and the cached-report
    /// table — the gateway's one memory ledger.
    fn memory_used(&self) -> usize {
        let outboxes: usize = self.conns.iter().flatten().map(Connection::queued).sum();
        let completed: usize = self
            .completed
            .values()
            .map(|done| done.outcomes.len() * std::mem::size_of::<WireOutcome>())
            .sum();
        self.buffered_samples * SAMPLE_BYTES + outboxes + completed
    }

    /// A point-in-time health snapshot: session and connection counts,
    /// budget utilization, the poll-latency high-water mark and the
    /// overload counters.
    pub fn health(&self) -> GatewayHealth {
        GatewayHealth {
            live_sessions: self.sessions.len(),
            parked_sessions: self.sessions.detached_len(),
            connections: self.conns.iter().flatten().count(),
            buffered_bytes: self.buffered_samples * SAMPLE_BYTES,
            memory_used: self.memory_used(),
            memory_budget: self.config.global_memory_budget,
            poll_high_water: Duration::from_micros(self.stats.poll_high_water_micros),
            poll_recent_high_water: Duration::from_micros(self.recent_high_water_micros()),
            watchdog_stalls: self.stats.watchdog_stalls,
            busy_denials: self.stats.busy_denials,
            sheds: self.stats.sheds,
            samples_shed: self.stats.samples_shed,
            wal_errors: self.stats.wal_errors,
            wal_log_bytes: self.wal.as_ref().map_or(0, Wal::total_bytes),
            wal_active: self.wal.is_some(),
        }
    }

    /// The windowed poll-latency high-water mark: the worst sweep over the
    /// current and the previous [`GatewayConfig::poll_window`].
    fn recent_high_water_micros(&self) -> u64 {
        self.obs
            .window_max_micros
            .max(self.obs.prev_window_max_micros)
    }

    /// Feeds one sweep latency into the telemetry: the sweep histogram and
    /// the windowed high-water rotation.
    fn note_sweep(&mut self, micros: u64) {
        self.obs.latency.sweep_micros.record(micros);
        let window = self.config.poll_window;
        if !window.is_zero() && self.obs.window_started.elapsed() > window {
            self.obs.prev_window_max_micros = self.obs.window_max_micros;
            self.obs.window_max_micros = 0;
            self.obs.window_started = Instant::now();
        }
        self.obs.window_max_micros = self.obs.window_max_micros.max(micros);
        self.stats.poll_recent_high_water_micros = self.recent_high_water_micros();
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
    /// affected connection.
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
    /// Propagates fatal listener errors; per-connection errors only drop the
    /// affected connection.
    pub fn run_with_report(mut self, shutdown: &AtomicBool) -> std::io::Result<GatewayReport> {
        while !shutdown.load(Ordering::Acquire) {
            let sweep_started = Instant::now();
            let progress = self.poll()?;
            let latency = sweep_started.elapsed();
            let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
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
        let sessions = self.sessions.len() + self.sessions.detached_len();
        self.obs.trace.push(TraceEvent::HotSwap {
            sessions: u32::try_from(sessions).unwrap_or(u32::MAX),
        });
        Ok(())
    }

    /// One reactor sweep; returns whether any progress was made (bytes
    /// moved, frames handled, samples ingested). Stamps the [`Heartbeat`]
    /// on entry.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn poll(&mut self) -> std::io::Result<bool> {
        self.heartbeat.beat();
        let mut progress = self.accept_new()?;
        progress |= self.serve_admin();
        for idx in 0..self.conns.len() {
            progress |= self.service_reads(idx);
        }
        progress |= self.ingest_sweep();
        progress |= self.forward_outcomes_and_credit();
        self.evict_idle();
        self.reap_slow_peers();
        self.reap();
        self.expire_detached();
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

    fn accept_new(&mut self) -> std::io::Result<bool> {
        let mut accepted = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let conn = Connection {
                        stream,
                        decoder: FrameDecoder::new(),
                        outbox: Vec::new(),
                        sent: 0,
                        greeted: false,
                        closing: false,
                        dead: false,
                        accepted_at: now,
                        established: false,
                        read_since_check: 0,
                        wrote_since_check: 0,
                        checked_at: now,
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
                    // Admission: past the connection cap the newcomer gets
                    // a Busy hint and a flush-then-close, so its slot frees
                    // as soon as the hint drains.
                    let live = self.conns.iter().flatten().filter(|c| !c.dead).count();
                    if live > self.config.max_connections {
                        self.busy(idx);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(accepted)
    }

    /// Reads one connection until a short read drains the socket (bounded
    /// per sweep) and handles every complete frame. A short read ends the
    /// loop without the extra `read` that would only return `WouldBlock`;
    /// bytes or an EOF arriving after it are seen on the next sweep.
    fn service_reads(&mut self, idx: usize) -> bool {
        const READ_BUDGET: usize = 256 * 1024;
        let Some(conn) = self.conns[idx].as_mut() else {
            return false;
        };
        if conn.closing || conn.dead {
            return false;
        }
        let mut buf = [0u8; 16 * 1024];
        let mut taken = 0usize;
        let mut eof = false;
        while taken < READ_BUDGET {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.feed(&buf[..n]);
                    conn.read_since_check = conn.read_since_check.saturating_add(n);
                    taken += n;
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
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
                .record(u64::try_from(frame_started.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        self.frames = frames;
        if let Some(message) = violation {
            self.deny(idx, &message);
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

    /// Queues a frame on a connection's outbox.
    fn send(&mut self, idx: usize, frame: &Frame) {
        if let Some(conn) = self.conns[idx].as_mut() {
            if !conn.dead {
                frame.encode_into(&mut conn.outbox);
                self.stats.frames_out += 1;
            }
        }
    }

    /// Queues a [`Frame::Outcomes`] carrying `outcomes`. The buffer is lent
    /// to the frame and taken back, so a reused scratch keeps its capacity.
    fn send_outcomes(&mut self, idx: usize, session: u32, outcomes: &mut Vec<WireOutcome>) {
        let frame = Frame::Outcomes {
            session,
            outcomes: std::mem::take(outcomes),
        };
        self.send(idx, &frame);
        if let Frame::Outcomes { outcomes: lent, .. } = frame {
            *outcomes = lent;
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
                    self.close_wire_session(session, false);
                } else if let Some(report) = self
                    .completed_by_wire
                    .get(&session)
                    .and_then(|token| self.completed.get(token))
                    .map(|done| done.report)
                {
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
        // detached stream still holds buffers and a resume claim — but
        // ResumeSession itself is exempt (parked → live is count-neutral).
        if self.sessions.len() + self.sessions.detached_len() >= self.config.max_sessions {
            self.busy(idx);
            return;
        }
        if self.memory_used() + calib_len * SAMPLE_BYTES > self.config.global_memory_budget {
            self.busy(idx);
            return;
        }
        let wire_id = self
            .sessions
            .open(idx, patient_id, calib_len, Instant::now());
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
    /// of leaving a gap.
    fn resume_session(
        &mut self,
        idx: usize,
        patient_id: u32,
        token: u64,
        last_acked_seq: u32,
        outcomes_received: u64,
    ) {
        if self.config.resume_window.is_zero() {
            self.deny(idx, "session resumption is disabled on this gateway");
            return;
        }
        if let Some(done) = self.completed.get(&token) {
            // The session already ended; only the client's copy of the end
            // was lost with its link. Re-serve the outcome tail and the
            // final report instead of denying, so a connection that died
            // around `CloseSession` still converges.
            let owner = done.patient_id;
            let wire_id = done.wire_id;
            let final_seq = done.final_seq;
            let from = (outcomes_received as usize).min(done.outcomes.len());
            let tail = done.outcomes[from..].to_vec();
            let report = done.report;
            if owner != patient_id {
                self.deny(
                    idx,
                    &format!("resume token does not belong to patient {patient_id}"),
                );
                return;
            }
            self.mark_established(idx);
            self.stats.reports_refetched += 1;
            self.send(
                idx,
                &Frame::SessionResumed {
                    session: wire_id,
                    next_expected_seq: final_seq,
                    credit: 0,
                },
            );
            for chunk in tail.chunks(512) {
                self.send(
                    idx,
                    &Frame::Outcomes {
                        session: wire_id,
                        outcomes: chunk.to_vec(),
                    },
                );
            }
            self.send(
                idx,
                &Frame::Report {
                    session: wire_id,
                    report,
                },
            );
            return;
        }
        match self.sessions.resume(token, patient_id, idx, Instant::now()) {
            ResumeOutcome::Resumed(wire_id) => {
                let budget = self.config.credit_budget;
                let Some(received) = self.sessions.get(wire_id).map(|s| s.next_seq) else {
                    self.stats.internal_skips += 1;
                    debug_assert!(false, "session {wire_id} vanished right after resume");
                    self.deny(idx, "internal session error");
                    return;
                };
                if last_acked_seq > received {
                    self.deny(
                        idx,
                        &format!(
                            "resume claims {last_acked_seq} acked sample frames, gateway received {received}"
                        ),
                    );
                    return;
                }
                let Some(s) = self.sessions.get_mut(wire_id) else {
                    self.stats.internal_skips += 1;
                    debug_assert!(false, "session {wire_id} vanished right after resume");
                    self.deny(idx, "internal session error");
                    return;
                };
                // The client cannot have received more outcomes than were
                // ever forwarded; a smaller claim rewinds (resend), never
                // a skip.
                s.outcomes_sent = (outcomes_received as usize).min(s.outcomes_sent);
                // Credit restarts as an absolute figure: budget minus what
                // is still buffered gateway-side for this session.
                s.consumed_since_grant = 0;
                let credit = budget.saturating_sub(s.buffered()) as u32;
                let next_expected_seq = s.next_seq;
                self.mark_established(idx);
                self.stats.sessions_resumed += 1;
                self.obs
                    .trace
                    .push(TraceEvent::SessionResume { session: wire_id });
                self.send(
                    idx,
                    &Frame::SessionResumed {
                        session: wire_id,
                        next_expected_seq,
                        credit,
                    },
                );
            }
            ResumeOutcome::UnknownToken => {
                self.deny(idx, "unknown or expired resume token");
            }
            ResumeOutcome::WrongPatient => {
                self.deny(
                    idx,
                    &format!("resume token does not belong to patient {patient_id}"),
                );
            }
        }
    }

    fn accept_samples(&mut self, idx: usize, session: u32, seq: u32, mut samples: Vec<i16>) {
        let budget = self.config.credit_budget;
        let overflow = self.config.overflow;
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
        if samples.len() > MAX_SAMPLES_PER_FRAME {
            self.deny(idx, "sample frame exceeds MAX_SAMPLES_PER_FRAME");
            return;
        }
        s.next_seq += 1;
        s.last_activity = Instant::now();
        let token = s.token;
        let room = budget.saturating_sub(s.buffered());
        let accepted = if samples.len() > room {
            match overflow {
                OverflowPolicy::Disconnect => {
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
                OverflowPolicy::DropExcess => {
                    self.stats.samples_dropped += (samples.len() - room) as u64;
                    room
                }
            }
        } else {
            samples.len()
        };
        // Global-budget enforcement: shed buffered normal-priority
        // telemetry first (largest buffer first, live or parked); whatever
        // still does not fit — everything left is critical — is dropped
        // from the incoming frame instead, with credit returned either way
        // so the sender degrades (a stream gap) rather than deadlocking.
        let mut accepted = accepted;
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
        // record's payload and comes back for dequantization — no copy.
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
        let adc = crate::proto::wire_adc();
        // Anchor the beat-to-outcome clock on the empty → non-empty
        // transition: the oldest buffered sample arrived now.
        if s.pending.is_empty() && accepted > 0 && s.oldest_pending_at.is_none() {
            s.oldest_pending_at = Some(Instant::now());
        }
        s.pending
            .extend(samples.iter().map(|&c| adc.dequantize_sample(i32::from(c))));
        s.samples_received += accepted as u64;
        s.consumed_since_grant += dropped_at_budget;
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
    /// observe a stream gap, not a stall.
    fn shed_samples(&mut self, mut need: usize) {
        for critical_pass in [false, true] {
            if need == 0 {
                return;
            }
            // (buffered, wire_id, live, key): live keys are wire ids,
            // parked keys are resume tokens.
            let mut victims: Vec<(usize, u32, bool, u64)> = Vec::new();
            for wire_id in self.sessions.ids() {
                let Some(s) = self.sessions.get(wire_id) else {
                    continue;
                };
                let critical = s.priority == SessionPriority::Critical;
                if critical == critical_pass && s.buffered() > 0 {
                    victims.push((s.buffered(), wire_id, true, u64::from(wire_id)));
                }
            }
            for token in self.sessions.detached_tokens() {
                let Some(s) = self.sessions.detached_get(token) else {
                    continue;
                };
                let critical = s.priority == SessionPriority::Critical;
                if critical == critical_pass && s.buffered() > 0 {
                    victims.push((s.buffered(), s.wire_id, false, token));
                }
            }
            victims.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for (_, wire_id, live, key) in victims {
                if need == 0 {
                    return;
                }
                let s = if live {
                    self.sessions.get_mut(key as u32)
                } else {
                    self.sessions.detached_get_mut(key)
                };
                let Some(s) = s else {
                    continue;
                };
                let shed = s.pending.len().min(need);
                if shed == 0 {
                    continue;
                }
                s.pending.truncate(s.pending.len() - shed);
                if live {
                    s.consumed_since_grant += shed;
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
        let now = Instant::now();
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
                if !handshake.is_zero() && now.duration_since(conn.accepted_at) > handshake {
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
            let frozen = conn.queued() > 0 && conn.wrote_since_check == 0;
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

    /// Promotes sessions whose calibration stretch is complete, then feeds
    /// at most one pending chunk per session into the hub with a single
    /// [`StreamHub::ingest`] call (which fans out only when the batch is
    /// large enough to pay for it).
    fn ingest_sweep(&mut self) -> bool {
        // Promotion: derive thresholds from the first `calib_len` samples
        // and create the hub session; the stretch stays in `pending` and is
        // replayed into the stream, like a node's start-up phase.
        let mut ids = std::mem::take(&mut self.ids);
        self.sessions.ids_into(&mut ids);
        for &wire_id in &ids {
            let Some(s) = self.sessions.get_mut(wire_id) else {
                continue;
            };
            let SessionPhase::Calibrating { calib_len } = s.phase else {
                continue;
            };
            if s.pending.len() < calib_len {
                continue;
            }
            match promote(&mut self.hub, s.patient_id, &s.pending[..calib_len]) {
                Some(hub) => s.phase = SessionPhase::Streaming { hub },
                // A degenerate calibration stretch is a per-session failure:
                // end *this* session like any close — an empty Report whose
                // samples counter tells the client how much was consumed
                // for nothing — and leave the connection's other sessions
                // untouched.
                None => self.close_wire_session(wire_id, false),
            }
        }
        self.ids = ids;

        // Stage one chunk per session. Sessions on connections whose outbox
        // is over the cap are skipped: no consumption, no credit — the
        // slow-reader stall.
        let now = Instant::now();
        let Gateway {
            hub,
            sessions,
            conns,
            config,
            ids,
            staged,
            stats,
            buffered_samples,
            obs,
            ..
        } = self;
        sessions.ids_into(ids);
        let mut batch = 0;
        for &wire_id in ids.iter() {
            let Some(s) = sessions.get_mut(wire_id) else {
                stats.internal_skips += 1;
                debug_assert!(false, "listed session {wire_id} vanished");
                continue;
            };
            let Some(hub_id) = s.hub_id() else {
                continue;
            };
            if s.pending.is_empty() {
                continue;
            }
            let writable = conns[s.conn]
                .as_ref()
                .is_some_and(|c| !c.dead && c.queued() <= config.max_outbox_bytes);
            if !writable {
                continue;
            }
            let take = s.pending.len().min(config.max_ingest_per_poll);
            if batch == staged.len() {
                staged.push((hub_id, Vec::new()));
            }
            let (slot_id, chunk) = &mut staged[batch];
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
            }
            s.consumed_since_grant += take;
            // Staged samples leave the buffered ledger: from here they are
            // the one in-flight chunk, consumed this very sweep.
            *buffered_samples -= take;
            // Consumption counts as activity: a compliant sender stalled on
            // credit (because this gateway is the slow side) must not be
            // idle-evicted while its buffer is still being drained.
            s.last_activity = now;
        }
        if batch == 0 {
            return false;
        }
        // Staged sessions are live, unique hub sessions by construction; a
        // rejection would mean the staging scan and the hub disagree about
        // liveness, and dropping the chunk beats poisoning the reactor.
        let ingest_started = Instant::now();
        let rejected = hub.ingest(&staged[..batch]).is_err();
        obs.latency
            .ingest_batch_micros
            .record(u64::try_from(ingest_started.elapsed().as_micros()).unwrap_or(u64::MAX));
        if rejected {
            stats.internal_skips += 1;
            debug_assert!(false, "staged ingest rejected by the hub");
        }
        true
    }

    /// Forwards freshly classified beats and grants credit for consumed
    /// samples. One hub read per session decides: a session with no new
    /// outcome and no credit owed is skipped — it has nothing to send, and
    /// its priority window is the one its last visit already scored.
    fn forward_outcomes_and_credit(&mut self) -> bool {
        let mut progress = false;
        let mut ids = std::mem::take(&mut self.ids);
        let mut outcomes = std::mem::take(&mut self.outcomes);
        self.sessions.ids_into(&mut ids);
        for &wire_id in &ids {
            let Some(s) = self.sessions.get_mut(wire_id) else {
                continue;
            };
            let Some(hub_id) = s.hub_id() else {
                continue;
            };
            let (conn, sent, grant) = (s.conn, s.outcomes_sent, s.consumed_since_grant);
            // Copy the unsent tail into the reused scratch and refresh the
            // shedding priority from the recent outcome window: an abnormal
            // beat protects the stream under overload, and a clean window
            // decays the protection again.
            outcomes.clear();
            let read = self.hub.with_outcomes(hub_id, |all| {
                if all.len() == sent && grant == 0 {
                    return None;
                }
                outcomes.extend(
                    all[sent.min(all.len())..]
                        .iter()
                        .map(WireOutcome::from_outcome),
                );
                Some(priority_of(all))
            });
            s.priority = match read {
                Ok(Some(priority)) => priority,
                Ok(None) => continue,
                Err(_) => {
                    self.stats.internal_skips += 1;
                    debug_assert!(false, "streaming session {wire_id} is not live in the hub");
                    continue;
                }
            };
            if !outcomes.is_empty() {
                let n = outcomes.len();
                self.send_outcomes(conn, wire_id, &mut outcomes);
                let Some(s) = self.sessions.get_mut(wire_id) else {
                    debug_assert!(false, "session {wire_id} vanished while forwarding");
                    continue;
                };
                s.outcomes_sent += n;
                // The headline metric: from the arrival of the oldest
                // sample behind these outcomes to the sweep forwarding
                // them. One record per forwarding event.
                if let Some(anchor) = s.staged_anchor.take() {
                    self.obs
                        .latency
                        .beat_to_outcome_micros
                        .record(u64::try_from(anchor.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
                self.stats.beats_out += n as u64;
                progress = true;
            }
            if grant > 0 {
                let under_cap = self.conns[conn]
                    .as_ref()
                    .is_some_and(|c| !c.dead && c.queued() <= self.config.max_outbox_bytes);
                if under_cap {
                    let acked_seq = self.sessions.get(wire_id).map_or(0, |s| s.next_seq);
                    self.send(
                        conn,
                        &Frame::Credit {
                            session: wire_id,
                            grant: grant as u32,
                            acked_seq,
                        },
                    );
                    let Some(s) = self.sessions.get_mut(wire_id) else {
                        debug_assert!(false, "session {wire_id} vanished while granting");
                        continue;
                    };
                    s.consumed_since_grant = 0;
                    progress = true;
                }
            }
        }
        self.ids = ids;
        self.outcomes = outcomes;
        progress
    }

    fn evict_idle(&mut self) {
        for wire_id in self
            .sessions
            .idle_ids(Instant::now(), self.config.idle_timeout)
        {
            self.close_wire_session(wire_id, true);
        }
    }

    /// Ends a wire session: flushes its buffer into the hub, closes the hub
    /// session, sends any unforwarded beats plus the final report, logs the
    /// end to the durable log, and caches the report for the retention
    /// window so a client that loses its link around the close can still
    /// fetch the end of its session.
    fn close_wire_session(&mut self, wire_id: u32, evicted: bool) {
        let Some(mut s) = self.sessions.remove(wire_id) else {
            return;
        };
        // Off the books: whatever is still pending is drained into the hub
        // below and gone either way.
        self.buffered_samples -= s.buffered();
        // The close is durable before it is acknowledged: a gateway crash
        // after this point must not resurrect the session.
        self.wal_log(&WalRecord::SessionClose { token: s.token });
        // A close can arrive while the calibration stretch is still short;
        // calibrate on what exists (best effort — too short simply yields an
        // empty session).
        if let SessionPhase::Calibrating { calib_len } = s.phase {
            let stretch = &s.pending[..calib_len.min(s.pending.len())];
            if let Some(hub) = promote(&mut self.hub, s.patient_id, stretch) {
                s.phase = SessionPhase::Streaming { hub };
            }
        }
        let mut report = WireReport {
            beats: 0,
            forwarded: 0,
            samples: s.samples_received,
        };
        let mut history: Vec<WireOutcome> = Vec::new();
        if let Some(hub_id) = s.hub_id() {
            if !s.pending.is_empty() && self.hub.ingest(&[(hub_id, s.pending.as_slice())]).is_err()
            {
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
                    let unsent = &history[s.outcomes_sent.min(history.len())..];
                    if !unsent.is_empty() {
                        self.stats.beats_out += unsent.len() as u64;
                        self.send(
                            s.conn,
                            &Frame::Outcomes {
                                session: wire_id,
                                outcomes: unsent.to_vec(),
                            },
                        );
                    }
                }
                Err(_) => {
                    self.stats.internal_skips += 1;
                    debug_assert!(false, "closing session {wire_id} is not live in the hub");
                }
            }
        }
        self.send(
            s.conn,
            &Frame::Report {
                session: wire_id,
                report,
            },
        );
        if !self.config.resume_window.is_zero() {
            self.completed_by_wire.insert(wire_id, s.token);
            self.completed.insert(
                s.token,
                CompletedSession {
                    wire_id,
                    patient_id: s.patient_id,
                    outcomes: history,
                    report,
                    final_seq: s.next_seq,
                    since: Instant::now(),
                },
            );
        }
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

    /// Ends a removed session nobody can receive results for any more (its
    /// connection died without retention, or its retention window
    /// elapsed): off the ledger, closed in the log so recovery does not
    /// resurrect it, and its hub session discarded unreported.
    fn discard_session(&mut self, s: &NetSession) {
        self.buffered_samples -= s.buffered();
        self.wal_log(&WalRecord::SessionClose { token: s.token });
        if let Some(hub_id) = s.hub_id() {
            let _ = self.hub.close_session(hub_id);
        }
    }

    /// Releases dead connections and closing connections whose outbox has
    /// drained. Their sessions are **detached** (parked for resume within
    /// the retention window) when retention is enabled, discarded otherwise.
    fn reap(&mut self) {
        let retain = !self.config.resume_window.is_zero();
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let remove = match self.conns[idx].as_ref() {
                Some(c) => c.dead || (c.closing && c.queued() == 0),
                None => false,
            };
            if !remove {
                continue;
            }
            for wire_id in self.sessions.ids_for_conn(idx) {
                if retain {
                    if self.sessions.detach(wire_id, now) {
                        self.stats.sessions_detached += 1;
                        self.obs
                            .trace
                            .push(TraceEvent::SessionDetach { session: wire_id });
                    }
                } else if let Some(s) = self.sessions.remove(wire_id) {
                    // Without retention nobody can ever resume this stream.
                    self.discard_session(&s);
                }
            }
            self.conns[idx] = None;
        }
    }

    /// Discards detached sessions whose retention window elapsed, closing
    /// their hub sessions, retiring their wire ids and expiring the
    /// final-report cache (which rides the same window).
    fn expire_detached(&mut self) {
        if self.config.resume_window.is_zero() {
            return;
        }
        let now = Instant::now();
        let window = self.config.resume_window;
        for s in self.sessions.expire_detached(now, window) {
            self.discard_session(&s);
            self.stats.sessions_expired += 1;
            self.obs
                .trace
                .push(TraceEvent::SessionExpire { session: s.wire_id });
        }
        if !self.completed.is_empty() {
            self.completed
                .retain(|_, done| now.duration_since(done.since) <= window);
            self.completed_by_wire
                .retain(|_, token| self.completed.contains_key(token));
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
        let mut progress = false;
        while conn.sent < conn.outbox.len() {
            match conn.stream.write(&conn.outbox[conn.sent..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.sent += n;
                    conn.wrote_since_check = conn.wrote_since_check.saturating_add(n);
                    self.stats.wire_bytes_out += n as u64;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.sent == conn.outbox.len() {
            conn.outbox.clear();
            conn.sent = 0;
        } else if conn.sent > 64 * 1024 {
            conn.outbox.drain(..conn.sent);
            conn.sent = 0;
        }
        progress
    }
}

/// Rebuilds the sessions a previous gateway process left open in the
/// durable log and parks them for [`Frame::ResumeSession`].
///
/// The log is folded and rebuilt by the code [`crate::replay_log`] uses
/// ([`replay::fold_log`], [`replay::rebuild`]), so the rebuilt outcome
/// history is bit-identical to the pre-crash ingestion. The policy on top
/// is recovery's: closed sessions are done, sessions logged at another
/// sampling rate belong to a differently configured gateway, and a session
/// whose calibration stretch is degenerate is dropped. A session whose log
/// ends inside its calibration stretch is parked still calibrating, with
/// its logged samples buffered. The manager's wire-id and token generators
/// are fast-forwarded past every logged open so recovered and freshly
/// opened sessions can never collide. Returns the number of sessions
/// parked.
fn recover_sessions(
    hub: &mut StreamHub<'_>,
    sessions: &mut SessionManager,
    records: Vec<WalRecord>,
    fs_millihertz: u32,
    stats: &mut GatewayStats,
) -> u64 {
    let fold = replay::fold_log(records);
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
    let (rebuilt, rejected) = replay::rebuild(hub, open);
    if rejected {
        stats.internal_skips += 1;
    }
    let now = Instant::now();
    let mut recovered = 0;
    for r in rebuilt {
        let samples_received = r.samples.len() as u64;
        // `outcomes_sent` restarts at the full replayed history: the owner
        // can only have received outcomes the pre-crash gateway actually
        // sent, which the replay covers (samples are logged before they are
        // ingested), so the resume-time `min()` rewind lands exactly on the
        // client's claim. The priority is scored from the same history,
        // which forwarding — skipping sessions with nothing unsent — would
        // otherwise never look at again.
        let (phase, pending, (outcomes_sent, priority)) = match r.calibration {
            Calibration::Streaming(hub_id) => (
                SessionPhase::Streaming { hub: hub_id },
                Vec::new(),
                hub.with_outcomes(hub_id, |all| (all.len(), priority_of(all)))
                    .unwrap_or_default(),
            ),
            Calibration::Pending => (
                SessionPhase::Calibrating {
                    calib_len: r.session.calib_len,
                },
                r.samples,
                (0, SessionPriority::Normal),
            ),
            // A degenerate calibration stretch would have ended the
            // session live too; drop it.
            Calibration::Failed => continue,
        };
        sessions.insert_detached(
            NetSession {
                wire_id: r.session.wire_id,
                token: r.session.token,
                conn: usize::MAX,
                patient_id: r.session.patient_id,
                phase,
                pending,
                next_seq: r.session.next_seq,
                outcomes_sent,
                consumed_since_grant: 0,
                samples_received,
                last_activity: now,
                priority,
                oldest_pending_at: None,
                staged_anchor: None,
            },
            now,
        );
        recovered += 1;
    }
    recovered
}

/// Turns a calibration stretch into a hub session — the one place the
/// gateway derives detection thresholds: calibrate on `stretch`, register
/// the patient, and return the handle a [`SessionPhase::Streaming`] session
/// carries. `None` when the stretch is degenerate (too short or too flat
/// for the detector). Used by sweep promotion, close-while-calibrating and
/// the log rebuild.
pub(crate) fn promote(
    hub: &mut StreamHub<'_>,
    patient_id: u32,
    stretch: &[f64],
) -> Option<SessionId> {
    let thresholds = hub.calibrate_thresholds(stretch).ok()?;
    Some(hub.add_patient(patient_id, thresholds))
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

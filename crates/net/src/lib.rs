//! # hbc-net — the TCP ingestion gateway
//!
//! The streaming subsystem of `hbc-core` (the [`StreamHub`]) multiplexes
//! per-patient classification sessions in-process; this crate makes it
//! reachable over real sockets, turning the reproduction into a
//! network-facing monitoring service, with **zero dependencies beyond
//! `std`** (nonblocking `TcpListener`/`TcpStream`), consistent with the
//! offline policy of `crates/compat`. Its modules:
//!
//! * [`proto`] — the versioned binary **wire protocol**: length-prefixed
//!   frames with a CRC-32 trailer, canonical varint fields and delta-coded
//!   ADC samples, and a pure incremental [`FrameDecoder`], testable without
//!   sockets;
//! * [`session`] — the **session manager** driving the full lifecycle
//!   (handshake → threshold calibration from the first `calib_len` samples
//!   → streaming → drain → final report), including idle eviction;
//! * [`server`] — the single-threaded nonblocking **reactor**
//!   ([`Gateway`]): polls sockets, enforces **credit-based flow control**
//!   (bounded per-session sample budget; slow consumers stall senders
//!   instead of ballooning memory), batches ready chunks into
//!   [`StreamHub::ingest`] so decode and classification fan out over
//!   `hbc-par` when the batch is large enough, and protects itself under overload — admission control
//!   (connection/session caps and a global memory budget answered with
//!   [`Frame::Busy`]), priority-aware shed-before-stall that drops
//!   normal-outcome telemetry before starving ARR-critical sessions,
//!   slow-peer reaping (handshake deadline, minimum-progress checks) and a
//!   liveness watchdog surfaced via [`Gateway::health`];
//! * `server::admin` — the reactor's **admin surface**, a private child
//!   of [`server`]: a second nonblocking listener serving `GET /metrics`,
//!   `/metrics.json`, `/health` and `/trace`, and the
//!   [`Gateway::metrics_snapshot`] those routes render (every stats-struct
//!   field is exported by its own declaration); admin peers that have not
//!   sent a request line by the handshake deadline are closed;
//! * [`client`] — the blocking [`NodeClient`] used by tests and the
//!   `telemetry_gateway` example; keeps a bounded replay buffer of
//!   unacknowledged sample frames and re-attaches dropped sessions with
//!   reconnect-with-backoff ([`NodeClient::reconnect_with_backoff`]);
//! * [`replay`] — offline **re-scoring** of a gateway's durable ingest log
//!   ([`replay_log`]): every logged stream re-run through any firmware
//!   image, bit-identical to live ingestion when the image matches — the
//!   same log fold the gateway's crash recovery uses;
//! * [`chaos`] — a deterministic fault-injecting TCP proxy
//!   ([`ChaosProxy`]): corruption, duplication, reordering, truncation,
//!   slow-loris stalls and mid-stream kills on a seeded, replayable
//!   schedule, for wire-level failure testing.
//!
//! Per-beat outcomes received over the socket are **bit-identical** to the
//! batch `process_record` pipeline for any packetization — the network
//! boundary extends the chunk-invariance guarantee of the streaming
//! subsystem (`tests/net_loopback.rs` proves it end to end).
//!
//! [`StreamHub`]: hbc_core::StreamHub
//! [`StreamHub::ingest`]: hbc_core::StreamHub::ingest

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod proto;
pub mod replay;
pub mod server;
pub mod session;

pub use chaos::{ChaosConfig, ChaosDirection, ChaosProxy, ChaosStats, FaultKind};
pub use client::{NodeClient, SessionSummary};
pub use proto::{Frame, FrameDecoder, ProtoError, WireOutcome, WireReport, PROTOCOL_VERSION};
pub use replay::{replay_log, ReplayReport, ReplayedSession};
pub use server::{
    Gateway, GatewayConfig, GatewayHealth, GatewayReport, GatewayStats, Heartbeat, OverflowPolicy,
};
pub use session::SessionPriority;

/// Errors surfaced by the networking crate.
#[derive(Debug)]
pub enum NetError {
    /// Transport error.
    Io(std::io::Error),
    /// Wire-protocol violation.
    Proto(ProtoError),
    /// The gateway refused the connection or a request.
    Denied(String),
    /// The gateway is overloaded (admission control); retry after the
    /// embedded pause.
    Busy(std::time::Duration),
    /// The peer closed the connection.
    Closed,
    /// Local misuse (unknown session, handshake ordering, …).
    State(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Proto(e) => write!(f, "protocol error: {e}"),
            NetError::Denied(m) => write!(f, "denied by the gateway: {m}"),
            NetError::Busy(after) => {
                write!(f, "gateway is overloaded; retry after {after:?}")
            }
            NetError::Closed => write!(f, "connection closed by the peer"),
            NetError::State(m) => write!(f, "invalid state: {m}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_clearly() {
        assert!(NetError::Closed.to_string().contains("closed"));
        assert!(NetError::Denied("busy".into()).to_string().contains("busy"));
        assert!(NetError::Busy(std::time::Duration::from_millis(250))
            .to_string()
            .contains("overloaded"));
        assert!(NetError::State("nope".into()).to_string().contains("nope"));
        let e = NetError::from(ProtoError::UnknownTag(9));
        assert!(e.to_string().contains("tag"));
        assert!(std::error::Error::source(&e).is_some());
        let e = NetError::from(std::io::Error::other("x"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

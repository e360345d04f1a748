//! A deterministic fault-injecting TCP proxy — the wire-level chaos
//! harness.
//!
//! [`ChaosProxy`] sits between a node and the gateway and mangles the byte
//! stream according to a **seeded schedule**: every fault fires at a byte
//! *offset* of the connection (not at a read boundary), so the injected
//! failure is independent of socket timing and read chunking — the same
//! seed produces the same mangled stream, which is what makes every failure
//! replayable. Fault kinds ([`FaultKind`]):
//!
//! * `Corrupt` — XOR one bit of the byte at the scheduled offset (CRC
//!   failure downstream);
//! * `Duplicate` — emit a `span`-byte block twice (framing failure);
//! * `Reorder` — hold a `span`-byte block, let the next `span` bytes pass,
//!   then emit the held block (framing failure);
//! * `Truncate` — silently drop `span` bytes (mid-frame gap; the peer's
//!   decoder stalls or errors);
//! * `Stall` — stop forwarding in the faulted direction for
//!   [`ChaosConfig::stall`] (slow-loris), then recover transparently;
//! * `Trickle` — from the scheduled offset on, forward **one byte per
//!   [`ChaosConfig::stall`] interval** in the faulted direction, forever:
//!   the canonical slow-loris peer, byte-preserving but time-starving
//!   (exercises the gateway's minimum-progress reaping);
//! * `Kill` — close both sockets of the link at the scheduled offset
//!   (mid-stream death; exercises detach → resume).
//!
//! Faults draw from a **global budget** ([`ChaosConfig::max_faults`]);
//! once it is spent the proxy is a transparent relay, which is what lets
//! chaos runs *converge* to the fault-free outcome stream.
//!
//! The proxy is std-only and single-threaded in the same nonblocking style
//! as the gateway reactor: [`ChaosProxy::poll`] sweeps accept → read →
//! transform → write, and [`ChaosProxy::run`] loops until a shutdown flag
//! flips.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::transport::{self, Accepted, Outbox, ReadEnd};

/// Which direction of the link a fault schedule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDirection {
    /// Client → gateway bytes (samples, opens, closes).
    Up,
    /// Gateway → client bytes (outcomes, credit, reports).
    Down,
    /// Both directions, each with its own schedule.
    Both,
}

/// The kind of fault a [`ChaosProxy`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Forward everything untouched (baseline / control runs).
    Passthrough,
    /// Flip one bit of the byte at the scheduled offset.
    Corrupt,
    /// Emit a `span`-byte block twice.
    Duplicate,
    /// Swap a `span`-byte block with the `span` bytes that follow it.
    Reorder,
    /// Silently drop `span` bytes.
    Truncate,
    /// Pause forwarding in the faulted direction for `stall`.
    Stall,
    /// From the scheduled offset on, forward one byte per `stall` interval
    /// (permanent slow-loris; byte-preserving).
    Trickle,
    /// Close both sockets of the link.
    Kill,
}

/// Tunables of the chaos proxy. All offsets are deterministic functions of
/// `seed`, so a failing run replays exactly from its seed.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the fault schedule (SplitMix64).
    pub seed: u64,
    /// What to inject.
    pub kind: FaultKind,
    /// Byte offset (per connection, per direction) around which the first
    /// fault fires; the exact offset adds a small seeded jitter.
    pub first_at: u64,
    /// Gap between subsequent faults on the same connection; `0` means at
    /// most one fault per connection per direction.
    pub repeat_every: u64,
    /// Global fault budget: total faults across the proxy's lifetime.
    /// Once spent, the proxy forwards transparently.
    pub max_faults: u32,
    /// Which direction(s) the schedule arms.
    pub direction: ChaosDirection,
    /// Bytes affected by one duplicate/reorder/truncate event.
    pub span: usize,
    /// Pause length for [`FaultKind::Stall`].
    pub stall: Duration,
}

impl ChaosConfig {
    /// A one-shot upstream fault of `kind` with defaults sized for the
    /// gateway protocol (fires a few KiB into the stream).
    pub fn fault(kind: FaultKind, seed: u64) -> Self {
        ChaosConfig {
            seed,
            kind,
            first_at: 8 * 1024,
            repeat_every: 0,
            max_faults: 1,
            direction: ChaosDirection::Up,
            span: 32,
            stall: Duration::from_millis(200),
        }
    }

    /// A transparent relay (no faults) — the control configuration.
    pub fn passthrough() -> Self {
        ChaosConfig {
            seed: 0,
            kind: FaultKind::Passthrough,
            first_at: 0,
            repeat_every: 0,
            max_faults: 0,
            direction: ChaosDirection::Up,
            span: 0,
            stall: Duration::ZERO,
        }
    }
}

/// Counters the proxy maintains; readable via [`ChaosProxy::stats`] and
/// returned by [`ChaosProxy::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Client connections accepted (and upstream links dialled).
    pub connections: u64,
    /// Bytes relayed client → gateway (after transformation).
    pub bytes_up: u64,
    /// Bytes relayed gateway → client (after transformation).
    pub bytes_down: u64,
    /// Fault events injected (all kinds).
    pub faults_injected: u64,
    /// Stall events begun.
    pub stalls: u64,
    /// Pipes switched into trickle (one byte per interval) mode.
    pub trickles: u64,
    /// Links killed mid-stream.
    pub kills: u64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multi-byte transform in progress (spans read boundaries).
#[derive(Debug)]
enum Xform {
    None,
    /// Drop this many more bytes (truncation tail).
    Skip(usize),
    /// Collect a block, then emit it twice.
    DupFill {
        buf: Vec<u8>,
        span: usize,
    },
    /// Collect the held block of a reorder.
    HoldFill {
        held: Vec<u8>,
        span: usize,
    },
    /// Pass `pass_left` bytes, then emit the held block.
    HoldPass {
        held: Vec<u8>,
        pass_left: usize,
    },
}

/// One direction of a link: transforms source bytes and buffers them for
/// the destination socket.
struct Pipe {
    /// Bytes consumed from the source so far (fault offsets index this).
    consumed: u64,
    out: Outbox,
    xform: Xform,
    /// Offset of the next scheduled fault, if armed.
    next_fault_at: Option<u64>,
    rng: u64,
    stall_until: Option<Instant>,
    /// Trickle fault fired: from here on the flush side emits one byte per
    /// [`ChaosConfig::stall`] interval and the read side caps its backlog.
    trickle: bool,
    /// Earliest instant the next trickled byte may go out.
    next_emit: Option<Instant>,
    /// Source half-closed; propagate once drained.
    eof: bool,
}

impl Pipe {
    fn new(armed: bool, cfg: &ChaosConfig, rng_seed: u64) -> Self {
        let mut rng = rng_seed;
        let next_fault_at = if armed && cfg.kind != FaultKind::Passthrough {
            // Seeded jitter keeps runs with different seeds genuinely
            // different while staying chunking-independent.
            let jitter = splitmix(&mut rng) % (cfg.first_at / 4 + 1);
            Some(cfg.first_at + jitter)
        } else {
            None
        };
        Pipe {
            consumed: 0,
            out: Outbox::default(),
            xform: Xform::None,
            next_fault_at,
            rng,
            stall_until: None,
            trickle: false,
            next_emit: None,
            eof: false,
        }
    }

    fn stalled(&mut self, now: Instant) -> bool {
        match self.stall_until {
            Some(until) if now < until => true,
            Some(_) => {
                self.stall_until = None;
                false
            }
            None => false,
        }
    }

    fn schedule_next(&mut self, cfg: &ChaosConfig) {
        self.next_fault_at = if cfg.repeat_every > 0 {
            let jitter = splitmix(&mut self.rng) % (cfg.repeat_every / 4 + 1);
            Some(self.consumed + cfg.repeat_every + jitter)
        } else {
            None
        };
    }

    /// Transforms `bytes` into `self.out`; returns `true` when a kill
    /// fault fired (the caller tears the link down).
    fn feed(
        &mut self,
        bytes: &[u8],
        cfg: &ChaosConfig,
        faults_left: &mut u32,
        stats: &mut ChaosStats,
        now: Instant,
    ) -> bool {
        for &b in bytes {
            let offset = self.consumed;
            self.consumed += 1;
            match &mut self.xform {
                Xform::Skip(n) => {
                    *n -= 1;
                    if *n == 0 {
                        self.xform = Xform::None;
                    }
                    continue;
                }
                Xform::DupFill { buf, span } => {
                    buf.push(b);
                    if buf.len() == *span {
                        let buf = std::mem::take(buf);
                        self.out.bytes.extend_from_slice(&buf);
                        self.out.bytes.extend_from_slice(&buf);
                        self.xform = Xform::None;
                    }
                    continue;
                }
                Xform::HoldFill { held, span } => {
                    held.push(b);
                    if held.len() == *span {
                        let held = std::mem::take(held);
                        let pass_left = *span;
                        self.xform = Xform::HoldPass { held, pass_left };
                    }
                    continue;
                }
                Xform::HoldPass { held, pass_left } => {
                    self.out.bytes.push(b);
                    *pass_left -= 1;
                    if *pass_left == 0 {
                        self.out.bytes.extend_from_slice(held);
                        self.xform = Xform::None;
                    }
                    continue;
                }
                Xform::None => {}
            }
            if *faults_left > 0 && self.next_fault_at == Some(offset) {
                *faults_left -= 1;
                stats.faults_injected += 1;
                self.schedule_next(cfg);
                let span = cfg.span.max(1);
                match cfg.kind {
                    FaultKind::Passthrough => self.out.bytes.push(b),
                    FaultKind::Corrupt => {
                        let bit = (splitmix(&mut self.rng) % 8) as u8;
                        self.out.bytes.push(b ^ (1 << bit));
                    }
                    FaultKind::Duplicate => {
                        let mut buf = Vec::with_capacity(span);
                        buf.push(b);
                        if buf.len() == span {
                            self.out.bytes.extend_from_slice(&buf);
                            self.out.bytes.extend_from_slice(&buf);
                        } else {
                            self.xform = Xform::DupFill { buf, span };
                        }
                    }
                    FaultKind::Reorder => {
                        let mut held = Vec::with_capacity(span);
                        held.push(b);
                        if held.len() == span {
                            self.xform = Xform::HoldPass {
                                held,
                                pass_left: span,
                            };
                        } else {
                            self.xform = Xform::HoldFill { held, span };
                        }
                    }
                    FaultKind::Truncate => {
                        if span > 1 {
                            self.xform = Xform::Skip(span - 1);
                        }
                    }
                    FaultKind::Stall => {
                        self.out.bytes.push(b);
                        self.stall_until = Some(now + cfg.stall);
                        stats.stalls += 1;
                    }
                    FaultKind::Trickle => {
                        // Byte-preserving: the transform is pure relay; the
                        // starvation happens on the flush side.
                        self.out.bytes.push(b);
                        if !self.trickle {
                            self.trickle = true;
                            stats.trickles += 1;
                        }
                    }
                    FaultKind::Kill => {
                        stats.kills += 1;
                        return true;
                    }
                }
            } else {
                self.out.bytes.push(b);
            }
        }
        false
    }
}

/// One proxied connection: the accepted client socket, the dialled
/// upstream socket and a transform pipe per direction.
struct Link {
    client: TcpStream,
    server: TcpStream,
    up: Pipe,
    down: Pipe,
    dead: bool,
}

/// The fault-injecting proxy. Bind it in front of a gateway, point the
/// node at [`ChaosProxy::local_addr`], and drive it with
/// [`ChaosProxy::run`] on a thread (or [`ChaosProxy::poll`] inline).
pub struct ChaosProxy {
    listener: TcpListener,
    upstream: SocketAddr,
    config: ChaosConfig,
    links: Vec<Option<Link>>,
    stats: ChaosStats,
    faults_left: u32,
    /// Per-connection schedule seeds derive from this stream.
    seed_state: u64,
}

impl ChaosProxy {
    /// Binds the proxy on an ephemeral loopback port, relaying to
    /// `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener or resolving
    /// `upstream`.
    pub fn bind(upstream: impl ToSocketAddrs, config: ChaosConfig) -> std::io::Result<Self> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("upstream resolved to no address"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let faults_left = config.max_faults;
        let seed_state = config.seed;
        Ok(ChaosProxy {
            listener,
            upstream,
            config,
            links: Vec::new(),
            stats: ChaosStats::default(),
            faults_left,
            seed_state,
        })
    }

    /// The address clients should dial.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Counters so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Runs the proxy until `shutdown` flips, then returns the counters.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-link errors only drop the
    /// affected link.
    pub fn run(mut self, shutdown: &AtomicBool) -> std::io::Result<ChaosStats> {
        while !shutdown.load(Ordering::Acquire) {
            if !self.poll()? {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(self.stats)
    }

    /// One sweep: accept, read + transform + write both directions of
    /// every link. Returns whether any bytes moved.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn poll(&mut self) -> std::io::Result<bool> {
        let mut progress = self.accept_new()?;
        for idx in 0..self.links.len() {
            progress |= self.service_link(idx);
        }
        Ok(progress)
    }

    fn accept_new(&mut self) -> std::io::Result<bool> {
        let mut accepted = false;
        while let Some(accepted_stream) = transport::accept(&self.listener)? {
            let Accepted::Stream(client) = accepted_stream else {
                continue;
            };
            // Loopback connect is immediate; nonblocking afterwards.
            let server = match TcpStream::connect(self.upstream) {
                Ok(server) if transport::prepare(&server).is_ok() => server,
                _ => {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
            };
            let arm_up = matches!(
                self.config.direction,
                ChaosDirection::Up | ChaosDirection::Both
            );
            let arm_down = matches!(
                self.config.direction,
                ChaosDirection::Down | ChaosDirection::Both
            );
            let up_seed = splitmix(&mut self.seed_state);
            let down_seed = splitmix(&mut self.seed_state);
            let link = Link {
                client,
                server,
                up: Pipe::new(arm_up, &self.config, up_seed),
                down: Pipe::new(arm_down, &self.config, down_seed),
                dead: false,
            };
            let slot = self.links.iter().position(Option::is_none);
            match slot {
                Some(i) => self.links[i] = Some(link),
                None => self.links.push(Some(link)),
            }
            self.stats.connections += 1;
            accepted = true;
        }
        Ok(accepted)
    }

    fn service_link(&mut self, idx: usize) -> bool {
        let Some(link) = self.links[idx].as_mut() else {
            return false;
        };
        let now = Instant::now();
        let cfg = &self.config;
        let stats = &mut self.stats;
        let faults_left = &mut self.faults_left;
        let mut progress = false;
        let mut kill = false;

        // Read + transform each direction, except a stalled pipe or a
        // trickling one with a backlog: back-pressure then reaches the
        // source instead of ballooning the proxy.
        for (src, pipe) in [
            (&mut link.client, &mut link.up),
            (&mut link.server, &mut link.down),
        ] {
            if pipe.eof || pipe.stalled(now) || (pipe.trickle && pipe.out.queued() >= 16 * 1024) {
                continue;
            }
            let mut buf = [0u8; 16 * 1024];
            let pass = transport::read_pass(src, &mut buf, usize::MAX, |chunk| {
                kill = pipe.feed(chunk, cfg, faults_left, stats, now);
                !kill
            });
            progress |= pass.bytes > 0;
            match pass.end {
                ReadEnd::Eof => pipe.eof = true,
                ReadEnd::Failed(_) => link.dead = true,
                ReadEnd::WouldBlock | ReadEnd::Paused => {}
            }
            if kill || link.dead {
                break;
            }
        }

        // Flush each direction (skipping stalled pipes), then propagate
        // half-closes once drained. A trickling pipe writes one byte per
        // `stall` interval: the slow-loris drip.
        for (dst, pipe, relayed) in [
            (&mut link.server, &mut link.up, &mut stats.bytes_up),
            (&mut link.client, &mut link.down, &mut stats.bytes_down),
        ] {
            if kill || link.dead {
                break;
            }
            if pipe.stall_until.is_some() && pipe.stalled(now) {
                continue;
            }
            let limit = match pipe.trickle {
                false => usize::MAX,
                true => usize::from(pipe.next_emit.is_none_or(|t| now >= t)),
            };
            let flushed = pipe.out.flush(dst, limit);
            if flushed.written > 0 {
                *relayed += flushed.written as u64;
                if pipe.trickle {
                    pipe.next_emit = Some(now + cfg.stall);
                }
                progress = true;
            }
            link.dead |= flushed.dead;
            if pipe.eof && pipe.out.queued() == 0 {
                let _ = dst.shutdown(Shutdown::Write);
            }
        }

        if kill
            || link.dead
            || (link.up.eof
                && link.down.eof
                && link.up.out.queued() == 0
                && link.down.out.queued() == 0)
        {
            let _ = link.client.shutdown(Shutdown::Both);
            let _ = link.server.shutdown(Shutdown::Both);
            self.links[idx] = None;
        }
        progress
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.listener.local_addr().ok())
            .field("upstream", &self.upstream)
            .field("stats", &self.stats)
            .field("faults_left", &self.faults_left)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_offsets_are_chunking_invariant() {
        // Feeding the same bytes in different chunkings yields the same
        // transformed output — the schedule indexes byte offsets.
        let cfg = ChaosConfig {
            seed: 7,
            kind: FaultKind::Corrupt,
            first_at: 64,
            repeat_every: 128,
            max_faults: 8,
            direction: ChaosDirection::Up,
            span: 4,
            stall: Duration::ZERO,
        };
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let now = Instant::now();

        let run = |chunk: usize| {
            let mut pipe = Pipe::new(true, &cfg, 99);
            let mut stats = ChaosStats::default();
            let mut left = cfg.max_faults;
            for c in data.chunks(chunk) {
                assert!(!pipe.feed(c, &cfg, &mut left, &mut stats, now));
            }
            (pipe.out.bytes.clone(), stats.faults_injected)
        };

        let (whole, n1) = run(data.len());
        let (bytewise, n2) = run(1);
        let (ragged, n3) = run(23);
        assert_eq!(whole, bytewise);
        assert_eq!(whole, ragged);
        assert_eq!(n1, n2);
        assert_eq!(n2, n3);
        assert!(n1 > 0, "schedule must fire within 1 KiB");
        assert_ne!(whole, data, "corruption must change the stream");
    }

    #[test]
    fn every_multibyte_fault_changes_or_shortens_the_stream() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 256) as u8).collect();
        let now = Instant::now();
        for kind in [
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Truncate,
        ] {
            let cfg = ChaosConfig {
                first_at: 100,
                span: 16,
                ..ChaosConfig::fault(kind, 3)
            };
            let mut pipe = Pipe::new(true, &cfg, 5);
            let mut stats = ChaosStats::default();
            let mut left = cfg.max_faults;
            assert!(!pipe.feed(&data, &cfg, &mut left, &mut stats, now));
            assert_eq!(stats.faults_injected, 1);
            match kind {
                FaultKind::Duplicate => assert_eq!(pipe.out.bytes.len(), data.len() + 16),
                FaultKind::Reorder => {
                    assert_eq!(pipe.out.bytes.len(), data.len());
                    assert_ne!(pipe.out.bytes, data);
                }
                FaultKind::Truncate => assert_eq!(pipe.out.bytes.len(), data.len() - 16),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn passthrough_and_spent_budget_forward_identically() {
        let data: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        let now = Instant::now();
        let cfg = ChaosConfig::passthrough();
        let mut pipe = Pipe::new(true, &cfg, 1);
        let mut stats = ChaosStats::default();
        let mut left = 0u32;
        assert!(!pipe.feed(&data, &cfg, &mut left, &mut stats, now));
        assert_eq!(pipe.out.bytes, data);
        assert_eq!(stats.faults_injected, 0);

        // Budget exhausted → transparent even with a destructive kind.
        let cfg = ChaosConfig {
            first_at: 8,
            ..ChaosConfig::fault(FaultKind::Truncate, 2)
        };
        let mut pipe = Pipe::new(true, &cfg, 1);
        let mut left = 0u32;
        assert!(!pipe.feed(&data, &cfg, &mut left, &mut stats, now));
        assert_eq!(pipe.out.bytes, data);
    }

    #[test]
    fn trickle_preserves_bytes_and_arms_once() {
        // The trickle transform is a pure relay — the starvation is pure
        // timing on the flush side — so the scheduled stream survives
        // byte-identically and the chunking-invariance argument of the
        // other faults carries over unchanged.
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 17 % 256) as u8).collect();
        let now = Instant::now();
        let cfg = ChaosConfig {
            first_at: 100,
            repeat_every: 200,
            max_faults: 5,
            ..ChaosConfig::fault(FaultKind::Trickle, 21)
        };
        let mut pipe = Pipe::new(true, &cfg, 8);
        let mut stats = ChaosStats::default();
        let mut left = cfg.max_faults;
        assert!(!pipe.feed(&data, &cfg, &mut left, &mut stats, now));
        assert_eq!(
            pipe.out.bytes, data,
            "trickle must not change the byte stream"
        );
        assert!(pipe.trickle, "pipe must be in trickle mode after the fault");
        assert_eq!(stats.trickles, 1, "re-fires must not re-count the mode");
        assert!(stats.faults_injected >= 1);
    }

    #[test]
    fn kill_fires_once_at_its_offset() {
        let data = vec![0u8; 1024];
        let now = Instant::now();
        let cfg = ChaosConfig {
            first_at: 100,
            ..ChaosConfig::fault(FaultKind::Kill, 11)
        };
        let mut pipe = Pipe::new(true, &cfg, 4);
        let mut stats = ChaosStats::default();
        let mut left = cfg.max_faults;
        assert!(pipe.feed(&data, &cfg, &mut left, &mut stats, now));
        assert_eq!(stats.kills, 1);
        assert!(
            pipe.out.bytes.len() < data.len(),
            "bytes after the kill offset are discarded"
        );
    }
}

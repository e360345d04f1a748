//! The generator's side of the wire: one nonblocking TCP connection
//! multiplexing every session. The generator thread sleeps in `ppoll` until
//! the socket is readable or its next send is due (never a spin).
//!
//! Every `Outcomes` frame is checked against the reference as it is decoded:
//! outcome `j` of a session must equal reference beat `j` bit for bit, and
//! every abnormal beat must arrive delineated with fiducials (the paper's
//! ARR-safety routing). Its latency is taken from the anchor of the packet
//! that carried the beat's trigger sample to the moment the frame is
//! decoded.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use hbc_net::proto::{Frame, FrameDecoder, WireReport};
use hbc_net::PROTOCOL_VERSION;

use crate::corpus::{Stream, CUT_EVERY, FS};
use crate::util::{micros, wait_fd};

/// The smallest sample frame any workload sends.
const MIN_FRAME: usize = 36;
/// Latency records reserved up front (more than any full-size run needs).
const LATENCY_CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `OpenSession` sent, `SessionOpened` not yet seen.
    Opening,
    Open,
    CloseSent,
    /// Final `Report` received.
    Done,
}

/// One session (one patient) as the generator sees it.
#[derive(Debug)]
pub struct Session {
    /// Index of the stream it sends.
    pub stream: usize,
    pub patient: u32,
    pub wire: u32,
    pub token: u64,
    pub credit: usize,
    /// Samples sent so far.
    pub sent: usize,
    /// Samples to send before closing: the stream's length, or an earlier
    /// cut (see [`Client::cut`]).
    pub end: usize,
    /// Reference beats triggered before an early cut.
    cut_beats: Option<usize>,
    /// Samples sent from the start of the measured traffic on.
    pub traffic_samples: usize,
    pub seq: u32,
    /// Per sample frame: (end sample, latency anchor). Frame `k` has
    /// sequence number `k`.
    pub frames: Vec<(u32, Instant)>,
    cursor: usize,
    /// Outcomes delivered so far.
    pub received: usize,
    /// Delivered outcomes that differ from the reference (or are extra).
    pub wrong: usize,
    /// Delivered abnormal beats not delineated with fiducials.
    pub arr_violations: usize,
    pub phase: Phase,
    /// First credit grant seen: the calibration stretch was consumed.
    pub calibrated: bool,
    pub report: Option<WireReport>,
    /// `next_expected_seq` of a `SessionResumed` (recovery check).
    pub resumed_seq: Option<u32>,
}

impl Session {
    fn new(stream: usize, patient: u32) -> Self {
        Session {
            stream,
            patient,
            wire: 0,
            token: 0,
            credit: 0,
            sent: 0,
            end: 0,
            cut_beats: None,
            traffic_samples: 0,
            seq: 0,
            frames: Vec::new(),
            cursor: 0,
            received: 0,
            wrong: 0,
            arr_violations: 0,
            phase: Phase::Opening,
            calibrated: false,
            report: None,
            resumed_seq: None,
        }
    }

    /// Anchor of the frame carrying sample `t` (triggers of one session
    /// arrive in increasing order, so a forward cursor suffices).
    fn anchor_of(&mut self, t: usize) -> Option<Instant> {
        while self.cursor < self.frames.len() && (self.frames[self.cursor].0 as usize) <= t {
            self.cursor += 1;
        }
        self.frames.get(self.cursor).map(|f| f.1)
    }

    /// Beats the session must deliver in total, close tail included.
    pub fn expected_beats(&self, stream: &Stream) -> usize {
        match self.cut_beats {
            Some(k) => k + stream.cut_tail(self.end).len(),
            None => stream.reference.len(),
        }
    }
}

/// Frames decoded, bytes moved and the per-beat checks of one connection.
pub struct Client<'s> {
    sock: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    buf: Vec<u8>,
    streams: &'s [Stream],
    calib: usize,
    pub sessions: Vec<Session>,
    by_wire: HashMap<u32, usize>,
    pending_opens: VecDeque<usize>,
    /// Sessions whose `SessionOpened` arrived since the caller last drained
    /// this list.
    pub opened: Vec<usize>,
    pub bytes_up: u64,
    pub bytes_down: u64,
    /// Outcomes delivered, over all sessions.
    pub beats_received: u64,
    /// Exact outcome latencies (µs) of beats triggered after calibration,
    /// with the moment each was decoded.
    pub latencies_us: Vec<(Instant, f64)>,
    /// Beats triggered inside the calibration stretch (excluded).
    pub calib_beats: u64,
    /// Beats emitted by the end-of-stream drain at close (excluded).
    pub close_beats: u64,
    /// Copy of the uplink bytes, up to a cap (proto re-drive input).
    pub uplink: Option<(Vec<u8>, usize)>,
    /// First refusal or protocol failure; the run is void.
    pub fatal: Option<String>,
}

impl<'s> Client<'s> {
    pub fn connect(addr: SocketAddr, streams: &'s [Stream], calib: usize) -> std::io::Result<Self> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_nonblocking(true)?;
        let mut client = Client {
            sock,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            buf: vec![0; 64 * 1024],
            streams,
            calib,
            sessions: Vec::new(),
            by_wire: HashMap::new(),
            pending_opens: VecDeque::new(),
            opened: Vec::new(),
            bytes_up: 0,
            bytes_down: 0,
            beats_received: 0,
            latencies_us: Vec::with_capacity(LATENCY_CAPACITY),
            calib_beats: 0,
            close_beats: 0,
            uplink: None,
            fatal: None,
        };
        Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode_into(&mut client.out);
        client.flush()?;
        Ok(client)
    }

    pub fn stream(&self, idx: usize) -> &'s Stream {
        &self.streams[self.sessions[idx].stream]
    }

    /// Queues an `OpenSession` for `stream`; returns the session index.
    pub fn open(&mut self, stream: usize, patient: u32) -> usize {
        let idx = self.sessions.len();
        let mut session = Session::new(stream, patient);
        session.end = self.streams[stream].codes.len();
        // Sized up front (only touched pages count towards the resident
        // set), so harness reallocations do not jitter `peak_rss_mb`.
        session.frames = Vec::with_capacity(self.streams[stream].codes.len() / MIN_FRAME + 2);
        self.sessions.push(session);
        Frame::OpenSession {
            patient_id: patient,
            fs_millihertz: (FS * 1000.0).round() as u32,
            calib_len: self.calib as u32,
        }
        .encode_into(&mut self.out);
        self.pending_opens.push_back(idx);
        idx
    }

    /// Queues the next `n` samples of a session, anchored at `anchor`.
    pub fn send(&mut self, idx: usize, n: usize, anchor: Instant, in_traffic: bool) {
        let s = &mut self.sessions[idx];
        let codes = &self.streams[s.stream].codes[s.sent..s.sent + n];
        Frame::Samples {
            session: s.wire,
            seq: s.seq,
            samples: codes.to_vec(),
        }
        .encode_into(&mut self.out);
        s.seq += 1;
        s.sent += n;
        s.credit -= n;
        if in_traffic {
            s.traffic_samples += n;
        }
        s.frames.push((s.sent as u32, anchor));
    }

    /// Shortens a session to its next cut point at or after what it has
    /// sent: it will close there instead of at the end of its stream.
    pub fn cut(&mut self, idx: usize) {
        let s = &mut self.sessions[idx];
        let stream = &self.streams[s.stream];
        let end = s.sent.max(1).div_ceil(CUT_EVERY) * CUT_EVERY;
        if end < s.end {
            s.end = end;
            s.cut_beats = Some(stream.beats_triggered_before(end));
        }
    }

    pub fn close(&mut self, idx: usize) {
        let s = &mut self.sessions[idx];
        Frame::CloseSession { session: s.wire }.encode_into(&mut self.out);
        s.phase = Phase::CloseSent;
    }

    /// Queues a `ResumeSession` for a session another connection opened,
    /// asking for its whole outcome history again.
    pub fn resume(&mut self, stream: usize, patient: u32, wire: u32, token: u64) -> usize {
        let idx = self.sessions.len();
        let mut s = Session::new(stream, patient);
        s.wire = wire;
        s.token = token;
        s.phase = Phase::Open;
        self.sessions.push(s);
        self.by_wire.insert(wire, idx);
        Frame::ResumeSession {
            patient_id: patient,
            session_token: token,
            last_acked_seq: 0,
            outcomes_received: 0,
        }
        .encode_into(&mut self.out);
        idx
    }

    /// Writes every queued frame (waiting for socket space when the
    /// kernel buffer is full).
    pub fn flush(&mut self) -> std::io::Result<()> {
        let mut at = 0;
        while at < self.out.len() {
            match self.sock.write(&self.out[at..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !wait_fd(self.sock.as_raw_fd(), true, Duration::from_secs(30)) {
                        return Err(ErrorKind::TimedOut.into());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.bytes_up += self.out.len() as u64;
        if let Some((copy, cap)) = self.uplink.as_mut() {
            let room = cap.saturating_sub(copy.len()).min(self.out.len());
            copy.extend_from_slice(&self.out[..room]);
        }
        self.out.clear();
        Ok(())
    }

    /// Sleeps until the gateway sends something or `timeout` passes, then
    /// reads what arrived and handles every complete frame. Returns whether
    /// bytes arrived.
    pub fn pump(&mut self, timeout: Duration) -> std::io::Result<bool> {
        if !wait_fd(self.sock.as_raw_fd(), false, timeout) {
            return Ok(false);
        }
        let mut got = false;
        loop {
            match self.sock.read(&mut self.buf) {
                Ok(0) => {
                    self.fail("gateway closed the connection".into());
                    break;
                }
                Ok(n) => {
                    got = true;
                    self.bytes_down += n as u64;
                    self.decoder.feed(&self.buf[..n]);
                    if n < self.buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => self.handle(frame),
                Ok(None) => break,
                Err(e) => {
                    self.fail(format!("undecodable downlink: {e}"));
                    break;
                }
            }
        }
        Ok(got)
    }

    fn fail(&mut self, why: String) {
        self.fatal.get_or_insert(why);
    }

    fn session_of(&mut self, wire: u32) -> Option<usize> {
        let idx = self.by_wire.get(&wire).copied();
        if idx.is_none() {
            self.fail(format!("frame for unknown session {wire}"));
        }
        idx
    }

    fn handle(&mut self, frame: Frame) {
        match frame {
            Frame::Hello { .. } => {}
            Frame::SessionOpened {
                session,
                credit,
                token,
            } => {
                let Some(idx) = self.pending_opens.pop_front() else {
                    return self.fail("unsolicited SessionOpened".into());
                };
                let s = &mut self.sessions[idx];
                s.wire = session;
                s.token = token;
                s.credit = credit as usize;
                s.phase = Phase::Open;
                self.by_wire.insert(session, idx);
                self.opened.push(idx);
            }
            Frame::SessionResumed {
                session,
                next_expected_seq,
                ..
            } => {
                if let Some(idx) = self.session_of(session) {
                    self.sessions[idx].resumed_seq = Some(next_expected_seq);
                }
            }
            Frame::Credit { session, grant, .. } => {
                if let Some(idx) = self.session_of(session) {
                    let s = &mut self.sessions[idx];
                    s.credit += grant as usize;
                    s.calibrated = true;
                }
            }
            Frame::Outcomes { session, outcomes } => {
                let decoded_at = Instant::now();
                let Some(idx) = self.session_of(session) else {
                    return;
                };
                let s = &mut self.sessions[idx];
                let stream = &self.streams[s.stream];
                self.beats_received += outcomes.len() as u64;
                for o in outcomes {
                    let j = s.received;
                    s.received += 1;
                    if o.class != 0 && !(o.delineated && o.fiducials >= 1) {
                        s.arr_violations += 1;
                    }
                    // After an early cut, the beats past the ones triggered
                    // before it come from the cut's close tail.
                    let want = match s.cut_beats {
                        Some(k) if j >= k => stream
                            .cut_tail(s.end)
                            .get(j - k)
                            .map(|&tail| (tail, stream.codes.len())),
                        _ => stream
                            .reference
                            .get(j)
                            .map(|r| (r.outcome, r.trigger as usize)),
                    };
                    match want {
                        Some((want, t)) if want == o => {
                            if t < self.calib {
                                self.calib_beats += 1;
                            } else if t >= stream.codes.len() {
                                self.close_beats += 1;
                            } else if let Some(anchor) = s.anchor_of(t) {
                                self.latencies_us.push((
                                    decoded_at,
                                    micros(decoded_at.saturating_duration_since(anchor)),
                                ));
                            }
                        }
                        _ => s.wrong += 1,
                    }
                }
            }
            Frame::Report { session, report } => {
                if let Some(idx) = self.session_of(session) {
                    let s = &mut self.sessions[idx];
                    s.report = Some(report);
                    s.phase = Phase::Done;
                }
            }
            Frame::Deny { message } => self.fail(format!("gateway denied: {message}")),
            Frame::Busy { retry_after_ms } => {
                self.fail(format!("gateway busy (retry after {retry_after_ms} ms)"))
            }
            other => self.fail(format!("unexpected downlink frame {other:?}")),
        }
    }
}

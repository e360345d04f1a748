//! The blocking node-side client: what a WBSN node (or a test harness)
//! speaks to the gateway.
//!
//! [`NodeClient`] multiplexes any number of sessions over one TCP
//! connection. Sending respects the gateway's credit grants: when a
//! session's credit is exhausted, [`NodeClient::send_mv`] blocks — reading
//! and dispatching incoming frames (outcomes, credit, reports) — until the
//! gateway returns credit. That is the sender half of the flow-control
//! contract: a slow gateway (or a gateway back-pressured by this client not
//! reading fast enough) stalls the sender instead of growing buffers on
//! either side.
//!
//! ## Replay and resume
//!
//! Every sample frame is queued in a per-session **replay buffer** before it
//! goes on the wire and stays there until the gateway acknowledges it (the
//! cumulative `acked_seq` riding on [`Frame::Credit`]). The buffer is
//! bounded: acknowledged frames are trimmed immediately, so for a compliant
//! gateway it never holds more than a credit budget's worth of samples plus
//! the chunk currently being sent. When the link dies mid-session,
//! [`NodeClient::reconnect_with_backoff`] dials again (exponential
//! backoff), re-attaches every open session with
//! [`Frame::ResumeSession`], discards replay entries the gateway already
//! received (`next_expected_seq`) and retransmits the rest — so the
//! gateway's stream is gap-free and duplicate-free without re-running
//! threshold calibration.
//!
//! After a transport error the client is **broken**: every send fails until
//! a successful reconnect. Samples handed to [`NodeClient::send_mv`] /
//! [`NodeClient::send_adc`] before the error are already queued for replay
//! and must not be sent again by the caller.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hbc_embedded::firmware::BeatOutcome;

use crate::proto::{
    quantize_mv_into, Frame, FrameDecoder, WireReport, MAX_SAMPLES_PER_FRAME, PROTOCOL_VERSION,
};
use crate::transport::{self, ReadEnd};
use crate::NetError;

/// Client-side view of one open session.
#[derive(Debug, Default)]
struct ClientSession {
    /// Patient id the session was opened for (echoed in resume requests).
    patient_id: u32,
    /// Resume token from [`Frame::SessionOpened`].
    token: u64,
    credit: usize,
    /// Next sequence number to assign to a queued sample frame.
    next_seq: u32,
    /// Sample frames below this sequence number are acknowledged by the
    /// gateway (safely buffered there) and dropped from replay.
    acked_seq: u32,
    /// Largest frame worth queueing: `min(MAX_SAMPLES_PER_FRAME, budget)`,
    /// so every queued frame can eventually be covered by credit.
    frame_cap: usize,
    /// Unacknowledged sample frames, oldest first: `(seq, codes)`.
    replay: VecDeque<(u32, Vec<i16>)>,
    /// How many frames at the front of `replay` have been written to the
    /// *current* connection (reset to 0 on resume → full retransmit of
    /// whatever the gateway reports missing).
    transmitted: usize,
    outcomes: Vec<BeatOutcome>,
    report: Option<WireReport>,
}

/// Summary returned by [`NodeClient::close_session`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Every beat outcome the gateway streamed back, in temporal order.
    pub outcomes: Vec<BeatOutcome>,
    /// The gateway's final counters for the session.
    pub report: WireReport,
}

/// Blocking client for the gateway protocol.
#[derive(Debug)]
pub struct NodeClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    sessions: HashMap<u32, ClientSession>,
    /// Session ids acknowledged but not yet claimed by `open_session`.
    opened: Vec<u32>,
    /// Fatal [`Frame::Deny`] received from the gateway, if any.
    denied: Option<String>,
    /// A transport or protocol error poisoned the current connection; all
    /// traffic fails until [`NodeClient::reconnect_with_backoff`] succeeds.
    broken: bool,
    /// Read/write timeout applied to the transport (and re-applied after a
    /// reconnect). A timeout surfaces as an I/O error, breaking the
    /// connection — the recovery path is a resume.
    io_timeout: Option<Duration>,
}

impl NodeClient {
    /// Connects and performs the hello handshake.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, protocol errors or a version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = NodeClient {
            stream,
            decoder: FrameDecoder::new(),
            sessions: HashMap::new(),
            opened: Vec::new(),
            denied: None,
            broken: false,
            io_timeout: None,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Bounds every blocking read/write on the transport: a link that goes
    /// quiet for longer errors out instead of hanging, which is what turns
    /// a byte-swallowing fault (truncation, stalled proxy) into a clean
    /// reconnect-and-resume. Survives reconnects.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    fn handshake(&mut self) -> Result<(), NetError> {
        self.send_frame(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        let hello = self.wait_frame(|f| matches!(f, Frame::Hello { .. }))?;
        match hello {
            Frame::Hello { version } if version == PROTOCOL_VERSION => Ok(()),
            Frame::Hello { version } => Err(NetError::State(format!(
                "gateway speaks protocol version {version}, this client {PROTOCOL_VERSION}"
            ))),
            _ => unreachable!("wait_frame matched Hello"),
        }
    }

    /// Opens a session and blocks until the gateway acknowledges it,
    /// returning the wire session id.
    ///
    /// # Errors
    ///
    /// Fails on socket/protocol errors or a [`Frame::Deny`].
    pub fn open_session(
        &mut self,
        patient_id: u32,
        fs: f64,
        calib_len: u32,
    ) -> Result<u32, NetError> {
        self.check_usable()?;
        self.send_frame(&Frame::OpenSession {
            patient_id,
            fs_millihertz: (fs * 1000.0).round() as u32,
            calib_len,
        })?;
        while self.opened.is_empty() {
            self.read_and_dispatch()?;
        }
        let id = self.opened.remove(0);
        if let Some(s) = self.sessions.get_mut(&id) {
            s.patient_id = patient_id;
        }
        Ok(id)
    }

    /// Remaining credit of a session, in samples.
    pub fn credit(&self, session: u32) -> usize {
        self.sessions.get(&session).map_or(0, |s| s.credit)
    }

    /// Outcomes received so far for a session (kept until the session is
    /// closed).
    pub fn outcomes(&self, session: u32) -> &[BeatOutcome] {
        self.sessions
            .get(&session)
            .map_or(&[], |s| s.outcomes.as_slice())
    }

    /// Whether the gateway already sent the session's final report (the
    /// session ended — close or eviction); drain it with
    /// [`NodeClient::wait_session_end`].
    pub fn session_ended(&self, session: u32) -> bool {
        self.sessions
            .get(&session)
            .is_some_and(|s| s.report.is_some())
    }

    /// Sample frames currently held for replay (sent or queued but not yet
    /// acknowledged) — the boundedness witness for the replay buffer.
    pub fn replay_depth(&self, session: u32) -> usize {
        self.sessions.get(&session).map_or(0, |s| s.replay.len())
    }

    /// Drains whatever frames the gateway has already sent, without
    /// blocking. Useful between sends to keep outcome buffers fresh.
    ///
    /// # Errors
    ///
    /// Fails on socket/protocol errors or a [`Frame::Deny`].
    pub fn pump(&mut self) -> Result<(), NetError> {
        self.receive(true, &|_| false).map(drop)
    }

    /// Streams millivolt samples into a session, quantising to wire ADC
    /// codes and splitting into protocol-sized frames. Blocks while the
    /// session is out of credit.
    ///
    /// # Errors
    ///
    /// Fails on socket/protocol errors or a [`Frame::Deny`]. On a
    /// transport error the samples are already queued for replay: reconnect
    /// with [`NodeClient::reconnect_with_backoff`] and do **not** re-send
    /// them.
    pub fn send_mv(&mut self, session: u32, samples_mv: &[f64]) -> Result<(), NetError> {
        let mut codes = Vec::new();
        quantize_mv_into(samples_mv, &mut codes);
        self.send_adc(session, &codes)
    }

    /// Streams raw ADC codes into a session (see [`Self::send_mv`]).
    ///
    /// # Errors
    ///
    /// Fails on socket/protocol errors or a [`Frame::Deny`].
    pub fn send_adc(&mut self, session: u32, codes: &[i16]) -> Result<(), NetError> {
        // Queue first (infallible), then drive transmission. The split
        // makes error recovery unambiguous: whatever was handed to this
        // call is in the replay buffer, so after a reconnect the caller
        // continues with *new* samples only.
        let s = self.session_mut(session)?;
        if s.report.is_some() {
            return Err(NetError::State(format!(
                "session {session} was ended by the gateway mid-send \
                 (final report received; drain it with wait_session_end)"
            )));
        }
        let cap = s.frame_cap.max(1);
        for chunk in codes.chunks(cap) {
            let seq = s.next_seq;
            s.next_seq += 1;
            s.replay.push_back((seq, chunk.to_vec()));
        }
        self.transmit_queued(session)
    }

    /// Writes queued replay frames to the wire as credit allows, blocking
    /// on the gateway when out of credit.
    fn transmit_queued(&mut self, session: u32) -> Result<(), NetError> {
        loop {
            self.check_usable()?;
            self.pump()?;
            let s = self.session(session)?;
            if s.transmitted >= s.replay.len() {
                return Ok(());
            }
            if s.report.is_some() {
                return Err(NetError::State(format!(
                    "session {session} was ended by the gateway mid-send \
                     (final report received; drain it with wait_session_end)"
                )));
            }
            let frame_len = s.replay[s.transmitted].1.len();
            if s.credit < frame_len {
                // Out of credit: block until the gateway grants more.
                self.read_and_dispatch()?;
                continue;
            }
            let s = self.session_mut(session)?;
            let (seq, codes) = s.replay[s.transmitted].clone();
            s.credit -= frame_len;
            s.transmitted += 1;
            self.send_frame(&Frame::Samples {
                session,
                seq,
                samples: codes,
            })?;
        }
    }

    /// Closes a session and blocks for the gateway's final
    /// [`Frame::Report`], returning every outcome received plus the report.
    ///
    /// Safe to call again after a reconnect: queued frames are flushed
    /// first and the close request is re-issued.
    ///
    /// # Errors
    ///
    /// Fails on socket/protocol errors or a [`Frame::Deny`].
    pub fn close_session(&mut self, session: u32) -> Result<SessionSummary, NetError> {
        self.session(session)?;
        if !self.session_ended(session) {
            self.transmit_queued(session)?;
            self.send_frame(&Frame::CloseSession { session })?;
        }
        self.wait_session_end(session)
    }

    /// Waits for a session to end without asking for it — e.g. for the
    /// gateway's idle eviction — returning the final summary.
    ///
    /// # Errors
    ///
    /// Fails on socket/protocol errors or a [`Frame::Deny`].
    pub fn wait_session_end(&mut self, session: u32) -> Result<SessionSummary, NetError> {
        while self.session(session)?.report.is_none() {
            self.read_and_dispatch()?;
        }
        let s = self.sessions.remove(&session).expect("checked above");
        Ok(SessionSummary {
            outcomes: s.outcomes,
            report: s.report.expect("loop above"),
        })
    }

    /// Dials `addr` with exponential backoff and re-attaches every open
    /// session via [`Frame::ResumeSession`]: replay entries the gateway
    /// already holds are dropped, the rest are retransmitted, and credit
    /// restarts at the absolute figure from [`Frame::SessionResumed`].
    ///
    /// # Errors
    ///
    /// Fails when every dial attempt errors, on a [`Frame::Deny`] (unknown
    /// or expired token — the session is unrecoverable), or on
    /// socket/protocol errors during re-attachment. A [`Frame::Busy`] from
    /// the gateway's admission control is **not** fatal: the client honors
    /// the embedded `retry_after_ms` pause and spends another attempt.
    pub fn reconnect_with_backoff(
        &mut self,
        addr: impl ToSocketAddrs,
        attempts: u32,
        base_delay: Duration,
    ) -> Result<(), NetError> {
        let mut delay = base_delay;
        let mut last_err: Option<NetError> = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match TcpStream::connect(&addr) {
                Ok(stream) => match self.resume_on(stream) {
                    // The gateway is overloaded, not unreachable: honor its
                    // retry hint, then spend another attempt.
                    Err(NetError::Busy(after)) => {
                        std::thread::sleep(after);
                        last_err = Some(NetError::Busy(after));
                    }
                    done => return done,
                },
                Err(e) => last_err = Some(e.into()),
            }
        }
        Err(last_err.unwrap_or(NetError::State("no connection attempts made".into())))
    }

    /// Replaces the transport with `stream` and resumes every open session.
    fn resume_on(&mut self, stream: TcpStream) -> Result<(), NetError> {
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        self.stream = stream;
        self.decoder = FrameDecoder::new();
        self.denied = None;
        self.broken = false;
        self.handshake()?;
        let mut ids: Vec<u32> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.report.is_none())
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let s = self.session(id)?;
            let request = Frame::ResumeSession {
                patient_id: s.patient_id,
                session_token: s.token,
                last_acked_seq: s.acked_seq,
                outcomes_received: s.outcomes.len() as u64,
            };
            self.send_frame(&request)?;
            let resumed = self.wait_frame(|f| matches!(f, Frame::SessionResumed { .. }))?;
            let Frame::SessionResumed {
                session,
                next_expected_seq,
                credit,
            } = resumed
            else {
                unreachable!("wait_frame matched SessionResumed");
            };
            if session != id {
                return Err(NetError::State(format!(
                    "gateway resumed session {session}, expected {id}"
                )));
            }
            let s = self.session_mut(id)?;
            while s
                .replay
                .front()
                .is_some_and(|(seq, _)| *seq < next_expected_seq)
            {
                s.replay.pop_front();
            }
            s.acked_seq = next_expected_seq;
            s.credit = credit as usize;
            s.transmitted = 0;
            self.transmit_queued(id)?;
        }
        Ok(())
    }

    /// Abruptly shuts the transport down (both directions) without telling
    /// the gateway — a link failure in miniature, for tests and the chaos
    /// harness. Subsequent traffic fails until
    /// [`NodeClient::reconnect_with_backoff`].
    pub fn sever(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.broken = true;
    }

    fn check_usable(&self) -> Result<(), NetError> {
        if self.broken {
            return Err(NetError::State(
                "connection is broken; call reconnect_with_backoff".into(),
            ));
        }
        Ok(())
    }

    fn session(&self, session: u32) -> Result<&ClientSession, NetError> {
        self.sessions
            .get(&session)
            .ok_or_else(|| NetError::State(format!("unknown session {session}")))
    }

    fn session_mut(&mut self, session: u32) -> Result<&mut ClientSession, NetError> {
        self.sessions
            .get_mut(&session)
            .ok_or_else(|| NetError::State(format!("unknown session {session}")))
    }

    fn send_frame(&mut self, frame: &Frame) -> Result<(), NetError> {
        let bytes = frame.encode();
        if let Err(e) = self.stream.write_all(&bytes) {
            self.broken = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Blocking read of at least one byte, then dispatch of every complete
    /// frame.
    fn read_and_dispatch(&mut self) -> Result<(), NetError> {
        self.receive(false, &|_| false).map(drop)
    }

    /// Dispatches incoming frames, reading as needed, until one matches
    /// `want`, and returns that one undispatched.
    fn wait_frame(&mut self, want: impl Fn(&Frame) -> bool) -> Result<Frame, NetError> {
        loop {
            if let Some(frame) = self.receive(false, &want)? {
                return Ok(frame);
            }
        }
    }

    /// The one read path. Dispatches the frames already decoded, then reads
    /// (one blocking `read`, or with `drain` everything the socket holds,
    /// without blocking) and dispatches what arrived; the first frame
    /// `want` matches is returned instead of dispatched. A hang-up, a
    /// failed read or a read timeout is reported only after every frame
    /// decoded before it has been dispatched, so a [`Frame::Deny`] or
    /// [`Frame::Busy`] sent with the FIN surfaces as itself.
    fn receive(
        &mut self,
        drain: bool,
        want: &dyn Fn(&Frame) -> bool,
    ) -> Result<Option<Frame>, NetError> {
        if let Some(frame) = self.dispatch_until(want)? {
            return Ok(Some(frame));
        }
        let mut buf = [0u8; 16 * 1024];
        let budget = if drain { usize::MAX } else { buf.len() };
        if drain {
            self.stream.set_nonblocking(true)?;
        }
        let decoder = &mut self.decoder;
        let pass = transport::read_pass(&mut self.stream, &mut buf, budget, |chunk| {
            decoder.feed(chunk);
            true
        });
        if drain {
            self.stream.set_nonblocking(false)?;
        }
        let hang_up = match pass.end {
            ReadEnd::Paused => None,
            ReadEnd::WouldBlock if drain => None,
            // A blocking socket would block only at its read timeout.
            ReadEnd::WouldBlock => Some(NetError::Io(ErrorKind::TimedOut.into())),
            ReadEnd::Eof => Some(NetError::Closed),
            ReadEnd::Failed(e) => Some(NetError::Io(e)),
        };
        if let Some(frame) = self.dispatch_until(want)? {
            return Ok(Some(frame));
        }
        let Some(error) = hang_up else {
            return Ok(None);
        };
        self.broken = true;
        Err(match error {
            NetError::Closed => self
                .denied
                .take()
                .map_or(NetError::Closed, NetError::Denied),
            error => error,
        })
    }

    /// Dispatches decoded frames up to the first one `want` matches, which
    /// is returned undispatched.
    fn dispatch_until(&mut self, want: &dyn Fn(&Frame) -> bool) -> Result<Option<Frame>, NetError> {
        while let Some(frame) = self.decoder.next_frame()? {
            if want(&frame) {
                return Ok(Some(frame));
            }
            self.dispatch(frame)?;
        }
        Ok(None)
    }

    fn dispatch(&mut self, frame: Frame) -> Result<(), NetError> {
        match frame {
            Frame::SessionOpened {
                session,
                credit,
                token,
            } => {
                self.sessions.insert(
                    session,
                    ClientSession {
                        token,
                        credit: credit as usize,
                        frame_cap: (credit as usize).min(MAX_SAMPLES_PER_FRAME),
                        ..ClientSession::default()
                    },
                );
                self.opened.push(session);
            }
            Frame::Credit {
                session,
                grant,
                acked_seq,
            } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.credit += grant as usize;
                    if acked_seq > s.acked_seq {
                        s.acked_seq = acked_seq;
                        while s.replay.front().is_some_and(|(seq, _)| *seq < acked_seq) {
                            s.replay.pop_front();
                            s.transmitted = s.transmitted.saturating_sub(1);
                        }
                    }
                }
            }
            Frame::Outcomes { session, outcomes } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    for o in outcomes {
                        s.outcomes.push(o.to_outcome().ok_or(NetError::State(
                            "gateway sent an out-of-protocol class code".into(),
                        ))?);
                    }
                }
            }
            Frame::Report { session, report } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.report = Some(report);
                }
            }
            Frame::Deny { message } => {
                self.denied = Some(message.clone());
                self.broken = true;
                return Err(NetError::Denied(message));
            }
            Frame::Busy { retry_after_ms } => {
                // Admission control, not a violation: the gateway closes
                // this connection but invites a retry after the pause.
                self.broken = true;
                return Err(NetError::Busy(Duration::from_millis(u64::from(
                    retry_after_ms,
                ))));
            }
            Frame::Hello { .. } => {
                return Err(NetError::State("unexpected Hello after handshake".into()))
            }
            Frame::SessionResumed { .. } => {
                return Err(NetError::State(
                    "unsolicited SessionResumed outside a resume".into(),
                ))
            }
            Frame::OpenSession { .. }
            | Frame::Samples { .. }
            | Frame::CloseSession { .. }
            | Frame::ResumeSession { .. } => {
                return Err(NetError::State("gateway sent a client-only frame".into()))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::Read;
    use std::net::{Shutdown, TcpListener};

    /// Dials a one-shot gateway that answers the client's Hello, then sends
    /// `last` and hangs up, and pumps once the hang-up has been sent.
    fn pump_after_hang_up(last: Frame) -> NetError {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (hung_up, on_hang_up) = std::sync::mpsc::channel();
        let gateway = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut decoder = FrameDecoder::awaiting_hello();
            let mut buf = [0u8; 256];
            while decoder.next_frame().expect("client hello").is_none() {
                let n = conn.read(&mut buf).expect("read hello");
                decoder.feed(&buf[..n]);
            }
            let mut bytes = Vec::new();
            Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode_handshake_into(&mut bytes);
            last.encode_into(&mut bytes);
            conn.write_all(&bytes).expect("write");
            conn.shutdown(Shutdown::Write).expect("shutdown");
            hung_up.send(()).expect("client waits");
            // Hold the socket until the client has read the FIN.
            let _ = conn.read(&mut buf);
        });
        let mut client = NodeClient::connect(addr).expect("handshake");
        on_hang_up.recv().expect("gateway hangs up");
        let error = client.pump().expect_err("the gateway hung up");
        assert!(client.broken, "a hang-up breaks the connection");
        drop(client);
        gateway.join().expect("gateway thread");
        error
    }

    #[test]
    fn pump_reports_a_deny_that_arrives_with_the_fin() {
        let error = pump_after_hang_up(Frame::Deny {
            message: "probe deny".into(),
        });
        assert!(
            matches!(&error, NetError::Denied(m) if m == "probe deny"),
            "got {error:?}"
        );
    }

    #[test]
    fn pump_reports_a_busy_that_arrives_with_the_fin() {
        let error = pump_after_hang_up(Frame::Busy {
            retry_after_ms: 250,
        });
        assert!(
            matches!(error, NetError::Busy(after) if after == Duration::from_millis(250)),
            "got {error:?}"
        );
    }
}

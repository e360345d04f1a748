//! The versioned binary wire protocol of the ingestion gateway.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! ┌────────────┬───────┬───────────────┬─────────────┐
//! │ len (u32)  │ tag   │ body          │ crc32 (u32) │
//! │ little-end │ (u8)  │ (len−1 bytes) │ over tag+body│
//! └────────────┴───────┴───────────────┴─────────────┘
//! ```
//!
//! `len` counts the tag byte plus the body; the CRC-32 (IEEE, the ZIP/PNG
//! polynomial) trailer covers exactly those bytes. All integers are
//! little-endian; there are no variable-length integers and no padding, so
//! every frame has exactly one serialisation and the decoder can verify
//! length *and* checksum before touching the payload. The envelope is the
//! one the durable log uses, implemented once in `hbc_wal`.
//!
//! [`FrameDecoder`] is a pure incremental parser: feed it arbitrary byte
//! slices ([`FrameDecoder::feed`]) and pop complete frames
//! ([`FrameDecoder::next_frame`]) — chunking is immaterial, which is what
//! the round-trip property tests exercise. Malformed input (bad CRC,
//! oversized length, unknown tag, short or overlong body) is reported as a
//! [`ProtoError`] and never panics; framing errors are fatal for the stream
//! (the decoder cannot resynchronise after a corrupt length).
//!
//! Samples travel as **i16 ADC codes** — what the node's front-end actually
//! produces — quantised with the same 12-bit ±5 mV transfer function as the
//! firmware's [`AdcModel`] ([`quantize_mv_into`] / [`dequantize_mv_into`]).
//! The code→millivolt mapping is exact in `f64`, so a record quantised once
//! on the sender yields bit-identical classifications whether it is replayed
//! over the socket or fed to `process_record` directly.

use hbc_ecg::beat::BeatClass;
use hbc_embedded::firmware::BeatOutcome;
use hbc_embedded::fixed::AdcModel;

/// Version of the wire protocol spoken by this build. Exchanged in both
/// directions by [`Frame::Hello`]; the gateway denies mismatched peers.
///
/// Version 2 added session resumption ([`Frame::ResumeSession`] /
/// [`Frame::SessionResumed`]), the resume token in [`Frame::SessionOpened`]
/// and the cumulative `acked_seq` in [`Frame::Credit`].
///
/// Version 3 added overload signalling: [`Frame::Busy`], the Deny-class
/// "come back later" response of the gateway's admission control (connection
/// and session caps, global memory budget).
pub const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on `len` (tag + body) the decoder accepts. A corrupt or
/// hostile length prefix beyond this is rejected before any buffering.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Most samples one [`Frame::Samples`] may carry (keeps frames well under
/// [`MAX_FRAME_LEN`] and bounds per-frame latency).
pub const MAX_SAMPLES_PER_FRAME: usize = 16_384;

// The frame envelope (length prefix, CRC-32 trailer) is the durable log's:
// `hbc_wal` owns it, and frames here are built and split with its
// functions. The CRC stays reachable from this module for the wire's users.
pub use hbc_wal::crc32;

/// The ADC transfer function of the wire: the firmware's default front-end
/// (12-bit, ±5 mV), whose codes fit an `i16` with headroom.
pub fn wire_adc() -> AdcModel {
    AdcModel::default_frontend()
}

/// Quantises millivolt samples to wire ADC codes (clearing `out` first) —
/// the sender-side half of the wire's sample representation. Delegates to
/// [`AdcModel::quantize_sample`], so the wire and the firmware share one
/// transfer function by construction (a 12-bit code always fits an `i16`).
pub fn quantize_mv_into(samples_mv: &[f64], out: &mut Vec<i16>) {
    let adc = wire_adc();
    out.clear();
    out.extend(samples_mv.iter().map(|&s| adc.quantize_sample(s) as i16));
}

/// Reconstructs millivolt samples from wire ADC codes (clearing `out`
/// first). [`AdcModel::dequantize_sample`] is exact in `f64`, so
/// `quantize → dequantize → quantize` is the identity on codes and the
/// gateway classifies exactly what the sender's front-end saw.
pub fn dequantize_mv_into(codes: &[i16], out: &mut Vec<f64>) {
    let adc = wire_adc();
    out.clear();
    out.extend(codes.iter().map(|&c| adc.dequantize_sample(i32::from(c))));
}

/// One classified beat on the wire: the subset of
/// [`BeatOutcome`] the node transmits (ground truth
/// is unknown online and labelled server- or analyst-side afterwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOutcome {
    /// Sample position of the detected R peak in the session's stream.
    pub peak: u64,
    /// Predicted class code (see [`class_to_code`]).
    pub class: u8,
    /// Whether the delineation stage ran for this beat.
    pub delineated: bool,
    /// Number of fiducial points transmitted for this beat.
    pub fiducials: u16,
}

/// Encodes a [`BeatClass`] as its wire code (0 N, 1 V, 2 L, 3 Unknown).
pub fn class_to_code(class: BeatClass) -> u8 {
    class.index().map_or(3, |i| i as u8)
}

/// Decodes a wire class code; `None` for codes outside the protocol.
pub fn code_to_class(code: u8) -> Option<BeatClass> {
    match code {
        3 => Some(BeatClass::Unknown),
        c => BeatClass::from_index(c as usize),
    }
}

impl WireOutcome {
    /// Converts a firmware outcome for transmission.
    pub fn from_outcome(o: &BeatOutcome) -> Self {
        WireOutcome {
            peak: o.peak as u64,
            class: class_to_code(o.predicted),
            delineated: o.delineated,
            fiducials: o.fiducials_transmitted.min(u16::MAX as usize) as u16,
        }
    }

    /// Reconstructs the firmware outcome (with `truth: None`, like every
    /// online beat).
    ///
    /// Returns `None` for an out-of-protocol class code.
    pub fn to_outcome(self) -> Option<BeatOutcome> {
        Some(BeatOutcome {
            peak: self.peak as usize,
            truth: None,
            predicted: code_to_class(self.class)?,
            delineated: self.delineated,
            fiducials_transmitted: usize::from(self.fiducials),
        })
    }
}

/// Final per-session counters, sent with [`Frame::Report`] when a session
/// closes (normally or by eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireReport {
    /// Beats the session emitted in total.
    pub beats: u64,
    /// Beats forwarded to the delineation stage.
    pub forwarded: u64,
    /// Raw samples the session ingested.
    pub samples: u64,
}

/// Every message of the protocol.
///
/// Client → gateway: [`Frame::Hello`], [`Frame::OpenSession`],
/// [`Frame::Samples`], [`Frame::CloseSession`], [`Frame::ResumeSession`].
/// Gateway → client: [`Frame::Hello`] (handshake echo),
/// [`Frame::SessionOpened`], [`Frame::Credit`], [`Frame::Outcomes`],
/// [`Frame::Report`], [`Frame::Deny`], [`Frame::SessionResumed`],
/// [`Frame::Busy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Handshake. The first frame in each direction; carries the protocol
    /// version.
    Hello {
        /// Speaker's protocol version.
        version: u16,
    },
    /// Requests a new per-patient session.
    OpenSession {
        /// Patient identifier (opaque to the gateway, echoed in reports).
        patient_id: u32,
        /// Acquisition sampling rate in millihertz (must match the
        /// gateway's hub).
        fs_millihertz: u32,
        /// Number of leading samples the gateway calibrates detection
        /// thresholds on before classification starts. The stretch is part
        /// of the stream (it is replayed into the session after
        /// calibration), exactly like a node's start-up phase.
        calib_len: u32,
    },
    /// A run of consecutive ADC samples for one session. `seq` numbers the
    /// sample frames of the session from 0; a gap is a protocol error.
    Samples {
        /// Gateway-assigned session id (from [`Frame::SessionOpened`]).
        session: u32,
        /// Frame sequence number within the session.
        seq: u32,
        /// ADC codes (see [`quantize_mv_into`]).
        samples: Vec<i16>,
    },
    /// Ends a session: the gateway drains it and answers with
    /// [`Frame::Outcomes`] (if beats remain) and a final [`Frame::Report`].
    CloseSession {
        /// Session to close.
        session: u32,
    },
    /// Re-attaches a session whose connection died, identified by the
    /// resume token from [`Frame::SessionOpened`]. The gateway keeps
    /// calibrated thresholds and the stream position for a retention
    /// window, so the node does not re-run threshold calibration. The
    /// gateway answers with [`Frame::SessionResumed`] (or [`Frame::Deny`]
    /// when the token is unknown or the window elapsed).
    ResumeSession {
        /// Patient identifier; must match the session being resumed.
        patient_id: u32,
        /// The resume token issued at [`Frame::SessionOpened`].
        session_token: u64,
        /// Count of [`Frame::Samples`] frames the client knows the gateway
        /// received (its last observed `acked_seq`); informational — the
        /// gateway's own `next_expected_seq` is authoritative.
        last_acked_seq: u32,
        /// Outcomes the client received before the link died; the gateway
        /// rewinds its forwarding position here so the outcome stream has
        /// no gap.
        outcomes_received: u64,
    },
    /// Open acknowledgement: the gateway-assigned session id plus the
    /// session's full credit budget (samples the client may have in flight).
    SessionOpened {
        /// Newly assigned session id.
        session: u32,
        /// Initial credit, in samples.
        credit: u32,
        /// Resume token for [`Frame::ResumeSession`]. Unique per gateway;
        /// an opaque correlation handle, not a security boundary.
        token: u64,
    },
    /// Resume acknowledgement: the wire id is unchanged, sending restarts
    /// at `next_expected_seq` with `credit` samples of budget.
    SessionResumed {
        /// The resumed session's wire id.
        session: u32,
        /// Sequence number of the next [`Frame::Samples`] frame the gateway
        /// expects — frames below it were received and must not be resent.
        next_expected_seq: u32,
        /// Absolute credit after the resume (budget minus samples still
        /// buffered gateway-side); replaces the client's counter.
        credit: u32,
    },
    /// Replenishes `grant` samples of credit as the hub consumes the
    /// session's buffered samples.
    Credit {
        /// Session the grant applies to.
        session: u32,
        /// Samples of credit returned to the sender.
        grant: u32,
        /// Cumulative count of [`Frame::Samples`] frames received for the
        /// session — everything below this sequence number is safely
        /// buffered gateway-side and may be dropped from replay buffers.
        acked_seq: u32,
    },
    /// Classified beats, in temporal order, as they fall out of the hub.
    Outcomes {
        /// Session the beats belong to.
        session: u32,
        /// The beats.
        outcomes: Vec<WireOutcome>,
    },
    /// Final counters of a closed (or evicted) session.
    Report {
        /// The session that ended.
        session: u32,
        /// Its final counters.
        report: WireReport,
    },
    /// Protocol violation or refusal; the gateway closes the connection
    /// after sending it.
    Deny {
        /// Human-readable reason.
        message: String,
    },
    /// Overload refusal (admission control): the gateway is past one of its
    /// configured limits (connections, sessions or the global memory
    /// budget). Unlike [`Frame::Deny`] this is not a protocol violation —
    /// the request was well-formed and may simply be retried after
    /// `retry_after_ms`. The gateway closes the connection after sending
    /// it, freeing the slot for the load it is shedding.
    Busy {
        /// Suggested client-side pause before retrying, in milliseconds.
        retry_after_ms: u32,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_OPEN_SESSION: u8 = 0x02;
const TAG_SAMPLES: u8 = 0x03;
const TAG_CLOSE_SESSION: u8 = 0x04;
const TAG_RESUME_SESSION: u8 = 0x05;
const TAG_SESSION_OPENED: u8 = 0x81;
const TAG_CREDIT: u8 = 0x82;
const TAG_OUTCOMES: u8 = 0x83;
const TAG_REPORT: u8 = 0x84;
const TAG_DENY: u8 = 0x85;
const TAG_SESSION_RESUMED: u8 = 0x86;
const TAG_BUSY: u8 = 0x87;

/// Decoding errors. All are fatal for the byte stream they occurred on —
/// after a framing error the decoder cannot find the next frame boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is zero).
    BadLength {
        /// The offending length.
        len: usize,
    },
    /// The CRC-32 trailer does not match the frame contents.
    BadCrc {
        /// Checksum computed over the received bytes.
        computed: u32,
        /// Checksum found in the trailer.
        found: u32,
    },
    /// The frame tag is not part of this protocol version.
    UnknownTag(u8),
    /// The body does not parse (short read, overlong body, invalid field).
    Malformed(&'static str),
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Bytes buffered when the stream ended.
        buffered: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadLength { len } => {
                write!(f, "frame length {len} outside (0, {MAX_FRAME_LEN}]")
            }
            ProtoError::BadCrc { computed, found } => {
                write!(
                    f,
                    "crc mismatch: computed {computed:#010x}, trailer {found:#010x}"
                )
            }
            ProtoError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame body: {what}"),
            ProtoError::Truncated { buffered } => {
                write!(f, "stream ended mid-frame ({buffered} bytes buffered)")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<hbc_wal::EnvelopeError> for ProtoError {
    fn from(e: hbc_wal::EnvelopeError) -> Self {
        match e {
            hbc_wal::EnvelopeError::BadLength { len } => ProtoError::BadLength { len },
            hbc_wal::EnvelopeError::BadCrc { computed, found } => {
                ProtoError::BadCrc { computed, found }
            }
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ProtoError::Malformed("body shorter than its fields"))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after body"))
        }
    }
}

impl Frame {
    /// Appends the frame's serialisation (length prefix, tag, body, CRC
    /// trailer) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = hbc_wal::begin_frame(out);
        match self {
            Frame::Hello { version } => {
                out.push(TAG_HELLO);
                put_u16(out, *version);
            }
            Frame::OpenSession {
                patient_id,
                fs_millihertz,
                calib_len,
            } => {
                out.push(TAG_OPEN_SESSION);
                put_u32(out, *patient_id);
                put_u32(out, *fs_millihertz);
                put_u32(out, *calib_len);
            }
            Frame::Samples {
                session,
                seq,
                samples,
            } => {
                out.push(TAG_SAMPLES);
                put_u32(out, *session);
                put_u32(out, *seq);
                for s in samples {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            Frame::CloseSession { session } => {
                out.push(TAG_CLOSE_SESSION);
                put_u32(out, *session);
            }
            Frame::ResumeSession {
                patient_id,
                session_token,
                last_acked_seq,
                outcomes_received,
            } => {
                out.push(TAG_RESUME_SESSION);
                put_u32(out, *patient_id);
                put_u64(out, *session_token);
                put_u32(out, *last_acked_seq);
                put_u64(out, *outcomes_received);
            }
            Frame::SessionOpened {
                session,
                credit,
                token,
            } => {
                out.push(TAG_SESSION_OPENED);
                put_u32(out, *session);
                put_u32(out, *credit);
                put_u64(out, *token);
            }
            Frame::SessionResumed {
                session,
                next_expected_seq,
                credit,
            } => {
                out.push(TAG_SESSION_RESUMED);
                put_u32(out, *session);
                put_u32(out, *next_expected_seq);
                put_u32(out, *credit);
            }
            Frame::Credit {
                session,
                grant,
                acked_seq,
            } => {
                out.push(TAG_CREDIT);
                put_u32(out, *session);
                put_u32(out, *grant);
                put_u32(out, *acked_seq);
            }
            Frame::Outcomes { session, outcomes } => {
                out.push(TAG_OUTCOMES);
                put_u32(out, *session);
                for o in outcomes {
                    put_u64(out, o.peak);
                    out.push(o.class);
                    out.push(u8::from(o.delineated));
                    put_u16(out, o.fiducials);
                }
            }
            Frame::Report { session, report } => {
                out.push(TAG_REPORT);
                put_u32(out, *session);
                put_u64(out, report.beats);
                put_u64(out, report.forwarded);
                put_u64(out, report.samples);
            }
            Frame::Deny { message } => {
                out.push(TAG_DENY);
                out.extend_from_slice(message.as_bytes());
            }
            Frame::Busy { retry_after_ms } => {
                out.push(TAG_BUSY);
                put_u32(out, *retry_after_ms);
            }
        }
        hbc_wal::seal_frame(out, start);
    }

    /// Convenience: the frame as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn decode_body(tag: u8, body: &[u8]) -> Result<Frame, ProtoError> {
        let mut c = Cursor::new(body);
        let frame = match tag {
            TAG_HELLO => Frame::Hello { version: c.u16()? },
            TAG_OPEN_SESSION => Frame::OpenSession {
                patient_id: c.u32()?,
                fs_millihertz: c.u32()?,
                calib_len: c.u32()?,
            },
            TAG_SAMPLES => {
                let session = c.u32()?;
                let seq = c.u32()?;
                let rest = c.take(body.len() - 8)?;
                if rest.len() % 2 != 0 {
                    return Err(ProtoError::Malformed("odd sample payload"));
                }
                let samples = rest
                    .chunks_exact(2)
                    .map(|b| i16::from_le_bytes([b[0], b[1]]))
                    .collect();
                Frame::Samples {
                    session,
                    seq,
                    samples,
                }
            }
            TAG_CLOSE_SESSION => Frame::CloseSession { session: c.u32()? },
            TAG_RESUME_SESSION => Frame::ResumeSession {
                patient_id: c.u32()?,
                session_token: c.u64()?,
                last_acked_seq: c.u32()?,
                outcomes_received: c.u64()?,
            },
            TAG_SESSION_OPENED => Frame::SessionOpened {
                session: c.u32()?,
                credit: c.u32()?,
                token: c.u64()?,
            },
            TAG_SESSION_RESUMED => Frame::SessionResumed {
                session: c.u32()?,
                next_expected_seq: c.u32()?,
                credit: c.u32()?,
            },
            TAG_CREDIT => Frame::Credit {
                session: c.u32()?,
                grant: c.u32()?,
                acked_seq: c.u32()?,
            },
            TAG_OUTCOMES => {
                let session = c.u32()?;
                let rest_len = body.len() - 4;
                if !rest_len.is_multiple_of(12) {
                    return Err(ProtoError::Malformed(
                        "outcome payload not a multiple of 12",
                    ));
                }
                let mut outcomes = Vec::with_capacity(rest_len / 12);
                for _ in 0..rest_len / 12 {
                    let peak = c.u64()?;
                    let class = c.u8()?;
                    let delineated = match c.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(ProtoError::Malformed("delineated flag not 0/1")),
                    };
                    let fiducials = c.u16()?;
                    if code_to_class(class).is_none() {
                        return Err(ProtoError::Malformed("class code outside the protocol"));
                    }
                    outcomes.push(WireOutcome {
                        peak,
                        class,
                        delineated,
                        fiducials,
                    });
                }
                Frame::Outcomes { session, outcomes }
            }
            TAG_REPORT => Frame::Report {
                session: c.u32()?,
                report: WireReport {
                    beats: c.u64()?,
                    forwarded: c.u64()?,
                    samples: c.u64()?,
                },
            },
            TAG_DENY => {
                let bytes = c.take(body.len())?;
                let message = std::str::from_utf8(bytes)
                    .map_err(|_| ProtoError::Malformed("deny message not UTF-8"))?
                    .to_string();
                Frame::Deny { message }
            }
            TAG_BUSY => Frame::Busy {
                retry_after_ms: c.u32()?,
            },
            other => return Err(ProtoError::UnknownTag(other)),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// Incremental frame parser: buffer bytes from any transport, pop complete
/// frames. Pure (no I/O), so the protocol is testable without sockets.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim the consumed prefix once it dominates the
        // buffer, keeping feed+pop amortised O(1) per byte.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame: `Ok(None)` means "need more bytes".
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`] is fatal for the stream: the decoder's state is
    /// left untouched and every subsequent call fails the same way.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        let Some(split) = hbc_wal::split_frame(&self.buf[self.start..], MAX_FRAME_LEN)? else {
            return Ok(None);
        };
        let frame = Frame::decode_body(split.tag, split.body)?;
        self.start += split.total;
        Ok(Some(frame))
    }

    /// Declares end of stream: errors if bytes of an incomplete frame
    /// remain buffered.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Truncated`] when the peer hung up mid-frame.
    pub fn expect_eof(&self) -> Result<(), ProtoError> {
        match self.buffered() {
            0 => Ok(()),
            buffered => Err(ProtoError::Truncated { buffered }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::OpenSession {
                patient_id: 7,
                fs_millihertz: 360_000,
                calib_len: 2880,
            },
            Frame::Samples {
                session: 1,
                seq: 0,
                samples: vec![-2048, -1, 0, 1, 2047],
            },
            Frame::SessionOpened {
                session: 1,
                credit: 65536,
                token: 0xDEAD_BEEF_F00D_CAFE,
            },
            Frame::ResumeSession {
                patient_id: 7,
                session_token: 0xDEAD_BEEF_F00D_CAFE,
                last_acked_seq: 41,
                outcomes_received: 17,
            },
            Frame::SessionResumed {
                session: 1,
                next_expected_seq: 42,
                credit: 4096,
            },
            Frame::Credit {
                session: 1,
                grant: 512,
                acked_seq: 42,
            },
            Frame::Outcomes {
                session: 1,
                outcomes: vec![
                    WireOutcome {
                        peak: 1234,
                        class: 0,
                        delineated: false,
                        fiducials: 1,
                    },
                    WireOutcome {
                        peak: u64::MAX,
                        class: 3,
                        delineated: true,
                        fiducials: 9,
                    },
                ],
            },
            Frame::Report {
                session: 1,
                report: WireReport {
                    beats: 42,
                    forwarded: 7,
                    samples: 650_000,
                },
            },
            Frame::CloseSession { session: 1 },
            Frame::Deny {
                message: "nope".into(),
            },
            Frame::Busy {
                retry_after_ms: 250,
            },
        ]
    }

    #[test]
    fn frames_round_trip_through_the_decoder() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        for f in &frames {
            assert_eq!(decoder.next_frame().expect("valid"), Some(f.clone()));
        }
        assert_eq!(decoder.next_frame().expect("drained"), None);
        decoder.expect_eof().expect("no residue");
    }

    #[test]
    fn byte_by_byte_feeding_is_equivalent() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let mut decoder = FrameDecoder::new();
        let mut seen = Vec::new();
        for &b in &bytes {
            decoder.feed(&[b]);
            while let Some(f) = decoder.next_frame().expect("valid") {
                seen.push(f);
            }
        }
        assert_eq!(seen, frames);
    }

    #[test]
    fn corrupt_crc_is_detected() {
        let mut bytes = Frame::CloseSession { session: 3 }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        assert!(matches!(
            decoder.next_frame(),
            Err(ProtoError::BadCrc { .. })
        ));
    }

    #[test]
    fn payload_corruption_fails_the_crc_not_the_parser() {
        let mut bytes = Frame::Samples {
            session: 1,
            seq: 9,
            samples: vec![5; 64],
        }
        .encode();
        bytes[10] ^= 0x01;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        assert!(matches!(
            decoder.next_frame(),
            Err(ProtoError::BadCrc { .. })
        ));
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected() {
        for len in [0u32, (MAX_FRAME_LEN as u32) + 1, u32::MAX] {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&len.to_le_bytes());
            decoder.feed(&[0u8; 16]);
            assert!(
                matches!(decoder.next_frame(), Err(ProtoError::BadLength { .. })),
                "len {len}"
            );
        }
    }

    #[test]
    fn unknown_tags_and_malformed_bodies_error_without_panicking() {
        // Unknown tag, valid CRC.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        bytes.extend_from_slice(&[0x7F, 1, 2]);
        let crc = crc32(&bytes[4..]);
        put_u32(&mut bytes, crc);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        assert_eq!(decoder.next_frame(), Err(ProtoError::UnknownTag(0x7F)));

        // Short body for the tag (Hello needs 2 bytes).
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 2);
        bytes.extend_from_slice(&[TAG_HELLO, 1]);
        let crc = crc32(&bytes[4..]);
        put_u32(&mut bytes, crc);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        assert!(matches!(
            decoder.next_frame(),
            Err(ProtoError::Malformed(_))
        ));

        // Overlong body (Hello with 2 trailing junk bytes).
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 5);
        bytes.extend_from_slice(&[TAG_HELLO, 1, 0, 9, 9]);
        let crc = crc32(&bytes[4..]);
        put_u32(&mut bytes, crc);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        assert!(matches!(
            decoder.next_frame(),
            Err(ProtoError::Malformed(_))
        ));

        // Odd sample payload.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1 + 8 + 3);
        bytes.push(TAG_SAMPLES);
        bytes.extend_from_slice(&[0; 8]); // session + seq
        bytes.extend_from_slice(&[1, 2, 3]);
        let crc = crc32(&bytes[4..]);
        put_u32(&mut bytes, crc);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        assert_eq!(
            decoder.next_frame(),
            Err(ProtoError::Malformed("odd sample payload"))
        );
    }

    #[test]
    fn truncated_streams_are_reported_at_eof() {
        let bytes = Frame::CloseSession { session: 1 }.encode();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes[..bytes.len() - 3]);
        assert_eq!(decoder.next_frame().expect("incomplete"), None);
        assert!(matches!(
            decoder.expect_eof(),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn adc_round_trip_is_the_identity_on_codes() {
        let mv: Vec<f64> = (-2048..2048).map(|c| c as f64 * 5.0 / 2048.0).collect();
        let mut codes = Vec::new();
        quantize_mv_into(&mv, &mut codes);
        let mut back = Vec::new();
        dequantize_mv_into(&codes, &mut back);
        let mut codes2 = Vec::new();
        quantize_mv_into(&back, &mut codes2);
        assert_eq!(codes, codes2);
        // Saturation at the rails.
        quantize_mv_into(&[100.0, -100.0], &mut codes);
        assert_eq!(codes, vec![2047, -2048]);
    }

    #[test]
    fn class_codes_cover_all_variants() {
        for class in [
            BeatClass::Normal,
            BeatClass::PrematureVentricular,
            BeatClass::LeftBundleBranchBlock,
            BeatClass::Unknown,
        ] {
            assert_eq!(code_to_class(class_to_code(class)), Some(class));
        }
        assert_eq!(code_to_class(4), None);
    }
}

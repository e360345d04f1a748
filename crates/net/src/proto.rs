//! The versioned binary wire protocol of the ingestion gateway.
//!
//! Every message travels as one **frame**, in one of two envelopes:
//!
//! ```text
//! compact: ┌────────────────┬──────┬──────┬─────────────┐
//!          │ len (varint)   │ tag  │ body │ crc32 (u32) │
//!          └────────────────┴──────┴──────┴─────────────┘
//! fixed:   ┌────────────────┬──────┬──────┬─────────────┐
//!          │ len (u32, LE)  │ tag  │ body │ crc32 (u32) │
//!          └────────────────┴──────┴──────┴─────────────┘
//! ```
//!
//! `len` counts the tag byte plus the body; the CRC-32 (IEEE, the ZIP/PNG
//! polynomial) trailer covers exactly those bytes, little-endian. Every
//! frame travels in the **compact** envelope, the durable log's, whose
//! length is a canonical varint (one byte below 128 — every `Samples`,
//! `Outcomes` and `Credit` frame of a 36-sample node stream — and at most
//! three up to [`MAX_FRAME_LEN`]). It is implemented once in `hbc_wal`, so
//! the decoder verifies length *and* checksum before touching the payload.
//! The exception is the **first frame in each direction**: the
//! [`Frame::Hello`], or the [`Frame::Busy`] or [`Frame::Deny`] that answers
//! it, travels in the **fixed** envelope of protocol versions 1–5
//! ([`Frame::encode_handshake_into`]). A peer of any version therefore
//! reads the handshake, and an older node is denied by name. The decoder
//! tells the two apart by the second byte: a fixed frame's length is below
//! 256, so that byte is zero, while in a compact frame it is the tag or a
//! varint's last byte, never zero. A fixed frame carries only Hello, Busy
//! or Deny, and a Hello only ever travels fixed.
//!
//! Inside the body every integer field is a **canonical unsigned LEB128
//! varint** ([`hbc_wal::codec`]): the decoder rejects overlong encodings (a
//! multi-byte varint whose last byte is zero) and values past the field's
//! type, so every frame has exactly one serialisation in its envelope. The
//! exception is [`Frame::Hello`]'s version, a little-endian `u16` in every
//! protocol version: it is what tells versions apart, so a peer of any
//! version must read it the same way. Two fields are coded relative to
//! their predecessor in the frame:
//!
//! * `Samples` carries its ADC codes as the sample payload of
//!   [`hbc_wal::codec`], the one the durable log stores too: the first code
//!   as a zigzag varint, then a Rice-coded bitstream of the zigzag deltas
//!   whose parameter the frame's deltas fix. An ECG moves little between
//!   consecutive samples, so a code takes about 6.4 bits. There is no count
//!   field: the codes run to the end of the body. The decoder rejects every
//!   off-rule bitstream, a delta that leaves `i16` and more than
//!   [`MAX_SAMPLES_PER_FRAME`] codes.
//! * `Outcomes` carries each beat's `peak` as the wrapping difference from
//!   the previous beat's (the first from 0) — in temporal order, the RR
//!   interval — and packs `class | delineated << 2` into one byte.
//!
//! [`FrameDecoder`] is a pure incremental parser: feed it arbitrary byte
//! slices ([`FrameDecoder::feed`]) and pop complete frames
//! ([`FrameDecoder::next_frame`]) — chunking is immaterial, which is what
//! the round-trip property tests exercise. Malformed input (bad CRC,
//! oversized or overlong length, unknown tag, short or overlong body, a
//! frame in the wrong envelope) is reported as a [`ProtoError`] and never
//! panics; framing errors are fatal for the stream (the decoder cannot
//! resynchronise after a corrupt length).
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
///
/// Version 4 replaced every fixed-width body integer with a canonical
/// varint, delta-coded the `Samples` codes and the `Outcomes` peaks, and
/// packed each outcome's class and delineation flag into one byte. The
/// frames and their fields are unchanged.
///
/// Version 5 Rice-codes the `Samples` deltas after the first code, with
/// one parameter per frame fixed by the deltas (see the module docs): about
/// 0.80 instead of 1.03 bytes per code in 36-sample frames of synthetic
/// ECG (the `net_ingest` stream). Every other frame is unchanged.
///
/// Version 6 moves every frame after the handshake to the compact envelope
/// (a varint length instead of a `u32`), 6 bytes of framing instead of 9
/// below 128 bytes. The handshake keeps the fixed envelope and its version
/// 5 bytes, so older peers are still denied by name. Bodies are unchanged.
pub const PROTOCOL_VERSION: u16 = 6;

/// Upper bound on `len` (tag + body) the decoder accepts. A corrupt or
/// hostile length prefix beyond this is rejected before any buffering.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Most samples one [`Frame::Samples`] may carry (keeps frames well under
/// [`MAX_FRAME_LEN`] and bounds per-frame latency).
pub const MAX_SAMPLES_PER_FRAME: usize = 16_384;

// The compact envelope (varint length prefix, CRC-32 trailer), the varints
// and the sample codec are the durable log's: `hbc_wal` owns them, and
// frames here are built, split and coded with its functions. The CRC stays
// reachable from this module for the wire's users.
use hbc_wal::codec::{decode_samples, encode_samples, put_varint, read_varint, CodecError};
pub use hbc_wal::crc32;

/// Largest `len` (tag + body) of a frame in the fixed envelope. Its length
/// prefix's second byte is then zero, which tells the envelopes apart.
const FIXED_MAX_LEN: usize = 255;

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
    /// session's buffered samples. The gateway coalesces grants: it
    /// returns all the credit it owes once that reaches `budget / 64`,
    /// once the sender's window drops below one maximal frame, or once the
    /// session has been quiet for a while (see [`crate::server`]). Budgets
    /// up to [`MAX_SAMPLES_PER_FRAME`] are granted every sweep that
    /// consumes.
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
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (255 in the fixed
    /// envelope) or is zero.
    BadLength {
        /// The offending length; for a prefix rejected before it ends, the
        /// least length it can still spell.
        len: usize,
    },
    /// The compact length prefix spells its value in more bytes than it
    /// needs.
    OverlongLength,
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
            ProtoError::OverlongLength => write!(f, "overlong frame length prefix"),
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
            hbc_wal::EnvelopeError::OverlongLength => ProtoError::OverlongLength,
            hbc_wal::EnvelopeError::BadCrc { computed, found } => {
                ProtoError::BadCrc { computed, found }
            }
        }
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::TooManyCodes => {
                ProtoError::Malformed("more than MAX_SAMPLES_PER_FRAME samples")
            }
            CodecError::Malformed(what) => ProtoError::Malformed(what),
        }
    }
}

/// Bits of an [`Frame::Outcomes`] beat's flags byte: the class code in the
/// low two, the delineation flag above them, the rest zero.
const OUTCOME_CLASS_MASK: u8 = 0b011;
const OUTCOME_DELINEATED: u8 = 0b100;

/// Bounds-checked varint reader over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self
            .bytes
            .get(self.at)
            .ok_or(ProtoError::Malformed("body shorter than its fields"))?;
        self.at += 1;
        Ok(b)
    }

    /// The one fixed-width field: [`Frame::Hello`]'s version.
    fn u16_le(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let (value, n) = read_varint(&self.bytes[self.at..])?;
        self.at += n;
        Ok(value)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        u32::try_from(self.u64()?).map_err(|_| ProtoError::Malformed("varint past u32"))
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        u16::try_from(self.u64()?).map_err(|_| ProtoError::Malformed("varint past u16"))
    }

    /// The unread rest of the body; the cursor ends there.
    fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.at..];
        self.at = self.bytes.len();
        rest
    }

    fn is_empty(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after body"))
        }
    }
}

/// Appends a [`Frame::Outcomes`] carrying `outcomes` to `out`: the bytes
/// that frame encodes to, straight from a borrowed slice.
pub(crate) fn encode_outcomes_into(session: u32, outcomes: &[WireOutcome], out: &mut Vec<u8>) {
    let start = hbc_wal::begin_frame(out);
    put_outcomes(out, session, outcomes);
    hbc_wal::seal_frame(out, start);
}

/// The tag and body of a [`Frame::Outcomes`].
fn put_outcomes(out: &mut Vec<u8>, session: u32, outcomes: &[WireOutcome]) {
    out.push(TAG_OUTCOMES);
    put_varint(out, u64::from(session));
    let mut prev = 0u64;
    for o in outcomes {
        put_varint(out, o.peak.wrapping_sub(prev));
        prev = o.peak;
        debug_assert!(
            o.class <= OUTCOME_CLASS_MASK,
            "class code outside the protocol"
        );
        let delineated = if o.delineated { OUTCOME_DELINEATED } else { 0 };
        out.push((o.class & OUTCOME_CLASS_MASK) | delineated);
        put_varint(out, u64::from(o.fiducials));
    }
}

impl Frame {
    /// Appends the frame's serialisation (length prefix, tag, body, CRC
    /// trailer) to `out`: a [`Frame::Hello`] in the fixed envelope, every
    /// other frame in the compact one (see the module docs).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        if let Frame::Hello { .. } = self {
            self.encode_handshake_into(out);
            return;
        }
        let start = hbc_wal::begin_frame(out);
        self.put_tag_and_body(out);
        hbc_wal::seal_frame(out, start);
    }

    /// Appends the frame in the fixed envelope of protocol versions 1–5,
    /// the form of the first frame in each direction: a [`Frame::Hello`],
    /// or the [`Frame::Busy`] or [`Frame::Deny`] answering it, so that a
    /// peer of any version reads it. A Deny message is cut, at a character
    /// boundary, to the 254 bytes the fixed envelope holds. Other frames
    /// have no fixed form and are appended as [`Frame::encode_into`] does.
    pub fn encode_handshake_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        match self {
            Frame::Hello { .. } | Frame::Busy { .. } => self.put_tag_and_body(out),
            Frame::Deny { message } => {
                let mut end = message.len().min(FIXED_MAX_LEN - 1);
                while !message.is_char_boundary(end) {
                    end -= 1;
                }
                out.push(TAG_DENY);
                out.extend_from_slice(&message.as_bytes()[..end]);
            }
            _ => {
                out.truncate(start);
                self.encode_into(out);
                return;
            }
        }
        let len = out.len() - start - 4;
        debug_assert!(len <= FIXED_MAX_LEN);
        out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        let crc = crc32(&out[start + 4..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends the frame's tag and body.
    fn put_tag_and_body(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { version } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Frame::OpenSession {
                patient_id,
                fs_millihertz,
                calib_len,
            } => {
                out.push(TAG_OPEN_SESSION);
                put_varint(out, u64::from(*patient_id));
                put_varint(out, u64::from(*fs_millihertz));
                put_varint(out, u64::from(*calib_len));
            }
            Frame::Samples {
                session,
                seq,
                samples,
            } => {
                out.push(TAG_SAMPLES);
                put_varint(out, u64::from(*session));
                put_varint(out, u64::from(*seq));
                encode_samples(samples, out);
            }
            Frame::CloseSession { session } => {
                out.push(TAG_CLOSE_SESSION);
                put_varint(out, u64::from(*session));
            }
            Frame::ResumeSession {
                patient_id,
                session_token,
                last_acked_seq,
                outcomes_received,
            } => {
                out.push(TAG_RESUME_SESSION);
                put_varint(out, u64::from(*patient_id));
                put_varint(out, *session_token);
                put_varint(out, u64::from(*last_acked_seq));
                put_varint(out, *outcomes_received);
            }
            Frame::SessionOpened {
                session,
                credit,
                token,
            } => {
                out.push(TAG_SESSION_OPENED);
                put_varint(out, u64::from(*session));
                put_varint(out, u64::from(*credit));
                put_varint(out, *token);
            }
            Frame::SessionResumed {
                session,
                next_expected_seq,
                credit,
            } => {
                out.push(TAG_SESSION_RESUMED);
                put_varint(out, u64::from(*session));
                put_varint(out, u64::from(*next_expected_seq));
                put_varint(out, u64::from(*credit));
            }
            Frame::Credit {
                session,
                grant,
                acked_seq,
            } => {
                out.push(TAG_CREDIT);
                put_varint(out, u64::from(*session));
                put_varint(out, u64::from(*grant));
                put_varint(out, u64::from(*acked_seq));
            }
            Frame::Outcomes { session, outcomes } => put_outcomes(out, *session, outcomes),
            Frame::Report { session, report } => {
                out.push(TAG_REPORT);
                put_varint(out, u64::from(*session));
                put_varint(out, report.beats);
                put_varint(out, report.forwarded);
                put_varint(out, report.samples);
            }
            Frame::Deny { message } => {
                out.push(TAG_DENY);
                out.extend_from_slice(message.as_bytes());
            }
            Frame::Busy { retry_after_ms } => {
                out.push(TAG_BUSY);
                put_varint(out, u64::from(*retry_after_ms));
            }
        }
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
            TAG_HELLO => Frame::Hello {
                version: c.u16_le()?,
            },
            TAG_OPEN_SESSION => Frame::OpenSession {
                patient_id: c.u32()?,
                fs_millihertz: c.u32()?,
                calib_len: c.u32()?,
            },
            TAG_SAMPLES => Frame::Samples {
                session: c.u32()?,
                seq: c.u32()?,
                samples: decode_samples(c.rest(), MAX_SAMPLES_PER_FRAME)?,
            },
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
                // Each beat takes at least three bytes.
                let mut outcomes = Vec::with_capacity(body.len() / 3);
                let mut peak = 0u64;
                while !c.is_empty() {
                    peak = peak.wrapping_add(c.u64()?);
                    let flags = c.u8()?;
                    if flags & !(OUTCOME_CLASS_MASK | OUTCOME_DELINEATED) != 0 {
                        return Err(ProtoError::Malformed("outcome flags outside the protocol"));
                    }
                    outcomes.push(WireOutcome {
                        peak,
                        class: flags & OUTCOME_CLASS_MASK,
                        delineated: flags & OUTCOME_DELINEATED != 0,
                        fiducials: c.u16()?,
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
                let message = std::str::from_utf8(c.rest())
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

/// Splits the fixed-envelope frame at the start of `buf`, whose second byte
/// is zero: its length is then 1 to [`FIXED_MAX_LEN`], so the first byte
/// must not be zero and the last two must be, each checked as soon as it
/// arrives.
fn split_fixed_frame(buf: &[u8]) -> Result<Option<hbc_wal::SplitFrame<'_>>, ProtoError> {
    let prefix = &buf[..buf.len().min(4)];
    let len = prefix
        .iter()
        .rev()
        .fold(0usize, |len, &b| len << 8 | usize::from(b));
    if prefix[0] == 0 || len > FIXED_MAX_LEN {
        return Err(ProtoError::BadLength { len });
    }
    let total = 4 + len + 4;
    let Some(frame) = buf.get(4..total) else {
        return Ok(None);
    };
    let (payload, trailer) = frame.split_at(len);
    let found = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(payload);
    if computed != found {
        return Err(ProtoError::BadCrc { computed, found });
    }
    Ok(Some(hbc_wal::SplitFrame {
        tag: payload[0],
        body: &payload[1..],
        total,
    }))
}

/// Incremental frame parser: buffer bytes from any transport, pop complete
/// frames. Pure (no I/O), so the protocol is testable without sockets.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    /// Whether the first frame must be in the fixed envelope and has not
    /// been decoded yet.
    awaiting_hello: bool,
}

impl FrameDecoder {
    /// Creates an empty decoder that reads either envelope anywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty decoder for a stream that must open with a
    /// [`Frame::Hello`] — the gateway's side of a connection. Its first
    /// frame must be in the fixed envelope: anything else is rejected as
    /// soon as its second byte arrives, instead of buffering up to a
    /// compact frame's length of whatever a peer that skipped the
    /// handshake sent.
    pub fn awaiting_hello() -> Self {
        FrameDecoder {
            awaiting_hello: true,
            ..Self::default()
        }
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
        let buf = &self.buf[self.start..];
        // A zero second byte marks the fixed envelope: see the module docs.
        let fixed = buf.get(1) == Some(&0);
        if self.awaiting_hello && !fixed && buf.len() >= 2 {
            return Err(ProtoError::Malformed(
                "first frame outside the fixed envelope",
            ));
        }
        let split = if fixed {
            split_fixed_frame(buf)?
        } else {
            hbc_wal::split_frame(buf, MAX_FRAME_LEN)?
        };
        let Some(split) = split else {
            return Ok(None);
        };
        let frame = Frame::decode_body(split.tag, split.body)?;
        match (&frame, fixed) {
            (Frame::Hello { .. }, false) => {
                return Err(ProtoError::Malformed("Hello outside the fixed envelope"));
            }
            (Frame::Hello { .. } | Frame::Busy { .. } | Frame::Deny { .. }, true) | (_, false) => {}
            (_, true) => {
                return Err(ProtoError::Malformed(
                    "only Hello, Busy and Deny travel in the fixed envelope",
                ));
            }
        }
        self.start += split.total;
        self.awaiting_hello = false;
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

    /// A frame with an arbitrary tag and body under a valid envelope: the
    /// fixed one for Hello, the compact one otherwise.
    fn framed(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        if tag == TAG_HELLO {
            bytes.extend_from_slice(&(body.len() as u32 + 1).to_le_bytes());
            bytes.push(tag);
            bytes.extend_from_slice(body);
            let crc = crc32(&bytes[4..]);
            bytes.extend_from_slice(&crc.to_le_bytes());
        } else {
            let start = hbc_wal::begin_frame(&mut bytes);
            bytes.push(tag);
            bytes.extend_from_slice(body);
            hbc_wal::seal_frame(&mut bytes, start);
        }
        bytes
    }

    fn decode_one(bytes: &[u8]) -> Result<Option<Frame>, ProtoError> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        decoder.next_frame()
    }

    #[test]
    fn unknown_tags_and_malformed_bodies_error_without_panicking() {
        let malformed = |what| Err(ProtoError::Malformed(what));
        assert_eq!(
            decode_one(&framed(0x7F, &[1, 2])),
            Err(ProtoError::UnknownTag(0x7F))
        );
        // Short body: Hello's fixed two-byte version is cut, a varint field
        // is missing or ends inside its continuation bytes.
        assert_eq!(
            decode_one(&framed(TAG_HELLO, &[4])),
            malformed("body shorter than its fields")
        );
        assert_eq!(
            decode_one(&framed(TAG_CLOSE_SESSION, &[])),
            malformed("body ends inside a varint")
        );
        assert_eq!(
            decode_one(&framed(TAG_CLOSE_SESSION, &[0x84])),
            malformed("body ends inside a varint")
        );
        // Overlong body: Hello with trailing junk.
        assert_eq!(
            decode_one(&framed(TAG_HELLO, &[4, 0, 9])),
            malformed("trailing bytes after body")
        );
        // Outcome flags beyond class and delineation.
        assert_eq!(
            decode_one(&framed(TAG_OUTCOMES, &[1, 10, 0b1000, 1])),
            malformed("outcome flags outside the protocol")
        );
    }

    #[test]
    fn typical_frames_are_compact() {
        // 36 samples of a slow wave: the first code as a two-byte varint,
        // then k = 2 and four bits per step of +3 (z = 6: one zero, the one
        // bit, the low bits 0b10) — half a byte per code after the first.
        let samples: Vec<i16> = (0..36).map(|i| 300 + i * 3).collect();
        let bytes = Frame::Samples {
            session: 5,
            seq: 1000,
            samples,
        }
        .encode();
        let stream = (4 + 35 * 4) / 8;
        assert_eq!(bytes.len(), 1 + 1 + 1 + 2 + (2 + stream) + 4);
        assert_eq!(bytes[7] & 0x0F, 2, "Rice parameter");
        // A flat stretch costs one bit per code (k = 0, z = 0).
        let flat = Frame::Samples {
            session: 5,
            seq: 1000,
            samples: vec![-7; 36],
        }
        .encode();
        assert_eq!(
            flat.len(),
            1 + 1 + 1 + 2 + (1 + (4 + 35usize).div_ceil(8)) + 4
        );
        let credit = Frame::Credit {
            session: 5,
            grant: 36,
            acked_seq: 1000,
        };
        assert_eq!(credit.encode().len(), 1 + 1 + 1 + 1 + 2 + 4);
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

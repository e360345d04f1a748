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
//! polynomial) trailer covers exactly those bytes, and both are
//! little-endian `u32`s. The envelope is the one the durable log uses,
//! implemented once in `hbc_wal`, so the decoder verifies length *and*
//! checksum before touching the payload.
//!
//! Inside the body every integer field is a **canonical unsigned LEB128
//! varint**: seven value bits per byte, low group first, the high bit set
//! on every byte but the last. The decoder rejects overlong encodings (a
//! multi-byte varint whose last byte is zero) and values past the field's
//! type, so every frame still has exactly one serialisation. The exception
//! is [`Frame::Hello`]'s version, a little-endian `u16` in every protocol
//! version: it is what tells versions apart, so a peer of any version must
//! read it the same way (and a v3 or v4 node is denied by name, not by a
//! parse error). Two fields are coded relative to their predecessor in the
//! frame:
//!
//! * `Samples` carries each ADC code as the zigzag-mapped difference `z`
//!   from the previous code. The first code is a varint (its difference
//!   from 0). The rest, if any, follow as one **Rice-coded bitstream**,
//!   least significant bit first:
//!
//!   ```text
//!   k (4 bits) │ per code: z >> k zero bits, a one bit, the low k bits of z │ zero padding (< 8 bits)
//!   ```
//!
//!   `k` is not free: it is the smallest `k ≤ 15` with `m · 2^(k+1) ≥ Σz`
//!   over the frame's `m` deltas, so the frame keeps one serialisation and
//!   averages at most ~19 bits per code. An ECG moves little between
//!   consecutive samples, so a code takes about 6.4 bits instead of v4's
//!   one-byte varint. There is no count field: the codes run to the end of
//!   the body. The decoder rejects any other `k`, non-zero padding or
//!   padding of a whole byte, a bitstream after a one-code body, a body
//!   that ends inside a code, a delta that leaves `i16` and more than
//!   [`MAX_SAMPLES_PER_FRAME`] codes.
//! * `Outcomes` carries each beat's `peak` as the wrapping difference from
//!   the previous beat's (the first from 0) — in temporal order, the RR
//!   interval — and packs `class | delineated << 2` into one byte.
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
pub const PROTOCOL_VERSION: u16 = 5;

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

/// Bits of an [`Frame::Outcomes`] beat's flags byte: the class code in the
/// low two, the delineation flag above them, the rest zero.
const OUTCOME_CLASS_MASK: u8 = 0b011;
const OUTCOME_DELINEATED: u8 = 0b100;

/// Appends `v` as an unsigned LEB128 varint (the shortest encoding).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Maps a signed difference onto the unsigned varints, small magnitudes of
/// either sign to small values: 0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
fn zigzag(d: i32) -> u32 {
    ((d << 1) ^ (d >> 31)) as u32
}

fn unzigzag(z: u32) -> i32 {
    (z >> 1) as i32 ^ -((z & 1) as i32)
}

/// Reads one canonical varint from the front of `bytes`, returning the value
/// and the bytes it took. Rejects truncation, more than ten bytes, bits past
/// 64 and overlong encodings (a multi-byte varint ending in a zero byte).
fn read_varint(bytes: &[u8]) -> Result<(u64, usize), ProtoError> {
    let mut value = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        let group = u64::from(b & 0x7F);
        if i == 9 && b > 1 {
            return Err(ProtoError::Malformed("varint past 64 bits"));
        }
        value |= group << (7 * i);
        if b < 0x80 {
            if b == 0 && i > 0 {
                return Err(ProtoError::Malformed("overlong varint"));
            }
            return Ok((value, i + 1));
        }
    }
    Err(ProtoError::Malformed("body ends inside a varint"))
}

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

/// Width of the Rice parameter at the head of a `Samples` bitstream.
const RICE_K_BITS: u32 = 4;

/// Largest Rice parameter (what [`RICE_K_BITS`] can hold).
const MAX_RICE_K: u32 = (1 << RICE_K_BITS) - 1;

/// Largest zigzag delta between two `i16` codes (`zigzag(65_535)`).
const MAX_SAMPLE_ZIGZAG: u32 = 2 * (u16::MAX as u32);

/// The one Rice parameter a `Samples` frame may use: the smallest `k ≤ 15`
/// with `m · 2^(k+1) ≥ Σz` over its `m ≥ 1` zigzag deltas. It keeps the
/// mean unary part at most two bits for `k < 15` (at most three at the
/// cap), so a frame averages at most `k + 3 ≤ 18` bits per delta, and at
/// worst ~19 bits per code.
fn rice_parameter(m: u64, sum: u64) -> u32 {
    (0..MAX_RICE_K)
        .find(|&k| m << (k + 1) >= sum)
        .unwrap_or(MAX_RICE_K)
}

/// Whether `k` is [`rice_parameter`]`(m, sum)`, in O(1): `k` covers the
/// sum (or is the cap) and `k − 1` does not (or `k` is 0).
fn is_rice_parameter(k: u32, m: u64, sum: u64) -> bool {
    let covers = |k: u32| m << (k + 1) >= sum;
    (k == MAX_RICE_K || covers(k)) && (k == 0 || !covers(k - 1))
}

/// LSB-first bit writer into a zero-filled buffer with 8 bytes of slack.
/// Every `put` stores the whole 64-bit accumulator and moves past the
/// bytes it completed, so writing never branches on a flush.
struct BitWriter<'a> {
    buf: &'a mut [u8],
    /// Index of the byte `acc` starts at.
    at: usize,
    /// The pending bits of that byte and the ones after it.
    acc: u64,
    /// How many bits of `acc` are pending, below 8 between calls.
    bits: u32,
}

impl BitWriter<'_> {
    /// Appends the low `len ≤ 56` bits of `value`.
    fn put(&mut self, value: u64, len: u32) {
        debug_assert!(len <= 56 && value >> len == 0);
        self.acc |= value << self.bits;
        self.bits += len;
        self.buf[self.at..self.at + 8].copy_from_slice(&self.acc.to_le_bytes());
        let done = self.bits / 8;
        self.at += done as usize;
        self.acc >>= 8 * done;
        self.bits %= 8;
    }

    /// Bytes written, the last one zero-padded.
    fn len(&self) -> usize {
        self.at + usize::from(self.bits > 0)
    }
}

/// Appends ADC codes as a `Samples` payload: the first code as a zigzag
/// varint from 0, then — if more codes follow — a Rice-coded bitstream of
/// the remaining codes' zigzag deltas (see the module docs).
fn encode_samples(samples: &[i16], out: &mut Vec<u8>) {
    let Some((&first, rest)) = samples.split_first() else {
        return;
    };
    put_varint(out, u64::from(zigzag(i32::from(first))));
    if rest.is_empty() {
        return;
    }
    let deltas = || {
        samples
            .windows(2)
            .map(|pair| zigzag(i32::from(pair[1]) - i32::from(pair[0])))
    };
    let m = rest.len() as u64;
    let k = rice_parameter(m, deltas().map(u64::from).sum());
    // Σ(z >> k) ≤ 2m below the cap and ≤ 3m at it (every z < 2^17), so the
    // stream holds at most 4 + m(k + 4) bits.
    let start = out.len();
    let most = (u64::from(RICE_K_BITS) + m * u64::from(k + 4)).div_ceil(8) as usize;
    out.resize(start + most + 8, 0);
    let mut bits = BitWriter {
        buf: &mut out[start..],
        at: 0,
        acc: 0,
        bits: 0,
    };
    bits.put(u64::from(k), RICE_K_BITS);
    for z in deltas() {
        let mut zeros = z >> k;
        // The terminating one bit and the low k bits of z.
        let tail = u64::from(1 | (z & ((1 << k) - 1)) << 1);
        while zeros + 1 + k > 56 {
            bits.put(0, 32);
            zeros -= 32;
        }
        bits.put(tail << zeros, zeros + 1 + k);
    }
    let len = bits.len();
    out.truncate(start + len);
}

/// The eight bytes at `at` as a little-endian `u64`, zero-extended past
/// the end of `bytes`.
#[inline(always)]
fn load_le(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
        None => bytes
            .get(at..)
            .unwrap_or(&[])
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b)),
    }
}

/// Decodes a `Samples` payload (see [`encode_samples`]).
///
/// Every code takes at least `k + 1` bits, so the output is reserved once
/// for the most codes the body can hold — capped at
/// [`MAX_SAMPLES_PER_FRAME`], so a hostile body allocates no more than a
/// legal frame. (Reserved, not zero-filled: `calloc` skips the allocator's
/// per-thread cache and cost ~0.2 µs per small frame.) The bitstream is
/// read by [`decode_bitstream`], compiled once per Rice parameter so that
/// its shifts and mask are constants.
fn decode_samples(bytes: &[u8]) -> Result<Vec<i16>, ProtoError> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut c = Cursor::new(bytes);
    let first = i16::try_from(unzigzag(c.u32()?))
        .map_err(|_| ProtoError::Malformed("sample delta leaves the i16 range"))?;
    let stream = c.rest();
    if stream.is_empty() {
        return Ok(vec![first]);
    }
    let k = u32::from(stream[0]) & MAX_RICE_K;
    let most = (stream.len() * 8 - RICE_K_BITS as usize) / (k as usize + 1) + 1;
    let mut out = Vec::with_capacity(most.min(MAX_SAMPLES_PER_FRAME));
    out.push(first);
    let decode = match k {
        0 => decode_bitstream::<0>,
        1 => decode_bitstream::<1>,
        2 => decode_bitstream::<2>,
        3 => decode_bitstream::<3>,
        4 => decode_bitstream::<4>,
        5 => decode_bitstream::<5>,
        6 => decode_bitstream::<6>,
        7 => decode_bitstream::<7>,
        8 => decode_bitstream::<8>,
        9 => decode_bitstream::<9>,
        10 => decode_bitstream::<10>,
        11 => decode_bitstream::<11>,
        12 => decode_bitstream::<12>,
        13 => decode_bitstream::<13>,
        14 => decode_bitstream::<14>,
        _ => decode_bitstream::<15>,
    };
    let sum = decode(stream, &mut out)?;
    let m = out.len() as u64 - 1;
    if m == 0 {
        return Err(ProtoError::Malformed("bitstream after a one-code body"));
    }
    if !is_rice_parameter(k, m, sum) {
        return Err(ProtoError::Malformed("Rice parameter is not the frame's"));
    }
    Ok(out)
}

/// Codes in one optimistic batch of [`decode_bitstream`]: at the rule's
/// bound of two unary bits per code on average, a batch still fits the
/// shortest window (57 bits).
const fn batch_len(k: u32) -> usize {
    57 / (k as usize + 3)
}

/// The largest batch, at `k = 0`.
const MAX_BATCH: usize = batch_len(0);

/// Decodes the Rice codes (parameter `K`) of `stream` after its 4-bit
/// header, appending to `out` from the first code already in it, and
/// returns Σz.
///
/// The stream is read a 63-bit little-endian window at a time.
/// `trailing_zeros` finds each code's unary part, one shift by it brings
/// the code's one bit to bit 0, and shifts by constants take the low bits
/// and move to the next code. Each window first decodes a fixed batch of
/// [`batch_len`] codes without checking them one by one, and keeps the
/// batch if it fits the window and cannot leave `i16`: the batch's loop
/// has no branch to mispredict. Otherwise the window is decoded code by
/// code. Only a code longer than a window (a unary part past ~40 bits)
/// takes the slow path.
fn decode_bitstream<const K: u32>(stream: &[u8], out: &mut Vec<i16>) -> Result<u64, ProtoError> {
    let low_mask = (1u64 << K) - 1;
    let total = stream.len() * 8;
    let mut prev = i32::from(out[0]);
    // Σz < 2^32: at most 16 384 deltas, each below 2^17 or the last.
    let mut sum = 0u32;
    let mut pos = RICE_K_BITS as usize;
    while pos < total {
        let rem = total - pos;
        let shift = pos % 8;
        // Bits of the window that belong to the body (the rest read zero),
        // at most 63 so that no shift of a whole code reaches 64.
        let full = (63 - shift).min(rem) as u32;
        let window = load_le(stream, pos / 8) >> shift;
        // The batch, unless the body ends inside the window. A code that
        // does not fit the window makes `used` exceed `full`, and so does
        // every code after it, whose shifts may wrap: the batch is then
        // dropped. Its deltas stay below 2^21, so nothing overflows.
        if rem >= 64 {
            let mut w = window;
            let mut used = 0;
            let (mut code, mut batch_sum) = (prev, sum);
            let mut batch = [0i16; MAX_BATCH];
            for slot in &mut batch[..batch_len(K)] {
                let t = w.trailing_zeros();
                // The code's one bit at bit 0 (all zero when t = 64).
                let w1 = w.wrapping_shr(t);
                let z = (t << K) | ((w1 >> 1) & low_mask) as u32;
                w = w1 >> (K + 1);
                used += t + 1 + K;
                code += unzigzag(z);
                batch_sum += z;
                *slot = code as i16;
            }
            // A step moves the code by at most (z + 1) / 2, so no code of
            // the batch is further than `reach` from `prev`. A batch that
            // could leave `i16` is decoded again code by code, which finds
            // the step that does.
            let reach = ((batch_sum - sum) as usize + batch_len(K)) / 2;
            if used <= full && prev.unsigned_abs() as usize + reach <= i16::MAX as usize {
                if out.len() + batch_len(K) > MAX_SAMPLES_PER_FRAME {
                    return Err(ProtoError::Malformed(
                        "more than MAX_SAMPLES_PER_FRAME samples",
                    ));
                }
                out.extend_from_slice(&batch[..batch_len(K)]);
                (prev, sum) = (code, batch_sum);
                pos += used as usize;
                continue;
            }
        }
        // Code by code.
        let mut w = window;
        let mut avail = full;
        loop {
            let t = w.trailing_zeros();
            let code_len = t + 1 + K;
            if code_len > avail {
                break;
            }
            let w1 = w >> t;
            push_code(
                out,
                &mut prev,
                &mut sum,
                (t << K) | ((w1 >> 1) & low_mask) as u32,
            )?;
            w = w1 >> (K + 1);
            avail -= code_len;
        }
        pos += (full - avail) as usize;
        if avail < full {
            continue;
        }
        // No whole code fits in a window starting at `pos`.
        if full as usize == rem {
            end_of_bitstream(rem, w)?;
            break;
        }
        let (z, next) = long_code(stream, pos, K)?;
        push_code(out, &mut prev, &mut sum, z)?;
        pos = next;
    }
    Ok(u64::from(sum))
}

/// Appends the code the zigzag delta `z` steps to from `prev` (an `i32`,
/// so that a step past `i16` is seen), adding `z` to `sum`. Pushing never
/// reallocates: `out` is reserved for the most codes the body can hold.
#[inline(always)]
fn push_code(out: &mut Vec<i16>, prev: &mut i32, sum: &mut u32, z: u32) -> Result<(), ProtoError> {
    *prev += unzigzag(z);
    *sum += z;
    let code = i16::try_from(*prev)
        .map_err(|_| ProtoError::Malformed("sample delta leaves the i16 range"))?;
    if out.len() == MAX_SAMPLES_PER_FRAME {
        return Err(ProtoError::Malformed(
            "more than MAX_SAMPLES_PER_FRAME samples",
        ));
    }
    out.push(code);
    Ok(())
}

/// Why a bitstream stopped short of a whole code `rem` bits before its end,
/// given the (zero-extended) window `w` at that point: a short all-zero
/// tail is the padding and ends the body, anything else is malformed.
fn end_of_bitstream(rem: usize, w: u64) -> Result<(), ProtoError> {
    match (rem < 8, w == 0) {
        (true, true) => Ok(()),
        (true, false) => Err(ProtoError::Malformed("non-zero padding")),
        (false, true) => Err(ProtoError::Malformed("padding of 8 bits or more")),
        (false, false) => Err(ProtoError::Malformed("body ends inside a code")),
    }
}

/// The slow path of [`decode_bitstream`]: the code at bit `pos`, longer
/// than a window and so more than 8 bits from the end, counted word by
/// word. Returns its zigzag delta (clamped just past the largest legal
/// one) and the bit after it.
#[cold]
fn long_code(stream: &[u8], pos: usize, k: u32) -> Result<(u32, usize), ProtoError> {
    let total = stream.len() * 8;
    let mut one = pos;
    loop {
        let shift = one % 8;
        let a = (64 - shift).min(total - one);
        let t = (load_le(stream, one / 8) >> shift).trailing_zeros() as usize;
        if t < a {
            one += t;
            break;
        }
        one += a;
        if one == total {
            return Err(ProtoError::Malformed("padding of 8 bits or more"));
        }
    }
    let next = one + 1 + k as usize;
    if next > total {
        return Err(ProtoError::Malformed("body ends inside a code"));
    }
    let low = (load_le(stream, (one + 1) / 8) >> ((one + 1) % 8)) & ((1 << k) - 1);
    let z = ((one - pos) as u64) << k | low;
    Ok((z.min(u64::from(MAX_SAMPLE_ZIGZAG) + 1) as u32, next))
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
    /// trailer) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = hbc_wal::begin_frame(out);
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
                samples: decode_samples(c.rest())?,
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

    /// A frame with an arbitrary tag and body under a valid envelope.
    fn framed(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let start = hbc_wal::begin_frame(&mut bytes);
        bytes.push(tag);
        bytes.extend_from_slice(body);
        hbc_wal::seal_frame(&mut bytes, start);
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
        assert_eq!(bytes.len(), 4 + 1 + 1 + 2 + (2 + stream) + 4);
        assert_eq!(bytes[10] & 0x0F, 2, "Rice parameter");
        // A flat stretch costs one bit per code (k = 0, z = 0).
        let flat = Frame::Samples {
            session: 5,
            seq: 1000,
            samples: vec![-7; 36],
        }
        .encode();
        assert_eq!(
            flat.len(),
            4 + 1 + 1 + 2 + (1 + (4 + 35usize).div_ceil(8)) + 4
        );
        let credit = Frame::Credit {
            session: 5,
            grant: 36,
            acked_seq: 1000,
        };
        assert_eq!(credit.encode().len(), 4 + 1 + 1 + 1 + 2 + 4);
    }

    #[test]
    fn varints_are_shortest_and_zigzag_is_a_bijection() {
        for (v, len) in [(0u64, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), len, "{v}");
            assert_eq!(read_varint(&out), Ok((v, len)));
        }
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
        assert_eq!(read_varint(&out), Ok((u64::MAX, 10)));
        out[9] = 2;
        assert_eq!(
            read_varint(&out),
            Err(ProtoError::Malformed("varint past 64 bits"))
        );
        for d in [0, -1, 1, -2, 2, i32::MIN, i32::MAX, -65_535, 65_535] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        assert_eq!((zigzag(0), zigzag(-1), zigzag(1)), (0, 1, 2));
    }

    #[test]
    fn the_o1_rice_check_accepts_exactly_the_rule_parameter() {
        // Known values: flat frames take k = 0, a mean z of 6 takes k = 2,
        // full-scale deltas hit the cap.
        assert_eq!(rice_parameter(35, 0), 0);
        assert_eq!(rice_parameter(35, 70), 0);
        assert_eq!(rice_parameter(35, 71), 1);
        assert_eq!(rice_parameter(35, 210), 2);
        assert_eq!(rice_parameter(1, u64::from(MAX_SAMPLE_ZIGZAG)), MAX_RICE_K);
        let check = |m: u64, sum: u64| {
            let rule = rice_parameter(m, sum);
            for k in 0..=MAX_RICE_K {
                assert_eq!(
                    is_rice_parameter(k, m, sum),
                    k == rule,
                    "k {k} m {m} sum {sum}"
                );
            }
        };
        for m in 1..=64u64 {
            for sum in (0..=8 * m).chain([m << 15, (m << 16) - 1, m << 16, (m << 16) + 1]) {
                check(m, sum);
            }
        }
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let m = 1 + (state >> 50) % MAX_SAMPLES_PER_FRAME as u64;
            check(m, (state >> 7) % (m * u64::from(MAX_SAMPLE_ZIGZAG) + 1));
        }
    }

    #[test]
    fn samples_codec_round_trips_across_window_boundaries() {
        // Every length up to a few windows, with deltas from flat to
        // full-scale, so codes start at every bit offset of a window and
        // straddle window ends.
        let mut state = 0x5EEDu64;
        for scale in [0u64, 1, 7, 100, 4095, 65_535] {
            for n in 0..=150 {
                let mut code = 0i32;
                let samples: Vec<i16> = (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        let d = ((state >> 33) % (2 * scale + 1)) as i32 - scale as i32;
                        code = (code + d).clamp(i16::MIN.into(), i16::MAX.into());
                        code as i16
                    })
                    .collect();
                let mut body = Vec::new();
                encode_samples(&samples, &mut body);
                assert_eq!(decode_samples(&body), Ok(samples), "scale {scale} n {n}");
            }
        }
        // A unary part longer than a window and than 64 bits: k = 0 over
        // 99 zero deltas and one of z = 150.
        let mut samples = vec![0i16; 100];
        samples.push(75);
        let mut body = Vec::new();
        encode_samples(&samples, &mut body);
        assert_eq!(body[1] & 0x0F, 0);
        assert_eq!(decode_samples(&body), Ok(samples));
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

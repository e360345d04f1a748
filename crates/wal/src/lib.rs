//! Append-only segment log for the ingestion gateway, and the envelope and
//! sample codec it shares with the wire protocol.
//!
//! Every `Samples` chunk the gateway accepts is appended here *before* it is
//! fed to the `StreamHub`, so a process crash loses nothing that was
//! acknowledged on the wire. The log is the durability substrate behind three
//! gateway features: crash-safe restart (rebuild detached-session state and
//! let nodes re-attach via the resume protocol), deterministic replay
//! (re-score logged streams through any fitted pipeline, bit-identical to
//! live ingestion thanks to the hub's chunk invariance), and post-hoc audit.
//!
//! # On-disk format (log format 2)
//!
//! The log is a directory of fixed-capacity segment files named
//! `<index>.wal` with a zero-padded 16-digit decimal index
//! (`0000000000000000.wal`, `0000000000000001.wal`, …). Segments are written
//! strictly in index order and never modified once rotated away from; only
//! the highest-index segment is ever open for append.
//!
//! Each segment starts with an 8-byte **header**: the magic `HBCL`, then
//! the format version ([`LOG_FORMAT_VERSION`]) as a little-endian `u16` and
//! its bitwise complement. Records follow back to back, each one **frame
//! envelope**: the length of tag + body as a canonical varint (one byte
//! below 128, at most three up to [`MAX_RECORD_LEN`]), the tag byte, the
//! body, and a little-endian CRC-32 trailer (IEEE 802.3 reflected
//! polynomial — the ZIP/PNG CRC) computed over tag + body. This crate owns
//! the envelope ([`crc32`], [`begin_frame`], [`seal_frame`],
//! [`split_frame`]) and the varint and sample codec ([`codec`]); the wire
//! protocol (`hbc_net::proto`) frames and codes its messages with the same
//! functions, so the socket and the log detect torn and corrupt data in
//! exactly one way and carry samples in exactly one form.
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | `0x01` | [`WalRecord::SessionOpen`] | token `u64`, wire id `u32`, patient id `u32`, calibration length `u32`, sampling rate `u32` (mHz), all little-endian |
//! | `0x02` | [`WalRecord::Samples`] | token `u64` little-endian, seq varint, the codes as a sample payload ([`codec::encode_samples`]) |
//! | `0x03` | [`WalRecord::SessionClose`] | token `u64` little-endian |
//!
//! Samples are logged as the 12-bit ADC codes from the wire, not as
//! floating-point millivolts: codes are the canonical representation
//! (dequantisation is deterministic). A 36-sample chunk of ECG takes about
//! 45 bytes, envelope included.
//!
//! A log in another format — the header-less segments of format 1, a
//! header naming another version, or a file that is no log — is refused:
//! [`Wal::open`], [`scan`] and their streaming forms return
//! [`WalError::UnsupportedFormat`] before reading a record and change no
//! file. Treating it as corruption would truncate it.
//!
//! # Group commit
//!
//! [`Wal::stage`] encodes a record into the pending group; [`Wal::commit`]
//! writes the group with one `write(2)` (rotating first if the group would
//! overflow the active segment, so a segment exceeds its capacity by at
//! most one group). [`Wal::append`] is one record staged and committed. A
//! caller that must log before it acts — the gateway logs before it feeds
//! the hub and before it acknowledges on the wire — commits before acting;
//! staged records that were never committed are not in the log.
//!
//! # Durability policy
//!
//! [`SyncPolicy`] controls when `fsync` runs: [`SyncPolicy::Always`] after
//! every commit, [`SyncPolicy::OnRotation`] (the default) when a segment
//! fills and is sealed, [`SyncPolicy::Never`] for benchmarks and tests.
//! Directory metadata is synced after every segment creation so a crash
//! cannot orphan a sealed segment.
//!
//! # Recovery
//!
//! [`Wal::open`] checks every segment's header, then scans the segments in
//! index order and validates every record. The scan *never panics* on
//! corrupt input — a torn tail (partial write from a crash), a bit flip, or
//! an impossible length prefix all stop the scan at the last valid record:
//! the active segment is truncated back to the end of the valid prefix and
//! any later segments (which can only hold data written *after* the
//! corruption point) are deleted. What recovery returns is therefore always
//! a valid prefix of what was appended, and the re-opened log continues
//! appending exactly at that point. A header is corrupt, not foreign, when
//! it is a strict prefix of this format's header (a crash between creating
//! a segment and writing its header; an empty segment reads as empty) or
//! one bit away from it; two headers of different versions differ in at
//! least two bits.
//!
//! The scan streams: each segment is read through one reused 64 KiB buffer
//! (grown only to hold a single record larger than that), and each record
//! is decoded as soon as its bytes are in. [`Wal::open_with`] and
//! [`scan_with`] hand every record to a visitor, so a caller that folds the
//! log as it is read holds what it keeps, not the log; [`Wal::open`] and
//! the read-only [`scan`] collect the records into [`Recovery::records`].
//! Both report the same statistics for the same bytes, including the later
//! segments past a corruption point, which are sized from their metadata
//! and never read.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hbc_obs::{Counter, Histogram};

pub mod codec;

use codec::{decode_samples, encode_samples, put_varint, read_varint};

/// Upper bound on `len` (tag + body) of a single record. Mirrors the wire
/// protocol's `MAX_FRAME_LEN`; anything larger in a length prefix is treated
/// as corruption by the recovery scan.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Largest encoded record: [`MAX_RECORD_LEN`] plus a three-byte length
/// prefix and the CRC trailer.
const MAX_ENCODED_RECORD: usize = MAX_RECORD_LEN + 3 + 4;

/// Default capacity of one segment file (8 MiB). A group that would
/// overflow the active segment triggers rotation, so segments may exceed
/// this by at most one group.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// The log format this build writes and reads. Format 1 had no segment
/// header and stored `Samples` codes as raw `i16`s behind a `u32` count;
/// format 2 added the header, the varint envelope and the shared sample
/// codec.
pub const LOG_FORMAT_VERSION: u16 = 2;

/// Size of the header that starts every segment.
pub const SEGMENT_HEADER_LEN: u64 = 8;

const SEGMENT_MAGIC: [u8; 4] = *b"HBCL";

/// The header of a segment in log format `version`.
const fn segment_header(version: u16) -> [u8; 8] {
    let v = version.to_le_bytes();
    let c = (!version).to_le_bytes();
    let m = SEGMENT_MAGIC;
    [m[0], m[1], m[2], m[3], v[0], v[1], c[0], c[1]]
}

const HEADER: [u8; 8] = segment_header(LOG_FORMAT_VERSION);

const TAG_SESSION_OPEN: u8 = 0x01;
const TAG_SAMPLES: u8 = 0x02;
const TAG_SESSION_CLOSE: u8 = 0x03;

const SEGMENT_EXT: &str = "wal";

// -------------------------------------------------------------------------
// Frame envelope: `len varint | tag u8 | body | crc32(tag + body) u32`
// -------------------------------------------------------------------------

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes` — the envelope
/// trailer of log records and wire frames alike.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A length prefix or CRC trailer that does not check out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The length prefix is zero or exceeds the caller's maximum.
    BadLength {
        /// The offending length; for a prefix rejected before it ends, the
        /// least length it can still spell.
        len: usize,
    },
    /// The length prefix spells its value in more bytes than it needs.
    OverlongLength,
    /// The CRC-32 trailer does not match tag + body.
    BadCrc {
        /// Checksum computed over the received tag + body.
        computed: u32,
        /// Checksum found in the trailer.
        found: u32,
    },
}

/// Starts a frame at the end of `out` by reserving one byte for its length
/// prefix, and returns the frame's start offset. Push the tag and the body
/// next, then call [`seal_frame`].
#[inline]
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.push(0);
    start
}

/// Seals the frame [`begin_frame`] started at `start`: writes the length
/// prefix (moving tag and body up when it needs more than one byte, for
/// frames of 128 bytes and more) and appends the CRC-32 of tag + body.
/// Returns the frame's total encoded length.
#[inline]
pub fn seal_frame(out: &mut Vec<u8>, start: usize) -> usize {
    let len = out.len() - start - 1;
    let mut prefix = [0u8; 10];
    let mut n = 0;
    let mut v = len;
    while v >= 0x80 {
        prefix[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    prefix[n] = v as u8;
    n += 1;
    if n > 1 {
        let end = out.len();
        out.resize(end + n - 1, 0);
        out.copy_within(start + 1..end, start + n);
    }
    out[start..start + n].copy_from_slice(&prefix[..n]);
    let crc = crc32(&out[start + n..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.len() - start
}

/// One frame checked by [`split_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitFrame<'a> {
    /// The tag byte.
    pub tag: u8,
    /// The body after the tag.
    pub body: &'a [u8],
    /// The frame's total encoded length, prefix and trailer included.
    pub total: usize,
}

/// Reads a frame's length prefix from the front of `buf`: `Ok(None)` while
/// the prefix is incomplete, else the length and the prefix's size.
///
/// # Errors
///
/// As [`split_frame`], as soon as the bytes at hand decide it.
#[inline]
fn frame_length(
    buf: &[u8],
    max_len: usize,
) -> std::result::Result<Option<(usize, usize)>, EnvelopeError> {
    let mut len = 0usize;
    for (i, &b) in buf.iter().enumerate() {
        let shift = 7 * i as u32;
        len |= usize::from(b & 0x7F).checked_shl(shift).unwrap_or(0);
        if b < 0x80 {
            if b == 0 && i > 0 {
                return Err(EnvelopeError::OverlongLength);
            }
            if len == 0 || len > max_len {
                return Err(EnvelopeError::BadLength { len });
            }
            return Ok(Some((len, i + 1)));
        }
        // The prefix goes on, and its last byte is not zero: it spells at
        // least `len + 2^(7(i+1))`.
        let least = len.saturating_add(1usize.checked_shl(shift + 7).unwrap_or(usize::MAX));
        if least > max_len {
            return Err(EnvelopeError::BadLength { len: least });
        }
    }
    Ok(None)
}

/// Splits the frame at the start of `buf`: checks the length prefix against
/// `max_len` and the CRC trailer. `Ok(None)` means `buf` holds only a
/// prefix of the frame.
///
/// # Errors
///
/// [`EnvelopeError::BadLength`] for a zero length or one past `max_len`,
/// and [`EnvelopeError::OverlongLength`] for a prefix longer than its value
/// needs — each reported as soon as the prefix bytes decide it, before the
/// rest of the frame arrives — and [`EnvelopeError::BadCrc`] when the
/// trailer does not match.
#[inline]
pub fn split_frame(
    buf: &[u8],
    max_len: usize,
) -> std::result::Result<Option<SplitFrame<'_>>, EnvelopeError> {
    let Some((len, prefix)) = frame_length(buf, max_len)? else {
        return Ok(None);
    };
    let total = prefix + len + 4;
    let Some(frame) = buf.get(prefix..total) else {
        return Ok(None);
    };
    let (payload, trailer) = frame.split_at(len);
    let found = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(payload);
    if computed != found {
        return Err(EnvelopeError::BadCrc { computed, found });
    }
    Ok(Some(SplitFrame {
        tag: payload[0],
        body: &payload[1..],
        total,
    }))
}

// -------------------------------------------------------------------------
// Records
// -------------------------------------------------------------------------

/// One durable log record. The session key is the resume token (`u64`): it
/// is unique across the gateway's whole lifetime, unlike wire session ids,
/// which restart from 1 on every process start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A session was opened: identity and calibration contract.
    SessionOpen {
        /// Resume token — the durable session key.
        token: u64,
        /// Wire session id assigned by the gateway that logged the record.
        wire_id: u32,
        /// Patient identifier declared by the node.
        patient_id: u32,
        /// Number of leading samples consumed by threshold calibration.
        calib_len: u32,
        /// Sampling rate in millihertz, as declared on the wire.
        fs_millihertz: u32,
    },
    /// One accepted `Samples` chunk, in wire ADC codes.
    Samples {
        /// Resume token of the owning session.
        token: u64,
        /// Wire sequence number of the chunk.
        seq: u32,
        /// Raw 12-bit ADC codes exactly as accepted from the wire.
        codes: Vec<i16>,
    },
    /// The session was closed (report delivered or retention expired);
    /// recovery skips sessions that carry one of these.
    SessionClose {
        /// Resume token of the closed session.
        token: u64,
    },
}

impl WalRecord {
    /// Resume token of the session this record belongs to.
    pub fn token(&self) -> u64 {
        match *self {
            WalRecord::SessionOpen { token, .. }
            | WalRecord::Samples { token, .. }
            | WalRecord::SessionClose { token } => token,
        }
    }

    /// Appends the record's serialisation (length prefix, tag, body, CRC
    /// trailer) to `out` and returns the number of bytes written.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = begin_frame(out);
        match *self {
            WalRecord::SessionOpen {
                token,
                wire_id,
                patient_id,
                calib_len,
                fs_millihertz,
            } => {
                out.push(TAG_SESSION_OPEN);
                out.extend_from_slice(&token.to_le_bytes());
                out.extend_from_slice(&wire_id.to_le_bytes());
                out.extend_from_slice(&patient_id.to_le_bytes());
                out.extend_from_slice(&calib_len.to_le_bytes());
                out.extend_from_slice(&fs_millihertz.to_le_bytes());
            }
            WalRecord::Samples {
                token,
                seq,
                ref codes,
            } => {
                out.push(TAG_SAMPLES);
                out.extend_from_slice(&token.to_le_bytes());
                put_varint(out, u64::from(seq));
                encode_samples(codes, out);
            }
            WalRecord::SessionClose { token } => {
                out.push(TAG_SESSION_CLOSE);
                out.extend_from_slice(&token.to_le_bytes());
            }
        }
        seal_frame(out, start)
    }

    /// Serialises the record into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Bounds-checked little-endian reader over a record body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn varint_u32(&mut self) -> Option<u32> {
        let (value, n) = read_varint(&self.buf[self.at..]).ok()?;
        self.at += n;
        u32::try_from(value).ok()
    }

    /// The unread rest of the body; the cursor ends there.
    fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        rest
    }

    fn exhausted(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Decodes one record body (`tag` byte already split off). `None` means the
/// body is malformed — recovery treats that exactly like a CRC failure.
fn decode_body(tag: u8, body: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(body);
    let rec = match tag {
        TAG_SESSION_OPEN => WalRecord::SessionOpen {
            token: c.u64()?,
            wire_id: c.u32()?,
            patient_id: c.u32()?,
            calib_len: c.u32()?,
            fs_millihertz: c.u32()?,
        },
        TAG_SAMPLES => WalRecord::Samples {
            token: c.u64()?,
            seq: c.varint_u32()?,
            // The body bounds the codes: every code takes at least a bit.
            codes: decode_samples(c.rest(), usize::MAX).ok()?,
        },
        TAG_SESSION_CLOSE => WalRecord::SessionClose { token: c.u64()? },
        _ => return None,
    };
    if c.exhausted() {
        Some(rec)
    } else {
        None
    }
}

// -------------------------------------------------------------------------
// Configuration
// -------------------------------------------------------------------------

/// When the log issues `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync — throughput benchmarks and tests that only need the
    /// crash model of a clean process exit.
    Never,
    /// Fsync when a full segment is sealed (and on [`Wal::sync`]). Bounds
    /// loss after an OS crash to the active segment; a *process* crash
    /// loses nothing since the data is already in the page cache.
    #[default]
    OnRotation,
    /// Fsync after every append.
    Always,
}

/// Log configuration: directory, segment capacity, sync policy.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files; created if missing.
    pub dir: PathBuf,
    /// Capacity at which the active segment is sealed and a new one opened.
    pub segment_bytes: u64,
    /// `fsync` policy.
    pub sync: SyncPolicy,
}

impl WalConfig {
    /// Default configuration rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            sync: SyncPolicy::default(),
        }
    }

    /// Overrides the segment capacity (clamped to ≥ 1 so rotation always
    /// makes progress).
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Overrides the sync policy.
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }
}

// -------------------------------------------------------------------------
// Recovery
// -------------------------------------------------------------------------

/// What a recovery scan ([`Wal::open`], [`scan`] and their streaming
/// forms) found on disk: the valid record prefix plus scan statistics.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every valid record, in append order across all segments. Empty from
    /// [`Wal::open_with`] and [`scan_with`], which hand the records to
    /// their visitor instead.
    pub records: Vec<WalRecord>,
    /// Number of segment files scanned.
    pub segments_scanned: usize,
    /// Bytes discarded from the corruption point onward (torn tail plus any
    /// later segments). A read-only [`scan`] counts the same bytes a
    /// truncating [`Wal::open`] removes.
    pub bytes_truncated: u64,
    /// Whether the scan hit a torn tail / corrupt record and truncated.
    pub truncated: bool,
}

/// Errors surfaced by the log. Corrupt data is *not* an error — the
/// recovery scan absorbs it — so this is I/O, a log in another format and
/// configuration misuse only.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A single record larger than [`MAX_RECORD_LEN`] was submitted.
    RecordTooLarge(usize),
    /// A segment is not in this build's log format: it has no segment
    /// header (a format-1 log, or a file that is no log) or its header
    /// names another format version. The log was left as it was.
    UnsupportedFormat {
        /// The first segment found in another format.
        segment: PathBuf,
        /// The format version its header names; `None` without a header.
        version: Option<u16>,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::RecordTooLarge(n) => {
                write!(f, "wal record of {n} bytes exceeds {MAX_RECORD_LEN}")
            }
            WalError::UnsupportedFormat {
                segment,
                version: Some(v),
            } => write!(
                f,
                "wal segment {} is in log format {v}; this build reads format {LOG_FORMAT_VERSION}",
                segment.display()
            ),
            WalError::UnsupportedFormat {
                segment,
                version: None,
            } => write!(
                f,
                "wal segment {} has no log header (a format-1 log or not a log); this build reads format {LOG_FORMAT_VERSION}",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::RecordTooLarge(_) | WalError::UnsupportedFormat { .. } => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Crate result type.
pub type Result<T> = std::result::Result<T, WalError>;

// -------------------------------------------------------------------------
// The log
// -------------------------------------------------------------------------

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{index:016}.{SEGMENT_EXT}"))
}

/// Lists the segment indices present in `dir`, sorted ascending. Files that
/// do not match the `<16-digit index>.wal` pattern are ignored.
fn list_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_suffix(&format!(".{SEGMENT_EXT}")) else {
            continue;
        };
        if stem.len() == 16 {
            if let Ok(index) = stem.parse::<u64>() {
                out.push(index);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Checks the header of the segment at `path`: `Ok(true)` for this
/// format's header, `Ok(false)` for one that holds no valid record — empty,
/// a strict prefix of the header (torn while it was written) or one bit
/// away from it (corrupt).
///
/// # Errors
///
/// [`WalError::UnsupportedFormat`] for a header of another version or no
/// header at all.
fn check_header(path: &Path) -> Result<bool> {
    let mut head = Vec::with_capacity(HEADER.len());
    File::open(path)?
        .take(SEGMENT_HEADER_LEN)
        .read_to_end(&mut head)?;
    if head == HEADER {
        return Ok(true);
    }
    let foreign = |version| WalError::UnsupportedFormat {
        segment: path.to_path_buf(),
        version,
    };
    let Ok(head) = <[u8; 8]>::try_from(head.as_slice()) else {
        return if HEADER.starts_with(&head) {
            Ok(false)
        } else {
            Err(foreign(None))
        };
    };
    let version = u16::from_le_bytes([head[4], head[5]]);
    if head[..4] == SEGMENT_MAGIC && head == segment_header(version) {
        return Err(foreign(Some(version)));
    }
    let flipped: u32 = head
        .iter()
        .zip(HEADER)
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    if flipped == 1 {
        Ok(false)
    } else {
        Err(foreign(None))
    }
}

/// Initial size of the recovery scan's read buffer. It grows only to hold a
/// single record larger than this (at most [`MAX_RECORD_LEN`] + 7 bytes).
const SCAN_BUF_BYTES: usize = 64 << 10;

/// Checks the header of every segment `indices` of `dir`, then reads them in
/// order through one reused buffer, handing every valid record to `visit`
/// as soon as it is decoded. A torn tail or corrupt record stops the scan:
/// everything from there on is untrusted and counted in
/// `recovery.bytes_truncated` — the rest of that segment and every later
/// segment, sized from metadata without reading it. Returns where it
/// stopped — the position in `indices` and the valid length of that
/// segment (0 when its header is torn or corrupt) — or `None` for a clean
/// log.
///
/// # Errors
///
/// [`WalError::UnsupportedFormat`] before any record is read when a segment
/// is in another format; I/O errors.
fn scan_segments(
    dir: &Path,
    indices: &[u64],
    recovery: &mut Recovery,
    visit: &mut impl FnMut(WalRecord),
) -> Result<Option<(usize, u64)>> {
    let headed = indices
        .iter()
        .map(|&index| check_header(&segment_path(dir, index)))
        .collect::<Result<Vec<bool>>>()?;
    let mut buf = vec![0u8; SCAN_BUF_BYTES];
    for (pos, &index) in indices.iter().enumerate() {
        recovery.segments_scanned += 1;
        let mut file = File::open(segment_path(dir, index))?;
        // Scan the segment as long as it is now: a live writer may append
        // behind a read-only scan.
        let len = file.metadata()?.len();
        // `buf[start..end]` holds read bytes not yet decoded; `offset` is
        // the segment offset of `buf[start]`.
        let (mut start, mut end, mut offset) = (0usize, 0usize, 0u64);
        if headed[pos] {
            file.seek(SeekFrom::Start(SEGMENT_HEADER_LEN))?;
            offset = SEGMENT_HEADER_LEN;
        }
        let mut file = file.take(len - offset);
        let mut eof = !headed[pos];
        loop {
            match split_frame(&buf[start..end], MAX_RECORD_LEN) {
                Ok(Some(frame)) => {
                    let Some(rec) = decode_body(frame.tag, frame.body) else {
                        break;
                    };
                    start += frame.total;
                    offset += frame.total as u64;
                    visit(rec);
                }
                Ok(None) if !eof => {
                    buf.copy_within(start..end, 0);
                    end -= start;
                    start = 0;
                    // A complete length prefix names the record's size,
                    // already checked against `MAX_RECORD_LEN`.
                    if let Ok(Some((len, prefix))) = frame_length(&buf[..end], MAX_RECORD_LEN) {
                        let need = prefix + len + 4;
                        if need > buf.len() {
                            buf.resize(need, 0);
                        }
                    }
                    let n = match file.read(&mut buf[end..]) {
                        Ok(n) => n,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.into()),
                    };
                    end += n;
                    eof = n == 0;
                }
                // The segment ends here; whether it ended cleanly is
                // decided below from how far the decode got.
                Ok(None) | Err(_) => break,
            }
        }
        if offset < len {
            recovery.truncated = true;
            recovery.bytes_truncated += len - offset;
            for &later in &indices[pos + 1..] {
                recovery.bytes_truncated += fs::metadata(segment_path(dir, later))?.len();
            }
            return Ok(Some((pos, if headed[pos] { offset } else { 0 })));
        }
    }
    Ok(None)
}

fn sync_dir(dir: &Path) -> Result<()> {
    // Windows cannot open directories as files; POSIX needs the directory
    // fsync so segment creation survives an OS crash.
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

hbc_obs::metric_struct! {
    prefix = "hbc_wal_";
    /// Telemetry for one [`Wal`]: record and commit counts, committed byte
    /// volume, and log2-bucketed latency histograms for group writes and
    /// explicit fsyncs. Updated inline on the commit path (two clock reads
    /// per commit); read via [`Wal::metrics`].
    #[derive(Debug, Clone, Default)]
    pub struct WalMetrics {
        /// Records appended to the durable log.
        ///
        /// Records written by [`Wal::commit`] (and [`Wal::append`]).
        counter pub appends: Counter,
        /// Encoded bytes appended to the durable log.
        ///
        /// Framing included.
        counter pub appended_bytes: Counter,
        /// Explicit fsyncs of the durable log.
        ///
        /// [`Wal::sync`] calls; policy-driven fsyncs inside `commit` are
        /// timed as part of the append histogram instead.
        counter pub syncs: Counter,
        /// Latency of one durable-log append, in nanoseconds.
        ///
        /// Wall clock per [`Wal::commit`] of a non-empty group: rotation,
        /// one `write(2)` and the policy fsync. Its count is the number of
        /// group writes.
        histogram pub append_nanos: Histogram,
        /// Latency of one durable-log fsync, in nanoseconds.
        ///
        /// Wall clock per explicit sync.
        histogram pub sync_nanos: Histogram,
    }
}

/// Append-only segment log. See the crate docs for the format and the
/// durability/recovery contracts.
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
    active: File,
    active_index: u64,
    active_len: u64,
    total_bytes: u64,
    /// The staged group: encoded records not yet written.
    staged: Vec<u8>,
    staged_records: u64,
    metrics: WalMetrics,
}

impl Wal {
    /// Opens (creating if necessary) the log at `config.dir`, runs the
    /// recovery scan, truncates any torn tail, and positions the log to
    /// append immediately after the last valid record.
    ///
    /// # Errors
    ///
    /// On filesystem failure, and [`WalError::UnsupportedFormat`] — with no
    /// file changed — when a segment is in another log format. Corrupt log
    /// *content* is absorbed by the scan and reported through
    /// [`Recovery`], never an error and never a panic.
    pub fn open(config: WalConfig) -> Result<(Self, Recovery)> {
        let mut records = Vec::new();
        let (wal, mut recovery) = Self::open_with(config, |record| records.push(record))?;
        recovery.records = records;
        Ok((wal, recovery))
    }

    /// [`Wal::open`] that hands every valid record to `visit` as the scan
    /// decodes it, in append order, instead of collecting them: the
    /// returned [`Recovery`] carries the scan statistics and no records.
    /// The scan holds one read buffer, so a caller that folds records as
    /// they arrive recovers in memory bounded by what it keeps.
    ///
    /// # Errors
    ///
    /// As [`Wal::open`].
    pub fn open_with(
        config: WalConfig,
        mut visit: impl FnMut(WalRecord),
    ) -> Result<(Self, Recovery)> {
        fs::create_dir_all(&config.dir)?;
        let segments = list_segments(&config.dir)?;
        let mut recovery = Recovery::default();
        let stop = scan_segments(&config.dir, &segments, &mut recovery, &mut visit)?;
        let (active_index, valid_len) = match stop {
            Some((pos, valid_end)) => {
                // Truncate the corrupt segment back to its valid prefix and
                // delete every later segment (the scan counted them).
                let index = segments[pos];
                let path = segment_path(&config.dir, index);
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_end)?;
                f.sync_all()?;
                for &later in &segments[pos + 1..] {
                    fs::remove_file(segment_path(&config.dir, later))?;
                }
                sync_dir(&config.dir)?;
                (index, valid_end)
            }
            None => match segments.last() {
                Some(&index) => (index, fs::metadata(segment_path(&config.dir, index))?.len()),
                None => {
                    // Fresh log: create segment 0.
                    let path = segment_path(&config.dir, 0);
                    File::create(&path)?;
                    sync_dir(&config.dir)?;
                    (0, 0)
                }
            },
        };

        let mut active = OpenOptions::new()
            .append(true)
            .open(segment_path(&config.dir, active_index))?;
        active.seek(SeekFrom::End(0))?;
        // A segment without its header (fresh, or torn back to nothing)
        // gets it before any record.
        let active_len = if valid_len == 0 {
            active.write_all(&HEADER)?;
            SEGMENT_HEADER_LEN
        } else {
            valid_len
        };
        // Durable footprint carried forward from previous runs: the segment
        // files as they stand after recovery.
        let mut total_bytes = 0u64;
        for &index in &list_segments(&config.dir)? {
            total_bytes += fs::metadata(segment_path(&config.dir, index))?.len();
        }
        let wal = Wal {
            config,
            active,
            active_index,
            active_len,
            total_bytes,
            staged: Vec::new(),
            staged_records: 0,
            metrics: WalMetrics::default(),
        };
        Ok((wal, recovery))
    }

    /// Encodes one record into the staged group, to be written by the next
    /// [`Wal::commit`]. Returns the encoded size in bytes (framing
    /// included).
    ///
    /// # Errors
    ///
    /// [`WalError::RecordTooLarge`] for a record whose encoding exceeds
    /// [`MAX_RECORD_LEN`]; nothing is staged then.
    pub fn stage(&mut self, record: &WalRecord) -> Result<usize> {
        let before = self.staged.len();
        let n = record.encode_into(&mut self.staged);
        if n > MAX_ENCODED_RECORD {
            self.staged.truncate(before);
            return Err(WalError::RecordTooLarge(n));
        }
        self.staged_records += 1;
        Ok(n)
    }

    /// Writes the staged group with one `write(2)`, rotating the active
    /// segment first if the group would overflow it, and fsyncs under
    /// [`SyncPolicy::Always`]. Returns the bytes written; an empty group
    /// writes nothing and returns 0.
    ///
    /// # Errors
    ///
    /// On filesystem failure. The group is dropped either way, and the
    /// segment may then end in a torn record that the next open truncates.
    pub fn commit(&mut self) -> Result<usize> {
        let n = self.staged.len();
        if n == 0 {
            return Ok(0);
        }
        let started = Instant::now();
        let written = self.write_group();
        let records = std::mem::take(&mut self.staged_records);
        self.staged.clear();
        written?;
        self.total_bytes += n as u64;
        self.metrics.appends.add(records);
        self.metrics.appended_bytes.add(n as u64);
        self.metrics
            .append_nanos
            .record(started.elapsed().as_nanos() as u64);
        Ok(n)
    }

    fn write_group(&mut self) -> Result<()> {
        let n = self.staged.len() as u64;
        if self.active_len > SEGMENT_HEADER_LEN && self.active_len + n > self.config.segment_bytes {
            self.rotate()?;
        }
        self.active.write_all(&self.staged)?;
        self.active_len += n;
        if self.config.sync == SyncPolicy::Always {
            self.active.sync_data()?;
        }
        Ok(())
    }

    /// Appends one record: [`Wal::stage`] then [`Wal::commit`]. Returns the
    /// record's encoded size in bytes (framing included).
    ///
    /// # Errors
    ///
    /// As [`Wal::stage`] and [`Wal::commit`].
    pub fn append(&mut self, record: &WalRecord) -> Result<usize> {
        let n = self.stage(record)?;
        self.commit()?;
        Ok(n)
    }

    /// Seals the active segment (fsync per policy) and opens the next one,
    /// headed.
    fn rotate(&mut self) -> Result<()> {
        if self.config.sync != SyncPolicy::Never {
            self.active.sync_all()?;
        }
        self.active_index += 1;
        let path = segment_path(&self.config.dir, self.active_index);
        self.active = OpenOptions::new().create(true).append(true).open(&path)?;
        self.active.write_all(&HEADER)?;
        self.active_len = SEGMENT_HEADER_LEN;
        self.total_bytes += SEGMENT_HEADER_LEN;
        if self.config.sync != SyncPolicy::Never {
            sync_dir(&self.config.dir)?;
        }
        Ok(())
    }

    /// Forces the active segment to stable storage regardless of policy.
    ///
    /// # Errors
    ///
    /// On filesystem failure.
    pub fn sync(&mut self) -> Result<()> {
        let started = Instant::now();
        self.active.sync_data()?;
        self.metrics.syncs.inc();
        self.metrics
            .sync_nanos
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Index of the segment currently open for append.
    pub fn active_segment(&self) -> u64 {
        self.active_index
    }

    /// Bytes written to the active segment so far, its header included.
    pub fn active_len(&self) -> u64 {
        self.active_len
    }

    /// Total durable footprint of the log in bytes: every segment on disk as
    /// of open (post-recovery) plus everything committed since.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Telemetry accumulated by this handle since open.
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// The configuration the log was opened with.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }
}

/// Scans the log at `dir` read-only (no truncation, no segment creation) and
/// returns the valid record prefix, with the same statistics a truncating
/// [`Wal::open`] would report. Usable against a log directory that may
/// still be owned by a live gateway.
///
/// # Errors
///
/// On filesystem failure, and [`WalError::UnsupportedFormat`] when a
/// segment is in another log format; corrupt content stops the scan
/// cleanly.
pub fn scan(dir: impl AsRef<Path>) -> Result<Recovery> {
    let mut records = Vec::new();
    let mut recovery = scan_with(dir, |record| records.push(record))?;
    recovery.records = records;
    Ok(recovery)
}

/// [`scan`] that hands every valid record to `visit` as it is decoded, in
/// append order, instead of collecting them; the returned [`Recovery`]
/// carries no records. The offline replay driver folds the log through it.
///
/// # Errors
///
/// As [`scan`].
pub fn scan_with(dir: impl AsRef<Path>, mut visit: impl FnMut(WalRecord)) -> Result<Recovery> {
    let dir = dir.as_ref();
    let mut recovery = Recovery::default();
    scan_segments(dir, &list_segments(dir)?, &mut recovery, &mut visit)?;
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "hbc-wal-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::SessionOpen {
                token: 0xDEAD_BEEF_F00D_CAFE,
                wire_id: 1,
                patient_id: 100,
                calib_len: 7200,
                fs_millihertz: 360_000,
            },
            WalRecord::Samples {
                token: 0xDEAD_BEEF_F00D_CAFE,
                seq: 0,
                codes: (-40..40).map(|i| i * 13).collect(),
            },
            WalRecord::Samples {
                token: 0xDEAD_BEEF_F00D_CAFE,
                seq: 1,
                codes: vec![i16::MIN, -1, 0, 1, i16::MAX],
            },
            WalRecord::SessionClose {
                token: 0xDEAD_BEEF_F00D_CAFE,
            },
        ]
    }

    #[test]
    fn round_trip_single_segment() {
        let tmp = TempDir::new("roundtrip");
        let records = sample_records();
        {
            let (mut wal, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
            assert!(rec.records.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert_eq!(rec.records, records);
        assert!(!rec.truncated);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let tmp = TempDir::new("rotate");
        let records = sample_records();
        {
            let cfg = WalConfig::new(&tmp.0).segment_bytes(32);
            let (mut wal, _) = Wal::open(cfg).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            assert!(wal.active_segment() >= 2, "tiny segments must rotate");
        }
        let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert_eq!(rec.records, records);
        assert!(rec.segments_scanned >= 3);
    }

    #[test]
    fn torn_tail_truncates_to_valid_prefix() {
        let tmp = TempDir::new("torn");
        let records = sample_records();
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        // Chop bytes off the tail: the last record becomes torn.
        let path = segment_path(&tmp.0, 0);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut wal, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.records, records[..records.len() - 1]);
        // The log must keep working after truncation.
        wal.append(&records[records.len() - 1]).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert_eq!(rec.records, records);
    }

    #[test]
    fn corruption_drops_later_segments() {
        let tmp = TempDir::new("midflip");
        let records = sample_records();
        {
            let cfg = WalConfig::new(&tmp.0).segment_bytes(32);
            let (mut wal, _) = Wal::open(cfg).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        // Flip a byte in the middle of segment 0's first record body.
        let path = segment_path(&tmp.0, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[SEGMENT_HEADER_LEN as usize + 6] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert!(rec.truncated);
        assert!(rec.records.is_empty());
        assert!(rec.bytes_truncated > 0);
        // Later segments must be gone.
        assert_eq!(list_segments(&tmp.0).unwrap(), vec![0]);
    }

    #[test]
    fn read_only_scan_matches_open() {
        let tmp = TempDir::new("scan");
        let records = sample_records();
        let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0).segment_bytes(64)).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        // Scan while the writer is still live.
        let rec = scan(&tmp.0).unwrap();
        assert_eq!(rec.records, records);
    }

    #[test]
    fn scan_and_open_agree_past_a_mid_log_corruption() {
        // A corrupt record in a non-final segment: the read-only scan must
        // count the later segments it ignores exactly as `open` counts the
        // ones it deletes.
        let tmp = TempDir::new("scanagree");
        let records: Vec<WalRecord> = (0..20)
            .map(|seq| WalRecord::Samples {
                token: 7,
                seq,
                codes: vec![seq as i16; 50],
            })
            .collect();
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0).segment_bytes(64)).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            assert!(wal.active_segment() >= 2, "the log must span segments");
        }
        let path = segment_path(&tmp.0, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let total: u64 = list_segments(&tmp.0)
            .unwrap()
            .iter()
            .map(|&i| fs::metadata(segment_path(&tmp.0, i)).unwrap().len())
            .sum();

        let scanned = scan(&tmp.0).unwrap();
        let (_, opened) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert!(scanned.truncated && opened.truncated);
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.records, opened.records);
        assert_eq!(
            scanned.bytes_truncated,
            total - SEGMENT_HEADER_LEN,
            "the whole log past segment 0's header is past the flip"
        );
        assert_eq!(scanned.bytes_truncated, opened.bytes_truncated);
    }

    #[test]
    fn records_larger_than_the_scan_buffer_stream_through() {
        // One record bigger than the initial buffer, between small ones that
        // straddle buffer refills.
        let tmp = TempDir::new("bigrecord");
        let mut records = sample_records();
        records.insert(
            2,
            WalRecord::Samples {
                token: 3,
                seq: 9,
                codes: noise(40_000, 1),
            },
        );
        for seq in 0..2_000 {
            records.push(WalRecord::Samples {
                token: 4,
                seq,
                codes: noise(17, u64::from(seq) + 2),
            });
        }
        let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        assert!(fs::metadata(segment_path(&tmp.0, 0)).unwrap().len() > 2 * SCAN_BUF_BYTES as u64);
        let mut seen = 0;
        let rec = scan_with(&tmp.0, |r| {
            assert_eq!(r, records[seen]);
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, records.len());
        assert!(rec.records.is_empty() && !rec.truncated);
        let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert_eq!(rec.records, records);
    }

    #[test]
    fn zero_and_huge_length_prefixes_are_corruption() {
        let tmp = TempDir::new("lenbomb");
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
            wal.append(&WalRecord::SessionClose { token: 9 }).unwrap();
        }
        let path = segment_path(&tmp.0, 0);
        let good = fs::read(&path).unwrap();
        for bad_len in [0u32, (MAX_RECORD_LEN as u32) + 1, u32::MAX] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&bad_len.to_le_bytes());
            bytes.extend_from_slice(&[0xAB; 7]);
            fs::write(&path, &bytes).unwrap();
            let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
            assert!(rec.truncated);
            assert_eq!(rec.records, vec![WalRecord::SessionClose { token: 9 }]);
            // open() restored the file to the valid prefix.
            assert_eq!(fs::read(&path).unwrap(), good);
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check value of CRC-32/ISO-HDLC (the ZIP/PNG CRC):
        // pins the table to the published polynomial, not just to itself.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// `n` codes of full-scale noise (the codec cannot shrink them), seeded.
    fn noise(n: usize, seed: u64) -> Vec<i16> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 48) as i16
            })
            .collect()
    }

    #[test]
    fn a_samples_payload_the_codec_rejects_is_corruption() {
        // A CRC-valid Samples record whose payload breaks the codec decodes
        // to None, like a CRC failure: three steps of +6 (z = 12) coded
        // with k = 2 where the rule picks k = 3, then the same payload
        // with a whole byte of padding.
        let off_rule = vec![0xD8, 0x04, 0x82, 0x40, 0x08];
        let mut payload = Vec::new();
        encode_samples(&[300, 306, 312, 318], &mut payload);
        payload.push(0);
        for bad in [off_rule, payload] {
            let mut bytes = Vec::new();
            let start = begin_frame(&mut bytes);
            bytes.push(TAG_SAMPLES);
            bytes.extend_from_slice(&1u64.to_le_bytes());
            put_varint(&mut bytes, 0);
            bytes.extend_from_slice(&bad);
            seal_frame(&mut bytes, start);
            let frame = split_frame(&bytes, MAX_RECORD_LEN).unwrap().unwrap();
            assert!(decode_body(frame.tag, frame.body).is_none());
        }
    }

    #[test]
    fn the_envelope_prefix_is_the_shortest_varint_and_checked_early() {
        for (body, prefix) in [
            (0usize, 1usize),
            (126, 1),
            (127, 2),
            (16_382, 2),
            (16_383, 3),
        ] {
            let mut out = vec![0xEE];
            let start = begin_frame(&mut out);
            out.push(TAG_SESSION_CLOSE);
            out.extend(std::iter::repeat_n(0x5A, body));
            let total = seal_frame(&mut out, start);
            assert_eq!(total, prefix + 1 + body + 4, "body {body}");
            let frame = split_frame(&out[1..], MAX_RECORD_LEN).unwrap().unwrap();
            assert_eq!(
                (frame.tag, frame.body.len(), frame.total),
                (TAG_SESSION_CLOSE, body, total)
            );
            assert_eq!(split_frame(&out[1..total], MAX_RECORD_LEN), Ok(None));
        }
        // Rejected from the prefix bytes alone, before the rest arrives.
        for (prefix, err) in [
            (&[0x00][..], EnvelopeError::BadLength { len: 0 }),
            (&[0x85, 0x00], EnvelopeError::OverlongLength),
            (&[0x80, 0x80, 0x00], EnvelopeError::OverlongLength),
            (
                &[0x81, 0x80, 0x41],
                EnvelopeError::BadLength {
                    len: 1 + (0x41 << 14),
                },
            ),
            (
                &[0xFF, 0xFF, 0xFF],
                EnvelopeError::BadLength {
                    len: (1 << 21) - 1 + (1 << 21),
                },
            ),
        ] {
            assert_eq!(
                split_frame(prefix, MAX_RECORD_LEN),
                Err(err),
                "{prefix:02x?}"
            );
        }
    }

    #[test]
    fn samples_records_are_the_token_a_varint_seq_and_the_codec() {
        let codes: Vec<i16> = (0..36).map(|i| 300 + i * 3).collect();
        let record = WalRecord::Samples {
            token: 0xDEAD_BEEF_F00D_CAFE,
            seq: 1000,
            codes: codes.clone(),
        };
        let mut payload = Vec::new();
        encode_samples(&codes, &mut payload);
        let bytes = record.encode();
        // Prefix, tag, token, two-byte seq, payload, CRC.
        assert_eq!(bytes.len(), 1 + 1 + 8 + 2 + payload.len() + 4);
        assert_eq!(&bytes[12..12 + payload.len()], &payload[..]);
        let frame = split_frame(&bytes, MAX_RECORD_LEN).unwrap().unwrap();
        assert_eq!(decode_body(frame.tag, frame.body), Some(record));
    }

    /// Every segment file of `dir` with its bytes, by name.
    fn snapshot(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// A format-1 record: `len u32 | tag | body | crc32`, the codes raw.
    fn format_1_record(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut out = ((body.len() + 1) as u32).to_le_bytes().to_vec();
        out.push(tag);
        out.extend_from_slice(body);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn format_1_and_unknown_version_logs_are_refused_untouched() {
        let tmp = TempDir::new("foreign");
        let mut samples_body = 7u64.to_le_bytes().to_vec();
        samples_body.extend_from_slice(&0u32.to_le_bytes());
        samples_body.extend_from_slice(&3u32.to_le_bytes());
        for c in [-5i16, 0, 5] {
            samples_body.extend_from_slice(&c.to_le_bytes());
        }
        let mut v1 = format_1_record(TAG_SAMPLES, &samples_body);
        v1.extend(format_1_record(TAG_SESSION_CLOSE, &7u64.to_le_bytes()));
        let mut v3 = segment_header(3).to_vec();
        v3.extend(WalRecord::SessionClose { token: 7 }.encode());
        let v2 = {
            let mut v2 = HEADER.to_vec();
            v2.extend(WalRecord::SessionClose { token: 7 }.encode());
            v2
        };
        // A foreign segment anywhere refuses the whole log, even behind a
        // valid one and even past a corrupt one.
        let torn_v2 = v2[..v2.len() - 2].to_vec();
        for (segments, want) in [
            (vec![v1.clone()], None),
            (vec![v1[..3].to_vec()], None),
            (vec![v3.clone()], Some(3)),
            (vec![v2.clone(), v1.clone()], None),
            (vec![torn_v2, v3], Some(3)),
            (vec![b"not a log at all".to_vec()], None),
        ] {
            let _ = fs::remove_dir_all(&tmp.0);
            fs::create_dir_all(&tmp.0).unwrap();
            for (i, bytes) in segments.iter().enumerate() {
                fs::write(segment_path(&tmp.0, i as u64), bytes).unwrap();
            }
            let before = snapshot(&tmp.0);
            let refused = |r: Result<()>| match r {
                Err(WalError::UnsupportedFormat { version, .. }) => assert_eq!(version, want),
                other => panic!("expected a refusal, got {other:?}"),
            };
            refused(scan(&tmp.0).map(drop));
            refused(scan_with(&tmp.0, |_| panic!("no record may be read")).map(drop));
            refused(Wal::open(WalConfig::new(&tmp.0)).map(drop));
            refused(Wal::open_with(WalConfig::new(&tmp.0), |_| panic!("no record")).map(drop));
            assert_eq!(snapshot(&tmp.0), before, "a refused log is left as it was");
        }
    }

    #[test]
    fn an_empty_or_torn_header_segment_reads_as_empty() {
        let tmp = TempDir::new("emptyseg");
        let records = sample_records();
        // A crash between creating segment 0 and writing its header.
        fs::write(segment_path(&tmp.0, 0), b"").unwrap();
        let (mut wal, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert!(rec.records.is_empty() && !rec.truncated);
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        assert_eq!(scan(&tmp.0).unwrap().records, records);
        // The same crash after a rotation: an empty last segment.
        fs::write(segment_path(&tmp.0, 1), b"").unwrap();
        let scanned = scan(&tmp.0).unwrap();
        assert_eq!(scanned.records, records);
        assert!(!scanned.truncated);
        let (mut wal, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert_eq!(rec.records, records);
        assert_eq!(wal.active_segment(), 1);
        wal.append(&WalRecord::SessionClose { token: 1 }).unwrap();
        drop(wal);
        assert_eq!(scan(&tmp.0).unwrap().records.len(), records.len() + 1);
        // A header torn mid-write is a torn tail: truncated, then headed.
        fs::write(segment_path(&tmp.0, 2), &HEADER[..5]).unwrap();
        let scanned = scan(&tmp.0).unwrap();
        let (_, opened) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert!(opened.truncated && scanned.truncated);
        assert_eq!((scanned.bytes_truncated, opened.bytes_truncated), (5, 5));
        assert_eq!(fs::read(segment_path(&tmp.0, 2)).unwrap(), HEADER);
        assert!(!scan(&tmp.0).unwrap().truncated);
    }

    #[test]
    fn a_header_one_bit_off_is_corruption_not_a_foreign_log() {
        let tmp = TempDir::new("headerflip");
        let records: Vec<WalRecord> = (0..6)
            .map(|token| WalRecord::SessionClose { token })
            .collect();
        for bit in 0..64 {
            let _ = fs::remove_dir_all(&tmp.0);
            {
                let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0).segment_bytes(40)).unwrap();
                for r in &records {
                    wal.append(r).unwrap();
                }
                assert!(wal.active_segment() >= 2);
            }
            let path = segment_path(&tmp.0, 1);
            let mut bytes = fs::read(&path).unwrap();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            let scanned = scan(&tmp.0).unwrap();
            let (_, opened) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
            assert!(scanned.truncated, "bit {bit}");
            assert_eq!(scanned.records, records[..2], "bit {bit}");
            assert_eq!(opened.records, scanned.records);
            assert_eq!(opened.bytes_truncated, scanned.bytes_truncated);
            assert!(!scan(&tmp.0).unwrap().truncated, "bit {bit}");
        }
    }

    #[test]
    fn a_staged_group_is_written_once_and_only_when_committed() {
        let tmp = TempDir::new("group");
        let records = sample_records();
        let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        let mut staged = 0;
        for r in &records {
            staged += wal.stage(r).unwrap();
        }
        assert!(
            scan(&tmp.0).unwrap().records.is_empty(),
            "nothing written yet"
        );
        assert_eq!(wal.commit().unwrap(), staged);
        assert_eq!(wal.commit().unwrap(), 0, "an empty group writes nothing");
        let m = wal.metrics();
        assert_eq!(m.appends.get(), records.len() as u64);
        assert_eq!(m.appended_bytes.get(), staged as u64);
        assert_eq!(m.append_nanos.count(), 1, "one write for the group");
        assert_eq!(scan(&tmp.0).unwrap().records, records);
        // Staged and dropped without a commit: not in the log.
        wal.stage(&WalRecord::SessionClose { token: 99 }).unwrap();
        drop(wal);
        assert_eq!(scan(&tmp.0).unwrap().records, records);
        // A group that would overflow the segment rotates as a unit.
        let (mut wal, _) = Wal::open(WalConfig::new(&tmp.0).segment_bytes(64)).unwrap();
        for r in &records {
            wal.stage(r).unwrap();
        }
        wal.commit().unwrap();
        assert_eq!(wal.active_segment(), 1);
        assert_eq!(wal.active_len(), SEGMENT_HEADER_LEN + staged as u64);
        drop(wal);
        let rec = scan(&tmp.0).unwrap();
        assert_eq!(rec.records.len(), 2 * records.len());
    }
}

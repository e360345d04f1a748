//! Append-only segment log for the ingestion gateway.
//!
//! Every `Samples` chunk the gateway accepts is appended here *before* it is
//! fed to the `StreamHub`, so a process crash loses nothing that was
//! acknowledged on the wire. The log is the durability substrate behind three
//! gateway features: crash-safe restart (rebuild detached-session state and
//! let nodes re-attach via the resume protocol), deterministic replay
//! (re-score logged streams through any fitted pipeline, bit-identical to
//! live ingestion thanks to the hub's chunk invariance), and post-hoc audit.
//!
//! # On-disk format
//!
//! The log is a directory of fixed-capacity segment files named
//! `<index>.wal` with a zero-padded 16-digit decimal index
//! (`0000000000000000.wal`, `0000000000000001.wal`, …). Segments are written
//! strictly in index order and never modified once rotated away from; only
//! the highest-index segment is ever open for append.
//!
//! Each record is one **frame envelope**: a little-endian `u32` length
//! prefix counting the tag byte plus the body, the tag byte, the body, and a
//! CRC-32 trailer (IEEE 802.3 reflected polynomial — the ZIP/PNG CRC)
//! computed over tag + body. All integers are little-endian. This crate owns
//! the envelope ([`crc32`], [`begin_frame`], [`seal_frame`],
//! [`split_frame`]); the wire protocol (`hbc_net::proto`) frames its
//! messages with the same functions, so the socket and the log detect torn
//! and corrupt data in exactly one way.
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | `0x01` | [`WalRecord::SessionOpen`] | token `u64`, wire id `u32`, patient id `u32`, calibration length `u32`, sampling rate `u32` (mHz) |
//! | `0x02` | [`WalRecord::Samples`] | token `u64`, seq `u32`, count `u32`, count × ADC code `i16` |
//! | `0x03` | [`WalRecord::SessionClose`] | token `u64` |
//!
//! Samples are logged as the raw 12-bit ADC codes from the wire, not as
//! floating-point millivolts: codes are the canonical representation
//! (dequantisation is deterministic), and they halve the log volume.
//!
//! # Durability policy
//!
//! [`SyncPolicy`] controls when `fsync` runs: [`SyncPolicy::Always`] after
//! every append, [`SyncPolicy::OnRotation`] (the default) when a segment
//! fills and is sealed, [`SyncPolicy::Never`] for benchmarks and tests.
//! Directory metadata is synced after every segment creation so a crash
//! cannot orphan a sealed segment.
//!
//! # Recovery
//!
//! [`Wal::open`] scans the segments in index order and validates every
//! record. The scan *never panics* on corrupt input — a torn tail (partial
//! write from a crash), a bit flip, or an impossible length prefix all stop
//! the scan at the last valid record: the active segment is truncated back
//! to the end of the valid prefix and any later segments (which can only
//! hold data written *after* the corruption point) are deleted. What
//! recovery returns is therefore always a valid prefix of what was appended,
//! and the re-opened log continues appending exactly at that point.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hbc_obs::{Counter, Histogram};

/// Upper bound on `len` (tag + body) of a single record. Mirrors the wire
/// protocol's `MAX_FRAME_LEN`; anything larger in a length prefix is treated
/// as corruption by the recovery scan.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Default capacity of one segment file (8 MiB). A record that would
/// overflow the active segment triggers rotation, so segments may exceed
/// this by at most one record.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

const TAG_SESSION_OPEN: u8 = 0x01;
const TAG_SAMPLES: u8 = 0x02;
const TAG_SESSION_CLOSE: u8 = 0x03;

const SEGMENT_EXT: &str = "wal";

// -------------------------------------------------------------------------
// Frame envelope: `len u32 | tag u8 | body | crc32(tag + body) u32`
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
        /// The offending length.
        len: usize,
    },
    /// The CRC-32 trailer does not match tag + body.
    BadCrc {
        /// Checksum computed over the received tag + body.
        computed: u32,
        /// Checksum found in the trailer.
        found: u32,
    },
}

/// Starts a frame at the end of `out` by reserving its length prefix, and
/// returns the frame's start offset. Push the tag and the body next, then
/// call [`seal_frame`].
#[inline]
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    start
}

/// Seals the frame [`begin_frame`] started at `start`: patches the length
/// prefix and appends the CRC-32 of tag + body. Returns the frame's total
/// encoded length.
#[inline]
pub fn seal_frame(out: &mut Vec<u8>, start: usize) -> usize {
    let payload = start + 4;
    let len = out.len() - payload;
    out[start..payload].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[payload..]);
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

/// Splits the frame at the start of `buf`: checks the length prefix against
/// `max_len` and the CRC trailer. `Ok(None)` means `buf` holds only a
/// prefix of the frame.
///
/// # Errors
///
/// [`EnvelopeError::BadLength`] for a zero or oversized length prefix
/// (reported as soon as the prefix is complete, before the rest arrives),
/// [`EnvelopeError::BadCrc`] when the trailer does not match.
#[inline]
pub fn split_frame(
    buf: &[u8],
    max_len: usize,
) -> std::result::Result<Option<SplitFrame<'_>>, EnvelopeError> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(prefix.try_into().expect("4-byte prefix")) as usize;
    if len == 0 || len > max_len {
        return Err(EnvelopeError::BadLength { len });
    }
    let total = 4 + len + 4;
    let Some(frame) = buf.get(4..total) else {
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
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(codes.len() as u32).to_le_bytes());
                for &c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            WalRecord::SessionClose { token } => {
                out.push(TAG_SESSION_CLOSE);
                out.extend_from_slice(&token.to_le_bytes());
            }
        }
        debug_assert!(out.len() - start - 4 <= MAX_RECORD_LEN);
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

    fn i16(&mut self) -> Option<i16> {
        self.take(2)
            .map(|s| i16::from_le_bytes(s.try_into().unwrap()))
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
        TAG_SAMPLES => {
            let token = c.u64()?;
            let seq = c.u32()?;
            let count = c.u32()? as usize;
            // Reject counts the remaining body cannot hold before
            // allocating: a bit-flipped count must not OOM the scan.
            if count.checked_mul(2)? != body.len().checked_sub(c.at)? {
                return None;
            }
            let mut codes = Vec::with_capacity(count);
            for _ in 0..count {
                codes.push(c.i16()?);
            }
            WalRecord::Samples { token, seq, codes }
        }
        TAG_SESSION_CLOSE => WalRecord::SessionClose { token: c.u64()? },
        _ => return None,
    };
    if c.exhausted() {
        Some(rec)
    } else {
        None
    }
}

/// Decodes the record starting at `buf[at..]`. Returns the record and the
/// total encoded length, or `None` if the bytes at `at` are not a complete
/// valid record (short read, bad length, bad CRC, malformed body).
fn decode_at(buf: &[u8], at: usize) -> Option<(WalRecord, usize)> {
    let frame = split_frame(buf.get(at..)?, MAX_RECORD_LEN).ok()??;
    Some((decode_body(frame.tag, frame.body)?, frame.total))
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

/// What [`Wal::open`] found on disk: the valid record prefix plus scan
/// statistics.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every valid record, in append order across all segments.
    pub records: Vec<WalRecord>,
    /// Number of segment files scanned.
    pub segments_scanned: usize,
    /// Bytes discarded from the corruption point onward (torn tail plus any
    /// later segments).
    pub bytes_truncated: u64,
    /// Whether the scan hit a torn tail / corrupt record and truncated.
    pub truncated: bool,
}

/// Errors surfaced by the log. Corrupt data is *not* an error — the
/// recovery scan absorbs it — so this is I/O plus configuration misuse only.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A single record larger than [`MAX_RECORD_LEN`] was submitted.
    RecordTooLarge(usize),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::RecordTooLarge(n) => {
                write!(f, "wal record of {n} bytes exceeds {MAX_RECORD_LEN}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::RecordTooLarge(_) => None,
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

/// Reads the segments `indices` of `dir` in order, appending every valid
/// record to `recovery`. A torn tail or corrupt record stops the scan:
/// everything from there on, later segments included, is untrusted.
/// Returns where it stopped — the position in `indices` and the valid
/// length of that segment — or `None` for a clean log.
fn scan_segments(
    dir: &Path,
    indices: &[u64],
    recovery: &mut Recovery,
) -> Result<Option<(usize, u64)>> {
    for (pos, &index) in indices.iter().enumerate() {
        recovery.segments_scanned += 1;
        let buf = fs::read(segment_path(dir, index))?;
        let mut at = 0usize;
        while at < buf.len() {
            let Some((rec, n)) = decode_at(&buf, at) else {
                recovery.truncated = true;
                recovery.bytes_truncated += (buf.len() - at) as u64;
                return Ok(Some((pos, at as u64)));
            };
            recovery.records.push(rec);
            at += n;
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
    /// Telemetry for one [`Wal`]: append/fsync call counts, appended byte
    /// volume, and log2-bucketed latency histograms for both syscalls. Updated
    /// inline on the append path (two clock reads per call); read via
    /// [`Wal::metrics`].
    #[derive(Debug, Clone, Default)]
    pub struct WalMetrics {
        /// Records appended to the durable log.
        ///
        /// Successful [`Wal::append`] calls.
        counter pub appends: Counter,
        /// Encoded bytes appended to the durable log.
        ///
        /// Framing included.
        counter pub appended_bytes: Counter,
        /// Explicit fsyncs of the durable log.
        ///
        /// [`Wal::sync`] calls; policy-driven fsyncs inside `append` are
        /// timed as part of the append histogram instead.
        counter pub syncs: Counter,
        /// Latency of one durable-log append, in nanoseconds.
        ///
        /// Wall clock per append: encode + write + policy fsync.
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
    scratch: Vec<u8>,
    metrics: WalMetrics,
}

impl Wal {
    /// Opens (creating if necessary) the log at `config.dir`, runs the
    /// recovery scan, truncates any torn tail, and positions the log to
    /// append immediately after the last valid record.
    ///
    /// # Errors
    ///
    /// Only on filesystem failure — corrupt log *content* is absorbed by
    /// the scan and reported through [`Recovery`], never an error and never
    /// a panic.
    pub fn open(config: WalConfig) -> Result<(Self, Recovery)> {
        fs::create_dir_all(&config.dir)?;
        let segments = list_segments(&config.dir)?;
        let mut recovery = Recovery::default();
        let (active_index, active_len) = match scan_segments(&config.dir, &segments, &mut recovery)?
        {
            Some((pos, valid_end)) => {
                // Truncate the corrupt segment back to its valid prefix and
                // delete every later segment.
                let index = segments[pos];
                let path = segment_path(&config.dir, index);
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_end)?;
                f.sync_all()?;
                for &later in &segments[pos + 1..] {
                    let path = segment_path(&config.dir, later);
                    recovery.bytes_truncated += fs::metadata(&path)?.len();
                    fs::remove_file(&path)?;
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
        // Durable footprint carried forward from previous runs: the segment
        // files as they stand after recovery truncation.
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
            scratch: Vec::new(),
            metrics: WalMetrics::default(),
        };
        Ok((wal, recovery))
    }

    /// Appends one record, rotating the active segment first if it is full.
    /// Returns the encoded size in bytes (framing included).
    ///
    /// # Errors
    ///
    /// On filesystem failure, or [`WalError::RecordTooLarge`] for a record
    /// whose encoding exceeds [`MAX_RECORD_LEN`].
    pub fn append(&mut self, record: &WalRecord) -> Result<usize> {
        let started = Instant::now();
        self.scratch.clear();
        let n = record.encode_into(&mut self.scratch);
        if n > MAX_RECORD_LEN + 8 {
            return Err(WalError::RecordTooLarge(n));
        }
        if self.active_len > 0 && self.active_len + n as u64 > self.config.segment_bytes {
            self.rotate()?;
        }
        let scratch = std::mem::take(&mut self.scratch);
        let res = self.active.write_all(&scratch);
        self.scratch = scratch;
        res?;
        self.active_len += n as u64;
        if self.config.sync == SyncPolicy::Always {
            self.active.sync_data()?;
        }
        self.total_bytes += n as u64;
        self.metrics.appends.inc();
        self.metrics.appended_bytes.add(n as u64);
        self.metrics
            .append_nanos
            .record(started.elapsed().as_nanos() as u64);
        Ok(n)
    }

    /// Seals the active segment (fsync per policy) and opens the next one.
    fn rotate(&mut self) -> Result<()> {
        if self.config.sync != SyncPolicy::Never {
            self.active.sync_all()?;
        }
        self.active_index += 1;
        let path = segment_path(&self.config.dir, self.active_index);
        self.active = OpenOptions::new().create(true).append(true).open(&path)?;
        self.active_len = 0;
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

    /// Bytes written to the active segment so far.
    pub fn active_len(&self) -> u64 {
        self.active_len
    }

    /// Total durable footprint of the log in bytes: every segment on disk as
    /// of open (post-recovery) plus everything appended since.
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
/// returns the valid record prefix. Used by the replay driver against a log
/// directory that may still be owned by a live gateway.
///
/// # Errors
///
/// Only on filesystem failure; corrupt content stops the scan cleanly.
pub fn scan(dir: impl AsRef<Path>) -> Result<Recovery> {
    let dir = dir.as_ref();
    let mut recovery = Recovery::default();
    scan_segments(dir, &list_segments(dir)?, &mut recovery)?;
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
        bytes[6] ^= 0xFF;
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

    #[test]
    fn samples_count_overflow_is_rejected() {
        // A Samples body whose count field disagrees with the body length
        // must decode to None, not allocate count elements.
        let rec = WalRecord::Samples {
            token: 1,
            seq: 0,
            codes: vec![1, 2, 3],
        };
        let mut bytes = rec.encode();
        // Patch the count (body offset: 4 len + 1 tag + 8 token + 4 seq).
        bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        // Fix the CRC so only the count is inconsistent.
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[4..4 + len]);
        bytes[4 + len..4 + len + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_at(&bytes, 0).is_none());
    }
}

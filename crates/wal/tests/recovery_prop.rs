//! Property-based recovery guarantees for the segment log:
//!
//! * write → reopen round-trips exactly, for any segment capacity;
//! * truncating the log at **any** byte offset (torn tail from a crash)
//!   recovers a valid prefix of the written records without panicking;
//! * flipping **any** bit recovers a valid prefix without panicking;
//! * recovery is idempotent: a second open sees a clean log, and the log
//!   stays appendable at the recovered position;
//! * all of the above for logs larger than the scan's 64 KiB read buffer,
//!   with a record larger than the buffer and faults inside records that
//!   straddle a read, where a read-only scan and a truncating open agree
//!   on the records and on the bytes they discard;
//! * a log with a segment in another format — format 1's header-less
//!   layout or a header naming another version — is refused by `open` and
//!   `scan` and left byte-identical, wherever that segment sits;
//! * an empty last segment (a crash between creating a segment and writing
//!   its header) reads as empty.

use std::fs::{self, OpenOptions};
use std::ops::Range;
use std::path::{Path, PathBuf};

use hbc_wal::{
    crc32, scan, scan_with, Wal, WalConfig, WalError, WalRecord, LOG_FORMAT_VERSION,
    SEGMENT_HEADER_LEN,
};
use proptest::prelude::*;

/// SplitMix64 step, the workspace's stock deterministic generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically builds one of every record kind from a seed.
fn record_from(state: &mut u64) -> WalRecord {
    match next(state) % 4 {
        0 => WalRecord::SessionOpen {
            token: next(state),
            wire_id: next(state) as u32,
            patient_id: next(state) as u32,
            calib_len: next(state) as u32,
            fs_millihertz: next(state) as u32,
        },
        1 => WalRecord::SessionClose { token: next(state) },
        _ => {
            let n = (next(state) % 200) as usize;
            WalRecord::Samples {
                token: next(state),
                seq: next(state) as u32,
                codes: (0..n).map(|_| next(state) as i16).collect(),
            }
        }
    }
}

/// Builds a log that crosses the scan's 64 KiB read boundary: `num_records`
/// records of up to 4 000 codes each, plus one `Samples` record of about
/// 40 000 codes (larger than the read buffer) at a seeded position. Returns
/// the records and the large one's position.
fn large_log(state: &mut u64, num_records: usize) -> (Vec<WalRecord>, usize) {
    let mut records: Vec<WalRecord> = (0..num_records)
        .map(|_| match next(state) % 4 {
            0 => record_from(state),
            _ => {
                let n = (next(state) % 4000) as usize;
                WalRecord::Samples {
                    token: next(state),
                    seq: next(state) as u32,
                    codes: (0..n).map(|_| next(state) as i16).collect(),
                }
            }
        })
        .collect();
    let at = (next(state) % (num_records as u64 + 1)) as usize;
    let n = 40_000 + (next(state) % 1000) as usize;
    records.insert(
        at,
        WalRecord::Samples {
            token: next(state),
            seq: next(state) as u32,
            codes: (0..n).map(|_| next(state) as i16).collect(),
        },
    );
    (records, at)
}

/// The byte range record `at` occupies in the concatenated segments of a
/// log `records` were appended to one by one with `segment_bytes`: each
/// segment starts with its header, and a record that would overflow a
/// segment holding records opens the next one.
fn record_range(records: &[WalRecord], segment_bytes: u64, at: usize) -> Range<u64> {
    let (mut offset, mut in_segment) = (SEGMENT_HEADER_LEN, SEGMENT_HEADER_LEN);
    for (i, r) in records.iter().enumerate() {
        let n = r.encode().len() as u64;
        if in_segment > SEGMENT_HEADER_LEN && in_segment + n > segment_bytes {
            offset += SEGMENT_HEADER_LEN;
            in_segment = SEGMENT_HEADER_LEN;
        }
        if i == at {
            return offset..offset + n;
        }
        offset += n;
        in_segment += n;
    }
    unreachable!("record {at} is in the log")
}

/// Fresh scratch directory removed on drop, unique per process + thread so
/// parallel proptest cases cannot collide.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hbc-wal-prop-{tag}-{}-{:?}",
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

/// Segment files in index order (the documented `<16-digit index>.wal`
/// naming contract).
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    out.sort();
    out
}

/// Writes `records` into a fresh log at `dir` with the given segment size.
fn write_log(dir: &Path, records: &[WalRecord], segment_bytes: u64) {
    let cfg = WalConfig::new(dir).segment_bytes(segment_bytes);
    let (mut wal, rec) = Wal::open(cfg).unwrap();
    assert!(rec.records.is_empty());
    for r in records {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
}

/// Asserts `got` is a (possibly complete) prefix of `want`.
fn assert_prefix(got: &[WalRecord], want: &[WalRecord]) {
    assert!(
        got.len() <= want.len() && got == &want[..got.len()],
        "recovered records are not a prefix: got {} records, want {}",
        got.len(),
        want.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_any_segment_size(
        record_seed in any::<u64>(),
        num_records in 1usize..=24,
        segment_bytes in 16u64..=4096,
    ) {
        let tmp = TempDir::new("roundtrip");
        let mut state = record_seed;
        let records: Vec<WalRecord> =
            (0..num_records).map(|_| record_from(&mut state)).collect();
        write_log(&tmp.0, &records, segment_bytes);

        let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        prop_assert_eq!(&rec.records, &records);
        prop_assert!(!rec.truncated);
    }

    #[test]
    fn truncation_at_any_offset_recovers_a_valid_prefix(
        record_seed in any::<u64>(),
        cut_seed in any::<u64>(),
        num_records in 1usize..=16,
        segment_bytes in 16u64..=1024,
    ) {
        let tmp = TempDir::new("cut");
        let mut state = record_seed;
        let records: Vec<WalRecord> =
            (0..num_records).map(|_| record_from(&mut state)).collect();
        write_log(&tmp.0, &records, segment_bytes);

        // Pick a global byte offset and truncate the log there: shorten the
        // segment that contains it, delete everything after — exactly the
        // disk state a crash mid-write plus lost trailing segments leaves.
        let files = segment_files(&tmp.0);
        let total: u64 = files.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        let mut cut_state = cut_seed;
        let mut cut = next(&mut cut_state) % (total + 1);
        for path in &files {
            let len = fs::metadata(path).unwrap().len();
            if cut >= len {
                cut -= len;
                continue;
            }
            let f = OpenOptions::new().write(true).open(path).unwrap();
            f.set_len(cut).unwrap();
            cut = 0;
            // Keep later segments on disk: recovery must discard them
            // itself once it hits the torn segment.
        }

        let (mut wal, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert_prefix(&rec.records, &records);
        let recovered = rec.records;

        // The log must remain appendable, and a clean reopen must agree.
        let extra = WalRecord::SessionClose { token: 0x5EED };
        wal.append(&extra).unwrap();
        drop(wal);
        let (_, rec2) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        prop_assert!(!rec2.truncated, "recovery must be idempotent");
        let mut want = recovered;
        want.push(extra);
        prop_assert_eq!(&rec2.records, &want);
    }

    #[test]
    fn any_bit_flip_recovers_a_valid_prefix(
        record_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        num_records in 1usize..=16,
        segment_bytes in 16u64..=1024,
    ) {
        let tmp = TempDir::new("flip");
        let mut state = record_seed;
        let records: Vec<WalRecord> =
            (0..num_records).map(|_| record_from(&mut state)).collect();
        write_log(&tmp.0, &records, segment_bytes);

        // Flip one bit at a global pseudo-random position.
        let files = segment_files(&tmp.0);
        let total: u64 = files.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        let mut flip_state = flip_seed;
        let mut bit = next(&mut flip_state) % (total * 8);
        for path in &files {
            let len = fs::metadata(path).unwrap().len() * 8;
            if bit >= len {
                bit -= len;
                continue;
            }
            let mut bytes = fs::read(path).unwrap();
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            fs::write(path, &bytes).unwrap();
            break;
        }

        // A read-only scan and a truncating open must agree on the prefix
        // and neither may panic.
        let scanned = scan(&tmp.0).unwrap();
        assert_prefix(&scanned.records, &records);
        let (_, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        assert_prefix(&rec.records, &records);
        prop_assert_eq!(&rec.records, &scanned.records);
        prop_assert_eq!(rec.bytes_truncated, scanned.bytes_truncated);

        let (_, rec2) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        prop_assert!(!rec2.truncated, "recovery must be idempotent");
        prop_assert_eq!(&rec2.records, &rec.records);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn logs_larger_than_the_scan_buffer_recover_a_valid_prefix(
        record_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        num_records in 8usize..=32,
        segment_kib in 16u64..=512,
        fault in 0u8..3,
    ) {
        let tmp = TempDir::new("large");
        let mut state = record_seed;
        let (records, at) = large_log(&mut state, num_records);
        write_log(&tmp.0, &records, segment_kib << 10);
        let large = record_range(&records, segment_kib << 10, at);

        // Faults land inside the record larger than the read buffer half
        // the time, anywhere in the log otherwise.
        let files = segment_files(&tmp.0);
        let total: u64 = files.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        prop_assert!(total > 64 << 10, "the log must exceed the read buffer");
        let mut fault_state = fault_seed;
        let mut at = if next(&mut fault_state).is_multiple_of(2) {
            large.start + next(&mut fault_state) % (large.end - large.start)
        } else {
            next(&mut fault_state) % total
        };
        for path in &files {
            let len = fs::metadata(path).unwrap().len();
            if at >= len {
                at -= len;
                continue;
            }
            match fault {
                // Torn tail: later segments stay for recovery to discard.
                1 => OpenOptions::new().write(true).open(path).unwrap().set_len(at).unwrap(),
                2 => {
                    let mut bytes = fs::read(path).unwrap();
                    bytes[at as usize] ^= 1 << (next(&mut fault_state) % 8);
                    fs::write(path, &bytes).unwrap();
                }
                _ => {}
            }
            break;
        }

        let scanned = scan(&tmp.0).unwrap();
        assert_prefix(&scanned.records, &records);
        let (mut wal, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        prop_assert_eq!(&rec.records, &scanned.records);
        prop_assert_eq!(rec.truncated, scanned.truncated);
        prop_assert_eq!(rec.bytes_truncated, scanned.bytes_truncated);
        if fault == 0 {
            prop_assert_eq!(&rec.records, &records);
            prop_assert!(!rec.truncated);
        }

        let extra = WalRecord::SessionClose { token: 0x5EED };
        wal.append(&extra).unwrap();
        drop(wal);
        let (_, rec2) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        prop_assert!(!rec2.truncated, "recovery must be idempotent");
        let mut want = rec.records;
        want.push(extra);
        prop_assert_eq!(&rec2.records, &want);
    }
}

/// A segment of format 1: header-less, `len u32 | tag | body | crc32`
/// records, `Samples` codes as raw `i16`s behind a `u32` count.
fn format_1_segment(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        let (tag, mut body) = match r {
            WalRecord::SessionOpen {
                token,
                wire_id,
                patient_id,
                calib_len,
                fs_millihertz,
            } => {
                let mut b = token.to_le_bytes().to_vec();
                for v in [wire_id, patient_id, calib_len, fs_millihertz] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
                (1u8, b)
            }
            WalRecord::Samples { token, seq, codes } => {
                let mut b = token.to_le_bytes().to_vec();
                b.extend_from_slice(&seq.to_le_bytes());
                b.extend_from_slice(&(codes.len() as u32).to_le_bytes());
                for c in codes {
                    b.extend_from_slice(&c.to_le_bytes());
                }
                (2, b)
            }
            WalRecord::SessionClose { token } => (3, token.to_le_bytes().to_vec()),
        };
        body.insert(0, tag);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
    }
    out
}

/// Every file of `dir` with its bytes, by name.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    segment_files(dir)
        .into_iter()
        .map(|p| {
            let bytes = fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_log_in_another_format_is_refused_and_left_byte_identical(
        record_seed in any::<u64>(),
        num_records in 1usize..=16,
        segment_bytes in 16u64..=1024,
        pick in any::<u64>(),
        kind in 0u8..3,
    ) {
        let tmp = TempDir::new("foreign");
        let mut state = record_seed;
        let records: Vec<WalRecord> =
            (0..num_records).map(|_| record_from(&mut state)).collect();
        let want = match kind {
            // A whole format-1 log, as a format-1 gateway left it.
            0 => {
                fs::create_dir_all(&tmp.0).unwrap();
                let at = records.len() / 2;
                fs::write(tmp.0.join("0000000000000000.wal"), format_1_segment(&records[..at]))
                    .unwrap();
                fs::write(tmp.0.join("0000000000000001.wal"), format_1_segment(&records[at..]))
                    .unwrap();
                None
            }
            // One segment of a format-2 log swapped for a format-1 one, or
            // re-headed with another version (header and complement
            // consistent, so no bit flip).
            _ => {
                write_log(&tmp.0, &records, segment_bytes);
                let files = segment_files(&tmp.0);
                let path = &files[(pick % files.len() as u64) as usize];
                if kind == 1 {
                    fs::write(path, format_1_segment(&records[..1])).unwrap();
                    None
                } else {
                    let version = LOG_FORMAT_VERSION + 1 + (pick >> 32) as u16 % 100;
                    let mut bytes = fs::read(path).unwrap();
                    bytes[4..6].copy_from_slice(&version.to_le_bytes());
                    bytes[6..8].copy_from_slice(&(!version).to_le_bytes());
                    fs::write(path, &bytes).unwrap();
                    Some(version)
                }
            }
        };
        let before = snapshot(&tmp.0);
        let check = |r: Result<(), WalError>| match r {
            Err(WalError::UnsupportedFormat { version, .. }) => {
                prop_assert_eq!(version, want);
                Ok(())
            }
            other => Err(TestCaseError::fail(format!("expected a refusal, got {other:?}"))),
        };
        check(scan(&tmp.0).map(drop))?;
        check(scan_with(&tmp.0, |_| {}).map(drop))?;
        check(Wal::open(WalConfig::new(&tmp.0)).map(drop))?;
        prop_assert_eq!(snapshot(&tmp.0), before, "a refused log is left as it was");
    }

    #[test]
    fn an_empty_last_segment_reads_as_empty(
        record_seed in any::<u64>(),
        num_records in 0usize..=16,
        segment_bytes in 16u64..=1024,
    ) {
        let tmp = TempDir::new("emptylast");
        let mut state = record_seed;
        let records: Vec<WalRecord> =
            (0..num_records).map(|_| record_from(&mut state)).collect();
        write_log(&tmp.0, &records, segment_bytes);
        let next = segment_files(&tmp.0).len();
        fs::write(tmp.0.join(format!("{next:016}.wal")), b"").unwrap();

        let scanned = scan(&tmp.0).unwrap();
        prop_assert_eq!(&scanned.records, &records);
        prop_assert!(!scanned.truncated);
        let (mut wal, rec) = Wal::open(WalConfig::new(&tmp.0)).unwrap();
        prop_assert_eq!(&rec.records, &records);
        prop_assert!(!rec.truncated);
        prop_assert_eq!(wal.active_segment(), next as u64);
        let extra = WalRecord::SessionClose { token: 0x5EED };
        wal.append(&extra).unwrap();
        drop(wal);
        let mut want = records;
        want.push(extra);
        prop_assert_eq!(&scan(&tmp.0).unwrap().records, &want);
    }
}

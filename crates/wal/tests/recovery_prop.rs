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
//!   on the records and on the bytes they discard.

use std::fs::{self, OpenOptions};
use std::ops::Range;
use std::path::{Path, PathBuf};

use hbc_wal::{scan, Wal, WalConfig, WalRecord};
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
/// the records and the byte range the large one occupies in the
/// concatenated segments (rotation adds no bytes between records).
fn large_log(state: &mut u64, num_records: usize) -> (Vec<WalRecord>, Range<u64>) {
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
    let start: u64 = records[..at].iter().map(|r| r.encode().len() as u64).sum();
    let end = start + records[at].encode().len() as u64;
    (records, start..end)
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
        let (records, large) = large_log(&mut state, num_records);
        write_log(&tmp.0, &records, segment_kib << 10);

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

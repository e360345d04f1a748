//! Property-based wire-protocol guarantees:
//!
//! * encode → [`FrameDecoder`] across **arbitrary byte-chunk splits** equals
//!   the original frame sequence (the decoder is a pure function of the byte
//!   stream, not of its chunking);
//! * malformed input — flipped bits (CRC), truncation, oversized lengths,
//!   unknown tags — errors without panicking and never yields a phantom
//!   frame;
//! * the v5 body codec: extreme sample runs round-trip, every body the
//!   decoder accepts re-encodes to the identical bytes (one serialisation
//!   per frame), and non-canonical or out-of-range varints, and every
//!   off-rule Rice bitstream, are `Malformed`;
//! * a hostile `Samples` body allocates no more than a legal frame;
//! * the v6 envelopes: the handshake travels fixed and everything else
//!   compact, compact length prefixes are rejected as soon as they are
//!   known to be zero, overlong or too long, and the wire and the durable
//!   log carry one sample payload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hbc_net::proto::{
    crc32, Frame, FrameDecoder, ProtoError, WireOutcome, WireReport, MAX_FRAME_LEN,
    MAX_SAMPLES_PER_FRAME, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Records the largest single allocation (alloc or realloc) of each
/// thread, so one test can bound what decoding a frame acquires without
/// seeing the other tests' threads.
struct PeakAllocator;

thread_local! {
    /// The largest allocation of this thread since the last reset.
    /// Const-initialised and drop-free, so touching it never allocates.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// SplitMix64 step, the workspace's stock deterministic generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically builds one of every frame kind from a seed.
fn frame_from(state: &mut u64) -> Frame {
    match next(state) % 12 {
        0 => Frame::Hello {
            version: next(state) as u16,
        },
        1 => Frame::OpenSession {
            patient_id: next(state) as u32,
            fs_millihertz: next(state) as u32,
            calib_len: next(state) as u32,
        },
        2 => {
            let n = (next(state) % 300) as usize;
            Frame::Samples {
                session: next(state) as u32,
                seq: next(state) as u32,
                samples: (0..n).map(|_| next(state) as i16).collect(),
            }
        }
        3 => Frame::CloseSession {
            session: next(state) as u32,
        },
        4 => Frame::SessionOpened {
            session: next(state) as u32,
            credit: next(state) as u32,
            token: next(state),
        },
        5 => Frame::Credit {
            session: next(state) as u32,
            grant: next(state) as u32,
            acked_seq: next(state) as u32,
        },
        9 => Frame::ResumeSession {
            patient_id: next(state) as u32,
            session_token: next(state),
            last_acked_seq: next(state) as u32,
            outcomes_received: next(state),
        },
        10 => Frame::SessionResumed {
            session: next(state) as u32,
            next_expected_seq: next(state) as u32,
            credit: next(state) as u32,
        },
        11 => Frame::Busy {
            retry_after_ms: next(state) as u32,
        },
        6 => {
            let n = (next(state) % 40) as usize;
            Frame::Outcomes {
                session: next(state) as u32,
                outcomes: (0..n)
                    .map(|_| WireOutcome {
                        peak: next(state),
                        class: (next(state) % 4) as u8,
                        delineated: next(state) & 1 == 1,
                        fiducials: next(state) as u16,
                    })
                    .collect(),
            }
        }
        7 => Frame::Report {
            session: next(state) as u32,
            report: WireReport {
                beats: next(state),
                forwarded: next(state),
                samples: next(state),
            },
        },
        _ => {
            let n = (next(state) % 60) as usize;
            Frame::Deny {
                message: (0..n)
                    .map(|_| char::from(b'a' + (next(state) % 26) as u8))
                    .collect(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn round_trip_is_chunking_invariant(
        frame_seed in any::<u64>(),
        split_seed in any::<u64>(),
        num_frames in 1usize..=12,
    ) {
        let mut state = frame_seed;
        let frames: Vec<Frame> = (0..num_frames).map(|_| frame_from(&mut state)).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }

        // Feed the byte stream in pseudo-random ragged chunks (including
        // empty ones) and pop frames as they complete.
        let mut decoder = FrameDecoder::new();
        let mut seen = Vec::new();
        let mut split_state = split_seed;
        let mut at = 0usize;
        while at < bytes.len() {
            let n = (next(&mut split_state) % 23) as usize;
            let end = (at + n).min(bytes.len());
            decoder.feed(&bytes[at..end]);
            at = end;
            while let Some(f) = decoder.next_frame().expect("valid stream") {
                seen.push(f);
            }
        }
        prop_assert_eq!(&seen, &frames);
        prop_assert_eq!(decoder.buffered(), 0);
        decoder.expect_eof().expect("no residue");
    }

    #[test]
    fn duplicated_and_reordered_frames_decode_verbatim_at_any_split(
        frame_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        split_seed in any::<u64>(),
        num_frames in 1usize..=8,
    ) {
        // A chaos proxy can repeat a frame or swap two of them on the wire.
        // The decoder's contract is to hand every syntactically valid frame
        // up **verbatim and in wire order** — deduplication and sequencing
        // are the session layer's job (`seq` numbers), not the framer's.
        let mut state = frame_seed;
        let originals: Vec<Frame> = (0..num_frames).map(|_| frame_from(&mut state)).collect();

        // Build a duplicated + reordered delivery schedule.
        let mut shuffle_state = shuffle_seed;
        let mut delivery: Vec<Frame> = Vec::new();
        for f in &originals {
            delivery.push(f.clone());
            if next(&mut shuffle_state).is_multiple_of(3) {
                delivery.push(f.clone()); // duplicate
            }
        }
        // Fisher–Yates with the deterministic generator.
        for i in (1..delivery.len()).rev() {
            let j = (next(&mut shuffle_state) % (i as u64 + 1)) as usize;
            delivery.swap(i, j);
        }

        let mut bytes = Vec::new();
        for f in &delivery {
            f.encode_into(&mut bytes);
        }

        let mut decoder = FrameDecoder::new();
        let mut seen = Vec::new();
        let mut split_state = split_seed;
        let mut at = 0usize;
        while at < bytes.len() {
            let n = (next(&mut split_state) % 17) as usize;
            let end = (at + n).min(bytes.len());
            decoder.feed(&bytes[at..end]);
            at = end;
            while let Some(f) = decoder.next_frame().expect("valid stream") {
                seen.push(f);
            }
        }
        prop_assert_eq!(&seen, &delivery);
        decoder.expect_eof().expect("no residue");
    }

    #[test]
    fn flipping_any_bit_errors_or_shortens_never_panics(
        frame_seed in any::<u64>(),
        flip_seed in any::<u64>(),
    ) {
        let mut state = frame_seed;
        let frame = frame_from(&mut state);
        let mut bytes = frame.encode();
        let mut flip_state = flip_seed;
        let bit = (next(&mut flip_state) % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);

        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        // The decoder must terminate without panicking: either it errors, or
        // it waits for more bytes (length-field flips that grew the frame),
        // or — only when the flip landed in the length field shrinking the
        // frame — it may misparse; it must never silently return the
        // original frame as if nothing happened unless the flip was undone
        // by the CRC (impossible for a single bit).
        match decoder.next_frame() {
            Ok(Some(decoded)) => prop_assert!(
                decoded != frame,
                "single bit flip went unnoticed"
            ),
            Ok(None) => {} // waiting for bytes that will never come
            Err(_) => {}   // detected
        }
    }

    #[test]
    fn truncation_never_yields_a_frame(
        frame_seed in any::<u64>(),
        cut in 0usize..=64,
    ) {
        let mut state = frame_seed;
        let frame = frame_from(&mut state);
        let bytes = frame.encode();
        if cut == 0 || cut >= bytes.len() {
            return Ok(());
        }
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes[..bytes.len() - cut]);
        prop_assert_eq!(decoder.next_frame().expect("incomplete, not invalid"), None);
        prop_assert!(matches!(
            decoder.expect_eof(),
            Err(ProtoError::Truncated { .. })
        ));
    }
}

#[test]
fn oversized_length_is_rejected_before_buffering() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    bytes.extend_from_slice(&[0; 64]);
    let mut decoder = FrameDecoder::new();
    decoder.feed(&bytes);
    assert!(matches!(
        decoder.next_frame(),
        Err(ProtoError::BadLength { .. })
    ));
}

#[test]
fn unknown_tag_with_valid_crc_is_rejected() {
    // 0x05 (ResumeSession) and 0x86 (SessionResumed) are assigned tags since
    // protocol v2, but an empty body is malformed for both — still rejected.
    for tag in [0x00u8, 0x05, 0x42, 0x80, 0x86, 0xFF] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(tag);
        bytes.extend_from_slice(&crc32(&[tag]).to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        assert!(
            matches!(
                decoder.next_frame(),
                Err(ProtoError::UnknownTag(_)) | Err(ProtoError::Malformed(_))
            ),
            "tag {tag:#04x} must be rejected"
        );
    }
}

#[test]
fn hello_round_trips_with_the_shipped_version() {
    let frame = Frame::Hello {
        version: PROTOCOL_VERSION,
    };
    let mut decoder = FrameDecoder::new();
    decoder.feed(&frame.encode());
    assert_eq!(decoder.next_frame().expect("valid"), Some(frame));
}

/// A frame with an arbitrary tag and body under a valid envelope: the
/// fixed one (`len u32`) for Hello, the compact one (`len` varint) for
/// every other tag.
fn framed(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = if tag == 0x01 {
        (body.len() as u32 + 1).to_le_bytes().to_vec()
    } else {
        varint(body.len() as u64 + 1)
    };
    let payload = bytes.len();
    bytes.push(tag);
    bytes.extend_from_slice(body);
    let crc = crc32(&bytes[payload..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

fn decode_one(bytes: &[u8]) -> Result<Option<Frame>, ProtoError> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    decoder.next_frame()
}

fn assert_samples_round_trip(samples: Vec<i16>, label: &str) {
    let frame = Frame::Samples {
        session: 3,
        seq: 7,
        samples,
    };
    let bytes = frame.encode();
    let decoded = decode_one(&bytes);
    assert_eq!(decoded, Ok(Some(frame)), "{label}");
    let decoded = decoded.expect("decoded").expect("a frame");
    assert_eq!(decoded.encode(), bytes, "{label}: re-encoding");
}

fn zigzag(d: i32) -> u32 {
    ((d << 1) ^ (d >> 31)) as u32
}

/// LSB-first bits, for hand-built `Samples` bitstreams.
#[derive(Default)]
struct Bits {
    bytes: Vec<u8>,
    len: usize,
}

impl Bits {
    fn put(&mut self, value: u64, width: usize) {
        for i in 0..width {
            if self.len.is_multiple_of(8) {
                self.bytes.push(0);
            }
            if value >> i & 1 == 1 {
                *self.bytes.last_mut().expect("a byte") |= 1 << (self.len % 8);
            }
            self.len += 1;
        }
    }

    /// One Rice code: `z >> k` zero bits, a one bit, the low `k` bits.
    fn code(&mut self, z: u64, k: usize) {
        for _ in 0..z >> k {
            self.put(0, 1);
        }
        self.put(1, 1);
        self.put(z & ((1 << k) - 1), k);
    }
}

/// A `Samples` body (session 1, seq 0) whose first code is `first` and
/// whose bitstream is `k` followed by `zs` Rice-coded with `k` — any `k`,
/// so off-rule streams can be built — zero-padded to the byte.
fn rice_body(first: i32, k: usize, zs: &[u64]) -> Vec<u8> {
    let mut body = vec![1, 0];
    body.extend(varint(u64::from(zigzag(first))));
    let mut bits = Bits::default();
    bits.put(k as u64, 4);
    for &z in zs {
        bits.code(z, k);
    }
    body.extend(bits.bytes);
    body
}

/// The rule's Rice parameter for these deltas.
fn rule_k(zs: &[u64]) -> usize {
    let (m, sum) = (zs.len() as u64, zs.iter().sum::<u64>());
    (0..=15).find(|&k| m << (k + 1) >= sum).unwrap_or(15)
}

/// Unsigned LEB128, for hand-built bodies.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

#[test]
fn extreme_sample_runs_round_trip() {
    let alternating: Vec<i16> = (0..500)
        .map(|i| if i % 2 == 0 { i16::MIN } else { i16::MAX })
        .collect();
    assert_samples_round_trip(alternating, "i16::MIN <-> i16::MAX");
    for c in [i16::MIN, -1, 0, 1, i16::MAX] {
        assert_samples_round_trip(vec![c; 300], "constant run");
    }
    assert_samples_round_trip(Vec::new(), "empty frame");
    assert_samples_round_trip(vec![i16::MAX], "single extreme code");
    assert_samples_round_trip(vec![i16::MIN], "single extreme code");
    assert_samples_round_trip(vec![i16::MIN, i16::MAX], "two codes, largest delta");
    let jumps: Vec<i16> = (0..36)
        .map(|i| if i % 2 == 0 { -4095 } else { 4095 })
        .collect();
    assert_samples_round_trip(jumps, "±4095 jumps");
    let staircase: Vec<i16> = (0..36).map(|i| (i * 4095 % 8191 - 4095) as i16).collect();
    assert_samples_round_trip(staircase, "36 codes, large steps");
    for n in [1, 2, 36, MAX_SAMPLES_PER_FRAME] {
        let wave: Vec<i16> = (0..n).map(|i| (i % 97) as i16 * 11 - 500).collect();
        assert_samples_round_trip(wave, "frame length");
    }
    // A unary part longer than 64 bits: k = 0 over 199 zero deltas and
    // one of z = 200.
    let mut long = vec![5i16; 200];
    long.push(105);
    let mut zs = vec![0; 199];
    zs.push(200);
    assert_eq!(rule_k(&zs), 0);
    let frame = Frame::Samples {
        session: 1,
        seq: 0,
        samples: long.clone(),
    };
    assert_eq!(frame.encode(), framed(0x03, &rice_body(5, 0, &zs)));
    assert_samples_round_trip(long, "unary part past 64 bits");
    let mut state = 0x5EED;
    for walk in 0..32 {
        let step = 1 + (walk * 97) % 4096;
        let mut code = 0i32;
        let samples: Vec<i16> = (0..400)
            .map(|_| {
                let d = (next(&mut state) % (2 * step + 1)) as i32 - step as i32;
                code = (code + d).clamp(i16::MIN.into(), i16::MAX.into());
                code as i16
            })
            .collect();
        assert_samples_round_trip(samples, "random walk");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_accepted_body_re_encodes_to_identical_bytes(
        body_seed in any::<u64>(),
        fields in 0usize..=48,
    ) {
        let mut state = body_seed;
        let tag = TAGS[(next(&mut state) % TAGS.len() as u64) as usize];
        let body = random_body(&mut state, fields);
        let bytes = framed(tag, &body);
        match decode_one(&bytes) {
            Ok(Some(frame)) => prop_assert_eq!(frame.encode(), bytes),
            Ok(None) => prop_assert!(false, "a whole frame must decode or fail"),
            Err(ProtoError::Malformed(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        }
    }
}

/// Every tag the protocol assigns.
const TAGS: [u8; 12] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
];

/// A body of up to `fields` items (a few, half the time, so fixed-arity
/// frames match often): mostly canonical varints of every magnitude, with
/// overlong varints, stray continuation bytes, zero and `0xFF` bytes mixed
/// in, so the decoder's acceptances and rejections are both exercised.
fn random_body(state: &mut u64, fields: usize) -> Vec<u8> {
    let fields = if next(state).is_multiple_of(2) {
        fields % 6
    } else {
        fields
    };
    let mut body = Vec::new();
    for _ in 0..fields {
        match next(state) % 10 {
            0..=3 => body.extend(varint(next(state) % 300)),
            4 | 5 => {
                let bits = next(state) % 65;
                body.extend(varint(next(state).checked_shr(bits as u32).unwrap_or(0)));
            }
            6 => {
                let mut v = varint(next(state) % 1000);
                *v.last_mut().expect("non-empty") |= 0x80;
                v.push(0x00);
                body.extend(v);
            }
            7 => body.push(0x80 | next(state) as u8),
            8 => body.push(0x00),
            _ => body.push(0xFF),
        }
    }
    body
}

#[test]
fn random_bodies_are_accepted_often_enough_to_check_canonicality() {
    let mut accepted = [0usize; TAGS.len()];
    let mut state = 0xC0FFEE;
    for _ in 0..12_000 {
        let ti = (next(&mut state) % TAGS.len() as u64) as usize;
        let fields = (next(&mut state) % 49) as usize;
        let body = random_body(&mut state, fields);
        if let Ok(Some(frame)) = decode_one(&framed(TAGS[ti], &body)) {
            assert_eq!(frame.encode(), framed(TAGS[ti], &body));
            accepted[ti] += 1;
        }
    }
    for (tag, n) in TAGS.iter().zip(accepted) {
        assert!(
            n >= 10,
            "tag {tag:#04x}: only {n} of ~1000 random bodies accepted"
        );
    }
}

#[test]
fn non_canonical_and_out_of_range_varints_are_malformed() {
    let rejects = |bytes: &[u8], why: &str| match decode_one(bytes) {
        Err(ProtoError::Malformed(what)) => assert_eq!(what, why),
        other => panic!("expected Malformed({why:?}), got {other:?}"),
    };
    // Overlong: every u32 field of Credit, with 5 spelled in two bytes.
    for field in 0..3 {
        let mut body = Vec::new();
        for i in 0..3 {
            if i == field {
                body.extend_from_slice(&[0x85, 0x00]);
            } else {
                body.push(5);
            }
        }
        rejects(&framed(0x82, &body), "overlong varint");
    }
    // Overlong u64: a ResumeSession token of 1 padded to ten bytes.
    let mut body = vec![1, 0x81];
    body.extend_from_slice(&[0x80; 8]);
    body.extend_from_slice(&[0x00, 0, 0]);
    rejects(&framed(0x05, &body), "overlong varint");
    // Past the field's type: each u32 field of OpenSession, a u16
    // fiducial count, a Report u64, a sample delta.
    for field in 0..3 {
        let mut body = Vec::new();
        for i in 0..3 {
            body.extend(varint(if i == field { 1 << 32 } else { 9 }));
        }
        rejects(&framed(0x02, &body), "varint past u32");
    }
    rejects(
        &framed(0x83, &[1, 10, 0, 0x80, 0x80, 0x04]),
        "varint past u16",
    );
    let mut body = vec![1];
    body.extend_from_slice(&[0xFF; 9]);
    body.extend_from_slice(&[0x02, 0, 0]);
    rejects(&framed(0x84, &body), "varint past 64 bits");
    rejects(
        &framed(0x03, &[1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]),
        "varint past u32",
    );
    // Truncation mid-varint: the last field's continuation never ends —
    // also the first sample code, the one varint of the sample payload.
    rejects(&framed(0x82, &[1, 36, 0x80]), "body ends inside a varint");
    rejects(&framed(0x03, &[1, 0, 0x80]), "body ends inside a varint");
    // Overlong: the first sample code, 2 spelled in two bytes.
    rejects(&framed(0x03, &[1, 0, 0x82, 0x00]), "overlong varint");
    // Deltas stepping outside i16 on either side in the bitstream (under
    // the rule's k, so only the range is wrong), or the first code in one
    // jump from 0.
    let i16_range = "sample delta leaves the i16 range";
    rejects(&framed(0x03, &rice_body(32_767, 0, &[2])), i16_range); // +1
    rejects(&framed(0x03, &rice_body(-32_768, 0, &[1])), i16_range); // -1
    let far = [u64::from(zigzag(40_000))];
    rejects(&framed(0x03, &rice_body(0, rule_k(&far), &far)), i16_range);
    let mut jump = vec![1, 0];
    jump.extend(varint(2 * 70_000)); // +70000 from 0
    rejects(&framed(0x03, &jump), i16_range);
}

/// Each way a `Samples` bitstream can break the format, one by one.
#[test]
fn off_rule_sample_bitstreams_are_malformed() {
    let rejects = |body: &[u8], why: &str| match decode_one(&framed(0x03, body)) {
        Err(ProtoError::Malformed(what)) => assert_eq!(what, why),
        other => panic!("expected Malformed({why:?}), got {other:?}"),
    };
    let zs = [6u64; 35];
    let k = rule_k(&zs);
    assert_eq!(k, 2);
    let legal = rice_body(300, k, &zs);
    assert!(matches!(
        decode_one(&framed(0x03, &legal)),
        Ok(Some(Frame::Samples { .. }))
    ));
    // Any k but the rule's, with the same deltas.
    for other in (0..16).filter(|&o| o != k) {
        rejects(
            &rice_body(300, other, &zs),
            "Rice parameter is not the frame's",
        );
    }
    // Padding: non-zero (in the last four bits, a one bit with too few
    // bits after it for k = 2), or a whole zero byte past the last code.
    let mut bits = Bits::default();
    bits.put(2, 4);
    bits.code(6, 2);
    bits.code(6, 2);
    bits.put(0b1000, 4);
    assert_eq!(bits.len, 16);
    let mut body = vec![1, 0];
    body.extend(varint(600));
    body.extend(&bits.bytes);
    rejects(&body, "non-zero padding");
    let mut long_padding = legal.clone();
    long_padding.push(0);
    rejects(&long_padding, "padding of 8 bits or more");
    // A bitstream after a one-code body: the four bits of k and nothing.
    rejects(&[1, 0, 2, 0x00], "bitstream after a one-code body");
    // A code cut off by the end of the body: at k = 15, the one bit of a
    // code with eleven of its fifteen low bits left in the body.
    let mut bits = Bits::default();
    bits.put(15, 4);
    bits.put(1, 1);
    bits.put(0, 11);
    assert_eq!(bits.len % 8, 0);
    let mut body = vec![1, 0, 0];
    body.extend(&bits.bytes);
    rejects(&body, "body ends inside a code");
    // A unary part that never ends: zeros to the end of the body.
    let mut body = vec![1, 0, 0, 0x00];
    body.extend([0u8; 12]);
    rejects(&body, "padding of 8 bits or more");
    // One code more than a frame may carry.
    let flat = vec![0u64; MAX_SAMPLES_PER_FRAME];
    assert_eq!(rule_k(&flat), 0);
    rejects(
        &rice_body(0, 0, &flat),
        "more than MAX_SAMPLES_PER_FRAME samples",
    );
    let within = &flat[..MAX_SAMPLES_PER_FRAME - 1];
    assert!(decode_one(&framed(0x03, &rice_body(0, 0, within))).is_ok());
}

#[test]
fn a_hostile_samples_body_allocates_no_more_than_a_legal_frame() {
    // Peak single allocation of decoding `bytes` (the decoder's buffer is
    // filled first, so only the frame's own allocations are seen).
    let decode_peak = |bytes: &[u8]| {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        LARGEST.with(|largest| largest.set(0));
        let result = decoder.next_frame();
        let peak = LARGEST.with(Cell::get);
        (result, peak)
    };
    let legal = Frame::Samples {
        session: 1,
        seq: 0,
        samples: vec![0; MAX_SAMPLES_PER_FRAME],
    }
    .encode();
    let (frame, legal_peak) = decode_peak(&legal);
    assert!(matches!(frame, Ok(Some(Frame::Samples { .. }))));
    // The largest body a frame can have, k = 0 and every bit a code: eight
    // codes per byte, ~8.4 M codes if the decoder believed it.
    let mut body = vec![1, 0, 0, 0xF0];
    body.resize(MAX_FRAME_LEN - 1, 0xFF);
    let (rejected, hostile_peak) = decode_peak(&framed(0x03, &body));
    assert_eq!(
        rejected,
        Err(ProtoError::Malformed(
            "more than MAX_SAMPLES_PER_FRAME samples"
        ))
    );
    assert!(
        hostile_peak <= legal_peak,
        "hostile body took {hostile_peak} B at once, a legal frame {legal_peak} B"
    );
    assert!(legal_peak >= MAX_SAMPLES_PER_FRAME * 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn samples_encode_to_the_reference_layout(
        seed in any::<u64>(),
        n in 1usize..=300,
        scale in 0u32..=16,
    ) {
        // Deltas of every magnitude up to full scale, against the
        // bit-at-a-time reference writer.
        let mut state = seed;
        let mut code = i32::from(next(&mut state) as i16);
        let mut samples = vec![code as i16];
        let mut zs = Vec::new();
        for _ in 1..n {
            let step = (next(&mut state) % (1 << scale)) as i32;
            let d = if next(&mut state) & 1 == 1 { step } else { -step };
            let to = (code + d).clamp(i16::MIN.into(), i16::MAX.into());
            zs.push(u64::from(zigzag(to - code)));
            code = to;
            samples.push(code as i16);
        }
        let expected = if zs.is_empty() {
            let mut body = vec![1, 0];
            body.extend(varint(u64::from(zigzag(samples[0].into()))));
            body
        } else {
            rice_body(samples[0].into(), rule_k(&zs), &zs)
        };
        let frame = Frame::Samples { session: 1, seq: 0, samples };
        prop_assert_eq!(frame.encode(), framed(0x03, &expected));
    }

    #[test]
    fn every_accepted_sample_bitstream_re_encodes_to_identical_bytes(
        seed in any::<u64>(),
        n in 0usize..=80,
        padding in 0usize..=10,
    ) {
        // Random deltas under the rule's k most of the time, any k
        // otherwise, with random trailing bits: whatever the decoder
        // accepts must be the one serialisation of what it decoded.
        let mut state = seed;
        let scale = next(&mut state) % 17;
        let zs: Vec<u64> = (0..n).map(|_| next(&mut state) % (1 << scale)).collect();
        let k = if next(&mut state).is_multiple_of(4) {
            (next(&mut state) % 16) as usize
        } else if zs.is_empty() {
            0
        } else {
            rule_k(&zs)
        };
        let mut body = vec![1, 0];
        body.extend(varint(next(&mut state) % 70_000));
        let mut bits = Bits::default();
        bits.put(k as u64, 4);
        for &z in &zs {
            bits.code(z, k);
        }
        bits.put(next(&mut state) & ((1 << padding) - 1), padding);
        body.extend(bits.bytes);
        let bytes = framed(0x03, &body);
        match decode_one(&bytes) {
            Ok(Some(frame)) => prop_assert_eq!(frame.encode(), bytes),
            Ok(None) => prop_assert!(false, "a whole frame must decode or fail"),
            Err(ProtoError::Malformed(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        }
    }
}

#[test]
fn hello_layout_is_the_same_in_every_protocol_version() {
    // The version field stays a little-endian u16 so that peers of any two
    // versions can tell each other apart.
    for version in [1u16, 3, 4, PROTOCOL_VERSION, 0x1234] {
        let bytes = Frame::Hello { version }.encode();
        assert_eq!(bytes, framed(0x01, &version.to_le_bytes()));
    }
}

/// A frame in the fixed envelope of protocol versions 1–5, whatever its
/// tag.
fn framed_fixed(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = (body.len() as u32 + 1).to_le_bytes().to_vec();
    bytes.push(tag);
    bytes.extend_from_slice(body);
    let crc = crc32(&bytes[4..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn the_handshake_travels_fixed_and_everything_else_compact() {
    // Hello is fixed wherever it is; Busy and Deny are fixed when they
    // answer a Hello and compact after it; both decode.
    let busy = Frame::Busy {
        retry_after_ms: 250,
    };
    let deny = Frame::Deny {
        message: "unsupported protocol version 5".into(),
    };
    for frame in [busy.clone(), deny.clone()] {
        let mut fixed = Vec::new();
        frame.encode_handshake_into(&mut fixed);
        let body = &frame.encode()[2..frame.encode().len() - 4];
        assert_eq!(fixed, framed_fixed(frame.encode()[1], body));
        assert_eq!(decode_one(&fixed), Ok(Some(frame.clone())));
        assert_eq!(frame.encode(), framed(frame.encode()[1], body));
        assert_eq!(decode_one(&frame.encode()), Ok(Some(frame)));
    }
    // Every other frame has no fixed form.
    let credit = Frame::Credit {
        session: 1,
        grant: 36,
        acked_seq: 9,
    };
    let mut bytes = Vec::new();
    credit.encode_handshake_into(&mut bytes);
    assert_eq!(bytes, credit.encode());
    // ... and is refused in it, as a Hello is refused compact.
    assert_eq!(
        decode_one(&framed_fixed(0x82, &[1, 36, 9])),
        Err(ProtoError::Malformed(
            "only Hello, Busy and Deny travel in the fixed envelope"
        ))
    );
    let mut hello = varint(3);
    hello.extend_from_slice(&[0x01, 6, 0]);
    hello.extend_from_slice(&crc32(&[0x01, 6, 0]).to_le_bytes());
    assert_eq!(
        decode_one(&hello),
        Err(ProtoError::Malformed("Hello outside the fixed envelope"))
    );
    // A Deny answering a Hello is cut to what the fixed envelope holds, at
    // a character boundary.
    let long = Frame::Deny {
        message: "é".repeat(200),
    };
    let mut bytes = Vec::new();
    long.encode_handshake_into(&mut bytes);
    assert_eq!(bytes.len(), 4 + 1 + 254 + 4);
    assert_eq!(
        decode_one(&bytes),
        Ok(Some(Frame::Deny {
            message: "é".repeat(127)
        }))
    );
}

#[test]
fn a_gateway_decoder_refuses_a_compact_first_frame_at_its_second_byte() {
    let mut decoder = FrameDecoder::awaiting_hello();
    decoder.feed(&[0x55]);
    assert_eq!(decoder.next_frame(), Ok(None));
    decoder.feed(&[0x55]);
    assert_eq!(
        decoder.next_frame(),
        Err(ProtoError::Malformed(
            "first frame outside the fixed envelope"
        ))
    );
    // After the Hello, compact frames flow.
    let mut decoder = FrameDecoder::awaiting_hello();
    let close = Frame::CloseSession { session: 4 };
    decoder.feed(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    );
    decoder.feed(&close.encode());
    assert!(matches!(
        decoder.next_frame(),
        Ok(Some(Frame::Hello { .. }))
    ));
    assert_eq!(decoder.next_frame(), Ok(Some(close)));
}

#[test]
fn compact_length_prefixes_are_rejected_as_soon_as_they_end() {
    // Zero, overlong and too-long prefixes: the prefix bytes alone, with
    // nothing after them, are enough to reject the stream.
    for (prefix, want) in [
        (&[0x00][..], ProtoError::BadLength { len: 0 }),
        (&[0x85, 0x80, 0x00], ProtoError::OverlongLength),
        (&[0x80, 0x80, 0x00], ProtoError::OverlongLength),
        (
            &[0x81, 0x80, 0x41],
            ProtoError::BadLength {
                len: 1 + (0x41 << 14),
            },
        ),
        (
            &[0xFF, 0xFF, 0xFF],
            ProtoError::BadLength {
                len: (1 << 21) - 1 + (1 << 21),
            },
        ),
    ] {
        let mut decoder = FrameDecoder::new();
        decoder.feed(prefix);
        assert_eq!(decoder.next_frame(), Err(want), "{prefix:02x?}");
    }
    // A fixed prefix past what the fixed envelope holds is rejected at its
    // third byte.
    let mut decoder = FrameDecoder::new();
    decoder.feed(&[0x00, 0x00]);
    assert_eq!(decoder.next_frame(), Err(ProtoError::BadLength { len: 0 }));
    let mut decoder = FrameDecoder::new();
    decoder.feed(&[0x05, 0x00, 0x01]);
    assert_eq!(
        decoder.next_frame(),
        Err(ProtoError::BadLength { len: 0x1_0005 })
    );
    // The largest legal length waits for its frame.
    let mut decoder = FrameDecoder::new();
    decoder.feed(&varint(MAX_FRAME_LEN as u64));
    assert_eq!(decoder.next_frame(), Ok(None));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn log_records_and_wire_frames_carry_one_sample_payload(
        seed in any::<u64>(),
        n in 0usize..=400,
        scale in 0u32..=16,
        seq in any::<u32>(),
    ) {
        // Arbitrary code runs, from flat to full-scale deltas: the wire's
        // Samples body and the log's Samples record both carry the codec's
        // payload, both round-trip, and both re-encode to the same bytes.
        let mut state = seed;
        let mut code = i32::from(next(&mut state) as i16);
        let codes: Vec<i16> = (0..n)
            .map(|_| {
                let step = (next(&mut state) % (1 << scale)) as i32;
                let d = if next(&mut state) & 1 == 1 { step } else { -step };
                code = (code + d).clamp(i16::MIN.into(), i16::MAX.into());
                code as i16
            })
            .collect();
        let mut payload = Vec::new();
        hbc_wal::codec::encode_samples(&codes, &mut payload);

        let frame = Frame::Samples { session: 1, seq, samples: codes.clone() };
        let mut body = vec![1];
        body.extend(varint(u64::from(seq)));
        body.extend_from_slice(&payload);
        let bytes = framed(0x03, &body);
        prop_assert_eq!(frame.encode(), bytes.clone());
        let decoded = decode_one(&bytes).expect("valid").expect("whole");
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded, frame);

        let record = hbc_wal::WalRecord::Samples { token: seed, seq, codes: codes.clone() };
        let encoded = record.encode();
        let split = hbc_wal::split_frame(&encoded, hbc_wal::MAX_RECORD_LEN)
            .expect("valid")
            .expect("whole");
        prop_assert_eq!(split.total, encoded.len());
        prop_assert_eq!(&split.body[..8], &seed.to_le_bytes()[..]);
        prop_assert_eq!(&split.body[8 + varint(u64::from(seq)).len()..], &payload[..]);
        prop_assert_eq!(
            hbc_wal::codec::decode_samples(&payload, MAX_SAMPLES_PER_FRAME),
            Ok(codes)
        );
        // Through a log on disk and back.
        let dir = std::env::temp_dir().join(format!(
            "hbc-proto-log-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut wal, _) = hbc_wal::Wal::open(hbc_wal::WalConfig::new(&dir)).expect("open");
        wal.append(&record).expect("append");
        drop(wal);
        let scanned = hbc_wal::scan(&dir).expect("scan").records;
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(scanned.len(), 1);
        prop_assert_eq!(scanned[0].encode(), encoded);
        prop_assert_eq!(&scanned[0], &record);
    }
}

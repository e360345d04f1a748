//! Property-based wire-protocol guarantees:
//!
//! * encode → [`FrameDecoder`] across **arbitrary byte-chunk splits** equals
//!   the original frame sequence (the decoder is a pure function of the byte
//!   stream, not of its chunking);
//! * malformed input — flipped bits (CRC), truncation, oversized lengths,
//!   unknown tags — errors without panicking and never yields a phantom
//!   frame;
//! * the v4 body codec: extreme sample runs round-trip, every body the
//!   decoder accepts re-encodes to the identical bytes (one serialisation
//!   per frame), and non-canonical or out-of-range varints are `Malformed`.

use hbc_net::proto::{
    crc32, Frame, FrameDecoder, ProtoError, WireOutcome, WireReport, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
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

/// A frame with an arbitrary tag and body under a valid envelope.
fn framed(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(body.len() + 9);
    bytes.extend_from_slice(&(body.len() as u32 + 1).to_le_bytes());
    bytes.push(tag);
    bytes.extend_from_slice(body);
    let crc = crc32(&bytes[4..]);
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
    assert_eq!(decode_one(&bytes), Ok(Some(frame)), "{label}");
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
    // Truncation mid-varint: the last field's continuation never ends.
    rejects(&framed(0x82, &[1, 36, 0x80]), "body ends inside a varint");
    rejects(&framed(0x03, &[1, 0, 2, 0x80]), "body ends inside a varint");
    // Deltas stepping outside i16 on either side, or in one jump.
    let i16_range = "sample delta leaves the i16 range";
    let mut up = vec![1, 0];
    up.extend(varint(2 * 32_767)); // +32767
    up.extend(varint(2)); // +1
    rejects(&framed(0x03, &up), i16_range);
    let mut down = vec![1, 0];
    down.extend(varint(2 * 32_768 - 1)); // -32768
    down.extend(varint(1)); // -1
    rejects(&framed(0x03, &down), i16_range);
    let mut jump = vec![1, 0];
    jump.extend(varint(2 * 70_000)); // +70000 from 0
    rejects(&framed(0x03, &jump), i16_range);
}

#[test]
fn hello_layout_is_the_same_in_every_protocol_version() {
    // The version field stays a little-endian u16 so that peers of any two
    // versions can tell each other apart.
    for version in [1u16, 3, PROTOCOL_VERSION, 0x1234] {
        let bytes = Frame::Hello { version }.encode();
        assert_eq!(bytes, framed(0x01, &version.to_le_bytes()));
    }
}

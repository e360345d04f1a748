//! The one integer and sample codec of the wire and the log.
//!
//! * **Varints.** Canonical unsigned LEB128: seven value bits per byte, low
//!   group first, the high bit set on every byte but the last. The decoder
//!   rejects overlong encodings (a multi-byte varint whose last byte is
//!   zero) and bits past 64, so every value has exactly one serialisation.
//! * **Sample payloads.** A run of ADC codes is the first code as a
//!   zigzag varint from 0, then, if more codes follow, one **Rice-coded
//!   bitstream** of the zigzag-mapped differences `z` between consecutive
//!   codes, least significant bit first:
//!
//!   ```text
//!   k (4 bits) │ per code: z >> k zero bits, a one bit, the low k bits of z │ zero padding (< 8 bits)
//!   ```
//!
//!   `k` is not free: it is the smallest `k ≤ 15` with `m · 2^(k+1) ≥ Σz`
//!   over the run's `m` deltas, so a run keeps one serialisation and
//!   averages at most ~19 bits per code. An ECG moves little between
//!   consecutive samples, so a code takes about 6 bits. There is no count
//!   field: the codes run to the end of the payload. The decoder rejects
//!   any other `k`, non-zero padding or padding of a whole byte, a
//!   bitstream after a one-code payload, a payload that ends inside a code,
//!   a delta that leaves `i16` and more codes than its caller allows.
//!
//! The wire's `Samples` frames (`hbc_net::proto`) and the log's
//! [`WalRecord::Samples`](crate::WalRecord::Samples) records carry the same
//! payload, encoded and checked by these functions.

/// Why a varint or a sample payload does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload holds more codes than the caller's limit.
    TooManyCodes,
    /// Any other departure from the one serialisation, named.
    Malformed(&'static str),
}

/// Appends `v` as an unsigned LEB128 varint (the shortest encoding).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one canonical varint from the front of `bytes`, returning the value
/// and the bytes it took.
///
/// # Errors
///
/// [`CodecError::Malformed`] for truncation, more than ten bytes, bits past
/// 64 and overlong encodings (a multi-byte varint ending in a zero byte).
#[inline]
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut value = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        let group = u64::from(b & 0x7F);
        if i == 9 && b > 1 {
            return Err(CodecError::Malformed("varint past 64 bits"));
        }
        value |= group << (7 * i);
        if b < 0x80 {
            if b == 0 && i > 0 {
                return Err(CodecError::Malformed("overlong varint"));
            }
            return Ok((value, i + 1));
        }
    }
    Err(CodecError::Malformed("body ends inside a varint"))
}

/// Maps a signed difference onto the unsigned varints, small magnitudes of
/// either sign to small values: 0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
#[inline]
fn zigzag(d: i32) -> u32 {
    ((d << 1) ^ (d >> 31)) as u32
}

/// The inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u32) -> i32 {
    (z >> 1) as i32 ^ -((z & 1) as i32)
}

/// Width of the Rice parameter at the head of a bitstream.
const RICE_K_BITS: u32 = 4;

/// Largest Rice parameter (what [`RICE_K_BITS`] can hold).
const MAX_RICE_K: u32 = (1 << RICE_K_BITS) - 1;

/// Largest zigzag delta between two `i16` codes (`zigzag(65_535)`).
const MAX_SAMPLE_ZIGZAG: u32 = 2 * (u16::MAX as u32);

/// The one Rice parameter a payload may use: the smallest `k ≤ 15` with
/// `m · 2^(k+1) ≥ Σz` over its `m ≥ 1` zigzag deltas. It keeps the mean
/// unary part at most two bits for `k < 15` (at most three at the cap), so
/// a payload averages at most `k + 3 ≤ 18` bits per delta, and at worst
/// ~19 bits per code.
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

/// Appends ADC codes as a sample payload: the first code as a zigzag
/// varint from 0, then — if more codes follow — a Rice-coded bitstream of
/// the remaining codes' zigzag deltas (see the module docs). An empty run
/// appends nothing.
pub fn encode_samples(samples: &[i16], out: &mut Vec<u8>) {
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

/// Decodes a sample payload (see [`encode_samples`]) of at most
/// `max_codes` codes.
///
/// Every code takes at least `k + 1` bits, so the output is reserved once
/// for the most codes the payload can hold — capped at `max_codes`, so a
/// hostile payload allocates no more than a legal one. (Reserved, not
/// zero-filled: `calloc` skips the allocator's per-thread cache and cost
/// ~0.2 µs per small frame.) The bitstream is read by `decode_bitstream`,
/// compiled once per Rice parameter so that its shifts and mask are
/// constants.
///
/// # Errors
///
/// [`CodecError::TooManyCodes`] past `max_codes`, [`CodecError::Malformed`]
/// for every other departure from the one serialisation.
pub fn decode_samples(bytes: &[u8], max_codes: usize) -> Result<Vec<i16>, CodecError> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let (first, used) = read_varint(bytes)?;
    let first = u32::try_from(first).map_err(|_| CodecError::Malformed("varint past u32"))?;
    let first = i16::try_from(unzigzag(first))
        .map_err(|_| CodecError::Malformed("sample delta leaves the i16 range"))?;
    let stream = &bytes[used..];
    if stream.is_empty() {
        return Ok(vec![first]);
    }
    let k = u32::from(stream[0]) & MAX_RICE_K;
    let most = (stream.len() * 8 - RICE_K_BITS as usize) / (k as usize + 1) + 1;
    let mut out = Vec::with_capacity(most.min(max_codes));
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
    let sum = decode(stream, &mut out, max_codes)?;
    let m = out.len() as u64 - 1;
    if m == 0 {
        return Err(CodecError::Malformed("bitstream after a one-code body"));
    }
    if !is_rice_parameter(k, m, sum) {
        return Err(CodecError::Malformed("Rice parameter is not the frame's"));
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
fn decode_bitstream<const K: u32>(
    stream: &[u8],
    out: &mut Vec<i16>,
    max_codes: usize,
) -> Result<u64, CodecError> {
    let low_mask = (1u64 << K) - 1;
    let total = stream.len() * 8;
    let mut prev = i32::from(out[0]);
    // Every delta is below 2^17 but the last, which is clamped just past
    // 2^17: Σz fits a u64 for any payload.
    let mut sum = 0u64;
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
            let mut code = prev;
            let mut batch_sum = 0u32;
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
            let reach = (batch_sum as usize + batch_len(K)) / 2;
            if used <= full && prev.unsigned_abs() as usize + reach <= i16::MAX as usize {
                if out.len() + batch_len(K) > max_codes {
                    return Err(CodecError::TooManyCodes);
                }
                out.extend_from_slice(&batch[..batch_len(K)]);
                prev = code;
                sum += u64::from(batch_sum);
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
                max_codes,
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
        push_code(out, &mut prev, &mut sum, z, max_codes)?;
        pos = next;
    }
    Ok(sum)
}

/// Appends the code the zigzag delta `z` steps to from `prev` (an `i32`,
/// so that a step past `i16` is seen), adding `z` to `sum`.
#[inline(always)]
fn push_code(
    out: &mut Vec<i16>,
    prev: &mut i32,
    sum: &mut u64,
    z: u32,
    max_codes: usize,
) -> Result<(), CodecError> {
    *prev += unzigzag(z);
    *sum += u64::from(z);
    let code = i16::try_from(*prev)
        .map_err(|_| CodecError::Malformed("sample delta leaves the i16 range"))?;
    if out.len() == max_codes {
        return Err(CodecError::TooManyCodes);
    }
    out.push(code);
    Ok(())
}

/// Why a bitstream stopped short of a whole code `rem` bits before its end,
/// given the (zero-extended) window `w` at that point: a short all-zero
/// tail is the padding and ends the body, anything else is malformed.
fn end_of_bitstream(rem: usize, w: u64) -> Result<(), CodecError> {
    match (rem < 8, w == 0) {
        (true, true) => Ok(()),
        (true, false) => Err(CodecError::Malformed("non-zero padding")),
        (false, true) => Err(CodecError::Malformed("padding of 8 bits or more")),
        (false, false) => Err(CodecError::Malformed("body ends inside a code")),
    }
}

/// The slow path of [`decode_bitstream`]: the code at bit `pos`, longer
/// than a window and so more than 8 bits from the end, counted word by
/// word. Returns its zigzag delta (clamped just past the largest legal
/// one) and the bit after it.
#[cold]
fn long_code(stream: &[u8], pos: usize, k: u32) -> Result<(u32, usize), CodecError> {
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
            return Err(CodecError::Malformed("padding of 8 bits or more"));
        }
    }
    let next = one + 1 + k as usize;
    if next > total {
        return Err(CodecError::Malformed("body ends inside a code"));
    }
    let low = (load_le(stream, (one + 1) / 8) >> ((one + 1) % 8)) & ((1 << k) - 1);
    let z = ((one - pos) as u64) << k | low;
    Ok((z.min(u64::from(MAX_SAMPLE_ZIGZAG) + 1) as u32, next))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Err(CodecError::Malformed("varint past 64 bits"))
        );
        for d in [0, -1, 1, -2, 2, i32::MIN, i32::MAX, -65_535, 65_535] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        assert_eq!((zigzag(0), zigzag(-1), zigzag(1)), (0, 1, 2));
    }

    #[test]
    fn the_o1_rice_check_accepts_exactly_the_rule_parameter() {
        // Known values: flat runs take k = 0, a mean z of 6 takes k = 2,
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
            let m = 1 + (state >> 50) % 16_384;
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
                assert_eq!(
                    decode_samples(&body, usize::MAX),
                    Ok(samples),
                    "scale {scale} n {n}"
                );
            }
        }
        // A unary part longer than a window and than 64 bits: k = 0 over
        // 99 zero deltas and one of z = 150.
        let mut samples = vec![0i16; 100];
        samples.push(75);
        let mut body = Vec::new();
        encode_samples(&samples, &mut body);
        assert_eq!(body[1] & 0x0F, 0);
        assert_eq!(decode_samples(&body, usize::MAX), Ok(samples));
    }

    #[test]
    fn the_code_limit_is_exact() {
        let samples: Vec<i16> = (0..200).map(|i| (i % 13) as i16).collect();
        let mut body = Vec::new();
        encode_samples(&samples, &mut body);
        assert_eq!(decode_samples(&body, 200), Ok(samples));
        assert_eq!(decode_samples(&body, 199), Err(CodecError::TooManyCodes));
    }
}

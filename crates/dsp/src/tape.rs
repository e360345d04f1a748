//! Bounded ring buffer over a suffix of an unbounded stream, addressed by
//! absolute sample index — the storage primitive shared by the streaming
//! operators (baseline-filter delay line, wavelet stages and frame queues,
//! peak scanner, beat windower). Centralising it keeps the delicate
//! base/trim arithmetic in one place.
//!
//! The ring is sized at construction from its owner's retention bound, so
//! pushing and trimming never allocate. A push that finds the ring full
//! doubles it instead of overwriting history; the streaming front-end sizes
//! every tape so that this never happens (the beat windower's pending-peak
//! pin is the one caller whose retention the caller controls).

/// A suffix window of a sample stream with absolute indexing.
#[derive(Debug)]
pub(crate) struct Tape<T = f64> {
    /// The ring: `buf[head]` holds absolute index `base`. Reserved at
    /// construction; until its first wrap it fills by appending, so no
    /// default value of `T` is needed.
    buf: Vec<T>,
    capacity: usize,
    head: usize,
    base: usize,
    len: usize,
}

/// A clone reserves the whole ring too (a derived clone would reserve only
/// the slots filled so far, and grow on later pushes).
impl<T: Copy> Clone for Tape<T> {
    fn clone(&self) -> Self {
        let mut buf = Vec::with_capacity(self.capacity);
        buf.extend_from_slice(&self.buf);
        Tape { buf, ..*self }
    }
}

impl<T: Copy> Tape<T> {
    /// An empty tape that holds `capacity` samples without reallocating.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tape {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            base: 0,
            len: 0,
        }
    }

    /// Ring slot of the `k`-th retained sample (`k < len`).
    #[inline]
    fn slot(&self, k: usize) -> usize {
        let p = self.head + k;
        if p >= self.capacity {
            p - self.capacity
        } else {
            p
        }
    }

    /// Appends the next sample of the stream.
    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        if self.len == self.capacity {
            self.grow();
        }
        let slot = self.slot(self.len);
        if slot < self.buf.len() {
            self.buf[slot] = v;
        } else {
            // Before the first wrap, the next slot is always the end.
            self.buf.push(v);
        }
        self.len += 1;
    }

    /// Re-lays the full ring out in order at twice its capacity.
    #[cold]
    fn grow(&mut self) {
        let mut buf = Vec::with_capacity(2 * self.capacity);
        buf.extend((0..self.len).map(|k| self.buf[self.slot(k)]));
        self.buf = buf;
        self.capacity *= 2;
        self.head = 0;
    }

    /// Value at absolute stream index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` has been trimmed away or not yet been pushed.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        let k = i.wrapping_sub(self.base);
        assert!(k < self.len, "tape index {i} outside the retained range");
        self.buf[self.slot(k)]
    }

    /// Absolute index of the oldest retained sample.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Number of samples ever pushed (one past the newest absolute index).
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.base + self.len
    }

    /// Drops history before absolute index `keep_from` (never past the
    /// retained data). O(1).
    #[inline]
    pub(crate) fn trim(&mut self, keep_from: usize) {
        let d = keep_from.saturating_sub(self.base).min(self.len);
        self.head = self.slot(d);
        self.base += d;
        self.len -= d;
    }

    /// Removes and returns the oldest retained sample.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = self.slot(1);
        self.base += 1;
        self.len -= 1;
        Some(v)
    }

    /// Appends the retained samples `[lo, lo + len)` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not fully retained.
    pub(crate) fn extend_into(&self, lo: usize, len: usize, out: &mut Vec<T>) {
        let k = lo.wrapping_sub(self.base);
        assert!(
            k <= self.len && len <= self.len - k,
            "tape range {lo}..{} outside the retained range",
            lo + len
        );
        let start = self.slot(k);
        let first = len.min(self.capacity - start);
        out.extend_from_slice(&self.buf[start..start + first]);
        out.extend_from_slice(&self.buf[..len - first]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_indexing_survives_trimming() {
        let mut tape = Tape::with_capacity(10);
        for i in 0..10 {
            tape.push(i as f64);
        }
        assert_eq!(tape.base(), 0);
        assert_eq!(tape.end(), 10);
        tape.trim(4);
        assert_eq!(tape.base(), 4);
        assert_eq!(tape.end(), 10);
        assert_eq!(tape.get(4), 4.0);
        assert_eq!(tape.get(9), 9.0);
        let mut out = vec![0.0];
        tape.extend_into(5, 3, &mut out);
        assert_eq!(out, vec![0.0, 5.0, 6.0, 7.0]);
        // Trimming never advances past the retained data.
        tape.trim(100);
        assert_eq!(tape.base(), 10);
    }

    #[test]
    fn the_ring_wraps_in_place_and_grows_only_when_full() {
        let mut tape = Tape::with_capacity(4);
        for i in 0..100usize {
            tape.push(i);
            tape.trim((i + 1).saturating_sub(3));
        }
        assert_eq!(tape.capacity, 4, "a trimmed stream reuses its slots");
        let mut out = Vec::new();
        tape.extend_into(97, 3, &mut out);
        assert_eq!(out, vec![97, 98, 99]);
        tape.push(100);
        assert_eq!(tape.capacity, 4);
        // A fifth retained sample doubles the ring, keeping the order.
        tape.push(101);
        assert_eq!(tape.capacity, 8);
        let kept: Vec<usize> = (97..=101).map(|i| tape.get(i)).collect();
        assert_eq!(kept, [97, 98, 99, 100, 101]);
        assert_eq!(tape.pop_front(), Some(97));
        assert_eq!(tape.base(), 98);
    }

    #[test]
    #[should_panic(expected = "outside the retained range")]
    fn reading_trimmed_history_panics() {
        let mut tape = Tape::with_capacity(4);
        for i in 0..6 {
            tape.push(i);
        }
        tape.trim(3);
        tape.get(2);
    }
}

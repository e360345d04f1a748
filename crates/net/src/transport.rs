//! The nonblocking socket mechanics every `hbc-net` component shares.
//!
//! The reactor, its admin surface, the chaos proxy and the node client move
//! their bytes through [`read_pass`], [`Outbox::flush`] and [`accept`], so
//! each decision lives here once: how a read or write ends (would block,
//! interrupted and retried, EOF, a zero-length write, an error), that a
//! short read ends a read pass (saving the `read` that would only block),
//! when an outbox compacts, and how an accepted stream is prepared. What a
//! hang-up means, which accept errors are fatal and what the bytes feed
//! stay with the callers. Reads and flushes are generic over [`Read`] and
//! [`Write`], so they run over in-memory streams as well as sockets.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};

/// A partly flushed outbox drops its sent prefix once it grows past this.
pub(crate) const COMPACT_AFTER: usize = 64 * 1024;

/// How a [`read_pass`] ended.
#[derive(Debug)]
pub(crate) enum ReadEnd {
    /// Would block: a nonblocking socket is drained, a blocking one timed out.
    WouldBlock,
    /// A short read, the byte budget or the sink ended the pass.
    Paused,
    /// The peer closed its write side.
    Eof,
    Failed(io::Error),
}

/// Bytes one [`read_pass`] handed to its sink, and how it ended.
#[derive(Debug)]
pub(crate) struct ReadPass {
    pub(crate) bytes: usize,
    pub(crate) end: ReadEnd,
}

/// Reads `reader` through `buf`, handing each chunk to `sink` (which
/// returns `false` to stop), until it would block, hits EOF or an error,
/// reads short or has read `budget` bytes. A blocking reader with a budget
/// of one buffer makes exactly one `read`.
pub(crate) fn read_pass(
    reader: &mut impl Read,
    buf: &mut [u8],
    budget: usize,
    mut sink: impl FnMut(&[u8]) -> bool,
) -> ReadPass {
    let mut bytes = 0usize;
    let end = loop {
        if bytes >= budget {
            break ReadEnd::Paused;
        }
        match reader.read(buf) {
            Ok(0) => break ReadEnd::Eof,
            Ok(n) => {
                bytes += n;
                if !sink(&buf[..n]) || n < buf.len() {
                    break ReadEnd::Paused;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break ReadEnd::WouldBlock,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => break ReadEnd::Failed(e),
        }
    };
    ReadPass { bytes, end }
}

/// Bytes one [`Outbox::flush`] wrote, and whether the writer is gone (a
/// zero-length write or an error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Flushed {
    pub(crate) written: usize,
    pub(crate) dead: bool,
}

/// Bytes queued for one writer (encoders append to `bytes`); the first
/// `sent` are already written.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) bytes: Vec<u8>,
    pub(crate) sent: usize,
}

impl Outbox {
    /// Bytes queued but not yet written.
    pub(crate) fn queued(&self) -> usize {
        self.bytes.len() - self.sent
    }

    /// Writes at most `limit` queued bytes, until the writer would block,
    /// then clears a drained outbox (keeping its capacity) or drops a sent
    /// prefix past [`COMPACT_AFTER`].
    pub(crate) fn flush(&mut self, writer: &mut impl Write, limit: usize) -> Flushed {
        let mut flushed = Flushed::default();
        while self.sent < self.bytes.len() && flushed.written < limit {
            let end = self
                .bytes
                .len()
                .min(self.sent.saturating_add(limit - flushed.written));
            match writer.write(&self.bytes[self.sent..end]) {
                Ok(n) if n > 0 => {
                    self.sent += n;
                    flushed.written += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                _ => {
                    flushed.dead = true;
                    break;
                }
            }
        }
        if self.sent == self.bytes.len() {
            self.bytes.clear();
            self.sent = 0;
        } else if self.sent > COMPACT_AFTER {
            self.bytes.drain(..self.sent);
            self.sent = 0;
        }
        flushed
    }
}

/// One connection taken off a listener by [`accept`]: a [`prepare`]d
/// stream, or one that could not be made nonblocking (it would stall its
/// caller), dropped so its peer sees a reset.
#[derive(Debug)]
pub(crate) enum Accepted {
    Stream(TcpStream),
    Dropped,
}

/// Takes the next pending connection off a nonblocking `listener`, or
/// `Ok(None)` once none is pending. Any other listener error than an
/// interrupt (retried) is returned: whether it is fatal is the caller's
/// policy.
pub(crate) fn accept(listener: &TcpListener) -> io::Result<Option<Accepted>> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                return Ok(Some(match prepare(&stream) {
                    Ok(()) => Accepted::Stream(stream),
                    Err(_) => Accepted::Dropped,
                }))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Makes `stream` nonblocking and sets `TCP_NODELAY` (best effort).
pub(crate) fn prepare(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::VecDeque;

    /// A scripted stream: each `read` / `write` pops the next step.
    #[derive(Default)]
    struct Script {
        reads: VecDeque<io::Result<Vec<u8>>>,
        /// `Ok(n)` accepts up to `n` bytes; an error is returned as is.
        writes: VecDeque<io::Result<usize>>,
        written: Vec<u8>,
        calls: usize,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            match self.reads.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Err(ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            match self.writes.pop_front() {
                Some(Ok(n)) => {
                    let n = n.min(buf.len());
                    self.written.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => Err(ErrorKind::WouldBlock.into()),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn reads(steps: Vec<io::Result<Vec<u8>>>) -> Script {
        Script {
            reads: steps.into(),
            ..Script::default()
        }
    }

    fn collect(script: &mut Script, buf_len: usize, budget: usize) -> (ReadPass, Vec<u8>) {
        let mut buf = vec![0u8; buf_len];
        let mut got = Vec::new();
        let pass = read_pass(script, &mut buf, budget, |chunk| {
            got.extend_from_slice(chunk);
            true
        });
        (pass, got)
    }

    #[test]
    fn a_short_read_ends_the_pass_without_another_read() {
        let mut s = reads(vec![Ok(vec![1; 4]), Ok(vec![2; 2]), Ok(vec![3; 4])]);
        let (pass, got) = collect(&mut s, 4, usize::MAX);
        assert_eq!(pass.bytes, 6);
        assert!(matches!(pass.end, ReadEnd::Paused));
        assert_eq!(got, [1, 1, 1, 1, 2, 2]);
        assert_eq!(s.calls, 2, "the read after the short one is saved");
    }

    #[test]
    fn full_reads_continue_until_the_socket_would_block() {
        let mut s = reads(vec![Ok(vec![1; 4]), Ok(vec![2; 4])]);
        let (pass, got) = collect(&mut s, 4, usize::MAX);
        assert_eq!(pass.bytes, 8);
        assert!(matches!(pass.end, ReadEnd::WouldBlock));
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn interrupts_are_retried_and_eof_and_errors_end_the_pass() {
        let mut s = reads(vec![
            Ok(vec![7; 4]),
            Err(ErrorKind::Interrupted.into()),
            Ok(vec![8; 4]),
            Ok(Vec::new()),
        ]);
        let (pass, got) = collect(&mut s, 4, usize::MAX);
        assert_eq!((pass.bytes, got.len()), (8, 8));
        assert!(matches!(pass.end, ReadEnd::Eof));

        let mut s = reads(vec![Ok(vec![7; 4]), Err(ErrorKind::ConnectionReset.into())]);
        let (pass, _) = collect(&mut s, 4, usize::MAX);
        assert_eq!(pass.bytes, 4, "bytes read before the error still count");
        assert!(
            matches!(pass.end, ReadEnd::Failed(ref e) if e.kind() == ErrorKind::ConnectionReset)
        );
    }

    #[test]
    fn the_budget_and_the_sink_stop_the_pass() {
        let mut s = reads(vec![Ok(vec![1; 4]), Ok(vec![2; 4]), Ok(vec![3; 4])]);
        let (pass, _) = collect(&mut s, 4, 8);
        assert_eq!(pass.bytes, 8);
        assert!(matches!(pass.end, ReadEnd::Paused));
        assert_eq!(s.calls, 2);

        // One buffer of budget: exactly one read, however full.
        let mut s = reads(vec![Ok(vec![1; 4]), Ok(vec![2; 4])]);
        let (pass, _) = collect(&mut s, 4, 4);
        assert_eq!((pass.bytes, s.calls), (4, 1));

        let mut s = reads(vec![Ok(vec![1; 4]), Ok(vec![2; 4])]);
        let mut buf = [0u8; 4];
        let mut chunks = 0;
        let pass = read_pass(&mut s, &mut buf, usize::MAX, |_| {
            chunks += 1;
            false
        });
        assert_eq!((pass.bytes, chunks, s.calls), (4, 1, 1));
        assert!(matches!(pass.end, ReadEnd::Paused));
    }

    #[test]
    fn flush_writes_until_blocked_and_clears_a_drained_outbox() {
        let mut out = Outbox {
            bytes: (0..10).collect(),
            sent: 0,
        };
        let mut s = Script {
            writes: vec![Ok(3), Err(ErrorKind::Interrupted.into()), Ok(4)].into(),
            ..Script::default()
        };
        let f = out.flush(&mut s, usize::MAX);
        assert_eq!(
            f,
            Flushed {
                written: 7,
                dead: false
            }
        );
        assert_eq!(out.queued(), 3);
        assert_eq!(s.written, (0..7).collect::<Vec<u8>>());

        s.writes = vec![Ok(10)].into();
        let capacity = out.bytes.capacity();
        let f = out.flush(&mut s, usize::MAX);
        assert_eq!(
            f,
            Flushed {
                written: 3,
                dead: false
            }
        );
        assert_eq!((out.bytes.len(), out.sent, out.queued()), (0, 0, 0));
        assert_eq!(out.bytes.capacity(), capacity, "clearing keeps the buffer");
        assert_eq!(s.written, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn flush_honours_its_limit_one_byte_at_a_time() {
        let mut out = Outbox {
            bytes: vec![9, 8, 7],
            sent: 0,
        };
        let mut s = Script {
            writes: vec![Ok(10), Ok(10)].into(),
            ..Script::default()
        };
        assert_eq!(out.flush(&mut s, 1).written, 1);
        assert_eq!(out.flush(&mut s, 0).written, 0);
        assert_eq!(out.flush(&mut s, 1).written, 1);
        assert_eq!((s.written.as_slice(), out.queued()), (&[9u8, 8][..], 1));
    }

    #[test]
    fn a_zero_write_or_an_error_is_dead_after_counting_what_went_out() {
        let mut out = Outbox {
            bytes: vec![1; 8],
            sent: 0,
        };
        let mut s = Script {
            writes: vec![Ok(2), Ok(0)].into(),
            ..Script::default()
        };
        assert_eq!(
            out.flush(&mut s, usize::MAX),
            Flushed {
                written: 2,
                dead: true
            }
        );
        s.writes = vec![Ok(1), Err(ErrorKind::BrokenPipe.into())].into();
        assert_eq!(
            out.flush(&mut s, usize::MAX),
            Flushed {
                written: 1,
                dead: true
            }
        );
        assert_eq!(out.queued(), 5);
    }

    #[test]
    fn a_long_sent_prefix_is_compacted_away() {
        let mut out = Outbox {
            bytes: vec![5; COMPACT_AFTER + 10],
            sent: 0,
        };
        let mut s = Script {
            writes: vec![Ok(COMPACT_AFTER)].into(),
            ..Script::default()
        };
        out.flush(&mut s, usize::MAX);
        assert_eq!(
            (out.sent, out.queued()),
            (COMPACT_AFTER, 10),
            "at the line: kept"
        );
        s.writes = vec![Ok(1)].into();
        out.flush(&mut s, usize::MAX);
        assert_eq!((out.sent, out.bytes.len()), (0, 9), "past it: compacted");
    }

    #[test]
    fn accept_prepares_every_pending_stream_then_reports_none() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        assert!(accept(&listener).expect("empty").is_none());
        let addr = listener.local_addr().expect("addr");
        let _a = TcpStream::connect(addr).expect("dial");
        let _b = TcpStream::connect(addr).expect("dial");
        let mut streams = Vec::new();
        let started = std::time::Instant::now();
        while streams.len() < 2 && started.elapsed() < std::time::Duration::from_secs(5) {
            match accept(&listener).expect("accept") {
                Some(Accepted::Stream(s)) => streams.push(s),
                Some(Accepted::Dropped) => panic!("a loopback stream becomes nonblocking"),
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert_eq!(streams.len(), 2);
        for s in &mut streams {
            assert!(s.nodelay().expect("nodelay"));
            let mut buf = [0u8; 8];
            let pass = read_pass(s, &mut buf, usize::MAX, |_| true);
            assert!(matches!(pass.end, ReadEnd::WouldBlock), "nonblocking");
        }
        assert!(accept(&listener).expect("drained").is_none());
    }
}

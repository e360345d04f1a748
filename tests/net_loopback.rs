//! End-to-end guarantees of the TCP ingestion gateway (`hbc-net`):
//!
//! * **Parity across the network boundary** — per-beat outcomes received
//!   over a loopback socket are bit-identical to the batch
//!   `process_record` pipeline (and to the in-process `StreamHub`) for any
//!   packetization, with ≥ 3 sessions interleaved on one connection;
//! * **credit-based flow control** — a session throttled by a slow gateway
//!   stalls at its credit budget (gateway memory stays bounded) without
//!   corrupting concurrent sessions;
//! * **overflow policies** — a credit-violating sender is disconnected
//!   (default) or has its excess dropped, per configuration, leaving other
//!   sessions intact;
//! * **idle eviction** — sessions without traffic are drained, reported and
//!   freed.
//!
//! The records are quantised once through the wire ADC transfer function and
//! both sides (socket and reference) consume the identical dequantised
//! signal, so every comparison below is exact, not approximate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::proto::{
    crc32, quantize_mv_into, Frame, FrameDecoder, MAX_SAMPLES_PER_FRAME,
};
use heartbeat_rp::hbc_net::{
    Gateway, GatewayConfig, NetError, NodeClient, OverflowPolicy, CREDIT_QUIET, HOUSEKEEPING_TICK,
    PROTOCOL_VERSION,
};
use heartbeat_rp::StreamHub;

mod support;

use support::{hub_reference, read_until, system, wire_record, with_gateway};

/// SplitMix64 step driving the pseudo-random packetization.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams a lead into a session in pseudo-random ragged chunks.
fn stream_randomly(client: &mut NodeClient, session: u32, lead: &[f64], seed: u64) {
    let mut state = seed;
    let mut at = 0usize;
    while at < lead.len() {
        let n = 1 + (next(&mut state) % 1499) as usize;
        let end = (at + n).min(lead.len());
        client.send_mv(session, &lead[at..end]).expect("send");
        at = end;
    }
}

/// Socket-received outcomes must equal the reference stream bit for bit
/// (`truth` is `None` online; everything else must match exactly).
fn assert_outcomes_match(got: &[BeatOutcome], want: &[BeatOutcome], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: beat count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.peak, w.peak, "{label}: beat {i} peak");
        assert_eq!(g.predicted, w.predicted, "{label}: beat {i} class");
        assert_eq!(g.delineated, w.delineated, "{label}: beat {i} delineated");
        assert_eq!(
            g.fiducials_transmitted, w.fiducials_transmitted,
            "{label}: beat {i} fiducials"
        );
        assert_eq!(g.truth, None, "{label}: online beats carry no ground truth");
    }
}

#[test]
fn socket_outcomes_match_process_record_for_interleaved_randomized_sessions() {
    let fw = &system().wbsn;
    let records: Vec<EcgRecord> = (0..3)
        .map(|i| wire_record(7000 + i, 35 + 5 * i as usize))
        .collect();
    let fs = records[0].fs;

    // Reference: the batch firmware on the wire-exact records. Thresholds
    // calibrate over the whole record on both sides (calib_len = record
    // length), exactly like the in-process parity suite.
    let references: Vec<Vec<BeatOutcome>> = records
        .iter()
        .map(|r| fw.process_record(r).expect("batch").beats)
        .collect();

    let config = GatewayConfig {
        credit_budget: 1 << 20,
        max_ingest_per_poll: 2048,
        ..GatewayConfig::default()
    };
    let (summaries, stats) = with_gateway(fw, fs, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let ids: Vec<u32> = records
            .iter()
            .map(|r| client.open_session(r.id, fs, r.len() as u32).expect("open"))
            .collect();

        // Interleave the three sessions on one connection, pseudo-random
        // chunk lengths, round-robin.
        let leads: Vec<&[f64]> = records
            .iter()
            .map(|r| r.lead(Lead(0)).expect("lead 0"))
            .collect();
        let mut at = vec![0usize; records.len()];
        let mut state = 0xC0FFEEu64;
        while at.iter().zip(&leads).any(|(&a, l)| a < l.len()) {
            for (i, lead) in leads.iter().enumerate() {
                if at[i] >= lead.len() {
                    continue;
                }
                let n = 1 + (next(&mut state) % 1499) as usize;
                let end = (at[i] + n).min(lead.len());
                client.send_mv(ids[i], &lead[at[i]..end]).expect("send");
                at[i] = end;
            }
        }
        ids.iter()
            .map(|&id| client.close_session(id).expect("close"))
            .collect::<Vec<_>>()
    });

    for ((summary, reference), record) in summaries.iter().zip(&references).zip(&records) {
        assert_outcomes_match(&summary.outcomes, reference, "vs process_record");
        assert_eq!(summary.report.beats as usize, reference.len());
        assert_eq!(summary.report.samples as usize, record.len());
        assert_eq!(
            summary.report.forwarded as usize,
            reference.iter().filter(|b| b.delineated).count()
        );
    }
    assert_eq!(stats.sessions_opened, 3);
    assert_eq!(stats.sessions_closed, 3);
    assert_eq!(stats.sessions_evicted, 0);
    assert_eq!(stats.denials, 0);
    assert_eq!(
        stats.samples_in as usize,
        records.iter().map(EcgRecord::len).sum::<usize>()
    );
}

#[test]
fn prefix_calibrated_streaming_matches_the_hub_for_any_packetization() {
    let fw = &system().wbsn;
    let record = wire_record(8100, 45);
    let fs = record.fs;
    let calib_len = (8.0 * fs) as usize;
    let reference = hub_reference(fw, &record, calib_len);
    assert!(!reference.is_empty(), "reference session must emit beats");

    // Two different reactor batch sizes must yield the same outcome stream:
    // gateway-side chunking is as immaterial as wire-side packetization.
    for (max_ingest, seed) in [(509usize, 1u64), (4096, 2)] {
        let config = GatewayConfig {
            credit_budget: 1 << 16,
            max_ingest_per_poll: max_ingest,
            ..GatewayConfig::default()
        };
        let (summary, stats) = with_gateway(fw, fs, config, |addr| {
            let mut client = NodeClient::connect(addr).expect("connect");
            let id = client
                .open_session(record.id, fs, calib_len as u32)
                .expect("open");
            stream_randomly(&mut client, id, record.lead(Lead(0)).expect("lead 0"), seed);
            client.close_session(id).expect("close")
        });
        assert_outcomes_match(&summary.outcomes, &reference, "vs StreamHub");
        assert_eq!(summary.report.samples as usize, record.len());
        assert_eq!(stats.denials, 0);
    }
}

#[test]
fn slow_consumption_stalls_senders_at_the_credit_budget_without_cross_talk() {
    let fw = &system().wbsn;
    let record_a = wire_record(9000, 40);
    let record_b = wire_record(9001, 40);
    let fs = record_a.fs;
    let budget = 4096usize;
    let calib_len = 2048usize;
    let ref_a = hub_reference(fw, &record_a, calib_len);
    let ref_b = hub_reference(fw, &record_b, calib_len);

    // A deliberately slow hub: at most 256 samples consumed per session per
    // sweep, so compliant senders repeatedly exhaust their credit and must
    // stall until grants return.
    let config = GatewayConfig {
        credit_budget: budget,
        max_ingest_per_poll: 256,
        ..GatewayConfig::default()
    };
    let ((summary_a, summary_b), stats) = with_gateway(fw, fs, config, |addr| {
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut client = NodeClient::connect(addr).expect("connect B");
                let id = client
                    .open_session(record_b.id, fs, calib_len as u32)
                    .expect("open B");
                stream_randomly(&mut client, id, record_b.lead(Lead(0)).expect("lead 0"), 77);
                client.close_session(id).expect("close B")
            });
            let mut client = NodeClient::connect(addr).expect("connect A");
            let id = client
                .open_session(record_a.id, fs, calib_len as u32)
                .expect("open A");
            stream_randomly(&mut client, id, record_a.lead(Lead(0)).expect("lead 0"), 78);
            let summary_a = client.close_session(id).expect("close A");
            (summary_a, worker.join().expect("worker"))
        })
    });

    // Bounded memory: no session ever buffered more than its budget.
    assert!(
        stats.peak_buffered_samples <= budget,
        "peak buffered {} exceeds the credit budget {budget}",
        stats.peak_buffered_samples
    );
    assert_eq!(stats.samples_dropped, 0);
    assert_eq!(stats.denials, 0);
    // Neither stalled session corrupted the other.
    assert_outcomes_match(&summary_a.outcomes, &ref_a, "slow A");
    assert_outcomes_match(&summary_b.outcomes, &ref_b, "slow B");
}

#[test]
fn credit_violators_are_disconnected_and_other_sessions_survive() {
    let fw = &system().wbsn;
    let record = wire_record(9100, 35);
    let fs = record.fs;
    let budget = 2048usize;
    let calib_len = 1024usize;
    let reference = hub_reference(fw, &record, calib_len);

    let config = GatewayConfig {
        credit_budget: budget,
        overflow: OverflowPolicy::Disconnect,
        ..GatewayConfig::default()
    };
    let (summary, stats) = with_gateway(fw, fs, config, |addr| {
        // The violator: a raw socket ignoring the credit protocol.
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        let mut decoder = FrameDecoder::new();
        raw.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        raw.write_all(
            &Frame::OpenSession {
                patient_id: 99,
                fs_millihertz: (fs * 1000.0).round() as u32,
                calib_len: calib_len as u32,
            }
            .encode(),
        )
        .expect("open");
        let opened = read_until(&mut raw, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        });
        let Frame::SessionOpened {
            session, credit, ..
        } = opened
        else {
            unreachable!()
        };
        assert_eq!(credit as usize, budget);
        // Twice the budget in one go: a protocol violation.
        raw.write_all(
            &Frame::Samples {
                session,
                seq: 0,
                samples: vec![0i16; 2 * budget],
            }
            .encode(),
        )
        .expect("flood");
        let deny = read_until(&mut raw, &mut decoder, |f| matches!(f, Frame::Deny { .. }));
        let Frame::Deny { message } = deny else {
            unreachable!()
        };
        assert!(
            message.contains("credit"),
            "deny should explain the violation: {message}"
        );
        // The gateway hangs up after the deny.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("drain to EOF");

        // A compliant session on a separate connection is unaffected.
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        stream_randomly(&mut client, id, record.lead(Lead(0)).expect("lead 0"), 5);
        client.close_session(id).expect("close")
    });

    assert_outcomes_match(&summary.outcomes, &reference, "survivor");
    assert_eq!(stats.denials, 1);
    assert_eq!(stats.sessions_closed, 1);
}

#[test]
fn drop_excess_policy_keeps_the_connection_and_counts_the_loss() {
    let fw = &system().wbsn;
    let fs = 360.0;
    let budget = 2048usize;
    let config = GatewayConfig {
        credit_budget: budget,
        overflow: OverflowPolicy::DropExcess,
        // Consume nothing while the flood arrives, so the excess is
        // genuinely over budget rather than already drained.
        max_ingest_per_poll: 1,
        ..GatewayConfig::default()
    };
    let (report, stats) = with_gateway(fw, fs, config, |addr| {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        let mut decoder = FrameDecoder::new();
        raw.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        raw.write_all(
            &Frame::OpenSession {
                patient_id: 5,
                fs_millihertz: 360_000,
                calib_len: 1024,
            }
            .encode(),
        )
        .expect("open");
        let Frame::SessionOpened { session, .. } = read_until(&mut raw, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        }) else {
            unreachable!()
        };
        raw.write_all(
            &Frame::Samples {
                session,
                seq: 0,
                samples: vec![0i16; 2 * budget],
            }
            .encode(),
        )
        .expect("flood");
        raw.write_all(&Frame::CloseSession { session }.encode())
            .expect("close");
        let Frame::Report { report, .. } = read_until(&mut raw, &mut decoder, |f| {
            matches!(f, Frame::Report { .. })
        }) else {
            unreachable!()
        };
        report
    });
    // Everything beyond the budget was dropped, the rest was kept, and the
    // connection stayed up through the close handshake.
    assert_eq!(stats.samples_dropped as usize, budget);
    assert_eq!(report.samples as usize, budget);
    assert_eq!(stats.denials, 0);
    assert_eq!(stats.sessions_closed, 1);
}

#[test]
fn idle_sessions_are_evicted_drained_and_reported() {
    let fw = &system().wbsn;
    let record = wire_record(9200, 30);
    let fs = record.fs;
    let calib_len = 1024usize;
    let sent = 4000usize;
    let reference = {
        // What an evicted session should have classified: thresholds from
        // the calibration prefix, stream cut at the last received sample.
        let mut hub = StreamHub::new(fw, fs);
        let lead = record.lead(Lead(0)).expect("lead 0");
        let thresholds = hub
            .calibrate_thresholds(&lead[..calib_len])
            .expect("calibrate");
        let id = hub.add_patient(record.id, thresholds);
        hub.ingest(&[(id, &lead[..sent])]).expect("ingest");
        hub.close_session(id).expect("close").outcomes
    };

    let config = GatewayConfig {
        idle_timeout: Duration::from_millis(250),
        ..GatewayConfig::default()
    };
    let (summary, stats) = with_gateway(fw, fs, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        client
            .send_mv(id, &record.lead(Lead(0)).expect("lead 0")[..sent])
            .expect("send");
        // Fall silent; the gateway must drain and report the session on its
        // own.
        let summary = client.wait_session_end(id).expect("eviction report");

        // The eviction race: a close (or stragglers) for the already-ended
        // session must be ignored, not treated as a violation that kills
        // the connection — prove it by speaking raw frames for the evicted
        // id and then opening a fresh session on the same connection.
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        let mut decoder = FrameDecoder::new();
        raw.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        read_until(&mut raw, &mut decoder, |f| matches!(f, Frame::Hello { .. }));
        raw.write_all(&Frame::CloseSession { session: id }.encode())
            .expect("stray close");
        raw.write_all(
            &Frame::Samples {
                session: id,
                seq: 3,
                samples: vec![0i16; 8],
            }
            .encode(),
        )
        .expect("straggler samples");
        raw.write_all(
            &Frame::OpenSession {
                patient_id: 12,
                fs_millihertz: (fs * 1000.0).round() as u32,
                calib_len: calib_len as u32,
            }
            .encode(),
        )
        .expect("reopen");
        let opened = read_until(&mut raw, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        });
        assert!(matches!(opened, Frame::SessionOpened { .. }));
        summary
    });
    assert_eq!(stats.sessions_evicted, 1);
    assert_eq!(stats.sessions_closed, 0);
    assert_eq!(stats.denials, 0, "racing an eviction is not a violation");
    assert_eq!(summary.report.samples as usize, sent);
    assert_outcomes_match(&summary.outcomes, &reference, "evicted session");
}

#[test]
fn sending_into_an_evicted_session_errors_instead_of_hanging() {
    let fw = &system().wbsn;
    let fs = 360.0;
    let config = GatewayConfig {
        credit_budget: 1024,
        idle_timeout: Duration::from_millis(200),
        ..GatewayConfig::default()
    };
    let (result, stats) = with_gateway(fw, fs, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client.open_session(3, fs, 720).expect("open");
        // A wavy stretch: a flat one is degenerate and would end the
        // session at calibration instead of leaving it to go idle.
        let stretch: Vec<f64> = (0..720).map(|i| (i as f64 * 0.05).sin()).collect();
        client.send_mv(id, &stretch).expect("send");
        // Fall silent until the gateway evicts and its report arrives —
        // deadline-polled, not a fixed sleep, so the test is immune to
        // scheduler hiccups on loaded machines.
        support::wait_until(Duration::from_secs(10), || {
            client.pump().expect("pump");
            client.session_ended(id)
        });
        // Resuming with far more samples than the remaining credit must
        // surface the eviction (the gateway will never grant again), not
        // block forever waiting for credit.
        client.send_mv(id, &vec![0.0; 8192])
    });
    assert!(
        matches!(result, Err(NetError::State(_))),
        "expected a session-ended error, got {result:?}"
    );
    assert_eq!(stats.sessions_evicted, 1);
    assert_eq!(
        stats.denials, 0,
        "post-eviction stragglers are not violations"
    );
}

#[test]
fn handshake_and_open_are_validated() {
    let fw = &system().wbsn;
    let fs = 360.0;
    let ((), stats) = with_gateway(fw, fs, GatewayConfig::default(), |addr| {
        // Wrong sampling rate is refused.
        let mut client = NodeClient::connect(addr).expect("connect");
        match client.open_session(1, 250.0, 1024) {
            Err(NetError::Denied(m)) => assert!(m.contains("sampling rate"), "{m}"),
            other => panic!("expected a denial, got {other:?}"),
        }
        // Skipping the handshake is refused.
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&Frame::CloseSession { session: 0 }.encode())
            .expect("write");
        let mut decoder = FrameDecoder::new();
        let deny = read_until(&mut raw, &mut decoder, |f| matches!(f, Frame::Deny { .. }));
        assert!(matches!(deny, Frame::Deny { .. }));
        // Garbage bytes are refused without panicking the gateway.
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&[0x55; 64]).expect("write");
        let mut junk = [0u8; 1024];
        // Read until EOF: the gateway denies and hangs up.
        loop {
            match raw.read(&mut junk) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
    });
    assert!(stats.denials >= 3);
    assert_eq!(stats.sessions_opened, 0);
}

#[test]
fn protocol_version_mismatches_are_refused_by_name_on_both_sides() {
    let fw = &system().wbsn;
    for old in [3u16, 4] {
        // `Hello` is laid out the same in every protocol version (a
        // little-endian u16), so these are the bytes a v3 or v4 node
        // really sends.
        let old_hello = Frame::Hello { version: old }.encode();
        assert_eq!(&old_hello[5..7], &old.to_le_bytes());

        // An older node is denied with the version it spoke.
        let ((), stats) = with_gateway(fw, 360.0, GatewayConfig::default(), |addr| {
            let mut raw = TcpStream::connect(addr).expect("connect raw");
            raw.write_all(&old_hello).expect("hello");
            let mut decoder = FrameDecoder::new();
            let deny = read_until(&mut raw, &mut decoder, |f| matches!(f, Frame::Deny { .. }));
            assert_eq!(
                deny,
                Frame::Deny {
                    message: format!("unsupported protocol version {old}")
                }
            );
        });
        assert_eq!(stats.denials, 1);
        assert_eq!(stats.sessions_opened, 0);
    }

    // A v3 gateway, emulated: it reads the client's Hello and answers the
    // way the v3 gateway does — a denial naming the version it got, or, for
    // a peer that only echoes its own version, a v3 Hello.
    for deny in [true, false] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut decoder = FrameDecoder::new();
            let Frame::Hello { version } = read_until(&mut sock, &mut decoder, |f| {
                matches!(f, Frame::Hello { .. })
            }) else {
                unreachable!()
            };
            let reply = if deny {
                Frame::Deny {
                    message: format!("unsupported protocol version {version}"),
                }
            } else {
                Frame::Hello { version: 3 }
            };
            sock.write_all(&reply.encode()).expect("reply");
            version
        });
        let err = NodeClient::connect(addr).expect_err("version mismatch");
        assert_eq!(peer.join().expect("peer"), PROTOCOL_VERSION);
        match err {
            NetError::Denied(m) if deny => {
                assert_eq!(
                    m,
                    format!("unsupported protocol version {PROTOCOL_VERSION}")
                )
            }
            NetError::State(m) if !deny => assert!(m.contains("protocol version 3"), "{m}"),
            other => panic!("expected the mismatch to surface, got {other:?}"),
        }
    }
}

#[test]
fn a_byte_exact_v5_hello_is_denied_by_name_in_a_frame_a_v5_node_reads() {
    // The bytes a protocol-5 node sends, spelled out: the fixed envelope
    // (`len u32` = 3, tag 0x01), version 5 as a little-endian u16, CRC-32.
    let mut hello = vec![3, 0, 0, 0, 0x01, 5, 0];
    let crc = crc32(&hello[4..]);
    hello.extend_from_slice(&crc.to_le_bytes());
    let fw = &system().wbsn;
    let ((), stats) = with_gateway(fw, 360.0, GatewayConfig::default(), |addr| {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&hello).expect("hello");
        // The gateway denies and hangs up; read it all and parse it the
        // way a v5 node does: `len u32 | tag | body | crc32`.
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes).expect("read to the hang-up");
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("prefix")) as usize;
        assert_eq!(bytes.len(), 4 + len + 4, "exactly one frame: {bytes:02x?}");
        let (payload, trailer) = bytes[4..].split_at(len);
        assert_eq!(
            u32::from_le_bytes(trailer.try_into().expect("trailer")),
            crc32(payload)
        );
        assert_eq!(payload[0], 0x85, "a Deny");
        assert_eq!(
            std::str::from_utf8(&payload[1..]).expect("UTF-8"),
            "unsupported protocol version 5"
        );
    });
    assert_eq!(stats.denials, 1);
    assert_eq!(stats.sessions_opened, 0);
}

/// `record` cut to its first `len` samples, annotations included, so the
/// batch pipeline sees exactly the stream a gateway session receives.
fn truncated(record: &EcgRecord, len: usize) -> EcgRecord {
    assert!(record.len() >= len, "record too short to cut to {len}");
    let mut cut = record.clone();
    for lead in &mut cut.leads {
        lead.truncate(len);
    }
    cut.annotations.retain(|a| a.sample < len);
    cut
}

/// A gateway driven by hand on the test thread, with one raw-socket peer.
/// Every wait alternates [`Gateway::poll`] with a nonblocking read, so a
/// test sees which sweep did what, and every wait has a deadline, so a
/// stalled grant fails the test instead of hanging it.
struct Polled<'fw> {
    gateway: Gateway<'fw>,
    raw: TcpStream,
    decoder: FrameDecoder,
    /// `(grant, acked_seq)` of every `Credit` frame received, in order.
    credits: Vec<(u32, u32)>,
}

impl<'fw> Polled<'fw> {
    /// Binds a gateway, connects, greets and opens one session.
    fn open(fw: &'fw WbsnFirmware, config: GatewayConfig, calib_len: usize) -> (Self, u32) {
        let gateway = Gateway::bind("127.0.0.1:0", fw, 360.0, config).expect("bind");
        let raw = TcpStream::connect(gateway.local_addr().expect("addr")).expect("connect");
        raw.set_nonblocking(true).expect("nonblocking");
        // Every frame leaves at once, so the gateway sees the stream the
        // way the test writes it.
        raw.set_nodelay(true).expect("nodelay");
        let mut polled = Polled {
            gateway,
            raw,
            decoder: FrameDecoder::new(),
            credits: Vec::new(),
        };
        polled.write(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        polled.write(&Frame::OpenSession {
            patient_id: 1,
            fs_millihertz: 360_000,
            calib_len: calib_len as u32,
        });
        let Frame::SessionOpened { session, .. } =
            polled.poll_until(|f| matches!(f, Frame::SessionOpened { .. }))
        else {
            unreachable!()
        };
        (polled, session)
    }

    fn write(&mut self, frame: &Frame) {
        self.raw.write_all(&frame.encode()).expect("write");
    }

    /// One sweep, then whatever the gateway sent; returns the frames.
    fn step(&mut self) -> Vec<Frame> {
        self.gateway.poll().expect("poll");
        let mut buf = [0u8; 4096];
        loop {
            match self.raw.read(&mut buf) {
                Ok(0) => panic!("gateway hung up"),
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read failed: {e}"),
            }
        }
        let mut frames = Vec::new();
        while let Some(frame) = self.decoder.next_frame().expect("valid frame") {
            if let Frame::Credit {
                grant, acked_seq, ..
            } = frame
            {
                self.credits.push((grant, acked_seq));
            }
            frames.push(frame);
        }
        frames
    }

    /// Steps until a frame matching `want` arrives.
    fn poll_until(&mut self, want: impl Fn(&Frame) -> bool) -> Frame {
        let start = std::time::Instant::now();
        loop {
            if let Some(frame) = self.step().into_iter().find(&want) {
                return frame;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the expected frame never arrived"
            );
        }
    }

    /// Steps until the gateway has accepted `samples_in` samples in total.
    fn poll_until_received(&mut self, samples_in: usize) {
        let start = std::time::Instant::now();
        while self.gateway.stats().samples_in < samples_in as u64 {
            self.step();
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the gateway never received {samples_in} samples"
            );
        }
    }
}

/// Wire ADC codes of a synthetic record's lead.
fn wire_codes(seed: u64, beats: usize) -> Vec<i16> {
    let mut codes = Vec::new();
    quantize_mv_into(&wire_record(seed, beats).leads[0], &mut codes);
    codes
}

#[test]
fn steady_streamers_get_coalesced_credit_and_monotone_acks_at_the_default_budget() {
    let fw = &system().wbsn;
    let codes = wire_codes(9400, 40);
    let (frames, calib_len) = (300usize, 1800usize);
    assert!(codes.len() >= frames * 36, "record too short");
    let (mut p, session) = Polled::open(fw, GatewayConfig::default(), calib_len);
    for (seq, chunk) in codes[..frames * 36].chunks(36).enumerate() {
        p.write(&Frame::Samples {
            session,
            seq: seq as u32,
            samples: chunk.to_vec(),
        });
        p.poll_until_received((seq + 1) * 36);
    }
    p.write(&Frame::CloseSession { session });
    p.poll_until(|f| matches!(f, Frame::Report { .. }));

    let grants = p.gateway.stats().credit_grants;
    let bound = (frames * 36).div_ceil(1024) as u64 + 2;
    assert!(grants >= 1, "the calibration stretch is granted back");
    assert!(
        grants <= bound,
        "{grants} Credit frames for {} samples (bound {bound})",
        frames * 36
    );
    assert_eq!(
        p.credits.len() as u64,
        grants,
        "every grant reached the wire"
    );
    assert!(
        p.credits.windows(2).all(|w| w[0].1 <= w[1].1),
        "acked_seq must be monotone: {:?}",
        p.credits
    );
    assert!(p.credits.iter().all(|&(_, acked)| acked as usize <= frames));
}

#[test]
fn budgets_up_to_one_frame_grant_every_consumed_chunk_in_its_sweep() {
    let fw = &system().wbsn;
    let codes = wire_codes(9401, 30);
    let calib_len = 1024;
    let config = GatewayConfig {
        credit_budget: 4096,
        ..GatewayConfig::default()
    };
    let (mut p, session) = Polled::open(fw, config, calib_len);
    let chunks = std::iter::once(&codes[..calib_len]).chain(codes[calib_len..].chunks(36).take(20));
    let mut received = 0;
    for (seq, chunk) in chunks.enumerate() {
        p.write(&Frame::Samples {
            session,
            seq: seq as u32,
            samples: chunk.to_vec(),
        });
        received += chunk.len();
        p.poll_until_received(received);
        // The sweep that read the chunk consumed it and granted it back —
        // the calibration stretch included, promoted in that same sweep.
        assert_eq!(
            p.gateway.stats().credit_grants,
            seq as u64 + 1,
            "chunk {seq} was not granted in the sweep that consumed it"
        );
    }
    p.step();
    let expected: Vec<(u32, u32)> = std::iter::once(calib_len as u32)
        .chain(std::iter::repeat_n(36, 20))
        .zip(1..)
        .collect();
    assert_eq!(p.credits, expected, "one grant per chunk, acked at once");
}

#[test]
fn a_quiet_sender_gets_its_whole_budget_back_within_the_quiet_period() {
    let fw = &system().wbsn;
    let codes = wire_codes(9402, 30);
    let calib_len = 1800;
    let (mut p, session) = Polled::open(fw, GatewayConfig::default(), calib_len);
    p.write(&Frame::Samples {
        session,
        seq: 0,
        samples: codes[..calib_len].to_vec(),
    });
    p.poll_until_received(calib_len);
    assert_eq!(
        p.gateway.stats().credit_grants,
        1,
        "a calibration stretch of a whole quantum is granted in the sweep that promotes it"
    );

    // Three packets, well below the quantum: owed, not yet granted.
    let mut sent = calib_len;
    let mut consumed_before = std::time::Instant::now();
    for (i, chunk) in codes[calib_len..calib_len + 3 * 36].chunks(36).enumerate() {
        p.write(&Frame::Samples {
            session,
            seq: 1 + i as u32,
            samples: chunk.to_vec(),
        });
        sent += chunk.len();
        consumed_before = std::time::Instant::now();
        p.poll_until_received(sent);
    }
    let consumed_after = std::time::Instant::now();
    assert_eq!(p.gateway.stats().credit_grants, 1, "108 samples coalesce");

    // Go quiet. The grant must follow within the quiet period plus two
    // ticks of the last consumption — plus the longest gap between two
    // sweeps of this loop, which only the test's own scheduling decides.
    let (mut last_start, mut max_gap) = (std::time::Instant::now(), Duration::ZERO);
    let granted_start = loop {
        let start = std::time::Instant::now();
        max_gap = max_gap.max(start - last_start);
        last_start = start;
        p.step();
        if p.gateway.stats().credit_grants == 2 {
            break start;
        }
        assert!(
            start - consumed_after < Duration::from_secs(10),
            "a quiet sender never got its credit back"
        );
    };
    let granted_end = std::time::Instant::now();
    assert!(
        granted_end - consumed_before >= CREDIT_QUIET,
        "granted before the session was quiet for {CREDIT_QUIET:?}"
    );
    let late = granted_start.saturating_duration_since(consumed_after);
    assert!(
        late <= CREDIT_QUIET + 2 * HOUSEKEEPING_TICK + max_gap,
        "granted {late:?} after the last consumption (longest sweep gap {max_gap:?})"
    );
    assert_eq!(p.credits.last(), Some(&(108, 4)));
    let granted: u32 = p.credits.iter().map(|&(grant, _)| grant).sum();
    assert_eq!(
        granted as usize, sent,
        "the sender's credit is its whole budget again"
    );
}

#[test]
fn a_sender_at_the_nodes_real_time_rate_is_not_granted_per_packet() {
    let fw = &system().wbsn;
    let codes = wire_codes(9405, 30);
    let (calib_len, packets) = (1800usize, 10usize);
    // One 36-sample packet per 100 ms: the paper's node at 360 Hz.
    let period = Duration::from_millis(100);
    assert!(
        CREDIT_QUIET > 2 * period,
        "a node streaming in real time must not look quiet between packets"
    );
    let (mut p, session) = Polled::open(fw, GatewayConfig::default(), calib_len);
    p.write(&Frame::Samples {
        session,
        seq: 0,
        samples: codes[..calib_len].to_vec(),
    });
    p.poll_until_received(calib_len);
    assert_eq!(p.gateway.stats().credit_grants, 1, "the calibration grant");

    // The gateway sees the session's activity for a packet somewhere
    // between its write and its receipt, so `received[k + 1] − written[k]`
    // bounds each quiet gap from above. Only a gap of `CREDIT_QUIET` or
    // more can let the quiet rule grant mid-stream.
    let mut sent = calib_len;
    let (mut long_gaps, mut last_written) = (0, None);
    for (i, chunk) in codes[calib_len..calib_len + packets * 36]
        .chunks(36)
        .enumerate()
    {
        if let Some(written) = last_written {
            while std::time::Instant::now() - written < period {
                p.step();
            }
        }
        let written = std::time::Instant::now();
        p.write(&Frame::Samples {
            session,
            seq: 1 + i as u32,
            samples: chunk.to_vec(),
        });
        sent += chunk.len();
        p.poll_until_received(sent);
        if let Some(before) = last_written {
            if std::time::Instant::now() - before >= CREDIT_QUIET {
                long_gaps += 1;
            }
        }
        last_written = Some(written);
    }
    let mid_stream = p.gateway.stats().credit_grants - 1;
    assert!(
        mid_stream <= long_gaps,
        "{mid_stream} grants for {packets} packets 100 ms apart \
         ({long_gaps} gaps reached {CREDIT_QUIET:?})"
    );

    // Once the sender stops, the quiet rule returns everything owed.
    p.poll_until(|f| matches!(f, Frame::Credit { .. }));
    let granted: u32 = p.credits.iter().map(|&(grant, _)| grant).sum();
    assert_eq!(granted as usize, sent, "the whole budget is back");
}

#[test]
fn the_first_credit_of_a_short_calibration_needs_no_further_samples() {
    let fw = &system().wbsn;
    let codes = wire_codes(9403, 30);
    let calib_len = 720;
    let (mut p, session) = Polled::open(fw, GatewayConfig::default(), calib_len);
    p.write(&Frame::Samples {
        session,
        seq: 0,
        samples: codes[..calib_len].to_vec(),
    });
    let credit = p.poll_until(|f| matches!(f, Frame::Credit { .. }));
    assert_eq!(
        credit,
        Frame::Credit {
            session,
            grant: calib_len as u32,
            acked_seq: 1,
        }
    );
    assert_eq!(p.gateway.stats().samples_in as usize, calib_len);
}

#[test]
fn maximal_frames_stream_bit_identically_at_and_just_past_a_one_frame_budget() {
    let fw = &system().wbsn;
    let record = wire_record(9500, 200);
    let fs = record.fs;
    let calib_len = 2048;
    let prefix_reference = hub_reference(fw, &record, calib_len);
    for budget in [
        GatewayConfig::default().credit_budget,
        MAX_SAMPLES_PER_FRAME + 1,
    ] {
        // Whole-record calibration (the `process_record` contract) on as
        // much of the record as the budget can buffer, in maximal frames.
        let whole = truncated(&record, budget.min(3 * MAX_SAMPLES_PER_FRAME + 1000));
        let whole_reference = fw.process_record(&whole).expect("batch").beats;
        let config = GatewayConfig {
            credit_budget: budget,
            ..GatewayConfig::default()
        };
        let ((whole_summary, prefix_summary), stats) = with_gateway(fw, fs, config, |addr| {
            let mut client = NodeClient::connect(addr).expect("connect");
            client
                .set_io_timeout(Some(Duration::from_secs(10)))
                .expect("io timeout");
            let id = client
                .open_session(whole.id, fs, whole.len() as u32)
                .expect("open whole");
            client.send_mv(id, &whole.leads[0]).expect("send whole");
            let whole_summary = client.close_session(id).expect("close whole");
            // Prefix calibration over the full record: the sender runs out
            // of credit after every maximal frame at the smaller budget.
            let id = client
                .open_session(record.id, fs, calib_len as u32)
                .expect("open prefix");
            client.send_mv(id, &record.leads[0]).expect("send prefix");
            (
                whole_summary,
                client.close_session(id).expect("close prefix"),
            )
        });
        let label = format!("budget {budget}");
        assert_outcomes_match(&whole_summary.outcomes, &whole_reference, &label);
        assert_outcomes_match(&prefix_summary.outcomes, &prefix_reference, &label);
        assert_eq!(stats.denials, 0, "{label}");
        assert_eq!(
            stats.samples_in as usize,
            whole.len() + record.len(),
            "{label}"
        );
    }
}

#[test]
fn a_connect_while_the_reactor_is_busy_is_served_within_a_few_ticks() {
    let fw = &system().wbsn;
    let record = wire_record(9600, 60);
    let fs = record.fs;
    let stop = AtomicBool::new(false);
    let packets = AtomicU64::new(0);
    let (latencies, stats) = with_gateway(fw, fs, GatewayConfig::default(), |addr| {
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        std::thread::scope(|scope| {
            // Stops the streamer even when an assertion below fails, so the
            // scope can join it.
            let _stop = StopOnDrop(&stop);
            // Keep the reactor busy: one session streaming packets back to
            // back, its record replayed in a loop.
            let streamer = scope.spawn(|| {
                let mut client = NodeClient::connect(addr).expect("connect streamer");
                client
                    .set_io_timeout(Some(Duration::from_secs(10)))
                    .expect("io timeout");
                let id = client.open_session(1, fs, 1800).expect("open");
                while !stop.load(Ordering::Acquire) {
                    for chunk in record.leads[0].chunks(36) {
                        client.send_mv(id, chunk).expect("stream");
                        packets.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            support::wait_until(Duration::from_secs(10), || {
                packets.load(Ordering::Relaxed) > 100
            });
            let mut latencies = Vec::new();
            for _ in 0..5 {
                // Connect on a helper thread, so a gateway that never
                // accepts fails the test at the deadline instead of hanging
                // it in the handshake.
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let started = std::time::Instant::now();
                    let connected = NodeClient::connect(addr).map(|_| started.elapsed());
                    let _ = tx.send(connected);
                });
                let latency = rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("connect never completed")
                    .expect("connect failed");
                latencies.push(latency);
                std::thread::sleep(Duration::from_millis(20));
            }
            let streamed = packets.load(Ordering::Relaxed);
            stop.store(true, Ordering::Release);
            streamer.join().expect("streamer");
            assert!(
                packets.load(Ordering::Relaxed) > streamed,
                "the reactor stayed busy streaming"
            );
            latencies
        })
    });
    // A connect lands mid-sweep at worst; the first sweep starting a tick
    // later accepts it and answers its Hello. A reactor that accepted only
    // on idle sweeps would never get there while the streamer keeps it busy.
    let fastest = latencies.iter().min().expect("five connects");
    let worst_sweep = Duration::from_micros(stats.poll_high_water_micros);
    assert!(
        *fastest <= 5 * HOUSEKEEPING_TICK + 2 * worst_sweep,
        "connects took {latencies:?} while the reactor was busy (worst sweep {worst_sweep:?})"
    );
    assert_eq!(stats.connections, 6);
    assert_eq!(stats.accept_errors, 0);
}

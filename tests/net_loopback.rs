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
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_ecg::beat::BeatWindow;
use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_embedded::int_classifier::AlphaQ16;
use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::proto::{dequantize_mv_into, quantize_mv_into, Frame, FrameDecoder};
use heartbeat_rp::hbc_net::{
    Gateway, GatewayConfig, GatewayStats, NetError, NodeClient, OverflowPolicy, PROTOCOL_VERSION,
};
use heartbeat_rp::hbc_rp::PackedProjection;
use heartbeat_rp::pipeline::TrainedSystem;
use heartbeat_rp::StreamHub;

mod support;

fn system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
}

fn firmware() -> WbsnFirmware {
    let system = system();
    WbsnFirmware::new(
        PackedProjection::from_matrix(&system.pc_downsampled.projection),
        system.wbsn.classifier.clone(),
        AlphaQ16::from_f64(system.pc_downsampled.alpha_train).expect("alpha in range"),
        system.config.downsample,
        BeatWindow::PAPER,
    )
    .expect("firmware dimensions")
}

/// A single-lead synthetic record whose lead has passed through the wire ADC
/// transfer function once, so socket replay and local reference consume the
/// identical signal.
fn wire_record(seed: u64, beats: usize) -> EcgRecord {
    let mut gen = SyntheticEcg::with_seed(seed);
    let rhythm = gen.rhythm(beats, 0.1, 0.1);
    let mut record = gen.record(seed as u32, &rhythm, 1).expect("record");
    let mut codes = Vec::new();
    let mut exact = Vec::new();
    quantize_mv_into(&record.leads[0], &mut codes);
    dequantize_mv_into(&codes, &mut exact);
    record.leads[0] = exact;
    record
}

/// SplitMix64 step driving the pseudo-random packetization.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `body` against a live gateway on a loopback port; flips the
/// shutdown flag (even on panic) and returns the gateway's final counters.
fn with_gateway<R>(
    fw: &WbsnFirmware,
    fs: f64,
    config: GatewayConfig,
    body: impl FnOnce(SocketAddr) -> R,
) -> (R, GatewayStats) {
    struct FlipOnDrop<'a>(&'a AtomicBool);
    impl Drop for FlipOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let shutdown = AtomicBool::new(false);
    let gateway = Gateway::bind("127.0.0.1:0", fw, fs, config).expect("bind");
    let addr = gateway.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway.run(&shutdown).expect("gateway runs"));
        let result = {
            let _flip = FlipOnDrop(&shutdown);
            body(addr)
        };
        let stats = handle.join().expect("gateway thread");
        (result, stats)
    })
}

/// The in-process reference: a `StreamHub` session calibrated on the first
/// `calib_len` samples, fed the whole lead, closed — exactly the lifecycle
/// the gateway drives remotely.
fn hub_reference(fw: &WbsnFirmware, record: &EcgRecord, calib_len: usize) -> Vec<BeatOutcome> {
    let mut hub = StreamHub::new(fw, record.fs);
    let lead = record.lead(Lead(0)).expect("lead 0");
    let thresholds = hub
        .calibrate_thresholds(&lead[..calib_len])
        .expect("calibrate");
    let id = hub.add_patient(record.id, thresholds);
    hub.ingest(&[(id, lead)]).expect("ingest");
    hub.close_session(id).expect("close").outcomes
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
    let fw = firmware();
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
    let (summaries, stats) = with_gateway(&fw, fs, config, |addr| {
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
    let fw = firmware();
    let record = wire_record(8100, 45);
    let fs = record.fs;
    let calib_len = (8.0 * fs) as usize;
    let reference = hub_reference(&fw, &record, calib_len);
    assert!(!reference.is_empty(), "reference session must emit beats");

    // Two different reactor batch sizes must yield the same outcome stream:
    // gateway-side chunking is as immaterial as wire-side packetization.
    for (max_ingest, seed) in [(509usize, 1u64), (4096, 2)] {
        let config = GatewayConfig {
            credit_budget: 1 << 16,
            max_ingest_per_poll: max_ingest,
            ..GatewayConfig::default()
        };
        let (summary, stats) = with_gateway(&fw, fs, config, |addr| {
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
    let fw = firmware();
    let record_a = wire_record(9000, 40);
    let record_b = wire_record(9001, 40);
    let fs = record_a.fs;
    let budget = 4096usize;
    let calib_len = 2048usize;
    let ref_a = hub_reference(&fw, &record_a, calib_len);
    let ref_b = hub_reference(&fw, &record_b, calib_len);

    // A deliberately slow hub: at most 256 samples consumed per session per
    // sweep, so compliant senders repeatedly exhaust their credit and must
    // stall until grants return.
    let config = GatewayConfig {
        credit_budget: budget,
        max_ingest_per_poll: 256,
        ..GatewayConfig::default()
    };
    let ((summary_a, summary_b), stats) = with_gateway(&fw, fs, config, |addr| {
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

/// Raw-socket helper: blocking-reads frames until `want` matches, dispatching
/// nothing. Returns the matched frame.
fn read_until(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    want: impl Fn(&Frame) -> bool,
) -> Frame {
    let mut buf = [0u8; 4096];
    loop {
        while let Some(frame) = decoder.next_frame().expect("valid") {
            if want(&frame) {
                return frame;
            }
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "gateway hung up before the expected frame");
        decoder.feed(&buf[..n]);
    }
}

#[test]
fn credit_violators_are_disconnected_and_other_sessions_survive() {
    let fw = firmware();
    let record = wire_record(9100, 35);
    let fs = record.fs;
    let budget = 2048usize;
    let calib_len = 1024usize;
    let reference = hub_reference(&fw, &record, calib_len);

    let config = GatewayConfig {
        credit_budget: budget,
        overflow: OverflowPolicy::Disconnect,
        ..GatewayConfig::default()
    };
    let (summary, stats) = with_gateway(&fw, fs, config, |addr| {
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
    let fw = firmware();
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
    let (report, stats) = with_gateway(&fw, fs, config, |addr| {
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
    let fw = firmware();
    let record = wire_record(9200, 30);
    let fs = record.fs;
    let calib_len = 1024usize;
    let sent = 4000usize;
    let reference = {
        // What an evicted session should have classified: thresholds from
        // the calibration prefix, stream cut at the last received sample.
        let mut hub = StreamHub::new(&fw, fs);
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
    let (summary, stats) = with_gateway(&fw, fs, config, |addr| {
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
    let fw = firmware();
    let fs = 360.0;
    let config = GatewayConfig {
        credit_budget: 1024,
        idle_timeout: Duration::from_millis(200),
        ..GatewayConfig::default()
    };
    let (result, stats) = with_gateway(&fw, fs, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client.open_session(3, fs, 720).expect("open");
        client.send_mv(id, &vec![0.0; 720]).expect("send");
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
    let fw = firmware();
    let fs = 360.0;
    let ((), stats) = with_gateway(&fw, fs, GatewayConfig::default(), |addr| {
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
    // `Hello` is laid out the same in every protocol version (a
    // little-endian u16), so these are the bytes a v3 node really sends.
    let v3_hello = Frame::Hello { version: 3 }.encode();
    assert_eq!(&v3_hello[5..7], &3u16.to_le_bytes());

    // A v3 node is denied with the version it spoke.
    let fw = firmware();
    let ((), stats) = with_gateway(&fw, 360.0, GatewayConfig::default(), |addr| {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&v3_hello).expect("hello");
        let mut decoder = FrameDecoder::new();
        let deny = read_until(&mut raw, &mut decoder, |f| matches!(f, Frame::Deny { .. }));
        assert_eq!(
            deny,
            Frame::Deny {
                message: "unsupported protocol version 3".into()
            }
        );
    });
    assert_eq!(stats.denials, 1);
    assert_eq!(stats.sessions_opened, 0);

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

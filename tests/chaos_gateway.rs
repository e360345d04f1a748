//! Wire-level chaos: the gateway protocol under injected faults.
//!
//! A [`ChaosProxy`] sits between the node client and the gateway and mangles
//! the byte stream on a **seeded, deterministic schedule** (`HBC_CHAOS_SEED`
//! pins it in CI): corruption, duplication, reordering, truncation,
//! slow-loris stalls and mid-stream kills. The invariant under every fault
//! mode:
//!
//! * **prefix consistency** — outcomes delivered at any moment are a
//!   bit-identical prefix of the fault-free `process_record` reference
//!   stream; faults may delay or cut the stream, never silently corrupt it
//!   (CRC framing turns damage into clean connection death);
//! * **convergence** — after reconnect-with-backoff and
//!   [`Frame::ResumeSession`] re-attachment, the client ends with the *full*
//!   reference stream, without re-running threshold calibration
//!   (`sessions_opened` stays 1) and without losing or double-counting a
//!   single sample (the final report's sample count is exact).
//!
//! The suite also covers the resume lifecycle without a proxy: abrupt
//! severing, resume while credit-stalled (the replay buffer's boundedness
//! witness), and retention-window expiry (resume denied, wire id retired).

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_net::proto::{Frame, FrameDecoder};
use heartbeat_rp::hbc_net::{
    ChaosConfig, ChaosDirection, ChaosProxy, ChaosStats, FaultKind, Gateway, GatewayConfig,
    GatewayStats, NetError, NodeClient, SessionSummary, PROTOCOL_VERSION,
};

mod support;

use support::{
    assert_full_match, assert_prefix, read_until, recover, system, wire_record, with_gateway,
};

/// Runs one full chaos scenario: stream a record through a fault-injecting
/// proxy, reconnect-and-resume over every failure, close, and return the
/// converged summary plus all counters.
///
/// `calib_len = None` calibrates over the whole record and references the
/// batch `process_record` pipeline directly. `Some(n)` calibrates on the
/// first `n` samples and references the equivalent `StreamHub` lifecycle —
/// used for downstream-fault scenarios, where prefix calibration keeps
/// credit and outcome frames flowing (and thus faultable) *while the
/// session is still open*; a downstream fault after the gateway has closed
/// a session is the documented unrecoverable window (the token is retired
/// with the close).
fn run_chaos(
    chaos: ChaosConfig,
    calib_len: Option<usize>,
    label: &str,
) -> (SessionSummary, GatewayStats, ChaosStats) {
    let fw = &system().wbsn;
    let record = wire_record(6100, 45);
    let fs = record.fs;
    let calib = calib_len.unwrap_or(record.len());
    let reference = match calib_len {
        None => fw.process_record(&record).expect("reference").beats,
        Some(n) => {
            let mut hub = heartbeat_rp::StreamHub::new(fw, fs);
            let lead = record.lead(Lead(0)).expect("lead 0");
            let thresholds = hub.calibrate_thresholds(&lead[..n]).expect("calibrate");
            let id = hub.add_patient(record.id, thresholds);
            hub.ingest(&[(id, lead)]).expect("ingest");
            hub.close_session(id).expect("close").outcomes
        }
    };
    assert!(!reference.is_empty(), "reference must emit beats");

    let config = GatewayConfig {
        credit_budget: 1 << 20,
        max_ingest_per_poll: 2048,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind("127.0.0.1:0", fw, fs, config).expect("bind gateway");
    let gw_addr = gateway.local_addr().expect("gateway addr");
    let proxy = ChaosProxy::bind(gw_addr, chaos).expect("bind proxy");
    let px_addr = proxy.local_addr().expect("proxy addr");

    struct FlipOnDrop<'a>(&'a AtomicBool, &'a AtomicBool);
    impl Drop for FlipOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
            self.1.store(true, Ordering::Release);
        }
    }
    let stop_gw = AtomicBool::new(false);
    let stop_px = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let gw = scope.spawn(|| gateway.run(&stop_gw).expect("gateway runs"));
        let px = scope.spawn(|| proxy.run(&stop_px).expect("proxy runs"));
        let summary = {
            let _flip = FlipOnDrop(&stop_gw, &stop_px);
            let mut client = NodeClient::connect(px_addr).expect("connect via proxy");
            // Bounded I/O: byte-swallowing faults (truncation, a stalled
            // decoder on either end) surface as timeouts → resume, instead
            // of hanging the test. Longer than the proxy's stall pause.
            client
                .set_io_timeout(Some(Duration::from_millis(750)))
                .expect("io timeout");
            let id = client
                .open_session(record.id, fs, calib as u32)
                .expect("open");

            let lead = record.lead(Lead(0)).expect("lead 0");
            let mut sent = 0usize;
            for chunk in lead.chunks(1024) {
                // On any transport failure the chunk is already queued for
                // replay: reconnect, resume, and do NOT re-send it.
                if client.send_mv(id, chunk).is_err() {
                    recover(&mut client, px_addr);
                }
                sent += chunk.len();
                // Once past the calibration stretch the gateway acks on its
                // grant schedule (a sender waiting here goes quiet, so the
                // ack follows within CREDIT_QUIET); pace the sender to those
                // acks so downstream bytes (credit, outcomes) are read as
                // they are produced. A downstream fault then surfaces while
                // the session is still open, instead of racing the close
                // handshake into the documented unrecoverable window.
                // (During calibration no credit flows, so draining there
                // would deadlock.)
                if sent > calib {
                    let start = Instant::now();
                    loop {
                        match client.pump() {
                            Ok(()) if client.replay_depth(id) == 0 => break,
                            Ok(()) => {}
                            Err(_) => recover(&mut client, px_addr),
                        }
                        assert!(
                            start.elapsed() < Duration::from_secs(30),
                            "{label}: gateway never acked the in-flight chunks"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                assert_prefix(client.outcomes(id), &reference, label);
            }
            let start = Instant::now();
            loop {
                match client.close_session(id) {
                    Ok(summary) => break summary,
                    Err(e) => {
                        assert!(
                            start.elapsed() < Duration::from_secs(30),
                            "{label}: close did not converge: {e}"
                        );
                        recover(&mut client, px_addr);
                    }
                }
            }
        };
        let gw_stats = gw.join().expect("gateway thread");
        let px_stats = px.join().expect("proxy thread");

        assert_full_match(&summary.outcomes, &reference, label);
        assert_eq!(
            summary.report.samples as usize,
            record.len(),
            "{label}: every sample counted exactly once"
        );
        assert_eq!(summary.report.beats as usize, reference.len());
        assert_eq!(
            gw_stats.sessions_opened, 1,
            "{label}: resume must re-attach, never re-open (no re-calibration)"
        );
        assert_eq!(gw_stats.sessions_closed, 1);
        (summary, gw_stats, px_stats)
    })
}

fn chaos_upstream(kind: FaultKind) -> ChaosConfig {
    ChaosConfig::fault(kind, support::chaos_seed())
}

#[test]
fn corrupt_upstream_converges_to_the_fault_free_stream() {
    let (_, gw, px) = run_chaos(chaos_upstream(FaultKind::Corrupt), None, "corrupt up");
    assert_eq!(px.faults_injected, 1, "the scheduled corruption fired");
    assert!(gw.sessions_resumed >= 1, "the broken link forced a resume");
}

#[test]
fn corrupt_downstream_converges_to_the_fault_free_stream() {
    // Downstream traffic (credit, outcomes) is far lighter than the sample
    // stream, so the fault offset sits earlier.
    let chaos = ChaosConfig {
        direction: ChaosDirection::Down,
        first_at: 256,
        span: 8,
        ..chaos_upstream(FaultKind::Corrupt)
    };
    let (_, gw, px) = run_chaos(chaos, Some(2048), "corrupt down");
    assert_eq!(px.faults_injected, 1, "the scheduled corruption fired");
    assert!(gw.sessions_resumed >= 1, "the broken link forced a resume");
}

#[test]
fn duplicated_bytes_converge_to_the_fault_free_stream() {
    let (_, gw, px) = run_chaos(chaos_upstream(FaultKind::Duplicate), None, "duplicate");
    assert_eq!(px.faults_injected, 1);
    assert!(gw.sessions_resumed >= 1);
}

#[test]
fn reordered_bytes_converge_to_the_fault_free_stream() {
    let (_, gw, px) = run_chaos(chaos_upstream(FaultKind::Reorder), None, "reorder");
    assert_eq!(px.faults_injected, 1);
    assert!(gw.sessions_resumed >= 1);
}

#[test]
fn truncated_bytes_converge_to_the_fault_free_stream() {
    let (_, gw, px) = run_chaos(chaos_upstream(FaultKind::Truncate), None, "truncate");
    assert_eq!(px.faults_injected, 1);
    assert!(gw.sessions_resumed >= 1);
}

#[test]
fn slow_loris_stall_recovers_transparently() {
    // The stall pause (200 ms) is shorter than the client's I/O timeout
    // (500 ms) and the gateway's idle timeout (30 s): the link hiccups and
    // recovers, usually without even breaking the connection.
    let (_, _, px) = run_chaos(chaos_upstream(FaultKind::Stall), None, "stall");
    assert_eq!(px.stalls, 1, "the scheduled stall fired");
}

#[test]
fn mid_stream_kill_resumes_by_token_and_converges() {
    let (_, gw, px) = run_chaos(chaos_upstream(FaultKind::Kill), None, "kill");
    assert_eq!(px.kills, 1, "the scheduled kill fired");
    assert!(gw.sessions_resumed >= 1, "the killed link forced a resume");
}

#[test]
fn passthrough_proxy_is_invisible() {
    let (_, gw, px) = run_chaos(ChaosConfig::passthrough(), None, "passthrough");
    assert_eq!(px.faults_injected, 0);
    assert_eq!(gw.sessions_resumed, 0);
    assert_eq!(gw.denials, 0);
}

#[test]
fn severed_client_resumes_without_recalibration() {
    // Prefix calibration (not whole-record) proves thresholds survive the
    // resume: were calibration re-run on post-resume data, the outcome
    // stream would diverge from this reference.
    let fw = &system().wbsn;
    let record = wire_record(6200, 40);
    let fs = record.fs;
    let calib_len = 2048usize;
    let reference = {
        let mut hub = heartbeat_rp::StreamHub::new(fw, fs);
        let lead = record.lead(Lead(0)).expect("lead 0");
        let thresholds = hub
            .calibrate_thresholds(&lead[..calib_len])
            .expect("calibrate");
        let id = hub.add_patient(record.id, thresholds);
        hub.ingest(&[(id, lead)]).expect("ingest");
        hub.close_session(id).expect("close").outcomes
    };

    let (summary, stats) = with_gateway(fw, fs, GatewayConfig::default(), |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        let lead = record.lead(Lead(0)).expect("lead 0");
        let half = lead.len() / 2;
        client.send_mv(id, &lead[..half]).expect("first half");
        // The link dies abruptly — no goodbye to the gateway.
        client.sever();
        assert!(
            client.send_mv(id, &lead[half..]).is_err(),
            "a severed connection must refuse traffic"
        );
        // The failed send queued the second half for replay; resume
        // retransmits whatever the gateway is missing.
        recover(&mut client, addr);
        client.close_session(id).expect("close")
    });

    assert_full_match(&summary.outcomes, &reference, "severed");
    assert_eq!(summary.report.samples as usize, record.len());
    assert_eq!(stats.sessions_opened, 1, "no re-open, no re-calibration");
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.sessions_closed, 1);
}

#[test]
fn credit_stalled_sender_resumes_without_losing_or_double_counting_beats() {
    // Regression for the retired-id bookkeeping introduced with eviction
    // handling: a sender stalled on credit (gateway is the slow side) whose
    // connection dies mid-stall must resume inside the retention window and
    // converge with *exactly* one copy of every sample — the unacked replay
    // tail is retransmitted, `next_expected_seq` deduplicates it.
    let fw = &system().wbsn;
    let record = wire_record(6300, 40);
    let fs = record.fs;
    let budget = 4096usize;
    let calib_len = 2048usize;
    let reference = {
        let mut hub = heartbeat_rp::StreamHub::new(fw, fs);
        let lead = record.lead(Lead(0)).expect("lead 0");
        let thresholds = hub
            .calibrate_thresholds(&lead[..calib_len])
            .expect("calibrate");
        let id = hub.add_patient(record.id, thresholds);
        hub.ingest(&[(id, lead)]).expect("ingest");
        hub.close_session(id).expect("close").outcomes
    };

    let config = GatewayConfig {
        credit_budget: budget,
        // A deliberately slow hub, so the sender repeatedly exhausts its
        // credit and the replay buffer rides at its bound.
        max_ingest_per_poll: 256,
        ..GatewayConfig::default()
    };
    let (summary, stats) = with_gateway(fw, fs, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        let lead = record.lead(Lead(0)).expect("lead 0");
        let cut = lead.len() / 2;
        for chunk in lead[..cut].chunks(512) {
            client.send_mv(id, chunk).expect("send");
            // Boundedness witness: unacked frames never exceed a credit
            // budget's worth plus the chunk in flight.
            assert!(
                client.replay_depth(id) <= budget / 512 + 2,
                "replay depth {} exceeds the credit bound",
                client.replay_depth(id)
            );
        }
        client.sever();
        let _ = client.send_mv(id, &lead[cut..]); // queued, not sent
        recover(&mut client, addr);
        client.close_session(id).expect("close")
    });

    assert_full_match(&summary.outcomes, &reference, "credit-stalled resume");
    assert_eq!(
        summary.report.samples as usize,
        record.len(),
        "no sample lost, none double-counted"
    );
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_resumed, 1);
    assert!(
        stats.peak_buffered_samples <= budget,
        "gateway memory stayed bounded through the resume"
    );
}

#[test]
fn expired_retention_window_denies_resume_and_retires_the_wire_id() {
    let fw = &system().wbsn;
    let fs = 360.0;
    let config = GatewayConfig {
        resume_window: Duration::from_millis(50),
        ..GatewayConfig::default()
    };
    let ((), stats) = with_gateway(fw, fs, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client.open_session(77, fs, 512).expect("open");
        // A wavy stream: a flat calibration stretch is degenerate and
        // would end the session instead of leaving it to be parked.
        let stream: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.05).sin()).collect();
        client.send_mv(id, &stream).expect("send");
        client.sever();

        // Wait out the retention window (detach happens when the gateway
        // notices the dead socket, expiry 50 ms later), then the resume
        // must be denied. Deadline-polled with growing pauses: if a resume
        // still slips in, sever and wait longer.
        let start = Instant::now();
        let mut pause = Duration::from_millis(500);
        let denied = loop {
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "retention window never expired"
            );
            std::thread::sleep(pause);
            match client.reconnect_with_backoff(addr, 1, Duration::from_millis(1)) {
                Err(NetError::Denied(message)) => break message,
                Ok(()) => {
                    client.sever();
                    pause *= 2;
                }
                Err(_) => {}
            }
        };
        assert!(
            denied.contains("unknown or expired"),
            "deny should name the cause: {denied}"
        );

        // The expired session's wire id is retired: stragglers addressed to
        // it are dropped silently, not treated as violations — the same
        // connection can open a fresh session right after.
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
            &Frame::Samples {
                session: id,
                seq: 99,
                samples: vec![0i16; 16],
            }
            .encode(),
        )
        .expect("straggler");
        raw.write_all(
            &Frame::OpenSession {
                patient_id: 78,
                fs_millihertz: 360_000,
                calib_len: 512,
            }
            .encode(),
        )
        .expect("reopen");
        let opened = read_until(&mut raw, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        });
        assert!(matches!(opened, Frame::SessionOpened { .. }));
    });
    assert!(stats.sessions_expired >= 1, "the parked session expired");
    assert!(stats.sessions_detached >= 1);
}

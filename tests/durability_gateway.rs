//! Durability: the gateway's ingest log under process crashes.
//!
//! Every scenario drives a real gateway with [`GatewayConfig::wal`] pointed
//! at a scratch directory, kills the process state (drops the gateway), and
//! binds a **fresh** gateway on the same log directory. The invariants:
//!
//! * **crash-safe recovery** — the restarted gateway rebuilds every session
//!   that was open at the kill from the log alone (`sessions_recovered`),
//!   parks it for [`Frame::ResumeSession`], and the owning node re-attaches
//!   *without re-calibrating* (`sessions_opened` stays 0 on the restarted
//!   gateway) and without losing or double-counting a sample;
//! * **bit-identical continuation** — the converged outcome stream after
//!   kill + restart + resume equals the fault-free reference exactly;
//! * **deterministic replay** — [`replay_log`] re-scores the logged streams
//!   through the same firmware into the identical outcome history, for any
//!   worker-thread count, and agrees with what crash recovery rebuilds from
//!   the same crashed log;
//! * **report re-fetch** — a client whose link dies *after* `CloseSession`
//!   was processed but before the final `Report` arrived can re-fetch the
//!   cached report (by resume token or by retrying the close) within the
//!   retention window, closing the protocol's last documented hole — and
//!   so can a client whose session ended on a degenerate calibration
//!   stretch; past the window the cached end is gone and its memory freed;
//! * **resume edges** — a takeover from a still-live connection continues
//!   gap-free on the new one, and a denied resume moves nothing;
//! * **format refusal** — a log in another format is refused by replay and
//!   by a recovering bind, with every byte left in place.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_net::proto::{
    quantize_mv_into, Frame, FrameDecoder, WireOutcome, WireReport,
};
use heartbeat_rp::hbc_net::{replay_log, Gateway, GatewayConfig, NodeClient, PROTOCOL_VERSION};
use heartbeat_rp::hbc_wal::{crc32, WalConfig, WalError};

mod support;

use support::{
    assert_full_match, hub_reference, read_until, recover, system, wire_record, with_gateway,
};

fn wal_config(dir: &std::path::Path) -> GatewayConfig {
    GatewayConfig {
        wal: Some(WalConfig::new(dir)),
        ..GatewayConfig::default()
    }
}

#[test]
fn kill_mid_ingest_recovers_from_the_log_and_converges() {
    let fw = &system().wbsn;
    let record = wire_record(7100, 40);
    let fs = record.fs;
    let calib_len = 2048usize;
    let reference = hub_reference(fw, &record, calib_len);
    assert!(!reference.is_empty(), "reference must emit beats");
    let tmp = support::TempDir::new("wal-kill");

    let lead = record.lead(Lead(0)).expect("lead 0");
    let cut = lead.len() / 2;
    assert!(cut > calib_len, "the kill must land after calibration");

    // Phase 1: stream the first half, drain the acks (everything sent is
    // logged *and* ingested), then the gateway dies — no close, no goodbye.
    let ((mut client, id), gw1) = with_gateway(fw, fs, wal_config(tmp.path()), |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        client
            .set_io_timeout(Some(Duration::from_millis(750)))
            .expect("io timeout");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        for chunk in lead[..cut].chunks(512) {
            client.send_mv(id, chunk).expect("send");
        }
        let start = Instant::now();
        while client.replay_depth(id) > 0 {
            client.pump().expect("pump");
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "gateway never acked the first half"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        (client, id)
    });
    client.sever();
    assert_eq!(gw1.sessions_opened, 1);
    assert_eq!(gw1.sessions_closed, 0, "the kill preempted the close");

    // Phase 2: a fresh gateway on the same log directory rebuilds the
    // session before accepting a single connection.
    let gateway2 = Gateway::bind("127.0.0.1:0", fw, fs, wal_config(tmp.path())).expect("rebind");
    assert_eq!(
        gateway2.stats().sessions_recovered,
        1,
        "the logged session must be rebuilt at bind time"
    );
    assert_eq!(gateway2.parked_sessions(), 1, "recovered ⇒ parked");
    let addr2 = gateway2.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    let (summary, gw2) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway2.run(&shutdown).expect("gateway runs"));
        let summary = {
            struct FlipOnDrop<'a>(&'a AtomicBool);
            impl Drop for FlipOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _flip = FlipOnDrop(&shutdown);
            recover(&mut client, addr2);
            for chunk in lead[cut..].chunks(512) {
                if client.send_mv(id, chunk).is_err() {
                    recover(&mut client, addr2);
                }
            }
            client.close_session(id).expect("close")
        };
        (summary, handle.join().expect("gateway thread"))
    });

    assert_full_match(&summary.outcomes, &reference, "kill mid-ingest");
    assert_eq!(
        summary.report.samples as usize,
        record.len(),
        "every sample counted exactly once across the crash"
    );
    assert_eq!(summary.report.beats as usize, reference.len());
    assert_eq!(
        gw2.sessions_opened, 0,
        "recovery must resume, never re-open (no re-calibration)"
    );
    assert_eq!(gw2.sessions_resumed, 1);
    assert_eq!(gw2.sessions_closed, 1);
}

#[test]
fn recovery_skips_a_closed_session_and_rebuilds_the_open_one() {
    // A's frames interleave with B's on one connection and A closes before
    // the kill: recovery folds A's records and frees them at its close, and
    // rebuilds only B, whose logged stream spans several rebuild rounds.
    let fw = &system().wbsn;
    let record_a = wire_record(7150, 30);
    let record_b = wire_record(7160, 60);
    let fs = record_b.fs;
    let calib_len = 2048usize;
    let reference_a = hub_reference(fw, &record_a, calib_len);
    let reference_b = hub_reference(fw, &record_b, calib_len);
    let tmp = support::TempDir::new("wal-closed");

    let lead_a = record_a.lead(Lead(0)).expect("lead 0");
    let lead_b = record_b.lead(Lead(0)).expect("lead 0");
    let cut = lead_b.len() / 2;
    assert!(
        cut > calib_len + 2048,
        "B's log must run past calibration by more than one 2 048-sample rebuild round"
    );

    let ((mut client, id_b, summary_a), gw1) =
        with_gateway(fw, fs, wal_config(tmp.path()), |addr| {
            let mut client = NodeClient::connect(addr).expect("connect");
            client
                .set_io_timeout(Some(Duration::from_millis(750)))
                .expect("io timeout");
            let id_a = client
                .open_session(record_a.id, fs, calib_len as u32)
                .expect("open A");
            let id_b = client
                .open_session(record_b.id, fs, calib_len as u32)
                .expect("open B");
            let mut chunks_b = lead_b[..cut].chunks(512);
            for chunk_a in lead_a.chunks(512) {
                client.send_mv(id_a, chunk_a).expect("send A");
                if let Some(chunk_b) = chunks_b.next() {
                    client.send_mv(id_b, chunk_b).expect("send B");
                }
            }
            let summary_a = client.close_session(id_a).expect("close A");
            for chunk_b in chunks_b {
                client.send_mv(id_b, chunk_b).expect("send B");
            }
            let start = Instant::now();
            while client.replay_depth(id_b) > 0 {
                client.pump().expect("pump");
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "gateway never acked B's first half"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            (client, id_b, summary_a)
        });
    client.sever();
    assert_eq!(gw1.sessions_opened, 2);
    assert_eq!(
        gw1.sessions_closed, 1,
        "A closed, the kill preempted B's close"
    );
    assert_full_match(&summary_a.outcomes, &reference_a, "A before the kill");

    let gateway2 = Gateway::bind("127.0.0.1:0", fw, fs, wal_config(tmp.path())).expect("rebind");
    assert_eq!(
        gateway2.stats().sessions_recovered,
        1,
        "only the open session is rebuilt"
    );
    assert_eq!(gateway2.parked_sessions(), 1);
    let addr2 = gateway2.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    let (summary_b, gw2) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway2.run(&shutdown).expect("gateway runs"));
        let summary = {
            struct FlipOnDrop<'a>(&'a AtomicBool);
            impl Drop for FlipOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _flip = FlipOnDrop(&shutdown);
            recover(&mut client, addr2);
            for chunk in lead_b[cut..].chunks(512) {
                if client.send_mv(id_b, chunk).is_err() {
                    recover(&mut client, addr2);
                }
            }
            client.close_session(id_b).expect("close B")
        };
        (summary, handle.join().expect("gateway thread"))
    });

    assert_full_match(&summary_b.outcomes, &reference_b, "B across the crash");
    assert_eq!(summary_b.report.samples as usize, record_b.len());
    assert_eq!(gw2.sessions_opened, 0);
    assert_eq!(gw2.sessions_resumed, 1);
    assert_eq!(gw2.sessions_closed, 1);
}

#[test]
fn kill_during_calibration_recovers_the_partial_stretch() {
    let fw = &system().wbsn;
    let record = wire_record(7200, 30);
    let fs = record.fs;
    let calib_len = 2048usize;
    let reference = hub_reference(fw, &record, calib_len);
    let tmp = support::TempDir::new("wal-calib");

    let lead = record.lead(Lead(0)).expect("lead 0");
    let cut = calib_len / 2; // the kill lands before promotion

    let ((mut client, id), gw1) = with_gateway(fw, fs, wal_config(tmp.path()), |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        client
            .set_io_timeout(Some(Duration::from_millis(750)))
            .expect("io timeout");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        client.send_mv(id, &lead[..cut]).expect("send");
        // No credit flows during calibration, so there is no ack to drain;
        // give the reactor a moment to read (convergence below does not
        // depend on it — unlogged frames sit in the replay buffer).
        std::thread::sleep(Duration::from_millis(100));
        (client, id)
    });
    client.sever();
    assert_eq!(gw1.sessions_opened, 1);

    let gateway2 = Gateway::bind("127.0.0.1:0", fw, fs, wal_config(tmp.path())).expect("rebind");
    assert_eq!(gateway2.stats().sessions_recovered, 1);
    let addr2 = gateway2.local_addr().expect("addr");
    let shutdown = AtomicBool::new(false);
    let (summary, gw2) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway2.run(&shutdown).expect("gateway runs"));
        let summary = {
            struct FlipOnDrop<'a>(&'a AtomicBool);
            impl Drop for FlipOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _flip = FlipOnDrop(&shutdown);
            recover(&mut client, addr2);
            for chunk in lead[cut..].chunks(1024) {
                if client.send_mv(id, chunk).is_err() {
                    recover(&mut client, addr2);
                }
            }
            client.close_session(id).expect("close")
        };
        (summary, handle.join().expect("gateway thread"))
    });

    assert_full_match(&summary.outcomes, &reference, "kill during calibration");
    assert_eq!(summary.report.samples as usize, record.len());
    assert_eq!(gw2.sessions_opened, 0);
    assert_eq!(gw2.sessions_resumed, 1);
}

#[test]
fn replay_rescores_the_log_bit_identically_for_any_thread_count() {
    let fw = &system().wbsn;
    let record = wire_record(7300, 35);
    let fs = record.fs;
    let calib_len = 2048usize;
    let tmp = support::TempDir::new("wal-replay");

    // Live run: stream the whole record in uneven chunks and close cleanly.
    let (summary, gw) = with_gateway(fw, fs, wal_config(tmp.path()), |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        let lead = record.lead(Lead(0)).expect("lead 0");
        for chunk in lead.chunks(777) {
            client.send_mv(id, chunk).expect("send");
        }
        client.close_session(id).expect("close")
    });
    assert_eq!(gw.sessions_closed, 1);
    assert!(!summary.outcomes.is_empty());

    // Replay the dead gateway's log through the same firmware: one worker,
    // many workers, default policy — all bit-identical to the live run.
    let single = replay_log(tmp.path(), fw, NonZeroUsize::new(1)).expect("replay single");
    let wide = replay_log(tmp.path(), fw, NonZeroUsize::new(8)).expect("replay wide");
    let auto = replay_log(tmp.path(), fw, None).expect("replay auto");
    for (label, report) in [("single", &single), ("wide", &wide), ("auto", &auto)] {
        assert_eq!(report.sessions.len(), 1, "{label}: one logged session");
        assert!(!report.truncated, "{label}: clean log");
        let s = &report.sessions[0];
        assert!(s.closed, "{label}: the close was logged");
        assert!(s.calibrated, "{label}");
        assert_eq!(s.patient_id, record.id, "{label}");
        assert_eq!(s.samples as usize, record.len(), "{label}");
        assert_full_match(&s.outcomes, &summary.outcomes, label);
    }
}

#[test]
fn a_log_in_another_format_is_refused_by_replay_and_bind_untouched() {
    // A format-1 log (header-less, `len u32` envelope, raw i16 codes) and
    // a headed log of an unknown version: replay and a recovering bind
    // refuse both with the typed error and leave every byte in place,
    // where treating them as corrupt would truncate them away.
    fn format_1_record(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut out = ((body.len() + 1) as u32).to_le_bytes().to_vec();
        out.push(tag);
        out.extend_from_slice(body);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
    let token = 0x5EED_u64.to_le_bytes();
    let mut open = token.to_vec();
    for v in [1u32, 42, 512, 360_000] {
        open.extend_from_slice(&v.to_le_bytes());
    }
    let mut samples = token.to_vec();
    samples.extend_from_slice(&0u32.to_le_bytes());
    samples.extend_from_slice(&600u32.to_le_bytes());
    for i in 0..600i16 {
        samples.extend_from_slice(&(i % 50).to_le_bytes());
    }
    let mut format_1 = format_1_record(1, &open);
    format_1.extend(format_1_record(2, &samples));
    let mut format_9 = b"HBCL".to_vec();
    format_9.extend_from_slice(&9u16.to_le_bytes());
    format_9.extend_from_slice(&(!9u16).to_le_bytes());
    format_9.extend_from_slice(&format_1);

    let fw = &system().wbsn;
    let tmp = support::TempDir::new("wal-foreign");
    let segment = tmp.path().join("0000000000000000.wal");
    for (bytes, want) in [(format_1, None), (format_9, Some(9))] {
        std::fs::write(&segment, &bytes).expect("write segment");
        let refused = |e: std::io::Error| match e.get_ref().and_then(|e| e.downcast_ref()) {
            Some(WalError::UnsupportedFormat { version, .. }) => assert_eq!(*version, want),
            _ => panic!("expected a format refusal, got {e:?}"),
        };
        refused(replay_log(tmp.path(), fw, None).expect_err("replay refuses"));
        refused(
            Gateway::bind("127.0.0.1:0", fw, 360.0, wal_config(tmp.path()))
                .expect_err("bind refuses"),
        );
        assert_eq!(std::fs::read(&segment).expect("read back"), bytes);
        let names: Vec<_> = std::fs::read_dir(tmp.path())
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, [segment.file_name().expect("name")]);
    }
}

#[test]
fn lost_report_after_close_is_refetchable_within_the_window() {
    // The formerly documented hole: the link dies after the gateway
    // processed `CloseSession` but before the client read the `Report`.
    // The token must stay good for a re-fetch within the retention window —
    // via resume *and* via a retried close.
    let fw = &system().wbsn;
    let record = wire_record(7400, 30);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let calib_len = 2048usize;
    let reference = hub_reference(fw, &record, calib_len);

    let ((), stats) = with_gateway(fw, fs, GatewayConfig::default(), |addr| {
        // Connection 1: open, stream everything, close — then lose the link
        // without reading a single reply past the open.
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut decoder = FrameDecoder::new();
        conn.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        conn.write_all(
            &Frame::OpenSession {
                patient_id: record.id,
                fs_millihertz,
                calib_len: calib_len as u32,
            }
            .encode(),
        )
        .expect("open");
        let opened = read_until(&mut conn, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        });
        let Frame::SessionOpened { session, token, .. } = opened else {
            unreachable!()
        };
        let mut codes = Vec::new();
        quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
        let mut sent_frames = 0u32;
        for chunk in codes.chunks(4096) {
            conn.write_all(
                &Frame::Samples {
                    session,
                    seq: sent_frames,
                    samples: chunk.to_vec(),
                }
                .encode(),
            )
            .expect("samples");
            sent_frames += 1;
        }
        conn.write_all(&Frame::CloseSession { session }.encode())
            .expect("close");
        // Half-close: the gateway reads everything (the close is processed,
        // the Report queued) and then drops the connection; every reply —
        // the Report included — is discarded unread. That *is* the lost
        // report.
        conn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        {
            use std::io::Read;
            let mut sink = [0u8; 4096];
            while conn.read(&mut sink).map(|n| n > 0).unwrap_or(false) {}
        }

        // Connection 2: re-fetch by resume token. The cached path answers
        // with the full outcome history and the report.
        let mut conn = TcpStream::connect(addr).expect("reconnect");
        let mut decoder = FrameDecoder::new();
        conn.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        conn.write_all(
            &Frame::ResumeSession {
                patient_id: record.id,
                session_token: token,
                last_acked_seq: 0,
                outcomes_received: 0,
            }
            .encode(),
        )
        .expect("resume");
        let resumed = read_until(&mut conn, &mut decoder, |f| {
            matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
        });
        let Frame::SessionResumed {
            session: rid,
            next_expected_seq,
            credit,
        } = resumed
        else {
            panic!("re-fetch denied: {resumed:?}");
        };
        assert_eq!(rid, session);
        assert_eq!(
            next_expected_seq, sent_frames,
            "the cached position is the final receive position"
        );
        assert_eq!(credit, 0, "an ended session grants no credit");
        let mut outcomes = Vec::new();
        let report = loop {
            match read_until(&mut conn, &mut decoder, |f| {
                matches!(f, Frame::Outcomes { .. } | Frame::Report { .. })
            }) {
                Frame::Outcomes {
                    session: s,
                    outcomes: mut batch,
                } => {
                    assert_eq!(s, session);
                    outcomes.append(&mut batch);
                }
                Frame::Report { session: s, report } => {
                    assert_eq!(s, session);
                    break report;
                }
                _ => unreachable!(),
            }
        };
        let got: Vec<BeatOutcome> = outcomes
            .into_iter()
            .map(|o| o.to_outcome().expect("valid class code"))
            .collect();
        assert_full_match(&got, &reference, "re-fetched history");
        assert_eq!(report.beats as usize, reference.len());
        assert_eq!(report.samples as usize, record.len());

        // Connection 3: a *retried close* for the same (retired) wire id is
        // answered with the cached report too — idempotent, not a denial.
        let mut conn = TcpStream::connect(addr).expect("reconnect 2");
        let mut decoder = FrameDecoder::new();
        conn.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        conn.write_all(&Frame::CloseSession { session }.encode())
            .expect("retried close");
        let again = read_until(&mut conn, &mut decoder, |f| {
            matches!(f, Frame::Report { .. })
        });
        let Frame::Report { session: s, report } = again else {
            unreachable!()
        };
        assert_eq!(s, session);
        assert_eq!(report.beats as usize, reference.len());
        assert_eq!(report.samples as usize, record.len());
    });

    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1, "the close was processed once");
    assert_eq!(
        stats.sessions_resumed, 0,
        "the re-fetch is served from the cache, not a live resume"
    );
    assert_eq!(stats.reports_refetched, 2, "once by token, once by close");
    assert_eq!(stats.denials, 0, "no path through this scenario denies");
}

/// Raw-socket helper: connects and says Hello. The read timeout turns a
/// reply that never comes into a test failure instead of a hang.
fn raw_connect(addr: SocketAddr) -> (TcpStream, FrameDecoder) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    conn.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("hello");
    (conn, FrameDecoder::new())
}

#[test]
fn degenerate_calibration_report_is_refetchable_within_the_window() {
    // A calibration stretch too short to derive thresholds from ends the
    // session with an empty Report. That end is a close like any other:
    // a retried close and a resume by token both re-serve the cached
    // Report instead of going unanswered or being denied.
    let fw = &system().wbsn;
    let record = wire_record(7500, 4);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let mut codes = Vec::new();
    quantize_mv_into(&record.lead(Lead(0)).expect("lead 0")[..4], &mut codes);
    let empty = WireReport {
        beats: 0,
        forwarded: 0,
        samples: 4,
    };

    let ((), stats) = with_gateway(fw, fs, GatewayConfig::default(), |addr| {
        let (mut conn, mut decoder) = raw_connect(addr);
        conn.write_all(
            &Frame::OpenSession {
                patient_id: record.id,
                fs_millihertz,
                calib_len: 4,
            }
            .encode(),
        )
        .expect("open");
        let Frame::SessionOpened { session, token, .. } =
            read_until(&mut conn, &mut decoder, |f| {
                matches!(f, Frame::SessionOpened { .. })
            })
        else {
            unreachable!()
        };
        conn.write_all(
            &Frame::Samples {
                session,
                seq: 0,
                samples: codes.clone(),
            }
            .encode(),
        )
        .expect("samples");
        let is_report = |f: &Frame| matches!(f, Frame::Report { .. });
        let first = read_until(&mut conn, &mut decoder, is_report);
        assert_eq!(
            first,
            Frame::Report {
                session,
                report: empty
            }
        );

        // The client retries its close (it may have missed the Report).
        conn.write_all(&Frame::CloseSession { session }.encode())
            .expect("retried close");
        let again = read_until(&mut conn, &mut decoder, is_report);
        assert_eq!(
            again,
            Frame::Report {
                session,
                report: empty
            }
        );

        // A fresh link resumes by token and gets the end of the session.
        let (mut conn, mut decoder) = raw_connect(addr);
        conn.write_all(
            &Frame::ResumeSession {
                patient_id: record.id,
                session_token: token,
                last_acked_seq: 1,
                outcomes_received: 0,
            }
            .encode(),
        )
        .expect("resume");
        let resumed = read_until(&mut conn, &mut decoder, |f| {
            matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
        });
        assert_eq!(
            resumed,
            Frame::SessionResumed {
                session,
                next_expected_seq: 1,
                credit: 0
            }
        );
        let report = read_until(&mut conn, &mut decoder, is_report);
        assert_eq!(
            report,
            Frame::Report {
                session,
                report: empty
            }
        );
    });

    assert_eq!(stats.sessions_closed, 1, "the session ended once");
    assert_eq!(stats.reports_refetched, 2, "once by close, once by token");
    assert_eq!(stats.denials, 0);
}

#[test]
fn recovery_and_replay_agree_on_a_crashed_log() {
    // Crash recovery and offline replay read the log through one fold. On
    // the same crashed log they must agree: the session the restarted
    // gateway resumes has the receive position and the outcome history
    // that `replay_log` reconstructs.
    let fw = &system().wbsn;
    let record = wire_record(7600, 40);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let calib_len = 2048u32;
    let tmp = support::TempDir::new("wal-agree");
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    let cut = codes.len() / 2;
    assert!(
        cut > calib_len as usize,
        "the kill must land after calibration"
    );

    // Phase 1: stream the first half, wait until the gateway acks every
    // frame (logged and ingested), then kill it.
    let ((session, token, sent), _) = with_gateway(fw, fs, wal_config(tmp.path()), |addr| {
        let (mut conn, mut decoder) = raw_connect(addr);
        conn.write_all(
            &Frame::OpenSession {
                patient_id: record.id,
                fs_millihertz,
                calib_len,
            }
            .encode(),
        )
        .expect("open");
        let Frame::SessionOpened { session, token, .. } =
            read_until(&mut conn, &mut decoder, |f| {
                matches!(f, Frame::SessionOpened { .. })
            })
        else {
            unreachable!()
        };
        let mut sent = 0u32;
        for chunk in codes[..cut].chunks(512) {
            conn.write_all(
                &Frame::Samples {
                    session,
                    seq: sent,
                    samples: chunk.to_vec(),
                }
                .encode(),
            )
            .expect("samples");
            sent += 1;
        }
        read_until(
            &mut conn,
            &mut decoder,
            |f| matches!(f, Frame::Credit { acked_seq, .. } if *acked_seq == sent),
        );
        (session, token, sent)
    });

    let replay = replay_log(tmp.path(), fw, None).expect("replay");
    assert_eq!(replay.sessions.len(), 1);
    let replayed = &replay.sessions[0];
    assert!(!replayed.closed, "the kill preempted the close");
    assert!(replayed.calibrated);
    assert_eq!(replayed.samples as usize, cut);
    assert!(!replayed.outcomes.is_empty(), "the log must hold beats");

    // Phase 2: a restarted gateway rebuilds the session from the same
    // bytes; resuming with no outcomes received rewinds forwarding to the
    // start of the rebuilt history.
    let ((next_expected_seq, resumed), gw2) =
        with_gateway(fw, fs, wal_config(tmp.path()), |addr| {
            let (mut conn, mut decoder) = raw_connect(addr);
            conn.write_all(
                &Frame::ResumeSession {
                    patient_id: record.id,
                    session_token: token,
                    last_acked_seq: sent,
                    outcomes_received: 0,
                }
                .encode(),
            )
            .expect("resume");
            let reply = read_until(&mut conn, &mut decoder, |f| {
                matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
            });
            let Frame::SessionResumed {
                session: rid,
                next_expected_seq,
                ..
            } = reply
            else {
                panic!("resume denied: {reply:?}");
            };
            assert_eq!(rid, session);
            let mut outcomes = Vec::new();
            while outcomes.len() < replayed.outcomes.len() {
                let Frame::Outcomes {
                    outcomes: mut batch,
                    ..
                } = read_until(&mut conn, &mut decoder, |f| {
                    matches!(f, Frame::Outcomes { .. })
                })
                else {
                    unreachable!()
                };
                outcomes.append(&mut batch);
            }
            (next_expected_seq, outcomes)
        });

    assert_eq!(gw2.sessions_recovered, 1);
    assert_eq!(gw2.sessions_resumed, 1);
    assert_eq!(next_expected_seq, sent, "same receive position");
    let resumed: Vec<BeatOutcome> = resumed
        .into_iter()
        .map(|o| o.to_outcome().expect("valid class code"))
        .collect();
    assert_full_match(&resumed, &replayed.outcomes, "recovered vs replayed");
}

/// Raw-socket helper: sends `OpenSession` and returns the session id and
/// resume token from the `SessionOpened` reply.
fn raw_open(
    conn: &mut TcpStream,
    decoder: &mut FrameDecoder,
    patient_id: u32,
    fs_millihertz: u32,
    calib_len: u32,
) -> (u32, u64) {
    conn.write_all(
        &Frame::OpenSession {
            patient_id,
            fs_millihertz,
            calib_len,
        }
        .encode(),
    )
    .expect("open");
    let Frame::SessionOpened { session, token, .. } =
        read_until(conn, decoder, |f| matches!(f, Frame::SessionOpened { .. }))
    else {
        unreachable!()
    };
    (session, token)
}

#[test]
fn denied_resume_leaves_the_session_with_its_owner() {
    // A resume whose `last_acked_seq` claims more than the gateway received
    // is denied. The denial must not move the session: its healthy owner
    // keeps streaming and closes it normally.
    let fw = &system().wbsn;
    let record = wire_record(7700, 12);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    let half = codes.len() / 2;

    let ((), stats) = with_gateway(fw, fs, GatewayConfig::default(), |addr| {
        let (mut owner, mut owner_decoder) = raw_connect(addr);
        let (session, token) = raw_open(
            &mut owner,
            &mut owner_decoder,
            record.id,
            fs_millihertz,
            512,
        );
        let samples = |seq: u32, chunk: &[i16]| {
            Frame::Samples {
                session,
                seq,
                samples: chunk.to_vec(),
            }
            .encode()
        };
        owner
            .write_all(&samples(0, &codes[..half]))
            .expect("samples");

        let (mut thief, mut thief_decoder) = raw_connect(addr);
        thief
            .write_all(
                &Frame::ResumeSession {
                    patient_id: record.id,
                    session_token: token,
                    last_acked_seq: 1_000_000,
                    outcomes_received: 0,
                }
                .encode(),
            )
            .expect("resume");
        let Frame::Deny { message } = read_until(&mut thief, &mut thief_decoder, |f| {
            matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
        }) else {
            panic!("an over-claiming resume must be denied");
        };
        assert!(message.contains("resume claims"), "{message}");

        owner
            .write_all(&samples(1, &codes[half..]))
            .expect("samples");
        owner
            .write_all(&Frame::CloseSession { session }.encode())
            .expect("close");
        let end = read_until(&mut owner, &mut owner_decoder, |f| {
            matches!(f, Frame::Report { .. } | Frame::Deny { .. })
        });
        let Frame::Report { report, .. } = end else {
            panic!("the owner lost its session to a denied resume: {end:?}");
        };
        assert_eq!(report.samples as usize, codes.len());
    });

    assert_eq!(stats.denials, 1, "only the over-claiming resume");
    assert_eq!(stats.sessions_resumed, 0);
    assert_eq!(stats.sessions_detached, 0, "the session never moved");
    assert_eq!(stats.sessions_closed, 1);
}

#[test]
fn credit_overrun_deny_leaves_the_receive_position() {
    // Under `OverflowPolicy::Disconnect` a frame past the credit budget is
    // denied and never logged. The gateway did not take it, so a resume
    // must restart at its seq, not one past it: a replaying sender would
    // otherwise skip a frame the gateway never had.
    let fw = &system().wbsn;
    let record = wire_record(7750, 8);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let mut codes = Vec::new();
    quantize_mv_into(&record.lead(Lead(0)).expect("lead 0")[..1025], &mut codes);
    let config = GatewayConfig {
        credit_budget: 1024,
        ..GatewayConfig::default()
    };

    let ((), stats) = with_gateway(fw, fs, config, |addr| {
        let (mut conn, mut decoder) = raw_connect(addr);
        let (session, token) = raw_open(&mut conn, &mut decoder, record.id, fs_millihertz, 512);
        conn.write_all(
            &Frame::Samples {
                session,
                seq: 0,
                samples: codes.clone(),
            }
            .encode(),
        )
        .expect("samples");
        let Frame::Deny { message } =
            read_until(&mut conn, &mut decoder, |f| matches!(f, Frame::Deny { .. }))
        else {
            unreachable!()
        };
        assert!(message.starts_with("credit exceeded"), "{message}");

        let (mut again, mut again_decoder) = raw_connect(addr);
        again
            .write_all(
                &Frame::ResumeSession {
                    patient_id: record.id,
                    session_token: token,
                    last_acked_seq: 0,
                    outcomes_received: 0,
                }
                .encode(),
            )
            .expect("resume");
        let resumed = read_until(&mut again, &mut again_decoder, |f| {
            matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
        });
        let Frame::SessionResumed {
            next_expected_seq, ..
        } = resumed
        else {
            panic!("the resume must succeed: {resumed:?}");
        };
        assert_eq!(next_expected_seq, 0, "the denied frame was never received");
    });

    assert_eq!(stats.denials, 1, "only the credit overrun");
    assert_eq!(stats.samples_in, 0);
    assert_eq!(stats.sessions_resumed, 1);
}

#[test]
fn takeover_continues_gap_free_on_the_new_connection() {
    // `ResumeSession` on a second connection while the first still holds
    // the session takes it over: the outcome stream continues on the new
    // connection without a gap or a duplicate, and the old connection's
    // next frame for the session is refused.
    let fw = &system().wbsn;
    let record = wire_record(7800, 40);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let calib_len = 2048u32;
    let reference = hub_reference(fw, &record, calib_len as usize);
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    let cut = codes.len() / 2;
    assert!(
        cut > calib_len as usize,
        "the takeover lands after calibration"
    );

    let ((), stats) = with_gateway(fw, fs, GatewayConfig::default(), |addr| {
        let (mut old, mut old_decoder) = raw_connect(addr);
        let (session, token) = raw_open(
            &mut old,
            &mut old_decoder,
            record.id,
            fs_millihertz,
            calib_len,
        );
        let mut seq = 0u32;
        for chunk in codes[..cut].chunks(512) {
            old.write_all(
                &Frame::Samples {
                    session,
                    seq,
                    samples: chunk.to_vec(),
                }
                .encode(),
            )
            .expect("samples");
            seq += 1;
        }
        // Collect outcomes until the gateway acknowledges every frame.
        let mut outcomes = Vec::new();
        loop {
            match read_until(&mut old, &mut old_decoder, |f| {
                matches!(f, Frame::Outcomes { .. } | Frame::Credit { .. })
            }) {
                Frame::Outcomes {
                    outcomes: mut o, ..
                } => outcomes.append(&mut o),
                Frame::Credit { acked_seq, .. } if acked_seq == seq => break,
                _ => {}
            }
        }

        let (mut new, mut new_decoder) = raw_connect(addr);
        new.write_all(
            &Frame::ResumeSession {
                patient_id: record.id,
                session_token: token,
                last_acked_seq: seq,
                outcomes_received: outcomes.len() as u64,
            }
            .encode(),
        )
        .expect("resume");
        let resumed = read_until(&mut new, &mut new_decoder, |f| {
            matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
        });
        let Frame::SessionResumed {
            next_expected_seq, ..
        } = resumed
        else {
            panic!("takeover denied: {resumed:?}");
        };
        assert_eq!(next_expected_seq, seq);

        old.write_all(
            &Frame::Samples {
                session,
                seq,
                samples: codes[cut..cut + 1].to_vec(),
            }
            .encode(),
        )
        .expect("stale samples");
        let Frame::Deny { message } = read_until(&mut old, &mut old_decoder, |f| {
            matches!(f, Frame::Deny { .. })
        }) else {
            unreachable!()
        };
        assert!(
            message.contains("belongs to another connection"),
            "{message}"
        );

        for chunk in codes[cut..].chunks(512) {
            new.write_all(
                &Frame::Samples {
                    session,
                    seq,
                    samples: chunk.to_vec(),
                }
                .encode(),
            )
            .expect("samples");
            seq += 1;
        }
        new.write_all(&Frame::CloseSession { session }.encode())
            .expect("close");
        while let Frame::Outcomes {
            outcomes: mut o, ..
        } = read_until(&mut new, &mut new_decoder, |f| {
            matches!(f, Frame::Outcomes { .. } | Frame::Report { .. })
        }) {
            outcomes.append(&mut o);
        }
        let got: Vec<BeatOutcome> = outcomes
            .into_iter()
            .map(|o| o.to_outcome().expect("valid class code"))
            .collect();
        assert_full_match(&got, &reference, "old then new connection");
    });

    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.sessions_detached, 0, "a takeover never parks");
    assert_eq!(stats.denials, 1, "only the stale frame on the old link");
}

/// Drives a gateway by hand until `conn` yields a frame `want` matches.
fn poll_until(
    gateway: &mut Gateway<'_>,
    conn: &mut TcpStream,
    decoder: &mut FrameDecoder,
    want: impl Fn(&Frame) -> bool,
) -> Frame {
    use std::io::Read;
    conn.set_read_timeout(Some(Duration::from_millis(2)))
        .expect("read timeout");
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(frame) = decoder.next_frame().expect("valid") {
            if want(&frame) {
                return frame;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "no expected frame"
        );
        gateway.poll().expect("poll");
        match conn.read(&mut buf) {
            Ok(0) => panic!("gateway hung up before the expected frame"),
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

#[test]
fn expired_report_cache_denies_refetch_and_frees_its_memory() {
    // Past the retention window an ended session's cached end is gone: a
    // resume by its token is denied, a retried close of its retired wire id
    // is ignored, and the cached history leaves the memory ledger.
    let fw = &system().wbsn;
    let record = wire_record(7900, 30);
    let fs = record.fs;
    let fs_millihertz = (fs * 1000.0).round() as u32;
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    let window = Duration::from_millis(200);
    let config = GatewayConfig {
        resume_window: window,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::bind("127.0.0.1:0", fw, fs, config).expect("bind");
    let addr = gateway.local_addr().expect("addr");

    let (mut conn, mut decoder) = raw_connect(addr);
    conn.write_all(
        &Frame::OpenSession {
            patient_id: record.id,
            fs_millihertz,
            calib_len: 2048,
        }
        .encode(),
    )
    .expect("open");
    let Frame::SessionOpened { session, token, .. } =
        poll_until(&mut gateway, &mut conn, &mut decoder, |f| {
            matches!(f, Frame::SessionOpened { .. })
        })
    else {
        unreachable!()
    };
    for (seq, chunk) in codes.chunks(4096).enumerate() {
        conn.write_all(
            &Frame::Samples {
                session,
                seq: seq as u32,
                samples: chunk.to_vec(),
            }
            .encode(),
        )
        .expect("samples");
    }
    conn.write_all(&Frame::CloseSession { session }.encode())
        .expect("close");
    let Frame::Report { report, .. } = poll_until(&mut gateway, &mut conn, &mut decoder, |f| {
        matches!(f, Frame::Report { .. })
    }) else {
        unreachable!()
    };
    assert!(report.beats > 0, "the session must cache a history");
    drop(conn);
    gateway.poll().expect("poll");
    let cached = gateway.health().memory_used_bytes;
    assert!(cached >= report.beats as usize * std::mem::size_of::<WireOutcome>());

    std::thread::sleep(window + Duration::from_millis(50));
    gateway.poll().expect("poll");
    let expired = gateway.health().memory_used_bytes;
    assert_eq!(
        cached - expired,
        report.beats as usize * std::mem::size_of::<WireOutcome>(),
        "expiry frees exactly the cached history"
    );

    let (mut conn, mut decoder) = raw_connect(addr);
    conn.write_all(
        &Frame::ResumeSession {
            patient_id: record.id,
            session_token: token,
            last_acked_seq: 0,
            outcomes_received: 0,
        }
        .encode(),
    )
    .expect("resume");
    let reply = poll_until(&mut gateway, &mut conn, &mut decoder, |f| {
        matches!(f, Frame::SessionResumed { .. } | Frame::Deny { .. })
    });
    let Frame::Deny { message } = reply else {
        panic!("an expired report was re-served: {reply:?}");
    };
    assert!(message.contains("unknown or expired"), "{message}");

    // The retried close is dropped silently: the next reply on the same
    // connection answers the open that follows it.
    let (mut conn, mut decoder) = raw_connect(addr);
    conn.write_all(&Frame::CloseSession { session }.encode())
        .expect("retried close");
    conn.write_all(
        &Frame::OpenSession {
            patient_id: record.id,
            fs_millihertz,
            calib_len: 2048,
        }
        .encode(),
    )
    .expect("open");
    let reply = poll_until(&mut gateway, &mut conn, &mut decoder, |f| {
        !matches!(f, Frame::Hello { .. })
    });
    assert!(
        matches!(reply, Frame::SessionOpened { .. }),
        "a retired id's close must be ignored, got {reply:?}"
    );
    assert_eq!(gateway.stats().reports_refetched, 0);
    assert_eq!(gateway.stats().denials, 1, "only the expired resume");
}

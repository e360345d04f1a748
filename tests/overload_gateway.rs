//! The gateway under deliberate overload: admission control, the global
//! memory budget, priority-aware shedding and the slow-peer defenses.
//!
//! The centerpiece is a soak: a storm of normal-rhythm blasters whose
//! combined credit is **twice** the global memory budget, streaming
//! alongside paced arrhythmia-heavy sessions, followed by a trickle peer
//! dripping one byte at a time through a [`ChaosProxy`]. The invariants:
//!
//! * **bounded memory** — the gateway's buffered sample bytes never exceed
//!   the configured budget plus one in-flight ingest chunk
//!   ([`GatewayStats::peak_buffered_bytes`] is the witness);
//! * **priority protection** — sessions whose recent outcomes contain
//!   abnormal beats are shed last: their delivered streams stay gap-free
//!   and bit-identical to the fault-free reference even while
//!   normal-rhythm traffic is being shed around them;
//! * **clean degradation** — blasters whose tails are shed keep making
//!   progress (shed samples return credit; a gap, never a deadlock), and
//!   trickle senders are reaped into the ordinary detach/resume path.
//!
//! Satellites: `Busy { retry_after_ms }` admission denials that converge
//! after the hinted pause, resume-while-at-capacity (parked sessions are
//! not double-counted), the pre-session handshake deadline, the oversized
//! calibration hard-deny, and the health/heartbeat snapshot.
//!
//! `HBC_SOAK_STORM` caps the blaster fleet for CI's fast profile (min 4 —
//! below that the storm no longer doubles the budget).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_net::proto::{Frame, FrameDecoder};
use heartbeat_rp::hbc_net::{
    ChaosConfig, ChaosDirection, ChaosProxy, FaultKind, Gateway, GatewayConfig, NetError,
    NodeClient, SessionSummary, PROTOCOL_VERSION,
};

mod support;

use support::{
    assert_full_match, assert_prefix, hub_reference, recover, system, wire_record_mix, with_gateway,
};

/// Bytes one buffered sample occupies gateway-side (the gateway buffers
/// the wire's `i16` ADC codes).
const SAMPLE_BYTES: usize = std::mem::size_of::<i16>();

/// Connects and opens a session, honoring `Busy { retry_after_ms }` by
/// pausing for exactly the hinted interval before retrying — the compliant
/// client loop the admission controller is designed for.
fn open_with_retry(addr: SocketAddr, patient: u32, fs: f64, calib: u32) -> (NodeClient, u32) {
    let start = Instant::now();
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "admission never granted for patient {patient}"
        );
        let mut client = match NodeClient::connect(addr) {
            Ok(c) => c,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        client
            .set_io_timeout(Some(Duration::from_secs(2)))
            .expect("io timeout");
        match client.open_session(patient, fs, calib) {
            Ok(id) => return (client, id),
            Err(NetError::Busy(after)) => std::thread::sleep(after),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Pumps until every sent chunk has been acked by the gateway.
fn pump_until_drained(client: &mut NodeClient, id: u32, addr: SocketAddr, label: &str) {
    let start = Instant::now();
    loop {
        match client.pump() {
            Ok(()) if client.replay_depth(id) == 0 => return,
            Ok(()) => {}
            Err(_) => recover(client, addr),
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{label}: gateway never acked the in-flight chunks"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Pumps until at least `floor` credit is available again. Acks track the
/// gateway's *receive* position, so `replay_depth` going to zero only
/// proves delivery; credit returns with *consumption*, so this is the loop
/// that actually bounds how much of a session sits buffered gateway-side.
fn pump_until_credit(
    client: &mut NodeClient,
    id: u32,
    addr: SocketAddr,
    floor: usize,
    label: &str,
) {
    let start = Instant::now();
    loop {
        match client.pump() {
            Ok(()) if client.credit(id) >= floor => return,
            Ok(()) => {}
            Err(_) => recover(client, addr),
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{label}: credit never returned"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn close_with_retry(
    client: &mut NodeClient,
    id: u32,
    addr: SocketAddr,
    label: &str,
) -> SessionSummary {
    let start = Instant::now();
    loop {
        match client.close_session(id) {
            Ok(summary) => return summary,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "{label}: close did not converge: {e}"
                );
                recover(client, addr);
            }
        }
    }
}

/// Blaster fleet size: `HBC_SOAK_STORM` caps it in CI; the floor of 4
/// keeps the storm's combined credit at twice the budget it implies.
fn storm_size() -> usize {
    std::env::var("HBC_SOAK_STORM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
        .max(4)
}

/// The acceptance soak. Three-phase, one gateway:
///
/// 1. two arrhythmia-heavy sessions open first and stream paced until the
///    gateway has seen at least one abnormal outcome from each (their
///    priority is now `Critical`);
/// 2. the storm: `storm_size()` normal-rhythm blasters, each entitled to a
///    full credit budget, twice the global memory budget in aggregate —
///    shedding must hold the ledger at the budget while the arrhythmia
///    streams stay bit-exact;
/// 3. a trickle peer drips one byte at a time through a chaos proxy until
///    the minimum-progress check reaps it, then resumes directly and
///    converges to the full reference.
#[test]
fn overload_soak_bounds_memory_and_protects_abnormal_streams() {
    const CREDIT: usize = 4096;
    const ARR_SENDERS: usize = 2;
    const ARR_CALIB: usize = 2048;
    const MAX_INGEST: usize = 256;

    let blasters = storm_size();
    let budget_samples = blasters * CREDIT / 2;
    let budget_bytes = budget_samples * SAMPLE_BYTES;

    let fw = &system().wbsn;
    let arr_records: Vec<EcgRecord> = (0..ARR_SENDERS)
        .map(|i| wire_record_mix(9100 + i as u64, 40, 0.5, 0.1))
        .collect();
    let arr_refs: Vec<Vec<BeatOutcome>> = arr_records
        .iter()
        .map(|r| hub_reference(fw, r, ARR_CALIB))
        .collect();
    let trickle_record = wire_record_mix(9300, 35, 0.1, 0.1);
    let trickle_ref = hub_reference(fw, &trickle_record, ARR_CALIB);
    let fs = trickle_record.fs;
    for r in &arr_records {
        assert_eq!(r.fs, fs, "all records share the gateway sampling rate");
    }

    let config = GatewayConfig {
        credit_budget: CREDIT,
        max_ingest_per_poll: MAX_INGEST,
        global_memory_budget: budget_bytes,
        busy_retry_after: Duration::from_millis(50),
        // Fast enough to reap the trickle peer mid-test; generous enough
        // that a paced sender waiting on outcomes is never mistaken for
        // one (it has no partial frame pending while it waits).
        progress_interval: Duration::from_millis(500),
        min_progress_bytes: 128,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind("127.0.0.1:0", fw, fs, config).expect("bind gateway");
    let addr = gateway.local_addr().expect("gateway addr");
    let chaos = ChaosConfig {
        seed: support::chaos_seed(),
        kind: FaultKind::Trickle,
        // About three quarters into the trickle peer's ~8 KB uplink, so
        // the stall starts well before the stream would have ended.
        first_at: 6 * 1024,
        repeat_every: 0,
        max_faults: 1,
        direction: ChaosDirection::Up,
        span: 0,
        stall: Duration::from_millis(100),
    };
    let proxy = ChaosProxy::bind(addr, chaos).expect("bind proxy");
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
    // Blasters hold fire until every arrhythmia session has an abnormal
    // outcome on record — priority must be established before pressure.
    let armed = AtomicUsize::new(0);

    let (gw_stats, px_stats) = std::thread::scope(|scope| {
        let gw = scope.spawn(|| gateway.run(&stop_gw).expect("gateway runs"));
        let px = scope.spawn(|| proxy.run(&stop_px).expect("proxy runs"));
        {
            let _flip = FlipOnDrop(&stop_gw, &stop_px);

            let arr_handles: Vec<_> = arr_records
                .iter()
                .enumerate()
                .map(|(i, record)| {
                    let armed = &armed;
                    scope.spawn(move || {
                        let label = format!("arr {i}");
                        let lead = record.lead(Lead(0)).expect("lead 0");
                        let (mut client, id) =
                            open_with_retry(addr, record.id, record.fs, ARR_CALIB as u32);
                        let mut sent = 0usize;
                        let mut is_armed = false;
                        for chunk in lead.chunks(1024) {
                            if client.send_mv(id, chunk).is_err() {
                                recover(&mut client, addr);
                            }
                            sent += chunk.len();
                            if sent <= ARR_CALIB {
                                continue;
                            }
                            // Credit-paced: at most one chunk of this
                            // session sits unconsumed gateway-side, so a
                            // modest buffer rides through the storm — the
                            // shed passes must never need to reach it.
                            pump_until_credit(&mut client, id, addr, CREDIT - chunk.len(), &label);
                            if !is_armed
                                && client
                                    .outcomes(id)
                                    .iter()
                                    .any(|o| o.predicted.is_abnormal())
                            {
                                is_armed = true;
                                armed.fetch_add(1, Ordering::Release);
                            }
                        }
                        if !is_armed {
                            armed.fetch_add(1, Ordering::Release);
                        }
                        close_with_retry(&mut client, id, addr, &label)
                    })
                })
                .collect();

            let blaster_handles: Vec<_> = (0..blasters)
                .map(|i| {
                    let armed = &armed;
                    scope.spawn(move || {
                        let record = wire_record_mix(9500 + i as u64, 20, 0.0, 0.0);
                        let lead = record.lead(Lead(0)).expect("lead 0");
                        let hold = Instant::now();
                        while armed.load(Ordering::Acquire) < ARR_SENDERS {
                            assert!(
                                hold.elapsed() < Duration::from_secs(60),
                                "arrhythmia sessions never armed"
                            );
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        let (mut client, id) = open_with_retry(addr, record.id, record.fs, 512);
                        for chunk in lead.chunks(1024) {
                            // Unpaced: ride the credit budget. Shed tails
                            // return credit, so an overloaded gateway
                            // costs the blaster a gap, not a deadlock.
                            if client.send_mv(id, chunk).is_err() {
                                recover(&mut client, addr);
                            }
                        }
                        close_with_retry(&mut client, id, addr, &format!("blaster {i}"))
                    })
                })
                .collect();

            for (i, h) in blaster_handles.into_iter().enumerate() {
                let summary = h.join().expect("blaster thread");
                assert!(
                    summary.report.samples > 0,
                    "blaster {i} made no progress at all"
                );
            }
            for (i, h) in arr_handles.into_iter().enumerate() {
                let summary = h.join().expect("arr thread");
                let label = format!("arr {i}");
                assert_full_match(&summary.outcomes, &arr_refs[i], &label);
                assert_eq!(
                    summary.report.samples as usize,
                    arr_records[i].len(),
                    "{label}: every sample counted exactly once under overload"
                );
            }

            // Phase 3: the trickle peer. The proxy passes the handshake
            // and the first 6 KiB through, then drips one byte per 100 ms;
            // the minimum-progress check reaps the connection and the
            // client resumes directly, converging to the full stream.
            let lead = trickle_record.lead(Lead(0)).expect("lead 0");
            let (mut client, id) = open_with_retry(
                px_addr,
                trickle_record.id,
                trickle_record.fs,
                ARR_CALIB as u32,
            );
            client
                .set_io_timeout(Some(Duration::from_millis(750)))
                .expect("io timeout");
            let mut sent = 0usize;
            let mut reaped = false;
            for chunk in lead.chunks(1024) {
                if client.send_mv(id, chunk).is_err() {
                    if !reaped {
                        // First failure: the proxy has stopped draining.
                        // Give the progress check time to reap the dripping
                        // connection before resuming around it.
                        reaped = true;
                        std::thread::sleep(Duration::from_millis(1500));
                    }
                    recover(&mut client, addr);
                }
                sent += chunk.len();
                if sent > ARR_CALIB {
                    pump_until_drained(&mut client, id, addr, "trickle");
                }
                assert_prefix(client.outcomes(id), &trickle_ref, "trickle");
            }
            let summary = close_with_retry(&mut client, id, addr, "trickle");
            assert_full_match(&summary.outcomes, &trickle_ref, "trickle");
            assert_eq!(summary.report.samples as usize, trickle_record.len());
        }
        (
            gw.join().expect("gateway thread"),
            px.join().expect("proxy thread"),
        )
    });

    // The storm's aggregate credit was twice the budget, so shedding had
    // to fire — and the global ledger never crossed the budget by more
    // than the one chunk the ingest sweep holds in flight.
    assert!(gw_stats.sheds >= 1, "the storm never forced a shed");
    assert!(gw_stats.samples_shed >= 1);
    assert!(
        gw_stats.peak_buffered_bytes <= budget_bytes + MAX_INGEST * SAMPLE_BYTES,
        "peak buffered bytes {} exceed budget {} plus one in-flight chunk",
        gw_stats.peak_buffered_bytes,
        budget_bytes
    );
    assert!(
        gw_stats.progress_reaps >= 1,
        "the trickle peer was never reaped"
    );
    assert!(gw_stats.sessions_resumed >= 1, "the trickle peer resumed");
    assert_eq!(px_stats.trickles, 1, "the scheduled trickle armed once");
    assert_eq!(gw_stats.denials, 0, "no peer misbehaved");
    assert_eq!(gw_stats.internal_skips, 0);
}

#[test]
fn busy_denial_converges_after_the_hinted_pause() {
    let fw = &system().wbsn;
    let record = wire_record_mix(9700, 25, 0.1, 0.1);
    let fs = record.fs;
    let reference = fw.process_record(&record).expect("reference").beats;
    let retry_after = Duration::from_millis(100);
    let config = GatewayConfig {
        max_sessions: 1,
        busy_retry_after: retry_after,
        ..GatewayConfig::default()
    };
    let ((), stats) = with_gateway(fw, fs, config, |addr| {
        let mut first = NodeClient::connect(addr).expect("connect");
        let a = first.open_session(1, fs, 512).expect("open");

        // The gateway is at its session cap: a second open is answered
        // with Busy carrying the configured retry hint, not a Deny.
        let mut probe = NodeClient::connect(addr).expect("connect probe");
        let after = match probe.open_session(2, fs, 512) {
            Err(NetError::Busy(after)) => after,
            other => panic!("expected Busy at the session cap, got {other:?}"),
        };
        assert_eq!(after, retry_after, "the wire hint echoes the config");

        let lead = record.lead(Lead(0)).expect("lead 0");
        first.send_mv(a, &lead[..1024]).expect("send");
        let first_summary = first.close_session(a).expect("close first");
        assert!(first_summary.report.beats > 0, "the first session streamed");

        // A compliant client waits out the hint, then converges to the
        // exact fault-free stream — denial cost it latency, nothing else.
        std::thread::sleep(after);
        let (mut client, id) = open_with_retry(addr, record.id, fs, record.len() as u32);
        for chunk in lead.chunks(1024) {
            if client.send_mv(id, chunk).is_err() {
                recover(&mut client, addr);
            }
        }
        let summary = close_with_retry(&mut client, id, addr, "busy retry");
        assert_full_match(&summary.outcomes, &reference, "busy retry");
        assert_eq!(summary.report.samples as usize, record.len());
    });
    assert!(stats.busy_denials >= 1, "the cap produced a Busy");
    assert_eq!(stats.denials, 0, "Busy is not a Deny");
    assert_eq!(stats.sessions_opened, 2);
}

#[test]
fn detached_session_resumes_at_capacity_without_double_counting() {
    // The resume-under-overload satellite: with the gateway at
    // `max_sessions`, a parked session still counts toward the cap (so a
    // newcomer is denied), its own resume is admission-exempt, and once
    // it closes the slot frees — i.e. parked state is counted exactly
    // once through detach → resume → close.
    let fw = &system().wbsn;
    let record = wire_record_mix(9800, 30, 0.1, 0.1);
    let fs = record.fs;
    let calib_len = 2048usize;
    let reference = hub_reference(fw, &record, calib_len);
    let config = GatewayConfig {
        max_sessions: 1,
        busy_retry_after: Duration::from_millis(25),
        ..GatewayConfig::default()
    };

    let expect_busy = |addr: SocketAddr, patient: u32| {
        let mut probe = NodeClient::connect(addr).expect("connect probe");
        match probe.open_session(patient, fs, 512) {
            Err(NetError::Busy(_)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
    };

    let (summary, stats) = with_gateway(fw, fs, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client
            .open_session(record.id, fs, calib_len as u32)
            .expect("open");
        let lead = record.lead(Lead(0)).expect("lead 0");
        let half = lead.len() / 2;
        client.send_mv(id, &lead[..half]).expect("first half");
        expect_busy(addr, 900); // live session holds the only slot

        client.sever();
        std::thread::sleep(Duration::from_millis(300)); // gateway parks it
        expect_busy(addr, 901); // parked session still holds the slot

        recover(&mut client, addr); // resume is admission-exempt
        let _ = client.send_mv(id, &lead[half..]);
        expect_busy(addr, 902); // resumed: exactly one slot used, not two
        let summary = close_with_retry(&mut client, id, addr, "resume at capacity");

        // The close freed the only slot; a newcomer is now admitted.
        let (mut late, late_id) = open_with_retry(addr, 903, fs, 512);
        late.send_mv(late_id, &lead[..1024]).expect("send");
        let late_summary = late.close_session(late_id).expect("close late");
        assert!(late_summary.report.beats > 0, "the late session streamed");
        summary
    });

    assert_full_match(&summary.outcomes, &reference, "resume at capacity");
    assert_eq!(
        summary.report.samples as usize,
        record.len(),
        "no sample lost or double-counted through the parked resume"
    );
    assert!(stats.busy_denials >= 3);
    assert_eq!(stats.sessions_detached, 1);
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.sessions_opened, 2, "probe denials never opened");
    assert_eq!(stats.denials, 0);
}

#[test]
fn handshake_deadline_reaps_a_silent_connection() {
    let fw = &system().wbsn;
    let config = GatewayConfig {
        handshake_timeout: Duration::from_millis(100),
        ..GatewayConfig::default()
    };
    let ((), stats) = with_gateway(fw, 360.0, config, |addr| {
        // Says hello, then never opens a session: reaped at the deadline.
        let mut idler = TcpStream::connect(addr).expect("connect");
        idler
            .write_all(
                &Frame::Hello {
                    version: PROTOCOL_VERSION,
                }
                .encode(),
            )
            .expect("hello");
        idler
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let start = Instant::now();
        let mut buf = [0u8; 1024];
        loop {
            match idler.read(&mut buf) {
                Ok(0) => break, // the gateway hung up
                Ok(_) => {}     // its Hello reply
                Err(e) => panic!("expected a clean hang-up, got {e}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "silent connection was never reaped"
            );
        }
        assert!(
            start.elapsed() >= Duration::from_millis(50),
            "reaped before the deadline could plausibly expire"
        );
    });
    assert!(stats.handshake_reaps >= 1);
    assert_eq!(stats.denials, 0, "a slow handshake is not a violation");
}

#[test]
fn oversized_calibration_is_denied_outright() {
    // A calibration request that alone exceeds the global budget can never
    // be admitted: that is a hard Deny (the client must not retry), not a
    // Busy (which promises the request is admissible later).
    let fw = &system().wbsn;
    let config = GatewayConfig {
        global_memory_budget: 1024 * SAMPLE_BYTES,
        ..GatewayConfig::default()
    };
    let ((), stats) = with_gateway(fw, 360.0, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        match client.open_session(50, 360.0, 2048) {
            Err(NetError::Denied(message)) => assert!(
                message.contains("memory budget"),
                "deny should name the cause: {message}"
            ),
            other => panic!("expected a hard Deny, got {other:?}"),
        }

        // The same request scaled inside the budget is admitted.
        let mut client = NodeClient::connect(addr).expect("reconnect");
        let id = client.open_session(51, 360.0, 512).expect("open");
        let record = wire_record_mix(9900, 8, 0.1, 0.1);
        let lead = record.lead(Lead(0)).expect("lead 0");
        client.send_mv(id, &lead[..768]).expect("send");
        let summary = client.close_session(id).expect("close");
        assert!(summary.report.beats > 0, "the admitted session streamed");
    });
    assert!(stats.denials >= 1, "the oversized request was denied");
    assert_eq!(stats.busy_denials, 0, "never invited to retry");
    assert_eq!(stats.sessions_opened, 1);
}

#[test]
fn health_snapshot_and_heartbeat_track_the_reactor() {
    let fw = &system().wbsn;
    let config = GatewayConfig {
        global_memory_budget: 1 << 20,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::bind("127.0.0.1:0", fw, 360.0, config).expect("bind");
    let addr = gateway.local_addr().expect("addr");
    let heartbeat = gateway.heartbeat();

    assert_eq!(heartbeat.polls(), 0);
    gateway.poll().expect("poll");
    assert_eq!(heartbeat.polls(), 1);
    assert!(
        !heartbeat.stalled(Duration::from_secs(5)),
        "a fresh beat is not a stall"
    );
    std::thread::sleep(Duration::from_millis(60));
    assert!(
        heartbeat.stalled(Duration::from_millis(10)),
        "a reactor that has not beaten past the tolerance is stalled"
    );
    gateway.poll().expect("poll");
    assert!(!heartbeat.stalled(Duration::from_millis(50)));

    let idle = gateway.health();
    assert_eq!(idle.live_sessions, 0);
    assert_eq!(idle.parked_sessions, 0);
    assert_eq!(idle.open_connections, 0);
    assert_eq!(idle.memory_budget_bytes, 1 << 20);
    assert_eq!(idle.buffered_bytes, 0);
    assert!(idle.budget_utilization >= 0.0 && idle.budget_utilization <= 1.0);

    // Open a session over a raw socket, driving the reactor by hand.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("timeout");
    raw.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .expect("hello");
    raw.write_all(
        &Frame::OpenSession {
            patient_id: 60,
            fs_millihertz: 360_000,
            calib_len: 512,
        }
        .encode(),
    )
    .expect("open");
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let start = Instant::now();
    'opened: loop {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "session never opened"
        );
        gateway.poll().expect("poll");
        match raw.read(&mut buf) {
            Ok(0) => panic!("gateway hung up during the handshake"),
            Ok(n) => {
                decoder.feed(&buf[..n]);
                while let Some(frame) = decoder.next_frame().expect("valid") {
                    if matches!(frame, Frame::SessionOpened { .. }) {
                        break 'opened;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }

    let busy = gateway.health();
    assert_eq!(busy.live_sessions, 1);
    assert_eq!(busy.open_connections, 1);
    assert!(busy.memory_used_bytes <= busy.memory_budget_bytes);
    assert!(heartbeat.polls() > 1);
}

#[test]
fn watchdog_counts_over_budget_sweeps() {
    // A zero budget makes every sweep an overrun: the run loop's watchdog
    // must notice and the high-water mark must be recorded.
    let fw = &system().wbsn;
    let config = GatewayConfig {
        watchdog_budget: Duration::ZERO,
        ..GatewayConfig::default()
    };
    let ((), stats) = with_gateway(fw, 360.0, config, |addr| {
        let mut client = NodeClient::connect(addr).expect("connect");
        let id = client.open_session(70, 360.0, 512).expect("open");
        let record = wire_record_mix(10_000, 8, 0.1, 0.1);
        let lead = record.lead(Lead(0)).expect("lead 0");
        client.send_mv(id, &lead[..1024]).expect("send");
        let summary = client.close_session(id).expect("close");
        assert!(summary.report.beats > 0, "the session streamed");
    });
    assert!(
        stats.watchdog_stalls >= 1,
        "every sweep overran a zero budget"
    );
}

//! Shared helpers for the socket-level integration suites
//! (`net_loopback.rs`, `chaos_gateway.rs`, `durability_gateway.rs`,
//! `overload_gateway.rs`, `telemetry_obs.rs`): the trained system, wire
//! records and their in-process reference, a live gateway on a loopback
//! port, raw-socket reads, resume-with-deadline and outcome comparison.
//!
//! Kept in `tests/support/` (not a sibling `.rs` file) so Cargo does not
//! compile it as a test target of its own; each suite pulls it in with
//! `mod support;`.

#![allow(dead_code)]

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_ecg::record::{EcgRecord, Lead};
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::firmware::BeatOutcome;
use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::proto::{dequantize_mv_into, quantize_mv_into, Frame, FrameDecoder};
use heartbeat_rp::hbc_net::{Gateway, GatewayConfig, GatewayReport, GatewayStats, NodeClient};
use heartbeat_rp::pipeline::TrainedSystem;
use heartbeat_rp::StreamHub;

/// The quick-scale trained system, trained once per test binary.
pub fn system() -> &'static TrainedSystem {
    static SYSTEM: OnceLock<TrainedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| TrainedSystem::train(&ExperimentConfig::quick()).expect("training"))
}

/// A single-lead synthetic record (10 % ventricular, 10 % LBBB beats)
/// passed once through the wire ADC transfer function, so socket replay and
/// local reference consume identical signals and every comparison is exact.
pub fn wire_record(seed: u64, beats: usize) -> EcgRecord {
    wire_record_mix(seed, beats, 0.1, 0.1)
}

/// [`wire_record`] with the given abnormal-beat mix.
pub fn wire_record_mix(seed: u64, beats: usize, p_v: f64, p_l: f64) -> EcgRecord {
    let mut gen = SyntheticEcg::with_seed(seed);
    let rhythm = gen.rhythm(beats, p_v, p_l);
    let mut record = gen.record(seed as u32, &rhythm, 1).expect("record");
    let mut codes = Vec::new();
    let mut exact = Vec::new();
    quantize_mv_into(&record.leads[0], &mut codes);
    dequantize_mv_into(&codes, &mut exact);
    record.leads[0] = exact;
    record
}

/// The in-process reference: a `StreamHub` session calibrated on the first
/// `calib_len` samples, fed the whole lead, closed — exactly the lifecycle
/// the gateway drives remotely.
pub fn hub_reference(fw: &WbsnFirmware, record: &EcgRecord, calib_len: usize) -> Vec<BeatOutcome> {
    let mut hub = StreamHub::new(fw, record.fs);
    let lead = record.lead(Lead(0)).expect("lead 0");
    let thresholds = hub
        .calibrate_thresholds(&lead[..calib_len])
        .expect("calibrate");
    let id = hub.add_patient(record.id, thresholds);
    hub.ingest(&[(id, lead)]).expect("ingest");
    hub.close_session(id).expect("close").outcomes
}

/// Runs `body` against a live gateway on a loopback port; flips the
/// shutdown flag (even on panic) and returns the body's result plus the
/// gateway's final counters.
pub fn with_gateway<R>(
    fw: &WbsnFirmware,
    fs: f64,
    config: GatewayConfig,
    body: impl FnOnce(SocketAddr) -> R,
) -> (R, GatewayStats) {
    let (result, report) = with_gateway_report(fw, fs, config, |addr, _| body(addr));
    (result, report.stats)
}

/// Like [`with_gateway`], but returns the full shutdown [`GatewayReport`]
/// (stats + final metrics snapshot + trace dump). The second address handed
/// to `body` is the admin listener's, when one was configured.
pub fn with_gateway_report<R>(
    fw: &WbsnFirmware,
    fs: f64,
    config: GatewayConfig,
    body: impl FnOnce(SocketAddr, Option<SocketAddr>) -> R,
) -> (R, GatewayReport) {
    struct FlipOnDrop<'a>(&'a AtomicBool);
    impl Drop for FlipOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let shutdown = AtomicBool::new(false);
    let gateway = Gateway::bind("127.0.0.1:0", fw, fs, config).expect("bind");
    let addr = gateway.local_addr().expect("addr");
    let admin = gateway.admin_addr();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway.run_with_report(&shutdown).expect("gateway runs"));
        let result = {
            let _flip = FlipOnDrop(&shutdown);
            body(addr, admin)
        };
        let report = handle.join().expect("gateway thread");
        (result, report)
    })
}

/// Raw-socket helper: blocking-reads frames until `want` matches,
/// dispatching nothing. Returns the matched frame.
pub fn read_until(
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

/// Reconnects and resumes through whatever the link throws, with an
/// overall deadline. A failed resume attempt (e.g. a fault during the
/// resume handshake, or a spurious I/O timeout) is retried.
pub fn recover(client: &mut NodeClient, addr: SocketAddr) {
    let start = Instant::now();
    loop {
        match client.reconnect_with_backoff(addr, 4, Duration::from_millis(5)) {
            Ok(()) => return,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "could not resume within the deadline: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// `got` must be a bit-identical prefix of `want` (`truth` is `None` online).
pub fn assert_prefix(got: &[BeatOutcome], want: &[BeatOutcome], label: &str) {
    assert!(
        got.len() <= want.len(),
        "{label}: {} outcomes delivered, reference has only {}",
        got.len(),
        want.len()
    );
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

/// `got` must equal `want` bit for bit (see [`assert_prefix`]).
pub fn assert_full_match(got: &[BeatOutcome], want: &[BeatOutcome], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: beat count");
    assert_prefix(got, want, label);
}

/// Polls `cond` every millisecond until it returns `true` or `deadline`
/// elapses; panics on timeout. Replaces fixed sleeps so the suites stay fast
/// on idle machines and reliable on loaded ones.
pub fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < deadline,
            "condition not met within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Seed driving every chaos fault schedule: `HBC_CHAOS_SEED` when set (CI
/// pins it so failures replay bit-for-bit), otherwise a fixed default so
/// local runs are reproducible too.
pub fn chaos_seed() -> u64 {
    std::env::var("HBC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_5EED)
}

/// A scoped scratch directory under the system temp root, removed on drop.
/// Unique per process *and* thread so `cargo test`'s parallel runners never
/// collide; the durability suites point gateway logs at it.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "hbc-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // A leftover from a killed previous run must not leak state in.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

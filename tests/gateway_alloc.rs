//! Allocation gate for the warm gateway sweep: once a fleet of sessions is
//! streaming, a reactor poll that makes no progress must perform **zero**
//! heap allocations, and the polls that do move traffic may allocate only
//! the decoder's owned `Samples` body per frame plus a little amortised
//! buffer and outcome-history growth.
//!
//! The counting allocator counts only on a thread that has switched its
//! thread-local flag on — here the thread driving [`Gateway::poll`] — so
//! the client fleet streaming on another thread does not pollute the
//! figure. Still, this lives in its own test binary (a global allocator is
//! process-wide): keep this file to a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_ecg::beat::BeatWindow;
use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::int_classifier::AlphaQ16;
use heartbeat_rp::hbc_embedded::WbsnFirmware;
use heartbeat_rp::hbc_net::proto::quantize_mv_into;
use heartbeat_rp::hbc_net::{Gateway, GatewayConfig, NodeClient};
use heartbeat_rp::hbc_rp::PackedProjection;
use heartbeat_rp::pipeline::TrainedSystem;

/// Counts every allocation (alloc + realloc) made through the global
/// allocator by a thread whose [`COUNTING`] flag is set; deallocations are
/// not counted — the gate is about acquiring memory in steady state.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialised
    /// and drop-free, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const SESSIONS: usize = 8;
const FRAME: usize = 36;
const CALIB_LEN: usize = 1800;
/// Polls measured after warm-up (at least; the window also waits for
/// [`MEASURED_FRAMES`] of traffic).
const MEASURED_POLLS: u64 = 2000;
const MEASURED_FRAMES: u64 = 100 * SESSIONS as u64;

fn firmware() -> WbsnFirmware {
    let system = TrainedSystem::train(&ExperimentConfig::quick()).expect("training");
    WbsnFirmware::new(
        PackedProjection::from_matrix(&system.pc_downsampled.projection),
        system.wbsn.classifier.clone(),
        AlphaQ16::from_f64(system.pc_downsampled.alpha_train).expect("alpha in range"),
        system.config.downsample,
        BeatWindow::PAPER,
    )
    .expect("firmware dimensions")
}

/// One patient's lead as wire ADC codes.
fn wire_codes(seed: u64) -> Vec<i16> {
    let mut gen = SyntheticEcg::with_seed(seed);
    let rhythm = gen.rhythm(90, 0.1, 0.1);
    let record = gen.record(seed as u32, &rhythm, 1).expect("record");
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    codes
}

/// The credit-paced fleet: opens every session, sends its calibration
/// stretch, then streams one 36-sample frame per session per round and
/// waits until the gateway has consumed (and re-credited) all of it before
/// the next round. Stops at `stop` or when a record runs out, then closes
/// every session and returns the beats received.
fn run_fleet(addr: std::net::SocketAddr, fs: f64, stop: &AtomicBool) -> usize {
    let records: Vec<Vec<i16>> = (0..SESSIONS as u64).map(|i| wire_codes(900 + i)).collect();
    let mut client = NodeClient::connect(addr).expect("connect");
    let ids: Vec<u32> = (0..SESSIONS)
        .map(|i| {
            client
                .open_session(i as u32, fs, CALIB_LEN as u32)
                .expect("open")
        })
        .collect();
    let budget = client.credit(ids[0]);
    for (&id, codes) in ids.iter().zip(&records) {
        client
            .send_adc(id, &codes[..CALIB_LEN])
            .expect("calibration");
    }
    let shortest = records.iter().map(Vec::len).min().expect("records");
    let mut at = CALIB_LEN;
    while !stop.load(Ordering::Acquire) && at + FRAME <= shortest {
        for (&id, codes) in ids.iter().zip(&records) {
            client.send_adc(id, &codes[at..at + FRAME]).expect("send");
        }
        at += FRAME;
        while ids.iter().any(|&id| client.credit(id) < budget) {
            client.pump().expect("pump");
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    assert!(
        stop.load(Ordering::Acquire),
        "records ran out before the measurement window closed"
    );
    ids.iter()
        .map(|&id| client.close_session(id).expect("close").outcomes.len())
        .sum()
}

#[test]
fn warm_gateway_sweep_allocates_only_frame_bodies() {
    let fw = firmware();
    let fs = 360.0;
    let mut gateway =
        Gateway::bind("127.0.0.1:0", &fw, fs, GatewayConfig::default()).expect("bind");
    let addr = gateway.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let fleet = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_fleet(addr, fs, &stop))
    };

    // Warm-up: every session promoted, streaming and forwarding outcomes,
    // so staging slots, outcome scratch and history buffers have grown.
    while gateway.stats().beats_out < 4 * SESSIONS as u64 {
        gateway.poll().expect("poll");
        assert!(!fleet.is_finished(), "fleet stopped during warm-up");
    }

    let frames_before = gateway.stats().frames_in;
    let (mut polls, mut idle_polls, mut total) = (0u64, 0u64, 0usize);
    while polls < MEASURED_POLLS || gateway.stats().frames_in - frames_before < MEASURED_FRAMES {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        COUNTING.with(|c| c.set(true));
        let progress = gateway.poll().expect("poll");
        COUNTING.with(|c| c.set(false));
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if !progress {
            idle_polls += 1;
            assert_eq!(allocated, 0, "an idle poll allocated {allocated} times");
        }
        total += allocated;
        polls += 1;
        assert!(!fleet.is_finished(), "fleet stopped during measurement");
    }
    let frames = gateway.stats().frames_in - frames_before;
    stop.store(true, Ordering::Release);
    while !fleet.is_finished() {
        gateway.poll().expect("poll");
    }
    let beats = fleet.join().expect("fleet thread");

    assert!(idle_polls > 0, "the measurement must include idle polls");
    assert!(beats > 0, "the fleet must have received outcomes");
    let allowance = frames as usize + 8 * SESSIONS;
    assert!(
        total <= allowance,
        "{polls} warm polls over {frames} frames allocated {total} times \
         (allowance: one Samples body per frame + {} for amortised growth)",
        8 * SESSIONS
    );
}

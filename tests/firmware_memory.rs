//! Memory gate for one gateway session's online firmware: the live heap a
//! code-fed `StreamingFirmware` holds after the gateway's 1 800-sample
//! calibration burst at 360 Hz, measured with a counting allocator.
//!
//! Every ring of the streaming front-end is sized at construction from its
//! retention bound, so the figure must not grow with the chunk length: the
//! burst is pushed in one call, then streaming continues in 36-sample chunks
//! and the heap is measured again.
//!
//! This lives in its own test binary on purpose: the global allocator is
//! process-wide, so keep this file to a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use heartbeat_rp::config::ExperimentConfig;
use heartbeat_rp::hbc_dsp::filter::MorphologicalFilter;
use heartbeat_rp::hbc_dsp::peak::PeakDetector;
use heartbeat_rp::hbc_ecg::record::Lead;
use heartbeat_rp::hbc_ecg::synthetic::SyntheticEcg;
use heartbeat_rp::hbc_embedded::streaming::StreamingFirmware;
use heartbeat_rp::hbc_net::proto::{dequantize_mv_into, quantize_mv_into, wire_adc};
use heartbeat_rp::pipeline::TrainedSystem;

/// Tracks the net live heap bytes: allocations add their size,
/// deallocations subtract it.
struct CountingAllocator;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const FS: f64 = 360.0;
const CALIB_LEN: usize = 1_800;
const FRAME: usize = 36;
/// Upper bound on one session's `StreamingFirmware` heap, in bytes.
const HEAP_BOUND: isize = 22_800;

#[test]
fn session_firmware_heap_is_fixed_and_bounded() {
    let fw = TrainedSystem::train(&ExperimentConfig::quick())
        .expect("training")
        .wbsn;
    let mut gen = SyntheticEcg::with_seed(901);
    let rhythm = gen.rhythm(60, 0.1, 0.1);
    let record = gen.record(901, &rhythm, 1).expect("record");
    let mut codes = Vec::new();
    quantize_mv_into(record.lead(Lead(0)).expect("lead 0"), &mut codes);
    let mut mv = Vec::new();
    dequantize_mv_into(&codes[..CALIB_LEN], &mut mv);
    let filtered = MorphologicalFilter::for_sampling_rate(FS)
        .apply(&mv)
        .expect("filter");
    let thresholds = PeakDetector::new(FS)
        .calibrate(&filtered)
        .expect("calibrate");

    let before = live();
    let mut stream = StreamingFirmware::with_scale(&fw, FS, thresholds, wire_adc());
    let constructed = live() - before;
    stream.push_chunk(&codes[..CALIB_LEN]);
    let after_burst = live() - before;
    let mut beats = 0;
    let mut at = CALIB_LEN;
    while at + FRAME <= codes.len() {
        stream.push_chunk(&codes[at..at + FRAME]);
        beats += std::iter::from_fn(|| stream.pop_outcome()).count();
        at += FRAME;
    }
    let streaming = live() - before;
    println!(
        "StreamingFirmware heap: {constructed} B constructed, {after_burst} B after the \
         {CALIB_LEN}-sample burst, {streaming} B after {} samples ({beats} beats)",
        at
    );
    assert!(beats > 0, "the stream must have produced beats");
    assert!(
        after_burst <= HEAP_BOUND,
        "session firmware heap {after_burst} B exceeds {HEAP_BOUND} B after the burst"
    );
    assert!(
        streaming <= HEAP_BOUND,
        "session firmware heap {streaming} B exceeds {HEAP_BOUND} B while streaming"
    );
}

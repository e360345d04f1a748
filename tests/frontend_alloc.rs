//! Allocation gate for the streaming conditioning chain: once warm, the
//! code-fed baseline filter (`StreamingBaselineFilter<AdcModel>`) feeding
//! the streaming R-peak detector (`StreamingPeakDetector`, the wavelet
//! cascade and the peak scan), pushed in 36-sample chunks as a gateway
//! session pushes them, must perform **zero** heap allocations — every
//! ring buffer is sized at construction.
//!
//! This lives in its own test binary on purpose: the gate counts allocations
//! through a global counting allocator, and any concurrently running test in
//! the same process would pollute the counter. Keep this file to a single
//! `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use heartbeat_rp::hbc_dsp::{
    MorphologicalFilter, PeakDetector, StreamingBaselineFilter, StreamingPeakDetector,
};
use heartbeat_rp::hbc_embedded::AdcModel;

/// Counts every allocation (alloc + realloc) made through the global
/// allocator; deallocations are not counted — the gate is about acquiring
/// memory in steady state, not about balance.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Samples per chunk: one gateway packet.
const CHUNK: usize = 36;

#[test]
fn conditioning_chain_allocates_nothing_in_steady_state() {
    let fs = 250.0;
    let n = (60.0 * fs) as usize;
    let adc = AdcModel::default_frontend();
    let codes: Vec<i16> = (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            let mv = 0.4 * (2.0 * std::f64::consts::PI * 0.25 * t).sin()
                + if i % (fs as usize) < 8 { 1.0 } else { 0.0 };
            adc.quantize_sample(mv) as i16
        })
        .collect();
    let mv: Vec<f64> = codes
        .iter()
        .map(|&c| adc.dequantize_sample(i32::from(c)))
        .collect();

    // Calibration and construction allocate; both happen before the gate.
    let calib = (8.0 * fs) as usize;
    let detector = PeakDetector::new(fs);
    let thresholds = detector
        .calibrate(
            &MorphologicalFilter::for_sampling_rate(fs)
                .apply(&mv[..calib])
                .expect("long enough"),
        )
        .expect("calibrates");
    let mut filter = StreamingBaselineFilter::with_scale(fs, adc);
    let mut peaks = StreamingPeakDetector::new(&detector, thresholds);
    let mut filtered = [0.0; CHUNK];
    let mut found = Vec::with_capacity(n);
    let mut push = |chunk: &[i16]| {
        let produced = filter.push_chunk(chunk, &mut filtered);
        peaks.push_chunk(&filtered[..produced]);
        while let Some(p) = peaks.pop_peak() {
            found.push(p);
        }
    };

    // Warm-up: the first ten seconds fill every delay line and ring.
    let (warm, steady) = codes.split_at((10.0 * fs) as usize);
    for chunk in warm.chunks(CHUNK) {
        push(chunk);
    }
    let before = allocations();
    for chunk in steady.chunks(CHUNK) {
        push(chunk);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm streaming conditioning chain allocated {} times",
        after - before
    );

    // Sanity: the chain did real work, one beat per second.
    assert!(
        found.len() >= 55,
        "expected ~59 peaks in a minute, got {}",
        found.len()
    );
}

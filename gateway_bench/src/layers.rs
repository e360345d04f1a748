//! Per-layer metrics of a traced pass, measured from outside the program in
//! three ways:
//!
//! 1. spans the harness records around its own calls into public functions
//!    (every `Gateway::poll` and idle sleep of the traced reactor loop);
//! 2. sums and counts of the program's own histograms and counters, read
//!    from `Gateway::metrics_snapshot()` — the data `/metrics` serves;
//! 3. timed re-drives of a layer's public API on the workload's own data,
//!    after the traffic ended.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hbc_core::StreamHub;
use hbc_dsp::streaming::{StreamingBaselineFilter, StreamingBeatWindower, StreamingWavelet};
use hbc_dsp::{MorphologicalFilter, PeakDetector, PeakThresholds, StreamingPeakDetector};
use hbc_embedded::{StreamingFirmware, WbsnFirmware};
use hbc_net::proto::{dequantize_mv_into, FrameDecoder};
use hbc_net::{replay_log, Gateway};
use hbc_obs::{Histogram, MetricsSnapshot};
use hbc_par::Par;
use hbc_wal::{Wal, WalConfig, WalRecord};

use crate::corpus::FS;
use crate::util::{median, micros, quantile_sorted};
use crate::workload::{PassResult, Prepared, CALIB};

/// Samples each re-drive covers at most (bounds the traced run's length).
const REDRIVE_SAMPLES: usize = 1 << 20;
/// Samples the re-driven durable log holds at most.
const REDRIVE_LOG_SAMPLES: usize = 2 << 20;

/// One named per-layer value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn hist(m: &MetricsSnapshot, name: &str) -> Histogram {
    m.histogram(name).cloned().unwrap_or_default()
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The quantile a Prometheus `histogram_quantile` over the scraped log2
/// buckets yields: linear interpolation inside the bucket holding the rank,
/// clamped to the observed maximum.
pub fn interpolated_quantile(h: &Histogram, q: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = q * count as f64;
    let mut below = 0u64;
    for (b, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (below + n) as f64 >= rank {
            let lo = Histogram::bucket_lower_bound(b) as f64;
            let hi = Histogram::bucket_upper_bound(b) as f64 + 1.0;
            let v = lo + (hi - lo) * (rank - below as f64) / n as f64;
            return v.min(h.max().unwrap_or(0) as f64);
        }
        below += n;
    }
    h.max().unwrap_or(0) as f64
}

/// The streams a re-drive uses: each session's codes as far as it was
/// sent, in open order, up to `cap` samples in total.
fn redrive_streams<'p>(prep: &'p Prepared, pass: &PassResult, cap: usize) -> Vec<&'p [i16]> {
    let mut out = Vec::new();
    let mut total = 0;
    for &(stream, sent) in &pass.sessions {
        if total >= cap {
            break;
        }
        let codes = &prep.streams[stream].codes[..sent];
        if codes.len() < CALIB {
            continue;
        }
        total += codes.len();
        out.push(codes);
    }
    out
}

fn thresholds_for(hub: &StreamHub<'_>, samples: &[f64]) -> PeakThresholds {
    hub.calibrate_thresholds(&samples[..CALIB])
        .expect("workload streams calibrate")
}

/// Computes every per-layer metric of a traced pass. `untraced` is the
/// untraced pass of the same invocation, for the tracing overhead.
pub fn measure(
    prep: &Prepared,
    fw: &WbsnFirmware,
    pass: &PassResult,
    untraced: &PassResult,
    table: &mut Vec<String>,
) -> Vec<Metric> {
    let m = &pass.reactor.metrics;
    let trace = pass.reactor.trace.as_ref().expect("traced pass");
    let counter = |name: &str| m.counter(name).unwrap_or(0) as f64;
    let lifetime_samples = counter("hbc_gateway_samples_in_total");
    let ksamples = lifetime_samples / 1000.0;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;

    // --- server: the reactor's wall time, split -------------------------
    let wall_us = micros(trace.wall);
    let mut polls: Vec<f64> = trace.polls_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    polls.sort_by(f64::total_cmp);
    let poll_us: f64 = polls.iter().sum();
    let idle_us = micros(trace.idle);
    let frame = hist(m, "hbc_gateway_frame_micros");
    let ingest_batch = hist(m, "hbc_gateway_ingest_batch_micros");
    let wal_live = hist(m, "hbc_wal_append_nanos");
    let wal_us = wal_live.sum() as f64 / 1e3;
    let frame_us = frame.sum() as f64 - wal_us;
    let ingest_us = ingest_batch.sum() as f64;
    let self_us = poll_us - frame_us - wal_us - ingest_us;
    let residual_us = wall_us - poll_us - idle_us;
    let b2o = hist(m, "hbc_gateway_beat_to_outcome_micros");

    // --- stream / firmware: the hub's histograms --------------------------
    let hub = hist(m, "hbc_hub_ingest_micros");
    let cond = hist(m, "hbc_stage_conditioning_nanos");
    let proj = hist(m, "hbc_stage_projection_nanos");
    let class = hist(m, "hbc_stage_classify_nanos");
    let delin = hist(m, "hbc_stage_delineation_nanos");
    let stage_ns = (cond.sum() + proj.sum() + class.sum() + delin.sum()) as f64;
    let sessions_per_ingest = per(cond.count() as f64, hub.count() as f64);
    let workers = nproc.min(sessions_per_ingest).max(1.0);
    let fanout_us = per(
        hub.sum() as f64 - stage_ns / 1e3 / workers,
        hub.count() as f64,
    );

    // --- re-drives on the workload's own data ----------------------------
    let streams = redrive_streams(prep, pass, REDRIVE_SAMPLES);
    let bare = firmware_ns_per_sample(fw, &streams, prep.workload.frame(), false);
    let interleaved = firmware_ns_per_sample(fw, &streams, prep.workload.frame(), true);
    let dsp = dsp_split(fw, &streams);
    let calibrate_us = calibrate_us(fw, &streams);
    let par_us = par_map_overhead_us(sessions_per_ingest.round().max(1.0) as usize);
    let (decode_ns_per_byte, encode_ns_per_frame) = proto_redrive(&pass.uplink);
    let wal = wal_redrive(prep, fw, pass);
    let (scan_s, replay_s, recovery_s) = match &pass.recovery {
        Some(r) => (r.scan_s, r.replay_s, r.recovery_s),
        None => (wal.scan_s, wal.replay_s, wal.recovery_s),
    };
    let parallel_efficiency = per(bare * lifetime_samples / nproc, hub.sum() as f64 * 1e3);

    table.push(format!(
        "reactor wall {:>12.0} µs = poll {:.0} + idle sleep {:.0} + residual {:.0}",
        wall_us, poll_us, idle_us, residual_us
    ));
    for (row, us) in [
        ("  poll.frame (decode + handle, excl. wal)", frame_us),
        ("  poll.wal_append", wal_us),
        ("  poll.ingest_batch (hub.ingest)", ingest_us),
        ("  poll.self (accept/stage/forward/credit/flush)", self_us),
        ("idle sleep", idle_us),
        ("residual (loop, clocks)", residual_us),
    ] {
        table.push(format!(
            "{row:<50} {us:>12.0} µs {:>6.1} % of wall",
            100.0 * us / wall_us
        ));
    }
    table.push(format!(
        "  ingest_batch: stage CPU {:.0} µs over {} workers + fan-out {:.1} µs × {} calls",
        stage_ns / 1e3,
        workers,
        fanout_us,
        hub.count()
    ));
    table.push(format!(
        "  conditioning in the hub {:.1} ns/sample = filter {:.1} + wavelet {:.1} + peak scan {:.1} + windower {:.1} + rest {:.1} (batch deque filter {:.1}); whole firmware on one thread {:.1} cache-hot, {:.1} interleaved",
        per(cond.sum() as f64, lifetime_samples),
        dsp.filter,
        dsp.wavelet,
        dsp.scan,
        dsp.windower,
        per(cond.sum() as f64, lifetime_samples) - dsp.filter - dsp.wavelet - dsp.scan - dsp.windower,
        dsp.batch_filter,
        bare,
        interleaved,
    ));
    table.push(format!(
        "  beat_to_outcome: /metrics bucket p50 {} µs p99 {} µs; interpolated p50 {:.0} p99 {:.0}; exact (untraced) p50 {:.0} p99 {:.0}",
        b2o.p50(),
        b2o.p99(),
        interpolated_quantile(&b2o, 0.5),
        interpolated_quantile(&b2o, 0.99),
        quantile_sorted(&untraced.latencies_us, 0.5),
        quantile_sorted(&untraced.latencies_us, 0.99),
    ));
    if wal_live.count() > 0 {
        table.push(format!(
            "  live wal append {:.0} ns/record over {} records (re-drive {:.0})",
            per(wal_live.sum() as f64, wal_live.count() as f64),
            wal_live.count(),
            wal.append_ns
        ));
    }

    let errors = (pass.failed + untraced.failed) as f64;
    let attempted = (pass.attempted + untraced.attempted) as f64;
    vec![
        Metric {
            name: "server.poll_busy_frac",
            unit: "fraction",
            value: per(poll_us, wall_us),
        },
        Metric {
            name: "server.idle_frac",
            unit: "fraction",
            value: per(idle_us, wall_us),
        },
        Metric {
            name: "server.poll_p99_us",
            unit: "us",
            value: quantile_sorted(&polls, 0.99),
        },
        Metric {
            name: "server.polls_per_ksample",
            unit: "1/ksample",
            value: per(polls.len() as f64, ksamples),
        },
        Metric {
            name: "server.frame_us_per_ksample",
            unit: "us/ksample",
            value: per(frame_us, ksamples),
        },
        Metric {
            name: "server.self_us_per_ksample",
            unit: "us/ksample",
            value: per(self_us, ksamples),
        },
        Metric {
            name: "server.peak_buffered_bytes",
            unit: "B",
            value: m.gauge("hbc_gateway_peak_buffered_bytes").unwrap_or(0.0),
        },
        Metric {
            name: "server.samples_dropped",
            unit: "count",
            value: counter("hbc_gateway_samples_dropped_total"),
        },
        Metric {
            name: "server.samples_shed",
            unit: "count",
            value: counter("hbc_gateway_samples_shed_total"),
        },
        Metric {
            name: "server.busy_denials",
            unit: "count",
            value: counter("hbc_gateway_busy_denials_total"),
        },
        Metric {
            name: "server.denials",
            unit: "count",
            value: counter("hbc_gateway_denials_total"),
        },
        Metric {
            name: "server.internal_skips",
            unit: "count",
            value: counter("hbc_gateway_internal_skips_total"),
        },
        Metric {
            name: "server.beat_to_outcome_p50_us",
            unit: "us",
            value: interpolated_quantile(&b2o, 0.5),
        },
        Metric {
            name: "server.beat_to_outcome_p99_us",
            unit: "us",
            value: interpolated_quantile(&b2o, 0.99),
        },
        Metric {
            name: "stream.ingest_us_per_ksample",
            unit: "us/ksample",
            value: per(hub.sum() as f64, ksamples),
        },
        Metric {
            name: "stream.ingest_calls_per_ksample",
            unit: "1/ksample",
            value: per(hub.count() as f64, ksamples),
        },
        Metric {
            name: "stream.sessions_per_ingest",
            unit: "count",
            value: sessions_per_ingest,
        },
        Metric {
            name: "stream.fanout_overhead_us_per_call",
            unit: "us",
            value: fanout_us,
        },
        Metric {
            name: "stream.parallel_efficiency",
            unit: "fraction",
            value: parallel_efficiency,
        },
        Metric {
            name: "stream.calibrate_us",
            unit: "us",
            value: calibrate_us,
        },
        Metric {
            name: "par.map_overhead_us",
            unit: "us",
            value: par_us,
        },
        Metric {
            name: "firmware.conditioning_ns_per_sample",
            unit: "ns",
            value: per(cond.sum() as f64, lifetime_samples),
        },
        Metric {
            name: "firmware.projection_ns_per_beat",
            unit: "ns",
            value: per(proj.sum() as f64, proj.count() as f64),
        },
        Metric {
            name: "firmware.classify_ns_per_beat",
            unit: "ns",
            value: per(class.sum() as f64, class.count() as f64),
        },
        Metric {
            name: "firmware.delineation_ns_per_forwarded_beat",
            unit: "ns",
            value: per(delin.sum() as f64, delin.count() as f64),
        },
        Metric {
            name: "firmware.forwarded_frac",
            unit: "fraction",
            value: per(delin.count() as f64, proj.count() as f64),
        },
        Metric {
            name: "firmware.bare_ns_per_sample",
            unit: "ns",
            value: bare,
        },
        Metric {
            name: "firmware.interleaved_ns_per_sample",
            unit: "ns",
            value: interleaved,
        },
        Metric {
            name: "dsp.baseline_filter_ns_per_sample",
            unit: "ns",
            value: dsp.filter,
        },
        Metric {
            name: "dsp.wavelet_ns_per_sample",
            unit: "ns",
            value: dsp.wavelet,
        },
        Metric {
            name: "dsp.peak_detector_ns_per_sample",
            unit: "ns",
            value: dsp.scan,
        },
        Metric {
            name: "dsp.windower_ns_per_sample",
            unit: "ns",
            value: dsp.windower,
        },
        Metric {
            name: "dsp.batch_filter_ns_per_sample",
            unit: "ns",
            value: dsp.batch_filter,
        },
        Metric {
            name: "proto.decode_ns_per_byte",
            unit: "ns",
            value: decode_ns_per_byte,
        },
        Metric {
            name: "proto.encode_ns_per_frame",
            unit: "ns",
            value: encode_ns_per_frame,
        },
        Metric {
            name: "proto.uplink_bytes_per_sample",
            unit: "B",
            value: per(pass.up_bytes as f64, pass.samples as f64),
        },
        Metric {
            name: "proto.downlink_bytes_per_beat",
            unit: "B",
            value: per(pass.down_bytes as f64, pass.traffic_beats as f64),
        },
        Metric {
            name: "wal.append_ns_per_record",
            unit: "ns",
            value: wal.append_ns,
        },
        Metric {
            name: "wal.bytes_per_sample",
            unit: "B",
            value: wal.bytes_per_sample,
        },
        Metric {
            name: "wal.syncs",
            unit: "count",
            value: wal.syncs,
        },
        Metric {
            name: "wal.sync_ns_total",
            unit: "ns",
            value: wal.sync_ns,
        },
        Metric {
            name: "wal.scan_s",
            unit: "s",
            value: scan_s,
        },
        Metric {
            name: "replay.replay_log_s",
            unit: "s",
            value: replay_s,
        },
        Metric {
            name: "recovery_s",
            unit: "s",
            value: recovery_s,
        },
        Metric {
            name: "server.recover_rebuild_s",
            unit: "s",
            value: recovery_s - scan_s,
        },
        Metric {
            name: "outcome_latency_p50_us",
            unit: "us",
            value: untraced.latency_p50_us(),
        },
        Metric {
            name: "outcome_latency_p90_us",
            unit: "us",
            value: untraced.windowed_quantile(0.9),
        },
        Metric {
            name: "outcome_latency_p99_us",
            unit: "us",
            value: untraced.windowed_quantile(0.99),
        },
        Metric {
            name: "generator.late_p99_us",
            unit: "us",
            value: quantile_sorted(&pass.lateness_us, 0.99),
        },
        Metric {
            name: "generator.cpu_frac",
            unit: "fraction",
            value: per(pass.gen_cpu_s, pass.proc_cpu_s),
        },
        Metric {
            name: "trace.overhead_frac",
            unit: "fraction",
            value: per(pass.cpu_ns_per_sample(), untraced.cpu_ns_per_sample()) - 1.0,
        },
        Metric {
            name: "error_rate",
            unit: "fraction",
            value: per(errors, attempted),
        },
    ]
}

/// `push_chunk` on one thread over the workload's streams, in the
/// workload's chunking: the serial baseline the hub's parallel ingest is
/// compared against. `interleaved` feeds the streams round-robin, one chunk
/// each, as the hub does (every session's state is cache-cold when its next
/// chunk arrives); otherwise each stream runs start to end (cache-hot).
fn firmware_ns_per_sample(
    fw: &WbsnFirmware,
    streams: &[&[i16]],
    frame: usize,
    interleaved: bool,
) -> f64 {
    let hub = StreamHub::new(fw, FS);
    let mut buf = Vec::new();
    let inputs: Vec<Vec<f64>> = streams
        .iter()
        .map(|codes| {
            dequantize_mv_into(codes, &mut buf);
            buf.clone()
        })
        .collect();
    let mut firmwares: Vec<StreamingFirmware<'_>> = inputs
        .iter()
        .map(|x| StreamingFirmware::new(fw, FS, thresholds_for(&hub, x)))
        .collect();
    let chunks = |x: &[f64]| -> Vec<(usize, usize)> {
        let mut v = vec![(0, CALIB)];
        v.extend(
            (CALIB..x.len())
                .step_by(frame)
                .map(|at| (at, (at + frame).min(x.len()))),
        );
        v
    };
    let plans: Vec<Vec<(usize, usize)>> = inputs.iter().map(|x| chunks(x)).collect();
    let mut push = |i: usize, (from, to): (usize, usize)| {
        firmwares[i].push_chunk(&inputs[i][from..to]);
        while let Some(o) = firmwares[i].pop_outcome() {
            black_box(o);
        }
    };
    let started = Instant::now();
    if interleaved {
        let rounds = plans.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..rounds {
            for (i, plan) in plans.iter().enumerate() {
                if let Some(&c) = plan.get(k) {
                    push(i, c);
                }
            }
        }
    } else {
        for (i, plan) in plans.iter().enumerate() {
            for &c in plan {
                push(i, c);
            }
        }
    }
    let elapsed = started.elapsed();
    let samples: usize = inputs.iter().map(Vec::len).sum();
    per(elapsed.as_nanos() as f64, samples as f64)
}

/// Front-end conditioning split into its public streaming stages, each
/// re-driven on the workload's streams (ns per raw sample), plus the batch
/// deque filter for comparison.
struct DspSplit {
    filter: f64,
    wavelet: f64,
    scan: f64,
    windower: f64,
    batch_filter: f64,
}

fn dsp_split(fw: &WbsnFirmware, streams: &[&[i16]]) -> DspSplit {
    let hub = StreamHub::new(fw, FS);
    let detector = PeakDetector::new(FS);
    let scales = detector.config().scales;
    let mut t = [Duration::ZERO; 5];
    let mut samples = 0usize;
    let mut raw = Vec::new();
    let mut filtered = Vec::new();
    let mut details = Vec::new();
    let mut inputs = Vec::new();
    let mut frame_at = Vec::new();
    let mut window = Vec::new();
    for codes in streams {
        dequantize_mv_into(codes, &mut raw);
        samples += raw.len();
        let thresholds = thresholds_for(&hub, &raw);

        let started = Instant::now();
        black_box(
            MorphologicalFilter::for_sampling_rate(FS)
                .apply(&raw)
                .expect("batch filter"),
        );
        t[4] += started.elapsed();

        filtered.clear();
        let mut filter = StreamingBaselineFilter::for_sampling_rate(FS);
        let started = Instant::now();
        for &x in raw.iter() {
            if let Some(y) = filter.push(x) {
                filtered.push(y);
            }
        }
        t[0] += started.elapsed();

        // Wavelet frames, and the filtered sample after which each popped.
        details.clear();
        inputs.clear();
        frame_at.clear();
        let mut wavelet = StreamingWavelet::new(scales);
        let started = Instant::now();
        for (i, &x) in filtered.iter().enumerate() {
            wavelet.push(x);
            while let Some(frame) = wavelet.pop_frame() {
                details.extend_from_slice(frame.details);
                inputs.push(frame.input);
                frame_at.push(i);
            }
        }
        t[1] += started.elapsed();

        // The R-peak scan over those frames; each peak becomes available
        // after the filtered sample its frame popped at.
        let mut scanner = detector.scanner(thresholds.clone());
        let mut peaks = Vec::new();
        let started = Instant::now();
        for (j, (d, &x)) in details.chunks(scales).zip(inputs.iter()).enumerate() {
            scanner.push(d, x);
            while let Some(p) = scanner.pop_peak() {
                peaks.push((frame_at[j], p));
            }
        }
        t[2] += started.elapsed();

        // The beat windower, fed exactly as the firmware feeds it.
        let delay = StreamingPeakDetector::new(&detector, thresholds).delay();
        let mut windower = StreamingBeatWindower::new(fw.window, fw.window.len() + delay + 64);
        let mut next = 0;
        let started = Instant::now();
        for (i, &x) in filtered.iter().enumerate() {
            windower.push_sample(x);
            while next < peaks.len() && peaks[next].0 == i {
                windower.push_peak(peaks[next].1);
                next += 1;
            }
            while let Some(p) = windower.pop_window(&mut window) {
                black_box(p);
            }
        }
        t[3] += started.elapsed();
    }
    let ns = |d: Duration| per(d.as_nanos() as f64, samples as f64);
    DspSplit {
        filter: ns(t[0]),
        wavelet: ns(t[1]),
        scan: ns(t[2]),
        windower: ns(t[3]),
        batch_filter: ns(t[4]),
    }
}

/// Median `StreamHub::calibrate_thresholds` time over the sessions'
/// calibration stretches.
fn calibrate_us(fw: &WbsnFirmware, streams: &[&[i16]]) -> f64 {
    let hub = StreamHub::new(fw, FS);
    let mut buf = Vec::new();
    let times: Vec<f64> = streams
        .iter()
        .take(64)
        .map(|codes| {
            dequantize_mv_into(&codes[..CALIB], &mut buf);
            let started = Instant::now();
            black_box(hub.calibrate_thresholds(&buf).expect("calibrates"));
            micros(started.elapsed())
        })
        .collect();
    median(&times)
}

/// Median wall time of one `Par::map` over `items` no-op items: the hub's
/// per-ingest fan-out cost with the work taken out.
fn par_map_overhead_us(items: usize) -> f64 {
    let input: Vec<usize> = (0..items).collect();
    let par = Par::new();
    let times: Vec<f64> = (0..300)
        .map(|_| {
            let started = Instant::now();
            black_box(par.map(&input, |&x| black_box(x)));
            micros(started.elapsed())
        })
        .collect();
    median(&times)
}

/// `FrameDecoder` over the recorded uplink bytes (ns per byte) and
/// `Frame::encode_into` of the recorded frames (ns per frame).
fn proto_redrive(uplink: &[u8]) -> (f64, f64) {
    let started = Instant::now();
    let mut decoder = FrameDecoder::new();
    for chunk in uplink.chunks(16 * 1024) {
        decoder.feed(chunk);
        while let Ok(Some(frame)) = decoder.next_frame() {
            black_box(frame);
        }
    }
    let decode = per(started.elapsed().as_nanos() as f64, uplink.len() as f64);
    let mut decoder = FrameDecoder::new();
    decoder.feed(uplink);
    let mut frames = Vec::new();
    while let Ok(Some(frame)) = decoder.next_frame() {
        frames.push(frame);
    }
    let mut out = Vec::new();
    let started = Instant::now();
    for frame in &frames {
        out.clear();
        frame.encode_into(&mut out);
        black_box(&out);
    }
    let encode = per(started.elapsed().as_nanos() as f64, frames.len() as f64);
    (decode, encode)
}

struct WalRedrive {
    append_ns: f64,
    bytes_per_sample: f64,
    syncs: f64,
    sync_ns: f64,
    scan_s: f64,
    replay_s: f64,
    recovery_s: f64,
}

/// Appends the workload's own accepted traffic (each session's open and
/// its sample frames, interleaved as they were sent) to a fresh log with
/// the default configuration, ends with an explicit `Wal::sync`, then times
/// `hbc_wal::scan`, `replay_log` and a recovering `Gateway::bind` on it —
/// the crash recovery of this workload's traffic had it been durable.
fn wal_redrive(prep: &Prepared, fw: &WbsnFirmware, pass: &PassResult) -> WalRedrive {
    let streams = redrive_streams(prep, pass, REDRIVE_LOG_SAMPLES);
    let frame = prep.workload.frame();
    let mut records = Vec::new();
    let mut samples = 0usize;
    for (i, _) in streams.iter().enumerate() {
        records.push(WalRecord::SessionOpen {
            token: i as u64 + 1,
            wire_id: i as u32 + 1,
            patient_id: i as u32 + 1,
            calib_len: CALIB as u32,
            fs_millihertz: (FS * 1000.0) as u32,
        });
    }
    let mut at = vec![0usize; streams.len()];
    let mut seq = vec![0u32; streams.len()];
    loop {
        let mut any = false;
        for (i, codes) in streams.iter().enumerate() {
            if at[i] >= codes.len() {
                continue;
            }
            let n = if at[i] == 0 {
                CALIB
            } else {
                frame.min(codes.len() - at[i])
            };
            records.push(WalRecord::Samples {
                token: i as u64 + 1,
                seq: seq[i],
                codes: codes[at[i]..at[i] + n].to_vec(),
            });
            at[i] += n;
            seq[i] += 1;
            samples += n;
            any = true;
        }
        if !any {
            break;
        }
    }
    let dir = prep.fresh_dir();
    let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("open re-drive log");
    let started = Instant::now();
    for record in &records {
        wal.append(record).expect("append");
    }
    let append = started.elapsed();
    wal.sync().expect("sync");
    let bytes = wal.total_bytes();
    let m = wal.metrics();
    let (syncs, sync_ns) = (m.syncs.get() as f64, m.sync_nanos.sum() as f64);
    drop(wal);

    let started = Instant::now();
    black_box(hbc_wal::scan(&dir).expect("scan").records.len());
    let scan_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    black_box(replay_log(&dir, fw, None).expect("replay").sessions.len());
    let replay_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let gateway = Gateway::bind("127.0.0.1:0", fw, FS, prep.gateway_config(Some(&dir)))
        .expect("recovering bind");
    let recovery_s = started.elapsed().as_secs_f64();
    assert_eq!(
        gateway.parked_sessions(),
        streams.len(),
        "re-driven log recovers every session"
    );
    drop(gateway);
    let _ = std::fs::remove_dir_all(&dir);
    WalRedrive {
        append_ns: per(append.as_nanos() as f64, records.len() as f64),
        bytes_per_sample: per(bytes as f64, samples as f64),
        syncs,
        sync_ns,
        scan_s,
        replay_s,
        recovery_s,
    }
}

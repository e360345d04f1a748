//! The three fleet workloads and one measured pass over each.
//!
//! * `fleet_saturate` — closed loop: 64 sessions stream long records
//!   round-robin in credit-bounded 4096-sample frames until each record
//!   ends, then close, and the slot's next patient opens; at the deadline
//!   every session is cut at its next checkpoint. No durable log.
//! * `fleet_realtime` — open loop: 64 sessions each send one 36-sample
//!   packet (100 ms at 360 Hz) per period at 8× real time, phases staggered
//!   uniformly over the period. No durable log.
//! * `fleet_durable` — the realtime shape with the durable log on and
//!   session churn (short records; each close is followed by a new patient
//!   on the same slot), ending in a simulated crash and a timed recovery.
//!
//! One pass = set-up (repeated, median reported) + traffic + checks. The
//! generator runs on the calling thread over one connection; the reactor
//! runs on the one thread this module spawns.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hbc_core::{ExperimentConfig, TrainedSystem};
use hbc_ecg::BeatWindow;
use hbc_embedded::int_classifier::AlphaQ16;
use hbc_embedded::WbsnFirmware;
use hbc_net::{Gateway, GatewayConfig};
use hbc_rp::PackedProjection;
use hbc_wal::WalConfig;

use crate::client::{Client, Phase};
use crate::corpus::{self, Kind, Spec, Stream, FS};
use crate::reactor::{self, ReactorOutput};
use crate::util::{median, micros, process_cpu_s, quantile_sorted, thread_cpu_s, Rng};

/// Calibration stretch every session opens with (5 s at 360 Hz), sent in
/// one burst right after `SessionOpened`.
pub const CALIB: usize = 1800;
/// One realtime packet: 100 ms of signal at 360 Hz.
pub const PACKET: usize = 36;
/// Open-loop speed-up over real time.
pub const SPEED: u64 = 8;
/// Closed-loop frame size.
pub const BULK_FRAME: usize = 4096;
/// Uplink bytes kept for the proto re-drive.
const UPLINK_CAP: usize = 8 << 20;
/// A run stops as failed when the gateway makes no progress this long.
const STALL: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Saturate,
    Realtime,
    Durable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Saturate, Workload::Realtime, Workload::Durable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Saturate => "fleet_saturate",
            Workload::Realtime => "fleet_realtime",
            Workload::Durable => "fleet_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn open_loop(self) -> bool {
        self != Workload::Saturate
    }

    /// Samples per uplink frame after the calibration burst.
    pub fn frame(self) -> usize {
        if self.open_loop() {
            PACKET
        } else {
            BULK_FRAME
        }
    }
}

/// How big a run is.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub sessions: usize,
    pub seconds: f64,
    /// Samples per `fleet_saturate` record.
    pub saturate_len: usize,
    /// Range of `fleet_durable` record lengths after calibration, in packets.
    pub durable_packets: (usize, usize),
    /// Set-ups per pass (the median is reported).
    pub setup_reps: usize,
}

impl Sizing {
    pub fn full(seconds: f64) -> Sizing {
        Sizing {
            sessions: 64,
            seconds,
            saturate_len: 131_072,
            // 15–30 s of signal: 1.9–3.8 s per patient at 8×.
            durable_packets: (150, 300),
            setup_reps: 5,
        }
    }

    /// The self-check size: every path, seconds of work.
    pub fn quick() -> Sizing {
        Sizing {
            sessions: 6,
            seconds: 1.0,
            saturate_len: 16_384,
            durable_packets: (20, 40),
            setup_reps: 2,
        }
    }
}

/// The firmware image the gateway serves: the quick-trained system
/// converted to the embedded integer pipeline.
pub fn train_firmware() -> WbsnFirmware {
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

fn patient_id(slot: usize, ordinal: usize) -> u32 {
    ((slot as u32) << 16) | (ordinal as u32 + 1)
}

/// A workload's generated inputs and schedule (the harness's preparation:
/// never timed).
pub struct Prepared {
    pub workload: Workload,
    pub sizing: Sizing,
    pub streams: Vec<Stream>,
    /// Per slot, the streams its successive patients send.
    pub slot_streams: Vec<Vec<usize>>,
    /// Open loop: packet period and each slot's phase within it.
    pub period: Duration,
    pub phases: Vec<Duration>,
    /// Open loop: scheduled ticks per slot inside the run.
    pub ticks: Vec<u64>,
    tmp_root: PathBuf,
    tmp_count: Cell<usize>,
}

impl Prepared {
    pub fn new(workload: Workload, sizing: Sizing, seed: u64, fw: &WbsnFirmware) -> Prepared {
        let mut rng = Rng::new(seed);
        let n = sizing.sessions;
        let period = Duration::from_nanos(100_000_000 / SPEED);
        // Uniform stagger, slot order shuffled by the seed.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let phases: Vec<Duration> = order
            .iter()
            .map(|&rank| period * rank as u32 / n as u32)
            .collect();
        let run = Duration::from_secs_f64(sizing.seconds);
        let ticks: Vec<u64> = phases
            .iter()
            .map(|&p| (run.saturating_sub(p).as_nanos()).div_ceil(period.as_nanos()) as u64)
            .collect();
        let mut specs = Vec::new();
        let mut slot_streams = vec![Vec::new(); n];
        for slot in 0..n {
            let kind = Kind::for_slot(slot);
            match workload {
                Workload::Saturate => {
                    slot_streams[slot].push(specs.len());
                    specs.push(Spec {
                        kind,
                        seed: rng.next_u64(),
                        len: sizing.saturate_len,
                    });
                }
                Workload::Realtime => {
                    // Exactly the packets due inside the run: the records
                    // cover the run without wrapping.
                    slot_streams[slot].push(specs.len());
                    specs.push(Spec {
                        kind,
                        seed: rng.next_u64(),
                        len: CALIB + PACKET * ticks[slot] as usize,
                    });
                }
                Workload::Durable => {
                    // Patients until the slot's schedule is covered; each
                    // later patient spends one tick on its open.
                    let mut covered = 0u64;
                    while covered <= ticks[slot] {
                        let packets = rng.range(sizing.durable_packets.0, sizing.durable_packets.1);
                        covered += packets as u64 + u64::from(!slot_streams[slot].is_empty());
                        slot_streams[slot].push(specs.len());
                        specs.push(Spec {
                            kind,
                            seed: rng.next_u64(),
                            len: CALIB + PACKET * packets,
                        });
                    }
                }
            }
        }
        let tmp_root = PathBuf::from(".bench_tmp").join(format!(
            "{}-{}-{seed}",
            workload.name(),
            std::process::id()
        ));
        Prepared {
            workload,
            sizing,
            streams: corpus::build(fw, &specs, CALIB),
            slot_streams,
            period,
            phases,
            ticks,
            tmp_root,
            tmp_count: Cell::new(0),
        }
    }

    /// A fresh scratch directory for a durable log.
    pub fn fresh_dir(&self) -> PathBuf {
        self.tmp_count.set(self.tmp_count.get() + 1);
        self.tmp_root.join(format!("log{}", self.tmp_count.get()))
    }

    pub fn gateway_config(&self, wal: Option<&Path>) -> GatewayConfig {
        GatewayConfig {
            wal: wal.map(WalConfig::new),
            ..GatewayConfig::default()
        }
    }

    /// Removes every scratch directory this workload created.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.tmp_root);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Crash recovery of `fleet_durable`, with the check of every recovered
/// session.
#[derive(Debug, Default)]
pub struct RecoveryResult {
    pub recovery_s: f64,
    pub scan_s: f64,
    pub replay_s: f64,
    pub parked: usize,
    pub in_flight: usize,
    /// Reference beats the recovered sessions must reproduce.
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one pass measured.
pub struct PassResult {
    pub setup_s: Vec<f64>,
    pub traffic_s: f64,
    /// Samples sent during the traffic whose outcomes came back.
    pub samples: u64,
    /// Exact outcome latencies (µs), sorted.
    pub latencies_us: Vec<f64>,
    /// Each traffic window's latencies (µs), sorted.
    pub window_latencies_us: Vec<Vec<f64>>,
    pub calib_beats: u64,
    pub close_beats: u64,
    pub proc_cpu_s: f64,
    pub gen_cpu_s: f64,
    pub up_bytes: u64,
    pub down_bytes: u64,
    /// Outcomes delivered during the traffic.
    pub traffic_beats: u64,
    /// Open loop: send time minus due time; closed loop: read-to-send
    /// turnaround. µs, sorted.
    pub lateness_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub arr_violations: u64,
    pub fatal: Option<String>,
    pub reactor: ReactorOutput,
    pub recovery: Option<RecoveryResult>,
    /// (stream, samples sent) of every session, in open order.
    pub sessions: Vec<(usize, usize)>,
    pub uplink: Vec<u8>,
    /// `fleet_durable`: the sessions open at the crash.
    pub crashed: Vec<InFlight>,
}

/// A session open at the crash, as the generator saw it.
pub struct InFlight {
    pub stream: usize,
    pub patient: u32,
    pub wire: u32,
    pub token: u64,
    /// End sample of every frame sent, by sequence number.
    pub frame_ends: Vec<u32>,
}

impl InFlight {
    /// Reference beats a gateway that logged frames `0..seq` rebuilds.
    fn expected_beats(&self, streams: &[Stream], seq: u32) -> usize {
        let logged = match seq as usize {
            0 => 0,
            k => self.frame_ends[k.min(self.frame_ends.len()) - 1] as usize,
        };
        if logged < CALIB {
            return 0;
        }
        streams[self.stream].beats_triggered_before(logged)
    }
}

impl PassResult {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.traffic_s
    }

    /// Gateway CPU per accepted sample: process CPU minus the generator's.
    pub fn cpu_ns_per_sample(&self) -> f64 {
        (self.proc_cpu_s - self.gen_cpu_s) * 1e9 / self.samples as f64
    }

    pub fn latency_p50_us(&self) -> f64 {
        quantile_sorted(&self.latencies_us, 0.5)
    }

    /// Quantile `q` of each window's latencies, median over windows.
    pub fn windowed_quantile(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .window_latencies_us
            .iter()
            .map(|w| quantile_sorted(w, q))
            .collect();
        median(&per_window)
    }

    pub fn wire_bytes_per_sample(&self) -> f64 {
        (self.up_bytes + self.down_bytes) as f64 / self.samples as f64
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Clocks and counters at one instant of the traffic.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    proc_cpu_s: f64,
    gen_cpu_s: f64,
    up_bytes: u64,
    down_bytes: u64,
    beats: u64,
}

impl Mark {
    /// Must run on the generator thread (it reads that thread's CPU time).
    fn now(client: &Client<'_>) -> Mark {
        Mark {
            at: Instant::now(),
            proc_cpu_s: process_cpu_s(),
            gen_cpu_s: thread_cpu_s(),
            up_bytes: client.bytes_up,
            down_bytes: client.bytes_down,
            beats: client.beats_received,
        }
    }
}

/// Splits the traffic into one-second windows. Tail latency is taken per
/// window and the median reported: on a shared virtual machine, bursts of
/// CPU time stolen by the host hit a few windows and would otherwise decide
/// the 99th percentile of the whole run.
struct Meter {
    marks: Vec<Mark>,
    windows: usize,
}

impl Meter {
    fn start(client: &Client<'_>, seconds: f64) -> Meter {
        Meter {
            marks: vec![Mark::now(client)],
            windows: (seconds / WINDOW.as_secs_f64()).round().max(1.0) as usize,
        }
    }

    fn t0(&self) -> Instant {
        self.marks[0].at
    }

    /// Takes the next window boundary's mark once it is due.
    fn tick(&mut self, client: &Client<'_>) {
        let k = self.marks.len();
        if k < self.windows && Instant::now() >= self.t0() + WINDOW * k as u32 {
            self.marks.push(Mark::now(client));
        }
    }

    /// Closes the last window (it includes the drain).
    fn finish(mut self, client: &Client<'_>, lateness_us: Vec<f64>) -> Traffic {
        self.marks.push(Mark::now(client));
        Traffic {
            marks: self.marks,
            lateness_us,
        }
    }
}

/// Length of one measurement window of the traffic.
const WINDOW: Duration = Duration::from_secs(1);

/// What the traffic phase hands back.
struct Traffic {
    /// Window boundaries, first = start of traffic, last = its end.
    marks: Vec<Mark>,
    lateness_us: Vec<f64>,
}

/// Runs one pass: `setup_reps` set-ups (the last one carries the traffic),
/// traffic, checks and — for `fleet_durable` — crash recovery.
pub fn run_pass(prep: &Prepared, traced: bool) -> PassResult {
    let reps = if traced { 1 } else { prep.sizing.setup_reps };
    let mut setup_s = Vec::new();
    for rep in 0..reps {
        let last = rep + 1 == reps;
        let wal_dir = (prep.workload == Workload::Durable).then(|| prep.fresh_dir());
        let config = prep.gateway_config(wal_dir.as_deref());
        let shutdown = AtomicBool::new(false);
        // Set-up starts here: build the firmware image, bind, then open and
        // calibrate every session.
        let started = Instant::now();
        let fw = train_firmware();
        let outcome = std::thread::scope(|scope| {
            let gateway = Gateway::bind("127.0.0.1:0", &fw, FS, config).expect("bind gateway");
            let addr = gateway.local_addr().expect("gateway address");
            let handle = scope.spawn(|| reactor::run(gateway, &shutdown, traced));
            let mut client =
                Client::connect(addr, &prep.streams, CALIB).expect("connect to gateway");
            let slots = setup(&mut client, prep);
            setup_s.push(started.elapsed().as_secs_f64());
            if !last {
                drop(client);
                shutdown.store(true, Ordering::Release);
                handle.join().expect("reactor thread");
                return None;
            }
            if traced {
                client.uplink = Some((Vec::new(), UPLINK_CAP));
            }
            let traffic = if prep.workload.open_loop() {
                open_loop(&mut client, prep, slots)
            } else {
                closed_loop(&mut client, prep, slots)
            };
            shutdown.store(true, Ordering::Release);
            let reactor = handle.join().expect("reactor thread");
            Some(finish_pass(client, prep, traffic, reactor))
        });
        let Some(mut result) = outcome else {
            if let Some(dir) = wal_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            continue;
        };
        result.setup_s = setup_s;
        if let Some(dir) = wal_dir {
            let recovery = recover(&fw, prep, &dir, &result, traced);
            result.attempted += recovery.attempted;
            result.failed += recovery.failed;
            if recovery.parked != recovery.in_flight {
                result.fatal.get_or_insert(format!(
                    "recovery parked {} sessions, {} were open at the crash",
                    recovery.parked, recovery.in_flight
                ));
            }
            result.recovery = Some(recovery);
            let _ = std::fs::remove_dir_all(dir);
        }
        return result;
    }
    unreachable!("the last set-up repetition returns")
}

/// Opens every slot's first session and sends its calibration stretch;
/// returns once each has been calibrated (its first credit grant arrived),
/// i.e. the first sample frame can flow.
fn setup(client: &mut Client<'_>, prep: &Prepared) -> Vec<usize> {
    let slots: Vec<usize> = (0..prep.sizing.sessions)
        .map(|slot| client.open(prep.slot_streams[slot][0], patient_id(slot, 0)))
        .collect();
    client.flush().expect("send opens");
    let deadline = Instant::now() + STALL;
    loop {
        let now = Instant::now();
        for idx in std::mem::take(&mut client.opened) {
            client.send(idx, CALIB, now, false);
        }
        client.flush().expect("send calibration stretches");
        if slots.iter().all(|&i| client.sessions[i].calibrated) {
            return slots;
        }
        if let Some(why) = &client.fatal {
            panic!("set-up failed: {why}");
        }
        assert!(now < deadline, "set-up stalled");
        client
            .pump(Duration::from_millis(50))
            .expect("read gateway");
    }
}

/// Open-loop traffic: every slot acts on its own tick schedule
/// (`t0 + phase + k·period`), sending from the due time whatever the
/// gateway did; the generator sleeps until the next due tick or the next
/// downlink byte, whichever comes first.
fn open_loop(client: &mut Client<'_>, prep: &Prepared, slots: Vec<usize>) -> Traffic {
    let churn = prep.workload == Workload::Durable;
    let n = slots.len();
    let mut current = slots;
    let mut next_patient = vec![1usize; n];
    let mut tick = vec![0u64; n];
    let mut lateness = Vec::new();
    let mut meter = Meter::start(client, prep.sizing.seconds);
    let t0 = meter.t0() + Duration::from_millis(2);
    let due = |slot: usize, k: u64| t0 + prep.phases[slot] + prep.period * k as u32;
    let mut last_progress = Instant::now();
    loop {
        meter.tick(client);
        let now = Instant::now();
        // Newly opened sessions get their calibration stretch at once.
        for idx in std::mem::take(&mut client.opened) {
            client.send(idx, CALIB, now, true);
        }
        let mut waiting = vec![false; n];
        for slot in 0..n {
            while tick[slot] < prep.ticks[slot] {
                let d = due(slot, tick[slot]);
                if d > now {
                    break;
                }
                let idx = current[slot];
                let len = client.stream(idx).codes.len();
                let s = &client.sessions[idx];
                match s.phase {
                    Phase::Open if s.sent < len => {
                        let k = PACKET.min(len - s.sent);
                        client.send(idx, k, d, true);
                        if client.sessions[idx].sent == len {
                            client.close(idx);
                        }
                    }
                    Phase::CloseSent | Phase::Done if churn => {
                        let ordinal = next_patient[slot];
                        if let Some(&stream) = prep.slot_streams[slot].get(ordinal) {
                            current[slot] = client.open(stream, patient_id(slot, ordinal));
                            next_patient[slot] += 1;
                        }
                    }
                    _ => {
                        // The open is still in flight: the tick waits for
                        // the gateway and its lateness will show.
                        waiting[slot] = true;
                        break;
                    }
                }
                lateness.push(micros(now - d));
                tick[slot] += 1;
            }
        }
        client.flush().expect("send to gateway");
        if client.fatal.is_some() {
            break;
        }
        let next = (0..n)
            .filter(|&slot| !waiting[slot] && tick[slot] < prep.ticks[slot])
            .map(|slot| due(slot, tick[slot]))
            .min();
        let remaining = (0..n).any(|slot| tick[slot] < prep.ticks[slot]);
        if !remaining {
            break;
        }
        let timeout = next.map_or(Duration::from_millis(50), |d| {
            d.saturating_duration_since(Instant::now())
        });
        if client.pump(timeout).expect("read gateway") {
            last_progress = Instant::now();
        }
        assert!(last_progress.elapsed() < STALL, "open-loop traffic stalled");
    }
    // Drain: every close must be answered with its report. A durable run
    // then crashes with the remaining sessions open.
    let deadline = Instant::now() + STALL;
    while client.fatal.is_none()
        && client
            .sessions
            .iter()
            .any(|s| matches!(s.phase, Phase::CloseSent | Phase::Opening))
    {
        assert!(Instant::now() < deadline, "drain stalled");
        client
            .pump(Duration::from_millis(50))
            .expect("read gateway");
        for idx in std::mem::take(&mut client.opened) {
            client.send(idx, CALIB, Instant::now(), true);
        }
        client.flush().expect("send to gateway");
    }
    meter.finish(client, lateness)
}

/// Closed-loop traffic: round-robin frames as credit allows, blocking on the
/// socket while out of credit. Each slot opens its next patient as soon as
/// the previous one's report arrives, so the fleet never waits at a common
/// barrier. At the deadline every open session is cut at its next
/// [`CUT_EVERY`] boundary and closed there.
fn closed_loop(client: &mut Client<'_>, prep: &Prepared, slots: Vec<usize>) -> Traffic {
    let n = slots.len();
    let mut current = slots;
    let mut next_patient = vec![1usize; n];
    let mut turnaround = Vec::new();
    let mut read_at: Option<Instant> = None;
    let mut meter = Meter::start(client, prep.sizing.seconds);
    let deadline = meter.t0() + Duration::from_secs_f64(prep.sizing.seconds);
    let mut cutting = false;
    let mut last_progress = Instant::now();
    loop {
        meter.tick(client);
        client.opened.clear();
        let now = Instant::now();
        if !cutting && now >= deadline {
            cutting = true;
            for &idx in &current {
                client.cut(idx);
            }
        }
        if !cutting {
            for slot in 0..n {
                if client.sessions[current[slot]].phase == Phase::Done {
                    let ordinal = next_patient[slot];
                    next_patient[slot] += 1;
                    current[slot] = client.open((slot + ordinal) % n, patient_id(slot, ordinal));
                }
            }
        }
        let mut sent_any = false;
        loop {
            let mut progressed = false;
            for &idx in &current {
                let s = &client.sessions[idx];
                if s.phase != Phase::Open {
                    continue;
                }
                let k = BULK_FRAME.min(s.end - s.sent);
                if k > 0 && s.credit >= k {
                    client.send(idx, k, now, true);
                    progressed = true;
                }
                if client.sessions[idx].sent == client.sessions[idx].end {
                    client.close(idx);
                }
            }
            if !progressed {
                break;
            }
            sent_any = true;
        }
        if sent_any {
            if let Some(at) = read_at.take() {
                turnaround.push(micros(at.elapsed()));
            }
        }
        client.flush().expect("send to gateway");
        if client.fatal.is_some()
            || (cutting
                && current
                    .iter()
                    .all(|&i| client.sessions[i].phase == Phase::Done))
        {
            break;
        }
        if client
            .pump(Duration::from_millis(200))
            .expect("read gateway")
        {
            read_at = Some(Instant::now());
            last_progress = Instant::now();
        }
        assert!(
            last_progress.elapsed() < STALL,
            "closed-loop traffic stalled"
        );
    }
    meter.finish(client, turnaround)
}

/// Checks every session against its reference and assembles the pass.
fn finish_pass(
    client: Client<'_>,
    prep: &Prepared,
    traffic: Traffic,
    reactor: ReactorOutput,
) -> PassResult {
    let durable = prep.workload == Workload::Durable;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut samples = 0u64;
    let mut arr_violations = 0u64;
    for (idx, s) in client.sessions.iter().enumerate() {
        let stream = client.stream(idx);
        let want = s.expected_beats(stream);
        arr_violations += s.arr_violations as u64;
        if s.phase == Phase::Done {
            attempted += want as u64;
            failed += s.wrong as u64 + want.saturating_sub(s.received) as u64;
            let report_ok = s
                .report
                .is_some_and(|r| r.beats == want as u64 && r.samples == s.end as u64);
            if !report_ok {
                failed += want.max(1) as u64;
            }
            samples += s.traffic_samples as u64;
        } else if durable {
            // Open at the crash: what arrived must be a reference prefix;
            // the rest is checked after recovery.
            failed += s.wrong as u64;
            samples += s.traffic_samples as u64;
        } else {
            attempted += want as u64;
            failed += want as u64;
        }
    }
    let marks = &traffic.marks;
    let (first, last) = (marks[0], marks[marks.len() - 1]);
    let mut window_latencies_us = Vec::new();
    for w in marks.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mut window: Vec<f64> = client
            .latencies_us
            .iter()
            .filter(|(t, _)| a.at <= *t && *t < b.at)
            .map(|&(_, us)| us)
            .collect();
        if !window.is_empty() {
            window.sort_by(f64::total_cmp);
            window_latencies_us.push(window);
        }
    }
    let mut latencies_us: Vec<f64> = client.latencies_us.iter().map(|&(_, us)| us).collect();
    latencies_us.sort_by(f64::total_cmp);
    let mut lateness_us = traffic.lateness_us;
    lateness_us.sort_by(f64::total_cmp);
    PassResult {
        setup_s: Vec::new(),
        traffic_s: (last.at - first.at).as_secs_f64(),
        samples,
        latencies_us,
        window_latencies_us,
        calib_beats: client.calib_beats,
        close_beats: client.close_beats,
        proc_cpu_s: last.proc_cpu_s - first.proc_cpu_s,
        gen_cpu_s: last.gen_cpu_s - first.gen_cpu_s,
        up_bytes: last.up_bytes - first.up_bytes,
        down_bytes: last.down_bytes - first.down_bytes,
        traffic_beats: last.beats - first.beats,
        lateness_us,
        attempted,
        failed,
        arr_violations,
        fatal: client.fatal.clone(),
        reactor,
        recovery: None,
        sessions: client.sessions.iter().map(|s| (s.stream, s.sent)).collect(),
        uplink: client.uplink.map(|(bytes, _)| bytes).unwrap_or_default(),
        crashed: client
            .sessions
            .iter()
            .filter(|s| s.phase == Phase::Open)
            .map(|s| InFlight {
                stream: s.stream,
                patient: s.patient,
                wire: s.wire,
                token: s.token,
                frame_ends: s.frames.iter().map(|f| f.0).collect(),
            })
            .collect(),
    }
}

/// `fleet_durable`'s crash recovery: times `Gateway::bind` on the crashed
/// log until every open session is parked (traced passes first time the
/// read-only `hbc_wal::scan` and `replay_log` on the same directory), then
/// resumes every recovered session on a fresh connection and checks that
/// its rebuilt outcome history equals the reference prefix of what was
/// logged.
fn recover(
    fw: &WbsnFirmware,
    prep: &Prepared,
    dir: &Path,
    pass: &PassResult,
    traced: bool,
) -> RecoveryResult {
    let mut result = RecoveryResult {
        in_flight: pass.crashed.len(),
        ..RecoveryResult::default()
    };
    if traced {
        let started = Instant::now();
        let scanned = hbc_wal::scan(dir).expect("scan crashed log");
        result.scan_s = started.elapsed().as_secs_f64();
        std::hint::black_box(scanned.records.len());
        let started = Instant::now();
        let replayed = hbc_net::replay_log(dir, fw, None).expect("replay crashed log");
        result.replay_s = started.elapsed().as_secs_f64();
        std::hint::black_box(replayed.sessions.len());
    }
    let started = Instant::now();
    let gateway = Gateway::bind("127.0.0.1:0", fw, FS, prep.gateway_config(Some(dir)))
        .expect("bind on the crashed log");
    result.recovery_s = started.elapsed().as_secs_f64();
    result.parked = gateway.parked_sessions();
    let addr = gateway.local_addr().expect("gateway address");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| gateway.run(&shutdown).expect("recovered gateway runs"));
        let mut client = Client::connect(addr, &prep.streams, CALIB).expect("connect to gateway");
        let resumed: Vec<usize> = pass
            .crashed
            .iter()
            .map(|c| client.resume(c.stream, c.patient, c.wire, c.token))
            .collect();
        client.flush().expect("send resumes");
        let mut last_progress = Instant::now();
        loop {
            let complete = resumed.iter().zip(&pass.crashed).all(|(&i, c)| {
                let s = &client.sessions[i];
                s.resumed_seq
                    .is_some_and(|seq| s.received >= c.expected_beats(&prep.streams, seq))
            });
            if complete
                || client.fatal.is_some()
                || last_progress.elapsed() > Duration::from_secs(5)
            {
                break;
            }
            if client
                .pump(Duration::from_millis(50))
                .expect("read gateway")
            {
                last_progress = Instant::now();
            }
        }
        for (&i, c) in resumed.iter().zip(&pass.crashed) {
            let s = &client.sessions[i];
            match s.resumed_seq {
                Some(seq) => {
                    let want = c.expected_beats(&prep.streams, seq);
                    result.attempted += want as u64;
                    result.failed += (s.wrong + s.received.abs_diff(want)) as u64;
                }
                None => {
                    let want = c.expected_beats(&prep.streams, c.frame_ends.len() as u32);
                    result.attempted += want as u64;
                    result.failed += want.max(1) as u64;
                }
            }
        }
        if let Some(why) = &client.fatal {
            eprintln!("recovery check failed: {why}");
            result.failed += 1;
        }
        drop(client);
        shutdown.store(true, Ordering::Release);
        handle.join().expect("recovered reactor thread");
    });
    result
}

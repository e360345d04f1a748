//! The gateway reactor thread: the only thread the harness starts besides
//! the generator (the hub spawns its own short-lived workers per ingest).
//!
//! Untraced runs call [`Gateway::run_with_report`], exactly as a deployment
//! would. Traced runs drive the same sweep through [`Gateway::poll`] with the
//! same idle back-off (300 µs sleep after a sweep without progress) and
//! record a span around every poll and every idle sleep, so the layer table
//! can add up to the reactor's wall time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hbc_net::Gateway;
use hbc_obs::MetricsSnapshot;

/// The idle back-off `Gateway::run_with_report` uses.
const IDLE_SLEEP: Duration = Duration::from_micros(300);

/// Spans of a traced reactor run.
#[derive(Debug, Default)]
pub struct ReactorTrace {
    /// From the first poll to the loop's exit.
    pub wall: Duration,
    /// Duration of every `Gateway::poll`, in nanoseconds.
    pub polls_ns: Vec<u64>,
    /// Time spent in idle back-off sleeps.
    pub idle: Duration,
}

/// What the reactor hands back when it stops (the gateway itself is
/// dropped, which for a durable gateway is the simulated crash: no session
/// it still holds is closed in the log).
#[derive(Debug)]
pub struct ReactorOutput {
    pub metrics: MetricsSnapshot,
    pub trace: Option<ReactorTrace>,
}

/// Runs the reactor until `shutdown` flips.
pub fn run(gateway: Gateway<'_>, shutdown: &AtomicBool, traced: bool) -> ReactorOutput {
    if !traced {
        let report = gateway
            .run_with_report(shutdown)
            .expect("gateway reactor failed");
        return ReactorOutput {
            metrics: report.metrics,
            trace: None,
        };
    }
    let mut gateway = gateway;
    let mut trace = ReactorTrace::default();
    let started = Instant::now();
    while !shutdown.load(Ordering::Acquire) {
        let poll_started = Instant::now();
        let progress = gateway.poll().expect("gateway reactor failed");
        trace
            .polls_ns
            .push(poll_started.elapsed().as_nanos() as u64);
        if !progress {
            let sleep_started = Instant::now();
            std::thread::sleep(IDLE_SLEEP);
            trace.idle += sleep_started.elapsed();
        }
    }
    trace.wall = started.elapsed();
    ReactorOutput {
        metrics: gateway.metrics_snapshot(),
        trace: Some(trace),
    }
}

//! End-to-end benchmark of the `hbc-net` gateway.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path gateway_bench/Cargo.toml -- \
//!     --workload fleet_realtime --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --quiet --manifest-path gateway_bench/Cargo.toml -- --self-check
//! ```
//!
//! Runs the real `Gateway` in-process on loopback, drives it from one
//! generator thread over one connection, checks every delivered outcome
//! against a reference, and prints a report whose last line is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of a separate traced pass with `--trace 1`. See `README.md`.

mod client;
mod corpus;
mod layers;
mod reactor;
mod util;
mod workload;

use std::process::ExitCode;

use util::{median, peak_rss_mib, quantile_sorted, Json};
use workload::{run_pass, train_firmware, PassResult, Prepared, Sizing, Workload, CALIB};

/// A run whose generator was later than four packet periods (12.5 ms each at
/// 8× real time) at the 99th percentile did not offer the load it claims: it
/// is reported invalid, not scored. Lateness counts in every latency anyway
/// (sends are timed from their due time); the bound sits above the
/// host stalls of a shared machine (13.5 ms seen once) and below a generator
/// that cannot keep its schedule.
const LATE_BOUND_US: f64 = 50_000.0;
/// A closed loop paces itself, so lateness is no test there; instead its
/// generator must not take so much CPU that it could be the bottleneck.
const GENERATOR_SHARE_BOUND: f64 = 0.25;
/// Prefix of the reasons that void a run without any wrong output.
const INVALID: &str = "invalid run:";

/// The result of one invocation.
struct Outcome {
    /// Why the run is wrong or invalid; empty when correct.
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gateway-bench --workload <fleet_saturate|fleet_realtime|fleet_durable> \
         --seed <n> --seconds <s> --trace <0|1>\n       gateway-bench --self-check"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-check") {
        return self_check();
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let out = run(workload, seed, Sizing::full(seconds), trace, true);
    println!("{}", to_json(&out));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("gateway-bench: outputs were wrong or the run was invalid (see report)");
        ExitCode::FAILURE
    }
}

/// Checks one pass; returns a reason when its outputs are wrong or the run
/// is invalid.
fn verdict(pass: &PassResult, open_loop: bool) -> Option<String> {
    if let Some(why) = &pass.fatal {
        return Some(why.clone());
    }
    if pass.failed > 0 || pass.attempted == 0 {
        return Some(format!(
            "{} of {} reference beats not delivered bit-identical",
            pass.failed, pass.attempted
        ));
    }
    if pass.arr_violations > 0 {
        return Some(format!(
            "{} abnormal beats delivered without delineation",
            pass.arr_violations
        ));
    }
    let late = quantile_sorted(&pass.lateness_us, 0.99);
    if open_loop && late > LATE_BOUND_US {
        return Some(format!(
            "{INVALID} generator p99 lateness {late:.0} µs > {LATE_BOUND_US} µs"
        ));
    }
    let share = pass.gen_cpu_s / pass.proc_cpu_s.max(1e-9);
    if !open_loop && share > GENERATOR_SHARE_BOUND {
        return Some(format!(
            "{INVALID} the generator used {share:.2} of the process CPU, it may be the bottleneck"
        ));
    }
    None
}

fn run(workload: Workload, seed: u64, sizing: Sizing, trace: bool, print: bool) -> Outcome {
    // Preparation (untimed): the reference needs the same firmware image
    // the set-up will rebuild.
    let fw = train_firmware();
    let prep = Prepared::new(workload, sizing, seed, &fw);
    let outcome = measure(&prep, &fw, trace, print);
    prep.cleanup();
    outcome
}

fn measure(prep: &Prepared, fw: &hbc_embedded::WbsnFirmware, trace: bool, print: bool) -> Outcome {
    let say = |line: String| {
        if print {
            println!("{line}");
        }
    };
    let untraced = run_pass(prep, false);
    let rss = peak_rss_mib();
    let mut problems: Vec<String> = verdict(&untraced, prep.workload.open_loop())
        .into_iter()
        .collect();
    let sizing = prep.sizing;
    say(format!(
        "{}: {} sessions, {:.1} s of traffic, nproc {}",
        prep.workload.name(),
        sizing.sessions,
        untraced.traffic_s,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    say(format!(
        "  outcome latency over {} beats ({} calibration-triggered and {} close-triggered beats excluded); generator p99 lateness {:.0} µs, CPU share {:.3}",
        untraced.latencies_us.len(),
        untraced.calib_beats,
        untraced.close_beats,
        quantile_sorted(&untraced.lateness_us, 0.99),
        untraced.gen_cpu_s / untraced.proc_cpu_s.max(1e-9),
    ));
    let lat = &untraced.latencies_us;
    say(format!(
        "  latency µs: p50 {:.0} p90 {:.0} p95 {:.0} p99 {:.0} p99.9 {:.0} max {:.0}",
        quantile_sorted(lat, 0.5),
        quantile_sorted(lat, 0.9),
        quantile_sorted(lat, 0.95),
        quantile_sorted(lat, 0.99),
        quantile_sorted(lat, 0.999),
        quantile_sorted(lat, 1.0),
    ));
    say(format!(
        "  median over one-second windows: p90 {:.0} p95 {:.0} p99 {:.0} µs",
        untraced.windowed_quantile(0.9),
        untraced.windowed_quantile(0.95),
        untraced.windowed_quantile(0.99),
    ));
    if let Some(r) = &untraced.recovery {
        say(format!(
            "  crash recovery: {:.3} s, {} of {} open sessions parked, {} reference beats re-delivered",
            r.recovery_s, r.parked, r.in_flight, r.attempted
        ));
    }
    say(format!(
        "  correctness: {} failed of {} reference beats (error_rate {})",
        untraced.failed,
        untraced.attempted,
        untraced.error_rate()
    ));
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let metrics = if trace {
        let traced = run_pass(prep, true);
        problems.extend(verdict(&traced, prep.workload.open_loop()));
        attempted += traced.attempted;
        failed += traced.failed;
        let mut table = Vec::new();
        let per_layer = layers::measure(prep, fw, &traced, &untraced, &mut table);
        say("layer table (traced pass):".to_string());
        for line in table {
            say(line);
        }
        per_layer
            .into_iter()
            .map(|m| (m.name, m.unit, m.value))
            .collect()
    } else {
        vec![
            ("setup_s", "s", median(&untraced.setup_s)),
            ("samples_per_s", "samples/s", untraced.samples_per_s()),
            ("cpu_ns_per_sample", "ns", untraced.cpu_ns_per_sample()),
            ("peak_rss_mb", "MiB", rss),
            (
                "wire_bytes_per_sample",
                "B",
                untraced.wire_bytes_per_sample(),
            ),
        ]
    };
    for (name, unit, value) in &metrics {
        say(format!("  {name:<42} {value:>16.4} {unit}"));
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
    }
    for p in &problems {
        say(format!("  FAILED: {p}"));
    }
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

fn to_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Runs every workload at a tiny size, traced and untraced, and checks that
/// the printed metric names and units are exactly those `BENCHMARK.json`
/// declares, that every run is correct, and that a deliberately corrupted
/// reference makes the correctness check fail.
fn self_check() -> ExitCode {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("self-check: cannot read BENCHMARK.json in the working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bench = match Json::parse(&text) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("self-check: BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared = |key: &str| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = bench
            .get(key)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        v.sort();
        v
    };
    let mut failures = Vec::new();
    for name in bench
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
    {
        if Workload::parse(name).is_none() {
            failures.push(format!("BENCHMARK.json declares unknown workload {name}"));
        }
    }
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(w, 7, Sizing::quick(), trace, false);
            let mut got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            got.sort();
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            if got != want {
                failures.push(format!(
                    "{} --trace {}: metrics {:?} differ from BENCHMARK.json {:?}",
                    w.name(),
                    u8::from(trace),
                    got,
                    want
                ));
            }
            for p in &out.problems {
                let line = format!("{} --trace {}: {p}", w.name(), u8::from(trace));
                // A tiny run's lateness percentile rests on a few hundred
                // sends, so a host hiccup can void it; that says nothing
                // about the harness.
                if p.starts_with(INVALID) {
                    eprintln!("self-check: note: {line}");
                } else {
                    failures.push(line);
                }
            }
            eprintln!(
                "self-check: {} --trace {}: {} metrics, correct {}",
                w.name(),
                u8::from(trace),
                got.len(),
                out.problems.is_empty()
            );
        }
    }
    // A corrupted reference must be caught: flip one post-calibration beat.
    let fw = train_firmware();
    let mut prep = Prepared::new(Workload::Realtime, Sizing::quick(), 7, &fw);
    let stream = &mut prep.streams[0];
    let len = stream.codes.len() as u32;
    if let Some(beat) = stream
        .reference
        .iter_mut()
        .find(|b| b.trigger as usize >= CALIB && b.trigger < len)
    {
        beat.outcome.peak += 1;
    }
    let pass = run_pass(&prep, false);
    prep.cleanup();
    if verdict(&pass, true).is_none() || pass.failed == 0 {
        failures.push("a corrupted reference beat went unnoticed".into());
    } else {
        eprintln!(
            "self-check: corrupted reference detected ({} failed beats)",
            pass.failed
        );
    }
    if failures.is_empty() {
        println!("self-check ok");
        ExitCode::SUCCESS
    } else {
        for f in failures {
            eprintln!("self-check FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

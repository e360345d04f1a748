//! End-to-end telemetry guarantees of the `hbc-obs` substrate threaded
//! through the gateway:
//!
//! * **Headline histogram** — after real loopback traffic the
//!   first-ADC-sample-to-outcome histogram is non-empty and its quantiles
//!   are ordered; the snapshot's counters agree exactly with the reactor's
//!   own [`GatewayStats`];
//! * **Trace ordering** — the trace ring orders a session's lifecycle
//!   (open before close), and a sever/resume/overload run orders
//!   detach → resume → shed with event counts that match the counters;
//! * **Admin surface** — a raw HTTP scrape of the admin listener serves
//!   the Prometheus text exposition, the JSON snapshot, the health
//!   document and the trace dump, and 404s unknown routes;
//! * **Bit-invisibility** — outcomes received over the wire with
//!   instrumentation enabled are the same outcomes the un-instrumented
//!   parity suites pin down (the loopback suite re-checks that end to
//!   end; here we assert the telemetry rides along without changing the
//!   session summary).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use heartbeat_rp::hbc_ecg::record::EcgRecord;
use heartbeat_rp::hbc_net::{Gateway, GatewayConfig, NodeClient};
use heartbeat_rp::hbc_obs::{MetricValue, MetricsSnapshot, TraceEvent};
use heartbeat_rp::hbc_wal::WalConfig;

mod support;

use support::{system, wire_record, with_gateway_report};

/// Bytes one buffered sample occupies gateway-side (the gateway buffers
/// the wire's `i16` ADC codes).
const SAMPLE_BYTES: usize = std::mem::size_of::<i16>();

/// Streams one record through a session and closes it. Draining the replay
/// buffer before the close makes the gateway consume (and forward outcomes
/// for) the stream *while the session is live* — the path the
/// beat-to-outcome histogram measures — instead of in the close drain.
fn stream_record(addr: SocketAddr, record: &EcgRecord, calib_len: u32) -> u64 {
    let mut client = NodeClient::connect(addr).expect("connect");
    let session = client
        .open_session(record.id, record.fs, calib_len)
        .expect("open");
    for chunk in record.leads[0].chunks(768) {
        client.send_mv(session, chunk).expect("send");
    }
    let start = Instant::now();
    while client.replay_depth(session) > 0 {
        client.pump().expect("pump");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "gateway never acked the stream"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let summary = client.close_session(session).expect("close");
    summary.report.beats
}

#[test]
fn loopback_traffic_fills_the_headline_histogram_and_matches_counters() {
    let fw = &system().wbsn;
    let record = wire_record(9100, 30);
    let fs = record.fs;
    let tmp = support::TempDir::new("obs-headline");
    let config = GatewayConfig {
        wal: Some(WalConfig::new(tmp.path())),
        ..GatewayConfig::default()
    };
    let (beats, report) =
        with_gateway_report(fw, fs, config, |addr, _| stream_record(addr, &record, 2048));
    assert!(beats > 0, "the session must classify beats");

    // The headline metric: non-empty after real traffic, quantiles ordered.
    let b2o = report
        .metrics
        .histogram("hbc_gateway_beat_to_outcome_micros")
        .expect("headline histogram present");
    assert!(b2o.count() > 0, "beat-to-outcome histogram must be fed");
    assert!(b2o.p50() <= b2o.p90() && b2o.p90() <= b2o.p99());
    assert!(b2o.p99() > 0, "forwarding an outcome takes nonzero time");

    // Every latency source was exercised by the run.
    for name in [
        "hbc_gateway_sweep_micros",
        "hbc_gateway_frame_micros",
        "hbc_gateway_ingest_batch_micros",
        "hbc_hub_ingest_micros",
        "hbc_stage_conditioning_nanos",
        "hbc_stage_projection_nanos",
        "hbc_stage_classify_nanos",
    ] {
        let h = report.metrics.histogram(name).expect(name);
        assert!(h.count() > 0, "{name} must be fed by the run");
    }

    // The snapshot's readings are the reactor's counters, verbatim: every
    // `GatewayStats` field, read back from the served snapshot.
    let s = &report.stats;
    let counter = |name: &str| report.metrics.counter(name).expect(name);
    let mut from_stats = MetricsSnapshot::new();
    s.export(&mut from_stats);
    assert_eq!(from_stats.metrics().len(), 31, "27 counters + 4 gauges");
    for m in from_stats.metrics() {
        assert_eq!(
            report.metrics.get(&m.name),
            Some(&m.value),
            "{} must be served as the stats hold it",
            m.name
        );
    }
    assert!(s.frames_in > 0 && s.samples_in > 0 && s.beats_out > 0);
    // Delta-coded ECG codes cost well under the two bytes of a raw i16.
    assert!(s.wire_bytes_in > 0 && s.wire_bytes_out > 0);
    assert!(
        s.wire_bytes_in < 2 * s.samples_in,
        "uplink {} B for {} samples",
        s.wire_bytes_in,
        s.samples_in
    );
    assert_eq!(counter("hbc_gateway_sessions_opened_total"), 1);
    assert_eq!(counter("hbc_gateway_sessions_closed_total"), 1);
    assert_eq!(counter("hbc_gateway_wal_errors_total"), 0);
    assert!(counter("hbc_wal_appends_total") > 0, "the log saw appends");
    assert!(counter("hbc_wal_appended_bytes_total") > 0);

    // The windowed high-water mark never exceeds the all-time mark.
    assert!(s.poll_recent_high_water_micros <= s.poll_high_water_micros);

    // Trace ordering: this session opened before it closed, and the
    // durable log appended before the session closed on the wire.
    let open_tick = report
        .trace
        .iter()
        .find(|r| matches!(r.event, TraceEvent::SessionOpen { .. }))
        .expect("open traced")
        .tick;
    let close_tick = report
        .trace
        .iter()
        .find(|r| matches!(r.event, TraceEvent::SessionClose { .. }))
        .expect("close traced")
        .tick;
    assert!(open_tick < close_tick, "open must precede close");
    assert!(
        report
            .trace
            .iter()
            .any(|r| matches!(r.event, TraceEvent::WalAppend { .. })),
        "durable-log appends must be traced"
    );
    let mut last = 0u64;
    for rec in &report.trace {
        assert!(rec.tick > last, "ticks must strictly increase in a dump");
        last = rec.tick;
    }

    // Exposition formats carry the headline metric.
    let text = report.metrics.to_prometheus();
    assert!(text.contains("# TYPE hbc_gateway_beat_to_outcome_micros histogram"));
    assert!(text.contains("hbc_gateway_beat_to_outcome_micros_bucket{le=\"+Inf\"}"));
    assert!(text.contains("hbc_gateway_beat_to_outcome_micros_count"));
    let json = report.metrics.to_json();
    assert!(json.contains("\"hbc_gateway_beat_to_outcome_micros\":{\"count\":"));

    // Satellite: WAL health folds into GatewayHealth. A fresh bind on the
    // same log directory sees the bytes the run left behind.
    let gw = Gateway::bind(
        "127.0.0.1:0",
        fw,
        fs,
        GatewayConfig {
            wal: Some(WalConfig::new(tmp.path())),
            ..GatewayConfig::default()
        },
    )
    .expect("rebind");
    let health = gw.health();
    assert_eq!(health.wal_active, 1, "the log must be accepting appends");
    assert!(health.wal_log_bytes > 0, "the log kept the run's records");
    assert_eq!(gw.stats().wal_errors, 0);
}

#[test]
fn sever_resume_and_overload_order_detach_resume_shed_on_the_trace() {
    let fw = &system().wbsn;
    let record = wire_record(9200, 30);
    let fs = record.fs;
    assert!(record.leads[0].len() >= 4096, "record long enough");
    // A budget of 4500 samples (9000 bytes). Session A's calibration
    // stretch (4096 samples) fits under the hard-deny check but occupies
    // most of the budget once buffered — a session still *calibrating*
    // never drains, so its buffer sits there deterministically. Session
    // B's very first frame then breaches the budget by arithmetic, not by
    // racing the drain, and the shedder must fire.
    let config = GatewayConfig {
        global_memory_budget: 4_500 * SAMPLE_BYTES,
        resume_window: Duration::from_secs(30),
        ..GatewayConfig::default()
    };
    let ((), report) = with_gateway_report(fw, fs, config, |addr, _| {
        // Session A: buffer a partial calibration stretch (4000 of 4096 —
        // nothing drains while calibrating), then sever and resume:
        // detach → resume on the trace.
        let mut a = NodeClient::connect(addr).expect("connect A");
        let sa = a.open_session(record.id, fs, 4096).expect("open A");
        a.send_mv(sa, &record.leads[0][..4000]).expect("send A");
        // Let the gateway ingest the frames before the link dies.
        std::thread::sleep(Duration::from_millis(150));
        a.sever();
        // Give the reactor time to notice the dead link and park the
        // session, so the resume below finds it detached, not live.
        std::thread::sleep(Duration::from_millis(200));
        let start = Instant::now();
        loop {
            match a.reconnect_with_backoff(addr, 4, Duration::from_millis(5)) {
                Ok(()) => break,
                Err(e) => {
                    assert!(
                        start.elapsed() < Duration::from_secs(30),
                        "could not resume within the deadline: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        // Session B: a small calibration stretch keeps its open admissible
        // (8000 + 512 < 9000); its first 1024-sample frame then charges
        // 2048 bytes against the ~1000 remaining — shed.
        let mut b = NodeClient::connect(addr).expect("connect B");
        let sb = b.open_session(record.id + 1, fs, 256).expect("open B");
        for chunk in record.leads[0][..4096].chunks(1024) {
            b.send_mv(sb, chunk).expect("send B");
        }
        std::thread::sleep(Duration::from_millis(200));
    });

    let s = &report.stats;
    assert!(s.sessions_detached >= 1, "the sever must detach A");
    assert!(s.sessions_resumed >= 1, "A must resume");
    assert!(s.sheds >= 1, "the flood must trigger the shedder");

    // The trace tells the same story, in order: detach → resume → shed.
    let tick_of = |pred: &dyn Fn(&TraceEvent) -> bool, what: &str| {
        report
            .trace
            .iter()
            .find(|r| pred(&r.event))
            .unwrap_or_else(|| panic!("{what} must be traced"))
            .tick
    };
    let detach = tick_of(&|e| matches!(e, TraceEvent::SessionDetach { .. }), "detach");
    let resume = tick_of(&|e| matches!(e, TraceEvent::SessionResume { .. }), "resume");
    let shed = tick_of(&|e| matches!(e, TraceEvent::Shed { .. }), "shed");
    assert!(
        detach < resume && resume < shed,
        "expected detach ({detach}) < resume ({resume}) < shed ({shed})"
    );

    // Event counts agree with the counters (the ring was not overrun).
    let count_of = |pred: &dyn Fn(&TraceEvent) -> bool| {
        report.trace.iter().filter(|r| pred(&r.event)).count() as u64
    };
    assert_eq!(
        count_of(&|e| matches!(e, TraceEvent::SessionDetach { .. })),
        s.sessions_detached
    );
    assert_eq!(
        count_of(&|e| matches!(e, TraceEvent::SessionResume { .. })),
        s.sessions_resumed
    );
    assert_eq!(count_of(&|e| matches!(e, TraceEvent::Shed { .. })), s.sheds);
    let shed_samples: u64 = report
        .trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Shed { samples, .. } => Some(u64::from(samples)),
            _ => None,
        })
        .sum();
    assert_eq!(shed_samples, s.samples_shed);
}

/// One blocking HTTP/1.0 exchange against the admin listener.
fn scrape(admin: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(admin).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
}

#[test]
fn admin_surface_serves_metrics_health_and_trace() {
    let fw = &system().wbsn;
    let record = wire_record(9300, 25);
    let fs = record.fs;
    let config = GatewayConfig {
        admin_addr: Some("127.0.0.1:0".parse().expect("addr")),
        ..GatewayConfig::default()
    };
    let (scrapes, report) = with_gateway_report(fw, fs, config, |addr, admin| {
        let admin = admin.expect("admin listener configured");
        let beats = stream_record(addr, &record, 2048);
        assert!(beats > 0);
        let metrics = scrape(admin, "/metrics");
        let json = scrape(admin, "/metrics.json");
        let health = scrape(admin, "/health");
        let trace = scrape(admin, "/trace");
        let missing = scrape(admin, "/nope");
        (metrics, json, health, trace, missing)
    });
    let (metrics, json, health, trace, missing) = scrapes;

    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(metrics.contains("text/plain; version=0.0.4"));
    assert!(metrics.contains("# TYPE hbc_gateway_beat_to_outcome_micros histogram"));
    assert!(metrics.contains("# TYPE hbc_gateway_sessions_opened_total counter"));
    assert!(metrics.contains("hbc_gateway_sessions_opened_total 1"));

    assert!(json.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(json.contains("application/json"));
    assert!(json.contains("\"hbc_gateway_sessions_opened_total\":1"));
    assert!(json.contains("\"hbc_gateway_beat_to_outcome_micros\":{\"count\":"));

    assert!(health.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(health.contains("\"live_sessions\":"));
    assert!(health.contains("\"wal_active\":false"));
    // The /health document: 16 keys in a fixed order, `wal_active` a JSON
    // boolean, and the overload counters read from the gateway's stats.
    let body = health.split("\r\n\r\n").nth(1).expect("health body");
    let fields: Vec<(&str, &str)> = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .expect("a JSON object")
        .split(',')
        .map(|kv| {
            let (key, value) = kv.split_once(':').expect("key:value");
            (key.trim_matches('"'), value)
        })
        .collect();
    let keys: Vec<&str> = fields.iter().map(|&(key, _)| key).collect();
    assert_eq!(
        keys,
        [
            "live_sessions",
            "parked_sessions",
            "connections",
            "buffered_bytes",
            "memory_used",
            "memory_budget",
            "budget_utilization",
            "poll_high_water_micros",
            "poll_recent_high_water_micros",
            "watchdog_stalls",
            "busy_denials",
            "sheds",
            "samples_shed",
            "wal_errors",
            "wal_log_bytes",
            "wal_active",
        ]
    );
    let value = |key: &str| fields.iter().find(|&&(k, _)| k == key).expect(key).1;
    assert_eq!(value("wal_active"), "false");
    let s = &report.stats;
    for (key, counter) in [
        ("busy_denials", s.busy_denials),
        ("sheds", s.sheds),
        ("samples_shed", s.samples_shed),
        ("wal_errors", s.wal_errors),
    ] {
        assert_eq!(value(key), counter.to_string(), "{key}");
    }

    assert!(trace.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(trace.contains("session_open"));

    assert!(missing.starts_with("HTTP/1.0 404 Not Found\r\n"));

    // The scrape surface is read-only: the run's summary is the usual one.
    assert_eq!(report.stats.sessions_opened, 1);
    assert_eq!(report.stats.sessions_closed, 1);
    assert_eq!(report.stats.denials, 0);
}

/// The served exposition contract: every `(name, kind, HELP)` triple the
/// gateway publishes. The last five entries exist only with a durable log.
const EXPOSITION: [(&str, &str, &str); 56] = [
    (
        "hbc_gateway_connections_total",
        "counter",
        "Connections accepted.",
    ),
    (
        "hbc_gateway_frames_in_total",
        "counter",
        "Frames decoded from clients.",
    ),
    (
        "hbc_gateway_frames_out_total",
        "counter",
        "Frames sent to clients.",
    ),
    (
        "hbc_gateway_samples_in_total",
        "counter",
        "Samples accepted into session buffers.",
    ),
    (
        "hbc_gateway_wire_bytes_in_total",
        "counter",
        "Bytes read from client connections, framing included.",
    ),
    (
        "hbc_gateway_wire_bytes_out_total",
        "counter",
        "Bytes written to client connections, framing included.",
    ),
    (
        "hbc_gateway_samples_dropped_total",
        "counter",
        "Samples discarded without entering a session buffer.",
    ),
    (
        "hbc_gateway_beats_out_total",
        "counter",
        "Beat outcomes forwarded to clients.",
    ),
    (
        "hbc_gateway_sessions_opened_total",
        "counter",
        "Sessions opened.",
    ),
    (
        "hbc_gateway_sessions_closed_total",
        "counter",
        "Sessions closed by request.",
    ),
    (
        "hbc_gateway_sessions_evicted_total",
        "counter",
        "Sessions evicted by the idle timeout.",
    ),
    (
        "hbc_gateway_sessions_detached_total",
        "counter",
        "Sessions parked for resume when their connection died.",
    ),
    (
        "hbc_gateway_sessions_resumed_total",
        "counter",
        "Sessions re-attached via ResumeSession.",
    ),
    (
        "hbc_gateway_sessions_expired_total",
        "counter",
        "Detached sessions dropped at the end of the retention window.",
    ),
    (
        "hbc_gateway_sessions_recovered_total",
        "counter",
        "Sessions rebuilt from the durable log at bind time.",
    ),
    (
        "hbc_gateway_reports_refetched_total",
        "counter",
        "Cached final reports re-served after a lost link.",
    ),
    (
        "hbc_gateway_denials_total",
        "counter",
        "Connections denied (handshake, protocol or credit violations).",
    ),
    (
        "hbc_gateway_busy_denials_total",
        "counter",
        "Admission denials answered with Busy.",
    ),
    (
        "hbc_gateway_sheds_total",
        "counter",
        "Shed events under the global memory budget.",
    ),
    (
        "hbc_gateway_samples_shed_total",
        "counter",
        "Samples shed from buffered sessions under the memory budget.",
    ),
    (
        "hbc_gateway_handshake_reaps_total",
        "counter",
        "Connections reaped at the pre-session handshake deadline.",
    ),
    (
        "hbc_gateway_progress_reaps_total",
        "counter",
        "Connections reaped by the minimum-progress check.",
    ),
    (
        "hbc_gateway_watchdog_stalls_total",
        "counter",
        "Sweeps that exceeded the watchdog budget.",
    ),
    (
        "hbc_gateway_wal_errors_total",
        "counter",
        "Durable-log append failures (the log disables itself on the first).",
    ),
    (
        "hbc_gateway_internal_skips_total",
        "counter",
        "Internal invariant violations skipped at runtime.",
    ),
    (
        "hbc_gateway_credit_grants_total",
        "counter",
        "Credit frames sent.",
    ),
    (
        "hbc_gateway_accept_errors_total",
        "counter",
        "Failed accepts that did not stop the gateway.",
    ),
    (
        "hbc_gateway_trace_events_total",
        "counter",
        "Events ever pushed onto the trace ring.",
    ),
    (
        "hbc_gateway_trace_events_dropped_total",
        "counter",
        "Trace events lost to ring overwrites.",
    ),
    ("hbc_gateway_live_sessions", "gauge", "Live wire sessions."),
    (
        "hbc_gateway_parked_sessions",
        "gauge",
        "Sessions parked for resume.",
    ),
    (
        "hbc_gateway_open_connections",
        "gauge",
        "Open connections, including ones draining toward a close.",
    ),
    (
        "hbc_gateway_buffered_bytes",
        "gauge",
        "Bytes of buffered samples across live and parked sessions.",
    ),
    (
        "hbc_gateway_memory_used_bytes",
        "gauge",
        "Bytes charged against the global memory budget.",
    ),
    (
        "hbc_gateway_memory_budget_bytes",
        "gauge",
        "The configured global memory budget.",
    ),
    (
        "hbc_gateway_budget_utilization",
        "gauge",
        "Fraction of the global memory budget in use.",
    ),
    (
        "hbc_gateway_peak_buffered_samples",
        "gauge",
        "Largest per-session sample buffer ever observed.",
    ),
    (
        "hbc_gateway_peak_buffered_bytes",
        "gauge",
        "Largest total of buffered sample bytes ever observed.",
    ),
    (
        "hbc_gateway_poll_high_water_micros",
        "gauge",
        "Worst sweep latency ever observed, in microseconds.",
    ),
    (
        "hbc_gateway_poll_recent_high_water_micros",
        "gauge",
        "Worst sweep latency over roughly the last two poll windows.",
    ),
    (
        "hbc_gateway_wal_log_bytes",
        "gauge",
        "Bytes the durable ingest log occupies across its segments.",
    ),
    (
        "hbc_gateway_wal_active",
        "gauge",
        "Whether the durable log is still accepting appends (1/0).",
    ),
    (
        "hbc_gateway_sweep_micros",
        "histogram",
        "Latency of one reactor sweep, in microseconds.",
    ),
    (
        "hbc_gateway_frame_micros",
        "histogram",
        "Latency of handling one decoded frame, in microseconds.",
    ),
    (
        "hbc_gateway_ingest_batch_micros",
        "histogram",
        "Latency of one batched hub ingest issued by the sweep.",
    ),
    (
        "hbc_gateway_beat_to_outcome_micros",
        "histogram",
        "First-ADC-sample-to-outcome latency, in microseconds.",
    ),
    (
        "hbc_hub_ingest_micros",
        "histogram",
        "Latency of one StreamHub ingest call.",
    ),
    (
        "hbc_stage_conditioning_nanos",
        "histogram",
        "Per-chunk signal-conditioning time, in nanoseconds.",
    ),
    (
        "hbc_stage_projection_nanos",
        "histogram",
        "Per-beat window preparation plus random projection time.",
    ),
    (
        "hbc_stage_classify_nanos",
        "histogram",
        "Per-beat classifier scoring time, in nanoseconds.",
    ),
    (
        "hbc_stage_delineation_nanos",
        "histogram",
        "Per-abnormal-beat delineation time, in nanoseconds.",
    ),
    (
        "hbc_wal_appends_total",
        "counter",
        "Records appended to the durable log.",
    ),
    (
        "hbc_wal_appended_bytes_total",
        "counter",
        "Encoded bytes appended to the durable log.",
    ),
    (
        "hbc_wal_syncs_total",
        "counter",
        "Explicit fsyncs of the durable log.",
    ),
    (
        "hbc_wal_append_nanos",
        "histogram",
        "Latency of one durable-log append, in nanoseconds.",
    ),
    (
        "hbc_wal_sync_nanos",
        "histogram",
        "Latency of one durable-log fsync, in nanoseconds.",
    ),
];

/// The `(name, kind, help)` triples of a snapshot, sorted.
fn exposition_of(snap: &MetricsSnapshot) -> Vec<(String, &'static str, String)> {
    let mut out: Vec<_> = snap
        .metrics()
        .iter()
        .map(|m| {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            (m.name.clone(), kind, m.help.clone())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn exposition_names_kinds_and_help_are_pinned() {
    let fw = &system().wbsn;
    let tmp = support::TempDir::new("obs-exposition");
    for with_wal in [true, false] {
        let config = GatewayConfig {
            wal: with_wal.then(|| WalConfig::new(tmp.path())),
            ..GatewayConfig::default()
        };
        let gateway = Gateway::bind("127.0.0.1:0", fw, 360.0, config).expect("bind");
        let snap = gateway.metrics_snapshot();
        let served = exposition_of(&snap);

        let pinned = if with_wal {
            &EXPOSITION[..]
        } else {
            &EXPOSITION[..EXPOSITION.len() - 5]
        };
        let mut expected: Vec<_> = pinned
            .iter()
            .map(|&(name, kind, help)| (name.to_string(), kind, help.to_string()))
            .collect();
        expected.sort();
        assert_eq!(served, expected, "with_wal = {with_wal}");
        assert_eq!(served.len(), if with_wal { 56 } else { 51 });
        if with_wal {
            let kinds = |k: &str| served.iter().filter(|(_, kind, _)| *kind == k).count();
            assert_eq!(
                (kinds("counter"), kinds("gauge"), kinds("histogram")),
                (32, 13, 11)
            );
        }

        let mut names: Vec<&str> = snap.metrics().iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), snap.metrics().len(), "every name served once");
        for m in snap.metrics() {
            let mut chars = m.name.chars();
            let head = chars.next().expect("non-empty name");
            assert!(
                (head.is_ascii_alphabetic() || head == '_' || head == ':')
                    && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{} is not a valid metric name",
                m.name
            );
            assert!(
                !m.help.is_empty()
                    && !m.help.contains('\n')
                    && !m.help.contains('`')
                    && !m.help.contains('['),
                "{}: HELP {:?} must be one plain non-empty line",
                m.name,
                m.help
            );
        }
    }
}

#[test]
fn silent_admin_peer_is_closed_at_the_handshake_deadline() {
    let fw = &system().wbsn;
    let deadline = Duration::from_millis(300);
    let config = GatewayConfig {
        admin_addr: Some("127.0.0.1:0".parse().expect("addr")),
        handshake_timeout: deadline,
        ..GatewayConfig::default()
    };
    let ((waited, metrics), _report) = with_gateway_report(fw, 360.0, config, |_, admin| {
        let admin = admin.expect("admin listener configured");
        // Connect and say nothing: the gateway must not hold the socket
        // (and its request inbox) forever.
        let mut silent = TcpStream::connect(admin).expect("connect admin");
        silent
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let start = Instant::now();
        let mut buf = [0u8; 64];
        let n = silent
            .read(&mut buf)
            .expect("a silent admin peer must be closed, not left hanging");
        let waited = start.elapsed();
        assert_eq!(n, 0, "EOF, not a response");
        // A well-behaved scrape still gets its answer.
        (waited, scrape(admin, "/metrics"))
    });
    assert!(
        waited >= deadline / 2,
        "closed after {waited:?}, before the {deadline:?} deadline"
    );
    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"));
}

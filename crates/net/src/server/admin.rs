//! The admin surface: a second, nonblocking listener serving
//! `GET /metrics` (Prometheus text), `/metrics.json`, `/health` and
//! `/trace` over HTTP/1.0, plus the [`MetricsSnapshot`] those routes
//! render. The reactor calls [`Gateway::serve_admin`] once per sweep.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use hbc_obs::MetricsSnapshot;

use super::Gateway;

/// One in-flight exchange on the admin listener: read an HTTP request
/// until its request line is complete, write one response, flush, close.
pub(super) struct AdminConn {
    stream: TcpStream,
    /// When the connection was accepted; a request line must complete
    /// within [`super::GatewayConfig::handshake_timeout`] of it.
    accepted_at: Instant,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
    sent: usize,
    /// The response is built; only flushing remains.
    responding: bool,
    dead: bool,
}

/// Extracts the method and path from the first request line, once a whole
/// line has arrived.
fn admin_request_line(inbox: &[u8]) -> Option<(String, String)> {
    let line_end = inbox.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&inbox[..line_end]).ok()?;
    let mut parts = line.trim_end_matches('\r').split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    Some((method, path))
}

impl Gateway<'_> {
    /// Assembles a point-in-time [`MetricsSnapshot`] from every telemetry
    /// source the gateway owns: the reactor counters and gauges, the
    /// reactor latency histograms (sweep, per-frame, batched ingest and the
    /// headline first-sample-to-outcome path), the hub's ingest-batch
    /// latency, the per-stage firmware timings aggregated across every
    /// session the hub has served, and the durable-log metrics.
    ///
    /// Every field of [`super::GatewayStats`], of the latency histograms, of the
    /// stage timings and of the log metrics is exported by its declaring
    /// struct; only readings no struct field holds are listed here.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        self.stats.export(&mut snap);
        snap.push_counter(
            "hbc_gateway_trace_events_total",
            "Events ever pushed onto the trace ring.",
            self.obs.trace.recorded(),
        );
        snap.push_counter(
            "hbc_gateway_trace_events_dropped_total",
            "Trace events lost to ring overwrites.",
            self.obs.trace.dropped(),
        );
        let health = self.health();
        snap.push_gauge(
            "hbc_gateway_live_sessions",
            "Live wire sessions.",
            health.live_sessions as f64,
        );
        snap.push_gauge(
            "hbc_gateway_parked_sessions",
            "Sessions parked for resume.",
            health.parked_sessions as f64,
        );
        snap.push_gauge(
            "hbc_gateway_open_connections",
            "Open connections, including ones draining toward a close.",
            health.connections as f64,
        );
        snap.push_gauge(
            "hbc_gateway_buffered_bytes",
            "Bytes of buffered samples across live and parked sessions.",
            health.buffered_bytes as f64,
        );
        snap.push_gauge(
            "hbc_gateway_memory_used_bytes",
            "Bytes charged against the global memory budget.",
            health.memory_used as f64,
        );
        snap.push_gauge(
            "hbc_gateway_memory_budget_bytes",
            "The configured global memory budget.",
            health.memory_budget as f64,
        );
        snap.push_gauge(
            "hbc_gateway_budget_utilization",
            "Fraction of the global memory budget in use.",
            health.budget_utilization(),
        );
        snap.push_gauge(
            "hbc_gateway_wal_log_bytes",
            "Bytes the durable ingest log occupies across its segments.",
            health.wal_log_bytes as f64,
        );
        snap.push_gauge(
            "hbc_gateway_wal_active",
            "Whether the durable log is still accepting appends (1/0).",
            if health.wal_active { 1.0 } else { 0.0 },
        );
        self.obs.latency.export(&mut snap);
        snap.push_histogram(
            "hbc_hub_ingest_micros",
            "Latency of one StreamHub ingest call.",
            &self.hub.ingest_latency(),
        );
        self.hub.stage_metrics().export(&mut snap);
        if let Some(wal) = &self.wal {
            wal.metrics().export(&mut snap);
        }
        snap
    }

    /// Services the admin listener: accepts scrapers, answers
    /// `GET /metrics`, `/metrics.json`, `/health` and `/trace`, flushes and
    /// closes. One call makes all progress the sockets allow; the admin
    /// path never blocks the reactor.
    pub(super) fn serve_admin(&mut self) -> bool {
        if self.admin.is_none() {
            return false;
        }
        let mut progress = false;
        if let Some(listener) = self.admin.as_ref() {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        self.admin_conns.push(AdminConn {
                            stream,
                            accepted_at: Instant::now(),
                            inbox: Vec::new(),
                            outbox: Vec::new(),
                            sent: 0,
                            responding: false,
                            dead: false,
                        });
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        // Read requests first; building a response needs `&self` (the
        // metrics snapshot walks the hub), so the routes are resolved in a
        // second pass.
        let mut ready: Vec<(usize, String, String)> = Vec::new();
        let deadline = self.config.handshake_timeout;
        for (i, conn) in self.admin_conns.iter_mut().enumerate() {
            if conn.dead || conn.responding {
                continue;
            }
            let mut buf = [0u8; 4096];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        // EOF before a request line: nothing to answer.
                        if admin_request_line(&conn.inbox).is_none() {
                            conn.dead = true;
                        }
                        break;
                    }
                    Ok(n) => {
                        if conn.inbox.len() + n > 16 * 1024 {
                            conn.dead = true;
                            break;
                        }
                        conn.inbox.extend_from_slice(&buf[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            if let Some((method, path)) = admin_request_line(&conn.inbox) {
                ready.push((i, method, path));
            } else if !deadline.is_zero() && conn.accepted_at.elapsed() > deadline {
                // Same deadline as a pre-session wire connection: a silent
                // or trickling scraper cannot hold a socket and its inbox.
                conn.dead = true;
            }
        }
        for (i, method, path) in ready {
            let response = self.admin_response(&method, &path);
            let conn = &mut self.admin_conns[i];
            conn.outbox = response;
            conn.responding = true;
            progress = true;
        }
        for conn in &mut self.admin_conns {
            if conn.dead || !conn.responding {
                continue;
            }
            while conn.sent < conn.outbox.len() {
                match conn.stream.write(&conn.outbox[conn.sent..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.sent += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.sent == conn.outbox.len() {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                conn.dead = true;
            }
        }
        self.admin_conns.retain(|c| !c.dead);
        progress
    }

    /// Builds one HTTP/1.0 response for an admin route.
    fn admin_response(&self, method: &str, path: &str) -> Vec<u8> {
        let (status, content_type, body) = if method != "GET" {
            (
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "only GET is served here\n".to_string(),
            )
        } else {
            match path {
                "/metrics" => (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    self.metrics_snapshot().to_prometheus(),
                ),
                "/metrics.json" => (
                    "200 OK",
                    "application/json",
                    self.metrics_snapshot().to_json(),
                ),
                "/health" => ("200 OK", "application/json", self.health_json()),
                "/trace" => {
                    let mut body = String::new();
                    for rec in self.obs.trace.dump() {
                        body.push_str(&format!("tick={} {}\n", rec.tick, rec.event));
                    }
                    ("200 OK", "text/plain; charset=utf-8", body)
                }
                _ => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "routes: /metrics /metrics.json /health /trace\n".to_string(),
                ),
            }
        };
        let mut response = format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        response.extend_from_slice(body.as_bytes());
        response
    }

    /// The [`Gateway::health`] snapshot as a JSON object.
    fn health_json(&self) -> String {
        let h = self.health();
        format!(
            concat!(
                "{{\"live_sessions\":{},\"parked_sessions\":{},",
                "\"connections\":{},\"buffered_bytes\":{},",
                "\"memory_used\":{},\"memory_budget\":{},",
                "\"budget_utilization\":{},\"poll_high_water_micros\":{},",
                "\"poll_recent_high_water_micros\":{},\"watchdog_stalls\":{},",
                "\"busy_denials\":{},\"sheds\":{},\"samples_shed\":{},",
                "\"wal_errors\":{},\"wal_log_bytes\":{},\"wal_active\":{}}}"
            ),
            h.live_sessions,
            h.parked_sessions,
            h.connections,
            h.buffered_bytes,
            h.memory_used,
            h.memory_budget,
            h.budget_utilization(),
            h.poll_high_water.as_micros(),
            h.poll_recent_high_water.as_micros(),
            h.watchdog_stalls,
            h.busy_denials,
            h.sheds,
            h.samples_shed,
            h.wal_errors,
            h.wal_log_bytes,
            h.wal_active
        )
    }
}

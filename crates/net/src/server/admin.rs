//! The admin surface: a second, nonblocking listener serving
//! `GET /metrics` (Prometheus text), `/metrics.json`, `/health` and
//! `/trace` over HTTP/1.0, plus the [`MetricsSnapshot`] those routes
//! render. The reactor calls [`Gateway::serve_admin`] on every
//! housekeeping tick; the sockets are driven through `crate::transport`.

use std::net::TcpStream;
use std::time::Instant;

use hbc_obs::MetricsSnapshot;

use super::Gateway;
use crate::transport::{self, Accepted, Outbox, ReadEnd};

/// Largest request an admin peer may send; a longer one closes it.
const ADMIN_INBOX_CAP: usize = 16 * 1024;

/// One in-flight exchange on the admin listener: read an HTTP request
/// until its request line is complete, write one response, flush, close.
pub(super) struct AdminConn {
    stream: TcpStream,
    /// When the connection was accepted; a request line must complete
    /// within [`super::GatewayConfig::handshake_timeout`] of it.
    accepted_at: Instant,
    inbox: Vec<u8>,
    outbox: Outbox,
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
    /// Every field of [`super::GatewayStats`], of [`super::GatewayHealth`], of
    /// the latency histograms, of the stage timings and of the log metrics
    /// is exported by its declaring struct; only readings no struct field
    /// holds are listed here.
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
        self.health().export(&mut snap);
        self.obs.latency.export(&mut snap);
        snap.push_histogram(
            "hbc_hub_ingest_micros",
            "Latency of one StreamHub ingest call.",
            self.hub.ingest_latency(),
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
        let Some(listener) = self.admin.as_ref() else {
            return false;
        };
        let mut progress = false;
        // Accept errors are ignored: the next tick retries.
        while let Ok(Some(accepted)) = transport::accept(listener) {
            if let Accepted::Stream(stream) = accepted {
                self.admin_conns.push(AdminConn {
                    stream,
                    accepted_at: self.now,
                    inbox: Vec::new(),
                    outbox: Outbox::default(),
                    dead: false,
                });
                progress = true;
            }
        }
        // Read requests first; building a response needs `&self` (the
        // metrics snapshot walks the hub), so the routes are resolved in a
        // second pass.
        let mut ready: Vec<(usize, String, String)> = Vec::new();
        let deadline = self.config.handshake_timeout;
        let now = self.now;
        for (i, conn) in self.admin_conns.iter_mut().enumerate() {
            // A queued response means the request is answered.
            if conn.dead || conn.outbox.queued() > 0 {
                continue;
            }
            let mut buf = [0u8; 4096];
            let inbox = &mut conn.inbox;
            let mut overflow = false;
            let pass = transport::read_pass(&mut conn.stream, &mut buf, usize::MAX, |chunk| {
                overflow = inbox.len() + chunk.len() > ADMIN_INBOX_CAP;
                if !overflow {
                    inbox.extend_from_slice(chunk);
                }
                !overflow
            });
            progress |= pass.bytes > 0;
            conn.dead = overflow
                || match pass.end {
                    // EOF before a request line: nothing to answer.
                    ReadEnd::Eof => admin_request_line(&conn.inbox).is_none(),
                    ReadEnd::Failed(_) => true,
                    ReadEnd::WouldBlock | ReadEnd::Paused => false,
                };
            if conn.dead {
                continue;
            }
            if let Some((method, path)) = admin_request_line(&conn.inbox) {
                ready.push((i, method, path));
            } else if !deadline.is_zero() && now.duration_since(conn.accepted_at) > deadline {
                // Same deadline as a pre-session wire connection: a silent
                // or trickling scraper cannot hold a socket and its inbox.
                conn.dead = true;
            }
        }
        for (i, method, path) in ready {
            let response = self.admin_response(&method, &path);
            let conn = &mut self.admin_conns[i];
            conn.outbox.bytes = response;
            progress = true;
        }
        for conn in &mut self.admin_conns {
            if conn.dead || conn.outbox.queued() == 0 {
                continue;
            }
            let flushed = conn.outbox.flush(&mut conn.stream, usize::MAX);
            progress |= flushed.written > 0;
            if flushed.dead || conn.outbox.queued() == 0 {
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

    /// The [`Gateway::health`] snapshot and the overload counters of
    /// [`Gateway::stats`] as one JSON object.
    fn health_json(&self) -> String {
        let h = self.health();
        let s = &self.stats;
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
            h.open_connections,
            h.buffered_bytes,
            h.memory_used_bytes,
            h.memory_budget_bytes,
            h.budget_utilization,
            s.poll_high_water_micros,
            s.poll_recent_high_water_micros,
            s.watchdog_stalls,
            s.busy_denials,
            s.sheds,
            s.samples_shed,
            s.wal_errors,
            h.wal_log_bytes,
            h.wal_active == 1
        )
    }
}

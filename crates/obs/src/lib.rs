//! # hbc-obs — metrics and trace substrate
//!
//! Dependency-free observability primitives for the serving stack, cheap
//! enough to stay compiled in and enabled in release builds:
//!
//! * [`Counter`] — a monotonic event count;
//! * [`Gauge`] — a point-in-time level (sessions live, bytes buffered);
//! * [`Histogram`] — a log2-bucketed latency/size distribution with exact
//!   bucket-resolution quantile readout ([`Histogram::quantile`]) and a
//!   **deterministic merge**: merging per-shard histograms yields the same
//!   result for any split of the observations and any merge order, so
//!   per-session stage timings can be aggregated fleet-wide without losing
//!   reproducibility;
//! * [`TraceRing`] — a fixed-capacity ring of typed [`TraceEvent`]s with a
//!   monotonic tick, for post-mortem timelines (who detached, when the
//!   shedder fired, in what order) where counters alone lose causality;
//! * [`MetricsSnapshot`] — a named bag of the above rendered as
//!   Prometheus-style text exposition ([`MetricsSnapshot::to_prometheus`])
//!   or a JSON document ([`MetricsSnapshot::to_json`]);
//! * [`metric_struct!`] — declares a stats struct whose fields *are* its
//!   metrics: each field's name, kind and first doc line become the served
//!   name, type and HELP, so a metric is declared exactly once.
//!
//! All record paths are allocation-free in steady state (`tests/obs_alloc.rs`
//! in the workspace root gates this with a counting allocator); the
//! exposition paths allocate and are meant for scrape/shutdown time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `b >= 1`
/// holds values in `[2^(b-1), 2^b - 1]` (the final bucket saturates at
/// `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

/// A monotonic event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl From<Counter> for u64 {
    fn from(c: Counter) -> u64 {
        c.0
    }
}

/// A point-in-time level; may go up and down.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(0.0)
    }

    /// Sets the level.
    #[inline]
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&mut self, delta: f64) {
        self.0 += delta;
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> f64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A log2-bucketed histogram over `u64` observations (latencies in
/// micro/nanoseconds, sizes in bytes — the unit is the caller's naming
/// convention).
///
/// Recording is O(1), allocation-free and branch-light: the bucket index is
/// derived from the leading-zero count. Quantiles are exact at bucket
/// resolution — [`Histogram::quantile`] returns the upper bound of the
/// bucket containing the requested rank (clamped to the observed maximum),
/// so the true order statistic is always `<=` the reported value and lies
/// in the same power-of-two bucket.
///
/// [`Histogram::merge`] adds bucket counts element-wise, which is
/// commutative and associative: any partition of an observation stream into
/// per-shard histograms merges back to the exact histogram of the whole
/// stream, regardless of split points or merge order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket (the value [`Histogram::quantile`]
    /// reports when the rank falls in it).
    #[inline]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            64.. => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Inclusive lower bound of a bucket.
    #[inline]
    pub fn bucket_lower_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            b => 1u64 << (b - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Raw bucket counts (index via [`Histogram::bucket_index`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The value at quantile `q` in `[0, 1]`, exact at bucket resolution:
    /// the upper bound of the bucket holding the rank-`ceil(q·count)`
    /// observation, clamped to the observed maximum. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_upper_bound(b).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Convenience: p50 (0 when empty).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50).unwrap_or(0)
    }

    /// Convenience: p90 (0 when empty).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90).unwrap_or(0)
    }

    /// Convenience: p99 (0 when empty).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99).unwrap_or(0)
    }

    /// Merges another histogram into this one. Element-wise bucket addition
    /// is commutative and associative, so the merged result is independent
    /// of how the underlying observations were split and of merge order.
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

/// A typed event on the gateway timeline. All variants are `Copy` so
/// recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A session completed its handshake and entered calibration.
    SessionOpen {
        /// Wire-level session id.
        session: u32,
        /// Patient/record id supplied in the handshake.
        patient: u32,
    },
    /// A session drained and closed cleanly (final report sent).
    SessionClose {
        /// Wire-level session id.
        session: u32,
    },
    /// A session was evicted (idle timeout or overflow policy).
    SessionEvict {
        /// Wire-level session id.
        session: u32,
    },
    /// A session's connection died; its state was parked for resume.
    SessionDetach {
        /// Wire-level session id.
        session: u32,
    },
    /// A parked session re-attached via `ResumeSession`.
    SessionResume {
        /// Wire-level session id.
        session: u32,
    },
    /// A parked session's resume window lapsed; its state was dropped.
    SessionExpire {
        /// Wire-level session id.
        session: u32,
    },
    /// A session was rebuilt from the durable ingest log at startup.
    SessionRecover {
        /// Wire-level session id.
        session: u32,
    },
    /// The memory-budget shedder dropped buffered samples from a session.
    Shed {
        /// Wire-level session id.
        session: u32,
        /// Samples dropped in this pass.
        samples: u32,
    },
    /// Admission control answered a handshake with `Busy`.
    Busy {
        /// Hinted retry pause, in milliseconds.
        retry_after_ms: u32,
    },
    /// Admission control denied a request outright.
    Deny,
    /// A connection was reaped at the handshake deadline.
    ReapHandshake,
    /// A connection was reaped by the minimum-progress check.
    ReapStalled,
    /// A record was appended to the durable ingest log.
    WalAppend {
        /// Encoded record size in bytes.
        bytes: u32,
    },
    /// An append to the durable ingest log failed.
    WalError,
    /// The classification pipeline was hot-swapped at a beat boundary.
    HotSwap {
        /// Live sessions migrated to the new image.
        sessions: u32,
    },
    /// A reactor sweep exceeded the watchdog budget.
    WatchdogStall {
        /// Duration of the offending sweep, in microseconds.
        micros: u64,
    },
}

impl TraceEvent {
    /// Short stable name of the event kind (for filtering and JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SessionOpen { .. } => "session_open",
            TraceEvent::SessionClose { .. } => "session_close",
            TraceEvent::SessionEvict { .. } => "session_evict",
            TraceEvent::SessionDetach { .. } => "session_detach",
            TraceEvent::SessionResume { .. } => "session_resume",
            TraceEvent::SessionExpire { .. } => "session_expire",
            TraceEvent::SessionRecover { .. } => "session_recover",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Busy { .. } => "busy",
            TraceEvent::Deny => "deny",
            TraceEvent::ReapHandshake => "reap_handshake",
            TraceEvent::ReapStalled => "reap_stalled",
            TraceEvent::WalAppend { .. } => "wal_append",
            TraceEvent::WalError => "wal_error",
            TraceEvent::HotSwap { .. } => "hot_swap",
            TraceEvent::WatchdogStall { .. } => "watchdog_stall",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::SessionOpen { session, patient } => {
                write!(f, "session_open session={session} patient={patient}")
            }
            TraceEvent::SessionClose { session } => write!(f, "session_close session={session}"),
            TraceEvent::SessionEvict { session } => write!(f, "session_evict session={session}"),
            TraceEvent::SessionDetach { session } => write!(f, "session_detach session={session}"),
            TraceEvent::SessionResume { session } => write!(f, "session_resume session={session}"),
            TraceEvent::SessionExpire { session } => write!(f, "session_expire session={session}"),
            TraceEvent::SessionRecover { session } => {
                write!(f, "session_recover session={session}")
            }
            TraceEvent::Shed { session, samples } => {
                write!(f, "shed session={session} samples={samples}")
            }
            TraceEvent::Busy { retry_after_ms } => {
                write!(f, "busy retry_after_ms={retry_after_ms}")
            }
            TraceEvent::Deny => write!(f, "deny"),
            TraceEvent::ReapHandshake => write!(f, "reap_handshake"),
            TraceEvent::ReapStalled => write!(f, "reap_stalled"),
            TraceEvent::WalAppend { bytes } => write!(f, "wal_append bytes={bytes}"),
            TraceEvent::WalError => write!(f, "wal_error"),
            TraceEvent::HotSwap { sessions } => write!(f, "hot_swap sessions={sessions}"),
            TraceEvent::WatchdogStall { micros } => {
                write!(f, "watchdog_stall micros={micros}")
            }
        }
    }
}

/// A trace event stamped with its position on the ring's monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic tick: strictly increasing across all events pushed to one
    /// ring, so dumps totally order the timeline even across wraps.
    pub tick: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A fixed-capacity ring of [`TraceRecord`]s. Pushing overwrites the oldest
/// record once full and never allocates after construction.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    head: usize,
    tick: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            buf: Vec::with_capacity(capacity.max(1)),
            head: 0,
            tick: 0,
        }
    }

    /// Records an event, stamping it with the next tick. O(1),
    /// allocation-free (the buffer was preallocated at construction).
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        self.tick += 1;
        let rec = TraceRecord {
            tick: self.tick,
            event,
        };
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.buf.len();
        }
    }

    /// Maximum number of records retained.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Total events ever pushed (equals the tick of the newest record).
    pub fn recorded(&self) -> u64 {
        self.tick
    }

    /// Events lost to overwrites.
    pub fn dropped(&self) -> u64 {
        self.tick - self.buf.len() as u64
    }

    /// The retained timeline, oldest first (ticks strictly increasing).
    pub fn dump(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exposition
// ---------------------------------------------------------------------------

/// A named metric value inside a [`MetricsSnapshot`].
///
/// The histogram variant inlines the full 65-bucket state (~0.5 KiB):
/// snapshots are built once per scrape over a few dozen metrics, so the
/// size skew is irrelevant and keeping the state inline keeps
/// [`MetricsSnapshot::histogram`] a plain borrow.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Full histogram state.
    Histogram(Histogram),
}

/// One named metric with its help text.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Prometheus-style metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// One-line description emitted as `# HELP`.
    pub help: String,
    /// The reading.
    pub value: MetricValue,
}

/// A point-in-time bag of named metrics, renderable as Prometheus text
/// exposition or JSON. Built by the process under observation (e.g.
/// `Gateway::metrics_snapshot`), consumed by scrapers and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter reading.
    pub fn push_counter(&mut self, name: &str, help: &str, value: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Counter(value),
        });
    }

    /// Appends a gauge reading.
    pub fn push_gauge(&mut self, name: &str, help: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Gauge(value),
        });
    }

    /// Appends a histogram (cloned — snapshots own their data).
    pub fn push_histogram(&mut self, name: &str, help: &str, hist: &Histogram) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Histogram(hist.clone()),
        });
    }

    /// All metrics in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Convenience: counter reading by name (`None` if absent or not a
    /// counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: gauge reading by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, cumulative
    /// `_bucket{le="..."}` series plus `_sum` / `_count` for histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {} counter\n{} {}\n", m.name, m.name, v));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {} gauge\n{} {}\n", m.name, m.name, v));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {} histogram\n", m.name));
                    let last = h.buckets().iter().rposition(|&n| n > 0).unwrap_or(0);
                    let mut cum = 0u64;
                    for (b, &n) in h.buckets().iter().enumerate().take(last + 1) {
                        cum += n;
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            m.name,
                            Histogram::bucket_upper_bound(b),
                            cum
                        ));
                    }
                    out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", m.name, h.count()));
                    out.push_str(&format!("{}_sum {}\n", m.name, h.sum()));
                    out.push_str(&format!("{}_count {}\n", m.name, h.count()));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object keyed by metric name.
    /// Histograms carry count/sum/min/max, p50/p90/p99 and the non-empty
    /// buckets as `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", m.name));
            match &m.value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => {
                    if v.is_finite() {
                        out.push_str(&v.to_string());
                    } else {
                        out.push_str("null");
                    }
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                        h.p50(),
                        h.p90(),
                        h.p99()
                    ));
                    let mut first = true;
                    for (b, &n) in h.buckets().iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("[{},{}]", Histogram::bucket_upper_bound(b), n));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// Declares a struct whose fields are its metrics, plus an `export` method
/// that appends one reading per field to a [`MetricsSnapshot`].
///
/// The struct is emitted unchanged: attributes, visibility, field names,
/// types and full doc comments. Each field carries a kind tag, `counter`,
/// `gauge` or `histogram`, in front of its visibility, and must start with
/// a doc line. From that one declaration the exposition is derived:
///
/// * the name is `<prefix><field>_total` for counters and `<prefix><field>`
///   for gauges and histograms;
/// * the HELP text is the field's first doc line, trimmed (keep it one
///   plain sentence; further doc lines stay rustdoc-only);
/// * counters read through `u64::from` (`u64` or [`Counter`] fields),
///   gauges through `as f64` (any numeric primitive) and histograms by
///   reference;
/// * `export` pushes in declaration order.
///
/// ```
/// use hbc_obs::{Histogram, MetricsSnapshot};
///
/// hbc_obs::metric_struct! {
///     prefix = "demo_";
///     /// Counters of a demo service.
///     #[derive(Debug, Default)]
///     pub struct DemoStats {
///         /// Requests served.
///         ///
///         /// Only this first line becomes the HELP text.
///         counter pub requests: u64,
///         /// Largest queue ever observed.
///         gauge pub peak_queue: usize,
///         /// Latency of one request, in microseconds.
///         histogram pub latency_micros: Histogram,
///     }
/// }
///
/// let stats = DemoStats { requests: 3, ..DemoStats::default() };
/// let mut snap = MetricsSnapshot::new();
/// stats.export(&mut snap);
/// assert_eq!(snap.counter("demo_requests_total"), Some(3));
/// assert_eq!(snap.metrics()[0].help, "Requests served.");
/// assert_eq!(snap.gauge("demo_peak_queue"), Some(0.0));
/// assert!(snap.histogram("demo_latency_micros").is_some());
/// ```
#[macro_export]
macro_rules! metric_struct {
    (
        prefix = $prefix:literal;
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                #[doc = $help:literal]
                $(#[$field_attr:meta])*
                $kind:ident $field_vis:vis $field:ident : $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $(
                #[doc = $help]
                $(#[$field_attr])*
                $field_vis $field: $ty,
            )*
        }

        impl $name {
            /// Appends one reading per field to `snap`, in declaration
            /// order: counters as `<prefix><field>_total`, gauges and
            /// histograms as `<prefix><field>`, each with the field's
            /// first doc line as HELP.
            pub fn export(&self, snap: &mut $crate::MetricsSnapshot) {
                $(
                    $crate::metric_struct!(@push $kind snap, $prefix, $field, $help, self.$field);
                )*
            }
        }
    };
    (@push counter $snap:ident, $prefix:literal, $field:ident, $help:literal, $value:expr) => {
        $snap.push_counter(
            concat!($prefix, stringify!($field), "_total"),
            $help.trim(),
            u64::from($value),
        )
    };
    (@push gauge $snap:ident, $prefix:literal, $field:ident, $help:literal, $value:expr) => {
        $snap.push_gauge(
            concat!($prefix, stringify!($field)),
            $help.trim(),
            $value as f64,
        )
    };
    (@push histogram $snap:ident, $prefix:literal, $field:ident, $help:literal, $value:expr) => {
        $snap.push_histogram(concat!($prefix, stringify!($field)), $help.trim(), &$value)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let mut g = Gauge::new();
        g.set(3.0);
        g.add(-1.5);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Every value lies within its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let b = Histogram::bucket_index(v);
            assert!(Histogram::bucket_lower_bound(b) <= v);
            assert!(v <= Histogram::bucket_upper_bound(b));
        }
    }

    #[test]
    fn quantiles_on_known_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        // Rank 50 is value 50, bucket [32, 63] → reported upper bound 63.
        assert_eq!(h.quantile(0.5), Some(63));
        // Rank 99/100 are values 99/100, bucket [64, 127] → clamped to max.
        assert_eq!(h.quantile(0.99), Some(100));
        assert_eq!(h.quantile(1.0), Some(100));
        // Rank clamps to 1 at q = 0.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn merge_is_exact() {
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0u64, 1, 5, 900, 17, u64::MAX, 3, 3, 64] {
            whole.record(v);
        }
        for v in [0u64, 1, 5] {
            a.record(v);
        }
        for v in [900u64, 17, u64::MAX, 3, 3, 64] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole, "merge must be commutative");
    }

    #[test]
    fn trace_ring_wraps_and_orders() {
        let mut ring = TraceRing::new(4);
        for i in 0..10u32 {
            ring.push(TraceEvent::SessionOpen {
                session: i,
                patient: i,
            });
        }
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let dump = ring.dump();
        assert_eq!(dump.len(), 4);
        let ticks: Vec<u64> = dump.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![7, 8, 9, 10], "oldest-first, strictly ordered");
        assert_eq!(
            dump[3].event,
            TraceEvent::SessionOpen {
                session: 9,
                patient: 9
            }
        );
    }

    #[test]
    fn trace_event_kinds_and_display() {
        let e = TraceEvent::Shed {
            session: 7,
            samples: 512,
        };
        assert_eq!(e.kind(), "shed");
        assert_eq!(e.to_string(), "shed session=7 samples=512");
        assert_eq!(TraceEvent::WalError.kind(), "wal_error");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("hbc_frames_total", "Frames handled.", 3);
        snap.push_gauge("hbc_live_sessions", "Live sessions.", 2.0);
        let mut h = Histogram::new();
        h.record(5);
        h.record(900);
        snap.push_histogram("hbc_lat_micros", "Latency.", &h);
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE hbc_frames_total counter"));
        assert!(text.contains("hbc_frames_total 3"));
        assert!(text.contains("# TYPE hbc_live_sessions gauge"));
        assert!(text.contains("# TYPE hbc_lat_micros histogram"));
        // 5 lands in [4,7] (le=7); 900 in [512,1023] (le=1023); cumulative.
        assert!(text.contains("hbc_lat_micros_bucket{le=\"7\"} 1"));
        assert!(text.contains("hbc_lat_micros_bucket{le=\"1023\"} 2"));
        assert!(text.contains("hbc_lat_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hbc_lat_micros_sum 905"));
        assert!(text.contains("hbc_lat_micros_count 2"));
    }

    #[test]
    fn json_exposition_shape() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("a", "A.", 1);
        let mut h = Histogram::new();
        h.record(5);
        snap.push_histogram("h", "H.", &h);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"p50\":5"), "p50 clamps to max: {json}");
        assert!(json.contains("[7,1]"), "bucket pair: {json}");
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("c", "C.", 9);
        snap.push_gauge("g", "G.", 1.5);
        let mut h = Histogram::new();
        h.record(1);
        snap.push_histogram("h", "H.", &h);
        assert_eq!(snap.counter("c"), Some(9));
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.histogram("h").map(|h| h.count()), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.counter("g"), None, "type mismatch is None");
        assert_eq!(snap.metrics().len(), 3);
    }

    crate::metric_struct! {
        prefix = "t_";
        /// A struct exercising every field shape the macro accepts.
        #[derive(Debug, Default)]
        struct Declared {
            /// Plain counter.
            counter plain: u64,
            /// Typed counter.
            ///
            /// Only the first doc line is HELP; this paragraph is not.
            /// Nor is this line.
            counter pub typed: Counter,
            /// Size gauge.
            gauge pub(crate) size: usize,
            /// Wide gauge.
            gauge wide: u64,
            /// Latency histogram.
            histogram lat_nanos: Histogram,
        }
    }

    fn exported() -> MetricsSnapshot {
        let mut d = Declared {
            plain: 7,
            size: 3,
            wide: 1 << 40,
            ..Declared::default()
        };
        d.typed.add(11);
        d.lat_nanos.record(5);
        let mut snap = MetricsSnapshot::new();
        d.export(&mut snap);
        snap
    }

    #[test]
    fn metric_struct_derives_names_per_kind() {
        let snap = exported();
        assert_eq!(snap.counter("t_plain_total"), Some(7));
        assert_eq!(snap.counter("t_typed_total"), Some(11));
        assert_eq!(snap.gauge("t_size"), Some(3.0));
        assert_eq!(snap.gauge("t_wide"), Some((1u64 << 40) as f64));
        assert_eq!(snap.histogram("t_lat_nanos").map(Histogram::count), Some(1));
        // No stray spellings: counters only with `_total`, others without.
        assert_eq!(snap.get("t_plain"), None);
        assert_eq!(snap.get("t_size_total"), None);
        assert_eq!(snap.get("t_lat_nanos_total"), None);
    }

    #[test]
    fn metric_struct_help_is_the_first_doc_line() {
        let snap = exported();
        let help: Vec<&str> = snap.metrics().iter().map(|m| m.help.as_str()).collect();
        assert_eq!(
            help,
            [
                "Plain counter.",
                "Typed counter.",
                "Size gauge.",
                "Wide gauge.",
                "Latency histogram."
            ]
        );
    }

    #[test]
    fn metric_struct_exports_in_declaration_order() {
        let snap = exported();
        let names: Vec<&str> = snap.metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "t_plain_total",
                "t_typed_total",
                "t_size",
                "t_wide",
                "t_lat_nanos"
            ]
        );
        assert_eq!(u64::from(Counter::new()), 0);
    }
}

//! Spans for the traced run.
//!
//! A traced run replays the workload's seeded command stream and, for
//! each command, records a span around the client request, one around
//! the same command executed by an in-process mirror `Shell`, and one
//! around the library call behind it (Harmony for `match`,
//! `Journal::append` for mutations). The mirror and library spans are re-executions in this
//! process that stand in for the daemon's own work: each is recorded
//! with its real start and end, and with the span it stands inside as
//! its logical parent. A span's self time is its duration minus its
//! children's durations; where stand-in children outlast their parent,
//! the parent is taken to cover them. A layer's share is its spans'
//! self time over the summed (covered) client request time, so the
//! shares add up to one.
//!
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layers spans are attributed to (crate names without `iwb-`).
pub const LAYERS: [&str; 5] = ["router", "server", "core", "harmony", "journal"];

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`request`, `exec`, `harmony`, `journal.append`, …).
    pub name: &'static str,
    /// Layer the span's self time is charged to.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the logical parent span.
    pub parent: Option<usize>,
    /// The command this span belongs to.
    pub request_id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u64,
    /// Time spent inside the tracer's own bookkeeping.
    overhead: Duration,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            next_request: 0,
            overhead: Duration::ZERO,
        }
    }
}

impl Tracer {
    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        let t = Instant::now();
        let ns = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request_id,
        });
        self.overhead += t.elapsed();
        self.spans.len() - 1
    }

    /// Record a span of known duration that stands in for work measured
    /// elsewhere (e.g. the router hop, estimated per command).
    pub fn record_estimate(
        &mut self,
        name: &'static str,
        layer: &'static str,
        duration: Duration,
        parent: usize,
        request_id: u64,
    ) -> usize {
        let start = self.epoch + Duration::from_nanos(self.spans[parent].start_ns);
        self.record(
            name,
            layer,
            start,
            start + duration,
            Some(parent),
            request_id,
        )
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer plus the summed root (client request) time.
    ///
    /// A stand-in child can outlast the span it stands inside (the
    /// mirror re-executes a command the daemon ran a moment earlier);
    /// the parent is then taken to cover its children, so self times
    /// never go negative and always add up to the total.
    pub fn layer_self_ns(&self) -> (BTreeMap<&'static str, u64>, u64) {
        // Children are always recorded after their parent, so one
        // backwards sweep sees every child before its parent.
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut covered = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().rev() {
            covered[i] = s.dur_ns().max(child_ns[i]);
            if let Some(p) = s.parent {
                child_ns[p] += covered[i];
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        let mut wall = 0;
        for (i, s) in self.spans.iter().enumerate() {
            *by_layer.entry(s.layer).or_default() += covered[i] - child_ns[i];
            if s.parent.is_none() {
                wall += covered[i];
            }
        }
        (by_layer, wall)
    }

    /// Per-layer share metrics (`trace.layer_share.<layer>`) and
    /// `trace.overhead_frac`.
    pub fn share_metrics(&self, out: &mut BTreeMap<String, f64>) {
        let (by_layer, wall) = self.layer_self_ns();
        let wall = wall.max(1) as f64;
        for (layer, ns) in by_layer {
            out.insert(format!("trace.layer_share.{layer}"), ns as f64 / wall);
        }
        out.insert(
            "trace.overhead_frac".into(),
            self.overhead.as_nanos() as f64 / wall,
        );
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request_id
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_shares_sum_to_one() {
        let mut t = Tracer::default();
        let t0 = t.epoch;
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let id = t.request();
        let req = t.record("request", "server", ms(0), ms(10), None, id);
        let exec = t.record("exec", "core", ms(10), ms(18), Some(req), id);
        t.record("harmony", "harmony", ms(18), ms(24), Some(exec), id);
        t.record("journal.append", "journal", ms(24), ms(25), Some(req), id);
        let (by_layer, wall) = t.layer_self_ns();
        assert_eq!(wall, 10_000_000);
        assert_eq!(by_layer["server"], 1_000_000);
        assert_eq!(by_layer["core"], 2_000_000);
        assert_eq!(by_layer["harmony"], 6_000_000);
        assert_eq!(by_layer["journal"], 1_000_000);
        let mut m = BTreeMap::new();
        t.share_metrics(&mut m);
        let total: f64 = LAYERS
            .iter()
            .map(|l| m[&format!("trace.layer_share.{l}")])
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn a_child_outlasting_its_parent_extends_it() {
        let mut t = Tracer::default();
        let t0 = t.epoch;
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let req = t.record("request", "server", ms(0), ms(10), None, 1);
        t.record("exec", "core", ms(10), ms(22), Some(req), 1);
        let (by_layer, wall) = t.layer_self_ns();
        assert_eq!(wall, 12_000_000);
        assert_eq!(by_layer["server"], 0);
        assert_eq!(by_layer["core"], 12_000_000);
    }
}

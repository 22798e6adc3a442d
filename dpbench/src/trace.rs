//! The benchmark's own span buffer for the traced pass.
//!
//! Spans are recorded around every call the benchmark makes into a
//! layer, with the parent span and request id passed explicitly by the
//! caller (the session-wide span stack of `dpdpu_telemetry` mis-parents
//! concurrent requests). Queue depths are sampled only at span
//! boundaries, so tracing adds no simulated events. A disabled buffer
//! records nothing and costs one branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use dpdpu_des::now;

/// Index of a span in its buffer plus one; `0` means "no span" (a root
/// span's parent, or any span of a disabled buffer).
pub type SpanId = u32;

/// One recorded span, in virtual ns.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `cluster.kv_get`.
    pub name: &'static str,
    /// Parent span, `0` for a request's root.
    pub parent: SpanId,
    /// Request this span belongs to.
    pub req: u64,
    /// Virtual start.
    pub start: u64,
    /// Virtual end (`u64::MAX` while open).
    pub end: u64,
}

type Probe = Box<dyn Fn() -> f64>;

/// Span buffer plus the queue-depth probes sampled at its boundaries.
pub struct Spans {
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    probes: RefCell<Vec<(&'static str, Probe)>>,
    sums: RefCell<Vec<f64>>,
    samples: Cell<u64>,
}

impl Spans {
    /// A buffer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            spans: RefCell::new(Vec::new()),
            probes: RefCell::new(Vec::new()),
            sums: RefCell::new(Vec::new()),
            samples: Cell::new(0),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds a probe whose value is averaged over span boundaries.
    pub fn probe(&self, name: &'static str, f: impl Fn() -> f64 + 'static) {
        if self.enabled {
            self.probes.borrow_mut().push((name, Box::new(f)));
            self.sums.borrow_mut().push(0.0);
        }
    }

    fn sample(&self) {
        let probes = self.probes.borrow();
        let mut sums = self.sums.borrow_mut();
        for (sum, (_, f)) in sums.iter_mut().zip(probes.iter()) {
            *sum += f();
        }
        self.samples.set(self.samples.get() + 1);
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.sample();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            parent,
            req,
            start: now(),
            end: u64::MAX,
        });
        spans.len() as SpanId
    }

    /// Closes span `id` now.
    pub fn close(&self, id: SpanId) {
        if id == 0 {
            return;
        }
        self.sample();
        self.spans.borrow_mut()[id as usize - 1].end = now();
    }

    /// Mean of each probe over all span boundaries.
    pub fn probe_means(&self) -> Vec<(&'static str, f64)> {
        let n = self.samples.get().max(1) as f64;
        self.probes
            .borrow()
            .iter()
            .zip(self.sums.borrow().iter())
            .map(|((name, _), sum)| (*name, sum / n))
            .collect()
    }

    /// Durations (virtual ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.end != u64::MAX)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time of every closed span: its duration minus the part of
    /// it that its children's intervals cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter().filter(|s| s.parent != 0 && s.end != u64::MAX) {
            children[s.parent as usize - 1].push((s.start, s.end));
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(s, _)| s.end != u64::MAX)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.name, (s.end - s.start) - covered)
            })
            .collect()
    }

    /// Renders the spans as JSON lines (one span per line, ids 1-based)
    /// followed by one line per layer with its self-time summary.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start,
                s.end
            );
        }
        let mut by_layer: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (name, t) in self.self_times() {
            by_layer.entry(name).or_default().push(t);
        }
        for (name, mut ts) in by_layer {
            ts.sort_unstable();
            let total: u64 = ts.iter().sum();
            let _ = writeln!(
                out,
                "{{\"layer\":\"{name}\",\"spans\":{},\"self_ns_total\":{total},\"self_ns_p50\":{:.1},\"self_ns_p99\":{:.1}}}",
                ts.len(),
                quantile(&ts, 0.50),
                quantile(&ts, 0.99)
            );
        }
        out
    }
}

/// The mid-distribution quantile of sorted samples (Parzen): each
/// distinct value `v` sits at `share below v + half the share equal to
/// v`, and the quantile interpolates linearly between adjacent distinct
/// values. Virtual latencies tie exactly whenever requests take the same
/// uncontended path, and an order-statistic quantile then sticks to that
/// one value whatever the rest of the distribution does; this one moves
/// with the share of requests on either side. Without ties it is the
/// usual interpolated quantile.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut below = 0usize;
    for run in sorted.chunk_by(|a, b| a == b) {
        points.push(((below as f64 + run.len() as f64 / 2.0) / n, run[0] as f64));
        below += run.len();
    }
    let (Some(&first), Some(&last)) = (points.first(), points.last()) else {
        return 0.0;
    };
    if q <= first.0 {
        return first.1;
    }
    if q >= last.0 {
        return last.1;
    }
    let i = points.partition_point(|p| p.0 < q);
    let ((f0, v0), (f1, v1)) = (points[i - 1], points[i]);
    v0 + (q - f0) / (f1 - f0) * (v1 - v0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{sleep, Sim};
    use std::rc::Rc;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = Rc::new(Spans::new(true));
        let s = spans.clone();
        let mut sim = Sim::new();
        sim.spawn(async move {
            let root = s.open("root", 0, 1);
            sleep(10).await;
            let a = s.open("a", root, 1);
            sleep(20).await;
            let b = s.open("b", root, 1);
            sleep(10).await;
            s.close(a);
            sleep(10).await;
            s.close(b);
            sleep(5).await;
            s.close(root);
        });
        sim.run();
        let times: BTreeMap<_, _> = spans.self_times().into_iter().collect();
        // root [0,55], children cover [10,50] => 15 ns of self time.
        assert_eq!(times["root"], 15);
        assert_eq!(times["a"], 30);
        assert_eq!(times["b"], 20);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let spans = Spans::new(false);
        spans.probe("q", || 1.0);
        let id = spans.open("x", 0, 0);
        spans.close(id);
        assert_eq!(id, 0);
        assert!(spans.durations("x").is_empty());
        assert!(spans.probe_means().is_empty());
    }

    #[test]
    fn quantile_interpolates_across_ties() {
        // Untied data: the interpolated median.
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2.5);
        // A tie at the median: moves with the share below it.
        assert_eq!(quantile(&[1, 5, 5, 5, 9], 0.5), 5.0);
        assert!(quantile(&[1, 1, 5, 5, 5, 9], 0.5) < 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
    }
}

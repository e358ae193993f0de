//! In-memory spans around the calls the harness makes into each layer.
//!
//! The spans live in the benchmark's own files: nothing inside the
//! crates under test is instrumented. A span records its name, start,
//! end, the span that caused it and the range of request ids it covers;
//! everything stays in memory until the run ends.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// First and last request id covered (both 0 outside the serving
    /// workloads).
    pub requests: (u64, u64),
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is charged to: the part of its name before the
    /// first dot, with the client and connection halves of the service
    /// crate and its loopback pipe folded into `service`, and the
    /// runners into `core`, where they live.
    pub fn layer(&self) -> &'static str {
        match self.name.split('.').next().unwrap_or(self.name) {
            "client" | "connection" | "loopback" => "service",
            "runner" | "driver" | "session" => "core",
            other => other,
        }
    }
}

/// Records spans for one thread. `enter`/`exit` pairs nest: a span
/// entered while another is open becomes its child. A tracer that is
/// [`off`](Tracer::off) records nothing and reads no clock, so the
/// untraced run goes through the same harness code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Recording for a traced run, off otherwise.
    pub fn for_run(traced: bool) -> Self {
        if traced {
            Self::new(Instant::now())
        } else {
            Self::off()
        }
    }

    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    /// A tracer for another thread of the same run: same origin, same
    /// on/off state.
    pub fn sibling(&self) -> Self {
        Self {
            enabled: self.enabled,
            ..Self::new(self.origin)
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span covering request ids `requests.0..=requests.1`.
    pub fn enter(&mut self, name: &'static str, requests: (u64, u64)) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            requests,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, (0, 0));
        let out = f();
        self.exit(id);
        out
    }

    /// Adds a finished span measured elsewhere (another thread's stamps)
    /// as a child of `parent`, or of the innermost open span when
    /// `parent` is `None`. Returns its id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        interval_ns: (u64, u64),
        parent: Option<u32>,
        requests: (u64, u64),
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: interval_ns.0,
            end_ns: interval_ns.1,
            parent: parent.or(self.open.last().copied()),
            requests,
        });
        self.spans.len() as u32 - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Runs `f` `times` over (at least once), each run inside a span named
/// `span`, dropping each result before the next run as a fresh process
/// would; returns the last result with every run's wall seconds.
pub fn repeat_timed<T>(
    times: usize,
    tr: &mut Tracer,
    span: &'static str,
    mut f: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    let mut walls = Vec::new();
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let id = tr.enter(span, (0, 0));
        kept = Some(f(tr));
        tr.exit(id);
        walls.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one run"), walls)
}

/// Set-up, `times` over; a run reports the median of the wall seconds.
pub fn set_up_repeatedly<T>(
    times: usize,
    tr: &mut Tracer,
    set_up: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    repeat_timed(times, tr, "workload.set_up", set_up)
}

/// Each span's self time: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap
/// here (one thread, or hand-offs that alternate), so the covered part
/// is the sum of their durations, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self time summed per key, in nanoseconds.
fn self_time_by(
    spans: &[Span],
    key: impl Fn(&Span) -> &'static str,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(key(s)).or_insert(0) += t;
    }
    out
}

/// Self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    self_time_by(spans, |s| s.name)
}

/// Share of the total self time charged to each layer (sums to 1 when
/// any time was recorded).
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let by_layer = self_time_by(spans, Span::layer);
    let total: u64 = by_layer.values().sum();
    by_layer
        .into_iter()
        .map(|(k, v)| (k, v as f64 / (total.max(1)) as f64))
        .collect()
}

/// The trace file body: one object per span, parent as an index into
/// the same array (`null` for a root).
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let spans = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("start_ns".into(), Value::Number(s.start_ns as f64)),
                ("end_ns".into(), Value::Number(s.end_ns as f64)),
                (
                    "parent".into(),
                    s.parent
                        .map_or(Value::Null, |p| Value::Number(f64::from(p))),
                ),
                (
                    "requests".into(),
                    Value::Array(vec![
                        Value::Number(s.requests.0 as f64),
                        Value::Number(s.requests.1 as f64),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("spans".into(), Value::Array(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            requests: (0, 0),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("workload", 0, 1_000, None),
            span("datasets.generate", 100, 300, Some(0)),
            span("runner.run_for", 300, 900, Some(0)),
            span("eval.auc", 400, 500, Some(2)),
        ];
        // Root: 1000 - (200 + 600); run_for: 600 - 100; leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![200, 200, 500, 100]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        // Cross-thread stamps can land a few ns outside the parent.
        let spans = vec![
            span("pump.batch", 100, 200, None),
            span("loopback.c2s", 90, 150, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 60]);
    }

    #[test]
    fn shares_fold_names_into_layers_and_sum_to_one() {
        let spans = vec![
            span("workload", 0, 1_000, None),
            span("client.encode", 0, 100, Some(0)),
            span("connection.execute", 100, 600, Some(0)),
            span("runner.run_for", 600, 900, Some(0)),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(shares["service"], 0.6);
        assert_eq!(shares["core"], 0.3);
        assert_eq!(shares["workload"], 0.1);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_tracer_nests_spans_by_entry_order() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("workload", (0, 0));
        let child = t.enter("client.encode", (5, 9));
        t.exit(child);
        let batch = t.record("pump.batch_threaded", (1, 9), None, (5, 9));
        t.record("loopback.c2s", (1, 2), Some(batch), (5, 9));
        t.exit(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].requests, (5, 9));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("workload", (0, 0));
        assert_eq!(t.span("eval.auc", || 7), 7);
        t.record("loopback.c2s", (1, 2), None, (0, 0));
        t.exit(id);
        let mut sibling = t.sibling();
        sibling.span("eval.auc", || ());
        assert!(sibling.into_spans().is_empty());
        assert!(t.into_spans().is_empty());
    }
}

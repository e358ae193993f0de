//! What one workload run produces, and how it is printed and stored.

use crate::catalog::{self, MetricDef};
use crate::trace::{self, Span};
use serde::Value;
use std::collections::BTreeMap;

/// One output check of a workload.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Exact counts of what happened inside the run calls the spans cannot
/// see into (`run_for`, `run_until`, `Session::run`); multiplied by the
/// probes' per-call costs they give the `trace.est_share_*` estimates.
#[derive(Clone, Copy, Debug)]
pub struct Inside {
    /// Probe cycles whose reply went through the v2 codec and contexts.
    pub coded_cycles: u64,
    /// `sgd_step` calls (two per RTT update).
    pub sgd_steps: u64,
    /// Simulator events (deliveries and timers).
    pub events: u64,
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    /// Operations attempted and failed (a shed, refused, errored or
    /// unanswered request is a failure).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Metric values by catalog name.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form extras for the result file (per-phase counts, the
    /// self-time table of a traced run).
    pub detail: Vec<(String, Value)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Counts for the inside-the-run estimates of a traced batch run.
    pub est: Option<Inside>,
}

impl Outcome {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            values: BTreeMap::new(),
            detail: Vec::new(),
            spans: Vec::new(),
            est: None,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The metrics this run reports, in catalog order: every end-to-end
    /// metric for an untraced run, every per-layer metric for a traced
    /// one. An end-to-end metric a workload forgot is a harness bug; a
    /// per-layer metric it has no use for reads 0.
    pub fn metrics(&self) -> Vec<(MetricDef, f64)> {
        if self.traced {
            catalog::PER_LAYER
                .iter()
                .map(|d| (*d, self.values.get(d.name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            catalog::END_TO_END
                .iter()
                .map(|d| {
                    let v = self.values.get(d.name).copied();
                    (
                        *d,
                        v.unwrap_or_else(|| panic!("{} did not report {}", self.workload, d.name)),
                    )
                })
                .collect()
        }
    }

    fn metrics_json(&self) -> Value {
        Value::Object(
            self.metrics()
                .into_iter()
                .map(|(d, v)| {
                    let entry = obj(vec![
                        ("value", num(v)),
                        ("unit", Value::String(d.unit.into())),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Number(self.attempted.max(1) as f64),
            ),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), self.metrics_json()),
        ]);
        serde_json::to_string(&v).expect("a value tree serializes")
    }

    /// The full record stored in a result file, for a run asked for with
    /// `seed` and `seconds`.
    pub fn to_json(&self, seed: u64, seconds: f64) -> Value {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                obj(vec![
                    ("name", Value::String(c.name.into())),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", Value::String(c.detail.clone())),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Value::String(self.workload.into())),
            ("seed", num(seed as f64)),
            ("seconds", num(seconds)),
            ("host", crate::host::block()),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            (
                "succeeded",
                num(self.attempted.saturating_sub(self.failed) as f64),
            ),
            ("failed", num(self.failed as f64)),
            ("checks", Value::Array(checks)),
            ("metrics", self.metrics_json()),
            ("detail", Value::Object(self.detail.clone())),
        ])
    }

    /// Prints every metric by name with its unit, the operation counts
    /// and the checks.
    pub fn print(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({mode}) ==", self.workload);
        println!("   one operation = {}", catalog::operation(self.workload));
        println!(
            "   operations: attempted {}  succeeded {}  failed {}",
            self.attempted,
            self.attempted.saturating_sub(self.failed),
            self.failed
        );
        for (d, v) in self.metrics() {
            println!("   {:<40} {:>18} {}", d.name, format_value(v), d.unit);
        }
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            println!("   check {mark} {:<28} {}", c.name, c.detail);
        }
    }
}

/// Fills the `trace.*` metrics of a traced run from its spans, and the
/// inside-the-run estimates from the probes' costs; call after the
/// probes have run.
pub fn trace_shares(out: &mut Outcome) {
    let shares = trace::layer_shares(&out.spans);
    let mut named = 0.0;
    for (metric, layer) in [
        ("trace.share_datasets", "datasets"),
        ("trace.share_core", "core"),
        ("trace.share_simnet", "simnet"),
        ("trace.share_eval", "eval"),
        ("trace.share_service", "service"),
    ] {
        let share = shares.get(layer).copied().unwrap_or(0.0);
        named += share;
        out.set(metric, share);
    }
    // What is left is the harness's own: generating requests, checking
    // answers, the gaps between calls.
    out.set("trace.share_harness", (1.0 - named).max(0.0));
    out.set("trace.spans", out.spans.len() as f64);
    let value = |out: &Outcome, name: &str| out.values.get(name).copied().unwrap_or(0.0);
    if let Some(inside) = out.est {
        let wall_ns = value(out, "trace.wall_s") * 1e9;
        let share = |count: u64, per_call_ns: f64| count as f64 * per_call_ns / wall_ns.max(1.0);
        let codec = value(out, "proto.v2_encode_ns") + value(out, "proto.v2_decode_ns");
        let est = [
            ("trace.est_share_proto", share(inside.coded_cycles, codec)),
            (
                "trace.est_share_simnet",
                share(inside.events, value(out, "simnet.queue_ns_per_event")),
            ),
            (
                "trace.est_share_sgd",
                share(inside.sgd_steps, value(out, "core.sgd_step_ns")),
            ),
        ];
        for (name, v) in est {
            out.set(name, v);
        }
        // A handful of spans around long calls: what they cost is their
        // count times the cost of one.
        let traced_ns = out.spans.first().map_or(1, Span::duration_ns).max(1) as f64;
        let cost = out.spans.len() as f64 * value(out, "trace.span_ns");
        out.set("trace.overhead_pct", 100.0 * cost / traced_ns);
    } else {
        crate::serve::trace_metrics(out);
    }
    let table: Vec<(String, Value)> = trace::self_time_by_name(&out.spans)
        .into_iter()
        .map(|(k, v)| (k.to_string(), num(v as f64)))
        .collect();
    out.detail
        .push(("self_time_ns_by_span".into(), Value::Object(table)));
}

/// Plain decimal with enough digits to tell runs apart.
pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

pub fn num(v: f64) -> Value {
    Value::Number(v)
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_untraced_result_line_carries_exactly_the_contract_keys() {
        let mut o = Outcome::new("probe-wire", false);
        o.attempted = 10;
        for d in catalog::END_TO_END {
            o.set(d.name, 1.25);
        }
        o.check("auc_floor", true, "0.95 >= 0.90".into());
        let v: Value = serde_json::from_str(&o.result_line()).unwrap();
        let Value::Object(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = catalog::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn a_traced_result_line_lists_every_per_layer_metric_and_a_failed_check_shows() {
        let mut o = Outcome::new("sim-fused", true);
        o.set("simnet.delivered", 42.0);
        o.check("finite", false, "NaN at node 3".into());
        assert!(!o.correct());
        let v: Value = serde_json::from_str(&o.result_line()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        // attempted is at least 1 even when nothing ran.
        assert_eq!(v.get("attempted"), Some(&Value::Number(1.0)));
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), catalog::PER_LAYER.len());
        let delivered = v.get("metrics").unwrap().get("simnet.delivered").unwrap();
        assert_eq!(delivered.get("value"), Some(&Value::Number(42.0)));
        assert_eq!(delivered.get("unit"), Some(&Value::String("count".into())));
    }
}

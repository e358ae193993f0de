//! The names and units of everything the benchmark reports. The bounds
//! and directions live in `/BENCHMARK.json`, which a unit test holds to
//! this catalog.

/// A reported metric: its stable name and its unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Workload names, in the order `run --all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "serve-read",
    "serve-write",
    "probe-wire",
    "sim-fused",
    "train-oracle",
];

/// What one operation is on each workload, i.e. the unit counted by
/// `ops_per_s` and timed by `lat_us`, with the name the issue
/// tracker uses for the resulting rate.
pub fn operation(workload: &str) -> &'static str {
    match workload {
        "serve-read" | "serve-write" => "OK response, closed loop (serve_qps)",
        "probe-wire" => "probe cycle (probe_cycles_per_s)",
        "sim-fused" => "simulator event (sim_events_per_s)",
        "train-oracle" => "SGD tick, evaluation included (train_updates_per_s)",
        other => panic!("unknown workload {other}"),
    }
}

/// The end-to-end metrics; every workload reports every one of them.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s"),
    def("ops_per_s", "1/s"),
    def("lat_us", "us"),
    def("auc", "ratio"),
    def("rss_mb", "MB"),
];

/// The per-layer metrics of a traced run. A metric that has no meaning
/// on a workload (a wire count on a run that sends no datagram) reads 0
/// there, which is also its true count.
pub const PER_LAYER: [MetricDef; 84] = [
    // linalg
    def("linalg.dot_ns", "ns"),
    def("linalg.axpby_ns", "ns"),
    def("linalg.matmul_nt_entries_per_s", "1/s"),
    // core
    def("core.sgd_step_ns", "ns"),
    def("core.run_updates_per_s", "1/s"),
    def("core.predicted_scores_entries_per_s", "1/s"),
    def("core.apply_rtt_remote_ns", "ns"),
    def("core.apply_batch_ns_b1", "ns"),
    def("core.apply_batch_ns_b16", "ns"),
    def("core.apply_batch_ns_b64", "ns"),
    def("core.epoch_publish_ns", "ns"),
    def("core.epoch_read_ns", "ns"),
    def("core.epoch_predict_ns", "ns"),
    def("core.epoch_rank_ns", "ns"),
    def("core.epoch_read_contended_ns", "ns"),
    def("core.runner_fused_cycles_per_s", "1/s"),
    def("core.runner_permsg_cycles_per_s", "1/s"),
    def("core.runner_wire_v1_cycles_per_s", "1/s"),
    // simnet
    def("simnet.queue_ns_per_event", "ns"),
    def("simnet.roundtrip_ns", "ns"),
    def("simnet.sharded_roundtrip_ns", "ns"),
    def("simnet.send_ns", "ns"),
    def("simnet.build_s_100k", "s"),
    def("simnet.delivered", "count"),
    def("simnet.timers", "count"),
    def("simnet.dropped", "count"),
    // proto
    def("proto.v2_encode_ns", "ns"),
    def("proto.v2_decode_ns", "ns"),
    def("proto.v1_encode_ns", "ns"),
    def("proto.v1_decode_ns", "ns"),
    def("proto.bytes_per_cycle", "B"),
    def("proto.msgs_per_cycle", "ratio"),
    def("proto.keyframe_share", "ratio"),
    def("proto.gaps_detected", "count"),
    // service
    def("service.predict_ns", "ns"),
    def("service.rank_ns", "ns"),
    def("service.update_ns", "ns"),
    def("service.update_contended_ns", "ns"),
    def("service.req_codec_ns", "ns"),
    def("service.resp_codec_predict_ns", "ns"),
    def("service.resp_codec_rank_ns", "ns"),
    def("service.loopback_handoff_us", "us"),
    def("service.client_poll_ns_b64", "ns"),
    def("service.client_poll_ns_b4096", "ns"),
    def("service.build_ms", "ms"),
    def("service.mean_batch", "ratio"),
    def("service.worker_batch_share", "ratio"),
    def("service.max_queue_depth", "count"),
    def("service.overload_rejections", "count"),
    // ops
    def("ops.record_request_ns", "ns"),
    def("ops.instrumented_qps_ratio", "ratio"),
    // eval
    def("eval.collect_scores_pairs_per_s", "1/s"),
    def("eval.auc_pairs_per_s", "1/s"),
    // datasets
    def("datasets.meridian_like_s_n1000", "s"),
    def("datasets.classify_s_n1000", "s"),
    // the benchmark's own load generator
    def("loadgen.lat_p90_us", "us"),
    def("loadgen.lat_p99_us", "us"),
    def("loadgen.lat_p999_us", "us"),
    def("loadgen.lat_samples", "count"),
    def("loadgen.late_p99_us", "us"),
    def("loadgen.achieved_rps", "1/s"),
    def("loadgen.shed", "count"),
    // the traced pass of this workload
    def("trace.spans", "count"),
    def("trace.span_ns", "ns"),
    def("trace.overhead_pct", "%"),
    def("trace.share_harness", "ratio"),
    def("trace.share_datasets", "ratio"),
    def("trace.share_core", "ratio"),
    def("trace.share_simnet", "ratio"),
    def("trace.share_eval", "ratio"),
    def("trace.share_service", "ratio"),
    def("trace.share_write_path", "ratio"),
    def("trace.client_encode_ns", "ns"),
    def("trace.connection_ingest_ns", "ns"),
    def("trace.connection_execute_read_ns", "ns"),
    def("trace.connection_execute_update_ns", "ns"),
    def("trace.client_decode_ns", "ns"),
    def("trace.loopback_c2s_us", "us"),
    def("trace.loopback_s2c_us", "us"),
    def("trace.est_share_proto", "ratio"),
    def("trace.est_share_simnet", "ratio"),
    def("trace.est_share_sgd", "ratio"),
    def("trace.ops", "count"),
    def("trace.wall_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::String(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let b = benchmark_json();
        let names: Vec<&str> = entries(&b, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = entries(&b, key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();
            let ours: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, ours, "{key}");
        }
        let setup = &entries(&b, "end_to_end")[0];
        assert_eq!(text(setup, "name"), "setup_s");
        assert_eq!(text(setup, "better"), "lower");
        for m in entries(&b, "end_to_end") {
            match m.get("bound") {
                Some(Value::Number(x)) => assert!(*x > 0.0 && *x <= 0.25),
                other => panic!("bound of {}: {other:?}", text(m, "name")),
            }
        }
    }
}

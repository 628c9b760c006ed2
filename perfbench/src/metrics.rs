//! The metric catalog: every metric the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` declares exactly these (a test checks).

/// One metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: [Spec; 3] = [
    spec("samples_per_s", "samples/s", "higher"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mib", "MiB", "lower"),
];

/// Printed by traced runs (`--trace 1`), grouped by layer.
pub const PER_LAYER: [Spec; 33] = [
    // pipeline run loop
    spec("pipeline.outside_stages_pct", "%", "lower"),
    spec("pipeline.overlap_ratio", "ratio", "higher"),
    // stages::Plan + scratchpad / hitmap / index
    spec("plan.us_per_iter", "us", "lower"),
    spec("plan.ns_per_unique", "ns", "lower"),
    spec("scratchpad.plan_ns_per_unique", "ns", "lower"),
    spec("plan.hazard_us_per_iter", "us", "lower"),
    spec("scratchpad.hit_ratio", "ratio", "higher"),
    spec("scratchpad.fills_per_iter", "count", "lower"),
    spec("scratchpad.evictions_per_iter", "count", "lower"),
    spec("scratchpad.peak_held_slots", "count", "lower"),
    spec("plan.unique_lookup_ratio", "ratio", "lower"),
    // stages::Collect / Exchange / Insert
    spec("collect.us_per_iter", "us", "lower"),
    spec("collect.gbps", "GB/s", "higher"),
    spec("collect.roofline_pct", "%", "higher"),
    spec("exchange.us_per_iter", "us", "lower"),
    spec("exchange.bytes_per_iter", "bytes", "lower"),
    spec("insert.us_per_iter", "us", "lower"),
    spec("insert.gbps", "GB/s", "higher"),
    // stages::Train + embeddings::ops
    spec("train.us_per_iter", "us", "lower"),
    spec("train.embed_us_per_iter", "us", "lower"),
    spec("train.embed_gbps", "GB/s", "higher"),
    // backend -> dlrm
    spec("dense.step_us", "us", "lower"),
    // workers
    spec("workers.region_us", "us", "lower"),
    spec("workers.busy_ratio", "ratio", "higher"),
    spec("workers.shard_skew", "ratio", "lower"),
    // audit / telemetry
    spec("audit.emit_us_per_iter", "us", "lower"),
    spec("trace.overhead_pct", "%", "lower"),
    // host roofline probe
    spec("host.gather_gbps", "GB/s", "higher"),
    // memsim residuals: measured / predicted stage time
    spec("plan.model_ratio", "ratio", "lower"),
    spec("collect.model_ratio", "ratio", "lower"),
    spec("exchange.model_ratio", "ratio", "lower"),
    spec("insert.model_ratio", "ratio", "lower"),
    spec("train.model_ratio", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(e) => &e.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not a map"),
        }
    }

    fn declared(doc: &Value, key: &str) -> Vec<Spec> {
        let Value::Seq(items) = field(doc, key) else {
            panic!("{key} is not a list")
        };
        let s = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            _ => panic!("not a string"),
        };
        items
            .iter()
            .map(|m| {
                let leak = |x: String| &*Box::leak(x.into_boxed_str());
                Spec {
                    name: leak(s(field(m, "name"))),
                    unit: leak(s(field(m, "unit"))),
                    better: leak(s(field(m, "better"))),
                }
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), END_TO_END);
        assert_eq!(declared(&doc, "per_layer"), PER_LAYER);
        let Value::Seq(workloads) = field(&doc, "workloads") else {
            panic!()
        };
        for w in workloads {
            let Value::Str(name) = field(w, "name") else {
                panic!("workload name is not a string")
            };
            assert!(crate::workload::Workload::by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}

//! Telemetry determinism and reconciliation — the observability layer's
//! two contracts, tested in-process.
//!
//! **Determinism:** [`Telemetry::deterministic_digest`] renders the
//! structural span tree (which spans exist, on which lanes) and every
//! non-wall-clock metric value. Re-running the same seeded trace at the
//! same pool width must reproduce it byte-for-byte — at widths 1, 2
//! and 4, under every schedule. This is what "identical METRICS.json
//! modulo wall-clock durations" means operationally: the digest *is*
//! the wall-clock-stripped view of METRICS.json plus the span tree.
//!
//! **Reconciliation:** the pipeline records one integer per stage
//! execution and hands it to both the audit stream (`stage_nanos`) and
//! the `sp_stage_latency_ns` histogram, so the histogram's `sum` equals
//! the summed audit nanos **exactly** — the same check
//! `audit_check --metrics` runs over artifacts, here without any file
//! round-trip.

use proptest::prelude::*;
use scratchpipe::{MemorySink, Pipeline, PipelineConfig, Schedule, Telemetry, UnitBackend};
use serde::Value;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const NUM_TABLES: usize = 2;
const ROWS: u64 = 300;
const DIM: usize = 8;
const SLOTS: usize = 120;
const ITERS: usize = 12;

fn batches(seed: u64) -> Vec<embeddings::SparseBatch> {
    let tc = TraceConfig {
        num_tables: NUM_TABLES,
        rows_per_table: ROWS,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed,
    };
    TraceGenerator::new(tc).take_batches(ITERS)
}

/// One audited, metered run; returns the collector and the audit lines.
fn run_once(seed: u64, schedule: Schedule, width: usize, label: &str) -> (Telemetry, Vec<String>) {
    let tables: Vec<embeddings::EmbeddingTable> = (0..NUM_TABLES)
        .map(|t| embeddings::EmbeddingTable::seeded(ROWS as usize, DIM, 40 + t as u64))
        .collect();
    let telemetry = Telemetry::new();
    let sink = MemorySink::new();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, SLOTS))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(schedule)
        .parallelism(width)
        .telemetry(telemetry.clone())
        .audit(sink.clone())
        .named(label)
        .build()
        .expect("pipeline");
    rt.run(&batches(seed)).expect("run");
    (telemetry, sink.lines())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same width, same schedule -> byte-identical digest:
    /// the span tree and every non-wall-clock metric reproduce exactly,
    /// whatever the machine was doing between the two runs.
    #[test]
    fn digest_is_seed_deterministic_at_every_width(seed in 0u64..1_000) {
        for schedule in [
            Schedule::Sync,
            Schedule::Threaded,
            Schedule::DataParallel,
            Schedule::Sequential,
        ] {
            for width in [1usize, 2, 4] {
                let label = format!("det-{}-w{width}", schedule.name());
                let (a, _) = run_once(seed, schedule, width, &label);
                let (b, _) = run_once(seed, schedule, width, &label);
                prop_assert_eq!(
                    a.deterministic_digest(),
                    b.deterministic_digest(),
                    "schedule {:?} width {} digest diverged",
                    schedule,
                    width
                );
            }
        }
    }
}

fn uint(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(n)) => *n,
        other => panic!("field {key}: expected UInt, got {other:?}"),
    }
}

fn label<'v>(metric: &'v Value, key: &str) -> Option<&'v str> {
    let Some(Value::Map(labels)) = metric.get("labels") else {
        panic!("metric lacks labels map");
    };
    labels
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

#[test]
fn stage_histograms_reconcile_exactly_with_the_audit_stream() {
    for (schedule, width) in [
        (Schedule::Sync, 1),
        (Schedule::Threaded, 1),
        (Schedule::DataParallel, 2),
    ] {
        let name = format!("reconcile-{}", schedule.name());
        let (telemetry, lines) = run_once(7, schedule, width, &name);

        // Audit side: per-stage sums and counts over iteration events.
        let mut audit_ns: std::collections::BTreeMap<String, u64> = Default::default();
        let mut iterations = 0u64;
        for line in &lines {
            let event: Value = serde_json::from_str(line).expect("audit line parses");
            if !matches!(event.get("event"), Some(Value::Str(k)) if k == "iteration") {
                continue;
            }
            iterations += 1;
            let Some(Value::Map(nanos)) = event.get("stage_nanos") else {
                panic!("iteration lacks stage_nanos");
            };
            for (stage, v) in nanos {
                let Value::UInt(ns) = v else {
                    panic!("stage_nanos.{stage} not UInt");
                };
                *audit_ns.entry(stage.clone()).or_default() += ns;
            }
        }
        assert_eq!(iterations, ITERS as u64);

        // Telemetry side: the sp_stage_latency_ns histograms.
        let doc: Value =
            serde_json::from_str(&telemetry.metrics_json()).expect("METRICS.json parses");
        let Some(Value::Seq(metrics)) = doc.get("metrics") else {
            panic!("metrics: expected a sequence");
        };
        let mut stages_checked = 0;
        for m in metrics {
            match m.get("name") {
                Some(Value::Str(n)) if n == "sp_stage_latency_ns" => {}
                _ => continue,
            }
            assert_eq!(label(m, "run"), Some(name.as_str()));
            let stage = label(m, "stage").expect("stage label").to_owned();
            // The heart of the contract: both sides summed the *same*
            // integers, so equality is exact - no tolerance.
            assert_eq!(
                uint(m, "sum"),
                audit_ns[&stage],
                "{schedule:?}: stage {stage} histogram sum != summed stage_nanos"
            );
            assert_eq!(
                uint(m, "count"),
                iterations,
                "{schedule:?}: stage {stage} count"
            );
            stages_checked += 1;
        }
        assert_eq!(stages_checked, 5, "{schedule:?}: all five stages metered");
    }
}

#[test]
fn attaching_telemetry_does_not_perturb_results_or_audit() {
    // Telemetry must be a pure observer, like audit: same report, same
    // audit stream (minus nothing - the stream has no telemetry fields),
    // with and without a collector attached.
    let run = |telemetry: Option<Telemetry>| {
        let tables: Vec<embeddings::EmbeddingTable> = (0..NUM_TABLES)
            .map(|t| embeddings::EmbeddingTable::seeded(ROWS as usize, DIM, 40 + t as u64))
            .collect();
        let sink = MemorySink::new();
        let mut b = Pipeline::builder()
            .config(PipelineConfig::functional(DIM, SLOTS))
            .tables(tables)
            .backend(UnitBackend::new(0.05))
            .schedule(Schedule::DataParallel)
            .parallelism(2)
            .audit(sink.clone())
            .named("observer-purity");
        if let Some(t) = telemetry {
            b = b.telemetry(t);
        }
        let mut rt = b.build().expect("pipeline");
        let report = rt.run(&batches(3)).expect("run");
        let body = serde_json::to_string(&report).expect("serialize");
        (body, sink.lines(), rt.into_tables())
    };
    let (metered_report, metered_lines, metered_tables) = run(Some(Telemetry::new()));
    let (plain_report, plain_lines, plain_tables) = run(None);
    assert_eq!(
        metered_report, plain_report,
        "telemetry must be a pure observer"
    );
    // Audit lines differ only in the random run_id and wall-clock nanos;
    // compare their deterministic shape: event kinds in order.
    let kinds = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .map(|l| {
                let v: Value = serde_json::from_str(l).expect("parse");
                match v.get("event") {
                    Some(Value::Str(k)) => k.clone(),
                    other => panic!("event: {other:?}"),
                }
            })
            .collect()
    };
    assert_eq!(kinds(&metered_lines), kinds(&plain_lines));
    for (a, b) in metered_tables.iter().zip(&plain_tables) {
        assert!(a.bit_eq(b), "trained tables diverged under telemetry");
    }
}

//! The traced run: benchmark-side wrappers around `DenseBackend` and
//! `AuditSink`, the audit-stream parser, and the per-layer numbers one
//! traced `Pipeline::run` yields.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use embeddings::SparseBatch;
use memsim::{CostModel, Traffic};
use scratchpipe::{AuditSink, DenseBackend, MemorySink, PipelineReport, PooledView, StepResult};
use serde::Value;

use crate::stats::{median, ratio};

/// Stage names in pipeline order, as the audit stream keys them.
pub const STAGES: [&str; 5] = scratchpipe::StageTraffic::STAGE_NAMES;

/// A `DenseBackend` that records the wall time of every `step` call.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    step_nanos: Vec<u64>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            step_nanos: Vec::new(),
        }
    }

    /// Nanoseconds of each `step` call, in call order (one per iteration).
    pub fn step_nanos(&self) -> &[u64] {
        &self.step_nanos
    }
}

impl<B: DenseBackend> DenseBackend for TimedBackend<B> {
    fn step(
        &mut self,
        iteration: usize,
        batch: &SparseBatch,
        pooled: PooledView<'_>,
        grads: &mut [f32],
    ) -> StepResult {
        let t0 = Instant::now();
        let out = self.inner.step(iteration, batch, pooled, grads);
        self.step_nanos.push(t0.elapsed().as_nanos() as u64);
        out
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn traffic(&self, batch_size: usize) -> Traffic {
        self.inner.traffic(batch_size)
    }
}

/// An in-memory `AuditSink` that records the time spent writing lines.
#[derive(Debug, Clone, Default)]
pub struct TimedSink {
    lines: MemorySink,
    nanos: Arc<AtomicU64>,
}

impl TimedSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every line written so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lines()
    }

    /// Nanoseconds spent in `write_line` and `flush`.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

impl AuditSink for TimedSink {
    fn write_line(&mut self, line: &str) {
        let t0 = Instant::now();
        self.lines.write_line(line);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn flush(&mut self) {
        let t0 = Instant::now();
        self.lines.flush();
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Stage timings of one audited iteration.
#[derive(Debug, Clone, Default)]
pub struct IterationTiming {
    /// `stage_nanos`, in [`STAGES`] order.
    pub stage_nanos: [u64; 5],
    /// `stage_shards` per stage (empty where the stage ran no shards).
    pub shards: [Vec<u64>; 5],
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn uint(value: Option<&Value>) -> Option<u64> {
    match value {
        Some(Value::UInt(n)) => Some(*n),
        _ => None,
    }
}

/// Extracts the `iteration` events of an audit stream, in order.
///
/// # Errors
///
/// A line that is not JSON, or an iteration event without a
/// `stage_nanos` entry for every stage.
pub fn parse_audit(lines: &[String]) -> Result<Vec<IterationTiming>, String> {
    let mut out = Vec::new();
    for line in lines {
        let event = serde_json::parse(line).map_err(|e| format!("audit line: {e:?}"))?;
        if !matches!(field(&event, "event"), Some(Value::Str(s)) if s == "iteration") {
            continue;
        }
        let nanos = field(&event, "stage_nanos");
        let shards = field(&event, "stage_shards");
        let mut timing = IterationTiming::default();
        for (s, name) in STAGES.iter().enumerate() {
            timing.stage_nanos[s] = uint(nanos.and_then(|m| field(m, name)))
                .ok_or_else(|| format!("iteration event without stage_nanos.{name}"))?;
            if let Some(Value::Seq(items)) = shards.and_then(|m| field(m, name)) {
                timing.shards[s] = items.iter().filter_map(|v| uint(Some(v))).collect();
            }
        }
        out.push(timing);
    }
    Ok(out)
}

/// Everything one traced `Pipeline::run` measured.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Wall time of `Pipeline::run`, timed from outside.
    pub wall_ns: u64,
    /// The run's report.
    pub report: PipelineReport,
    /// Audited stage timings, one per iteration.
    pub iterations: Vec<IterationTiming>,
    /// `DenseBackend::step` time of each iteration.
    pub dense_nanos: Vec<u64>,
    /// Time spent inside the audit sink.
    pub sink_nanos: u64,
    /// The backend's declared per-iteration traffic.
    pub dense_traffic: Traffic,
}

impl TracedRun {
    /// Σ audited nanoseconds of the stages at `idx` (indices into
    /// [`STAGES`]).
    pub fn stage_total(&self, idx: &[usize]) -> u64 {
        self.iterations
            .iter()
            .map(|it| idx.iter().map(|&s| it.stage_nanos[s]).sum::<u64>())
            .sum()
    }

    /// The per-layer numbers of this run, keyed by metric name. `model`
    /// predicts each stage's time from its audited traffic. Under
    /// `Schedule::Sync` the stages' shards run one at a time, so
    /// `workers.busy_ratio` is taken over a width of 1.
    pub fn layer_metrics(&self, model: &CostModel) -> BTreeMap<&'static str, f64> {
        let rep = &self.report;
        let n = rep.iterations as f64;
        let stage: Vec<f64> = (0..5).map(|s| self.stage_total(&[s]) as f64).collect();
        let stages_ns: f64 = stage.iter().sum();
        let wall = self.wall_ns as f64;
        let traffic = rep.total_traffic();
        let sum = |f: fn(&scratchpipe::IterationRecord) -> u64| -> f64 {
            rep.records.iter().map(f).sum::<u64>() as f64
        };
        let (unique, lookups) = (sum(|r| r.unique_rows), sum(|r| r.total_lookups));
        let (misses, evictions) = (sum(|r| r.misses), sum(|r| r.evictions));

        let dense_ns = self.dense_nanos.iter().sum::<u64>() as f64;
        let embed_ns = (stage[4] - dense_ns).max(0.0);
        let embed_bytes = traffic
            .train
            .gpu_bytes()
            .saturating_sub(rep.iterations as u64 * self.dense_traffic.gpu_bytes())
            as f64;
        let collect_bytes =
            (traffic.collect.cpu_random_read_bytes + traffic.collect.gpu_random_read_bytes) as f64;
        let insert_bytes =
            (traffic.insert.cpu_random_write_bytes + traffic.insert.gpu_random_write_bytes) as f64;

        let mut busy = 0.0;
        let mut sharded_ns = 0.0;
        let mut skews = Vec::new();
        for it in &self.iterations {
            for (s, shards) in it.shards.iter().enumerate() {
                if shards.is_empty() {
                    continue;
                }
                busy += shards.iter().sum::<u64>() as f64;
                sharded_ns += it.stage_nanos[s] as f64;
                if shards.len() >= 2 {
                    let max = *shards.iter().max().expect("non-empty") as f64;
                    let mean = shards.iter().sum::<u64>() as f64 / shards.len() as f64;
                    skews.push(ratio(max, mean));
                }
            }
        }

        let us = |ns: f64| ns / n / 1e3;
        let mut m = BTreeMap::new();
        m.insert(
            "pipeline.outside_stages_pct",
            ratio(wall - stages_ns, wall) * 100.0,
        );
        m.insert("pipeline.overlap_ratio", ratio(stages_ns, wall));
        m.insert("plan.us_per_iter", us(stage[0]));
        m.insert("plan.ns_per_unique", ratio(stage[0], unique));
        m.insert("plan.unique_lookup_ratio", ratio(unique, lookups));
        m.insert("scratchpad.hit_ratio", rep.hit_rate());
        m.insert("scratchpad.fills_per_iter", misses / n);
        m.insert("scratchpad.evictions_per_iter", evictions / n);
        let peak_held = rep.peak_held_slots.iter().copied().max().unwrap_or(0);
        m.insert("scratchpad.peak_held_slots", peak_held as f64);
        m.insert("collect.us_per_iter", us(stage[1]));
        m.insert("collect.gbps", ratio(collect_bytes, stage[1]));
        m.insert("exchange.us_per_iter", us(stage[2]));
        m.insert(
            "exchange.bytes_per_iter",
            traffic.exchange.pcie_bytes() as f64 / n,
        );
        m.insert("insert.us_per_iter", us(stage[3]));
        m.insert("insert.gbps", ratio(insert_bytes, stage[3]));
        m.insert("train.us_per_iter", us(stage[4]));
        m.insert("train.embed_us_per_iter", us(embed_ns));
        m.insert("train.embed_gbps", ratio(embed_bytes, embed_ns));
        let dense: Vec<f64> = self.dense_nanos.iter().map(|&ns| ns as f64).collect();
        m.insert("dense.step_us", median(&dense) / 1e3);
        m.insert("workers.busy_ratio", ratio(busy, sharded_ns));
        m.insert(
            "workers.shard_skew",
            if skews.is_empty() {
                1.0
            } else {
                median(&skews)
            },
        );
        m.insert("audit.emit_us_per_iter", us(self.sink_nanos as f64));
        for (s, name) in MODEL_RATIOS.iter().enumerate() {
            let predicted_ns: f64 = rep
                .records
                .iter()
                .map(|r| model.traffic_time(&r.traffic.stages()[s]).as_secs() * 1e9)
                .sum();
            m.insert(name, ratio(stage[s], predicted_ns));
        }
        m
    }
}

/// Per-stage measured / memsim-predicted time, in [`STAGES`] order.
pub const MODEL_RATIOS: [&str; 5] = [
    "plan.model_ratio",
    "collect.model_ratio",
    "exchange.model_ratio",
    "insert.model_ratio",
    "train.model_ratio",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_iteration_events_only() {
        let lines = vec![
            r#"{"event":"run_started","seq":0}"#.to_owned(),
            r#"{"event":"iteration","stage_nanos":{"Plan":5,"Collect":4,"Exchange":3,"Insert":2,"Train":1},"stage_shards":{"Train":[1,2]}}"#.to_owned(),
            r#"{"event":"run_completed","seq":2}"#.to_owned(),
        ];
        let its = parse_audit(&lines).unwrap();
        assert_eq!(its.len(), 1);
        assert_eq!(its[0].stage_nanos, [5, 4, 3, 2, 1]);
        assert_eq!(its[0].shards[4], vec![1, 2]);
        assert!(its[0].shards[0].is_empty());
    }

    #[test]
    fn rejects_missing_stage() {
        let lines = vec![r#"{"event":"iteration","stage_nanos":{"Plan":5}}"#.to_owned()];
        assert!(parse_audit(&lines).is_err());
    }
}

//! Audit-JSONL sanity checker — the CI gate on the audit contract.
//!
//! Reads one or more audit JSONL files (as written by
//! `bench_pipeline_throughput --audit` or any [`FileSink`] run) and
//! verifies, without any external tooling:
//!
//! * every line parses as a JSON object carrying the documented envelope
//!   (`event`, `run_id`, `run`, `seq`);
//! * `seq` numbers each run's lines consecutively from 0;
//! * each run is well-formed: `run_started` first, `run_completed` last,
//!   and the number of `iteration` events equals the `iterations` field
//!   claimed by *both* bracketing events;
//! * each `iteration` event deserializes as an
//!   [`IterationRecord`](scratchpipe::IterationRecord) and carries a
//!   five-stage `stage_nanos` map;
//! * when an `iteration` event carries a `stage_shards` map (the
//!   data-parallel shard-timing breakdown), every key names a stage from
//!   `stage_nanos` and every value is a non-empty sequence of unsigned
//!   shard nanos;
//! * the hit rate recomputed from the iteration events matches the
//!   `run_completed.hit_rate` within 1e-9;
//! * the recovery events (`fault_injected`, `iteration_rolled_back`,
//!   `stage_retried`, `schedule_degraded`, `run_aborted`) carry their
//!   documented fields, and an aborted run's `iteration` events equal its
//!   `run_aborted.committed` count.
//!
//! With `--faults` the file must additionally tell a *consistent
//! recovery story*: at least one `fault_injected` event exists, and for
//! every run each rollback is answered by exactly one retry, degradation
//! or abort (`rollbacks == retries + degradations + aborted`). CI runs
//! this over the chaos suite's artifact.
//!
//! With `--bench BENCH_pipeline.json` it additionally cross-checks the
//! benchmark artifact: each shape's `speedup_threaded_vs_sync` and
//! `speedup_parallel_vs_sync` must equal the ratio of the raw
//! `*_iters_per_sec` fields (relative tolerance 1e-6), and `parallelism`
//! must be at least 1. `--parallel-floor <shape>:<ratio>` then gates a
//! shape: the check fails if that shape's `speedup_parallel_vs_sync`
//! falls below the ratio (CI uses `medium:0.9` — data-parallel must not
//! regress materially below sync even on narrow hosts). A floor on a
//! shape whose `parallelism` is 1 fails too: it would compare two
//! width-1 runs and prove nothing about data parallelism.
//!
//! When the audit JSONL of the same bench run is also on the command
//! line, the dedup-accounting fields are **re-derived** from that
//! shape's `bench-<shape>-sync` audit aggregate and the check fails if
//! the artifact disagrees:
//!
//! * `unique_lookup_ratio` must equal Σ`unique_rows` / Σ`total_lookups`
//!   over the sync run's iteration events (relative tolerance 1e-6);
//! * `bytes_staged` must equal the summed Exchange-stage PCIe bytes and
//!   `bytes_staged_dedup` must equal that plus the summed Plan-stage
//!   H2D bytes — **exactly**, both sides summed the same integers;
//! * the Plan-stage H2D bytes themselves must obey the dedup upload
//!   contract, 4 bytes per unique slot + 4 per raw-lookup index:
//!   `plan_h2d == 4 * (unique_rows + total_lookups)`.
//!
//! With `--metrics METRICS.json` it reconciles the telemetry registry
//! (written by [`Telemetry::write_metrics_json`]) against the audit
//! stream, joined on the run label. The pipeline records **one integer**
//! per stage execution and reports it to both the audit `stage_nanos`
//! map and the `sp_stage_latency_ns` histogram, so for every
//! `(run, stage)`:
//!
//! * `sp_stage_latency_ns.sum` equals the summed `stage_nanos` and
//!   `.count` equals the iteration-event count — **exactly**, no
//!   tolerance; a supervised run with `iteration_rolled_back` events
//!   also recorded the failed attempts, so there equality relaxes to
//!   `>=`;
//! * `sp_run_iterations_total` equals the committed iteration events;
//! * the `sp_recovery_*_total` counters equal the corresponding audit
//!   event counts (`fault_injected`, `iteration_rolled_back`,
//!   `stage_retried`, `schedule_degraded`, `run_aborted`);
//! * `sp_scratchpad_{hits,misses}_total` summed over tables equal the
//!   summed iteration-event hits/misses (rollback-free runs only —
//!   replayed iterations re-plan).
//!
//! ```bash
//! cargo run --release -p sp-bench --bin audit_check -- BENCH_pipeline_audit.jsonl
//! cargo run --release -p sp-bench --bin audit_check -- \
//!     --bench BENCH_pipeline.json --parallel-floor medium:0.9 \
//!     --metrics METRICS.json \
//!     BENCH_pipeline_audit.jsonl BENCH_pipeline_audit_parallel.jsonl
//! ```
//!
//! Exits non-zero on the first violated file, printing every violation.
//!
//! [`Telemetry::write_metrics_json`]: scratchpipe::Telemetry::write_metrics_json

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

use scratchpipe::IterationRecord;
use serde::{Deserialize as _, Value};

/// Per-run accumulated state while scanning a file.
#[derive(Default)]
struct RunState {
    next_seq: u64,
    started: bool,
    completed: bool,
    aborted: bool,
    claimed_iterations: Option<u64>,
    iteration_events: u64,
    hits: u64,
    misses: u64,
    completed_hit_rate: Option<f64>,
    faults_injected: u64,
    rollbacks: u64,
    retries: u64,
    degradations: u64,
    aborted_committed: Option<u64>,
}

fn get_str<'v>(event: &'v Value, key: &str) -> Result<&'v str, String> {
    match event.get(key) {
        Some(Value::Str(s)) => Ok(s),
        other => Err(format!("field {key}: expected string, got {other:?}")),
    }
}

fn get_u64(event: &Value, key: &str) -> Result<u64, String> {
    match event.get(key) {
        Some(Value::UInt(n)) => Ok(*n),
        other => Err(format!("field {key}: expected unsigned int, got {other:?}")),
    }
}

/// Audit facts accumulated per run **label** (the telemetry join key),
/// across every checked file: what `--metrics` reconciles against.
#[derive(Default)]
struct LabelAgg {
    /// Summed `stage_nanos` per stage over the committed iterations.
    stage_ns: BTreeMap<String, u64>,
    /// Iteration events that carried each stage (== committed iterations).
    stage_iters: BTreeMap<String, u64>,
    iterations: u64,
    hits: u64,
    misses: u64,
    /// Σ raw sparse lookups over the committed iterations.
    total_lookups: u64,
    /// Σ unique rows per (table, batch) over the committed iterations.
    unique_rows: u64,
    /// Σ Plan-stage PCIe H2D bytes (the compact dedup-index upload).
    plan_h2d_bytes: u64,
    /// Σ Exchange-stage PCIe bytes, both directions (== bytes staged).
    exchange_pcie_bytes: u64,
    rollbacks: u64,
    retries: u64,
    degradations: u64,
    faults_injected: u64,
    aborts: u64,
}

fn check_line(
    event: &Value,
    runs: &mut HashMap<String, RunState>,
    labels: &mut BTreeMap<String, LabelAgg>,
) -> Result<(), String> {
    let kind = get_str(event, "event")?;
    let run_id = get_str(event, "run_id")?.to_owned();
    let label = get_str(event, "run")?.to_owned();
    let seq = get_u64(event, "seq")?;

    let state = runs.entry(run_id).or_default();
    if seq != state.next_seq {
        return Err(format!("seq {seq}, expected {}", state.next_seq));
    }
    state.next_seq += 1;
    if state.completed {
        return Err("event after the terminal run_completed/run_aborted".to_owned());
    }
    match kind {
        "run_started" => {
            if state.started {
                return Err("duplicate run_started".to_owned());
            }
            state.started = true;
            state.claimed_iterations = Some(get_u64(event, "iterations")?);
            get_u64(event, "num_tables")?;
            get_u64(event, "dim")?;
            get_str(event, "schedule")?;
        }
        "iteration" => {
            if !state.started {
                return Err("iteration before run_started".to_owned());
            }
            let rec = IterationRecord::from_value(event)
                .map_err(|e| format!("not an IterationRecord: {e}"))?;
            // Committed iterations arrive in index order even when a
            // supervised run retried them out of wall-clock order.
            if rec.index as u64 != state.iteration_events {
                return Err(format!(
                    "iteration index {} out of order (expected {})",
                    rec.index, state.iteration_events
                ));
            }
            state.iteration_events += 1;
            state.hits += rec.hits;
            state.misses += rec.misses;
            let agg = labels.entry(label).or_default();
            agg.iterations += 1;
            agg.hits += rec.hits;
            agg.misses += rec.misses;
            agg.total_lookups += rec.total_lookups;
            agg.unique_rows += rec.unique_rows;
            agg.plan_h2d_bytes += rec.traffic.plan.pcie_h2d_bytes;
            agg.exchange_pcie_bytes +=
                rec.traffic.exchange.pcie_h2d_bytes + rec.traffic.exchange.pcie_d2h_bytes;
            let stage_names: Vec<&str> = match event.get("stage_nanos") {
                Some(Value::Map(entries)) if entries.len() == 5 => {
                    for (stage, v) in entries {
                        let Value::UInt(ns) = v else {
                            return Err(format!("stage_nanos.{stage}: expected UInt, got {v:?}"));
                        };
                        *agg.stage_ns.entry(stage.clone()).or_default() += ns;
                        *agg.stage_iters.entry(stage.clone()).or_default() += 1;
                    }
                    entries.iter().map(|(k, _)| k.as_str()).collect()
                }
                other => return Err(format!("stage_nanos: expected 5-stage map, got {other:?}")),
            };
            match event.get("stage_shards") {
                None => {}
                Some(Value::Map(entries)) => {
                    for (stage, shards) in entries {
                        if !stage_names.contains(&stage.as_str()) {
                            return Err(format!("stage_shards: unknown stage {stage:?}"));
                        }
                        match shards {
                            Value::Seq(items) if !items.is_empty() => {
                                if items.iter().any(|v| !matches!(v, Value::UInt(_))) {
                                    return Err(format!(
                                        "stage_shards.{stage}: non-integer shard nanos"
                                    ));
                                }
                            }
                            other => {
                                return Err(format!(
                                    "stage_shards.{stage}: expected non-empty seq, got {other:?}"
                                ))
                            }
                        }
                    }
                }
                other => return Err(format!("stage_shards: expected map, got {other:?}")),
            }
        }
        "run_completed" => {
            if !state.started {
                return Err("run_completed before run_started".to_owned());
            }
            state.completed = true;
            let n = get_u64(event, "iterations")?;
            if Some(n) != state.claimed_iterations {
                return Err(format!(
                    "run_completed.iterations {n} != run_started.iterations {:?}",
                    state.claimed_iterations
                ));
            }
            if n != state.iteration_events {
                return Err(format!(
                    "run_completed.iterations {n} != {} iteration events",
                    state.iteration_events
                ));
            }
            get_u64(event, "elapsed_ns")?;
            state.completed_hit_rate = Some(match event.get("hit_rate") {
                Some(Value::Float(x)) => *x,
                Some(Value::UInt(n)) => *n as f64,
                other => return Err(format!("hit_rate: expected number, got {other:?}")),
            });
        }
        "fault_injected" => {
            if !state.started {
                return Err("fault_injected before run_started".to_owned());
            }
            state.faults_injected += 1;
            labels.entry(label).or_default().faults_injected += 1;
            get_u64(event, "iteration")?;
            get_u64(event, "attempt")?;
            get_str(event, "stage")?;
            get_u64(event, "shard")?;
            let kind = get_str(event, "kind")?;
            const KINDS: [&str; 4] = [
                "stage_error",
                "worker_panic",
                "slow_shard",
                "corrupt_payload",
            ];
            if !KINDS.contains(&kind) {
                return Err(format!("fault_injected: unknown fault kind {kind:?}"));
            }
        }
        "iteration_rolled_back" => {
            if !state.started {
                return Err("iteration_rolled_back before run_started".to_owned());
            }
            state.rollbacks += 1;
            labels.entry(label).or_default().rollbacks += 1;
            get_u64(event, "iteration")?;
            get_u64(event, "attempt")?;
            get_str(event, "cause")?;
        }
        "stage_retried" => {
            state.retries += 1;
            labels.entry(label).or_default().retries += 1;
            get_u64(event, "iteration")?;
            get_u64(event, "attempt")?;
            get_str(event, "schedule")?;
        }
        "schedule_degraded" => {
            state.degradations += 1;
            labels.entry(label).or_default().degradations += 1;
            get_u64(event, "iteration")?;
            let from = get_str(event, "from")?;
            let to = get_str(event, "to")?;
            if from == to {
                return Err(format!("schedule_degraded: from == to ({from:?})"));
            }
        }
        "run_aborted" => {
            if !state.started {
                return Err("run_aborted before run_started".to_owned());
            }
            state.completed = true;
            state.aborted = true;
            state.aborted_committed = Some(get_u64(event, "committed")?);
            labels.entry(label).or_default().aborts += 1;
            get_u64(event, "iteration")?;
            get_u64(event, "attempts")?;
            get_str(event, "schedule")?;
            get_str(event, "cause")?;
        }
        other => return Err(format!("unknown event kind {other:?}")),
    }
    Ok(())
}

fn check_file(
    path: &str,
    faults_mode: bool,
    labels: &mut BTreeMap<String, LabelAgg>,
) -> Result<(), Vec<String>> {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => return Err(vec![format!("cannot read: {e}")]),
    };
    let mut errors = Vec::new();
    let mut runs: HashMap<String, RunState> = HashMap::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {}: invalid JSON: {e}", i + 1));
                continue;
            }
        };
        if let Err(e) = check_line(&event, &mut runs, labels) {
            errors.push(format!("line {}: {e}", i + 1));
        }
    }
    if runs.is_empty() {
        errors.push("no audit events found".to_owned());
    }
    for (run_id, state) in &runs {
        if !state.completed {
            errors.push(format!(
                "run {run_id}: missing terminal run_completed/run_aborted"
            ));
            continue;
        }
        if state.aborted {
            // An aborted run audits exactly the committed prefix.
            let committed = state.aborted_committed.unwrap_or(u64::MAX);
            if state.iteration_events != committed {
                errors.push(format!(
                    "run {run_id}: {} iteration events != run_aborted.committed {committed}",
                    state.iteration_events
                ));
            }
        } else {
            let recomputed = if state.hits + state.misses > 0 {
                state.hits as f64 / (state.hits + state.misses) as f64
            } else {
                0.0
            };
            let claimed = state.completed_hit_rate.unwrap_or(f64::NAN);
            if (recomputed - claimed).abs() > 1e-9 {
                errors.push(format!(
                    "run {run_id}: recomputed hit rate {recomputed} != claimed {claimed}"
                ));
            }
        }
        // Every rollback must be answered by exactly one retry,
        // degradation or abort — the supervisor's decision invariant.
        let answered = state.retries + state.degradations + u64::from(state.aborted);
        if state.rollbacks != answered {
            errors.push(format!(
                "run {run_id}: {} rollbacks != {} retries + {} degradations + {} aborts",
                state.rollbacks,
                state.retries,
                state.degradations,
                u64::from(state.aborted)
            ));
        }
    }
    if faults_mode && !runs.is_empty() && runs.values().all(|s| s.faults_injected == 0) {
        errors.push("--faults: no fault_injected events in the file".to_owned());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Reconciles `METRICS.json` against the audit facts aggregated per run
/// label — the exactness contract: both sides summed the *same
/// integers*, so equality is `==`, not a tolerance (relaxed to `>=` for
/// labels that rolled iterations back, whose failed attempts were
/// metered but never audited).
fn check_metrics(path: &str, labels: &BTreeMap<String, LabelAgg>) -> Result<(), Vec<String>> {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => return Err(vec![format!("cannot read: {e}")]),
    };
    let doc: Value = match serde_json::from_str(&body) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("invalid JSON: {e}")]),
    };
    let Some(Value::Seq(metrics)) = doc.get("metrics") else {
        return Err(vec!["metrics: expected a sequence".to_owned()]);
    };
    let mut errors = Vec::new();
    let mut stage_entries = 0usize;
    // (label -> summed-over-tables) scratchpad totals.
    let mut hits: BTreeMap<String, u64> = BTreeMap::new();
    let mut misses: BTreeMap<String, u64> = BTreeMap::new();
    for m in metrics {
        let checked = (|| -> Result<(), String> {
            let name = get_str(m, "name")?;
            let Some(Value::Map(label_entries)) = m.get("labels") else {
                return Err("labels: expected a map".to_owned());
            };
            let label_of = |key: &str| -> Result<String, String> {
                label_entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| match v {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    })
                    .ok_or_else(|| format!("{name}: missing {key} label"))
            };
            let run = label_of("run")?;
            let Some(agg) = labels.get(&run) else {
                return Err(format!("{name}: run {run:?} not in the audit stream"));
            };
            // `==` for clean runs, `>=` once iterations were replayed.
            let reconcile = |what: &str, metered: u64, audited: u64| -> Result<(), String> {
                let ok = if agg.rollbacks > 0 {
                    metered >= audited
                } else {
                    metered == audited
                };
                if ok {
                    Ok(())
                } else {
                    Err(format!(
                        "{name} run {run:?}: {what} {metered} {} audit {audited}",
                        if agg.rollbacks > 0 { "<" } else { "!=" }
                    ))
                }
            };
            let exact = |what: &str, metered: u64, audited: u64| -> Result<(), String> {
                if metered == audited {
                    Ok(())
                } else {
                    Err(format!(
                        "{name} run {run:?}: {what} {metered} != audit {audited}"
                    ))
                }
            };
            match name {
                "sp_stage_latency_ns" => {
                    stage_entries += 1;
                    let stage = label_of("stage")?;
                    let audited_ns = agg.stage_ns.get(&stage).copied().unwrap_or(0);
                    let audited_n = agg.stage_iters.get(&stage).copied().unwrap_or(0);
                    reconcile(
                        &format!("stage {stage} sum"),
                        get_u64(m, "sum")?,
                        audited_ns,
                    )?;
                    reconcile(
                        &format!("stage {stage} count"),
                        get_u64(m, "count")?,
                        audited_n,
                    )?;
                }
                "sp_run_iterations_total" => {
                    // finish_run reports the *committed* count even for
                    // aborted runs, so this one is always exact.
                    exact("iterations", get_u64(m, "value")?, agg.iterations)?;
                }
                "sp_recovery_rollbacks_total" => {
                    exact("rollbacks", get_u64(m, "value")?, agg.rollbacks)?;
                }
                "sp_recovery_retries_total" => {
                    exact("retries", get_u64(m, "value")?, agg.retries)?;
                }
                "sp_recovery_degradations_total" => {
                    exact("degradations", get_u64(m, "value")?, agg.degradations)?;
                }
                "sp_recovery_faults_injected_total" => {
                    exact("faults_injected", get_u64(m, "value")?, agg.faults_injected)?;
                }
                "sp_recovery_aborts_total" => {
                    exact("aborts", get_u64(m, "value")?, agg.aborts)?;
                }
                "sp_scratchpad_hits_total" => {
                    *hits.entry(run.clone()).or_default() += get_u64(m, "value")?;
                }
                "sp_scratchpad_misses_total" => {
                    *misses.entry(run.clone()).or_default() += get_u64(m, "value")?;
                }
                _ => {}
            }
            Ok(())
        })();
        if let Err(e) = checked {
            errors.push(e);
        }
    }
    let mut check_totals =
        |kind: &str, totals: &BTreeMap<String, u64>, audited: fn(&LabelAgg) -> u64| {
            for (run, &metered) in totals {
                let Some(agg) = labels.get(run) else {
                    continue; // already reported above
                };
                // Replayed iterations re-plan, recounting cache traffic.
                if agg.rollbacks == 0 && metered != audited(agg) {
                    errors.push(format!(
                        "sp_scratchpad_{kind}_total run {run:?}: {metered} != audit {}",
                        audited(agg)
                    ));
                }
            }
        };
    check_totals("hits", &hits, |a| a.hits);
    check_totals("misses", &misses, |a| a.misses);
    if stage_entries == 0 {
        errors.push("no sp_stage_latency_ns entries to reconcile".to_owned());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn get_f64(event: &Value, key: &str) -> Result<f64, String> {
    match event.get(key) {
        Some(Value::Float(x)) => Ok(*x),
        Some(Value::UInt(n)) => Ok(*n as f64),
        other => Err(format!("field {key}: expected number, got {other:?}")),
    }
}

/// Validates `BENCH_pipeline.json`: the `speedup_*_vs_sync` fields must
/// reproduce from the raw throughputs, `parallelism` must be ≥ 1, and
/// every `--parallel-floor <shape>:<ratio>` gate must hold. When the
/// same run's audit stream was checked first (so `labels` holds a
/// `bench-<shape>-sync` aggregate), the dedup-accounting fields
/// (`unique_lookup_ratio`, `bytes_staged`, `bytes_staged_dedup`) are
/// re-derived from the audit facts and must agree.
fn check_bench(
    path: &str,
    floors: &[(String, f64)],
    labels: &BTreeMap<String, LabelAgg>,
) -> Result<(), Vec<String>> {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => return Err(vec![format!("cannot read: {e}")]),
    };
    match serde_json::from_str(&body) {
        Ok(report) => check_bench_report(&report, floors, labels),
        Err(e) => Err(vec![format!("invalid JSON: {e}")]),
    }
}

/// [`check_bench`] over an already parsed artifact.
fn check_bench_report(
    report: &Value,
    floors: &[(String, f64)],
    labels: &BTreeMap<String, LabelAgg>,
) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let Some(Value::Seq(shapes)) = report.get("shapes") else {
        return Err(vec!["shapes: expected a sequence".to_owned()]);
    };
    let mut seen = Vec::new();
    for shape in shapes {
        let name = match get_str(shape, "name") {
            Ok(n) => n.to_owned(),
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        let checks = (|| -> Result<(), String> {
            let sync = get_f64(shape, "sync_iters_per_sec")?;
            let threaded = get_f64(shape, "threaded_iters_per_sec")?;
            let parallel = get_f64(shape, "parallel_iters_per_sec")?;
            let sp_threaded = get_f64(shape, "speedup_threaded_vs_sync")?;
            let sp_parallel = get_f64(shape, "speedup_parallel_vs_sync")?;
            let parallelism = get_u64(shape, "parallelism")?;
            if parallelism < 1 {
                return Err("parallelism below 1".to_owned());
            }
            let rel = |claimed: f64, derived: f64| {
                (claimed - derived).abs() > 1e-6 * derived.abs().max(1e-12)
            };
            if rel(sp_threaded, threaded / sync) {
                return Err(format!(
                    "speedup_threaded_vs_sync {sp_threaded} != {threaded}/{sync}"
                ));
            }
            if rel(sp_parallel, parallel / sync) {
                return Err(format!(
                    "speedup_parallel_vs_sync {sp_parallel} != {parallel}/{sync}"
                ));
            }
            for (floor_shape, ratio) in floors {
                if *floor_shape != name {
                    continue;
                }
                if parallelism == 1 {
                    return Err(format!(
                        "--parallel-floor {name}:{ratio} is vacuous at parallelism 1 \
                         (the data-parallel run used a width-1 pool)"
                    ));
                }
                if sp_parallel < *ratio {
                    return Err(format!(
                        "speedup_parallel_vs_sync {sp_parallel} below floor {ratio}"
                    ));
                }
            }
            let ratio = get_f64(shape, "unique_lookup_ratio")?;
            if !(ratio > 0.0 && ratio <= 1.0) {
                return Err(format!("unique_lookup_ratio {ratio} outside (0, 1]"));
            }
            let staged = get_u64(shape, "bytes_staged")?;
            let staged_dedup = get_u64(shape, "bytes_staged_dedup")?;
            if staged_dedup < staged {
                return Err(format!(
                    "bytes_staged_dedup {staged_dedup} below bytes_staged {staged}"
                ));
            }
            // Re-derive the dedup accounting from the sync run's audit
            // aggregate whenever the audit stream was supplied alongside.
            if let Some(agg) = labels.get(&format!("bench-{name}-sync")) {
                let derived_ratio = agg.unique_rows as f64 / agg.total_lookups as f64;
                if rel(ratio, derived_ratio) {
                    return Err(format!(
                        "unique_lookup_ratio {ratio} != audit {}/{} = {derived_ratio}",
                        agg.unique_rows, agg.total_lookups
                    ));
                }
                if staged != agg.exchange_pcie_bytes {
                    return Err(format!(
                        "bytes_staged {staged} != audit exchange PCIe {}",
                        agg.exchange_pcie_bytes
                    ));
                }
                let derived_dedup = agg.plan_h2d_bytes + agg.exchange_pcie_bytes;
                if staged_dedup != derived_dedup {
                    return Err(format!(
                        "bytes_staged_dedup {staged_dedup} != audit plan H2D {} \
                         + exchange PCIe {}",
                        agg.plan_h2d_bytes, agg.exchange_pcie_bytes
                    ));
                }
                // The Plan upload contract: one u32 slot per unique row
                // plus one u32 index per raw lookup.
                let contract = 4 * (agg.unique_rows + agg.total_lookups);
                if agg.plan_h2d_bytes != contract {
                    return Err(format!(
                        "plan H2D {} != 4 * (unique {} + lookups {}) = {contract}",
                        agg.plan_h2d_bytes, agg.unique_rows, agg.total_lookups
                    ));
                }
            }
            Ok(())
        })();
        if let Err(e) = checks {
            errors.push(format!("shape {name}: {e}"));
        }
        seen.push(name);
    }
    for (floor_shape, _) in floors {
        if !seen.contains(floor_shape) {
            errors.push(format!(
                "--parallel-floor names shape {floor_shape}, not in the report"
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut bench_path = None;
    let mut metrics_path = None;
    let mut faults_mode = false;
    let mut floors: Vec<(String, f64)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--faults" => faults_mode = true,
            "--bench" => match it.next() {
                Some(p) => bench_path = Some(p),
                None => {
                    eprintln!("--bench needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => match it.next() {
                Some(p) => metrics_path = Some(p),
                None => {
                    eprintln!("--metrics needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--parallel-floor" => {
                let Some(spec) = it.next() else {
                    eprintln!("--parallel-floor needs <shape>:<ratio>");
                    return ExitCode::FAILURE;
                };
                let Some((shape, ratio)) = spec.split_once(':') else {
                    eprintln!("--parallel-floor: malformed spec {spec:?}");
                    return ExitCode::FAILURE;
                };
                let Ok(ratio) = ratio.parse::<f64>() else {
                    eprintln!("--parallel-floor: bad ratio in {spec:?}");
                    return ExitCode::FAILURE;
                };
                floors.push((shape.to_owned(), ratio));
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() && bench_path.is_none() {
        eprintln!(
            "usage: audit_check [--faults] [--bench BENCH_pipeline.json] \
             [--metrics METRICS.json] [--parallel-floor shape:ratio] \
             <audit.jsonl> [more.jsonl ...]"
        );
        return ExitCode::FAILURE;
    }
    if !floors.is_empty() && bench_path.is_none() {
        eprintln!("--parallel-floor requires --bench");
        return ExitCode::FAILURE;
    }
    if metrics_path.is_some() && paths.is_empty() {
        eprintln!("--metrics needs at least one audit JSONL to reconcile against");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    let mut report = |path: &str, result: Result<(), Vec<String>>| match result {
        Ok(()) => println!("{path}: OK"),
        Err(errors) => {
            failed = true;
            eprintln!("{path}: {} violation(s)", errors.len());
            for e in &errors {
                eprintln!("  {e}");
            }
        }
    };
    let mut labels: BTreeMap<String, LabelAgg> = BTreeMap::new();
    for path in &paths {
        report(path, check_file(path, faults_mode, &mut labels));
    }
    if let Some(path) = &bench_path {
        report(path, check_bench(path, &floors, &labels));
    }
    if let Some(path) = &metrics_path {
        report(path, check_metrics(path, &labels));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-shape artifact whose data-parallel run used `parallelism`
    /// workers and ran at `speedup` × sync.
    fn bench(parallelism: u64, speedup: f64) -> Value {
        let body = format!(
            r#"{{"shapes":[{{"name":"medium","sync_iters_per_sec":100.0,
            "threaded_iters_per_sec":100.0,"parallel_iters_per_sec":{p},
            "speedup_threaded_vs_sync":1.0,"speedup_parallel_vs_sync":{speedup},
            "parallelism":{parallelism},"unique_lookup_ratio":0.5,
            "bytes_staged":10,"bytes_staged_dedup":20}}]}}"#,
            p = 100.0 * speedup,
        );
        serde_json::from_str(&body).expect("valid artifact")
    }

    fn floor(ratio: f64) -> Vec<(String, f64)> {
        vec![("medium".to_owned(), ratio)]
    }

    #[test]
    fn parallel_floor_holds_on_a_wide_pool() {
        let labels = BTreeMap::new();
        assert!(check_bench_report(&bench(2, 1.25), &floor(0.9), &labels).is_ok());
        let errors =
            check_bench_report(&bench(2, 0.5), &floor(0.9), &labels).expect_err("below the floor");
        assert!(errors[0].contains("below floor 0.9"), "{errors:?}");
    }

    #[test]
    fn parallel_floor_on_a_width_one_run_fails_and_names_the_width() {
        let labels = BTreeMap::new();
        let errors = check_bench_report(&bench(1, 1.25), &floor(0.9), &labels)
            .expect_err("a width-1 floor proves nothing");
        assert!(errors[0].contains("parallelism 1"), "{errors:?}");
        // Without a floor the width-1 artifact itself is fine.
        assert!(check_bench_report(&bench(1, 1.25), &[], &labels).is_ok());
    }
}

//! The repository benchmark. One process, and one harness thread: it generates a
//! workload's trace from the seed it is given, runs the whole trace
//! through `Pipeline::run` repeatedly for the time it is given, checks
//! every run bit-exact against `train_direct`, and reports either the
//! end-to-end metrics (untraced runs) or the per-layer metrics (traced
//! runs plus outside probes). See `perfbench/README.md`.

pub mod check;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod traced;
pub mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use embeddings::SparseBatch;
use memsim::CostModel;
use scratchpipe::{DenseBackend, Pipeline, PipelineReport, Schedule, ScratchError, UnitBackend};
use serde::Value;
use systems::DlrmBackend;

use check::{Reference, Tally};
use metrics::{Spec, END_TO_END, PER_LAYER};
use probes::HostProbe;
use stats::{median, quantile, ratio};
use traced::{parse_audit, TimedBackend, TimedSink, TracedRun};
use workload::{Model, Workload, LEARNING_RATE, SCHEDULE};

/// Untraced repetitions made even when `--seconds` runs out first.
const MIN_REPEATS: usize = 3;
/// Quantile of the per-run rates reported as `samples_per_s`. On a shared
/// host, other tenants slow whole stretches of runs by up to 40 %, often
/// for more than half of a process's runs; the upper decile tracks what the
/// program sustains when the host is quiet, and a change to the program
/// moves every run, this one too.
const RATE_QUANTILE: f64 = 0.9;
/// Quantile of the set-up times reported as `setup_s`: the fastest decile,
/// for the same reason.
const SETUP_QUANTILE: f64 = 0.1;
/// Set-ups timed (and dropped) before each untraced run, so `setup_s` is
/// taken over several set-ups per run.
const EXTRA_SETUPS: usize = 2;
/// Traced rounds (plain, traced, traced without the hazard checker) made
/// even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 2;
/// Stages the hazard checker runs in: Plan, Collect, Train.
const HAZARD_STAGES: [usize; 3] = [0, 1, 4];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the trace, tables and dense model.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A missing, unknown or malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number {v}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(num(&value)?),
                "--seconds" => seconds = Some(num(&value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one benchmark process measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Iterations attempted / failed across every run of the process.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Self-description: host, seed, schedule, run counts.
    pub envelope: Vec<(String, Value)>,
    /// Whether this was the traced run.
    pub traced: bool,
}

impl Outcome {
    /// The metric catalog this outcome reports.
    pub fn catalog(&self) -> &'static [Spec] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The final result line:
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    ///
    /// # Errors
    ///
    /// A catalog metric that was not measured or is not finite.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for spec in self.catalog() {
            let value = *self
                .metrics
                .get(spec.name)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", spec.name));
            }
            metrics.push((
                spec.name.to_owned(),
                Value::Map(vec![
                    ("value".to_owned(), Value::Float(value)),
                    ("unit".to_owned(), Value::Str(spec.unit.to_owned())),
                ]),
            ));
        }
        let correct = self.tally.attempted > 0 && self.tally.failed == 0;
        let line = Value::Map(vec![
            ("correct".to_owned(), Value::Bool(correct)),
            ("attempted".to_owned(), Value::UInt(self.tally.attempted)),
            ("failed".to_owned(), Value::UInt(self.tally.failed)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| format!("{e:?}"))
    }

    /// Human-readable `name value unit` lines, then the envelope as JSON.
    pub fn report_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .catalog()
            .iter()
            .map(|s| {
                let v = self.metrics.get(s.name).copied().unwrap_or(f64::NAN);
                format!("{:<32} {:>16.4} {}", s.name, v, s.unit)
            })
            .collect();
        out.push(format!(
            "{:<32} {:>16.4} ratio  ({} of {} iterations)",
            "failed_iter_ratio",
            self.tally.failed_ratio(),
            self.tally.failed,
            self.tally.attempted
        ));
        let envelope = Value::Map(vec![(
            "envelope".to_owned(),
            Value::Map(self.envelope.clone()),
        )]);
        out.push(serde_json::to_string(&envelope).unwrap_or_default());
        out
    }
}

/// Runs the benchmark `args` asks for.
///
/// # Errors
///
/// An unknown workload, or a failure of the harness itself (a pipeline
/// error or output mismatch is counted, not returned).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    match w.model {
        Model::Dlrm => {
            let cfg = w.dlrm_config();
            bench(&w, args, || {
                DlrmBackend::new(&cfg, LEARNING_RATE, args.seed)
            })
        }
        Model::Unit => bench(&w, args, || UnitBackend::new(LEARNING_RATE)),
    }
}

/// The schedule and pool a built pipeline runs under.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    schedule: Schedule,
    pool_width: usize,
}

struct Ctx<'a, F> {
    w: &'a Workload,
    seed: u64,
    batches: &'a [SparseBatch],
    reference: &'a Reference,
    make: F,
    tally: Tally,
    resolved: Option<Resolved>,
}

fn bench<B, F>(w: &Workload, args: &Args, make: F) -> Result<Outcome, String>
where
    B: DenseBackend + Send,
    F: Fn() -> B,
{
    let batches = w.trace(args.seed);
    let reference = Reference::compute(w.tables(args.seed), &batches, make());
    let mut ctx = Ctx {
        w,
        seed: args.seed,
        batches: &batches,
        reference: &reference,
        make,
        tally: Tally::default(),
        resolved: None,
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (metrics, mut envelope) = if args.trace {
        traced(&mut ctx, deadline)?
    } else {
        end_to_end(&mut ctx, deadline)?
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let resolved = ctx.resolved;
    let mut head = vec![
        ("workload".to_owned(), Value::Str(w.name.to_owned())),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("seconds".to_owned(), Value::UInt(args.seconds)),
        ("traced".to_owned(), Value::Bool(args.trace)),
        ("nproc".to_owned(), Value::UInt(nproc as u64)),
        (
            "pool_width".to_owned(),
            Value::UInt(resolved.map_or(0, |r| r.pool_width as u64)),
        ),
        (
            "rustc".to_owned(),
            Value::Str(env!("PERFBENCH_RUSTC").to_owned()),
        ),
        (
            "schedule".to_owned(),
            Value::Str(SCHEDULE.name().to_owned()),
        ),
        (
            "schedule_resolved".to_owned(),
            Value::Str(resolved.map_or("none", |r| r.schedule.name()).to_owned()),
        ),
        (
            "check_hazards".to_owned(),
            Value::Bool(w.config().check_hazards),
        ),
        (
            "iterations_per_run".to_owned(),
            Value::UInt(w.iterations as u64),
        ),
        (
            "samples_per_run".to_owned(),
            Value::UInt(w.samples() as u64),
        ),
        (
            "failed_iter_ratio".to_owned(),
            Value::Float(ctx.tally.failed_ratio()),
        ),
    ];
    head.append(&mut envelope);
    Ok(Outcome {
        tally: ctx.tally,
        metrics,
        envelope: head,
        traced: args.trace,
    })
}

impl<B, F> Ctx<'_, F>
where
    B: DenseBackend + Send,
    F: Fn() -> B,
{
    /// Set-up as a user pays it: fresh tables and backend, then `build`.
    /// Returns the seconds it took and the pipeline.
    fn timed_build(&self) -> (f64, Result<Pipeline<B>, ScratchError>) {
        let t0 = Instant::now();
        let built = self
            .w
            .builder(self.w.config(), self.w.tables(self.seed), (self.make)())
            .build();
        (t0.elapsed().as_secs_f64(), built)
    }

    /// One untraced, checked run. Returns (set-up seconds, samples/s if
    /// the run passed the check).
    fn plain_run(&mut self) -> (f64, Option<f64>) {
        let (setup, built) = self.timed_build();
        let rate = self
            .checked_run(built, |_| ())
            .map(|(wall_ns, ..)| self.samples_per_s(wall_ns));
        (setup, rate)
    }

    /// One traced, checked run (audit sink and timed backend attached).
    fn traced_run(&mut self, check_hazards: bool) -> Option<TracedRun> {
        let sink = TimedSink::new();
        let mut config = self.w.config();
        config.check_hazards = check_hazards;
        let built = self
            .w
            .builder(
                config,
                self.w.tables(self.seed),
                TimedBackend::new((self.make)()),
            )
            .audit(sink.clone())
            .build();
        let batch = self.w.batch;
        let (wall_ns, report, (dense_nanos, dense_traffic)) = self.checked_run(built, |p| {
            let backend = p.backend();
            (backend.step_nanos().to_vec(), backend.traffic(batch))
        })?;
        let iterations = match parse_audit(&sink.lines()) {
            Ok(its) if its.len() == report.iterations => its,
            Ok(its) => {
                eprintln!(
                    "audit has {} iteration events, run had {}",
                    its.len(),
                    report.iterations
                );
                return None;
            }
            Err(e) => {
                eprintln!("audit: {e}");
                return None;
            }
        };
        Some(TracedRun {
            wall_ns,
            report,
            iterations,
            dense_nanos,
            sink_nanos: sink.nanos(),
            dense_traffic,
        })
    }

    /// Runs `built` over the trace, timing `Pipeline::run` from outside,
    /// and counts the bit-exact check. Returns the wall time, the report
    /// and what `inspect` read from the pipeline before its tables were
    /// taken; `None` when the build or run failed or the check did not
    /// pass.
    fn checked_run<D, T>(
        &mut self,
        built: Result<Pipeline<D>, ScratchError>,
        inspect: impl FnOnce(&Pipeline<D>) -> T,
    ) -> Option<(u64, PipelineReport, T)>
    where
        D: DenseBackend + Send,
    {
        let mut pipeline = match built {
            Ok(p) => p,
            Err(e) => return self.count_error(&format!("build failed: {e}")),
        };
        if self.resolved.is_none() {
            self.resolved = pipeline
                .effective_schedule(self.batches)
                .ok()
                .map(|schedule| Resolved {
                    schedule,
                    pool_width: pipeline.workers().threads(),
                });
        }
        let t0 = Instant::now();
        let result = pipeline.run(self.batches);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let report = match result {
            Ok(report) => report,
            Err(e) => return self.count_error(&format!("run failed: {e}")),
        };
        let seen = inspect(&pipeline);
        let tables = pipeline.into_tables();
        self.tally
            .check(self.reference, Some((&report, &tables)))
            .then_some((wall_ns, report, seen))
    }

    fn count_error<T>(&mut self, why: &str) -> Option<T> {
        eprintln!("{why}");
        self.tally.check(self.reference, None);
        None
    }

    fn samples_per_s(&self, wall_ns: u64) -> f64 {
        self.w.samples() as f64 / (wall_ns as f64 / 1e9)
    }
}

type Measured = (BTreeMap<&'static str, f64>, Vec<(String, Value)>);

fn end_to_end<B, F>(ctx: &mut Ctx<'_, F>, deadline: Instant) -> Result<Measured, String>
where
    B: DenseBackend + Send,
    F: Fn() -> B,
{
    let (mut setups, mut rates, mut runs) = (Vec::new(), Vec::new(), 0);
    while runs < MIN_REPEATS || Instant::now() < deadline {
        setups.extend((0..EXTRA_SETUPS).map(|_| ctx.timed_build().0));
        let (setup, rate) = ctx.plain_run();
        setups.push(setup);
        rates.extend(rate);
        runs += 1;
    }
    let mut m = BTreeMap::new();
    m.insert("samples_per_s", quantile(&rates, RATE_QUANTILE));
    m.insert("setup_s", quantile(&setups, SETUP_QUANTILE));
    let rss = probes::peak_rss_mib().ok_or("peak RSS is only read on 64-bit Linux")?;
    m.insert("peak_rss_mib", rss);
    let env = vec![
        ("runs".to_owned(), Value::UInt(runs as u64)),
        ("setups".to_owned(), Value::UInt(setups.len() as u64)),
        (
            "samples_per_s_median".to_owned(),
            Value::Float(median(&rates)),
        ),
        ("setup_s_median".to_owned(), Value::Float(median(&setups))),
        (
            "samples_per_s_runs".to_owned(),
            Value::Seq(rates.iter().map(|&r| Value::Float(r.round())).collect()),
        ),
    ];
    Ok((m, env))
}

fn traced<B, F>(ctx: &mut Ctx<'_, F>, deadline: Instant) -> Result<Measured, String>
where
    B: DenseBackend + Send,
    F: Fn() -> B,
{
    let probe = HostProbe::measure(ctx.seed);
    let model = CostModel::new(probe.system_spec());
    let replay_ns = probes::plan_replay_ns_per_unique(ctx.w, ctx.batches)
        .map_err(|e| format!("plan replay: {e}"))?;

    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut runs, mut hazard_us) = (Vec::new(), Vec::new());
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        // Alternate the order so slow drift does not favour one kind.
        let plain_first = rounds % 2 == 0;
        if plain_first {
            plain_rates.extend(ctx.plain_run().1);
        }
        let on = ctx.traced_run(true);
        let off = ctx.traced_run(false);
        if !plain_first {
            plain_rates.extend(ctx.plain_run().1);
        }
        if let (Some(on), Some(off)) = (&on, &off) {
            let diff =
                on.stage_total(&HAZARD_STAGES) as f64 - off.stage_total(&HAZARD_STAGES) as f64;
            hazard_us.push(diff / on.report.iterations as f64 / 1e3);
        }
        if let Some(on) = on {
            traced_rates.push(ctx.samples_per_s(on.wall_ns));
            runs.push(on);
        }
        rounds += 1;
    }
    let resolved = ctx.resolved.ok_or("no pipeline was built")?;
    let per_run: Vec<BTreeMap<&'static str, f64>> =
        runs.iter().map(|r| r.layer_metrics(&model)).collect();
    let mut m = BTreeMap::new();
    if let Some(first) = per_run.first() {
        for name in first.keys() {
            let values: Vec<f64> = per_run.iter().map(|r| r[name]).collect();
            m.insert(*name, median(&values));
        }
    }
    let collect_gbps = m.get("collect.gbps").copied().unwrap_or(0.0);
    m.insert(
        "collect.roofline_pct",
        ratio(collect_gbps, probe.gather_gbps) * 100.0,
    );
    m.insert("host.gather_gbps", probe.gather_gbps);
    m.insert("scratchpad.plan_ns_per_unique", replay_ns);
    m.insert("plan.hazard_us_per_iter", median(&hazard_us));
    m.insert(
        "workers.region_us",
        probes::worker_region_us(resolved.pool_width),
    );
    let plain = median(&plain_rates);
    m.insert(
        "trace.overhead_pct",
        ratio(plain - median(&traced_rates), plain) * 100.0,
    );

    if runs.is_empty() {
        // Every traced run failed (counted in `failed`): report zeros
        // rather than no result.
        for spec in &PER_LAYER {
            m.entry(spec.name).or_insert(0.0);
        }
    }

    let env = vec![
        ("rounds".to_owned(), Value::UInt(rounds as u64)),
        (
            "traced_runs_used".to_owned(),
            Value::UInt(runs.len() as u64),
        ),
        ("untraced_samples_per_s".to_owned(), Value::Float(plain)),
        (
            "traced_samples_per_s".to_owned(),
            Value::Float(median(&traced_rates)),
        ),
        (
            "host_stream_gbps".to_owned(),
            Value::Float(probe.stream_gbps),
        ),
        ("host_gflops".to_owned(), Value::Float(probe.gflops)),
        (
            "gather_probe_table_mib".to_owned(),
            Value::UInt(((probes::PROBE_ROWS * probes::PROBE_DIM * 4) >> 20) as u64),
        ),
    ];
    Ok((m, env))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "dlrm-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a.unwrap(),
            Args {
                workload: "dlrm-hot".to_owned(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(args(&["--workload", "x", "--seed", "z", "--seconds", "1"]).is_err());
        assert!(args(&["--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            metrics: END_TO_END.iter().map(|s| (s.name, 1.5)).collect(),
            envelope: Vec::new(),
            traced: false,
        };
        let line = outcome.result_line().unwrap();
        let Value::Map(entries) = serde_json::parse(&line).unwrap() else {
            panic!()
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""samples_per_s":{"value":1.5,"unit":"samples/s"}"#));

        let mut missing = outcome.clone();
        missing.metrics.remove("setup_s");
        assert!(missing.result_line().is_err());
    }
}

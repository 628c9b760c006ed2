//! The single generic pipeline driver.
//!
//! [`Pipeline`] owns five [`Stage`] implementors (Plan / Collect /
//! Exchange / Insert / Train) and drives them under a [`Schedule`]:
//!
//! * [`Schedule::Sync`] — the paper's Figure-10 register pipeline: one
//!   cycle executes every occupied stage in reverse register order on one
//!   thread, so at steady state five mini-batches are in flight.
//! * [`Schedule::Threaded`] — one OS thread per stage connected by
//!   bounded channels (the software analogue of CPU threads, DMA engines
//!   and GPU streams running concurrently), with each stage's declared
//!   [`StageBarrier`]s enforced as watermark waits.
//! * [`Schedule::Sequential`] — the §IV-B straw-man: the Sync register
//!   driver admitting a mini-batch only once every register is empty.
//! * [`Schedule::DataParallel`] — the register pipeline with intra-stage
//!   data parallelism: Collect, Insert and the Train gather/scatter shard
//!   their iteration over a [`WorkerPool`]
//!   (width set by [`PipelineBuilder::parallelism`]).
//! * [`Schedule::Auto`] — picks Sync, Threaded or DataParallel from the
//!   per-iteration work (see [`Schedule::AUTO_THREADED_MIN_WORK`] and
//!   [`Schedule::AUTO_PARALLEL_MIN_WORK`]).
//!
//! Because every schedule drives the *same* stage objects, bit-exact
//! training and per-stage traffic parity between schedules hold by
//! construction — the driver-equivalence suite asserts it. Plain
//! [`Pipeline::run`] is the [`Pipeline::run_supervised`] body without a
//! supervisor: one segment, no snapshots, the first error returned as is.
//!
//! Construction goes through [`PipelineBuilder`] (no positional
//! constructors), and every run can emit a structured JSONL audit stream
//! via [`AuditSink`] — see [`crate::audit`].

use std::fmt;
use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use embeddings::store::DenseStore;
use embeddings::{EmbeddingTable, SparseBatch, VectorStore};
use memsim::Traffic;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::audit::{AuditEmitter, AuditSink, RunDescriptor};
use crate::backend::DenseBackend;
use crate::config::PipelineConfig;
use crate::error::ScratchError;
use crate::faults::{FaultInjector, FaultPlan};
use crate::recovery::{RecoveryPolicy, RecoveryStats, SupervisedRun, TableUndo};
use crate::runtime::{IterationRecord, PipelineReport};
use crate::scratchpad::ScratchpadManager;
use crate::stage::{
    CollectStage, ExchangeStage, InsertStage, PlanStage, SharedState, Stage, StageCtx, TrainStage,
};
use crate::stages::{self, PayloadPool, StagePayload};
use crate::telemetry::{Lane, RunTelemetry, Telemetry};
use crate::workers::WorkerPool;

/// How the [`Pipeline`] overlaps (or serializes) its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schedule {
    /// Register-order synchronous pipeline on one thread (paper Fig. 10).
    Sync,
    /// The unpipelined straw-man: one batch finishes all stages before
    /// the next starts. No overlap, so no hazards can arise.
    Sequential,
    /// One OS thread per stage, bounded channels, watermark barriers.
    /// Requires functional mode.
    Threaded,
    /// The synchronous register pipeline with intra-stage data
    /// parallelism: Collect and Insert shard by table, the Train gather
    /// shards by (table × sample range) and its scatter by table, all over
    /// one [`WorkerPool`]. Bit-identical to every other schedule at any
    /// worker count (shards own disjoint outputs; no floating-point
    /// reduction is ever split). Requires functional mode.
    DataParallel,
    /// Chooses [`Schedule::Sync`], [`Schedule::Threaded`] or
    /// [`Schedule::DataParallel`] per run from the per-iteration work
    /// estimate and the configured worker-pool width.
    Auto,
}

impl Schedule {
    /// Per-iteration work (first-batch sparse lookups × embedding dim —
    /// the f32 elements gathered per iteration) below which [`Auto`]
    /// stays on the synchronous schedule: for small shapes the channel
    /// hand-offs and lock traffic of the threaded schedule cost more
    /// than the overlap wins (measured from the audit stage timings of
    /// `BENCH_pipeline.json`'s small shape, which regressed threaded
    /// 1755.8 vs sync 1762.9 iters/s at work = 16 384; the medium shape,
    /// work = 131 072, gains ~17 %).
    ///
    /// [`Auto`]: Schedule::Auto
    pub const AUTO_THREADED_MIN_WORK: u64 = 48_000;

    /// Per-iteration work (same units as
    /// [`Schedule::AUTO_THREADED_MIN_WORK`]) at or above which [`Auto`]
    /// upgrades from [`Threaded`] to [`DataParallel`] when the worker
    /// pool is wider than one thread: intra-stage sharding only pays once
    /// each stage region clears [`WorkerPool::MIN_SHARD_WORK`] per worker,
    /// so the crossover sits well above the threaded one.
    ///
    /// [`Auto`]: Schedule::Auto
    /// [`Threaded`]: Schedule::Threaded
    /// [`DataParallel`]: Schedule::DataParallel
    pub const AUTO_PARALLEL_MIN_WORK: u64 = 96_000;

    /// Stable lower-case name, as used in audit events.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Sync => "sync",
            Schedule::Sequential => "sequential",
            Schedule::Threaded => "threaded",
            Schedule::DataParallel => "data_parallel",
            Schedule::Auto => "auto",
        }
    }
}

// Not `#[derive(Default)]`: the vendored serde derive cannot parse a
// `#[default]` variant attribute alongside `Serialize`/`Deserialize`.
#[allow(clippy::derivable_impls)]
impl Default for Schedule {
    fn default() -> Self {
        Schedule::Auto
    }
}

/// Builder for [`Pipeline`] — the only way to construct one.
///
/// ```
/// # use scratchpipe::{Pipeline, PipelineConfig, Schedule, UnitBackend};
/// # use embeddings::EmbeddingTable;
/// let tables = vec![EmbeddingTable::seeded(100, 8, 1)];
/// let pipeline = Pipeline::builder()
///     .config(PipelineConfig::functional(8, 50))
///     .tables(tables)
///     .backend(UnitBackend::new(0.05))
///     .schedule(Schedule::Sync)
///     .build()
///     .unwrap();
/// # let _ = pipeline;
/// ```
pub struct PipelineBuilder<B> {
    config: Option<PipelineConfig>,
    tables: Vec<EmbeddingTable>,
    analytic: Option<(usize, u64)>,
    backend: Option<B>,
    schedule: Schedule,
    parallelism: usize,
    auto_threaded_min_work: u64,
    auto_parallel_min_work: u64,
    sink: Option<Box<dyn AuditSink>>,
    name: String,
    faults: Option<FaultPlan>,
    telemetry: Option<Telemetry>,
}

impl<B> fmt::Debug for PipelineBuilder<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("config", &self.config)
            .field("tables", &self.tables.len())
            .field("analytic", &self.analytic)
            .field("schedule", &self.schedule)
            .field("parallelism", &self.parallelism)
            .field("audit", &self.sink.is_some())
            .field("name", &self.name)
            .finish()
    }
}

impl<B> Default for PipelineBuilder<B> {
    fn default() -> Self {
        PipelineBuilder {
            config: None,
            tables: Vec::new(),
            analytic: None,
            backend: None,
            schedule: Schedule::default(),
            parallelism: 0,
            auto_threaded_min_work: Schedule::AUTO_THREADED_MIN_WORK,
            auto_parallel_min_work: Schedule::AUTO_PARALLEL_MIN_WORK,
            sink: None,
            name: "pipeline".to_owned(),
            faults: None,
            telemetry: None,
        }
    }
}

impl<B: DenseBackend> PipelineBuilder<B> {
    /// Creates an empty builder (see also [`Pipeline::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pipeline configuration (required).
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Trains these CPU embedding tables in place (functional mode).
    /// Mutually exclusive with [`PipelineBuilder::analytic_tables`].
    pub fn tables(mut self, tables: Vec<EmbeddingTable>) -> Self {
        self.tables = tables;
        self
    }

    /// Simulates `num_tables` virtual tables of `rows_per_table` rows —
    /// metadata and traffic only, no data (forces analytic mode).
    /// Mutually exclusive with [`PipelineBuilder::tables`].
    pub fn analytic_tables(mut self, num_tables: usize, rows_per_table: u64) -> Self {
        self.analytic = Some((num_tables, rows_per_table));
        self
    }

    /// Sets the dense-model backend (required).
    pub fn backend(mut self, backend: B) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the schedule (default [`Schedule::Auto`]).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the intra-stage worker count used by
    /// [`Schedule::DataParallel`] (and by [`Schedule::Auto`] when it
    /// resolves there). `0` — the default — sizes the pool to the
    /// machine's available parallelism. Any width produces bit-identical
    /// training results; only the wall-clock changes.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Overrides the per-iteration work floor (f32 elements gathered) at
    /// which [`Schedule::Auto`] leaves the synchronous schedule (default
    /// [`Schedule::AUTO_THREADED_MIN_WORK`]).
    pub fn auto_threaded_min_work(mut self, work_elems: u64) -> Self {
        self.auto_threaded_min_work = work_elems;
        self
    }

    /// Overrides the per-iteration work floor at which
    /// [`Schedule::Auto`] upgrades to [`Schedule::DataParallel`] (default
    /// [`Schedule::AUTO_PARALLEL_MIN_WORK`]; only reached when the worker
    /// pool is wider than one thread).
    pub fn auto_parallel_min_work(mut self, work_elems: u64) -> Self {
        self.auto_parallel_min_work = work_elems;
        self
    }

    /// Attaches an audit sink: every run emits JSONL events to it.
    pub fn audit(mut self, sink: impl AuditSink + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Names the run in audit events (default `"pipeline"`).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Attaches a [`Telemetry`] collector: every run records a span tree
    /// (run → iteration → stage → shard, plus barrier stalls) and the
    /// metric catalog into it, keyed by the pipeline's audit name
    /// ([`PipelineBuilder::named`]). One collector may be shared across
    /// pipelines — it is a cheap `Arc` clone — so several runs land in one
    /// `trace.json` / `METRICS.json` snapshot. Without this call no
    /// collector exists and every recording hook is a single `None`
    /// check, the same contract as [`PipelineBuilder::faults`].
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Arms a deterministic [`FaultPlan`]: its faults fire at their
    /// `(iteration, stage, shard)` coordinates during [`Pipeline::run`]
    /// (raw propagation, attempt 0 only) and
    /// [`Pipeline::run_supervised`] (retried/degraded per the recovery
    /// policy). Without this call no injector exists and every fault
    /// hook is a single `None` check.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] if the configuration is
    /// missing, inconsistent with the tables, or both [`tables`] and
    /// [`analytic_tables`] were given.
    ///
    /// [`tables`]: PipelineBuilder::tables
    /// [`analytic_tables`]: PipelineBuilder::analytic_tables
    pub fn build(self) -> Result<Pipeline<B>, ScratchError> {
        let mut config = self.config.ok_or_else(|| ScratchError::InvalidConfig {
            detail: "PipelineBuilder needs a config".to_owned(),
        })?;
        let backend = self.backend.ok_or_else(|| ScratchError::InvalidConfig {
            detail: "PipelineBuilder needs a backend".to_owned(),
        })?;
        if self.analytic.is_some() && !self.tables.is_empty() {
            return Err(ScratchError::InvalidConfig {
                detail: "give tables() or analytic_tables(), not both".to_owned(),
            });
        }

        let (num_tables, table_rows, cpu_tables, storages, data_resident);
        if let Some((tables, rows)) = self.analytic {
            config.functional = false;
            config.check_hazards = false;
            config.validate()?;
            if tables == 0 {
                return Err(ScratchError::InvalidConfig {
                    detail: "need at least one embedding table".to_owned(),
                });
            }
            num_tables = tables;
            table_rows = rows;
            cpu_tables = Vec::new();
            storages = Vec::new();
            data_resident = (0..num_tables).map(|_| Mutex::new(Vec::new())).collect();
        } else {
            config.validate()?;
            if self.tables.is_empty() {
                return Err(ScratchError::InvalidConfig {
                    detail: "need at least one embedding table".to_owned(),
                });
            }
            if self.tables.iter().any(|t| t.dim() != config.dim) {
                return Err(ScratchError::InvalidConfig {
                    detail: "table dim mismatch with config".to_owned(),
                });
            }
            num_tables = self.tables.len();
            table_rows = self.tables[0].rows() as u64;
            storages = if config.functional {
                (0..num_tables)
                    .map(|_| Mutex::new(DenseStore::zeros(config.slots_per_table, config.dim)))
                    .collect()
            } else {
                Vec::new()
            };
            data_resident = (0..num_tables)
                .map(|_| Mutex::new(vec![None; config.slots_per_table]))
                .collect();
            cpu_tables = self.tables.into_iter().map(Mutex::new).collect();
        }

        let managers: Vec<ScratchpadManager> = (0..num_tables)
            .map(|_| ScratchpadManager::new(config.slots_per_table, config.window, config.policy))
            .collect::<Result<_, _>>()?;

        let shared = Arc::new(SharedState {
            storages,
            cpu_tables,
            data_resident,
            functional: config.functional,
            check_hazards: config.check_hazards,
            dim: config.dim,
            undo_active: AtomicBool::new(false),
            undo: (0..num_tables)
                .map(|_| Mutex::new(TableUndo::default()))
                .collect(),
        });

        let audit = match self.sink {
            Some(sink) => AuditEmitter::new(sink, RunDescriptor::fresh(&self.name)),
            None => AuditEmitter::disabled(),
        };

        Ok(Pipeline {
            name: self.name,
            plan: PlanStage::new(
                managers,
                config.window.future as usize,
                config.check_hazards,
            ),
            collect: CollectStage::new(Arc::clone(&shared), config.window),
            exchange: ExchangeStage::new(config.dim as u64 * 4),
            insert: InsertStage::new(Arc::clone(&shared)),
            train: TrainStage::new(Arc::clone(&shared), backend),
            shared,
            table_rows,
            schedule: self.schedule,
            workers: if self.parallelism == 0 {
                WorkerPool::auto()
            } else {
                WorkerPool::new(self.parallelism)
            },
            auto_threaded_min_work: self.auto_threaded_min_work,
            auto_parallel_min_work: self.auto_parallel_min_work,
            config,
            pool: PayloadPool::new(),
            audit,
            faults: self.faults.map(FaultInjector::new),
            telemetry: self.telemetry,
        })
    }
}

/// The generic five-stage ScratchPipe pipeline — the single driver behind
/// every schedule. See the [module docs](self) and the
/// [crate-level documentation](crate) for an end-to-end example.
pub struct Pipeline<B> {
    name: String,
    config: PipelineConfig,
    schedule: Schedule,
    workers: WorkerPool,
    auto_threaded_min_work: u64,
    auto_parallel_min_work: u64,
    table_rows: u64,
    shared: Arc<SharedState>,
    plan: PlanStage,
    collect: CollectStage,
    exchange: ExchangeStage,
    insert: InsertStage,
    train: TrainStage<B>,
    pool: PayloadPool,
    audit: AuditEmitter,
    faults: Option<FaultInjector>,
    telemetry: Option<Telemetry>,
}

impl<B> fmt::Debug for Pipeline<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .field("schedule", &self.schedule)
            .field("tables", &self.plan.managers().len())
            .field("audit", &self.audit.enabled())
            .finish()
    }
}

impl<B: DenseBackend + Send> Pipeline<B> {
    /// Starts building a pipeline.
    pub fn builder() -> PipelineBuilder<B> {
        PipelineBuilder::new()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The configured schedule (possibly [`Schedule::Auto`]).
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The intra-stage worker pool [`Schedule::DataParallel`] shards
    /// over (width 1 unless [`PipelineBuilder::parallelism`] widened it).
    pub fn workers(&self) -> WorkerPool {
        self.workers
    }

    /// The per-table scratchpad managers (for cache statistics).
    pub fn managers(&self) -> &[ScratchpadManager] {
        self.plan.managers()
    }

    /// The dense backend.
    pub fn backend(&self) -> &B {
        self.train.backend()
    }

    /// Consumes the pipeline and returns the trained CPU tables (call
    /// after [`Pipeline::run`], which flushes the scratchpad).
    ///
    /// # Panics
    ///
    /// Panics in analytic mode, which has no tables.
    pub fn into_tables(self) -> Vec<EmbeddingTable> {
        let Pipeline {
            shared,
            collect,
            insert,
            train,
            ..
        } = self;
        drop((collect, insert, train));
        let Ok(shared) = Arc::try_unwrap(shared) else {
            unreachable!("all stage handles dropped");
        };
        assert!(
            !shared.cpu_tables.is_empty(),
            "into_tables on an analytic pipeline"
        );
        shared
            .cpu_tables
            .into_iter()
            .map(Mutex::into_inner)
            .collect()
    }

    /// Pre-fills every table's scratchpad with the given rows (hottest
    /// first, truncated to the slot count), reproducing the steady-state
    /// cache content a long warm-up would converge to. In functional mode
    /// the row data is copied from the CPU tables, so training remains
    /// exactly equivalent to sequential execution.
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] if the table count differs
    /// or a row is out of range.
    ///
    /// # Panics
    ///
    /// Panics if called after training has started.
    pub fn prewarm(&mut self, hot_rows: &[Vec<u64>]) -> Result<(), ScratchError> {
        if hot_rows.len() != self.plan.managers().len() {
            return Err(ScratchError::InvalidConfig {
                detail: format!(
                    "prewarm covers {} tables, pipeline has {}",
                    hot_rows.len(),
                    self.plan.managers().len()
                ),
            });
        }
        for rows in hot_rows {
            if rows.iter().any(|&r| r >= self.table_rows) {
                return Err(ScratchError::InvalidConfig {
                    detail: "prewarm row out of range".to_owned(),
                });
            }
        }
        for (t, rows) in hot_rows.iter().enumerate() {
            let take = rows.len().min(self.config.slots_per_table);
            let managers = self.plan.managers_mut();
            managers[t].prewarm(&rows[..take]);
            if self.config.functional {
                for &row in &rows[..take] {
                    let slot = managers[t].lookup(row).expect("just prewarmed");
                    {
                        let mut store = self.shared.storages[t].lock();
                        let table = self.shared.cpu_tables[t].lock();
                        store.copy_row_from(slot as usize, &*table, row as usize);
                    }
                    self.shared.data_resident[t].lock()[slot as usize] = Some(row);
                }
            }
        }
        Ok(())
    }

    /// The schedule a run over `batches` would actually execute:
    /// [`Schedule::Auto`] resolves here, and [`Schedule::Threaded`] /
    /// [`Schedule::DataParallel`] are rejected in analytic mode (there is
    /// no data for the stage threads or worker shards to move, and the
    /// sync schedule counts identical cache events).
    ///
    /// # Errors
    ///
    /// Returns [`ScratchError::InvalidConfig`] for an explicit
    /// [`Schedule::Threaded`] or [`Schedule::DataParallel`] on a
    /// non-functional pipeline.
    pub fn effective_schedule(&self, batches: &[SparseBatch]) -> Result<Schedule, ScratchError> {
        let functional = self.config.functional;
        match self.schedule {
            Schedule::Threaded if !functional => Err(ScratchError::InvalidConfig {
                detail: "threaded schedule requires functional mode".to_owned(),
            }),
            Schedule::DataParallel if !functional => Err(ScratchError::InvalidConfig {
                detail: "data-parallel schedule requires functional mode".to_owned(),
            }),
            Schedule::Auto if !functional => Ok(Schedule::Sync),
            Schedule::Auto => {
                let work = batches
                    .first()
                    .map_or(0, |b| b.total_lookups() as u64 * self.config.dim as u64);
                if self.workers.threads() > 1 && work >= self.auto_parallel_min_work {
                    Ok(Schedule::DataParallel)
                } else if work >= self.auto_threaded_min_work {
                    Ok(Schedule::Threaded)
                } else {
                    Ok(Schedule::Sync)
                }
            }
            fixed => Ok(fixed),
        }
    }

    /// Runs the pipeline over `batches` under the configured schedule,
    /// then flushes the scratchpad back to the CPU tables. Emits the
    /// audit event stream if a sink is attached.
    ///
    /// Without a supervisor the first error returns as is, after the
    /// faults an armed [`FaultPlan`] fired are audited.
    ///
    /// # Errors
    ///
    /// * [`ScratchError::CapacityExhausted`] if a scratchpad is too small
    ///   for the sliding window's working set (§VI-D provisioning rule).
    /// * [`ScratchError::HazardViolation`] if hazard checking is enabled
    ///   and the window configuration admits a RAW hazard.
    /// * [`ScratchError::InvalidConfig`] if a batch disagrees with the
    ///   pipeline shape, or the schedule is invalid for this mode.
    pub fn run(&mut self, batches: &[SparseBatch]) -> Result<PipelineReport, ScratchError> {
        self.run_body(batches, None).map(|run| run.report)
    }

    /// Runs the pipeline under supervision: the trace executes in
    /// checkpointed segments ([`RecoveryPolicy::checkpoint_interval`]
    /// iterations each, default 1). Before each segment the supervisor
    /// snapshots the scratchpad managers and the dense backend and arms a
    /// first-touch undo log on the shared table state; a failing segment
    /// rolls all of it back and retries. A schedule rung that exhausts
    /// its [`RecoveryPolicy::retry_budget`] degrades down the ladder
    /// `DataParallel → Threaded → Sync` (monotonically — a degraded run
    /// never climbs back) before the run aborts.
    ///
    /// Recovery is deterministic: with an armed seeded [`FaultPlan`]
    /// whose faults are all recoverable, the returned report and the
    /// trained tables are byte-identical to a fault-free
    /// [`Pipeline::run`] over the same trace, at any worker-pool width.
    ///
    /// # Errors
    ///
    /// Everything [`Pipeline::run`] returns, plus
    /// [`ScratchError::Aborted`] when the ladder's last rung exhausts its
    /// retry budget — the scratchpad is flushed first, so the tables hold
    /// exactly the last committed segment. A policy with a zero budget or
    /// interval is rejected as [`ScratchError::InvalidConfig`].
    pub fn run_supervised(
        &mut self,
        batches: &[SparseBatch],
        policy: RecoveryPolicy,
    ) -> Result<SupervisedRun, ScratchError>
    where
        B: Clone,
    {
        if policy.retry_budget == 0 || policy.checkpoint_interval == 0 {
            return Err(ScratchError::InvalidConfig {
                detail: "recovery policy requires retry_budget >= 1 and checkpoint_interval >= 1"
                    .to_owned(),
            });
        }
        let supervisor = Supervisor {
            policy,
            snapshot_backend: B::clone,
        };
        self.run_body(batches, Some(supervisor))
    }

    /// The one run body behind [`Pipeline::run`] (no supervisor) and
    /// [`Pipeline::run_supervised`].
    fn run_body(
        &mut self,
        batches: &[SparseBatch],
        supervisor: Option<Supervisor<B>>,
    ) -> Result<SupervisedRun, ScratchError> {
        self.validate_batches(batches)?;
        let base = self.effective_schedule(batches)?;
        // Without a supervisor the run never leaves rung 0.
        let ladder: Vec<Schedule> = match base {
            Schedule::DataParallel => {
                vec![Schedule::DataParallel, Schedule::Threaded, Schedule::Sync]
            }
            Schedule::Threaded => vec![Schedule::Threaded, Schedule::Sync],
            other => vec![other],
        };
        let n = batches.len();
        // Sorted unique IDs per (batch, table): used by Plan, future
        // registration and the hazard checker.
        let uniq: Vec<Vec<Vec<u64>>> = batches
            .iter()
            .map(|b| b.bags().map(|(_, bag)| bag.unique_ids()).collect())
            .collect();
        let mut log = RunLog::new(batches, &uniq);
        let mut stats = RecoveryStats::default();

        self.audit.run_started(
            ladder[0].name(),
            n,
            self.plan.managers().len(),
            &self.config,
        );
        let run_tel = self
            .telemetry
            .as_ref()
            .map(|t| t.begin_run(&self.name, ladder[0].name()));
        let started = Instant::now();
        if let Some(inj) = &self.faults {
            let _ = inj.drain_log();
        }
        if supervisor.is_some() {
            self.shared.begin_undo();
        }
        let interval = supervisor
            .as_ref()
            .map_or(n, |sup| sup.policy.checkpoint_interval);
        let mut rung = 0usize;
        let mut seg_start = 0usize;
        let mut aborted: Option<(u32, ScratchError)> = None;
        'segments: while seg_start < n {
            let seg_end = (seg_start + interval).min(n);
            // Cheap global snapshots; per-row pre-images ride the
            // first-touch undo log instead.
            let snapshot = supervisor.as_ref().map(|sup| {
                (
                    self.plan.managers().to_vec(),
                    (sup.snapshot_backend)(self.train.backend()),
                )
            });
            let mut attempt: u32 = 0;
            loop {
                if let Some(inj) = &self.faults {
                    inj.begin_attempt(attempt);
                }
                let result = self.drive(
                    ladder[rung],
                    batches,
                    &uniq,
                    seg_start..seg_end,
                    run_tel.as_ref(),
                    &mut log,
                );
                if let Some(inj) = &self.faults {
                    for rec in inj.drain_log() {
                        stats.faults_injected += 1;
                        self.audit.fault_injected(&rec);
                    }
                }
                let Err(cause) = result else { break };
                let (Some(sup), Some((managers, backend))) = (&supervisor, &snapshot) else {
                    return Err(cause);
                };
                self.shared.rollback_undo();
                self.plan.managers_mut().clone_from_slice(managers);
                *self.train.backend_mut() = (sup.snapshot_backend)(backend);
                stats.rollbacks += 1;
                attempt += 1;
                self.audit
                    .iteration_rolled_back(seg_start, attempt, &cause.to_string());
                if attempt % sup.policy.retry_budget != 0 {
                    stats.retries += 1;
                    self.audit
                        .stage_retried(seg_start, attempt, ladder[rung].name());
                } else if rung + 1 < ladder.len() {
                    self.audit.schedule_degraded(
                        seg_start,
                        ladder[rung].name(),
                        ladder[rung + 1].name(),
                    );
                    rung += 1;
                    stats.degradations += 1;
                } else {
                    aborted = Some((attempt, cause));
                    break 'segments;
                }
            }
            if supervisor.is_some() {
                self.shared.commit_undo();
            }
            seg_start = seg_end;
        }

        // `seg_start` is now the committed prefix: the whole trace, or
        // everything before the segment that exhausted the ladder. The
        // flush lands an aborted run's tables exactly on that checkpoint.
        if supervisor.is_some() {
            self.shared.end_undo();
        }
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let schedule = ladder[rung];
        let flush_traffic = self.flush();
        let names = self.stage_names();
        log.audit(&mut self.audit, &names, seg_start);
        if let Some(tel) = &run_tel {
            if supervisor.is_some() {
                publish_recovery_counters(tel, &stats, aborted.is_some());
            }
            tel.finish_run(
                elapsed_ns,
                seg_start,
                self.workers_for(schedule).threads(),
                self.config.slots_per_table,
                self.plan.managers(),
            );
        }
        if let Some((attempts, cause)) = aborted {
            self.audit
                .run_aborted(seg_start, attempts, schedule.name(), &cause.to_string());
            return Err(ScratchError::Aborted {
                iteration: seg_start,
                attempts,
                schedule: schedule.name().to_owned(),
                cause: Box::new(cause),
            });
        }
        let report = PipelineReport {
            iterations: n,
            records: log.records,
            flush_traffic,
            peak_held_slots: self
                .plan
                .managers()
                .iter()
                .map(|m| m.stats().peak_held)
                .collect(),
        };
        self.audit
            .run_completed(&report, elapsed_ns, schedule.name());
        stats.final_schedule = Some(schedule);
        Ok(SupervisedRun { report, stats })
    }

    /// Drives `range` of the trace under `schedule` — [`drive_sync`] for
    /// Sync, Sequential and DataParallel, [`drive_threaded`] for Threaded
    /// — retiring every finished iteration into `log`.
    fn drive(
        &mut self,
        schedule: Schedule,
        batches: &[SparseBatch],
        uniq: &[Vec<Vec<u64>>],
        range: Range<usize>,
        telemetry: Option<&RunTelemetry>,
        log: &mut RunLog,
    ) -> Result<(), ScratchError> {
        let ctx = DriveCtx {
            batches,
            uniq,
            range,
            dim: self.config.dim,
            workers: self.workers_for(schedule),
            pipelined: schedule != Schedule::Sequential,
            faults: self.faults.as_ref(),
            telemetry,
        };
        let mut stages: [&mut dyn Stage; 5] = [
            &mut self.plan,
            &mut self.collect,
            &mut self.exchange,
            &mut self.insert,
            &mut self.train,
        ];
        match schedule {
            Schedule::Sync | Schedule::Sequential | Schedule::DataParallel => {
                drive_sync(&mut stages, &mut self.pool, &ctx, log)
            }
            Schedule::Threaded => drive_threaded(&mut stages, &ctx, log),
            Schedule::Auto => unreachable!("Auto resolved by effective_schedule"),
        }
    }

    /// The worker pool `schedule`'s stages shard over: data parallelism
    /// rides the register pipeline with the configured pool, every other
    /// schedule runs its shards inline.
    fn workers_for(&self, schedule: Schedule) -> WorkerPool {
        match schedule {
            Schedule::DataParallel => self.workers,
            _ => WorkerPool::inline(),
        }
    }

    /// Stage names in register order, as the audit stream keys timings.
    fn stage_names(&self) -> [&'static str; 5] {
        [
            self.plan.name(),
            self.collect.name(),
            self.exchange.name(),
            self.insert.name(),
            self.train.name(),
        ]
    }

    /// Writes every resident scratchpad row back to its CPU table and
    /// returns the traffic of doing so. Idempotent;
    /// [`Pipeline::run`] calls it automatically.
    pub fn flush(&mut self) -> Traffic {
        let mut traffic = Traffic::ZERO;
        let rb = self.shared.row_bytes();
        for (t, manager) in self.plan.managers().iter().enumerate() {
            let residents = manager.residents();
            traffic += stages::flush_traffic(residents.len() as u64, rb);
            if self.config.functional {
                // Only rows whose data actually arrived are dirty; with
                // correct windows every resident row is.
                let store = self.shared.storages[t].lock();
                let mut table = self.shared.cpu_tables[t].lock();
                let resident = self.shared.data_resident[t].lock();
                stages::flush_rows(&store, &mut table, &residents, |row, slot| {
                    resident[slot as usize] == Some(row)
                });
            }
        }
        if traffic.pcie_d2h_bytes > 0 {
            traffic.pcie_ops += 1;
        }
        traffic
    }

    fn validate_batches(&self, batches: &[SparseBatch]) -> Result<(), ScratchError> {
        let num_tables = self.plan.managers().len();
        for (i, b) in batches.iter().enumerate() {
            if b.batch_size() == 0 {
                return Err(ScratchError::InvalidConfig {
                    detail: format!("batch {i} is empty (zero samples)"),
                });
            }
            if b.num_tables() != num_tables {
                return Err(ScratchError::InvalidConfig {
                    detail: format!(
                        "batch covers {} tables, pipeline has {num_tables}",
                        b.num_tables()
                    ),
                });
            }
            for (t, bag) in b.bags() {
                if let Some(max) = bag.max_id() {
                    if max >= self.table_rows {
                        return Err(ScratchError::InvalidConfig {
                            detail: format!("table {t}: id {max} exceeds {} rows", self.table_rows),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// What [`Pipeline::run_supervised`] adds to the shared run body.
struct Supervisor<B> {
    policy: RecoveryPolicy,
    /// `B::clone`, handed in as a function so that only the supervised
    /// entry point needs `B: Clone`.
    snapshot_backend: fn(&B) -> B,
}

/// Publishes the supervisor's [`RecoveryStats`] as run-labelled absolute
/// counters, once, at run end — which is exactly what makes them equal
/// the audit stream's fault/recovery event counts.
fn publish_recovery_counters(tel: &RunTelemetry, stats: &RecoveryStats, aborted: bool) {
    tel.set_run_counter("sp_recovery_rollbacks_total", stats.rollbacks);
    tel.set_run_counter("sp_recovery_retries_total", stats.retries);
    tel.set_run_counter("sp_recovery_degradations_total", stats.degradations);
    tel.set_run_counter("sp_recovery_faults_injected_total", stats.faults_injected);
    tel.set_run_counter("sp_recovery_aborts_total", u64::from(aborted));
}

/// Everything a driver reads: one segment of the trace plus what each
/// [`StageCtx`] is built from.
struct DriveCtx<'a> {
    batches: &'a [SparseBatch],
    uniq: &'a [Vec<Vec<u64>>],
    range: Range<usize>,
    dim: usize,
    workers: WorkerPool,
    /// `false` only for the sequential straw-man, which also gates
    /// admission on an empty register file.
    pipelined: bool,
    faults: Option<&'a FaultInjector>,
    telemetry: Option<&'a RunTelemetry>,
}

impl<'a> DriveCtx<'a> {
    fn stage(&self, index: usize, lane: Lane) -> StageCtx<'a> {
        StageCtx {
            batches: self.batches,
            uniq: self.uniq,
            index,
            pipelined: self.pipelined,
            workers: self.workers,
            faults: self.faults,
            telemetry: self.telemetry,
            lane,
        }
    }
}

/// Everything a driver writes: per iteration, the record plus the stage
/// and shard timing trails the audit stream reports.
struct RunLog {
    records: Vec<IterationRecord>,
    timings: Vec<Vec<u64>>,
    shard_timings: Vec<Vec<Vec<u64>>>,
}

impl RunLog {
    /// Records pre-filled with what the trace alone determines.
    fn new(batches: &[SparseBatch], uniq: &[Vec<Vec<u64>>]) -> Self {
        let n = batches.len();
        RunLog {
            records: batches
                .iter()
                .zip(uniq)
                .enumerate()
                .map(|(index, (b, u))| IterationRecord {
                    index,
                    total_lookups: b.total_lookups() as u64,
                    unique_rows: u.iter().map(|ids| ids.len() as u64).sum(),
                    ..IterationRecord::default()
                })
                .collect(),
            timings: vec![Vec::new(); n],
            shard_timings: vec![Vec::new(); n],
        }
    }

    /// Files a payload that left the last stage: its cache counts, loss
    /// and traffic into the record, its timing trails into the log.
    fn retire(&mut self, p: &mut StagePayload) {
        let rec = &mut self.records[p.index];
        rec.hits = p.plans.iter().map(|t| t.hits).sum();
        rec.misses = p.plans.iter().map(|t| t.misses).sum();
        rec.evictions = p.plans.iter().map(|t| t.evictions.len() as u64).sum();
        rec.loss = p.loss;
        rec.traffic = p.traffic;
        self.timings[p.index] = std::mem::take(&mut p.stage_nanos);
        self.shard_timings[p.index] = std::mem::take(&mut p.stage_shards);
    }

    /// Emits the `iteration` events of the first `committed` iterations.
    fn audit(&self, audit: &mut AuditEmitter, names: &[&str], committed: usize) {
        let entries = self
            .records
            .iter()
            .zip(&self.timings)
            .zip(&self.shard_timings);
        for ((rec, nanos), shards) in entries.take(committed) {
            audit.iteration(rec, names, nanos, shards);
        }
    }
}

/// Executes `stage` on `payload`, appending the wall-clock nanoseconds to
/// the payload's timing trail and the per-shard nanos the stage reported
/// (empty for unsharded stages) to its shard trail. With telemetry
/// attached, the *same* duration integer that lands in the audit stream's
/// `stage_nanos` is recorded as the stage span and histogram observation
/// — that shared integer is what makes `audit_check --metrics` reconcile
/// exactly.
fn timed_execute(
    stage: &mut dyn Stage,
    ctx: &StageCtx<'_>,
    payload: &mut StagePayload,
) -> Result<(), ScratchError> {
    if let Some(inj) = ctx.faults {
        if let Some(e) = inj.stage_error(ctx.index, stage.name()) {
            return Err(e);
        }
    }
    payload.shard_nanos.clear();
    let span_start = ctx.telemetry.map_or(0, RunTelemetry::now_ns);
    let t0 = Instant::now();
    stage.execute(ctx, payload)?;
    let dur_ns = t0.elapsed().as_nanos() as u64;
    payload.stage_nanos.push(dur_ns);
    if let Some(tel) = ctx.telemetry {
        tel.stage_span(ctx.lane, ctx.index, stage.name(), span_start, dur_ns);
    }
    let mut shard = std::mem::take(&mut payload.shard_nanos);
    if let Some(inj) = ctx.faults {
        // Artificial slowdowns are logical time: they land in the shard
        // trail (and thus the audit stream) without sleeping.
        for (s, nanos) in inj.slowdowns(ctx.index, stage.name()) {
            if shard.is_empty() {
                shard.push(nanos);
            } else {
                let len = shard.len();
                shard[s % len] += nanos;
            }
        }
    }
    payload.stage_shards.push(shard);
    Ok(())
}

/// The register pipeline (paper Fig. 10): each cycle consumes the stage
/// registers in reverse order — so at steady state stage `s` processes
/// batch `c - s` in cycle `c` — then admits the next batch at \[Plan\].
/// Implicitly satisfies every [`StageBarrier`].
///
/// Serves Sync, DataParallel (the same cycles over a wider pool) and the
/// Sequential straw-man, which admits a batch only once every register is
/// empty: each batch leaves \[Train\] before the next enters \[Plan\].
fn drive_sync(
    stages: &mut [&mut dyn Stage],
    pool: &mut PayloadPool,
    ctx: &DriveCtx<'_>,
    log: &mut RunLog,
) -> Result<(), ScratchError> {
    let k = stages.len();
    // regs[s] holds the payload that stage s produced last cycle.
    let mut regs: Vec<Option<StagePayload>> = (0..k).map(|_| None).collect();
    let mut next = ctx.range.start;
    loop {
        for s in (1..k).rev() {
            if let Some(mut p) = regs[s - 1].take() {
                timed_execute(stages[s], &ctx.stage(p.index, Lane::Main), &mut p)?;
                if s == k - 1 {
                    log.retire(&mut p);
                    pool.release(p);
                } else {
                    regs[s] = Some(p);
                }
            }
        }
        let drained = regs.iter().all(Option::is_none);
        if next < ctx.range.end && (ctx.pipelined || drained) {
            let mut p = pool.take(ctx.dim);
            timed_execute(stages[0], &ctx.stage(next, Lane::Main), &mut p)?;
            regs[0] = Some(p);
            next += 1;
        } else if drained {
            break;
        }
    }
    Ok(())
}

/// The concurrent schedule: one OS thread per stage, bounded data
/// channels between adjacent stages, retired payloads recycled back to
/// the first stage, and each stage's declared [`StageBarrier`]s enforced
/// as watermark waits (a watched stage broadcasts each completed batch
/// index; the waiter blocks until `completed >= i - lag`).
///
/// Any stage error is stored (first wins) and shuts the pipeline down
/// through channel disconnection.
fn drive_threaded(
    stages: &mut [&mut dyn Stage],
    ctx: &DriveCtx<'_>,
    log: &mut RunLog,
) -> Result<(), ScratchError> {
    let k = stages.len();
    assert!(k >= 2, "threaded schedule needs at least two stages");

    // Resolve barrier names to stage indices and wire one watermark
    // channel per (waiter, watched) pair. Each wait keeps the watched
    // stage's name so a blocking wait can be recorded as a stall span.
    let names: Vec<&'static str> = stages.iter().map(|s| s.name()).collect();
    let mut waits: Vec<Vec<(Receiver<usize>, i64, &'static str)>> =
        (0..k).map(|_| Vec::new()).collect();
    let mut signals: Vec<Vec<Sender<usize>>> = (0..k).map(|_| Vec::new()).collect();
    for s in 0..k {
        for barrier in stages[s].barriers() {
            let watched = names
                .iter()
                .position(|&nm| nm == barrier.after)
                .ok_or_else(|| ScratchError::InvalidConfig {
                    detail: format!(
                        "stage {} declares a barrier on unknown stage {}",
                        names[s], barrier.after
                    ),
                })?;
            let (tx, rx) = unbounded::<usize>();
            signals[watched].push(tx);
            waits[s].push((rx, barrier.lag as i64, names[watched]));
        }
    }

    // Data channels between adjacent stages (depth 2, like the register
    // file's one-in-flight-plus-one-ready occupancy), plus the recycle
    // path from the last stage back to the first.
    let mut txs: Vec<Option<Sender<StagePayload>>> = (0..k).map(|_| None).collect();
    let mut rxs: Vec<Option<Receiver<StagePayload>>> = (0..k).map(|_| None).collect();
    for s in 0..k - 1 {
        let (tx, rx) = bounded::<StagePayload>(2);
        txs[s] = Some(tx);
        rxs[s + 1] = Some(rx);
    }
    let (recycle_tx, recycle_rx) = unbounded::<StagePayload>();

    // The first stage error wins; later ones are consequences of it.
    let error: Mutex<Option<ScratchError>> = Mutex::new(None);
    let store_error = |e: ScratchError| {
        error.lock().get_or_insert(e);
    };

    let telemetry = ctx.telemetry;
    let watermark_floor = ctx.range.start as i64 - 1;
    std::thread::scope(|scope| {
        let mut sink = Some(log);
        let mut recycle_rx = Some(recycle_rx);
        let mut recycle_tx = Some(recycle_tx);
        let stage_iter = stages
            .iter_mut()
            .zip(rxs)
            .zip(txs)
            .zip(waits)
            .zip(signals)
            .enumerate();
        for (s, ((((stage, rx), tx), stage_waits), stage_signals)) in stage_iter {
            // Copy the downstream stage's name out of `names` so the
            // `move` closure captures one `&'static str`, not the Vec.
            let downstream = (s + 1 < k).then(|| names[s + 1]);
            let lane = Lane::Stage(s as u8);
            // The first stage sources the trace, reusing the payloads the
            // last stage retires into the log and recycles.
            let recycled = if s == 0 { recycle_rx.take() } else { None };
            let (mut log, recycle) = if s == k - 1 {
                (sink.take(), recycle_tx.take())
            } else {
                (None, None)
            };
            scope.spawn(move || {
                let mut trace = ctx.range.clone();
                // Batches before the driven range committed in earlier
                // segments, so their watermarks are already satisfied.
                let mut done: Vec<i64> = vec![watermark_floor; stage_waits.len()];
                loop {
                    let (i, mut p) = match (&rx, &recycled) {
                        (Some(rx), _) => match rx.recv() {
                            Ok(p) => (p.index, p),
                            Err(_) => return,
                        },
                        (None, Some(recycled)) => {
                            let Some(i) = trace.next() else { return };
                            // An empty recycle path just mints a payload; a
                            // disconnected one means the sink died early and
                            // must surface as an explicit error, not silent
                            // fresh-payload churn.
                            match recycled.try_recv() {
                                Ok(p) => (i, p),
                                Err(TryRecvError::Empty) => (i, StagePayload::new(ctx.dim)),
                                Err(TryRecvError::Disconnected) => {
                                    store_error(ScratchError::ChannelDisconnected {
                                        stage: stage.name().to_owned(),
                                    });
                                    return;
                                }
                            }
                        }
                        (None, None) => unreachable!("every stage has an input"),
                    };
                    for (w, (wrx, lag, watched)) in stage_waits.iter().enumerate() {
                        if done[w] >= i as i64 - lag {
                            continue;
                        }
                        // Only waits that actually block become stall
                        // spans — a satisfied watermark costs nothing.
                        let stall_start = telemetry.map(RunTelemetry::now_ns);
                        while done[w] < i as i64 - lag {
                            match wrx.recv() {
                                Ok(completed) => done[w] = completed as i64,
                                Err(_) => return,
                            }
                        }
                        if let (Some(tel), Some(start)) = (telemetry, stall_start) {
                            tel.barrier_stall(lane, i, stage.name(), watched, start);
                        }
                    }
                    if let Err(e) = timed_execute(*stage, &ctx.stage(i, lane), &mut p) {
                        store_error(e);
                        return;
                    }
                    let retired = match &tx {
                        Some(tx) => {
                            if tx.send(p).is_err() {
                                return;
                            }
                            if let (Some(tel), Some(receiver)) = (telemetry, downstream) {
                                tel.channel_depth(receiver, tx.len() as u64);
                            }
                            None
                        }
                        None => {
                            log.as_mut().expect("one sink stage").retire(&mut p);
                            Some(p)
                        }
                    };
                    for sig in &stage_signals {
                        let _ = sig.send(i);
                    }
                    if let (Some(recycle), Some(p)) = (&recycle, retired) {
                        let _ = recycle.send(p);
                    }
                }
            });
        }
    });

    // All stage threads joined at scope exit.
    error.into_inner().map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::UnitBackend;
    use crate::config::WindowConfig;
    use crate::runtime::train_direct;
    use embeddings::TableBag;
    use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

    fn make_tables(num: usize, rows: usize, dim: usize) -> Vec<EmbeddingTable> {
        (0..num)
            .map(|t| EmbeddingTable::seeded(rows, dim, 1000 + t as u64))
            .collect()
    }

    fn trace(profile: LocalityProfile, n: usize) -> (TraceConfig, Vec<SparseBatch>) {
        let cfg = TraceConfig {
            num_tables: 3,
            rows_per_table: 400,
            lookups_per_sample: 4,
            batch_size: 8,
            profile,
            seed: 11,
        };
        (cfg, TraceGenerator::new(cfg).take_batches(n))
    }

    fn functional(
        config: PipelineConfig,
        tables: Vec<EmbeddingTable>,
        schedule: Schedule,
    ) -> Pipeline<UnitBackend> {
        Pipeline::builder()
            .config(config)
            .tables(tables)
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .build()
            .unwrap()
    }

    /// The headline correctness test: pipelined ScratchPipe produces
    /// bit-identical tables to direct sequential training.
    #[test]
    fn pipelined_training_is_bit_identical_to_sequential() {
        for profile in [LocalityProfile::Random, LocalityProfile::High] {
            let (tcfg, batches) = trace(profile, 25);
            let dim = 8;
            let mut direct_tables = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
            let mut direct_backend = UnitBackend::new(0.05);
            let _ = train_direct(&mut direct_tables, &batches, &mut direct_backend);

            let config = PipelineConfig::functional(dim, 200);
            let sp_tables = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
            let mut pipe = functional(config, sp_tables, Schedule::Sync);
            let report = pipe.run(&batches).unwrap();
            assert_eq!(report.iterations, 25);
            let sp_tables = pipe.into_tables();
            for (t, (a, b)) in direct_tables.iter().zip(&sp_tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{profile:?}: table {t} diverged at row {:?}",
                    a.first_diff_row(b)
                );
            }
        }
    }

    #[test]
    fn threaded_pipeline_is_bit_identical_to_sequential() {
        for profile in [LocalityProfile::Random, LocalityProfile::High] {
            let cfg = TraceConfig {
                num_tables: 3,
                rows_per_table: 300,
                lookups_per_sample: 4,
                batch_size: 8,
                profile,
                seed: 21,
            };
            let batches = TraceGenerator::new(cfg).take_batches(40);
            let mut direct = make_tables(3, 300, 8);
            let direct_losses = train_direct(&mut direct, &batches, &mut UnitBackend::new(0.05));

            // §VI-D worst case: 6 windowed batches × 8 samples × 4 lookups
            // = 192 unique rows can be held at once; provision for all of
            // them so the test is independent of the trace's RNG stream.
            let mut pipe = functional(
                PipelineConfig::functional(8, 192),
                make_tables(3, 300, 8),
                Schedule::Threaded,
            );
            let report = pipe.run(&batches).unwrap();
            let threaded = pipe.into_tables();
            for (t, (a, b)) in direct.iter().zip(&threaded).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{profile:?} table {t} diverged at {:?}",
                    a.first_diff_row(b)
                );
            }
            assert_eq!(direct_losses.len(), report.records.len());
            for (a, r) in direct_losses.iter().zip(&report.records) {
                assert_eq!(a.to_bits(), r.loss.to_bits());
            }
        }
    }

    #[test]
    fn strawman_sequential_window_is_also_bit_identical() {
        let (tcfg, batches) = trace(LocalityProfile::Medium, 20);
        let dim = 8;
        let mut direct_tables = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
        let _ = train_direct(&mut direct_tables, &batches, &mut UnitBackend::new(0.05));

        let config = PipelineConfig::functional(dim, 64).sequential();
        let mut pipe = functional(
            config,
            make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim),
            Schedule::Sequential,
        );
        let _ = pipe.run(&batches).unwrap();
        let sp = pipe.into_tables();
        for (a, b) in direct_tables.iter().zip(&sp) {
            assert!(a.bit_eq(b));
        }
    }

    #[test]
    fn always_hit_property_holds() {
        // With correct windows the hazard checker (which contains the
        // always-hit assertion) never fires, and the hit rate matches the
        // plan-stage accounting.
        let (_, batches) = trace(LocalityProfile::High, 30);
        let mut pipe = functional(
            PipelineConfig::functional(8, 200),
            make_tables(3, 400, 8),
            Schedule::Sync,
        );
        let report = pipe.run(&batches).unwrap();
        assert!(report.hit_rate() > 0.0);
        assert_eq!(report.records.len(), 30);
    }

    /// Negative test: break the future window and feed an adversarial
    /// trace. The hazard checker must catch the RAW-4 eviction.
    #[test]
    fn broken_future_window_is_detected() {
        // Adversarial trace on one table, two slots:
        //   batch 0: {1, 2}   (fills slots 0, 1)
        //   batch 1: {3}      (must evict; with future=0 it may evict 1 or 2)
        //   batch 2: {1, 2}   (needs whichever was evicted → RAW-4)
        let mk = |ids: &[u64]| SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])]);
        let batches = vec![mk(&[1, 2]), mk(&[3]), mk(&[1, 2])];
        let config =
            PipelineConfig::functional(4, 2).with_window(WindowConfig { past: 0, future: 0 });
        let mut pipe = functional(config, make_tables(1, 10, 4), Schedule::Sync);
        let err = pipe.run(&batches).unwrap_err();
        assert!(
            matches!(err, ScratchError::HazardViolation { .. }),
            "expected hazard violation, got {err:?}"
        );
    }

    /// Negative test without the checker: the same broken window must
    /// produce *numerically different* tables than sequential training —
    /// demonstrating the Hold-mask mechanism is load-bearing.
    #[test]
    fn broken_window_without_checker_diverges_numerically() {
        let mk = |ids: &[u64]| SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])]);
        // Row 1 is trained by batch 0, evicted by batch 1 (write-back in
        // flight), then batch 2 re-fetches it from the CPU table *before*
        // the write-back lands → it trains on stale data.
        let batches = vec![mk(&[1, 2]), mk(&[3]), mk(&[1]), mk(&[4]), mk(&[1])];
        let mut direct_tables = make_tables(1, 10, 4);
        let _ = train_direct(&mut direct_tables, &batches, &mut UnitBackend::new(0.3));

        let mut config =
            PipelineConfig::functional(4, 2).with_window(WindowConfig { past: 0, future: 0 });
        config.check_hazards = false;
        let mut pipe = Pipeline::builder()
            .config(config)
            .tables(make_tables(1, 10, 4))
            .backend(UnitBackend::new(0.3))
            .schedule(Schedule::Sync)
            .build()
            .unwrap();
        let _ = pipe.run(&batches).unwrap();
        let sp = pipe.into_tables();
        assert!(
            !direct_tables[0].bit_eq(&sp[0]),
            "broken window should corrupt training"
        );
    }

    #[test]
    fn capacity_exhaustion_reports_table() {
        let mk = |ids: &[u64]| SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])]);
        let batches = vec![mk(&[1, 2]), mk(&[3, 4])];
        let mut pipe = functional(
            PipelineConfig::functional(4, 2),
            make_tables(1, 10, 4),
            Schedule::Sync,
        );
        let err = pipe.run(&batches).unwrap_err();
        assert!(matches!(
            err,
            ScratchError::CapacityExhausted { table: 0, .. }
        ));
    }

    #[test]
    fn threaded_capacity_error_propagates() {
        let cfg = TraceConfig {
            num_tables: 1,
            rows_per_table: 1000,
            lookups_per_sample: 8,
            batch_size: 16,
            profile: LocalityProfile::Random,
            seed: 1,
        };
        let batches = TraceGenerator::new(cfg).take_batches(10);
        let mut pipe = functional(
            PipelineConfig::functional(8, 4), // far too small
            make_tables(1, 1000, 8),
            Schedule::Threaded,
        );
        let err = pipe.run(&batches).unwrap_err();
        assert!(matches!(err, ScratchError::CapacityExhausted { .. }));
    }

    #[test]
    fn traffic_accounting_is_consistent() {
        let (_, batches) = trace(LocalityProfile::Medium, 12);
        let mut pipe = functional(
            PipelineConfig::functional(8, 150),
            make_tables(3, 400, 8),
            Schedule::Sync,
        );
        let report = pipe.run(&batches).unwrap();
        let total = report.total_traffic();
        // Misses flow CPU→GPU: collect reads = exchange h2d = insert fills.
        assert_eq!(
            total.collect.cpu_random_read_bytes,
            total.exchange.pcie_h2d_bytes
        );
        assert_eq!(
            total.exchange.pcie_h2d_bytes,
            total.insert.gpu_random_write_bytes
        );
        // Evictions flow GPU→CPU symmetrically.
        assert_eq!(
            total.collect.gpu_random_read_bytes,
            total.exchange.pcie_d2h_bytes
        );
        assert_eq!(
            total.exchange.pcie_d2h_bytes,
            total.insert.cpu_random_write_bytes
        );
        // Train traffic is pure GPU.
        assert_eq!(total.train.cpu_bytes(), 0);
        assert!(total.train.gpu_bytes() > 0);
    }

    #[test]
    fn analytic_mode_counts_identical_cache_events() {
        let (tcfg, batches) = trace(LocalityProfile::Low, 15);
        let functional_report = {
            let mut pipe = functional(
                PipelineConfig::functional(8, 150),
                make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, 8),
                Schedule::Sync,
            );
            pipe.run(&batches).unwrap()
        };
        let analytic = {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::analytic(8, 150))
                .analytic_tables(tcfg.num_tables, tcfg.rows_per_table)
                .backend(UnitBackend::new(0.01))
                .schedule(Schedule::Sync)
                .build()
                .unwrap();
            pipe.run(&batches).unwrap()
        };
        for (f, a) in functional_report.records.iter().zip(&analytic.records) {
            assert_eq!(f.hits, a.hits, "iteration {}", f.index);
            assert_eq!(f.misses, a.misses);
            assert_eq!(f.evictions, a.evictions);
            assert_eq!(f.traffic.exchange, a.traffic.exchange);
        }
    }

    #[test]
    fn higher_locality_yields_higher_hit_rate() {
        let run = |p| {
            let (tcfg, batches) = trace(p, 30);
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::analytic(8, 160)) // 40 % of 400 rows
                .analytic_tables(tcfg.num_tables, tcfg.rows_per_table)
                .backend(UnitBackend::new(0.01))
                .build()
                .unwrap();
            pipe.run(&batches).unwrap().hit_rate()
        };
        let low = run(LocalityProfile::Random);
        let high = run(LocalityProfile::High);
        assert!(high > low + 0.1, "high {high} vs random {low}");
    }

    #[test]
    fn report_helpers() {
        let (_, batches) = trace(LocalityProfile::Medium, 10);
        let mut pipe = functional(
            PipelineConfig::functional(8, 150),
            make_tables(3, 400, 8),
            Schedule::Sync,
        );
        let report = pipe.run(&batches).unwrap();
        assert_eq!(report.records.len(), 10);
        let steady = report.steady_traffic(4);
        assert!(steady.train.gpu_bytes() > 0);
        assert!(report.records[0].dup_ratio() >= 1.0);
        assert_eq!(report.peak_held_slots.len(), 3);
        assert!(report.peak_held_slots.iter().all(|&p| p > 0));
        let _ = report.mean_loss();
    }

    #[test]
    fn mismatched_batch_rejected() {
        let mut pipe = functional(
            PipelineConfig::functional(8, 50),
            make_tables(2, 100, 8),
            Schedule::Sync,
        );
        let bad = SparseBatch::from_rows(1, &[vec![vec![1]]]);
        assert!(matches!(
            pipe.run(&[bad]),
            Err(ScratchError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn out_of_range_id_rejected() {
        let mut pipe = functional(
            PipelineConfig::functional(8, 50),
            make_tables(1, 100, 8),
            Schedule::Sync,
        );
        let bad = SparseBatch::from_rows(1, &[vec![vec![100]]]);
        assert!(matches!(
            pipe.run(&[bad]),
            Err(ScratchError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_trace_is_fine() {
        for schedule in [
            Schedule::Sync,
            Schedule::Sequential,
            Schedule::Threaded,
            Schedule::DataParallel,
        ] {
            let mut pipe = functional(
                PipelineConfig::functional(8, 50),
                make_tables(1, 100, 8),
                schedule,
            );
            let report = pipe.run(&[]).unwrap();
            assert_eq!(report.iterations, 0);
        }
    }

    #[test]
    fn empty_trace_returns_tables_unchanged() {
        let tables = make_tables(2, 100, 8);
        let expect = tables.clone();
        let mut pipe = functional(
            PipelineConfig::functional(8, 50),
            tables,
            Schedule::Threaded,
        );
        let report = pipe.run(&[]).unwrap();
        assert!(report.records.is_empty());
        let out = pipe.into_tables();
        for (a, b) in expect.iter().zip(&out) {
            assert!(a.bit_eq(b));
        }
    }

    #[test]
    fn eviction_policies_all_train_correctly() {
        use crate::policy::EvictionPolicy;
        let (tcfg, batches) = trace(LocalityProfile::Medium, 20);
        let dim = 8;
        let mut direct = make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim);
        let _ = train_direct(&mut direct, &batches, &mut UnitBackend::new(0.05));
        for policy in EvictionPolicy::ALL {
            let config = PipelineConfig::functional(dim, 150).with_policy(policy);
            let mut pipe = functional(
                config,
                make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim),
                Schedule::Sync,
            );
            let _ = pipe.run(&batches).unwrap();
            let sp = pipe.into_tables();
            for (a, b) in direct.iter().zip(&sp) {
                assert!(a.bit_eq(b), "policy {policy} diverged");
            }
        }
    }

    #[test]
    fn threaded_report_carries_stage_traffic() {
        let cfg = TraceConfig {
            num_tables: 2,
            rows_per_table: 200,
            lookups_per_sample: 4,
            batch_size: 8,
            profile: LocalityProfile::Medium,
            seed: 4,
        };
        let batches = TraceGenerator::new(cfg).take_batches(12);
        let mut pipe = functional(
            PipelineConfig::functional(8, 130),
            make_tables(2, 200, 8),
            Schedule::Threaded,
        );
        let report = pipe.run(&batches).unwrap();
        assert_eq!(report.iterations, 12);
        let total = report.total_traffic();
        assert!(total.plan.pcie_h2d_bytes > 0, "plan uploads sparse IDs");
        assert!(total.train.gpu_bytes() > 0, "train is pure GPU work");
        // Miss flow is conserved: collect reads = exchange h2d = insert fills.
        assert_eq!(
            total.collect.cpu_random_read_bytes,
            total.exchange.pcie_h2d_bytes
        );
        assert_eq!(
            total.exchange.pcie_h2d_bytes,
            total.insert.gpu_random_write_bytes
        );
        assert!(report.hit_rate() > 0.0);
        assert_eq!(report.peak_held_slots.len(), 2);
    }

    #[test]
    fn analytic_mode_rejects_threaded_schedule() {
        for schedule in [Schedule::Threaded, Schedule::DataParallel] {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::analytic(8, 100))
                .analytic_tables(1, 100)
                .backend(UnitBackend::new(0.05))
                .schedule(schedule)
                .build()
                .unwrap();
            let err = pipe.run(&[]).unwrap_err();
            assert!(matches!(err, ScratchError::InvalidConfig { .. }));
        }
    }

    /// The data-parallel schedule is bit-identical to sync at every pool
    /// width — the worker-pool sharding never splits a floating-point
    /// reduction, so the width is invisible in the results.
    #[test]
    fn data_parallel_is_bit_identical_at_any_width() {
        let (tcfg, batches) = trace(LocalityProfile::Medium, 25);
        let dim = 8;
        let run = |schedule, parallelism| {
            let mut pipe = Pipeline::builder()
                .config(PipelineConfig::functional(dim, 192))
                .tables(make_tables(
                    tcfg.num_tables,
                    tcfg.rows_per_table as usize,
                    dim,
                ))
                .backend(UnitBackend::new(0.05))
                .schedule(schedule)
                .parallelism(parallelism)
                .build()
                .unwrap();
            let report = pipe.run(&batches).unwrap();
            (report, pipe.into_tables())
        };
        let (sync_report, sync_tables) = run(Schedule::Sync, 1);
        for width in [1, 2, 4, 7] {
            let (dp_report, dp_tables) = run(Schedule::DataParallel, width);
            for (s, d) in sync_report.records.iter().zip(&dp_report.records) {
                assert_eq!(s.hits, d.hits, "width {width}");
                assert_eq!(s.traffic, d.traffic, "width {width}");
                assert_eq!(s.loss.to_bits(), d.loss.to_bits(), "width {width}");
            }
            assert_eq!(sync_report.flush_traffic, dp_report.flush_traffic);
            assert_eq!(sync_report.peak_held_slots, dp_report.peak_held_slots);
            for (a, b) in sync_tables.iter().zip(&dp_tables) {
                assert!(a.bit_eq(b), "width {width}");
            }
        }
    }

    fn auto_pipe(parallelism: usize) -> (Pipeline<UnitBackend>, Vec<SparseBatch>) {
        // Big shape: 256 samples × 8 lookups × 4 tables × dim 32
        // = 262 144 elements per iteration — above both default floors.
        let cfg = TraceConfig {
            num_tables: 4,
            rows_per_table: 5_000,
            lookups_per_sample: 8,
            batch_size: 256,
            profile: LocalityProfile::Medium,
            seed: 9,
        };
        let big = TraceGenerator::new(cfg).take_batches(1);
        let pipe = Pipeline::builder()
            .config(PipelineConfig::functional(32, 4_000))
            .tables(make_tables(4, 5_000, 32))
            .backend(UnitBackend::new(0.05))
            .schedule(Schedule::Auto)
            .parallelism(parallelism)
            .build()
            .unwrap();
        (pipe, big)
    }

    #[test]
    fn auto_schedule_scales_with_per_iteration_work() {
        // Small shape: 8 samples × 4 lookups × 3 tables × dim 8 = 768
        // f32 elements per iteration — far below the crossover, so Auto
        // stays synchronous regardless of pool width.
        let (_, small) = trace(LocalityProfile::Medium, 2);
        let pipe = functional(
            PipelineConfig::functional(8, 150),
            make_tables(3, 400, 8),
            Schedule::Auto,
        );
        assert_eq!(pipe.effective_schedule(&small).unwrap(), Schedule::Sync);
        assert_eq!(pipe.effective_schedule(&[]).unwrap(), Schedule::Sync);

        // Big shape with a width-1 pool: Auto goes threaded — data
        // parallelism has nothing to shard over.
        let (pipe, big) = auto_pipe(1);
        assert_eq!(pipe.effective_schedule(&big).unwrap(), Schedule::Threaded);

        // Same shape with a wider pool: Auto upgrades to data-parallel.
        let (pipe, big) = auto_pipe(4);
        assert_eq!(
            pipe.effective_schedule(&big).unwrap(),
            Schedule::DataParallel
        );

        // Analytic pipelines always resolve to sync.
        let analytic = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::analytic(32, 4_000))
            .analytic_tables(4, 5_000)
            .backend(UnitBackend::new(0.05))
            .build()
            .unwrap();
        assert_eq!(analytic.effective_schedule(&big).unwrap(), Schedule::Sync);
    }

    #[test]
    fn auto_thresholds_are_overridable_on_both_sides() {
        // Work for this shape: 256 × 8 × 4 × 32 = 262 144 elements.
        let work = 262_144u64;

        // Threaded floor, width-1 pool. Exactly at the floor → Threaded;
        // one element above the work → Sync.
        let mk = |parallelism: usize, threaded: u64, parallel: u64| {
            let cfg = TraceConfig {
                num_tables: 4,
                rows_per_table: 5_000,
                lookups_per_sample: 8,
                batch_size: 256,
                profile: LocalityProfile::Medium,
                seed: 9,
            };
            let big = TraceGenerator::new(cfg).take_batches(1);
            let pipe = Pipeline::builder()
                .config(PipelineConfig::functional(32, 4_000))
                .tables(make_tables(4, 5_000, 32))
                .backend(UnitBackend::new(0.05))
                .schedule(Schedule::Auto)
                .parallelism(parallelism)
                .auto_threaded_min_work(threaded)
                .auto_parallel_min_work(parallel)
                .build()
                .unwrap();
            pipe.effective_schedule(&big).unwrap()
        };
        assert_eq!(mk(1, work, u64::MAX), Schedule::Threaded);
        assert_eq!(mk(1, work + 1, u64::MAX), Schedule::Sync);

        // Parallel floor, width-4 pool. At the floor → DataParallel; one
        // above → falls back to the threaded decision.
        assert_eq!(mk(4, 0, work), Schedule::DataParallel);
        assert_eq!(mk(4, 0, work + 1), Schedule::Threaded);
        assert_eq!(mk(4, work + 1, work + 1), Schedule::Sync);

        // A wide pool never matters below the parallel floor with a
        // width-1 pool equivalent: parallel floor met but width 1 → the
        // threaded path decides.
        assert_eq!(mk(1, 0, work), Schedule::Threaded);
    }

    #[test]
    fn builder_rejects_inconsistent_setups() {
        let missing_config = Pipeline::<UnitBackend>::builder()
            .tables(make_tables(1, 10, 4))
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(missing_config.is_err());

        let missing_backend = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(4, 10))
            .tables(make_tables(1, 10, 4))
            .build();
        assert!(missing_backend.is_err());

        let no_tables = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(4, 10))
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(no_tables.is_err());

        let both = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(4, 10))
            .tables(make_tables(1, 10, 4))
            .analytic_tables(1, 10)
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(both.is_err());

        let dim_mismatch = Pipeline::<UnitBackend>::builder()
            .config(PipelineConfig::functional(8, 10))
            .tables(make_tables(1, 10, 4))
            .backend(UnitBackend::new(0.1))
            .build();
        assert!(dim_mismatch.is_err());
    }

    #[test]
    fn sync_and_threaded_reports_are_identical() {
        let (tcfg, batches) = trace(LocalityProfile::Medium, 30);
        let dim = 8;
        let run = |schedule| {
            let mut pipe = functional(
                PipelineConfig::functional(dim, 192),
                make_tables(tcfg.num_tables, tcfg.rows_per_table as usize, dim),
                schedule,
            );
            let report = pipe.run(&batches).unwrap();
            (report, pipe.into_tables())
        };
        let (sync_report, sync_tables) = run(Schedule::Sync);
        let (thr_report, thr_tables) = run(Schedule::Threaded);
        for (s, t) in sync_report.records.iter().zip(&thr_report.records) {
            assert_eq!(s.hits, t.hits);
            assert_eq!(s.traffic, t.traffic);
            assert_eq!(s.loss.to_bits(), t.loss.to_bits());
        }
        assert_eq!(sync_report.flush_traffic, thr_report.flush_traffic);
        assert_eq!(sync_report.peak_held_slots, thr_report.peak_held_slots);
        for (a, b) in sync_tables.iter().zip(&thr_tables) {
            assert!(a.bit_eq(b));
        }
    }
}

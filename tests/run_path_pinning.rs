//! Run-path pinning — the observable output of every (schedule, run
//! kind) pair, frozen as recorded values.
//!
//! [`Pipeline::run`] and [`Pipeline::run_supervised`] share one run body
//! and every register schedule shares one driver; this suite pins what
//! they emit so that any change to that shared code which moves a single
//! byte of output fails here. For each of Sequential, Sync, Threaded and
//! DataParallel (width 2) it runs:
//!
//! * a plain `run`;
//! * a fault-free `run_supervised`;
//! * a `run_supervised` under a recoverable [`FaultPlan`];
//! * a `run_supervised` that aborts (`retry_budget: 1`, a persistent
//!   fault at iteration [`ABORT_AT`]).
//!
//! Each run is reduced to four FNV-1a hashes: the report JSON (or, for
//! the abort, the error's `Debug` rendering), the telemetry
//! [`deterministic_digest`](Telemetry::deterministic_digest), the audit
//! stream with its wall-clock and per-process fields (`run_id`,
//! `elapsed_ns`, `stage_nanos`, `stage_shards`) removed, and the trained
//! tables' bit patterns. The aborted runs are additionally checked
//! against `train_direct` over the committed prefix.
//!
//! On a mismatch the failure message prints the full table of actual
//! values in the same layout as [`PINS`].

use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::runtime::train_direct;
use scratchpipe::{
    Fault, FaultKind, FaultPlan, MemorySink, Pipeline, PipelineConfig, RecoveryPolicy, Schedule,
    ScratchError, Telemetry, UnitBackend,
};
use serde::Value;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const N: usize = 12;
const DIM: usize = 8;
const ROWS: usize = 400;
const ABORT_AT: usize = 3;

/// `(schedule, run kind, report-or-error, telemetry digest, masked audit
/// stream, tables)` — FNV-1a 64 hashes.
#[rustfmt::skip]
const PINS: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("sequential", "plain", 0x2b1696bbffaf6a3d, 0xb5dbf465c5326af1, 0x9d7e5d16bd3d2ce0, 0xc97d593c43f82a99),
    ("sequential", "supervised", 0x2b1696bbffaf6a3d, 0xb6cd5fbaa6e7dfb6, 0x9d7e5d16bd3d2ce0, 0xc97d593c43f82a99),
    ("sequential", "recovered", 0x2b1696bbffaf6a3d, 0x019644fdf0a6d848, 0x8171222f194bbfdd, 0xc97d593c43f82a99),
    ("sequential", "aborted", 0x00d1e714601f68b1, 0xc520911e6951cc89, 0x9dbe1fd2b3dbbd5e, 0x269476cd29a7fb6b),
    ("sync", "plain", 0x2b1696bbffaf6a3d, 0x6db572729670db35, 0xf0f6f072b184f9f0, 0xc97d593c43f82a99),
    ("sync", "supervised", 0x2b1696bbffaf6a3d, 0x1a5f0e4444fe730a, 0xf0f6f072b184f9f0, 0xc97d593c43f82a99),
    ("sync", "recovered", 0x2b1696bbffaf6a3d, 0x953f33dc1883acc4, 0xb6e283777d61203d, 0xc97d593c43f82a99),
    ("sync", "aborted", 0x4f9755680a83a979, 0x0430fc5d33e86205, 0xbab3b0dd6e91b026, 0x269476cd29a7fb6b),
    ("threaded", "plain", 0x2b1696bbffaf6a3d, 0x78007ef42af3082e, 0x0565a5f9fdb730b0, 0xc97d593c43f82a99),
    ("threaded", "supervised", 0x2b1696bbffaf6a3d, 0xb37f7d0009814936, 0x0565a5f9fdb730b0, 0xc97d593c43f82a99),
    ("threaded", "recovered", 0x2b1696bbffaf6a3d, 0xfe94098b8bd152b8, 0x0844e9e7a09d4703, 0xc97d593c43f82a99),
    ("threaded", "aborted", 0x6188d7b64acc9472, 0x4a6efbb1add1da67, 0xb71a741497c55482, 0x269476cd29a7fb6b),
    ("data_parallel", "plain", 0x2b1696bbffaf6a3d, 0xd5d1253d9275890d, 0x5693c617811d24c4, 0xc97d593c43f82a99),
    ("data_parallel", "supervised", 0x2b1696bbffaf6a3d, 0xe98c95a959ceba5e, 0x5693c617811d24c4, 0xc97d593c43f82a99),
    ("data_parallel", "recovered", 0x2b1696bbffaf6a3d, 0x8b102254a515103e, 0xfa133fe5295617de, 0xc97d593c43f82a99),
    ("data_parallel", "aborted", 0xe204d02d5d0d0613, 0x69967a42823dbae0, 0x563f7e38f14f8e80, 0x269476cd29a7fb6b),
];

fn trace() -> Vec<SparseBatch> {
    let tc = TraceConfig {
        num_tables: 3,
        rows_per_table: ROWS as u64,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 0x5EED,
    };
    TraceGenerator::new(tc).take_batches(N)
}

fn tables() -> Vec<EmbeddingTable> {
    (0..3)
        .map(|t| EmbeddingTable::seeded(ROWS, DIM, 300 + t))
        .collect()
}

fn fault(iteration: usize, stage: &str, shard: usize, kind: FaultKind, fires: u32) -> Fault {
    Fault {
        iteration,
        stage: stage.to_owned(),
        shard,
        kind,
        fires,
        slow_nanos: if kind == FaultKind::SlowShard {
            5_000
        } else {
            0
        },
    }
}

/// One fault of every kind, each firing fewer times than the default
/// retry budget of 3.
fn recoverable_plan() -> FaultPlan {
    FaultPlan::new(vec![
        fault(1, "Plan", 0, FaultKind::StageError, 2),
        fault(4, "Collect", 1, FaultKind::WorkerPanic, 1),
        fault(6, "Collect", 0, FaultKind::CorruptPayload, 1),
        fault(2, "Train", 1, FaultKind::SlowShard, 1),
        fault(8, "Insert", 0, FaultKind::StageError, 1),
    ])
}

fn abort_plan() -> FaultPlan {
    FaultPlan::new(vec![fault(
        ABORT_AT,
        "Plan",
        0,
        FaultKind::StageError,
        u32::MAX,
    )])
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn tables_hash(tables: &[EmbeddingTable]) -> u64 {
    let mut bytes = Vec::new();
    for t in tables {
        for x in t.as_flat() {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv(&bytes)
}

/// The audit stream with every wall-clock or per-process field removed,
/// one re-serialized line per event.
fn masked_audit(lines: &[String]) -> String {
    const MASKED: [&str; 4] = ["run_id", "elapsed_ns", "stage_nanos", "stage_shards"];
    let mut out = String::new();
    for line in lines {
        let Value::Map(entries) = serde_json::from_str::<Value>(line).expect("audit line parses")
        else {
            panic!("audit line is not an object: {line}");
        };
        let kept: Vec<(String, Value)> = entries
            .into_iter()
            .filter(|(k, _)| !MASKED.contains(&k.as_str()))
            .collect();
        out.push_str(&serde_json::to_string(&Value::Map(kept)).expect("serialize"));
        out.push('\n');
    }
    out
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Plain,
    Supervised,
    Recovered,
    Aborted,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Supervised => "supervised",
            Kind::Recovered => "recovered",
            Kind::Aborted => "aborted",
        }
    }
}

fn pin_one(schedule: Schedule, kind: Kind) -> (&'static str, &'static str, u64, u64, u64, u64) {
    let telemetry = Telemetry::new();
    let sink = MemorySink::new();
    let mut builder = Pipeline::builder()
        .config(PipelineConfig::functional(DIM, 192))
        .tables(tables())
        .backend(UnitBackend::new(0.05))
        .schedule(schedule)
        .parallelism(2)
        .named("pin")
        .telemetry(telemetry.clone())
        .audit(sink.clone());
    match kind {
        Kind::Recovered => builder = builder.faults(recoverable_plan()),
        Kind::Aborted => builder = builder.faults(abort_plan()),
        Kind::Plain | Kind::Supervised => {}
    }
    let mut rt = builder.build().expect("pipeline");
    let batches = trace();
    let outcome = match kind {
        Kind::Plain => rt
            .run(&batches)
            .map(|report| serde_json::to_string(&report).expect("serialize")),
        Kind::Supervised | Kind::Recovered => rt
            .run_supervised(&batches, RecoveryPolicy::default())
            .map(|run| serde_json::to_string(&run.report).expect("serialize")),
        Kind::Aborted => {
            let policy = RecoveryPolicy {
                retry_budget: 1,
                checkpoint_interval: 1,
            };
            rt.run_supervised(&batches, policy).map(|_| String::new())
        }
    };
    let first = match (kind, outcome) {
        (Kind::Aborted, Err(e)) => {
            assert!(
                matches!(&e, ScratchError::Aborted { iteration, .. } if *iteration == ABORT_AT),
                "{schedule:?}: expected an abort at {ABORT_AT}, got {e:?}"
            );
            format!("{e:?}")
        }
        (Kind::Aborted, Ok(_)) => panic!("{schedule:?}: the persistent fault must abort"),
        (_, Ok(json)) => json,
        (_, Err(e)) => panic!("{schedule:?}/{}: run failed: {e}", kind.name()),
    };
    let trained = rt.into_tables();
    if let Kind::Aborted = kind {
        let mut expected = tables();
        train_direct(
            &mut expected,
            &batches[..ABORT_AT],
            &mut UnitBackend::new(0.05),
        );
        for (t, (got, want)) in trained.iter().zip(&expected).enumerate() {
            assert!(
                got.bit_eq(want),
                "{schedule:?}: table {t} is not at the committed prefix"
            );
        }
    }
    (
        schedule.name(),
        kind.name(),
        fnv(first.as_bytes()),
        fnv(telemetry.deterministic_digest().as_bytes()),
        fnv(masked_audit(&sink.lines()).as_bytes()),
        tables_hash(&trained),
    )
}

#[test]
fn every_schedule_and_run_kind_matches_its_recorded_output() {
    let mut actual = Vec::new();
    for schedule in [
        Schedule::Sequential,
        Schedule::Sync,
        Schedule::Threaded,
        Schedule::DataParallel,
    ] {
        for kind in [
            Kind::Plain,
            Kind::Supervised,
            Kind::Recovered,
            Kind::Aborted,
        ] {
            actual.push(pin_one(schedule, kind));
        }
    }
    if actual != PINS {
        let rendered: String = actual
            .iter()
            .map(|(s, k, a, b, c, d)| {
                format!("    (\"{s}\", \"{k}\", {a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}),\n")
            })
            .collect();
        let diffs: Vec<String> = actual
            .iter()
            .zip(PINS.iter().map(Some).chain(std::iter::repeat(None)))
            .filter(|(a, p)| p != &Some(*a))
            .map(|(a, _)| format!("{}/{}", a.0, a.1))
            .collect();
        panic!("run output moved for {diffs:?}; actual values:\n{rendered}");
    }
}

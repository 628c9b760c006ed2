//! Exact-variant error contracts — misconfiguration and bad input must
//! fail with the *documented* `ScratchError` variant and a message that
//! names the offending quantity, not a generic failure.

use embeddings::{EmbeddingTable, SparseBatch, TableBag};
use scratchpipe::{
    stages, EvictionPolicy, Pipeline, PipelineConfig, RecoveryPolicy, Schedule, ScratchError,
    ScratchpadManager, UnitBackend, WindowConfig,
};

fn tables(num: usize, rows: usize, dim: usize) -> Vec<EmbeddingTable> {
    (0..num)
        .map(|t| EmbeddingTable::seeded(rows, dim, t as u64))
        .collect()
}

fn batch(num_tables: usize, ids: &[u64]) -> SparseBatch {
    SparseBatch::new(
        (0..num_tables)
            .map(|_| TableBag::from_samples(&[ids.to_vec()]))
            .collect(),
    )
}

fn assert_invalid_config(result: Result<impl std::fmt::Debug, ScratchError>, needle: &str) {
    match result {
        Err(ScratchError::InvalidConfig { detail }) => assert!(
            detail.contains(needle),
            "detail {detail:?} does not mention {needle:?}"
        ),
        other => panic!("expected InvalidConfig mentioning {needle:?}, got {other:?}"),
    }
}

#[test]
fn builder_without_config_names_the_missing_piece() {
    let result = Pipeline::builder()
        .tables(tables(1, 16, 4))
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "needs a config");
}

#[test]
fn builder_without_backend_names_the_missing_piece() {
    let result = Pipeline::<UnitBackend>::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 16, 4))
        .build();
    assert_invalid_config(result, "needs a backend");
}

#[test]
fn builder_without_tables_is_rejected() {
    let result = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "at least one embedding table");
}

#[test]
fn builder_rejects_tables_and_analytic_together() {
    let result = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 16, 4))
        .analytic_tables(2, 100)
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "not both");
}

#[test]
fn builder_rejects_table_dim_mismatch() {
    let result = Pipeline::builder()
        .config(PipelineConfig::functional(8, 8))
        .tables(tables(1, 16, 4))
        .backend(UnitBackend::new(0.1))
        .build();
    assert_invalid_config(result, "dim mismatch");
}

#[test]
fn threaded_schedule_on_analytic_pipeline_is_rejected_at_run() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::analytic(4, 8))
        .analytic_tables(1, 64)
        .backend(UnitBackend::new(0.1))
        .schedule(Schedule::Threaded)
        .build()
        .expect("builds fine; schedule resolves at run");
    let result = rt.run(&[batch(1, &[1, 2])]);
    assert_invalid_config(result, "functional mode");
}

#[test]
fn run_rejects_empty_batches() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 64, 4))
        .backend(UnitBackend::new(0.1))
        .build()
        .expect("pipeline");
    let empty = SparseBatch::new(vec![TableBag::from_samples(&[])]);
    let result = rt.run(&[batch(1, &[1]), empty]);
    assert_invalid_config(result, "batch 1 is empty");
}

#[test]
fn run_rejects_table_count_mismatch() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(2, 64, 4))
        .backend(UnitBackend::new(0.1))
        .build()
        .expect("pipeline");
    let result = rt.run(&[batch(1, &[1])]);
    assert_invalid_config(result, "covers 1 tables, pipeline has 2");
}

#[test]
fn run_rejects_out_of_range_ids() {
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 8))
        .tables(tables(1, 64, 4))
        .backend(UnitBackend::new(0.1))
        .build()
        .expect("pipeline");
    let result = rt.run(&[batch(1, &[63, 64])]);
    assert_invalid_config(result, "id 64 exceeds 64 rows");
}

#[test]
fn supervised_rejects_zero_budget_and_zero_interval() {
    for policy in [
        RecoveryPolicy {
            retry_budget: 0,
            checkpoint_interval: 1,
        },
        RecoveryPolicy {
            retry_budget: 3,
            checkpoint_interval: 0,
        },
    ] {
        let mut rt = Pipeline::builder()
            .config(PipelineConfig::functional(4, 8))
            .tables(tables(1, 64, 4))
            .backend(UnitBackend::new(0.1))
            .build()
            .expect("pipeline");
        let result = rt.run_supervised(&[batch(1, &[1])], policy);
        match result {
            Err(ScratchError::InvalidConfig { detail }) => {
                assert!(detail.contains("retry_budget"), "detail: {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn duplicate_id_in_a_batch_is_a_typed_error() {
    // Plan expects deduplicated IDs; a repeated ID whose first occurrence
    // missed must be refused, not panic inside the Hit-Map.
    let mut managers = vec![
        ScratchpadManager::new(8, WindowConfig::PAPER, EvictionPolicy::Lru)
            .expect("valid");
        2
    ];
    let batch = SparseBatch::new(vec![
        TableBag::from_samples(&[vec![1, 2]]),
        TableBag::from_samples(&[vec![3, 5, 5]]),
    ]);
    let uniq = vec![vec![vec![1, 2], vec![3, 5, 5]]];
    let err = stages::plan(&mut managers, &batch, &uniq, 0, 2).expect_err("duplicate");
    assert_eq!(
        err,
        ScratchError::DuplicateId {
            table: 1,
            cycle: 1,
            row: 5
        }
    );
    assert!(err.to_string().contains("row 5 of table 1"), "{err}");
    // The refused miss claimed nothing: row 5 keeps its first slot, and
    // the manager goes on planning.
    assert_eq!(managers[1].occupancy(), 2);
    let plan = managers[1].plan(&[5, 7], &[]).expect("valid batch");
    assert_eq!((plan.hits, plan.misses), (1, 1));
}

#[test]
fn duplicate_id_that_would_evict_restores_the_victim() {
    let mut m =
        ScratchpadManager::new(2, WindowConfig::SEQUENTIAL, EvictionPolicy::Lru).expect("valid");
    let _ = m.plan(&[1, 2], &[]).expect("fits");
    // The first 3 evicts row 1 from slot 0; the second would evict row 2.
    let err = m.plan(&[3, 3], &[]).expect_err("duplicate");
    assert!(
        matches!(err, ScratchError::DuplicateId { row: 3, .. }),
        "{err}"
    );
    assert_eq!(m.lookup(3), Some(0));
    assert_eq!(m.lookup(2), Some(1), "the would-be victim stays cached");
    assert_eq!(m.lookup(1), None);
    // Row 2's slot is still evictable.
    let plan = m.plan(&[4], &[]).expect("slot 1 evictable");
    assert_eq!(plan.evictions.len(), 1);
    assert_eq!(plan.evictions[0].row, 2);
}

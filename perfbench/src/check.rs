//! The bit-exact output check: every pipeline run must leave the same
//! tables and report the same per-iteration losses, bit for bit, as
//! `scratchpipe::runtime::train_direct` on the same batches and backend.

use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::runtime::train_direct;
use scratchpipe::{DenseBackend, PipelineReport};

/// 64-bit FNV-1a over the tables' shapes and the f32 bits of every
/// element, one 32-bit word per step. Each step `h -> (h ^ w) * PRIME` is a
/// bijection of `h` for a given word, so two inputs of equal length that
/// differ in a single word always digest differently.
pub fn tables_digest(tables: &[EmbeddingTable]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    let mut h = step(0xCBF2_9CE4_8422_2325, tables.len() as u64);
    for table in tables {
        let data = table.as_flat();
        h = step(step(h, table.rows() as u64), data.len() as u64);
        for v in data {
            h = step(h, u64::from(v.to_bits()));
        }
    }
    h
}

/// The sequential reference result of one trace. Only a digest of the
/// final tables is kept, so the harness holds no second copy of the
/// tables beside the pipeline's and `peak_rss_mib` stays the program's.
#[derive(Debug, Clone)]
pub struct Reference {
    /// [`tables_digest`] of the tables after sequential training.
    pub tables_digest: u64,
    /// Loss of every iteration.
    pub losses: Vec<f32>,
}

impl Reference {
    /// Trains `tables` sequentially over `batches` with `backend`, then
    /// drops them.
    pub fn compute<B: DenseBackend>(
        mut tables: Vec<EmbeddingTable>,
        batches: &[SparseBatch],
        mut backend: B,
    ) -> Self {
        let losses = train_direct(&mut tables, batches, &mut backend);
        Reference::new(&tables, losses)
    }

    /// The reference of final `tables` and per-iteration `losses`.
    pub fn new(tables: &[EmbeddingTable], losses: Vec<f32>) -> Self {
        Reference {
            tables_digest: tables_digest(tables),
            losses,
        }
    }

    /// Failed iterations of one run (`None` when the run errored): all of
    /// them when it errored or its final tables differ from the reference
    /// (table state accumulates every iteration's update), otherwise the
    /// iterations whose loss bits differ.
    pub fn failed_iterations(&self, run: Option<(&PipelineReport, &[EmbeddingTable])>) -> u64 {
        let all = self.losses.len() as u64;
        let Some((report, tables)) = run else {
            return all;
        };
        if tables_digest(tables) != self.tables_digest || report.records.len() != self.losses.len()
        {
            return all;
        }
        report
            .records
            .iter()
            .zip(&self.losses)
            .filter(|(rec, want)| rec.loss.to_bits() != want.to_bits())
            .count() as u64
    }
}

/// Running count of iterations attempted and failed in one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that errored or failed the bit-exact check.
    pub failed: u64,
}

impl Tally {
    /// Checks one run of `reference.losses.len()` iterations (`None` when
    /// it errored) and counts it. Returns whether the run passed.
    pub fn check(
        &mut self,
        reference: &Reference,
        run: Option<(&PipelineReport, &[EmbeddingTable])>,
    ) -> bool {
        let failed = reference.failed_iterations(run);
        self.attempted += reference.losses.len() as u64;
        self.failed += failed;
        failed == 0
    }

    /// `failed / attempted` (0 before any attempt).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, LEARNING_RATE, WORKLOADS};
    use systems::DlrmBackend;

    fn tiny() -> Workload {
        Workload {
            tables: 2,
            rows: 2_000,
            dim: 8,
            batch: 16,
            slots: 6 * 16 * 8,
            iterations: 12,
            ..WORKLOADS[0]
        }
    }

    fn pipeline_run(w: &Workload, seed: u64) -> (PipelineReport, Vec<EmbeddingTable>) {
        let backend = DlrmBackend::new(&w.dlrm_config(), LEARNING_RATE, seed);
        let mut p = w
            .builder(w.config(), w.tables(seed), backend)
            .build()
            .unwrap();
        let report = p.run(&w.trace(seed)).unwrap();
        (report, p.into_tables())
    }

    fn reference(w: &Workload, seed: u64) -> Reference {
        let backend = DlrmBackend::new(&w.dlrm_config(), LEARNING_RATE, seed);
        Reference::compute(w.tables(seed), &w.trace(seed), backend)
    }

    fn one_ulp(v: f32) -> f32 {
        f32::from_bits(v.to_bits() + 1)
    }

    #[test]
    fn pipeline_matches_reference() {
        let w = tiny();
        let r = reference(&w, 3);
        let mut tally = Tally::default();
        let (report, tables) = pipeline_run(&w, 3);
        assert!(tally.check(&r, Some((&report, &tables))));
        assert_eq!((tally.attempted, tally.failed), (12, 0));
    }

    #[test]
    fn one_ulp_table_perturbation_fails_every_iteration() {
        let w = tiny();
        let mut tables = w.tables(3);
        let mut backend = DlrmBackend::new(&w.dlrm_config(), LEARNING_RATE, 3);
        let losses = train_direct(&mut tables, &w.trace(3), &mut backend);
        let mut data = tables[1].as_flat().to_vec();
        data[17] = one_ulp(data[17]);
        tables[1] = EmbeddingTable::from_fn(w.rows, w.dim, |row, e| data[row * w.dim + e]);
        let r = Reference::new(&tables, losses);
        let mut tally = Tally::default();
        let (report, tables) = pipeline_run(&w, 3);
        assert!(!tally.check(&r, Some((&report, &tables))));
        assert_eq!((tally.attempted, tally.failed), (12, 12));
    }

    #[test]
    fn one_ulp_loss_perturbation_fails_that_iteration() {
        let w = tiny();
        let mut r = reference(&w, 3);
        r.losses[5] = one_ulp(r.losses[5]);
        let mut tally = Tally::default();
        let (report, tables) = pipeline_run(&w, 3);
        assert!(!tally.check(&r, Some((&report, &tables))));
        assert_eq!((tally.attempted, tally.failed), (12, 1));
        assert!((tally.failed_ratio() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn an_error_fails_every_iteration() {
        let w = tiny();
        let r = reference(&w, 3);
        let mut tally = Tally::default();
        assert!(!tally.check(&r, None));
        assert_eq!((tally.attempted, tally.failed), (12, 12));
    }
}

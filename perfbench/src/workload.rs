//! The named workloads: trace shape, table shape, scratchpad size,
//! schedule and dense model of each, and how to build them from a seed.

use dlrm::{interaction, DlrmConfig};
use embeddings::{EmbeddingTable, SparseBatch};
use scratchpipe::{DenseBackend, Pipeline, PipelineBuilder, PipelineConfig, Schedule};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

/// Learning rate of every workload's backend.
pub const LEARNING_RATE: f32 = 0.01;

/// Schedule of every workload. A workload under the builder default
/// (`Schedule::Auto` over the machine-sized pool) was tried and dropped:
/// the pool's spawn-per-region cost spread its throughput wider than any
/// bound the benchmark may set (see `perfbench/README.md`).
pub const SCHEDULE: Schedule = Schedule::Sync;

/// The dense model behind the \[Train\] stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `systems::DlrmBackend` over [`Workload::dlrm_config`].
    Dlrm,
    /// `scratchpipe::UnitBackend`: embedding-only, no dense work.
    Unit,
}

/// One named benchmark workload. Every field is an input property; the
/// seed given on the command line picks the trace, the table contents and
/// the dense model's initial weights. All run under [`SCHEDULE`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Number of embedding tables.
    pub tables: usize,
    /// Rows per table.
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Lookups per table per sample.
    pub lookups_per_sample: usize,
    /// Samples per mini-batch.
    pub batch: usize,
    /// Scratchpad slots per table.
    pub slots: usize,
    /// Locality regime of the generated trace.
    pub profile: LocalityProfile,
    /// Dense model.
    pub model: Model,
    /// Mini-batches in one trace; the whole trace is one `Pipeline::run`.
    pub iterations: usize,
}

/// Every workload `BENCHMARK.json` declares.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "dlrm-hot",
        tables: 4,
        rows: 50_000,
        dim: 32,
        lookups_per_sample: 8,
        batch: 128,
        slots: 6_800,
        profile: LocalityProfile::High,
        model: Model::Dlrm,
        iterations: 200,
    },
    Workload {
        name: "embed-cold",
        tables: 8,
        rows: 100_000,
        dim: 32,
        lookups_per_sample: 8,
        batch: 256,
        slots: 13_500,
        profile: LocalityProfile::Low,
        model: Model::Unit,
        iterations: 80,
    },
];

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Samples in one trace.
    pub fn samples(&self) -> usize {
        self.iterations * self.batch
    }

    /// The trace for `seed`: the only input the pipeline receives.
    pub fn trace(&self, seed: u64) -> Vec<SparseBatch> {
        TraceGenerator::new(TraceConfig {
            num_tables: self.tables,
            rows_per_table: self.rows as u64,
            lookups_per_sample: self.lookups_per_sample,
            batch_size: self.batch,
            profile: self.profile,
            seed,
        })
        .take_batches(self.iterations)
    }

    /// Freshly initialised embedding tables for `seed`.
    pub fn tables(&self, seed: u64) -> Vec<EmbeddingTable> {
        (0..self.tables)
            .map(|t| {
                let table_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (t as u64 + 1);
                EmbeddingTable::seeded(self.rows, self.dim, table_seed)
            })
            .collect()
    }

    /// The functional pipeline configuration (hazard checker on).
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig::functional(self.dim, self.slots)
    }

    /// The DLRM shape of the dense workloads: dense 13, bottom
    /// `[13, 64, dim]`, top `[interaction_dim, 128, 64, 1]`.
    pub fn dlrm_config(&self) -> DlrmConfig {
        DlrmConfig {
            dense_dim: 13,
            bottom_widths: vec![13, 64, self.dim],
            top_widths: vec![interaction::output_dim(self.tables, self.dim), 128, 64, 1],
            emb_dim: self.dim,
            num_tables: self.tables,
        }
    }

    /// A pipeline builder under [`SCHEDULE`].
    pub fn builder<B: DenseBackend + Send>(
        &self,
        config: PipelineConfig,
        tables: Vec<EmbeddingTable>,
        backend: B,
    ) -> PipelineBuilder<B> {
        Pipeline::builder()
            .config(config)
            .tables(tables)
            .backend(backend)
            .schedule(SCHEDULE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn dlrm_shape_validates() {
        for w in WORKLOADS.iter().filter(|w| w.model == Model::Dlrm) {
            w.dlrm_config().validate().expect("valid DLRM shape");
        }
    }

    #[test]
    fn scratchpads_cover_the_window_working_set() {
        // §VI-D: the sliding window (3 past + current + 2 future batches)
        // must fit, or Plan fails with CapacityExhausted.
        for w in WORKLOADS {
            let window = scratchpipe::WindowConfig::PAPER.width() as usize;
            assert!(
                w.slots >= window * w.batch * w.lookups_per_sample,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let w = Workload {
            iterations: 3,
            rows: 1_000,
            ..WORKLOADS[0]
        };
        assert_eq!(w.trace(5), w.trace(5));
        assert_ne!(w.trace(5), w.trace(6));
        assert!(w.tables(5)[0].bit_eq(&w.tables(5)[0]));
        assert!(!w.tables(5)[0].bit_eq(&w.tables(6)[0]));
    }
}

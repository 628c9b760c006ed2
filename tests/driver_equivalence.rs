//! Driver equivalence — one driver, interchangeable schedules.
//!
//! The [`Pipeline`] drives the same five [`Stage`](scratchpipe::Stage)
//! implementors under every [`Schedule`]; this suite pins down that the
//! synchronous register schedule, the per-stage-thread schedule, the
//! intra-stage data-parallel schedule and the unpipelined sequential
//! straw-man are observably *identical*: bit-identical tables, and
//! [`PipelineReport`]s whose JSON serializations match byte-for-byte
//! (records, losses, per-stage traffic, flush traffic, peak held slots).
//!
//! This subsumes the old sync-vs-threaded stage-parity suite: report
//! equality is checked wholesale through the serde path rather than
//! field-by-field, so a new report field is covered the day it is added.

use embeddings::EmbeddingTable;
use scratchpipe::{Pipeline, PipelineConfig, PipelineReport, Schedule, UnitBackend};
use systems::DlrmBackend;
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

fn make_tables(num: usize, rows: usize, dim: usize, seed0: u64) -> Vec<EmbeddingTable> {
    (0..num)
        .map(|t| EmbeddingTable::seeded(rows, dim, seed0 + t as u64))
        .collect()
}

/// Reports must agree on *everything*, including float bit patterns —
/// the serde JSON path preserves both (shortest-round-trip floats), so
/// string equality is the strongest practical whole-report comparison.
fn assert_reports_identical(sync: &PipelineReport, threaded: &PipelineReport, label: &str) {
    let a = serde_json::to_string(sync).expect("serialize sync report");
    let b = serde_json::to_string(threaded).expect("serialize threaded report");
    assert_eq!(a, b, "{label}: reports diverged");
    // Belt and braces: loss bit patterns, independent of the JSON path.
    for (s, t) in sync.records.iter().zip(&threaded.records) {
        assert_eq!(
            s.loss.to_bits(),
            t.loss.to_bits(),
            "{label}: loss bits diverged at iteration {}",
            s.index
        );
    }
}

#[test]
fn sync_and_threaded_schedules_agree_on_tables_and_reports() {
    for profile in [
        LocalityProfile::Random,
        LocalityProfile::Medium,
        LocalityProfile::High,
    ] {
        let tc = TraceConfig {
            num_tables: 3,
            rows_per_table: 400,
            lookups_per_sample: 4,
            batch_size: 8,
            profile,
            seed: 77,
        };
        let batches = TraceGenerator::new(tc).take_batches(30);
        let dim = 8;
        // §VI-D worst case: 6 windowed batches × 8 × 4 = 192 held rows.
        let config = PipelineConfig::functional(dim, 192);

        let run = |schedule: Schedule| {
            let mut rt = Pipeline::builder()
                .config(config.clone())
                .tables(make_tables(3, 400, dim, 9000))
                .backend(UnitBackend::new(0.05))
                .schedule(schedule)
                .parallelism(4)
                .build()
                .expect("pipeline");
            let report = rt.run(&batches).expect("run");
            (report, rt.into_tables())
        };
        let (sync_report, sync_tables) = run(Schedule::Sync);
        for schedule in [
            Schedule::Threaded,
            Schedule::DataParallel,
            Schedule::Sequential,
        ] {
            let (other_report, other_tables) = run(schedule);
            for (t, (a, b)) in sync_tables.iter().zip(&other_tables).enumerate() {
                assert!(
                    a.bit_eq(b),
                    "{profile:?}/{}: table {t} diverged at row {:?}",
                    schedule.name(),
                    a.first_diff_row(b)
                );
            }
            assert_reports_identical(
                &sync_report,
                &other_report,
                &format!("{profile:?}/{}", schedule.name()),
            );
        }
    }
}

#[test]
fn schedule_equivalence_holds_with_full_dlrm_backend() {
    // The Train stage's traffic includes the dense backend's contribution;
    // run both schedules with the real DLRM backend to cover it.
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 300,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 5,
    };
    let batches = TraceGenerator::new(tc).take_batches(15);
    let dlrm_cfg = dlrm::DlrmConfig::tiny_with_tables(2);
    let dim = dlrm_cfg.emb_dim;
    let config = PipelineConfig::functional(dim, 192);

    let run = |schedule: Schedule| {
        let mut rt = Pipeline::builder()
            .config(config.clone())
            .tables(make_tables(2, 300, dim, 40))
            .backend(DlrmBackend::new(&dlrm_cfg, 0.05, 7))
            .schedule(schedule)
            .parallelism(3)
            .build()
            .expect("pipeline");
        let report = rt.run(&batches).expect("run");
        (report, rt.into_tables())
    };
    let (sync_report, sync_tables) = run(Schedule::Sync);
    for schedule in [Schedule::Threaded, Schedule::DataParallel] {
        let (other_report, other_tables) = run(schedule);
        for (a, b) in sync_tables.iter().zip(&other_tables) {
            assert!(a.bit_eq(b), "{} diverged", schedule.name());
        }
        assert_reports_identical(&sync_report, &other_report, schedule.name());
    }
}

#[test]
fn auto_schedule_matches_both_fixed_schedules() {
    // Whatever `Auto` resolves to, the observable results must be the
    // common result of the fixed schedules.
    let tc = TraceConfig {
        num_tables: 3,
        rows_per_table: 400,
        lookups_per_sample: 4,
        batch_size: 8,
        profile: LocalityProfile::Medium,
        seed: 31,
    };
    let batches = TraceGenerator::new(tc).take_batches(20);
    let config = PipelineConfig::functional(8, 192);
    let run = |schedule: Schedule| {
        let mut rt = Pipeline::builder()
            .config(config.clone())
            .tables(make_tables(3, 400, 8, 500))
            .backend(UnitBackend::new(0.05))
            .schedule(schedule)
            .build()
            .expect("pipeline");
        let report = rt.run(&batches).expect("run");
        (report, rt.into_tables())
    };
    let (auto_report, auto_tables) = run(Schedule::Auto);
    let (sync_report, sync_tables) = run(Schedule::Sync);
    for (a, b) in auto_tables.iter().zip(&sync_tables) {
        assert!(a.bit_eq(b));
    }
    assert_reports_identical(&sync_report, &auto_report, "auto");
}

//! Hazard-window ablation — demonstrating that the paper's Hold-mask
//! sliding window (§IV-C: 3 past + current + 2 future) is exactly
//! load-bearing:
//!
//! * with the paper window, training is always correct;
//! * shrinking either side admits real RAW hazards, caught by the hazard
//!   checker and visible as numeric corruption when the checker is off.

use embeddings::{EmbeddingTable, SparseBatch, TableBag};
use scratchpipe::runtime::train_direct;
use scratchpipe::{
    stages, EvictionPolicy, Pipeline, PipelineConfig, Schedule, ScratchError, ScratchpadManager,
    TablePlan, UnitBackend, WindowConfig,
};

fn pipeline(config: PipelineConfig, tables: Vec<EmbeddingTable>) -> Pipeline<UnitBackend> {
    Pipeline::builder()
        .config(config)
        .tables(tables)
        .backend(UnitBackend::new(0.2))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline")
}

fn mk(ids: &[u64]) -> SparseBatch {
    SparseBatch::new(vec![TableBag::from_samples(&[ids.to_vec()])])
}

fn tables() -> Vec<EmbeddingTable> {
    vec![EmbeddingTable::seeded(64, 4, 7)]
}

/// A trace engineered so that, with a 2-slot cache, evictions repeatedly
/// target rows needed by nearby batches.
fn adversarial_trace() -> Vec<SparseBatch> {
    vec![
        mk(&[1, 2]),
        mk(&[3]),
        mk(&[1]),
        mk(&[4]),
        mk(&[2]),
        mk(&[5]),
        mk(&[3]),
        mk(&[1, 4]),
    ]
}

#[test]
fn paper_window_survives_adversarial_trace() {
    // With the full window the same trace needs more headroom (the window
    // holds more slots), so use a larger scratchpad; it must run cleanly
    // and match sequential training bit-for-bit.
    let mut reference = tables();
    let _ = train_direct(
        &mut reference,
        &adversarial_trace(),
        &mut UnitBackend::new(0.2),
    );
    let mut rt = pipeline(PipelineConfig::functional(4, 24), tables());
    let _ = rt.run(&adversarial_trace()).expect("paper window is safe");
    let out = rt.into_tables();
    assert!(reference[0].bit_eq(&out[0]));
}

#[test]
fn zero_future_window_is_detected_as_raw4() {
    let config = PipelineConfig::functional(4, 2).with_window(WindowConfig { past: 0, future: 0 });
    let mut rt = pipeline(config, tables());
    let err = rt.run(&adversarial_trace()).expect_err("hazard expected");
    assert!(
        matches!(err, ScratchError::HazardViolation { .. }),
        "got {err}"
    );
}

#[test]
fn window_matrix_safe_configs_match_sequential() {
    // Every window at least as wide as the paper's (3, 2) must be safe
    // AND bit-identical; wider windows only hold more slots.
    let mut reference = tables();
    let _ = train_direct(
        &mut reference,
        &adversarial_trace(),
        &mut UnitBackend::new(0.2),
    );
    for (past, future) in [(3u32, 2u32), (4, 2), (3, 3), (5, 4)] {
        let config = PipelineConfig::functional(4, 32).with_window(WindowConfig { past, future });
        let mut rt = pipeline(config, tables());
        let _ = rt
            .run(&adversarial_trace())
            .unwrap_or_else(|e| panic!("window ({past},{future}): {e}"));
        let out = rt.into_tables();
        assert!(
            reference[0].bit_eq(&out[0]),
            "window ({past},{future}) diverged"
        );
    }
}

#[test]
fn undersized_windows_corrupt_training_when_unchecked() {
    // The smoking gun for the mechanism: disable the checker, shrink the
    // window, and watch SGD silently corrupt — for at least one of the
    // undersized configurations (which one depends on eviction timing).
    let mut reference = tables();
    let _ = train_direct(
        &mut reference,
        &adversarial_trace(),
        &mut UnitBackend::new(0.2),
    );
    let mut any_diverged = false;
    for (past, future) in [(0u32, 0u32), (1, 0), (0, 1)] {
        let mut config =
            PipelineConfig::functional(4, 2).with_window(WindowConfig { past, future });
        config.check_hazards = false;
        let mut rt = pipeline(config, tables());
        if rt.run(&adversarial_trace()).is_ok() {
            let out = rt.into_tables();
            if !reference[0].bit_eq(&out[0]) {
                any_diverged = true;
            }
        } else {
            // Capacity exhaustion also counts as "cannot run correctly".
            any_diverged = true;
        }
    }
    assert!(
        any_diverged,
        "at least one undersized window must corrupt or fail"
    );
}

#[test]
fn always_hit_guarantee_under_stress() {
    // 300 batches of skewed traffic over a small scratchpad: the hazard
    // checker (which asserts data-residency at every train) must stay
    // silent with the paper window.
    use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};
    let tc = TraceConfig {
        num_tables: 2,
        rows_per_table: 1_000,
        lookups_per_sample: 6,
        batch_size: 12,
        profile: LocalityProfile::High,
        seed: 77,
    };
    let batches = TraceGenerator::new(tc).take_batches(300);
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::seeded(1_000, 4, t as u64))
        .collect();
    let mut rt = Pipeline::builder()
        .config(PipelineConfig::functional(4, 400))
        .tables(tables)
        .backend(UnitBackend::new(0.05))
        .schedule(Schedule::Sync)
        .build()
        .expect("pipeline");
    let report = rt.run(&batches).expect("no hazards under stress");
    assert_eq!(report.iterations, 300);
    assert!(report.hit_rate() > 0.4);
}

/// The exhaustive victim-safety search, kept as the reference: for every
/// eviction, one binary search per batch of the hazard window, stopping
/// at the first hit. `stages::check_victim_safety` must report exactly
/// what this reports.
fn exhaustive_victim_safety(
    i: usize,
    plans: &[TablePlan],
    uniq: &[Vec<Vec<u64>>],
) -> Result<(), ScratchError> {
    let past = 3usize;
    let future = 2usize;
    for (t, plan) in plans.iter().enumerate() {
        for ev in &plan.evictions {
            let lo = i.saturating_sub(past);
            for (j, u) in uniq.iter().enumerate().skip(lo).take(i - lo) {
                if u[t].binary_search(&ev.row).is_ok() {
                    return Err(ScratchError::HazardViolation {
                        detail: format!(
                            "plan {i} evicts row {} of table {t}, still referenced by \
                             in-flight batch {j} (RAW-2/3)",
                            ev.row
                        ),
                    });
                }
            }
            let hi = (i + future).min(uniq.len() - 1);
            for (j, u) in uniq
                .iter()
                .enumerate()
                .skip(i + 1)
                .take(hi.saturating_sub(i))
            {
                if u[t].binary_search(&ev.row).is_ok() {
                    return Err(ScratchError::HazardViolation {
                        detail: format!(
                            "plan {i} evicts row {} of table {t}, needed by upcoming \
                             batch {j} (RAW-4)",
                            ev.row
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Plans `trace` under `config` the way the Plan stage does and checks
/// every plan with both victim-safety implementations. Returns how many
/// plans the reference flagged as `(RAW-2/3, RAW-4)`.
fn compare_victim_safety(trace: &[Vec<Vec<u64>>], config: &PipelineConfig) -> (usize, usize) {
    let batches: Vec<SparseBatch> = trace
        .iter()
        .map(|tables| {
            SparseBatch::new(
                tables
                    .iter()
                    .map(|ids| TableBag::from_samples(std::slice::from_ref(ids)))
                    .collect(),
            )
        })
        .collect();
    let uniq: Vec<Vec<Vec<u64>>> = batches
        .iter()
        .map(SparseBatch::unique_ids_per_table)
        .collect();
    let mut managers: Vec<ScratchpadManager> = (0..trace[0].len())
        .map(|_| {
            ScratchpadManager::new(config.slots_per_table, config.window, config.policy)
                .expect("valid")
        })
        .collect();
    let mut flagged = (0, 0);
    for (i, batch) in batches.iter().enumerate() {
        let Ok((plans, _)) = stages::plan(
            &mut managers,
            batch,
            &uniq,
            i,
            config.window.future as usize,
        ) else {
            break; // capacity exhausted: nothing left to check
        };
        let want = exhaustive_victim_safety(i, &plans, &uniq);
        assert_eq!(
            stages::check_victim_safety(i, &plans, &uniq),
            want,
            "plan {i}"
        );
        if let Err(ScratchError::HazardViolation { detail }) = &want {
            if detail.ends_with("(RAW-4)") {
                flagged.1 += 1;
            } else {
                flagged.0 += 1;
            }
        }
    }
    flagged
}

fn narrowed_config(past: u32, future: u32, slots: usize, policy: usize) -> PipelineConfig {
    let mut config =
        PipelineConfig::functional(4, slots).with_window(WindowConfig { past, future });
    config.policy = EvictionPolicy::ALL[policy];
    config
}

proptest::proptest! {
    /// Over random small traces and windows narrower than the paper's,
    /// the merge-based check returns exactly the exhaustive search's
    /// `Result` — same eviction, same batch, same RAW class, same text.
    #[test]
    fn victim_safety_matches_exhaustive_search(
        trace in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u64..14, 1..6), 2..3),
            2..16),
        past in 0u32..4,
        future in 0u32..3,
        slots in 3usize..14,
        policy in 0usize..3,
    ) {
        compare_victim_safety(&trace, &narrowed_config(past, future, slots, policy));
    }
}

#[test]
fn victim_safety_comparison_sees_both_hazard_classes() {
    // The equivalence property above is only as strong as the violations
    // its traces produce: a fixed sweep of the same shape must hit both
    // RAW classes many times.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let mut flagged = (0, 0);
    for case in 0..200 {
        let trace: Vec<Vec<Vec<u64>>> = (0..12)
            .map(|_| {
                (0..2)
                    .map(|_| (0..1 + next(5)).map(|_| next(14)).collect())
                    .collect()
            })
            .collect();
        let config = narrowed_config(
            case % 4,
            case % 3,
            3 + case as usize % 11,
            case as usize % 3,
        );
        let (past, future) = compare_victim_safety(&trace, &config);
        flagged.0 += past;
        flagged.1 += future;
    }
    assert!(flagged.0 >= 20 && flagged.1 >= 20, "flagged {flagged:?}");
}

//! Pinned plans: the exact victims and statistics of a seeded trace.
//!
//! Victim choice never affects correctness, only the hit rate, so the
//! bit-exactness suites cannot see a change in *which* slot Plan evicts.
//! This suite can: it replays a shrunken `embed-cold`-like shape (long
//! lookup bags, a scratchpad sized a little above the paper window's
//! worst-case working set) through per-table [`ScratchpadManager`]s for
//! every locality profile and every eviction policy, cold and prewarmed,
//! and asserts the per-table [`ScratchpadStats`] plus a digest of every
//! plan's fills, evictions and slot assignment against values recorded
//! with the ordered-set victim pool that `policy.rs` keeps as its test
//! reference model. Any change to victim order, tie breaking or pool
//! membership moves a digest.

use scratchpipe::scratchpad::ScratchpadStats;
use scratchpipe::{EvictionPolicy, ScratchpadManager, WindowConfig};
use tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const TABLES: usize = 2;
const ROWS: u64 = 20_000;
const LOOKUPS_PER_SAMPLE: usize = 8;
const BATCH: usize = 32;
const SLOTS: usize = 1_700;
const ITERATIONS: usize = 60;
const FUTURE: usize = 2;
const SEED: u64 = 0x5eed_0012;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Plans the whole trace the way the \[Plan\] stage does (sorted unique
/// IDs, `FUTURE` look-ahead batches) and returns every table's
/// statistics plus one digest over all plans in (iteration, table) order.
fn replay(
    profile: LocalityProfile,
    policy: EvictionPolicy,
    prewarm: bool,
) -> (Vec<ScratchpadStats>, u64) {
    let uniq: Vec<Vec<Vec<u64>>> = TraceGenerator::new(TraceConfig {
        num_tables: TABLES,
        rows_per_table: ROWS,
        lookups_per_sample: LOOKUPS_PER_SAMPLE,
        batch_size: BATCH,
        profile,
        seed: SEED,
    })
    .take_batches(ITERATIONS)
    .iter()
    .map(|b| b.unique_ids_per_table())
    .collect();
    let mut managers: Vec<ScratchpadManager> = (0..TABLES)
        .map(|_| ScratchpadManager::new(SLOTS, WindowConfig::PAPER, policy).expect("valid"))
        .collect();
    if prewarm {
        // Half the scratchpad, every row distinct: all prewarmed slots
        // tie at the never-touched priority and break ties by slot.
        let rows: Vec<u64> = (0..SLOTS as u64 / 2).map(|r| r * 7 % ROWS).collect();
        for m in &mut managers {
            m.prewarm(&rows);
        }
    }
    let mut digest = Digest::new();
    for i in 0..ITERATIONS {
        for (t, m) in managers.iter_mut().enumerate() {
            let futures: Vec<&[u64]> = (1..=FUTURE)
                .filter_map(|k| uniq.get(i + k).map(|per_table| per_table[t].as_slice()))
                .collect();
            let plan = m.plan(&uniq[i][t], &futures).expect("provisioned");
            digest.word(plan.fills.len() as u64);
            for f in &plan.fills {
                digest.word(f.row);
                digest.word(u64::from(f.slot));
            }
            digest.word(plan.evictions.len() as u64);
            for e in &plan.evictions {
                digest.word(e.row);
                digest.word(u64::from(e.slot));
            }
            for &slot in &plan.unique_slots {
                digest.word(u64::from(slot));
            }
        }
    }
    (
        managers.iter().map(ScratchpadManager::stats).collect(),
        digest.0,
    )
}

/// `(hits, misses, evictions, peak_held)` for each table.
type Pinned = [(u64, u64, u64, usize); TABLES];

fn check(
    profile: LocalityProfile,
    policy: EvictionPolicy,
    prewarm: bool,
    stats: Pinned,
    digest: u64,
) {
    let (got_stats, got_digest) = replay(profile, policy, prewarm);
    let got: Vec<(u64, u64, u64, usize)> = got_stats
        .iter()
        .map(|s| (s.hits, s.misses, s.evictions, s.peak_held))
        .collect();
    assert_eq!(
        got,
        stats.to_vec(),
        "{profile:?}/{policy}/prewarm={prewarm}: stats moved"
    );
    assert_eq!(
        got_digest, digest,
        "{profile:?}/{policy}/prewarm={prewarm}: plans moved (digest {got_digest:#018x})"
    );
}

#[test]
fn random_locality_plans_are_pinned() {
    check(
        LocalityProfile::Random,
        EvictionPolicy::Lru,
        false,
        [(1414, 13837, 12137, 1038), (1517, 13729, 12029, 1051)],
        0x5a12_cbc1_8d48_d281,
    );
    check(
        LocalityProfile::Random,
        EvictionPolicy::Lru,
        true,
        [(1486, 13765, 12915, 1038), (1609, 13637, 12787, 1052)],
        0xf3fc_c262_6ea0_ff73,
    );
    check(
        LocalityProfile::Random,
        EvictionPolicy::Lfu,
        false,
        [(1436, 13815, 12115, 1039), (1511, 13735, 12035, 1051)],
        0xcece_2f01_c0cf_9d62,
    );
    check(
        LocalityProfile::Random,
        EvictionPolicy::Lfu,
        true,
        [(1498, 13753, 12903, 1039), (1612, 13634, 12784, 1052)],
        0x8e7f_d0ac_6145_1008,
    );
    check(
        LocalityProfile::Random,
        EvictionPolicy::Random,
        false,
        [(1442, 13809, 12109, 1036), (1548, 13698, 11998, 1049)],
        0xdb94_d67a_e07c_5688,
    );
    check(
        LocalityProfile::Random,
        EvictionPolicy::Random,
        true,
        [(1506, 13745, 12895, 1039), (1634, 13612, 12762, 1049)],
        0xfa17_b6fb_fc57_c204,
    );
}

#[test]
fn low_locality_plans_are_pinned() {
    check(
        LocalityProfile::Low,
        EvictionPolicy::Lru,
        false,
        [(1914, 13299, 11599, 1048), (1989, 13222, 11522, 1044)],
        0xa4d6_e7e8_4e0b_0adf,
    );
    check(
        LocalityProfile::Low,
        EvictionPolicy::Lru,
        true,
        [(1985, 13228, 12378, 1049), (2074, 13137, 12287, 1044)],
        0x692d_cd72_f7da_31e6,
    );
    check(
        LocalityProfile::Low,
        EvictionPolicy::Lfu,
        false,
        [(1943, 13270, 11570, 1045), (2004, 13207, 11507, 1043)],
        0xcc99_5a49_bb70_3443,
    );
    check(
        LocalityProfile::Low,
        EvictionPolicy::Lfu,
        true,
        [(1996, 13217, 12367, 1049), (2092, 13119, 12269, 1043)],
        0x1d6c_6a06_9974_45bb,
    );
    check(
        LocalityProfile::Low,
        EvictionPolicy::Random,
        false,
        [(1887, 13326, 11626, 1050), (1919, 13292, 11592, 1037)],
        0x26f8_b80a_8411_5b6b,
    );
    check(
        LocalityProfile::Low,
        EvictionPolicy::Random,
        true,
        [(1931, 13282, 12432, 1046), (2032, 13179, 12329, 1034)],
        0xac1f_2dcb_79df_0165,
    );
}

#[test]
fn medium_locality_plans_are_pinned() {
    check(
        LocalityProfile::Medium,
        EvictionPolicy::Lru,
        false,
        [(4697, 8815, 7115, 873), (4687, 8814, 7114, 881)],
        0x44ab_9ae0_c945_af15,
    );
    check(
        LocalityProfile::Medium,
        EvictionPolicy::Lru,
        true,
        [(4779, 8733, 7883, 875), (4770, 8731, 7881, 882)],
        0x55c4_1df6_e7d3_54d3,
    );
    check(
        LocalityProfile::Medium,
        EvictionPolicy::Lfu,
        false,
        [(4859, 8653, 6953, 879), (4831, 8670, 6970, 884)],
        0xc039_82c0_2fd5_3f7c,
    );
    check(
        LocalityProfile::Medium,
        EvictionPolicy::Lfu,
        true,
        [(4939, 8573, 7723, 879), (4930, 8571, 7721, 884)],
        0xcd49_51c0_0a46_cfa5,
    );
    check(
        LocalityProfile::Medium,
        EvictionPolicy::Random,
        false,
        [(4450, 9062, 7362, 868), (4521, 8980, 7280, 877)],
        0x4dbe_6652_5642_a381,
    );
    check(
        LocalityProfile::Medium,
        EvictionPolicy::Random,
        true,
        [(4500, 9012, 8162, 860), (4540, 8961, 8111, 878)],
        0x8a36_b53c_afba_7342,
    );
}

#[test]
fn high_locality_plans_are_pinned() {
    check(
        LocalityProfile::High,
        EvictionPolicy::Lru,
        false,
        [(5087, 4436, 2736, 596), (5106, 4443, 2743, 588)],
        0x502d_e647_4ae1_a0ce,
    );
    check(
        LocalityProfile::High,
        EvictionPolicy::Lru,
        true,
        [(5173, 4350, 3500, 596), (5155, 4394, 3544, 587)],
        0xa91b_5776_6ff0_7674,
    );
    check(
        LocalityProfile::High,
        EvictionPolicy::Lfu,
        false,
        [(5167, 4356, 2656, 600), (5172, 4377, 2677, 590)],
        0xd157_e44a_11fc_6665,
    );
    check(
        LocalityProfile::High,
        EvictionPolicy::Lfu,
        true,
        [(5274, 4249, 3399, 600), (5235, 4314, 3464, 599)],
        0xf7a7_8345_58ec_a01f,
    );
    check(
        LocalityProfile::High,
        EvictionPolicy::Random,
        false,
        [(4886, 4637, 2937, 594), (4890, 4659, 2959, 578)],
        0xe26b_f67c_3248_e4a2,
    );
    check(
        LocalityProfile::High,
        EvictionPolicy::Random,
        true,
        [(4999, 4524, 3674, 595), (4954, 4595, 3745, 582)],
        0x8b3d_1162_f446_9d16,
    );
}

//! Eviction policies and the victim pool.
//!
//! When the \[Plan\] stage misses, it must pick a victim among the slots
//! whose Hold mask is clear (paper Algorithm 1, `CHOOSE_VICTIM`). The
//! paper's default policy is LRU, with LFU and random eviction studied in
//! the §VI-E sensitivity analysis — ScratchPipe's performance is robust
//! across all three because *which* evictable slot is chosen never affects
//! correctness, only the future hit rate.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Victim-selection policy among evictable slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used evictable slot (paper default).
    Lru,
    /// Evict the least-frequently-used evictable slot.
    Lfu,
    /// Evict a pseudo-random evictable slot (deterministic per seed).
    Random,
}

impl EvictionPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [EvictionPolicy; 3] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::Random,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "LRU",
            EvictionPolicy::Lfu => "LFU",
            EvictionPolicy::Random => "Random",
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The pool of currently evictable slots, ordered by policy priority.
///
/// The scratchpad manager inserts a slot when its Hold mask expires and
/// removes it when the slot is touched (protected) again; `pop` yields the
/// slot with the smallest `(priority, slot)` key — the policy's preferred
/// victim, ties broken by slot index.
///
/// The pool is a priority-bucket queue with lazy deletion. Each distinct
/// priority owns a bucket of queued slots, drained in ascending slot
/// order, and the buckets drain in ascending priority. `remove` only
/// clears the slot's membership flag and `touch` queues the slot under
/// its new priority; `pop` skips every entry whose slot has left the pool
/// or no longer carries that bucket's priority. Once queued entries reach
/// twice the slot count, the queue is rebuilt from the per-slot state, so
/// it never holds more than two entries per slot.
///
/// Under LRU the priorities are plan cycles and the manager re-pools a slot
/// `past + 1` cycles after its last touch, so inserts land in the newest
/// bucket and pops drain the oldest: amortized `O(1)` per operation, with
/// no per-slot tree operation or allocation once bucket storage is
/// recycled. LFU priorities are touch counts, few distinct values shared
/// by many slots, so its bucket map stays small too. Random priorities
/// are distinct, so there each bucket holds one slot and operations cost
/// `O(log n)`.
#[derive(Debug, Clone)]
pub struct VictimPool {
    policy: EvictionPolicy,
    in_pool: Vec<bool>,
    priority: Vec<u64>,
    tick: u64,
    /// Number of pooled slots.
    len: usize,
    /// Live buckets by priority, as indices into `buckets`.
    order: BTreeMap<u64, usize>,
    buckets: Vec<Bucket>,
    /// Indices of retired buckets, reused before `buckets` grows.
    spare: Vec<usize>,
    /// Entries queued across all live buckets, stale ones included.
    queued: usize,
    /// `(priority, bucket)` of the most recent enqueue: consecutive
    /// inserts at one priority skip the map lookup.
    last: Option<(u64, usize)>,
}

/// The queued slots of one priority. A live bucket always has an entry at
/// or after `head`.
#[derive(Debug, Clone, Default)]
struct Bucket {
    slots: Vec<u32>,
    /// Entries before `head` were popped or skipped.
    head: usize,
    /// Set when an append broke the ascending order of `slots[head..]`.
    unsorted: bool,
}

impl VictimPool {
    /// Creates an empty pool over `slots` slots.
    pub fn new(slots: usize, policy: EvictionPolicy) -> Self {
        VictimPool {
            policy,
            in_pool: vec![false; slots],
            priority: vec![0; slots],
            tick: 0,
            len: 0,
            order: BTreeMap::new(),
            buckets: Vec::new(),
            spare: Vec::new(),
            queued: 0,
            last: None,
        }
    }

    /// The policy this pool orders by.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of evictable slots currently pooled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slot is evictable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `slot` is currently pooled.
    pub fn contains(&self, slot: u32) -> bool {
        self.in_pool[slot as usize]
    }

    /// Records an access to `slot` at plan-cycle `cycle`, updating the
    /// policy metadata. Does **not** change pool membership — the manager
    /// removes touched slots separately because protection, not recency,
    /// governs membership — but a pooled slot is re-queued under its new
    /// priority.
    pub fn touch(&mut self, slot: u32, cycle: u64) {
        let s = slot as usize;
        match self.policy {
            EvictionPolicy::Lru => self.priority[s] = cycle,
            EvictionPolicy::Lfu => self.priority[s] += 1,
            EvictionPolicy::Random => {
                self.tick += 1;
                self.priority[s] = splitmix(slot as u64 ^ (self.tick << 20));
            }
        }
        if self.in_pool[s] {
            self.enqueue(slot);
        }
    }

    /// Adds `slot` to the pool (idempotent).
    pub fn insert(&mut self, slot: u32) {
        let s = slot as usize;
        if self.in_pool[s] {
            return;
        }
        self.in_pool[s] = true;
        self.len += 1;
        self.enqueue(slot);
    }

    /// Removes `slot` from the pool if present. Its queued entry goes
    /// stale and is skipped by a later `pop`.
    pub fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        if self.in_pool[s] {
            self.in_pool[s] = false;
            self.len -= 1;
        }
    }

    /// Pops the policy-preferred victim, or `None` if the pool is empty.
    pub fn pop(&mut self) -> Option<u32> {
        loop {
            let (&p, &b) = self.order.first_key_value()?;
            let bucket = &mut self.buckets[b];
            if bucket.unsorted {
                bucket.slots[bucket.head..].sort_unstable();
                bucket.unsorted = false;
            }
            let mut victim = None;
            while let Some(&slot) = bucket.slots.get(bucket.head) {
                bucket.head += 1;
                self.queued -= 1;
                let s = slot as usize;
                if self.in_pool[s] && self.priority[s] == p {
                    victim = Some(slot);
                    break;
                }
            }
            if bucket.head == bucket.slots.len() {
                self.order.remove(&p);
                self.retire(b);
            }
            if let Some(slot) = victim {
                self.in_pool[slot as usize] = false;
                self.len -= 1;
                return Some(slot);
            }
        }
    }

    /// Queues `slot` under its current priority.
    fn enqueue(&mut self, slot: u32) {
        if self.queued >= 2 * self.in_pool.len() {
            self.rebuild();
        }
        self.push_entry(slot, self.priority[slot as usize]);
    }

    fn push_entry(&mut self, slot: u32, p: u64) {
        let b = match self.last {
            Some((lp, b)) if lp == p => b,
            _ => {
                let b = match self.order.get(&p) {
                    Some(&b) => b,
                    None => {
                        let b = self.spare.pop().unwrap_or_else(|| {
                            self.buckets.push(Bucket::default());
                            self.buckets.len() - 1
                        });
                        self.order.insert(p, b);
                        b
                    }
                };
                self.last = Some((p, b));
                b
            }
        };
        let bucket = &mut self.buckets[b];
        if bucket.slots.last().is_some_and(|&tail| tail > slot) {
            bucket.unsorted = true;
        }
        bucket.slots.push(slot);
        self.queued += 1;
    }

    /// Empties bucket `b` (already unlinked from `order`) for reuse.
    fn retire(&mut self, b: usize) {
        let bucket = &mut self.buckets[b];
        bucket.slots.clear();
        bucket.head = 0;
        bucket.unsorted = false;
        self.spare.push(b);
        if self.last.is_some_and(|(_, lb)| lb == b) {
            self.last = None;
        }
    }

    /// Drops every stale entry: re-queues exactly the pooled slots, in
    /// ascending slot order.
    fn rebuild(&mut self) {
        for b in std::mem::take(&mut self.order).into_values() {
            self.retire(b);
        }
        self.queued = 0;
        for s in 0..self.in_pool.len() {
            if self.in_pool[s] {
                self.push_entry(s as u32, self.priority[s]);
            }
        }
    }
}

/// SplitMix64 — deterministic pseudo-random priorities.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn lru_pops_oldest_touch() {
        let mut p = VictimPool::new(4, EvictionPolicy::Lru);
        p.touch(0, 10);
        p.touch(1, 5);
        p.touch(2, 20);
        for s in 0..3 {
            p.insert(s);
        }
        assert_eq!(p.pop(), Some(1));
        assert_eq!(p.pop(), Some(0));
        assert_eq!(p.pop(), Some(2));
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn lfu_pops_least_frequent() {
        let mut p = VictimPool::new(4, EvictionPolicy::Lfu);
        for _ in 0..3 {
            p.touch(0, 0);
        }
        p.touch(1, 0);
        p.touch(2, 0);
        p.touch(2, 0);
        for s in 0..3 {
            p.insert(s);
        }
        assert_eq!(p.pop(), Some(1)); // freq 1
        assert_eq!(p.pop(), Some(2)); // freq 2
        assert_eq!(p.pop(), Some(0)); // freq 3
    }

    #[test]
    fn random_policy_is_deterministic_and_complete() {
        let run = || {
            let mut p = VictimPool::new(8, EvictionPolicy::Random);
            for s in 0..8 {
                p.touch(s, 0);
                p.insert(s);
            }
            let mut order = Vec::new();
            while let Some(s) = p.pop() {
                order.push(s);
            }
            order
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "deterministic");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "complete");
        assert_ne!(a, sorted, "random order should not be identity");
    }

    #[test]
    fn membership_tracking() {
        let mut p = VictimPool::new(4, EvictionPolicy::Lru);
        assert!(p.is_empty());
        p.insert(2);
        assert!(p.contains(2));
        assert!(!p.contains(1));
        assert_eq!(p.len(), 1);
        p.remove(2);
        assert!(p.is_empty());
        // Idempotent operations.
        p.remove(2);
        p.insert(3);
        p.insert(3);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn touch_then_insert_uses_fresh_priority() {
        let mut p = VictimPool::new(2, EvictionPolicy::Lru);
        p.touch(0, 1);
        p.touch(1, 2);
        p.insert(0);
        p.insert(1);
        // Re-touch slot 0 outside the pool: must not corrupt ordering,
        // because the manager always removes before re-protecting.
        p.remove(0);
        p.touch(0, 99);
        p.insert(0);
        assert_eq!(p.pop(), Some(1));
        assert_eq!(p.pop(), Some(0));
    }

    /// The ordered-set pool this module used before the bucket queue:
    /// one `BTreeSet` entry per pooled slot, re-keyed eagerly on every
    /// touch. The differential test below holds the bucket queue to it.
    struct ReferencePool {
        policy: EvictionPolicy,
        ordered: BTreeSet<(u64, u32)>,
        in_pool: Vec<bool>,
        priority: Vec<u64>,
        tick: u64,
    }

    impl ReferencePool {
        fn new(slots: usize, policy: EvictionPolicy) -> Self {
            ReferencePool {
                policy,
                ordered: BTreeSet::new(),
                in_pool: vec![false; slots],
                priority: vec![0; slots],
                tick: 0,
            }
        }

        fn touch(&mut self, slot: u32, cycle: u64) {
            let s = slot as usize;
            if self.in_pool[s] {
                self.ordered.remove(&(self.priority[s], slot));
            }
            match self.policy {
                EvictionPolicy::Lru => self.priority[s] = cycle,
                EvictionPolicy::Lfu => self.priority[s] += 1,
                EvictionPolicy::Random => {
                    self.tick += 1;
                    self.priority[s] = splitmix(slot as u64 ^ (self.tick << 20));
                }
            }
            if self.in_pool[s] {
                self.ordered.insert((self.priority[s], slot));
            }
        }

        fn insert(&mut self, slot: u32) {
            let s = slot as usize;
            if !self.in_pool[s] {
                self.in_pool[s] = true;
                self.ordered.insert((self.priority[s], slot));
            }
        }

        fn remove(&mut self, slot: u32) {
            let s = slot as usize;
            if self.in_pool[s] {
                self.in_pool[s] = false;
                self.ordered.remove(&(self.priority[s], slot));
            }
        }

        fn pop(&mut self) -> Option<u32> {
            let (_, slot) = self.ordered.pop_first()?;
            self.in_pool[slot as usize] = false;
            Some(slot)
        }
    }

    const REF_SLOTS: u32 = 12;

    /// Pool operations over a small slot and cycle domain, so equal
    /// priorities, out-of-order priorities (a cycle below the last one)
    /// and removed-then-reinserted slots all recur.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Remove(u32),
        Touch(u32, u64),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..REF_SLOTS).prop_map(Op::Insert),
            (0u32..REF_SLOTS).prop_map(Op::Remove),
            (0u32..REF_SLOTS, 0u64..6).prop_map(|(s, c)| Op::Touch(s, c)),
            (0u32..2).prop_map(|_| Op::Pop),
        ]
    }

    proptest! {
        #[test]
        fn bucket_queue_matches_ordered_set_reference(
            policy in 0usize..3,
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let policy = EvictionPolicy::ALL[policy];
            let mut pool = VictimPool::new(REF_SLOTS as usize, policy);
            let mut reference = ReferencePool::new(REF_SLOTS as usize, policy);
            for op in &ops {
                match *op {
                    Op::Insert(s) => {
                        pool.insert(s);
                        reference.insert(s);
                    }
                    Op::Remove(s) => {
                        pool.remove(s);
                        reference.remove(s);
                    }
                    Op::Touch(s, c) => {
                        pool.touch(s, c);
                        reference.touch(s, c);
                    }
                    Op::Pop => prop_assert_eq!(pool.pop(), reference.pop()),
                }
                prop_assert_eq!(pool.len(), reference.ordered.len());
                prop_assert_eq!(pool.is_empty(), reference.ordered.is_empty());
                for s in 0..REF_SLOTS {
                    prop_assert_eq!(pool.contains(s), reference.in_pool[s as usize]);
                }
            }
            // Drain: the full remaining victim order agrees.
            while let Some(want) = reference.pop() {
                prop_assert_eq!(pool.pop(), Some(want));
            }
            prop_assert_eq!(pool.pop(), None);
            prop_assert!(pool.is_empty());
        }
    }

    #[test]
    fn stale_entries_stay_bounded() {
        // Pool and un-pool every slot many times without a single pop:
        // rebuilds must keep the queue within twice the slot count.
        let mut p = VictimPool::new(8, EvictionPolicy::Lru);
        for cycle in 0..1_000u64 {
            for s in 0..8 {
                p.touch(s, cycle);
                p.insert(s);
                p.remove(s);
            }
            assert!(p.queued <= 2 * 8, "cycle {cycle}: {} queued", p.queued);
        }
        assert!(p.is_empty());
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn policy_names() {
        assert_eq!(EvictionPolicy::Lru.to_string(), "LRU");
        assert_eq!(EvictionPolicy::ALL.len(), 3);
    }
}

//! MQ: the Multi-Queue replacement algorithm for second-level caches.
//!
//! Zhou, Philbin & Li (USENIX ATC'01 — the paper's citation \[50\]) observe
//! that second-level (storage) caches see the *misses* of the layer above,
//! whose reuse distances defeat plain LRU, and propose Multi-Queue: blocks
//! live in one of `m` LRU queues by access frequency (queue
//! `⌊log₂(freq)⌋`), promotion on hit, and eviction from the head of the
//! lowest non-empty queue. Our reproduction implements the queue structure
//! and frequency promotion; the lifetime-based demotion of idle blocks is
//! approximated by capping the frequency (a block cannot climb forever),
//! which keeps the structure O(1) per access and deterministic.
//!
//! MQ is an *extension* beyond the paper's evaluated policies: the paper's
//! §6.1 cites it as the canonical second-level scheme, and the `ablation`
//! binary reports how the layout optimization composes with it.

use crate::block::BlockAddr;
use crate::cache::{CacheStats, LruCore};
use std::collections::HashMap;

/// Number of frequency queues (`2^7` accesses saturate the top queue).
const NUM_QUEUES: usize = 8;

/// A multi-queue cache for second-level (storage) caches.
#[derive(Clone, Debug)]
pub struct MqCache {
    capacity: usize,
    queues: Vec<LruCore>,
    /// Resident blocks → (queue index, access count).
    meta: HashMap<BlockAddr, (usize, u32)>,
    stats: CacheStats,
}

fn queue_of(freq: u32) -> usize {
    ((32 - freq.leading_zeros()) as usize)
        .saturating_sub(1)
        .min(NUM_QUEUES - 1)
}

impl MqCache {
    /// An empty MQ cache of `capacity` blocks.
    pub fn new(capacity: usize) -> MqCache {
        assert!(capacity > 0, "MqCache: zero capacity");
        MqCache {
            capacity,
            // Each queue may transiently hold up to the full capacity.
            queues: (0..NUM_QUEUES).map(|_| LruCore::new(capacity)).collect(),
            meta: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Total resident blocks.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Residency check (no stats).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.meta.contains_key(&block)
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Weighted lookup (see [`LruCore::access_weighted`]); on hit the
    /// block's frequency rises and it may be promoted to a higher queue.
    pub fn access_weighted(&mut self, block: BlockAddr, weight: u32) -> bool {
        self.stats.accesses += weight as u64;
        if let Some(&(q, freq)) = self.meta.get(&block) {
            self.stats.hits += weight as u64;
            let freq = freq.saturating_add(1).min(1 << (NUM_QUEUES - 1));
            let nq = queue_of(freq);
            if nq != q {
                self.queues[q].remove(block);
                self.queues[nq].insert(block);
            } else {
                self.queues[q].access(block);
                self.queues[q].reset_stats_keep();
            }
            self.meta.insert(block, (nq, freq));
            true
        } else {
            self.stats.hits += weight as u64 - 1;
            false
        }
    }

    /// Unweighted lookup.
    pub fn access(&mut self, block: BlockAddr) -> bool {
        self.access_weighted(block, 1)
    }

    /// Insert a (missed) block with frequency 1; evicts from the lowest
    /// non-empty queue when full. Returns the victim.
    pub fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        if self.contains(block) {
            return None;
        }
        let mut victim = None;
        if self.meta.len() == self.capacity {
            for q in &mut self.queues {
                if let Some(v) = q.pop_lru() {
                    self.meta.remove(&v);
                    victim = Some(v);
                    break;
                }
            }
        }
        self.queues[0].insert(block);
        self.meta.insert(block, (0, 1));
        victim
    }

    /// Drop every resident block (fault-injected cache flush), keeping the
    /// hit/miss counters. Returns the number of blocks invalidated.
    pub fn invalidate_all(&mut self) -> usize {
        let dropped = self.meta.len();
        for q in &mut self.queues {
            while q.pop_lru().is_some() {}
        }
        self.meta.clear();
        dropped
    }

    /// Remove a block if resident.
    pub fn remove(&mut self, block: BlockAddr) -> bool {
        if let Some((q, _)) = self.meta.remove(&block) {
            self.queues[q].remove(block);
            true
        } else {
            false
        }
    }
}

// LruCore's stats are bypassed inside MQ (MQ keeps its own); this tiny
// shim keeps the inner queues' counters from growing unbounded.
impl LruCore {
    pub(crate) fn reset_stats_keep(&mut self) {
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NaiveMq;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(0, i)
    }

    #[test]
    fn queue_index_is_log2() {
        assert_eq!(queue_of(1), 0);
        assert_eq!(queue_of(2), 1);
        assert_eq!(queue_of(3), 1);
        assert_eq!(queue_of(4), 2);
        assert_eq!(queue_of(128), 7);
        assert_eq!(queue_of(100_000), NUM_QUEUES - 1);
    }

    #[test]
    fn frequent_blocks_survive_scans() {
        // A hot block accessed many times survives a one-shot scan that
        // would evict it under plain LRU.
        let mut mq = MqCache::new(4);
        mq.insert(b(0));
        for _ in 0..8 {
            mq.access(b(0)); // climbs to a high queue
        }
        // Scan 6 cold blocks through the 4-slot cache.
        for i in 1..=6 {
            if !mq.access(b(i)) {
                mq.insert(b(i));
            }
        }
        assert!(mq.contains(b(0)), "hot block must survive the scan");

        // Control: plain LRU of the same size loses it.
        let mut lru = LruCore::new(4);
        lru.insert(b(0));
        for _ in 0..8 {
            lru.access(b(0));
        }
        for i in 1..=6 {
            if !lru.access(b(i)) {
                lru.insert(b(i));
            }
        }
        assert!(!lru.contains(b(0)), "LRU control must have evicted it");
    }

    #[test]
    fn capacity_respected() {
        let mut mq = MqCache::new(3);
        for i in 0..10 {
            mq.insert(b(i));
            assert!(mq.len() <= 3);
        }
    }

    #[test]
    fn eviction_prefers_low_queues() {
        let mut mq = MqCache::new(2);
        mq.insert(b(1));
        mq.access(b(1));
        mq.access(b(1)); // freq 3 → queue 1
        mq.insert(b(2)); // freq 1 → queue 0
        let victim = mq.insert(b(3));
        assert_eq!(victim, Some(b(2)), "low-frequency block evicted first");
        assert!(mq.contains(b(1)));
    }

    #[test]
    fn invalidate_all_drops_contents_keeps_stats() {
        let mut mq = MqCache::new(4);
        mq.insert(b(1));
        mq.insert(b(2));
        mq.access(b(1));
        let before = mq.stats();
        assert_eq!(mq.invalidate_all(), 2);
        assert!(mq.is_empty());
        assert!(!mq.contains(b(1)));
        assert_eq!(mq.stats(), before, "flush must not touch counters");
        // Still usable after the flush.
        mq.insert(b(3));
        assert!(mq.contains(b(3)));
    }

    /// MQ against the oracle's eight plain lists, operation for
    /// operation: hits, victims, counters and every queue's contents with
    /// their access counts. The block universe is barely larger than the
    /// cache and most requests go to resident blocks, so hot blocks pass
    /// the 128-access ceiling while newcomers keep forcing evictions out
    /// of the top queues.
    #[test]
    fn mq_matches_oracle_lists() {
        let mut x: u64 = 0x3C6E_F372_FE94_F82B;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (mut capped, mut top_evictions) = (0, 0);
        for capacity in [1usize, 2, 3, 4, 8] {
            for hot_per_mille in [500, 990, 998] {
                let mut mq = MqCache::new(capacity);
                let mut model = NaiveMq::new(capacity);
                for step in 0..20_000 {
                    let ctx = format!("capacity {capacity} hot {hot_per_mille} step {step}");
                    let resident: Vec<BlockAddr> =
                        model.queues.iter().flatten().map(|&(b, _)| b).collect();
                    let blk = if !resident.is_empty() && next(1000) < hot_per_mille {
                        resident[next(resident.len() as u64) as usize]
                    } else {
                        b(next(capacity as u64 + 2))
                    };
                    let w = 1 + next(3) as u32;
                    let hit = mq.access_weighted(blk, w);
                    assert_eq!(hit, model.lookup(blk, w), "{ctx}");
                    if !hit {
                        if mq.len() == capacity && mq.queues[..6].iter().all(LruCore::is_empty) {
                            top_evictions += 1;
                        }
                        assert_eq!(mq.insert(blk), model.insert(blk), "{ctx}");
                    }
                    if next(4000) == 0 {
                        assert_eq!(mq.invalidate_all(), model.clear(), "{ctx}");
                    }
                    assert_eq!(mq.stats(), model.stats, "{ctx}");
                    for (q, (queue, listed)) in mq.queues.iter().zip(&model.queues).enumerate() {
                        let blocks: Vec<BlockAddr> = listed.iter().map(|&(b, _)| b).collect();
                        assert_eq!(queue.blocks_mru_to_lru(), blocks, "{ctx} queue {q}");
                        for &(b, freq) in listed {
                            assert_eq!(mq.meta[&b], (q, freq), "{ctx} block {b:?}");
                        }
                    }
                    capped += usize::from(mq.meta.values().any(|&(_, f)| f == 128));
                }
            }
        }
        assert!(capped > 0, "no block reached the access-count ceiling");
        assert!(top_evictions > 0, "no eviction reached the top queues");
    }

    #[test]
    fn remove_and_stats() {
        let mut mq = MqCache::new(2);
        assert!(!mq.access(b(1)));
        mq.insert(b(1));
        assert!(mq.access_weighted(b(1), 3));
        assert!(mq.remove(b(1)));
        assert!(!mq.remove(b(1)));
        let s = mq.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 3);
    }
}

//! DEMOTE-LRU: exclusive caching via demotions.
//!
//! Wong & Wilkes (USENIX ATC'02) make the client/array cache pair
//! *exclusive*: when the upper (client — here: I/O node) cache evicts a
//! block, it DEMOTEs it to the lower (array — here: storage node) cache
//! instead of dropping it; the array cache inserts demoted blocks at the
//! MRU end of its LRU list, while blocks it reads from disk on behalf of
//! the client are not retained (they go straight up, keeping the pair
//! exclusive). The aggregate hierarchy then behaves like one cache of the
//! *combined* size instead of duplicating content at both layers.
//!
//! The per-access walk is implemented here over a borrowed (upper, lower)
//! cache pair so it can be unit-tested in isolation; [`crate::system`]
//! calls it with the caches selected by the topology routing.

use crate::block::BlockAddr;
use crate::cache::{LruCore, SetAssocCache};

/// The cache operations DEMOTE needs, implemented by both the flat LRU
/// core and the set-associative cache.
pub trait DemoteCache {
    /// Weighted lookup (see [`LruCore::access_weighted`]).
    fn access_weighted(&mut self, block: BlockAddr, weight: u32) -> bool;
    /// Insert at MRU; returns the evicted victim if full.
    fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr>;
    /// [`insert`](DemoteCache::insert) of a block this cache just
    /// missed, with no mutation since: skips the residency probe where
    /// the cache has one to skip.
    fn insert_absent(&mut self, block: BlockAddr) -> Option<BlockAddr>;
    /// Remove a resident block.
    fn remove(&mut self, block: BlockAddr) -> bool;
}

impl DemoteCache for LruCore {
    fn access_weighted(&mut self, block: BlockAddr, weight: u32) -> bool {
        LruCore::access_weighted(self, block, weight)
    }
    fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        LruCore::insert(self, block)
    }
    fn insert_absent(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        LruCore::insert(self, block)
    }
    fn remove(&mut self, block: BlockAddr) -> bool {
        LruCore::remove(self, block)
    }
}

impl DemoteCache for SetAssocCache {
    fn access_weighted(&mut self, block: BlockAddr, weight: u32) -> bool {
        SetAssocCache::access_weighted(self, block, weight)
    }
    fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        SetAssocCache::insert(self, block)
    }
    fn insert_absent(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        SetAssocCache::insert_absent(self, block)
    }
    fn remove(&mut self, block: BlockAddr) -> bool {
        SetAssocCache::remove(self, block)
    }
}

/// Where a DEMOTE-LRU access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemoteOutcome {
    /// Hit in the upper (I/O node) cache.
    UpperHit,
    /// Hit in the lower (storage node) cache; block promoted (and removed
    /// below — exclusivity).
    LowerHit {
        /// Whether the promotion triggered a demotion of the upper's LRU
        /// victim back down (costs an extra block transfer).
        demoted: bool,
    },
    /// Missed both caches; read from disk into the upper cache only.
    DiskRead {
        /// Whether inserting into the upper cache demoted a victim.
        demoted: bool,
    },
}

/// Perform one DEMOTE-LRU access against an (upper, lower) cache pair.
pub fn access<C: DemoteCache>(upper: &mut C, lower: &mut C, block: BlockAddr) -> DemoteOutcome {
    access_weighted(upper, lower, block, 1)
}

/// Weighted variant: the upper cache is charged for `weight` coalesced
/// element accesses; the lower cache sees at most one block request.
pub fn access_weighted<C: DemoteCache>(
    upper: &mut C,
    lower: &mut C,
    block: BlockAddr,
    weight: u32,
) -> DemoteOutcome {
    if upper.access_weighted(block, weight) {
        return DemoteOutcome::UpperHit;
    }
    if lower.access_weighted(block, 1) {
        // Exclusive promote: remove below, install above, demote victim.
        // The upper cache has not changed since it missed `block`.
        lower.remove(block);
        let evicted = upper.insert_absent(block);
        let demoted = match evicted {
            Some(victim) => {
                lower.insert(victim);
                true
            }
            None => false,
        };
        return DemoteOutcome::LowerHit { demoted };
    }
    // Disk read: exclusive placement — upper only.
    let evicted = upper.insert_absent(block);
    let demoted = match evicted {
        Some(victim) => {
            lower.insert(victim);
            true
        }
        None => false,
    };
    DemoteOutcome::DiskRead { demoted }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(0, i)
    }

    #[test]
    fn exclusivity_invariant() {
        let mut upper = LruCore::new(2);
        let mut lower = LruCore::new(2);
        for i in [1u64, 2, 3, 4, 1, 2, 3, 4, 2, 2, 1] {
            access(&mut upper, &mut lower, b(i));
            // No block may be resident at both layers.
            for blk in upper.blocks_mru_to_lru() {
                assert!(
                    !lower.contains(blk),
                    "block {blk:?} duplicated across layers"
                );
            }
        }
    }

    #[test]
    fn eviction_demotes_to_lower() {
        let mut upper = LruCore::new(1);
        let mut lower = LruCore::new(4);
        access(&mut upper, &mut lower, b(1)); // disk read, upper = {1}
        let out = access(&mut upper, &mut lower, b(2)); // evicts 1 → demoted
        assert_eq!(out, DemoteOutcome::DiskRead { demoted: true });
        assert!(lower.contains(b(1)), "victim must be demoted, not dropped");
        assert!(upper.contains(b(2)));
    }

    #[test]
    fn lower_hit_promotes_and_removes() {
        let mut upper = LruCore::new(1);
        let mut lower = LruCore::new(4);
        access(&mut upper, &mut lower, b(1));
        access(&mut upper, &mut lower, b(2)); // 1 demoted below
        let out = access(&mut upper, &mut lower, b(1)); // hit below
        assert!(matches!(out, DemoteOutcome::LowerHit { .. }));
        assert!(upper.contains(b(1)));
        assert!(
            !lower.contains(b(1)),
            "promoted block must leave the lower cache"
        );
        assert!(lower.contains(b(2)), "upper victim demoted during promote");
    }

    #[test]
    fn aggregate_behaves_like_combined_cache() {
        // Working set of 3 fits in upper(1)+lower(2) under DEMOTE but not
        // in either cache alone: after warm-up, cycling 1,2,3 always hits
        // somewhere except the cold pass.
        let mut upper = LruCore::new(1);
        let mut lower = LruCore::new(2);
        let trace = [1u64, 2, 3, 1, 2, 3, 1, 2, 3];
        let mut disk_reads = 0;
        for &i in &trace {
            if matches!(
                access(&mut upper, &mut lower, b(i)),
                DemoteOutcome::DiskRead { .. }
            ) {
                disk_reads += 1;
            }
        }
        assert_eq!(
            disk_reads, 3,
            "only the cold pass should reach disk, got {disk_reads}"
        );
    }

    #[test]
    fn upper_hit_costs_no_demotion() {
        let mut upper = LruCore::new(2);
        let mut lower = LruCore::new(2);
        access(&mut upper, &mut lower, b(1));
        assert_eq!(
            access(&mut upper, &mut lower, b(1)),
            DemoteOutcome::UpperHit
        );
    }
}

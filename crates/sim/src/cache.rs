//! The cache structures every policy is built from.
//!
//! [`SetAssocCache`] is the set-associative LRU cache real storage caches
//! use: each set is a flat MRU-first array with a per-set length, so a
//! lookup scans at most `ways` keys and a promotion or fill is a short
//! in-place shift. [`LruCore`] is a fixed-capacity LRU set with O(1)
//! lookup, promotion, insertion and eviction (a slab-backed intrusive
//! doubly-linked list, MRU at the head, indexed by a hash map); it backs
//! MQ's frequency queues. The hierarchy policies (inclusive LRU,
//! DEMOTE-LRU, KARMA) differ only in *when* they insert/remove/demote —
//! they all reuse these caches.

use crate::block::BlockAddr;
use crate::fxhash::FxHashMap;

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Node {
    block: BlockAddr,
    prev: usize,
    next: usize,
}

/// Hit/miss counters for one cache (or one aggregated layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups.
    pub accesses: u64,
    /// Number of lookups that found the block resident.
    pub hits: u64,
}

impl CacheStats {
    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss rate in [0, 1]; 0 for an idle cache.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Accumulate another counter into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
    }

    /// Count a lookup on behalf of `weight` coalesced element accesses.
    /// All `weight` accesses count as hits when the block was resident;
    /// on a miss, the first element access is the miss and the remaining
    /// `weight − 1` are served from the freshly fetched block (hits).
    #[inline]
    fn record(&mut self, hit: bool, weight: u32) {
        debug_assert!(weight >= 1);
        self.accesses += weight as u64;
        self.hits += weight as u64 - u64::from(!hit);
    }
}

/// A fixed-capacity LRU set of blocks.
#[derive(Clone, Debug)]
pub struct LruCore {
    capacity: usize,
    /// Block → slab index.
    map: FxHashMap<BlockAddr, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // MRU
    tail: usize, // LRU
    stats: CacheStats,
}

impl LruCore {
    /// An empty cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> LruCore {
        assert!(capacity > 0, "LruCore: zero capacity");
        LruCore {
            capacity,
            map: FxHashMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no block is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `block` is resident (does not touch recency or stats).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.map.contains_key(&block)
    }

    /// Look up `block`, recording a hit or miss; on hit the block becomes
    /// MRU. Returns `true` on hit.
    pub fn access(&mut self, block: BlockAddr) -> bool {
        self.access_weighted(block, 1)
    }

    /// Look up `block` on behalf of `weight` coalesced element accesses.
    /// All `weight` accesses count as hits when the block is resident; on
    /// a miss, the first element access is the miss and the remaining
    /// `weight − 1` are served from the freshly fetched block (hits).
    /// Returns `true` when the block was resident.
    pub fn access_weighted(&mut self, block: BlockAddr, weight: u32) -> bool {
        let found = self.map.get(&block).copied();
        self.stats.record(found.is_some(), weight);
        if let Some(idx) = found {
            self.unlink(idx);
            self.push_front(idx);
        }
        found.is_some()
    }

    /// Insert `block` as MRU (no stats recorded — insertion follows a miss
    /// already counted by [`access`](Self::access)). If the cache is full
    /// the LRU block is evicted and returned. Inserting a resident block
    /// just promotes it.
    pub fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        if let Some(&idx) = self.map.get(&block) {
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let evicted = if self.len() == self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let node = Node {
            block,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(block, idx);
        self.push_front(idx);
        evicted
    }

    /// Remove `block` if resident; returns whether it was present.
    pub fn remove(&mut self, block: BlockAddr) -> bool {
        if let Some(idx) = self.map.remove(&block) {
            self.unlink(idx);
            self.free.push(idx);
            true
        } else {
            false
        }
    }

    /// Evict and return the LRU block.
    pub fn pop_lru(&mut self) -> Option<BlockAddr> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let block = self.nodes[idx].block;
        self.unlink(idx);
        self.map.remove(&block);
        self.free.push(idx);
        Some(block)
    }

    /// Counters for this cache.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset counters (contents retained) — used between warm-up and
    /// measurement phases.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Resident blocks from MRU to LRU (test helper; O(len)).
    pub fn blocks_mru_to_lru(&self) -> Vec<BlockAddr> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.nodes[cur].block);
            cur = self.nodes[cur].next;
        }
        out
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A set-associative cache: `capacity / ways` hash-indexed sets, each an
/// LRU list of `ways` blocks.
///
/// Real storage caches index their block tables by address hash, so which
/// blocks conflict depends on the *file layout* — this is precisely the
/// effect the paper's hierarchy-aware pattern construction exploits (and
/// why targeting a single layer loses part of the benefit, Fig. 7(f)).
/// The set index preserves within-file block adjacency (consecutive blocks
/// fall into consecutive sets) and offsets different files by a prime
/// multiplier.
///
/// Storage is flat: set `s` owns slots `s·ways .. s·ways + lens[s]` of
/// the parallel `indices`/`files` arrays, most recently used first, so a
/// lookup scans one short run of keys and a promotion, fill or removal
/// shifts part of it in place.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    ways: usize,
    set_mod: FastMod,
    /// Block index of every slot, `num_sets × ways`, MRU-first per set.
    indices: Vec<u64>,
    /// File of every slot, parallel to `indices`.
    files: Vec<u32>,
    /// Resident blocks per set; slots past a set's length are stale.
    lens: Vec<u32>,
    stats: CacheStats,
}

/// Exact `x % n` without a hardware divide: Lemire's fastmod, widened to
/// 64-bit operands through 128-bit arithmetic. The set index is computed
/// on every simulated request and `n` (the set count) is a runtime value,
/// so the compiler cannot strength-reduce the modulo itself.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FastMod {
    n: u64,
    /// ceil(2^128 / n), wrapped to 0 for n = 1 (where the remainder is 0).
    m: u128,
}

impl FastMod {
    pub(crate) fn new(n: u64) -> FastMod {
        debug_assert!(n > 0, "FastMod: zero modulus");
        FastMod {
            n,
            m: (u128::MAX / n as u128).wrapping_add(1),
        }
    }

    #[inline]
    pub(crate) fn rem(&self, x: u64) -> u64 {
        let low = self.m.wrapping_mul(x as u128);
        // High 128 bits of `low × n`, assembled from 64-bit halves.
        let (ah, al) = ((low >> 64) as u64 as u128, low as u64 as u128);
        let n = self.n as u128;
        ((ah * n + ((al * n) >> 64)) >> 64) as u64
    }
}

/// The `(num_sets, ways)` geometry [`SetAssocCache::new`] builds for a
/// nominal `(capacity, ways)` pair, shared with the stack-distance sweep
/// engine so both derive identical set structures.
pub(crate) fn set_geometry(capacity: usize, ways: usize) -> (usize, usize) {
    assert!(
        capacity > 0 && ways > 0,
        "SetAssocCache: zero capacity/ways"
    );
    let ways = ways.min(capacity);
    let num_sets = (capacity / ways).max(1);
    (num_sets, ways)
}

/// The set-index hash of a block (before the modulo), shared with the
/// stack-distance sweep engine: within-file adjacency preserved, files
/// offset by a prime multiplier.
#[inline]
pub(crate) fn set_hash(block: BlockAddr) -> u64 {
    block.index + block.file as u64 * 7919
}

impl SetAssocCache {
    /// A cache of `capacity` blocks organized as `capacity / ways` sets of
    /// `ways` blocks. `ways >= capacity` degenerates to fully-associative.
    pub fn new(capacity: usize, ways: usize) -> SetAssocCache {
        let (num_sets, ways) = set_geometry(capacity, ways);
        SetAssocCache {
            ways,
            set_mod: FastMod::new(num_sets as u64),
            indices: vec![0; num_sets * ways],
            files: vec![0; num_sets * ways],
            lens: vec![0; num_sets],
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.lens.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.indices.len()
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        self.set_mod.rem(set_hash(block)) as usize
    }

    /// The block's set, that set's first slot, and its resident count.
    #[inline]
    fn locate(&self, block: BlockAddr) -> (usize, usize, usize) {
        let s = self.set_of(block);
        (s, s * self.ways, self.lens[s] as usize)
    }

    /// Position of `block` within its set's `len` resident slots.
    #[inline]
    fn position(&self, base: usize, len: usize, block: BlockAddr) -> Option<usize> {
        let indices = &self.indices[base..base + len];
        let files = &self.files[base..base + len];
        (0..len).find(|&i| indices[i] == block.index && files[i] == block.file)
    }

    /// Shift slots `from..to` one place towards the LRU end.
    #[inline]
    fn shift_down(&mut self, from: usize, to: usize) {
        self.indices.copy_within(from..to, from + 1);
        self.files.copy_within(from..to, from + 1);
    }

    /// Shift slots `from..to` one place towards the MRU end.
    #[inline]
    fn shift_up(&mut self, from: usize, to: usize) {
        self.indices.copy_within(from..to, from - 1);
        self.files.copy_within(from..to, from - 1);
    }

    #[inline]
    fn put(&mut self, slot: usize, block: BlockAddr) {
        self.indices[slot] = block.index;
        self.files[slot] = block.file;
    }

    #[inline]
    fn block_at(&self, slot: usize) -> BlockAddr {
        BlockAddr::new(self.files[slot], self.indices[slot])
    }

    /// Weighted lookup; see [`LruCore::access_weighted`]. On a hit the
    /// block becomes its set's MRU.
    pub fn access_weighted(&mut self, block: BlockAddr, weight: u32) -> bool {
        let (_, base, len) = self.locate(block);
        let found = self.position(base, len, block);
        self.stats.record(found.is_some(), weight);
        if let Some(pos) = found {
            self.shift_down(base, base + pos);
            self.put(base, block);
        }
        found.is_some()
    }

    /// Unweighted lookup.
    pub fn access(&mut self, block: BlockAddr) -> bool {
        self.access_weighted(block, 1)
    }

    /// Insert at MRU of the block's set; returns the set's LRU victim if
    /// the set was full. Inserting a resident block just promotes it.
    pub fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let (_, base, len) = self.locate(block);
        match self.position(base, len, block) {
            Some(pos) => {
                self.shift_down(base, base + pos);
                self.put(base, block);
                None
            }
            None => self.insert_absent(block),
        }
    }

    /// Insert a block the caller just observed missing — skips the
    /// residency probe [`insert`](Self::insert) pays. Only valid straight
    /// after a miss on this cache with no intervening mutation.
    pub(crate) fn insert_absent(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let (s, base, len) = self.locate(block);
        debug_assert!(
            self.position(base, len, block).is_none(),
            "insert_absent: block resident"
        );
        let victim = if len == self.ways {
            Some(self.block_at(base + len - 1))
        } else {
            self.lens[s] += 1;
            None
        };
        self.shift_down(base, base + len.min(self.ways - 1));
        self.put(base, block);
        victim
    }

    /// Remove a block if resident.
    pub fn remove(&mut self, block: BlockAddr) -> bool {
        let (s, base, len) = self.locate(block);
        match self.position(base, len, block) {
            Some(pos) => {
                self.shift_up(base + pos + 1, base + len);
                self.lens[s] -= 1;
                true
            }
            None => false,
        }
    }

    /// Residency check (no stats).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (_, base, len) = self.locate(block);
        self.position(base, len, block).is_some()
    }

    /// Total resident blocks.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&l| l == 0)
    }

    /// Counters over all sets.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident blocks per set (`result[s]` = occupancy of set `s`), for
    /// end-of-run occupancy snapshots.
    pub fn set_occupancies(&self) -> Vec<u32> {
        self.lens.clone()
    }

    /// Drop every resident block, keeping the hit/miss counters (a fault
    /// event: a node restart or forced cache flush loses contents, not
    /// statistics). Returns the number of blocks invalidated.
    pub fn invalidate_all(&mut self) -> usize {
        let dropped = self.len();
        self.lens.fill(0);
        dropped
    }

    /// Drop the resident blocks of every set whose index has the given
    /// parity — a degraded-mode "shrink" that transiently halves the
    /// effective capacity. Returns the number of blocks invalidated.
    pub fn invalidate_half(&mut self, parity: usize) -> usize {
        let mut dropped = 0;
        for len in self.lens.iter_mut().skip(parity % 2).step_by(2) {
            dropped += *len as usize;
            *len = 0;
        }
        dropped
    }

    /// Resident blocks, set by set, each set from MRU to LRU (test
    /// helper).
    pub fn blocks(&self) -> Vec<BlockAddr> {
        (0..self.num_sets())
            .flat_map(|s| s * self.ways..s * self.ways + self.lens[s] as usize)
            .map(|slot| self.block_at(slot))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NaiveSets;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(0, i)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = LruCore::new(2);
        assert!(!c.access(b(1)));
        c.insert(b(1));
        assert!(c.access(b(1)));
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_access_accounting() {
        let mut c = LruCore::new(2);
        // Cold block, 4 coalesced elements: 1 miss + 3 buffered hits.
        assert!(!c.access_weighted(b(1), 4));
        c.insert(b(1));
        // Warm block, 4 elements: all hits.
        assert!(c.access_weighted(b(1), 4));
        let s = c.stats();
        assert_eq!(s.accesses, 8);
        assert_eq!(s.hits, 7);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LruCore::new(2);
        c.insert(b(1));
        c.insert(b(2));
        let evicted = c.insert(b(3));
        assert_eq!(evicted, Some(b(1)), "LRU block must be evicted");
        assert!(c.contains(b(2)));
        assert!(c.contains(b(3)));
    }

    #[test]
    fn access_promotes_to_mru() {
        let mut c = LruCore::new(2);
        c.insert(b(1));
        c.insert(b(2));
        c.access(b(1)); // 1 becomes MRU, 2 is now LRU
        let evicted = c.insert(b(3));
        assert_eq!(evicted, Some(b(2)));
    }

    #[test]
    fn insert_resident_promotes() {
        let mut c = LruCore::new(2);
        c.insert(b(1));
        c.insert(b(2));
        assert_eq!(c.insert(b(1)), None);
        assert_eq!(c.insert(b(3)), Some(b(2)));
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCore::new(2);
        c.insert(b(1));
        assert!(c.remove(b(1)));
        assert!(!c.remove(b(1)));
        assert_eq!(c.len(), 0);
        c.insert(b(2));
        c.insert(b(3));
        assert_eq!(c.len(), 2);
        assert!(c.contains(b(2)) && c.contains(b(3)));
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut c = LruCore::new(3);
        c.insert(b(1));
        c.insert(b(2));
        c.insert(b(3));
        assert_eq!(c.pop_lru(), Some(b(1)));
        assert_eq!(c.pop_lru(), Some(b(2)));
        assert_eq!(c.pop_lru(), Some(b(3)));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn mru_to_lru_listing() {
        let mut c = LruCore::new(3);
        c.insert(b(1));
        c.insert(b(2));
        c.insert(b(3));
        c.access(b(1));
        assert_eq!(c.blocks_mru_to_lru(), vec![b(1), b(3), b(2)]);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCore::new(1);
        c.insert(b(1));
        assert_eq!(c.insert(b(2)), Some(b(1)));
        assert!(c.contains(b(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = LruCore::new(4);
        for i in 0..100 {
            c.access(b(i % 7));
            c.insert(b(i % 7));
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn lru_stack_property() {
        // A larger LRU cache's hits are a superset of a smaller one's on
        // the same trace (classic inclusion property).
        let trace: Vec<u64> = vec![1, 2, 3, 1, 4, 5, 2, 1, 3, 3, 6, 1, 2, 7, 1];
        let mut small = LruCore::new(2);
        let mut large = LruCore::new(4);
        for &t in &trace {
            let hs = small.access(b(t));
            let hl = large.access(b(t));
            assert!(!hs || hl, "small cache hit where large missed (block {t})");
            small.insert(b(t));
            large.insert(b(t));
        }
        assert!(large.stats().hits >= small.stats().hits);
    }

    /// The core against a one-set oracle cache (a plain MRU-first list),
    /// move for move: hits, victims, removals, LRU pops, counters, order.
    fn oracle_check(capacity: usize) {
        let mut core = LruCore::new(capacity);
        let mut oracle = NaiveSets::new(capacity, capacity);
        let mut x: u64 = 0x9E37_79B9;
        for step in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let blk = b(x % (capacity as u64 * 2));
            let ctx = format!("cap {capacity} step {step}");
            match x >> 40 & 15 {
                0 => assert_eq!(core.remove(blk), oracle.take(blk), "{ctx}"),
                1 => assert_eq!(core.pop_lru(), oracle.sets[0].pop(), "{ctx}"),
                _ => {
                    assert_eq!(core.access(blk), oracle.lookup(blk, 1), "{ctx}");
                    assert_eq!(core.insert(blk), oracle.insert(blk), "{ctx}");
                }
            }
            assert_eq!(core.stats(), oracle.stats, "{ctx}");
            assert_eq!(core.len(), oracle.sets[0].len(), "{ctx}");
        }
        assert_eq!(core.blocks_mru_to_lru(), oracle.sets[0]);
    }

    #[test]
    fn fastmod_matches_hardware_modulo() {
        let mut x: u64 = 0x0123_4567_89AB_CDEF;
        for n in [
            1u64,
            2,
            3,
            4,
            5,
            7,
            8,
            12,
            13,
            24,
            63,
            64,
            96,
            1_000_003,
            u64::MAX,
        ] {
            let fm = FastMod::new(n);
            for edge in [0, 1, n - 1, n, n.wrapping_add(1), u64::MAX - 1, u64::MAX] {
                assert_eq!(fm.rem(edge), edge % n, "n={n} x={edge}");
            }
            for _ in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                assert_eq!(fm.rem(x), x % n, "n={n} x={x}");
            }
        }
    }

    #[test]
    fn lru_core_matches_lru_oracle() {
        for capacity in [1, 8, 64, 65, 100] {
            oracle_check(capacity);
        }
    }

    /// The flat sets against the oracle's naive sets (one `Vec` per set,
    /// the hardware modulo), operation for operation: hits, victims,
    /// counters, per-set occupancy and MRU order.
    #[test]
    fn set_assoc_matches_naive_model() {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for capacity in [1usize, 5, 24, 64] {
            for ways in [1, 2, 3, 8, capacity] {
                let mut cache = SetAssocCache::new(capacity, ways);
                let mut model = NaiveSets::new(capacity, ways);
                assert_eq!(cache.num_sets(), model.sets.len());
                for step in 0..3000 {
                    let blk = BlockAddr::new(next(3) as u32, next(capacity as u64 * 2));
                    let ctx = format!("capacity {capacity} ways {ways} step {step}");
                    match next(100) {
                        0..=39 => {
                            let w = 1 + next(4) as u32;
                            let hit = cache.access_weighted(blk, w);
                            assert_eq!(hit, model.lookup(blk, w), "{ctx}");
                            if !hit && next(2) == 0 {
                                assert_eq!(cache.insert_absent(blk), model.insert(blk), "{ctx}");
                            }
                        }
                        40..=84 => assert_eq!(cache.insert(blk), model.insert(blk), "{ctx}"),
                        85..=96 => assert_eq!(cache.remove(blk), model.take(blk), "{ctx}"),
                        97 => assert_eq!(cache.invalidate_all(), model.drop_sets(|_| true)),
                        _ => {
                            let p = next(2) as usize;
                            let dropped = model.drop_sets(|i| i % 2 == p);
                            assert_eq!(cache.invalidate_half(p), dropped, "{ctx}");
                        }
                    }
                    assert_eq!(cache.contains(blk), model.set(blk).contains(&blk), "{ctx}");
                    assert_eq!(cache.stats(), model.stats, "{ctx}");
                    let occupancy: Vec<u32> = model.sets.iter().map(|s| s.len() as u32).collect();
                    assert_eq!(cache.set_occupancies(), occupancy, "{ctx}");
                    assert_eq!(cache.len(), occupancy.iter().sum::<u32>() as usize);
                }
                assert_eq!(cache.blocks(), model.sets.concat());
            }
        }
    }

    #[test]
    fn set_assoc_single_set_is_fully_associative() {
        let mut sa = SetAssocCache::new(4, 8); // ways clamped to 4 → 1 set
        assert_eq!(sa.num_sets(), 1);
        for i in 0..4 {
            sa.insert(b(i));
        }
        assert!(sa.access(b(0)));
        assert_eq!(sa.insert(b(9)), Some(b(1)), "global LRU evicted");
    }

    #[test]
    fn set_assoc_conflicts_within_set() {
        // 4 sets × 2 ways: blocks 0, 4, 8 share set 0; inserting three
        // evicts the set-LRU even though other sets are empty.
        let mut sa = SetAssocCache::new(8, 2);
        assert_eq!(sa.num_sets(), 4);
        sa.insert(b(0));
        sa.insert(b(4));
        let evicted = sa.insert(b(8));
        assert_eq!(evicted, Some(b(0)), "set conflict must evict");
        assert_eq!(sa.len(), 2);
    }

    #[test]
    fn set_assoc_consecutive_blocks_spread() {
        let mut sa = SetAssocCache::new(8, 2);
        for i in 0..8 {
            assert_eq!(
                sa.insert(b(i)),
                None,
                "consecutive blocks must not conflict"
            );
        }
        assert_eq!(sa.len(), 8);
    }

    #[test]
    fn set_assoc_files_are_offset() {
        let sa = SetAssocCache::new(8, 2);
        // Same index in different files should usually land in different
        // sets (prime multiplier).
        let a = BlockAddr::new(0, 0);
        let c = BlockAddr::new(1, 0);
        assert_ne!(sa.set_of(a), sa.set_of(c));
    }

    #[test]
    fn set_assoc_stats_aggregate() {
        let mut sa = SetAssocCache::new(8, 2);
        sa.access(b(0));
        sa.insert(b(0));
        sa.access(b(0));
        let st = sa.stats();
        assert_eq!(st.accesses, 2);
        assert_eq!(st.hits, 1);
    }
}

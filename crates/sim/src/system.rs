//! The assembled storage system: routing + caches + disks + policy walk.

use crate::block::BlockAddr;
use crate::cache::{CacheStats, SetAssocCache};
use crate::disk::{DiskModel, DiskState};
use crate::error::SimError;
use crate::fault::{CacheFault, FaultHook, NoFaults};
use crate::policies::demote::{self, DemoteOutcome};
use crate::policies::karma::{KarmaAssignment, KarmaHints, KarmaLevel};
use crate::policies::mq::MqCache;
use crate::policies::PolicyKind;
use crate::topology::Topology;
use flo_obs::{KarmaRoute, Layer, NullObserver, Observer};

/// Latency parameters of the non-disk path, in milliseconds per block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Compute node ⇄ I/O node transfer + I/O cache lookup.
    pub io_hit_ms: f64,
    /// Additional I/O node ⇄ storage node transfer + storage cache lookup.
    pub storage_hit_ms: f64,
    /// Cost of demoting one block (DEMOTE-LRU's extra transfer).
    pub demote_ms: f64,
}

impl CostModel {
    /// Defaults: a gigabit-class interconnect moving 128 KB blocks (the
    /// default 64-element data block).
    pub fn paper_default() -> CostModel {
        CostModel::for_block_elems(64)
    }

    /// Cost model for a given block size: each hop has a fixed per-request
    /// overhead plus a transfer component proportional to the block size
    /// (relative to the default 64-element block).
    pub fn for_block_elems(block_elems: u64) -> CostModel {
        let r = block_elems as f64 / 64.0;
        CostModel {
            io_hit_ms: 0.05 + 0.15 * r,
            storage_hit_ms: 0.10 + 0.20 * r,
            demote_ms: 0.05 + 0.10 * r,
        }
    }
}

/// A simulated storage hierarchy in a particular policy configuration.
///
/// Per-access entry point is [`StorageSystem::access`]; it returns the
/// latency charged to the issuing thread and updates per-layer statistics.
/// The observed variants ([`StorageSystem::access_observed`]) additionally
/// report per-event telemetry through a monomorphized
/// [`flo_obs::Observer`]; the plain entry points instantiate them with
/// [`NullObserver`], compiling to the uninstrumented walk. Every walk is
/// checked bit for bit against the independent model in
/// [`crate::oracle`].
pub struct StorageSystem {
    topo: Topology,
    policy: PolicyKind,
    costs: CostModel,
    disk_model: DiskModel,
    io_caches: Vec<SetAssocCache>,
    storage_caches: Vec<SetAssocCache>,
    mq_caches: Vec<MqCache>,
    disks: Vec<DiskState>,
    karma: KarmaAssignment,
    demotions: u64,
}

impl StorageSystem {
    /// Upper estimate of the bytes the caches of a system at `topo` under
    /// `policy` allocate when it is built: 16 per cache block (a
    /// `SetAssocCache` slot's 8-byte index and 4-byte file, and a share
    /// of its set's length), plus, under MQ, 768 per storage-cache block
    /// for the eight queues each storage cache sizes to its full
    /// capacity. Saturates instead of overflowing, so a caller can bound
    /// any capacity before building anything.
    pub fn cache_bytes(topo: &Topology, policy: PolicyKind) -> u64 {
        let blocks = |nodes: usize, capacity: usize| (nodes as u64).saturating_mul(capacity as u64);
        let io = blocks(topo.io_nodes, topo.io_cache_blocks);
        let storage = blocks(topo.storage_nodes, topo.storage_cache_blocks);
        let mq = if policy == PolicyKind::MqSecondLevel {
            storage.saturating_mul(768)
        } else {
            0
        };
        io.saturating_add(storage)
            .saturating_mul(16)
            .saturating_add(mq)
    }

    /// Build a system for `topo` under `policy`, with hop and disk costs
    /// derived from the topology's block size. Fails with
    /// [`SimError::InvalidTopology`] on a degenerate topology.
    pub fn new(topo: Topology, policy: PolicyKind) -> Result<StorageSystem, SimError> {
        let costs = CostModel::for_block_elems(topo.block_elems);
        let disk = DiskModel::for_block_elems(topo.block_elems);
        StorageSystem::with_costs(topo, policy, costs, disk)
    }

    /// Build with explicit cost models.
    pub fn with_costs(
        topo: Topology,
        policy: PolicyKind,
        costs: CostModel,
        disk_model: DiskModel,
    ) -> Result<StorageSystem, SimError> {
        topo.validate()?;
        let ways = topo.cache_ways;
        let io_caches = (0..topo.io_nodes)
            .map(|_| SetAssocCache::new(topo.io_cache_blocks, ways))
            .collect();
        let storage_caches = (0..topo.storage_nodes)
            .map(|_| SetAssocCache::new(topo.storage_cache_blocks, ways))
            .collect();
        let disks = (0..topo.storage_nodes)
            .map(|_| DiskState::default())
            .collect();
        let mq_caches = if policy == PolicyKind::MqSecondLevel {
            (0..topo.storage_nodes)
                .map(|_| MqCache::new(topo.storage_cache_blocks))
                .collect()
        } else {
            Vec::new()
        };
        Ok(StorageSystem {
            topo,
            policy,
            costs,
            disk_model,
            io_caches,
            storage_caches,
            mq_caches,
            disks,
            karma: KarmaAssignment::default(),
            demotions: 0,
        })
    }

    /// Install KARMA's application hints (required before a
    /// [`PolicyKind::Karma`] run; ignored by other policies).
    pub fn set_karma_hints(&mut self, hints: &KarmaHints) {
        self.karma = KarmaAssignment::allocate(hints, &self.topo);
    }

    /// The topology this system simulates.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The active policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Issue one block request from `compute_node`; returns the latency in
    /// milliseconds.
    pub fn access(&mut self, compute_node: usize, block: BlockAddr) -> f64 {
        self.access_weighted(compute_node, block, 1)
    }

    /// Issue one coalesced block request serving `weight` element
    /// accesses. The I/O-layer cache is charged `weight` accesses (the
    /// buffered element reads); the storage layer and disk see at most one
    /// block request. Returns the latency in milliseconds.
    pub fn access_weighted(&mut self, compute_node: usize, block: BlockAddr, weight: u32) -> f64 {
        self.access_observed(compute_node, block, weight, &mut NullObserver)
    }

    /// [`access_weighted`](Self::access_weighted), reporting per-event
    /// telemetry (cache lookups, evictions, demotions, disk reads, KARMA
    /// routing) to `obs`. Observers receive events only — the simulated
    /// behavior and returned latency are identical for every observer.
    pub fn access_observed<O: Observer>(
        &mut self,
        compute_node: usize,
        block: BlockAddr,
        weight: u32,
        obs: &mut O,
    ) -> f64 {
        self.access_faulted(compute_node, block, weight, obs, &mut NoFaults)
    }

    /// [`access_observed`](Self::access_observed) under a fault hook: the
    /// hook ticks its schedule clock, may reroute the request around an
    /// outage, and may inflate the disk cost (stragglers, transient-error
    /// retries). With [`NoFaults`] every hook site monomorphizes away and
    /// this *is* `access_observed`.
    pub fn access_faulted<O: Observer, F: FaultHook>(
        &mut self,
        compute_node: usize,
        block: BlockAddr,
        weight: u32,
        obs: &mut O,
        faults: &mut F,
    ) -> f64 {
        if F::ACTIVE {
            faults.on_request(self, obs);
        }
        let io_idx = self.topo.io_node_of_compute(compute_node);
        let mut sc_idx = self.topo.storage_node_of_block(block);
        if F::ACTIVE {
            sc_idx = faults.route(&self.topo, block, sc_idx, obs);
        }
        match self.policy {
            PolicyKind::LruInclusive => {
                self.access_inclusive(io_idx, sc_idx, block, weight, obs, faults)
            }
            PolicyKind::DemoteLru => self.access_demote(io_idx, sc_idx, block, weight, obs, faults),
            PolicyKind::Karma => self.access_karma(io_idx, sc_idx, block, weight, obs, faults),
            PolicyKind::MqSecondLevel => self.access_mq(io_idx, sc_idx, block, weight, obs, faults),
        }
    }

    fn disk_read<O: Observer, F: FaultHook>(
        &mut self,
        sc_idx: usize,
        block: BlockAddr,
        obs: &mut O,
        faults: &mut F,
    ) -> f64 {
        let (ms, sequential) =
            self.disks[sc_idx].read_classified(block, &self.disk_model, self.topo.storage_nodes);
        obs.disk_read(sc_idx, sequential, ms);
        if F::ACTIVE {
            faults.disk_cost(sc_idx, ms, obs)
        } else {
            ms
        }
    }

    fn access_inclusive<O: Observer, F: FaultHook>(
        &mut self,
        io_idx: usize,
        sc_idx: usize,
        block: BlockAddr,
        weight: u32,
        obs: &mut O,
        faults: &mut F,
    ) -> f64 {
        if self.io_caches[io_idx].access_weighted(block, weight) {
            obs.cache_access(Layer::Io, io_idx, true, weight);
            return self.costs.io_hit_ms;
        }
        obs.cache_access(Layer::Io, io_idx, false, weight);
        // `insert_absent`: the block provably missed the layer it is being
        // installed into, and nothing touched that layer since.
        if self.storage_caches[sc_idx].access(block) {
            obs.cache_access(Layer::Storage, sc_idx, true, 1);
            if self.io_caches[io_idx].insert_absent(block).is_some() {
                obs.eviction(Layer::Io, io_idx);
            }
            return self.costs.io_hit_ms + self.costs.storage_hit_ms;
        }
        obs.cache_access(Layer::Storage, sc_idx, false, 1);
        let disk = self.disk_read(sc_idx, block, obs, faults);
        // Inclusive: the block is installed at both layers.
        if self.storage_caches[sc_idx].insert_absent(block).is_some() {
            obs.eviction(Layer::Storage, sc_idx);
        }
        if self.io_caches[io_idx].insert_absent(block).is_some() {
            obs.eviction(Layer::Io, io_idx);
        }
        self.costs.io_hit_ms + self.costs.storage_hit_ms + disk
    }

    fn access_demote<O: Observer, F: FaultHook>(
        &mut self,
        io_idx: usize,
        sc_idx: usize,
        block: BlockAddr,
        weight: u32,
        obs: &mut O,
        faults: &mut F,
    ) -> f64 {
        let out = demote::access_weighted(
            &mut self.io_caches[io_idx],
            &mut self.storage_caches[sc_idx],
            block,
            weight,
        );
        match out {
            DemoteOutcome::UpperHit => {
                obs.cache_access(Layer::Io, io_idx, true, weight);
                self.costs.io_hit_ms
            }
            DemoteOutcome::LowerHit { demoted } => {
                obs.cache_access(Layer::Io, io_idx, false, weight);
                obs.cache_access(Layer::Storage, sc_idx, true, 1);
                if demoted {
                    self.demotions += 1;
                    obs.eviction(Layer::Io, io_idx);
                    obs.demotion(io_idx);
                }
                self.costs.io_hit_ms
                    + self.costs.storage_hit_ms
                    + if demoted { self.costs.demote_ms } else { 0.0 }
            }
            DemoteOutcome::DiskRead { demoted } => {
                obs.cache_access(Layer::Io, io_idx, false, weight);
                obs.cache_access(Layer::Storage, sc_idx, false, 1);
                if demoted {
                    self.demotions += 1;
                    obs.eviction(Layer::Io, io_idx);
                    obs.demotion(io_idx);
                }
                let disk = self.disk_read(sc_idx, block, obs, faults);
                self.costs.io_hit_ms
                    + self.costs.storage_hit_ms
                    + disk
                    + if demoted { self.costs.demote_ms } else { 0.0 }
            }
        }
    }

    fn access_karma<O: Observer, F: FaultHook>(
        &mut self,
        io_idx: usize,
        sc_idx: usize,
        block: BlockAddr,
        weight: u32,
        obs: &mut O,
        faults: &mut F,
    ) -> f64 {
        match self.karma.level_for(io_idx, block.file) {
            KarmaLevel::Io => {
                obs.karma_route(KarmaRoute::Upper);
                // Range partitioned into the I/O layer; the storage layer
                // read-discards on its behalf.
                if self.io_caches[io_idx].access_weighted(block, weight) {
                    obs.cache_access(Layer::Io, io_idx, true, weight);
                    return self.costs.io_hit_ms;
                }
                obs.cache_access(Layer::Io, io_idx, false, weight);
                let disk = self.disk_read(sc_idx, block, obs, faults);
                if self.io_caches[io_idx].insert_absent(block).is_some() {
                    obs.eviction(Layer::Io, io_idx);
                }
                self.costs.io_hit_ms + self.costs.storage_hit_ms + disk
            }
            KarmaLevel::Storage => {
                obs.karma_route(KarmaRoute::Lower);
                // The I/O layer does not cache this range (exclusive): the
                // lookup below still counts as an I/O-layer miss.
                let io_hit = self.io_caches[io_idx].access_weighted(block, weight);
                obs.cache_access(Layer::Io, io_idx, io_hit, weight);
                if self.storage_caches[sc_idx].access(block) {
                    obs.cache_access(Layer::Storage, sc_idx, true, 1);
                    return self.costs.io_hit_ms + self.costs.storage_hit_ms;
                }
                obs.cache_access(Layer::Storage, sc_idx, false, 1);
                let disk = self.disk_read(sc_idx, block, obs, faults);
                if self.storage_caches[sc_idx].insert_absent(block).is_some() {
                    obs.eviction(Layer::Storage, sc_idx);
                }
                self.costs.io_hit_ms + self.costs.storage_hit_ms + disk
            }
            KarmaLevel::Bypass => {
                obs.karma_route(KarmaRoute::Bypass);
                let io_hit = self.io_caches[io_idx].access_weighted(block, weight);
                obs.cache_access(Layer::Io, io_idx, io_hit, weight);
                let sc_hit = self.storage_caches[sc_idx].access(block);
                obs.cache_access(Layer::Storage, sc_idx, sc_hit, 1);
                let disk = self.disk_read(sc_idx, block, obs, faults);
                self.costs.io_hit_ms + self.costs.storage_hit_ms + disk
            }
        }
    }

    fn access_mq<O: Observer, F: FaultHook>(
        &mut self,
        io_idx: usize,
        sc_idx: usize,
        block: BlockAddr,
        weight: u32,
        obs: &mut O,
        faults: &mut F,
    ) -> f64 {
        if self.io_caches[io_idx].access_weighted(block, weight) {
            obs.cache_access(Layer::Io, io_idx, true, weight);
            return self.costs.io_hit_ms;
        }
        obs.cache_access(Layer::Io, io_idx, false, weight);
        if self.mq_caches[sc_idx].access(block) {
            obs.cache_access(Layer::Storage, sc_idx, true, 1);
            if self.io_caches[io_idx].insert_absent(block).is_some() {
                obs.eviction(Layer::Io, io_idx);
            }
            return self.costs.io_hit_ms + self.costs.storage_hit_ms;
        }
        obs.cache_access(Layer::Storage, sc_idx, false, 1);
        let disk = self.disk_read(sc_idx, block, obs, faults);
        if self.mq_caches[sc_idx].insert(block).is_some() {
            obs.eviction(Layer::Storage, sc_idx);
        }
        if self.io_caches[io_idx].insert_absent(block).is_some() {
            obs.eviction(Layer::Io, io_idx);
        }
        self.costs.io_hit_ms + self.costs.storage_hit_ms + disk
    }

    /// Apply a fault-injected flush or half-capacity shrink (dropping the
    /// sets of the given parity) to the cache of `layer` node `node`;
    /// returns the resident blocks dropped. MQ caches have no set
    /// structure, so a shrink flushes them fully.
    pub(crate) fn apply_cache_fault(
        &mut self,
        layer: Layer,
        node: usize,
        fault: CacheFault,
        parity: usize,
    ) -> usize {
        let cache = match layer {
            Layer::Io => &mut self.io_caches[node],
            Layer::Storage if self.policy == PolicyKind::MqSecondLevel => {
                return self.mq_caches[node].invalidate_all();
            }
            Layer::Storage => &mut self.storage_caches[node],
        };
        match fault {
            CacheFault::Flush => cache.invalidate_all(),
            CacheFault::Shrink => cache.invalidate_half(parity),
        }
    }

    /// Report every cache's end-of-run per-set occupancy to `obs` (MQ
    /// caches have no set structure and are skipped).
    pub fn snapshot_occupancy<O: Observer>(&self, obs: &mut O) {
        for (n, c) in self.io_caches.iter().enumerate() {
            obs.occupancy(Layer::Io, n, &c.set_occupancies());
        }
        for (n, c) in self.storage_caches.iter().enumerate() {
            obs.occupancy(Layer::Storage, n, &c.set_occupancies());
        }
    }

    /// Aggregated I/O-layer statistics.
    pub fn io_layer_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.io_caches {
            s.merge(&c.stats());
        }
        s
    }

    /// Aggregated storage-layer statistics.
    pub fn storage_layer_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.storage_caches {
            s.merge(&c.stats());
        }
        for c in &self.mq_caches {
            s.merge(&c.stats());
        }
        s
    }

    /// Total disk reads and how many were sequential.
    pub fn disk_stats(&self) -> (u64, u64) {
        let reads = self.disks.iter().map(|d| d.reads).sum();
        let seq = self.disks.iter().map(|d| d.sequential_reads).sum();
        (reads, seq)
    }

    /// Number of DEMOTE transfers performed.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(0, i)
    }

    fn tiny_system(policy: PolicyKind) -> StorageSystem {
        StorageSystem::new(Topology::tiny(), policy).unwrap()
    }

    /// The cost model a tiny-topology system uses (block-size scaled).
    fn tiny_costs() -> CostModel {
        CostModel::for_block_elems(Topology::tiny().block_elems)
    }

    #[test]
    fn inclusive_cold_then_warm() {
        let mut sys = tiny_system(PolicyKind::LruInclusive);
        let cold = sys.access(0, b(1));
        let warm = sys.access(0, b(1));
        assert!(cold > warm, "cold access must cost more ({cold} vs {warm})");
        assert_eq!(warm, tiny_costs().io_hit_ms);
        let (reads, _) = sys.disk_stats();
        assert_eq!(reads, 1);
    }

    #[test]
    fn inclusive_keeps_copies_at_both_layers() {
        let mut sys = tiny_system(PolicyKind::LruInclusive);
        sys.access(0, b(1));
        // A different compute node behind a *different* I/O node misses at
        // the I/O layer but hits the shared storage cache.
        let latency = sys.access(2, b(1));
        let c = tiny_costs();
        assert_eq!(latency, c.io_hit_ms + c.storage_hit_ms);
        let (reads, _) = sys.disk_stats();
        assert_eq!(reads, 1, "storage-cache hit must not touch disk");
    }

    #[test]
    fn sibling_compute_nodes_share_io_cache() {
        let mut sys = tiny_system(PolicyKind::LruInclusive);
        sys.access(0, b(1));
        // Compute node 1 shares I/O node 0 with compute node 0.
        let latency = sys.access(1, b(1));
        assert_eq!(latency, tiny_costs().io_hit_ms);
    }

    #[test]
    fn layer_stats_accumulate() {
        let mut sys = tiny_system(PolicyKind::LruInclusive);
        sys.access(0, b(1));
        sys.access(0, b(1));
        sys.access(0, b(2));
        let io = sys.io_layer_stats();
        assert_eq!(io.accesses, 3);
        assert_eq!(io.hits, 1);
        let sc = sys.storage_layer_stats();
        // Storage layer sees only the two I/O misses.
        assert_eq!(sc.accesses, 2);
        assert_eq!(sc.hits, 0);
    }

    #[test]
    fn demote_policy_counts_demotions() {
        let mut topo = Topology::tiny();
        topo.io_cache_blocks = 1;
        let mut sys = StorageSystem::new(topo, PolicyKind::DemoteLru).unwrap();
        sys.access(0, b(1));
        sys.access(0, b(2)); // evicts 1 → demotion
        assert!(sys.demotions() >= 1);
        // Block 1 now hits at the storage layer.
        let latency = sys.access(0, b(1));
        let c = tiny_costs();
        assert!(
            latency
                < c.io_hit_ms + c.storage_hit_ms + DiskModel::paper_default().sequential_ms() + 1.0
        );
        let (reads, _) = sys.disk_stats();
        assert_eq!(reads, 2, "demoted block must be served from storage cache");
    }

    #[test]
    fn karma_bypass_always_reads_disk() {
        let mut sys = tiny_system(PolicyKind::Karma);
        // Hint an enormous cold range for file 0 → Bypass.
        sys.set_karma_hints(&KarmaHints::from_triples(&[(0, 10_000, 1)]));
        sys.access(0, b(1));
        sys.access(0, b(1));
        let (reads, _) = sys.disk_stats();
        assert_eq!(reads, 2, "bypass range must not be cached");
    }

    #[test]
    fn karma_io_range_is_cached_high() {
        let mut sys = tiny_system(PolicyKind::Karma);
        sys.set_karma_hints(&KarmaHints::from_triples(&[(0, 4, 1000)]));
        sys.access(0, b(1));
        let warm = sys.access(0, b(1));
        assert_eq!(warm, tiny_costs().io_hit_ms);
    }

    #[test]
    fn karma_storage_range_shared_across_io_nodes() {
        let mut sys = tiny_system(PolicyKind::Karma);
        // File 0 too big for one I/O cache (8) but fits storage (16);
        // file 1 is small and hot → admitted at the I/O caches.
        sys.set_karma_hints(&KarmaHints::from_triples(&[(0, 12, 100), (1, 4, 1000)]));
        sys.access(0, b(1));
        let warm = sys.access(2, b(1)); // other I/O node, same storage cache
        let c = tiny_costs();
        assert_eq!(warm, c.io_hit_ms + c.storage_hit_ms);
        let (reads, _) = sys.disk_stats();
        assert_eq!(reads, 1);
    }

    #[test]
    fn striping_spreads_disk_load() {
        let mut topo = Topology::tiny();
        topo.storage_nodes = 2;
        topo.io_cache_blocks = 1;
        topo.storage_cache_blocks = 1;
        let mut sys = StorageSystem::new(topo, PolicyKind::LruInclusive).unwrap();
        for i in 0..100 {
            sys.access(0, b(i % 50));
        }
        let (reads, _) = sys.disk_stats();
        assert!(reads > 0);
    }
}

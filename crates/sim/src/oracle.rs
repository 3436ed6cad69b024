//! A deliberately naive reference model of the paper's §5 platform.
//!
//! [`simulate_oracle`] replays the request stream [`crate::simulate`]
//! sees through the plainest structures that state the platform's
//! rules: one MRU-first `Vec` per cache set, found by a linear scan; MQ
//! as eight plain lists; KARMA's allocation as hash maps; a `VecDeque`
//! disk scheduling window; routing by plain division and modulo. It is
//! slow on purpose and never runs in an experiment.
//!
//! With the shipping simulator it shares only the data types, the
//! [`JitterInterleaver`] request order, the Table 1 cost constants
//! ([`CostModel`], [`DiskModel`]) and [`FaultPlan`]'s seeded draws — no
//! set hashing, routing, cache, disk or policy code. That makes it the
//! single differential reference for `simulate`, `simulate_faulted`,
//! `simulate_sweep`, the cache structures and KARMA's allocation table:
//! each is checked against an independent statement of the rules, not
//! against a copy of itself.

use crate::block::{BlockAddr, FileId};
use crate::cache::CacheStats;
use crate::disk::DiskModel;
use crate::fault::{CacheFault, FaultPlan};
use crate::policies::karma::{KarmaHints, KarmaLevel, RangeHint};
use crate::policies::PolicyKind;
use crate::sim::{RunConfig, INTERLEAVE_SEED};
use crate::stats::{LayerStats, SimReport};
use crate::system::CostModel;
use crate::topology::Topology;
use crate::trace::{JitterInterleaver, ThreadTrace};
use flo_obs::Layer;
use std::collections::{HashMap, HashSet, VecDeque};

/// Distinct LBAs a disk remembers for sequentiality detection. This and
/// the other model constants are restated here, not imported, so a change
/// to the shipping model shows up as a disagreement.
const DISK_WINDOW: usize = 64;
/// Longest forward LBA skip that still reads at sequential cost.
const DISK_SKIP: u64 = 4;
/// MQ's frequency queues: a block with access count `c` sits in queue
/// `⌊log₂ c⌋`, the last queue taking every higher count.
const MQ_QUEUES: usize = 8;
/// MQ's access-count ceiling (the first count of the top queue).
const MQ_MAX_FREQ: u32 = 128;

/// Count a lookup made for `weight` coalesced element accesses: a miss
/// is one miss, the other `weight - 1` accesses hit the fetched block.
fn record(stats: &mut CacheStats, hit: bool, weight: u32) {
    stats.accesses += u64::from(weight);
    stats.hits += u64::from(weight) - u64::from(!hit);
}

/// Set-associative LRU: one MRU-first `Vec` per set.
#[derive(Clone, Debug)]
pub(crate) struct NaiveSets {
    pub(crate) sets: Vec<Vec<BlockAddr>>,
    ways: usize,
    pub(crate) stats: CacheStats,
}

impl NaiveSets {
    pub(crate) fn new(capacity: usize, ways: usize) -> NaiveSets {
        let ways = ways.min(capacity);
        NaiveSets {
            sets: vec![Vec::new(); (capacity / ways).max(1)],
            ways,
            stats: CacheStats::default(),
        }
    }

    /// The set `block` maps to: consecutive blocks of a file fall into
    /// consecutive sets, files are offset by a prime.
    pub(crate) fn set(&mut self, block: BlockAddr) -> &mut Vec<BlockAddr> {
        let n = self.sets.len() as u64;
        &mut self.sets[((block.index + 7919 * u64::from(block.file)) % n) as usize]
    }

    /// Remove `block`; whether it was resident.
    pub(crate) fn take(&mut self, block: BlockAddr) -> bool {
        let set = self.set(block);
        match set.iter().position(|&b| b == block) {
            Some(p) => {
                set.remove(p);
                true
            }
            None => false,
        }
    }

    /// Counted lookup; a hit becomes its set's MRU block.
    pub(crate) fn lookup(&mut self, block: BlockAddr, weight: u32) -> bool {
        let hit = self.take(block);
        if hit {
            self.set(block).insert(0, block);
        }
        record(&mut self.stats, hit, weight);
        hit
    }

    /// Install `block` as its set's MRU (a resident block just moves
    /// there); returns the set's LRU block if that overflowed the set.
    pub(crate) fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        self.take(block);
        let ways = self.ways;
        let set = self.set(block);
        set.insert(0, block);
        if set.len() > ways {
            set.pop()
        } else {
            None
        }
    }

    /// Empty every set whose index satisfies `pick`; returns the blocks
    /// dropped.
    pub(crate) fn drop_sets(&mut self, pick: impl Fn(usize) -> bool) -> usize {
        let mut dropped = 0;
        for (i, set) in self.sets.iter_mut().enumerate() {
            if pick(i) {
                dropped += set.len();
                set.clear();
            }
        }
        dropped
    }
}

/// Multi-Queue: eight MRU-first lists of `(block, access count)`.
#[derive(Clone, Debug)]
pub(crate) struct NaiveMq {
    pub(crate) queues: Vec<Vec<(BlockAddr, u32)>>,
    capacity: usize,
    pub(crate) stats: CacheStats,
}

impl NaiveMq {
    pub(crate) fn new(capacity: usize) -> NaiveMq {
        NaiveMq {
            queues: vec![Vec::new(); MQ_QUEUES],
            capacity,
            stats: CacheStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Remove `block`; its access count if it was resident.
    fn take(&mut self, block: BlockAddr) -> Option<u32> {
        for queue in &mut self.queues {
            if let Some(p) = queue.iter().position(|&(b, _)| b == block) {
                return Some(queue.remove(p).1);
            }
        }
        None
    }

    /// Counted lookup; a hit bumps the block's count (up to the ceiling)
    /// and makes it the MRU block of the queue that count selects.
    pub(crate) fn lookup(&mut self, block: BlockAddr, weight: u32) -> bool {
        let found = self.take(block);
        if let Some(freq) = found {
            let freq = (freq + 1).min(MQ_MAX_FREQ);
            let queue = (freq.ilog2() as usize).min(MQ_QUEUES - 1);
            self.queues[queue].insert(0, (block, freq));
        }
        record(&mut self.stats, found.is_some(), weight);
        found.is_some()
    }

    /// Install an absent block with count 1, first evicting the LRU block
    /// of the lowest non-empty queue when full; returns that victim. A
    /// resident block is left as it is.
    pub(crate) fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        if self.queues.iter().flatten().any(|&(b, _)| b == block) {
            return None;
        }
        let mut victim = None;
        if self.len() == self.capacity {
            let lowest = self.queues.iter_mut().find(|q| !q.is_empty());
            victim = lowest.and_then(Vec::pop).map(|(b, _)| b);
        }
        self.queues[0].insert(0, (block, 1));
        victim
    }

    /// Drop every block; returns how many.
    pub(crate) fn clear(&mut self) -> usize {
        let dropped = self.len();
        self.queues.iter_mut().for_each(Vec::clear);
        dropped
    }
}

/// KARMA's allocation rule with one admitted-file set per I/O node and a
/// per-file fallback level.
#[derive(Clone, Debug)]
pub(crate) struct KarmaRule {
    pub(crate) io_admitted: Vec<HashSet<FileId>>,
    pub(crate) level_of_file: HashMap<FileId, KarmaLevel>,
}

impl KarmaRule {
    /// Partition the caches by marginal gain (accesses per block,
    /// highest first, ties to the lower file id): each I/O node admits
    /// the ranges it sees while they fit its cache; ranges not admitted
    /// at every I/O node then fill the aggregate storage capacity, and
    /// the rest bypass caching.
    pub(crate) fn allocate(hints: &KarmaHints, topo: &Topology) -> KarmaRule {
        let by_gain = |ranges: &[RangeHint]| {
            let mut sorted = ranges.to_vec();
            sorted.sort_by(|x, y| {
                let gain = |r: &RangeHint, other: &RangeHint| {
                    u128::from(r.accesses) * u128::from(other.num_blocks.max(1))
                };
                gain(y, x).cmp(&gain(x, y)).then(x.file.cmp(&y.file))
            });
            sorted
        };
        let io_admitted: Vec<HashSet<FileId>> = (0..topo.io_nodes)
            .map(|g| {
                let seen = if hints.group_ranges.len() == topo.io_nodes {
                    &hints.group_ranges[g]
                } else {
                    &hints.ranges
                };
                let mut left = topo.io_cache_blocks as u64;
                let mut admitted = HashSet::new();
                for r in by_gain(seen) {
                    if r.num_blocks <= left {
                        left -= r.num_blocks;
                        admitted.insert(r.file);
                    }
                }
                admitted
            })
            .collect();
        let mut storage_left = (topo.storage_nodes * topo.storage_cache_blocks) as u64;
        let mut level_of_file = HashMap::new();
        for r in by_gain(&hints.ranges) {
            let level = if io_admitted.iter().all(|a| a.contains(&r.file)) {
                KarmaLevel::Io
            } else if r.num_blocks <= storage_left {
                storage_left -= r.num_blocks;
                KarmaLevel::Storage
            } else {
                KarmaLevel::Bypass
            };
            level_of_file.insert(r.file, level);
        }
        KarmaRule {
            io_admitted,
            level_of_file,
        }
    }

    /// Where `file` is cached for requests through I/O node `io_node`;
    /// unhinted files are cached at the I/O level.
    pub(crate) fn level_for(&self, io_node: usize, file: FileId) -> KarmaLevel {
        if self
            .io_admitted
            .get(io_node)
            .is_some_and(|a| a.contains(&file))
        {
            return KarmaLevel::Io;
        }
        self.level_of_file
            .get(&file)
            .copied()
            .unwrap_or(KarmaLevel::Io)
    }
}

/// The whole platform under one policy, plus the current fault window.
struct Platform<'a> {
    topo: &'a Topology,
    policy: PolicyKind,
    plan: FaultPlan,
    costs: CostModel,
    disk_model: DiskModel,
    io: Vec<NaiveSets>,
    storage: Vec<NaiveSets>,
    mq: Vec<NaiveMq>,
    /// Per disk, the distinct LBAs it served last, oldest first.
    disks: Vec<VecDeque<u64>>,
    disk_reads: u64,
    sequential_reads: u64,
    karma: KarmaRule,
    demotions: u64,
    window: Option<u64>,
    live: Vec<bool>,
    straggling: Vec<bool>,
}

impl Platform<'_> {
    /// Enter fault window `w`: draw each storage node's outage and
    /// straggler state, then each cache's flush or half-shrink.
    fn enter_window(&mut self, w: u64) {
        self.window = Some(w);
        for node in 0..self.topo.storage_nodes {
            self.live[node] = !self.plan.outage_fires(node, w);
            self.straggling[node] = self.plan.straggler_fires(node, w);
        }
        let same_parity = |set: usize| set % 2 == w as usize % 2;
        for node in 0..self.topo.io_nodes {
            match self.plan.cache_fault(Layer::Io, node, w) {
                Some(CacheFault::Flush) => self.io[node].drop_sets(|_| true),
                Some(CacheFault::Shrink) => self.io[node].drop_sets(same_parity),
                None => 0,
            };
        }
        for node in 0..self.topo.storage_nodes {
            match self.plan.cache_fault(Layer::Storage, node, w) {
                // MQ has no sets: a shrink flushes it too.
                Some(_) if self.policy == PolicyKind::MqSecondLevel => self.mq[node].clear(),
                Some(CacheFault::Flush) => self.storage[node].drop_sets(|_| true),
                Some(CacheFault::Shrink) => self.storage[node].drop_sets(same_parity),
                None => 0,
            };
        }
    }

    /// A disk read of `block` at storage node `node` for request
    /// `request`: sequential when its LBA repeats or shortly follows one
    /// the disk remembers, random otherwise, then slowed by a straggler
    /// and charged transient-error retries.
    fn disk_read(&mut self, node: usize, block: BlockAddr, request: u64) -> f64 {
        let lba = (u64::from(block.file) << 24) | (block.index / self.topo.storage_nodes as u64);
        let window = &mut self.disks[node];
        let sequential = window.iter().any(|&x| x <= lba && lba - x <= DISK_SKIP);
        if window.len() == DISK_WINDOW {
            window.pop_front();
        }
        if !window.contains(&lba) {
            window.push_back(lba);
        }
        self.disk_reads += 1;
        self.sequential_reads += u64::from(sequential);
        let ms = if sequential {
            self.disk_model.sequential_ms()
        } else {
            self.disk_model.random_ms()
        };
        let mut total = ms;
        if self.straggling[node] {
            total += ms * (self.plan.straggler_multiplier - 1.0);
        }
        let mut wait = self.plan.retry.base_timeout_ms;
        for attempt in 0..self.plan.retry.max_retries {
            if !self.plan.transient_fires(request, attempt) {
                break;
            }
            total += wait;
            wait *= self.plan.retry.backoff;
        }
        total
    }

    /// Serve request number `request` (`weight` element accesses to
    /// `block` from `compute_node`); returns its latency.
    fn access(&mut self, request: u64, compute_node: usize, block: BlockAddr, weight: u32) -> f64 {
        let w = request / self.plan.window;
        if self.window != Some(w) {
            self.enter_window(w);
        }
        let topo = self.topo;
        let io = compute_node / (topo.compute_nodes / topo.io_nodes);
        // A dark node's blocks go to the next live node round-robin; with
        // no live node they stay home.
        let home = (block.index % topo.storage_nodes as u64) as usize;
        let sc = (0..topo.storage_nodes)
            .map(|off| (home + off) % topo.storage_nodes)
            .find(|&n| self.live[n])
            .unwrap_or(home);
        let (io_ms, sc_ms) = (self.costs.io_hit_ms, self.costs.storage_hit_ms);
        match self.policy {
            PolicyKind::LruInclusive | PolicyKind::MqSecondLevel => {
                if self.io[io].lookup(block, weight) {
                    return io_ms;
                }
                let mq = self.policy == PolicyKind::MqSecondLevel;
                let sc_hit = if mq {
                    self.mq[sc].lookup(block, 1)
                } else {
                    self.storage[sc].lookup(block, 1)
                };
                if sc_hit {
                    self.io[io].insert(block);
                    return io_ms + sc_ms;
                }
                let disk = self.disk_read(sc, block, request);
                if mq {
                    self.mq[sc].insert(block);
                } else {
                    self.storage[sc].insert(block);
                }
                self.io[io].insert(block);
                io_ms + sc_ms + disk
            }
            PolicyKind::DemoteLru => {
                if self.io[io].lookup(block, weight) {
                    return io_ms;
                }
                // Exclusive: a block moves up out of the storage cache,
                // and the I/O cache's victim is demoted into it.
                let sc_hit = self.storage[sc].lookup(block, 1);
                if sc_hit {
                    self.storage[sc].take(block);
                }
                let mut demote_ms = 0.0;
                if let Some(victim) = self.io[io].insert(block) {
                    self.storage[sc].insert(victim);
                    self.demotions += 1;
                    demote_ms = self.costs.demote_ms;
                }
                if sc_hit {
                    return io_ms + sc_ms + demote_ms;
                }
                io_ms + sc_ms + self.disk_read(sc, block, request) + demote_ms
            }
            PolicyKind::Karma => match self.karma.level_for(io, block.file) {
                KarmaLevel::Io => {
                    if self.io[io].lookup(block, weight) {
                        return io_ms;
                    }
                    let disk = self.disk_read(sc, block, request);
                    self.io[io].insert(block);
                    io_ms + sc_ms + disk
                }
                KarmaLevel::Storage => {
                    self.io[io].lookup(block, weight);
                    if self.storage[sc].lookup(block, 1) {
                        return io_ms + sc_ms;
                    }
                    let disk = self.disk_read(sc, block, request);
                    self.storage[sc].insert(block);
                    io_ms + sc_ms + disk
                }
                KarmaLevel::Bypass => {
                    self.io[io].lookup(block, weight);
                    self.storage[sc].lookup(block, 1);
                    io_ms + sc_ms + self.disk_read(sc, block, request)
                }
            },
        }
    }
}

/// Simulate `traces` on a fresh `topo` under `policy` — the report
/// [`crate::simulate`] (or, with a plan, [`crate::simulate_faulted`] on a
/// fresh [`crate::FaultState`]) must reproduce bit for bit. `hints` are
/// KARMA's (ignored by the other policies). Panics on an invalid
/// topology or plan.
pub fn simulate_oracle(
    topo: &Topology,
    policy: PolicyKind,
    hints: &KarmaHints,
    plan: Option<&FaultPlan>,
    traces: &[ThreadTrace],
    cfg: &RunConfig,
) -> SimReport {
    topo.validate().expect("oracle: invalid topology");
    // A quiet plan injects nothing, so it stands in for "no plan".
    let plan = plan.copied().unwrap_or(FaultPlan::quiet(0));
    plan.validate().expect("oracle: invalid fault plan");
    let sets = |capacity, n| vec![NaiveSets::new(capacity, topo.cache_ways); n];
    let mut p = Platform {
        topo,
        policy,
        plan,
        costs: CostModel::for_block_elems(topo.block_elems),
        disk_model: DiskModel::for_block_elems(topo.block_elems),
        io: sets(topo.io_cache_blocks, topo.io_nodes),
        storage: sets(topo.storage_cache_blocks, topo.storage_nodes),
        mq: vec![NaiveMq::new(topo.storage_cache_blocks); topo.storage_nodes],
        disks: vec![VecDeque::new(); topo.storage_nodes],
        disk_reads: 0,
        sequential_reads: 0,
        karma: KarmaRule::allocate(hints, topo),
        demotions: 0,
        window: None,
        live: vec![true; topo.storage_nodes],
        straggling: vec![false; topo.storage_nodes],
    };
    let mut latency = vec![0.0f64; traces.len()];
    let mut requests = 0u64;
    for (t, entry) in JitterInterleaver::new(traces, INTERLEAVE_SEED) {
        latency[t] += p.access(requests, traces[t].compute_node, entry.block, entry.count);
        requests += 1;
    }
    SimReport {
        layers: LayerStats {
            io: total(p.io.iter().map(|c| c.stats)),
            storage: total(
                p.storage
                    .iter()
                    .map(|c| c.stats)
                    .chain(p.mq.iter().map(|c| c.stats)),
            ),
        },
        disk_reads: p.disk_reads,
        disk_sequential_reads: p.sequential_reads,
        demotions: p.demotions,
        execution_time_ms: latency
            .iter()
            .map(|l| l + cfg.compute_ms_per_thread)
            .fold(0.0f64, f64::max),
        thread_latency_ms: latency,
        compute_ms_per_thread: cfg.compute_ms_per_thread,
        total_requests: requests,
    }
}

/// Sum of per-cache counters.
fn total(stats: impl Iterator<Item = CacheStats>) -> CacheStats {
    stats.fold(CacheStats::default(), |mut sum, s| {
        sum.merge(&s);
        sum
    })
}

/// The first field in which two reports differ — counters exactly,
/// floats by their bits — or `None` when they are bit-identical.
pub fn report_diff(a: &SimReport, b: &SimReport) -> Option<String> {
    let fields = |r: &SimReport| {
        let bits = |x: f64| format!("{x:?} ({:#x})", x.to_bits());
        let mut fields = vec![
            ("layers".to_string(), format!("{:?}", r.layers)),
            ("disk reads".to_string(), r.disk_reads.to_string()),
            (
                "sequential reads".to_string(),
                r.disk_sequential_reads.to_string(),
            ),
            ("demotions".to_string(), r.demotions.to_string()),
            ("requests".to_string(), r.total_requests.to_string()),
            ("compute ms".to_string(), bits(r.compute_ms_per_thread)),
            ("execution time".to_string(), bits(r.execution_time_ms)),
            ("threads".to_string(), r.thread_latency_ms.len().to_string()),
        ];
        let latencies = r.thread_latency_ms.iter().enumerate();
        fields.extend(latencies.map(|(t, &l)| (format!("thread {t} latency"), bits(l))));
        fields
    };
    let (a, b) = (fields(a), fields(b));
    let mut pairs = a.into_iter().zip(b);
    let ((what, x), (_, y)) = pairs.find(|(x, y)| x.1 != y.1)?;
    Some(format!("{what}: {x} vs {y}"))
}

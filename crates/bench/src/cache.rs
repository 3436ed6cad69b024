//! Cross-run memoization: a lock-sharded, LRU-bounded cache core and the
//! typed caches built on it.
//!
//! Every experiment run re-derives traces, simulations and KARMA hints
//! that are pure functions of far fewer inputs than a full run
//! configuration. The caches here key each artifact by exactly its
//! determining inputs so sweeps and repeated configurations compute once
//! and share thereafter. Originally these were per-binary locals; the
//! `flo-serve` daemon promotes one [`RunCaches`] into a long-lived,
//! shared service cache, which is why the core is now:
//!
//! * **lock-sharded** — concurrent requests for different keys contend on
//!   different shard mutexes instead of one global lock, and
//! * **LRU-bounded** — a byte budget caps residency; least-recently-used
//!   entries are evicted so a long-lived server cannot grow without
//!   bound. Experiments keep the old behavior via [`RunCaches::new`]
//!   (an effectively unlimited budget).
//!
//! Correctness under eviction is free: every cached computation is
//! deterministic, so an evicted entry recomputes bit-identically.
//!
//! Keying traces on the *layouts themselves* (not the scheme that
//! produced them) is what makes trace sharing correct: the `Inter`
//! scheme's layouts depend on cache capacities through the layout pass,
//! so capacity sweeps miss (as they must), while `Default` runs hit
//! across the whole sweep.

use flo_core::{FileLayout, ParallelConfig};
use flo_obs::FaultCounters;
use flo_sim::{
    FaultPlan, FxHasher, KarmaHints, PolicyKind, RunConfig, SimReport, ThreadTrace, Topology,
};
use flo_workloads::Workload;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independent shards. A power of two so the shard index is a
/// mask of the (already well-mixed) key hash.
const SHARDS: usize = 16;

/// One shard: the slot map plus an exact LRU order maintained as a
/// tick → key index (ticks are unique, monotone per shard).
#[derive(Debug)]
struct Shard<V, K> {
    slots: HashMap<K, Slot<V>>,
    recency: BTreeMap<u64, K>,
    tick: u64,
    used_bytes: usize,
}

#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    cost: usize,
    tick: u64,
}

impl<V, K> Default for Shard<V, K> {
    fn default() -> Shard<V, K> {
        Shard {
            slots: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            used_bytes: 0,
        }
    }
}

impl<V, K: Hash + Eq + Clone> Shard<V, K> {
    /// Refresh the recency of a resident key and share out its value.
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let slot = self.slots.get_mut(key)?;
        let key = self
            .recency
            .remove(&slot.tick)
            .expect("slot has a recency entry");
        self.tick += 1;
        slot.tick = self.tick;
        self.recency.insert(self.tick, key);
        Some(Arc::clone(&slot.value))
    }

    /// Evict least-recently-used slots until the shard fits its budget.
    /// Returns the number of evictions (the just-inserted entry itself
    /// may go when it alone exceeds the budget — the caller still holds
    /// the returned `Arc`, so only future residency is lost).
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.used_bytes > budget {
            let Some((_, key)) = self.recency.pop_first() else {
                break;
            };
            let slot = self.slots.remove(&key).expect("recency points at slot");
            self.used_bytes -= slot.cost;
            evicted += 1;
        }
        evicted
    }
}

/// A concurrency-safe memo table: lock-sharded, LRU-bounded by an
/// approximate byte budget, values shared out as `Arc<V>`.
///
/// Keys default to `u64` digests of the determining inputs. A key is
/// compared in full on every lookup; its `FxHasher` digest only picks
/// the shard.
#[derive(Debug)]
pub struct ShardedLru<V, K = u64> {
    shards: Vec<Mutex<Shard<V, K>>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V, K: Hash + Eq + Clone> ShardedLru<V, K> {
    /// A cache bounded by roughly `budget_bytes` of value cost
    /// (per-shard budgets of `budget_bytes / SHARDS`; costs are the
    /// caller-supplied estimates passed to [`ShardedLru::insert`]).
    pub fn bounded(budget_bytes: usize) -> ShardedLru<V, K> {
        ShardedLru::bounded_with_shards(budget_bytes, SHARDS)
    }

    /// [`ShardedLru::bounded`] with an explicit shard count (a power of
    /// two). The budget splits evenly across shards, so a cache of few,
    /// large entries (rendered layout/response JSON runs ~100 KiB each)
    /// wants few shards: with the default 16, an entry bigger than
    /// `budget / 16` can never stay resident no matter how much of the
    /// total budget is free.
    pub fn bounded_with_shards(budget_bytes: usize, shards: usize) -> ShardedLru<V, K> {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An effectively unbounded cache (the pre-service behavior).
    pub fn unbounded() -> ShardedLru<V, K> {
        ShardedLru::bounded(usize::MAX)
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<V, K>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (self.shards.len() - 1)]
    }

    /// Look up `key`, refreshing its recency. Counts a hit or a miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let found = self.peek(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Look up `key`, refreshing its recency on a hit — but recording
    /// *nothing* on a miss. For probe-then-dispatch callers (the serve
    /// event loop checks the response cache before queueing a worker
    /// job): on a miss the worker's own `get` counts it, so counting
    /// here too would double every miss.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        let found = self.shard(key).lock().unwrap().touch(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Insert `value` under `key` with an approximate byte `cost`,
    /// evicting LRU entries past the budget. A racing duplicate insert
    /// keeps the resident value (all cached computations are
    /// deterministic, so both are identical); the resident `Arc` is
    /// returned either way.
    pub fn insert(&self, key: K, value: Arc<V>, cost: usize) -> Arc<V> {
        let mut shard = self.shard(&key).lock().unwrap();
        if let Some(resident) = shard.touch(&key) {
            return resident;
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.recency.insert(tick, key.clone());
        shard.used_bytes += cost;
        shard.slots.insert(
            key,
            Slot {
                value: Arc::clone(&value),
                cost,
                tick,
            },
        );
        let evicted = shard.evict_to(self.shard_budget);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        value
    }

    /// Get-or-compute: on a miss the value is built *outside* the shard
    /// lock (concurrent misses must not serialize their expensive
    /// builds; a racing duplicate is harmless and the first resident
    /// value wins).
    pub fn get_or_insert_with(
        &self,
        key: K,
        cost: impl FnOnce(&V) -> usize,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        if let Some(found) = self.get(&key) {
            return found;
        }
        let value = Arc::new(build());
        let bytes = cost(&value);
        self.insert(key, value, bytes)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted to stay within budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct entries currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().slots.len())
            .sum()
    }

    /// Approximate resident cost in bytes.
    pub fn used_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().used_bytes)
            .sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Approximate in-memory size of a trace set: the requests' stored
/// bytes plus a per-trace overhead.
fn traces_cost(traces: &[ThreadTrace]) -> usize {
    let stored: usize = traces.iter().map(ThreadTrace::stored_bytes).sum();
    stored + traces.len() * 96 + 64
}

/// Approximate in-memory size of a report.
fn report_cost(report: &SimReport) -> usize {
    std::mem::size_of::<SimReport>() + report.thread_latency_ms.len() * 8
}

/// Approximate in-memory size of a hint set.
fn hints_cost(hints: &KarmaHints) -> usize {
    let ranges: usize =
        hints.ranges.len() + hints.group_ranges.iter().map(|g| g.len()).sum::<usize>();
    ranges * 24 + 64
}

/// A concurrency-safe memo table for generated traces.
#[derive(Debug)]
pub struct TraceCache {
    map: ShardedLru<Vec<ThreadTrace>>,
}

impl Default for TraceCache {
    fn default() -> TraceCache {
        TraceCache::new()
    }
}

impl TraceCache {
    /// Unbounded cache (experiment-process behavior).
    pub fn new() -> TraceCache {
        TraceCache {
            map: ShardedLru::unbounded(),
        }
    }

    /// Cache bounded by roughly `budget_bytes` of trace data.
    pub fn bounded(budget_bytes: usize) -> TraceCache {
        TraceCache {
            map: ShardedLru::bounded(budget_bytes),
        }
    }

    /// The traces of `workload` under (`cfg`, `layouts`, block size) —
    /// generated on first request, shared thereafter.
    pub fn traces_for(
        &self,
        workload: &Workload,
        cfg: &ParallelConfig,
        layouts: &[FileLayout],
        topo: &Topology,
    ) -> Arc<Vec<ThreadTrace>> {
        let key = trace_key(workload, cfg, layouts, topo);
        self.traces_for_key(key, || {
            flo_core::generate_traces(&workload.program, cfg, layouts, topo)
        })
    }

    /// [`Self::traces_for`] with the key precomputed — the harness hashes
    /// each run's trace inputs once and reuses the key for both trace and
    /// simulation memoization (a key computation hashes megabytes for
    /// hierarchical layouts at full scale).
    pub(crate) fn traces_for_key(
        &self,
        key: u64,
        generate: impl FnOnce() -> Vec<ThreadTrace>,
    ) -> Arc<Vec<ThreadTrace>> {
        self.map
            .get_or_insert_with(key, |t| traces_cost(t), generate)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.map.hits()
    }

    /// Number of lookups that had to generate.
    pub fn misses(&self) -> u64 {
        self.map.misses()
    }

    /// Number of trace sets evicted under budget pressure.
    pub fn evictions(&self) -> u64 {
        self.map.evictions()
    }

    /// Number of distinct trace sets held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Memoization of full simulation results across experiment runs.
///
/// A simulation is a pure function of the traces, the topology, the
/// replacement policy, the run constants and the fault plan (if any) —
/// *not* of the scheme that produced the traces. Several figures
/// therefore repeat bit-identical simulations: every `normalized_exec`
/// call resimulates the `Default` baseline its variants share (Fig. 7(f)
/// runs it three times per application, Fig. 7(g) twice), and a scheme
/// whose layouts happen to equal the default's (the paper's group-1
/// applications) resimulates the baseline under a different name. A
/// [`SimCache`] keys reports by exactly the simulation-determining
/// inputs and shares one run per distinct key.
#[derive(Debug)]
pub struct SimCache {
    map: ShardedLru<SimReport>,
}

impl Default for SimCache {
    fn default() -> SimCache {
        SimCache::new()
    }
}

impl SimCache {
    /// Unbounded cache (experiment-process behavior).
    pub fn new() -> SimCache {
        SimCache {
            map: ShardedLru::unbounded(),
        }
    }

    /// Cache bounded by roughly `budget_bytes` of reports.
    pub fn bounded(budget_bytes: usize) -> SimCache {
        SimCache {
            map: ShardedLru::bounded(budget_bytes),
        }
    }

    /// Look up a report by its [`sim_key`].
    pub fn get(&self, key: u64) -> Option<Arc<SimReport>> {
        self.map.get(&key)
    }

    /// Store the report simulated for `key`. Racing duplicate inserts are
    /// harmless — the simulator is deterministic, so both are identical.
    pub fn insert(&self, key: u64, report: SimReport) -> Arc<SimReport> {
        let cost = report_cost(&report);
        self.map.insert(key, Arc::new(report), cost)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.map.hits()
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.map.misses()
    }

    /// Number of reports evicted under budget pressure.
    pub fn evictions(&self) -> u64 {
        self.map.evictions()
    }

    /// Number of distinct reports held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Hash of exactly the inputs a simulation depends on: the traces (via
/// their generation key — the cheap, already-computed proxy for trace
/// content), the full topology, the policy, the run constants, and the
/// fault plan when one is injected. Healthy runs pass `None`; a faulted
/// run's schedule is a pure function of the plan, so folding the plan
/// into the key makes faulted runs memoizable alongside healthy ones
/// without any risk of cross-poisoning.
pub fn sim_key(
    trace_key: u64,
    topo: &Topology,
    policy: PolicyKind,
    run_cfg: &RunConfig,
    fault: Option<&FaultPlan>,
) -> u64 {
    let mut h = FxHasher::default();
    trace_key.hash(&mut h);
    topo.compute_nodes.hash(&mut h);
    topo.io_nodes.hash(&mut h);
    topo.storage_nodes.hash(&mut h);
    topo.io_cache_blocks.hash(&mut h);
    topo.storage_cache_blocks.hash(&mut h);
    topo.block_elems.hash(&mut h);
    topo.cache_ways.hash(&mut h);
    policy.hash(&mut h);
    run_cfg.compute_ms_per_thread.to_bits().hash(&mut h);
    match fault {
        None => 0u8.hash(&mut h),
        Some(p) => {
            1u8.hash(&mut h);
            p.seed.hash(&mut h);
            p.window.hash(&mut h);
            p.outage_per_mille.hash(&mut h);
            p.straggler_per_mille.hash(&mut h);
            p.straggler_multiplier.to_bits().hash(&mut h);
            p.transient_per_mille.hash(&mut h);
            p.flush_per_mille.hash(&mut h);
            p.retry.max_retries.hash(&mut h);
            p.retry.base_timeout_ms.to_bits().hash(&mut h);
            p.retry.backoff.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// The memo tables one experiment process — or one `flod` service —
/// shares across all of its runs: generated traces, finished healthy
/// simulations, faulted simulations (report + fault counters), and KARMA
/// hints. Held once per experiment (like the former lone `TraceCache`)
/// so that every sweep axis reuses whatever any other point already
/// computed; held once per server so concurrent requests for overlapping
/// keys hit memoized results.
#[derive(Debug)]
pub struct RunCaches {
    /// Trace memoization (keyed by trace-determining inputs).
    pub traces: TraceCache,
    /// Healthy-simulation memoization (keyed by [`sim_key`] with no
    /// fault plan).
    pub sims: SimCache,
    /// Faulted-simulation memoization: the report *and* the fault
    /// counters the deterministic schedule produced, keyed by
    /// [`sim_key`] with the plan folded in.
    faults: ShardedLru<(SimReport, FaultCounters)>,
    /// KARMA hint memoization (keyed by trace key + routing topology).
    hints: ShardedLru<KarmaHints>,
}

impl Default for RunCaches {
    fn default() -> RunCaches {
        RunCaches::new()
    }
}

impl RunCaches {
    /// Effectively unbounded caches (the experiment-process default: a
    /// one-shot binary's working set is bounded by its figure).
    pub fn new() -> RunCaches {
        RunCaches {
            traces: TraceCache::new(),
            sims: SimCache::new(),
            faults: ShardedLru::unbounded(),
            hints: ShardedLru::unbounded(),
        }
    }

    /// Caches bounded by roughly `budget_bytes` in total, split by
    /// expected weight: traces dominate (half), then reports and the
    /// rest. A long-lived service sizes this from `FLO_CACHE_MB`.
    pub fn with_budget(budget_bytes: usize) -> RunCaches {
        RunCaches {
            traces: TraceCache::bounded(budget_bytes / 2),
            sims: SimCache::bounded(budget_bytes / 4),
            faults: ShardedLru::bounded(budget_bytes / 8),
            hints: ShardedLru::bounded(budget_bytes / 8),
        }
    }

    /// Look up a memoized faulted run.
    pub fn faulted_get(&self, key: u64) -> Option<Arc<(SimReport, FaultCounters)>> {
        self.faults.get(&key)
    }

    /// Store a faulted run (report + counters) under its faulted
    /// [`sim_key`].
    pub fn faulted_insert(
        &self,
        key: u64,
        report: SimReport,
        counters: FaultCounters,
    ) -> Arc<(SimReport, FaultCounters)> {
        let cost = report_cost(&report) + std::mem::size_of::<FaultCounters>();
        self.faults.insert(key, Arc::new((report, counters)), cost)
    }

    /// Total hits across all four constituent caches.
    pub fn total_hits(&self) -> u64 {
        self.traces.hits() + self.sims.hits() + self.faults.hits() + self.hints.hits()
    }

    /// Total misses across all four constituent caches.
    pub fn total_misses(&self) -> u64 {
        self.traces.misses() + self.sims.misses() + self.faults.misses() + self.hints.misses()
    }

    /// Total evictions across all four constituent caches.
    pub fn total_evictions(&self) -> u64 {
        self.traces.evictions()
            + self.sims.evictions()
            + self.faults.evictions()
            + self.hints.evictions()
    }

    /// Approximate resident bytes across all four constituent caches.
    pub fn used_bytes(&self) -> usize {
        self.traces.map.used_bytes()
            + self.sims.map.used_bytes()
            + self.faults.used_bytes()
            + self.hints.used_bytes()
    }

    /// The KARMA hints of one trace set under one routing topology —
    /// built on first request, shared thereafter. Hints depend only on
    /// the traces and the compute→I/O routing, so a policy or capacity
    /// sweep builds them once instead of once per point.
    pub fn karma_hints_for(
        &self,
        trace_key: u64,
        topo: &Topology,
        build: impl FnOnce() -> KarmaHints,
    ) -> Arc<KarmaHints> {
        let mut h = FxHasher::default();
        trace_key.hash(&mut h);
        topo.compute_nodes.hash(&mut h);
        topo.io_nodes.hash(&mut h);
        let key = h.finish();
        self.hints.get_or_insert_with(key, hints_cost, build)
    }
}

/// Hash of exactly the inputs trace generation depends on.
pub(crate) fn trace_key(
    workload: &Workload,
    cfg: &ParallelConfig,
    layouts: &[FileLayout],
    topo: &Topology,
) -> u64 {
    // FxHasher, not SipHash: hierarchical layouts carry a per-element
    // table, so a key computation hashes megabytes at full scale.
    let mut h = FxHasher::default();
    // The program: array shapes plus every nest's box and references.
    workload.name.hash(&mut h);
    for a in workload.program.arrays() {
        a.space.extents().hash(&mut h);
    }
    for nest in workload.program.nests() {
        nest.space.rank().hash(&mut h);
        for k in 0..nest.space.rank() {
            nest.space.lower(k).hash(&mut h);
            nest.space.upper(k).hash(&mut h);
        }
        for r in &nest.refs {
            r.array.0.hash(&mut h);
            r.access.hash(&mut h);
        }
    }
    // The parallelization.
    cfg.threads.hash(&mut h);
    cfg.u.hash(&mut h);
    cfg.blocks_per_thread.hash(&mut h);
    (cfg.assignment == flo_parallel::BlockAssignment::Blocked).hash(&mut h);
    for t in 0..cfg.threads {
        cfg.mapping.node_of(t).hash(&mut h);
    }
    // The block size (the only topology parameter traces depend on).
    topo.block_elems.hash(&mut h);
    // The layouts, by value: the scheme that produced them is
    // irrelevant, their content is everything.
    for layout in layouts {
        match layout {
            FileLayout::RowMajor => 0u8.hash(&mut h),
            FileLayout::ColMajor => 1u8.hash(&mut h),
            FileLayout::DimPerm(p) => {
                2u8.hash(&mut h);
                p.hash(&mut h);
            }
            FileLayout::Hierarchical(hier) => {
                3u8.hash(&mut h);
                hier.file_elems.hash(&mut h);
                hier.table.hash(&mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_core::tracegen::{default_layouts, generate_traces};
    use flo_workloads::{by_name, Scale};

    fn setup() -> (Workload, Topology, ParallelConfig) {
        let w = by_name("qio", Scale::Small).unwrap();
        let topo = crate::topology_for(Scale::Small);
        let cfg = ParallelConfig::default_for(topo.compute_nodes);
        (w, topo, cfg)
    }

    #[test]
    fn second_lookup_hits_and_matches_generation() {
        let (w, topo, cfg) = setup();
        let cache = TraceCache::new();
        let layouts = default_layouts(&w.program);
        let first = cache.traces_for(&w, &cfg, &layouts, &topo);
        let second = cache.traces_for(&w, &cfg, &layouts, &topo);
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit must share the generation"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(*first, generate_traces(&w.program, &cfg, &layouts, &topo));
    }

    #[test]
    fn distinct_layouts_get_distinct_entries() {
        let (w, topo, cfg) = setup();
        let cache = TraceCache::new();
        let row = default_layouts(&w.program);
        let col: Vec<FileLayout> = row.iter().map(|_| FileLayout::ColMajor).collect();
        let a = cache.traces_for(&w, &cfg, &row, &topo);
        let b = cache.traces_for(&w, &cfg, &col, &topo);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
        assert_ne!(*a, *b, "different layouts must yield different traces");
    }

    #[test]
    fn capacity_changes_do_not_miss() {
        let (w, topo, cfg) = setup();
        let mut bigger = topo.clone();
        bigger.io_cache_blocks *= 2;
        bigger.storage_cache_blocks *= 2;
        let cache = TraceCache::new();
        let layouts = default_layouts(&w.program);
        cache.traces_for(&w, &cfg, &layouts, &topo);
        cache.traces_for(&w, &cfg, &layouts, &bigger);
        assert_eq!(cache.hits(), 1, "capacities are not trace inputs");
    }

    #[test]
    fn block_size_changes_miss() {
        let (w, topo, cfg) = setup();
        let cache = TraceCache::new();
        let layouts = default_layouts(&w.program);
        cache.traces_for(&w, &cfg, &layouts, &topo);
        cache.traces_for(
            &w,
            &cfg,
            &layouts,
            &topo.with_block_elems(topo.block_elems / 2),
        );
        assert_eq!(cache.misses(), 2, "block size is a trace input");
    }

    #[test]
    fn lru_evicts_least_recently_used_under_budget() {
        // Entries of cost 100 against a per-shard budget of 150: within
        // one shard, only the most recent entry survives... but keys
        // spread across shards, so drive one shard directly with keys
        // that collide on shard index (multiples of SHARDS).
        let lru: ShardedLru<u64> = ShardedLru::bounded(150 * SHARDS);
        let k = |i: u64| i * (SHARDS as u64); // all land in shard 0
        lru.insert(k(1), Arc::new(1), 100);
        lru.insert(k(2), Arc::new(2), 100); // evicts k(1)
        assert_eq!(lru.evictions(), 1);
        assert!(lru.get(&k(1)).is_none());
        assert!(lru.get(&k(2)).is_some());
        // Touch k(2), insert k(3): k(2) is most recent, k(3) resident,
        // then inserting k(4) evicts k(3) (the least recently used).
        lru.insert(k(3), Arc::new(3), 100);
        assert!(lru.get(&k(3)).is_some());
        lru.insert(k(4), Arc::new(4), 100);
        assert!(lru.get(&k(3)).is_none(), "LRU entry must be evicted");
        assert!(lru.get(&k(4)).is_some());
    }

    #[test]
    fn zero_budget_retains_nothing_but_returns_values() {
        let lru: ShardedLru<u64> = ShardedLru::bounded(0);
        let v = lru.insert(7, Arc::new(42), 8);
        assert_eq!(*v, 42, "caller still gets the value");
        assert!(lru.is_empty(), "budget 0 retains nothing");
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn bounded_trace_cache_recomputes_identically_after_eviction() {
        let (w, topo, cfg) = setup();
        let cache = TraceCache::bounded(0); // evict everything immediately
        let layouts = default_layouts(&w.program);
        let a = cache.traces_for(&w, &cfg, &layouts, &topo);
        let b = cache.traces_for(&w, &cfg, &layouts, &topo);
        assert!(!Arc::ptr_eq(&a, &b), "nothing stays resident");
        assert_eq!(*a, *b, "recomputation is bit-identical");
        assert_eq!(cache.misses(), 2);
        assert!(cache.evictions() >= 2);
    }

    #[test]
    fn fault_plan_distinguishes_sim_keys() {
        let (_, topo, _) = setup();
        let run_cfg = RunConfig::default();
        let healthy = sim_key(1, &topo, PolicyKind::LruInclusive, &run_cfg, None);
        let plan = FaultPlan::default_degraded(7);
        let faulted = sim_key(1, &topo, PolicyKind::LruInclusive, &run_cfg, Some(&plan));
        assert_ne!(healthy, faulted, "fault plans must not share healthy keys");
        let other_seed = FaultPlan::default_degraded(8);
        assert_ne!(
            faulted,
            sim_key(
                1,
                &topo,
                PolicyKind::LruInclusive,
                &run_cfg,
                Some(&other_seed)
            ),
            "the seed is part of the key"
        );
        let intenser = FaultPlan::with_intensity(7, 0.5);
        assert_ne!(
            faulted,
            sim_key(
                1,
                &topo,
                PolicyKind::LruInclusive,
                &run_cfg,
                Some(&intenser)
            ),
            "the rates are part of the key"
        );
        // Same plan, same key — replays hit.
        assert_eq!(
            faulted,
            sim_key(1, &topo, PolicyKind::LruInclusive, &run_cfg, Some(&plan))
        );
    }

    #[test]
    fn faulted_cache_round_trips_report_and_counters() {
        let caches = RunCaches::new();
        let counters = FaultCounters {
            retries: 3,
            ..Default::default()
        };
        let report = SimReport::default();
        assert!(caches.faulted_get(9).is_none());
        caches.faulted_insert(9, report, counters);
        let hit = caches.faulted_get(9).unwrap();
        assert_eq!(hit.1.retries, 3);
        assert_eq!(caches.total_hits(), 1);
        assert_eq!(caches.total_misses(), 1);
    }
}

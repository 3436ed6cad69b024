//! Cross-run memoization: an LRU-bounded memo table and the three
//! tables one experiment process — or one `flod` service — shares.
//!
//! Every experiment run re-derives traces, simulations and KARMA hints
//! that are pure functions of far fewer inputs than a full run
//! configuration. The tables here key each artifact by exactly its
//! determining inputs so sweeps and repeated configurations compute once
//! and share thereafter. The `flo-serve` daemon holds one [`RunCaches`]
//! for its whole life, so each table is an [`Lru`]: one mutex and one
//! byte budget, past which least-recently-used entries are evicted.
//! Every process has a budget: an experiment's [`RunCaches::new`] gets
//! the [`DEFAULT_CACHE_MB`] a default `flod` gets.
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
use std::sync::{Arc, Mutex, MutexGuard};

/// The slot map plus an exact LRU order kept as a tick → key index
/// (ticks are unique and monotone).
#[derive(Debug)]
struct Table<V, K> {
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

impl<V, K: Hash + Eq + Clone> Table<V, K> {
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

    /// Evict least-recently-used slots until the table fits `budget`.
    /// Returns the number of evictions (the just-inserted entry itself
    /// goes when it alone exceeds the budget — the caller still holds
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

/// A concurrency-safe memo table: one mutex over an exact LRU order,
/// bounded by an approximate byte budget, values shared out as `Arc<V>`.
/// Every entry no larger than the budget can stay resident.
///
/// Keys default to `u64` digests of the determining inputs; a key is
/// compared in full on every lookup.
#[derive(Debug)]
pub struct Lru<V, K = u64> {
    table: Mutex<Table<V, K>>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V, K: Hash + Eq + Clone> Lru<V, K> {
    /// A cache bounded by roughly `budget_bytes` of value cost (costs
    /// are the caller-supplied estimates passed to [`Lru::insert`]).
    pub fn bounded(budget_bytes: usize) -> Lru<V, K> {
        Lru {
            table: Mutex::new(Table {
                slots: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                used_bytes: 0,
            }),
            budget: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The locked table. Values are built outside the lock, so only a
    /// bug here, or a key's `Hash` or a value's `Drop` panicking, can
    /// poison it. A poisoned table may be half-updated, so it is cleared
    /// and the lock recovered: every entry is a deterministic
    /// computation, so whatever it held recomputes bit-identically.
    fn table(&self) -> MutexGuard<'_, Table<V, K>> {
        self.table.lock().unwrap_or_else(|poisoned| {
            let mut table = poisoned.into_inner();
            table.slots.clear();
            table.recency.clear();
            table.used_bytes = 0;
            self.table.clear_poison();
            table
        })
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
        let found = self.table().touch(key);
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
        let mut table = self.table();
        if let Some(resident) = table.touch(&key) {
            return resident;
        }
        table.tick += 1;
        let tick = table.tick;
        table.recency.insert(tick, key.clone());
        table.used_bytes += cost;
        table.slots.insert(
            key,
            Slot {
                value: Arc::clone(&value),
                cost,
                tick,
            },
        );
        let evicted = table.evict_to(self.budget);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        value
    }

    /// Get-or-compute: on a miss the value is built *outside* the lock
    /// (concurrent misses must not serialize their expensive builds; a
    /// racing duplicate is harmless and the first resident value wins).
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
        self.table().slots.len()
    }

    /// Approximate resident cost in bytes.
    pub fn used_bytes(&self) -> usize {
        self.table().used_bytes
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

/// Approximate in-memory size of a memoized simulation.
fn sim_cost(run: &SimRun) -> usize {
    std::mem::size_of::<SimRun>() + run.0.thread_latency_ms.len() * 8
}

/// Approximate in-memory size of a hint set.
fn hints_cost(hints: &KarmaHints) -> usize {
    let ranges: usize =
        hints.ranges.len() + hints.group_ranges.iter().map(|g| g.len()).sum::<usize>();
    ranges * 24 + 64
}

/// A memoized simulation: its report and the fault counters its
/// schedule produced (all zero for a healthy run).
pub(crate) type SimRun = (SimReport, FaultCounters);

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
/// shares across all of its runs: generated traces, finished simulations
/// (healthy and faulted alike: [`sim_key`] folds the fault plan in), and
/// KARMA hints. Held once per experiment so that every sweep axis reuses
/// whatever any other point already computed; held once per server so
/// concurrent requests for overlapping keys hit memoized results.
///
/// A simulation is a pure function of the traces, the topology, the
/// replacement policy, the run constants and the fault plan (if any) —
/// *not* of the scheme that produced the traces. Several figures
/// therefore repeat bit-identical simulations: every `normalized_exec`
/// call resimulates the `Default` baseline its variants share (Fig. 7(f)
/// runs it three times per application, Fig. 7(g) twice), and a scheme
/// whose layouts happen to equal the default's (the paper's group-1
/// applications) resimulates the baseline under a different name; the
/// simulation table shares one run per distinct key.
#[derive(Debug)]
pub struct RunCaches {
    /// Trace memoization (keyed by [`trace_key`]).
    traces: Lru<Vec<ThreadTrace>>,
    /// Simulation memoization (keyed by [`sim_key`]).
    sims: Lru<SimRun>,
    /// KARMA hint memoization (keyed by trace key + routing topology).
    hints: Lru<KarmaHints>,
}

impl Default for RunCaches {
    fn default() -> RunCaches {
        RunCaches::new()
    }
}

/// The memo budget of a process that sets none: `flod` without
/// `FLO_CACHE_MB`, and every experiment binary. Most trace sets an
/// experiment makes are simulated once, so holding every one until exit
/// buys nothing.
pub const DEFAULT_CACHE_MB: usize = 256;

impl RunCaches {
    /// Caches bounded by the default budget, [`DEFAULT_CACHE_MB`].
    pub fn new() -> RunCaches {
        RunCaches::with_budget(DEFAULT_CACHE_MB << 20)
    }

    /// Caches bounded by `budget_bytes`, split by expected weight: traces
    /// ½, simulations 5/16, hints ⅛. That is 15/16 of the budget; a
    /// service keeps its response bytes in the last 1/16, so the whole
    /// service stays within `FLO_CACHE_MB`.
    pub fn with_budget(budget_bytes: usize) -> RunCaches {
        RunCaches {
            traces: Lru::bounded(budget_bytes / 2),
            sims: Lru::bounded(budget_bytes / 16 * 5),
            hints: Lru::bounded(budget_bytes / 8),
        }
    }

    /// The traces under `key` (a [`trace_key`]) — generated on first
    /// request, shared thereafter.
    pub(crate) fn traces_for_key(
        &self,
        key: u64,
        generate: impl FnOnce() -> Vec<ThreadTrace>,
    ) -> Arc<Vec<ThreadTrace>> {
        self.traces
            .get_or_insert_with(key, |t| traces_cost(t), generate)
    }

    /// Look up a memoized simulation by its [`sim_key`].
    pub(crate) fn sim(&self, key: u64) -> Option<Arc<SimRun>> {
        self.sims.get(&key)
    }

    /// Store the simulation run for `key`. Racing duplicate inserts are
    /// harmless — the simulator is deterministic, so both are identical.
    pub(crate) fn insert_sim(&self, key: u64, run: SimRun) {
        let cost = sim_cost(&run);
        self.sims.insert(key, Arc::new(run), cost);
    }

    /// Total hits across the three tables.
    pub fn total_hits(&self) -> u64 {
        self.traces.hits() + self.sims.hits() + self.hints.hits()
    }

    /// Total misses across the three tables.
    pub fn total_misses(&self) -> u64 {
        self.traces.misses() + self.sims.misses() + self.hints.misses()
    }

    /// Total evictions across the three tables.
    pub fn total_evictions(&self) -> u64 {
        self.traces.evictions() + self.sims.evictions() + self.hints.evictions()
    }

    /// Approximate resident bytes across the three tables.
    pub fn used_bytes(&self) -> usize {
        self.traces.used_bytes() + self.sims.used_bytes() + self.hints.used_bytes()
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

    /// The traces of `w` under (`cfg`, `layouts`, block size), through
    /// the trace table as the harness looks them up.
    fn traces_for(
        caches: &RunCaches,
        w: &Workload,
        cfg: &ParallelConfig,
        layouts: &[FileLayout],
        topo: &Topology,
    ) -> Arc<Vec<ThreadTrace>> {
        caches.traces_for_key(trace_key(w, cfg, layouts, topo), || {
            generate_traces(&w.program, cfg, layouts, topo)
        })
    }

    #[test]
    fn second_lookup_hits_and_matches_generation() {
        let (w, topo, cfg) = setup();
        let caches = RunCaches::new();
        let layouts = default_layouts(&w.program);
        let first = traces_for(&caches, &w, &cfg, &layouts, &topo);
        let second = traces_for(&caches, &w, &cfg, &layouts, &topo);
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit must share the generation"
        );
        assert_eq!(caches.traces.hits(), 1);
        assert_eq!(caches.traces.misses(), 1);
        assert_eq!(caches.traces.len(), 1);
        assert_eq!(*first, generate_traces(&w.program, &cfg, &layouts, &topo));
    }

    #[test]
    fn distinct_layouts_get_distinct_entries() {
        let (w, topo, cfg) = setup();
        let caches = RunCaches::new();
        let row = default_layouts(&w.program);
        let col: Vec<FileLayout> = row.iter().map(|_| FileLayout::ColMajor).collect();
        let a = traces_for(&caches, &w, &cfg, &row, &topo);
        let b = traces_for(&caches, &w, &cfg, &col, &topo);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(caches.traces.misses(), 2);
        assert_ne!(*a, *b, "different layouts must yield different traces");
    }

    #[test]
    fn capacity_changes_do_not_miss() {
        let (w, topo, cfg) = setup();
        let mut bigger = topo.clone();
        bigger.io_cache_blocks *= 2;
        bigger.storage_cache_blocks *= 2;
        let caches = RunCaches::new();
        let layouts = default_layouts(&w.program);
        traces_for(&caches, &w, &cfg, &layouts, &topo);
        traces_for(&caches, &w, &cfg, &layouts, &bigger);
        assert_eq!(caches.traces.hits(), 1, "capacities are not trace inputs");
    }

    #[test]
    fn block_size_changes_miss() {
        let (w, topo, cfg) = setup();
        let caches = RunCaches::new();
        let layouts = default_layouts(&w.program);
        traces_for(&caches, &w, &cfg, &layouts, &topo);
        traces_for(
            &caches,
            &w,
            &cfg,
            &layouts,
            &topo.with_block_elems(topo.block_elems / 2),
        );
        assert_eq!(caches.traces.misses(), 2, "block size is a trace input");
    }

    #[test]
    fn lru_evicts_least_recently_used_under_budget() {
        // Entries of cost 100 against a budget of 250: two fit.
        let lru: Lru<u64> = Lru::bounded(250);
        lru.insert(1, Arc::new(1), 100);
        lru.insert(2, Arc::new(2), 100);
        assert_eq!(lru.evictions(), 0);
        lru.insert(3, Arc::new(3), 100); // evicts 1, the oldest
        assert_eq!(lru.evictions(), 1);
        assert!(lru.get(&1).is_none(), "LRU entry must be evicted");
        // Touch 2, so 3 is now the least recently used: inserting 4
        // evicts 3, not 2.
        assert!(lru.get(&2).is_some());
        lru.insert(4, Arc::new(4), 100);
        assert_eq!(lru.evictions(), 2);
        assert!(lru.get(&3).is_none(), "LRU entry must be evicted");
        assert!(lru.get(&2).is_some());
        assert!(lru.get(&4).is_some());
        assert_eq!((lru.len(), lru.used_bytes()), (2, 200));
    }

    #[test]
    fn an_entry_costing_more_than_a_sixteenth_of_the_budget_stays_resident() {
        let lru: Lru<u64> = Lru::bounded(1600);
        for k in 0..8 {
            lru.insert(k, Arc::new(k), 10);
        }
        lru.insert(100, Arc::new(100), 1000);
        assert_eq!(lru.get(&100).as_deref(), Some(&100));
        assert_eq!(lru.evictions(), 0);
        assert_eq!(lru.len(), 9);

        // The same through the service-sized trace table: one small-scale
        // trace set, costing a quarter of the table's budget.
        let (w, topo, cfg) = setup();
        let layouts = default_layouts(&w.program);
        let cost = traces_cost(&generate_traces(&w.program, &cfg, &layouts, &topo));
        let caches = RunCaches::with_budget(8 * cost);
        let first = traces_for(&caches, &w, &cfg, &layouts, &topo);
        let second = traces_for(&caches, &w, &cfg, &layouts, &topo);
        assert!(Arc::ptr_eq(&first, &second), "the second lookup hits");
        assert_eq!((caches.traces.hits(), caches.total_evictions()), (1, 0));
    }

    thread_local! {
        /// Hashes a [`Flaky`] key takes before one panics (`None`: never).
        static HASHES_LEFT: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
    }

    /// A key whose `Hash` panics once, on cue.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Flaky(u64);

    impl Hash for Flaky {
        fn hash<H: Hasher>(&self, state: &mut H) {
            if let Some(left) = HASHES_LEFT.get() {
                HASHES_LEFT.set(left.checked_sub(1));
                assert!(left > 0, "injected hash panic");
            }
            self.0.hash(state);
        }
    }

    #[test]
    fn a_poisoned_table_is_cleared_and_recomputes() {
        let lru: Lru<u64, Flaky> = Lru::bounded(100);
        for k in 0..3 {
            lru.get_or_insert_with(Flaky(k), |_| 30, || k * 10);
        }
        // Key 3's lookup and its insert's probe hash it; the third hash,
        // into its slot, panics after its recency entry and cost went in.
        HASHES_LEFT.set(Some(2));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lru.get_or_insert_with(Flaky(3), |_| 30, || 30)
        }));
        assert!(caught.is_err(), "the injected panic fired");
        match lru.table.lock() {
            Err(poisoned) => {
                let half = poisoned.get_ref();
                assert_eq!((half.slots.len(), half.recency.len()), (3, 4));
                assert_eq!(half.used_bytes, 120, "over budget, half-updated");
            }
            Ok(_) => panic!("the panic must poison the table"),
        }
        assert_eq!(*lru.get_or_insert_with(Flaky(3), |_| 30, || 30), 30);
        assert!(!lru.table.is_poisoned(), "the lock is recovered");
        assert_eq!(*lru.get_or_insert_with(Flaky(1), |_| 30, || 10), 10);
        assert_eq!((lru.len(), lru.used_bytes()), (2, 60));
        assert!(lru.used_bytes() <= 100);
    }

    #[test]
    fn zero_budget_retains_nothing_but_returns_values() {
        let lru: Lru<u64> = Lru::bounded(0);
        let v = lru.insert(7, Arc::new(42), 8);
        assert_eq!(*v, 42, "caller still gets the value");
        assert!(lru.is_empty(), "budget 0 retains nothing");
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn bounded_trace_cache_recomputes_identically_after_eviction() {
        let (w, topo, cfg) = setup();
        let caches = RunCaches::with_budget(0); // evict everything immediately
        let layouts = default_layouts(&w.program);
        let a = traces_for(&caches, &w, &cfg, &layouts, &topo);
        let b = traces_for(&caches, &w, &cfg, &layouts, &topo);
        assert!(!Arc::ptr_eq(&a, &b), "nothing stays resident");
        assert_eq!(*a, *b, "recomputation is bit-identical");
        assert_eq!(caches.traces.misses(), 2);
        assert!(caches.traces.evictions() >= 2);
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
        let (_, topo, _) = setup();
        let run_cfg = RunConfig::default();
        let plan = FaultPlan::default_degraded(7);
        let key = |plan| sim_key(1, &topo, PolicyKind::LruInclusive, &run_cfg, plan);
        let (healthy, faulted) = (key(None), key(Some(&plan)));
        let report = |ms| SimReport {
            execution_time_ms: ms,
            ..Default::default()
        };
        let counters = FaultCounters {
            retries: 3,
            ..Default::default()
        };
        let caches = RunCaches::new();
        caches.insert_sim(healthy, (report(1.0), FaultCounters::default()));
        assert!(
            caches.sim(faulted).is_none(),
            "a healthy run must not answer for a faulted one"
        );
        caches.insert_sim(faulted, (report(2.0), counters));
        assert_eq!(caches.sims.len(), 2, "one entry per run");
        let hit = caches.sim(faulted).unwrap();
        assert_eq!((hit.0.execution_time_ms, hit.1.retries), (2.0, 3));
        let hit = caches.sim(healthy).unwrap();
        assert_eq!(hit.0.execution_time_ms, 1.0, "nor a faulted for a healthy");
        assert!(!hit.1.any());
        assert_eq!(caches.total_hits(), 2);
        assert_eq!(caches.total_misses(), 1);
    }
}

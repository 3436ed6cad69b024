//! The trace replayer: drive the simulator's interleaved trace through
//! real I/O and measure what the simulator only predicts.
//!
//! [`replay`] consumes the *same* [`ThreadTrace`]s the simulator does,
//! interleaved by the same [`JitterInterleaver`] under the same
//! [`INTERLEAVE_SEED`], and walks each request through real
//! [`BlockCache`]s (I/O layer, storage layer) in front of a sealed
//! [`Store`]: cache hits serve bytes from memory, misses issue verified
//! preads against the stripe files. The walk mirrors
//! `StorageSystem::access_faulted` step for step — same lookup order,
//! same weighted accounting, same insertion points — so on a fault-free
//! run the measured per-layer hit/miss statistics are **bit-identical**
//! to the simulated ones. That identity is what `figm` and the
//! `store-smoke` CI job assert; any drift between the two walks is a
//! bug in one of them. Since the store indexes its caches with the
//! simulator's own `SetAssocCache`, the unit tests below hold the
//! replay to [`flo_sim::simulate_oracle`] instead, whose naive caches
//! share nothing with that index.
//!
//! Latency is charged from the same [`CostModel`]/[`DiskModel`] the
//! simulator uses (with sequentiality classified by a mirrored
//! [`DiskState`] scheduling window), so measured execution-time
//! estimates are directly comparable — while `wall_ms` records the real
//! elapsed time of the replay itself.
//!
//! Transient-only [`FaultPlan`]s are honored: the injector fails preads
//! on the exact schedule [`FaultPlan::transient_fires`] draws for the
//! simulator, charging the identical retry/backoff waits. Plans with
//! outage/straggler/flush rates are rejected — those faults mutate
//! routing and cache state in ways a real store cannot replay.

use crate::cache::{BlockCache, CacheCounters};
use crate::error::StoreError;
use crate::store::Store;
use flo_obs::{FaultEvent, Layer, NullObserver, Observer};
use flo_sim::cache::CacheStats;
use flo_sim::disk::DiskState;
use flo_sim::policies::karma::{KarmaAssignment, KarmaHints, KarmaLevel};
use flo_sim::sim::INTERLEAVE_SEED;
use flo_sim::system::CostModel;
use flo_sim::{
    BlockAddr, DiskModel, FaultPlan, JitterInterleaver, PolicyKind, ThreadTrace, Topology,
};
use std::time::Instant;

/// Replay parameters.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Hierarchy policy to mirror. Supported: [`PolicyKind::LruInclusive`]
    /// and [`PolicyKind::Karma`]; the others are rejected as
    /// [`StoreError::Invalid`].
    pub policy: PolicyKind,
    /// KARMA's hints (required for [`PolicyKind::Karma`]).
    pub karma_hints: Option<KarmaHints>,
    /// Transient-only fault plan for the pread fault injector.
    pub fault_plan: Option<FaultPlan>,
    /// Per-thread compute time for the execution-time estimate, matching
    /// [`flo_sim::RunConfig`].
    pub compute_ms_per_thread: f64,
    /// Verify every pread's content against the deterministic fill (end
    /// to end), not just the slot checksum.
    pub verify_content: bool,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            policy: PolicyKind::LruInclusive,
            karma_hints: None,
            fault_plan: None,
            compute_ms_per_thread: 0.0,
            verify_content: false,
        }
    }
}

/// The measured counterpart of [`flo_sim::SimReport`]: per-layer cache
/// statistics from real lookups, disk counters from real preads, plus
/// the real-bytes extras (bytes read, cache counters, wall time).
#[derive(Clone, Debug)]
pub struct MeasuredReport {
    /// I/O-layer cache statistics (aggregated over nodes).
    pub io: CacheStats,
    /// Storage-layer cache statistics.
    pub storage: CacheStats,
    /// Preads issued against stripe files.
    pub disk_reads: u64,
    /// Preads classified sequential by the mirrored scheduling window.
    pub disk_sequential_reads: u64,
    /// Data bytes served by preads.
    pub bytes_read: u64,
    /// Injected transient failures absorbed by the retry path.
    pub retries: u64,
    /// Total retry wait charged, in (modeled) milliseconds.
    pub retry_ms: f64,
    /// Modeled per-thread I/O latency, comparable with the simulator's.
    pub thread_latency_ms: Vec<f64>,
    /// Modeled execution time: `max_t(compute + latency_t)`.
    pub execution_time_ms: f64,
    /// Interleaved block requests replayed.
    pub total_requests: u64,
    /// I/O-layer cache eviction/write-back counters.
    pub io_cache: CacheCounters,
    /// Storage-layer cache eviction/write-back counters.
    pub storage_cache: CacheCounters,
    /// Real elapsed wall-clock time of the replay, in milliseconds.
    pub wall_ms: f64,
}

impl MeasuredReport {
    /// Measured I/O-layer hit rate in [0, 1].
    pub fn io_hit_rate(&self) -> f64 {
        1.0 - self.io.miss_rate()
    }

    /// Measured storage-layer hit rate in [0, 1].
    pub fn storage_hit_rate(&self) -> f64 {
        1.0 - self.storage.miss_rate()
    }
}

/// The pread fault injector: fails reads on the simulator's exact
/// transient schedule and charges the identical retry waits.
struct FaultInjector {
    plan: FaultPlan,
    retries: u64,
    retry_ms: f64,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Result<FaultInjector, StoreError> {
        plan.validate()
            .map_err(|e| StoreError::Invalid(e.to_string()))?;
        if plan.outage_per_mille != 0 || plan.straggler_per_mille != 0 || plan.flush_per_mille != 0
        {
            return Err(StoreError::Invalid(
                "replay fault plans must be transient-only (outage/straggler/flush rates \
                 reroute requests or drop cache state, which real stripe files cannot replay)"
                    .into(),
            ));
        }
        Ok(FaultInjector {
            plan,
            retries: 0,
            retry_ms: 0.0,
        })
    }

    /// One injected pread attempt for `request`/`attempt`: `Err` with a
    /// transient `io::Error` when the schedule fires.
    fn attempt(&self, request: u64, attempt: u32) -> Result<(), std::io::Error> {
        if self.plan.transient_fires(request, attempt) {
            Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient I/O error",
            ))
        } else {
            Ok(())
        }
    }
}

/// Read `block` through the retry path: injected transient failures are
/// absorbed exactly like the simulator's `RetryModel` — each failed
/// attempt charges an exponentially growing timeout — and the read is
/// served regardless after `max_retries` (transient errors only; media
/// failures are out of scope here as in the sim). Returns the data and
/// the extra milliseconds charged.
fn read_with_retries<O: Observer>(
    store: &Store,
    block: BlockAddr,
    node: usize,
    request: u64,
    verify: bool,
    injector: &mut Option<FaultInjector>,
    obs: &mut O,
) -> Result<(Vec<u8>, f64), StoreError> {
    let mut extra = 0.0;
    if let Some(inj) = injector {
        let mut wait = inj.plan.retry.base_timeout_ms;
        for attempt in 0..inj.plan.retry.max_retries {
            match inj.attempt(request, attempt) {
                Ok(()) => break,
                Err(_) => {
                    extra += wait;
                    inj.retries += 1;
                    inj.retry_ms += wait;
                    obs.fault(FaultEvent::Retry {
                        node,
                        attempt,
                        wait_ms: wait,
                    });
                    wait *= inj.plan.retry.backoff;
                }
            }
        }
    }
    let data = if verify {
        store.read_block_verified(block)?
    } else {
        store.read_block(block)?
    };
    Ok((data, extra))
}

/// Replay `traces` against `store` under `topo`, producing measured
/// per-layer statistics. See the module docs for the mirroring
/// guarantees.
pub fn replay(
    store: &Store,
    topo: &Topology,
    traces: &[ThreadTrace],
    opts: &ReplayOptions,
) -> Result<MeasuredReport, StoreError> {
    replay_observed(store, topo, traces, opts, &mut NullObserver)
}

/// [`replay`], reporting per-event telemetry (cache lookups, evictions,
/// disk reads, injected retries) to `obs` — the same event stream the
/// simulator's observed walk emits, so measured runs flow through the
/// existing `flo-obs` JSONL machinery unchanged.
pub fn replay_observed<O: Observer>(
    store: &Store,
    topo: &Topology,
    traces: &[ThreadTrace],
    opts: &ReplayOptions,
    obs: &mut O,
) -> Result<MeasuredReport, StoreError> {
    topo.validate()
        .map_err(|e| StoreError::Invalid(e.to_string()))?;
    if store.spec().storage_nodes as usize != topo.storage_nodes {
        return Err(StoreError::Mismatch(format!(
            "store striped over {} nodes, topology has {}",
            store.spec().storage_nodes,
            topo.storage_nodes
        )));
    }
    let karma = match opts.policy {
        PolicyKind::LruInclusive => None,
        PolicyKind::Karma => {
            let hints = opts
                .karma_hints
                .as_ref()
                .ok_or_else(|| StoreError::Invalid("KARMA replay requires karma_hints".into()))?;
            Some(KarmaAssignment::allocate(hints, topo))
        }
        other => {
            return Err(StoreError::Invalid(format!(
                "replay supports LRU-inclusive and KARMA walks, not {}",
                other.name()
            )))
        }
    };
    let mut injector = opts.fault_plan.map(FaultInjector::new).transpose()?;

    let costs = CostModel::for_block_elems(topo.block_elems);
    let disk_model = DiskModel::for_block_elems(topo.block_elems);
    let mut io_caches: Vec<BlockCache> = (0..topo.io_nodes)
        .map(|_| BlockCache::new(topo.io_cache_blocks, topo.cache_ways))
        .collect();
    let mut sc_caches: Vec<BlockCache> = (0..topo.storage_nodes)
        .map(|_| BlockCache::new(topo.storage_cache_blocks, topo.cache_ways))
        .collect();
    let mut disks: Vec<DiskState> = (0..topo.storage_nodes)
        .map(|_| DiskState::default())
        .collect();

    let mut latency = vec![0.0f64; traces.len()];
    let mut total_requests = 0u64;
    let mut bytes_read = 0u64;
    let started = Instant::now();

    for (t, entry) in JitterInterleaver::new(traces, INTERLEAVE_SEED) {
        // Mirrors `FaultState::on_request`: `total_requests` after the
        // tick is the 1-based clock, so the current request id is the
        // pre-tick value.
        let request = total_requests;
        total_requests += 1;
        let block = entry.block;
        let weight = entry.count;
        let io_idx = topo.io_node_of_compute(traces[t].compute_node);
        let sc_idx = topo.storage_node_of_block(block);

        let disk_read = |disks: &mut Vec<DiskState>,
                         injector: &mut Option<FaultInjector>,
                         obs: &mut O,
                         bytes: &mut u64|
         -> Result<(Vec<u8>, f64), StoreError> {
            let (ms, sequential) =
                disks[sc_idx].read_classified(block, &disk_model, topo.storage_nodes);
            obs.disk_read(sc_idx, sequential, ms);
            let (data, extra) = read_with_retries(
                store,
                block,
                sc_idx,
                request,
                opts.verify_content,
                injector,
                obs,
            )?;
            *bytes += data.len() as u64;
            Ok((data, ms + extra))
        };

        // The per-policy walks below restate `StorageSystem`'s walks
        // verbatim (lookup order, weights, insertion points) with cache
        // fills carrying the real buffers.
        let ms = match &karma {
            None => {
                // access_inclusive
                if io_caches[io_idx].access(block, weight) {
                    obs.cache_access(Layer::Io, io_idx, true, weight);
                    costs.io_hit_ms
                } else {
                    obs.cache_access(Layer::Io, io_idx, false, weight);
                    if sc_caches[sc_idx].access(block, 1) {
                        obs.cache_access(Layer::Storage, sc_idx, true, 1);
                        let data = sc_caches[sc_idx]
                            .peek(block)
                            .expect("storage hit holds a buffer")
                            .to_vec();
                        if io_caches[io_idx].fill(block, data, false).is_some() {
                            obs.eviction(Layer::Io, io_idx);
                        }
                        costs.io_hit_ms + costs.storage_hit_ms
                    } else {
                        obs.cache_access(Layer::Storage, sc_idx, false, 1);
                        let (data, disk) =
                            disk_read(&mut disks, &mut injector, obs, &mut bytes_read)?;
                        if sc_caches[sc_idx].fill(block, data.clone(), false).is_some() {
                            obs.eviction(Layer::Storage, sc_idx);
                        }
                        if io_caches[io_idx].fill(block, data, false).is_some() {
                            obs.eviction(Layer::Io, io_idx);
                        }
                        costs.io_hit_ms + costs.storage_hit_ms + disk
                    }
                }
            }
            Some(asg) => match asg.level_for(io_idx, block.file) {
                KarmaLevel::Io => {
                    if io_caches[io_idx].access(block, weight) {
                        obs.cache_access(Layer::Io, io_idx, true, weight);
                        costs.io_hit_ms
                    } else {
                        obs.cache_access(Layer::Io, io_idx, false, weight);
                        let (data, disk) =
                            disk_read(&mut disks, &mut injector, obs, &mut bytes_read)?;
                        if io_caches[io_idx].fill(block, data, false).is_some() {
                            obs.eviction(Layer::Io, io_idx);
                        }
                        costs.io_hit_ms + costs.storage_hit_ms + disk
                    }
                }
                KarmaLevel::Storage => {
                    // Exclusive: the I/O lookup still counts (and always
                    // misses — this file is never installed up there).
                    let io_hit = io_caches[io_idx].access(block, weight);
                    obs.cache_access(Layer::Io, io_idx, io_hit, weight);
                    if sc_caches[sc_idx].access(block, 1) {
                        obs.cache_access(Layer::Storage, sc_idx, true, 1);
                        costs.io_hit_ms + costs.storage_hit_ms
                    } else {
                        obs.cache_access(Layer::Storage, sc_idx, false, 1);
                        let (data, disk) =
                            disk_read(&mut disks, &mut injector, obs, &mut bytes_read)?;
                        if sc_caches[sc_idx].fill(block, data, false).is_some() {
                            obs.eviction(Layer::Storage, sc_idx);
                        }
                        costs.io_hit_ms + costs.storage_hit_ms + disk
                    }
                }
                KarmaLevel::Bypass => {
                    let io_hit = io_caches[io_idx].access(block, weight);
                    obs.cache_access(Layer::Io, io_idx, io_hit, weight);
                    let sc_hit = sc_caches[sc_idx].access(block, 1);
                    obs.cache_access(Layer::Storage, sc_idx, sc_hit, 1);
                    let (_, disk) = disk_read(&mut disks, &mut injector, obs, &mut bytes_read)?;
                    costs.io_hit_ms + costs.storage_hit_ms + disk
                }
            },
        };
        latency[t] += ms;
    }

    let execution_time_ms = latency
        .iter()
        .map(|l| l + opts.compute_ms_per_thread)
        .fold(0.0f64, f64::max);
    let mut io = CacheStats::default();
    let mut io_cache = CacheCounters::default();
    for c in &io_caches {
        io.merge(&c.stats());
        let k = c.counters();
        io_cache.evictions += k.evictions;
        io_cache.writebacks += k.writebacks;
        io_cache.dirty_high_water = io_cache.dirty_high_water.max(k.dirty_high_water);
    }
    let mut storage = CacheStats::default();
    let mut storage_cache = CacheCounters::default();
    for c in &sc_caches {
        storage.merge(&c.stats());
        let k = c.counters();
        storage_cache.evictions += k.evictions;
        storage_cache.writebacks += k.writebacks;
        storage_cache.dirty_high_water = storage_cache.dirty_high_water.max(k.dirty_high_water);
    }
    let disk_reads = disks.iter().map(|d| d.reads).sum();
    let disk_sequential_reads = disks.iter().map(|d| d.sequential_reads).sum();
    let (retries, retry_ms) = injector
        .as_ref()
        .map_or((0, 0.0), |i| (i.retries, i.retry_ms));
    Ok(MeasuredReport {
        io,
        storage,
        disk_reads,
        disk_sequential_reads,
        bytes_read,
        retries,
        retry_ms,
        thread_latency_ms: latency,
        execution_time_ms,
        total_requests,
        io_cache,
        storage_cache,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FileBlocks, StoreSpec};
    use crate::materialize::{materialize, MaterializeOptions};
    use flo_sim::{
        simulate_faulted, simulate_oracle, FaultState, RunConfig, SimReport, StorageSystem,
    };
    use std::fs;
    use std::path::PathBuf;

    /// The naive oracle's report for the same run: it shares no cache
    /// index with the store, so these comparisons catch an indexing bug
    /// in either.
    fn oracle(
        topo: &Topology,
        policy: PolicyKind,
        hints: &KarmaHints,
        plan: Option<&FaultPlan>,
        traces: &[ThreadTrace],
    ) -> SimReport {
        simulate_oracle(topo, policy, hints, plan, traces, &RunConfig::default())
    }

    fn topo() -> Topology {
        Topology {
            compute_nodes: 8,
            io_nodes: 4,
            storage_nodes: 2,
            io_cache_blocks: 24,
            storage_cache_blocks: 48,
            block_elems: 16,
            cache_ways: 8,
        }
    }

    fn spec(files: &[(u32, u64)]) -> StoreSpec {
        StoreSpec {
            layout_hash: 0xA11CE,
            block_bytes: 128,
            storage_nodes: 2,
            files: files
                .iter()
                .map(|&(file, blocks)| FileBlocks { file, blocks })
                .collect(),
        }
    }

    /// Synthetic multi-thread traces with enough reuse and conflict to
    /// exercise hits, misses and evictions at both layers.
    fn traces(topo: &Topology, files: &[(u32, u64)]) -> Vec<ThreadTrace> {
        let mut out = Vec::new();
        let mut x: u64 = 0xBEEF;
        for thread in 0..topo.compute_nodes {
            let mut t = ThreadTrace::new(thread, thread);
            for step in 0..400u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (file, blocks) = files[(x % files.len() as u64) as usize];
                // Mix strided scans with hot reuse.
                let index = if step % 3 == 0 {
                    (thread as u64 * 7 + step) % blocks
                } else {
                    x % blocks
                };
                t.push_run(BlockAddr::new(file, index), 1 + (x % 4) as u32);
            }
            out.push(t);
        }
        out
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("flo-store-replay-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lru_replay_matches_simulation_bit_for_bit() {
        let topo = topo();
        let files = [(0u32, 40u64), (1, 25)];
        let traces = traces(&topo, &files);
        let dir = tmpdir("lru");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions {
            verify_content: true,
            ..ReplayOptions::default()
        };
        let measured = replay(&store, &topo, &traces, &opts).unwrap();
        let sim = oracle(
            &topo,
            PolicyKind::LruInclusive,
            &KarmaHints::default(),
            None,
            &traces,
        );

        assert_eq!(measured.io, sim.layers.io, "I/O layer stats must match");
        assert_eq!(measured.storage, sim.layers.storage);
        assert_eq!(measured.disk_reads, sim.disk_reads);
        assert_eq!(measured.disk_sequential_reads, sim.disk_sequential_reads);
        assert_eq!(measured.total_requests, sim.total_requests);
        for (m, s) in measured
            .thread_latency_ms
            .iter()
            .zip(&sim.thread_latency_ms)
        {
            assert!((m - s).abs() < 1e-9, "latency drift: {m} vs {s}");
        }
        assert!(measured.bytes_read > 0);
        assert!(measured.io_cache.evictions > 0, "workload must evict");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn karma_replay_matches_simulation() {
        let topo = topo();
        // Two hot small files sharing the I/O caches (→ Io), two medium
        // ones sharing the storage caches (→ Storage), one large cold
        // file (→ Bypass). Sharing makes the files' set offsets matter.
        let files = [(0u32, 12u64), (1, 60), (2, 400), (4, 8), (6, 30)];
        let traces = traces(&topo, &files);
        let hints = KarmaHints::from_triples(&[
            (0, 12, 4000),
            (1, 60, 900),
            (2, 400, 300),
            (4, 8, 3000),
            (6, 30, 600),
        ]);
        let dir = tmpdir("karma");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions {
            policy: PolicyKind::Karma,
            karma_hints: Some(hints.clone()),
            ..ReplayOptions::default()
        };
        let measured = replay(&store, &topo, &traces, &opts).unwrap();
        let sim = oracle(&topo, PolicyKind::Karma, &hints, None, &traces);

        assert_eq!(measured.io, sim.layers.io);
        assert_eq!(measured.storage, sim.layers.storage);
        assert_eq!(measured.disk_reads, sim.disk_reads);
        assert_eq!(measured.disk_sequential_reads, sim.disk_sequential_reads);
        for (m, s) in measured
            .thread_latency_ms
            .iter()
            .zip(&sim.thread_latency_ms)
        {
            assert!((m - s).abs() < 1e-9, "latency drift: {m} vs {s}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_charge_identical_retries() {
        let topo = topo();
        let files = [(0u32, 40u64), (1, 25)];
        let traces = traces(&topo, &files);
        let mut plan = FaultPlan::quiet(0xF4017);
        plan.transient_per_mille = 120;
        let dir = tmpdir("faults");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions {
            fault_plan: Some(plan),
            ..ReplayOptions::default()
        };
        let measured = replay(&store, &topo, &traces, &opts).unwrap();
        let sim = oracle(
            &topo,
            PolicyKind::LruInclusive,
            &KarmaHints::default(),
            Some(&plan),
            &traces,
        );

        // The simulator's own tally of the same schedule.
        let mut sys = StorageSystem::new(topo.clone(), PolicyKind::LruInclusive).unwrap();
        let mut faults = FaultState::new(plan).unwrap();
        simulate_faulted(&mut sys, &traces, &RunConfig::default(), &mut faults);
        assert!(measured.retries > 0, "plan must actually inject");
        assert_eq!(measured.retries, faults.stats().retries);
        assert!((measured.retry_ms - faults.stats().retry_ms).abs() < 1e-9);
        assert_eq!(
            measured.io, sim.layers.io,
            "transient faults must not change the walk"
        );
        for (m, s) in measured
            .thread_latency_ms
            .iter()
            .zip(&sim.thread_latency_ms)
        {
            assert!((m - s).abs() < 1e-9, "retry charge drift: {m} vs {s}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_is_deterministic() {
        let topo = topo();
        let files = [(0u32, 30u64)];
        let traces = traces(&topo, &files);
        let dir = tmpdir("det");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions::default();
        let a = replay(&store, &topo, &traces, &opts).unwrap();
        let b = replay(&store, &topo, &traces, &opts).unwrap();
        assert_eq!(a.io, b.io);
        assert_eq!(a.disk_reads, b.disk_reads);
        assert_eq!(a.thread_latency_ms, b.thread_latency_ms);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_policies_and_plans_rejected() {
        let topo = topo();
        let files = [(0u32, 10u64)];
        let dir = tmpdir("reject");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let t = traces(&topo, &files);
        let demote = ReplayOptions {
            policy: PolicyKind::DemoteLru,
            ..ReplayOptions::default()
        };
        assert!(matches!(
            replay(&store, &topo, &t, &demote),
            Err(StoreError::Invalid(_))
        ));
        let karma_without_hints = ReplayOptions {
            policy: PolicyKind::Karma,
            ..ReplayOptions::default()
        };
        assert!(replay(&store, &topo, &t, &karma_without_hints).is_err());
        let outage = ReplayOptions {
            fault_plan: Some(FaultPlan::default_degraded(1)),
            ..ReplayOptions::default()
        };
        assert!(matches!(
            replay(&store, &topo, &t, &outage),
            Err(StoreError::Invalid(_))
        ));
        // Store/topology striping mismatch.
        let mut wrong = topo.clone();
        wrong.storage_nodes = 4;
        assert!(matches!(
            replay(&store, &wrong, &t, &ReplayOptions::default()),
            Err(StoreError::Mismatch(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}

//! `flo-fault`: deterministic, seeded fault injection for degraded-mode
//! simulation.
//!
//! A [`FaultPlan`] describes *what can go wrong* in the simulated storage
//! hierarchy — storage-node outages (with failover re-striping of the
//! affected blocks), degraded "straggler" disks (latency multipliers),
//! fault-injected cache flushes/shrinks, and transient I/O errors absorbed
//! by a retry/backoff model whose waiting time is charged into the
//! simulated cost. A [`FaultState`] replays that plan against a run.
//!
//! **Determinism is the whole design.** Every fault decision is a pure
//! function of `(seed, sequence time)`: the schedule is derived by hashing
//! the plan seed with the interleaved request counter (and the node/window
//! under question) through an xorshift64* finalizer. Two runs of the same
//! traces under the same plan are bit-identical; the same plan replayed at
//! every point of a capacity sweep sees the *same* fault schedule, which is
//! what keeps `flo_bench::RunCaches`' simulation memoization (healthy and
//! faulted runs in one table, the plan folded into the key) and the sweep
//! engine's per-point fallback sound. No host randomness, clocks, or I/O are ever
//! consulted.
//!
//! **Zero cost when inactive.** The simulator's access walk is generic
//! over a [`FaultHook`]; the [`NoFaults`] instantiation (`ACTIVE = false`)
//! overrides nothing and monomorphizes every hook site away, so the
//! no-plan path compiles to the pre-fault machine code — the same
//! discipline as the observability layer.
//!
//! **Checked independently.** The schedule is the four [`FaultPlan`]
//! draws ([`FaultPlan::outage_fires`], [`FaultPlan::straggler_fires`],
//! [`FaultPlan::cache_fault`], [`FaultPlan::transient_fires`]).
//! [`FaultState`] replays them against [`StorageSystem`], and
//! `flo_sim::oracle` replays them against its own naive caches, routing
//! and disks; the differential tests hold faulted runs of the two
//! bit-identical.

use crate::block::BlockAddr;
use crate::error::SimError;
use crate::system::StorageSystem;
use crate::topology::Topology;
use flo_obs::{FaultCounters, FaultEvent, Layer, Observer};

/// How transient I/O errors are absorbed: each failed attempt waits out a
/// timeout that grows exponentially, and the wait is charged to the
/// issuing thread's simulated latency. After `max_retries` failures the
/// read is served anyway (the fault model injects *transient* errors;
/// permanent media failures are modeled as node outages instead).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryModel {
    /// Maximum retry attempts sampled per disk read.
    pub max_retries: u32,
    /// Timeout charged for the first failed attempt, in milliseconds.
    pub base_timeout_ms: f64,
    /// Multiplier applied to the timeout after each failure (≥ 1).
    pub backoff: f64,
}

impl RetryModel {
    /// Defaults: up to 3 retries, 10 ms first timeout, doubling backoff.
    pub fn paper_default() -> RetryModel {
        RetryModel {
            max_retries: 3,
            base_timeout_ms: 10.0,
            backoff: 2.0,
        }
    }
}

/// A deterministic fault schedule. Rates are per-mille (‰) probabilities;
/// windowed faults (outages, stragglers, flushes) are re-sampled per node
/// every `window` interleaved requests, per-read faults (transient errors)
/// are sampled per request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the xorshift schedule; everything else being equal, runs
    /// with the same seed replay bit-identically.
    pub seed: u64,
    /// Fault-window length in interleaved requests (> 0).
    pub window: u64,
    /// Per-window, per-storage-node outage probability (‰). A dark node's
    /// blocks fail over to the next live node in round-robin order
    /// ([`Topology::storage_node_of_block_masked`]).
    pub outage_per_mille: u32,
    /// Per-window, per-storage-node straggler probability (‰).
    pub straggler_per_mille: u32,
    /// Latency multiplier of a straggler disk's reads (≥ 1).
    pub straggler_multiplier: f64,
    /// Per-read transient I/O error probability (‰), absorbed by `retry`.
    pub transient_per_mille: u32,
    /// Per-window, per-cache flush probability (‰); half of the sampled
    /// events flush the whole cache, the other half invalidate every
    /// second set (a transient capacity "shrink").
    pub flush_per_mille: u32,
    /// The transient-error retry model.
    pub retry: RetryModel,
}

/// What a window's cache-fault draw does to one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheFault {
    /// Drop every resident block.
    Flush,
    /// Drop the blocks of every set whose index has the window's parity,
    /// transiently halving the capacity (MQ caches have no sets and
    /// flush fully).
    Shrink,
}

/// Hash streams separating the independent fault decisions.
const STREAM_OUTAGE: u64 = 1;
const STREAM_STRAGGLER: u64 = 2;
const STREAM_TRANSIENT: u64 = 3;
const STREAM_FLUSH_IO: u64 = 4;
const STREAM_FLUSH_SC: u64 = 5;

#[inline]
fn xorshift64star(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The schedule hash: a pure function of `(seed, stream, a, b)`.
#[inline]
fn schedule(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    let x = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ a.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ b.wrapping_mul(0x1656_67B1_9E37_79F9);
    // xorshift state must be nonzero; two rounds decorrelate the seams.
    xorshift64star(xorshift64star(x | 1))
}

/// Whether the scheduled event at `(stream, a, b)` fires at `per_mille`.
#[inline]
fn chance(seed: u64, stream: u64, a: u64, b: u64, per_mille: u32) -> bool {
    per_mille > 0 && schedule(seed, stream, a, b) % 1000 < u64::from(per_mille)
}

impl FaultPlan {
    /// A plan that injects nothing: active machinery, zero faults. Runs
    /// under a quiet plan are bit-identical to the no-plan path (asserted
    /// by the differential proptests).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            window: 64,
            outage_per_mille: 0,
            straggler_per_mille: 0,
            straggler_multiplier: 1.0,
            transient_per_mille: 0,
            flush_per_mille: 0,
            retry: RetryModel::paper_default(),
        }
    }

    /// A representative degraded cluster: occasional outages, noticeably
    /// slow stragglers, sporadic transient errors and rare cache flushes.
    pub fn default_degraded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            window: 64,
            outage_per_mille: 8,
            straggler_per_mille: 60,
            straggler_multiplier: 4.0,
            transient_per_mille: 30,
            flush_per_mille: 5,
            retry: RetryModel::paper_default(),
        }
    }

    /// [`FaultPlan::default_degraded`] with every rate scaled by
    /// `intensity` (0 ⇒ [`FaultPlan::quiet`], 1 ⇒ the defaults; values
    /// above 1 scale further, saturating at certainty). The `figr`
    /// experiment sweeps this knob.
    pub fn with_intensity(seed: u64, intensity: f64) -> FaultPlan {
        let base = FaultPlan::default_degraded(seed);
        let scale = |r: u32| ((f64::from(r) * intensity.max(0.0)).round() as u32).min(1000);
        FaultPlan {
            outage_per_mille: scale(base.outage_per_mille),
            straggler_per_mille: scale(base.straggler_per_mille),
            transient_per_mille: scale(base.transient_per_mille),
            flush_per_mille: scale(base.flush_per_mille),
            ..base
        }
    }

    /// Whether storage node `node` is dark during fault window `window`.
    pub fn outage_fires(&self, node: usize, window: u64) -> bool {
        chance(
            self.seed,
            STREAM_OUTAGE,
            node as u64,
            window,
            self.outage_per_mille,
        )
    }

    /// Whether storage node `node`'s disk straggles during fault window
    /// `window`.
    pub fn straggler_fires(&self, node: usize, window: u64) -> bool {
        chance(
            self.seed,
            STREAM_STRAGGLER,
            node as u64,
            window,
            self.straggler_per_mille,
        )
    }

    /// What happens to the cache of `layer` node `node` on entering fault
    /// window `window`: one independent draw per cache, whose high bit
    /// picks a full flush or a half-capacity shrink.
    pub fn cache_fault(&self, layer: Layer, node: usize, window: u64) -> Option<CacheFault> {
        if self.flush_per_mille == 0 {
            return None;
        }
        let stream = match layer {
            Layer::Io => STREAM_FLUSH_IO,
            Layer::Storage => STREAM_FLUSH_SC,
        };
        let roll = schedule(self.seed, stream, node as u64, window);
        if roll % 1000 >= u64::from(self.flush_per_mille) {
            None
        } else if roll >> 32 & 1 == 0 {
            Some(CacheFault::Flush)
        } else {
            Some(CacheFault::Shrink)
        }
    }

    /// Whether the transient-error schedule fires for retry `attempt` of
    /// the disk read served at interleaved request `request`.
    ///
    /// This and the three draws above are the whole schedule: they are
    /// what [`FaultState`] replays and what `flo_sim::oracle` replays
    /// independently.
    #[inline]
    pub fn transient_fires(&self, request: u64, attempt: u32) -> bool {
        chance(
            self.seed,
            STREAM_TRANSIENT,
            request,
            u64::from(attempt),
            self.transient_per_mille,
        )
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_quiet(&self) -> bool {
        self.outage_per_mille == 0
            && self.straggler_per_mille == 0
            && self.transient_per_mille == 0
            && self.flush_per_mille == 0
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |why: String| Err(SimError::InvalidFaultPlan(why));
        if self.window == 0 {
            return fail("window must be positive".to_string());
        }
        for (name, r) in [
            ("outage_per_mille", self.outage_per_mille),
            ("straggler_per_mille", self.straggler_per_mille),
            ("transient_per_mille", self.transient_per_mille),
            ("flush_per_mille", self.flush_per_mille),
        ] {
            if r > 1000 {
                return fail(format!("{name} = {r} exceeds 1000"));
            }
        }
        if !self.straggler_multiplier.is_finite() || self.straggler_multiplier < 1.0 {
            return fail(format!(
                "straggler_multiplier must be a finite value >= 1, got {}",
                self.straggler_multiplier
            ));
        }
        if self.retry.max_retries > 16 {
            return fail(format!(
                "max_retries = {} exceeds 16",
                self.retry.max_retries
            ));
        }
        if !self.retry.base_timeout_ms.is_finite() || self.retry.base_timeout_ms < 0.0 {
            return fail(format!(
                "base_timeout_ms must be a finite value >= 0, got {}",
                self.retry.base_timeout_ms
            ));
        }
        if !self.retry.backoff.is_finite() || self.retry.backoff < 1.0 {
            return fail(format!(
                "backoff must be a finite value >= 1, got {}",
                self.retry.backoff
            ));
        }
        Ok(())
    }
}

/// The hook the simulator's access walk consults at its fault-injection
/// points. [`FaultState`] is the live implementation; [`NoFaults`]
/// (`ACTIVE = false`) compiles every site away — instrumented code must
/// never *behave* differently when the hook is inactive.
pub trait FaultHook {
    /// Whether this hook can inject anything. Sites skip fault work (and
    /// the optimizer deletes it) when `false`.
    const ACTIVE: bool = true;

    /// Called once per interleaved request before routing: advances the
    /// schedule clock and applies window-boundary events (outage masks,
    /// cache flushes) to `system`.
    #[inline]
    fn on_request<O: Observer>(&mut self, system: &mut StorageSystem, obs: &mut O) {
        let _ = (system, obs);
    }

    /// Failover routing: the storage node actually serving `block` given
    /// its healthy `home` node.
    #[inline]
    fn route<O: Observer>(
        &mut self,
        topo: &Topology,
        block: BlockAddr,
        home: usize,
        obs: &mut O,
    ) -> usize {
        let _ = (topo, block, obs);
        home
    }

    /// Degraded-mode disk cost: the latency actually charged for a read
    /// at `node` that would cost `ms` on healthy hardware (straggler
    /// multipliers, transient-error retries).
    #[inline]
    fn disk_cost<O: Observer>(&mut self, node: usize, ms: f64, obs: &mut O) -> f64 {
        let _ = (node, obs);
        ms
    }
}

/// The inactive hook: overrides nothing, so every fault site compiles to
/// the pre-fault code.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    const ACTIVE: bool = false;
}

/// A [`FaultPlan`] replaying against one run: the schedule clock, the
/// current window's outage/straggler masks, and the injected-fault
/// tallies. Build one per simulation ([`FaultState::new`]); reusing a
/// state across runs would continue the sequence clock and break replay.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    /// Interleaved-request counter (the schedule's sequence time).
    seq: u64,
    /// Window the masks below were sampled for (`u64::MAX` = none yet).
    window: u64,
    /// Bit `n` set ⇔ storage node `n` is up in the current window.
    live_mask: u64,
    /// Bit `n` set ⇔ storage node `n` is degraded in the current window.
    straggler_mask: u64,
    stats: FaultCounters,
}

impl FaultState {
    /// A fresh replay of `plan`, validated.
    pub fn new(plan: FaultPlan) -> Result<FaultState, SimError> {
        plan.validate()?;
        Ok(FaultState {
            plan,
            seq: 0,
            window: u64::MAX,
            live_mask: u64::MAX,
            straggler_mask: 0,
            stats: FaultCounters::default(),
        })
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injected-fault tallies so far.
    pub fn stats(&self) -> &FaultCounters {
        &self.stats
    }

    /// Requests ticked so far.
    pub fn requests(&self) -> u64 {
        self.seq
    }

    fn enter_window<O: Observer>(&mut self, w: u64, system: &mut StorageSystem, obs: &mut O) {
        self.window = w;
        let (io_nodes, storage_nodes) =
            (system.topology().io_nodes, system.topology().storage_nodes);
        // Outage + straggler masks for the window.
        let mut live = 0u64;
        let mut stragglers = 0u64;
        for node in 0..storage_nodes.min(64) {
            if self.plan.outage_fires(node, w) {
                self.stats.outages += 1;
                obs.fault(FaultEvent::Outage { node });
            } else {
                live |= 1 << node;
            }
            if self.plan.straggler_fires(node, w) {
                stragglers |= 1 << node;
            }
        }
        self.live_mask = live;
        self.straggler_mask = stragglers;
        for (layer, nodes) in [(Layer::Io, io_nodes), (Layer::Storage, storage_nodes)] {
            for node in 0..nodes {
                let Some(fault) = self.plan.cache_fault(layer, node, w) else {
                    continue;
                };
                let blocks = system.apply_cache_fault(layer, node, fault, w as usize);
                self.stats.cache_flushes += 1;
                self.stats.flushed_blocks += blocks as u64;
                obs.fault(FaultEvent::CacheFlush {
                    layer,
                    node,
                    blocks,
                });
            }
        }
    }
}

impl FaultHook for FaultState {
    #[inline]
    fn on_request<O: Observer>(&mut self, system: &mut StorageSystem, obs: &mut O) {
        let w = self.seq / self.plan.window;
        if w != self.window {
            self.enter_window(w, system, obs);
        }
        self.seq += 1;
    }

    #[inline]
    fn route<O: Observer>(
        &mut self,
        topo: &Topology,
        block: BlockAddr,
        home: usize,
        obs: &mut O,
    ) -> usize {
        if self.live_mask >> home & 1 == 1 {
            return home;
        }
        let to = topo.storage_node_of_block_masked(block, self.live_mask);
        if to != home {
            self.stats.failovers += 1;
            obs.fault(FaultEvent::Failover { from: home, to });
        }
        to
    }

    fn disk_cost<O: Observer>(&mut self, node: usize, ms: f64, obs: &mut O) -> f64 {
        let mut total = ms;
        if self.straggler_mask >> node & 1 == 1 {
            let extra = ms * (self.plan.straggler_multiplier - 1.0);
            total += extra;
            self.stats.straggler_reads += 1;
            self.stats.straggler_ms += extra;
            obs.fault(FaultEvent::StragglerRead {
                node,
                extra_ms: extra,
            });
        }
        if self.plan.transient_per_mille > 0 {
            // `seq` was advanced by `on_request`, so `seq - 1` names the
            // current request; at most one disk read happens per request.
            let req = self.seq.wrapping_sub(1);
            let mut wait = self.plan.retry.base_timeout_ms;
            for attempt in 0..self.plan.retry.max_retries {
                if !self.plan.transient_fires(req, attempt) {
                    break;
                }
                total += wait;
                self.stats.retries += 1;
                self.stats.retry_ms += wait;
                obs.fault(FaultEvent::Retry {
                    node,
                    attempt,
                    wait_ms: wait,
                });
                wait *= self.plan.retry.backoff;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_obs::NullObserver;

    #[test]
    fn quiet_plan_is_quiet_and_valid() {
        let p = FaultPlan::quiet(42);
        assert!(p.is_quiet());
        p.validate().unwrap();
        assert!(!FaultPlan::default_degraded(42).is_quiet());
        FaultPlan::default_degraded(42).validate().unwrap();
    }

    #[test]
    fn intensity_scales_rates() {
        let zero = FaultPlan::with_intensity(7, 0.0);
        assert!(zero.is_quiet());
        let one = FaultPlan::with_intensity(7, 1.0);
        assert_eq!(one, FaultPlan::default_degraded(7));
        let ten = FaultPlan::with_intensity(7, 1000.0);
        assert_eq!(ten.outage_per_mille, 1000, "rates saturate at certainty");
        ten.validate().unwrap();
    }

    #[test]
    fn invalid_plans_rejected() {
        let mut p = FaultPlan::quiet(1);
        p.window = 0;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::quiet(1);
        p.outage_per_mille = 1001;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::quiet(1);
        p.straggler_multiplier = 0.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::quiet(1);
        p.straggler_multiplier = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::quiet(1);
        p.retry.backoff = 0.0;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::quiet(1);
        p.retry.max_retries = 99;
        assert!(p.validate().is_err());
    }

    #[test]
    fn schedule_is_pure_and_seed_sensitive() {
        assert_eq!(schedule(1, 2, 3, 4), schedule(1, 2, 3, 4));
        assert_ne!(schedule(1, 2, 3, 4), schedule(2, 2, 3, 4));
        assert_ne!(
            schedule(1, STREAM_OUTAGE, 3, 4),
            schedule(1, STREAM_STRAGGLER, 3, 4)
        );
        // Certainty and impossibility.
        assert!(chance(9, 1, 0, 0, 1000));
        assert!(!chance(9, 1, 0, 0, 0));
    }

    #[test]
    fn quiet_state_never_reroutes_or_charges() {
        let topo = Topology::paper_default();
        let mut st = FaultState::new(FaultPlan::quiet(5)).unwrap();
        let mut obs = NullObserver;
        let b = crate::BlockAddr::new(0, 2);
        assert_eq!(st.route(&topo, b, 2, &mut obs), 2);
        assert_eq!(st.disk_cost(2, 9.0, &mut obs), 9.0);
        assert!(!st.stats().any());
    }
}

//! One-pass multi-capacity sweep simulation for inclusive-LRU runs.
//!
//! A capacity-sensitivity sweep (Fig. 7(c)) re-drives the *same*
//! interleaved trace through [`crate::simulate`] once per capacity point,
//! even though every point shares the trace, the routing, and the jittered
//! interleaving — only the cache geometries differ. This module evaluates
//! all points in a single pass:
//!
//! * **I/O layer — Mattson stack classification.** Under inclusive LRU the
//!   I/O caches see the full routed request stream regardless of capacity,
//!   and every access (re-)installs its block at MRU. Each per-set LRU
//!   cache therefore holds exactly the `ways` most recently accessed
//!   distinct blocks of its set, so an access hits a `(sets, ways)`
//!   geometry iff fewer than `ways` distinct blocks of the same set were
//!   touched since that block's previous access. [`MultiCapacityStack`]
//!   answers that question for *all* swept geometries at once from one
//!   recency structure (see the struct docs for the exactness argument).
//!
//! * **Storage layer + disk — per-point replay.** The storage caches see
//!   only the I/O-*miss* stream, which genuinely differs per capacity
//!   point, and an I/O-layer hit does not refresh storage recency — so
//!   storage hits are *not* a function of any capacity-independent reuse
//!   distance (DESIGN.md §2.6 gives a two-line counterexample). Exactness
//!   requires driving each point's storage caches and disks for real;
//!   the sweep still wins because those only see the miss stream, in
//!   stream order — which also keeps sequential-read detection exact.
//!
//! The result is bit-identical to running [`crate::simulate`] once per
//! point with [`crate::PolicyKind::LruInclusive`]: same layer counters,
//! same disk reads, same per-thread latencies, same execution time.

use crate::cache::{set_geometry, set_hash, CacheStats, FastMod, SetAssocCache};
use crate::disk::{DiskModel, DiskState};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultState};
use crate::policies::PolicyKind;
use crate::sim::{simulate_observed, RunConfig, INTERLEAVE_SEED};
use crate::stats::{LayerStats, SimReport};
use crate::system::{CostModel, StorageSystem};
use crate::topology::Topology;
use crate::trace::{JitterInterleaver, ThreadTrace};
use flo_obs::{Layer, NullObserver, Observer};

/// One swept configuration: per-node cache capacities in blocks. All other
/// topology parameters (node counts, block size, associativity) are shared
/// across a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Capacity of each I/O-node cache, in blocks.
    pub io_cache_blocks: usize,
    /// Capacity of each storage-node cache, in blocks.
    pub storage_cache_blocks: usize,
}

impl SweepPoint {
    /// The capacities of `topo` as a sweep point.
    pub fn of(topo: &Topology) -> SweepPoint {
        SweepPoint {
            io_cache_blocks: topo.io_cache_blocks,
            storage_cache_blocks: topo.storage_cache_blocks,
        }
    }
}

/// Hit masks are `u64` bitsets, one bit per swept geometry.
pub const MAX_SWEEP_POINTS: usize = 64;

/// Envelope bound on the residue-class count `L` (the set-count lcm).
const MAX_CLASSES: u64 = 4096;

/// Envelope bound on the per-residue walk length (classes visited per
/// classified access) times the class count — keeps table build and
/// per-access cost bounded for adversarial geometry mixes.
const MAX_TABLE: usize = 1 << 20;

/// Per-class recency windows mirror the flat per-set scans of
/// [`SetAssocCache`]; geometries wider than this fall back.
const MAX_WAYS: usize = 128;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Sequence-counter integer of a [`StackEngine`]: `u64` in general, `u32`
/// when the caller can bound the access count below `u32::MAX` (true of
/// every real trace), halving the recency slab the classification walk
/// streams through — the walk is memory-bound once several per-I/O-node
/// stacks contend for L1.
pub trait SeqTime: Copy + Ord + std::fmt::Debug {
    /// The "never accessed" time carried by empty slots.
    const ZERO: Self;
    /// The successor timestamp (callers guarantee no overflow).
    fn next(self) -> Self;
}

impl SeqTime for u32 {
    const ZERO: u32 = 0;
    #[inline]
    fn next(self) -> u32 {
        self + 1
    }
}

impl SeqTime for u64 {
    const ZERO: u64 = 0;
    #[inline]
    fn next(self) -> u64 {
        self + 1
    }
}

/// Branchless younger-than count over one 8-entry seq chunk.
#[inline]
fn count_newer8<S: SeqTime>(seqs: &[S], prev: S) -> u32 {
    debug_assert_eq!(seqs.len(), 8);
    (seqs[0] > prev) as u32
        + (seqs[1] > prev) as u32
        + (seqs[2] > prev) as u32
        + (seqs[3] > prev) as u32
        + (seqs[4] > prev) as u32
        + (seqs[5] > prev) as u32
        + (seqs[6] > prev) as u32
        + (seqs[7] > prev) as u32
}

/// How per-class counts combine into per-geometry verdicts.
#[derive(Clone, Debug)]
enum Plan {
    /// Set counts (sorted ascending) divide each other — true of every
    /// paper sweep, where capacities scale by powers of two at fixed
    /// associativity. Relevant classes nest: each class belongs to every
    /// geometry at least as coarse as its *finest* level, so walking
    /// classes finest-level-first yields each geometry's count as a
    /// running total — and since coarser counts only grow, the walk stops
    /// as soon as the total saturates every remaining geometry's ways.
    Nested {
        /// Per residue `r`, `row_len` classes congruent to `r` under the
        /// coarsest geometry, sorted by descending finest level.
        rows: Vec<u32>,
        row_len: usize,
        /// Classes per level, finest (fewest classes) first; identical for
        /// every residue.
        level_sizes: Vec<u32>,
        /// Geometry order by *descending* set count (finest first):
        /// `(orig_bit, ways)`, matching `level_sizes`.
        sorted: Vec<(u32, u32)>,
        /// `stop[i]`: running total that saturates geometry `i` and every
        /// coarser one (max ways over `sorted[i..]`).
        stop: Vec<u32>,
    },
    /// Arbitrary set counts: per residue, a CSR list of relevant classes
    /// with the bitmask of geometries each contributes to.
    Generic {
        off: Vec<u32>,
        items: Vec<(u32, u64)>,
        ways: Vec<u32>,
        /// Scratch: per-geometry younger-than counts.
        counts: Vec<u32>,
    },
}

/// The default stack engine: `u64` timestamps, valid for any trace
/// length. [`simulate_sweep`] switches to the `u32` instantiation when
/// the trace provably fits.
pub type MultiCapacityStack = StackEngine<u64>;

/// All-geometry LRU stack for one cache: classifies each access as
/// hit/miss for every swept `(sets, ways)` geometry in one walk.
///
/// Blocks are grouped into residue classes of their set hash modulo
/// `L = lcm(sets_0, …, sets_{K-1})`; the set a block maps to under
/// geometry `k` is its class modulo `sets_k`, so the distinct-blocks-since
/// count for geometry `k` is the sum, over classes congruent to the
/// accessed block's class mod `sets_k`, of entries younger than the
/// block's previous access. Each class keeps a window of its
/// `stride ≥ max_k(ways_k)` most recently accessed distinct blocks in
/// *unordered* slots (recency lives entirely in the seq values, so a
/// re-access is one seq store and an insertion overwrites the min-seq
/// slot — no ordered-list maintenance; empty slots carry seq 0 so the
/// count scan is branchless over the full window).
///
/// **Exactness.** Under always-insert LRU, geometry `k` hits iff fewer
/// than `ways_k` distinct same-set blocks were accessed strictly after
/// the block's previous access. The bounded window cannot change any
/// verdict: if a class dropped an entry younger than the probed block's
/// previous access, it necessarily retains `stride ≥ ways_k` entries
/// younger still, so every affected count is already saturated past
/// `ways_k` and the verdict is a miss either way. A block absent from its
/// class (cold, or itself dropped) is a miss for every geometry by the
/// same argument.
#[derive(Clone, Debug)]
pub struct StackEngine<S: SeqTime = u64> {
    class_mod: FastMod,
    /// Class id → slab slot. Classes are laid out grouped by residue
    /// modulo the coarsest set count, so the classes one access walks
    /// (always a subset of one such group) sit in one contiguous slab
    /// region.
    slot: Vec<u32>,
    /// Recency-window length per class: `max ways`, rounded up to a
    /// multiple of 8 for the chunked branchless count.
    stride: usize,
    /// `L × stride` access times, unordered per class; 0 = empty slot.
    seqs: Vec<S>,
    /// `L × stride` block indices (entry identity, part 1).
    indices: Vec<u64>,
    /// `L × stride` block files (entry identity, part 2).
    files: Vec<u32>,
    plan: Plan,
    /// Virtual time; pre-incremented, so 0 never labels a live entry.
    seq: S,
}

impl<S: SeqTime> StackEngine<S> {
    /// Build a stack for `geometries` (`(num_sets, ways)` pairs, as a
    /// [`crate::cache::SetAssocCache`] of each swept capacity would be built). Returns
    /// `None` when the combination is outside the engine's envelope
    /// (too many points, class table too large, or sets too wide).
    pub fn new(geometries: &[(usize, usize)]) -> Option<StackEngine<S>> {
        if geometries.is_empty() || geometries.len() > MAX_SWEEP_POINTS {
            return None;
        }
        let mut l: u64 = 1;
        for &(sets, ways) in geometries {
            if sets == 0 || ways == 0 || ways > MAX_WAYS {
                return None;
            }
            l = lcm(l, sets as u64);
            if l > MAX_CLASSES {
                return None;
            }
        }
        let l = l as usize;
        let stride = geometries
            .iter()
            .map(|&(_, w)| w)
            .max()
            .unwrap()
            .next_multiple_of(8);

        // Geometries sorted by ascending set count; when each set count
        // divides the next the relevant classes nest and the fast plan
        // applies.
        let mut order: Vec<usize> = (0..geometries.len()).collect();
        order.sort_by_key(|&k| geometries[k].0);
        let nested = order
            .windows(2)
            .all(|w| geometries[w[1]].0.is_multiple_of(geometries[w[0]].0));

        let s_min = geometries[order[0]].0;
        let row_len = l / s_min;
        if l * row_len.max(1) > MAX_TABLE {
            return None;
        }
        // Slab slots grouped by residue modulo the coarsest set count.
        let mut by_group: Vec<usize> = (0..l).collect();
        by_group.sort_by_key(|&c| (c % s_min, c));
        let mut slot = vec![0u32; l];
        for (s, &c) in by_group.iter().enumerate() {
            slot[c] = s as u32;
        }
        let plan = if nested {
            // Geometries finest (largest set count) first.
            let fine: Vec<usize> = order.iter().rev().copied().collect();
            let mut rows = Vec::with_capacity(l * row_len);
            let mut level_sizes = vec![0u32; fine.len()];
            for r in 0..l {
                // Classes grouped by finest level, finest first.
                let mut row: Vec<(u32, u32)> = Vec::with_capacity(row_len);
                let mut c = r % s_min;
                while c < l {
                    // Finest geometry whose set this class shares with
                    // residue r (index into `fine`).
                    let level = fine
                        .iter()
                        .position(|&k| c % geometries[k].0 == r % geometries[k].0)
                        .unwrap() as u32;
                    row.push((level, c as u32));
                    c += s_min;
                }
                row.sort_unstable();
                if r == 0 {
                    for &(lev, _) in &row {
                        level_sizes[lev as usize] += 1;
                    }
                }
                rows.extend(row.iter().map(|&(_, c)| slot[c as usize]));
            }
            let sorted: Vec<(u32, u32)> = fine
                .iter()
                .map(|&k| (k as u32, geometries[k].1 as u32))
                .collect();
            let mut stop = vec![0u32; sorted.len()];
            let mut m = 0u32;
            for i in (0..sorted.len()).rev() {
                stop[i] = m;
                m = m.max(sorted[i].1);
            }
            Plan::Nested {
                rows,
                row_len,
                level_sizes,
                sorted,
                stop,
            }
        } else {
            let mut off = Vec::with_capacity(l + 1);
            let mut items = Vec::new();
            for r in 0..l {
                off.push(items.len() as u32);
                for (c, &s) in slot.iter().enumerate() {
                    let mut mask = 0u64;
                    for (k, &(sets, _)) in geometries.iter().enumerate() {
                        if c % sets == r % sets {
                            mask |= 1 << k;
                        }
                    }
                    if mask != 0 {
                        items.push((s, mask));
                    }
                }
            }
            off.push(items.len() as u32);
            Plan::Generic {
                off,
                items,
                ways: geometries.iter().map(|&(_, w)| w as u32).collect(),
                counts: vec![0; geometries.len()],
            }
        };
        Some(StackEngine {
            class_mod: FastMod::new(l as u64),
            slot,
            stride,
            seqs: vec![S::ZERO; l * stride],
            indices: vec![u64::MAX; l * stride],
            files: vec![u32::MAX; l * stride],
            plan,
            seq: S::ZERO,
        })
    }

    /// Classify one access: bit `k` of the result is set iff a
    /// `geometries[k]` cache serving this stream hits. Promotes the block
    /// to MRU of its class.
    pub fn access(&mut self, block: crate::BlockAddr) -> u64 {
        self.access_observed(block, &mut NullObserver)
    }

    /// [`access`](Self::access), reporting the access's stack distance to
    /// `obs`: `None` for a cold access, otherwise the distinct-same-set-
    /// blocks-since count the classification walk accumulated. The walk
    /// stops counting once every geometry's verdict is decided, so the
    /// distance saturates at the swept geometries' maximum ways — exact
    /// below that point, a lower bound above it (see
    /// [`flo_obs::Observer::stack_distance`]).
    pub fn access_observed<O: Observer>(&mut self, block: crate::BlockAddr, obs: &mut O) -> u64 {
        let r = self.class_mod.rem(set_hash(block)) as usize;
        let base = self.slot[r] as usize * self.stride;
        self.seq = self.seq.next();
        // The block's previous access, if still inside its class window.
        // Window entries are distinct blocks, so at most one slot matches;
        // the branchless position sum vectorizes where an early-exit scan
        // cannot.
        let (prev_seq, pos) = {
            let ind = &self.indices[base..base + self.stride];
            let fil = &self.files[base..base + self.stride];
            let mut hit = 0usize;
            for i in 0..self.stride {
                hit += (i + 1) * (((ind[i] == block.index) & (fil[i] == block.file)) as usize);
            }
            if hit != 0 {
                (self.seqs[base + hit - 1], hit - 1)
            } else {
                (S::ZERO, usize::MAX)
            }
        };
        let (mask, dist) = if prev_seq == S::ZERO {
            (0, None)
        } else {
            match &mut self.plan {
                Plan::Nested {
                    rows,
                    row_len,
                    level_sizes,
                    sorted,
                    stop,
                } => {
                    let row = &rows[r * *row_len..(r + 1) * *row_len];
                    // The finest level is the block's own class (nested ⇒
                    // the lcm equals the largest set count), already hot
                    // from the find scan.
                    debug_assert_eq!(level_sizes[0], 1);
                    debug_assert_eq!(row[0] as usize * self.stride, base);
                    let mut mask = 0u64;
                    let mut acc = 0u32;
                    for chunk in self.seqs[base..base + self.stride].chunks_exact(8) {
                        acc += count_newer8(chunk, prev_seq);
                    }
                    let mut at = 1usize;
                    for (i, &(orig, ways)) in sorted.iter().enumerate() {
                        if i > 0 {
                            // Count every class of this level
                            // unconditionally: a stale class contributes 0
                            // anyway, and the vectorized count is cheaper
                            // than a data-dependent (unpredictable) skip.
                            for &c in &row[at..at + level_sizes[i] as usize] {
                                let cb = c as usize * self.stride;
                                for chunk in self.seqs[cb..cb + self.stride].chunks_exact(8) {
                                    acc += count_newer8(chunk, prev_seq);
                                }
                            }
                            at += level_sizes[i] as usize;
                        }
                        // `acc` is now exactly this geometry's
                        // distinct-blocks-since count (its relevant classes
                        // are precisely those of level ≤ i in `fine` order).
                        if acc < ways {
                            mask |= 1 << orig;
                        } else if acc >= stop[i] {
                            // Counts only grow toward coarser geometries:
                            // everything remaining is already a miss.
                            break;
                        }
                    }
                    (mask, Some(u64::from(acc)))
                }
                Plan::Generic {
                    off,
                    items,
                    ways,
                    counts,
                } => {
                    for c in counts.iter_mut() {
                        *c = 0;
                    }
                    for &(ci, cmask) in &items[off[r] as usize..off[r + 1] as usize] {
                        let cb = ci as usize * self.stride;
                        let mut cnt = 0u32;
                        for chunk in self.seqs[cb..cb + self.stride].chunks_exact(8) {
                            cnt += count_newer8(chunk, prev_seq);
                        }
                        if cnt > 0 {
                            let mut m = cmask;
                            while m != 0 {
                                let k = m.trailing_zeros() as usize;
                                counts[k] += cnt;
                                m &= m - 1;
                            }
                        }
                    }
                    let mut mask = 0u64;
                    for (k, &w) in ways.iter().enumerate() {
                        if counts[k] < w {
                            mask |= 1 << k;
                        }
                    }
                    // Geometries partition the classes differently, so
                    // "the" distance is per-geometry here; report the
                    // largest (the count over the most classes).
                    let dist = if O::ENABLED {
                        u64::from(counts.iter().copied().max().unwrap_or(0))
                    } else {
                        0
                    };
                    (mask, Some(dist))
                }
            }
        };
        if O::ENABLED {
            obs.stack_distance(dist);
        }
        // Refresh in place on a re-access; otherwise overwrite the
        // window's oldest entry (min seq; empty slots carry 0 and fill
        // first).
        let at = if pos != usize::MAX {
            base + pos
        } else {
            let mut victim = base;
            for i in base + 1..base + self.stride {
                if self.seqs[i] < self.seqs[victim] {
                    victim = i;
                }
            }
            self.indices[victim] = block.index;
            self.files[victim] = block.file;
            victim
        };
        self.seqs[at] = self.seq;
        mask
    }
}

/// Per-point live state: storage caches, disks, and accumulators. The I/O
/// layer is classified by the shared [`MultiCapacityStack`]s; everything
/// downstream of an I/O miss is simulated for real per point.
struct PointState {
    /// Requests that missed this point's I/O layer (each miss forfeits
    /// exactly one weighted hit; see [`crate::LruCore::access_weighted`]).
    io_miss_requests: u64,
    storage: Vec<SetAssocCache>,
    disks: Vec<DiskState>,
    latency: Vec<f64>,
}

/// Simulate an inclusive-LRU run of `traces` on `base` at every capacity
/// in `points`, in one pass over the interleaved stream.
///
/// Returns one [`SimReport`] per point, bit-identical to calling
/// [`simulate`](crate::simulate) on a fresh [`StorageSystem`] with the
/// corresponding
/// capacities (`base` with `points[i]`'s capacities substituted). Sweeps
/// outside the stack engine's envelope (see [`MultiCapacityStack::new`])
/// transparently fall back to exactly that per-point path.
pub fn simulate_sweep(
    base: &Topology,
    points: &[SweepPoint],
    traces: &[ThreadTrace],
    cfg: &RunConfig,
) -> Result<Vec<SimReport>, SimError> {
    let mut nulls = vec![NullObserver; points.len()];
    simulate_sweep_observed(base, points, traces, cfg, &mut NullObserver, &mut nulls)
}

/// Shared input validation of the sweep entry points.
fn validate_sweep(base: &Topology, points: &[SweepPoint]) -> Result<(), SimError> {
    base.validate()?;
    if points.is_empty() {
        return Err(SimError::InvalidSweep("no capacity points".to_string()));
    }
    for (k, p) in points.iter().enumerate() {
        if p.io_cache_blocks == 0 || p.storage_cache_blocks == 0 {
            return Err(SimError::InvalidSweep(format!(
                "point {k} has a zero cache capacity ({} io, {} storage blocks)",
                p.io_cache_blocks, p.storage_cache_blocks
            )));
        }
    }
    Ok(())
}

/// [`simulate_sweep`] under a fault plan: every capacity point replays
/// the *same* seeded fault schedule from a fresh [`FaultState`] (fault
/// decisions are pure in `(seed, sequence time)`, and every point sees
/// the same interleaved stream), so the points stay comparable — each
/// report is bit-identical to [`crate::simulate_faulted`] on a fresh
/// system at that capacity. Faulted sweeps always take the per-point
/// path: fault-injected flushes and reroutes break the stack-inclusion
/// property the one-pass engine relies on.
pub fn simulate_sweep_faulted(
    base: &Topology,
    points: &[SweepPoint],
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    plan: &FaultPlan,
) -> Result<Vec<SimReport>, SimError> {
    validate_sweep(base, points)?;
    plan.validate()?;
    points
        .iter()
        .map(|p| {
            let mut topo = base.clone();
            topo.io_cache_blocks = p.io_cache_blocks;
            topo.storage_cache_blocks = p.storage_cache_blocks;
            let mut system = StorageSystem::new(topo, PolicyKind::LruInclusive)?;
            let mut faults = FaultState::new(*plan)?;
            Ok(crate::sim::simulate_faulted(
                &mut system,
                traces,
                cfg,
                &mut faults,
            ))
        })
        .collect()
}

/// [`simulate_sweep`], reporting telemetry through observers. The shared
/// I/O-layer classification reports each access's stack distance to
/// `stream_obs` (the distance profile is a property of the routed stream,
/// not of any capacity point); `point_obs[k]` receives point `k`'s
/// per-event telemetry — I/O and storage cache lookups, storage
/// evictions, disk reads, and an end-of-run storage occupancy snapshot.
/// (The shared classification stack is not a cache, so sweep runs carry
/// no I/O-layer eviction or occupancy events.) Sweeps outside the stack
/// engine's envelope fall back to observed per-point simulation, where
/// `stream_obs` receives nothing.
///
/// Reports stay bit-identical to [`simulate_sweep`] for every observer.
pub fn simulate_sweep_observed<O: Observer>(
    base: &Topology,
    points: &[SweepPoint],
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    stream_obs: &mut O,
    point_obs: &mut [O],
) -> Result<Vec<SimReport>, SimError> {
    validate_sweep(base, points)?;
    if point_obs.len() != points.len() {
        return Err(SimError::InvalidSweep(format!(
            "one observer per point required ({} observers for {} points)",
            point_obs.len(),
            points.len()
        )));
    }
    let geometries: Vec<(usize, usize)> = points
        .iter()
        .map(|p| set_geometry(p.io_cache_blocks, base.cache_ways))
        .collect();
    // u32 timestamps halve the recency slab; every real trace is far
    // below u32::MAX accesses, but check rather than assume.
    let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
    if total < u32::MAX as u64 {
        if let Some(proto) = StackEngine::<u32>::new(&geometries) {
            return Ok(sweep_with(
                proto, base, points, traces, cfg, stream_obs, point_obs,
            ));
        }
    } else if let Some(proto) = StackEngine::<u64>::new(&geometries) {
        return Ok(sweep_with(
            proto, base, points, traces, cfg, stream_obs, point_obs,
        ));
    }
    points
        .iter()
        .zip(point_obs)
        .map(|(p, o)| simulate_point_observed(base, *p, traces, cfg, o))
        .collect()
}

/// The one-pass driver, generic over the stack engine's timestamp width.
fn sweep_with<S: SeqTime, O: Observer>(
    proto: StackEngine<S>,
    base: &Topology,
    points: &[SweepPoint],
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    stream_obs: &mut O,
    point_obs: &mut [O],
) -> Vec<SimReport> {
    let costs = CostModel::for_block_elems(base.block_elems);
    let disk_model = DiskModel::for_block_elems(base.block_elems);
    let mut stacks: Vec<StackEngine<S>> = vec![proto; base.io_nodes];
    let mut pts: Vec<PointState> = points
        .iter()
        .map(|p| PointState {
            io_miss_requests: 0,
            storage: (0..base.storage_nodes)
                .map(|_| SetAssocCache::new(p.storage_cache_blocks, base.cache_ways))
                .collect(),
            disks: (0..base.storage_nodes)
                .map(|_| DiskState::default())
                .collect(),
            latency: vec![0.0f64; traces.len()],
        })
        .collect();
    let mut total_requests = 0u64;
    let mut total_weight = 0u64;
    for (t, entry) in JitterInterleaver::new(traces, INTERLEAVE_SEED) {
        let io_idx = base.io_node_of_compute(traces[t].compute_node);
        let sc_idx = base.storage_node_of_block(entry.block);
        let mask = stacks[io_idx].access_observed(entry.block, stream_obs);
        total_requests += 1;
        total_weight += entry.count as u64;
        for (k, st) in pts.iter_mut().enumerate() {
            if mask >> k & 1 == 1 {
                point_obs[k].cache_access(Layer::Io, io_idx, true, entry.count);
                st.latency[t] += costs.io_hit_ms;
            } else {
                point_obs[k].cache_access(Layer::Io, io_idx, false, entry.count);
                st.io_miss_requests += 1;
                let hit = st.storage[sc_idx].access(entry.block);
                point_obs[k].cache_access(Layer::Storage, sc_idx, hit, 1);
                let ms = if hit {
                    costs.io_hit_ms + costs.storage_hit_ms
                } else {
                    let (disk, sequential) = st.disks[sc_idx].read_classified(
                        entry.block,
                        &disk_model,
                        base.storage_nodes,
                    );
                    point_obs[k].disk_read(sc_idx, sequential, disk);
                    if st.storage[sc_idx].insert_absent(entry.block).is_some() {
                        point_obs[k].eviction(Layer::Storage, sc_idx);
                    }
                    costs.io_hit_ms + costs.storage_hit_ms + disk
                };
                st.latency[t] += ms;
            }
        }
    }
    if O::ENABLED {
        for (k, st) in pts.iter().enumerate() {
            for (n, c) in st.storage.iter().enumerate() {
                point_obs[k].occupancy(Layer::Storage, n, &c.set_occupancies());
            }
        }
    }
    pts.into_iter()
        .map(|st| {
            let mut storage = CacheStats::default();
            for c in &st.storage {
                storage.merge(&c.stats());
            }
            let execution_time_ms = st
                .latency
                .iter()
                .map(|l| l + cfg.compute_ms_per_thread)
                .fold(0.0f64, f64::max);
            SimReport {
                layers: LayerStats {
                    io: CacheStats {
                        accesses: total_weight,
                        hits: total_weight - st.io_miss_requests,
                    },
                    storage,
                },
                disk_reads: st.disks.iter().map(|d| d.reads).sum(),
                disk_sequential_reads: st.disks.iter().map(|d| d.sequential_reads).sum(),
                demotions: 0,
                thread_latency_ms: st.latency,
                compute_ms_per_thread: cfg.compute_ms_per_thread,
                execution_time_ms,
                total_requests,
            }
        })
        .collect()
}

/// The per-point reference path: a fresh inclusive-LRU system at one
/// capacity point, driven by [`crate::simulate`].
#[cfg(test)]
fn simulate_point(
    base: &Topology,
    point: SweepPoint,
    traces: &[ThreadTrace],
    cfg: &RunConfig,
) -> SimReport {
    simulate_point_observed(base, point, traces, cfg, &mut NullObserver).unwrap()
}

/// Observed per-point path (the fallback of [`simulate_sweep_observed`]).
fn simulate_point_observed<O: Observer>(
    base: &Topology,
    point: SweepPoint,
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    obs: &mut O,
) -> Result<SimReport, SimError> {
    let mut topo = base.clone();
    topo.io_cache_blocks = point.io_cache_blocks;
    topo.storage_cache_blocks = point.storage_cache_blocks;
    let mut system = StorageSystem::new(topo, PolicyKind::LruInclusive)?;
    Ok(simulate_observed(&mut system, traces, cfg, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockAddr;

    fn trace(thread: usize, node: usize, blocks: &[(u32, u64)]) -> ThreadTrace {
        let mut t = ThreadTrace::new(thread, node);
        for &(f, i) in blocks {
            t.push(BlockAddr::new(f, i));
        }
        t
    }

    /// A single fully-associative geometry must reproduce plain LRU.
    #[test]
    fn single_geometry_matches_lru() {
        let mut stack = MultiCapacityStack::new(&[(1, 3)]).unwrap();
        let mut lru = crate::LruCore::new(3);
        let stream = [1u64, 2, 3, 1, 4, 5, 2, 1, 3, 3, 6, 1, 2, 7, 1, 4, 4, 2];
        for &i in &stream {
            let b = BlockAddr::new(0, i);
            let hit = lru.access(b);
            lru.insert(b);
            assert_eq!(stack.access(b) == 1, hit, "block {i}");
        }
    }

    /// Nested geometries obey stack inclusion: a hit at a smaller
    /// capacity implies a hit at every larger one.
    #[test]
    fn hit_masks_are_monotone_for_nested_sets() {
        // 1×2, 1×4, 1×8: fully associative, growing ways.
        let mut stack = MultiCapacityStack::new(&[(1, 2), (1, 4), (1, 8)]).unwrap();
        let mut x: u64 = 0x1234_5678;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mask = stack.access(BlockAddr::new(0, x % 12));
            // A set bit k requires all higher bits set, so the unset bits
            // must form a low prefix.
            let unset = !mask & 0b111;
            assert_eq!(unset & (unset + 1), 0, "non-monotone mask {mask:b}");
        }
    }

    /// The envelope guards refuse degenerate inputs instead of panicking.
    #[test]
    fn envelope_guards() {
        assert!(MultiCapacityStack::new(&[]).is_none());
        assert!(MultiCapacityStack::new(&[(0, 4)]).is_none());
        assert!(MultiCapacityStack::new(&[(4, 0)]).is_none());
        assert!(MultiCapacityStack::new(&[(4, MAX_WAYS + 1)]).is_none());
        // Coprime huge set counts blow the class bound.
        assert!(MultiCapacityStack::new(&[(2999, 8), (3001, 8)]).is_none());
        assert!(MultiCapacityStack::new(&[(12, 8), (48, 8)]).is_some());
        // Non-nested but small set counts take the generic plan.
        assert!(MultiCapacityStack::new(&[(2, 4), (3, 4)]).is_some());
    }

    /// A tiny two-point sweep matches per-point simulation exactly.
    #[test]
    fn tiny_sweep_matches_per_point() {
        let topo = Topology::tiny();
        let traces = vec![
            trace(0, 0, &[(0, 1), (0, 2), (0, 1), (1, 3), (0, 9), (0, 1)]),
            trace(1, 2, &[(0, 2), (1, 3), (1, 3), (0, 7), (0, 2), (2, 0)]),
            trace(2, 3, &[(2, 5), (2, 6), (2, 5), (2, 6), (0, 1), (0, 2)]),
        ];
        let cfg = RunConfig {
            compute_ms_per_thread: 1.5,
        };
        let points = [
            SweepPoint {
                io_cache_blocks: 2,
                storage_cache_blocks: 4,
            },
            SweepPoint {
                io_cache_blocks: 8,
                storage_cache_blocks: 16,
            },
            SweepPoint {
                io_cache_blocks: 3,
                storage_cache_blocks: 5,
            },
        ];
        let swept = simulate_sweep(&topo, &points, &traces, &cfg).unwrap();
        for (p, got) in points.iter().zip(&swept) {
            let want = simulate_point(&topo, *p, &traces, &cfg);
            assert_eq!(got.layers.io, want.layers.io, "{p:?}");
            assert_eq!(got.layers.storage, want.layers.storage, "{p:?}");
            assert_eq!(got.disk_reads, want.disk_reads, "{p:?}");
            assert_eq!(
                got.disk_sequential_reads, want.disk_sequential_reads,
                "{p:?}"
            );
            assert_eq!(got.thread_latency_ms, want.thread_latency_ms, "{p:?}");
            assert_eq!(got.execution_time_ms, want.execution_time_ms, "{p:?}");
            assert_eq!(got.total_requests, want.total_requests, "{p:?}");
        }
    }

    /// Random small sweeps (mixed nested/generic geometries) match the
    /// per-point path exactly.
    #[test]
    fn random_sweeps_match_per_point() {
        let mut x: u64 = 0xBEEF_CAFE;
        let mut rnd = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..25 {
            let mut topo = Topology::tiny();
            topo.cache_ways = 1 + rnd(8) as usize;
            let n_threads = 1 + rnd(3) as usize;
            let traces: Vec<ThreadTrace> = (0..n_threads)
                .map(|t| {
                    let mut tr = ThreadTrace::new(t, rnd(topo.compute_nodes as u64) as usize);
                    for _ in 0..(20 + rnd(100)) {
                        tr.push(BlockAddr::new(rnd(3) as u32, rnd(30)));
                    }
                    tr
                })
                .collect();
            let n_points = 1 + rnd(4) as usize;
            let points: Vec<SweepPoint> = (0..n_points)
                .map(|_| SweepPoint {
                    io_cache_blocks: 1 + rnd(24) as usize,
                    storage_cache_blocks: 1 + rnd(48) as usize,
                })
                .collect();
            let cfg = RunConfig::default();
            let swept = simulate_sweep(&topo, &points, &traces, &cfg).unwrap();
            for (p, got) in points.iter().zip(&swept) {
                let want = simulate_point(&topo, *p, &traces, &cfg);
                assert_eq!(got.layers.io, want.layers.io, "case {case} {p:?}");
                assert_eq!(got.layers.storage, want.layers.storage, "case {case} {p:?}");
                assert_eq!(got.disk_reads, want.disk_reads, "case {case} {p:?}");
                assert_eq!(
                    got.thread_latency_ms, want.thread_latency_ms,
                    "case {case} {p:?}"
                );
                assert_eq!(
                    got.execution_time_ms, want.execution_time_ms,
                    "case {case} {p:?}"
                );
            }
        }
    }
}

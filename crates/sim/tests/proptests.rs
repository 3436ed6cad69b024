//! Property-based tests of the storage-cache simulator's invariants.
//!
//! Deterministic SplitMix64 case generation replaces `proptest`
//! (unavailable offline); failures carry a case index for replay.

use flo_linalg::SplitMix64;
use flo_obs::FaultCounters;
use flo_sim::oracle::report_diff;
use flo_sim::policies::demote;
use flo_sim::stackdist::StackEngine;
use flo_sim::{
    simulate, simulate_faulted, simulate_oracle, simulate_sweep, BlockAddr, FaultPlan, FaultState,
    KarmaHints, LruCore, MultiCapacityStack, PolicyKind, RunConfig, SimReport, StorageSystem,
    SweepPoint, ThreadTrace, Topology,
};

fn block_stream(rng: &mut SplitMix64) -> Vec<u64> {
    let len = rng.range_usize(1, 199);
    (0..len).map(|_| rng.below(40)).collect()
}

/// LRU inclusion (stack) property: a larger cache's hits are a
/// superset of a smaller one's on any trace.
#[test]
fn lru_stack_property() {
    let mut rng = SplitMix64::new(0x57AC);
    for case in 0..100 {
        let stream = block_stream(&mut rng);
        let mut small = LruCore::new(4);
        let mut large = LruCore::new(16);
        for &i in &stream {
            let b = BlockAddr::new(0, i);
            let hs = small.access(b);
            let hl = large.access(b);
            assert!(
                !hs || hl,
                "case {case}: small hit where large missed at block {i}"
            );
            small.insert(b);
            large.insert(b);
        }
        assert!(large.stats().hits >= small.stats().hits, "case {case}");
    }
}

/// The LRU cache never exceeds its capacity and never double-counts.
#[test]
fn lru_capacity_invariant() {
    let mut rng = SplitMix64::new(0xCA9);
    for case in 0..100 {
        let stream = block_stream(&mut rng);
        let cap = rng.range_usize(1, 11);
        let mut c = LruCore::new(cap);
        for &i in &stream {
            let b = BlockAddr::new(0, i);
            c.access(b);
            c.insert(b);
            assert!(c.len() <= cap, "case {case}");
            let listed = c.blocks_mru_to_lru();
            let mut dedup = listed.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(
                dedup.len(),
                listed.len(),
                "case {case}: duplicate resident block"
            );
        }
    }
}

/// DEMOTE keeps the two layers exclusive on any trace.
#[test]
fn demote_exclusivity() {
    let mut rng = SplitMix64::new(0xDE3);
    for case in 0..100 {
        let stream = block_stream(&mut rng);
        let mut upper = LruCore::new(3);
        let mut lower = LruCore::new(5);
        for &i in &stream {
            demote::access(&mut upper, &mut lower, BlockAddr::new(0, i));
            for b in upper.blocks_mru_to_lru() {
                assert!(
                    !lower.contains(b),
                    "case {case}: block {b:?} resident at both layers"
                );
            }
        }
    }
}

/// Any policy on any trace keeps hit counts within access counts, and
/// the simulation is deterministic.
#[test]
fn policies_consistent_and_deterministic() {
    let mut rng = SplitMix64::new(0x9071C7);
    for case in 0..40 {
        let n_streams = rng.range_usize(1, 3);
        let streams: Vec<Vec<u64>> = (0..n_streams).map(|_| block_stream(&mut rng)).collect();
        let policy = PolicyKind::all()[rng.range_usize(0, 2)];
        let topo = Topology::tiny();
        let traces: Vec<ThreadTrace> = streams
            .iter()
            .enumerate()
            .map(|(t, s)| {
                let mut tr = ThreadTrace::new(t, t % topo.compute_nodes);
                for &i in s {
                    tr.push(BlockAddr::new((i % 3) as u32, i));
                }
                tr
            })
            .collect();
        let run = || {
            let mut system = StorageSystem::new(topo.clone(), policy).unwrap();
            flo_sim::simulate(&mut system, &traces, &Default::default())
        };
        let a = run();
        let b = run();
        assert!(a.layers.io.hits <= a.layers.io.accesses, "case {case}");
        assert!(
            a.layers.storage.hits <= a.layers.storage.accesses,
            "case {case}"
        );
        assert!(a.disk_sequential_reads <= a.disk_reads, "case {case}");
        assert_eq!(a.execution_time_ms, b.execution_time_ms, "case {case}");
        assert_eq!(a.disk_reads, b.disk_reads, "case {case}");
        // Every block request reaches the I/O layer exactly once (weighted
        // by coalesced element counts).
        let elements: u64 = traces.iter().map(|t| t.element_accesses()).sum();
        assert_eq!(a.layers.io.accesses, elements, "case {case}");
    }
}

fn random_traces(rng: &mut SplitMix64, topo: &Topology) -> Vec<ThreadTrace> {
    let n = rng.range_usize(1, 3);
    (0..n)
        .map(|t| {
            let mut tr = ThreadTrace::new(t, t % topo.compute_nodes);
            for i in block_stream(rng) {
                tr.push(BlockAddr::new((i % 3) as u32, i));
            }
            tr
        })
        .collect()
}

/// The one-pass sweep engine matches a direct LRU simulation — the
/// oracle's — of every swept point: full-report equality (counters and
/// bit-exact floats) for random traces, capacities, and set counts.
#[test]
fn sweep_matches_direct_lru_simulation() {
    let mut rng = SplitMix64::new(0x5EE9_D157);
    for case in 0..100 {
        let mut topo = Topology::tiny();
        // Small ways force multi-set geometries; usize::MAX keeps the
        // fully-associative path covered.
        topo.cache_ways = [1, 2, 3, 4, usize::MAX][rng.range_usize(0, 4)];
        topo.storage_nodes = rng.range_usize(1, 4);
        let points: Vec<SweepPoint> = (0..rng.range_usize(1, 5))
            .map(|_| SweepPoint {
                io_cache_blocks: rng.range_usize(1, 48),
                storage_cache_blocks: rng.range_usize(2, 64),
            })
            .collect();
        let traces = random_traces(&mut rng, &topo);
        let cfg = RunConfig {
            compute_ms_per_thread: rng.below(8) as f64,
        };
        let swept = simulate_sweep(&topo, &points, &traces, &cfg).unwrap();
        for (i, p) in points.iter().enumerate() {
            let mut t = topo.clone();
            t.io_cache_blocks = p.io_cache_blocks;
            t.storage_cache_blocks = p.storage_cache_blocks;
            let hints = KarmaHints::default();
            let direct = simulate_oracle(&t, PolicyKind::LruInclusive, &hints, None, &traces, &cfg);
            assert_reports_bit_identical(&swept[i], &direct, &format!("case {case} point {i}"));
        }
    }
}

/// A one-set stack geometry is exactly an always-insert LRU: the
/// engine's hit bit matches [`LruCore`] access-for-access, at both
/// timestamp widths.
#[test]
fn stack_single_set_matches_lru_core() {
    let mut rng = SplitMix64::new(0x57AC_D157);
    for case in 0..50 {
        let ways = rng.range_usize(1, 12);
        let mut stack64 = MultiCapacityStack::new(&[(1, ways)]).unwrap();
        let mut stack32 = StackEngine::<u32>::new(&[(1, ways)]).unwrap();
        let mut lru = LruCore::new(ways);
        for (pos, i) in block_stream(&mut rng).into_iter().enumerate() {
            let b = BlockAddr::new(0, i);
            let m64 = stack64.access(b);
            let m32 = stack32.access(b);
            let hit = lru.access(b);
            lru.insert(b);
            assert_eq!(m64 & 1 == 1, hit, "case {case} pos {pos}");
            assert_eq!(m64, m32, "case {case} pos {pos}: timestamp widths differ");
        }
    }
}

/// Multi-geometry masks agree with independent single-geometry engines
/// (so classifying many capacities in one walk changes nothing) and
/// across timestamp widths, for random set counts and ways including
/// non-dividing mixes that exercise the generic plan.
#[test]
fn stack_multi_geometry_is_consistent() {
    let mut rng = SplitMix64::new(0xD157_CA5E);
    for case in 0..25 {
        let geos: Vec<(usize, usize)> = (0..rng.range_usize(1, 5))
            .map(|_| (rng.range_usize(1, 9), rng.range_usize(1, 9)))
            .collect();
        let mut multi64 = MultiCapacityStack::new(&geos).unwrap();
        let mut multi32 = StackEngine::<u32>::new(&geos).unwrap();
        let mut singles: Vec<MultiCapacityStack> = geos
            .iter()
            .map(|&g| MultiCapacityStack::new(&[g]).unwrap())
            .collect();
        for (pos, i) in block_stream(&mut rng).into_iter().enumerate() {
            let b = BlockAddr::new((i % 2) as u32, i);
            let m = multi64.access(b);
            assert_eq!(m, multi32.access(b), "case {case} pos {pos}");
            for (k, s) in singles.iter_mut().enumerate() {
                assert_eq!(
                    (m >> k) & 1,
                    s.access(b) & 1,
                    "case {case} pos {pos} geo {k}"
                );
            }
        }
    }
}

/// Inclusion across the two-layer hierarchy: doubling both layers'
/// capacities (nested set geometries) never loses an I/O-layer hit, so
/// the storage layer sees a weakly shrinking miss stream.
#[test]
fn nested_capacity_growth_preserves_io_hits() {
    let mut rng = SplitMix64::new(0x1C105);
    let mut topo = Topology::tiny();
    topo.cache_ways = 2; // finite ways so the sweep exercises real sets
    let traces = random_traces(&mut rng, &topo);
    let points: Vec<SweepPoint> = (0..4)
        .map(|k| SweepPoint {
            io_cache_blocks: 4 << k,
            storage_cache_blocks: 8 << k,
        })
        .collect();
    let swept = simulate_sweep(&topo, &points, &traces, &RunConfig::default()).unwrap();
    for (i, w) in swept.windows(2).enumerate() {
        assert_eq!(w[0].layers.io.accesses, w[1].layers.io.accesses);
        assert!(
            w[1].layers.io.hits >= w[0].layers.io.hits,
            "point {i}: larger caches lost an I/O hit"
        );
        assert!(
            w[1].layers.storage.accesses <= w[0].layers.storage.accesses,
            "point {i}: storage layer saw more misses at larger capacity"
        );
    }
}

fn assert_reports_bit_identical(a: &SimReport, b: &SimReport, tag: &str) {
    if let Some(diff) = report_diff(a, b) {
        panic!("{tag}: {diff}");
    }
}

/// Differential property: a quiet (zero-rate) [`FaultPlan`] run through
/// the fault-hooked simulation path is bit-identical to the no-plan path
/// for randomized traces, topologies, and every policy — the fault
/// machinery must cost nothing and change nothing when it injects
/// nothing.
#[test]
fn quiet_fault_plan_matches_no_plan_path() {
    let mut rng = SplitMix64::new(0xFA_017);
    for case in 0..40 {
        let mut topo = Topology::tiny();
        topo.storage_nodes = rng.range_usize(1, 5);
        topo.io_nodes = [1, 2, 4][rng.range_usize(0, 2)]; // divisors of the 4 compute nodes
        topo.io_cache_blocks = rng.range_usize(2, 32);
        topo.storage_cache_blocks = rng.range_usize(4, 48);
        topo.validate().unwrap();
        let traces = random_traces(&mut rng, &topo);
        let cfg = RunConfig {
            compute_ms_per_thread: rng.below(8) as f64,
        };
        let policy = PolicyKind::extended()[case % PolicyKind::extended().len()];
        let seed = rng.below(u64::MAX);
        let plain = {
            let mut sys = StorageSystem::new(topo.clone(), policy).unwrap();
            simulate(&mut sys, &traces, &cfg)
        };
        let quiet = {
            let mut sys = StorageSystem::new(topo.clone(), policy).unwrap();
            let mut faults = FaultState::new(FaultPlan::quiet(seed)).unwrap();
            let rep = simulate_faulted(&mut sys, &traces, &cfg, &mut faults);
            assert!(
                !faults.stats().any(),
                "case {case}: quiet plan injected a fault"
            );
            rep
        };
        assert_reports_bit_identical(&plain, &quiet, &format!("case {case} policy {policy:?}"));
    }
}

/// Faulted runs match the oracle's replay of the same plan, for every
/// policy with random KARMA hints, random platform shapes, fault windows
/// of 1–40 requests and fault rates up to 20× the degraded defaults —
/// and across the cases every fault class fires.
#[test]
fn faulted_runs_match_oracle() {
    let mut rng = SplitMix64::new(0xFA_0AC1E);
    let mut fired = FaultCounters::default();
    for case in 0..400 {
        let mut topo = Topology::tiny();
        topo.cache_ways = [1, 2, 3, 4, usize::MAX][rng.range_usize(0, 4)];
        topo.storage_nodes = rng.range_usize(1, 4);
        topo.io_nodes = [1, 2, 4][rng.range_usize(0, 2)];
        topo.io_cache_blocks = rng.range_usize(2, 32);
        topo.storage_cache_blocks = rng.range_usize(4, 48);
        let traces = random_traces(&mut rng, &topo);
        let cfg = RunConfig {
            compute_ms_per_thread: rng.below(8) as f64,
        };
        let mut plan = FaultPlan::with_intensity(rng.next_u64(), rng.below(2001) as f64 / 100.0);
        plan.window = rng.range_usize(1, 40) as u64;
        plan.straggler_multiplier = 1.0 + rng.below(50) as f64 / 10.0;
        plan.retry.max_retries = rng.below(5) as u32;
        plan.retry.backoff = 1.0 + rng.below(30) as f64 / 10.0;
        let files = (0..4u32).map(|f| (f, 1 + rng.below(30), rng.below(2000)));
        let hints = KarmaHints::from_triples(&files.collect::<Vec<_>>());
        let policy = PolicyKind::extended()[case % 4];
        let mut sys = StorageSystem::new(topo.clone(), policy).unwrap();
        sys.set_karma_hints(&hints);
        let mut faults = FaultState::new(plan).unwrap();
        let live = simulate_faulted(&mut sys, &traces, &cfg, &mut faults);
        let oracle = simulate_oracle(&topo, policy, &hints, Some(&plan), &traces, &cfg);
        assert_reports_bit_identical(&live, &oracle, &format!("case {case} ({policy:?})"));
        let s = faults.stats();
        fired.outages += s.outages;
        fired.failovers += s.failovers;
        fired.straggler_reads += s.straggler_reads;
        fired.retries += s.retries;
        fired.cache_flushes += s.cache_flushes;
    }
    assert!(fired.outages > 0 && fired.failovers > 0, "{fired:?}");
    assert!(fired.straggler_reads > 0 && fired.retries > 0, "{fired:?}");
    assert!(fired.cache_flushes > 0, "{fired:?}");
}

/// Striping never routes a block outside the storage nodes and is
/// deterministic per address.
#[test]
fn striping_is_total() {
    let mut rng = SplitMix64::new(0x57819E);
    let topo = Topology::paper_default();
    for case in 0..500 {
        let file = rng.below(4) as u32;
        let index = rng.below(10_000);
        let node = topo.storage_node_of_block(BlockAddr::new(file, index));
        assert!(node < topo.storage_nodes, "case {case}");
        assert_eq!(
            node,
            topo.storage_node_of_block(BlockAddr::new(file, index)),
            "case {case}"
        );
    }
}

//! Differential tests of the observer instrumentation.
//!
//! The contract of `flo-obs` is that instrumentation is *free* when
//! disabled and *truthful* when enabled:
//!
//! * the instrumented path under [`flo_obs::NullObserver`] (i.e. plain
//!   [`flo_sim::simulate`]) must produce bit-identical reports to the
//!   independent naive model [`flo_sim::simulate_oracle`], and
//! * a [`flo_obs::MetricsObserver`] must not perturb the simulation,
//!   while its own counters must agree with the report it rode along on.
//!
//! Deterministic SplitMix64 case generation replaces `proptest`
//! (unavailable offline); failures carry a case index for replay.

use flo_linalg::SplitMix64;
use flo_obs::{Layer, MetricsObserver, NullObserver, Observer};
use flo_sim::oracle::report_diff;
use flo_sim::policies::karma::RangeHint;
use flo_sim::{
    simulate, simulate_observed, simulate_oracle, simulate_sweep, simulate_sweep_observed,
    BlockAddr, KarmaHints, PolicyKind, RunConfig, SimReport, StorageSystem, SweepPoint,
    ThreadTrace, Topology,
};

fn block_stream(rng: &mut SplitMix64) -> Vec<u64> {
    let len = rng.range_usize(1, 199);
    (0..len).map(|_| rng.below(40)).collect()
}

fn random_traces(rng: &mut SplitMix64, topo: &Topology) -> Vec<ThreadTrace> {
    let n = rng.range_usize(1, 4);
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

fn random_topology(rng: &mut SplitMix64) -> Topology {
    let mut topo = Topology::tiny();
    topo.cache_ways = [1, 2, 3, 4, usize::MAX][rng.range_usize(0, 4)];
    topo.io_cache_blocks = rng.range_usize(2, 24);
    topo.storage_cache_blocks = rng.range_usize(2, 32);
    topo.storage_nodes = rng.range_usize(1, 4);
    topo.io_nodes = [1, 2, 4][rng.range_usize(0, 2)]; // divisors of the 4 compute nodes
    topo
}

/// Random KARMA hints over the traces' three files plus an unused one:
/// global ranges, and per-I/O-node views for some cases.
fn random_hints(rng: &mut SplitMix64, topo: &Topology) -> KarmaHints {
    let ranges = |rng: &mut SplitMix64| -> Vec<RangeHint> {
        (0..rng.range_usize(0, 4))
            .map(|_| RangeHint {
                file: rng.below(4) as u32,
                num_blocks: 1 + rng.below(30),
                accesses: rng.below(2000),
            })
            .collect()
    };
    let mut hints = KarmaHints {
        ranges: ranges(rng),
        group_ranges: Vec::new(),
    };
    if rng.bool() {
        hints.group_ranges = (0..topo.io_nodes).map(|_| ranges(rng)).collect();
    }
    hints
}

fn assert_reports_bit_identical(a: &SimReport, b: &SimReport, tag: &str) {
    if let Some(diff) = report_diff(a, b) {
        panic!("{tag}: {diff}");
    }
}

/// The null-observed path is the oracle's: every policy with random
/// KARMA hints, random traces and platform shapes, bit-exact floats.
#[test]
fn null_observer_matches_oracle() {
    let mut rng = SplitMix64::new(0x0B5E_57ED);
    for case in 0..400 {
        let topo = random_topology(&mut rng);
        let policy = PolicyKind::extended()[case % 4];
        let traces = random_traces(&mut rng, &topo);
        let hints = random_hints(&mut rng, &topo);
        let cfg = RunConfig {
            compute_ms_per_thread: rng.below(8) as f64,
        };
        let mut sys = StorageSystem::new(topo.clone(), policy).unwrap();
        sys.set_karma_hints(&hints);
        let live = simulate(&mut sys, &traces, &cfg);
        let oracle = simulate_oracle(&topo, policy, &hints, None, &traces, &cfg);
        assert_reports_bit_identical(&live, &oracle, &format!("case {case} ({policy:?})"));
    }
}

/// An enabled observer rides along without perturbing the simulation,
/// and its counters agree with the report: weighted I/O accesses/hits
/// match the report's layer counters, disk totals match, and KARMA
/// routing tallies cover every request under that policy.
#[test]
fn metrics_observer_is_passive_and_consistent() {
    let mut rng = SplitMix64::new(0x0B5E_CC27);
    for case in 0..60 {
        let topo = random_topology(&mut rng);
        let policy = PolicyKind::extended()[rng.range_usize(0, 3)];
        let traces = random_traces(&mut rng, &topo);
        let cfg = RunConfig {
            compute_ms_per_thread: rng.below(8) as f64,
        };
        let mut sys_null = StorageSystem::new(topo.clone(), policy).unwrap();
        let base = simulate(&mut sys_null, &traces, &cfg);

        let mut metrics = MetricsObserver::new();
        let mut sys_obs = StorageSystem::new(topo, policy).unwrap();
        let observed = simulate_observed(&mut sys_obs, &traces, &cfg, &mut metrics);
        let tag = format!("case {case} ({policy:?})");
        assert_reports_bit_identical(&observed, &base, &tag);

        let io = metrics.layer_totals(Layer::Io);
        assert_eq!(io.weighted_accesses, base.layers.io.accesses, "{tag}");
        // The cache counts the `weight − 1` elements behind a block miss
        // as hits (served from the fetched block); the observer sees the
        // block-level outcome. The two agree through this identity.
        assert_eq!(
            io.weighted_accesses - (io.accesses - io.hits),
            base.layers.io.hits,
            "{tag}"
        );
        assert!(io.weighted_hits <= base.layers.io.hits, "{tag}");
        assert_eq!(io.accesses, base.total_requests, "{tag}");
        let storage = metrics.layer_totals(Layer::Storage);
        assert_eq!(storage.accesses, base.layers.storage.accesses, "{tag}");
        assert_eq!(storage.hits, base.layers.storage.hits, "{tag}");
        assert_eq!(metrics.disk_reads(), base.disk_reads, "{tag}");
        assert_eq!(
            metrics.disks.iter().map(|d| d.sequential).sum::<u64>(),
            base.disk_sequential_reads,
            "{tag}"
        );
        assert_eq!(
            metrics.demotions.iter().sum::<u64>(),
            base.demotions,
            "{tag}"
        );
        let karma_total = metrics.karma.upper + metrics.karma.lower + metrics.karma.bypass;
        if policy == PolicyKind::Karma {
            assert_eq!(karma_total, base.total_requests, "{tag}: karma routing");
        } else {
            assert_eq!(karma_total, 0, "{tag}: karma counters on non-karma policy");
        }
        assert!(
            !metrics.occupancy.is_empty(),
            "{tag}: missing occupancy snapshot"
        );
        for snap in &metrics.occupancy {
            let cap = match snap.layer {
                Layer::Io => sys_obs.topology().io_cache_blocks,
                Layer::Storage => sys_obs.topology().storage_cache_blocks,
            };
            let resident: u64 = snap.per_set.iter().map(|&s| u64::from(s)).sum();
            assert!(resident as usize <= cap, "{tag}: occupancy over capacity");
        }
    }
}

/// The observed sweep is passive too: per-point reports match the
/// unobserved sweep bit-for-bit, and each point's observer tallies match
/// its own report.
#[test]
fn observed_sweep_is_passive_and_consistent() {
    let mut rng = SplitMix64::new(0x0B5E_5EE9);
    for case in 0..25 {
        let topo = random_topology(&mut rng);
        let traces = random_traces(&mut rng, &topo);
        let points: Vec<SweepPoint> = (0..rng.range_usize(1, 5))
            .map(|_| SweepPoint {
                io_cache_blocks: rng.range_usize(1, 48),
                storage_cache_blocks: rng.range_usize(2, 64),
            })
            .collect();
        let cfg = RunConfig {
            compute_ms_per_thread: rng.below(8) as f64,
        };
        let plain = simulate_sweep(&topo, &points, &traces, &cfg).unwrap();
        let mut stream = MetricsObserver::new();
        let mut per_point = vec![MetricsObserver::new(); points.len()];
        let observed =
            simulate_sweep_observed(&topo, &points, &traces, &cfg, &mut stream, &mut per_point)
                .unwrap();
        assert_eq!(observed.len(), plain.len());
        for (k, (o, p)) in observed.iter().zip(&plain).enumerate() {
            let tag = format!("case {case} point {k}");
            assert_reports_bit_identical(o, p, &tag);
            let m = &per_point[k];
            let io = m.layer_totals(Layer::Io);
            assert_eq!(io.weighted_accesses, o.layers.io.accesses, "{tag}");
            assert_eq!(
                io.weighted_accesses - (io.accesses - io.hits),
                o.layers.io.hits,
                "{tag}"
            );
            let storage = m.layer_totals(Layer::Storage);
            assert_eq!(storage.accesses, o.layers.storage.accesses, "{tag}");
            assert_eq!(storage.hits, o.layers.storage.hits, "{tag}");
            assert_eq!(m.disk_reads(), o.disk_reads, "{tag}");
            assert_eq!(
                m.disks.iter().map(|d| d.sequential).sum::<u64>(),
                o.disk_sequential_reads,
                "{tag}"
            );
        }
        // Stack distances are a property of the shared classification
        // stream: warm + cold events cover every block request once.
        let requests: u64 = traces.iter().map(|t| t.len() as u64).sum();
        if let Some(first) = observed.first() {
            assert_eq!(first.total_requests, requests, "case {case}");
        }
        if stream.stack.count() + stream.cold > 0 {
            assert_eq!(
                stream.stack.count() + stream.cold,
                requests,
                "case {case}: stack-distance events"
            );
        }
    }
}

/// `Observer`'s default methods really are no-ops: a unit struct with no
/// overrides can observe a run (exercising every callback) and the
/// report still matches the oracle.
#[test]
fn default_observer_methods_are_noops() {
    struct Inert;
    impl Observer for Inert {}

    let mut rng = SplitMix64::new(0x1E97);
    let topo = random_topology(&mut rng);
    let traces = random_traces(&mut rng, &topo);
    let cfg = RunConfig::default();
    let mut sys = StorageSystem::new(topo.clone(), PolicyKind::DemoteLru).unwrap();
    let a = simulate_observed(&mut sys, &traces, &cfg, &mut Inert);
    let b = simulate_oracle(
        &topo,
        PolicyKind::DemoteLru,
        &KarmaHints::default(),
        None,
        &traces,
        &cfg,
    );
    assert_reports_bit_identical(&a, &b, "inert observer");
    // And NullObserver advertises itself as disabled while a default
    // impl stays enabled (batch work like occupancy snapshots keys on it).
    const { assert!(!NullObserver::ENABLED) };
    const { assert!(Inert::ENABLED) };
}

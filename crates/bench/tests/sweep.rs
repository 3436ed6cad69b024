//! Differential test of the harness's sweep path: for every workload in
//! the suite, both schemes, three policies and every fig7c capacity
//! point, the batched, fanned-out sweep path must reproduce the
//! per-config path's [`SimReport`] bit for bit — counters equal, floats
//! equal down to the last ULP.

use flo_bench::experiments::fig7c;
use flo_bench::harness::{normalized_exec_sweep, run_app, sweep_outcomes, RunOverrides, Scheme};
use flo_bench::{topology_for, RunCaches};
use flo_sim::{PolicyKind, SimReport};
use flo_workloads::Scale;

fn assert_reports_identical(sweep: &SimReport, direct: &SimReport, tag: &str) {
    assert_eq!(sweep.layers.io.accesses, direct.layers.io.accesses, "{tag}");
    assert_eq!(sweep.layers.io.hits, direct.layers.io.hits, "{tag}");
    assert_eq!(
        sweep.layers.storage.accesses, direct.layers.storage.accesses,
        "{tag}"
    );
    assert_eq!(
        sweep.layers.storage.hits, direct.layers.storage.hits,
        "{tag}"
    );
    assert_eq!(sweep.disk_reads, direct.disk_reads, "{tag}");
    assert_eq!(
        sweep.disk_sequential_reads, direct.disk_sequential_reads,
        "{tag}"
    );
    assert_eq!(sweep.demotions, direct.demotions, "{tag}");
    assert_eq!(sweep.total_requests, direct.total_requests, "{tag}");
    assert_eq!(
        sweep.compute_ms_per_thread.to_bits(),
        direct.compute_ms_per_thread.to_bits(),
        "{tag}"
    );
    assert_eq!(
        sweep.execution_time_ms.to_bits(),
        direct.execution_time_ms.to_bits(),
        "{tag}: execution time diverged"
    );
    assert_eq!(
        sweep.thread_latency_ms.len(),
        direct.thread_latency_ms.len(),
        "{tag}"
    );
    for (t, (a, b)) in sweep
        .thread_latency_ms
        .iter()
        .zip(&direct.thread_latency_ms)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag} thread {t}");
    }
}

/// The whole suite × both schemes × every fig7c capacity point under
/// `policy`: sweep outcomes equal uncached per-config outcomes exactly.
fn sweep_matches_per_config_runs(policy: PolicyKind) {
    let base = topology_for(Scale::Small);
    let points = fig7c::sweep_points(&base);
    let overrides = RunOverrides::default();
    let caches = RunCaches::new();
    for w in flo_workloads::all(Scale::Small) {
        for scheme in [Scheme::Default, Scheme::Inter] {
            let swept =
                sweep_outcomes(&caches, &w, &base, &points, policy, scheme, &overrides).unwrap();
            assert_eq!(swept.len(), points.len());
            for (i, p) in points.iter().enumerate() {
                let mut topo = base.clone();
                topo.io_cache_blocks = p.io_cache_blocks;
                topo.storage_cache_blocks = p.storage_cache_blocks;
                let direct = run_app(&w, &topo, policy, scheme, &overrides).unwrap();
                let tag = format!("{} {} {} point {i}", w.name, scheme.name(), policy.name());
                assert_reports_identical(&swept[i].report, &direct.report, &tag);
                assert_eq!(
                    swept[i].optimized_fraction.to_bits(),
                    direct.optimized_fraction.to_bits(),
                    "{tag}"
                );
                // compile_ms is wall-clock layout-pass time — not
                // comparable across runs, only sane.
                assert!(swept[i].compile_ms >= 0.0, "{tag}");
            }
        }
    }
}

/// Inclusive LRU: each trace-key group is one one-pass sweep.
#[test]
fn sweep_outcomes_match_per_config_runs() {
    sweep_matches_per_config_runs(PolicyKind::LruInclusive);
}

/// KARMA: each group's points are simulated one by one, side by side,
/// over one trace set and one hint set.
#[test]
fn sweep_outcomes_match_per_config_runs_under_karma() {
    sweep_matches_per_config_runs(PolicyKind::Karma);
}

/// DEMOTE-LRU: the per-point branch without hints.
#[test]
fn sweep_outcomes_match_per_config_runs_under_demote_lru() {
    sweep_matches_per_config_runs(PolicyKind::DemoteLru);
}

/// The Default scheme against itself: every ratio is exactly 1, and the
/// scheme side takes the Default side's reports instead of simulating.
/// On a fresh `RunCaches` each point is looked up once and simulated
/// once, the one trace set is generated once, and under KARMA its hints
/// are built once; nothing is looked up twice, so nothing hits.
#[test]
fn default_against_itself_simulates_each_point_once() {
    let base = topology_for(Scale::Small);
    let points = fig7c::sweep_points(&base);
    for policy in [PolicyKind::LruInclusive, PolicyKind::Karma] {
        for app in ["qio", "swim", "cc-ver-1"] {
            let w = flo_workloads::by_name(app, Scale::Small).unwrap();
            let caches = RunCaches::new();
            let norms = normalized_exec_sweep(
                &caches,
                &w,
                &base,
                &points,
                policy,
                Scheme::Default,
                &RunOverrides::default(),
            )
            .unwrap();
            let tag = format!("{app} {}", policy.name());
            assert!(norms.iter().all(|&n| n == 1.0), "{tag}: {norms:?}");
            let hint_sets = u64::from(policy == PolicyKind::Karma);
            assert_eq!(
                (caches.total_hits(), caches.total_misses()),
                (0, points.len() as u64 + 1 + hint_sets),
                "{tag}: (hits, misses)"
            );
        }
    }
}

/// The fig7c top-level entry point: batched normalized execution times
/// equal the per-point cached path bit for bit.
#[test]
fn normalized_exec_sweep_matches_per_point() {
    let base = topology_for(Scale::Small);
    let points = fig7c::sweep_points(&base);
    let overrides = RunOverrides::default();
    let caches = RunCaches::new();
    for w in flo_workloads::all(Scale::Small) {
        let norms = normalized_exec_sweep(
            &caches,
            &w,
            &base,
            &points,
            PolicyKind::LruInclusive,
            Scheme::Inter,
            &overrides,
        )
        .unwrap();
        for (i, p) in points.iter().enumerate() {
            let mut topo = base.clone();
            topo.io_cache_blocks = p.io_cache_blocks;
            topo.storage_cache_blocks = p.storage_cache_blocks;
            let direct = flo_bench::harness::normalized_exec(
                &w,
                &topo,
                PolicyKind::LruInclusive,
                Scheme::Inter,
                &overrides,
            )
            .unwrap();
            assert_eq!(
                norms[i].to_bits(),
                direct.to_bits(),
                "{} point {i}: {} vs {direct}",
                w.name,
                norms[i]
            );
        }
    }
}

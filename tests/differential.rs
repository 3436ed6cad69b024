//! Differential test of the fast trace generator against the
//! element-at-a-time reference.
//!
//! The fast path ([`flo::core::generate_traces`]) must produce *exactly*
//! the entry stream of [`flo::core::generate_traces_reference`] — same
//! threads, same blocks, same coalesced counts — for every workload of
//! the evaluation suite under every layout-producing scheme. This is the
//! contract that lets the whole experiment pipeline switch to run
//! emission and incremental cursors without re-validating a single
//! figure.

use flo::bench::harness::{prepare_run, RunOverrides, Scheme};
use flo::bench::topology_for;
use flo::core::{generate_traces, generate_traces_reference};
use flo::workloads::{all, Scale};

fn assert_identical(scheme: Scheme) {
    let topo = topology_for(Scale::Small);
    for w in all(Scale::Small) {
        let prepared = prepare_run(&w, &topo, scheme, &RunOverrides::default()).unwrap();
        let fast = generate_traces(&w.program, &prepared.cfg, &prepared.layouts, &topo);
        let slow = generate_traces_reference(&w.program, &prepared.cfg, &prepared.layouts, &topo);
        assert_eq!(
            fast.len(),
            slow.len(),
            "{}/{}: thread count",
            w.name,
            scheme.name()
        );
        for (t, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(
                f.thread,
                s.thread,
                "{}/{} thread {t}: thread id",
                w.name,
                scheme.name()
            );
            assert_eq!(
                f.compute_node,
                s.compute_node,
                "{}/{} thread {t}: compute node",
                w.name,
                scheme.name()
            );
            assert_eq!(
                f.len(),
                s.len(),
                "{}/{} thread {t}: entry count",
                w.name,
                scheme.name()
            );
            for (k, (fe, se)) in f.entries().zip(s.entries()).enumerate() {
                assert_eq!(
                    fe,
                    se,
                    "{}/{} thread {t} entry {k}: {fe:?} vs {se:?}",
                    w.name,
                    scheme.name()
                );
            }
        }
    }
}

/// Row-major default layouts: every nest takes the fast run-emission
/// path for its single-reference nests.
#[test]
fn fast_path_matches_reference_default_layouts() {
    assert_identical(Scheme::Default);
}

/// Optimized layouts: a mix of dense permutations and table-backed
/// hierarchical layouts, exercising both emission strategies.
#[test]
fn fast_path_matches_reference_inter_layouts() {
    assert_identical(Scheme::Inter);
}

/// Reindexed layouts (baseline [27]): dimension permutations only.
#[test]
fn fast_path_matches_reference_reindex_layouts() {
    assert_identical(Scheme::Reindex);
}

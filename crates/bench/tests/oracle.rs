//! The shipping simulator against the naive oracle on the workload suite:
//! every application, both schemes, all four policies with the harness's
//! KARMA hints, healthy and under a degraded fault plan — every report
//! bit-identical. The small-scale matrix runs with the other tests; the
//! full-scale one is ignored by default and meant for release builds:
//! `cargo test --release -p flo-bench --test oracle -- --include-ignored`.

use flo_bench::harness::{karma_hints, prepare_run, RunOverrides, Scheme};
use flo_bench::topology_for;
use flo_core::generate_traces;
use flo_parallel::parallel_map_indexed;
use flo_sim::oracle::report_diff;
use flo_sim::{
    simulate, simulate_faulted, simulate_oracle, FaultPlan, FaultState, PolicyKind, StorageSystem,
};
use flo_workloads::{all, Scale};

fn suite_matches_oracle(scale: Scale) {
    let topo = topology_for(scale);
    let suite = all(scale);
    let plan = FaultPlan::default_degraded(7);
    let schemes = [Scheme::Default, Scheme::Inter];
    let failures: Vec<String> = parallel_map_indexed(suite.len() * schemes.len(), |cell| {
        let (w, scheme) = (&suite[cell / 2], schemes[cell % 2]);
        let p = prepare_run(w, &topo, scheme, &RunOverrides::default()).unwrap();
        let traces = generate_traces(&w.program, &p.cfg, &p.layouts, &topo);
        let hints = karma_hints(&traces, &topo);
        let mut failures = Vec::new();
        for policy in PolicyKind::extended() {
            for faulted in [false, true] {
                let mut sys = StorageSystem::new(topo.clone(), policy).unwrap();
                sys.set_karma_hints(&hints);
                let (live, oracle_plan) = if faulted {
                    let mut faults = FaultState::new(plan).unwrap();
                    let report = simulate_faulted(&mut sys, &traces, &p.run_cfg, &mut faults);
                    (report, Some(&plan))
                } else {
                    (simulate(&mut sys, &traces, &p.run_cfg), None)
                };
                let oracle =
                    simulate_oracle(&topo, policy, &hints, oracle_plan, &traces, &p.run_cfg);
                if let Some(diff) = report_diff(&live, &oracle) {
                    let name = policy.name();
                    failures.push(format!(
                        "{}/{}/{name}/faulted={faulted}: {diff}",
                        w.name,
                        scheme.name()
                    ));
                }
            }
        }
        failures
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn small_suite_matches_oracle() {
    suite_matches_oracle(Scale::Small);
}

#[test]
#[ignore = "full scale: run in release with --include-ignored"]
fn full_suite_matches_oracle() {
    suite_matches_oracle(Scale::Full);
}

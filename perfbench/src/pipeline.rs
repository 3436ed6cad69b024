//! `pipeline` — the experiment hot path Fig. 7 is built from.
//!
//! The 48 cells of Fig. 7(h) (16 apps × LRU / KARMA / DEMOTE-LRU, full
//! scale) in a seeded order. One op is one cell computed cold by
//! `harness::normalized_exec`: a Default and an Inter run, each layout
//! pass → tracegen → KARMA hints → simulate, with no memo carried
//! between ops. Every cell must equal `results/fig7h.txt`.

use crate::stats::{self, Layers, RefTable};
use crate::{Args, Outcome};
use flo_bench::harness::{karma_hints, normalized_exec, prepare_run, RunOverrides, Scheme};
use flo_bench::topology_for;
use flo_sim::{simulate, PolicyKind, StorageSystem, Topology};
use flo_workloads::{Scale, Workload};

pub const REFERENCE: &str = "results/fig7h.txt";

/// The policies of Fig. 7(h), with their column in the reference table.
const POLICIES: [(PolicyKind, &str); 3] = [
    (PolicyKind::LruInclusive, "LRU"),
    (PolicyKind::Karma, "KARMA[47]"),
    (PolicyKind::DemoteLru, "DEMOTE-LRU[44]"),
];

/// Mean cell time on a 2-vCPU x86-64 VM; fixes the op count for a given
/// `--seconds` without looking at a clock.
const NOMINAL_OP_S: f64 = 0.45;

struct Setup {
    suite: Vec<Workload>,
    topo: Topology,
    reference: Result<RefTable, String>,
}

fn setup() -> Setup {
    Setup {
        suite: flo_workloads::all(Scale::Full),
        topo: topology_for(Scale::Full),
        reference: RefTable::load(REFERENCE),
    }
}

fn cell(s: &Setup, c: usize) -> (&Workload, PolicyKind, &'static str) {
    let (policy, column) = POLICIES[c % POLICIES.len()];
    (&s.suite[c / POLICIES.len()], policy, column)
}

/// One untraced op: the cell exactly as the harness computes it.
fn run_cell(s: &Setup, c: usize) -> Result<f64, String> {
    let (w, policy, _) = cell(s, c);
    normalized_exec(w, &s.topo, policy, Scheme::Inter, &RunOverrides::default())
        .map_err(|e| format!("{} {}: {e}", w.name, policy.name()))
}

/// One traced op: the same cell recomposed from the public calls the
/// harness makes, each timed into its layer.
fn traced_cell(s: &Setup, c: usize, layers: &mut Layers) -> Result<f64, String> {
    let (w, policy, _) = cell(s, c);
    let base = traced_run(s, w, policy, Scheme::Default, layers)?;
    let opt = traced_run(s, w, policy, Scheme::Inter, layers)?;
    Ok(opt / base)
}

/// `harness::run_app` without caches, call by call; returns exec ms.
fn traced_run(
    s: &Setup,
    w: &Workload,
    policy: PolicyKind,
    scheme: Scheme,
    layers: &mut Layers,
) -> Result<f64, String> {
    let topo = &s.topo;
    let prepared = layers
        .pass
        .time(|| prepare_run(w, topo, scheme, &RunOverrides::default()))
        .map_err(|e| e.to_string())?;
    let traces = layers
        .tracegen
        .time(|| flo_core::generate_traces(&w.program, &prepared.cfg, &prepared.layouts, topo));
    let entries: u64 = traces.iter().map(|t| t.len() as u64).sum();
    layers.tracegen.entries += entries;
    let hints =
        (policy == PolicyKind::Karma).then(|| layers.karma.time(|| karma_hints(&traces, topo)));
    let report = layers.simulate.time(|| {
        let mut system = StorageSystem::new(topo.clone(), policy)?;
        if let Some(h) = &hints {
            system.set_karma_hints(h);
        }
        Ok::<_, flo_sim::SimError>(simulate(&mut system, &traces, &prepared.run_cfg))
    });
    let report = report.map_err(|e| e.to_string())?;
    layers.simulate.entries += entries;
    stats::time_interleave(&mut layers.interleave, &traces);
    Ok(report.execution_time_ms)
}

/// A `--setup-probe` process: the set-up a run builds before its first
/// op.
pub fn probe() -> Result<(), String> {
    std::hint::black_box(setup());
    stats::ready()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let universe = flo_workloads::all(Scale::Full).len() * POLICIES.len();
    let rounds = stats::rounds_for(args.seconds, universe, NOMINAL_OP_S);
    let ops = stats::op_order(args.seed, universe, rounds * universe);
    eprintln!(
        "perfbench: pipeline: {} cells ({rounds} round(s) of {universe}), seed {}",
        ops.len(),
        args.seed
    );
    let s = &setup();
    let batch = stats::measure_batch(args, s, &ops, run_cell)?;
    let (results, wall) = (&batch.results, batch.wall);

    let mut failed = 0u64;
    for (&c, r) in ops.iter().zip(results) {
        let (w, _, column) = cell(s, c);
        let ok = match r {
            Ok(v) => stats::matches_reference(&s.reference, w.name, column, *v),
            Err(e) => {
                eprintln!("perfbench: cell failed: {e}");
                false
            }
        };
        failed += u64::from(!ok);
    }

    let metrics = if args.trace {
        stats::recompose(
            &ops,
            results,
            wall,
            |c, layers| traced_cell(s, c, layers),
            |v| vec![v.to_bits()],
        )?
    } else {
        stats::batch_metrics(batch.setup_s, &batch.lat_ns, wall)?
    };
    Ok(Outcome {
        attempted: ops.len() as u64,
        failed,
        metrics,
    })
}

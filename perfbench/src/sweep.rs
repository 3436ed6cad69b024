//! `sweep` — the same simulator rules through the one-pass stack-distance
//! engine.
//!
//! The 16 rows of Fig. 7(c) in a seeded order. One op is one app's
//! five-point LRU capacity row, computed by
//! `harness::normalized_exec_sweep` on a fresh `RunCaches`. Every row
//! must equal `results/fig7c.txt`.

use crate::stats::{self, Layers, RefTable};
use crate::{Args, Outcome};
use flo_bench::experiments::fig7c;
use flo_bench::harness::{normalized_exec_sweep, prepare_run, RunOverrides, Scheme};
use flo_bench::{topology_for, RunCaches};
use flo_core::FileLayout;
use flo_sim::{simulate_sweep, PolicyKind, SweepPoint, Topology};
use flo_workloads::{Scale, Workload};
use std::time::Instant;

pub const REFERENCE: &str = "results/fig7c.txt";

/// Typical row time on a 2-vCPU x86-64 VM (see `pipeline`).
const NOMINAL_OP_S: f64 = 1.0;

struct Setup {
    suite: Vec<Workload>,
    topo: Topology,
    points: Vec<SweepPoint>,
    reference: Result<RefTable, String>,
}

fn setup() -> Setup {
    let topo = topology_for(Scale::Full);
    Setup {
        suite: flo_workloads::all(Scale::Full),
        points: fig7c::sweep_points(&topo),
        topo,
        reference: RefTable::load(REFERENCE),
    }
}

/// One untraced op: the row exactly as the harness computes it.
fn run_row(s: &Setup, app: usize) -> Result<Vec<f64>, String> {
    let w = &s.suite[app];
    normalized_exec_sweep(
        &RunCaches::new(),
        w,
        &s.topo,
        &s.points,
        PolicyKind::LruInclusive,
        Scheme::Inter,
        &RunOverrides::default(),
    )
    .map_err(|e| format!("{}: {e}", w.name))
}

/// One side (Default or Inter) of a recomposed row: exec ms per point and
/// the layout fingerprint each point ran under.
struct Side {
    exec_ms: Vec<f64>,
    fingerprints: Vec<u64>,
}

/// `harness::sweep_outcomes` call by call: a layout pass per point, then
/// one tracegen + `simulate_sweep` per distinct layout set. A point whose
/// layouts equal the Default side's at that capacity reuses its report,
/// as the harness's simulation memo does.
fn traced_side(
    s: &Setup,
    w: &Workload,
    scheme: Scheme,
    memo: Option<&Side>,
    layers: &mut Layers,
) -> Result<Side, String> {
    let mut prepared = Vec::with_capacity(s.points.len());
    for p in &s.points {
        let mut topo = s.topo.clone();
        topo.io_cache_blocks = p.io_cache_blocks;
        topo.storage_cache_blocks = p.storage_cache_blocks;
        let pr = layers
            .pass
            .time(|| prepare_run(w, &topo, scheme, &RunOverrides::default()))
            .map_err(|e| e.to_string())?;
        prepared.push((topo, pr));
    }
    let t = Instant::now();
    let fingerprints: Vec<u64> = prepared
        .iter()
        .map(|(_, pr)| FileLayout::fingerprint_all(&pr.layouts))
        .collect();
    layers.grouping += t.elapsed();
    let mut exec_ms: Vec<Option<f64>> = (0..s.points.len())
        .map(|i| {
            memo.filter(|m| m.fingerprints[i] == fingerprints[i])
                .map(|m| m.exec_ms[i])
        })
        .collect();
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, &fp) in fingerprints.iter().enumerate() {
        if exec_ms[i].is_some() {
            continue;
        }
        match groups.iter_mut().find(|(k, _)| *k == fp) {
            Some((_, members)) => members.push(i),
            None => groups.push((fp, vec![i])),
        }
    }
    for (_, members) in groups {
        let (t0, p0) = &prepared[members[0]];
        let traces = layers
            .tracegen
            .time(|| flo_core::generate_traces(&w.program, &p0.cfg, &p0.layouts, t0));
        let entries: u64 = traces.iter().map(|t| t.len() as u64).sum();
        layers.tracegen.entries += entries;
        let pts: Vec<SweepPoint> = members.iter().map(|&i| s.points[i]).collect();
        let reports = layers
            .sweep
            .time(|| simulate_sweep(&s.topo, &pts, &traces, &p0.run_cfg))
            .map_err(|e| e.to_string())?;
        layers.sweep.entries += entries;
        layers.sweep.points += pts.len() as u64;
        stats::time_interleave(&mut layers.interleave, &traces);
        for (&i, r) in members.iter().zip(reports) {
            exec_ms[i] = Some(r.execution_time_ms);
        }
    }
    Ok(Side {
        exec_ms: exec_ms
            .into_iter()
            .map(|v| v.expect("every point simulated or reused"))
            .collect(),
        fingerprints,
    })
}

fn traced_row(s: &Setup, app: usize, layers: &mut Layers) -> Result<Vec<f64>, String> {
    let w = &s.suite[app];
    let base = traced_side(s, w, Scheme::Default, None, layers)?;
    let opt = traced_side(s, w, Scheme::Inter, Some(&base), layers)?;
    Ok(opt
        .exec_ms
        .iter()
        .zip(&base.exec_ms)
        .map(|(o, b)| o / b)
        .collect())
}

/// A `--setup-probe` process: the set-up a run builds before its first
/// op.
pub fn probe() -> Result<(), String> {
    std::hint::black_box(setup());
    stats::ready()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let universe = flo_workloads::all(Scale::Full).len();
    let rounds = stats::rounds_for(args.seconds, universe, NOMINAL_OP_S);
    let ops = stats::op_order(args.seed, universe, rounds * universe);
    eprintln!(
        "perfbench: sweep: {} rows ({rounds} round(s) of {universe}), seed {}",
        ops.len(),
        args.seed
    );
    let s = &setup();
    let batch = stats::measure_batch(args, s, &ops, run_row)?;
    let (results, wall) = (&batch.results, batch.wall);

    let mut failed = 0u64;
    for (&app, r) in ops.iter().zip(results) {
        let name = s.suite[app].name;
        let ok = match r {
            Ok(row) => {
                row.len() == fig7c::SCALES.len()
                    && fig7c::SCALES.iter().zip(row).all(|(&(_, _, column), &v)| {
                        stats::matches_reference(&s.reference, name, column, v)
                    })
            }
            Err(e) => {
                eprintln!("perfbench: row failed: {e}");
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
            |app, layers| traced_row(s, app, layers),
            |row| row.iter().map(|v| v.to_bits()).collect(),
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

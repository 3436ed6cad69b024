//! Run one (workload × scheme × policy × topology) configuration.

use crate::cache::{sim_key, trace_key, RunCaches, SimRun};
use crate::error::BenchError;
use crate::metrics::{self, SimRecord};
use flo_core::baseline::{compmap, reindex};
use flo_core::FileLayout;
use flo_core::{generate_traces, run_layout_pass, ParallelConfig, PassOptions, TargetLayers};
use flo_json::Json;
use flo_obs::{FaultCounters, MetricsObserver};
use flo_parallel::ThreadMapping;
use flo_sim::policies::karma::{KarmaHints, RangeHint};
use flo_sim::FileId;
use flo_sim::{
    simulate, simulate_faulted, simulate_faulted_observed, simulate_observed, simulate_sweep,
    simulate_sweep_observed, FaultPlan, FaultState, PolicyKind, RunConfig, SimReport,
    StorageSystem, SweepPoint, ThreadTrace, Topology,
};
use flo_workloads::Workload;
use std::sync::Arc;

/// Which layout/computation scheme a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The default execution: row-major layouts, round-robin blocks.
    Default,
    /// The paper's inter-node file layout optimization.
    Inter,
    /// Computation mapping \[26\]: clustered blocks, row-major layouts.
    CompMap,
    /// Profile-driven dimension reindexing \[27\].
    Reindex,
}

impl Scheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Default => "default",
            Scheme::Inter => "inter",
            Scheme::CompMap => "compmap",
            Scheme::Reindex => "reindex",
        }
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Full simulator report.
    pub report: SimReport,
    /// Fraction of arrays optimized (`Inter` only, else 0).
    pub optimized_fraction: f64,
    /// Layout-pass compile time in ms (`Inter` only, else 0).
    pub compile_ms: f64,
}

impl RunOutcome {
    /// Execution time in milliseconds.
    pub fn exec_ms(&self) -> f64 {
        self.report.execution_time_ms
    }
}

/// Optional run overrides.
#[derive(Clone, Debug, Default)]
pub struct RunOverrides {
    /// Thread-to-node mapping (Mapping I when `None`).
    pub mapping: Option<ThreadMapping>,
    /// Target layers for the `Inter` scheme (Both when `None`).
    pub target: Option<TargetLayers>,
}

/// Build KARMA's application hints from the traces: per file, the number
/// of distinct blocks and the total element accesses — globally for the
/// storage-layer allocation and per I/O node for the I/O-cache
/// partitions. This is exactly what the compiler knows statically about
/// each array, and it is where the layout optimization pays under KARMA:
/// localized layouts shrink the per-I/O-node footprints, letting more hot
/// ranges into the upper partitions (§5.4).
pub fn karma_hints(traces: &[ThreadTrace], topo: &Topology) -> KarmaHints {
    /// Distinct blocks (one bit each) and accesses of one file.
    #[derive(Clone)]
    struct Tally {
        seen: Vec<u64>,
        blocks: u64,
        accesses: u64,
    }
    impl Tally {
        /// Mark block `index` seen; true when it was not yet.
        #[inline]
        fn first_sight(&mut self, index: u64) -> bool {
            let (word, bit) = ((index >> 6) as usize, 1u64 << (index & 63));
            let fresh = self.seen[word] & bit == 0;
            self.seen[word] |= bit;
            self.blocks += u64::from(fresh);
            fresh
        }
    }
    // Each file's bitsets span its largest block index.
    let mut words: Vec<usize> = Vec::new();
    for e in traces.iter().flat_map(ThreadTrace::entries) {
        let f = e.block.file as usize;
        if f >= words.len() {
            words.resize(f + 1, 0);
        }
        words[f] = words[f].max((e.block.index >> 6) as usize + 1);
    }
    let tallies = || -> Vec<Tally> {
        words
            .iter()
            .map(|&w| Tally {
                seen: vec![0; w],
                blocks: 0,
                accesses: 0,
            })
            .collect()
    };
    let mut global = tallies();
    let mut groups = vec![tallies(); topo.io_nodes];
    for tr in traces {
        let group = &mut groups[topo.io_node_of_compute(tr.compute_node)];
        for e in tr.entries() {
            let t = &mut group[e.block.file as usize];
            t.accesses += e.count as u64;
            // A block already in this group's set is already in the
            // global one; global ranges are group-blind, so a block
            // shared by several I/O-node groups counts once there.
            if t.first_sight(e.block.index) {
                global[e.block.file as usize].first_sight(e.block.index);
            }
        }
    }
    let ranges = |tallies: &[Tally]| -> Vec<RangeHint> {
        tallies
            .iter()
            .enumerate()
            .filter(|(_, t)| t.blocks > 0)
            .map(|(file, t)| RangeHint {
                file: file as FileId,
                num_blocks: t.blocks,
                accesses: t.accesses,
            })
            .collect()
    };
    for group in &groups {
        for (g, t) in global.iter_mut().zip(group) {
            g.accesses += t.accesses;
        }
    }
    KarmaHints {
        ranges: ranges(&global),
        group_ranges: groups.iter().map(|g| ranges(g)).collect(),
    }
}

/// Everything a run needs before trace generation: the layouts and
/// parallelization a scheme chose, plus the pass diagnostics. Separating
/// this from execution lets [`run_app`] and [`run_app_cached`] share one
/// code path (they previously duplicated the whole scheme match around
/// their `generate_traces` calls).
#[derive(Clone, Debug)]
pub struct PreparedRun {
    /// The parallelization the scheme runs under.
    pub cfg: ParallelConfig,
    /// One file layout per array.
    pub layouts: Vec<FileLayout>,
    /// Simulator run parameters (compute time per thread).
    pub run_cfg: RunConfig,
    /// Fraction of arrays optimized (`Inter` only, else 0).
    pub optimized_fraction: f64,
    /// Layout-pass compile time in ms (`Inter` only, else 0).
    pub compile_ms: f64,
}

/// Resolve `scheme` into concrete layouts and a parallel configuration.
///
/// Validates the topology and the (possibly overridden) parallel
/// configuration up front so every downstream consumer — single runs,
/// sweeps, fault runs — rejects degenerate inputs with a typed error
/// instead of panicking mid-simulation.
pub fn prepare_run(
    workload: &Workload,
    topo: &Topology,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<PreparedRun, BenchError> {
    topo.validate()?;
    let mut cfg = ParallelConfig::default_for(topo.compute_nodes);
    if let Some(m) = &overrides.mapping {
        cfg = cfg.with_mapping(m.clone());
    }
    cfg.validate().map_err(BenchError::Core)?;
    let target = overrides.target.unwrap_or(TargetLayers::Both);
    let (layouts, opt_fraction, compile_ms, cfg) = match scheme {
        Scheme::Default => (
            flo_core::tracegen::default_layouts(&workload.program),
            0.0,
            0.0,
            cfg,
        ),
        Scheme::Inter => {
            let mut opts = PassOptions::default_for(topo);
            opts.parallel = cfg.clone();
            opts.target = target;
            let plan = run_layout_pass(&workload.program, topo, &opts);
            let f = plan.optimized_fraction();
            let ms = plan.compile_ms;
            (plan.layouts, f, ms, cfg)
        }
        Scheme::CompMap => {
            let cm = compmap::compmap_config(&cfg);
            (
                flo_core::tracegen::default_layouts(&workload.program),
                0.0,
                0.0,
                cm,
            )
        }
        Scheme::Reindex => {
            let plan = reindex::best_reindexing(&workload.program, &cfg, topo)?;
            (plan.layouts, 0.0, 0.0, cfg)
        }
    };
    let run_cfg = workload.run_config(cfg.threads);
    Ok(PreparedRun {
        cfg,
        layouts,
        run_cfg,
        optimized_fraction: opt_fraction,
        compile_ms,
    })
}

/// A run's traces and, under KARMA, their hints.
struct RunInputs {
    traces: Arc<Vec<ThreadTrace>>,
    hints: Option<Arc<KarmaHints>>,
}

impl RunInputs {
    /// The inputs of `prepared` at `topo`: through `memo`'s tables when
    /// it supplies the caches and the run's trace key, built afresh
    /// otherwise.
    fn fetch(
        memo: Option<(&RunCaches, u64)>,
        workload: &Workload,
        prepared: &PreparedRun,
        topo: &Topology,
        policy: PolicyKind,
    ) -> RunInputs {
        let generate =
            || generate_traces(&workload.program, &prepared.cfg, &prepared.layouts, topo);
        let traces = match memo {
            Some((c, tkey)) => c.traces_for_key(tkey, generate),
            None => Arc::new(generate()),
        };
        let hints = (policy == PolicyKind::Karma).then(|| match memo {
            Some((c, tkey)) => c.karma_hints_for(tkey, topo, || karma_hints(&traces, topo)),
            None => Arc::new(karma_hints(&traces, topo)),
        });
        RunInputs { traces, hints }
    }
}

/// The single `simulate` call site of the harness: builds the system
/// over `inputs` and runs it, under `plan` when one is given. Returns
/// the report and the fault counters the plan's schedule produced (all
/// zero for a healthy run).
fn simulate_prepared(
    inputs: &RunInputs,
    workload: &Workload,
    prepared: &PreparedRun,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    plan: Option<&FaultPlan>,
) -> Result<SimRun, BenchError> {
    let mut system = StorageSystem::new(topo.clone(), policy)?;
    if let Some(hints) = &inputs.hints {
        system.set_karma_hints(hints);
    }
    let traces = &inputs.traces;
    let mut faults = plan.map(|p| FaultState::new(*p)).transpose()?;
    let _span = flo_obs::span("simulate");
    let run_cfg = &prepared.run_cfg;
    let report = if metrics::enabled() {
        let mut obs = MetricsObserver::new();
        let report = match &mut faults {
            Some(f) => simulate_faulted_observed(&mut system, traces, run_cfg, &mut obs, f),
            None => simulate_observed(&mut system, traces, run_cfg, &mut obs),
        };
        metrics::record_sim(SimRecord {
            kind: if plan.is_some() { "sim-fault" } else { "sim" },
            app: workload.name.to_string(),
            scheme: scheme.name(),
            policy: policy.name(),
            io_cache_blocks: topo.io_cache_blocks,
            storage_cache_blocks: topo.storage_cache_blocks,
            metrics: obs.to_json(),
            report: report.to_json(),
        });
        report
    } else {
        match &mut faults {
            Some(f) => simulate_faulted(&mut system, traces, run_cfg, f),
            None => simulate(&mut system, traces, run_cfg),
        }
    };
    Ok((
        report,
        faults.map_or_else(FaultCounters::default, |f| *f.stats()),
    ))
}

/// The one run path behind [`run_app`], [`run_app_cached`],
/// [`run_app_faulted`] and [`run_app_faulted_cached`]: `caches` turns
/// memoization on, `plan` fault injection.
fn run(
    caches: Option<&RunCaches>,
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
    plan: Option<&FaultPlan>,
) -> Result<(RunOutcome, FaultCounters), BenchError> {
    let prepared = prepare_run(workload, topo, scheme, overrides)?;
    let memo = caches.map(|c| {
        let tkey = trace_key(workload, &prepared.cfg, &prepared.layouts, topo);
        (
            c,
            tkey,
            sim_key(tkey, topo, policy, &prepared.run_cfg, plan),
        )
    });
    // A memoized simulation skips trace lookup entirely.
    let (report, counters) = match memo.and_then(|(c, _, skey)| c.sim(skey)) {
        Some(hit) => (*hit).clone(),
        None => {
            let inputs = RunInputs::fetch(
                memo.map(|(c, tkey, _)| (c, tkey)),
                workload,
                &prepared,
                topo,
                policy,
            );
            let run = simulate_prepared(&inputs, workload, &prepared, topo, policy, scheme, plan)?;
            if let Some((c, _, skey)) = memo {
                c.insert_sim(skey, run.clone());
            }
            run
        }
    };
    let outcome = RunOutcome {
        report,
        optimized_fraction: prepared.optimized_fraction,
        compile_ms: prepared.compile_ms,
    };
    Ok((outcome, counters))
}

/// Run `workload` on `topo` with `policy` under `scheme`.
pub fn run_app(
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<RunOutcome, BenchError> {
    run(None, workload, topo, policy, scheme, overrides, None).map(|(o, _)| o)
}

/// Run `workload` under `scheme` with fault injection from `plan`.
///
/// Each call builds a fresh [`FaultState`], so the same plan replays the
/// identical schedule — two calls with the same seed are bit-identical.
/// Returns the outcome plus the fault counters (outages, failovers,
/// straggler/retry charges, flushes) observed during the run.
pub fn run_app_faulted(
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
    plan: &FaultPlan,
) -> Result<(RunOutcome, FaultCounters), BenchError> {
    run(None, workload, topo, policy, scheme, overrides, Some(plan))
}

/// [`run_app_faulted`] with full memoization. The fault plan (seed,
/// window, rates, retry model) is folded into the simulation key — see
/// [`sim_key`] — so a repeated (trace, topology, policy, plan)
/// configuration replays from the cache instead of resimulating, while
/// healthy runs and runs under any other plan keep distinct entries.
/// The deterministic schedule makes this sound: a cache hit returns
/// exactly the report and counters a fresh replay would produce.
pub fn run_app_faulted_cached(
    caches: &RunCaches,
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
    plan: &FaultPlan,
) -> Result<(RunOutcome, FaultCounters), BenchError> {
    run(
        Some(caches),
        workload,
        topo,
        policy,
        scheme,
        overrides,
        Some(plan),
    )
}

/// [`run_app`] with trace and simulation memoization: repeated
/// configurations that share trace-determining inputs (e.g. the `Default`
/// baseline across a policy or capacity sweep) generate their traces
/// once, and configurations that agree on every simulation input (the
/// shared baseline of every `normalized_exec` variant; schemes whose
/// layouts equal the default's) simulate once.
pub fn run_app_cached(
    caches: &RunCaches,
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<RunOutcome, BenchError> {
    run(
        Some(caches),
        workload,
        topo,
        policy,
        scheme,
        overrides,
        None,
    )
    .map(|(o, _)| o)
}

/// Normalized execution time of `scheme` against the `Default` scheme on
/// the same topology and policy. The two runs share nothing, so they run
/// concurrently when at least two workers are available (in sequence
/// otherwise); the result does not depend on which.
pub fn normalized_exec(
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<f64, BenchError> {
    let schemes = [Scheme::Default, scheme];
    let exec: Vec<f64> = flo_parallel::parallel_map_indexed(2, |i| {
        run_app(workload, topo, policy, schemes[i], overrides).map(|o| o.exec_ms())
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(exec[1] / exec[0])
}

/// [`normalized_exec`] with trace and simulation memoization for both
/// runs. The runs stay sequential: callers already fan out over the
/// suite, and the two runs can share memo entries.
pub fn normalized_exec_cached(
    caches: &RunCaches,
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<f64, BenchError> {
    let base = run_app_cached(caches, workload, topo, policy, Scheme::Default, overrides)?;
    let opt = run_app_cached(caches, workload, topo, policy, scheme, overrides)?;
    Ok(opt.exec_ms() / base.exec_ms())
}

/// One capacity point of a sweep side, prepared: its topology, the
/// scheme's run at it, and the trace and simulation keys they give.
struct PreparedPoint {
    topo: Topology,
    run: PreparedRun,
    tkey: u64,
    skey: u64,
}

/// Prepare `scheme` at every point of a sweep over `base`. Preparation
/// stays per point, since the Inter layout pass legitimately depends on
/// the capacities it optimizes for; the points are independent, so
/// their passes run side by side.
fn prepare_points(
    workload: &Workload,
    base: &Topology,
    points: &[SweepPoint],
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<Vec<PreparedPoint>, BenchError> {
    flo_parallel::parallel_map(points, |p| {
        let mut topo = base.clone();
        topo.io_cache_blocks = p.io_cache_blocks;
        topo.storage_cache_blocks = p.storage_cache_blocks;
        let run = prepare_run(workload, &topo, scheme, overrides)?;
        let tkey = trace_key(workload, &run.cfg, &run.layouts, &topo);
        let skey = sim_key(tkey, &topo, policy, &run.run_cfg, None);
        Ok(PreparedPoint {
            topo,
            run,
            tkey,
            skey,
        })
    })
    .into_iter()
    .collect()
}

/// Simulate the points of `side` that `members` names, which share one
/// trace key, and memoize each point's report. The trace set (and,
/// under KARMA, its hints) is fetched once. Under inclusive LRU the
/// group is one [`simulate_sweep`] pass; under any other policy its
/// points are simulated one by one, side by side.
fn simulate_group(
    caches: &RunCaches,
    workload: &Workload,
    base: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    side: &[PreparedPoint],
    members: &[usize],
) -> Result<Vec<SimReport>, BenchError> {
    let first = &side[members[0]];
    let inputs = RunInputs::fetch(
        Some((caches, first.tkey)),
        workload,
        &first.run,
        &first.topo,
        policy,
    );
    if policy != PolicyKind::LruInclusive {
        return flo_parallel::parallel_map(members, |&i| {
            let pt = &side[i];
            let _span = flo_obs::span("sweep-point");
            let run =
                simulate_prepared(&inputs, workload, &pt.run, &pt.topo, policy, scheme, None)?;
            caches.insert_sim(pt.skey, run.clone());
            Ok(run.0)
        })
        .into_iter()
        .collect();
    }
    let pts: Vec<SweepPoint> = members
        .iter()
        .map(|&i| SweepPoint::of(&side[i].topo))
        .collect();
    let traces = &inputs.traces;
    let run_cfg = &first.run.run_cfg;
    let _span = flo_obs::span("sweep");
    let swept = if metrics::enabled() {
        // One observer per capacity point, plus a stream observer
        // catching the shared stack-distance classification.
        let mut stream = MetricsObserver::new();
        let mut per_point = vec![MetricsObserver::new(); pts.len()];
        let swept =
            simulate_sweep_observed(base, &pts, traces, run_cfg, &mut stream, &mut per_point)?;
        for ((p, rep), obs) in pts.iter().zip(&swept).zip(per_point) {
            metrics::record_sim(SimRecord {
                kind: "sim",
                app: workload.name.to_string(),
                scheme: scheme.name(),
                policy: policy.name(),
                io_cache_blocks: p.io_cache_blocks,
                storage_cache_blocks: p.storage_cache_blocks,
                metrics: obs.to_json(),
                report: rep.to_json(),
            });
        }
        metrics::record_sim(SimRecord {
            kind: "sweep-stream",
            app: workload.name.to_string(),
            scheme: scheme.name(),
            policy: policy.name(),
            io_cache_blocks: base.io_cache_blocks,
            storage_cache_blocks: base.storage_cache_blocks,
            metrics: stream.to_json(),
            report: Json::Null,
        });
        swept
    } else {
        simulate_sweep(base, &pts, traces, run_cfg)?
    };
    for (&i, rep) in members.iter().zip(&swept) {
        caches.insert_sim(side[i].skey, (rep.clone(), FaultCounters::default()));
    }
    Ok(swept)
}

/// Simulate every point of a prepared sweep side that the memo has not
/// seen. Those points are grouped by trace identity (the trace key
/// covers the parallelization and the layouts, everything but the
/// capacities), in point order within each group, and the groups run
/// side by side. Given `default`, the Default side of the same sweep, a
/// point whose simulation key equals the Default's at that point is
/// left out and reads `None`: the caller takes the Default's report.
fn simulate_side(
    caches: &RunCaches,
    workload: &Workload,
    base: &Topology,
    policy: PolicyKind,
    scheme: Scheme,
    side: &[PreparedPoint],
    default: Option<&[PreparedPoint]>,
) -> Result<Vec<Option<SimReport>>, BenchError> {
    let shares_default = |i: usize| default.is_some_and(|d| d[i].skey == side[i].skey);
    let mut reports: Vec<Option<SimReport>> = (0..side.len())
        .map(|i| {
            if shares_default(i) {
                None
            } else {
                caches.sim(side[i].skey).map(|r| r.0.clone())
            }
        })
        .collect();
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, pt) in side.iter().enumerate() {
        if reports[i].is_some() || shares_default(i) {
            continue;
        }
        match groups.iter_mut().find(|(k, _)| *k == pt.tkey) {
            Some((_, members)) => members.push(i),
            None => groups.push((pt.tkey, vec![i])),
        }
    }
    let swept = flo_parallel::parallel_map(&groups, |(_, members)| {
        simulate_group(caches, workload, base, policy, scheme, side, members)
    });
    for ((_, members), reps) in groups.iter().zip(swept) {
        for (&i, rep) in members.iter().zip(reps?) {
            reports[i] = Some(rep);
        }
    }
    Ok(reports)
}

/// Outcomes of `scheme` at every capacity point of a sweep over `base`,
/// batched and fanned out. The points' preparations (one layout pass
/// each under `Inter`) run side by side. The points no memo entry
/// answers are then grouped by trace identity, and the groups run side
/// by side. Under inclusive LRU a group is one [`simulate_sweep`] pass,
/// bit-identical to the per-point path; under any other policy its
/// points are simulated one by one, side by side, over one trace set.
/// Everything goes through the same [`RunCaches`]. `flod`'s `sweep`
/// work kind calls this.
pub fn sweep_outcomes(
    caches: &RunCaches,
    workload: &Workload,
    base: &Topology,
    points: &[SweepPoint],
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<Vec<RunOutcome>, BenchError> {
    let side = prepare_points(workload, base, points, policy, scheme, overrides)?;
    let reports = simulate_side(caches, workload, base, policy, scheme, &side, None)?;
    Ok(side
        .into_iter()
        .zip(reports)
        .map(|(pt, rep)| RunOutcome {
            report: rep.expect("every sweep point simulated or memoized"),
            optimized_fraction: pt.run.optimized_fraction,
            compile_ms: pt.run.compile_ms,
        })
        .collect())
}

/// Normalized execution time of `scheme` against the `Default` scheme at
/// every capacity point: [`normalized_exec_cached`] over a whole sweep,
/// each side batched and fanned out as in [`sweep_outcomes`], and the
/// two sides run side by side. The Default side needs no layout pass,
/// so its sweep starts at once, while the scheme side runs its passes
/// and then its groups. A scheme point whose simulation key equals the
/// Default's at that point (its layouts are the default ones) is not
/// simulated: it takes the Default's report after the join, the report
/// a memo hit would have given it. With one worker (`FLO_THREADS=1`)
/// everything runs in sequence; the ratios are the same either way.
pub fn normalized_exec_sweep(
    caches: &RunCaches,
    workload: &Workload,
    base: &Topology,
    points: &[SweepPoint],
    policy: PolicyKind,
    scheme: Scheme,
    overrides: &RunOverrides,
) -> Result<Vec<f64>, BenchError> {
    let default = prepare_points(workload, base, points, policy, Scheme::Default, overrides)?;
    let simulate = |scheme, side: &[PreparedPoint], default| {
        simulate_side(caches, workload, base, policy, scheme, side, default)
    };
    let mut sides = flo_parallel::parallel_map_indexed(2, |lane| {
        if lane == 0 {
            return simulate(Scheme::Default, &default, None);
        }
        let side = prepare_points(workload, base, points, policy, scheme, overrides)?;
        simulate(scheme, &side, Some(&default))
    })
    .into_iter();
    let bases = sides.next().expect("the Default side")?;
    let opts = sides.next().expect("the scheme side")?;
    Ok(bases
        .iter()
        .zip(&opts)
        .map(|(b, o)| {
            let b = b
                .as_ref()
                .expect("every Default point simulated or memoized");
            o.as_ref().unwrap_or(b).execution_time_ms / b.execution_time_ms
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_workloads::{by_name, Scale};

    fn small_topo() -> Topology {
        crate::topology_for(Scale::Small)
    }

    #[test]
    fn inter_beats_default_on_group3_app() {
        let w = by_name("qio", Scale::Small).unwrap();
        let topo = small_topo();
        let norm = normalized_exec(
            &w,
            &topo,
            PolicyKind::LruInclusive,
            Scheme::Inter,
            &RunOverrides::default(),
        )
        .unwrap();
        assert!(norm < 0.97, "qio must improve, got {norm:.3}");
    }

    #[test]
    fn group1_app_shows_little_change() {
        let w = by_name("cc-ver-1", Scale::Small).unwrap();
        let topo = small_topo();
        let norm = normalized_exec(
            &w,
            &topo,
            PolicyKind::LruInclusive,
            Scheme::Inter,
            &RunOverrides::default(),
        )
        .unwrap();
        // At test scale the cold pass dominates cc-ver-1's tiny run, so a
        // little reordering noise is visible; at full scale the ratio is
        // exactly 1.00 (see EXPERIMENTS.md).
        assert!(norm > 0.85, "cc-ver-1 has no headroom, got {norm:.3}");
        assert!(
            norm < 1.25,
            "optimization must not hurt much, got {norm:.3}"
        );
    }

    #[test]
    fn karma_hints_cover_all_files() {
        let w = by_name("swim", Scale::Small).unwrap();
        let topo = small_topo();
        let cfg = ParallelConfig::default_for(topo.compute_nodes);
        let traces = generate_traces(
            &w.program,
            &cfg,
            &flo_core::tracegen::default_layouts(&w.program),
            &topo,
        );
        let hints = karma_hints(&traces, &topo);
        assert_eq!(hints.ranges.len(), w.array_count());
        for r in &hints.ranges {
            assert!(r.num_blocks > 0);
            assert!(r.accesses > 0);
        }
    }

    /// The sort-based hint builder the bitset tally replaced: one flat
    /// (group, file, block, weight) image of the trace, sorted twice.
    fn karma_hints_by_sorting(traces: &[ThreadTrace], topo: &Topology) -> KarmaHints {
        let mut entries: Vec<(u32, u32, u64, u64)> = Vec::new();
        for tr in traces {
            let g = topo.io_node_of_compute(tr.compute_node) as u32;
            for e in tr.entries() {
                entries.push((g, e.block.file, e.block.index, e.count as u64));
            }
        }
        // (file, blocks, accesses) per run of equal `key`, where `entries`
        // is sorted by (key, block).
        fn runs(
            entries: &[(u32, u32, u64, u64)],
            key: impl Fn(&(u32, u32, u64, u64)) -> (u32, u32),
        ) -> Vec<((u32, u32), u64, u64)> {
            let mut out: Vec<((u32, u32), u64, u64)> = Vec::new();
            let mut last = None;
            for e in entries {
                let k = key(e);
                if out.last().map(|r| r.0) != Some(k) {
                    out.push((k, 0, 0));
                    last = None;
                }
                let run = out.last_mut().unwrap();
                if last != Some(e.2) {
                    run.1 += 1;
                    last = Some(e.2);
                }
                run.2 += e.3;
            }
            out
        }
        entries.sort_unstable_by_key(|&(_, f, i, _)| (f, i));
        let triples: Vec<(u32, u64, u64)> = runs(&entries, |e| (0, e.1))
            .into_iter()
            .map(|((_, f), b, a)| (f, b, a))
            .collect();
        let mut hints = KarmaHints::from_triples(&triples);
        entries.sort_unstable_by_key(|&(g, f, i, _)| (g, f, i));
        hints.group_ranges = vec![Vec::new(); topo.io_nodes];
        for ((g, file), num_blocks, accesses) in runs(&entries, |e| (e.0, e.1)) {
            hints.group_ranges[g as usize].push(RangeHint {
                file,
                num_blocks,
                accesses,
            });
        }
        hints
    }

    #[test]
    fn karma_hints_match_sorting_reference_on_the_suite() {
        let topo = small_topo();
        for w in flo_workloads::all(Scale::Small) {
            for scheme in [Scheme::Default, Scheme::Inter] {
                let p = prepare_run(&w, &topo, scheme, &RunOverrides::default()).unwrap();
                let traces = generate_traces(&w.program, &p.cfg, &p.layouts, &topo);
                assert_eq!(
                    karma_hints(&traces, &topo),
                    karma_hints_by_sorting(&traces, &topo),
                    "{} {}",
                    w.name,
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn karma_hints_count_a_block_shared_across_groups_once_globally() {
        // Compute nodes 0 and 7 sit behind different I/O nodes.
        let topo = small_topo();
        let g1 = topo.io_node_of_compute(7);
        assert_ne!(topo.io_node_of_compute(0), g1);
        let trace = |thread, node, blocks: &[(u32, u64, u32)]| {
            let mut t = ThreadTrace::new(thread, node);
            for &(file, index, count) in blocks {
                t.push_run(flo_sim::BlockAddr::new(file, index), count);
            }
            t
        };
        let traces = vec![
            trace(0, 0, &[(0, 5, 2), (0, 5, 1), (2, 64, 3), (0, 130, 1)]),
            trace(1, 7, &[(0, 5, 4), (2, 63, 1), (2, 64, 1)]),
            trace(2, 0, &[(2, 0, 7)]),
        ];
        let hints = karma_hints(&traces, &topo);
        assert_eq!(hints, karma_hints_by_sorting(&traces, &topo));
        let file0 = hints.ranges[0];
        assert_eq!((file0.file, file0.num_blocks, file0.accesses), (0, 2, 8));
        let file2 = hints.ranges[1];
        assert_eq!((file2.file, file2.num_blocks, file2.accesses), (2, 3, 12));
        assert_eq!(hints.group_ranges.len(), topo.io_nodes);
        assert_eq!(hints.group_ranges[g1][0].num_blocks, 1);
        assert!(karma_hints(&[], &topo).ranges.is_empty());
    }

    #[test]
    fn normalized_exec_is_the_ratio_of_two_runs() {
        let topo = small_topo();
        let ov = RunOverrides::default();
        for app in ["qio", "swim", "mgrid"] {
            let w = by_name(app, Scale::Small).unwrap();
            for policy in [
                PolicyKind::LruInclusive,
                PolicyKind::Karma,
                PolicyKind::DemoteLru,
            ] {
                let base = run_app(&w, &topo, policy, Scheme::Default, &ov).unwrap();
                let opt = run_app(&w, &topo, policy, Scheme::Inter, &ov).unwrap();
                let norm = normalized_exec(&w, &topo, policy, Scheme::Inter, &ov).unwrap();
                assert_eq!(
                    norm.to_bits(),
                    (opt.exec_ms() / base.exec_ms()).to_bits(),
                    "{app} {}",
                    policy.name()
                );
            }
        }
        let mut bad = topo;
        bad.storage_nodes = 0;
        let w = by_name("qio", Scale::Small).unwrap();
        let err = normalized_exec(&w, &bad, PolicyKind::Karma, Scheme::Inter, &ov).unwrap_err();
        assert!(err.to_string().contains("invalid topology"), "{err}");
    }

    #[test]
    fn outcome_carries_pass_diagnostics() {
        let w = by_name("s3asim", Scale::Small).unwrap();
        let topo = small_topo();
        let out = run_app(
            &w,
            &topo,
            PolicyKind::LruInclusive,
            Scheme::Inter,
            &RunOverrides::default(),
        )
        .unwrap();
        assert_eq!(out.optimized_fraction, 1.0, "s3asim optimizes every array");
        assert!(out.compile_ms >= 0.0);
    }

    #[test]
    fn degenerate_topology_is_an_error_not_a_panic() {
        let w = by_name("qio", Scale::Small).unwrap();
        let mut topo = small_topo();
        topo.storage_nodes = 0;
        let err = run_app(
            &w,
            &topo,
            PolicyKind::LruInclusive,
            Scheme::Default,
            &RunOverrides::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("invalid topology"), "{err}");
    }

    #[test]
    fn faulted_run_replays_and_quiet_plan_matches_healthy() {
        let w = by_name("qio", Scale::Small).unwrap();
        let topo = small_topo();
        let ov = RunOverrides::default();
        let plan = flo_sim::FaultPlan::default_degraded(7);
        let (a, sa) = run_app_faulted(
            &w,
            &topo,
            PolicyKind::LruInclusive,
            Scheme::Default,
            &ov,
            &plan,
        )
        .unwrap();
        let (b, sb) = run_app_faulted(
            &w,
            &topo,
            PolicyKind::LruInclusive,
            Scheme::Default,
            &ov,
            &plan,
        )
        .unwrap();
        assert_eq!(a.exec_ms().to_bits(), b.exec_ms().to_bits());
        assert_eq!(sa, sb);
        // A quiet plan charges nothing and reproduces the healthy run.
        let quiet = flo_sim::FaultPlan::quiet(7);
        let (q, sq) = run_app_faulted(
            &w,
            &topo,
            PolicyKind::LruInclusive,
            Scheme::Default,
            &ov,
            &quiet,
        )
        .unwrap();
        let healthy = run_app(&w, &topo, PolicyKind::LruInclusive, Scheme::Default, &ov).unwrap();
        assert_eq!(q.exec_ms().to_bits(), healthy.exec_ms().to_bits());
        assert!(!sq.any());
    }

    #[test]
    fn cached_faulted_run_matches_uncached_and_memoizes() {
        let w = by_name("qio", Scale::Small).unwrap();
        let topo = small_topo();
        let ov = RunOverrides::default();
        let plan = flo_sim::FaultPlan::default_degraded(11);
        let caches = RunCaches::new();
        let (direct, sd) =
            run_app_faulted(&w, &topo, PolicyKind::Karma, Scheme::Inter, &ov, &plan).unwrap();
        let (first, s1) = run_app_faulted_cached(
            &caches,
            &w,
            &topo,
            PolicyKind::Karma,
            Scheme::Inter,
            &ov,
            &plan,
        )
        .unwrap();
        assert_eq!(direct.report, first.report, "cached path must match");
        assert_eq!(sd, s1);
        let misses = caches.total_misses();
        let (second, s2) = run_app_faulted_cached(
            &caches,
            &w,
            &topo,
            PolicyKind::Karma,
            Scheme::Inter,
            &ov,
            &plan,
        )
        .unwrap();
        assert_eq!(first.report, second.report);
        assert_eq!(s1, s2);
        assert_eq!(
            caches.total_misses(),
            misses,
            "replay must be served from the cache"
        );
        // A different intensity is a different key, not a poisoned hit.
        let other = flo_sim::FaultPlan::with_intensity(11, 0.5);
        let (third, s3) = run_app_faulted_cached(
            &caches,
            &w,
            &topo,
            PolicyKind::Karma,
            Scheme::Inter,
            &ov,
            &other,
        )
        .unwrap();
        assert!(
            third.report != first.report || s3 != s1,
            "distinct plans must not share cache entries"
        );
    }
}

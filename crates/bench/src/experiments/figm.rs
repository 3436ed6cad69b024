//! Fig. M (measurement extension) — simulated vs measured hierarchy
//! behavior on real bytes.
//!
//! For each application and each cache-management policy (inclusive LRU,
//! KARMA), the optimized (`Inter`) layouts are **materialized** into an
//! actual `flo-store` store — per-storage-node stripe files of real,
//! checksummed blocks — and the same interleaved trace the simulator
//! consumes is **replayed** through real block caches in front of that
//! store. The table reports per-layer hit rates and disk reads from both
//! sides, with `sim − measured` deltas; the companion artifact
//! (`BENCH_store.json`) carries the same points plus an `agree` verdict
//! per point, gated in CI by the `figm` binary's exit status.
//!
//! Because the replayer drives the simulator's own set-associative index
//! over the real buffers, agreement is not approximate: on a fault-free
//! replay every delta is exactly zero, and any nonzero delta is a bug in
//! the store or the simulator, not measurement noise. The tolerance
//! exists to catch such bugs loudly, not to absorb them.

use crate::experiments::pct;
use crate::harness::{karma_hints, prepare_run, RunOverrides, Scheme};
use crate::metrics::{self, SimRecord};
use crate::tablefmt::Table;
use crate::{
    store_cache_blocks_from_env, store_writeback_from_env, suite_filtered, topology_for, BenchError,
};
use flo_core::{generate_traces, FileLayout};
use flo_json::Json;
use flo_obs::{MetricsObserver, StoreCounters};
use flo_sim::{simulate, PolicyKind, StorageSystem, ThreadTrace, Topology};
use flo_store::{materialize, FileBlocks, MaterializeOptions, ReplayOptions, Store, StoreSpec};
use flo_workloads::{Scale, Workload};
use std::path::Path;

/// The policies measured runs validate against.
pub const POLICIES: [PolicyKind; 2] = [PolicyKind::LruInclusive, PolicyKind::Karma];

/// Per-point agreement tolerance on hit-rate and disk-read deltas. The
/// replay shares the simulator's index structures, so honest runs land
/// at exactly 0.0; anything above this is a correctness bug.
pub const TOLERANCE: f64 = 1e-9;

/// The default measured suite: one application per locality group of the
/// paper's taxonomy, keeping the real-I/O budget bounded. `FLO_APPS`
/// widens or narrows it like every other experiment.
pub const DEFAULT_APPS: &str = "qio,swim,s3asim,cc-ver-1";

/// One (application, policy) comparison point.
#[derive(Clone, Debug)]
pub struct MeasuredPoint {
    /// Application name.
    pub app: String,
    /// Cache-management policy.
    pub policy: PolicyKind,
    /// Simulated / measured I/O-layer hit rates in [0, 1].
    pub sim_io: f64,
    /// Measured I/O-layer hit rate.
    pub meas_io: f64,
    /// Simulated storage-layer hit rate.
    pub sim_storage: f64,
    /// Measured storage-layer hit rate.
    pub meas_storage: f64,
    /// Simulated disk reads.
    pub sim_disk: u64,
    /// Real preads issued.
    pub meas_disk: u64,
    /// Simulated execution-time estimate (ms).
    pub sim_exec_ms: f64,
    /// Replay's modeled execution-time estimate (ms).
    pub meas_exec_ms: f64,
    /// Data bytes served by verified preads.
    pub bytes_read: u64,
    /// Real wall-clock time of the replay (ms).
    pub wall_ms: f64,
    /// Blocks the materializer wrote.
    pub blocks_materialized: u64,
    /// Materializer + replay cache counters, merged.
    pub store: StoreCounters,
}

impl MeasuredPoint {
    /// Largest absolute disagreement across the compared quantities
    /// (hit rates absolute; disk reads and execution time relative).
    pub fn worst_delta(&self) -> f64 {
        let rel = |a: f64, b: f64| {
            if a == 0.0 && b == 0.0 {
                0.0
            } else {
                (a - b).abs() / a.abs().max(b.abs())
            }
        };
        (self.sim_io - self.meas_io)
            .abs()
            .max((self.sim_storage - self.meas_storage).abs())
            .max(rel(self.sim_disk as f64, self.meas_disk as f64))
            .max(rel(self.sim_exec_ms, self.meas_exec_ms))
    }

    /// Whether the point agrees within [`TOLERANCE`].
    pub fn agree(&self) -> bool {
        self.worst_delta() <= TOLERANCE
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("app", self.app.as_str())
            .set("policy", self.policy.name())
            .set("sim_io_hit", self.sim_io)
            .set("measured_io_hit", self.meas_io)
            .set("sim_storage_hit", self.sim_storage)
            .set("measured_storage_hit", self.meas_storage)
            .set("sim_disk_reads", self.sim_disk)
            .set("measured_disk_reads", self.meas_disk)
            .set("sim_exec_ms", self.sim_exec_ms)
            .set("measured_exec_ms", self.meas_exec_ms)
            .set("bytes_read", self.bytes_read)
            .set("replay_wall_ms", self.wall_ms)
            .set("blocks_materialized", self.blocks_materialized)
            .set("store", self.store.to_json())
            .set("worst_delta", self.worst_delta())
            .set("agree", self.agree())
    }

    /// The deterministic subset of the artifact rendering: everything
    /// except wall-clock fields (`replay_wall_ms` and the counters'
    /// wall time). This is what the serve tier's `store` work kind
    /// returns — served result bytes must be a pure function of the
    /// request, and wall clocks are not.
    pub fn to_stable_json(&self) -> Json {
        Json::obj()
            .set("app", self.app.as_str())
            .set("policy", self.policy.name())
            .set("sim_io_hit", self.sim_io)
            .set("measured_io_hit", self.meas_io)
            .set("sim_storage_hit", self.sim_storage)
            .set("measured_storage_hit", self.meas_storage)
            .set("sim_disk_reads", self.sim_disk)
            .set("measured_disk_reads", self.meas_disk)
            .set("sim_exec_ms", self.sim_exec_ms)
            .set("measured_exec_ms", self.meas_exec_ms)
            .set("bytes_read", self.bytes_read)
            .set("blocks_materialized", self.blocks_materialized)
            .set("evictions", self.store.evictions)
            .set("writebacks", self.store.writebacks)
            .set("dirty_high_water", self.store.dirty_high_water)
            .set("worst_delta", self.worst_delta())
            .set("agree", self.agree())
    }
}

/// The table plus the `BENCH_store.json` document.
pub struct FigmOutput {
    /// The rendered agreement table.
    pub table: Table,
    /// The artifact body.
    pub doc: Json,
    /// Whether every point agreed within [`TOLERANCE`] — the CI gate.
    pub all_agree: bool,
    /// The largest disagreement observed.
    pub worst_delta: f64,
}

/// Derive the store's block map from the traces: each touched file is
/// sized to its largest accessed block. Blocks the program never reads
/// still materialize (a real store can't hold holes where the app may
/// seek), but files the program never opens do not exist.
pub fn spec_from_traces(traces: &[ThreadTrace], layout_hash: u64, topo: &Topology) -> StoreSpec {
    let mut extents: Vec<(u32, u64)> = Vec::new();
    for t in traces {
        for e in t.entries() {
            match extents.iter_mut().find(|(f, _)| *f == e.block.file) {
                Some((_, max)) => *max = (*max).max(e.block.index + 1),
                None => extents.push((e.block.file, e.block.index + 1)),
            }
        }
    }
    extents.sort_unstable_by_key(|&(f, _)| f);
    StoreSpec {
        layout_hash,
        // Elements are modeled as f64s: one block holds `block_elems`.
        block_bytes: (topo.block_elems * 8) as u32,
        storage_nodes: topo.storage_nodes as u32,
        files: extents
            .into_iter()
            .map(|(file, blocks)| FileBlocks { file, blocks })
            .collect(),
    }
}

/// Measure one (application, policy) point: simulate, materialize the
/// optimized layouts into a real store under `store_dir`, replay the
/// identical trace through it, and compare. This is the unit the table
/// loops over and the serve tier's `store` work kind calls directly.
pub fn measure_point(
    store_dir: &Path,
    workload: &Workload,
    topo: &Topology,
    policy: PolicyKind,
) -> Result<MeasuredPoint, BenchError> {
    let prepared = prepare_run(workload, topo, Scheme::Inter, &RunOverrides::default())?;
    let traces = generate_traces(&workload.program, &prepared.cfg, &prepared.layouts, topo);
    let hints = (policy == PolicyKind::Karma).then(|| karma_hints(&traces, topo));

    // The simulated side.
    let mut system = StorageSystem::new(topo.clone(), policy)?;
    if let Some(h) = &hints {
        system.set_karma_hints(h);
    }
    let sim = simulate(&mut system, &traces, &prepared.run_cfg);

    // The measured side: materialize the optimized layouts as real
    // bytes, then replay the identical trace through the store.
    let layout_hash = FileLayout::fingerprint_all(&prepared.layouts);
    let spec = spec_from_traces(&traces, layout_hash, topo);
    let dir = store_dir.join(format!(
        "{}-{}",
        workload.name,
        policy.name().to_lowercase()
    ));
    let mut mat_opts = MaterializeOptions {
        writeback: store_writeback_from_env(),
        ..MaterializeOptions::default()
    };
    if let Some(blocks) = store_cache_blocks_from_env(spec.block_bytes) {
        mat_opts.cache_blocks = blocks;
    }
    let mat = materialize(&dir, &spec, &mat_opts).map_err(store_err)?;
    let store = Store::open_expecting(&dir, layout_hash).map_err(store_err)?;
    let replay_opts = ReplayOptions {
        policy,
        karma_hints: hints,
        fault_plan: None,
        compute_ms_per_thread: prepared.run_cfg.compute_ms_per_thread,
        verify_content: true,
    };
    let mut obs = MetricsObserver::new();
    let measured = flo_store::replay_observed(&store, topo, &traces, &replay_opts, &mut obs)
        .map_err(store_err)?;

    let mut counters = StoreCounters {
        blocks_materialized: mat.blocks_written,
        bytes_written: mat.bytes_written,
        bytes_read: measured.bytes_read,
        evictions: mat.cache.evictions
            + measured.io_cache.evictions
            + measured.storage_cache.evictions,
        writebacks: mat.cache.writebacks,
        dirty_high_water: mat.cache.dirty_high_water,
        retries: measured.retries,
        retry_ms: measured.retry_ms,
        replay_wall_ms: measured.wall_ms,
    };
    counters.dirty_high_water = counters
        .dirty_high_water
        .max(measured.io_cache.dirty_high_water)
        .max(measured.storage_cache.dirty_high_water);
    if metrics::enabled() {
        obs.store = counters;
        // The event carries the replay's *report-convention* layer
        // stats alongside the observer's per-node counters: the two
        // accountings differ under KARMA (bypass lookups are counted
        // in the report's `CacheStats` but surface differently in
        // per-node events), and the agreement table must compare
        // like with like — these are the exact numbers the gate
        // checks against the simulated report.
        let layer = |s: &flo_sim::cache::CacheStats| {
            Json::obj().set("accesses", s.accesses).set("hits", s.hits)
        };
        metrics::record_sim(SimRecord {
            kind: "store-replay",
            app: workload.name.to_string(),
            scheme: Scheme::Inter.name(),
            policy: policy.name(),
            io_cache_blocks: topo.io_cache_blocks,
            storage_cache_blocks: topo.storage_cache_blocks,
            metrics: obs.to_json().set(
                "measured",
                Json::obj()
                    .set("io", layer(&measured.io))
                    .set("storage", layer(&measured.storage))
                    .set("disk_reads", measured.disk_reads),
            ),
            report: sim.to_json(),
        });
    }

    Ok(MeasuredPoint {
        app: workload.name.to_string(),
        policy,
        sim_io: 1.0 - sim.layers.io.miss_rate(),
        meas_io: measured.io_hit_rate(),
        sim_storage: 1.0 - sim.layers.storage.miss_rate(),
        meas_storage: measured.storage_hit_rate(),
        sim_disk: sim.disk_reads,
        meas_disk: measured.disk_reads,
        sim_exec_ms: sim.execution_time_ms,
        meas_exec_ms: measured.execution_time_ms,
        bytes_read: measured.bytes_read,
        wall_ms: measured.wall_ms,
        blocks_materialized: mat.blocks_written,
        store: counters,
    })
}

fn store_err(e: flo_store::StoreError) -> BenchError {
    BenchError::InvalidArg(format!("store: {e}"))
}

/// Run the simulated-vs-measured comparison, materializing stores under
/// `store_dir`.
pub fn run_with_dir(scale: Scale, store_dir: &Path) -> Result<FigmOutput, BenchError> {
    let topo = topology_for(scale);
    let filter = std::env::var("FLO_APPS").ok();
    let suite = suite_filtered(scale, Some(filter.as_deref().unwrap_or(DEFAULT_APPS)));
    let mut t = Table::new(
        "Fig. M — simulated vs measured hierarchy behavior on real bytes (Inter layouts)",
        &[
            "app",
            "policy",
            "io%sim",
            "io%meas",
            "Δio",
            "st%sim",
            "st%meas",
            "Δst",
            "disk sim",
            "disk meas",
            "MiB read",
            "wall ms",
        ],
    );
    let mut points = Vec::new();
    for workload in &suite {
        for policy in POLICIES {
            let p = measure_point(store_dir, workload, &topo, policy)?;
            t.row(vec![
                p.app.clone(),
                policy.name().to_string(),
                pct(p.sim_io),
                pct(p.meas_io),
                format!("{:+.1e}", p.sim_io - p.meas_io),
                pct(p.sim_storage),
                pct(p.meas_storage),
                format!("{:+.1e}", p.sim_storage - p.meas_storage),
                p.sim_disk.to_string(),
                p.meas_disk.to_string(),
                format!("{:.2}", p.bytes_read as f64 / (1024.0 * 1024.0)),
                format!("{:.1}", p.wall_ms),
            ]);
            points.push(p);
        }
    }
    let all_agree = points.iter().all(MeasuredPoint::agree);
    let worst_delta = points
        .iter()
        .map(MeasuredPoint::worst_delta)
        .fold(0.0f64, f64::max);
    t.note(format!(
        "measured runs replay the simulator's interleaved trace through real block caches and \
         verified preads; agreement gate: every delta ≤ {TOLERANCE:.0e} (worst: {worst_delta:.1e})"
    ));
    t.note("Δ columns are sim − measured; exact zeros are expected, not rounding luck");
    let doc = Json::obj()
        .set(
            "scale",
            match scale {
                Scale::Small => "small",
                Scale::Full => "full",
            },
        )
        .set("tolerance", TOLERANCE)
        .set("all_agree", all_agree)
        .set("worst_delta", worst_delta)
        .set(
            "points",
            points
                .iter()
                .map(MeasuredPoint::to_json)
                .collect::<Vec<_>>(),
        );
    Ok(FigmOutput {
        table: t,
        doc,
        all_agree,
        worst_delta,
    })
}

/// [`run_with_dir`] under the `FLO_STORE_DIR` (default `target/store`)
/// base directory.
pub fn run(scale: Scale) -> Result<FigmOutput, BenchError> {
    run_with_dir(scale, &crate::store_dir_from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn measured_agrees_with_simulated_for_every_point() {
        let dir = std::env::temp_dir().join(format!("flo-figm-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let out = run_with_dir(Scale::Small, &dir).unwrap();
        assert!(
            out.all_agree,
            "measured/simulated disagreement (worst {:.3e}):\n{}",
            out.worst_delta, out.table
        );
        // ≥4 apps × {LRU, KARMA}.
        assert!(out.table.rows.len() >= 8, "suite too small: {}", out.table);
        let points = out.doc.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), out.table.rows.len());
        for p in points {
            assert_eq!(p.get("agree").and_then(Json::as_bool), Some(true));
            assert!(p.get("bytes_read").and_then(Json::as_u64).unwrap() > 0);
        }
        // Both policies must actually exercise the disk path.
        assert!(points.iter().any(|p| p
            .get("measured_disk_reads")
            .and_then(Json::as_u64)
            .unwrap()
            > 0));
        let _ = fs::remove_dir_all(&dir);
    }
}

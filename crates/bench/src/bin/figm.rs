//! Regenerates the measurement extension: simulated vs measured
//! hierarchy behavior, with the optimized layouts materialized into a
//! real `flo-store` store and the same trace replayed through it.
//!
//! Set `FLO_SCALE=small` for a fast run, `FLO_APPS` to choose the
//! measured applications, `FLO_STORE_DIR` to relocate the stripe files,
//! and `FLO_STORE_CACHE_MB` / `FLO_STORE_WRITEBACK` to shape the
//! materializer's cache. Writes the table JSON under
//! `target/experiments/` like every figure, plus the per-point agreement
//! to `BENCH_store.json`.
//!
//! Exits nonzero when any point disagrees beyond the tolerance — this is
//! the `store-smoke` CI gate.

use flo_obs::sink::write_json_artifact;
use std::path::Path;

fn main() {
    let scale = flo_bench::scale_from_env();
    let out = flo_bench::exit_on_error(flo_bench::experiments::figm::run(scale));
    flo_bench::finish(&out.table, "figm");
    let path = Path::new("BENCH_store.json");
    match write_json_artifact(path, out.doc) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    if !out.all_agree {
        eprintln!(
            "error: measured run disagrees with simulation (worst delta {:.3e} > {:.0e})",
            out.worst_delta,
            flo_bench::experiments::figm::TOLERANCE
        );
        std::process::exit(1);
    }
}

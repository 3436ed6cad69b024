//! Regenerates the robustness extension's fault-injection experiment:
//! degradation curves across fault intensities for LRU / KARMA /
//! DEMOTE-LRU, under both the default and the optimized layouts.
//!
//! Set `FLO_SCALE=small` for a fast, test-sized run and `FLO_FAULT_SEED`
//! (decimal or `0x`-hex) to replay a specific fault schedule; the seed in
//! use is printed in the table notes. Writes the table JSON under
//! `target/experiments/` like every figure, plus the degradation curves
//! to `BENCH_fault.json`.

use flo_obs::sink::write_json_artifact;
use std::path::Path;

fn main() {
    let scale = flo_bench::scale_from_env();
    let seed = flo_bench::exit_on_error(flo_bench::fault_seed_from_env());
    let out = flo_bench::exit_on_error(flo_bench::experiments::figr::run(scale, seed));
    flo_bench::finish(&out.table, "figr");
    let path = Path::new("BENCH_fault.json");
    match write_json_artifact(path, out.doc) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

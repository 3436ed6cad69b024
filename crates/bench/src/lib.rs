//! # flo-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5). One binary per experiment:
//!
//! | binary     | reproduces                                             |
//! |------------|--------------------------------------------------------|
//! | `table1`   | Table 1 — system parameters                            |
//! | `table2`   | Table 2 — default-execution miss rates & times         |
//! | `table3`   | Table 3 — normalized misses after optimization         |
//! | `fig7a`    | Fig. 7(a) — normalized execution times                 |
//! | `fig7b`    | Fig. 7(b) — thread-to-node mappings I–IV               |
//! | `fig7c`    | Fig. 7(c) — cache-capacity sensitivity                 |
//! | `fig7d`    | Fig. 7(d) — node-count sensitivity                     |
//! | `fig7e`    | Fig. 7(e) — block-size sensitivity                     |
//! | `fig7f`    | Fig. 7(f) — layers targeted                            |
//! | `fig7g`    | Fig. 7(g) — vs computation mapping \[26\] & reindexing \[27\] |
//! | `fig7h`    | Fig. 7(h) — under KARMA \[47\] and DEMOTE-LRU \[44\]       |
//! | `optstats` | §5.1 — optimizable-array statistics & compile times    |
//! | `ablation` | extension — design-choice ablations & MQ policy \[50\]   |
//! | `calibrate`| the compute/IO calibration that fixed the workload constants |
//!
//! Each experiment function returns a [`tablefmt::Table`]; binaries print
//! it and also write JSON under `target/experiments/`. Set `FLO_SCALE=small`
//! for a fast run (test-sized workloads on a shrunken cluster).

pub mod cache;
pub mod error;
pub mod experiments;
pub mod flostat;
pub mod harness;
pub mod metrics;
pub mod tablefmt;

pub use cache::{Lru, RunCaches, DEFAULT_CACHE_MB};
pub use error::{exit_on_error, BenchError};
pub use harness::{
    run_app, run_app_cached, run_app_faulted, run_app_faulted_cached, RunOutcome, Scheme,
};
pub use tablefmt::Table;

use flo_workloads::{Scale, Workload};

/// Read the workload scale from `FLO_SCALE` (`small` or `full`, default
/// full).
pub fn scale_from_env() -> Scale {
    match std::env::var("FLO_SCALE").as_deref() {
        Ok("small") => Scale::Small,
        Ok("full") | Err(_) => Scale::Full,
        Ok(other) => {
            eprintln!("warning: unrecognized FLO_SCALE={other:?}, running full scale");
            Scale::Full
        }
    }
}

/// The workload suite at `scale`, filtered by the `FLO_APPS` env var — a
/// comma-separated list of application names (e.g.
/// `FLO_APPS=swim,qio fig7c`). Unset or empty means the full suite;
/// unrecognized names warn and are skipped, mirroring `FLO_SCALE`.
pub fn suite_from_env(scale: Scale) -> Vec<Workload> {
    suite_filtered(scale, std::env::var("FLO_APPS").ok().as_deref())
}

/// [`suite_from_env`] with the filter passed explicitly (testable).
pub fn suite_filtered(scale: Scale, filter: Option<&str>) -> Vec<Workload> {
    let suite = flo_workloads::all(scale);
    let Some(list) = filter else {
        return suite;
    };
    let wanted: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if wanted.is_empty() {
        return suite;
    }
    for name in &wanted {
        if !suite.iter().any(|w| w.name == *name) {
            let known: Vec<&str> = suite.iter().map(|w| w.name).collect();
            eprintln!(
                "warning: unrecognized FLO_APPS entry {name:?} (known: {})",
                known.join(", ")
            );
        }
    }
    let filtered: Vec<Workload> = suite
        .into_iter()
        .filter(|w| wanted.contains(&w.name))
        .collect();
    if filtered.is_empty() {
        eprintln!("warning: FLO_APPS matched no application, running the full suite");
        return flo_workloads::all(scale);
    }
    filtered
}

/// Read a cache-management policy override from `FLO_POLICY`
/// (`lru` | `demote` | `karma` | `mq`). `None` when unset; unrecognized
/// values warn and are ignored, mirroring `FLO_SCALE`.
pub fn policy_from_env() -> Option<flo_sim::PolicyKind> {
    match std::env::var("FLO_POLICY").as_deref() {
        Ok(s) => {
            let parsed = flo_sim::PolicyKind::parse(s);
            if parsed.is_none() {
                eprintln!("warning: unrecognized FLO_POLICY={s:?} (use lru|demote|karma|mq)");
            }
            parsed
        }
        Err(_) => None,
    }
}

/// Read the fault-plan seed from `FLO_FAULT_SEED` (decimal or `0x`-hex).
/// Defaults to `0xF4017` when unset; a malformed value is an error, not a
/// silent fallback — fault runs must be reproducible from their reported
/// seed.
pub fn fault_seed_from_env() -> Result<u64, BenchError> {
    match std::env::var("FLO_FAULT_SEED") {
        Err(_) => Ok(0xF4017),
        Ok(s) => {
            let t = s.trim();
            let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => t.parse::<u64>(),
            };
            parsed.map_err(|_| {
                BenchError::InvalidArg(format!(
                    "FLO_FAULT_SEED={s:?} is not a decimal or 0x-hex integer"
                ))
            })
        }
    }
}

/// The simulated cluster for a given scale: the paper topology for full
/// runs, a proportionally shrunken one (8 compute / 4 I/O / 2 storage) for
/// small runs.
pub fn topology_for(scale: Scale) -> flo_sim::Topology {
    match scale {
        Scale::Full => flo_sim::Topology::paper_default(),
        Scale::Small => flo_sim::Topology {
            compute_nodes: 8,
            io_nodes: 4,
            storage_nodes: 2,
            io_cache_blocks: 24,
            storage_cache_blocks: 48,
            block_elems: 16,
            cache_ways: 8,
        },
    }
}

/// Write an experiment table to `target/experiments/<name>.json` (best
/// effort; failures are reported but not fatal).
pub fn persist(table: &Table, name: &str) {
    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, table.to_json().pretty()) {
        eprintln!("warning: cannot write {path:?}: {e}");
    }
}

/// Standard experiment epilogue: print the table, persist its JSON, and
/// — when `FLO_METRICS=jsonl` — drain the harness's collected metrics
/// and phase spans into `results/metrics/<name>.jsonl`. Stdout carries
/// the table alone; artifact notices go to stderr.
pub fn finish(table: &Table, name: &str) {
    println!("{table}");
    persist(table, name);
    if let Some(path) = metrics::write_artifact(name) {
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_topology_is_consistent() {
        let t = topology_for(Scale::Small);
        t.validate().unwrap();
        assert_eq!(t.compute_per_io(), 2);
    }

    #[test]
    fn fault_seed_parses_decimal_and_hex() {
        // Serialize around the env var: cargo runs tests concurrently.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        std::env::remove_var("FLO_FAULT_SEED");
        assert_eq!(fault_seed_from_env().unwrap(), 0xF4017);
        std::env::set_var("FLO_FAULT_SEED", "12345");
        assert_eq!(fault_seed_from_env().unwrap(), 12345);
        std::env::set_var("FLO_FAULT_SEED", "0xBEEF");
        assert_eq!(fault_seed_from_env().unwrap(), 0xBEEF);
        std::env::set_var("FLO_FAULT_SEED", "nonsense");
        assert!(fault_seed_from_env().is_err());
        std::env::remove_var("FLO_FAULT_SEED");
    }

    #[test]
    fn full_topology_is_paper_default() {
        assert_eq!(
            topology_for(Scale::Full),
            flo_sim::Topology::paper_default()
        );
    }

    #[test]
    fn flo_apps_filter_selects_named_apps() {
        let full = suite_filtered(Scale::Small, None);
        let picked = suite_filtered(Scale::Small, Some("qio, swim"));
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().any(|w| w.name == "qio"));
        assert!(picked.iter().any(|w| w.name == "swim"));
        // Unrecognized-only filters warn and fall back to the full suite.
        let fallback = suite_filtered(Scale::Small, Some("nosuchapp"));
        assert_eq!(fallback.len(), full.len());
        // Empty filters are no filters.
        assert_eq!(suite_filtered(Scale::Small, Some("")).len(), full.len());
    }
}

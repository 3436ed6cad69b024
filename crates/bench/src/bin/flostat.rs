//! `flostat` — inspect and compare the JSONL metrics artifacts the
//! harness writes under `results/metrics/` when `FLO_METRICS=jsonl`.
//!
//! ```text
//! flostat show results/metrics/fig7c.jsonl
//! flostat diff results/metrics/fig7c.jsonl results/metrics/fig7c-karma.jsonl
//! ```
//!
//! `show` prints per-layer statistics (hit ratios, disk reads,
//! sequential fraction) for every simulated configuration plus a phase
//! summary of the run's spans. For `flod` artifacts it adds the served
//! request table (per-stage means) and, when events carry trace ids,
//! the slowest traced requests with their stage-by-stage critical
//! paths. `diff` lines up two artifacts by
//! (application, scheme, capacities) — the policy may differ, that is
//! the point of an A/B run — and prints per-layer hit-ratio and
//! phase-time deltas.

use flo_bench::flostat::{
    diff_layers, diff_phases, fault_table, health_table, layer_table, load, phase_table,
    serve_table, trace_table, Artifact,
};
use std::process::ExitCode;

fn read_artifact(path: &str) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    load(&text).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!("usage: flostat show <metrics.jsonl>");
    eprintln!("       flostat diff <a.jsonl> <b.jsonl>");
    eprintln!("       flostat health <snapshot.json>   (saved `floq telemetry --cluster` output)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<(), String> {
        match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["show", path] => {
                let art = read_artifact(path)?;
                print!("{}", layer_table(&art));
                if art.sims.iter().any(|s| s.faults.any()) {
                    println!();
                    print!("{}", fault_table(&art));
                }
                if !art.serves.is_empty() {
                    println!();
                    print!("{}", serve_table(&art));
                }
                if !art.traces.is_empty() {
                    println!();
                    print!("{}", trace_table(&art, 10));
                }
                println!();
                print!("{}", phase_table(&art));
                Ok(())
            }
            ["diff", a, b] => {
                let (a, b) = (read_artifact(a)?, read_artifact(b)?);
                print!("{}", diff_layers(&a, &b));
                println!();
                print!("{}", diff_phases(&a, &b));
                Ok(())
            }
            ["health", path] => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let snap = flo_json::parse(text.trim()).map_err(|e| format!("{path}: {e:?}"))?;
                match health_table(&snap) {
                    Some(t) => print!("{t}"),
                    None => println!(
                        "{path}: no client_health section (not a cluster telemetry snapshot?)"
                    ),
                }
                Ok(())
            }
            _ => Err("bad arguments".to_string()),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e == "bad arguments" => usage(),
        Err(e) => {
            eprintln!("flostat: {e}");
            ExitCode::FAILURE
        }
    }
}

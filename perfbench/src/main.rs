//! `perfbench` — the repository benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline|sweep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the reference tables are read from
//! `results/`). Progress and diagnostics go to stderr; the last stdout
//! line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! with `--trace 1` the per-layer ones from a recomposed (traced) pass
//! over the same op list. See `perfbench/README.md`.
//!
//! With `--setup-probe 1` the process only builds the workload's set-up,
//! prints `ready` and exits: the runs time their `setup_s` samples on
//! such probes.

mod pipeline;
mod serve;
mod stats;
mod sweep;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Build the set-up, report ready and exit (see `stats::probe_setup`).
    pub setup_probe: bool,
}

/// What one workload run reports.
pub struct Outcome {
    /// Ops attempted: cells, rows or requests.
    pub attempted: u64,
    /// Ops that failed or did not match their reference.
    pub failed: u64,
    /// Measured metrics by name (units come from the tables below).
    pub metrics: Vec<(&'static str, f64)>,
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("sim.simulate.calls", "count"),
    ("sim.simulate.ms", "ms"),
    ("sim.simulate.entries", "count"),
    ("sim.simulate.ns_per_entry", "ns"),
    ("sim.interleave.ms", "ms"),
    ("bench.karma_hints.calls", "count"),
    ("bench.karma_hints.ms", "ms"),
    ("core.tracegen.calls", "count"),
    ("core.tracegen.ms", "ms"),
    ("core.tracegen.entries", "count"),
    ("core.tracegen.ns_per_entry", "ns"),
    ("core.pass.calls", "count"),
    ("core.pass.ms", "ms"),
    ("sim.sweep.calls", "count"),
    ("sim.sweep.ms", "ms"),
    ("sim.sweep.points", "count"),
    ("sim.sweep.ns_per_entry", "ns"),
    ("serve.hot.lat_p50_ms", "ms"),
    ("serve.hot.lat_p99_ms", "ms"),
    ("serve.cold.lat_p50_ms", "ms"),
    ("serve.cold.lat_p99_ms", "ms"),
    ("serve.exec.warm_us", "us"),
    ("serve.exec.miss_ms", "ms"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.executions", "count"),
    ("serve.dedups", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut setup_probe) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v:?} is not an integer"))
        };
        let bit = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} {v:?} is not 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(int(&value)?),
            "--seconds" => seconds = Some(int(&value)?.max(1)),
            "--trace" => trace = Some(bit(&value)?),
            "--setup-probe" => setup_probe = Some(bit(&value)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_probe: setup_probe.unwrap_or(false),
    })
}

/// The result line: every declared metric of the mode, in table order.
fn render(args: &Args, out: &Outcome) -> Result<String, String> {
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &out.metrics {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!("metric {name} is not declared for this mode"));
        }
    }
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = match out.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn main() {
    // Measure the program as shipped: no `FLO_*` override from the
    // caller's environment may reach it (the serve node must be
    // configured as `flod` is with none set). Single-threaded here.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FLO_") {
            std::env::remove_var(&key);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload pipeline|sweep|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        let probed = match args.workload.as_str() {
            "pipeline" => pipeline::probe(),
            "sweep" => sweep::probe(),
            "serve" => serve::probe(&args),
            other => Err(format!("unknown workload {other:?}")),
        };
        if let Err(e) = probed {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = match args.workload.as_str() {
        "pipeline" => pipeline::run(&args),
        "sweep" => sweep::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload {other:?} (pipeline|sweep|serve)")),
    };
    match outcome.and_then(|o| render(&args, &o)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = flo_json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 3, 10, true)
        );
        assert!(args("--workload serve --seed x --seconds 10").is_err());
        assert!(args("--workload serve --seconds 10").is_err());
        assert!(args("--workload serve --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload serve --seed 1 --seconds 10 --bogus 1").is_err());
        let p = args("--workload sweep --seed 1 --seconds 10 --trace 0 --setup-probe 1").unwrap();
        assert!(p.setup_probe && !p.trace);
        assert!(
            !args("--workload sweep --seed 1 --seconds 10")
                .unwrap()
                .setup_probe
        );
    }
}

//! `floq` — command-line client for `flod`.
//!
//! ```text
//! floq ping
//! floq stats
//! floq layout   --app qio  --scale small --target both
//! floq simulate --app swim --scale small --scheme inter --policy karma
//! floq simulate --app qio  --fault-seed 7 --fault-intensity 1.0
//! floq sweep    --app sar  --points 24:48,48:96 --policy lru
//! floq shutdown
//! ```
//!
//! The daemon address comes from `--socket PATH` / `--tcp ADDR`, then
//! `FLO_LISTEN`, then the default socket. `--direct` skips the daemon
//! and executes the request in-process over a fresh cache — the result
//! JSON is byte-identical to the served one, which is what the CI smoke
//! job compares. The result (or a typed error) prints to stdout as one
//! compact JSON line.
//!
//! `--pipeline N` sends the request N times on one connection without
//! waiting between sends and prints the N results in request order (one
//! line each) — the client-side face of the server's pipelining.
//! Without `--pipeline` the request goes out once, on the same path. A
//! typed `busy` response is printed as the error it is; nothing retries
//! it. `FLO_SEED` seeds the trace ids (and, in cluster mode, the breaker
//! probe jitter), so a replay sends the same ids.
//!
//! `--cluster FILE` (or `FLO_CLUSTER=FILE` when no explicit address is
//! given) turns on cluster mode: work requests route to the member the
//! consistent-hash ring says owns their work key, while `ping` / `stats`
//! / `shutdown` fan out to every member and print one aggregate JSON
//! line (`{"nodes": [...], "totals": {...}}` for stats). An unreachable
//! member's work keys fail over to its ring successors
//! (`FLO_FALLBACKS`, default 2); with `FLO_FALLBACKS=0`, or once every
//! fallback is down too, they fail with the typed `node-down` error. In
//! fan-out output a down member is an inline per-node `error` entry.

use flo_core::TargetLayers;
use flo_serve::client::DEFAULT_WINDOW;
use flo_serve::protocol::{parse_scheme, FaultSpec, Request, ServeError};
use flo_serve::{Client, ClusterClient, Listen, Membership, Service};
use flo_sim::{PolicyKind, SweepPoint};
use flo_workloads::Scale;

struct Args {
    listen: Option<Listen>,
    cluster: Option<String>,
    direct: bool,
    deadline_ms: Option<u64>,
    pipeline: usize,
    prometheus: bool,
    kind: String,
    app: Option<String>,
    scale: Scale,
    scheme: flo_bench::Scheme,
    policy: PolicyKind,
    target: TargetLayers,
    fault_seed: Option<u64>,
    fault_intensity: f64,
    points: Vec<SweepPoint>,
}

fn usage() -> ! {
    eprintln!(
        "usage: floq [--socket PATH | --tcp ADDR | --cluster FILE] [--direct] [--deadline-ms N] [--pipeline N] KIND [options]
  KIND: ping | stats | telemetry | shutdown | layout | simulate | sweep
  --cluster FILE        membership file; route work keys across nodes, fan out control
                        requests (FLO_CLUSTER=FILE is the env equivalent)
  --pipeline N          send the request N times pipelined on one connection
  --prometheus          render a telemetry snapshot as Prometheus text instead of JSON
  env FLO_SEED=N        seed trace ids (and cluster breaker probe jitter) for exact replay
  --app NAME            application (layout/simulate/sweep)
  --scale small|full    workload scale (default small)
  --scheme NAME         default|inter|compmap|reindex (default inter)
  --policy NAME         lru|demote|karma|mq (default lru)
  --target io|storage|both   layout target layers (default both)
  --fault-seed N        enable fault injection with this seed
  --fault-intensity X   fault intensity (default 1.0)
  --points IO:ST,...    sweep capacity points"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        cluster: None,
        direct: false,
        deadline_ms: None,
        pipeline: 1,
        prometheus: false,
        kind: String::new(),
        app: None,
        scale: Scale::Small,
        scheme: flo_bench::Scheme::Inter,
        policy: PolicyKind::LruInclusive,
        target: TargetLayers::Both,
        fault_seed: None,
        fault_intensity: 1.0,
        points: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("floq: {flag} needs a value");
            std::process::exit(2)
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => args.listen = Some(Listen::Unix(need(&mut it, "--socket").into())),
            "--tcp" => args.listen = Some(Listen::Tcp(need(&mut it, "--tcp"))),
            "--cluster" => args.cluster = Some(need(&mut it, "--cluster")),
            "--direct" => args.direct = true,
            "--prometheus" => args.prometheus = true,
            "--deadline-ms" => {
                args.deadline_ms = Some(parse_num(&need(&mut it, "--deadline-ms"), "--deadline-ms"))
            }
            "--pipeline" => {
                args.pipeline =
                    parse_num(&need(&mut it, "--pipeline"), "--pipeline").max(1) as usize
            }
            "--app" => args.app = Some(need(&mut it, "--app")),
            "--scale" => {
                args.scale = match need(&mut it, "--scale").as_str() {
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => die(&format!("unknown scale {other:?}")),
                }
            }
            "--scheme" => {
                let s = need(&mut it, "--scheme");
                args.scheme =
                    parse_scheme(&s).unwrap_or_else(|| die(&format!("unknown scheme {s:?}")));
            }
            "--policy" => {
                let p = need(&mut it, "--policy");
                args.policy =
                    PolicyKind::parse(&p).unwrap_or_else(|| die(&format!("unknown policy {p:?}")));
            }
            "--target" => {
                args.target = match need(&mut it, "--target").as_str() {
                    "io" => TargetLayers::IoOnly,
                    "storage" => TargetLayers::StorageOnly,
                    "both" => TargetLayers::Both,
                    other => die(&format!("unknown target {other:?}")),
                }
            }
            "--fault-seed" => {
                args.fault_seed = Some(parse_num(&need(&mut it, "--fault-seed"), "--fault-seed"))
            }
            "--fault-intensity" => {
                let v = need(&mut it, "--fault-intensity");
                args.fault_intensity = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad intensity {v:?}")));
            }
            "--points" => {
                for part in need(&mut it, "--points").split(',') {
                    let Some((io, st)) = part.split_once(':') else {
                        die(&format!("bad point {part:?} (want IO:ST)"))
                    };
                    args.points.push(SweepPoint {
                        io_cache_blocks: parse_num(io, "--points") as usize,
                        storage_cache_blocks: parse_num(st, "--points") as usize,
                    });
                }
            }
            "--help" | "-h" => usage(),
            kind if !kind.starts_with('-') && args.kind.is_empty() => args.kind = kind.to_string(),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if args.kind.is_empty() {
        usage();
    }
    args
}

fn parse_num(s: &str, flag: &str) -> u64 {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: {s:?} is not an integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("floq: {msg}");
    std::process::exit(2)
}

fn build_request(args: &Args) -> Request {
    let app = || {
        args.app
            .clone()
            .unwrap_or_else(|| die("this request kind needs --app"))
    };
    match args.kind.as_str() {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "telemetry" => Request::Telemetry,
        "shutdown" => Request::Shutdown,
        "layout" => Request::Layout {
            app: app(),
            scale: args.scale,
            target: args.target,
        },
        "simulate" => Request::Simulate {
            app: app(),
            scale: args.scale,
            scheme: args.scheme,
            policy: args.policy,
            fault: args.fault_seed.map(|seed| FaultSpec {
                seed,
                intensity: args.fault_intensity,
            }),
        },
        "sweep" => {
            if args.points.is_empty() {
                die("sweep needs --points IO:ST,...");
            }
            Request::Sweep {
                app: app(),
                scale: args.scale,
                scheme: args.scheme,
                policy: args.policy,
                points: args.points.clone(),
            }
        }
        other => die(&format!("unknown request kind {other:?}")),
    }
}

/// The membership for cluster mode: `--cluster FILE` always wins; the
/// `FLO_CLUSTER` env var applies only when no explicit single-node
/// address (`--socket` / `--tcp`) or `--direct` was given, so those
/// flags keep meaning what they always meant under a cluster-configured
/// environment.
fn cluster_membership(args: &Args) -> Option<Membership> {
    if let Some(path) = &args.cluster {
        return Some(
            Membership::load(std::path::Path::new(path)).unwrap_or_else(|e| die(&e.to_string())),
        );
    }
    if args.direct || args.listen.is_some() {
        return None;
    }
    match Membership::from_env() {
        Some(Ok(m)) => Some(m),
        Some(Err(e)) => die(&e.to_string()),
        None => None,
    }
}

/// Fan a control request out to every member and fold the answers into
/// one JSON object: `nodes` (per-member payloads, down members as inline
/// typed `error` entries) plus, for `stats`, `totals` (gauges summed
/// across members; `max_conn_inflight` takes the max — a high-water
/// mark does not add; per-kind `latency` histograms merge bucket-wise
/// via [`flo_obs::Hist::merge`], so the cluster totals carry real
/// distribution quantiles, not sums of per-node quantiles). Returns the
/// aggregate and whether any member failed.
fn fan_out_cluster(
    cc: &mut ClusterClient,
    req: &Request,
    deadline_ms: Option<u64>,
) -> (flo_json::Json, bool) {
    use flo_json::Json;
    use flo_obs::Hist;
    const SUMMED: [&str; 7] = [
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "cache_used_bytes",
        "queue_depth",
        "inflight",
        "connections",
    ];
    let mut nodes: Vec<Json> = Vec::new();
    let mut failed = false;
    let mut sums = [0u64; 7];
    let mut max_infl = 0u64;
    let mut have_totals = false;
    let mut latency: Vec<(String, Hist)> = Vec::new();
    for (id, result) in cc.fan_out(req, deadline_ms) {
        match result {
            Ok(j) => {
                for (i, k) in SUMMED.iter().enumerate() {
                    if let Some(v) = j.get(k).and_then(Json::as_u64) {
                        sums[i] += v;
                        have_totals = true;
                    }
                }
                if let Some(v) = j.get("max_conn_inflight").and_then(Json::as_u64) {
                    max_infl = max_infl.max(v);
                }
                if let Some(Json::Obj(kinds)) = j.get("latency") {
                    for (kind, hj) in kinds {
                        if let Some(h) = Hist::from_json(hj) {
                            match latency.iter_mut().find(|(k, _)| k == kind) {
                                Some((_, acc)) => acc.merge(&h),
                                None => latency.push((kind.clone(), h)),
                            }
                        }
                    }
                }
                nodes.push(match j.get("node") {
                    Some(_) => j,
                    None => j.set("node", id),
                });
            }
            Err(e) => {
                failed = true;
                nodes.push(
                    Json::obj().set("node", id).set(
                        "error",
                        Json::obj()
                            .set("kind", e.kind())
                            .set("message", e.to_string()),
                    ),
                );
            }
        }
    }
    let mut out = Json::obj().set("nodes", nodes);
    if have_totals {
        let mut totals = Json::obj();
        for (i, k) in SUMMED.iter().enumerate() {
            totals = totals.set(k, sums[i]);
        }
        totals = totals.set("max_conn_inflight", max_infl);
        if !latency.is_empty() {
            latency.sort_by(|a, b| a.0.cmp(&b.0));
            let mut merged = Json::obj();
            for (kind, h) in &latency {
                merged = merged.set(kind, h.to_json());
            }
            totals = totals.set("latency", merged);
        }
        out = out.set("totals", totals);
    }
    (out, failed)
}

fn main() {
    let args = parse_args();
    let req = build_request(&args);
    let copies: Vec<Request> = (0..args.pipeline).map(|_| req.clone()).collect();
    if let Some(membership) = cluster_membership(&args) {
        let mut cc = ClusterClient::new(membership);
        let results = match req {
            Request::Telemetry => {
                let (out, failed) = cc.telemetry_snapshot(args.deadline_ms);
                if args.prometheus {
                    let merged = out.get("merged").unwrap_or(&out);
                    print!("{}", flo_obs::render_prometheus(merged));
                } else {
                    println!("{out}");
                }
                std::process::exit(i32::from(failed));
            }
            Request::Ping | Request::Stats | Request::Shutdown => {
                let (out, failed) = fan_out_cluster(&mut cc, &req, args.deadline_ms);
                println!("{out}");
                std::process::exit(i32::from(failed));
            }
            _ => cc.call_many(&copies, args.deadline_ms, DEFAULT_WINDOW),
        };
        finish(results, args.prometheus);
    }
    let results: Vec<Result<flo_json::Json, ServeError>> = if args.direct {
        // In-process: the served result must be byte-identical to this.
        let service = Service::from_env();
        copies.iter().map(|r| service.execute(r)).collect()
    } else {
        let listen = args
            .listen
            .clone()
            .unwrap_or_else(|| match std::env::var("FLO_LISTEN") {
                Ok(s) if !s.trim().is_empty() => Listen::parse(s.trim()),
                _ => Listen::default_socket(),
            });
        match Client::connect(&listen) {
            Ok(mut client) => match client.call_pipelined(&copies, args.deadline_ms) {
                Ok(rs) => rs,
                Err(e) => vec![Err(e)],
            },
            Err(e) => vec![Err(ServeError::Internal(format!(
                "cannot connect to {}: {e}",
                listen.describe()
            )))],
        }
    };
    finish(results, args.prometheus);
}

fn finish(results: Vec<Result<flo_json::Json, ServeError>>, prometheus: bool) -> ! {
    let mut failed = false;
    for result in results {
        match result {
            Ok(json) if prometheus => print!("{}", flo_obs::render_prometheus(&json)),
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("floq: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}

//! `servebench` — measures what the shared cross-request cache buys,
//! and what a crowd of idle connections costs.
//!
//! Runs the same mixed request batch against an in-process `flod` (over
//! a temp Unix socket, with concurrent clients):
//!
//! * **cold** — cache budget 0, so the service retains nothing and every
//!   request recomputes (the no-shared-cache baseline);
//! * **warm** — the normal budget, so repeated keys are served from the
//!   shared cache after their first computation;
//! * **hc** (high-concurrency, when `--clients` ≥ 32) — the warm batch
//!   again, but under `--clients` total connections: a hot minority of
//!   at most 16 issues the requests while the rest sit connected and
//!   idle after one `ping`, parked in the readiness loop. On the old
//!   thread-per-connection server this phase starved; on the event loop
//!   the idle crowd is near-free, which `--hc-gate` enforces.
//!
//! Responses must be byte-identical across all phases (determinism is
//! the contract that makes the cache safe; see DESIGN.md §2.9). The
//! aggregate throughputs are written to `BENCH_serve.json`; with
//! `--gate X` the run fails unless the warm/cold speedup reaches `X`,
//! and with `--hc-gate Y` unless hc throughput reaches `Y`× warm (the
//! CI serve-smoke job gates at 2.0 and 0.9).
//!
//! ```text
//! servebench [--repeats N] [--clients N] [--workers N] [--gate X] [--hc-gate Y]
//!            [--telemetry-gate Z]
//! servebench --cluster N [--cluster-gate X] [--node-budget-mb B] [--repeats R]
//! servebench --chaos N [--chaos-gate X] [--node-budget-mb B] [--repeats R]
//! ```
//!
//! Every phase also records the *client-observed* per-request latency
//! distribution (each `call` timed at the caller) into the JSON
//! artifacts as p50/p95/p99 — the round-trip numbers to hold against
//! the server's own stage telemetry. A separate experiment re-runs the
//! warm phase with the telemetry accumulator on and off (best-of-3 per
//! side, interleaved) and writes the throughput ratio to
//! `BENCH_telemetry.json`; `--telemetry-gate Z` fails the run if the
//! on/off ratio drops below `Z` (CI gates at 0.97).
//!
//! **Cluster mode** (`--cluster N`) measures *capacity* scaling: it
//! launches 1→N in-process flod nodes, each with a deliberately small
//! per-node cache budget (`--node-budget-mb`), and drives a layout
//! working set sized to overflow one node's budget but fit the combined
//! budget of N nodes. With one node the cyclically scanned working set
//! thrashes its LRU slice and every request recomputes the layout pass;
//! with N nodes the consistent-hash ring gives each node only its owned
//! ~1/N of the keys, everything stays resident, and requests are
//! answered inline from the event thread as cached-byte splices (no
//! worker handoff). Warm throughput therefore scales with total
//! cluster cache capacity (N × budget) — the honest scaling story on a
//! single-core host, where CPU-parallel scaling is unavailable by
//! construction. Every response, hit or recompute, must stay
//! byte-identical to in-process `Service::execute`; results land in
//! `BENCH_cluster.json` and `--cluster-gate X` fails the run below X×.
//!
//! **Chaos mode** (`--chaos N [--chaos-gate X]`) is the resilience
//! harness: it launches N in-process nodes, drives a mixed workload
//! (simulate + faulted simulate + layout, ≥8 keys per kind so the
//! client's per-kind latency histograms arm the batch black-hole
//! timeout), then executes a *seeded* fault schedule — abrupt kill +
//! restart of one node, SIGSTOP-style stall + resume of another, both
//! chosen by xorshift64* off `FLO_SEED` (default 42) so the entire run
//! replays bit-identically. Through every phase each response must stay
//! byte-identical to direct `Service::execute` and zero routed requests
//! may surface a node-down error — the ring-successor failover, the
//! read deadline and the circuit breakers (DESIGN.md §2.12) must absorb
//! the churn. Results land in `BENCH_chaos.json`;
//! `--chaos-gate X` fails the run if mid-outage throughput drops below
//! X× warm or post-rejoin throughput below 0.8× warm (CI chaos-smoke
//! gates at 0.5).

use flo_core::TargetLayers;
use flo_obs::sink::write_json_artifact;
use flo_obs::Hist;
use flo_serve::client::DEFAULT_WINDOW;
use flo_serve::protocol::{FaultSpec, Request};
use flo_serve::{
    server, signal, CircuitState, Client, ClusterClient, Listen, Member, Membership, Resilience,
    ServeError, ServerConfig, ServerControl, Service,
};
use flo_sim::PolicyKind;
use flo_workloads::Scale;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--clients` at or past this threshold turns on the hc phase; below
/// it the flag just sets the hot-client count, as it always did.
const HC_THRESHOLD: usize = 32;
/// Hot clients in the hc phase — the working minority.
const HC_HOT: usize = 16;

struct Opts {
    repeats: usize,
    clients: usize,
    workers: usize,
    budget_mb: usize,
    gate: Option<f64>,
    hc_gate: Option<f64>,
    cluster: Option<usize>,
    cluster_gate: Option<f64>,
    node_budget_mb: usize,
    telemetry_gate: Option<f64>,
    chaos: Option<usize>,
    chaos_gate: Option<f64>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        repeats: 6,
        clients: 4,
        workers: 4,
        budget_mb: 256,
        gate: None,
        hc_gate: None,
        cluster: None,
        cluster_gate: None,
        // Sized so one node's response-cache slice thrashes under the
        // ~5.7 MB cluster working set while the 4-node union holds it
        // whole (per-node slice = budget/16 = 3 MiB; see
        // `run_cluster_bench`).
        node_budget_mb: 48,
        telemetry_gate: None,
        chaos: None,
        chaos_gate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("servebench: {flag} needs a value");
                std::process::exit(2)
            })
        };
        match a.as_str() {
            "--repeats" => opts.repeats = val("--repeats").parse().expect("--repeats"),
            "--clients" => opts.clients = val("--clients").parse().expect("--clients"),
            "--workers" => opts.workers = val("--workers").parse().expect("--workers"),
            "--budget-mb" => opts.budget_mb = val("--budget-mb").parse().expect("--budget-mb"),
            "--gate" => opts.gate = Some(val("--gate").parse().expect("--gate")),
            "--hc-gate" => opts.hc_gate = Some(val("--hc-gate").parse().expect("--hc-gate")),
            "--cluster" => opts.cluster = Some(val("--cluster").parse().expect("--cluster")),
            "--cluster-gate" => {
                opts.cluster_gate = Some(val("--cluster-gate").parse().expect("--cluster-gate"))
            }
            "--node-budget-mb" => {
                opts.node_budget_mb = val("--node-budget-mb").parse().expect("--node-budget-mb")
            }
            "--telemetry-gate" => {
                opts.telemetry_gate =
                    Some(val("--telemetry-gate").parse().expect("--telemetry-gate"))
            }
            "--chaos" => opts.chaos = Some(val("--chaos").parse().expect("--chaos")),
            "--chaos-gate" => {
                opts.chaos_gate = Some(val("--chaos-gate").parse().expect("--chaos-gate"))
            }
            other => {
                eprintln!("servebench: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The repeated-key batch: a few applications under two schemes, each
/// requested `repeats` times — exactly the shape a sweep-running client
/// fleet produces, and the shape the shared cache exists for.
fn batch(repeats: usize) -> Vec<Request> {
    let apps = ["qio", "swim", "s3asim"];
    let schemes = [flo_bench::Scheme::Default, flo_bench::Scheme::Inter];
    let mut reqs = Vec::new();
    for _ in 0..repeats {
        for app in apps {
            for scheme in schemes {
                reqs.push(Request::Simulate {
                    app: app.to_string(),
                    scale: Scale::Small,
                    scheme,
                    policy: PolicyKind::LruInclusive,
                    fault: None,
                });
            }
        }
    }
    reqs
}

/// Serve `requests` from `hot` concurrent connections — plus `idle`
/// extra connections that ping once and then sit parked for the whole
/// phase — against a fresh server whose caches hold `budget_bytes`.
/// Returns the wall time of the hot-client phase, every response
/// (indexed like `requests`), and the client-observed per-request
/// latency distribution (each call timed at the caller, in µs — the
/// whole round trip, not the server's view of itself).
fn run_phase(
    budget_bytes: usize,
    workers: usize,
    hot: usize,
    idle: usize,
    listen: &Listen,
    requests: &[Request],
    telemetry: bool,
) -> (f64, Vec<String>, Hist) {
    signal::reset();
    let cfg = ServerConfig {
        listen: listen.clone(),
        workers,
        queue_capacity: workers * 8,
        run_name: "servebench".to_string(),
        telemetry,
        ..ServerConfig::default()
    };
    let service = Arc::new(Service::with_budget(budget_bytes));
    let server = {
        let cfg = cfg.clone();
        std::thread::spawn(move || server::run(&cfg, service))
    };
    // Wait for the bind before starting the clock.
    Client::connect_retry(listen, Duration::from_secs(10)).expect("daemon did not come up");
    // The idle crowd: each connects, proves liveness with one ping, and
    // then just *exists* — no thread per connection here either; the
    // parked sockets live in the server's poller until this Vec drops.
    let idles: Vec<Client> = (0..idle)
        .map(|_| {
            let mut c = Client::connect(listen).expect("idle connect");
            c.call(&Request::Ping, None).expect("idle ping");
            c
        })
        .collect();
    let started = Instant::now();
    let (responses, latency): (Vec<(usize, String)>, Hist) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..hot)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(listen).expect("client connect");
                    let mut got = Vec::new();
                    let mut lat = Hist::new();
                    for (i, req) in requests.iter().enumerate() {
                        if i % hot != c {
                            continue;
                        }
                        let t0 = Instant::now();
                        let result = client
                            .call(req, None)
                            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
                        lat.record(t0.elapsed().as_micros() as u64);
                        got.push((i, result.to_string()));
                    }
                    (got, lat)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut merged = Hist::new();
        for h in handles {
            let (got, lat) = h.join().expect("client thread");
            all.extend(got);
            merged.merge(&lat);
        }
        (all, merged)
    });
    let elapsed = started.elapsed().as_secs_f64();
    drop(idles);
    let mut client = Client::connect(listen).expect("shutdown connect");
    client.call(&Request::Shutdown, None).expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("server exited with an error");
    let mut ordered = vec![String::new(); requests.len()];
    for (i, r) in responses {
        ordered[i] = r;
    }
    (elapsed, ordered, latency)
}

/// The cluster working set: every small-scale application under every
/// layout target. Layout is the right contrast workload because it has
/// no compact [`flo_bench::RunCaches`] memo — once the rendered result
/// falls out of the LRU, serving the key means rerunning the whole
/// Step-I layout pass, not just re-serializing a cached report.
fn layout_batch() -> Vec<Request> {
    let targets = [
        TargetLayers::IoOnly,
        TargetLayers::StorageOnly,
        TargetLayers::Both,
    ];
    let mut reqs = Vec::new();
    for w in flo_workloads::all(Scale::Small) {
        for target in targets {
            reqs.push(Request::Layout {
                app: w.name.to_string(),
                scale: Scale::Small,
                target,
            });
        }
    }
    // A slice of full-scale keys from the apps whose layout pass costs
    // the most *per response byte* (dense access graphs, compact file
    // sets). They raise the miss/hit cost ratio — the quantity the
    // capacity-scaling phases actually contrast — without blowing up
    // either the working set or the cold-phase runtime.
    for app in ["cc-ver-1", "s3asim", "twer"] {
        for target in targets {
            reqs.push(Request::Layout {
                app: app.to_string(),
                scale: Scale::Full,
                target,
            });
        }
    }
    reqs
}

/// One cluster phase: `n` in-process nodes, each with its own service
/// and `budget_bytes` cache, driven through a [`ClusterClient`] for one
/// populate round plus `rounds` timed rounds over `keys`. Returns the
/// timed-round wall time and whether every response matched `expected`.
fn run_cluster_phase(
    n: usize,
    budget_bytes: usize,
    rounds: usize,
    keys: &[Request],
    expected: &[String],
) -> (f64, bool, Hist) {
    signal::reset();
    let pid = std::process::id();
    let members: Vec<Member> = (0..n)
        .map(|i| Member {
            id: format!("n{i}"),
            listen: Listen::Unix(
                std::env::temp_dir().join(format!("flod-cluster-{pid}-{n}-{i}.sock")),
            ),
        })
        .collect();
    let servers: Vec<_> = members
        .iter()
        .map(|m| {
            let cfg = ServerConfig {
                listen: m.listen.clone(),
                workers: 2,
                // Comfortably above the pipelining window so a routed
                // burst can never bounce off queue backpressure as
                // `busy` (nothing retries a `busy` answer).
                queue_capacity: 4 * DEFAULT_WINDOW,
                run_name: format!("servebench-cluster-{}", m.id),
                node_id: m.id.clone(),
                ..ServerConfig::default()
            };
            let service = Arc::new(Service::with_budget(budget_bytes));
            std::thread::spawn(move || server::run(&cfg, service))
        })
        .collect();
    for m in &members {
        Client::connect_retry(&m.listen, Duration::from_secs(10)).expect("node did not come up");
    }
    let mut cc = ClusterClient::with_resilience(Membership { members }, 1, Resilience::from_env());
    let mut identical = true;
    let mut check = |answers: Vec<Result<Vec<u8>, flo_serve::ServeError>>| {
        for (i, a) in answers.into_iter().enumerate() {
            match a.and_then(|bytes| flo_serve::client::decode_envelope_bytes(&bytes)) {
                Ok(j) if j.to_string() == expected[i] => {}
                Ok(_) => {
                    eprintln!("servebench: FAIL — response {i} differs from direct execution");
                    identical = false;
                }
                Err(e) => {
                    eprintln!("servebench: FAIL — request {i}: {e}");
                    identical = false;
                }
            }
        }
    };
    check(cc.call_many_raw(keys, None, DEFAULT_WINDOW));
    // Timed rounds collect raw envelope frames; decoding, rendering and
    // comparison all run after the clock stops — verification is a
    // bench-harness cost, not served throughput.
    let mut collected = Vec::with_capacity(rounds);
    let started = Instant::now();
    for _ in 0..rounds {
        collected.push(cc.call_many_raw(keys, None, DEFAULT_WINDOW));
    }
    let elapsed = started.elapsed().as_secs_f64();
    for answers in collected {
        check(answers);
    }
    // One unpipelined round with each call timed at the client — the
    // per-request latency distribution the pipelined throughput rounds
    // cannot see (a batched frame's wait includes its queue neighbours).
    let mut latency = Hist::new();
    for (i, req) in keys.iter().enumerate() {
        let t0 = Instant::now();
        match cc.call(req, None) {
            Ok(j) if j.to_string() == expected[i] => {
                latency.record(t0.elapsed().as_micros() as u64)
            }
            Ok(_) => {
                eprintln!("servebench: FAIL — latency-round response {i} differs");
                identical = false;
            }
            Err(e) => {
                eprintln!("servebench: FAIL — latency-round request {i}: {e}");
                identical = false;
            }
        }
    }
    // One shutdown drains every node: in-process servers share the
    // global drain flag (which is also why each phase starts with
    // `signal::reset`).
    let _ = cc.call_on(0, &Request::Shutdown, None);
    drop(cc);
    for s in servers {
        s.join()
            .expect("server thread")
            .expect("server exited with an error");
    }
    (elapsed, identical, latency)
}

fn run_cluster_bench(opts: &Opts, n_max: usize) {
    let keys = layout_batch();
    // The identity oracle: an unbounded in-process service. Its rendered
    // strings are what every node must echo byte-for-byte.
    let direct = Service::with_budget(1 << 30);
    let expected: Vec<String> = keys
        .iter()
        .map(|r| direct.execute(r).expect("direct execution").to_string())
        .collect();
    let working_set: usize = expected.iter().map(String::len).sum();
    println!(
        "servebench: cluster mode — {} layout keys ({:.1} MB working set), {} rounds, {} MB per node",
        keys.len(),
        working_set as f64 / (1 << 20) as f64,
        opts.repeats,
        opts.node_budget_mb
    );
    let mut phases: Vec<(usize, f64, f64, Hist)> = Vec::new();
    let mut identical = true;
    for n in 1..=n_max {
        let (s, ok, lat) =
            run_cluster_phase(n, opts.node_budget_mb << 20, opts.repeats, &keys, &expected);
        identical &= ok;
        let rps = (keys.len() * opts.repeats) as f64 / s;
        println!(
            "nodes={n}: {s:.3}s ({rps:.1} req/s), warm latency p50/p95/p99 {}/{}/{} µs",
            lat.quantile(0.5),
            lat.quantile(0.95),
            lat.quantile(0.99)
        );
        phases.push((n, s, rps, lat));
    }
    let speedup = phases.last().expect("n_max >= 1").2 / phases[0].2;
    println!(
        "cluster speedup: {speedup:.2}x warm throughput at {n_max} nodes vs 1 (N x cache capacity)"
    );
    let doc = flo_json::Json::obj()
        .set("scale", "small")
        .set("mode", "cluster")
        .set("nodes", n_max)
        .set("per_node_budget_mb", opts.node_budget_mb)
        .set("rounds", opts.repeats)
        .set("keys", keys.len())
        .set("working_set_bytes", working_set)
        .set(
            "phases",
            phases
                .iter()
                .map(|(n, s, rps, lat)| {
                    flo_json::Json::obj()
                        .set("nodes", *n)
                        .set("elapsed_s", *s)
                        .set("rps", *rps)
                        .set("latency_us", lat.to_json())
                })
                .collect::<Vec<flo_json::Json>>(),
        )
        .set("speedup", speedup)
        .set("identical", identical);
    let path = Path::new("BENCH_cluster.json");
    match write_json_artifact(path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("servebench: cannot write {}: {e}", path.display()),
    }
    if !identical {
        std::process::exit(1);
    }
    if let Some(gate) = opts.cluster_gate {
        if speedup < gate {
            eprintln!("servebench: FAIL — cluster speedup {speedup:.2}x below the {gate:.2}x gate");
            std::process::exit(1);
        }
        println!("cluster-gate: {speedup:.2}x >= {gate:.2}x, ok");
    }
}

/// The chaos workload: every key kind the cluster routes, small scale
/// only, with at least 8 keys per kind so the client's per-kind latency
/// histograms arm the read deadline (the black-hole detector) within
/// the first warm round.
fn chaos_batch() -> Vec<Request> {
    let apps = ["qio", "swim", "s3asim"];
    let mut reqs = Vec::new();
    for app in apps {
        for scheme in [flo_bench::Scheme::Default, flo_bench::Scheme::Inter] {
            reqs.push(Request::Simulate {
                app: app.to_string(),
                scale: Scale::Small,
                scheme,
                policy: PolicyKind::LruInclusive,
                fault: None,
            });
        }
        reqs.push(Request::Simulate {
            app: app.to_string(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            fault: Some(FaultSpec {
                seed: 7,
                intensity: 1.0,
            }),
        });
        for target in [
            TargetLayers::IoOnly,
            TargetLayers::StorageOnly,
            TargetLayers::Both,
        ] {
            reqs.push(Request::Layout {
                app: app.to_string(),
                scale: Scale::Small,
                target,
            });
        }
    }
    reqs
}

/// One restartable in-process node of the chaos cluster.
struct ChaosNode {
    member: Member,
    budget: usize,
    control: ServerControl,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ChaosNode {
    /// (Re)start the node: fresh control flags, fresh (cold) service —
    /// a restart after a crash loses the cache, like a real process.
    fn start(&mut self) {
        let control = ServerControl::armed();
        self.control = control.clone();
        let cfg = ServerConfig {
            listen: self.member.listen.clone(),
            workers: 2,
            queue_capacity: 4 * DEFAULT_WINDOW,
            run_name: format!("servebench-chaos-{}", self.member.id),
            node_id: self.member.id.clone(),
            control,
            ..ServerConfig::default()
        };
        let service = Arc::new(Service::with_budget(self.budget));
        self.handle = Some(std::thread::spawn(move || server::run(&cfg, service)));
        Client::connect_retry(&self.member.listen, Duration::from_secs(10))
            .expect("chaos node did not come up");
    }

    /// Crash the node abruptly and reap its thread. The socket file is
    /// left stale on purpose — the restart must take the address over.
    fn halt(&mut self) {
        self.control.halt();
        if let Some(h) = self.handle.take() {
            h.join()
                .expect("server thread")
                .expect("halted server returned an error");
        }
    }

    /// Graceful end-of-run shutdown.
    fn stop(&mut self) {
        self.control.request_shutdown();
        if let Some(h) = self.handle.take() {
            h.join()
                .expect("server thread")
                .expect("server exited with an error");
        }
    }
}

/// Drive `rounds` pipelined rounds of `keys`; returns the wall time and
/// every raw answer (verified after the clock stops).
#[allow(clippy::type_complexity)]
fn chaos_rounds(
    cc: &mut ClusterClient,
    keys: &[Request],
    rounds: usize,
) -> (f64, Vec<Vec<Result<Vec<u8>, ServeError>>>) {
    let started = Instant::now();
    let mut collected = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        collected.push(cc.call_many_raw(keys, None, DEFAULT_WINDOW));
    }
    (started.elapsed().as_secs_f64(), collected)
}

/// One unpipelined round with each `call` (a batch of one) timed at the
/// client — the per-request latency a pipelined window hides.
fn chaos_latency_round(
    cc: &mut ClusterClient,
    keys: &[Request],
    expected: &[String],
    phase: &str,
    errors: &mut u64,
    identical: &mut bool,
) -> Hist {
    let mut lat = Hist::new();
    for (i, req) in keys.iter().enumerate() {
        let t0 = Instant::now();
        match cc.call(req, None) {
            Ok(j) if j.to_string() == expected[i] => lat.record(t0.elapsed().as_micros() as u64),
            Ok(_) => {
                eprintln!("servebench: FAIL — {phase} latency response {i} diverges");
                *identical = false;
            }
            Err(e) => {
                eprintln!("servebench: FAIL — {phase} latency request {i}: {e}");
                *errors += 1;
            }
        }
    }
    lat
}

/// Drive rounds until `node`'s breaker closes again (probe succeeded).
fn chaos_await_closed(cc: &mut ClusterClient, node: usize, keys: &[Request]) -> bool {
    for _ in 0..200 {
        if cc.node_health(node).breaker.state() == CircuitState::Closed {
            return true;
        }
        let _ = cc.call_many_raw(keys, None, DEFAULT_WINDOW);
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

fn run_chaos_bench(opts: &Opts, n: usize) {
    if n < 2 {
        eprintln!("servebench: --chaos needs at least 2 nodes");
        std::process::exit(2);
    }
    signal::reset();
    let seed = std::env::var("FLO_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(42);
    // The seeded schedule: which node dies, which node black-holes.
    // xorshift64* off FLO_SEED, same construction as every other jitter
    // stream in the repo — the whole run replays from one number.
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let victim = (draw() % n as u64) as usize;
    let stall_victim = (victim + 1 + (draw() % (n as u64 - 1)) as usize) % n;
    let keys = chaos_batch();
    let direct = Service::with_budget(1 << 30);
    let expected: Vec<String> = keys
        .iter()
        .map(|r| direct.execute(r).expect("direct execution").to_string())
        .collect();
    println!(
        "servebench: chaos mode — {n} nodes, {} mixed keys, {} rounds/phase, FLO_SEED={seed}",
        keys.len(),
        opts.repeats
    );
    println!("schedule: kill+restart n{victim}, stall+resume n{stall_victim}");
    let pid = std::process::id();
    let mut nodes: Vec<ChaosNode> = (0..n)
        .map(|i| ChaosNode {
            member: Member {
                id: format!("n{i}"),
                listen: Listen::Unix(
                    std::env::temp_dir().join(format!("flod-chaos-{pid}-{n}-{i}.sock")),
                ),
            },
            budget: opts.node_budget_mb << 20,
            control: ServerControl::default(),
            handle: None,
        })
        .collect();
    for node in &mut nodes {
        node.start();
    }
    let membership = Membership {
        members: nodes.iter().map(|c| c.member.clone()).collect(),
    };
    // Pinned resilience, not from_env: the chaos run IS the resilience
    // test, so its knobs must not drift with the caller's environment.
    let resilience = Resilience {
        fallbacks: 2.min(n - 1),
        connect_timeout: Duration::from_millis(1000),
        breaker_threshold: 2,
    };
    let mut cc = ClusterClient::with_resilience(membership, seed, resilience);
    let mut errors = 0u64;
    let mut identical = true;
    // Pre-warm every key on *every* node (any node can compute any key —
    // that is the whole failover premise), so the phases below measure
    // routing resilience, not one-time recompute cost. The artifact
    // still records the restarted node's cold re-warm separately.
    for node in 0..n {
        for (i, req) in keys.iter().enumerate() {
            match cc.call_on(node, req, None) {
                Ok(j) if j.to_string() == expected[i] => {}
                Ok(_) => {
                    eprintln!("servebench: FAIL — pre-warm response {i} on n{node} diverges");
                    identical = false;
                }
                Err(e) => {
                    eprintln!("servebench: FAIL — pre-warm request {i} on n{node}: {e}");
                    errors += 1;
                }
            }
        }
    }
    let verify = |phase: &str,
                  collected: Vec<Vec<Result<Vec<u8>, ServeError>>>,
                  errors: &mut u64,
                  identical: &mut bool| {
        for round in collected {
            for (i, a) in round.into_iter().enumerate() {
                match a.and_then(|b| flo_serve::client::decode_envelope_bytes(&b)) {
                    Ok(j) if j.to_string() == expected[i] => {}
                    Ok(_) => {
                        eprintln!("servebench: FAIL — {phase} response {i} diverges from direct");
                        *identical = false;
                    }
                    Err(e) => {
                        eprintln!("servebench: FAIL — {phase} request {i}: {e}");
                        *errors += 1;
                    }
                }
            }
        }
    };
    let rounds = opts.repeats.max(2);
    let rps = |elapsed: f64| keys.len() as f64 * rounds as f64 / elapsed;

    // Phase 1: everything up.
    let (warm_s, got) = chaos_rounds(&mut cc, &keys, rounds);
    verify("warm", got, &mut errors, &mut identical);
    let warm_lat = chaos_latency_round(
        &mut cc,
        &keys,
        &expected,
        "warm",
        &mut errors,
        &mut identical,
    );
    let warm_rps = rps(warm_s);

    // Phase 2: kill the victim abruptly, keep serving. The first round
    // after the kill is the *detection* round — it pays the transport
    // failures that trip the breaker — and is timed separately so the
    // outage gate measures steady-state routed-around throughput, not
    // the one-time discovery cost.
    nodes[victim].halt();
    let (detection_s, got) = chaos_rounds(&mut cc, &keys, 1);
    verify("detection", got, &mut errors, &mut identical);
    let (outage_s, got) = chaos_rounds(&mut cc, &keys, rounds);
    verify("outage", got, &mut errors, &mut identical);
    let outage_lat = chaos_latency_round(
        &mut cc,
        &keys,
        &expected,
        "outage",
        &mut errors,
        &mut identical,
    );
    let outage_rps = rps(outage_s);

    // Phase 3: restart the victim (cold) and wait for the client's
    // breaker probe to rediscover it, then re-warm its owned keys.
    let rewarm_t0 = Instant::now();
    nodes[victim].start();
    if !chaos_await_closed(&mut cc, victim, &keys) {
        eprintln!("servebench: FAIL — n{victim} breaker never closed after restart");
        errors += 1;
    }
    let (_, got) = chaos_rounds(&mut cc, &keys, 1);
    verify("re-warm", got, &mut errors, &mut identical);
    let rewarm_s = rewarm_t0.elapsed().as_secs_f64();
    let (recovered_s, got) = chaos_rounds(&mut cc, &keys, rounds);
    verify("recovered", got, &mut errors, &mut identical);
    let recovered_lat = chaos_latency_round(
        &mut cc,
        &keys,
        &expected,
        "recovered",
        &mut errors,
        &mut identical,
    );
    let recovered_rps = rps(recovered_s);

    // Phase 4: black-hole a different node (SIGSTOP semantics — the
    // kernel keeps accepting, nothing answers). The read deadline is the
    // only detector; no typed error ever arrives.
    nodes[stall_victim].control.set_stall(true);
    let (stall_s, got) = chaos_rounds(&mut cc, &keys, rounds.min(3));
    verify("stall", got, &mut errors, &mut identical);
    nodes[stall_victim].control.set_stall(false);
    if !chaos_await_closed(&mut cc, stall_victim, &keys) {
        eprintln!("servebench: FAIL — n{stall_victim} breaker never closed after resume");
        errors += 1;
    }
    let (resumed_s, got) = chaos_rounds(&mut cc, &keys, rounds);
    verify("resumed", got, &mut errors, &mut identical);
    let resumed_rps = rps(resumed_s);

    let health = cc.health_json();
    for node in &mut nodes {
        node.stop();
    }
    let outage_ratio = outage_rps / warm_rps;
    let recovered_ratio = recovered_rps / warm_rps;
    let show = |h: &Hist| {
        format!(
            "p50/p95/p99 {}/{}/{} µs",
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99)
        )
    };
    println!(
        "warm:      {warm_s:.3}s ({warm_rps:.1} req/s), {}",
        show(&warm_lat)
    );
    println!(
        "outage:    {outage_s:.3}s ({outage_rps:.1} req/s, {outage_ratio:.2}x of warm, detection {detection_s:.3}s), {}",
        show(&outage_lat)
    );
    println!(
        "recovered: {recovered_s:.3}s ({recovered_rps:.1} req/s, {recovered_ratio:.2}x of warm), {} (restart-to-closed {rewarm_s:.2}s)",
        show(&recovered_lat)
    );
    println!("stall:     {stall_s:.3}s; resumed {resumed_s:.3}s ({resumed_rps:.1} req/s)");
    println!("routed errors: {errors} (must be 0), byte-identical: {identical}");
    // Bounded tail: even mid-outage no routed call may take longer than
    // the failover machinery can explain (connect timeout + probe
    // backoff ceiling, with slack).
    let p99_bound_us = 5_000_000u64;
    let outage_p99 = outage_lat.quantile(0.99);
    if outage_p99 > p99_bound_us {
        eprintln!(
            "servebench: FAIL — outage p99 {outage_p99} µs above the {p99_bound_us} µs bound"
        );
        errors += 1;
    }
    let phase_json = |elapsed: f64, rps: f64, lat: Option<&Hist>| {
        let j = flo_json::Json::obj()
            .set("elapsed_s", elapsed)
            .set("rps", rps);
        match lat {
            Some(h) => j.set("latency_us", h.to_json()),
            None => j,
        }
    };
    let doc = flo_json::Json::obj()
        .set("mode", "chaos")
        .set("seed", seed)
        .set("nodes", n)
        .set("keys", keys.len())
        .set("rounds_per_phase", rounds)
        .set(
            "schedule",
            flo_json::Json::obj()
                .set("kill_restart", format!("n{victim}"))
                .set("stall_resume", format!("n{stall_victim}"))
                .set("fallbacks", 2.min(n - 1)),
        )
        .set(
            "phases",
            flo_json::Json::obj()
                .set("warm", phase_json(warm_s, warm_rps, Some(&warm_lat)))
                .set(
                    "outage",
                    phase_json(outage_s, outage_rps, Some(&outage_lat))
                        .set("detection_s", detection_s),
                )
                .set(
                    "recovered",
                    phase_json(recovered_s, recovered_rps, Some(&recovered_lat))
                        .set("restart_to_closed_s", rewarm_s),
                )
                .set("stall", phase_json(stall_s, rps(stall_s), None))
                .set("resumed", phase_json(resumed_s, resumed_rps, None)),
        )
        .set("outage_ratio", outage_ratio)
        .set("recovered_ratio", recovered_ratio)
        .set("routed_errors", errors)
        .set("identical", identical)
        .set("client_health", health);
    let path = Path::new("BENCH_chaos.json");
    match write_json_artifact(path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("servebench: cannot write {}: {e}", path.display()),
    }
    if errors > 0 || !identical {
        std::process::exit(1);
    }
    if let Some(gate) = opts.chaos_gate {
        if outage_ratio < gate {
            eprintln!(
                "servebench: FAIL — outage throughput {outage_ratio:.2}x of warm, below the {gate:.2}x gate"
            );
            std::process::exit(1);
        }
        if recovered_ratio < 0.8 {
            eprintln!(
                "servebench: FAIL — recovered throughput {recovered_ratio:.2}x of warm, below the 0.80x full-recovery bar"
            );
            std::process::exit(1);
        }
        println!(
            "chaos-gate: outage {outage_ratio:.2}x >= {gate:.2}x and recovery {recovered_ratio:.2}x >= 0.80x, ok"
        );
    }
}

fn main() {
    let opts = parse_opts();
    if let Some(n) = opts.chaos {
        run_chaos_bench(&opts, n);
        return;
    }
    if let Some(n_max) = opts.cluster {
        if n_max < 1 {
            eprintln!("servebench: --cluster needs at least 1 node");
            std::process::exit(2);
        }
        run_cluster_bench(&opts, n_max);
        return;
    }
    let listen =
        Listen::Unix(std::env::temp_dir().join(format!("flod-bench-{}.sock", std::process::id())));
    let requests = batch(opts.repeats);
    let hc = opts.clients >= HC_THRESHOLD;
    let base_clients = if hc { 4 } else { opts.clients };
    println!(
        "servebench: {} requests, {} clients, {} workers{}",
        requests.len(),
        opts.clients,
        opts.workers,
        if hc {
            format!(" (hc phase: {HC_HOT} hot + {} idle)", opts.clients - HC_HOT)
        } else {
            String::new()
        }
    );

    let budget = opts.budget_mb << 20;
    let (cold_s, cold, cold_lat) =
        run_phase(0, opts.workers, base_clients, 0, &listen, &requests, true);
    let (warm_s, warm, warm_lat) = run_phase(
        budget,
        opts.workers,
        base_clients,
        0,
        &listen,
        &requests,
        true,
    );

    let mut identical = cold == warm;
    if !identical {
        eprintln!("servebench: FAIL — cold and warm responses differ");
    }
    let cold_rps = requests.len() as f64 / cold_s;
    let warm_rps = requests.len() as f64 / warm_s;
    let speedup = warm_rps / cold_rps;
    let show = |h: &Hist| {
        format!(
            "p50/p95/p99 {}/{}/{} µs",
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99)
        )
    };
    println!(
        "cold: {cold_s:.3}s ({cold_rps:.1} req/s), {}",
        show(&cold_lat)
    );
    println!(
        "warm: {warm_s:.3}s ({warm_rps:.1} req/s), {}",
        show(&warm_lat)
    );
    println!("speedup: {speedup:.2}x (shared-cache hits on repeated keys)");

    let mut doc = flo_json::Json::obj()
        .set("scale", "small")
        .set("requests", requests.len())
        .set("repeats", opts.repeats)
        .set("clients", opts.clients)
        .set("workers", opts.workers)
        .set("budget_mb", opts.budget_mb)
        .set("cold_s", cold_s)
        .set("warm_s", warm_s)
        .set("cold_rps", cold_rps)
        .set("warm_rps", warm_rps)
        .set("cold_latency_us", cold_lat.to_json())
        .set("warm_latency_us", warm_lat.to_json())
        .set("speedup", speedup);

    let mut hc_ratio = None;
    if hc {
        let idle = opts.clients - HC_HOT;
        let (hc_s, hc_resp, hc_lat) =
            run_phase(budget, opts.workers, HC_HOT, idle, &listen, &requests, true);
        if hc_resp != warm {
            eprintln!("servebench: FAIL — high-concurrency responses differ from warm");
            identical = false;
        }
        let hc_rps = requests.len() as f64 / hc_s;
        let ratio = hc_rps / warm_rps;
        println!(
            "hc:   {hc_s:.3}s ({hc_rps:.1} req/s) with {} total conns — {ratio:.2}x of warm, {}",
            opts.clients,
            show(&hc_lat)
        );
        doc = doc
            .set("hc_clients", opts.clients)
            .set("hc_hot", HC_HOT)
            .set("hc_idle", idle)
            .set("hc_s", hc_s)
            .set("hc_rps", hc_rps)
            .set("hc_ratio", ratio)
            .set("hc_latency_us", hc_lat.to_json());
        hc_ratio = Some(ratio);
    }
    doc = doc.set("identical", identical);

    // The telemetry-overhead experiment: the warm phase again, with the
    // accumulator on and off, interleaved best-of-3 per side so one
    // scheduler hiccup cannot decide the ratio. Telemetry is on by
    // default in production, so the on-side is the number that must not
    // regress — the ≥0.97× gate is the tentpole's near-zero-cost claim.
    let mut on_best = 0.0f64;
    let mut off_best = 0.0f64;
    let mut tele_identical = true;
    for _ in 0..3 {
        let (on_s, on_resp, _) = run_phase(
            budget,
            opts.workers,
            base_clients,
            0,
            &listen,
            &requests,
            true,
        );
        let (off_s, off_resp, _) = run_phase(
            budget,
            opts.workers,
            base_clients,
            0,
            &listen,
            &requests,
            false,
        );
        tele_identical &= on_resp == warm && off_resp == warm;
        on_best = on_best.max(requests.len() as f64 / on_s);
        off_best = off_best.max(requests.len() as f64 / off_s);
    }
    let tele_ratio = on_best / off_best;
    println!(
        "telemetry: on {on_best:.1} req/s vs off {off_best:.1} req/s — {tele_ratio:.3}x overhead ratio"
    );
    if !tele_identical {
        eprintln!("servebench: FAIL — telemetry on/off responses differ from warm");
        identical = false;
    }
    let tele_doc = flo_json::Json::obj()
        .set("requests", requests.len())
        .set("rounds", 3u64)
        .set("on_rps", on_best)
        .set("off_rps", off_best)
        .set("ratio", tele_ratio)
        .set("identical", tele_identical);
    let tele_path = Path::new("BENCH_telemetry.json");
    match write_json_artifact(tele_path, tele_doc) {
        Ok(()) => println!("wrote {}", tele_path.display()),
        Err(e) => eprintln!("servebench: cannot write {}: {e}", tele_path.display()),
    }

    let path = Path::new("BENCH_serve.json");
    match write_json_artifact(path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("servebench: cannot write {}: {e}", path.display()),
    }

    if !identical {
        std::process::exit(1);
    }
    if let Some(gate) = opts.gate {
        if speedup < gate {
            eprintln!("servebench: FAIL — speedup {speedup:.2}x below the {gate:.2}x gate");
            std::process::exit(1);
        }
        println!("gate: {speedup:.2}x >= {gate:.2}x, ok");
    }
    if let Some(gate) = opts.hc_gate {
        let Some(ratio) = hc_ratio else {
            eprintln!("servebench: FAIL — --hc-gate needs --clients >= {HC_THRESHOLD}");
            std::process::exit(1);
        };
        if ratio < gate {
            eprintln!(
                "servebench: FAIL — hc throughput {ratio:.2}x of warm, below the {gate:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("hc-gate: {ratio:.2}x >= {gate:.2}x, ok");
    }
    if let Some(gate) = opts.telemetry_gate {
        if tele_ratio < gate {
            eprintln!(
                "servebench: FAIL — telemetry-on throughput {tele_ratio:.3}x of off, below the {gate:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("telemetry-gate: {tele_ratio:.3}x >= {gate:.2}x, ok");
    }
}

//! `serve` — the serve path: one in-process `flod` node driven closed-loop
//! by two `Client` connections.
//!
//! The node runs `server::run` on a Unix socket under `.perfbench/`,
//! configured as `flod` is with no `FLO_*` variable set. Set-up pre-warms
//! a hot set of 112 small-scale keys; the measured stream is ≈60% hot
//! `simulate`, ≈30% hot `layout` (each Zipf-skewed over a fixed key
//! order) and ≈10% cold: never-seen `simulate` keys whose fault spec
//! comes from the seed and the request index, so each one misses and
//! runs on a worker. The seed fixes the whole stream; the node sees only
//! the generated requests.

use crate::stats::{self, mix, Percentile, SplitMix64};
use crate::{Args, Outcome};
use flo_bench::Scheme;
use flo_core::TargetLayers;
use flo_json::Json;
use flo_serve::client::decode_envelope_bytes;
use flo_serve::protocol::{self, FaultSpec, Request};
use flo_serve::{server, signal, Client, Listen, ServerConfig, Service};
use flo_sim::PolicyKind;
use flo_workloads::Scale;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;
const HOT_SIMULATE_SHARE: f64 = 0.6;
const HOT_LAYOUT_SHARE: f64 = 0.3;
const ZIPF_EXPONENT: f64 = 1.0;
/// Fewest requests a run measures, whatever `--seconds` says. The traced
/// run replays this many requests of the stream in process.
const MIN_REQUESTS: u64 = 10_000;
/// Fewest requests of each class (hot, cold) a run measures: the
/// smallest count whose p99 has [`stats::MIN_BEYOND`] samples beyond it.
const MIN_PER_CLASS: u64 = 100 * stats::MIN_BEYOND as u64;
/// Cold requests re-fetched after the run and byte-compared.
const COLD_SAMPLE: usize = 16;
/// Measured segments per run. The closed loops pause before each one
/// while a node set-up is timed in a fresh process (`stats::probe_setup`),
/// so `setup_s`, the median of these set-ups, samples the host across
/// the run.
const SEGMENTS: u32 = 7;
/// Where the node's socket lives, relative to the working directory.
const SOCKET_DIR: &str = ".perfbench";

/// The request classes of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    HotSimulate,
    HotLayout,
    Cold,
}

/// One drawn request: its class and, for hot classes, its key index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    pub class: Class,
    pub key: usize,
}

/// The seeded request stream: request `i` is a pure function of
/// `(seed, i)`.
pub struct Stream {
    seed: u64,
    apps: Vec<&'static str>,
    hot_simulate: Vec<Request>,
    hot_layout: Vec<Request>,
    simulate_cdf: Vec<f64>,
    layout_cdf: Vec<f64>,
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_EXPONENT)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn draw(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let apps: Vec<&'static str> = flo_workloads::all(Scale::Small)
            .iter()
            .map(|w| w.name)
            .collect();
        let mut hot_simulate = Vec::new();
        let mut hot_layout = Vec::new();
        for &app in &apps {
            for scheme in [Scheme::Default, Scheme::Inter] {
                for policy in [PolicyKind::LruInclusive, PolicyKind::Karma] {
                    hot_simulate.push(simulate(app, scheme, policy, None));
                }
            }
            for target in TargetLayers::all() {
                hot_layout.push(Request::Layout {
                    app: app.to_string(),
                    scale: Scale::Small,
                    target,
                });
            }
        }
        Stream {
            seed,
            simulate_cdf: zipf_cdf(hot_simulate.len()),
            layout_cdf: zipf_cdf(hot_layout.len()),
            apps,
            hot_simulate,
            hot_layout,
        }
    }

    /// The 112 keys set-up pre-warms.
    pub fn hot_keys(&self) -> impl Iterator<Item = &Request> {
        self.hot_simulate.iter().chain(&self.hot_layout)
    }

    pub fn pick(&self, i: u64) -> (Pick, Request) {
        let mut rng = SplitMix64::new(mix(self.seed) ^ mix(i.wrapping_add(0x5E4E)));
        let u = rng.unit();
        if u < HOT_SIMULATE_SHARE {
            let key = draw(&self.simulate_cdf, rng.unit());
            let pick = Pick {
                class: Class::HotSimulate,
                key,
            };
            (pick, self.hot_simulate[key].clone())
        } else if u < HOT_SIMULATE_SHARE + HOT_LAYOUT_SHARE {
            let key = draw(&self.layout_cdf, rng.unit());
            let pick = Pick {
                class: Class::HotLayout,
                key,
            };
            (pick, self.hot_layout[key].clone())
        } else {
            let app = self.apps[rng.below(self.apps.len() as u64) as usize];
            let scheme = [Scheme::Default, Scheme::Inter][rng.below(2) as usize];
            let policy = [PolicyKind::LruInclusive, PolicyKind::Karma][rng.below(2) as usize];
            // Distinct per index, and below 2^53 so it survives the
            // protocol's f64 numbers: a key no earlier request used.
            let fault = FaultSpec {
                seed: ((mix(self.seed) & 0xF_FFFF) << 32) | (i & 0xFFFF_FFFF),
                intensity: 1.0,
            };
            let pick = Pick {
                class: Class::Cold,
                key: usize::MAX,
            };
            (pick, simulate(app, scheme, policy, Some(fault)))
        }
    }
}

fn simulate(app: &str, scheme: Scheme, policy: PolicyKind, fault: Option<FaultSpec>) -> Request {
    Request::Simulate {
        app: app.to_string(),
        scale: Scale::Small,
        scheme,
        policy,
        fault,
    }
}

/// One completed request as its client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub index: u64,
    pub pick: Pick,
    pub ns: u64,
    pub ok: bool,
}

/// Request counts by class. `hot + cold == total` always; after a run,
/// the node's measured-phase executions must equal `cold`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub total: u64,
    pub hot: u64,
    pub cold: u64,
}

impl Tally {
    /// Whether a run may stop: at least [`MIN_REQUESTS`] requests and
    /// [`MIN_PER_CLASS`] of each class, so every class supports a p99.
    pub fn floor_reached(&self) -> bool {
        self.total >= MIN_REQUESTS && self.hot >= MIN_PER_CLASS && self.cold >= MIN_PER_CLASS
    }

    pub fn of(samples: &[Sample]) -> Tally {
        let cold = samples
            .iter()
            .filter(|s| s.pick.class == Class::Cold)
            .count() as u64;
        Tally {
            total: samples.len() as u64,
            hot: samples.len() as u64 - cold,
            cold,
        }
    }
}

/// A running node: `server::run` on its own thread.
struct Node {
    listen: Listen,
    service: Arc<Service>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Node {
    fn start(socket: PathBuf) -> Node {
        let mut cfg = ServerConfig::from_env();
        cfg.listen = Listen::Unix(socket);
        let service = Arc::new(Service::from_env());
        let svc = Arc::clone(&service);
        let listen = cfg.listen.clone();
        let thread = std::thread::spawn(move || server::run(&cfg, svc));
        Node {
            listen,
            service,
            thread,
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_retry(&self.listen, Duration::from_secs(10))
            .map_err(|e| format!("connect {}: {e}", self.listen.describe()))
    }

    /// Drain the node as `floq shutdown` does and wait for it to exit.
    fn stop(self) -> Result<(), String> {
        let mut c = self.connect()?;
        c.call(&Request::Shutdown, None)
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(c);
        let r = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        // The wire shutdown raises the process-wide drain flag; clear it
        // so the next node in this process starts clean (as flod does).
        signal::reset();
        r.map_err(|e| format!("server: {e}"))
    }

    fn prewarm(&self, stream: &Stream) -> Result<(), String> {
        let mut c = self.connect()?;
        for req in stream.hot_keys() {
            c.call(req, None)
                .map_err(|e| format!("pre-warm {req:?}: {e}"))?;
        }
        Ok(())
    }
}

/// Start a node on a socket of this process under [`SOCKET_DIR`] and
/// pre-warm the hot set: the set-up before the first measured request.
fn set_up(stream: &Stream) -> Result<Node, String> {
    std::fs::create_dir_all(SOCKET_DIR).map_err(|e| format!("{SOCKET_DIR}: {e}"))?;
    let node = Node::start(PathBuf::from(format!(
        "{SOCKET_DIR}/node-{}.sock",
        std::process::id()
    )));
    node.prewarm(stream)?;
    Ok(node)
}

/// A `--setup-probe` process: set up a node, report ready, stop it.
pub fn probe(args: &Args) -> Result<(), String> {
    let node = set_up(&Stream::new(args.seed))?;
    stats::ready()?;
    node.stop()
}

/// The measured phase: `CLIENTS` closed loops over the stream, in
/// [`SEGMENTS`] segments that together last `--seconds`, the last one
/// running on until the tally reaches its floor. Before each segment a
/// set-up is timed in a fresh process. Returns the samples in stream
/// order, the wall time of the segments and the set-up times.
fn drive(
    args: &Args,
    node: &Node,
    stream: &Stream,
) -> Result<(Vec<Sample>, Duration, Vec<f64>), String> {
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| node.connect())
        .collect::<Result<_, _>>()?;
    let next = AtomicU64::new(0);
    let (hot, cold) = (AtomicU64::new(0), AtomicU64::new(0));
    let mut samples = Vec::new();
    let mut wall = Duration::ZERO;
    let mut setup_times = Vec::with_capacity(SEGMENTS as usize);
    for segment in 1..=SEGMENTS {
        setup_times.push(stats::probe_setup(args)?);
        let last = segment == SEGMENTS;
        let length = (Duration::from_secs(args.seconds) * segment / SEGMENTS).saturating_sub(wall);
        let more = || {
            let (hot, cold) = (hot.load(Ordering::Relaxed), cold.load(Ordering::Relaxed));
            last && !Tally {
                total: hot + cold,
                hot,
                cold,
            }
            .floor_reached()
        };
        let t0 = Instant::now();
        samples.extend(std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let (next, hot, cold, more) = (&next, &hot, &cold, &more);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        while t0.elapsed() < length || more() {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let (pick, req) = stream.pick(index);
                            let t = Instant::now();
                            let res = client.call(&req, None);
                            let ns = t.elapsed().as_nanos() as u64;
                            let ok = matches!(&res, Ok(r) if r.get("app").and_then(Json::as_str) == Some(req.app()));
                            if let Err(e) = &res {
                                eprintln!("perfbench: request {index} failed: {e}");
                            }
                            let class = if pick.class == Class::Cold { cold } else { hot };
                            class.fetch_add(1, Ordering::Relaxed);
                            out.push(Sample { index, pick, ns, ok });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        }));
        wall += t0.elapsed();
    }
    samples.sort_unstable_by_key(|s| s.index);
    if samples.iter().enumerate().any(|(k, s)| s.index != k as u64) {
        return Err("request indices are not one contiguous prefix of the stream".into());
    }
    Ok((samples, wall, setup_times))
}

/// Re-fetch `reqs` raw from the node and compare each envelope byte for
/// byte with what a separate in-process `Service` produces.
fn verify(node: &Node, reference: &Service, reqs: &[&Request]) -> Result<Vec<bool>, String> {
    let mut c = node.connect()?;
    let mut out = Vec::with_capacity(reqs.len());
    for (k, req) in reqs.iter().enumerate() {
        let trace = k as u64 + 1;
        let id = c
            .send_traced(req, None, Some(trace))
            .map_err(|e| e.to_string())?;
        let (got, bytes) = c.recv_raw().map_err(|e| e.to_string())?;
        let ok = match reference.execute(req) {
            Ok(json) => {
                got == id
                    && bytes
                        == protocol::ok_response_bytes_traced(
                            id,
                            Some(trace),
                            json.to_string().as_bytes(),
                        )
            }
            Err(e) => {
                eprintln!("perfbench: reference failed on {req:?}: {e}");
                false
            }
        };
        if !ok {
            eprintln!(
                "perfbench: MISMATCH served bytes differ from direct Service::execute for {req:?}"
            );
        }
        out.push(ok);
    }
    Ok(out)
}

/// The sample at percentile `p` over all requests, checked to sit in
/// `class`.
fn class_percentile(
    sorted: &[Sample],
    p: Percentile,
    class: Class,
    what: &str,
) -> Result<f64, String> {
    let at = sorted[p.rank];
    if at.pick.class != class {
        return Err(format!(
            "{what} (p{} of {}) falls in class {:?}, not {class:?}: the class shares no longer separate the percentiles",
            p.q, p.samples, at.pick.class
        ));
    }
    let ms = at.ns as f64 / 1e6;
    eprintln!(
        "perfbench: {what} = p{} of {} samples ({} beyond, class {class:?}) = {ms:.4} ms",
        p.q, p.samples, p.beyond
    );
    Ok(ms)
}

fn u64_field(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let stream = Stream::new(args.seed);
    let node = set_up(&stream)?;
    let outcome = measure(args, &stream, &node);
    let stopped = node.stop();
    let _ = std::fs::remove_dir(SOCKET_DIR);
    let outcome = outcome?;
    stopped?;
    Ok(outcome)
}

/// The measured phase, its structural and output checks, and (traced)
/// the per-layer replay, against a set-up node.
fn measure(args: &Args, stream: &Stream, node: &Node) -> Result<Outcome, String> {
    let executions_before = node.service.executions();
    let (samples, wall, setup_times) = drive(args, node, stream)?;
    let rss = stats::peak_rss_mb()?;
    let executions = node.service.executions() - executions_before;
    let node_stats = node.service.stats();
    let dedups = node.service.dedups();
    let tally = Tally::of(&samples);
    eprintln!(
        "perfbench: serve: {} requests ({} hot, {} cold) in {:.2} s, seed {}",
        tally.total,
        tally.hot,
        tally.cold,
        wall.as_secs_f64(),
        args.seed
    );

    // Structural checks: without them the percentiles would drift with
    // the mix and the run length.
    let evictions = u64_field(&node_stats, "cache_evictions");
    if evictions != 0.0 {
        return Err(format!(
            "the node evicted {evictions} cache entries: the hot set no longer stays resident"
        ));
    }
    if executions > tally.cold {
        return Err(format!(
            "the node executed {executions} requests in the measured phase, but {} were cold: a hot request missed",
            tally.cold
        ));
    }
    // Every cold key is new, so each cold request must execute. One that
    // did not was answered with bytes the node holds for a different
    // request (a response-cache key collision): a wrong answer, counted
    // as a failed op below.
    let unexecuted = tally.cold - executions;
    if unexecuted > 0 {
        eprintln!(
            "perfbench: WRONG ANSWER: {unexecuted} never-seen request(s) were answered without being executed, with bytes cached for a different request"
        );
    }
    let mut by_latency = samples.clone();
    by_latency.sort_unstable_by_key(|s| s.ns);
    let n = by_latency.len();
    let p50 = stats::percentile(n, 50).ok_or("too few requests for a median")?;
    let p99 = stats::percentile(n, 99).ok_or("too few requests for a p99")?;
    let lat_p50_ms = class_percentile(&by_latency, p50, Class::HotSimulate, "lat_p50_ms")?;
    let lat_p99_ms = class_percentile(&by_latency, p99, Class::Cold, "lat_tail_ms")?;

    // Output checks, off the clock: every hot key and a seeded sample of
    // cold requests, byte-compared against a separate in-process Service.
    let reference = Service::from_env();
    let hot: Vec<&Request> = stream.hot_keys().collect();
    let hot_ok = verify(node, &reference, &hot)?;
    let cold_indices: Vec<u64> = {
        let mut cold: Vec<u64> = samples
            .iter()
            .filter(|s| s.pick.class == Class::Cold)
            .map(|s| s.index)
            .collect();
        let mut rng = SplitMix64::new(mix(args.seed ^ 0xC01D));
        let k = COLD_SAMPLE.min(cold.len());
        for i in 0..k {
            let j = i + rng.below((cold.len() - i) as u64) as usize;
            cold.swap(i, j);
        }
        cold.truncate(k);
        cold
    };
    let cold_reqs: Vec<Request> = cold_indices.iter().map(|&i| stream.pick(i).1).collect();
    let cold_ok = verify(node, &reference, &cold_reqs.iter().collect::<Vec<_>>())?;
    drop(reference);
    let n_simulate = stream.hot_simulate.len();
    let failed = samples
        .iter()
        .filter(|s| {
            let key_ok = match s.pick.class {
                Class::HotSimulate => hot_ok[s.pick.key],
                Class::HotLayout => hot_ok[n_simulate + s.pick.key],
                Class::Cold => cold_indices
                    .iter()
                    .position(|&i| i == s.index)
                    .is_none_or(|k| cold_ok[k]),
            };
            !(s.ok && key_ok)
        })
        .count() as u64;
    let failed = (failed + unexecuted).min(tally.total);

    let metrics = if args.trace {
        let mut m = traced(stream, &samples)?;
        m.extend([
            ("serve.cache.hits", u64_field(&node_stats, "cache_hits")),
            ("serve.cache.misses", u64_field(&node_stats, "cache_misses")),
            ("serve.cache.evictions", evictions),
            ("serve.executions", executions as f64),
            ("serve.dedups", dedups as f64),
        ]);
        m
    } else {
        vec![
            ("setup_s", stats::setup_median(&setup_times)),
            ("ops_per_s", n as f64 / wall.as_secs_f64()),
            ("lat_p50_ms", lat_p50_ms),
            ("lat_tail_ms", lat_p99_ms),
            ("peak_rss_mb", rss),
        ]
    };
    Ok(Outcome {
        attempted: tally.total,
        failed,
        metrics,
    })
}

/// Per-request in-process cost of one replayed request.
#[derive(Clone, Copy, Default)]
struct Cost {
    exec: Duration,
    encode: Duration,
    decode: Duration,
}

/// Replay the served prefix of the stream, in order, through a fresh
/// pre-warmed mirror `Service`: the worker's `execute_bytes_probed`, the
/// client's request encoding and the client's response decoding, on the
/// bytes the node served. With `timed`, each call is timed.
fn replay(
    stream: &Stream,
    samples: &[Sample],
    timed: bool,
) -> Result<(Duration, Vec<Cost>), String> {
    let mirror = Service::from_env();
    for req in stream.hot_keys() {
        mirror.execute_bytes(req).map_err(|e| e.to_string())?;
    }
    let mut costs = Vec::with_capacity(if timed { samples.len() } else { 0 });
    let mut frame = Vec::new();
    let mut sink = Vec::new();
    let t0 = Instant::now();
    for s in samples {
        let (pick, req) = stream.pick(s.index);
        let id = s.index + 1;
        let t = timed.then(Instant::now);
        let (bytes, outcome) = mirror.execute_bytes_probed(&req);
        let exec = t.map(|t| t.elapsed());
        let bytes = bytes.map_err(|e| format!("mirror failed on {req:?}: {e}"))?;
        let want = if pick.class == Class::Cold {
            "miss"
        } else {
            "warm"
        };
        if outcome != want {
            return Err(format!(
                "mirror answered a {:?} request {outcome}, not {want}",
                pick.class
            ));
        }
        let t = timed.then(Instant::now);
        sink.clear();
        protocol::write_frame(&mut sink, &req.to_envelope(id, None)).map_err(|e| e.to_string())?;
        let encode = t.map(|t| t.elapsed());
        let body = protocol::ok_response_bytes_traced(id, Some(id), &bytes);
        frame.clear();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        let t = timed.then(Instant::now);
        let read = protocol::read_frame_bytes(&mut frame.as_slice(), &|| false)
            .map_err(|e| e.to_string())?;
        let decoded = decode_envelope_bytes(&read).map_err(|e| e.to_string())?;
        let decode = t.map(|t| t.elapsed());
        std::hint::black_box(decoded);
        if let (Some(exec), Some(encode), Some(decode)) = (exec, encode, decode) {
            costs.push(Cost {
                exec,
                encode,
                decode,
            });
        }
    }
    Ok((t0.elapsed(), costs))
}

/// Per-layer metrics of the served run plus an untimed and a timed
/// mirror replay of the same requests.
fn traced(stream: &Stream, samples: &[Sample]) -> Result<Vec<(&'static str, f64)>, String> {
    let mut m = Vec::new();
    for (class_is_cold, p50_name, p99_name) in [
        (false, "serve.hot.lat_p50_ms", "serve.hot.lat_p99_ms"),
        (true, "serve.cold.lat_p50_ms", "serve.cold.lat_p99_ms"),
    ] {
        let mut ns: Vec<u64> = samples
            .iter()
            .filter(|s| (s.pick.class == Class::Cold) == class_is_cold)
            .map(|s| s.ns)
            .collect();
        ns.sort_unstable();
        for (q, name) in [(50, p50_name), (99, p99_name)] {
            let p = stats::percentile(ns.len(), q)
                .ok_or(format!("{name}: {} samples cannot support p{q}", ns.len()))?;
            m.push((name, stats::report_ms(name, &ns, p)));
        }
    }

    // The in-process replays cover the stream's first MIN_REQUESTS
    // requests: every cold one is a real execution, twice.
    let samples = &samples[..samples.len().min(MIN_REQUESTS as usize)];
    let (untimed_wall, _) = replay(stream, samples, false)?;
    let (timed_wall, costs) = replay(stream, samples, true)?;
    let mean = |f: &dyn Fn(&Cost) -> Duration, cold: Option<bool>| -> f64 {
        let picked: Vec<Duration> = samples
            .iter()
            .zip(&costs)
            .filter(|(s, _)| cold.is_none_or(|c| (s.pick.class == Class::Cold) == c))
            .map(|(_, c)| f(c))
            .collect();
        picked.iter().sum::<Duration>().as_secs_f64() / picked.len().max(1) as f64
    };
    let total = |c: &Cost| c.exec + c.encode + c.decode;
    let mut transport: Vec<f64> = samples
        .iter()
        .zip(&costs)
        .filter(|(s, _)| s.pick.class != Class::Cold)
        .map(|(s, c)| s.ns as f64 / 1e3 - total(c).as_secs_f64() * 1e6)
        .collect();
    transport.sort_by(f64::total_cmp);
    let covered: f64 = costs.iter().map(|c| total(c).as_secs_f64()).sum();
    let client: f64 = samples.iter().map(|s| s.ns as f64 / 1e9).sum();
    m.extend([
        ("serve.exec.warm_us", mean(&|c| c.exec, Some(false)) * 1e6),
        ("serve.exec.miss_ms", mean(&|c| c.exec, Some(true)) * 1e3),
        ("serve.protocol.encode_us", mean(&|c| c.encode, None) * 1e6),
        ("serve.protocol.decode_us", mean(&|c| c.decode, None) * 1e6),
        ("serve.transport_us", stats::median(&transport)),
        ("trace.coverage", covered / client),
        (
            "trace.overhead",
            timed_wall.as_secs_f64() / untimed_wall.as_secs_f64(),
        ),
    ]);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_prefix(seed: u64, n: u64) -> Vec<(Pick, Request)> {
        let s = Stream::new(seed);
        (0..n).map(|i| s.pick(i)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream_prefix(11, 500);
        assert_eq!(a, stream_prefix(11, 500));
        assert_ne!(a, stream_prefix(12, 500));
        assert_eq!(Stream::new(11).hot_keys().count(), 112);
    }

    #[test]
    fn class_shares_and_cold_keys_are_never_repeated() {
        let picks = stream_prefix(5, 20_000);
        let share = |c: Class| {
            picks.iter().filter(|(p, _)| p.class == c).count() as f64 / picks.len() as f64
        };
        assert!((share(Class::HotSimulate) - 0.6).abs() < 0.02);
        assert!((share(Class::HotLayout) - 0.3).abs() < 0.02);
        assert!((share(Class::Cold) - 0.1).abs() < 0.02);
        let mut cold: Vec<String> = picks
            .iter()
            .filter(|(p, _)| p.class == Class::Cold)
            .map(|(_, r)| protocol::work_key(r).expect("work request"))
            .collect();
        let n = cold.len();
        cold.sort();
        cold.dedup();
        assert_eq!(cold.len(), n, "a cold key repeated");
        let s = Stream::new(5);
        let hot: Vec<String> = s
            .hot_keys()
            .map(|r| protocol::work_key(r).unwrap())
            .collect();
        assert!(cold.iter().all(|k| !hot.contains(k)), "a cold key is hot");
    }

    /// The stop rule guarantees a p99 in each class on every seed, where
    /// a bare request count would not: cold requests are ≈10% of the
    /// stream, so 10 000 requests often hold fewer than 1000 of them.
    #[test]
    fn floor_supports_a_p99_in_each_class() {
        let mut short_of_cold = 0;
        for seed in 0..32 {
            let stream = Stream::new(seed);
            let mut tally = Tally::default();
            while !tally.floor_reached() {
                let cold = stream.pick(tally.total).0.class == Class::Cold;
                tally.total += 1;
                tally.cold += u64::from(cold);
                tally.hot += u64::from(!cold);
                if tally.total == MIN_REQUESTS && tally.cold < MIN_PER_CLASS {
                    short_of_cold += 1;
                }
            }
            for (class, n) in [("hot", tally.hot), ("cold", tally.cold)] {
                assert!(
                    stats::percentile(n as usize, 99).is_some(),
                    "seed {seed}: {n} {class} requests support no p99"
                );
            }
            assert!(stats::percentile(tally.total as usize, 99).is_some());
        }
        assert!(short_of_cold > 0, "the count floor alone always sufficed");
    }

    /// A short real run at small scale: the class tally adds up and the
    /// node executed exactly the cold requests.
    #[test]
    fn class_accounting_adds_up_against_a_live_node() {
        let stream = Stream::new(3);
        let node = set_up(&stream).unwrap();
        let before = node.service.executions();
        let mut c = node.connect().unwrap();
        let samples: Vec<Sample> = (0..300)
            .map(|index| {
                let (pick, req) = stream.pick(index);
                let ok = c.call(&req, None).is_ok();
                Sample {
                    index,
                    pick,
                    ns: 0,
                    ok,
                }
            })
            .collect();
        drop(c);
        let tally = Tally::of(&samples);
        assert_eq!(tally.hot + tally.cold, tally.total);
        assert_eq!(tally.total, 300);
        assert!(tally.cold > 0 && tally.hot > 0);
        assert!(samples.iter().all(|s| s.ok));
        assert_eq!(node.service.executions() - before, tally.cold);
        node.stop().unwrap();
        let _ = std::fs::remove_dir(SOCKET_DIR);
    }
}

//! The wire protocol `flod` speaks: versioned, length-prefixed JSON
//! frames built on the panic-free [`flo_json`] parser.
//!
//! A frame is a 4-byte little-endian length `n` followed by `n` bytes of
//! UTF-8 JSON. Requests and responses are JSON objects carrying the
//! protocol version; mismatched versions, oversized frames, truncated
//! frames and malformed JSON all surface as *typed* [`ServeError`]s — a
//! hostile or buggy peer can never panic the server (see the
//! `protocol_fuzz` suite).
//!
//! Request envelope:
//!
//! ```json
//! {"v":1, "id":7, "trace":9221120237963520, "kind":"simulate",
//!  "app":"qio", "scale":"small", "scheme":"inter", "policy":"karma",
//!  "deadline_ms":5000}
//! ```
//!
//! Response envelope: `{"v":1, "id":7, "trace":..., "ok":true,
//! "result":{...}}` on success, `{"v":1, "id":7, "trace":..., "ok":false,
//! "error":{"kind":"busy", "message":"..."}}` on failure. The `result`
//! field of a served response is **bit-identical** to the JSON the same
//! computation produces in-process (see `Service::execute` and the
//! `differential` suite) — only the envelope is the server's.
//!
//! `trace` is the optional client-assigned **trace id**: an opaque u64
//! the server echoes in the response envelope, stamps on the request's
//! `serve-request` JSONL event and telemetry ring entry, and — because
//! the cluster client reuses one trace across its redial and every
//! failover hop — the one identifier that follows a logical request
//! across every hop. It is deliberately **not** part of [`work_key`]: two
//! requests for the same work share a cache entry and a routing owner no
//! matter whose trace asked.
//!
//! Request values are bounded by what a node can hold. A `sweep` may
//! ask for at most [`MAX_SWEEP_CACHE_BYTES`] (256 MiB) of simulated
//! cache arrays at once, priced by [`StorageSystem::cache_bytes`] at the
//! request's scale ([`check_sweep`]); a larger sweep is a `bad-request`,
//! answered before anything is allocated.

use flo_bench::{topology_for, Scheme};
use flo_core::TargetLayers;
use flo_json::Json;
use flo_sim::stackdist::MAX_SWEEP_POINTS;
use flo_sim::{PolicyKind, StorageSystem, SweepPoint};
use flo_workloads::Scale;
use std::fmt;
use std::io::{self, Read, Write};

/// Version of the request/response envelope. Bump on any incompatible
/// change; the server rejects mismatches with a typed `protocol` error.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on a single frame. Large enough for full-scale hierarchical
/// layout tables, small enough that a hostile length header cannot make
/// the server allocate without bound.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Trace ids are confined to 53 bits: the protocol carries numbers as
/// JSON, where integers only round-trip up to 2^53, so a generator that
/// used the full u64 space would see its ids silently corrupted in
/// flight. Every trace generator (client and server fallback) masks
/// with this; 53 random bits keep collisions vanishingly unlikely for
/// any realistic request volume.
pub const TRACE_MASK: u64 = (1 << 53) - 1;

/// Most bytes of simulated cache arrays one `sweep` may make a node
/// allocate at once. 256 MiB is over 300 times what fig7c's full-scale
/// sweep needs (720 KiB under LRU, its five points up to 4× capacity),
/// and small enough that the few trace groups a node simulates side by
/// side fit in a small host's memory. It is a protocol constant, not
/// the node's `FLO_CACHE_MB` (which budgets memo tables, and those never
/// hold cache arrays), so every node accepts the same requests.
pub const MAX_SWEEP_CACHE_BYTES: u64 = 256 << 20;

/// Reject a sweep whose cache arrays, at `scale`'s topology and under
/// `policy`, could take more than [`MAX_SWEEP_CACHE_BYTES`] at once. A
/// node simulates at most [`MAX_SWEEP_POINTS`] points over one trace
/// set together (the one-pass engine's width; past it, and on the
/// per-point paths, it holds one point per worker), so a sweep is
/// priced as its largest point times `min(points, MAX_SWEEP_POINTS)`.
pub fn check_sweep(
    scale: Scale,
    policy: PolicyKind,
    points: &[SweepPoint],
) -> Result<(), ServeError> {
    let base = topology_for(scale);
    let largest = points
        .iter()
        .map(|p| {
            let mut topo = base.clone();
            topo.io_cache_blocks = p.io_cache_blocks;
            topo.storage_cache_blocks = p.storage_cache_blocks;
            StorageSystem::cache_bytes(&topo, policy)
        })
        .max()
        .unwrap_or(0);
    let together = points.len().min(MAX_SWEEP_POINTS) as u64;
    let bytes = largest.saturating_mul(together);
    if bytes > MAX_SWEEP_CACHE_BYTES {
        return Err(ServeError::BadRequest(format!(
            "sweep points need {bytes} bytes of cache arrays at once, \
             over the {MAX_SWEEP_CACHE_BYTES}-byte bound"
        )));
    }
    Ok(())
}

/// Typed service errors — every failure a request can produce on the
/// wire. The daemon never panics on peer input; it answers with one of
/// these.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The frame or envelope itself is broken (bad length, bad JSON,
    /// version mismatch). Framing may be lost; the server closes the
    /// connection after answering when it cannot resynchronize.
    Protocol(String),
    /// A well-formed request asking for something invalid (unknown
    /// application, bad policy name, malformed points).
    BadRequest(String),
    /// The bounded job queue is full — backpressure. Retry later.
    Busy,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The cluster node that owns this request's work key is
    /// unreachable (connect refused, or the connection died and could
    /// not be re-established). Synthesized client-side by the
    /// cluster-routing layer — a daemon never sends it about itself.
    NodeDown(String),
    /// An unexpected internal failure.
    Internal(String),
}

impl ServeError {
    /// Stable wire tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Protocol(_) => "protocol",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::Busy => "busy",
            ServeError::DeadlineExceeded => "deadline",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::NodeDown(_) => "node-down",
            ServeError::Internal(_) => "internal",
        }
    }

    /// Human-readable message.
    pub fn message(&self) -> String {
        match self {
            ServeError::Protocol(m)
            | ServeError::BadRequest(m)
            | ServeError::NodeDown(m)
            | ServeError::Internal(m) => m.clone(),
            ServeError::Busy => "job queue full, try again".to_string(),
            ServeError::DeadlineExceeded => "deadline expired before execution".to_string(),
            ServeError::ShuttingDown => "server is draining for shutdown".to_string(),
        }
    }

    /// The error object of a response envelope.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("kind", self.kind())
            .set("message", self.message().as_str())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for ServeError {}

/// An optional fault-injection override on a `simulate` request: the
/// deterministic plan is reconstructed server-side from
/// [`flo_sim::FaultPlan::with_intensity`], so the request stays small
/// and the schedule stays replayable from (seed, intensity).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Schedule seed.
    pub seed: u64,
    /// Intensity multiplier over the default degraded plan (0.0 = quiet).
    pub intensity: f64,
}

/// A parsed request body.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline (never queued).
    Ping,
    /// Cache/queue counters; answered inline (never queued).
    Stats,
    /// Request-level telemetry snapshot (stage-latency histograms,
    /// cache outcomes, slowest recent traces); answered inline.
    Telemetry,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Run the Step I + Algorithm 1 layout pass and return the layouts.
    Layout {
        /// Application name (see `flo_workloads::by_name`).
        app: String,
        /// Workload scale.
        scale: Scale,
        /// Layers the pass optimizes for.
        target: TargetLayers,
    },
    /// Full trace-driven simulation, optionally fault-injected.
    Simulate {
        /// Application name.
        app: String,
        /// Workload scale.
        scale: Scale,
        /// Layout/computation scheme.
        scheme: Scheme,
        /// Cache-management policy.
        policy: PolicyKind,
        /// Optional deterministic fault plan.
        fault: Option<FaultSpec>,
    },
    /// One-pass multi-capacity sweep over the given capacity points.
    Sweep {
        /// Application name.
        app: String,
        /// Workload scale.
        scale: Scale,
        /// Layout/computation scheme.
        scheme: Scheme,
        /// Cache-management policy.
        policy: PolicyKind,
        /// The (io, storage) capacity points to classify.
        points: Vec<SweepPoint>,
    },
}

impl Request {
    /// Wire tag of this request kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Telemetry => "telemetry",
            Request::Shutdown => "shutdown",
            Request::Layout { .. } => "layout",
            Request::Simulate { .. } => "simulate",
            Request::Sweep { .. } => "sweep",
        }
    }

    /// The application a request concerns (observability labels).
    pub fn app(&self) -> &str {
        match self {
            Request::Layout { app, .. }
            | Request::Simulate { app, .. }
            | Request::Sweep { app, .. } => app,
            _ => "-",
        }
    }

    /// Serialize to a full request envelope (client side).
    ///
    /// Note the traceless rendering is the canonical one — [`work_key`]
    /// is defined over it, so adding fields here is a cache/routing
    /// compatibility change.
    pub fn to_envelope(&self, id: u64, deadline_ms: Option<u64>) -> Json {
        self.to_envelope_traced(id, deadline_ms, None)
    }

    /// [`Request::to_envelope`] with an optional trace id, placed
    /// directly after `id` so the response-side fast scanner
    /// ([`response_id`]) and the work-key rendering are both unaffected.
    pub fn to_envelope_traced(
        &self,
        id: u64,
        deadline_ms: Option<u64>,
        trace: Option<u64>,
    ) -> Json {
        let mut j = Json::obj().set("v", PROTOCOL_VERSION).set("id", id);
        if let Some(t) = trace {
            j = j.set("trace", t);
        }
        j = j.set("kind", self.kind());
        if let Some(ms) = deadline_ms {
            j = j.set("deadline_ms", ms);
        }
        match self {
            Request::Ping | Request::Stats | Request::Telemetry | Request::Shutdown => j,
            Request::Layout { app, scale, target } => j
                .set("app", app.as_str())
                .set("scale", scale_name(*scale))
                .set("target", target_name(*target)),
            Request::Simulate {
                app,
                scale,
                scheme,
                policy,
                fault,
            } => {
                j = j
                    .set("app", app.as_str())
                    .set("scale", scale_name(*scale))
                    .set("scheme", scheme.name())
                    .set("policy", policy.name());
                if let Some(f) = fault {
                    j = j.set(
                        "fault",
                        Json::obj()
                            .set("seed", f.seed)
                            .set("intensity", f.intensity),
                    );
                }
                j
            }
            Request::Sweep {
                app,
                scale,
                scheme,
                policy,
                points,
            } => j
                .set("app", app.as_str())
                .set("scale", scale_name(*scale))
                .set("scheme", scheme.name())
                .set("policy", policy.name())
                .set(
                    "points",
                    points
                        .iter()
                        .map(|p| {
                            Json::Arr(vec![
                                Json::from(p.io_cache_blocks as u64),
                                Json::from(p.storage_cache_blocks as u64),
                            ])
                        })
                        .collect::<Vec<Json>>(),
                ),
        }
    }
}

/// The canonical *work key* of a request: the envelope rendering with a
/// fixed id and no deadline, which serializes the whole request body in
/// insertion order. `None` for control requests (`ping` / `stats` /
/// `shutdown`), which have no cacheable work behind them.
///
/// This one string is both the service's response-cache key (hashed in
/// `Service::execute_bytes`) and the cluster routing key (hashed onto
/// the ring in `cluster`): a work key is owned by exactly one node, so
/// that node's cache shard is the only place the key's result ever
/// lives, and a warm hit never pays a cross-node hop.
pub fn work_key(req: &Request) -> Option<String> {
    match req {
        Request::Layout { .. } | Request::Simulate { .. } | Request::Sweep { .. } => {
            Some(req.to_envelope(0, None).to_string())
        }
        Request::Ping | Request::Stats | Request::Telemetry | Request::Shutdown => None,
    }
}

/// Scale wire name.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "small" => Some(Scale::Small),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Target-layers wire name.
pub fn target_name(t: TargetLayers) -> &'static str {
    match t {
        TargetLayers::IoOnly => "io",
        TargetLayers::StorageOnly => "storage",
        TargetLayers::Both => "both",
    }
}

fn parse_target(s: &str) -> Option<TargetLayers> {
    match s {
        "io" => Some(TargetLayers::IoOnly),
        "storage" => Some(TargetLayers::StorageOnly),
        "both" => Some(TargetLayers::Both),
        _ => None,
    }
}

/// Scheme from its wire name.
pub fn parse_scheme(s: &str) -> Option<Scheme> {
    match s {
        "default" => Some(Scheme::Default),
        "inter" => Some(Scheme::Inter),
        "compmap" => Some(Scheme::CompMap),
        "reindex" => Some(Scheme::Reindex),
        _ => None,
    }
}

/// A parsed request envelope: id, optional trace, optional relative
/// deadline, body.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Client-assigned trace id, echoed in the response and stamped on
    /// the request's telemetry. `None` when the client sent none (the
    /// server then assigns a fallback so every served request is
    /// traceable).
    pub trace: Option<u64>,
    /// Relative deadline in milliseconds from server receipt.
    pub deadline_ms: Option<u64>,
    /// The request body.
    pub request: Request,
}

fn need_str<'j>(j: &'j Json, key: &str) -> Result<&'j str, ServeError> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest(format!("request lacks string field `{key}`")))
}

/// Parse and validate a request envelope.
pub fn parse_envelope(j: &Json) -> Result<Envelope, ServeError> {
    let v = j
        .get("v")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::Protocol("request lacks protocol version `v`".into()))?;
    if v != PROTOCOL_VERSION {
        return Err(ServeError::Protocol(format!(
            "protocol version {v} unsupported (this server speaks {PROTOCOL_VERSION})"
        )));
    }
    let id = j.get("id").and_then(Json::as_u64).unwrap_or(0);
    let trace = match j.get("trace") {
        None | Some(Json::Null) => None,
        Some(t) => Some(t.as_u64().ok_or_else(|| {
            ServeError::BadRequest("`trace` must be a non-negative integer".into())
        })?),
    };
    let deadline_ms = match j.get("deadline_ms") {
        None => None,
        Some(d) => Some(d.as_u64().ok_or_else(|| {
            ServeError::BadRequest("`deadline_ms` must be a non-negative integer".into())
        })?),
    };
    let kind = need_str(j, "kind")
        .map_err(|_| ServeError::Protocol("request lacks string field `kind`".into()))?;
    let scale = || -> Result<Scale, ServeError> {
        let s = need_str(j, "scale")?;
        parse_scale(s)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown scale {s:?} (use small|full)")))
    };
    let scheme = || -> Result<Scheme, ServeError> {
        match j.get("scheme") {
            None => Ok(Scheme::Default),
            Some(s) => {
                let s = s
                    .as_str()
                    .ok_or_else(|| ServeError::BadRequest("`scheme` must be a string".into()))?;
                parse_scheme(s).ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "unknown scheme {s:?} (use default|inter|compmap|reindex)"
                    ))
                })
            }
        }
    };
    let policy = || -> Result<PolicyKind, ServeError> {
        match j.get("policy") {
            None => Ok(PolicyKind::LruInclusive),
            Some(p) => {
                let p = p
                    .as_str()
                    .ok_or_else(|| ServeError::BadRequest("`policy` must be a string".into()))?;
                PolicyKind::parse(p).ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "unknown policy {p:?} (use lru|demote|karma|mq)"
                    ))
                })
            }
        }
    };
    let request = match kind {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "telemetry" => Request::Telemetry,
        "shutdown" => Request::Shutdown,
        "layout" => {
            let target = match j.get("target") {
                None => TargetLayers::Both,
                Some(t) => {
                    let t = t.as_str().ok_or_else(|| {
                        ServeError::BadRequest("`target` must be a string".into())
                    })?;
                    parse_target(t).ok_or_else(|| {
                        ServeError::BadRequest(format!(
                            "unknown target {t:?} (use io|storage|both)"
                        ))
                    })?
                }
            };
            Request::Layout {
                app: need_str(j, "app")?.to_string(),
                scale: scale()?,
                target,
            }
        }
        "simulate" => {
            let fault = match j.get("fault") {
                None | Some(Json::Null) => None,
                Some(f) => {
                    let seed = f.get("seed").and_then(Json::as_u64).ok_or_else(|| {
                        ServeError::BadRequest("`fault` lacks integer `seed`".into())
                    })?;
                    let intensity = f.get("intensity").and_then(Json::as_f64).ok_or_else(|| {
                        ServeError::BadRequest("`fault` lacks number `intensity`".into())
                    })?;
                    if !(0.0..=1000.0).contains(&intensity) {
                        return Err(ServeError::BadRequest(format!(
                            "fault intensity {intensity} out of range [0, 1000]"
                        )));
                    }
                    Some(FaultSpec { seed, intensity })
                }
            };
            Request::Simulate {
                app: need_str(j, "app")?.to_string(),
                scale: scale()?,
                scheme: scheme()?,
                policy: policy()?,
                fault,
            }
        }
        "sweep" => {
            let raw = j
                .get("points")
                .and_then(Json::as_arr)
                .ok_or_else(|| ServeError::BadRequest("sweep lacks array `points`".into()))?;
            if raw.is_empty() || raw.len() > 4096 {
                return Err(ServeError::BadRequest(format!(
                    "sweep wants 1..=4096 points, got {}",
                    raw.len()
                )));
            }
            let mut points = Vec::with_capacity(raw.len());
            for p in raw {
                let pair = p.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                    ServeError::BadRequest("each sweep point is [io_blocks, storage_blocks]".into())
                })?;
                let io = pair[0].as_u64();
                let st = pair[1].as_u64();
                match (io, st) {
                    (Some(io), Some(st)) if io > 0 && st > 0 => points.push(SweepPoint {
                        io_cache_blocks: io as usize,
                        storage_cache_blocks: st as usize,
                    }),
                    _ => {
                        return Err(ServeError::BadRequest(
                            "sweep point capacities must be positive integers".into(),
                        ))
                    }
                }
            }
            let app = need_str(j, "app")?.to_string();
            let (scale, scheme, policy) = (scale()?, scheme()?, policy()?);
            check_sweep(scale, policy, &points)?;
            Request::Sweep {
                app,
                scale,
                scheme,
                policy,
                points,
            }
        }
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown request kind {other:?}"
            )))
        }
    };
    Ok(Envelope {
        id,
        trace,
        deadline_ms,
        request,
    })
}

/// The shared scalar head of every response envelope: `v`, `id`, and —
/// when the request carried (or was assigned) one — the echoed `trace`,
/// placed directly after `id` so [`response_id`]'s fixed-prefix scan is
/// oblivious to it.
fn response_head(id: u64, trace: Option<u64>) -> Json {
    let j = Json::obj().set("v", PROTOCOL_VERSION).set("id", id);
    match trace {
        Some(t) => j.set("trace", t),
        None => j,
    }
}

/// Build a success response envelope.
pub fn ok_response(id: u64, result: Json) -> Json {
    ok_response_traced(id, None, result)
}

/// [`ok_response`] echoing a trace id.
pub fn ok_response_traced(id: u64, trace: Option<u64>, result: Json) -> Json {
    response_head(id, trace)
        .set("ok", true)
        .set("result", result)
}

/// Build a success response envelope directly as bytes, splicing an
/// already-serialized `result` payload into the envelope without
/// re-parsing or re-serializing it. Byte-identical to
/// `ok_response(id, result).to_string()` because [`Json`] objects
/// serialize compactly in insertion order — the warm path of the
/// service's response-bytes cache rests on this equivalence (asserted
/// by a unit test below and the differential suite).
pub fn ok_response_bytes(id: u64, result: &[u8]) -> Vec<u8> {
    ok_response_bytes_traced(id, None, result)
}

/// [`ok_response_bytes`] echoing a trace id.
pub fn ok_response_bytes_traced(id: u64, trace: Option<u64>, result: &[u8]) -> Vec<u8> {
    // Render the scalar prefix through the one true serializer, then
    // replace its closing brace with the spliced `result` field.
    let prefix = response_head(id, trace).set("ok", true).to_string();
    let mut out = Vec::with_capacity(prefix.len() + result.len() + 12);
    out.extend_from_slice(&prefix.as_bytes()[..prefix.len() - 1]);
    out.extend_from_slice(b",\"result\":");
    out.extend_from_slice(result);
    out.push(b'}');
    out
}

/// Build an error response envelope.
pub fn err_response(id: u64, err: &ServeError) -> Json {
    err_response_traced(id, None, err)
}

/// [`err_response`] echoing a trace id.
pub fn err_response_traced(id: u64, trace: Option<u64>, err: &ServeError) -> Json {
    response_head(id, trace)
        .set("ok", false)
        .set("error", err.to_json())
}

/// What reading one frame can yield.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream at a frame boundary.
    Closed,
    /// Read timeout with no bytes consumed (socket has a read timeout
    /// set); the caller polls again or notices shutdown.
    Idle,
    /// The peer broke framing: truncated frame, oversized length,
    /// invalid UTF-8 or JSON. Stream sync may be lost.
    Malformed(String),
    /// Transport failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Idle => write!(f, "idle"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read exactly `buf.len()` bytes, riding out read-timeout ticks (the
/// server sets short socket timeouts so connection threads can observe
/// shutdown). `started` says whether part of the frame was already
/// consumed: a clean EOF before any byte is [`FrameError::Closed`], a
/// timeout before any byte is [`FrameError::Idle`]; either one mid-frame
/// is a truncated, malformed frame.
fn read_exact_frames(
    r: &mut impl Read,
    buf: &mut [u8],
    mut started: bool,
    cancel: &dyn Fn() -> bool,
) -> Result<(), FrameError> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(if started {
                    FrameError::Malformed("stream closed mid-frame".into())
                } else {
                    FrameError::Closed
                })
            }
            Ok(n) => {
                at += n;
                started = true;
            }
            Err(e) if is_timeout(&e) => {
                if !started {
                    return Err(FrameError::Idle);
                }
                if cancel() {
                    return Err(FrameError::Malformed(
                        "connection cancelled mid-frame".into(),
                    ));
                }
                // Mid-frame timeout: keep polling until cancelled.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame's raw body bytes, without UTF-8 or JSON validation —
/// the deferred-decode path: bulk clients collect frames at wire speed
/// and parse outside their hot loop. `cancel` as in [`read_frame`].
pub fn read_frame_bytes(
    r: &mut impl Read,
    cancel: &dyn Fn() -> bool,
) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    read_exact_frames(r, &mut header, false, cancel)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Malformed(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    read_exact_frames(r, &mut body, true, cancel)?;
    Ok(body)
}

/// Read one frame. `cancel` is consulted on idle ticks (and mid-frame
/// stalls) so a server connection thread can wind down; clients pass
/// `&|| false`.
pub fn read_frame(r: &mut impl Read, cancel: &dyn Fn() -> bool) -> Result<Json, FrameError> {
    let body = read_frame_bytes(r, cancel)?;
    let text = std::str::from_utf8(&body)
        .map_err(|e| FrameError::Malformed(format!("frame is not UTF-8: {e}")))?;
    flo_json::parse(text).map_err(|e| FrameError::Malformed(format!("frame is not JSON: {e}")))
}

/// Scan the response id out of a serialized envelope without parsing
/// it: every envelope the daemon emits — [`ok_response`],
/// [`ok_response_bytes`], [`err_response`] — starts with the fixed
/// prefix `{"v":<version>,"id":<digits>`. `None` means the prefix is
/// unfamiliar and the caller must fall back to a full parse; pipelined
/// raw receivers use this to match responses to requests at wire speed.
pub fn response_id(bytes: &[u8]) -> Option<u64> {
    let prefix = format!("{{\"v\":{PROTOCOL_VERSION},\"id\":");
    let rest = bytes.strip_prefix(prefix.as_bytes())?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let body = json.to_string();
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("outbound frame of {} bytes exceeds cap", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_every_kind() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Telemetry,
            Request::Shutdown,
            Request::Layout {
                app: "qio".into(),
                scale: Scale::Small,
                target: TargetLayers::IoOnly,
            },
            Request::Simulate {
                app: "swim".into(),
                scale: Scale::Full,
                scheme: Scheme::Inter,
                policy: PolicyKind::Karma,
                fault: Some(FaultSpec {
                    seed: 7,
                    intensity: 0.5,
                }),
            },
            Request::Sweep {
                app: "sar".into(),
                scale: Scale::Small,
                scheme: Scheme::Default,
                policy: PolicyKind::LruInclusive,
                points: vec![
                    SweepPoint {
                        io_cache_blocks: 8,
                        storage_cache_blocks: 16,
                    },
                    SweepPoint {
                        io_cache_blocks: 24,
                        storage_cache_blocks: 48,
                    },
                ],
            },
        ];
        for (i, r) in reqs.iter().enumerate() {
            let env = r.to_envelope(i as u64, Some(1000));
            let back = parse_envelope(&env).unwrap();
            assert_eq!(back.id, i as u64);
            assert_eq!(back.trace, None, "traceless envelope parses traceless");
            assert_eq!(back.deadline_ms, Some(1000));
            assert_eq!(&back.request, r, "round trip of {}", r.kind());

            // The traced rendering round-trips the trace and nothing else
            // changes.
            let trace = 0x7ACE_0000 ^ i as u64;
            let traced = r.to_envelope_traced(i as u64, Some(1000), Some(trace));
            let back = parse_envelope(&traced).unwrap();
            assert_eq!(back.trace, Some(trace));
            assert_eq!(&back.request, r, "traced round trip of {}", r.kind());
        }
    }

    #[test]
    fn version_mismatch_is_a_protocol_error() {
        let j = Json::obj().set("v", 99u64).set("kind", "ping");
        match parse_envelope(&j) {
            Err(ServeError::Protocol(m)) => assert!(m.contains("99"), "{m}"),
            other => panic!("wanted protocol error, got {other:?}"),
        }
        let missing = Json::obj().set("kind", "ping");
        assert!(matches!(
            parse_envelope(&missing),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn bad_bodies_are_bad_requests() {
        let mk = |kind: &str| {
            Json::obj()
                .set("v", PROTOCOL_VERSION)
                .set("id", 1u64)
                .set("kind", kind)
        };
        assert!(matches!(
            parse_envelope(&mk("nope")),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            parse_envelope(&mk("simulate")), // missing app/scale
            Err(ServeError::BadRequest(_))
        ));
        let bad_policy = mk("simulate")
            .set("app", "qio")
            .set("scale", "small")
            .set("policy", "optimal");
        assert!(matches!(
            parse_envelope(&bad_policy),
            Err(ServeError::BadRequest(_))
        ));
        let bad_points = mk("sweep").set("app", "qio").set("scale", "small").set(
            "points",
            vec![Json::Arr(vec![Json::from(0u64), Json::from(4u64)])],
        );
        assert!(matches!(
            parse_envelope(&bad_points),
            Err(ServeError::BadRequest(_))
        ));
    }

    /// A `qio` sweep envelope at `scale` under `policy`.
    fn sweep_envelope(scale: &str, policy: &str, points: &[[u64; 2]]) -> Json {
        Json::obj()
            .set("v", PROTOCOL_VERSION)
            .set("id", 1u64)
            .set("kind", "sweep")
            .set("app", "qio")
            .set("scale", scale)
            .set("policy", policy)
            .set(
                "points",
                points
                    .iter()
                    .map(|p| Json::Arr(p.iter().map(|&c| Json::from(c)).collect()))
                    .collect::<Vec<Json>>(),
            )
    }

    #[test]
    fn sweep_capacities_are_bounded_by_what_a_node_can_hold() {
        // A 2^52-block I/O cache is wire-valid, but its arrays would
        // take 2^52 × 12 bytes per I/O node: the allocation failure
        // aborts the process, where no unwind can catch it.
        for policy in ["lru", "karma", "demote", "mq"] {
            let probe = sweep_envelope("small", policy, &[[1 << 52, 1]]);
            match parse_envelope(&probe) {
                Err(ServeError::BadRequest(m)) => assert!(m.contains("bound"), "{m}"),
                other => panic!("{policy}: wanted bad-request, got {other:?}"),
            }
        }
        let max = (1u64 << 53) - 1;
        let largest = sweep_envelope("full", "lru", &[[max, max]]);
        assert!(matches!(
            parse_envelope(&largest),
            Err(ServeError::BadRequest(_))
        ));
        // A sweep is priced as its largest point times the points one
        // pass holds together: a 96 MiB point fits alone, 64 of them in
        // one pass do not.
        let point = [1 << 20, 1 << 20];
        let one = sweep_envelope("small", "lru", &[point]);
        assert!(parse_envelope(&one).is_ok());
        let many = sweep_envelope("small", "lru", &[point; 64]);
        assert!(matches!(
            parse_envelope(&many),
            Err(ServeError::BadRequest(_))
        ));
        // Points are not summed past what is held at once: 512 small
        // points (385 MiB in all, 1.5 MiB the largest) pass.
        let long: Vec<[u64; 2]> = (1..=512).map(|i| [24 * i, 48 * i]).collect();
        assert!(parse_envelope(&sweep_envelope("small", "lru", &long)).is_ok());
        // Every point the experiments sweep passes, up to fig7c's 4×
        // full-scale point, under every policy.
        for scale in [Scale::Small, Scale::Full] {
            let points: Vec<[u64; 2]> =
                flo_bench::experiments::fig7c::sweep_points(&topology_for(scale))
                    .iter()
                    .map(|p| [p.io_cache_blocks as u64, p.storage_cache_blocks as u64])
                    .collect();
            for policy in ["lru", "karma", "demote", "mq"] {
                let env = sweep_envelope(scale_name(scale), policy, &points);
                assert!(
                    parse_envelope(&env).is_ok(),
                    "{policy} {}",
                    scale_name(scale)
                );
            }
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let j = Request::Ping.to_envelope(3, None);
        let mut buf = Vec::new();
        write_frame(&mut buf, &j).unwrap();
        let back = read_frame(&mut buf.as_slice(), &|| false).unwrap();
        assert_eq!(back.to_string(), j.to_string());

        // A hostile length header is rejected without allocating.
        let hostile = u32::MAX.to_le_bytes();
        match read_frame(&mut hostile.as_slice(), &|| false) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("wanted Malformed, got {other:?}"),
        }

        // Truncated body is malformed, not a hang or a panic.
        let mut trunc = Vec::new();
        trunc.extend_from_slice(&100u32.to_le_bytes());
        trunc.extend_from_slice(b"short");
        assert!(matches!(
            read_frame(&mut trunc.as_slice(), &|| false),
            Err(FrameError::Malformed(_))
        ));

        // Clean EOF at a boundary is Closed.
        assert!(matches!(
            read_frame(&mut [].as_slice(), &|| false),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn spliced_response_bytes_match_the_serializer() {
        let payloads = [
            Json::obj().set("pong", true),
            Json::obj()
                .set("app", "qio")
                .set("nested", Json::Arr(vec![Json::from(1u64), Json::Null]))
                .set("x", 0.5),
            Json::Arr(vec![]),
        ];
        for (i, p) in payloads.iter().enumerate() {
            let spliced = ok_response_bytes(i as u64, p.to_string().as_bytes());
            let rendered = ok_response(i as u64, p.clone()).to_string();
            assert_eq!(
                String::from_utf8(spliced).unwrap(),
                rendered,
                "splice must be byte-identical for payload {i}"
            );
            // Same equivalence with a trace echoed into the envelope.
            let spliced = ok_response_bytes_traced(i as u64, Some(999), p.to_string().as_bytes());
            let rendered = ok_response_traced(i as u64, Some(999), p.clone()).to_string();
            assert_eq!(
                String::from_utf8(spliced).unwrap(),
                rendered,
                "traced splice must be byte-identical for payload {i}"
            );
        }
    }

    #[test]
    fn response_id_scans_every_envelope_shape() {
        let ok = ok_response(42, Json::obj().set("pong", true)).to_string();
        assert_eq!(response_id(ok.as_bytes()), Some(42));
        let spliced = ok_response_bytes(7, b"{\"x\":1}");
        assert_eq!(response_id(&spliced), Some(7));
        let err = err_response(0, &ServeError::Busy).to_string();
        assert_eq!(response_id(err.as_bytes()), Some(0));
        // The trace sits after `id`, so the fixed-prefix scan is blind
        // to it — every traced shape still scans.
        let traced = ok_response_traced(13, Some(u64::MAX), Json::obj()).to_string();
        assert_eq!(response_id(traced.as_bytes()), Some(13));
        let traced = ok_response_bytes_traced(14, Some(1), b"{}");
        assert_eq!(response_id(&traced), Some(14));
        let traced = err_response_traced(15, Some(2), &ServeError::Busy).to_string();
        assert_eq!(response_id(traced.as_bytes()), Some(15));
        assert_eq!(response_id(b"{\"id\":3}"), None, "unfamiliar prefix");
        assert_eq!(response_id(b""), None);
    }

    #[test]
    fn trace_must_be_an_integer_and_never_enters_the_work_key() {
        let bad = Json::obj()
            .set("v", PROTOCOL_VERSION)
            .set("id", 1u64)
            .set("trace", "abc")
            .set("kind", "ping");
        assert!(matches!(
            parse_envelope(&bad),
            Err(ServeError::BadRequest(_))
        ));

        // Identical work, different traces: one cache/routing key.
        let req = Request::Layout {
            app: "qio".into(),
            scale: Scale::Small,
            target: TargetLayers::Both,
        };
        assert_eq!(
            work_key(&req).unwrap(),
            req.to_envelope(0, None).to_string()
        );
        assert!(
            !req.to_envelope_traced(0, None, Some(7))
                .to_string()
                .eq(&work_key(&req).unwrap()),
            "traced envelope differs from the canonical rendering"
        );
        assert!(
            work_key(&Request::Telemetry).is_none(),
            "telemetry is control"
        );
    }

    #[test]
    fn error_envelopes_carry_typed_kinds() {
        let e = err_response(5, &ServeError::Busy);
        assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            e.get("error")
                .and_then(|x| x.get("kind"))
                .and_then(Json::as_str),
            Some("busy")
        );
        let o = ok_response(5, Json::obj().set("pong", true));
        assert_eq!(o.get("ok").and_then(Json::as_bool), Some(true));
    }
}

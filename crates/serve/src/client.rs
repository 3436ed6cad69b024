//! The blocking client `floq` (and the test suites) use to talk to
//! `flod`: connect, frame requests, read response envelopes.
//!
//! Two calling styles:
//!
//! * [`Client::call`] — one request, wait for its answer (the id must
//!   match: a lone caller's responses cannot be reordered);
//! * [`Client::send`] + [`Client::recv`] — pipelining. Queue several
//!   requests without waiting, then collect responses as the server
//!   answers them *in completion order*; each response is matched back
//!   to its request by id.
//!
//! [`ClusterClient`] is the cluster-aware layer: it owns one lazily
//! connected [`Client`] per member, routes every work request to the
//! node the [`crate::cluster::HashRing`] says owns its work key, and
//! pipelines each node's share of a batch; a single request is a batch
//! of one. A dead or silent owner's keys fail over to its ring
//! successors, and the typed [`ServeError::NodeDown`] error surfaces
//! only once a key's whole chain is unreachable (the other nodes keep
//! answering).

use crate::cluster::{stable_hash64, HashRing, Member, Membership};
use crate::protocol::{
    read_frame, read_frame_bytes, response_id, work_key, write_frame, FrameError, Request,
    ServeError, TRACE_MASK,
};
use crate::resilience::{Breaker, Resilience};
use crate::server::Listen;
use flo_json::Json;
use flo_obs::Hist;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// A connected client.
pub struct Client {
    conn: Conn,
    next_id: u64,
    next_trace: u64,
}

/// The base of a client's trace-id stream: the jitter seed scrambled by
/// the splitmix64 multiplier (so `FLO_SEED=1` and `FLO_SEED=2` produce
/// far-apart streams), forced odd so consecutive ids never collide with
/// another client's stream stepping from the same base, and confined to
/// [`TRACE_MASK`] (53 bits — the JSON `f64` rail).
fn trace_base(seed: u64) -> u64 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1) & TRACE_MASK
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Decode a response envelope into the `result` payload, moved out of
/// the envelope, or the typed error the server sent.
fn decode_response(resp: Json) -> Result<Json, ServeError> {
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => match resp {
            Json::Obj(fields) => fields
                .into_iter()
                .find_map(|(k, v)| (k == "result").then_some(v)),
            _ => None,
        }
        .ok_or_else(|| ServeError::Protocol("ok response lacks `result`".into())),
        Some(false) => {
            let err = resp.get("error");
            let kind = err
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("internal");
            let message = err
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            Err(match kind {
                "protocol" => ServeError::Protocol(message),
                "bad-request" => ServeError::BadRequest(message),
                "busy" => ServeError::Busy,
                "deadline" => ServeError::DeadlineExceeded,
                "shutting-down" => ServeError::ShuttingDown,
                "node-down" => ServeError::NodeDown(message),
                _ => ServeError::Internal(message),
            })
        }
        None => Err(ServeError::Protocol("response lacks `ok`".into())),
    }
}

/// Decode a raw response envelope (as returned by [`Client::recv_raw`])
/// into the `result` payload or the typed error the server sent.
pub fn decode_envelope_bytes(bytes: &[u8]) -> Result<Json, ServeError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))?;
    let json = flo_json::parse(text)
        .map_err(|e| ServeError::Protocol(format!("response is not JSON: {e}")))?;
    decode_response(json)
}

/// The client seed behind trace ids and breaker probe jitter: `FLO_SEED`
/// when set (deterministic replay — give each client of a fleet its own
/// seed), otherwise entropy from the process id and the clock so
/// independent unseeded clients decorrelate by default.
pub fn jitter_seed_from_env() -> u64 {
    if let Ok(s) = std::env::var("FLO_SEED") {
        if let Ok(seed) = s.trim().parse::<u64>() {
            return seed;
        }
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    nanos ^ ((std::process::id() as u64) << 32)
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(listen: &Listen) -> io::Result<Client> {
        Client::connect_bounded(listen, None)
    }

    /// [`Client::connect`] with a bound on the TCP connect
    /// (`FLO_CONNECT_TIMEOUT_MS` at the cluster layer): a black-holed
    /// address — a routed-away host, a SIGSTOPped peer behind a full
    /// backlog — fails in `timeout` instead of the kernel's minutes-long
    /// SYN retry ladder. Unix-socket connects are not bounded: a dead
    /// path is refused immediately by the kernel, so there is nothing to
    /// wait out.
    pub fn connect_bounded(listen: &Listen, timeout: Option<Duration>) -> io::Result<Client> {
        let conn = match listen {
            Listen::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
            Listen::Tcp(addr) => Conn::Tcp(match timeout {
                None => TcpStream::connect(addr.as_str())?,
                Some(t) => {
                    let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("{addr}: no resolvable address"),
                        )
                    })?;
                    TcpStream::connect_timeout(&sockaddr, t)?
                }
            }),
        };
        Ok(Client {
            conn,
            next_id: 1,
            next_trace: trace_base(jitter_seed_from_env()),
        })
    }

    /// Set (or clear) the socket read timeout. With a timeout set,
    /// [`Client::try_recv_raw`] returns `Ok(None)` instead of blocking
    /// when no response arrives in time — the primitive under the cluster
    /// client's read deadline.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match &self.conn {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// The next trace id from this client's stream (53-bit, see
    /// [`TRACE_MASK`]). Callers that need one trace across several wire
    /// attempts (redials, failover replays) draw it once and pass it to
    /// the `_traced` variants.
    pub fn gen_trace(&mut self) -> u64 {
        let t = self.next_trace;
        self.next_trace = self.next_trace.wrapping_add(1) & TRACE_MASK;
        t
    }

    /// [`Client::connect`] retried until the daemon's socket appears —
    /// for harnesses that just spawned `flod` and must wait for the bind.
    pub fn connect_retry(listen: &Listen, total_wait: Duration) -> io::Result<Client> {
        let deadline = std::time::Instant::now() + total_wait;
        loop {
            match Client::connect(listen) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// Queue one request without waiting for its answer, stamped with a
    /// fresh trace id from this client's stream. Returns the request id;
    /// collect the response later with [`Client::recv`].
    pub fn send(&mut self, req: &Request, deadline_ms: Option<u64>) -> Result<u64, ServeError> {
        let trace = self.gen_trace();
        self.send_traced(req, deadline_ms, Some(trace))
    }

    /// [`Client::send`] with an explicit trace id (`None` sends an
    /// untraced frame — the server then assigns its own). The cluster
    /// layer passes the *same* trace on every attempt, so one
    /// logical request is one trace in every node's telemetry no matter
    /// how many wire attempts it took.
    pub fn send_traced(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: Option<u64>,
    ) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.conn,
            &req.to_envelope_traced(id, deadline_ms, trace),
        )
        .map_err(|e| ServeError::Protocol(format!("cannot send request: {e}")))?;
        Ok(id)
    }

    /// Read the next response envelope off the wire, whatever request it
    /// answers. Returns `(id, result-or-error)` — the server answers
    /// pipelined requests in *completion* order, not send order.
    pub fn recv(&mut self) -> Result<(u64, Result<Json, ServeError>), ServeError> {
        let resp = read_frame(&mut self.conn, &|| false).map_err(|e| match e {
            FrameError::Closed => ServeError::Protocol("server closed the connection".into()),
            other => ServeError::Protocol(other.to_string()),
        })?;
        let id = resp
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeError::Protocol("response lacks `id`".into()))?;
        Ok((id, decode_response(resp)))
    }

    /// Read the next response as raw envelope bytes plus its id — the
    /// deferred-decode path. The id is scanned from the daemon's fixed
    /// envelope prefix without a parse ([`response_id`]); a full parse
    /// is the fallback for an unfamiliar prefix. Bulk drivers collect
    /// frames at wire speed and run [`decode_envelope_bytes`] outside
    /// their hot loop.
    pub fn recv_raw(&mut self) -> Result<(u64, Vec<u8>), ServeError> {
        let bytes = read_frame_bytes(&mut self.conn, &|| false).map_err(|e| match e {
            FrameError::Closed => ServeError::Protocol("server closed the connection".into()),
            other => ServeError::Protocol(other.to_string()),
        })?;
        if let Some(id) = response_id(&bytes) {
            return Ok((id, bytes));
        }
        Self::slow_path_id(bytes)
    }

    /// [`Client::recv_raw`] that treats a read timeout before any byte as
    /// "nothing yet" (`Ok(None)`) rather than an error. Requires a read
    /// timeout on the socket ([`Client::set_read_timeout`]); without one
    /// it simply blocks like `recv_raw`.
    pub fn try_recv_raw(&mut self) -> Result<Option<(u64, Vec<u8>)>, ServeError> {
        let bytes = match read_frame_bytes(&mut self.conn, &|| false) {
            Ok(b) => b,
            Err(FrameError::Idle) => return Ok(None),
            Err(FrameError::Closed) => {
                return Err(ServeError::Protocol("server closed the connection".into()))
            }
            Err(other) => return Err(ServeError::Protocol(other.to_string())),
        };
        if let Some(id) = response_id(&bytes) {
            return Ok(Some((id, bytes)));
        }
        Self::slow_path_id(bytes).map(Some)
    }

    fn slow_path_id(bytes: Vec<u8>) -> Result<(u64, Vec<u8>), ServeError> {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))?;
        let id = flo_json::parse(text)
            .map_err(|e| ServeError::Protocol(format!("response is not JSON: {e}")))?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeError::Protocol("response lacks `id`".into()))?;
        Ok((id, bytes))
    }

    /// Send one request and wait for its response envelope. Returns the
    /// `result` payload, or the server's typed error.
    pub fn call(&mut self, req: &Request, deadline_ms: Option<u64>) -> Result<Json, ServeError> {
        let trace = self.gen_trace();
        self.call_traced(req, deadline_ms, Some(trace))
    }

    /// [`Client::call`] with an explicit trace id.
    pub fn call_traced(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: Option<u64>,
    ) -> Result<Json, ServeError> {
        let id = self.send_traced(req, deadline_ms, trace)?;
        let (got, payload) = self.recv()?;
        if got != id {
            return Err(ServeError::Protocol(format!(
                "response id {got} does not match request id {id}"
            )));
        }
        payload
    }

    /// Pipeline a whole batch on this connection: send everything, then
    /// collect every response and return the payloads in *request*
    /// order (the wire may answer in any completion order).
    pub fn call_pipelined(
        &mut self,
        reqs: &[Request],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Result<Json, ServeError>>, ServeError> {
        let mut ids = Vec::with_capacity(reqs.len());
        for req in reqs {
            ids.push(self.send(req, deadline_ms)?);
        }
        let mut by_id: Vec<(u64, Option<Result<Json, ServeError>>)> =
            Vec::with_capacity(reqs.len());
        for _ in reqs {
            let (got, payload) = self.recv()?;
            by_id.push((got, Some(payload)));
        }
        ids.iter()
            .map(|id| {
                by_id
                    .iter_mut()
                    .find(|(got, _)| got == id)
                    .and_then(|(_, payload)| payload.take())
                    .ok_or_else(|| {
                        ServeError::Protocol(format!("no response for pipelined request id {id}"))
                    })
            })
            .collect()
    }
}

/// Per-node send window for [`ClusterClient::call_many`]: at most this
/// many frames are in flight on one node's connection before responses
/// are collected, so a batch never outruns the server's bounded job
/// queue into typed `busy` errors.
pub const DEFAULT_WINDOW: usize = 16;

/// Work-request kinds with their own client-side latency accounting:
/// the read deadline keys off the per-kind p95.
const WORK_KINDS: [&str; 3] = ["layout", "simulate", "sweep"];

fn kind_index(kind: &str) -> Option<usize> {
    WORK_KINDS.iter().position(|&k| k == kind)
}

/// Per-node health the routing layer maintains: the circuit breaker
/// plus the failover tally (surfaced via [`ClusterClient::health_json`]
/// into `flotop` / `flostat`).
pub struct NodeHealth {
    /// The node's circuit breaker.
    pub breaker: Breaker,
    /// Requests routed away from this node (open breaker or failover).
    pub failovers: u64,
}

/// One [`ClusterClient::call_many_raw`] batch, as each node's exchange
/// sees it.
struct Batch<'a> {
    reqs: &'a [Request],
    /// One trace per request, drawn before anything is sent.
    traces: &'a [u64],
    deadline_ms: Option<u64>,
    window: usize,
}

/// Why a node stopped answering its share of a batch.
enum Stop {
    /// The connection turned out to be closed: the send failed or the
    /// peer hung up. A pooled connection gets one redial.
    Closed(ServeError),
    /// The connect failed, or the read deadline expired. A stalled node
    /// still accepts connections, so a redial would only wait out a
    /// second deadline.
    Down(ServeError),
}

/// A cluster-aware client: one lazily connected [`Client`] per member,
/// consistent-hash routing of work keys, per-node pipelining, and —
/// because every work result is a deterministic pure function of the
/// request — transparent ring-successor failover when a node is down.
///
/// Routing is pure — the ring is a function of the membership and the
/// request's [`work_key`] — so every `ClusterClient` over the same
/// membership file sends the same key to the same node, which is what
/// makes each node's cache the single home of its key range. The
/// failover chain ([`HashRing::fallback_chain`]) is equally pure:
/// attempt `k` of any client goes to the same k-th distinct ring
/// successor, so a failed-over key has *one* deterministic second home
/// (and third, …) whose cache warms instead of scattering the key
/// across the cluster.
///
/// Every routed request, single or batched, takes one path
/// ([`ClusterClient::call_many_raw`]) with three rules: redial a closed
/// pooled connection once, fail over along the ring, and time out a
/// silent owner. Per-node [`Breaker`]s stop a dead node from costing a
/// connect probe per call, and the fallback count
/// ([`Resilience::fallbacks`]) bounds how much extra load failover may
/// add to each request; [`ServeError::NodeDown`] is only surfaced once
/// the owner *and* every configured fallback are unreachable (or with
/// `FLO_FALLBACKS=0`, which restores strict single-owner routing).
pub struct ClusterClient {
    membership: Membership,
    ring: HashRing,
    conns: Vec<Option<Client>>,
    next_trace: u64,
    resilience: Resilience,
    health: Vec<NodeHealth>,
    /// Client-side latency (µs) of answered routed requests, per work
    /// kind, each timed from the send of its window — the read deadline
    /// derives from these p95s.
    kind_lat: [Hist; 3],
}

impl ClusterClient {
    /// A client over this membership, with the seed and resilience
    /// settings from the environment (`FLO_SEED`, `FLO_FALLBACKS`,
    /// `FLO_CONNECT_TIMEOUT_MS`).
    pub fn new(membership: Membership) -> ClusterClient {
        ClusterClient::with_resilience(membership, jitter_seed_from_env(), Resilience::from_env())
    }

    /// A client with everything explicit — chaos harnesses and tests
    /// pin the seed and the whole resilience configuration here.
    pub fn with_resilience(
        membership: Membership,
        jitter_seed: u64,
        resilience: Resilience,
    ) -> ClusterClient {
        let ring = HashRing::build(&membership);
        let conns = membership.members.iter().map(|_| None).collect();
        // Per-node breaker seeds: the client seed scrambled by the node
        // id — deterministic per (seed, membership), decorrelated per
        // node.
        let health = membership
            .members
            .iter()
            .map(|m| NodeHealth {
                breaker: Breaker::new(
                    resilience.breaker_threshold,
                    jitter_seed ^ stable_hash64(m.id.as_bytes()),
                ),
                failovers: 0,
            })
            .collect();
        ClusterClient {
            membership,
            ring,
            conns,
            // Offset from the per-connection streams so a cluster
            // client's ids do not collide with its own pooled clients'.
            next_trace: trace_base(jitter_seed ^ 0x5EED_C1A5_7E12),
            resilience,
            health,
            kind_lat: std::array::from_fn(|_| Hist::new()),
        }
    }

    /// The next trace id from this cluster client's stream — drawn once
    /// per logical request and kept across the redial and every failover
    /// hop, so a request that survives a node restart keeps its identity
    /// in the replacement connection's telemetry.
    pub fn gen_trace(&mut self) -> u64 {
        let t = self.next_trace;
        self.next_trace = self.next_trace.wrapping_add(1) & TRACE_MASK;
        t
    }

    /// The members, in membership-file order.
    pub fn members(&self) -> &[Member] {
        &self.membership.members
    }

    /// The member index owning a request's work key; `None` for control
    /// requests (`ping` / `stats` / `shutdown`), which have no single
    /// home — use [`ClusterClient::fan_out`] for those.
    pub fn node_of(&self, req: &Request) -> Option<usize> {
        work_key(req).map(|key| self.ring.node_for_key(&key))
    }

    fn node_down(&self, node: usize, why: &str) -> ServeError {
        let m = &self.membership.members[node];
        ServeError::NodeDown(format!(
            "node {} ({}) is unreachable: {why}",
            m.id,
            m.listen.describe()
        ))
    }

    /// The lazily established connection to `node`, or `NodeDown`. TCP
    /// connects are bounded by the configured `FLO_CONNECT_TIMEOUT_MS`.
    fn conn(&mut self, node: usize) -> Result<&mut Client, ServeError> {
        if self.conns[node].is_none() {
            match Client::connect_bounded(
                &self.membership.members[node].listen,
                Some(self.resilience.connect_timeout),
            ) {
                Ok(c) => self.conns[node] = Some(c),
                Err(e) => return Err(self.node_down(node, &format!("connect failed: {e}"))),
            }
        }
        Ok(self.conns[node].as_mut().expect("connection just ensured"))
    }

    /// The failover chain for a request: owner first, then the
    /// configured number of distinct ring successors. `None` for
    /// control requests.
    fn chain_of(&self, req: &Request) -> Option<Vec<usize>> {
        let max = (1 + self.resilience.fallbacks).min(self.membership.len());
        work_key(req).map(|key| self.ring.fallback_chain(&key, max))
    }

    /// The resilience configuration in effect.
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// Per-node health (breaker state, failover tally).
    pub fn node_health(&self, node: usize) -> &NodeHealth {
        &self.health[node]
    }

    /// Route one request: a batch of one through
    /// [`ClusterClient::call_many`], with the same redial, failover,
    /// read-deadline and trace rules. Typed application errors surface
    /// as the node sent them; `NodeDown` only when the whole chain is
    /// unreachable.
    pub fn call(&mut self, req: &Request, deadline_ms: Option<u64>) -> Result<Json, ServeError> {
        self.call_many(std::slice::from_ref(req), deadline_ms, 1)
            .pop()
            .expect("one request, one result")
    }

    /// Send one request to a specific node, redialing once if the
    /// pooled connection turns out to be dead (a restarted or crashed
    /// node): work requests are deterministic and response-cached, so a
    /// replay after a torn connection cannot change the answer.
    pub fn call_on(
        &mut self,
        node: usize,
        req: &Request,
        deadline_ms: Option<u64>,
    ) -> Result<Json, ServeError> {
        let trace = self.gen_trace();
        self.call_on_traced(node, req, deadline_ms, Some(trace))
    }

    /// [`ClusterClient::call_on`] with an explicit trace id. The same
    /// trace is sent on both attempts — the one drawn here survives the
    /// redial, which is what lets a failover replay be recognized in
    /// the restarted node's telemetry ring as the same logical request.
    pub fn call_on_traced(
        &mut self,
        node: usize,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: Option<u64>,
    ) -> Result<Json, ServeError> {
        let pooled = self.conns[node].is_some();
        match self.conn(node)?.call_traced(req, deadline_ms, trace) {
            Err(ServeError::Protocol(_)) if pooled => {
                // The pooled connection may have died since we last used
                // it; one redial decides between a blip and NodeDown.
                self.conns[node] = None;
                self.conn(node)?.call_traced(req, deadline_ms, trace)
            }
            other => other,
        }
    }

    /// The read timeout for collecting a window whose requests are of
    /// `kinds_present`: 8× the worst per-kind p95, clamped to
    /// [500 ms, 15 s]. `None` — block indefinitely — with failover off
    /// (there is no other node to ask), or until every present kind has
    /// at least 8 samples, so a cold cluster's first heavy computations
    /// are never cut short.
    fn batch_read_timeout(&self, kinds_present: &[bool; 3]) -> Option<Duration> {
        if self.resilience.fallbacks == 0 {
            return None;
        }
        let mut worst = 0u64;
        for (ki, present) in kinds_present.iter().enumerate() {
            if *present {
                if self.kind_lat[ki].count() < 8 {
                    return None;
                }
                worst = worst.max(self.kind_lat[ki].quantile(0.95));
            }
        }
        (worst > 0).then(|| Duration::from_micros((worst * 8).clamp(500_000, 15_000_000)))
    }

    /// Route a whole batch: group requests by owning node, pipeline each
    /// node's share in windows of `window` frames (see
    /// [`DEFAULT_WINDOW`]), and return results in *request* order. A
    /// node failing mid-batch has its unanswered requests re-routed
    /// along their fallback chains; `NodeDown` only surfaces once a
    /// request's whole chain is exhausted.
    pub fn call_many(
        &mut self,
        reqs: &[Request],
        deadline_ms: Option<u64>,
        window: usize,
    ) -> Vec<Result<Json, ServeError>> {
        self.call_many_raw(reqs, deadline_ms, window)
            .into_iter()
            .map(|r| r.and_then(|bytes| decode_envelope_bytes(&bytes)))
            .collect()
    }

    /// [`ClusterClient::call_many`] without the decode: each answered
    /// request yields its raw envelope bytes (run
    /// [`decode_envelope_bytes`] later); `Err` is reserved for
    /// transport-level failures — routing a control request
    /// (`BadRequest`) or a whole chain unreachable (`NodeDown`).
    ///
    /// Each request carries one trace from this client's stream, drawn
    /// before anything is sent and kept on every node it visits. Per
    /// node group, a pooled connection that turns out to be closed is
    /// redialed once. A connect failure, a connection that stays
    /// closed, or (once per-kind latency samples exist) a read that
    /// outlives the read deadline (8× worst per-kind p95) — the
    /// black-holed node case — marks the node's breaker and re-queues
    /// the group's unanswered requests at the next position of each
    /// one's own fallback chain.
    /// Re-routing is assignment, not broadcast: each request lands on
    /// exactly one node per round, so no duplicate responses can ever
    /// be collected.
    pub fn call_many_raw(
        &mut self,
        reqs: &[Request],
        deadline_ms: Option<u64>,
        window: usize,
    ) -> Vec<Result<Vec<u8>, ServeError>> {
        /// Chain position marking "whole chain was gated; owner forced,
        /// no further failover".
        const FORCED: usize = usize::MAX;
        let traces: Vec<u64> = reqs.iter().map(|_| self.gen_trace()).collect();
        let batch = Batch {
            reqs,
            traces: &traces,
            deadline_ms,
            window,
        };
        let mut out: Vec<Option<Result<Vec<u8>, ServeError>>> = reqs.iter().map(|_| None).collect();
        let chains: Vec<Option<Vec<usize>>> = reqs.iter().map(|r| self.chain_of(r)).collect();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            match &chains[i] {
                Some(_) => pending.push((i, 0)),
                None => {
                    out[i] = Some(Err(ServeError::BadRequest(format!(
                        "{} has no work key — control requests fan out to every node",
                        req.kind()
                    ))))
                }
            }
        }
        while !pending.is_empty() {
            // Assign every pending request to the first node at or after
            // its chain position whose breaker admits traffic. A node
            // coming out of an open period admits exactly one request —
            // the half-open probe — and the rest of its share falls
            // through to the next chain entry for this round.
            let mut by_node: Vec<Vec<(usize, usize)>> =
                self.membership.members.iter().map(|_| vec![]).collect();
            for (i, mut pos) in pending.drain(..) {
                let chain = chains[i].as_ref().expect("pending implies a chain");
                loop {
                    if pos >= chain.len() {
                        // Whole chain gated with no probe due: force the
                        // owner once so a full blip can recover.
                        by_node[chain[0]].push((i, FORCED));
                        break;
                    }
                    let node = chain[pos];
                    if self.health[node].breaker.allow() {
                        by_node[node].push((i, pos));
                        break;
                    }
                    self.health[node].failovers += 1;
                    pos += 1;
                }
            }
            for (node, slot) in by_node.iter_mut().enumerate() {
                let group = std::mem::take(slot);
                if group.is_empty() {
                    continue;
                }
                let pooled = self.conns[node].is_some();
                let mut stop = self.exchange(node, &group, &batch, &mut out).err();
                if pooled && matches!(stop, Some(Stop::Closed(_))) {
                    // The pooled connection died since its last use (a
                    // restarted node): redial once, resending only what
                    // is still unanswered, before the breaker counts a
                    // failure.
                    self.conns[node] = None;
                    let rest: Vec<(usize, usize)> = group
                        .iter()
                        .filter(|&&(i, _)| out[i].is_none())
                        .copied()
                        .collect();
                    stop = self.exchange(node, &rest, &batch, &mut out).err();
                }
                match stop {
                    None => self.health[node].breaker.on_success(),
                    Some(Stop::Closed(e) | Stop::Down(e)) => {
                        // The connection is unusable; drop it, mark the
                        // breaker, and fail the unanswered share over to
                        // each request's next chain entry.
                        self.health[node].breaker.on_failure();
                        self.conns[node] = None;
                        let unanswered: Vec<(usize, usize)> = group
                            .iter()
                            .filter(|&&(i, _)| out[i].is_none())
                            .copied()
                            .collect();
                        for (i, pos) in unanswered {
                            let chain = chains[i].as_ref().expect("pending implies a chain");
                            if pos != FORCED && pos + 1 < chain.len() {
                                self.health[node].failovers += 1;
                                pending.push((i, pos + 1));
                            } else {
                                out[i] = Some(Err(self.node_down(node, &e.to_string())));
                            }
                        }
                    }
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request answered or marked"))
            .collect()
    }

    /// Send `group`'s requests to `node` in windows of `batch.window`
    /// frames and collect their envelopes into `out`, recording each
    /// answer's latency since its window was sent. Stops at the first
    /// transport failure; the caller decides between a redial and a
    /// failover.
    fn exchange(
        &mut self,
        node: usize,
        group: &[(usize, usize)],
        batch: &Batch,
        out: &mut [Option<Result<Vec<u8>, ServeError>>],
    ) -> Result<(), Stop> {
        let mut kinds_present = [false; 3];
        for &(i, _) in group {
            if let Some(ki) = kind_index(batch.reqs[i].kind()) {
                kinds_present[ki] = true;
            }
        }
        let read_timeout = self.batch_read_timeout(&kinds_present);
        for chunk in group.chunks(batch.window.max(1)) {
            self.conn(node).map_err(Stop::Down)?;
            let client = self.conns[node].as_mut().expect("connection just ensured");
            let sent_at = Instant::now();
            let mut inflight: Vec<(u64, usize)> = Vec::with_capacity(chunk.len());
            for &(i, _) in chunk {
                let id = client
                    .send_traced(&batch.reqs[i], batch.deadline_ms, Some(batch.traces[i]))
                    .map_err(Stop::Closed)?;
                inflight.push((id, i));
            }
            if read_timeout.is_some() && client.set_read_timeout(read_timeout).is_err() {
                return Err(Stop::Closed(ServeError::Protocol(
                    "cannot set read timeout".into(),
                )));
            }
            for _ in 0..inflight.len() {
                let (id, bytes) = match client.try_recv_raw() {
                    Ok(Some(r)) => r,
                    Ok(None) => {
                        return Err(Stop::Down(ServeError::Protocol(
                            "read timed out — node unresponsive".into(),
                        )))
                    }
                    Err(e) => return Err(Stop::Closed(e)),
                };
                let Some(&(_, i)) = inflight.iter().find(|&&(sent, _)| sent == id) else {
                    return Err(Stop::Closed(ServeError::Protocol(format!(
                        "response id {id} matches no request in flight"
                    ))));
                };
                if let Some(ki) = kind_index(batch.reqs[i].kind()) {
                    self.kind_lat[ki].record(sent_at.elapsed().as_micros() as u64);
                }
                out[i] = Some(Ok(bytes));
            }
            if read_timeout.is_some() {
                let _ = client.set_read_timeout(None);
            }
        }
        Ok(())
    }

    /// Send a control request to *every* node, in membership order.
    /// Returns `(node id, result)` pairs; an unreachable node
    /// contributes its typed `NodeDown` error instead of halting the
    /// fan-out.
    pub fn fan_out(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
    ) -> Vec<(String, Result<Json, ServeError>)> {
        (0..self.membership.members.len())
            .map(|node| {
                let id = self.membership.members[node].id.clone();
                let result = self.call_on(node, req, deadline_ms);
                match &result {
                    Ok(_) => self.health[node].breaker.on_success(),
                    // Whatever failed, do not trust the pooled stream —
                    // and let the breaker learn from control-plane
                    // probes too, so `flostat health` reflects reality
                    // even on a client that only ever fans out.
                    Err(ServeError::NodeDown(_) | ServeError::Protocol(_)) => {
                        self.health[node].breaker.on_failure();
                        self.conns[node] = None;
                    }
                    Err(_) => {}
                }
                (id, result)
            })
            .collect()
    }

    /// Fan a `telemetry` request out to every node and merge the
    /// per-node snapshots into one cluster-wide view
    /// ([`flo_obs::merge_snapshots`]): histograms add, cache tallies
    /// add, the slowest-traces list is re-ranked with each entry tagged
    /// by its node. Returns `{"nodes": {...}, "merged": {...}}` plus a
    /// flag for whether any node failed to answer (its entry carries the
    /// error string; the merge covers the nodes that did answer).
    pub fn telemetry_snapshot(&mut self, deadline_ms: Option<u64>) -> (Json, bool) {
        let per_node = self.fan_out(&Request::Telemetry, deadline_ms);
        let mut nodes = Json::obj();
        let mut answered: Vec<(String, Json)> = Vec::new();
        let mut failed = false;
        for (id, result) in per_node {
            match result {
                Ok(snapshot) => {
                    nodes = nodes.set(&id, snapshot.clone());
                    answered.push((id, snapshot));
                }
                Err(e) => {
                    failed = true;
                    nodes = nodes.set(&id, Json::obj().set("error", e.to_string()));
                }
            }
        }
        let merged = flo_obs::merge_snapshots(&answered);
        (
            Json::obj()
                .set("nodes", nodes)
                .set("merged", merged)
                .set("client_health", self.health_json()),
            failed,
        )
    }

    /// The client-side view of cluster health as JSON: per-node circuit
    /// state and counters. This is what `flostat health` and the
    /// `flotop` health line render.
    pub fn health_json(&self) -> Json {
        let mut nodes = Json::obj();
        for (node, h) in self.health.iter().enumerate() {
            nodes = nodes.set(
                &self.membership.members[node].id,
                Json::obj()
                    .set("state", h.breaker.state().name())
                    .set("opens", h.breaker.opens)
                    .set("probes", h.breaker.probes)
                    .set("failovers", h.failovers),
            );
        }
        Json::obj().set("nodes", nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_maps_typed_errors() {
        let busy = crate::protocol::err_response(3, &ServeError::Busy);
        assert_eq!(decode_response(busy), Err(ServeError::Busy));
        let ok = crate::protocol::ok_response(4, Json::obj().set("pong", true));
        let payload = decode_response(ok).unwrap();
        assert_eq!(payload.get("pong").and_then(Json::as_bool), Some(true));
        for junk in [
            Json::obj().set("id", 9u64),
            Json::obj().set("id", 9u64).set("ok", true),
        ] {
            assert!(matches!(
                decode_response(junk),
                Err(ServeError::Protocol(_))
            ));
        }
    }
}

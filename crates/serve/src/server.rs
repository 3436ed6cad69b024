//! The `flod` daemon: an event-driven readiness loop over nonblocking
//! sockets, a fixed CPU worker pool, request pipelining, graceful drain.
//!
//! Threading model (PR 6 replaced the thread-per-connection design):
//!
//! * **one event thread** (the caller of [`run`]) owns the listener and
//!   every connection. A [`Poller`] (epoll on Linux, poll(2) elsewhere)
//!   reports readiness; the loop does nonblocking framed reads and
//!   writes with per-connection buffers and a partial-frame state
//!   machine (`FrameBuf`), so thousands of idle connections cost one
//!   registration each and no threads;
//! * **a fixed pool of `FLO_WORKERS` worker threads** pops CPU-bound
//!   jobs off a bounded queue, executes them over the shared
//!   [`Service`], and completes back to the event loop through a
//!   completion list plus a wakeup pipe ([`WakePair`]). A full queue is
//!   *backpressure*: the event loop answers a typed `busy` error
//!   immediately instead of queueing unboundedly.
//!
//! **Pipelining.** A client may send many request frames on one
//! connection without waiting; the loop dispatches each complete frame
//! as it parses and answers in *completion order*, with responses
//! matched to requests by `id` (control requests — `ping`, `stats`,
//! `shutdown` — are still answered inline, so they can overtake queued
//! work). Per-connection in-flight work is capped at
//! `FLO_PIPELINE_MAX`: past the cap the loop simply stops reading that
//! socket, which surfaces to the peer as ordinary transport
//! backpressure and bounds server-side buffering.
//!
//! **Graceful shutdown** (SIGTERM, SIGINT, or a `shutdown` request)
//! drains rather than drops: the listener is deregistered, every
//! connection stops reading new bytes, frames already received keep
//! being parsed and executed, and the loop runs on until every accepted
//! job has been answered and flushed. Only then does the queue close,
//! the workers join, the socket unlink, and — when `FLO_METRICS=jsonl`
//! — the per-request metrics artifact get written.

use crate::poller::{PollEvent, Poller, WakePair, WakeSender};
use crate::protocol::{
    err_response, err_response_traced, ok_response_bytes_traced, ok_response_traced,
    parse_envelope, Envelope, Request, ServeError, MAX_FRAME_BYTES, TRACE_MASK,
};
use crate::service::Service;
use crate::signal;
use flo_json::Json;
use flo_obs::{metrics_mode, JsonlSink, MetricsMode, RequestSummary, StageSample, Telemetry};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// A Unix-domain socket at this path (the default transport).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7070` (opt-in via `FLO_LISTEN=tcp:...`).
    Tcp(String),
}

impl Listen {
    /// Parse a `FLO_LISTEN` value: `tcp:ADDR` for TCP, anything else is
    /// a Unix socket path (an optional `unix:` prefix is accepted, so
    /// the address [`Listen::describe`] prints round-trips).
    pub fn parse(s: &str) -> Listen {
        match s.strip_prefix("tcp:") {
            Some(addr) => Listen::Tcp(addr.to_string()),
            None => Listen::Unix(PathBuf::from(s.strip_prefix("unix:").unwrap_or(s))),
        }
    }

    /// The default listen address: `flod.sock` under the system temp dir.
    pub fn default_socket() -> Listen {
        Listen::Unix(std::env::temp_dir().join("flod.sock"))
    }

    /// Human-readable address.
    pub fn describe(&self) -> String {
        match self {
            Listen::Unix(p) => format!("unix:{}", p.display()),
            Listen::Tcp(a) => format!("tcp:{a}"),
        }
    }
}

/// Per-node lifecycle control for in-process daemons. The chaos harness
/// and the cluster tests run several nodes inside one process, where the
/// process-wide [`signal`] flag cannot address an individual node; an
/// *armed* control gives each node its own kill switches:
///
/// * [`ServerControl::request_shutdown`] — graceful drain, like SIGTERM;
/// * [`ServerControl::halt`] — abrupt crash, like SIGKILL: the event
///   loop exits without draining, connections are torn down mid-frame,
///   the Unix socket file is left stale (a restarted node must take the
///   address over) and no metrics flush happens;
/// * [`ServerControl::set_stall`] — black hole, like SIGSTOP: the event
///   loop stops processing readiness; the kernel still accepts and
///   buffers, so clients see silence, not errors.
///
/// The `Default` control is *unarmed* (no flags allocated): the daemon
/// answers to the process-wide signal flag alone, and every check below
/// is a null-test.
#[derive(Clone, Debug, Default)]
pub struct ServerControl {
    flags: Option<Arc<ControlFlags>>,
}

#[derive(Debug, Default)]
struct ControlFlags {
    shutdown: AtomicBool,
    halt: AtomicBool,
    stall: AtomicBool,
}

impl ServerControl {
    /// A control with live flags. Clone it: one copy goes into the
    /// node's [`ServerConfig`], the driving thread keeps the other.
    pub fn armed() -> ServerControl {
        ServerControl {
            flags: Some(Arc::new(ControlFlags::default())),
        }
    }

    /// Whether this control carries flags (armed) or is the production
    /// default (unarmed).
    pub fn is_armed(&self) -> bool {
        self.flags.is_some()
    }

    /// Request a graceful drain of this node (no-op when unarmed).
    pub fn request_shutdown(&self) {
        if let Some(f) = &self.flags {
            f.shutdown.store(true, Ordering::SeqCst);
        }
    }

    /// Crash this node abruptly (no-op when unarmed).
    pub fn halt(&self) {
        if let Some(f) = &self.flags {
            f.halt.store(true, Ordering::SeqCst);
        }
    }

    /// Start or stop black-holing this node (no-op when unarmed).
    pub fn set_stall(&self, on: bool) {
        if let Some(f) = &self.flags {
            f.stall.store(on, Ordering::SeqCst);
        }
    }

    fn shutdown_requested(&self) -> bool {
        self.flags
            .as_ref()
            .is_some_and(|f| f.shutdown.load(Ordering::SeqCst))
    }

    fn halted(&self) -> bool {
        self.flags
            .as_ref()
            .is_some_and(|f| f.halt.load(Ordering::SeqCst))
    }

    fn stalled(&self) -> bool {
        self.flags
            .as_ref()
            .is_some_and(|f| f.stall.load(Ordering::SeqCst))
    }
}

/// Server configuration, normally read from the environment.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`FLO_LISTEN`).
    pub listen: Listen,
    /// Worker-pool size (`FLO_WORKERS`).
    pub workers: usize,
    /// Bounded job-queue capacity; `try_push` past this answers `busy`.
    pub queue_capacity: usize,
    /// Metrics artifact name (`FLO_RUN_NAME`, default `flod`):
    /// `results/metrics/<run>.jsonl`. Give each node of a local cluster
    /// its own name or they overwrite one another's artifact.
    pub run_name: String,
    /// Per-connection in-flight pipelining cap (`FLO_PIPELINE_MAX`):
    /// past this many dispatched-but-unanswered jobs on one connection
    /// the event loop stops reading that socket until completions land.
    pub pipeline_max: usize,
    /// Concurrent-connection cap (`FLO_MAX_CONNS`); connections past it
    /// are accepted and immediately closed.
    pub max_conns: usize,
    /// Cluster node id (`FLO_NODE_ID`): the membership-file name of this
    /// node, stamped into `stats` responses and `serve-request` metrics
    /// events so cluster runs break down per node. `-` when standalone.
    pub node_id: String,
    /// Request-level telemetry (`FLO_TELEMETRY`, default on; `0` / `off`
    /// / `false` disable): stage-latency histograms, cache-probe
    /// outcomes and the recent-request ring, served by the inline
    /// `telemetry` request.
    pub telemetry: bool,
    /// Capacity of the recent-request summary ring
    /// (`FLO_TELEMETRY_RING`, default 256; 0 keeps histograms but no
    /// per-request ring).
    pub telemetry_ring: usize,
    /// Per-node lifecycle control (unarmed by default; the chaos
    /// harness and in-process cluster tests arm it).
    pub control: ServerControl,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: Listen::default_socket(),
            workers: 4,
            queue_capacity: 32,
            run_name: "flod".to_string(),
            pipeline_max: 64,
            max_conns: 4096,
            node_id: "-".to_string(),
            telemetry: true,
            telemetry_ring: 256,
            control: ServerControl::default(),
        }
    }
}

impl ServerConfig {
    /// Configuration from `FLO_LISTEN` / `FLO_WORKERS` /
    /// `FLO_PIPELINE_MAX` / `FLO_MAX_CONNS`, with defaults sized for an
    /// interactive daemon.
    pub fn from_env() -> ServerConfig {
        let env_usize = |name: &str, min: usize| {
            std::env::var(name)
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&v| v >= min)
        };
        let listen = match std::env::var("FLO_LISTEN") {
            Ok(s) if !s.trim().is_empty() => Listen::parse(s.trim()),
            _ => Listen::default_socket(),
        };
        let workers = env_usize("FLO_WORKERS", 1).unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4)
        });
        let defaults = ServerConfig::default();
        ServerConfig {
            listen,
            workers,
            queue_capacity: workers * 8,
            run_name: match std::env::var("FLO_RUN_NAME") {
                Ok(s) if !s.trim().is_empty() => s.trim().to_string(),
                _ => defaults.run_name,
            },
            pipeline_max: env_usize("FLO_PIPELINE_MAX", 1).unwrap_or(defaults.pipeline_max),
            max_conns: env_usize("FLO_MAX_CONNS", 1).unwrap_or(defaults.max_conns),
            node_id: match std::env::var("FLO_NODE_ID") {
                Ok(s) if !s.trim().is_empty() => s.trim().to_string(),
                _ => defaults.node_id,
            },
            telemetry: match std::env::var("FLO_TELEMETRY") {
                Ok(s) => !matches!(s.trim(), "0" | "off" | "false"),
                Err(_) => defaults.telemetry,
            },
            telemetry_ring: env_usize("FLO_TELEMETRY_RING", 0).unwrap_or(defaults.telemetry_ring),
            control: ServerControl::default(),
        }
    }
}

/// A connected client stream, transport-erased. The event loop keeps
/// every stream nonblocking.
pub enum Conn {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    fn raw_fd(&self) -> RawFd {
        match self {
            Conn::Unix(s) => s.as_raw_fd(),
            Conn::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
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

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(listen: &Listen) -> io::Result<Listener> {
        match listen {
            Listen::Unix(path) => {
                // An existing path is either a live daemon (refuse — two
                // daemons silently stealing one socket is how a cluster
                // member ends up serving another member's key range), a
                // stale socket from an unclean shutdown (take over:
                // connect-probe fails, so unlink and bind), or not a
                // socket at all (refuse — never unlink a user's file).
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    use std::os::unix::fs::FileTypeExt;
                    if !meta.file_type().is_socket() {
                        return Err(io::Error::new(
                            io::ErrorKind::AlreadyExists,
                            format!(
                                "{} exists and is not a socket; refusing to replace it",
                                path.display()
                            ),
                        ));
                    }
                    match UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!("{} is owned by a live daemon; stop it or pick another FLO_LISTEN", path.display()),
                            ));
                        }
                        Err(_) => {
                            // Nobody answers: a crashed daemon's leftover.
                            std::fs::remove_file(path)?;
                        }
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l, _) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// One accept attempt: `Ok(None)` when no client is waiting. The
    /// accepted stream is left nonblocking — the event loop owns it.
    fn accept(&self) -> io::Result<Option<Conn>> {
        let conn = match self {
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Some(Conn::Unix(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Conn::Tcp(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        if let Some(c) = &conn {
            match c {
                Conn::Unix(s) => s.set_nonblocking(true)?,
                Conn::Tcp(s) => s.set_nonblocking(true)?,
            }
        }
        Ok(conn)
    }

    fn cleanup(&self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One queued request plus everything needed to answer and account it.
struct Job {
    request: Request,
    enqueued: Instant,
    deadline: Option<Instant>,
    depth_at_enqueue: usize,
    /// In-flight requests on the owning connection when this one was
    /// dispatched (1 = unpipelined) — the pipelining gauge on the
    /// `serve-request` metrics event.
    conn_inflight: usize,
    /// Connection token the response routes back to.
    token: u64,
    /// Request id, echoed in the response envelope.
    id: u64,
    /// Trace id (client-assigned or server fallback), echoed in the
    /// response envelope and stamped on telemetry.
    trace: u64,
    /// Frame-parse time measured on the event thread, carried through so
    /// the completion's stage sample covers the whole lifecycle.
    parse_us: u64,
}

/// The bounded job queue: `try_push` is the backpressure point, `pop`
/// blocks workers until a job arrives or the queue closes empty.
struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue, or answer why not: `Busy` at capacity, `ShuttingDown`
    /// after close. Returns the queue depth *including* the new job.
    fn try_push(&self, mut job: Job) -> Result<usize, ServeError> {
        let mut state = self.state.lock().unwrap();
        if state.1 {
            return Err(ServeError::ShuttingDown);
        }
        if state.0.len() >= self.capacity {
            return Err(ServeError::Busy);
        }
        let depth = state.0.len() + 1;
        job.depth_at_enqueue = depth;
        state.0.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.state.lock().unwrap().0.len()
    }
}

/// A finished job on its way back to the event loop: the full response
/// envelope, already serialized, addressed by connection token.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    /// Observability payload, built only when telemetry or JSONL metrics
    /// are on (`None` keeps the off path allocation-free). Boxed so the
    /// common completion stays two words plus the bytes.
    meta: Option<Box<CompletionMeta>>,
}

/// Everything the event thread needs to account a finished job: the
/// worker measures its own stages and timestamps the push; the event
/// thread adds the flush stage on delivery and records the whole sample
/// — *before* routing, so requests whose connection died mid-flight
/// still count.
struct CompletionMeta {
    trace: u64,
    id: u64,
    kind: &'static str,
    app: String,
    ok: bool,
    error: Option<&'static str>,
    /// Cache-probe outcome: `warm` (response-bytes hit in the worker),
    /// `dedup` (absorbed by single-flight — another worker was already
    /// computing the same work key) or `miss` (executed). Inline hits
    /// never reach a worker.
    cache: &'static str,
    queue_depth: usize,
    conn_inflight: usize,
    parse_us: u64,
    queue_us: u64,
    exec_us: u64,
    serialize_us: u64,
    /// When the worker pushed the completion; `elapsed()` at delivery is
    /// the flush stage.
    pushed: Instant,
}

/// Where workers park completions for the event loop, plus the wakeup
/// sender that makes the poller notice them.
struct CompletionQueue {
    done: Mutex<Vec<Completion>>,
    wake: WakeSender,
}

impl CompletionQueue {
    fn push(&self, c: Completion) {
        self.done.lock().unwrap().push(c);
        self.wake.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut self.done.lock().unwrap())
    }
}

/// Per-request metrics events parked until shutdown.
type Events = Arc<Mutex<Vec<Json>>>;

/// Microseconds since `t0`, as the telemetry layer's sample unit.
fn us_since(t0: Instant) -> u64 {
    t0.elapsed().as_micros() as u64
}

fn worker_loop(
    queue: Arc<JobQueue>,
    service: Arc<Service>,
    inflight: Arc<AtomicUsize>,
    completions: Arc<CompletionQueue>,
    want_meta: bool,
) {
    while let Some(job) = queue.pop() {
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        let started = Instant::now();
        inflight.fetch_add(1, Ordering::SeqCst);
        let (result, cache) = match job.deadline {
            Some(d) if Instant::now() > d => (Err(ServeError::DeadlineExceeded), "miss"),
            _ => {
                let _span = flo_obs::span("serve-request");
                service.execute_bytes_probed(&job.request)
            }
        };
        inflight.fetch_sub(1, Ordering::SeqCst);
        let exec_us = started.elapsed().as_micros() as u64;
        // The response envelope: cached result bytes spliced in on
        // success (no re-serialization), a typed error otherwise. If the
        // connection died meanwhile the event loop drops the completion;
        // the work is done and cached either way.
        let ser_started = Instant::now();
        let bytes = match &result {
            Ok(payload) => ok_response_bytes_traced(job.id, Some(job.trace), payload),
            Err(e) => err_response_traced(job.id, Some(job.trace), e)
                .to_string()
                .into_bytes(),
        };
        let serialize_us = ser_started.elapsed().as_micros() as u64;
        // All accounting rides the completion: the event thread records
        // it at delivery (adding the flush stage), so the worker's hot
        // loop touches no shared telemetry state at all.
        let meta = want_meta.then(|| {
            Box::new(CompletionMeta {
                trace: job.trace,
                id: job.id,
                kind: job.request.kind(),
                app: job.request.app().to_string(),
                ok: result.is_ok(),
                error: result.as_ref().err().map(ServeError::kind),
                cache,
                queue_depth: job.depth_at_enqueue,
                conn_inflight: job.conn_inflight,
                parse_us: job.parse_us,
                queue_us,
                exec_us,
                serialize_us,
                pushed: Instant::now(),
            })
        });
        completions.push(Completion {
            token: job.token,
            bytes,
            meta,
        });
    }
}

/// Incremental length-prefixed frame reassembly: bytes arrive in
/// arbitrary fragments (partial length prefix, split headers, frames
/// glued together); [`FrameBuf::next_frame`] yields each complete body
/// exactly once.
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

enum Extract {
    /// Not enough bytes for the next frame yet.
    NeedMore,
    /// One complete frame body.
    Frame(Vec<u8>),
    /// The length prefix itself is hostile; framing is lost for good.
    Malformed(String),
}

impl FrameBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed byte count (a nonzero value at EOF is a truncated
    /// frame).
    fn leftover(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    fn next_frame(&mut self, max_frame: usize) -> Extract {
        let avail = self.leftover();
        if avail < 4 {
            self.compact();
            return Extract::NeedMore;
        }
        let p = self.pos;
        let len = u32::from_le_bytes([
            self.buf[p],
            self.buf[p + 1],
            self.buf[p + 2],
            self.buf[p + 3],
        ]) as usize;
        if len > max_frame {
            return Extract::Malformed(format!(
                "frame of {len} bytes exceeds the {max_frame}-byte cap"
            ));
        }
        if avail - 4 < len {
            self.compact();
            return Extract::NeedMore;
        }
        let body = self.buf[p + 4..p + 4 + len].to_vec();
        self.pos += 4 + len;
        Extract::Frame(body)
    }

    /// Drop consumed bytes once they dominate the buffer, so a
    /// long-lived pipelined connection does not accrete history.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// One live connection owned by the event loop.
struct Connection {
    conn: Conn,
    token: u64,
    rbuf: FrameBuf,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Dispatched-but-unanswered jobs (the pipelining depth).
    pending: usize,
    /// No more bytes will be read: EOF, drain, or lost framing.
    read_closed: bool,
    /// Truncated-frame error already queued (answer once, like the old
    /// blocking reader did).
    truncation_answered: bool,
    /// Transport failed; discard without flushing.
    kill: bool,
    /// Interest bits currently registered with the poller.
    registered: (bool, bool),
}

impl Connection {
    fn wbuf_empty(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }

    fn queue_frame(&mut self, body: &[u8]) {
        self.wbuf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(body);
    }

    fn queue_json(&mut self, json: &Json) {
        self.queue_frame(json.to_string().as_bytes());
    }
}

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

fn conn_token(index: usize, generation: u64) -> u64 {
    (generation << 32) | (index as u64 + FIRST_CONN_TOKEN)
}

fn token_index(token: u64) -> usize {
    ((token & 0xFFFF_FFFF) - FIRST_CONN_TOKEN) as usize
}

/// The readiness loop and everything it owns.
struct EventLoop {
    poller: Poller,
    listener: Listener,
    listener_open: bool,
    wake: WakePair,
    slots: Vec<Option<Connection>>,
    free: Vec<usize>,
    generation: u64,
    live: usize,
    queue: Arc<JobQueue>,
    completions: Arc<CompletionQueue>,
    service: Arc<Service>,
    events: Events,
    inflight: Arc<AtomicUsize>,
    pipeline_max: usize,
    max_conns: usize,
    /// High-water mark of per-connection pipelining depth.
    max_conn_inflight: usize,
    draining: bool,
    node_id: Arc<str>,
    /// Request-level telemetry accumulator; `None` when `FLO_TELEMETRY`
    /// is off.
    telemetry: Option<Arc<Telemetry>>,
    /// Fallback-trace generator state for clients that send no trace:
    /// `(base + seq) & TRACE_MASK`, where the base hashes (node id, pid)
    /// so two nodes' fallback streams never collide.
    trace_base: u64,
    trace_seq: u64,
    /// Per-node lifecycle flags (unarmed outside chaos/tests).
    control: ServerControl,
}

impl EventLoop {
    /// Accept until the listener would block.
    fn accept_burst(&mut self) {
        while self.listener_open {
            match self.listener.accept() {
                Ok(Some(conn)) => {
                    if self.live >= self.max_conns {
                        // Over the connection cap: shed immediately. The
                        // peer sees a clean close before any frame.
                        drop(conn);
                        continue;
                    }
                    let index = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    self.generation += 1;
                    let token = conn_token(index, self.generation);
                    if self
                        .poller
                        .register(conn.raw_fd(), token, true, false)
                        .is_err()
                    {
                        self.free.push(index);
                        continue;
                    }
                    self.slots[index] = Some(Connection {
                        conn,
                        token,
                        rbuf: FrameBuf::default(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        pending: 0,
                        read_closed: false,
                        truncation_answered: false,
                        kill: false,
                        registered: (true, false),
                    });
                    self.live += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("flod: accept error: {e}");
                    break;
                }
            }
        }
    }

    /// Resolve a token to a live slot index, rejecting stale tokens for
    /// recycled slots.
    fn lookup(&self, token: u64) -> Option<usize> {
        let index = token_index(token);
        match self.slots.get(index) {
            Some(Some(c)) if c.token == token => Some(index),
            _ => None,
        }
    }

    /// Read until the socket would block (skipped while the pipeline
    /// cap has reading paused — kernel-buffer backpressure does the
    /// rest).
    fn fill_read(&mut self, index: usize) {
        let Some(conn) = self.slots[index].as_mut() else {
            return;
        };
        if conn.read_closed || conn.pending >= self.pipeline_max {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.conn.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => conn.rbuf.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.kill = true;
                    break;
                }
            }
        }
    }

    /// The per-connection state machine turn: parse frames, dispatch or
    /// answer inline, flush, fix poller interest, maybe close.
    fn advance(&mut self, index: usize) {
        self.process_frames(index);
        self.flush_write(index);
        self.update_interest(index);
        self.maybe_close(index);
    }

    fn process_frames(&mut self, index: usize) {
        loop {
            let Some(conn) = self.slots[index].as_mut() else {
                return;
            };
            if conn.kill || conn.pending >= self.pipeline_max {
                return;
            }
            match conn.rbuf.next_frame(MAX_FRAME_BYTES) {
                Extract::NeedMore => {
                    // EOF (or drain) with a partial frame that can never
                    // complete: answer the truncation once, then stop.
                    if conn.read_closed && conn.rbuf.leftover() > 0 && !conn.truncation_answered {
                        conn.truncation_answered = true;
                        let msg = ServeError::Protocol("stream closed mid-frame".into());
                        conn.queue_json(&err_response(0, &msg));
                        conn.rbuf.clear();
                    }
                    return;
                }
                Extract::Malformed(m) => {
                    // Framing is lost; answer once, then hang up after
                    // the flush (matching the old blocking reader).
                    conn.queue_json(&err_response(0, &ServeError::Protocol(m)));
                    conn.read_closed = true;
                    conn.rbuf.clear();
                    return;
                }
                Extract::Frame(body) => self.handle_frame(index, &body),
            }
        }
    }

    fn handle_frame(&mut self, index: usize, body: &[u8]) {
        // Stage clock: everything up to a parsed envelope is the
        // request's `parse` stage.
        let t0 = Instant::now();
        let parsed = std::str::from_utf8(body)
            .map_err(|e| format!("frame is not UTF-8: {e}"))
            .and_then(|text| flo_json::parse(text).map_err(|e| format!("frame is not JSON: {e}")));
        let json = match parsed {
            Ok(j) => j,
            Err(m) => {
                // The frame boundary held, but the body is garbage;
                // framing itself may be fine, yet the old server hung up
                // here and the fuzz suite pins that behavior.
                let conn = self.slots[index].as_mut().expect("frame on a live conn");
                conn.queue_json(&err_response(0, &ServeError::Protocol(m)));
                conn.read_closed = true;
                conn.rbuf.clear();
                return;
            }
        };
        // Best-effort id for error envelopes on requests that fail to
        // parse past the frame level (framing itself is intact here).
        let raw_id = json.get("id").and_then(Json::as_u64).unwrap_or(0);
        let Envelope {
            id,
            trace,
            deadline_ms,
            request,
        } = match parse_envelope(&json) {
            Ok(env) => env,
            Err(e) => {
                let conn = self.slots[index].as_mut().expect("conn");
                conn.queue_json(&err_response(raw_id, &e));
                return;
            }
        };
        let parse_us = t0.elapsed().as_micros() as u64;
        // Every served request carries a trace: the client's if it sent
        // one, a node-unique fallback otherwise — so JSONL events and
        // the telemetry ring can always follow a request, even from
        // clients that predate tracing.
        let trace = trace.unwrap_or_else(|| {
            self.trace_seq = self.trace_seq.wrapping_add(1);
            self.trace_base.wrapping_add(self.trace_seq) & TRACE_MASK
        });
        match request {
            // Control requests answer inline from the event thread: they
            // must overtake queued work even when every worker is busy
            // (that is what `stats` is *for*).
            Request::Ping => {
                let s0 = Instant::now();
                let resp = ok_response_traced(id, Some(trace), Json::obj().set("pong", true));
                let conn = self.slots[index].as_mut().expect("conn");
                conn.queue_json(&resp);
                self.note_inline(trace, id, "ping", true, parse_us, us_since(s0));
            }
            Request::Stats => {
                let s0 = Instant::now();
                let stats = self.stats_json();
                let conn = self.slots[index].as_mut().expect("conn");
                conn.queue_json(&ok_response_traced(id, Some(trace), stats));
                self.note_inline(trace, id, "stats", true, parse_us, us_since(s0));
            }
            Request::Telemetry => {
                let s0 = Instant::now();
                let snap = match &self.telemetry {
                    Some(t) => t
                        .snapshot()
                        .set("enabled", true)
                        .set("node", &*self.node_id),
                    None => Json::obj()
                        .set("v", flo_obs::TELEMETRY_VERSION)
                        .set("enabled", false)
                        .set("node", &*self.node_id),
                };
                let conn = self.slots[index].as_mut().expect("conn");
                conn.queue_json(&ok_response_traced(id, Some(trace), snap));
                self.note_inline(trace, id, "telemetry", true, parse_us, us_since(s0));
            }
            Request::Shutdown => {
                let conn = self.slots[index].as_mut().expect("conn");
                conn.queue_json(&ok_response_traced(
                    id,
                    Some(trace),
                    Json::obj().set("draining", true),
                ));
                conn.read_closed = true;
                // An armed control scopes the drain to this node; the
                // global flag would drain every node in the process.
                if self.control.is_armed() {
                    self.control.request_shutdown();
                } else {
                    signal::request_shutdown();
                }
                self.note_inline(trace, id, "shutdown", true, parse_us, 0);
            }
            request => {
                let conn = self.slots[index].as_mut().expect("conn");
                let token = conn.token;
                let conn_inflight = conn.pending + 1;
                // Warm fast path: when the rendered response bytes are
                // already resident, answer inline from the event thread.
                // A queue round-trip through a worker would add two
                // thread handoffs per request only to rediscover bytes
                // that are sitting ready — on a single core that is the
                // difference between wire-limited and handoff-limited
                // warm throughput.
                if let Some(payload) = self.service.cached_response_bytes(&request) {
                    let s0 = Instant::now();
                    let bytes = ok_response_bytes_traced(id, Some(trace), &payload);
                    let serialize_us = us_since(s0);
                    if metrics_mode() == MetricsMode::Jsonl {
                        let ev = Json::obj()
                            .set("request", request.kind())
                            .set("app", request.app())
                            .set("node", &*self.node_id)
                            .set("trace", trace)
                            .set("cache", "inline")
                            .set("queue_depth", self.queue.depth())
                            .set("conn_inflight", conn_inflight)
                            .set("wait_ms", 0.0)
                            .set("exec_ms", 0.0)
                            .set("parse_ms", parse_us as f64 / 1e3)
                            .set("serialize_ms", serialize_us as f64 / 1e3)
                            .set("inline", true)
                            .set("ok", true);
                        self.events.lock().unwrap().push(ev);
                    }
                    if let Some(t) = &self.telemetry {
                        t.record(RequestSummary {
                            trace,
                            id,
                            kind: request.kind(),
                            app: request.app().to_string(),
                            ok: true,
                            cache: "inline",
                            stages: StageSample {
                                parse_us,
                                serialize_us,
                                ..StageSample::default()
                            },
                        });
                    }
                    let conn = self.slots[index].as_mut().expect("conn");
                    conn.queue_frame(&bytes);
                    return;
                }
                let kind = request.kind();
                let app = request.app().to_string();
                let job = Job {
                    request,
                    enqueued: Instant::now(),
                    deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
                    depth_at_enqueue: 0,
                    conn_inflight,
                    token,
                    id,
                    trace,
                    parse_us,
                };
                match self.queue.try_push(job) {
                    Err(e) => {
                        // Backpressure refusals are telemetry too: a
                        // busy storm shows up as an error spike on the
                        // kind it starved, not as silence.
                        if let Some(t) = &self.telemetry {
                            t.record(RequestSummary {
                                trace,
                                id,
                                kind,
                                app,
                                ok: false,
                                cache: "-",
                                stages: StageSample {
                                    parse_us,
                                    ..StageSample::default()
                                },
                            });
                        }
                        let conn = self.slots[index].as_mut().expect("conn");
                        conn.queue_json(&err_response_traced(id, Some(trace), &e));
                    }
                    Ok(depth) => {
                        if let Some(t) = &self.telemetry {
                            t.record_queue_depth(depth as u64);
                        }
                        let conn = self.slots[index].as_mut().expect("conn");
                        conn.pending += 1;
                        self.max_conn_inflight = self.max_conn_inflight.max(conn.pending);
                    }
                }
            }
        }
    }

    /// Record an inline (event-thread) answer: control requests have no
    /// queue, exec, or flush stage by construction, and no cache probe
    /// (`"-"` counts under no cache outcome).
    fn note_inline(
        &self,
        trace: u64,
        id: u64,
        kind: &'static str,
        ok: bool,
        parse_us: u64,
        serialize_us: u64,
    ) {
        if let Some(t) = &self.telemetry {
            t.record(RequestSummary {
                trace,
                id,
                kind,
                app: "-".to_string(),
                ok,
                cache: "-",
                stages: StageSample {
                    parse_us,
                    serialize_us,
                    ..StageSample::default()
                },
            });
        }
    }

    fn stats_json(&self) -> Json {
        let mut j = self
            .service
            .stats()
            .set("node", &*self.node_id)
            .set("queue_depth", self.queue.depth())
            .set("queue_capacity", self.queue.capacity)
            .set("inflight", self.inflight.load(Ordering::SeqCst))
            .set("connections", self.live)
            .set("max_conn_inflight", self.max_conn_inflight);
        // Per-kind total-latency histograms ride along so cluster stats
        // fan-out can merge latency distributions, not just sum gauges.
        if let Some(t) = &self.telemetry {
            j = j.set("latency", t.latency_json());
        }
        j
    }

    fn flush_write(&mut self, index: usize) {
        let Some(conn) = self.slots[index].as_mut() else {
            return;
        };
        while conn.wpos < conn.wbuf.len() {
            match conn.conn.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.kill = true;
                    break;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.kill = true;
                    break;
                }
            }
        }
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
    }

    fn update_interest(&mut self, index: usize) {
        let pipeline_max = self.pipeline_max;
        let Some(conn) = self.slots[index].as_mut() else {
            return;
        };
        if conn.kill {
            return;
        }
        let want = (
            !conn.read_closed && conn.pending < pipeline_max,
            !conn.wbuf_empty(),
        );
        if want != conn.registered {
            let fd = conn.conn.raw_fd();
            let token = conn.token;
            if self.poller.modify(fd, token, want.0, want.1).is_ok() {
                let conn = self.slots[index].as_mut().expect("conn");
                conn.registered = want;
            }
        }
    }

    fn maybe_close(&mut self, index: usize) {
        let Some(conn) = self.slots[index].as_ref() else {
            return;
        };
        let done =
            conn.read_closed && conn.pending == 0 && conn.wbuf_empty() && conn.rbuf.leftover() < 4; // nothing extractable remains
        if conn.kill || done {
            let fd = conn.conn.raw_fd();
            let _ = self.poller.deregister(fd);
            self.slots[index] = None;
            self.free.push(index);
            self.live -= 1;
        }
    }

    /// Route finished jobs back to their connections and advance each
    /// touched connection (which also resumes reading past the pipeline
    /// cap).
    fn deliver_completions(&mut self) {
        let batch = self.completions.drain();
        let mut touched = Vec::with_capacity(batch.len());
        for c in batch {
            // Account first, route second: a request whose connection
            // died mid-flight still happened, so it still counts in the
            // histograms and the JSONL record.
            if let Some(meta) = &c.meta {
                self.finish_request(meta);
            }
            // A completion for a connection that died mid-flight is
            // dropped: the result is already in the shared cache.
            if let Some(index) = self.lookup(c.token) {
                let conn = self.slots[index].as_mut().expect("looked-up conn");
                conn.queue_frame(&c.bytes);
                conn.pending -= 1;
                if !touched.contains(&index) {
                    touched.push(index);
                }
            }
        }
        for index in touched {
            self.advance(index);
        }
    }

    /// Fold one worker-completed request into telemetry and the JSONL
    /// event list. The flush stage closes here: push-to-delivery is the
    /// cross-thread handoff the client's latency actually contains.
    fn finish_request(&self, meta: &CompletionMeta) {
        let flush_us = us_since(meta.pushed);
        if let Some(t) = &self.telemetry {
            t.record(RequestSummary {
                trace: meta.trace,
                id: meta.id,
                kind: meta.kind,
                app: meta.app.clone(),
                ok: meta.ok,
                cache: meta.cache,
                stages: StageSample {
                    parse_us: meta.parse_us,
                    queue_us: meta.queue_us,
                    exec_us: meta.exec_us,
                    serialize_us: meta.serialize_us,
                    flush_us,
                },
            });
        }
        if metrics_mode() == MetricsMode::Jsonl {
            // `wait_ms` / `exec_ms` keep their PR-5 names — flostat and
            // any downstream consumer of serve-request events read them.
            let mut ev = Json::obj()
                .set("request", meta.kind)
                .set("app", meta.app.as_str())
                .set("node", &*self.node_id)
                .set("trace", meta.trace)
                .set("cache", meta.cache)
                .set("queue_depth", meta.queue_depth)
                .set("conn_inflight", meta.conn_inflight)
                .set("wait_ms", meta.queue_us as f64 / 1e3)
                .set("exec_ms", meta.exec_us as f64 / 1e3)
                .set("parse_ms", meta.parse_us as f64 / 1e3)
                .set("serialize_ms", meta.serialize_us as f64 / 1e3)
                .set("flush_ms", flush_us as f64 / 1e3)
                .set("ok", meta.ok);
            if let Some(err) = meta.error {
                ev = ev.set("error", err);
            }
            self.events.lock().unwrap().push(ev);
        }
    }

    /// Quiesce the poller for drain: stop accepting, stop reading.
    /// Frames already buffered keep being parsed and answered — every
    /// accepted pipelined job drains through.
    fn start_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        if self.listener_open {
            // One final accept first: a client whose connect completed
            // before the shutdown instant may still be sitting in the
            // backlog (its frames count as accepted work), and closing
            // the listener over it would reset a connection we owe.
            self.accept_burst();
            let _ = self.poller.deregister(self.listener.raw_fd());
            self.listener_open = false;
        }
        for index in 0..self.slots.len() {
            // One final read first: frames the kernel already holds at
            // the shutdown instant count as accepted and must drain.
            self.fill_read(index);
            if let Some(conn) = self.slots[index].as_mut() {
                conn.read_closed = true;
            }
            self.advance(index);
        }
    }

    /// Returns `Ok(true)` when the node was halted abruptly (crash
    /// semantics — the caller must skip the graceful teardown),
    /// `Ok(false)` after a complete drain.
    fn run(&mut self) -> io::Result<bool> {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            if self.control.halted() {
                return Ok(true);
            }
            if self.control.stalled() {
                // Black hole: stop processing readiness entirely. The
                // kernel keeps accepting and buffering on our behalf —
                // peers see silence, exactly like a SIGSTOPped process.
                // Safe to skip the poll: the poller is level-triggered,
                // so pending readiness re-reports when we resume.
                thread::sleep(std::time::Duration::from_millis(5));
                continue;
            }
            if signal::shutdown_requested() || self.control.shutdown_requested() {
                self.start_drain();
            }
            if self.draining && self.live == 0 {
                return Ok(false);
            }
            // The tick is only the shutdown-signal observation cadence:
            // completions and socket readiness wake the loop themselves.
            self.poller.wait(&mut events, 50)?;
            // `wait` clears and refills; take the batch so `self` stays
            // borrowable inside the dispatch below.
            let batch = std::mem::take(&mut events);
            // Time busy ticks only: idle 50 ms timeouts would drown the
            // event-loop histogram in the poll cadence.
            let tick_start = (!batch.is_empty()).then(Instant::now);
            for ev in &batch {
                match ev.token {
                    LISTENER_TOKEN => self.accept_burst(),
                    WAKE_TOKEN => {
                        self.wake.drain();
                        self.deliver_completions();
                    }
                    token => {
                        if let Some(index) = self.lookup(token) {
                            if ev.readable {
                                self.fill_read(index);
                            }
                            self.advance(index);
                        }
                    }
                }
            }
            events = batch; // give the buffer back for reuse
                            // Completions may have landed while the wake byte raced the
                            // poll tick; drain opportunistically so drains cannot stall.
            self.deliver_completions();
            if let (Some(t0), Some(t)) = (tick_start, &self.telemetry) {
                t.record_tick(us_since(t0));
            }
        }
    }
}

/// Run the daemon until shutdown. Blocks the calling thread (which
/// becomes the event thread); returns after a complete graceful drain.
/// Sized caches come from the [`Service`] the caller builds (normally
/// [`Service::from_env`]).
pub fn run(cfg: &ServerConfig, service: Arc<Service>) -> io::Result<()> {
    let listener = Listener::bind(&cfg.listen)?;
    let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
    let events: Events = Arc::new(Mutex::new(Vec::new()));
    let inflight = Arc::new(AtomicUsize::new(0));
    let wake = WakePair::new()?;
    let completions = Arc::new(CompletionQueue {
        done: Mutex::new(Vec::new()),
        wake: wake.sender()?,
    });
    let node_id: Arc<str> = Arc::from(cfg.node_id.as_str());
    let telemetry = cfg
        .telemetry
        .then(|| Arc::new(Telemetry::new(cfg.telemetry_ring)));
    // Workers build completion metadata whenever anyone consumes it —
    // the telemetry accumulator or the JSONL sink.
    let want_meta = telemetry.is_some() || metrics_mode() == MetricsMode::Jsonl;
    let workers: Vec<thread::JoinHandle<()>> = (0..cfg.workers)
        .map(|i| {
            let q = Arc::clone(&queue);
            let svc = Arc::clone(&service);
            let inf = Arc::clone(&inflight);
            let comp = Arc::clone(&completions);
            thread::Builder::new()
                .name(format!("flod-worker-{i}"))
                .spawn(move || worker_loop(q, svc, inf, comp, want_meta))
                .expect("spawn worker thread")
        })
        .collect();
    let mut poller = Poller::new()?;
    poller.register(listener.raw_fd(), LISTENER_TOKEN, true, false)?;
    poller.register(wake.raw_fd(), WAKE_TOKEN, true, false)?;
    let mut event_loop = EventLoop {
        poller,
        listener,
        listener_open: true,
        wake,
        slots: Vec::new(),
        free: Vec::new(),
        generation: 0,
        live: 0,
        queue: Arc::clone(&queue),
        completions,
        service,
        events: Arc::clone(&events),
        inflight,
        pipeline_max: cfg.pipeline_max.max(1),
        max_conns: cfg.max_conns.max(1),
        max_conn_inflight: 0,
        draining: false,
        trace_base: crate::cluster::ring_hash64(
            format!("{}#{}", cfg.node_id, std::process::id()).as_bytes(),
        ),
        trace_seq: 0,
        node_id,
        telemetry,
        control: cfg.control.clone(),
    };
    let result = event_loop.run();
    let halted = matches!(result, Ok(true));
    if halted {
        // Crash semantics: tear every connection down mid-whatever (the
        // drop closes the fds — peers see an abrupt EOF/RST), leave the
        // socket file stale, skip the metrics flush. Workers still get
        // joined — they are this process's threads, and a wedged
        // harness would be worse than a slightly-too-graceful crash.
        event_loop.slots.clear();
        queue.close();
        for h in workers {
            let _ = h.join();
        }
        return Ok(());
    }
    // Every connection is gone, so every accepted job has been answered
    // and flushed; now the queue can close and the workers drain out.
    queue.close();
    for h in workers {
        let _ = h.join();
    }
    event_loop.listener.cleanup();
    write_metrics(&cfg.run_name, &events);
    result.map(|_| ())
}

/// Drain per-request events, harness records and phase spans into
/// `results/metrics/<run>.jsonl` (no-op unless `FLO_METRICS=jsonl`).
fn write_metrics(run: &str, events: &Events) {
    if metrics_mode() != MetricsMode::Jsonl {
        return;
    }
    let mut sink = JsonlSink::new(run);
    for ev in events.lock().unwrap().drain(..) {
        sink.push("serve-request", ev);
    }
    for (kind, payload) in flo_bench::metrics::drain_events() {
        sink.push(kind, payload);
    }
    for s in flo_obs::timeline().drain() {
        sink.push("span", s.to_json());
    }
    let path = PathBuf::from("results/metrics").join(format!("{run}.jsonl"));
    match sink.write_to(&path) {
        Ok(()) => eprintln!("flod: wrote {}", path.display()),
        Err(e) => eprintln!("flod: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_job() -> Job {
        Job {
            request: Request::Ping,
            enqueued: Instant::now(),
            deadline: None,
            depth_at_enqueue: 0,
            conn_inflight: 1,
            token: conn_token(0, 1),
            id: 7,
            trace: 7,
            parse_us: 0,
        }
    }

    #[test]
    fn queue_backpressure_is_typed() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_push(dummy_job()).unwrap(), 1);
        assert_eq!(q.try_push(dummy_job()).unwrap(), 2);
        assert_eq!(q.try_push(dummy_job()), Err(ServeError::Busy));
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(
            q.try_push(dummy_job()),
            Err(ServeError::ShuttingDown),
            "a closed queue refuses even when not full"
        );
        // Close drains: both queued jobs still pop, then None.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn listen_parses_tcp_and_unix() {
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:7070"),
            Listen::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Listen::parse("/tmp/x.sock"),
            Listen::Unix(PathBuf::from("/tmp/x.sock"))
        );
        let roundtrip = Listen::parse("/tmp/x.sock");
        assert_eq!(
            Listen::parse(&roundtrip.describe()),
            roundtrip,
            "describe() output is a valid FLO_LISTEN value"
        );
        assert!(Listen::default_socket().describe().starts_with("unix:"));
    }

    #[test]
    fn conn_tokens_embed_index_and_generation() {
        let t1 = conn_token(3, 1);
        let t2 = conn_token(3, 2);
        assert_ne!(t1, t2, "recycled slots get fresh tokens");
        assert_eq!(token_index(t1), 3);
        assert_eq!(token_index(t2), 3);
        assert!(t1 >= FIRST_CONN_TOKEN && t1 != LISTENER_TOKEN && t1 != WAKE_TOKEN);
    }

    /// Frame the body the way the wire does.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn frame_buf_reassembles_across_every_split_point() {
        let bodies: [&[u8]; 3] = [b"alpha", b"", b"gamma-delta"];
        let mut stream = Vec::new();
        for b in bodies {
            stream.extend_from_slice(&framed(b));
        }
        // Feed the byte stream one byte at a time — the cruelest split —
        // and expect exactly the three bodies, in order.
        let mut fb = FrameBuf::default();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for &byte in &stream {
            fb.push(&[byte]);
            loop {
                match fb.next_frame(MAX_FRAME_BYTES) {
                    Extract::Frame(f) => got.push(f),
                    Extract::NeedMore => break,
                    Extract::Malformed(m) => panic!("spurious malformed: {m}"),
                }
            }
        }
        assert_eq!(got, bodies.map(<[u8]>::to_vec).to_vec());
        assert_eq!(fb.leftover(), 0);
    }

    #[test]
    fn frame_buf_rejects_hostile_lengths_without_allocating() {
        let mut fb = FrameBuf::default();
        fb.push(&u32::MAX.to_le_bytes());
        match fb.next_frame(MAX_FRAME_BYTES) {
            Extract::Malformed(m) => assert!(m.contains("cap"), "{m}"),
            _ => panic!("hostile length must be malformed"),
        }
    }

    #[test]
    fn frame_buf_compacts_consumed_prefix() {
        let mut fb = FrameBuf::default();
        let body = vec![0xAB; 8 * 1024];
        fb.push(&framed(&body));
        assert!(matches!(fb.next_frame(MAX_FRAME_BYTES), Extract::Frame(_)));
        assert!(matches!(fb.next_frame(MAX_FRAME_BYTES), Extract::NeedMore));
        assert_eq!(fb.pos, 0, "consumed prefix must be dropped");
        assert!(fb.buf.is_empty());
    }

    #[test]
    fn server_config_defaults_are_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.pipeline_max >= 1);
        assert!(cfg.max_conns >= 256, "the 256-client scenario must fit");
        assert_eq!(cfg.node_id, "-", "standalone daemons report node `-`");
    }

    fn scratch_socket(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "flod-bind-{tag}-{}-{}.sock",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ))
    }

    #[test]
    fn bind_refuses_a_live_daemons_socket() {
        let path = scratch_socket("live");
        let listen = Listen::Unix(path.clone());
        let first = Listener::bind(&listen).expect("first bind owns the path");
        let clash = Listener::bind(&listen);
        match clash {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::AddrInUse);
                assert!(e.to_string().contains("live daemon"), "{e}");
            }
            Ok(_) => panic!("second bind must refuse a live socket"),
        }
        drop(first);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bind_takes_over_a_stale_socket() {
        let path = scratch_socket("stale");
        // A socket file with no listener behind it — what an unclean
        // shutdown (SIGKILL, power loss) leaves on disk.
        drop(UnixListener::bind(&path).expect("create then abandon"));
        assert!(path.exists(), "the stale socket file remains");
        let l = Listener::bind(&Listen::Unix(path.clone()))
            .expect("stale socket must be taken over, not refused");
        drop(l);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bind_never_unlinks_a_regular_file() {
        let path = scratch_socket("file");
        std::fs::write(&path, b"precious").unwrap();
        let clash = Listener::bind(&Listen::Unix(path.clone()));
        match clash {
            Err(e) => assert!(e.to_string().contains("not a socket"), "{e}"),
            Ok(_) => panic!("a regular file at the socket path must refuse the bind"),
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious",
            "the user's file survives"
        );
        let _ = std::fs::remove_file(&path);
    }
}

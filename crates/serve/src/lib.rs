//! # flo-serve
//!
//! A concurrent layout-optimization service over the experiment harness:
//! the `flod` daemon serves `layout`, `simulate` and `sweep` requests on
//! a Unix socket (or TCP via `FLO_LISTEN=tcp:...`) from a fixed worker
//! pool behind a bounded, backpressured job queue; `floq` is its
//! command-line client; `servebench` measures the throughput the shared
//! cross-request cache buys.
//!
//! The load-bearing property is *bit-identity*: a served response's
//! `result` field is byte-for-byte the JSON the same computation
//! produces in-process, because both paths run
//! [`service::Service::execute`] over the same deterministic harness
//! (`floq --direct` and the differential suite exercise exactly this).
//! The shared [`flo_bench::RunCaches`] — promoted from per-binary locals
//! to service scope, LRU-bounded by `FLO_CACHE_MB` — therefore never
//! changes an answer, only its latency.
//!
//! The transport is an event-driven readiness loop: one event thread
//! owns accept plus framed nonblocking I/O over a hand-rolled poller
//! ([`poller`], epoll on Linux), requests pipeline on a single
//! connection, and CPU work completes back from the `FLO_WORKERS` pool
//! over a wakeup pipe — so idle connections are near-free and the
//! layout engine, not the socket loop, is the bottleneck.
//!
//! Module map:
//!
//! * [`protocol`] — framing, envelopes, typed [`protocol::ServeError`]s;
//! * [`service`] — request execution over the shared caches;
//! * [`server`] — readiness loop, worker pool, queue, graceful drain;
//! * [`poller`] — dependency-free epoll/poll readiness + wakeup pipe;
//! * [`client`] — the blocking client, with pipelining, and the
//!   cluster client's one routed path;
//! * [`cluster`] — static membership + consistent-hash ring: N nodes,
//!   each the single home of its work-key range (client-side routing);
//! * [`resilience`] — per-node circuit breakers and the failover
//!   settings that make node churn transparent;
//! * [`signal`] — SIGTERM/SIGINT → drain flag, without libc.
//!
//! See README.md (quick start), DESIGN.md §2.9 (architecture and the
//! shared-cache consistency argument) and EXPERIMENTS.md (servebench).

pub mod client;
pub mod cluster;
pub mod poller;
pub mod protocol;
pub mod resilience;
pub mod server;
pub mod service;
pub mod signal;

pub use client::{Client, ClusterClient, NodeHealth};
pub use cluster::{HashRing, Member, Membership};
pub use protocol::{Request, ServeError, PROTOCOL_VERSION};
pub use resilience::{Breaker, CircuitState, Resilience};
pub use server::{Listen, ServerConfig, ServerControl};
pub use service::Service;

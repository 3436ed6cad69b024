//! # flo-obs
//!
//! Observability for the simulator and the experiment harness: the
//! paper's whole argument rests on *where* I/O time goes (per-layer hit
//! ratios, disk activity, layout-induced locality — SC 2012 §5), so the
//! reproduction must be able to explain a regression, not just detect it
//! by bit-equality. This crate provides the three pieces that make the
//! internals visible without costing the hot paths anything:
//!
//! * **[`Observer`]** — a callback trait threaded through the simulator's
//!   per-access walks as a *monomorphized* type parameter. Every method
//!   has an empty `#[inline]` default, and the [`NullObserver`]
//!   instantiation overrides nothing, so the instrumented code compiles
//!   to exactly the uninstrumented machine code. The null-observed
//!   simulator is checked bit for bit against the independent
//!   `flo_sim::simulate_oracle`, and its speed by the repository
//!   benchmark's `pipeline` and `sweep` workloads. [`MetricsObserver`] is the
//!   collecting instantiation: per-layer per-node counters, disk
//!   seek/sequential breakdowns, KARMA routing utilization,
//!   stack-distance histograms and per-set occupancy snapshots.
//!
//! * **[`span()`]** — a thread-aware hierarchical phase timer. Phases
//!   (`layout-pass`, `tracegen`, `simulate`, `sweep`, per-capacity-point
//!   simulation) record monotonic wall-clock spans onto a global
//!   [`Timeline`]; recording is off unless metrics are enabled, so idle
//!   spans cost one relaxed atomic load.
//!
//! * **[`sink`]** — a structured JSONL event sink with a schema version,
//!   plus the `FLO_METRICS=jsonl|off` toggle. The harness writes one
//!   artifact per experiment under `results/metrics/`, and `flostat`
//!   (in `flo-bench`) loads them back for per-layer breakdowns, phase
//!   summaries and A/B diffs.
//!
//! [`timing`] carries the wall-clock micro-benchmark helpers that used to
//! live in `flo_bench::timing` (the shim there is gone; this is the one
//! home).

pub mod hist;
pub mod metrics;
pub mod observer;
pub mod sink;
pub mod span;
pub mod telemetry;
pub mod timing;

pub use hist::Hist;
pub use metrics::{FaultCounters, MetricsObserver};
pub use observer::{FaultEvent, KarmaRoute, Layer, NullObserver, Observer};
pub use sink::{metrics_mode, JsonlSink, MetricsMode, SCHEMA_VERSION};
pub use span::{span, timeline, Span, SpanRecord, Timeline};
pub use telemetry::{
    merge_snapshots, render_prometheus, RequestSummary, StageSample, Telemetry, TELEMETRY_VERSION,
};

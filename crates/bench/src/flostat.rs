//! Aggregation and rendering behind the `flostat` binary.
//!
//! Loads the JSONL metrics artifacts the harness writes under
//! `results/metrics/` (see [`crate::metrics`]), folds them into
//! per-configuration layer statistics and per-phase time totals, and
//! renders them as tables — either one artifact (`flostat show`) or an
//! A/B comparison with deltas (`flostat diff`), e.g. `fig7c` under
//! inclusive LRU against `fig7c-karma`.

use crate::tablefmt::Table;
use flo_json::Json;
use flo_obs::sink::parse_jsonl;
use flo_obs::FaultCounters;
use std::collections::BTreeMap;

/// Identity of one simulated configuration inside an artifact. The
/// policy is deliberately *not* part of the key: policy A/B runs (e.g.
/// `FLO_POLICY=karma`) produce artifacts whose entries differ only in
/// policy, and the diff must line them up.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimKey {
    /// Application name.
    pub app: String,
    /// Scheme name (`default`, `inter`, ...).
    pub scheme: String,
    /// I/O-cache blocks.
    pub io_cache_blocks: u64,
    /// Storage-cache blocks.
    pub storage_cache_blocks: u64,
}

/// One `sim` event, reduced to what the tables need.
#[derive(Clone, Debug)]
pub struct SimEntry {
    /// Configuration identity.
    pub key: SimKey,
    /// Policy name.
    pub policy: String,
    /// I/O-layer (element-weighted) accesses and hits, from the report.
    pub io: (u64, u64),
    /// Storage-layer accesses and hits.
    pub storage: (u64, u64),
    /// Total and sequential disk reads.
    pub disk: (u64, u64),
    /// Execution-time estimate in ms.
    pub exec_ms: f64,
    /// Injected-fault tallies (all zero for healthy `sim` events).
    pub faults: FaultCounters,
}

impl SimEntry {
    fn ratio(pair: (u64, u64)) -> f64 {
        if pair.0 == 0 {
            0.0
        } else {
            pair.1 as f64 / pair.0 as f64
        }
    }

    /// I/O-layer hit ratio in [0, 1].
    pub fn io_hit_ratio(&self) -> f64 {
        Self::ratio(self.io)
    }

    /// Storage-layer hit ratio in [0, 1].
    pub fn storage_hit_ratio(&self) -> f64 {
        Self::ratio(self.storage)
    }

    /// Sequential fraction of disk reads in [0, 1].
    pub fn disk_sequential_fraction(&self) -> f64 {
        Self::ratio(self.disk)
    }
}

/// Accumulated span time for one phase name.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseAgg {
    /// Number of spans.
    pub count: u64,
    /// Summed elapsed wall-clock, in milliseconds.
    pub total_ms: f64,
}

/// Accumulated `serve-request` events for one (request kind, app, node)
/// triple — what `flod` writes per request when `FLO_METRICS=jsonl`.
/// Single-daemon artifacts carry node `"-"`; cluster nodes stamp their
/// `FLO_NODE_ID`, so merged artifacts break down per node.
#[derive(Clone, Debug, Default)]
pub struct ServeAgg {
    /// Requests answered successfully.
    pub ok: u64,
    /// Of `ok`, answered inline from the event thread as a
    /// response-cache hit (no worker handoff; absent in pre-cluster
    /// artifacts, which decode as 0).
    pub inline_hits: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Summed queue-wait time, ms.
    pub wait_ms: f64,
    /// Summed execution time, ms.
    pub exec_ms: f64,
    /// Summed frame-parse time, ms (absent in pre-telemetry artifacts,
    /// which decode as 0; likewise the next two).
    pub parse_ms: f64,
    /// Summed response-serialization time, ms.
    pub serialize_ms: f64,
    /// Summed completion-flush time, ms.
    pub flush_ms: f64,
    /// Maximum queue depth observed at enqueue.
    pub max_queue_depth: u64,
    /// Maximum per-connection pipelining depth observed at dispatch
    /// (1 = every request waited for its answer; absent in pre-PR-6
    /// artifacts, which decode as 0).
    pub max_conn_inflight: u64,
}

/// The lifecycle stages of one served request, in pipeline order, as
/// `(label, ms)` pairs — shared by [`ServeAgg`] means and the
/// per-trace critical-path breakdown.
pub const SERVE_STAGES: [&str; 5] = ["parse", "wait", "exec", "serialize", "flush"];

/// One trace-stamped `serve-request` event, kept verbatim so the
/// slowest requests can be broken down stage by stage. Only events that
/// carry a `trace` field land here (pre-telemetry artifacts produce
/// none).
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// The request's trace id.
    pub trace: u64,
    /// Request kind.
    pub kind: String,
    /// Application label.
    pub app: String,
    /// Serving node.
    pub node: String,
    /// Cache-probe outcome (`inline` / `warm` / `miss` / `-`).
    pub cache: String,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Per-stage wall time, parallel to [`SERVE_STAGES`].
    pub stages_ms: [f64; 5],
}

impl TraceEntry {
    /// End-to-end server-side time: the sum of the stages.
    pub fn total_ms(&self) -> f64 {
        self.stages_ms.iter().sum()
    }

    /// The critical path: the stage that dominated this request, with
    /// its share of the total.
    pub fn critical_stage(&self) -> (&'static str, f64) {
        let (i, &ms) = self
            .stages_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("five stages");
        let total = self.total_ms();
        (SERVE_STAGES[i], if total > 0.0 { ms / total } else { 0.0 })
    }
}

/// One loaded metrics artifact.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Run name from the meta line.
    pub run: String,
    /// Per-configuration entries, in artifact order.
    pub sims: Vec<SimEntry>,
    /// Phase-name → accumulated span time.
    pub phases: BTreeMap<String, PhaseAgg>,
    /// (request kind, app, node) → accumulated serve-request activity;
    /// empty for experiment artifacts, populated for `flod` runs.
    pub serves: BTreeMap<(String, String, String), ServeAgg>,
    /// Trace-stamped serve-request events, in artifact order — the raw
    /// material for [`trace_table`]'s slowest-requests breakdown.
    pub traces: Vec<TraceEntry>,
}

/// Decode a `faults` object back into counters. Absent objects (healthy
/// `sim` events, pre-fault artifacts) and absent fields decode to zero.
fn fault_counters(j: Option<&Json>) -> FaultCounters {
    let Some(j) = j else {
        return FaultCounters::default();
    };
    let u = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    FaultCounters {
        outages: u("outages"),
        failovers: u("failovers"),
        straggler_reads: u("straggler_reads"),
        straggler_ms: f("straggler_ms"),
        retries: u("retries"),
        retry_ms: f("retry_ms"),
        cache_flushes: u("cache_flushes"),
        flushed_blocks: u("flushed_blocks"),
    }
}

fn field_u64(e: &Json, key: &str) -> Result<u64, String> {
    e.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("sim event lacks `{key}`"))
}

fn field_str(e: &Json, key: &str) -> Result<String, String> {
    e.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("event lacks `{key}`"))
}

/// Parse an artifact's JSONL text (schema-checked by
/// [`parse_jsonl`]) into its table-ready aggregate.
pub fn load(text: &str) -> Result<Artifact, String> {
    let events = parse_jsonl(text)?;
    let run = field_str(&events[0], "run")?;
    let mut sims = Vec::new();
    let mut phases: BTreeMap<String, PhaseAgg> = BTreeMap::new();
    let mut serves: BTreeMap<(String, String, String), ServeAgg> = BTreeMap::new();
    let mut traces: Vec<TraceEntry> = Vec::new();
    for e in &events[1..] {
        match e.get("event").and_then(Json::as_str) {
            Some("sim") | Some("sim-fault") => {
                let report = e.get("report").ok_or("sim event lacks `report`")?;
                let layer = |name: &str| -> Result<(u64, u64), String> {
                    let l = report
                        .get("layers")
                        .and_then(|ls| ls.get(name))
                        .ok_or_else(|| format!("report lacks layer `{name}`"))?;
                    Ok((field_u64(l, "accesses")?, field_u64(l, "hits")?))
                };
                sims.push(SimEntry {
                    key: SimKey {
                        app: field_str(e, "app")?,
                        scheme: field_str(e, "scheme")?,
                        io_cache_blocks: field_u64(e, "io_cache_blocks")?,
                        storage_cache_blocks: field_u64(e, "storage_cache_blocks")?,
                    },
                    policy: field_str(e, "policy")?,
                    io: layer("io")?,
                    storage: layer("storage")?,
                    disk: (
                        field_u64(report, "disk_reads")?,
                        field_u64(report, "disk_sequential_reads")?,
                    ),
                    exec_ms: report
                        .get("execution_time_ms")
                        .and_then(Json::as_f64)
                        .ok_or("report lacks `execution_time_ms`")?,
                    faults: fault_counters(e.get("metrics").and_then(|m| m.get("faults"))),
                });
            }
            Some("span") => {
                let name = field_str(e, "name")?;
                let start = e.get("start_ms").and_then(Json::as_f64).unwrap_or(0.0);
                let end = e.get("end_ms").and_then(Json::as_f64).unwrap_or(start);
                let agg = phases.entry(name).or_default();
                agg.count += 1;
                agg.total_ms += end - start;
            }
            Some("serve-request") => {
                // Pre-cluster artifacts have no `node`; they aggregate
                // under the placeholder id a single daemon reports.
                let node = e
                    .get("node")
                    .and_then(Json::as_str)
                    .unwrap_or("-")
                    .to_string();
                let key = (field_str(e, "request")?, field_str(e, "app")?, node);
                let agg = serves.entry(key).or_default();
                if e.get("ok").and_then(Json::as_bool).unwrap_or(false) {
                    agg.ok += 1;
                    if e.get("inline").and_then(Json::as_bool).unwrap_or(false) {
                        agg.inline_hits += 1;
                    }
                } else {
                    agg.errors += 1;
                }
                let ms = |key: &str| e.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                agg.wait_ms += ms("wait_ms");
                agg.exec_ms += ms("exec_ms");
                agg.parse_ms += ms("parse_ms");
                agg.serialize_ms += ms("serialize_ms");
                agg.flush_ms += ms("flush_ms");
                agg.max_queue_depth = agg
                    .max_queue_depth
                    .max(e.get("queue_depth").and_then(Json::as_f64).unwrap_or(0.0) as u64);
                agg.max_conn_inflight = agg
                    .max_conn_inflight
                    .max(e.get("conn_inflight").and_then(Json::as_f64).unwrap_or(0.0) as u64);
                if let Some(trace) = e.get("trace").and_then(Json::as_u64) {
                    traces.push(TraceEntry {
                        trace,
                        kind: e
                            .get("request")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        app: e
                            .get("app")
                            .and_then(Json::as_str)
                            .unwrap_or("-")
                            .to_string(),
                        node: e
                            .get("node")
                            .and_then(Json::as_str)
                            .unwrap_or("-")
                            .to_string(),
                        cache: e
                            .get("cache")
                            .and_then(Json::as_str)
                            .unwrap_or("-")
                            .to_string(),
                        ok: e.get("ok").and_then(Json::as_bool).unwrap_or(false),
                        stages_ms: [
                            ms("parse_ms"),
                            ms("wait_ms"),
                            ms("exec_ms"),
                            ms("serialize_ms"),
                            ms("flush_ms"),
                        ],
                    });
                }
            }
            _ => {} // meta handled above; sweep-stream and future kinds pass through
        }
    }
    Ok(Artifact {
        run,
        sims,
        phases,
        serves,
        traces,
    })
}

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

fn delta_pp(a: f64, b: f64) -> String {
    format!("{:+.1}", (b - a) * 100.0)
}

/// Per-layer table of one artifact.
pub fn layer_table(a: &Artifact) -> Table {
    let mut t = Table::new(
        &format!("{} — per-layer statistics", a.run),
        &[
            "application",
            "scheme",
            "policy",
            "io/st blocks",
            "io hit%",
            "st hit%",
            "disk reads",
            "seq%",
            "exec ms",
        ],
    );
    for s in &a.sims {
        t.row(vec![
            s.key.app.clone(),
            s.key.scheme.clone(),
            s.policy.clone(),
            format!("{}/{}", s.key.io_cache_blocks, s.key.storage_cache_blocks),
            pct(s.io_hit_ratio()),
            pct(s.storage_hit_ratio()),
            s.disk.0.to_string(),
            pct(s.disk_sequential_fraction()),
            format!("{:.1}", s.exec_ms),
        ]);
    }
    t
}

/// Injected-fault table of one artifact: one row per configuration that
/// saw any fault activity. Empty (zero rows) for healthy artifacts —
/// callers usually skip printing it then.
pub fn fault_table(a: &Artifact) -> Table {
    let mut t = Table::new(
        &format!("{} — injected faults", a.run),
        &[
            "application",
            "scheme",
            "policy",
            "outages",
            "failovers",
            "stragglers",
            "straggler ms",
            "retries",
            "retry ms",
            "flushes",
            "flushed blocks",
        ],
    );
    for s in &a.sims {
        if !s.faults.any() {
            continue;
        }
        t.row(vec![
            s.key.app.clone(),
            s.key.scheme.clone(),
            s.policy.clone(),
            s.faults.outages.to_string(),
            s.faults.failovers.to_string(),
            s.faults.straggler_reads.to_string(),
            format!("{:.1}", s.faults.straggler_ms),
            s.faults.retries.to_string(),
            format!("{:.1}", s.faults.retry_ms),
            s.faults.cache_flushes.to_string(),
            s.faults.flushed_blocks.to_string(),
        ]);
    }
    t
}

/// Served-request table of one artifact: one row per (request kind,
/// application, node). Empty for experiment artifacts; `flod` runs with
/// `FLO_METRICS=jsonl` fill it. Single daemons show node `-`; cluster
/// artifacts break activity down per node id.
pub fn serve_table(a: &Artifact) -> Table {
    let mut t = Table::new(
        &format!("{} — served requests", a.run),
        &[
            "request",
            "application",
            "node",
            "ok",
            "inline",
            "errors",
            "mean parse ms",
            "mean wait ms",
            "mean exec ms",
            "mean ser ms",
            "mean flush ms",
            "max queue",
            "max pipeline",
        ],
    );
    for ((kind, app, node), agg) in &a.serves {
        let n = (agg.ok + agg.errors).max(1) as f64;
        t.row(vec![
            kind.clone(),
            app.clone(),
            node.clone(),
            agg.ok.to_string(),
            agg.inline_hits.to_string(),
            agg.errors.to_string(),
            format!("{:.3}", agg.parse_ms / n),
            format!("{:.3}", agg.wait_ms / n),
            format!("{:.3}", agg.exec_ms / n),
            format!("{:.3}", agg.serialize_ms / n),
            format!("{:.3}", agg.flush_ms / n),
            agg.max_queue_depth.to_string(),
            agg.max_conn_inflight.to_string(),
        ]);
    }
    t
}

/// The slowest trace-stamped requests of one artifact, one row per
/// request with its stage-by-stage breakdown and the critical path —
/// the stage that dominated, with its share of the total. This is the
/// post-hoc view over the daemon's JSONL events; the same trace ids
/// appear in `flotop`'s live slowest panel and in the `telemetry`
/// snapshot ring, so a spike can be chased across all three.
pub fn trace_table(a: &Artifact, limit: usize) -> Table {
    let mut t = Table::new(
        &format!("{} — slowest traced requests", a.run),
        &[
            "trace",
            "request",
            "application",
            "node",
            "cache",
            "ok",
            "parse ms",
            "wait ms",
            "exec ms",
            "ser ms",
            "flush ms",
            "total ms",
            "critical path",
        ],
    );
    let mut sorted: Vec<&TraceEntry> = a.traces.iter().collect();
    sorted.sort_by(|x, y| y.total_ms().total_cmp(&x.total_ms()));
    for e in sorted.iter().take(limit) {
        let (stage, share) = e.critical_stage();
        let mut row = vec![
            e.trace.to_string(),
            e.kind.clone(),
            e.app.clone(),
            e.node.clone(),
            e.cache.clone(),
            if e.ok { "yes" } else { "NO" }.to_string(),
        ];
        row.extend(e.stages_ms.iter().map(|ms| format!("{ms:.3}")));
        row.push(format!("{:.3}", e.total_ms()));
        row.push(format!("{stage} ({:.0}%)", share * 100.0));
        t.row(row);
    }
    if a.traces.len() > limit {
        t.note(format!(
            "showing the {limit} slowest of {} traced requests",
            a.traces.len()
        ));
    }
    t
}

/// Phase-time table of one artifact.
pub fn phase_table(a: &Artifact) -> Table {
    let mut t = Table::new(
        &format!("{} — phase times", a.run),
        &["phase", "spans", "total ms", "mean ms"],
    );
    for (name, agg) in &a.phases {
        t.row(vec![
            name.clone(),
            agg.count.to_string(),
            format!("{:.1}", agg.total_ms),
            format!("{:.3}", agg.total_ms / agg.count.max(1) as f64),
        ]);
    }
    t
}

/// Per-layer hit-ratio deltas between two artifacts, matched by
/// [`SimKey`]. Entries present on only one side are listed with a note.
pub fn diff_layers(a: &Artifact, b: &Artifact) -> Table {
    let index: BTreeMap<&SimKey, &SimEntry> = b.sims.iter().map(|s| (&s.key, s)).collect();
    let mut t = Table::new(
        &format!("{} vs {} — per-layer hit-ratio deltas", a.run, b.run),
        &[
            "application",
            "scheme",
            "io/st blocks",
            "policy a→b",
            "io% a",
            "io% b",
            "Δio pp",
            "st% a",
            "st% b",
            "Δst pp",
            "Δexec%",
        ],
    );
    let mut unmatched = 0usize;
    for s in &a.sims {
        let Some(o) = index.get(&s.key) else {
            unmatched += 1;
            continue;
        };
        t.row(vec![
            s.key.app.clone(),
            s.key.scheme.clone(),
            format!("{}/{}", s.key.io_cache_blocks, s.key.storage_cache_blocks),
            if s.policy == o.policy {
                s.policy.clone()
            } else {
                format!("{}→{}", s.policy, o.policy)
            },
            pct(s.io_hit_ratio()),
            pct(o.io_hit_ratio()),
            delta_pp(s.io_hit_ratio(), o.io_hit_ratio()),
            pct(s.storage_hit_ratio()),
            pct(o.storage_hit_ratio()),
            delta_pp(s.storage_hit_ratio(), o.storage_hit_ratio()),
            format!("{:+.1}", (o.exec_ms / s.exec_ms - 1.0) * 100.0),
        ]);
    }
    if unmatched > 0 {
        t.note(format!(
            "{unmatched} configuration(s) of {} have no match in {}",
            a.run, b.run
        ));
    }
    t
}

/// Phase-time deltas between two artifacts, matched by phase name.
pub fn diff_phases(a: &Artifact, b: &Artifact) -> Table {
    let mut t = Table::new(
        &format!("{} vs {} — phase-time deltas", a.run, b.run),
        &["phase", "total ms a", "total ms b", "Δms", "Δ%"],
    );
    let mut names: Vec<&String> = a.phases.keys().chain(b.phases.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let ta = a.phases.get(name).copied().unwrap_or_default().total_ms;
        let tb = b.phases.get(name).copied().unwrap_or_default().total_ms;
        let rel = if ta > 0.0 {
            format!("{:+.1}", (tb / ta - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        t.row(vec![
            name.clone(),
            format!("{ta:.1}"),
            format!("{tb:.1}"),
            format!("{:+.1}", tb - ta),
            rel,
        ]);
    }
    t
}

/// Per-node health table from a saved cluster telemetry snapshot (the
/// JSON `floq telemetry --cluster` prints, whose `client_health` section
/// is the routing client's circuit-breaker view). `None` when the
/// snapshot carries no `client_health` — e.g. a single-daemon snapshot.
pub fn health_table(snapshot: &Json) -> Option<Table> {
    let health = snapshot.get("client_health")?;
    let Some(Json::Obj(nodes)) = health.get("nodes") else {
        return None;
    };
    let u = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut t = Table::new(
        "cluster node health (client view)",
        &["node", "circuit", "opens", "probes", "failovers"],
    );
    for (id, h) in nodes {
        t.row(vec![
            id.clone(),
            h.get("state").and_then(Json::as_str).unwrap_or("?").into(),
            u(h, "opens").to_string(),
            u(h, "probes").to_string(),
            u(h, "failovers").to_string(),
        ]);
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_obs::JsonlSink;

    fn artifact(run: &str, policy: &str, io_hits: u64, span_ms: f64) -> String {
        let mut sink = JsonlSink::new(run);
        sink.push(
            "sim",
            Json::obj()
                .set("app", "qio")
                .set("scheme", "inter")
                .set("policy", policy)
                .set("io_cache_blocks", 24u64)
                .set("storage_cache_blocks", 48u64)
                .set("metrics", Json::obj())
                .set(
                    "report",
                    Json::obj()
                        .set(
                            "layers",
                            Json::obj()
                                .set(
                                    "io",
                                    Json::obj().set("accesses", 100u64).set("hits", io_hits),
                                )
                                .set(
                                    "storage",
                                    Json::obj().set("accesses", 40u64).set("hits", 10u64),
                                ),
                        )
                        .set("disk_reads", 30u64)
                        .set("disk_sequential_reads", 15u64)
                        .set("execution_time_ms", 12.5),
                ),
        );
        sink.push(
            "span",
            Json::obj()
                .set("name", "simulate")
                .set("thread", 0u64)
                .set("start_ms", 1.0)
                .set("end_ms", 1.0 + span_ms),
        );
        sink.render()
    }

    #[test]
    fn loads_and_renders_one_artifact() {
        let art = load(&artifact("fig7c", "LRU", 80, 4.0)).unwrap();
        assert_eq!(art.run, "fig7c");
        assert_eq!(art.sims.len(), 1);
        assert!((art.sims[0].io_hit_ratio() - 0.8).abs() < 1e-12);
        assert!((art.phases["simulate"].total_ms - 4.0).abs() < 1e-9);
        let rendered = format!("{}\n{}", layer_table(&art), phase_table(&art));
        assert!(rendered.contains("qio"));
        assert!(rendered.contains("simulate"));
    }

    #[test]
    fn diff_matches_configs_across_policies() {
        let a = load(&artifact("fig7c", "LRU", 80, 4.0)).unwrap();
        let b = load(&artifact("fig7c-karma", "KARMA", 60, 6.0)).unwrap();
        let layers = format!("{}", diff_layers(&a, &b));
        assert!(layers.contains("LRU→KARMA"), "{layers}");
        assert!(layers.contains("-20.0"), "io hit ratio fell 20pp: {layers}");
        let phases = format!("{}", diff_phases(&a, &b));
        assert!(phases.contains("+2.0"), "{phases}");
        assert!(phases.contains("+50.0"), "{phases}");
    }

    #[test]
    fn loads_fault_events_and_renders_fault_table() {
        let mut sink = JsonlSink::new("figr");
        sink.push(
            "sim-fault",
            Json::obj()
                .set("app", "qio")
                .set("scheme", "default")
                .set("policy", "LRU")
                .set("io_cache_blocks", 24u64)
                .set("storage_cache_blocks", 48u64)
                .set(
                    "metrics",
                    Json::obj().set(
                        "faults",
                        Json::obj()
                            .set("outages", 2u64)
                            .set("failovers", 5u64)
                            .set("straggler_reads", 7u64)
                            .set("straggler_ms", 21.5)
                            .set("retries", 3u64)
                            .set("retry_ms", 70.0)
                            .set("cache_flushes", 1u64)
                            .set("flushed_blocks", 12u64),
                    ),
                )
                .set(
                    "report",
                    Json::obj()
                        .set(
                            "layers",
                            Json::obj()
                                .set("io", Json::obj().set("accesses", 100u64).set("hits", 50u64))
                                .set(
                                    "storage",
                                    Json::obj().set("accesses", 50u64).set("hits", 10u64),
                                ),
                        )
                        .set("disk_reads", 40u64)
                        .set("disk_sequential_reads", 20u64)
                        .set("execution_time_ms", 99.0),
                ),
        );
        let art = load(&sink.render()).unwrap();
        assert_eq!(art.sims.len(), 1, "sim-fault events must load like sim");
        let faults = &art.sims[0].faults;
        assert!(faults.any());
        assert_eq!(faults.failovers, 5);
        assert_eq!(faults.flushed_blocks, 12);
        let rendered = format!("{}", fault_table(&art));
        assert!(rendered.contains("21.5"), "{rendered}");
        // Healthy artifacts produce an empty fault table.
        let healthy = load(&artifact("fig7c", "LRU", 80, 4.0)).unwrap();
        assert!(!healthy.sims[0].faults.any());
        assert_eq!(fault_table(&healthy).rows.len(), 0);
    }

    #[test]
    fn loads_serve_request_events_and_renders_serve_table() {
        let mut sink = JsonlSink::new("flod");
        for (ok, wait, exec, depth, pipelined, inline) in [
            (true, 1.0, 10.0, 3u64, 1u64, false),
            (true, 3.0, 2.0, 1, 7, true),
            (false, 0.5, 0.0, 5, 2, false),
        ] {
            let mut ev = Json::obj()
                .set("request", "simulate")
                .set("app", "qio")
                .set("node", "n1")
                .set("queue_depth", depth)
                .set("conn_inflight", pipelined)
                .set("wait_ms", wait)
                .set("exec_ms", exec)
                .set("ok", ok);
            if inline {
                ev = ev.set("inline", true);
            }
            sink.push("serve-request", ev);
        }
        // A second node: the table must keep its rows apart from n1's.
        sink.push(
            "serve-request",
            Json::obj()
                .set("request", "simulate")
                .set("app", "qio")
                .set("node", "n2")
                .set("queue_depth", 0u64)
                .set("conn_inflight", 1u64)
                .set("wait_ms", 0.2)
                .set("exec_ms", 0.1)
                .set("ok", true),
        );
        // A pre-cluster event without `node` lands on the placeholder.
        sink.push(
            "serve-request",
            Json::obj()
                .set("request", "ping")
                .set("app", "-")
                .set("queue_depth", 0u64)
                .set("conn_inflight", 1u64)
                .set("wait_ms", 0.0)
                .set("exec_ms", 0.0)
                .set("ok", true),
        );
        let art = load(&sink.render()).unwrap();
        let agg = &art.serves[&("simulate".to_string(), "qio".to_string(), "n1".to_string())];
        assert_eq!(agg.ok, 2);
        assert_eq!(agg.errors, 1);
        assert_eq!(agg.inline_hits, 1, "inline fast-path hits are counted");
        assert_eq!(agg.max_queue_depth, 5);
        assert_eq!(agg.max_conn_inflight, 7, "pipelining gauge is a max");
        assert!((agg.wait_ms - 4.5).abs() < 1e-12);
        let n2 = &art.serves[&("simulate".to_string(), "qio".to_string(), "n2".to_string())];
        assert_eq!(n2.ok, 1, "per-node rows stay separate");
        let nodeless = &art.serves[&("ping".to_string(), "-".to_string(), "-".to_string())];
        assert_eq!(nodeless.ok, 1, "events without `node` decode as `-`");
        let rendered = format!("{}", serve_table(&art));
        assert!(rendered.contains("simulate"), "{rendered}");
        assert!(rendered.contains("n1"), "node column: {rendered}");
        assert!(rendered.contains("n2"), "node column: {rendered}");
        assert!(rendered.contains("1.500"), "mean wait: {rendered}");
        assert!(rendered.contains("max pipeline"), "{rendered}");
        // Experiment artifacts have no serve rows.
        let healthy = load(&artifact("fig7c", "LRU", 80, 4.0)).unwrap();
        assert!(healthy.serves.is_empty());
    }

    #[test]
    fn loads_traced_events_and_ranks_critical_paths() {
        let mut sink = JsonlSink::new("flod");
        // Three traced requests: exec-bound, wait-bound, and a fast
        // inline hit; plus one older event without a trace id.
        for (trace, cache, parse, wait, exec, ser, flush) in [
            (901u64, "miss", 0.1, 0.2, 50.0, 0.3, 0.1),
            (902, "miss", 0.1, 30.0, 5.0, 0.2, 0.1),
            (903, "inline", 0.05, 0.0, 0.0, 0.02, 0.0),
        ] {
            sink.push(
                "serve-request",
                Json::obj()
                    .set("request", "simulate")
                    .set("app", "qio")
                    .set("node", "n1")
                    .set("trace", trace)
                    .set("cache", cache)
                    .set("queue_depth", 1u64)
                    .set("conn_inflight", 1u64)
                    .set("parse_ms", parse)
                    .set("wait_ms", wait)
                    .set("exec_ms", exec)
                    .set("serialize_ms", ser)
                    .set("flush_ms", flush)
                    .set("ok", true),
            );
        }
        sink.push(
            "serve-request",
            Json::obj()
                .set("request", "ping")
                .set("app", "-")
                .set("queue_depth", 0u64)
                .set("conn_inflight", 1u64)
                .set("wait_ms", 0.0)
                .set("exec_ms", 0.0)
                .set("ok", true),
        );
        let art = load(&sink.render()).unwrap();
        assert_eq!(art.traces.len(), 3, "only trace-stamped events collect");
        let agg = &art.serves[&("simulate".to_string(), "qio".to_string(), "n1".to_string())];
        assert!((agg.parse_ms - 0.25).abs() < 1e-9, "stage sums accumulate");
        assert!((agg.flush_ms - 0.2).abs() < 1e-9);
        // Slowest first, and the critical path names the right stage.
        let rendered = format!("{}", trace_table(&art, 2));
        let pos = |needle: &str| rendered.find(needle).unwrap_or(usize::MAX);
        assert!(
            pos("901") < pos("902"),
            "exec-bound request is slowest:\n{rendered}"
        );
        assert!(rendered.contains("exec (99%)"), "{rendered}");
        assert!(rendered.contains("wait (85%)"), "{rendered}");
        assert!(!rendered.contains("903"), "limit trims the fast inline hit");
        assert!(
            rendered.contains("showing the 2 slowest of 3"),
            "{rendered}"
        );
        // The serve table now renders per-stage means.
        let serve = format!("{}", serve_table(&art));
        assert!(serve.contains("mean parse ms"), "{serve}");
        assert!(serve.contains("mean flush ms"), "{serve}");
    }

    #[test]
    fn rejects_wrong_schema() {
        let bad = "{\"event\":\"meta\",\"schema_version\":999,\"run\":\"x\"}\n";
        assert!(load(bad).is_err());
    }
}

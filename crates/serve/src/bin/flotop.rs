//! `flotop` — a live terminal view over the serve tier's telemetry.
//!
//! ```text
//! flotop                          # watch the default daemon socket
//! flotop --tcp 127.0.0.1:7070    # watch one TCP daemon
//! flotop --cluster members.txt    # watch every node of a cluster
//! flotop --interval-ms 500 --count 4   # four samples, then exit
//! ```
//!
//! Each interval, `flotop` sends a `telemetry` request (to the one
//! daemon, or fanned out across the membership) and renders a per-node,
//! per-kind table: request rate over the last interval (computed from
//! count deltas — the daemon only ever reports monotonic totals),
//! error and cache-hit tallies, p50/p95/p99 total latency, and the
//! event-loop tick / queue-depth gauges. A trailing panel lists the
//! slowest recent traces so a tail-latency spike comes with the trace
//! ids to grep for in the JSONL metrics.
//!
//! When stdout is a terminal the screen is redrawn in place; when piped,
//! each sample prints as a plain block (so `flotop --count 1` doubles as
//! a scriptable snapshot formatter).

use flo_json::Json;
use flo_serve::protocol::Request;
use flo_serve::{Client, ClusterClient, Listen, Membership};
use std::io::IsTerminal;
use std::time::Duration;

struct Args {
    listen: Option<Listen>,
    cluster: Option<String>,
    interval_ms: u64,
    count: u64,
    deadline_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: flotop [--socket PATH | --tcp ADDR | --cluster FILE] [--interval-ms N] [--count N]
  --cluster FILE     membership file; sample every node each interval
  --interval-ms N    sampling interval (default 1000)
  --count N          number of samples, 0 = until interrupted (default 0)
  --deadline-ms N    per-request deadline forwarded to the daemon"
    );
    std::process::exit(2)
}

fn die(msg: &str) -> ! {
    eprintln!("flotop: {msg}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        cluster: None,
        interval_ms: 1000,
        count: 0,
        deadline_ms: None,
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    let num = |s: String, flag: &str| -> u64 {
        s.trim()
            .parse()
            .unwrap_or_else(|_| die(&format!("{flag}: {s:?} is not an integer")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => args.listen = Some(Listen::Unix(need(&mut it, "--socket").into())),
            "--tcp" => args.listen = Some(Listen::Tcp(need(&mut it, "--tcp"))),
            "--cluster" => args.cluster = Some(need(&mut it, "--cluster")),
            "--interval-ms" => {
                args.interval_ms = num(need(&mut it, "--interval-ms"), "--interval-ms").max(50)
            }
            "--count" => args.count = num(need(&mut it, "--count"), "--count"),
            "--deadline-ms" => {
                args.deadline_ms = Some(num(need(&mut it, "--deadline-ms"), "--deadline-ms"))
            }
            "--help" | "-h" => usage(),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    args
}

/// One sampling source: a single connection, or the cluster fan-out.
enum Source {
    Single(Listen, Option<Client>),
    Cluster(Box<ClusterClient>),
}

impl Source {
    /// Sample every node once: `(node id, snapshot-or-error)` pairs.
    fn sample(&mut self, deadline_ms: Option<u64>) -> Vec<(String, Result<Json, String>)> {
        match self {
            Source::Single(listen, conn) => {
                if conn.is_none() {
                    *conn = Client::connect(listen).ok();
                }
                let Some(client) = conn.as_mut() else {
                    return vec![(
                        listen.describe(),
                        Err(format!("cannot connect to {}", listen.describe())),
                    )];
                };
                match client.call(&Request::Telemetry, deadline_ms) {
                    Ok(snap) => {
                        let id = snap
                            .get("node")
                            .and_then(Json::as_str)
                            .unwrap_or("node")
                            .to_string();
                        vec![(id, Ok(snap))]
                    }
                    Err(e) => {
                        // Drop the connection so the next tick re-probes.
                        *conn = None;
                        vec![(listen.describe(), Err(e.to_string()))]
                    }
                }
            }
            Source::Cluster(cc) => cc
                .fan_out(&Request::Telemetry, deadline_ms)
                .into_iter()
                .map(|(id, r)| (id, r.map_err(|e| e.to_string())))
                .collect(),
        }
    }

    /// The client-side resilience view, when there is one (cluster
    /// mode; a single daemon has no routing client to be healthy about).
    fn health(&self) -> Option<Json> {
        match self {
            Source::Single(..) => None,
            Source::Cluster(cc) => Some(cc.health_json()),
        }
    }
}

/// Previous per-`(node, kind)` request totals, for rate deltas.
type Counts = Vec<((String, String), u64)>;

fn prev_count(prev: &Counts, node: &str, kind: &str) -> Option<u64> {
    prev.iter()
        .find(|((n, k), _)| n == node && k == kind)
        .map(|(_, c)| *c)
}

fn q(j: &Json, field: &str) -> u64 {
    j.get(field).and_then(Json::as_u64).unwrap_or(0)
}

/// Render one node's snapshot as table rows; returns the new counts.
fn render_node(
    out: &mut String,
    node: &str,
    snap: &Json,
    prev: &Counts,
    interval_ms: u64,
    next: &mut Counts,
) {
    if snap.get("enabled").and_then(Json::as_bool) == Some(false) {
        out.push_str(&format!(
            "  {node:<12} telemetry disabled (FLO_TELEMETRY=0)\n"
        ));
        return;
    }
    let Some(Json::Obj(kinds)) = snap.get("kinds") else {
        out.push_str(&format!("  {node:<12} (no kinds in snapshot)\n"));
        return;
    };
    for (kind, stats) in kinds {
        let count = q(stats, "count");
        let errors = q(stats, "errors");
        let cache = stats.get("cache");
        // A single-flight dedup is a hit for this purpose: the request
        // was answered without executing the work.
        let hits = cache
            .map(|c| q(c, "inline") + q(c, "warm") + q(c, "dedup"))
            .unwrap_or(0);
        let hit_pct = if count == 0 {
            0.0
        } else {
            100.0 * hits as f64 / count as f64
        };
        let rate = match prev_count(prev, node, kind) {
            Some(p) if count >= p => (count - p) as f64 * 1000.0 / interval_ms as f64,
            _ => 0.0,
        };
        let total = stats.get("total_us");
        let (p50, p95, p99) = total
            .map(|t| (q(t, "p50"), q(t, "p95"), q(t, "p99")))
            .unwrap_or((0, 0, 0));
        out.push_str(&format!(
            "  {node:<12} {kind:<10} {rate:>8.1}/s {count:>9} {errors:>6} {hit_pct:>5.1}% {p50:>8} {p95:>8} {p99:>8}\n"
        ));
        next.push(((node.to_string(), kind.clone()), count));
    }
    if let Some(ev) = snap.get("event_loop") {
        let tick = ev.get("tick_us").map(|t| (q(t, "p50"), q(t, "p99")));
        let depth = ev.get("queue_depth").map(|d| (q(d, "p50"), q(d, "max")));
        if let (Some((t50, t99)), Some((d50, dmax))) = (tick, depth) {
            out.push_str(&format!(
                "  {node:<12} event-loop tick p50/p99 {t50}/{t99} µs, queue depth p50/max {d50}/{dmax}\n"
            ));
        }
    }
}

/// The slowest traces across the sampled nodes, re-ranked.
fn render_slowest(out: &mut String, snaps: &[(String, Result<Json, String>)]) {
    let mut rows: Vec<(u64, String)> = Vec::new();
    for (node, snap) in snaps {
        let Ok(snap) = snap else { continue };
        let Some(list) = snap.get("slowest").and_then(Json::as_arr) else {
            continue;
        };
        for entry in list {
            let total = q(entry, "total_us");
            let trace = q(entry, "trace");
            let kind = entry.get("kind").and_then(Json::as_str).unwrap_or("?");
            let app = entry.get("app").and_then(Json::as_str).unwrap_or("-");
            let cache = entry.get("cache").and_then(Json::as_str).unwrap_or("-");
            let owner = entry.get("node").and_then(Json::as_str).unwrap_or(node);
            rows.push((
                total,
                format!(
                    "  trace {trace:<16} {owner:<12} {kind:<10} {app:<6} {cache:<7} exec {:>8} µs  total {total:>8} µs",
                    q(entry, "exec_us")
                ),
            ));
        }
    }
    if rows.is_empty() {
        return;
    }
    rows.sort_by_key(|(total, _)| std::cmp::Reverse(*total));
    rows.truncate(8);
    out.push_str("\nslowest recent traces:\n");
    for (_, row) in rows {
        out.push_str(&row);
        out.push('\n');
    }
}

/// Per-node circuit state and resilience counters, as this flotop's own
/// routing client observed them across its sampling fan-outs.
fn render_health(out: &mut String, health: &Json) {
    let Some(Json::Obj(nodes)) = health.get("nodes") else {
        return;
    };
    out.push_str("\nnode health (client view):\n");
    out.push_str(&format!(
        "  {:<12} {:<9} {:>6} {:>7} {:>9}\n",
        "node", "circuit", "opens", "probes", "failover"
    ));
    for (id, h) in nodes {
        out.push_str(&format!(
            "  {id:<12} {:<9} {:>6} {:>7} {:>9}\n",
            h.get("state").and_then(Json::as_str).unwrap_or("?"),
            q(h, "opens"),
            q(h, "probes"),
            q(h, "failovers"),
        ));
    }
}

fn main() {
    let args = parse_args();
    let mut source = if let Some(path) = &args.cluster {
        let membership =
            Membership::load(std::path::Path::new(path)).unwrap_or_else(|e| die(&e.to_string()));
        Source::Cluster(Box::new(ClusterClient::new(membership)))
    } else {
        let listen = args
            .listen
            .clone()
            .unwrap_or_else(|| match std::env::var("FLO_LISTEN") {
                Ok(s) if !s.trim().is_empty() => Listen::parse(s.trim()),
                _ => Listen::default_socket(),
            });
        Source::Single(listen, None)
    };
    let live = std::io::stdout().is_terminal();
    let mut prev: Counts = Vec::new();
    let mut sampled = 0u64;
    loop {
        let snaps = source.sample(args.deadline_ms);
        let mut next: Counts = Vec::new();
        let mut out = String::new();
        out.push_str(&format!(
            "flotop — {} node(s), every {} ms (sample {})\n",
            snaps.len(),
            args.interval_ms,
            sampled + 1
        ));
        out.push_str(&format!(
            "  {:<12} {:<10} {:>10} {:>9} {:>6} {:>6} {:>8} {:>8} {:>8}\n",
            "node", "kind", "rate", "count", "err", "hit%", "p50µs", "p95µs", "p99µs"
        ));
        for (node, snap) in &snaps {
            match snap {
                Ok(s) => render_node(&mut out, node, s, &prev, args.interval_ms, &mut next),
                Err(e) => out.push_str(&format!("  {node:<12} DOWN: {e}\n")),
            }
        }
        render_slowest(&mut out, &snaps);
        if let Some(h) = source.health() {
            render_health(&mut out, &h);
        }
        if live {
            // Redraw in place: clear, home, then the frame.
            print!("\x1b[2J\x1b[H{out}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        } else {
            println!("{out}");
        }
        prev = next;
        sampled += 1;
        if args.count > 0 && sampled >= args.count {
            break;
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

//! The pieces every workload shares: seeded op orders, the percentile
//! rule, the checked-in reference tables, per-layer time accounting and
//! process memory.

use crate::Args;
use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a reported percentile. A "p99"
/// over 64 samples is a maximum; this rule refuses it.
pub const MIN_BEYOND: usize = 10;

/// The splitmix64 finalizer: a bijection on `u64` with full avalanche.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator (splitmix64). The benchmark's op orders and
/// request streams come from here, never from the program under test.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The first `ops` entries of the seeded op sequence over `universe`
/// items: back-to-back rounds, each an independent seeded permutation,
/// so every whole round does exactly the same work in a different order.
/// A pure function of `(seed, universe, ops)`; a longer list extends a
/// shorter one.
pub fn op_order(seed: u64, universe: usize, ops: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(ops);
    let mut round = 0u64;
    while out.len() < ops {
        round += 1;
        let mut rng = SplitMix64::new(mix(seed) ^ mix(round));
        let mut perm: Vec<usize> = (0..universe).collect();
        for i in (1..universe).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let take = (ops - out.len()).min(universe);
        out.extend_from_slice(&perm[..take]);
    }
    out
}

/// Whole rounds of `universe` ops to run: as many as fit `seconds` at
/// `nominal_op_s` per op, at least one, and at least enough ops for a
/// median with [`MIN_BEYOND`] samples beyond it. The count depends only
/// on the arguments, never on measured time, so every run with the same
/// `--seconds` does the same work.
pub fn rounds_for(seconds: u64, universe: usize, nominal_op_s: f64) -> usize {
    let by_time = (seconds as f64 / (nominal_op_s * universe as f64)).round() as usize;
    let by_median = (2 * MIN_BEYOND).div_ceil(universe);
    by_time.max(by_median).max(1)
}

/// One nearest-rank percentile and the sample it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile, 1..=99.
    pub q: u32,
    /// Index into the sorted samples of the sample reported.
    pub rank: usize,
    /// Samples strictly beyond `rank`.
    pub beyond: usize,
    pub samples: usize,
}

/// The nearest-rank `q`-th percentile of `n` sorted samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(n: usize, q: u32) -> Option<Percentile> {
    if n == 0 || !(1..=99).contains(&q) {
        return None;
    }
    let rank = (q as usize * n).div_ceil(100).max(1) - 1;
    let beyond = n - rank - 1;
    (beyond >= MIN_BEYOND).then_some(Percentile {
        q,
        rank,
        beyond,
        samples: n,
    })
}

/// The highest integer percentile (at most p99) that `n` samples support
/// under [`percentile`]'s rule: p99 from 1000 samples up, lower below.
pub fn tail_percentile(n: usize) -> Option<Percentile> {
    (50..=99).rev().find_map(|q| percentile(n, q))
}

/// `sorted[p.rank]` in milliseconds, logging which sample it is.
pub fn report_ms(what: &str, sorted_ns: &[u64], p: Percentile) -> f64 {
    let ms = sorted_ns[p.rank] as f64 / 1e6;
    eprintln!(
        "perfbench: {what} = p{} of {} samples ({} beyond) = {ms:.4} ms",
        p.q, p.samples, p.beyond
    );
    ms
}

/// The Harrell–Davis estimate of percentile `p` over `sorted_ns`, in
/// milliseconds, logging it next to the nearest-rank sample.
///
/// A batch run has a few dozen ops of very different cost, so a single
/// order statistic jumps by the gap to its neighbour whenever host noise
/// reorders the ops around its rank. Harrell–Davis estimates the same
/// percentile as a Beta(q(n+1), (1−q)(n+1))-weighted mean of all order
/// statistics, which spreads that jump over the ranks near `p.rank`.
/// [`percentile`]'s rule still decides which percentile a count supports.
pub fn report_hd_ms(what: &str, sorted_ns: &[u64], p: Percentile) -> f64 {
    let ms = harrell_davis(sorted_ns, p.q as f64 / 100.0) / 1e6;
    eprintln!(
        "perfbench: {what} = p{} of {} samples ({} beyond the nearest rank, {:.4} ms) = {ms:.4} ms (Harrell–Davis)",
        p.q,
        p.samples,
        p.beyond,
        sorted_ns[p.rank] as f64 / 1e6
    );
    ms
}

/// The Harrell–Davis estimator of quantile `q` (in `(0, 1)`) of a
/// non-empty sorted sample: Σ w_i x_(i), where w_i is the mass that
/// Beta(q(n+1), (1−q)(n+1)) puts on ((i−1)/n, i/n].
pub fn harrell_davis(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let upto = beta_inc(a, b, (i + 1) as f64 / n);
        sum += (upto - below) * x as f64;
        below = upto;
    }
    sum
}

/// ln Γ(x) for x ≥ 0.5 (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function I_x(a, b), from its
/// continued fraction on whichever side of the mean converges fast.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of I_x(a, b), evaluated by Lentz's method.
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    let floor = |v: f64| if v.abs() < 1e-300 { 1e-300 } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / floor(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=1000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / floor(1.0 + even * d);
        c = floor(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / floor(1.0 + odd * d);
        c = floor(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The measured phase of a batch workload (`pipeline`, `sweep`).
pub struct Batch<R> {
    /// Median set-up time in seconds, over one [`probe_setup`] per op.
    pub setup_s: f64,
    /// Per-op results and latencies, in op order.
    pub results: Vec<R>,
    pub lat_ns: Vec<u64>,
    /// Wall time of the ops.
    pub wall: Duration,
}

/// Run `op` over `ops` in order against `setup`, timing each op. Before
/// every op, off its clock and out of the wall time, one set-up is timed
/// in a fresh process with [`probe_setup`]: a set-up timed once reads
/// whatever the shared host is doing at that instant, while the median
/// over set-ups spread across the run is as steady as the run's other
/// numbers.
pub fn measure_batch<S, R>(
    args: &Args,
    setup: &S,
    ops: &[usize],
    op: impl Fn(&S, usize) -> R,
) -> Result<Batch<R>, String> {
    let mut setup_times = Vec::with_capacity(ops.len());
    let mut results = Vec::with_capacity(ops.len());
    let mut lat_ns = Vec::with_capacity(ops.len());
    let mut wall = Duration::ZERO;
    for &o in ops {
        setup_times.push(probe_setup(args)?);
        let t = Instant::now();
        results.push(op(setup, o));
        let elapsed = t.elapsed();
        lat_ns.push(elapsed.as_nanos() as u64);
        wall += elapsed;
    }
    Ok(Batch {
        setup_s: setup_median(&setup_times),
        results,
        lat_ns,
        wall,
    })
}

/// The line a `--setup-probe 1` process prints once it is ready for its
/// first op.
const READY: &str = "ready";

/// Time one set-up from process start to the first op: spawn this
/// binary again with the same arguments and `--setup-probe 1`, so it
/// builds the workload's set-up in a fresh process, prints [`READY`] and
/// exits, and take the time from the spawn to that line. Every sample
/// pays process start and every one-time cost of the set-up (lazy
/// statics, first calls, page faults), as the run's own set-up does.
/// The probe is waited for before this returns.
pub fn probe_setup(args: &Args) -> Result<f64, String> {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-probe", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let mut line = String::new();
    let read =
        std::io::BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let secs = t.elapsed().as_secs_f64();
    if read.is_err() || line.trim_end() != READY {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    if line.trim_end() != READY || !status.success() {
        return Err(format!(
            "set-up probe did not get ready ({status}, read {read:?}, line {line:?})"
        ));
    }
    Ok(secs)
}

/// `setup_s`: the median of the probed set-up times, logging the spread.
pub fn setup_median(times: &[f64]) -> f64 {
    let m = median(times);
    let (lo, hi) = times
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    eprintln!(
        "perfbench: setup_s = median of {} set-up probes = {m:.6} s (min {lo:.6}, max {hi:.6})",
        times.len()
    );
    m
}

/// Tell the spawning [`probe_setup`] that this probe is ready.
pub fn ready() -> Result<(), String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{READY}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("set-up probe: {e}"))
}

/// The end-to-end metrics of a batch workload (`pipeline`, `sweep`)
/// from its op latencies and the wall time of the measured phase. The
/// percentiles are Harrell–Davis estimates (see [`report_hd_ms`]).
pub fn batch_metrics(
    setup_s: f64,
    lat_ns: &[u64],
    wall: Duration,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let p50 = percentile(n, 50).ok_or(format!("{n} ops cannot support a median"))?;
    let tail = tail_percentile(n).ok_or(format!("{n} ops cannot support a tail"))?;
    Ok(vec![
        ("setup_s", setup_s),
        ("ops_per_s", n as f64 / wall.as_secs_f64()),
        ("lat_p50_ms", report_hd_ms("lat_p50_ms", &sorted, p50)),
        ("lat_tail_ms", report_hd_ms("lat_tail_ms", &sorted, tail)),
        ("peak_rss_mb", peak_rss_mb()?),
    ])
}

/// A checked-in result table (`results/fig7*.txt`): a title line, a
/// header line starting with `application`, a rule, one row per app,
/// then notes. Cells are kept as printed, so a comparison is exact at
/// the printed precision.
#[derive(Debug)]
pub struct RefTable {
    headers: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl RefTable {
    pub fn parse(text: &str) -> Result<RefTable, String> {
        let mut lines = text.lines();
        let headers: Vec<String> = lines
            .by_ref()
            .find(|l| l.split_whitespace().next() == Some("application"))
            .ok_or("no `application` header line")?
            .split_whitespace()
            .skip(1)
            .map(String::from)
            .collect();
        let rows = lines
            .map(|l| l.split_whitespace().map(String::from).collect::<Vec<_>>())
            .filter(|t| !t.is_empty() && !t[0].starts_with('-') && t[0] != "note:")
            .map(|mut t| {
                let name = t.remove(0);
                (name, t)
            })
            .collect();
        Ok(RefTable { headers, rows })
    }

    /// Load and parse `path`; any failure is kept as the error every
    /// lookup then returns, so a missing table fails every op.
    pub fn load(path: &str) -> Result<RefTable, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RefTable::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The printed cell of row `app`, column `header`. A missing row or
    /// column, a row of the wrong width, or a cell that is not a number
    /// is an error, never a pass.
    pub fn cell(&self, app: &str, header: &str) -> Result<&str, String> {
        let col = self
            .headers
            .iter()
            .position(|h| h == header)
            .ok_or_else(|| format!("no column {header:?}"))?;
        let mut found = self.rows.iter().filter(|(name, _)| name == app);
        let (_, cells) = found.next().ok_or_else(|| format!("no row {app:?}"))?;
        if found.next().is_some() {
            return Err(format!("row {app:?} appears twice"));
        }
        if cells.len() != self.headers.len() {
            return Err(format!(
                "row {app:?} has {} cells, expected {}",
                cells.len(),
                self.headers.len()
            ));
        }
        let cell = cells[col].as_str();
        cell.parse::<f64>()
            .map_err(|_| format!("row {app:?} column {header:?}: {cell:?} is not a number"))?;
        Ok(cell)
    }
}

/// Whether `value`, printed as the experiment binaries print it (three
/// decimals), equals the reference cell.
pub fn matches_reference(
    table: &Result<RefTable, String>,
    app: &str,
    header: &str,
    value: f64,
) -> bool {
    let cell = match table {
        Ok(t) => t.cell(app, header),
        Err(e) => Err(e.clone()),
    };
    match cell {
        Ok(want) if format!("{value:.3}") == want => true,
        Ok(want) => {
            eprintln!("perfbench: MISMATCH {app} {header}: got {value:.3}, reference {want}");
            false
        }
        Err(e) => {
            eprintln!("perfbench: reference error for {app} {header}: {e}");
            false
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Busy time and work counts of one layer across a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub calls: u64,
    pub busy: Duration,
    /// Trace entries the calls processed.
    pub entries: u64,
    /// Capacity points the calls evaluated (sweeps only).
    pub points: u64,
}

impl Acc {
    /// Time one call into the layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.busy += t.elapsed();
        self.calls += 1;
        out
    }

    fn ms(&self) -> f64 {
        self.busy.as_secs_f64() * 1e3
    }

    fn ns_per_entry(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.busy.as_secs_f64() * 1e9 / self.entries as f64
        }
    }
}

/// The compute layers a recomposed `pipeline` or `sweep` op calls, plus
/// the op wall time they must account for.
#[derive(Debug, Default)]
pub struct Layers {
    pub pass: Acc,
    pub tracegen: Acc,
    pub karma: Acc,
    pub simulate: Acc,
    pub sweep: Acc,
    /// A separate drain of the simulator's interleaver over each
    /// simulated trace set: part of `simulate`/`sweep`'s work, timed on
    /// its own and kept out of both the layer sum and the op wall time.
    pub interleave: Acc,
    /// The recomposed sweep's grouping of points by
    /// `FileLayout::fingerprint_all`: work of the benchmark, not of the
    /// program (the harness keys its memo another way), so it is kept
    /// out of the layer sum and the op wall time and not reported.
    pub grouping: Duration,
    /// Recomposed op wall time, without the interleave drains and the
    /// grouping.
    pub op_wall: Duration,
}

impl Layers {
    /// Time spent in benchmark-only work so far.
    fn off_clock(&self) -> Duration {
        self.interleave.busy + self.grouping
    }

    /// Per-layer metrics: times are mean busy time per op, counts are
    /// totals. `untraced` is the same op list's wall time without the
    /// recomposition.
    pub fn metrics(&self, ops: usize, untraced: Duration) -> Vec<(&'static str, f64)> {
        let per_op = |a: &Acc| a.ms() / ops as f64;
        let covered = self.pass.busy
            + self.tracegen.busy
            + self.karma.busy
            + self.simulate.busy
            + self.sweep.busy;
        vec![
            ("sim.simulate.calls", self.simulate.calls as f64),
            ("sim.simulate.ms", per_op(&self.simulate)),
            ("sim.simulate.entries", self.simulate.entries as f64),
            ("sim.simulate.ns_per_entry", self.simulate.ns_per_entry()),
            ("sim.interleave.ms", per_op(&self.interleave)),
            ("bench.karma_hints.calls", self.karma.calls as f64),
            ("bench.karma_hints.ms", per_op(&self.karma)),
            ("core.tracegen.calls", self.tracegen.calls as f64),
            ("core.tracegen.ms", per_op(&self.tracegen)),
            ("core.tracegen.entries", self.tracegen.entries as f64),
            ("core.tracegen.ns_per_entry", self.tracegen.ns_per_entry()),
            ("core.pass.calls", self.pass.calls as f64),
            ("core.pass.ms", per_op(&self.pass)),
            ("sim.sweep.calls", self.sweep.calls as f64),
            ("sim.sweep.ms", per_op(&self.sweep)),
            ("sim.sweep.points", self.sweep.points as f64),
            ("sim.sweep.ns_per_entry", self.sweep.ns_per_entry()),
            (
                "trace.coverage",
                covered.as_secs_f64() / self.op_wall.as_secs_f64(),
            ),
            (
                "trace.overhead",
                self.op_wall.as_secs_f64() / untraced.as_secs_f64(),
            ),
        ]
    }
}

/// The traced pass of a batch workload: recompose every op with
/// `traced`, which times its calls into the layers, and require each
/// result to equal the untraced op's bit for bit (`bits` renders a
/// result exactly). `wall` is the untraced pass's wall time.
pub fn recompose<R: std::fmt::Debug>(
    ops: &[usize],
    untraced: &[Result<R, String>],
    wall: Duration,
    mut traced: impl FnMut(usize, &mut Layers) -> Result<R, String>,
    bits: impl Fn(&R) -> Vec<u64>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut layers = Layers::default();
    for (&o, want) in ops.iter().zip(untraced) {
        let t = Instant::now();
        let before = layers.off_clock();
        let got = traced(o, &mut layers)?;
        layers.op_wall += t.elapsed() - (layers.off_clock() - before);
        if want.as_ref().ok().map(&bits) != Some(bits(&got)) {
            return Err(format!(
                "recomposed op {o} = {got:?} differs from the harness result {want:?}"
            ));
        }
    }
    Ok(layers.metrics(ops.len(), wall))
}

/// Drain the simulator's interleaved access stream over `traces` — the
/// walk `simulate` and `simulate_sweep` both make — and time it.
pub fn time_interleave(acc: &mut Acc, traces: &[flo_sim::ThreadTrace]) {
    let sum = acc.time(|| {
        flo_sim::JitterInterleaver::new(traces, flo_sim::sim::INTERLEAVE_SEED)
            .fold(0u64, |a, (t, e)| a.wrapping_add(e.block.index ^ t as u64))
    });
    std::hint::black_box(sum);
    acc.entries += traces.iter().map(|t| t.len() as u64).sum::<u64>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_and_other_seed_other_order() {
        let a = op_order(7, 48, 96);
        assert_eq!(a, op_order(7, 48, 96));
        assert_ne!(a, op_order(8, 48, 96));
        // A longer list extends a shorter one: the order is a pure
        // function of (seed, op count).
        assert_eq!(&op_order(7, 48, 200)[..96], &a[..]);
        // Every whole round is a permutation of the universe.
        for round in a.chunks(48) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..48).collect::<Vec<_>>());
        }
    }

    #[test]
    fn percentile_rule_refuses_a_p99_from_64_samples() {
        assert_eq!(percentile(64, 99), None);
        assert_eq!(percentile(999, 99), None);
        let p = percentile(1000, 99).expect("1000 samples support a p99");
        assert_eq!((p.rank, p.beyond), (989, 10));
        let p50 = percentile(20, 50).expect("20 samples support a median");
        assert_eq!((p50.rank, p50.beyond), (9, 10));
        assert_eq!(percentile(16, 50), None);
        // The tail is the highest percentile the count supports.
        assert_eq!(tail_percentile(64).map(|p| p.q), Some(84));
        assert_eq!(tail_percentile(20_000).map(|p| p.q), Some(99));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn rounds_cover_the_median_rule() {
        // 16 rows per round cannot hold a median with 10 beyond: two.
        assert_eq!(rounds_for(1, 16, 1.0), 2);
        assert_eq!(rounds_for(1, 8, 1.0), 3);
        assert_eq!(rounds_for(20, 48, 0.45), 1);
        assert_eq!(rounds_for(80, 48, 0.45), 4);
    }

    #[test]
    fn harrell_davis_matches_reference_values() {
        // Reference values from mpmath's regularized incomplete beta at
        // 30 digits.
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
        assert!(close(beta_inc(2.5, 4.5, 0.3), 0.406_539_016_682_459_25));
        assert!(close(beta_inc(38.71, 10.29, 0.8), 0.541_725_568_348_763_2));
        assert!(close(harrell_davis(&[1, 2, 4, 8, 16], 0.5), 5.04032));
        let squares: Vec<u64> = (1..=48).map(|i| i * i).collect();
        assert!(close(
            harrell_davis(&squares, 0.79),
            1_483.824_405_286_875_9
        ));
        // Symmetric samples have their middle as the median; a constant
        // sample is its own every percentile.
        let ten: Vec<u64> = (1..=10).collect();
        assert!(close(harrell_davis(&ten, 0.5), 5.5));
        assert!(close(harrell_davis(&[7; 48], 0.79), 7.0));
    }

    #[test]
    fn harrell_davis_spreads_a_rank_gap_that_nearest_rank_jumps() {
        // 48 ops with a wide gap right at the p79 rank (index 37): the
        // nearest-rank p79 jumps from 500 to 1000 when one op slows from
        // below the gap to above it; Harrell–Davis moves a fraction of
        // that.
        let mut ops: Vec<u64> = (0..48).map(|i| if i < 38 { 500 } else { 1000 }).collect();
        let p = percentile(48, 79).unwrap();
        let before = (ops[p.rank], harrell_davis(&ops, 0.79));
        ops[37] = 1000;
        let after = (ops[p.rank], harrell_davis(&ops, 0.79));
        assert_eq!((before.0, after.0), (500, 1000));
        assert!(after.1 - before.1 < 0.25 * 500.0, "{before:?} → {after:?}");
    }

    const TABLE: &str = "Fig. 7(h) — title
application    LRU  KARMA[47]  DEMOTE-LRU[44]
---------------------------------------------
   cc-ver-1  1.000      1.000           1.000
       twer  1.003      0.999           0.995
         bt  0.900      0.898           0.900
    AVERAGE  0.968      0.966           0.965
  note: a note
";

    #[test]
    fn reference_table_reads_cells_by_row_and_column() {
        let t = RefTable::parse(TABLE).unwrap();
        assert_eq!(t.cell("twer", "KARMA[47]"), Ok("0.999"));
        assert_eq!(t.cell("bt", "DEMOTE-LRU[44]"), Ok("0.900"));
        assert!(t.cell("swim", "LRU").is_err());
        assert!(t.cell("bt", "MQ").is_err());
    }

    #[test]
    fn reference_table_reordered_rows_and_columns_still_match() {
        let reordered = "title
application  DEMOTE-LRU[44]  LRU  KARMA[47]
-------------------------------------------
         bt  0.900  0.900  0.898
       twer  0.995  1.003  0.999
";
        let t = RefTable::parse(reordered).unwrap();
        assert_eq!(t.cell("twer", "LRU"), Ok("1.003"));
        assert_eq!(t.cell("bt", "KARMA[47]"), Ok("0.898"));
    }

    #[test]
    fn reference_table_truncated_rows_fail_and_never_pass() {
        // Cut mid-row: `bt` lost a cell, and every later row is gone.
        let cut = &TABLE[..TABLE.find("0.898").unwrap()];
        let t = Ok(RefTable::parse(cut).unwrap());
        assert!(matches_reference(&t, "twer", "LRU", 1.003));
        assert!(!matches_reference(&t, "bt", "LRU", 0.9));
        assert!(!matches_reference(&t, "AVERAGE", "LRU", 0.968));
        // Cut before the header: nothing can pass.
        assert!(RefTable::parse("Fig. 7(h) — title\n").is_err());
        let missing = RefTable::load("no/such/table.txt");
        assert!(!matches_reference(&missing, "bt", "LRU", 0.9));
        // An unparsable cell is an error, not a string match.
        let junk = Ok(RefTable::parse("t\napplication LRU\nbt 0.9x\n").unwrap());
        assert!(!matches_reference(&junk, "bt", "LRU", 0.9));
    }

    #[test]
    fn three_decimal_comparison_is_exact() {
        let t = Ok(RefTable::parse(TABLE).unwrap());
        assert!(matches_reference(&t, "bt", "KARMA[47]", 0.89849));
        assert!(!matches_reference(&t, "bt", "KARMA[47]", 0.8986));
    }
}

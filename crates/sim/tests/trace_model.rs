//! `ThreadTrace`'s stored form against an independent model.
//!
//! A trace stores each request packed into 8 bytes and escapes the ones
//! that do not fit. Both trace generators, the simulator and the oracle
//! read traces through that one type, so their differential suites
//! cannot see an encoding bug. This suite holds the type to a plain
//! `Vec<TraceEntry>` that coalesces by the documented rule: a run to the
//! same block as the previous request adds to its count.
//!
//! Deterministic SplitMix64 case generation; failures carry a case index
//! for replay.

use flo_linalg::SplitMix64;
use flo_sim::{BlockAddr, JitterInterleaver, ThreadTrace, TraceEntry};

/// Block indices at and across the packed `u32` width.
const INDICES: [u64; 8] = [
    0,
    65_535,
    65_536,
    u32::MAX as u64 - 1,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    1 << 40,
    u64::MAX,
];

/// File ids at and across the packed `u16` width (`u16::MAX` is the
/// escape marker's value).
const FILES: [u32; 6] = [
    0,
    u16::MAX as u32 - 1,
    u16::MAX as u32,
    u16::MAX as u32 + 1,
    1 << 24,
    u32::MAX,
];

/// Run lengths at and across the packed `u16` width; pairs of them sum
/// across it.
const COUNTS: [u32; 8] = [1, 2, 32_767, 32_768, 65_534, 65_535, 65_536, 1 << 20];

/// The model: the coalescing rule over a plain entry vector.
#[derive(Default)]
struct Model {
    entries: Vec<TraceEntry>,
}

impl Model {
    fn push_run(&mut self, block: BlockAddr, count: u32) {
        match self.entries.last_mut() {
            Some(last) if last.block == block => last.count += count,
            _ => self.entries.push(TraceEntry { block, count }),
        }
    }
}

fn pick<T: Copy>(rng: &mut SplitMix64, values: &[T]) -> T {
    values[rng.below(values.len() as u64) as usize]
}

/// A block that is small half the time (so small blocks recur) and
/// drawn from the width edges otherwise.
fn draw_block(rng: &mut SplitMix64) -> BlockAddr {
    let file = if rng.bool() {
        pick(rng, &FILES)
    } else {
        rng.below(3) as u32
    };
    let index = if rng.bool() {
        pick(rng, &INDICES)
    } else {
        rng.below(4)
    };
    BlockAddr::new(file, index)
}

/// One random run sequence: half the runs repeat the previous block, so
/// coalescing (and counts summing across `u16::MAX`) is common. At most
/// 64 runs of at most 2^20 keep every sum below `u32::MAX`.
fn draw_runs(rng: &mut SplitMix64) -> Vec<(BlockAddr, u32)> {
    let len = rng.range_usize(0, 64);
    let mut runs: Vec<(BlockAddr, u32)> = Vec::with_capacity(len);
    for _ in 0..len {
        let block = match runs.last() {
            Some(&(prev, _)) if rng.bool() => prev,
            _ => draw_block(rng),
        };
        let count = if rng.bool() {
            pick(rng, &COUNTS)
        } else {
            rng.range_usize(1, 9) as u32
        };
        runs.push((block, count));
    }
    runs
}

/// Record `runs` through `push` for unit runs and `push_run` otherwise.
fn build(thread: usize, runs: &[(BlockAddr, u32)]) -> ThreadTrace {
    let mut trace = ThreadTrace::new(thread, thread);
    for &(block, count) in runs {
        if count == 1 {
            trace.push(block);
        } else {
            trace.push_run(block, count);
        }
    }
    trace
}

fn model_of(runs: &[(BlockAddr, u32)]) -> Model {
    let mut model = Model::default();
    for &(block, count) in runs {
        model.push_run(block, count);
    }
    model
}

fn fits(e: &TraceEntry) -> bool {
    e.block.index <= u32::MAX as u64 && e.block.file < u16::MAX as u32 && e.count <= u16::MAX as u32
}

/// Every reader of `trace` against the model.
fn assert_matches(case: usize, trace: &ThreadTrace, model: &Model) {
    let want = &model.entries;
    assert_eq!(trace.len(), want.len(), "case {case}: len");
    assert_eq!(trace.is_empty(), want.is_empty(), "case {case}: is_empty");
    assert_eq!(
        trace.entries().len(),
        want.len(),
        "case {case}: entries().len()"
    );
    assert_eq!(
        &trace.entries().collect::<Vec<_>>(),
        want,
        "case {case}: entries"
    );
    assert_eq!(
        trace.blocks().collect::<Vec<_>>(),
        want.iter().map(|e| e.block).collect::<Vec<_>>(),
        "case {case}: blocks"
    );
    assert_eq!(
        trace.element_accesses(),
        want.iter().map(|e| u64::from(e.count)).sum::<u64>(),
        "case {case}: element_accesses"
    );
    let mut distinct: Vec<BlockAddr> = want.iter().map(|e| e.block).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        trace.distinct_blocks(),
        distinct.len(),
        "case {case}: distinct_blocks"
    );
    let escaped = want.iter().filter(|e| !fits(e)).count();
    assert_eq!(
        trace.stored_bytes(),
        8 * want.len() + std::mem::size_of::<TraceEntry>() * escaped,
        "case {case}: stored_bytes"
    );
}

#[test]
fn stored_form_matches_the_coalescing_model() {
    let mut rng = SplitMix64::new(0x7AC3);
    for case in 0..600 {
        let runs = draw_runs(&mut rng);
        // Check after every run, not only at the end: an escape that
        // corrupts a later coalesce shows at the step it happens.
        let mut trace = ThreadTrace::new(0, 0);
        let mut model = Model::default();
        for &(block, count) in &runs {
            trace.push_run(block, count);
            model.push_run(block, count);
            assert_matches(case, &trace, &model);
        }
        let built = build(0, &runs);
        assert_matches(case, &built, &model);
        assert_eq!(built, trace, "case {case}: push and push_run traces differ");
    }
}

/// Equality is over the decoded requests: the same element stream cut
/// into different runs is equal, and any changed request is not.
#[test]
fn equality_follows_the_decoded_requests() {
    let mut rng = SplitMix64::new(0xE0A1);
    for case in 0..300 {
        let runs = draw_runs(&mut rng);
        let trace = build(0, &runs);
        assert_eq!(trace.clone(), trace, "case {case}: clone");
        let mut resplit = ThreadTrace::new(0, 0);
        for &(block, count) in &runs {
            let head = rng.range_usize(0, count as usize - 1) as u32;
            if head > 0 {
                resplit.push_run(block, head);
            }
            resplit.push_run(block, count - head);
        }
        assert_eq!(resplit, trace, "case {case}: re-cut runs");
        if let Some(&(block, _)) = runs.last() {
            let mut longer = trace.clone();
            longer.push(block);
            assert_ne!(longer, trace, "case {case}: count +1");
            let mut other = trace.clone();
            other.push(BlockAddr::new(block.file ^ 1, block.index));
            assert_ne!(other, trace, "case {case}: extra request");
        }
    }
    assert_ne!(ThreadTrace::new(1, 0), ThreadTrace::new(0, 0));
}

/// The interleaver decodes on its own path. Its schedule depends only
/// on the trace lengths and the seed, so shadow traces of the same
/// lengths, whose entry `k` is block `k`, name the position each step
/// draws; the model supplies the entry at that position.
#[test]
fn interleaver_yields_the_model_entries() {
    let mut rng = SplitMix64::new(0x1A7E);
    for case in 0..100 {
        let threads = rng.range_usize(1, 6);
        let runs: Vec<Vec<(BlockAddr, u32)>> = (0..threads).map(|_| draw_runs(&mut rng)).collect();
        let traces: Vec<ThreadTrace> = runs.iter().enumerate().map(|(t, r)| build(t, r)).collect();
        let models: Vec<Model> = runs.iter().map(|r| model_of(r)).collect();
        let shadows: Vec<ThreadTrace> = models
            .iter()
            .enumerate()
            .map(|(t, m)| {
                let mut s = ThreadTrace::new(t, t);
                for k in 0..m.entries.len() {
                    s.push(BlockAddr::new(0, k as u64));
                }
                s
            })
            .collect();
        let seed = rng.next_u64();
        let want: Vec<(usize, TraceEntry)> = JitterInterleaver::new(&shadows, seed)
            .map(|(t, e)| (t, models[t].entries[e.block.index as usize]))
            .collect();
        let got: Vec<(usize, TraceEntry)> = JitterInterleaver::new(&traces, seed).collect();
        assert_eq!(got, want, "case {case}");
    }
}

/// The named edges, one each: the runs coalesce into one request of the
/// summed count, stored packed (8 bytes) or escaped (8 + 24).
#[test]
fn width_edges_coalesce_whole() {
    let cases: [(BlockAddr, &[u32], bool); 5] = [
        // Count exactly u16::MAX at the largest packable file and index.
        (
            BlockAddr::new(u16::MAX as u32 - 1, u32::MAX as u64),
            &[65_534, 1],
            false,
        ),
        // Counts crossing u16::MAX by coalescing.
        (BlockAddr::new(0, 0), &[65_535, 1, 7], true),
        (BlockAddr::new(0, 0), &[32_768, 32_768], true),
        (BlockAddr::new(0, u32::MAX as u64 + 1), &[1, 1, 1], true),
        (BlockAddr::new(u16::MAX as u32, 65_536), &[100_000, 2], true),
    ];
    for (k, &(block, runs, escaped)) in cases.iter().enumerate() {
        let mut trace = ThreadTrace::new(0, 0);
        for &count in runs {
            trace.push_run(block, count);
        }
        // A different block after the edge starts a new request.
        let next = BlockAddr::new(1, 1);
        trace.push(next);
        let want = vec![
            TraceEntry {
                block,
                count: runs.iter().sum(),
            },
            TraceEntry {
                block: next,
                count: 1,
            },
        ];
        assert_eq!(trace.entries().collect::<Vec<_>>(), want, "edge {k}");
        let side = if escaped { 24 } else { 0 };
        assert_eq!(trace.stored_bytes(), 16 + side, "edge {k}: stored bytes");
    }
}

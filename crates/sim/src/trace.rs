//! Per-thread block-access traces.
//!
//! A [`ThreadTrace`] is the stream of data-block requests one application
//! thread issues, in program order. Consecutive element accesses that fall
//! into the same block coalesce into a single *request* carrying an
//! element `count` — exactly what a buffering MPI-IO runtime does: one
//! block transfer serves all consecutive element reads within the block.
//! Cache statistics are charged per element (`count`), latency per
//! transfer, which reproduces both the paper's miss-rate view and its
//! execution-time view.
//!
//! **Stored form.** Traces run to millions of requests and the simulator
//! streams every one, so a trace stores each request in 8 bytes — a
//! packed `{ index: u32, file: u16, count: u16 }` — instead of the 24 of
//! a [`TraceEntry`]. A request that does not fit those widths (a block
//! index above `u32::MAX`, a file id of `u16::MAX` or above, or a count
//! above `u16::MAX`, including one that coalescing grows past it) is
//! *escaped*, never split or truncated: it is kept whole in a per-trace
//! side table, and its packed slot holds the marker file `u16::MAX` plus
//! its slot number in that table. Readers see only decoded
//! [`TraceEntry`]s, through [`ThreadTrace::entries`] and
//! [`JitterInterleaver`]; this module is the only one that knows the
//! stored form.

use crate::block::BlockAddr;
use std::fmt;
use std::sync::OnceLock;

/// One coalesced block request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// The requested block.
    pub block: BlockAddr,
    /// Number of consecutive element accesses served by this request.
    pub count: u32,
}

/// The stored form of one request (see the module docs).
#[derive(Clone, Copy)]
struct Packed {
    /// Block index, or the side-table slot of an escaped entry.
    index: u32,
    /// File id, or [`ESCAPED`].
    file: u16,
    /// Element count; unused when escaped.
    count: u16,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 8);

/// The `file` of an escaped slot. No request packs with it: file ids
/// from `u16::MAX` up are escaped themselves.
const ESCAPED: u16 = u16::MAX;

/// Pack `entry`, moving it into the side table `escaped` when it does
/// not fit.
fn pack(entry: TraceEntry, escaped: &mut Vec<TraceEntry>) -> Packed {
    if let (Ok(index), Ok(file), Ok(count)) = (
        u32::try_from(entry.block.index),
        u16::try_from(entry.block.file),
        u16::try_from(entry.count),
    ) {
        if file != ESCAPED {
            return Packed { index, file, count };
        }
    }
    let slot = u32::try_from(escaped.len()).expect("side table exceeds u32 slots");
    escaped.push(entry);
    Packed {
        index: slot,
        file: ESCAPED,
        count: 0,
    }
}

/// The block-request stream of one thread.
#[derive(Clone, Default)]
pub struct ThreadTrace {
    /// Thread id.
    pub thread: usize,
    /// Compute node the thread runs on.
    pub compute_node: usize,
    /// Coalesced requests in program order, packed.
    packed: Vec<Packed>,
    /// The escaped requests, in program order.
    escaped: Vec<TraceEntry>,
    /// Lazily computed distinct-block footprint (invalidated on push).
    distinct: OnceLock<usize>,
}

impl PartialEq for ThreadTrace {
    fn eq(&self, other: &ThreadTrace) -> bool {
        self.thread == other.thread
            && self.compute_node == other.compute_node
            && self.entries().eq(other.entries())
    }
}

impl Eq for ThreadTrace {}

impl fmt::Debug for ThreadTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadTrace")
            .field("thread", &self.thread)
            .field("compute_node", &self.compute_node)
            .field("entries", &self.entries().collect::<Vec<_>>())
            .finish()
    }
}

impl ThreadTrace {
    /// Empty trace for `thread` on `compute_node`.
    pub fn new(thread: usize, compute_node: usize) -> ThreadTrace {
        ThreadTrace {
            thread,
            compute_node,
            ..ThreadTrace::default()
        }
    }

    /// Record one element access to `block`, coalescing with the previous
    /// request when it targeted the same block.
    pub fn push(&mut self, block: BlockAddr) {
        self.push_run(block, 1);
    }

    /// Record `count` consecutive element accesses to `block` at once,
    /// coalescing with the previous request when it targeted the same
    /// block. A run is exactly equivalent to `count` successive
    /// [`push`](ThreadTrace::push) calls — the fast trace generator emits
    /// whole block runs per innermost loop segment through this.
    pub fn push_run(&mut self, block: BlockAddr, count: u32) {
        debug_assert!(count > 0, "push_run: empty run");
        // Reset the footprint memo only when one is set: traces are
        // pushed to far more often than their footprint is asked for.
        self.distinct.take();
        if let Some(last) = self.packed.last_mut() {
            if last.file == ESCAPED {
                let prev = &mut self.escaped[last.index as usize];
                if prev.block == block {
                    prev.count += count;
                    return;
                }
            } else if BlockAddr::new(last.file.into(), last.index.into()) == block {
                // Re-pack: a count grown past the packed width escapes whole.
                let count = u32::from(last.count) + count;
                *last = pack(TraceEntry { block, count }, &mut self.escaped);
                return;
            }
        }
        let slot = pack(TraceEntry { block, count }, &mut self.escaped);
        self.packed.push(slot);
    }

    /// Reserve room for `additional` more requests.
    pub fn reserve(&mut self, additional: usize) {
        self.packed.reserve(additional);
    }

    /// Return excess growth capacity to the allocator.
    pub fn shrink_to_fit(&mut self) {
        self.packed.shrink_to_fit();
        self.escaped.shrink_to_fit();
    }

    /// Number of block requests (transfers).
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True if no requests were recorded.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Bytes the requests occupy in their stored form.
    pub fn stored_bytes(&self) -> usize {
        self.packed.len() * std::mem::size_of::<Packed>()
            + self.escaped.len() * std::mem::size_of::<TraceEntry>()
    }

    /// The coalesced requests in program order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = TraceEntry> + '_ {
        self.packed.iter().map(|&p| self.decode(p))
    }

    /// The request packed slot `p` stands for.
    #[inline]
    fn decode(&self, p: Packed) -> TraceEntry {
        if p.file == ESCAPED {
            self.escaped[p.index as usize]
        } else {
            TraceEntry {
                block: BlockAddr::new(p.file.into(), p.index.into()),
                count: p.count.into(),
            }
        }
    }

    /// Total element accesses across all requests.
    pub fn element_accesses(&self) -> u64 {
        self.entries().map(|e| u64::from(e.count)).sum()
    }

    /// Number of *distinct* blocks touched (the thread's block footprint —
    /// the quantity the paper's optimization minimizes). Computed on
    /// first call and cached until the trace is mutated — experiment
    /// code queries this repeatedly on traces that no longer change, and
    /// the former sort+dedup per call dominated several figure runs.
    pub fn distinct_blocks(&self) -> usize {
        *self.distinct.get_or_init(|| {
            let mut set: Vec<BlockAddr> = self.blocks().collect();
            set.sort_unstable();
            set.dedup();
            set.len()
        })
    }

    /// Iterate over the requested blocks (ignoring counts).
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.entries().map(|e| e.block)
    }
}

/// Fair but *jittered* interleaving: requests are drawn from the threads
/// at equal average rates, but the per-step order is deterministic
/// pseudo-random instead of strict rotation. Real concurrently-executing
/// threads drift relative to each other; strict round-robin would keep
/// identical per-thread patterns in artificial lock-step (e.g. making
/// 64 synchronized strided scans look perfectly sequential at the disks).
pub struct JitterInterleaver<'a> {
    traces: &'a [ThreadTrace],
    positions: Vec<usize>,
    /// Threads that still have pending requests.
    active: Vec<usize>,
    remaining: usize,
    rng: u64,
}

impl<'a> JitterInterleaver<'a> {
    /// Start interleaving with a deterministic seed.
    pub fn new(traces: &'a [ThreadTrace], seed: u64) -> JitterInterleaver<'a> {
        let remaining = traces.iter().map(ThreadTrace::len).sum();
        let active = (0..traces.len())
            .filter(|&t| !traces[t].is_empty())
            .collect();
        JitterInterleaver {
            traces,
            positions: vec![0; traces.len()],
            active,
            remaining,
            rng: seed | 1,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, fast, good enough for scheduling.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl Iterator for JitterInterleaver<'_> {
    type Item = (usize, TraceEntry);

    fn next(&mut self) -> Option<(usize, TraceEntry)> {
        if self.remaining == 0 {
            return None;
        }
        let pick = (self.next_rand() % self.active.len() as u64) as usize;
        let t = self.active[pick];
        let trace = &self.traces[t];
        let pos = self.positions[t];
        let entry = trace.decode(trace.packed[pos]);
        self.positions[t] = pos + 1;
        self.remaining -= 1;
        if pos + 1 == trace.len() {
            self.active.swap_remove(pick);
        }
        Some((t, entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(0, i)
    }

    #[test]
    fn push_coalesces_consecutive_elements() {
        let mut t = ThreadTrace::new(0, 0);
        t.push(b(1));
        t.push(b(1));
        t.push(b(2));
        t.push(b(1));
        assert_eq!(
            t.entries().collect::<Vec<_>>(),
            vec![
                TraceEntry {
                    block: b(1),
                    count: 2
                },
                TraceEntry {
                    block: b(2),
                    count: 1
                },
                TraceEntry {
                    block: b(1),
                    count: 1
                },
            ]
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.element_accesses(), 4);
        assert_eq!(t.distinct_blocks(), 2);
    }

    #[test]
    fn push_run_equals_repeated_push() {
        let mut runs = ThreadTrace::new(0, 0);
        runs.push_run(b(1), 3);
        runs.push_run(b(1), 2);
        runs.push_run(b(2), 4);
        runs.push_run(b(1), 1);
        let mut singles = ThreadTrace::new(0, 0);
        for i in [1, 1, 1, 1, 1, 2, 2, 2, 2, 1] {
            singles.push(b(i));
        }
        assert_eq!(runs, singles);
        assert_eq!(runs.element_accesses(), 10);
    }

    #[test]
    fn distinct_blocks_cache_invalidates_on_push() {
        let mut t = ThreadTrace::new(0, 0);
        t.push(b(1));
        t.push(b(2));
        assert_eq!(t.distinct_blocks(), 2);
        assert_eq!(t.distinct_blocks(), 2, "cached value must be stable");
        t.push(b(3));
        assert_eq!(t.distinct_blocks(), 3, "push must invalidate the cache");
        t.push_run(b(9), 5);
        assert_eq!(t.distinct_blocks(), 4, "push_run must invalidate the cache");
        let copy = t.clone();
        assert_eq!(copy.distinct_blocks(), 4);
        assert_eq!(copy, t, "equality ignores the cache");
    }

    #[test]
    fn jitter_interleaver_consumes_everything_in_thread_order() {
        let mut t0 = ThreadTrace::new(0, 0);
        let mut t1 = ThreadTrace::new(1, 1);
        for i in 0..10 {
            t0.push(b(i));
        }
        for i in 0..4 {
            t1.push(b(100 + i));
        }
        let traces = vec![t0.clone(), t1.clone()];
        let collected: Vec<(usize, TraceEntry)> = JitterInterleaver::new(&traces, 42).collect();
        assert_eq!(collected.len(), 14);
        // Each thread's own requests keep program order.
        for (idx, trace) in traces.iter().enumerate() {
            let mine: Vec<TraceEntry> = collected
                .iter()
                .filter(|(t, _)| *t == idx)
                .map(|&(_, e)| e)
                .collect();
            assert_eq!(
                mine,
                trace.entries().collect::<Vec<_>>(),
                "thread {idx} reordered"
            );
        }
    }

    #[test]
    fn jitter_interleaver_is_deterministic_per_seed() {
        let mut t0 = ThreadTrace::new(0, 0);
        let mut t1 = ThreadTrace::new(1, 1);
        for i in 0..20 {
            t0.push(b(i));
            t1.push(b(100 + i));
        }
        let traces = vec![t0, t1];
        let a: Vec<(usize, TraceEntry)> = JitterInterleaver::new(&traces, 7).collect();
        let b1: Vec<(usize, TraceEntry)> = JitterInterleaver::new(&traces, 7).collect();
        let c: Vec<(usize, TraceEntry)> = JitterInterleaver::new(&traces, 8).collect();
        assert_eq!(a, b1, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn jitter_interleaver_handles_empty() {
        let traces = vec![ThreadTrace::new(0, 0)];
        assert_eq!(JitterInterleaver::new(&traces, 1).count(), 0);
    }

    #[test]
    fn coalesced_counts_survive_interleaving() {
        let mut t0 = ThreadTrace::new(0, 0);
        t0.push(b(1));
        t0.push(b(1));
        t0.push(b(1));
        let traces = vec![t0];
        let reqs: Vec<TraceEntry> = JitterInterleaver::new(&traces, 3).map(|(_, e)| e).collect();
        assert_eq!(
            reqs,
            vec![TraceEntry {
                block: b(1),
                count: 3
            }]
        );
    }
}

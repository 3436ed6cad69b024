//! The fast trace-emission path: block runs per innermost loop segment.
//!
//! The reference generator evaluates `a = Q·i + q` and a full layout
//! lookup for every dynamic array reference. This module instead walks
//! each thread's blocks one innermost segment at a time, with one
//! incremental [`AccessCursor`] per reference (the segment walk that
//! Algorithm 1 shares), and emits each segment by one of two strategies:
//!
//! * **Run emission** (single-reference nests over dense layouts): the
//!   file offset moves by a *constant stride* per innermost iteration,
//!   so each innermost segment decomposes into a handful of
//!   `(block, count)` runs computed in closed form — `O(blocks touched)`
//!   instead of `O(iterations)`.
//! * **Lockstep stepping** (multi-reference nests, or table-backed
//!   hierarchical layouts): each reference's projection starts the
//!   segment where its cursor stands and moves by its cursor's innermost
//!   step, one iteration at a time and in program order across the
//!   references. There is no matrix product, odometer step or divide per
//!   access (power-of-two block sizes take block indices by shift), but
//!   emission stays element-granular so that cross-reference request
//!   coalescing matches the reference generator bit for bit. (With
//!   several references per iteration, consecutive same-block requests
//!   can span *references*, not just iterations, so whole per-reference
//!   segments cannot be emitted en bloc.)
//!
//! Both strategies produce exactly the entry stream of
//! [`generate_traces_reference`](crate::tracegen::generate_traces_reference);
//! the differential test in `tests/` asserts this for the whole workload
//! suite.
//!
//! [`AccessCursor`]: flo_polyhedral::AccessCursor

use crate::layout::FileLayout;
use crate::walk::for_each_segment;
use flo_polyhedral::{AffineAccess, LoopNest, Program};
use flo_sim::{BlockAddr, ThreadTrace};

/// How one reference's cursor projection turns into a file offset.
enum OffsetMode<'a> {
    /// Projection *is* the offset (dense layout, projected by strides).
    Dense,
    /// Projection is the row-major element index into the layout table.
    Table(&'a [u64]),
}

/// Where one reference's projections land: its offset mode and file.
struct RefTarget<'a> {
    mode: OffsetMode<'a>,
    file: u32,
}

impl RefTarget<'_> {
    #[inline]
    fn offset(&self, p: i64) -> u64 {
        debug_assert!(p >= 0, "negative projection: reference escapes its array");
        match self.mode {
            OffsetMode::Dense => p as u64,
            OffsetMode::Table(t) => t[p as usize],
        }
    }
}

/// The block size, with the shift that replaces the divide when it is a
/// power of two (every configured size is; a shift beats a hardware
/// divide on this per-access path).
#[derive(Clone, Copy)]
struct BlockSize {
    elems: u64,
    shift: Option<u32>,
}

impl BlockSize {
    fn new(elems: u64) -> BlockSize {
        assert!(elems > 0, "BlockAddr: zero block size");
        BlockSize {
            elems,
            shift: elems.is_power_of_two().then(|| elems.trailing_zeros()),
        }
    }

    /// Index of the block containing element `offset`.
    #[inline]
    fn index(self, offset: u64) -> u64 {
        match self.shift {
            Some(s) => offset >> s,
            None => offset / self.elems,
        }
    }
}

/// Append thread `t`'s requests for one nest to `trace`.
///
/// Walks the thread's iteration blocks in ownership order (the schedule
/// order of [`ThreadSchedule`](flo_parallel::ThreadSchedule)) and emits
/// every reference's block requests in program order.
pub fn emit_nest(
    program: &Program,
    nest: &LoopNest,
    partition: &flo_parallel::BlockPartition,
    thread: usize,
    layouts: &[FileLayout],
    block_elems: u64,
    trace: &mut ThreadTrace,
) {
    let size = BlockSize::new(block_elems);
    let mut strides = Vec::with_capacity(nest.refs.len());
    let mut targets = Vec::with_capacity(nest.refs.len());
    for r in &nest.refs {
        let space = &program.array(r.array).space;
        let (mode, s) = match &layouts[r.array.0] {
            // Project onto the row-major element index; the table
            // finishes the mapping per element.
            FileLayout::Hierarchical(h) => (
                OffsetMode::Table(&h.table),
                FileLayout::RowMajor.strides(space),
            ),
            dense => (OffsetMode::Dense, dense.strides(space)),
        };
        strides.push(s.expect("dense strides always exist"));
        targets.push(RefTarget {
            mode,
            file: r.array.0 as u32,
        });
    }
    let refs: Vec<(&AffineAccess, &[i64])> = nest
        .refs
        .iter()
        .zip(&strides)
        .map(|(r, s)| (&r.access, s.as_slice()))
        .collect();

    match targets.as_slice() {
        [t] if matches!(t.mode, OffsetMode::Dense) => {
            // Single dense reference: whole-segment run emission.
            for_each_segment(&nest.space, partition, thread, &refs, |segs, len| {
                emit_runs(trace, t.file, segs[0].start, segs[0].step, len, size);
            });
        }
        _ => {
            // Element-granular lockstep (matches cross-reference
            // coalescing exactly), advancing each projection by adding
            // its step. Repeats of one block gather in `run` and reach
            // the trace as one `push_run`, which is what `push` would
            // have made of them.
            let mut pos = vec![0i64; targets.len()];
            let mut run: Option<(BlockAddr, u32)> = None;
            for_each_segment(&nest.space, partition, thread, &refs, |segs, len| {
                for (p, s) in pos.iter_mut().zip(segs) {
                    *p = s.start;
                }
                for _ in 0..len {
                    for ((p, s), t) in pos.iter_mut().zip(segs).zip(&targets) {
                        let block = BlockAddr::new(t.file, size.index(t.offset(*p)));
                        match &mut run {
                            Some((b, n)) if *b == block => *n += 1,
                            _ => {
                                if let Some((b, n)) = run.replace((block, 1)) {
                                    trace.push_run(b, n);
                                }
                            }
                        }
                        *p += s.step;
                    }
                }
            });
            if let Some((b, n)) = run {
                trace.push_run(b, n);
            }
        }
    }
}

/// Emit the `(block, count)` runs of an arithmetic offset sequence
/// `start, start+stride, …` of `len` terms.
fn emit_runs(
    trace: &mut ThreadTrace,
    file: u32,
    start: i64,
    stride: i64,
    len: i64,
    size: BlockSize,
) {
    debug_assert!(
        len > 0 && start >= 0,
        "emit_runs: empty segment or negative offset"
    );
    if stride == 0 {
        trace.push_run(BlockAddr::new(file, size.index(start as u64)), len as u32);
        return;
    }
    let b = size.elems as i64;
    let mut off = start;
    let mut remaining = len;
    while remaining > 0 {
        let blk = size.index(off as u64) as i64;
        // Offsets left in [blk·b, (blk+1)·b) in the direction of travel.
        let room = if stride > 0 {
            (blk + 1) * b - 1 - off
        } else {
            off - blk * b
        };
        // Steps until the offset leaves the block, current one included.
        // Unit strides and strides past the room need no divide.
        let steps = match stride.abs() {
            1 => room + 1,
            s if s > room => 1,
            s => room / s + 1,
        };
        let take = steps.min(remaining);
        trace.push_run(BlockAddr::new(file, blk as u64), take as u32);
        off += take * stride;
        remaining -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(start: i64, stride: i64, len: i64, block_elems: u64) -> Vec<(u64, u32)> {
        let mut t = ThreadTrace::new(0, 0);
        emit_runs(&mut t, 0, start, stride, len, BlockSize::new(block_elems));
        t.entries().map(|e| (e.block.index, e.count)).collect()
    }

    fn reference(start: i64, stride: i64, len: i64, block_elems: u64) -> Vec<(u64, u32)> {
        let mut t = ThreadTrace::new(0, 0);
        for k in 0..len {
            let off = (start + k * stride) as u64;
            t.push(BlockAddr::containing(0, off, block_elems));
        }
        t.entries().map(|e| (e.block.index, e.count)).collect()
    }

    #[test]
    fn unit_stride_runs() {
        assert_eq!(collect(0, 1, 10, 4), vec![(0, 4), (1, 4), (2, 2)]);
        assert_eq!(collect(3, 1, 3, 4), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn zero_stride_collapses() {
        assert_eq!(collect(9, 0, 100, 4), vec![(2, 100)]);
    }

    #[test]
    fn runs_match_elementwise_reference() {
        for &(start, stride, len, b) in &[
            (0i64, 1i64, 17i64, 4u64),
            (5, 3, 11, 4),
            (100, -1, 30, 8),
            (63, -7, 10, 16),
            (2, 5, 1, 4),
            (7, 64, 9, 16),
            (0, 1, 40, 12),
            (95, -5, 19, 6),
            (4, 0, 7, 3),
        ] {
            assert_eq!(
                collect(start, stride, len, b),
                reference(start, stride, len, b),
                "start={start} stride={stride} len={len} block={b}"
            );
        }
    }
}

//! The fast trace-emission path: block runs per innermost loop segment.
//!
//! The reference generator evaluates `a = Q·i + q` and a full layout
//! lookup for every dynamic array reference. This module replaces that
//! with incremental evaluation ([`AccessCursor`]) plus one of two
//! emission strategies per nest:
//!
//! * **Run emission** (single-reference nests over dense layouts): the
//!   file offset moves by a *constant stride* per innermost iteration,
//!   so each innermost segment decomposes into a handful of
//!   `(block, count)` runs computed in closed form — `O(blocks touched)`
//!   instead of `O(iterations)`.
//! * **Incremental stepping** (multi-reference nests, or table-backed
//!   hierarchical layouts): one cursor per reference steps a scalar in
//!   lockstep with the iteration odometer — still no matrix product or
//!   layout arithmetic per access, but element-granular so that
//!   cross-reference request coalescing matches the reference generator
//!   bit for bit. (With several references per iteration, consecutive
//!   same-block requests can span *references*, not just iterations, so
//!   whole per-reference segments cannot be emitted en bloc.)
//!
//! Both strategies produce exactly the entry stream of
//! [`generate_traces_reference`](crate::tracegen::generate_traces_reference);
//! the differential test in `tests/` asserts this for the whole workload
//! suite.

use crate::layout::FileLayout;
use flo_polyhedral::{AccessCursor, IterSpace, LoopNest, Program};
use flo_sim::{BlockAddr, ThreadTrace};

/// How one reference's cursor projection turns into a file offset.
enum OffsetMode<'a> {
    /// Projection *is* the offset (dense layout, projected by strides).
    Dense,
    /// Projection is the row-major element index into the layout table.
    Table(&'a [u64]),
}

/// One reference prepared for emission over a sub-box.
struct RefEmitter<'a> {
    cursor: AccessCursor,
    mode: OffsetMode<'a>,
    file: u32,
}

impl RefEmitter<'_> {
    #[inline]
    fn offset(&self) -> u64 {
        let p = self.cursor.projected();
        debug_assert!(p >= 0, "negative projection: reference escapes its array");
        match self.mode {
            OffsetMode::Dense => p as u64,
            OffsetMode::Table(t) => t[p as usize],
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
    let u = partition.u();
    let n = nest.space.rank();
    for block in partition.blocks_of_thread(thread) {
        // The sub-box with dimension u restricted to this block.
        let mut lower: Vec<i64> = (0..n).map(|k| nest.space.lower(k)).collect();
        let mut upper: Vec<i64> = (0..n).map(|k| nest.space.upper(k)).collect();
        lower[u] = block.lo;
        upper[u] = block.hi;
        let sub = IterSpace::new(lower, upper);

        let mut refs: Vec<RefEmitter<'_>> = nest
            .refs
            .iter()
            .map(|r| {
                let space = &program.array(r.array).space;
                let layout = &layouts[r.array.0];
                let (mode, strides) = match layout {
                    FileLayout::Hierarchical(h) => {
                        // Project onto the row-major element index; the
                        // table finishes the mapping per element.
                        (
                            OffsetMode::Table(&h.table),
                            FileLayout::RowMajor.strides(space),
                        )
                    }
                    dense => (OffsetMode::Dense, dense.strides(space)),
                };
                let strides = strides.expect("dense strides always exist");
                RefEmitter {
                    cursor: AccessCursor::with_projection(&r.access, &sub, &strides),
                    mode,
                    file: r.array.0 as u32,
                }
            })
            .collect();

        match refs.as_mut_slice() {
            [r] if matches!(r.mode, OffsetMode::Dense) => {
                // Single dense reference: whole-segment run emission.
                let stride = r.cursor.innermost_step();
                loop {
                    emit_runs(
                        trace,
                        r.file,
                        r.cursor.projected(),
                        stride,
                        r.cursor.step_count(),
                        block_elems,
                    );
                    if !r.cursor.finish_segment() {
                        break;
                    }
                }
            }
            _ => {
                // Element-granular lockstep (matches cross-reference
                // coalescing exactly).
                loop {
                    for r in refs.iter() {
                        trace.push(BlockAddr::containing(r.file, r.offset(), block_elems));
                    }
                    let mut advanced = false;
                    for r in refs.iter_mut() {
                        advanced = r.cursor.advance().is_some();
                    }
                    if !advanced {
                        break;
                    }
                }
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
    block_elems: u64,
) {
    debug_assert!(
        len > 0 && start >= 0,
        "emit_runs: empty segment or negative offset"
    );
    let b = block_elems as i64;
    if stride == 0 {
        trace.push_run(
            BlockAddr::containing(file, start as u64, block_elems),
            len as u32,
        );
        return;
    }
    let mut off = start;
    let mut remaining = len;
    while remaining > 0 {
        let blk = off / b;
        // Steps until the offset leaves [blk·b, (blk+1)·b), current one
        // included.
        let steps = if stride > 0 {
            ((blk + 1) * b - 1 - off) / stride + 1
        } else {
            (off - blk * b) / -stride + 1
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
        emit_runs(&mut t, 0, start, stride, len, block_elems);
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
        ] {
            assert_eq!(
                collect(start, stride, len, b),
                reference(start, stride, len, b),
                "start={start} stride={stride} len={len} block={b}"
            );
        }
    }
}

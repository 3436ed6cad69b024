//! The cursor-driven segment walk shared by Algorithm 1 and tracegen.
//!
//! A thread executes its iteration blocks in ownership order and walks
//! each block lexicographically; [`ThreadSchedule`] is the reference
//! walker of that order. Along one innermost loop segment, the scalar
//! projection `⟨strides, Q·i + q⟩` of every affine reference moves by a
//! constant step. So one [`AccessCursor`] per reference, moved a whole
//! segment at a time, yields every access of the walk with no matrix
//! product and no allocation per iteration.
//!
//! Each consumer projects onto what it indexes with. Algorithm 1
//! projects onto the row-major element index, which is its table index.
//! Tracegen projects onto the file offset of a dense layout, or onto the
//! row-major index into a hierarchical layout's table.
//!
//! [`ThreadSchedule`]: flo_parallel::ThreadSchedule

use flo_parallel::BlockPartition;
use flo_polyhedral::{AccessCursor, AffineAccess, IterSpace};

/// One reference over the current innermost segment: iteration `j` of
/// the segment projects it onto `start + j·step`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Segment {
    /// Projection at the segment's first iteration.
    pub start: i64,
    /// Projection movement per innermost iteration.
    pub step: i64,
}

/// Walk thread `thread`'s iterations of `space` under `partition`, in
/// schedule order, one innermost segment at a time. `refs` pairs each
/// reference with the strides it is projected by. For every segment,
/// `f(segments, len)` gets one [`Segment`] per reference, in `refs`
/// order, and the segment's iteration count.
pub(crate) fn for_each_segment(
    space: &IterSpace,
    partition: &BlockPartition,
    thread: usize,
    refs: &[(&AffineAccess, &[i64])],
    mut f: impl FnMut(&[Segment], i64),
) {
    if refs.is_empty() {
        return;
    }
    let u = partition.u();
    let mut lower: Vec<i64> = (0..space.rank()).map(|k| space.lower(k)).collect();
    let mut upper: Vec<i64> = (0..space.rank()).map(|k| space.upper(k)).collect();
    let mut segments = vec![Segment::default(); refs.len()];
    for block in partition.blocks_of_thread(thread) {
        // The sub-box with dimension u restricted to this block.
        lower[u] = block.lo;
        upper[u] = block.hi;
        let sub = IterSpace::new(lower.clone(), upper.clone());
        let mut cursors: Vec<AccessCursor> = refs
            .iter()
            .map(|&(access, strides)| AccessCursor::with_projection(access, &sub, strides))
            .collect();
        for (seg, c) in segments.iter_mut().zip(&cursors) {
            seg.step = c.innermost_step();
        }
        loop {
            for (seg, c) in segments.iter_mut().zip(&cursors) {
                seg.start = c.projected();
            }
            f(&segments, cursors[0].step_count());
            let mut more = false;
            for c in &mut cursors {
                more = c.finish_segment();
            }
            if !more {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_parallel::ThreadSchedule;
    use flo_polyhedral::DataSpace;

    /// The segment walk visits exactly the reference walker's accesses,
    /// in its order.
    #[test]
    fn segments_expand_to_the_schedule_walk() {
        let space = IterSpace::new(vec![0, -1, 2], vec![7, 3, 6]);
        let data = DataSpace::new(vec![20, 20]);
        let accesses = [
            AffineAccess::from_rows(&[&[1, 0, 0], &[0, 1, 1]], vec![0, 1]),
            AffineAccess::from_rows(&[&[2, 1, 0], &[0, 0, 3]], vec![1, 0]),
        ];
        let strides = [20i64, 1];
        let refs: Vec<(&AffineAccess, &[i64])> =
            accesses.iter().map(|a| (a, &strides[..])).collect();
        for (u, blocks, threads) in [(0, 3, 2), (1, 4, 3), (2, 2, 2), (0, 7, 3)] {
            let partition = BlockPartition::new(&space, u, blocks, threads);
            for t in 0..threads {
                let mut walked = Vec::new();
                for_each_segment(&space, &partition, t, &refs, |segs, len| {
                    for j in 0..len {
                        walked.extend(segs.iter().map(|s| s.start + j * s.step));
                    }
                });
                let mut want = Vec::new();
                for i in ThreadSchedule::new(&space, &partition, t).iterations() {
                    want.extend(accesses.iter().map(|a| data.linearize(&a.eval(&i))));
                }
                assert_eq!(walked, want, "u={u} blocks={blocks} thread={t}");
            }
        }
    }

    #[test]
    fn no_references_walk_nothing() {
        let space = IterSpace::from_extents(&[4, 4]);
        let partition = BlockPartition::new(&space, 0, 2, 2);
        for_each_segment(&space, &partition, 0, &[], |_, _| panic!("no segment"));
    }
}

//! Algorithm 1: constructing the inter-node file layout table.
//!
//! After Step I, the transformed coordinate `s = d·a` of every element
//! determines which thread owns it: the satisfied primary reference gives
//! `s = α·i_u + β`, so the iteration block containing
//! `i_u = ⌊(s − β)/α⌋` (clamped to the iteration range) owns data
//! hyperplane `s`. The elements of each thread are packed into
//! consecutive chunks whose starting addresses come from the
//! hierarchy-aware [`ChunkAddresser`] — exactly the element-wise address
//! assignment loop of the paper's Algorithm 1.
//!
//! Elements are assigned in two phases. Phase 1 walks each thread's
//! schedule of the primary nest one innermost segment at a time, with
//! one incremental cursor per satisfied reference projected onto the
//! row-major element index (the segment walk tracegen shares), and gives
//! every element its first toucher. Phase 2 runs only when phase 1 left
//! an element unassigned (or did not run): it hands the rest to the
//! owners of their hyperplanes in increasing-`s` order, lexicographic
//! within a hyperplane.
//!
//! The construction runs in O(elements + s-range) time and is performed
//! once per array at compile time (the paper reports a ~36% compile-time
//! increase for the same reason).

use crate::layout::{FileLayout, HierLayout};
use crate::pattern::ChunkAddresser;
use crate::walk::for_each_segment;
use flo_parallel::BlockPartition;
use flo_polyhedral::{AffineAccess, DataSpace, IterSpace};

/// The affine relation `s = α·i_u + β` between the parallel loop and the
/// transformed data coordinate of the primary reference.
#[derive(Clone, Copy, Debug)]
pub struct SMapping {
    /// `d · Q · e_u` of the primary reference (positive by Step I's
    /// normalization).
    pub alpha: i64,
    /// `d · q` (transformed offset) of the primary reference.
    pub beta: i64,
}

fn floor_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// Inclusive range of `s = d·a` over the data space (interval arithmetic).
fn s_range(space: &DataSpace, d_row: &[i64]) -> (i64, i64) {
    let mut lo = 0i64;
    let mut hi = 0i64;
    for (k, &dk) in d_row.iter().enumerate() {
        let span = dk * (space.extent(k) - 1);
        lo += span.min(0);
        hi += span.max(0);
    }
    (lo, hi)
}

/// Walk all elements in row-major order, calling `f(element_index, s)`.
fn walk_elements(space: &DataSpace, d_row: &[i64], mut f: impl FnMut(usize, i64)) {
    let m = space.rank();
    let total = space.num_elements() as usize;
    let mut a = vec![0i64; m];
    let mut s = 0i64;
    // Precompute the s-decrement of resetting dimension j from its max.
    let reset: Vec<i64> = (0..m).map(|j| d_row[j] * (space.extent(j) - 1)).collect();
    for e in 0..total {
        f(e, s);
        // Odometer increment with incremental s update.
        for k in (0..m).rev() {
            a[k] += 1;
            if a[k] < space.extent(k) {
                s += d_row[k];
                break;
            }
            a[k] = 0;
            s -= reset[k];
        }
    }
}

/// The primary nest's references, used for first-touch ordering.
#[derive(Clone, Debug)]
pub struct PrimaryRef<'a> {
    /// The iteration space of the nest containing the primary reference.
    pub nest_space: &'a IterSpace,
    /// The index functions of every satisfied reference to the array in
    /// that nest, in program order (the primary one plus e.g. its stencil
    /// neighbours). Walking all of them keeps boundary elements adjacent
    /// to the rows that use them.
    pub accesses: Vec<&'a AffineAccess>,
}

const UNASSIGNED: u64 = u64::MAX;

/// The table under construction and each thread's chunk fill state.
struct Filler<'a> {
    addr: &'a ChunkAddresser,
    chunk: u64,
    /// Per thread: (chunk number, elements placed in it, its start).
    cursor: Vec<(u64, u64, u64)>,
    table: Vec<u64>,
    max_off: u64,
    unassigned: usize,
}

impl Filler<'_> {
    /// Give element `elem` the next address of thread `t`, unless it
    /// already has one.
    #[inline]
    fn assign(&mut self, t: usize, elem: usize) {
        if self.table[elem] != UNASSIGNED {
            return;
        }
        let cur = &mut self.cursor[t];
        if cur.1 == 0 {
            cur.2 = self.addr.chunk_start(t, cur.0);
        }
        let off = cur.2 + cur.1;
        self.table[elem] = off;
        self.max_off = self.max_off.max(off);
        self.unassigned -= 1;
        cur.1 += 1;
        if cur.1 == self.chunk {
            cur.0 += 1;
            cur.1 = 0;
        }
    }
}

/// Build the hierarchical layout table for one array.
///
/// * `space` — the array's data space;
/// * `d_row` — Step I's partitioning row `d`;
/// * `smap` — the `s = α·i_u + β` relation of the primary reference;
/// * `partition` — the iteration-block partition of the primary nest
///   (supplies block widths and the round-robin block→thread ownership);
/// * `addr` — the hierarchy-aware chunk addresser of Step II;
/// * `primary` — when present, each thread's elements are stored in
///   *first-touch order*: the order the thread's rewritten primary
///   reference walks them at run time. This is what makes the thread's
///   dynamic access stream contiguous in the file (the whole point of the
///   optimization); elements the primary reference never touches are
///   appended afterwards in hyperplane/lexicographic order.
pub fn build_hier_layout(
    space: &DataSpace,
    d_row: &[i64],
    smap: SMapping,
    partition: &BlockPartition,
    addr: &ChunkAddresser,
    primary: Option<PrimaryRef<'_>>,
) -> HierLayout {
    assert_eq!(d_row.len(), space.rank(), "d rank mismatch");
    assert!(smap.alpha > 0, "alpha must be positive (Step I normalizes)");
    let total = space.num_elements() as usize;
    assert!(
        total > 0 && total < u32::MAX as usize,
        "array too large for table layout"
    );
    let threads = partition.num_threads();
    let mut fill = Filler {
        addr,
        chunk: addr.chunk_elems(),
        cursor: vec![(0, 0, 0); threads],
        table: vec![UNASSIGNED; total],
        max_off: 0,
        unassigned: total,
    };

    // Phase 1: first-touch assignment along each thread's schedule of the
    // primary references, projected onto the row-major element index.
    if let Some(p) = &primary {
        let strides = FileLayout::RowMajor
            .strides(space)
            .expect("row-major strides exist");
        let refs: Vec<(&AffineAccess, &[i64])> =
            p.accesses.iter().map(|&a| (a, &strides[..])).collect();
        for t in 0..threads {
            for_each_segment(p.nest_space, partition, t, &refs, |segs, len| {
                for j in 0..len {
                    for seg in segs {
                        fill.assign(t, (seg.start + j * seg.step) as usize);
                    }
                }
            });
        }
    }
    if fill.unassigned > 0 {
        assign_by_hyperplane(&mut fill, space, d_row, smap, partition);
    }
    debug_assert!(fill.table.iter().all(|&x| x != UNASSIGNED));
    HierLayout {
        table: fill.table,
        file_elems: fill.max_off + 1,
    }
}

/// Phase 2: elements phase 1 left (untouched by the primary references)
/// go to the thread owning their hyperplane, in (s, lexicographic) order.
fn assign_by_hyperplane(
    fill: &mut Filler<'_>,
    space: &DataSpace,
    d_row: &[i64],
    smap: SMapping,
    partition: &BlockPartition,
) {
    let total = fill.table.len();
    let (s_lo, s_hi) = s_range(space, d_row);
    let range = (s_hi - s_lo + 1) as usize;
    // Counting sort of elements by s (stable → lexicographic within s).
    let mut counts = vec![0u32; range];
    walk_elements(space, d_row, |_, s| counts[(s - s_lo) as usize] += 1);
    let mut starts = vec![0u32; range + 1];
    for i in 0..range {
        starts[i + 1] = starts[i] + counts[i];
    }
    let mut next = starts.clone();
    let mut order = vec![0u32; total];
    walk_elements(space, d_row, |e, s| {
        let slot = &mut next[(s - s_lo) as usize];
        order[*slot as usize] = e as u32;
        *slot += 1;
    });

    // Iteration range along u, for clamping.
    let iter_lo = partition.block(0).lo;
    let iter_hi = partition.block(partition.num_blocks() - 1).hi;

    for idx in 0..range {
        let (b, e) = (starts[idx] as usize, starts[idx + 1] as usize);
        if b == e {
            continue;
        }
        let s = s_lo + idx as i64;
        // Owner thread of data hyperplane s.
        let iu = floor_div(s - smap.beta, smap.alpha).clamp(iter_lo, iter_hi - 1);
        let block = partition.block_of_coord(iu);
        let t = partition.thread_of_block(block);
        for &elem in &order[b..e] {
            fill.assign(t, elem as usize);
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{HierLevel, HierSpec};
    use flo_polyhedral::IterSpace;
    use std::collections::HashSet;

    /// 4 threads behind 2 I/O caches + 1 storage cache, tiny capacities.
    fn addresser(block_elems: u64, cap1: u64, cap2: u64) -> ChunkAddresser {
        ChunkAddresser::new(&HierSpec {
            levels: vec![
                HierLevel {
                    caches: 2,
                    capacity_elems: cap1,
                },
                HierLevel {
                    caches: 1,
                    capacity_elems: cap2,
                },
            ],
            threads: 4,
            group_of_thread: vec![0, 0, 1, 1],
            block_elems,
        })
    }

    /// Row-partitioned 16×8 array: d = (1, 0), s = i_u (α = 1, β = 0),
    /// 4 blocks of 4 rows round-robin over 4 threads.
    fn row_case() -> (DataSpace, Vec<i64>, BlockPartition) {
        let space = DataSpace::new(vec![16, 8]);
        let iter = IterSpace::from_extents(&[16, 8]);
        let partition = BlockPartition::new(&iter, 0, 4, 4);
        (space, vec![1, 0], partition)
    }

    #[test]
    fn table_is_injective() {
        let (space, d, partition) = row_case();
        let addr = addresser(4, 16, 64);
        let layout = build_hier_layout(
            &space,
            &d,
            SMapping { alpha: 1, beta: 0 },
            &partition,
            &addr,
            None,
        );
        let set: HashSet<u64> = layout.table.iter().copied().collect();
        assert_eq!(set.len(), layout.table.len(), "layout must be injective");
        assert_eq!(layout.file_elems, *layout.table.iter().max().unwrap() + 1);
    }

    #[test]
    fn thread_elements_are_chunk_contiguous() {
        let (space, d, partition) = row_case();
        let addr = addresser(4, 16, 64);
        let layout = build_hier_layout(
            &space,
            &d,
            SMapping { alpha: 1, beta: 0 },
            &partition,
            &addr,
            None,
        );
        // Thread 0 owns rows 0..4 (block 0). Its 32 elements must occupy
        // whole chunks: offsets grouped into runs of chunk_elems = 8.
        let mut offsets: Vec<u64> = (0..4)
            .flat_map(|r| (0..8).map(move |c| (r, c)))
            .map(|(r, c)| layout.table[(r * 8 + c) as usize])
            .collect();
        offsets.sort_unstable();
        let chunk = addr.chunk_elems();
        for run in offsets.chunks(chunk as usize) {
            assert_eq!(run[0] % chunk, 0, "chunk must start block-aligned");
            for (j, &o) in run.iter().enumerate() {
                assert_eq!(o, run[0] + j as u64, "chunk not contiguous");
            }
        }
    }

    #[test]
    fn lexicographic_order_within_thread() {
        let (space, d, partition) = row_case();
        let addr = addresser(4, 16, 64);
        let layout = build_hier_layout(
            &space,
            &d,
            SMapping { alpha: 1, beta: 0 },
            &partition,
            &addr,
            None,
        );
        // Within one row (single s), file offsets increase with the column.
        for r in 0..16u64 {
            for c in 0..7u64 {
                let a = layout.table[(r * 8 + c) as usize];
                let b = layout.table[(r * 8 + c + 1) as usize];
                assert!(b > a, "row {r} col {c}: order violated");
            }
        }
    }

    #[test]
    fn column_partitioned_layout() {
        // d = (0, 1): threads own column slabs (the transposed case that
        // row-major layouts serve poorly).
        let space = DataSpace::new(vec![8, 16]);
        let iter = IterSpace::from_extents(&[16, 8]);
        let partition = BlockPartition::new(&iter, 0, 4, 4);
        let addr = addresser(4, 16, 64);
        let layout = build_hier_layout(
            &space,
            &[0, 1],
            SMapping { alpha: 1, beta: 0 },
            &partition,
            &addr,
            None,
        );
        let set: HashSet<u64> = layout.table.iter().copied().collect();
        assert_eq!(set.len(), 128);
        // Thread 0 owns columns 0..4; its elements (8 rows × 4 cols = 32)
        // must sit in the thread-0 chunk slots: 0..8, 16..24, 64..72, ...
        let col0: Vec<u64> = (0..8).map(|r| layout.table[(r * 16) as usize]).collect();
        for &o in &col0 {
            // chunk slots of thread 0 start at chunk_start(0, x) ∈ {0, 16, 64, 80, ...}
            let within_chunk = o % 8;
            let chunk_base = o - within_chunk;
            assert_eq!(
                addr.chunk_start(0, (chunk_base / 16) % 2 + 2 * (chunk_base / 64)),
                chunk_base
            );
        }
    }

    #[test]
    fn negative_d_entries_handled() {
        // d = (1, -1): diagonal partitioning with negative s values.
        let space = DataSpace::new(vec![8, 8]);
        let iter = IterSpace::from_extents(&[8, 8]);
        let partition = BlockPartition::new(&iter, 0, 4, 4);
        let addr = addresser(4, 16, 64);
        let layout = build_hier_layout(
            &space,
            &[1, -1],
            SMapping { alpha: 1, beta: 0 },
            &partition,
            &addr,
            None,
        );
        let set: HashSet<u64> = layout.table.iter().copied().collect();
        assert_eq!(set.len(), 64, "injective despite negative s");
    }

    #[test]
    fn strided_alpha() {
        // α = 2: only every other hyperplane is touched by iterations; the
        // in-between hyperplanes are owned by the nearest block below.
        let space = DataSpace::new(vec![16, 4]);
        let iter = IterSpace::from_extents(&[8, 4]);
        let partition = BlockPartition::new(&iter, 0, 4, 4);
        let addr = addresser(4, 16, 64);
        let layout = build_hier_layout(
            &space,
            &[1, 0],
            SMapping { alpha: 2, beta: 0 },
            &partition,
            &addr,
            None,
        );
        let set: HashSet<u64> = layout.table.iter().copied().collect();
        assert_eq!(set.len(), 64);
        // Rows 0 and 1 both map to i_u = 0 → thread 0's chunks.
        let r0 = layout.table[0];
        let r1 = layout.table[4];
        assert!(r1 > r0);
    }

    #[test]
    fn s_range_interval_arithmetic() {
        let space = DataSpace::new(vec![4, 4]);
        assert_eq!(s_range(&space, &[1, 0]), (0, 3));
        assert_eq!(s_range(&space, &[1, 1]), (0, 6));
        assert_eq!(s_range(&space, &[1, -1]), (-3, 3));
        assert_eq!(s_range(&space, &[-2, 1]), (-6, 3));
    }

    #[test]
    fn walk_elements_matches_direct_dot() {
        let space = DataSpace::new(vec![3, 4, 2]);
        let d = [2i64, -1, 3];
        walk_elements(&space, &d, |e, s| {
            let a = space.delinearize(e as i64);
            let direct: i64 = a.iter().zip(&d).map(|(&x, &y)| x * y).sum();
            assert_eq!(s, direct, "incremental s wrong at element {e}");
        });
    }

    #[test]
    fn floor_div_negative() {
        assert_eq!(floor_div(-1, 2), -1);
        assert_eq!(floor_div(-4, 2), -2);
        assert_eq!(floor_div(3, 2), 1);
        assert_eq!(floor_div(0, 5), 0);
    }
}

//! Trace generation: from a laid-out program to per-thread block streams.
//!
//! For every thread, the generator walks its iteration schedule (blocks in
//! ownership order, lexicographic within a block), evaluates each array
//! reference, maps the element through the array's [`FileLayout`], and
//! emits the containing data block. Consecutive repeats collapse (the
//! runtime buffers within a block), producing exactly the request stream
//! the storage hierarchy would see.
//!
//! Two generators produce that stream:
//!
//! * [`generate_traces`] — the fast path: threads fan out in parallel and
//!   each walks its schedule with incremental cursors and per-segment
//!   block-run emission (see [`crate::emit`]).
//! * [`generate_traces_reference`] — the original element-at-a-time
//!   evaluator, kept as the executable specification; the differential
//!   tests assert the two agree entry for entry on every workload. It is
//!   the tracegen's naive model, not a frozen copy of the fast path: it
//!   shares no emission code with [`generate_traces`], so the comparison
//!   is independent (the simulator's counterpart is `flo_sim::oracle`).

use crate::config::ParallelConfig;
use crate::emit;
use crate::layout::FileLayout;
use flo_parallel::ThreadSchedule;
use flo_polyhedral::Program;
use flo_sim::{BlockAddr, ThreadTrace, Topology};

/// Upper bound on the up-front per-trace entry reservation. Coalescing
/// keeps most traces far below their element-access bound; reserving the
/// full bound maps (and then unmaps) hundreds of megabytes per suite,
/// which costs more in page-table traffic than the reallocations saved.
const RESERVE_CAP_ENTRIES: usize = 1 << 16;

/// Generate the per-thread block traces of `program` under `layouts`.
///
/// `layouts[k]` is the file layout of array `k`; files are numbered by
/// array id. Equivalent to [`generate_traces_reference`] but runs the
/// incremental fast path with one parallel task per thread trace.
pub fn generate_traces(
    program: &Program,
    cfg: &ParallelConfig,
    layouts: &[FileLayout],
    topo: &Topology,
) -> Vec<ThreadTrace> {
    assert_eq!(
        layouts.len(),
        program.arrays().len(),
        "one layout per array"
    );
    let _span = flo_obs::span("tracegen");
    let partitions: Vec<_> = program
        .nests()
        .iter()
        .map(|n| cfg.partition_of(n))
        .collect();
    flo_parallel::parallel_map_indexed(cfg.threads, |t| {
        let mut trace = ThreadTrace::new(t, cfg.mapping.node_of(t));
        // Reserve up to the element-access upper bound (entries only
        // shrink under coalescing), capped: growing a multi-megabyte
        // entry vector from zero triggers allocator churn, but the full
        // bound over-maps badly when coalescing is effective.
        let cap: u64 = program
            .nests()
            .iter()
            .zip(&partitions)
            .map(|(nest, partition)| {
                let u = partition.u();
                let extent_u = nest.space.upper(u) - nest.space.lower(u);
                let inner = nest.space.total_iterations() / extent_u.max(1);
                let owned: i64 = partition.blocks_of_thread(t).map(|b| b.hi - b.lo).sum();
                owned as u64 * inner as u64 * nest.refs.len() as u64
            })
            .sum();
        trace.reserve((cap as usize).min(RESERVE_CAP_ENTRIES));
        for (nest, partition) in program.nests().iter().zip(&partitions) {
            emit::emit_nest(
                program,
                nest,
                partition,
                t,
                layouts,
                topo.block_elems,
                &mut trace,
            );
        }
        // Traces live long (the bench layer caches them); return excess
        // growth capacity to the allocator.
        trace.shrink_to_fit();
        trace
    })
}

/// The reference trace generator: full affine evaluation and layout
/// lookup per dynamic reference. `O(iterations · refs)` with a matrix
/// product each — slow, but obviously correct; [`generate_traces`] is
/// differentially tested against it.
pub fn generate_traces_reference(
    program: &Program,
    cfg: &ParallelConfig,
    layouts: &[FileLayout],
    topo: &Topology,
) -> Vec<ThreadTrace> {
    assert_eq!(
        layouts.len(),
        program.arrays().len(),
        "one layout per array"
    );
    let mut traces: Vec<ThreadTrace> = (0..cfg.threads)
        .map(|t| ThreadTrace::new(t, cfg.mapping.node_of(t)))
        .collect();
    let mut elem = Vec::new();
    for nest in program.nests() {
        let partition = cfg.partition_of(nest);
        for (t, trace) in traces.iter_mut().enumerate() {
            let sched = ThreadSchedule::new(&nest.space, &partition, t);
            for i in sched.iterations() {
                for r in &nest.refs {
                    let space = &program.array(r.array).space;
                    elem.resize(space.rank(), 0);
                    r.access.eval_into(&i, &mut elem);
                    debug_assert!(
                        space.contains(&elem),
                        "reference to {:?} escapes array '{}'",
                        elem,
                        program.array(r.array).name
                    );
                    let offset = layouts[r.array.0].offset_of(space, &elem);
                    trace.push(BlockAddr::containing(
                        r.array.0 as u32,
                        offset,
                        topo.block_elems,
                    ));
                }
            }
        }
    }
    traces
}

/// Row-major layouts for every array of a program (the "default
/// execution" configuration).
pub fn default_layouts(program: &Program) -> Vec<FileLayout> {
    program
        .arrays()
        .iter()
        .map(|_| FileLayout::RowMajor)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_polyhedral::ProgramBuilder;

    fn tiny_topology() -> Topology {
        let mut t = Topology::tiny();
        t.block_elems = 4;
        t
    }

    fn row_program() -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", &[8, 8]);
        b.nest(&[8, 8]).read(a, &[&[1, 0], &[0, 1]]).done();
        b.build()
    }

    #[test]
    fn row_major_identity_trace_is_sequential() {
        let program = row_program();
        let mut cfg = ParallelConfig::default_for(4);
        cfg.blocks_per_thread = 1; // 4 blocks of 2 rows
        let layouts = default_layouts(&program);
        let traces = generate_traces(&program, &cfg, &layouts, &tiny_topology());
        assert_eq!(traces.len(), 4);
        // Thread 0 reads rows 0..2 = elements 0..16 = blocks 0..4.
        let blocks: Vec<u64> = traces[0].blocks().map(|b| b.index).collect();
        assert_eq!(blocks, vec![0, 1, 2, 3]);
        // Every trace covers its own disjoint block range.
        let t1: Vec<u64> = traces[1].blocks().map(|b| b.index).collect();
        assert_eq!(t1, vec![4, 5, 6, 7]);
    }

    #[test]
    fn column_access_under_row_major_scatters() {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", &[8, 8]);
        // Transposed access: A[i2, i1].
        b.nest(&[8, 8]).read(a, &[&[0, 1], &[1, 0]]).done();
        let program = b.build();
        let mut cfg = ParallelConfig::default_for(4);
        cfg.blocks_per_thread = 1;
        let traces = generate_traces(&program, &cfg, &default_layouts(&program), &tiny_topology());
        // Thread 0 owns i1 ∈ 0..2 → columns 0..2 → touches every row's
        // blocks: footprint = 8 rows × 2 cols / shared blocks — much wider
        // than the sequential case.
        assert!(
            traces[0].distinct_blocks() > 4,
            "column access must scatter"
        );
    }

    #[test]
    fn total_requests_bounded_by_dynamic_accesses() {
        let program = row_program();
        let cfg = ParallelConfig::default_for(4);
        let traces = generate_traces(&program, &cfg, &default_layouts(&program), &tiny_topology());
        let total: usize = traces.iter().map(ThreadTrace::len).sum();
        // 64 iterations × 1 ref, block-collapsed → at most 64.
        assert!(total <= 64);
        assert!(total >= 16, "dedup cannot erase distinct blocks");
    }

    /// 100 000 reads of `A[0]` are one request of count 100 000, past
    /// the packed count width: both generators keep it whole.
    #[test]
    fn long_run_on_one_element_stays_one_request() {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", &[8]);
        b.nest(&[100_000]).read(a, &[&[0]]).done();
        let program = b.build();
        let cfg = ParallelConfig::default_for(1);
        let layouts = default_layouts(&program);
        let topo = tiny_topology();
        let want = vec![flo_sim::TraceEntry {
            block: BlockAddr::new(0, 0),
            count: 100_000,
        }];
        for traces in [
            generate_traces(&program, &cfg, &layouts, &topo),
            generate_traces_reference(&program, &cfg, &layouts, &topo),
        ] {
            assert_eq!(traces.len(), 1);
            assert_eq!(traces[0].entries().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn mapping_changes_compute_nodes() {
        let program = row_program();
        let cfg = ParallelConfig::default_for(4)
            .with_mapping(flo_parallel::ThreadMapping::from_vec(vec![3, 2, 1, 0]));
        let traces = generate_traces(&program, &cfg, &default_layouts(&program), &tiny_topology());
        assert_eq!(traces[0].compute_node, 3);
        assert_eq!(traces[3].compute_node, 0);
    }

    #[test]
    #[should_panic(expected = "one layout per array")]
    fn layout_count_checked() {
        let program = row_program();
        let cfg = ParallelConfig::default_for(2);
        generate_traces(&program, &cfg, &[], &tiny_topology());
    }
}

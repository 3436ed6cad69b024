//! The inter-node file layout optimization pass (Fig. 4).
//!
//! [`run_layout_pass`] is the compiler entry point: it consumes a
//! parallelized program plus the storage-cache topology and produces one
//! [`FileLayout`] per disk-resident array, applying Step I
//! ([`crate::partition`]) and Step II ([`crate::pattern`],
//! [`crate::algorithm1`]) to every array whose references admit a useful
//! unimodular transformation, and leaving the rest row-major (the paper
//! optimizes ~72% of arrays on average; the others keep their original
//! layouts).

use crate::algorithm1::{build_hier_layout, PrimaryRef, SMapping};
use crate::config::ParallelConfig;
use crate::layout::{FileLayout, HierLayout};
use crate::partition::{partition_array, AccessConstraint, PartitionOutcome};
use crate::pattern::ChunkAddresser;
use crate::target::{HierSpec, TargetLayers};
use flo_linalg::dot;
use flo_parallel::BlockPartition;
use flo_polyhedral::{ArrayId, DataSpace, Program};
use flo_sim::Topology;
use std::time::Instant;

/// Options of one pass invocation.
#[derive(Clone, Debug)]
pub struct PassOptions {
    /// Parallelization configuration (threads, `u`, mapping, assignment).
    pub parallel: ParallelConfig,
    /// Which cache layers the layout patterns target (Fig. 7(f)).
    pub target: TargetLayers,
    /// Order each thread's elements by the first touch of its rewritten
    /// references (on by default; the `ablation` bench measures what
    /// hyperplane-lexicographic order costs instead).
    pub first_touch: bool,
    /// Cap chunk sizes and pattern repetitions at the thread's actual
    /// data (on by default; uncapped is the paper's literal `S₁/l`).
    pub cap_chunks: bool,
}

impl PassOptions {
    /// Default execution on `topo`: one thread per compute node, both
    /// layers targeted.
    pub fn default_for(topo: &Topology) -> PassOptions {
        PassOptions {
            parallel: ParallelConfig::default_for(topo.compute_nodes),
            target: TargetLayers::Both,
            first_touch: true,
            cap_chunks: true,
        }
    }

    /// Copy with a different target (convenience for sweeps).
    pub fn with_target(mut self, target: TargetLayers) -> PassOptions {
        self.target = target;
        self
    }
}

/// Per-array diagnostics.
#[derive(Clone, Debug)]
pub struct ArrayReport {
    /// Array name.
    pub name: String,
    /// Whether the inter-node layout was applied.
    pub optimized: bool,
    /// Step I's partitioning row (when optimized).
    pub d_row: Option<Vec<i64>>,
    /// Weight fraction of references the transformation satisfies.
    pub satisfied_weight_fraction: f64,
}

/// The pass result: layouts plus diagnostics.
#[derive(Clone, Debug)]
pub struct LayoutPlan {
    /// One layout per array, indexed by [`ArrayId`].
    pub layouts: Vec<FileLayout>,
    /// Per-array reports.
    pub reports: Vec<ArrayReport>,
    /// Wall-clock compile time of the pass in milliseconds.
    pub compile_ms: f64,
}

impl LayoutPlan {
    /// Fraction of arrays that received an optimized layout (§5.1 reports
    /// ~72% across the suite).
    pub fn optimized_fraction(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().filter(|r| r.optimized).count() as f64 / self.reports.len() as f64
    }
}

/// Gather Step I constraints for one array: distinct access matrices with
/// their effective parallel dimension and accumulated weights, heaviest
/// first.
fn constraints_for(
    program: &Program,
    array: ArrayId,
    cfg: &ParallelConfig,
) -> Vec<AccessConstraint> {
    let profile = program.access_profile(array);
    profile
        .weighted_matrices
        .into_iter()
        .map(|(q, weight)| {
            let u = cfg.u_for_rank(q.cols());
            AccessConstraint { q, u, weight }
        })
        .collect()
}

/// Run the inter-node file layout optimization.
pub fn run_layout_pass(program: &Program, topo: &Topology, opts: &PassOptions) -> LayoutPlan {
    run_pass_with(program, topo, opts, build_hier_layout)
}

/// [`run_layout_pass`] with the Algorithm 1 implementation as a
/// parameter, so the pass oracle can run the same pass over its
/// reference walk.
pub(crate) fn run_pass_with(
    program: &Program,
    topo: &Topology,
    opts: &PassOptions,
    algorithm1: impl Fn(
        &DataSpace,
        &[i64],
        SMapping,
        &BlockPartition,
        &ChunkAddresser,
        Option<PrimaryRef<'_>>,
    ) -> HierLayout,
) -> LayoutPlan {
    let _span = flo_obs::span("layout-pass");
    let start = Instant::now();
    let cfg = &opts.parallel;
    let spec = HierSpec::build(topo, &cfg.mapping, cfg.threads, opts.target);
    let mut layouts = Vec::with_capacity(program.arrays().len());
    let mut reports = Vec::with_capacity(program.arrays().len());
    for array in program.array_ids() {
        let decl = program.array(array);
        let constraints = constraints_for(program, array, cfg);
        let outcome = partition_array(&constraints);
        match outcome {
            PartitionOutcome::Optimized(p) => {
                // Locate the primary reference: the heaviest satisfied
                // access matrix, in its heaviest nest, for the s-mapping
                // and the iteration partition.
                let primary_idx = p
                    .satisfied
                    .iter()
                    .position(|&s| s)
                    .expect("optimized implies satisfied");
                let primary_q = &constraints[primary_idx].q;
                // The heaviest nest containing a primary-matrix reference.
                let primary_nest = program
                    .nests()
                    .iter()
                    .filter(|nest| nest.refs_to(array).any(|r| r.access.matrix() == primary_q))
                    .max_by_key(|nest| nest.reference_weight())
                    .expect("primary reference must exist");
                let partition = cfg.partition_of(primary_nest);
                // Every satisfied-matrix reference in that nest takes part
                // in the first-touch ordering, in program order; the first
                // one defines the s-mapping.
                let satisfied_qs: Vec<&flo_linalg::IMat> = constraints
                    .iter()
                    .zip(&p.satisfied)
                    .filter(|(_, &s)| s)
                    .map(|(c, _)| &c.q)
                    .collect();
                let accesses: Vec<&flo_polyhedral::AffineAccess> = primary_nest
                    .refs_to(array)
                    .filter(|r| satisfied_qs.iter().any(|q| *q == r.access.matrix()))
                    .map(|r| &r.access)
                    .collect();
                let first = primary_nest
                    .refs_to(array)
                    .find(|r| r.access.matrix() == primary_q)
                    .expect("primary reference must exist");
                let beta = dot(&p.d_row, first.access.offset());
                let smap = SMapping {
                    alpha: p.alpha,
                    beta,
                };
                let per_thread = if opts.cap_chunks {
                    (decl.space.num_elements() as u64).div_ceil(cfg.threads as u64)
                } else {
                    u64::MAX
                };
                let addresser = ChunkAddresser::for_data(&spec, per_thread);
                let primary_ref = opts.first_touch.then_some(PrimaryRef {
                    nest_space: &primary_nest.space,
                    accesses,
                });
                let layout = algorithm1(
                    &decl.space,
                    &p.d_row,
                    smap,
                    &partition,
                    &addresser,
                    primary_ref,
                );
                reports.push(ArrayReport {
                    name: decl.name.clone(),
                    optimized: true,
                    d_row: Some(p.d_row.clone()),
                    satisfied_weight_fraction: p.satisfied_weight_fraction,
                });
                layouts.push(FileLayout::Hierarchical(layout));
            }
            PartitionOutcome::NotOptimizable(_) => {
                reports.push(ArrayReport {
                    name: decl.name.clone(),
                    optimized: false,
                    d_row: None,
                    satisfied_weight_fraction: 0.0,
                });
                layouts.push(FileLayout::RowMajor);
            }
        }
    }
    LayoutPlan {
        layouts,
        reports,
        compile_ms: start.elapsed().as_secs_f64() * 1e3,
    }
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

    /// The paper's matmul: W[i1,i2] += U[i1,i3]·V[i3,i2].
    fn matmul() -> Program {
        let mut b = ProgramBuilder::new();
        let w = b.array("W", &[16, 16]);
        let u = b.array("U", &[16, 16]);
        let v = b.array("V", &[16, 16]);
        b.nest(&[16, 16, 16])
            .write(w, &[&[1, 0, 0], &[0, 1, 0]])
            .read(u, &[&[1, 0, 0], &[0, 0, 1]])
            .read(v, &[&[0, 0, 1], &[0, 1, 0]])
            .done();
        b.build()
    }

    #[test]
    fn matmul_optimizes_w_and_u_not_v() {
        let program = matmul();
        let topo = tiny_topology();
        let opts = PassOptions::default_for(&topo);
        let plan = run_layout_pass(&program, &topo, &opts);
        assert_eq!(plan.reports.len(), 3);
        // W[i1, i2] and U[i1, i3] partition along i1 (u = 0); V[i3, i2]
        // does not depend on i1 → not optimizable.
        assert!(plan.reports[0].optimized, "W must be optimized");
        assert!(plan.reports[1].optimized, "U must be optimized");
        assert!(!plan.reports[2].optimized, "V cannot be optimized");
        assert!((plan.optimized_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(matches!(plan.layouts[0], FileLayout::Hierarchical(_)));
        assert!(matches!(plan.layouts[2], FileLayout::RowMajor));
        assert_eq!(plan.reports[0].d_row, Some(vec![1, 0]));
    }

    #[test]
    fn optimized_layouts_are_injective() {
        let program = matmul();
        let topo = tiny_topology();
        let plan = run_layout_pass(&program, &topo, &PassOptions::default_for(&topo));
        for (k, layout) in plan.layouts.iter().enumerate() {
            if let FileLayout::Hierarchical(h) = layout {
                let mut offs: Vec<u64> = h.table.clone();
                offs.sort_unstable();
                offs.dedup();
                assert_eq!(
                    offs.len(),
                    h.table.len(),
                    "array {k}: hierarchical layout must be injective"
                );
            }
        }
    }

    #[test]
    fn all_targets_produce_plans() {
        let program = matmul();
        let topo = tiny_topology();
        for target in TargetLayers::all() {
            let plan = run_layout_pass(
                &program,
                &topo,
                &PassOptions::default_for(&topo).with_target(target),
            );
            assert_eq!(plan.layouts.len(), 3, "target {target:?}");
            assert!(plan.reports[0].optimized);
        }
    }

    #[test]
    fn compile_time_is_recorded() {
        let program = matmul();
        let topo = tiny_topology();
        let plan = run_layout_pass(&program, &topo, &PassOptions::default_for(&topo));
        assert!(plan.compile_ms >= 0.0);
    }

    #[test]
    fn empty_program_yields_empty_plan() {
        let program = Program::new();
        let topo = tiny_topology();
        let plan = run_layout_pass(&program, &topo, &PassOptions::default_for(&topo));
        assert!(plan.layouts.is_empty());
        assert_eq!(plan.optimized_fraction(), 0.0);
    }

    #[test]
    fn transposed_heavy_reference_drives_layout() {
        // An array accessed mostly by columns: the layout must follow the
        // transposed pattern (d = (0, 1)).
        let mut b = ProgramBuilder::new();
        let a = b.array("A", &[16, 16]);
        b.nest(&[16, 16]).read(a, &[&[0, 1], &[1, 0]]).done();
        let program = b.build();
        let topo = tiny_topology();
        let plan = run_layout_pass(&program, &topo, &PassOptions::default_for(&topo));
        assert!(plan.reports[0].optimized);
        assert_eq!(plan.reports[0].d_row, Some(vec![0, 1]));
    }
}

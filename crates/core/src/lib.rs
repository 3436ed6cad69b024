//! # flo-core
//!
//! The paper's contribution: *compiler-directed file layout optimization
//! for hierarchical storage systems* (Ding, Zhang, Kandemir & Son, SC'12).
//!
//! Given a parallelized affine program (from [`flo_polyhedral`] /
//! [`flo_parallel`]) and a description of the storage cache hierarchy
//! (from [`flo_sim::Topology`]), the pass determines a file layout for each
//! disk-resident array such that the data elements accessed by each thread
//! are stored in consecutive file locations and the interleaving of
//! per-thread chunks matches the cache hierarchy, minimizing each thread's
//! block footprint at every cache layer.
//!
//! The pipeline (§4 of the paper, Fig. 4):
//!
//! 1. **Step I — array partitioning** ([`partition`]): find a unimodular
//!    data transformation `D` with `h_A · D · Q · E_u = 0` so that the data
//!    touched by different threads separates along one dimension of the
//!    transformed data space. Solved by integer Gaussian elimination with
//!    the weighted multi-reference strategy of Eq. (4)–(5).
//! 2. **Step II — storage-hierarchy-aware layout** ([`pattern`],
//!    [`algorithm1`]): build the thread-interleaved layout pattern
//!    top-down over the cache hierarchy and assign every element a file
//!    address via the chunk arithmetic of Algorithm 1.
//!
//! The result is a [`layout::FileLayout`] per array — an exact bijection
//! from array elements to file offsets — plus diagnostics
//! ([`pass::LayoutPlan`]). Prior-work baselines used in the paper's
//! comparison (Fig. 7(g)) are under [`baseline`].

pub mod algorithm1;
pub mod baseline;
pub mod canonical;
pub mod config;
pub mod cost;
pub mod emit;
pub mod error;
pub mod estimate;
pub mod layout;
pub mod partition;
pub mod pass;
pub mod pattern;
pub mod target;
pub mod template;
pub mod tracegen;
mod walk;

pub use config::ParallelConfig;
pub use error::CoreError;
pub use layout::FileLayout;
pub use partition::{partition_array, PartitionOutcome, Partitioning};
pub use pass::{run_layout_pass, ArrayReport, LayoutPlan, PassOptions};
pub use pattern::ChunkAddresser;
pub use target::{HierLevel, HierSpec, TargetLayers};
pub use template::{template_spec, HierTemplate};
pub use tracegen::{generate_traces, generate_traces_reference};

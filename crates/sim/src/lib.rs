//! # flo-sim
//!
//! A trace-driven simulator of the paper's target platform: a cluster whose
//! I/O path runs compute node → I/O node → storage node → disk, with
//! *storage caches* at the I/O and storage layers (Fig. 1 of the paper;
//! caches are allocated only at those two layers in the evaluation, §5.1).
//!
//! The simulator consumes per-thread streams of data-block accesses
//! ([`trace::ThreadTrace`]) and produces per-layer hit/miss statistics plus
//! an execution-time estimate ([`stats::SimReport`]). Three cache-hierarchy
//! management policies are provided:
//!
//! * inclusive LRU (the paper's default, §5.1),
//! * DEMOTE-LRU — exclusive caching via demotions (Wong & Wilkes, §5.4),
//! * KARMA — hint-based exclusive range partitioning (Yadgar et al., §5.4).
//!
//! The disk model charges seek + rotational latency (10k RPM) for
//! non-sequential reads and a pure transfer cost for sequential ones, with
//! PVFS-style round-robin striping of file blocks across storage nodes.
//!
//! Everything is deterministic: same traces + same configuration ⇒ same
//! report. That extends to fault injection: [`fault`] replays a seeded
//! [`FaultPlan`] (node outages with failover re-striping, straggler
//! disks, transient I/O errors absorbed by retry/backoff, cache flushes)
//! as a pure function of `(seed, sequence time)`, so degraded-mode runs
//! are as reproducible as healthy ones — and the no-plan path compiles
//! the fault hooks out entirely.

pub mod block;
pub mod cache;
pub mod disk;
pub mod error;
pub mod fault;
pub mod fxhash;
pub mod oracle;
pub mod policies;
pub mod sim;
pub mod stackdist;
pub mod stats;
pub mod system;
pub mod topology;
pub mod trace;

pub use block::{BlockAddr, FileId};
pub use cache::LruCore;
pub use disk::DiskModel;
pub use error::SimError;
pub use fault::{FaultHook, FaultPlan, FaultState, NoFaults, RetryModel};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use oracle::simulate_oracle;
pub use policies::karma::KarmaHints;
pub use policies::PolicyKind;
pub use sim::{
    simulate, simulate_faulted, simulate_faulted_observed, simulate_observed, RunConfig,
};
pub use stackdist::{
    simulate_sweep, simulate_sweep_faulted, simulate_sweep_observed, MultiCapacityStack, SweepPoint,
};
pub use stats::{LayerStats, SimReport};
pub use system::StorageSystem;
pub use topology::Topology;
pub use trace::{JitterInterleaver, ThreadTrace, TraceEntry};

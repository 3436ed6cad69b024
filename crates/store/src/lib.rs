//! flo-store: a real-bytes storage backend for optimized layouts.
//!
//! Everything upstream of this crate *models* the storage hierarchy;
//! flo-store *builds* it. The [`materialize()`] pass takes the block map
//! an optimized `flo_core::FileLayout` produces — expressed as
//! a [`StoreSpec`] — and writes per-storage-node stripe files of real,
//! checksummed blocks, sealed by a versioned superblock that commits
//! the generation atomically. The [`Store`] read path serves verified
//! preads from a sealed generation; the [`replay()`] pass drives the same
//! interleaved trace the simulator consumes through real
//! [`BlockCache`]s in front of that store, producing a
//! [`MeasuredReport`] whose per-layer hit statistics are bit-comparable
//! with the simulator's [`SimReport`](flo_sim::SimReport).
//!
//! That comparison is the point: the simulator's claims about layout
//! quality stop being self-referential once every predicted hit rate is
//! checked against a measured one on real bytes. `figm` in `flo-bench`
//! runs the comparison across the paper's applications and both cache
//! policies; the `store-smoke` CI job gates on the agreement.
//!
//! Module map:
//! - [`format`](mod@format) — on-disk encoding: superblock, stripe headers, block
//!   slots, checksums, deterministic block fills.
//! - [`materialize`](mod@materialize) — the write path: generation-numbered stripes,
//!   write-back or write-through through a [`BlockCache`], strict flush
//!   ordering (data → fsync → superblock → fsync → rename), crash
//!   points for consistency tests.
//! - [`store`] — the read path: open a sealed generation, serve
//!   verified preads.
//! - [`cache`] — a sharded-by-node block cache holding real buffers,
//!   indexed by the simulator's own `SetAssocCache` so measured hit
//!   streams match simulated ones exactly.
//! - [`replay`](mod@replay) — the measurement pass. Its tests hold the
//!   measured reports to `flo_sim::simulate_oracle`, which shares no
//!   cache index with the store.
//! - [`error`] — typed failures; corruption is always an error, never a
//!   panic.

pub mod cache;
pub mod error;
pub mod format;
pub mod materialize;
pub mod replay;
pub mod store;

pub use cache::{BlockCache, CacheCounters, Eviction};
pub use error::StoreError;
pub use format::{block_fill, FileBlocks, StoreSpec, FORMAT_VERSION};
pub use materialize::{
    materialize, prune_below, sealed_generation, CrashPoint, MaterializeOptions, MaterializeReport,
};
pub use replay::{replay, replay_observed, MeasuredReport, ReplayOptions};
pub use store::Store;

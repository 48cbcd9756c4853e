//! # mdacache — a reproduction of *MDACache: Caching for
//! Multi-Dimensional-Access Memories* (MICRO 2018)
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`mem`] — the MDA crosspoint main-memory model (row **and** column
//!   buffers, FRFCFS-WQF-style controller).
//! * [`cache`] — the MDA cache taxonomy: `1P1L`, `1P2L`
//!   (Different-Set / Same-Set), `2P2L` sparse/dense, with the duplicate-word
//!   policy, 2-D MSHRs and the baseline stride prefetcher.
//! * [`compiler`] — loop-nest IR, access-direction prediction, MDA-compliant
//!   layout (intra-array padding) and row/column vectorization.
//! * [`sim`] — the trace-driven system simulator and its reports.
//! * [`workloads`] — the paper's seven evaluation kernels.
//!
//! ## Quickstart
//!
//! ```
//! use mdacache::sim::{simulate, SystemConfig, HierarchyKind};
//! use mdacache::workloads::sgemm;
//!
//! // A small matrix multiply on the paper's 1P2L Different-Set hierarchy.
//! let program = sgemm(64);
//! let config = SystemConfig::scaled(HierarchyKind::P1L2DifferentSet);
//! let report = simulate(&program, &config);
//! assert!(report.cycles > 0);
//! ```

pub use mda_cache as cache;
pub use mda_compiler as compiler;
pub use mda_mem as mem;
pub use mda_sim as sim;
pub use mda_workloads as workloads;

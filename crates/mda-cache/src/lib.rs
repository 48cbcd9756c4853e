//! # mda-cache — cache models for Multi-Dimensional-Access memories
//!
//! Implements the MDACache taxonomy (paper Sec. IV):
//!
//! * [`Cache1P2L`] — physically 1-D SRAM, logically 2-D: holds row *and*
//!   column lines, with an orientation bit per line, per-word dirty bits,
//!   the duplicate-word coherence policy of paper Fig. 9, and either the
//!   *Different-Set* or *Same-Set* index mapping. Its rows-only mode
//!   ([`Cache1P2L::rows_only`]) is the conventional 1P1L baseline:
//!   physically and logically 1-D, row lines only, evaluated with a
//!   stride [`prefetch`]er.
//! * [`Cache2P2L`] — physically 2-D (on-chip crosspoint, STT): allocates
//!   512-byte 2-D blocks, fills them sparsely (or densely, as an ablation),
//!   and needs no orientation metadata or duplication handling. Its
//!   rows-only mode ([`Cache2P2L::rows_only`]) is the 2P1L taxonomy point
//!   (Sec. IV-A): the same block array serving row lines only.
//!
//! Both implement [`CacheLevel`], the interface the `mda-sim`
//! hierarchy drives. Lookups are *functional + timing-annotated*: a probe
//! reports hit/miss, which line to fill on a miss, which writebacks the
//! duplicate policy forces, and how many extra sequential tag accesses the
//! operation costs (paper Sec. VI-A charges these on miss/write paths).
//!
//! ```
//! use mda_cache::{Cache1P2L, CacheConfig, CacheLevel, Access, SetMapping};
//! use mda_mem::{LineKey, Orientation, WordAddr};
//!
//! let mut l1 = Cache1P2L::new(CacheConfig::l1_32k(), SetMapping::DifferentSet);
//! let read = Access::scalar_read(WordAddr::from_tile_coords(0, 2, 5), Orientation::Col, 0);
//! let probe = l1.probe(&read);
//! assert!(!probe.hit);
//! // The miss requests a fill along the preferred (column) orientation.
//! assert_eq!(probe.fills[0], LineKey::new(0, Orientation::Col, 5));
//! ```

pub mod cache_1p2l;
pub mod cache_2p2l;
pub mod config;
pub mod inline_vec;
pub mod level;
pub mod level_kind;
pub mod mshr;
pub mod prefetch;
pub mod set_array;
pub mod stats;

pub use cache_1p2l::Cache1P2L;
pub use cache_2p2l::Cache2P2L;
pub use config::{CacheConfig, SetMapping};
pub use inline_vec::InlineVec;
pub use level::{Access, AccessWidth, CacheLevel, CacheLevelExt, Probe, Writeback, WritebackSink};
pub use level_kind::LevelKind;
pub use mshr::Mshr;
pub use prefetch::StridePrefetcher;
pub use stats::CacheStats;

//! # mda-mem — Multi-Dimensional-Access main memory model
//!
//! This crate models the *MDA main memory* of the MDACache paper (MICRO
//! 2018): a crosspoint non-volatile memory (STT-MRAM class) whose arrays can
//! transfer a cache-line-sized chunk of data along **either the row or the
//! column axis** of an 8×8-word tile at near-symmetric cost.
//!
//! The model is *latency-forwarding*: instead of a full discrete-event
//! engine, every resource (bank, channel bus) tracks the cycle at which it
//! next becomes free, and each request is scheduled against those
//! reservations. This captures row/column-buffer locality, bank and channel
//! contention, burst bandwidth and write-queue drain pressure, which are the
//! effects the paper's evaluation depends on.
//!
//! The crate also hosts the **shared geometry vocabulary** used by the whole
//! workspace: [`Orientation`], [`WordAddr`], [`LineKey`], and the tile
//! constants of the paper's Fig. 8 address decode.
//!
//! ```
//! use mda_mem::{MainMemory, MemConfig, Orientation, LineKey, WordAddr};
//!
//! let mut mem = MainMemory::new(MemConfig::default());
//! // Fetch a column line of tile 3: one access where a conventional memory
//! // would need eight row activations.
//! let line = LineKey::new(3, Orientation::Col, 5);
//! let read = mem.read(line, 0);
//! assert!(read.done > 0);
//! assert_eq!(mem.stats().reads, 1);
//! ```

pub mod addr;
pub mod bank;
pub mod channel;
pub mod config;
pub mod controller;
pub mod crosspoint;
pub mod error;
pub mod faults;
pub mod request;
pub mod stats;
pub mod timing;

pub use addr::{
    DecodedAddr, LineKey, Orientation, TileId, WordAddr, LINE_BYTES, LINE_WORDS, MAX_TILE,
    TILE_BYTES, TILE_LINES, WORD_BYTES,
};
pub use config::MemConfig;
pub use controller::MainMemory;
pub use error::ConfigError;
pub use faults::{FaultConfig, FaultRates};
pub use request::{MemCompletion, MemRequest, RequestKind};
pub use stats::MemStats;
pub use timing::MemTiming;

/// Simulation time, expressed in CPU cycles (the paper models a 3 GHz core).
pub type Cycle = u64;

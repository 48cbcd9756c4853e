//! # mda-sim — the trace-driven MDACache system simulator
//!
//! Wires the pieces of the reproduction together: the
//! [`core`] model (bounded-window OoO approximation of the paper's gem5
//! x86 core), the [`hierarchy`] driver over `mda-cache` levels with 2-D
//! MSHRs, and the `mda-mem` MDA main memory. [`simulate`] consumes the
//! trace `mda-compiler` generates for the configured design point and
//! returns a [`SimReport`] carrying every statistic the paper plots.
//!
//! ```
//! use mda_sim::{simulate, HierarchyKind, SystemConfig};
//! use mda_compiler::{AffineExpr, ArrayRef, Loop, LoopNest, Program};
//!
//! // A column walk over a 64×64 matrix.
//! let mut p = Program::new("colwalk");
//! let a = p.array("A", 64, 64);
//! p.add_nest(LoopNest {
//!     loops: vec![Loop::constant(0, 64), Loop::constant(0, 64)],
//!     refs: vec![ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(0))],
//!     flops_per_iter: 1,
//! });
//!
//! let baseline = simulate(&p, &SystemConfig::tiny(HierarchyKind::Baseline1P1L));
//! let mda = simulate(&p, &SystemConfig::tiny(HierarchyKind::P1L2DifferentSet));
//! // Column transfers move only the words the walk uses; the baseline
//! // issues eight scalar ops per column chunk.
//! assert!(mda.ops.mem_ops * 4 < baseline.ops.mem_ops);
//! assert!(mda.cycles > 0 && baseline.cycles > 0);
//! ```

pub mod core;
pub mod energy;
pub mod hierarchy;
pub mod multicore;
pub mod occupancy;
pub mod report;
pub mod run;
pub mod system;

pub use crate::core::{Core, CoreConfig};
pub use energy::EnergyModel;
pub use hierarchy::Hierarchy;
pub use mda_mem::{ConfigError, FaultConfig, FaultRates};
pub use multicore::{simulate_multicore, MulticoreReport};
pub use occupancy::{OccupancySample, OccupancyTimeline};
pub use report::SimReport;
pub use run::simulate;
pub use system::{HierarchyKind, SystemConfig};

//! # mda-compiler — software support for MDA memories
//!
//! Implements the compiler half of the MDACache co-design (paper Sec. V):
//!
//! * **Access-direction prediction** ([`analysis`]) — for each array
//!   reference in an affine loop nest, the subscript position in which the
//!   innermost loop index appears decides whether the access walks rows or
//!   columns of the array, and hence which preference bit the generated
//!   load/store carries.
//! * **MDA-compliant memory layout** ([`layout`]) — intra-array padding
//!   aligns logical columns with the physical columns of the MDA tiles; a
//!   conventional row-major layout is kept for 1-D hierarchies.
//! * **Row *and* column vectorization** ([`vectorize`], [`trace`]) — loops
//!   whose references move along columns can be vectorized too, because the
//!   MDA hierarchy serves dense column lines. The trace generator lowers a
//!   [`ir::Program`] to the annotated memory-operation stream the simulated
//!   ISA would execute; the simulator pulls that stream batch by batch
//!   through a [`TraceCursor`], and no trace is ever stored. A reference
//!   with no decidable static direction (both subscripts move) takes the
//!   column default; the paper's profiling fallback is not modelled.
//!
//! ```
//! use mda_compiler::ir::{Program, ArrayRef, Loop, LoopNest};
//! use mda_compiler::expr::AffineExpr;
//! use mda_compiler::{CodegenOptions, trace::count_ops};
//!
//! // for i in 0..16 { for j in 0..16 { sum += x[i][j] } } — a row walk.
//! let mut p = Program::new("rowsum");
//! let x = p.array("x", 16, 16);
//! p.add_nest(LoopNest {
//!     loops: vec![Loop::constant(0, 16), Loop::constant(0, 16)],
//!     refs: vec![ArrayRef::read(x, AffineExpr::var(0), AffineExpr::var(1))],
//!     flops_per_iter: 1,
//! });
//! let mda = CodegenOptions::mda();
//! // Vectorized by 8: 16×16/8 = 32 vector loads (plus compute ops).
//! assert_eq!(count_ops(&p, &mda).mem_ops, 32);
//! ```

pub mod analysis;
pub mod expr;
pub mod ir;
pub mod layout;
pub mod reuse;
pub mod tiling;
pub mod trace;
pub mod vectorize;

pub use analysis::{Direction, RefAnalysis};
pub use expr::AffineExpr;
pub use ir::{ArrayId, ArrayRef, Loop, LoopNest, Program};
pub use layout::{ArrayLayout, Layout, LayoutKind};
pub use reuse::{ReuseGranularity, ReuseProfile};
pub use tiling::{tile, tile_program, TileError};
pub use trace::{MemOp, TraceCursor, TraceOp, TraceSource};
pub use vectorize::CodegenOptions;

//! # mda-bench — the MDACache evaluation harness
//!
//! One runner per table and figure of the paper's evaluation (Sec. VI–VIII).
//! Each experiment module returns structured results (so integration tests
//! can assert the paper's qualitative claims) and can render itself as an
//! aligned text table mirroring the paper's series.
//!
//! Run everything with the `figures` binary:
//!
//! ```text
//! cargo run -p mda-bench --release --bin figures -- all --scale scaled
//! ```
//!
//! Scales:
//! * `tiny`   — 64×64 inputs, 4/8/16 KB caches (seconds; tests and CI smoke runs)
//! * `scaled` — 256×256 inputs, 16/64/256 KB caches (default; the paper's
//!   working-set-to-capacity ratios at 4× reduction)
//! * `paper`  — 512×512 inputs against the full Table I machine (slow)

pub mod chart;
pub mod experiments;
pub mod parallel;
pub mod scale;
pub mod table;

pub use experiments::{
    ablation, designs, ext_energy, ext_multicore, ext_reliability, ext_tiling, fig10, fig11, fig12,
    fig13, fig14, fig15, fig16, fig17, table1, FigureTable,
};
pub use parallel::{CellFailure, CellResult, Harness};
pub use scale::Scale;

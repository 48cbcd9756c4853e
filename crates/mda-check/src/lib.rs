//! # mda-check — machine-checked invariants for the MDACache workspace
//!
//! Two pillars, both zero-dependency:
//!
//! 1. **Coherence model checker.** Abstract models of the duplicate-word
//!    policy ([`model::Model1P2L`]) and the physically 2-D block cache
//!    ([`model2p2l::Model2P2L`]) with exact per-word value freshness,
//!    explored exhaustively by BFS over small tiles ([`explore`]) and
//!    cross-checked against the real `mda-cache` levels by replaying
//!    enumerated access sequences ([`diff`]). Three invariants hold on
//!    every reachable state: no read returns a stale word, at most one
//!    dirty copy per word exists across orientations, and flushing
//!    converges memory to program order. Seeded mutations
//!    ([`model::Mutation`], [`diff::WritebackDropper`]) prove the checker
//!    is not vacuous.
//! 2. **Source lint.** [`lint`] scans `crates/*/src` with a hand-rolled
//!    lexer ([`lexer`]) and enforces the repo's hot-path allocation,
//!    no-panic, determinism, wall-clock and no-unused-`pub fn` rules; see
//!    the `mda-lint` binary.
//!
//! ```
//! use mda_check::explore::{explore_1p2l, ExploreConfig};
//! use mda_check::model::Mutation;
//!
//! let report = explore_1p2l(2, Mutation::None, &ExploreConfig::default());
//! assert!(report.is_clean_and_exhaustive());
//! ```

pub mod diff;
pub mod explore;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod model2p2l;
pub mod ops;
pub mod sequences;

pub use diff::{run_differential, run_differential_with_dropped_word, DiffConfig, DiffReport};
pub use explore::{explore_1p2l, explore_2p2l, ExploreConfig, ExploreReport};
pub use lint::{lint_source, lint_workspace, Finding};
pub use model::{Model1P2L, Mutation, Violation};
pub use model2p2l::Model2P2L;
pub use ops::Op;

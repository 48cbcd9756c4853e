//! Tier-1 gate for the mda-check pillars: the exhaustive coherence model
//! check, the model-vs-real differential, the seeded-mutation sanity
//! checks, and the workspace lint must all pass under plain `cargo test`.
//!
//! The `mda-check` binary runs the same checks at larger dimensions; this
//! test pins the cheap configuration (2×2 tile, depth-3 differential) so a
//! policy regression cannot land without tripping CI.

use mda_check::explore::{explore_1p2l, explore_2p2l, ExploreConfig};
use mda_check::model::Violation;
use mda_check::{
    lint_workspace, run_differential, run_differential_with_dropped_word, DiffConfig, Mutation,
};

fn cfg() -> ExploreConfig {
    ExploreConfig::default()
}

#[test]
fn duplicate_word_policy_is_exhaustively_clean_for_1p2l() {
    let report = explore_1p2l(2, Mutation::None, &cfg());
    assert!(
        report.is_clean_and_exhaustive(),
        "1P2L model check failed: {:?}",
        report.counterexample
    );
    // The 2×2 space is small but not degenerate.
    assert!(report.states > 50, "suspiciously few states: {}", report.states);
}

#[test]
fn block_cache_policy_is_exhaustively_clean_for_2p2l() {
    for sparse in [true, false] {
        let report = explore_2p2l(2, sparse, Mutation::None, &cfg());
        assert!(
            report.is_clean_and_exhaustive(),
            "2P2L (sparse={sparse}) model check failed: {:?}",
            report.counterexample
        );
    }
}

#[test]
fn seeded_mutations_are_caught_by_the_model_check() {
    // A writeback that silently drops dirty words diverges memory.
    let report = explore_1p2l(2, Mutation::DropWritebackWord { offset: 0 }, &cfg());
    let cex = report.counterexample.expect("mutation must be detected");
    assert!(matches!(cex.violation, Violation::FlushDiverged { .. }));

    // Skipping the write-to-duplicate eviction leaves a stale copy.
    let report = explore_1p2l(2, Mutation::SkipDuplicateEviction, &cfg());
    let cex = report.counterexample.expect("mutation must be detected");
    assert!(matches!(
        cex.violation,
        Violation::StaleCopy { .. }
            | Violation::DirtyNotSole { .. }
            | Violation::DoubleDirty { .. }
    ));

    let report = explore_2p2l(2, true, Mutation::DropWritebackWord { offset: 0 }, &cfg());
    assert!(report.counterexample.is_some(), "2P2L mutation must be detected");
}

#[test]
fn real_caches_agree_with_the_abstract_models() {
    // Trimmed differential: exhaustive to depth 3 plus a seeded random
    // tail, across both 1P2L mappings and both 2P2L fill policies.
    let cfg = DiffConfig { random: 64, ..DiffConfig::default() };
    let report = run_differential(&cfg);
    assert!(report.mismatch.is_none(), "differential mismatch: {}", report.mismatch.unwrap());
    assert!(report.sequences > 10_000, "suspiciously few sequences: {}", report.sequences);
}

#[test]
fn differential_catches_a_cache_that_drops_dirty_words() {
    // The same differential must flag a real level whose writebacks lose a
    // dirty word (`diff::WritebackDropper`) — proof the cross-check
    // actually compares writeback contents, not just hit/miss outcomes.
    let cfg = DiffConfig { depth: 2, random: 16, ..DiffConfig::default() };
    let report = run_differential_with_dropped_word(0, &cfg);
    assert!(report.mismatch.is_some(), "broken writeback path went undetected");
}

#[test]
fn workspace_is_mda_lint_clean() {
    let findings =
        lint_workspace(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "mda-lint violations:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

//! Exhaustive breadth-first exploration of the abstract coherence models.
//!
//! From the empty-cache initial state the explorer applies every op in the
//! model's transition alphabet to every reachable state, deduplicating on
//! the model's canonical [`encode`](crate::model::Model1P2L::encode)ing and
//! checking the invariants on each state as it is discovered. Because the
//! 1P2L model has no replacement policy and eviction is an explicit
//! nondeterministic transition, the explored behaviors subsume every index
//! mapping (Different-Set, Same-Set) and every replacement order.
//!
//! On a violation the explorer reconstructs the shortest op sequence from
//! reset via a predecessor map, so a failure reads as a concrete
//! counterexample trace rather than a bare state dump.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::model::{Model1P2L, Mutation, Violation};
use crate::model2p2l::Model2P2L;
use crate::ops::{alphabet_1p2l, alphabet_2p2l, apply_1p2l, apply_2p2l, Op};

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Stop after visiting this many distinct states (0 = unbounded).
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig { max_states: 2_000_000 }
    }
}

/// A found violation with its shortest counterexample trace from reset.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated invariant.
    pub violation: Violation,
    /// Ops from the initial (empty, memory-fresh) state to the bad state.
    pub trace: Vec<Op>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(f, "counterexample ({} ops from reset):", self.trace.len())?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>2}. {op}", i + 1)?;
        }
        Ok(())
    }
}

/// Result of an exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// First invariant violation found, if any.
    pub counterexample: Option<Counterexample>,
    /// Whether the state cap ended the run before the frontier emptied.
    pub truncated: bool,
}

impl ExploreReport {
    /// Whether the run finished the whole space without a violation.
    pub fn is_clean_and_exhaustive(&self) -> bool {
        self.counterexample.is_none() && !self.truncated
    }
}

/// Generic BFS shared by both models.
fn bfs<S: Clone>(
    init: S,
    alphabet: &[Op],
    encode: impl Fn(&S) -> u128,
    check: impl Fn(&S) -> Result<(), Violation>,
    apply: impl Fn(&mut S, &Op),
    cfg: &ExploreConfig,
) -> ExploreReport {
    let mut visited: HashSet<u128> = HashSet::new();
    let mut parent: HashMap<u128, (u128, Op)> = HashMap::new();
    let mut queue: VecDeque<S> = VecDeque::new();
    let mut transitions = 0usize;
    let mut truncated = false;

    let init_code = encode(&init);
    visited.insert(init_code);
    if let Err(violation) = check(&init) {
        return ExploreReport {
            states: 1,
            transitions: 0,
            counterexample: Some(Counterexample { violation, trace: Vec::new() }),
            truncated: false,
        };
    }
    queue.push_back(init);

    let rebuild_trace = |parent: &HashMap<u128, (u128, Op)>, mut code: u128| -> Vec<Op> {
        let mut trace = Vec::new();
        while let Some((prev, op)) = parent.get(&code) {
            trace.push(*op);
            code = *prev;
        }
        trace.reverse();
        trace
    };

    while let Some(state) = queue.pop_front() {
        let code = encode(&state);
        for op in alphabet {
            let mut next = state.clone();
            apply(&mut next, op);
            transitions += 1;
            let next_code = encode(&next);
            if !visited.insert(next_code) {
                continue;
            }
            parent.insert(next_code, (code, *op));
            if let Err(violation) = check(&next) {
                return ExploreReport {
                    states: visited.len(),
                    transitions,
                    counterexample: Some(Counterexample {
                        violation,
                        trace: rebuild_trace(&parent, next_code),
                    }),
                    truncated: false,
                };
            }
            if cfg.max_states != 0 && visited.len() >= cfg.max_states {
                truncated = true;
                break;
            }
            queue.push_back(next);
        }
        if truncated {
            break;
        }
    }

    ExploreReport { states: visited.len(), transitions, counterexample: None, truncated }
}

/// Exhaustively explores the 1P2L duplicate-word model over a `dim × dim`
/// tile.
pub fn explore_1p2l(dim: u8, mutation: Mutation, cfg: &ExploreConfig) -> ExploreReport {
    let alphabet = alphabet_1p2l(dim);
    bfs(
        Model1P2L::new(dim, mutation),
        &alphabet,
        Model1P2L::encode,
        Model1P2L::check_invariants,
        |m, op| {
            apply_1p2l(m, op);
        },
        cfg,
    )
}

/// Exhaustively explores the 2P2L model (sparse or dense fill) over a
/// `dim × dim` tile.
pub fn explore_2p2l(
    dim: u8,
    sparse: bool,
    mutation: Mutation,
    cfg: &ExploreConfig,
) -> ExploreReport {
    let alphabet = alphabet_2p2l(dim);
    bfs(
        Model2P2L::new(dim, sparse, mutation),
        &alphabet,
        Model2P2L::encode,
        Model2P2L::check_invariants,
        |m, op| {
            apply_2p2l(m, op);
        },
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_1p2l_2x2_is_clean() {
        let report = explore_1p2l(2, Mutation::None, &ExploreConfig::default());
        assert!(report.is_clean_and_exhaustive(), "{:?}", report.counterexample);
        assert!(report.states > 10, "space should be nontrivial, got {}", report.states);
    }

    #[test]
    fn faithful_2p2l_2x2_is_clean_both_fills() {
        for sparse in [true, false] {
            let report = explore_2p2l(2, sparse, Mutation::None, &ExploreConfig::default());
            assert!(report.is_clean_and_exhaustive(), "{:?}", report.counterexample);
        }
    }

    #[test]
    fn mutated_1p2l_yields_counterexample_with_trace() {
        let report = explore_1p2l(2, Mutation::SkipDuplicateEviction, &ExploreConfig::default());
        let cex = report.counterexample.expect("seeded bug must be found");
        assert!(matches!(cex.violation, Violation::StaleCopy { .. }));
        assert!(!cex.trace.is_empty(), "counterexample must have a trace");
    }

    #[test]
    fn mutated_writeback_yields_flush_divergence() {
        let report =
            explore_1p2l(2, Mutation::DropWritebackWord { offset: 0 }, &ExploreConfig::default());
        let cex = report.counterexample.expect("seeded bug must be found");
        assert!(matches!(cex.violation, Violation::FlushDiverged { .. }));

        let report = explore_2p2l(
            2,
            true,
            Mutation::DropWritebackWord { offset: 0 },
            &ExploreConfig::default(),
        );
        let cex = report.counterexample.expect("seeded bug must be found");
        assert!(matches!(cex.violation, Violation::FlushDiverged { .. }));
    }

    #[test]
    fn state_cap_truncates() {
        let report = explore_1p2l(3, Mutation::None, &ExploreConfig { max_states: 50 });
        assert!(report.truncated);
        assert!(report.states >= 50);
    }
}

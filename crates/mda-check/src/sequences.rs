//! Bounded enumeration of access sequences for the differential mode.
//!
//! The differential replays sequences over a small sub-grid of tile 0 —
//! every scalar read/write of the sub-grid's words in both orientation
//! preferences, and every vector read/write of the sub-grid's lines. All
//! sequences up to a fixed depth are enumerated exhaustively; longer
//! interleavings are sampled with a fixed-seed xorshift generator so runs
//! stay deterministic.

use crate::model::MODEL_TILE;
use crate::ops::Op;
use mda_mem::{LineKey, Orientation, WordAddr};

/// The differential access alphabet over a `sub × sub` corner of the model
/// tile (`sub ≤ 8`). Unlike the explorer alphabets this contains only
/// processor-side accesses: fills are implied by misses, and eviction /
/// flush are exercised by the end-of-sequence flush comparison.
pub fn diff_alphabet(sub: u8) -> Vec<Op> {
    let mut ops = Vec::new();
    for r in 0..sub {
        for c in 0..sub {
            let word = WordAddr::from_tile_coords(MODEL_TILE, r, c);
            for orient in Orientation::BOTH {
                ops.push(Op::ScalarRead { word, orient });
                ops.push(Op::ScalarWrite { word, orient });
            }
        }
    }
    for orient in Orientation::BOTH {
        for idx in 0..sub {
            let line = LineKey::new(MODEL_TILE, orient, idx);
            ops.push(Op::VectorRead { line });
            ops.push(Op::VectorWrite { line });
        }
    }
    ops
}

/// Calls `f` with every op sequence of length `1..=depth` over `alphabet`
/// (lexicographic order), then with `random` additional sequences of length
/// `random_len` drawn from a xorshift64 stream seeded with `seed`. Stops
/// early if `f` returns `false`.
pub fn for_each_sequence(
    alphabet: &[Op],
    depth: usize,
    random: usize,
    random_len: usize,
    seed: u64,
    mut f: impl FnMut(&[Op]) -> bool,
) {
    let n = alphabet.len();
    let mut buf: Vec<Op> = Vec::with_capacity(depth.max(random_len));
    for len in 1..=depth {
        // Odometer over `len` digits of base `n`.
        let mut digits = vec![0usize; len];
        loop {
            buf.clear();
            buf.extend(digits.iter().map(|&d| alphabet[d]));
            if !f(&buf) {
                return;
            }
            let mut pos = len;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                digits[pos] += 1;
                if digits[pos] < n {
                    break;
                }
                digits[pos] = 0;
            }
            if digits.iter().all(|&d| d == 0) {
                break;
            }
        }
    }
    let mut state = seed | 1;
    let mut next = || {
        // xorshift64: deterministic, dependency-free.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..random {
        buf.clear();
        for _ in 0..random_len {
            buf.push(alphabet[(next() % n as u64) as usize]);
        }
        if !f(&buf) {
            return;
        }
    }
}

/// Number of sequences [`for_each_sequence`] visits.
#[cfg(test)]
fn sequence_count(alphabet_len: usize, depth: usize, random: usize) -> usize {
    let mut total = 0usize;
    let mut pow = 1usize;
    for _ in 0..depth {
        pow = pow.saturating_mul(alphabet_len);
        total = total.saturating_add(pow);
    }
    total.saturating_add(random)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_enumeration_counts_match() {
        let alphabet = diff_alphabet(2);
        assert_eq!(alphabet.len(), 24);
        let mut seen = 0usize;
        for_each_sequence(&alphabet, 2, 5, 7, 0x1234, |seq| {
            assert!(!seq.is_empty());
            seen += 1;
            true
        });
        assert_eq!(seen, sequence_count(24, 2, 5));
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let alphabet = diff_alphabet(2);
        let mut seen = 0usize;
        for_each_sequence(&alphabet, 2, 0, 0, 1, |_| {
            seen += 1;
            seen < 10
        });
        assert_eq!(seen, 10);
    }
}

//! Cross-validation between the analytical reuse-distance profile and the
//! simulated LRU cache: under fully-associative LRU, an access hits iff
//! its reuse distance is below the line capacity, so
//! `ReuseProfile::hit_rate_at(F)` must equal the hit rate of a simulated
//! one-set, F-way rows-only `Cache1P2L` (the 1P1L baseline) on the same
//! trace — bit for bit.

use mdacache::cache::{Access, Cache1P2L, CacheConfig, CacheLevel, CacheLevelExt};
use mdacache::compiler::reuse::{ReuseGranularity, ReuseProfile};
use mdacache::compiler::trace::{TraceOp, TraceSource};
use mdacache::compiler::{AffineExpr, ArrayRef, CodegenOptions, Loop, LoopNest, Program};
use mdacache::mem::Orientation;

fn scalar_opts() -> CodegenOptions {
    CodegenOptions {
        layout: mdacache::compiler::LayoutKind::Tiled2D,
        vectorize_rows: false,
        vectorize_cols: false,
        loop_overhead: 0,
    }
}

/// Simulates a fully-associative LRU cache of `frames` row lines over the
/// scalar trace of `p`, returning its hit rate.
fn simulated_fa_hit_rate(p: &Program, frames: usize) -> f64 {
    let cfg = CacheConfig {
        size_bytes: frames as u64 * 64,
        assoc: frames,
        tag_latency: 1,
        data_latency: 1,
        sequential_tag_data: false,
        mshrs: 1,
        write_penalty: 0,
    };
    let mut cache = Cache1P2L::rows_only(cfg);
    p.generate(&scalar_opts(), &mut |op| {
        if let TraceOp::Mem(m) = op {
            let acc = Access::scalar_read(m.word, Orientation::Row, m.stream);
            let probe = cache.probe(&acc);
            if !probe.hit {
                cache.fill_collect(probe.fills[0], 0);
            }
        }
    });
    cache.stats().hit_rate()
}

fn mixed_workload(n: i64) -> Program {
    let mut p = Program::new("mixed");
    let a = p.array("A", n as u64, n as u64);
    let b = p.array("B", n as u64, n as u64);
    // A row-scanned twice, B column-scanned once — a blend of short and
    // long reuse distances.
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, 2), Loop::constant(0, n), Loop::constant(0, n)],
        refs: vec![ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(2))],
        flops_per_iter: 0,
    });
    p.add_nest(LoopNest {
        loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
        refs: vec![ArrayRef::read(b, AffineExpr::var(1), AffineExpr::var(0))],
        flops_per_iter: 0,
    });
    p
}

#[test]
fn reuse_profile_predicts_fully_associative_lru_exactly() {
    let p = mixed_workload(24);
    let profile = ReuseProfile::collect(&p, &scalar_opts(), ReuseGranularity::RowLines);
    for frames in [1usize, 4, 16, 48, 96, 512] {
        let predicted = profile.hit_rate_at(frames as u64);
        let simulated = simulated_fa_hit_rate(&p, frames);
        assert!(
            (predicted - simulated).abs() < 1e-12,
            "capacity {frames}: analytical {predicted} vs simulated {simulated}"
        );
    }
}

#[test]
fn footprint_matches_distinct_lines_touched() {
    let p = mixed_workload(16);
    let profile = ReuseProfile::collect(&p, &scalar_opts(), ReuseGranularity::RowLines);
    let mut lines = std::collections::HashSet::new();
    p.generate(&scalar_opts(), &mut |op| {
        if let TraceOp::Mem(m) = op {
            lines.insert(mdacache::mem::LineKey::containing(m.word, Orientation::Row));
        }
    });
    assert_eq!(profile.footprint_lines(), lines.len() as u64);
    // With capacity ≥ footprint, only cold misses remain.
    let all = profile.hit_rate_at(lines.len() as u64);
    let expected = 1.0 - profile.cold_misses() as f64 / profile.accesses() as f64;
    assert!((all - expected).abs() < 1e-12);
}

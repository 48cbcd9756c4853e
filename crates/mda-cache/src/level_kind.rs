// mda-lint: hot-path
//! Statically-dispatched sum of the two cache organizations.
//!
//! [`LevelKind`] enumerates the two concrete arrays: [`Cache1P2L`] (whose
//! rows-only mode is the 1P1L baseline) and [`Cache2P2L`] (whose rows-only
//! mode is the 2P1L taxonomy point). Each trait call is a `match` that
//! monomorphizes into direct calls the optimizer can inline. The
//! `CacheLevel` trait itself stays object-safe for tests and tools that
//! want dynamic dispatch.

use crate::cache_1p2l::Cache1P2L;
use crate::cache_2p2l::Cache2P2L;
use crate::config::CacheConfig;
use crate::level::{Access, CacheLevel, Probe, Writeback};
use crate::stats::CacheStats;
use mda_mem::LineKey;

/// One cache level of any of the taxonomy organizations.
#[derive(Debug, Clone)]
pub enum LevelKind {
    /// Physically 1-D SRAM: logically 2-D (Different-Set or Same-Set
    /// mapping), or rows-only for the conventional 1P1L baseline.
    L1P2L(Cache1P2L),
    /// Physically 2-D (512-byte blocks): logically 2-D, or rows-only for
    /// the 2P1L taxonomy ablation.
    L2P2L(Cache2P2L),
}

impl From<Cache1P2L> for LevelKind {
    fn from(c: Cache1P2L) -> LevelKind {
        LevelKind::L1P2L(c)
    }
}

impl From<Cache2P2L> for LevelKind {
    fn from(c: Cache2P2L) -> LevelKind {
        LevelKind::L2P2L(c)
    }
}

/// Dispatches `$self.$method(...)` to whichever organization is inside.
macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            LevelKind::L1P2L($inner) => $body,
            LevelKind::L2P2L($inner) => $body,
        }
    };
}

impl CacheLevel for LevelKind {
    fn probe_into(&mut self, acc: &Access, out: &mut Probe) {
        dispatch!(self, c => c.probe_into(acc, out))
    }

    fn fill(&mut self, line: LineKey, dirty: u8, out: &mut Vec<Writeback>) {
        dispatch!(self, c => c.fill(line, dirty, out))
    }

    fn absorb_writeback(&mut self, wb: &Writeback, cascades: &mut Vec<Writeback>) -> bool {
        dispatch!(self, c => c.absorb_writeback(wb, cascades))
    }

    fn contains_line(&self, line: &LineKey) -> bool {
        dispatch!(self, c => c.contains_line(line))
    }

    fn occupancy(&self) -> (usize, usize, usize) {
        dispatch!(self, c => c.occupancy())
    }

    fn stats(&self) -> &CacheStats {
        dispatch!(self, c => c.stats())
    }

    fn stats_mut(&mut self) -> &mut CacheStats {
        dispatch!(self, c => c.stats_mut())
    }

    fn config(&self) -> &CacheConfig {
        dispatch!(self, c => c.config())
    }

    fn flush(&mut self, out: &mut Vec<Writeback>) {
        dispatch!(self, c => c.flush(out))
    }

    fn for_each_line(&self, f: &mut dyn FnMut(LineKey, u8)) {
        dispatch!(self, c => c.for_each_line(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SetMapping;
    use crate::level::CacheLevelExt;
    use mda_mem::Orientation;

    fn one_of_each() -> Vec<LevelKind> {
        let mut cfg = CacheConfig::l1_32k();
        cfg.size_bytes = 4096;
        let big = CacheConfig::l3(16 * 1024);
        vec![
            Cache1P2L::rows_only(cfg).into(),
            Cache1P2L::new(cfg, SetMapping::DifferentSet).into(),
            Cache2P2L::rows_only(big).into(),
            Cache2P2L::new(big).into(),
        ]
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        for mut level in one_of_each() {
            let line = LineKey::new(0, Orientation::Row, 1);
            let p = level.probe(&Access::vector_read(line, 0));
            assert!(!p.hit);
            assert_eq!(p.fills[0], line);
            assert!(level.fill_collect(line, 0xFF).is_empty());
            assert!(level.contains_line(&line));
            assert_eq!(level.stats().misses, 1);
            let wbs = level.flush_collect();
            assert_eq!(wbs.len(), 1, "dirty fill writes back on flush");
            assert!(!level.contains_line(&line));
        }
    }

    #[test]
    fn enum_is_usable_behind_dyn_too() {
        // The trait stays object-safe: a LevelKind can itself be boxed.
        let mut cfg = CacheConfig::l1_32k();
        cfg.size_bytes = 4096;
        let boxed: Box<dyn CacheLevel> = Box::new(LevelKind::from(Cache1P2L::rows_only(cfg)));
        assert_eq!(boxed.occupancy().0, 0);
    }
}

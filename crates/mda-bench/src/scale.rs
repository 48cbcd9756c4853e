//! Experiment scales: the paper's full configuration and shrunken variants
//! that preserve working-set-to-capacity ratios.

use mda_sim::{HierarchyKind, SystemConfig};

/// How large to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// 64×64 inputs, 4 KB / 8 KB / 16 KB caches — seconds per figure.
    Tiny,
    /// 256×256 inputs, 16 KB / 64 KB / 256 KB caches — the default; the
    /// paper's non-resident ratios at 4× reduction.
    Scaled,
    /// 512×512 inputs against the unmodified Table I machine.
    Paper,
}

impl Scale {
    /// Parses a scale name.
    ///
    /// # Errors
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "scaled" => Ok(Scale::Scaled),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (tiny|scaled|paper)")),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Scaled => "scaled",
            Scale::Paper => "paper",
        }
    }

    /// The matrix dimension used at this scale (the paper's larger,
    /// non-cache-resident input).
    pub fn input(&self) -> u64 {
        match self {
            Scale::Tiny => 64,
            Scale::Scaled => 256,
            Scale::Paper => 512,
        }
    }

    /// The smaller input (the paper's 256×256 companion size, used by the
    /// Fig. 10 comparison and the Fig. 13 cache-resident study).
    pub fn small_input(&self) -> u64 {
        self.input() / 2
    }

    /// The default system for `kind` at this scale (the "1 MB LLC"
    /// equivalent).
    pub fn system(&self, kind: HierarchyKind) -> SystemConfig {
        match self {
            Scale::Tiny => SystemConfig::tiny(kind),
            Scale::Scaled => SystemConfig::scaled(kind),
            Scale::Paper => SystemConfig::paper(kind),
        }
    }

    /// The system with an explicit LLC capacity (Fig. 12 sweep).
    pub fn system_with_llc(&self, kind: HierarchyKind, llc: u64) -> SystemConfig {
        let mut cfg = self.system(kind);
        cfg.l3 = Some(mda_cache::CacheConfig::l3(llc));
        cfg
    }

    /// How many times smaller than the paper's the LLC capacities are.
    fn llc_divisor(&self) -> u64 {
        match self {
            Scale::Tiny => 64,
            Scale::Scaled => 4,
            Scale::Paper => 1,
        }
    }

    /// The Fig. 12 LLC sweep: the paper's 1 / 1.5 / 2 / 4 MB, divided by
    /// the scale factor.
    pub fn llc_sweep(&self) -> [u64; 4] {
        let (mb, div) = (1024 * 1024, self.llc_divisor());
        [mb / div, 3 * mb / 2 / div, 2 * mb / div, 4 * mb / div]
    }

    /// The Fig. 13 cache-resident system: two levels, the L2 as the LLC
    /// sized to hold the small input's working set (2 MB in the paper).
    pub fn cache_resident_system(&self, kind: HierarchyKind) -> SystemConfig {
        let mut cfg = SystemConfig { l3: None, ..self.system(kind) };
        cfg.l2.size_bytes = 2 * 1024 * 1024 / self.llc_divisor();
        cfg
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in [Scale::Tiny, Scale::Scaled, Scale::Paper] {
            assert_eq!(Scale::parse(s.name()), Ok(s));
        }
        assert!(Scale::parse("huge").is_err());
    }

    #[test]
    fn ratios_are_preserved_across_scales() {
        // input² × 8 B per matrix over LLC bytes must match the paper's
        // ratio (512² × 8 / 1 MB = 2).
        for s in [Scale::Tiny, Scale::Scaled, Scale::Paper] {
            let cfg = s.system(HierarchyKind::Baseline1P1L);
            let llc = cfg.l3.expect("three-level").size_bytes;
            let ratio = (s.input() * s.input() * 8) as f64 / llc as f64;
            assert!((ratio - 2.0).abs() < 1e-9, "{s}: ratio {ratio}");
        }
    }

    #[test]
    fn llc_sweep_is_increasing() {
        for s in [Scale::Tiny, Scale::Scaled, Scale::Paper] {
            let sweep = s.llc_sweep();
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(Scale::Paper.llc_sweep()[0], 1024 * 1024);
    }

    #[test]
    fn every_llc_sweep_preset_validates() {
        for s in [Scale::Tiny, Scale::Scaled, Scale::Paper] {
            for kind in HierarchyKind::all() {
                for llc in s.llc_sweep() {
                    let cfg = s.system_with_llc(kind, llc);
                    assert_eq!(cfg.validate(), Ok(()), "{s} {kind:?} {llc}");
                }
            }
        }
    }

    #[test]
    fn cache_resident_is_two_level_and_roomy() {
        for s in [Scale::Tiny, Scale::Scaled, Scale::Paper] {
            for kind in HierarchyKind::all() {
                let cfg = s.cache_resident_system(kind);
                assert_eq!(cfg.validate(), Ok(()), "{s} {kind:?}");
                assert_eq!(cfg.num_levels(), 2);
                assert_eq!(cfg.build_hierarchy().levels().len(), 2);
                let ws = s.small_input() * s.small_input() * 8;
                assert!(cfg.l2.size_bytes >= ws, "{s}: LLC holds one matrix");
            }
        }
        let paper = Scale::Paper.cache_resident_system(HierarchyKind::P2L2Sparse);
        assert_eq!(paper.l2.size_bytes, 2 * 1024 * 1024);
    }
}

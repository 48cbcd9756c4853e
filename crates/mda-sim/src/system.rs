//! System configuration presets: the paper's Table I machine and scaled
//! variants for fast regeneration of every figure.

use crate::core::CoreConfig;
use crate::hierarchy::Hierarchy;
use mda_cache::{Cache1P2L, Cache2P2L, CacheConfig, LevelKind, SetMapping, StridePrefetcher};
use mda_compiler::CodegenOptions;
use mda_mem::{ConfigError, FaultConfig, MainMemory, MemConfig};

/// The cache-hierarchy design points evaluated in the paper (Sec. IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierarchyKind {
    /// Design 0: 1P1L everywhere, with stride prefetching (the baseline).
    Baseline1P1L,
    /// Design 1: 1P2L everywhere, Different-Set index mapping.
    P1L2DifferentSet,
    /// Design 1 variant: 1P2L everywhere, Same-Set index mapping.
    P1L2SameSet,
    /// Design 2: 1P2L L1/L2 with a sparse 2P2L LLC.
    P2L2Sparse,
    /// Design 2 ablation: dense-fill 2P2L LLC.
    P2L2Dense,
    /// Taxonomy-completion ablation (elided in the paper): 1P1L L1/L2 with
    /// a physically 2-D but logically 1-D (row-only) NVM LLC.
    P2L1,
}

impl HierarchyKind {
    /// All design points in plotting order.
    pub fn all() -> [HierarchyKind; 6] {
        [
            HierarchyKind::Baseline1P1L,
            HierarchyKind::P1L2DifferentSet,
            HierarchyKind::P1L2SameSet,
            HierarchyKind::P2L2Sparse,
            HierarchyKind::P2L2Dense,
            HierarchyKind::P2L1,
        ]
    }

    /// The paper's label for the design.
    pub fn name(&self) -> &'static str {
        match self {
            HierarchyKind::Baseline1P1L => "1P1L",
            HierarchyKind::P1L2DifferentSet => "1P2L",
            HierarchyKind::P1L2SameSet => "1P2L_SameSet",
            HierarchyKind::P2L2Sparse => "2P2L",
            HierarchyKind::P2L2Dense => "2P2L_Dense",
            HierarchyKind::P2L1 => "2P1L",
        }
    }

    /// Whether this design runs the MDA code generator (2-D layout, dual
    /// vectorization) or the conventional one. Mirrors the paper's rule:
    /// every experiment pairs each hierarchy with the memory layout
    /// optimized for its logical dimensionality.
    pub fn codegen(&self) -> CodegenOptions {
        match self {
            // Logically 1-D hierarchies pair with the 1-D-optimized layout
            // and row-only vectorization.
            HierarchyKind::Baseline1P1L | HierarchyKind::P2L1 => CodegenOptions::baseline(),
            _ => CodegenOptions::mda(),
        }
    }

    /// Whether the design has the baseline stride prefetcher. Logically 1-D
    /// hierarchies keep it so the 2P1L ablation isolates the physical-array
    /// change; the paper evaluates the MDA designs without prefetching.
    pub(crate) fn prefetches(&self) -> bool {
        matches!(self, HierarchyKind::Baseline1P1L | HierarchyKind::P2L1)
    }
}

impl std::fmt::Display for HierarchyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A complete simulated-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Cache design point.
    pub kind: HierarchyKind,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 cache.
    pub l2: CacheConfig,
    /// L3 cache (None for two-level systems; then the L2 is the LLC).
    pub l3: Option<CacheConfig>,
    /// Main-memory organization and timing.
    pub mem: MemConfig,
    /// Core model.
    pub core: CoreConfig,
    /// Code-generation options fed to the compiler.
    pub codegen: CodegenOptions,
    /// Stride-prefetch degree for the baseline (ignored by MDA designs,
    /// which the paper evaluates without prefetching).
    pub prefetch_degree: usize,
    /// Extra write cycles of the on-chip NVM LLC (2P2L designs only;
    /// 20 in the paper's Fig. 16 asymmetry study).
    pub llc_write_penalty: u64,
    /// Sample cache occupancy every N memory ops (0 disables, Fig. 15).
    pub occupancy_every: u64,
}

impl SystemConfig {
    /// Paper Table I: 32 KB L1 / 256 KB L2 / 1 MB L3.
    pub fn paper(kind: HierarchyKind) -> SystemConfig {
        SystemConfig {
            kind,
            l1: CacheConfig::l1_32k(),
            l2: CacheConfig::l2_256k(),
            l3: Some(CacheConfig::l3(1024 * 1024)),
            mem: MemConfig::paper(),
            core: CoreConfig::paper(),
            codegen: kind.codegen(),
            prefetch_degree: 4,
            llc_write_penalty: 0,
            occupancy_every: 0,
        }
    }

    /// A 4×-scaled system: 256×256 inputs against a 16 KB / 64 KB / 256 KB
    /// hierarchy. Working-set-to-capacity ratios match the paper's
    /// non-resident configuration, so every figure regenerates in seconds.
    pub fn scaled(kind: HierarchyKind) -> SystemConfig {
        let mut l1 = CacheConfig::l1_32k();
        l1.size_bytes = 16 * 1024;
        let mut l2 = CacheConfig::l2_256k();
        l2.size_bytes = 64 * 1024;
        SystemConfig { l1, l2, l3: Some(CacheConfig::l3(256 * 1024)), ..SystemConfig::paper(kind) }
    }

    /// A minimal system for unit tests and smoke runs: 64×64 inputs
    /// against 4 KB / 8 KB / 16 KB caches (the paper's working-set ratio at
    /// 64× reduction).
    pub fn tiny(kind: HierarchyKind) -> SystemConfig {
        let mut l1 = CacheConfig::l1_32k();
        l1.size_bytes = 4 * 1024;
        let mut l2 = CacheConfig::l2_256k();
        l2.size_bytes = 8 * 1024;
        let mut l3 = CacheConfig::l3(16 * 1024);
        l3.mshrs = 32;
        SystemConfig { l1, l2, l3: Some(l3), ..SystemConfig::paper(kind) }
    }

    /// Switches to the 1.6× faster main memory of Fig. 17.
    pub fn with_fast_memory(mut self) -> SystemConfig {
        self.mem = MemConfig { timing: self.mem.timing.scaled(1.6), ..self.mem };
        self
    }

    /// Applies the Fig. 16 on-chip NVM write asymmetry to the LLC.
    pub fn with_llc_write_penalty(mut self, cycles: u64) -> SystemConfig {
        self.llc_write_penalty = cycles;
        self
    }

    /// Enables Fig. 15 occupancy sampling.
    pub fn with_occupancy_sampling(mut self, every_ops: u64) -> SystemConfig {
        self.occupancy_every = every_ops;
        self
    }

    /// Attaches a main-memory fault model (reliability experiments).
    pub fn with_faults(mut self, faults: FaultConfig) -> SystemConfig {
        self.mem.faults = faults;
        self
    }

    /// Validates every cache level, the memory organization, the core and
    /// the prefetch degree of a design that prefetches.
    ///
    /// # Errors
    /// Propagates the first [`ConfigError`] found, walking L1 → L2 → L3 →
    /// memory → core → prefetcher.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1.validate()?;
        self.l2.validate()?;
        if let Some(l3) = &self.l3 {
            l3.validate()?;
        }
        self.mem.validate()?;
        self.core.validate()?;
        if self.kind.prefetches() && self.prefetch_degree == 0 {
            return Err(ConfigError::Zero { field: "prefetch_degree" });
        }
        Ok(())
    }

    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        2 + usize::from(self.l3.is_some())
    }

    /// Builds the single-core hierarchy this configuration describes.
    ///
    /// # Panics
    /// Panics if [`SystemConfig::validate`] rejects the configuration;
    /// validate explicitly first to handle the error gracefully.
    pub fn build_hierarchy(&self) -> Hierarchy {
        self.build(1)
    }

    /// Builds `cores` copies of this configuration's private levels, each
    /// core with its own prefetcher, in front of one LLC and one main
    /// memory. With a two-level configuration the L2 is the LLC.
    ///
    /// # Panics
    /// Panics if [`SystemConfig::validate`] rejects the configuration or
    /// `cores` is zero.
    pub(crate) fn build(&self, cores: usize) -> Hierarchy {
        if let Err(e) = self.validate() {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting invalid configs
            panic!("invalid SystemConfig: {e}");
        }
        let caches = [self.l1, self.l2];
        let (private, mut llc_cfg) = match self.l3 {
            Some(l3) => (&caches[..], l3),
            None => (&caches[..1], self.l2),
        };
        let mapping = match self.kind {
            HierarchyKind::P1L2SameSet => SetMapping::SameSet,
            _ => SetMapping::DifferentSet,
        };
        let private_level = |cfg: &CacheConfig| -> LevelKind {
            match self.kind {
                HierarchyKind::Baseline1P1L | HierarchyKind::P2L1 => {
                    Cache1P2L::rows_only(*cfg).into()
                }
                _ => Cache1P2L::new(*cfg, mapping).into(),
            }
        };
        let privates = (0..cores).map(|_| private.iter().map(private_level).collect()).collect();
        let prefetchers = (0..cores)
            .map(|_| self.kind.prefetches().then(|| StridePrefetcher::new(self.prefetch_degree)))
            .collect();

        llc_cfg.write_penalty = self.llc_write_penalty;
        let llc = match self.kind {
            HierarchyKind::Baseline1P1L => Cache1P2L::rows_only(llc_cfg).into(),
            HierarchyKind::P1L2DifferentSet | HierarchyKind::P1L2SameSet => {
                Cache1P2L::new(llc_cfg, mapping).into()
            }
            HierarchyKind::P2L2Sparse => Cache2P2L::new(llc_cfg).into(),
            HierarchyKind::P2L2Dense => Cache2P2L::with_fill_policy(llc_cfg, false).into(),
            HierarchyKind::P2L1 => Cache2P2L::rows_only(llc_cfg).into(),
        };
        Hierarchy::multicore(privates, llc, prefetchers, MainMemory::new(self.mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_cache::CacheLevel;

    #[test]
    fn presets_build_for_every_kind() {
        for kind in HierarchyKind::all() {
            for cfg in [
                SystemConfig::paper(kind),
                SystemConfig { l3: None, ..SystemConfig::tiny(kind) },
                SystemConfig::scaled(kind),
                SystemConfig::tiny(kind),
            ] {
                let h = cfg.build_hierarchy();
                assert_eq!(h.levels().len(), cfg.num_levels());
            }
        }
    }

    #[test]
    fn baseline_uses_conventional_codegen() {
        let cfg = SystemConfig::paper(HierarchyKind::Baseline1P1L);
        assert!(!cfg.codegen.vectorize_cols);
        let cfg = SystemConfig::paper(HierarchyKind::P1L2DifferentSet);
        assert!(cfg.codegen.vectorize_cols);
    }

    #[test]
    fn fast_memory_scales_timing() {
        let base = SystemConfig::paper(HierarchyKind::Baseline1P1L);
        let fast = base.clone().with_fast_memory();
        assert!(fast.mem.timing.t_rcd < base.mem.timing.t_rcd);
    }

    #[test]
    fn write_penalty_reaches_the_llc_config() {
        let cfg = SystemConfig::paper(HierarchyKind::P2L2Sparse).with_llc_write_penalty(20);
        let h = cfg.build_hierarchy();
        assert_eq!(h.levels().last().expect("llc").config().write_penalty, 20);
    }

    #[test]
    fn every_preset_validates() {
        for kind in HierarchyKind::all() {
            assert_eq!(SystemConfig::paper(kind).validate(), Ok(()));
            assert_eq!(SystemConfig::scaled(kind).validate(), Ok(()));
            assert_eq!(SystemConfig::tiny(kind).validate(), Ok(()));
            assert_eq!(SystemConfig { l3: None, ..SystemConfig::tiny(kind) }.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_broken_levels_and_memory() {
        let mut cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        cfg.l1.assoc = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::Zero { field: "assoc" }));
        let mut cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        cfg.mem.channels = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::Zero { field: "channels" }));
    }

    #[test]
    fn validate_rejects_a_zero_core_resource() {
        let mut cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse);
        cfg.core.load_ports = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::Zero { field: "load_ports" }));
        let mut cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse);
        cfg.core.window = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::Zero { field: "window" }));
    }

    #[test]
    fn validate_rejects_a_zero_prefetch_degree_only_where_it_prefetches() {
        for kind in HierarchyKind::all() {
            let mut cfg = SystemConfig::tiny(kind);
            cfg.prefetch_degree = 0;
            if kind.prefetches() {
                assert_eq!(cfg.validate(), Err(ConfigError::Zero { field: "prefetch_degree" }));
            } else {
                assert_eq!(cfg.validate(), Ok(()), "{kind} has no prefetcher");
                let _ = cfg.build_hierarchy();
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid SystemConfig")]
    fn build_hierarchy_rejects_invalid_config() {
        let mut cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        cfg.l2.mshrs = 0;
        let _ = cfg.build_hierarchy();
    }

    #[test]
    fn with_faults_reaches_the_memory_config() {
        let fc = FaultConfig::uniform(7, 1e-4, 0.0, 0.0);
        let cfg = SystemConfig::tiny(HierarchyKind::P2L2Sparse).with_faults(fc);
        assert_eq!(cfg.mem.faults, fc);
        assert_eq!(cfg.validate(), Ok(()));
    }
}

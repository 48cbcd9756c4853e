//! Cache-level configuration.

use crate::mshr::Mshr;
use mda_mem::{ConfigError, LINE_BYTES};

/// Set-index mapping for logically 2-D caches (paper Sec. IV-C, Design 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetMapping {
    /// Rows and columns of a 2-D block map to *different* sets (tag kept at
    /// tile granularity). The preferred orientation is probed first; a
    /// scalar miss pays one extra sequential tag access to probe the other
    /// orientation, a vector miss/write pays up to eight intersecting-line
    /// checks.
    DifferentSet,
    /// All sixteen lines of a 2-D block map to the *same* set, allowing a
    /// simultaneous row/column lookup with a single set read (no extra
    /// sequential tag latency) at the cost of heavier set conflicts.
    SameSet,
}

impl std::fmt::Display for SetMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetMapping::DifferentSet => write!(f, "different-set"),
            SetMapping::SameSet => write!(f, "same-set"),
        }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Tag-array access latency in cycles.
    pub tag_latency: u64,
    /// Data-array access latency in cycles.
    pub data_latency: u64,
    /// Whether tag and data accesses are sequential (LLC-style) or parallel
    /// (L1-style, paper Table I).
    pub sequential_tag_data: bool,
    /// Miss-status-holding registers (outstanding misses).
    pub mshrs: usize,
    /// Extra cycles charged to operations that *write* the data array —
    /// models on-chip NVM read/write asymmetry for 2P2L (paper Fig. 16);
    /// zero for SRAM levels.
    pub write_penalty: u64,
}

impl CacheConfig {
    /// Paper Table I: 32 KB, 4-way, 2-cycle tag + 2-cycle data, parallel.
    pub fn l1_32k() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 4,
            tag_latency: 2,
            data_latency: 2,
            sequential_tag_data: false,
            mshrs: 16,
            write_penalty: 0,
        }
    }

    /// Paper Table I: 256 KB, 8-way, 6-cycle tag + 9-cycle data, sequential.
    pub fn l2_256k() -> CacheConfig {
        CacheConfig {
            size_bytes: 256 * 1024,
            assoc: 8,
            tag_latency: 6,
            data_latency: 9,
            sequential_tag_data: true,
            mshrs: 32,
            write_penalty: 0,
        }
    }

    /// Paper Table I: L3 of `size_bytes`, 8-way, 8-cycle tag + 12-cycle
    /// data, sequential. Used with 1 MB / 1.5 MB / 2 MB / 4 MB.
    pub fn l3(size_bytes: u64) -> CacheConfig {
        CacheConfig {
            size_bytes,
            assoc: 8,
            tag_latency: 8,
            data_latency: 12,
            sequential_tag_data: true,
            mshrs: 64,
            write_penalty: 0,
        }
    }

    /// Number of 64-byte line frames the capacity holds.
    pub fn line_frames(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }

    /// Number of sets when organized in 64-byte lines.
    pub fn line_sets(&self) -> usize {
        self.line_frames() / self.assoc
    }

    /// Number of 512-byte tile frames the capacity holds (2P2L).
    pub fn tile_frames(&self) -> usize {
        (self.size_bytes / mda_mem::TILE_BYTES) as usize
    }

    /// Number of sets when organized in 512-byte tiles (2P2L).
    pub fn tile_sets(&self) -> usize {
        self.tile_frames() / self.assoc
    }

    /// Latency of a hit: tag and data in parallel for L1-style levels,
    /// sequential otherwise.
    pub fn hit_latency(&self) -> u64 {
        if self.sequential_tag_data {
            self.tag_latency + self.data_latency
        } else {
            self.tag_latency.max(self.data_latency)
        }
    }

    /// Validates the geometry.
    ///
    /// Any associativity is legal (the reuse-distance model builds
    /// fully-associative levels of arbitrary way counts, and the 1.5 MB
    /// LLC yields a non-power-of-two set count), but the capacity must
    /// hold a whole number of sets.
    ///
    /// # Errors
    /// Returns a typed [`ConfigError`] when the capacity or associativity
    /// is zero, when the capacity is not a multiple of the line-size ×
    /// associativity, or when the cache has no MSHRs or more than
    /// [`Mshr::MAX_CAPACITY`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.assoc == 0 {
            return Err(ConfigError::Zero { field: "assoc" });
        }
        if self.size_bytes == 0 {
            return Err(ConfigError::Zero { field: "size_bytes" });
        }
        if !self.size_bytes.is_multiple_of(LINE_BYTES * self.assoc as u64) {
            return Err(ConfigError::NotAMultiple {
                field: "size_bytes",
                value: self.size_bytes,
                of: LINE_BYTES * self.assoc as u64,
            });
        }
        if self.line_sets() == 0 {
            return Err(ConfigError::Zero { field: "line_sets" });
        }
        if self.mshrs == 0 {
            return Err(ConfigError::Zero { field: "mshrs" });
        }
        if self.mshrs > Mshr::MAX_CAPACITY {
            return Err(ConfigError::TooLarge {
                field: "mshrs",
                value: self.mshrs as u64,
                max: Mshr::MAX_CAPACITY as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_presets_are_valid() {
        for cfg in [
            CacheConfig::l1_32k(),
            CacheConfig::l2_256k(),
            CacheConfig::l3(1024 * 1024),
            CacheConfig::l3(1536 * 1024),
            CacheConfig::l3(2 * 1024 * 1024),
            CacheConfig::l3(4 * 1024 * 1024),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn l1_geometry_matches_paper() {
        let l1 = CacheConfig::l1_32k();
        assert_eq!(l1.line_frames(), 512);
        assert_eq!(l1.line_sets(), 128);
        assert_eq!(l1.hit_latency(), 2, "parallel tag/data access");
    }

    #[test]
    fn llc_hit_latency_is_sequential() {
        let l3 = CacheConfig::l3(1024 * 1024);
        assert_eq!(l3.hit_latency(), 20);
        assert_eq!(l3.tile_frames(), 2048);
        assert_eq!(l3.tile_sets(), 256);
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut c = CacheConfig::l1_32k();
        c.size_bytes = 1000;
        assert!(matches!(c.validate(), Err(ConfigError::NotAMultiple { .. })));
        let mut c = CacheConfig::l1_32k();
        c.assoc = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "assoc" }));
        let mut c = CacheConfig::l1_32k();
        c.size_bytes = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "size_bytes" }));
        let mut c = CacheConfig::l1_32k();
        c.mshrs = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "mshrs" }));
        c.mshrs = Mshr::MAX_CAPACITY;
        assert_eq!(c.validate(), Ok(()));
        c.mshrs = Mshr::MAX_CAPACITY + 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooLarge { field: "mshrs", value: 65_536, max: 65_535 })
        );
    }

    #[test]
    fn unusual_but_legal_geometries_validate() {
        // The reuse-distance validation builds fully-associative caches of
        // arbitrary frame counts (e.g. 48 or 96 ways, one set).
        for frames in [1usize, 4, 48, 96] {
            let c = CacheConfig {
                size_bytes: frames as u64 * LINE_BYTES,
                assoc: frames,
                tag_latency: 1,
                data_latency: 1,
                sequential_tag_data: false,
                mshrs: 1,
                write_penalty: 0,
            };
            assert_eq!(c.validate(), Ok(()), "{frames}-way fully-associative");
            assert_eq!(c.line_sets(), 1);
        }
        // The 1.5 MB LLC has 3072 sets — not a power of two, still legal.
        assert_eq!(CacheConfig::l3(1536 * 1024).validate(), Ok(()));
    }
}

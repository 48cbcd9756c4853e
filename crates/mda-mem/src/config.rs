//! Main-memory configuration.

use crate::error::ConfigError;
use crate::faults::FaultConfig;
use crate::timing::MemTiming;

/// Configuration of the MDA main memory (paper Table I: 1 GB/channel × 4
/// channels, STT-RAM, open-page, FRFCFS-WQF controller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Tiles per physical array row inside a bank. Determines how many
    /// consecutive bank-local tiles share an open row buffer entry.
    pub tiles_per_array_row: u64,
    /// Concurrently open row (and column) buffer entries per bank. One is
    /// the paper's default; larger values model the multiple-sub-row-buffer
    /// scheme examined in paper Sec. IX-B.
    pub sub_buffers: usize,
    /// Device timing parameters.
    pub timing: MemTiming,
    /// Write-queue capacity per channel (requests).
    pub write_queue_capacity: usize,
    /// When the write queue reaches this fill level, reads stall while the
    /// queue drains to `write_queue_low` (the "WQF" in FRFCFS-WQF).
    pub write_queue_high: usize,
    /// Drain target once the high watermark is hit.
    pub write_queue_low: usize,
    /// Fault-injection / ECC model. `FaultConfig::none()` (the default)
    /// keeps the controller byte-identical to the fault-free simulator.
    pub faults: FaultConfig,
}

impl MemConfig {
    /// The paper's 4-channel STT configuration.
    pub fn paper() -> MemConfig {
        MemConfig {
            channels: 4,
            ranks: 1,
            banks: 8,
            // An 8 KB physical row (128 tiles × 64 B of row data each).
            tiles_per_array_row: 128,
            sub_buffers: 1,
            timing: MemTiming::stt(),
            write_queue_capacity: 64,
            write_queue_high: 48,
            write_queue_low: 16,
            faults: FaultConfig::none(),
        }
    }

    /// Same organization with the 1.6× faster device of Fig. 17.
    pub fn paper_fast() -> MemConfig {
        MemConfig { timing: MemTiming::fast(), ..MemConfig::paper() }
    }

    /// The same configuration with a fault model attached.
    pub fn with_faults(self, faults: FaultConfig) -> MemConfig {
        MemConfig { faults, ..self }
    }

    /// Total number of banks across the whole memory.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a typed [`ConfigError`] for zero-sized resources, non-power-
    /// of-two geometry, inverted write-queue watermarks, or out-of-range
    /// fault probabilities.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("banks", self.banks),
            ("sub_buffers", self.sub_buffers),
        ] {
            if value == 0 {
                return Err(ConfigError::Zero { field });
            }
        }
        if self.tiles_per_array_row == 0 {
            return Err(ConfigError::Zero { field: "tiles_per_array_row" });
        }
        // The Fig. 8 address decode assumes power-of-two interleaving
        // across channels and within a physical array row.
        if !self.channels.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "channels",
                value: self.channels as u64,
            });
        }
        if !self.tiles_per_array_row.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "tiles_per_array_row",
                value: self.tiles_per_array_row,
            });
        }
        if self.write_queue_low >= self.write_queue_high
            || self.write_queue_high > self.write_queue_capacity
        {
            return Err(ConfigError::Watermarks {
                low: self.write_queue_low,
                high: self.write_queue_high,
                capacity: self.write_queue_capacity,
            });
        }
        self.faults.validate()
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        assert_eq!(MemConfig::paper().validate(), Ok(()));
        assert_eq!(MemConfig::paper_fast().validate(), Ok(()));
        assert_eq!(MemConfig::paper().total_banks(), 32);
    }

    #[test]
    fn invalid_watermarks_are_rejected() {
        let mut c = MemConfig::paper();
        c.write_queue_low = c.write_queue_high;
        assert!(matches!(c.validate(), Err(ConfigError::Watermarks { .. })));
        let mut c = MemConfig::paper();
        c.write_queue_high = c.write_queue_capacity + 1;
        assert!(matches!(c.validate(), Err(ConfigError::Watermarks { .. })));
        let mut c = MemConfig::paper();
        c.banks = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "banks" }));
    }

    #[test]
    fn non_power_of_two_geometry_is_rejected() {
        let mut c = MemConfig::paper();
        c.channels = 3;
        assert_eq!(c.validate(), Err(ConfigError::NotPowerOfTwo { field: "channels", value: 3 }));
        let mut c = MemConfig::paper();
        c.tiles_per_array_row = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_fault_probability_is_rejected() {
        let mut c = MemConfig::paper();
        c.faults.row.write_ber = 2.0;
        assert!(matches!(c.validate(), Err(ConfigError::Probability { .. })));
    }
}

//! Typed configuration errors.
//!
//! `mda-mem` hosts the workspace's shared vocabulary, so the error type for
//! configuration validation lives here too: both [`crate::MemConfig`] and
//! `mda-cache`'s `CacheConfig` report the same [`ConfigError`], and
//! `mda-sim::SystemConfig` surfaces it at construction time.

/// A reason a configuration failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field that must be non-zero was zero.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// A field that must be a power of two was not.
    NotPowerOfTwo {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A field must be a multiple of a granularity and was not.
    NotAMultiple {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// The required granularity.
        of: u64,
    },
    /// A field exceeds its largest supported value.
    TooLarge {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
    /// Write-queue watermarks are inverted or exceed the queue capacity.
    Watermarks {
        /// Drain-target (low) watermark.
        low: usize,
        /// Drain-trigger (high) watermark.
        high: usize,
        /// Physical queue capacity.
        capacity: usize,
    },
    /// A probability lies outside `[0, 1]` (or is NaN).
    Probability {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero { field } => write!(f, "{field} must be non-zero"),
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a power of two, got {value}")
            }
            ConfigError::NotAMultiple { field, value, of } => {
                write!(f, "{field} ({value}) must be a multiple of {of}")
            }
            ConfigError::TooLarge { field, value, max } => {
                write!(f, "{field} ({value}) must be at most {max}")
            }
            ConfigError::Watermarks { low, high, capacity } => write!(
                f,
                "write queue watermarks must satisfy low < high <= capacity, \
                 got low {low} / high {high} / capacity {capacity}"
            ),
            ConfigError::Probability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_field() {
        let e = ConfigError::Zero { field: "channels" };
        assert!(e.to_string().contains("channels"));
        let e = ConfigError::Probability { field: "write_ber", value: 1.5 };
        assert!(e.to_string().contains("write_ber"));
        assert!(e.to_string().contains("1.5"));
        let e = ConfigError::NotPowerOfTwo { field: "banks", value: 3 };
        assert!(e.to_string().contains("power of two"));
        let e = ConfigError::NotAMultiple { field: "size", value: 1000, of: 64 };
        assert!(e.to_string().contains("multiple"));
        let e = ConfigError::TooLarge { field: "mshrs", value: 70_000, max: 65_535 };
        assert!(e.to_string().contains("at most 65535"));
        let e = ConfigError::Watermarks { low: 9, high: 9, capacity: 8 };
        assert!(e.to_string().contains("low 9"));
    }
}

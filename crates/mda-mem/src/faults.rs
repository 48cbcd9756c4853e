//! Deterministic fault injection and SECDED ECC accounting for the MDA
//! crosspoint array.
//!
//! STT-MRAM crosspoint cells fail stochastically: writes occasionally do
//! not switch the free layer, reads disturb neighboring cells, and stored
//! values decay (retention faults). A production controller masks these
//! with per-word SECDED ECC plus a write-verify-retry loop. This module
//! models all three error sources with a seed-driven PRNG so that a fixed
//! seed reproduces the exact same fault sequence regardless of how the
//! surrounding harness schedules work.
//!
//! The model is probabilistic at word granularity: for a raw bit-error
//! rate `q` and a 72-bit SECDED codeword (64 data + 8 check bits), the
//! chance a word is clean is `(1-q)^72` and the chance at most one bit
//! flipped is `(1-q)^72 + 72·q·(1-q)^71`. A single flipped bit is
//! corrected by ECC; two or more are detected but uncorrectable.

use crate::addr::Orientation;
use crate::error::ConfigError;

/// Data bits protected per ECC word.
pub const ECC_DATA_BITS: u32 = 64;
/// SECDED check bits per ECC word (Hamming(72,64) + overall parity).
pub const ECC_CHECK_BITS: u32 = 8;
/// Total codeword bits stored per word.
pub const ECC_CODE_BITS: u32 = ECC_DATA_BITS + ECC_CHECK_BITS;

/// Per-orientation raw bit-error rates.
///
/// Row and column accesses traverse different wordline/bitline paths in a
/// crosspoint array, so the two orientations can be configured with
/// different rates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a written bit fails to switch (checked by verify).
    pub write_ber: f64,
    /// Probability a read disturbs a bit of the line being read.
    pub read_disturb_ber: f64,
    /// Probability a stored bit has decayed by the time it is read.
    pub retention_ber: f64,
}

impl FaultRates {
    /// Combined per-bit error probability seen by a read (disturb and
    /// retention faults are independent).
    fn read_ber(&self) -> f64 {
        1.0 - (1.0 - self.read_disturb_ber) * (1.0 - self.retention_ber)
    }

    /// True when any rate is nonzero.
    fn enabled(&self) -> bool {
        self.write_ber > 0.0 || self.read_disturb_ber > 0.0 || self.retention_ber > 0.0
    }

    fn validate(&self, orient: &'static str) -> Result<(), ConfigError> {
        let fields: [(&'static str, f64); 3] = match orient {
            "row" => [
                ("faults.row.write_ber", self.write_ber),
                ("faults.row.read_disturb_ber", self.read_disturb_ber),
                ("faults.row.retention_ber", self.retention_ber),
            ],
            _ => [
                ("faults.col.write_ber", self.write_ber),
                ("faults.col.read_disturb_ber", self.read_disturb_ber),
                ("faults.col.retention_ber", self.retention_ber),
            ],
        };
        for (field, value) in fields {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(ConfigError::Probability { field, value });
            }
        }
        Ok(())
    }
}

/// The full fault-model configuration carried inside [`crate::MemConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// PRNG seed; a fixed seed reproduces the exact fault sequence.
    pub seed: u64,
    /// Rates applied to row-orientation accesses.
    pub row: FaultRates,
    /// Rates applied to column-orientation accesses.
    pub col: FaultRates,
    /// Verify-retry attempts before a write's residual errors are left to
    /// ECC.
    pub max_write_retries: u32,
    /// Base backoff (cycles) added per retry; doubles each attempt.
    pub retry_backoff: u64,
    /// Spare tiles per bank available for remapping uncorrectable tiles.
    pub spare_tiles_per_bank: u32,
    /// Extra cycles per access to a remapped tile (remap-table lookup).
    pub remap_penalty: u64,
}

impl FaultConfig {
    /// A disabled fault model: all rates zero, controller behavior
    /// byte-identical to the fault-free simulator.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0x4D44_4143, // "MDAC"
            row: FaultRates::default(),
            col: FaultRates::default(),
            max_write_retries: 3,
            retry_backoff: 8,
            spare_tiles_per_bank: 16,
            remap_penalty: 6,
        }
    }

    /// Uniform rates applied to both orientations.
    pub fn uniform(seed: u64, write_ber: f64, read_disturb_ber: f64, retention_ber: f64) -> Self {
        let rates = FaultRates { write_ber, read_disturb_ber, retention_ber };
        FaultConfig { seed, row: rates, col: rates, ..FaultConfig::none() }
    }

    /// True when any rate of either orientation is nonzero.
    pub fn enabled(&self) -> bool {
        self.row.enabled() || self.col.enabled()
    }

    /// Checks every probability lies in `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.row.validate("row")?;
        self.col.validate("col")
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// SplitMix64: a tiny, high-quality, seedable PRNG (public-domain
/// constants from Steele et al.). Deterministic across platforms.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Precomputed per-word outcome thresholds for one bit-error rate.
#[derive(Debug, Clone, Copy)]
struct WordModel {
    /// P(no bit flipped) = (1-q)^72.
    p_clean: f64,
    /// P(at most one bit flipped) = p_clean + 72·q·(1-q)^71.
    p_le_one: f64,
}

impl WordModel {
    fn new(q: f64) -> Self {
        if q <= 0.0 {
            return WordModel { p_clean: 1.0, p_le_one: 1.0 };
        }
        let ok = 1.0 - q;
        let p_clean = ok.powi(ECC_CODE_BITS as i32);
        let p_single = ECC_CODE_BITS as f64 * q * ok.powi(ECC_CODE_BITS as i32 - 1);
        WordModel { p_clean, p_le_one: (p_clean + p_single).min(1.0) }
    }
}

/// ECC outcome of sampling a group of words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordFaults {
    /// Words with exactly one flipped bit, corrected by SECDED.
    pub corrected: u32,
    /// Words with two or more flipped bits: detected, not correctable.
    pub uncorrectable: u32,
}

impl WordFaults {
    /// Total words with at least one raw bit fault.
    pub fn raw(&self) -> u32 {
        self.corrected + self.uncorrectable
    }
}

/// The live fault-model state owned by one `MainMemory` instance.
///
/// Because each simulation owns its memory (and hence its own PRNG), the
/// fault sequence depends only on the seed and the access stream — never
/// on harness scheduling or worker count.
#[derive(Debug, Clone)]
pub struct FaultState {
    cfg: FaultConfig,
    rng: SplitMix64,
    /// Per-orientation read models (disturb + retention combined).
    read: [WordModel; 2],
    /// Per-orientation P(word writes cleanly on one attempt).
    write_ok: [f64; 2],
    /// Per-orientation residual-error model for words that exhausted
    /// their retries (distribution of flipped bits given >= 1 flipped).
    write_residual: [WordModel; 2],
}

impl FaultState {
    /// Builds the runtime state for a fault configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        let build = |r: FaultRates| {
            (
                WordModel::new(r.read_ber()),
                WordModel::new(r.write_ber).p_clean,
                WordModel::new(r.write_ber),
            )
        };
        let (row_read, row_wok, row_res) = build(cfg.row);
        let (col_read, col_wok, col_res) = build(cfg.col);
        FaultState {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            read: [row_read, col_read],
            write_ok: [row_wok, col_wok],
            write_residual: [row_res, col_res],
        }
    }

    /// True when any rate is nonzero; when false, no PRNG draws happen and
    /// the controller path is identical to the fault-free simulator.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    fn idx(orient: Orientation) -> usize {
        match orient {
            Orientation::Row => 0,
            Orientation::Col => 1,
        }
    }

    /// Samples the ECC outcome of reading `words` words in `orient`.
    pub fn sample_read(&mut self, orient: Orientation, words: u32) -> WordFaults {
        let model = self.read[Self::idx(orient)];
        self.sample_words(model, words)
    }

    /// Samples one write (or retry) attempt over `words` words, returning
    /// how many words still hold at least one flipped bit after it.
    pub fn sample_write_attempt(&mut self, orient: Orientation, words: u32) -> u32 {
        let p_ok = self.write_ok[Self::idx(orient)];
        if p_ok >= 1.0 {
            return 0;
        }
        let mut failed = 0;
        for _ in 0..words {
            if self.rng.next_f64() >= p_ok {
                failed += 1;
            }
        }
        failed
    }

    /// Classifies `words` words that still carry errors after retries were
    /// exhausted: conditional on at least one flipped bit, either a single
    /// flip (ECC corrects) or a multi-bit pattern (uncorrectable).
    pub fn classify_residual(&mut self, orient: Orientation, words: u32) -> WordFaults {
        let model = self.write_residual[Self::idx(orient)];
        let mut out = WordFaults::default();
        // P(single | >=1 fault) = (p_le_one - p_clean) / (1 - p_clean).
        let p_fault = 1.0 - model.p_clean;
        let p_single_given_fault =
            if p_fault > 0.0 { (model.p_le_one - model.p_clean) / p_fault } else { 0.0 };
        for _ in 0..words {
            if self.rng.next_f64() < p_single_given_fault {
                out.corrected += 1;
            } else {
                out.uncorrectable += 1;
            }
        }
        out
    }

    fn sample_words(&mut self, model: WordModel, words: u32) -> WordFaults {
        if model.p_clean >= 1.0 {
            return WordFaults::default();
        }
        let mut out = WordFaults::default();
        for _ in 0..words {
            let u = self.rng.next_f64();
            if u < model.p_clean {
                continue;
            }
            if u < model.p_le_one {
                out.corrected += 1;
            } else {
                out.uncorrectable += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_draw_nothing_and_fault_nothing() {
        let mut fs = FaultState::new(FaultConfig::none());
        assert!(!fs.enabled());
        for _ in 0..100 {
            assert_eq!(fs.sample_read(Orientation::Row, 8), WordFaults::default());
            assert_eq!(fs.sample_write_attempt(Orientation::Col, 8), 0);
        }
        // The PRNG must not have advanced: a clean state draws identically.
        let mut fresh = SplitMix64::new(FaultConfig::none().seed);
        assert_eq!(fs.rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn same_seed_same_sequence() {
        let cfg = FaultConfig::uniform(42, 1e-3, 1e-4, 1e-5);
        let mut a = FaultState::new(cfg);
        let mut b = FaultState::new(cfg);
        for _ in 0..1000 {
            assert_eq!(a.sample_read(Orientation::Row, 8), b.sample_read(Orientation::Row, 8));
            assert_eq!(
                a.sample_write_attempt(Orientation::Col, 8),
                b.sample_write_attempt(Orientation::Col, 8)
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultState::new(FaultConfig::uniform(1, 0.05, 0.05, 0.0));
        let mut b = FaultState::new(FaultConfig::uniform(2, 0.05, 0.05, 0.0));
        let mut diverged = false;
        for _ in 0..200 {
            if a.sample_read(Orientation::Row, 8) != b.sample_read(Orientation::Row, 8) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "distinct seeds should produce distinct fault sequences");
    }

    #[test]
    fn certain_errors_are_uncorrectable() {
        // q = 1: every bit flips, so every word is a multi-bit error.
        let mut fs = FaultState::new(FaultConfig::uniform(7, 1.0, 1.0, 0.0));
        let f = fs.sample_read(Orientation::Row, 8);
        assert_eq!(f, WordFaults { corrected: 0, uncorrectable: 8 });
        assert_eq!(fs.sample_write_attempt(Orientation::Row, 8), 8);
        let res = fs.classify_residual(Orientation::Row, 8);
        assert_eq!(res.uncorrectable, 8);
    }

    #[test]
    fn moderate_rate_mostly_corrects() {
        // At q = 1e-4 over 72 bits, multi-bit flips are ~2600x rarer than
        // single-bit flips, so corrected should dominate.
        let mut fs = FaultState::new(FaultConfig::uniform(9, 0.0, 1e-4, 0.0));
        let mut total = WordFaults::default();
        for _ in 0..10_000 {
            let f = fs.sample_read(Orientation::Col, 8);
            total.corrected += f.corrected;
            total.uncorrectable += f.uncorrectable;
        }
        assert!(total.corrected > 0, "expected some corrected words");
        assert!(
            total.corrected > total.uncorrectable * 100,
            "single-bit corrections should dominate: {total:?}"
        );
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut cfg = FaultConfig::none();
        cfg.row.write_ber = 1.5;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::Probability { field: "faults.row.write_ber", value: 1.5 })
        );
        let mut cfg = FaultConfig::none();
        cfg.col.retention_ber = -0.1;
        assert!(cfg.validate().is_err());
        assert_eq!(FaultConfig::none().validate(), Ok(()));
    }

    #[test]
    fn read_ber_combines_independently() {
        let r = FaultRates { write_ber: 0.0, read_disturb_ber: 0.5, retention_ber: 0.5 };
        assert!((r.read_ber() - 0.75).abs() < 1e-12);
    }
}

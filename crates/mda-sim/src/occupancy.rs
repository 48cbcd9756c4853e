//! Cache-occupancy timelines (paper Fig. 15: column-line occupancy over
//! time for each cache level).

use mda_mem::Cycle;

/// One occupancy sample.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySample {
    /// Cycle at which the sample was taken.
    pub cycle: Cycle,
    /// Per level (L1 first): fraction of the level's line capacity holding
    /// column-oriented lines, in `[0, 1]`.
    pub col_occupancy: Vec<f64>,
}

/// A sampled occupancy timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OccupancyTimeline {
    samples: Vec<OccupancySample>,
}

impl OccupancyTimeline {
    /// Creates an empty timeline.
    pub fn new() -> OccupancyTimeline {
        OccupancyTimeline::default()
    }

    /// Records a sample from `(rows, cols, capacity)` triples (the
    /// [`mda_cache::CacheLevel::occupancy`] output per level).
    pub fn record(&mut self, cycle: Cycle, levels: &[(usize, usize, usize)]) {
        let col_occupancy = levels
            .iter()
            .map(
                |&(_, cols, capacity)| {
                    if capacity == 0 {
                        0.0
                    } else {
                        cols as f64 / capacity as f64
                    }
                },
            )
            .collect();
        self.samples.push(OccupancySample { cycle, col_occupancy });
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[OccupancySample] {
        &self.samples
    }

    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Peak column occupancy of `level` across the run.
    pub fn peak(&self, level: usize) -> f64 {
        self.samples.iter().filter_map(|s| s.col_occupancy.get(level)).fold(0.0, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_computes_fractions() {
        let mut t = OccupancyTimeline::new();
        t.record(100, &[(10, 10, 40), (0, 0, 0)]);
        t.record(200, &[(0, 40, 40), (5, 20, 100)]);
        assert_eq!(t.samples().len(), 2);
        assert_eq!(t.samples()[0].col_occupancy, vec![0.25, 0.0]);
        assert_eq!(t.samples()[1].col_occupancy, vec![1.0, 0.2]);
        assert_eq!(t.peak(0), 1.0);
        assert_eq!(t.peak(1), 0.2);
        assert_eq!(t.peak(7), 0.0, "missing level reads as zero");
    }

    #[test]
    fn empty_timeline_behaves() {
        let t = OccupancyTimeline::new();
        assert!(t.is_empty());
        assert_eq!(t.peak(0), 0.0);
    }
}

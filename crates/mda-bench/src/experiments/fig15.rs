//! Fig. 15: column-line cache occupancy over time for `sgemm` and `ssyrk`,
//! per cache level.
//!
//! The paper uses this figure to show that column preference is
//! time-varying and kernel-dependent: sgemm keeps a small, steady set of
//! column lines resident while row data cycles through, whereas ssyrk's
//! column occupancy rises during its column-affine update phase and falls
//! when the trailing row-oriented pass takes over.

use crate::experiments::run_kernel;
use crate::table::TextTable;
use crate::{Harness, Scale};
use mda_sim::{HierarchyKind, OccupancyTimeline};
use mda_workloads::Kernel;

/// Occupancy timeline of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTimeline {
    /// Kernel name.
    pub kernel: String,
    /// Number of cache levels sampled.
    pub levels: usize,
    /// The sampled timeline.
    pub timeline: OccupancyTimeline,
}

/// The kernels the paper plots.
pub const PLOTTED: [Kernel; 2] = [Kernel::Sgemm, Kernel::Ssyrk];

/// Runs the occupancy study on the 1P2L hierarchy.
pub fn run(harness: &Harness, scale: Scale) -> Vec<KernelTimeline> {
    let n = scale.input();
    harness.par_map(&PLOTTED, |k| {
        let cfg = scale
            .system(HierarchyKind::P1L2DifferentSet)
            .with_occupancy_sampling(sample_interval(scale));
        let r = run_kernel(*k, n, &cfg);
        KernelTimeline { kernel: k.name().into(), levels: cfg.num_levels(), timeline: r.occupancy }
    })
}

fn sample_interval(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 1 << 8,
        Scale::Scaled => 1 << 13,
        Scale::Paper => 1 << 17,
    }
}

/// Renders the timelines, downsampled to at most `points` rows each.
fn render_with_points(harness: &Harness, scale: Scale, points: usize) -> String {
    let mut out = String::from("Fig. 15 — column-line occupancy over time (1P2L)\n");
    for kt in run(harness, scale) {
        let samples = kt.timeline.samples();
        let stride = (samples.len() / points.max(1)).max(1);
        let mut t = TextTable::new(vec![
            "cycle".into(),
            "L1 col%".into(),
            "L2 col%".into(),
            "L3 col%".into(),
        ]);
        let mut shown: Vec<&mda_sim::OccupancySample> = samples.iter().step_by(stride).collect();
        // Always include the final sample: the trailing row-oriented phase
        // (where ssyrk's column occupancy falls off) is short relative to
        // the run and would otherwise be dropped by the downsampling.
        if let Some(last) = samples.last() {
            if shown.last().map(|s| s.cycle) != Some(last.cycle) {
                shown.push(last);
            }
        }
        for s in shown {
            let mut row = vec![format!("{}", s.cycle)];
            for l in 0..3 {
                row.push(format!("{:.2}", s.col_occupancy.get(l).copied().unwrap_or(0.0) * 100.0));
            }
            t.push_row(row);
        }
        out.push_str(&format!("\n{}\n{}", kt.kernel, t.render()));
        // Sparkline view of the full-resolution timeline per level.
        for (level, label) in ["L1", "L2", "L3"].iter().enumerate() {
            let series: Vec<f64> = kt
                .timeline
                .samples()
                .iter()
                .map(|s| s.col_occupancy.get(level).copied().unwrap_or(0.0))
                .collect();
            out.push_str(&crate::chart::labelled_sparkline(label, &series, 48));
            out.push('\n');
        }
    }
    out
}

/// Renders with the default resolution.
pub fn render(harness: &Harness, scale: Scale) -> String {
    render_with_points(harness, scale, 24)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kernels_produce_timelines_with_column_residency() {
        let tls = run(Harness::shared(), Scale::Tiny);
        assert_eq!(tls.len(), 2);
        for kt in &tls {
            assert!(!kt.timeline.is_empty(), "{} produced no samples", kt.kernel);
            assert!(kt.timeline.peak(0) > 0.0, "{} never cached a column line", kt.kernel);
        }
    }

    #[test]
    fn ssyrk_occupancy_rises_then_falls() {
        // The paper's qualitative claim about phase behaviour.
        let tls = run(Harness::shared(), Scale::Tiny);
        let ssyrk = tls.iter().find(|k| k.kernel == "ssyrk").expect("ssyrk present");
        let samples = ssyrk.timeline.samples();
        let last = samples.last().expect("non-empty").col_occupancy[0];
        let peak = ssyrk.timeline.peak(0);
        assert!(
            peak > last + 0.05,
            "L1 column occupancy should fall once the row-oriented pass takes over \
             (peak {peak}, last {last})"
        );
    }
}

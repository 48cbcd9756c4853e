//! Table I: the experimental setup.

use crate::scale::Scale;
use crate::table::TextTable;
use mda_sim::{HierarchyKind, SystemConfig};

/// Renders the experimental-setup table for `scale` (the paper's Table I
/// when `Scale::Paper`).
pub fn render(scale: Scale) -> String {
    let cfg = scale.system(HierarchyKind::Baseline1P1L);
    let mut t = TextTable::new(vec!["parameter".into(), "value".into()]);
    push_config_rows(&mut t, &cfg, scale);
    format!("Table I — experimental setup ({} scale)\n{}", scale.name(), t.render())
}

fn push_config_rows(t: &mut TextTable, cfg: &SystemConfig, scale: Scale) {
    let kb = |b: u64| format!("{} KB", b / 1024);
    t.push_row(vec![
        "CPU".into(),
        format!(
            "OoO window {} µops, {}-wide issue, {} load ports (3 GHz)",
            cfg.core.window, cfg.core.issue_width, cfg.core.load_ports
        ),
    ]);
    t.push_row(vec![
        "L1 D-cache".into(),
        format!(
            "{}, {}-way, {}-cycle tag / {}-cycle data, parallel",
            kb(cfg.l1.size_bytes),
            cfg.l1.assoc,
            cfg.l1.tag_latency,
            cfg.l1.data_latency
        ),
    ]);
    t.push_row(vec![
        "L2 cache".into(),
        format!(
            "{}, {}-way, {}-cycle tag / {}-cycle data, sequential",
            kb(cfg.l2.size_bytes),
            cfg.l2.assoc,
            cfg.l2.tag_latency,
            cfg.l2.data_latency
        ),
    ]);
    if let Some(l3) = cfg.l3 {
        t.push_row(vec![
            "L3 cache".into(),
            format!(
                "{}, {}-way, {}-cycle tag / {}-cycle data, sequential",
                kb(l3.size_bytes),
                l3.assoc,
                l3.tag_latency,
                l3.data_latency
            ),
        ]);
    }
    t.push_row(vec![
        "Main memory".into(),
        format!(
            "STT crosspoint MDA, {} channels × {} ranks × {} banks, open page",
            cfg.mem.channels, cfg.mem.ranks, cfg.mem.banks
        ),
    ]);
    t.push_row(vec![
        "Memory controller".into(),
        format!(
            "FRFCFS-WQF (write queue {} / high {} / low {})",
            cfg.mem.write_queue_capacity, cfg.mem.write_queue_high, cfg.mem.write_queue_low
        ),
    ]);
    t.push_row(vec![
        "STT timing (cpu cycles)".into(),
        format!(
            "tRCD {} / tCAS {} / tRP {} / tWR {} / burst {}",
            cfg.mem.timing.t_rcd,
            cfg.mem.timing.t_cas,
            cfg.mem.timing.t_rp,
            cfg.mem.timing.t_write,
            cfg.mem.timing.burst
        ),
    ]);
    t.push_row(vec![
        "Inputs".into(),
        format!(
            "{n}×{n} matrices (htap: 2048×{n}); cache-resident study {m}×{m}",
            n = scale.input(),
            m = scale.small_input()
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_matches_table_one() {
        let out = render(Scale::Paper);
        assert!(out.contains("32 KB"));
        assert!(out.contains("256 KB"));
        assert!(out.contains("1024 KB"));
        assert!(out.contains("FRFCFS-WQF"));
        assert!(out.contains("512×512"));
    }

    #[test]
    fn every_scale_renders() {
        for s in [Scale::Tiny, Scale::Scaled, Scale::Paper] {
            assert!(!render(s).is_empty());
        }
    }
}

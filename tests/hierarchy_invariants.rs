//! Cross-crate invariants on the full hierarchy: dirty data written by a
//! program must reach main memory once the hierarchy is drained, through
//! any design point.

use mdacache::cache::level::{CacheLevel, CacheLevelExt};
use mdacache::compiler::TraceOp;
use mdacache::sim::{HierarchyKind, SystemConfig};
use mdacache::workloads::Kernel;

#[test]
fn draining_the_hierarchy_flushes_all_dirty_data() {
    for kind in HierarchyKind::all() {
        let cfg = SystemConfig::tiny(kind);
        let src = Kernel::Ssyrk.build(32);
        let mut hierarchy = cfg.build_hierarchy();
        let mut core = mdacache::sim::Core::new(cfg.core);
        src.generate(&cfg.codegen, &mut |op| hierarchy.step(0, &mut core, &op));

        let final_cycle = core.finish();
        hierarchy.flush_all(final_cycle);
        for (i, level) in hierarchy.levels().iter().enumerate() {
            assert!(
                level.dirty_words().is_empty(),
                "{kind}: level {i} kept dirty words after a flush"
            );
            assert_eq!(level.occupancy().0 + level.occupancy().1, 0, "{kind}: level {i} not empty");
        }
        assert!(
            hierarchy.memory().stats().bytes_written > 0,
            "{kind}: writes never reached memory"
        );
    }
}

#[test]
fn written_words_reach_memory_in_volume() {
    // Every word the kernel writes must be written back to memory at least
    // once after a drain (per-word dirty bits may split one line into
    // several partial writebacks, but volume can never be lost).
    for kind in [HierarchyKind::Baseline1P1L, HierarchyKind::P1L2DifferentSet] {
        let cfg = SystemConfig::tiny(kind);
        let src = Kernel::Sgemm.build(24);
        let mut distinct_written = std::collections::HashSet::new();
        src.generate(&cfg.codegen, &mut |op| {
            if let TraceOp::Mem(m) = op {
                if m.write {
                    if m.vector {
                        distinct_written
                            .extend(mdacache::mem::LineKey::containing(m.word, m.orient).words());
                    } else {
                        distinct_written.insert(m.word);
                    }
                }
            }
        });

        let mut hierarchy = cfg.build_hierarchy();
        let mut core = mdacache::sim::Core::new(cfg.core);
        src.generate(&cfg.codegen, &mut |op| hierarchy.step(0, &mut core, &op));
        hierarchy.flush_all(core.finish());

        let written_bytes = hierarchy.memory().stats().bytes_written;
        assert!(
            written_bytes >= distinct_written.len() as u64 * 8,
            "{kind}: memory saw {written_bytes} B but the program wrote {} distinct words",
            distinct_written.len()
        );
    }
}

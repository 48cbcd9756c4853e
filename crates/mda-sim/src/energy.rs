//! Memory-system energy accounting (extension).
//!
//! The paper argues qualitatively that column transfers save energy: "the
//! total number of row-buffer operations would be reduced, further
//! enhancing efficiencies" (Sec. III), on top of moving 8× fewer bytes for
//! column-strided data. This module turns the statistics the simulator
//! already collects into a first-order energy estimate so that claim can
//! be quantified. Per-event energies are STT-crosspoint-class numbers
//! (activations are the expensive event; NVM writes cost more than reads)
//! — absolute joules are indicative only, but ratios between designs are
//! meaningful because both designs' events are priced identically.

use crate::report::SimReport;

/// Per-event energy parameters, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One array activation (row or column opening) — the dominant event.
    pub activation_pj: f64,
    /// Serving one 64-byte line out of an open buffer.
    pub buffer_access_pj: f64,
    /// Writing one 64-byte line into the NVM array.
    pub array_write_pj: f64,
    /// Moving one byte over a memory channel.
    pub bus_pj_per_byte: f64,
}

impl EnergyModel {
    /// STT-crosspoint-class defaults.
    pub fn stt() -> EnergyModel {
        EnergyModel {
            activation_pj: 900.0,
            buffer_access_pj: 80.0,
            array_write_pj: 1200.0,
            bus_pj_per_byte: 15.0,
        }
    }

    /// Total memory-system energy of a run, in nanojoules.
    pub fn memory_energy_nj(&self, r: &SimReport) -> f64 {
        let m = &r.mem;
        let pj = m.activations as f64 * self.activation_pj
            + (m.reads + m.writes) as f64 * self.buffer_access_pj
            + m.writes as f64 * self.array_write_pj
            + m.total_bytes() as f64 * self.bus_pj_per_byte
            // Each write-verify retry rereads the line from the buffer and
            // rewrites the failing words into the array.
            + m.write_retries as f64 * (self.buffer_access_pj + self.array_write_pj);
        pj / 1000.0
    }
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel::stt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, HierarchyKind, SystemConfig};
    use mda_compiler::{AffineExpr, ArrayRef, Loop, LoopNest, Program};

    fn col_walk(n: i64) -> Program {
        let mut p = Program::new("colwalk");
        let a = p.array("A", n as u64, n as u64);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(0))],
            flops_per_iter: 1,
        });
        p
    }

    #[test]
    fn mda_cuts_memory_energy_on_column_workloads() {
        let p = col_walk(64);
        let model = EnergyModel::stt();
        let base_cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        let base = simulate(&p, &base_cfg);
        let mda_cfg = SystemConfig::tiny(HierarchyKind::P1L2DifferentSet);
        let mda = simulate(&p, &mda_cfg);
        let e_base = model.memory_energy_nj(&base);
        let e_mda = model.memory_energy_nj(&mda);
        assert!(
            e_mda < 0.7 * e_base,
            "MDA memory energy {e_mda:.0} nJ vs baseline {e_base:.0} nJ"
        );
    }

    fn write_walk(n: i64) -> Program {
        let mut p = Program::new("writewalk");
        let a = p.array("A", n as u64, n as u64);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, n), Loop::constant(0, n)],
            refs: vec![ArrayRef::write(a, AffineExpr::var(0), AffineExpr::var(1))],
            flops_per_iter: 1,
        });
        p
    }

    #[test]
    fn write_retries_cost_energy() {
        let p = write_walk(64);
        let clean_cfg = SystemConfig::tiny(HierarchyKind::Baseline1P1L);
        let faulty_cfg = clean_cfg
            .clone()
            .with_faults(mda_mem::FaultConfig::uniform(11, 0.02, 0.0, 0.0));
        let clean = simulate(&p, &clean_cfg);
        let faulty = simulate(&p, &faulty_cfg);
        assert!(faulty.mem.write_retries > 0, "expected retries at 2% write BER");
        let model = EnergyModel::stt();
        assert!(
            model.memory_energy_nj(&faulty) > model.memory_energy_nj(&clean),
            "retries must show up in the energy bill"
        );
    }
}

//! The bounded-window core model.
//!
//! The paper simulates an out-of-order x86 core in gem5; this crate
//! substitutes the standard trace-driven approximation (DESIGN.md §2): a
//! core with an instruction window of `window` in-flight micro-ops, an
//! issue width of `issue_width` µops/cycle, `load_ports` memory µops/cycle,
//! and in-order retirement. Long-latency memory operations overlap up to
//! the window/MSHR limit, which is the memory-level-parallelism behaviour
//! the paper's results depend on; when the window fills behind a stalled
//! head, issue stops — the classic lost-cycles model.

use mda_mem::{ConfigError, Cycle};
use std::collections::VecDeque;

/// Core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// In-flight µop window (ROB stand-in).
    pub window: usize,
    /// µops issued per cycle.
    pub issue_width: u32,
    /// Memory µops issued per cycle (L1 ports).
    pub load_ports: u32,
    /// Execution latency of a non-memory µop.
    pub alu_latency: u64,
}

impl CoreConfig {
    /// A 3 GHz 4-wide out-of-order core (paper Table I class).
    pub fn paper() -> CoreConfig {
        CoreConfig { window: 96, issue_width: 4, load_ports: 2, alu_latency: 3 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`ConfigError::Zero`] naming the first zero-sized resource.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::Zero { field: "window" });
        }
        if self.issue_width == 0 {
            return Err(ConfigError::Zero { field: "issue_width" });
        }
        if self.load_ports == 0 {
            return Err(ConfigError::Zero { field: "load_ports" });
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::paper()
    }
}

/// The core's execution state while consuming a trace.
#[derive(Debug, Clone)]
pub struct Core {
    cfg: CoreConfig,
    /// Monotonic (in-order-retire) completion times of in-flight µops.
    window: VecDeque<Cycle>,
    cur_cycle: Cycle,
    issued_this_cycle: u32,
    mem_issued_this_cycle: u32,
    last_completion: Cycle,
    retired_uops: u64,
}

impl Core {
    /// Creates an idle core.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CoreConfig) -> Core {
        if let Err(msg) = cfg.validate() {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting invalid configs
            panic!("invalid CoreConfig: {msg}");
        }
        Core {
            cfg,
            window: VecDeque::with_capacity(cfg.window),
            cur_cycle: 0,
            issued_this_cycle: 0,
            mem_issued_this_cycle: 0,
            last_completion: 0,
            retired_uops: 0,
        }
    }

    /// µops retired so far (including drained window entries only after
    /// [`Core::finish`]).
    pub fn retired_uops(&self) -> u64 {
        self.retired_uops
    }

    /// Current issue cycle.
    pub fn now(&self) -> Cycle {
        self.cur_cycle
    }

    /// Finds the next cycle with an available issue slot (and load port if
    /// `is_mem`), respecting window occupancy.
    fn next_issue_slot(&mut self, is_mem: bool) -> Cycle {
        // Window full: the oldest in-flight µop must retire to free a slot.
        if self.window.len() >= self.cfg.window {
            // mda-lint: allow(lib-unwrap): structural invariant; guarded by the window-full check above
            let frees_at = self.window.pop_front().expect("window non-empty");
            if frees_at > self.cur_cycle {
                self.cur_cycle = frees_at;
                self.issued_this_cycle = 0;
                self.mem_issued_this_cycle = 0;
            }
        }
        loop {
            let width_ok = self.issued_this_cycle < self.cfg.issue_width;
            let port_ok = !is_mem || self.mem_issued_this_cycle < self.cfg.load_ports;
            if width_ok && port_ok {
                return self.cur_cycle;
            }
            self.cur_cycle += 1;
            self.issued_this_cycle = 0;
            self.mem_issued_this_cycle = 0;
        }
    }

    fn push_completion(&mut self, completes: Cycle) {
        // In-order retirement: completion times are monotonicized.
        self.last_completion = self.last_completion.max(completes);
        self.window.push_back(self.last_completion);
        self.retired_uops += 1;
    }

    /// Issues one memory µop. `access` receives the issue cycle and returns
    /// the completion cycle (from the cache hierarchy).
    pub fn issue_mem(&mut self, access: impl FnOnce(Cycle) -> Cycle) {
        let at = self.next_issue_slot(true);
        self.issued_this_cycle += 1;
        self.mem_issued_this_cycle += 1;
        let completes = access(at);
        self.push_completion(completes.max(at));
    }

    /// Issues `n` non-memory µops as a batch (they consume issue bandwidth
    /// and one window slot — ALU work never clogs the window in this
    /// model).
    pub fn issue_compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        let mut last_at = self.cur_cycle;
        // Advance issue bandwidth for n µops.
        let mut remaining = n;
        while remaining > 0 {
            let slots = self.cfg.issue_width - self.issued_this_cycle;
            if slots == 0 {
                self.cur_cycle += 1;
                self.issued_this_cycle = 0;
                self.mem_issued_this_cycle = 0;
                continue;
            }
            let batch = slots.min(remaining);
            self.issued_this_cycle += batch;
            remaining -= batch;
            last_at = self.cur_cycle;
        }
        self.retired_uops += u64::from(n.saturating_sub(1));
        self.push_completion(last_at + self.cfg.alu_latency);
    }

    /// Drains the window and returns the cycle at which the last µop
    /// retired — the program's execution time.
    pub fn finish(&mut self) -> Cycle {
        self.window.clear();
        self.last_completion.max(self.cur_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Core {
        Core::new(CoreConfig { window: 4, issue_width: 2, load_ports: 1, alu_latency: 1 })
    }

    #[test]
    fn issue_width_bounds_throughput() {
        let mut c =
            Core::new(CoreConfig { window: 64, issue_width: 2, load_ports: 2, alu_latency: 1 });
        // 10 compute µops at width 2 → 5 cycles of issue.
        c.issue_compute(10);
        let t = c.finish();
        assert_eq!(t, 4 + 1, "last µop issues at cycle 4, completes at 5");
    }

    #[test]
    fn load_ports_bound_memory_issue() {
        let mut c = core();
        let mut issue_cycles = Vec::new();
        for _ in 0..3 {
            c.issue_mem(|at| {
                issue_cycles.push(at);
                at + 1
            });
        }
        assert_eq!(issue_cycles, vec![0, 1, 2], "one memory µop per cycle");
    }

    #[test]
    fn window_fills_behind_long_latency_miss() {
        let mut c = core();
        // One 1000-cycle miss, then a stream of short hits: the window (4)
        // admits only a few before stalling until the miss returns.
        c.issue_mem(|at| at + 1000);
        let mut last_issue = 0;
        for _ in 0..6 {
            c.issue_mem(|at| {
                last_issue = at;
                at + 1
            });
        }
        assert!(last_issue >= 1000, "issue stalled on the full window, got {last_issue}");
    }

    #[test]
    fn independent_misses_overlap_within_the_window() {
        let mut c =
            Core::new(CoreConfig { window: 64, issue_width: 4, load_ports: 2, alu_latency: 1 });
        // 8 overlapping 100-cycle misses: completion ≈ 100 + a few issue
        // cycles, not 800.
        for _ in 0..8 {
            c.issue_mem(|at| at + 100);
        }
        let t = c.finish();
        assert!(t < 120, "expected MLP, got {t}");
    }

    #[test]
    fn in_order_retirement_monotonicizes_completions() {
        let mut c = core();
        c.issue_mem(|at| at + 500);
        c.issue_mem(|at| at + 1); // finishes early but retires after head
        let t = c.finish();
        assert_eq!(t, 500);
    }

    #[test]
    fn retired_uops_counts_batches() {
        let mut c = core();
        c.issue_compute(5);
        c.issue_mem(|at| at + 1);
        assert_eq!(c.retired_uops(), 6);
    }

    #[test]
    #[should_panic(expected = "invalid CoreConfig")]
    fn zero_width_panics() {
        let _ = Core::new(CoreConfig { window: 1, issue_width: 0, load_ports: 1, alu_latency: 1 });
    }
}

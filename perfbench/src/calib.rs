//! The reference loop that steadies the benchmark's host times.
//!
//! Other tenants of a shared host slow the simulator by up to 2.7×, in
//! phases that last from seconds to over a minute, so the host time of one
//! run depends on when it ran. The reference loop below is fixed code of
//! the benchmark's own (a count of 200 K pseudo-random keys in a fresh
//! `std` hash map with fixed SipHash keys) that slows with the host too,
//! though less than the simulator: over 5 to 25 s windows of interleaved
//! samples, the log of a cell's time rose by 1.2–1.5× the log of the
//! loop's time ([`SENSITIVITY`]).
//!
//! [`Calibrator::time`] runs the loop after every timed piece of work and
//! scales the piece's host time by ([`NOMINAL_S`] / loop)^[`SENSITIVITY`],
//! where `loop` is the mean of the loop times on either side of it: the
//! time the piece would have taken had the loop run at its nominal speed.
//! A change to the simulator moves the scaled time as it moves host time;
//! a slower host moves both the piece and the loop, and mostly cancels.
//! [`calm_median`] then keeps the calmer half of a cell's samples, so a
//! phase of contention that covers part of a run does not count.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::io::Read as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds the reference loop takes on an uncontended core of the machine
/// the benchmark was tuned on (a 2-vCPU KVM guest on an Intel Xeon).
/// Scaled times are host times on a machine where the loop takes this long.
pub const NOMINAL_S: f64 = 0.0036;

/// How much more the simulator slows than the reference loop, as the slope
/// of log(cell time) on log(loop time) under host contention.
pub const SENSITIVITY: f64 = 1.5;

/// The same slope for a `figures` pass against the loop times
/// [`sample_until_eof`] takes beside it. It is lower: those loops also
/// slow with the child's own threads, and the child runs on both CPUs.
/// Over twenty 30 s `harness` runs the slope of log(median pass time) on
/// log(median sampled loop time) was 0.64, and 0.75 gave the smallest
/// spread over runs (0.10 against 0.18–0.26 for host time).
pub const SAMPLED_SENSITIVITY: f64 = 0.75;

const KEYS: u64 = 200_000;

/// Host seconds of one run of the reference loop.
pub fn reference_loop() -> f64 {
    let start = Instant::now();
    loop_body();
    start.elapsed().as_secs_f64()
}

fn loop_body() {
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut hits = 0u64;
    for _ in 0..KEYS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = state & 0x3fff;
        if let Some(n) = counts.get_mut(&key) {
            *n += 1;
            hits += 1;
        } else {
            counts.insert(key, 1);
        }
    }
    black_box(hits);
}

/// Seconds the calling thread has spent on a CPU:
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, made as a raw system call
/// because the benchmark has no `libc` dependency.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn thread_cpu_s() -> Option<f64> {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one `struct timespec` (two i64s on
    // x86_64) to `ts` and touches no other memory; the kernel clobbers
    // only rcx and r11.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then(|| ts[0] as f64 + ts[1] as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// How often [`sample_until_eof`] runs the loop.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// Runs the reference loop every [`SAMPLE_EVERY`], at least once, until
/// standard input closes, and returns the loop's times. Used beside a
/// child process that keeps both CPUs busy: the loop's CPU time (wall time
/// where the thread CPU clock is missing) leaves out the slices the
/// child's threads take while the loop waits, and keeps the host's
/// slowdown.
pub fn sample_until_eof() -> Vec<f64> {
    // The flag publishes no other data, so Relaxed suffices.
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let reader = std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        flag.store(true, Ordering::Relaxed);
    });
    let mut samples = Vec::new();
    while samples.is_empty() || !done.load(Ordering::Relaxed) {
        std::thread::sleep(SAMPLE_EVERY);
        let (cpu, wall) = (thread_cpu_s(), Instant::now());
        loop_body();
        samples.push(match (cpu, thread_cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => wall.elapsed().as_secs_f64(),
        });
    }
    reader.join().expect("the stdin reader does not panic");
    samples
}

/// Host time and scaled time of one timed piece of work, and the mean of
/// the reference loop times around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub host_s: f64,
    pub scaled_s: f64,
    pub loop_s: f64,
}

/// The median scaled time of the samples with the calmer (shorter) half
/// of the loop times, rounded up; 0 for no samples.
pub fn calm_median(samples: &[Timed]) -> f64 {
    let mut calm = samples.to_vec();
    calm.sort_by(|a, b| a.loop_s.total_cmp(&b.loop_s));
    calm.truncate(samples.len().div_ceil(2));
    crate::median(&calm.iter().map(|t| t.scaled_s).collect::<Vec<_>>())
}

/// Times pieces of work between runs of the reference loop.
pub struct Calibrator {
    last_s: f64,
    /// Every reference loop time measured so far.
    pub loops: Vec<f64>,
}

impl Calibrator {
    /// Runs the reference loop once, to bracket the first piece of work.
    pub fn new() -> Calibrator {
        let last_s = reference_loop();
        Calibrator {
            last_s,
            loops: vec![last_s],
        }
    }

    /// Runs `work`, then the reference loop; returns the work's result and
    /// its host and scaled times.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let start = Instant::now();
        let out = work();
        let host_s = start.elapsed().as_secs_f64();
        let before = self.last_s;
        self.last_s = reference_loop();
        self.loops.push(self.last_s);
        let loop_s = (before + self.last_s) / 2.0;
        (
            out,
            Timed {
                host_s,
                scaled_s: host_s * (NOMINAL_S / loop_s).powf(SENSITIVITY),
                loop_s,
            },
        )
    }
}

//! Pins the trace every generator emits, so a change to how traces are
//! produced (the `Program` walker, the HTAP generator, their cursors) is
//! caught as soon as a single op moves. Each case's FNV-1a digest covers
//! every op in order; the constants were captured from the push-based
//! generators that preceded `TraceCursor`.
//!
//! n = 64 is the tiny-scale input; n = 19 is odd, so vectorized nests
//! peel scalar prologues and unaligned SIMD chunks straddle lines. The two
//! seeded HTAP mixes scan more fields than the table has, so scans draw
//! from the RNG as well as transactions.

use mda_compiler::trace::{TraceOp, TraceSource};
use mda_compiler::CodegenOptions;
use mda_mem::Orientation;
use mda_workloads::{HtapWorkload, Kernel};

/// `(workload, n, target, ops, digest)` per case.
const PINNED: [(&str, u64, &str, u64, u64); 32] = [
    ("sgemm", 64, "baseline", 794624, 0xffb54072cef29d25),
    ("sgemm", 64, "mda", 106496, 0x64111dd0d37aeb25),
    ("ssyr2k", 64, "baseline", 669760, 0xae1d26946584ada5),
    ("ssyr2k", 64, "mda", 87360, 0xe45a78687aece5c5),
    ("ssyrk", 64, "baseline", 406592, 0xdf29e991f53c4625),
    ("ssyrk", 64, "mda", 57152, 0xeed3639c98b5bb85),
    ("strmm", 64, "baseline", 407552, 0xe5f3e4b55b2fb825),
    ("strmm", 64, "mda", 95744, 0xed6fa6c73ce3cb65),
    ("sobel", 64, "baseline", 30752, 0xe87b8be000c25f4d),
    ("sobel", 64, "mda", 10788, 0x58c8dc542d817dc7),
    ("htap1", 64, "baseline", 270336, 0x2b2a49e015475815),
    ("htap1", 64, "mda", 40960, 0x3e0704bc46dafab5),
    ("htap2", 64, "baseline", 196608, 0x12a228619e12ffd5),
    ("htap2", 64, "mda", 81920, 0xa1bcaca6e62aab95),
    ("sgemm", 19, "baseline", 21299, 0x4ff3c77c630b9807),
    ("sgemm", 19, "mda", 6137, 0xb116afc92f50d06d),
    ("ssyr2k", 19, "baseline", 18430, 0x463e05c47359da3d),
    ("ssyr2k", 19, "mda", 5130, 0xecaa6f70711a62ad),
    ("ssyrk", 19, "baseline", 11780, 0xe741583358936b92),
    ("ssyrk", 19, "mda", 3800, 0x94e0ceb14bc1c350),
    ("strmm", 19, "baseline", 11552, 0x0bf96a22047c3fc5),
    ("strmm", 19, "mda", 5168, 0xdef168b999bfc9f7),
    ("sobel", 19, "baseline", 2312, 0xb36de360ada69fda),
    ("sobel", 19, "mda", 748, 0xd89cd6076bb13af9),
    ("htap1", 19, "baseline", 82944, 0xc556270de2dc9d7f),
    ("htap1", 19, "mda", 14848, 0xf22c35f430cc486b),
    ("htap2", 19, "baseline", 172032, 0xbac416d31d7c320f),
    ("htap2", 19, "mda", 57344, 0x036eed53f6a1c643),
    ("htap-seed1", 19, "baseline", 99104, 0xfa25d7a833b722e1),
    ("htap-seed1", 19, "mda", 13088, 0xda0af8eaf1b6f789),
    ("htap-seed2", 19, "baseline", 99104, 0x5f0ab1d7f3aefe33),
    ("htap-seed2", 19, "mda", 13088, 0x0758a698f5f2aa1b),
];

/// One seeded HTAP mix per seed: 24 scans of a 19-field table, 40
/// transactions.
fn seeded_htap(seed: u64) -> HtapWorkload {
    HtapWorkload::new(format!("htap-seed{seed}"), 19, 24, 40, seed)
}

fn source(name: &str, n: u64) -> Box<dyn TraceSource> {
    match name.strip_prefix("htap-seed") {
        Some(seed) => Box::new(seeded_htap(seed.parse().expect("seed"))),
        None => Kernel::parse(name).expect("kernel").build(n),
    }
}

fn target(name: &str) -> CodegenOptions {
    match name {
        "baseline" => CodegenOptions::baseline(),
        _ => CodegenOptions::mda(),
    }
}

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_op(&mut self, op: &TraceOp) {
        match *op {
            TraceOp::Compute(k) => {
                self.eat(u64::MAX);
                self.eat(u64::from(k));
            }
            TraceOp::Mem(m) => {
                self.eat(m.word.0);
                let flags = u64::from(m.orient == Orientation::Col)
                    | u64::from(m.vector) << 1
                    | u64::from(m.write) << 2;
                self.eat(u64::from(m.stream) << 3 | flags);
            }
        }
    }
}

#[test]
fn every_generator_emits_its_pinned_trace() {
    let mut mismatches = Vec::new();
    for (name, n, t, ops, digest) in PINNED {
        let (mut got_ops, mut h) = (0u64, Fnv(0xcbf2_9ce4_8422_2325));
        source(name, n).generate(&target(t), &mut |op| {
            got_ops += 1;
            h.eat_op(&op);
        });
        if (got_ops, h.0) != (ops, digest) {
            mismatches.push(format!(
                "{name}/{n}/{t}: {got_ops} ops, digest 0x{:016x} (pinned {ops}, 0x{digest:016x})",
                h.0
            ));
        }
    }
    assert!(mismatches.is_empty(), "traces drifted:\n{}", mismatches.join("\n"));
}

/// No cursor buffers a whole trace: at n = 64 every batch is one
/// innermost-loop execution, one scan or one transaction. The longest is a
/// baseline HTAP scan: 2,048 scalar loads and 2,048 compute ops.
#[test]
fn cursor_batches_stay_small_and_concatenate_to_the_trace() {
    const MAX_BATCH: usize = 4096;
    for (name, n, t, ops, digest) in PINNED.into_iter().filter(|case| case.1 == 64) {
        let src = source(name, n);
        let opts = target(t);
        let mut cursor = src.cursor(&opts);
        let (mut batch, mut longest) = (Vec::new(), 0);
        let (mut got_ops, mut h) = (0u64, Fnv(0xcbf2_9ce4_8422_2325));
        while cursor.next_batch(&mut batch) {
            assert!(!batch.is_empty(), "{name}/{t}: a cursor handed out an empty batch");
            longest = longest.max(batch.len());
            got_ops += batch.len() as u64;
            batch.iter().for_each(|op| h.eat_op(op));
        }
        assert!(batch.is_empty(), "{name}/{t}: an exhausted cursor left ops behind");
        assert!(!cursor.next_batch(&mut batch), "{name}/{t}: cursor resumed after exhaustion");
        assert_eq!((got_ops, h.0), (ops, digest), "{name}/{t}: batches differ from the trace");
        assert!(longest <= MAX_BATCH, "{name}/{t}: a {longest}-op batch");
        if name.starts_with("htap") && t == "baseline" {
            assert_eq!(longest, MAX_BATCH, "{name}: a batch is exactly one scalar scan");
        }
    }
}

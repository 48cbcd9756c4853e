//! Compact binary serialization of generated traces.
//!
//! Lowered traces can be dumped once and replayed many times (or analyzed
//! by external tooling) without re-running the code generator. The format
//! is a little-endian stream of 16-byte records behind a magic/version
//! header:
//!
//! ```text
//! header:  b"MDAT" u32-version u64-record-count
//! record:  u64 word-address | u32 stream | u8 flags | 3 pad bytes
//!          flags: bit0 = column, bit1 = vector, bit2 = write,
//!                 bit3 = compute record (then the address field holds the
//!                 µop count and the other flag bits are zero)
//! ```

use crate::trace::{MemOp, TraceCursor, TraceOp, TraceSource};
use crate::vectorize::CodegenOptions;
use mda_mem::{Orientation, WordAddr};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"MDAT";
const VERSION: u32 = 1;

const FLAG_COL: u8 = 1 << 0;
const FLAG_VECTOR: u8 = 1 << 1;
const FLAG_WRITE: u8 = 1 << 2;
const FLAG_COMPUTE: u8 = 1 << 3;

/// Infallible little-endian `u32` at `off` (callers pass in-bounds offsets
/// into fixed-size buffers, so no panicking `try_into` conversion needed).
fn le_u32(bytes: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[off..off + 4]);
    u32::from_le_bytes(b)
}

/// Infallible little-endian `u64` at `off`.
fn le_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Serializes the trace of `src` under `opts` into `out`.
///
/// # Errors
/// Propagates I/O errors from `out`.
pub fn write_trace<W: Write>(
    src: &dyn TraceSource,
    opts: &CodegenOptions,
    out: W,
) -> io::Result<u64> {
    let mut out = io::BufWriter::new(out);
    // Count first so the header can carry the record count (the trace is
    // deterministic, so generating twice is sound).
    let mut count = 0u64;
    src.generate(opts, &mut |_| count += 1);

    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&count.to_le_bytes())?;

    let (mut cursor, mut batch) = (src.cursor(opts), Vec::new());
    while cursor.next_batch(&mut batch) {
        for op in &batch {
            let (addr, stream, flags) = match *op {
                TraceOp::Compute(n) => (u64::from(n), 0u32, FLAG_COMPUTE),
                TraceOp::Mem(m) => {
                    let flags = if m.orient == Orientation::Col { FLAG_COL } else { 0 }
                        | if m.vector { FLAG_VECTOR } else { 0 }
                        | if m.write { FLAG_WRITE } else { 0 };
                    (m.word.byte_addr(), m.stream, flags)
                }
            };
            let mut rec = [0u8; 16];
            rec[..8].copy_from_slice(&addr.to_le_bytes());
            rec[8..12].copy_from_slice(&stream.to_le_bytes());
            rec[12] = flags;
            out.write_all(&rec)?;
        }
    }
    out.flush()?;
    Ok(count)
}

/// A trace loaded from the binary format; replayable as a [`TraceSource`]
/// (the stored ops are emitted verbatim; codegen options are ignored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    name: String,
    ops: Vec<TraceOp>,
    footprint: u64,
}

impl RecordedTrace {
    /// Reads a trace written by [`write_trace`].
    ///
    /// # Errors
    /// Returns `InvalidData` on a bad magic, version, flag combination or
    /// truncated stream.
    pub fn read<R: Read>(name: impl Into<String>, input: R) -> io::Result<RecordedTrace> {
        let mut input = io::BufReader::new(input);
        let mut header = [0u8; 16];
        input.read_exact(&mut header)?;
        if &header[..4] != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad trace magic"));
        }
        let version = le_u32(&header, 4);
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {version}"),
            ));
        }
        let count = le_u64(&header, 8);

        let mut ops = Vec::with_capacity(count.min(1 << 24) as usize);
        let mut footprint = 0u64;
        let mut rec = [0u8; 16];
        for _ in 0..count {
            input.read_exact(&mut rec)?;
            let addr = le_u64(&rec, 0);
            let stream = le_u32(&rec, 8);
            let flags = rec[12];
            if flags & FLAG_COMPUTE != 0 {
                let n = u32::try_from(addr).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "oversized compute record")
                })?;
                ops.push(TraceOp::Compute(n));
            } else {
                let orient =
                    if flags & FLAG_COL != 0 { Orientation::Col } else { Orientation::Row };
                ops.push(TraceOp::Mem(MemOp {
                    word: WordAddr::from_byte_addr(addr),
                    orient,
                    vector: flags & FLAG_VECTOR != 0,
                    write: flags & FLAG_WRITE != 0,
                    stream,
                }));
                footprint = footprint.max(addr + mda_mem::LINE_BYTES);
            }
        }
        Ok(RecordedTrace { name: name.into(), ops, footprint })
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl TraceSource for RecordedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn cursor(&self, _opts: &CodegenOptions) -> Box<dyn TraceCursor + '_> {
        Box::new(self.ops.chunks(REPLAY_BATCH))
    }

    fn footprint_bytes(&self, _opts: &CodegenOptions) -> u64 {
        self.footprint
    }
}

/// A recorded trace replays in chunks of this many operations.
const REPLAY_BATCH: usize = 1024;

impl TraceCursor for std::slice::Chunks<'_, TraceOp> {
    fn next_batch(&mut self, batch: &mut Vec<TraceOp>) -> bool {
        batch.clear();
        self.next().map(|chunk| batch.extend_from_slice(chunk)).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::ir::{ArrayRef, Loop, LoopNest, Program};

    fn sample() -> Program {
        let mut p = Program::new("sample");
        let a = p.array("A", 16, 16);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 16), Loop::constant(0, 16)],
            refs: vec![
                ArrayRef::read(a, AffineExpr::var(1), AffineExpr::var(0)),
                ArrayRef::write(a, AffineExpr::var(0), AffineExpr::var(1)),
            ],
            flops_per_iter: 2,
        });
        p
    }

    #[test]
    fn round_trip_preserves_every_op() {
        let p = sample();
        let opts = CodegenOptions::mda();
        let mut buf = Vec::new();
        let written = write_trace(&p, &opts, &mut buf).expect("write");
        let loaded = RecordedTrace::read("sample", buf.as_slice()).expect("read");
        assert_eq!(written as usize, loaded.len());

        let mut original = Vec::new();
        p.generate(&opts, &mut |op| original.push(op));
        let mut replayed = Vec::new();
        loaded.generate(&opts, &mut |op| replayed.push(op));
        assert_eq!(original, replayed);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bogus = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec();
        assert!(RecordedTrace::read("x", bogus.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let p = sample();
        let mut buf = Vec::new();
        write_trace(&p, &CodegenOptions::mda(), &mut buf).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(RecordedTrace::read("x", buf.as_slice()).is_err());
    }

    #[test]
    fn recorded_trace_simulates_like_the_original_source() {
        use crate::trace::count_ops;
        let p = sample();
        let opts = CodegenOptions::mda();
        let mut buf = Vec::new();
        write_trace(&p, &opts, &mut buf).expect("write");
        let loaded = RecordedTrace::read("sample", buf.as_slice()).expect("read");
        assert_eq!(count_ops(&p, &opts), count_ops(&loaded, &opts));
        assert!(loaded.footprint_bytes(&opts) >= p.footprint_bytes(&opts) / 2);
    }

    #[test]
    fn record_size_is_sixteen_bytes() {
        let p = sample();
        let mut buf = Vec::new();
        let n = write_trace(&p, &CodegenOptions::baseline(), &mut buf).expect("write");
        assert_eq!(buf.len() as u64, 16 + 16 * n);
    }
}

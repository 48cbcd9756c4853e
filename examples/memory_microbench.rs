//! Microbenchmark of the MDA main-memory model itself: measure the access
//! symmetry the paper's enabling technology provides (Sec. II–III) without
//! any cache in front.
//!
//! ```text
//! cargo run --release --example memory_microbench
//! ```

use mdacache::mem::{LineKey, MainMemory, MemConfig, Orientation};

fn average_read_latency(mem: &mut MainMemory, lines: impl Iterator<Item = LineKey>) -> (f64, f64) {
    let mut total = 0u64;
    let mut count = 0u64;
    let mut now = 0u64;
    for line in lines {
        let c = mem.read(line, now);
        total += c.done - now;
        count += 1;
        now = c.burst_done + 1;
    }
    let hit_rate = mem.stats().buffer_hit_rate();
    (total as f64 / count.max(1) as f64, hit_rate)
}

fn main() {
    println!("MDA memory microbenchmark (STT crosspoint, paper configuration)\n");

    // 1a. Address-sequential streaming: maximal bank parallelism, but every
    //     line of a tile opens a different physical row.
    let mut mem = MainMemory::new(MemConfig::paper());
    let (lat, hits) = average_read_latency(
        &mut mem,
        (0..512u64).flat_map(|t| (0..8).map(move |r| LineKey::new(t, Orientation::Row, r))),
    );
    println!("sequential rows:    {lat:6.1} cycles/line, buffer hit rate {:.0}%", hits * 100.0);

    // 1b. Plane walk (one row index across all tiles): every bank keeps its
    //     physical row open — the open-page locality case.
    let mut mem = MainMemory::new(MemConfig::paper());
    let (lat, hits) = average_read_latency(
        &mut mem,
        (0..8u8).flat_map(|r| (0..512u64).map(move |t| LineKey::new(t, Orientation::Row, r))),
    );
    println!("row plane walk:     {lat:6.1} cycles/line, buffer hit rate {:.0}%", hits * 100.0);

    // 2. Column-mode streaming: the column buffer serves each column line in
    //    a single operation — the MDA headline capability.
    let mut mem = MainMemory::new(MemConfig::paper());
    let (lat, hits) = average_read_latency(
        &mut mem,
        (0..512u64).flat_map(|t| (0..8).map(move |c| LineKey::new(t, Orientation::Col, c))),
    );
    println!("column streaming:   {lat:6.1} cycles/line, buffer hit rate {:.0}%", hits * 100.0);

    // 3. What a conventional memory would do for the same column data:
    //    eight row activations per column line (one per word).
    let mut mem = MainMemory::new(MemConfig::paper());
    let (lat, _) = average_read_latency(
        &mut mem,
        (0..512u64).flat_map(|t| (0..8).map(move |r| LineKey::new(t, Orientation::Row, r))),
    );
    println!("column via rows:    {:6.1} cycles per useful 64 B (8 row lines fetched)", lat * 8.0);

    // 4. Mixed-direction pressure on the same tiles: both buffers stay warm.
    let mut mem = MainMemory::new(MemConfig::paper());
    let (lat, hits) = average_read_latency(
        &mut mem,
        (0..512u64).flat_map(|t| {
            (0..4).flat_map(move |i| {
                [LineKey::new(t, Orientation::Row, i), LineKey::new(t, Orientation::Col, i)]
            })
        }),
    );
    println!("mixed row/column:   {lat:6.1} cycles/line, buffer hit rate {:.0}%", hits * 100.0);

    // 5. The 1.6× faster device of the paper's Fig. 17.
    let mut mem = MainMemory::new(MemConfig::paper_fast());
    let (lat, _) = average_read_latency(
        &mut mem,
        (0..512u64).flat_map(|t| (0..8).map(move |c| LineKey::new(t, Orientation::Col, c))),
    );
    println!("column, fast device: {lat:5.1} cycles/line");
}

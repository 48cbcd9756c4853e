//! Cross-design integration tests at the cache-crate level: the same
//! access sequence driven through all organizations must preserve the
//! architectural contract even where their mechanisms differ.

use mda_cache::level::CacheLevelExt;
use mda_cache::{Access, Cache1P2L, Cache2P2L, CacheConfig, CacheLevel, SetMapping};
use mda_mem::{LineKey, Orientation, WordAddr};

fn cfg(bytes: u64) -> CacheConfig {
    let mut c = CacheConfig::l1_32k();
    c.size_bytes = bytes;
    c
}

fn all_designs() -> Vec<(&'static str, Box<dyn CacheLevel>)> {
    let mut tile_cfg = CacheConfig::l3(16 * 1024);
    tile_cfg.assoc = 8;
    vec![
        ("1P1L", Box::new(Cache1P2L::rows_only(cfg(8192)))),
        ("1P2L-diff", Box::new(Cache1P2L::new(cfg(8192), SetMapping::DifferentSet))),
        ("1P2L-same", Box::new(Cache1P2L::new(cfg(8192), SetMapping::SameSet))),
        ("2P2L", Box::new(Cache2P2L::new(tile_cfg))),
        ("2P2L-dense", Box::new(Cache2P2L::with_fill_policy(tile_cfg, false))),
        ("2P1L", Box::new(Cache2P2L::rows_only(tile_cfg))),
    ]
}

/// Drives a demand access the way the hierarchy does.
fn demand(cache: &mut dyn CacheLevel, acc: &Access) {
    let probe = cache.probe(acc);
    if !probe.hit {
        let dirty = if acc.is_write {
            match acc.width {
                mda_cache::AccessWidth::Vector => 0xFF,
                mda_cache::AccessWidth::Scalar => 1 << probe.fills[0].offset_of(acc.word).unwrap(),
            }
        } else {
            0
        };
        for (i, line) in probe.fills.iter().enumerate() {
            cache.fill_collect(*line, if i == 0 { dirty } else { 0 });
        }
    }
}

#[test]
fn scalar_read_after_scalar_write_hits_on_every_design() {
    for (name, mut cache) in all_designs() {
        let w = WordAddr::from_tile_coords(3, 2, 5);
        demand(cache.as_mut(), &Access::scalar_write(w, Orientation::Row, 0));
        let p = cache.probe(&Access::scalar_read(w, Orientation::Col, 0));
        assert!(p.hit, "{name}: written word must be readable in either orientation");
    }
}

#[test]
fn written_word_is_dirty_exactly_once_everywhere() {
    for (name, mut cache) in all_designs() {
        let w = WordAddr::from_tile_coords(1, 4, 6);
        demand(cache.as_mut(), &Access::scalar_write(w, Orientation::Col, 0));
        let dirty = cache.dirty_words();
        assert!(dirty.contains(&w), "{name}: written word not dirty");
        assert_eq!(dirty.iter().filter(|x| **x == w).count(), 1, "{name}: duplicate dirty copies");
    }
}

#[test]
fn flush_after_writes_reports_every_written_word() {
    for (name, mut cache) in all_designs() {
        let mut expected = Vec::new();
        for t in 0..3u64 {
            let line = LineKey::new(t, Orientation::Row, 1);
            demand(cache.as_mut(), &Access::vector_write(line, 0));
            expected.extend(line.words());
        }
        let mut flushed = Vec::new();
        for wb in cache.flush_collect() {
            for off in 0..8u8 {
                if wb.dirty & (1 << off) != 0 {
                    flushed.push(wb.line.word_at(off));
                }
            }
        }
        for w in &expected {
            assert!(flushed.contains(w), "{name}: lost write to {w}");
        }
    }
}

#[test]
fn vector_row_read_hits_after_row_fill_everywhere() {
    for (name, mut cache) in all_designs() {
        let line = LineKey::new(2, Orientation::Row, 3);
        demand(cache.as_mut(), &Access::vector_read(line, 0));
        assert!(cache.contains_line(&line), "{name}");
        let p = cache.probe(&Access::vector_read(line, 0));
        assert!(p.hit, "{name}: refetch of a resident line");
    }
}

#[test]
fn stats_classify_accesses_identically() {
    // All designs see the same access mix classification (it depends only
    // on the access stream, not on hits/misses).
    for (name, mut cache) in all_designs() {
        if name == "1P1L" || name == "2P1L" {
            continue; // cannot serve column vectors
        }
        demand(cache.as_mut(), &Access::scalar_read(WordAddr(0), Orientation::Row, 0));
        demand(cache.as_mut(), &Access::vector_read(LineKey::new(0, Orientation::Col, 0), 0));
        let s = cache.stats();
        assert_eq!(s.row_scalar, 1, "{name}");
        assert_eq!(s.col_vector, 1, "{name}");
        assert_eq!(s.accesses, 2, "{name}");
    }
}

#[test]
fn resident_words_reflect_fills() {
    for (name, mut cache) in all_designs() {
        let line = LineKey::new(5, Orientation::Row, 2);
        demand(cache.as_mut(), &Access::vector_read(line, 0));
        let resident = cache.resident_words();
        for w in line.words() {
            assert!(resident.contains(&w), "{name}: filled word missing");
        }
    }
}

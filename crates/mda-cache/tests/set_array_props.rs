//! Property tests: `SetArray` against a reference LRU model.

use mda_cache::set_array::{Filled, SetArray};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference model: per set, an ordered list from LRU front to MRU back.
#[derive(Debug, Default, Clone)]
struct RefSet {
    entries: VecDeque<(u64, u8)>,
}

impl RefSet {
    fn get(&mut self, key: u64) -> Option<u8> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let e = self.entries.remove(pos).expect("position valid");
        self.entries.push_back(e);
        Some(e.1)
    }

    /// A resident key becomes MRU with `meta` merged in (`Ok`); an absent
    /// one is inserted, evicting the LRU entry of a full set (`Err`).
    fn fill(&mut self, key: u64, meta: u8, assoc: usize) -> Result<u8, Option<(u64, u8)>> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let (_, old) = self.entries.remove(pos).expect("position valid");
            self.entries.push_back((key, old | meta));
            return Ok(old | meta);
        }
        let victim = if self.entries.len() >= assoc { self.entries.pop_front() } else { None };
        self.entries.push_back((key, meta));
        Err(victim)
    }

    fn remove(&mut self, key: u64) -> Option<u8> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        self.entries.remove(pos).map(|(_, m)| m)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    Fill(u64, u8),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12).prop_map(Op::Get),
        (0u64..12, any::<u8>()).prop_map(|(k, m)| Op::Fill(k, m)),
        (0u64..12).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The array behaves exactly like the reference LRU model on one set.
    #[test]
    fn matches_reference_lru(ops in proptest::collection::vec(op_strategy(), 1..200), assoc in 1usize..5) {
        let mut array: SetArray<u64, u8> = SetArray::new(1, assoc);
        let mut model = RefSet::default();
        for op in ops {
            match op {
                Op::Get(k) => {
                    let got = array.get_mut(0, k).map(|m| *m);
                    prop_assert_eq!(got, model.get(k));
                }
                Op::Fill(k, m) => {
                    let got = match array.fill(0, k, m) {
                        Filled::Hit(meta) => {
                            *meta |= m;
                            Ok(*meta)
                        }
                        Filled::Inserted(evicted) => Err(evicted),
                    };
                    prop_assert_eq!(got, model.fill(k, m, assoc));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(array.remove(0, k), model.remove(k));
                }
            }
            prop_assert_eq!(array.len(), model.entries.len());
            prop_assert!(array.len() <= assoc);
        }
    }

    /// Sets never interfere with each other.
    #[test]
    fn sets_are_disjoint(keys in proptest::collection::vec(0u64..64, 1..64)) {
        let mut array: SetArray<u64, usize> = SetArray::new(4, 16);
        for (i, k) in keys.iter().enumerate() {
            array.fill((k % 4) as usize, *k, i);
        }
        for set in 0..4 {
            for (k, _) in array.iter_set(set) {
                prop_assert_eq!((k % 4) as usize, set);
            }
        }
    }
}

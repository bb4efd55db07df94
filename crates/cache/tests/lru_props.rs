//! Property tests: the LRU core and its fronted placement against an
//! executable reference model.
//!
//! The model is the textbook definition — an MRU-first vector with the
//! capacity enforced by popping the back — and every random op sequence
//! must keep the real cache observationally identical to it: same get
//! results, same length, same eviction count, and (because a final
//! full-domain probe sweep compares hit/miss per key) same surviving
//! entries, which pins the eviction *order* too.

use fsi_cache::{CacheKey, CacheStats, FrontedLru, LruCore};
use proptest::collection;
use proptest::prelude::*;
use std::collections::HashMap;

const CAPACITY: usize = 8;
const CELLS: u64 = 16;

/// MRU-first reference LRU.
struct Model {
    entries: Vec<(CacheKey, u64)>,
    capacity: usize,
    evictions: u64,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            entries: Vec::new(),
            capacity,
            evictions: 0,
        }
    }

    fn get(&mut self, key: CacheKey) -> Option<u64> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let hit = self.entries.remove(pos);
        let value = hit.1;
        self.entries.insert(0, hit);
        Some(value)
    }

    fn insert(&mut self, key: CacheKey, value: u64) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (key, value));
        if self.entries.len() > self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
    }
}

/// One randomized op: `kind` selects insert / get / generation bump,
/// `cell` the key within the domain, `value` the inserted payload.
type Op = (usize, u64, u64);

/// Drives `cache` and the model through `ops`, asserting observational
/// equivalence after every step.
fn run_ops(cache: &mut LruCore<u64>, ops: &[Op], capacity: usize) {
    let mut model = Model::new(capacity);
    let mut generation: u64 = 1;
    for &(kind, cell, value) in ops {
        let key = CacheKey::new(cell % CELLS, generation);
        match kind % 8 {
            // Inserts dominate so the capacity bound is actually hit.
            0..=4 => {
                cache.insert(key, value);
                model.insert(key, value);
            }
            5 | 6 => {
                prop_assert_eq!(cache.get(key), model.get(key), "get {:?}", key);
            }
            _ => {
                // Generation bump: every prior entry must be
                // unreachable under the new generation — before any
                // new-generation insert, probing the whole cell domain
                // can only miss.
                generation += 1;
                for probe in 0..CELLS {
                    let stale = CacheKey::new(probe, generation);
                    prop_assert_eq!(cache.get(stale), None, "stale {:?}", stale);
                    prop_assert!(model.get(stale).is_none());
                }
            }
        }
        let stats = cache.stats();
        prop_assert!(
            stats.len <= capacity,
            "len {} exceeds capacity {}",
            stats.len,
            capacity
        );
        prop_assert_eq!(stats.len, model.entries.len());
        prop_assert_eq!(stats.evictions, model.evictions);
    }
    // Final sweep over every key the run could have touched: hit/miss
    // must agree per key, so the surviving sets — and therefore the
    // whole eviction history — are identical.
    for g in 1..=generation {
        for cell in 0..CELLS {
            let key = CacheKey::new(cell, g);
            prop_assert_eq!(cache.get(key), model.get(key), "sweep {:?}", key);
        }
    }
}

fn assert_counter_sanity(stats: CacheStats) {
    assert!(stats.hits + stats.misses > 0);
    assert!(stats.hit_rate() >= 0.0 && stats.hit_rate() <= 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lru_core_matches_the_reference_model(
        ops in collection::vec((0usize..8, 0u64..CELLS, 0u64..1000), 1..200),
    ) {
        let mut cache: LruCore<u64> = LruCore::new(CAPACITY).unwrap();
        run_ops(&mut cache, &ops, CAPACITY);
        assert_counter_sanity(cache.stats());
    }

    #[test]
    fn fronted_lru_never_serves_a_wrong_value(
        ops in collection::vec((0usize..8, 0u64..CELLS, 0u64..1000), 1..300),
    ) {
        // The direct-mapped front may serve an entry the LRU has already
        // evicted (front hits skip the recency refresh, so the eviction
        // order diverges from the pure model on purpose). What must
        // never happen: a get returning anything but the value most
        // recently inserted for that exact key. A ground-truth map pins
        // that, plus the capacity bound and counter balance.
        let mut cache: FrontedLru<u64> = FrontedLru::new(CAPACITY).unwrap();
        let mut truth: HashMap<CacheKey, u64> = HashMap::new();
        let mut generation: u64 = 1;
        let mut gets: u64 = 0;
        for &(kind, cell, value) in &ops {
            let key = CacheKey::new(cell % CELLS, generation);
            match kind % 8 {
                0..=4 => {
                    cache.insert(key, value);
                    truth.insert(key, value);
                    prop_assert_eq!(cache.get(key), Some(value));
                    gets += 1;
                }
                5 | 6 => {
                    if let Some(got) = cache.get(key) {
                        prop_assert_eq!(Some(got), truth.get(&key).copied(), "{:?}", key);
                    }
                    gets += 1;
                }
                _ => {
                    // Generation bump: nothing keyed to the new
                    // generation can be served from either tier.
                    generation += 1;
                    for probe in 0..CELLS {
                        let stale = CacheKey::new(probe, generation);
                        prop_assert_eq!(cache.get(stale), None, "stale {:?}", stale);
                        gets += 1;
                    }
                }
            }
            let stats = cache.stats();
            prop_assert!(stats.len <= CAPACITY, "len {} exceeds capacity", stats.len);
            prop_assert_eq!(stats.hits + stats.misses, gets);
        }
    }
}

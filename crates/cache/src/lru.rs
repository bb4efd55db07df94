//! The capacity-bounded, exact-LRU store: a slot arena threaded by an
//! intrusive recency list, indexed by a hash map with a cheap
//! multiply-xor hasher (the default SipHash would cost more than the
//! tree traversal the cache is there to skip).

use crate::{CacheError, CacheKey, CacheStats};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Null slot reference in the recency list.
const NIL: u32 = u32::MAX;

/// Entries [`LruCore::new`] reserves up front — the default
/// [`crate::CacheSpec`] capacity, so the default cache never regrows.
const MAX_RESERVE: usize = 4096;

/// fxhash-style multiply-xor mixer — two u64 writes per [`CacheKey`],
/// a few arithmetic ops each.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The fxhash multiplier (golden-ratio derived, odd).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One arena slot: the entry plus its recency-list links.
struct Slot<V> {
    key: CacheKey,
    value: V,
    prev: u32,
    next: u32,
}

/// The LRU core: exact recency order, hard capacity bound,
/// hit/miss/eviction counters. No interior locking — a cache is owned
/// by its worker.
pub struct LruCore<V> {
    map: HashMap<CacheKey, u32, BuildHasherDefault<FxHasher>>,
    slots: Vec<Slot<V>>,
    /// Most-recently-used slot (`NIL` when empty).
    head: u32,
    /// Least-recently-used slot — the eviction victim (`NIL` when empty).
    tail: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> LruCore<V> {
    /// An empty core bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Result<Self, CacheError> {
        if capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        // The arena never outgrows the capacity, so slot indexes must
        // fit the u32 links (the map would be ≥ 96 GiB before this
        // fires, but the invariant is load-bearing for the links).
        let capacity = capacity.min(NIL as usize - 1);
        // Reserve at most the default capacity up front; a larger bound
        // is reached by growing on insert, so a huge configured capacity
        // costs nothing until entries actually arrive.
        let reserve = capacity.min(MAX_RESERVE);
        Ok(Self {
            map: HashMap::with_capacity_and_hasher(reserve, BuildHasherDefault::default()),
            slots: Vec::with_capacity(reserve),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        })
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Returns and recency-refreshes the entry for `key`.
    #[inline]
    pub fn get(&mut self, key: CacheKey) -> Option<V> {
        match self.map.get(&key) {
            Some(&i) => {
                self.hits += 1;
                self.move_to_front(i);
                Some(self.slots[i as usize].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the LRU tail at capacity.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i as usize].value = value;
            self.move_to_front(i);
            return;
        }
        let i = if self.slots.len() < self.capacity {
            let i = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            i
        } else {
            // Full: the tail slot is the victim; reuse it in place.
            let i = self.tail;
            self.unlink(i);
            let slot = &mut self.slots[i as usize];
            let victim = slot.key;
            slot.key = key;
            slot.value = value;
            self.map.remove(&victim);
            self.evictions += 1;
            i
        };
        self.push_front(i);
        self.map.insert(key, i);
    }

    /// Splices slot `i` out of the recency list.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Links slot `i` in as the MRU head.
    #[inline]
    fn push_front(&mut self, i: u32) {
        let old = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old;
        }
        if old == NIL {
            self.tail = i;
        } else {
            self.slots[old as usize].prev = i;
        }
        self.head = i;
    }

    /// Recency refresh; a no-op when `i` is already the MRU head (the
    /// common case under skewed traffic — the hottest key pays nothing).
    #[inline]
    fn move_to_front(&mut self, i: u32) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }
}

impl<V> std::fmt::Debug for LruCore<V> {
    /// Summarizes shape and counters; entries are not enumerated.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCore")
            .field("len", &self.slots.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

/// A direct-mapped front over [`LruCore`]: the fast path of the
/// per-worker placement.
///
/// Each front slot memoizes the last entry its hash bucket served, so a
/// front hit costs one indexed load and a 16-byte key compare — no hash
/// map probe and no recency splice. Correctness needs no coupling to
/// the LRU's residency: values are deterministic per [`CacheKey`] and
/// the generation rides *in* the key, so a memoized entry is either
/// byte-correct or fails the key compare (e.g. after a hot-swap bumps
/// the generation). The LRU underneath keeps the exact capacity bound,
/// eviction order and counters; front hits are counted separately and
/// folded into [`CacheStats::hits`].
///
/// The trade: front hits do not refresh LRU recency, so the eviction
/// order under mixed traffic is driven by the slower path only — an
/// accuracy-for-speed trade that never changes which value a key maps
/// to, only how long it stays resident.
pub struct FrontedLru<V> {
    /// `front.len()` is a power of two; slot = mixed cell bits & mask.
    front: Vec<Option<(CacheKey, V)>>,
    mask: usize,
    front_hits: u64,
    lru: LruCore<V>,
}

/// Front slots are clamped to this many entries (×48 B for decision
/// values ≈ 48 KiB) so the memo stays cache-resident regardless of the
/// configured LRU capacity.
const MAX_FRONT_SLOTS: usize = 1024;

impl<V: Copy> FrontedLru<V> {
    /// An empty fronted cache bounded to `capacity` LRU entries.
    pub fn new(capacity: usize) -> Result<Self, CacheError> {
        let lru = LruCore::new(capacity)?;
        let slots = lru
            .capacity()
            .next_power_of_two()
            .clamp(64, MAX_FRONT_SLOTS);
        Ok(Self {
            front: vec![None; slots],
            mask: slots - 1,
            front_hits: 0,
            lru,
        })
    }

    #[inline]
    fn slot_of(&self, key: CacheKey) -> usize {
        // Cell only, so a generation bump re-uses the slot (and the
        // stale memo loses the compare).
        ((key.cell.wrapping_mul(FX_SEED) >> 32) as usize) & self.mask
    }

    /// Returns the entry for `key`; LRU recency is refreshed only when
    /// the front misses (see the type docs for the trade).
    #[inline]
    pub fn get(&mut self, key: CacheKey) -> Option<V> {
        let slot = self.slot_of(key);
        if let Some((k, v)) = self.front[slot] {
            if k == key {
                self.front_hits += 1;
                return Some(v);
            }
        }
        let value = self.lru.get(key)?;
        self.front[slot] = Some((key, value));
        Some(value)
    }

    /// Inserts (or refreshes) `key` in both tiers.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        self.lru.insert(key, value);
        let slot = self.slot_of(key);
        self.front[slot] = Some((key, value));
    }

    /// Counter snapshot: the LRU's bounds and eviction counters, with
    /// front hits folded into the hit count.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.lru.stats();
        stats.hits += self.front_hits;
        stats
    }
}

impl<V> std::fmt::Debug for FrontedLru<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontedLru")
            .field("front_slots", &self.front.len())
            .field("front_hits", &self.front_hits)
            .field("lru", &self.lru)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(cell: u64, generation: u64) -> CacheKey {
        CacheKey::new(cell, generation)
    }

    #[test]
    fn core_hits_misses_and_evicts_in_lru_order() {
        let mut c: LruCore<u64> = LruCore::new(2).unwrap();
        assert_eq!(c.get(k(1, 1)), None);
        c.insert(k(1, 1), 10);
        c.insert(k(2, 1), 20);
        assert_eq!(c.get(k(1, 1)), Some(10)); // 1 is now MRU
        c.insert(k(3, 1), 30); // evicts 2, the LRU
        assert_eq!(c.get(k(2, 1)), None);
        assert_eq!(c.get(k(1, 1)), Some(10));
        assert_eq!(c.get(k(3, 1)), Some(30));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 2, 1));
        assert_eq!((s.len, s.capacity), (2, 2));
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency_without_growing() {
        let mut c: LruCore<u64> = LruCore::new(2).unwrap();
        c.insert(k(1, 1), 10);
        c.insert(k(2, 1), 20);
        c.insert(k(1, 1), 11); // refresh: 2 becomes LRU
        c.insert(k(3, 1), 30); // evicts 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(k(1, 1)), Some(11));
        assert_eq!(c.get(k(2, 1)), None);
    }

    #[test]
    fn generation_bump_changes_the_key_so_old_entries_miss() {
        let mut c: LruCore<u64> = LruCore::new(8).unwrap();
        for cell in 0..4 {
            c.insert(k(cell, 1), cell);
        }
        for cell in 0..4 {
            assert_eq!(c.get(k(cell, 2)), None, "generation 2 must miss");
            assert_eq!(c.get(k(cell, 1)), Some(cell), "generation 1 still keyed");
        }
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert_eq!(
            LruCore::<u64>::new(0).unwrap_err(),
            CacheError::ZeroCapacity
        );
        assert_eq!(
            FrontedLru::<u64>::new(0).unwrap_err(),
            CacheError::ZeroCapacity
        );
    }

    #[test]
    fn a_huge_capacity_builds_without_reserving_it() {
        // 2^40 entries would need terabytes if reserved up front.
        let mut c: FrontedLru<u64> = FrontedLru::new(1 << 40).unwrap();
        c.insert(k(7, 1), 42);
        assert_eq!(c.get(k(7, 1)), Some(42));
        assert_eq!(c.get(k(8, 1)), None);
        let s = c.stats();
        // The bound is clamped to what the u32 slot links can address.
        assert_eq!(s.capacity, NIL as usize - 1);
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn front_serves_memoized_entries_and_counts_them_as_hits() {
        let mut c: FrontedLru<u64> = FrontedLru::new(2).unwrap();
        c.insert(k(1, 1), 10);
        // First get fills the front from the LRU; second is a front hit.
        assert_eq!(c.get(k(1, 1)), Some(10));
        assert_eq!(c.get(k(1, 1)), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 0));
        assert_eq!((s.len, s.capacity), (1, 2));
        // A generation bump loses the front's key compare and misses.
        assert_eq!(c.get(k(1, 2)), None);
        assert_eq!(c.stats().misses, 1);
        // The memo may outlive LRU residency — and must still be the
        // key's own (deterministic) value, never another key's.
        c.insert(k(2, 1), 20);
        c.insert(k(3, 1), 30); // capacity 2: evicts 1 from the LRU
        let s = c.stats();
        assert_eq!((s.len, s.evictions), (2, 1));
        let revived = c.get(k(1, 1));
        assert!(revived == Some(10) || revived.is_none(), "{revived:?}");
    }
}

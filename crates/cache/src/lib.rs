//! Generation-invalidated decision caching for the serving layer.
//!
//! Lookups against a frozen index are deterministic per *(cell,
//! generation)*: the index assigns one calibrated decision per leaf per
//! trained generation, and a cell never straddles leaves. That makes a
//! decision cache safe by construction — as long as the generation is
//! part of the key. This crate provides exactly that shape:
//!
//! * [`CacheKey`] — a `(cell, generation)` pair. Every hot-swap rebuild
//!   bumps the publisher's generation, so all previously cached entries
//!   become unreachable *implicitly*: no flush, no epoch tracking, no
//!   coordination with readers. Stale entries simply age out of the LRU.
//! * [`LruCore`] — the capacity-bounded, exact-LRU core with
//!   hit/miss/eviction counters ([`CacheStats`]). No locking: a cache is
//!   owned by its worker and accessed through `&mut self`, so the hot
//!   path pays a hash probe and nothing else.
//! * [`FrontedLru`] — the placement the serving layer runs: a
//!   direct-mapped memo in front of an [`LruCore`], so a hot hit skips
//!   the hash probe too. Every transport worker owns one.
//! * [`CacheSpec`] — the serde-round-trippable configuration (the
//!   per-worker capacity), validated up front like the other specs in
//!   this workspace ([`CacheSpec::validate`]).

#![forbid(unsafe_code)]

mod error;
mod lru;
mod spec;

pub use error::CacheError;
pub use lru::{FrontedLru, LruCore};
pub use spec::CacheSpec;

/// The cache key: which cell, under which published index.
///
/// `cell` identifies the spatial cell the query point maps to (callers
/// serving several shards fold the shard id into the high bits — the
/// cache does not interpret the value). `generation` is the publisher's
/// snapshot generation; because publishes only ever raise it, a rebuild
/// strands every older entry behind keys no future lookup constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Opaque cell identity (plus any caller-folded routing bits).
    pub cell: u64,
    /// Snapshot generation the cached decision was computed under.
    pub generation: u64,
}

impl CacheKey {
    /// Creates a key.
    #[inline]
    pub fn new(cell: u64, generation: u64) -> Self {
        Self { cell, generation }
    }
}

/// Counter snapshot of a cache: how the hit rate is reported everywhere
/// (`StatsBody`, the REPL `stats` line, benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the index.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Live entries right now.
    pub len: usize,
    /// Maximum entries the cache will hold.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, in `[0, 1]`; `0.0`
    /// before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

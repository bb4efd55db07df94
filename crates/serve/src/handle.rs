//! Atomic snapshot hot-swap: publish a freshly built index without ever
//! blocking readers mid-query.
//!
//! The design is an std-only read-copy-update: the live index is an
//! `Arc<FrozenIndex>` snapshot, and every published snapshot carries a
//! monotonically increasing generation number.
//!
//! * **Readers** ([`IndexReader`]) keep their own `Arc` clone and serve
//!   queries from it without any synchronization at all. Detecting a new
//!   snapshot is a single atomic generation load per
//!   [`IndexReader::snapshot`] call; only when the generation actually
//!   changed (i.e. once per rebuild, not per query) does the reader touch
//!   the publish mutex to fetch the new `Arc`.
//! * **Writers** ([`IndexHandle::publish`]) build the replacement index
//!   *off to the side*, then swap the `Arc` and bump the generation under
//!   a mutex held for two pointer writes. In a service, the only writer
//!   is [`crate::LocalShard::commit`], the second phase of the rebuild
//!   barrier.
//!
//! Because a snapshot is a whole immutable `FrozenIndex` behind an `Arc`,
//! a reader always observes either the complete old index or the complete
//! new one — torn reads are impossible by construction, which the
//! hot-swap integration test hammers on.

use crate::frozen::FrozenIndex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct Shared {
    /// Generation of the snapshot in `current`. Written only while the
    /// `current` mutex is held; read lock-free by readers.
    generation: AtomicU64,
    current: Mutex<Arc<FrozenIndex>>,
}

impl Shared {
    /// Locks `current`, shrugging off poisoning: the state under the lock
    /// is two pointer-sized writes that cannot be left half-done.
    fn lock(&self) -> MutexGuard<'_, Arc<FrozenIndex>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared handle to the live index: cheap to clone, safe to publish
/// through from any thread.
#[derive(Clone)]
pub struct IndexHandle {
    shared: Arc<Shared>,
}

impl IndexHandle {
    /// Creates a handle serving `index` at generation 1.
    pub fn new(index: FrozenIndex) -> Self {
        Self {
            shared: Arc::new(Shared {
                generation: AtomicU64::new(1),
                current: Mutex::new(Arc::new(index)),
            }),
        }
    }

    /// Atomically replaces the served snapshot, returning the new
    /// generation and the previous snapshot. Readers currently mid-query
    /// keep serving the old snapshot until they next call
    /// [`IndexReader::snapshot`]; nobody blocks.
    ///
    /// The returned generation is the one computed under the publish
    /// lock, so it is correct even when publishes race — reading
    /// [`IndexHandle::generation`] afterwards could observe a later one.
    pub fn publish(&self, index: FrozenIndex) -> (u64, Arc<FrozenIndex>) {
        let fresh = Arc::new(index);
        let mut cur = self.shared.lock();
        let old = std::mem::replace(&mut *cur, fresh);
        // Still under the lock, so generation and snapshot move together.
        let generation = self.shared.generation.fetch_add(1, Ordering::Release) + 1;
        (generation, old)
    }

    /// The current snapshot (one mutex lock + `Arc` clone). For hot
    /// loops, hold an [`IndexReader`] instead.
    pub fn load(&self) -> Arc<FrozenIndex> {
        self.shared.lock().clone()
    }

    /// Generation of the live snapshot (starts at 1, +1 per publish).
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// Creates a reader with its own cached snapshot.
    pub fn reader(&self) -> IndexReader {
        // Snapshot and generation must be read under one lock
        // acquisition: pairing them from separate reads could tag an old
        // snapshot with a newer generation, leaving the reader stale
        // until the *next* publish.
        let cur = self.shared.lock();
        let cached = cur.clone();
        let seen = self.shared.generation.load(Ordering::Relaxed);
        IndexReader {
            shared: Arc::clone(&self.shared),
            seen,
            cached,
        }
    }
}

/// A per-thread view of the live index.
///
/// [`IndexReader::snapshot`] is the serving hot path: one atomic load to
/// check the generation, then a plain reference into the cached snapshot.
/// The publish mutex is only touched when a new snapshot was actually
/// installed.
pub struct IndexReader {
    shared: Arc<Shared>,
    seen: u64,
    cached: Arc<FrozenIndex>,
}

impl IndexReader {
    /// The freshest snapshot this reader can see. Refreshes the cache iff
    /// a newer generation has been published.
    #[inline]
    pub fn snapshot(&mut self) -> &FrozenIndex {
        self.snapshot_with_generation().0
    }

    /// The freshest snapshot *and* the generation it serves at, read as
    /// one consistent pair — what a generation-keyed decision cache
    /// needs per lookup. Same cost as [`IndexReader::snapshot`]: one
    /// atomic load unless a swap actually happened.
    #[inline]
    pub fn snapshot_with_generation(&mut self) -> (&FrozenIndex, u64) {
        let live = self.shared.generation.load(Ordering::Acquire);
        if live != self.seen {
            let cur = self.shared.lock();
            self.cached = cur.clone();
            // Re-read under the lock: `cur` may already be newer than
            // `live` if another publish squeezed in between.
            self.seen = self.shared.generation.load(Ordering::Relaxed);
        }
        (&self.cached, self.seen)
    }

    /// Generation of the snapshot this reader currently serves from.
    pub fn generation(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_geo::{Grid, Partition, Point};
    use fsi_pipeline::ModelSnapshot;

    fn index_with_score(raw: f64) -> FrozenIndex {
        let grid = Grid::unit(4).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot = ModelSnapshot::uniform(4, raw).unwrap();
        FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap()
    }

    #[test]
    fn publish_bumps_generation_and_returns_old() {
        let handle = IndexHandle::new(index_with_score(0.25));
        assert_eq!(handle.generation(), 1);
        let (generation, old) = handle.publish(index_with_score(0.75));
        assert_eq!(generation, 2);
        assert_eq!(handle.generation(), 2);
        let p = Point::new(0.1, 0.1);
        assert!((old.lookup(&p).unwrap().raw_score - 0.25).abs() < 1e-12);
        assert!((handle.load().lookup(&p).unwrap().raw_score - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reader_refreshes_only_on_new_generation() {
        let handle = IndexHandle::new(index_with_score(0.25));
        let mut reader = handle.reader();
        assert_eq!(reader.generation(), 1);
        let p = Point::new(0.9, 0.9);
        assert!((reader.snapshot().lookup(&p).unwrap().raw_score - 0.25).abs() < 1e-12);
        handle.publish(index_with_score(0.75));
        // The reader observes the swap on its next snapshot() call.
        assert!((reader.snapshot().lookup(&p).unwrap().raw_score - 0.75).abs() < 1e-12);
        assert_eq!(reader.generation(), 2);
    }

    #[test]
    fn clones_share_the_same_live_index() {
        let handle = IndexHandle::new(index_with_score(0.2));
        let other = handle.clone();
        other.publish(index_with_score(0.9));
        assert_eq!(handle.generation(), 2);
        let p = Point::new(0.5, 0.5);
        assert!((handle.load().lookup(&p).unwrap().raw_score - 0.9).abs() < 1e-12);
    }
}

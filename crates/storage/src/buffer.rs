//! Buffer pool: caches pages between the executor and the page store.
//!
//! The pool is shared by all tables in a [`crate::engine::StorageEngine`] and
//! has a fixed capacity in pages. When the working set exceeds the capacity,
//! least-recently-used pages are evicted (written back if dirty). Because
//! larger labels make tuples larger and therefore spread the same rows over
//! more pages, the buffer pool is what turns the per-tag byte overhead of
//! Section 8.3 into the throughput effect seen in Figure 6.
//!
//! An in-memory engine's pool is sized never to evict, so there a frame is
//! its page's only copy: nothing is written back, and the page store behind
//! it ([`crate::store::MemPageStore`]) stays empty.
//!
//! # Pins
//!
//! A frame holds its page behind an [`Arc`]. A reader takes the pool mutex
//! only to find the frame and clone that `Arc` (a *pin*), then reads with
//! the mutex released, so concurrent scans do not queue behind one another.
//! A writer mutates under the mutex through [`Arc::make_mut`]: the page is
//! copied (8 KiB) only if a reader holds a pin at that instant, and that
//! reader keeps the page as it was when pinned. The same holds across an
//! eviction. Reading "the page as of the pin" is correct under MVCC: every
//! write a snapshot may see was applied before the snapshot existed, and
//! later writes (new versions, `xmax` patches by transactions still running,
//! vacuum of versions dead to everyone) change nothing the snapshot sees.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::StorageResult;
use crate::page::{Page, PageId};
use crate::store::PageStore;

/// Key of a page in the shared pool: table id plus page number.
pub type FrameKey = (u32, PageId);

struct Frame {
    page: Arc<Page>,
    dirty: bool,
    last_use: u64,
}

/// Counters exposed by the buffer pool.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Lookups served from the pool.
    pub hits: u64,
    /// Lookups that had to read from the page store.
    pub misses: u64,
    /// Dirty pages written back on eviction or flush.
    pub writebacks: u64,
    /// Pages evicted.
    pub evictions: u64,
}

/// A fixed-capacity, LRU buffer pool.
pub struct BufferPool {
    capacity: usize,
    frames: Mutex<HashMap<FrameKey, Frame>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writebacks: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.lock().len())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool that holds at most `capacity` pages.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(BufferPool {
            capacity: capacity.max(1),
            frames: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.lock().len()
    }

    /// Runs `f` with read access to the page, fetching it from `store` if it
    /// is not resident. `f` runs on a pin, outside the pool mutex.
    pub fn with_page<R>(
        &self,
        table: u32,
        id: PageId,
        store: &dyn PageStore,
        f: impl FnOnce(&Page) -> R,
    ) -> StorageResult<R> {
        let mut frames = self.frames.lock();
        self.ensure_resident(&mut frames, table, id, store)?;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let frame = frames.get_mut(&(table, id)).expect("frame just ensured");
        frame.last_use = tick;
        let page = Arc::clone(&frame.page);
        drop(frames);
        Ok(f(&page))
    }

    /// Runs `f` with mutable access to the page, marking it dirty. `f` runs
    /// under the pool mutex, on a private copy if a reader has the page
    /// pinned.
    pub fn with_page_mut<R>(
        &self,
        table: u32,
        id: PageId,
        store: &dyn PageStore,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let mut frames = self.frames.lock();
        self.ensure_resident(&mut frames, table, id, store)?;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let frame = frames.get_mut(&(table, id)).expect("frame just ensured");
        frame.last_use = tick;
        frame.dirty = true;
        Ok(f(Arc::make_mut(&mut frame.page)))
    }

    fn ensure_resident(
        &self,
        frames: &mut HashMap<FrameKey, Frame>,
        table: u32,
        id: PageId,
        store: &dyn PageStore,
    ) -> StorageResult<()> {
        if frames.contains_key(&(table, id)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Evict until there is room. Dirty pages are written back through the
        // same store that owns them — but eviction candidates may belong to a
        // different table/store, so writeback happens lazily at flush time
        // for foreign frames. To keep the model simple and correct, we only
        // evict clean frames here and fall back to evicting the LRU dirty
        // frame of the *same* store; dirty frames of other stores are flushed
        // by their owner via `flush_table`.
        while frames.len() >= self.capacity {
            // Pick the least recently used evictable frame. Dirty frames of
            // *other* tables are skipped, because their store is not
            // reachable from here; they are flushed by their owner via
            // `flush_table`. If only such frames remain, grow past capacity
            // temporarily.
            let victim = frames
                .iter()
                .filter(|(k, f)| !f.dirty || k.0 == table)
                .min_by_key(|(_, f)| f.last_use)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            let frame = frames.remove(&key).expect("victim exists");
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if frame.dirty {
                store.write_page(key.1, &frame.page)?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        let page = store.read_page(id)?;
        frames.insert(
            (table, id),
            Frame {
                page: Arc::new(page),
                dirty: false,
                last_use: self.clock.fetch_add(1, Ordering::Relaxed),
            },
        );
        Ok(())
    }

    /// Writes back every dirty page belonging to `table`.
    pub fn flush_table(&self, table: u32, store: &dyn PageStore) -> StorageResult<()> {
        let mut frames = self.frames.lock();
        for (key, frame) in frames.iter_mut() {
            if key.0 == table && frame.dirty {
                store.write_page(key.1, &frame.page)?;
                frame.dirty = false;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Drops every frame belonging to `table` without writing it back (used
    /// when a table is destroyed).
    pub fn discard_table(&self, table: u32) {
        self.frames.lock().retain(|key, _| key.0 != table);
    }

    /// Current statistics.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemPageStore, PageStore};

    #[test]
    fn caches_pages_and_counts_hits() {
        let store = MemPageStore::new();
        let id = store.allocate().unwrap();
        let pool = BufferPool::new(4);
        pool.with_page(1, id, &store, |p| assert_eq!(p.slot_count(), 0))
            .unwrap();
        pool.with_page(1, id, &store, |_| ()).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(store.reads(), 1, "second access must not touch the store");
    }

    #[test]
    fn a_pinned_reader_keeps_its_page_while_a_writer_copies_it() {
        let store = MemPageStore::new();
        let id = store.allocate().unwrap();
        let pool = BufferPool::new(4);
        pool.with_page(1, id, &store, |pinned| {
            // The reader holds no pool lock, so the writer gets in — and
            // writes to a copy, because the page is pinned.
            pool.with_page_mut(1, id, &store, |p| p.insert(b"later").map(|_| ()))
                .unwrap()
                .unwrap();
            assert_eq!(pinned.slot_count(), 0);
        })
        .unwrap();
        pool.with_page(1, id, &store, |p| assert_eq!(p.read(0).unwrap(), b"later"))
            .unwrap();
    }

    #[test]
    fn evicts_lru_when_full() {
        let store = MemPageStore::new();
        let ids: Vec<_> = (0..6).map(|_| store.allocate().unwrap()).collect();
        let pool = BufferPool::new(3);
        for id in &ids {
            pool.with_page(1, *id, &store, |_| ()).unwrap();
        }
        assert!(pool.resident() <= 3);
        assert!(pool.stats().evictions >= 3);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let store = MemPageStore::new();
        let ids: Vec<_> = (0..4).map(|_| store.allocate().unwrap()).collect();
        let pool = BufferPool::new(2);
        pool.with_page_mut(1, ids[0], &store, |p| {
            p.insert(b"dirty").unwrap();
        })
        .unwrap();
        // Touch enough other pages to evict page 0.
        for id in &ids[1..] {
            pool.with_page(1, *id, &store, |_| ()).unwrap();
        }
        // Read page 0 again; the insert must have survived the eviction.
        pool.with_page(1, ids[0], &store, |p| {
            assert_eq!(p.read(0).unwrap(), b"dirty");
        })
        .unwrap();
        assert!(pool.stats().writebacks >= 1);
    }

    #[test]
    fn flush_table_persists_dirty_frames() {
        let store = MemPageStore::new();
        let id = store.allocate().unwrap();
        let pool = BufferPool::new(4);
        pool.with_page_mut(7, id, &store, |p| {
            p.insert(b"flushed").unwrap();
        })
        .unwrap();
        pool.flush_table(7, &store).unwrap();
        // Bypass the pool and read from the store directly.
        assert_eq!(store.read_page(id).unwrap().read(0).unwrap(), b"flushed");
    }

    #[test]
    fn discard_table_drops_frames() {
        let store = MemPageStore::new();
        let id = store.allocate().unwrap();
        let pool = BufferPool::new(4);
        pool.with_page(9, id, &store, |_| ()).unwrap();
        assert_eq!(pool.resident(), 1);
        pool.discard_table(9);
        assert_eq!(pool.resident(), 0);
    }
}

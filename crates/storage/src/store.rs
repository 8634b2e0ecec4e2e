//! Page stores: where pages live when they are not in the buffer pool.
//!
//! Two implementations are provided, mirroring the two configurations of the
//! Figure 6 experiment: an in-memory store (the "in-memory database") and a
//! file-backed store with real positional read/write system calls (the
//! "on-disk, disk-bound database").
//!
//! An in-memory engine's pool never evicts, so there a page's pool frame is
//! its only copy: [`MemPageStore`] holds just the pages a pool wrote back to
//! it, which for such an engine is none.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Abstract backing store for a table's pages.
pub trait PageStore: Send + Sync {
    /// Allocates a fresh, empty page and returns its id.
    fn allocate(&self) -> StorageResult<PageId>;
    /// Reads the page with the given id.
    fn read_page(&self, id: PageId) -> StorageResult<Page>;
    /// Writes the page with the given id.
    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()>;
    /// Number of allocated pages.
    fn page_count(&self) -> u32;
    /// Number of physical reads served so far (for statistics).
    fn reads(&self) -> u64;
    /// Number of physical writes served so far (for statistics).
    fn writes(&self) -> u64;
}

/// An in-memory page store: "disk" reads and writes are memcpys. It holds
/// only the pages written back to it; an allocated page never written back
/// reads as empty.
#[derive(Default)]
pub struct MemPageStore {
    pages: Mutex<HashMap<PageId, Page>>,
    page_count: AtomicU32,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl MemPageStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refuses ids this store never allocated.
    fn check_allocated(&self, id: PageId) -> StorageResult<()> {
        if id.0 < self.page_count() {
            Ok(())
        } else {
            Err(StorageError::Corruption {
                detail: format!("page {} not allocated", id.0),
            })
        }
    }

    /// Number of pages the store holds a copy of.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.pages.lock().len()
    }
}

impl PageStore for MemPageStore {
    fn allocate(&self) -> StorageResult<PageId> {
        Ok(PageId(self.page_count.fetch_add(1, Ordering::SeqCst)))
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.check_allocated(id)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(self.pages.lock().get(&id).cloned().unwrap_or_default())
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.check_allocated(id)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.pages.lock().insert(id, page.clone());
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::SeqCst)
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// A file-backed page store: each page occupies an 8 KiB extent of a heap
/// file, and reads/writes are real system calls, so evictions from the buffer
/// pool have a genuine I/O cost. The calls are positional, so concurrent
/// page I/O on one file does not queue on a lock.
pub struct FilePageStore {
    file: File,
    page_count: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl FilePageStore {
    /// Creates (or truncates) a heap file at `path`.
    pub fn create(path: &Path) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePageStore {
            file,
            page_count: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }
}

/// Where page `id` starts in its heap file.
fn extent(id: PageId) -> u64 {
    id.0 as u64 * PAGE_SIZE as u64
}

impl PageStore for FilePageStore {
    fn allocate(&self) -> StorageResult<PageId> {
        let id = PageId(self.page_count.fetch_add(1, Ordering::SeqCst) as u32);
        // Materialize the extent immediately so reads of freshly allocated
        // pages succeed.
        self.file.write_all_at(Page::new().as_bytes(), extent(id))?;
        Ok(id)
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file.read_exact_at(&mut buf, extent(id))?;
        Page::from_bytes(buf)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.file.write_all_at(page.as_bytes(), extent(id))?;
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::SeqCst) as u32
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(store.page_count(), 2);

        let mut page = store.read_page(a).unwrap();
        page.insert(b"durable bytes").unwrap();
        store.write_page(a, &page).unwrap();

        let again = store.read_page(a).unwrap();
        assert_eq!(again.read(0).unwrap(), b"durable bytes");
        // Page b is still empty.
        assert_eq!(store.read_page(b).unwrap().slot_count(), 0);
        assert!(store.reads() >= 2);
        assert!(store.writes() >= 1);
    }

    #[test]
    fn mem_store_round_trip() {
        exercise(&MemPageStore::new());
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("ifdb-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.dat");
        let store = FilePageStore::create(&path).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_rejects_unallocated_pages() {
        let store = MemPageStore::new();
        assert!(store.read_page(PageId(3)).is_err());
        assert!(store.write_page(PageId(3), &Page::new()).is_err());
    }

    #[test]
    fn mem_store_holds_only_pages_written_back() {
        let store = MemPageStore::new();
        let ids: Vec<PageId> = (0..100).map(|_| store.allocate().unwrap()).collect();
        assert_eq!(store.page_count(), 100);
        assert_eq!(store.held(), 0, "allocating builds no page");
        assert_eq!(store.read_page(ids[42]).unwrap().slot_count(), 0);
        let mut page = Page::new();
        page.insert(b"written back").unwrap();
        store.write_page(ids[7], &page).unwrap();
        assert_eq!(store.held(), 1);
        assert_eq!(
            store.read_page(ids[7]).unwrap().read(0).unwrap(),
            b"written back"
        );
    }

    #[test]
    fn file_store_serves_concurrent_readers_their_own_pages() {
        let dir = std::env::temp_dir().join(format!("ifdb-store-conc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FilePageStore::create(&dir.join("heap.dat")).unwrap();
        let ids: Vec<PageId> = (0..4u8)
            .map(|i| {
                let id = store.allocate().unwrap();
                let mut page = Page::new();
                page.insert(&[i; 100]).unwrap();
                store.write_page(id, &page).unwrap();
                id
            })
            .collect();
        let start = std::sync::Barrier::new(ids.len());
        std::thread::scope(|scope| {
            for (i, id) in ids.iter().enumerate() {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..500 {
                        let page = store.read_page(*id).unwrap();
                        assert_eq!(page.read(0).unwrap(), &[i as u8; 100][..]);
                    }
                });
            }
        });
        assert_eq!(store.reads(), 4 * 500);
        std::fs::remove_dir_all(&dir).ok();
    }
}

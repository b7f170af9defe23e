//! Fixed-size disk pages.

use bytes::Bytes;

/// Page size in bytes. §6.1: "The disk page size is set to 4KB".
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a disk page within one store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u32);

impl PageId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A simulated disk: an append-only sequence of immutable pages.
///
/// Pages are built once (when a store is constructed) and never mutated;
/// all query-time state lives in the algorithms, matching the paper's
/// read-only evaluation setting.
#[derive(Clone, Debug, Default)]
pub struct Disk {
    pages: Vec<Bytes>,
}

impl Disk {
    /// An empty disk.
    pub fn new() -> Self {
        Disk::default()
    }

    /// Appends a page image and returns its id.
    ///
    /// # Panics
    /// Panics when `data` exceeds [`PAGE_SIZE`]; writers must split records
    /// across pages themselves (records never span pages in this store).
    pub fn append(&mut self, data: Bytes) -> PageId {
        assert!(
            data.len() <= PAGE_SIZE,
            "page overflow: {} > {PAGE_SIZE}",
            data.len()
        );
        let id = PageId(self.pages.len() as u32);
        self.pages.push(data);
        id
    }

    /// Reads a page image. This is the *physical* read; callers should go
    /// through [`crate::BufferPool`] so the access is cached and counted.
    #[inline]
    pub fn read(&self, id: PageId) -> Bytes {
        self.pages[id.idx()].clone()
    }

    /// Overwrites `data.len()` bytes of page `id` starting at `offset` —
    /// the write path of the dynamic update layer (DESIGN.md §15). The
    /// page image is replaced wholesale (pages are immutable `Bytes`), so
    /// concurrent readers holding the old image keep a consistent
    /// pre-update view.
    ///
    /// # Panics
    /// Panics when the byte range falls outside the page.
    pub fn patch(&mut self, id: PageId, offset: usize, data: &[u8]) {
        let page = &self.pages[id.idx()];
        assert!(
            offset + data.len() <= page.len(),
            "patch range {}..{} outside page of {} bytes",
            offset,
            offset + data.len(),
            page.len()
        );
        let mut image = page.to_vec();
        image[offset..offset + data.len()].copy_from_slice(data);
        self.pages[id.idx()] = Bytes::from(image);
    }

    /// Number of pages on the disk.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read() {
        let mut d = Disk::new();
        let a = d.append(Bytes::from_static(b"alpha"));
        let b = d.append(Bytes::from_static(b"beta"));
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(&d.read(a)[..], b"alpha");
        assert_eq!(&d.read(b)[..], b"beta");
        assert_eq!(d.page_count(), 2);
    }

    #[test]
    fn accepts_full_page() {
        let mut d = Disk::new();
        d.append(Bytes::from(vec![0u8; PAGE_SIZE]));
        assert_eq!(d.page_count(), 1);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn rejects_oversized_page() {
        let mut d = Disk::new();
        d.append(Bytes::from(vec![0u8; PAGE_SIZE + 1]));
    }
}

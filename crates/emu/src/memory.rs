//! Sparse functional memory.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_BITS: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Direct-mapped translation-cache entries (page number → arena slot).
/// Working sets here are a handful of stack/data/text pages, so a small
/// power-of-two cache all but eliminates `HashMap` probes on the
/// load/store path.
const TLB_WAYS: usize = 64;

/// Tag of an empty TLB way. Page numbers are addresses shifted right by
/// [`PAGE_BITS`], so `u64::MAX` can never be a real tag.
const NO_PAGE: u64 = u64::MAX;

/// A sparse, byte-addressable 64-bit memory backed by 4 KiB pages.
///
/// Pages live in an arena (`Vec` of boxed pages); a `HashMap` maps page
/// numbers to arena slots, with a small direct-mapped translation cache in
/// front of it. The cache uses interior mutability so that plain `&self`
/// reads keep it warm too.
///
/// Reads of never-written locations return zero, matching the zero-filled
/// BSS/stack the OS would provide.
///
/// # Example
///
/// ```
/// let mut m = svf_emu::Memory::new();
/// m.write_u64(0x4000_0000 - 8, 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x4000_0000 - 8), 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x1234_5678), 0, "untouched memory reads zero");
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    index: HashMap<u64, u32>,
    tlb: [Cell<(u64, u32)>; TLB_WAYS],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: Vec::new(),
            index: HashMap::new(),
            tlb: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
        }
    }
}

impl Memory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of pages that have been materialized.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Arena slot of `page_no`, if the page is resident. The translation
    /// cache probe is forced inline into every access (it is the emulator's
    /// hottest path, and the inliner otherwise outlines it once enough
    /// callers exist); the page-table walk on a miss stays out of line.
    #[inline(always)]
    fn lookup(&self, page_no: u64) -> Option<u32> {
        let (tag, slot) = self.tlb[(page_no as usize) & (TLB_WAYS - 1)].get();
        if tag == page_no {
            return Some(slot);
        }
        self.lookup_miss(page_no)
    }

    #[cold]
    #[inline(never)]
    fn lookup_miss(&self, page_no: u64) -> Option<u32> {
        let slot = *self.index.get(&page_no)?;
        self.tlb[(page_no as usize) & (TLB_WAYS - 1)].set((page_no, slot));
        Some(slot)
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.lookup(addr >> PAGE_BITS).map(|slot| &*self.pages[slot as usize])
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page_no = addr >> PAGE_BITS;
        let slot = match self.lookup(page_no) {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
                self.pages.push(Box::new([0u8; PAGE_SIZE]));
                self.index.insert(page_no, slot);
                self.tlb[(page_no as usize) & (TLB_WAYS - 1)].set((page_no, slot));
                slot
            }
        };
        &mut self.pages[slot as usize]
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr` (may cross pages).
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                let mut out = [0u8; N];
                out.copy_from_slice(&p[off..off + N]);
                return out;
            }
            return [0u8; N];
        }
        let mut out = [0u8; N];
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + bytes.len() <= PAGE_SIZE {
            self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, b);
            }
        }
    }

    /// Reads a little-endian 32-bit value.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian 64-bit value.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian 64-bit value.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Bulk-loads a byte slice (used by the program loader).
    pub fn load(&mut self, base: u64, bytes: &[u8]) {
        self.write_bytes(base, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xFFFF_FFFF_FFFF_0000), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_write_widths() {
        let mut m = Memory::new();
        m.write_u64(0x100, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(0x100), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u32(0x100), 0x0506_0708);
        assert_eq!(m.read_u32(0x104), 0x0102_0304);
        assert_eq!(m.read_u8(0x100), 0x08, "little-endian");
        m.write_u8(0x100, 0xFF);
        assert_eq!(m.read_u64(0x100), 0x0102_0304_0506_07FF);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles page 0 and 1
        m.write_u64(addr, 0xAABB_CCDD_EEFF_1122);
        assert_eq!(m.read_u64(addr), 0xAABB_CCDD_EEFF_1122);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_load() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load(0x2000 - 128, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(0x2000 - 128 + i as u64), b);
        }
    }

    #[test]
    fn tlb_conflicting_pages_stay_coherent() {
        let mut m = Memory::new();
        // Two page numbers that map to the same direct-mapped way
        // (differ by exactly TLB_WAYS pages), plus an unrelated page.
        let a = 0x10_0000;
        let b = a + (TLB_WAYS as u64) * PAGE_SIZE as u64;
        m.write_u64(a, 1);
        m.write_u64(b, 2);
        for _ in 0..4 {
            assert_eq!(m.read_u64(a), 1);
            assert_eq!(m.read_u64(b), 2);
        }
        m.write_u64(a, 3);
        assert_eq!(m.read_u64(b), 2);
        assert_eq!(m.read_u64(a), 3);
        assert_eq!(m.resident_pages(), 2);
    }
}

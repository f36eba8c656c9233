//! The SVM's simulated physical/virtual memory.
//!
//! Layout (one virtual machine):
//!
//! ```text
//! 0x0000_0000 .. 0x0001_0000   null + guard pages (never mapped)
//! 0x0001_0000 .. 0x0005_0000   userspace (per address space, 256 KiB)
//! 0x1000_0000 .. 0x1200_0000   kernel memory (globals, kernel stack, heap)
//! 0x8000_0000 .. …             function "addresses" (16 bytes apart)
//! 0x9000_0000 .. …             external function addresses (trap on call)
//! ```
//!
//! Userspace is instantiated per *address space* (asid); the kernel switches
//! spaces with `sva.mmu.load.space` (the CR3 write of a ported kernel) and
//! copies pages with `sva.mmu.copy.page` (fork). The SVM mediates all of
//! this (paper §3.4): the kernel never touches page tables directly.
//!
//! Kernel memory and every address space are each one [`Region`]: a
//! calloc-ed buffer, zero-page backed until touched, plus the set of
//! pages stores have written. A page outside the set is all zero, so
//! cloning a region (a vCPU fork), listing its pages (a snapshot) and
//! rebuilding it (a restore) cost the written pages, not its size.

use crate::VmError;

/// Base of the user region within every address space.
pub const USER_BASE: u64 = 0x0001_0000;
/// Size of each user address space.
pub const USER_SIZE: u64 = 0x0004_0000; // 256 KiB
/// End (exclusive) of the user region.
pub const USER_END: u64 = USER_BASE + USER_SIZE;
/// Base of kernel memory.
pub const KERN_BASE: u64 = 0x1000_0000;
/// Size of kernel memory.
pub const KERN_SIZE: u64 = 0x0200_0000; // 32 MiB
/// End (exclusive) of kernel memory.
pub const KERN_END: u64 = KERN_BASE + KERN_SIZE;
/// Base of the fixed kernel stack area (inside kernel memory).
pub const KSTACK_BASE: u64 = KERN_BASE + 0x0010_0000;
/// Size of the kernel stack.
pub const KSTACK_SIZE: u64 = 0x0002_0000; // 128 KiB
/// End of the kernel stack area.
pub const KSTACK_END: u64 = KSTACK_BASE + KSTACK_SIZE;
/// Base of the kernel heap (managed by the guest kernel's allocators).
pub const KHEAP_BASE: u64 = KERN_BASE + 0x0020_0000;
/// End of the kernel heap.
pub const KHEAP_END: u64 = KERN_END;
/// Virtual page size.
pub const PAGE_SIZE: u64 = 4096;
/// Base of function addresses.
pub const FUNC_BASE: u64 = 0x8000_0000;
/// Stride between function addresses.
pub const FUNC_STRIDE: u64 = 16;
/// Base of external-function addresses.
pub const EXTERN_BASE: u64 = 0x9000_0000;

/// Address of a defined function.
pub fn func_addr(fid: u32) -> u64 {
    FUNC_BASE + fid as u64 * FUNC_STRIDE
}

/// Function id behind an address, if it is a function address.
pub fn addr_func(addr: u64) -> Option<u32> {
    if (FUNC_BASE..EXTERN_BASE).contains(&addr) && (addr - FUNC_BASE).is_multiple_of(FUNC_STRIDE) {
        Some(((addr - FUNC_BASE) / FUNC_STRIDE) as u32)
    } else {
        None
    }
}

/// Address of an external function.
pub fn extern_addr(eid: u32) -> u64 {
    EXTERN_BASE + eid as u64 * FUNC_STRIDE
}

/// [`PAGE_SIZE`] as a byte count.
const PAGE: usize = PAGE_SIZE as usize;

/// Whether `page`, at most a page long, is all zero: one `memcmp`
/// against a zero page.
fn all_zero(page: &[u8]) -> bool {
    static ZERO: [u8; PAGE] = [0; PAGE];
    page == &ZERO[..page.len()]
}

/// One region of guest memory — kernel memory or an address space: a
/// calloc-ed byte buffer and its written-page set, one bit per
/// [`PAGE_SIZE`] page, set by every store into the page.
///
/// Invariant: a page whose bit is clear is all zero. A page whose bit is
/// set may since have been written back to zero.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Region {
    data: Vec<u8>,
    written: Vec<u64>,
}

impl Region {
    /// An all-zero region of `len` bytes, a whole number of pages.
    /// `vec![0; n]` is a calloc: the buffer stays zero-page backed until
    /// written.
    pub(crate) fn new(len: usize) -> Region {
        Region {
            data: vec![0; len],
            written: vec![0; (len / PAGE).div_ceil(64)],
        }
    }

    /// A `len`-byte region holding each `(page-aligned byte offset, page
    /// bytes)` of `pages`, as a snapshot lists them, and zeros elsewhere,
    /// with exactly those pages marked written. Costs the listed pages.
    pub(crate) fn from_pages<'a>(
        len: usize,
        pages: impl IntoIterator<Item = (usize, &'a [u8])>,
    ) -> Region {
        let mut region = Region::new(len);
        for (start, bytes) in pages {
            region.bytes_mut(start, bytes.len()).copy_from_slice(bytes);
        }
        region
    }

    /// Region size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// The bytes of page `i`.
    pub(crate) fn page(&self, i: usize) -> &[u8] {
        &self.data[i * PAGE..(i + 1) * PAGE]
    }

    /// The bytes `[off, off + len)` for writing, their pages marked
    /// written; `len` is nonzero.
    #[inline(always)]
    fn bytes_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        for p in off / PAGE..(off + len - 1) / PAGE + 1 {
            self.written[p / 64] |= 1 << (p % 64);
        }
        &mut self.data[off..off + len]
    }

    /// The written pages in ascending order.
    fn written(&self) -> impl Iterator<Item = usize> + '_ {
        self.written.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    /// Indices of the nonzero pages, ascending: the written pages minus
    /// any written back to zero. Costs the written pages, not the region.
    pub(crate) fn nonzero_pages(&self) -> Vec<usize> {
        self.written()
            .filter(|&p| !all_zero(self.page(p)))
            .collect()
    }
}

impl Clone for Region {
    /// Copies the written pages into a fresh calloc-ed buffer without
    /// zero-testing them, so a clone costs what was written.
    fn clone(&self) -> Region {
        Region::from_pages(self.len(), self.written().map(|p| (p * PAGE, self.page(p))))
    }
}

/// Execution privilege.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Kernel (privileged) mode.
    Kernel,
    /// User mode.
    User,
}

/// The simulated memory: kernel region plus per-asid user spaces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Memory {
    /// `[KERN_BASE, KERN_END)`.
    pub(crate) kernel: Region,
    /// `[USER_BASE, USER_END)` of each address space, by asid; `None`
    /// for a freed space, so asids keep their numbers.
    pub(crate) spaces: Vec<Option<Region>>,
    /// Currently loaded address space.
    pub current_asid: u32,
}

impl Memory {
    /// Creates memory with one initial address space (asid 0).
    pub fn new() -> Self {
        Memory {
            kernel: Region::new(KERN_SIZE as usize),
            spaces: vec![Some(Region::new(USER_SIZE as usize))],
            current_asid: 0,
        }
    }

    /// Creates a new user address space, returning its asid.
    pub fn new_space(&mut self) -> u32 {
        self.spaces.push(Some(Region::new(USER_SIZE as usize)));
        self.spaces.len() as u32 - 1
    }

    /// The live address space `asid`.
    fn space(&self, asid: u32) -> Result<&Region, VmError> {
        match self.spaces.get(asid as usize) {
            Some(Some(space)) => Ok(space),
            _ => Err(VmError::BadAsid(asid)),
        }
    }

    /// Switches the current address space.
    pub fn load_space(&mut self, asid: u32) -> Result<(), VmError> {
        self.space(asid)?;
        self.current_asid = asid;
        Ok(())
    }

    /// Frees an address space (exit). The current space cannot be freed.
    pub fn free_space(&mut self, asid: u32) -> Result<(), VmError> {
        if asid == self.current_asid {
            return Err(VmError::BadAsid(asid));
        }
        self.space(asid)?;
        self.spaces[asid as usize] = None;
        Ok(())
    }

    /// Copies one page of the *current* space into `dst_asid` (fork).
    pub fn copy_page(&mut self, dst_asid: u32, vaddr: u64) -> Result<(), VmError> {
        if !(USER_BASE..USER_END).contains(&vaddr) {
            return Err(VmError::Fault {
                addr: vaddr,
                len: PAGE_SIZE,
            });
        }
        let page = ((vaddr - USER_BASE) / PAGE_SIZE) as usize;
        match self
            .spaces
            .get_disjoint_mut([self.current_asid as usize, dst_asid as usize])
        {
            Ok([Some(src), Some(dst)]) => {
                dst.bytes_mut(page * PAGE, PAGE)
                    .copy_from_slice(src.page(page));
                Ok(())
            }
            _ => Err(VmError::BadAsid(dst_asid)),
        }
    }

    /// Number of live address spaces.
    pub fn live_spaces(&self) -> usize {
        self.spaces.iter().flatten().count()
    }

    /// The bytes `[addr, addr + len)`. A range that wraps past 2^64 or
    /// leaves both regions faults, and user mode may not name kernel
    /// memory.
    #[inline(always)]
    fn slice(&self, addr: u64, len: u64, mode: Mode) -> Result<&[u8], VmError> {
        if len == 0 {
            return Ok(&[]);
        }
        let Some(end) = addr.checked_add(len) else {
            return Err(VmError::Fault { addr, len });
        };
        if addr >= USER_BASE && end <= USER_END {
            let off = (addr - USER_BASE) as usize;
            return Ok(&self.space(self.current_asid)?.data[off..off + len as usize]);
        }
        if addr >= KERN_BASE && end <= KERN_END {
            if mode == Mode::User {
                return Err(VmError::Privilege { addr });
            }
            let off = (addr - KERN_BASE) as usize;
            return Ok(&self.kernel.data[off..off + len as usize]);
        }
        Err(VmError::Fault { addr, len })
    }

    /// [`Memory::slice`] for writing: the only path that hands out
    /// writable memory, so the one place stores are recorded in a
    /// region's written-page set.
    #[inline(always)]
    fn slice_mut(&mut self, addr: u64, len: u64, mode: Mode) -> Result<&mut [u8], VmError> {
        if len == 0 {
            return Ok(&mut []);
        }
        let Some(end) = addr.checked_add(len) else {
            return Err(VmError::Fault { addr, len });
        };
        if addr >= USER_BASE && end <= USER_END {
            let asid = self.current_asid;
            let Some(Some(space)) = self.spaces.get_mut(asid as usize) else {
                return Err(VmError::BadAsid(asid));
            };
            return Ok(space.bytes_mut((addr - USER_BASE) as usize, len as usize));
        }
        if addr >= KERN_BASE && end <= KERN_END {
            if mode == Mode::User {
                return Err(VmError::Privilege { addr });
            }
            return Ok(self
                .kernel
                .bytes_mut((addr - KERN_BASE) as usize, len as usize));
        }
        Err(VmError::Fault { addr, len })
    }

    /// Reads an unsigned little-endian integer of `width` bytes. Every
    /// guest load lands here, so the access widths get fixed-size copies
    /// instead of a variable-length one.
    #[inline(always)]
    pub fn read_uint(&self, addr: u64, width: u64, mode: Mode) -> Result<u64, VmError> {
        let s = self.slice(addr, width, mode)?;
        Ok(match *s {
            [a] => a as u64,
            [a, b] => u16::from_le_bytes([a, b]) as u64,
            [a, b, c, d] => u32::from_le_bytes([a, b, c, d]) as u64,
            [a, b, c, d, e, f, g, h] => u64::from_le_bytes([a, b, c, d, e, f, g, h]),
            _ => {
                let mut b = [0u8; 8];
                b[..width as usize].copy_from_slice(s);
                u64::from_le_bytes(b)
            }
        })
    }

    /// Writes the low `width` bytes of `v`, little-endian. The store-side
    /// twin of [`Memory::read_uint`]'s fixed-size copies.
    #[inline(always)]
    pub fn write_uint(&mut self, addr: u64, width: u64, v: u64, mode: Mode) -> Result<(), VmError> {
        let s = self.slice_mut(addr, width, mode)?;
        match width {
            1 => s.copy_from_slice(&[v as u8]),
            2 => s.copy_from_slice(&(v as u16).to_le_bytes()),
            4 => s.copy_from_slice(&(v as u32).to_le_bytes()),
            8 => s.copy_from_slice(&v.to_le_bytes()),
            _ => s.copy_from_slice(&v.to_le_bytes()[..width as usize]),
        }
        Ok(())
    }

    /// Reads `len` bytes.
    pub fn read_bytes(&self, addr: u64, len: u64, mode: Mode) -> Result<Vec<u8>, VmError> {
        Ok(self.slice(addr, len, mode)?.to_vec())
    }

    /// Writes a byte slice.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8], mode: Mode) -> Result<(), VmError> {
        let s = self.slice_mut(addr, data.len() as u64, mode)?;
        s.copy_from_slice(data);
        Ok(())
    }

    /// `memset`.
    pub fn set_bytes(&mut self, addr: u64, byte: u8, len: u64, mode: Mode) -> Result<(), VmError> {
        let s = self.slice_mut(addr, len, mode)?;
        s.fill(byte);
        Ok(())
    }

    /// `memcpy`/`memmove` (overlap-safe; may cross the user/kernel boundary
    /// in kernel mode, which is how `copy_{to,from}_user` bottom out).
    pub fn copy_bytes(&mut self, dst: u64, src: u64, len: u64, mode: Mode) -> Result<(), VmError> {
        if len == 0 {
            return Ok(());
        }
        let data = self.slice(src, len, mode)?.to_vec();
        let d = self.slice_mut(dst, len, mode)?;
        d.copy_from_slice(&data);
        Ok(())
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kernel_rw_round_trip() {
        let mut m = Memory::new();
        m.write_uint(KERN_BASE + 0x100, 8, 0xdead_beef_cafe_f00d, Mode::Kernel)
            .unwrap();
        assert_eq!(
            m.read_uint(KERN_BASE + 0x100, 8, Mode::Kernel).unwrap(),
            0xdead_beef_cafe_f00d
        );
        // Narrow widths.
        m.write_uint(KERN_BASE + 0x200, 2, 0xABCD, Mode::Kernel)
            .unwrap();
        assert_eq!(
            m.read_uint(KERN_BASE + 0x200, 2, Mode::Kernel).unwrap(),
            0xABCD
        );
        assert_eq!(
            m.read_uint(KERN_BASE + 0x200, 1, Mode::Kernel).unwrap(),
            0xCD
        );
    }

    #[test]
    fn user_mode_cannot_touch_kernel() {
        let mut m = Memory::new();
        let err = m.read_uint(KERN_BASE, 8, Mode::User).unwrap_err();
        assert!(matches!(err, VmError::Privilege { .. }));
        let err = m.write_uint(KERN_BASE, 8, 1, Mode::User).unwrap_err();
        assert!(matches!(err, VmError::Privilege { .. }));
    }

    #[test]
    fn null_and_wild_addresses_fault() {
        let m = Memory::new();
        assert!(matches!(
            m.read_uint(0, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
        assert!(matches!(
            m.read_uint(0x8, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
        assert!(matches!(
            m.read_uint(KERN_END, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
        // Straddling the user/guard boundary faults.
        assert!(matches!(
            m.read_uint(USER_END - 4, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
    }

    #[test]
    fn spaces_are_isolated() {
        let mut m = Memory::new();
        m.write_uint(USER_BASE, 8, 111, Mode::User).unwrap();
        let a1 = m.new_space();
        m.load_space(a1).unwrap();
        assert_eq!(m.read_uint(USER_BASE, 8, Mode::User).unwrap(), 0);
        m.write_uint(USER_BASE, 8, 222, Mode::User).unwrap();
        m.load_space(0).unwrap();
        assert_eq!(m.read_uint(USER_BASE, 8, Mode::User).unwrap(), 111);
    }

    #[test]
    fn copy_page_clones_fork_style() {
        let mut m = Memory::new();
        m.write_uint(USER_BASE + 8, 8, 777, Mode::User).unwrap();
        let child = m.new_space();
        m.copy_page(child, USER_BASE).unwrap();
        m.load_space(child).unwrap();
        assert_eq!(m.read_uint(USER_BASE + 8, 8, Mode::User).unwrap(), 777);
        // Copy-on-write is not modelled: writes in the child stay local.
        m.write_uint(USER_BASE + 8, 8, 888, Mode::User).unwrap();
        m.load_space(0).unwrap();
        assert_eq!(m.read_uint(USER_BASE + 8, 8, Mode::User).unwrap(), 777);
    }

    #[test]
    fn free_space_rules() {
        let mut m = Memory::new();
        let a1 = m.new_space();
        assert!(m.free_space(m.current_asid).is_err());
        m.free_space(a1).unwrap();
        assert!(m.load_space(a1).is_err());
        assert_eq!(m.live_spaces(), 1);
    }

    #[test]
    fn func_addr_round_trip() {
        assert_eq!(addr_func(func_addr(0)), Some(0));
        assert_eq!(addr_func(func_addr(42)), Some(42));
        assert_eq!(addr_func(func_addr(42) + 1), None);
        assert_eq!(addr_func(0x1234), None);
        assert_eq!(addr_func(extern_addr(0)), None);
    }

    #[test]
    fn cross_space_copy_kernel_mode() {
        let mut m = Memory::new();
        // Kernel copies user → kernel (copy_from_user bottom half).
        m.write_bytes(USER_BASE, b"hello", Mode::User).unwrap();
        m.copy_bytes(KERN_BASE + 0x1000, USER_BASE, 5, Mode::Kernel)
            .unwrap();
        assert_eq!(
            m.read_bytes(KERN_BASE + 0x1000, 5, Mode::Kernel).unwrap(),
            b"hello"
        );
    }

    #[test]
    fn copy_page_rejects_bad_targets() {
        let mut m = Memory::new();
        // Unknown destination space.
        assert!(m.copy_page(99, USER_BASE).is_err());
        // Page outside the user range.
        let child = m.new_space();
        assert!(m.copy_page(child, KERN_BASE).is_err());
    }

    #[test]
    fn set_bytes_fills_and_respects_bounds() {
        let mut m = Memory::new();
        m.set_bytes(USER_BASE + 16, 0xAA, 8, Mode::User).unwrap();
        assert_eq!(
            m.read_bytes(USER_BASE + 16, 8, Mode::User).unwrap(),
            vec![0xAA; 8]
        );
        // A fill that runs off the end of user space must fault, not wrap.
        assert!(m.set_bytes(USER_END - 4, 0xAA, 8, Mode::User).is_err());
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut m = Memory::new();
        assert_eq!(m.read_bytes(USER_BASE, 0, Mode::User).unwrap(), vec![]);
        m.write_bytes(USER_BASE, &[], Mode::User).unwrap();
        m.copy_bytes(USER_BASE, USER_BASE + 64, 0, Mode::User)
            .unwrap();
        m.set_bytes(USER_BASE, 0, 0, Mode::User).unwrap();
    }

    #[test]
    fn overlapping_copy_is_memmove_like() {
        let mut m = Memory::new();
        m.write_bytes(USER_BASE, b"abcdef", Mode::User).unwrap();
        // Overlapping forward copy: [0..4) -> [2..6).
        m.copy_bytes(USER_BASE + 2, USER_BASE, 4, Mode::User)
            .unwrap();
        assert_eq!(
            m.read_bytes(USER_BASE, 6, Mode::User).unwrap(),
            b"ababcd",
            "overlapping copies must behave like memmove"
        );
    }

    /// The reference for [`Region::nonzero_pages`]: the pages of `data`
    /// holding a nonzero byte, found by scanning all of it.
    fn dense_nonzero_pages(data: &[u8]) -> Vec<usize> {
        data.chunks(PAGE)
            .enumerate()
            .filter(|(_, c)| !all_zero(c))
            .map(|(i, _)| i)
            .collect()
    }

    impl Memory {
        /// A copy whose every page, in every region, counts as written: a
        /// snapshot of it tests whole regions for zero pages, the dense
        /// scan the written-page sets replace.
        pub(crate) fn every_page_written(&self) -> Memory {
            let mut m = self.clone();
            for r in std::iter::once(&mut m.kernel).chain(m.spaces.iter_mut().flatten()) {
                if r.len() > 0 {
                    r.bytes_mut(0, r.len());
                }
            }
            m
        }
    }

    impl Region {
        /// The written-page set as ascending page indices.
        pub(crate) fn written_pages(&self) -> Vec<usize> {
            self.written().collect()
        }
    }

    #[test]
    fn clone_copies_the_written_pages_of_every_region() {
        let mut m = Memory::new();
        // Scatter writes: first and last kernel page, a word straddling a
        // page boundary, a lone byte at a page's last offset, and user data
        // in two spaces; a third space is freed.
        m.write_uint(KERN_BASE, 8, 0x1122_3344_5566_7788, Mode::Kernel)
            .unwrap();
        m.write_uint(KERN_END - 8, 8, u64::MAX, Mode::Kernel)
            .unwrap();
        m.write_uint(
            KERN_BASE + 3 * PAGE_SIZE - 4,
            8,
            0xabcd_ef01_2345_6789,
            Mode::Kernel,
        )
        .unwrap();
        m.write_uint(KHEAP_BASE + 7 * PAGE_SIZE - 1, 1, 0x5a, Mode::Kernel)
            .unwrap();
        m.write_bytes(USER_BASE + 100, b"user zero", Mode::User)
            .unwrap();
        let a1 = m.new_space();
        let a2 = m.new_space();
        m.load_space(a1).unwrap();
        m.write_bytes(USER_END - 3, b"end", Mode::User).unwrap();
        m.free_space(a2).unwrap();
        assert_eq!(m.kernel.nonzero_pages().len(), 5);
        let fork = m.clone();
        assert!(fork == m, "clone differs from its original");
        assert!(fork.spaces[a2 as usize].is_none());
        for (f, o) in std::iter::once((&fork.kernel, &m.kernel))
            .chain(fork.spaces.iter().flatten().zip(m.spaces.iter().flatten()))
        {
            assert_eq!(f.nonzero_pages(), dense_nonzero_pages(&o.data));
        }
        // A clone of a pristine image is all zeros and has nothing written.
        let blank = Memory::new().clone();
        assert!(blank.kernel.written_pages().is_empty());
        assert!(dense_nonzero_pages(&blank.kernel.data).is_empty());
    }

    #[test]
    fn wrapping_ranges_fault_at_every_entry_point() {
        let mut m = Memory::new();
        let top = u64::MAX - 3;
        let fault = |r: Result<(), VmError>, (addr, len): (u64, u64)| {
            assert!(
                matches!(r, Err(VmError::Fault { addr: a, len: l }) if a == addr && l == len),
                "[{addr:#x}, +{len:#x}): {r:?}"
            );
        };
        for mode in [Mode::Kernel, Mode::User] {
            // An 8-byte access 4 bytes below 2^64.
            fault(m.read_uint(top, 8, mode).map(drop), (top, 8));
            fault(m.write_uint(top, 8, 1, mode), (top, 8));
            fault(m.write_bytes(top, b"wrapping", mode), (top, 8));
            // Lengths near 2^64 from inside each region.
            for (base, len) in [(USER_BASE, u64::MAX), (KERN_BASE, u64::MAX - KERN_BASE + 1)] {
                fault(m.read_bytes(base, len, mode).map(drop), (base, len));
                fault(m.set_bytes(base, 0xAA, len, mode), (base, len));
                fault(m.copy_bytes(USER_BASE, base, len, mode), (base, len));
                fault(m.copy_bytes(base, USER_BASE, len, mode), (USER_BASE, len));
            }
        }
        assert!(m == Memory::new(), "a faulting access changed memory");
    }

    /// The address a proptest operand names: `page` 0–4 picks the first,
    /// second, a middle, the next-to-last or the last kernel page, 5–7 the
    /// first, a middle or the last user page; the address sits `off`
    /// bytes after the page's start, or before its end when `from_end`,
    /// so short accesses straddle page and region boundaries.
    fn operand_addr((page, off, from_end): (usize, u64, bool)) -> u64 {
        let last = KERN_SIZE / PAGE_SIZE - 1;
        let base = match page {
            0 => KERN_BASE,
            1 => KERN_BASE + PAGE_SIZE,
            2 => KERN_BASE + 0x123 * PAGE_SIZE,
            3 => KERN_BASE + (last - 1) * PAGE_SIZE,
            4 => KERN_BASE + last * PAGE_SIZE,
            5 => USER_BASE,
            6 => USER_BASE + 3 * PAGE_SIZE,
            _ => USER_END - PAGE_SIZE,
        };
        if from_end {
            base + PAGE_SIZE - off
        } else {
            base + off
        }
    }

    /// The dense model a proptest checks [`Memory`] against: each region
    /// a plain byte vector, every access a direct index.
    struct Model {
        kernel: Vec<u8>,
        spaces: Vec<Option<Vec<u8>>>,
        current: usize,
    }

    impl Model {
        fn new() -> Model {
            Model {
                kernel: vec![0; KERN_SIZE as usize],
                spaces: vec![Some(vec![0; USER_SIZE as usize])],
                current: 0,
            }
        }

        /// The bytes `[addr, addr + len)` of a range the memory accepted.
        fn bytes(&mut self, addr: u64, len: u64) -> &mut [u8] {
            let (region, off) = if addr < KERN_BASE {
                (
                    self.spaces[self.current].as_mut().unwrap(),
                    addr - USER_BASE,
                )
            } else {
                (&mut self.kernel, addr - KERN_BASE)
            };
            &mut region[off as usize..(off + len) as usize]
        }

        fn live(&self, asid: usize) -> bool {
            self.spaces.get(asid).is_some_and(Option::is_some)
        }

        /// Every region of `m` holds the model's bytes, and lists exactly
        /// the model's nonzero pages from its written-page set.
        fn check(&self, m: &Memory) -> Result<(), String> {
            prop_assert_eq!(m.current_asid as usize, self.current);
            prop_assert_eq!(m.spaces.len(), self.spaces.len());
            let spaces = m
                .spaces
                .iter()
                .zip(&self.spaces)
                .map(|(r, d)| match (r, d) {
                    (Some(r), Some(d)) => Ok(Some((r, d))),
                    (None, None) => Ok(None),
                    _ => Err("a space is live in one and freed in the other".to_string()),
                });
            for pair in std::iter::once(Ok(Some((&m.kernel, &self.kernel)))).chain(spaces) {
                if let Some((region, dense)) = pair? {
                    prop_assert!(region.data == *dense, "region bytes differ from the model");
                    prop_assert_eq!(region.nonzero_pages(), dense_nonzero_pages(dense));
                }
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_region_matches_a_dense_model(
            ops in prop::collection::vec(
                (
                    0u8..12,
                    (0usize..8, 0u64..12, any::<bool>()),
                    (0usize..8, 0u64..12, any::<bool>()),
                    1u64..24,
                    any::<u64>(),
                ),
                1..32,
            ),
        ) {
            let mut m = Memory::new();
            let mut model = Model::new();
            // Start with three spaces, so asid operations meet live
            // spaces other than the current one.
            for _ in 0..2 {
                m.new_space();
                model.spaces.push(Some(vec![0; USER_SIZE as usize]));
            }
            for &(op, dst, src, len, val) in &ops {
                let (dst, src) = (operand_addr(dst), operand_addr(src));
                // Every fourth operation spans several pages.
                let len = if val % 4 == 0 { len * 700 } else { len };
                // A third of the stores write zeros, some over earlier data.
                let zero = val % 3 == 0;
                // A fifth run in user mode, which kernel addresses refuse.
                let mode = if val % 5 == 0 { Mode::User } else { Mode::Kernel };
                // An asid that is live, freed or one past the last space.
                let asid = (val >> 32) as usize % (model.spaces.len() + 1);
                match op {
                    0 => {
                        let width = [1, 2, 4, 8][(val >> 8) as usize % 4];
                        let v = if zero { 0 } else { val | 0x0101_0101_0101_0101 };
                        if m.write_uint(dst, width, v, mode).is_ok() {
                            model
                                .bytes(dst, width)
                                .copy_from_slice(&v.to_le_bytes()[..width as usize]);
                        }
                    }
                    1 => {
                        let data: Vec<u8> = (0..len)
                            .map(|i| if zero || (val >> (i % 64)) & 1 == 0 { 0 } else { i as u8 | 0x80 })
                            .collect();
                        if m.write_bytes(dst, &data, mode).is_ok() {
                            model.bytes(dst, len).copy_from_slice(&data);
                        }
                    }
                    2 => {
                        let byte = if zero { 0 } else { (val >> 16) as u8 | 1 };
                        if m.set_bytes(dst, byte, len, mode).is_ok() {
                            model.bytes(dst, len).fill(byte);
                        }
                    }
                    3 | 4 => {
                        // Operands 0-4 are kernel pages, 5-7 user pages, so
                        // copies run kernel to user, user to kernel and
                        // within each region.
                        let (d, s) = if op == 3 { (dst, src) } else { (src, dst) };
                        if m.copy_bytes(d, s, len, mode).is_ok() {
                            let data = model.bytes(s, len).to_vec();
                            model.bytes(d, len).copy_from_slice(&data);
                        }
                    }
                    5 => {
                        prop_assert_eq!(m.new_space() as usize, model.spaces.len());
                        model.spaces.push(Some(vec![0; USER_SIZE as usize]));
                    }
                    6 | 7 => {
                        prop_assert_eq!(m.load_space(asid as u32).is_ok(), model.live(asid));
                        if model.live(asid) {
                            model.current = asid;
                        }
                    }
                    8 | 9 => {
                        // A fork's copy: every page of the current space
                        // into `asid`, each named by an address inside it.
                        let ok = asid != model.current && model.live(asid);
                        for page in 0..USER_SIZE / PAGE_SIZE {
                            let vaddr = USER_BASE + page * PAGE_SIZE + val % PAGE_SIZE;
                            prop_assert_eq!(m.copy_page(asid as u32, vaddr).is_ok(), ok);
                        }
                        if ok {
                            model.spaces[asid] = model.spaces[model.current].clone();
                        }
                    }
                    10 => {
                        let ok = asid != model.current && model.live(asid);
                        prop_assert_eq!(m.free_space(asid as u32).is_ok(), ok);
                        if ok {
                            model.spaces[asid] = None;
                        }
                    }
                    _ => m = m.clone(),
                }
                model.check(&m).map_err(|e| format!("after op {op}: {e}"))?;
            }
        }
    }

    #[test]
    fn fresh_spaces_come_up_zeroed() {
        let mut m = Memory::new();
        let a1 = m.new_space();
        m.load_space(a1).unwrap();
        m.write_uint(USER_BASE, 8, 42, Mode::User).unwrap();
        m.load_space(0).unwrap();
        m.free_space(a1).unwrap();
        // A new space must come up zeroed even if an id is reused.
        let a2 = m.new_space();
        m.load_space(a2).unwrap();
        assert_eq!(m.read_uint(USER_BASE, 8, Mode::User).unwrap(), 0);
    }
}

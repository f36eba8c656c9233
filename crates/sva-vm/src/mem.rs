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

/// Indices of the [`PAGE_SIZE`] pages of `data` holding a nonzero byte,
/// found by scanning all of `data`. The snapshot encoder lists each
/// 256 KiB user space with this; the 32 MiB kernel region is listed from
/// its written-page set instead ([`Memory::kernel_pages`]), because
/// scanning it read-faults every untouched zero page.
pub(crate) fn nonzero_pages(data: &[u8]) -> Vec<usize> {
    data.chunks(PAGE_SIZE as usize)
        .enumerate()
        .filter(|(_, c)| !all_zero(c))
        .map(|(i, _)| i)
        .collect()
}

/// Whether `bytes` is all zero. Compares a page at a time against a zero
/// page, which runs as one `memcmp` per page.
fn all_zero(bytes: &[u8]) -> bool {
    static ZERO: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
    bytes.chunks(ZERO.len()).all(|c| c == &ZERO[..c.len()])
}

/// A `total`-byte zero buffer with each `(byte offset, bytes)` of
/// `pages` copied in. `vec![0; n]` is a calloc: the buffer stays
/// zero-page-backed until written, so this touches only the copied
/// pages no matter how large the region is.
pub(crate) fn sparse_fill<'a>(
    total: usize,
    pages: impl IntoIterator<Item = (usize, &'a [u8])>,
) -> Vec<u8> {
    let mut data = vec![0u8; total];
    for (start, bytes) in pages {
        data[start..start + bytes.len()].copy_from_slice(bytes);
    }
    data
}

/// The nonzero kernel pages of a memory image, recorded once so that
/// [`Memory::fork_sparse`] copies only those. Valid only while the image
/// it was taken from does not change — an SMP machine records it from
/// its never-run template.
#[derive(Debug)]
pub(crate) struct ForkPlan {
    kernel_pages: Vec<usize>,
}

/// Number of [`PAGE_SIZE`] pages in kernel memory.
const KERN_PAGES: usize = (KERN_SIZE / PAGE_SIZE) as usize;

/// The written-page set of kernel memory: one bit per page, set by every
/// store into the page. A page whose bit is clear is all zero; a page
/// whose bit is set may since have been written back to zero.
#[derive(Clone, Debug)]
struct WrittenPages(Vec<u64>);

impl WrittenPages {
    /// A set holding exactly `pages`.
    fn of(pages: impl IntoIterator<Item = usize>) -> Self {
        let mut set = WrittenPages(vec![0; KERN_PAGES.div_ceil(64)]);
        for p in pages {
            set.insert(p);
        }
        set
    }

    #[inline]
    fn insert(&mut self, page: usize) {
        self.0[page / 64] |= 1 << (page % 64);
    }

    /// Marks the pages under the kernel byte range `[off, off + len)`;
    /// `len` is nonzero.
    #[inline]
    fn mark(&mut self, off: usize, len: usize) {
        let page = PAGE_SIZE as usize;
        for p in off / page..(off + len - 1) / page + 1 {
            self.insert(p);
        }
    }

    /// The marked pages in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
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
}

/// One user address space.
#[derive(Clone, Debug)]
pub struct UserSpace {
    /// Backing bytes for `[USER_BASE, USER_END)`.
    pub data: Vec<u8>,
    /// Live flag (freed spaces are kept as tombstones).
    pub live: bool,
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
#[derive(Clone, Debug)]
pub struct Memory {
    kernel: Vec<u8>,
    /// Which kernel pages have been written since the region was last
    /// replaced; every other kernel page is zero.
    written: WrittenPages,
    spaces: Vec<UserSpace>,
    /// Currently loaded address space.
    pub current_asid: u32,
}

impl Memory {
    /// Creates memory with one initial address space (asid 0).
    pub fn new() -> Self {
        Memory {
            kernel: vec![0; KERN_SIZE as usize],
            written: WrittenPages::of([]),
            spaces: vec![UserSpace {
                data: vec![0; USER_SIZE as usize],
                live: true,
            }],
            current_asid: 0,
        }
    }

    /// Creates a new user address space, returning its asid.
    pub fn new_space(&mut self) -> u32 {
        let id = self.spaces.len() as u32;
        self.spaces.push(UserSpace {
            data: vec![0; USER_SIZE as usize],
            live: true,
        });
        id
    }

    /// Switches the current address space.
    pub fn load_space(&mut self, asid: u32) -> Result<(), VmError> {
        match self.spaces.get(asid as usize) {
            Some(s) if s.live => {
                self.current_asid = asid;
                Ok(())
            }
            _ => Err(VmError::BadAsid(asid)),
        }
    }

    /// Frees an address space (exit). The current space cannot be freed.
    pub fn free_space(&mut self, asid: u32) -> Result<(), VmError> {
        if asid == self.current_asid {
            return Err(VmError::BadAsid(asid));
        }
        match self.spaces.get_mut(asid as usize) {
            Some(s) if s.live => {
                s.live = false;
                s.data = Vec::new();
                Ok(())
            }
            _ => Err(VmError::BadAsid(asid)),
        }
    }

    /// Copies one page of the *current* space into `dst_asid` (fork).
    pub fn copy_page(&mut self, dst_asid: u32, vaddr: u64) -> Result<(), VmError> {
        if !(USER_BASE..USER_END).contains(&vaddr) {
            return Err(VmError::Fault {
                addr: vaddr,
                len: PAGE_SIZE,
            });
        }
        let page_off = ((vaddr - USER_BASE) / PAGE_SIZE * PAGE_SIZE) as usize;
        if dst_asid as usize >= self.spaces.len()
            || !self.spaces[dst_asid as usize].live
            || dst_asid == self.current_asid
        {
            return Err(VmError::BadAsid(dst_asid));
        }
        let cur = self.current_asid as usize;
        let (a, b) = if cur < dst_asid as usize {
            let (lo, hi) = self.spaces.split_at_mut(dst_asid as usize);
            (&lo[cur], &mut hi[0])
        } else {
            let (lo, hi) = self.spaces.split_at_mut(cur);
            (&hi[0], &mut lo[dst_asid as usize])
        };
        b.data[page_off..page_off + PAGE_SIZE as usize]
            .copy_from_slice(&a.data[page_off..page_off + PAGE_SIZE as usize]);
        Ok(())
    }

    /// Number of live address spaces.
    pub fn live_spaces(&self) -> usize {
        self.spaces.iter().filter(|s| s.live).count()
    }

    /// Indices of the nonzero kernel pages, ascending: the written pages
    /// minus any written back to zero. Costs the written pages, not the
    /// 32 MiB region.
    pub(crate) fn kernel_pages(&self) -> Vec<usize> {
        let page = PAGE_SIZE as usize;
        self.written
            .iter()
            .filter(|&p| !all_zero(&self.kernel[p * page..(p + 1) * page]))
            .collect()
    }

    /// Records which kernel pages are nonzero (see [`ForkPlan`]).
    pub(crate) fn fork_plan(&self) -> ForkPlan {
        ForkPlan {
            kernel_pages: self.kernel_pages(),
        }
    }

    /// A copy of this memory that copies only the kernel pages `plan`
    /// lists and leaves the rest of the fresh kernel region zero-page
    /// backed: a fork costs the template's nonzero pages, not 32 MiB.
    /// `plan` must come from [`Self::fork_plan`] on this same, unchanged
    /// image, or the copy is wrong.
    pub(crate) fn fork_sparse(&self, plan: &ForkPlan) -> Memory {
        let page = PAGE_SIZE as usize;
        let pages: Vec<(usize, &[u8])> = plan
            .kernel_pages
            .iter()
            .map(|&i| (i * page, &self.kernel[i * page..(i + 1) * page]))
            .collect();
        let mut fork = Memory {
            kernel: Vec::new(),
            written: WrittenPages::of([]),
            spaces: self.spaces.clone(),
            current_asid: self.current_asid,
        };
        fork.set_kernel(&pages);
        fork
    }

    /// Raw kernel-region bytes (machine snapshots).
    pub(crate) fn kernel_bytes(&self) -> &[u8] {
        &self.kernel
    }

    /// The written-page set as ascending page indices.
    #[cfg(test)]
    pub(crate) fn written_pages(&self) -> Vec<usize> {
        self.written.iter().collect()
    }

    /// Replaces the kernel region with zeros overlaid by `pages`
    /// (`(page-aligned byte offset, page bytes)`, as a snapshot lists
    /// them) and marks exactly those pages written. The region is a fresh
    /// calloc-ed buffer, zero-page backed until touched, so this costs the
    /// listed pages — and so does the next snapshot, which lists pages
    /// from the written set rather than scanning the region.
    pub(crate) fn set_kernel(&mut self, pages: &[(usize, &[u8])]) {
        let page = PAGE_SIZE as usize;
        self.kernel = sparse_fill(KERN_SIZE as usize, pages.iter().copied());
        self.written = WrittenPages::of(pages.iter().map(|&(start, _)| start / page));
    }

    /// All address spaces including tombstones (machine snapshots).
    pub(crate) fn all_spaces(&self) -> &[UserSpace] {
        &self.spaces
    }

    /// Replaces the address-space table wholesale (snapshot restore).
    pub(crate) fn set_spaces(&mut self, spaces: Vec<UserSpace>) {
        self.spaces = spaces;
    }

    #[inline(always)]
    fn slice(&self, addr: u64, len: u64, mode: Mode) -> Result<&[u8], VmError> {
        if len == 0 {
            return Ok(&[]);
        }
        if addr >= USER_BASE && addr + len <= USER_END {
            let s = &self.spaces[self.current_asid as usize];
            let off = (addr - USER_BASE) as usize;
            return Ok(&s.data[off..off + len as usize]);
        }
        if addr >= KERN_BASE && addr + len <= KERN_END {
            if mode == Mode::User {
                return Err(VmError::Privilege { addr });
            }
            let off = (addr - KERN_BASE) as usize;
            return Ok(&self.kernel[off..off + len as usize]);
        }
        Err(VmError::Fault { addr, len })
    }

    /// The only path that hands out writable memory, so the one place
    /// kernel stores are recorded in the written-page set.
    #[inline(always)]
    fn slice_mut(&mut self, addr: u64, len: u64, mode: Mode) -> Result<&mut [u8], VmError> {
        if len == 0 {
            return Ok(&mut []);
        }
        if addr >= USER_BASE && addr + len <= USER_END {
            let s = &mut self.spaces[self.current_asid as usize];
            let off = (addr - USER_BASE) as usize;
            return Ok(&mut s.data[off..off + len as usize]);
        }
        if addr >= KERN_BASE && addr + len <= KERN_END {
            if mode == Mode::User {
                return Err(VmError::Privilege { addr });
            }
            let off = (addr - KERN_BASE) as usize;
            self.written.mark(off, len as usize);
            return Ok(&mut self.kernel[off..off + len as usize]);
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

    #[test]
    fn sparse_fork_is_byte_identical_to_a_dense_clone() {
        let mut m = Memory::new();
        // Scatter writes: first and last kernel page, a word straddling a
        // page boundary, a lone byte at a page's last offset, and user data
        // in two spaces.
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
        m.load_space(a1).unwrap();
        m.write_bytes(USER_END - 3, b"end", Mode::User).unwrap();
        let plan = m.fork_plan();
        assert_eq!(plan.kernel_pages.len(), 5);
        let dense = m.clone();
        let sparse = m.fork_sparse(&plan);
        assert!(sparse.kernel_bytes() == dense.kernel_bytes());
        assert_eq!(sparse.current_asid, dense.current_asid);
        assert_eq!(sparse.all_spaces().len(), dense.all_spaces().len());
        for (s, d) in sparse.all_spaces().iter().zip(dense.all_spaces()) {
            assert_eq!(s.live, d.live);
            assert!(s.data == d.data);
        }
        // A fork of a pristine image is all zeros.
        let blank = Memory::new();
        assert!(blank.fork_plan().kernel_pages.is_empty());
        assert!(all_zero(
            blank.fork_sparse(&blank.fork_plan()).kernel_bytes()
        ));
    }

    /// The address a written-set proptest operand names: `page` 0–4
    /// picks the first, second, a middle, the next-to-last or the last
    /// kernel page, 5 picks a user page; the address sits `off` bytes
    /// after the page's start, or before its end when `from_end`, so
    /// short accesses straddle page boundaries.
    fn operand_addr((page, off, from_end): (usize, u64, bool)) -> u64 {
        let last = KERN_SIZE / PAGE_SIZE - 1;
        let base = match page {
            0 => KERN_BASE,
            1 => KERN_BASE + PAGE_SIZE,
            2 => KERN_BASE + 0x123 * PAGE_SIZE,
            3 => KERN_BASE + (last - 1) * PAGE_SIZE,
            4 => KERN_BASE + last * PAGE_SIZE,
            _ => USER_BASE + 3 * PAGE_SIZE,
        };
        if from_end {
            base + PAGE_SIZE - off
        } else {
            base + off
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn written_set_lists_exactly_the_nonzero_kernel_pages(
            ops in prop::collection::vec(
                (
                    0u8..6,
                    (0usize..6, 0u64..12, any::<bool>()),
                    (0usize..6, 0u64..12, any::<bool>()),
                    1u64..24,
                    any::<u64>(),
                ),
                1..16,
            ),
        ) {
            let mut m = Memory::new();
            for &(op, dst, src, len, val) in &ops {
                let (dst, src) = (operand_addr(dst), operand_addr(src));
                // Every fourth operation spans several pages.
                let len = if val % 4 == 0 { len * 700 } else { len };
                // A third of the stores write zeros, some over earlier data.
                let zero = val % 3 == 0;
                match op {
                    0 => {
                        let width = [1, 2, 4, 8][(val >> 8) as usize % 4];
                        let v = if zero { 0 } else { val | 0x0101_0101_0101_0101 };
                        let _ = m.write_uint(dst, width, v, Mode::Kernel);
                    }
                    1 => {
                        let data: Vec<u8> = (0..len)
                            .map(|i| if zero || (val >> (i % 64)) & 1 == 0 { 0 } else { i as u8 | 0x80 })
                            .collect();
                        let _ = m.write_bytes(dst, &data, Mode::Kernel);
                    }
                    2 => {
                        let byte = if zero { 0 } else { (val >> 16) as u8 | 1 };
                        let _ = m.set_bytes(dst, byte, len, Mode::Kernel);
                    }
                    3 | 4 => {
                        // Operands 0-4 are kernel pages, 5 a user page, so
                        // copies run kernel to user, user to kernel and
                        // within each region.
                        let (d, s) = if op == 3 { (dst, src) } else { (src, dst) };
                        let _ = m.copy_bytes(d, s, len, Mode::Kernel);
                    }
                    _ => m = m.fork_sparse(&m.fork_plan()),
                }
                prop_assert_eq!(m.kernel_pages(), nonzero_pages(m.kernel_bytes()), "after op {}", op);
            }
            let fork = m.fork_sparse(&m.fork_plan());
            prop_assert!(fork.kernel_bytes() == m.kernel_bytes());
            prop_assert_eq!(fork.kernel_pages(), nonzero_pages(fork.kernel_bytes()));
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

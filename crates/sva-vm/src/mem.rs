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

/// Indices of the [`PAGE_SIZE`] pages of `data` holding a nonzero byte.
/// The snapshot encoder and the fork plan both scan the full 32 MiB
/// kernel region with this, so the zero test goes a word at a time — a
/// byte-wise loop there costs more than the copies it saves.
pub(crate) fn nonzero_pages(data: &[u8]) -> Vec<usize> {
    data.chunks(PAGE_SIZE as usize)
        .enumerate()
        .filter(|(_, c)| !all_zero(c))
        .map(|(i, _)| i)
        .collect()
}

fn all_zero(bytes: &[u8]) -> bool {
    let mut words = bytes.chunks_exact(8);
    if words.any(|c| u64::from_ne_bytes(c.try_into().unwrap()) != 0) {
        return false;
    }
    words.remainder().iter().all(|&b| b == 0)
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
    spaces: Vec<UserSpace>,
    /// Currently loaded address space.
    pub current_asid: u32,
}

impl Memory {
    /// Creates memory with one initial address space (asid 0).
    pub fn new() -> Self {
        Memory {
            kernel: vec![0; KERN_SIZE as usize],
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

    /// Records which kernel pages are nonzero (see [`ForkPlan`]).
    pub(crate) fn fork_plan(&self) -> ForkPlan {
        ForkPlan {
            kernel_pages: nonzero_pages(&self.kernel),
        }
    }

    /// A copy of this memory that copies only the kernel pages `plan`
    /// lists and leaves the rest of the fresh kernel region zero-page
    /// backed: a fork costs the template's nonzero pages, not 32 MiB.
    /// `plan` must come from [`Self::fork_plan`] on this same, unchanged
    /// image, or the copy is wrong.
    pub(crate) fn fork_sparse(&self, plan: &ForkPlan) -> Memory {
        let page = PAGE_SIZE as usize;
        let pages = plan.kernel_pages.iter().map(|&i| {
            let start = i * page;
            (
                start,
                &self.kernel[start..(start + page).min(self.kernel.len())],
            )
        });
        Memory {
            kernel: sparse_fill(self.kernel.len(), pages),
            spaces: self.spaces.clone(),
            current_asid: self.current_asid,
        }
    }

    /// Raw kernel-region bytes (machine snapshots).
    pub(crate) fn kernel_bytes(&self) -> &[u8] {
        &self.kernel
    }

    /// Replaces the kernel region wholesale (snapshot restore). Swapping
    /// in a freshly calloc-ed buffer is much cheaper than zeroing the old
    /// one in place: the 32 MiB region is zero-page-backed until touched,
    /// so a restore costs only the image's nonzero pages.
    pub(crate) fn set_kernel(&mut self, kernel: Vec<u8>) {
        debug_assert_eq!(kernel.len(), self.kernel.len());
        self.kernel = kernel;
    }

    /// All address spaces including tombstones (machine snapshots).
    pub(crate) fn all_spaces(&self) -> &[UserSpace] {
        &self.spaces
    }

    /// Replaces the address-space table wholesale (snapshot restore).
    pub(crate) fn set_spaces(&mut self, spaces: Vec<UserSpace>) {
        self.spaces = spaces;
    }

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
            return Ok(&mut self.kernel[off..off + len as usize]);
        }
        Err(VmError::Fault { addr, len })
    }

    /// Reads an unsigned little-endian integer of `width` bytes.
    pub fn read_uint(&self, addr: u64, width: u64, mode: Mode) -> Result<u64, VmError> {
        let s = self.slice(addr, width, mode)?;
        let mut b = [0u8; 8];
        b[..width as usize].copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Writes the low `width` bytes of `v`, little-endian.
    pub fn write_uint(&mut self, addr: u64, width: u64, v: u64, mode: Mode) -> Result<(), VmError> {
        let s = self.slice_mut(addr, width, mode)?;
        s.copy_from_slice(&v.to_le_bytes()[..width as usize]);
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

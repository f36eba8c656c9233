//! Machine snapshot / checkpoint-restore (DESIGN.md §4.6).
//!
//! Because the whole commodity-OS state is mediated by the virtual
//! architecture (paper §3), the *entire* machine — physical memory,
//! register frames, metapool registries, interrupt contexts, the
//! recovery-domain stack — is an ordinary serializable object. This
//! module turns a live [`Vm`] into a versioned, checksummed binary image
//! and restores it bit-exactly, so that `snapshot → restore → run` is
//! indistinguishable from an uninterrupted `run` on
//! [`VmStats::equivalence_key`] (and in fact on the full stats block,
//! console bytes and exit).
//!
//! ## Image layout
//!
//! ```text
//! header (40 bytes, sva_ir::codec::frame):
//!   magic       4  b"SVA1"
//!   version     4  u32 LE, SNAPSHOT_VERSION
//!   config_fp   8  FNV-1a over the fingerprint block
//!   code_id     8  FNV-1a over the sealed module bytes
//!   payload_len 8  u64 LE
//!   checksum    8  FNV-1a over the payload
//! payload:
//!   fingerprint block  (one u64 per config field, see below)
//!   memory, thread, icontexts, saved states, dispatch tables,
//!   metapool images, console, stats, fuel/halt/irq/recovery/fault state,
//!   capture origin (checkpoint vs mid-flight), code manifest
//! ```
//!
//! ## Serialized vs rebuilt
//!
//! Everything observable is serialized. Three things are deliberately
//! *rebuilt* on restore instead:
//!
//! * the translated-function cache — deterministic from the module and
//!   config, which the header's `code_id`/`config_fp` pin;
//! * the metapool registries (range indexes, or splay trees on the
//!   baseline) — rebuilt from the sorted live-range lists
//!   ([`sva_rt::PoolImage`]); tree shape is observationally irrelevant
//!   because ranges are disjoint (the round-trip gates in
//!   `tests/snapshot.rs` prove it);
//! * the fault hook — a host-side `Arc<dyn FaultHook>` that cannot be
//!   serialized; the image carries its schedule cursor (`trap_count`),
//!   so reattaching an identical plan resumes the identical schedule.
//!
//! ## Version policy
//!
//! Any change to the payload layout bumps [`SNAPSHOT_VERSION`]; restore
//! hard-rejects other versions ([`SnapshotError::BadVersion`]) rather
//! than guessing. Images are likewise rejected when the restoring
//! machine's config fingerprint or code identity differs — a snapshot is
//! a *state* capture, not a code capture. [`crate::migrate`] also reads
//! v3, which lays out the machine state exactly as v4 does and lacks only
//! the v4 trailer (origin byte and code manifest); both read that state
//! with this module's one parser. Older versions are no longer read.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::RangeInclusive;

use sva_ir::codec::{fnv64, frame, unframe, CodecError, Reader, Writer};
use sva_rt::{CheckStats, PoolImage};
use sva_trace::Tracer;

use crate::mem::{Memory, Mode, Region, KERN_SIZE, PAGE_SIZE, USER_SIZE};
use crate::vm::{
    Frame, IContext, KernelKind, RecoveryCtx, SavedState, Thread, Vm, VmConfig, VmStats,
};

/// Image magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SVA1";
/// Current image format version. Bump on any payload-layout change.
/// v3: `vcpus` joined the config fingerprint and the payload gained the
/// machine's vCPU identity (`cpu_id`) — an image taken on vCPU 2 of a
/// 4-CPU machine restores as vCPU 2 (DESIGN.md §4.9).
/// v4: the payload gained a capture-origin byte (checkpoint vs
/// mid-flight safe point) and a code manifest — the module's surface
/// fingerprint plus per-function body hashes — so [`crate::migrate`]
/// can judge whether a *rebuilt* kernel may adopt the image
/// (DESIGN.md §4.10). v3 images are upcast by `migrate`, never guessed
/// at by [`Vm::restore`].
pub const SNAPSHOT_VERSION: u32 = 4;

/// Capture origin: a deliberate checkpoint ([`Vm::snapshot`]), e.g. at
/// the boot pause point.
pub const ORIGIN_CHECKPOINT: u8 = 0;
/// Capture origin: a latched safe-point capture taken at an instruction
/// boundary while the machine was running ([`Vm::request_snapshot`],
/// [`Vm::snapshot_midflight`], `SmpMachine::quiesce`).
pub const ORIGIN_MIDFLIGHT: u8 = 1;

/// Machine images (`SVA1`, and the `SVAB` and `SVAQ` containers around
/// them) write their length prefixes and counts as `u64`.
pub(crate) type ImageWriter = Writer<8>;
pub(crate) type ImageReader<'a> = Reader<'a, 8>;

/// Why an image could not be restored. Restore never partially applies:
/// on any error the machine is untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The image ends before the advertised content.
    Truncated {
        /// Bytes the parser needed.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// The image was written by a different format version.
    BadVersion {
        /// Version in the image header.
        found: u32,
        /// Version this build restores.
        expected: u32,
    },
    /// One configuration field differs between the image and the machine.
    ConfigMismatch {
        /// Which fingerprint field mismatched.
        field: &'static str,
        /// The image's value (widened to u64).
        image: u64,
        /// The restoring machine's value.
        machine: u64,
    },
    /// The image was taken from a machine running different code.
    CodeMismatch {
        /// Code identity in the image header.
        image: u64,
        /// The restoring machine's code identity.
        machine: u64,
    },
    /// The payload checksum does not match (bit rot / tampering).
    Corrupt {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload parsed but described an impossible machine.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "truncated image: need {need} bytes, have {have}")
            }
            SnapshotError::BadMagic(m) => write!(f, "bad magic {m:02x?} (not an SVA image)"),
            SnapshotError::BadVersion { found, expected } => {
                write!(
                    f,
                    "image format version {found}, this build restores {expected}"
                )
            }
            SnapshotError::ConfigMismatch {
                field,
                image,
                machine,
            } => write!(
                f,
                "config mismatch on {field}: image {image:#x}, machine {machine:#x}"
            ),
            SnapshotError::CodeMismatch { image, machine } => write!(
                f,
                "code identity mismatch: image {image:#x}, machine {machine:#x}"
            ),
            SnapshotError::Corrupt { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            SnapshotError::Malformed(s) => write!(f, "malformed image: {s}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        match e {
            CodecError::Truncated { need, have } => SnapshotError::Truncated { need, have },
            CodecError::BadMagic(m) => SnapshotError::BadMagic(m),
            CodecError::BadVersion { found, newest } => SnapshotError::BadVersion {
                found,
                expected: newest,
            },
            CodecError::Corrupt { stored, computed } => SnapshotError::Corrupt { stored, computed },
            e => SnapshotError::Malformed(e.to_string()),
        }
    }
}

pub(crate) fn kind_code(k: KernelKind) -> u64 {
    match k {
        KernelKind::Native => 0,
        KernelKind::SvaGcc => 1,
        KernelKind::SvaLlvm => 2,
        KernelKind::SvaSafe => 3,
    }
}

/// The config fields a snapshot is only valid under, each widened to u64.
/// Order is part of the format. Word 4 records whether the singleton test
/// runs, which is now `fast_path` itself: an image whose words 3 and 4
/// differ came from an older build under mixed lookup switches and fails
/// as a `singleton_path` mismatch. Word 8 held the hash of a hot-function
/// profile, which no build sets any more: it is always written as 0, and
/// an older image taken under a profile fails as a `hot_profile`
/// mismatch.
pub(crate) const FP_FIELDS: [&str; 10] = [
    "kind",
    "sign_key",
    "opt_level",
    "fast_path",
    "singleton_path",
    "violation_budget",
    "domain_fuel",
    "fused_sites",
    "hot_profile",
    "vcpus",
];

pub(crate) fn fingerprint_words(cfg: &VmConfig, fused_sites: u32) -> [u64; FP_FIELDS.len()] {
    [
        kind_code(cfg.kind),
        cfg.sign_key,
        cfg.opt_level as u64,
        cfg.fast_path as u64,
        cfg.fast_path as u64,
        cfg.violation_budget as u64,
        cfg.domain_fuel,
        fused_sites as u64,
        0,
        cfg.vcpus.max(1) as u64,
    ]
}

/// Frames an `SVA1` payload. The header's two extra words are
/// `config_fp`, the FNV-1a of the payload's leading fingerprint block,
/// and `code_id`.
pub(crate) fn frame_image(version: u32, code_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut extra = ImageWriter::new();
    extra.u64(fnv64(&payload[..8 * FP_FIELDS.len()]));
    extra.u64(code_id);
    frame(SNAPSHOT_MAGIC, version, extra.as_bytes(), payload)
}

/// Checks an `SVA1` header whose version lies in `versions`; returns the
/// version, the code identity and the payload.
pub(crate) fn unframe_image(
    image: &[u8],
    versions: RangeInclusive<u32>,
) -> Result<(u32, u64, &[u8]), CodecError> {
    let f = unframe(image, SNAPSHOT_MAGIC, versions, 16)?;
    let code_id = ImageReader::new(&f.extra[8..]).u64()?;
    Ok((f.version, code_id, f.payload))
}

// ---------------------------------------------------------------------------
// Memory regions.
// ---------------------------------------------------------------------------

/// Writes a zero-dominated region as its length and its nonzero pages:
/// `len u64 | count u64 | (page index u64, page bytes)*`, the pages
/// ascending and listed from the region's written-page set rather than
/// a scan. The 32 MiB kernel region is mostly zeros; post-boot images
/// shrink ~50× under this encoding.
pub(crate) fn write_sparse(w: &mut ImageWriter, region: &Region) {
    w.u64(region.len() as u64);
    w.seq(&region.nonzero_pages(), |w, &i| {
        w.u64(i as u64);
        w.raw(region.page(i));
    });
}

/// Reads a region written by [`write_sparse`] that must be exactly `len`
/// bytes long; any other length is invalid, named by `what`.
pub(crate) fn read_sparse<'a>(
    r: &mut ImageReader<'a>,
    what: &'static str,
    len: u64,
) -> Result<SparseRegion<'a>, CodecError> {
    let found = r.u64()?;
    if found != len {
        return Err(CodecError::Invalid { what, value: found });
    }
    let (total, page) = (len as usize, PAGE_SIZE as usize);
    // Regions are whole pages, so each listed page is an index and a
    // full page.
    let n = r.prefix(8 + page)?;
    if n > total / page {
        return Err(CodecError::Invalid {
            what: "sparse page count",
            value: n as u64,
        });
    }
    let mut pages = Vec::with_capacity(n);
    for _ in 0..n {
        let i = r.u64()?;
        let start = usize::try_from(i)
            .ok()
            .and_then(|i| i.checked_mul(page))
            .filter(|&s| s < total)
            .ok_or(CodecError::Invalid {
                what: "sparse page",
                value: i,
            })?;
        pages.push((start, r.take(page.min(total - start))?));
    }
    Ok(SparseRegion { total, pages })
}

/// Reads the memory section: the kernel region, then every address
/// space behind its liveness tag. The required lengths are the region
/// rule: [`KERN_SIZE`] for the kernel, [`USER_SIZE`] for a live space and
/// 0 for a freed one, whose bytes `Memory::free_space` dropped.
fn read_memory<'a>(r: &mut ImageReader<'a>) -> Result<MemoryImage<'a>, CodecError> {
    Ok(MemoryImage {
        kernel: read_sparse(r, "kernel region length", KERN_SIZE)?,
        spaces: r.vec(17, |r| {
            let live = r.bool()?;
            let len = if live { USER_SIZE } else { 0 };
            Ok((live, read_sparse(r, "address space length", len)?))
        })?,
    })
}

/// The decoded memory section, borrowed from the image.
struct MemoryImage<'a> {
    kernel: SparseRegion<'a>,
    spaces: Vec<(bool, SparseRegion<'a>)>,
}

/// A decoded sparse region: nonzero pages borrowed straight from the
/// image. Restore never materializes the big (32 MiB, zero-dominated)
/// kernel region as a dense temporary — snapshot-forked campaigns
/// restore hundreds of times per run, and a dense copy per fork would
/// cost more than the re-boot the fork replaces.
pub(crate) struct SparseRegion<'a> {
    total: usize,
    /// `(byte offset, page bytes)`, offsets validated `< total`.
    pages: Vec<(usize, &'a [u8])>,
}

impl SparseRegion<'_> {
    /// The region these pages describe (see [`Region::from_pages`]).
    fn region(&self) -> Region {
        Region::from_pages(self.total, self.pages.iter().copied())
    }
}

// ---------------------------------------------------------------------------
// Section codecs. Minimum encoded sizes (the `count` rule's
// `min_elem_bytes`) are given per element kind.
// ---------------------------------------------------------------------------

/// Five `u32`s, three prefixes, a tag and a mode byte.
pub(crate) const FRAME_MIN: usize = 5 * 4 + 3 * 8 + 2;
/// The frame-stack prefix, `usp`, `asid`, `result_frame` and four tags.
const ICONTEXT_MIN: usize = 8 + 8 + 4 + 8 + 4;
/// The frame-stack prefix, `asid`, `ksp`, the `kstack` prefix and two tags.
const SAVED_STATE_MIN: usize = 8 + 4 + 8 + 8 + 2;
/// Frames, `asid`, `ksp`, `usp`, `kstack`, `subsys`, `fuel`, the pool
/// list and two tags.
const RECOVERY_MIN: usize = 8 + 4 + 5 * 8 + 8 + 2;
/// A pool name prefix, range count and stats block.
const POOL_IMAGE_MIN: usize = 8 + 8 + 8 * CheckStats::WORDS;

fn mode_code(m: Mode) -> u8 {
    match m {
        Mode::Kernel => 0,
        Mode::User => 1,
    }
}

fn mode_from(c: u8) -> Result<Mode, CodecError> {
    match c {
        0 => Ok(Mode::Kernel),
        1 => Ok(Mode::User),
        v => Err(CodecError::Invalid {
            what: "mode",
            value: v as u64,
        }),
    }
}

pub(crate) fn write_frame(w: &mut ImageWriter, fr: &Frame) {
    w.u32(fr.func);
    w.u32(fr.pc);
    w.u32(fr.block);
    w.u32(fr.idx);
    w.u32(fr.prev_block);
    w.seq(&fr.regs, |w, &r| w.u64(r));
    w.opt(fr.ret_dst, ImageWriter::u32);
    w.u8(mode_code(fr.mode));
    w.u64(fr.sp_saved);
    w.seq(&fr.stack_regs, |w, &(mp, addr, len)| {
        w.u32(mp);
        w.u64(addr);
        w.u64(len);
    });
}

pub(crate) fn read_frame(r: &mut ImageReader<'_>) -> Result<Frame, CodecError> {
    Ok(Frame {
        func: r.u32()?,
        pc: r.u32()?,
        block: r.u32()?,
        idx: r.u32()?,
        prev_block: r.u32()?,
        regs: r.vec(8, |r| r.u64())?,
        ret_dst: r.opt(|r| r.u32())?,
        mode: mode_from(r.u8()?)?,
        sp_saved: r.u64()?,
        stack_regs: r.vec(20, |r| Ok((r.u32()?, r.u64()?, r.u64()?)))?,
    })
}

pub(crate) fn write_frames(w: &mut ImageWriter, frames: &[Frame]) {
    w.seq(frames, write_frame);
}

fn read_frames(r: &mut ImageReader<'_>) -> Result<Vec<Frame>, CodecError> {
    r.vec(FRAME_MIN, read_frame)
}

pub(crate) fn write_icontext(w: &mut ImageWriter, ic: &IContext) {
    write_frames(w, &ic.frames);
    w.u64(ic.usp);
    w.u32(ic.asid);
    w.bool(ic.privileged);
    w.opt(ic.result_dst, ImageWriter::u32);
    w.u64(ic.result_frame as u64);
    w.bool(ic.live);
    w.opt(ic.trace_sys, |w, (nr, at)| {
        w.i64(nr);
        w.u64(at);
    });
}

fn read_icontext(r: &mut ImageReader<'_>) -> Result<IContext, CodecError> {
    Ok(IContext {
        frames: read_frames(r)?,
        usp: r.u64()?,
        asid: r.u32()?,
        privileged: r.bool()?,
        result_dst: r.opt(|r| r.u32())?,
        result_frame: r.u64()? as usize,
        live: r.bool()?,
        trace_sys: r.opt(|r| Ok((r.i64()?, r.u64()?)))?,
    })
}

pub(crate) fn write_saved_state(w: &mut ImageWriter, s: &SavedState) {
    write_frames(w, &s.frames);
    w.opt(s.icid, ImageWriter::u32);
    w.u32(s.asid);
    w.u64(s.ksp);
    w.bytes(&s.kstack);
    w.opt(s.save_dst, ImageWriter::u32);
}

fn read_saved_state(r: &mut ImageReader<'_>) -> Result<SavedState, CodecError> {
    Ok(SavedState {
        frames: read_frames(r)?,
        icid: r.opt(|r| r.u32())?,
        asid: r.u32()?,
        ksp: r.u64()?,
        kstack: r.bytes()?.to_vec(),
        save_dst: r.opt(|r| r.u32())?,
    })
}

pub(crate) fn write_recovery(w: &mut ImageWriter, rc: &RecoveryCtx) {
    write_frames(w, &rc.frames);
    w.opt(rc.icid, ImageWriter::u32);
    w.u32(rc.asid);
    w.u64(rc.ksp);
    w.u64(rc.usp);
    w.bytes(&rc.kstack);
    w.opt(rc.dst, ImageWriter::u32);
    w.u64(rc.subsys);
    w.u64(rc.fuel);
    w.seq(&rc.quarantined_pools, |w, &p| w.u32(p));
}

fn read_recovery(r: &mut ImageReader<'_>) -> Result<RecoveryCtx, CodecError> {
    Ok(RecoveryCtx {
        frames: read_frames(r)?,
        icid: r.opt(|r| r.u32())?,
        asid: r.u32()?,
        ksp: r.u64()?,
        usp: r.u64()?,
        kstack: r.bytes()?.to_vec(),
        dst: r.opt(|r| r.u32())?,
        subsys: r.u64()?,
        fuel: r.u64()?,
        quarantined_pools: r.vec(4, |r| r.u32())?,
    })
}

/// A pool image. The lookup switch is written twice, its second byte the
/// old singleton switch (which is `fast_path` now), and the old
/// read-mostly counter is a reserved u32, written as 0 and ignored on
/// read.
fn write_pool_image(w: &mut ImageWriter, img: &PoolImage) {
    w.str(&img.name);
    w.seq(&img.ranges, |w, &(s, e)| {
        w.u64(s);
        w.u64(e);
    });
    for &word in &img.stats {
        w.u64(word);
    }
    w.bool(img.fast_path);
    w.bool(img.fast_path);
    for slot in img.mru {
        w.opt(slot, |w, (s, e)| {
            w.u64(s);
            w.u64(e);
        });
    }
    w.u32(0);
    w.u8(img.last_layer);
    w.bool(img.quarantined);
    w.bool(img.poisoned);
    w.u32(img.violations);
    w.u32(img.scope_violations);
    w.u32(img.forced_reg_failures);
    w.u64(img.poisoned_by);
    w.u32(img.repairs);
}

fn read_pool_image(r: &mut ImageReader<'_>) -> Result<PoolImage, CodecError> {
    let name = r.str()?.to_owned();
    let ranges = r.vec(16, |r| Ok((r.u64()?, r.u64()?)))?;
    let stats = r.u64s()?;
    let fast_path = r.bool()?;
    // The singleton switch is `fast_path` now; a different byte is an
    // image from an older build under mixed switches.
    if r.bool()? != fast_path {
        return Err(CodecError::Invalid {
            what: "pool singleton switch",
            value: u64::from(!fast_path),
        });
    }
    let mut mru = [None; 2];
    for slot in &mut mru {
        *slot = r.opt(|r| Ok((r.u64()?, r.u64()?)))?;
    }
    r.u32()?; // reserved
    Ok(PoolImage {
        name,
        ranges,
        stats,
        fast_path,
        mru,
        last_layer: r.u8()?,
        quarantined: r.bool()?,
        poisoned: r.bool()?,
        violations: r.u32()?,
        scope_violations: r.u32()?,
        forced_reg_failures: r.u32()?,
        poisoned_by: r.u64()?,
        repairs: r.u32()?,
    })
}

/// Reads a map written by [`write_sorted`], `entry` reading one entry of
/// at least `min_entry_bytes` bytes.
fn read_map<K: Eq + Hash, V>(
    r: &mut ImageReader<'_>,
    min_entry_bytes: usize,
    mut entry: impl FnMut(&mut ImageReader<'_>) -> Result<(K, V), CodecError>,
) -> Result<HashMap<K, V>, CodecError> {
    let n = r.prefix(min_entry_bytes)?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let (k, v) = entry(r)?;
        map.insert(k, v);
    }
    Ok(map)
}

/// Writes `map` as a count and its entries in ascending key order, so
/// equal machines write equal images.
fn write_sorted<K: Copy + Ord + Hash, V>(
    w: &mut ImageWriter,
    map: &HashMap<K, V>,
    mut entry: impl FnMut(&mut ImageWriter, K, &V),
) {
    let mut keys: Vec<K> = map.keys().copied().collect();
    keys.sort_unstable();
    w.seq(&keys, |w, k| entry(w, *k, &map[k]));
}

// ---------------------------------------------------------------------------
// Code manifest (v4).
// ---------------------------------------------------------------------------

/// One function's identity in a [`CodeManifest`]: its name, a signature
/// fingerprint (linkage + full function type) and a hash of its printed
/// body. Order in the manifest is module order, which is also dispatch /
/// frame-index order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ManifestFunc {
    pub name: String,
    pub sig_fp: u64,
    pub body_hash: u64,
}

/// The code identity a v4 image carries alongside the opaque `code_id`
/// hash: enough structure for [`crate::migrate`] to decide whether a
/// *different* build may adopt the image (same surface ⇒ same function
/// indices, global addresses and dispatch-table meanings) and which
/// function bodies changed (a function with a live frame must be
/// byte-compatible; a cold one may differ — that is the live-patch case).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) struct CodeManifest {
    /// FNV over `globals_fp` + each function's `(name, sig_fp)`.
    pub surface_fp: u64,
    /// FNV over the printed module header (structs, globals, externs,
    /// allocators, entry) — everything memory layout is derived from.
    pub globals_fp: u64,
    /// Per function, in module order.
    pub funcs: Vec<ManifestFunc>,
}

/// Computes the manifest for a module. Deterministic: built on the IR
/// printer, whose output is a pure function of the module.
pub(crate) fn compute_manifest(m: &sva_ir::Module) -> CodeManifest {
    let globals_fp = fnv64(sva_ir::print::print_module_header(m).as_bytes());
    let funcs: Vec<ManifestFunc> = m
        .funcs
        .iter()
        .map(|f| {
            let linkage = match f.linkage {
                sva_ir::Linkage::Public => "public",
                sva_ir::Linkage::Internal => "internal",
            };
            let sig = format!("{} {}", linkage, m.types.display(f.ty));
            ManifestFunc {
                name: f.name.clone(),
                sig_fp: fnv64(sig.as_bytes()),
                body_hash: fnv64(sva_ir::print::print_function_text(m, f).as_bytes()),
            }
        })
        .collect();
    CodeManifest {
        surface_fp: surface_fp_of(globals_fp, &funcs),
        globals_fp,
        funcs,
    }
}

/// The surface fingerprint over a header hash and a function list —
/// shared by [`compute_manifest`] and the migration prefix check.
pub(crate) fn surface_fp_of(globals_fp: u64, funcs: &[ManifestFunc]) -> u64 {
    let mut bytes = globals_fp.to_le_bytes().to_vec();
    for f in funcs {
        bytes.extend_from_slice(f.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&f.sig_fp.to_le_bytes());
    }
    fnv64(&bytes)
}

pub(crate) fn write_manifest(w: &mut ImageWriter, m: &CodeManifest) {
    w.u64(m.surface_fp);
    w.u64(m.globals_fp);
    w.seq(&m.funcs, |w, f| {
        w.str(&f.name);
        w.u64(f.sig_fp);
        w.u64(f.body_hash);
    });
}

pub(crate) fn read_manifest(r: &mut ImageReader<'_>) -> Result<CodeManifest, CodecError> {
    Ok(CodeManifest {
        surface_fp: r.u64()?,
        globals_fp: r.u64()?,
        funcs: r.vec(24, |r| {
            Ok(ManifestFunc {
                name: r.str()?.to_owned(),
                sig_fp: r.u64()?,
                body_hash: r.u64()?,
            })
        })?,
    })
}

pub(crate) fn read_origin(r: &mut ImageReader<'_>) -> Result<u8, CodecError> {
    match r.u8()? {
        o @ (ORIGIN_CHECKPOINT | ORIGIN_MIDFLIGHT) => Ok(o),
        v => Err(CodecError::Invalid {
            what: "origin",
            value: v as u64,
        }),
    }
}

/// The machine state a payload decodes to, parsed in full before any of
/// it is committed to the machine (restore is atomic: error ⇒
/// untouched). Memory regions stay borrowed from the image until commit.
pub(crate) struct Parsed<'a> {
    memory: MemoryImage<'a>,
    current_asid: u32,
    thread: Thread,
    icontexts: Vec<IContext>,
    int_state: HashMap<u64, SavedState>,
    user_state: HashMap<u64, IContext>,
    syscalls: HashMap<i64, u32>,
    interrupts: HashMap<i64, u32>,
    pool_images: Vec<PoolImage>,
    func_stats: [u64; CheckStats::WORDS],
    console: Vec<u8>,
    stats: VmStats,
    fuel: u64,
    halted: Option<u64>,
    pending_irq: Vec<i64>,
    recovery: Vec<RecoveryCtx>,
    gep_skew: Option<(u32, i64)>,
    pending_probe: Option<(u64, u32, u64)>,
    pending_skew: Option<(u64, u32, i64)>,
    call_floor: usize,
    trap_count: u64,
    cpu_id: u32,
}

impl Parsed<'_> {
    /// Every frame the state holds: the thread's, the interrupt
    /// contexts', the saved states' and the recovery stack's.
    pub(crate) fn frames(&self) -> impl Iterator<Item = &Frame> {
        self.thread
            .frames
            .iter()
            .chain(self.icontexts.iter().flat_map(|ic| &ic.frames))
            .chain(self.int_state.values().flat_map(|s| &s.frames))
            .chain(self.user_state.values().flat_map(|ic| &ic.frames))
            .chain(self.recovery.iter().flat_map(|rc| &rc.frames))
    }
}

/// Parses the machine state: the payload after the fingerprint block,
/// through `cpu_id`. v3 and v4 lay it out identically; what follows it
/// (v4's origin byte and code manifest) is the caller's to read.
pub(crate) fn parse_payload<'a>(r: &mut ImageReader<'a>) -> Result<Parsed<'a>, CodecError> {
    let table = |r: &mut ImageReader<'_>| read_map(r, 12, |r| Ok((r.i64()?, r.u32()?)));
    let memory = read_memory(r)?;
    let current_asid = r.u32()?;
    let thread = Thread {
        frames: read_frames(r)?,
        asid: r.u32()?,
        icid: r.opt(|r| r.u32())?,
        ksp: r.u64()?,
        usp: r.u64()?,
        fp_dirty: r.bool()?,
    };
    let icontexts = r.vec(ICONTEXT_MIN, read_icontext)?;
    let int_state = read_map(r, 8 + SAVED_STATE_MIN, |r| {
        Ok((r.u64()?, read_saved_state(r)?))
    })?;
    let user_state = read_map(r, 8 + ICONTEXT_MIN, |r| Ok((r.u64()?, read_icontext(r)?)))?;
    let syscalls = table(r)?;
    let interrupts = table(r)?;
    let pool_images = r.vec(POOL_IMAGE_MIN, read_pool_image)?;
    let func_stats = r.u64s()?;
    let console = r.bytes()?.to_vec();
    let stats = VmStats::from_words(r.u64s()?);
    Ok(Parsed {
        memory,
        current_asid,
        thread,
        icontexts,
        int_state,
        user_state,
        syscalls,
        interrupts,
        pool_images,
        func_stats,
        console,
        stats,
        fuel: r.u64()?,
        halted: r.opt(|r| r.u64())?,
        pending_irq: r.vec(8, |r| r.i64())?,
        recovery: r.vec(RECOVERY_MIN, read_recovery)?,
        gep_skew: r.opt(|r| Ok((r.u32()?, r.i64()?)))?,
        pending_probe: r.opt(|r| Ok((r.u64()?, r.u32()?, r.u64()?)))?,
        pending_skew: r.opt(|r| Ok((r.u64()?, r.u32()?, r.i64()?)))?,
        call_floor: r.u64()? as usize,
        trap_count: r.u64()?,
        cpu_id: r.u32()?,
    })
}

impl<T: Tracer> Vm<T> {
    /// FNV identity of the machine's code (see
    /// [`crate::vm::CodeImage::code_identity`]).
    pub(crate) fn code_identity(&self) -> u64 {
        self.code.code_identity()
    }

    /// Serializes the complete machine state into a versioned,
    /// checksummed binary image. See the module docs for the layout and
    /// the serialized-vs-rebuilt split. The attached fault hook (if any)
    /// is *not* captured — only its schedule cursor is; reattach an
    /// identical plan after [`Vm::restore`] to resume the schedule.
    pub fn snapshot(&self) -> Vec<u8> {
        self.snapshot_with_origin(ORIGIN_CHECKPOINT)
    }

    /// [`Vm::snapshot`] tagged [`ORIGIN_MIDFLIGHT`]: the image a latched
    /// safe-point capture produces. Taking one by hand at a chosen
    /// instruction boundary (e.g. after [`Vm::run_steps`]) yields bytes
    /// identical to arming [`Vm::request_snapshot_at`] with the same
    /// boundary — the byte-identity gates in `tests/smp.rs` rely on it.
    pub fn snapshot_midflight(&self) -> Vec<u8> {
        self.snapshot_with_origin(ORIGIN_MIDFLIGHT)
    }

    pub(crate) fn snapshot_with_origin(&self, origin: u8) -> Vec<u8> {
        let mut w = ImageWriter::new();
        // Fingerprint block: one word per config field so restore can
        // name the exact mismatching field.
        for word in fingerprint_words(&self.cfg, self.fused_sites()) {
            w.u64(word);
        }
        // Memory. A freed space is written as an empty region.
        write_sparse(&mut w, &self.mem.kernel);
        w.seq(&self.mem.spaces, |w, s| {
            w.bool(s.is_some());
            write_sparse(w, s.as_ref().unwrap_or(&Region::new(0)));
        });
        w.u32(self.mem.current_asid);
        // Thread.
        write_frames(&mut w, &self.thread.frames);
        w.u32(self.thread.asid);
        w.opt(self.thread.icid, ImageWriter::u32);
        w.u64(self.thread.ksp);
        w.u64(self.thread.usp);
        w.bool(self.thread.fp_dirty);
        // Interrupt contexts and saved processor state.
        w.seq(&self.icontexts, write_icontext);
        write_sorted(&mut w, &self.int_state, |w, k, s| {
            w.u64(k);
            write_saved_state(w, s);
        });
        write_sorted(&mut w, &self.user_state, |w, k, ic| {
            w.u64(k);
            write_icontext(w, ic);
        });
        // Dispatch tables.
        for table in [&self.syscalls, &self.interrupts] {
            write_sorted(&mut w, table, |w, k, &f| {
                w.i64(k);
                w.u32(f);
            });
        }
        // Metapools.
        let (pool_images, func_stats) = self.pools.export_images();
        w.seq(&pool_images, write_pool_image);
        for word in func_stats {
            w.u64(word);
        }
        // Console and counters.
        w.bytes(&self.console);
        for word in self.stats.to_words() {
            w.u64(word);
        }
        // Run-control and fault-injection state.
        w.u64(self.fuel);
        w.opt(self.halted, ImageWriter::u64);
        w.prefix(self.pending_irq.len());
        for &v in &self.pending_irq {
            w.i64(v);
        }
        w.seq(&self.recovery, write_recovery);
        w.opt(self.gep_skew, |w, (count, delta)| {
            w.u32(count);
            w.i64(delta);
        });
        w.opt(self.pending_probe, |w, (cnt, pool, addr)| {
            w.u64(cnt);
            w.u32(pool);
            w.u64(addr);
        });
        w.opt(self.pending_skew, |w, (cnt, count, delta)| {
            w.u64(cnt);
            w.u32(count);
            w.i64(delta);
        });
        w.u64(self.call_floor as u64);
        w.u64(self.trap_count);
        w.u32(self.cpu_id);
        // v4: capture origin and the code manifest. Neither is machine
        // *state* — restore ignores them — but migration reads both:
        // the manifest to judge cross-build compatibility, the origin so
        // tooling can tell a boot-pause checkpoint from a mid-flight cut.
        w.u8(origin);
        write_manifest(&mut w, self.code.manifest());
        frame_image(SNAPSHOT_VERSION, self.code_identity(), w.as_bytes())
    }

    /// Replaces this machine's state with the image's. The machine must
    /// have been constructed from the same module under the same
    /// configuration (header `code_id`/`config_fp`; mismatches are
    /// rejected field-by-field with [`SnapshotError::ConfigMismatch`]).
    /// On any error the machine is untouched — the payload is parsed in
    /// full before the first field is committed.
    pub fn restore(&mut self, image: &[u8]) -> Result<(), SnapshotError> {
        let (_, code_id, payload) = unframe_image(image, SNAPSHOT_VERSION..=SNAPSHOT_VERSION)?;
        let mut r = ImageReader::new(payload);
        // Fingerprint block first: field-level mismatch beats the opaque
        // header-hash comparison in every error message.
        let machine_fp = fingerprint_words(&self.cfg, self.fused_sites());
        let image_fp: [u64; FP_FIELDS.len()] = r.u64s()?;
        for (i, field) in FP_FIELDS.iter().enumerate() {
            if image_fp[i] != machine_fp[i] {
                return Err(SnapshotError::ConfigMismatch {
                    field,
                    image: image_fp[i],
                    machine: machine_fp[i],
                });
            }
        }
        let machine_code = self.code_identity();
        if code_id != machine_code {
            return Err(SnapshotError::CodeMismatch {
                image: code_id,
                machine: machine_code,
            });
        }
        let parsed = parse_payload(&mut r)?;
        // Origin and manifest are advisory (see `snapshot_with_origin`); decode
        // them for structural validity, then drop them.
        read_origin(&mut r)?;
        read_manifest(&mut r)?;
        r.finish()?;
        self.commit(parsed)
    }

    fn commit(&mut self, p: Parsed<'_>) -> Result<(), SnapshotError> {
        let spaces = p.memory.spaces;
        if !spaces
            .get(p.current_asid as usize)
            .is_some_and(|(live, _)| *live)
        {
            return Err(SnapshotError::Malformed(format!(
                "current asid {} names no live space of {}",
                p.current_asid,
                spaces.len()
            )));
        }
        // Metapool restore validates range lists and pool names; it runs
        // before any other field is committed so a malformed pool section
        // still leaves the machine consistent... except the pools it
        // already rebuilt. Validate dry-run first on a clone instead.
        let mut pools = self.pools.clone();
        pools
            .restore_images(&p.pool_images, p.func_stats)
            .map_err(SnapshotError::Malformed)?;
        self.pools = pools;
        self.mem = Memory {
            kernel: p.memory.kernel.region(),
            spaces: spaces
                .iter()
                .map(|(live, space)| live.then(|| space.region()))
                .collect(),
            current_asid: p.current_asid,
        };
        self.thread = p.thread;
        self.icontexts = p.icontexts;
        self.int_state = p.int_state;
        self.user_state = p.user_state;
        self.syscalls = p.syscalls;
        self.interrupts = p.interrupts;
        self.console = p.console;
        self.stats = p.stats;
        self.fuel = p.fuel;
        self.halted = p.halted;
        self.pending_irq = p.pending_irq.into_iter().collect();
        self.recovery = p.recovery;
        self.gep_skew = p.gep_skew;
        self.pending_probe = p.pending_probe;
        self.pending_skew = p.pending_skew;
        self.call_floor = p.call_floor;
        self.trap_count = p.trap_count;
        self.cpu_id = p.cpu_id;
        self.argv_scratch.clear();
        if T::ENABLED {
            let cycles = self.stats.cycles;
            self.tracer.on_restore(cycles);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{VmError, VmExit};
    use sva_ir::parse::parse_module;

    const PROG: &str = r#"
module "m"
func public @work(%n: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, body: %i2]
  %acc:i64 = phi i64 [entry: %n, body: %acc2]
  %done:i1 = icmp uge %i, 40:i64
  condbr %done, out, body
body:
  %acc2:i64 = add %acc, 3:i64
  %i2:i64 = add %i, 1:i64
  br loop
out:
  ret %acc
}
"#;

    fn cfg() -> VmConfig {
        VmConfig {
            kind: KernelKind::SvaLlvm,
            ..Default::default()
        }
    }

    fn mk(c: VmConfig) -> Vm {
        Vm::new(parse_module(PROG).unwrap(), c).unwrap()
    }

    #[test]
    fn round_trip_mid_call_finishes_identically() {
        // Uninterrupted run.
        let mut base = mk(cfg());
        let exit = base.call("work", &[7]).unwrap();
        let base_stats = base.stats();

        // The same call interrupted mid-flight by a narrow fuel tank,
        // snapshotted at the boundary, restored into a *fresh* machine,
        // refuelled and run to completion.
        let mut vm = mk(VmConfig { fuel: 25, ..cfg() });
        assert!(matches!(vm.call("work", &[7]), Err(VmError::OutOfFuel)));
        let img = vm.snapshot();
        let mut fresh = mk(VmConfig { fuel: 25, ..cfg() });
        fresh.restore(&img).unwrap();
        assert_eq!(fresh.fuel(), 0);
        fresh.set_fuel(u64::MAX);
        let r = fresh.run().unwrap();
        assert_eq!(r, exit);
        assert_eq!(fresh.stats(), base_stats);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = mk(cfg()).snapshot();
        let b = mk(cfg()).snapshot();
        assert_eq!(a, b);
    }

    #[test]
    fn header_rejections() {
        let img = mk(cfg()).snapshot();

        let mut fresh = mk(cfg());
        // Bad magic.
        let mut bad = img.clone();
        bad[0] ^= 0x40;
        assert!(matches!(
            fresh.restore(&bad),
            Err(SnapshotError::BadMagic(_))
        ));
        // Future version.
        let mut bad = img.clone();
        bad[4] = bad[4].wrapping_add(1);
        assert!(matches!(
            fresh.restore(&bad),
            Err(SnapshotError::BadVersion { .. })
        ));
        // Flipped payload bit.
        let mut bad = img.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            fresh.restore(&bad),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Truncated body.
        assert!(matches!(
            fresh.restore(&img[..img.len() - 9]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            fresh.restore(&img[..16]),
            Err(SnapshotError::Truncated { .. })
        ));
        // The machine still runs after every rejected restore.
        assert_eq!(fresh.call("work", &[0]).unwrap(), VmExit::Returned(120));
    }

    #[test]
    fn config_mismatch_names_the_field() {
        let img = mk(cfg()).snapshot();
        let mut other = mk(VmConfig {
            violation_budget: 7,
            ..cfg()
        });
        match other.restore(&img) {
            Err(SnapshotError::ConfigMismatch { field, .. }) => {
                assert_eq!(field, "violation_budget")
            }
            r => panic!("expected ConfigMismatch, got {r:?}"),
        }
        let mut other = mk(VmConfig {
            opt_level: 2,
            ..cfg()
        });
        assert!(matches!(
            other.restore(&img),
            Err(SnapshotError::ConfigMismatch {
                field: "opt_level",
                ..
            })
        ));
    }

    #[test]
    fn restore_rejected_in_commit_leaves_kernel_memory_untouched() {
        use crate::mem::KERN_BASE;
        // A target with written kernel pages, one written back to zero.
        let mut target = mk(cfg());
        for (page, v) in [(2, 0x77), (9, 0), (40, u64::MAX)] {
            target
                .mem
                .write_uint(KERN_BASE + page * PAGE_SIZE, 8, v, Mode::Kernel)
                .unwrap();
        }
        let before = target.mem.clone();
        assert_eq!(target.mem.kernel.written_pages(), [2, 9, 40]);
        // Images that parse in full but fail a check in `commit`, each
        // from a source whose kernel pages differ from the target's.
        let source = || {
            let mut vm = mk(cfg());
            vm.mem
                .write_uint(KERN_BASE + 5 * PAGE_SIZE, 8, 0x55, Mode::Kernel)
                .unwrap();
            vm
        };
        let mut bad_asid = source();
        bad_asid.mem.current_asid = 3;
        let mut extra_pool = source();
        extra_pool
            .pools
            .add_pool(sva_rt::MetaPool::new("extra", false, false, None));
        for img in [bad_asid.snapshot(), extra_pool.snapshot()] {
            assert!(matches!(
                target.restore(&img),
                Err(SnapshotError::Malformed(_))
            ));
            // Every region's bytes and written-page set are unchanged.
            assert!(target.mem == before);
        }
    }

    /// Re-frames `valid` with `edit` applied to its payload, so the
    /// forged image passes every checksum.
    fn reframed(valid: &[u8], edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let (_, code_id, payload) =
            unframe_image(valid, SNAPSHOT_VERSION..=SNAPSHOT_VERSION).unwrap();
        frame_image(SNAPSHOT_VERSION, code_id, &edit(payload))
    }

    #[test]
    fn restore_rejects_an_mru_line_that_is_not_a_live_range() {
        use crate::migrate::MigrateError;
        use sva_rt::{MetaPool, MetaPoolId};
        // A machine with one complete pool holding two live objects.
        let id = MetaPoolId(0);
        let with_pool = || {
            let mut vm = mk(cfg());
            vm.pools.add_pool(MetaPool::new("MPf", false, true, None));
            vm.pools.pool_mut(id).reg_obj(0x1000, 0x40).unwrap();
            vm.pools.pool_mut(id).reg_obj(0x2000, 0x40).unwrap();
            vm
        };
        let source = with_pool();
        let valid = source.snapshot();
        // The same image, its pool carrying an MRU line for an object
        // that was never registered.
        let img = source.pools.pool(id).export_image();
        let forged_img = PoolImage {
            mru: [Some((0x5000, 0x6000)), None],
            ..img.clone()
        };
        let encode = |img: &PoolImage| {
            let mut w = ImageWriter::new();
            write_pool_image(&mut w, img);
            w.into_bytes()
        };
        let forged = reframed(&valid, |payload| {
            let old = encode(&img);
            let at = payload
                .windows(old.len())
                .position(|w| w == old)
                .expect("pool image in payload");
            let mut w = ImageWriter::new();
            w.raw(&payload[..at]);
            w.raw(&encode(&forged_img));
            w.raw(&payload[at + old.len()..]);
            w.into_bytes()
        });

        let mut target = with_pool();
        assert!(matches!(
            target.restore(&forged),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            target.restore_migrated(&forged),
            Err(MigrateError::Image(SnapshotError::Malformed(_)))
        ));
        // The machine runs exactly as an untouched one does, and the
        // forged object stays unknown to its checks.
        let mut untouched = with_pool();
        for vm in [&mut target, &mut untouched] {
            let pool = vm.pools.pool_mut(id);
            assert!(pool.ls_check(0x5010).is_err());
            assert_eq!(pool.get_bounds(0x5010), None);
        }
        assert_eq!(
            target.call("work", &[7]).unwrap(),
            untouched.call("work", &[7]).unwrap()
        );
        assert_eq!(target.stats(), untouched.stats());
        assert_eq!(target.pools.total_stats(), untouched.pools.total_stats());
        assert_eq!(target.pools.pool(id).live_ranges(), img.ranges);
        target.restore(&valid).unwrap();
    }

    #[test]
    fn images_under_mixed_lookup_switches_fail_closed() {
        use crate::migrate::MigrateError;
        let valid = mk(cfg()).snapshot();
        let mut target = mk(cfg());
        // Fingerprint word 4 (the singleton test) off under word 3 (the
        // fast path) on: what an older build wrote for mixed switches.
        // Word 8 nonzero: an older build's image taken under a
        // hot-function profile.
        for (word, value, field, machine) in
            [(4, 0, "singleton_path", 1), (8, 0xfeed, "hot_profile", 0)]
        {
            let forged = reframed(&valid, |payload| {
                let mut w = ImageWriter::new();
                w.raw(&payload[..8 * word]);
                w.u64(value);
                w.raw(&payload[8 * (word + 1)..]);
                w.into_bytes()
            });
            let want = SnapshotError::ConfigMismatch {
                field,
                image: value,
                machine,
            };
            assert_eq!(target.restore(&forged), Err(want.clone()));
            assert!(matches!(
                target.restore_migrated(&forged),
                Err(MigrateError::Image(e)) if e == want
            ));
        }
        // A pool image whose two switch bytes differ is refused too.
        let img = sva_rt::MetaPool::new("MPf", false, true, None).export_image();
        let mut w = ImageWriter::new();
        write_pool_image(&mut w, &img);
        let mut bytes = w.into_bytes();
        let mut head = ImageWriter::new();
        head.str(&img.name);
        head.u64(0); // no ranges
        for &word in &img.stats {
            head.u64(word);
        }
        let at = head.as_bytes().len();
        assert_eq!(&bytes[at..at + 2], [1, 1]);
        bytes[at + 1] = 0;
        assert!(matches!(
            read_pool_image(&mut ImageReader::new(&bytes)),
            Err(CodecError::Invalid { .. })
        ));
        target.restore(&valid).unwrap();
    }

    /// `@peek` loads the word at a guest address.
    const PEEK: &str = r#"
module "m"
func public @peek(%a: i64) : i64 {
entry:
  %p:i64* = cast inttoptr %a to i64*
  %v:i64 = load %p
  ret %v
}
"#;

    #[test]
    fn restore_rejects_regions_of_the_wrong_size() {
        use crate::mem::{KERN_SIZE, USER_BASE};
        let peek = || Vm::new(parse_module(PEEK).unwrap(), cfg()).unwrap();
        // A checksummed image of a machine whose user space is 4 KiB.
        let mut small = peek();
        small.mem.spaces = vec![Some(Region::new(4096))];
        let short_space = small.snapshot();
        // A valid image whose kernel region claims half its size.
        let valid = peek().snapshot();
        let (_, code_id, payload) =
            unframe_image(&valid, SNAPSHOT_VERSION..=SNAPSHOT_VERSION).unwrap();
        let fp_len = 8 * FP_FIELDS.len();
        let mut w = ImageWriter::new();
        w.raw(&payload[..fp_len]);
        w.u64(KERN_SIZE / 2);
        w.raw(&payload[fp_len + 8..]);
        let short_kernel = frame_image(SNAPSHOT_VERSION, code_id, w.as_bytes());

        let mut target = peek();
        for img in [&short_space, &short_kernel] {
            assert!(matches!(
                target.restore(img),
                Err(SnapshotError::Malformed(_))
            ));
            assert!(target.restore_migrated(img).is_err());
        }
        // The machine runs exactly as an untouched one does, including a
        // load past the end of the rejected 4 KiB space.
        let mut untouched = peek();
        let addr = USER_BASE + 0x8000;
        assert_eq!(
            target.call("peek", &[addr]).unwrap(),
            untouched.call("peek", &[addr]).unwrap()
        );
        assert_eq!(target.stats(), untouched.stats());

        // A freed space keeps no bytes, and 0 is its required length.
        let mut freed = peek();
        let asid = freed.mem.new_space();
        freed.mem.free_space(asid).unwrap();
        peek().restore(&freed.snapshot()).unwrap();
    }

    #[test]
    fn restore_refuses_a_current_space_that_was_freed() {
        use crate::mem::USER_BASE;
        use crate::migrate::MigrateError;
        let peek = || Vm::new(parse_module(PEEK).unwrap(), cfg()).unwrap();
        // A machine whose current asid names the space it freed: the
        // guest cannot reach this state, a forged image can.
        let mut source = peek();
        let asid = source.mem.new_space();
        source.mem.free_space(asid).unwrap();
        source.mem.current_asid = asid;
        let img = source.snapshot();

        let mut target = peek();
        assert!(matches!(
            target.restore(&img),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            target.restore_migrated(&img),
            Err(MigrateError::Image(SnapshotError::Malformed(_)))
        ));
        // The machine runs exactly as an untouched one does, including a
        // load from the current address space.
        let mut untouched = peek();
        assert!(target.mem == untouched.mem);
        assert_eq!(
            target.call("peek", &[USER_BASE]).unwrap(),
            untouched.call("peek", &[USER_BASE]).unwrap()
        );
        assert_eq!(target.stats(), untouched.stats());
    }

    #[test]
    fn sparse_page_counts_the_image_cannot_hold_are_rejected() {
        use crate::mem::KERN_SIZE;
        // 17 bytes: a region length, a claim of 65,537 pages, one byte.
        let header = |len: u64| {
            let mut w = ImageWriter::new();
            w.u64(len);
            w.u64(65_537);
            w.u8(0);
            w.into_bytes()
        };
        let read = |bytes: &[u8]| {
            read_sparse(
                &mut ImageReader::new(bytes),
                "kernel region length",
                KERN_SIZE,
            )
            .err()
        };
        assert_eq!(header(KERN_SIZE).len(), 17);
        // At the required length the count rule refuses the claim before
        // anything is sized by it; at any other length the length does.
        assert_eq!(
            read(&header(KERN_SIZE)),
            Some(CodecError::Count {
                n: 65_537,
                remaining: 1
            })
        );
        assert!(matches!(
            read(&header(1 << 28)),
            Some(CodecError::Invalid { value, .. }) if value == 1 << 28
        ));
    }

    #[test]
    fn code_mismatch_rejected() {
        let img = mk(cfg()).snapshot();
        let other_src = PROG.replace("add %acc, 3:i64", "add %acc, 4:i64");
        let mut other = Vm::new(parse_module(&other_src).unwrap(), cfg()).unwrap();
        assert!(matches!(
            other.restore(&img),
            Err(SnapshotError::CodeMismatch { .. })
        ));
    }
}

//! Live-upgrade image migration (DESIGN.md §4.10).
//!
//! [`Vm::restore`] is deliberately strict: exact format version, exact
//! code identity. That is the right default for a *state* capture — but
//! the fleet story needs state to survive the software changing
//! underneath it: last night's golden snapshot must restore into
//! tonight's build, and a crash bundle captured by v(N) must replay on
//! v(N+1). This module is the deliberate, fail-closed bridge:
//!
//! * **Versioned upcasters.** A registry of per-version steps rewrites a
//!   v(N) image into v(N+1) form (appended-with-default stats words,
//!   pool poison attribution, single-vCPU identity, capture origin +
//!   code manifest). [`migrate`] chains them; a step that cannot carry a
//!   field forward fails closed with [`MigrateError::Incompatible`]
//!   naming that field — it never invents data.
//!
//! * **The `code_id` policy split.** A v4 image carries a
//!   [`crate::snapshot::CodeManifest`]: the module's surface fingerprint
//!   and per-function body hashes. A *rebuilt* kernel may adopt the
//!   image when its surface is identical (or a pure extension — new
//!   functions appended, nothing moved) **and** every function with a
//!   live frame in the image has a byte-identical body. Cold functions
//!   may differ — that is the live-patch case. Anything else (reordered
//!   functions, changed globals, a live function edited mid-flight)
//!   rejects with the first incompatible field named.
//!
//! * **Bundle migration.** `SVAB` crash bundles follow the same chain:
//!   legacy layouts are rewritten to the current one and the embedded
//!   snapshot is migrated along the way, so `svadbg --replay` works on
//!   bundles from older builds.
//!
//! Decoding is structural and fail-closed: the same `sva_ir::codec`
//! frame, section readers and bundle decoder as [`Vm::restore`] and
//! `CrashBundle::from_bytes`, with every version-dependent field read at
//! the image's version (the mutation proptests in `tests/fuzz.rs` drive
//! bit-flipped and truncated images through [`migrate`]). Sections whose
//! wire layout never changed across versions are carried verbatim as
//! byte spans, so migration cost is dominated by one pass over the
//! image.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use sva_ir::codec::{unframe, CodecError};
use sva_rt::{CheckStats, PoolImage};
use sva_trace::Tracer;

use crate::bundle::{decode_bundle, CrashBundle, BUNDLE_MAGIC, BUNDLE_VERSION};
use crate::snapshot::{
    fingerprint_words, fp_words, frame_image, read_frames, read_icontext, read_manifest,
    read_memory, read_origin, read_pool_images, read_recovery, read_saved_state, stats_words,
    surface_fp_of, unframe_image, write_manifest, write_pool_image, CodeManifest, ImageReader,
    ImageWriter, SnapshotError, FP_FIELDS, ICONTEXT_MIN, ORIGIN_CHECKPOINT, RECOVERY_MIN,
    SAVED_STATE_MIN, SNAPSHOT_VERSION,
};
use crate::vm::{Frame, Vm, VmStats};

/// The oldest snapshot format [`migrate`] can still read.
pub const OLDEST_SUPPORTED: u32 = 1;
/// The oldest bundle format [`migrate_bundle`] can still read.
pub const OLDEST_BUNDLE_SUPPORTED: u32 = 1;
/// The snapshot versions migration reads.
const SUPPORTED: RangeInclusive<u32> = OLDEST_SUPPORTED..=SNAPSHOT_VERSION;

/// Why an image could not be migrated. Migration never partially
/// applies and never invents state: any step that cannot carry a field
/// forward names it and stops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MigrateError {
    /// The image failed structural decoding (truncation, bad magic,
    /// checksum mismatch, malformed section).
    Image(SnapshotError),
    /// The image's format version is outside `[OLDEST_SUPPORTED,
    /// SNAPSHOT_VERSION]` (or the bundle equivalent) — including images
    /// from a *newer* build, which this build cannot interpret.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build writes.
        newest: u32,
    },
    /// One migration step cannot carry a field forward (or backward).
    Incompatible {
        /// Step source version.
        from: u32,
        /// Step target version.
        to: u32,
        /// The first field that cannot be carried.
        field: &'static str,
        /// Human-readable specifics (pool / function names, values).
        detail: String,
    },
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Image(e) => write!(f, "image rejected: {e}"),
            MigrateError::UnsupportedVersion { found, newest } => {
                write!(
                    f,
                    "format version {found} unsupported (this build migrates up to v{newest})"
                )
            }
            MigrateError::Incompatible {
                from,
                to,
                field,
                detail,
            } => write!(f, "cannot migrate v{from}→v{to}: field `{field}`: {detail}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<SnapshotError> for MigrateError {
    fn from(e: SnapshotError) -> MigrateError {
        MigrateError::Image(e)
    }
}

impl From<CodecError> for MigrateError {
    fn from(e: CodecError) -> MigrateError {
        match e {
            CodecError::BadVersion { found, newest } => {
                MigrateError::UnsupportedVersion { found, newest }
            }
            e => MigrateError::Image(e.into()),
        }
    }
}

// ---------------------------------------------------------------------------
// Upcaster registry.
// ---------------------------------------------------------------------------

/// One registered upcaster: the version edge it rewrites and what it
/// does, for plan printing (`svadbg --migrate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Upcaster {
    /// Source format version.
    pub from: u32,
    /// Target format version.
    pub to: u32,
    /// Short name (`"v1→v2"`).
    pub name: &'static str,
    /// What the step rewrites.
    pub summary: &'static str,
}

/// The registry, in chain order. `migrate` applies the suffix starting
/// at the image's version.
pub const UPCASTERS: [Upcaster; 3] = [
    Upcaster {
        from: 1,
        to: 2,
        name: "v1→v2",
        summary: "pool poison attribution (`poisoned_by`/`repairs`) and the five \
                  self-healing stats words, appended with zero defaults; fails \
                  closed on an already-poisoned pool (no attribution to invent)",
    },
    Upcaster {
        from: 2,
        to: 3,
        name: "v2→v3",
        summary: "single-vCPU identity: `vcpus=1` joins the config fingerprint \
                  and the payload gains `cpu_id=0`",
    },
    Upcaster {
        from: 3,
        to: 4,
        name: "v3→v4",
        summary: "capture origin (checkpoint) and the code manifest; a v3 image \
                  carries no manifest, so this step requires the restoring \
                  build to run the exact code the image was taken under",
    },
];

/// What a given artifact would take to reach the current formats, from
/// the header alone (no target machine needed). `svadbg --migrate`
/// prints this.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    /// `"snapshot"` or `"bundle"`.
    pub kind: &'static str,
    /// Format version in the header.
    pub version: u32,
    /// Version this build writes.
    pub target: u32,
    /// Code identity recorded in the artifact (snapshot header, bundle
    /// payload).
    pub code_id: u64,
    /// Upcaster chain the snapshot (or embedded snapshot) would take.
    pub steps: Vec<Upcaster>,
    /// For bundles: the bundle's own layout rewrite, if any.
    pub bundle_step: Option<String>,
}

/// What [`migrate`] actually did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Format version the image arrived at.
    pub from_version: u32,
    /// Names of the upcaster steps applied (empty when already current).
    pub steps: Vec<&'static str>,
    /// Whether the image was adopted across a `code_id` change
    /// (compatible-rebuild path).
    pub code_migrated: bool,
}

// ---------------------------------------------------------------------------
// Structural decode: version-variant sections typed, invariant sections
// carried as verbatim byte spans.
// ---------------------------------------------------------------------------

struct MigImage<'a> {
    version: u32,
    code_id: u64,
    /// Config fingerprint words, [`fp_words`] of the version.
    fp: Vec<u64>,
    /// Kernel memory through the interrupt table — layout-invariant
    /// across every supported version, carried verbatim.
    mid: &'a [u8],
    pools: Vec<PoolImage>,
    /// Function check-stats words + console — invariant, verbatim.
    func_console: &'a [u8],
    /// Stats words, [`stats_words`] of the version.
    stats: Vec<u64>,
    /// Fuel through `trap_count` — invariant, verbatim.
    tail: &'a [u8],
    cpu_id: Option<u32>,
    origin: Option<u8>,
    manifest: Option<CodeManifest>,
    /// Function indices with at least one live frame anywhere in the
    /// image (thread, interrupt contexts, saved states, recovery stack).
    live_funcs: BTreeSet<u32>,
}

fn note_frames(live: &mut BTreeSet<u32>, frames: &[Frame]) {
    for f in frames {
        live.insert(f.func);
    }
}

fn decode(image: &[u8]) -> Result<MigImage<'_>, MigrateError> {
    let (version, code_id, payload) = unframe_image(image, SUPPORTED)?;
    let mut live_funcs = BTreeSet::new();
    let r = &mut ImageReader::new(payload);
    let fp = (0..fp_words(version))
        .map(|_| r.u64())
        .collect::<Result<_, _>>()?;
    // Memory through the interrupt table: walk structurally (to validate
    // and harvest live frame functions), carry verbatim.
    let mid_start = r.pos();
    read_memory(r)?;
    r.u32()?; // current_asid
    note_frames(&mut live_funcs, &read_frames(r)?); // thread frames
    r.u32()?; // thread.asid
    r.opt(|r| r.u32())?; // thread.icid
    r.take(8 + 8)?; // ksp, usp
    r.bool()?; // fp_dirty
    for _ in 0..r.prefix(ICONTEXT_MIN)? {
        note_frames(&mut live_funcs, &read_icontext(r)?.frames);
    }
    for _ in 0..r.prefix(8 + SAVED_STATE_MIN)? {
        r.u64()?;
        note_frames(&mut live_funcs, &read_saved_state(r)?.frames);
    }
    for _ in 0..r.prefix(8 + ICONTEXT_MIN)? {
        r.u64()?;
        note_frames(&mut live_funcs, &read_icontext(r)?.frames);
    }
    for _ in 0..2 {
        // The syscall and interrupt tables: (i64, u32) entries.
        let n = r.prefix(12)?;
        r.take(12 * n)?;
    }
    let mid = &payload[mid_start..r.pos()];
    // Pools: version-variant.
    let pools = read_pool_images(r, version)?;
    // Function stats + console: invariant.
    let fc_start = r.pos();
    r.take(8 * CheckStats::WORDS)?;
    r.bytes()?; // console
    let func_console = &payload[fc_start..r.pos()];
    let stats = (0..stats_words(version))
        .map(|_| r.u64())
        .collect::<Result<_, _>>()?;
    // Fuel through trap_count: walk structurally, carry verbatim.
    let tail_start = r.pos();
    r.u64()?; // fuel
    r.opt(|r| r.u64())?; // halted code
    let n = r.prefix(8)?; // pending irqs
    r.take(8 * n)?;
    for _ in 0..r.prefix(RECOVERY_MIN)? {
        note_frames(&mut live_funcs, &read_recovery(r)?.frames);
    }
    r.opt(|r| r.take(4 + 8))?; // gep_skew
    r.opt(|r| r.take(8 + 4 + 8))?; // pending_probe
    r.opt(|r| r.take(8 + 4 + 8))?; // pending_skew
    r.take(8 + 8)?; // call_floor, trap_count
    let tail = &payload[tail_start..r.pos()];
    let cpu_id = if version >= 3 { Some(r.u32()?) } else { None };
    let (origin, manifest) = if version >= 4 {
        (Some(read_origin(r)?), Some(read_manifest(r)?))
    } else {
        (None, None)
    };
    r.finish()?;
    Ok(MigImage {
        version,
        code_id,
        fp,
        mid,
        pools,
        func_console,
        stats,
        tail,
        cpu_id,
        origin,
        manifest,
        live_funcs,
    })
}

/// Re-encodes a decoded image at format version `to`. The caller has
/// already stepped the in-memory fields to that version's shape.
fn encode_at(img: &MigImage<'_>, to: u32) -> Vec<u8> {
    let mut w = ImageWriter::new();
    for &word in &img.fp {
        w.u64(word);
    }
    w.raw(img.mid);
    w.seq(&img.pools, |w, p| write_pool_image(w, p, to));
    w.raw(img.func_console);
    for &word in &img.stats {
        w.u64(word);
    }
    w.raw(img.tail);
    if let Some(cpu) = img.cpu_id {
        w.u32(cpu);
    }
    if to >= 4 {
        w.u8(img.origin.unwrap_or(ORIGIN_CHECKPOINT));
        write_manifest(
            &mut w,
            img.manifest.as_ref().expect("v4 image has a manifest"),
        );
    }
    frame_image(to, img.fp.len(), img.code_id, w.as_bytes())
}

// ---------------------------------------------------------------------------
// Upcast / downcast steps over the in-memory image.
// ---------------------------------------------------------------------------

/// What `migrate` needs to know about the restoring build.
struct TargetInfo {
    code_id: u64,
    manifest: CodeManifest,
    fp: [u64; FP_FIELDS.len()],
}

fn upcast(
    img: &mut MigImage<'_>,
    step: &Upcaster,
    target: Option<&TargetInfo>,
) -> Result<(), MigrateError> {
    match (step.from, step.to) {
        (1, 2) => {
            // v1 pools carry no poison attribution. Zero-defaulting the
            // new fields is only sound for pools that were never
            // poisoned; an already-poisoned pool would need an inventing
            // `poisoned_by`, so fail closed naming it.
            if let Some(p) = img.pools.iter().find(|p| p.poisoned) {
                return Err(MigrateError::Incompatible {
                    from: 1,
                    to: 2,
                    field: "poisoned_by",
                    detail: format!(
                        "pool `{}` is poisoned but a v1 image records no poisoning \
                         subsystem to attribute it to",
                        p.name
                    ),
                });
            }
            img.stats.resize(stats_words(2), 0);
        }
        (2, 3) => {
            // Pre-SMP images are single-vCPU machines by construction.
            img.fp.push(1);
            img.cpu_id = Some(0);
        }
        (3, 4) => {
            // A v3 image has no manifest of its own code; the only sound
            // source is the restoring build — and only when it runs the
            // exact code the image was taken under. Cross-build adoption
            // of v3 images is therefore impossible by design.
            let t = target.ok_or_else(|| MigrateError::Incompatible {
                from: 3,
                to: 4,
                field: "code_manifest",
                detail: "reaching v4 requires the restoring machine's code manifest; \
                         migrate against a target build"
                    .into(),
            })?;
            if img.code_id != t.code_id {
                return Err(MigrateError::Incompatible {
                    from: 3,
                    to: 4,
                    field: "code_id",
                    detail: format!(
                        "a v3 image carries no code manifest, so it can only cross \
                         format versions onto the same build (image {:#x}, target {:#x})",
                        img.code_id, t.code_id
                    ),
                });
            }
            img.origin = Some(ORIGIN_CHECKPOINT);
            img.manifest = Some(t.manifest.clone());
        }
        _ => unreachable!("unregistered upcast {}→{}", step.from, step.to),
    }
    img.version = step.to;
    Ok(())
}

fn downcast(img: &mut MigImage<'_>, from: u32) -> Result<(), MigrateError> {
    let to = from - 1;
    match from {
        4 => {
            img.origin = None;
            img.manifest = None;
        }
        3 => {
            // The word v3 appended to the fingerprint.
            let vcpus = img.fp.get(fp_words(to)).copied();
            if vcpus != Some(1) {
                return Err(MigrateError::Incompatible {
                    from,
                    to,
                    field: "vcpus",
                    detail: format!(
                        "v2 images are single-vCPU; this machine had vcpus={}",
                        vcpus.unwrap_or(0)
                    ),
                });
            }
            if img.cpu_id != Some(0) {
                return Err(MigrateError::Incompatible {
                    from,
                    to,
                    field: "cpu_id",
                    detail: format!(
                        "v2 images have no vCPU identity; this one was vCPU {}",
                        img.cpu_id.unwrap_or(0)
                    ),
                });
            }
            img.fp.truncate(fp_words(to));
            img.cpu_id = None;
        }
        2 => {
            for i in stats_words(to)..stats_words(from) {
                if img.stats[i] != 0 {
                    let field = VmStats::NAMES[i];
                    return Err(MigrateError::Incompatible {
                        from,
                        to,
                        field,
                        detail: format!(
                            "v1 images have no `{field}` stats word; this machine counted {}",
                            img.stats[i]
                        ),
                    });
                }
            }
            if let Some(p) = img
                .pools
                .iter()
                .find(|p| p.poisoned_by != 0 || p.repairs != 0)
            {
                return Err(MigrateError::Incompatible {
                    from,
                    to,
                    field: if p.poisoned_by != 0 {
                        "poisoned_by"
                    } else {
                        "repairs"
                    },
                    detail: format!(
                        "pool `{}` carries poison attribution / repair history a v1 \
                         image cannot express",
                        p.name
                    ),
                });
            }
            img.stats.truncate(stats_words(to));
        }
        _ => unreachable!("no downcast from v{from}"),
    }
    img.version = to;
    Ok(())
}

/// Adopts the image onto a *different* build: sound only when the
/// rebuild kept the module surface (exactly, or extended it purely by
/// appending functions — indices, global addresses and dispatch tables
/// stay meaningful) and every function with a live frame kept its body.
fn adopt_code(img: &mut MigImage<'_>, t: &TargetInfo) -> Result<(), MigrateError> {
    let v = SNAPSHOT_VERSION;
    let m = img.manifest.as_ref().expect("v4 image has a manifest");
    // The manifest is image data: it must hash to its own surface
    // fingerprint before any decision rests on it.
    if surface_fp_of(m.globals_fp, &m.funcs) != m.surface_fp {
        return Err(MigrateError::Image(SnapshotError::Malformed(format!(
            "code manifest claims surface {:#x}, but its {} functions hash to another",
            m.surface_fp,
            m.funcs.len()
        ))));
    }
    if m.surface_fp != t.manifest.surface_fp {
        // Not the same surface: a pure append is still adoptable.
        if m.globals_fp != t.manifest.globals_fp {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "module_header",
                detail: format!(
                    "globals / struct layouts / allocators differ across builds \
                     (image {:#x}, target {:#x}); global addresses baked into the \
                     memory image would be wrong",
                    m.globals_fp, t.manifest.globals_fp
                ),
            });
        }
        if m.funcs.len() > t.manifest.funcs.len() {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "function_count",
                detail: format!(
                    "image build has {} functions, target only {} — functions were \
                     removed, which would dangle dispatch entries",
                    m.funcs.len(),
                    t.manifest.funcs.len()
                ),
            });
        }
        if let Some((i, (a, b))) = m
            .funcs
            .iter()
            .zip(&t.manifest.funcs)
            .enumerate()
            .find(|(_, (a, b))| a.name != b.name || a.sig_fp != b.sig_fp)
        {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "function_surface",
                detail: format!(
                    "function #{i} is `@{}` in the image build but `@{}` (or a \
                     different signature) in the target — indices baked into frames \
                     and dispatch tables would be remapped unsoundly",
                    a.name, b.name
                ),
            });
        }
    }
    // Live frames pin function bodies: a frame's pc/block indices only
    // mean anything in the body they were captured in.
    for &idx in &img.live_funcs {
        let old = m
            .funcs
            .get(idx as usize)
            .ok_or_else(|| MigrateError::Incompatible {
                from: v,
                to: v,
                field: "live_function",
                detail: format!(
                    "a frame references function #{idx}, outside the image's {}-entry manifest",
                    m.funcs.len()
                ),
            })?;
        let new = t
            .manifest
            .funcs
            .get(idx as usize)
            .ok_or_else(|| MigrateError::Incompatible {
                from: v,
                to: v,
                field: "live_function",
                detail: format!(
                    "`@{}` has a live frame in the image but the target has only {} functions",
                    old.name,
                    t.manifest.funcs.len()
                ),
            })?;
        if old.body_hash != new.body_hash {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "live_function",
                detail: format!(
                    "`@{}` has a live frame in the image but its body changed across \
                     builds; only cold functions may be patched",
                    old.name
                ),
            });
        }
    }
    img.code_id = t.code_id;
    img.manifest = Some(t.manifest.clone());
    // `fused_sites` is code-derived, not config: adopt the target's.
    img.fp[7] = t.fp[7];
    Ok(())
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

impl<T: Tracer> Vm<T> {
    fn target_info(&self) -> TargetInfo {
        TargetInfo {
            code_id: self.code_identity(),
            manifest: self.code.manifest().clone(),
            fp: fingerprint_words(&self.cfg, self.fused_sites()),
        }
    }

    /// Restores an image of *any* supported version, migrating it to the
    /// current format (and across a compatible rebuild) first. The
    /// strictness split: [`Vm::restore`] takes exactly what this build
    /// wrote; `restore_migrated` is the deliberate upgrade path.
    pub fn restore_migrated(&mut self, image: &[u8]) -> Result<MigrationReport, MigrateError> {
        let (bytes, report) = migrate(self, image)?;
        self.restore(&bytes)?;
        Ok(report)
    }
}

/// Rewrites `image` (any supported snapshot version) into the current
/// format for the `target` machine, chaining [`UPCASTERS`] and — when
/// the image was taken under a different build — the compatible-rebuild
/// adoption policy. Returns the rewritten image and a report of the
/// steps taken. Idempotent: an image already at the current version
/// under the same code is returned byte-identically.
pub fn migrate<T: Tracer>(
    target: &Vm<T>,
    image: &[u8],
) -> Result<(Vec<u8>, MigrationReport), MigrateError> {
    let mut img = decode(image)?;
    let t = target.target_info();
    let mut report = MigrationReport {
        from_version: img.version,
        ..Default::default()
    };
    if img.version == SNAPSHOT_VERSION && img.code_id == t.code_id {
        return Ok((image.to_vec(), report));
    }
    let start = img.version;
    for step in UPCASTERS.iter().filter(|s| s.from >= start) {
        upcast(&mut img, step, Some(&t))?;
        report.steps.push(step.name);
    }
    if img.code_id != t.code_id {
        adopt_code(&mut img, &t)?;
        report.code_migrated = true;
    }
    Ok((encode_at(&img, SNAPSHOT_VERSION), report))
}

/// Re-encodes a snapshot at format version `to`, upcasting or
/// downcasting as needed — the compat tool behind the composition
/// proptests and the differential campaign's cross-version twins.
/// Upcasting to v4 needs a target build ([`migrate`]); this function
/// handles every other edge and fails closed (naming the field) on
/// state an older format cannot express.
pub fn reencode_at(image: &[u8], to: u32) -> Result<Vec<u8>, MigrateError> {
    if !SUPPORTED.contains(&to) {
        return Err(MigrateError::UnsupportedVersion {
            found: to,
            newest: SNAPSHOT_VERSION,
        });
    }
    let mut img = decode(image)?;
    if to == SNAPSHOT_VERSION && img.version != SNAPSHOT_VERSION {
        return Err(MigrateError::Incompatible {
            from: img.version,
            to,
            field: "code_manifest",
            detail: "upcasting to the current version requires a target build; \
                     use `migrate`"
                .into(),
        });
    }
    while img.version > to {
        let from = img.version;
        downcast(&mut img, from)?;
    }
    while img.version < to {
        let step = UPCASTERS
            .iter()
            .find(|s| s.from == img.version)
            .expect("contiguous registry");
        upcast(&mut img, step, None)?;
    }
    Ok(encode_at(&img, to))
}

/// Header-level migration plan for a snapshot or bundle file — what
/// `svadbg --migrate` prints. Validates magic, version and checksum;
/// for bundles, decodes the payload far enough to reach the embedded
/// snapshot's version.
pub fn plan(bytes: &[u8]) -> Result<MigrationPlan, MigrateError> {
    if bytes.starts_with(&BUNDLE_MAGIC) {
        let (bversion, bundle) = decode_bundle_any(bytes)?;
        let (sversion, code_id, _) = unframe_image(&bundle.snapshot, SUPPORTED)?;
        return Ok(MigrationPlan {
            kind: "bundle",
            version: bversion,
            target: BUNDLE_VERSION,
            code_id,
            steps: UPCASTERS
                .iter()
                .filter(|s| s.from >= sversion)
                .copied()
                .collect(),
            bundle_step: (bversion != BUNDLE_VERSION).then(|| {
                format!(
                    "SVAB v{bversion}→v{BUNDLE_VERSION}: widen config fingerprint \
                     and stats block, default vCPU id / pool repair counters"
                )
            }),
        });
    }
    let (version, code_id, _) = unframe_image(bytes, SUPPORTED)?;
    Ok(MigrationPlan {
        kind: "snapshot",
        version,
        target: SNAPSHOT_VERSION,
        code_id,
        steps: UPCASTERS
            .iter()
            .filter(|s| s.from >= version)
            .copied()
            .collect(),
        bundle_step: None,
    })
}

// ---------------------------------------------------------------------------
// Bundle migration.
// ---------------------------------------------------------------------------

/// Decodes an `SVAB` bundle of any supported version into the current
/// in-memory form, returning the wire version alongside.
fn decode_bundle_any(bytes: &[u8]) -> Result<(u32, CrashBundle), MigrateError> {
    let f = unframe(
        bytes,
        BUNDLE_MAGIC,
        OLDEST_BUNDLE_SUPPORTED..=BUNDLE_VERSION,
        0,
    )?;
    Ok((f.version, decode_bundle(f.payload, f.version)?))
}

/// Rewrites an `SVAB` crash bundle of any supported version into the
/// current bundle format for the `target` build, migrating the embedded
/// snapshot along the way (so `svadbg --replay` works on bundles from
/// older builds). Idempotent like [`migrate`].
pub fn migrate_bundle<T: Tracer>(
    target: &Vm<T>,
    bytes: &[u8],
) -> Result<(Vec<u8>, MigrationReport), MigrateError> {
    let (version, mut bundle) = decode_bundle_any(bytes)?;
    let (snap, mut report) = migrate(target, &bundle.snapshot)?;
    if version == BUNDLE_VERSION && report.steps.is_empty() && !report.code_migrated {
        return Ok((bytes.to_vec(), report));
    }
    bundle.snapshot = snap;
    if report.code_migrated {
        bundle.code_id = target.code_identity();
        // `fused_sites` is code-derived (same rewrite the snapshot took).
        bundle.config_words[7] = fingerprint_words(&target.cfg, target.fused_sites())[7];
    }
    report.from_version = version.min(report.from_version);
    Ok((bundle.to_bytes(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{KernelKind, VmConfig, VmError};
    use sva_ir::parse::parse_module;

    const F: &str = r#"
func public @f(%n: i64) : i64 {
entry:
  %r:i64 = add %n, 1:i64
  ret %r
}
"#;
    const G: &str = r#"
func public @g(%n: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, loop: %i2]
  %i2:i64 = add %i, 1:i64
  %done:i1 = icmp uge %i2, %n
  condbr %done, out, loop
out:
  ret %i2
}
"#;

    fn vm_of(funcs: &[&str], fuel: u64) -> Vm {
        let src = format!("module \"m\"{}", funcs.concat());
        let cfg = VmConfig {
            kind: KernelKind::SvaLlvm,
            fuel,
            ..Default::default()
        };
        Vm::new(parse_module(&src).expect("parse"), cfg).expect("load")
    }

    /// `image` re-encoded with its manifest claiming `surface_fp`.
    fn with_claimed_surface(image: &[u8], surface_fp: u64) -> Vec<u8> {
        let mut img = decode(image).expect("decode");
        img.manifest.as_mut().expect("v4 manifest").surface_fp = surface_fp;
        encode_at(&img, SNAPSHOT_VERSION)
    }

    #[test]
    fn forged_code_manifests_are_refused_without_a_panic() {
        // A manifest whose surface fingerprint disagrees with its own
        // function list, offered to a build that appended a function.
        let image = vm_of(&[F], u64::MAX).snapshot();
        let claimed = decode(&image).unwrap().manifest.unwrap().surface_fp ^ 1;
        let inconsistent = with_claimed_surface(&image, claimed);
        // A manifest claiming the target's surface while listing more
        // functions, with a live frame in a function past the target's.
        let mut source = vm_of(&[F, G], 10);
        assert!(matches!(source.call("g", &[40]), Err(VmError::OutOfFuel)));
        let mid = source.snapshot();
        assert!(decode(&mid).unwrap().live_funcs.contains(&1));
        let target_surface = vm_of(&[F], u64::MAX).code.manifest().surface_fp;
        let overlong = with_claimed_surface(&mid, target_surface);

        for (forged, funcs) in [(&inconsistent, &[F, G][..]), (&overlong, &[F][..])] {
            let mut target = vm_of(funcs, u64::MAX);
            assert!(matches!(
                migrate(&target, forged),
                Err(MigrateError::Image(SnapshotError::Malformed(_)))
            ));
            assert!(target.restore_migrated(forged).is_err());
            let mut untouched = vm_of(funcs, u64::MAX);
            assert_eq!(
                target.call("f", &[7]).unwrap(),
                untouched.call("f", &[7]).unwrap()
            );
            assert_eq!(target.stats(), untouched.stats());
        }
    }

    #[test]
    fn v1_downcast_refuses_each_self_healing_stats_word_by_name() {
        let m = parse_module("module \"m\"\nfunc public @f() : i64 {\nentry:\n  ret 0:i64\n}\n")
            .expect("parse");
        let cfg = VmConfig {
            kind: KernelKind::SvaLlvm,
            ..Default::default()
        };
        let image = Vm::new(m, cfg).expect("load").snapshot();
        let at_v2 = || {
            let mut img = decode(&image).expect("decode");
            for from in [4, 3] {
                downcast(&mut img, from).expect("single-vCPU image reaches v2");
            }
            img
        };
        assert!(downcast(&mut at_v2(), 2).is_ok(), "zero words downcast");
        for i in stats_words(1)..stats_words(2) {
            let mut img = at_v2();
            img.stats[i] = 1;
            match downcast(&mut img, 2) {
                Err(MigrateError::Incompatible { field, .. }) => {
                    assert_eq!(field, VmStats::NAMES[i])
                }
                r => panic!("word {i}: expected a refusal, got {r:?}"),
            }
        }
    }
}

//! Live-upgrade image migration (DESIGN.md §4.10).
//!
//! [`Vm::restore`] is deliberately strict: exact format version, exact
//! code identity. That is the right default for a *state* capture — but
//! the fleet story needs state to survive the software changing
//! underneath it: last night's golden snapshot must restore into
//! tonight's build, and a crash bundle captured by an older build must
//! replay on this one. This module is the deliberate, fail-closed bridge:
//!
//! * **Versioned upcasters.** A registry of per-version steps rewrites a
//!   v(N) image into v(N+1) form. This build reads `SVA1` v3 and v4, so
//!   the registry holds one step: v3→v4 appends the capture origin and
//!   the code manifest. A step that cannot carry a field forward fails
//!   closed with [`MigrateError::Incompatible`] naming that field — it
//!   never invents data. v1 and v2 images are refused by version.
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
//! * **Bundle migration.** An `SVAB` crash bundle (v3, the only layout
//!   read) is migrated by migrating its embedded snapshot, so
//!   `svadbg --replay` works on bundles whose snapshot an older format
//!   or a compatible older build wrote.
//!
//! Decoding is restore's own: the `sva_ir::codec` frame and
//! `snapshot::parse_payload`, which reads the machine state
//! that v3 and v4 lay out identically, and the bundle decoder of
//! `CrashBundle::from_bytes` (the mutation proptests in `tests/fuzz.rs`
//! drive bit-flipped and truncated images through [`migrate`]). The
//! state is carried as one verbatim byte span; a step only adds or drops
//! the v4 trailer, and code adoption rewrites fingerprint word 7 and the
//! manifest.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use sva_ir::codec::CodecError;
use sva_trace::Tracer;

use crate::bundle::{decode_bundle, BUNDLE_MAGIC, BUNDLE_VERSION};
use crate::snapshot::{
    fingerprint_words, frame_image, parse_payload, read_manifest, read_origin, surface_fp_of,
    unframe_image, write_manifest, CodeManifest, ImageReader, ImageWriter, SnapshotError,
    FP_FIELDS, ORIGIN_CHECKPOINT, SNAPSHOT_VERSION,
};
use crate::vm::Vm;

/// The oldest snapshot format [`migrate`] can still read.
pub const OLDEST_SUPPORTED: u32 = 3;
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
    /// The format version is outside the range this build reads —
    /// `[OLDEST_SUPPORTED, SNAPSHOT_VERSION]` for images, exactly
    /// `BUNDLE_VERSION` for bundles — including a retired version and one
    /// from a *newer* build, which this build cannot interpret.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build writes.
        newest: u32,
    },
    /// One migration step cannot carry a field forward.
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
            MigrateError::UnsupportedVersion { found, .. } => write!(
                f,
                "format version {found} unsupported (this build reads SVA1 \
                 v{OLDEST_SUPPORTED}–v{SNAPSHOT_VERSION} and SVAB v{BUNDLE_VERSION})"
            ),
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
    /// Short name (`"v3→v4"`).
    pub name: &'static str,
    /// What the step rewrites.
    pub summary: &'static str,
}

/// The registry, in chain order from [`OLDEST_SUPPORTED`]. `migrate`
/// applies the suffix starting at the image's version.
pub const UPCASTERS: [Upcaster; 1] = [Upcaster {
    from: 3,
    to: 4,
    name: "v3→v4",
    summary: "capture origin (checkpoint) and the code manifest; a v3 image \
              carries no manifest, so this step requires the restoring \
              build to run the exact code the image was taken under",
}];

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
// Decode: restore's parser, the machine state carried as one span.
// ---------------------------------------------------------------------------

struct MigImage<'a> {
    version: u32,
    code_id: u64,
    fp: [u64; FP_FIELDS.len()],
    /// The machine state after the fingerprint block, through `cpu_id`:
    /// laid out identically at v3 and v4, carried verbatim.
    state: &'a [u8],
    /// The v4 trailer: capture origin and code manifest.
    trailer: Option<(u8, CodeManifest)>,
    /// Function indices with at least one live frame anywhere in the
    /// image (thread, interrupt contexts, saved states, recovery stack).
    live_funcs: BTreeSet<u32>,
}

fn decode(image: &[u8]) -> Result<MigImage<'_>, MigrateError> {
    let (version, code_id, payload) = unframe_image(image, SUPPORTED)?;
    let r = &mut ImageReader::new(payload);
    let fp = r.u64s()?;
    let start = r.pos();
    let live_funcs = parse_payload(r)?.frames().map(|f| f.func).collect();
    let state = &payload[start..r.pos()];
    let trailer = if version >= 4 {
        Some((read_origin(r)?, read_manifest(r)?))
    } else {
        None
    };
    r.finish()?;
    Ok(MigImage {
        version,
        code_id,
        fp,
        state,
        trailer,
        live_funcs,
    })
}

/// Encodes a decoded image at its version: v4 when it has the trailer,
/// v3 when it has none.
fn encode(img: &MigImage<'_>) -> Vec<u8> {
    let mut w = ImageWriter::new();
    for word in img.fp {
        w.u64(word);
    }
    w.raw(img.state);
    if let Some((origin, manifest)) = &img.trailer {
        w.u8(*origin);
        write_manifest(&mut w, manifest);
    }
    frame_image(img.version, img.code_id, w.as_bytes())
}

// ---------------------------------------------------------------------------
// The v3→v4 step and code adoption over the in-memory image.
// ---------------------------------------------------------------------------

/// What `migrate` needs to know about the restoring build.
struct TargetInfo {
    code_id: u64,
    manifest: CodeManifest,
    fp: [u64; FP_FIELDS.len()],
}

fn upcast(img: &mut MigImage<'_>, step: &Upcaster, t: &TargetInfo) -> Result<(), MigrateError> {
    match (step.from, step.to) {
        (3, 4) => {
            // A v3 image has no manifest of its own code; the only sound
            // source is the restoring build — and only when it runs the
            // exact code the image was taken under. Cross-build adoption
            // of v3 images is therefore impossible by design.
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
            img.trailer = Some((ORIGIN_CHECKPOINT, t.manifest.clone()));
        }
        _ => unreachable!("unregistered upcast {}→{}", step.from, step.to),
    }
    img.version = step.to;
    Ok(())
}

/// Adopts the image onto a *different* build: sound only when the
/// rebuild kept the module surface (exactly, or extended it purely by
/// appending functions — indices, global addresses and dispatch tables
/// stay meaningful) and every function with a live frame kept its body.
fn adopt_code(img: &mut MigImage<'_>, t: &TargetInfo) -> Result<(), MigrateError> {
    let v = SNAPSHOT_VERSION;
    let (_, m) = img.trailer.as_mut().expect("v4 image has a manifest");
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
    *m = t.manifest.clone();
    img.code_id = t.code_id;
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
        upcast(&mut img, step, &t)?;
        report.steps.push(step.name);
    }
    if img.code_id != t.code_id {
        adopt_code(&mut img, &t)?;
        report.code_migrated = true;
    }
    Ok((encode(&img), report))
}

/// Re-encodes a snapshot at format version `to` — the compat tool behind
/// the round-trip proptests and the differential campaign's v3 twins.
/// v4→v3 drops the v4 trailer (origin byte and code manifest); the same
/// version re-encodes the image unchanged. Upcasting to v4 needs a
/// target build ([`migrate`]) and is refused naming the manifest.
pub fn reencode_at(image: &[u8], to: u32) -> Result<Vec<u8>, MigrateError> {
    if !SUPPORTED.contains(&to) {
        return Err(MigrateError::UnsupportedVersion {
            found: to,
            newest: SNAPSHOT_VERSION,
        });
    }
    let mut img = decode(image)?;
    if to > img.version {
        return Err(MigrateError::Incompatible {
            from: img.version,
            to,
            field: "code_manifest",
            detail: "upcasting to the current version requires a target build; \
                     use `migrate`"
                .into(),
        });
    }
    if to < img.version {
        img.trailer = None;
        img.version = to;
    }
    Ok(encode(&img))
}

/// Header-level migration plan for a snapshot or bundle file — what
/// `svadbg --migrate` prints. Validates magic, version and checksum;
/// for bundles, decodes the bundle to reach the embedded snapshot's
/// version.
pub fn plan(bytes: &[u8]) -> Result<MigrationPlan, MigrateError> {
    let bundle = if bytes.starts_with(&BUNDLE_MAGIC) {
        Some(decode_bundle(bytes)?)
    } else {
        None
    };
    let image = bundle.as_ref().map_or(bytes, |b| &b.snapshot);
    let (snapshot_version, code_id, _) = unframe_image(image, SUPPORTED)?;
    let (kind, version, target) = match bundle {
        Some(_) => ("bundle", BUNDLE_VERSION, BUNDLE_VERSION),
        None => ("snapshot", snapshot_version, SNAPSHOT_VERSION),
    };
    Ok(MigrationPlan {
        kind,
        version,
        target,
        code_id,
        steps: UPCASTERS
            .iter()
            .filter(|s| s.from >= snapshot_version)
            .copied()
            .collect(),
    })
}

/// Rewrites an `SVAB` crash bundle for the `target` build by migrating
/// its embedded snapshot (so `svadbg --replay` works on bundles from
/// older builds). Idempotent like [`migrate`].
pub fn migrate_bundle<T: Tracer>(
    target: &Vm<T>,
    bytes: &[u8],
) -> Result<(Vec<u8>, MigrationReport), MigrateError> {
    let mut bundle = decode_bundle(bytes)?;
    let (snap, report) = migrate(target, &bundle.snapshot)?;
    if report.steps.is_empty() && !report.code_migrated {
        return Ok((bytes.to_vec(), report));
    }
    bundle.snapshot = snap;
    if report.code_migrated {
        bundle.code_id = target.code_identity();
        // `fused_sites` is code-derived (same rewrite the snapshot took).
        bundle.config_words[7] = fingerprint_words(&target.cfg, target.fused_sites())[7];
    }
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
        img.trailer.as_mut().expect("v4 manifest").1.surface_fp = surface_fp;
        encode(&img)
    }

    #[test]
    fn forged_code_manifests_are_refused_without_a_panic() {
        // A manifest whose surface fingerprint disagrees with its own
        // function list, offered to a build that appended a function.
        let image = vm_of(&[F], u64::MAX).snapshot();
        let claimed = decode(&image).unwrap().trailer.unwrap().1.surface_fp ^ 1;
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
}

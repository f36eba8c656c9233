//! Crash-forensics bundles (DESIGN.md §4.7).
//!
//! When a machine dies — `sva.abort` halt, a safety violation escaping
//! every recovery domain, a watchdog force-unwind, or fuel exhaustion
//! under fault injection — the VM can capture everything an operator
//! needs for a postmortem into one versioned artifact:
//!
//! * the full PR 6 snapshot image (restore it to reproduce the death),
//! * the flight-recorder tail (the black-box event timeline),
//! * a metapool dump, the degraded-syscall health table, and the
//!   recovery-domain stack,
//! * the decoded resume code and the console transcript.
//!
//! Capture is **opt-in host-side state** ([`Vm::enable_crash_capture`]):
//! it is never serialized into snapshots, defaults to off, and therefore
//! changes nothing for machines that do not ask for it.
//!
//! ## Bundle layout
//!
//! ```text
//! header (24 bytes):
//!   magic       4  b"SVAB"
//!   version     4  u32 LE, BUNDLE_VERSION
//!   payload_len 8  u64 LE
//!   checksum    8  FNV-1a over the payload
//! payload:
//!   reason, halt code, raw resume code, detail string,
//!   config fingerprint words, code identity, stats block, console,
//!   domain dumps, pool summaries, health table, flight tail (JSONL),
//!   snapshot image bytes
//! ```
//!
//! The header is the shared container frame of `sva_ir::codec` and the
//! bundle is read by one decoder, `decode_bundle`, which accepts exactly
//! [`BUNDLE_VERSION`]: [`CrashBundle::from_bytes`] and `migrate_bundle`
//! both call it, and the v1 and v2 layouts are no longer read.
//! Truncation, bad magic, any other version, checksum mismatch and
//! malformed payloads are distinct [`BundleError`]s, and a bundle that
//! does not parse *in full* yields nothing.

use std::path::{Path, PathBuf};

use sva_ir::codec::{frame, unframe, CodecError};
use sva_rt::PoolSummary;
use sva_trace::{TimedEvent, Tracer};

use crate::mem::Mode;
use crate::resume::ResumeCode;
use crate::snapshot::{
    fingerprint_words, ImageReader, ImageWriter, SnapshotError, FP_FIELDS, SIGN_KEY_WORD,
};
use crate::vm::{KernelKind, Vm, VmConfig, VmStats};

/// Bundle magic.
pub const BUNDLE_MAGIC: [u8; 4] = *b"SVAB";
/// Current bundle format version. Bump on any payload-layout change.
/// v3: records the faulting vCPU id and carries the widened (10-word,
/// `vcpus`-bearing) config fingerprint of snapshot v3.
pub const BUNDLE_VERSION: u32 = 3;

/// What killed (or nearly killed) the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashReason {
    /// `sva.abort(code)` with a nonzero code (41 = poisoned unwind
    /// abort, 42 = recovery handler with nothing to resume, or any guest
    /// panic code).
    Halt,
    /// A safety violation escaped every recovery domain and aborted the
    /// run with `VmError::Safety`.
    SafetyEscape,
    /// The domain watchdog force-unwound a wedged recovery domain.
    Watchdog,
    /// Instruction fuel ran out under an armed fault-injection hook (a
    /// wedged machine in a campaign).
    FuelExhausted,
}

impl CrashReason {
    /// Stable one-byte wire code.
    pub fn to_code(self) -> u8 {
        match self {
            CrashReason::Halt => 1,
            CrashReason::SafetyEscape => 2,
            CrashReason::Watchdog => 3,
            CrashReason::FuelExhausted => 4,
        }
    }

    /// Parses [`CrashReason::to_code`] output.
    pub fn from_code(c: u8) -> Option<CrashReason> {
        Some(match c {
            1 => CrashReason::Halt,
            2 => CrashReason::SafetyEscape,
            3 => CrashReason::Watchdog,
            4 => CrashReason::FuelExhausted,
            _ => return None,
        })
    }

    /// Stable short name (bundle filenames, reports).
    pub fn name(self) -> &'static str {
        match self {
            CrashReason::Halt => "halt",
            CrashReason::SafetyEscape => "escape",
            CrashReason::Watchdog => "watchdog",
            CrashReason::FuelExhausted => "fuel",
        }
    }
}

impl std::fmt::Display for CrashReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a bundle could not be loaded. Mirrors the snapshot rejection
/// taxonomy; parsing never partially applies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BundleError {
    /// The bundle ends before the advertised content.
    Truncated {
        /// Bytes the parser needed.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first four bytes are not [`BUNDLE_MAGIC`].
    BadMagic([u8; 4]),
    /// The bundle was written by a different format version.
    BadVersion {
        /// Version in the bundle header.
        found: u32,
        /// Version this build loads.
        expected: u32,
    },
    /// The payload checksum does not match (bit rot / tampering).
    Corrupt {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload parsed but described an impossible bundle.
    Malformed(String),
    /// The embedded snapshot was rejected during replay.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Truncated { need, have } => {
                write!(f, "truncated bundle: need {need} bytes, have {have}")
            }
            BundleError::BadMagic(m) => write!(f, "bad magic {m:02x?} (not an SVA crash bundle)"),
            BundleError::BadVersion { found, expected } => {
                write!(
                    f,
                    "bundle format version {found}, this build loads {expected}"
                )
            }
            BundleError::Corrupt { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            BundleError::Malformed(s) => write!(f, "malformed bundle: {s}"),
            BundleError::Snapshot(e) => write!(f, "embedded snapshot: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<SnapshotError> for BundleError {
    fn from(e: SnapshotError) -> BundleError {
        BundleError::Snapshot(e)
    }
}

impl From<CodecError> for BundleError {
    fn from(e: CodecError) -> BundleError {
        match e {
            CodecError::Truncated { need, have } => BundleError::Truncated { need, have },
            CodecError::BadMagic(m) => BundleError::BadMagic(m),
            CodecError::BadVersion { found, newest } => BundleError::BadVersion {
                found,
                expected: newest,
            },
            CodecError::Corrupt { stored, computed } => BundleError::Corrupt { stored, computed },
            e => BundleError::Malformed(e.to_string()),
        }
    }
}

/// One recovery domain at capture time, innermost last in
/// [`CrashBundle::domains`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainDump {
    /// Owning-subsystem id.
    pub subsys: u64,
    /// Watchdog fuel remaining.
    pub fuel: u64,
    /// Pools quarantined within this domain's scope.
    pub quarantined_pools: Vec<u32>,
}

/// One crash, fully described. See the module docs for the layout.
#[derive(Clone, Debug, PartialEq)]
pub struct CrashBundle {
    /// What killed the machine.
    pub reason: CrashReason,
    /// The halt code ([`CrashReason::Halt`] only; 0 otherwise).
    pub halt_code: u64,
    /// Raw `recov_last_code` guest global at capture (0 when the kernel
    /// has no such global or no unwind ever wrote it). Decode with
    /// [`CrashBundle::resume_code`].
    pub resume_code_raw: u64,
    /// Human-readable capture context (the abort expression, the escaped
    /// check's provenance, ...).
    pub detail: String,
    /// Which vCPU was executing when the machine died (0 on classic
    /// single-CPU machines; the forked vCPU's id under [`crate::SmpMachine`]).
    pub cpu: u32,
    /// The machine's config fingerprint words (same order as the
    /// snapshot format), from which [`CrashBundle::vm_config`] rebuilds
    /// a replay config.
    pub config_words: [u64; FP_FIELDS.len()],
    /// FNV identity of the bytecode of the module the machine was running.
    pub code_id: u64,
    /// Execution statistics at capture.
    pub stats: VmStats,
    /// Console bytes at capture.
    pub console: Vec<u8>,
    /// The recovery-domain stack, innermost last.
    pub domains: Vec<DomainDump>,
    /// Per-metapool forensic summaries.
    pub pools: Vec<PoolSummary>,
    /// Nonzero `subsys_health` entries as `(subsystem index, packed
    /// health word)` — the 3-state health machine of nested-recovery
    /// kernels (DESIGN.md §4.8: state, strikes, probation credits,
    /// backoff delay, due tick).
    pub health: Vec<(u64, u64)>,
    /// The flight-recorder tail (black-box timeline), oldest first.
    pub flight: Vec<TimedEvent>,
    /// The full machine snapshot at capture ([`Vm::restore`] it to
    /// reproduce the death).
    pub snapshot: Vec<u8>,
}

impl CrashBundle {
    /// The decoded resume code, if an unwind ever wrote one.
    pub fn resume_code(&self) -> Option<ResumeCode> {
        ResumeCode::decode(self.resume_code_raw)
    }

    /// Rebuilds the [`VmConfig`] the captured machine ran under, for
    /// replay. Fuel is left unlimited (the bundle's snapshot carries the
    /// machine's remaining fuel) and no fault hook is attached — replay
    /// reproduces the death from the captured state, not the campaign.
    pub fn vm_config(&self) -> Result<VmConfig, BundleError> {
        let w = &self.config_words;
        let kind = match w[0] {
            0 => KernelKind::Native,
            1 => KernelKind::SvaGcc,
            2 => KernelKind::SvaLlvm,
            3 => KernelKind::SvaSafe,
            v => return Err(BundleError::Malformed(format!("bad kernel kind {v}"))),
        };
        for (differs, what) in [
            (w[1] != SIGN_KEY_WORD, "another signing key"),
            (w[8] != 0, "a hot profile"),
            (w[3] != w[4], "mixed lookup switches"),
        ] {
            if differs {
                return Err(BundleError::Malformed(format!(
                    "bundle was captured under {what}; replay cannot reconstruct it"
                )));
            }
        }
        Ok(VmConfig {
            kind,
            opt_level: w[2] as u8,
            fast_path: w[3] != 0,
            violation_budget: w[5] as u32,
            domain_fuel: w[6],
            vcpus: (w[9] as u32).max(1),
            ..VmConfig::default()
        })
    }

    /// Serializes the bundle (header + checksummed payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ImageWriter::new();
        w.u8(self.reason.to_code());
        w.u64(self.halt_code);
        w.u64(self.resume_code_raw);
        w.str(&self.detail);
        w.u32(self.cpu);
        for word in self.config_words {
            w.u64(word);
        }
        w.u64(self.code_id);
        for word in self.stats.to_words() {
            w.u64(word);
        }
        w.bytes(&self.console);
        w.seq(&self.domains, |w, d| {
            w.u64(d.subsys);
            w.u64(d.fuel);
            w.seq(&d.quarantined_pools, |w, &p| w.u32(p));
        });
        w.seq(&self.pools, |w, p| {
            w.u32(p.id);
            w.str(&p.name);
            w.bool(p.complete);
            w.u64(p.live_objects);
            w.u64(p.checks);
            w.u32(p.violations);
            w.bool(p.quarantined);
            w.bool(p.poisoned);
            w.u32(p.repairs);
        });
        w.seq(&self.health, |w, &(i, v)| {
            w.u64(i);
            w.u64(v);
        });
        let jsonl = self
            .flight
            .iter()
            .map(|e| e.to_json())
            .collect::<Vec<_>>()
            .join("\n");
        w.str(&jsonl);
        w.bytes(&self.snapshot);
        frame(BUNDLE_MAGIC, BUNDLE_VERSION, &[], w.as_bytes())
    }

    /// Parses a serialized bundle, fail-closed: any truncation,
    /// checksum mismatch or malformed section rejects the whole bundle.
    /// Only [`BUNDLE_VERSION`] is accepted; `migrate_bundle` migrates the
    /// embedded snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<CrashBundle, BundleError> {
        decode_bundle(bytes).map_err(BundleError::from)
    }
}

/// Decodes an `SVAB` bundle, header and payload: the one bundle decoder.
pub(crate) fn decode_bundle(bytes: &[u8]) -> Result<CrashBundle, CodecError> {
    let f = unframe(bytes, BUNDLE_MAGIC, BUNDLE_VERSION..=BUNDLE_VERSION, 0)?;
    let r = &mut ImageReader::new(f.payload);
    let reason_code = r.u8()?;
    let reason = CrashReason::from_code(reason_code).ok_or(CodecError::Invalid {
        what: "crash reason",
        value: reason_code as u64,
    })?;
    let halt_code = r.u64()?;
    let resume_code_raw = r.u64()?;
    let detail = r.str()?.to_owned();
    let cpu = r.u32()?;
    let config_words = r.u64s()?;
    let code_id = r.u64()?;
    let stats = VmStats::from_words(r.u64s()?);
    let console = r.bytes()?.to_vec();
    let domains = r.vec(24, |r| {
        Ok(DomainDump {
            subsys: r.u64()?,
            fuel: r.u64()?,
            quarantined_pools: r.vec(4, |r| r.u32())?,
        })
    })?;
    let pools = r.vec(4 + 8 + 1 + 8 + 8 + 4 + 2, |r| {
        Ok(PoolSummary {
            id: r.u32()?,
            name: r.str()?.to_owned(),
            complete: r.bool()?,
            live_objects: r.u64()?,
            checks: r.u64()?,
            violations: r.u32()?,
            quarantined: r.bool()?,
            poisoned: r.bool()?,
            repairs: r.u32()?,
        })
    })?;
    let health = r.vec(16, |r| Ok((r.u64()?, r.u64()?)))?;
    let flight = r
        .str()?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            TimedEvent::from_json(line).ok_or(CodecError::Invalid {
                what: "flight event",
                value: i as u64,
            })
        })
        .collect::<Result<_, _>>()?;
    let snapshot = r.bytes()?.to_vec();
    r.finish()?;
    Ok(CrashBundle {
        reason,
        halt_code,
        resume_code_raw,
        detail,
        cpu,
        config_words,
        code_id,
        stats,
        console,
        domains,
        pools,
        health,
        flight,
        snapshot,
    })
}

/// Host-side crash-capture state on a [`Vm`]. Never serialized into
/// snapshots (a restored machine keeps *its own* capture settings), off
/// by default, so machines that never opt in are untouched.
#[derive(Default)]
pub(crate) struct CrashCapture {
    pub(crate) enabled: bool,
    pub(crate) dir: Option<PathBuf>,
    pub(crate) tag: String,
    pub(crate) last_bundle: Option<CrashBundle>,
}

impl<T: Tracer> Vm<T> {
    /// Turns on crash capture: any terminal event (nonzero halt, safety
    /// escape, watchdog force-unwind, fuel exhaustion under an armed
    /// fault hook) snapshots the machine into a [`CrashBundle`]. With
    /// `dir` set the bundle is also written to
    /// `dir/{tag}-{reason}.bundle`; [`Vm::take_crash_bundle`] takes the
    /// latest capture.
    pub fn enable_crash_capture(&mut self, dir: Option<&Path>, tag: &str) {
        self.crash.enabled = true;
        self.crash.dir = dir.map(Path::to_path_buf);
        self.crash.tag = tag.to_string();
    }

    /// Turns crash capture off (campaigns disable it around probe phases
    /// so a dying probe cannot overwrite the real death's bundle).
    pub fn disable_crash_capture(&mut self) {
        self.crash.enabled = false;
    }

    /// Takes ownership of the most recent crash bundle.
    pub fn take_crash_bundle(&mut self) -> Option<CrashBundle> {
        self.crash.last_bundle.take()
    }

    /// Captures the machine into a bundle now. Called by the interpreter
    /// at terminal events; public so harnesses can force a capture (e.g.
    /// a golden bundle for CI).
    pub fn capture_crash(&mut self, reason: CrashReason, halt_code: u64, detail: String) {
        if !self.crash.enabled {
            return;
        }
        let snapshot = self.snapshot();
        let resume_code_raw = self.read_global_u64("recov_last_code").unwrap_or(0);
        let mut health = Vec::new();
        if let Some(gid) = self.code.module.global_by_name("subsys_health") {
            let idx = gid.0 as usize;
            let base = self.code.global_addr[idx];
            let size = self
                .code
                .module
                .types
                .size_of(self.code.module.globals[idx].ty);
            for i in 0..size / 8 {
                let word = self
                    .mem
                    .read_uint(base + i * 8, 8, Mode::Kernel)
                    .unwrap_or(0);
                if word != 0 {
                    health.push((i, word));
                }
            }
        }
        let bundle = CrashBundle {
            reason,
            halt_code,
            resume_code_raw,
            detail,
            cpu: self.cpu_id,
            config_words: fingerprint_words(&self.cfg, self.fused_sites()),
            code_id: self.code_identity(),
            stats: self.stats(),
            console: self.console.clone(),
            domains: self
                .recovery
                .iter()
                .map(|rc| DomainDump {
                    subsys: rc.subsys,
                    fuel: rc.fuel,
                    quarantined_pools: rc.quarantined_pools.clone(),
                })
                .collect(),
            pools: self.pools.summaries(),
            health,
            flight: self.tracer.recent_events(),
            snapshot,
        };
        if let Some(dir) = self.crash.dir.clone() {
            let tag = if self.crash.tag.is_empty() {
                "crash"
            } else {
                &self.crash.tag
            };
            let path = dir.join(format!("{tag}-{}.bundle", reason.name()));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, bundle.to_bytes());
        }
        self.crash.last_bundle = Some(bundle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sva_ir::parse::parse_module;

    #[test]
    fn bundles_under_retired_config_words_refuse_replay() {
        let m = parse_module("module \"m\"\nfunc public @f() : i64 {\nentry:\n  ret 0:i64\n}\n")
            .expect("parse");
        let cfg = VmConfig {
            kind: KernelKind::SvaLlvm,
            ..Default::default()
        };
        let mut vm = Vm::new(m, cfg).expect("load");
        vm.enable_crash_capture(None, "t");
        vm.capture_crash(CrashReason::Halt, 41, String::new());
        let bundle = vm.take_crash_bundle().expect("bundle");
        assert!(bundle.vm_config().is_ok());
        // Word 8 nonzero: an older build's capture under a hot-function
        // profile. Words 3 and 4 apart: one under mixed lookup switches.
        for (word, value) in [(8, 0xfeed), (4, 0)] {
            let mut b = bundle.clone();
            b.config_words[word] = value;
            assert!(
                matches!(b.vm_config(), Err(BundleError::Malformed(_))),
                "word {word}"
            );
        }
    }
}

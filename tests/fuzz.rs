//! Fuzz smoke: the bytecode decoder, verifier, a fueled VM, the
//! snapshot, bundle and quiesce containers and the migration layer must
//! never panic the host, no matter what bytes they are fed. Structured
//! errors are fine — `unwrap`-style crashes are not (proptest turns any
//! panic into a test failure). The shared codec under all of them is
//! fuzzed directly too: a writer→reader round trip over random field
//! sequences.

use proptest::prelude::*;

use sva::ir::build::FunctionBuilder;
use sva::ir::bytecode::{decode_module, encode_module};
use sva::ir::codec::{frame, header_len, CodecError, Reader, Writer};
use sva::ir::parse::parse_module;
use sva::ir::{Linkage, Module, Operand};
use sva::vm::{
    decode_quiesce, encode_quiesce, migrate_bundle, plan, reencode_at, CrashBundle, CrashReason,
    KernelKind, Vm, VmConfig, VmError, BUNDLE_MAGIC, BUNDLE_VERSION, OLDEST_SUPPORTED,
    QUIESCE_MAGIC, QUIESCE_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

/// Decode → verify → load → run, swallowing every structured error. The
/// verifier gates execution exactly like the production loader does
/// (unverifiable bytecode is rejected, never run), but decoding and
/// verification themselves must survive arbitrary input.
fn exercise(bytes: &[u8]) {
    let Ok(m) = decode_module(bytes) else { return };
    if !sva::ir::verify::verify_module(&m).is_empty() {
        return;
    }
    let names: Vec<String> = m.funcs.iter().map(|f| f.name.clone()).take(4).collect();
    for kind in [KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        let Ok(mut vm) = Vm::new(
            m.clone(),
            VmConfig {
                kind,
                fuel: 20_000,
                ..Default::default()
            },
        ) else {
            continue;
        };
        for name in &names {
            let _ = vm.call(name, &[1, 0x4000]);
        }
    }
}

/// A tiny but well-formed module whose encoding the mutation tests start
/// from — flipped bytes then explore the decoder's deep paths.
fn seed_module(k: u64) -> Module {
    let mut m = Module::new("fuzz_seed");
    let i64t = m.types.i64();
    let fnty = m.types.func(i64t, vec![i64t], false);
    let f = m.add_function("seed", fnty, Linkage::Public);
    m.intern_address_types();
    let mut b = FunctionBuilder::new(&mut m, f);
    let p = b.param(0);
    let c = Operand::ConstInt(k as i64, i64t);
    let t = b.add(p, c);
    let t2 = b.mul(t, p);
    b.ret(Some(t2));
    m
}

// --- snapshot / bundle migration (DESIGN.md §4.10) ------------------------

/// A mid-run machine image at the given opt level — the well-formed
/// SVA1 artifact the mutation tests corrupt. Built once per opt level;
/// the guest is a counted loop so the cut lands inside a live frame.
fn migration_seed(opt_level: u8) -> (Vm, Vec<u8>) {
    let src = r#"
module "m"
func public @work(%n0: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, body: %i2]
  %acc:i64 = phi i64 [entry: %n0, body: %acc3]
  %done:i1 = icmp uge %i, 40:i64
  condbr %done, out, body
body:
  %t:i64 = mul %acc, 3:i64
  %acc2:i64 = add %t, 5:i64
  %acc3:i64 = xor %acc2, 7:i64
  %i2:i64 = add %i, 1:i64
  br loop
out:
  ret %acc
}
"#;
    let cfg = |fuel| VmConfig {
        kind: KernelKind::SvaLlvm,
        opt_level,
        fuel,
        ..Default::default()
    };
    let mut vm = Vm::new(parse_module(src).unwrap(), cfg(120)).unwrap();
    match vm.call("work", &[9]) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("seed cut did not interrupt: {r:?}"),
    }
    let img = vm.snapshot();
    (
        Vm::new(parse_module(src).unwrap(), cfg(u64::MAX)).unwrap(),
        img,
    )
}

/// Feed damaged bytes through every migration entry point. Each call
/// must return a structured error (or, by luck, succeed) — never panic.
fn exercise_migration(target: &mut Vm, bytes: &[u8]) {
    let _ = plan(bytes);
    for to in OLDEST_SUPPORTED..SNAPSHOT_VERSION {
        let _ = reencode_at(bytes, to);
    }
    let _ = target.restore_migrated(bytes);
    let _ = migrate_bundle(target, bytes);
}

/// Mutates a well-formed artifact: bit flips, then optional truncation
/// (a distinct failure mode from corruption).
fn damage(bytes: &mut Vec<u8>, flips: &[usize], cut: bool, k: u64) {
    for &bit in flips {
        let pos = bit % (bytes.len() * 8);
        bytes[pos / 8] ^= 1 << (pos % 8);
    }
    if cut && bytes.len() > 8 {
        let keep = 8 + k as usize % (bytes.len() - 8);
        bytes.truncate(keep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decoder_and_vm_survive_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        exercise(&bytes);
    }

    #[test]
    fn decoder_and_vm_survive_mutated_modules(
        k in any::<u64>(),
        flips in prop::collection::vec(0usize..4096, 1..12),
        cut in any::<bool>(),
    ) {
        let mut bytes = encode_module(&seed_module(k));
        for bit in flips {
            let pos = bit % (bytes.len() * 8);
            bytes[pos / 8] ^= 1 << (pos % 8);
        }
        if cut && bytes.len() > 8 {
            // Truncation is a distinct failure mode from corruption.
            let keep = 8 + k as usize % (bytes.len() - 8);
            bytes.truncate(keep);
        }
        exercise(&bytes);
    }
}

/// Body of `migration_survives_mutated_snapshots`: a damaged SVA1
/// machine image through the whole migration surface — plan, the v3
/// re-encode, `restore_migrated` — at the given translation tier.
/// Mutating the version byte steers cases into the v3 path and into the
/// retired and future versions, which must also fail closed.
fn check_mutated_snapshot(opt: u8, flips: &[usize], cut: bool, k: u64) {
    let (mut target, img) = migration_seed(opt);
    let mut bytes = img;
    damage(&mut bytes, flips, cut, k);
    exercise_migration(&mut target, &bytes);
}

/// Body of `migration_survives_mutated_bundles`: the same sweep over an
/// SVAB crash bundle wrapping a valid snapshot — the bundle decoder and
/// the embedded-snapshot migration must both survive arbitrary damage.
fn check_mutated_bundle(opt: u8, flips: &[usize], cut: bool, k: u64) {
    let (mut target, img) = migration_seed(opt);
    let code_id = plan(&img).unwrap().code_id;
    let bundle = CrashBundle {
        reason: CrashReason::Halt,
        halt_code: 41,
        resume_code_raw: 0,
        detail: "fuzz seed".to_string(),
        cpu: 0,
        config_words: [0; 10],
        code_id,
        stats: Default::default(),
        console: b"fuzz".to_vec(),
        domains: Vec::new(),
        pools: Vec::new(),
        health: Vec::new(),
        flight: Vec::new(),
        snapshot: img,
    };
    let mut bytes = bundle.to_bytes();
    damage(&mut bytes, flips, cut, k);
    exercise_migration(&mut target, &bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn migration_survives_mutated_snapshots(
        opt in prop::sample::select(vec![0u8, 2]),
        flips in prop::collection::vec(0usize..320_000, 1..12),
        cut in any::<bool>(),
        k in any::<u64>(),
    ) {
        check_mutated_snapshot(opt, &flips, cut, k);
    }

    #[test]
    fn migration_survives_mutated_bundles(
        opt in prop::sample::select(vec![0u8, 2]),
        flips in prop::collection::vec(0usize..400_000, 1..12),
        cut in any::<bool>(),
        k in any::<u64>(),
    ) {
        check_mutated_bundle(opt, &flips, cut, k);
    }
}

// --- every container entry point -----------------------------------------

/// The three containers as `(magic, accepted versions, extra header
/// bytes)`: the extra bytes are `config_fp` and `code_id` (SVA1), none
/// (SVAB) and the member count (SVAQ).
const CONTAINERS: [([u8; 4], std::ops::RangeInclusive<u32>, usize); 3] = [
    (SNAPSHOT_MAGIC, OLDEST_SUPPORTED..=SNAPSHOT_VERSION, 16),
    (BUNDLE_MAGIC, BUNDLE_VERSION..=BUNDLE_VERSION, 0),
    (QUIESCE_MAGIC, QUIESCE_VERSION..=QUIESCE_VERSION, 4),
];

/// Runs `bytes` through every entry point that decodes a container and
/// reports, per entry point, whether it rejected them.
fn entry_points(target: &mut Vm, bytes: &[u8]) -> [(&'static str, bool); 7] {
    [
        ("Vm::restore", target.restore(bytes).is_err()),
        ("restore_migrated", target.restore_migrated(bytes).is_err()),
        ("plan", plan(bytes).is_err()),
        (
            "reencode_at",
            (OLDEST_SUPPORTED..SNAPSHOT_VERSION).all(|to| reencode_at(bytes, to).is_err()),
        ),
        (
            "CrashBundle::from_bytes",
            CrashBundle::from_bytes(bytes).is_err(),
        ),
        ("migrate_bundle", migrate_bundle(target, bytes).is_err()),
        ("decode_quiesce", decode_quiesce(bytes).is_err()),
    ]
}

/// A bare header of each container whose `payload_len` is near 2^64:
/// `header + payload_len` overflows or exceeds any input, and every entry
/// point must say so with an error, never an arithmetic panic or an
/// out-of-range slice.
#[test]
fn overflowing_payload_lengths_are_rejected_everywhere() {
    let (mut target, _) = migration_seed(0);
    for (magic, versions, extra) in CONTAINERS {
        let header = header_len(extra);
        for len in [u64::MAX, 0u64.wrapping_sub(header as u64), 1 << 63] {
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&versions.end().to_le_bytes());
            bytes.resize(8 + extra, 0);
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&[0; 8]);
            assert_eq!(bytes.len(), header);
            for (entry, rejected) in entry_points(&mut target, &bytes) {
                assert!(
                    rejected,
                    "{entry} accepted a {magic:?} header of length {len:#x}"
                );
            }
        }
    }
}

/// Body of `quiesce_containers_survive_mutation`: an `SVAQ` container of
/// two member images, damaged either as a container or (framed intact)
/// in its second member; every member that decodes goes through
/// `restore_migrated`.
fn check_mutated_quiesce(opt: u8, flips: &[usize], cut: bool, k: u64, in_member: bool) {
    let (mut target, img) = migration_seed(opt);
    let mut member = img.clone();
    if in_member {
        damage(&mut member, flips, cut, k);
    }
    let mut bytes = encode_quiesce(&[img, member]);
    if !in_member {
        damage(&mut bytes, flips, cut, k);
    }
    if let Ok(members) = decode_quiesce(&bytes) {
        assert_eq!(members.len(), 2, "a container decoded without both members");
        for m in &members {
            let _ = target.restore_migrated(m);
        }
    }
}

/// Body of `containers_survive_random_bytes`: random bytes behind a
/// container's magic and a version it accepts — raw, or framed with a
/// valid checksum so that they reach the payload decoders.
fn check_random_container(which: usize, vpick: u32, framed: bool, body: &[u8]) {
    let (mut target, _) = migration_seed(0);
    let (magic, versions, extra) = CONTAINERS[which % CONTAINERS.len()].clone();
    let span = versions.end() - versions.start() + 1;
    let version = versions.start() + vpick % span;
    let bytes = if framed {
        let split = extra.min(body.len());
        frame(magic, version, &body[..split], &body[split..])
    } else {
        let mut b = magic.to_vec();
        b.extend_from_slice(&version.to_le_bytes());
        b.extend_from_slice(body);
        b
    };
    entry_points(&mut target, &bytes);
}

/// One primitive field as the round-trip proptest draws it: a kind and
/// the raw material for its value.
type Field = (u8, u64, Vec<u8>);

fn write_field<const P: usize>(w: &mut Writer<P>, (kind, v, b): &Field) {
    match kind % 8 {
        0 => w.u8(*v as u8),
        1 => w.bool(v & 1 == 1),
        2 => w.u32(*v as u32),
        3 => w.u64(*v),
        4 => w.i64(*v as i64),
        5 => w.bytes(b),
        6 => w.str(&String::from_utf8_lossy(b)),
        _ => w.opt((v & 1 == 1).then_some(*v as u32), Writer::<P>::u32),
    }
}

/// Reads the field [`write_field`] wrote; `Ok(false)` on a wrong value.
fn read_field<const P: usize>(
    r: &mut Reader<'_, P>,
    (kind, v, b): &Field,
) -> Result<bool, CodecError> {
    Ok(match kind % 8 {
        0 => r.u8()? == *v as u8,
        1 => r.bool()? == (v & 1 == 1),
        2 => r.u32()? == *v as u32,
        3 => r.u64()? == *v,
        4 => r.i64()? == *v as i64,
        5 => r.bytes()? == &b[..],
        6 => r.str()? == String::from_utf8_lossy(b),
        _ => r.opt(|r| r.u32())? == (v & 1 == 1).then_some(*v as u32),
    })
}

/// Writes `fields` with `P`-byte prefixes, reads them back exactly and
/// to the last byte, then requires the input cut at `cut` to fail.
fn check_round_trip<const P: usize>(fields: &[Field], cut: usize) {
    let mut w = Writer::<P>::new();
    for f in fields {
        write_field(&mut w, f);
    }
    let bytes = w.into_bytes();
    let mut r = Reader::<P>::new(&bytes);
    for f in fields {
        assert_eq!(read_field(&mut r, f), Ok(true), "field {f:?}");
    }
    assert_eq!(r.finish(), Ok(()));
    if !bytes.is_empty() {
        let mut r = Reader::<P>::new(&bytes[..cut % bytes.len()]);
        let all = fields
            .iter()
            .try_for_each(|f| read_field(&mut r, f).map(drop));
        assert!(all.is_err(), "a truncated field sequence read back in full");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quiesce_containers_survive_mutation(
        opt in prop::sample::select(vec![0u8, 2]),
        flips in prop::collection::vec(0usize..640_000, 1..12),
        cut in any::<bool>(),
        k in any::<u64>(),
        in_member in any::<bool>(),
    ) {
        check_mutated_quiesce(opt, &flips, cut, k, in_member);
    }

    #[test]
    fn containers_survive_random_bytes(
        which in 0usize..3,
        vpick in any::<u32>(),
        framed in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_random_container(which, vpick, framed, &body);
    }

    #[test]
    fn codec_round_trips_random_field_sequences(
        fields in prop::collection::vec(
            (any::<u8>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..24)),
            0..48,
        ),
        cut in any::<usize>(),
    ) {
        check_round_trip::<4>(&fields, cut);
        check_round_trip::<8>(&fields, cut);
    }
}

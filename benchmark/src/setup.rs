//! The set-up chain every workload pays before its first guest
//! instruction: build the kernel from source, safety-compile and verify
//! it, and load a machine for each configuration the workload runs.

use std::time::Instant;

use sva_analysis::{analyze, AnalysisConfig};
use sva_core::compile::{compile, CompileOptions};
use sva_core::verifier::verify_and_insert_checks;
use sva_ir::bytecode::{decode_module, encode_module};
use sva_ir::Module;
use sva_kernel::build::{build_kernel, KernelOptions};
use sva_kernel::AS_TESTED_EXCLUSIONS;
use sva_vm::{KernelKind, Vm, VmConfig};

use crate::metrics::Values;
use crate::stats::median;

/// The two kernel images a workload runs: the raw build (native and
/// sva-llvm machines) and the safety-compiled, verified build (sva-safe).
#[derive(Clone)]
pub struct Kernels {
    pub raw: Module,
    pub safe: Module,
}

impl Kernels {
    pub fn for_kind(&self, kind: KernelKind) -> Module {
        if kind.checks() {
            self.safe.clone()
        } else {
            self.raw.clone()
        }
    }
}

fn analysis_config() -> AnalysisConfig {
    AnalysisConfig::kernel_excluding(AS_TESTED_EXCLUSIONS)
}

fn safety_compile(m: Module) -> Module {
    let compiled = compile(m, &analysis_config(), &CompileOptions::default());
    verify_and_insert_checks(compiled.module)
        .expect("the kernel passes metapool verification")
        .module
}

/// One cold set-up: build from source, compile, verify, and load one
/// machine per entry of `loads`. Returns the kernels and the seconds it
/// took.
pub fn cold(safe_opts: &KernelOptions, loads: &[VmConfig]) -> (Kernels, f64) {
    let t = Instant::now();
    let raw = build_kernel(&KernelOptions::default());
    let safe_src = if safe_opts.recovery || safe_opts.nested || safe_opts.patch_salt != 0 {
        build_kernel(safe_opts)
    } else {
        raw.clone()
    };
    let kernels = Kernels {
        raw,
        safe: safety_compile(safe_src),
    };
    for cfg in loads {
        std::hint::black_box(
            Vm::new(kernels.for_kind(cfg.kind), cfg.clone()).expect("kernel loads"),
        );
    }
    (kernels, t.elapsed().as_secs_f64())
}

/// Times each stage of the safe kernel's set-up chain separately (median
/// of `reps`), for the per-layer report.
pub fn layers(safe_opts: &KernelOptions, cfg: &VmConfig, reps: usize, v: &mut Values) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut t_build = Vec::new();
    let mut t_analyze = Vec::new();
    let mut t_compile = Vec::new();
    let mut t_verify = Vec::new();
    let mut t_encode = Vec::new();
    let mut t_decode = Vec::new();
    let mut t_load = Vec::new();
    let mut bytecode_len = 0;
    let mut fused_sites = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let built = build_kernel(safe_opts);
        t_build.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(analyze(&built, &analysis_config()));
        t_analyze.push(ms(t));
        let t = Instant::now();
        let compiled = compile(built, &analysis_config(), &CompileOptions::default());
        t_compile.push(ms(t));
        let t = Instant::now();
        let safe = verify_and_insert_checks(compiled.module)
            .expect("the kernel passes metapool verification")
            .module;
        t_verify.push(ms(t));
        let t = Instant::now();
        let bytes = encode_module(&safe);
        t_encode.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(decode_module(&bytes).expect("own bytecode decodes"));
        t_decode.push(ms(t));
        bytecode_len = bytes.len();
        let t = Instant::now();
        let vm = Vm::new(safe, cfg.clone()).expect("kernel loads");
        t_load.push(ms(t));
        fused_sites = vm.fused_sites();
    }
    v.set("sva-kernel.build_ms", median(&t_build));
    v.set("sva-analysis.analyze_ms", median(&t_analyze));
    v.set("sva-core.compile_ms", median(&t_compile));
    v.set("sva-core.verify_ms", median(&t_verify));
    v.set("sva-ir.encode_ms", median(&t_encode));
    v.set("sva-ir.decode_ms", median(&t_decode));
    v.set("sva-ir.bytecode_kb", bytecode_len as f64 / 1024.0);
    v.set("sva-vm.load_ms", median(&t_load));
    v.set("sva-vm.fused_sites", f64::from(fused_sites));
}

//! The dump driver's text is pinned: `emit_driver` output must stay
//! byte-identical for a portable unit, a native AVX2 unit and a unit
//! with a window argument. Benchmarks rewrite its `int main(void) {`
//! line and the prelude cache keys on its leading lines, so any change
//! here is a change to what they measure.
//!
//! The expected drivers are in `tests/golden/`. A deliberate change to
//! the emitter regenerates them by writing `driver(..)` to those files.

use exo_codegen::difftest::{emit_driver, synth_inputs};
use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::{ib, var, DataType, Mem, Proc, ProcBuilder};
use exo_kernels::{axpy, scal, Precision};
use exo_lib::optimize_level_1;
use exo_machine::MachineModel;

/// `x[i, j] *= 2` over an `n × 4` window argument.
fn window_scale() -> Proc {
    ProcBuilder::new("win_scale")
        .size_arg("n")
        .window_arg("x", DataType::F32, vec![var("n"), ib(4)], Mem::Dram)
        .for_("i", ib(0), var("n"), |b| {
            b.for_("j", ib(0), ib(4), |b| {
                let v = b.read("x", vec![var("i"), var("j")]) * exo_ir::fb(2.0);
                b.assign("x", vec![var("i"), var("j")], v);
            });
        })
        .build()
}

/// The vectorized AVX2 saxpy of the level-1 library.
fn avx2_saxpy() -> Proc {
    let machine = MachineModel::avx2();
    let p = ProcHandle::new(axpy(Precision::Single));
    let i = p.find_loop("i").unwrap();
    optimize_level_1(&p, &i, DataType::F32, &machine, 2)
        .unwrap()
        .proc()
        .clone()
}

fn driver(proc: &Proc, registry: &ProcRegistry, opts: &CodegenOptions) -> String {
    let unit = emit_c(proc, registry, opts).unwrap();
    let inputs = synth_inputs(proc, 3).unwrap();
    emit_driver(&unit, proc, &inputs)
}

fn check(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        got == want,
        "{name}: emit_driver output changed (first difference at byte {})",
        got.bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()))
    );
}

#[test]
fn portable_dump_driver_is_unchanged() {
    let got = driver(
        &scal(Precision::Single),
        &ProcRegistry::new(),
        &CodegenOptions::portable(),
    );
    check("sscal_portable.c", &got);
}

#[test]
fn native_avx2_dump_driver_is_unchanged() {
    let registry: ProcRegistry = MachineModel::avx2()
        .instructions(DataType::F32)
        .into_iter()
        .collect();
    let got = driver(&avx2_saxpy(), &registry, &CodegenOptions::native());
    assert!(got.contains("#include <immintrin.h>"), "{got}");
    check("saxpy_avx2.c", &got);
}

#[test]
fn window_argument_dump_driver_is_unchanged() {
    let got = driver(
        &window_scale(),
        &ProcRegistry::new(),
        &CodegenOptions::portable(),
    );
    assert!(
        got.contains("(struct exo_win_2f32){ exo_arg_1, { 4, 1 } }"),
        "{got}"
    );
    check("win_scale_window.c", &got);
}

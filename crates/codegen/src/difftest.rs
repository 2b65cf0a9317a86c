//! Compile-and-run differential testing: emitted C versus the
//! interpreter.
//!
//! The harness synthesizes concrete inputs from a procedure's signature
//! (sizes that satisfy its assertions, integer-valued random tensor data
//! so every intermediate is exactly representable in the narrowest C
//! type involved), runs the slot-indexed interpreter, emits portable C,
//! compiles it with the system C compiler, runs the binary, and asserts
//! per-element agreement on **every** tensor argument (all tensors are
//! treated as in/out).
//!
//! When no C compiler is on `PATH` the harness returns
//! [`DiffOutcome::Skipped`] and callers log a notice instead of failing —
//! CI always has `cc`, so the check cannot rot silently there.

use crate::{emit_c, pch, CUnit, CodegenOptions};
use exo_guard::{run_guarded, GuardConfig};
use exo_interp::{ArgValue, Interpreter, NullMonitor, ProcRegistry};
use exo_ir::{ArgKind, BinOp, DataType, Expr, Proc, UnOp};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Supervision policy for `cc` invocations: generous wall-clock limit
/// (optimizing large units is slow under load), bounded diagnostics.
fn compile_guard() -> GuardConfig {
    GuardConfig::with_timeout(Duration::from_secs(120))
}

/// Supervision policy for running compiled test binaries: these print a
/// bounded tensor dump and exit, so a minute of wall clock means a hang.
fn run_guard() -> GuardConfig {
    GuardConfig::with_timeout(Duration::from_secs(60))
}

/// One synthesized argument, aligned with the procedure's signature.
#[derive(Clone, Debug, PartialEq)]
pub enum SynthArg {
    /// A `size` argument value.
    Size(i64),
    /// A floating-point scalar argument.
    Float(f64),
    /// An integer scalar argument.
    Int(i64),
    /// A boolean scalar argument.
    Bool(bool),
    /// A tensor argument: concrete dimensions and row-major data.
    Tensor {
        /// Concrete dimension sizes.
        dims: Vec<usize>,
        /// Row-major element values.
        data: Vec<f64>,
        /// Declared element type.
        elem: DataType,
        /// Whether the parameter is declared as a window.
        window: bool,
    },
}

/// Outcome of one differential run.
#[derive(Clone, Debug)]
pub enum DiffOutcome {
    /// The compiled C agreed with the interpreter.
    Agreed {
        /// Number of tensor buffers compared.
        buffers: usize,
        /// Total elements compared.
        elems: usize,
    },
    /// The check could not run (no C compiler); the payload says why.
    Skipped(String),
}

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    /// Uniform integer in `[lo, hi]`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Whether a C compiler (`cc`) is available on `PATH`. Cached.
pub fn cc_available() -> bool {
    cc_version().is_some()
}

/// The output of `cc --version`, or `None` when there is no working
/// `cc`. Cached.
pub(crate) fn cc_version() -> Option<&'static str> {
    static VERSION: OnceLock<Option<String>> = OnceLock::new();
    VERSION
        .get_or_init(|| {
            // Probe under supervision: a wedged compiler wrapper would
            // otherwise hang every difftest at the very first check.
            let mut cmd = Command::new("cc");
            cmd.arg("--version");
            run_guarded(
                &mut cmd,
                &GuardConfig::with_timeout(Duration::from_secs(15)),
            )
            .ok()
            .filter(|o| o.success)
            .map(|o| o.stdout_lossy())
        })
        .as_deref()
}

fn eval_int(e: &Expr, sizes: &BTreeMap<String, i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Var(s) => sizes.get(s.name()).copied(),
        Expr::Bin { op, lhs, rhs } => {
            let l = eval_int(lhs, sizes)?;
            let r = eval_int(rhs, sizes)?;
            Some(match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div if r != 0 => l.div_euclid(r),
                BinOp::Mod if r != 0 => l.rem_euclid(r),
                _ => return None,
            })
        }
        Expr::Un { op: UnOp::Neg, arg } => Some(-eval_int(arg, sizes)?),
        _ => None,
    }
}

fn eval_pred(e: &Expr, sizes: &BTreeMap<String, i64>) -> Option<bool> {
    if let Expr::Bin { op, lhs, rhs } = e {
        if *op == BinOp::And {
            return Some(eval_pred(lhs, sizes)? && eval_pred(rhs, sizes)?);
        }
        if *op == BinOp::Or {
            return Some(eval_pred(lhs, sizes)? || eval_pred(rhs, sizes)?);
        }
        if op.is_predicate() {
            let l = eval_int(lhs, sizes)?;
            let r = eval_int(rhs, sizes)?;
            return Some(match op {
                BinOp::Lt => l < r,
                BinOp::Le => l <= r,
                BinOp::Gt => l > r,
                BinOp::Ge => l >= r,
                BinOp::Eq => l == r,
                BinOp::Ne => l != r,
                _ => return None,
            });
        }
    }
    None
}

/// Synthesizes concrete arguments for `proc`: one shared size value that
/// satisfies every assertion precondition, and integer-valued random
/// tensor data small enough that all arithmetic is exact in the
/// narrowest type involved (i8 data stays in `[-1, 1]` so even length-64
/// reductions fit an `int8_t` store).
pub fn synth_inputs(proc: &Proc, seed: u64) -> Result<Vec<SynthArg>, String> {
    let size_names: Vec<String> = proc
        .args()
        .iter()
        .filter(|a| matches!(a.kind, ArgKind::Size))
        .map(|a| a.name.name().to_string())
        .collect();
    let mut chosen: Option<BTreeMap<String, i64>> = None;
    for candidate in [32i64, 16, 64, 96, 8, 48, 4, 2, 1] {
        let sizes: BTreeMap<String, i64> =
            size_names.iter().map(|n| (n.clone(), candidate)).collect();
        let ok = proc
            .preds()
            .iter()
            .all(|p| eval_pred(p, &sizes).unwrap_or(false));
        if ok || proc.preds().is_empty() {
            chosen = Some(sizes);
            break;
        }
    }
    let sizes = chosen.ok_or_else(|| {
        format!(
            "no candidate size satisfies the assertions of `{}`",
            proc.name()
        )
    })?;
    let mut rng = Rng::new(seed ^ 0x9E3779B97F4A7C15);
    let mut out = Vec::with_capacity(proc.args().len());
    for arg in proc.args() {
        match &arg.kind {
            ArgKind::Size => out.push(SynthArg::Size(sizes[arg.name.name()])),
            ArgKind::Scalar { ty } => match ty {
                DataType::F32 | DataType::F64 => out.push(SynthArg::Float(rng.range(-3, 3) as f64)),
                DataType::Bool => out.push(SynthArg::Bool(true)),
                _ => out.push(SynthArg::Int(rng.range(-2, 2))),
            },
            ArgKind::Tensor {
                ty, dims, window, ..
            } => {
                let mut cdims = Vec::with_capacity(dims.len());
                for d in dims {
                    let v = eval_int(d, &sizes).ok_or_else(|| {
                        format!("cannot evaluate dimension `{d}` of `{}`", arg.name)
                    })?;
                    if v < 0 {
                        return Err(format!("negative dimension for `{}`", arg.name));
                    }
                    cdims.push(v as usize);
                }
                let n: usize = cdims.iter().product::<usize>().max(1);
                let (lo, hi) = match ty {
                    DataType::I8 => (-1, 1),
                    DataType::I32 => (-2, 2),
                    DataType::Bool => (0, 1),
                    _ => (-8, 8),
                };
                let data: Vec<f64> = (0..n).map(|_| rng.range(lo, hi) as f64).collect();
                out.push(SynthArg::Tensor {
                    dims: cdims,
                    data,
                    elem: *ty,
                    window: *window,
                });
            }
        }
    }
    Ok(out)
}

/// The concrete shape of one procedure argument under a fixed size
/// assignment — what a timing driver needs to allocate and pass
/// (see [`arg_shapes`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgShape {
    /// A size argument and its concrete value.
    Size(i64),
    /// A scalar argument of the given element type.
    Scalar(DataType),
    /// A dense tensor argument: element type and per-dimension extents.
    Tensor(DataType, Vec<usize>),
}

/// Picks one shared value for every size argument of `proc`: the first
/// entry of `candidates` that satisfies all assertion preconditions.
/// The runtime bench uses this with far larger candidates than the
/// differential harness's defaults (whose data must fit in static C
/// initializers).
///
/// # Errors
/// When no candidate satisfies the assertions.
pub fn choose_size(proc: &Proc, candidates: &[i64]) -> Result<i64, String> {
    let size_names: Vec<String> = proc
        .args()
        .iter()
        .filter(|a| matches!(a.kind, ArgKind::Size))
        .map(|a| a.name.name().to_string())
        .collect();
    for candidate in candidates {
        let sizes: BTreeMap<String, i64> =
            size_names.iter().map(|n| (n.clone(), *candidate)).collect();
        if proc.preds().is_empty()
            || proc
                .preds()
                .iter()
                .all(|p| eval_pred(p, &sizes).unwrap_or(false))
        {
            return Ok(*candidate);
        }
    }
    Err(format!(
        "no candidate size in {candidates:?} satisfies the assertions of `{}`",
        proc.name()
    ))
}

/// Evaluates every argument of `proc` to its concrete [`ArgShape`] under
/// one shared size value (as chosen by [`choose_size`]).
///
/// # Errors
/// On window arguments (a timing driver cannot synthesize the window
/// struct ABI) and on dimension expressions that do not reduce to a
/// constant under the size assignment.
pub fn arg_shapes(proc: &Proc, size: i64) -> Result<Vec<ArgShape>, String> {
    let sizes: BTreeMap<String, i64> = proc
        .args()
        .iter()
        .filter(|a| matches!(a.kind, ArgKind::Size))
        .map(|a| (a.name.name().to_string(), size))
        .collect();
    let mut out = Vec::with_capacity(proc.args().len());
    for arg in proc.args() {
        match &arg.kind {
            ArgKind::Size => out.push(ArgShape::Size(size)),
            ArgKind::Scalar { ty } => out.push(ArgShape::Scalar(*ty)),
            ArgKind::Tensor {
                ty, dims, window, ..
            } => {
                if *window {
                    return Err(format!(
                        "`{}`: window argument `{}` is not supported by the timing driver",
                        proc.name(),
                        arg.name
                    ));
                }
                let mut extents = Vec::with_capacity(dims.len());
                for d in dims {
                    let v = eval_int(d, &sizes).ok_or_else(|| {
                        format!("cannot evaluate dimension `{d}` of `{}`", arg.name)
                    })?;
                    if v < 0 {
                        return Err(format!("negative dimension for `{}`", arg.name));
                    }
                    extents.push(v as usize);
                }
                out.push(ArgShape::Tensor(*ty, extents));
            }
        }
    }
    Ok(out)
}

/// Runs the interpreter on `proc` with the synthesized inputs and
/// returns the final contents of every tensor argument, in order.
pub fn interp_outputs(
    proc: &Proc,
    registry: &ProcRegistry,
    inputs: &[SynthArg],
) -> Result<Vec<Vec<f64>>, String> {
    let mut bufs = Vec::new();
    let mut args = Vec::with_capacity(inputs.len());
    for input in inputs {
        match input {
            SynthArg::Size(v) | SynthArg::Int(v) => args.push(ArgValue::Int(*v)),
            SynthArg::Float(v) => args.push(ArgValue::Float(*v)),
            SynthArg::Bool(b) => args.push(ArgValue::Bool(*b)),
            SynthArg::Tensor {
                dims, data, elem, ..
            } => {
                let (buf, arg) = ArgValue::from_vec(data.clone(), dims.clone(), *elem);
                bufs.push(buf);
                args.push(arg);
            }
        }
    }
    let mut interp = Interpreter::new(registry);
    interp
        .run(proc, args, &mut NullMonitor)
        .map_err(|e| format!("interpreter failed on `{}`: {e}", proc.name()))?;
    Ok(bufs.iter().map(|b| b.borrow().data.clone()).collect())
}

fn c_literal(elem: DataType, v: f64) -> String {
    if elem.is_float() {
        exo_ir::format_float(v)
    } else {
        format!("{}", v as i64)
    }
}

/// Appends a `main` driver to an emitted unit: inputs embedded as static
/// initializers, one kernel call, and a `%.17g` dump of every tensor.
pub fn emit_driver(unit: &CUnit, proc: &Proc, inputs: &[SynthArg]) -> String {
    let mut s = String::with_capacity(unit.code.len() + 4096);
    s.push_str(&unit.code);
    s.push_str("\n#include <stdio.h>\n\nint main(void) {\n");
    // Declarations.
    let mut call_args = Vec::with_capacity(inputs.len());
    let mut dumps = Vec::new();
    for (k, (arg, input)) in proc.args().iter().zip(inputs).enumerate() {
        let var = format!("exo_arg_{k}");
        match input {
            SynthArg::Size(v) | SynthArg::Int(v) => call_args.push(format!("{v}")),
            SynthArg::Float(v) => call_args.push(exo_ir::format_float(*v)),
            SynthArg::Bool(b) => call_args.push(if *b { "1" } else { "0" }.to_string()),
            SynthArg::Tensor {
                dims,
                data,
                elem,
                window,
            } => {
                let celem = match elem {
                    DataType::F32 => "float",
                    DataType::F64 => "double",
                    DataType::I8 => "int8_t",
                    DataType::I32 => "int32_t",
                    DataType::Bool => "bool",
                    DataType::Index => "int64_t",
                };
                let n = data.len();
                let init: Vec<String> = data.iter().map(|v| c_literal(*elem, *v)).collect();
                s.push_str(&format!(
                    "    static {celem} {var}[{n}] = {{ {} }};\n",
                    init.join(", ")
                ));
                if dims.is_empty() || !*window {
                    call_args.push(var.clone());
                } else {
                    // Window parameter: dense row-major strides.
                    let mut strides = vec![1i64; dims.len()];
                    for d in (0..dims.len().saturating_sub(1)).rev() {
                        strides[d] = strides[d + 1] * dims[d + 1] as i64;
                    }
                    let tag = exo_machine::c_type_tag(*elem);
                    let ss: Vec<String> = strides.iter().map(|v| v.to_string()).collect();
                    call_args.push(format!(
                        "(struct exo_win_{}{tag}){{ {var}, {{ {} }} }}",
                        dims.len(),
                        ss.join(", ")
                    ));
                }
                dumps.push((var, n));
                let _ = arg;
            }
        }
    }
    s.push_str(&format!("    {}({});\n", proc.name(), call_args.join(", ")));
    for (var, n) in dumps {
        s.push_str(&format!(
            "    for (int64_t exo_i = 0; exo_i < {n}; exo_i++) {{\n        \
             printf(\"%.17g\\n\", (double){var}[exo_i]);\n    }}\n"
        ));
    }
    s.push_str("    return 0;\n}\n");
    s
}

/// Compiles a C source with `cc -O2 -Wall -Werror -std=c99` plus
/// `extra_cflags` and returns the path of the produced binary (inside a
/// fresh temp directory), or the compiler's diagnostics on failure, in
/// which case the directory is removed.
///
/// The source's leading `#include`s are precompiled once per flag set
/// per host and loaded with `-include` (see the `pch` module); the binary
/// is the one a plain compile produces.
pub fn compile(
    source: &str,
    extra_cflags: &[String],
    tag: &str,
) -> Result<std::path::PathBuf, String> {
    let _span = exo_obs::span!("difftest:compile", "{}", tag);
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "exo_codegen_{}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
        tag
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut flags: Vec<String> = ["-O2", "-Wall", "-Werror", "-std=c99"]
        .iter()
        .map(|f| f.to_string())
        .collect();
    flags.extend_from_slice(extra_cflags);
    let header = pch::header_for(source, &flags)
        .map_err(|why| pch::fallback(&why))
        .ok();
    let built = compile_in(&dir, source, &flags, header.as_deref());
    if built.is_err() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    built
}

/// Writes `source` into `dir` and compiles it with `flags`, preloading
/// the precompiled `header` when given. When `cc` cannot read the cache
/// entry, the `.gch` is invalidated and the compile retried without it.
fn compile_in(
    dir: &std::path::Path,
    source: &str,
    flags: &[String],
    header: Option<&std::path::Path>,
) -> Result<std::path::PathBuf, String> {
    let src = dir.join("kernel.c");
    std::fs::write(&src, source).map_err(|e| format!("cannot write {}: {e}", src.display()))?;
    let link = source.contains("int main(");
    let bin = dir.join(if link { "kernel" } else { "kernel.o" });
    let mut cmd = Command::new("cc");
    cmd.args(flags);
    if let Some(header) = header {
        cmd.arg("-include").arg(header);
    }
    if !link {
        // No driver: compile-only (nothing defines `main`).
        cmd.arg("-c");
    }
    cmd.arg("-o").arg(&bin).arg(&src);
    if link {
        cmd.arg("-lm");
    }
    let output =
        run_guarded(&mut cmd, &compile_guard()).map_err(|e| format!("cannot run cc: {e}"))?;
    if output.success {
        return Ok(bin);
    }
    let stderr = output.stderr_lossy();
    // gcc reports an unreadable `.gch` as "cannot read PCH file" or
    // "while reading precompiled header", and a vanished header as
    // "<path>: No such file or directory".
    let cache_at_fault = |h: &&std::path::Path| {
        let missing = format!("{}: No such file", h.display());
        ["PCH", "precompiled header", &missing]
            .iter()
            .any(|m| stderr.contains(m))
    };
    if let Some(header) = header.filter(cache_at_fault) {
        pch::invalidate(header);
        pch::fallback(&format!(
            "cc could not read the precompiled {}: {}",
            header.display(),
            stderr.trim()
        ));
        return compile_in(dir, source, flags, None);
    }
    Err(format!(
        "cc -O2 -Wall -Werror failed on {} (exit {:?}):\n{}",
        src.display(),
        output.code,
        stderr
    ))
}

/// Compile-only check of an emitted unit (used for intrinsic-mode units,
/// which may not be runnable on the build host).
pub fn compile_check(unit: &CUnit, tag: &str) -> Result<(), String> {
    let bin = compile(&unit.code, &unit.cflags, tag)?;
    if let Some(dir) = bin.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

fn run_binary(bin: &std::path::Path) -> Result<String, String> {
    let _span = exo_obs::span!("difftest:run", "{}", bin.display());
    let mut cmd = Command::new(bin);
    let output = run_guarded(&mut cmd, &run_guard())
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.success {
        return Err(format!("{} exited with {:?}", bin.display(), output.code));
    }
    Ok(output.stdout_lossy())
}

/// Tolerance for comparing one element of a buffer of the given type:
/// the C value is float-rounded at stores while the interpreter models
/// f64 everywhere, so f32 buffers get an f32-ULP-scale relative bound;
/// everything else (exactly-representable by construction) must match
/// bitwise.
fn tolerance(elem: DataType) -> f64 {
    match elem {
        DataType::F32 => 1e-4,
        DataType::F64 => 1e-12,
        _ => 0.0,
    }
}

/// Runs the full differential check for one procedure: synthesize
/// inputs, run the interpreter, emit portable C, compile, run, compare.
///
/// # Errors
/// Any mismatch, emission failure, compilation failure or harness
/// failure, with a message naming the kernel and (for mismatches) the
/// first diverging element.
pub fn run_differential(
    proc: &Proc,
    registry: &ProcRegistry,
    seed: u64,
) -> Result<DiffOutcome, String> {
    run_differential_with(proc, registry, seed, &CodegenOptions::portable())
}

/// [`run_differential`] in machine-intrinsic mode: the emitted AVX2/AVX512
/// unit is compiled with its `-m` flags and *executed* against the
/// interpreter when [`exo_machine::HostCaps`] reports the CPU supports
/// them; on an unsupported host it is compile-checked and the run is
/// skipped with a [`DiffOutcome::Skipped`] naming the missing features.
///
/// # Errors
/// Same contract as [`run_differential`].
pub fn run_differential_native(
    proc: &Proc,
    registry: &ProcRegistry,
    seed: u64,
) -> Result<DiffOutcome, String> {
    run_differential_with(proc, registry, seed, &CodegenOptions::native())
}

/// [`run_differential`] with explicit [`CodegenOptions`] — used to check
/// the debug-bounds variant (and any other portable-toolchain mode)
/// against the interpreter.
///
/// # Errors
/// Same contract as [`run_differential`].
pub fn run_differential_with(
    proc: &Proc,
    registry: &ProcRegistry,
    seed: u64,
    opts: &CodegenOptions,
) -> Result<DiffOutcome, String> {
    let _span = exo_obs::span!("difftest:differential", "{}", proc.name());
    if !cc_available() {
        return Ok(DiffOutcome::Skipped(
            "no `cc` on PATH — differential codegen check skipped".to_string(),
        ));
    }
    let inputs = synth_inputs(proc, seed)?;
    let expected = interp_outputs(proc, registry, &inputs)?;
    let unit =
        emit_c(proc, registry, opts).map_err(|e| format!("emitting `{}`: {e}", proc.name()))?;
    if !unit.stock_toolchain {
        return Ok(DiffOutcome::Skipped(format!(
            "`{}` needs a non-stock toolchain ({})",
            proc.name(),
            unit.cflags.join(" ")
        )));
    }
    // Native units compile on any x86 toolchain but *execute* only on a
    // CPU with the matching features — on an unsupported host the unit
    // is still compile-checked, then the run is skipped (not failed).
    if !unit.cflags.is_empty() && !exo_machine::HostCaps::detect().supports_cflags(&unit.cflags) {
        compile(&unit.code, &unit.cflags, proc.name())?;
        return Ok(DiffOutcome::Skipped(format!(
            "`{}` compiled, but this host cannot execute {}",
            proc.name(),
            unit.cflags.join(" ")
        )));
    }
    let driver = emit_driver(&unit, proc, &inputs);
    let bin = compile(&driver, &unit.cflags, proc.name())?;
    let stdout = run_binary(&bin)?;
    if let Some(dir) = bin.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
    let got: Vec<f64> = stdout
        .split_ascii_whitespace()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|e| format!("bad driver output `{t}`: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let total: usize = expected.iter().map(|b| b.len()).sum();
    if got.len() != total {
        return Err(format!(
            "`{}`: driver printed {} values, expected {total}",
            proc.name(),
            got.len()
        ));
    }
    let mut cursor = 0usize;
    let mut tensor_idx = 0usize;
    for (arg, input) in proc.args().iter().zip(&inputs) {
        let SynthArg::Tensor { elem, .. } = input else {
            continue;
        };
        let want = &expected[tensor_idx];
        let tol = tolerance(*elem);
        for (i, w) in want.iter().enumerate() {
            let g = got[cursor + i];
            let bound = tol * w.abs().max(1.0);
            // `!(diff <= bound)` (not `diff > bound`) so a NaN on either
            // side fails the comparison instead of silently passing; two
            // NaNs count as agreement.
            let agree = if w.is_nan() {
                g.is_nan()
            } else {
                (g - w).abs() <= bound
            };
            if !agree {
                return Err(format!(
                    "`{}`: buffer `{}`[{i}] diverges: C = {g:?}, interpreter = {w:?} \
                     (tolerance {bound:e}, seed {seed})",
                    proc.name(),
                    arg.name
                ));
            }
        }
        cursor += want.len();
        tensor_idx += 1;
    }
    Ok(DiffOutcome::Agreed {
        buffers: tensor_idx,
        elems: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_compile_leaves_no_directory_behind() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let tag = "leak_check";
        let err = compile("#include <stdint.h>\n#error does not build\n", &[], tag)
            .expect_err("the source does not compile");
        assert!(err.contains("does not build"), "{err}");
        let prefix = format!("exo_codegen_{}_", std::process::id());
        let left: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&prefix) && n.ends_with(&format!("_{tag}")))
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
    }
}

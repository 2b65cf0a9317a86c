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

use crate::emit::c_type;
use crate::{emit_c, pch, CUnit, CodegenOptions};
use exo_guard::{run_guarded, GuardConfig};
use exo_interp::{ArgValue, BufRef, Interpreter, NullMonitor, ProcRegistry};
use exo_ir::{ArgKind, BinOp, DataType, Expr, Proc, ProcArg, UnOp};
use std::collections::BTreeMap;
use std::fmt;
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

/// Deterministic xorshift64* stream: the generator behind the
/// synthesized inputs and the autotuner's candidate sampler, so seeds are
/// comparable across tools.
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed` (zero is mapped to an odd constant).
    pub fn new(seed: u64) -> Self {
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

    /// Uniform value below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
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

/// The shared size values [`synth_inputs`] tries, in order.
const SYNTH_SIZES: [i64; 9] = [32, 16, 64, 96, 8, 48, 4, 2, 1];

/// The range `[lo, hi]` synthesized tensor elements of type `elem` are
/// drawn from: small enough that all arithmetic is exact in the
/// narrowest type involved.
pub(crate) fn elem_range(elem: DataType) -> (i64, i64) {
    match elem {
        DataType::I8 => (-1, 1),
        DataType::I32 => (-2, 2),
        DataType::Bool => (0, 1),
        _ => (-8, 8),
    }
}

/// Every size argument of `proc` bound to `size`.
fn size_env(proc: &Proc, size: i64) -> BTreeMap<String, i64> {
    proc.args()
        .iter()
        .filter(|a| matches!(a.kind, ArgKind::Size))
        .map(|a| (a.name.name().to_string(), size))
        .collect()
}

/// The concrete extents of tensor argument `arg` under `sizes`.
fn eval_dims(
    arg: &ProcArg,
    dims: &[Expr],
    sizes: &BTreeMap<String, i64>,
) -> Result<Vec<usize>, String> {
    dims.iter()
        .map(|d| {
            let v = eval_int(d, sizes)
                .ok_or_else(|| format!("cannot evaluate dimension `{d}` of `{}`", arg.name))?;
            usize::try_from(v).map_err(|_| format!("negative dimension for `{}`", arg.name))
        })
        .collect()
}

/// Synthesizes concrete arguments for `proc`: one shared size value that
/// satisfies every assertion precondition (the first of a fixed list of
/// small sizes, see [`choose_size`]), and integer-valued random tensor
/// data small enough that all arithmetic is exact in the narrowest type
/// involved (i8 data stays in `[-1, 1]` so even length-64 reductions fit
/// an `int8_t` store).
pub fn synth_inputs(proc: &Proc, seed: u64) -> Result<Vec<SynthArg>, String> {
    let size = choose_size(proc, &SYNTH_SIZES)?;
    let sizes = size_env(proc, size);
    let mut rng = Rng::new(seed ^ 0x9E3779B97F4A7C15);
    let mut out = Vec::with_capacity(proc.args().len());
    for arg in proc.args() {
        match &arg.kind {
            ArgKind::Size => out.push(SynthArg::Size(size)),
            ArgKind::Scalar { ty } => match ty {
                DataType::F32 | DataType::F64 => out.push(SynthArg::Float(rng.range(-3, 3) as f64)),
                DataType::Bool => out.push(SynthArg::Bool(true)),
                _ => out.push(SynthArg::Int(rng.range(-2, 2))),
            },
            ArgKind::Tensor {
                ty, dims, window, ..
            } => {
                let dims = eval_dims(arg, dims, &sizes)?;
                let n: usize = dims.iter().product::<usize>().max(1);
                let (lo, hi) = elem_range(*ty);
                let data: Vec<f64> = (0..n).map(|_| rng.range(lo, hi) as f64).collect();
                out.push(SynthArg::Tensor {
                    dims,
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
    for candidate in candidates {
        let sizes = size_env(proc, *candidate);
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
/// On window arguments (an [`ArgShape`] describes dense tensors only)
/// and on dimension expressions that do not reduce to a constant under
/// the size assignment.
pub fn arg_shapes(proc: &Proc, size: i64) -> Result<Vec<ArgShape>, String> {
    let sizes = size_env(proc, size);
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
                        "`{}`: window argument `{}` has no dense shape",
                        proc.name(),
                        arg.name
                    ));
                }
                out.push(ArgShape::Tensor(*ty, eval_dims(arg, dims, &sizes)?));
            }
        }
    }
    Ok(out)
}

/// The interpreter's arguments for synthesized inputs, plus the buffer
/// of every tensor argument, in order.
pub fn arg_values(inputs: &[SynthArg]) -> (Vec<ArgValue>, Vec<BufRef>) {
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
    (args, bufs)
}

/// Runs the interpreter on `proc` with the synthesized inputs and
/// returns the final contents of every tensor argument, in order.
pub fn interp_outputs(
    proc: &Proc,
    registry: &ProcRegistry,
    inputs: &[SynthArg],
) -> Result<Vec<Vec<f64>>, String> {
    let (args, bufs) = arg_values(inputs);
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

/// The C literal a driver passes for a size or scalar argument; `None`
/// for a tensor.
pub(crate) fn scalar_literal(arg: &SynthArg) -> Option<String> {
    match arg {
        SynthArg::Size(v) | SynthArg::Int(v) => Some(format!("{v}")),
        SynthArg::Float(v) => Some(exo_ir::format_float(*v)),
        SynthArg::Bool(b) => Some(if *b { "1" } else { "0" }.to_string()),
        SynthArg::Tensor { .. } => None,
    }
}

/// The call argument for tensor buffer `var`: the buffer itself, or for
/// a window parameter a `struct exo_win_*` with dense row-major strides.
pub(crate) fn tensor_call_arg(var: &str, dims: &[usize], elem: DataType, window: bool) -> String {
    if dims.is_empty() || !window {
        return var.to_string();
    }
    let mut strides = vec![1i64; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * dims[d + 1] as i64;
    }
    let tag = exo_machine::c_type_tag(elem);
    let ss: Vec<String> = strides.iter().map(|v| v.to_string()).collect();
    format!(
        "(struct exo_win_{}{tag}){{ {var}, {{ {} }} }}",
        dims.len(),
        ss.join(", ")
    )
}

/// Appends a `main` driver to an emitted unit: inputs embedded as static
/// initializers, one kernel call, and a `%.17g` dump of every tensor.
pub fn emit_driver(unit: &CUnit, proc: &Proc, inputs: &[SynthArg]) -> String {
    let mut s = String::with_capacity(unit.code.len() + 4096);
    s.push_str(&unit.code);
    s.push_str("\n#include <stdio.h>\n\nint main(void) {\n");
    let mut call_args = Vec::with_capacity(inputs.len());
    let mut dumps = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        let SynthArg::Tensor {
            dims,
            data,
            elem,
            window,
        } = input
        else {
            call_args.extend(scalar_literal(input));
            continue;
        };
        let var = format!("exo_arg_{k}");
        let n = data.len();
        let init: Vec<String> = data.iter().map(|v| c_literal(*elem, *v)).collect();
        s.push_str(&format!(
            "    static {} {var}[{n}] = {{ {} }};\n",
            c_type(*elem),
            init.join(", ")
        ));
        call_args.push(tensor_call_arg(&var, dims, *elem, *window));
        dumps.push((var, n));
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
    compile_with(
        &Command::new("cc"),
        source,
        extra_cflags,
        tag,
        &compile_guard(),
    )
    .map_err(|e| e.to_string())
}

/// Why a guarded compile produced no artifact. Each variant carries the
/// human-readable detail.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileFailure {
    /// The compiler was killed at the guard's wall-clock limit.
    TimedOut(String),
    /// The compiler ran and rejected the source; carries its
    /// diagnostics.
    Failed(String),
    /// The compiler could not be started or waited for, or the build
    /// directory could not be prepared.
    CouldNotRun(String),
}

impl fmt::Display for CompileFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileFailure::TimedOut(why)
            | CompileFailure::Failed(why)
            | CompileFailure::CouldNotRun(why) => f.write_str(why),
        }
    }
}

/// The guarded compile behind [`compile`], with the compiler command and
/// the supervision policy supplied by the caller. Only `cc`'s program and
/// arguments are used; the flags, `-include`, `-o` and the source are
/// appended, plus `-lm` when the source defines `main` (otherwise it is
/// compiled to an object with `-c`).
///
/// The prelude cache is always built with the real `cc`, whose version
/// is part of its key: a substituted command (as fault injection uses)
/// only replaces the unit's compile, so it can neither mark a key failed
/// nor bypass the cache for later compiles.
pub fn compile_with(
    cc: &Command,
    source: &str,
    extra_cflags: &[String],
    tag: &str,
    guard: &GuardConfig,
) -> Result<std::path::PathBuf, CompileFailure> {
    let _span = exo_obs::span!("difftest:compile", "{}", tag);
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "exo_codegen_{}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
        tag
    ));
    std::fs::create_dir_all(&dir).map_err(|e| {
        CompileFailure::CouldNotRun(format!("cannot create {}: {e}", dir.display()))
    })?;
    let mut flags: Vec<String> = ["-O2", "-Wall", "-Werror", "-std=c99"]
        .iter()
        .map(|f| f.to_string())
        .collect();
    flags.extend_from_slice(extra_cflags);
    let header = pch::header_for(source, &flags)
        .map_err(|why| pch::fallback(&why))
        .ok();
    let built = compile_in(cc, &dir, source, &flags, header.as_deref(), guard);
    if built.is_err() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    built
}

/// Writes `source` into `dir` and compiles it with `flags`, preloading
/// the precompiled `header` when given. When `cc` cannot read the cache
/// entry, the `.gch` is invalidated and the compile retried without it.
fn compile_in(
    cc: &Command,
    dir: &std::path::Path,
    source: &str,
    flags: &[String],
    header: Option<&std::path::Path>,
    guard: &GuardConfig,
) -> Result<std::path::PathBuf, CompileFailure> {
    let src = dir.join("kernel.c");
    std::fs::write(&src, source)
        .map_err(|e| CompileFailure::CouldNotRun(format!("cannot write {}: {e}", src.display())))?;
    let link = source.contains("int main(");
    let bin = dir.join(if link { "kernel" } else { "kernel.o" });
    let mut cmd = Command::new(cc.get_program());
    cmd.args(cc.get_args()).args(flags);
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
    let output = run_guarded(&mut cmd, guard).map_err(|e| {
        let why = format!("cannot run cc: {e}");
        if e.is_timeout() {
            CompileFailure::TimedOut(why)
        } else {
            CompileFailure::CouldNotRun(why)
        }
    })?;
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
        return compile_in(cc, dir, source, flags, None, guard);
    }
    Err(CompileFailure::Failed(format!(
        "cc -O2 -Wall -Werror failed on {} (exit {:?}):\n{}",
        src.display(),
        output.code,
        stderr
    )))
}

/// Compile-only check of an emitted unit (used for intrinsic-mode units,
/// which may not be runnable on the build host).
pub fn compile_check(unit: &CUnit, tag: &str) -> Result<(), String> {
    remove_build_dir(&compile(&unit.code, &unit.cflags, tag)?);
    Ok(())
}

/// Why a dump driver produced no values.
#[derive(Clone, Debug, PartialEq)]
pub enum RunFailure {
    /// Killed at the guard's wall-clock limit.
    TimedOut(String),
    /// Exited unsuccessfully or was killed by a signal.
    Exited(String),
    /// Exited cleanly but printed something that is not a number.
    Unparseable(String),
    /// Could not be started or waited for.
    CouldNotRun(String),
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFailure::TimedOut(why)
            | RunFailure::Exited(why)
            | RunFailure::Unparseable(why)
            | RunFailure::CouldNotRun(why) => f.write_str(why),
        }
    }
}

/// Runs a dump driver ([`emit_driver`]) under `guard` and parses its
/// `%.17g`-per-line output: every tensor's elements, in argument order.
/// The caller supplies the command, so it may substitute another process
/// (as fault injection does).
pub fn run_dump(cmd: &mut Command, guard: &GuardConfig) -> Result<Vec<f64>, RunFailure> {
    let out = match run_guarded(cmd, guard) {
        Ok(out) => out,
        Err(e) if e.is_timeout() => return Err(RunFailure::TimedOut(e.to_string())),
        Err(e) => return Err(RunFailure::CouldNotRun(e.to_string())),
    };
    if !out.success {
        return Err(RunFailure::Exited(format!(
            "binary exited {:?}: {}",
            out.code,
            out.stderr_lossy()
        )));
    }
    out.stdout_lossy()
        .split_ascii_whitespace()
        .map(|t| {
            t.parse::<f64>().map_err(|e| {
                RunFailure::Unparseable(format!("unparseable driver output `{t}`: {e}"))
            })
        })
        .collect()
}

/// Removes the temp directory a compiled artifact was built in (each
/// [`compile`] gets its own).
pub fn remove_build_dir(artifact: &std::path::Path) {
    if let Some(dir) = artifact.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Compiles a dump driver, runs it through [`run_dump`], and removes its
/// build directory whatever the outcome.
fn dump_values(driver: &str, cflags: &[String], tag: &str) -> Result<Vec<f64>, String> {
    let bin = compile(driver, cflags, tag)?;
    let got = {
        let _span = exo_obs::span!("difftest:run", "{}", bin.display());
        run_dump(&mut Command::new(&bin), &run_guard())
    };
    remove_build_dir(&bin);
    got.map_err(|e| format!("`{tag}`: {e}"))
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
        compile_check(&unit, proc.name())?;
        return Ok(DiffOutcome::Skipped(format!(
            "`{}` compiled, but this host cannot execute {}",
            proc.name(),
            unit.cflags.join(" ")
        )));
    }
    let driver = emit_driver(&unit, proc, &inputs);
    let got = dump_values(&driver, &unit.cflags, proc.name())?;
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
        assert_eq!(build_dirs(tag), Vec::<String>::new());
    }

    /// This process's `exo_codegen_*` build directories tagged `tag`.
    fn build_dirs(tag: &str) -> Vec<String> {
        let prefix = format!("exo_codegen_{}_", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&prefix) && n.ends_with(&format!("_{tag}")))
            .collect()
    }

    #[test]
    fn a_failing_dump_run_leaves_no_directory_behind() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let tag = "abort_check";
        let driver = "#include <stdlib.h>\nint main(void) { abort(); }\n";
        let err = dump_values(driver, &[], tag).expect_err("the driver aborts");
        assert!(err.contains("binary exited"), "{err}");
        assert_eq!(build_dirs(tag), Vec::<String>::new());
    }

    #[test]
    fn compile_with_classifies_its_failures() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let source = "#include <stdint.h>\nint64_t f(void) { return 1; }\n";
        let guard = GuardConfig {
            spawn_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..GuardConfig::with_timeout(Duration::from_millis(1))
        };
        let mut sleeper = Command::new("sh");
        sleeper.arg("-c").arg("sleep 5");
        let tag = "classify_timeout";
        let got = compile_with(&sleeper, source, &[], tag, &guard);
        assert!(matches!(got, Err(CompileFailure::TimedOut(_))), "{got:?}");
        assert_eq!(build_dirs(tag), Vec::<String>::new());

        let tag = "classify_missing";
        let missing = Command::new("exo-no-such-compiler");
        let got = compile_with(&missing, source, &[], tag, &guard);
        assert!(
            matches!(got, Err(CompileFailure::CouldNotRun(_))),
            "{got:?}"
        );
        assert_eq!(build_dirs(tag), Vec::<String>::new());

        let tag = "classify_failed";
        let guard = GuardConfig::with_timeout(Duration::from_secs(60));
        let bad = "#include <stdint.h>\nint64_t f(void) { return undeclared_name; }\n";
        match compile_with(&Command::new("cc"), bad, &[], tag, &guard) {
            Err(CompileFailure::Failed(why)) => assert!(why.contains("undeclared_name"), "{why}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(build_dirs(tag), Vec::<String>::new());
    }

    #[test]
    fn run_dump_classifies_its_failures() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let guard = GuardConfig::with_timeout(Duration::from_millis(500));
        let sh = |script: &str| {
            let mut cmd = Command::new("sh");
            cmd.arg("-c").arg(script);
            cmd
        };
        assert_eq!(
            run_dump(&mut sh("echo 1.5; echo -2"), &guard),
            Ok(vec![1.5, -2.0])
        );
        assert!(matches!(
            run_dump(&mut sh("exit 3"), &guard),
            Err(RunFailure::Exited(_))
        ));
        assert!(matches!(
            run_dump(&mut sh("echo nope"), &guard),
            Err(RunFailure::Unparseable(_))
        ));
        assert!(matches!(
            run_dump(&mut sh("exec sleep 5"), &guard),
            Err(RunFailure::TimedOut(_))
        ));
        assert!(matches!(
            run_dump(&mut Command::new("exo-no-such-binary"), &guard),
            Err(RunFailure::CouldNotRun(_))
        ));
    }
}

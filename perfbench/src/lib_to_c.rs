//! `lib_to_c`: the whole exo-lib library, from unscheduled proc to C
//! source, with no `cc` call — Exo's compile time.
//!
//! Each kernel goes build → schedule → `check_proc` → `lower` →
//! `emit_c`, each call timed from here under its own span. Outputs are
//! checked after the timed region: the golden `.c` files byte for byte,
//! each scheduled proc against its unscheduled proc in the interpreter
//! on seeded inputs, and every pass's C against the first pass's.

use crate::common::{fnv, ms, quantile, timed_setup, Ledger, Outcome, Rng, RunCfg};
use exo_analysis::{check_proc, Severity};
use exo_codegen::difftest::{interp_outputs, synth_inputs, SynthArg};
use exo_codegen::{emit_c, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::{lower, ProcRegistry};
use exo_ir::{Block, DataType, Proc, Stmt};
use exo_kernels::{Precision, LEVEL1_KERNELS, LEVEL2_KERNELS};
use exo_lib::{
    gemmini_schedule, halide_blur_schedule, halide_unsharp_schedule, optimize_level_1,
    optimize_level_2_general, optimize_sgemm,
};
use exo_machine::{gemmini_instructions, MachineModel};
use std::hint::black_box;
use std::time::Instant;

type Build = Box<dyn Fn() -> Proc>;
type Schedule = Box<dyn Fn(&ProcHandle) -> Result<ProcHandle, String>>;

/// One program of the workload.
struct Kernel {
    id: String,
    build: Build,
    schedule: Schedule,
    registry: ProcRegistry,
    /// Golden file under `crates/codegen/goldens/` the C must equal.
    golden: Option<(&'static str, String)>,
    /// Seeded interpreter inputs and the unscheduled proc's outputs.
    inputs: Vec<SynthArg>,
    expected: Vec<Vec<f64>>,
    /// Listed in `fallbacks.txt`: its schedule may leave no machine
    /// instruction in the proc.
    may_fall_back: bool,
}

/// Kernels whose library schedule falls back to plain loops (no machine
/// instruction call) at the commit that defined this benchmark. Any
/// other kernel that falls back fails, so a lost schedule reads as a
/// failure, not as a faster compile.
const FALLBACKS: &str = include_str!("../fallbacks.txt");

fn fallback_ids() -> Vec<&'static str> {
    FALLBACKS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Calls to machine instructions in `block`, nested blocks included.
fn instr_calls(block: &Block, registry: &ProcRegistry) -> usize {
    block
        .iter()
        .map(|s| match s {
            Stmt::Call { proc, .. } if registry.contains(proc) => 1,
            _ => s
                .child_blocks()
                .into_iter()
                .map(|b| instr_calls(b, registry))
                .sum(),
        })
        .sum()
}

/// Everything one kernel's pipeline produced.
struct Compiled {
    proc: Proc,
    c_code: String,
    chain_len: usize,
    chain_bytes: usize,
    stmts: usize,
    errors: usize,
    warnings: usize,
    code_len: usize,
}

fn registry_for(machine: &MachineModel) -> ProcRegistry {
    let mut r: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    r.register_all(machine.instructions(DataType::F64));
    r
}

/// `copies` side-by-side copies of the sgemm loop nest in one proc, so
/// proc size varies up to 64× (the schedule rewrites only the first).
fn sgemm_wide(copies: usize) -> Proc {
    let base = exo_kernels::sgemm();
    let stmts: Vec<Stmt> = (0..copies)
        .flat_map(|_| base.body().iter().cloned())
        .collect();
    base.clone()
        .with_name("sgemm_wide")
        .with_body(Block::from_stmts(stmts))
}

fn golden(file: &'static str) -> Result<Option<(&'static str, String)>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../crates/codegen/goldens")
        .join(file);
    std::fs::read_to_string(&path)
        .map(|text| Some((file, text)))
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
}

/// The kernel set: every level-1 and level-2 kernel in both precisions
/// for avx2 and avx512, the sgemm, Halide and Gemmini schedules, and
/// the 8/32/64-copy sgemm procs. Goldens are the ones
/// `crates/bench/tests/golden_c.rs` pins.
fn kernels() -> Result<Vec<Kernel>, String> {
    let mut v: Vec<(String, Build, Schedule, ProcRegistry, Option<&'static str>)> = Vec::new();
    for (isa, machine) in [
        ("avx2", MachineModel::avx2()),
        ("avx512", MachineModel::avx512()),
    ] {
        let registry = registry_for(&machine);
        for prec in [Precision::Single, Precision::Double] {
            for k in LEVEL1_KERNELS {
                let m = machine.clone();
                let golden = (isa == "avx2" && prec == Precision::Single && k.name == "axpy")
                    .then_some("level1_axpy.c");
                v.push((
                    format!("{isa}/{}{}", prec.prefix(), k.name),
                    Box::new(move || (k.build)(prec)),
                    Box::new(move |p: &ProcHandle| {
                        let i = p.find_loop("i").map_err(|e| e.to_string())?;
                        optimize_level_1(p, &i, prec.dtype(), &m, 2).map_err(|e| e.to_string())
                    }),
                    registry.clone(),
                    golden,
                ));
            }
            for k in LEVEL2_KERNELS {
                let m = machine.clone();
                let golden = (isa == "avx2" && prec == Precision::Single && k.name == "gemv_n")
                    .then_some("level2_gemv.c");
                v.push((
                    format!("{isa}/{}{}", prec.prefix(), k.name),
                    Box::new(move || (k.build)(prec)),
                    // As `optimize_all_level_2`: kernels the general
                    // schedule does not fit keep their unscheduled form.
                    Box::new(move |p: &ProcHandle| {
                        let i = p.find_loop("i").map_err(|e| e.to_string())?;
                        Ok(optimize_level_2_general(p, &i, prec.dtype(), &m, 4, 2)
                            .unwrap_or_else(|_| p.clone()))
                    }),
                    registry.clone(),
                    golden,
                ));
            }
        }
    }
    let avx512 = registry_for(&MachineModel::avx512());
    let avx2 = registry_for(&MachineModel::avx2());
    let sgemm: Schedule = Box::new(|p: &ProcHandle| {
        optimize_sgemm(p, &MachineModel::avx512()).map_err(|e| e.to_string())
    });
    v.push((
        "avx512/sgemm".into(),
        Box::new(exo_kernels::sgemm),
        sgemm,
        avx512.clone(),
        Some("sgemm.c"),
    ));
    for (copies, file) in [(8, "sgemm_x8.c"), (32, "sgemm_x32.c"), (64, "sgemm_x64.c")] {
        v.push((
            format!("avx512/sgemm_x{copies}"),
            Box::new(move || sgemm_wide(copies)),
            Box::new(|p: &ProcHandle| {
                optimize_sgemm(p, &MachineModel::avx512()).map_err(|e| e.to_string())
            }),
            avx512.clone(),
            Some(file),
        ));
    }
    v.push((
        "avx2/blur2d".into(),
        Box::new(exo_kernels::blur2d),
        Box::new(|p: &ProcHandle| {
            halide_blur_schedule(p, &MachineModel::avx2()).map_err(|e| e.to_string())
        }),
        avx2.clone(),
        Some("halide_blur.c"),
    ));
    v.push((
        "avx2/unsharp".into(),
        Box::new(exo_kernels::unsharp),
        Box::new(|p: &ProcHandle| {
            halide_unsharp_schedule(p, &MachineModel::avx2()).map_err(|e| e.to_string())
        }),
        avx2,
        None,
    ));
    v.push((
        "gemmini/matmul".into(),
        Box::new(exo_kernels::gemmini_matmul),
        Box::new(|p: &ProcHandle| gemmini_schedule(p).map_err(|e| e.to_string())),
        gemmini_instructions().into_iter().collect(),
        None,
    ));
    let fallbacks = fallback_ids();
    if let Some(unknown) = fallbacks.iter().find(|f| !v.iter().any(|k| k.0 == **f)) {
        return Err(format!("fallbacks.txt names no kernel: {unknown}"));
    }
    v.into_iter()
        .map(|(id, build, schedule, registry, golden_file)| {
            Ok(Kernel {
                may_fall_back: fallbacks.contains(&id.as_str()),
                id,
                build,
                schedule,
                registry,
                golden: match golden_file {
                    Some(f) => golden(f)?,
                    None => None,
                },
                inputs: Vec::new(),
                expected: Vec::new(),
            })
        })
        .collect()
}

/// Set-up: the kernel table, the goldens, and the reference outputs of
/// every unscheduled kernel on inputs drawn from the seed.
fn setup(seed: u64) -> Result<Vec<Kernel>, String> {
    let mut ks = kernels()?;
    for (i, k) in ks.iter_mut().enumerate() {
        let base = (k.build)();
        k.inputs = synth_inputs(&base, seed.wrapping_add(i as u64))
            .map_err(|e| format!("{}: {e}", k.id))?;
        k.expected = interp_outputs(&base, &ProcRegistry::new(), &k.inputs)
            .map_err(|e| format!("{}: {e}", k.id))?;
    }
    Ok(ks)
}

/// The timed pipeline for one kernel. Each layer call gets a span named
/// after its layer, tagged with the kernel id (inert when tracing is off).
fn compile(k: &Kernel, opts: &CodegenOptions) -> Result<Compiled, String> {
    let proc = {
        let _s = exo_obs::span!("kernels:build", "{}", k.id);
        (k.build)()
    };
    let handle = ProcHandle::new(proc);
    let scheduled = {
        let _s = exo_obs::span!("lib:schedule", "{}", k.id);
        (k.schedule)(&handle).map_err(|e| format!("{}: schedule: {e}", k.id))?
    };
    let diags = {
        let _s = exo_obs::span!("analysis:check_proc", "{}", k.id);
        check_proc(scheduled.proc())
    };
    let lowered = {
        let _s = exo_obs::span!("interp:lower", "{}", k.id);
        lower(scheduled.proc())
    };
    let unit = {
        let _s = exo_obs::span!("codegen:emit_c", "{}", k.id);
        emit_c(scheduled.proc(), &k.registry, opts).map_err(|e| format!("{}: emit: {e}", k.id))?
    };
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    Ok(Compiled {
        chain_len: scheduled.chain_len(),
        chain_bytes: scheduled.chain_retained_bytes(),
        stmts: scheduled.proc().stmt_count(),
        errors,
        warnings: diags.len() - errors,
        code_len: black_box(lowered).code_len(),
        proc: scheduled.proc().clone(),
        c_code: unit.code,
    })
}

/// Per-pass sums of the layer counters.
#[derive(Default, Clone, Copy)]
struct PassCounts {
    rewrites: usize,
    chain_bytes: usize,
    stmts: usize,
    errors: usize,
    warnings: usize,
    code_len: usize,
    c_bytes: usize,
}

struct Timed {
    /// Per kernel index: every pipeline latency in ms.
    latency: Vec<Vec<f64>>,
    /// Wall seconds of each pass.
    pass_s: Vec<f64>,
    passes: usize,
    wall_s: f64,
    counts: PassCounts,
    /// Per kernel index: first pass's C hash, whether any later pass
    /// differed, and the last pass's output.
    first_hash: Vec<u64>,
    drifted: Vec<bool>,
    last: Vec<Option<Compiled>>,
    errors: Vec<Option<String>>,
}

/// Runs whole passes over the kernel set, in a seeded order per pass,
/// until `seconds` have elapsed. With `ledger`, every pass runs under
/// the trace session and is folded into it.
fn timed_passes(
    ks: &[Kernel],
    seconds: f64,
    rng: &mut Rng,
    mut ledger: Option<&mut Ledger>,
) -> Timed {
    let opts = CodegenOptions::native();
    let n = ks.len();
    let mut t = Timed {
        latency: vec![Vec::new(); n],
        pass_s: Vec::new(),
        passes: 0,
        wall_s: 0.0,
        counts: PassCounts::default(),
        first_hash: vec![0; n],
        drifted: vec![false; n],
        last: (0..n).map(|_| None).collect(),
        errors: vec![None; n],
    };
    let mut order: Vec<usize> = (0..n).collect();
    let start = Instant::now();
    while t.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        let pass_start = Instant::now();
        let mut counts = PassCounts::default();
        for &i in &order {
            let t0 = Instant::now();
            let out = compile(&ks[i], &opts);
            t.latency[i].push(ms(t0.elapsed()));
            match out {
                Ok(c) => {
                    counts.rewrites += c.chain_len;
                    counts.chain_bytes += c.chain_bytes;
                    counts.stmts += c.stmts;
                    counts.errors += c.errors;
                    counts.warnings += c.warnings;
                    counts.code_len += c.code_len;
                    counts.c_bytes += c.c_code.len();
                    let h = fnv(c.c_code.as_bytes());
                    if t.passes == 0 {
                        t.first_hash[i] = h;
                    } else if h != t.first_hash[i] {
                        t.drifted[i] = true;
                    }
                    t.last[i] = Some(c);
                }
                Err(e) => t.errors[i] = Some(e),
            }
        }
        t.pass_s.push(pass_start.elapsed().as_secs_f64());
        t.counts = counts;
        t.passes += 1;
        if let Some(l) = ledger.as_deref_mut() {
            l.add(&exo_obs::trace::take());
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

/// Output checks, outside the timed region; each failed kernel fails all of its runs.
fn check(ks: &[Kernel], t: &Timed, out: &mut Outcome) {
    for (i, k) in ks.iter().enumerate() {
        let runs = t.latency[i].len() as u64;
        let verdict = (|| -> Result<(), String> {
            if let Some(e) = &t.errors[i] {
                return Err(e.clone());
            }
            let c = t.last[i].as_ref().ok_or("no output")?;
            if t.drifted[i] {
                return Err("emitted C differs between passes".into());
            }
            if c.errors > 0 {
                return Err(format!("{} verifier errors", c.errors));
            }
            if !k.may_fall_back && instr_calls(c.proc.body(), &k.registry) == 0 {
                return Err("schedule fell back: no machine instruction call, \
                            and the kernel is not in fallbacks.txt"
                    .into());
            }
            if let Some((file, text)) = &k.golden {
                if &c.c_code != text {
                    return Err(format!("C differs from golden {file}"));
                }
            }
            let got = interp_outputs(&c.proc, &k.registry, &k.inputs)?;
            for (b, (g, w)) in got.iter().zip(&k.expected).enumerate() {
                let bad = g.iter().zip(w).position(|(g, w)| {
                    let agree = (g - w).abs() <= 1e-6 * w.abs().max(1.0);
                    !(agree || (g.is_nan() && w.is_nan()))
                });
                if g.len() != w.len() || bad.is_some() {
                    return Err(format!(
                        "scheduled proc differs from unscheduled in tensor #{b} at {bad:?}"
                    ));
                }
            }
            Ok(())
        })();
        if let Err(e) = verdict {
            // Every run of a kernel produced the same output, so a
            // failed check fails all of its runs.
            out.failed += runs;
            out.failures.push(format!("{}: {e}", k.id));
        }
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (ks, setup_s) = timed_setup(|| setup(cfg.seed))?;
    let mut rng = Rng::new(cfg.seed);
    if !cfg.trace {
        let t = timed_passes(&ks, cfg.seconds, &mut rng, None);
        let all: Vec<f64> = t.latency.iter().flatten().copied().collect();
        out.attempted = all.len() as u64;
        check(&ks, &t, &mut out);
        rows(&ks, &t, &mut out);
        out.line(format!(
            "  {} kernels x {} passes in {:.2} s; last pass: {} rewrites, {} V-warnings",
            ks.len(),
            t.passes,
            t.wall_s,
            t.counts.rewrites,
            t.counts.warnings
        ));
        out.line(format!(
            "  pass ms: p10 {:.2}, p50 {:.2}, p90 {:.2}",
            1e3 * quantile(&t.pass_s, 0.1),
            1e3 * quantile(&t.pass_s, 0.5),
            1e3 * quantile(&t.pass_s, 0.9)
        ));
        out.metric("setup_s", setup_s, "s");
        // Kernels per second over all passes. The host's speed can flip
        // between two levels within a run, which makes the median pass
        // jump between them; the mean moves with the time spent in each.
        let pass_total: f64 = t.pass_s.iter().sum();
        out.metric(
            "throughput",
            (ks.len() * t.passes) as f64 / pass_total,
            "1/s",
        );
        out.metric("latency_ms_p50", quantile(&all, 0.5), "ms");
        out.metric("latency_ms_p99", quantile(&all, 0.99), "ms");
        return Ok(out);
    }
    // Traced run: half the time untraced, half traced, same work.
    let plain = timed_passes(&ks, cfg.seconds / 2.0, &mut rng, None);
    let mut ledger = Ledger::default();
    let session = exo_obs::session();
    // The first traced pass is kept whole for the Chrome trace.
    let first = timed_passes(&ks, 0.0, &mut rng, None);
    let first_trace = exo_obs::trace::take();
    ledger.add(&first_trace);
    let traced = timed_passes(&ks, cfg.seconds / 2.0, &mut rng, Some(&mut ledger));
    drop(session);
    let passes = (traced.passes + first.passes) as f64;
    // Pass times leave out the folding of each pass's trace into the
    // ledger, which is benchmark work, not tracing overhead.
    let traced_s: f64 = traced.pass_s.iter().chain(&first.pass_s).sum();
    let wall_ns = (traced_s * 1e9) as u64;
    out.attempted = traced.latency.iter().map(|l| l.len() as u64).sum();
    check(&ks, &traced, &mut out);
    let path = crate::common::write_chrome_trace(cfg, "lib_to_c", &first_trace)?;
    out.line(format!("  chrome trace of one traced pass: {path}"));
    out.report.extend(ledger.table(wall_ns));
    let per_pass = |name: &str| ledger.get(name).total_ns as f64 / 1e6 / passes;
    let c = traced.counts;
    out.metric("kernels.build_ms", per_pass("kernels:build"), "ms");
    out.metric("lib.schedule_ms", per_pass("lib:schedule"), "ms");
    out.metric(
        "cursors.self_ms",
        ledger.layer_self_ns().get("cursors").copied().unwrap_or(0) as f64 / 1e6 / passes,
        "ms",
    );
    out.metric("cursors.rewrites", c.rewrites as f64, "count");
    out.metric("cursors.chain_bytes", c.chain_bytes as f64, "bytes");
    out.metric("ir.stmts", c.stmts as f64, "count");
    out.metric("analysis.verify_ms", per_pass("analysis:check_proc"), "ms");
    out.metric("analysis.errors", c.errors as f64, "count");
    out.metric("analysis.warnings", c.warnings as f64, "count");
    out.metric("interp.lower_ms", per_pass("interp:lower"), "ms");
    out.metric("interp.code_len", c.code_len as f64, "count");
    out.metric("codegen.emit_ms", per_pass("codegen:emit_c"), "ms");
    out.metric("codegen.c_bytes", c.c_bytes as f64, "bytes");
    let untraced = plain.pass_s.iter().sum::<f64>() / plain.passes as f64;
    out.metric(
        "obs.overhead_pct",
        crate::common::overhead_pct(untraced, traced_s / passes),
        "%",
    );
    let stages = [
        "kernels:build",
        "lib:schedule",
        "analysis:check_proc",
        "interp:lower",
        "codegen:emit_c",
    ];
    let staged: u64 = stages.iter().map(|s| ledger.get(s).total_ns).sum();
    out.line(format!(
        "  build+schedule+verify+lower+emit cover {:.1}% of traced wall time",
        100.0 * staged as f64 / wall_ns.max(1) as f64
    ));
    Ok(out)
}

/// One row per kernel: median and p99 latency, C size, warnings,
/// machine instruction calls.
fn rows(ks: &[Kernel], t: &Timed, out: &mut Outcome) {
    out.line(format!(
        "  {:<22} {:>6} {:>10} {:>10} {:>9} {:>5} {:>6}",
        "kernel", "runs", "p50_ms", "p99_ms", "c_bytes", "warn", "instr"
    ));
    for (i, k) in ks.iter().enumerate() {
        let (bytes, warnings, instr) = t.last[i].as_ref().map_or((0, 0, 0), |c| {
            (
                c.c_code.len(),
                c.warnings,
                instr_calls(c.proc.body(), &k.registry),
            )
        });
        out.line(format!(
            "  {:<22} {:>6} {:>10.3} {:>10.3} {:>9} {:>5} {:>6}{}",
            k.id,
            t.latency[i].len(),
            quantile(&t.latency[i], 0.5),
            quantile(&t.latency[i], 0.99),
            bytes,
            warnings,
            instr,
            if k.may_fall_back && instr > 0 {
                "  (listed in fallbacks.txt, now scheduled)"
            } else {
                ""
            }
        ));
    }
}

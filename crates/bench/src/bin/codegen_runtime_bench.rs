//! Measured wall-clock performance of the emitted C, across backend
//! modes, on the host CPU — the "closed loop" companion to
//! `codegen_bench`'s correctness checks.
//!
//! For each runtime kernel (`sgemm`, `sgemv_n`, `blur2d`) three variants
//! are benchmarked:
//!
//! * `scalar` — the unscheduled kernel, portable scalar emission;
//! * `avx2` — the schedule of record, machine-intrinsic emission
//!   (`-mavx2 -mfma`);
//! * `avx2_omp` — the schedule of record plus `parallelize` on the
//!   verifier-certified outer loops, machine-intrinsic emission with
//!   OpenMP work-sharing pragmas (`-fopenmp`), timed at each thread
//!   count in [`THREAD_COUNTS`] via `OMP_NUM_THREADS` that the host has
//!   hardware threads for (larger counts are logged and dropped: they
//!   would time oversubscription, not scaling).
//!
//! Every variant is first *differentially validated* against the
//! interpreter (same harness as `codegen_bench`), then timed by the
//! shared native harness ([`exo_codegen::timing`], the autotuner's too):
//! each variant is a one-candidate unit, compiled once and run once per
//! thread count. Its driver fills the tensors from a seed, resets them
//! before every batch, calibrates the repetition count until one batch
//! spans at least 20 ms, and times [`TIMED_RUNS`] batches, summarized by
//! their median (single descheduled runs cannot flip rankings) with a
//! max−min spread.
//!
//! Variants the host cannot execute (no AVX2, no `-fopenmp`) are
//! compile-checked and reported as skipped — logged, never silent.
//!
//! Modes:
//!
//! * (default) — all kernels and variants, writes
//!   `BENCH_codegen_runtime.json` at the repo root.
//! * `--smoke` — SGEMM at a small size only; asserts the AVX2 build is
//!   at least [`SMOKE_MIN_SPEEDUP`]× faster than scalar when the host
//!   supports the flags, and skips (logged) when it does not. Writes
//!   nothing.
//!
//! Regenerate the checked-in JSON with:
//!
//! ```text
//! cargo run --release -p exo-bench --bin codegen_runtime_bench
//! ```

use exo_codegen::difftest::{
    arg_shapes, cc_available, choose_size, compile, compile_check, remove_build_dir,
    run_differential_with, DiffOutcome,
};
use exo_codegen::timing::{emit_timed_driver, run_unit, TimedArg};
use exo_codegen::{emit_c, CUnit, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_interp::ProcRegistry;
use exo_ir::{DataType, Proc};
use exo_kernels::{blur2d, gemv, sgemm, Precision};
use exo_lib::{apply_script, schedule_of_record, LoopSel, SchedStep};
use exo_machine::{HostCaps, MachineModel};

/// OpenMP thread counts the `avx2_omp` variant is timed at.
const THREAD_COUNTS: [usize; 2] = [1, 2];

/// Smoke gate: minimum speedup of the AVX2 build over portable scalar
/// on a host that can execute it. Deliberately loose (gcc's `-O2`
/// auto-vectorizer narrows the gap on some hosts) — the point is "the
/// intrinsics path is measurably faster than scalar", not a roofline
/// claim.
const SMOKE_MIN_SPEEDUP: f64 = 1.2;

fn fail(msg: &str) -> ! {
    eprintln!("FATAL: {msg}");
    std::process::exit(1);
}

/// One benchmarked kernel: the unscheduled base, the schedule-of-record
/// proc, the record-plus-`parallelize` proc, candidate problem sizes
/// (first accepted by the kernel's assertions wins), and the flop count
/// of one call at a given size.
struct Workload {
    name: &'static str,
    base: Proc,
    tuned: Proc,
    omp: Proc,
    sizes: &'static [i64],
    flops: fn(f64) -> f64,
}

/// The schedule of record plus `parallelize` on the given outer loops
/// (the same certified-parallel loops `native_run` differential-tests).
fn scheduled(kernel: &str, machine: &MachineModel, outer: &[(&str, usize)]) -> Proc {
    let base = match kernel {
        "sgemm" => sgemm(),
        "sgemv_n" => gemv(Precision::Single, false),
        "blur2d" => blur2d(),
        other => fail(&format!("unknown kernel {other}")),
    };
    let mut script = schedule_of_record(kernel, machine)
        .unwrap_or_else(|| fail(&format!("{kernel} lost its schedule of record")));
    for (name, nth) in outer {
        script.steps.push(SchedStep::Parallelize {
            loop_: LoopSel::new(*name, *nth),
        });
    }
    apply_script(&ProcHandle::new(base), &script, machine)
        .unwrap_or_else(|e| fail(&format!("applying {kernel} schedule: {e}")))
        .proc()
        .clone()
}

fn workloads(machine: &MachineModel, smoke: bool) -> Vec<Workload> {
    let mut v = Vec::new();
    v.push(Workload {
        name: "sgemm",
        base: sgemm(),
        tuned: scheduled("sgemm", machine, &[]),
        omp: scheduled("sgemm", machine, &[("i", 0)]),
        sizes: if smoke {
            &[64, 32]
        } else {
            &[256, 128, 64, 32]
        },
        flops: |s| 2.0 * s * s * s,
    });
    if smoke {
        return v;
    }
    v.push(Workload {
        name: "sgemv_n",
        base: gemv(Precision::Single, false),
        tuned: scheduled("sgemv_n", machine, &[]),
        omp: scheduled("sgemv_n", machine, &[("i", 0)]),
        sizes: &[1024, 512, 256, 64],
        flops: |s| 2.0 * s * s,
    });
    v.push(Workload {
        name: "blur2d",
        base: blur2d(),
        tuned: scheduled("blur2d", machine, &[]),
        omp: scheduled("blur2d", machine, &[("y", 0), ("y", 1)]),
        sizes: &[512, 256, 128, 64, 32],
        // Two three-tap passes: blur_x over (H+2)×W pixels, blur_y over
        // H×W, at 2 adds + 1 multiply each.
        flops: |s| 3.0 * ((s + 2.0) * s + s * s),
    });
    v
}

/// Times `proc`'s unit as a one-candidate unit of the shared harness:
/// compiled once, then run once per OpenMP thread count. Returns one
/// `(median ns/call, relative spread)` per count.
fn time_variant(
    unit: &CUnit,
    proc: &Proc,
    args: &[TimedArg],
    tag: &str,
    threads: &[usize],
) -> Vec<Result<(f64, f64), String>> {
    let driver = emit_timed_driver(&unit.code, &[proc.name()], args, &[1], 1);
    let bin = match compile(&driver, &unit.cflags, tag) {
        Ok(bin) => bin,
        Err(e) => return threads.iter().map(|_| Err(e.clone())).collect(),
    };
    let runs = threads
        .iter()
        .map(|t| {
            let env = [("OMP_NUM_THREADS", t.to_string())];
            run_unit(&bin, 1, 1, &env).remove(0)
        })
        .collect();
    remove_build_dir(&bin);
    runs
}

/// One timed (or skipped) row of the report.
struct Row {
    variant: &'static str,
    threads: usize,
    differential: &'static str,
    /// `Ok((ns, spread))` or a human-readable skip reason.
    timing: Result<(f64, f64), String>,
}

impl Row {
    fn ns(&self) -> Option<f64> {
        self.timing.as_ref().ok().map(|(ns, _)| *ns)
    }
}

/// Differentially validates one variant, then times it at each thread
/// count. On a host that cannot execute the unit, it is compile-checked
/// and every thread count reports the skip reason.
fn bench_variant(
    variant: &'static str,
    proc: &Proc,
    registry: &ProcRegistry,
    opts: &CodegenOptions,
    args: &[TimedArg],
    threads: &[usize],
) -> Vec<Row> {
    let caps = HostCaps::detect();
    let unit = emit_c(proc, registry, opts)
        .unwrap_or_else(|e| fail(&format!("emitting `{}` ({variant}): {e}", proc.name())));
    let skip = |why: String| -> Vec<Row> {
        threads
            .iter()
            .map(|&t| Row {
                variant,
                threads: t,
                differential: "skipped",
                timing: Err(why.clone()),
            })
            .collect()
    };
    if !unit.stock_toolchain {
        return skip(format!(
            "needs a non-stock toolchain ({})",
            unit.cflags.join(" ")
        ));
    }
    if !unit.cflags.is_empty() && !caps.supports_cflags(&unit.cflags) {
        compile_check(&unit, proc.name()).unwrap_or_else(|e| {
            fail(&format!(
                "`{}` ({variant}) does not compile: {e}",
                proc.name()
            ))
        });
        return skip(format!(
            "compiled, but this host cannot execute {}",
            unit.cflags.join(" ")
        ));
    }
    // Correctness before speed: a fast wrong kernel is not a result.
    let differential = match run_differential_with(proc, registry, 1, opts) {
        Ok(DiffOutcome::Agreed { .. }) => "agreed",
        Ok(DiffOutcome::Skipped(why)) => {
            return skip(format!("differential skipped: {why}"));
        }
        Err(e) => fail(&format!("`{}` ({variant}) differential: {e}", proc.name())),
    };
    let tag = format!("{}_{variant}", proc.name());
    let timings = time_variant(&unit, proc, args, &tag, threads);
    threads
        .iter()
        .zip(timings)
        .map(|(&t, timing)| Row {
            variant,
            threads: t,
            differential,
            timing,
        })
        .collect()
}

struct KernelReport {
    name: &'static str,
    size: i64,
    flops: f64,
    rows: Vec<Row>,
}

/// The counts of [`THREAD_COUNTS`] this host can run one thread per
/// hardware thread; each dropped count is logged.
fn omp_thread_counts() -> Vec<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    THREAD_COUNTS
        .iter()
        .copied()
        .filter(|&t| {
            if t > cpus {
                println!(
                    "  skip   OMP_NUM_THREADS={t}: this host has {cpus} hardware thread(s); \
                     the row would time oversubscription, not scaling"
                );
            }
            t <= cpus
        })
        .collect()
}

fn bench_workload(w: &Workload, registry: &ProcRegistry, omp_threads: &[usize]) -> KernelReport {
    let size = choose_size(&w.base, w.sizes)
        .unwrap_or_else(|e| fail(&format!("sizing `{}`: {e}", w.name)));
    let args: Vec<TimedArg> = arg_shapes(&w.base, size)
        .unwrap_or_else(|e| fail(&format!("shaping `{}`: {e}", w.name)))
        .iter()
        .map(TimedArg::from)
        .collect();
    let flops = (w.flops)(size as f64);
    let mut rows = Vec::new();
    rows.extend(bench_variant(
        "scalar",
        &w.base,
        registry,
        &CodegenOptions::portable(),
        &args,
        &[1],
    ));
    rows.extend(bench_variant(
        "avx2",
        &w.tuned,
        registry,
        &CodegenOptions::native(),
        &args,
        &[1],
    ));
    rows.extend(bench_variant(
        "avx2_omp",
        &w.omp,
        registry,
        &CodegenOptions::native_openmp(),
        &args,
        omp_threads,
    ));
    KernelReport {
        name: w.name,
        size,
        flops,
        rows,
    }
}

fn scalar_ns(report: &KernelReport) -> Option<f64> {
    report
        .rows
        .iter()
        .find(|r| r.variant == "scalar")
        .and_then(Row::ns)
}

fn print_report(r: &KernelReport) {
    println!(
        "  bench  {:<10} size {} ({:.0} flops/call)",
        r.name, r.size, r.flops
    );
    let base = scalar_ns(r);
    for row in &r.rows {
        match &row.timing {
            Ok((ns, spread)) => {
                let gflops = r.flops / ns;
                let speedup = base.map(|b| b / ns);
                println!(
                    "         {:<10} {:<9} t={}  {:>12.0} ns/call  {:>7.3} GFLOP/s  {}  spread {:.0}%  diff {}",
                    "",
                    row.variant,
                    row.threads,
                    ns,
                    gflops,
                    speedup.map_or("speedup n/a".to_string(), |s| format!("{s:>5.2}x vs scalar")),
                    spread * 100.0,
                    row.differential,
                );
            }
            Err(why) => println!(
                "         {:<10} {:<9} t={}  SKIPPED ({why})",
                "", row.variant, row.threads
            ),
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

fn json(reports: &[KernelReport], omp_threads: &[usize]) -> String {
    let mut out = exo_bench::bench_json_header("codegen_runtime_bench");
    let counts: Vec<String> = omp_threads.iter().map(|t| t.to_string()).collect();
    out.push_str(&format!("  \"thread_counts\": [{}],\n", counts.join(", ")));
    out.push_str(
        "  \"unit\": \"ns_per_call = median wall-clock ns of one kernel call over independently \
         timed calibrated batches; spread = (max - min) / median over those batches; gflops = \
         flops / ns_per_call; speedup_vs_scalar = scalar ns_per_call / variant ns_per_call; \
         every timed variant first passed the interpreter differential\",\n",
    );
    out.push_str("  \"kernels\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"size\": {}, \"flops\": {:.0}, \"variants\": [\n",
            r.name, r.size, r.flops
        ));
        let base = scalar_ns(r);
        for (j, row) in r.rows.iter().enumerate() {
            let tail = if j + 1 < r.rows.len() { "," } else { "" };
            match &row.timing {
                Ok((ns, spread)) => out.push_str(&format!(
                    "      {{\"variant\": \"{}\", \"threads\": {}, \"status\": \"timed\", \
                     \"differential\": \"{}\", \"ns_per_call\": {:.1}, \"spread\": {:.4}, \
                     \"gflops\": {:.4}, \"speedup_vs_scalar\": {}}}{tail}\n",
                    row.variant,
                    row.threads,
                    row.differential,
                    ns,
                    spread,
                    r.flops / ns,
                    base.map_or("null".to_string(), |b| format!("{:.3}", b / ns)),
                )),
                Err(why) => out.push_str(&format!(
                    "      {{\"variant\": \"{}\", \"threads\": {}, \"status\": \"skipped\", \
                     \"reason\": \"{}\"}}{tail}\n",
                    row.variant,
                    row.threads,
                    json_escape(why),
                )),
            }
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The smoke gate: on a host that can execute the AVX2 unit, the
/// schedule of record must actually be faster than portable scalar.
fn smoke_gate(report: &KernelReport) {
    let caps = HostCaps::detect();
    if !caps.supports_cflags(&["-mavx2", "-mfma"]) {
        println!(
            "smoke: host cannot execute -mavx2 -mfma ({}) — speedup gate skipped",
            caps.summary()
        );
        return;
    }
    let scalar = scalar_ns(report)
        .unwrap_or_else(|| fail("smoke: scalar variant was not timed on a capable host"));
    let avx2 = report
        .rows
        .iter()
        .find(|r| r.variant == "avx2")
        .and_then(Row::ns)
        .unwrap_or_else(|| fail("smoke: avx2 variant was not timed on a capable host"));
    let speedup = scalar / avx2;
    if speedup < SMOKE_MIN_SPEEDUP {
        fail(&format!(
            "smoke: AVX2 sgemm is only {speedup:.2}x faster than scalar \
             (gate: {SMOKE_MIN_SPEEDUP}x) — the intrinsics path regressed"
        ));
    }
    println!("smoke: AVX2 sgemm speedup {speedup:.2}x >= {SMOKE_MIN_SPEEDUP}x gate");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "codegen_runtime_bench: run-verified wall-clock GFLOP/s across backend modes{}",
        if smoke { " [smoke mode]" } else { "" }
    );
    if !cc_available() {
        println!("notice: no `cc` on PATH — nothing can be timed, exiting without results");
        return;
    }
    println!("  host   {}", HostCaps::detect().summary());
    let machine = MachineModel::avx2();
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let omp_threads = omp_thread_counts();
    let mut reports = Vec::new();
    for w in workloads(&machine, smoke) {
        let report = bench_workload(&w, &registry, &omp_threads);
        print_report(&report);
        reports.push(report);
    }
    if smoke {
        smoke_gate(&reports[0]);
        println!("smoke mode: no JSON written");
        return;
    }
    let path = "BENCH_codegen_runtime.json";
    std::fs::write(path, json(&reports, &omp_threads))
        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    println!("wrote {path}");
}

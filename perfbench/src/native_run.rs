//! `native_run`: exo-lib schedules of four kernels, compiled during
//! set-up and then timed single-threaded on the host CPU, one row per
//! (kernel, ISA) that `HostCaps` says the host can execute.
//!
//! Set-up schedules, emits, passes each row through the interpreter
//! differential, compiles a timing driver and calibrates a batch to
//! ~20 ms. The timed region sends batches to the long-lived drivers
//! round-robin, in a seeded order per round; each driver reports the
//! nanoseconds of its batch. OpenMP rows are left out: on a 2-CPU host
//! they measure oversubscription, not scaling.

use crate::common::{geomean, median, quantile, timed_setup, Ledger, Outcome, Rng, RunCfg};
use exo_codegen::difftest::{
    arg_shapes, compile, emit_driver, interp_outputs, synth_inputs, ArgShape, SynthArg,
};
use exo_codegen::{emit_c, CUnit, CodegenOptions};
use exo_cursors::ProcHandle;
use exo_guard::{run_guarded, GuardConfig};
use exo_interp::ProcRegistry;
use exo_ir::{DataType, Proc};
use exo_kernels::Precision;
use exo_lib::{halide_blur_schedule, optimize_level_1, optimize_level_2_general, optimize_sgemm};
use exo_machine::{HostCaps, MachineModel};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Target length of one timed batch.
const BATCH_NS: f64 = 2e7;

/// One kernel of the workload and why it is here.
struct Spec {
    name: &'static str,
    /// Problem size (every size argument takes it).
    size: i64,
    flops: fn(f64) -> f64,
    build: fn() -> Proc,
    schedule: fn(&ProcHandle, &MachineModel) -> Result<ProcHandle, String>,
}

fn specs() -> Vec<Spec> {
    vec![
        // Compute-bound; 3 × 256 KB fits in L2.
        Spec {
            name: "sgemm",
            size: 256,
            flops: |s| 2.0 * s * s * s,
            build: exo_kernels::sgemm,
            schedule: |p, m| optimize_sgemm(p, m).map_err(|e| e.to_string()),
        },
        // 4 MB matrix: spills L2, bandwidth-bound.
        Spec {
            name: "sgemv_n",
            size: 1024,
            flops: |s| 2.0 * s * s,
            build: || exo_kernels::gemv(Precision::Single, false),
            schedule: |p, m| {
                let i = p.find_loop("i").map_err(|e| e.to_string())?;
                optimize_level_2_general(p, &i, DataType::F32, m, 4, 2).map_err(|e| e.to_string())
            },
        },
        // Two-stage stencil (producer/consumer fusion).
        Spec {
            name: "blur2d",
            size: 512,
            flops: |s| 3.0 * ((s + 2.0) * s + s * s),
            build: exo_kernels::blur2d,
            schedule: |p, m| halide_blur_schedule(p, m).map_err(|e| e.to_string()),
        },
        // Streaming level-1: 2 × 16 MB, far beyond L2.
        Spec {
            name: "saxpy",
            size: 1 << 22,
            flops: |s| 2.0 * s,
            build: || exo_kernels::axpy(Precision::Single),
            schedule: |p, m| {
                let i = p.find_loop("i").map_err(|e| e.to_string())?;
                optimize_level_1(p, &i, DataType::F32, m, 2).map_err(|e| e.to_string())
            },
        },
    ]
}

/// The ISAs this host can execute, from `HostCaps`.
pub fn host_isas() -> Vec<(&'static str, MachineModel)> {
    let caps = HostCaps::detect();
    let mut v = Vec::new();
    if caps.supports_cflags(&["-mavx2", "-mfma"]) {
        v.push(("avx2", MachineModel::avx2()));
    }
    if caps.supports_cflags(&["-mavx512f"]) {
        v.push(("avx512", MachineModel::avx512()));
    }
    v
}

fn c_elem(ty: DataType) -> Result<&'static str, String> {
    Ok(match ty {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I8 => "int8_t",
        DataType::I32 => "int32_t",
        other => return Err(format!("no driver element type for {other:?}")),
    })
}

/// One binary per row. Run with `EXO_DUMP` set, it is the interpreter
/// differential's dump driver (`emit_driver`: the seeded small inputs
/// embedded, one call, every tensor printed). Otherwise it is a
/// long-lived timing driver: it fills every tensor at the row's size
/// from the seed, then for each line `reps` on stdin runs the kernel
/// `reps` times and prints the batch's nanoseconds; on EOF it prints a
/// checksum of the tensors. One source, so one `cc` call per row.
fn row_source(
    unit: &CUnit,
    proc: &Proc,
    inputs: &[SynthArg],
    shapes: &[ArgShape],
    seed: u64,
) -> Result<String, String> {
    let dump = emit_driver(unit, proc, inputs);
    let dump = dump.replacen("int main(void) {", "static int exo_dump(void) {", 1);
    let mut s = String::with_capacity(dump.len() + 4096);
    s.push_str("#define _POSIX_C_SOURCE 199309L\n");
    s.push_str(&dump);
    s.push_str(&format!(
        "\n#include <stdlib.h>\n#include <time.h>\n\n\
         static double exo_now_ns(void) {{\n    struct timespec t;\n    \
         clock_gettime(CLOCK_MONOTONIC, &t);\n    \
         return (double)t.tv_sec * 1e9 + (double)t.tv_nsec;\n}}\n\n\
         static unsigned long long exo_rng = {}ULL;\n\
         static int exo_next(void) {{\n    exo_rng ^= exo_rng << 13;\n    \
         exo_rng ^= exo_rng >> 7;\n    exo_rng ^= exo_rng << 17;\n    \
         return (int)(exo_rng % 9) - 4;\n}}\n\n\
         int main(void) {{\n    if (getenv(\"EXO_DUMP\")) return exo_dump();\n",
        seed | 1
    ));
    let mut args = Vec::new();
    let mut tensors = Vec::new();
    for (k, shape) in shapes.iter().enumerate() {
        let var = format!("a{k}");
        match shape {
            ArgShape::Size(v) => args.push(v.to_string()),
            ArgShape::Scalar(ty) => {
                args.push(if *ty == DataType::F32 { "0.5f" } else { "0.5" }.into())
            }
            ArgShape::Tensor(ty, dims) => {
                let elem = c_elem(*ty)?;
                let len: usize = dims.iter().product::<usize>().max(1);
                // Values in [-0.5, 0.5]: accumulating kernels stay far
                // from overflow over thousands of repetitions.
                s.push_str(&format!(
                    "    {elem} *{var} = ({elem} *)malloc(sizeof({elem}) * {len});\n    \
                     if (!{var}) return 2;\n    \
                     for (long i = 0; i < {len}; i++) {var}[i] = ({elem})exo_next() / 8;\n"
                ));
                args.push(var.clone());
                tensors.push((var, len));
            }
        }
    }
    let call = format!("{}({});", proc.name(), args.join(", "));
    s.push_str(&format!(
        "    char line[64];\n    while (fgets(line, sizeof line, stdin)) {{\n        \
         long reps = strtol(line, NULL, 10);\n        \
         double t0 = exo_now_ns();\n        \
         for (long r = 0; r < reps; r++) {{ {call} }}\n        \
         printf(\"%.17g\\n\", exo_now_ns() - t0);\n        fflush(stdout);\n    }}\n    \
         double sum = 0;\n"
    ));
    for (var, len) in &tensors {
        s.push_str(&format!(
            "    for (long i = 0; i < {len}; i++) sum += (double){var}[i];\n"
        ));
    }
    s.push_str("    printf(\"checksum %.17g\\n\", sum);\n    return 0;\n}\n");
    Ok(s)
}

/// The interpreter differential: the binary's dump of every tensor
/// after one call on the small inputs must match the interpreter's, to
/// an f32-rounding tolerance (the interpreter computes in f64).
fn differential(bin: &Path, expected: &[Vec<f64>]) -> Result<(), String> {
    let mut cmd = Command::new(bin);
    cmd.env("EXO_DUMP", "1");
    let out = run_guarded(
        &mut cmd,
        &GuardConfig::with_timeout(Duration::from_secs(60)),
    )
    .map_err(|e| format!("dump run: {e}"))?;
    if !out.success {
        return Err(format!("dump run exited with {:?}", out.code));
    }
    let got: Vec<f64> = out
        .stdout_lossy()
        .split_ascii_whitespace()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|e| format!("bad dump value `{t}`: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let want: Vec<f64> = expected.iter().flatten().copied().collect();
    if got.len() != want.len() {
        return Err(format!(
            "dump has {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    // Written so that a NaN on either side is a mismatch.
    let close = |g: f64, w: f64| (g - w).abs() <= 1e-4 * w.abs().max(1.0);
    match got.iter().zip(&want).position(|(g, w)| !close(*g, *w)) {
        Some(i) => Err(format!(
            "element {i}: C {} vs interpreter {}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// A running driver process; dropped drivers are killed and reaped.
struct Driver {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    bin: PathBuf,
}

impl Driver {
    fn spawn(bin: PathBuf) -> Result<Driver, String> {
        let mut child = Command::new(&bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().ok_or("driver has no stdout")?);
        Ok(Driver {
            child,
            stdin,
            stdout,
            bin,
        })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err(format!("{} closed its output", self.bin.display())),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Runs one batch; returns its nanoseconds.
    fn batch(&mut self, reps: u64) -> Result<f64, String> {
        let stdin = self.stdin.as_mut().ok_or("driver input closed")?;
        writeln!(stdin, "{reps}").map_err(|e| e.to_string())?;
        stdin.flush().map_err(|e| e.to_string())?;
        let line = self.read_line()?;
        line.parse::<f64>()
            .map_err(|e| format!("bad batch output `{line}`: {e}"))
    }

    /// Closes the driver's input and returns its final checksum.
    fn finish(&mut self) -> Result<f64, String> {
        self.stdin = None;
        let line = self.read_line()?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("driver exited with {status}"));
        }
        line.strip_prefix("checksum ")
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("bad checksum line `{line}`"))
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = self.bin.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One (kernel, ISA) row after set-up.
struct Row {
    id: String,
    flops: f64,
    c_bytes: usize,
    driver: Driver,
    reps: u64,
}

/// A row's C source and what its checks need, before `cc`.
struct Prepared {
    id: String,
    flops: f64,
    c_bytes: usize,
    cflags: Vec<String>,
    source: String,
    expected: Vec<Vec<f64>>,
}

fn prepare_row(
    spec: &Spec,
    isa: &str,
    machine: &MachineModel,
    seed: u64,
) -> Result<Prepared, String> {
    let id = format!("{}.{isa}", spec.name);
    let base = (spec.build)();
    let scheduled = {
        let _s = exo_obs::span!("lib:schedule", "{id}");
        (spec.schedule)(&ProcHandle::new(base.clone()), machine)?
    };
    let proc = scheduled.proc().clone();
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let unit = {
        let _s = exo_obs::span!("codegen:emit_c", "{id}");
        emit_c(&proc, &registry, &CodegenOptions::native())
            .map_err(|e| format!("{id}: emit: {e}"))?
    };
    if !HostCaps::detect().supports_cflags(&unit.cflags) {
        return Err(format!("{id}: host cannot run {}", unit.cflags.join(" ")));
    }
    let inputs = synth_inputs(&proc, seed)?;
    let expected = interp_outputs(&proc, &registry, &inputs)?;
    let shapes = arg_shapes(&base, spec.size)?;
    Ok(Prepared {
        flops: (spec.flops)(spec.size as f64),
        c_bytes: unit.code.len(),
        source: row_source(&unit, &proc, &inputs, &shapes, seed)?,
        cflags: unit.cflags,
        expected,
        id,
    })
}

/// Checks a compiled row against the interpreter, then starts its
/// driver and calibrates its batch.
fn start_row(p: Prepared, bin: PathBuf) -> Result<Row, String> {
    // Correctness before speed.
    if let Err(e) = differential(&bin, &p.expected) {
        let _ = std::fs::remove_dir_all(bin.parent().unwrap_or(&bin));
        return Err(format!("{}: interpreter differential: {e}", p.id));
    }
    let mut driver = Driver::spawn(bin)?;
    // Warm, then double the repetitions until a batch spans BATCH_NS.
    driver.batch(1)?;
    let mut reps = 1u64;
    while driver.batch(reps)? < BATCH_NS && reps < 1 << 24 {
        reps *= 2;
    }
    Ok(Row {
        id: p.id,
        flops: p.flops,
        c_bytes: p.c_bytes,
        driver,
        reps,
    })
}

/// Set-up of every row: preparation and checks run on this thread (so
/// the set-up's peak memory does not depend on thread interleaving);
/// only the `cc` calls run on `threads` threads. Rows that fail are
/// returned as errors so they count against `pass_ratio`.
fn setup(seed: u64, threads: usize) -> Vec<Result<Row, String>> {
    let isas = host_isas();
    let prepared: Vec<Result<Prepared, String>> = specs()
        .iter()
        .flat_map(|spec| {
            isas.iter()
                .map(move |(isa, m)| prepare_row(spec, isa, m, seed))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let bins: Vec<Mutex<Option<Result<PathBuf, String>>>> =
        prepared.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, prepared.len().max(1)) {
            scope.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = prepared.get(i) else { break };
                    if let Ok(p) = p {
                        let bin = compile(&p.source, &p.cflags, &p.id.replace('.', "_"))
                            .map_err(|e| format!("{}: {e}", p.id));
                        *bins[i].lock().expect("bins poisoned") = Some(bin);
                    }
                }
                exo_obs::trace::flush_thread();
            });
        }
    });
    prepared
        .into_iter()
        .zip(bins)
        .map(|(p, bin)| {
            let bin = bin.into_inner().expect("bins poisoned");
            match (p, bin) {
                (Ok(p), Some(Ok(bin))) => start_row(p, bin),
                (Err(e), _) | (_, Some(Err(e))) => Err(e),
                (Ok(p), None) => Err(format!("{}: never compiled", p.id)),
            }
        })
        .collect()
}

/// Per-row timings of the timed region.
struct Timed {
    ns_per_call: Vec<Vec<f64>>,
    batch_ns: f64,
    wall_s: f64,
    rounds: usize,
    errors: Vec<Option<String>>,
}

fn timed_rounds(rows: &mut [Row], seconds: f64, rng: &mut Rng) -> Timed {
    let n = rows.len();
    let mut t = Timed {
        ns_per_call: vec![Vec::new(); n],
        batch_ns: 0.0,
        wall_s: 0.0,
        rounds: 0,
        errors: vec![None; n],
    };
    let mut order: Vec<usize> = (0..n).collect();
    let start = Instant::now();
    while t.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            if t.errors[i].is_some() {
                continue;
            }
            let row = &mut rows[i];
            let _s = exo_obs::span!("run:batch", "{}", row.id);
            match row.driver.batch(row.reps) {
                Ok(ns) => {
                    t.batch_ns += ns;
                    t.ns_per_call[i].push(ns / row.reps as f64);
                }
                Err(e) => t.errors[i] = Some(e),
            }
        }
        t.rounds += 1;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let caps = HostCaps::detect();
    out.line(format!(
        "  rows: {:?} x {:?}; OpenMP rows omitted (on {} CPUs they measure oversubscription)",
        specs().iter().map(|s| s.name).collect::<Vec<_>>(),
        host_isas().iter().map(|i| i.0).collect::<Vec<_>>(),
        caps.threads
    ));
    let mut ledger = Ledger::default();
    let (results, setup_s) = if cfg.trace {
        // The traced run sets up once, under the session, for the guard
        // and cc ledger of set-up.
        let session = exo_obs::session();
        let t0 = Instant::now();
        let r = setup(cfg.seed, cfg.threads);
        let s = t0.elapsed().as_secs_f64();
        let trace = session.finish();
        ledger.add(&trace);
        crate::common::write_chrome_trace(cfg, "native_run-setup", &trace)?;
        (r, s)
    } else {
        timed_setup(|| Ok(setup(cfg.seed, cfg.threads)))?
    };
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    for r in results {
        match r {
            Ok(row) => rows.push(row),
            Err(e) => broken.push(e),
        }
    }
    if rows.is_empty() {
        return Err(format!("no native row could be set up: {broken:?}"));
    }
    let mut rng = Rng::new(cfg.seed);
    let (plain, t) = if cfg.trace {
        let plain = timed_rounds(&mut rows, cfg.seconds / 2.0, &mut rng);
        let session = exo_obs::session();
        let t = timed_rounds(&mut rows, cfg.seconds / 2.0, &mut rng);
        ledger.add(&session.finish());
        (Some(plain), t)
    } else {
        (None, timed_rounds(&mut rows, cfg.seconds, &mut rng))
    };
    // Checks after the timed region: every driver exits cleanly with a
    // finite checksum.
    for (i, row) in rows.iter_mut().enumerate() {
        out.attempted += t.ns_per_call[i].len() as u64;
        let verdict = match (&t.errors[i], row.driver.finish()) {
            (Some(e), _) => Err(e.clone()),
            (None, Err(e)) => Err(e),
            (None, Ok(sum)) if !sum.is_finite() => Err(format!("checksum {sum}")),
            _ => Ok(()),
        };
        if let Err(e) = verdict {
            out.failed += t.ns_per_call[i].len() as u64;
            out.failures.push(format!("{}: {e}", row.id));
        }
    }
    // A row that failed set-up (differential, emit or cc) weighs as much
    // as a working row: it fails as many batches as the working rows ran
    // on average, so one broken row moves `pass_ratio` by about 1/rows.
    let batches: usize = t.ns_per_call.iter().map(Vec::len).sum();
    let per_row = batches.div_ceil(rows.len()).max(1) as u64;
    for e in broken {
        out.attempted += per_row;
        out.failed += per_row;
        out.failures.push(e);
    }
    out.line(format!(
        "  {:<16} {:>7} {:>14} {:>9} {:>9} {:>8}",
        "row", "batches", "ns_per_call", "GFLOP/s", "spread", "c_bytes"
    ));
    let mut gflops = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let v = &t.ns_per_call[i];
        let ns = median(v);
        let spread = (quantile(v, 0.75) - quantile(v, 0.25)) / ns;
        gflops.push((row.id.clone(), row.flops / ns));
        out.line(format!(
            "  {:<16} {:>7} {:>14.1} {:>9.3} {:>8.2}% {:>8}",
            row.id,
            v.len(),
            ns,
            row.flops / ns,
            100.0 * spread,
            row.c_bytes
        ));
        if cfg.trace {
            out.metric(format!("run.ns_per_call.{}", row.id), ns, "ns");
            out.metric(format!("run.spread.{}", row.id), spread, "ratio");
            out.metric(
                format!("codegen.c_bytes.{}", row.id),
                row.c_bytes as f64,
                "bytes",
            );
        }
    }
    // Per-row medians: the percentiles are over programs, so one
    // descheduled batch cannot move them.
    let row_ms: Vec<f64> = t.ns_per_call.iter().map(|v| median(v) / 1e6).collect();
    let timed_share = t.batch_ns / (t.wall_s * 1e9);
    out.line(format!(
        "  {} rounds in {:.2} s; driver-timed calls cover {:.1}% of the timed region",
        t.rounds,
        t.wall_s,
        100.0 * timed_share
    ));
    if !cfg.trace {
        let values: Vec<f64> = gflops.iter().map(|g| g.1 * 1e9).collect();
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput", geomean(&values), "1/s");
        out.metric("latency_ms_p50", quantile(&row_ms, 0.5), "ms");
        out.metric("latency_ms_p99", quantile(&row_ms, 0.99), "ms");
        return Ok(out);
    }
    let best_sgemm = gflops
        .iter()
        .filter(|g| g.0.starts_with("sgemm."))
        .map(|g| g.1)
        .fold(0.0, f64::max);
    out.metric("run.gflops_sgemm", best_sgemm, "GFLOP/s");
    out.metric("run.timed_share", timed_share, "ratio");
    crate::common::guard_metrics(&ledger, &mut out, 1.0);
    out.metric("codegen.emit_ms", ms_total(&ledger, "codegen:emit_c"), "ms");
    out.metric("lib.schedule_ms", ms_total(&ledger, "lib:schedule"), "ms");
    if let Some(plain) = plain {
        out.metric(
            "obs.overhead_pct",
            crate::common::overhead_pct(
                plain.wall_s / plain.rounds as f64,
                t.wall_s / t.rounds as f64,
            ),
            "%",
        );
    }
    out.report
        .extend(ledger.table((setup_s * 1e9) as u64 + (t.wall_s * 1e9) as u64));
    Ok(out)
}

fn ms_total(ledger: &Ledger, name: &str) -> f64 {
    ledger.get(name).total_ns as f64 / 1e6
}

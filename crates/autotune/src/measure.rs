//! Wall-clock measurement of candidate schedules: the top-K candidates
//! of one kernel are emitted into one C translation unit per distinct
//! flag set, each compiled with one `cc` call and timed by one driver.
//!
//! * **One unit per kernel.** Each candidate keeps its own function,
//!   renamed `<kernel>_c<i>` for batch index `i`, and the unit shares
//!   instruction helpers between them ([`exo_codegen::emit_c_roots`]).
//!   A candidate is emitted with machine intrinsics when the host
//!   toolchain and CPU can build and run them
//!   ([`exo_machine::HostCaps`]), else as the portable scalar unit.
//!   Candidates whose mode (native or portable), `cflags`, demoted
//!   instructions or synthesized inputs differ go into separate units,
//!   and a unit is compiled with only its own `cflags`. So every
//!   candidate is built exactly as its solo unit would be: a scalar
//!   candidate without `-m` flags, a vectorized one with the flags its
//!   intrinsics need. For one kernel this is one unit per distinct flag
//!   set, so `cc` start-up is paid once per unit, not once per candidate.
//!   The shared compile precompiles each unit's leading `#include`s, so
//!   `<immintrin.h>` is parsed once per flag set per host, not once per
//!   unit.
//! * **Build, then time.** All units of one call are emitted, then
//!   compiled concurrently (as many at a time as the host has CPUs),
//!   before the first timing process starts. Timing then runs unit by
//!   unit, so no `cc` competes with a timed batch.
//! * **One driver.** Before each candidate's warm-up and before each of
//!   its timed batches, the driver copies the synthesized inputs from a
//!   `const` master, so no candidate times on another's output. It
//!   calibrates each candidate's repetition count by extrapolating from
//!   the last batch until a batch spans [`MIN_BATCH_NS`], then times
//!   [`TIMED_RUNS`] interleaved rounds, one batch of every candidate per
//!   round, so a slow phase of the host hits all candidates alike.
//! * **Runs.** The binary runs as `threads` concurrent processes, each
//!   given a disjoint set of candidates on its command line.
//! * **Failure stays per candidate.** A unit that fails to build is
//!   split in half and each half built and timed again, so only a
//!   candidate that fails on its own is [`Measurement::Failed`], with the
//!   `cc` diagnostics. A process that crashes or hangs fails the
//!   candidate it was running; the candidates it had not finished are
//!   re-run in a fresh process.
//!   Planning and unit building run under `catch_unwind`, so a panic
//!   surfaces as [`Measurement::Panicked`] on the candidates involved
//!   instead of unwinding the search.
//!
//! Inputs come from the differential harness's synthesizer
//! (`exo_codegen::difftest`), so measured kernels run on exactly the
//! input shapes the cost model was evaluated on. Every process runs
//! under [`exo_guard::run_guarded`] (hard wall-clock limit,
//! kill-on-timeout).

use exo_codegen::difftest::{cc_available, compile, synth_inputs, SynthArg};
use exo_codegen::{emit_c, emit_c_roots, CodegenOptions};
use exo_guard::{panic_message, run_guarded, GuardConfig, GuardError};
use exo_interp::ProcRegistry;
use exo_ir::{DataType, Proc};
use exo_machine::{HostCaps, MachineModel};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The outcome of measuring one candidate.
#[derive(Clone, Debug, PartialEq)]
pub enum Measurement {
    /// A successful timing: median over the repeated timed runs, plus
    /// their relative run-to-run spread.
    Nanos {
        /// Median nanoseconds per call across the timed runs.
        ns: f64,
        /// Relative spread `(max − min) / median` of the runs — how
        /// noisy this particular measurement was.
        spread: f64,
    },
    /// Measurement failed cleanly (compile error, timeout, bad output).
    Failed(String),
    /// Measurement *panicked*; the payload is the panic message. The
    /// worker survived and went on to the next candidate.
    Panicked(String),
    /// Measurement was not attempted (no C compiler on `PATH`).
    Unavailable,
}

impl Measurement {
    /// The measured (median) nanoseconds, when measurement succeeded.
    pub fn nanos(&self) -> Option<f64> {
        match self {
            Measurement::Nanos { ns, .. } => Some(*ns),
            _ => None,
        }
    }

    /// The relative run-to-run spread, when measurement succeeded.
    pub fn spread(&self) -> Option<f64> {
        match self {
            Measurement::Nanos { spread, .. } => Some(*spread),
            _ => None,
        }
    }

    /// The error message, when measurement failed or panicked.
    pub fn error(&self) -> Option<&str> {
        match self {
            Measurement::Failed(msg) | Measurement::Panicked(msg) => Some(msg),
            _ => None,
        }
    }
}

/// Timed rounds per measurement: each round times one batch of every
/// candidate in the process, and each batch reports its own
/// ns-per-call, so the summary can take a median instead of trusting one
/// sample of a noisy timer.
pub const TIMED_RUNS: usize = 5;

/// Minimum wall-clock span of one timed batch, in nanoseconds (20 ms).
/// The driver extrapolates its repetition count until a batch reaches
/// this, and re-times any timed batch that falls short: below it, timer
/// granularity and scheduler noise drown out sub-microsecond kernels and
/// the measured ranking is meaningless.
pub const MIN_BATCH_NS: f64 = 2e7;

/// Cap on the repetition count: a kernel too cheap to fill
/// [`MIN_BATCH_NS`] within this many calls is timed at the cap.
const MAX_REPS: u64 = 1 << 20;

/// Reduces the per-run ns-per-call samples of one measurement to
/// `(median, relative spread)`. The median — not the mean — is what
/// ranks candidates: one descheduled run inflates a mean enough to flip
/// adjacent ranks, while the median ignores it. Returns `None` on an
/// empty slice.
pub fn summarize_runs(runs: &[f64]) -> Option<(f64, f64)> {
    if runs.is_empty() {
        return None;
    }
    let mut sorted = runs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let spread = if median > 0.0 {
        (sorted[n - 1] - sorted[0]) / median
    } else {
        0.0
    };
    Some((median, spread))
}

/// Starting repetition count for a candidate's calibration, matched to
/// its simulated cost so cheap kernels need fewer calibration batches
/// and expensive ones start low.
fn reps_for(cycles: u64) -> u64 {
    (20_000_000 / cycles.max(1)).clamp(3, 5_000)
}

/// Wall-clock allowance per candidate in one timing process: a bounded
/// repetition loop finishes in well under a minute; past that it is
/// hung.
const RUN_TIMEOUT_PER_CANDIDATE: Duration = Duration::from_secs(60);

/// A candidate ready to go into a unit.
struct Planned {
    /// The candidate, renamed `<kernel>_c<i>`.
    proc: Proc,
    /// Starting repetition count for calibration.
    reps: u64,
    /// What it must share with the other candidates of its unit.
    key: UnitKey,
}

/// What candidates must share to go into one unit.
#[derive(PartialEq)]
struct UnitKey {
    /// Emitted with machine intrinsics (else portable scalar).
    native: bool,
    /// The compiler flags of the candidate's solo unit; the unit is
    /// compiled with exactly these.
    cflags: Vec<String>,
    /// Instructions demoted to their scalar bodies.
    scalar_fallback: Vec<String>,
    /// The synthesized inputs, shared by the unit's driver.
    inputs: Vec<SynthArg>,
}

/// Renames candidate `index`, decides its emission mode and works out its
/// unit key. With `native`, the candidate is emitted with machine
/// intrinsics whenever the host toolchain and CPU can build and run it;
/// otherwise (non-stock intrinsics, a CPU without the `-m` features) it
/// falls back to the portable scalar unit, so a batch never fails just
/// because the host is modest.
fn plan(
    proc: &Proc,
    cycles: u64,
    index: usize,
    registry: &ProcRegistry,
    input_seed: u64,
    native: bool,
) -> Result<Planned, String> {
    let renamed = proc.clone().with_name(format!("{}_c{index}", proc.name()));
    let mut solo = None;
    if native {
        let n = emit_c(&renamed, registry, &CodegenOptions::native())
            .map_err(|e| format!("emitting `{}` (native): {e}", renamed.name()))?;
        if n.stock_toolchain
            && (n.cflags.is_empty() || HostCaps::detect().supports_cflags(&n.cflags))
        {
            solo = Some((true, n));
        }
    }
    let (native, solo) = match solo {
        Some(s) => s,
        None => (
            false,
            emit_c(&renamed, registry, &CodegenOptions::portable())
                .map_err(|e| format!("emitting `{}`: {e}", renamed.name()))?,
        ),
    };
    let key = UnitKey {
        native,
        cflags: solo.cflags,
        scalar_fallback: solo.scalar_fallback,
        inputs: synth_inputs(&renamed, input_seed)?,
    };
    Ok(Planned {
        proc: renamed,
        reps: reps_for(cycles),
        key,
    })
}

/// The C element type of a synthesized tensor.
fn c_elem(elem: DataType) -> &'static str {
    match elem {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I8 => "int8_t",
        DataType::I32 => "int32_t",
        DataType::Bool => "bool",
        DataType::Index => "int64_t",
    }
}

/// Emits the timing driver for a unit: `unit_code` holds the candidate
/// functions `roots`, all called on `inputs`, calibrating from `reps`.
///
/// Its `main` takes candidate positions (indices into `roots`) as
/// arguments. For each, it prints `run <pos>` before every batch, so a
/// crash can be attributed, and `<pos> <ns/call> <batch ns>` after each
/// of the [`TIMED_RUNS`] timed batches. All output is flushed line by
/// line.
fn emit_timing_driver(
    unit_code: &str,
    roots: &[Proc],
    inputs: &[SynthArg],
    reps: &[u64],
) -> String {
    let mut s = String::with_capacity(unit_code.len() + 4096);
    // clock_gettime is POSIX, hidden by -std=c99 unless requested before
    // the first include.
    s.push_str("#define _POSIX_C_SOURCE 199309L\n");
    s.push_str("#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n");
    s.push_str("#include <string.h>\n#include <time.h>\n\n");
    s.push_str(unit_code);
    s.push('\n');
    // Inputs: a const master per tensor, copied into the working buffer
    // by exo_reset() before every warm-up and timed batch.
    let mut call_args = Vec::with_capacity(inputs.len());
    let mut reset = String::new();
    for (k, input) in inputs.iter().enumerate() {
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
                let celem = c_elem(*elem);
                let init: Vec<String> = data
                    .iter()
                    .map(|v| {
                        if elem.is_float() {
                            exo_ir::format_float(*v)
                        } else {
                            format!("{}", *v as i64)
                        }
                    })
                    .collect();
                s.push_str(&format!(
                    "static const {celem} exo_master_{k}[{}] = {{ {} }};\n\
                     static {celem} {var}[{}];\n",
                    data.len(),
                    init.join(", "),
                    data.len()
                ));
                reset.push_str(&format!(
                    "    memcpy({var}, exo_master_{k}, sizeof {var});\n"
                ));
                if dims.is_empty() || !*window {
                    call_args.push(var.clone());
                } else {
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
            }
        }
    }
    let args = call_args.join(", ");
    s.push_str(&format!("\nstatic void exo_reset(void) {{\n{reset}}}\n"));
    // One batch function per candidate: the timed loop calls the
    // candidate directly, exactly as a one-candidate driver would.
    let mut table = Vec::with_capacity(roots.len());
    for (pos, root) in roots.iter().enumerate() {
        let name = root.name();
        s.push_str(&format!(
            r#"
static double exo_batch_{pos}(long exo_reps) {{
    struct timespec exo_t0, exo_t1;
    clock_gettime(CLOCK_MONOTONIC, &exo_t0);
    for (long exo_r = 0; exo_r < exo_reps; exo_r++) {{
        {name}({args});
    }}
    clock_gettime(CLOCK_MONOTONIC, &exo_t1);
    return (double)(exo_t1.tv_sec - exo_t0.tv_sec) * 1e9 + (double)(exo_t1.tv_nsec - exo_t0.tv_nsec);
}}
"#
        ));
        table.push(format!("exo_batch_{pos}"));
    }
    let table = table.join(", ");
    let starts: Vec<String> = reps.iter().map(|r| r.to_string()).collect();
    let starts = starts.join(", ");
    let n = roots.len();
    // Calibration extrapolates: the next count is the one the last batch
    // predicts would span MIN_BATCH_NS, plus 5%, so one or two batches
    // usually suffice where blind doubling overshoots.
    s.push_str(&format!(
        r#"
static double (*const exo_batch[{n}])(long) = {{ {table} }};
static const long exo_start_reps[{n}] = {{ {starts} }};

/* Times candidate c until one batch spans MIN_BATCH_NS or the count is
   capped; returns that batch's nanoseconds. Every batch, re-timed ones
   included, starts from the master inputs. */
static double exo_timed(int c, long *reps) {{
    for (;;) {{
        exo_reset();
        double ns = exo_batch[c](*reps);
        if (ns >= {MIN_BATCH_NS:.1} || *reps >= {MAX_REPS}L) return ns;
        double next = ceil((double)*reps * {MIN_BATCH_NS:.1} / (ns > 1.0 ? ns : 1.0) * 1.05);
        *reps = next >= {MAX_REPS}.0 ? {MAX_REPS}L : (long)next;
    }}
}}

static void exo_start(int c) {{
    printf("run %d\n", c);
    fflush(stdout);
}}

int main(int argc, char **argv) {{
    int exo_ids[{n}];
    long exo_reps[{n}];
    int exo_n = argc - 1;
    if (exo_n < 1 || exo_n > {n}) return 2;
    for (int a = 0; a < exo_n; a++) {{
        exo_ids[a] = atoi(argv[a + 1]);
        if (exo_ids[a] < 0 || exo_ids[a] >= {n}) return 2;
    }}
    for (int a = 0; a < exo_n; a++) {{
        exo_start(exo_ids[a]);
        exo_reset();
        exo_batch[exo_ids[a]](2);
        exo_reps[a] = exo_start_reps[exo_ids[a]];
        exo_timed(exo_ids[a], &exo_reps[a]);
    }}
    for (int round = 0; round < {TIMED_RUNS}; round++) {{
        for (int a = 0; a < exo_n; a++) {{
            exo_start(exo_ids[a]);
            double ns = exo_timed(exo_ids[a], &exo_reps[a]);
            printf("%d %.17g %.17g\n", exo_ids[a], ns / (double)exo_reps[a], ns);
            fflush(stdout);
        }}
    }}
    return 0;
}}
"#
    ));
    s
}

/// What one timing process printed.
#[derive(Default)]
struct Report {
    /// Per candidate position: ns-per-call of each timed batch.
    runs: BTreeMap<usize, Vec<f64>>,
    /// The candidate whose batch was last started.
    running: Option<usize>,
}

impl Report {
    fn parse(stdout: &str) -> Report {
        let mut report = Report::default();
        for line in stdout.lines() {
            let mut fields = line.split_ascii_whitespace();
            match (fields.next(), fields.next()) {
                (Some("run"), Some(pos)) => report.running = pos.parse().ok(),
                (Some(pos), Some(ns)) => {
                    if let (Ok(pos), Ok(ns)) = (pos.parse(), ns.parse()) {
                        report.runs.entry(pos).or_default().push(ns);
                    }
                }
                _ => {}
            }
        }
        report
    }

    /// The `(median, spread)` of candidate `pos`, or why there is none.
    fn summary(&self, pos: usize) -> Outcome {
        self.runs
            .get(&pos)
            .and_then(|runs| summarize_runs(runs))
            .ok_or_else(|| "the timing process printed no runs for this candidate".to_string())
    }
}

/// One candidate's `(median ns, spread)`, or why it has none.
type Outcome = Result<(f64, f64), String>;

/// An outcome per candidate position.
type Outcomes = Vec<Outcome>;

/// Runs the timing binary over candidate positions `pending` until each
/// has an outcome. When a process crashes or hangs, the candidate it was
/// running fails, candidates that completed every round keep their
/// result, and the rest run again in a fresh process.
fn run_share(bin: &Path, mut pending: Vec<usize>) -> Vec<(usize, Outcome)> {
    let mut done = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let mut cmd = Command::new(bin);
        cmd.args(pending.iter().map(usize::to_string));
        let guard = GuardConfig::with_timeout(RUN_TIMEOUT_PER_CANDIDATE * pending.len() as u32);
        let (stdout, failure) = match run_guarded(&mut cmd, &guard) {
            Ok(out) if out.success => (out.stdout_lossy(), None),
            Ok(out) => {
                let why = match out.code {
                    Some(code) => format!("exited with status {code}"),
                    None => "was killed by a signal".to_string(),
                };
                (out.stdout_lossy(), Some(why))
            }
            Err(GuardError::TimedOut {
                timeout, stdout, ..
            }) => (
                String::from_utf8_lossy(&stdout).into_owned(),
                Some(format!("was killed at the {timeout:?} wall-clock limit")),
            ),
            Err(e) => (String::new(), Some(format!("could not run: {e}"))),
        };
        let report = Report::parse(&stdout);
        let Some(why) = failure else {
            done.extend(pending.drain(..).map(|pos| (pos, report.summary(pos))));
            break;
        };
        match report.running.filter(|c| pending.contains(c)) {
            Some(culprit) => {
                done.push((
                    culprit,
                    Err(format!(
                        "the timing process {why} while running this candidate"
                    )),
                ));
                pending.retain(|&pos| pos != culprit);
                let (finished, rest): (Vec<usize>, Vec<usize>) = pending
                    .iter()
                    .partition(|pos| report.runs.get(pos).map_or(0, Vec::len) >= TIMED_RUNS);
                done.extend(finished.into_iter().map(|pos| (pos, report.summary(pos))));
                pending = rest;
            }
            None => {
                let err = format!("the timing process {why} before timing any candidate");
                done.extend(pending.drain(..).map(|pos| (pos, Err(err.clone()))));
            }
        }
    }
    done
}

/// Runs the timing binary of an `n`-candidate unit as `threads`
/// concurrent processes over disjoint candidate sets. The process count
/// is clipped to the host's parallelism: an oversubscribed CPU would
/// time the scheduler, not the kernels.
fn run_unit(bin: &Path, n: usize, threads: usize) -> Outcomes {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let workers = threads.min(cpus).clamp(1, n.max(1));
    let shares: Vec<Vec<usize>> = (0..workers)
        .map(|w| (w..n).step_by(workers).collect())
        .collect();
    // run_share reports every position it is given, so a position left
    // without an outcome belongs to a thread that panicked.
    let mut outcomes: Outcomes = vec![Err("the timing thread panicked".to_string()); n];
    std::thread::scope(|scope| {
        let Some((first, rest)) = shares.split_first() else {
            return;
        };
        let handles: Vec<_> = rest
            .iter()
            .map(|share| scope.spawn(move || run_share(bin, share.clone())))
            .collect();
        // The first share runs on this thread, so its `guard:run` spans
        // nest under the caller's `tune:measure-unit` span.
        let mut done = run_share(bin, first.clone());
        for handle in handles {
            done.extend(handle.join().unwrap_or_default());
        }
        for (pos, outcome) in done {
            outcomes[pos] = outcome;
        }
    });
    outcomes
}

/// Emits the unit of `members` (candidates sharing one key) and its
/// timing driver. Returns the driver source and the unit's `cflags`.
fn unit_source(
    registry: &ProcRegistry,
    members: &[&Planned],
) -> Result<(String, Vec<String>), String> {
    let key = &members.first().ok_or("empty unit")?.key;
    let roots: Vec<Proc> = members.iter().map(|p| p.proc.clone()).collect();
    let opts = if key.native {
        CodegenOptions::native()
    } else {
        CodegenOptions::portable()
    };
    let unit =
        emit_c_roots(&roots, registry, &opts).map_err(|e| format!("emitting the unit: {e}"))?;
    let reps: Vec<u64> = members.iter().map(|p| p.reps).collect();
    let driver = emit_timing_driver(&unit.code, &roots, &key.inputs, &reps);
    Ok((driver, unit.cflags))
}

fn build_registry(machine: &MachineModel) -> ProcRegistry {
    machine.instructions(DataType::F32).into_iter().collect()
}

/// Runs `f` isolated from panics: an error becomes
/// [`Measurement::Failed`], a panic [`Measurement::Panicked`]. After a
/// panic the registry, whose lowering cache the unwind may have left
/// mid-update, is rebuilt.
fn isolated<T>(
    registry: &mut ProcRegistry,
    machine: &MachineModel,
    f: impl FnOnce(&ProcRegistry) -> Result<T, String>,
) -> Result<T, Measurement> {
    match catch_unwind(AssertUnwindSafe(|| f(registry))) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(Measurement::Failed(e)),
        Err(payload) => {
            *registry = build_registry(machine);
            Err(Measurement::Panicked(panic_message(payload.as_ref())))
        }
    }
}

fn log_failure(i: usize, m: &Measurement) {
    match m {
        Measurement::Failed(e) => eprintln!("autotune: measurement of candidate {i} failed: {e}"),
        Measurement::Panicked(e) => {
            eprintln!("autotune: measurement of candidate {i} panicked: {e}")
        }
        _ => {}
    }
}

/// Measures a batch of scheduled procedures `(proc, simulated cycles)`,
/// normally the top-K candidates of one kernel: one unit and one `cc`
/// call per distinct flag set, `threads` concurrent timing processes
/// per unit (see the module docs).
/// Returns one [`Measurement`] per candidate, in order;
/// all-[`Measurement::Unavailable`] when no C compiler is on `PATH`.
pub fn measure_batch(
    procs: &[(Proc, u64)],
    machine: &MachineModel,
    input_seed: u64,
    threads: usize,
    native: bool,
) -> Vec<Measurement> {
    if !cc_available() || procs.is_empty() {
        return vec![Measurement::Unavailable; procs.len()];
    }
    measure_with(procs, machine, input_seed, threads, native, &|_, _| {})
}

/// [`measure_batch`] with a hook that may edit each unit's driver
/// source, given the unit's batch indices, before it is compiled.
fn measure_with(
    procs: &[(Proc, u64)],
    machine: &MachineModel,
    input_seed: u64,
    threads: usize,
    native: bool,
    patch: &dyn Fn(&[usize], &mut String),
) -> Vec<Measurement> {
    let kernel = procs.first().map_or("", |(p, _)| p.name());
    let mut registry = build_registry(machine);
    let mut planned: Vec<Option<Planned>> = Vec::with_capacity(procs.len());
    let mut failed = Vec::new();
    let mut units: Vec<Vec<usize>> = Vec::new();
    for (i, (proc, cycles)) in procs.iter().enumerate() {
        let outcome = isolated(&mut registry, machine, |reg| {
            plan(proc, *cycles, i, reg, input_seed, native)
        });
        match outcome {
            Ok(p) => {
                let same_key = |u: &&mut Vec<usize>| {
                    u.first()
                        .and_then(|&j| planned.get(j).and_then(Option::as_ref))
                        .is_some_and(|q| q.key == p.key)
                };
                match units.iter_mut().find(same_key) {
                    Some(unit) => unit.push(i),
                    None => units.push(vec![i]),
                }
                planned.push(Some(p));
            }
            Err(m) => {
                log_failure(i, &m);
                failed.push((i, m));
                planned.push(None);
            }
        }
    }
    // A unit's driver source and flags, with the test hook applied.
    let emit_unit = |reg: &ProcRegistry, members: &[usize]| {
        let members_planned: Vec<&Planned> = members
            .iter()
            .filter_map(|&i| planned.get(i).and_then(Option::as_ref))
            .collect();
        let (mut source, cflags) = unit_source(reg, &members_planned)?;
        patch(members, &mut source);
        Ok((source, cflags))
    };
    // Build every unit before timing any, so no `cc` competes with a
    // timed batch for the CPU.
    let mut prebuilt = BTreeMap::new();
    let mut jobs = Vec::with_capacity(units.len());
    for members in &units {
        match isolated(&mut registry, machine, |reg| emit_unit(reg, members)) {
            Ok(job) => jobs.push((members.clone(), job)),
            Err(Measurement::Failed(e)) => {
                prebuilt.insert(members.clone(), Err(e));
            }
            // A panic is left to the timing loop, which emits the unit
            // again under its own isolation.
            Err(_) => {}
        }
    }
    prebuilt.extend(build_units(&jobs, kernel));
    let prebuilt = std::cell::RefCell::new(prebuilt);
    let mut results = measure_batch_impl(procs.len(), units, machine, &|reg, members| {
        let _span = exo_obs::span!(
            "tune:measure-unit",
            "{kernel}: {} candidates",
            members.len()
        );
        // A unit that failed to build as a whole is bisected by
        // `measure_batch_impl`; its halves are emitted and built here.
        let bin = match prebuilt.borrow_mut().remove(members) {
            Some(bin) => bin?,
            None => {
                let (source, cflags) = emit_unit(reg, members)?;
                compile(&source, &cflags, kernel)?
            }
        };
        let outcomes = run_unit(&bin, members.len(), threads);
        remove_unit_dir(&bin);
        Ok(outcomes)
    });
    for bin in prebuilt.into_inner().into_values().flatten() {
        remove_unit_dir(&bin);
    }
    for (i, m) in failed {
        results[i] = m;
    }
    results
}

/// A unit ready to build: its batch indices, driver source and `cflags`.
type Job = (Vec<usize>, (String, Vec<String>));

/// Compiles the emitted units concurrently, as many at a time as the
/// host has CPUs: each unit's binary, or why it did not build.
fn build_units(jobs: &[Job], tag: &str) -> Vec<(Vec<usize>, Result<PathBuf, String>)> {
    let _span = exo_obs::span!("tune:build-units", "{tag}: {} units", jobs.len());
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let workers = cpus.clamp(1, jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let build = || {
        let mut done = Vec::new();
        while let Some((members, (source, cflags))) = jobs.get(next.fetch_add(1, Ordering::Relaxed))
        {
            done.push((members.clone(), compile(source, cflags, tag)));
        }
        done
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(build)).collect();
        // This thread builds too, so its spans nest under the caller's.
        let mut built = build();
        for handle in handles {
            // A unit missing after a panicked thread is built again by
            // the timing loop.
            built.extend(handle.join().unwrap_or_default());
        }
        built
    })
}

/// Removes the temporary directory of a unit's binary.
fn remove_unit_dir(bin: &Path) {
    if let Some(dir) = bin.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Builds and times one unit holding the given batch indices (never
/// empty): one outcome per index, in order, or the reason the unit as a
/// whole could not be built.
pub(crate) type UnitTimer<'a> = &'a dyn Fn(&ProcRegistry, &[usize]) -> Result<Outcomes, String>;

/// The failure-isolation core of [`measure_batch`], with an injectable
/// unit timer so the contract is testable without a C toolchain. Times
/// each of `units` (disjoint sets of indices below `n`); a unit whose
/// build fails or panics is split in half and each half retried, so
/// only a candidate that fails on its own is [`Measurement::Failed`] or
/// [`Measurement::Panicked`]. Indices in no unit stay
/// [`Measurement::Unavailable`].
pub(crate) fn measure_batch_impl(
    n: usize,
    units: Vec<Vec<usize>>,
    machine: &MachineModel,
    timer: UnitTimer<'_>,
) -> Vec<Measurement> {
    let mut registry = build_registry(machine);
    let mut results = vec![Measurement::Unavailable; n];
    let mut queue: Vec<Vec<usize>> = units.into_iter().filter(|u| !u.is_empty()).rev().collect();
    while let Some(unit) = queue.pop() {
        match isolated(&mut registry, machine, |reg| timer(reg, &unit)) {
            Ok(outcomes) => {
                for (&i, outcome) in unit.iter().zip(outcomes) {
                    results[i] = match outcome {
                        Ok((ns, spread)) => Measurement::Nanos { ns, spread },
                        Err(e) => Measurement::Failed(e),
                    };
                    log_failure(i, &results[i]);
                }
            }
            Err(m) if unit.len() == 1 => {
                log_failure(unit[0], &m);
                results[unit[0]] = m;
            }
            Err(_) => {
                let (a, b) = unit.split_at(unit.len() / 2);
                queue.push(b.to_vec());
                queue.push(a.to_vec());
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_cursors::ProcHandle;
    use exo_kernels::{scal, Precision};
    use exo_lib::{apply_script, schedule_of_record, ScheduleScript};
    use exo_machine::MachineModel;

    fn batch_of(n: usize) -> Vec<(Proc, u64)> {
        (0..n).map(|_| (scal(Precision::Single), 100u64)).collect()
    }

    /// A fake timer reporting `i` ns for every candidate `i` it is given.
    fn ok_outcomes(members: &[usize]) -> Outcomes {
        members.iter().map(|&i| Ok((i as f64, 0.0))).collect()
    }

    #[test]
    fn a_panicking_candidate_is_isolated_not_fatal() {
        let machine = MachineModel::scalar();
        // Any unit holding candidate 2 panics; the batch must still
        // yield all four results, with the panic surfaced on exactly
        // that candidate.
        let results = measure_batch_impl(4, vec![vec![0, 1, 2, 3]], &machine, &|_reg, members| {
            if members.contains(&2) {
                std::panic::panic_any("boom in candidate 2".to_string());
            }
            Ok(ok_outcomes(members))
        });
        assert_eq!(results.len(), 4);
        assert_eq!(
            results[0],
            Measurement::Nanos {
                ns: 0.0,
                spread: 0.0
            }
        );
        assert_eq!(
            results[1],
            Measurement::Nanos {
                ns: 1.0,
                spread: 0.0
            }
        );
        assert_eq!(
            results[2],
            Measurement::Panicked("boom in candidate 2".to_string()),
            "the panic must be surfaced with its payload, not swallowed"
        );
        assert_eq!(
            results[3],
            Measurement::Nanos {
                ns: 3.0,
                spread: 0.0
            }
        );
    }

    #[test]
    fn failures_carry_their_message() {
        let machine = MachineModel::scalar();
        let results = measure_batch_impl(2, vec![vec![0, 1]], &machine, &|_reg, members| {
            if members.contains(&0) {
                Err("cc said no".to_string())
            } else {
                Ok(members.iter().map(|_| Ok((42.0, 0.1))).collect())
            }
        });
        assert_eq!(results[0], Measurement::Failed("cc said no".to_string()));
        assert_eq!(
            results[1],
            Measurement::Nanos {
                ns: 42.0,
                spread: 0.1
            }
        );
    }

    #[test]
    fn a_failing_unit_is_bisected_down_to_the_culprit() {
        let machine = MachineModel::scalar();
        let calls = std::cell::RefCell::new(Vec::new());
        let results = measure_batch_impl(8, vec![(0..8).collect()], &machine, &|_reg, members| {
            calls.borrow_mut().push(members.to_vec());
            if members.contains(&5) {
                Err("bad".to_string())
            } else {
                Ok(ok_outcomes(members))
            }
        });
        for (i, m) in results.iter().enumerate() {
            if i == 5 {
                assert_eq!(*m, Measurement::Failed("bad".to_string()));
            } else {
                assert_eq!(m.nanos(), Some(i as f64));
            }
        }
        // 8 -> 4 + 4 -> 2 + 2 -> 1 + 1: one build per level on the
        // failing side plus the healthy halves.
        assert_eq!(calls.borrow().len(), 7, "{:?}", calls.borrow());
    }

    /// The text of C function `name` in `code`: from its signature line
    /// to its closing brace.
    fn function_text(code: &str, name: &str) -> String {
        let start = code
            .find(&format!("\nvoid {name}("))
            .unwrap_or_else(|| panic!("no function `{name}` in:\n{code}"));
        let rest = &code[start + 1..];
        // (Braces are escaped so that scripts/check_no_panics.sh can
        // balance this test module.)
        let end = rest.find("\n\u{7d}\n").expect("function end") + 3;
        rest[..end].to_string()
    }

    #[test]
    fn multi_root_unit_functions_equal_solo_emission() {
        let machine = MachineModel::avx2();
        let registry = build_registry(&machine);
        let base = ProcHandle::new(exo_kernels::sgemm());
        let record = schedule_of_record("sgemm", &machine).expect("sgemm record");
        let scripts = [
            ScheduleScript::new(Vec::new()),
            record.clone(),
            ScheduleScript::new(record.steps[1..].to_vec()),
        ];
        let candidates: Vec<Proc> = scripts
            .iter()
            .filter_map(|s| apply_script(&base, s, &machine).ok())
            .map(|p| p.proc().clone())
            .collect();
        assert!(candidates.len() >= 2, "need several candidates");
        for opts in [CodegenOptions::native(), CodegenOptions::portable()] {
            let roots: Vec<Proc> = candidates
                .iter()
                .enumerate()
                .map(|(i, p)| p.clone().with_name(format!("sgemm_c{i}")))
                .collect();
            let unit = emit_c_roots(&roots, &registry, &opts).unwrap();
            for (i, cand) in candidates.iter().enumerate() {
                let solo = emit_c(cand, &registry, &opts).unwrap();
                let want = function_text(&solo.code, "sgemm").replacen(
                    "void sgemm(",
                    &format!("void sgemm_c{i}("),
                    1,
                );
                assert_eq!(function_text(&unit.code, &format!("sgemm_c{i}")), want);
            }
            // Shared instruction helpers are defined once.
            let statics: Vec<&str> = unit
                .code
                .lines()
                .filter(|l| l.starts_with("static ") && l.ends_with('{'))
                .collect();
            let mut unique = statics.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), statics.len(), "{statics:?}");
        }
        // A single root is still exactly `emit_c`.
        let one = emit_c_roots(&candidates[..1], &registry, &CodegenOptions::native()).unwrap();
        let solo = emit_c(&candidates[0], &registry, &CodegenOptions::native()).unwrap();
        assert_eq!(one.code, solo.code);
    }

    /// Inserts `stmt` as the first statement of candidate `i`'s function.
    fn inject(src: &mut String, i: usize, stmt: &str) {
        let kernel = scal(Precision::Single);
        let sig = src
            .find(&format!("void {}_c{i}(", kernel.name()))
            .expect("candidate function");
        let open = sig + src[sig..].find("\u{7b}\n").expect("function body") + 2;
        src.insert_str(open, &format!("    {stmt}\n"));
    }

    #[test]
    fn a_unit_that_fails_cc_still_measures_the_other_candidates() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::scalar();
        let results = measure_with(&batch_of(4), &machine, 1, 2, false, &|members, src| {
            if members.contains(&2) {
                inject(src, 2, "#error candidate 2 does not build");
            }
        });
        for (i, m) in results.iter().enumerate() {
            if i == 2 {
                let err = m.error().expect("candidate 2 fails");
                assert!(matches!(m, Measurement::Failed(_)), "{m:?}");
                assert!(err.contains("candidate 2 does not build"), "{err}");
            } else {
                assert!(m.nanos().is_some_and(|ns| ns > 0.0), "candidate {i}: {m:?}");
            }
        }
    }

    #[test]
    fn a_unit_failing_cc_beside_a_healthy_unit_fails_only_its_culprit() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::scalar();
        // Double-precision inputs differ, so candidate 2 gets a unit of
        // its own; both units are built together, before any timing.
        let mut batch = batch_of(2);
        batch.push((scal(Precision::Double), 100));
        let results = measure_with(&batch, &machine, 1, 2, false, &|members, src| {
            if members.contains(&1) {
                inject(src, 1, "#error candidate 1 does not build");
            }
        });
        for (i, m) in results.iter().enumerate() {
            if i == 1 {
                assert!(matches!(m, Measurement::Failed(_)), "{m:?}");
                let err = m.error().expect("candidate 1 fails");
                assert!(err.contains("candidate 1 does not build"), "{err}");
            } else {
                assert!(m.nanos().is_some_and(|ns| ns > 0.0), "candidate {i}: {m:?}");
            }
        }
    }

    #[test]
    fn every_unit_is_built_before_any_is_timed() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::scalar();
        // A kernel name no other test uses, so its spans can be told apart.
        let kernel = "build_order";
        let batch: Vec<(Proc, u64)> = [
            scal(Precision::Single),
            scal(Precision::Single),
            scal(Precision::Double),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p.with_name(format!("{kernel}{i}")), 100))
        .collect();
        let session = exo_obs::session();
        let results = measure_with(&batch, &machine, 1, 2, false, &|_, _| {});
        let trace = session.finish();
        assert!(results.iter().all(|m| m.nanos().is_some()), "{results:?}");
        let spans: Vec<&exo_obs::SpanRecord> = trace.spans().collect();
        let compiles: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "difftest:compile" && s.attr.as_deref() == Some("build_order0"))
            .collect();
        // The `cc` runs of this kernel: those inside its compile spans.
        let cc_ends: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "guard:run" && s.attr.as_deref() == Some("cc"))
            .filter(|s| {
                compiles
                    .iter()
                    .any(|c| c.tid == s.tid && c.start_ns <= s.start_ns && s.end_ns <= c.end_ns)
            })
            .map(|s| s.end_ns)
            .collect();
        let timing_starts: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "guard:run")
            .filter(|s| {
                s.attr
                    .as_deref()
                    .is_some_and(|a| a.contains("_build_order0/"))
            })
            .map(|s| s.start_ns)
            .collect();
        assert_eq!(compiles.len(), 2, "two units, one compile each");
        assert!(cc_ends.len() >= 2, "{} cc runs", cc_ends.len());
        assert!(!timing_starts.is_empty(), "no timing process traced");
        let last_cc = cc_ends.iter().max().copied().unwrap_or(0);
        let first_timing = timing_starts.iter().min().copied().unwrap_or(0);
        assert!(
            last_cc <= first_timing,
            "a cc ended at {last_cc} ns, after timing began at {first_timing} ns"
        );
    }

    /// Compiles `source` through the shared compile (and its prelude
    /// cache), then again in the same directory with a plain `cc` call,
    /// and says whether the two binaries are byte-identical.
    fn same_binary_without_the_cache(source: &str, cflags: &[String], tag: &str) -> bool {
        let bin = compile(source, cflags, tag).unwrap_or_else(|e| panic!("{tag}: {e}"));
        let dir = bin.parent().expect("temp dir").to_path_buf();
        let plain = dir.join("plain");
        let out = run_guarded(
            Command::new("cc")
                .args(["-O2", "-Wall", "-Werror", "-std=c99"])
                .args(cflags)
                .arg("-o")
                .arg(&plain)
                .arg(dir.join("kernel.c"))
                .arg("-lm"),
            &GuardConfig::with_timeout(Duration::from_secs(120)),
        )
        .expect("cc runs");
        assert!(out.success, "{tag}: {}", out.stderr_lossy());
        let same = std::fs::read(&bin).ok() == std::fs::read(&plain).ok();
        let _ = std::fs::remove_dir_all(&dir);
        same
    }

    #[test]
    fn timing_drivers_build_identically_with_the_prelude_cache() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::avx2();
        let registry = build_registry(&machine);
        let record = schedule_of_record("sgemm", &machine).expect("sgemm record");
        let sgemm = apply_script(&ProcHandle::new(exo_kernels::sgemm()), &record, &machine)
            .unwrap()
            .proc()
            .clone();
        let scalar = plan(&scal(Precision::Single), 100, 0, &registry, 1, false).unwrap();
        let vectorized = plan(&sgemm, 1000, 0, &registry, 1, true).unwrap();
        for (tag, p) in [
            ("driver_scalar", &scalar),
            ("driver_vectorized", &vectorized),
        ] {
            let (src, cflags) = unit_source(&registry, &[p]).unwrap();
            assert!(same_binary_without_the_cache(&src, &cflags, tag), "{tag}");
        }
    }

    #[test]
    fn a_crashing_candidate_fails_and_later_ones_are_still_measured() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::scalar();
        // One process runs all four, so 2 and 3 come after the crash.
        let results = measure_with(&batch_of(4), &machine, 1, 1, false, &|_, src| {
            inject(src, 1, "abort();");
        });
        for (i, m) in results.iter().enumerate() {
            if i == 1 {
                let err = m.error().expect("candidate 1 fails");
                assert!(matches!(m, Measurement::Failed(_)), "{m:?}");
                assert!(err.contains("while running this candidate"), "{err}");
            } else {
                assert!(m.nanos().is_some_and(|ns| ns > 0.0), "candidate {i}: {m:?}");
            }
        }
    }

    #[test]
    fn every_reported_batch_spans_min_batch_ns() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::scalar();
        let registry = build_registry(&machine);
        let planned: Vec<Planned> = batch_of(2)
            .iter()
            .enumerate()
            .map(|(i, (p, cycles))| plan(p, *cycles, i, &registry, 1, false).unwrap())
            .collect();
        let members: Vec<&Planned> = planned.iter().collect();
        let (src, cflags) = unit_source(&registry, &members).unwrap();
        let bin = compile(&src, &cflags, "batch_span").unwrap();
        let out = run_guarded(
            Command::new(&bin).args(["0", "1"]),
            &GuardConfig::with_timeout(Duration::from_secs(60)),
        )
        .unwrap();
        if let Some(dir) = bin.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
        assert!(out.success);
        let mut order = Vec::new();
        for line in out.stdout_lossy().lines() {
            let f: Vec<&str> = line.split_ascii_whitespace().collect();
            if f[0] == "run" {
                continue;
            }
            let (pos, per_call, batch): (usize, f64, f64) = (
                f[0].parse().unwrap(),
                f[1].parse().unwrap(),
                f[2].parse().unwrap(),
            );
            let reps = (batch / per_call).round();
            assert!(
                batch >= MIN_BATCH_NS || reps >= MAX_REPS as f64,
                "candidate {pos}: batch of {reps} reps spans only {batch} ns"
            );
            order.push(pos);
        }
        // Interleaved rounds: every candidate once per round.
        let want: Vec<usize> = (0..TIMED_RUNS).flat_map(|_| [0, 1]).collect();
        assert_eq!(order, want);
    }

    /// Makes every batch function of `members` abort unless the inputs
    /// equal their masters when the batch starts.
    fn check_pristine_inputs(src: &mut String, members: &[usize]) {
        let checks: String = (0..16)
            .filter(|k| src.contains(&format!("exo_master_{k}[")))
            .map(|k| {
                format!(
                    "    if (memcmp(exo_arg_{k}, exo_master_{k}, sizeof exo_arg_{k}) != 0) abort();\n"
                )
            })
            .collect();
        assert!(!checks.is_empty(), "the unit has no tensor inputs");
        for pos in 0..members.len() {
            let head = format!("static double exo_batch_{pos}(long exo_reps) ") + "\u{7b}\n";
            let at = src.find(&head).expect("batch function") + head.len();
            src.insert_str(at, &checks);
        }
    }

    #[test]
    fn every_batch_starts_from_the_master_inputs() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::scalar();
        // scal scales `x` in place, so a batch that did not start from the
        // master would see the previous batch's output.
        let results = measure_with(&batch_of(2), &machine, 1, 1, false, &|members, src| {
            check_pristine_inputs(src, members);
        });
        for (i, m) in results.iter().enumerate() {
            assert!(m.nanos().is_some(), "candidate {i}: {m:?}");
        }
        // Premise: without the reset before each batch, the check fires.
        let results = measure_with(&batch_of(2), &machine, 1, 1, false, &|members, src| {
            check_pristine_inputs(src, members);
            *src = src.replacen(
                "        exo_reset();\n        double ns",
                "        double ns",
                1,
            );
        });
        for (i, m) in results.iter().enumerate() {
            assert!(matches!(m, Measurement::Failed(_)), "candidate {i}: {m:?}");
        }
    }

    #[test]
    fn candidates_with_different_flags_are_built_in_separate_units() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let machine = MachineModel::avx2();
        let registry = build_registry(&machine);
        let base = ProcHandle::new(exo_kernels::sgemm());
        let record = schedule_of_record("sgemm", &machine).expect("sgemm record");
        let batch: Vec<(Proc, u64)> = [ScheduleScript::new(Vec::new()), record]
            .iter()
            .map(|s| {
                (
                    apply_script(&base, s, &machine).unwrap().proc().clone(),
                    1000,
                )
            })
            .collect();
        let planned: Vec<Planned> = batch
            .iter()
            .enumerate()
            .map(|(i, (p, cycles))| plan(p, *cycles, i, &registry, 1, true).unwrap())
            .collect();
        // The scalar candidate keeps its own (empty) flags; the vectorized
        // one gets exactly those of its solo unit, when the host runs them.
        assert!(planned[0].key.cflags.is_empty());
        let solo = emit_c(&planned[1].proc, &registry, &CodegenOptions::native()).unwrap();
        let vectorized = planned[1].key.native && !solo.cflags.is_empty();
        if vectorized {
            assert_eq!(planned[1].key.cflags, solo.cflags);
        } else {
            eprintln!(
                "host cannot run {:?}: both candidates are portable",
                solo.cflags
            );
        }
        for p in &planned {
            let (_, cflags) = unit_source(&registry, &[p]).unwrap();
            assert_eq!(cflags, p.key.cflags);
        }
        let units = std::cell::RefCell::new(Vec::new());
        measure_with(&batch, &machine, 1, 1, true, &|members, src| {
            units.borrow_mut().push(members.to_vec());
            *src = "int main(void) \u{7b} return 0; \u{7d}\n".to_string();
        });
        let want = if vectorized {
            vec![vec![0], vec![1]]
        } else {
            vec![vec![0, 1]]
        };
        assert_eq!(*units.borrow(), want);
    }

    #[test]
    fn median_summary_survives_single_run_jitter() {
        // Candidate A is genuinely faster (runs ~100ns) than candidate B
        // (~110ns), but each has one descheduled outlier. Means would
        // flip the ranking (A: 108, B: 102); medians must not.
        let runs_a = [100.0, 140.0, 99.0, 101.0, 100.0];
        let runs_b = [110.0, 109.0, 111.0, 70.0, 110.0];
        let (med_a, spread_a) = summarize_runs(&runs_a).unwrap();
        let (med_b, spread_b) = summarize_runs(&runs_b).unwrap();
        let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
        assert!(
            mean(&runs_a) > mean(&runs_b),
            "premise: the means rank them backwards"
        );
        assert!(
            med_a < med_b,
            "median ranking flipped by jitter: {med_a} vs {med_b}"
        );
        // The spread exposes exactly how noisy each measurement was.
        assert!((spread_a - 41.0 / 100.0).abs() < 1e-12);
        assert!((spread_b - 41.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_runs_handles_degenerate_input() {
        assert_eq!(summarize_runs(&[]), None);
        assert_eq!(summarize_runs(&[7.0]), Some((7.0, 0.0)));
        // Even run count: median is the mean of the middle two.
        assert_eq!(summarize_runs(&[4.0, 2.0]), Some((3.0, 2.0 / 3.0)));
    }
}

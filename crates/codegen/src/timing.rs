//! The native timing harness: one timed C driver, one calibration rule
//! and one runner, shared by the autotuner's measurement tier and the
//! runtime bench.
//!
//! * **Driver** ([`emit_timed_driver`]). Every candidate function of a
//!   unit is called on the same arguments. Each tensor has two static
//!   buffers: a master, filled once at start-up from a seed with the
//!   element ranges of [`synth_inputs`](crate::difftest::synth_inputs),
//!   and a working copy that is reset from it with `memcpy` before the
//!   warm-up and before every batch, so no batch times on another's
//!   output. Sizes and scalars are passed as literals, window arguments
//!   as `struct exo_win_*` values. The source does not grow with the
//!   problem size.
//! * **Calibration.** Each candidate's repetition count is extrapolated
//!   from its last batch (`reps ← ⌈reps · MIN_BATCH_NS / ns · 1.05⌉`)
//!   until a batch spans [`MIN_BATCH_NS`], capped at 2^20; a timed batch
//!   that falls short is re-timed.
//! * **Rounds.** [`TIMED_RUNS`] interleaved rounds, one batch of every
//!   requested candidate per round, so a slow phase of the host hits all
//!   candidates alike. [`summarize_runs`] reduces each candidate's runs
//!   to a median and a spread.
//! * **Runner** ([`run_unit`]). The binary runs as concurrent processes
//!   over disjoint candidate sets, each under `exo_guard`'s wall-clock
//!   limit and with the environment the caller gives (the runtime bench
//!   sets `OMP_NUM_THREADS`). A process that crashes or hangs fails the
//!   candidate it was running; the candidates it had not finished run
//!   again in a fresh process.
//!
//! The driver's `#define`/`#include` lines come first, ahead of the unit
//! code, so the shared compile's prelude cache covers `<immintrin.h>`
//! (`DESIGN.md` §3a).

use crate::difftest::{elem_range, scalar_literal, tensor_call_arg, ArgShape, SynthArg};
use crate::emit::c_type;
use exo_guard::{run_guarded, GuardConfig, GuardError};
use exo_ir::DataType;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

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

/// Wall-clock allowance per candidate in one timing process: a bounded
/// repetition loop finishes in well under a minute; past that it is
/// hung.
const RUN_TIMEOUT_PER_CANDIDATE: Duration = Duration::from_secs(60);

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

/// One argument of the timed call.
#[derive(Clone, Debug, PartialEq)]
pub enum TimedArg {
    /// A size or scalar, passed as this C literal.
    Value(String),
    /// A tensor, filled at start-up from the driver's seed.
    Tensor {
        /// Element type.
        elem: DataType,
        /// Concrete extents.
        dims: Vec<usize>,
        /// Whether the parameter is declared as a window.
        window: bool,
    },
}

impl From<&SynthArg> for TimedArg {
    /// The same argument with its tensor data left to the driver.
    fn from(arg: &SynthArg) -> Self {
        match arg {
            SynthArg::Tensor {
                dims, elem, window, ..
            } => TimedArg::Tensor {
                elem: *elem,
                dims: dims.clone(),
                window: *window,
            },
            scalar => TimedArg::Value(scalar_literal(scalar).unwrap_or_default()),
        }
    }
}

impl From<&ArgShape> for TimedArg {
    /// A dense tensor, or the size; scalars are passed as one.
    fn from(shape: &ArgShape) -> Self {
        match shape {
            ArgShape::Size(v) => TimedArg::Value(v.to_string()),
            ArgShape::Scalar(_) => TimedArg::Value("1".to_string()),
            ArgShape::Tensor(elem, dims) => TimedArg::Tensor {
                elem: *elem,
                dims: dims.clone(),
                window: false,
            },
        }
    }
}

/// Emits the timing driver for a unit: `unit_code` holds the candidate
/// functions `roots`, all called on `args`, each calibrating from its
/// entry of `start_reps`; tensors are filled from `seed`.
///
/// Its `main` takes candidate positions (indices into `roots`) as
/// arguments. For each, it prints `run <pos>` before every batch, so a
/// crash can be attributed, and `<pos> <ns/call> <batch ns>` after each
/// of the [`TIMED_RUNS`] timed batches. All output is flushed line by
/// line.
pub fn emit_timed_driver(
    unit_code: &str,
    roots: &[&str],
    args: &[TimedArg],
    start_reps: &[u64],
    seed: u64,
) -> String {
    let mut s = String::with_capacity(unit_code.len() + 4096);
    // clock_gettime is POSIX, hidden by -std=c99 unless requested before
    // the first include. POSIX.1-2001 and not the older 199309L: with
    // `-fopenmp` glibc raises anything below 199506L, and the source's
    // own define, read again after the precompiled prelude, would then
    // conflict with the raised one.
    s.push_str("#define _POSIX_C_SOURCE 200112L\n");
    s.push_str("#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n");
    s.push_str("#include <string.h>\n#include <time.h>\n\n");
    s.push_str(unit_code);
    s.push('\n');
    // Inputs: a master per tensor, filled once by exo_fill() and copied
    // into the working buffer by exo_reset() before every warm-up and
    // timed batch.
    let mut call_args = Vec::with_capacity(args.len());
    let mut fill = String::new();
    let mut reset = String::new();
    for (k, arg) in args.iter().enumerate() {
        let (elem, dims, window) = match arg {
            TimedArg::Value(literal) => {
                call_args.push(literal.clone());
                continue;
            }
            TimedArg::Tensor { elem, dims, window } => (*elem, dims, *window),
        };
        let var = format!("exo_arg_{k}");
        let celem = c_type(elem);
        let n = dims.iter().product::<usize>().max(1);
        let (lo, hi) = elem_range(elem);
        s.push_str(&format!(
            "static {celem} exo_master_{k}[{n}];\nstatic {celem} {var}[{n}];\n"
        ));
        fill.push_str(&format!(
            "    for (long exo_i = 0; exo_i < {n}; exo_i++) \
             exo_master_{k}[exo_i] = ({celem})exo_draw({lo}, {hi});\n"
        ));
        reset.push_str(&format!(
            "    memcpy({var}, exo_master_{k}, sizeof {var});\n"
        ));
        call_args.push(tensor_call_arg(&var, dims, elem, window));
    }
    if !fill.is_empty() {
        // The differential harness's xorshift64* stream.
        s.push_str(&format!(
            r#"
static unsigned long long exo_seed = {}ULL;

/* Uniform integer in [lo, hi]. */
static long exo_draw(long lo, long hi) {{
    exo_seed ^= exo_seed >> 12;
    exo_seed ^= exo_seed << 25;
    exo_seed ^= exo_seed >> 27;
    return lo + (long)((exo_seed * 0x2545F4914F6CDD1DULL) % (unsigned long long)(hi - lo + 1));
}}
"#,
            seed | 1
        ));
    }
    let call_args = call_args.join(", ");
    s.push_str(&format!(
        "\nstatic void exo_fill(void) {{\n{fill}}}\n\nstatic void exo_reset(void) {{\n{reset}}}\n"
    ));
    // One batch function per candidate: the timed loop calls the
    // candidate directly, exactly as a one-candidate driver would.
    let mut table = Vec::with_capacity(roots.len());
    for (pos, name) in roots.iter().enumerate() {
        s.push_str(&format!(
            r#"
static double exo_batch_{pos}(long exo_reps) {{
    struct timespec exo_t0, exo_t1;
    clock_gettime(CLOCK_MONOTONIC, &exo_t0);
    for (long exo_r = 0; exo_r < exo_reps; exo_r++) {{
        {name}({call_args});
    }}
    clock_gettime(CLOCK_MONOTONIC, &exo_t1);
    return (double)(exo_t1.tv_sec - exo_t0.tv_sec) * 1e9 + (double)(exo_t1.tv_nsec - exo_t0.tv_nsec);
}}
"#
        ));
        table.push(format!("exo_batch_{pos}"));
    }
    let table = table.join(", ");
    let starts: Vec<String> = start_reps.iter().map(|r| r.to_string()).collect();
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
    exo_fill();
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

/// One candidate's `(median ns per call, relative spread)`, or why it has
/// none.
pub type Outcome = Result<(f64, f64), String>;

/// Runs the timing binary over candidate positions `pending` until each
/// has an outcome. When a process crashes or hangs, the candidate it was
/// running fails, candidates that completed every round keep their
/// result, and the rest run again in a fresh process.
fn run_share(bin: &Path, mut pending: Vec<usize>, env: &[(&str, String)]) -> Vec<(usize, Outcome)> {
    let mut done = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let mut cmd = Command::new(bin);
        cmd.args(pending.iter().map(usize::to_string));
        cmd.envs(env.iter().map(|(k, v)| (k, v)));
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

/// Runs the timing binary of an `n`-candidate unit as `processes`
/// concurrent processes over disjoint candidate sets, each with `env`
/// added to its environment: one [`Outcome`] per candidate position. The
/// process count is clipped to the host's parallelism: an oversubscribed
/// CPU would time the scheduler, not the kernels.
pub fn run_unit(bin: &Path, n: usize, processes: usize, env: &[(&str, String)]) -> Vec<Outcome> {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let workers = processes.min(cpus).clamp(1, n.max(1));
    let shares: Vec<Vec<usize>> = (0..workers)
        .map(|w| (w..n).step_by(workers).collect())
        .collect();
    // run_share reports every position it is given, so a position left
    // without an outcome belongs to a thread that panicked.
    let mut outcomes: Vec<Outcome> = vec![Err("the timing thread panicked".to_string()); n];
    std::thread::scope(|scope| {
        let Some((first, rest)) = shares.split_first() else {
            return;
        };
        let handles: Vec<_> = rest
            .iter()
            .map(|share| scope.spawn(move || run_share(bin, share.clone(), env)))
            .collect();
        // The first share runs on this thread, so its `guard:run` spans
        // nest under the caller's span.
        let mut done = run_share(bin, first.clone(), env);
        for handle in handles {
            done.extend(handle.join().unwrap_or_default());
        }
        for (pos, outcome) in done {
            outcomes[pos] = outcome;
        }
    });
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difftest::{arg_shapes, cc_available, compile, remove_build_dir, synth_inputs};
    use crate::{emit_c, emit_c_roots, CodegenOptions};
    use exo_interp::ProcRegistry;
    use exo_kernels::{gemv, scal, Precision};

    /// The timed driver of a portable unit holding `n` copies of `scal`,
    /// renamed `sscal_c<i>`.
    fn scal_driver(n: usize) -> String {
        let roots: Vec<exo_ir::Proc> = (0..n)
            .map(|i| scal(Precision::Single).with_name(format!("sscal_c{i}")))
            .collect();
        let unit = emit_c_roots(&roots, &ProcRegistry::new(), &CodegenOptions::portable()).unwrap();
        let args: Vec<TimedArg> = synth_inputs(&roots[0], 1)
            .unwrap()
            .iter()
            .map(TimedArg::from)
            .collect();
        let names: Vec<&str> = roots.iter().map(exo_ir::Proc::name).collect();
        emit_timed_driver(&unit.code, &names, &args, &vec![100; n], 1)
    }

    /// Inserts `stmt` as the first statement of candidate `i`'s function.
    fn inject(src: &mut String, i: usize, stmt: &str) {
        let sig = src.find(&format!("void sscal_c{i}(")).expect("candidate");
        let open = sig + src[sig..].find("\u{7b}\n").expect("function body") + 2;
        src.insert_str(open, &format!("    {stmt}\n"));
    }

    /// Compiles `src`, runs it through [`run_unit`] and removes the build.
    fn run(src: &str, tag: &str, n: usize, env: &[(&str, String)]) -> Vec<Outcome> {
        let bin = compile(src, &[], tag).unwrap_or_else(|e| panic!("{tag}: {e}"));
        let outcomes = run_unit(&bin, n, 1, env);
        remove_build_dir(&bin);
        outcomes
    }

    #[test]
    fn every_reported_batch_spans_min_batch_ns() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let bin = compile(&scal_driver(2), &[], "batch_span").unwrap();
        let out = run_guarded(
            Command::new(&bin).args(["0", "1"]),
            &GuardConfig::with_timeout(Duration::from_secs(60)),
        )
        .unwrap();
        remove_build_dir(&bin);
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

    /// Makes every batch function of an `n`-candidate driver abort unless
    /// the inputs equal their masters when the batch starts.
    fn check_pristine_inputs(src: &mut String, n: usize) {
        let checks: String = (0..16)
            .filter(|k| src.contains(&format!("exo_master_{k}[")))
            .map(|k| {
                format!(
                    "    if (memcmp(exo_arg_{k}, exo_master_{k}, sizeof exo_arg_{k}) != 0) abort();\n"
                )
            })
            .collect();
        assert!(!checks.is_empty(), "the unit has no tensor inputs");
        for pos in 0..n {
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
        // scal scales `x` in place, so a batch that did not start from the
        // master would see the previous batch's output.
        let mut src = scal_driver(2);
        check_pristine_inputs(&mut src, 2);
        for (i, outcome) in run(&src, "pristine", 2, &[]).iter().enumerate() {
            assert!(outcome.is_ok(), "candidate {i}: {outcome:?}");
        }
        // Premise: without the reset before each batch, the check fires.
        let src = src.replacen(
            "        exo_reset();\n        double ns",
            "        double ns",
            1,
        );
        for (i, outcome) in run(&src, "pristine_premise", 2, &[]).iter().enumerate() {
            assert!(outcome.is_err(), "candidate {i}: {outcome:?}");
        }
    }

    #[test]
    fn a_crashing_candidate_fails_and_later_ones_are_still_measured() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        // One process runs all four, so 2 and 3 come after the crash.
        let mut src = scal_driver(4);
        inject(&mut src, 1, "abort();");
        for (i, outcome) in run(&src, "crash", 4, &[]).iter().enumerate() {
            match outcome {
                Err(err) if i == 1 => {
                    assert!(err.contains("while running this candidate"), "{err}")
                }
                Ok((ns, _)) if i != 1 => assert!(*ns > 0.0),
                other => panic!("candidate {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_process_that_crashes_before_timing_fails_every_candidate() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let src =
            scal_driver(2).replacen("    exo_fill();\n", "    exo_fill();\n    abort();\n", 1);
        for outcome in run(&src, "crash_early", 2, &[]) {
            let err = outcome.expect_err("nothing was timed");
            assert!(err.contains("before timing any candidate"), "{err}");
        }
    }

    #[test]
    fn a_one_candidate_unit_runs_with_the_callers_environment() {
        if !cc_available() {
            eprintln!("skipping: no C compiler (`cc`) on PATH");
            return;
        }
        let mut src = scal_driver(1);
        inject(
            &mut src,
            0,
            r#"if (!getenv("OMP_NUM_THREADS") || strcmp(getenv("OMP_NUM_THREADS"), "2") != 0) abort();"#,
        );
        let env = [("OMP_NUM_THREADS", "2".to_string())];
        let outcomes = run(&src, "omp_env", 1, &env);
        assert!(
            matches!(outcomes[..], [Ok((ns, _))] if ns > 0.0),
            "{outcomes:?}"
        );
        // Premise: with another value the candidate aborts.
        let env = [("OMP_NUM_THREADS", "1".to_string())];
        let outcomes = run(&src, "omp_env_premise", 1, &env);
        assert!(matches!(outcomes[..], [Err(_)]), "{outcomes:?}");
    }

    #[test]
    fn the_driver_source_does_not_grow_with_the_problem_size() {
        let proc = gemv(Precision::Single, false);
        let unit = emit_c(&proc, &ProcRegistry::new(), &CodegenOptions::portable()).unwrap();
        let driver = |size| {
            let args: Vec<TimedArg> = arg_shapes(&proc, size)
                .unwrap()
                .iter()
                .map(TimedArg::from)
                .collect();
            emit_timed_driver(&unit.code, &[proc.name()], &args, &[1], 1)
        };
        let (small, large) = (driver(64), driver(1024));
        // A 1024 × 1024 matrix is 256 times the 64 × 64 one; only the
        // digits of the extents may differ.
        assert!(small.contains("[4096]") && large.contains("[1048576]"));
        assert!(
            large.len() - small.len() < 64,
            "{} -> {} bytes",
            small.len(),
            large.len()
        );
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

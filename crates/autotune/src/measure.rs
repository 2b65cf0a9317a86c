//! Wall-clock measurement of candidate schedules: the top-K candidates
//! of one kernel are emitted into one C translation unit per distinct
//! flag set, each compiled with one `cc` call and timed by the shared
//! native harness ([`exo_codegen::timing`]).
//!
//! * **One unit per kernel.** Each candidate keeps its own function,
//!   renamed `<kernel>_c<i>` for batch index `i`, and the unit shares
//!   instruction helpers between them ([`exo_codegen::emit_c_roots`]).
//!   A candidate is emitted with machine intrinsics when the host
//!   toolchain and CPU can build and run them
//!   ([`exo_machine::HostCaps`]), else as the portable scalar unit.
//!   Candidates whose mode (native or portable), `cflags`, demoted
//!   instructions or synthesized arguments differ go into separate
//!   units, and a unit is compiled with only its own `cflags`. So every
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
//! * **Timing.** Each unit gets the shared timed driver, starting each
//!   candidate's calibration at a repetition count matched to its
//!   simulated cycles, and runs as `threads` concurrent processes over
//!   disjoint candidates. The driver, its calibration and the runner's
//!   crash attribution are described in [`exo_codegen::timing`].
//! * **Failure stays per candidate.** A unit that fails to build is
//!   split in half and each half built and timed again, so only a
//!   candidate that fails on its own is [`Measurement::Failed`], with the
//!   `cc` diagnostics. Planning and unit building run under
//!   `catch_unwind`, so a panic surfaces as [`Measurement::Panicked`] on
//!   the candidates involved instead of unwinding the search.
//!
//! Arguments come from the differential harness's synthesizer
//! (`exo_codegen::difftest`), so measured kernels run on the shapes and
//! scalar values the cost model was evaluated on; the driver fills the
//! tensors from the input seed, with the synthesizer's element ranges.

use exo_codegen::difftest::{cc_available, compile, remove_build_dir, synth_inputs};
use exo_codegen::timing::{emit_timed_driver, run_unit, Outcome, TimedArg};
use exo_codegen::{emit_c, emit_c_roots, CodegenOptions};
use exo_guard::panic_message;
use exo_interp::ProcRegistry;
use exo_ir::{DataType, Proc};
use exo_machine::{HostCaps, MachineModel};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Starting repetition count for a candidate's calibration, matched to
/// its simulated cost so cheap kernels need fewer calibration batches
/// and expensive ones start low.
fn reps_for(cycles: u64) -> u64 {
    (20_000_000 / cycles.max(1)).clamp(3, 5_000)
}

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
    /// The synthesized arguments, shared by the unit's driver.
    inputs: Vec<TimedArg>,
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
        inputs: synth_inputs(&renamed, input_seed)?
            .iter()
            .map(TimedArg::from)
            .collect(),
    };
    Ok(Planned {
        proc: renamed,
        reps: reps_for(cycles),
        key,
    })
}

/// Emits the unit of `members` (candidates sharing one key) and its
/// timing driver, whose tensors are filled from `input_seed`. Returns the
/// driver source and the unit's `cflags`.
fn unit_source(
    registry: &ProcRegistry,
    members: &[&Planned],
    input_seed: u64,
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
    let names: Vec<&str> = roots.iter().map(Proc::name).collect();
    let reps: Vec<u64> = members.iter().map(|p| p.reps).collect();
    let driver = emit_timed_driver(&unit.code, &names, &key.inputs, &reps, input_seed);
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
        let (mut source, cflags) = unit_source(reg, &members_planned, input_seed)?;
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
        let outcomes = run_unit(&bin, members.len(), threads, &[]);
        remove_build_dir(&bin);
        Ok(outcomes)
    });
    for bin in prebuilt.into_inner().into_values().flatten() {
        remove_build_dir(&bin);
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

/// Builds and times one unit holding the given batch indices (never
/// empty): one outcome per index, in order, or the reason the unit as a
/// whole could not be built.
pub(crate) type UnitTimer<'a> = &'a dyn Fn(&ProcRegistry, &[usize]) -> Result<Vec<Outcome>, String>;

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
    use exo_guard::{run_guarded, GuardConfig};
    use exo_kernels::{scal, Precision};
    use exo_lib::{apply_script, schedule_of_record, ScheduleScript};
    use exo_machine::MachineModel;
    use std::process::Command;
    use std::time::Duration;

    fn batch_of(n: usize) -> Vec<(Proc, u64)> {
        (0..n).map(|_| (scal(Precision::Single), 100u64)).collect()
    }

    /// A fake timer reporting `i` ns for every candidate `i` it is given.
    fn ok_outcomes(members: &[usize]) -> Vec<Outcome> {
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
            let (src, cflags) = unit_source(&registry, &[p], 1).unwrap();
            assert!(same_binary_without_the_cache(&src, &cflags, tag), "{tag}");
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
            let (_, cflags) = unit_source(&registry, &[p], 1).unwrap();
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
}

//! `autotune`: `exo_autotune::tune` on sgemm, sgemv_n and blur2d for
//! avx2 (budget 200, top-K 8), search seed from the argument, measuring
//! threads = the host's parallelism. Most of its time is `cc` under
//! `tune:measure`; simulation is its second layer.

use crate::common::{quantile, timed_setup, Ledger, Outcome, RunCfg};
use exo_autotune::{synth_sizes, tune, TuneConfig, TuneReport, TuneTask};
use exo_codegen::difftest::synth_inputs;
use exo_cursors::ProcHandle;
use exo_interp::{ArgValue, ProcRegistry};
use exo_ir::{DataType, Proc};
use exo_kernels::Precision;
use exo_lib::{apply_script, schedule_of_record};
use exo_machine::{try_simulate, MachineModel};
use std::time::Instant;

struct Task {
    task: TuneTask,
    /// Simulated cycles of the schedule of record, computed here
    /// independently of the search: the model-best candidate must not
    /// be worse.
    record_cycles: u64,
}

fn cycles(proc: &Proc, machine: &MachineModel, input_seed: u64) -> Result<u64, String> {
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let mut args = Vec::new();
    for a in synth_inputs(proc, input_seed)? {
        use exo_codegen::difftest::SynthArg;
        args.push(match a {
            SynthArg::Size(v) | SynthArg::Int(v) => ArgValue::Int(v),
            SynthArg::Float(v) => ArgValue::Float(v),
            SynthArg::Bool(b) => ArgValue::Bool(b),
            SynthArg::Tensor {
                dims, data, elem, ..
            } => ArgValue::from_vec(data, dims, elem).1,
        });
    }
    try_simulate(proc, &registry, args)
        .map(|r| r.cycles)
        .map_err(|e| e.to_string())
}

fn setup(input_seed: u64) -> Result<Vec<Task>, String> {
    let machine = MachineModel::avx2();
    type Flops = fn(&[i64]) -> f64;
    let kernels: [(Proc, Flops); 3] = [
        (exo_kernels::sgemm(), |s| 2.0 * (s[0] * s[1] * s[2]) as f64),
        (exo_kernels::gemv(Precision::Single, false), |s| {
            2.0 * (s[0] * s[1]) as f64
        }),
        (exo_kernels::blur2d(), |s| 8.0 * (s[0] * s[1]) as f64),
    ];
    kernels
        .into_iter()
        .map(|(proc, flops)| {
            let name = proc.name().to_string();
            let script = schedule_of_record(&name, &machine)
                .ok_or_else(|| format!("{name}: no schedule of record"))?;
            let record = apply_script(&ProcHandle::new(proc.clone()), &script, &machine)
                .map_err(|e| format!("{name}: record does not replay: {e}"))?;
            let record_cycles = cycles(record.proc(), &machine, input_seed)?;
            let sizes = synth_sizes(&proc, input_seed)?;
            Ok(Task {
                task: TuneTask::new(proc, machine.clone(), flops(&sizes)),
                record_cycles,
            })
        })
        .collect()
}

struct Timed {
    /// Per pass (the three tune calls): seconds.
    pass_s: Vec<f64>,
    /// Per tune call: seconds.
    task_s: Vec<f64>,
    passes: usize,
    wall_s: f64,
    /// Every pass's reports (or errors), per task.
    reports: Vec<Vec<Result<TuneReport, String>>>,
}

/// Tunes the three tasks per pass until `seconds` have elapsed, without
/// starting a pass the remaining time cannot hold (the mean pass so far
/// is the estimate); always at least one pass. Pass `k` searches with
/// a seed derived from the run's seed and `k`, so more passes cover
/// more of the search space rather than repeating it.
fn timed_passes(tasks: &[Task], tune_cfg: &TuneConfig, seconds: f64) -> Timed {
    let mut t = Timed {
        pass_s: Vec::new(),
        task_s: Vec::new(),
        passes: 0,
        wall_s: 0.0,
        reports: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let cfg = TuneConfig {
            seed: tune_cfg.seed.wrapping_add(t.passes as u64 * 0x9E37_79B9),
            ..tune_cfg.clone()
        };
        let pass_start = Instant::now();
        let mut pass = Vec::new();
        for task in tasks {
            let t0 = Instant::now();
            let r = tune(&task.task, &cfg);
            t.task_s.push(t0.elapsed().as_secs_f64());
            pass.push(r);
        }
        t.reports.push(pass);
        t.pass_s.push(pass_start.elapsed().as_secs_f64());
        t.passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (t.passes + 1) as f64 / t.passes as f64 > seconds {
            break;
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

fn check(tasks: &[Task], t: &Timed, out: &mut Outcome) {
    for (k, pass) in t.reports.iter().enumerate() {
        for (task, r) in tasks.iter().zip(pass) {
            let verdict = (|| -> Result<(), String> {
                let r = r.as_ref().map_err(|e| e.clone())?;
                let best = r.best_by_cycles().ok_or("no candidate survived")?;
                if best.cycles > task.record_cycles {
                    return Err(format!(
                        "model-best {} cycles is worse than the record's {}",
                        best.cycles, task.record_cycles
                    ));
                }
                if let Some((i, e)) = r.measure_errors.first() {
                    return Err(format!("candidate {i} failed to measure: {e}"));
                }
                Ok(())
            })();
            if let Err(e) = verdict {
                out.fail(format!("{} (pass {k}): {e}", task.task.name));
            }
        }
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (tasks, setup_s) = timed_setup(|| setup(cfg.seed))?;
    let tune_cfg = TuneConfig {
        seed: cfg.seed,
        budget: 200,
        top_k: 8,
        measure: true,
        threads: cfg.threads,
        input_seed: cfg.seed,
        native: true,
    };
    out.line(format!(
        "  tune: avx2, budget {}, top-K {}, seed {}, measuring threads {}",
        tune_cfg.budget, tune_cfg.top_k, tune_cfg.seed, tune_cfg.threads
    ));
    let mut ledger = Ledger::default();
    let (plain, t) = if cfg.trace {
        let plain = timed_passes(&tasks, &tune_cfg, cfg.seconds / 2.0);
        let session = exo_obs::session();
        let t = timed_passes(&tasks, &tune_cfg, cfg.seconds / 2.0);
        let trace = session.finish();
        ledger.add(&trace);
        let path = crate::common::write_chrome_trace(cfg, "autotune", &trace)?;
        out.line(format!("  chrome trace: {path}"));
        (Some(plain), t)
    } else {
        (None, timed_passes(&tasks, &tune_cfg, cfg.seconds))
    };
    out.attempted = t.task_s.len() as u64;
    check(&tasks, &t, &mut out);
    // Per-layer counts are per pass: the last pass's.
    let reports: Vec<&TuneReport> = t
        .reports
        .last()
        .into_iter()
        .flatten()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    for (task, r) in tasks.iter().zip(&reports) {
        out.line(format!(
            "  {:<8} sampled {:>3} survivors {:>3} measured {:>2}  model-best {:>9} cy  record {:>9} cy  {:.2} s",
            r.kernel,
            r.sampled,
            r.candidates.len(),
            r.measured,
            r.best_by_cycles().map_or(0, |c| c.cycles),
            task.record_cycles,
            r.elapsed_secs
        ));
    }
    // The unit of work is one pass: tuning all three kernels (tune_s).
    let ms: Vec<f64> = t.pass_s.iter().map(|s| s * 1e3).collect();
    out.line(format!("  {} passes in {:.2} s", t.passes, t.wall_s));
    if !cfg.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput", t.passes as f64 / t.wall_s, "1/s");
        out.metric("latency_ms_p50", quantile(&ms, 0.5), "ms");
        out.metric("latency_ms_p99", quantile(&ms, 0.99), "ms");
        return Ok(out);
    }
    let sum = |f: fn(&TuneReport) -> usize| reports.iter().map(|r| f(r)).sum::<usize>() as f64;
    out.metric("autotune.sampled", sum(|r| r.sampled), "count");
    out.metric(
        "autotune.static_rejected",
        sum(|r| r.static_rejected),
        "count",
    );
    out.metric("autotune.replayed", sum(|r| r.replayed), "count");
    out.metric("autotune.illegal", sum(|r| r.illegal), "count");
    out.metric(
        "autotune.verify_rejected",
        sum(|r| r.verify_rejected),
        "count",
    );
    out.metric("autotune.trapped", sum(|r| r.trapped), "count");
    out.metric("autotune.measured", sum(|r| r.measured), "count");
    out.metric(
        "autotune.measure_errors",
        sum(|r| r.measure_errors.len()),
        "count",
    );
    out.metric(
        "autotune.useful_ratio",
        sum(|r| r.candidates.len()) / sum(|r| r.sampled).max(1.0),
        "ratio",
    );
    out.metric(
        "autotune.best_cycles",
        reports
            .iter()
            .filter_map(|r| r.best_by_cycles().map(|c| c.cycles as f64))
            .sum(),
        "cycles",
    );
    let passes = t.passes as f64;
    for (metric, span) in [
        ("autotune.generate_s", "tune:generate"),
        ("autotune.prune_s", "tune:prune"),
        ("autotune.replay_s", "tune:replay"),
        ("autotune.verify_s", "tune:verify"),
        ("autotune.measure_s", "tune:measure"),
    ] {
        out.metric(metric, ledger.get(span).total_ns as f64 / 1e9 / passes, "s");
    }
    out.metric(
        "machine.simulate_s",
        // Inclusive: the simulator runs inside `interp:run` spans.
        ledger.get("tune:simulate").total_ns as f64 / 1e9 / passes,
        "s",
    );
    crate::common::guard_metrics(&ledger, &mut out, passes);
    if let Some(plain) = plain {
        out.metric(
            "obs.overhead_pct",
            crate::common::overhead_pct(plain.wall_s / plain.passes as f64, t.wall_s / passes),
            "%",
        );
    }
    out.report.extend(ledger.table((t.wall_s * 1e9) as u64));
    Ok(out)
}

//! exo2-rs benchmark: four workloads over the repository's public
//! layer APIs, end-to-end metrics with tracing off, per-layer metrics
//! from a separate traced run. See README.md for what each workload and
//! metric measures.
//!
//! ```text
//! exo-perfbench --workload <lib_to_c|native_run|autotune|serve_mixed|all>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod autotune;
mod common;
mod lib_to_c;
mod native_run;
mod serve_mixed;

use common::{Outcome, RunCfg};
use std::fmt::Write as _;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["lib_to_c", "native_run", "autotune", "serve_mixed"];

/// End-to-end metrics: every workload reports every one of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not reach
/// a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.build_ms", "ms"),
    ("lib.schedule_ms", "ms"),
    ("cursors.self_ms", "ms"),
    ("cursors.rewrites", "count"),
    ("cursors.chain_bytes", "bytes"),
    ("ir.stmts", "count"),
    ("analysis.verify_ms", "ms"),
    ("analysis.errors", "count"),
    ("analysis.warnings", "count"),
    ("interp.lower_ms", "ms"),
    ("interp.code_len", "count"),
    ("codegen.emit_ms", "ms"),
    ("codegen.c_bytes", "bytes"),
    ("machine.simulate_s", "s"),
    ("machine.hostcaps_ms", "ms"),
    ("guard.cc_calls", "count"),
    ("guard.cc_s", "s"),
    ("guard.run_calls", "count"),
    ("guard.timeouts", "count"),
    ("run.gflops_sgemm", "GFLOP/s"),
    ("run.timed_share", "ratio"),
    ("run.ns_per_call.sgemm.avx2", "ns"),
    ("run.ns_per_call.sgemm.avx512", "ns"),
    ("run.ns_per_call.sgemv_n.avx2", "ns"),
    ("run.ns_per_call.sgemv_n.avx512", "ns"),
    ("run.ns_per_call.blur2d.avx2", "ns"),
    ("run.ns_per_call.blur2d.avx512", "ns"),
    ("run.ns_per_call.saxpy.avx2", "ns"),
    ("run.ns_per_call.saxpy.avx512", "ns"),
    ("run.spread.sgemm.avx2", "ratio"),
    ("run.spread.sgemm.avx512", "ratio"),
    ("run.spread.sgemv_n.avx2", "ratio"),
    ("run.spread.sgemv_n.avx512", "ratio"),
    ("run.spread.blur2d.avx2", "ratio"),
    ("run.spread.blur2d.avx512", "ratio"),
    ("run.spread.saxpy.avx2", "ratio"),
    ("run.spread.saxpy.avx512", "ratio"),
    ("codegen.c_bytes.sgemm.avx2", "bytes"),
    ("codegen.c_bytes.sgemm.avx512", "bytes"),
    ("codegen.c_bytes.sgemv_n.avx2", "bytes"),
    ("codegen.c_bytes.sgemv_n.avx512", "bytes"),
    ("codegen.c_bytes.blur2d.avx2", "bytes"),
    ("codegen.c_bytes.blur2d.avx512", "bytes"),
    ("codegen.c_bytes.saxpy.avx2", "bytes"),
    ("codegen.c_bytes.saxpy.avx512", "bytes"),
    ("autotune.sampled", "count"),
    ("autotune.static_rejected", "count"),
    ("autotune.replayed", "count"),
    ("autotune.illegal", "count"),
    ("autotune.verify_rejected", "count"),
    ("autotune.trapped", "count"),
    ("autotune.measured", "count"),
    ("autotune.measure_errors", "count"),
    ("autotune.useful_ratio", "ratio"),
    ("autotune.best_cycles", "cycles"),
    ("autotune.generate_s", "s"),
    ("autotune.prune_s", "s"),
    ("autotune.replay_s", "s"),
    ("autotune.verify_s", "s"),
    ("autotune.measure_s", "s"),
    ("serve.miss_ratio", "ratio"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.miss_ms_p99", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p99", "ms"),
    ("serve.computed", "count"),
    ("serve.coalesced", "count"),
    ("serve.negative_hits", "count"),
    ("serve.overloaded", "count"),
    ("serve.degradations", "count"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.step_ms_p50.replay", "ms"),
    ("serve.step_ms_p50.verify", "ms"),
    ("serve.step_ms_p50.emit", "ms"),
    ("serve.step_ms_p50.native-run", "ms"),
    ("obs.overhead_pct", "%"),
    ("fail_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload in this process and prints its report and result.
fn run_one(args: &Args) -> Result<bool, String> {
    let out_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_out");
    let tmp = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    // Every temporary file (emitted C, cc's own, kernel binaries) stays
    // inside the checkout. Set before any thread starts.
    std::env::set_var("TMPDIR", &tmp);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let caps = exo_machine::HostCaps::detect();
    let hostcaps_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("  host: {}; benchmark threads {threads}", caps.summary());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        out_dir,
    };
    let mut out: Outcome = match args.workload.as_str() {
        "lib_to_c" => lib_to_c::run(&cfg)?,
        "native_run" => native_run::run(&cfg)?,
        "autotune" => autotune::run(&cfg)?,
        "serve_mixed" => serve_mixed::run(&cfg)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    if args.trace {
        out.metric("machine.hostcaps_ms", hostcaps_ms, "ms");
        out.metric("fail_ratio", fail_ratio, "ratio");
    } else {
        out.metric("pass_ratio", 1.0 - fail_ratio, "ratio");
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    }
    for line in &out.report {
        println!("{line}");
    }
    for f in &out.failures {
        println!("  FAILED {f}");
    }
    let wanted: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let got = out.metrics.iter().find(|m| m.0 == *name);
        let value = match got {
            Some(m) => m.1,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        println!("  {name:<34} {value:>16.6} {unit}");
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            json_num(value)
        );
    }
    if let Some(extra) = out
        .metrics
        .iter()
        .find(|m| !wanted.iter().any(|w| w.0 == m.0))
    {
        return Err(format!("workload reported unlisted metric {}", extra.0));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    Ok(correct)
}

/// The last line of a child's output, parsed.
fn child_result(
    exe: &std::path::Path,
    args: &[String],
) -> Result<(String, exo_obs::JsonValue), String> {
    let output = std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!(
            "{args:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let v = exo_obs::parse_json(last).map_err(|e| format!("bad result line `{last}`: {e}"))?;
    Ok((stdout, v))
}

fn metric_value(v: &exo_obs::JsonValue, name: &str) -> f64 {
    v.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(|x| x.as_f64())
        .unwrap_or(f64::NAN)
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// stays per workload), then one combined result line with metrics
/// prefixed by workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let names: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    for w in WORKLOADS {
        let child_args: Vec<String> = [
            "--workload",
            w,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (stdout, v) = child_result(&exe, &child_args)?;
        print!("{stdout}");
        let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        attempted += num("attempted");
        failed += num("failed");
        correct &= stdout
            .lines()
            .last()
            .unwrap_or_default()
            .starts_with("{\"correct\": true");
        for (name, unit) in names {
            metrics.push(format!(
                "\"{w}.{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(metric_value(&v, name))
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    if let Err(e) = result {
        eprintln!("exo-perfbench: {e}");
        std::process::exit(2);
    }
}

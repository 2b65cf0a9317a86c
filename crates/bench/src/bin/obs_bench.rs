//! Observability harness: measures the overhead of `exo-obs` tracing on
//! the interpreter and serve workloads, exports a Chrome trace, and
//! validates it.
//!
//! Modes:
//!
//! * (default) — measure, validate, print the span report, write
//!   `BENCH_obs.json`.
//! * `--smoke` — assert the contracts and exit non-zero on violation:
//!   tracing overhead < 5% vs disabled on both workloads, the exported
//!   Chrome trace round-trips the JSON validity + well-nestedness
//!   check, and a request that walks the full degradation ladder yields
//!   a `RequestTrace` naming every step with its reason.

use exo_codegen::difftest::{interp_outputs, synth_inputs};
use exo_interp::ProcRegistry;
use exo_ir::{ib, var, DataType, Expr, Proc};
use exo_kernels::{axpy, gemv, scal, Precision};
use exo_lib::ScheduleScript;
use exo_machine::{MachineKind, MachineModel};
use exo_obs::{chrome_trace, fmt_report, validate_chrome_trace, Record, Trace, TraceCheck};
use exo_serve::proc_guard::GuardConfig;
use exo_serve::{
    Fault, FaultPlan, KernelService, RequestTrace, ServeConfig, ServeOptions, ServeRequest,
    StatsSnapshot, Tier,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn fail(msg: &str) -> ! {
    eprintln!("FATAL: {msg}");
    std::process::exit(1);
}

/// Interpreter runs per kernel per measurement round.
const INTERP_RUNS: usize = 100;
/// Measurement rounds per tracing state (medians are compared).
const ROUNDS: usize = 7;
const WAIT: Duration = Duration::from_secs(120);

fn interp_procs() -> Vec<Proc> {
    vec![
        gemv(Precision::Single, false),
        axpy(Precision::Single),
        scal(Precision::Single),
    ]
}

/// The interpreter workload: every proc run `INTERP_RUNS` times on
/// synthesized inputs. Returns total elements produced (a use for the
/// outputs, so the work cannot be optimized away).
fn interp_workload(registry: &ProcRegistry, procs: &[Proc]) -> usize {
    let mut elems = 0usize;
    for proc in procs {
        let inputs = synth_inputs(proc, 1)
            .unwrap_or_else(|e| fail(&format!("synth for `{}`: {e}", proc.name())));
        for _ in 0..INTERP_RUNS {
            let buffers = interp_outputs(proc, registry, &inputs)
                .unwrap_or_else(|e| fail(&format!("interp `{}`: {e}", proc.name())));
            elems += buffers.iter().map(Vec::len).sum::<usize>();
        }
    }
    elems
}

fn interp_request(proc: Proc, seed: u64) -> ServeRequest {
    ServeRequest {
        proc,
        script: ScheduleScript::new(vec![]),
        target: MachineKind::Scalar,
        options: ServeOptions {
            tier: Tier::Interp,
            input_seed: seed,
            ..ServeOptions::default()
        },
    }
}

/// A kernel no synthesized size satisfies: input synthesis fails on
/// every executing tier, so (with the compiler faulted away) the request
/// walks the entire ladder down to verified-ir.
fn ladder_request() -> ServeRequest {
    let proc = scal(Precision::Single).add_assertion(Expr::eq_(var("n"), ib(3)));
    ServeRequest {
        proc,
        script: ScheduleScript::new(vec![]),
        target: MachineKind::Scalar,
        options: ServeOptions {
            tier: Tier::NativeRun,
            ..ServeOptions::default()
        },
    }
}

/// The serve workload: the full-ladder request (index 0, compiler
/// faulted away) plus a spread of interpreter-tier requests with cache
/// hits. Returns the quiesced stats and the ladder request's trace.
fn serve_workload() -> (StatsSnapshot, RequestTrace) {
    let cfg = ServeConfig {
        workers: 2,
        fault_plan: FaultPlan::none().with(0, Fault::CcMissing),
        compile_guard: GuardConfig {
            spawn_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..GuardConfig::with_timeout(Duration::from_millis(1500))
        },
        ..ServeConfig::default()
    };
    let service = KernelService::new(cfg);
    let ladder = service.submit(ladder_request());
    let mut tickets = Vec::new();
    for seed in 1..=4u64 {
        for proc in interp_procs() {
            tickets.push(service.submit(interp_request(proc, seed)));
        }
    }
    // Repeats: cache hits on the now-resolved keys.
    for proc in interp_procs() {
        tickets.push(service.submit(interp_request(proc, 1)));
    }
    let ladder_ok = ladder
        .wait_timeout(WAIT)
        .unwrap_or_else(|| fail("ladder request hung"))
        .result
        .unwrap_or_else(|e| fail(&format!("ladder request must degrade, not fail: {e}")));
    for t in tickets {
        let d = t.wait_timeout(WAIT).unwrap_or_else(|| fail("request hung"));
        if let Err(e) = d.result {
            fail(&format!("interp-tier request failed: {e}"));
        }
    }
    let stats = service.stats();
    service.shutdown();
    (stats, ladder_ok.trace.clone())
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Median wall time of `work`, alternating tracing off/on per round so
/// drift hits both states equally. Returns (disabled, enabled).
fn measure<F: FnMut()>(mut work: F) -> (Duration, Duration) {
    // One warmup with tracing off.
    work();
    let mut off = Vec::with_capacity(ROUNDS);
    let mut on = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        exo_obs::disable();
        let t = Instant::now();
        work();
        off.push(t.elapsed());

        let session = exo_obs::trace::session();
        let t = Instant::now();
        work();
        on.push(t.elapsed());
        drop(session.finish()); // discard: overhead rounds measure, not export
    }
    exo_obs::disable();
    (median(off), median(on))
}

fn overhead_percent(off: Duration, on: Duration) -> f64 {
    if off.is_zero() {
        return 0.0;
    }
    (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0
}

fn span_counts(trace: &Trace) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for record in &trace.records {
        let name = match record {
            Record::Span(s) => s.name,
            Record::Event(e) => e.name,
        };
        *counts.entry(name).or_insert(0u64) += 1;
    }
    counts
}

#[allow(clippy::too_many_arguments)]
fn json(
    interp_pct: f64,
    serve_pct: f64,
    check: &TraceCheck,
    counts: &BTreeMap<&'static str, u64>,
    stats: &StatsSnapshot,
    ladder: &RequestTrace,
    dropped: u64,
) -> String {
    let mut out = exo_bench::bench_json_header("obs_bench");
    out.push_str(
        "  \"unit\": \"overhead_percent = (traced - untraced) / untraced wall time, \
         median of alternating rounds; latency percentiles in ns from the serve \
         request-latency histogram\",\n",
    );
    out.push_str(&format!(
        "  \"overhead_percent\": {{\"interp\": {interp_pct:.2}, \"serve\": {serve_pct:.2}}},\n"
    ));
    out.push_str(&format!(
        "  \"trace\": {{\"events\": {}, \"spans\": {}, \"lanes\": {}, \"max_depth\": {}, \
         \"dropped\": {dropped}}},\n",
        check.events, check.spans, check.lanes, check.max_depth
    ));
    out.push_str(&format!(
        "  \"serve_latency_ns\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
         \"max\": {}}},\n",
        stats.latency.count,
        stats.latency.p50,
        stats.latency.p90,
        stats.latency.p99,
        stats.latency.max
    ));
    out.push_str("  \"span_counts\": {\n");
    for (i, (name, count)) in counts.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {count}{}\n",
            if i + 1 == counts.len() { "" } else { "," }
        ));
    }
    out.push_str("  },\n  \"ladder_trace\": [\n");
    for (i, step) in ladder.steps.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"step\": \"{}\", \"outcome\": \"{}\"}}{}\n",
            step.name,
            step.outcome,
            if i + 1 == ladder.steps.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "obs_bench: tracing overhead + Chrome-trace export checks{}",
        if smoke { " [smoke mode]" } else { "" }
    );

    let machine = MachineModel::scalar();
    let registry: ProcRegistry = machine.instructions(DataType::F32).into_iter().collect();
    let procs = interp_procs();

    // 1. Overhead: interpreter workload.
    let (interp_off, interp_on) = measure(|| {
        let elems = interp_workload(&registry, &procs);
        assert!(elems > 0);
    });
    let interp_pct = overhead_percent(interp_off, interp_on);
    println!(
        "  interp workload: untraced {:?}, traced {:?} -> overhead {:+.2}%",
        interp_off, interp_on, interp_pct
    );

    // 2. Overhead: serve workload.
    let (serve_off, serve_on) = measure(|| {
        let _ = serve_workload();
    });
    let serve_pct = overhead_percent(serve_off, serve_on);
    println!(
        "  serve workload:  untraced {:?}, traced {:?} -> overhead {:+.2}%",
        serve_off, serve_on, serve_pct
    );

    // 3. One traced showcase run of both workloads -> export + validate.
    let session = exo_obs::trace::session();
    let (stats, ladder) = serve_workload();
    interp_workload(&registry, &procs);
    let trace = session.finish();
    let dropped = trace.dropped;
    let exported = chrome_trace(&trace);
    let check = validate_chrome_trace(&exported)
        .unwrap_or_else(|e| fail(&format!("exported Chrome trace is invalid: {e}")));
    let counts = span_counts(&trace);
    println!(
        "  exported trace: {} events ({} spans), {} lanes, max depth {}, {} dropped",
        check.events, check.spans, check.lanes, check.max_depth, dropped
    );
    println!("{}", fmt_report(&trace));
    println!("  ladder request trace:\n{ladder}");

    if smoke {
        if interp_pct >= 5.0 {
            fail(&format!("interp tracing overhead {interp_pct:.2}% >= 5%"));
        }
        if serve_pct >= 5.0 {
            fail(&format!("serve tracing overhead {serve_pct:.2}% >= 5%"));
        }
        if check.spans == 0 || check.max_depth < 2 {
            fail("traced workload must export nested spans");
        }
        for name in ["serve:request", "serve:tier", "interp:run", "serve:degrade"] {
            if counts.get(name).copied().unwrap_or(0) == 0 {
                fail(&format!("expected `{name}` records in the trace"));
            }
        }
        let steps: Vec<(&str, &str)> = ladder
            .steps
            .iter()
            .map(|s| (s.name, s.outcome.as_str()))
            .collect();
        let want = [
            ("replay", "ok"),
            ("verify", "ok (0 findings)"),
            ("emit", "ok"),
            ("native-flags", "native (no extra flags needed)"),
            ("native-run", "degraded to compile-only: input-synthesis"),
            ("compile-only", "degraded to interp: compiler-unavailable"),
            ("interp", "degraded to verified-ir: input-synthesis"),
            ("verified-ir", "served"),
        ];
        if steps != want {
            fail(&format!(
                "full-ladder RequestTrace must name every step with its reason; got {steps:?}"
            ));
        }
        if stats.latency.count == 0 || stats.latency.p50 > stats.latency.p99 {
            fail("serve latency histogram must aggregate request latencies monotonically");
        }
        println!("obs_bench: smoke checks passed");
        return;
    }

    let payload = json(
        interp_pct, serve_pct, &check, &counts, &stats, &ladder, dropped,
    );
    std::fs::write("BENCH_obs.json", &payload)
        .unwrap_or_else(|e| fail(&format!("cannot write BENCH_obs.json: {e}")));
    println!("obs_bench: wrote BENCH_obs.json");
}

//! `serve_mixed`: a closed loop of `threads` clients against a
//! fault-free `KernelService` with `threads` workers and the real
//! `HostCaps`.
//!
//! The request stream is drawn from the seed in blocks of
//! [`BLOCK`] requests with a fixed make-up, so every seed gives the same
//! mix in a different order with different inputs:
//!
//! * one first-seen key of a valid (kernel, script, target), rotating
//!   over the valid pool — a native-run miss (replay, verify, emit, `cc`,
//!   run);
//! * one request of a script the primitives must reject (avx512 records
//!   on `N % 8` kernels), new or repeated — a `BadSchedule` miss or a
//!   negative-cache hit;
//! * the rest repeats of recent valid keys — cache hits, or coalesced
//!   onto an identical request in flight.
//!
//! These shares are an assumption: the repository records no real
//! request mix. They are set so each kind is exercised every block; with
//! one native-run miss in 20 (5%, above the 1% tail), `latency_ms_p99`
//! is miss latency (`cc` + run), `latency_ms_p50` is hit latency, and
//! throughput follows the miss rate. The report prints miss and hit
//! latency and share apart, and the traced run reports them as
//! `serve.{miss,hit}_{ratio,ms_p50,ms_p99}`, so a change of mix can be
//! told from a change of the program.

use crate::common::{quantile, timed_setup, Ledger, Outcome, Rng, RunCfg};
use exo_cursors::ProcHandle;
use exo_ir::Proc;
use exo_kernels::Precision;
use exo_lib::{apply_script, schedule_of_record, LoopSel, SchedStep, ScheduleScript};
use exo_machine::{MachineKind, MachineModel};
use exo_serve::{
    CacheStatus, KernelService, RequestTrace, ServeConfig, ServeError, ServeOptions, ServeRequest,
    Tier,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per block of the stream.
const BLOCK: usize = 20;
/// Repeats draw from the most recent this many valid keys.
const RECENT: usize = 12;
/// Longest stream a run can consume.
const STREAM_LEN: usize = 400_000;
/// A request not answered in this long counts as a timeout.
const WAIT: Duration = Duration::from_secs(120);

/// One (kernel, script, target) of the pool.
struct Base {
    id: String,
    proc: Proc,
    script: ScheduleScript,
    target: MachineKind,
    /// Set-up's expectation: does the script replay?
    valid: bool,
}

fn vectorize_i(width: i64) -> ScheduleScript {
    ScheduleScript::new(vec![SchedStep::Vectorize {
        loop_: LoopSel::new("i", 0),
        width,
    }])
}

/// The pool: the three schedules of record and three vectorized
/// level-1 kernels, each for avx2 and avx512. On avx512 the 16-lane
/// scripts cannot replay on kernels that only assert `N % 8 == 0`
/// (sgemv_n and the level-1 kernels); the service must reject them.
fn pool() -> Result<Vec<Base>, String> {
    let mut v = Vec::new();
    for (kind, machine) in [
        (MachineKind::Avx2, MachineModel::avx2()),
        (MachineKind::Avx512, MachineModel::avx512()),
    ] {
        let vw = machine.vec_width(exo_ir::DataType::F32);
        let kernels: Vec<(Proc, ScheduleScript)> = vec![
            (
                exo_kernels::sgemm(),
                schedule_of_record("sgemm", &machine).ok_or("no sgemm record")?,
            ),
            (
                exo_kernels::gemv(Precision::Single, false),
                schedule_of_record("sgemv_n", &machine).ok_or("no sgemv_n record")?,
            ),
            (
                exo_kernels::blur2d(),
                schedule_of_record("blur2d", &machine).ok_or("no blur2d record")?,
            ),
            (exo_kernels::axpy(Precision::Single), vectorize_i(vw)),
            (exo_kernels::scal(Precision::Single), vectorize_i(vw)),
            (exo_kernels::copy(Precision::Single), vectorize_i(vw)),
        ];
        for (proc, script) in kernels {
            let valid = apply_script(&ProcHandle::new(proc.clone()), &script, &machine).is_ok();
            v.push(Base {
                id: format!("{}.{}", proc.name(), machine.name),
                proc,
                script,
                target: kind,
                valid,
            });
        }
    }
    Ok(v)
}

/// One request of the stream: a pool entry and the input seed that,
/// with it, makes the request key.
#[derive(Clone, Copy)]
struct Req {
    base: usize,
    input_seed: u64,
}

fn stream(pool: &[Base], rng: &mut Rng) -> Result<Vec<Req>, String> {
    let valid: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].valid).collect();
    let invalid: Vec<usize> = (0..pool.len()).filter(|&i| !pool[i].valid).collect();
    if valid.is_empty() || invalid.is_empty() {
        return Err("the pool needs valid and rejected scripts".into());
    }
    let mut fresh = 0u64;
    let mut news: Vec<Req> = Vec::new();
    let mut bad = None;
    let mut out = Vec::with_capacity(STREAM_LEN);
    for b in 0..STREAM_LEN / BLOCK {
        fresh += 1 + rng.below(1000) as u64;
        let new = Req {
            base: valid[b % valid.len()],
            input_seed: fresh,
        };
        // Rejected scripts alternate: a fresh key (a `BadSchedule`
        // miss), then the same key again (a negative-cache hit).
        if b % 2 == 0 {
            bad = Some(Req {
                base: invalid[(b / 2) % invalid.len()],
                input_seed: fresh,
            });
        }
        out.push(new);
        out.push(bad.expect("set on even blocks"));
        // The previous block's key right after: coalesced when the
        // other client is still computing it, a hit otherwise.
        if let Some(&prev) = news.last() {
            out.push(prev);
        }
        news.push(new);
        // Repeats of settled keys: with `threads` clients at most that
        // many requests are in flight, all among the newest keys.
        let settled = news.len().saturating_sub(3);
        while out.len() % BLOCK != 0 {
            let from = settled.saturating_sub(RECENT);
            let r = if settled > 0 {
                news[from + rng.below(settled - from)]
            } else {
                new
            };
            out.push(r);
        }
    }
    Ok(out)
}

struct State {
    pool: Vec<Base>,
    stream: Vec<Req>,
    service: KernelService,
}

fn setup(seed: u64, threads: usize) -> Result<State, String> {
    let pool = pool()?;
    let stream = stream(&pool, &mut Rng::new(seed))?;
    let service = KernelService::new(ServeConfig {
        workers: threads,
        ..ServeConfig::default()
    });
    Ok(State {
        pool,
        stream,
        service,
    })
}

/// What one request returned.
struct Record {
    req: Req,
    latency_ns: u64,
    cache: Option<CacheStatus>,
    outcome: Result<(Tier, usize, u64, RequestTrace), String>,
}

/// The closed loop: each client takes the next request of the stream,
/// submits it and waits for its delivery, until `seconds` have elapsed.
fn closed_loop(
    state: &State,
    next: &AtomicUsize,
    threads: usize,
    seconds: f64,
) -> (Vec<Record>, f64) {
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while start.elapsed().as_secs_f64() < seconds {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&req) = state.stream.get(i) else {
                        break;
                    };
                    let base = &state.pool[req.base];
                    let request = ServeRequest {
                        proc: base.proc.clone(),
                        script: base.script.clone(),
                        target: base.target,
                        options: ServeOptions {
                            tier: Tier::NativeRun,
                            input_seed: req.input_seed,
                            ..ServeOptions::default()
                        },
                    };
                    let t0 = Instant::now();
                    let delivery = {
                        let _s = exo_obs::span!("client:request", "{}#{}", base.id, req.input_seed);
                        state.service.submit(request).wait_timeout(WAIT)
                    };
                    let latency_ns = t0.elapsed().as_nanos() as u64;
                    let (cache, outcome) = match delivery {
                        None => (None, Err("timeout".to_string())),
                        Some(d) => (
                            Some(d.cache),
                            match d.result {
                                Ok(ok) => Ok((
                                    ok.tier,
                                    ok.degraded.len(),
                                    ok.exec.map_or(0, |e| e.checksum),
                                    ok.trace.clone(),
                                )),
                                Err(ServeError::BadSchedule(_)) => Err("bad-schedule".into()),
                                Err(e) => Err(e.class().to_string()),
                            },
                        ),
                    };
                    mine.push(Record {
                        req,
                        latency_ns,
                        cache,
                        outcome,
                    });
                }
                exo_obs::trace::flush_thread();
                records.lock().expect("records poisoned").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (records.into_inner().expect("records poisoned"), wall)
}

/// Checks, after the timed region: the class set-up expects for the
/// key, no degradation, and every hit's checksum equal to its miss's.
fn check(state: &State, records: &[Record], out: &mut Outcome) {
    let mut checksums: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    for r in records {
        let base = &state.pool[r.req.base];
        let verdict = match (&r.outcome, base.valid) {
            (Ok((tier, degraded, sum, _)), true) => {
                if *tier != Tier::NativeRun || *degraded > 0 {
                    Err(format!(
                        "served at tier {tier} with {degraded} degradations"
                    ))
                } else {
                    match checksums.insert((r.req.base, r.req.input_seed), *sum) {
                        Some(prev) if prev != *sum => {
                            Err("checksum differs from the miss's".into())
                        }
                        _ => Ok(()),
                    }
                }
            }
            (Err(class), false) if class == "bad-schedule" => Ok(()),
            (Ok(_), false) => Err("accepted a script set-up expects rejected".into()),
            (Err(class), _) => Err(format!("unexpected {class}")),
        };
        if let Err(e) = verdict {
            out.failed += 1;
            *failures.entry(format!("{}: {e}", base.id)).or_default() += 1;
        }
    }
    out.failures
        .extend(failures.into_iter().map(|(e, n)| format!("{e} (x{n})")));
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (state, setup_s) = timed_setup(|| setup(cfg.seed, cfg.threads))?;
    let rejected: Vec<&str> = state
        .pool
        .iter()
        .filter(|b| !b.valid)
        .map(|b| b.id.as_str())
        .collect();
    out.line(format!(
        "  {} clients, {} workers; pool of {} (kernel, script, target), rejected by set-up: {:?}",
        cfg.threads,
        cfg.threads,
        state.pool.len(),
        rejected
    ));
    let next = AtomicUsize::new(0);
    let mut ledger = Ledger::default();
    let mut before = state.service.stats();
    let (plain, (records, wall_s)) = if cfg.trace {
        let plain = closed_loop(&state, &next, cfg.threads, cfg.seconds / 2.0);
        before = state.service.stats();
        let session = exo_obs::session();
        let traced = closed_loop(&state, &next, cfg.threads, cfg.seconds / 2.0);
        let trace = session.finish();
        ledger.add(&trace);
        let path = crate::common::write_chrome_trace(cfg, "serve_mixed", &trace)?;
        out.line(format!("  chrome trace: {path}"));
        (Some(plain), traced)
    } else {
        (None, closed_loop(&state, &next, cfg.threads, cfg.seconds))
    };
    let after = state.service.stats();
    out.attempted = records.len() as u64;
    check(&state, &records, &mut out);
    let lat_ms: Vec<f64> = records.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
    let of = |c: CacheStatus| records.iter().filter(|r| r.cache == Some(c)).count();
    out.line(format!(
        "  {} requests in {:.2} s: {} miss, {} hit, {} coalesced, {} negative-hit",
        records.len(),
        wall_s,
        of(CacheStatus::Miss),
        of(CacheStatus::Hit),
        of(CacheStatus::Coalesced),
        of(CacheStatus::NegativeHit)
    ));
    // The mix is fixed by the stream; these rows let a reader tell a
    // change of the mix from a change of the program. A miss here is a
    // computed native-run miss (a rejected script's miss is not).
    let mut by_class = Vec::new();
    for (what, status) in [("miss", CacheStatus::Miss), ("hit", CacheStatus::Hit)] {
        let v: Vec<f64> = records
            .iter()
            .filter(|r| r.cache == Some(status) && r.outcome.is_ok())
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect();
        let (p50, p99) = (quantile(&v, 0.5), quantile(&v, 0.99));
        let share = v.len() as f64 / records.len().max(1) as f64;
        out.line(format!(
            "  {what:<5} latency: p50 {p50:.4} ms, p99 {p99:.4} ms over {} requests ({:.2}% of all)",
            v.len(),
            100.0 * share
        ));
        by_class.push((what, p50, p99, share));
    }
    if !cfg.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput", records.len() as f64 / wall_s, "1/s");
        out.metric("latency_ms_p50", quantile(&lat_ms, 0.5), "ms");
        out.metric("latency_ms_p99", quantile(&lat_ms, 0.99), "ms");
        return Ok(out);
    }
    for (what, p50, p99, share) in by_class {
        out.metric(format!("serve.{what}_ratio"), share, "ratio");
        out.metric(format!("serve.{what}_ms_p50"), p50, "ms");
        out.metric(format!("serve.{what}_ms_p99"), p99, "ms");
    }
    // Service counters over the traced half only.
    let delta = |f: fn(&exo_serve::StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    out.metric("serve.computed", delta(|s| s.computed), "count");
    out.metric("serve.coalesced", delta(|s| s.coalesced), "count");
    out.metric("serve.negative_hits", delta(|s| s.negative_hits), "count");
    out.metric("serve.overloaded", delta(|s| s.overloaded), "count");
    out.metric("serve.degradations", delta(|s| s.degradations), "count");
    // Computed misses only: time outside the worker pipeline is queueing.
    let misses: Vec<&RequestTrace> = records
        .iter()
        .filter(|r| r.cache == Some(CacheStatus::Miss))
        .filter_map(|r| r.outcome.as_ref().ok().map(|o| &o.3))
        .collect();
    let queue_ms: Vec<f64> = records
        .iter()
        .filter(|r| r.cache == Some(CacheStatus::Miss))
        .filter_map(|r| {
            r.outcome
                .as_ref()
                .ok()
                .map(|o| r.latency_ns.saturating_sub(o.3.total_ns) as f64 / 1e6)
        })
        .collect();
    out.metric("serve.queue_ms_p50", quantile(&queue_ms, 0.5), "ms");
    out.metric("serve.queue_ms_p99", quantile(&queue_ms, 0.99), "ms");
    let mut steps_total = 0.0;
    let mut native_total = 0.0;
    for step in ["replay", "verify", "emit", "native-run"] {
        let v: Vec<f64> = misses
            .iter()
            .filter_map(|t| t.step(step).map(|s| s.ns as f64 / 1e6))
            .collect();
        out.metric(format!("serve.step_ms_p50.{step}"), quantile(&v, 0.5), "ms");
        let total: f64 = v.iter().sum();
        steps_total += total;
        if step == "native-run" {
            native_total = total;
        }
    }
    let miss_total: f64 = misses.iter().map(|t| t.total_ns as f64 / 1e6).sum();
    out.line(format!(
        "  native-run is {:.1}% of computed-miss pipeline time ({:.1}% for replay+verify+emit+native-run)",
        100.0 * native_total / miss_total.max(1e-9),
        100.0 * steps_total / miss_total.max(1e-9)
    ));
    crate::common::guard_metrics(&ledger, &mut out, 1.0);
    if let Some((plain_records, _)) = plain {
        // Tracing sits on the hit path (a span and an event per
        // submit); misses are dominated by `cc`. Compare median hits.
        let hit_ms = |rs: &[Record]| {
            let v: Vec<f64> = rs
                .iter()
                .filter(|r| r.cache == Some(CacheStatus::Hit))
                .map(|r| r.latency_ns as f64)
                .collect();
            quantile(&v, 0.5)
        };
        out.metric(
            "obs.overhead_pct",
            crate::common::overhead_pct(hit_ms(&plain_records), hit_ms(&records)),
            "%",
        );
    }
    out.report.extend(ledger.table((wall_s * 1e9) as u64));
    Ok(out)
}

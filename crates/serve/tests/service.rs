//! Service-level robustness contracts: single-flight deduplication,
//! negative-cache TTL, backpressure, degradation tiers, corruption
//! quarantine, and panic isolation.

use exo_kernels::{axpy, scal, Precision};
use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use exo_serve::proc_guard::GuardConfig;
use exo_serve::{
    CacheStatus, DegradeReason, Fault, FaultPlan, KernelService, ServeConfig, ServeError,
    ServeOptions, ServeRequest, Tier,
};
use std::time::Duration;

/// A request that needs no C toolchain (interpreter tier).
fn interp_request(seed: u64) -> ServeRequest {
    ServeRequest {
        proc: scal(Precision::Single),
        script: ScheduleScript::new(vec![]),
        target: MachineKind::Scalar,
        options: ServeOptions {
            tier: Tier::Interp,
            input_seed: seed,
            ..ServeOptions::default()
        },
    }
}

fn fast_guards(cfg: &mut ServeConfig) {
    // Short timeouts and a cheap retry policy so injected hangs and
    // missing binaries resolve in test time, not minutes.
    cfg.compile_guard = GuardConfig {
        spawn_retries: 1,
        backoff_base: Duration::from_millis(1),
        ..GuardConfig::with_timeout(Duration::from_millis(1500))
    };
    cfg.run_guard = GuardConfig::with_timeout(Duration::from_millis(1500));
}

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn identical_requests_compile_exactly_once() {
    let service = KernelService::new(ServeConfig::default());
    let n = 24;
    let tickets: Vec<_> = (0..n).map(|_| service.submit(interp_request(1))).collect();
    let mut miss = 0;
    let mut shared = 0;
    for t in tickets {
        let d = t.wait_timeout(WAIT).expect("request hung");
        assert!(d.result.is_ok(), "identity schedule must serve: {d:?}");
        match d.cache {
            CacheStatus::Miss => miss += 1,
            CacheStatus::Hit | CacheStatus::Coalesced => shared += 1,
            CacheStatus::NegativeHit => panic!("no failure was cached"),
        }
    }
    let stats = service.stats();
    assert_eq!(
        stats.computed, 1,
        "N identical requests must trigger exactly one compilation"
    );
    assert_eq!(miss, 1);
    assert_eq!(shared, n - 1);
    assert_eq!(stats.cache_hits + stats.coalesced, (n - 1) as u64);
}

#[test]
fn negative_cache_expires_and_reattempts() {
    let mut cfg = ServeConfig {
        negative_ttl: Duration::from_millis(200),
        fault_plan: FaultPlan::none().with(0, Fault::WorkerPanic),
        ..ServeConfig::default()
    };
    fast_guards(&mut cfg);
    let service = KernelService::new(cfg);

    // Request 0 panics inside the worker; the panic is caught,
    // classified, and quarantined in the negative cache.
    let d0 = service
        .submit(interp_request(7))
        .wait_timeout(WAIT)
        .expect("request hung");
    match &d0.result {
        Err(ServeError::Internal(msg)) => {
            assert!(msg.contains("injected worker panic"), "payload lost: {msg}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(service.workers_alive(), 4, "the worker must survive");

    // Within the TTL the failure is authoritative: no recompute.
    let d1 = service
        .submit(interp_request(7))
        .wait_timeout(WAIT)
        .expect("request hung");
    assert_eq!(d1.cache, CacheStatus::NegativeHit);
    assert!(matches!(d1.result, Err(ServeError::Internal(_))));
    assert_eq!(service.stats().computed, 1);

    // Past the TTL the entry expires and the request is re-attempted —
    // this time with no fault planned, so it succeeds.
    std::thread::sleep(Duration::from_millis(300));
    let d2 = service
        .submit(interp_request(7))
        .wait_timeout(WAIT)
        .expect("request hung");
    assert_eq!(d2.cache, CacheStatus::Miss);
    assert!(d2.result.is_ok(), "retry after TTL must succeed: {d2:?}");
    let stats = service.stats();
    assert_eq!(stats.computed, 2);
    assert_eq!(stats.panics_recovered, 1);
    assert_eq!(stats.negative_hits, 1);
}

#[test]
fn full_queue_sheds_with_overloaded() {
    let mut cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        // Every request's compile hangs, so the single worker is pinned
        // long enough for later submissions to hit the full queue.
        fault_plan: (0..8).fold(FaultPlan::none(), |p, i| p.with(i, Fault::CcHang)),
        ..ServeConfig::default()
    };
    fast_guards(&mut cfg);
    let service = KernelService::new(cfg);

    let first = service.submit(ServeRequest {
        options: ServeOptions {
            tier: Tier::NativeRun,
            input_seed: 100,
            ..ServeOptions::default()
        },
        ..interp_request(0)
    });
    // Let the worker take the first request off the queue.
    std::thread::sleep(Duration::from_millis(200));
    let rest: Vec<_> = (1..6)
        .map(|i| {
            service.submit(ServeRequest {
                options: ServeOptions {
                    tier: Tier::NativeRun,
                    input_seed: 100 + i,
                    ..ServeOptions::default()
                },
                ..interp_request(0)
            })
        })
        .collect();

    let mut overloaded = 0;
    let mut served = 0;
    for t in std::iter::once(first).chain(rest) {
        match t.wait_timeout(WAIT).expect("request hung").result {
            Err(ServeError::Overloaded { .. }) => overloaded += 1,
            Ok(_) => served += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(
        overloaded >= 1,
        "a 1-deep queue behind a pinned worker must shed"
    );
    assert!(served >= 1, "queued requests must still be served");
    assert_eq!(service.stats().overloaded, overloaded as u64);
    // Shedding is transient: nothing was negative-cached, so an
    // identical request later is computed, not served a stale error.
    assert_eq!(service.stats().negative_hits, 0);
}

#[test]
fn missing_compiler_degrades_to_interp() {
    let mut cfg = ServeConfig {
        fault_plan: FaultPlan::none().with(0, Fault::CcMissing),
        ..ServeConfig::default()
    };
    fast_guards(&mut cfg);
    let service = KernelService::new(cfg);
    let d = service
        .submit(ServeRequest {
            options: ServeOptions {
                tier: Tier::NativeRun,
                ..ServeOptions::default()
            },
            ..interp_request(3)
        })
        .wait_timeout(WAIT)
        .expect("request hung");
    let ok = d.result.expect("must degrade, not fail");
    assert_eq!(ok.tier, Tier::Interp);
    assert_eq!(ok.degraded.len(), 1);
    assert_eq!(ok.degraded[0].from, Tier::NativeRun);
    assert_eq!(ok.degraded[0].reason, DegradeReason::CompilerUnavailable);
    assert!(ok.exec.is_some(), "the interpreter tier executes");
}

#[test]
fn hanging_compiler_is_killed_and_degrades() {
    let mut cfg = ServeConfig {
        fault_plan: FaultPlan::none().with(0, Fault::CcHang),
        ..ServeConfig::default()
    };
    fast_guards(&mut cfg);
    let service = KernelService::new(cfg);
    let d = service
        .submit(ServeRequest {
            proc: axpy(Precision::Single),
            options: ServeOptions {
                tier: Tier::NativeRun,
                ..ServeOptions::default()
            },
            ..interp_request(3)
        })
        .wait_timeout(WAIT)
        .expect("request hung — kill-on-timeout failed");
    let ok = d.result.expect("must degrade, not fail");
    assert_eq!(ok.tier, Tier::Interp);
    assert_eq!(ok.degraded[0].reason, DegradeReason::CompilerTimeout);
    assert_eq!(service.stats().guard_timeouts, 1);
}

#[test]
fn hanging_binary_serves_compile_only() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let mut cfg = ServeConfig {
        fault_plan: FaultPlan::none().with(0, Fault::BinaryHang),
        ..ServeConfig::default()
    };
    fast_guards(&mut cfg);
    let service = KernelService::new(cfg);
    let d = service
        .submit(ServeRequest {
            options: ServeOptions {
                tier: Tier::NativeRun,
                ..ServeOptions::default()
            },
            ..interp_request(3)
        })
        .wait_timeout(WAIT)
        .expect("request hung — kill-on-timeout failed");
    let ok = d.result.expect("must degrade, not fail");
    // The unit compiled; only the run was lost, so the response is the
    // compile-only tier, not a drop to the interpreter.
    assert_eq!(ok.tier, Tier::CompileOnly);
    assert_eq!(ok.degraded[0].from, Tier::NativeRun);
    assert_eq!(ok.degraded[0].reason, DegradeReason::BinaryTimeout);
}

#[test]
fn corrupted_cache_entries_are_quarantined_and_recomputed() {
    let cfg = ServeConfig {
        fault_plan: FaultPlan::none().with(0, Fault::CacheCorruption),
        ..ServeConfig::default()
    };
    let service = KernelService::new(cfg);
    let d0 = service
        .submit(interp_request(9))
        .wait_timeout(WAIT)
        .expect("request hung");
    assert!(d0.result.is_ok());

    // The stored entry's checksum was flipped after resolve; the next
    // hit must detect the mismatch, quarantine, and recompute rather
    // than serve the corrupt payload.
    let d1 = service
        .submit(interp_request(9))
        .wait_timeout(WAIT)
        .expect("request hung");
    assert_eq!(d1.cache, CacheStatus::Miss, "corrupt hit must recompute");
    assert!(d1.result.is_ok());
    let stats = service.stats();
    assert_eq!(stats.corruptions_injected, 1);
    assert_eq!(stats.corruptions_recovered, 1);
    assert_eq!(stats.computed, 2);

    // And the recomputed entry is clean: the third request is a hit.
    let d2 = service
        .submit(interp_request(9))
        .wait_timeout(WAIT)
        .expect("request hung");
    assert_eq!(d2.cache, CacheStatus::Hit);
}

/// A request whose script the primitives reject (distinct per `seed`).
fn bad_schedule_request(seed: u64) -> ServeRequest {
    use exo_lib::{LoopSel, SchedStep};
    ServeRequest {
        script: ScheduleScript::new(vec![SchedStep::Reorder {
            loop_: LoopSel::new("no_such_loop", 0),
        }]),
        ..interp_request(seed)
    }
}

#[test]
fn expired_failures_leave_the_cache() {
    let service = KernelService::new(ServeConfig {
        negative_ttl: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let fail = |seed| {
        let d = service
            .submit(bad_schedule_request(seed))
            .wait_timeout(WAIT)
            .expect("request hung");
        assert!(matches!(d.result, Err(ServeError::BadSchedule(_))));
    };
    for seed in 0..6 {
        fail(seed);
    }
    assert_eq!(service.cache_len(), 6, "each distinct failure is cached");
    std::thread::sleep(Duration::from_millis(200));
    // None of the six keys is submitted again; storing a new failure
    // drops them all.
    fail(100);
    assert_eq!(service.cache_len(), 1, "expired failures stayed in the map");
}

#[test]
fn bad_schedules_are_classified_not_fatal() {
    let service = KernelService::new(ServeConfig::default());
    let d = service
        .submit(bad_schedule_request(1))
        .wait_timeout(WAIT)
        .expect("request hung");
    assert!(matches!(d.result, Err(ServeError::BadSchedule(_))));
    assert_eq!(service.workers_alive(), 4);
}

#[test]
fn shutdown_cancels_pending_requests() {
    let mut cfg = ServeConfig {
        workers: 1,
        queue_cap: 16,
        fault_plan: (0..4).fold(FaultPlan::none(), |p, i| p.with(i, Fault::CcHang)),
        ..ServeConfig::default()
    };
    fast_guards(&mut cfg);
    let service = KernelService::new(cfg);
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            service.submit(ServeRequest {
                options: ServeOptions {
                    tier: Tier::NativeRun,
                    input_seed: 200 + i,
                    ..ServeOptions::default()
                },
                ..interp_request(0)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    service.shutdown();
    let mut canceled = 0;
    for t in tickets {
        match t.wait_timeout(WAIT) {
            Some(d) => {
                if matches!(d.result, Err(ServeError::Canceled)) {
                    canceled += 1;
                }
            }
            None => panic!("shutdown must deliver, not leak, pending tickets"),
        }
    }
    assert!(
        canceled >= 1,
        "queued-but-unprocessed requests are canceled"
    );
}

/// This process's build directories for kernel `name`: the shared
/// guarded compile names them `exo_codegen_<pid>_<n>_<kernel>`.
fn serve_dirs(name: &str) -> Vec<String> {
    let prefix = format!("exo_codegen_{}_", std::process::id());
    let suffix = format!("_{name}");
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&prefix) && n.ends_with(&suffix))
        .collect()
}

#[test]
fn compile_only_requests_leave_no_temp_directory() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // A kernel name no other test uses, so concurrent tests' directories
    // are not counted.
    let name = "compile_only_probe";
    let before = serve_dirs(name);
    let service = KernelService::new(ServeConfig::default());
    for seed in 0..2 {
        let ok = service
            .submit(ServeRequest {
                proc: scal(Precision::Single).with_name(name),
                options: ServeOptions {
                    tier: Tier::CompileOnly,
                    input_seed: seed,
                    ..ServeOptions::default()
                },
                ..interp_request(seed)
            })
            .wait_timeout(WAIT)
            .expect("request hung")
            .result
            .expect("compile-only request serves");
        assert_eq!(ok.tier, Tier::CompileOnly);
    }
    assert_eq!(service.stats().computed, 2, "both requests compiled");
    assert_eq!(serve_dirs(name), before, "compile-only left its directory");
}

/// A native-run response for a fixed request and seed: the dump's values
/// are hashed bit for bit, in order, so any change to the run-and-parse
/// path shows up in these checksums.
#[test]
fn native_run_checksums_are_pinned() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let service = KernelService::new(ServeConfig::default());
    let request = |tier| ServeRequest {
        options: ServeOptions {
            tier,
            input_seed: 11,
            ..ServeOptions::default()
        },
        ..interp_request(11)
    };
    let native = service
        .submit(request(Tier::NativeRun))
        .wait_timeout(WAIT)
        .expect("request hung")
        .result
        .expect("native run serves");
    assert_eq!(native.tier, Tier::NativeRun, "{:?}", native.degraded);
    let exec = native.exec.expect("a native run has values");
    assert_eq!((exec.elems, exec.checksum), (65, 0x85c0_1d57_c0e7_2825));
    assert_eq!(exo_serve::response_checksum(&native), 0x7960_95a4_5d40_6444);
    // The interpreter computes the same values, so the same checksum.
    let interp = service
        .submit(request(Tier::Interp))
        .wait_timeout(WAIT)
        .expect("request hung")
        .result
        .expect("interp serves");
    assert_eq!(interp.exec, Some(exec));
}

//! The service compiles through the shared guarded compile, so its
//! native-run misses reuse one precompiled prelude, and a cached
//! response's trace is shared rather than copied. Kept in a test binary
//! of its own so no other test's compiles land in the traced session.

use exo_kernels::{scal, Precision};
use exo_lib::ScheduleScript;
use exo_machine::MachineKind;
use exo_serve::{CacheStatus, KernelService, ServeConfig, ServeOptions, ServeRequest, Tier};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn request(tier: Tier, seed: u64) -> ServeRequest {
    ServeRequest {
        proc: scal(Precision::Single),
        script: ScheduleScript::new(vec![]),
        target: MachineKind::Avx2,
        options: ServeOptions {
            tier,
            input_seed: seed,
            ..ServeOptions::default()
        },
    }
}

/// Whether `cc` is GCC, the one compiler the prelude cache serves.
fn cc_is_gcc() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .is_ok_and(|out| {
            let version = String::from_utf8_lossy(&out.stdout);
            version.contains("Free Software Foundation") && !version.contains("clang")
        })
}

#[test]
fn native_run_misses_share_one_precompiled_prelude() {
    if !exo_codegen::difftest::cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let service = KernelService::new(ServeConfig::default());
    let session = exo_obs::session();
    for seed in [1, 2] {
        let d = service
            .submit(request(Tier::NativeRun, seed))
            .wait_timeout(WAIT)
            .expect("request hung");
        assert_eq!(d.cache, CacheStatus::Miss);
        let ok = d.result.expect("native run serves");
        assert_eq!(ok.tier, Tier::NativeRun, "{:?}", ok.degraded);
    }
    let trace = session.finish();
    let builds = trace.spans().filter(|s| s.name == "difftest:pch").count();
    assert!(builds <= 1, "{builds} prelude builds for one flag set");
    let compiles = trace
        .spans()
        .filter(|s| s.name == "difftest:compile")
        .count();
    assert_eq!(compiles, 2, "each miss compiles through the shared path");
    if cc_is_gcc() {
        let fallbacks: Vec<_> = trace
            .events()
            .filter(|e| e.name == "difftest:pch-fallback")
            .map(|e| e.detail.clone())
            .collect();
        assert!(
            fallbacks.is_empty(),
            "compiled without the cache: {fallbacks:?}"
        );
    }
}

#[test]
fn a_hit_shares_the_miss_trace() {
    let service = KernelService::new(ServeConfig::default());
    let serve = || {
        service
            .submit(request(Tier::Interp, 7))
            .wait_timeout(WAIT)
            .expect("request hung")
    };
    let miss = serve();
    let hit = serve();
    assert_eq!(
        (miss.cache, hit.cache),
        (CacheStatus::Miss, CacheStatus::Hit)
    );
    let (miss, hit) = (miss.result.expect("serves"), hit.result.expect("serves"));
    assert!(!miss.trace.steps.is_empty());
    assert!(Arc::ptr_eq(&miss.trace.steps, &hit.trace.steps));
    // Keeping a copy of the trace takes a reference, not the steps.
    let kept = hit.trace.clone();
    assert!(Arc::ptr_eq(&kept.steps, &miss.trace.steps));
}

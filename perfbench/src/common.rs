//! Shared pieces of the benchmark: the seeded generator, order
//! statistics, the outcome every workload returns, and the per-layer
//! ledger built from an `exo_obs` trace.

use exo_obs::trace::{SpanRecord, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Run parameters every workload receives.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Thread count for every pool the benchmark sets: the host's
    /// `available_parallelism`.
    pub threads: usize,
    /// Directory for traces, per-program rows and temporary files.
    pub out_dir: std::path::PathBuf,
}

/// A workload builds its set-up state at least this many times...
pub const SETUP_REPEATS: usize = 3;
/// ...and more while they total under this many seconds...
pub const SETUP_BUDGET_S: f64 = 1.0;
/// ...up to this many.
pub const SETUP_MAX: usize = 100;

/// splitmix64: small, seedable, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile of unsorted values (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUP_REPEATS`] times and more while the set-ups so
/// far total under [`SETUP_BUDGET_S`], keeping the last state, and
/// returns it with the median set-up time in seconds, so a set-up of
/// milliseconds is the median of many.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPEATS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX)
    {
        // The previous state is dropped before the next build, so each
        // set-up starts from the same memory state.
        drop(state.take());
        let t0 = Instant::now();
        let s = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    let state = state.expect("set up at least once");
    Ok((state, median(&times)))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a, for comparing outputs across passes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (kernels compiled, calls batches, tune
    /// tasks, requests), checks included.
    pub attempted: u64,
    /// Failed operations; each failure is also described in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metrics, in print order: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn line(&mut self, s: String) {
        self.report.push(s);
    }
}

/// Aggregate of one span name over a trace.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans on the same thread.
    pub self_ns: u64,
}

/// The per-layer ledger: span aggregates keyed by span name, plus the
/// wall time the spans were collected over.
#[derive(Default, Debug)]
pub struct Ledger {
    pub spans: BTreeMap<&'static str, SpanAgg>,
    /// `guard:run` spans whose program is `cc`, counted apart from the
    /// kernel binaries the guard also supervises.
    pub cc: SpanAgg,
    pub timeouts: u64,
}

impl Ledger {
    /// Folds one drained trace into the ledger. Spans nest per thread,
    /// so a stack over start-sorted spans finds each span's parent.
    pub fn add(&mut self, trace: &Trace) {
        let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in trace.spans() {
            by_tid.entry(s.tid).or_default().push(s);
        }
        for spans in by_tid.values_mut() {
            spans.sort_by(|a, b| {
                a.start_ns
                    .cmp(&b.start_ns)
                    .then(a.depth.cmp(&b.depth))
                    .then(b.end_ns.cmp(&a.end_ns))
            });
            let mut child_ns = vec![0u64; spans.len()];
            let mut stack: Vec<usize> = Vec::new();
            for (i, s) in spans.iter().enumerate() {
                while let Some(&top) = stack.last() {
                    if spans[top].end_ns <= s.start_ns || spans[top].depth >= s.depth {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&parent) = stack.last() {
                    child_ns[parent] += s.end_ns.saturating_sub(s.start_ns);
                }
                stack.push(i);
            }
            for (s, child) in spans.iter().zip(child_ns) {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                let agg = self.spans.entry(s.name).or_default();
                agg.count += 1;
                agg.total_ns += dur;
                agg.self_ns += dur.saturating_sub(child);
                if s.name == "guard:run" && s.attr.as_deref() == Some("cc") {
                    self.cc.count += 1;
                    self.cc.total_ns += dur;
                }
            }
        }
        self.timeouts += trace.events().filter(|e| e.name == "guard:timeout").count() as u64;
    }

    pub fn get(&self, name: &str) -> SpanAgg {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Self time per layer, the layer being the span name's prefix
    /// before `:`, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, agg) in &self.spans {
            let layer = name.split(':').next().unwrap_or(name);
            *out.entry(layer).or_default() += agg.self_ns;
        }
        out
    }

    /// Renders the ledger: layer self times with their share of `wall`,
    /// then every span name.
    pub fn table(&self, wall_ns: u64) -> Vec<String> {
        let mut lines = vec![format!(
            "  {:<28} {:>10} {:>12} {:>12} {:>7}",
            "layer / span", "count", "total_ms", "self_ms", "self%"
        )];
        let mut layers: Vec<(&str, u64)> = self.layer_self_ns().into_iter().collect();
        layers.sort_by_key(|l| std::cmp::Reverse(l.1));
        for (layer, ns) in layers {
            lines.push(format!(
                "  {:<28} {:>10} {:>12} {:>12.1} {:>6.1}%",
                format!("[{layer}]"),
                "",
                "",
                ns as f64 / 1e6,
                100.0 * ns as f64 / wall_ns.max(1) as f64
            ));
        }
        for (name, agg) in &self.spans {
            lines.push(format!(
                "  {:<28} {:>10} {:>12.1} {:>12.1} {:>6.1}%",
                name,
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6,
                100.0 * agg.self_ns as f64 / wall_ns.max(1) as f64
            ));
        }
        lines
    }
}

/// Writes a Chrome trace (`chrome://tracing`, Perfetto) of `trace`.
pub fn write_chrome_trace(cfg: &RunCfg, workload: &str, trace: &Trace) -> Result<String, String> {
    let path = cfg
        .out_dir
        .join(format!("{workload}-seed{}.trace.json", cfg.seed));
    std::fs::write(&path, exo_obs::chrome_trace(trace))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Percent by which `traced` exceeds `untraced` (both per unit of work).
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * (traced / untraced - 1.0)
}

/// The guard layer's counters from a ledger, divided by `per` (passes).
pub fn guard_metrics(ledger: &Ledger, out: &mut Outcome, per: f64) {
    let runs = ledger
        .get("guard:run")
        .count
        .saturating_sub(ledger.cc.count);
    out.metric("guard.cc_calls", ledger.cc.count as f64 / per, "count");
    out.metric("guard.cc_s", ledger.cc.total_ns as f64 / 1e9 / per, "s");
    out.metric("guard.run_calls", runs as f64 / per, "count");
    out.metric("guard.timeouts", ledger.timeouts as f64 / per, "count");
}

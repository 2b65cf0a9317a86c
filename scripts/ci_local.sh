#!/usr/bin/env bash
# Runs the job list of .github/workflows/ci.yml locally, in the same
# order: fmt, clippy, the panic-free guard, the release build, the
# workspace tests, the eight smoke gates and `cargo bench --no-run`.
# Stops at the first failing step and names it. Prints each step's wall
# time as it ends and a per-step table at the close, so a step that gets
# slower (most are bound by `cc`) shows up there.
#
#   bash scripts/ci_local.sh
set -uo pipefail
cd "$(dirname "$0")/.."
export RUSTFLAGS="-D warnings"

STEPS=(
  "cargo fmt|cargo fmt --all --check"
  "cargo clippy|cargo clippy --workspace --all-targets -- -D warnings"
  "panic-free library guard|bash scripts/check_no_panics.sh"
  "cargo build --release|cargo build --release --workspace"
  "cargo test|cargo test -q --workspace"
  "interp smoke|cargo run --release -p exo-bench --bin interp_bench -- --smoke"
  "sched smoke|cargo run --release -p exo-bench --bin sched_bench -- --smoke"
  "codegen smoke|cargo run --release -p exo-bench --bin codegen_bench -- --smoke"
  "codegen-runtime smoke|cargo run --release -p exo-bench --bin codegen_runtime_bench -- --smoke"
  "verify smoke|cargo run --release -p exo-bench --bin verify_bench -- --smoke"
  "autotune smoke|cargo run --release -p exo-bench --bin tune_bench -- --smoke"
  "serve smoke|timeout 600 cargo run --release -p exo-bench --bin serve_bench -- --smoke"
  "obs smoke|cargo run --release -p exo-bench --bin obs_bench -- --smoke"
  "cargo bench --no-run|cargo bench --no-run --workspace"
)

# Prints the wall time of every step run so far, one line each.
TIMES=()
table() {
  printf '%-26s %9s\n' "step" "wall s"
  for row in "${TIMES[@]}"; do
    printf '%-26s %9s\n' "${row%%|*}" "${row#*|}"
  done
}

for step in "${STEPS[@]}"; do
  name="${step%%|*}"
  cmd="${step#*|}"
  echo "==> ${name}: ${cmd}"
  start=$(date +%s.%N)
  bash -c "${cmd}"
  status=$?
  secs=$(awk -v a="${start}" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
  TIMES+=("${name}|${secs}")
  echo "<== ${name}: ${secs} s"
  if [ "${status}" -ne 0 ]; then
    table
    echo "ci_local: FAILED at step '${name}'" >&2
    exit 1
  fi
done
table
echo "ci_local: all ${#STEPS[@]} steps passed"

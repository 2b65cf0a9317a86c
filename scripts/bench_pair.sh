#!/usr/bin/env bash
# Compares two perfbench binaries on one workload, in interleaved pairs.
#
#   bash scripts/bench_pair.sh <parent-bin> <change-bin> <workload> [pairs] [seconds]
#
# Pair i runs both binaries with `--seed i --seconds <seconds>`
# (defaults: 10 pairs, 20 s), the parent first in odd pairs and the
# change first in even ones. Each binary runs in a working directory of
# its own, kept across its pairs, the way a checkout would be.
#
# The script parses the JSON on the last line of every run. For each
# end-to-end metric of BENCHMARK.json it prints both medians, their
# ratio (change / parent), the pairs the change won, the spread of the
# parent's runs (interquartile range), and whether the ratio stays
# inside the metric's bound. It exits non-zero when one does not.
#
# It only reads BENCHMARK.json and only runs the two binaries; each
# run's output is kept as <workdir>/<side>/run-<side>-<seed>.log. Build
# a binary with
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
# and copy perfbench/target/release/exo-perfbench out of the checkout.
set -euo pipefail

if [ "$#" -lt 3 ]; then
  sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_bin=$(realpath "$1")
change_bin=$(realpath "$2")
workload=$3
pairs=${4:-10}
seconds=${5:-20}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
mkdir -p "${work}/parent" "${work}/change"
echo "bench_pair: ${workload}, ${pairs} pairs of ${seconds} s, order alternating; logs in ${work}"

results="${work}/results.jsonl"
: > "${results}"
for seed in $(seq 1 "${pairs}"); do
  order="parent change"
  [ $((seed % 2)) -eq 0 ] && order="change parent"
  for side in ${order}; do
    bin=${parent_bin}
    [ "${side}" = change ] && bin=${change_bin}
    log="${work}/${side}/run-${side}-${seed}.log"
    (cd "${work}/${side}" && "${bin}" --workload "${workload}" --seed "${seed}" \
      --seconds "${seconds}" --trace 0 > "${log}" 2>&1) || true
    printf '{"side": "%s", "seed": %s, "result": %s}\n' "${side}" "${seed}" \
      "$(tail -n 1 "${log}" | grep '^{' || echo null)" >> "${results}"
    echo "  pair ${seed}: ${side} done"
  done
done

python3 - "${root}/BENCHMARK.json" "${results}" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
missing = [(r["side"], r["seed"]) for r in runs if r["result"] is None]
if missing:
    print(f"runs without a result line: {missing}")

def values(side, name):
    return [r["result"]["metrics"][name]["value"]
            for r in runs
            if r["side"] == side and r["result"] is not None
            and r["result"]["metrics"].get(name, {}).get("value") is not None]

def wins(name, better):
    pairs = {}
    for r in runs:
        if r["result"] is not None and name in r["result"]["metrics"]:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
    won = [p for p in pairs.values() if len(p) == 2 and p["change"] is not None
           and p["parent"] is not None
           and (p["change"] < p["parent"] if better == "lower" else p["change"] > p["parent"])]
    return len(won), len(pairs)

print(f"{'metric':<16} {'parent':>12} {'change':>12} {'ratio':>8} {'bound':>7} {'wins':>6} {'p-IQR':>10}  verdict")
worse = 0
for m in bench["end_to_end"]:
    name, bound, better = m["name"], m["bound"], m["better"]
    p, c = values("parent", name), values("change", name)
    if not p or not c:
        print(f"{name:<16} {'-':>12} {'-':>12} {'-':>8} {bound:>7} {'-':>6} {'-':>10}  not reported")
        continue
    pm, cm = statistics.median(p), statistics.median(c)
    ratio = cm / pm if pm else float("inf") if cm else 1.0
    inside = ratio <= 1 + bound if better == "lower" else ratio >= 1 - bound
    worse += not inside
    verdict = "inside" if inside else "WORSE"
    won, of = wins(name, better)
    q = statistics.quantiles(p, n=4) if len(p) > 1 else [p[0]] * 3
    print(f"{name:<16} {pm:>12.4f} {cm:>12.4f} {ratio:>8.3f} {bound:>7} "
          f"{f'{won}/{of}':>6} {q[2] - q[0]:>10.4f}  {verdict}")
sys.exit(1 if worse else 0)
EOF

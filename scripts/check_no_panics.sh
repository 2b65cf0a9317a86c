#!/usr/bin/env bash
# Guards the bugfix contract of the cursors / ir::expr / machine::isa
# library code — and the whole exo-codegen, exo-autotune, exo-analysis,
# exo-guard, exo-serve and exo-obs crates — no
# panic!/unreachable!/todo!/unwrap()/expect()
# on any reachable library path. Only the library portion of each file is scanned (everything
# before its `#[cfg(test)]` module); doc-comment and comment lines are
# ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

# Crates guarded only in part: their files are listed one by one.
FILES=(
  crates/cursors/src/cursor.rs
  crates/cursors/src/find.rs
  crates/cursors/src/rewrite.rs
  crates/cursors/src/version.rs
  crates/cursors/src/error.rs
  crates/cursors/src/lib.rs
  crates/ir/src/expr.rs
  crates/machine/src/isa.rs
  crates/machine/src/hostcaps.rs
  crates/lib/src/record.rs
)
# Crates guarded as a whole: every source file, so a new or moved module
# is covered without being listed.
shopt -s globstar nullglob
for crate in codegen autotune analysis guard serve obs; do
  FILES+=(crates/"${crate}"/src/**/*.rs)
done

status=0
for f in "${FILES[@]}"; do
  hits=$(awk '
    # Skip the brace-balanced span of any #[cfg(test)] mod (tolerating
    # further attribute lines between the cfg and the mod keyword), and
    # scan everything else — library code before OR after a test module
    # stays guarded, and test code never raises false positives.
    in_test {
      opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
      depth += opens - closes
      if (depth <= 0) in_test = 0
      next
    }
    saw_cfg {
      if ($0 ~ /^[[:space:]]*#\[/) next
      if ($0 ~ /^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]]/) {
        saw_cfg = 0
        opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
        depth = opens - closes
        if (depth > 0) in_test = 1
        next
      }
      saw_cfg = 0
    }
    /#\[cfg\(test\)\]/ { saw_cfg = 1; next }
    /^[[:space:]]*\/\// { next }
    /panic!|unreachable!|todo!|unimplemented!|\.unwrap\(\)|\.expect\(/ {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  ' "$f")
  if [ -n "$hits" ]; then
    echo "$hits"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "error: panicking constructs found on library paths (see above)" >&2
  exit 1
fi
echo "ok: no panic!/unwrap/expect on library paths in cursors, ir::expr, machine::isa, codegen, autotune, lib::record, analysis, guard, serve, obs"

#!/usr/bin/env bash
# Kernel mutation gate: applies each mutation below to a scratch copy of
# the workspace and requires horizon-uarch's tests to fail on it. A
# mutation that survives is a rule of the fleet kernel that no test can
# see break.
#
# Usage: scripts/mutants.sh
#
# Each entry is NAME@@FILE@@PATTERN@@REPLACEMENT. PATTERN must occur
# exactly once in FILE (relative to the workspace root) and is replaced
# literally. Each run of whitespace in PATTERN matches any run of
# whitespace in FILE, so a one-line PATTERN can name a block that rustfmt
# spreads over several lines. The unmutated copy must pass the same tests
# first. Exits 0 only when the baseline passes and every mutation is
# killed; prints the failing tests of each mutation.
set -euo pipefail

MUTATIONS=(
  # FleetState::run_batch, cache back lanes: an instruction's fetch miss
  # reaches the shared L2 before its data access.
  "cache-merge-order@@crates/uarch/src/fleet.rs@@if fpos <= dpos {@@if fpos < dpos {"
  # FleetState::run_batch, TLB back lanes: an instruction's I-side refill
  # reaches the L2 TLB before its D-side refill.
  "tlb-merge-order@@crates/uarch/src/fleet.rs@@if ipos <= dpos {@@if ipos < dpos {"
  # FleetState::prewarm walks every code span, kernel code included.
  "prewarm-kernel-code@@crates/uarch/src/fleet.rs@@for span in code {@@for span in code.into_iter().take(1) {"
  # FleetState::prewarm walks every data span and the hot-code span.
  "prewarm-first-data-span@@crates/uarch/src/fleet.rs@@for span in data {@@for span in data.into_iter().skip(1) {"
  "prewarm-hot-code-span@@crates/uarch/src/fleet.rs@@for span in code {@@for span in code.into_iter().skip(1) {"
  # Repeat granules (FleetState::step, prewarm_fetch, prewarm_data): a
  # probe is skipped only on the smallest line or page among the fleet's
  # structures of its kind, never on a wider one.
  "step-fetch-line@@crates/uarch/src/fleet.rs@@pc >> self.l1i_min_shift@@pc >> (self.l1i_min_shift + 1)"
  "step-fetch-page@@crates/uarch/src/fleet.rs@@pc >> self.itlb_min_shift@@pc >> (self.itlb_min_shift + 1)"
  "step-data-page@@crates/uarch/src/fleet.rs@@let data_page = addr >> self.dtlb_min_shift;@@let data_page = addr >> (self.dtlb_min_shift + 1);"
  "prewarm-fetch-line@@crates/uarch/src/fleet.rs@@addr >> self.l1i_min_shift@@addr >> (self.l1i_min_shift + 1)"
  "prewarm-fetch-page@@crates/uarch/src/fleet.rs@@addr >> self.itlb_min_shift@@addr >> (self.itlb_min_shift + 1)"
  "prewarm-data-page@@crates/uarch/src/fleet.rs@@let page = addr >> self.dtlb_min_shift;@@let page = addr >> (self.dtlb_min_shift + 1);"
  # FleetState::run_batch, cache back lanes: a data event's prefetch
  # install reaches the shared L2 before its demand refill.
  "cache-install-order@@crates/uarch/src/fleet.rs@@if flags & INSTALL != 0 { lane.back.install_shared(line); } if flags & DATA_MISS != 0 { lane.back.demand_data(addr); }@@if flags & DATA_MISS != 0 { lane.back.demand_data(addr); } if flags & INSTALL != 0 { lane.back.install_shared(line); }"
)

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/horizon-mutants.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
# One target dir for every run, so only the mutated crates rebuild.
export CARGO_TARGET_DIR="$WORK/target"
TEST=(cargo test --release --offline -q --no-fail-fast -p horizon-uarch)

# Splits a NAME@@FILE@@PATTERN@@REPLACEMENT entry into four variables.
parse() {
  local rest="$1"
  name="${rest%%@@*}"; rest="${rest#*@@}"
  file="${rest%%@@*}"; rest="${rest#*@@}"
  pattern="${rest%%@@*}"
  replacement="${rest#*@@}"
}

# Copies the workspace to $WORK/ws without build output or git history.
# tar keeps modification times, so unmutated crates stay fresh in the
# shared target dir; every file that any mutation edits is touched, so
# no run can reuse another mutation's build of it.
copy_workspace() {
  rm -rf "$WORK/ws"
  mkdir "$WORK/ws"
  tar -C "$ROOT" --exclude=./target --exclude=./.git --exclude=./.bench_build \
    --exclude=./.ladder-work --exclude=./examples/ladder/target -cf - . |
    tar -C "$WORK/ws" -xf -
  local entry name file pattern replacement
  for entry in "${MUTATIONS[@]}"; do
    parse "$entry"
    touch "$WORK/ws/$file"
  done
}

# Replaces PATTERN in FILE, failing unless it occurs exactly once.
mutate() {
  python3 - "$WORK/ws/$file" "$pattern" "$replacement" <<'EOF'
import re
import sys

path, pattern, replacement = sys.argv[1:]
with open(path) as f:
    text = f.read()
matches = list(re.finditer(r"\s+".join(map(re.escape, pattern.split())), text))
if len(matches) != 1:
    sys.exit(f"mutants: {pattern!r} occurs {len(matches)} times in {path}; expected exactly once")
start, end = matches[0].span()
with open(path, "w") as f:
    f.write(text[:start] + replacement + text[end:])
EOF
}

echo "baseline: unmutated workspace"
copy_workspace
if ! (cd "$WORK/ws" && "${TEST[@]}") > "$WORK/baseline.log" 2>&1; then
  cat "$WORK/baseline.log"
  echo "mutants: the unmutated workspace fails its tests; no mutation can be judged" >&2
  exit 1
fi

bad=0
for entry in "${MUTATIONS[@]}"; do
  parse "$entry"
  copy_workspace
  mutate
  log="$WORK/$name.log"
  if (cd "$WORK/ws" && "${TEST[@]}") > "$log" 2>&1; then
    echo "SURVIVED $name ($file): every horizon-uarch test passed"
    bad=1
    continue
  fi
  failing="$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u)"
  if [ -z "$failing" ]; then
    cat "$log"
    echo "ERROR    $name ($file): the run failed without a failing test (build error?)"
    bad=1
    continue
  fi
  echo "killed   $name ($file) by:"
  echo "$failing" | sed 's/^/           /'
done
exit "$bad"

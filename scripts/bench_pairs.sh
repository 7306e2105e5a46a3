#!/usr/bin/env bash
# Runs the repository benchmark on two revisions in alternating pairs.
#
#   scripts/bench_pairs.sh PARENT CHANGE WORKLOAD[,WORKLOAD...] SEED...
#
# Each revision is exported with `git archive` into a fresh directory of
# its own (`parent` and `change` under one new work directory, so the two
# paths have equal length), built once with its BENCHMARK.json `command`,
# and then run once per workload and seed for `run_seconds`. The side
# that runs first alternates from pair to pair. The script prints:
#
#   - each build's `core::str::converts::from_utf8` address and its value
#     mod 64 (at 0 mod 64 the wire workloads run much slower with
#     unchanged code; see ROADMAP.md, "Measurement noise");
#   - every pair's end-to-end metrics, with `failed`/`attempted`;
#   - each side's median and quartiles per metric.
#
# It reads only BENCHMARK.json and perfbench/ from the checkouts. Each
# run's whole output, `#` lines included, stays in the work directory
# (under $TMPDIR, default /tmp) as logs/<workload>-<side>-<seed>.out.
set -euo pipefail

if [ $# -lt 4 ]; then
  echo "usage: $0 PARENT CHANGE WORKLOAD[,WORKLOAD...] SEED..." >&2
  exit 2
fi
parent_rev=$1
change_rev=$2
IFS=, read -ra workloads <<<"$3"
shift 3
seeds=("$@")

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
mkdir -p "$work/logs"
# Each checkout builds into its own perfbench/target.
unset CARGO_TARGET_DIR
echo "# work directory: $work"

# `field SIDE EXPR` prints a Python expression over the side's
# BENCHMARK.json (bound to `b`), one line per item when it is a list.
field() {
  python3 - "$work/$1/BENCHMARK.json" "$2" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
v = eval(sys.argv[2])
print("\n".join(map(str, v)) if isinstance(v, list) else v)
EOF
}

for side in parent change; do
  rev=${parent_rev}
  [ "$side" = change ] && rev=${change_rev}
  mkdir "$work/$side"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
  mapfile -t cmd < <(field "$side" 'b["command"]')
  # The same command as a build: `cargo run ... --` becomes `cargo build ...`.
  build=()
  for arg in "${cmd[@]}"; do
    [ "$arg" = -- ] && break
    [ "$arg" = run ] && arg=build
    build+=("$arg")
  done
  (cd "$work/$side" && "${build[@]}")
  bin="$work/$side/perfbench/target/release/qft-perfbench"
  addr=$(nm -C "$bin" | awk '$3 == "core::str::converts::from_utf8" { print $1 }')
  echo "# $side $(git -C "$repo" rev-parse --short "$rev"): from_utf8 at 0x$addr ($((16#$addr % 64)) mod 64)"
done

mapfile -t cmd < <(field parent 'b["command"]')
seconds=$(field parent 'b["run_seconds"]')
run() {
  local side=$1 seed=$2 log="$work/logs/$workload-$1-$2"
  if ! (cd "$work/$side" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0) >"$log.out" 2>"$log.err"; then
    echo "# $workload $side seed $seed failed; see $log.err"
  fi
}
for workload in "${workloads[@]}"; do
  for i in "${!seeds[@]}"; do
    seed=${seeds[$i]}
    if [ $((i % 2)) -eq 0 ]; then
      run parent "$seed"
      run change "$seed"
    else
      run change "$seed"
      run parent "$seed"
    fi
    echo "# $workload pair $((i + 1)) done (seed $seed)"
  done
done

for workload in "${workloads[@]}"; do
  python3 - "$work" "$workload" "${seeds[@]}" <<'EOF'
import json, statistics, sys
work, workload, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
names = [m["name"] for m in json.load(open(f"{work}/parent/BENCHMARK.json"))["end_to_end"]]

def result(side, seed):
    try:
        lines = open(f"{work}/logs/{workload}-{side}-{seed}.out").read().splitlines()
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None

runs = {side: [result(side, s) for s in seeds] for side in ("parent", "change")}
shown = [n for n in names if any(r and n in r["metrics"] for rs in runs.values() for r in rs)]
print(f"{workload}: {len(seeds)} pairs, parent / change")
for i, seed in enumerate(seeds):
    first = "parent" if i % 2 == 0 else "change"
    print(f"pair {i + 1}, seed {seed} ({first} first)")
    for side in ("parent", "change"):
        r = runs[side][i]
        if r is None:
            print(f"  {side}: no result line")
        else:
            print(f"  {side}: failed {r['failed']} of {r['attempted']}")
    for n in shown:
        vals = [runs[side][i] and runs[side][i]["metrics"].get(n, {}).get("value") for side in ("parent", "change")]
        print(f"  {n:16} " + " / ".join("-" if v is None else f"{v:g}" for v in vals))

def spread(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q2, q1, q3

print("median [q1, q3]")
for n in shown:
    cells = []
    for side in ("parent", "change"):
        vals = [r["metrics"][n]["value"] for r in runs[side] if r and n in r["metrics"]]
        cells.append("-" if not vals else "{:g} [{:g}, {:g}]".format(*spread(vals)))
    print(f"  {n:16} {cells[0]}  /  {cells[1]}")
EOF
done

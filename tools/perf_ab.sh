#!/usr/bin/env bash
# Pinned A/B wall-clock comparison of perf_driver between two revisions.
#
#   tools/perf_ab.sh BASE NEW [--workload W] [--seed S] [--pairs N]
#                    [--cpu C] [--out DIR] [--json FILE]
#
# BASE and NEW are git revisions; NEW may also be WORKTREE, the working
# tree with its uncommitted changes. Each side is exported into
# DIR/src-<side> and its perf_driver built there with `cmake -S perf`
# (untraced RelWithDebInfo, the benchmark's own settings); nothing is
# written under perf/ or the repository's build directories. It then runs
# N pairs of one pass each of workload W at seed S, alternating which
# side goes first, every run pinned to CPU C with `taskset -c`.
#
# Prints the median and quartiles of run_s, setup_s and peak_rss_mib of
# each side, the NEW/BASE ratio of the medians, and for run_s and setup_s
# how many pairs NEW won and the median and quartiles of the per-pair
# NEW/BASE ratios (run BASE against itself to read the host's spread).
# Last, whether every run of both sides reported the same counts and
# outputs (a pure host-time change must leave them identical).
#
# --json FILE also writes the set as one JSON record for (W, S): both
# revisions (and the commits they resolved to), the host's CPU model and
# vCPU count, the pinned CPU, each pair's run_s, setup_s and peak_rss_mib
# per side and which side ran first, the failed ops per side, whether
# counts and outputs matched, and each count whose first NEW run differs
# from the first BASE run, as [base, new], over the keys either run has
# (null on the side that lacks one). What the script prints is the same
# with or without it.
#
# Defaults: --workload allreduce_hybrid --seed 1 --pairs 10 --cpu 2
#           --out ${TMPDIR:-/tmp}/perf_ab. Not a CI step.
set -euo pipefail

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
  exit 2
}

[[ $# -ge 2 ]] || usage
base_rev=$1
new_rev=$2
shift 2
workload=allreduce_hybrid
seed=1
pairs=10
cpu=2
out=${TMPDIR:-/tmp}/perf_ab
json=
while [[ $# -gt 0 ]]; do
  case $1 in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --cpu) cpu=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --json) json=$2; shift 2 ;;
    *) usage ;;
  esac
done

root=$(git rev-parse --show-toplevel)
mkdir -p "$out"
[[ -z $json ]] || json=$(realpath -m "$json")

# export REV DIR: the tree of REV (or the working tree) into DIR.
export_tree() {
  local rev=$1 dir=$2
  rm -rf "$dir"
  mkdir -p "$dir"
  if [[ $rev == WORKTREE ]]; then
    (cd "$root" && git ls-files -co --exclude-standard -z |
       tar --null -cf - -T -) | tar -xf - -C "$dir"
  else
    git -C "$root" archive "$rev" | tar -xf - -C "$dir"
  fi
}

build_side() {
  local side=$1 rev=$2
  export_tree "$rev" "$out/src-$side"
  cmake -S "$out/src-$side/perf" -B "$out/build-$side" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSTELLAR_TRACE=OFF >/dev/null
  cmake --build "$out/build-$side" --target perf_driver \
    -j"$(nproc)" >/dev/null
  echo "built $side ($rev): $out/build-$side/perf_driver" >&2
}

build_side base "$base_rev"
build_side new "$new_rev"

runs=$out/runs.jsonl
: >"$runs"
for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then order="base new"; else order="new base"; fi
  for side in $order; do
    line=$(taskset -c "$cpu" "$out/build-$side/perf_driver" \
             --workload "$workload" --seed "$seed" --seconds 0.001 | tail -n 1)
    printf '{"pair": %d, "side": "%s", "run": %s}\n' "$i" "$side" "$line" \
      >>"$runs"
  done
done

# commit REV: the commit REV names, or WORKTREE.
commit() {
  if [[ $1 == WORKTREE ]]; then echo WORKTREE; else
    git -C "$root" rev-parse --verify "$1^{commit}"; fi
}

python3 - "$runs" "$base_rev" "$new_rev" "$workload" "$seed" "$json" \
  "$(commit "$base_rev")" "$(commit "$new_rev")" "$cpu" <<'EOF'
import json
import os
import statistics
import sys

(path, base_rev, new_rev, workload, seed, json_path, base_commit,
 new_commit, cpu) = sys.argv[1:]
runs = {"base": {}, "new": {}}
for line in open(path):
    r = json.loads(line)
    runs[r["side"]][r["pair"]] = r["run"]

def quartiles(side, key):
    vals = [r[key] for r in runs[side].values()]
    vals = [v[0] if isinstance(v, list) else v for v in vals]
    return statistics.quantiles(vals, n=4)  # q1, median, q3

print(f"{workload} seed {seed}: {len(runs['base'])} pinned pairs, "
      f"base {base_rev}, new {new_rev}; median (q1-q3)")
for key in ("run_s", "setup_s", "peak_rss_mib"):
    b, n = quartiles("base", key), quartiles("new", key)
    print(f"  {key:13s} base {b[1]:.4g} ({b[0]:.4g}-{b[2]:.4g})  "
          f"new {n[1]:.4g} ({n[0]:.4g}-{n[2]:.4g})  "
          f"new/base {n[1] / b[1]:.3f}")
for key in ("run_s", "setup_s"):
    pairs = [runs["new"][p][key][0] / runs["base"][p][key][0]
             for p in runs["base"]]
    wins = sum(r < 1.0 for r in pairs)
    q = statistics.quantiles(pairs, n=4)
    print(f"  {key:13s} wins {wins}/{len(pairs)}, per-pair new/base "
          f"{q[1]:.3f} ({q[0]:.3f}-{q[2]:.3f})")
ref = runs["base"][0]
same = all(r["counts"] == ref["counts"] and r["outputs"] == ref["outputs"]
           for side in runs.values() for r in side.values())
failed = sum(r["failed"] for side in runs.values() for r in side.values())
print(f"  counts and outputs identical: {'yes' if same else 'NO'}; "
      f"failed ops: {failed}")

if json_path:
    def cpu_model():
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
        return "unknown"

    def first(v):
        return v[0] if isinstance(v, list) else v

    keys = ("run_s", "setup_s", "peak_rss_mib")
    base_counts, new_counts = ref["counts"], runs["new"][0]["counts"]
    record = {
        "workload": workload,
        "seed": int(seed),
        "base": {"rev": base_rev, "commit": base_commit},
        "new": {"rev": new_rev, "commit": new_commit},
        "host": {"cpu_model": cpu_model(), "vcpus": os.cpu_count()},
        "pinned_cpu": int(cpu),
        "pairs": [
            {"pair": p,
             "first": "base" if p % 2 == 0 else "new",
             "base": {k: first(runs["base"][p][k]) for k in keys},
             "new": {k: first(runs["new"][p][k]) for k in keys}}
            for p in sorted(runs["base"])],
        "failed": {side: sum(r["failed"] for r in runs[side].values())
                   for side in ("base", "new")},
        "counts_match": all(r["counts"] == ref["counts"]
                            for side in runs.values()
                            for r in side.values()),
        # Every key either side reports; the side without it reads null.
        "counts_moved": {k: [base_counts.get(k), new_counts.get(k)]
                         for k in {**base_counts, **new_counts}
                         if base_counts.get(k) != new_counts.get(k)},
        "outputs_match": all(r["outputs"] == ref["outputs"]
                             for side in runs.values()
                             for r in side.values()),
    }
    with open(json_path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
sys.exit(0 if same else 1)
EOF

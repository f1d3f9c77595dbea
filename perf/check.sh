#!/usr/bin/env bash
# Self-check of the benchmark (about 2 minutes):
#  * builds both driver variants (tracing compiled out / in);
#  * runs every workload twice per variant at seeds 1 and 2, one pass each;
#  * asserts identical simulated outputs across all four runs, identical
#    deterministic counts across runs (and across variants, apart from the
#    trace-event count), no failed op, and that the goldens match;
#  * asserts every per-layer metric is reported by some workload, and that
#    the metric names run.py prints are exactly the names in BENCHMARK.json.
# Usage: perf/check.sh   (from anywhere; exits non-zero on the first failure)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONDONTWRITEBYTECODE=1

python3 perf/run.py --build-only
out=build-perf/check
rm -rf "$out"
mkdir -p "$out"

for seed in 1 2; do
  for w in permutation_packet allreduce_hybrid allreduce_faults \
           vstellar_translation; do
    for variant in build-perf build-perf-trace; do
      for n in 1 2; do
        "$variant/perf_driver" --workload "$w" --seed "$seed" --seconds 0.001 |
          tail -n 1 > "$out/$w.seed$seed.$variant.$n.json"
      done
    done
  done
done

for trace in 0 1; do
  python3 perf/run.py --workload permutation_packet --seconds 0.001 \
    --trace "$trace" 2>/dev/null | tail -n 1 > "$out/metrics.trace$trace.json"
done

python3 - "$out" <<'EOF'
import glob, json, os, sys
sys.path.insert(0, "perf")
import run

out = sys.argv[1]
errors = []
groups = {}
for path in sorted(glob.glob(os.path.join(out, "*.seed*.json"))):
    workload, seed = os.path.basename(path).split(".")[:2]
    with open(path) as f:
        groups.setdefault((workload, seed), []).append((path, json.load(f)))

for (workload, seed), results in sorted(groups.items()):
    tag = "%s %s" % (workload, seed)
    first = results[0][1]
    for path, r in results:
        if r["outputs"] != first["outputs"]:
            errors.append("%s: simulated outputs differ in %s" % (tag, path))
        if r["failed"] or r["violations"]:
            errors.append("%s: failures in %s: %s" % (tag, path,
                                                      r["violations"]))
        same_variant = [x for p, x in results
                        if p.rsplit(".", 2)[0] == path.rsplit(".", 2)[0]]
        if any(x["counts"] != r["counts"] for x in same_variant):
            errors.append("%s: counts differ between runs of %s"
                          % (tag, path))
        counts = dict(r["counts"], **{"obs.trace_events": 0})
        if counts != dict(first["counts"], **{"obs.trace_events": 0}):
            errors.append("%s: counts differ between variants" % tag)
    bad = run.golden_mismatches(workload, int(seed[len("seed"):]),
                                first["outputs"])
    if bad is None:
        errors.append("%s: no golden" % tag)
    elif bad:
        errors.append("%s: golden mismatch in %s" % (tag, ", ".join(bad)))

reported = {"obs.trace_overhead_pct"}  # computed by run.py, not the driver
for results in groups.values():
    for _, r in results:
        reported |= set(r["counts"]) | set(r["host"])
for name, _ in run.PER_LAYER:
    if name not in reported:
        errors.append("%s: no workload reports it" % name)

with open("BENCHMARK.json") as f:
    bench = json.load(f)
for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
    with open(os.path.join(out, "metrics.trace%s.json" % trace)) as f:
        printed = json.load(f)["metrics"]
    declared = {m["name"]: m["unit"] for m in bench[key]}
    if set(printed) != set(declared):
        errors.append("%s: printed %s, BENCHMARK.json declares %s" % (
            key, sorted(set(printed) - set(declared)),
            sorted(set(declared) - set(printed))))
    for name, m in printed.items():
        if name in declared and m["unit"] != declared[name]:
            errors.append("%s: unit %s printed, %s declared"
                          % (name, m["unit"], declared[name]))

for e in errors:
    print("FAIL " + e)
print("perf/check.sh: %d groups checked, %s"
      % (len(groups), "all OK" if not errors else "%d FAILURES" % len(errors)))
sys.exit(1 if errors else 0)
EOF

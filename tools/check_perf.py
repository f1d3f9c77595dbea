#!/usr/bin/env python3
"""Check the committed count ledger (LEDGER.json) against fresh perf passes.

    python3 tools/check_perf.py            # exit 1 if any ledger value moved
    python3 tools/check_perf.py --update   # rewrite LEDGER.json

For every perf/ workload at seeds 1 and 2 this runs one traced pass,

    python3 perf/run.py --workload W --seed S --seconds 0.001 --trace 1

and keeps each metric it prints with a deterministic unit (count, ratio,
bytes, KiB). Host-time metrics (s, ns, us, %) are left out: they differ
run to run. A check lists every (workload, seed, metric) whose value
differs from the ledger, with both values. A change that moves a count
updates the ledger in the same commit (--update) and names the moved
counts in CHANGES.md (docs/PERF.md, "Count ledger").
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "LEDGER.json")
RUN_PY = os.path.join(ROOT, "perf", "run.py")

WORKLOADS = ["permutation_packet", "allreduce_hybrid", "allreduce_faults",
             "vstellar_translation"]
SEEDS = [1, 2]
UNITS = ["count", "ratio", "bytes", "KiB"]
PASS_ARGS = ["--seconds", "0.001", "--trace", "1"]


def measure(workload, seed):
    """The deterministic metrics of one traced pass, in printed order."""
    cmd = [sys.executable, RUN_PY, "--workload", workload,
           "--seed", str(seed)] + PASS_ARGS
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("check_perf: %s exited with %d"
                 % (" ".join(cmd[1:]), proc.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit("check_perf: %s seed %d failed its goldens"
                 % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in UNITS}


def measured_at():
    """Short HEAD hash, marked when src/ or perf/ differ from it."""
    def git(*args):
        return subprocess.run(["git"] + list(args), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
    head = git("rev-parse", "--short", "HEAD").stdout.strip() or "unknown"
    if git("diff", "--quiet", "HEAD", "--", "src", "perf").returncode != 0:
        head += "+worktree"
    return head


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="rewrite LEDGER.json from this run")
    args = ap.parse_args()

    rows = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            print("check_perf: %s seed %d" % (workload, seed), flush=True)
            rows.append({"workload": workload, "seed": seed,
                         "metrics": measure(workload, seed)})

    if args.update:
        ledger = {
            "command": " ".join(["python3 perf/run.py --workload W --seed S"]
                                + PASS_ARGS),
            "units": UNITS,
            "measured_at": measured_at(),
            "rows": rows,
        }
        with open(LEDGER, "w") as f:
            json.dump(ledger, f, indent=1)
            f.write("\n")
        print("check_perf: wrote %s (%d rows)" % (LEDGER, len(rows)))
        return 0

    with open(LEDGER) as f:
        ledger = json.load(f)
    want = {(r["workload"], r["seed"]): r["metrics"] for r in ledger["rows"]}
    moved = []
    for row in rows:
        key = (row["workload"], row["seed"])
        old = want.pop(key, {})
        for name in sorted(set(old) | set(row["metrics"])):
            if old.get(name) != row["metrics"].get(name):
                moved.append(key + (name, old.get(name),
                                    row["metrics"].get(name)))
    for workload, seed in sorted(want):
        moved.append((workload, seed, "(row not measured)", "present", None))
    if moved:
        print("check_perf: %d ledger values moved (ledger measured at %s):"
              % (len(moved), ledger.get("measured_at", "?")))
        print("  %-22s %4s  %-28s %16s %16s"
              % ("workload", "seed", "metric", "ledger", "now"))
        for workload, seed, name, old, new in moved:
            print("  %-22s %4d  %-28s %16s %16s"
                  % (workload, seed, name, old, new))
        print("check_perf: rerun with --update if the change is intended, "
              "and name the moved counts in CHANGES.md")
        return 1
    print("check_perf: all %d rows match LEDGER.json" % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perf/run.py                      # every workload, tracing off
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --workload NAME --repeat 5   # median + quartiles
    python3 perf/run.py --trace              # per-layer metrics too

Builds perf/driver.cc against src/ into build-perf/ (tracing compiled out)
and build-perf-trace/ (-DSTELLAR_TRACE=ON), runs each workload in its own
driver process, checks the simulated outputs against perf/golden/, and
prints every metric by name with its unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, measured with tracing
compiled out. With --trace 1 half of the time budget runs the untraced
build and half the traced one; the metrics are the per-layer ones, taken
from the traced run, plus the tracing overhead between the two.
perf/README.md explains every metric and workload.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
GOLDEN_DIR = os.path.join(PERF_DIR, "golden")
BUILDS = {False: os.path.join(ROOT, "build-perf"),
          True: os.path.join(ROOT, "build-perf-trace")}

WORKLOADS = ["permutation_packet", "allreduce_hybrid", "allreduce_faults",
             "vstellar_translation"]
# Simulated outputs that go through the fluid model may drift by this share
# per value; packet and translation outputs must match exactly.
GOLDEN_TOLERANCE = {"allreduce_hybrid": 0.01}

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]

# (name, unit). A metric of a layer the workload never touches reads 0;
# perf/check.sh asserts every one is reported by at least one workload.
PER_LAYER = [
    ("sim.events", "count"), ("sim.ns_per_event", "ns"),
    ("sim.pool_capacity", "count"), ("sim.pending_max", "count"),
    ("net.fabric_build_s", "s"), ("net.link_packets", "count"),
    ("net.delivered_packets", "count"), ("net.drops", "count"),
    ("net.max_queue_kib", "KiB"),
    ("rnic.connect_s", "s"), ("rnic.packets_sent", "count"),
    ("rnic.messages_completed", "count"), ("rnic.retransmits", "count"),
    ("rnic.timeouts", "count"), ("rnic.retx_ratio", "ratio"),
    ("rnic.goodput_ratio", "ratio"), ("rnic.rx_ooo_packets", "count"),
    ("rnic.rx_duplicates", "count"), ("rnic.probes_sent", "count"),
    ("rnic.paths_reinstated", "count"),
    ("hybrid.build_s", "s"), ("hybrid.fluid_completions", "count"),
    ("hybrid.fluid_bytes", "bytes"), ("hybrid.transitions", "count"),
    ("hybrid.absorbed_packets", "count"), ("hybrid.fluid_time_share", "ratio"),
    ("hybrid.fluid_host_s", "s"), ("hybrid.us_per_fluid_completion", "us"),
    ("collective.build_s", "s"), ("collective.allreduces", "count"),
    ("fault.arm_s", "s"), ("fault.injected", "count"),
    ("virt.boot_s", "s"), ("virt.device_create_s", "s"),
    ("virt.register_ops", "count"),
    ("virt.register_us_p50", "us"), ("virt.register_us_p99", "us"),
    ("virt.register_us_samples", "count"),
    ("virt.deregister_us_p50", "us"), ("virt.deregister_us_p99", "us"),
    ("virt.deregister_us_samples", "count"),
    ("pvdma.map_cache_hit_ratio", "ratio"),
    ("pvdma.blocks_registered", "count"),
    ("memory.iotlb_hit_ratio", "ratio"), ("memory.page_walks", "count"),
    ("pcie.atc_hit_ratio", "ratio"),
    ("gdr.emtt_write_us_p50", "us"), ("gdr.emtt_write_us_p99", "us"),
    ("gdr.emtt_write_us_samples", "count"),
    ("gdr.ats_transfer_us_p50", "us"), ("gdr.ats_transfer_us_p99", "us"),
    ("gdr.ats_transfer_us_samples", "count"), ("gdr.ns_per_page", "ns"),
    ("obs.trace_overhead_pct", "%"), ("obs.trace_events", "count"),
]

# The driver processes of one run must end well inside the 180 s a
# benchmark run gets.
PROCESS_DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- Build --------------------------------------------------------------------

def build(traced):
    """Configure (once) and build one driver variant; return its path."""
    build_dir = BUILDS[traced]
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", PERF_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   "-DSTELLAR_TRACE=" + ("ON" if traced else "OFF")]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            try:
                run_build_step(cmd)
            except BenchError:
                # A half-configured tree would skip configuring next time.
                shutil.rmtree(build_dir, ignore_errors=True)
                raise
        jobs = str(min(4, os.cpu_count() or 1))
        run_build_step(["cmake", "--build", build_dir, "--target",
                        "perf_driver", "-j", jobs])
    return os.path.join(build_dir, "perf_driver")


def run_build_step(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError("build failed: " + " ".join(cmd))


def build_all():
    """Both variants, so a later traced run never pays for a build."""
    return {traced: build(traced) for traced in (False, True)}


# -- Running the driver ---------------------------------------------------------

def run_driver(binary, workload, seed, seconds, trace_dir, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %.0f s" % (workload, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("driver exited with %d on %s"
                         % (proc.returncode, workload))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing for " + workload)
    return json.loads(lines[-1])


# -- Checking outputs -----------------------------------------------------------

def golden_path(workload, seed):
    return os.path.join(GOLDEN_DIR, "%s.seed%d.json" % (workload, seed))


def value_matches(want, got, tolerance):
    if (tolerance and isinstance(want, (int, float))
            and isinstance(got, (int, float))):
        return abs(got - want) <= tolerance * max(abs(want), 1e-12)
    return want == got


def golden_mismatches(workload, seed, outputs):
    """Entries of `outputs` that differ from the golden; None if no golden."""
    path = golden_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        golden = json.load(f)["outputs"]
    tolerance = GOLDEN_TOLERANCE.get(workload, 0.0)
    bad = []
    for name in sorted(set(golden) | set(outputs)):
        want, got = golden.get(name), outputs.get(name)
        if want is None or got is None or set(want) != set(got) or not all(
                value_matches(want[k], got[k], tolerance) for k in want):
            bad.append(name)
    return bad


def check(result, notes):
    """Failed-op count of one driver result: driver-side failures, plus one
    failed op per golden entry that does not match, in every pass."""
    failed = result["failed"]
    problems = list(result["violations"])
    if not result["deterministic"]:
        problems.append("passes of one process disagree")
        failed += result["attempted"] - result["failed"]
    bad = golden_mismatches(result["workload"], result["seed"],
                            result["outputs"])
    if bad is None:
        notes.append("%s: no golden for seed %d; checked status and "
                     "invariants only" % (result["workload"], result["seed"]))
    elif bad:
        problems.append("golden mismatch: " + ", ".join(bad))
        failed += len(bad) * result["passes"]
    failed = min(failed, result["attempted"])
    return failed, problems


# -- Metrics ----------------------------------------------------------------------

def end_to_end(result):
    return {
        "run_s": statistics.median(result["run_s"]),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(traced, untraced):
    values = dict(traced["counts"])
    values.update(traced["host"])
    base = statistics.median(untraced["run_s"])
    values["obs.trace_overhead_pct"] = (
        100.0 * (statistics.median(traced["run_s"]) / base - 1.0)
        if base > 0 else 0.0)
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def run_workload(workload, seed, seconds, trace, binaries, deadline):
    """One benchmark run: returns (metrics, attempted, failed, problems,
    notes, results)."""
    notes = []
    if trace:
        untraced = run_driver(binaries[False], workload, seed, seconds / 2,
                              None, deadline)
        traced = run_driver(binaries[True], workload, seed, seconds / 2,
                            os.path.join(BUILDS[True], "trace"), deadline)
        results = [untraced, traced]
        values = per_layer(traced, untraced)
        units = dict(PER_LAYER)
    else:
        results = [run_driver(binaries[False], workload, seed, seconds,
                              None, deadline)]
        values = end_to_end(results[0])
        units = dict(END_TO_END)
    attempted = failed = 0
    problems = []
    for r in results:
        f, p = check(r, notes)
        attempted += r["attempted"]
        failed += f
        problems += p
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in values}
    return metrics, attempted, failed, problems, notes, results


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print("%-22s %-34s %16.6g %s" % (workload, name, m["value"],
                                         m["unit"]))


def print_self_times(traced):
    host = traced["host"]
    layers = sorted(((v, k[len("self."):-len("_s")]) for k, v in host.items()
                     if k.startswith("self.")), reverse=True)
    total = sum(v for v, _ in layers) or 1.0
    print("%s: host self time per layer, traced build, median pass"
          % traced["workload"])
    for v, layer in layers:
        if v > 0:
            print("  %-11s %12.6f s  %5.1f%%" % (layer, v, 100.0 * v / total))


def print_repeats(workload, runs):
    print("%s: %d runs" % (workload, len(runs)))
    for name in runs[0]:
        vals = [r[name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print("  %-16s median %.6g  q1 %.6g  q3 %.6g  iqr/median %.2f%%  %s"
              % (name, med, q1, q3, 100.0 * (q3 - q1) / med if med else 0.0,
                 runs[0][name]["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20,
                    help="host seconds one run measures for (BENCHMARK.json "
                         "runs 24; 20 keeps a bare all-workload call under "
                         "90 s); a tiny value runs exactly one pass")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: report the per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run N times, print median and quartiles")
    ap.add_argument("--build-only", action="store_true")
    ap.add_argument("--update-goldens", action="store_true",
                    help="write this run's simulated outputs as the goldens "
                         "for --seed")
    args = ap.parse_args()
    if args.repeat < 1 or args.seconds <= 0:
        ap.error("--repeat must be >= 1 and --seconds > 0")

    try:
        binaries = build_all()
    except BenchError as e:
        log("error: %s" % e)
        return 1
    if args.build_only:
        return 0

    workloads = [args.workload] if args.workload else WORKLOADS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        runs = []
        for _ in range(args.repeat):
            deadline = time.monotonic() + PROCESS_DEADLINE_S
            try:
                metrics, attempted, failed, problems, notes, results = \
                    run_workload(workload, args.seed, args.seconds,
                                 args.trace, binaries, deadline)
            except BenchError as e:
                log("error: %s" % e)
                return 1
            for n in notes:
                log("note: " + n)
            for p in problems:
                log("FAIL %s: %s" % (workload, p))
            if args.update_goldens:
                os.makedirs(GOLDEN_DIR, exist_ok=True)
                with open(golden_path(workload, args.seed), "w") as f:
                    json.dump({"workload": workload, "seed": args.seed,
                               "outputs": results[0]["outputs"]}, f, indent=1)
                    f.write("\n")
                log("wrote " + golden_path(workload, args.seed))
            runs.append(metrics)
            summary["attempted"] += attempted
            summary["failed"] += failed
            summary["correct"] = summary["correct"] and not problems
            print_metrics(workload, metrics)
            if args.trace:
                print_self_times(results[-1])
        if args.repeat > 1:
            print_repeats(workload, runs)
        for name in runs[0]:
            key = name if len(workloads) == 1 else workload + "/" + name
            summary["metrics"][key] = {
                "value": statistics.median(r[name]["value"] for r in runs),
                "unit": runs[0][name]["unit"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

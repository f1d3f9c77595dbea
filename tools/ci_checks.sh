#!/usr/bin/env bash
# Full CI gate for the repo. Runs, in order:
#   0. stellar-lint determinism/layering sweep (fixture self-tests + the
#      full tree; tools/lint/stellar_lint.py, dependency-free python)
#   1. default build (STELLAR_AUDIT=ON) + the complete test suite
#   2. the audit-labelled invariant tests on their own (fast signal)
#   2b. the alloc-labelled allocation budgets: the packet path, the fluid
#      solver and the ATS/ATC sweep (their own binary: it replaces the
#      global operator new), here and again in the bench build of step 12
#   3. the fault-labelled fault-injection/recovery tests on their own
#   4. the sim-labelled engine determinism/stress tests (replay and
#      stress of the one-level timing wheel and its overflow heap, the
#      firing-order test against a reference heap) on their own
#   5. the obs-labelled observability golden/property tests on their own
#   6. the migrate-labelled control-plane robustness tests (snapshots,
#      hot-upgrade, live migration, composition soak) on their own, plus
#      an explicit chaos-soak smoke (the soak's seeded chaos cells at packet
#      and hybrid fidelity, audits trapping; the packet one keeps the name
#      ChaosSoakTest.SurvivesHundredEventPlanWithAuditsOn) and a migration
#      bench smoke run twice to prove BENCH_migration.json is
#      byte-deterministic and equal to its golden
#   6b. the tenant-labelled multi-tenant isolation tests (vSwitch QoS,
#      budget admission, kill_tenant reclaim) on their own, plus the
#      adversarial-tenant bench run twice to prove BENCH_tenants.json is
#      byte-deterministic and equal to its golden
#   6c. the hybrid-labelled fidelity tests (fluid-solver properties, the
#      golden-equivalence harness, mode-transition fault regressions), plus
#      the fig09-mini packet-vs-hybrid tolerance gate
#      (tools/check_hybrid_equivalence.py), a run-twice hybrid BENCH JSON
#      byte-determinism check, a hybrid trace smoke asserting
#      trace_summarize reports fluid fast-forward spans, and a run-twice
#      byte comparison of fig15_16 --endpoints=128 --fidelity=hybrid
#      stdout (the pure-fluid ring path), and a check that an unknown
#      --fidelity value (the removed `fluid`) makes a bench exit non-zero
#      and that a malformed --threads or --trace-sample makes it exit 2.
#      The fig09-mini BENCH JSON at both fidelities and that fig15_16
#      stdout (minus [engine] lines) must also equal the committed goldens
#      in tests/golden/ byte for byte, as must the virt-layer tables
#      (fig06_startup and aux_operations stdout, minus [engine] lines,
#      and fig08_atc_miss stdout, which pins both ATS cliffs)
#      and the transport recovery/CC tables (ablation_design and
#      fig13_microbench stdout, minus [engine] lines, and fig11b's BENCH
#      JSON), the multipath and GDR tables (fig12_pathcount stdout at
#      packet and hybrid fidelity, minus [engine] lines, and fig14_gdr and
#      table1_comm_ratio stdout), and the stdout of the five
#      fast examples (quickstart, parameter_server, pvdma_conflict,
#      moe_expert_parallel, serverless_inference)
#   6d. the perf golden smoke: one pass of each repo benchmark workload
#      (perf/run.py: permutation_packet, allreduce_hybrid at seeds 1 and 2,
#      allreduce_faults, vstellar_translation), whose final JSON lines must
#      say "correct": true — the hybrid goldens hold within 1 %, the others
#      exactly
#   6e. the count ledger (tools/check_perf.py): a traced pass of each perf
#      workload at seeds 1 and 2 must reproduce every count, ratio and byte
#      metric committed in LEDGER.json
#   6f. the PC-sampler smoke: tools/pcsample profiles 1 s of the untraced
#      vstellar_translation workload, and at least 100 samples must
#      resolve to named functions
#   7. a fig09 mini trace dump + trace_summarize smoke (the tracer's
#      byte-determinism and the summarizer's parser, end to end)
#   7b. the run-level sharding determinism gate: fig09-mini,
#      fig12_pathcount and fig13_microbench at --threads=1 vs --threads=4 —
#      stdout (minus wall-clock [engine] lines), the BENCH JSON, the
#      metrics snapshot and the trace must all be byte-identical between
#      thread counts
#   8. ASan+UBSan build + the complete test suite + the fault, sim, obs,
#      migrate and tenant suites
#   9. TSan build (-DSTELLAR_SANITIZE=thread) + the threaded shard-safety
#      smoke, with a negative control: a deliberately racy demo binary must
#      FAIL under TSan, proving the wiring detects real races
#  10. clang thread-safety analysis build of the src/ libraries with
#      -Werror=thread-safety (skipped gracefully when clang is absent)
#  11. clang-tidy over src/ (skipped gracefully when not installed)
#  12. STELLAR_AUDIT=OFF + STELLAR_TRACE=OFF build of the bench binaries —
#      proves both instrumentation layers compile out of hot paths
#      entirely — plus the firing-order test (wheel vs reference heap), the
#      allocation budgets and the tenant-labelled tests (the extent
#      translation cache against its per-page reference) in that build
#
#   tools/ci_checks.sh [--skip-san] [--lint-only]
#
# --skip-san drops the sanitizer rebuilds (ASan+UBSan and TSan roughly
# double the wall time; the default gate runs everything).
# --lint-only runs only step 0 — the fast pre-commit path (< ~5 s).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
jobs="$(nproc 2> /dev/null || echo 2)"

skip_san=0
lint_only=0
for arg in "$@"; do
  case "$arg" in
    --skip-san) skip_san=1 ;;
    --lint-only) lint_only=1 ;;
    *)
      echo "ci_checks: unknown argument '$arg'" >&2
      exit 2
      ;;
  esac
done

step() { printf '\n=== ci_checks: %s ===\n' "$*"; }

step "stellar-lint fixture self-tests"
python3 tools/lint/stellar_lint.py --self-test

step "stellar-lint determinism/layering sweep (src/ + bench/)"
python3 tools/lint/stellar_lint.py

if [ "$lint_only" -eq 1 ]; then
  echo
  echo "ci_checks: lint gates passed (--lint-only)"
  exit 0
fi

step "default build (STELLAR_AUDIT=ON)"
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j"$jobs"

step "full test suite"
ctest --test-dir build --output-on-failure -j"$jobs"

step "invariant audit suite (ctest -L audit)"
ctest --test-dir build --output-on-failure -L audit

step "allocation budgets (ctest -L alloc)"
ctest --test-dir build --output-on-failure -L alloc

step "fault injection suite (ctest -L fault)"
ctest --test-dir build --output-on-failure -L fault

step "engine determinism/stress suite (ctest -L sim)"
ctest --test-dir build --output-on-failure -L sim

step "observability golden/property suite (ctest -L obs)"
ctest --test-dir build --output-on-failure -L obs

step "control-plane robustness suite (ctest -L migrate)"
ctest --test-dir build --output-on-failure -L migrate

step "multi-tenant isolation suite (ctest -L tenant)"
ctest --test-dir build --output-on-failure -L tenant

step "tenant bench smoke (gates + BENCH_tenants.json byte-determinism)"
ten_smoke_dir="$(mktemp -d)"
(cd "$ten_smoke_dir" &&
  mkdir run1 run2 &&
  (cd run1 && "$repo_root/build/bench/fig_tenants" > fig_tenants.log) &&
  (cd run2 && "$repo_root/build/bench/fig_tenants" > fig_tenants.log) &&
  cmp run1/BENCH_tenants.json run2/BENCH_tenants.json &&
  cmp run1/BENCH_tenants.json "$repo_root/tests/golden/fig_tenants.json" &&
  head -n 3 run1/BENCH_tenants.json)
rm -rf "$ten_smoke_dir"

step "hybrid fidelity suite (ctest -L hybrid)"
ctest --test-dir build --output-on-failure -L hybrid

step "hybrid equivalence gate (fig09 mini: packet vs hybrid, run-twice determinism, goldens)"
hyb_dir="$(mktemp -d)"
(cd "$hyb_dir" &&
  mkdir packet hybrid1 hybrid2 &&
  (cd packet && "$repo_root/build/bench/fig09_permutation" 0.02 \
    --fidelity=packet > fig09.log) &&
  (cd hybrid1 && "$repo_root/build/bench/fig09_permutation" 0.02 \
    --fidelity=hybrid > fig09.log) &&
  (cd hybrid2 && "$repo_root/build/bench/fig09_permutation" 0.02 \
    --fidelity=hybrid > fig09.log) &&
  # Hybrid fidelity must be byte-deterministic run-to-run, and both
  # fidelities must reproduce the committed goldens...
  cmp hybrid1/BENCH_fig09.json hybrid2/BENCH_fig09.json &&
  cmp packet/BENCH_fig09.json "$repo_root/tests/golden/fig09_mini_packet.json" &&
  cmp hybrid1/BENCH_fig09.json "$repo_root/tests/golden/fig09_mini_hybrid.json" &&
  # ...and agree with packet fidelity per row within the declared tolerance
  # (docs/HYBRID.md; the mini scale uses a wider band than the unit tests
  # because its measurement window is only ~40 us of sim time).
  python3 "$repo_root/tools/check_hybrid_equivalence.py" \
    packet/BENCH_fig09.json hybrid1/BENCH_fig09.json --tol-pct 25)
rm -rf "$hyb_dir"

step "hybrid trace smoke (fluid-epoch spans visible to trace_summarize)"
hyb_trace_dir="$(mktemp -d)"
(cd "$hyb_trace_dir" &&
  "$repo_root/build/bench/fig09_permutation" 0.02 --fidelity=hybrid \
    --trace=hyb_trace.json --trace-sample=256 > fig09_hybrid.log &&
  "$repo_root/build/tools/trace_summarize" hyb_trace.json \
    | grep '^\[fluid\]')
rm -rf "$hyb_trace_dir"

step "fluid ring determinism (fig15_16 --endpoints=128 --fidelity=hybrid, run twice, golden)"
# The rings run pure fluid end to end (lazy service, the due heap, the
# re-solve/re-anchor path); the fig09-mini gate above barely reaches it.
f15_dir="$(mktemp -d)"
(cd "$f15_dir" &&
  mkdir run1 run2 &&
  (cd run1 && "$repo_root/build/bench/fig15_16_training" --endpoints=128 \
    --fidelity=hybrid > fig15_16.log) &&
  (cd run2 && "$repo_root/build/bench/fig15_16_training" --endpoints=128 \
    --fidelity=hybrid > fig15_16.log) &&
  diff <(grep -v '^\[engine\]' run1/fig15_16.log) \
       <(grep -v '^\[engine\]' run2/fig15_16.log) &&
  diff <(grep -v '^\[engine\]' run1/fig15_16.log) \
       "$repo_root/tests/golden/fig15_16_e128_hybrid.txt" &&
  echo "fig15_16 --endpoints=128 hybrid byte-identical across runs and to the golden")
rm -rf "$f15_dir"

step "virt-layer tables (fig06_startup, aux_operations, fig08_atc_miss stdout vs goldens)"
virt_dir="$(mktemp -d)"
(cd "$virt_dir" &&
  "$repo_root/build/bench/fig06_startup" > fig06.log &&
  "$repo_root/build/bench/aux_operations" > aux.log &&
  "$repo_root/build/bench/fig08_atc_miss" > fig08.log &&
  diff <(grep -v '^\[engine\]' fig06.log) \
       "$repo_root/tests/golden/fig06_startup.txt" &&
  diff <(grep -v '^\[engine\]' aux.log) \
       "$repo_root/tests/golden/aux_operations.txt" &&
  cmp fig08.log "$repo_root/tests/golden/fig08_atc_miss.txt" &&
  echo "fig06_startup, aux_operations and fig08_atc_miss byte-identical to their goldens")
rm -rf "$virt_dir"

step "transport recovery and CC tables (ablation_design and fig13 stdout, fig11b BENCH JSON vs goldens)"
# ablation_design pins the per-path-CC and Swift rows; fig11b pins the
# hard-failure RTO, blacklist and probe rows; fig13 pins the stack pacer
# (per-packet overhead and stack_rate_cap), the only paced-send path.
cc_dir="$(mktemp -d)"
(cd "$cc_dir" &&
  "$repo_root/build/bench/ablation_design" > ablation.log &&
  "$repo_root/build/bench/fig11b_hard_failures" > fig11b.log &&
  "$repo_root/build/bench/fig13_microbench" > fig13.log &&
  diff <(grep -v '^\[engine\]' ablation.log) \
       "$repo_root/tests/golden/ablation_design.txt" &&
  cmp BENCH_fig11b.json "$repo_root/tests/golden/fig11b.json" &&
  diff <(grep -v '^\[engine\]' fig13.log) \
       "$repo_root/tests/golden/fig13_microbench.txt" &&
  echo "ablation_design, fig11b and fig13 byte-identical to their goldens")
rm -rf "$cc_dir"

step "multipath and GDR tables (fig12 stdout at both fidelities, fig14 and table1 stdout vs goldens)"
# fig12 is the packet-scheduler-heavy sweep (up to 256 paths per
# connection); fig14 and table1 pin the GDR and communication-ratio rows.
# fig10 (~23 s) and fig11 (~45 s) stay unpinned, for CI time.
mp_dir="$(mktemp -d)"
(cd "$mp_dir" &&
  "$repo_root/build/bench/fig12_pathcount" > fig12.log &&
  "$repo_root/build/bench/fig12_pathcount" --fidelity=hybrid \
    > fig12_hybrid.log &&
  "$repo_root/build/bench/fig14_gdr" > fig14.log &&
  "$repo_root/build/bench/table1_comm_ratio" > table1.log &&
  diff <(grep -v '^\[engine\]' fig12.log) \
       "$repo_root/tests/golden/fig12_pathcount.txt" &&
  diff <(grep -v '^\[engine\]' fig12_hybrid.log) \
       "$repo_root/tests/golden/fig12_pathcount_hybrid.txt" &&
  cmp fig14.log "$repo_root/tests/golden/fig14_gdr.txt" &&
  cmp table1.log "$repo_root/tests/golden/table1_comm_ratio.txt" &&
  echo "fig12 (packet and hybrid), fig14 and table1 byte-identical to their goldens")
rm -rf "$mp_dir"

step "example outputs (quickstart, parameter_server, pvdma_conflict, moe_expert_parallel, serverless_inference stdout vs goldens)"
# pvdma_conflict pins HypervisorConfig::vdb_in_shm (Figure 5's pre-fix
# collision) and serverless_inference HostPcieConfig::lut_capacity_per_switch.
# multipath_training (~17 s) stays a manual check.
ex_dir="$(mktemp -d)"
(cd "$ex_dir" &&
  for ex in quickstart parameter_server pvdma_conflict moe_expert_parallel \
            serverless_inference; do
    "$repo_root/build/examples/$ex" > "$ex.log" &&
      diff "$ex.log" "$repo_root/tests/golden/example_$ex.txt" || exit 1
  done &&
  echo "five example outputs byte-identical to their goldens")
rm -rf "$ex_dir"

step "unknown --fidelity is rejected (fig12_pathcount --fidelity=fluid exits non-zero)"
if build/bench/fig12_pathcount --fidelity=fluid > /dev/null 2>&1; then
  echo "ci_checks: FATAL: fig12_pathcount --fidelity=fluid exited 0;" >&2
  echo "an unknown fidelity must be rejected, not run at packet fidelity" >&2
  exit 1
else
  echo "fig12_pathcount rejected --fidelity=fluid as required"
fi

step "malformed --threads and --trace-sample are rejected (fig12_pathcount exits 2)"
for flag in --threads=0 --threads=four --trace-sample=-5; do
  status=0
  build/bench/fig12_pathcount "$flag" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "ci_checks: FATAL: fig12_pathcount $flag exited $status, not 2;" >&2
    echo "a malformed flag must be rejected, not mapped to a default" >&2
    exit 1
  fi
done
echo "fig12_pathcount rejected --threads=0, --threads=four and --trace-sample=-5"

step "perf golden smoke (one pass each: allreduce_hybrid within 1 % at seeds 1 and 2, the others exact)"
# A fluid-solver change that drifts the hybrid benchmark goldens, a
# transport or engine change that moves a packet-path golden (spray or
# loss recovery), or a translation-layer change that moves any vStellar
# golden, fails here. The hybrid workload runs at both seeds it has
# goldens for.
for run in permutation_packet:1 allreduce_hybrid:1 allreduce_hybrid:2 \
    allreduce_faults:1 vstellar_translation:1; do
  workload="${run%:*}"
  seed="${run#*:}"
  perf_log="$(mktemp)"
  python3 perf/run.py --workload "$workload" --seed "$seed" --seconds 0.001 \
    | tee "$perf_log"
  python3 - "$perf_log" "$workload (seed $seed)" << 'EOF'
import json
import sys

lines = [line for line in open(sys.argv[1]) if line.strip()]
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    result = {}
if result.get("correct") is not True:
    sys.exit('ci_checks: perf golden smoke (%s): final line lacks '
             '"correct": true' % sys.argv[2])
EOF
  rm -f "$perf_log"
done

step "count ledger (tools/check_perf.py: every perf count at seeds 1 and 2 vs LEDGER.json)"
python3 tools/check_perf.py

step "PC-sampler smoke (tools/pcsample on 1 s of vstellar_translation, >= 100 samples named)"
# The LD_PRELOAD SIGPROF sampler and its addr2line resolver, end to end on
# the untraced perf_driver the perf golden smoke built. The kernel rounds
# the sampling period up to its tick, so 1 s of CPU time gives a few
# hundred samples at HZ=250.
pcsample_dir="$(mktemp -d)"
cc -O2 -shared -fPIC -o "$pcsample_dir/libpcsample.so" tools/pcsample/pcsample.c
PCSAMPLE_OUT="$pcsample_dir/prof.txt" \
  LD_PRELOAD="$pcsample_dir/libpcsample.so" \
  build-perf/perf_driver --workload vstellar_translation --seed 1 \
  --seconds 1 > /dev/null
python3 tools/pcsample/resolve.py "$pcsample_dir/prof.txt" --top 10 \
  --min-named 100
rm -rf "$pcsample_dir"

step "chaos-soak smoke (fixed seed 0xC0FFEE, >=100 events, packet + hybrid, six auditors trapping)"
build/tests/stellar_migrate_tests \
  --gtest_filter='ChaosSoakTest.SurvivesHundredEventPlanWithAuditsOn:FidelityByPlan/CompositionSoakTest.*/hybrid_chaos'

step "migration bench smoke (BENCH_migration.json byte-determinism, golden)"
mig_smoke_dir="$(mktemp -d)"
(cd "$mig_smoke_dir" &&
  mkdir run1 run2 &&
  (cd run1 && "$repo_root/build/bench/fig_migration" > fig_migration.log) &&
  (cd run2 && "$repo_root/build/bench/fig_migration" > fig_migration.log) &&
  cmp run1/BENCH_migration.json run2/BENCH_migration.json &&
  cmp run1/BENCH_migration.json "$repo_root/tests/golden/fig_migration.json" &&
  head -n 3 run1/BENCH_migration.json)
rm -rf "$mig_smoke_dir"

step "fig09 mini trace + trace_summarize smoke"
obs_smoke_dir="$(mktemp -d)"
(cd "$obs_smoke_dir" &&
  "$repo_root/build/bench/fig09_permutation" 0.02 --trace=mini_trace.json \
    --trace-sample=256 > fig09_smoke.log &&
  "$repo_root/build/tools/trace_summarize" mini_trace.json | head -n 5)
rm -rf "$obs_smoke_dir"

step "run-level sharding determinism (fig09 mini, fig12, fig13; --threads=1 vs --threads=4)"
par_det_dir="$(mktemp -d)"
for spec in "fig09_permutation fig09 0.02" "fig12_pathcount fig12" \
            "fig13_microbench fig13"; do
  read -r bin name scale <<< "$spec"
  (cd "$par_det_dir" &&
    rm -rf t1 t4 && mkdir t1 t4 &&
    (cd t1 && "$repo_root/build/bench/$bin" ${scale:+"$scale"} --threads=1 \
      --trace=trace.json --trace-sample=256 > out.log) &&
    (cd t4 && "$repo_root/build/bench/$bin" ${scale:+"$scale"} --threads=4 \
      --trace=trace.json --trace-sample=256 > out.log) &&
    test -s t1/trace.json && test -s "t1/BENCH_${name}_obs.json" &&
    # [engine] lines report wall-clock; everything else must match
    # byte-for-byte: stdout, every BENCH JSON (obs snapshot included) and
    # the trace.
    diff <(grep -v '^\[engine\]' t1/out.log) \
         <(grep -v '^\[engine\]' t4/out.log) &&
    diff -r -x out.log t1 t4 &&
    echo "$bin byte-identical across thread counts")
done
rm -rf "$par_det_dir"

if [ "$skip_san" -eq 0 ]; then
  step "ASan+UBSan build + full test suite"
  cmake -B build-san -S . -DSTELLAR_SANITIZE=address,undefined
  cmake --build build-san -j"$jobs"
  ctest --test-dir build-san --output-on-failure -j"$jobs"
  step "fault injection suite under sanitizers (ctest -L fault)"
  ctest --test-dir build-san --output-on-failure -L fault
  step "engine determinism/stress suite under sanitizers (ctest -L sim)"
  ctest --test-dir build-san --output-on-failure -L sim
  step "observability suite under sanitizers (ctest -L obs)"
  ctest --test-dir build-san --output-on-failure -L obs
  step "control-plane robustness suite under sanitizers (ctest -L migrate)"
  ctest --test-dir build-san --output-on-failure -L migrate
  step "multi-tenant isolation suite under sanitizers (ctest -L tenant)"
  ctest --test-dir build-san --output-on-failure -L tenant
  step "hybrid fidelity suite under sanitizers (ctest -L hybrid)"
  ctest --test-dir build-san --output-on-failure -L hybrid
else
  step "sanitizer pass skipped (--skip-san)"
fi

if [ "$skip_san" -eq 0 ]; then
  step "TSan build (-DSTELLAR_SANITIZE=thread) + threaded shard-safety smoke"
  cmake -B build-tsan -S . -DSTELLAR_SANITIZE=thread
  cmake --build build-tsan -j"$jobs" \
    --target stellar_tsan_smoke_tests stellar_tsan_race_demo
  build-tsan/tests/stellar_tsan_smoke_tests

  step "TSan negative control (racy demo binary must fail under TSan)"
  if build-tsan/tests/stellar_tsan_race_demo > /dev/null 2>&1; then
    echo "ci_checks: FATAL: tsan_race_demo ran clean under TSan —" >&2
    echo "the sanitizer wiring is not detecting races" >&2
    exit 1
  else
    echo "race demo failed under TSan as required (wiring verified)"
  fi
else
  step "TSan pass skipped (--skip-san)"
fi

step "clang thread-safety analysis (-Werror=thread-safety, src/ libraries)"
if command -v clang++ > /dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++
  cmake --build build-tsa -j"$jobs" --target \
    stellar_common stellar_check stellar_sim stellar_hybrid stellar_obs \
    stellar_memory stellar_pcie stellar_net stellar_rnic stellar_virt \
    stellar_core stellar_collective stellar_workload stellar_audit \
    stellar_fault
else
  echo "clang++ not installed; skipping thread-safety analysis build"
  echo "(the STELLAR_* annotations compile to nothing under gcc)"
fi

step "clang-tidy"
tools/run_tidy.sh "$repo_root/build"

step "bench build with audits + tracing compiled out (STELLAR_AUDIT=OFF, STELLAR_TRACE=OFF)"
cmake -B build-bench -S . -DSTELLAR_AUDIT=OFF -DSTELLAR_TRACE=OFF
cmake --build build-bench -j"$jobs"

step "engine tests, bench build (ctest -L sim; work-counter checks skip)"
ctest --test-dir build-bench --output-on-failure -L sim

step "allocation budgets, bench build (ctest -L alloc)"
ctest --test-dir build-bench --output-on-failure -L alloc

step "tenant and translation-cache tests, bench build (ctest -L tenant; work-counter checks skip)"
ctest --test-dir build-bench --output-on-failure -L tenant

echo
echo "ci_checks: all gates passed"

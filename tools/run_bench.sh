#!/usr/bin/env bash
# Perf harness: run the micro-kernel and Table-1 benches and emit
# machine-readable artifacts at the repo root.
#
#   tools/run_bench.sh [build-dir]     (default: build)
#
# Outputs:
#   BENCH_micro.json  per-kernel wall-time (Google Benchmark JSON format)
#   BENCH_tab1.txt    benchmark-suite inventory + netlist statistics
#
# These artifacts are gitignored; they seed the cross-PR benchmark
# trajectory tracked in ROADMAP.md.
set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
build_dir=${1:-"${repo_root}/build"}
[[ "${build_dir}" = /* ]] || build_dir="${repo_root}/${build_dir}"

micro="${build_dir}/bench/micro_kernels"
tab1="${build_dir}/bench/tab1_suite"

for bin in "${micro}" "${tab1}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built." >&2
    echo "build first: cmake -B '${build_dir}' -S '${repo_root}' &&" \
         "cmake --build '${build_dir}' -j" >&2
    exit 1
  fi
done

cd "${repo_root}"

echo "== micro_kernels -> BENCH_micro.json =="
"${micro}" \
  --benchmark_out=BENCH_micro.json \
  --benchmark_out_format=json \
  --benchmark_min_time=0.05 \
  --benchmark_repetitions=1

echo
echo "== tab1_suite -> BENCH_tab1.txt =="
"${tab1}" | tee BENCH_tab1.txt

# Sanity-check the JSON so a truncated run fails loudly, and require the
# sweep entries that track the experiment engine's perf per PR: mc_sweep
# (32-seed Monte-Carlo), trace_replay (100-trace measured-supply
# library) and design_search (72-candidate grid-to-front design-space
# search), each at 1 thread and at full hardware concurrency, plus
# shard_sweep (the 32-seed sweep split over 1 vs 4 single-threaded
# worker *processes*, spawn + serialize + merge included).
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("BENCH_micro.json") as f:
    doc = json.load(f)
kernels = [b["name"] for b in doc["benchmarks"]]
assert kernels, "BENCH_micro.json has no benchmark entries"
for prefix in ("mc_sweep", "trace_replay", "design_search", "shard_sweep"):
    sweeps = {b["name"]: b for b in doc["benchmarks"]
              if b["name"].startswith(prefix)}
    assert len(sweeps) >= 2, \
        f"expected {prefix} entries at 1 and N jobs, got {sorted(sweeps)}"
    times = {name: b["real_time"] for name, b in sweeps.items()}
    serial = times.get(f"{prefix}/1")
    rest = [t for name, t in times.items() if name != f"{prefix}/1"]
    if serial and rest:
        print(f"{prefix}: {serial:.1f} ms serial -> {min(rest):.1f} ms "
              f"parallel ({serial / min(rest):.1f}x)")
# The compiled-kernel batching sweep: s1238 + s38417 + synth100k, each at
# several batch widths, tracking the multi-word pattern throughput per PR.
batched = [k for k in kernels if k.startswith("BM_LogicSimBatched/")]
assert len(batched) >= 3, \
    f"expected BM_LogicSimBatched entries for >= 3 circuits, got {batched}"
for circuit in ("s1238", "s38417", "synth100k"):
    assert any(k.startswith(f"BM_LogicSimBatched/{circuit}/") for k in batched), \
        f"missing BM_LogicSimBatched entries for {circuit}: {batched}"
# The equivalence-check kernel (verify/): random-fingerprint lockstep on
# the largest suite circuit, tracking checker throughput per PR.
assert any(k.startswith("BM_EquivCheck/s38417") for k in kernels), \
    f"missing BM_EquivCheck/s38417 entry: {kernels}"
# The synthesis linearity gate: full synthesis of the ~100k-gate
# synthetic circuit may take at most 2x its gate-count ratio over s38417.
# A per-node cost that scales with the whole netlist (quadratic
# synthesis) blows far past that bound.
synth = {b["name"]: b for b in doc["benchmarks"]
         if b["name"].startswith("BM_FullSynthesis/")}
for entry in ("BM_FullSynthesis/s38417", "BM_FullSynthesis/synth100k"):
    assert entry in synth, f"missing {entry} entry: {sorted(synth)}"
small = synth["BM_FullSynthesis/s38417"]
large = synth["BM_FullSynthesis/synth100k"]
time_ratio = large["real_time"] / small["real_time"]
gate_ratio = large["gates"] / small["gates"]
assert time_ratio <= 2.0 * gate_ratio, \
    f"synthesis not linear: synth100k/s38417 time {time_ratio:.1f}x > " \
    f"2 x gate ratio {gate_ratio:.1f}x"
print(f"BM_FullSynthesis: synth100k/s38417 time {time_ratio:.1f}x for "
      f"{gate_ratio:.1f}x the gates (bound {2.0 * gate_ratio:.1f}x)")
# The observability overhead gate: the compiled kernel with the obs
# instrumentation built in but idle; compare against a -DDIAC_OBS=OFF
# build of the same entry to measure the total obs cost (< 2% bar).
assert any(k.startswith("BM_ObsOverhead/s38417") for k in kernels), \
    f"missing BM_ObsOverhead/s38417 entry: {kernels}"
# The result-cache gate (serve/): a warm 256-seed s1238 sweep through a
# prepopulated --cache-dir must beat the cold (compute + store) pass by
# at least 5x, or the cache is not paying for its own bookkeeping, and
# must not recompute a single row (`misses` counts lookups that fell
# through to compute).
cache_runs = {b["name"]: b for b in doc["benchmarks"]
              if b["name"].startswith("BM_CacheWarmSweep/")}
cache = {name: b["real_time"] for name, b in cache_runs.items()}
for name, b in cache_runs.items():
    if name.startswith("BM_CacheWarmSweep/warm"):
        assert b["misses"] == 0, \
            f"{name}: warm sweep recomputed {b['misses']:.0f} row(s)"
for entry in ("BM_CacheWarmSweep/cold", "BM_CacheWarmSweep/warm"):
    assert any(k.startswith(entry) for k in cache), \
        f"missing {entry} entry: {sorted(cache)}"
cold = min(t for name, t in cache.items()
           if name.startswith("BM_CacheWarmSweep/cold"))
warm = min(t for name, t in cache.items()
           if name.startswith("BM_CacheWarmSweep/warm"))
assert warm > 0 and cold / warm >= 5.0, \
    f"cache warm-start too slow: cold {cold:.1f} ms / warm {warm:.1f} ms " \
    f"= {cold / warm:.1f}x (< 5x)"
print(f"BM_CacheWarmSweep: cold {cold:.1f} ms -> warm {warm:.1f} ms "
      f"({cold / warm:.1f}x)")
# The trace-ingestion gate (power/trace_io): load_trace_csv over the
# trace_replay library must sustain at least 100 MB/s single-threaded.
parse = [b for b in doc["benchmarks"] if b["name"] == "BM_TraceParse"]
assert parse, f"missing BM_TraceParse entry: {kernels}"
mb_per_s = parse[0]["MB_per_s"]
assert mb_per_s >= 100.0, \
    f"trace parsing too slow: {mb_per_s:.1f} MB/s (< 100 MB/s)"
print(f"BM_TraceParse: {mb_per_s:.1f} MB/s")
# The trace-writing gate (power/trace_io): save_trace_csv of the same
# 100-trace library must sustain at least 25 MB/s single-threaded (one
# formatted buffer per file; the per-row ostream path managed ~7-10).
write = [b for b in doc["benchmarks"] if b["name"] == "BM_TraceWrite"]
assert write, f"missing BM_TraceWrite entry: {kernels}"
write_mb_per_s = write[0]["MB_per_s"]
assert write_mb_per_s >= 25.0, \
    f"trace writing too slow: {write_mb_per_s:.1f} MB/s (< 25 MB/s)"
print(f"BM_TraceWrite: {write_mb_per_s:.1f} MB/s")
# The netlist readers (src/netlist, util/lexer.hpp) over s38417 text:
# reported, not gated.
for fmt in ("bench", "blif", "verilog"):
    entry = [b for b in doc["benchmarks"]
             if b["name"] == f"BM_NetlistParse/{fmt}"]
    assert entry, f"missing BM_NetlistParse/{fmt} entry: {kernels}"
    print(f"BM_NetlistParse/{fmt}: {entry[0]['MB_per_s']:.1f} MB/s")
# The two `diac check` phases that apply the Verilog identifier rule to
# every gate (diac/codegen, verify/drc N5): reported, not gated.
for entry in ("BM_CodegenEmit/s38417", "BM_Drc/s38417"):
    timed = [b for b in doc["benchmarks"] if b["name"] == entry]
    assert timed, f"missing {entry} entry: {kernels}"
    print(f"{entry}: {timed[0]['real_time']:.2f} {timed[0]['time_unit']}")
print(f"BENCH_micro.json OK: {len(kernels)} kernels timed")
EOF
fi

echo "done: ${repo_root}/BENCH_micro.json, ${repo_root}/BENCH_tab1.txt"

#!/usr/bin/env python3
"""Self-test of the sweep benchmark.

Run from the root of a diac source checkout:

    python3 perfbench/selftest.py

It runs every workload of BENCHMARK.json at a tiny size in both modes and
checks each result line: every end-to-end metric with --trace 0 and every
per-layer metric with --trace 1, each with its unit, and trace.coverage
reported.  It also checks that a corrupted or failing invocation counts as
failed, and that a directory holding only the benchmark gives no result.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def run_benchmark(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=1200)


def test_every_workload_reports_every_metric(spec):
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in units.items():
            label = f"{workload} --trace {trace}"
            p = run_benchmark(["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--size", "tiny"], bench.ROOT)
            check(p.returncode == 0,
                  f"{label}: exit {p.returncode}\n{p.stderr[-3000:]}")
            result = json.loads(p.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: {p.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{label}: metrics/units differ: "
                  f"{sorted(set(got.items()) ^ set(expected.items()))}")
            if trace == 1:
                coverage = result["metrics"]["trace.coverage"]["value"]
                check(0.9 <= coverage <= 1.0,
                      f"{label}: trace.coverage {coverage}")
            print(f"ok  {label}: {result['attempted']} attempted")


def test_bad_output_counts_as_failed():
    bench.build(["perfbench_gen"])
    c = bench.COMMANDS["mc_s1238"]
    good = bench.invoke([bench.DIAC] + bench.cli_args(c, 7, "tiny"))
    reference = bench.sha256(good.stdout)
    corrupted = replace(good, stdout=good.stdout.replace(b"1.000", b"1.001",
                                                         1))
    check(bench.report_problems(c, corrupted.stdout.decode(), "tiny"),
          "a corrupted NV-Based row passes the report check")
    crashed = replace(good, rc=1)
    check(bench.judge(c, [good, good], reference, None, "tiny") == 0,
          "identical sound stdout is counted as failed")
    failed = bench.judge(c, [good, corrupted, good, crashed], reference, None,
                         "tiny")
    check(failed == 2, f"{failed} of 2 bad invocations counted as failed")
    print("ok  corrupted stdout and non-zero exit count in failed_frac")


def test_no_result_without_checkout():
    bare = bench.BUILD / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        p = run_benchmark(["--workload", "simulation", "--seconds", "1"],
                          bare)
    finally:
        shutil.rmtree(bare)
    check(p.returncode != 0 and not p.stdout.strip(),
          f"bare directory: exit {p.returncode}, stdout {p.stdout!r}")
    print("ok  no result from a directory without the diac sources")


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    test_bad_output_counts_as_failed()
    test_no_result_without_checkout()
    test_every_workload_reports_every_metric(spec)
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()

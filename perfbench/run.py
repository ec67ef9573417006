#!/usr/bin/env python3
"""Sweep benchmark of the `diac` CLI.

Run from the root of a diac source checkout:

    python3 perfbench/run.py --workload synthesis --seed 60247 \\
        --seconds 20 --trace 0

The first run builds the CLI (Release, library and CLI only) and the
benchmark's own programs under .bench_build/.  A workload is two `diac`
commands, invoked in turn.  --trace 0 times the real `diac` binary in a
closed loop with one client, one invocation at a time, and reports the
end-to-end metrics.  --trace 1 replays the commands through
perfbench_driver, which records a span around every library call, and
reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `--workload all`
runs every workload in turn.  perfbench/README.md explains the workloads,
the metrics and which layer should move which metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
BUILD = ROOT / ".bench_build"
DIAC_BUILD = BUILD / "diac"
TOOLS_BUILD = BUILD / "perfbench"
WORK = BUILD / "work"
DIAC = DIAC_BUILD / "tools" / "diac"
GEN = TOOLS_BUILD / "perfbench_gen"
DRIVER = TOOLS_BUILD / "perfbench_driver"
# `diac replay` echoes its --trace argument, so the library always sits at
# this relative path and the stdout digest is the same on every machine.
LIBRARY = ".bench_build/replay_lib"

DEFAULT_SEED = 60247  # the CLI's own default --seed; goldens are for it
SETUP_REPEATS = 7
MIN_SAMPLES = 5
MIN_TRACED = 3
TIMEOUT_S = 120
SCHEMES = ["NV-Based", "NV-Clustering", "DIAC", "DIAC-Optimized"]


@dataclass
class Command:
    kind: str
    circuit: str
    full: list
    tiny: list
    traces: dict = None  # replay: library size per --size


COMMANDS = {
    "mc_s38417": Command("mc", "s38417", ["--runs", "32", "--instances", "4"],
                         ["--runs", "2", "--instances", "1"]),
    "search_b14": Command("search", "b14", [], ["--random", "4"]),
    "mc_s1238": Command("mc", "s1238", ["--runs", "2048"], ["--runs", "16"]),
    "replay_s1238": Command("replay", "s1238", ["--trace", LIBRARY],
                            ["--trace", LIBRARY], {"full": 100, "tiny": 8}),
}

# Each workload invokes its commands in turn, one invocation each per
# round, so every command is sampled across the whole run window and a
# slow stretch of the host reaches both alike.
WORKLOADS = {
    "synthesis": ["mc_s38417", "search_b14"],
    "simulation": ["mc_s1238", "replay_s1238"],
}


@dataclass
class Run:
    """One finished process: exit code, host wall/CPU time, peak RSS, output."""
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Failure(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def nproc():
    return len(os.sched_getaffinity(0))


def threads():
    """--threads passed to every invocation: pinned, because `diac mc` and
    `diac replay` print the job count, and never above nproc."""
    return min(2, nproc())


def cli_args(c, seed, size):
    args = [c.kind, c.circuit] + (c.full if size == "full" else c.tiny)
    if c.kind != "replay":
        args += ["--seed", str(seed)]
    return args + ["--threads", str(threads())]


# --- build -------------------------------------------------------------------

def checked(cmd):
    """Runs a build step with its output on stderr."""
    rc = subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=sys.stderr,
                        stderr=sys.stderr).returncode
    if rc != 0:
        raise Failure(f"{' '.join(map(str, cmd))} exited {rc}")


def build(targets):
    for needed in ("CMakeLists.txt", "src", "tools/diac_cli.cpp"):
        if not (ROOT / needed).exists():
            raise Failure(f"{ROOT} is not a diac source checkout "
                          f"(no {needed}); run from the checkout root")
    jobs = str(min(4, nproc()))
    # Configured on every run: the configure step stamps the checkout's git
    # hash into `diac version`, which the provenance line reports.
    checked(["cmake", "-S", ROOT, "-B", DIAC_BUILD,
             "-DCMAKE_BUILD_TYPE=Release", "-DDIAC_BUILD_TESTS=OFF",
             "-DDIAC_BUILD_BENCHES=OFF", "-DDIAC_BUILD_EXAMPLES=OFF"])
    checked(["cmake", "--build", DIAC_BUILD, "--target", "diac_cli",
             "-j", jobs])
    if not (TOOLS_BUILD / "CMakeCache.txt").exists():
        checked(["cmake", "-S", HERE, "-B", TOOLS_BUILD,
                 "-DCMAKE_BUILD_TYPE=Release", f"-DDIAC_SOURCE_DIR={ROOT}",
                 f"-DDIAC_LIBRARY={DIAC_BUILD / 'libdiac.a'}"])
    checked(["cmake", "--build", TOOLS_BUILD, "--target", *targets,
             "-j", jobs])
    WORK.mkdir(parents=True, exist_ok=True)


# --- processes ---------------------------------------------------------------

def invoke(argv, timeout=TIMEOUT_S):
    """Runs argv to completion (killed after `timeout`) and returns its
    wall time, wait4 rusage CPU time and peak RSS, and its output."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, stdout=out,
                                stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, out_path.read_bytes(),
               err_path.read_bytes())


PROBE = "x = 0\nfor i in range(1000000):\n    x += i * i\n"


def probe_ms(k):
    """Wall time of k concurrent copies of a fixed CPU-bound loop."""
    start = time.perf_counter()
    procs = [subprocess.Popen([sys.executable, "-c", PROBE])
             for _ in range(k)]
    for p in procs:
        p.wait()
    return (time.perf_counter() - start) * 1000.0


def provenance():
    version = invoke([DIAC, "version"]).stdout.decode(errors="replace")
    n = nproc()
    one, many = probe_ms(1), probe_ms(n)
    return {"diac_version": version.strip().splitlines(), "nproc": n,
            "threads": threads(),
            "probe_ms": {"1": round(one, 1), str(n): round(many, 1)},
            "effective_cores": round(n * one / many, 2)}


# --- inputs and output checks ----------------------------------------------

def make_inputs(commands, seed, size):
    """Writes the seeded inputs of the workload's commands; returns their
    digest."""
    replays = [c for c in commands if c.kind == "replay"]
    if not replays:
        return None
    run = invoke([GEN, LIBRARY, seed, replays[0].traces[size]])
    if run.rc != 0:
        raise Failure("perfbench_gen failed: " + run.stderr.decode())
    digest = hashlib.sha256()
    for path in sorted((ROOT / LIBRARY).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def table_rows(text):
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in text.splitlines() if line.startswith("| ")]


def report_problems(c, text, size):
    """What is wrong with one report's content, or [] when it is sound."""
    rows = table_rows(text)
    if not rows:
        return ["no table"]
    if c.kind == "mc":
        by_scheme = {row[0]: row for row in rows[1:]}
        missing = [s for s in SCHEMES if s not in by_scheme]
        if missing:
            return ["missing scheme rows " + ", ".join(missing)]
        if by_scheme["NV-Based"][1:] != ["1.000 +/- 0.000", "1.000", "1.000"]:
            return ["NV-Based is not normalised to 1.000"]
    elif c.kind == "replay":
        if rows[0][1:5] != SCHEMES:
            return ["missing scheme columns"]
        if len(rows) - 1 != c.traces[size]:
            return [f"{len(rows) - 1} trace rows, expected {c.traces[size]}"]
        if any(row[1] != "1.000" for row in rows[1:]):
            return ["NV-Based is not normalised to 1.000"]
    else:
        if len(rows) < 2 or any(r[4] != "DIAC-Optimized" for r in rows[1:]):
            return ["no DIAC-Optimized front rows"]
        if "\nbest by " not in text:
            return ["no best-candidate line"]
    return []


def judge(c, runs, reference, golden, size):
    """Invocations failing the output check: non-zero exit, unsound report,
    stdout differing from the command's reference, or from the golden."""
    failed = 0
    for run in runs:
        digest = sha256(run.stdout)
        ok = (run.rc == 0 and digest == reference
              and (golden is None or digest == golden)
              and not report_problems(c, run.stdout.decode(errors="replace"),
                                      size))
        failed += not ok
    return failed


def golden_for(name, seed, size):
    """The committed stdout digest, for the default seed at full size with
    two threads (the job count is part of stdout)."""
    if seed != DEFAULT_SEED or size != "full" or threads() != 2:
        return None
    return json.loads((HERE / "golden.json").read_text()).get(name)


def body(text):
    """A report minus its first line, which echoes run parameters."""
    return text.split("\n", 1)[1] if "\n" in text else ""


# --- per-layer metrics from spans ------------------------------------------------

def covered(intervals):
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples above it, or (0, 0) when that percentile would not lie above
    the median (under 21 samples)."""
    if len(samples) < 21:
        return 0.0, 0.0
    ordered = sorted(samples)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


# Counters that take the largest value over a workload's commands; the
# others add up.
LARGEST = ("tree.tasks", "exp.threads")


def layer_metrics(docs):
    """Per-layer metrics of one round: the driver documents of the
    workload's commands.  Times and counts add up over the commands, and
    each ratio is taken over those sums."""
    sec = lambda s: (s["end_ns"] - s["start_ns"]) / 1e9
    named = defaultdict(list)
    counters = defaultdict(float)
    root_ns = covered_ns = 0
    straggler = search_synth_s = 0.0
    for doc in docs:
        spans, own = doc["spans"], defaultdict(list)
        for s in spans:
            own[s["name"]].append(s)
            named[s["name"]].append(s)
        for name, value in doc["counters"].items():
            counters[name] = (max(counters[name], value) if name in LARGEST
                              else counters[name] + value)

        root = own["workload"][0]
        root_ns += root["end_ns"] - root["start_ns"]
        covered_ns += covered([(s["start_ns"], s["end_ns"]) for s in spans
                               if s["parent"] == root["id"]])

        threads_n = doc["counters"].get("exp.threads", 0)
        for batch in own["exp.run"]:
            last = defaultdict(lambda: batch["start_ns"])
            for s in own["runtime.sim"]:
                if s["parent"] == batch["id"]:
                    last[s["thread"]] = max(last[s["thread"]], s["end_ns"])
            idle_from = list(last.values())
            idle_from += [batch["start_ns"]] * int(threads_n - len(idle_from))
            straggler += (batch["end_ns"] - min(idle_from)) / 1e9
        if own["search.run"]:
            search_synth_s += sum(sec(s) for s in own["diac.synthesize"])

    total = lambda name: sum(sec(s) for s in named[name])
    count = lambda name: float(counters.get(name, 0))
    threads_n = count("exp.threads")
    sims = [sec(s) for s in named["runtime.sim"]]
    sim_s, run_s = sum(sims), total("exp.run")
    tail_s, tail_pct = tail(sims)
    synth_calls = len(named["diac.synthesize"])
    parse_s = total("power.trace_parse")
    search_s = total("search.run")
    return {
        "netlist.build_s": total("netlist.build"),
        "tree.generate_s": total("tree.generate"),
        "tree.tasks": count("tree.tasks"),
        "diac.policy_s": total("diac.policy"),
        "diac.insert_nvm_s": total("diac.insert_nvm"),
        "diac.synthesize_s": total("diac.synthesize"),
        "diac.synthesize_calls": float(synth_calls),
        "diac.synthesize_ms_per_call":
            1e3 * total("diac.synthesize") / synth_calls if synth_calls else 0.0,
        "diac.commit_points": count("diac.commit_points"),
        "power.source_s": total("power.source"),
        "power.sources": count("power.sources"),
        "power.source_segments": count("power.source_segments"),
        "power.trace_parse_s": parse_s,
        "power.trace_rows": count("power.trace_rows"),
        "power.trace_mb_per_s":
            count("power.trace_bytes") / 1e6 / parse_s if parse_s else 0.0,
        "exp.library_load_s": total("exp.library_load"),
        "exp.run_s": run_s,
        "exp.jobs": count("exp.jobs"),
        "exp.job_busy_s": sim_s,
        "exp.utilization": sim_s / (run_s * threads_n) if run_s else 0.0,
        "exp.straggler_s": straggler,
        "runtime.sim_s": sim_s,
        "runtime.sims": float(len(sims)),
        "runtime.sim_us_p50": 1e6 * statistics.median(sims) if sims else 0.0,
        "runtime.sim_us_tail": 1e6 * tail_s,
        "runtime.sim_tail_pct": tail_pct,
        "runtime.events": count("runtime.events"),
        "runtime.ns_per_event":
            1e9 * sim_s / count("runtime.events") if sims else 0.0,
        "search.run_s": search_s,
        "search.candidates": count("search.candidates"),
        "search.unique_designs": count("search.unique_designs"),
        "search.evaluated": count("search.evaluated"),
        "search.pruned": count("search.pruned"),
        "search.prune_ratio": count("search.pruned") / count("search.candidates")
            if count("search.candidates") else 0.0,
        "search.synth_share": search_synth_s / search_s if search_s else 0.0,
        "metrics.sweep_jobs_s": total("metrics.sweep_jobs"),
        "metrics.summarize_s": total("metrics.summarize"),
        "metrics.report_s": total("metrics.report"),
        "trace.coverage": covered_ns / root_ns,
        "driver.total_s": root_ns / 1e9,
        "stages.mismatches": count("stages.mismatches"),
        "model.instances_completed": count("model.instances_completed"),
        "model.backups": count("model.backups"),
        "model.nvm_writes": count("model.nvm_writes"),
        "model.makespan_s": count("model.makespan_s"),
        "model.pdp_gain_opt_vs_nv_based":
            count("model.pdp_gain_opt_vs_nv_based"),
    }


# Per-layer values that must repeat exactly from run to run: the simulated
# statistics and the work counts.  A change in one is a model change.
EXACT = ("model.", "tree.tasks", "diac.commit_points",
         "power.sources", "power.source_segments", "power.trace_rows",
         "exp.jobs", "runtime.sims", "runtime.events", "search.candidates",
         "search.unique_designs", "search.evaluated", "search.pruned")


# --- the two kinds of run ----------------------------------------------------------

def setup(commands, seed, size):
    """One set-up: the seeded inputs plus one untimed warm-up invocation of
    each of the workload's commands."""
    start = time.perf_counter()
    inputs = make_inputs(commands.values(), seed, size)
    warm = {n: invoke([DIAC] + cli_args(c, seed, size))
            for n, c in commands.items()}
    return time.perf_counter() - start, inputs, warm


def timing_line(name, values, unit):
    """Median, tail, fastest and sample count of one timing."""
    tail_v, tail_pct = tail(values)
    tail_txt = (f"p{tail_pct:.0f} {tail_v:.4f}" if tail_pct
                else "no tail (under 21 samples)")
    return (f"{name:24s} median {statistics.median(values):.4f} {unit}, "
            f"{tail_txt}, min {min(values):.4f}, n {len(values)}")


def untraced(commands, seed, seconds, size):
    """Closed loop of rounds, one invocation of each command per round, for
    `seconds`, with SETUP_REPEATS set-ups spread evenly over the same
    window (the first before any timed invocation), so a slow stretch of
    the host reaches set-up and timed runs alike."""
    start = time.perf_counter()
    setups = [setup(commands, seed, size)]
    runs = {n: [] for n in commands}
    while True:
        now = time.perf_counter() - start
        if len(setups) < SETUP_REPEATS and \
                now >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup(commands, seed, size))
        elif now < seconds or min(map(len, runs.values())) < MIN_SAMPLES:
            for n, c in commands.items():
                runs[n].append(invoke([DIAC] + cli_args(c, seed, size)))
        else:
            break

    notes, human, failed = [], [], 0
    if len({s[1] for s in setups}) != 1:
        notes.append("seeded inputs differ between set-ups")
    for n, c in commands.items():
        reference = sha256(setups[0][2][n].stdout)
        golden = golden_for(n, seed, size)
        setup_failed = judge(c, [s[2][n] for s in setups], reference, golden,
                             size)
        if setup_failed:
            notes.append(f"{n}: {setup_failed} warm-up invocation(s) failed "
                         "the check")
        failed += judge(c, runs[n], reference, golden, size)
        human += [timing_line(f"{n} wall_s", [r.wall_s for r in runs[n]], "s"),
                  timing_line(f"{n} cpu_s", [r.cpu_s for r in runs[n]], "s"),
                  f"{n + ' peak_rss_mb':24s} median "
                  f"{statistics.median(r.rss_mb for r in runs[n]):.1f} MB"]

    attempted = sum(map(len, runs.values()))
    metrics = {
        "wall_min_s": (sum(min(r.wall_s for r in rs)
                           for rs in runs.values()), "s"),
        "cpu_min_s": (sum(min(r.cpu_s for r in rs)
                          for rs in runs.values()), "s"),
        "peak_rss_mb": (max(statistics.median(r.rss_mb for r in rs)
                            for rs in runs.values()), "MB"),
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
    }
    human += [timing_line("setup_s", [s[0] for s in setups], "s"),
              f"{'failed_frac':24s} {failed / attempted:.4f}  ({failed} of "
              f"{attempted} invocations failed the output check)"]
    return metrics, attempted, failed, notes, human


def traced(commands, seed, seconds, size):
    """Rounds of one driver replay and one CLI invocation of each command,
    for `seconds`; every per-layer metric is the median over the rounds."""
    _, _, warm = setup(commands, seed, size)
    notes, rounds, cli_walls, version = [], [], [], []
    failed = driver_failed = 0
    deadline = time.perf_counter() + seconds
    spans_path, report_path = WORK / "spans.json", WORK / "report.txt"
    while len(rounds) < MIN_TRACED or time.perf_counter() < deadline:
        docs, wall = [], 0.0
        for n, c in commands.items():
            argv = cli_args(c, seed, size)
            run = invoke([DRIVER] + argv + ["--spans-out", spans_path,
                                            "--report-out", report_path,
                                            "--run-id", len(rounds)])
            if run.rc != 0:
                raise Failure("perfbench_driver failed: " +
                              run.stderr.decode())
            docs.append(json.loads(spans_path.read_text()))
            # The driver's RunStats must reproduce the numbers the CLI prints.
            driver_failed += (body(report_path.read_text())
                              != body(warm[n].stdout.decode()))
            cli = invoke([DIAC] + argv)
            failed += judge(c, [cli], sha256(warm[n].stdout),
                            golden_for(n, seed, size), size)
            wall += cli.wall_s
        rounds.append(layer_metrics(docs))
        cli_walls.append(wall)
        version.append(invoke([DIAC, "version"]))
    failed += driver_failed
    if driver_failed:
        notes.append(f"{driver_failed} driver report(s) differ from the CLI")

    metrics = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if key.startswith(EXACT) and len(set(values)) != 1:
            notes.append(f"{key} differs between runs: {sorted(set(values))}")
        metrics[key] = statistics.median(values)
    if metrics.pop("stages.mismatches"):
        notes.append("the driver's stage split no longer reproduces "
                     "synthesize_scheme's designs; update driver.cpp")
    metrics["cli.exec_floor_s"] = statistics.median(r.wall_s for r in version)
    metrics["cli.unaccounted_s"] = (statistics.median(cli_walls)
                                    - metrics.pop("driver.total_s"))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {k: (v, units[k]) for k, v in metrics.items()}
    human = [f"{k:32s} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    attempted = 2 * len(rounds) * len(commands)
    human.append(f"rounds {len(rounds)}, driver replays and cli invocations "
                 f"{attempted}, failed {failed}")
    return metrics, attempted, failed, notes, human


def measure(name, seed, seconds, trace, size):
    commands = {n: COMMANDS[n] for n in WORKLOADS[name]}
    build(["perfbench_gen", "perfbench_driver"] if trace
          else ["perfbench_gen"])
    log(f"perfbench: {name} seed={seed} trace={trace} size={size}")
    prov = provenance()
    fn = traced if trace else untraced
    metrics, attempted, failed, notes, human = fn(commands, seed, seconds,
                                                  size)
    print(f"== {name}: {', '.join(commands)} "
          f"(seed {seed}, trace {trace}, size {size})")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in human + [f"note: {n}" for n in notes]:
        print(line)
    return {"correct": failed == 0 and not notes, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every sweep (self-test)")
    args = parser.parse_args()
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: measure(n, args.seed, args.seconds, args.trace,
                              args.size) for n in names}
    except Failure as e:
        log(f"perfbench: {e}")
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

Run one workload (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the library and the perfbench program in Release
under .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); later runs
only rebuild what changed. The program's report goes to standard output and
its last line is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1. Each result is also kept, stamped with the
host class and seed, under <build>/results/.

  python3 perfbench/run.py --selftest
      Injects three faults into the benchmark's own sinks and generator and
      checks that each shows where it must: a dropped delivery fails the
      run, a one-off sink stall raises latency_p99_ms by about the stall,
      and a generator that cannot keep pace shows in bench.gen_lag_p99_ms.

  python3 perfbench/run.py --compare DIR_A DIR_B
      Compares the kept results of two builds (median per workload and
      metric, against the bounds in BENCHMARK.json). Results recorded on
      different host classes are reported as not comparable; runs that
      failed their checks are left out of the medians and reported as
      failures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
HOST_CLASS = ("nproc", "build_type", "compiler", "scan")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure, 300)
    step(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
         850)
    binary = out / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def step(command, timeout):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{command[0]}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(command[:3])} ... exited {done.returncode}")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(trace):
    spec = load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run_program(binary, workload, seed, seconds, trace, inject=None,
               spans=None):
    """Runs the perfbench program once; returns (exit code, report lines, result)."""
    config = load_json(HERE / "workloads.json")
    shape = config["workloads"].get(workload)
    if shape is None:
        fail(f"unknown workload {workload!r}; known: "
             f"{', '.join(config['workloads'])}")
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--window", str(shape["window"]),
               "--rate", str(shape["open_rate_docs_per_s"])]
    if spans:
        command += ["--spans", str(spans)]
    if inject:
        command += ["--inject", inject]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{workload}: perfbench printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a result (exit {done.returncode})")
    return done.returncode, lines[:-1], result


def check_result(result, trace):
    """The result line's shape: exact keys, and every metric named once."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]["unit"]:
            fail(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says "
                 f"{want[name]['unit']!r}")


def host_stamp(lines):
    for line in lines:
        if line.startswith("host: "):
            return json.loads(line[len("host: "):])
    return {}


def run(args):
    binary = build()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = None
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        spans = spans / f"{args.workload}-seed{args.seed}.jsonl"
    code, lines, result = run_program(binary, args.workload, args.seed,
                                     args.seconds, args.trace, spans=spans)
    check_result(result, args.trace)
    for line in lines:
        print(line)
    record = {"host": host_stamp(lines), "seconds": args.seconds,
              "trace": args.trace, "result": result}
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    run_index = 0
    while (results / f"{stem}-{run_index}.json").exists():
        run_index += 1
    with open(results / f"{stem}-{run_index}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return code


def metric(result, name):
    return result["metrics"][name]["value"]


def printed(lines, name):
    """A metric's value from the report lines."""
    for line in lines:
        fields = line.split()
        if len(fields) >= 2 and fields[0] == name:
            return float(fields[1])
    fail(f"the report printed no {name}")


def selftest(_args):
    binary = build()
    seconds = 4
    checks = []

    code, lines, result = run_program(binary, "feed_shared_tags", 7, seconds,
                                     False, inject="drop")
    errors = [line for line in lines if line.startswith("ERROR")]
    checks.append(("a sink that drops one delivery fails the run",
                   code != 0 and result["failed"] > 0 and
                   not result["correct"],
                   f"exit {code}, failed {result['failed']}, "
                   f"{errors[0] if errors else 'no divergence printed'}"))

    stall_ms = 200
    _, lines, base = run_program(binary, "feed_shared_tags", 7, seconds, False)
    p99 = [printed(lines, "latency_p99_ms")]
    _, lines, stalled = run_program(binary, "feed_shared_tags", 7, seconds,
                                   False, inject=f"stall:{stall_ms}")
    p99.append(printed(lines, "latency_p99_ms"))
    checks.append((f"a one-off {stall_ms} ms sink stall raises "
                   "latency_p99_ms by about the stall",
                   base["correct"] and stalled["correct"] and
                   0.5 * stall_ms <= p99[1] - p99[0] <= 2.0 * stall_ms,
                   f"p99 {p99[0]:.3f} -> {p99[1]:.3f} ms"))

    config = load_json(HERE / "workloads.json")["workloads"]
    interval_us = 1e6 / config["feed_shared_tags"]["open_rate_docs_per_s"]
    slow_us = int(2 * interval_us)
    _, _, base = run_program(binary, "feed_shared_tags", 7, seconds, True)
    _, _, slow = run_program(binary, "feed_shared_tags", 7, seconds, True,
                            inject=f"slowgen:{slow_us}")
    lag0 = metric(base, "bench.gen_lag_p99_ms")
    lag1 = metric(slow, "bench.gen_lag_p99_ms")
    checks.append(("a generator that cannot keep pace shows in "
                   "bench.gen_lag_p99_ms",
                   lag1 >= 10 * interval_us / 1e3 and lag1 >= 10 * lag0,
                   f"lag p99 {lag0:.3f} -> {lag1:.3f} ms "
                   f"({slow_us} us extra per {interval_us:.0f} us slot)"))

    ok = True
    for what, passed, detail in checks:
        ok &= bool(passed)
        print(f"{'PASS' if passed else 'FAIL'}  {what}: {detail}")
    return 0 if ok else 1


def compare(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    failures = []

    def load(directory):
        runs = {}
        hosts = set()
        for path in sorted(Path(directory).glob("*.json")):
            record = load_json(path)
            if record.get("trace"):
                continue
            hosts.add(tuple(record["host"].get(k) for k in HOST_CLASS))
            if not record["result"]["correct"]:
                failures.append(path)
                continue
            workload = record["host"].get("workload", path.stem)
            runs.setdefault(workload, []).append(record["result"])
        return runs, hosts

    a, hosts_a = load(args.compare[0])
    b, hosts_b = load(args.compare[1])
    for path in failures:
        print(f"FAILED RUN {path}: its checks failed; left out of the medians")
    if len(hosts_a | hosts_b) != 1:
        print("not comparable: results come from different host classes "
              f"({', '.join(HOST_CLASS)}): {sorted(hosts_a)} vs "
              f"{sorted(hosts_b)}")
        return 0
    worse = 0
    for workload in sorted(set(a) & set(b)):
        for name, m in bounds.items():
            va = statistics.median(metric(r, name) for r in a[workload])
            vb = statistics.median(metric(r, name) for r in b[workload])
            change = (vb - va) / va if va else 0.0
            regressed = (change > m["bound"] if m["better"] == "lower"
                         else -change > m["bound"])
            worse += regressed
            print(f"{workload:18} {name:18} {va:12.4f} -> {vb:12.4f} "
                  f"{change:+7.1%} {'REGRESSION' if regressed else ''}")
    return 1 if worse or failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="DIR")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.compare:
        return compare(args)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

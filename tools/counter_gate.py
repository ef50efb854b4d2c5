#!/usr/bin/env python3
"""The counter gate: CI's benchmark check, on host-independent counters.

Runs a short traced perfbench run (seed 1) of every workload named in
BENCHMARK.json and checks the result's work counters against EXPECTED
below. Counters that are deterministic (events per document, machine visits
per event, results per document, ...) must match exactly; the two wire
counters that depend on timing (how the churn actor's subscriptions fall
between documents) must stay within the relative tolerance in TOLERANCE.
The run must also be correct: `correct: true` and `failed == 0`. A
counter missing from the result fails, so a renamed metric cannot drop
out of the gate unnoticed.

Wall-clock rows and the host-class line are printed and gated on nothing:
they move with the host, the counters do not.

  python3 tools/counter_gate.py

Takes no flags; run it from any directory. Exit 0 when every workload
passes, 1 otherwise, with the expected and observed value of each
mismatch. A change that moves a counter edits EXPECTED and says why.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 3

# The counters of each workload's traced run at seed 1. Identical on the
# avx2 and forced-scalar scan tiers and on 1 and 4 CPUs.
EXPECTED = {
    "feed_shared_tags": {
        "xml.events_per_doc": 2053,
        "xml.log_bytes_per_doc": 113961.5,
        "twigm.start_visits_per_event": 0.6649350649350649,
        "twigm.text_visits_per_node": 0.9980506822612085,
        "twigm.broadcast_visit_frac": 0,
        "twigm.machines": 256,
        "twigm.plan_hit_frac": 0,
        "twigm.results_per_doc": 256,
        "service.replays_per_doc": 2,
        "net.frames_out_per_doc": 257.6,
        "net.bytes_out_per_match": 59.08,
        "net.matches_dropped": 0,
        "net.connections_evicted": 0,
    },
    "protein_parse": {
        "xml.events_per_doc": 20569,
        "xml.log_bytes_per_doc": 1254901.25,
        "twigm.start_visits_per_event": 0.08912396275416481,
        "twigm.text_visits_per_node": 0,
        "twigm.broadcast_visit_frac": 0,
        "twigm.machines": 1,
        "twigm.plan_hit_frac": 0,
        "twigm.results_per_doc": 228,
        "service.replays_per_doc": 1,
        "net.frames_out_per_doc": 229.55,
        "net.bytes_out_per_match": 34.066,
        "net.matches_dropped": 0,
        "net.connections_evicted": 0,
    },
}

# Relative tolerances of the timing-dependent counters; every other
# counter in EXPECTED is exact. Over 12 runs per workload (both scan tiers,
# 4 CPUs and 1) frames/doc spanned 257.74-258.00 (feed) and 229.54-229.59
# (protein), bytes/match 59.083-59.102 and 34.065-34.068: 0.5% holds that
# with room and still fails one extra byte per MATCH frame (~1.7%).
TOLERANCE = {
    "net.frames_out_per_doc": 0.005,
    "net.bytes_out_per_match": 0.005,
}


def check(workload, result):
    """Returns one message per way `result` misses the workload's table."""
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}, expected true")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}, expected 0")
    expected = EXPECTED.get(workload)
    if expected is None:
        return problems + [f"no expectation table for workload {workload!r}"]
    metrics = result.get("metrics", {})
    for name, want in expected.items():
        if name not in metrics:
            problems.append(f"{name}: missing from the result")
            continue
        got = metrics[name]["value"]
        tolerance = TOLERANCE.get(name)
        if tolerance is None:
            if got != want:
                problems.append(f"{name}: expected {want!r}, observed {got!r}")
        elif abs(got - want) > tolerance * abs(want):
            problems.append(f"{name}: expected {want!r} within "
                            f"{tolerance:.1%}, observed {got!r}")
    return problems


def run(workload):
    """One traced perfbench run; returns (report lines, result or None)."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(RUN_SECONDS), "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return lines, None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        start = time.monotonic()
        lines, result = run(workload)
        print(f"== {workload} ({time.monotonic() - start:.0f} s)")
        for line in lines:
            if line.startswith("host: "):
                print(line)
        if result is None:
            print("FAIL  perfbench printed no result line")
            failures += 1
            continue
        gated = EXPECTED.get(workload, {})
        for name, m in result.get("metrics", {}).items():
            print(f"  {name:38} {m['value']:14.6g} {m['unit']:7} "
                  f"{'gated' if name in gated else 'not gated'}")
        problems = check(workload, result)
        for problem in problems:
            print(f"FAIL  {workload}: {problem}")
        if not problems:
            print(f"PASS  {workload}: {len(gated)} counters")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

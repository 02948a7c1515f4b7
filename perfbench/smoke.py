#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny n.

Run from the root of the repository:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs perfbench/run.py once
untraced and once traced at a tiny size, and checks that:

- each run exits 0 and ends with a result line holding exactly the keys
  correct, attempted, failed and metrics, with correct = true;
- the untraced run emits every end_to_end metric of BENCHMARK.json with
  its unit, and the traced run every per_layer metric with its unit;
- the traced and untraced run records hold the same end-to-end names.

It also prints the tracing overhead: the traced run's end-to-end numbers
minus the untraced run's.  Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

TINY = {
    "disco-glp": ["--n", "128", "--flows", "64"],
    "disco-geo": ["--n", "128", "--flows", "64"],
    "schemes-compare": ["--n", "96", "--flows", "32"],
    "churn": ["--n", "48", "--flows", "32"],
}
SEED = 7


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace):
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
        "--trace", str(trace),
    ] + TINY[workload]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}:\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[-1][:300]}")
    tag = "traced" if trace else "untraced"
    with open(os.path.join("perfbench", "out", f"{workload}-seed{SEED}-{tag}.json")) as f:
        record = json.load(f)
    return result, record


def check_names(workload, got, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: m["unit"] for name, m in got.items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(n for n in want if n in have and have[n] != want[n])
        fail(f"{workload} {what}: missing {missing}, extra {extra}, unit differs {units}")
    for name, m in got.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload} {what}: {name} is not a number")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(TINY):
        fail(f"workloads {names} differ from the smoke sizes {sorted(TINY)}")
    for w in names:
        plain, plain_rec = run(w, 0)
        traced, traced_rec = run(w, 1)
        check_names(w, plain["metrics"], bench["end_to_end"], "end_to_end")
        check_names(w, traced["metrics"], bench["per_layer"], "per_layer")
        if set(plain_rec["end_to_end"]) != set(traced_rec["end_to_end"]):
            fail(f"{w}: traced and untraced runs emit different end-to-end names")
        print(f"smoke: {w}: ok ({plain['attempted']} packets untraced)")
        for m in bench["end_to_end"]:
            a = plain_rec["end_to_end"][m["name"]]["value"]
            b = traced_rec["end_to_end"][m["name"]]["value"]
            print(f"    tracing overhead {m['name']:22s} {b - a:+.6g} {m['unit']}")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()

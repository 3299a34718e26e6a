#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py [--workloads elim,full,light]

1. One seed generates byte-identical inputs and the same ops twice.
2. Two traced runs give identical per-layer counts (every per-layer metric
   except the times and ``trace.overhead``).
3. Every op of the default seed passes, with its output checked against
   the recorded reference (fail_ratio = 0), and the metric names and units
   printed match BENCHMARK.json.

Each traced run takes about three passes of its workload, so the whole
file takes several minutes.  The file is not named ``test_*.py`` on
purpose: the package's own pytest suite does not collect it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

DEFAULT_SEED = 0


def bench(workload: str, trace: int, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_generation_is_deterministic(workload: str) -> None:
    import importlib
    import workloads

    sys.path.insert(0, str(run.SRC))
    api = importlib.import_module("assigncoh")
    files1, ops1 = workloads.generate(api, workload, DEFAULT_SEED)
    files2, ops2 = workloads.generate(api, workload, DEFAULT_SEED)
    assert files1 == files2, "input files differ between two generations"
    assert [(o.argv, o.expect, o.check) for o in ops1] == \
           [(o.argv, o.expect, o.check) for o in ops2], "ops differ between two generations"
    _, ops3 = workloads.generate(api, workload, DEFAULT_SEED + 1)
    assert [o.argv for o in ops1] != [o.argv for o in ops3], "the seed changes nothing"


def test_traced_counts_repeat(workload: str, spec: dict) -> None:
    a, b = bench(workload, 1), bench(workload, 1)
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name, m in a["metrics"].items():
        if m["unit"] != "s" and name != "trace.overhead":
            assert m["value"] == b["metrics"][name]["value"], \
                f"{name}: {m['value']} vs {b['metrics'][name]['value']}"


def test_default_seed_passes(workload: str, spec: dict) -> None:
    r = bench(workload, 0)
    assert r["correct"] and r["failed"] == 0, f"{r['failed']} of {r['attempted']} ops failed"
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in r["metrics"].items()} == want
    assert run.load_reference(workload, DEFAULT_SEED) is not None, "no reference recorded"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in args.workloads.split(","):
        for test in (test_generation_is_deterministic, test_default_seed_passes,
                     test_traced_counts_repeat):
            test(*((workload,) if test is test_generation_is_deterministic
                   else (workload, spec)))
            print(f"ok  {test.__name__}[{workload}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

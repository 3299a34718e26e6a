#!/usr/bin/env python3
"""Record the reference output of every op, for the seeds the runs check.

    python3 perfbench/make_reference.py [--seeds 0-15] [--workloads elim,full,light]

For each workload and seed it generates the inputs, runs every op once,
and stores ``[exit code, SHA-256 of stdout]`` per op in
``reference/<workload>.json``.  It refuses to record a seed whose ops fail
the reference-free checks.  Record only at a commit whose outputs are
trusted: every later run with a recorded seed must reproduce these bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def record(workload: str, seed: int):
    workdir = run.WORK / f"ref-{workload}-{seed}-{os.getpid()}"
    here = os.getcwd()
    try:
        ops, _, passes = run.cycles(workload, seed, workdir, [None])
        os.chdir(workdir / "in0")
        _, failed = run.verify(ops, passes, None, lambda msg: print(msg, file=sys.stderr))
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        raise SystemExit(f"{workload} seed {seed}: {failed} ops fail their checks; not recorded")
    return [[code, run._sha(out)] for code, out, *_ in passes[0][1]]


def format_table(table: dict) -> str:
    """The reference JSON with one line per seed."""
    seeds = sorted(table["seeds"].items(), key=lambda kv: int(kv[0]))
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds)
    return '{"seeds": {\n' + body + "\n}}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-15", help="range 'a-b' or list 'a,b,c'")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    if "-" in args.seeds:
        lo, hi = map(int, args.seeds.split("-"))
        seeds = range(lo, hi + 1)
    else:
        seeds = [int(s) for s in args.seeds.split(",")]
    if not (run.SRC / "assigncoh" / "__init__.py").is_file():
        raise SystemExit(f"no assigncoh sources under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    for workload in args.workloads.split(","):
        path = run.HERE / "reference" / f"{workload}.json"
        table = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
        for seed in seeds:
            table["seeds"][str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: {len(table['seeds'][str(seed)])} ops recorded")
        path.parent.mkdir(exist_ok=True)
        path.write_text(format_table(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())

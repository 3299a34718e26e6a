#!/usr/bin/env python3
"""Run the mutation catalogue of `tests/mutants.py`.

    python3 tests/run_mutants.py [--only NAME[,NAME...]] [--all]

For each mutant it copies `src/`, `tests/`, `perfbench/` and
`pyproject.toml` into a temporary directory, replaces the snippet in the
copy, and runs pytest there on the mutant's named tests (with ``--all``,
on the whole suite, to see every test a mutant fails).  A mutant is killed when every named test
fails; a documented survivor passes when every named test passes.  The
mutants run one after another, one pytest process at a time.  Exit code
0 when every mutant behaves as recorded, 1 otherwise.  It is not part of
the tier-1 suite: the whole set takes minutes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def _failed_ids(output: str):
    """Node ids of the FAILED and ERROR lines of a `pytest -rfE` summary."""
    out = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.append(line[len(tag):].split(" - ")[0].strip())
    return out


def _hit(name: str, failed) -> bool:
    return any(f == name or f.startswith(name + "[") for f in failed)


def run_one(mutant, whole_suite: bool, timeout: float = 900.0):
    """(passed, failed ids, seconds, timed out) of one mutant's pytest run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(ROOT / "src", tmp / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tmp / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # the digest test reads the benchmark's generator and references
        shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        path = tmp / "src" / "assigncoh" / mutant.module
        source = path.read_text()
        if source.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once")
        path.write_text(source.replace(mutant.snippet, mutant.replacement))
        # in the copy the snippet is gone, so the catalogue's own test fails
        targets = (["--ignore=tests/test_mutants.py"] if whole_suite
                   else list(mutant.killers))
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--tb=no", "-rfE", *targets]
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False, [], time.perf_counter() - start, True
        return (proc.returncode == 0, _failed_ids(proc.stdout),
                time.perf_counter() - start, False)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", help="comma-separated mutant names")
    ap.add_argument("--all", action="store_true",
                    help="run the whole suite per mutant and list every failing test")
    args = ap.parse_args()
    chosen = MUTANTS
    if args.only:
        names = set(args.only.split(","))
        unknown = names - {m.name for m in MUTANTS}
        if unknown:
            raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
        chosen = [m for m in MUTANTS if m.name in names]
    bad = 0
    for m in chosen:
        passed, failed, seconds, timed_out = run_one(m, args.all)
        missed = [k for k in m.killers if not _hit(k, failed)]
        if timed_out:
            verdict, ok = "killed (timeout)", not m.survives
        elif m.survives:
            verdict, ok = "survives (documented)" if passed else "fails its tests", passed
        elif not failed and not passed:
            verdict, ok = "error: pytest failed without a failing test", False
        elif missed:
            verdict, ok = "NOT KILLED by " + ", ".join(missed), False
        else:
            verdict, ok = f"killed ({len(failed)} failed)", True
        bad += not ok
        print(f"{m.name}: {verdict} [{seconds:.1f} s]", flush=True)
        if args.all:
            for f in failed:
                print(f"    {f}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants as recorded")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())

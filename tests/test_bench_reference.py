"""Byte identity of the benchmark's recorded outputs, seeds 0 and 1.

The `elim`, `full` and `light` workloads of seed 0, and `elim` and `full`
of seed 1, are generated with the benchmark's own generator
(`perfbench/workloads.py`), every op is run through `assigncoh.cli.main`,
and each exit code and stdout SHA-256 must equal the digests recorded in
`perfbench/reference/<workload>.json`.  Nothing under `perfbench/` is
written.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import assigncoh
from assigncoh import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _check_recorded_digests(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    files, ops = workloads.generate(assigncoh, workload, seed)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    expected = reference["seeds"][str(seed)]
    assert len(expected) == len(ops)
    monkeypatch.chdir(tmp_path)
    for i, (op, (code, digest)) in enumerate(zip(ops, expected)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                got = cli.main(list(op.argv))
            except SystemExit as e:  # argparse usage errors
                got = e.code
        sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert (got, sha) == (code, digest), f"op {i}: {' '.join(op.argv)}"


@pytest.mark.parametrize("workload", ["elim", "full", "light"])
def test_seed0_matches_recorded_digests(workload, tmp_path, monkeypatch):
    _check_recorded_digests(workload, 0, tmp_path, monkeypatch)


@pytest.mark.parametrize("workload", ["elim", "full"])
def test_seed1_matches_recorded_digests(workload, tmp_path, monkeypatch):
    # the workloads whose degree-0 and degree-1 ops the forest pass serves
    _check_recorded_digests(workload, 1, tmp_path, monkeypatch)

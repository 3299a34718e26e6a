#!/usr/bin/env python3
"""Fingerprint the command line's output on a fixed list of argvs.

    python3 tests/cli_bytes.py [SRC]

It builds its inputs in a temporary directory (space files with the
package's own `build`, JSON stubs written here), then runs each argv of
ARGVS there in a fresh `python -m assigncoh` with COLUMNS=80 and
PYTHONPATH=SRC (default `src`).  It prints one line per argv: the exit
code, the first 12 hex digits of the sha256 of stdout and of stderr, and
the argv.  Paths in the argvs are relative to the temporary directory, so
two checkouts print the same lines exactly when their command lines give
the same bytes:

    python3 tests/cli_bytes.py > change.txt
    python3 tests/cli_bytes.py ../parent/src > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# space files made by `build` before any argv runs
BUILDS = (
    ["build", "polytope", "--square", "--out", "sq.space"],
    ["build", "polytope", "--triangle", "--out", "tri.space"],
    ["build", "sphere-product", "--n", "2", "--lambdas", "1,0;0,1;1,-1", "--out", "s6.space"],
)

_SEGMENT = {"dim": 1, "facets": [["left", [1]], ["right", [-1]]],
            "vertices": [["v0", ["left"]], ["v1", ["right"]]]}
_SQUARE_VERTICES = ("v00", "v01", "v10", "v11")

# JSON stubs: name -> decoded JSON, or raw text where the file is no JSON
STUBS = {
    "seg.json": _SEGMENT,
    "seg_vertices_string.json": dict(_SEGMENT, vertices="v0"),
    "seg_no_dim.json": {k: v for k, v in _SEGMENT.items() if k != "dim"},
    "seg_broken.json": '{"dim": 1, "facets": [',
    "values.json": {"values": {x: [1, 2] for x in _SQUARE_VERTICES}},
    "values_apart.json": {"values": {"v00": [1, 0], "v01": [0, 0], "v10": [1, 0],
                                     "v11": [0, 0]}},
    "values_short.json": {"values": {"v00": [1, 2]}},
    "values_one_over_zero.json": {"values": {x: ["1/0", 2] for x in _SQUARE_VERTICES}},
    "values_list.json": {"values": [[1, 2]]},
    "values_none.json": {"value": {}},
    "values_broken.json": '{"values": {"v00": [1,',
    "top_list.space": [],
    "cycle.space": {"torus_dim": 1, "strata": [{"id": x, "stabilizer": [[1]]}
                                               for x in ("s0", "s1", "s2")],
                    "covers": [["s0", "s1"], ["s1", "s2"], ["s2", "s0"]]},
    # a < b < c with proj(a, c) = 2 off the composed covers: the failing triple (a, b, c)
    "off_laws.space": {"torus_dim": 2,
                       "strata": [{"id": "a", "stabilizer": [[1, 0], [0, 1]]},
                                  {"id": "b", "stabilizer": [[1, 0]]},
                                  {"id": "c", "stabilizer": []}],
                       "covers": [["a", "b"], ["b", "c"]],
                       "dims": {"a": 1, "b": 1, "c": 1},
                       "projections": [{"pair": ["a", "b"], "matrix": [["1"]]},
                                       {"pair": ["b", "c"], "matrix": [["1"]]},
                                       {"pair": ["a", "c"], "matrix": [["2"]]}]},
}

_NAMES = ("assignments", "cohomology", "build", "check", "extend", "decompose")

_HANDLERS = (
    ["assignments", "sq.space"],
    ["cohomology", "sq.space", "--degree", "0"],
    ["cohomology", "s6.space", "--degree", "1", "--complex", "full"],
    ["cohomology", "s6.space", "--degree", "1", "--complex", "both"],
    ["cohomology", "tri.space", "--degree", "1", "--complex", "both", "--relative", "v0,v1"],
    ["cohomology", "tri.space", "--degree", "1", "--relative", "v0,v1"],
    ["cohomology", "sq.space", "--degree", "0", "--relative", "v00,v01"],
    ["cohomology", "sq.space", "--degree", "0", "--complex", "both", "--relative", "interior"],
    ["build", "linear-rep", "--weights", "1,0;0,1;1,1", "--out", "lin.space"],
    ["build", "sphere-product", "--n", "1", "--lambdas", "1;2"],
    ["build", "polytope", "--file", "seg.json", "--out", "seg.space"],
    ["build", "product", "--left", "tri.space", "--right", "sq.space"],
    ["check", "sq.space", "--euler", "--les", "v00"],
    ["extend", "sq.space", "--values", "values.json"],
    ["decompose", "--weights", "1,0;0,1", "--psi", "[1,0] z1 zb1 + [0,2] z2^2 zb2"],
)

_REFUSALS = (
    # exit 1: unreadable input
    ["build", "polytope", "--file", "seg_vertices_string.json"],
    ["build", "polytope", "--file", "seg_no_dim.json"],
    ["build", "polytope", "--file", "seg_broken.json"],
    ["build", "polytope", "--file", "seg_missing.json"],
    ["extend", "sq.space", "--values", "values_one_over_zero.json"],
    ["extend", "sq.space", "--values", "values_list.json"],
    ["extend", "sq.space", "--values", "values_none.json"],
    ["extend", "sq.space", "--values", "values_broken.json"],
    ["extend", "sq.space", "--values", "values_missing.json"],
    ["assignments", "top_list.space"],
    ["decompose", "--weights", "1,0;0,1", "--psi", "[1,0 z1"],
    ["build", "linear-rep", "--weights", "1,x"],
    # exit 2: semantic validation
    ["assignments", "cycle.space"],
    ["extend", "sq.space", "--values", "values_short.json"],
    ["build", "linear-rep", "--weights", "1,0;1"],
    # exit 3: a subset that is not a union of strata
    ["cohomology", "sq.space", "--degree", "1", "--relative", "nowhere"],
    ["check", "sq.space", "--les", "v00,nowhere"],
    # exit 4: incompatible minimal values
    ["extend", "sq.space", "--values", "values_apart.json"],
    # exit 5: the moment condition fails
    ["decompose", "--weights", "1,0;0,1", "--psi", "[0,1] z1 zb1"],
    ["decompose", "--weights", "1,0;0,1", "--psi", "[1,0] + [1,0] z1 zb1"],
)

# a system off the functor laws: where d_k d_{k-1} != 0 decides the exit code
_OFF_LAWS = tuple(["cohomology", "off_laws.space", *args] for args in (
    ["--degree", "1"],
    ["--degree", "1", "--complex", "full", "--relative", "c"],
    ["--degree", "1", "--complex", "full", "--relative", "a"],
    ["--degree", "2", "--complex", "both", "--relative", "a"],
    ["--degree", "40", "--complex", "full", "--relative", "c"],
))

# the byte-identity list of the one-parser change, then every handler in text
# and --json, then refusals of every exit code from 1 to 5 and the system off
# the laws in both forms
ARGVS = (
    [], ["-h"], ["--help"], ["--json"], ["--json", "bogus"], ["bogus"],
    ["--bogus", "check", "sq.space"],
    *([name, "-h"] for name in _NAMES),
    ["check"], ["assignments"], ["assignments", "a", "b"], ["extend", "sq.space"],
    ["cohomology", "sq.space"],
    ["cohomology", "sq.space", "--degree", "1", "--complex", "weird"],
    ["cohomology", "sq.space", "--degree", "x"],
    ["cohomology", "sq.space", "--deg", "1"], ["cohomology", "missing.space", "--deg", "1"],
    ["build", "nope"], ["build", "polytope", "--cub"], ["build", "product", "--left"],
    ["check", "sq.space", "--json"], ["check", "sq.space", "--euler=1"],
    ["decompose", "--weights", "1,0"],
    *(argv for plain in _HANDLERS + _REFUSALS + _OFF_LAWS
      for argv in (plain, ["--json", *plain])),
)


def _run(src: Path, cwd: Path, argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "assigncoh", *argv], cwd=cwd, env=env,
                          capture_output=True)


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def fingerprints(src: Path, argvs=ARGVS):
    """One line per argv: exit code, stdout and stderr sha256 prefixes, argv."""
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        tmp = Path(tmp)
        for argv in BUILDS:
            _run(src, tmp, argv).check_returncode()
        for name, content in STUBS.items():
            (tmp / name).write_text(content if isinstance(content, str) else json.dumps(content))
        for argv in argvs:
            proc = _run(src, tmp, argv)
            yield (f"{proc.returncode} {_short(proc.stdout)} {_short(proc.stderr)} "
                   f"{shlex.join(argv)}")


def main(argv) -> int:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    for line in fingerprints(src):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

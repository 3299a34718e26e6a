"""Seeded fuzz of the command line on mutated space files.

The square's space file and the same space as a generic system (explicit
dims and cover projections) get one or two leaves replaced by hostile
JSON values.  Every command run on the result must return a documented
exit code (0-5) and raise nothing.  Mutations that grow sizes (a huge
torus_dim, say) are left out: there is no size budget to refuse them yet.

Integer literals longer than the interpreter converts and nesting deeper
than the JSON decoder follows are tried on their own, in every input file
and in a polynomial: each must exit 1.
"""

import copy
import json
import random

import pytest

from assigncoh import SpaceDescription, build_from_description, cli

VALUES = [1.5, 1e400, -1, True, "x", None, [], {}, "1/2"]
COMMANDS = [["assignments"], ["check", "--euler"], ["cohomology", "--degree", "1"]]
MUTATIONS_PER_FILE = 100


@pytest.fixture()
def square_files(capsys, tmp_path):
    path = tmp_path / "square.space"
    assert cli.main(["build", "polytope", "--square", "--out", str(path)]) == 0
    capsys.readouterr()
    plain = json.loads(path.read_text())
    space, system = build_from_description(SpaceDescription.from_json_dict(plain))
    generic = copy.deepcopy(plain)
    generic["dims"] = dict(system.dims)
    generic["projections"] = [
        {"pair": [x, y], "matrix": [[str(e) for e in row] for row in system.proj(x, y).data]}
        for x, y in space.covers
    ]
    return {"square": plain, "square-generic": generic}


def _leaves(obj, path=()):
    """Paths to every scalar and every empty container in obj."""
    if isinstance(obj, dict) and obj:
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path


def _mutated(obj, rng):
    out = copy.deepcopy(obj)
    leaves = list(_leaves(out))
    changes = []
    for path in rng.sample(leaves, rng.randint(1, 2)):
        value = rng.choice(VALUES)
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        changes.append((path, value))
    # JSON reads 1e400 as infinity; write it the way a file would carry it
    return json.dumps(out).replace("Infinity", "1e400"), changes


def test_mutated_space_files_end_in_documented_exit_codes(capsys, tmp_path, square_files):
    rng = random.Random(83)
    codes = set()
    path = tmp_path / "mutated.space"
    for name, obj in sorted(square_files.items()):
        for _ in range(MUTATIONS_PER_FILE):
            text, changes = _mutated(obj, rng)
            path.write_text(text)
            for command in COMMANDS:
                argv = ["--json", command[0], str(path)] + command[1:]
                try:
                    code = cli.main(argv)
                except Exception as exc:   # the finding: report the input
                    pytest.fail(f"{name} {changes} {command}: raised {exc!r}")
                capsys.readouterr()
                assert code in range(6), (name, changes, command, code)
                codes.add(code)
    assert {0, 1, 2} <= codes


LONG = "9" * 5000   # over the interpreter's default limit of 4300 digits
DEEP = "[" * 200_000


def test_over_long_literals_and_deep_nesting_exit_1(capsys, tmp_path, square_files):
    space = tmp_path / "square.space"
    space.write_text(json.dumps(square_files["square"]))
    values = tmp_path / "values.json"
    values.write_text(json.dumps({"values": {}}))
    long_space = json.dumps(square_files["square"]).replace('"torus_dim": 2', '"torus_dim": ' + LONG)
    assert LONG in long_space
    hostile = {
        "long.space": long_space,
        "long-values.json": '{"values": {"v0": [' + LONG + ', 0]}}',
        "long-polytope.json": '{"dim": ' + LONG + ', "facets": [], "vertices": []}',
        "deep.json": DEEP,
    }
    runs = []
    for name, text in hostile.items():
        path = tmp_path / name
        path.write_text(text)
        runs += [
            ["assignments", str(path)],
            ["extend", str(path), "--values", str(values)],
            ["extend", str(space), "--values", str(path)],
            ["build", "polytope", "--file", str(path)],
        ]
    for psi in ["[" + LONG + "] z1", "[1] z1^" + LONG, "[1/" + LONG + "] z1", "[1] z" + LONG]:
        runs.append(["decompose", "--weights", "1", "--psi", psi])
    for argv in runs:
        for report in ([], ["--json"]):
            try:
                code = cli.main(report + argv)
            except Exception as exc:   # the finding: report the input
                pytest.fail(f"{[a[:40] for a in argv]}: raised {exc!r}")
            err = capsys.readouterr().err
            assert code == 1, ([a[:40] for a in argv], code, err[:200])
            assert err.startswith("error: ") and "Traceback" not in err

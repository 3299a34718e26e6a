"""Command line interface: commands, exit codes, deterministic output."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import types
import weakref
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import assigncoh
import assigncoh.cochain
import assigncoh.coeffsys
from assigncoh.cochain import _Complex
from assigncoh.ratlin import _rank, _transpose
from assigncoh import (
    SpaceDescription,
    assignment_basis,
    build_from_description,
    build_polytope,
    build_product,
    build_sphere_product,
    chain_space_dim,
    chains,
    check_functor,
    cli,
    errors,
    is_assignment,
    les_coefficients_check,
    les_pair_check,
    pair_ses,
    preset_polytope,
)

from oracles import _composes_to_zero
from spaces import cp2, free_stratum, s4, s4_chain, two_stratum


@pytest.fixture()
def cp2_file(tmp_path):
    space, _ = cp2()
    desc = SpaceDescription.from_space(space)
    path = tmp_path / "cp2.space"
    path.write_text(json.dumps(desc.to_json_dict(), sort_keys=True))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _module_env():
    """Environment in which `python -m assigncoh` imports this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


# ---------------------------------------------------------------------------
# the parser


def _exit(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), which argparse may end by SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def parser_inits(monkeypatch):
    """The prog of every ArgumentParser constructed while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


# an argv past its subcommand name for each subcommand
_RESTS = {
    "assignments": ["a.space"],
    "cohomology": ["a.space", "--degree", "1", "--complex", "both", "--relative", "x,y"],
    "build": ["polytope", "--cube", "--out", "c.space"],
    "check": ["a.space", "--euler", "--les", "x"],
    "extend": ["a.space", "--values", "v.json"],
    "decompose": ["--weights", "1,0;0,1", "--psi", "z1"],
}


def _help_label(arg, kwargs):
    """How argparse's help names a declared argument."""
    choices = kwargs.get("choices")
    metavar = "{" + ",".join(choices) + "}" if choices else arg.lstrip("-").upper()
    if not arg.startswith("-"):
        return metavar if choices else arg
    return arg if "action" in kwargs else f"{arg} {metavar}"


def test_parser_lists_every_subcommand_and_option(capsys, monkeypatch):
    """Help lists every subcommand with its help line and every declared
    argument of each; usage errors name every subcommand."""
    monkeypatch.setenv("COLUMNS", "80")
    names = [name for name, *_ in cli._COMMANDS]
    assert sorted(_RESTS) == sorted(names)
    code, out, err = _exit(capsys, ["--help"])
    assert (code, err) == (0, "")
    listed = [line.split() for line in out.splitlines()]
    for name, help_text, _, arguments in cli._COMMANDS:
        assert [name] + help_text.split() in listed, name
        code, out, err = _exit(capsys, [name, "-h"])
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: assigncoh {name} [-h]")
        lines = [line.split() for line in out.splitlines()]
        for arg, kwargs in arguments:
            label = _help_label(arg, kwargs) + " " + kwargs.get("help", "")
            assert label.split() in lines, (name, arg)

    # usage errors: an unknown subcommand, none, an unknown option, no file
    for argv in (["bogus"], [], ["--bogus", "check", "f"], ["check"]):
        code, out, err = _exit(capsys, argv)
        assert (code, out) == (2, ""), argv
        if argv == ["check"]:
            assert err.endswith("assigncoh check: error: the following arguments are "
                                "required: file\n")
        else:
            assert "{" + ",".join(names) + "}" in err
        if argv == ["bogus"]:
            assert "(choose from " + ", ".join(map(repr, names)) + ")" in err


def _argparse_answer(argv):
    """argparse's namespace for argv as a dict, or None where it exits (help or usage)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _table_argv(rng, name, arguments):
    """A plain argv of one subcommand: every required argument, some of the rest, shuffled."""
    words = []
    for arg, kwargs in arguments:
        if not arg.startswith("-"):
            words.append([rng.choice(kwargs.get("choices", ("a.space", "x,y", "")))])
        elif "action" in kwargs:
            if rng.random() < 0.5:
                words.append([arg])
        elif kwargs.get("required") or rng.random() < 0.6:
            value = rng.choice(kwargs.get("choices") or (
                ("0", "1", "12") if kwargs.get("type") else ("x", "1,0;0,1", "z1", "", "a b")))
            words.append([f"{arg}={value}"] if rng.random() < 0.4 else [arg, value])
    rng.shuffle(words)
    return ["--json"] * (rng.random() < 0.5) + [name] + [w for word in words for w in word]


# tokens that a plain argv never holds, or holds at most once
_ODD_TOKENS = (["-h"], ["--"], ["--deg"], ["-1"], [""], ["-"], ["--euler=1"], ["--json"],
               ["--psi", "-[1,0] z1 + [0,1] z2"], ["--degree", "-1"], ["x"], ["--complex"])


def test_plain_reader_answers_as_argparse_seeded():
    """Fuzz: wherever argparse refuses an argv the reader returns None, and a
    namespace the reader returns is argparse's."""
    rng = random.Random(48)
    read = refused = 0
    for _ in range(250):
        name, _, _, arguments = rng.choice(cli._COMMANDS)
        base = _table_argv(rng, name, arguments)
        assert vars(cli._plain_args(base)) == _argparse_answer(base), base
        for _ in range(6):
            argv = list(base)
            for _ in range(rng.randint(1, 2)):
                move = rng.randrange(5)
                i = rng.randrange(len(argv) + 1)
                if move == 0 and argv:
                    del argv[min(i, len(argv) - 1)]
                elif move == 1:
                    argv[i:i] = rng.choice(_ODD_TOKENS)
                elif move == 2 and len(argv) > 1:
                    j, k = rng.sample(range(len(argv)), 2)
                    argv[j], argv[k] = argv[k], argv[j]
                elif move == 3:
                    # a repeated option, or --json toggled
                    options = [a for a in argv if a.startswith("--") and a != "--json"]
                    argv[i:i] = [rng.choice(options)] if options else ["--json"]
                else:
                    argv = argv[1:] if argv[:1] == ["--json"] else ["--json"] + argv
            plain, answer = cli._plain_args(argv), _argparse_answer(argv)
            if answer is None:
                refused += 1
                assert plain is None, argv
            elif plain is not None:
                read += 1
                assert vars(plain) == answer, argv
    assert read > 200 and refused > 200


def _workload_argvs(monkeypatch):
    """The argv of every op of each benchmark workload at seed 0; nothing is written."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    return [list(op.argv) for workload in ("elim", "full", "light")
            for op in workloads.generate(assigncoh, workload, 0)[1]]


def test_plain_argv_builds_no_parser(monkeypatch, parser_inits):
    """main reads a plain argv without argparse: no ArgumentParser is constructed."""
    ran = []
    monkeypatch.setattr(cli, "_run", lambda args: ran.append(args) or 0)
    argvs = [pre + [name] + rest for name, rest in _RESTS.items() for pre in ([], ["--json"])]
    argvs += _workload_argvs(monkeypatch)
    assert len(argvs) > 100
    for argv in argvs:
        parser_inits.clear()
        assert cli.main(list(argv)) == 0
        assert parser_inits == [], argv
        assert vars(ran[-1]) == _argparse_answer(argv), argv


def test_plain_argv_imports_no_argparse(cp2_file):
    """A fresh process runs a plain argv to its report without importing argparse."""
    script = ("import sys; from assigncoh import cli; code = cli.main(sys.argv[1:]); "
              "print(code, 'argparse' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, "--json", "check", cp2_file, "--euler"],
                          capture_output=True, text=True, env=_module_env(), timeout=120)
    assert json.loads(proc.stdout)["command"] == "check"
    assert proc.stderr == "0 False\n"


def test_edge_cases_stay_with_argparse(capsys, cp2_file, monkeypatch, parser_inits):
    """A value argparse reads by its own rules, a bad choice, a missing
    option and a bad positional go through argparse, with its messages."""
    monkeypatch.setenv("COLUMNS", "80")
    usage = ("usage: assigncoh cohomology [-h] --degree DEGREE\n"
             "                            [--complex {full,reduced,both}]\n"
             "                            [--relative RELATIVE]\n"
             "                            file\n")
    cases = [
        (["cohomology", cp2_file, "--degree", "-1"], "error: degree must be >= 0\n"),
        (["cohomology", cp2_file, "--degree", "1", "--complex", "weird"],
         usage + "assigncoh cohomology: error: argument --complex: invalid choice: 'weird' "
         "(choose from 'full', 'reduced', 'both')\n"),
        (["cohomology", cp2_file], usage + "assigncoh cohomology: error: the following "
         "arguments are required: --degree\n"),
        (["build", "nope"],
         "usage: assigncoh build [-h] [--weights WEIGHTS] [--n N] [--lambdas LAMBDAS]\n"
         "                       [--segment] [--triangle] [--square] [--pentagon]\n"
         "                       [--cube] [--file FILE] [--left LEFT] [--right RIGHT]\n"
         "                       [--out OUT]\n"
         "                       {linear-rep,sphere-product,polytope,product}\n"
         "assigncoh build: error: argument kind: invalid choice: 'nope' (choose from "
         "'linear-rep', 'sphere-product', 'polytope', 'product')\n"),
    ]
    for argv, err in cases:
        assert cli._plain_args(argv) is None
        parser_inits.clear()
        assert _exit(capsys, argv) == (2, "", err), argv
        assert parser_inits[0] == "assigncoh"


def test_argparse_route_runs_its_handler(capsys, cp2_file):
    """Spellings that argparse reads and the plain reader leaves to it run to
    the report of the plain spelling they mean."""
    f = cp2_file
    degree_one = ["--json", "cohomology", f, "--degree", "1"]
    for spelling, plain in (
            (["--json", "cohomology", f, "--deg", "1"], degree_one),
            (["--json", "cohomology", f, "--degree", "0", "--degree", "1"], degree_one),
            (["--json", "cohomology", "--degree", "1", "--", f], degree_one),
            (["--json", "check", f, "--eul"], ["--json", "check", f, "--euler"])):
        assert cli._plain_args(spelling) is None and cli._plain_args(plain) is not None
        expected = run(capsys, plain)
        assert expected[0] == 0 and json.loads(expected[1])
        assert run(capsys, spelling) == expected, spelling


# ---------------------------------------------------------------------------
# assignments

def test_assignments_text(capsys, cp2_file):
    code, out, err = run(capsys, ["assignments", cp2_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim A = 3"
    assert len([l for l in lines if l.startswith("basis ")]) == 3
    assert err == ""


def test_assignments_json_is_deterministic(capsys, cp2_file):
    code, out1, _ = run(capsys, ["--json", "assignments", cp2_file])
    assert code == 0
    report = json.loads(out1)
    assert report["dim"] == 3
    assert len(report["basis"]) == 3
    code, out2, _ = run(capsys, ["--json", "assignments", cp2_file])
    assert out1 == out2


def test_assignments_tables_are_the_basis_vectors_as_text(capsys, tmp_path):
    """`assignments --json` prints the tables of `assignment_basis`, read from
    the representatives' sparse rows (a Fraction projection included)."""
    texts = [json.dumps(SpaceDescription.from_space(make()[0]).to_json_dict())
             for make in (cp2, s4, lambda: s4_chain(2), two_stratum, free_stratum)]
    texts.append(_CHAIN.replace("@", "1").replace("#", '[["2/3"]]'))
    fractions = 0
    for i, text in enumerate(texts):
        path = tmp_path / f"s{i}.space"
        path.write_text(text)
        _, v = build_from_description(SpaceDescription.from_json_dict(json.loads(text)))
        basis = assignment_basis(v)
        assert all(is_assignment(v, b).ok for b in basis)
        code, out, _ = run(capsys, ["--json", "assignments", str(path)])
        assert code == 0
        tables = json.loads(out)["basis"]
        assert tables == [cli._vector_table(b.values) for b in basis]
        fractions += sum("/" in x for table in tables for vec in table.values() for x in vec)
    assert fractions


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, ["assignments", str(tmp_path / "nope.space")])
    assert code == cli.EXIT_INPUT
    assert err.startswith("error:")


def test_invalid_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.space"
    path.write_text("{ not json")
    code, _, err = run(capsys, ["assignments", str(path)])
    assert code == cli.EXIT_INPUT
    assert "not valid JSON" in err


def test_schema_error_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.space"
    path.write_text(json.dumps({"torus_dim": 1, "strata": [{"noid": 1}]}))
    code, _, err = run(capsys, ["assignments", str(path)])
    assert code == cli.EXIT_INPUT
    assert "malformed stratum entry" in err


_NUMBER_SITES = {
    "torus_dim": '{"torus_dim": @, "strata": [{"id": "a", "stabilizer": [[1]]}]}',
    "stabilizer": '{"torus_dim": 1, "strata": [{"id": "a", "stabilizer": [[@]]}]}',
    "dims": '{"torus_dim": 1, "strata": [{"id": "a", "stabilizer": [[1]]}], '
            '"dims": {"a": @}, "projections": []}',
}


@pytest.mark.parametrize("site", sorted(_NUMBER_SITES))
@pytest.mark.parametrize("literal", ["1.5", "1e400", "true", "1.0"])
def test_non_integer_numbers_are_input_errors(capsys, tmp_path, site, literal):
    # int() would read 1.5 as 1 and overflow on 1e400 (infinity)
    path = tmp_path / "bad.space"
    path.write_text(_NUMBER_SITES[site].replace("@", literal))
    code, out, err = run(capsys, ["--json", "assignments", str(path)])
    assert code == cli.EXIT_INPUT
    payload = json.loads(out)
    assert payload["error"]["type"] == "DescriptionError"
    assert payload["exit_code"] == 1
    assert err.startswith("error:") and "Traceback" not in err


_ID_SITES = {
    "stratum": '{"torus_dim": 1, "strata": [{"id": @, "stabilizer": [[1]]}]}',
    "cover": '{"torus_dim": 1, "strata": [{"id": "a", "stabilizer": [[1]]}, '
             '{"id": "b", "stabilizer": []}], "covers": [["a", @]]}',
    "projection": '{"torus_dim": 1, "strata": [{"id": "a", "stabilizer": [[1]]}], '
                  '"dims": {"a": 1}, "projections": [{"pair": [@, "a"], "matrix": [["1"]]}]}',
}


@pytest.mark.parametrize("site", sorted(_ID_SITES))
@pytest.mark.parametrize("literal", ["null", "1.5", "true", "[]", "{}"])
def test_non_string_ids_are_input_errors(capsys, tmp_path, site, literal):
    # str() would name a stratum "None", "1.5", "True", "[]" or "{}"
    path = tmp_path / "bad.space"
    path.write_text(_ID_SITES[site].replace("@", literal))
    code, out, err = run(capsys, ["--json", "assignments", str(path)])
    assert code == cli.EXIT_INPUT
    payload = json.loads(out)
    assert payload["error"]["type"] == "DescriptionError"
    assert payload["exit_code"] == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("projection", [
    '{"pair": ["a", "b"], "matrix": ["12"]}',   # a row "12" would read as [1, 2]
    '{"pair": "ab", "matrix": [[1, 2]]}',       # a pair "ab" would read as ["a", "b"]
    '{"pair": ["a", "b"], "matrix": "1"}',
])
def test_projection_arrays_must_be_arrays(capsys, tmp_path, projection):
    path = tmp_path / "bad.space"
    path.write_text(
        '{"torus_dim": 2, "strata": [{"id": "a", "stabilizer": [[1, 0], [0, 1]]}, '
        '{"id": "b", "stabilizer": []}], "covers": [["a", "b"]], '
        '"dims": {"a": 2, "b": 1}, "projections": [' + projection + ']}'
    )
    code, out, err = run(capsys, ["--json", "assignments", str(path)])
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"]["type"] == "DescriptionError"
    assert err.startswith("error:") and "Traceback" not in err


def test_negative_torus_dim_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.space"
    path.write_text(_NUMBER_SITES["torus_dim"].replace("@", "-1"))
    code, out, _ = run(capsys, ["--json", "assignments", str(path)])
    assert code == cli.EXIT_INPUT
    assert "torus_dim must be >= 0" in json.loads(out)["error"]["message"]


_CHAIN = ('{"torus_dim": 2, "strata": [{"id": "a", "stabilizer": [[1, 0], [0, 1]]}, '
          '{"id": "b", "stabilizer": [[1, 0]]}, {"id": "c", "stabilizer": []}], '
          '"covers": [["a", "b"], ["b", "c"]], "dims": {"a": 1, "b": @, "c": 1}, '
          '"projections": [{"pair": ["a", "b"], "matrix": #}, '
          '{"pair": ["b", "c"], "matrix": [["1"]]}]}')


@pytest.mark.parametrize("dim_b, matrix, message", [
    ("-1", '[["1"]]', "negative dimension at 'b'"),
    ("-1", "[]", "negative dimension at 'b'"),
    ("1", '[["1"], ["1"]]', "projection ('a', 'b') has shape (2, 1), expected (1, 1)"),
    # [] is the matrix with no rows, not a zero block of the expected shape
    ("1", "[]", "projection ('a', 'b') has shape (0, 1), expected (1, 1)"),
])
def test_system_data_is_checked_before_matrices_are_built(capsys, tmp_path, dim_b,
                                                         matrix, message):
    # a negative size or a wrong cover shape used to surface from ratlin,
    # as "negative matrix dimensions" or a product shape mismatch
    path = tmp_path / "chain.space"
    path.write_text(_CHAIN.replace("@", dim_b).replace("#", matrix))
    code, out, err = run(capsys, ["--json", "assignments", str(path)])
    assert code == cli.EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == message
    assert err == f"error: {message}\n"


def test_duplicate_projection_is_input_error(capsys, tmp_path):
    # a second entry for (a, b) would otherwise replace the first unseen
    path = tmp_path / "chain.space"
    path.write_text(_CHAIN.replace("@", "1").replace(
        "#", '[["1"]]}, {"pair": ["a", "b"], "matrix": [["2"]]'))
    code, out, err = run(capsys, ["--json", "check", str(path)])
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"] == {
        "type": "DescriptionError",
        "message": "duplicate projection for pair ('a', 'b')",
    }
    assert err == "error: duplicate projection for pair ('a', 'b')\n"


def test_ragged_projection_matrix_is_input_error(capsys, tmp_path):
    # rows of unequal length used to end in the matrix constructor's bare
    # ValueError, exit 2, with no pair named; a non-numeric entry already
    # gave this report
    path = tmp_path / "chain.space"
    for matrix in ('[[1], [2, 3]]', '[["x"]]'):
        path.write_text(_CHAIN.replace("@", "2").replace("#", matrix))
        code, out, err = run(capsys, ["--json", "check", str(path)])
        assert code == cli.EXIT_INPUT
        message = ("malformed projection entry: "
                   f"{{'pair': ['a', 'b'], 'matrix': {json.loads(matrix)!r}}}")
        assert json.loads(out)["error"] == {"type": "DescriptionError", "message": message}
        assert err == f"error: {message}\n"


def test_projections_without_dims_are_input_error(capsys, tmp_path):
    # without a dims table the moment system is used, and the projections
    # used to be dropped unread
    desc = {"torus_dim": 1, "covers": [["a", "b"]],
            "strata": [{"id": "a", "stabilizer": [[1]]}, {"id": "b", "stabilizer": []}],
            "projections": [{"pair": ["a", "b"], "matrix": [["7"]]}]}
    path = tmp_path / "nodims.space"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, ["--json", "assignments", str(path)])
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["error"] == {
        "type": "DescriptionError", "message": "projections need a dims table"}
    assert err == "error: projections need a dims table\n"


def test_value_too_long_to_print_is_input_error(capsys, tmp_path):
    # each literal is under the interpreter's digit limit (4300 by default),
    # but a product or a merged coefficient has a denominator of about 5,000
    # digits, which str() refuses; that used to exit 2
    sevens, threes = "7" * 2500, "3" * 2499 + "1"
    chain = _CHAIN.replace("@", "1").replace("#", f'[["1/{threes}"]]')
    path = tmp_path / "chain.space"
    path.write_text(chain)
    # the composed projection proj(a, c) = 1/(threes * sevens), so a canonical
    # basis vector or representative holds a value of about 5,000 digits
    composed = tmp_path / "composed.space"
    composed.write_text(chain.replace('"matrix": [["1"]]', f'"matrix": [["1/{sevens}"]]'))
    values = tmp_path / "values.json"
    values.write_text(json.dumps({"values": {"a": [f"1/{sevens}"]}}))
    for argv in (["extend", str(path), "--values", str(values)],
                 ["decompose", "--weights", "1", "--psi", f"[1/{sevens}] z1 + [1/{threes}] z1"],
                 ["assignments", str(composed)],
                 ["cohomology", str(composed), "--degree", "0"]):
        code, out, err = run(capsys, ["--json"] + argv)
        assert code == cli.EXIT_INPUT
        message = (f"a value has more than {sys.get_int_max_str_digits()} digits, "
                   "the limit for printing one")
        assert json.loads(out)["error"] == {"type": "_InputError", "message": message}
        assert err == f"error: {message}\n"


def test_cycle_is_validation_error(capsys, tmp_path):
    desc = {
        "torus_dim": 1,
        "strata": [{"id": "a", "stabilizer": [[1]]},
                   {"id": "b", "stabilizer": [[1]]}],
        "covers": [["a", "b"], ["b", "a"]],
    }
    path = tmp_path / "cyclic.space"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, ["assignments", str(path)])
    assert code == cli.EXIT_VALIDATION
    assert "cyclic" in err


def test_json_error_report(capsys, tmp_path):
    code, out, err = run(capsys, ["--json", "assignments", str(tmp_path / "nope")])
    assert code == cli.EXIT_INPUT
    payload = json.loads(out)
    assert payload["error"]["type"] == "_InputError"
    assert payload["exit_code"] == 1
    assert err.startswith("error:")


# (constructor arguments, exit code) of every class of assigncoh.errors, a
# bare ValueError, cli._InputError and two builtins; None where it propagates
_REFUSALS = {
    "_InputError": (("cannot read f: gone",), 1),
    "DescriptionError": (("top level must be an object",), 1),
    "NotUnionOfStrataError": ((("q",),), 3),
    "IncompatibleMinimalValuesError": ((("x0", "x1", "y"),), 4),
    "BrokenProjectionError": ((("x", "y"),), 4),
    "ConditionFailedError": ((([(1, 0), (0, 2)], [(0, 0), (1, 0)]),), 5),
    "NonzeroConstantTermError": (("psi has a constant term",), 5),
    "ArityError": (("variable index 3 out of range",), 2),
    "CycleError": ((("a", "b", "a"),), 2),
    "StabilizerMonotonicityError": ((("a", "b"), "no dimension drop"), 2),
    "UnknownIdError": (("q",), 2),
    "NotOpenError": ((("a", "b"),), 2),
    "NoUniqueMinimumError": ((("a", "b"),), 2),
    "NotExactError": (("not exact at the middle",), 2),
    "InvalidMorphismError": (("not monotone",), 2),
    "SystemMismatchError": (("systems on different spaces",), 2),
    "MissingMinimalValueError": ((("a",), ("b",)), 2),
    "MalformedPolytopeError": (("duplicate facet id 'f'",), 2),
    "ValueError": (("bare",), 2),
    "ParseError": (("unexpected token", 3), None),
    "KeyError": (("k",), None),
    "AssertionError": ((), None),
}

_RAISED = {name: cls for name, cls in vars(errors).items()
           if isinstance(cls, type) and cls.__module__ == errors.__name__}
_RAISED.update(ValueError=ValueError, _InputError=cli._InputError, KeyError=KeyError,
               AssertionError=AssertionError)


@pytest.mark.parametrize("name", sorted(_RAISED))
def test_every_refusal_has_its_exit_code(capsys, name):
    """A handler raising each class exits with the code written in _REFUSALS,
    one `error: ` line on stderr and, with --json, a report of its type and
    code; ParseError (a SyntaxError), a bare KeyError and an AssertionError
    are no refusal and propagate.  A new class of errors.py needs an entry."""
    assert name in _REFUSALS, f"errors.{name} has no exit code in _REFUSALS"
    arguments, code = _REFUSALS[name]
    exc = _RAISED[name](*arguments)

    def handler(args):
        raise exc

    for json_flag in (False, True):
        args = types.SimpleNamespace(handler=handler, json=json_flag)
        if code is None:
            with pytest.raises(_RAISED[name]):
                cli._run(args)
            continue
        assert cli._run(args) == code
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        if json_flag:
            assert json.loads(out) == {"error": {"type": name, "message": err[7:-1]},
                                       "exit_code": code}
        else:
            assert out == ""


# ---------------------------------------------------------------------------
# cohomology

def test_cohomology_degree_zero(capsys, cp2_file):
    code, out, _ = run(capsys, ["cohomology", cp2_file, "--degree", "0"])
    assert code == 0
    assert out.splitlines()[0] == "reduced: dim HA^0 = 3"


def test_cohomology_both_complexes_agree(capsys, cp2_file):
    code, out, _ = run(capsys, ["cohomology", cp2_file, "--degree", "1",
                                "--complex", "both"])
    assert code == 0
    assert "reduced: dim HA^1 = 0" in out
    assert "full: dim HA^1 = 0" in out
    assert "full/reduced agreement: yes" in out


def _relative_args(space, subset):
    """The `--relative` option naming a subset of space: none, the empty
    subset, the minimal strata (down-closed) or the upset of the first one
    (up-closed, not down-closed)."""
    if subset is None:
        return []
    if subset == "empty":
        return ["--relative", ""]
    minimal = [x for x in space.ids if not space.below(x)]
    n = minimal if subset == "down" else space.upset(minimal[0])
    return ["--relative", ",".join(sorted(n))]


def _degrees_and_subsets(*degrees):
    """Each degree with each subset of `_relative_args`; the case with no
    `--relative` is named by its degree alone."""
    return [pytest.param(d, s, id=d if s is None else f"{d}-{s}")
            for d in degrees for s in (None, "empty", "down", "up")]


def _both_against_alone(capsys, monkeypatch, path, degree, relative):
    """`--complex both` on path, the resolution refused, against each complex
    asked for alone: equal blocks, and the two agree."""
    alone = {}
    for name in ("reduced", "full"):
        code, out, _ = run(capsys, ["--json", "cohomology", path, "--degree", degree,
                                    "--complex", name, *relative])
        assert code == 0
        alone[name] = json.loads(out)["results"][name]

    def refuse(*args):
        raise AssertionError("--complex both asked the resolution")

    for name in ("_resolution_dims", "_forest"):
        monkeypatch.setattr(assigncoh.cochain, name, refuse)
    code, out, _ = run(capsys, ["--json", "cohomology", path, "--degree", degree,
                                "--complex", "both", *relative])
    monkeypatch.undo()
    assert code == 0
    both = json.loads(out)
    assert both["results"] == alone and both["agreement"]


@pytest.mark.parametrize("degree, subset", _degrees_and_subsets("0", "1", "2"))
def test_cohomology_both_builds_both_order_complexes(capsys, tmp_path, monkeypatch, degree,
                                                     subset):
    """`--complex both` is the cross-check: with or without `--relative` it
    never asks the resolution, and each of its blocks has the bytes of that
    complex asked for alone (cp2 has no class in degree 1, the sphere
    product s6 has one)."""
    for name, (space, _) in (("cp2", cp2()),
                             ("s6", build_sphere_product(2, [(1, 0), (0, 1), (1, -1)]))):
        path = tmp_path / f"{name}.space"
        path.write_text(json.dumps(SpaceDescription.from_space(space).to_json_dict()))
        _both_against_alone(capsys, monkeypatch, str(path), degree,
                            _relative_args(space, subset))


@pytest.mark.parametrize("degree, subset", _degrees_and_subsets("80", str(10 ** 23)))
def test_cohomology_both_counts_the_full_complex_above_the_top(capsys, tmp_path,
                                                               monkeypatch, degree, subset):
    """Above the top degree `--complex both` counts a functor's full complex
    (segment^3: 27 strata, top degree 3), with or without `--relative`, so
    it answers at once, without the resolution, with each block's bytes of
    that complex asked for alone."""
    seg, sq, seg3 = (str(tmp_path / f"{n}.space") for n in ("seg", "sq", "seg3"))
    run(capsys, ["build", "polytope", "--segment", "--out", seg])
    run(capsys, ["build", "product", "--left", seg, "--right", seg, "--out", sq])
    run(capsys, ["build", "product", "--left", sq, "--right", seg, "--out", seg3])
    with open(seg3) as fh:
        space, _ = build_from_description(SpaceDescription.from_json_dict(json.load(fh)))
    _both_against_alone(capsys, monkeypatch, seg3, degree, _relative_args(space, subset))


def test_cohomology_without_classes_enumerates_no_chain(capsys, tmp_path, monkeypatch):
    """A degree with no class is answered by R and chain counts alone: the
    full complex of cube x square (243 strata; 65,610 coordinates in
    degree 3) gives dim 0 and the order complex's diagnostics with chain
    enumeration refused."""
    space, v = build_product(*(build_polytope(preset_polytope(name)) for name in ("cube", "square")))
    path = tmp_path / "cs.space"
    path.write_text(json.dumps(SpaceDescription.from_space(space).to_json_dict()))
    full = _Complex(v, False)
    rank = _rank(full.d(2), full.basis(2).total_dim)
    assert _Complex(v, True).data(3).dim == 0
    want = {"dim": 0, "representatives": [], "diagnostics": {
        "dim_chain": full.basis(3).total_dim, "dim_cocycles": rank, "rank_coboundaries": rank}}

    def refuse(*args):
        raise AssertionError("a chain was enumerated")

    monkeypatch.setattr(assigncoh.cochain, "chains", refuse)
    code, out, _ = run(capsys, ["--json", "cohomology", str(path), "--complex", "full",
                                "--degree", "3"])
    assert code == 0
    assert json.loads(out)["results"] == {"full": want}


def test_cohomology_relative(capsys, cp2_file):
    code, out, _ = run(capsys, ["cohomology", cp2_file, "--degree", "1",
                                "--relative", "p1,p2,p3"])
    assert code == 0
    assert out.splitlines()[0] == "reduced: dim HA_rel^1 = 3"


def test_cohomology_relative_to_the_minimal_strata_enumerates_no_chain(capsys, tmp_path,
                                                                       monkeypatch):
    """A down-closed subset is answered from R's cells outside it: degree 2
    of the cube relative to its vertices has no class, so R answers it and
    no chain of the order complex is enumerated."""
    path = str(tmp_path / "cube.space")
    assert cli.main(["build", "polytope", "--cube", "--out", path]) == 0
    capsys.readouterr()
    space, _ = build_from_description(SpaceDescription.from_json_dict(json.loads(
        Path(path).read_text())))
    vertices = ",".join(x for x in space.ids if not space.below(x))

    def refuse(*args):
        raise AssertionError("chains were enumerated")

    monkeypatch.setattr(assigncoh.cochain, "chains", refuse)
    code, out, err = run(capsys, ["cohomology", path, "--degree", "2", "--relative", vertices])
    assert (code, out, err) == (0, "reduced: dim HA_rel^2 = 0\n", "")


def test_cohomology_relative_to_no_strata(capsys, cp2_file):
    code, out, _ = run(capsys, ["cohomology", cp2_file, "--degree", "0",
                                "--relative", ","])
    assert code == 0
    assert out.splitlines()[0] == "reduced: dim HA_rel^0 = 3"
    code, out, _ = run(capsys, ["--json", "cohomology", cp2_file, "--degree", "0",
                                "--relative", ","])
    assert code == 0
    assert json.loads(out)["relative"] == []


@pytest.mark.parametrize("subset", ["", ","])
def test_empty_subset_options_name_the_empty_subset(capsys, cp2_file, subset):
    # an empty option is a subset, not an absent one
    code, out, _ = run(capsys, ["cohomology", cp2_file, "--degree", "0",
                                "--relative", subset])
    assert code == 0
    assert out.splitlines()[0] == "reduced: dim HA_rel^0 = 3"
    code, out, _ = run(capsys, ["--json", "cohomology", cp2_file, "--degree", "0",
                                "--relative", subset])
    assert code == 0
    assert json.loads(out)["relative"] == []
    code, out, _ = run(capsys, ["check", cp2_file, "--les", subset])
    assert code == 0
    assert out.splitlines()[2:] == ["LES for pair (space, {}): exact",
                                    "node dims: 3, 3" + ", 0" * 10]
    code, out, _ = run(capsys, ["--json", "check", cp2_file, "--les", subset])
    assert code == 0
    les = json.loads(out)["les"]
    assert les["subset"] == [] and les["ok"]


def test_cohomology_relative_unknown_subset(capsys, cp2_file):
    code, _, err = run(capsys, ["cohomology", cp2_file, "--degree", "0",
                                "--relative", "p1,ghost"])
    assert code == cli.EXIT_SUBSET
    assert "ghost" in err


def test_cohomology_negative_degree_is_one_error_with_or_without_relative(capsys, cp2_file):
    for relative in ([], ["--relative", "p1"], ["--relative", ""]):
        code, out, err = run(capsys, ["cohomology", cp2_file, "--degree", "-1", *relative])
        assert (code, out, err) == (cli.EXIT_VALIDATION, "", "error: degree must be >= 0\n")


def test_cohomology_far_above_the_longest_chain(cp2_file):
    # no strict chain is that long: enumeration must stop once none is left,
    # not run one round per degree
    env = _module_env()
    degree = str(10**18)
    proc = subprocess.run([sys.executable, "-m", "assigncoh", "cohomology", cp2_file,
                           "--degree", degree],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"reduced: dim HA^{degree} = 0\n"


def test_huge_degrees_are_answered_from_counts(capsys, tmp_path):
    """Degree 10**20 of the square exits 0 within a second on both
    complexes.  Its diagnostics come from the strict chain counts S_i:
    dim C^k = sum_i T_i C(k, i) on the full complex, T_i the strict chains
    of i+1 strata weighted by their top's dim, and the coboundary ranks of
    degrees k and k-1 add up to dim C^(k-1) (no class above degree 0)."""
    path = str(tmp_path / "square.space")
    assert cli.main(["build", "polytope", "--square", "--out", path]) == 0
    capsys.readouterr()
    space, v = build_from_description(SpaceDescription.from_json_dict(json.loads(
        Path(path).read_text())))
    sizes = [sum(v.dims[t[-1]] for t in chains(space, i, True)) for i in range(3)]
    k = 10**20
    for name, dim_chain in (("reduced", lambda k: 0),
                            ("full", lambda k: sum(t * comb(k, i) for i, t in enumerate(sizes)))):
        diags = []
        for degree in (k - 1, k):
            start = time.perf_counter()
            code, out, _ = run(capsys, ["--json", "cohomology", path, "--degree", str(degree),
                                        "--complex", name])
            assert code == 0 and time.perf_counter() - start < 1.0
            block = json.loads(out)["results"][name]
            assert (block["dim"], block["representatives"]) == (0, [])
            diags.append(block["diagnostics"])
            assert diags[-1]["dim_chain"] == dim_chain(degree)
            assert diags[-1]["dim_cocycles"] == diags[-1]["rank_coboundaries"]
        assert diags[0]["rank_coboundaries"] + diags[1]["rank_coboundaries"] == dim_chain(k - 1)
        assert chain_space_dim(v, k, strict=name == "reduced") == dim_chain(k)


def test_huge_full_degree_relative_to_an_up_closed_subset(capsys, tmp_path):
    """Degree 10**18 of the full complex relative to the square's interior,
    an up-closed subset, exits 0 within a second: beyond the top degree the
    full relative complex is answered from counts, not enumerated."""
    path = str(tmp_path / "square.space")
    assert cli.main(["build", "polytope", "--square", "--out", path]) == 0
    capsys.readouterr()
    degree = str(10**18)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["cohomology", path, "--complex", "full", "--degree", degree,
                                "--relative", "interior"])
    assert code == 0 and time.perf_counter() - start < 1.0
    assert out == f"full: dim HA_rel^{degree} = 0\n"


# ---------------------------------------------------------------------------
# build

def test_build_linear_rep_pipeline(capsys, tmp_path):
    out_file = str(tmp_path / "circle.space")
    code, out, _ = run(capsys, ["build", "linear-rep", "--weights", "1;-1",
                                "--out", out_file])
    assert code == 0
    assert "built linear-rep: 2 strata, 1 covers, torus dim 1" in out
    assert f"wrote {out_file}" in out
    code, out, _ = run(capsys, ["assignments", out_file])
    assert code == 0
    assert out.splitlines()[0] == "dim A = 1"


def test_build_sphere_product_pipeline(capsys, tmp_path):
    out_file = str(tmp_path / "s6.space")
    code, out, _ = run(capsys, ["build", "sphere-product", "--n", "2",
                                "--lambdas", "1,0;0,1;1,-1", "--out", out_file])
    assert code == 0
    assert "built sphere-product: 21 strata, 36 covers, torus dim 2" in out
    code, out, _ = run(capsys, ["cohomology", out_file, "--degree", "0"])
    assert "dim HA^0 = 5" in out
    code, out, _ = run(capsys, ["cohomology", out_file, "--degree", "1"])
    assert "dim HA^1 = 1" in out


def test_build_polytope_preset(capsys, tmp_path):
    out_file = str(tmp_path / "square.space")
    code, out, _ = run(capsys, ["build", "polytope", "--square", "--out", out_file])
    assert code == 0
    assert "9 strata" in out
    code, out, _ = run(capsys, ["assignments", out_file])
    assert out.splitlines()[0] == "dim A = 4"


def test_build_polytope_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, ["build", "polytope"])
    assert code == cli.EXIT_INPUT
    assert "exactly one" in err
    code, _, err = run(capsys, ["build", "polytope", "--square", "--cube"])
    assert code == cli.EXIT_INPUT


def test_build_polytope_from_file(capsys, tmp_path):
    data = {
        "dim": 2,
        "facets": [["a", [1, 0]], ["b", [0, 1]], ["c", [-1, -1]]],
        "vertices": [["v0", ["a", "b"]], ["v1", ["b", "c"]], ["v2", ["a", "c"]]],
    }
    poly_file = tmp_path / "tri.json"
    poly_file.write_text(json.dumps(data))
    out_file = str(tmp_path / "tri.space")
    code, out, _ = run(capsys, ["build", "polytope", "--file", str(poly_file),
                                "--out", out_file])
    assert code == 0
    assert "7 strata" in out
    code, out, _ = run(capsys, ["assignments", out_file])
    assert out.splitlines()[0] == "dim A = 3"


def test_build_polytope_malformed_file(capsys, tmp_path):
    poly_file = tmp_path / "bad.json"
    poly_file.write_text(json.dumps({"dim": 2}))
    code, _, err = run(capsys, ["build", "polytope", "--file", str(poly_file)])
    assert code == cli.EXIT_INPUT
    assert "malformed polytope file" in err


_TRIANGLE = {
    "dim": 2,
    "facets": [["a", [1, 0]], ["b", [0, 1]], ["c", [-1, -1]]],
    "vertices": [["v0", ["a", "b"]], ["v1", ["b", "c"]], ["v2", ["a", "c"]]],
}


@pytest.mark.parametrize("path, value", [
    (("dim",), 2.0), (("dim",), True), (("dim",), "2"),
    (("facets", 0, 1), [1.5, 0]), (("facets", 0, 1), [True, 0]),
    (("facets", 0, 1), ["1", "0"]), (("facets", 0, 1), "10"),
    (("vertices", 0, 1), "ab"),
    (("facets", 0, 0), 1), (("vertices", 0, 0), None),
])
def test_polytope_file_json_types_are_input_errors(capsys, tmp_path, path, value):
    # int() and str() would accept 2.0, true, "1", 1 and null, and a string
    # "ab" would be split into the facets "a" and "b"
    data = json.loads(json.dumps(_TRIANGLE))
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    poly_file = tmp_path / "bad.json"
    poly_file.write_text(json.dumps(data))
    code, out, err = run(capsys, ["--json", "build", "polytope", "--file", str(poly_file)])
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["exit_code"] == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_build_polytope_invalid_geometry(capsys, tmp_path):
    data = {
        "dim": 2,
        "facets": [["a", [1, 0]], ["b", [2, 0]]],
        "vertices": [["v", ["a", "b"]]],
    }
    poly_file = tmp_path / "flat.json"
    poly_file.write_text(json.dumps(data))
    code, _, err = run(capsys, ["build", "polytope", "--file", str(poly_file)])
    assert code == cli.EXIT_VALIDATION
    assert "linearly dependent" in err


def test_build_product(capsys, tmp_path):
    seg = str(tmp_path / "seg.space")
    run(capsys, ["build", "polytope", "--segment", "--out", seg])
    out_file = str(tmp_path / "sq.space")
    code, out, _ = run(capsys, ["build", "product", "--left", seg,
                                "--right", seg, "--out", out_file])
    assert code == 0
    assert "9 strata" in out
    code, out, _ = run(capsys, ["assignments", out_file])
    assert out.splitlines()[0] == "dim A = 4"


@pytest.mark.parametrize("side", ["left", "right"])
def test_build_product_refuses_a_factor_with_its_own_system(capsys, tmp_path, side):
    """A factor file with dims and projections that are not its moment system
    exits 2 with the factor named, and writes no --out file."""
    seg = str(tmp_path / "seg.space")
    run(capsys, ["build", "polytope", "--segment", "--out", seg])
    halved = tmp_path / "halved.space"
    halved.write_text(json.dumps({
        "torus_dim": 1, "covers": [["a", "b"]], "dims": {"a": 1, "b": 1},
        "strata": [{"id": "a", "stabilizer": [[1]]}, {"id": "b", "stabilizer": []}],
        "projections": [{"pair": ["a", "b"], "matrix": [["1/2"]]}]}))
    factors = {"left": seg, "right": seg, side: str(halved)}
    out_file = tmp_path / "out.space"
    code, out, err = run(capsys, ["--json", "build", "product", "--left", factors["left"],
                                  "--right", factors["right"], "--out", str(out_file)])
    message = f"the {side} factor's system is not the moment system of its space"
    assert code == cli.EXIT_VALIDATION
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message},
                               "exit_code": cli.EXIT_VALIDATION}
    assert err == f"error: {message}\n"
    assert not out_file.exists()


def test_build_missing_parameters(capsys):
    code, _, err = run(capsys, ["build", "linear-rep"])
    assert code == cli.EXIT_INPUT
    code, _, err = run(capsys, ["build", "sphere-product", "--lambdas", "1"])
    assert code == cli.EXIT_INPUT
    code, _, err = run(capsys, ["build", "product", "--left", "x"])
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_build_out_that_cannot_be_written_is_input_error(capsys, tmp_path, target):
    out = str(tmp_path) + os.sep if target == "directory" else str(tmp_path / "no" / "x.space")
    argv = ["build", "polytope", "--cube", "--out", out]
    code, stdout, err = run(capsys, argv)
    assert code == cli.EXIT_INPUT
    assert stdout == "" and err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    code, stdout, err = run(capsys, ["--json"] + argv)
    assert code == cli.EXIT_INPUT
    assert json.loads(stdout) == {"error": {"type": "_InputError", "message": err[7:-1]},
                                  "exit_code": cli.EXIT_INPUT}


def test_build_bad_weight_rows(capsys):
    code, _, err = run(capsys, ["build", "linear-rep", "--weights", "1,x"])
    assert code == cli.EXIT_INPUT
    assert "bad weight row" in err
    code, out, err = run(capsys, ["build", "sphere-product", "--n", "0", "--lambdas=1"])
    assert (code, out, err) == (cli.EXIT_VALIDATION, "",
                                "error: weight row (1,) has length 1, expected 0\n")


# ---------------------------------------------------------------------------
# check

def test_check_healthy_space(capsys, cp2_file):
    code, out, _ = run(capsys, ["check", cp2_file, "--euler"])
    assert code == 0
    assert "functor laws: ok" in out
    assert "d^2 = 0 (degrees 0..2): ok" in out
    assert "euler characteristic = 3" in out


def test_check_les(capsys, cp2_file):
    code, out, _ = run(capsys, ["check", cp2_file, "--les", "p1,p2,p3"])
    assert code == 0
    assert "LES for pair (space, {p1,p2,p3}): exact" in out
    assert "node dims: 0, 3, 6, 3, 0, 0" in out


def test_check_les_unknown_subset(capsys, cp2_file, monkeypatch):
    # an unknown subset fails before the functor laws and d^2 = 0 are checked
    calls = []
    monkeypatch.setattr(assigncoh.coeffsys, "check_functor", calls.append)
    monkeypatch.setattr(assigncoh.coeffsys, "square_failures", calls.append)
    code, _, err = run(capsys, ["check", cp2_file, "--les", "ghost"])
    assert code == cli.EXIT_SUBSET
    assert "ghost" in err
    assert calls == []


@pytest.fixture(scope="module")
def cs_file(tmp_path_factory):
    """cube x square (243 strata), built through the command line."""
    d = tmp_path_factory.mktemp("cs")
    cube, square, cs = (str(d / f"{n}.space") for n in ("cube", "square", "cs"))
    for argv in (["build", "polytope", "--cube", "--out", cube],
                 ["build", "polytope", "--square", "--out", square],
                 ["build", "product", "--left", cube, "--right", square, "--out", cs]):
        assert cli.main(argv) == 0
    return cs


def test_check_builds_no_weak_basis_above_degree_two(capsys, cp2_file, monkeypatch):
    # the d^2 line is read off the functor report: without --les, no basis at all
    built = []

    class Spy(assigncoh.cochain.ChainBasis):
        def __init__(self, system, degree, strict, tuples):
            built.append((degree, strict))
            super().__init__(system, degree, strict, tuples)

    monkeypatch.setattr(assigncoh.cochain, "ChainBasis", Spy)
    code, out, _ = run(capsys, ["check", cp2_file, "--euler"])
    assert code == 0
    assert "d^2 = 0 (degrees 0..2): ok" in out
    assert built == []


def test_check_euler_on_cube_times_square(capsys, cs_file):
    code, out, err = run(capsys, ["check", cs_file, "--euler"])
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "functor laws: ok",
        "d^2 = 0 (degrees 0..2): ok",
        "euler characteristic = 10",
    ]


def test_out_of_memory_is_exit_seven_without_a_traceback(capsys, cp2_file, monkeypatch):
    """A MemoryError exits 7 with the error line and report, and the frames of
    the failed computation are freed before anything is printed."""
    class Big(list):
        pass

    held = []

    def result(self, degree):
        big = Big([0] * 1000)
        held.append(weakref.ref(big))
        try:
            raise KeyError(degree)   # the MemoryError is chained to another
        except KeyError:
            raise MemoryError

    fail = cli._fail

    def checked_fail(args, exc, code):
        assert held[0]() is None   # no frame of result() is alive
        return fail(args, exc, code)

    monkeypatch.setattr(assigncoh.cochain._Complex, "result", result)
    monkeypatch.setattr(cli, "_fail", checked_fail)
    for pre in ([], ["--json"]):
        held.clear()
        code, out, err = run(capsys, pre + ["cohomology", cp2_file, "--degree", "1",
                                            "--complex", "both"])
        assert code == cli.EXIT_MEMORY == 7
        assert err == "error: out of memory\n"
        report = {"error": {"type": "MemoryError", "message": "out of memory"}, "exit_code": 7}
        assert out == (json.dumps(report, sort_keys=True, indent=2) + "\n" if pre else "")


def test_closed_stdout_pipe_exits_cleanly(cs_file):
    # the report (about 177 KB) is larger than a pipe buffer, so the write
    # itself meets the closed pipe
    env = _module_env()
    proc = subprocess.Popen([sys.executable, "-m", "assigncoh", "--json", "assignments", cs_file],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_PIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.fixture()
def perturbed_cube_file(capsys, tmp_path):
    """The cube's moment system as a generic system, one non-cover pair perturbed."""
    path = tmp_path / "cube.space"
    assert run(capsys, ["build", "polytope", "--cube", "--out", str(path)])[0] == 0
    obj = json.loads(path.read_text())
    space, system = build_from_description(SpaceDescription.from_json_dict(obj))
    assert ("v000", "x0") not in space.covers
    obj["dims"] = dict(system.dims)
    pairs = [(x, y, system.proj(x, y).data) for x, y in space.covers]
    pairs.append(("v000", "x0", [[2 * e + 1 for e in row]
                                 for row in system.proj("v000", "x0").data]))
    obj["projections"] = [{"pair": [x, y], "matrix": [[str(e) for e in row] for row in m]}
                          for x, y, m in pairs]
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_les_on_non_functorial_system_is_not_checked(capsys, perturbed_cube_file):
    code, out, err = run(capsys, ["check", perturbed_cube_file, "--les", "v000"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("functor laws: FAIL at ")
    assert lines[1].startswith("d^2 = 0")
    assert lines[2:] == ["LES for pair (space, {v000}): not checked (functor laws fail)"]
    code, out, _ = run(capsys, ["--json", "check", perturbed_cube_file, "--les", "v000"])
    assert code == 0
    assert json.loads(out)["les"] == {
        "subset": ["v000"], "ok": False, "node_names": [], "node_dims": [],
        "failures": ["not checked: functor laws fail"],
    }
    code, _, _ = run(capsys, ["check", perturbed_cube_file, "--les", "v000,ghost"])
    assert code == cli.EXIT_SUBSET


def test_check_les_checks_the_functor_laws_once(capsys, tmp_path, monkeypatch):
    """A moment system's laws hold by construction, so `check` walks none;
    the same system given by dims and cover projections walks them once."""
    path = tmp_path / "cube.space"
    assert run(capsys, ["build", "polytope", "--cube", "--out", str(path)])[0] == 0
    obj = json.loads(path.read_text())
    space, system = build_from_description(SpaceDescription.from_json_dict(obj))
    obj["dims"] = dict(system.dims)
    obj["projections"] = [
        {"pair": list(c), "matrix": [[str(e) for e in row] for row in system.proj(*c).data]}
        for c in space.covers]
    given = tmp_path / "given.space"
    given.write_text(json.dumps(obj))
    # the report is read by the functor line, the d^2 line, the sequence's
    # own check and each degree of its three complexes
    walks = []
    walk = assigncoh.coeffsys._walk_laws

    def counting(v):
        walks.append(v)
        return walk(v)

    monkeypatch.setattr(assigncoh.coeffsys, "_walk_laws", counting)
    verdicts = []
    for file, count in ((path, 0), (given, 1)):
        code, out, _ = run(capsys, ["check", str(file), "--les", "v000"])
        assert code == 0
        assert "LES for pair (space, {v000}): exact" in out
        assert len(walks) == count
        verdicts.append(out)
    assert verdicts[0] == verdicts[1]


def test_cohomology_refuses_where_d_squared_is_not_zero(capsys, perturbed_cube_file,
                                                       monkeypatch):
    with open(perturbed_cube_file) as fh:
        _, v = build_from_description(SpaceDescription.from_json_dict(json.load(fh)))

    def square_zero(strict, k):
        cx = _Complex(v, strict)
        return _composes_to_zero(_transpose(cx.d(k - 1), cx.basis(k - 1).total_dim),
                                 cx.d(k), cx.basis(k).total_dim)

    k = next(k for k in range(1, 4) if not square_zero(True, k))
    code, out, err = run(capsys, ["cohomology", perturbed_cube_file, "--degree", str(k)])
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err.startswith(f"error: degree {k} has no cohomology: d_{k} d_{k - 1} != 0")
    assert "functor laws" in err and "check" in err
    code, out, _ = run(capsys, ["--json", "cohomology", perturbed_cube_file,
                                "--degree", str(k)])
    assert json.loads(out) == {
        "error": {"type": "ValueError", "message": err[len("error: "):].rstrip("\n")},
        "exit_code": cli.EXIT_VALIDATION,
    }
    # degree 0 is defined for any data
    code, out, err = run(capsys, ["cohomology", perturbed_cube_file, "--degree", "0",
                                  "--complex", "both"])
    assert code == 0 and err == ""
    assert out.startswith("reduced: dim HA^0 = ")
    # with both complexes, a refusal of either one prints no result
    j = next(j for j in range(1, 4) if square_zero(True, j) and not square_zero(False, j))
    assert run(capsys, ["cohomology", perturbed_cube_file, "--degree", str(j)])[0] == 0
    for degree in (k, j):
        code, out, err = run(capsys, ["cohomology", perturbed_cube_file, "--degree",
                                      str(degree), "--complex", "both"])
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert f"degree {degree} has no cohomology" in err
    # the full complex refuses any degree off the failing triples, enumerating
    # no weak chain (the cube's top degree is 3)
    enumerate_chains = assigncoh.cochain.chains

    def bounded(space, k, strict):
        assert strict or k <= 4, f"weak chains of degree {k} enumerated"
        return enumerate_chains(space, k, strict)

    monkeypatch.setattr(assigncoh.cochain, "chains", bounded)
    for name in ("full", "both"):
        code, out, err = run(capsys, ["cohomology", perturbed_cube_file, "--degree",
                                      str(10 ** 6), "--complex", name])
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err.startswith(f"error: degree {10 ** 6} has no cohomology: ")


def _chain_with_implied_pair(tmp_path, name, covers, far):
    """Chain a < b < c with proj(a, b) = proj(b, c) = 1 and proj(a, c) = far."""
    path = tmp_path / name
    path.write_text(json.dumps({
        "torus_dim": 2,
        "strata": [{"id": "a", "stabilizer": [[1, 0], [0, 1]]},
                   {"id": "b", "stabilizer": [[1, 0]]}, {"id": "c", "stabilizer": []}],
        "covers": covers,
        "dims": {"a": 1, "b": 1, "c": 1},
        "projections": [{"pair": ["a", "b"], "matrix": [["1"]]},
                        {"pair": ["b", "c"], "matrix": [["1"]]},
                        {"pair": ["a", "c"], "matrix": [[far]]}]}))
    return str(path)


def test_implied_pair_in_covers_is_checked_as_an_explicit_entry(capsys, tmp_path):
    """A covers list may name a pair two covers compose; its projection is an
    explicit entry, so the functor laws see proj(b, c) proj(a, b) != proj(a, c)."""
    listed = [["a", "b"], ["b", "c"], ["a", "c"]]
    bad = _chain_with_implied_pair(tmp_path, "bad.space", listed, "2")
    code, out, _ = run(capsys, ["check", bad])
    assert code == 0
    assert out.startswith("functor laws: FAIL at ('a', 'b', 'c')\n")
    assert "d^2 = 0: FAIL" in out
    code, out, err = run(capsys, ["cohomology", bad, "--degree", "1"])
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err.startswith("error: degree 1 has no cohomology: d_1 d_0 != 0")
    good = _chain_with_implied_pair(tmp_path, "good.space", listed, "1")
    plain = _chain_with_implied_pair(tmp_path, "plain.space", listed[:2], "1")
    for argv in (["assignments"], ["check", "--euler"], ["cohomology", "--degree", "1"]):
        assert run(capsys, argv + [good]) == run(capsys, argv + [plain])
    assert run(capsys, ["check", good])[1].startswith("functor laws: ok\n")


def test_huge_full_degree_relative_off_the_laws_is_refused_at_once(capsys, tmp_path,
                                                                   monkeypatch):
    """Degree 10**6 of the full complex of a < b < c, with proj(a, c) off the
    composition of the covers, relative to {c} exits 2 within 2 s: the failing
    triple (a, b, c) and the kept weak (a, a) decide it, and no weak chain
    above degree 1 is enumerated."""
    path = _chain_with_implied_pair(tmp_path, "off_laws.space", [["a", "b"], ["b", "c"]], "2")
    enumerate_chains = assigncoh.cochain.chains

    def bounded(space, k, strict):
        assert strict or k <= 1, f"weak chains of degree {k} enumerated"
        return enumerate_chains(space, k, strict)

    monkeypatch.setattr(assigncoh.cochain, "chains", bounded)
    degree = str(10 ** 6)
    start = time.perf_counter()
    code, out, err = run(capsys, ["cohomology", path, "--complex", "full", "--relative", "c",
                                  "--degree", degree])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: degree {degree} has no cohomology: ")


def test_les_on_non_functorial_system_names_the_violation(perturbed_cube_file):
    with open(perturbed_cube_file) as fh:
        obj = json.load(fh)
    _, v = build_from_description(SpaceDescription.from_json_dict(obj))
    report = check_functor(v)
    assert report.composition_violations
    expected = f"functor laws fail at {report.composition_violations[0]}"
    with pytest.raises(ValueError) as exc:
        les_pair_check(v, ["v000"])
    assert expected in str(exc.value)
    # the sub part of the split zeroes the perturbed pair; the total does not
    f, g = pair_ses(v, ["v000"])
    assert check_functor(f.source).ok
    with pytest.raises(ValueError) as exc:
        les_coefficients_check(f, g)
    assert expected in str(exc.value)


# ---------------------------------------------------------------------------
# extend

def _write_values(tmp_path, table):
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"values": table}))
    return str(path)


def test_extend_compatible(capsys, cp2_file, tmp_path):
    values = _write_values(tmp_path, {
        "p1": ["0", "0"], "p2": ["1", "0"], "p3": ["0", "1"]})
    code, out, _ = run(capsys, ["extend", cp2_file, "--values", values])
    assert code == 0
    assert "e23 = [1]" in out
    assert "e12 = [0]" in out


def test_extend_incompatible(capsys, cp2_file, tmp_path):
    values = _write_values(tmp_path, {
        "p1": ["0", "0"], "p2": ["1", "0"], "p3": ["0", "2"]})
    code, _, err = run(capsys, ["extend", cp2_file, "--values", values])
    assert code == cli.EXIT_INCOMPATIBLE
    assert "'e23'" in err


def test_extend_checks_the_cut_of_a_system_that_breaks_the_functor_laws(capsys, tmp_path):
    # chain m < a < b with proj(m, b) = 2 but proj(a, b) proj(m, a) = 1: the
    # one minimal stratum pushes a = [1], b = [2], which break proj(a, b)
    space = tmp_path / "chain.space"
    space.write_text(json.dumps({
        "torus_dim": 2,
        "strata": [{"id": "m", "stabilizer": [[1, 0], [0, 1]]},
                   {"id": "a", "stabilizer": [[1, 0]]}, {"id": "b", "stabilizer": []}],
        "covers": [["m", "a"], ["a", "b"]],
        "dims": {"m": 1, "a": 1, "b": 1},
        "projections": [{"pair": ["m", "a"], "matrix": [["1"]]},
                        {"pair": ["a", "b"], "matrix": [["1"]]},
                        {"pair": ["m", "b"], "matrix": [["2"]]}]}))
    values = _write_values(tmp_path, {"m": ["1"]})
    code, out, err = run(capsys, ["extend", str(space), "--values", values])
    assert code == cli.EXIT_INCOMPATIBLE and out == ""
    assert err == "error: extended values break the projection from 'a' to 'b'\n"
    assert run(capsys, ["assignments", str(space)])[1] == "dim A = 0\n"


def test_extend_missing_minimal_value(capsys, cp2_file, tmp_path):
    values = _write_values(tmp_path, {"p1": ["0", "0"], "p2": ["1", "0"]})
    code, _, err = run(capsys, ["extend", cp2_file, "--values", values])
    assert code == cli.EXIT_VALIDATION
    assert "p3" in err


def test_extend_malformed_values_file(capsys, cp2_file, tmp_path):
    path = tmp_path / "values.json"
    path.write_text("[]")
    code, _, err = run(capsys, ["extend", cp2_file, "--values", str(path)])
    assert code == cli.EXIT_INPUT
    path.write_text(json.dumps({"values": {"p1": ["x", "0"]}}))
    code, _, err = run(capsys, ["extend", cp2_file, "--values", str(path)])
    assert code == cli.EXIT_INPUT


def test_values_vector_must_be_an_array(capsys, cp2_file, tmp_path):
    # iterating the string "00" would read it as [0, 0]
    values = _write_values(tmp_path, {"p1": "00", "p2": ["1", "0"], "p3": ["0", "1"]})
    code, out, err = run(capsys, ["--json", "extend", cp2_file, "--values", values])
    assert code == cli.EXIT_INPUT
    assert json.loads(out)["exit_code"] == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("value, entry, b", [
    ('"1e3"', '"0.5"', "500"), ('"0.5"', '"1/2"', "1/4"), ('"1/2"', "3", "3/2"),
    ("2", '"2E-1"', "2/5"), ("1.5", '"-1e+1"', "-15"),
])
def test_rationals_with_exponents_and_decimals_load(capsys, tmp_path, value, entry, b):
    # values and projection entries share one reader, which refuses only an
    # exponent past the interpreter's digit limit (tests/test_fuzz.py)
    space = tmp_path / "chain.space"
    space.write_text(_CHAIN.replace("@", "1").replace("#", f"[[{entry}]]"))
    values = tmp_path / "values.json"
    values.write_text('{"values": {"a": [' + value + ']}}')
    code, out, err = run(capsys, ["extend", str(space), "--values", str(values)])
    assert (code, err) == (0, "")
    assert f"  b = [{b}]" in out and f"  c = [{b}]" in out


# ---------------------------------------------------------------------------
# decompose

def test_decompose_success(capsys):
    code, out, _ = run(capsys, ["decompose", "--weights", "1;-1",
                                "--psi", "[1] z1 z2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "psi = [1] z1 z2"
    assert lines[1] == "condition: ok"
    assert "f1 = z2" in lines
    assert "g1 = 0" in lines
    assert lines[-1] == (
        "mu = -sqrt(-1) * [ (z2) dz1 - (0) dzb1 + (0) dz2 - (0) dzb2 ]"
    )


def test_decompose_condition_failure(capsys):
    code, _, err = run(capsys, ["decompose", "--weights", "1,0;0,1",
                                "--psi", "[0,1] z1"])
    assert code == cli.EXIT_CONDITION
    assert "condition fails at monomials: z1" in err


def test_decompose_constant_term(capsys):
    code, _, err = run(capsys, ["decompose", "--weights", "1",
                                "--psi", "[1]"])
    assert code == cli.EXIT_CONDITION
    assert "constant term" in err


def test_decompose_parse_error(capsys):
    code, _, err = run(capsys, ["decompose", "--weights", "1",
                                "--psi", "[1/2 z1"])
    assert code == cli.EXIT_INPUT
    assert "position 5" in err


def test_decompose_self_check_failure_is_not_a_validation_error(monkeypatch):
    # a decomposition failing its own verification is a program bug: it
    # propagates instead of ending in exit 2 (semantic validation)
    monkeypatch.setattr(cli.momentpoly, "verify_decomposition", lambda p, fc: False)
    with pytest.raises(RuntimeError):
        cli.main(["decompose", "--weights", "1;-1", "--psi", "[1] z1 z2"])


def test_decompose_json_deterministic(capsys):
    argv = ["--json", "decompose", "--weights", "1", "--psi", "[2] z1 zb1"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2
    report = json.loads(out1)
    assert report["condition"] == "ok"
    assert report["f"] == ["2 zb1"]


# ---------------------------------------------------------------------------
# the report writer

_TEXT_CHARS = ("a", "Z", "7", " ", "/", ",", ":", '"', "\\", "\n", "\t", "\x00", "\x1f",
               "\x7f", "\u00e9", "\u2202", "\u2028", "\U0001f600")


def _random_text(rng, seen):
    text = "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randint(0, 5)))
    seen.update(text)
    return text


def _random_value(rng, depth, seen):
    """A report-shaped value; seen collects the characters and kinds it holds."""
    kind = rng.choice(("dict", "list", "tuple", "leaf", "leaf") if depth else ("leaf",))
    if kind == "leaf":
        pick = rng.randrange(6)
        if not pick:
            return _random_text(rng, seen)
        leaf = (None, True, False, rng.randint(-2, 2), rng.randint(-10 ** 12, 10 ** 12))[pick - 1]
        if leaf is None or isinstance(leaf, bool):
            seen.add(repr(leaf))
        elif isinstance(leaf, int):
            seen.add("negative int" if leaf < 0 else "int")
        return leaf
    n = rng.randint(0, 4)
    seen.add(f"{'empty ' if not n else ''}{kind}")
    if kind == "dict":
        return {_random_text(rng, seen): _random_value(rng, depth - 1, seen) for _ in range(n)}
    items = [_random_value(rng, depth - 1, seen) for _ in range(n)]
    return items if kind == "list" else tuple(items)


def test_json_writer_matches_json_dumps_seeded():
    """The report writer gives the bytes of json.dumps(sort_keys=True, indent=2)."""
    rng = random.Random(2828)
    seen = set()
    for _ in range(600):
        report = {_random_text(rng, seen): _random_value(rng, 4, seen)
                  for _ in range(rng.randint(0, 6))}
        assert cli._json_text(report) == json.dumps(report, sort_keys=True, indent=2)
    assert seen >= set(_TEXT_CHARS) | {
        kind + name for kind in ("", "empty ") for name in ("dict", "list", "tuple")} | {
        "int", "negative int", "True", "False", "None"}
    for leaf in ("x\u00e9\"", -5, True, False, None, (), [], {}, ((1,), [])):
        assert cli._json_text(leaf) == json.dumps(leaf, sort_keys=True, indent=2)
    for bad in (1.5, Fraction(1, 2), {1, 2}, {"a": [0.5]}, {"a": (Fraction(3),)}):
        with pytest.raises(TypeError):
            cli._json_text(bad)


@pytest.mark.parametrize("argv, code, want", [
    (["build", "linear-rep", "--weights", ";"], cli.EXIT_INPUT, "no weight rows given"),
    (["build", "linear-rep", "--weights", "1,0;;0,1"], cli.EXIT_OK,
     {"weights": [[1, 0], [0, 1]]}),
    (["assignments", "{empty}"], cli.EXIT_VALIDATION, "a space needs at least one stratum"),
], ids=["no-weight-rows", "empty-weight-row-skipped", "space-without-strata"])
def test_edge_inputs_report_their_fault(capsys, tmp_path, argv, code, want):
    """Weight rows are split at `;` and empty chunks skipped, so `;` names
    none (exit 1); a space file with no strata is a validation error (exit 2)."""
    empty = tmp_path / "empty.space"
    empty.write_text(json.dumps({"torus_dim": 1, "strata": []}))
    got, out, _ = run(capsys, ["--json", *(a.format(empty=empty) for a in argv)])
    report = json.loads(out)
    assert got == code
    assert (report["params"] if code == cli.EXIT_OK else report["error"]["message"]) == want

"""Command line front end.

Commands read JSON space files, run the exact computations, and emit
deterministic reports: same input bytes, same output bytes.  Rationals are
serialized as "p/q" strings, never floats.

Exit codes: 0 success, 1 unreadable input (file/JSON/polynomial syntax,
over-long integer literals, over-deep nesting), an output file that cannot
be written or a value too long to print, 2 semantic validation,
3 subset is not a union of strata, 4 incompatible minimal values, 5 moment
condition failed, 6 stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import assignops, builders, cochain, coeffsys, momentpoly
from .builders import DescriptionError, SpaceDescription, WeightMatrix
from .errors import (
    ArityError,
    ConditionFailedError,
    CycleError,
    IncompatibleMinimalValuesError,
    MissingMinimalValueError,
    NonzeroConstantTermError,
    NotOpenError,
    NotUnionOfStrataError,
    ParseError,
    StabilizerMonotonicityError,
    UnknownIdError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_SUBSET = 3
EXIT_INCOMPATIBLE = 4
EXIT_CONDITION = 5
EXIT_PIPE = 6


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_json(path: str, malformed: str):
    """(decoded JSON, raw bytes) of an input file.

    An unreadable file raises _InputError "cannot read <path>: <reason>";
    bytes that do not decode raise _InputError "<path>: <malformed> (<error>)".
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e.strerror}") from None
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (ValueError, RecursionError) as e:
        # ValueError covers UnicodeDecodeError, JSONDecodeError and an
        # integer literal longer than the interpreter converts;
        # RecursionError is over-deep nesting
        raise _InputError(f"{path}: {malformed} ({e})") from None


def _load_space(path: str):
    obj, raw = _read_json(path, "not valid JSON")
    desc = SpaceDescription.from_json_dict(obj)
    space, system = builders.build_from_description(desc)
    return space, system, _digest(raw)


class _InputError(Exception):
    """Unreadable input or unwritable output file; maps to exit code 1."""


@contextmanager
def _printable():
    """str()'s ValueError on an int past the interpreter's digit limit, as _InputError."""
    try:
        yield
    except ValueError:
        raise _InputError(f"a value has more than {sys.get_int_max_str_digits()} "
                          "digits, the limit for printing one") from None


def _json_text(obj, indent: str = "\n") -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), by str.join.

    Takes dicts with str keys, lists, tuples, str, int, bool and None, and
    raises TypeError on anything else.  indent is the line break and the
    indentation that close obj; its items sit two spaces deeper.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # string leaves, most of a report, are quoted here without a call
        body = ("," + inner).join([
            _quote(k) + ": " + (_quote(x) if type(x) is str else _json_text(x, inner))
            for k, x in sorted(obj.items())])
        return "{" + inner + body + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join([_quote(x) if type(x) is str else _json_text(x, inner)
                                   for x in obj])
        return "[" + inner + body + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _vector_table(values: Dict[str, Sequence]) -> Dict[str, List[str]]:
    """A value per stratum as text; entries are ints or Fractions, and
    str(n) == str(Fraction(n))."""
    with _printable():
        return {x: [str(v) for v in values[x]] for x in sorted(values)}


def _format_assignment(values: Dict[str, List[str]]) -> str:
    return " ".join(f"{x}=[{','.join(v)}]" for x, v in sorted(values.items()))


# ---------------------------------------------------------------------------
# command handlers: each returns (report dict, text lines); the lines are a
# generator, so a --json run never builds them

def cmd_assignments(args) -> Tuple[dict, Iterable[str]]:
    space, system, digest = _load_space(args.file)
    basis = [_vector_table(values) for values in assignops._basis_values(system)]
    report = {
        "command": "assignments",
        "input_digest": digest,
        "dim": len(basis),
        "basis": basis,
    }

    def text():
        yield f"dim A = {len(basis)}"
        for i, table in enumerate(basis):
            yield f"basis {i + 1}: {_format_assignment(table)}"
    return report, text()


def _cochain_blocks(c) -> Dict[str, List[str]]:
    """A cochain's nonzero blocks as text, keyed by the comma-joined tuple."""
    with _printable():
        return {",".join(t): [str(v) for v in vec] for t, vec in c._nonzero_blocks()}


def _subset_option(space, text: Optional[str]) -> Optional[frozenset]:
    """The checked subset a comma-separated option names ("" names {}); None if absent."""
    if text is None:
        return None
    return coeffsys._check_subset(space, (s for s in text.split(",") if s))


def _cohomology_block(system, degree: int, strict: bool, relative, both: bool) -> dict:
    if relative is not None:
        res = cochain.relative_cohomology(system, relative, degree, strict=strict)
    elif both:
        # the cross-check builds both order complexes to the top degree
        res = cochain._Complex(system, strict).result(degree)
    else:
        res = cochain.cohomology(system, degree, strict=strict)
    return {
        "dim": res.dim,
        "representatives": [_cochain_blocks(r) for r in res.representatives],
        "diagnostics": dict(sorted(res.diagnostics.items())),
    }


def cmd_cohomology(args) -> Tuple[dict, Iterable[str]]:
    space, system, digest = _load_space(args.file)
    relative = _subset_option(space, args.relative)
    which = {"full": [False], "reduced": [True], "both": [True, False]}[args.complex]
    report = {
        "command": "cohomology",
        "input_digest": digest,
        "degree": args.degree,
        "relative": sorted(relative) if relative is not None else None,
        "results": {},
    }
    for strict in which:
        name = "reduced" if strict else "full"
        report["results"][name] = _cohomology_block(system, args.degree, strict, relative,
                                                    len(which) == 2)
    if len(which) == 2:
        results = report["results"]
        report["agreement"] = results["full"]["dim"] == results["reduced"]["dim"]

    def text():
        prefix = "HA" if relative is None else "HA_rel"
        for name, block in report["results"].items():
            yield f"{name}: dim {prefix}^{args.degree} = {block['dim']}"
            for i, rep in enumerate(block["representatives"]):
                shown = " ".join(
                    f"({t})=[{','.join(vec)}]" for t, vec in sorted(rep.items())
                )
                yield f"  rep {i + 1}: {shown}"
        if "agreement" in report:
            yield f"full/reduced agreement: {'yes' if report['agreement'] else 'NO'}"
    return report, text()


def _parse_weight_rows(text: str) -> List[List[int]]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(x) for x in chunk.split(",")])
        except ValueError:
            raise _InputError(f"bad weight row {chunk!r}") from None
    if not rows:
        raise _InputError("no weight rows given")
    return rows


_POLYTOPE_PRESETS = ("segment", "triangle", "square", "pentagon", "cube")


def cmd_build(args) -> Tuple[dict, Iterable[str]]:
    params: dict
    if args.kind == "linear-rep":
        if not args.weights:
            raise _InputError("linear-rep needs --weights")
        rows = _parse_weight_rows(args.weights)
        w = WeightMatrix.from_rows(rows)
        space, system = builders.build_linear_rep(w)
        params = {"weights": rows}
    elif args.kind == "sphere-product":
        if not args.lambdas or args.n is None:
            raise _InputError("sphere-product needs --n and --lambdas")
        rows = _parse_weight_rows(args.lambdas)
        space, system = builders.build_sphere_product(args.n, rows)
        params = {"n": args.n, "lambdas": rows}
    elif args.kind == "polytope":
        chosen = [p for p in _POLYTOPE_PRESETS if getattr(args, p)]
        if len(chosen) + (args.file is not None) != 1:
            raise _InputError(
                "polytope needs exactly one of "
                + ", ".join("--" + p for p in _POLYTOPE_PRESETS)
                + ", --file"
            )
        if chosen:
            data = builders.preset_polytope(chosen[0])
            params = {"preset": chosen[0]}
        else:
            malformed = "malformed polytope file"
            obj, raw = _read_json(args.file, malformed)
            try:
                data = builders.PolytopeData.from_json_dict(obj)
            except (KeyError, TypeError, ValueError) as e:
                raise _InputError(f"{args.file}: {malformed} ({e})") from None
            params = {"file_digest": _digest(raw)}
        space, system = builders.build_polytope(data)
    elif args.kind == "product":
        if not args.left or not args.right:
            raise _InputError("product needs --left and --right")
        s1, v1, d1 = _load_space(args.left)
        s2, v2, d2 = _load_space(args.right)
        space, system = builders.build_product((s1, v1), (s2, v2))
        params = {"left_digest": d1, "right_digest": d2}
    else:  # pragma: no cover - argparse restricts choices
        raise _InputError(f"unknown build kind {args.kind!r}")

    desc = SpaceDescription.from_space(space)
    payload = _json_text(desc.to_json_dict()) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            raise _InputError(f"cannot write {args.out}: {e.strerror}") from None
    report = {
        "command": "build",
        "kind": args.kind,
        "params": params,
        "input_digest": _digest(json.dumps(params, sort_keys=True).encode()),
        "strata": len(space.ids),
        "covers": len(space.covers),
        "torus_dim": space.torus_dim,
        "out": args.out,
    }

    def text():
        yield (f"built {args.kind}: {report['strata']} strata, {report['covers']} covers,"
               f" torus dim {report['torus_dim']}")
        if args.out:
            yield f"wrote {args.out}"
    return report, text()


def cmd_check(args) -> Tuple[dict, Iterable[str]]:
    space, system, digest = _load_space(args.file)
    n = _subset_option(space, args.les)
    report = {"command": "check", "input_digest": digest}

    fr = coeffsys.check_functor(system)
    report["functor"] = {
        "ok": fr.ok,
        "identity_violations": sorted(fr.identity_violations),
        "composition_violations": sorted(fr.composition_violations),
    }
    # every degree's d^2 = 0, read off the functor report (README, `check`)
    square_ok = not coeffsys.square_failures(system, strict=False)
    report["d_squared_zero"] = {"ok": square_ok, "degree": None if square_ok else 0}
    if args.euler:
        report["euler_characteristic"] = cochain.euler_characteristic(system)
    if n is not None:
        # the sequence is only defined for a functor: class coordinates of
        # induced maps fail on a perturbed system
        if fr.ok:
            les = cochain.les_pair_check(system, n)
        else:
            les = cochain.ExactSequenceReport([], [], [], ["not checked: functor laws fail"])
        report["les"] = {
            "subset": sorted(n),
            "ok": les.ok,
            "node_names": list(les.node_names),
            "node_dims": list(les.node_dims),
            "failures": list(les.failures),
        }

    def text():
        if fr.ok:
            yield "functor laws: ok"
        else:
            bad = fr.composition_violations or fr.identity_violations
            yield f"functor laws: FAIL at {bad[0]}"
        yield "d^2 = 0 (degrees 0..2): ok" if square_ok else "d^2 = 0: FAIL at degree 0"
        if args.euler:
            yield f"euler characteristic = {report['euler_characteristic']}"
        if n is not None:
            if not fr.ok:
                verdict = "not checked (functor laws fail)"
            else:
                verdict = "exact" if les.ok else f"NOT exact: {les.failures[0]}"
            yield f"LES for pair (space, {{{','.join(sorted(n))}}}): {verdict}"
            if fr.ok:
                yield "node dims: " + ", ".join(str(d) for d in les.node_dims)
    return report, text()


def cmd_extend(args) -> Tuple[dict, Iterable[str]]:
    space, system, digest = _load_space(args.file)
    malformed = "malformed values file"
    obj, raw = _read_json(args.values, malformed)
    try:
        table = {
            str(x): tuple(builders._json_rational(e) for e in builders._json_list(vec))
            for x, vec in obj["values"].items()
        }
    except (KeyError, AttributeError, TypeError, ValueError, ZeroDivisionError) as e:
        raise _InputError(f"{args.values}: {malformed} ({e})") from None
    minimal = assignops.MinimalAssignment(table)
    full = assignops.extend_minimal(system, minimal)
    values = _vector_table(full.values)
    report = {
        "command": "extend",
        "input_digest": digest,
        "values_digest": _digest(raw),
        "assignment": values,
    }

    def text():
        yield "extended assignment:"
        for x, vec in sorted(values.items()):
            yield f"  {x} = [{','.join(vec)}]"
    return report, text()


def _monomial_names(keys) -> List[str]:
    return [momentpoly._exp_text(k, l) or "1" for (k, l) in keys]


def cmd_decompose(args) -> Tuple[dict, Iterable[str]]:
    rows = _parse_weight_rows(args.weights)
    w = WeightMatrix.from_rows(rows)
    try:
        p = momentpoly.parse_poly(args.psi, w)
    except (ParseError, ArityError) as e:
        raise _InputError(f"cannot parse polynomial: {e}") from None
    fc = momentpoly.decompose(p)
    if not momentpoly.verify_decomposition(p, fc):
        raise RuntimeError("decomposition does not reproduce the polynomial")
    with _printable():
        texts = {}   # each monomial is rendered once for psi and the cofactors
        fs = [f.to_text(texts) for f, _ in fc.pairs]
        gs = [g.to_text(texts) for _, g in fc.pairs]
        psi = p.to_text(texts)
    report = {
        "command": "decompose",
        "input_digest": _digest(
            json.dumps({"weights": rows, "psi": args.psi}, sort_keys=True).encode()
        ),
        "psi": psi,
        "condition": "ok",
        "f": fs,
        "g": gs,
        "one_form": momentpoly._one_form(zip(fs, gs)),
    }

    def text():
        yield f"psi = {psi}"
        yield "condition: ok"
        for j, (f, g) in enumerate(zip(fs, gs)):
            yield f"f{j + 1} = {f}"
            yield f"g{j + 1} = {g}"
        yield report["one_form"]
    return report, text()


# ---------------------------------------------------------------------------

def _cohomology_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--complex", choices=("full", "reduced", "both"), default="reduced")
    p.add_argument("--relative", help="comma-separated stratum ids")


def _build_args(p) -> None:
    p.add_argument("kind", choices=("linear-rep", "sphere-product", "polytope", "product"))
    p.add_argument("--weights", help="rows 'a,b;c,d' for linear-rep")
    p.add_argument("--n", type=int, help="torus dimension for sphere-product")
    p.add_argument("--lambdas", help="rows 'a,b;c,d' for sphere-product")
    for preset in _POLYTOPE_PRESETS:
        p.add_argument(f"--{preset}", action="store_true")
    p.add_argument("--file", help="polytope description file")
    p.add_argument("--left", help="left factor space file")
    p.add_argument("--right", help="right factor space file")
    p.add_argument("--out", help="write the space description here")


def _check_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--les", help="comma-separated subset of stratum ids")
    p.add_argument("--euler", action="store_true")


def _extend_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--values", required=True)


def _decompose_args(p) -> None:
    p.add_argument("--weights", required=True)
    p.add_argument("--psi", required=True)


# (name, help, handler, add-arguments) of each subcommand
_COMMANDS = (
    ("assignments", "dimension and basis of the assignment space", cmd_assignments,
     lambda p: p.add_argument("file")),
    ("cohomology", "assignment cohomology in one degree", cmd_cohomology, _cohomology_args),
    ("build", "construct a space file", cmd_build, _build_args),
    ("check", "validate functor laws, d^2 = 0, LES, Euler", cmd_check, _check_args),
    ("extend", "extend minimal-stratum values to an assignment", cmd_extend, _extend_args),
    ("decompose", "moment condition and cofactor split", cmd_decompose, _decompose_args),
)


def _subparser(built: bool, **kwargs) -> Optional[argparse.ArgumentParser]:
    """A subcommand's parser, or None for a name registered but not built."""
    return argparse.ArgumentParser(**kwargs) if built else None


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv.

    Every subcommand is registered with its name and help line, so usage,
    help and `invalid choice` messages list them all, but only those whose
    name appears in argv get a parser: the only subparser that parses is
    the one argv names, and constructing a parser costs far more than
    registering a name.
    """
    ap = argparse.ArgumentParser(
        prog="assigncoh",
        description="Exact assignment spaces and assignment cohomology "
        "for stratified torus actions.",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=_subparser)
    named = set(argv)
    for name, help_text, handler, add_arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text, built=name in named)
        if p is not None:
            add_arguments(p)
            p.set_defaults(handler=handler)
    return ap


_ERROR_EXITS = (
    ((_InputError, DescriptionError), EXIT_INPUT),
    ((NotUnionOfStrataError,), EXIT_SUBSET),
    ((IncompatibleMinimalValuesError,), EXIT_INCOMPATIBLE),
    ((ConditionFailedError, NonzeroConstantTermError), EXIT_CONDITION),
    # remaining semantic failures: poset/stabilizer/subset/morphism validation
    ((CycleError, StabilizerMonotonicityError, UnknownIdError,
      MissingMinimalValueError, NotOpenError, ValueError), EXIT_VALIDATION),
)


def _fail(args, exc: Exception, code: int) -> int:
    if isinstance(exc, ConditionFailedError):
        detail = "condition fails at monomials: " + ", ".join(
            _monomial_names(exc.failing)
        )
    elif isinstance(exc, UnknownIdError):
        detail = exc.args[0]
    else:
        detail = str(exc)
    if getattr(args, "json", False):
        print(_json_text(
            {"error": {"type": type(exc).__name__, "message": detail}, "exit_code": code}))
    print(f"error: {detail}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: point stdout at os.devnull so that
        # the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def _run(args) -> int:
    try:
        report, lines = args.handler(args)
    except tuple(c for classes, _ in _ERROR_EXITS for c in classes) as exc:
        for classes, code in _ERROR_EXITS:
            if isinstance(exc, classes):
                return _fail(args, exc, code)
        raise  # pragma: no cover - mapping is exhaustive
    if args.json:
        print(_json_text(report))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
from .ratlin import _frac

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


def _rat_list(values) -> List[str]:
    with _printable():
        return [str(_frac(v)) for v in values]


def _vector_table(values: Dict[str, Tuple[Fraction, ...]]) -> Dict[str, List[str]]:
    return {x: _rat_list(values[x]) for x in sorted(values)}


def _format_assignment(values: Dict[str, List[str]]) -> str:
    return " ".join(f"{x}=[{','.join(v)}]" for x, v in sorted(values.items()))


# ---------------------------------------------------------------------------
# command handlers: each returns (report dict, text lines)

def cmd_assignments(args) -> Tuple[dict, List[str]]:
    space, system, digest = _load_space(args.file)
    basis = assignops.assignment_basis(system)
    report = {
        "command": "assignments",
        "input_digest": digest,
        "dim": len(basis),
        "basis": [_vector_table(b.values) for b in basis],
    }
    lines = [f"dim A = {len(basis)}"]
    for i, b in enumerate(basis):
        lines.append(f"basis {i + 1}: {_format_assignment(report['basis'][i])}")
    return report, lines


def _cochain_blocks(c) -> Dict[str, List[str]]:
    return {
        ",".join(t): _rat_list(vec)
        for t, vec in c.as_dict().items()
    }


def _subset_option(space, text: Optional[str]) -> Optional[frozenset]:
    """The checked subset a comma-separated option names ("" names {}); None if absent."""
    if text is None:
        return None
    return coeffsys._check_subset(space, (s for s in text.split(",") if s))


def _cohomology_block(system, degree: int, strict: bool, relative) -> dict:
    if relative is None:
        res = cochain.cohomology(system, degree, strict=strict)
    else:
        res = cochain.relative_cohomology(system, relative, degree, strict=strict)
    return {
        "dim": res.dim,
        "representatives": [_cochain_blocks(r) for r in res.representatives],
        "diagnostics": dict(sorted(res.diagnostics.items())),
    }


def cmd_cohomology(args) -> Tuple[dict, List[str]]:
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
    lines = []
    for strict in which:
        name = "reduced" if strict else "full"
        block = _cohomology_block(system, args.degree, strict, relative)
        report["results"][name] = block
        prefix = "HA" if relative is None else "HA_rel"
        lines.append(f"{name}: dim {prefix}^{args.degree} = {block['dim']}")
        for i, rep in enumerate(block["representatives"]):
            shown = " ".join(
                f"({t})=[{','.join(vec)}]" for t, vec in sorted(rep.items())
            )
            lines.append(f"  rep {i + 1}: {shown}")
    if len(which) == 2:
        dims = {name: blk["dim"] for name, blk in report["results"].items()}
        agree = dims["full"] == dims["reduced"]
        report["agreement"] = agree
        lines.append(f"full/reduced agreement: {'yes' if agree else 'NO'}")
    return report, lines


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


def cmd_build(args) -> Tuple[dict, List[str]]:
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
    payload = json.dumps(desc.to_json_dict(), sort_keys=True, indent=2) + "\n"
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
    lines = [
        f"built {args.kind}: {len(space.ids)} strata, {len(space.covers)} covers,"
        f" torus dim {space.torus_dim}"
    ]
    if args.out:
        lines.append(f"wrote {args.out}")
    return report, lines


def cmd_check(args) -> Tuple[dict, List[str]]:
    space, system, digest = _load_space(args.file)
    n = _subset_option(space, args.les)
    report = {"command": "check", "input_digest": digest}
    lines = []

    fr = coeffsys.check_functor(system)
    report["functor"] = {
        "ok": fr.ok,
        "identity_violations": sorted(fr.identity_violations),
        "composition_violations": sorted(fr.composition_violations),
    }
    if fr.ok:
        lines.append("functor laws: ok")
    else:
        bad = fr.composition_violations or fr.identity_violations
        lines.append(f"functor laws: FAIL at {bad[0]}")

    # every degree's d^2 = 0, read off the functor report (README, `check`)
    square_ok = coeffsys.weak_square_zero(system, fr)
    report["d_squared_zero"] = {"ok": square_ok, "degree": None if square_ok else 0}
    lines.append("d^2 = 0 (degrees 0..2): ok" if square_ok else "d^2 = 0: FAIL at degree 0")

    if args.euler:
        chi = cochain.euler_characteristic(system)
        report["euler_characteristic"] = chi
        lines.append(f"euler characteristic = {chi}")

    if n is not None:
        # the sequence is only defined for a functor: class coordinates of
        # induced maps fail on a perturbed system
        if fr.ok:
            les = cochain._les_pair(system, n)
            verdict = "exact" if les.ok else f"NOT exact: {les.failures[0]}"
        else:
            les = cochain.ExactSequenceReport([], [], [], ["not checked: functor laws fail"])
            verdict = "not checked (functor laws fail)"
        report["les"] = {
            "subset": sorted(n),
            "ok": les.ok,
            "node_names": list(les.node_names),
            "node_dims": list(les.node_dims),
            "failures": list(les.failures),
        }
        lines.append(f"LES for pair (space, {{{','.join(sorted(n))}}}): {verdict}")
        if fr.ok:
            lines.append("node dims: " + ", ".join(str(d) for d in les.node_dims))
    return report, lines


def cmd_extend(args) -> Tuple[dict, List[str]]:
    space, system, digest = _load_space(args.file)
    malformed = "malformed values file"
    obj, raw = _read_json(args.values, malformed)
    try:
        table = {
            str(x): tuple(Fraction(str(e)) for e in builders._json_list(vec))
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
    lines = ["extended assignment:"]
    for x, vec in sorted(values.items()):
        lines.append(f"  {x} = [{','.join(vec)}]")
    return report, lines


def _monomial_names(keys) -> List[str]:
    return [momentpoly._exp_text(k, l) or "1" for (k, l) in keys]


def cmd_decompose(args) -> Tuple[dict, List[str]]:
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
        fs = [f.to_text() for f, _ in fc.pairs]
        gs = [g.to_text() for _, g in fc.pairs]
        psi = p.to_text()
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
    lines = [f"psi = {report['psi']}", "condition: ok"]
    for j, (f, g) in enumerate(zip(report["f"], report["g"])):
        lines.append(f"f{j + 1} = {f}")
        lines.append(f"g{j + 1} = {g}")
    lines.append(report["one_form"])
    return report, lines


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


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv.

    Every subcommand is registered, but only those whose name appears in
    argv get their arguments: the only subparser that parses is the one
    argv names, and adding arguments is most of the cost of building.
    """
    ap = argparse.ArgumentParser(
        prog="assigncoh",
        description="Exact assignment spaces and assignment cohomology "
        "for stratified torus actions.",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = ap.add_subparsers(dest="cmd", required=True)
    named = set(argv)
    for name, help_text, handler, add_arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name in named:
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
        print(json.dumps(
            {"error": {"type": type(exc).__name__, "message": detail}, "exit_code": code},
            sort_keys=True, indent=2,
        ))
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
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

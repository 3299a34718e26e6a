"""Per-layer tracing of assigncoh from outside the package.

``Tracer.install`` wraps the public functions of every layer module, plus a
few class entry points, and rebinds each wrapper at every module attribute
that holds the original: ``cochain`` binds ``rref``, ``rank``,
``kernel_basis`` and ``solve`` by name, so wrapping ``ratlin.rref`` alone
would miss those calls.  The source is never edited, and ``uninstall``
puts every original back.

Each call records a span (name, start, end, parent span, op id) in memory.
A span's self time is its duration minus the time its child spans cover,
including the time their wrappers spent counting, so counting never shows
up as work of the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List

LAYERS = ("ratlin", "stratposet", "coeffsys", "cochain", "assignops", "builders",
          "momentpoly", "cli")

# (module, class, attribute): methods that do a layer's work
CLASS_ENTRY_POINTS = (
    ("ratlin", "RatMatrix", "__matmul__"),
    ("ratlin", "RatMatrix", "transpose"),
    ("ratlin", "RatMatrix", "is_zero"),
    ("ratlin", "RatMatrix", "apply"),
    ("stratposet", "Subalgebra", "span"),
    ("stratposet", "StratSpace", "from_covers"),
    ("coeffsys", "CoefficientSystem", "from_cover_maps"),
    ("builders", "SpaceDescription", "from_json_dict"),
    ("builders", "SpaceDescription", "from_space"),
)


def _nnz(m) -> int:
    return sum(1 for row in m.data for x in row if x)


PACKAGE = "assigncoh"


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, op id, time covered by children]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_id = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self._seen_canon = set()
        self._patched: list = []

    # -- counters run outside a span's [start, end] -----------------------

    def _count_rref(self, args, kwargs, result):
        m = args[0]
        c = self.counts
        c["rref_cells"] += m.rows * m.cols
        c["rref_rows"] += m.rows
        c["rref_nnz_in"] += _nnz(m)
        c["rref_nnz_out"] += _nnz(result[0])
        c["rref_rank"] += result[1]

    def _count_matmul(self, args, kwargs, result):
        a, b = args[0], args[1]
        self.counts["matmul_flops"] += a.rows * a.cols * b.cols

    def _count_functor(self, args, kwargs, result):
        space = args[0].space
        self.counts["functor_triples"] += sum(
            len(space.upset(y)) - 1 for x in space.ids for y in space.upset(x) if y != x
        )

    def _count_moment(self, args, kwargs, result):
        space = args[0]
        self.counts["moment_pairs"] += sum(len(space.upset(x)) - 1 for x in space.ids)

    def _count_chain_basis(self, args, kwargs, result):
        self.counts["chain_dim"] += result.total_dim

    def _count_chains(self, args, kwargs, result):
        self.counts["chains_tuples"] += len(result)

    def _count_decompose(self, args, kwargs, result):
        self.counts["terms"] += len(args[0].terms)

    def _prepare_span(self, args, kwargs):
        """Materialize the vectors once and note whether this input was seen."""
        args, kwargs = list(args), dict(kwargs)
        if len(args) > 2:
            args[2] = vectors = [list(v) for v in args[2]]
        else:
            kwargs["vectors"] = vectors = [list(v) for v in kwargs["vectors"]]
        dim = args[1] if len(args) > 1 else kwargs["ambient_dim"]
        # sorted: callers may pass the same vectors in hash-seed-dependent order
        key = (dim, tuple(sorted(tuple(int(x) for x in v) for v in vectors)))
        if key in self._seen_canon:
            self.counts["canon_repeats"] += 1
        else:
            self._seen_canon.add(key)
        return tuple(args), kwargs

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count=None, prepare=None) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[2] - t0
                raise
            rec[2] = perf_counter()
            stack.pop()
            if count is not None:
                count(args, kwargs, result)
            if parent >= 0:
                spans[parent][5] += perf_counter() - t0
            return result
        return wrapper

    def _counter_for(self, name: str):
        return {
            "ratlin.rref": self._count_rref,
            "ratlin.RatMatrix.__matmul__": self._count_matmul,
            "coeffsys.check_functor": self._count_functor,
            "coeffsys.moment_system": self._count_moment,
            "cochain.chain_basis": self._count_chain_basis,
            "stratposet.chains": self._count_chains,
            "momentpoly.decompose": self._count_decompose,
        }.get(name)

    def install(self) -> None:
        pkg = PACKAGE
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, self._counter_for(name)))
        for layer, cls_name, attr in CLASS_ENTRY_POINTS:
            cls = getattr(sys.modules[f"{pkg}.{layer}"], cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                continue
            name = f"{layer}.{cls_name}.{attr}"
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            prepare = self._prepare_span if name == "stratposet.Subalgebra.span" else None
            wrapped = self._wrap(name, fn, self._counter_for(name), prepare)
            self._setattr(cls, attr, classmethod(wrapped) if is_cm else wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == pkg or mod_name.startswith(pkg + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._setattr(mod, attr, hit[1])

    def _setattr(self, target, attr, value) -> None:
        self._patched.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        incl = defaultdict(float)
        calls = defaultdict(int)
        self_by_layer = defaultdict(float)
        for name, start, end, _parent, _op, covered in self.spans:
            dur = end - start
            incl[name] += dur
            calls[name] += 1
            self_by_layer[name.split(".", 1)[0]] += dur - covered
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
        out.update({
            "ratlin.rref_s": incl["ratlin.rref"],
            "ratlin.rref_calls": calls["ratlin.rref"],
            "ratlin.rref_cells": c["rref_cells"],
            "ratlin.rref_density": ratio(c["rref_nnz_in"], c["rref_cells"]),
            "ratlin.rref_fill": ratio(c["rref_nnz_out"], c["rref_nnz_in"]),
            "ratlin.pivot_ratio": ratio(c["rref_rank"], c["rref_rows"]),
            "ratlin.matmul_s": incl["ratlin.RatMatrix.__matmul__"],
            "ratlin.matmul_calls": calls["ratlin.RatMatrix.__matmul__"],
            "ratlin.matmul_flops": c["matmul_flops"],
            "ratlin.solve_s": incl["ratlin.solve"],
            "ratlin.solve_calls": calls["ratlin.solve"],
            "stratposet.chains_s": incl["stratposet.chains"],
            "stratposet.chains_tuples": c["chains_tuples"],
            "stratposet.canon_s": incl["stratposet.Subalgebra.span"],
            "stratposet.canon_calls": calls["stratposet.Subalgebra.span"],
            "stratposet.canon_repeat_ratio": ratio(c["canon_repeats"],
                                                   calls["stratposet.Subalgebra.span"]),
            "stratposet.poset_s": incl["stratposet.StratSpace.from_covers"],
            "coeffsys.functor_s": incl["coeffsys.check_functor"],
            "coeffsys.functor_triples": c["functor_triples"],
            "coeffsys.moment_s": incl["coeffsys.moment_system"],
            "coeffsys.moment_pairs": c["moment_pairs"],
            "cochain.chain_dim": c["chain_dim"],
            "cochain.cohomology_s": incl["cochain.cohomology"] + incl["cochain.relative_cohomology"],
            "cochain.les_s": incl["cochain.les_pair_check"] + incl["cochain.les_coefficients_check"],
            "assignops.extend_s": incl["assignops.extend_minimal"],
            "builders.load_s": (incl["builders.SpaceDescription.from_json_dict"]
                                + incl["builders.build_from_description"]),
            "builders.build_s": sum(incl[f"builders.build_{k}"] for k in
                                    ("linear_rep", "sphere_product", "polytope", "product")),
            "momentpoly.terms": c["terms"],
            "trace.spans": len(self.spans),
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]) + "\n")

"""Spans around lpakit's public functions, installed from outside the package.

`Tracer.install` replaces each traced function or method with a wrapper that
records one span per call: its name, start, end and parent span.  A function
is rebound in every lpakit module namespace that holds it (`cli` imports
`classify` and `bracket_space` by name), and a method is replaced on its
class.  `Tracer.uninstall` puts every original back.  Spans stay in memory, in
flat arrays, and are aggregated or written out only after the traced rounds.

Per-monomial helpers such as `monomial_key` and `_raw_mul` are deliberately
not traced: they run millions of times per corpus pass, and wrapping them
would measure the wrapper rather than the code.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


def _safe_len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _count_mul(c: Counter, args, result) -> None:
    self, other = args
    c["algebra.mul.term_pairs"] += len(self.terms) * len(getattr(other, "terms", ()))


def _count_normal_form(c: Counter, args, result) -> None:
    c["algebra.normal_form.terms_in"] += _safe_len(args[1])
    c["algebra.normal_form.terms_out"] += len(result)


def _count_rowspace_add(c: Counter, args, result) -> None:
    c["algebra.rowspace_add.pivots"] += bool(result)


def _count_skew_basis(c: Counter, args, result) -> None:
    c["skew.skew_basis.gens"] += len(result)


def _count_bracket(c: Counter, args, result) -> None:
    c["skew.bracket.zero"] += not result.terms


# (module, attribute or Class.method, span name, counter hook)
TRACED = [
    ("lpakit.cli", "main", "cli.main", None),
    ("lpakit.graph", "parse_graph", "graph.parse_graph", None),
    ("lpakit.graph", "enumerate_cycles", "graph.enumerate_cycles", None),
    ("lpakit.graph", "exitless_cycles", "graph.exitless_cycles", None),
    ("lpakit.graph", "weak_components", "graph.weak_components", None),
    ("lpakit.graph", "Graph.subgraph", "graph.subgraph", None),
    ("lpakit.classify", "classify", "classify.classify", None),
    ("lpakit.classify", "is_simple", "classify.is_simple", None),
    ("lpakit.classify", "hs_closure", "classify.hs_closure", None),
    ("lpakit.classify", "saturated_closure", "classify.saturated_closure", None),
    ("lpakit.classify", "smallest_hs_subset", "classify.smallest_hs_subset", None),
    ("lpakit.classify", "validate_classification", "classify.validate_classification", None),
    ("lpakit.classify", "enumerate_hs_subsets", "classify.enumerate_hs_subsets", None),
    ("lpakit.classify", "is_vanishing_family", "classify.is_vanishing_family", None),
    ("lpakit.skew", "lie_simplicity_evidence", "skew.lie_simplicity_evidence", None),
    ("lpakit.skew", "bracket_space", "skew.bracket_space", None),
    ("lpakit.skew", "skew_basis", "skew.skew_basis", _count_skew_basis),
    ("lpakit.skew", "bracket", "skew.bracket", _count_bracket),
    ("lpakit.skew", "first_nonzero_bracket", "skew.first_nonzero_bracket", None),
    ("lpakit.skew", "bracket_in_ideal", "skew.bracket_in_ideal", None),
    ("lpakit.algebra", "Element.__mul__", "algebra.mul", _count_mul),
    ("lpakit.algebra", "normal_form", "algebra.normal_form", _count_normal_form),
    ("lpakit.algebra", "RowSpace.add", "algebra.rowspace_add", _count_rowspace_add),
    ("lpakit.algebra", "RowSpace.contains", "algebra.rowspace_contains", None),
    ("lpakit.algebra", "RowSpace.reduced_rows", "algebra.reduced_rows", None),
    ("lpakit.algebra", "ideal_span", "algebra.ideal_span", None),
    ("lpakit.algebra", "basis_monomials", "algebra.basis_monomials", None),
    ("lpakit.laurent", "verify_cycle_iso", "laurent.verify_cycle_iso", None),
    ("lpakit.laurent", "LaurentMatrix.__mul__", "laurent.matrix_mul", None),
]

# Per-layer metrics: name -> (unit, better).  `.s` is total span time,
# `.self_s` span time minus child span time, both per traced round.
PER_LAYER = {
    "cli.main.self_s": ("s", "lower"),
    "graph.parse_graph.s": ("s", "lower"),
    "graph.enumerate_cycles.s": ("s", "lower"),
    "graph.enumerate_cycles.calls": ("count", "lower"),
    "graph.enumerate_cycles.failed": ("count", "lower"),
    "graph.exitless_cycles.s": ("s", "lower"),
    "graph.weak_components.s": ("s", "lower"),
    "graph.subgraph.s": ("s", "lower"),
    "classify.classify.self_s": ("s", "lower"),
    "classify.is_simple.s": ("s", "lower"),
    "classify.is_simple.calls": ("count", "lower"),
    "classify.hs_closure.s": ("s", "lower"),
    "classify.hs_closure.calls": ("count", "lower"),
    "classify.saturated_closure.calls": ("count", "lower"),
    "classify.smallest_hs_subset.s": ("s", "lower"),
    "classify.validate_classification.s": ("s", "lower"),
    "classify.enumerate_hs_subsets.s": ("s", "lower"),
    "classify.is_vanishing_family.s": ("s", "lower"),
    "skew.lie_simplicity_evidence.self_s": ("s", "lower"),
    "skew.bracket_space.s": ("s", "lower"),
    "skew.skew_basis.s": ("s", "lower"),
    "skew.skew_basis.gens": ("count", "lower"),
    "skew.bracket.calls": ("count", "lower"),
    "skew.bracket.s": ("s", "lower"),
    "skew.bracket.zero_ratio": ("ratio", "lower"),
    "skew.first_nonzero_bracket.s": ("s", "lower"),
    "skew.bracket_in_ideal.s": ("s", "lower"),
    "algebra.mul.s": ("s", "lower"),
    "algebra.mul.calls": ("count", "lower"),
    "algebra.mul.term_pairs": ("count", "lower"),
    "algebra.normal_form.s": ("s", "lower"),
    "algebra.normal_form.calls": ("count", "lower"),
    "algebra.normal_form.terms_in": ("count", "lower"),
    "algebra.normal_form.terms_out": ("count", "lower"),
    "algebra.rowspace_add.s": ("s", "lower"),
    "algebra.rowspace_add.calls": ("count", "lower"),
    "algebra.rowspace_add.pivot_ratio": ("ratio", "higher"),
    "algebra.rowspace_contains.s": ("s", "lower"),
    "algebra.reduced_rows.s": ("s", "lower"),
    "algebra.ideal_span.s": ("s", "lower"),
    "algebra.basis_monomials.s": ("s", "lower"),
    "laurent.verify_cycle_iso.s": ("s", "lower"),
    "laurent.matrix_mul.s": ("s", "lower"),
    "laurent.matrix_mul.calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

MARK = "_perfbench_span"


def _lpakit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lpakit" or name.startswith("lpakit."))]


def installed_wrappers() -> list[str]:
    """Every lpakit module attribute or class attribute that is a wrapper."""
    found = []
    for mod in _lpakit_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}"
                          for k, v in vars(value).items() if hasattr(v, MARK)]
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, type] = {}
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        lid = len(self.names)
        self.names.append(name)
        label, parent, start, end = self.label, self.parent, self.start, self.end
        stack, errors, counters, clock = self._stack, self.errors, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            label.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        modules = _lpakit_modules()
        for modname, attr, name, count in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._restore.append((cls, meth, vars(cls)[meth]))
                setattr(cls, meth, self._wrap(name, vars(cls)[meth], count))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, failed calls.

        A failed call is one that raised anything other than lpakit's own
        error classes, which the CLI turns into exit codes.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0} for name in self.names}
        for i, lid in enumerate(self.label):
            row = out[self.names[lid]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for i, exc in self.errors.items():
            if not exc.__module__.startswith("lpakit"):
                out[self.names[self.label[i]]]["failed"] += 1
        return out

    def error_types(self) -> dict[str, int]:
        return dict(Counter(f"{self.names[self.label[i]]}:{exc.__name__}"
                            for i, exc in self.errors.items()))

    def per_layer(self, rounds: int) -> dict[str, float]:
        """The PER_LAYER metrics, per traced round (ratios as they are)."""
        agg = self.aggregate()
        c = self.counters
        values: dict[str, float] = {}
        for metric in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if span in agg and field in ("s", "self_s", "calls", "failed"):
                values[metric] = agg[span][field] / rounds
        values["skew.skew_basis.gens"] = c["skew.skew_basis.gens"] / rounds
        values["skew.bracket.zero_ratio"] = (
            c["skew.bracket.zero"] / agg["skew.bracket"]["calls"]
            if agg["skew.bracket"]["calls"] else 0.0)
        values["algebra.mul.term_pairs"] = c["algebra.mul.term_pairs"] / rounds
        values["algebra.normal_form.terms_in"] = c["algebra.normal_form.terms_in"] / rounds
        values["algebra.normal_form.terms_out"] = c["algebra.normal_form.terms_out"] / rounds
        values["algebra.rowspace_add.pivot_ratio"] = (
            c["algebra.rowspace_add.pivots"] / agg["algebra.rowspace_add"]["calls"]
            if agg["algebra.rowspace_add"]["calls"] else 0.0)
        return values

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then the four arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["label:i", "parent:i", "start:d", "end:d"],
                  "errors": {str(i): e.__name__ for i, e in self.errors.items()}}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.label, self.parent, self.start, self.end):
                arr.tofile(f)

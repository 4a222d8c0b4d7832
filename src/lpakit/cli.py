"""Command line interface.

Three subcommands over the same graph file format:

* classify: the almost-simple decomposition and its evidence bundle,
* inspect: structural facts (sources, sinks, fibers, cycles, subsets),
* algebra: dimensions, bracket-space dimensions, the 2x2 fiber check and
  the cycle model check.

Exit codes: 0 success (also when the reader of stdout closes it early), 2
bad input (unreadable file, parse error, an undefined question such as the
dimension of a cyclic graph), 3 an internal self-check failed (a relation
table did not verify).  JSON output is schema-stable and key-sorted so runs
are byte-identical.

main runs the command with the cyclic garbage collector paused.  lpakit's
graphs, tuples, int vectors and Elements hold no reference cycles, so the
collector frees nothing, yet it took about a fifth of classify and inspect
on a 10^4-vertex graph; tests/test_cli.py::test_commands_leave_no_cyclic_garbage
guards that premise.  Library functions leave the process-wide collector alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from decimal import Decimal
from itertools import repeat
from json.encoder import encode_basestring_ascii as encode_str
from pathlib import Path as FsPath

from .algebra import AlgebraError, GraphHasCycle, MonomialTable, dimension
from .classify import (
    ClassifyError,
    GraphTooLarge,
    classify,
    enumerate_hs_subsets,
    find_fibers,
    is_fork,
    smallest_hs_subset,
    validate_classification,
)
from .graph import Graph, GraphError, TooManyCycles, parse_graph
from .graph import enumerate_cycles, exitless_cycles, sinks, sources, weak_components
from .laurent import InvalidDimension, RelationFailure, verify_cycle_iso
# bracket_space is not called here, but perfbench/checks.py requires the name
# bound in this module, so that tracing wraps it here too
from .skew import (  # noqa: F401
    NotAFiber,
    SkewError,
    TableMismatch,
    _bracket_pass,
    _generators,
    bracket_space,
    fiber_m2_iso,
    lie_simplicity_evidence,
)

DEFAULT_TRUNCATE = 4


def _read_text(path: str) -> str:
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _read_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _read_corpus_graph(path: FsPath) -> Graph:
    """_read_graph for one file of a corpus: an error in the file's text
    is prefixed with the file's name (a read error names its path)."""
    text = _read_text(str(path))
    try:
        return parse_graph(text)
    except GraphError as exc:
        raise GraphError(f"{path.name}: {exc}") from exc


def _int_text(n: int) -> str:
    """n in decimal, however many digits it has: str() refuses an int of
    more than sys.get_int_max_str_digits() digits, Decimal has no limit."""
    return str(Decimal(n))


def _write_json(x, write, indent: str = "\n") -> None:
    """Write x as json.dump(x, indent=2, sort_keys=True) would, piece by
    piece.  It takes dicts with str keys, lists, str, int, bool and None,
    and raises TypeError on anything else.

    json's indented encoder runs in pure Python; here every string goes
    through json's C encoder, a list of strings is encoded and joined in one
    C call, and a list of non-empty lists of strings in one C join per inner
    list.  indent is the newline and the indentation of x's own line.
    """
    if isinstance(x, str):
        write(encode_str(x))
    elif x is None:
        write("null")
    elif x is True:
        write("true")
    elif x is False:
        write("false")
    elif isinstance(x, int):
        write(_int_text(x))
    elif isinstance(x, list):
        if not x:
            write("[]")
            return
        inner = indent + "  "
        try:
            if set(map(type, x)) == {list} and all(x):
                deeper = inner + "  "
                rows = map(("," + deeper).join, map(map, repeat(encode_str), x))
                body = "[" + deeper + (inner + "]," + inner + "[" + deeper).join(rows) + inner + "]"
            else:
                body = ("," + inner).join(map(encode_str, x))
        except TypeError:  # an item that is not a str
            body = None
        if body is not None:
            write("[" + inner + body + indent + "]")
            return
        sep = "[" + inner
        for item in x:
            write(sep)
            _write_json(item, write, inner)
            sep = "," + inner
        write(indent + "]")
    elif isinstance(x, dict):
        if not x:
            write("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for k in sorted(x):
            write(sep + encode_str(k) + ": ")  # TypeError unless k is a str
            _write_json(x[k], write, inner)
            sep = "," + inner
        write(indent + "}")
    else:
        raise TypeError(f"{type(x).__name__} is not written as JSON")


def _emit(report: dict | list, as_json: bool, render) -> None:
    if as_json:
        _write_json(report, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        for line in render(report):
            print(line)


# -- classify ----------------------------------------------------------------


def _classification_report(path: str | None, g: Graph, args) -> dict:
    if args.no_evidence:
        cls = classify(g)
        evidence = None
    else:
        bundle = lie_simplicity_evidence(g, DEFAULT_TRUNCATE if args.truncate is None else args.truncate)
        cls = bundle.classification
        containment = bundle.ideal_containment
        evidence = {
            "truncation": bundle.truncation,
            "algebra_dimension": bundle.algebra_dimension,
            "bracket_space_dimension": bundle.bracket_space_dimension,
            "vanishing_family": bundle.vanishing_family,
            "witness": None,
            "ideal_containment": None if containment is None else {
                "contained": containment.contained,
                "bracket_dimension": containment.bracket_dimension,
                "ideal_rank": containment.ideal_rank,
                "truncation": containment.truncation,
                "slack": containment.slack,
            },
        }
        if args.witness and bundle.witness is not None:
            evidence["witness"] = {
                "left": str(bundle.witness.left),
                "right": str(bundle.witness.right),
                "value": str(bundle.witness.value),
            }
    if cls.almost_simple and not validate_classification(g, cls):
        raise RelationFailure("classification failed its self-validation")
    simp = cls.simplicity
    return {
        "file": path,
        "graph": {
            "vertices": list(g.vertices),
            "edges": list(map(list, g.edges)),
            "components": list(map(list, cls.components)),
        },
        "simple": {
            "holds": simp.simple,
            "proper_hs_subset": list(simp.proper_hs_subset) if simp.proper_hs_subset else None,
            "exitless_cycle": list(simp.exitless_cycle) if simp.exitless_cycle else None,
        },
        "almost_simple": cls.almost_simple,
        "predicted_kk_simple": cls.almost_simple,
        "decomposition": {
            "core": list(cls.core),
            "balloons": list(cls.balloons),
            "fiber_units": [[e.source, e.name, e.target] for e in cls.fiber_units],
        },
        "failure_reason": None if cls.failure_reason is None else {
            "kind": cls.failure_reason.kind,
            "detail": cls.failure_reason.detail,
        },
        "warnings": list(cls.warnings),
        "evidence": evidence,
    }


def _render_classification(r: dict) -> list[str]:
    out = []
    if r["file"]:
        out.append(f"file: {r['file']}")
    g = r["graph"]
    out.append(
        f"graph: {len(g['vertices'])} vertices, {len(g['edges'])} edges, "
        f"{len(g['components'])} component(s)"
    )
    simp = r["simple"]
    if simp["holds"]:
        out.append("simple: yes")
    elif simp["proper_hs_subset"]:
        out.append(
            "simple: no (proper hereditary-saturated subset: "
            + " ".join(simp["proper_hs_subset"]) + ")"
        )
    else:
        out.append("simple: no (cycle without exit: " + " ".join(simp["exitless_cycle"]) + ")")
    out.append(f"almost simple: {'yes' if r['almost_simple'] else 'no'}")
    d = r["decomposition"]
    out.append("  core: " + (" ".join(d["core"]) or "(none)"))
    out.append("  balloons: " + (" ".join(d["balloons"]) or "(none)"))
    units = ", ".join(f"{s}-[{e}]->{t}" for s, e, t in d["fiber_units"]) or "(none)"
    out.append("  fiber units: " + units)
    if r["failure_reason"]:
        out.append(f"  reason: {r['failure_reason']['kind']}: {r['failure_reason']['detail']}")
    out.append(f"predicted skew-commutator simplicity: {'yes' if r['almost_simple'] else 'no'}")
    ev = r["evidence"]
    if ev:
        out.append(f"evidence (truncation {ev['truncation']}):")
        dim = ev["algebra_dimension"]
        out.append(f"  algebra dimension: {'infinite (cycle present)' if dim is None else _int_text(dim)}")
        out.append(f"  bracket space dimension: {ev['bracket_space_dimension']}")
        out.append(f"  vanishing family: {'yes' if ev['vanishing_family'] else 'no'}")
        ic = ev["ideal_containment"]
        if ic:
            out.append(
                f"  ideal containment at degree {ic['truncation']} (slack {ic['slack']}): "
                f"{'contained' if ic['contained'] else 'NOT CONTAINED'}"
            )
        if ev["witness"]:
            w = ev["witness"]
            out.append(f"  witness: [{w['left']}, {w['right']}] = {w['value']}")
    for w in r["warnings"]:
        out.append(f"warning: {w}")
    return out


def _render_corpus(reports: list[dict]) -> list[str]:
    out: list[str] = []
    for i, r in enumerate(reports):
        if i:
            out.append("")
        out += _render_classification(r)
    return out


def cmd_classify(args) -> int:
    if args.corpus:
        base = FsPath(args.corpus)
        files = sorted(base.glob("*.graph"))
        if not files:
            print(f"no .graph files under {base}", file=sys.stderr)
            return 2
        reports = [_classification_report(f.name, _read_corpus_graph(f), args) for f in files]
        _emit(reports, args.json, _render_corpus)
        return 0
    g = _read_graph(args.file)
    report = _classification_report(args.file, g, args)
    _emit(report, args.json, _render_classification)
    return 0


# -- inspect -----------------------------------------------------------------


def cmd_inspect(args) -> int:
    g = _read_graph(args.file)
    try:
        cycles = [list(c) for c in enumerate_cycles(g, args.max_cycles)]
        truncated = False
    except TooManyCycles:
        cycles = []
        truncated = True
    try:
        subsets = [list(s) for s in enumerate_hs_subsets(g)]
    except GraphTooLarge:
        subsets = None
    smallest = smallest_hs_subset(g)
    report = {
        "file": args.file,
        "vertices": list(g.vertices),
        "edges": list(map(list, g.edges)),
        "components": weak_components(g),
        "sources": sources(g),
        "sinks": sinks(g),
        "fibers": [e.name for e in find_fibers(g)],
        "is_fork": is_fork(g),
        "exitless_cycles": [list(c) for c in exitless_cycles(g)],
        "cycles": cycles,
        "cycles_truncated": truncated,
        "hs_subsets": subsets,
        "smallest_hs_subset": smallest,
    }

    def render(r: dict) -> list[str]:
        out = [f"file: {r['file']}"]
        out.append("vertices: " + " ".join(r["vertices"]))
        out.append("edges: " + (", ".join(f"{n}: {s}->{t}" for n, s, t in r["edges"]) or "(none)"))
        out.append(f"components: {len(r['components'])}")
        out.append("sources: " + (" ".join(r["sources"]) or "(none)"))
        out.append("sinks: " + (" ".join(r["sinks"]) or "(none)"))
        out.append("fibers: " + (" ".join(r["fibers"]) or "(none)"))
        out.append(f"fork: {'yes' if r['is_fork'] else 'no'}")
        out.append("exitless cycles: " + ("; ".join(" ".join(c) for c in r["exitless_cycles"]) or "(none)"))
        if r["cycles_truncated"]:
            out.append(f"cycles: more than {args.max_cycles}")
        else:
            out.append("cycles: " + ("; ".join(" ".join(c) for c in r["cycles"]) or "(none)"))
        if r["hs_subsets"] is None:
            out.append("hereditary-saturated subsets: skipped (too many vertices)")
        else:
            out.append("hereditary-saturated subsets: "
                       + ("; ".join("{" + " ".join(s) + "}" for s in r["hs_subsets"]) or "(none)"))
        sm = r["smallest_hs_subset"]
        out.append("smallest hereditary-saturated subset: "
                   + ("{" + " ".join(sm) + "}" if sm else "(none)"))
        return out

    _emit(report, args.json, render)
    return 0


# -- algebra -----------------------------------------------------------------


def cmd_algebra(args) -> int:
    g = _read_graph(args.file)
    what = given = args.what
    # each flag belongs to one question, and implies it when none is given
    for flag, value, question in (("--fiber", args.fiber, "m2-check"),
                                  ("--cycle-check", args.cycle_check, "cycle-check")):
        if value is None:
            continue
        if what is None:
            what, given = question, flag
        elif what != question:
            print(f"{flag} belongs to {question} and cannot go with {given}", file=sys.stderr)
            return 2
    if what is None:
        print("nothing to do: pick dim, skew-dim, bracket-dim, m2-check or cycle-check",
              file=sys.stderr)
        return 2
    if args.truncate is not None and what not in ("skew-dim", "bracket-dim"):
        print(f"--truncate belongs to skew-dim and bracket-dim and cannot go with {given}",
              file=sys.stderr)
        return 2
    n = DEFAULT_TRUNCATE if args.truncate is None else args.truncate
    report: dict = {"file": args.file, "what": what}
    if what == "dim":
        try:
            report["dimension"] = dimension(g)
        except GraphHasCycle:
            print("the graph has a cycle; its algebra is infinite dimensional",
                  file=sys.stderr)
            return 2
    elif what == "skew-dim":
        report["truncation"] = n
        report["skew_dimension"] = len(_generators(MonomialTable(g), n))
    elif what == "bracket-dim":
        report["truncation"] = n
        # the sum of the ranks of the pass's buckets, without reducing rows
        report["bracket_space_dimension"] = _bracket_pass(g, n)[0]
    elif what == "m2-check":
        if args.fiber is None:
            print("m2-check needs --fiber EDGE", file=sys.stderr)
            return 2
        try:
            check = fiber_m2_iso(g, args.fiber)
        except NotAFiber as exc:
            print(str(exc), file=sys.stderr)
            return 2
        report["fiber"] = check.edge
        report["products_checked"] = check.products_checked
        report["star_checked"] = check.star_checked
        report["images"] = {k: str(v) for k, v in sorted(check.images.items())}
    elif what == "cycle-check":
        if args.cycle_check is None:
            print("cycle-check needs --cycle-check D", file=sys.stderr)
            return 2
        try:
            res = verify_cycle_iso(args.cycle_check)
        except InvalidDimension as exc:
            print(str(exc), file=sys.stderr)
            return 2
        report["cycle_size"] = res.d
        report["relation_checks"] = res.relation_checks
        report["product_checks"] = res.product_checks

    def render(r: dict) -> list[str]:
        return [f"{k}: {_int_text(v) if type(v) is int else v}"
                for k, v in r.items() if k != "images"] + (
            [f"  {k} -> {v}" for k, v in r["images"].items()] if "images" in r else []
        )

    _emit(report, args.json, render)
    return 0


# -- entry point ---------------------------------------------------------------


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lpakit",
        description="path-algebra toolkit: classification and exact algebra over graph files",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="almost-simple decomposition with evidence")
    source = c.add_mutually_exclusive_group()
    source.add_argument("file", nargs="?", help="graph file")
    source.add_argument("--corpus", help="classify every *.graph file in a directory")
    c.add_argument("--json", action="store_true")
    c.add_argument("--truncate", type=_int_at_least(0),
                   help=f"degree bound for evidence (default {DEFAULT_TRUNCATE})")
    c.add_argument("--witness", action="store_true",
                   help="include a nonzero bracket witness in the evidence")
    c.add_argument("--no-evidence", action="store_true",
                   help="skip the algebraic evidence, classify only")
    c.set_defaults(fn=cmd_classify)

    i = sub.add_parser("inspect", help="structural facts about a graph")
    i.add_argument("file")
    i.add_argument("--json", action="store_true")
    i.add_argument("--max-cycles", type=_int_at_least(1), default=100)
    i.set_defaults(fn=cmd_inspect)

    a = sub.add_parser("algebra", help="dimensions and model checks")
    a.add_argument("file")
    a.add_argument("what", nargs="?",
                   choices=["dim", "skew-dim", "bracket-dim", "m2-check", "cycle-check"])
    a.add_argument("--json", action="store_true")
    a.add_argument("--truncate", type=_int_at_least(0))
    a.add_argument("--fiber", help="edge name for the 2x2 model check")
    a.add_argument("--cycle-check", type=int, metavar="D",
                   help="verify the D x D Laurent matrix model of the built-in standard "
                        "D-cycle, 1 <= D <= 6; it does not read the file's edges")
    a.set_defaults(fn=cmd_algebra)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "classify" and not args.file and not args.corpus:
        print("classify needs a graph file or --corpus DIR", file=sys.stderr)
        return 2
    if args.command == "classify" and args.no_evidence and (args.witness or args.truncate is not None):
        flag = "--witness" if args.witness else "--truncate"
        print(f"{flag} belongs to the evidence and cannot go with --no-evidence", file=sys.stderr)
        return 2
    # no reference cycles to free (test_commands_leave_no_cyclic_garbage);
    # the caller's collector state comes back on every way out
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed the pipe shows up here at the latest
        return code
    except BrokenPipeError:
        # the reader has all it wanted; point stdout at devnull so that the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (TableMismatch, RelationFailure) as exc:  # first: TableMismatch is a SkewError
        print(f"self-check failure: {exc}", file=sys.stderr)
        return 3
    except (GraphError, ClassifyError, AlgebraError, SkewError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())

"""Seeded generators for the graph-families workload.

Each family is a graph shape that drives the classifier's closure code to a
known extreme.  A generator returns the vertex list and the edge triples in
declaration order; `graph_text` turns them into lpakit's line format, so the
program under test only ever sees the written file.  Nothing here imports
lpakit, and nothing depends on hash order: a (family, seed) pair always gives
the same bytes.
"""

from __future__ import annotations

import random

Edges = list[tuple[str, str, str]]


def _path(rng: random.Random) -> tuple[list[str], Edges]:
    # Source declared first: every saturation sweep of the seed classifier
    # then adds exactly one vertex, its cubic worst case.
    n = 150
    vs = [f"v{k}" for k in rng.sample(range(n), n)]
    return vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]


def _cycle_exits(rng: random.Random) -> tuple[list[str], Edges]:
    # Every cycle vertex's singleton closure is the whole graph, so the
    # closure code cannot exit early.
    n = 700
    cycle = [f"c{i}" for i in range(n)]
    sinks: list[str] = []
    edges: Edges = []
    for i, v in enumerate(cycle):
        edges.append((f"e{i}", v, cycle[(i + 1) % n]))
        if rng.random() < 0.25:
            sinks.append(f"s{i}")
            edges.append((f"x{i}", v, f"s{i}"))
    return cycle + sinks, edges


def _random_sparse(rng: random.Random) -> tuple[list[str], Edges]:
    # Uniform targets, loops and parallel edges allowed.
    n = 10_000
    vs = [f"v{i}" for i in range(n)]
    edges: Edges = []
    for v in vs:
        for _ in range(rng.randint(0, 4)):
            edges.append((f"e{len(edges)}", v, vs[rng.randrange(n)]))
    return vs, edges


def _balloon_stack(rng: random.Random) -> tuple[list[str], Edges]:
    # The two-vertex core of corpus/balloon_core2.graph with 1 000 balloons:
    # a positive verdict, so the CLI also runs validate_classification.
    n = 1000
    vs = ["a", "b"] + [f"p{i}" for i in range(n)]
    edges: Edges = [("x", "a", "b"), ("z", "a", "b"), ("y", "b", "a")]
    for i in range(n):
        edges.append((f"c{i}", f"p{i}", f"p{i}"))
        for j in range(rng.randint(1, 2)):
            edges.append((f"f{i}_{j}", f"p{i}", rng.choice("ab")))
    return vs, edges


GENERATORS = {
    "path": _path,
    "cycle_exits": _cycle_exits,
    "random_sparse": _random_sparse,
    "balloon_stack": _balloon_stack,
}


def generate(family: str, seed: int) -> tuple[list[str], Edges]:
    """The vertices and edges of one family member for a given seed."""
    return GENERATORS[family](random.Random(f"{seed}:{family}"))


def graph_text(vertices: list[str], edges: Edges) -> str:
    """lpakit's graph file format: vertex lines, then edge lines."""
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {name} {src} {dst}" for name, src, dst in edges]
    return "\n".join(lines) + "\n"

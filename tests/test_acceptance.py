"""The acceptance gate.

One test per acceptance criterion; each prints a single pass/fail line with
its elapsed time straight to the terminal, bypassing capture, so a plain
pytest run always shows the full scoreboard.  All arithmetic is exact
rational, so every comparison below is exact equality, no tolerances.
"""

import itertools
import random
import time
import zlib

from helpers import (
    almost_simple_oracle,
    corpus_names,
    hs_closure_oracle,
    load,
    random_element,
    random_graph,
    simple_oracle,
)

from lpakit.algebra import dimension, edge_element, vertex_element
from lpakit.classify import classify, hs_closure, is_simple, is_vanishing_family, validate_classification
from lpakit.graph import Graph
from lpakit.laurent import (
    ONE_MINUS_T,
    LaurentPoly,
    VanishingOrderIdeal,
    skew_commutator_diag,
    vanish_order_at_1,
    verify_cycle_iso,
)
from lpakit.skew import (
    bracket,
    bracket_in_ideal,
    bracket_space,
    fiber_m2_iso,
    first_nonzero_bracket,
    skew_part,
)


def criterion(capsys, label, fn):
    ok = False
    t0 = time.perf_counter()
    try:
        fn()
        ok = True
    finally:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)")


def fork(n: int) -> Graph:
    vs = ["u"] + [f"w{i}" for i in range(1, n + 1)]
    return Graph(vs, [(f"e{i}", "u", f"w{i}") for i in range(1, n + 1)])


def test_criterion_01_fiber_is_the_2x2_matrix_algebra(capsys):
    def check():
        g = load("fiber")
        chk = fiber_m2_iso(g, "e")
        assert chk.products_checked == 16 and chk.star_checked == 4
        assert chk.images["E11"] == vertex_element(g, "u")
        assert dimension(g) == 4

    criterion(capsys, "01 fiber-2x2-model", check)


def test_criterion_02_fork_dimensions_and_zero_brackets(capsys):
    def check():
        for n in range(1, 7):
            g = fork(n)
            assert dimension(g) == 4 * n
            assert bracket_space(g, 6).dimension == 0

    criterion(capsys, "02 fork-dimensions-4n", check)


def test_criterion_03_linked_edge_pairs_never_commute(capsys):
    # distinct edges that share a range or follow one another always give a
    # nonzero commutator of their skew parts
    def check():
        pairs = 0
        for name in corpus_names():
            g = load(name)
            for e, f in itertools.combinations(g.edges, 2):
                linked = (
                    e.target == f.target
                    or e.target == f.source
                    or f.target == e.source
                )
                if not linked:
                    continue
                b = bracket(
                    skew_part(edge_element(g, e.name)),
                    skew_part(edge_element(g, f.name)),
                )
                assert not b.is_zero(), (name, e.name, f.name)
                pairs += 1
        assert pairs >= 30

    criterion(capsys, "03 linked-pairs-nonvanishing", check)


def _vanishing_family_members(total: int):
    """Every disjoint union of isolated vertices, single loops and
    single-edged forks with at most `total` vertices, one graph per
    multiset of components."""
    kinds = [("v", 1), ("l", 1)] + [(("f", k), k + 1) for k in range(1, total)]
    combos: list[list] = []

    def rec(start, left, acc):
        if acc:
            combos.append(list(acc))
        for i in range(start, len(kinds)):
            kind, size = kinds[i]
            if size <= left:
                acc.append(kind)
                rec(i, left - size, acc)
                acc.pop()

    rec(0, total, [])
    for comps in combos:
        vs, es = [], []
        for idx, kind in enumerate(comps):
            if kind == "v":
                vs.append(f"x{idx}")
            elif kind == "l":
                vs.append(f"x{idx}")
                es.append((f"c{idx}", f"x{idx}", f"x{idx}"))
            else:
                k = kind[1]
                vs.append(f"u{idx}")
                for i in range(1, k + 1):
                    vs.append(f"w{idx}_{i}")
                    es.append((f"e{idx}_{i}", f"u{idx}", f"w{idx}_{i}"))
        yield Graph(vs, es)


def test_criterion_04_vanishing_family_exhausted_to_eight_vertices(capsys):
    def check():
        count = 0
        for g in _vanishing_family_members(8):
            assert is_vanishing_family(g)
            assert bracket_space(g, 6).dimension == 0
            cls = classify(g)
            assert not cls.almost_simple
            count += 1
        assert count == 186
        # the near miss: a doubled-edge fork is excluded and does bracket
        g = load("parallel_fork")
        assert not is_vanishing_family(g)
        assert bracket_space(g, 6).dimension > 0

    criterion(capsys, "04 vanishing-family-exhaustive", check)


def test_criterion_05_laurent_commutators_fall_down_the_ideal_chain(capsys):
    def check():
        for n in range(1, 4):
            for m in range(n + 1, 5):
                d11, d22 = skew_commutator_diag(ONE_MINUS_T ** n, ONE_MINUS_T ** m)
                assert not d11.is_zero() and not d22.is_zero()
                assert vanish_order_at_1(d11) >= n + m
                assert VanishingOrderIdeal(n).contains(d11)
                assert VanishingOrderIdeal(m).contains(d11)
        # the chain is strictly nested and bounded supports meet it in zero
        for n in range(1, 5):
            gen = ONE_MINUS_T ** n
            assert VanishingOrderIdeal(n).contains(gen)
            assert not VanishingOrderIdeal(n + 1).contains(gen)
        assert all(
            VanishingOrderIdeal(k).contains(LaurentPoly.zero()) for k in range(1, 9)
        )

    criterion(capsys, "05 laurent-ideal-chain", check)


def test_criterion_06_cycle_models_verify(capsys):
    def check():
        for d in range(1, 7):
            report = verify_cycle_iso(d)
            assert report.relation_checks > 0 and report.product_checks > 0
        # d = 1 is the commutative case: the loop brackets to nothing
        assert bracket_space(load("loop"), 8).dimension == 0

    criterion(capsys, "06 cycle-matrix-models", check)


def test_criterion_07_random_graphs_match_the_oracles(capsys):
    def check():
        rng = random.Random(20260815)
        for _ in range(200):
            g = random_graph(rng, max_vertices=8)
            assert is_simple(g).simple == simple_oracle(g)
            assert classify(g).almost_simple == almost_simple_oracle(g)
            for v in g.vertices:
                assert set(hs_closure(g, [v])) == hs_closure_oracle(g, [v])

    criterion(capsys, "07 random-cross-validation", check)


EXPECTED = {
    # name: (simple, almost_simple)
    "single_vertex": (True, False),
    "loop": (False, False),
    "fiber": (True, False),
    "fork2": (False, False),
    "fork3": (False, False),
    "parallel_fork": (True, True),
    "toeplitz": (False, True),
    "balloon_core2": (False, True),
    "two_balloons": (False, True),
    "stacked_balloons": (False, False),
    "disconnected_twin": (False, False),
    "loop_two_exits": (True, True),
    "fiber_plus_toeplitz": (False, True),
    "path2": (True, True),
    "convergent": (True, True),
    "double_edge_cycle": (True, True),
}


def test_criterion_08_curated_corpus_verdicts(capsys):
    def check():
        assert set(EXPECTED) == set(corpus_names())
        assert len(EXPECTED) >= 10
        for name, (want_simple, want_almost) in EXPECTED.items():
            g = load(name)
            cls = classify(g)
            assert cls.simplicity.simple == want_simple, name
            assert cls.almost_simple == want_almost, name
            assert validate_classification(g, cls), name
            assert cls.almost_simple == almost_simple_oracle(g), name

    criterion(capsys, "08 curated-corpus-verdicts", check)


def test_criterion_09_positive_verdicts_carry_algebraic_evidence(capsys):
    def check():
        for name in corpus_names():
            g = load(name)
            cls = classify(g)
            if cls.almost_simple:
                witness = first_nonzero_bracket(g, 2)
                assert witness is not None, name
                assert bracket(witness.left, witness.right) == witness.value
                report = bracket_in_ideal(g, 2, 2)
                assert report.contained, name
            if is_vanishing_family(g):
                assert bracket_space(g, 6).dimension == 0, name
                assert not cls.almost_simple, name

    criterion(capsys, "09 evidence-for-positive-verdicts", check)


def test_criterion_10_algebra_laws_hold_on_random_elements(capsys):
    def check():
        for name in corpus_names():
            g = load(name)
            rng = random.Random(zlib.crc32(name.encode()))
            for _ in range(500):
                x = random_element(g, rng, degree=2, terms=2)
                y = random_element(g, rng, degree=2, terms=2)
                z = random_element(g, rng, degree=2, terms=2)
                assert (x * y) * z == x * (y * z)
                assert (x * y).star() == y.star() * x.star()
                assert x * (y + z) == x * y + x * z
                assert bracket(x, y) == -bracket(y, x)

    criterion(capsys, "10 exact-arithmetic-laws", check)

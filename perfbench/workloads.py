"""The benchmark's three workloads.

Each workload makes its inputs from the seed in `setup`, and `run_round`
makes one closed-loop pass over its requests, one call at a time, checking
every output.  A round has two kinds of request, "primary" and "secondary";
for each it records wall seconds (failed calls included) and checked work
(zero for a call that failed or whose output was wrong), so a failing call
adds time but no work.

* corpus-evidence: `classify --corpus corpus --json` at --truncate 4
  (primary) and 5 (secondary); work is corpus graphs reported.
* graph-families: `classify FILE --no-evidence --json` (primary) and
  `inspect FILE --json` (secondary) on four generated graphs; work is
  vertices.
* element-arithmetic: algebra laws on seeded random elements (primary, work
  is law checks) and `verify_cycle_iso(d)` for d = 1..6 (secondary, work is
  product checks).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import families
import frozen


REF_ITERATIONS = 60_000
REF_NOMINAL_S = 0.04


def reference_slice() -> float:
    """Seconds for a fixed pure-Python computation that uses no lpakit code.

    The host's speed drifts by tens of percent over seconds to minutes, and
    lpakit's dict-, tuple- and Fraction-heavy code drifts with it.  Timing
    this slice between requests measures the drift, so a round's rates can
    be restated per reference second (see Round.ref_scale).
    """
    gc.collect()
    t0 = perf_counter()
    counts: dict = {}
    pairs = set()
    acc = Fraction(0)
    for i in range(REF_ITERATIONS):
        key = (i % 61, f"v{i % 53}")
        counts[key] = counts.get(key, 0) + 1
        pairs.add((key, i % 3))
        if i % 16 == 0:
            acc += Fraction(i % 7 + 1, i % 5 + 1)
    return perf_counter() - t0


class Round:
    """What one round did, per request kind and per detail key.

    A reference slice runs when the round starts and after every request.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.detail: dict[str, list[float]] = {}
        self.rated: set[str] = set()
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wall = 0.0
        self.slices = [reference_slice()]

    def add(self, kind: str, key: str, seconds: float, work: float,
            attempted: int = 1, failures: Counter | None = None, rate: bool = True) -> None:
        """Record one request.  Requests with the same key add up; the key's
        figure is checked work per second, or seconds when `rate` is false."""
        self.seconds[kind] += seconds
        self.work[kind] += work
        pair = self.detail.setdefault(key, [0.0, 0.0])
        pair[0] += seconds
        pair[1] += work
        if rate:
            self.rated.add(key)
        self.attempted += attempted
        self.failures.update(failures or {})
        self.slices.append(reference_slice())

    def figure(self, key: str) -> float:
        seconds, work = self.detail[key]
        return work / seconds if key in self.rated else seconds

    def rate(self, kind: str) -> float:
        """Checked work per wall second."""
        return self.work[kind] / self.seconds[kind]

    @property
    def ref_scale(self) -> float:
        """Reference seconds per wall second in this round: above 1 when the
        host ran faster than nominal, below 1 when it ran slower."""
        return REF_NOMINAL_S / (sum(self.slices) / len(self.slices))

    def ref_rate(self, kind: str) -> float:
        """Checked work per reference second."""
        return self.rate(kind) / self.ref_scale


def _cli(lp, argv: list[str]) -> tuple[float, Counter, str]:
    """Run `lpakit.cli.main(argv)`; return seconds, failures and stdout.

    The garbage collector runs before the clock starts: a user starts one
    process per call and never pays for garbage an earlier call left.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = lp.cli.main(argv)
    except Exception as exc:  # counted as a failed op, never a crash
        return perf_counter() - t0, Counter({type(exc).__name__: 1}), ""
    seconds = perf_counter() - t0
    if rc != 0:
        return seconds, Counter({f"exit{rc}": 1}), ""
    return seconds, Counter(), out.getvalue()


class CorpusEvidence:
    name = "corpus-evidence"

    def setup(self, lp, seed: int, root: Path, out: Path) -> None:
        self.corpus = root / "corpus"
        self.graphs = len(sorted(self.corpus.glob("*.graph")))
        if not self.graphs:
            raise FileNotFoundError(f"no corpus graphs under {self.corpus}")

    def run_round(self, lp, rnd: Round) -> None:
        for kind, n in (("primary", 4), ("secondary", 5)):
            argv = ["classify", "--corpus", str(self.corpus), "--json", "--truncate", str(n)]
            seconds, failures, stdout = _cli(lp, argv)
            if not failures and hashlib.sha256(stdout.encode()).hexdigest() != frozen.CORPUS_SHA256[n]:
                failures["wrong"] += 1
            rnd.add(kind, f"corpus_t{n}_s", seconds, 0 if failures else self.graphs,
                    failures=failures, rate=False)


def is_hereditary_saturated(out_edges: dict[str, list[str]], subset) -> bool:
    """Independent check that a vertex set is hereditary and saturated."""
    w = set(subset)
    if any(t not in w for v in w for t in out_edges[v]):
        return False
    return all(not ts or any(t not in w for t in ts)
               for v, ts in out_edges.items() if v not in w)


class GraphFamilies:
    name = "graph-families"

    def setup(self, lp, seed: int, root: Path, out: Path) -> None:
        folder = out / f"graphs-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for fam in families.GENERATORS:
            vertices, edges = families.generate(fam, seed)
            path = folder / f"{fam}.graph"
            path.write_text(families.graph_text(vertices, edges))
            out_edges: dict[str, list[str]] = {v: [] for v in vertices}
            for _, src, dst in edges:
                out_edges[src].append(dst)
            self.inputs.append((fam, str(path), vertices, edges, out_edges))

    def run_round(self, lp, rnd: Round) -> None:
        for fam, path, vertices, edges, out_edges in self.inputs:
            seconds, failures, stdout = _cli(lp, ["classify", path, "--no-evidence", "--json"])
            if not failures:
                r = json.loads(stdout)
                verdict = (r["simple"]["holds"], r["almost_simple"],
                           (r["failure_reason"] or {}).get("kind"))
                if verdict != frozen.VERDICTS[fam]:
                    failures["wrong"] += 1
            rnd.add("primary", f"classify_vps.{fam}", seconds,
                    0 if failures else len(vertices), failures=failures)

            seconds, failures, stdout = _cli(lp, ["inspect", path, "--json"])
            if not failures:
                r = json.loads(stdout)
                smallest = r["smallest_hs_subset"]
                if (r["vertices"] != vertices
                        or r["edges"] != [list(e) for e in edges]
                        or (smallest is not None
                            and not (smallest and is_hereditary_saturated(out_edges, smallest)))):
                    failures["wrong"] += 1
            rnd.add("secondary", f"inspect_vps.{fam}", seconds,
                    0 if failures else len(vertices), failures=failures)


LAWS = (
    lambda x, y, z, bracket: (x * y) * z == x * (y * z),
    lambda x, y, z, bracket: (x * y).star() == y.star() * x.star(),
    lambda x, y, z, bracket: bracket(x, y) == -bracket(y, x),
)


class ElementArithmetic:
    name = "element-arithmetic"
    TRIPLES_PER_GRAPH = 500
    SAMPLE_PAIRS_PER_GRAPH = 4
    CHUNKS = 4  # law checks are timed in chunks, a reference slice after each

    def setup(self, lp, seed: int, root: Path, out: Path) -> None:
        self.triples = []
        self.sample = []
        for path in sorted((root / "corpus").glob("*.graph")):
            g = lp.graph.parse_graph(path.read_text())
            pool = lp.algebra.basis_monomials(g, 3)

            def element(rng: random.Random):
                items = [(pool[rng.randrange(len(pool))],
                          Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
                         for _ in range(4)]
                return lp.algebra.Element.from_terms(g, items)

            rng = random.Random(f"{seed}:{path.stem}")
            self.triples += [(element(rng), element(rng), element(rng))
                             for _ in range(self.TRIPLES_PER_GRAPH)]
            # The sample does not depend on the seed, so its digest is frozen.
            rng = random.Random(f"sample:{path.stem}")
            self.sample += [(element(rng), element(rng))
                            for _ in range(self.SAMPLE_PAIRS_PER_GRAPH)]

    def run_round(self, lp, rnd: Round) -> None:
        bracket = lp.skew.bracket
        n = len(self.triples)
        for c in range(self.CHUNKS):
            chunk = self.triples[c * n // self.CHUNKS:(c + 1) * n // self.CHUNKS]
            last = c == self.CHUNKS - 1
            failures: Counter = Counter()
            passed = 0
            gc.collect()
            t0 = perf_counter()
            for x, y, z in chunk:
                for law in LAWS:
                    try:
                        ok = law(x, y, z, bracket)
                    except Exception as exc:  # counted as a failed op
                        failures[type(exc).__name__] += 1
                        continue
                    if ok:
                        passed += 1
                    else:
                        failures["wrong"] += 1
            if last:
                try:
                    text = "\n".join(str(x * y) for x, y in self.sample)
                except Exception as exc:
                    failures[type(exc).__name__] += 1
                else:
                    if hashlib.sha256(text.encode()).hexdigest() == frozen.SAMPLE_DIGEST:
                        passed += 1
                    else:
                        failures["wrong"] += 1
            rnd.add("primary", "element_ops_per_s", perf_counter() - t0, passed,
                    attempted=len(LAWS) * len(chunk) + last, failures=failures)

        failures = Counter()
        checks = 0
        gc.collect()
        t0 = perf_counter()
        for d, expected in frozen.CYCLE_CHECKS.items():
            try:
                report = lp.laurent.verify_cycle_iso(d)
            except Exception as exc:
                failures[type(exc).__name__] += 1
                continue
            if (report.relation_checks, report.product_checks) == expected:
                checks += report.product_checks
            else:
                failures["wrong"] += 1
        rnd.add("secondary", "cycle_check_s", perf_counter() - t0, checks,
                attempted=len(frozen.CYCLE_CHECKS), failures=failures, rate=False)


WORKLOADS = {w.name: w for w in (CorpusEvidence, GraphFamilies, ElementArithmetic)}

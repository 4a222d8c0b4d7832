"""lpakit's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports lpakit from `src/`, makes the
workload's inputs from the seed, then runs rounds of the workload's requests
in one process, one call at a time, for about S seconds, and checks every
output.  The last line of stdout is the result, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it carries
the run's metadata and the per-request figures.

Rates and set-up time are stated in reference seconds: wall seconds scaled
by how fast the host ran a fixed pure-Python slice in the same interval
(see workloads.reference_slice).  The wall-clock figures are in the record.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
first round runs untraced, the rest with a span around each public lpakit
function, and the metrics are the per-layer ones plus the tracing overhead.
Each run also writes its full result to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from types import SimpleNamespace

from tracer import PER_LAYER, Tracer, installed_wrappers
from workloads import REF_NOMINAL_S, WORKLOADS, Round, reference_slice

END_TO_END = {
    "setup_s": "s",
    "primary_rate": "1/ref_s",
    "secondary_rate": "1/ref_s",
    "passed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
MODULES = ("graph", "classify", "algebra", "skew", "laurent", "cli")


def load_lpakit(src: Path) -> SimpleNamespace:
    """A fresh import of lpakit from src/, so each set-up pays for it."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "lpakit" or n.startswith("lpakit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"lpakit.{m}") for m in MODULES})


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(sum(r.failures.values()) for r in rounds)
    return {
        "setup_s": setup_s,
        "primary_rate": median(r.ref_rate("primary") for r in rounds),
        "secondary_rate": median(r.ref_rate("secondary") for r in rounds),
        "passed_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def detail(rounds: list[Round]) -> dict[str, float]:
    """Per-request figures in wall time, and both rates per wall second,
    median over rounds."""
    out = {key: median(r.figure(key) for r in rounds) for key in rounds[0].detail}
    out["primary_rate_wall"] = median(r.rate("primary") for r in rounds)
    out["secondary_rate_wall"] = median(r.rate("secondary") for r in rounds)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "lpakit" / "__init__.py").is_file() or not (root / "corpus").is_dir():
        print(f"perfbench: no lpakit sources and corpus under {root}", file=sys.stderr)
        return 2
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload]()
    setups = []
    slices = [reference_slice()]
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        gc.collect()
        t0 = perf_counter()
        lp = load_lpakit(src)
        workload.setup(lp, args.seed, root, out)
        setups.append(perf_counter() - t0)
        slices.append(reference_slice())
    setup = {"wall": median(setups), "ref": median(setups) * REF_NOMINAL_S / mean(slices)}

    untraced: list[Round] = []
    traced: list[Round] = []
    tracer = None
    start = perf_counter()
    while True:
        if args.trace and untraced and tracer is None:
            tracer = Tracer()
            tracer.install()
        rounds = traced if tracer else untraced
        rnd = Round()
        t0 = perf_counter()
        workload.run_round(lp, rnd)
        rnd.wall = perf_counter() - t0
        rounds.append(rnd)
        next_round = median(r.wall for r in rounds)
        if perf_counter() - start + next_round > args.seconds and (traced or not args.trace):
            break
    if tracer:
        tracer.uninstall()
    leftover = installed_wrappers()
    if leftover:
        print(f"perfbench: wrappers left installed: {leftover}", file=sys.stderr)
        return 1

    everything = untraced + traced
    failures: Counter = Counter()
    for r in everything:
        failures.update(r.failures)
    result = {
        "correct": failures["wrong"] == 0,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(failures.values()),
    }
    record = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(root),
            "src_lines": src_lines(src),
            "untraced_rounds": len(untraced),
            "traced_rounds": len(traced),
            "round_walls": [r.wall for r in untraced + traced],
            "round_ref_scales": [r.ref_scale for r in untraced + traced],
        },
        "failures": dict(failures),
        "end_to_end": end_to_end(untraced, setup["ref"]),
        "detail": {"setup_s_wall": setup["wall"], **detail(untraced)},
    }
    if tracer:
        untraced_wall = median(r.wall for r in untraced)
        overhead = median(r.wall for r in traced) - untraced_wall
        layers = tracer.per_layer(len(traced))
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / untraced_wall
        record["traced_end_to_end"] = end_to_end(traced, setup["ref"])
        record["traced_detail"] = detail(traced)
        record["per_layer"] = layers
        record["span_errors"] = tracer.error_types()
        tracer.dump(out / f"{args.workload}.spans")
        result["metrics"] = {k: {"value": layers[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        result["metrics"] = {k: {"value": record["end_to_end"][k], "unit": u}
                             for k, u in END_TO_END.items()}
    name = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    name.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

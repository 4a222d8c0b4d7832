"""The benchmark's own checks.

    python3 perfbench/checks.py

1. BENCHMARK.json names exactly the workloads and metrics the code reports.
2. The generator writes byte-identical graph files for a given seed, whatever
   the interpreter's hash seed, and different files for another seed.
3. Tracing wraps a traced name in every lpakit namespace that binds it and
   takes every wrapper out again, and a run, traced or not, ends with no
   wrapper installed on any lpakit name.

Exits 0 when every check holds, 1 with a message otherwise.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import families
import run
from tracer import PER_LAYER, Tracer, installed_wrappers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def require(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def check_manifest() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    require({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
            "BENCHMARK.json end_to_end differs from run.END_TO_END")
    require({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER,
            "BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    print("ok manifest: BENCHMARK.json matches the reported workloads and metrics")


def digests(seed: int) -> dict[str, str]:
    return {fam: hashlib.sha256(families.graph_text(*families.generate(fam, seed)).encode()).hexdigest()
            for fam in families.GENERATORS}


def check_generator() -> None:
    here = digests(7)
    for hash_seed in ("0", "4242"):
        child = subprocess.run(
            [sys.executable, "-c", "import json, checks; print(json.dumps(checks.digests(7)))"],
            cwd=HERE, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, check=True)
        require(json.loads(child.stdout) == here,
                f"graph files for seed 7 differ under PYTHONHASHSEED={hash_seed}")
    other = digests(8)
    require(all(other[f] != here[f] for f in here), "seeds 7 and 8 give the same graph file")
    print("ok generator: byte-identical graph files per seed")


def check_wrappers() -> None:
    run.load_lpakit(HERE.parent / "src")
    require(not installed_wrappers(), "wrappers present before tracing")
    tracer = Tracer()
    tracer.install()
    wrapped = set(installed_wrappers())
    tracer.uninstall()
    for name in ("lpakit.cli.main", "lpakit.cli.classify", "lpakit.skew.classify",
                 "lpakit.classify.classify", "lpakit.classify", "lpakit.cli.bracket_space",
                 "lpakit.algebra.Element.__mul__", "lpakit.laurent.LaurentMatrix.__mul__"):
        require(name in wrapped, f"{name} was not wrapped")
    require(not installed_wrappers(), f"uninstall left {installed_wrappers()}")
    for trace in ("0", "1"):
        with redirect_stdout(io.StringIO()):
            rc = run.main(["--workload", "element-arithmetic", "--seed", "1",
                           "--seconds", "0", "--trace", trace])
        require(rc == 0, f"--trace {trace} run exited {rc}")
        require(not installed_wrappers(), f"--trace {trace} run left {installed_wrappers()}")
    print("ok tracer: wrappers installed everywhere a name is bound, none left after a run")


if __name__ == "__main__":
    check_manifest()
    check_generator()
    check_wrappers()

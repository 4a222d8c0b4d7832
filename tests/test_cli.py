import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import CORPUS, corpus_names, graph_texts, serialize_graph

import lpakit
from lpakit.cli import _render_classification, _write_json, build_parser, main
from lpakit.graph import Graph


def run_cli(*args, capsys=None):
    """Invoke the entry point in-process and capture its streams."""
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


GRAPH = str(CORPUS / "toeplitz.graph")


def test_classify_text_output(capsys):
    code, out, err = run_cli("classify", GRAPH, capsys=capsys)
    assert code == 0 and err == ""
    assert "almost simple: yes" in out
    assert "core: w" in out
    assert "balloons: v" in out
    assert "predicted skew-commutator simplicity: yes" in out


def test_classify_json_schema(capsys):
    code, out, _ = run_cli("classify", GRAPH, "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "file", "graph", "simple", "almost_simple", "predicted_kk_simple",
        "decomposition", "failure_reason", "warnings", "evidence",
    }
    assert report["almost_simple"] is True
    assert report["decomposition"] == {"core": ["w"], "balloons": ["v"], "fiber_units": []}
    assert report["simple"]["holds"] is False
    assert report["simple"]["proper_hs_subset"] == ["w"]
    assert report["evidence"]["ideal_containment"]["contained"] is True
    assert report["evidence"]["witness"] is None  # only with --witness


def test_classify_json_is_byte_identical_between_runs(capsys):
    _, first, _ = run_cli("classify", GRAPH, "--json", "--witness", capsys=capsys)
    _, second, _ = run_cli("classify", GRAPH, "--json", "--witness", capsys=capsys)
    assert first == second


def test_classify_witness_flag(capsys):
    _, out, _ = run_cli("classify", GRAPH, "--json", "--witness", capsys=capsys)
    witness = json.loads(out)["evidence"]["witness"]
    assert witness is not None
    assert set(witness) == {"left", "right", "value"}


def test_classify_no_evidence(capsys):
    code, out, _ = run_cli("classify", GRAPH, "--json", "--no-evidence", capsys=capsys)
    assert code == 0
    assert json.loads(out)["evidence"] is None


@pytest.mark.parametrize("flag", [["--witness"], ["--truncate", "9"]])
def test_classify_no_evidence_refuses_an_evidence_flag(capsys, flag):
    code, out, err = run_cli("classify", str(CORPUS / "fork2.graph"), "--no-evidence", *flag,
                             capsys=capsys)
    assert code == 2 and out == ""
    assert flag[0] in err and "--no-evidence" in err, err


def test_classify_truncate_flag(capsys):
    _, out, _ = run_cli("classify", GRAPH, "--json", "--truncate", "3", capsys=capsys)
    ev = json.loads(out)["evidence"]
    assert ev["truncation"] == 3
    assert ev["bracket_space_dimension"] == 11


def test_classify_rejects_negative_truncate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(CORPUS / "loop.graph"), "--truncate", "-3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "usage:" in err and "--truncate: must be at least 0" in err


def test_classify_negative_graph(capsys):
    code, out, _ = run_cli("classify", str(CORPUS / "fork2.graph"), "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["almost_simple"] is False
    assert report["failure_reason"]["kind"] == "core_not_simple"
    assert report["evidence"]["vanishing_family"] is True


def test_classify_corpus_mode(capsys):
    code, out, _ = run_cli("classify", "--corpus", str(CORPUS), "--json", capsys=capsys)
    assert code == 0
    reports = json.loads(out)
    names = [r["file"] for r in reports]
    assert names == sorted(names)  # filename order
    assert len(reports) == len(list(CORPUS.glob("*.graph")))


def test_classify_corpus_missing_dir(tmp_path, capsys):
    code, _, err = run_cli("classify", "--corpus", str(tmp_path), capsys=capsys)
    assert code == 2 and "no .graph files" in err


def test_classify_needs_some_input(capsys):
    code, _, err = run_cli("classify", capsys=capsys)
    assert code == 2 and "graph file" in err


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli("classify", "does_not_exist.graph", capsys=capsys)
    assert code == 2 and "error:" in err


def test_classify_rejects_file_and_corpus_together(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", GRAPH, "--corpus", str(CORPUS)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "usage:" in err and "not allowed with" in err


def _non_utf8_graph(folder):
    bad = folder / "bad.graph"
    bad.write_bytes(b"vertex v\xff\n")
    return bad


def test_classify_non_utf8_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli("classify", str(_non_utf8_graph(tmp_path)), capsys=capsys)
    assert code == 2 and out == "" and "error: cannot read" in err


def test_classify_corpus_with_non_utf8_file_is_an_input_error(tmp_path, capsys):
    (tmp_path / "loop.graph").write_text((CORPUS / "loop.graph").read_text())
    _non_utf8_graph(tmp_path)
    code, out, err = run_cli("classify", "--corpus", str(tmp_path), capsys=capsys)
    assert code == 2 and out == "" and "bad.graph" in err


def test_inspect_non_utf8_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli("inspect", str(_non_utf8_graph(tmp_path)), capsys=capsys)
    assert code == 2 and out == "" and "error: cannot read" in err


def test_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex v\nedge oops v\n")
    code, _, err = run_cli("classify", str(bad), capsys=capsys)
    assert code == 2
    assert err == "error: line 2: expected 'vertex NAME' or 'edge NAME SOURCE RANGE': 'edge oops v'\n"


@pytest.mark.parametrize("text, why", [
    ("vertex v\n# fine so far\nedge oops v\n",
     "line 3: expected 'vertex NAME' or 'edge NAME SOURCE RANGE': 'edge oops v'"),
    ("vertex v\nedge e v c\n", "edge 'e': unknown range 'c'"),
])
def test_classify_corpus_names_the_bad_file(tmp_path, capsys, text, why):
    (tmp_path / "loop.graph").write_text((CORPUS / "loop.graph").read_text())
    (tmp_path / "m_bad.graph").write_text(text)
    code, out, err = run_cli("classify", "--corpus", str(tmp_path), capsys=capsys)
    assert (code, out, err) == (2, "", f"error: m_bad.graph: {why}\n")


def test_crlf_and_cr_files_read_as_before(tmp_path, capsys):
    # files are read with universal newlines, so '\r\n' and '\r' still end lines
    text = (CORPUS / "toeplitz.graph").read_text()
    f = tmp_path / "toeplitz.graph"
    f.write_text(text)
    want = run_cli("inspect", str(f), "--json", capsys=capsys)
    for ending in ("\r\n", "\r"):
        f.write_bytes(text.replace("\n", ending).encode())
        assert run_cli("inspect", str(f), "--json", capsys=capsys) == want


def test_inspect_text(capsys):
    code, out, _ = run_cli("inspect", str(CORPUS / "double_edge_cycle.graph"), capsys=capsys)
    assert code == 0
    assert "cycles: x y; z y" in out
    assert "exitless cycles: (none)" in out


def test_inspect_json(capsys):
    code, out, _ = run_cli("inspect", GRAPH, "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["fibers"] == []
    assert report["smallest_hs_subset"] == ["w"]
    assert report["hs_subsets"] == [["w"], ["v", "w"]]
    assert report["cycles"] == [["c"]]


def test_inspect_max_cycles(capsys):
    code, out, _ = run_cli(
        "inspect", str(CORPUS / "loop_two_exits.graph"), "--max-cycles", "1", "--json",
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["cycles_truncated"] is True and report["cycles"] == []


def test_inspect_text_when_the_cycle_cap_is_hit(capsys):
    code, out, _ = run_cli(
        "inspect", str(CORPUS / "loop_two_exits.graph"), "--max-cycles", "2", capsys=capsys)
    assert code == 0 and "cycles: more than 2\n" in out


def test_inspect_text_skips_subsets_past_twelve_vertices(tmp_path, capsys):
    path = tmp_path / "path13.graph"
    path.write_text(serialize_graph(Graph(
        [f"v{i}" for i in range(13)], [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(12)])))
    code, out, _ = run_cli("inspect", str(path), capsys=capsys)
    assert code == 0
    assert "hereditary-saturated subsets: skipped (too many vertices)\n" in out
    # saturation climbs the path from its sink
    assert "smallest hereditary-saturated subset: {" + " ".join(f"v{i}" for i in range(13)) + "}\n" in out


def test_inspect_rejects_max_cycles_below_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", str(CORPUS / "loop.graph"), "--max-cycles", "0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "--max-cycles: must be at least 1" in err


def test_algebra_dim(capsys):
    code, out, _ = run_cli("algebra", str(CORPUS / "fork3.graph"), "dim", "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["dimension"] == 12


def test_algebra_dim_rejects_cycles(capsys):
    code, _, err = run_cli("algebra", GRAPH, "dim", capsys=capsys)
    assert code == 2 and "infinite" in err



# A chain of 2 201 vertices with ten parallel edges between neighbours has
# one sink, reached by the 2 201-digit repunit of paths, so its dimension is
# that number squared: 4 401 digits, more than str() converts by default.
CHAIN_DIM = ((10**2201 - 1) // 9) ** 2


def chunked_digits(n: int) -> str:
    """n in decimal, built from chunks of 1 000 digits, each short enough
    for str()."""
    chunks = []
    while n >= 10**1000:
        n, r = divmod(n, 10**1000)
        chunks.append(f"{r:01000d}")
    return str(n) + "".join(reversed(chunks))


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "chain.graph"
    n = 2201
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"edge e{i}_{k} v{i} v{i + 1}" for i in range(n - 1) for k in range(10)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_algebra_dim_prints_every_digit(chain_file, as_json, capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli("algebra", chain_file, "dim", *(["--json"] if as_json else []), capsys=capsys)
    assert (code, err) == (0, "")
    digits = chunked_digits(CHAIN_DIM)
    assert len(digits) == 4401
    assert (f'  "dimension": {digits},' if as_json else f"dimension: {digits}") in out.splitlines()
    assert sys.get_int_max_str_digits() == limit


def test_json_writer_and_classify_render_print_every_digit(capsys):
    digits = chunked_digits(CHAIN_DIM)
    out = io.StringIO()
    _write_json({"n": CHAIN_DIM}, out.write)
    assert out.getvalue() == '{\n  "n": ' + digits + "\n}"
    code, text, _ = run_cli("classify", GRAPH, "--json", capsys=capsys)
    report = json.loads(text)
    report["evidence"]["algebra_dimension"] = CHAIN_DIM
    assert f"  algebra dimension: {digits}" in _render_classification(report)

def test_algebra_skew_and_bracket_dims(capsys):
    # seven star orbits at degree <= 3: c, cc, ccc against v, then e, ce,
    # cce against w, then ce against e
    code, out, _ = run_cli("algebra", GRAPH, "skew-dim", "--truncate", "3", "--json", capsys=capsys)
    assert code == 0 and json.loads(out)["skew_dimension"] == 7
    code, out, _ = run_cli("algebra", GRAPH, "bracket-dim", "--truncate", "3", "--json", capsys=capsys)
    assert code == 0 and json.loads(out)["bracket_space_dimension"] == 11


def test_algebra_rejects_negative_truncate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["algebra", str(CORPUS / "loop.graph"), "skew-dim", "--truncate", "-1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "usage:" in err and "--truncate: must be at least 0" in err


def test_algebra_m2_check(capsys):
    code, out, _ = run_cli(
        "algebra", str(CORPUS / "fiber.graph"), "m2-check", "--fiber", "e", "--json",
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["products_checked"] == 16 and report["star_checked"] == 4
    assert report["images"]["E11"] == "1 * u . u^*"


def test_algebra_m2_check_needs_edge(capsys):
    code, _, err = run_cli("algebra", str(CORPUS / "fiber.graph"), "m2-check", capsys=capsys)
    assert code == 2 and "--fiber" in err


def test_algebra_m2_check_non_fiber(capsys):
    code, _, err = run_cli("algebra", GRAPH, "m2-check", "--fiber", "e", capsys=capsys)
    assert code == 2 and "not a fiber" in err


def test_algebra_cycle_check(capsys):
    code, out, _ = run_cli("algebra", GRAPH, "--cycle-check", "3", "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["what"] == "cycle-check" and report["cycle_size"] == 3


def test_algebra_cycle_check_bad_dimension(capsys):
    code, _, err = run_cli("algebra", GRAPH, "--cycle-check", "9", capsys=capsys)
    assert code == 2


def test_algebra_fiber_alone_implies_m2_check(capsys):
    fiber = str(CORPUS / "fiber.graph")
    code, out, _ = run_cli("algebra", fiber, "--fiber", "e", capsys=capsys)
    assert code == 0 and "what: m2-check" in out
    assert run_cli("algebra", fiber, "m2-check", "--fiber", "e", capsys=capsys) == (0, out, "")


def test_algebra_cycle_check_needs_its_dimension(capsys):
    code, _, err = run_cli("algebra", GRAPH, "cycle-check", capsys=capsys)
    assert code == 2 and "needs --cycle-check" in err


@pytest.mark.parametrize("args, names", [
    (["dim", "--cycle-check", "3"], ["--cycle-check", "dim"]),
    (["m2-check", "--cycle-check", "3"], ["--cycle-check", "m2-check"]),
    (["skew-dim", "--fiber", "e"], ["--fiber", "skew-dim"]),
    (["cycle-check", "--fiber", "e", "--cycle-check", "3"], ["--fiber", "cycle-check"]),
    (["--fiber", "e", "--cycle-check", "3"], ["--cycle-check", "--fiber"]),
    (["dim", "--truncate", "3"], ["--truncate", "dim"]),
    (["m2-check", "--fiber", "e", "--truncate", "3"], ["--truncate", "m2-check"]),
    (["cycle-check", "--cycle-check", "2", "--truncate", "3"], ["--truncate", "cycle-check"]),
])
def test_algebra_rejects_a_flag_of_another_question(capsys, args, names):
    code, out, err = run_cli("algebra", str(CORPUS / "fiber.graph"), *args, capsys=capsys)
    assert code == 2 and out == ""
    assert all(name in err for name in names), err


def test_algebra_cycle_check_may_name_its_question(capsys):
    code, out, _ = run_cli("algebra", GRAPH, "cycle-check", "--cycle-check", "2", capsys=capsys)
    assert code == 0
    assert run_cli("algebra", GRAPH, "--cycle-check", "2", capsys=capsys) == (0, out, "")


def test_algebra_needs_a_question(capsys):
    code, _, err = run_cli("algebra", GRAPH, capsys=capsys)
    assert code == 2 and "nothing to do" in err
    assert run_cli("algebra", GRAPH, "--truncate", "3", capsys=capsys) == (2, "", err)


def test_algebra_truncates_at_four_by_default(capsys):
    code, out, _ = run_cli("algebra", GRAPH, "skew-dim", capsys=capsys)
    assert code == 0
    assert run_cli("algebra", GRAPH, "skew-dim", "--truncate", "4", capsys=capsys) == (0, out, "")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lpakit", "classify", GRAPH],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "almost simple: yes" in proc.stdout


def test_self_check_failure_exits_3(monkeypatch, capsys):
    # sabotage the validator so the self-check path fires
    import lpakit.cli as cli_mod

    monkeypatch.setattr(cli_mod, "validate_classification", lambda g, cls: False)
    code, _, err = run_cli("classify", GRAPH, capsys=capsys)
    assert code == 3 and "self-check" in err


def test_main_runs_the_command_with_the_collector_paused(monkeypatch, capsys):
    import lpakit.cli as cli_mod

    seen = []
    monkeypatch.setattr(cli_mod, "cmd_inspect", lambda args: seen.append(gc.isenabled()) or 0)
    assert run_cli("inspect", GRAPH, capsys=capsys)[0] == 0
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
@pytest.mark.parametrize("argv, sabotage, code", [
    (["inspect", GRAPH], False, 0),
    (["inspect", "no/such/file.graph"], False, 2),
    (["classify", GRAPH], True, 3),
    (["inspect", GRAPH, "--max-cycles", "0"], False, "SystemExit(2)"),
], ids=["exit-0", "exit-2", "exit-3", "argparse"])
def test_main_leaves_the_collector_as_the_caller_had_it(monkeypatch, capsys, argv, sabotage,
                                                         code, enabled):
    import lpakit.cli as cli_mod

    if sabotage:  # as in test_self_check_failure_exits_3
        monkeypatch.setattr(cli_mod, "validate_classification", lambda g, cls: False)
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            got = f"SystemExit({exc.code})"
        after = gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (got, after) == (code, enabled)


def _garbage_after(run) -> int:
    """The objects gc.collect() finds after run() ran with the collector
    paused."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", corpus_names())
def test_commands_leave_no_cyclic_garbage(capsys, name):
    # main pauses the collector because lpakit builds no reference cycles:
    # a command leaves no more cyclic garbage than parsing its arguments does
    path = str(CORPUS / f"{name}.graph")
    for argv in (["classify", path, "--truncate", "3", "--witness", "--json"],
                 ["classify", path, "--no-evidence"],
                 ["inspect", path, "--json"],
                 ["algebra", path, "bracket-dim", "--truncate", "3"]):
        parsing = _garbage_after(lambda: build_parser().parse_args(argv))
        running = _garbage_after(lambda: main(argv))
        capsys.readouterr()
        assert running <= parsing, (argv, running, parsing)


def test_inspect_runs_tarjan_on_the_whole_graph_once(monkeypatch, capsys):
    # Johnson's search runs Tarjan again inside each component; those calls
    # are not counted
    graph_module = sys.modules["lpakit.graph"]
    tarjan, component_cycles = graph_module._tarjan, graph_module._component_cycles
    calls = Counter()

    def counted_tarjan(*args):
        calls["whole graph" if not calls["inside"] else "component"] += 1
        return tarjan(*args)

    def inside_component_cycles(*args):
        calls["inside"] += 1
        try:
            return component_cycles(*args)
        finally:
            calls["inside"] -= 1

    monkeypatch.setattr(graph_module, "_tarjan", counted_tarjan)
    monkeypatch.setattr(graph_module, "_component_cycles", inside_component_cycles)
    for name in corpus_names():
        calls["whole graph"] = 0
        code, _, _ = run_cli("inspect", str(CORPUS / f"{name}.graph"), "--json", capsys=capsys)
        assert code == 0
        assert calls["whole graph"] == 1, name
    assert calls["component"]  # Johnson's search ran too


def test_closed_stdout_exits_0(tmp_path):
    # the report is far larger than a pipe's buffer, so the writer meets
    # the closed pipe
    n = 20_000
    big = tmp_path / "big.graph"
    big.write_text(serialize_graph(Graph(
        [f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])))
    src = str(Path(lpakit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "lpakit", "inspect", str(big), "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# every str key and value is written as json.dumps writes it: quotes,
# backslashes, control characters and non-ASCII text included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**100, 2**100) | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=25,
) | st.lists(st.lists(st.text(max_size=3), max_size=3), max_size=4)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(json_values)
@example({"a\"b": ["\x00\n\t\\", "\u00e9\u4e2d\U0001f600"], "": [], "z": {}, "k": [[], {}, None]})
@example([True, False, None, -(2**80), "s", ["x", "y"], {"b": 1, "a": [2]}])
@example([["e", "a", "b"], ["f", "b", "\u00e9\n"]])
@example({"edges": [["a"], [], ["b", "c"]], "mixed": [["a"], "b"], "deep": [["a"], ["b", ["c"]]]})
@example([["a", 1], ["b", None], ["c", {"k": "v"}], [["a"]]])
def test_json_writer_matches_json_dumps(x):
    out = io.StringIO()
    _write_json(x, out.write)
    assert out.getvalue() == json.dumps(x, indent=2, sort_keys=True)


@pytest.mark.parametrize("x", [1.5, ("a",), {1: "a"}, ["a", {"k": {"a", "b"}}], b"bytes"])
def test_json_writer_rejects_other_types(x):
    with pytest.raises(TypeError):
        _write_json(x, io.StringIO().write)


# command-line flags, each with the commands it belongs to
cli_flags = {
    "--json": (st.just([]), "classify inspect algebra"),
    "--witness": (st.just([]), "classify"),
    "--no-evidence": (st.just([]), "classify"),
    "--corpus": (st.just(["DIR"]), "classify"),
    "--truncate": (st.integers(-1, 3).map(lambda n: [str(n)]), "classify algebra"),
    "--max-cycles": (st.integers(0, 3).map(lambda k: [str(k)]), "inspect"),
    "--fiber": (st.sampled_from(["e", "f", "a", "x"]).map(lambda name: [name]), "algebra"),
    "--cycle-check": (st.integers(-1, 7).map(lambda d: [str(d)]), "algebra"),
}


@st.composite
def cli_argvs(draw) -> list[str]:
    """Arguments over the real flags: a command, mostly with the file FILE,
    a question word or none, and flags mostly of that command; DIR stands
    for a directory that holds FILE."""
    command = draw(st.sampled_from(["classify", "inspect", "algebra"]))
    argv = [command] + draw(st.sampled_from([["FILE"]] * 3 + [[]]))
    words = ["dim", "skew-dim", "bracket-dim", "m2-check", "cycle-check"]
    argv += draw(st.sampled_from([[]] * (5 if command == "algebra" else 20) + [[w] for w in words]))
    own = [f for f, (_, commands) in cli_flags.items() if command in commands.split()]
    for flag in draw(st.lists(st.sampled_from(own * 4 + list(cli_flags)), max_size=3, unique=True)):
        argv += [flag] + draw(cli_flags[flag][0])
    return argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph_texts() | st.sampled_from([p.read_text() for p in sorted(CORPUS.glob("*.graph"))]), cli_argvs())
def test_every_run_ends_with_exit_0_2_or_3(tmp_path, capsys, text, argv):
    path = tmp_path / "g.graph"
    path.write_text(text, encoding="utf-8", newline="")
    argv = [str(path) if a == "FILE" else str(tmp_path) if a == "DIR" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3), argv
    assert gc.isenabled(), argv

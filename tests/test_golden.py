"""Byte-identity guard: the stdout of the main corpus commands, pinned by sha256.

Each digest was recorded from the command line tool run at the repository
root, so report paths read `corpus/NAME.graph`.  A change that alters any
byte of these reports, even whitespace, fails here; if the change is
intended, re-record the digest and say why in the change log.
"""

import hashlib

import pytest

from helpers import CORPUS, corpus_names, load

from lpakit.cli import main
from lpakit.graph import condensation

CORPUS_JSON_T4 = "baf19874338db122dbd499bf3bb1d249557c3cb2202be6385b8e420572b3371e"
CORPUS_JSON_T5 = "d7a23b67cc07698c6b97bd424078ff76d5b53a581b3b5ce87956be9ca1e0263c"
CORPUS_TEXT_NO_EVIDENCE = "3ea0624cb95fc5bcca60d28af389d1dd1240caf94873039b5c15f9ff3ba178ef"
INSPECT_JSON = "58cfee232f2382a303733fbf493a9a765329e150560537d96c0ab2b99ea55112"
INSPECT_TEXT = "12d49a23dc2d42f33e7a43e8d96fb89c7df487a17a9909c7c75ea2ba2e3d6d16"
CORPUS_WITNESS_JSON_T1 = "5c475734a65d59ae72c37c911b34284890637413b6c355a81218b8f4e8bf791b"
CORPUS_WITNESS_TEXT_T3 = "cb92cce58eaacb1575562a3bddd3bb3f5c6285cf1c411ba7f58871704c9e6ad3"
ALGEBRA_TEXT = "cbe6763ad2e3978a3a6d9472eea6ba8e9d6f1110452600506012149399b0403f"
ALGEBRA_JSON = "1dec058b1c90ba1b58f09128890fe78241119e20edd7fda8a92fb5762cdf0917"


@pytest.fixture
def stdout_sha256(monkeypatch, capsys):
    """Run each argv through the entry point at the repository root and
    return the sha256 of their concatenated stdout."""
    monkeypatch.chdir(CORPUS.parent)

    def run(*argvs):
        digest = hashlib.sha256()
        for argv in argvs:
            assert main(argv) == 0, argv
            digest.update(capsys.readouterr().out.encode())
        return digest.hexdigest()

    return run


def _corpus_files() -> list[str]:
    return [f"corpus/{p.name}" for p in sorted(CORPUS.glob("*.graph"))]


def test_corpus_classify_json_at_truncate_4(stdout_sha256):
    argv = ["classify", "--corpus", "corpus", "--json", "--truncate", "4"]
    assert stdout_sha256(argv) == CORPUS_JSON_T4


def test_corpus_classify_json_at_truncate_5(stdout_sha256):
    # every corpus bundle at truncation 5, with its containment report;
    # loop_two_exits alone evaluates 41 780 brackets
    argv = ["classify", "--corpus", "corpus", "--json", "--truncate", "5"]
    assert stdout_sha256(argv) == CORPUS_JSON_T5


def test_corpus_classify_text_without_evidence(stdout_sha256):
    argv = ["classify", "--corpus", "corpus", "--no-evidence"]
    assert stdout_sha256(argv) == CORPUS_TEXT_NO_EVIDENCE


def test_corpus_classify_witness_json_at_truncate_1(stdout_sha256):
    # below truncation 2 the degree-2 containment probe reaches past the
    # bracket pass of the report itself
    argv = ["classify", "--corpus", "corpus", "--json", "--witness", "--truncate", "1"]
    assert stdout_sha256(argv) == CORPUS_WITNESS_JSON_T1


def test_corpus_classify_witness_text_at_truncate_3(stdout_sha256):
    argv = ["classify", "--corpus", "corpus", "--witness", "--truncate", "3"]
    assert stdout_sha256(argv) == CORPUS_WITNESS_TEXT_T3


def test_inspect_every_corpus_graph_json(stdout_sha256):
    argvs = [["inspect", f, "--json"] for f in _corpus_files()]
    assert stdout_sha256(*argvs) == INSPECT_JSON


def test_inspect_every_corpus_graph_text(stdout_sha256):
    argvs = [["inspect", f] for f in _corpus_files()]
    assert stdout_sha256(*argvs) == INSPECT_TEXT


def _algebra_argvs() -> list[list[str]]:
    """skew-dim and bracket-dim at truncation 3 on every corpus file, dim on
    every acyclic one, the 2x2 check on the fiber and the cycle models of
    sizes 1 to 6."""
    argvs = []
    for name in corpus_names():
        f = f"corpus/{name}.graph"
        argvs += [["algebra", f, what, "--truncate", "3"] for what in ("skew-dim", "bracket-dim")]
        if not any(condensation(load(name))[2]):
            argvs.append(["algebra", f, "dim"])
    argvs.append(["algebra", "corpus/fiber.graph", "m2-check", "--fiber", "e"])
    argvs += [["algebra", "corpus/loop.graph", "cycle-check", "--cycle-check", str(d)]
              for d in range(1, 7)]
    return argvs


@pytest.mark.parametrize("json_flag, want", [([], ALGEBRA_TEXT), (["--json"], ALGEBRA_JSON)],
                         ids=["text", "json"])
def test_algebra_every_corpus_graph(stdout_sha256, json_flag, want):
    assert stdout_sha256(*(argv + json_flag for argv in _algebra_argvs())) == want

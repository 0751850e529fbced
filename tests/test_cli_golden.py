"""Byte-for-byte CLI output on fixed documents.

tests/cli_golden.json holds the documents, the command lines and the
recorded stdout and exit code of each run (written by
tests/record_cli_golden.py).  A change that keeps the behaviour of the
command line keeps every recorded output.
"""

import argparse
import json

import pytest

from record_cli_golden import COMMANDS, GOLDEN, run_case, write_documents
from steinv import RealAlgebraicField, golden_field, parse_spec
from steinv.cli import main
from references import check_obstruction, check_witness

DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))
RECORDED = {tuple(case["argv"]): (case["exit"], case["stdout"]) for case in DATA["cases"]}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_documents(tmp_path_factory.mktemp("golden"), DATA["documents"])


@pytest.mark.parametrize("case", DATA["cases"], ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_recording(case, paths):
    assert run_case(case["argv"], paths) == (case["exit"], case["stdout"])


def test_every_command_is_recorded():
    # a command added to the recorder but never recorded fails here
    assert COMMANDS == [case["argv"] for case in DATA["cases"]]


def test_main_builds_no_parser(paths, monkeypatch):
    # the parser is built once, at import; a run only parses and dispatches
    def refuse(*args, **kwargs):
        raise AssertionError("an argument parser was built after import")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv, recorded in RECORDED.items():
        assert run_case(list(argv), paths) == recorded


def test_no_state_carries_between_calls(paths):
    groupoid = ("classify-groupoid", "@base5", "@base5_ell2", "--json")
    classify = ("classify", "@base5", "@base5_ell2", "--json")
    assert RECORDED[groupoid] != RECORDED[classify]
    for argv in [groupoid, classify, groupoid]:
        assert run_case(list(argv), paths) == RECORDED[argv]

    seeded = ("element", "random", "@dyadic", "6", "--seed", "3", "--json")
    assert run_case(list(seeded), paths) == RECORDED[seeded]
    unseeded = run_case(list(seeded[:4]) + ["--json"], paths)
    assert unseeded == run_case(list(seeded[:4]) + ["--seed", "0", "--json"], paths)
    assert unseeded != RECORDED[seeded]

    with pytest.raises(SystemExit) as e:
        run_case(["classify", "@base5"], paths)
    assert e.value.code == 64
    assert run_case(list(classify), paths) == RECORDED[classify]

    # handles of the golden and cubic documents' polynomials on other
    # intervals, alive and met by the shared golden handle, print nowhere
    others = [RealAlgebraicField([-2, 0, 0, 1], (1, 2)), RealAlgebraicField([-1, -1, 1], (1, 2))]
    assert golden_field().coerce(others[1].generator()) == golden_field().generator()
    for argv in [
        ("element", "random", "@cubic", "5", "--seed", "3", "--json"),
        ("embed-v2", "@dyadic", "x0", "--json"),
    ]:
        assert run_case(list(argv), paths) == RECORDED[argv]


VERDICTS = [
    (case, json.loads(case["stdout"])) for case in DATA["cases"]
    if case["argv"][0] in ("classify", "obstruct") and "--json" in case["argv"] and case["stdout"]
]
WITNESSED = [case for case, out in VERDICTS if "s" in (out["witness"] or {})]
REFUTED = [case for case, out in VERDICTS if out["outcome"] == "NotIsomorphic"]


def documented_pair(case):
    return (parse_spec(DATA["documents"][arg[1:]]).triple for arg in case["argv"][1:3])


@pytest.mark.parametrize("case", WITNESSED, ids=lambda c: " ".join(c["argv"]))
def test_isomorphic_witness_is_a_certificate(case):
    check_witness(*documented_pair(case), json.loads(case["stdout"])["witness"])


def test_every_witness_is_checked():
    assert len(WITNESSED) == 10


@pytest.mark.parametrize("case", REFUTED, ids=lambda c: " ".join(c["argv"]))
def test_not_isomorphic_obstruction_is_a_certificate(case):
    check_obstruction(*documented_pair(case), json.loads(case["stdout"])["obstruction"])


def test_every_obstruction_with_an_oracle_is_checked():
    assert len(REFUTED) == 7  # two of them "stabilizer orbits"


@pytest.mark.parametrize(
    "command",
    sorted({tuple(argv[: 2 if argv[0] == "element" else 1]) for argv in COMMANDS}),
    ids=" ".join,
)
def test_help_of_every_command_lists_json(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([*command, "--help"])
    assert e.value.code == 0
    assert "--json" in capsys.readouterr().out

"""Byte-for-byte CLI output on fixed documents.

tests/cli_golden.json holds the documents, the command lines and the
recorded stdout and exit code of each run (written by
tests/record_cli_golden.py).  A change that keeps the behaviour of the
command line keeps every recorded output.
"""

import json

import pytest

from record_cli_golden import COMMANDS, GOLDEN, run_case, write_documents

DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_documents(tmp_path_factory.mktemp("golden"), DATA["documents"])


@pytest.mark.parametrize("case", DATA["cases"], ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_recording(case, paths):
    assert run_case(case["argv"], paths) == (case["exit"], case["stdout"])


def test_every_command_is_recorded():
    # a command added to the recorder but never recorded fails here
    assert COMMANDS == [case["argv"] for case in DATA["cases"]]

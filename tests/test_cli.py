"""Command line behavior: output text, JSON mode, and exit codes."""

import json
import subprocess
import sys

import pytest

from steinv import coding, parse_spec
from steinv.cli import main

DYADIC_DOC = {
    "gamma": {"basis": ["1"], "inverted_primes": [2]},
    "lambda": {"generators": ["2"]},
    "ell": "1",
    "elements": {
        "x0": {
            "pieces": [["0", "2", "0"], ["1/4", "1", "1/4"], ["1/2", "1/2", "1/2"]]
        },
        "swap": {"pairs": [["0", "1"], ["1", "0"]]},
    },
}

BASE5_DOC = {
    "gamma": {"basis": ["1"], "inverted_primes": [5]},
    "lambda": {"generators": ["5"]},
    "ell": "1",
}

BASE5_ELL2_DOC = dict(BASE5_DOC, ell="2")

TWO_THREE_DOC = {
    "gamma": {"basis": ["1"], "inverted_primes": [2, 3]},
    "lambda": {"generators": ["2", "3"]},
    "ell": "1",
}

TWO_NINE_DOC = dict(TWO_THREE_DOC, **{"lambda": {"generators": ["2", "9"]}})

TWO_FIVE_DOC = {
    "gamma": {"basis": ["1"], "inverted_primes": [2, 5]},
    "lambda": {"generators": ["2", "5"]},
    "ell": "1",
}

GOLDEN_DOC = {
    "field": {"minpoly": [-1, -1, 1], "root_interval": ["3/2", "5/3"]},
    "gamma": {"basis": [["1"], ["0", "1"]]},
    "lambda": {"generators": [["0", "1"]]},
    "ell": "1",
}

GOLDEN_ELL_B_DOC = dict(GOLDEN_DOC, ell=["0", "1"])


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    base = tmp_path_factory.mktemp("docs")
    paths = {}
    for name, payload in [
        ("dyadic", DYADIC_DOC),
        ("base5", BASE5_DOC),
        ("base5_ell2", BASE5_ELL2_DOC),
        ("two_three", TWO_THREE_DOC),
        ("two_nine", TWO_NINE_DOC),
        ("two_five", TWO_FIVE_DOC),
        ("golden", GOLDEN_DOC),
        ("golden_ell_b", GOLDEN_ELL_B_DOC),
    ]:
        p = base / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- verdict commands -------------------------------------------------------


def test_classify_reflexive(docs, capsys):
    code, out, _ = run(capsys, "classify", docs["dyadic"], docs["dyadic"])
    assert code == 0
    assert out == "Isomorphic (s=1)\n"


def test_classify_golden_endpoint_scaling(docs, capsys):
    code, out, _ = run(capsys, "classify", docs["golden"], docs["golden_ell_b"])
    assert code == 0
    assert out.startswith("Isomorphic")


def test_classify_prime_obstruction(docs, capsys):
    code, out, _ = run(capsys, "classify", docs["two_three"], docs["two_five"])
    assert code == 0
    assert out == (
        "NotIsomorphic: no order-preserving embedding of slope groups (prime 3)\n"
    )


def test_classify_unknown_exit_code(docs, capsys):
    code, out, _ = run(capsys, "classify", docs["two_three"], docs["two_nine"])
    assert code == 1
    assert out.startswith("Unknown: ")


def test_classify_endpoint_separation(docs, capsys):
    code, out, _ = run(capsys, "classify", docs["base5"], docs["base5_ell2"])
    assert code == 0
    assert out.startswith("NotIsomorphic")
    # at the groupoid level the endpoint distinction evaporates
    code, out, _ = run(
        capsys, "classify-groupoid", docs["base5"], docs["base5_ell2"]
    )
    assert code == 0
    assert out == "Isomorphic (s=1)\n"


def test_classify_json_round(docs, capsys):
    code, out, _ = run(capsys, "classify", docs["two_three"], docs["two_five"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "NotIsomorphic"
    assert "prime 3" in data["obstruction"]
    assert data["explanation"].startswith("NotIsomorphic")


def test_obstruct_command(docs, capsys):
    code, out, _ = run(capsys, "obstruct", docs["two_three"], docs["two_nine"])
    assert code == 1
    assert out.startswith("Unknown")
    code, out, _ = run(capsys, "obstruct", docs["base5"], docs["base5_ell2"])
    assert code == 0
    assert out.startswith("NotIsomorphic")


# -- coinvariants -----------------------------------------------------------


def test_coinvariants_text(docs, capsys):
    code, out, _ = run(capsys, "coinvariants", docs["base5"])
    assert code == 0
    assert out == "Z/4\n"
    code, out, _ = run(capsys, "coinvariants", docs["golden"])
    assert out == "trivial\n"


def test_coinvariants_json(docs, capsys):
    code, out, _ = run(capsys, "coinvariants", docs["base5"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "coinvariants": "Z/4",
        "free_rank": 0,
        "invariant_factors": [4],
    }


# -- element operations -----------------------------------------------------


def test_element_invert_text(docs, capsys):
    code, out, _ = run(capsys, "element", "invert", docs["dyadic"], "x0")
    assert code == 0
    assert out == (
        "on [0, 1/2): slope 1/2, offset 0\n"
        "on [1/2, 3/4): slope 1, offset -1/4\n"
        "on [3/4, 1): slope 2, offset -1\n"
    )


def test_element_compose_identity(docs, capsys):
    # compose applies the first name after the second; x0 then its inverse
    code, out, _ = run(capsys, "element", "invert", docs["dyadic"], "x0", "--json")
    doc = parse_spec(out)
    assert "result" in doc.elements
    inv = doc.elements["result"]
    x0 = parse_spec(DYADIC_DOC).elements["x0"]
    assert x0.compose(inv).is_identity()


def test_element_json_round_trip(docs, capsys):
    code, out, _ = run(capsys, "element", "compose", docs["dyadic"], "x0", "x0", "--json")
    assert code == 0
    doc = parse_spec(out)
    x0 = parse_spec(DYADIC_DOC).elements["x0"]
    assert doc.elements["result"] == x0.compose(x0)


def test_element_fixed_points(docs, capsys):
    code, out, _ = run(capsys, "element", "fixed-points", docs["dyadic"], "x0")
    assert code == 0
    assert out == "0+ slope 2 repelling\n1- slope 1/2 attracting\n"
    code, out, _ = run(capsys, "element", "fixed-points", docs["dyadic"], "swap")
    assert out == "no fixed points\n"


def test_element_to_pairs(docs, capsys):
    code, out, _ = run(capsys, "element", "to-pairs", docs["dyadic"], "x0")
    assert code == 0
    assert out == "00 -> 0\n01 -> 10\n1 -> 11\n"
    code, out, _ = run(capsys, "element", "to-pairs", docs["dyadic"], "x0", "--json")
    assert json.loads(out) == {"pairs": [["00", "0"], ["01", "10"], ["1", "11"]]}


def test_element_random_deterministic(docs, capsys):
    code, first, _ = run(capsys, "element", "random", docs["dyadic"], "6", "--seed", "3")
    assert code == 0
    code, second, _ = run(capsys, "element", "random", docs["dyadic"], "6", "--seed", "3")
    assert first == second
    code, third, _ = run(capsys, "element", "random", docs["dyadic"], "6", "--seed", "4")
    assert first != third


def test_element_unknown_name(docs, capsys):
    code, out, err = run(capsys, "element", "invert", docs["dyadic"], "nope")
    assert code == 2
    assert "no element named" in err


# -- expand -----------------------------------------------------------------


def test_expand_binary(docs, capsys):
    code, out, _ = run(capsys, "expand", "2", "3/4", "-")
    assert code == 0
    assert out == "10(1)\n"
    code, out, _ = run(capsys, "expand", "2", "1/2", "plus")
    assert out == "1(0)\n"


def test_expand_beta(docs, capsys):
    # 2 - b is (b-1)^2, the square of the inverse golden ratio
    code, out, _ = run(capsys, "expand", "beta", "2,-1", "+")
    assert code == 0
    assert out == "01(0)\n"
    code, out, _ = run(capsys, "expand", "beta", "1", "minus")
    assert out == "(10)\n"


def test_exhausted_bound_exits_2(docs, capsys, monkeypatch):
    monkeypatch.setattr(coding, "_MAX_GREEDY_STEPS", 1)
    code, out, err = run(capsys, "expand", "beta", "2,-1", "+")
    assert code == 2
    assert out == ""
    assert err == "error: greedy expansion did not cycle\n"


def test_expand_json(docs, capsys):
    code, out, _ = run(capsys, "expand", "2", "3/4", "-", "--json")
    data = json.loads(out)
    assert data == {"base": "2", "side": "-", "value": "3/4", "word": "10(1)"}


def test_expand_errors(docs, capsys):
    code, _, err = run(capsys, "expand", "2", "1/3", "+")
    assert code == 2  # 1/3 is not dyadic
    code, _, err = run(capsys, "expand", "x", "1/2", "+")
    assert code == 64
    code, _, err = run(capsys, "expand", "2", "zebra", "+")
    assert code == 64
    code, _, err = run(capsys, "expand", "12", "1/2", "+")
    assert code == 2  # base out of range


# -- embedding --------------------------------------------------------------


def test_embed_swap(docs, capsys):
    code, out, _ = run(capsys, "embed-v2", docs["dyadic"], "swap")
    assert code == 0
    assert out == (
        "on [0, -1 + a): slope -1 + a, offset -1 + a\n"
        "on [-1 + a, 1): slope a, offset -1\n"
    )


def test_embed_json_parses_back(docs, capsys):
    code, out, _ = run(capsys, "embed-v2", docs["dyadic"], "x0", "--json")
    assert code == 0
    doc = parse_spec(out)
    assert doc.field.degree == 2
    assert "result" in doc.elements


# -- failure modes ----------------------------------------------------------


def test_missing_file(docs, capsys):
    code, _, err = run(capsys, "coinvariants", "/no/such/file.json")
    assert code == 2
    assert "no such file" in err


def test_invalid_document(docs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "gamma": {"basis": ["1"], "inverted_primes": [2]},
        "lambda": {"generators": ["3"]},
        "ell": "1",
    }))
    code, _, err = run(capsys, "coinvariants", str(bad))
    assert code == 2
    assert "error" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as e:
        main(["nonsense"])
    assert e.value.code == 64
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 64
    with pytest.raises(SystemExit) as e:
        main(["classify", "only-one.json"])
    assert e.value.code == 64


def test_json_output_is_byte_stable(docs, capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "classify", docs["golden"], docs["golden"], "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0].endswith("\n")


def test_console_script_subprocess(docs):
    # one end to end check through the installed entry point
    proc = subprocess.run(
        [sys.executable, "-m", "steinv", "coinvariants", docs["base5"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Z/4\n"

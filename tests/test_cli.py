"""Command line behavior: output text, JSON mode, and exit codes."""

import ast
import importlib
import inspect
import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from record_cli_golden import (
    DYADIC_DOC, BASE5_DOC, BASE5_ELL2_DOC, TWO_THREE_DOC, TWO_NINE_DOC, TWO_FIVE_DOC,
    GOLDEN_DOC, GOLDEN_ELL_B_DOC, SQRT2_FREE_DOC,
)
from steinv import (
    BreakpointModule, coding, coinvariants, elements, modules, parse_spec,
)
from steinv.cli import main
from steinv.numbers import MinimalPolynomial

SQRT2_FREE_ELL_2_DOC = dict(SQRT2_FREE_DOC, ell="2")


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
        ("sqrt2_free", SQRT2_FREE_DOC),
        ("sqrt2_free_ell_2", SQRT2_FREE_ELL_2_DOC),
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
    # the battery searches nothing, so it takes no bound
    with pytest.raises(SystemExit) as e:
        main(["obstruct", docs["base5"], docs["base5_ell2"], "--search-bound", "3"])
    assert e.value.code == 64


def test_negative_search_bound_exits_2(docs, capsys):
    # rank one and trivial slopes never reach the scale search
    cases = [
        ("golden", "golden", "-3"),
        ("base5", "base5", "-1"),
        ("sqrt2_free", "sqrt2_free_ell_2", "-5"),
    ]
    for command in ("classify", "classify-groupoid"):
        for a, b, bound in cases:
            argv = [command, docs[a], docs[b], "--search-bound", bound]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: the search bound {bound} is negative\n"


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


def test_each_triple_builds_its_slope_action_once(docs, capsys, monkeypatch):
    # a one-generator triple multiplies by mu once when it is built and
    # reads 1/mu off that matrix's determinant; coinvariants and
    # classify-groupoid read the triples already built
    calls = []
    build = BreakpointModule.multiplication_matrix

    def spy(module, mu):
        calls.append(mu)
        return build(module, mu)

    monkeypatch.setattr(BreakpointModule, "multiplication_matrix", spy)
    assert run(capsys, "classify", docs["golden"], docs["golden_ell_b"])[0] == 0
    assert len(calls) == 2
    calls.clear()
    assert run(capsys, "classify-groupoid", docs["golden"], docs["golden_ell_b"])[0] == 0
    assert len(calls) == 2
    calls.clear()
    assert run(capsys, "coinvariants", docs["golden"]) == (0, "trivial\n", "")
    assert len(calls) == 1
    triple = parse_spec(docs["golden"]).triple
    calls.clear()
    assert coinvariants(triple).is_trivial()
    assert calls == []


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


def test_malformed_numbers_exit_without_traceback(capsys):
    def doc(ell):
        return json.dumps(dict(BASE5_DOC, ell=ell))

    long_integer = '{"gamma": {"basis": [1' + "0" * 5000 + ']}, "lambda": {"generators": [5]}}'
    cases = [
        (2, ["element", "random", doc("1e5000"), "1", "--json"]),
        (64, ["expand", "2", "1e3000000", "+"]),
        (2, ["classify", doc("1e40000000"), doc("1")]),
        (2, ["coinvariants", long_integer]),
    ]
    for expected, argv in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (expected, "")
        assert "error:" in err and "Traceback" not in err


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


def test_directory_path_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "coinvariants", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff" + json.dumps(BASE5_DOC).encode())
    code, out, err = run(capsys, "coinvariants", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path} is not UTF-8 text\n"


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"gamma": ' + "[" * 3000 + "]" * 3000 + "}")
    code, out, err = run(capsys, "coinvariants", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the document nests too deeply\n"


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


# -- inputs with 19-digit primes finish at once -----------------------------

P = 1000000000000000003
Q = P * 1000000000000000009  # composite, with no factor rho finds in budget


def run_module(tmp_path, *argv, timeout=2):
    """Exit code and output of `python -m steinv`, which must finish in
    `timeout` seconds."""
    args = []
    for a in argv:
        if isinstance(a, dict):
            path = tmp_path / f"doc{len(args)}.json"
            path.write_text(json.dumps(a))
            a = str(path)
        args.append(a)
    proc = subprocess.run(
        [sys.executable, "-m", "steinv", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def big_prime_doc(inverted, generator):
    return {
        "gamma": {"basis": ["1"], "inverted_primes": [inverted]},
        "lambda": {"generators": [str(generator)]},
        "ell": "1",
    }


def test_big_prime_slope_on_dyadic_module_exits_2(tmp_path):
    code, out, err = run_module(tmp_path, "coinvariants", big_prime_doc(2, P))
    assert (code, out) == (2, "")
    assert "not closed under multiplication" in err


def test_big_inverted_prime_coinvariants(tmp_path):
    code, out, _ = run_module(tmp_path, "coinvariants", big_prime_doc(P, P))
    assert (code, out) == (0, "Z/1000000000000000002\n")


def test_big_prime_slope_in_element_exits_2(tmp_path):
    doc = dict(DYADIC_DOC, elements={"f": {"pieces": [["0", str(P), "0"]]}})
    code, out, err = run_module(tmp_path, "element", "invert", doc, "f")
    assert (code, out) == (2, "")
    assert "outside the slope group" in err


def test_thompson_triple_of_a_big_prime_returns():
    proc = subprocess.run(
        [sys.executable, "-c", f"import steinv; steinv.thompson_triple({P})"],
        timeout=2,
    )
    assert proc.returncode == 0


def test_unfactorable_inputs_exit_2(tmp_path):
    code, out, err = run_module(tmp_path, "coinvariants", big_prime_doc(Q, 2))
    assert (code, out, err) == (2, "", f"error: {Q} is not prime\n")
    code, out, err = run_module(tmp_path, "coinvariants", big_prime_doc(2, Q))
    assert (code, out) == (2, "")
    assert f"cannot factor {Q}" in err


# -- arguments that once made a small input hang ----------------------------


def test_overlong_random_word_exits_2_at_once(tmp_path):
    doc = {key: DYADIC_DOC[key] for key in ("gamma", "lambda", "ell")}
    for length, message in [
        ("1000000000", "a random word is capped at 500 letters"),
        ("-3", "the word length -3 is negative"),
    ]:
        code, out, err = run_module(tmp_path, "element", "random", doc, length)
        assert (code, out) == (2, ""), length
        assert err == f"error: {message}\n"


def test_high_rank_generator_library_exits_2_at_once(tmp_path):
    # x^7 - 2 on its power basis over Z[1/2]: 339 bytes of document, whose
    # 5^7 - 1 candidate lengths once took 7-10 s for a one-letter word
    doc = {
        "field": {"minpoly": ["-2", "0", "0", "0", "0", "0", "0", "1"],
                  "root_interval": ["1", "2"]},
        "gamma": {"basis": [["0"] * i + ["1"] for i in range(7)], "inverted_primes": [2]},
        "lambda": {"generators": ["2"]},
        "ell": "1",
    }
    code, out, err = run_module(tmp_path, "element", "random", doc, "1", timeout=1)
    assert (code, out, err) == (2, "", "error: a generator library is capped at module rank 5\n")


@pytest.mark.parametrize("command", [["element", "to-pairs"], ["embed-v2"]], ids=" ".join)
def test_long_prefix_exchange_form_exits_2_at_once(tmp_path, command):
    # the rotation by 2^-40 in (Z[1/2], <2>, 1): 230 bytes of document and
    # 2^40 prefix pairs, never more than 40 cylinders deep
    shift = Fraction(1, 2**40)
    pieces = [["0", "1", str(shift)], [str(1 - shift), "1", str(shift - 1)]]
    doc = dict(DYADIC_DOC, elements={"r": {"pieces": pieces}})
    code, out, err = run_module(tmp_path, *command, doc, "r")
    message = f"a prefix exchange form is capped at {elements._MAX_PAIR_LETTERS:,} letters"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_interval_too_short_for_any_generator_exits_2(tmp_path, capsys):
    doc = tmp_path / "tiny.json"
    doc.write_text(json.dumps({"gamma": DYADIC_DOC["gamma"], "lambda": DYADIC_DOC["lambda"],
                               "ell": "1/1024"}))
    code, out, err = run(capsys, "element", "random", str(doc), "3")
    assert (code, out, err) == (2, "", "error: no generator shape fits inside the interval\n")


def budget_constants():
    """{(module, name): value} for every module-level budget constant in
    src/steinv: the _MAX_* names and those ending in _STEPS, _STATES,
    _POWERS, _CAP or _CANDIDATES."""
    pattern = re.compile(r"_MAX_\w+|\w+_(STEPS|STATES|POWERS|CAP|CANDIDATES)")
    found = {}
    for path in sorted((Path(__file__).parents[1] / "src" / "steinv").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                if pattern.fullmatch(name):
                    module = importlib.import_module(f"steinv.{path.stem}")
                    found[path.stem, name] = getattr(module, name)
    return found


def test_readme_states_each_budget_as_the_code_sets_it():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = {
        (m[1], m[2]): m[3]
        for m in re.finditer(r"^\| `(\w+)\.(\w+)` \| ([\d,]+) \|", text, re.MULTILINE)
    }
    budgets = budget_constants()
    assert table == {key: f"{value:,}" for key, value in budgets.items()}
    # the prose states each value too, with or without a thousands comma
    prose = re.sub(r"^\|.*$", "", text, flags=re.MULTILINE)
    for key, value in budgets.items():
        forms = "|".join({f"{value:,}", str(value)})
        assert re.search(rf"(?<![\d,])({forms})(?![\d,])", prose), key
    readme = " ".join(text.split())
    assert f"(default {modules.DEFAULT_SEARCH_BOUND})" in readme
    assert f"degree d <= 3, and {modules._SCALE_CANDIDATES:,} * 9 // d^2 above that" in readme
    rule = "_SCALE_CANDIDATES if d <= 3 else _SCALE_CANDIDATES * 9 // d**2"
    assert rule in inspect.getsource(modules.scale_equivalence)
    # every sign decides, so no count of bisections or refinements is a cap
    assert not re.search(r"\d (bisections|refinements|halvings)", readme)


def test_high_degree_field_exits_2_at_once(tmp_path):
    # a dense degree-90 polynomial, 449 bytes of document, once took 38 s
    rng = random.Random(90)
    minpoly = [rng.randint(-9, 9) for _ in range(90)] + [rng.choice(range(1, 10))]
    doc = {
        "field": {"minpoly": minpoly, "root_interval": ["0", "1"]},
        "gamma": {"basis": ["1"], "inverted_primes": [2]},
        "lambda": {"generators": ["2"]},
    }
    code, out, err = run_module(tmp_path, "coinvariants", doc)
    assert (code, out) == (2, "")
    assert err == "error: a defining polynomial is capped at degree 32\n"
    assert MinimalPolynomial([1] + [0] * 31 + [1]).degree == 32


def test_huge_search_bound_spends_the_budget(tmp_path):
    # Z + Z*phi against Z + 2Z*phi: no scalar, so the search walks its
    # shells until the candidate budget runs out
    a, b = (
        {"field": GOLDEN_DOC["field"], "gamma": {"basis": [["1"], ["0", c]]},
         "lambda": {"generators": []}}
        for c in ("1", "2")
    )
    code, out, _ = run_module(tmp_path, "classify", a, b, "--search-bound", "100000",
                              timeout=20)
    assert (code, out) == (
        1, "Unknown: module scale search failed: search budget spent at radius 95\n"
    )


@pytest.mark.parametrize("degree, radius", [(16, 18), (32, 9)])
def test_high_degree_search_budget_is_charged_by_degree(tmp_path, degree, radius):
    # Z[1/2]<1, a> against Z[1/2]<1, 3a> at a root in (0, 1) of a random
    # polynomial with one sign change; each candidate divides in degree d,
    # so the budget shrinks as 1/d^2 and the search ends in seconds
    rng = random.Random(degree)
    minpoly = [-rng.randint(1, 9)] + [rng.randint(1, 9) for _ in range(degree)]
    a, b = (
        {"field": {"minpoly": minpoly, "root_interval": ["0", "1"]},
         "gamma": {"basis": [["1"], ["0", c]], "inverted_primes": [2]},
         "lambda": {"generators": ["2"]}}
        for c in ("1", "3")
    )
    code, out, _ = run_module(tmp_path, "classify", a, b, "--search-bound", "100000",
                              timeout=10)
    assert (code, out) == (
        1, f"Unknown: module scale search failed: search budget spent at radius {radius}\n"
    )

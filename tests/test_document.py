"""JSON document parsing and serialization."""

import json
from fractions import Fraction

import pytest

from steinv import ParseError, SpecDocument, parse_spec, thompson_triple
from steinv.document import (
    dump_json,
    parse_rational,
    plmap_to_json,
    triple_to_json,
    value_to_json,
    verdict_to_json,
)
from steinv.classify import classify_pair

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

GOLDEN_DOC = {
    "field": {"minpoly": [-1, -1, 1], "root_interval": ["3/2", "5/3"]},
    "gamma": {"basis": [["1"], ["0", "1"]]},
    "lambda": {"generators": [["0", "1"]]},
    "ell": "1",
}


def test_parse_from_dict():
    doc = parse_spec(DYADIC_DOC)
    assert isinstance(doc, SpecDocument)
    assert doc.triple == thompson_triple(2)
    assert set(doc.elements) == {"x0", "swap"}
    with pytest.raises(ParseError, match="unknown key 'tasks'"):
        parse_spec(dict(DYADIC_DOC, tasks=["classify"]))


def test_parse_from_text_and_file(tmp_path):
    text = json.dumps(DYADIC_DOC)
    doc = parse_spec(text)
    assert doc.triple == thompson_triple(2)
    path = tmp_path / "doc.json"
    path.write_text(text)
    doc2 = parse_spec(str(path))
    assert doc2.triple == doc.triple
    assert doc2.elements["x0"] == doc.elements["x0"]


def test_parse_missing_file():
    with pytest.raises(ParseError) as e:
        parse_spec("/nonexistent/steinv-doc.json")
    assert "no such file" in str(e.value)


def test_parse_golden_document():
    doc = parse_spec(GOLDEN_DOC)
    f = doc.field
    assert f.degree == 2
    b = f.generator()
    assert doc.triple.module.contains(b)
    assert doc.triple.slopes.contains(b)
    assert doc.triple.endpoint == 1


def test_rational_forms():
    assert parse_rational(3, "x") == 3
    assert parse_rational("5/8", "x") == Fraction(5, 8)
    assert parse_rational("-2", "x") == -2
    with pytest.raises(ParseError):
        parse_rational(0.5, "x")  # floats are ambiguous, refuse them
    with pytest.raises(ParseError):
        parse_rational(True, "x")
    with pytest.raises(ParseError):
        parse_rational("a/b", "x")
    with pytest.raises(ParseError):
        parse_rational(None, "x")
    # only a sign, digits and "/digits": Fraction's other forms are refused
    # (and integers longer than int() converts)
    for text in ["1e5000", "0.5", "1_000", " 1/2", "1/0", "1/-2", "", "1" + "0" * 5000]:
        with pytest.raises(ParseError):
            parse_rational(text, "x")
    assert parse_rational("+3/6", "x") == Fraction(1, 2)


def test_unknown_keys_rejected():
    bad = dict(DYADIC_DOC)
    bad["extra"] = 1
    with pytest.raises(ParseError):
        parse_spec(bad)
    with pytest.raises(ParseError):
        parse_spec({"gamma": {"basis": ["1"], "inverted_primes": [2]}})
    with pytest.raises(ParseError):
        parse_spec({"lambda": {"generators": ["2"]}})


def test_element_needs_exactly_one_form():
    bad = {
        "gamma": {"basis": ["1"], "inverted_primes": [2]},
        "lambda": {"generators": ["2"]},
        "ell": "1",
        "elements": {"e": {}},
    }
    with pytest.raises(ParseError):
        parse_spec(bad)
    bad["elements"] = {
        "e": {"pieces": [["0", "1", "0"]], "pairs": [["0", "0"], ["1", "1"]]}
    }
    with pytest.raises(ParseError):
        parse_spec(bad)


def test_element_names_are_checked_before_they_are_sorted():
    good = {"pieces": [["0", "1", "0"]]}
    for names in ([1, "e"], ["e", None], ["", "e"], [2]):
        bad = dict(DYADIC_DOC, elements={name: good for name in names})
        with pytest.raises(ParseError, match="element names must be nonempty strings"):
            parse_spec(bad)


E = {"pieces": [["0", "1", "0"]]}
# one malformed document per ParseError site of the document parser, with
# the full message it gives
REFUSALS = {
    "field must be an object": dict(DYADIC_DOC, field=[]),
    "gamma must be an object": dict(DYADIC_DOC, gamma=["1"]),
    "lambda must be an object": dict(DYADIC_DOC, **{"lambda": ["2"]}),
    "elements must be an object": dict(DYADIC_DOC, elements=[E]),
    "elements.e must be an object": dict(DYADIC_DOC, elements={"e": [["0", "1", "0"]]}),
    "unknown key 'tasks' in document": dict(DYADIC_DOC, tasks=[]),
    "unknown key 'degree' in field": dict(GOLDEN_DOC, field=dict(GOLDEN_DOC["field"], degree=2)),
    "unknown key 'primes' in gamma": dict(DYADIC_DOC, gamma={"basis": ["1"], "primes": [2]}),
    "unknown key 'gens' in lambda": dict(DYADIC_DOC, **{"lambda": {"generators": [], "gens": []}}),
    "unknown key 'map' in elements.e": dict(DYADIC_DOC, elements={"e": dict(E, map=1)}),
    "gamma.basis[0]: 2 coordinates exceed field degree 1":
        dict(DYADIC_DOC, gamma={"basis": [["1", "0"]], "inverted_primes": [2]}),
    "field needs both minpoly and root_interval":
        dict(GOLDEN_DOC, field={"minpoly": [-1, -1, 1]}),
    "field.minpoly must be an array of integers":
        dict(GOLDEN_DOC, field={"minpoly": "t^2 - t - 1", "root_interval": ["3/2", "5/3"]}),
    "field.root_interval must be [lo, hi]":
        dict(GOLDEN_DOC, field={"minpoly": [-1, -1, 1], "root_interval": ["3/2"]}),
    "gamma.basis must be a nonempty array": dict(DYADIC_DOC, gamma={"basis": []}),
    "gamma.inverted_primes must be an array":
        dict(DYADIC_DOC, gamma={"basis": ["1"], "inverted_primes": 2}),
    "gamma.inverted_primes[0] must be an integer":
        dict(DYADIC_DOC, gamma={"basis": ["1"], "inverted_primes": ["2"]}),
    "lambda.generators must be an array": dict(DYADIC_DOC, **{"lambda": {"generators": "2"}}),
    "elements.e needs exactly one of pieces or pairs": dict(DYADIC_DOC, elements={"e": {}}),
    "elements.e.pieces must be an array": dict(DYADIC_DOC, elements={"e": {"pieces": {}}}),
    "elements.e.pieces[0] must be [start, slope, offset]":
        dict(DYADIC_DOC, elements={"e": {"pieces": [["0", "1"]]}}),
    "elements.e.pairs must be an array": dict(DYADIC_DOC, elements={"e": {"pairs": "01"}}),
    'elements.e.pairs[0] must be ["u", "v"]':
        dict(DYADIC_DOC, elements={"e": {"pairs": [["0", 1], ["1", "0"]]}}),
    "a document needs gamma and lambda": {"gamma": DYADIC_DOC["gamma"]},
    "element names must be nonempty strings": dict(DYADIC_DOC, elements={"": E}),
    "document must be an object": "[1, 2]",
}


@pytest.mark.parametrize("message", sorted(REFUSALS))
def test_every_refusal_gives_its_message(message):
    with pytest.raises(ParseError) as e:
        parse_spec(REFUSALS[message])
    assert str(e.value) == message


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as e:
        parse_spec('{"gamma": }')
    assert "column" in str(e.value)


def test_value_to_json():
    doc = parse_spec(GOLDEN_DOC)
    b = doc.field.generator()
    assert value_to_json(b) == ["0", "1"]
    assert value_to_json(doc.field.from_rational(2)) == ["2", "0"]
    q = parse_spec(DYADIC_DOC).field.from_rational(Fraction(1, 2))
    assert value_to_json(q) == "1/2"


def test_plmap_round_trip_via_json():
    doc = parse_spec(DYADIC_DOC)
    x0 = doc.elements["x0"]
    encoded = plmap_to_json(x0)
    rebuilt = {
        "gamma": {"basis": ["1"], "inverted_primes": [2]},
        "lambda": {"generators": ["2"]},
        "ell": "1",
        "elements": {"x0": encoded},
    }
    doc2 = parse_spec(rebuilt)
    assert doc2.elements["x0"] == x0


def test_triple_to_json_shapes():
    doc = parse_spec(DYADIC_DOC)
    data = triple_to_json(doc.triple)
    assert "field" not in data  # rational data stays implicit
    assert data["gamma"] == {"basis": ["1"], "inverted_primes": [2]}
    assert data["lambda"] == {"generators": ["2"]}
    assert data["ell"] == "1"

    golden = parse_spec(GOLDEN_DOC)
    gdata = triple_to_json(golden.triple)
    assert gdata["field"]["minpoly"] == [-1, -1, 1]
    assert gdata["field"]["root_interval"] == ["3/2", "5/3"]
    # round trip through the parser
    assert parse_spec(gdata).triple == golden.triple


def test_verdict_to_json():
    v = classify_pair(thompson_triple(3, 1), thompson_triple(3, 2))
    data = verdict_to_json(v)
    assert data["outcome"] == "NotIsomorphic"
    assert data["obstruction"]
    assert data["explanation"].startswith("NotIsomorphic")


def test_dump_json_deterministic():
    payload = {"b": 1, "a": [1, 2]}
    out = dump_json(payload)
    assert out == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert out == dump_json({"a": [1, 2], "b": 1})

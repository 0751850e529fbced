"""JSON documents describing a triple and named elements.

The surface format keeps everything exact: rationals are integers or
strings of an optional sign, digits and an optional "/digits" (floats,
decimals, exponents, underscores and spaces are rejected), field
elements are arrays of rationals in power-basis coordinates.  Parsing is
strict: unknown keys raise ParseError so typos cannot silently change a
computation.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import NamedTuple, Optional

from .classify import Verdict
from .elements import FixedPointReport, PLMap, from_prefix_pairs, make_plmap
from .errors import ParseError, ValidationError
from .modules import BreakpointModule, SlopeGroup, SteinTriple
from .numbers import FieldElement, RealAlgebraicField, _exact, rational_field


class SpecDocument(NamedTuple):
    triple: SteinTriple
    elements: dict

    @property
    def field(self) -> RealAlgebraicField:
        return self.triple.field


def _object(value, where: str, keys=None) -> dict:
    """value, which must be an object whose keys all lie in `keys` (any
    keys when keys is None)."""
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    if keys is not None:
        for key in value:
            if key not in keys:
                raise ParseError(f"unknown key {key!r} in {where}")
    return value


def _array(value, message: str, length: Optional[int] = None) -> list:
    """value, which must be an array, of the given length if one is given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ParseError(message)
    return value


def _values(values: list, field: RealAlgebraicField, where: str) -> list:
    return [parse_value(x, field, f"{where}[{i}]") for i, x in enumerate(values)]


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f'{where}: floats are inexact, write "p/q" instead')
    if isinstance(value, str):
        try:
            return _exact(value)
        except ValidationError:
            raise ParseError(f"{where}: {value!r} is not a rational p/q") from None
    raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")


def parse_value(value, field: RealAlgebraicField, where: str) -> FieldElement:
    """A field element: either a rational or a coordinate array."""
    if isinstance(value, list):
        coords = [parse_rational(x, f"{where}[{i}]") for i, x in enumerate(value)]
        if len(coords) > field.degree:
            raise ParseError(
                f"{where}: {len(coords)} coordinates exceed field degree "
                f"{field.degree}"
            )
        return field.element(coords)
    return field.from_rational(parse_rational(value, where))


def _parse_field(data) -> RealAlgebraicField:
    if data is None:
        return rational_field()
    data = _object(data, "field", {"minpoly", "root_interval"})
    if "minpoly" not in data or "root_interval" not in data:
        raise ParseError("field needs both minpoly and root_interval")
    minpoly = _array(data["minpoly"], "field.minpoly must be an array of integers")
    coeffs = [parse_rational(c, f"field.minpoly[{i}]") for i, c in enumerate(minpoly)]
    interval = _array(data["root_interval"], "field.root_interval must be [lo, hi]", 2)
    lo, hi = (parse_rational(x, f"field.root_interval[{i}]") for i, x in enumerate(interval))
    return RealAlgebraicField(coeffs, (lo, hi))


def _parse_gamma(data, field: RealAlgebraicField) -> BreakpointModule:
    data = _object(data, "gamma", {"basis", "inverted_primes"})
    # an empty basis is refused as a missing one
    basis = _array(data.get("basis") or None, "gamma.basis must be a nonempty array")
    basis = _values(basis, field, "gamma.basis")
    primes = _array(data.get("inverted_primes", []), "gamma.inverted_primes must be an array")
    for i, p in enumerate(primes):
        if isinstance(p, bool) or not isinstance(p, int):
            raise ParseError(f"gamma.inverted_primes[{i}] must be an integer")
    return BreakpointModule(field, basis, primes)


def _parse_lambda(data, field: RealAlgebraicField) -> SlopeGroup:
    data = _object(data, "lambda", {"generators"})
    gens = _array(data.get("generators"), "lambda.generators must be an array")
    return SlopeGroup(_values(gens, field, "lambda.generators"), field=field)


def _parse_element(name: str, data, triple: SteinTriple) -> PLMap:
    where = f"elements.{name}"
    data = _object(data, where, {"pieces", "pairs"})
    if ("pieces" in data) == ("pairs" in data):
        raise ParseError(f"{where} needs exactly one of pieces or pairs")
    if "pieces" in data:
        pieces = []
        for i, piece in enumerate(_array(data["pieces"], f"{where}.pieces must be an array")):
            at = f"{where}.pieces[{i}]"
            piece = _array(piece, f"{at} must be [start, slope, offset]", 3)
            pieces.append(_values(piece, triple.field, at))
        return make_plmap(triple, pieces)
    pairs = []
    for i, pair in enumerate(_array(data["pairs"], f"{where}.pairs must be an array")):
        message = f'{where}.pairs[{i}] must be ["u", "v"]'
        if not all(isinstance(w, str) for w in _array(pair, message, 2)):
            raise ParseError(message)
        pairs.append(pair)
    return from_prefix_pairs(triple, pairs)


def parse_spec(source) -> SpecDocument:
    """Parse a document from JSON text, a file path, or a parsed dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if not text.lstrip().startswith(("{", "[")):
            # anything that is not inline JSON is taken as a path
            if not os.path.exists(text):
                raise ParseError(f"no such file: {text}")
            try:
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as e:  # a directory, or a file we may not read
                raise ParseError(f"cannot read {text}: {e.strerror}") from None
            except UnicodeDecodeError:
                raise ParseError(f"{text} is not UTF-8 text") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(
                f"line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        except ValueError as e:  # an integer literal longer than int() converts
            raise ParseError(f"not valid JSON: {e}") from None
        except RecursionError:
            raise ParseError("the document nests too deeply") from None
    data = _object(data, "document", {"field", "gamma", "lambda", "ell", "elements"})
    if "gamma" not in data or "lambda" not in data:
        raise ParseError("a document needs gamma and lambda")
    field = _parse_field(data.get("field"))
    module = _parse_gamma(data["gamma"], field)
    slopes = _parse_lambda(data["lambda"], field)
    ell = None
    if "ell" in data and data["ell"] is not None:
        ell = parse_value(data["ell"], field, "ell")
    triple = SteinTriple(module, slopes, ell)
    raw_elements = _object(data.get("elements", {}), "elements")
    # names are checked before sorting: a dict source may mix key types
    if not all(isinstance(name, str) and name for name in raw_elements):
        raise ParseError("element names must be nonempty strings")
    elements = {
        name: _parse_element(name, raw_elements[name], triple) for name in sorted(raw_elements)
    }
    return SpecDocument(triple, elements)


# ---------------------------------------------------------------------------
# serialization


def value_to_json(v: FieldElement):
    """Inverse of parse_value: "p/q" in degree one, else a coordinate list."""
    if v.field.degree == 1:
        return str(v.as_fraction())
    return [str(c) for c in v.coords]


def plmap_to_json(f: PLMap) -> dict:
    """Inverse of the "pieces" form: each piece as [start, slope, offset]."""
    return {"pieces": [[value_to_json(v) for v in piece] for piece in f.pieces]}


def triple_to_json(triple: SteinTriple, elements: Optional[dict] = None) -> dict:
    """Document dict for a triple; parse_spec of the result rebuilds it."""
    field = triple.field
    out = {}
    if field.degree > 1:
        lo, hi = field.initial_interval()
        out["field"] = {
            "minpoly": list(field.minpoly.coefficients),
            "root_interval": [str(lo), str(hi)],
        }
    out["gamma"] = {
        "basis": [value_to_json(b) for b in triple.module.basis],
        "inverted_primes": list(triple.module.inverted_primes),
    }
    out["lambda"] = {
        "generators": [
            value_to_json(mu) if isinstance(mu, FieldElement) else str(mu)
            for mu in triple.slopes.generator_values()
        ]
    }
    if triple.endpoint is not None:
        out["ell"] = value_to_json(triple.endpoint)
    if elements:
        out["elements"] = {
            name: plmap_to_json(f) for name, f in sorted(elements.items())
        }
    return out


def verdict_to_json(v: Verdict) -> dict:
    return {
        "outcome": v.outcome,
        "witness": v.witness,
        "obstruction": v.obstruction,
        "reason": v.reason,
        "explanation": v.describe(),
    }


def fixed_points_to_json(report: FixedPointReport) -> dict:
    return {
        "fixed_points": [
            {
                "value": value_to_json(fp.point.value),
                "side": fp.point.side,
                "slope": value_to_json(fp.slope),
                "attracting": fp.attracting,
            }
            for fp in report.points
        ],
        "non_cut_values": [value_to_json(v) for v in report.non_cut_values],
    }


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

"""Command line front end.

Commands:
  classify A B            isomorphism verdict for two documents
  classify-groupoid A B   the same comparison ignoring interval endpoints
  coinvariants SPEC       invariant factors of the slope action on the module
  obstruct A B            rank-one obstruction battery (takes no --search-bound)
  element OP SPEC ...     compose | invert | fixed-points | to-pairs | random
  expand BASE VALUE SIDE  digit stream of a cut point (BASE 2..10 or "beta")
  embed-v2 SPEC NAME      image of a dyadic element in the golden-base group

Exit codes: 0 success, 1 Unknown verdict, 2 invalid input, 64 usage error.
Output is deterministic; --json switches to a machine-readable form that
round-trips through the document parser where applicable.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .classify import classify_pair, coinvariants, rank_one_report
from .coding import beta_expand, embed_v2_element, n_adic_expand
from .document import (
    dump_json,
    fixed_points_to_json,
    parse_spec,
    triple_to_json,
    value_to_json,
    verdict_to_json,
)
from .elements import CutPoint, PLMap, random_word, to_prefix_pairs
from .errors import ParseError, SteinError, UsageError
from .modules import DEFAULT_SEARCH_BOUND, SteinTriple, golden_field
from .numbers import rational_field


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_json(p) -> None:
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _add_bound(p) -> None:
    p.add_argument(
        "--search-bound",
        type=int,
        default=DEFAULT_SEARCH_BOUND,
        metavar="N",
        help=f"radius of the module scale search (default {DEFAULT_SEARCH_BOUND})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steinv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("classify", help="isomorphism verdict for two documents")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    _add_bound(p)
    _add_json(p)
    p.set_defaults(handler=_cmd_classify, groupoid=False)

    p = sub.add_parser(
        "classify-groupoid", help="verdict ignoring the interval endpoints"
    )
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    _add_bound(p)
    _add_json(p)
    p.set_defaults(handler=_cmd_classify, groupoid=True)

    p = sub.add_parser("coinvariants", help="invariant factors of the slope action")
    p.add_argument("spec")
    _add_json(p)
    p.set_defaults(handler=_cmd_coinvariants)

    p = sub.add_parser("obstruct", help="rank-one obstruction battery")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    _add_json(p)
    p.set_defaults(handler=_cmd_obstruct)

    p = sub.add_parser("element", help="operate on named elements of a document")
    ops = p.add_subparsers(dest="operation", required=True, metavar="OP")

    q = ops.add_parser("compose", help="compose two named elements (first after second)")
    q.add_argument("spec")
    q.add_argument("name_f")
    q.add_argument("name_g")
    _add_json(q)
    q.set_defaults(handler=_cmd_compose)

    q = ops.add_parser("invert", help="invert a named element")
    q.add_argument("spec")
    q.add_argument("name")
    _add_json(q)
    q.set_defaults(handler=_cmd_invert)

    q = ops.add_parser("fixed-points", help="fixed cut points with slopes")
    q.add_argument("spec")
    q.add_argument("name")
    _add_json(q)
    q.set_defaults(handler=_cmd_fixed_points)

    q = ops.add_parser("to-pairs", help="prefix exchange form of an element")
    q.add_argument("spec")
    q.add_argument("name")
    _add_json(q)
    q.set_defaults(handler=_cmd_to_pairs)

    q = ops.add_parser("random", help="seeded random product of library generators")
    q.add_argument("spec")
    q.add_argument("length", type=int)
    q.add_argument("--seed", type=int, default=0, metavar="N")
    _add_json(q)
    q.set_defaults(handler=_cmd_random)

    p = sub.add_parser("expand", help="digit stream of a cut point")
    p.add_argument("base", help='2..10 or "beta"')
    p.add_argument("value", help='rational "p/q", or coordinates "a,b" for beta')
    p.add_argument("side", choices=["+", "-", "plus", "minus"])
    _add_json(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser(
        "embed-v2", help="image of a dyadic element in the golden-base group"
    )
    p.add_argument("spec")
    p.add_argument("name")
    _add_json(p)
    p.set_defaults(handler=_cmd_embed)

    return parser


# ---------------------------------------------------------------------------
# output helpers


def _emit(args, human: str, obj) -> None:
    if args.json:
        sys.stdout.write(dump_json(obj))
    else:
        print(human)


def _describe_plmap(f: PLMap) -> str:
    starts = [p.start for p in f.pieces] + [f.triple.endpoint]
    lines = [
        f"on [{lo}, {hi}): slope {p.slope}, offset {p.offset}"
        for p, lo, hi in zip(f.pieces, starts, starts[1:])
    ]
    return "\n".join(lines)


def _get_element(doc, name: str) -> PLMap:
    if name not in doc.elements:
        known = ", ".join(sorted(doc.elements)) or "none"
        raise ParseError(f"no element named {name!r} (defined: {known})")
    return doc.elements[name]


def _element_result(args, f: PLMap) -> None:
    _emit(args, _describe_plmap(f), triple_to_json(f.triple, {"result": f}))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_classify(args) -> int:
    a = parse_spec(args.spec_a).triple
    b = parse_spec(args.spec_b).triple
    if args.groupoid:
        a = SteinTriple(a.module, a.slopes, None)
        b = SteinTriple(b.module, b.slopes, None)
    verdict = classify_pair(a, b, args.search_bound)
    _emit(args, verdict.describe(), verdict_to_json(verdict))
    return 1 if verdict.is_unknown else 0


def _cmd_coinvariants(args) -> int:
    doc = parse_spec(args.spec)
    inv = coinvariants(doc.triple.module, doc.triple.slopes)
    obj = {
        "coinvariants": inv.describe(),
        "invariant_factors": list(inv.invariant_factors),
        "free_rank": inv.free_rank,
    }
    _emit(args, inv.describe(), obj)
    return 0


def _cmd_obstruct(args) -> int:
    a = parse_spec(args.spec_a).triple
    b = parse_spec(args.spec_b).triple
    verdict = rank_one_report(a, b)
    _emit(args, verdict.describe(), verdict_to_json(verdict))
    return 1 if verdict.is_unknown else 0


def _cmd_compose(args) -> int:
    doc = parse_spec(args.spec)
    f = _get_element(doc, args.name_f)
    g = _get_element(doc, args.name_g)
    _element_result(args, f.compose(g))
    return 0


def _cmd_invert(args) -> int:
    doc = parse_spec(args.spec)
    _element_result(args, _get_element(doc, args.name).inverse())
    return 0


def _cmd_fixed_points(args) -> int:
    doc = parse_spec(args.spec)
    report = _get_element(doc, args.name).fixed_point_report()
    lines = []
    for fp in report.points:
        if fp.attracting:
            kind = "attracting"
        elif fp.slope == 1:
            kind = "neutral"
        else:
            kind = "repelling"
        lines.append(f"{fp.point} slope {fp.slope} {kind}")
    for v in report.non_cut_values:
        lines.append(f"{v} fixed but not a module cut")
    human = "\n".join(lines) if lines else "no fixed points"
    _emit(args, human, fixed_points_to_json(report))
    return 0


def _cmd_to_pairs(args) -> int:
    doc = parse_spec(args.spec)
    pairs = to_prefix_pairs(_get_element(doc, args.name))
    human = "\n".join(f"{u or '(empty)'} -> {v or '(empty)'}" for u, v in pairs)
    _emit(args, human, {"pairs": [[u, v] for u, v in pairs]})
    return 0


def _cmd_random(args) -> int:
    doc = parse_spec(args.spec)
    _element_result(args, random_word(doc.triple, args.length, args.seed))
    return 0


def _parse_side(side: str) -> str:
    return {"plus": "+", "minus": "-"}.get(side, side)


def _cmd_expand(args) -> int:
    side = _parse_side(args.side)
    if args.base == "beta":
        field = golden_field()
        try:
            coords = [Fraction(part) for part in args.value.split(",")]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{args.value!r} is not a value") from None
        value = field.element(coords)
        word = beta_expand(value, side)
        shown = value_to_json(value)
    else:
        try:
            n = int(args.base)
        except ValueError:
            raise UsageError(f'base must be an integer or "beta"') from None
        try:
            value = Fraction(args.value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{args.value!r} is not a rational") from None
        cut = CutPoint(rational_field().from_rational(value), side)
        word = n_adic_expand(cut, n)
        shown = str(value)
    obj = {"base": args.base, "value": shown, "side": side, "word": str(word)}
    _emit(args, str(word), obj)
    return 0


def _cmd_embed(args) -> int:
    doc = parse_spec(args.spec)
    image = embed_v2_element(_get_element(doc, args.name))
    _element_result(args, image)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except SteinError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

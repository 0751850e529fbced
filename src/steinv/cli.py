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

Each command is declared once in `build_parser`, which runs once, at
import, to make `PARSER`; `main` only parses its argv, dispatches, and
prints what the handler returns: (exit code, human text, JSON object).
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
    parse_rational,
    parse_spec,
    triple_to_json,
    value_to_json,
    verdict_to_json,
)
from .elements import CutPoint, PLMap, _intervals, random_word, to_prefix_pairs
from .errors import ParseError, SteinError, UsageError
from .modules import DEFAULT_SEARCH_BOUND, golden_field
from .numbers import rational_field


# ---------------------------------------------------------------------------
# output helpers


def _describe_plmap(f: PLMap) -> str:
    return "\n".join(
        f"on [{lo}, {hi}): slope {p.slope}, offset {p.offset}"
        for p, lo, hi in _intervals(f.pieces, f.triple.endpoint)
    )


def _get_element(doc, name: str) -> PLMap:
    if name not in doc.elements:
        known = ", ".join(sorted(doc.elements)) or "none"
        raise ParseError(f"no element named {name!r} (defined: {known})")
    return doc.elements[name]


# ---------------------------------------------------------------------------
# command handlers


def _cmd_verdict(args) -> tuple:
    """classify, classify-groupoid and obstruct: exit 1 on Unknown."""
    a, b = (parse_spec(spec).triple for spec in (args.spec_a, args.spec_b))
    if args.command == "obstruct":
        verdict = rank_one_report(a, b)
    else:
        if args.command == "classify-groupoid":
            # the triples are this call's own; rebuilding them would check them again
            a.endpoint = b.endpoint = None
        verdict = classify_pair(a, b, args.search_bound)
    return (1 if verdict.is_unknown else 0), verdict.describe(), verdict_to_json(verdict)


def _cmd_coinvariants(args) -> tuple:
    inv = coinvariants(parse_spec(args.spec).triple)
    obj = {
        "coinvariants": inv.describe(),
        "invariant_factors": list(inv.invariant_factors),
        "free_rank": inv.free_rank,
    }
    return 0, inv.describe(), obj


def _cmd_element(args) -> tuple:
    """compose, invert, random and embed-v2: print the element `args.make` builds."""
    f = args.make(parse_spec(args.spec), args)
    return 0, _describe_plmap(f), triple_to_json(f.triple, {"result": f})


def _cmd_fixed_points(args) -> tuple:
    report = _get_element(parse_spec(args.spec), args.name).fixed_point_report()
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
    return 0, "\n".join(lines) or "no fixed points", fixed_points_to_json(report)


def _cmd_to_pairs(args) -> tuple:
    pairs = to_prefix_pairs(_get_element(parse_spec(args.spec), args.name))
    human = "\n".join(f"{u or '(empty)'} -> {v or '(empty)'}" for u, v in pairs)
    return 0, human, {"pairs": [[u, v] for u, v in pairs]}


def _rational_argument(text: str) -> Fraction:
    """A rational in the document grammar; a usage error otherwise."""
    try:
        return parse_rational(text, "value")
    except ParseError:
        raise UsageError(f"{text!r} is not a rational") from None


def _cmd_expand(args) -> tuple:
    side = {"plus": "+", "minus": "-"}.get(args.side, args.side)
    if args.base == "beta":
        coords = [_rational_argument(part) for part in args.value.split(",")]
        value = golden_field().element(coords)
        word = beta_expand(value, side)
        shown = value_to_json(value)
    else:
        try:
            n = int(args.base)
        except ValueError:
            raise UsageError('base must be an integer or "beta"') from None
        value = _rational_argument(args.value)
        word = n_adic_expand(CutPoint(rational_field().from_rational(value), side), n)
        shown = str(value)
    return 0, str(word), {"base": args.base, "value": shown, "side": side, "word": str(word)}


# ---------------------------------------------------------------------------
# the parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    bound = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    bound.add_argument(
        "--search-bound",
        type=int,
        default=DEFAULT_SEARCH_BOUND,
        metavar="N",
        help=f"radius of the module scale search (default {DEFAULT_SEARCH_BOUND})",
    )

    def command(group, name, help, handler, *positionals, parent=json_flag, **defaults):
        p = group.add_parser(name, help=help, parents=[parent])
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(handler=handler, **defaults)
        return p

    parser = _Parser(prog="steinv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    command(sub, "classify", "isomorphism verdict for two documents",
            _cmd_verdict, "spec_a", "spec_b", parent=bound)
    command(sub, "classify-groupoid", "verdict ignoring the interval endpoints",
            _cmd_verdict, "spec_a", "spec_b", parent=bound)
    command(sub, "coinvariants", "invariant factors of the slope action",
            _cmd_coinvariants, "spec")
    command(sub, "obstruct", "rank-one obstruction battery",
            _cmd_verdict, "spec_a", "spec_b")

    ops = sub.add_parser("element", help="operate on named elements of a document")
    ops = ops.add_subparsers(dest="operation", required=True, metavar="OP")
    command(ops, "compose", "compose two named elements (first after second)",
            _cmd_element, "spec", "name_f", "name_g",
            make=lambda doc, a: _get_element(doc, a.name_f).compose(
                _get_element(doc, a.name_g)))
    command(ops, "invert", "invert a named element", _cmd_element, "spec", "name",
            make=lambda doc, a: _get_element(doc, a.name).inverse())
    command(ops, "fixed-points", "fixed cut points with slopes",
            _cmd_fixed_points, "spec", "name")
    command(ops, "to-pairs", "prefix exchange form of an element",
            _cmd_to_pairs, "spec", "name")
    p = command(ops, "random", "seeded random product of library generators",
                _cmd_element, "spec",
                make=lambda doc, a: random_word(doc.triple, a.length, a.seed))
    p.add_argument("length", type=int)
    p.add_argument("--seed", type=int, default=0, metavar="N")

    p = command(sub, "expand", "digit stream of a cut point", _cmd_expand)
    p.add_argument("base", help='2..10 or "beta"')
    p.add_argument("value", help='rational "p/q", or coordinates "a,b" for beta')
    p.add_argument("side", choices=["+", "-", "plus", "minus"])

    command(sub, "embed-v2", "image of a dyadic element in the golden-base group",
            _cmd_element, "spec", "name",
            make=lambda doc, a: embed_v2_element(_get_element(doc, a.name)))
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        code, human, obj = args.handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except SteinError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(dump_json(obj))
    else:
        print(human)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

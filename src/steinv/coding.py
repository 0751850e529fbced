"""Digit codings of interval cut points and the base-2 to golden-base bridge.

Cut points of (Z[1/n], <n>, 1) correspond to eventually periodic base-n
streams.  A cut value of Z[1/n] is an integer a over n^k, for the least
such k: the plus side is the k digits of a followed by 0s, the minus side
the k digits of a - 1 followed by (n-1)s.  The golden-base model uses
streams over {0,1} with no "11" factor; there the minus tail is the
repeating "10" block.  Substituting 1 -> 10 turns binary streams into
admissible golden-base streams, and lifting that substitution through
prefix exchange pairs embeds the base-2 group into the golden-base group.
"""

from __future__ import annotations

import re
from functools import cache

from .elements import (
    MINUS, PLUS, CutPoint, PLMap, _check_cut, _n_depth, _word_of, make_plmap, to_prefix_pairs
)
from .errors import BoundExceeded, ValidationError
from .modules import SteinTriple, golden_field, golden_triple
from .numbers import FieldElement, _ratio, rational_field

_WORD_RE = re.compile(r"^([0-9]*)\(([0-9]+)\)$")
_MAX_GREEDY_STEPS = 100_000


def _check_digits(w: str) -> None:
    if w and not (w.isascii() and w.isdigit()):
        raise ValidationError(f"{w!r} is not a digit string")


class EventuallyPeriodicWord:
    """An infinite digit stream preperiod . period period period ...

    Stored canonically: the period is primitive and the preperiod is as
    short as possible (a trailing letter equal to the last period letter
    folds into a rotation of the period).  Equal streams therefore
    compare equal structurally.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: str, period: str):
        _check_digits(preperiod)
        _check_digits(period)
        if not period:
            raise ValidationError("the period must be nonempty")
        m = len(period)
        for d in range(1, m):
            if m % d == 0 and period == period[:d] * (m // d):
                period = period[:d]
                break
        while preperiod and preperiod[-1] == period[-1]:
            period = period[-1] + period[:-1]
            preperiod = preperiod[:-1]
        self.preperiod = preperiod
        self.period = period

    @classmethod
    def from_string(cls, text: str) -> "EventuallyPeriodicWord":
        """Parse "preperiod(period)"; bare digits mean a tail of 0s."""
        m = _WORD_RE.match(text)
        return cls(m.group(1), m.group(2)) if m else cls(text, "0")

    def letter(self, i: int) -> str:
        k = len(self.preperiod)
        if i < k:
            return self.preperiod[i]
        return self.period[(i - k) % len(self.period)]

    def prefix(self, length: int) -> str:
        return "".join(self.letter(i) for i in range(length))

    def __eq__(self, other):
        if not isinstance(other, EventuallyPeriodicWord):
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __str__(self):
        return f"{self.preperiod}({self.period})"

    def __repr__(self):
        return f"EventuallyPeriodicWord({self})"


def _require_base(n: int) -> None:
    if not isinstance(n, int) or n < 2 or n > 10:
        raise ValidationError(f"base {n} is outside the supported range 2..10")


def n_adic_expand(x: CutPoint, n: int) -> EventuallyPeriodicWord:
    """Digit stream of a cut of (Z[1/n], <n>, 1): plus cuts get the
    expansion ending in 0s, minus cuts the one ending in (n-1)s."""
    _require_base(n)
    t = x.value
    if not t.is_rational:
        raise ValidationError("n-adic coding needs a rational cut point")
    num, den = t.num[0], t.den
    k = _n_depth(den, n)
    if k is None:
        raise ValidationError(f"{t} is not an n-adic rational for base {n}")
    a = num * (n**k // den)
    # _check_cut with endpoint 1, on the integers: no element is built per cut
    if x.side == PLUS:
        if num < 0 or num >= den:
            raise ValidationError(f"plus cut {t} is outside [0, 1)")
        return EventuallyPeriodicWord(_word_of(a, k, n), "0")
    if num <= 0 or num > den:
        raise ValidationError(f"minus cut {t} is outside (0, 1]")
    return EventuallyPeriodicWord(_word_of(a - 1, k, n), str(n - 1))


def n_adic_value(word, n: int) -> CutPoint:
    """Inverse of n_adic_expand: rebuild the cut point from its stream;
    pre(0) is pre/n^k and pre(n-1) is (pre + 1)/n^k, for k = len(pre)."""
    _require_base(n)
    if isinstance(word, str):
        word = EventuallyPeriodicWord.from_string(word)
    digits, top = word.preperiod + word.period, str(n - 1)
    if max(digits) > top:
        c = next(c for c in digits if c > top)
        raise ValidationError(f"digit {c} is outside base {n}")
    if word.period == "0":
        side = PLUS
    elif word.period == str(n - 1):
        side = MINUS
    else:
        raise ValidationError(f"{word} is not the stream of a base-{n} cut")
    a = (int(word.preperiod, n) if word.preperiod else 0) + (side == MINUS)
    value = _ratio(rational_field(), a, n ** len(word.preperiod))
    return CutPoint(value, side)


# ---------------------------------------------------------------------------
# golden-base words


def _check_beta_word(w: str) -> None:
    if any(c not in "01" for c in w):
        raise ValidationError(f"{w!r} is not a binary word")
    if "11" in w:
        raise ValidationError(f"{w!r} contains the forbidden factor 11")


def _horner_beta(w: str) -> FieldElement:
    """sum w_i beta^-i on the integer pair x + y*beta, one step per letter
    from the last: (x + c + y*beta)/beta = (y - x - c) + (x + c)*beta, since
    1/beta = beta - 1.  The word 0^(k-1)1 gives beta^-k."""
    x = y = 0
    for c in reversed(w):
        if c == "1":
            x += 1
        x, y = y - x, x
    return FieldElement(golden_field(), (x, y), 1)


def beta_word_value(word) -> FieldElement:
    """Exact value sum w_i beta^-i of a finite word or periodic stream."""
    if isinstance(word, EventuallyPeriodicWord):
        pre, per = word.preperiod, word.period
        _check_beta_word(pre + per + per)
        # beta^-k * cycle is the value of 0^k cycle, for k = len(pre)
        tail = _horner_beta("0" * len(pre) + per)
        return _horner_beta(pre) + tail / (1 - _horner_beta("0" * (len(per) - 1) + "1"))
    _check_beta_word(word)
    return _horner_beta(word)


def _beta_depth(w: str) -> int:
    # cylinder depth: a trailing 1 forces the next letter to be 0
    if not w:
        return 0
    return len(w) + (1 if w[-1] == "1" else 0)


def beta_cylinder_interval(w: str):
    """Cut-point endpoints [b(w)+, (b(w) + beta^-depth)-] of the cylinder
    of a finite admissible word."""
    if not w:
        raise ValidationError("the cylinder word must be nonempty")
    _check_beta_word(w)
    b = beta_word_value(w)
    upper = b + _horner_beta("0" * (_beta_depth(w) - 1) + "1")
    return CutPoint(b, PLUS), CutPoint(upper, MINUS)


# ---------------------------------------------------------------------------
# the 1 -> 10 substitution


def _tau_forward_str(w: str) -> str:
    if any(c not in "01" for c in w):
        raise ValidationError(f"{w!r} is not a binary word")
    return w.replace("1", "10")


def _tau_inverse_str(w: str) -> str:
    # a word over {0, 10} decodes block by block; "10" occurrences never overlap
    _check_beta_word(w)
    if w.endswith("1"):
        raise ValidationError(f"{w!r} ends in the middle of a 10 block")
    return w.replace("10", "1")


def _tau_inverse_stream(word: EventuallyPeriodicWord) -> EventuallyPeriodicWord:
    pre, per = word.preperiod, word.period
    _check_beta_word(pre + per + per)  # no "11", so per holds a 0
    # cut the period after its first 0: both parts then end in a whole block
    t = per.index("0") + 1
    return EventuallyPeriodicWord(
        _tau_inverse_str(pre + per[:t]), _tau_inverse_str(per[t:] + per[:t])
    )


def substitute_tau(word, direction: str = "forward"):
    """Apply the substitution 0 -> 0, 1 -> 10 (or decode it greedily)."""
    if direction == "forward":
        if isinstance(word, EventuallyPeriodicWord):
            return EventuallyPeriodicWord(
                _tau_forward_str(word.preperiod), _tau_forward_str(word.period)
            )
        return _tau_forward_str(word)
    if direction == "inverse":
        if isinstance(word, EventuallyPeriodicWord):
            return _tau_inverse_stream(word)
        return _tau_inverse_str(word)
    raise ValidationError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# greedy golden-base expansion of field elements


def _greedy_beta(v: FieldElement):
    field = golden_field()
    beta = field.generator()
    digits = []
    seen = {}
    r = v
    for _ in range(_MAX_GREEDY_STEPS):
        key = r.num, r.den
        if key in seen:
            cut = seen[key]
            return "".join(digits[:cut]), "".join(digits[cut:])
        seen[key] = len(digits)
        p = beta * r
        d = 1 if p >= 1 else 0
        digits.append(str(d))
        r = p - d
    raise BoundExceeded("greedy expansion did not cycle")


def beta_expand(value, side: str) -> EventuallyPeriodicWord:
    """Golden-base stream of a cut value: plus side gets the terminating
    expansion, minus side the variant ending in repeating 10."""
    value, side = CutPoint(golden_field().coerce(value), side)  # checks the side
    _check_cut(value, side, 1)
    if side == PLUS:
        return EventuallyPeriodicWord(*_greedy_beta(value))
    if value == 1:  # == decides by value: the golden polynomial is irreducible
        return EventuallyPeriodicWord("", "10")
    word = EventuallyPeriodicWord(*_greedy_beta(value))
    if word.period != "0":
        raise ValidationError(f"{value} has no expansion with a repeating 10 tail")
    head = word.preperiod
    # canonical form folds trailing zeros away, so a nonzero value ends in 1
    return EventuallyPeriodicWord(head[:-1] + "0", "10")


def beta_cut_point(word) -> CutPoint:
    """Cut point named by a golden-base stream; the tail determines the side."""
    if isinstance(word, str):
        word = EventuallyPeriodicWord.from_string(word)
    value = beta_word_value(word)
    if word.period == "0":
        side = PLUS
    elif word.period in ("01", "10"):
        side = MINUS
    else:
        raise ValidationError(f"{word} is not the stream of a golden-base cut")
    return CutPoint(value, side)


# ---------------------------------------------------------------------------
# the base-2 into golden-base embedding


@cache
def _golden_context() -> SteinTriple:
    return golden_triple(1)


def embed_v2_cut(x: CutPoint) -> CutPoint:
    """Image of a dyadic cut point under the substitution embedding."""
    stream = n_adic_expand(x, 2)
    return beta_cut_point(substitute_tau(stream, "forward"))


def embed_v2_element(f: PLMap) -> PLMap:
    """Image of a dyadic element: each prefix exchange pair (u, v) becomes
    the affine identification of the cylinders of tau(u) and tau(v).  The
    pairs come in domain order and tau keeps the order of cylinders, so
    the pieces need no sort."""
    target = _golden_context()
    field = target.field
    beta = field.generator()
    pieces = []
    for u, v in to_prefix_pairs(f):
        tu = _tau_forward_str(u)
        tv = _tau_forward_str(v)
        b_u = beta_word_value(tu)
        b_v = beta_word_value(tv)
        slope = beta ** (_beta_depth(tu) - _beta_depth(tv))
        pieces.append((b_u, slope, b_v - slope * b_u))
    return make_plmap(target, pieces)

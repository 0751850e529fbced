"""The three workloads: seeded inputs, the op schedule, and the checks.

A workload is built once per process (its set-up) and then yields passes.
Every pass runs the same number of ops of each class, drawn afresh from
the seeded inputs, so a run's counts of failures and Unknown verdicts per
pass do not depend on how many passes fit in the run.

Each op is a zero-argument callable that returns OK, UNKNOWN (the program
answered Unknown where the known answer is decided), REFUSED (the command
line rejected a valid document: a failed op, not a wrong answer) or WRONG
(the answer contradicts the known answer).  Exceptions are the runner's
business.

Calls into steinv go through module attributes looked up at call time
(``steinv.embed_v2_element``, ``cli.main``, operators on its classes), so
the tracer's wrappers see them when they are installed after set-up.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction

import oracles

OK, UNKNOWN, REFUSED, WRONG = "ok", "unknown", "refused", "wrong"


def _status(ok: bool) -> str:
    return OK if ok else WRONG


def _pieces(f) -> tuple:
    """Exact structural form of an element: its canonical pieces as
    coordinate tuples.  Equal group elements have equal forms."""
    return tuple((p.start.coords, p.slope.coords, p.offset.coords) for p in f.pieces)


def _is_identity(f) -> bool:
    if len(f.pieces) != 1:
        return False
    piece = f.pieces[0]
    one = (1,) + (0,) * (len(piece.slope.coords) - 1)
    return (
        piece.slope.coords == one
        and not any(piece.start.coords)
        and not any(piece.offset.coords)
    )


def _prefix_code(rng: random.Random, leaves: int) -> list:
    """A random complete binary prefix code with the given number of
    words, none longer than two bits past the balanced depth.  The cap
    keeps the coefficient sizes, and so the cost of ops on the element,
    from swinging with the seed."""
    max_depth = (leaves - 1).bit_length() + 2
    words = [""]
    while len(words) < leaves:
        splittable = [i for i, w in enumerate(words) if len(w) < max_depth]
        w = words.pop(rng.choice(splittable))
        words += [w + "0", w + "1"]
    return words


def _prefix_table(rng: random.Random, pairs: int) -> list:
    domain = _prefix_code(rng, pairs)
    image = _prefix_code(rng, pairs)
    rng.shuffle(image)
    return list(zip(domain, image))


class Workload:
    """Base class: `plan` lists (op class, ops per pass, expensive).

    `make_op` gets the op's index within its class over the whole run, so
    the word workloads cycle through their inputs in a fixed order
    (stratified sampling) and draw only the rest at random: the cost mix
    of a run then swings much less with the seed than free draws would.
    """

    name = ""
    plan: list = []

    def make_op(self, op_class: str, index: int, rng: random.Random):
        raise NotImplementedError

    def pass_ops(self, seed: int, number: int) -> list:
        """The ops of pass `number` as (op class, callable), shuffled."""
        rng = random.Random(seed * 1_000_003 + number)
        ops = [
            (op_class, self.make_op(op_class, number * count + i, rng))
            for op_class, count, _ in self.plan
            for i in range(count)
        ]
        rng.shuffle(ops)
        return ops


def _smoke_plan(plan) -> list:
    return [(op_class, 1, expensive) for op_class, _, expensive in plan]


def _assoc(f, g, h):
    return lambda: _status(_pieces((f * g) * h) == _pieces(f * (g * h)))


def _inverse(f):
    return lambda: _status(_is_identity(f * f.inverse()))


# ---------------------------------------------------------------------------
# golden-words: irrational arithmetic in (Z[phi], <phi>, 1)


class GoldenWords(Workload):
    name = "golden-words"
    plan = [
        ("small-assoc", 12, False),
        ("small-inverse", 6, False),
        ("small-embed", 6, False),
        # a fifth of the ops, so that op_p90_ms reads the median of this
        # class and not the edge between it and the cheaper ones
        ("large-assoc", 8, True),
        ("large-inverse", 3, True),
        ("large-embed", 3, True),
        ("near-zero-sign", 2, True),
    ]
    small_pairs, large_pairs, pool = 4, 16, 24
    near_zero_range = (150, 600)

    def __init__(self, steinv, seed: int, smoke: bool):
        if smoke:
            self.plan = _smoke_plan(self.plan)
            self.large_pairs, self.pool, self.near_zero_range = 6, 3, (20, 40)
        self.steinv = steinv
        rng = random.Random(seed)
        self.near_zero_offset = rng.random()
        v2 = steinv.thompson_triple(2)
        self.dyadic = {}
        self.golden = {}
        for size, pairs in (("small", self.small_pairs), ("large", self.large_pairs)):
            ds = [
                steinv.from_prefix_pairs(v2, _prefix_table(rng, pairs))
                for _ in range(self.pool)
            ]
            self.dyadic[size] = ds
            self.golden[size] = [steinv.embed_v2_element(f) for f in ds]

    def make_op(self, op_class, index, rng):
        if op_class == "near-zero-sign":
            # a golden-ratio sequence spreads n evenly over the range
            lo, hi = self.near_zero_range
            u = (self.near_zero_offset + index * 0.6180339887) % 1.0
            return self._near_zero(lo + int(u * (hi - lo + 1)))
        size, check = op_class.split("-")
        pool = self.golden[size]
        i = index % self.pool
        if check == "assoc":
            return _assoc(pool[i], rng.choice(pool), rng.choice(pool))
        if check == "inverse":
            return _inverse(pool[i])
        j = rng.randrange(self.pool)
        return lambda: self._embed_hom(size, i, j)

    def _embed_hom(self, size, i, j):
        """embed(f*g) = embed(f)*embed(g) for dyadic f, g."""
        d, g = self.dyadic[size], self.golden[size]
        image = self.steinv.embed_v2_element(d[i] * d[j])
        return _status(_pieces(image) == _pieces(g[i] * g[j]))

    def _near_zero(self, n):
        """Sign of phi*F_n - F_(n+1), about phi^-n, on a fresh field
        handle so that no op inherits another's root refinement."""
        steinv = self.steinv
        a, b = oracles.fibonacci(n), oracles.fibonacci(n + 1)

        def op():
            field = steinv.RealAlgebraicField(
                [-1, -1, 1], (Fraction(3, 2), Fraction(5, 3))
            )
            return _status(field.element([-b, a]).sign() == oracles.near_zero_sign(n))

        return op


# ---------------------------------------------------------------------------
# rational-words: the same element and coding code on the Fraction path


class RationalWords(Workload):
    name = "rational-words"
    plan = [
        # two thirds of the ops, so that op_p50_ms reads inside the cheap
        # classes rather than at their costliest inputs
        ("prefix-roundtrip", 16, False),
        ("nadic-roundtrip", 16, False),
        ("inverse", 6, False),
        ("dyadic-assoc", 6, True),
        ("z6-assoc", 6, True),
    ]
    dyadic_sizes = (4, 8, 12, 16, 24, 32, 40, 48, 56, 64)
    assoc_sizes = (32, 40, 48, 56, 64)
    # enough inputs per seed that a run's cost mix depends little on the seed
    tables_per_size = 6
    base_words, word_length = 12, 25
    long_pieces = tuple(range(60, 121, 6))

    def __init__(self, steinv, seed: int, smoke: bool):
        if smoke:
            self.plan = _smoke_plan(self.plan)
            self.dyadic_sizes, self.assoc_sizes, self.tables_per_size = (4, 8), (8,), 1
            self.base_words, self.word_length, self.long_pieces = 3, 4, (6,)
        self.steinv = steinv
        rng = random.Random(seed)
        self.v2 = steinv.thompson_triple(2)
        self.dyadic = {
            k: [
                steinv.from_prefix_pairs(self.v2, _prefix_table(rng, k))
                for _ in range(self.tables_per_size)
            ]
            for k in self.dyadic_sizes
        }
        z6 = steinv.stein_triple([1], [2, 3], [2, 3], endpoint=1)
        library = steinv.generator_library(z6)
        inverses = [g.inverse() for g in library]
        self.words = []
        for _ in range(self.base_words):
            acc = steinv.PLMap.identity(z6)
            for _ in range(self.word_length):
                k = rng.randrange(len(library))
                acc = acc * (inverses[k] if rng.randrange(2) else library[k])
            self.words.append(acc)
        # long words: products of library words grown to 60..120 pieces
        self.z6 = []
        for target in self.long_pieces:
            acc = rng.choice(self.words)
            while len(acc.pieces) < target:
                acc = acc * rng.choice(self.words)
            self.z6.append(acc)

    def _dyadic(self, sizes, index, rng):
        return rng.choice(self.dyadic[sizes[index % len(sizes)]])

    def make_op(self, op_class, index, rng):
        sizes = self.dyadic_sizes
        if op_class == "prefix-roundtrip":
            f = self._dyadic(sizes, index, rng)
            return lambda: self._prefix_roundtrip(f)
        half = index // 2
        if op_class == "nadic-roundtrip":
            if index % 2:
                return self._nadic_roundtrip(self.z6[half % len(self.z6)], 6)
            return self._nadic_roundtrip(self._dyadic(sizes, half, rng), 2)
        if op_class == "inverse":
            if index % 2:
                return _inverse(self.z6[half % len(self.z6)])
            return _inverse(self._dyadic(sizes, half, rng))
        if op_class == "dyadic-assoc":
            k = self.assoc_sizes[index % len(self.assoc_sizes)]
            return _assoc(*(rng.choice(self.dyadic[k]) for _ in range(3)))
        # one long word against two library words keeps the op near the
        # cost of the dyadic class
        f = self.z6[index % len(self.z6)]
        return _assoc(f, rng.choice(self.words), rng.choice(self.words))

    def _prefix_roundtrip(self, f):
        steinv = self.steinv
        pairs = steinv.to_prefix_pairs(f)
        return _status(_pieces(steinv.from_prefix_pairs(self.v2, pairs)) == _pieces(f))

    def _nadic_roundtrip(self, f, n):
        """Every breakpoint cut of f, both sides, through its base-n
        digit stream and back."""
        steinv = self.steinv
        values = [p.start for p in f.pieces] + [f.triple.endpoint]

        def op():
            for v in values:
                for side in "+-":
                    if (side == "+" and v is values[-1]) or (side == "-" and v is values[0]):
                        continue
                    word = steinv.n_adic_expand(steinv.CutPoint(v, side), n)
                    back = steinv.n_adic_value(str(word), n)
                    if back.value.coords != v.coords or back.side != side:
                        return WRONG
            return OK

        return op


# ---------------------------------------------------------------------------
# classify-docs: JSON documents through the in-process command line


_GOLDEN_FIELD = {"minpoly": [-1, -1, 1], "root_interval": ["3/2", "5/3"]}
_SQRT2_FIELD = {"minpoly": [-1, 2, 1], "root_interval": ["2/5", "1/2"]}
_CUBIC_FIELD = {"minpoly": [-2, 0, 0, 1], "root_interval": ["5/4", "4/3"]}
_FRACTIONAL_SLOPES = [(3, 2), (5, 2), (5, 3), (7, 4), (7, 2)]


def _doc(gamma, generators, ell=None, field=None) -> str:
    data = {"gamma": gamma, "lambda": {"generators": generators}}
    if field is not None:
        data["field"] = field
    if ell is not None:
        data["ell"] = ell
    return json.dumps(data)


def _base_n_doc(n: int, r: int) -> str:
    return _doc({"basis": ["1"], "inverted_primes": oracles.prime_factors(n)}, [str(n)], str(r))


def _quadratic_doc(field, ell) -> str:
    basis = {"basis": [["1", "0"], ["0", "1"]]}
    return _doc(basis, [["0", "1"]], [str(c) for c in ell], field)


def _cubic_doc(third: str) -> str:
    basis = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", third]]
    return _doc({"basis": basis, "inverted_primes": [2]}, ["2"], "1", _CUBIC_FIELD)


class ClassifyDocs(Workload):
    name = "classify-docs"
    plan = [
        ("base-n-classify", 24, False),
        ("base-n-groupoid", 8, False),
        ("base-n-coinvariants", 4, False),
        ("fractional-coinvariants", 5, False),
        ("quadratic-coinvariants", 2, False),
        ("golden-classify", 4, True),
        ("golden-groupoid", 2, False),
        ("sqrt2-same-class", 3, True),
        ("sqrt2-other-class", 3, True),
        ("sqrt2-groupoid", 2, False),
        ("cubic", 3, True),
        ("deadline", 2, True),
    ]

    def __init__(self, steinv, seed: int, smoke: bool):
        if smoke:
            # one op per class, but both deadline documents
            self.plan = _smoke_plan(self.plan)
            self.plan[-1] = ("deadline", 2, True)
        self.cli = importlib.import_module("steinv.cli")

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def _verdict(self, argv, isomorphic: bool):
        code, out = self._run(argv + ["--json"])
        if code not in (0, 1):
            return REFUSED
        outcome = json.loads(out)["outcome"]
        if outcome == "Unknown":
            return UNKNOWN
        return _status(outcome == ("Isomorphic" if isomorphic else "NotIsomorphic"))

    def _coinvariants(self, doc, factors):
        code, out = self._run(["coinvariants", doc, "--json"])
        if code != 0:
            return REFUSED
        data = json.loads(out)
        return _status(data["invariant_factors"] == factors and data["free_rank"] == 0)

    def make_op(self, op_class, index, rng):
        if op_class.startswith("base-n"):
            n, r = rng.randint(2, 5), rng.randint(1, 6)
            if op_class == "base-n-coinvariants":
                doc = _base_n_doc(n, r)
                return lambda: self._coinvariants(doc, oracles.base_n_coinvariants(n))
            if op_class == "base-n-classify":
                # half the pairs share the base, so both answers occur
                m = n if rng.randrange(2) else rng.randint(2, 5)
                s = rng.randint(1, 6)
                iso = oracles.base_n_isomorphic(n, r, m, s)
                argv = ["classify", _base_n_doc(n, r), _base_n_doc(m, s)]
            else:
                m, s = rng.randint(2, 5), rng.randint(1, 6)
                iso = n == m
                argv = ["classify-groupoid", _base_n_doc(n, r), _base_n_doc(m, s)]
            return lambda: self._verdict(argv, iso)
        if op_class == "fractional-coinvariants":
            p, q = _FRACTIONAL_SLOPES[index % len(_FRACTIONAL_SLOPES)]
            gamma = {"basis": ["1"], "inverted_primes": oracles.prime_factors(p * q)}
            doc = _doc(gamma, [f"{p}/{q}"], str(rng.randint(1, 6)))
            factors = oracles.fractional_slope_coinvariants(p, q)
            return lambda: self._coinvariants(doc, factors)
        if op_class == "quadratic-coinvariants":
            field, factors = (_GOLDEN_FIELD, []) if index % 2 == 0 else (_SQRT2_FIELD, [2])
            doc = _quadratic_doc(field, _endpoint(rng))
            return lambda: self._coinvariants(doc, factors)
        if op_class.startswith("golden"):
            a, b = _endpoint(rng), _endpoint(rng)
            command = "classify" if op_class == "golden-classify" else "classify-groupoid"
            argv = [command, _quadratic_doc(_GOLDEN_FIELD, a), _quadratic_doc(_GOLDEN_FIELD, b)]
            # trivial coinvariants: every endpoint gives the same group
            return lambda: self._verdict(argv, True)
        if op_class.startswith("sqrt2"):
            a = _endpoint(rng)
            b = _endpoint(rng)
            same = oracles.sqrt2_class(*a) == oracles.sqrt2_class(*b)
            if same != (op_class != "sqrt2-other-class"):
                b = (b[0] + 1, b[1])
            command = "classify-groupoid" if op_class == "sqrt2-groupoid" else "classify"
            iso = command == "classify-groupoid" or oracles.sqrt2_isomorphic(a, b)
            argv = [command, _quadratic_doc(_SQRT2_FIELD, a), _quadratic_doc(_SQRT2_FIELD, b)]
            return lambda: self._verdict(argv, iso)
        if op_class == "cubic":
            # a*a^2 = 2 keeps <1, a, a^2> closed under a but a*a = a^2
            # leaves <1, a, 3a^2>: different multiplier rings
            command = rng.choice(["classify", "classify-groupoid"])
            bound = str(1 + index % 3)
            argv = [command, _cubic_doc("1"), _cubic_doc("3"), "--search-bound", bound]
            return lambda: self._verdict(argv, False)
        return self._deadline_doc(index)

    def _deadline_doc(self, index):
        p = oracles.BIG_PRIME
        if index % 2 == 0:
            # Z[1/2] is not closed under 1/p: invalid input, exit code 2
            doc = _doc({"basis": ["1"], "inverted_primes": [2]}, [str(p)], "1")
            return lambda: _status(self._run(["coinvariants", doc, "--json"])[0] == 2)
        doc = _doc({"basis": ["1"], "inverted_primes": [p]}, [str(p)], "1")
        return lambda: self._coinvariants(doc, oracles.base_n_coinvariants(p))


def _endpoint(rng: random.Random) -> tuple:
    """Coordinates (c0, c1) of a positive module point c0 + c1*a, a > 0."""
    c0, c1 = rng.randint(0, 6), rng.randint(0, 6)
    return (c0, c1) if c0 or c1 else (1, 0)


WORKLOADS = {w.name: w for w in (GoldenWords, RationalWords, ClassifyDocs)}

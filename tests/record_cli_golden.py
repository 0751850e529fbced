"""Record the CLI outputs that tests/test_cli_golden.py compares against.

    PYTHONPATH=src python tests/record_cli_golden.py

runs every command below on the documents named in `record` (defined
here; tests/test_cli.py reads some of them) and writes the documents,
the command lines, stdout and the exit code to tests/cli_golden.json.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from steinv.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# "@name" stands for the path of document `name`
COMMANDS = [
    ["classify", "@dyadic", "@dyadic", "--json"],
    ["classify", "@golden", "@golden_ell_b", "--json"],
    ["classify", "@golden", "@golden_ell_b3", "--json"],
    ["classify", "@sqrt2", "@sqrt2_ell_a", "--json"],
    ["classify", "@sqrt2", "@sqrt2_ell_2", "--json"],
    ["classify", "@two_three", "@two_five", "--json"],
    ["classify", "@two_three", "@two_five"],
    ["classify", "@two_three", "@two_nine", "--json"],
    ["classify", "@base5", "@base5_ell2", "--json"],
    ["classify-groupoid", "@base5", "@base5_ell2", "--json"],
    ["classify-groupoid", "@golden", "@golden_ell_b", "--json"],
    ["coinvariants", "@base5", "--json"],
    ["coinvariants", "@golden", "--json"],
    ["coinvariants", "@two_three", "--json"],
    ["obstruct", "@two_three", "@two_nine", "--json"],
    ["obstruct", "@base5", "@base5_ell2", "--json"],
    ["element", "compose", "@dyadic", "x0", "swap", "--json"],
    ["element", "invert", "@dyadic", "x0", "--json"],
    ["element", "invert", "@dyadic", "x0"],
    ["element", "fixed-points", "@dyadic", "x0", "--json"],
    ["element", "to-pairs", "@dyadic", "x0", "--json"],
    ["element", "random", "@dyadic", "6", "--seed", "3", "--json"],
    ["expand", "2", "3/4", "-", "--json"],
    ["expand", "beta", "2,-1", "+", "--json"],
    ["embed-v2", "@dyadic", "x0", "--json"],
    ["embed-v2", "@dyadic", "swap", "--json"],
    ["element", "invert", "@dyadic", "nope", "--json"],
    ["coinvariants", "@not_closed", "--json"],
    # localized modules without slopes have no coinvariants: the endpoints
    # force s at rank two, and the rank-one battery finds no obstruction
    ["classify", "@golden_localized_trivial", "@golden_localized_trivial", "--json"],
    ["classify", "@dyadic_trivial", "@triadic_trivial", "--json"],
    # products and inverses of irrational elements, in degrees 2 and 3
    ["element", "random", "@cubic", "5", "--seed", "3", "--json"],
    ["element", "random", "@golden", "6", "--seed", "3", "--json"],
    ["element", "invert", "@golden_pieces", "g", "--json"],
    ["element", "compose", "@golden_pieces", "g", "g", "--json"],
    ["coinvariants", "@cubic", "--json"],
    ["classify", "@cubic", "@cubic_3a2", "--search-bound", "1", "--json"],
    # a two-factor quotient, and endpoint classes read through its torsion rows
    ["coinvariants", "@sqrt2_unit2", "--json"],
    ["classify", "@sqrt2_unit2", "@sqrt2_unit2_ell_1a", "--json"],
    ["classify", "@sqrt2_unit2", "@sqrt2_unit2_ell_a", "--json"],
    ["classify", "@sqrt2_unit2", "@sqrt2_unit2_ell_5", "--json"],
    ["obstruct", "@two_three", "@two_three_ell_3_2", "--json"],
    # endpoint tests: Z + Z*phi in Q(sqrt 5), a module over Z[1/22], and
    # a free quotient (no slopes) on Z + Z*sqrt 2
    ["classify", "@sqrt5_phi", "@sqrt5_phi_ell_phi", "--json"],
    ["classify", "@sqrt2_22", "@sqrt2_22_ell_a", "--json"],
    ["classify", "@sqrt2_free", "@sqrt2_free_ell_2", "--json"],
    ["classify", "@sqrt2_free", "@sqrt2_free_ell_1a", "--json"],
    # rank two, equal slopes: Z + Z*phi and Z[1/2] + Z[1/2]*phi under <phi^3>
    ["classify", "@golden_cube", "@golden_cube_2", "--json"],
]

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

GOLDEN_ELL_B3_DOC = dict(GOLDEN_DOC, ell=["1", "2"])

# a = sqrt(2) - 1; the coinvariants are Z/2 and c0 + c1*a lands on c0 - c1 mod 2
SQRT2_DOC = {
    "field": {"minpoly": [-1, 2, 1], "root_interval": ["2/5", "1/2"]},
    "gamma": {"basis": [["1", "0"], ["0", "1"]]},
    "lambda": {"generators": [["0", "1"]]},
    "ell": "1",
}

SQRT2_ELL_A_DOC = dict(SQRT2_DOC, ell=["0", "1"])

SQRT2_ELL_2_DOC = dict(SQRT2_DOC, ell="2")

# Q(a), a = 2^(1/3): Z[1/2]<1, a, a^2> and Z[1/2]<1, a, 3a^2>, slopes <2>
CUBIC_DOC = {
    "field": {"minpoly": [-2, 0, 0, 1], "root_interval": ["5/4", "4/3"]},
    "gamma": {
        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "inverted_primes": [2],
    },
    "lambda": {"generators": ["2"]},
    "ell": "1",
}

CUBIC_3A2_DOC = dict(
    CUBIC_DOC,
    gamma={
        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "3"]],
        "inverted_primes": [2],
    },
)

# Z + Z*phi with slopes <phi^3 = 1 + 2*phi>: 1 - phi^3 = -2*phi has norm -4,
# so the coinvariants are Z/2 x Z/2, and trivial once 2 is inverted
GOLDEN_CUBE_DOC = dict(GOLDEN_DOC, **{"lambda": {"generators": [["1", "2"]]}})

# Q(a), a = sqrt 2: Z + Z*a with slopes <3 + 2a>, coinvariants Z/2 x Z/2
SQRT2_UNIT2_DOC = {
    "field": {"minpoly": [-2, 0, 1], "root_interval": ["1", "2"]},
    "gamma": {"basis": [["1", "0"], ["0", "1"]]},
    "lambda": {"generators": [["3", "2"]]},
    "ell": "1",
}

# Q(a), a = sqrt 5: Z + Z*phi, phi = (1 + a)/2, slopes <phi^3 = 2 + a>
SQRT5_PHI_DOC = {
    "field": {"minpoly": [-5, 0, 1], "root_interval": ["2", "3"]},
    "gamma": {"basis": [["1", "0"], ["1/2", "1/2"]]},
    "lambda": {"generators": [["2", "1"]]},
    "ell": "1",
}

# Q(a), a = sqrt 2: Z[1/2, 1/11]<1, a>, slopes <11>, coinvariants Z/5 x Z/5
SQRT2_22_DOC = {
    "field": {"minpoly": [-2, 0, 1], "root_interval": ["1", "2"]},
    "gamma": {"basis": [["1", "0"], ["0", "1"]], "inverted_primes": [2, 11]},
    "lambda": {"generators": ["11"]},
    "ell": "1",
}

# Q(a), a = sqrt 2: Z + Z*a with no slopes, so the quotient is Z^2
SQRT2_FREE_DOC = dict(SQRT2_UNIT2_DOC, **{"lambda": {"generators": []}})


def write_documents(directory: Path, documents: dict) -> dict:
    paths = {}
    for name, doc in documents.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run_case(argv, paths):
    """(exit code, stdout) of one in-process CLI run."""
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def record() -> None:
    documents = {
        "dyadic": DYADIC_DOC,
        "base5": BASE5_DOC,
        "base5_ell2": BASE5_ELL2_DOC,
        "two_three": TWO_THREE_DOC,
        "two_nine": TWO_NINE_DOC,
        "two_five": TWO_FIVE_DOC,
        "golden": GOLDEN_DOC,
        "golden_ell_b": GOLDEN_ELL_B_DOC,
        "golden_ell_b3": GOLDEN_ELL_B3_DOC,
        "sqrt2": SQRT2_DOC,
        "sqrt2_ell_a": SQRT2_ELL_A_DOC,
        "sqrt2_ell_2": SQRT2_ELL_2_DOC,
        "cubic": CUBIC_DOC,
        "cubic_3a2": CUBIC_3A2_DOC,
        "sqrt2_unit2": SQRT2_UNIT2_DOC,
        "sqrt2_unit2_ell_1a": dict(SQRT2_UNIT2_DOC, ell=["1", "1"]),
        "sqrt2_unit2_ell_a": dict(SQRT2_UNIT2_DOC, ell=["0", "1"]),
        "sqrt2_unit2_ell_5": dict(SQRT2_UNIT2_DOC, ell="5"),
        "two_three_ell_3_2": dict(TWO_THREE_DOC, ell="3/2"),
        "sqrt5_phi": SQRT5_PHI_DOC,
        "sqrt5_phi_ell_phi": dict(SQRT5_PHI_DOC, ell=["1/2", "1/2"]),
        "sqrt2_22": SQRT2_22_DOC,
        "sqrt2_22_ell_a": dict(SQRT2_22_DOC, ell=["0", "1"]),
        "sqrt2_free": SQRT2_FREE_DOC,
        "sqrt2_free_ell_2": dict(SQRT2_FREE_DOC, ell="2"),
        "sqrt2_free_ell_1a": dict(SQRT2_FREE_DOC, ell=["1", "1"]),
        "golden_cube": GOLDEN_CUBE_DOC,
        "golden_cube_2": dict(
            GOLDEN_CUBE_DOC, gamma={"basis": [["1"], ["0", "1"]], "inverted_primes": [2]}
        ),
        # slope b on [0, 2 - b), then slope 1/b = b - 1
        "golden_pieces": dict(
            GOLDEN_DOC,
            elements={
                "g": {
                    "pieces": [
                        [["0", "0"], ["0", "1"], ["0", "0"]],
                        [["2", "-1"], ["-1", "1"], ["2", "-1"]],
                    ]
                }
            },
        ),
        "not_closed": {
            "gamma": {"basis": ["1"], "inverted_primes": [2]},
            "lambda": {"generators": ["3"]},
            "ell": "1",
        },
        "golden_localized_trivial": dict(
            GOLDEN_DOC,
            gamma={"basis": [["1"], ["0", "1"]], "inverted_primes": [2]},
            **{"lambda": {"generators": []}},
        ),
        "dyadic_trivial": {
            "gamma": {"basis": ["1"], "inverted_primes": [2]},
            "lambda": {"generators": []},
            "ell": "1",
        },
        "triadic_trivial": {
            "gamma": {"basis": ["1"], "inverted_primes": [3]},
            "lambda": {"generators": []},
            "ell": "1",
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_documents(Path(tmp), documents)
        cases = []
        for argv in COMMANDS:
            code, out = run_case(argv, paths)
            cases.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(
        json.dumps({"documents": documents, "cases": cases}, indent=1) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    record()

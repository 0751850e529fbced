"""Count the verdicts of the presentation strategy, without asserting.

Draws derandomized examples (a, b, b2) of `references.presentations()`,
runs classify(a, b), classify(a, b2) and classify(b, a) at one search
bound, and prints, overall and per field degree, the count of each
outcome, of conflicts (a question decided both Isomorphic and
NotIsomorphic) and of mixes (a question decided by one verdict and
Unknown in another).  pytest does not collect this file.

Usage: PYTHONPATH=src:tests python tests/mix_count.py --examples 1000 --bound 4
"""

import argparse
from collections import Counter

from hypothesis import HealthCheck, Phase, given, settings

from references import presentations
from steinv import classify_pair

KEYS = ["examples", "Isomorphic", "NotIsomorphic", "Unknown", "conflicts", "mixes"]


def count(examples, bound):
    """{degree: Counter of KEYS} over the drawn examples; degree 0 is the total."""
    counts = {}

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(presentations())
    def run(triples):
        a, b, b2 = triples
        outcomes = [classify_pair(x, y, bound).outcome for x, y in [(a, b), (a, b2), (b, a)]]
        found = Counter(outcomes)
        found["examples"] = 1
        found["conflicts"] = {"Isomorphic", "NotIsomorphic"} <= set(outcomes)
        found["mixes"] = "Unknown" in outcomes and len(set(outcomes)) > 1
        for degree in (0, a.field.degree):
            counts.setdefault(degree, Counter()).update(found)

    run()
    return counts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--examples", type=int, default=1000)
    p.add_argument("--bound", type=int, default=4)
    args = p.parse_args(argv)
    counts = count(args.examples, args.bound)
    print(f"bound {args.bound}")
    for degree, found in sorted(counts.items()):
        label = "all" if degree == 0 else f"degree {degree}"
        print(f"{label:>9}: " + ", ".join(f"{key} {found[key]}" for key in KEYS))


if __name__ == "__main__":
    main()

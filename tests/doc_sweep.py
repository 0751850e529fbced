"""Run generated documents through every command and time each call.

Draws `--examples` examples of `references.cli_calls()` under a
hypothesis seed: two documents, most often over one field, each run
through classify and classify-groupoid (at --search-bound 1), coinvariants,
obstruct and a three-letter element random, in process through
`steinv.cli.main`.  Prints the exit-code mix per command and the ten
slowest calls with their argv, a deep nesting shown by its depth.
pytest does not collect this file.

Usage: PYTHONPATH=src:tests python tests/doc_sweep.py --examples 300 --seed 0
"""

import argparse
import time
from collections import Counter

from hypothesis import HealthCheck, Phase, given, seed, settings

from references import NEST_DEPTH, NESTED, cli_calls, run_cli


def sweep(examples, seed_value):
    """(Counter of (command, exit code), [(seconds, argv)] of every call)."""
    codes, times = Counter(), []

    @seed(seed_value)
    @settings(max_examples=examples, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(cli_calls())
    def run(calls):
        for argv in calls:
            start = time.perf_counter()
            code, _, _ = run_cli(argv)
            times.append((time.perf_counter() - start, argv))
            codes[argv[0], code] += 1

    run()
    return codes, times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--examples", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    codes, times = sweep(args.examples, args.seed)
    print(f"{len(times)} calls, seed {args.seed}")
    for command in sorted({command for command, _ in codes}):
        mix = [f"exit {code} {n}" for (c, code), n in sorted(codes.items()) if c == command]
        print(f"{command:>17}: " + ", ".join(mix))
    print("slowest calls:")
    for seconds, call in sorted(times, key=lambda t: t[0], reverse=True)[:10]:
        shown = [arg.replace(NESTED, f"<{NEST_DEPTH} nested arrays>") for arg in call]
        print(f"{seconds * 1000:9.1f} ms  {shown}")


if __name__ == "__main__":
    main()

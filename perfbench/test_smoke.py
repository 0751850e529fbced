"""Tests of the benchmark itself; they do not measure anything.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402


def test_smoke_mode_emits_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden-words",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_uses_the_loop_times_taken_near_the_op():
    speed = hostspeed.Sampler()
    # a fast host for the first second, then one twice as slow
    speed.at = [0.0, 0.25, 0.5, 0.75, 1.0, 3.0, 3.25, 3.5, 3.75, 4.0]
    nominal = hostspeed.NOMINAL_S
    speed.seconds = [nominal / 2] * 5 + [nominal] * 5
    assert speed.factor(0.3, 0.4) == 2.0
    assert speed.factor(3.5, 3.6) == 1.0
    # no sample within the window: the two nearest ones count
    assert math.isclose(speed.factor(2.0, 2.0), 4 / 3)
    assert math.isclose(speed.median_factor(), 4 / 3)


def test_near_zero_sign_oracle_matches_integer_comparison():
    # phi*F_n - F_(n+1) > 0  iff  sqrt(5)*F_n > 2*F_(n+1) - F_n  (both sides
    # positive)  iff  5*F_n^2 > (2*F_(n+1) - F_n)^2
    for n in range(1, 80):
        a, b = oracles.fibonacci(n), oracles.fibonacci(n + 1)
        positive = 5 * a * a > (2 * b - a) ** 2
        assert oracles.near_zero_sign(n) == (1 if positive else -1)


def test_closed_forms_on_known_cases():
    assert oracles.fractional_slope_coinvariants(7, 4) == [3]
    assert oracles.fractional_slope_coinvariants(3, 2) == []
    assert oracles.base_n_coinvariants(2) == []
    assert oracles.base_n_isomorphic(4, 1, 4, 2)  # gcd(3, 1) = gcd(3, 2)
    assert not oracles.base_n_isomorphic(4, 1, 4, 3)
    assert oracles.sqrt2_class(1, 0) == oracles.sqrt2_class(0, 1) == 1
    assert oracles.sqrt2_class(1, 1) == 0


def test_big_prime_is_prime():
    # deterministic Miller-Rabin bases for n < 3.3e24
    n = oracles.BIG_PRIME
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            raise AssertionError(f"{n} is composite (witness {a})")

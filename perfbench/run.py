"""steinv benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload golden-words --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
./src.  Each workload runs in fresh interpreters (child.py).  With
--trace 0 the run sets up SETUP_REPEATS times, times whole passes of the
op schedule for --seconds, and reports the end-to-end metrics.  With
--trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics; the span log goes to .perfbench_out/.  Reported times
are calibrated for host speed (hostspeed.py).  The last line
of standard output is the JSON result; the lines before it carry the run
stamp and a per-op-class summary.  --smoke runs every workload at tiny
size in both modes and checks the output against BENCHMARK.json.
See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "steinv"
OUT = ROOT / ".perfbench_out"
LAYERS = ["numbers", "intlinalg", "modules", "elements", "coding", "classify",
          "document", "cli"]
WORKLOAD_NAMES = ["golden-words", "rational-words", "classify-docs"]
SETUP_REPEATS = 5
DEADLINE_S = 2.0
SMOKE_DEADLINE_S = 0.25
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout's git metadata, read without running git;
    None where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def line_counts() -> dict:
    counts = {f"{layer}.lines": _lines(SRC / f"{layer}.py") for layer in LAYERS}
    counts["src.lines"] = sum(_lines(p) for p in SRC.rglob("*.py"))
    return counts


def _lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def spawn(args, deadline_at: float, **extra) -> dict:
    """Run child.py in a fresh interpreter and return its JSON report."""
    argv = [sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--deadline", str(SMOKE_DEADLINE_S if args.smoke else DEADLINE_S)]
    if args.smoke:
        argv.append("--smoke")
    for key, value in extra.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline_at - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a child could start")
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a workload process ran out of time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(ops):
    statuses = [status for _, status, _, _ in ops]
    wrong = statuses.count("wrong")
    failed = len(statuses) - statuses.count("ok") - statuses.count("unknown")
    return len(statuses), failed, wrong, statuses.count("unknown")


def _smoothed(count: int, total: int, passes: int) -> float:
    """Share of ops with one pseudo-count added per pass (add-one
    smoothing): never 0, and the same for any number of whole passes."""
    return (count + passes) / (total + passes)


def class_summary(ops) -> dict:
    by_class = {}
    for op_class, status, raw, calibrated in ops:
        by_class.setdefault(op_class, []).append((status, raw, calibrated))
    out = {}
    for op_class, rows in sorted(by_class.items()):
        raw = sorted(r for _, r, _ in rows)
        calibrated = sorted(c for _, _, c in rows)
        out[op_class] = {
            "n": len(rows),
            "p50_ms": round(statistics.median(calibrated) * 1e3, 3),
            "max_ms": round(calibrated[-1] * 1e3, 3),
            "raw_p50_ms": round(statistics.median(raw) * 1e3, 3),
            "not_ok": sum(status != "ok" for status, _, _ in rows),
        }
    return out


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _quartiles_ms(values) -> list:
    if len(values) < 2:
        return [v * 1e3 for v in values]
    return [q * 1e3 for q in statistics.quantiles(values, n=4)]


def _busy(ops) -> float:
    """Calibrated seconds spent in ops."""
    return sum(calibrated for _, _, _, calibrated in ops)


def end_to_end(args, deadline_at):
    setups = [spawn(args, deadline_at, setup_only=True)
              for _ in range(SETUP_REPEATS - 1)]
    main = spawn(args, deadline_at, seconds=args.seconds,
                 **({"passes": 1} if args.smoke else {}))
    setups.append(main)
    ops = main["ops"]
    attempted, failed, wrong, unknown = _counts(ops)
    passes = len(main["pass_walls"])
    latencies = [calibrated for _, _, _, calibrated in ops]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        # one client in a closed loop: throughput is 1 / mean latency
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (_p90(latencies) * 1e3, "ms"),
        "fail_ratio": (_smoothed(failed, attempted, passes), "ratio"),
        "unknown_ratio": (_smoothed(unknown, attempted, passes), "ratio"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    expensive = sum(op_class in main["expensive"] for op_class, *_ in ops)
    raw = [r for _, _, r, _ in ops]
    info = {"passes": passes, "wall_s": main["wall_s"], "pass_walls": main["pass_walls"],
            "setups_s": [s["setup_s"] for s in setups],
            "raw": {"setups_s": [s["setup_raw_s"] for s in setups],
                    "ops_per_s": attempted / sum(raw),
                    "op_p50_ms": statistics.median(raw) * 1e3,
                    "op_p90_ms": _p90(raw) * 1e3},
            "host_loop_ms": _quartiles_ms(main["host_loop_s"]),
            "expensive_share": expensive / attempted, "classes": class_summary(ops)}
    return metrics, attempted, failed, wrong, info


def per_layer(args, deadline_at, run_stamp):
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    plain = spawn(args, deadline_at, passes=1)
    traced = spawn(args, deadline_at, passes=1, trace_out=trace_path,
                   stamp=json.dumps(run_stamp))
    units = {"self_s": "s", "calls": "count", "errors": "count", "lines": "count",
             "refined_share": "ratio", "found_share": "ratio",
             "pieces_in_mean": "pieces", "pieces_out_mean": "pieces"}
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = _busy(traced["ops"]) / _busy(plain["ops"])
    values.update(line_counts())
    metrics = {
        name: (value, units.get(name.rsplit(".", 1)[1], "ratio"))
        for name, value in values.items()
    }
    ops = plain["ops"] + traced["ops"]
    attempted, failed, wrong, _ = _counts(ops)
    info = {"trace_file": str(trace_path.relative_to(ROOT)),
            "classes": class_summary(traced["ops"])}
    return metrics, attempted, failed, wrong, info


def run_once(args) -> dict:
    deadline_at = time.monotonic() + RUN_BUDGET_S
    run_stamp = stamp(args.seed)
    print(json.dumps({"stamp": run_stamp}))
    if args.trace:
        metrics, attempted, failed, wrong, info = per_layer(args, deadline_at, run_stamp)
    else:
        metrics, attempted, failed, wrong, info = end_to_end(args, deadline_at)
    print(json.dumps({"workload": args.workload, "trace": args.trace, **info}))
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; the output must
    match the schema and name every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                      trace=trace, smoke=True)
            result = run_once(args)
            print(json.dumps(result))
            declared = spec["per_layer" if trace else "end_to_end"]
            problems += [f"{workload}/trace {trace}: {p}"
                         for p in check_result(result, declared)]
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok"}))
    return 1 if problems else 0


def check_result(result: dict, declared) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not an integer")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name}: {m}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no steinv sources under {SRC.parent}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        print(json.dumps(run_once(args)))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

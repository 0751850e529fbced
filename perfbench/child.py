"""One workload in a fresh interpreter: set up, run timed passes, report.

Started by run.py, never by hand.  Prints one JSON object as its last line
of standard output.  The op loop is a closed loop with one client: each op
starts after the previous one returned.  Every op runs under a fixed
deadline enforced with ``signal.setitimer``; an op past it is interrupted
and counts as failed.  Times are reported raw and calibrated for host
speed (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

SETUP_SAMPLES = 5


class Deadline(BaseException):
    """Raised by the interval timer inside an op that ran too long; a
    BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


def run_op(op, deadline: float) -> str:
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            return op()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return "deadline"
    except (Exception, SystemExit):
        return "error"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0,
                   help="run exactly this many passes instead of --seconds")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--stamp", default="{}")
    args = p.parse_args()

    import hostspeed

    speed = hostspeed.Sampler()
    for _ in range(SETUP_SAMPLES):
        speed.sample()

    import steinv
    import workloads

    workload = workloads.WORKLOADS[args.workload](steinv, args.seed, args.smoke)
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    # the interpreter's start, imports and input generation, without the
    # calibration loops
    setup_raw_s = time.monotonic() - args.spawned_at - speed.spent
    setup = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * speed.median_factor()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    ops = []  # [op class, status, start, end]
    pass_walls = []
    speed = hostspeed.Sampler()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op_class, op in workload.pass_ops(args.seed, len(pass_walls)):
            speed.maybe_sample()
            if tracer is not None:
                tracer.begin_op(len(ops))
            t0 = time.perf_counter()
            status = run_op(op, args.deadline)
            ops.append([op_class, status, t0, time.perf_counter()])
        pass_walls.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if args.passes:
            if len(pass_walls) >= args.passes:
                break
        elif elapsed + elapsed / len(pass_walls) / 2 > args.seconds:
            # stop where the run ends closest to --seconds, whole passes only
            break
    wall_s = time.perf_counter() - start
    speed.sample()

    result = {
        **setup,
        "wall_s": wall_s,
        "pass_walls": pass_walls,
        # [op class, status, raw seconds, calibrated seconds]; an op cut
        # off by the deadline took the deadline, whatever the host's speed
        "ops": [[c, status, t1 - t0,
                 args.deadline if status == "deadline" else (t1 - t0) * speed.factor(t0, t1)]
                for c, status, t0, t1 in ops],
        "host_loop_s": speed.seconds,
        "expensive": [c for c, _, e in workload.plan if e],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        header = {"stamp": json.loads(args.stamp), "workload": args.workload}
        tracer.write(args.trace_out, header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

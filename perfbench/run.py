"""voaforms benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (setup_s and op_s, speed-corrected as in speed.py, and
peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics of the
traced operations instead (see layertrace.py).  Every operation's output is
checked; ``failed`` counts the operations whose check found a problem.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from layertrace import Tracer, layer_metrics  # noqa: E402
from speed import SpeedSampler  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("build-a2n3", "invariant-a2n3", "diverge-a1n4",
                  "verify-a1n5")
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
SETUP_REPS = 3          # set-up repetitions, while they stay cheap
SETUP_CHEAP_S = 1.0


class RawTimer:
    """SpeedSampler's interface without the correction (traced runs)."""

    def start(self, t0=None):
        self.t0 = perf_counter() if t0 is None else t0

    def stop(self):
        wall = perf_counter() - self.t0
        return wall, wall


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_ops(op, check, state, seconds, timer, tracer=None):
    """Closed loop until the next operation would overrun ``seconds``.

    Returns (op times from ``timer``, raw wall times, traced per-op
    snapshots, attempted, failed).  With a tracer, operations alternate
    untraced and traced, starting untraced, and the loop always completes
    at least one pair.
    """
    times, walls, traced, problems = [], [], [], []
    attempted = failed = 0
    t0 = perf_counter()
    longest = 0.0
    while True:
        use_trace = tracer is not None and attempted % 2 == 1
        t = perf_counter()
        if use_trace:
            tracer.start_op(attempted + 1)
            with tracer.installed():
                result = op(state)
            dt = wall = perf_counter() - t
            traced.append((dt, (tracer.calls, tracer.self_s,
                                tracer.total_s, tracer.counts)))
        else:
            timer.start()
            result = op(state)
            wall, dt = timer.stop()
            times.append(dt)
            walls.append(wall)
        t_check = perf_counter()
        found = check(state, result)
        del result  # so peak memory does not depend on the number of ops
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
        print(f"op {attempted}{' traced' if use_trace else ''}: "
              f"{dt:.3f} s (wall {wall:.3f} s), "
              f"check {perf_counter() - t_check:.3f} s", file=sys.stderr)
        longest = max(longest, perf_counter() - t)
        done = perf_counter() - t0
        need_pair = tracer is not None and attempted % 2 == 1
        if not need_pair and done + longest > seconds:
            break
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    return times, walls, traced, attempted, failed


def mean_snapshots(snaps):
    """Per-op layer metrics averaged over the traced operations.

    A count that is the same in every traced operation stays an integer.
    """
    per_op = [layer_metrics(snap, ratio) for snap, ratio in snaps]
    out = {}
    for name, (_, unit) in per_op[0].items():
        vals = [m[name][0] for m in per_op]
        same = all(isinstance(v, int) for v in vals) and len(set(vals)) == 1
        out[name] = {"value": vals[0] if same else sum(vals) / len(vals),
                     "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "voaforms", "__init__.py")):
        print(f"error: no voaforms package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["VOAFORMS_THREADS"] = "1"   # one thread: the cli reads this
    timer = RawTimer() if args.trace else SpeedSampler()
    timer.start(T_START)
    import workloads  # imports voaforms
    import_s = timer.stop()[1]

    setup, op, check = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_walls, setup_times = [], []
        while len(setup_times) < SETUP_REPS:
            timer.start()
            state = setup(args.seed, workdir)
            wall, scaled = timer.stop()
            setup_walls.append(wall)
            setup_times.append(scaled)
            if sum(setup_walls) > SETUP_CHEAP_S:
                break
        setup_s = import_s + statistics.median(setup_times)

        tracer = Tracer() if args.trace else None
        times, walls, traced, attempted, failed = run_ops(
            op, check, state, args.seconds, timer, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": setup_s, "op_s": statistics.median(times),
                  "peak_rss_mb": peak_kb / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        base = statistics.median(times)
        metrics = mean_snapshots([(snap, dt / base) for dt, snap in traced])
        stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
        tracer.write_spans(stem + ".csv")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{attempted} operations attempted, {failed} failed, "
          f"median wall time of an operation {statistics.median(walls):.3f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

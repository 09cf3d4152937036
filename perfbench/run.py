#!/usr/bin/env python3
"""Layered benchmark of tvdp: end-to-end metrics per workload, per-layer on request.

Run from the root of a source checkout (tvdp is imported from ``src``):

    python3 perfbench/run.py --workload paper --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload large --seed 0 --seconds 25 --trace 1
    python3 perfbench/run.py --workload verify --smoke

One process runs one workload on one thread. It sets up the workload's
inputs, runs whole rounds of the workload's operations until ``--seconds``
have passed, then checks every result against computations made apart from
tvdp (``checks.py``). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. ``--smoke`` runs one round at a tiny size with every check.
"""

import os

# one thread: the BLAS pool must be sized before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tvdp", "__init__.py")):
        print(f"error: no tvdp sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(_setup_once(args))
        return 0

    setup_s = None if args.trace else _setup_probes(args)

    import tvdp
    import tvdp.cli

    if not os.path.abspath(tvdp.__file__).startswith(SRC + os.sep):
        print(f"error: imported tvdp from {tvdp.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(tvdp)
    origin = time.perf_counter()
    inputs = workloads.build(args.workload, args.seed, args.smoke)
    ops = workloads.round_ops(inputs)
    # paper-mode PI warns whenever its frozen supports miss the fixed point
    warnings.filterwarnings("ignore", message="policy iteration", category=RuntimeWarning)

    start = time.perf_counter()
    rounds = _timed_rounds(ops, workloads.KINDS, args.seconds, once=args.smoke)
    window = (start, time.perf_counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = time.perf_counter()
    attempted, failed, unexpected = _check_rounds(ops, rounds)
    checked = time.perf_counter() - checked
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(path, origin)
        metrics = tracer.metrics(len(rounds), window)
        print(f"traced: {len(tracer.spans)} spans in {path}; round wall "
              f"{statistics.median(r['wall'] for r in rounds):.4f} s", file=sys.stderr)
    else:
        metrics = _end_to_end(rounds, setup_s, peak_rss_mb)
    busy = ", ".join(f"{kind} {statistics.median(r['busy'][kind] for r in rounds):.3f}"
                     for kind in workloads.KINDS)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations; "
          f"median busy s per round: {busy}; checks {checked:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # spelled out rather than workloads.WORKLOADS: importing workloads loads
    # numpy, whose import the set-up probe has to time
    ap.add_argument("--workload", required=True, choices=("paper", "large", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the timed phase; whole rounds run until it passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: record spans and report the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="one round at a tiny size, with every check")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time


def _setup_once(args):
    """Import tvdp and build the workload's inputs in this fresh process."""
    t0 = time.perf_counter()
    import tvdp  # noqa: F401
    import workloads

    workloads.build(args.workload, args.seed, args.smoke)
    return time.perf_counter() - t0


def _setup_probes(args):
    """Median set-up time over fresh processes, each importing tvdp anew."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# timed rounds


class _Raised:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _timed_rounds(ops, kinds, seconds, once):
    """Run whole rounds until ``seconds`` have passed; round 0 keeps its results."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        out = {}
        busy = dict.fromkeys(kinds, 0.0)
        units = dict.fromkeys(kinds, 0.0)
        first = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                res = op.call(out)
            except Exception as exc:  # a failed operation is counted, not fatal
                res = _Raised(exc)
            busy[op.kind] += time.perf_counter() - t0
            out[op.name] = res
            if op.units is not None and not isinstance(res, _Raised):
                units[op.kind] += op.units(res)
        wall = time.perf_counter() - first
        digests = {name: _digest(res) for name, res in out.items()}
        rounds.append({"wall": wall, "busy": busy, "units": units, "digests": digests,
                       "out": out if not rounds else None})
        if once or time.perf_counter() >= deadline:
            return rounds


def _digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    import numpy as np  # not at the top: set-up probes time numpy's import

    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, _Raised):
        h.update(obj.text.encode())
    else:
        h.update(repr(obj).encode())


def _check_rounds(ops, rounds):
    """Check round 0 independently; later rounds must reproduce its results.

    Returns (attempted, failed, unexpected failures).
    """
    out = rounds[0]["out"]
    verdicts = {}
    for op in ops:
        res = out[op.name]
        if isinstance(res, _Raised):
            problems = [f"raised {res.text}"]
        else:
            try:
                problems = op.check(res, out)
            except Exception as exc:  # a check that cannot run fails its operation
                problems = [f"check raised {_Raised(exc).text}"]
        verdicts[op.name] = problems
    failed = unexpected = 0
    for k, rnd in enumerate(rounds):
        for op in ops:
            problems = verdicts[op.name]
            if k and rnd["digests"][op.name] != rounds[0]["digests"][op.name]:
                problems = problems + [f"round {k} differs from round 0"]
            if problems:
                failed += 1
                unexpected += not op.known_fault
                if k == 0 or not verdicts[op.name]:
                    tag = "known fault" if op.known_fault else "FAILED"
                    print(f"{tag}: {op.name}: {'; '.join(problems)}", file=sys.stderr)
    return len(ops) * len(rounds), failed, unexpected


# ---------------------------------------------------------------------------
# end-to-end metrics


def _end_to_end(rounds, setup_s, peak_rss_mb):
    """Medians over rounds of each round's totals and rates."""

    def median(fn):
        return statistics.median(fn(r) for r in rounds)

    def rate(kind):
        return median(lambda r: r["units"][kind] / r["busy"][kind])

    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(lambda r: r["wall"]), "s"),
        "sweep_points_per_s": (rate("sweep"), "1/s"),
        "vi_s": (median(lambda r: r["busy"]["vi"]), "s"),
        "pi_s": (median(lambda r: r["busy"]["pi"]), "s"),
        "finite_s": (median(lambda r: r["busy"]["finite"]), "s"),
        "certify_per_s": (rate("certify"), "1/s"),
        "rollout_steps_per_s": (rate("rollout"), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


if __name__ == "__main__":
    sys.exit(main())

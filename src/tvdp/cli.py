"""Command-line front end.

Subcommands cover the whole toolkit: ``oracle`` (one ball maximization),
``solve-finite`` / ``solve-infinite`` (robust DP), ``sweep`` (value curves
over a radius grid), ``certify`` (prove fuzzed oracle results by the LP
dual bound), and ``simulate`` (Monte Carlo policy rollouts).

Results go to stdout or ``--out``; diagnostics go to stderr (opt in with
``TVDP_LOG=info`` or ``TVDP_LOG=debug``). Exit codes: 0 success, 1 invalid
input or failed certification, 2 non-convergence. Output is deterministic:
identical argv and input files produce identical bytes.
"""

import argparse
import contextlib
import logging
import math
import os
import re
import sys

import numpy as np

from . import __version__
from . import finite, infinite
from .finite import finite_solution_record, initial_worst_value, solve_finite
from .infinite import (
    DEFAULT_TOL,
    PolicyIterationError,
    _evaluate_adversary,
    policy_iteration,
    stationary_solution_record,
    value_iteration,
)
from .model import (
    SWEEP_CSV_HEADER,
    ModelError,
    _sweep_rows,
    dumps_canonical,
    example_model_text,
    example_names,
    format_float,
    load_model,
    parse_model,
    serialize_solution,
    solution_csv,
)
from .oracle import waterfill_maximize
from .verify import RolloutConfig, fuzz_waterfill, monte_carlo_rollout

log = logging.getLogger("tvdp.cli")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2

GRID_SNAP = 1e-12
MAX_GRID_POINTS = 10**6

# flags taking a comma list of numbers, and a value argparse would take for
# an option because it starts with a minus sign
LIST_FLAGS = ("--mu", "--levels")
NEGATIVE_LIST = re.compile(r"-[\d.]")


def main(argv=None):
    """Entry point; returns the process exit code."""
    _setup_logging()
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_lists(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot is reserved for
        # non-convergence here, so remap. --help/--version exit 0.
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.handler(args)
    except PolicyIterationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_oracle(args):
    mu = _parse_float_list(args.mu, "--mu")
    levels = _parse_float_list(args.levels, "--levels")
    res = waterfill_maximize(mu, levels, args.radius)
    doc = {
        "maximizer": [float(x) for x in res.maximizer],
        "value": res.value,
        "effective_radius": res.effective_radius,
        "r_max": res.r_max,
    }
    _emit(dumps_canonical(doc) + "\n", args.out)
    return EXIT_OK


def _cmd_solve_finite(args):
    model = _load_model_arg(args.model)
    if args.horizon is not None:
        model = model.with_horizon(args.horizon)
    if args.radius is not None:
        model = model.with_radius(args.radius)
    if not model.is_finite:
        raise ModelError("model has no horizon; pass --horizon or use solve-infinite")
    plans = solve_finite(model)
    _emit_record(finite_solution_record(model, plans), args.out)
    if model.initial is not None:
        log.info(
            "worst-case value under the ambiguous initial distribution: %s",
            format_float(initial_worst_value(model, plans)),
        )
    return EXIT_OK


def _cmd_solve_infinite(args):
    model = _load_model_arg(args.model)
    if args.radius is not None:
        model = model.with_radius(args.radius)
    if model.is_finite:
        raise ModelError("model has a horizon; use solve-finite")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ModelError(f"--tol must be a positive finite number, got {args.tol}")
    if args.max_iter is not None and args.max_iter < 1:
        raise ModelError(f"--max-iter must be at least 1, got {args.max_iter}")
    # without --max-iter each solver keeps its own default cap
    cap = {} if args.max_iter is None else {"max_iter": args.max_iter}
    if args.method == "vi":
        sol = value_iteration(model, tol=args.tol, **cap)
    else:
        init = _parse_label_list(args.init) if args.init else None
        sol, trace = policy_iteration(model, initial_policy=init, mode=args.pi_mode, **cap)
        log.info(
            "policy iteration: %d improvement iterations, residual %s",
            trace.improvement_iterations,
            format_float(sol.residual),
        )
    _emit_record(stationary_solution_record(model, sol), args.out)
    if not sol.converged:
        why = f" within {sol.iterations} iterations"
        # a repeated last policy is PI's barren improvement: it stopped before its cap
        if args.method == "pi" and trace.steps[-1].policy == trace.steps[-2].policy:
            why = (": policy iteration stopped off the fixed point after "
                   f"{sol.iterations} improvement steps")
        print(f"error: no convergence{why} (residual {format_float(sol.residual)})",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_sweep(args):
    model = _load_model_arg(args.model)
    if args.horizon is not None:
        model = model.with_horizon(args.horizon)
    grid = _parse_grid(args.radius_grid)
    # the model and every radius are checked before a byte is written; then
    # each block's rows are written as it is solved, so memory stays bounded
    blocks = (finite if model.is_finite else infinite)._sweep_blocks(model, grid)
    with _output(args.out) as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for block in blocks:
            fh.write(_sweep_rows(block, model.states))
    return EXIT_OK


def _cmd_certify(args):
    _check_seed(args.seed)
    report = fuzz_waterfill(
        instances=args.instances,
        trials=args.trials,
        seed=args.seed,
        max_size=args.max_size,
    )
    _emit(report.to_json(), args.out)
    if not report.passed:
        print(f"error: {report.failures} certification failures", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _cmd_simulate(args):
    _check_seed(args.seed)
    if args.jobs < 1:
        raise ModelError(f"--jobs must be at least 1, got {args.jobs}")
    model = _load_model_arg(args.model)
    policy = _parse_label_list(args.policy)
    kernels = None
    if args.kernel == "worst":
        if model.is_finite:
            raise ModelError("simulate needs a model without a horizon")
        # the adversary's rows against this policy's own robust values
        idx = model.policy_indices(policy)
        _, kernels = _evaluate_adversary(
            model, idx, np.zeros(model.n_states), model.scalar_radius()
        )
    cfg = RolloutConfig(
        episodes=args.episodes,
        horizon_cap=args.horizon_cap,
        seed=args.seed,
        kernel_choice=args.kernel,
        jobs=args.jobs,
    )
    summary = monte_carlo_rollout(model, policy, cfg, kernels=kernels)
    doc = {
        "episodes": summary.episodes,
        "horizon_cap": summary.horizon_cap,
        "kernel": summary.kernel_choice,
        "means": [float(x) for x in summary.means],
        "policy": list(policy),
        "seed": summary.seed,
        "states": list(model.states),
        "std_errors": [float(x) for x in summary.std_errors],
    }
    _emit(dumps_canonical(doc) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tvdp",
        description="Robust discounted MDP solvers under total-variation ambiguity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser(
        "oracle",
        help="maximize <levels, nu> over the TV ball around mu",
        description="One closed-form ball maximization; prints JSON with the "
        "maximizer, value, effective radius, and the saturation radius. Levels "
        "within the fixed relative tie tolerance 1e-9 form one level set.",
    )
    p.add_argument("--mu", required=True, help="nominal distribution, comma-separated")
    p.add_argument("--levels", required=True, help="payoff per outcome, comma-separated")
    p.add_argument("--radius", type=float, required=True, help="TV radius in [0, 2]")
    _add_out(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser(
        "solve-finite",
        help="backward induction over a finite horizon",
        description="Solves the finite-horizon robust control problem. Output "
        "is stage,state,action,value CSV; an --out path ending in .json gets "
        "the full solution document instead.",
    )
    _add_model(p)
    p.add_argument("--radius", type=float, help="override the model's TV radius")
    p.add_argument("--horizon", type=int, help="override the model's horizon")
    _add_out(p)
    p.set_defaults(handler=_cmd_solve_finite)

    p = sub.add_parser(
        "solve-infinite",
        help="stationary solve by value or policy iteration",
        description="Solves the discounted stationary problem. Output is "
        "stage,state,action,value CSV with stage -1; an --out path ending in "
        ".json gets the full solution document instead.",
    )
    _add_model(p)
    p.add_argument("--radius", type=float, help="override the model's TV radius")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="sup-norm accuracy of the returned values (vi)")
    p.add_argument("--max-iter", type=int, help="iteration cap (default: per method)")
    p.add_argument("--method", choices=("vi", "pi"), default="vi",
                   help="value iteration or policy iteration")
    p.add_argument("--pi-mode", choices=("paper", "fixed_point"), default="fixed_point",
                   help="policy evaluation scheme for --method pi")
    p.add_argument("--init", help="initial policy for pi: comma-separated action labels")
    _add_out(p)
    p.set_defaults(handler=_cmd_solve_infinite)

    p = sub.add_parser(
        "sweep",
        help="value curves over a radius grid",
        description="Re-solves the model at each radius of an inclusive grid "
        "start:stop:step and emits radius,state,value,action CSV.",
    )
    _add_model(p)
    p.add_argument("--radius-grid", required=True, metavar="A:B:S",
                   help="grid start:stop:step, endpoints included within 1e-12")
    p.add_argument("--horizon", type=int, help="override the model's horizon")
    _add_out(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "certify",
        help="prove fuzzed ball maximizers by the LP dual bound",
        description="Generates random instances, solves each, and proves the "
        "result optimal by the exact LP dual bound of the ball maximum, "
        "also checking it against --trials random feasible points, within "
        "1e-9 * max(1, max |levels|). "
        "Prints a JSON report; exits 1 if any instance fails.",
    )
    p.add_argument("--instances", type=int, default=10000, help="fuzzed instances")
    p.add_argument("--trials", type=int, default=1000, help="random probes per instance")
    p.add_argument("--max-size", type=int, default=8, help="largest alphabet size")
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    _add_out(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser(
        "simulate",
        help="Monte Carlo rollout of a stationary policy",
        description="Estimates the discounted cost of a fixed policy from "
        "every start state by simulation; prints JSON with means and "
        "standard errors. --kernel worst solves for the policy's robust "
        "values first and rolls out under the kernel that maximizes them.",
    )
    _add_model(p)
    p.add_argument("--policy", required=True,
                   help="comma-separated action labels, one per state")
    p.add_argument("--episodes", type=int, default=100000,
                   help="episodes per start state")
    p.add_argument("--kernel", choices=("nominal", "worst"), default="nominal",
                   help="transition law driving the simulation")
    p.add_argument("--horizon-cap", type=int,
                   help="truncation length (default: from the discounted tail bound)")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--jobs", type=int, default=1, help="worker threads for chunks")
    _add_out(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def _add_model(p):
    p.add_argument(
        "--model",
        required=True,
        help="model JSON path, or a bundled name: " + ", ".join(example_names()),
    )


def _add_out(p):
    p.add_argument("--out", help="write results to this path instead of stdout")


# ---------------------------------------------------------------------------
# plumbing


def _setup_logging():
    wanted = os.environ.get("TVDP_LOG", "").strip().lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(wanted)
    if level is None:
        return
    logger = logging.getLogger("tvdp")
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)


def _load_model_arg(value):
    if not os.path.exists(value):
        stem = value[:-5] if value.endswith(".json") else value
        if stem in example_names():
            return parse_model(example_model_text(stem))
    return load_model(value)


@contextlib.contextmanager
def _output(out):
    """The file ``out`` opened for writing, or stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text, out):
    with _output(out) as fh:
        fh.write(text)


def _emit_record(record, out):
    if out and out.endswith(".json"):
        _emit(serialize_solution(record), out)
    else:
        _emit(solution_csv(record), out)


def _attach_negative_lists(argv):
    """Join ``--mu -1,2`` into ``--mu=-1,2`` so the list is read as a value."""
    out = []
    for tok in argv:
        if out and out[-1] in LIST_FLAGS and NEGATIVE_LIST.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _check_seed(seed):
    if seed < 0:
        raise ModelError(f"--seed must be non-negative, got {seed}")


def _parse_float_list(text, flag):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ModelError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_label_list(text):
    labels = [tok.strip() for tok in text.split(",")]
    if any(not lab for lab in labels):
        raise ModelError(f"empty label in {text!r}")
    return labels


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ModelError(f"radius grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(tok) for tok in parts)
    except ValueError:
        raise ModelError(f"radius grid must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ModelError("radius grid entries must be finite")
    if step <= 0.0:
        raise ModelError("radius grid step must be positive")
    if stop < start - GRID_SNAP:
        raise ModelError("radius grid stop is below start")
    count = int(math.floor((stop - start + GRID_SNAP) / step)) + 1
    if count > MAX_GRID_POINTS:
        raise ModelError(f"radius grid has {count} points; refusing more than {MAX_GRID_POINTS}")
    # the bits of start + k * step, held in 8 bytes a point
    grid = start + np.arange(count) * step
    if abs(grid[-1] - stop) <= GRID_SNAP:
        grid[-1] = stop
    return grid

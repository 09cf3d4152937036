"""Discounted stationary solvers: value iteration and policy iteration.

The robust Bellman operator backed by the water-fill oracle,

    (T v)(x) = min_u [ f(x,u) + max_{nu in B_R(Q(.|x,u))} <c(x,u,.) + a*v, nu> ],

is a sup-norm contraction with modulus ``a`` (the discount), so value
iteration converges geometrically and the fixed point is unique. T is also
monotone and shifts constants by ``a``, so each iterate brackets the fixed
point: with ``d = T V - V`` and ``k = a / (1 - a)``, ``T V + k min d`` and
``T V + k max d`` bound it from below and above (MacQueen's bounds). The
bracket's width is ``k`` times the oscillator seminorm ``max d - min d``,
which shrinks much faster than the sup-norm step. Value iteration stops once
that width is at most ``tol`` and returns the bracket's midpoint, within
``tol / 2`` of the fixed point.

Policy iteration comes in two modes. ``mode="paper"`` follows the paper's
frozen-kernel scheme: evaluate the policy under the nominal kernel, order
states by those values, build the worst kernel per (state, action) by
water-filling against that ordering, solve the resulting linear system,
improve greedily against the frozen kernels, repeat. It requires scalar stage
costs (ordering states by values alone only captures the adversary's
objective when costs do not depend on the next state). ``mode="fixed_point"``
evaluates each policy exactly: it alternates the adversary's maximizing rows
against the current values with a linear solve under those rows until the
rows no longer raise the values, and improves with a full robust backup. Its values are an exact
fixed point of T, for scalar and next-state costs alike.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .finite import _argmin_rows, _backup
from .model import ModelError, SolutionRecord, SweepPoint, _check_one_radius
from .oracle import _waterfill_rows

log = logging.getLogger("tvdp.infinite")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200000
IMPROVE_TOL = 1e-12
EVALUATION_TOL = 1e-12
ADVERSARY_MAX_ROUNDS = 64


class PolicyIterationError(RuntimeError):
    """Policy iteration revisited a policy, or a policy evaluation did not settle."""


@dataclass(frozen=True)
class StationarySolution:
    """Fixed-point values and stationary policy of the robust operator."""

    values: np.ndarray
    policy: tuple
    policy_idx: np.ndarray
    worst_kernel_matrix: np.ndarray
    residual: float
    iterations: int
    converged: bool
    method: str


@dataclass(frozen=True)
class PolicyIterationStep:
    """Snapshot of one policy-iteration round (0 is the initialization).

    ``nominal_values`` are the step's policy values under the nominal kernel
    and ``robust_values`` under the worst rows. In ``paper`` mode the support
    partition and the frozen worst rows follow from the nominal values:
    ``oracle.partition_levels(nominal_values)`` and
    ``build_worst_kernels(model, nominal_values)``.
    """

    iteration: int
    policy: tuple
    nominal_values: np.ndarray
    robust_values: np.ndarray


@dataclass(frozen=True)
class PolicyIterationTrace:
    mode: str
    steps: tuple

    @property
    def improvement_iterations(self):
        """Improvement steps, the final barren one included: ``len(steps) - 1``."""
        return len(self.steps) - 1


def apply_bellman(model, values):
    """One application of the robust Bellman operator at the model's radius.

    Returns ``(new_values, policy)`` where policy holds the greedy action
    labels (argmin ties to the lowest declared index).
    """
    _require_stationary(model)
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (model.n_states,) or not np.all(np.isfinite(v)):
        raise ModelError("values must be a finite vector over the states")
    new_v, idx, _ = _backup(model, v, model.scalar_radius())
    return new_v, model.policy_labels(idx)


def value_iteration(model, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Iterate the robust Bellman operator from zero until MacQueen's bracket is narrow.

    The operator's radius is the model's. With ``d = T V - V`` at an iterate
    ``V``, every state obeys ``T V + k min d <= V* <= T V + k max d`` with
    ``k = a / (1 - a)`` (MacQueen's bounds). The loop stops once the bracket's
    width ``k (max d - min d)``, the oscillator seminorm of ``d`` scaled by
    ``k``, is at most ``tol``, and returns the bracket's midpoint
    ``T V + k (min d + max d) / 2``. Its sup-norm distance to the fixed point
    is then at most ``tol / 2`` and its residual at most ``(1 + a) tol / 2``.
    Hitting ``max_iter`` first returns the midpoint of the last bracket flagged
    ``converged=False``. ``tol`` must be finite and positive and ``max_iter``
    at least 1.
    """
    _require_stationary(model)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    _check_max_iter(max_iter)
    r = model.scalar_radius()
    k = model.discount / (1.0 - model.discount)

    v = np.zeros(model.n_states)
    converged = False
    for iterations in range(1, max_iter + 1):
        new_v, _, _ = _backup(model, v, r)
        d = new_v - v
        v = new_v
        if k * (d.max() - d.min()) <= tol:
            converged = True
            break
    v = v + k * (d.min() + d.max()) / 2.0

    check, idx, rows = _backup(model, v, r)
    residual = float(np.abs(check - v).max())
    log.info(
        "value_iteration: %d iterations, bracket width %.3e, residual %.3e, converged=%s",
        iterations, k * (d.max() - d.min()), residual, converged,
    )
    return StationarySolution(
        values=v,
        policy=model.policy_labels(idx),
        policy_idx=idx,
        worst_kernel_matrix=rows,
        residual=residual,
        iterations=iterations,
        converged=converged,
        method="vi",
    )


def policy_evaluation_nominal(model, policy):
    """Exact policy values under the nominal kernel.

    Solves ``(I - a Q(g)) V = f(g)`` directly (LU with partial pivoting).
    Vector costs enter through their nominal expectation.
    """
    _require_stationary(model)
    idx = model.policy_indices(policy)
    return _solve_linear(model, idx, model.kernels[model.starts + idx])


def build_worst_kernels(model, reference_values):
    """Maximizing kernel row per (state, action) against a state ordering.

    Only the ordering (level partition) of ``reference_values`` matters: each
    nominal row is water-filled toward the high-value states, in the ball of
    the model's radius. All S·A rows go to :func:`oracle._waterfill_rows` in
    one call, which picks its per-row loop or its vectorized pass from their
    size. Returns the ``(M, n)`` array whose row ``model.starts[i] + a`` is
    the maximizing row for action ``a`` at state ``i``, laid out as
    ``model.kernels``.
    """
    _require_stationary(model)
    ref = np.asarray(reference_values, dtype=np.float64)
    if ref.shape != (model.n_states,) or not np.all(np.isfinite(ref)):
        raise ModelError("reference_values must be a finite vector over the states")
    kernels, r = model.kernels, model.scalar_radius()
    return _waterfill_rows(kernels, np.broadcast_to(ref, kernels.shape), r)[0]


def policy_iteration(model, initial_policy=None, mode="fixed_point", max_iter=1000):
    """Robust policy iteration, in the paper's frozen-kernel or the fixed-point mode.

    Parameters
    ----------
    model : RobustMdpModel
        Stationary model; ``paper`` mode needs scalar stage costs.
    initial_policy : sequence of action labels or indices, optional
        Defaults to the lowest-index action everywhere.
    mode : {"fixed_point", "paper"}
        How policies are evaluated and improved; see the module docstring.
        ``fixed_point`` returns an exact fixed point of T and reports the
        greedy actions of its final backup. Both modes pick each state's
        challenger by the action rule of every backup (lowest index within
        ``DEFAULT_TIE_TOL`` relative of the minimum), and switch a state only
        where the challenger beats the incumbent by more than
        ``IMPROVE_TOL * max(1, |value|)``.
    max_iter : int
        Cap on improvement iterations, at least 1; exceeding it returns
        ``converged=False``.

    Returns
    -------
    (StationarySolution, PolicyIterationTrace)
        ``iterations`` counts improvement steps including the final one that
        reproduces the incumbent policy and stops the loop. A stop whose
        Bellman residual exceeds ``1e-8 * max(1, max |values|)`` returns
        ``converged=False`` with the values it stopped at: ``paper`` mode's
        frozen kernels can stop off the fixed point of T.
    """
    _require_stationary(model)
    _check_max_iter(max_iter)
    if mode not in ("paper", "fixed_point"):
        raise ValueError(f"unknown policy iteration mode {mode!r}")
    if mode == "paper" and model.has_vector_cost:
        raise ModelError(
            "policy_iteration(mode='paper') requires scalar stage costs; "
            "use mode='fixed_point' for next-state-dependent costs"
        )
    g = (
        np.zeros(model.n_states, dtype=np.intp)
        if initial_policy is None
        else model.policy_indices(initial_policy)
    )
    r = model.scalar_radius()
    steps, seen = [], set()
    converged = False
    while True:
        if tuple(g) in seen:
            raise PolicyIterationError(
                f"policy {model.policy_labels(g)} revisited at iteration "
                f"{len(steps)} (mode={mode}); the policy evaluation is cycling"
            )
        seen.add(tuple(g))
        nominal = policy_evaluation_nominal(model, g)
        if mode == "paper":
            worst = build_worst_kernels(model, nominal)
            robust = _solve_linear(model, g, worst[model.starts + g])
            q = model.cost_scalar + model.discount * (worst @ robust)
            best, first = _argmin_rows(q, model.starts, model.counts)
            idx = first - model.starts
        else:
            robust, _ = _evaluate_adversary(model, g, nominal, r)
            best, idx, rows = _backup(model, robust, r)
        steps.append(PolicyIterationStep(len(steps), model.policy_labels(g), nominal, robust))
        if len(steps) > max_iter:
            break
        # the incumbent keeps every state its challenger does not clearly beat
        beaten = best < robust - IMPROVE_TOL * np.maximum(1.0, np.abs(robust))
        g_new = np.where(beaten, idx, g)
        converged = np.array_equal(g_new, g)
        if converged:
            # the barren improvement reproduces the incumbent and stops the loop
            steps.append(replace(steps[-1], iteration=len(steps)))
            break
        g = g_new
    iterations = len(steps) - 1

    # fixed-point mode's last backup is T(robust); paper mode's is frozen
    if mode == "paper":
        best = _backup(model, robust, r)[0]
        idx, rows = g, worst[model.starts + g]
    residual = float(np.abs(best - robust).max())
    # a stop off the fixed point (frozen supports that disagree with it) has
    # not converged
    converged = converged and residual <= 1e-8 * max(1.0, float(np.abs(robust).max()))
    log.info(
        "policy_iteration(mode=%s): %d improvement iterations, residual %.3e",
        mode, iterations, residual,
    )
    solution = StationarySolution(
        values=robust,
        policy=model.policy_labels(idx),
        policy_idx=idx,
        worst_kernel_matrix=rows,
        residual=residual,
        iterations=iterations,
        converged=converged,
        method="pi",
    )
    return solution, PolicyIterationTrace(mode=mode, steps=tuple(steps))


def sweep_radius_infinite(model, radii):
    """Stationary values and policies across a grid of radii.

    Each point is an exact fixed point, solved by fixed-point policy
    iteration started from the previous point's policy. The actions are the
    final backup's, lowest index among ties, so they do not depend on the
    grid's order. Each radius is checked as ``model.with_radius`` checks it.
    """
    return [pt for block in _sweep_blocks(model, radii) for pt in block]


def stationary_solution_record(model, sol):
    """Bundle a StationarySolution into a serializable SolutionRecord."""
    return SolutionRecord(
        kind="stationary",
        states=model.states,
        values=(sol.values,),
        policies=(sol.policy,),
        worst_kernels=(sol.worst_kernel_matrix,),
        metadata={
            "discount": model.discount,
            "radius": model.scalar_radius(),
            "iterations": sol.iterations,
            "residual": sol.residual,
            "converged": sol.converged,
            "method": sol.method,
        },
    )


# ---------------------------------------------------------------------------
# internals


def _require_stationary(model):
    if model.is_finite:
        raise ModelError("stationary solvers need a model without a horizon")


def _check_max_iter(max_iter):
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _solve_linear(model, idx, rows):
    """Values of policy ``idx`` whose transitions are ``rows`` (one per state).

    Solves ``(I - a rows) V = f + rows·c``: vector costs enter through their
    expectation under ``rows``, each dot summed as ``rows[i] @ c`` sums it.
    """
    pick = model.starts + idx
    costs = model.cost_scalar[pick]
    if model.cost_vector is not None:
        costs = costs + (rows[:, None, :] @ model.cost_vector[pick][:, :, None])[:, 0, 0]
    return np.linalg.solve(np.eye(rows.shape[0]) - model.discount * rows, costs)


def _sweep_blocks(model, radii):
    """The points of :func:`sweep_radius_infinite`, one single-point list each.

    Checks the model and every radius at once; each point is solved only
    when the returned iterator reaches it.
    """
    _require_stationary(model)
    grid = np.fromiter(map(_check_one_radius, radii), dtype=np.float64)

    def points():
        policy = None
        for r in map(float, grid):
            at_r = model.with_radius(r)
            sol, _ = policy_iteration(at_r, initial_policy=policy, mode="fixed_point")
            policy = sol.policy_idx
            yield [SweepPoint(radius=r, values=sol.values, policy=sol.policy)]

    return points()


def _evaluate_adversary(model, idx, v, radius):
    """Robust values of a fixed policy, and the adversary's rows attaining them.

    Policy iteration for the adversary, from ``v``: solve the policy's linear
    system under the maximizing rows, until those rows raise the values by at
    most ``EVALUATION_TOL * max(1, |v|)``. Repeated rows stop it, and so do
    tied levels whose rows differ only in the last bit. Every solve is the
    value of a feasible adversary, so the values rise monotonically and the
    loop stops; one that does not within ``ADVERSARY_MAX_ROUNDS`` is an error.
    """
    rows = _backup(model, v, radius, policy_idx=idx)[2]
    for _ in range(ADVERSARY_MAX_ROUNDS):
        v = _solve_linear(model, idx, rows)
        raised, _, new_rows = _backup(model, v, radius, policy_idx=idx)
        if (raised - v).max() <= EVALUATION_TOL * max(1.0, float(np.abs(v).max())):
            return v, rows
        rows = new_rows
    raise PolicyIterationError(
        f"adversary evaluation of policy {model.policy_labels(idx)} did not settle "
        f"within {ADVERSARY_MAX_ROUNDS} rounds"
    )

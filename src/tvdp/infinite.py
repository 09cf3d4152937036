"""Discounted stationary solvers: value iteration and policy iteration.

The robust Bellman operator backed by the water-fill oracle,

    (T v)(x) = min_u [ f(x,u) + max_{nu in B_R(Q(.|x,u))} <c(x,u,.) + a*v, nu> ],

is an sup-norm contraction with modulus ``a`` (the discount), so value
iteration converges geometrically and the fixed point is unique.

Policy iteration follows the frozen-kernel scheme: evaluate the policy under
the nominal kernel, order states by those values, build the worst kernel per
(state, action) by water-filling against that ordering, solve the resulting
linear system, improve greedily, repeat. ``mode="paper"`` keeps the ordering
from the nominal evaluation each round; ``mode="fixed_point"`` re-identifies
the ordering from the robust values until the level partition stabilizes,
which makes the returned values an exact fixed point of T. Both modes require
scalar stage costs (ordering states by values alone only captures the
adversary's objective when costs do not depend on the next state).
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .finite import _backup
from .model import ModelError, SolutionRecord, SweepPoint
from .oracle import DEFAULT_TIE_TOL, _waterfill, partition_levels

log = logging.getLogger("tvdp.infinite")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200000
IMPROVE_TOL = 1e-12


class PolicyIterationError(RuntimeError):
    """Policy iteration revisited a policy without converging."""


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
    """Snapshot of one policy-iteration round (0 is the initialization)."""

    iteration: int
    policy: tuple
    nominal_values: np.ndarray
    partition: object
    worst_kernels: tuple
    robust_values: np.ndarray


@dataclass(frozen=True)
class PolicyIterationTrace:
    mode: str
    steps: tuple
    improvement_iterations: int


def apply_bellman(model, values, radius=None):
    """One application of the robust Bellman operator.

    Returns ``(new_values, policy)`` where policy holds the greedy action
    labels (argmin ties to the lowest declared index).
    """
    _require_stationary(model)
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (model.n_states,) or not np.all(np.isfinite(v)):
        raise ModelError("values must be a finite vector over the states")
    r = model.scalar_radius() if radius is None else _check_radius(radius)
    new_v, idx, _ = _backup(model, v, r)
    return new_v, model.policy_labels(idx)


def value_iteration(model, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, radius=None):
    """Iterate the robust Bellman operator from zero until the update is small.

    Stops once the sup-norm step falls below ``tol * (1 - a) / (2 a)``, which
    bounds the fixed-point residual of the returned values by ``tol``. Hitting
    ``max_iter`` first returns the best iterate flagged ``converged=False``.
    """
    _require_stationary(model)
    r = model.scalar_radius() if radius is None else _check_radius(radius)
    alpha = model.discount
    threshold = tol * (1.0 - alpha) / (2.0 * alpha)

    v = np.zeros(model.n_states)
    converged = False
    iterations = 0
    while iterations < max_iter:
        new_v, _, _ = _backup(model, v, r)
        iterations += 1
        delta = float(np.abs(new_v - v).max())
        v = new_v
        if delta <= threshold:
            converged = True
            break

    check, idx, rows = _backup(model, v, r)
    residual = float(np.abs(check - v).max())
    log.info(
        "value_iteration: %d iterations, residual %.3e, converged=%s",
        iterations, residual, converged,
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
    rows, costs = _policy_system(model, idx, [model.kernels[i][a] for i, a in enumerate(idx)])
    return _solve_linear(model.discount, rows, costs)


def build_worst_kernels(model, reference_values, radius=None):
    """Maximizing kernel row per (state, action) against a state ordering.

    Only the ordering (level partition) of ``reference_values`` matters: each
    nominal row is water-filled toward the high-value states. Returns one
    (n_actions, n_states) array per state.
    """
    _require_stationary(model)
    ref = np.asarray(reference_values, dtype=np.float64)
    if ref.shape != (model.n_states,) or not np.all(np.isfinite(ref)):
        raise ModelError("reference_values must be a finite vector over the states")
    r = model.scalar_radius() if radius is None else _check_radius(radius)
    out = []
    for i in range(model.n_states):
        rows = model.kernels[i]
        worst = np.empty_like(rows)
        for a in range(rows.shape[0]):
            worst[a], _, _, _ = _waterfill(rows[a], ref, r, DEFAULT_TIE_TOL)
        out.append(worst)
    return tuple(out)


def policy_iteration(model, initial_policy=None, mode="fixed_point", max_iter=1000):
    """Frozen-kernel policy iteration.

    Parameters
    ----------
    model : RobustMdpModel
        Stationary model with scalar stage costs.
    initial_policy : sequence of action labels or indices, optional
        Defaults to the lowest-index action everywhere.
    mode : {"fixed_point", "paper"}
        How the worst kernels are refreshed during evaluation; see the module
        docstring. ``fixed_point`` returns an exact fixed point of T.
    max_iter : int
        Cap on improvement iterations; exceeding it returns
        ``converged=False``.

    Returns
    -------
    (StationarySolution, PolicyIterationTrace)
        ``iterations`` counts improvement steps including the final one that
        reproduces the incumbent policy and stops the loop.
    """
    _require_stationary(model)
    if model.has_vector_cost:
        raise ModelError(
            "policy_iteration requires scalar stage costs; "
            "use value_iteration for next-state-dependent costs"
        )
    if mode not in ("paper", "fixed_point"):
        raise ValueError(f"unknown policy iteration mode {mode!r}")
    g = (
        np.zeros(model.n_states, dtype=np.intp)
        if initial_policy is None
        else model.policy_indices(initial_policy)
    )

    nominal, part, worst, robust = _pi_evaluate(model, g, mode)
    steps = [
        PolicyIterationStep(0, model.policy_labels(g), nominal, part, worst, robust)
    ]
    seen = {tuple(g)}
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        g_new = _improve(model, g, worst, robust)
        if np.array_equal(g_new, g):
            # the barren improvement reproduces the incumbent and stops the loop
            steps.append(
                PolicyIterationStep(
                    iterations, model.policy_labels(g), nominal, part, worst, robust
                )
            )
            converged = True
            break
        g = g_new
        key = tuple(g)
        if key in seen:
            raise PolicyIterationError(
                f"policy {model.policy_labels(g)} revisited at iteration "
                f"{iterations} (mode={mode}); the frozen-kernel evaluation is cycling"
            )
        seen.add(key)
        nominal, part, worst, robust = _pi_evaluate(model, g, mode)
        steps.append(
            PolicyIterationStep(
                iterations, model.policy_labels(g), nominal, part, worst, robust
            )
        )

    rows = np.array([worst[i][a] for i, a in enumerate(g)])
    check, _, _ = _backup(model, robust, model.scalar_radius())
    residual = float(np.abs(check - robust).max())
    scale = max(1.0, float(np.abs(robust).max()))
    if converged and residual > 1e-8 * scale:
        warnings.warn(
            f"policy iteration (mode={mode}) stopped with Bellman residual "
            f"{residual:.3e}; the frozen supports disagree with the fixed point",
            RuntimeWarning,
            stacklevel=2,
        )
    log.info(
        "policy_iteration(mode=%s): %d improvement iterations, residual %.3e",
        mode, iterations, residual,
    )
    solution = StationarySolution(
        values=robust,
        policy=model.policy_labels(g),
        policy_idx=g,
        worst_kernel_matrix=rows,
        residual=residual,
        iterations=iterations,
        converged=converged,
        method="pi",
    )
    trace = PolicyIterationTrace(
        mode=mode, steps=tuple(steps), improvement_iterations=iterations
    )
    return solution, trace


def sweep_radius_infinite(model, radii):
    """Stationary values and policies across a grid of radii.

    Each point is polished to an exact fixed point (linear solve on the
    frozen worst kernels) so sweep curves are accurate well past the value
    iteration stopping tolerance.
    """
    _require_stationary(model)
    points = []
    for r in radii:
        values, idx, _ = _exact_stationary(model, _check_radius(r))
        points.append(
            SweepPoint(radius=float(r), values=values, policy=model.policy_labels(idx))
        )
    return points


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


def _check_radius(radius):
    r = float(radius)
    if not 0.0 <= r <= 2.0:
        raise ModelError(f"radius {r} outside [0, 2]")
    return r


def _policy_system(model, idx, kernel_rows):
    """Stack policy kernel rows and fold vector costs into stage costs."""
    n = model.n_states
    rows = np.empty((n, n))
    costs = np.empty(n)
    for i, a in enumerate(idx):
        rows[i, :] = kernel_rows[i]
        costs[i] = model.cost_scalar[i][a]
        if model.cost_vector[i] is not None:
            costs[i] += float(rows[i] @ model.cost_vector[i][a])
    return rows, costs


def _solve_linear(alpha, rows, costs):
    n = rows.shape[0]
    return np.linalg.solve(np.eye(n) - alpha * rows, costs)


def _solve_frozen(model, idx, worst):
    """Policy values with the worst kernels held fixed (linear solve)."""
    rows, costs = _policy_system(model, idx, [worst[i][a] for i, a in enumerate(idx)])
    return _solve_linear(model.discount, rows, costs)


def _partition_key(part):
    return (part.sigma_max, part.sigma_levels)


def _pi_evaluate(model, idx, mode):
    """Evaluate a policy: nominal values, state ordering, frozen worst kernels,
    and the robust values under those kernels."""
    nominal = policy_evaluation_nominal(model, idx)
    if mode == "paper":
        part = partition_levels(nominal)
        worst = build_worst_kernels(model, nominal)
        robust = _solve_frozen(model, idx, worst)
        return nominal, part, worst, robust
    robust, part, worst = _stabilize_supports(model, idx, nominal)
    return nominal, part, worst, robust


def _stabilize_supports(model, idx, reference, max_rounds=64):
    """Re-identify the level partition from the robust values until stable."""
    ref = reference
    seen = set()
    worst = None
    values = None
    for _ in range(max_rounds):
        part = partition_levels(ref)
        key = _partition_key(part)
        worst = build_worst_kernels(model, ref)
        values = _solve_frozen(model, idx, worst)
        new_part = partition_levels(values)
        if _partition_key(new_part) == key:
            return values, new_part, worst
        if key in seen:
            break
        seen.add(key)
        ref = values
    # partition cycling: fall back to contraction on the frozen-policy operator
    log.debug("support partition cycling; falling back to contraction iteration")
    values = _contract_policy(model, idx, values)
    worst = build_worst_kernels(model, values)
    values = _solve_frozen(model, idx, worst)
    return values, partition_levels(values), worst


def _contract_policy(model, idx, v, max_iter=100000):
    """Iterate the fixed-policy robust operator to machine accuracy."""
    radius = model.scalar_radius()
    while max_iter > 0:
        max_iter -= 1
        new_v = _backup(model, v, radius, policy_idx=idx)[0]
        delta = float(np.abs(new_v - v).max())
        v = new_v
        if delta <= 1e-13 * max(1.0, float(np.abs(v).max())):
            break
    return v


def _improve(model, g, worst, robust):
    """Greedy improvement against frozen kernels; incumbent wins near-ties."""
    alpha = model.discount
    g_new = g.copy()
    for i in range(model.n_states):
        f = model.cost_scalar[i]
        q = f + alpha * (worst[i] @ robust)
        best_a = int(np.argmin(q))
        if q[best_a] < robust[i] - IMPROVE_TOL and best_a != g[i]:
            g_new[i] = best_a
    return g_new


def _exact_stationary(model, radius):
    """VI to tolerance, then Newton-style polish to an exact fixed point."""
    sol = value_iteration(model, tol=1e-9, radius=radius)
    v, idx, rows = sol.values, sol.policy_idx, sol.worst_kernel_matrix
    best = (sol.residual, v, idx, rows)
    for _ in range(32):
        values = _solve_linear(
            model.discount, rows, _policy_system(model, idx, list(rows))[1]
        )
        check, idx, rows = _backup(model, values, radius)
        residual = float(np.abs(check - values).max())
        if residual < best[0]:
            best = (residual, values, idx, rows)
        if residual <= 1e-12 * max(1.0, float(np.abs(values).max())):
            break
    return best[1], best[2], best[3]

"""Finite-horizon robust backward induction.

The recursion runs in normalized time-to-go form: ``v`` holds the cost still
to be paid from the current stage onward, and one backup is

    v_new(x) = min_u [ f(x,u) + max_{nu in B_R(Q(.|x,u))} <c(x,u,.) + g*v, nu> ]

with ``g`` the discount: the next-state cost vector ``c`` is folded into the
oracle's payoff before maximizing, the scalar part ``f`` added after. Stage j's
backup perturbs kernel Q_{j+1} and therefore uses radius R_{j+1}. A solution
record reports the stage-indexed values ``discount**j * v``; both coincide for
undiscounted models.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .model import ModelError, SolutionRecord, SweepPoint, _check_one_radius
from .oracle import DEFAULT_TIE_TOL, _waterfill_rows, waterfill_maximize

log = logging.getLogger("tvdp.finite")

# kernel entries (grid points times rows times row length) that one block of a
# finite sweep stacks: the grid may hold up to a million points, and this keeps
# the vectorized pass's temporaries at a few MB
_SWEEP_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class StagePlan:
    """One stage of a finite-horizon solution.

    ``values`` are normalized time-to-go costs; :func:`finite_solution_record`
    weights stage j's by ``discount**j``. The terminal plan has no policy and
    no kernels.
    """

    values: np.ndarray
    policy: tuple
    worst_kernels: object


def stage_backup(model, next_values, stage_radius):
    """One robust backup of ``next_values`` with the given kernel radius.

    ``stage_radius`` is checked as a model radius is. Returns a StagePlan
    holding the backed-up, normalized values, the per-state argmin actions
    (ties to the lowest declared index), and the maximizing kernel row per
    state under the chosen action.
    """
    v = np.asarray(next_values, dtype=np.float64)
    if v.shape != (model.n_states,) or not np.all(np.isfinite(v)):
        raise ModelError("next_values must be a finite vector over the states")
    r = _check_one_radius(stage_radius, "stage radius")

    values, policy_idx, worst = _backup(model, v, r)
    return StagePlan(values=values, policy=model.policy_labels(policy_idx), worst_kernels=worst)


def solve_finite(model):
    """Backward induction over the full horizon.

    Returns plans for stages 0..n in ascending order; ``plans[n]`` carries
    the terminal costs with no policy attached.
    """
    if not model.is_finite:
        raise ModelError("solve_finite needs a model with a horizon")
    n_stage = model.horizon
    radii = model.stage_radii()

    v = model.terminal_cost.astype(np.float64).copy()
    plans = [None] * (n_stage + 1)
    plans[n_stage] = StagePlan(values=v, policy=None, worst_kernels=None)
    for j in range(n_stage - 1, -1, -1):
        plan = stage_backup(model, v, radii[j + 1])
        v = plan.values
        plans[j] = plan
    log.debug("solve_finite: horizon %d, stage-0 values %s", n_stage, plans[0].values)
    return plans


def evaluate_policy_finite(model, policy_seq):
    """Worst-case values of a fixed per-stage Markov policy.

    ``policy_seq[j]`` gives the stage-j action per state (labels or indices).
    Returns normalized value vectors for stages 0..n; only the adversary
    optimizes.
    """
    if not model.is_finite:
        raise ModelError("evaluate_policy_finite needs a model with a horizon")
    n_stage = model.horizon
    if len(policy_seq) != n_stage:
        raise ModelError(f"policy_seq needs {n_stage} stages, got {len(policy_seq)}")
    radii = model.stage_radii()

    values = [None] * (n_stage + 1)
    v = model.terminal_cost.astype(np.float64).copy()
    values[n_stage] = v
    for j in range(n_stage - 1, -1, -1):
        idx = model.policy_indices(policy_seq[j])
        v = _backup(model, v, radii[j + 1], policy_idx=idx)[0]
        values[j] = v
    return values


def sweep_radius_finite(model, radii):
    """Stage-0 values and policies across a grid of scalar radii.

    Each radius replaces every stage's radius, as ``model.with_radius(r)``
    does, and is checked as it checks one. The grid is a batch axis: its
    points go through one backward induction per block of
    ``_SWEEP_BLOCK_ENTRIES`` stacked kernel entries (at least one point), each
    stage one batched :func:`_backup`. A point gets the values and policy
    that ``solve_finite`` gives it.
    """
    return [pt for block in _sweep_blocks(model, radii) for pt in block]


def initial_worst_value(model, plans):
    """Worst-case total cost when the initial distribution is ambiguous too.

    Optional post-processing: maximizes ``<plans[0].values, nu>`` over the TV
    ball of the model's radius ``R_0`` around its ``initial`` distribution
    (another radius: ``initial_worst_value(model.with_radius(...), plans)``).
    The model must declare ``"initial"``.
    """
    if model.initial is None:
        raise ModelError("model declares no initial distribution")
    return waterfill_maximize(model.initial, plans[0].values, model.stage_radii()[0]).value


def finite_solution_record(model, plans):
    """Bundle solve_finite output into a serializable SolutionRecord.

    Stage j's values are reported as ``discount**j * plans[j].values``.
    """
    return SolutionRecord(
        kind="finite",
        states=model.states,
        values=tuple(model.discount ** j * p.values for j, p in enumerate(plans)),
        policies=tuple(p.policy for p in plans),
        worst_kernels=tuple(p.worst_kernels for p in plans),
        metadata={
            "discount": model.discount,
            "horizon": model.horizon,
            "radius": list(model.radius) if isinstance(model.radius, tuple) else model.radius,
        },
    )


def _backup(model, v, radius, policy_idx=None):
    """The robust backup at every state: values, argmin actions, worst rows.

    Returns ``(values, idx, rows)``: ``values[i]`` is the minimum over actions
    of ``f + max <c + discount * v, nu>`` over the ball of ``radius``;
    ``idx[i]`` is the lowest action index whose value lies within
    ``DEFAULT_TIE_TOL * max(1, |values[i]|)`` of that minimum, and ``rows[i]``
    the maximizing kernel row under action ``idx[i]``. The tolerance makes
    the reported action independent of rounding noise where actions tie.
    With ``policy_idx`` only that action is considered at each state, which
    evaluates the fixed policy.

    The rows taking part (all M = S·A rows of the model, or the S a fixed
    policy picks) are water-filled in one call to
    :func:`oracle._waterfill_rows`, which picks its per-row loop or its
    vectorized pass from their size.

    Without ``policy_idx``, ``v`` may carry a leading batch axis: a ``(G, S)``
    stack of value vectors with ``radius`` a ``(G,)`` array, one radius per
    vector. The model's rows are then stacked G times, block ``g`` taking
    rows ``g·M`` to ``(g+1)·M`` with its states' starts offset by ``g·M``, and
    filled and minimized in one call each; the results gain the same leading
    axis.
    """
    kernels, f, cv = model.kernels, model.cost_scalar, model.cost_vector
    starts, counts = model.starts, model.counts
    base = model.discount * v
    if policy_idx is not None:
        pick = starts + policy_idx
        kernels, f, cv = kernels[pick], f[pick], cv[pick]
    elif v.ndim == 2:
        g, m = v.shape[0], kernels.shape[0]
        kernels, f, cv = np.tile(kernels, (g, 1)), np.tile(f, g), np.tile(cv, (g, 1))
        starts = (starts + m * np.arange(g)[:, None]).ravel()
        counts = np.tile(counts, g)
        base, radius = np.repeat(base, m, axis=0), np.repeat(radius, m)
    nus, wf_values = _waterfill_rows(kernels, cv + base, radius)
    q = f + wf_values
    if policy_idx is not None:
        return q, np.array(policy_idx, dtype=np.intp), nus
    best, first = _argmin_rows(q, starts, counts)
    idx, rows = first - starts, nus[first]
    if v.ndim == 2:
        best, idx, rows = best.reshape(v.shape), idx.reshape(v.shape), rows.reshape(*v.shape, -1)
    return best, idx, rows


def _sweep_blocks(model, radii):
    """The points of :func:`sweep_radius_finite`, one list per stacked block.

    Checks the model and every radius at once; each block is solved only
    when the returned iterator reaches it.
    """
    if not model.is_finite:
        raise ModelError("sweep_radius_finite needs a model with a horizon")
    grid = np.fromiter(map(_check_one_radius, radii), dtype=np.float64)
    per_block = max(1, _SWEEP_BLOCK_ENTRIES // model.kernels.size)
    starts = range(0, grid.size, per_block)
    return (_solve_block(model, grid[lo:lo + per_block]) for lo in starts)


def _solve_block(model, radius):
    """Backward induction of every radius in ``radius`` at once, as sweep points."""
    v = np.broadcast_to(model.terminal_cost, (radius.size, model.n_states))
    for _ in range(model.horizon):
        v, idx, _ = _backup(model, v, radius)
    return [
        SweepPoint(radius=r, values=v[g], policy=model.policy_labels(idx[g]))
        for g, r in enumerate(radius.tolist())
    ]


def _argmin_rows(q, starts, counts):
    """Per-state minimum of the row values ``q`` and the row that attains it.

    State ``i`` owns ``counts[i]`` rows from ``starts[i]`` on. The row is the
    first of the state's rows whose value lies within ``DEFAULT_TIE_TOL *
    max(1, |minimum|)`` of the minimum: the package's one action rule.
    Returns ``(best, first)`` with ``first`` a row index.
    """
    best = np.minimum.reduceat(q, starts)
    cut = best + DEFAULT_TIE_TOL * np.maximum(1.0, np.abs(best))
    within = q <= np.repeat(cut, counts)
    first = np.minimum.reduceat(np.where(within, np.arange(q.size), q.size), starts)
    return best, first

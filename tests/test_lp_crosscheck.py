"""Robust backward induction with every ball maximization solved as an LP.

An oracle that shares no code with the solver: each worst-case expectation

    max <payoff, nu>  s.t.  nu >= 0, sum(nu) = 1, sum|nu - mu| <= R

is handed to HiGHS through ``scipy.optimize.linprog`` instead of the
water-fill. It checks ``verify.dual_max_value``, the exact bound behind every
independent check, on alphabets of 1 to 64 outcomes. It checks
``solve_finite`` on the machine model at every stage and radius of the
``0:2:0.05`` grid, and it reproduces the convex stretch of the stage-0 curve
that acceptance criterion 5 pins. The same LP Bellman
operator checks that value iteration, policy iteration and every point of a
warm-started radius sweep return its fixed points, including on a model whose
rows put no nominal mass on the argmax set and whose values tie exactly, and
on a model with next-state costs. The stationary cases fill rows on both
sides of ``BATCH_MIN_ENTRIES`` in their full and in their fixed-policy
backups, so the per-row loop and the vectorized pass are each checked.
"""

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from conftest import stationary_machine  # noqa: E402
from tvdp import load_example, parse_model  # noqa: E402
from tvdp.finite import solve_finite  # noqa: E402
from tvdp.infinite import (  # noqa: E402
    policy_iteration,
    sweep_radius_infinite,
    value_iteration,
)
from tvdp.oracle import BATCH_MIN_ENTRIES  # noqa: E402
from tvdp.verify import dual_max_value  # noqa: E402

GRID = [round(0.05 * k, 10) for k in range(41)]


def _lp_ball_max(mu, payoff, radius):
    """Worst-case expectation over the unhalved TV ball, as an LP in (nu, t)."""
    n = len(mu)
    eye = np.eye(n)
    a_ub = np.block([
        [eye, -eye],                               # nu - mu <= t
        [-eye, -eye],                              # mu - nu <= t
        [np.zeros((1, n)), np.ones((1, n))],       # sum(t) <= R
    ])
    b_ub = np.concatenate([mu, -mu, [radius]])
    a_eq = np.concatenate([np.ones(n), np.zeros(n)])[None, :]
    res = optimize.linprog(
        np.concatenate([-payoff, np.zeros(n)]),
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=(0.0, None), method="highs",
    )
    assert res.status == 0, res.message
    return float(payoff @ res.x[:n])


def _lp_bellman(model, v, radius):
    """One robust Bellman backup of ``v`` with every ball maximum an LP."""
    new = np.empty(model.n_states)
    for i in range(model.n_states):
        best = np.inf
        for a in range(len(model.actions[i])):
            row = model.starts[i] + a
            payoff = model.cost_vector[row] + model.discount * v
            worst = _lp_ball_max(model.kernels[row], payoff, radius)
            best = min(best, model.cost_scalar[row] + worst)
        new[i] = best
    return new


def _lp_backward_induction(model):
    """Normalized time-to-go values for stages 0..horizon, ascending."""
    radii = model.stage_radii()
    v = model.terminal_cost.astype(float).copy()
    per_stage = [v]
    for j in range(model.horizon - 1, -1, -1):
        v = _lp_bellman(model, v, radii[j + 1])
        per_stage.append(v)
    per_stage.reverse()
    return np.array(per_stage)


def _sparse_tied_model(seed=28, n=6):
    """Three nonzeros per kernel row, integer costs, and a copied last state.

    Most rows miss the highest-value states, so the adversary lifts a set that
    carries no nominal mass; the copy makes the two highest values tie exactly
    at most radii of the test grid.
    """
    rng = np.random.default_rng(seed)
    states = [f"s{i}" for i in range(n)]
    kernel, cost = {}, {}
    for s in states[:-1]:
        kernel[s], cost[s] = {}, {}
        for a in ("a0", "a1"):
            row = np.zeros(n)
            row[rng.choice(n, size=3, replace=False)] = rng.dirichlet(np.ones(3))
            kernel[s][a] = [float(x) for x in row]
            cost[s][a] = float(rng.integers(0, 6))
    kernel[states[-1]], cost[states[-1]] = kernel[states[-2]], cost[states[-2]]
    return parse_model({
        "states": states,
        "actions": {s: ["a0", "a1"] for s in states},
        "kernel": kernel,
        "cost": cost,
        "discount": 0.9,
        "radius": 0.5,
    })


def _assert_lp_fixed_point(model, values, radius):
    residual = np.abs(_lp_bellman(model, values, radius) - values)
    assert np.all(residual <= 1e-7 * np.maximum(1.0, np.abs(values))), (radius, residual)


@pytest.fixture(scope="module")
def lp_machine_curves():
    """LP values of the machine model: ``[k, j, i]`` is stage j, state i at GRID[k]."""
    machine = load_example("machine")
    return machine, np.array([_lp_backward_induction(machine.with_radius(r)) for r in GRID])


def test_lp_ball_max_closed_form_cases():
    mu = np.array([0.3, 0.7])
    payoff = np.array([0.0, 100.0])
    assert _lp_ball_max(mu, payoff, 0.0) == pytest.approx(70.0, abs=1e-9)
    # half the radius moves from the cheap outcome to the dear one
    assert _lp_ball_max(mu, payoff, 0.4) == pytest.approx(90.0, abs=1e-9)
    # beyond R_max = 0.6 the ball is saturated
    assert _lp_ball_max(mu, payoff, 2.0) == pytest.approx(100.0, abs=1e-9)


def _dual_case(rng, n):
    """Levels and nominal of one size: free, tied, with zero masses, or a massless top."""
    kind = n % 4
    mu = rng.dirichlet(np.ones(n))
    lv = rng.integers(-2, 3, n).astype(float) if kind == 1 else rng.normal(0.0, 10.0, n)
    if kind == 2:
        mu[rng.integers(0, n, size=max(1, n // 3))] = 0.0
    elif kind == 3:
        mu[lv >= lv.max()] = 0.0
    if mu.sum() == 0.0:
        mu[int(np.argmin(lv))] = 1.0
    return mu / mu.sum(), lv


def test_dual_max_value_matches_lp():
    rng = np.random.default_rng(30)
    for n in range(1, 65):
        mu, lv = _dual_case(rng, n)
        for radius in (0.0, 2.0, float(rng.uniform(0.0, 2.0))):
            want = _lp_ball_max(mu, lv, radius)
            got = dual_max_value(mu, lv, radius)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (n, radius, got, want)


def test_lp_backward_induction_matches_solve_finite(lp_machine_curves):
    machine, lp_curves = lp_machine_curves
    solver_curves = np.array([
        [plan.values for plan in solve_finite(machine.with_radius(r))] for r in GRID
    ])
    assert solver_curves.shape == lp_curves.shape == (len(GRID), machine.horizon + 1, 2)
    assert float(np.abs(solver_curves - lp_curves).max()) <= 1e-9


def test_lp_reproduces_stage0_convex_stretch(lp_machine_curves):
    machine, lp_curves = lp_machine_curves
    lo, hi = GRID.index(0.9), GRID.index(1.2)
    running = machine.states.index("running")
    stretch = np.diff(lp_curves[lo:hi + 1, 0, running])
    assert np.abs(stretch - (5.3125 + 0.125 * np.arange(6))).max() <= 1e-9


STATIONARY_CASES = ["threestate", "sparse_tied", "sparse_tied_8", "vector_cost"]


def _stationary_case(name):
    """A stationary model and its radius grid."""
    if name == "threestate":
        return load_example("threestate"), [round(0.1 * k, 10) for k in range(21)]
    if name == "sparse_tied":
        return _sparse_tied_model(), [0.0, 0.3, 0.8, 1.4, 2.0]
    if name == "sparse_tied_8":
        return _sparse_tied_model(seed=22, n=8), [0.0, 0.3, 0.8, 1.4, 2.0]
    return stationary_machine(), [round(0.25 * k, 10) for k in range(9)]


def test_stationary_cases_cover_both_backup_paths():
    # entries water-filled per call: all S·A rows, and the S rows of a policy
    models = [_stationary_case(name)[0] for name in STATIONARY_CASES]
    full = [m.kernels.size for m in models]
    fixed = [m.n_states ** 2 for m in models]
    assert min(full) < BATCH_MIN_ENTRIES <= max(full), full
    assert min(fixed) < BATCH_MIN_ENTRIES <= max(fixed), fixed


@pytest.mark.parametrize("name", STATIONARY_CASES)
def test_stationary_solvers_are_lp_fixed_points(name):
    model, grid = _stationary_case(name)
    points = sweep_radius_infinite(model, grid)
    assert [p.radius for p in points] == grid
    massless_top = tied_top = False
    for r, point in zip(grid, points):
        m = model.with_radius(r)
        vi = value_iteration(m)
        pi, _ = policy_iteration(m, mode="fixed_point")
        _assert_lp_fixed_point(m, vi.values, r)
        _assert_lp_fixed_point(m, pi.values, r)
        _assert_lp_fixed_point(m, point.values, r)
        top = pi.values >= pi.values.max()
        massless_top |= bool((m.kernels[:, top].sum(axis=1) == 0.0).any())
        tied_top |= top.sum() >= 2
    if name.startswith("sparse_tied"):
        assert massless_top and tied_top

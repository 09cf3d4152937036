"""Stationary solvers: frozen example traces, contraction, both PI modes."""

import json

import numpy as np
import pytest

from conftest import random_model
from tvdp import ModelError, example_model_text, parse_model, sweep_csv
from tvdp.infinite import (
    apply_bellman,
    build_worst_kernels,
    policy_evaluation_nominal,
    policy_iteration,
    stationary_solution_record,
    sweep_radius_infinite,
    value_iteration,
)
from tvdp.oracle import DEFAULT_TIE_TOL, tv_distance, waterfill_maximize

# exact fixed point of the frozen-kernel system under (u2, u1, u2)
EXACT = np.array([265 / 39, 290 / 39, 740 / 117])

# nominal evaluation systems, typed independently of the model file
Q_G0 = np.array([[3, 1, 5], [4, 2, 3], [4, 1, 4]]) / 9.0   # rows under (u1, u2, u2)
F_G0 = np.array([2.0, 3.0, 0.0])
Q_G1 = np.array([[1, 2, 6], [4, 2, 3], [4, 1, 4]]) / 9.0   # rows under (u2, u1, u2)
F_G1 = np.array([0.5, 1.0, 0.0])

# single-action model on which the frozen nominal ordering provably differs
# from the robust one, so mode="paper" deviates from the true fixed point
DIVERGENT_DOC = {
    "states": ["a", "b", "c"],
    "actions": {"a": ["go"], "b": ["go"], "c": ["go"]},
    "kernel": {
        "a": {"go": [0.1373142655458089, 0.23003849448875993, 0.6326472399654312]},
        "b": {"go": [0.2610918100316436, 0.345471645517461, 0.39343654445089526]},
        "c": {"go": [0.5020022739519894, 0.3408079910912908, 0.15718973495671978]},
    },
    "cost": {
        "a": {"go": 2.827216741078784},
        "b": {"go": 2.8183030130520703},
        "c": {"go": 0.8538129212128776},
    },
    "discount": 0.7686347795232398,
    "radius": 1.3483457628689206,
}


def _sparse_saturating_model(seed=5, n=8):
    """Three nonzeros per kernel row and integer costs in 0..3.

    Large radii saturate many rows, after which actions tie exactly; with
    this seed the lowest tied index is not the one that rounding noise
    favours.
    """
    rng = np.random.default_rng(seed)
    states = [f"s{i}" for i in range(n)]
    acts = ["a0", "a1", "a2"]
    kernel, cost = {}, {}
    for s in states:
        kernel[s], cost[s] = {}, {}
        for a in acts:
            row = np.zeros(n)
            row[rng.choice(n, size=3, replace=False)] = rng.dirichlet(np.ones(3))
            kernel[s][a] = [float(x) for x in row]
            cost[s][a] = float(rng.integers(0, 4))
    return parse_model({
        "states": states,
        "actions": {s: acts for s in states},
        "kernel": kernel,
        "cost": cost,
        "discount": 0.9,
        "radius": 0.5,
    })


def _solve_nominal(q, f, alpha=0.9):
    return np.linalg.solve(np.eye(len(f)) - alpha * q, f)


def test_policy_evaluation_nominal_example(threestate):
    got = policy_evaluation_nominal(threestate, ("u2", "u1", "u2"))
    assert np.allclose(got, _solve_nominal(Q_G1, F_G1), atol=1e-12)
    # printed report truncates to two decimals
    assert np.allclose(got, (3.46, 4.10, 2.99), atol=0.011)


def test_policy_evaluation_zero_cost_and_small_discount(threestate):
    doc = json.loads(example_model_text("threestate"))
    doc["cost"] = {s: {a: 0.0 for a in acts} for s, acts in doc["actions"].items()}
    zero = parse_model(doc)
    assert np.allclose(policy_evaluation_nominal(zero, ("u1", "u1", "u1")), 0.0)
    doc2 = json.loads(example_model_text("threestate"))
    doc2["discount"] = 1e-12
    tiny = parse_model(doc2)
    got = policy_evaluation_nominal(tiny, ("u1", "u1", "u1"))
    assert np.allclose(got, (2.0, 1.0, 3.0), atol=1e-9)


def test_policy_evaluation_nominal_vector_costs_bitwise():
    # next-state costs enter as f + P[i] @ c_i, each dot summed as that one is
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(20):
        model = random_model(rng, min_states=4, max_states=12, max_actions=3,
                             vector_cost=True)
        if not model.has_vector_cost:
            continue
        n = model.n_states
        idx = rng.integers(0, model.counts)
        rows = model.starts + idx
        P = np.array([model.kernels[r] for r in rows])
        costs = np.empty(n)
        for i, r in enumerate(rows):
            costs[i] = model.cost_scalar[r] + P[i] @ model.cost_vector[r]
        want = np.linalg.solve(np.eye(n) - model.discount * P, costs)
        assert np.array_equal(policy_evaluation_nominal(model, idx), want)
        checked += 1
    assert checked >= 15


def test_apply_bellman_zero_values(threestate):
    values, policy = apply_bellman(threestate, np.zeros(3))
    assert np.allclose(values, (0.5, 1.0, 0.0), atol=1e-15)
    assert policy == ("u2", "u1", "u2")


def test_apply_bellman_constant_values(threestate):
    values, _ = apply_bellman(threestate, np.full(3, 7.0))
    assert np.allclose(values, (0.5 + 6.3, 1.0 + 6.3, 6.3), atol=1e-12)


def test_apply_bellman_at_fixed_point(threestate):
    values, policy = apply_bellman(threestate, EXACT)
    assert np.allclose(values, EXACT, atol=1e-12)
    assert policy == ("u2", "u1", "u2")
    assert np.allclose(values, (6.79, 7.43, 6.32), atol=0.02)


def test_value_iteration_example(threestate):
    sol = value_iteration(threestate)
    assert sol.converged
    assert sol.method == "vi"
    assert sol.policy == ("u2", "u1", "u2")
    assert np.allclose(sol.values, EXACT, atol=2e-9)
    assert sol.residual <= 1e-9
    # the returned worst kernels stay inside the ball of the acted rows
    for i in range(3):
        a = sol.policy_idx[i]
        row = threestate.kernels[threestate.starts[i] + a]
        assert tv_distance(sol.worst_kernel_matrix[i], row) <= 2.0 / 3.0 + 1e-12


def test_value_iteration_accuracy_guarantee():
    rng = np.random.default_rng(31)
    for _ in range(10):
        model = random_model(rng, max_states=4, max_actions=3)
        coarse = value_iteration(model, tol=1e-6)
        fine = value_iteration(model, tol=1e-12)
        assert np.abs(coarse.values - fine.values).max() <= 1e-6 + 1e-11


def test_value_iteration_zero_cost_converges_immediately(threestate):
    doc = json.loads(example_model_text("threestate"))
    doc["cost"] = {s: {a: 0.0 for a in acts} for s, acts in doc["actions"].items()}
    sol = value_iteration(parse_model(doc))
    assert sol.iterations == 1
    assert np.array_equal(sol.values, np.zeros(3))


def test_value_iteration_max_iter_flagged(threestate):
    sol = value_iteration(threestate, max_iter=3)
    assert not sol.converged
    assert sol.iterations == 3
    assert sol.residual > 0.0


def _bracket(model, v):
    """MacQueen's lower and upper bounds on the fixed point from the iterate ``v``."""
    tv, _ = apply_bellman(model, v)
    d = tv - v
    k = model.discount / (1.0 - model.discount)
    return tv + k * d.min(), tv + k * d.max()


@pytest.mark.parametrize("vector_cost", [False, True])
def test_value_iteration_stops_on_the_bracket(vector_cost):
    rng = np.random.default_rng(27 + vector_cost)
    for discount in (0.3, 0.6, 0.9, 0.95, 0.99):
        for _ in range(4):
            model = random_model(
                rng, max_states=5, max_actions=3, vector_cost=vector_cost, discount=discount
            )
            exact, _ = policy_iteration(model)
            for tol in (1e-4, 1e-6, 1e-9):
                sol = value_iteration(model, tol=tol)
                assert sol.converged
                assert np.abs(sol.values - exact.values).max() <= tol / 2
                assert sol.residual <= tol
            # the fixed point lies inside the bracket of every iterate
            scale = 1e-9 * np.maximum(1.0, np.abs(exact.values))
            v = np.zeros(model.n_states)
            for _ in range(30):
                lo, hi = _bracket(model, v)
                assert np.all(lo <= exact.values + scale)
                assert np.all(exact.values <= hi + scale)
                v, _ = apply_bellman(model, v)


def test_value_iteration_example_takes_few_backups(threestate):
    # the sup-norm step needs 222 backups here; the bracket's width needs 19
    assert value_iteration(threestate).iterations <= 25


def test_value_iteration_cap_returns_the_bracket_midpoint(threestate):
    v = np.zeros(3)
    for _ in range(2):
        v, _ = apply_bellman(threestate, v)
    lo, hi = _bracket(threestate, v)
    sol = value_iteration(threestate, max_iter=3)
    assert not sol.converged
    assert np.allclose(sol.values, (lo + hi) / 2.0, rtol=0.0, atol=1e-12)
    # the midpoint is closer to the fixed point than the third iterate
    third, _ = apply_bellman(threestate, v)
    assert np.abs(sol.values - EXACT).max() < np.abs(third - EXACT).max()


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan"), "max_iter": 2000},
    {"tol": float("inf")},
    {"tol": -1.0},
    {"tol": 0.0},
    {"max_iter": 0},
    {"max_iter": -1},
])
def test_value_iteration_rejects_bad_arguments(threestate, kwargs):
    with pytest.raises(ValueError):
        value_iteration(threestate, **kwargs)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_policy_iteration_rejects_bad_max_iter(threestate, max_iter):
    for mode in ("fixed_point", "paper"):
        with pytest.raises(ValueError):
            policy_iteration(threestate, mode=mode, max_iter=max_iter)


def test_value_iteration_requires_stationary(machine):
    with pytest.raises(ModelError):
        value_iteration(machine)


def test_geometric_residual_decay():
    rng = np.random.default_rng(32)
    for _ in range(10):
        model = random_model(rng, max_states=4, max_actions=2)
        alpha = model.discount
        v = np.zeros(model.n_states)
        prev = None
        for _ in range(30):
            new, _ = apply_bellman(model, v)
            delta = float(np.abs(new - v).max())
            if prev is not None and prev > 1e-14:
                assert delta <= alpha * prev + 1e-12
            prev = delta
            v = new


def test_contraction_spot_checks():
    rng = np.random.default_rng(33)
    for _ in range(20):
        model = random_model(rng, max_states=5, max_actions=3)
        v1 = rng.uniform(0.0, 100.0, model.n_states)
        v2 = rng.uniform(0.0, 100.0, model.n_states)
        t1, _ = apply_bellman(model, v1)
        t2, _ = apply_bellman(model, v2)
        lhs = np.abs(t1 - t2).max()
        assert lhs <= model.discount * np.abs(v1 - v2).max() + 1e-12


def test_fixed_point_bounded_by_cost_scale():
    rng = np.random.default_rng(34)
    for _ in range(10):
        model = random_model(rng, max_states=4, max_actions=3, vector_cost=True)
        sol = value_iteration(model)
        bound = model.max_stage_cost() / (1.0 - model.discount)
        assert sol.values.max() <= bound + 1e-9


def test_build_worst_kernels_exact_ninths(threestate):
    ref = policy_evaluation_nominal(threestate, ("u2", "u1", "u2"))
    worst = build_worst_kernels(threestate, ref)
    q1 = np.array([[3, 4, 2], [4, 5, 0], [0, 9, 0]]) / 9.0
    q2 = np.array([[1, 5, 3], [4, 5, 0], [4, 4, 1]]) / 9.0
    assert worst.shape == (6, 3)
    for i in range(3):
        assert np.allclose(worst[2 * i], q1[i], atol=1e-12)
        assert np.allclose(worst[2 * i + 1], q2[i], atol=1e-12)


def test_build_worst_kernels_radius_zero_is_nominal(threestate):
    worst = build_worst_kernels(threestate.with_radius(0.0), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(worst, threestate.kernels)


def test_policy_iteration_paper_mode_trace(threestate):
    sol, trace = policy_iteration(
        threestate, initial_policy=("u1", "u2", "u2"), mode="paper"
    )
    assert trace.mode == "paper"
    assert trace.improvement_iterations == 2
    assert sol.policy == ("u2", "u1", "u2")
    assert sol.method == "pi"

    first = trace.steps[0]
    assert first.policy == ("u1", "u2", "u2")
    assert np.allclose(first.nominal_values, _solve_nominal(Q_G0, F_G0), atol=1e-10)
    assert np.allclose(first.robust_values, (740 / 33, 790 / 33, 680 / 33), atol=1e-9)
    # the printed trace truncates to two decimals
    assert np.allclose(first.nominal_values, (12.42, 13.93, 10.60), atol=0.011)
    assert np.allclose(first.robust_values, (22.42, 23.93, 20.60), atol=0.011)

    second = trace.steps[1]
    assert second.policy == ("u2", "u1", "u2")
    assert np.allclose(second.nominal_values, (3.46, 4.10, 2.99), atol=0.011)
    assert np.allclose(second.robust_values, EXACT, atol=1e-9)

    assert np.allclose(sol.values, EXACT, atol=1e-9)
    assert np.allclose(sol.values, (6.79, 7.43, 6.32), atol=0.02)


def test_policy_iteration_monotone_improvement(threestate):
    _, trace = policy_iteration(
        threestate, initial_policy=("u1", "u2", "u2"), mode="paper"
    )
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert np.all(cur.robust_values <= prev.robust_values + 1e-9)
    rng = np.random.default_rng(35)
    for _ in range(10):
        model = random_model(rng, max_states=4, max_actions=3)
        _, trace = policy_iteration(model)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            assert np.all(cur.robust_values <= prev.robust_values + 1e-9)


def test_policy_iteration_from_optimal_changes_nothing(threestate):
    sol, trace = policy_iteration(
        threestate, initial_policy=("u2", "u1", "u2"), mode="paper"
    )
    assert trace.improvement_iterations == 1
    assert len({step.policy for step in trace.steps}) == 1
    assert np.allclose(sol.values, EXACT, atol=1e-9)


def test_policy_iteration_default_start(threestate):
    sol, trace = policy_iteration(threestate)
    assert trace.mode == "fixed_point"
    assert trace.steps[0].policy == ("u1", "u1", "u1")
    assert sol.policy == ("u2", "u1", "u2")
    assert np.allclose(sol.values, EXACT, atol=1e-9)


def test_policy_iteration_max_iter_exhaustion(threestate):
    sol, trace = policy_iteration(
        threestate, initial_policy=("u1", "u2", "u2"), max_iter=1
    )
    assert not sol.converged
    assert trace.improvement_iterations == 1


def _twin_threestate(scale):
    """threestate with its costs times ``scale`` and every action followed by a
    twin: the same row and cost, declared after the originals."""
    doc = json.loads(example_model_text("threestate"))
    for state in doc["states"]:
        acts = doc["actions"][state]
        doc["actions"][state] = acts + [a + "b" for a in acts]
        for a in acts:
            doc["kernel"][state][a + "b"] = doc["kernel"][state][a]
            doc["cost"][state][a + "b"] = doc["cost"][state][a]
        doc["cost"][state] = {a: scale * c for a, c in doc["cost"][state].items()}
    return parse_model(doc)


@pytest.mark.parametrize("mode,policy", [
    ("paper", ("u2b", "u1", "u2b")),
    ("fixed_point", ("u2", "u1", "u2")),
])
def test_policy_iteration_twin_actions_ignore_the_cost_scale(mode, policy):
    # a challenger twin and the incumbent's solved value differ only by
    # rounding noise, which grows with the costs: the action rule and the
    # incumbent rule are both relative, so the answer and the path to it are
    # the same at every scale
    paths = set()
    for scale in (1.0, 1e3, 1e6, 1e9, 1e12):
        sol, trace = policy_iteration(
            _twin_threestate(scale), initial_policy=("u2b",) * 3, mode=mode
        )
        assert sol.policy == policy, scale
        assert trace.improvement_iterations == 2, scale
        assert np.allclose(sol.values / scale, EXACT, rtol=1e-9, atol=0.0), scale
        paths.add(tuple(step.policy for step in trace.steps))
    assert len(paths) == 1


@pytest.mark.parametrize("seed", range(6))
def test_solvers_do_not_depend_on_the_size_rule(seed, monkeypatch):
    # the size rule picks the per-row loop or the vectorized pass; both give
    # the same bits, so the solvers' outputs do not show which one ran
    rng = np.random.default_rng([46, seed])
    model = random_model(rng, max_states=20, max_actions=4, vector_cost=seed % 2 == 1)
    outputs = []
    for threshold in (0, 10**9):
        monkeypatch.setattr("tvdp.oracle.BATCH_MIN_ENTRIES", threshold)
        vi = value_iteration(model)
        pi, _ = policy_iteration(model)
        outputs.append(b"".join(
            a.tobytes() for sol in (vi, pi)
            for a in (sol.values, sol.policy_idx, sol.worst_kernel_matrix)
        ))
    assert outputs[0] == outputs[1]


def test_pi_fixed_point_matches_vi_on_radius_grid():
    rng = np.random.default_rng(36)
    for _ in range(50):
        base = random_model(rng, max_states=5, max_actions=3)
        for r in (0.0, 0.3, 0.8, 1.5):
            model = base.with_radius(r)
            vi = value_iteration(model)
            pi, _ = policy_iteration(model)
            assert np.abs(vi.values - pi.values).max() <= 1e-6


def test_paper_mode_reports_a_stop_off_the_fixed_point():
    model = parse_model(DIVERGENT_DOC)
    paper, _ = policy_iteration(model, mode="paper")
    fixed, _ = policy_iteration(model, mode="fixed_point")
    vi = value_iteration(model)
    assert not paper.converged and paper.residual > 1e-3
    assert fixed.converged
    assert np.abs(fixed.values - vi.values).max() <= 1e-6
    assert np.abs(paper.values - vi.values).max() > 1e-3


def test_paper_mode_converges_on_the_example(threestate):
    paper, _ = policy_iteration(threestate, initial_policy=("u1", "u2", "u2"), mode="paper")
    fixed, _ = policy_iteration(threestate, mode="fixed_point")
    assert paper.converged and fixed.converged


def test_policy_iteration_vector_costs():
    doc = json.loads(example_model_text("machine"))
    del doc["horizon"]
    del doc["terminal_cost"]
    doc["discount"] = 0.9
    model = parse_model(doc)
    with pytest.raises(ModelError):
        policy_iteration(model, mode="paper")
    rng = np.random.default_rng(37)
    models = [model] + [
        random_model(rng, max_states=4, max_actions=3, vector_cost=True) for _ in range(20)
    ]
    for m in models:
        vi = value_iteration(m)
        pi, _ = policy_iteration(m, mode="fixed_point")
        assert vi.converged and pi.converged
        assert np.abs(pi.values - vi.values).max() <= 1e-9
        assert pi.policy == vi.policy


def test_policy_iteration_unknown_mode(threestate):
    with pytest.raises(ValueError):
        policy_iteration(threestate, mode="sideways")


def test_sweep_radius_infinite_curve(threestate):
    grid = np.linspace(0.0, 2.0, 9)
    points = sweep_radius_infinite(threestate, grid)
    baseline = value_iteration(threestate.with_radius(0.0))
    assert np.allclose(points[0].values, baseline.values, atol=1e-8)
    stacked = np.array([pt.values for pt in points])
    assert np.all(np.diff(stacked, axis=0) >= -1e-12)
    assert np.all(np.diff(stacked, axis=0, n=2) <= 1e-9)


def test_sweep_radius_infinite_is_path_independent():
    model = _sparse_saturating_model()
    grid = [round(0.1 * k, 10) for k in range(21)]
    points = sweep_radius_infinite(model, grid)
    forward = sweep_csv(points, model.states)
    header, _, _ = forward.partition("\n")
    singles = [sweep_csv(sweep_radius_infinite(model, [r]), model.states) for r in grid]
    assert forward == header + "\n" + "".join(t.partition("\n")[2] for t in singles)
    backward = sweep_radius_infinite(model, grid[::-1])
    assert sweep_csv(backward[::-1], model.states) == forward

    tied = saturated = 0
    for point in points:
        for i in range(model.n_states):
            q = []
            for a in range(len(model.actions[i])):
                row = model.starts[i] + a
                res = waterfill_maximize(
                    model.kernels[row], model.discount * point.values, point.radius
                )
                q.append(model.cost_scalar[row] + res.value)
                saturated += res.r_max <= point.radius
            q = np.array(q)
            within = q <= q.min() + DEFAULT_TIE_TOL * max(1.0, abs(q.min()))
            tied += within.sum() >= 2
            assert model.actions[i].index(point.policy[i]) == int(np.argmax(within)), (
                point.radius, model.states[i], q)
    assert tied and saturated


def test_stationary_record_metadata(threestate):
    sol = value_iteration(threestate)
    record = stationary_solution_record(threestate, sol)
    assert record.kind == "stationary"
    assert record.metadata["method"] == "vi"
    assert record.metadata["converged"] is True
    assert abs(record.metadata["radius"] - 2.0 / 3.0) <= 1e-15

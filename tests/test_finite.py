"""Backward induction: frozen machine-model results, radius indexing, sweeps."""

import numpy as np
import pytest

from conftest import classical_backup, random_model, random_model_doc
from tvdp import ModelError, parse_model
from tvdp.finite import (
    _SWEEP_BLOCK_ENTRIES,
    evaluate_policy_finite,
    finite_solution_record,
    initial_worst_value,
    solve_finite,
    stage_backup,
    sweep_radius_finite,
)
from tvdp.oracle import BATCH_MIN_ENTRIES

# hand-derived three-week replacement plans; the printed table rounds these
MACHINE_EXPECTED = {
    0.85: (
        [(340.0625, 360.0625), (221.0625, 241.0625), (100.0, 122.5)],
        [("m", "r"), ("m", "r"), ("nm", "r")],
    ),
    0.0: (
        [(196.0, 216.0), (128.0, 148.0), (60.0, 80.0)],
        [("m", "r"), ("m", "r"), ("m", "r")],
    ),
}


@pytest.mark.parametrize("radius", [0.85, 0.0])
def test_machine_replacement_plan(machine, radius):
    values, policies = MACHINE_EXPECTED[radius]
    plans = solve_finite(machine.with_radius(radius))
    assert len(plans) == 4
    for j in range(3):
        assert np.allclose(plans[j].values, values[j], atol=1e-12)
        assert plans[j].policy == policies[j]
    assert np.array_equal(plans[3].values, machine.terminal_cost)
    assert plans[3].policy is None


def test_machine_worst_kernels_last_week(machine):
    plans = solve_finite(machine.with_radius(0.85))
    last = plans[2]
    # running/nm saturates at r_max = 0.6; broken/r moves 0.425 onto failure
    assert np.allclose(last.worst_kernels[0], (0.0, 1.0), atol=1e-12)
    assert np.allclose(last.worst_kernels[1], (0.175, 0.825), atol=1e-12)


def test_stage_backup_last_decision_week(machine):
    zero = np.zeros(2)
    plan = stage_backup(machine, zero, 0.0)
    assert np.allclose(plan.values, (60.0, 80.0), atol=1e-12)
    assert plan.policy == ("m", "r")
    plan = stage_backup(machine, zero, 0.85)
    assert np.allclose(plan.values, (100.0, 122.5), atol=1e-12)
    assert plan.policy == ("nm", "r")


def test_stage_backup_rejects_bad_inputs(machine):
    with pytest.raises(ModelError):
        stage_backup(machine, np.zeros(3), 0.5)
    with pytest.raises(ModelError):
        stage_backup(machine, np.array([0.0, np.inf]), 0.5)
    with pytest.raises(ModelError):
        stage_backup(machine, np.zeros(2), 2.3)


def _chain_doc(radius):
    return {
        "states": ["A", "B"],
        "actions": {"A": ["go"], "B": ["go"]},
        "kernel": {"A": {"go": [0.5, 0.5]}, "B": {"go": [0.5, 0.5]}},
        "cost": {"A": {"go": 0.0}, "B": {"go": 0.0}},
        "terminal_cost": [0.0, 10.0],
        "discount": 1.0,
        "horizon": 2,
        "radius": radius,
    }


def test_stage_radius_indexes_the_perturbed_kernel():
    # stage-j backup perturbs kernel Q_{j+1}, so it reads radius entry j+1
    plans = solve_finite(parse_model(_chain_doc([0.0, 0.0, 2.0])))
    assert np.allclose(plans[1].values, (10.0, 10.0), atol=1e-12)
    assert np.allclose(plans[0].values, (10.0, 10.0), atol=1e-12)

    plans = solve_finite(parse_model(_chain_doc([2.0, 2.0, 0.0])))
    assert np.allclose(plans[1].values, (5.0, 5.0), atol=1e-12)
    assert np.allclose(plans[0].values, (5.0, 5.0), atol=1e-12)

    # R_0 never enters the recursion (it belongs to the initial distribution)
    a = solve_finite(parse_model(_chain_doc([2.0, 0.0, 0.0])))
    b = solve_finite(parse_model(_chain_doc(0.0)))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.values, pb.values)


def test_reported_values_carry_stage_discount():
    rng = np.random.default_rng(21)
    model = random_model(rng, horizon=3, discount=0.8)
    plans = solve_finite(model)
    record = finite_solution_record(model, plans)
    for j, plan in enumerate(plans):
        assert np.allclose(record.values[j], (0.8 ** j) * plan.values, rtol=1e-15)


def test_classical_reduction_spot_checks():
    rng = np.random.default_rng(22)
    for _ in range(20):
        model = random_model(
            rng,
            max_states=4,
            max_actions=3,
            horizon=int(rng.integers(1, 5)),
            vector_cost=bool(rng.random() < 0.5),
            radius=0.0,
        )
        expect = [model.terminal_cost]
        for _ in range(model.horizon):
            expect.insert(0, classical_backup(model, expect[0]))
        plans = solve_finite(model)
        for j, want in enumerate(expect):
            assert np.allclose(plans[j].values, want, atol=1e-12)


def test_evaluate_policy_matches_solution(machine):
    model = machine.with_radius(0.85)
    plans = solve_finite(model)
    seq = [plans[j].policy for j in range(3)]
    values = evaluate_policy_finite(model, seq)
    for j in range(4):
        assert np.allclose(values[j], plans[j].values, atol=1e-12)
    # any other Markov policy can only do worse
    rng = np.random.default_rng(23)
    for _ in range(10):
        other = [
            tuple(model.actions[i][rng.integers(0, len(model.actions[i]))]
                  for i in range(model.n_states))
            for _ in range(3)
        ]
        worse = evaluate_policy_finite(model, other)
        assert np.all(worse[0] >= plans[0].values - 1e-12)


def test_evaluate_policy_accepts_indices(machine):
    by_label = evaluate_policy_finite(machine, [("m", "r")] * 3)
    by_index = evaluate_policy_finite(machine, [(0, 0)] * 3)
    for a, b in zip(by_label, by_index):
        assert np.array_equal(a, b)


def test_evaluate_policy_guards(machine):
    with pytest.raises(ModelError):
        evaluate_policy_finite(machine, [("m", "r")] * 2)
    with pytest.raises(ModelError):
        evaluate_policy_finite(machine, [("m", "bogus")] * 3)


def test_constant_vector_cost_equals_scalar_cost():
    rng = np.random.default_rng(24)
    doc = random_model_doc(rng, max_states=3, horizon=3)
    scalar = parse_model(doc)
    vec_doc = {**doc, "cost": {
        s: {a: [c] * len(doc["states"]) for a, c in acts.items()}
        for s, acts in doc["cost"].items()
    }}
    vector = parse_model(vec_doc)
    for pa, pb in zip(solve_finite(scalar), solve_finite(vector)):
        assert np.allclose(pa.values, pb.values, atol=1e-12)


def test_sweep_radius_finite_curve(machine):
    grid = [0.0, 0.425, 0.85]
    points = sweep_radius_finite(machine, grid)
    assert [pt.radius for pt in points] == grid
    assert np.allclose(points[0].values, (196.0, 216.0), atol=1e-12)
    assert np.allclose(points[2].values, (340.0625, 360.0625), atol=1e-12)

    dense = sweep_radius_finite(machine, np.linspace(0.0, 2.0, 9))
    stacked = np.array([pt.values for pt in dense])
    assert np.all(np.diff(stacked, axis=0) >= -1e-12)


def _assert_point_solved(model, point):
    """A sweep point against backward induction at its radius alone."""
    plans = solve_finite(model.with_radius(point.radius))
    assert point.policy == plans[0].policy, point.radius
    assert point.values.tobytes() == plans[0].values.tobytes(), point.radius


def test_sweep_matches_per_point_solves():
    rng = np.random.default_rng(25)
    for case in range(40):
        horizon = int(rng.integers(1, 12))
        radius = None
        if case % 4 == 3:
            # the grid replaces a per-stage radius list as well
            radius = [float(x) for x in rng.uniform(0.0, 2.0, horizon + 1)]
        model = random_model(
            rng, max_states=6, max_actions=3, horizon=horizon,
            vector_cost=case % 2 == 1, radius=radius,
        )
        grid = [0.0, 2.0] + [float(x) for x in rng.uniform(0.0, 2.0, 19)]
        points = sweep_radius_finite(model, grid)
        assert [pt.radius for pt in points] == grid
        for pt in points:
            _assert_point_solved(model, pt)


def test_sweep_single_point_is_the_per_point_solve(machine):
    # the machine model's rows take the per-row loop, the random model's the
    # vectorized pass; either way a point is the per-point solve, bit for bit
    big = random_model(np.random.default_rng(26), min_states=8, max_states=8,
                       max_actions=3, horizon=4, vector_cost=True)
    assert machine.kernels.size < BATCH_MIN_ENTRIES <= big.kernels.size
    for model in (machine, big):
        for r in (0.0, 0.85, 2.0):
            (point,) = sweep_radius_finite(model, [r])
            _assert_point_solved(model, point)


def test_sweep_spans_blocks(machine):
    per_block = _SWEEP_BLOCK_ENTRIES // machine.kernels.size
    grid = list(np.linspace(0.0, 2.0, per_block + 5))
    points = sweep_radius_finite(machine, grid)
    assert len(points) == len(grid) > per_block
    for k in (0, per_block - 2, per_block - 1, per_block, len(grid) - 1):
        _assert_point_solved(machine, points[k])
    # each block is its own backward induction: the last one alone gives the
    # same bits
    tail = sweep_radius_finite(machine, grid[per_block:])
    for a, b in zip(points[per_block:], tail):
        assert a.policy == b.policy and np.array_equal(a.values, b.values)
    stacked = np.array([pt.values for pt in points])
    assert np.all(np.diff(stacked, axis=0) >= -1e-12)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 2.5])
def test_sweep_rejects_bad_radius_inside_grid(machine, bad):
    with pytest.raises(ModelError, match=r"radius must lie in \[0, 2\]"):
        sweep_radius_finite(machine, [0.0, 0.5, bad, 1.0])


def test_initial_worst_value(machine):
    import json

    from tvdp import example_model_text

    doc = json.loads(example_model_text("machine"))
    doc["initial"] = [0.6, 0.4]
    model = parse_model(doc)
    plans = solve_finite(model)
    # 0.85 of ambiguity moves 0.425 of the start mass onto the broken state
    assert abs(initial_worst_value(model, plans) - 356.5625) <= 1e-12
    with pytest.raises(ModelError):
        initial_worst_value(machine, plans)


def test_solution_record_metadata(machine):
    record = finite_solution_record(machine, solve_finite(machine))
    assert record.kind == "finite"
    assert record.metadata["horizon"] == 3
    assert record.metadata["radius"] == 0.85


def test_solve_finite_requires_horizon(threestate):
    with pytest.raises(ModelError):
        solve_finite(threestate)

"""Certification, exhaustive enumeration, and simulation cross-checks."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_model, random_oracle_instance
from tvdp import ModelError, example_model_text, parse_model
from tvdp.finite import evaluate_policy_finite, solve_finite
from tvdp.infinite import policy_evaluation_nominal, value_iteration
from tvdp.oracle import waterfill_maximize
from tvdp.verify import (
    _DRAW_BLOCK,
    OPTIMALITY_TOL,
    RolloutConfig,
    brute_force_finite,
    certify_waterfill,
    dual_max_value,
    fuzz_waterfill,
    markov_sufficiency_check,
    monte_carlo_rollout,
    _random_instance,
)

TWO_POINT = (np.array([0.3, 0.7]), np.array([0.0, 100.0]), 0.85)


def test_certify_accepts_oracle_output():
    mu, lv, r = TWO_POINT
    report = certify_waterfill(mu, lv, r, waterfill_maximize(mu, lv, r))
    assert report.passed
    assert report.failures == 0
    assert report.instances == 1
    assert report.max_violation <= 1e-9
    assert report.check == "waterfill_optimality"


def test_certify_accepts_random_oracle_outputs():
    rng = np.random.default_rng(41)
    for _ in range(100):
        mu, lv, r = random_oracle_instance(rng)
        result = waterfill_maximize(mu, lv, r)
        report = certify_waterfill(mu, lv, r, result)
        assert report.passed, (mu, lv, r)


def test_certify_flags_understated_value():
    mu, lv, r = TWO_POINT
    result = waterfill_maximize(mu, lv, r)
    fake = SimpleNamespace(maximizer=result.maximizer, value=result.value - 1.0)
    assert not certify_waterfill(mu, lv, r, fake).passed


def test_certify_flags_overstated_value():
    mu, lv, r = TWO_POINT
    result = waterfill_maximize(mu, lv, r)
    fake = SimpleNamespace(maximizer=result.maximizer, value=result.value + 1.0)
    assert not certify_waterfill(mu, lv, r, fake).passed


def test_certify_flags_suboptimal_feasible_point():
    mu, lv, r = TWO_POINT
    # the nominal itself is feasible but beaten by the true maximizer
    assert not certify_waterfill(mu, lv, r, np.array([0.3, 0.7])).passed


def test_certify_proves_without_probes():
    # eight outcomes and no probes: only the dual bound can beat the nominal
    rng = np.random.default_rng(4)
    mu = rng.dirichlet(np.ones(8))
    lv = rng.normal(0.0, 10.0, 8)
    report = certify_waterfill(mu, lv, 0.5, mu)
    assert not report.passed
    assert report.max_violation == pytest.approx(dual_max_value(mu, lv, 0.5) - lv @ mu)
    assert certify_waterfill(mu, lv, 0.5, waterfill_maximize(mu, lv, 0.5)).passed


def test_certify_accepts_a_merged_near_tie_at_large_levels():
    # the tie rule merges 1000 + 6e-7 into the top set and returns 1000, 3e-7
    # below the dual bound: within 1e-9 of the levels' scale, past a bare 1e-9
    mu, lv, r = [0.5, 0.5, 0.0], [1000.0, 1000.0, 1000.0 + 6e-7], 1.0
    result = waterfill_maximize(mu, lv, r)
    assert result.value == 1000.0
    report = certify_waterfill(mu, lv, r, result)
    assert report.passed
    assert report.max_violation == pytest.approx(3e-7, rel=1e-3)


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
def test_certify_accepts_oracle_outputs_at_large_levels(scale):
    rng = np.random.default_rng(0)
    for k in range(2000):
        mu, lv, r = _random_instance(rng, 8)
        lv = lv * scale
        report = certify_waterfill(mu, lv, r, waterfill_maximize(mu, lv, r), seed=k)
        assert report.passed, (k, mu, lv, r)


def test_certify_flags_a_maximizer_short_by_ten_scaled_tolerances():
    rng = np.random.default_rng(5)
    mu = rng.dirichlet(np.ones(6))
    lv = rng.normal(0.0, 10.0, 6) * 1e5
    r = 0.8
    result = waterfill_maximize(mu, lv, r)
    short = 10 * OPTIMALITY_TOL * np.abs(lv).max()
    # move mass from the argmax onto the argmin until the value drops by `short`
    shift = short / (lv.max() - lv.min())
    nu = result.maximizer.copy()
    nu[np.argmax(lv)] -= shift
    nu[np.argmin(lv)] += shift
    assert float(lv @ nu) == pytest.approx(result.value - short, rel=1e-12)
    report = certify_waterfill(mu, lv, r, nu)
    assert not report.passed
    assert report.max_violation == pytest.approx(short, rel=1e-6)


def test_certify_flags_out_of_ball_candidate():
    report = certify_waterfill(
        np.array([0.8, 0.2]), np.array([0.0, 1.0]), 0.2, np.array([0.0, 1.0])
    )
    assert not report.passed


def test_certify_flags_non_distribution():
    mu, lv, r = TWO_POINT
    assert not certify_waterfill(mu, lv, r, np.array([-0.1, 1.1])).passed


def test_certify_shape_mismatch():
    mu, lv, r = TWO_POINT
    with pytest.raises(ValueError):
        certify_waterfill(mu, lv, r, np.array([0.2, 0.3, 0.5]))


HALVES = [0.5, 0.5]


@pytest.mark.parametrize("fn,args", [
    pytest.param(certify_waterfill, (HALVES, [0.0, 1.0], 0.5, [math.nan, math.nan]),
                 id="certify-nan-candidate"),
    pytest.param(certify_waterfill, (HALVES, [0.0, 1.0], 0.5, [0.25, math.inf]),
                 id="certify-inf-candidate"),
    pytest.param(certify_waterfill,
                 (HALVES, [0.0, 1.0], 0.5, SimpleNamespace(maximizer=[0.5, 0.5], value=math.nan)),
                 id="certify-nan-value"),
    pytest.param(certify_waterfill, (HALVES, [0.0, math.nan], 0.5, [0.25, 0.75]),
                 id="certify-nan-level"),
    pytest.param(certify_waterfill, (HALVES, ["0", "1"], 0.5, [0.25, 0.75]),
                 id="certify-string-levels"),
    pytest.param(certify_waterfill, (HALVES, [0.0, 1.0, 2.0], 0.5, [0.25, 0.75]),
                 id="certify-levels-shape"),
    pytest.param(certify_waterfill, (HALVES, [0.0, 1.0], 7.0, [0.25, 0.75]),
                 id="certify-radius-above-2"),
    pytest.param(certify_waterfill, (HALVES, [0.0, 1.0], "0.5", [0.25, 0.75]),
                 id="certify-string-radius"),
    pytest.param(dual_max_value, (HALVES, [0.0, 1.0], 7.0), id="dual-radius-above-2"),
    pytest.param(dual_max_value, (HALVES, [0.0, 1.0], "0.5"), id="dual-string-radius"),
    pytest.param(dual_max_value, (HALVES, ["0", "1"], 0.5), id="dual-string-levels"),
    pytest.param(dual_max_value, (HALVES, [0.0, math.nan], 0.5), id="dual-nan-level"),
])
def test_verify_oracles_reject_what_the_oracle_rejects(fn, args):
    # a NaN certified with failures=0, or a radius of 7, would pass a check
    # that never ran
    with pytest.raises(ValueError):
        fn(*args)


def test_two_point_closed_form_matches_waterfill():
    mu, lv, r = TWO_POINT
    assert abs(dual_max_value(mu, lv, r) - 100.0) <= 1e-12
    rng = np.random.default_rng(42)
    for _ in range(500):
        p = rng.uniform(0.0, 1.0)
        mu2 = np.array([p, 1.0 - p])
        lv2 = rng.uniform(-100.0, 100.0, 2)
        r2 = rng.choice([0.0, 2.0, rng.uniform(0.0, 2.0)])
        want = dual_max_value(mu2, lv2, r2)
        got = waterfill_maximize(mu2, lv2, r2).value
        assert abs(want - got) <= 1e-12


def test_two_point_constant_levels():
    assert dual_max_value([0.4, 0.6], [3.0, 3.0], 1.0) == pytest.approx(3.0)


def test_brute_force_matches_dp_on_machine(machine):
    plans = solve_finite(machine)
    brute = brute_force_finite(machine)
    assert brute.enumerated == 4**3
    assert np.abs(brute.values - plans[0].values).max() <= 1e-9
    for i, pol in enumerate(brute.policies):
        vals = evaluate_policy_finite(machine, pol)[0]
        assert vals[i] == pytest.approx(brute.values[i], abs=1e-12)


def _refuse(*args, **kwargs):
    raise AssertionError("an independent check called into the solvers' kernel")


def test_exhaustive_checks_share_no_kernel_with_the_solvers(machine, monkeypatch):
    monkeypatch.setattr("tvdp.finite._backup", _refuse)
    assert brute_force_finite(machine).values == pytest.approx([340.0625, 360.0625], abs=1e-12)
    monkeypatch.undo()
    monkeypatch.setattr("tvdp.verify.waterfill_maximize", _refuse)
    assert markov_sufficiency_check(machine.with_horizon(2)).passed


def test_brute_force_budget_guard(machine):
    # 4^10 Markov policies: refused before any is enumerated
    with pytest.raises(ModelError, match="exceeds budget"):
        brute_force_finite(machine.with_horizon(10))


def test_brute_force_requires_horizon(threestate):
    with pytest.raises(ModelError):
        brute_force_finite(threestate)


def test_brute_force_random_models():
    rng = np.random.default_rng(43)
    for _ in range(10):
        model = random_model(
            rng, max_states=3, max_actions=2, horizon=int(rng.integers(1, 4))
        )
        plans = solve_finite(model)
        brute = brute_force_finite(model)
        assert np.abs(brute.values - plans[0].values).max() <= 1e-9


def test_markov_sufficiency_machine(machine):
    short = markov_sufficiency_check(machine.with_horizon(2))
    assert short.passed
    assert short.policies_enumerated == 2 ** (2 + 4)
    full = markov_sufficiency_check(machine)
    assert full.passed
    assert full.max_gap <= 1e-9
    assert full.policies_enumerated == 2 ** (2 + 4 + 8)


def _machine_costs_times(scale):
    doc = json.loads(example_model_text("machine"))
    doc["cost"] = {
        s: {a: [scale * c for c in costs] for a, costs in acts.items()}
        for s, acts in doc["cost"].items()
    }
    doc["terminal_cost"] = [scale * c for c in doc["terminal_cost"]]
    return parse_model(doc).with_horizon(2)


def test_markov_sufficiency_judges_on_the_values_scale():
    # at values of 2.4e8 one rounding step exceeds an absolute 1e-9
    report = markov_sufficiency_check(_machine_costs_times(1e6))
    assert report.max_gap > 1e-9
    assert report.passed


def test_markov_sufficiency_fails_a_relative_shift(monkeypatch):
    model = _machine_costs_times(1e6)
    plans = solve_finite(model)
    shifted = [SimpleNamespace(values=plans[0].values * (1.0 + 1e-6))]
    monkeypatch.setattr("tvdp.verify.solve_finite", lambda m: shifted)
    report = markov_sufficiency_check(model)
    assert not report.passed
    assert np.array_equal(report.markov_values, shifted[0].values)


def test_markov_sufficiency_two_state_models():
    rng = np.random.default_rng(44)
    for radius in (0.0, 0.4, 1.0):
        model = random_model(
            rng, max_states=2, min_states=2, max_actions=2, horizon=3, radius=radius
        )
        report = markov_sufficiency_check(model)
        assert report.passed, radius
        assert np.abs(report.history_values - report.markov_values).max() <= 1e-9


def test_markov_sufficiency_budget_guard():
    rng = np.random.default_rng(45)
    # 2^(3 + 9 + 27) history policies once a third state shows up
    model = random_model(rng, max_states=3, min_states=3, max_actions=2, horizon=3)
    with pytest.raises(ModelError):
        markov_sufficiency_check(model)


def test_rollout_zero_cost_is_exactly_zero(threestate):
    doc = json.loads(example_model_text("threestate"))
    doc["cost"] = {s: {a: 0.0 for a in acts} for s, acts in doc["actions"].items()}
    model = parse_model(doc)
    out = monte_carlo_rollout(model, ("u1", "u1", "u1"), RolloutConfig(episodes=500))
    assert np.array_equal(out.means, np.zeros(3))
    assert np.array_equal(out.std_errors, np.zeros(3))


def test_rollout_seed_and_jobs_determinism(threestate, monkeypatch):
    # six chunks, so the four threads each take some
    monkeypatch.setattr("tvdp.verify.CHUNK_SIZE", 512)
    pol = ("u2", "u1", "u2")
    cfg = RolloutConfig(episodes=3000, seed=7)
    a = monte_carlo_rollout(threestate, pol, cfg)
    b = monte_carlo_rollout(threestate, pol, cfg)
    c = monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=3000, seed=7, jobs=4))
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.std_errors, b.std_errors)
    assert np.array_equal(a.means, c.means)
    d = monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=3000, seed=8))
    assert not np.array_equal(a.means, d.means)


def test_rollout_draws_in_sub_blocks_keep_the_bits(monkeypatch):
    # a 30-state model whose chunks compare their draws in several sub-blocks
    # must give the means of one comparison over the whole chunk
    monkeypatch.setattr("tvdp.verify.CHUNK_SIZE", 5000)
    model = random_model(np.random.default_rng(46), min_states=30, max_states=30,
                         max_actions=2, vector_cost=True, discount=0.9)
    n, episodes, cap, seed = model.n_states, 7000, 8, 9
    assert 5000 * n > 2 * _DRAW_BLOCK
    idx = np.zeros(n, dtype=np.intp)
    out = monte_carlo_rollout(model, idx.tolist(),
                              RolloutConfig(episodes=episodes, horizon_cap=cap, seed=seed))

    cost = model.transition_cost_matrix(idx)
    cum = model.kernels[model.starts].cumsum(axis=1)
    cum[:, -1] = 1.0
    total, total_sq = np.zeros(n), np.zeros(n)
    for seq, n_eps in zip(np.random.SeedSequence(seed).spawn(2), (5000, 2000)):
        rng = np.random.default_rng(seq)
        state = np.repeat(np.arange(n), n_eps)
        ret = np.zeros(state.size)
        disc = 1.0
        for _ in range(cap):
            draw = rng.random(state.size)
            nxt = (draw[:, None] > cum[state]).sum(axis=1)
            ret += disc * cost[state, nxt]
            state = nxt
            disc *= model.discount
        per_start = ret.reshape(n, n_eps)
        total += per_start.sum(axis=1)
        total_sq += (per_start**2).sum(axis=1)
    means = total / episodes
    variance = np.maximum(total_sq - episodes * means**2, 0.0) / (episodes - 1)
    assert np.array_equal(out.means, means)
    assert np.array_equal(out.std_errors, np.sqrt(variance / episodes))


def test_rollout_rejects_bad_action_indices(threestate):
    cfg = RolloutConfig(episodes=10)
    for policy in ([1, -1, 1], [1, 5, 1], [1.7, 0, 0], ["u1", 0, 0]):
        with pytest.raises(ModelError):
            monte_carlo_rollout(threestate, policy, cfg)


def test_rollout_nominal_matches_linear_solve(threestate):
    pol = ("u2", "u1", "u2")
    exact = policy_evaluation_nominal(threestate, pol)
    out = monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=40000, seed=11))
    gap = np.abs(out.means - exact)
    assert np.all(gap <= 4.0 * out.std_errors + 1e-6)


def test_rollout_worst_kernel_matches_robust_values(threestate):
    sol = value_iteration(threestate)
    cfg = RolloutConfig(episodes=40000, seed=12, kernel_choice="worst")
    out = monte_carlo_rollout(
        threestate, sol.policy, cfg, kernels=sol.worst_kernel_matrix
    )
    gap = np.abs(out.means - sol.values)
    assert np.all(gap <= 4.0 * out.std_errors + 1e-6)
    # pessimistic kernels cost more than nominal play
    nominal = monte_carlo_rollout(
        threestate, sol.policy, RolloutConfig(episodes=40000, seed=12)
    )
    assert np.all(nominal.means <= out.means)


def test_rollout_auto_horizon_cap(threestate):
    out = monte_carlo_rollout(
        threestate, ("u1", "u1", "u1"), RolloutConfig(episodes=4)
    )
    alpha, f_max = 0.9, 3.0
    expected = math.ceil(math.log(1e-6 * (1 - alpha) / f_max) / math.log(alpha))
    assert out.horizon_cap == expected == 164
    explicit = monte_carlo_rollout(
        threestate, ("u1", "u1", "u1"), RolloutConfig(episodes=4, horizon_cap=5)
    )
    assert explicit.horizon_cap == 5


def test_rollout_error_paths(threestate, machine):
    pol = ("u1", "u1", "u1")
    with pytest.raises(ModelError):
        monte_carlo_rollout(machine, pol, RolloutConfig(episodes=10))
    with pytest.raises(ModelError):
        monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=0))
    with pytest.raises(ModelError):
        monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=10, kernel_choice="worst"))
    for choice in ("median", "custom"):
        with pytest.raises(ModelError):
            monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=10, kernel_choice=choice))
    with pytest.raises(ModelError):
        monte_carlo_rollout(
            threestate, pol,
            RolloutConfig(episodes=10, kernel_choice="worst"),
            kernels=np.ones((2, 2)) / 2.0,
        )
    for cap in (0, -3):
        with pytest.raises(ModelError):
            monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=10, horizon_cap=cap))
    for jobs in (0, -4):
        with pytest.raises(ModelError):
            monte_carlo_rollout(threestate, pol, RolloutConfig(episodes=10, jobs=jobs))


def test_fuzz_report_shape_and_pass():
    report = fuzz_waterfill(instances=50, seed=3, max_size=5)
    assert report.passed
    assert report.failures == 0
    assert report.instances == 50
    assert report.max_violation <= 1e-9
    payload = json.loads(report.to_json())
    assert set(payload) == {"check", "instances", "failures", "max_violation", "seed"}
    assert payload["seed"] == 3


def test_fuzz_max_violation_stays_absolute():
    # the scaled threshold decides a failure; max_violation is still the
    # absolute excess of the dual bound, here rounding only
    report = fuzz_waterfill(instances=3000, seed=0)
    assert report.passed
    assert report.max_violation <= 1e-13


def test_fuzz_rejects_bad_counts():
    with pytest.raises(ValueError, match="instances"):
        fuzz_waterfill(instances=-5)
    with pytest.raises(ValueError, match="max_size"):
        fuzz_waterfill(instances=1, max_size=1)

"""Water-fill oracle: frozen cases, algebraic identities, fuzzed invariants."""

import numpy as np
import pytest

from conftest import random_oracle_instance
from tvdp import (
    as_distribution,
    oscillation,
    partition_levels,
    tv_distance,
    unclamped_value,
    waterfill_maximize,
)

# hand-derived: (mu, levels, radius) -> (maximizer, value, effective_radius, r_max)
FROZEN_CASES = [
    (((0.5, 0.5), (1, 2), 0.0), ((0.5, 0.5), 1.5, 0.0, 1.0)),
    (((0.3, 0.7), (0, 100), 0.4), ((0.1, 0.9), 90.0, 0.4, 0.6)),
    (((0.3, 0.7), (0, 100), 0.85), ((0.0, 1.0), 100.0, 0.6, 0.6)),
    (((0.1, 0.2, 0.7), (1, 2, 3), 1.0), ((0.0, 0.0, 1.0), 3.0, 0.6, 0.6)),
    (((0.2, 0.3, 0.5), (1, 2, 3), 0.5), ((0.0, 0.25, 0.75), 2.75, 0.5, 1.0)),
    (((1.0, 0.0, 0.0), (0, 7, 7), 0.5), ((0.75, 0.125, 0.125), 1.75, 0.5, 2.0)),
    (((0.5, 0.5, 0.0), (1, 2, 5), 0.4), ((0.3, 0.5, 0.2), 2.3, 0.4, 2.0)),
    (((0.4, 0.6), (5, 1), 2.0), ((1.0, 0.0), 5.0, 1.2, 1.2)),
]


@pytest.mark.parametrize("inputs,expected", FROZEN_CASES)
def test_waterfill_frozen_cases(inputs, expected):
    mu, lv, r = inputs
    want_nu, want_val, want_eff, want_rmax = expected
    res = waterfill_maximize(mu, lv, r)
    assert np.allclose(res.maximizer, want_nu, atol=1e-14)
    assert abs(res.value - want_val) <= 1e-12
    assert abs(res.effective_radius - want_eff) <= 1e-14
    assert abs(res.r_max - want_rmax) <= 1e-14


def test_waterfill_proportional_tie_split():
    # argmax set {1, 2} gains 0.1 split proportionally to mu; argmin drains
    res = waterfill_maximize((0.25, 0.25, 0.5), (1, 3, 3), 0.2)
    assert np.allclose(res.maximizer, (0.15, 0.25 + 0.1 / 3, 0.5 + 0.2 / 3), atol=1e-14)
    assert abs(res.value - 2.7) <= 1e-12


def test_waterfill_radius_zero_returns_nominal_bitwise():
    mu = np.array([0.25, 0.3, 0.45])
    res = waterfill_maximize(mu, (4.0, 1.0, 2.0), 0.0)
    assert np.array_equal(res.maximizer, mu)
    assert res.effective_radius == 0.0


def test_waterfill_constant_levels_degenerate():
    mu = np.array([0.2, 0.5, 0.3])
    res = waterfill_maximize(mu, (7.0, 7.0, 7.0), 1.3)
    assert np.array_equal(res.maximizer, mu)
    assert abs(res.value - 7.0) <= 1e-12
    assert res.effective_radius == 0.0
    assert res.r_max == 0.0


def test_unclamped_value_examples():
    assert abs(unclamped_value((0.5, 0.5), (1, 2), 0.4) - 1.7) <= 1e-12
    assert abs(unclamped_value((0.2, 0.8), (9.0, 9.0), 1.1) - 9.0) <= 1e-12
    # with clamping active the unclamped closed form overshoots
    over = unclamped_value((0.3, 0.7), (0, 100), 0.85)
    assert abs(over - 112.5) <= 1e-12
    assert waterfill_maximize((0.3, 0.7), (0, 100), 0.85).value == pytest.approx(100.0)


def test_tv_distance_cases():
    assert tv_distance((0.4, 0.6), (0.4, 0.6)) == 0.0
    assert abs(tv_distance((1, 0), (0, 1)) - 2.0) <= 1e-15
    assert abs(tv_distance((0.6, 0.4), (0.3, 0.7)) - 0.6) <= 1e-15
    with pytest.raises(ValueError):
        tv_distance((1.0,), (0.5, 0.5))


def test_oscillation_cases():
    assert oscillation((3.0, 3.0, 3.0)) == 0.0
    assert oscillation((0.0, 100.0)) == 100.0
    assert oscillation((4.0, 1.0, 2.0)) == 3.0
    with pytest.raises(ValueError):
        oscillation(())


def test_partition_levels_distinct():
    part = partition_levels((1.0, 2.0, 3.0))
    assert part.sigma_max == (2,)
    assert part.sigma_levels == ((0,), (1,))
    assert part.levels == (1.0, 2.0)


def test_partition_levels_constant():
    part = partition_levels((5.0, 5.0, 5.0))
    assert part.sigma_max == (0, 1, 2)
    assert part.sigma_levels == ()


def test_partition_levels_nominal_evaluation_order():
    part = partition_levels((3.46, 4.10, 2.99))
    assert part.sigma_max == (1,)
    assert part.sigma_levels == ((2,), (0,))


def test_partition_tie_grouping_is_anchored():
    # anchored at the smallest member: 1.5 joins 1.0, 2.2 does not
    part = partition_levels((1.0, 1.5, 2.2), tie_tol=0.6)
    assert part.sigma_max == (2,)
    assert part.sigma_levels == ((0, 1),)


def test_partition_strict_mode_splits_near_ties():
    loose = partition_levels((1.0, 1.0 + 1e-12, 2.0))
    strict = partition_levels((1.0, 1.0 + 1e-12, 2.0), tie_tol=0.0)
    assert loose.sigma_levels == ((0, 1),)
    assert strict.sigma_levels == ((0,), (1,))


def test_partition_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        _, lv, _ = random_oracle_instance(rng)
        part = partition_levels(lv)
        sets = [part.sigma_max, *part.sigma_levels]
        flat = sorted(i for s in sets for i in s)
        assert flat == list(range(lv.size))
        assert list(part.levels) == sorted(part.levels)
        assert all(lev < part.level_max for lev in part.levels)


def test_waterfill_rejects_bad_inputs():
    with pytest.raises(ValueError):
        waterfill_maximize((0.5, 0.5), (1, 2), -0.1)
    with pytest.raises(ValueError):
        waterfill_maximize((0.5, 0.5), (1, 2), 2.1)
    with pytest.raises(ValueError):
        waterfill_maximize((0.5, 0.5), (1, np.nan), 0.5)
    with pytest.raises(ValueError):
        waterfill_maximize((0.5, 0.5), (1, 2, 3), 0.5)
    with pytest.raises(ValueError):
        waterfill_maximize((0.9, 0.3), (1, 2), 0.5)
    with pytest.raises(ValueError):
        waterfill_maximize((0.5, -0.5), (1, 2), 0.5)
    # NaN fails every comparison and would merge all levels into one tie group
    with pytest.raises(ValueError):
        waterfill_maximize((0.5, 0.5), (1, 2), 0.5, tie_tol=np.nan)
    with pytest.raises(ValueError):
        waterfill_maximize((0.5, 0.5), (1, 2), 0.5, tie_tol=np.inf)
    with pytest.raises(ValueError):
        partition_levels((1, 2), tie_tol=np.nan)


def test_waterfill_accepts_boundary_grace():
    # radii a hair outside [0, 2] from upstream round-off are clamped
    res = waterfill_maximize((0.5, 0.5), (1, 2), 2.0 + 1e-13)
    assert res.effective_radius <= 1.0


def test_as_distribution_normalizes_and_rejects():
    out = as_distribution((0.3, 0.7 + 1e-13))
    assert abs(out.sum() - 1.0) <= 1e-12
    out = as_distribution((-1e-13, 1.0))
    assert out[0] == 0.0
    with pytest.raises(ValueError):
        as_distribution((0.3, 0.5))
    with pytest.raises(ValueError):
        as_distribution((-0.2, 1.2))
    with pytest.raises(ValueError):
        as_distribution(())


def test_distribution_and_saturation_invariants():
    rng = np.random.default_rng(101)
    for _ in range(300):
        mu, lv, r = random_oracle_instance(rng)
        res = waterfill_maximize(mu, lv, r)
        nu = res.maximizer
        assert abs(nu.sum() - 1.0) <= 1e-12
        assert nu.min() >= 0.0 and nu.max() <= 1.0 + 1e-15
        # the ball constraint is tight at min(R, R_max)
        assert abs(tv_distance(nu, mu) - res.effective_radius) <= 1e-12
        assert res.effective_radius == min(r, res.r_max)
        assert res.value >= float(lv @ as_distribution(mu)) - 1e-12


def test_value_monotone_concave_in_radius():
    rng = np.random.default_rng(202)
    grid = np.linspace(0.0, 2.0, 41)
    for _ in range(40):
        mu, lv, _ = random_oracle_instance(rng)
        vals = np.array([waterfill_maximize(mu, lv, r).value for r in grid])
        diffs = np.diff(vals)
        assert diffs.min() >= -1e-12
        assert np.diff(diffs).max() <= 1e-9


def test_shift_invariance():
    rng = np.random.default_rng(303)
    for _ in range(100):
        mu, lv, r = random_oracle_instance(rng)
        base = waterfill_maximize(mu, lv, r)
        for c in (-3.0, 1.5, 10.0):
            shifted = waterfill_maximize(mu, lv + c, r)
            assert np.array_equal(shifted.maximizer, base.maximizer)
            assert shifted.value == pytest.approx(base.value + c, rel=1e-12, abs=1e-12)


def test_positive_scale_equivariance():
    rng = np.random.default_rng(404)
    for _ in range(100):
        mu, lv, r = random_oracle_instance(rng)
        base = waterfill_maximize(mu, lv, r)
        for lam in (0.25, 2.0, 7.5):
            scaled = waterfill_maximize(mu, lam * lv, r)
            assert np.array_equal(scaled.maximizer, base.maximizer)
            assert scaled.value == pytest.approx(lam * base.value, rel=1e-12, abs=1e-12)


def test_permutation_equivariance():
    # dyadic mu keeps the input normalization exact under any summation
    # order, so the kernel's label-independence shows up bit for bit
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        mu = rng.multinomial(1024, rng.dirichlet(np.ones(n))) / 1024.0
        lv = np.sort(rng.uniform(0.0, 100.0, n))  # distinct with probability 1
        r = float(rng.uniform(0.0, 2.0))
        perm = rng.permutation(n)
        base = waterfill_maximize(mu, lv, r)
        permuted = waterfill_maximize(mu[perm], lv[perm], r)
        assert np.array_equal(permuted.maximizer, base.maximizer[perm])
        assert permuted.value == pytest.approx(base.value, rel=1e-12, abs=1e-12)


def test_fast_path_agrees_when_no_clamping():
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 100:
        mu, lv, _ = random_oracle_instance(rng)
        part = partition_levels(lv)
        if not part.sigma_levels:
            continue
        mu_n = as_distribution(mu)
        r_max = 2.0 * (1.0 - mu_n[list(part.sigma_max)].sum())
        slack = min(r_max, 2.0 * mu_n[list(part.sigma_levels[0])].sum())
        if slack <= 0.0:
            continue
        r = float(rng.uniform(0.0, slack))
        res = waterfill_maximize(mu, lv, r)
        scale = max(1.0, abs(res.value))
        assert abs(unclamped_value(mu, lv, r) - res.value) <= 1e-12 * scale
        checked += 1

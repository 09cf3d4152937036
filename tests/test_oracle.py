"""Water-fill oracle: frozen cases, algebraic identities, fuzzed invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_model_doc, random_oracle_instance, stationary_machine
from tvdp import (
    as_distribution,
    load_example,
    oscillation,
    partition_levels,
    tv_distance,
    unclamped_value,
    parse_model,
    waterfill_maximize,
)
from tvdp.finite import _backup
from tvdp.infinite import build_worst_kernels
from tvdp.oracle import BATCH_MIN_ENTRIES, DEFAULT_TIE_TOL, _waterfill, _waterfill_rows
from tvdp.verify import dual_max_value

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
    # anchored at the smallest member: 1 + 6e-10 joins 1.0, 1 + 1.2e-9 does
    # not, though it lies within the tolerance of 1 + 6e-10
    part = partition_levels((1.0, 1.0 + 6e-10, 1.0 + 1.2e-9))
    assert part.sigma_max == (2,)
    assert part.sigma_levels == ((0, 1),)


def test_partition_strict_mode_splits_near_ties():
    # 1 + 1e-12 lies within the tie tolerance of 1.0: one set
    loose = partition_levels((1.0, 1.0 + 1e-12, 2.0))
    assert loose.sigma_levels == ((0, 1),)


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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: waterfill_maximize((0.5, 0.5), (0, 1), "0.5"), id="radius-str"),
    pytest.param(lambda: waterfill_maximize((0.5, 0.5), (0, 1), True), id="radius-bool"),
    pytest.param(lambda: unclamped_value((0.5, 0.5), (0, 1), "0.5"), id="unclamped-radius-str"),
    pytest.param(lambda: waterfill_maximize((0.5, 0.5), ["0", "1"], 0.5), id="levels-str"),
    pytest.param(lambda: waterfill_maximize((0.5, 0.5), [True, False], 0.5), id="levels-bool"),
    pytest.param(lambda: oscillation(np.array([0, 1], dtype=object)), id="levels-object"),
    pytest.param(lambda: waterfill_maximize(["0.5", "0.5"], (0, 1), 0.5), id="mu-str"),
    pytest.param(lambda: as_distribution([True, False]), id="mu-bool"),
    pytest.param(lambda: as_distribution(np.array([0.5, 0.5], dtype=object)), id="mu-object"),
    pytest.param(lambda: tv_distance(["0.5", "0.5"], (True, False)), id="tv_distance"),
])
def test_oracle_arguments_obey_the_number_rule(call):
    # strings, bools and objects would otherwise be converted into numbers
    with pytest.raises(ValueError):
        call()


def test_oracle_accepts_numpy_numbers():
    res = waterfill_maximize(np.array([0.5, 0.5], dtype=np.float32), np.array([0, 1]),
                             np.float32(0.5))
    assert res.value == waterfill_maximize((0.5, 0.5), (0.0, 1.0), 0.5).value
    assert waterfill_maximize((0.0, 1.0), (1, 2), np.int64(1)).value == 2.0


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


# ---------------------------------------------------------------------------
# the row-batched kernel against the per-row reference

TIE = DEFAULT_TIE_TOL


@st.composite
def _level_row(draw, n):
    kind = draw(st.sampled_from(["ties", "chain", "constant", "free"]))
    if kind == "ties":
        lv = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
    elif kind == "chain":
        # steps of 0.6 tie tolerances: each gap is a tie, but the chain
        # outgrows its anchor, so pairwise and anchored grouping disagree
        base = draw(st.floats(-50.0, 50.0))
        steps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        lv = base + 0.6 * TIE * max(1.0, abs(base)) * np.array(steps, float)
    elif kind == "constant":
        lv = np.full(n, draw(st.floats(-100.0, 100.0)))
    else:
        lv = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    return lv


@st.composite
def _kernel_row(draw, levels):
    n = levels.size
    w = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n
    )))
    if draw(st.booleans()):
        # no nominal mass on the argmax set, unless it is everything
        top = levels >= levels.max()
        if not top.all():
            w[top] = 0.0
    if w.sum() == 0.0:
        w[int(np.argmin(levels))] = 1.0
    return w / w.sum()


_RADIUS = st.one_of(st.just(0.0), st.just(2.0), st.floats(0.0, 2.0))


@st.composite
def _batches(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # one payoff shared by every row, as with scalar costs
        levels = np.broadcast_to(draw(_level_row(n)), (m, n))
    else:
        levels = np.array([draw(_level_row(n)) for _ in range(m)])
    kernels = np.array([draw(_kernel_row(row)) for row in levels])
    return kernels, levels, draw(_RADIUS)


_CHAIN = 0.6 * TIE * np.arange(4.0)


@settings(max_examples=300, deadline=None)
@given(_batches())
@example((np.array([[0.25, 0.25, 0.5], [0.5, 0.5, 0.0]]),
          np.array([[1.0, 3.0, 3.0], [0.0, 7.0, 7.0]]), 0.4))         # exact ties
@example((np.full((2, 4), 0.25), np.array([1.0 + _CHAIN, -3.0 - 3.0 * _CHAIN]), 1.0))
@example((np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]]),
          np.array([[1.0, 2.0, 5.0], [-4.0, -1.0, -1.0]]), 2.0))      # massless tops
@example((np.array([[0.2, 0.5, 0.3]]), np.array([[-7.0, -7.0, -7.0]]), 1.3))  # constant
@example((np.array([[0.3, 0.7], [0.4, 0.6]]), np.array([[0.0, 100.0], [5.0, 1.0]]), 0.0))
@example((np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]]), np.full((2, 3), -0.0), 1.0))  # sums to +0.0
def test_waterfill_rows_matches_per_row_kernel(batch):
    kernels, levels, radius = batch
    m = kernels.shape[0]
    want = [_waterfill(kernels[i], levels[i], radius) for i in range(m)]
    want_nu = np.array([w[0] for w in want])
    want_values = np.array([w[1] for w in want])
    # below the threshold the rows are the per-row kernel's bits
    assert kernels.size < BATCH_MIN_ENTRIES
    nu, values = _waterfill_rows(kernels, levels, radius)
    assert nu.tobytes() == want_nu.tobytes() and values.tobytes() == want_values.tobytes()
    # the same rows repeated past it take the vectorized pass, with the same
    # bits, the sign of a zero included
    reps = -(-BATCH_MIN_ENTRIES // kernels.size)
    big_kernels = np.tile(kernels, (reps, 1))
    if levels.strides[0] == 0:
        big_levels = np.broadcast_to(levels[0], big_kernels.shape)
    else:
        big_levels = np.tile(levels, (reps, 1))
    nu, values = _waterfill_rows(big_kernels, big_levels, radius)
    assert nu.tobytes() == np.tile(want_nu, (reps, 1)).tobytes()
    assert values.tobytes() == np.tile(want_values, reps).tobytes()


@settings(max_examples=150, deadline=None)
@given(_batches(), st.data())
def test_waterfill_rows_per_row_radius_matches_scalar_calls(batch, data):
    kernels, levels, _ = batch
    reps = -(-BATCH_MIN_ENTRIES // kernels.size)
    big_kernels = np.tile(kernels, (reps, 1))
    if levels.strides[0] == 0:
        big_levels = np.broadcast_to(levels[0], big_kernels.shape)
    else:
        big_levels = np.tile(levels, (reps, 1))
    # the per-row loop below the threshold, the vectorized pass above it
    for k, lv in ((kernels, levels), (big_kernels, big_levels)):
        m = k.shape[0]
        radii = np.array(data.draw(st.lists(_RADIUS, min_size=m, max_size=m)))
        nu, values = _waterfill_rows(k, lv, radii)
        for r in set(radii.tolist()):
            want_nu, want_values = _waterfill_rows(k, lv, r)
            rows = radii == r
            assert np.array_equal(nu[rows], want_nu[rows])
            assert np.array_equal(values[rows], want_values[rows])
    assert kernels.size < BATCH_MIN_ENTRIES <= big_kernels.size


def _groups_equal_levels_only(lv):
    part = partition_levels(lv)
    return all(len({lv[i] for i in g}) == 1 for g in (part.sigma_max, *part.sigma_levels))


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_waterfill_value_equals_the_dual_bound(batch):
    # the LP dual's least bound is the ball maximum; where the tie rule merges
    # exact ties only, the water-fill is that maximum up to rounding
    kernels, levels, radius = batch
    for mu, lv in zip(kernels, levels):
        if _groups_equal_levels_only(lv):
            value = waterfill_maximize(mu, lv, radius).value
            assert abs(value - dual_max_value(mu, lv, radius)) <= 1e-12 * max(1.0, abs(value))


@settings(max_examples=300, deadline=None)
@given(_batches())
@example((np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 6e-10]]), 2.0))
@example((np.array([[0.7861650426986189, 0.21381789503960014, 1.706226178099974e-05, 0.0]]),
          np.array([[998933.3320300195, 998933.3330214635, 1e6, 1000000.0009979225]]),
          1.9818648294986172))  # 0.996 of the bound, the worst of an adversarial search
def test_waterfill_value_is_within_the_tie_bound_of_the_dual(batch):
    # the water-fill is exact for the levels lowered to their sets' anchors,
    # which moves no level by more than the tie tolerance at the largest scale
    kernels, levels, radius = batch
    for mu, lv in zip(kernels, levels):
        value = waterfill_maximize(mu, lv, radius).value
        bound = DEFAULT_TIE_TOL * max(1.0, np.abs(lv).max()) + 1e-12 * max(1.0, abs(value))
        assert abs(value - dual_max_value(mu, lv, radius)) <= bound


def _reference_backup(model, v, radius, policy_idx=None):
    """Per (state, action) water-fill and the lowest action within the tie rule."""
    values, idx, rows = [], [], []
    for i in range(model.n_states):
        actions = range(len(model.actions[i])) if policy_idx is None else [policy_idx[i]]
        q, nus = [], []
        for a in actions:
            row = model.starts[i] + a
            payoff = model.cost_vector[row] + model.discount * v
            nu, value, _, _ = _waterfill(model.kernels[row], payoff, radius)
            q.append(model.cost_scalar[row] + value)
            nus.append(nu)
        best = min(q)
        k = next(k for k, x in enumerate(q) if x <= best + TIE * max(1.0, abs(best)))
        values.append(best)
        idx.append(actions[k])
        rows.append(nus[k])
    return np.array(values), np.array(idx), np.array(rows)


def _batched_model(cost, seed, n=20):
    """A seeded ``n``-state model with up to 4 actions per state."""
    rng = np.random.default_rng(seed)
    doc = random_model_doc(rng, min_states=n, max_states=n, max_actions=4,
                           vector_cost=cost == "vector", discount=0.8, radius=0.5)
    if cost == "sparse":
        # three nonzeros per row and integer costs: massless tops and ties
        for s, acts in doc["kernel"].items():
            for a in acts:
                row = np.zeros(n)
                row[rng.choice(n, size=3, replace=False)] = rng.dirichlet(np.ones(3))
                acts[a] = [float(x) for x in row]
                doc["cost"][s][a] = float(rng.integers(0, 4))
    return parse_model(doc)


# case -> (model, whether the full and the fixed-policy backups reach the
# vectorized pass); "straddle" has S·A·n >= 64 > S·n
BACKUP_CASES = {
    "scalar": (lambda: _batched_model("scalar", 81), (True, True)),
    "vector": (lambda: _batched_model("vector", 82), (True, True)),
    "sparse": (lambda: _batched_model("sparse", 83), (True, True)),
    "threestate": (lambda: load_example("threestate"), (False, False)),
    "machine": (stationary_machine, (False, False)),
    "straddle": (lambda: _batched_model("vector", 85, n=6), (True, False)),
}


def _assert_agree(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("case", sorted(BACKUP_CASES))
def test_batched_backup_matches_per_row_reference(case):
    build, batched = BACKUP_CASES[case]
    model = build()
    n = model.n_states
    # entries water-filled per call: every (state, action) row, or one per state
    per_call = (model.kernels.size, n * n)
    assert tuple(e >= BATCH_MIN_ENTRIES for e in per_call) == batched, per_call
    full_exact, fixed_exact = (not b for b in batched)
    rng = np.random.default_rng(84)
    for v in (np.zeros(n), rng.uniform(0.0, 30.0, n), np.round(rng.uniform(0.0, 4.0, n))):
        for r in (0.0, 0.3, 1.0, 2.0):
            got = _backup(model, v, r)
            want = _reference_backup(model, v, r)
            _assert_agree(got[0], want[0], full_exact)
            assert np.array_equal(got[1], want[1])
            _assert_agree(got[2], want[2], full_exact)
            policy = rng.integers(0, [len(a) for a in model.actions])
            got = _backup(model, v, r, policy_idx=policy)
            want = _reference_backup(model, v, r, policy_idx=policy)
            _assert_agree(got[0], want[0], fixed_exact)
            assert np.array_equal(got[1], policy)
            _assert_agree(got[2], want[2], fixed_exact)
            stationary = model.with_radius(r)
            worst = build_worst_kernels(stationary, v)
            assert worst.shape == model.kernels.shape
            for row, nominal in zip(worst, model.kernels):
                _assert_agree(row, _waterfill(nominal, v, r)[0], full_exact)

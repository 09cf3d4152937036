"""Acceptance gates: one test per criterion, one PASS/FAIL line each.

Each test prints its verdict to the real stdout (capture suspended for the
line) so a plain ``pytest tests/test_acceptance.py`` run shows the
checklist, then asserts. Tolerances and instance counts are part of the
contract; do not tighten or loosen them casually.
"""

import time

import numpy as np

from conftest import classical_backup, random_model
from tvdp import load_example
from tvdp.finite import solve_finite
from tvdp.infinite import (
    apply_bellman,
    policy_iteration,
    sweep_radius_infinite,
    value_iteration,
)
from tvdp.oracle import waterfill_maximize
from tvdp.verify import (
    RolloutConfig,
    brute_force_finite,
    dual_max_value,
    fuzz_waterfill,
    markov_sufficiency_check,
    monte_carlo_rollout,
)


def _report(capsys, num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_finite_horizon_table(machine, capsys):
    t0 = time.perf_counter()
    robust = solve_finite(machine)
    classical = solve_finite(machine.with_radius(0.0))
    elapsed = time.perf_counter() - t0

    ok = True
    for j, (want, pol) in enumerate([
        ((196.0, 216.0), ("m", "r")),
        ((128.0, 148.0), ("m", "r")),
        ((60.0, 80.0), ("m", "r")),
    ]):
        ok &= np.allclose(classical[j].values, want, atol=1e-9)
        ok &= classical[j].policy == pol
    for j, (want, pol) in enumerate([
        ((340.0, 360.0), ("m", "r")),
        ((221.0, 241.0), ("m", "r")),
        ((100.0, 122.0), ("nm", "r")),
    ]):
        ok &= bool(np.abs(np.asarray(robust[j].values) - want).max() <= 0.6)
        ok &= robust[j].policy == pol
    ok &= elapsed < 0.1
    _report(capsys, 1, "finite-horizon maintenance table at R=0 and R=0.85",
            ok, f"runtime {elapsed:.3f}s")


def test_criterion_2_infinite_horizon_example(threestate, capsys):
    t0 = time.perf_counter()
    pi_paper, trace = policy_iteration(
        threestate, initial_policy=("u1", "u2", "u2"), mode="paper"
    )
    vi = value_iteration(threestate, tol=1e-9)
    pi_fp, _ = policy_iteration(threestate, mode="fixed_point")
    elapsed = time.perf_counter() - t0

    gap = float(np.abs(vi.values - pi_fp.values).max())
    ok = trace.improvement_iterations == 2
    ok &= pi_paper.policy == ("u2", "u1", "u2")
    ok &= bool(np.abs(pi_paper.values - np.array([6.79, 7.43, 6.32])).max() <= 0.02)
    ok &= gap <= 1e-6
    ok &= elapsed < 0.5
    _report(capsys, 2, "two policy-iteration sweeps reach (u2,u1,u2); vi agrees with pi",
            ok, f"iters {trace.improvement_iterations}, vi-pi gap {gap:.1e}, "
            f"runtime {elapsed:.3f}s")


def test_criterion_3_oracle_certification(capsys):
    t0 = time.perf_counter()
    report = fuzz_waterfill(instances=10000, seed=0, max_size=8)
    worst_two_point = 0.0
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p = rng.uniform(0.0, 1.0)
        mu = np.array([p, 1.0 - p])
        lv = rng.uniform(-100.0, 100.0, 2)
        r = rng.choice([0.0, 2.0, rng.uniform(0.0, 2.0)])
        gap = abs(dual_max_value(mu, lv, r) - waterfill_maximize(mu, lv, r).value)
        worst_two_point = max(worst_two_point, gap)
    elapsed = time.perf_counter() - t0

    ok = report.failures == 0
    ok &= report.max_violation <= 1e-9
    ok &= worst_two_point <= 1e-12
    ok &= elapsed < 30.0
    _report(capsys, 3, "10^4 fuzzed ball maximizations proved; 2-point dual bound agrees",
            ok, f"max violation {report.max_violation:.1e}, two-point gap "
            f"{worst_two_point:.1e}, runtime {elapsed:.1f}s")


def test_criterion_4_contraction(capsys):
    rng = np.random.default_rng(8)
    worst = 0.0
    ok = True
    for _ in range(100):
        model = random_model(
            rng, max_states=5, max_actions=3, vector_cost=bool(rng.integers(2))
        )
        v1 = rng.uniform(-50.0, 150.0, model.n_states)
        v2 = rng.uniform(-50.0, 150.0, model.n_states)
        t1, _ = apply_bellman(model, v1)
        t2, _ = apply_bellman(model, v2)
        slack = float(np.abs(t1 - t2).max()
                      - model.discount * np.abs(v1 - v2).max())
        worst = max(worst, slack)
        ok &= slack <= 1e-12
    _report(capsys, 4, "Bellman operator contracts with modulus alpha on 100 random triples",
            ok, f"max excess {worst:.1e}")


def test_criterion_5_monotone_concave_sweeps(machine, threestate, capsys):
    """Monotone everywhere; concave only where the payoff is fixed in R.

    A ball maximization is concave in R for a fixed payoff, so the machine
    model's last decision stage (payoff = terminal cost) is concave. Earlier
    stages back up payoffs that themselves grow with R, and the stage-0
    curve is convex on [0.90, 1.20]; those forward differences are pinned
    here and reproduced by the LP solver in test_lp_crosscheck.py.
    """
    grid = [round(0.05 * k, 10) for k in range(41)]
    # machine_curves[k, j, i]: stage-j value of state i at radius grid[k]
    machine_curves = np.array([
        [plan.values for plan in solve_finite(machine.with_radius(r))] for r in grid
    ])
    threestate_curve = np.array(
        [p.values for p in sweep_radius_infinite(threestate, grid)]
    )

    min_d1 = min(float(np.diff(machine_curves, axis=0).min()),
                 float(np.diff(threestate_curve, axis=0).min()))
    max_d2 = max(
        float(np.diff(machine_curves[:, machine.horizon - 1], axis=0, n=2).max()),
        float(np.diff(threestate_curve, axis=0, n=2).max()),
    )
    lo, hi = grid.index(0.9), grid.index(1.2)
    running = machine.states.index("running")
    stretch = np.diff(machine_curves[lo:hi + 1, 0, running])
    stretch_gap = float(np.abs(stretch - (5.3125 + 0.125 * np.arange(6))).max())

    ok = min_d1 >= -1e-12
    ok &= max_d2 <= 1e-9
    ok &= stretch_gap <= 1e-9
    _report(capsys, 5, "radius sweeps are non-decreasing; concave where the payoff "
            "is fixed; machine stage-0 convex stretch pinned",
            ok, f"min fwd diff {min_d1:.1e}; max 2nd diff (machine stage "
            f"{machine.horizon - 1}, threestate) {max_d2:.1e}; "
            f"stage-0 stretch on [0.90, 1.20] off by {stretch_gap:.1e}")


def test_criterion_6_brute_force_equivalence(machine, capsys):
    rng = np.random.default_rng(9)
    worst = 0.0
    ok = True
    for _ in range(100):
        model = random_model(
            rng, max_states=3, max_actions=2, horizon=int(rng.integers(1, 4))
        )
        gap = float(np.abs(
            brute_force_finite(model).values - solve_finite(model)[0].values
        ).max())
        worst = max(worst, gap)
        ok &= gap <= 1e-9
    machine_gap = float(np.abs(
        brute_force_finite(machine).values - solve_finite(machine)[0].values
    ).max())
    ok &= machine_gap <= 1e-9

    history_worst = 0.0
    radii = (0.0, 0.4, 1.0)
    for k in range(20):
        model = random_model(
            rng, max_states=2, min_states=2, max_actions=2,
            horizon=int(rng.integers(1, 4)), radius=radii[k % 3],
        )
        rep = markov_sufficiency_check(model)
        history_worst = max(history_worst, rep.max_gap)
        ok &= rep.max_gap <= 1e-9
    _report(capsys, 6, "exhaustive Markov and history policies match backward induction",
            ok, f"markov gap {max(worst, machine_gap):.1e}, "
            f"history gap {history_worst:.1e}")


def test_criterion_7_classical_reduction(capsys):
    rng = np.random.default_rng(10)
    worst = 0.0
    ok = True
    for _ in range(50):
        model = random_model(
            rng, max_states=4, max_actions=3,
            horizon=int(rng.integers(1, 5)), radius=0.0,
        )
        plans = solve_finite(model)
        expect = [model.terminal_cost]
        for _ in range(model.horizon):
            expect.insert(0, classical_backup(model, expect[0]))
        gap = max(
            float(np.abs(plans[j].values - expect[j]).max())
            for j in range(model.horizon + 1)
        )
        worst = max(worst, gap)
        ok &= gap <= 1e-12
    for _ in range(50):
        model = random_model(rng, max_states=4, max_actions=3, radius=0.0)
        sol = value_iteration(model)
        ref = np.zeros(model.n_states)
        for _ in range(sol.iterations):
            prev, ref = ref, classical_backup(model, ref)
        # VI returns the midpoint of MacQueen's bracket around its last iterate
        d = ref - prev
        ref = ref + model.discount / (1.0 - model.discount) * (d.min() + d.max()) / 2.0
        gap = float(np.abs(sol.values - ref).max())
        worst = max(worst, gap)
        ok &= gap <= 1e-12
    _report(capsys, 7, "R=0 reproduces classical DP on 100 random models",
            ok, f"max gap {worst:.1e}")


def test_criterion_8_monte_carlo_consistency(threestate, capsys):
    t0 = time.perf_counter()
    sol = value_iteration(threestate)
    worst = monte_carlo_rollout(
        threestate, sol.policy,
        RolloutConfig(episodes=100000, seed=0, kernel_choice="worst"),
        kernels=sol.worst_kernel_matrix,
    )
    nominal = monte_carlo_rollout(
        threestate, sol.policy, RolloutConfig(episodes=100000, seed=0)
    )
    elapsed = time.perf_counter() - t0

    sigmas = np.abs(worst.means - sol.values) / worst.std_errors
    ok = bool(np.all(sigmas <= 3.0))
    ok &= bool(np.all(nominal.means <= sol.values + 3.0 * nominal.std_errors))
    ok &= elapsed < 60.0
    _report(capsys, 8, "10^5-episode rollouts agree with the solved values",
            ok, f"worst-kernel deviations {np.round(sigmas, 2)} sigma, "
            f"runtime {elapsed:.1f}s")

"""Independent checks of tvdp results.

Nothing here imports tvdp. Models are read from the same JSON documents the
benchmark hands to ``tvdp.parse_model``, every ball maximum is solved as a
linear program by HiGHS (``scipy.optimize.linprog``), policy values come from
direct linear solves, and the paper's published numbers are typed in.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from dataclasses import dataclass

import numpy as np

# LP vertices are exact up to LU rounding; this leaves room for the stopping
# tolerances of VI (1e-9) and of the fixed-point polish.
VALUE_TOL = 1e-7
ROW_TOL = 1e-9
MONOTONE_TOL = 1e-9
SIGMAS = 4.0
LP_BLOCKS = 256   # ball problems per LP; HiGHS slows down on larger stacks

# published in the paper: three-week machine replacement plan at R = 0.85
MACHINE_TABLE = (
    ((340.0625, 360.0625), ("m", "r")),
    ((221.0625, 241.0625), ("m", "r")),
    ((100.0, 122.5), ("nm", "r")),
)
# the paper's policy-iteration example on threestate, started from (u1, u2, u2)
PI_EXAMPLE_VALUES = (265 / 39, 290 / 39, 740 / 117)
PI_EXAMPLE_POLICY = ("u2", "u1", "u2")
PI_EXAMPLE_ITERATIONS = 2


@dataclass(frozen=True)
class Mdp:
    """A model document as dense arrays: P[x, a, z], f[x, a], c[x, a, z]."""

    states: tuple
    actions: tuple
    P: np.ndarray
    f: np.ndarray
    c: np.ndarray
    discount: float
    radius: object
    horizon: object
    terminal: np.ndarray

    @classmethod
    def from_doc(cls, doc):
        states = tuple(doc["states"])
        actions = tuple(tuple(doc["actions"][s]) for s in states)
        n, m = len(states), max(len(a) for a in actions)
        if any(len(a) != m for a in actions):
            raise ValueError("checks expect the same number of actions at every state")
        P = np.zeros((n, m, n))
        f = np.zeros((n, m))
        c = np.zeros((n, m, n))
        for i, s in enumerate(states):
            for k, a in enumerate(actions[i]):
                row = np.asarray(doc["kernel"][s][a], dtype=float)
                P[i, k] = row / row.sum()
                cost = doc["cost"][s][a]
                if isinstance(cost, list):
                    c[i, k] = cost
                else:
                    f[i, k] = cost
        radius = doc["radius"]
        radius = tuple(radius) if isinstance(radius, list) else float(radius)
        terminal = np.asarray(doc.get("terminal_cost", np.zeros(n)), dtype=float)
        return cls(states, actions, P, f, c, float(doc["discount"]), radius,
                   doc.get("horizon"), terminal)

    @property
    def n(self):
        return len(self.states)

    def with_radius(self, radius):
        return Mdp(self.states, self.actions, self.P, self.f, self.c, self.discount,
                   radius, self.horizon, self.terminal)

    def with_horizon(self, horizon):
        return Mdp(self.states, self.actions, self.P, self.f, self.c, self.discount,
                   self.radius, horizon, self.terminal)

    def stage_radius(self, j):
        """Radius of the kernel that stage j's backup perturbs (R_{j+1})."""
        return self.radius[j + 1] if isinstance(self.radius, tuple) else self.radius

    def policy_idx(self, labels):
        return np.array([self.actions[i].index(a) for i, a in enumerate(labels)])


# ---------------------------------------------------------------------------
# ball maxima as linear programs


def ball_max(mus, payoffs, radii):
    """``max <payoff_k, nu>`` over the unhalved TV ball around ``mu_k``, all k.

    The problems are independent, so they are stacked into block LPs in
    ``(nu_k, t_k)`` with ``|nu_k - mu_k| <= t_k`` and ``sum t_k <= r_k``; an
    optimum of the sum is an optimum of every block. Returns the values (K,)
    and the maximizers (K, n).
    """
    mus = np.atleast_2d(np.asarray(mus, dtype=float))
    payoffs = np.atleast_2d(np.asarray(payoffs, dtype=float))
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (mus.shape[0],))
    nu = np.concatenate([
        _block_lp(mus[k:k + LP_BLOCKS], payoffs[k:k + LP_BLOCKS], radii[k:k + LP_BLOCKS])
        for k in range(0, mus.shape[0], LP_BLOCKS)
    ])
    return np.einsum("kn,kn->k", payoffs, nu), nu


def _block_lp(mus, payoffs, radii):
    # imported here so that scipy stays out of the timed process until checks run
    from scipy import sparse
    from scipy.optimize import linprog

    k, n = mus.shape
    eye = np.eye(n)
    block_ub = np.block([
        [eye, -eye],
        [-eye, -eye],
        [np.zeros((1, n)), np.ones((1, n))],
    ])
    block_eq = np.concatenate([np.ones(n), np.zeros(n)])[None, :]
    ident = sparse.identity(k, format="csr")
    res = linprog(
        np.concatenate([-payoffs, np.zeros((k, n))], axis=1).ravel(),
        A_ub=sparse.kron(ident, block_ub, format="csr"),
        b_ub=np.concatenate([mus, -mus, radii[:, None]], axis=1).ravel(),
        A_eq=sparse.kron(ident, block_eq, format="csr"),
        b_eq=np.ones(k),
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"ball LP failed: {res.message}")
    return res.x.reshape(k, 2 * n)[:, :n]


def q_values(mdp, values, radius):
    """Robust Q(x, a) = f + max over the ball of <c + discount*v, nu>, by LP."""
    return q_values_many(mdp, [values], [radius])[0]


def q_values_many(mdp, values_list, radii):
    """``q_values`` for several (values, radius) pairs in one LP."""
    n, m = mdp.P.shape[:2]
    mus = np.tile(mdp.P.reshape(n * m, n), (len(values_list), 1))
    payoff = np.concatenate([
        (mdp.c + mdp.discount * np.asarray(v, dtype=float)[None, None, :]).reshape(n * m, n)
        for v in values_list
    ])
    rads = np.repeat(np.asarray(radii, dtype=float), n * m)
    vals, _ = ball_max(mus, payoff, rads)
    return mdp.f[None] + vals.reshape(len(values_list), n, m)


def lp_backward_induction(mdp, radii):
    """Stage-0 robust values at each scalar radius, every ball max an LP."""
    radii = list(radii)
    v = [mdp.terminal.copy() for _ in radii]
    for _ in range(mdp.horizon):
        v = list(q_values_many(mdp, v, radii).min(axis=2))
    return np.array(v)


def lp_stage0(mdp):
    """Stage-0 robust values of the model's own (per-stage) radii, by LP."""
    v = mdp.terminal.copy()
    for j in range(mdp.horizon - 1, -1, -1):
        v = q_values(mdp, v, mdp.stage_radius(j)).min(axis=1)
    return v


def worst_policy_kernel(mdp, policy_idx):
    """The adversary's kernel rows against a fixed stationary policy.

    Policy iteration for the adversary: evaluate the current kernel rows by a
    linear solve, then let every row jump to an LP maximizer, until the values
    stop moving. Returns (values, kernel rows).
    """
    rows = np.arange(mdp.n)
    mu = mdp.P[rows, policy_idx]
    f = mdp.f[rows, policy_idx]
    c = mdp.c[rows, policy_idx]
    kernel = mu.copy()
    values = None
    for _ in range(100):
        new = linear_policy_value(mdp.discount, kernel, f, c)
        if values is not None and np.abs(new - values).max() <= 1e-12 * _scale(new):
            return new, kernel
        values = new
        _, kernel = ball_max(mu, c + mdp.discount * values[None, :], mdp.radius)
    raise RuntimeError("adversary policy iteration did not settle")


def truncated_policy_value(mdp, policy_idx, kernel, steps):
    """Expected discounted cost of the first ``steps`` transitions under ``kernel``."""
    rows = np.arange(mdp.n)
    cost = mdp.f[rows, policy_idx] + np.einsum("xz,xz->x", kernel, mdp.c[rows, policy_idx])
    v = np.zeros(mdp.n)
    for _ in range(steps):
        v = cost + mdp.discount * kernel @ v
    return v


def linear_policy_value(discount, kernel, f, c):
    """Solve ``v = f + kernel @ c_row + discount * kernel @ v`` directly."""
    n = kernel.shape[0]
    cost = f + np.einsum("xz,xz->x", kernel, c)
    return np.linalg.solve(np.eye(n) - discount * kernel, cost)


# ---------------------------------------------------------------------------
# checks


def _scale(values):
    return max(1.0, float(np.abs(values).max()))


def check_close(name, got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    gap = float(np.abs(got - want).max())
    if not gap <= tol * _scale(want):
        return [f"{name}: off by {gap:.3e}"]
    return []


def check_rows_in_ball(name, rows, nominal, radius):
    """Every row is a distribution within ``radius`` of its nominal row."""
    rows = np.asarray(rows, dtype=float)
    problems = []
    if rows.min() < -ROW_TOL or np.abs(rows.sum(axis=-1) - 1.0).max() > ROW_TOL:
        problems.append(f"{name}: worst-kernel row is not a distribution")
    if np.abs(rows - nominal).sum(axis=-1).max() > radius + ROW_TOL:
        problems.append(f"{name}: worst-kernel row leaves the ball")
    return problems


def check_backup(mdp, values, policy_labels, worst_rows, radius, next_values=None,
                 name="backup", q=None):
    """``values`` equal the LP backup of ``next_values`` (default: themselves).

    Also checks that the reported actions attain the minimum and that each
    worst row is a maximizer in the ball under the reported action. ``q`` may
    pass in the LP Q-values when a caller batched them.
    """
    values = np.asarray(values, dtype=float)
    nxt = values if next_values is None else np.asarray(next_values, dtype=float)
    if q is None:
        q = q_values(mdp, nxt, radius)
    tol = VALUE_TOL * _scale(q)
    problems = check_close(f"{name} residual", values, q.min(axis=1), VALUE_TOL)
    idx = mdp.policy_idx(policy_labels)
    rows = np.arange(mdp.n)
    if np.any(q[rows, idx] > q.min(axis=1) + tol):
        problems.append(f"{name}: reported action is not greedy")
    if worst_rows is not None:
        problems += check_rows_in_ball(name, worst_rows, mdp.P[rows, idx], radius)
        attained = mdp.f[rows, idx] + np.einsum(
            "xz,xz->x", worst_rows, mdp.c[rows, idx] + mdp.discount * nxt[None, :])
        problems += check_close(f"{name} worst rows", attained, q[rows, idx], VALUE_TOL)
    return problems


def check_stationary(mdp, sol, name="stationary"):
    """A StationarySolution is a fixed point of the LP robust operator."""
    return check_backup(mdp, sol.values, sol.policy, sol.worst_kernel_matrix, mdp.radius,
                        name=name)


def check_frozen_pi(mdp, sol, trace, name="pi"):
    """Policy iteration against frozen kernels (``paper`` mode).

    The values must be the exact value of the policy under the returned
    kernel rows, those rows must lie in the ball, and every step's nominal
    values must match a direct solve under the nominal kernel.
    """
    idx = mdp.policy_idx(sol.policy)
    rows = np.arange(mdp.n)
    problems = check_rows_in_ball(name, sol.worst_kernel_matrix, mdp.P[rows, idx],
                                  mdp.radius)
    frozen = linear_policy_value(mdp.discount, sol.worst_kernel_matrix,
                                 mdp.f[rows, idx], mdp.c[rows, idx])
    problems += check_close(f"{name} frozen values", sol.values, frozen, VALUE_TOL)
    for step in trace.steps:
        problems += check_nominal(mdp, step.policy, step.nominal_values,
                                  name=f"{name} step {step.iteration}")
    return problems


def check_nominal(mdp, policy_labels, values, name="nominal"):
    idx = mdp.policy_idx(policy_labels)
    rows = np.arange(mdp.n)
    want = linear_policy_value(mdp.discount, mdp.P[rows, idx], mdp.f[rows, idx],
                               mdp.c[rows, idx])
    return check_close(name, values, want, VALUE_TOL)


def check_finite_plans(mdp, plans, name="finite"):
    """Every stage of a backward induction is the LP backup of the next one."""
    if len(plans) != mdp.horizon + 1:
        return [f"{name}: {len(plans)} plans for horizon {mdp.horizon}"]
    problems = check_close(f"{name} terminal", plans[-1].values, mdp.terminal, 0.0)
    stages = range(mdp.horizon)
    q = q_values_many(mdp, [plans[j + 1].values for j in stages],
                      [mdp.stage_radius(j) for j in stages])
    for j in stages:
        problems += check_backup(mdp, plans[j].values, plans[j].policy,
                                 plans[j].worst_kernels, mdp.stage_radius(j),
                                 next_values=plans[j + 1].values, name=f"{name} stage {j}",
                                 q=q[j])
    return problems


def check_monotone(name, curves):
    """Values along a radius grid never decrease (rows: grid points)."""
    curves = np.asarray(curves, dtype=float)
    drop = float(np.diff(curves, axis=0).min()) if len(curves) > 1 else 0.0
    if drop < -MONOTONE_TOL * _scale(curves):
        return [f"{name}: values fall by {-drop:.3e} as R grows"]
    return []


def check_sweep_stationary(mdp, points, name="sweep"):
    """Each sweep point is an LP fixed point at its radius; curves monotone."""
    radii = [p.radius for p in points]
    values = [p.values for p in points]
    q = q_values_many(mdp, values, radii)
    problems = check_close(f"{name} residual", values, q.min(axis=2), VALUE_TOL)
    for p, qp in zip(points, q):
        idx = mdp.policy_idx(p.policy)
        if np.any(qp[np.arange(mdp.n), idx] > qp.min(axis=1) + VALUE_TOL * _scale(qp)):
            problems.append(f"{name} R={p.radius}: reported action is not greedy")
    return problems + check_monotone(name, values)


def check_sweep_finite(mdp, radii, curves, name="sweep"):
    """Stage-0 values along a grid equal LP backward induction; monotone."""
    want = lp_backward_induction(mdp, radii)
    return (check_close(f"{name} values", curves, want, VALUE_TOL)
            + check_monotone(name, curves))


def check_rollout(name, means, std_errors, exact):
    """Monte Carlo means lie within four standard errors of the exact values.

    ``exact`` is the expectation of the truncated return the rollout
    estimates; a start state whose returns are all equal has a standard error
    of 0 and must match to rounding.
    """
    means = np.asarray(means, dtype=float)
    exact = np.asarray(exact, dtype=float)
    slack = SIGMAS * np.asarray(std_errors, dtype=float) + 1e-9 * _scale(exact)
    gap = np.abs(means - exact)
    if np.any(gap > slack):
        k = int(np.argmax(gap / slack))
        return [f"{name}: mean {means[k]:.6g} vs exact {exact[k]:.6g} "
                f"({gap[k] / max(std_errors[k], 1e-300):.1f} standard errors)"]
    return []


def check_machine_table(plans_values, plans_policies, name="machine table"):
    """The paper's three-week plan at R = 0.85 (stage values and actions)."""
    problems = []
    for j, (want, policy) in enumerate(MACHINE_TABLE):
        problems += check_close(f"{name} stage {j}", plans_values[j], want, 1e-9)
        if tuple(plans_policies[j]) != policy:
            problems.append(f"{name} stage {j}: policy {plans_policies[j]} != {policy}")
    return problems


def check_pi_example(values, policy, iterations=None, name="pi example"):
    """The paper's policy-iteration example: (u2, u1, u2), values 6.79487..."""
    problems = check_close(name, values, PI_EXAMPLE_VALUES, 1e-9)
    if tuple(policy) != PI_EXAMPLE_POLICY:
        problems.append(f"{name}: policy {policy} != {PI_EXAMPLE_POLICY}")
    if iterations is not None and iterations != PI_EXAMPLE_ITERATIONS:
        problems.append(f"{name}: {iterations} improvement iterations, expected 2")
    return problems


def check_oracle(name, mu, levels, radius, maximizer, value):
    """A claimed ball maximum equals the LP maximum and is attained in the ball."""
    want, _ = ball_max(mu, levels, radius)
    problems = check_close(f"{name} value", [value], want, VALUE_TOL)
    problems += check_close(f"{name} attained", [np.dot(levels, maximizer)], want,
                            VALUE_TOL)
    return problems + check_rows_in_ball(name, [maximizer], mu, radius)

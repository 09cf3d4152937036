"""Independent verification oracles and a Monte Carlo rollout estimator.

Nothing here reuses solver reasoning: every ball maximum is the exact LP dual
bound (no water-fill, no tie rule), so a certificate is a proof. The
finite-horizon checks enumerate policies outright, and the rollout estimates
values by simulation. The acceptance tests are built on these tools.
"""

import itertools
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .finite import solve_finite
from .model import ModelError, dumps_canonical
from .oracle import _as_instance, _as_reals, as_distribution, waterfill_maximize

log = logging.getLogger("tvdp.verify")

OPTIMALITY_TOL = 1e-9
# target for the truncation bias of an automatically capped rollout
STAT_TOL = 1e-5
# episodes per rollout chunk, each chunk with its own spawned generator
CHUNK_SIZE = 16384
# entries of a chunk's state vector (episodes times start states) whose next
# states are drawn in one comparison with their cumulative kernel rows: the
# (rows, S) temporary has at most this many rows
_DRAW_BLOCK = 2**16
FEASIBILITY_TOL = 1e-12
# most policies the exhaustive checks enumerate: Markov policies in
# brute_force_finite, history-dependent ones in markov_sufficiency_check
BRUTE_FORCE_BUDGET = 10**6
MARKOV_BUDGET = 2**17


@dataclass(frozen=True)
class CertifyReport:
    """Outcome of a certification campaign (one instance or many merged)."""

    check: str
    instances: int
    failures: int
    max_violation: float
    seed: int

    @property
    def passed(self):
        return self.failures == 0

    def to_json(self):
        return dumps_canonical(
            {
                "check": self.check,
                "instances": self.instances,
                "failures": self.failures,
                "max_violation": self.max_violation,
                "seed": self.seed,
            }
        ) + "\n"


def certify_waterfill(mu, levels, radius, candidate, seed=0):
    """Prove or refute a claimed ball maximizer by the exact dual bound.

    The candidate (a WaterfillResult or a bare vector) fails when it leaves
    the simplex, leaves the TV ball, claims a value off ``<levels, nu>``, or
    claims a value below the ball maximum that :func:`dual_max_value` proves.
    The two value checks allow ``OPTIMALITY_TOL * max(1, max |levels|)``, the
    scale on which the oracle's tie rule merges near-ties. ``max_violation``
    is the excess of the bound over the claimed value, or 0 when there is
    none. ``seed`` draws nothing; it only labels the report.
    ``mu``, ``levels`` and ``radius`` are checked as the oracle checks them;
    a candidate or claimed value that is not finite raises ``ValueError``.
    """
    p, lv, r = _as_instance(mu, levels, radius)
    nu = _as_reals(getattr(candidate, "maximizer", candidate), "candidate")
    if nu.shape != p.shape:
        raise ValueError("candidate shape does not match mu")
    achieved = float(lv @ nu)
    value = float(getattr(candidate, "value", achieved))
    if not (np.all(np.isfinite(nu)) and math.isfinite(value)):
        raise ValueError("candidate maximizer and claimed value must be finite")

    tol = OPTIMALITY_TOL * max(1.0, float(np.abs(lv).max()))
    failed = False
    if abs(value - achieved) > tol:
        log.warning("claimed value %s disagrees with <levels, maximizer> %s", value, achieved)
        failed = True
    if nu.min() < -FEASIBILITY_TOL or abs(nu.sum() - 1.0) > FEASIBILITY_TOL:
        log.warning("candidate is not a distribution (min %s, sum %s)", nu.min(), nu.sum())
        failed = True
    if float(np.abs(nu - p).sum()) > r + FEASIBILITY_TOL:
        log.warning("candidate leaves the TV ball: %s > %s", np.abs(nu - p).sum(), r)
        failed = True

    bound = float(_dual_max_rows(p[None, :], lv[None, :], r)[0])
    violation = max(bound - value, 0.0)
    if violation > tol:
        log.warning("candidate beaten by %.3e", violation)
        failed = True
    return CertifyReport(
        check="waterfill_optimality",
        instances=1,
        failures=int(failed),
        max_violation=violation,
        seed=seed,
    )


def fuzz_waterfill(instances=10000, seed=0, max_size=8):
    """Fuzz the water-fill oracle: random instances, each maximizer certified.

    ``max_violation`` is the worst excess of the dual bound over a claimed value.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if max_size < 2:
        raise ValueError(f"max_size must be at least 2, got {max_size}")
    rng = np.random.default_rng(seed)
    failures = 0
    max_violation = 0.0
    for _ in range(instances):
        mu, lv, r = _random_instance(rng, max_size)
        result = waterfill_maximize(mu, lv, r)
        # each instance once drew a seed for random ball probes; the draw
        # stays so that every seed keeps its stream of instances
        rng.integers(2**63)
        sub = certify_waterfill(mu, lv, r, result)
        failures += sub.failures
        max_violation = max(max_violation, sub.max_violation)
    report = CertifyReport(
        check="waterfill_optimality",
        instances=instances,
        failures=failures,
        max_violation=max_violation,
        seed=seed,
    )
    log.info("fuzz_waterfill: %s", report)
    return report


def dual_max_value(mu, levels, radius):
    """Exact maximum of ``<levels, nu>`` over the TV ball of ``radius`` around ``mu``.

    The least over levels ``lam`` of the LP dual bound ``<levels, mu> +
    (radius/2)(max levels - lam) + sum_x mu(x)(lam - levels(x))^+`` (Iyengar
    2005; Nilim and El Ghaoui 2005), at any alphabet size; no water-fill.
    """
    p, lv, r = _as_instance(mu, levels, radius)
    return float(_dual_max_rows(p[None, :], lv[None, :], r)[0])


# ---------------------------------------------------------------------------
# exhaustive finite-horizon checks


@dataclass(frozen=True)
class BruteForceResult:
    values: np.ndarray
    policies: tuple
    enumerated: int


def brute_force_finite(model):
    """Componentwise-minimal worst-case values over all Markov policies.

    Enumerates every deterministic per-stage action assignment and evaluates
    each with the fixed-policy adversary (dual bound); no backward-induction
    shortcut. ``policies[i]`` records a policy attaining the minimum at i.
    """
    if not model.is_finite:
        raise ModelError("brute_force_finite needs a model with a horizon")
    stage_space = list(itertools.product(*[range(len(a)) for a in model.actions]))
    total = len(stage_space) ** model.horizon
    if total > BRUTE_FORCE_BUDGET:
        raise ModelError(f"enumeration of {total} policies exceeds budget {BRUTE_FORCE_BUDGET}")
    n = model.n_states
    radii = model.stage_radii()
    best = np.full(n, np.inf)
    best_pol = [None] * n
    for assignment in itertools.product(stage_space, repeat=model.horizon):
        vals = model.terminal_cost
        for j in range(model.horizon - 1, -1, -1):
            vals = _policy_backup(model, model.starts + assignment[j], vals, radii[j + 1])
        for i in range(n):
            if vals[i] < best[i]:
                best[i] = vals[i]
                best_pol[i] = assignment
    return BruteForceResult(values=best, policies=tuple(best_pol), enumerated=total)


@dataclass(frozen=True)
class MarkovSufficiencyReport:
    markov_values: np.ndarray
    history_values: np.ndarray
    max_gap: float
    policies_enumerated: int
    passed: bool


def markov_sufficiency_check(model):
    """History-dependent policies cannot beat the Markov optimum.

    Enumerates every deterministic history-dependent policy of a tiny model
    (an action choice per state-history node), evaluates each against the
    per-stage adversary (dual bound), and compares the componentwise minimum
    with the backward-induction values; the check passes when they differ by
    at most ``OPTIMALITY_TOL * max(1, max |markov values|)``, the scale of
    :func:`certify_waterfill`. Oracle evaluations are memoized by (stage,
    state, action, child values), which dedupes identical pure computations
    without skipping any policy.
    """
    if not model.is_finite:
        raise ModelError("markov_sufficiency_check needs a model with a horizon")
    n = model.n_states
    n_stage = model.horizon
    radii = model.stage_radii()
    terminal = model.terminal_cost

    nodes = []     # nodes[j]: list of state-index histories of length j+1
    for j in range(n_stage):
        nodes.append(list(itertools.product(range(n), repeat=j + 1)))
    flat = [(j, h) for j in range(n_stage) for h in nodes[j]]
    choice_sizes = [len(model.actions[h[-1]]) for _, h in flat]
    total = 1
    for m in choice_sizes:
        total *= m
    if total > MARKOV_BUDGET:
        raise ModelError(
            f"enumeration of {total} history policies exceeds budget {MARKOV_BUDGET}"
        )
    node_pos = {key: k for k, key in enumerate(flat)}

    memo = {}

    def backed_up(j, x, a, child_vals):
        key = (j, x, a, child_vals)
        out = memo.get(key)
        if out is None:
            rows = [model.starts[x] + a]
            out = float(_policy_backup(model, rows, np.asarray(child_vals), radii[j + 1])[0])
            memo[key] = out
        return out

    history_best = np.full(n, np.inf)
    terminal_tuple = tuple(float(t) for t in terminal)
    for policy in itertools.product(*[range(m) for m in choice_sizes]):
        vals = {}
        for j in range(n_stage - 1, -1, -1):
            for h in nodes[j]:
                x = h[-1]
                a = policy[node_pos[(j, h)]]
                if j + 1 == n_stage:
                    children = terminal_tuple
                else:
                    children = tuple(vals[(j + 1, h + (z,))] for z in range(n))
                vals[(j, h)] = backed_up(j, x, a, children)
        for x in range(n):
            root = vals[(0, (x,))]
            if root < history_best[x]:
                history_best[x] = root

    markov = solve_finite(model)[0].values
    gap = float(np.abs(history_best - markov).max())
    report = MarkovSufficiencyReport(
        markov_values=markov,
        history_values=history_best,
        max_gap=gap,
        policies_enumerated=total,
        passed=bool(gap <= OPTIMALITY_TOL * max(1.0, float(np.abs(markov).max()))),
    )
    log.info("markov_sufficiency_check: gap %.3e over %d policies", gap, total)
    return report


# ---------------------------------------------------------------------------
# Monte Carlo rollout


@dataclass(frozen=True)
class RolloutConfig:
    """Simulation settings.

    ``horizon_cap=None`` derives the smallest cap with truncation bias
    ``discount**cap * f_max / (1 - discount) <= STAT_TOL / 10``; an explicit
    cap must be at least 1. ``kernel_choice`` is "nominal" or "worst".
    Episodes are simulated in chunks of ``CHUNK_SIZE`` whose generators spawn
    deterministically from the seed, so results are bit-identical for a given
    config no matter how many worker threads (``jobs``, at least 1) run the
    chunks.
    """

    episodes: int
    horizon_cap: object = None
    seed: int = 0
    kernel_choice: str = "nominal"
    jobs: int = 1


@dataclass(frozen=True)
class RolloutSummary:
    means: np.ndarray
    std_errors: np.ndarray
    episodes: int
    horizon_cap: int
    seed: int
    kernel_choice: str


def monte_carlo_rollout(model, policy, config, kernels=None):
    """Estimate discounted policy cost from every start state by simulation.

    ``kernels`` supplies the (n, n) transition matrix under the policy when
    ``config.kernel_choice`` is "worst" (a solved StationarySolution's
    ``worst_kernel_matrix``, or the adversary's rows against the policy); the
    nominal matrix is the model's rows under the policy otherwise.
    """
    if model.is_finite:
        raise ModelError("monte_carlo_rollout needs a stationary model")
    if config.episodes < 1:
        raise ModelError("need at least one episode per start state")
    if config.horizon_cap is not None and config.horizon_cap < 1:
        raise ModelError(f"horizon cap must be at least 1, got {config.horizon_cap}")
    if config.jobs < 1:
        raise ModelError(f"jobs must be at least 1, got {config.jobs}")
    idx = model.policy_indices(policy)
    n = model.n_states

    if config.kernel_choice == "nominal":
        mat = model.kernels[model.starts + idx]
    elif config.kernel_choice == "worst":
        if kernels is None:
            raise ModelError(
                "kernel_choice='worst' requested but no kernel matrix provided; "
                "solve the model first"
            )
        mat = np.asarray(kernels, dtype=np.float64)
        if mat.shape != (n, n):
            raise ModelError("kernel matrix must be n-by-n")
        mat = np.array([as_distribution(row, sum_tol=1e-9, entry_tol=1e-9) for row in mat])
    else:
        raise ModelError(f"unknown kernel_choice {config.kernel_choice!r}")

    cap = config.horizon_cap
    if cap is None:
        cap = _auto_cap(model.discount, model.max_stage_cost())
    cost = model.transition_cost_matrix(idx)
    cum = mat.cumsum(axis=1)
    cum[:, -1] = 1.0

    n_chunks = -(-config.episodes // CHUNK_SIZE)
    seeds = np.random.SeedSequence(config.seed).spawn(n_chunks)
    sizes = [min(CHUNK_SIZE, config.episodes - c * CHUNK_SIZE) for c in range(n_chunks)]

    def run_chunk(args):
        seq, n_eps = args
        rng = np.random.default_rng(seq)
        state = np.repeat(np.arange(n), n_eps)
        ret = np.zeros(state.size)
        disc = 1.0
        for _ in range(cap):
            draw = rng.random(state.size)
            nxt = np.empty_like(state)
            for lo in range(0, state.size, _DRAW_BLOCK):
                hi = lo + _DRAW_BLOCK
                nxt[lo:hi] = (draw[lo:hi, None] > cum[state[lo:hi]]).sum(axis=1)
            ret += disc * cost[state, nxt]
            state = nxt
            disc *= model.discount
        per_start = ret.reshape(n, n_eps)
        return per_start.sum(axis=1), (per_start**2).sum(axis=1)

    tasks = list(zip(seeds, sizes))
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            parts = list(pool.map(run_chunk, tasks))
    else:
        parts = [run_chunk(t) for t in tasks]

    total = np.zeros(n)
    total_sq = np.zeros(n)
    for s, sq in parts:
        total += s
        total_sq += sq
    e = config.episodes
    means = total / e
    variance = np.maximum(total_sq - e * means**2, 0.0) / max(e - 1, 1)
    std_errors = np.sqrt(variance / e)
    return RolloutSummary(
        means=means,
        std_errors=std_errors,
        episodes=e,
        horizon_cap=cap,
        seed=config.seed,
        kernel_choice=config.kernel_choice,
    )


# ---------------------------------------------------------------------------
# helpers


def _dual_max_rows(kernels, payoffs, radius):
    """:func:`dual_max_value` of each row of ``payoffs`` around that row of ``kernels``.

    With a row's sorted levels ``l_k`` and masses ``m_k``, the bound at ``l_k``
    is ``<l, m> + (radius/2)(l_max - l_k) + l_k M_k - L_k``, with ``M_k`` and
    ``L_k`` the sums of ``m_i`` and ``m_i l_i`` over ``i <= k`` (term k adds 0).
    """
    order = np.argsort(payoffs, axis=1)
    rows = np.arange(order.shape[0])[:, None]
    lv, mass = payoffs[rows, order], kernels[rows, order]
    under = np.cumsum(mass * lv, axis=1)
    gain = 0.5 * radius * (lv[:, -1:] - lv) + lv * np.cumsum(mass, axis=1) - under
    return (under[:, -1:] + gain).min(axis=1)


def _policy_backup(model, rows, v, radius):
    """``f + max <c + discount * v, nu>`` over the ball of ``radius``, at ``rows``."""
    payoff = model.cost_vector[rows] + model.discount * v
    return model.cost_scalar[rows] + _dual_max_rows(model.kernels[rows], payoff, radius)


def _auto_cap(alpha, f_max):
    if f_max <= 0.0:
        return 1
    target = (STAT_TOL / 10.0) * (1.0 - alpha) / f_max
    if target >= 1.0:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(alpha)))


def _random_instance(rng, max_size):
    """One fuzz instance: distribution, levels (ties injected), radius."""
    n = int(rng.integers(2, max_size + 1))
    concentration = rng.choice([0.3, 1.0, 3.0])
    mu = rng.dirichlet(np.full(n, concentration))
    if rng.random() < 0.15:   # park some outcomes at exactly zero mass
        kill = rng.integers(0, n, size=max(1, n // 3))
        mu[kill] = 0.0
        mu /= mu.sum()
    lv = rng.normal(0.0, 10.0, n)
    if rng.random() < 0.3 and n >= 3:
        lv[int(rng.integers(0, n))] = lv[int(rng.integers(0, n))]
    pick = rng.random()
    if pick < 0.1:
        r = 0.0
    elif pick < 0.2:
        r = 2.0
    else:
        r = float(rng.uniform(0.0, 2.0))
    return mu, lv, r

"""The benchmark's workloads: seeded inputs and one round of operations each.

``build(workload, seed, smoke)`` is the set-up phase: it loads or generates
every model and input of a workload. ``round_ops(inputs)`` lists the
operations of one round. Each operation calls a public ``tvdp`` function,
looked up on the module at call time so that a traced run sees its wrapper,
and carries the independent check of its result.

Rollout inputs do not depend on the seed: the 4-sigma test of a rollout
fails by chance about once in 10^4 state checks, and a run must fail the
same share of operations whatever its seed.
"""

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("paper", "large", "verify")
# rate metrics count the units of these kinds; durations sum their time
KINDS = ("sweep", "vi", "pi", "finite", "certify", "rollout", "other")

ROLLOUT_SEED = 1402


@dataclass
class Op:
    """One timed call.

    ``call(out)`` and ``check(result, out)`` may read the results of earlier
    operations of the same round from ``out``, keyed by name. ``check``
    returns a list of problems; ``units(result)`` counts the work done for
    the rate metrics.
    """

    name: str
    kind: str
    call: Callable
    check: Callable
    units: Callable = None
    known_fault: bool = False


@dataclass
class Inputs:
    workload: str
    seed: int
    smoke: bool
    tvdp: object
    models: dict = field(default_factory=dict)   # name -> tvdp.RobustMdpModel
    mdps: dict = field(default_factory=dict)     # name -> checks.Mdp
    oracle: list = field(default_factory=list)   # (mu, levels, radius, probe seed)


# ---------------------------------------------------------------------------
# set-up


def build(workload, seed, smoke):
    """Import tvdp, then parse or generate every model of the workload."""
    import tvdp
    import tvdp.cli  # noqa: F401  (the CLI is timed in-process)

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inp = Inputs(workload, seed, smoke, tvdp)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    for name in ("threestate", "machine"):
        _add(inp, name, json.loads(tvdp.example_model_text(name)))
    if workload == "large":
        n = 6 if smoke else 20
        for name, kw in (
            ("scalar0", {}),
            ("scalar1", {}),
            ("vector", {"cost": "vector"}),
            ("sparse", {"cost": "sparse"}),
            *((f"pi{k}", {}) for k in range(4)),
        ):
            _add(inp, name, random_doc(rng, n, 4, discount=0.8, **kw))
        for k in range(3):
            _add(inp, f"finite{k}",
                 random_doc(rng, n, 4, discount=0.95, horizon=3 if smoke else 10))
        _add(inp, "rollout",
             random_doc(np.random.default_rng(ROLLOUT_SEED), n, 4, discount=0.8))
    if workload == "verify":
        for name, (n, m, h) in (
            ("brute0", (3, 2, 2 if smoke else 3)),
            ("brute1", (2, 3, 2 if smoke else 3)),
            ("markov0", (2, 2, 2 if smoke else 3)),
            ("markov1", (3, 2, 1 if smoke else 2)),
        ):
            _add(inp, name, random_doc(rng, n, m, discount=1.0, horizon=h))
    per_size = 2 if smoke else 10
    inp.oracle = [
        oracle_instance(rng, n) + (int(rng.integers(2**31)),)
        for n in (3, 8, 64) for _ in range(per_size)
    ]
    return inp


def _add(inp, name, doc):
    inp.models[name] = inp.tvdp.parse_model(json.dumps(doc))
    inp.mdps[name] = checks.Mdp.from_doc(doc)


def random_doc(rng, n, m, discount=0.9, radius=0.5, cost="scalar", horizon=None):
    """A random model document with ``n`` states and ``m`` actions each.

    ``cost="vector"`` draws next-state costs ``c(x, u, z)``; ``cost="sparse"``
    gives every kernel row three nonzeros and integer costs, so argmax level
    sets without nominal mass and tied values occur. A finite model gets
    per-stage radii and a terminal cost. Radii are fixed: the water-fill's
    work grows with the radius, and a seeded radius would move every timing
    with the seed.
    """
    states = [f"s{i}" for i in range(n)]
    acts = [f"a{k}" for k in range(m)]
    kernel, costs = {}, {}
    for s in states:
        kernel[s], costs[s] = {}, {}
        for a in acts:
            if cost == "sparse":
                k = min(3, n)
                row = np.zeros(n)
                row[rng.choice(n, size=k, replace=False)] = rng.dirichlet(np.ones(k))
                costs[s][a] = float(rng.integers(0, 4))
            else:
                row = rng.dirichlet(np.ones(n))
                costs[s][a] = ([float(x) for x in rng.uniform(0.0, 10.0, n)]
                               if cost == "vector" else float(rng.uniform(0.0, 10.0)))
            kernel[s][a] = [float(x) for x in row]
    doc = {
        "states": states,
        "actions": {s: acts for s in states},
        "kernel": kernel,
        "cost": costs,
        "discount": discount,
        "radius": radius,
    }
    if horizon is not None:
        doc["horizon"] = horizon
        doc["radius"] = [float(x) for x in np.linspace(0.3, 0.7, horizon + 1)]
        doc["terminal_cost"] = [float(x) for x in rng.uniform(0.0, 5.0, n)]
    return doc


def oracle_instance(rng, n):
    """(mu, levels, radius) with zero masses and a tied top level."""
    mu = rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0])))
    mu[rng.integers(0, n, size=max(1, n // 4))] = 0.0
    if mu.sum() == 0.0:
        mu[0] = 1.0
    mu /= mu.sum()
    levels = np.round(rng.normal(0.0, 10.0, n), 1)
    levels[rng.integers(0, n)] = levels.max()
    return mu, levels, float(rng.uniform(0.0, 2.0))


# ---------------------------------------------------------------------------
# one round


def round_ops(inp):
    """The operations of one round, each kind spread evenly through it.

    The host's speed drifts by tens of percent over seconds, so a kind of
    operation run in one block would sample that drift once per round;
    spread out, each metric averages over the whole round. An entry of a
    workload's list is one operation or a chain of operations that must
    run in order, because later ones read earlier results.
    """
    chains = [item if isinstance(item, list) else [item]
              for item in {"paper": _paper_ops, "large": _large_ops,
                           "verify": _verify_ops}[inp.workload](inp)]
    count, seen, position = {}, {}, []
    for chain in chains:
        count[chain[0].kind] = count.get(chain[0].kind, 0) + 1
    for chain in chains:
        kind = chain[0].kind
        position.append((seen.get(kind, 0) + 0.5) / count[kind])
        seen[kind] = seen.get(kind, 0) + 1
    order = sorted(range(len(chains)), key=lambda k: position[k])
    return [op for k in order for op in chains[k]]


def _grid(step):
    return [min(k * step, 2.0) for k in range(int(round(2.0 / step)) + 1)]


def _paper_ops(inp):
    """The paper's two examples: sweeps, repeated VI and PI, finite solves."""
    smoke = inp.smoke
    grid = _grid(0.25 if smoke else 0.01)
    long_h = 5 if smoke else 50
    ops = [
        [_sweep_inf(inp, "threestate", grid), _sweep_csv(inp, "threestate")],
        _sweep_fin(inp, "machine", grid),
        _sweep_fin(inp, "machine", grid, horizon=long_h),
        _pi_example(inp),
        _machine_table(inp),
    ]
    ops += _threestate_solves(inp, [round(0.1 * k, 1) for k in range(4 if smoke else 20)])
    ops += _finite_horizons(inp, range(1, long_h + 1))
    ops += _certify(inp, instances=20 if smoke else 200, max_size=8)
    ops.append(_rollouts(inp, "threestate", episodes=500 if smoke else 5000))
    ops += _exhaustive(inp, markov=[("machine", 2)], brute=[("machine", 3)])
    ops += _cli_ops(inp, simulate_episodes=500 if smoke else 2000)
    return ops


def _large_ops(inp):
    """Random models with tens of states: the S x A backup loop dominates."""
    smoke = inp.smoke
    radii = [0.5] if smoke else [0.3, 0.7]
    ops = [_vi(inp, name) for name in ("scalar0", "scalar1", "vector", "sparse")]
    ops += [_pi(inp, name, mode, radius=r) for name in ("scalar0", "scalar1", "sparse")
            for mode in ("paper", "fixed_point") for r in [None] + radii]
    # improvement counts vary from model to model; more models steady pi_s
    ops += [_pi(inp, f"pi{k}", mode) for k in range(4) for mode in ("paper", "fixed_point")]
    ops += [
        [_sweep_inf(inp, "scalar0", radii), _sweep_csv(inp, "scalar0")],
        _sweep_inf(inp, "scalar1", radii),
        _sweep_fin(inp, "finite0", _grid(0.5 if smoke else 0.4)),
        _rollouts(inp, "rollout", episodes=200 if smoke else 2000),
    ]
    ops += [_finite_plan(inp, f"finite{k}") for k in range(3)]
    ops += _certify(inp, instances=10 if smoke else 160, max_size=64)
    ops += _exhaustive(inp, markov=[("machine", 2)], brute=[("machine", 2)])
    ops += _cli_ops(inp, simulate_episodes=200 if smoke else 500)
    return ops


def _verify_ops(inp):
    """The independent oracles, with a small share of solver work."""
    smoke = inp.smoke
    episodes = 1000 if smoke else 10000
    ops = _certify(inp, instances=48 if smoke else 2000, max_size=8, campaigns=8)
    ops += _exhaustive(
        inp,
        markov=[("machine", 2 if smoke else 3), ("markov0", None), ("markov1", None)],
        brute=[("machine", 3), ("brute0", None), ("brute1", None)],
    )
    ops.append(_rollouts(inp, "threestate", episodes=1000 if smoke else 20000))
    ops += _cli_ops(inp, simulate_episodes=episodes)
    ops.append(_cli_simulate(inp, ("u1", "u1", "u1"), "nominal", episodes))
    ops.append(_cli_simulate(inp, ("u2", "u1", "u2"), "worst", episodes))
    # simulate --kernel worst rolls out the optimal policy's worst kernels
    # with the requested policy's costs, so a non-optimal policy gets wrong
    # means; kept as the one operation expected to fail
    ops.append(_cli_simulate(inp, ("u1", "u1", "u1"), "worst", episodes, known_fault=True))
    ops.append(_sweep_inf(inp, "threestate", _grid(0.5 if smoke else 0.1)))
    ops += _threestate_solves(inp, [round(0.1 * k, 1) for k in range(4 if smoke else 20)])
    ops += _finite_horizons(inp, range(1, 6 if smoke else 51))
    return ops


# ---------------------------------------------------------------------------
# operation builders


def _threestate_solves(inp, radii):
    """VI at each radius, and PI in both modes from three initial policies."""
    ops = []
    for r in radii:
        ops.append(_vi(inp, "threestate", radius=r))
        for init in (None, ("u1", "u2", "u2"), ("u2", "u2", "u2")):
            for mode in ("paper", "fixed_point"):
                ops.append(_pi(inp, "threestate", mode, radius=r, init=init))
    return ops


def _vi(inp, name, radius=None):
    """VI, one Bellman application to its values, and its serialized record."""
    t, model, mdp = inp.tvdp, inp.models[name], inp.mdps[name]
    if radius is not None:
        model, mdp = model.with_radius(radius), mdp.with_radius(radius)
    key = f"vi.{name}" + ("" if radius is None else f".r{radius}")

    def write(out):
        return t.serialize_solution(t.stationary_solution_record(model, out[key]))

    return [
        Op(key, "vi", lambda out: t.value_iteration(model),
           lambda sol, out: checks.check_stationary(mdp, sol, name=key)),
        Op(f"apply_bellman.{key}", "other",
           lambda out: t.apply_bellman(model, out[key].values),
           lambda res, out: checks.check_backup(mdp, res[0], res[1], None, mdp.radius,
                                                next_values=out[key].values, name=key)),
        Op(f"serialize.{key}", "other", write,
           lambda text, out: checks.check_close(
               f"serialize.{key}", json.loads(text)["values"], out[key].values, 1e-11)),
    ]


def _pi(inp, name, mode, radius=None, init=None):
    """PI; ``fixed_point`` must agree with VI where VI ran at the same radius."""
    t = inp.tvdp
    model, mdp = inp.models[name], inp.mdps[name]
    if radius is not None:
        model, mdp = model.with_radius(radius), mdp.with_radius(radius)
    suffix = ("" if radius is None else f".r{radius}")
    key = f"pi.{mode}.{name}{suffix}" + ("" if init is None else "." + "-".join(init))
    vi_key = f"vi.{name}{suffix}"

    def check(res, out):
        sol, trace = res
        if mode == "paper":
            return checks.check_frozen_pi(mdp, sol, trace, name=key)
        problems = checks.check_stationary(mdp, sol, name=key)
        if vi_key in out:
            problems += checks.check_close(f"{key} vs VI", sol.values, out[vi_key].values,
                                           checks.VALUE_TOL)
        return problems

    return Op(key, "pi",
              lambda out: t.policy_iteration(model, initial_policy=init, mode=mode),
              check)


def _pi_example(inp):
    t, model, mdp = inp.tvdp, inp.models["threestate"], inp.mdps["threestate"]

    def check(res, out):
        sol, trace = res
        return (checks.check_pi_example(sol.values, sol.policy, trace.improvement_iterations)
                + checks.check_frozen_pi(mdp, sol, trace))

    return Op("pi.paper_example", "pi",
              lambda out: t.policy_iteration(model, initial_policy=("u1", "u2", "u2"),
                                             mode="paper"),
              check)


def _sweep_inf(inp, name, grid):
    t, model, mdp = inp.tvdp, inp.models[name], inp.mdps[name]
    key = f"sweep.{name}"
    return Op(key, "sweep", lambda out: t.sweep_radius_infinite(model, grid),
              lambda pts, out: checks.check_sweep_stationary(mdp, pts, name=key),
              units=len)


def _sweep_csv(inp, name):
    t, model = inp.tvdp, inp.models[name]
    key = f"sweep.{name}"

    def check(text, out):
        got = [float(row["value"]) for row in _csv(text)]
        want = np.concatenate([p.values for p in out[key]])
        return checks.check_close(f"sweep_csv.{name}", got, want, 1e-11)

    return Op(f"sweep_csv.{name}", "other",
              lambda out: t.sweep_csv(out[key], model.states), check)


def _sweep_fin(inp, name, grid, horizon=None):
    """A finite sweep, optionally at another horizon (the grid sets the radius)."""
    t, model, mdp = inp.tvdp, inp.models[name], inp.mdps[name]
    if horizon is not None:
        model = model.with_radius(grid[0]).with_horizon(horizon)
        mdp = mdp.with_radius(grid[0]).with_horizon(horizon)
    key = f"sweep.{name}.h{mdp.horizon}"
    return Op(key, "sweep", lambda out: t.sweep_radius_finite(model, grid),
              lambda pts, out: checks.check_sweep_finite(
                  mdp, grid, [p.values for p in pts], name=key),
              units=len)


def _finite_plan(inp, name):
    """Backward induction, the optimal plan re-evaluated, its serialized record."""
    t, model, mdp = inp.tvdp, inp.models[name], inp.mdps[name]
    key = f"finite.{name}"

    def evaluate(out):
        return t.evaluate_policy_finite(model, [p.policy for p in out[key][:-1]])

    def write(out):
        return t.serialize_solution(t.finite_solution_record(model, out[key]))

    def check_record(text, out):
        stages = sorted(json.loads(text)["stages"], key=lambda st: st["stage"])
        want = [mdp.discount ** j * p.values for j, p in enumerate(out[key])]
        return checks.check_close(f"serialize.{key}", [st["values"] for st in stages],
                                  want, 1e-11)

    return [
        Op(key, "finite", lambda out: t.solve_finite(model),
           lambda plans, out: checks.check_finite_plans(mdp, plans, name=key)),
        Op(f"evaluate.{key}", "finite", evaluate,
           lambda vals, out: checks.check_close(
               f"evaluate.{key}", vals, [p.values for p in out[key]], checks.VALUE_TOL)),
        Op(f"serialize.{key}", "other", write, check_record),
    ]


def _finite_horizons(inp, horizons):
    """The machine model solved at each horizon."""
    ops = []
    for h in horizons:
        name = f"machine.h{h}"
        inp.models[name] = inp.models["machine"].with_horizon(h)
        inp.mdps[name] = inp.mdps["machine"].with_horizon(h)
        ops.append(_finite_plan(inp, name))
    return ops


def _machine_table(inp):
    t, model = inp.tvdp, inp.models["machine"]
    return Op("finite.machine.table", "finite", lambda out: t.solve_finite(model),
              lambda plans, out: checks.check_machine_table(
                  [p.values for p in plans], [p.policy for p in plans]))


def _certify(inp, instances, max_size, campaigns=4):
    """Fuzz campaigns, then certified water-fills at alphabet sizes 3, 8 and 64.

    The instances are split over several campaigns and sizes, so that the
    certify metric is spread through the round.
    """
    t = inp.tvdp
    rng = np.random.default_rng([inp.seed, 7])
    ops = []
    for k in range(campaigns):
        seed = int(rng.integers(2**31))
        count = instances // campaigns

        def check_fuzz(rep, out, count=count):
            if rep.instances != count or rep.failures:
                return [f"fuzz: {rep.failures} of {rep.instances} instances failed"]
            return []

        ops.append(Op(f"certify.fuzz{k}", "certify",
                      lambda out, s=seed, c=count: t.fuzz_waterfill(instances=c, seed=s,
                                                                    max_size=max_size),
                      check_fuzz, units=lambda rep: rep.instances))
    for n in (3, 8, 64):
        cases = [case for case in inp.oracle if case[0].size == n]

        def sized(out, cases=cases):
            res = []
            for mu, levels, radius, probe_seed in cases:
                wf = t.waterfill_maximize(mu, levels, radius)
                rep = t.certify_waterfill(mu, levels, radius, wf, seed=probe_seed)
                res.append((wf.maximizer, wf.value, rep.failures))
            return res

        def check_sized(res, out, cases=cases):
            problems = []
            for (mu, levels, radius, _), (nu, value, failures) in zip(cases, res):
                problems += checks.check_oracle(f"oracle n={mu.size}", mu, levels, radius,
                                                nu, value)
                if failures:
                    problems.append(f"certify_waterfill rejected the n={mu.size} maximizer")
            return problems

        ops.append(Op(f"certify.n{n}", "certify", sized, check_sized, units=len))
    return ops


def _rollouts(inp, name, episodes):
    """Nominal and worst-kernel rollouts of the VI policy."""
    t, model, mdp = inp.tvdp, inp.models[name], inp.mdps[name]
    vi_key = f"rollout.vi.{name}"

    def steps(summary):
        return summary.episodes * model.n_states * summary.horizon_cap

    def run(kind):
        def call(out):
            sol = out[vi_key]
            cfg = t.RolloutConfig(episodes=episodes, seed=ROLLOUT_SEED, kernel_choice=kind)
            kernels = sol.worst_kernel_matrix if kind == "worst" else None
            return t.monte_carlo_rollout(model, sol.policy, cfg, kernels=kernels)
        return call

    def check(kind):
        def chk(summary, out):
            exact = _rollout_value(mdp, out[vi_key].policy, kind, summary.horizon_cap)
            return checks.check_rollout(f"rollout.{kind}.{name}", summary.means,
                                        summary.std_errors, exact)
        return chk

    return [
        Op(vi_key, "vi", lambda out: t.value_iteration(model),
           lambda sol, out: checks.check_stationary(mdp, sol, name=vi_key)),
        Op(f"rollout.nominal.{name}", "rollout", run("nominal"), check("nominal"), units=steps),
        Op(f"rollout.worst.{name}", "rollout", run("worst"), check("worst"), units=steps),
    ]


def _rollout_value(mdp, policy, kernel, steps):
    """Exact expectation of a rollout's truncated return, nominal or worst kernel."""
    idx = mdp.policy_idx(policy)
    rows = mdp.P[np.arange(mdp.n), idx]
    if kernel == "worst":
        _, rows = checks.worst_policy_kernel(mdp, idx)
    return checks.truncated_policy_value(mdp, idx, rows, steps)


def _exhaustive(inp, markov, brute):
    """Markov-sufficiency checks and brute-force enumerations, by (model, horizon).

    Both must reproduce the stage-0 values of an LP backward induction.
    """
    t = inp.tvdp
    ops = []
    for kind, cases in (("markov", markov), ("brute", brute)):
        for name, horizon in cases:
            model, mdp = inp.models[name], inp.mdps[name]
            if horizon is not None:
                model, mdp = model.with_horizon(horizon), mdp.with_horizon(horizon)
            key = f"{kind}.{name}.h{mdp.horizon}"
            if kind == "markov":
                ops.append(Op(key, "other",
                              lambda out, m=model: t.markov_sufficiency_check(m),
                              lambda rep, out, d=mdp, k=key: _check_markov(d, rep, k)))
            else:
                ops.append(Op(key, "other",
                              lambda out, m=model: t.brute_force_finite(m),
                              lambda res, out, d=mdp, k=key: checks.check_close(
                                  k, res.values, checks.lp_stage0(d), checks.VALUE_TOL)))
    return ops


def _check_markov(mdp, rep, key):
    want = checks.lp_stage0(mdp)
    problems = [] if rep.passed else [f"{key}: history policies beat Markov by {rep.max_gap:.3e}"]
    problems += checks.check_close(f"{key} markov", rep.markov_values, want, checks.VALUE_TOL)
    return problems + checks.check_close(f"{key} history", rep.history_values, want,
                                         checks.VALUE_TOL)


# ---------------------------------------------------------------------------
# in-process CLI calls


def run_cli(t, argv):
    """``tvdp.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = t.cli.main(list(argv))
    return code, out.getvalue()


def _cli(inp, argv, check, name=None, known_fault=False):
    t = inp.tvdp

    def chk(res, out):
        code, text = res
        if code != 0:
            return [f"cli {argv[0]} exited {code}"]
        return check(text)

    return Op(name or f"cli.{argv[0]}", "other", lambda out: run_cli(t, argv), chk,
              known_fault=known_fault)


def _cli_ops(inp, simulate_episodes):
    """One call of each subcommand on the bundled models."""
    mu, levels, radius, _ = inp.oracle[0]
    mach = inp.mdps["machine"]
    grid = _grid(0.05)
    certify_seed = int(np.random.default_rng([inp.seed, 11]).integers(2**31))

    def check_oracle(text):
        doc = json.loads(text)
        return checks.check_oracle("cli oracle", mu, levels, radius,
                                   np.asarray(doc["maximizer"]), doc["value"])

    def check_table(text):
        rows = _csv(text)
        stage = [[r for r in rows if int(r["stage"]) == j] for j in range(3)]
        return checks.check_machine_table(
            [[float(r["value"]) for r in s] for s in stage],
            [[r["action"] for r in s] for s in stage], name="cli machine table")

    def check_pi(text):
        rows = _csv(text)
        return checks.check_pi_example([float(r["value"]) for r in rows],
                                       [r["action"] for r in rows], name="cli pi example")

    def check_sweep(text):
        curves = np.array([float(r["value"]) for r in _csv(text)]).reshape(len(grid), mach.n)
        return (checks.check_close("cli sweep", curves,
                                   checks.lp_backward_induction(mach, grid), 1e-10)
                + checks.check_monotone("cli sweep", curves))

    def check_certify(text):
        doc = json.loads(text)
        if doc["failures"] or doc["instances"] != 50:
            return [f"cli certify: {doc['failures']} of {doc['instances']} failed"]
        return []

    return [
        _cli(inp, ["oracle", f"--mu={_join(mu)}", f"--levels={_join(levels)}",
                   f"--radius={radius!r}"], check_oracle),
        _cli(inp, ["solve-finite", "--model", "machine"], check_table),
        _cli(inp, ["solve-infinite", "--model", "threestate", "--method", "pi",
                   "--pi-mode", "paper", "--init", "u1,u2,u2"], check_pi),
        _cli(inp, ["sweep", "--model", "machine", "--radius-grid", "0:2:0.05"], check_sweep),
        _cli(inp, ["certify", "--instances", "50", "--trials", "200",
                   "--seed", str(certify_seed)], check_certify),
        _cli_simulate(inp, ("u2", "u1", "u2"), "nominal", simulate_episodes),
    ]


def _cli_simulate(inp, policy, kernel, episodes, known_fault=False):
    mdp = inp.mdps["threestate"]
    argv = ["simulate", "--model", "threestate", "--policy", ",".join(policy),
            "--episodes", str(episodes), "--kernel", kernel, "--seed", str(ROLLOUT_SEED)]
    name = f"cli.simulate.{kernel}.{'-'.join(policy)}"

    def check(text):
        doc = json.loads(text)
        return checks.check_rollout(name, doc["means"], doc["std_errors"],
                                    _rollout_value(mdp, policy, kernel, doc["horizon_cap"]))

    return _cli(inp, argv, check, name=name, known_fault=known_fault)


def _join(values):
    return ",".join(repr(float(x)) for x in values)


def _csv(text):
    return list(csv.DictReader(io.StringIO(text)))

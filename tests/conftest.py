"""Shared fixtures and random-model builders."""

import json

import numpy as np
import pytest

from tvdp import example_model_text, load_example, parse_model


@pytest.fixture
def machine():
    return load_example("machine")


@pytest.fixture
def threestate():
    return load_example("threestate")


# paper-mode policy iteration cycles on this 3-state model (found by a seeded
# campaign over random models): its frozen kernels lead back to the policy
# ('a2', 'a0', 'a2'), which it evaluated two improvements earlier
CYCLING_PAPER_MODEL = (
    '{"states":["s0","s1","s2"],"actions":{"s0":["a0","a1","a2"],"s1":["a0","a1","a2"],'
    '"s2":["a0","a1","a2"]},"kernel":{"s0":{"a0":[0.682,0.135,0.183],'
    '"a1":[0.166,0.24,0.594],"a2":[0.628,0.345,0.027]},"s1":{"a0":[0.131,0.134,0.735],'
    '"a1":[0.134,0.311,0.555],"a2":[0.133,0.373,0.494]},"s2":{"a0":[0.493,0.207,0.3],'
    '"a1":[0.143,0.081,0.776],"a2":[0.274,0.054,0.672]}},"cost":{"s0":{"a0":3.0,"a1":9.0,'
    '"a2":2.95},"s1":{"a0":0.14,"a1":9.46,"a2":0.19},"s2":{"a0":4.07,"a1":3.53,"a2":2.56}},'
    '"discount":0.9,"radius":1.5}'
)


def stationary_machine():
    """The machine model without a horizon, discounted: next-state costs."""
    doc = json.loads(example_model_text("machine"))
    del doc["horizon"], doc["terminal_cost"]
    doc["discount"] = 0.9
    return parse_model(doc)


def classical_backup(model, v):
    """One textbook Bellman backup of ``v`` with no ambiguity, state by state."""
    new = np.empty(model.n_states)
    for i in range(model.n_states):
        best = np.inf
        for a in range(len(model.actions[i])):
            row = model.starts[i] + a
            payoff = model.cost_vector[row] + model.discount * v
            best = min(best, model.cost_scalar[row] + model.kernels[row] @ payoff)
        new[i] = best
    return new


def random_model_doc(rng, max_states=3, max_actions=2, horizon=None,
                     vector_cost=False, discount=None, radius=None, min_states=2):
    """A random valid model document in dict form."""
    n = int(rng.integers(min_states, max_states + 1))
    states = [f"s{i}" for i in range(n)]
    actions = {
        s: [f"a{k}" for k in range(int(rng.integers(1, max_actions + 1)))]
        for s in states
    }
    kernel = {
        s: {a: [float(x) for x in rng.dirichlet(np.ones(n))] for a in actions[s]}
        for s in states
    }
    cost = {}
    for s in states:
        cost[s] = {}
        for a in actions[s]:
            if vector_cost and rng.random() < 0.5:
                cost[s][a] = [float(x) for x in rng.uniform(0.0, 10.0, n)]
            else:
                cost[s][a] = float(rng.uniform(0.0, 10.0))
    doc = {
        "states": states,
        "actions": actions,
        "kernel": kernel,
        "cost": cost,
        "discount": float(rng.uniform(0.3, 0.95)) if discount is None else discount,
        "radius": float(rng.uniform(0.0, 2.0)) if radius is None else radius,
    }
    if horizon is not None:
        doc["horizon"] = int(horizon)
        if rng.random() < 0.5:
            doc["terminal_cost"] = [float(x) for x in rng.uniform(0.0, 5.0, n)]
    return doc


def random_model(rng, **kwargs):
    return parse_model(random_model_doc(rng, **kwargs))


def random_oracle_instance(rng, max_size=8):
    """A random (mu, levels, radius) triple with occasional ties and zeros."""
    n = int(rng.integers(2, max_size + 1))
    mu = rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0])))
    if rng.random() < 0.2:
        mu[int(rng.integers(0, n))] = 0.0
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

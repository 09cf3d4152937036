"""Model parsing, validation errors, and deterministic serialization."""

import json

import numpy as np
import pytest

from conftest import random_model, random_model_doc
from tvdp import (
    ModelError,
    dumps_canonical,
    example_model_text,
    example_names,
    load_example,
    load_model,
    parse_model,
    read_solution,
    serialize_solution,
    solution_csv,
    sweep_csv,
)
from tvdp.finite import finite_solution_record, solve_finite, stage_backup, sweep_radius_finite
from tvdp.infinite import stationary_solution_record, sweep_radius_infinite, value_iteration
from tvdp.model import SweepPoint, format_float, read_csv_rows


def test_bundled_examples_parse(machine, threestate):
    assert example_names() == ("machine", "threestate")
    assert machine.states == ("running", "broken")
    assert machine.actions == (("m", "nm"), ("r", "s"))
    assert machine.horizon == 3 and machine.discount == 1.0
    assert machine.has_vector_cost
    assert machine.stage_radii() == (0.85,) * 4

    assert threestate.states == ("x1", "x2", "x3")
    assert threestate.horizon is None
    assert not threestate.has_vector_cost
    assert threestate.discount == 0.9
    assert abs(threestate.scalar_radius() - 2.0 / 3.0) <= 1e-15
    assert threestate.kernels.shape == (6, 3)
    assert np.array_equal(threestate.starts, [0, 2, 4])
    assert np.array_equal(threestate.counts, [2, 2, 2])
    assert np.allclose(threestate.kernels.sum(axis=1), 1.0, atol=1e-12)


def test_kernel_row_renormalized_within_tolerance():
    doc = random_model_doc(np.random.default_rng(0), max_states=2, horizon=2)
    doc["kernel"]["s0"]["a0"] = [0.3, 0.7 + 5e-7]
    model = parse_model(doc)
    assert abs(model.kernels[0].sum() - 1.0) <= 1e-12


def test_stacked_rows_match_document():
    rng = np.random.default_rng(23)
    action_counts, zero_rows, scalar_models = set(), 0, 0
    for k in range(40):
        doc = random_model_doc(rng, max_states=4, max_actions=3, vector_cost=k % 4 != 0,
                               horizon=2 if k % 2 else None)
        model = parse_model(doc)
        states, n = doc["states"], model.n_states
        doc_costs = [doc["cost"][s][a] for s in states for a in doc["actions"][s]]
        has_list = any(isinstance(c, list) for c in doc_costs)
        # one cost layout: a scalar cost is a zero row of the (M, n) matrix
        assert model.cost_vector.shape == (len(doc_costs), n)
        assert model.cost_vector.dtype == np.float64
        assert model.has_vector_cost == any(isinstance(c, list) and any(c) for c in doc_costs)
        assert model.kernels.shape == (len(doc_costs), n)
        assert model.cost_scalar.shape == (len(doc_costs),)
        assert np.array_equal(model.counts, [len(doc["actions"][s]) for s in states])
        action_counts.update(int(c) for c in model.counts)
        scalar_models += not has_list

        row = 0
        for i, s in enumerate(states):
            assert model.starts[i] == row
            for a, label in enumerate(doc["actions"][s]):
                assert row == model.starts[i] + a
                nominal = np.array(doc["kernel"][s][label])
                assert np.abs(model.kernels[row] - nominal).max() <= 1e-15
                cost = doc["cost"][s][label]
                if isinstance(cost, list):
                    assert model.cost_scalar[row] == 0.0
                    assert np.array_equal(model.cost_vector[row], cost)
                else:
                    assert model.cost_scalar[row] == cost
                    assert np.array_equal(model.cost_vector[row], np.zeros(n))
                    zero_rows += 1
                row += 1

        # the per-state loops the row layout replaced
        for _ in range(3):
            idx = np.array([rng.integers(len(doc["actions"][s])) for s in states])
            want = np.empty((n, n))
            for i, s in enumerate(states):
                want[i, :] = doc["cost"][s][doc["actions"][s][idx[i]]]
            assert np.array_equal(model.transition_cost_matrix(idx), want)
        # one past the last action of every state, and a negative index
        for bad in (model.counts, -np.ones(n, dtype=int), np.zeros(n + 1, dtype=int)):
            with pytest.raises(ModelError):
                model.transition_cost_matrix(bad)
        assert model.max_stage_cost() == max(
            max(c) if isinstance(c, list) else c for c in doc_costs
        )

        # copies share the rows instead of stacking them again
        other = model.with_radius(0.5).with_horizon(None if k % 2 else 3)
        for name in ("kernels", "cost_scalar", "cost_vector", "starts", "counts"):
            assert getattr(other, name) is getattr(model, name)
    assert action_counts == {1, 2, 3}
    assert zero_rows and scalar_models


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d["kernel"]["s0"].__setitem__("a0", [0.3, 0.5]), "row sum 0.8"),
    (lambda d: d["kernel"]["s0"].__setitem__("a0", [-0.2, 1.2]), "negative mass"),
    (lambda d: d["kernel"]["s0"].__setitem__("a0", [0.2, 0.3, 0.5]), "row length"),
    (lambda d: d["cost"]["s0"].__setitem__("a0", -1.0), "negative cost"),
    (lambda d: d["cost"]["s0"].__setitem__("a0", float("nan")), "nan cost"),
    (lambda d: d["cost"]["s0"].__setitem__("a0", [1.0, 2.0, 3.0]), "cost length"),
    (lambda d: d.__setitem__("discount", 0.0), "discount 0"),
    (lambda d: d.__setitem__("discount", 1.2), "discount 1.2"),
    (lambda d: d.__setitem__("radius", 2.5), "radius 2.5"),
    (lambda d: d.__setitem__("radius", -0.1), "radius negative"),
    (lambda d: d.__setitem__("radius", [0.1, 0.2]), "radius list length"),
    (lambda d: d.__setitem__("horizon", 0), "horizon 0"),
    (lambda d: d.__setitem__("horizon", 2.5), "horizon fractional"),
    (lambda d: d.__setitem__("extra", 1), "unknown key"),
    (lambda d: d.pop("discount"), "missing discount"),
    (lambda d: d["actions"].pop("s0"), "missing actions"),
    (lambda d: d["kernel"].pop("s1"), "missing kernel"),
    (lambda d: d["states"].append("s0"), "duplicate state"),
    (lambda d: d["states"].__setitem__(0, "s,0"), "comma in label"),
    (lambda d: d.__setitem__("terminal_cost", [1.0]), "terminal length"),
    (lambda d: d.__setitem__("initial", [0.5, 0.2]), "initial not a distribution"),
])
def test_parse_rejects_invalid_documents(mutate, field):
    doc = random_model_doc(np.random.default_rng(1), max_states=2, horizon=2)
    mutate(doc)
    with pytest.raises(ModelError):
        parse_model(doc)


def test_stationary_requires_discount_below_one():
    doc = random_model_doc(np.random.default_rng(2), discount=1.0)
    with pytest.raises(ModelError):
        parse_model(doc)
    doc["horizon"] = 3
    assert parse_model(doc).discount == 1.0


def _radius_entry_points():
    """Every entry point that takes a radius, mapped to the radius it keeps
    (``stage_backup`` keeps none: to its values)."""
    doc = json.loads(example_model_text("machine"))
    machine, threestate = parse_model(doc), load_example("threestate")
    return {
        "document": lambda r: parse_model(dict(doc, radius=r)).radius,
        "with_radius": lambda r: threestate.with_radius(r).radius,
        "stage_backup": lambda r: stage_backup(machine, machine.terminal_cost, r).values,
        "sweep_radius_finite": lambda r: sweep_radius_finite(machine, [r])[0].radius,
        "sweep_radius_infinite": lambda r: sweep_radius_infinite(threestate, [r])[0].radius,
    }


@pytest.mark.parametrize("entry", sorted(_radius_entry_points()))
@pytest.mark.parametrize("radius,ok", [
    pytest.param(0.5, True, id="float"),
    pytest.param(np.float32(0.5), True, id="float32"),
    pytest.param(np.int64(1), True, id="int64"),
    pytest.param(True, False, id="bool"),
    pytest.param("0.5", False, id="str"),
    pytest.param(float("nan"), False, id="nan"),
    pytest.param(-0.1, False, id="negative"),
    pytest.param(2.5, False, id="above-2"),
])
def test_one_radius_rule_at_every_entry_point(entry, radius, ok):
    # any real number but a bool, finite, in [0, 2], taken as the Python float
    call = _radius_entry_points()[entry]
    if ok:
        got, want = call(radius), call(float(radius))
        assert type(got) is type(want) and np.array_equal(got, want)
    else:
        with pytest.raises(ModelError):
            call(radius)


def test_numpy_scalars_pass_the_number_rules(machine):
    doc = random_model_doc(np.random.default_rng(4), max_states=2, horizon=2)
    doc.update(horizon=np.int64(4), discount=np.float32(0.5))
    doc["cost"]["s0"]["a0"] = np.float32(2.5)
    model = parse_model(doc)
    assert type(model.horizon) is int and model.horizon == 4
    assert model.discount == 0.5 and model.cost_scalar[0] == 2.5
    assert machine.with_horizon(np.int64(5)).horizon == 5
    for key, bad in (("horizon", True), ("horizon", np.float64(4.0)), ("discount", True)):
        with pytest.raises(ModelError):
            parse_model(dict(doc, **{key: bad}))


_VECTOR_PLACES = {
    "kernel_row": lambda doc, v: doc["kernel"]["s0"].__setitem__("a0", v),
    "cost_vector": lambda doc, v: doc["cost"]["s0"].__setitem__("a0", v),
    "terminal_cost": lambda doc, v: doc.__setitem__("terminal_cost", v),
    "initial": lambda doc, v: doc.__setitem__("initial", v),
}


@pytest.mark.parametrize("place", sorted(_VECTOR_PLACES))
@pytest.mark.parametrize("vector,ok", [
    pytest.param([0.5, 0.5], True, id="floats"),
    pytest.param([np.float32(0.5), 0.5], True, id="numpy-scalar"),
    pytest.param(np.array([0.5, 0.5]), True, id="float-array"),
    pytest.param(np.array([0.5, 0.5], dtype=np.float32), True, id="float32-array"),
    pytest.param(["0.5", "0.5"], False, id="str"),
    pytest.param([True, False], False, id="bool"),
    pytest.param([True, 0.0], False, id="bool-and-float"),
    pytest.param(np.array([True, False]), False, id="bool-array"),
])
def test_one_number_rule_for_document_vectors(place, vector, ok):
    # every entry of a document vector obeys the scalar rule: a real number,
    # not a bool; at parse time a bool or a string is not turned into a number
    def doc_with(v):
        doc = random_model_doc(np.random.default_rng(5), max_states=2, horizon=2)
        _VECTOR_PLACES[place](doc, v)
        return doc

    if ok:
        got, want = parse_model(doc_with(vector)), parse_model(doc_with([0.5, 0.5]))
        for name in ("kernels", "cost_vector", "terminal_cost", "initial"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    else:
        with pytest.raises(ModelError):
            parse_model(doc_with(vector))


def test_per_stage_radius_roundtrip():
    doc = random_model_doc(np.random.default_rng(3), horizon=2, radius=0.5)
    doc["radius"] = [0.1, 0.2, 0.3]
    model = parse_model(doc)
    assert model.stage_radii() == (0.1, 0.2, 0.3)
    with pytest.raises(ModelError):
        model.scalar_radius()
    # a radius list is tied to the horizon it was written for
    with pytest.raises(ModelError):
        model.with_horizon(4)


def test_parse_rejects_malformed_json_text():
    with pytest.raises(ModelError):
        parse_model("{not json")
    with pytest.raises(ModelError):
        parse_model("[1, 2]")


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelError):
        load_model(tmp_path / "absent.json")


def test_solution_roundtrip_finite(machine):
    record = finite_solution_record(machine, solve_finite(machine))
    text = serialize_solution(record)
    back = read_solution(text)
    assert back.kind == record.kind
    assert back.states == record.states
    for a, b in zip(back.values, record.values):
        assert np.allclose(a, b, rtol=1e-11, atol=1e-11)
    assert back.policies == record.policies
    # serializing the parsed record reproduces the exact bytes
    assert serialize_solution(back) == text


def test_solution_roundtrip_stationary(threestate):
    record = stationary_solution_record(threestate, value_iteration(threestate))
    text = serialize_solution(record)
    back = read_solution(text)
    assert back.policies == record.policies
    assert np.allclose(back.values[0], record.values[0], rtol=1e-11, atol=1e-11)
    assert serialize_solution(back) == text


# one-state solution documents that read_solution accepts as they are; the
# finite one lists its stages out of order, which the reader sorts
_STATIONARY_DOC = {
    "kind": "stationary", "states": ["s"], "values": [1.0], "policy": ["a"],
    "worst_kernel_matrix": [[1.0]], "discount": 0.9, "radius": 0.5,
}
_FINITE_DOC = {
    "kind": "finite", "states": ["s"], "discount": 1.0, "horizon": 1, "radius": 0.5,
    "stages": [
        {"stage": 1, "values": [0.0], "policy": None, "worst_kernels": None},
        {"stage": 0, "values": [1.0], "policy": ["a"], "worst_kernels": [[1.0]]},
    ],
}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _with_stage0(drop=None, **fields):
    """The finite document with its stage-0 entry edited."""
    stage0 = _without(dict(_FINITE_DOC["stages"][1], **fields), drop)
    return dict(_FINITE_DOC, stages=[_FINITE_DOC["stages"][0], stage0])


@pytest.mark.parametrize("doc", [
    pytest.param(_without(_STATIONARY_DOC, "states"), id="missing-states"),
    pytest.param(_without(_STATIONARY_DOC, "policy"), id="missing-policy"),
    pytest.param(_without(_STATIONARY_DOC, "values"), id="missing-values"),
    pytest.param(_without(_STATIONARY_DOC, "worst_kernel_matrix"), id="missing-kernel"),
    pytest.param(_without(_FINITE_DOC, "stages"), id="missing-stages"),
    pytest.param(_with_stage0(drop="values"), id="missing-stage-values"),
    pytest.param(_with_stage0(drop="policy"), id="missing-stage-policy"),
    pytest.param(dict(_STATIONARY_DOC, states=5), id="states-number"),
    pytest.param(dict(_STATIONARY_DOC, states="s"), id="states-string"),
    pytest.param(dict(_STATIONARY_DOC, values=["x"]), id="values-string"),
    pytest.param(dict(_STATIONARY_DOC, values=[1.0, 2.0]), id="values-too-long"),
    pytest.param(dict(_STATIONARY_DOC, policy=["a", "a"]), id="policy-too-long"),
    pytest.param(dict(_STATIONARY_DOC, policy=None), id="stationary-policy-null"),
    pytest.param(dict(_STATIONARY_DOC, policy=[0]), id="policy-index"),
    pytest.param(dict(_STATIONARY_DOC, worst_kernel_matrix=[["x"]]), id="kernel-string"),
    pytest.param(dict(_STATIONARY_DOC, worst_kernel_matrix=5), id="kernel-number"),
    pytest.param(dict(_FINITE_DOC, stages=5), id="stages-number"),
    pytest.param(dict(_FINITE_DOC, stages=[5]), id="stage-number"),
    pytest.param(_with_stage0(stage="0"), id="stage-index-string"),
    pytest.param(_with_stage0(stage=2), id="stage-index-gap"),
    pytest.param(_with_stage0(values=["x"]), id="stage-values-string"),
    pytest.param(_with_stage0(policy=["a", "a"]), id="stage-policy-too-long"),
])
def test_read_solution_rejects_malformed_documents(doc):
    with pytest.raises(ModelError, match="invalid (stationary|finite) solution document"):
        read_solution(json.dumps(doc))


def test_read_solution_accepts_the_base_documents():
    stationary = read_solution(json.dumps(_STATIONARY_DOC))
    assert stationary.policies == (("a",),)
    assert stationary.metadata == {"discount": 0.9, "radius": 0.5}
    finite = read_solution(json.dumps(_FINITE_DOC))
    assert finite.policies == (("a",), None)
    assert finite.metadata == {"discount": 1.0, "horizon": 1, "radius": 0.5}
    for record in (stationary, finite):
        text = serialize_solution(record)
        assert serialize_solution(read_solution(text)) == text


def test_solution_csv_layout(machine, threestate):
    finite_csv = solution_csv(finite_solution_record(machine, solve_finite(machine)))
    rows = read_csv_rows(finite_csv)
    assert list(rows[0]) == ["stage", "state", "action", "value"]
    assert [r["stage"] for r in rows] == ["0", "0", "1", "1", "2", "2", "3", "3"]
    assert rows[-1]["action"] == ""  # terminal stage has no action

    stat_csv = solution_csv(stationary_solution_record(threestate, value_iteration(threestate)))
    rows = read_csv_rows(stat_csv)
    assert [r["stage"] for r in rows] == ["-1", "-1", "-1"]
    assert [r["state"] for r in rows] == ["x1", "x2", "x3"]
    assert rows[0]["action"] == "u2"


def test_sweep_csv_layout():
    points = [
        SweepPoint(radius=0.0, values=np.array([1.0, 2.0]), policy=("a", "b")),
        SweepPoint(radius=0.5, values=np.array([1.5, 2.5]), policy=("a", "b")),
    ]
    text = sweep_csv(points, ("s0", "s1"))
    lines = text.splitlines()
    assert lines[0] == "radius,state,value,action"
    assert lines[1] == "0,s0,1,a"
    assert lines[-1] == "0.5,s1,2.5,b"
    assert text.endswith("\n") and "\r" not in text


def test_dumps_canonical_is_deterministic():
    a = dumps_canonical({"b": 1, "a": [1.5, None, True], "c": {"y": 0.1, "x": "s"}})
    b = dumps_canonical({"c": {"x": "s", "y": 0.1}, "a": [1.5, None, True], "b": 1})
    assert a == b
    assert a == '{"a":[1.5,null,true],"b":1,"c":{"x":"s","y":0.1}}'
    assert dumps_canonical([-0.0]) == "[0]"


def test_dumps_canonical_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("inf")})
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_format_float_twelve_significant_digits():
    assert format_float(122.5) == "122.5"
    assert format_float(0.1) == "0.1"
    assert format_float(2.0 / 3.0) == "0.666666666667"
    assert format_float(340.0625) == "340.0625"
    assert format_float(-0.0) == "0"


def test_random_documents_roundtrip_through_json():
    rng = np.random.default_rng(11)
    for _ in range(20):
        doc = random_model_doc(rng, horizon=int(rng.integers(1, 4)))
        model = parse_model(json.dumps(doc))
        again = parse_model(json.dumps(doc))
        assert model.states == again.states
        assert np.array_equal(model.kernels, again.kernels)

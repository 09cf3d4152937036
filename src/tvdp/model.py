"""Model file format, solution records, and deterministic serialization.

A model is a single JSON object::

    {
      "states":  ["running", "broken"],
      "actions": {"running": ["m", "nm"], "broken": ["r", "s"]},
      "kernel":  {"running": {"m": [0.6, 0.4], ...}, ...},
      "cost":    {"running": {"m": [20.0, 120.0], "nm": 0.0, ...}, ...},
      "terminal_cost": [0.0, 0.0],          # optional, defaults to zeros
      "discount": 1.0,
      "radius": 0.85,                        # scalar or per-stage list
      "horizon": 3                           # omit for stationary models
    }

Stage costs may be scalars ``f(x, u)`` or per-next-state vectors
``c(x, u, z)``. Kernel rows are renormalized when their sums drift from 1 by
at most 1e-6 and rejected beyond that. An optional ``"initial"`` distribution
supports the initial-ambiguity post-processing step in :mod:`tvdp.finite`.

A parsed model keeps one row per (state, action) pair, states in order and
each state's actions in declared order: the nominal kernel is one ``(M, n)``
matrix, and the costs follow the same rows (see :class:`RobustMdpModel`).
Every solver reads these rows directly; a policy picks row ``starts[i] + a``
at state ``i``.

All writers here are deterministic: sorted JSON keys, floats at 12
significant digits, LF line endings. Serializing a parsed document a second
time is byte-identical.
"""

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .oracle import _is_real, as_distribution

SOLUTION_CSV_HEADER = "stage,state,action,value"
SWEEP_CSV_HEADER = "radius,state,value,action"

_MODEL_KEYS = {
    "states", "actions", "kernel", "cost",
    "terminal_cost", "discount", "radius", "horizon", "initial",
}


class ModelError(ValueError):
    """Invalid model document or solution document."""


@dataclass(frozen=True)
class RobustMdpModel:
    """A finite MDP with a TV ambiguity ball around its nominal kernel.

    States and actions are kept as labels; everything numeric is indexed by
    (state, action) row, states in order and each state's actions in declared
    order. State ``i`` owns ``counts[i]`` rows from ``starts[i]`` on, so row
    ``starts[i] + a`` of the ``(M, n)`` matrix ``kernels`` is the nominal
    ``Q(.|x_i, u_a)``, with ``M`` the number of (state, action) pairs.
    ``cost_scalar`` (``(M,)``) and ``cost_vector`` (``(M, n)``) follow the same
    rows and split each stage cost into its ``f(x, u)`` and ``c(x, u, z)``
    parts; a pair with a scalar cost has a zero ``cost_vector`` row, and a
    list cost a zero ``cost_scalar`` entry.
    """

    states: tuple
    actions: tuple
    kernels: np.ndarray
    cost_scalar: np.ndarray
    cost_vector: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    discount: float
    radius: object
    horizon: object
    terminal_cost: np.ndarray
    initial: object = None

    @property
    def n_states(self):
        return len(self.states)

    @property
    def is_finite(self):
        return self.horizon is not None

    @property
    def has_vector_cost(self):
        """Whether any stage cost depends on the next state (a non-zero ``cost_vector``)."""
        return bool(self.cost_vector.any())

    def scalar_radius(self):
        """The single radius of a stationary model (or a broadcast scalar)."""
        if isinstance(self.radius, tuple):
            raise ModelError("model carries per-stage radii, not a scalar radius")
        return float(self.radius)

    def stage_radii(self):
        """Radii (R_0, ..., R_n) indexed by the kernel they perturb."""
        if not self.is_finite:
            raise ModelError("stage radii only exist for finite-horizon models")
        if isinstance(self.radius, tuple):
            return self.radius
        return (float(self.radius),) * (self.horizon + 1)

    def with_radius(self, radius):
        """Copy of the model with its radius replaced (scalar or per-stage)."""
        return replace(self, radius=_parse_radius(radius, self.horizon))

    def with_horizon(self, horizon):
        """Copy with a new horizon; a per-stage radius list must still fit."""
        if horizon is not None:
            horizon = _parse_horizon(horizon)
        if isinstance(self.radius, tuple):
            _parse_radius(list(self.radius), horizon)
        _check_discount(self.discount, horizon)
        return replace(self, horizon=horizon)

    def action_index(self, state_idx, label):
        try:
            return self.actions[state_idx].index(label)
        except ValueError:
            state = self.states[state_idx]
            raise ModelError(f"unknown action {label!r} for state {state!r}") from None

    def policy_indices(self, policy):
        """Per-state action indices for a policy of action labels or indices."""
        entries = list(policy)
        if len(entries) != self.n_states:
            raise ModelError(
                f"policy has {len(entries)} entries for {self.n_states} states"
            )
        if all(isinstance(e, str) for e in entries):
            return np.array(
                [self.action_index(i, a) for i, a in enumerate(entries)], dtype=np.intp
            )
        if not all(isinstance(e, (int, np.integer)) for e in entries):
            raise ModelError("policy must be all action labels or all integer indices")
        idx = np.asarray(entries, dtype=np.intp)
        for i, a in enumerate(idx):
            if not 0 <= a < len(self.actions[i]):
                raise ModelError(
                    f"action index {a} out of range for state {self.states[i]!r}"
                )
        return idx

    def policy_labels(self, idx):
        return tuple(self.actions[i][a] for i, a in enumerate(idx))

    def transition_cost_matrix(self, policy_idx):
        """Total per-transition cost ``f(x, g(x)) + c(x, g(x), z)`` as (n, n).

        ``policy_idx`` is checked by :meth:`policy_indices`.
        """
        pick = self.starts + self.policy_indices(policy_idx)
        return self.cost_scalar[pick, None] + self.cost_vector[pick]

    def max_stage_cost(self):
        """Largest per-transition stage cost appearing anywhere in the model."""
        return float((self.cost_scalar[:, None] + self.cost_vector).max())


def parse_model(source):
    """Parse a model document (dict or JSON text) into a RobustMdpModel.

    Raises ModelError on any structural or numeric violation: unknown keys,
    missing state/action entries, kernel rows off by more than 1e-6,
    negative costs, discount or radius outside their domains.
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ModelError(f"unknown model keys: {sorted(unknown)}")
    for key in ("states", "actions", "kernel", "cost", "discount", "radius"):
        if key not in doc:
            raise ModelError(f"model is missing required key {key!r}")

    states = _parse_labels(doc["states"], "states")
    n = len(states)
    horizon = _parse_horizon(doc.get("horizon"))
    discount = _check_discount(doc["discount"], horizon)
    radius = _parse_radius(doc["radius"], horizon)

    actions = []
    for s in states:
        acts = _lookup(doc["actions"], s, "actions")
        actions.append(_parse_labels(acts, f"actions[{s!r}]"))
    _reject_extra_states(doc["actions"], states, "actions")

    rows, f_sc, f_vec = [], [], []
    for i, s in enumerate(states):
        krows = _lookup(doc["kernel"], s, "kernel")
        crows = _lookup(doc["cost"], s, "cost")
        for a in actions[i]:
            row = _lookup(krows, a, f"kernel[{s!r}]")
            rows.append(_parse_distribution(row, n, f"kernel[{s!r}][{a!r}]"))
            sc, vec = _parse_cost(_lookup(crows, a, f"cost[{s!r}]"), n, s, a)
            f_sc.append(sc)
            f_vec.append(vec)
        _reject_extra_actions(krows, actions[i], f"kernel[{s!r}]")
        _reject_extra_actions(crows, actions[i], f"cost[{s!r}]")
    counts = np.array([len(acts) for acts in actions], dtype=np.intp)

    terminal = doc.get("terminal_cost")
    if terminal is None:
        terminal = np.zeros(n)
    else:
        terminal = _parse_cost_vector(terminal, n, "terminal_cost")

    initial = doc.get("initial")
    if initial is not None:
        initial = _parse_distribution(initial, n, "initial")

    return RobustMdpModel(
        states=states,
        actions=tuple(actions),
        kernels=np.array(rows),
        cost_scalar=np.array(f_sc),
        cost_vector=np.array(f_vec),
        starts=np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp),
        counts=counts,
        discount=discount,
        radius=radius,
        horizon=horizon,
        terminal_cost=terminal,
        initial=initial,
    )


def load_model(path):
    """Read and parse a model JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from None
    return parse_model(text)


def example_names():
    """Names of the bundled example models."""
    return ("machine", "threestate")


def example_model_text(name):
    """Raw JSON text of a bundled example model."""
    if name not in example_names():
        raise ModelError(f"unknown example model {name!r}; have {example_names()}")
    from importlib.resources import files

    return files("tvdp").joinpath(f"examples/{name}.json").read_text(encoding="utf-8")


def load_example(name):
    """Parse one of the bundled example models by name."""
    return parse_model(example_model_text(name))


# ---------------------------------------------------------------------------
# solution records


@dataclass(frozen=True)
class SolutionRecord:
    """Serializable result of a solve.

    ``kind`` is "finite" (``values[j]`` per stage j, terminal policy None) or
    "stationary" (single entry, stage written as -1 in CSV). ``worst_kernels``
    holds one (n, n) matrix per entry, row i the maximizing kernel row at
    state i under the chosen action, or None where there is no decision.
    """

    kind: str
    states: tuple
    values: tuple
    policies: tuple
    worst_kernels: tuple
    metadata: dict


@dataclass(frozen=True)
class SweepPoint:
    """One radius on a sweep curve: values and policy at that radius."""

    radius: float
    values: np.ndarray
    policy: tuple


def serialize_solution(record):
    """Render a SolutionRecord as canonical JSON text.

    Deterministic: sorted keys, 12 significant digits, trailing newline.
    Serializing the result of :func:`read_solution` reproduces the exact
    bytes.
    """
    doc = dict(record.metadata)
    doc["kind"] = record.kind
    doc["states"] = list(record.states)
    if record.kind == "stationary":
        doc["values"] = _listify(record.values[0])
        doc["policy"] = list(record.policies[0])
        doc["worst_kernel_matrix"] = _listify(record.worst_kernels[0])
    elif record.kind == "finite":
        doc["stages"] = [
            {
                "stage": j,
                "values": _listify(record.values[j]),
                "policy": None if record.policies[j] is None else list(record.policies[j]),
                "worst_kernels": _listify(record.worst_kernels[j]),
            }
            for j in range(len(record.values))
        ]
    else:
        raise ModelError(f"unknown solution kind {record.kind!r}")
    return dumps_canonical(doc) + "\n"


def read_solution(text):
    """Parse serialized solution JSON back into a SolutionRecord.

    A malformed document raises ModelError: a missing or mistyped field,
    values that are not finite numbers, a policy without one action label per
    state, or worst kernels that are not n-by-n matrices of distributions.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid solution JSON: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelError("solution document must be an object with a 'kind'")
    kind = doc.pop("kind")
    if kind not in ("stationary", "finite"):
        raise ModelError(f"unknown solution kind {kind!r}")
    where = f"invalid {kind} solution document"
    states = _parse_labels(_pop_field(doc, "states", where), f"{where}: states")
    n = len(states)
    if kind == "stationary":
        stages, kernel_key = [doc], "worst_kernel_matrix"
    else:
        stages, kernel_key = _pop_field(doc, "stages", where), "worst_kernels"
        if not isinstance(stages, list) or not all(
            isinstance(st, dict) and type(st.get("stage")) is int for st in stages
        ):
            raise ModelError(f"{where}: stages must be objects with an integer 'stage'")
        stages = sorted(stages, key=lambda st: st["stage"])
        if [st["stage"] for st in stages] != list(range(len(stages))):
            raise ModelError(f"{where}: stages must be numbered 0 to {len(stages) - 1}")
    values, policies, kernels = [], [], []
    for st in stages:
        v = _real_vector(_pop_field(st, "values", where), n, f"{where}: values")
        if not np.all(np.isfinite(v)):
            raise ModelError(f"{where}: values must be finite")
        policy = _pop_field(st, "policy", where)
        labels = isinstance(policy, list) and all(isinstance(a, str) for a in policy)
        if not (labels and len(policy) == n or policy is None and kind == "finite"):
            raise ModelError(f"{where}: a policy needs one action label per state")
        values.append(v)
        policies.append(None if policy is None else tuple(policy))
        kernels.append(_read_kernels(_pop_field(st, kernel_key, where), n, where))
    return SolutionRecord(kind, states, tuple(values), tuple(policies), tuple(kernels), doc)


def solution_csv(record):
    """Render a SolutionRecord as ``stage,state,action,value`` CSV text.

    Stationary solutions use stage -1; terminal stages have an empty action
    column. LF line endings, 12 significant digits.
    """
    lines = [SOLUTION_CSV_HEADER]
    if record.kind == "stationary":
        entries = [(-1, record.values[0], record.policies[0])]
    else:
        entries = [
            (j, record.values[j], record.policies[j])
            for j in range(len(record.values))
        ]
    for stage, vals, policy in entries:
        for i, state in enumerate(record.states):
            action = "" if policy is None else policy[i]
            lines.append(f"{stage},{state},{action},{format_float(vals[i])}")
    return "\n".join(lines) + "\n"


def sweep_csv(points, states):
    """Render sweep points as ``radius,state,value,action`` CSV text."""
    return SWEEP_CSV_HEADER + "\n" + _sweep_rows(points, states)


def _sweep_rows(points, states):
    """The CSV rows of ``points`` after the header, each ending in a newline."""
    return "".join(
        f"{format_float(pt.radius)},{state},{format_float(pt.values[i])},{pt.policy[i]}\n"
        for pt in points
        for i, state in enumerate(states)
    )


def read_csv_rows(text):
    """Parse CSV text into a list of row dicts (used by tests and tooling)."""
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# canonical JSON


def format_float(x):
    """Format a float at 12 significant digits (canonical across writers).

    Negative zero prints as ``0``: adding ``+0.0`` turns ``-0.0`` into ``0.0``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ModelError("cannot serialize non-finite number")
    return "%.12g" % (x + 0.0)


def dumps_canonical(obj):
    """Deterministic JSON: sorted keys, 12-significant-digit floats."""
    out = io.StringIO()
    _dump(obj, out)
    return out.getvalue()


def _dump(obj, out):
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, str):
        out.write(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(obj))
    elif isinstance(obj, dict):
        out.write("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ModelError("JSON object keys must be strings")
            if k:
                out.write(",")
            out.write(json.dumps(key, ensure_ascii=False))
            out.write(":")
            _dump(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.write("[")
        for k, item in enumerate(items):
            if k:
                out.write(",")
            _dump(item, out)
        out.write("]")
    else:
        raise ModelError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_labels(obj, where):
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ModelError(f"{where} must be a non-empty list of labels")
    labels = []
    for item in obj:
        if not isinstance(item, str) or not item:
            raise ModelError(f"{where} labels must be non-empty strings")
        if any(ch in item for ch in ",\n\r"):
            raise ModelError(f"{where} label {item!r} contains a comma or newline")
        labels.append(item)
    if len(set(labels)) != len(labels):
        raise ModelError(f"{where} labels are not unique")
    return tuple(labels)


def _lookup(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ModelError(f"{where} must be an object")
    if key not in mapping:
        raise ModelError(f"{where} is missing an entry for {key!r}")
    return mapping[key]


def _reject_extra_states(mapping, states, where):
    extra = set(mapping) - set(states)
    if extra:
        raise ModelError(f"{where} references unknown states: {sorted(extra)}")


def _reject_extra_actions(mapping, acts, where):
    extra = set(mapping) - set(acts)
    if extra:
        raise ModelError(f"{where} references unknown actions: {sorted(extra)}")


def _parse_cost(val, n, state, action):
    where = f"cost[{state!r}][{action!r}]"
    if _is_real(val):
        sc = float(val)
        if not math.isfinite(sc) or sc < 0.0:
            raise ModelError(f"{where} must be finite and non-negative")
        return sc, np.zeros(n)
    if isinstance(val, (list, tuple, np.ndarray)):
        return 0.0, _parse_cost_vector(val, n, where)
    raise ModelError(f"{where} must be a number or a length-{n} list")


def _real_vector(val, n, where):
    """A length-``n`` document vector as float64, every entry a real number but a bool."""
    if isinstance(val, np.ndarray):
        val = val.tolist()
    if not isinstance(val, (list, tuple)) or len(val) != n or not all(map(_is_real, val)):
        raise ModelError(f"{where} must be a list of {n} numbers")
    return np.asarray(val, dtype=np.float64)


def _parse_distribution(val, n, where):
    vec = _real_vector(val, n, where)
    try:
        return as_distribution(vec, sum_tol=1e-6, entry_tol=1e-9)
    except ValueError as exc:
        raise ModelError(f"{where}: {exc}") from None


def _parse_cost_vector(val, n, where):
    vec = _real_vector(val, n, where)
    if not np.all(np.isfinite(vec)) or vec.min() < 0.0:
        raise ModelError(f"{where} must be finite and non-negative")
    return vec


def _parse_horizon(value):
    if value is None:
        return None
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ModelError(f"horizon must be a positive integer, got {value!r}")
    return int(value)


def _check_discount(value, horizon):
    if not _is_real(value):
        raise ModelError(f"discount must be a number, got {value!r}")
    a = float(value)
    if horizon is not None:
        if not 0.0 < a <= 1.0:
            raise ModelError(f"finite-horizon discount must be in (0, 1], got {a}")
    elif not 0.0 < a < 1.0:
        raise ModelError(f"stationary discount must be in (0, 1), got {a}")
    return a


def _check_one_radius(value, where="radius"):
    """The one rule for a model radius: a real number, not a bool, finite, in [0, 2]."""
    if not _is_real(value):
        raise ModelError(f"{where} must be a number, got {value!r}")
    r = float(value)
    if not math.isfinite(r) or not 0.0 <= r <= 2.0:
        raise ModelError(f"{where} must lie in [0, 2], got {r}")
    return r


def _parse_radius(value, horizon):
    if isinstance(value, (list, tuple)):
        if horizon is None:
            raise ModelError("per-stage radii require a horizon")
        if len(value) != horizon + 1:
            raise ModelError(
                f"per-stage radii need {horizon + 1} entries (R_0..R_n), got {len(value)}"
            )
        return tuple(_check_one_radius(v, f"radius[{k}]") for k, v in enumerate(value))
    return _check_one_radius(value)


def _listify(arr):
    if arr is None:
        return None
    return np.asarray(arr, dtype=np.float64).tolist()


def _pop_field(doc, key, where):
    if key not in doc:
        raise ModelError(f"{where}: missing {key!r}")
    return doc.pop(key)


def _read_kernels(obj, n, where):
    if obj is None:
        return None
    if not isinstance(obj, list) or len(obj) != n:
        raise ModelError(f"{where}: worst kernels must be an n-by-n matrix")
    mat = np.array([_real_vector(row, n, f"{where}: a worst kernel row") for row in obj])
    for row in mat:
        try:
            as_distribution(row, sum_tol=1e-9, entry_tol=1e-9)
        except ValueError as exc:
            raise ModelError(f"{where}: worst kernel row invalid: {exc}") from None
    return mat

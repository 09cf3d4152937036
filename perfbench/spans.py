"""Spans around calls into tvdp's public functions, and the per-layer metrics.

A ``Tracer`` replaces each traced function with a wrapper wherever a module
of the package holds a reference to it, so calls made inside tvdp (for
example ``solve_finite`` calling ``stage_backup``, or the Markov check calling
``waterfill_maximize``) are recorded too. Each span is ``(name, start, end,
parent, note)``; spans stay in memory until the run writes them out. The
layer of a span is the module that defines the function.
"""

import functools
import json
import time

LAYERS = ("oracle", "infinite", "finite", "verify", "model", "cli")

TRACED = {
    "oracle": ("waterfill_maximize",),
    "infinite": ("apply_bellman", "value_iteration", "policy_evaluation_nominal",
                 "build_worst_kernels", "policy_iteration", "sweep_radius_infinite",
                 "stationary_solution_record"),
    "finite": ("stage_backup", "solve_finite", "evaluate_policy_finite",
               "sweep_radius_finite", "finite_solution_record"),
    "verify": ("certify_waterfill", "fuzz_waterfill", "brute_force_finite",
               "markov_sufficiency_check", "monte_carlo_rollout"),
    "model": ("parse_model", "load_example", "example_model_text",
              "serialize_solution", "solution_csv", "sweep_csv"),
    "cli": ("main",),
}

CLI_COMMANDS = ("oracle", "solve-finite", "solve-infinite", "sweep", "certify", "simulate")
ORACLE_SIZES = (3, 8, 64)


def _note(name, args, result):
    """The count a span carries for its layer's metrics, if any."""
    if name == "oracle.waterfill_maximize":
        return len(args[0])
    if name == "cli.main":
        return args[0][0]
    if result is None:
        return None
    if name == "infinite.value_iteration":
        return result.iterations
    if name == "infinite.policy_iteration":
        return result[1].improvement_iterations
    if name == "infinite.sweep_radius_infinite":
        return len(result)
    if name == "verify.brute_force_finite":
        return result.enumerated
    if name == "verify.markov_sufficiency_check":
        return result.policies_enumerated
    return None


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self, tvdp):
        """Wrap every traced function in every module that references it."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = getattr(tvdp, layer)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for module in (tvdp,) + tuple(getattr(tvdp, layer) for layer in LAYERS):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, _note(name, args, result))

        return wrapper

    def write(self, path, origin):
        """Write the spans as JSON, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "note"],
                "spans": [[n, s - origin, e - origin, p, note]
                          for n, s, e, p, note in self.spans],
            }, fh)

    def metrics(self, rounds, window):
        """Per-layer metrics; per-round totals count spans inside ``window``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def calls(name, pred=None):
            return [(end - start, note) for n, start, end, _, note in spans
                    if n == name and (pred is None or pred(note))]

        def mean(name, scale, pred=None):
            got = calls(name, pred)
            return scale * sum(d for d, _ in got) / len(got) if got else 0.0

        def per_round(values):
            return sum(values) / rounds

        def rate(name):
            got = calls(name)
            total = sum(d for d, _ in got)
            return sum(note for _, note in got) / total if total else 0.0

        lo, hi = window
        self_time = dict.fromkeys(LAYERS, 0.0)
        for k, (name, start, end, _, _) in enumerate(spans):
            if lo <= start < hi:
                self_time[name.split(".")[0]] += end - start - child[k]

        out = {}
        for n in ORACLE_SIZES:
            out[f"oracle.waterfill_us.n{n}"] = (
                mean("oracle.waterfill_maximize", 1e6, lambda note, n=n: note == n), "us")
        sweeps = calls("infinite.sweep_radius_infinite")
        points = sum(note for _, note in sweeps)
        out.update({
            "infinite.apply_bellman_ms": (mean("infinite.apply_bellman", 1e3), "ms"),
            "infinite.sweep_point_ms": (
                1e3 * sum(d for d, _ in sweeps) / points if points else 0.0, "ms"),
            "infinite.vi_iterations": (
                per_round(note for _, note in calls("infinite.value_iteration")), "count"),
            "infinite.build_worst_kernels_ms": (mean("infinite.build_worst_kernels", 1e3), "ms"),
            "infinite.policy_evaluation_nominal_ms": (
                mean("infinite.policy_evaluation_nominal", 1e3), "ms"),
            "infinite.pi_improvements": (
                per_round(note for _, note in calls("infinite.policy_iteration")), "count"),
            "finite.stage_backup_ms": (mean("finite.stage_backup", 1e3), "ms"),
            "finite.solve_finite_ms": (mean("finite.solve_finite", 1e3), "ms"),
            "verify.certify_waterfill_ms": (mean("verify.certify_waterfill", 1e3), "ms"),
            "verify.brute_force_policies_per_s": (rate("verify.brute_force_finite"), "1/s"),
            "verify.markov_policies_per_s": (rate("verify.markov_sufficiency_check"), "1/s"),
            "verify.rollout_s": (
                per_round(d for d, _ in calls("verify.monte_carlo_rollout")), "s"),
            "model.parse_model_ms": (mean("model.parse_model", 1e3), "ms"),
            "model.sweep_csv_ms": (mean("model.sweep_csv", 1e3), "ms"),
            "model.serialize_solution_ms": (mean("model.serialize_solution", 1e3), "ms"),
        })
        for command in CLI_COMMANDS:
            out[f"cli.main_ms.{command}"] = (
                mean("cli.main", 1e3, lambda note, c=command: note == c), "ms")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_time[layer] / rounds, "s")
        return out

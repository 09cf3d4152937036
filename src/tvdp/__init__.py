"""Robust dynamic programming over total-variation ambiguity sets.

The package solves finite and discounted infinite-horizon Markov decision
problems whose transition kernels are only known up to a total-variation
ball around a nominal kernel. The adversary's inner maximization has a
closed-form water-filling solution (:mod:`tvdp.oracle`); the solvers
(:mod:`tvdp.finite`, :mod:`tvdp.infinite`) run classical backward induction,
value iteration and policy iteration on top of it. :mod:`tvdp.verify` holds
independent certification oracles and a Monte Carlo rollout estimator, and
:mod:`tvdp.cli` the command-line front end.
"""

from .finite import (
    StagePlan,
    evaluate_policy_finite,
    finite_solution_record,
    initial_worst_value,
    solve_finite,
    stage_backup,
    sweep_radius_finite,
)
from .infinite import (
    PolicyIterationError,
    PolicyIterationTrace,
    StationarySolution,
    apply_bellman,
    build_worst_kernels,
    policy_evaluation_nominal,
    policy_iteration,
    stationary_solution_record,
    sweep_radius_infinite,
    value_iteration,
)
from .model import (
    ModelError,
    RobustMdpModel,
    SolutionRecord,
    SweepPoint,
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
from .oracle import (
    DEFAULT_TIE_TOL,
    SupportPartition,
    WaterfillResult,
    as_distribution,
    oscillation,
    partition_levels,
    tv_distance,
    unclamped_value,
    waterfill_maximize,
)
from .verify import (
    CertifyReport,
    RolloutConfig,
    RolloutSummary,
    brute_force_finite,
    certify_waterfill,
    dual_max_value,
    fuzz_waterfill,
    markov_sufficiency_check,
    monte_carlo_rollout,
)

__version__ = "0.1.0"

__all__ = [
    "CertifyReport",
    "DEFAULT_TIE_TOL",
    "ModelError",
    "PolicyIterationError",
    "PolicyIterationTrace",
    "RobustMdpModel",
    "RolloutConfig",
    "RolloutSummary",
    "SolutionRecord",
    "StagePlan",
    "StationarySolution",
    "SupportPartition",
    "SweepPoint",
    "WaterfillResult",
    "__version__",
    "apply_bellman",
    "as_distribution",
    "brute_force_finite",
    "build_worst_kernels",
    "certify_waterfill",
    "dual_max_value",
    "dumps_canonical",
    "evaluate_policy_finite",
    "example_model_text",
    "example_names",
    "finite_solution_record",
    "fuzz_waterfill",
    "initial_worst_value",
    "load_example",
    "load_model",
    "markov_sufficiency_check",
    "monte_carlo_rollout",
    "oscillation",
    "parse_model",
    "partition_levels",
    "policy_evaluation_nominal",
    "policy_iteration",
    "read_solution",
    "serialize_solution",
    "solution_csv",
    "solve_finite",
    "stage_backup",
    "stationary_solution_record",
    "sweep_csv",
    "sweep_radius_finite",
    "sweep_radius_infinite",
    "tv_distance",
    "unclamped_value",
    "value_iteration",
    "waterfill_maximize",
]

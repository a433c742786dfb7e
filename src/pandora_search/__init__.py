"""Optimal and approximately-optimal policies for box search with optional
inspection: exact rational evaluation, an adaptive DP oracle, committing
policies with approximation certificates, and a seeded simulator."""

from .core import (
    Box,
    DiscreteDist,
    Instance,
    SizeGuardError,
    max_of_independents,
)
from .reservation import modified_instance, profile, reservation_value
from .policies import (
    CallbackPolicy,
    CommittingPolicy,
    Halt,
    IllegalActionError,
    Inspect,
    PathLimitError,
    SearchState,
    SelectClosed,
    SelectOpen,
    WeitzmanPolicy,
)
from .evaluator import (
    evaluate_exact,
    evaluate_nonexposed_closed_form,
    iter_traces,
)
from .committing import best_committing
from .adaptive import NONOBLIGATORY, REQUIRED, dp_policy, solve_dp
from .twobox import (
    ALWAYS_CLOSED,
    ALWAYS_OPEN,
    MIXED,
    analyze_two_box,
    ratio_certificate,
    tight_example,
    two_box_threshold,
)
from .reduction import (
    build_associated,
    multilinear_value,
    nonadaptive_value,
    phi_value_bound,
    psi_transform,
)
from .simulator import simulate
from .generators import random_instance

__all__ = [
    "Box",
    "DiscreteDist",
    "Instance",
    "SizeGuardError",
    "max_of_independents",
    "profile",
    "reservation_value",
    "modified_instance",
    "CallbackPolicy",
    "CommittingPolicy",
    "Halt",
    "IllegalActionError",
    "Inspect",
    "SearchState",
    "SelectClosed",
    "SelectOpen",
    "WeitzmanPolicy",
    "PathLimitError",
    "evaluate_exact",
    "evaluate_nonexposed_closed_form",
    "iter_traces",
    "best_committing",
    "NONOBLIGATORY",
    "REQUIRED",
    "dp_policy",
    "solve_dp",
    "ALWAYS_CLOSED",
    "ALWAYS_OPEN",
    "MIXED",
    "analyze_two_box",
    "ratio_certificate",
    "tight_example",
    "two_box_threshold",
    "build_associated",
    "multilinear_value",
    "nonadaptive_value",
    "phi_value_bound",
    "psi_transform",
    "simulate",
    "random_instance",
]

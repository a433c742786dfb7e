"""Optimal and approximately-optimal policies for box search with optional
inspection: exact rational evaluation, an adaptive DP oracle, committing
policies with approximation certificates, and a seeded simulator."""

from .core import (
    Box,
    DiscreteDist,
    Instance,
    InvalidDistributionError,
    SizeGuardError,
    max_of_independents,
)
from .reservation import ReservationProfile, amortized_bound, profile, reservation_value
from .policies import (
    CallbackPolicy,
    CommittingPolicy,
    DecisionTablePolicy,
    Halt,
    IllegalActionError,
    Inspect,
    Policy,
    SearchState,
    SelectClosed,
    SelectOpen,
    Trace,
    WeitzmanPolicy,
)
from .evaluator import (
    EvalResult,
    PathLimitError,
    evaluate_exact,
    evaluate_nonexposed_closed_form,
    iter_traces,
)
from .committing import CommittingSolution, best_committing, modified_instance
from .adaptive import NONOBLIGATORY, REQUIRED, DPSolution, dp_policy, solve_dp
from .twobox import (
    ALWAYS_CLOSED,
    ALWAYS_OPEN,
    MIXED,
    TwoBoxAnalysis,
    analyze_two_box,
    nonadapt_lower_bound,
    ratio_certificate,
    tight_example,
    two_box_threshold,
)
from .reduction import (
    AssociatedProblem,
    build_associated,
    multilinear_value,
    nonadaptive_value,
    phi_value_bound,
    psi_transform,
)
from .simulator import SimReport, simulate
from .generators import random_instance

__all__ = [
    "Box",
    "DiscreteDist",
    "Instance",
    "InvalidDistributionError",
    "SizeGuardError",
    "max_of_independents",
    "ReservationProfile",
    "amortized_bound",
    "profile",
    "reservation_value",
    "CallbackPolicy",
    "CommittingPolicy",
    "DecisionTablePolicy",
    "Halt",
    "IllegalActionError",
    "Inspect",
    "Policy",
    "SearchState",
    "SelectClosed",
    "SelectOpen",
    "Trace",
    "WeitzmanPolicy",
    "EvalResult",
    "PathLimitError",
    "evaluate_exact",
    "evaluate_nonexposed_closed_form",
    "iter_traces",
    "CommittingSolution",
    "best_committing",
    "modified_instance",
    "NONOBLIGATORY",
    "REQUIRED",
    "DPSolution",
    "dp_policy",
    "solve_dp",
    "ALWAYS_CLOSED",
    "ALWAYS_OPEN",
    "MIXED",
    "TwoBoxAnalysis",
    "analyze_two_box",
    "nonadapt_lower_bound",
    "ratio_certificate",
    "tight_example",
    "two_box_threshold",
    "AssociatedProblem",
    "build_associated",
    "multilinear_value",
    "nonadaptive_value",
    "phi_value_bound",
    "psi_transform",
    "SimReport",
    "simulate",
    "random_instance",
]

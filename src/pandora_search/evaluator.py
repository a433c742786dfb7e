"""Exact policy evaluation by exhaustive path enumeration, plus the
closed-form value of non-exposed committing policies.

Path enumeration walks the policy's execution tree (policies.PolicyTree) and
branches only on the values of boxes the policy actually inspects; a box
selected closed contributes its mean, integrating out the unobserved draw.
This shrinks the tree from s^n leaves to s^(#inspected) per path and is exact
by independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .core import Instance, Num, SizeGuardError, max_of_independents
from .policies import Halt, Inspect, Node, Policy, PolicyTree, SelectOpen, Trace
from . import reservation

DEFAULT_PATH_LIMIT = 10_000_000


class PathLimitError(SizeGuardError):
    """Exact enumeration exceeded the configured number of sample paths."""


@dataclass(frozen=True)
class EvalResult:
    """Exact expectation of a policy plus its per-box decomposition."""

    utility: Num
    inspect_probs: Tuple[Num, ...]       # P(I_i = 1)
    select_probs: Tuple[Num, ...]        # P(x_i = 1)
    selected_value: Tuple[Num, ...]      # E[x_i v_i]
    inspection_cost: Tuple[Num, ...]     # E[I_i c_i]
    selected_amortized: Tuple[Num, ...]  # E[x_i kappa~_i]
    path_count: int


def _nodes(tree: PolicyTree, limit: Optional[int]) -> Iterator[Tuple[Node, Num]]:
    """Every node of the execution tree with its probability, depth first.
    Raises PathLimitError at the first terminal node past the guard, which is
    DEFAULT_PATH_LIMIT when limit is None."""
    lim = DEFAULT_PATH_LIMIT if limit is None else limit
    paths = 0
    for node, prob in tree.walk():
        if node.children is None:
            paths += 1
            if paths > lim:
                raise PathLimitError(f"path enumeration exceeded limit of {lim}")
        yield node, prob


def iter_traces(inst: Instance, pol: Policy, limit: Optional[int] = None) -> Iterator[Trace]:
    """Enumerate every execution path of a deterministic policy with its
    probability and expected utility.  Raises PathLimitError past the guard
    and IllegalActionError on a bad policy action."""
    tree = PolicyTree(inst, pol)
    for node, prob in _nodes(tree, limit):
        if node.children is None:
            yield Trace(node.state.observed, node.action, prob, tree.payoff(node))


def evaluate_exact(inst: Instance, pol: Policy, limit: Optional[int] = None) -> EvalResult:
    """Exact expectations, accumulated once per node of the execution tree:
    P(I_i) gathers the probability of every node that inspects box i, and
    E[I_i c_i] = c_i P(I_i)."""
    n = inst.n
    prof = reservation.profile(inst)
    inspect_probs = [0] * n
    select_probs = [0] * n
    selected_value = [0] * n
    selected_amortized = [0] * n
    paths = 0
    for node, prob in _nodes(PolicyTree(inst, pol), limit):
        action = node.action
        if isinstance(action, Inspect):
            inspect_probs[action.box] += prob
            continue
        paths += 1
        if isinstance(action, Halt):
            continue
        i = action.box
        select_probs[i] += prob
        if isinstance(action, SelectOpen):
            v = dict(node.state.observed)[i]
            selected_value[i] += prob * v
            selected_amortized[i] += prob * min(v, prof.sigmas[i])
        else:
            selected_value[i] += prob * prof.expected_values[i]
            selected_amortized[i] += prob * prof.expected_values[i]
    inspection_cost = [box.cost * p for box, p in zip(inst.boxes, inspect_probs)]
    return EvalResult(
        utility=sum(selected_value) - sum(inspection_cost),
        inspect_probs=tuple(inspect_probs),
        select_probs=tuple(select_probs),
        selected_value=tuple(selected_value),
        inspection_cost=tuple(inspection_cost),
        selected_amortized=tuple(selected_amortized),
        path_count=paths,
    )


def evaluate_nonexposed_closed_form(inst: Instance, reservation_set=frozenset()) -> Num:
    """E[max_i kappa~_i] for the committing policy with the given reservation
    set; equals evaluate_exact(CommittingPolicy(inst, S)).utility.

    kappa~ is kappa on the modified instance: a point mass at E[v] for boxes
    in S, min(v, sigma) otherwise.  With S empty this is the Weitzman value
    E[max_i kappa_i]."""
    modified = reservation.modified_instance(inst, reservation_set)
    return max_of_independents(reservation.profile(modified).kappa_dists).expectation()

"""Exact policy evaluation by exhaustive path enumeration, plus the
closed-form value of non-exposed committing policies.

Path enumeration walks the policy's execution tree (policies.PolicyTree) and
branches only on the values of boxes the policy actually inspects; a box
selected closed contributes its mean, integrating out the unobserved draw.
This shrinks the tree from s^n leaves to s^(#inspected) per path and is exact
by independence.

The walk carries integer weights, each node's probability times the tree's
scale (the product of the boxes' probability denominators), so enumeration
adds and multiplies only ints, and it enforces the path guard (PathLimitError
past policies.PATH_LIMIT).  evaluate_exact sums the weights per box, and per
(box, rank of the observed value in the tree's value grid) for open
selections, and builds each result's Fraction once from those sums, reading
each value from the grid.  It reads each node's integers (action, best box
and rank), as the built-in policies do, so a node's SearchState is built
only for a CallbackPolicy, whose function gets node.state, or for an open
selection of a box other than the best; iter_traces reads every leaf's
state for its Trace.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple

from .core import Instance, Num, max_of_independents
from .policies import Halt, Inspect, Policy, PolicyTree, SelectOpen, Trace
from . import reservation


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


def iter_traces(inst: Instance, pol: Policy) -> Iterator[Trace]:
    """Enumerate every execution path of a deterministic policy with its
    probability and expected utility.  Raises PathLimitError past the guard
    and IllegalActionError on a bad policy action."""
    tree = PolicyTree(inst, pol)
    for node, weight in tree.walk():
        if not isinstance(node.action, Inspect):
            yield Trace(node.state.observed, node.action, Fraction(weight, tree.scale), tree.payoff(node))


def evaluate_exact(inst: Instance, pol: Policy) -> EvalResult:
    """Exact expectations from integer node weights (probability times
    tree.scale): per box, the weight of the nodes that inspect it and of the
    paths that select it closed; per (box, grid rank of the observed value),
    the weight of the paths that select it open.  Each field's Fraction is
    built once from these sums, and E[I_i c_i] = c_i P(I_i)."""
    n = inst.n
    tree = PolicyTree(inst, pol)
    grid = inst.form.grid
    inspected = [0] * n
    closed = [0] * n
    opened: Dict[Tuple[int, int], int] = {}  # (box, grid rank) -> weight
    paths = 0
    for node, weight in tree.walk():
        action = node.action
        if isinstance(action, Inspect):
            inspected[action.box] += weight
            continue
        paths += 1
        if isinstance(action, SelectOpen):
            # The selected box is nearly always the carried best one, whose
            # rank the node holds; another one's rank is looked up by value.
            i = action.box
            if node.best == i:
                key = (i, node.rank)
            else:
                key = (i, bisect_left(grid, dict(node.state.observed)[i]))
            opened[key] = opened.get(key, 0) + weight
        elif not isinstance(action, Halt):
            closed[action.box] += weight

    sigmas = [reservation.reservation_value(box) for box in inst.boxes]
    scale = tree.scale
    selected = list(closed)
    value = [w * box.dist.expectation() for w, box in zip(closed, inst.boxes)]
    amortized = list(value)
    for (i, r), w in opened.items():
        v = grid[r]
        selected[i] += w
        value[i] += w * v
        amortized[i] += w * min(v, sigmas[i])
    inspect_probs = tuple(Fraction(w, scale) for w in inspected)
    selected_value = tuple(Fraction(x) / scale for x in value)
    inspection_cost = tuple(box.cost * p for box, p in zip(inst.boxes, inspect_probs))
    return EvalResult(
        utility=sum(selected_value) - sum(inspection_cost),
        inspect_probs=inspect_probs,
        select_probs=tuple(Fraction(w, scale) for w in selected),
        selected_value=selected_value,
        inspection_cost=inspection_cost,
        selected_amortized=tuple(Fraction(x) / scale for x in amortized),
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

"""Exact policy evaluation by exhaustive path enumeration, plus the
closed-form value of non-exposed committing policies.

Path enumeration walks the policy's execution tree (policies.PolicyTree) and
branches only on the values of boxes the policy actually inspects; a box
selected closed contributes its mean, integrating out the unobserved draw.
This shrinks the tree from s^n leaves to s^(#inspected) per path and is exact
by independence.

The walk carries integer weights, each node's probability times the tree's
scale W (the product of the boxes' probability denominators), so enumeration
adds and multiplies only ints, and it enforces the path guard (PathLimitError
past policies.PATH_LIMIT).  evaluate_exact sums the weights per box, and per
(box, grid rank of the observed value) for open selections; the selected
values, amortized values and paid costs are then integer sums on W L, with
each value, E[v], sigma and cost times L from the instance's integer form
(core.IntegerForm), and each result field, utility included, is one Fraction
built from those sums: no Fraction arithmetic.  It reads each node's
integers (action, best box and rank), as the built-in policies do, and its
observed pairs only for an open selection of a box other than the best
(PolicyTree.opened_rank); iter_traces reads every leaf's observed pairs for
its Trace.  The closed form, the committing search's independent oracle,
reads each box's sigma and E[v] from the integer form too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple

from .core import DiscreteDist, Instance, Num, max_of_independents
from .policies import Halt, Inspect, Policy, PolicyTree, SelectOpen, Trace


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
            yield Trace(node.observed, node.action, Fraction(weight, tree.scale), tree.payoff(node))


def evaluate_exact(inst: Instance, pol: Policy) -> EvalResult:
    """Exact expectations from integer node weights (probability times
    tree.scale, W): per box, the weight of the nodes that inspect it and of
    the paths that select it closed; per (box, grid rank of the observed
    value), the weight of the paths that select it open.  Those weights times
    the form's integers give E[x_i v_i], E[x_i kappa~_i] and
    E[I_i c_i] = c_i P(I_i) times W L, and each field is one Fraction."""
    n = inst.n
    tree = PolicyTree(inst, pol)
    form = inst.form
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
            key = (action.box, tree.opened_rank(node))
            opened[key] = opened.get(key, 0) + weight
        elif not isinstance(action, Halt):
            closed[action.box] += weight

    scale, unit = tree.scale, tree.scale * form.scale  # W and W L
    selected = list(closed)
    value = [w * mean for w, mean in zip(closed, form.means)]
    amortized = list(value)
    for (i, r), w in opened.items():
        v = form.values[r]
        selected[i] += w
        value[i] += w * v
        amortized[i] += w * min(v, form.caps[i])
    paid = [w * cost for w, cost in zip(inspected, form.costs)]
    return EvalResult(
        utility=Fraction(sum(value) - sum(paid), unit),
        inspect_probs=tuple(Fraction(w, scale) for w in inspected),
        select_probs=tuple(Fraction(w, scale) for w in selected),
        selected_value=tuple(Fraction(x, unit) for x in value),
        inspection_cost=tuple(Fraction(x, unit) for x in paid),
        selected_amortized=tuple(Fraction(x, unit) for x in amortized),
        path_count=paths,
    )


def evaluate_nonexposed_closed_form(inst: Instance, reservation_set=frozenset()) -> Num:
    """E[max_i kappa~_i] for the committing policy with the given reservation
    set; equals evaluate_exact(CommittingPolicy(inst, S)).utility.

    kappa~ is kappa on the modified instance: a point mass at E[v] for boxes
    in S, min(v, sigma) otherwise.  With S empty this is the Weitzman value
    E[max_i kappa_i]."""
    s = frozenset(reservation_set)
    form = inst.form
    kappas = [DiscreteDist.point(mean) if i in s else box.dist.min_with(sigma)
              for i, (box, sigma, mean) in enumerate(zip(inst.boxes, form.sigmas, form.expected_values))]
    return sum(v * p for v, p in max_of_independents(kappas).support)

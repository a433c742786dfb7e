"""Reduction to stochastic submodular probing over paired variables.

Each box i contributes a pair of variables: index (i, 0) with the law of
kappa_i and index (i, 1) a point mass at E[v_i]; the partition matroid allows
probing at most one variable per pair, and the objective is the maximum of
the probed values (unprobed variables count as 0).

Probing (i, 0) corresponds to inspecting box i, probing (i, 1) to selecting
it uninspected, so a probe set B maps to the committing policy whose
reservation set is the boxes whose kappa-side variable is *not* probed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .core import DiscreteDist, Instance, Num, max_of_independents
from .evaluator import iter_traces
from .policies import CommittingPolicy, Policy
from . import reservation


@dataclass(frozen=True)
class AssociatedProblem:
    """2n-variable probing problem; variable index 2*i + j is X_{i,j}."""

    instance: Instance
    variables: Tuple[DiscreteDist, ...]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def pair(self, box: int) -> Tuple[int, int]:
        return (2 * box, 2 * box + 1)

    def is_independent(self, probe_set) -> bool:
        probe_set = set(probe_set)
        if not probe_set <= set(range(self.num_variables)):
            return False
        return all(
            not {2 * i, 2 * i + 1} <= probe_set
            for i in range(self.instance.n)
        )


def build_associated(inst: Instance) -> AssociatedProblem:
    prof = reservation.profile(inst)
    variables = []
    for i in range(inst.n):
        variables.append(prof.kappa_dists[i])
        variables.append(DiscreteDist.point(prof.expected_values[i]))
    return AssociatedProblem(instance=inst, variables=tuple(variables))


def _expected_max(dists) -> Num:
    """E[max(0, max of independent draws from dists)]."""
    return max_of_independents([*dists, DiscreteDist.point(0)]).expectation()


def nonadaptive_value(prob: AssociatedProblem, probe_set) -> Num:
    if not prob.is_independent(probe_set):
        raise ValueError(f"probe set {sorted(probe_set)} is not independent")
    return _expected_max(prob.variables[b] for b in probe_set)


def psi_transform(prob: AssociatedProblem, probe_set) -> CommittingPolicy:
    """Committing policy dominating the non-adaptive probe set: reservation
    set = boxes whose kappa-side variable is unprobed."""
    if not prob.is_independent(probe_set):
        raise ValueError(f"probe set {sorted(probe_set)} is not independent")
    probe_set = set(probe_set)
    s = frozenset(i for i in range(prob.instance.n) if 2 * i not in probe_set)
    return CommittingPolicy(prob.instance, s)


def phi_value_bound(inst: Instance, pol: Policy) -> Tuple[Num, Num]:
    """(u_pi, u_phi): the policy's exact utility and the value of its image
    in the associated problem under the kappa-coupling, u_phi = E[max kappa~].
    u_phi >= u_pi for every policy."""
    sigmas, means = inst.form.sigmas, inst.form.expected_values
    u_pi = 0
    u_phi = 0
    for tr in iter_traces(inst, pol):
        u_pi += tr.probability * tr.utility
        opened = dict(tr.steps)
        best = max(min(opened[i], sigmas[i]) if i in opened else means[i] for i in range(inst.n))
        u_phi += tr.probability * best
    return u_pi, u_phi


def multilinear_value(prob: AssociatedProblem, y: Sequence[Num]) -> Num:
    """Multilinear extension F(y): expected objective when each variable is
    probed independently with probability y_i.  Probes are independent, so
    F(y) = E[max(0, max_i Z_i)] with independent Z_i = X_i with probability
    y_i and 0 otherwise: one max_of_independents over these mixtures, O(m G)
    for a merged grid of G points.  Matroid feasibility of y is not required
    (that is a separate base-polytope question)."""
    m = prob.num_variables
    if len(y) != m:
        raise ValueError(f"expected {m} probabilities, got {len(y)}")
    if any(p < 0 or p > 1 for p in y):
        raise ValueError("probe probabilities must lie in [0, 1]")
    return _expected_max(
        DiscreteDist([(0, 1 - q)] + [(v, q * p) for v, p in x.support])
        for x, q in zip(prob.variables, y)
    )

"""Exact discrete distributions, boxes, and problem instances.

Every value, probability and cost is a `fractions.Fraction` (ints are
converted on the way in), so every identity in the library is an equality,
not a tolerance check.  Floats are rejected with TypeError where a
distribution or box is built.  The Monte Carlo simulator sums payoffs as
integers too; its only floats are the cumulative probabilities its draws cut
at, which must match Generator.random, and the once-rounded report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Iterable, List, Sequence, Tuple

Num = Fraction


class InvalidDistributionError(ValueError):
    """Raised when support/probability data does not form a distribution."""


class SizeGuardError(RuntimeError):
    """Raised when an exact computation would exceed its configured size limit."""


def as_num(x) -> Num:
    """Canonicalize a numeric literal: a Fraction comes back as is (fractions
    are immutable), ints and Fraction subclasses become plain Fractions;
    anything else, floats included, raises TypeError."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"unsupported numeric type {type(x).__name__}: use int or Fraction")


class DiscreteDist:
    """Finite discrete distribution in canonical form.

    Support is stored sorted ascending by value with duplicate values merged,
    zero-probability points dropped, and probabilities summing to one.
    Instances are immutable and hashable.
    """

    __slots__ = ("_support",)

    def __init__(self, pairs: Iterable[Tuple[Num, Num]]):
        merged: dict = {}
        for v, p in pairs:
            v = as_num(v)
            p = as_num(p)
            if p < 0:
                raise InvalidDistributionError(f"negative probability {p} at value {v}")
            if p == 0:
                continue
            merged[v] = merged.get(v, 0) + p
        if not merged:
            raise InvalidDistributionError("distribution has empty support")
        den, weights = scaled(list(merged.values()))
        total = sum(weights)
        if total != den:
            raise InvalidDistributionError(f"probabilities sum to {Fraction(total, den)}, not 1")
        self._support = tuple(sorted(merged.items()))

    @classmethod
    def point(cls, value: Num) -> "DiscreteDist":
        return cls([(value, 1)])

    @property
    def support(self) -> Tuple[Tuple[Num, Num], ...]:
        return self._support

    def values(self) -> Tuple[Num, ...]:
        return tuple(v for v, _ in self._support)

    def probs(self) -> Tuple[Num, ...]:
        return tuple(p for _, p in self._support)

    def min_value(self) -> Num:
        return self._support[0][0]

    def expectation(self) -> Num:
        """E[X] as one Fraction: values and probabilities each on their own
        integer scale (scaled), summed as integers."""
        den, probs = scaled(self.probs())
        scale, values = scaled(self.values())
        return Fraction(sum(v * p for v, p in zip(values, probs)), scale * den)

    def cdf_at(self, t: Num) -> Num:
        """P(X <= t)."""
        return sum(p for v, p in self._support if v <= t)

    def prob_at_least(self, t: Num) -> Num:
        """P(X >= t)."""
        return sum(p for v, p in self._support if v >= t)

    def min_with(self, sigma: Num) -> "DiscreteDist":
        """Distribution of min(X, sigma): mass above sigma collapses onto sigma."""
        return DiscreteDist((min(v, sigma), p) for v, p in self._support)

    def conditioned_at_least(self, t: Num) -> "DiscreteDist":
        """Distribution of X conditioned on X >= t."""
        y = self.prob_at_least(t)
        if y == 0:
            raise InvalidDistributionError(f"conditioning on null event X >= {t}")
        return DiscreteDist((v, p / y) for v, p in self._support if v >= t)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteDist) and self._support == other._support

    def __hash__(self) -> int:
        return hash(self._support)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in self._support)
        return f"DiscreteDist({{{inner}}})"


def scaled(xs: Sequence[Num]) -> Tuple[int, List[int]]:
    """(scale, ints): the lcm of the denominators of xs, and each x times it.

    This is the one conversion from Fractions (or ints) to the integers that
    the exact kernels compute on."""
    dens = [x.denominator for x in xs]
    scale = lcm(*dens)
    return scale, [x.numerator * (scale // d) for x, d in zip(xs, dens)]


def value_grid(dists: Iterable[DiscreteDist]) -> List[Num]:
    """The sorted distinct support values of dists, whose ranks index values."""
    return sorted({v for d in dists for v in d.values()})


def scaled_cdfs(dists: Sequence[DiscreteDist], grid: Sequence[Num]) -> List[Tuple[int, List[int]]]:
    """Each distribution's CDF on an ascending grid, in integers.

    For every distribution, one sorted sweep over its support and the grid
    gives its probability denominator d (the scale of its probabilities) and
    the integers d * P(X <= t) for each grid point t.
    """
    out = []
    for dist in dists:
        support = dist.support
        den, probs = scaled([p for _, p in support])
        row = []
        acc = 0
        j = 0
        for t in grid:
            while j < len(support) and support[j][0] <= t:
                acc += probs[j]
                j += 1
            row.append(acc)
        out.append((den, row))
    return out


def max_of_independents(dists: Sequence[DiscreteDist]) -> DiscreteDist:
    """Distribution of the max of independent draws, one per input distribution.

    Computed as P(max <= t) = prod_i P(X_i <= t) on the merged support grid,
    in integers scaled by the product of the probability denominators (see
    scaled_cdfs); works for arbitrary (including negative) support values.
    """
    if not dists:
        raise ValueError("need at least one distribution")
    grid = value_grid(dists)
    cdfs = scaled_cdfs(dists, grid)
    den = prod(d for d, _ in cdfs)
    joint = [1] * len(grid)
    for _, row in cdfs:
        joint = [a * b for a, b in zip(joint, row)]
    pairs = []
    prev = 0
    for t, cdf in zip(grid, joint):
        if cdf > prev:
            pairs.append((t, Fraction(cdf - prev, den)))
            prev = cdf
    return DiscreteDist(pairs)


@dataclass(frozen=True)
class Box:
    """A prize distribution together with its inspection cost."""

    dist: DiscreteDist
    cost: Num

    def __post_init__(self):
        object.__setattr__(self, "cost", as_num(self.cost))
        if self.cost < 0:
            raise ValueError(f"inspection cost must be nonnegative, got {self.cost}")


def reservation_scan(support: Sequence[Tuple[int, int]], cost: int, scale: int) -> Fraction:
    """Solve E[(v - sigma)^+] = c for sigma on integers: support is a box's
    (v L, p d) pairs in ascending order, d the scale of its probabilities and
    L one its values share with c, and cost is c d L.  With tail = {values
    >= v_i}, tail_p = d P(tail) and tail_s = d L E[v; tail], excess on
    [v_{i-1}, v_i) is (tail_s - s L tail_p) / (d L), so sigma is
    (tail_s - cost) / (L tail_p), one Fraction built at the piece holding it."""
    tail_p = 0
    tail_s = 0
    for i in range(len(support) - 1, -1, -1):
        v, w = support[i]
        tail_p += w
        tail_s += w * v
        # sigma >= v_{i-1}, the piece's lower end (none below the support)
        if i == 0 or tail_s - cost >= support[i - 1][0] * tail_p:
            return Fraction(tail_s - cost, tail_p * scale)
    raise AssertionError("unreachable: excess is unbounded below the support")


class IntegerForm:
    """An instance as the integers that adaptive.solve_dp and
    policies.PolicyTree compute on, built once per instance (Instance.form).

    grid is the sorted distinct support values of every box (value_grid),
    found by their integers on one scale: a value is its rank there, equal
    values share a rank, and a running best is a max of ranks.  boxes holds,
    per box, d_i, the lcm of its probability denominators (scaled), and its
    support as (rank, p * d_i) pairs; weight is prod_i d_i.  expected_values
    and sigmas (reservation_scan, on the scale that ranks the values) are the
    only E[v_i] and sigma_i that every reader takes.  scale, L, is the lcm of
    the denominators of every grid value, mean, cost and sigma; values,
    means, costs and caps are those times L, caps being sigma_i L, the cap of
    kappa_i = min(v_i, sigma_i).  So the value of a DP state (U, best) is an
    integer once multiplied by L * prod_{i in U} d_i: inspecting i scores
    -c_i L prod_U d + sum_v (p_v d_i) V(U - {i}, best'), and every candidate
    compare is an integer compare; a committing policy's order and stop test,
    its kappa rows and an evaluation's sums are integers on L too."""

    def __init__(self, inst: "Instance"):
        supports = [box.dist.support for box in inst.boxes]
        flat = [v for support in supports for v, _ in support]
        costs = [box.cost for box in inst.boxes]
        unit, ints = scaled([*flat, *costs])  # the costs last, past zip's end below
        value_of = dict(zip(ints, flat))  # keyed by ints: no Fraction is hashed
        rank = {k: r for r, k in enumerate(sorted(value_of))}
        self.grid = [value_of[k] for k in rank]
        boxes, means, sigmas = [], [], []
        it = iter(ints)
        for support, cost in zip(supports, ints[len(flat):]):
            d, weights = scaled([p for _, p in support])
            row = [(next(it), w) for w in weights]
            boxes.append((d, tuple((rank[v], w) for v, w in row)))
            means.append(Fraction(sum(v * w for v, w in row), unit * d))
            sigmas.append(reservation_scan(row, cost * d, unit))
        self.boxes: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...] = tuple(boxes)
        self.weight = prod(d for d, _ in boxes)
        self.expected_values: Tuple[Fraction, ...] = tuple(means)
        self.sigmas: Tuple[Fraction, ...] = tuple(sigmas)
        self.scale, ints = scaled([*self.grid, *means, *costs, *sigmas])
        g, n = len(self.grid), len(supports)
        self.values, self.means = ints[:g], ints[g:g + n]
        self.costs, self.caps = ints[g + n:g + 2 * n], ints[g + 2 * n:]


@dataclass(frozen=True)
class Instance:
    """A search problem: n boxes with nonnegative prize values."""

    boxes: Tuple[Box, ...]

    def __init__(self, boxes: Iterable[Box]):
        boxes = tuple(boxes)
        if not boxes:
            raise ValueError("instance needs at least one box")
        for i, b in enumerate(boxes):
            if b.dist.min_value() < 0:
                raise ValueError(f"box {i} has a negative prize value")
        object.__setattr__(self, "boxes", boxes)

    @property
    def n(self) -> int:
        return len(self.boxes)

    form = cached_property(IntegerForm)  # built on first use and kept: an Instance is immutable

    def support_sizes(self) -> Tuple[int, ...]:
        return tuple(len(b.dist.support) for b in self.boxes)

"""Seeded Monte Carlo execution of policies.

Each box's values come from its own counter-based PRNG stream (Philox keyed
by (seed, box index)), so the draws of a box never depend on the policy being
run or on which boxes it inspects: comparisons between policies on the same
seed use common random numbers.

A box's support index is drawn from raw 64-bit Philox words by integer
compares: each float cumulative probability c becomes the cut
ceil(c * 2**53) << 11, and a word r is at or past the cut exactly when
Generator.random() = (r >> 11) * 2**-53 would be >= c.  The indices are those
of Generator.random() on the same stream, without converting words to doubles.

Trials are drawn CHUNK at a time and folded into distinct joint outcomes (one
support index per box) with their counts, by one of three folds chosen by the
joint support's size:
- up to CUT_FOLD_LIMIT outcomes, in one batch, from the cut masks (r >= cut)
  alone: each chunk adds the upper-orthant counts, each a count of an AND of
  one mask per box, and their finite differences are the counts;
- up to OUTCOME_TABLE_LIMIT, in one batch, by np.bincount over mixed-radix
  outcome ids in the narrowest unsigned type that holds the joint size;
- past that, one batch per chunk, by one np.lexsort of the chunk's digit
  columns and a split into runs of equal rows, with no limit on the joint
  support (no outcome id has to fit in 64 bits).
CUT_FOLD_LIMIT is the largest size at which the cut masks beat bincount in
every measured run (README has the timings).  The policy's execution tree (policies.PolicyTree) splits each
batch's (outcome, count) pairs at each inspecting node.  The report sums
count * payoff and count * payoff**2 as integers on the scale
core.IntegerForm.scale over every leaf of every batch, and rounds the mean
and the variance once: memory holds one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .core import Instance, IntegerForm, Num
from .policies import Halt, Inspect, Node, Policy, PolicyTree, SelectClosed

OUTCOME_TABLE_LIMIT = 1 << 14
CUT_FOLD_LIMIT = 10
CHUNK = 1 << 15


@dataclass(frozen=True)
class SimReport:
    trials: int
    seed: int
    mean_utility: float
    std_error: float
    inspect_freq: Tuple[float, ...]
    select_freq: Tuple[float, ...]


def run_once(inst: Instance, pol: Policy, values) -> Tuple[Num, Tuple[int, ...], Optional[int]]:
    """Execute a policy against fixed realized values, one from each box's
    support.

    Returns (utility, inspected indicator, selected box or None).  A box
    selected closed contributes its realized (unobserved) draw.
    """
    outcome = [b.dist.values().index(v) for b, v in zip(inst.boxes, values)]
    *_, (node, _) = PolicyTree(inst, pol).traverse([(outcome, 1)], _split)
    inspected = tuple(0 if node.mask >> i & 1 else 1 for i in range(inst.n))
    chosen = None if isinstance(node.action, Halt) else node.action.box
    return Fraction(_payoff(inst.form, node, outcome), inst.form.scale), inspected, chosen


def _split(i, pairs):
    """(outcome, count) pairs grouped by box i's support index."""
    groups = {}
    for pair in pairs:
        groups.setdefault(pair[0][i], []).append(pair)
    return groups.items()


def _payoff(form: IntegerForm, node: Node, outcome) -> int:
    """Utility times form.scale at a terminal node on a trial drawing support
    index outcome[i] from each box i: the selected box's value there, opened
    or not, minus the inspection costs paid."""
    if isinstance(node.action, Halt):
        return -node.cost
    i = node.action.box
    return form.values[form.boxes[i][1][outcome[i]][0]] - node.cost


def _raw_cuts(dist) -> List[np.uint64]:
    """The raw words at which a box's support index steps up.

    The index of a uniform u is the number of float cumulative probabilities
    c at or below it, the last one left out: u at or past it (it may round
    below 1) falls on the last support index.  Each c becomes the word cut
    ceil(c * 2**53) << 11; a cut at or past 2**64 (c rounded to 1.0) is left
    out too, since no word reaches it."""
    cuts = []
    for c in np.cumsum([float(p) for p in dist.probs()])[:-1]:
        cut = math.ceil(c * 2.0**53) << 11
        if cut < 2**64:
            cuts.append(np.uint64(cut))
    return cuts


def _support_index(raw: np.ndarray, cuts: List[np.uint64]) -> np.ndarray:
    """The support index of each raw word: the number of cuts at or below it,
    in the smallest unsigned dtype that holds it.  One vectorized compare per
    cut is, for the small supports boxes have, several times faster than
    np.searchsorted."""
    dtype = np.min_scalar_type(len(cuts))
    index = (raw >= cuts[0]).astype(dtype) if cuts else np.zeros(len(raw), dtype)
    for c in cuts[1:]:
        index += raw >= c
    return index


def _draw_chunks(inst: Instance, trials: int, seed: int, per_box: Callable) -> Iterator[list]:
    """per_box(words, cuts) for each box (its support indices or cut masks),
    CHUNK trials at a time, on words from one Philox stream per box.
    Consecutive draws continue the stream, so the values do not depend on the
    chunking, and the indices are those Generator.random() draws would give."""
    bits = [np.random.Philox(key=[seed, i]) for i in range(inst.n)]
    cuts = [_raw_cuts(b.dist) for b in inst.boxes]
    for start in range(0, trials, CHUNK):
        m = min(CHUNK, trials - start)
        yield [per_box(bit.random_raw(m), cut) for bit, cut in zip(bits, cuts)]


def _outcome_counts(inst: Instance, trials: int, seed: int) -> Iterator[list]:
    """Batches of (joint outcome, trials) pairs, each outcome once per batch."""
    sizes = inst.support_sizes()
    joint = math.prod(sizes)
    if joint <= OUTCOME_TABLE_LIMIT:
        counts = np.zeros(joint, dtype=np.int64)
        if joint <= CUT_FOLD_LIMIT:
            for masks in _draw_chunks(inst, trials, seed, lambda raw, cuts: [raw >= c for c in cuts]):
                # U(x), the trials with index_i >= x_i for every box i, per x
                # in C order: a count of the AND of the masks for cut x_i - 1
                # over x_i > 0 (None for none); a dropped cut is all False.
                ands = [None]
                for box, s in zip(masks, sizes):
                    box = box + [False] * (s - 1 - len(box))
                    ands = [b if a is None else a if b is None else a & b for a in ands for b in [None, *box]]
                counts += [np.count_nonzero(a) for a in ands]  # 0 for None
            counts[0] = trials  # U(0, ..., 0), the one x with no mask
            # The point counts are U's finite differences along each axis.
            upper = counts.reshape(sizes)
            for axis in range(len(sizes)):
                upper = -np.diff(upper, axis=axis, append=0)
            counts = upper.ravel()
        else:
            dtype = np.min_scalar_type(joint)
            for digits in _draw_chunks(inst, trials, seed, _support_index):
                ids = digits[0].astype(dtype)
                for d, s in zip(digits[1:], sizes[1:]):
                    ids *= s
                    ids += d
                counts += np.bincount(ids, minlength=joint)
        seen = np.flatnonzero(counts)
        yield list(zip(np.stack(np.unravel_index(seen, sizes), axis=1).tolist(), counts[seen].tolist()))
    else:
        for digits in _draw_chunks(inst, trials, seed, _support_index):
            # Rows in lexicographic order (lexsort's last key is its first),
            # then one run per distinct row.
            order = np.lexsort(digits[::-1])
            digits = [d[order] for d in digits]
            new_run = np.zeros(len(order), dtype=bool)
            new_run[0] = True
            for d in digits:
                new_run[1:] |= d[1:] != d[:-1]
            starts = np.flatnonzero(new_run)
            counts = np.diff(starts, append=len(order))
            rows = np.stack([d[starts] for d in digits], axis=1)
            yield list(zip(rows.tolist(), counts.tolist()))


def simulate(inst: Instance, pol: Policy, trials: int, seed: int) -> SimReport:
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    tree = PolicyTree(inst, pol)
    form = inst.form
    inspect_count = [0] * inst.n
    select_count = [0] * inst.n
    s1 = s2 = 0  # sums of payoff and payoff**2 over trials, times scale and scale**2
    for pairs in _outcome_counts(inst, trials, seed):
        for node, reached in tree.traverse(pairs, _split):
            if isinstance(node.action, Inspect):
                continue
            count = sum(c for _, c in reached)
            for i in range(inst.n):
                if not node.mask >> i & 1:
                    inspect_count[i] += count
            if not isinstance(node.action, Halt):
                select_count[node.action.box] += count
            # Only a box selected closed pays a draw that varies within a leaf.
            if not isinstance(node.action, SelectClosed):
                reached = [(reached[0][0], count)]
            for outcome, c in reached:
                u = _payoff(form, node, outcome)
                s1 += c * u
                s2 += c * u * u
    mean = float(Fraction(s1, trials * form.scale))
    # The unbiased variance; its numerator is 0 for one trial.
    var = Fraction(trials * s2 - s1 * s1, trials * max(trials - 1, 1) * form.scale**2)
    return SimReport(
        trials=trials,
        seed=seed,
        mean_utility=mean,
        std_error=math.sqrt(var) / math.sqrt(trials),
        inspect_freq=tuple(c / trials for c in inspect_count),
        select_freq=tuple(c / trials for c in select_count),
    )

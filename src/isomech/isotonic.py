"""Ranking-constrained least squares via pool-adjacent-violators.

The central object is the Euclidean projection of a score vector onto the
descending cone ``x[0] >= x[1] >= ... >= x[n-1]``.  Two kernels compute it:

  * ``pava_descending``, a stack-based O(n) pass on Python floats, fits
    single vectors: ``project_descending``, ``isotonic_mechanism`` and the
    MLE built on it.  Python floats round as float64 does, and on one
    vector they are cheaper than numpy scalars.
    ``pava_descending_rows`` runs the same stack pass on every row of a
    matrix in lockstep, bit for bit, for many short rows: the review
    table's and the short Monte-Carlo rows below.
  * ``project_descending_batch`` fits the (trials, n) matrices of the
    Monte-Carlo drivers.  It routes on the row length: rows shorter than
    ``_LOCKSTEP_N`` go to ``pava_descending_rows``, longer ones to scipy's
    compiled PAVA one row per call, except that a long row already
    nonincreasing is returned as it is.

The all-rankings sweep (``mechanism.rank_all_utilities``) needs neither: it
reads the fits of all n! full rankings off one table of subset means per
chunk of trials, by the max-min formula for the descending fit.  It serves
full rankings in that sweep only, where the budget keeps n <= 8.

``isotonic_mechanism`` projects under an author-reported ranking (permute,
project, un-permute); ordered blocks project under the full ranking that
``coarse_to_permutation`` reads off the scores.  That within-block order rule,
``_block_order``, also orders every trial of a coarse claim in
``mechanism.utility_trials``.  ``ranking_constrained_mle`` solves
the same constraint on an exponential family's natural-parameter scale, where
its fitted means are those of the projection.

Import policy: the package imports numpy and no scipy module up front, so
runs that only fit records, build the review table or sweep rankings never
pay for scipy (its special-function module alone took about 0.28 s and
26 MiB to import on a 2-core host).  The one scipy module it uses is
``scipy.optimize``, which ``project_descending_batch`` imports on its first
call with rows of ``_LOCKSTEP_N`` or more.

Ranking convention throughout: position 1 of a ranking names the BEST item
(largest mean).  All operations are pure functions; nothing here keeps state.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .expfam import Family

__all__ = [
    "Ranking",
    "CoarseRanking",
    "IsotonicFit",
    "pava_descending",
    "pava_descending_rows",
    "project_descending",
    "project_descending_batch",
    "isotonic_mechanism",
    "coarse_to_permutation",
    "ranking_constrained_mle",
]


# Rankings shorter than this are checked by ``sorted``, which is faster there
# (0.6 against 7.8 us at n = 5, 13 against 14 us at n = 256, 2 cores) and
# leaves numpy's kernels unloaded; longer ones by one array pass.
_ARRAY_CHECK_N = 256


def _is_one_to_n(values: Iterable[int], n: int) -> bool:
    """Whether the n ints ``values`` (an iterable or an int64 array) are 1..n
    in some order.  The array pass checks each lies in 1..n and marks a slot."""
    if n < _ARRAY_CHECK_N:
        return sorted(values) == list(range(1, n + 1))
    try:
        arr = values if isinstance(values, np.ndarray) else np.fromiter(values, np.int64, n)
    except OverflowError:
        return False
    inside = (arr >= 1) & (arr <= n)
    seen = np.zeros(n, dtype=bool)
    seen[arr[inside] - 1] = True
    return bool(inside.all() and seen.all())


@dataclass(frozen=True)
class Ranking:
    """Permutation of {1..n}; ``perm[k]`` is the item claimed to be (k+1)-th best."""

    perm: tuple[int, ...]

    def __init__(self, perm: Iterable[int]):
        object.__setattr__(self, "perm", tuple(map(int, perm)))
        n = len(self.perm)
        if not _is_one_to_n(self.perm, n):
            raise ValidationError(f"not a permutation of 1..{n}: {self.perm}")

    def __len__(self) -> int:
        return len(self.perm)

    def __iter__(self) -> Iterator[int]:
        return iter(self.perm)

    def as_indices(self) -> np.ndarray:
        """0-based item indices, best first."""
        return np.asarray(self.perm, dtype=np.intp) - 1

    @classmethod
    def from_scores(cls, scores) -> "Ranking":
        """Truthful ranking of a score vector: descending, ties by ascending index."""
        x = np.asarray(scores, dtype=float)
        order = np.argsort(-x, kind="stable")
        return cls(order + 1)


@dataclass(frozen=True)
class CoarseRanking:
    """Ordered blocks partitioning {1..n}; earlier blocks claim larger means."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normalized = tuple(tuple(sorted(map(int, block))) for block in blocks)
        object.__setattr__(self, "blocks", normalized)
        if not normalized or any(len(b) == 0 for b in normalized):
            raise ValidationError("blocks must be nonempty")
        n = sum(map(len, normalized))
        if not _is_one_to_n(itertools.chain.from_iterable(normalized), n):
            raise ValidationError(f"blocks do not partition 1..{n}: {normalized}")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


def _unchecked(cls, value: tuple):
    """``cls(value)`` for a ``Ranking`` perm or ``CoarseRanking`` blocks, a
    tuple its caller has checked and normalised."""
    obj = object.__new__(cls)
    object.__setattr__(obj, dataclasses.fields(cls)[0].name, value)
    return obj


@dataclass(frozen=True)
class IsotonicFit:
    """Result of one ranking-constrained least-squares fit: the scores ``x``
    and the adjusted scores ``mu_hat``, both in item order.

    ``theta_hat`` is present only when a family was supplied; pooled means
    on the boundary of the mean image carry +-inf sentinels there.
    """

    x: np.ndarray
    mu_hat: np.ndarray
    theta_hat: Optional[np.ndarray] = None


def _check_scores(x, n_expected: Optional[int] = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("scores must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("scores must be finite (no NaN/inf)")
    if n_expected is not None and arr.size != n_expected:
        raise ValidationError(
            f"length mismatch: {arr.size} scores vs constraint on {n_expected} items"
        )
    return arr


def pava_descending(y: np.ndarray) -> np.ndarray:
    """Least-squares fit of a nonincreasing vector to ``y``, as a float array.

    Stack-based pool-adjacent-violators: each element is pushed once and
    merged at most once, so the pass is O(n).  The stacks hold Python
    floats, which round exactly as float64 does, so a short vector pays no
    numpy scalar indexing; a pool's length is its weight.  A pool's mean is
    divided once, as it is pushed, and pools merge on these rounded means,
    the values the fit returns, so the fit is nonincreasing as stored and
    exactly idempotent.  A pooled sum that overflows raises ``ValidationError``.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValidationError("scores must be a 1-d vector")

    # a stack per pool field (sum, length, mean); no mean exceeds the +inf at the bottom
    sums, lens, means = [], [], [float("inf")]
    for s in y.tolist():
        ln, m = 1, s
        # merge while the new pool's mean exceeds its left neighbour's
        while means[-1] < m:
            means.pop()
            s += sums.pop()
            ln += lens.pop()
            m = s / ln
        sums.append(s)
        lens.append(ln)
        means.append(m)

    out = np.repeat(np.array(means[1:]), lens)
    if not np.isfinite(out).all():
        if not np.isfinite(y).all():
            raise ValidationError("scores must be finite (no NaN/inf)")
        raise ValidationError("scores are too large to pool in float64: a pooled sum overflows")
    return out


def pava_descending_rows(rows) -> np.ndarray:
    """``pava_descending`` of every row of an (m, n) matrix.

    The rows keep one pool stack each and advance in lockstep: element i is
    pushed onto every stack, then the rows whose new pool's mean exceeds its
    left neighbour's merge it, together, until no row does.  The comparison,
    the order of the additions and the final sum / length are those of
    ``pava_descending``, so each fitted row equals it bit for bit.  A pass
    costs O(n) numpy calls per element over the m rows, so it pays on many
    short rows.  Only stack slots a row has filled are ever read.
    """
    y = np.asarray(rows, dtype=float)
    if y.ndim != 2:
        raise ValidationError("expected a 2-d (rows, n) array")
    m, n = y.shape
    sums = np.zeros((m, n))
    lens = np.zeros((m, n), dtype=np.intp)
    depth = np.zeros(m, dtype=np.intp)
    every = np.arange(m)
    for i in range(n):
        s = y[:, i].copy()
        ln = np.ones(m, dtype=np.intp)
        live = every if i else every[:0]  # rows with a pool to the left
        while live.size:
            top = depth[live] - 1
            merge = sums[live, top] / lens[live, top] < s[live] / ln[live]
            live, top = live[merge], top[merge]
            s[live] += sums[live, top]
            ln[live] += lens[live, top]
            depth[live] = top
            live = live[top > 0]
        sums[every, depth] = s
        lens[every, depth] = ln
        depth += 1
    filled = np.arange(n) < depth[:, None]
    return np.repeat(sums[filled] / lens[filled], lens[filled]).reshape(m, n)


def project_descending(x) -> IsotonicFit:
    """Euclidean projection onto the descending cone x1 >= x2 >= ... >= xn."""
    arr = _check_scores(x)
    return IsotonicFit(x=arr, mu_hat=pava_descending(arr))


def isotonic_mechanism(x, ranking: Ranking) -> IsotonicFit:
    """Adjusted scores under a reported ranking (position 1 = best item).

    Equivalent to permuting the scores into the claimed order, projecting
    onto the descending cone, and un-permuting.
    """
    if not isinstance(ranking, Ranking):
        ranking = Ranking(ranking)
    arr = _check_scores(x, len(ranking))
    idx = ranking.as_indices()
    mu_hat = np.empty_like(arr)
    mu_hat[idx] = pava_descending(arr[idx])
    return IsotonicFit(x=arr, mu_hat=mu_hat)


def _block_order(blocks: Sequence[Sequence[int]], scores: np.ndarray) -> np.ndarray:
    """0-based items, best first, in the order that ordered ``blocks`` claim
    on ``scores``: a score vector, or each row of a (trials, n) matrix.

    Block order is kept; within a block items follow descending score.  One
    ``np.lexsort`` orders all items by (block, -score); it is stable and
    each block lists its items in ascending order, so a tie keeps the
    item's position in its block.
    """
    sizes = list(map(len, blocks))
    items = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.intp,
                        count=sum(sizes)) - 1
    keys = -scores[..., items]
    block_of = np.broadcast_to(np.repeat(np.arange(len(sizes)), sizes), keys.shape)
    return items[np.lexsort((keys, block_of), axis=-1)]


def coarse_to_permutation(coarse: CoarseRanking, x) -> Ranking:
    """Full ranking induced by a coarse ranking on a score vector.

    Items are ordered by ``_block_order``, so ties within a block go by
    ascending item index.  Pooled fit values do not depend on the tie rule,
    so ``isotonic_mechanism`` under this ranking is the fit under the blocks
    (singleton blocks give their own ranking's fit).
    """
    if not isinstance(coarse, CoarseRanking):
        coarse = CoarseRanking(coarse)
    arr = _check_scores(x, coarse.n)
    return _unchecked(Ranking, tuple((_block_order(coarse.blocks, arr) + 1).tolist()))


def ranking_constrained_mle(family: Family, x, ranking: Ranking) -> IsotonicFit:
    """Maximum likelihood under the ranking chain on the natural parameters.

    Solves the separable convex program

        min sum_i [ -theta_i * X_i + b(theta_i) ]   s.t. theta chain per ranking

    (b')^{-1} is increasing, so the solution pools exactly as the projection
    does and a pool's theta is (b')^{-1} of its mean score (Robertson, Wright
    & Dykstra 1988, sec. 1.5).  Pooled means on the boundary of the mean
    image yield +-inf theta sentinels.
    """
    fit = isotonic_mechanism(x, ranking)
    family.check_mean_hull(fit.x, "score")
    theta_hat = np.asarray(family.natural_param(fit.mu_hat, allow_boundary=True), dtype=float)
    return dataclasses.replace(fit, theta_hat=theta_hat)


# ---------------------------------------------------------------------------
# Batched projection for Monte-Carlo loops
# ---------------------------------------------------------------------------

# Rows shorter than this go to the lockstep kernel, longer ones to scipy's
# PAVA one row per call.  At 512 Binomial(10) ramp rows, lockstep vs
# per-row scipy took 2.6 vs 3.9 ms at n = 32, 3.6 vs 4.2 ms at n = 40,
# 4.5 vs 4.0 ms at n = 48 and 6.3 vs 4.1 ms at n = 64 (2 cores, numpy
# 2.4.6, scipy 1.17.1).
_LOCKSTEP_N = 48


def project_descending_batch(rows) -> np.ndarray:
    """Row-wise descending projection of a (trials, n) matrix.

    Used by the Monte-Carlo drivers.  Rows shorter than ``_LOCKSTEP_N`` go
    to ``pava_descending_rows`` and equal ``pava_descending`` bit for bit.
    Longer rows go to ``scipy.optimize.isotonic_regression``, one call per
    row, and match ``pava_descending`` up to rounding; a long row that is
    already nonincreasing is its own projection and is returned as it is,
    since scipy would re-round its tied pools.  So every row returned is
    nonincreasing and the fit is exactly idempotent.  Rows whose pooled
    sums overflow float64 raise ``ValidationError``, as
    ``pava_descending`` does.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("expected a 2-d (trials, n) array")
    if arr.shape[1] == 0:
        raise ValidationError("rows must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("scores must be finite (no NaN/inf)")
    if arr.shape[1] < _LOCKSTEP_N:
        with np.errstate(over="ignore", invalid="ignore"):
            out = pava_descending_rows(arr)
    else:
        from scipy.optimize import isotonic_regression

        out = arr.copy()
        descending = (arr[:, 1:] <= arr[:, :-1]).all(axis=1)
        for r in np.flatnonzero(~descending):
            out[r] = isotonic_regression(arr[r], increasing=False).x
    if not np.isfinite(out).all():
        raise ValidationError("scores are too large to pool in float64: a pooled sum overflows")
    return out

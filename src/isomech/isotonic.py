"""Ranking-constrained least squares via pool-adjacent-violators.

The central object is the Euclidean projection of a score vector onto the
descending cone ``x[0] >= x[1] >= ... >= x[n-1]``.  Two kernels compute it:

  * ``pava_descending``, a stack-based O(n) pass on Python floats, fits
    single vectors: ``project_descending``, ``isotonic_mechanism`` and the
    MLE built on it.  Python floats round as float64 does, and on one
    vector they are cheaper than numpy scalars.
    ``pava_descending_rows`` runs the same stack pass on every row of a
    matrix in lockstep, bit for bit, for the review table's thousands of
    short rows.
  * ``project_descending_batch`` fits the (trials, n) matrices of the
    Monte-Carlo drivers, up to 512 rows per call of scipy's compiled PAVA.

The all-rankings sweep (``mechanism.rank_all_utilities``) needs neither: it
reads the fits of all n! full rankings off one table of subset means per
chunk of trials, by the max-min formula for the descending fit.  It serves
full rankings in that sweep only, where the budget keeps n <= 8.

``isotonic_mechanism`` projects under an author-reported ranking (permute,
project, un-permute); ordered blocks project under the full ranking that
``coarse_to_permutation`` reads off the scores.  ``ranking_constrained_mle`` solves
the same constraint on an exponential family's natural-parameter scale, where
it pools exactly as the projection does.

Import policy: the package imports numpy and no scipy module up front, so
runs that only fit records, build the review table or sweep rankings never
pay for scipy (``scipy.special`` alone took about 0.28 s and 26 MiB to
import on a 2-core host).  ``project_descending_batch`` imports
``scipy.optimize`` on its first call; ``Family.log_density`` imports
``scipy.special`` on its first call.

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


@dataclass(frozen=True)
class Ranking:
    """Permutation of {1..n}; ``perm[k]`` is the item claimed to be (k+1)-th best."""

    perm: tuple[int, ...]

    def __init__(self, perm: Iterable[int]):
        object.__setattr__(self, "perm", tuple(int(p) for p in perm))
        n = len(self.perm)
        seen = [False] * n
        for p in self.perm:
            if not 1 <= p <= n or seen[p - 1]:
                raise ValidationError(f"not a permutation of 1..{n}: {self.perm}")
            seen[p - 1] = True

    def __len__(self) -> int:
        return len(self.perm)

    def __iter__(self) -> Iterator[int]:
        return iter(self.perm)

    def as_indices(self) -> np.ndarray:
        """0-based item indices, best first."""
        return np.asarray(self.perm, dtype=np.intp) - 1

    def inverse(self) -> "Ranking":
        inv = [0] * len(self.perm)
        for pos, item in enumerate(self.perm, start=1):
            inv[item - 1] = pos
        return Ranking(inv)

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        return cls(range(1, n + 1))

    @classmethod
    def from_scores(cls, scores) -> "Ranking":
        """Truthful ranking of a score vector: descending, ties by ascending index."""
        x = np.asarray(scores, dtype=float)
        order = np.argsort(-x, kind="stable")
        return cls(order + 1)

    @classmethod
    def all_rankings(cls, n: int) -> Iterator["Ranking"]:
        for perm in itertools.permutations(range(1, n + 1)):
            yield cls(perm)


@dataclass(frozen=True)
class CoarseRanking:
    """Ordered blocks partitioning {1..n}; earlier blocks claim larger means."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normalized = tuple(tuple(sorted(int(i) for i in block)) for block in blocks)
        object.__setattr__(self, "blocks", normalized)
        if not normalized or any(len(b) == 0 for b in normalized):
            raise ValidationError("blocks must be nonempty")
        flat = [i for block in normalized for i in block]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValidationError(f"blocks do not partition 1..{n}: {normalized}")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def from_ranking(cls, ranking: Ranking, sizes: Sequence[int]) -> "CoarseRanking":
        """Blocks of the given sizes read off a full ranking, best block first."""
        if sum(sizes) != len(ranking):
            raise ValidationError("block sizes must sum to the ranking length")
        blocks, pos = [], 0
        for size in sizes:
            blocks.append(ranking.perm[pos : pos + size])
            pos += size
        return cls(blocks)

    @classmethod
    def singletons(cls, ranking: Ranking) -> "CoarseRanking":
        return cls((i,) for i in ranking.perm)

    @classmethod
    def all_coarse_rankings(cls, n: int, sizes: Sequence[int]) -> Iterator["CoarseRanking"]:
        """Every ordered partition of {1..n} into blocks of the given sizes."""
        if sum(sizes) != n:
            raise ValidationError("block sizes must sum to n")

        def rec(remaining: frozenset[int], level: int):
            if level == len(sizes):
                yield ()
                return
            for combo in itertools.combinations(sorted(remaining), sizes[level]):
                for rest in rec(remaining - set(combo), level + 1):
                    yield (combo,) + rest

        for blocks in rec(frozenset(range(1, n + 1)), 0):
            yield cls(blocks)


@dataclass(frozen=True)
class IsotonicFit:
    """Result of one ranking-constrained least-squares fit.

    ``pools`` lists half-open segments (start, stop, value) of equal adjusted
    scores over the ranking-sorted order.  ``theta_hat`` is present only
    when a family was supplied; pooled means on the boundary of the mean
    image carry +-inf sentinels there.
    """

    x: np.ndarray
    mu_hat: np.ndarray
    pools: tuple[tuple[int, int, float], ...]
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


def pava_descending(y: np.ndarray):
    """Least-squares fit of a nonincreasing vector to ``y``.

    Stack-based pool-adjacent-violators: each element is pushed once and
    merged at most once, so the pass is O(n).  Returns (fitted, pools) with
    fitted a float array and pools as (start, stop, value) half-open
    segments.  The stacks hold Python floats, which round exactly as float64
    does, so a short vector pays no numpy scalar indexing; a pool's length
    is its weight.  A pooled sum that overflows float64 raises
    ``ValidationError``.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValidationError("scores must be a 1-d vector")

    # parallel stacks: pooled (sum, length)
    sums: list[float] = []
    lens: list[int] = []
    for s in y.tolist():
        ln = 1
        # merge while the new pool's mean exceeds its left neighbour's
        while sums and sums[-1] * ln < s * lens[-1]:
            s += sums.pop()
            ln += lens.pop()
        sums.append(s)
        lens.append(ln)

    fitted: list[float] = []
    pools = []
    pos = 0
    for s, ln in zip(sums, lens):
        value = s / ln
        fitted += [value] * ln
        pools.append((pos, pos + ln, value))
        pos += ln
    out = np.array(fitted, dtype=float)
    if not np.isfinite(out).all():
        if not np.isfinite(y).all():
            raise ValidationError("scores must be finite (no NaN/inf)")
        raise ValidationError("scores are too large to pool in float64: a pooled sum overflows")
    return out, tuple(pools)


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
            merge = sums[live, top] * ln[live] < s[live] * lens[live, top]
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
    fitted, pools = pava_descending(arr)
    return IsotonicFit(x=arr, mu_hat=fitted, pools=pools)


def isotonic_mechanism(x, ranking: Ranking) -> IsotonicFit:
    """Adjusted scores under a reported ranking (position 1 = best item).

    Equivalent to permuting the scores into the claimed order, projecting
    onto the descending cone, and un-permuting.
    """
    if not isinstance(ranking, Ranking):
        ranking = Ranking(ranking)
    arr = _check_scores(x, len(ranking))
    idx = ranking.as_indices()
    fitted_sorted, pools = pava_descending(arr[idx])
    mu_hat = np.empty_like(arr)
    mu_hat[idx] = fitted_sorted
    return IsotonicFit(x=arr, mu_hat=mu_hat, pools=pools)


def coarse_to_permutation(coarse: CoarseRanking, x) -> Ranking:
    """Full ranking induced by a coarse ranking on a score vector.

    Block order is kept; within each block items are sorted by descending
    score, ties broken by ascending item index.  Pooled fit values do not
    depend on the tie rule, so ``isotonic_mechanism`` under this ranking is
    the fit under the blocks (singleton blocks give their own ranking's fit).
    """
    if not isinstance(coarse, CoarseRanking):
        coarse = CoarseRanking(coarse)
    arr = _check_scores(x, coarse.n)
    perm: list[int] = []
    for block in coarse.blocks:
        items = np.asarray(block, dtype=np.intp)
        order = np.argsort(-arr[items - 1], kind="stable")
        perm.extend(items[order])
    return Ranking(perm)


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

_BATCH_ROWS = 512  # rows per compiled call; row offsets grow with this


def _project_chunk(rows: np.ndarray, isotonic_regression, first_row: int) -> np.ndarray:
    """Descending projection of each row by one call of scipy's PAVA.

    Rows are shifted to their max, scaled by a power of two (exact) into
    (-1, 0] and offset by -3r for row r, so no pool spans two rows.  That
    copy only decides the pools; means come from the original values,
    anchored at each pool's first value so that equal values stay exact.
    The copy resolves about 2^-42 of a row's span.  Closer values may tie
    there, which shows as a pool mean above the previous one (lowered to
    it) or as a pool that is a nonincreasing, nonconstant run (its row is
    refitted by ``pava_descending``).  So every row returned is
    nonincreasing and the fit is exactly idempotent.  A span or pooled sum
    that overflows raises ``ValidationError``; rows count from ``first_row``.
    """
    t, n = rows.shape
    # numpy reduces along short rows one row at a time; a transposed copy
    # turns the row extremes into whole-array passes (faster below n = 128)
    cols = rows.T.copy() if n < 128 else rows.T
    top = cols.max(axis=0)[:, None]
    with np.errstate(over="ignore"):
        span = top - cols.min(axis=0)[:, None]
    if not np.isfinite(span).all():
        row = first_row + int(np.argmin(np.isfinite(span)))
        raise ValidationError(f"scores are too large to pool in float64: row {row}'s max - min overflows")
    _, exponent = np.frexp(span)
    z = np.ldexp(rows - top, -exponent)
    z -= 3.0 * np.arange(t)[:, None]
    blocks = isotonic_regression(z.ravel(), increasing=False).blocks
    starts, lens = blocks[:-1], np.diff(blocks)
    y = rows.ravel()
    first = y[starts]
    with np.errstate(over="ignore"):
        excess = np.add.reduceat(y - np.repeat(first, lens), starts)
        means = first + excess / lens
    if not np.isfinite(means).all():
        raise ValidationError("scores are too large to pool in float64: a pooled sum overflows")

    row = starts // n
    same_row = row[1:] == row[:-1]
    rising = (means[1:] > means[:-1]) & same_row
    while rising.any():
        means[1:][rising] = means[:-1][rising]
        rising = (means[1:] > means[:-1]) & same_row
    out = np.repeat(means, lens).reshape(t, n)
    for p in np.flatnonzero(excess < 0):
        pool = y[starts[p] : starts[p] + lens[p]]
        if pool.max() == pool[0]:
            out[row[p]], _ = pava_descending(rows[row[p]])
    return out


def project_descending_batch(rows) -> np.ndarray:
    """Row-wise descending projection of a (trials, n) matrix.

    Matches ``pava_descending`` on every row up to rounding; used by the
    Monte-Carlo drivers.  Rows go to scipy's compiled PAVA in chunks of
    ``_BATCH_ROWS``.  Rows whose span or pooled sums overflow float64 raise
    ``ValidationError``, as ``pava_descending`` does.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("expected a 2-d (trials, n) array")
    t, n = arr.shape
    if n == 0:
        raise ValidationError("rows must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("scores must be finite (no NaN/inf)")
    if n == 1:
        return arr.copy()
    from scipy.optimize import isotonic_regression

    out = np.empty_like(arr)
    for lo in range(0, t, _BATCH_ROWS):
        out[lo : lo + _BATCH_ROWS] = _project_chunk(arr[lo : lo + _BATCH_ROWS], isotonic_regression, lo)
    return out

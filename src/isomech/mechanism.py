"""The Monte-Carlo core, and the utility an author gets from a claim.

The core serves every simulation in the package, the estimation drivers in
``experiments`` included.  Trials run in chunks of ``_CHUNK``, each on an
RNG substream spawned from the seed (``_chunk_seeds``), so a seed gives the
same numbers whether ``_map_chunks`` runs its chunks in turn or on worker
threads, as the estimation studies may.  An observed score averages
``scores_per_item`` draws at its true mean, and it is drawn once, from the
family's law of that average.  Means shared by every trial (a 1-d vector)
are drawn through ``Family.row_sampler``, one draw plan per call that yields
each chunk's (trials, n) rows in blocks of ``expfam._block_rows(n)`` rows:
``simulate_scores`` and the sweep write them into one array
(``_fill_scores``), and the estimation studies reduce each block as it
comes, so their memory grows with a block, not with trials * n.  Means that
vary by trial are drawn by ``Family.sample_mean``, one block of rows at a
time.  ``_mean_se`` reduces per-trial samples to a mean and standard error.

An author with true scores ``mu_star`` reports a claim, a full ranking or
ordered blocks, and collects utility ``sum_i U(adjusted_i)`` for a
nondecreasing convex U.  Two evaluators estimate it, and claims compared
within one call share the sampled scores (common random numbers), which
makes small utility gaps resolvable at desk-scale trial counts.

``utility_trials`` is the per-trial evaluator: it returns every trial's
utility of every claim it is given.  Each trial's scores are put in the
claimed order (within a block, by ``isotonic._block_order``) and projected
with ``project_descending_batch``; claims shorter than
``isotonic._LOCKSTEP_N`` take its lockstep route and load no scipy.

``rank_all_utilities``, the all-rankings sweep, has its own evaluator.
Under a full ranking every segment of the claimed order is a set of items,
so one table of the 2^n - 1 subset means per chunk of ``_SWEEP_CHUNK``
trials gives the descending fit of all n! rankings by running max and min
over its rows, each taken once for all rankings that end alike
(``_sweep_fits``), with nothing permuted or projected.  The chunk's scores
are drawn into one reused (``_SWEEP_CHUNK``, n) buffer, and each ranking's
utilities are folded into running moments before the next, so memory is
fixed by ``_SWEEP_CHUNK`` and n, and holds neither a trials x n score matrix
nor a trials x n! utility matrix.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import InvalidParameterError, ValidationError
from .expfam import Family
from .isotonic import CoarseRanking, Ranking, _block_order, project_descending_batch

__all__ = [
    "UtilityFn",
    "UtilityEstimate",
    "simulate_scores",
    "utility_trials",
    "rank_all_utilities",
]

_CHUNK = 512

# Trials per subset-mean table: 2^n rows of this many, 8 MiB at n = 8.
_SWEEP_CHUNK = 4096

# Table rows an all-rankings sweep is charged: n^2 per ranking per chunk of
# _SWEEP_CHUNK trials, n! * n^2 * ceil(trials / _SWEEP_CHUNK) in all, a
# partial chunk counted whole.  One n = 8 chunk (2,580,480 rows) took 3.6 to
# 4.3 s on 2 cores (1.4 to 1.7 us per row), so the limit, 3 such chunks, is
# about 12 s; n = 9 needs 29,393,280 rows per chunk and is refused.
_SWEEP_MAX_ROWS = 1 << 23


@dataclass(frozen=True)
class UtilityFn:
    """Nondecreasing convex per-item utility.

    Kinds: ``relu_square`` U(x) = max(x, 0)^2, ``identity``, ``exp`` with
    U(x) = exp(alpha x) for alpha >= 0, and ``hinge`` U(x) = max(x - t, 0).
    """

    fn_kind: str
    param: float = 0.0

    _KINDS = ("relu_square", "identity", "exp", "hinge")

    def __post_init__(self):
        if self.fn_kind not in self._KINDS:
            raise ValidationError(f"unknown utility kind {self.fn_kind!r}")
        if not math.isfinite(self.param):
            raise ValidationError(f"utility {self}: the parameter must be finite")
        if self.fn_kind == "exp" and self.param < 0:
            raise InvalidParameterError("exp utility needs alpha >= 0")

    def __call__(self, values):
        if self.fn_kind == "identity":
            return np.asarray(values, dtype=float)
        # one copy worked in place, so mapping a whole table adds one array
        v = np.array(values, dtype=float)
        if self.fn_kind == "relu_square":
            np.maximum(v, 0.0, out=v)
            return np.square(v, out=v)
        if self.fn_kind == "exp":
            np.multiply(v, self.param, out=v)
            return np.exp(v, out=v)
        np.subtract(v, self.param, out=v)
        return np.maximum(v, 0.0, out=v)

    def __str__(self) -> str:
        """The ``from_spec`` form, e.g. 'exp:0.5' or 'relu_square'."""
        return f"{self.fn_kind}:{self.param:g}" if self.fn_kind in ("exp", "hinge") else self.fn_kind

    @classmethod
    def from_spec(cls, spec: str) -> "UtilityFn":
        """Parse 'relu_square', 'identity', 'exp:0.5', or 'hinge:2'."""
        fn_kind, _, param = spec.strip().partition(":")
        try:
            value = float(param) if param else 0.0
        except ValueError:
            raise ValidationError(f"utility {spec!r}: {param!r} is not a number") from None
        return cls(fn_kind.strip(), value)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")


def _chunk_seeds(
    trials: int, seed_seq: np.random.SeedSequence
) -> list[tuple[int, int, np.random.SeedSequence]]:
    """(first trial, trial count, seed) of each chunk of ``trials``: chunks of
    ``_CHUNK`` trials and a last one of the rest, each seeded by its own
    substream of ``seed_seq``.  Fewer than one trial raises
    ``ValidationError``.
    """
    _check_trials(trials)
    starts = range(0, trials, _CHUNK)
    return [(lo, min(_CHUNK, trials - lo), child)
            for lo, child in zip(starts, seed_seq.spawn(len(starts)))]


def _map_chunks(
    fn: Callable[[int, np.random.Generator], object],
    trials: int,
    seed_seq: np.random.SeedSequence,
    max_workers: Optional[int] = None,
) -> list:
    """``fn(count, rng)`` on each chunk of ``_chunk_seeds``, results in chunk
    order.  Each chunk's rng is its own substream of ``seed_seq``, so the
    results do not depend on ``max_workers``.  Threads run only when
    ``max_workers`` > 1 and there is more than one ``_CHUNK``-trial chunk, so
    up to 512 trials always run serially; the estimation studies pass
    ``max_workers`` only for rows of ``isotonic._LOCKSTEP_N`` (48) items or
    more.
    """
    jobs = _chunk_seeds(trials, seed_seq)

    def run(job):
        _, count, child = job
        return fn(count, np.random.default_rng(child))

    if max_workers is not None and max_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    t = samples.size
    se = float(np.std(samples, ddof=1) / math.sqrt(t)) if t > 1 else 0.0
    return float(np.mean(samples)), se


def _true_means(family: Family, mu_star: Sequence[float], scores_per_item: int) -> np.ndarray:
    """``mu_star`` as checked (n,) true means, each drawn ``scores_per_item`` times."""
    mu = family.check_mean_hull(np.asarray(mu_star, dtype=float), "true score")
    if mu.ndim != 1 or mu.size == 0:
        raise ValidationError("mu_star must be a nonempty 1-d vector")
    if scores_per_item < 1:
        raise ValidationError(f"scores_per_item must be >= 1, got {scores_per_item}")
    return mu


def _fill_scores(
    draw: Callable[[np.random.Generator, int], Iterator[np.ndarray]],
    chunks: Sequence,
    out: np.ndarray,
    first: int = 0,
) -> None:
    """Fill ``out``, whose row 0 is trial ``first``, with the row blocks that
    ``draw`` gives each of ``chunks`` (from ``_chunk_seeds``) on its own rng."""
    for lo, count, child in chunks:
        row = lo - first
        for block in draw(np.random.default_rng(child), count):
            out[row : row + len(block)] = block
            row += len(block)


def simulate_scores(
    family: Family,
    mu_star: Sequence[float],
    scores_per_item: int,
    trials: int,
    seed: int,
) -> np.ndarray:
    """(trials, n) matrix of observed scores at true means ``mu_star``.

    One ``family.row_sampler`` draw plan serves every chunk: each chunk's
    blocks are written straight into the one output array, with no list of
    chunks to join.  One seed always produces the same matrix.
    """
    mu = _true_means(family, mu_star, scores_per_item)
    draw = family.row_sampler(mu, scores_per_item)
    chunks = _chunk_seeds(trials, np.random.SeedSequence(seed))
    out = np.empty((trials, mu.size))
    _fill_scores(draw, chunks, out)
    return out


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte-Carlo mean and standard error at a recorded seed."""

    mean: float
    std_error: float
    trials: int
    seed: int


Claim = Union[Ranking, CoarseRanking, Sequence[int]]


def _claimed_order(scores: np.ndarray, claim: Claim) -> np.ndarray:
    """Columns of ``scores`` in the order ``claim`` asserts, best first.

    Within a block of a coarse ranking the claimed order follows that
    trial's scores, by ``_block_order``, which reduces the block constraint
    to a trial-specific full ranking.  A full ranking is gathered as it is.
    """
    coarse = isinstance(claim, CoarseRanking)
    if not coarse and not isinstance(claim, Ranking):
        claim = Ranking(claim)
    if (claim.n if coarse else len(claim)) != scores.shape[1]:
        raise ValidationError("ranking length must match mu_star")
    if coarse:
        return np.take_along_axis(scores, _block_order(claim.blocks, scores), axis=1)
    return scores[:, claim.as_indices()]


def _trial_utilities(scores: np.ndarray, claim: Claim, utility: UtilityFn) -> np.ndarray:
    """Per-trial realized utility of reporting ``claim`` on sampled ``scores``.

    A utility that overflows on the scores raises ``InvalidParameterError``.
    """
    fitted = project_descending_batch(_claimed_order(scores, claim))
    with np.errstate(over="ignore", invalid="ignore"):
        u = utility(fitted).sum(axis=1)
    if not np.all(np.isfinite(u)):
        raise InvalidParameterError(
            f"utility {utility} overflows on these scores: some trial's utility is not "
            "finite; use a smaller parameter"
        )
    return u


def utility_trials(
    family: Family,
    mu_star: Sequence[float],
    rankings: Sequence[Claim],
    utility: UtilityFn,
    scores_per_item: int = 3,
    trials: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Per-trial realized utilities, one column per ranking, common noise.

    Each entry of ``rankings`` is a ``Ranking`` or a ``CoarseRanking``.  The
    (trials, len(rankings)) layout supports paired comparisons: column
    differences have far smaller variance than the columns themselves.
    """
    scores = simulate_scores(family, mu_star, scores_per_item, trials, seed)
    out = np.empty((trials, len(rankings)))
    for k, claim in enumerate(rankings):
        out[:, k] = _trial_utilities(scores, claim, utility)
    return out


def _check_sweep_budget(n: int, trials: int) -> None:
    """Refuse a sweep over budget, counted as n! * n^2 table rows per chunk
    of ``_SWEEP_CHUNK`` trials."""
    per_chunk = math.factorial(n) * n * n
    if per_chunk * math.ceil(trials / _SWEEP_CHUNK) > _SWEEP_MAX_ROWS:
        most = _SWEEP_MAX_ROWS // per_chunk * _SWEEP_CHUNK
        fix = f"use trials <= {most}" if most else "n is too large at any trial count"
        raise ValidationError(
            f"all-rankings sweep of n = {n} at {trials} trials exceeds the budget of "
            f"{_SWEEP_MAX_ROWS:,} table rows; {fix}"
        )


def _subset_means(scores: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Fill ``table`` (2^n, t) with the subset means of the (t, n) ``scores``.

    Row ``s`` holds, for each trial, the mean of the items whose bits are set
    in ``s`` (item i is bit i); row 0 is 0.  Each subset costs one add: the
    subset without its top item, plus that item.
    """
    n = scores.shape[1]
    table[0] = 0.0
    sizes = np.ones(1 << n)
    for item in range(n):
        bit = 1 << item
        table[bit] = scores[:, item]
        for rest in range(1, bit):
            np.add(table[rest], table[bit], out=table[bit | rest])
            sizes[bit | rest] = sizes[rest] + 1
    table /= sizes[:, None]
    return table


def _sweep_fits(table: np.ndarray) -> Iterator[np.ndarray]:
    """The descending fit of every ranking of n items from a (2^n, t) table
    of ``_subset_means``: an (n, t) array in claimed order, overwritten by
    the next, in the order of ``itertools.permutations`` read back to front.

    The max-min formula mu_i = min_{j<=i} max_{k>=i} avg(j..k) (Robertson,
    Wright & Dykstra 1988, sec. 1.4) is taken as mu_i = Q_{1,i} and
    mu_0 = M_{0,0}, with M_{j,i} the inner max and Q_{j,i} = min(M_{j,i},
    Q_{j+1,i}) from Q_{i+1,i} = M_{0,i}.  Q_{j,.} and M_{0,j-1} depend only
    on the items at positions j..n-1, so ``_walk`` takes them once per such
    suffix.  Max and min are exact, so each trial's fit is exactly
    nonincreasing, and a nondecreasing map of the table maps the fit.
    """
    n, t = table.shape[0].bit_length() - 1, table.shape[1]
    # blocks[d]: M_{0,d-1}, then Q_{d,i} for i = d..n-1; blocks[1] is the fit
    blocks = [None] + [np.empty((n - d + 1, t)) for d in range(1, n)] + [table[-1:]]
    views = [None] + [list(block) for block in blocks[1:]]
    for _ in _walk(list(table), views, np.empty(t), n, 0, []):
        yield blocks[1]


def _walk(rows: list, views: list, run: np.ndarray, d: int, used: int, masks: list):
    """``None`` per ranking whose positions d..n-1 hold the items of ``used``
    (masks[i - d]: positions d..i), once its blocks below d are written."""
    if d == 1:
        yield
        return
    full, above, here = len(rows) - 1, views[d], views[d - 1]
    for item in range(full.bit_length()):
        bit = 1 << item
        if used & bit:
            continue
        new = [bit] + [bit | mask for mask in masks]
        top = rows[new[-1]]
        np.minimum(top, above[-1], out=here[-1])
        for k in range(len(new) - 2, -1, -1):
            top = np.maximum(top, rows[new[k]], out=run)
            np.minimum(top, above[k], out=here[k + 1])
        np.maximum(above[0], rows[full ^ used ^ bit], out=here[0])
        yield from _walk(rows, views, run, d - 1, used | bit, new)


class _Moments:
    """Count, mean and centred sum of squares per column, folded a chunk at a
    time by Chan, Golub & LeVeque's pairwise update."""

    def __init__(self, columns: int):
        self.count = 0
        self.mean = np.zeros(columns)
        self.m2 = np.zeros(columns)

    def add(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        total = self.count + count
        delta = mean - self.mean
        self.mean += delta * (count / total)
        self.m2 += m2 + np.square(delta) * (self.count * count / total)
        self.count = total

    def mean_se(self) -> tuple[np.ndarray, np.ndarray]:
        """Means and standard errors; the error is 0 after one sample, as in
        ``_mean_se``."""
        t = self.count
        se = np.sqrt(self.m2 / (t - 1) / t) if t > 1 else np.zeros_like(self.m2)
        return self.mean, se


def rank_all_utilities(
    family: Family,
    mu_star: Sequence[float],
    utility: UtilityFn,
    scores_per_item: int = 3,
    trials: int = 100_000,
    seed: int = 0,
) -> list[tuple[Ranking, UtilityEstimate]]:
    """Estimates for every possible ranking, sorted by descending mean.

    All n! rankings share one set of sampled scores, the rows that
    ``simulate_scores`` gives at the same seed: each chunk of
    ``_SWEEP_CHUNK`` trials is drawn from its ``_CHUNK``-trial substreams
    into one reused buffer, which builds one table of subset means and maps it
    through ``utility``; every ranking's fitted utilities come from that
    table by ``_sweep_fits`` and are folded into running moments, so no
    trials x n! matrix is held.  The estimates match projecting each ranking
    with ``project_descending_batch`` up to rounding.  Sweeps over 2^23
    table rows (n! * n^2 per chunk) are refused before sampling; call
    ``utility_trials`` on rankings of interest instead.  A utility that
    overflows on the scores raises ``InvalidParameterError``.
    """
    n = len(np.atleast_1d(np.asarray(mu_star)))
    _check_sweep_budget(n, trials)
    mu = _true_means(family, mu_star, scores_per_item)
    draw = family.row_sampler(mu, scores_per_item)
    chunks = _chunk_seeds(trials, np.random.SeedSequence(seed))
    per_table = _SWEEP_CHUNK // _CHUNK  # whole chunks, so each table starts a chunk
    rankings = [Ranking(perm[::-1]) for perm in itertools.permutations(range(1, n + 1))]
    moments = _Moments(len(rankings))
    chunk_mean, chunk_m2 = np.empty(len(rankings)), np.empty(len(rankings))
    scores, table = np.empty((_SWEEP_CHUNK, n)), np.empty((1 << n, _SWEEP_CHUNK))
    total = np.empty(_SWEEP_CHUNK)
    for c, lo in enumerate(range(0, trials, _SWEEP_CHUNK)):
        t = min(_SWEEP_CHUNK, trials - lo)
        _fill_scores(draw, chunks[c * per_table : (c + 1) * per_table], scores, lo)
        with np.errstate(over="ignore", invalid="ignore"):
            gains, u = _subset_means(scores[:t], table[:, :t]), total[:t]
            gains[...] = utility(gains)
            for r, fit in enumerate(_sweep_fits(gains)):
                fit.sum(axis=0, out=u)
                chunk_mean[r] = u.sum() / t
                u -= chunk_mean[r]
                chunk_m2[r] = u @ u
            moments.add(t, chunk_mean, chunk_m2)
    means, ses = moments.mean_se()
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(ses))):
        raise InvalidParameterError(
            f"utility {utility} overflows on these scores: some ranking's mean or "
            "standard error is not finite; use a smaller parameter"
        )
    pairs = [
        (ranking, UtilityEstimate(mean=float(m), std_error=float(se), trials=trials, seed=seed))
        for ranking, m, se in zip(rankings, means, ses)
    ]
    pairs.sort(key=lambda item: (-item[1].mean, item[0].perm))
    return pairs

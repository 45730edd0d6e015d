"""The Monte-Carlo core, and expected utility of reported rankings.

The core serves every simulation in the package, the estimation drivers in
``experiments`` included.  Trials run in chunks of ``_CHUNK``, each on an
RNG substream spawned from the seed, so a seed gives the same numbers with
or without worker threads.  ``sample_scores`` is the one sampler: an
observed score averages ``scores_per_item`` draws at its true mean.
``_mean_se`` reduces per-trial samples to a mean and standard error.

An author with true scores ``mu_star`` reports a ranking or coarse ranking
and collects utility ``sum_i U(adjusted_i)`` for a nondecreasing convex U.
Rankings compared within one call share the sampled scores (common random
numbers), which makes small utility gaps resolvable at desk-scale trial
counts.

The all-rankings sweep has its own evaluator.  Under a full ranking every
segment of the claimed order is a set of items, so one table of the 2^n - 1
subset means per chunk of ``_SWEEP_CHUNK`` trials gives the descending fit
of all n! rankings by running max and min over its rows, with nothing
permuted or projected.  Each ranking's utilities are folded into running
moments before the next, so memory grows with trials * n, not trials * n!.
Every other driver, coarse claims included, projects with
``project_descending_batch``.
"""

from __future__ import annotations

import itertools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InvalidParameterError, ValidationError
from .expfam import Family
from .isotonic import CoarseRanking, Ranking, project_descending_batch

__all__ = [
    "UtilityFn",
    "UtilityEstimate",
    "sample_scores",
    "simulate_scores",
    "realized_utility",
    "utility_trials",
    "expected_utility",
    "rank_all_utilities",
]

_CHUNK = 512

# Trials per subset-mean table: 2^n rows of this many, 8 MiB at n = 8.
_SWEEP_CHUNK = 4096

# Projected elements (n! * n * max(trials, 512)) an all-rankings sweep may
# take.  The largest it admits, n = 8 at 3,328 trials, took 9.9 s on 2 cores
# (about 9 ns per element).
_SWEEP_MAX_ELEMENTS = 1 << 30


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
    def relu_square(cls) -> "UtilityFn":
        return cls("relu_square")

    @classmethod
    def identity(cls) -> "UtilityFn":
        return cls("identity")

    @classmethod
    def exponential(cls, alpha: float) -> "UtilityFn":
        return cls("exp", float(alpha))

    @classmethod
    def hinge(cls, threshold: float) -> "UtilityFn":
        return cls("hinge", float(threshold))

    @classmethod
    def from_spec(cls, spec: str) -> "UtilityFn":
        """Parse 'relu_square', 'identity', 'exp:0.5', or 'hinge:2'."""
        fn_kind, _, param = spec.strip().partition(":")
        try:
            value = float(param) if param else 0.0
        except ValueError:
            raise ValidationError(f"utility {spec!r}: {param!r} is not a number") from None
        return cls(fn_kind.strip(), value)


def _map_chunks(
    fn: Callable[[int, np.random.Generator], object],
    trials: int,
    seed_seq: np.random.SeedSequence,
    max_workers: Optional[int] = None,
) -> list:
    """``fn(count, rng)`` on each chunk of ``trials``, results in chunk order.

    Each chunk's rng is its own substream of ``seed_seq``, so the results do
    not depend on ``max_workers``.
    """
    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)
    jobs = list(zip(sizes, seed_seq.spawn(len(sizes))))

    def run(job):
        count, child = job
        return fn(count, np.random.default_rng(child))

    if max_workers is not None and max_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]


def sample_scores(
    family: Family, mu, scores_per_item: int, rng: np.random.Generator
) -> np.ndarray:
    """Observed scores at true means ``mu`` (any shape): each entry averages
    ``scores_per_item`` independent draws."""
    mu = np.asarray(mu, dtype=float)
    reps = np.broadcast_to(mu[..., None], mu.shape + (scores_per_item,))
    return family.sample_mean(reps, rng).mean(axis=-1)


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    t = samples.size
    se = float(np.std(samples, ddof=1) / math.sqrt(t)) if t > 1 else 0.0
    return float(np.mean(samples)), se


def simulate_scores(
    family: Family,
    mu_star: Sequence[float],
    scores_per_item: int,
    trials: int,
    seed: int,
    max_workers: Optional[int] = None,
) -> np.ndarray:
    """(trials, n) matrix of observed scores at true means ``mu_star``.

    Drawn chunk by chunk through ``sample_scores``; one seed always produces
    the same matrix, with or without worker threads.
    """
    mu = family.check_mean_hull(np.asarray(mu_star, dtype=float), "true score")
    if mu.ndim != 1 or mu.size == 0:
        raise ValidationError("mu_star must be a nonempty 1-d vector")
    if scores_per_item < 1 or trials < 1:
        raise ValidationError("scores_per_item and trials must be >= 1")

    def one_chunk(count, rng):
        mu_rows = np.broadcast_to(mu, (count, mu.size))
        return sample_scores(family, mu_rows, scores_per_item, rng)

    return np.concatenate(_map_chunks(one_chunk, trials, np.random.SeedSequence(seed), max_workers))


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte-Carlo mean and standard error at a recorded seed."""

    mean: float
    std_error: float
    trials: int
    seed: int


def _estimate(samples: np.ndarray, seed: int) -> UtilityEstimate:
    mean, se = _mean_se(samples)
    return UtilityEstimate(mean=mean, std_error=se, trials=samples.size, seed=seed)


def realized_utility(mu_hat, utility: UtilityFn) -> float:
    """sum_i U(mu_hat_i) for one adjusted score vector."""
    v = np.asarray(mu_hat, dtype=float)
    if v.size and not np.all(np.isfinite(v)):
        raise ValidationError("adjusted scores must be finite")
    return float(np.sum(utility(v)))


Claim = Union[Ranking, CoarseRanking, Sequence[int]]


def _claimed_order(scores: np.ndarray, claim: Claim) -> np.ndarray:
    """Columns of ``scores`` in the order ``claim`` asserts, best first.

    A full ranking is a coarse ranking of singletons.  Within a longer block
    the claimed order follows that trial's scores (descending), which
    reduces the block constraint to a trial-specific full ranking.
    """
    if isinstance(claim, CoarseRanking):
        blocks = claim.blocks
    else:
        blocks = [(i,) for i in (claim if isinstance(claim, Ranking) else Ranking(claim))]
    if sum(map(len, blocks)) != scores.shape[1]:
        raise ValidationError("ranking length must match mu_star")
    ordered = scores[:, np.concatenate(blocks) - 1]
    start = 0
    for block in blocks:
        stop = start + len(block)
        if len(block) > 1:
            ordered[:, start:stop] = np.sort(ordered[:, start:stop], axis=1)[:, ::-1]
        start = stop
    return ordered


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


def expected_utility(
    family: Family,
    mu_star: Sequence[float],
    ranking: Claim,
    utility: UtilityFn,
    scores_per_item: int = 3,
    trials: int = 100_000,
    seed: int = 0,
) -> UtilityEstimate:
    """Monte-Carlo expected utility of reporting ``ranking`` (full or coarse)."""
    scores = simulate_scores(family, mu_star, scores_per_item, trials, seed)
    return _estimate(_trial_utilities(scores, ranking, utility), seed)


def _check_sweep_budget(n: int, trials: int) -> None:
    """Refuse a sweep over budget, counted as n! * n * max(trials, 512)
    projected elements."""
    per_trial = math.factorial(n) * n
    if per_trial * max(trials, _CHUNK) > _SWEEP_MAX_ELEMENTS:
        most = _SWEEP_MAX_ELEMENTS // per_trial
        fix = f"use trials <= {most}" if most >= _CHUNK else "n is too large at any trial count"
        raise ValidationError(
            f"all-rankings sweep of n = {n} at {trials} trials exceeds the budget of "
            f"{_SWEEP_MAX_ELEMENTS:,} projected elements; {fix}"
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


def _fit_from_table(table: np.ndarray, perm: Sequence[int], fit: np.ndarray,
                    run: np.ndarray) -> np.ndarray:
    """Descending fit of ranking ``perm`` (items best first) in claimed order.

    Fills ``fit`` (n, t) from a table of ``_subset_means`` by the max-min
    formula mu_i = min_{j<=i} max_{k>=i} avg(j..k) (Robertson, Wright &
    Dykstra 1988, sec. 1.4); ``run`` (t,) is scratch.  Every position takes
    its max and min over the same table values, so each trial's fit is
    exactly nonincreasing.  A nondecreasing map of the table commutes with
    max and min, so a table of utilities gives the utilities of the fit.
    """
    n = len(perm)
    bits = [1 << (item - 1) for item in perm]
    for j in range(n):
        # masks[k - j]: the items claimed at positions j..k
        masks = list(itertools.accumulate(bits[j:], operator.or_))
        if j == 0:
            fit[n - 1] = table[masks[-1]]
            for i in range(n - 2, -1, -1):
                np.maximum(fit[i + 1], table[masks[i]], out=fit[i])
            continue
        top = table[masks[-1]]
        np.minimum(fit[n - 1], top, out=fit[n - 1])
        for i in range(n - 2, j - 1, -1):
            top = np.maximum(top, table[masks[i - j]], out=run)
            np.minimum(fit[i], top, out=fit[i])
    return fit


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
    max_workers: Optional[int] = None,
) -> list[tuple[Ranking, UtilityEstimate]]:
    """Estimates for every possible ranking, sorted by descending mean.

    All n! rankings share one set of sampled scores.  Each chunk of
    ``_SWEEP_CHUNK`` trials builds one table of subset means and maps it
    through ``utility``; every ranking's fitted utilities come from that
    table by ``_fit_from_table`` and are folded into running moments, so no
    trials x n! matrix is held.  The estimates match projecting each ranking
    with ``project_descending_batch`` up to rounding.  Sweeps over 2^30
    projected elements (n! * n * trials) are refused before sampling; call
    ``expected_utility`` on rankings of interest instead.  A utility that
    overflows on the scores raises ``InvalidParameterError``.
    ``max_workers`` threads draw the scores; the estimates do not depend on it.
    """
    n = len(np.atleast_1d(np.asarray(mu_star)))
    _check_sweep_budget(n, trials)
    scores = simulate_scores(family, mu_star, scores_per_item, trials, seed, max_workers)
    rankings = list(Ranking.all_rankings(n))
    moments = _Moments(len(rankings))
    chunk_mean, chunk_m2 = np.empty(len(rankings)), np.empty(len(rankings))
    table = np.empty((1 << n, _SWEEP_CHUNK))
    fit, run = np.empty((n, _SWEEP_CHUNK)), np.empty(_SWEEP_CHUNK)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, trials, _SWEEP_CHUNK):
            chunk = scores[lo : lo + _SWEEP_CHUNK]
            t = chunk.shape[0]
            gains = _subset_means(chunk, table[:, :t])
            gains[...] = utility(gains)
            for r, ranking in enumerate(rankings):
                u = _fit_from_table(gains, ranking.perm, fit[:, :t], run[:t]).sum(axis=0)
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

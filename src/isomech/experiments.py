"""End-to-end estimation studies.

Four drivers built on the isotonic machinery:

  * ``estimation_error_curve``  per-coordinate MSE of adjusted vs raw scores
    across a grid of submission counts, the one Monte-Carlo loop over n;
    true scores resampled from a pool of review scores (``PoolResample``)
    make it the simulated conference-review study,
  * ``rate_check``              that curve on a ramp with one score per
    item, and the log-log slope of the total risk against n, for
    comparison with the n^(1/3) minimax rate,
  * ``build_lower_bound``       the packing construction behind the minimax
    lower bound (codewords, block sizes, the two mean levels of each block,
    KL budget), with a verifier that finds the exact pairwise margins as the
    weights of the linear code the codewords are a prefix of,
  * ``surrogate_eval``          the conference-review evaluation of a
    ``ReviewTable`` and an ``AuthorTable``.

Every mean vector of the construction takes one of two values per block,
so the construction stores those (2, k) levels, not its (size, n) mean
vectors: natural parameters and KL terms are computed on the 2k levels, and
``_pick`` chooses one of each block's two values by the codeword bits, for
the members' KL terms a tile of rows at a time (``_member_kl``) and for the
mean vectors ``LowerBoundConstruction.mean_rows`` gathers.  The codewords
are the first rows of a random linear code (``_span``), so the verifier
reads every pairwise distance off the weight of one word of that code and
holds no size x size or size x n array.

The review evaluation works on columns from file to table: ids factorised
once (on integer words of their UTF-8 bytes where the CLI reads a plain
file), authors as CSR rows of codes and ranks checked by array passes,
ties drawn in one call, and the authors of each submission count fitted
together by the lockstep PAVA ``pava_descending_rows``.

Every driver is a pure function of (config, seed).  The Monte-Carlo
drivers run on the core in ``mechanism`` that the truthfulness sweep also
uses: fixed-size chunks of trials on RNG substreams spawned from the seed
(identical results serially or on a thread pool), the family's draw hook
``Family.row_sampler`` for means that every trial shares,
``Family.sample_mean`` for means that vary by trial, and ``_mean_se``.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    AuthorRowError,
    ConstructionFailedError,
    InvalidParameterError,
    ValidationError,
)
from .expfam import (
    Family,
    ScoreBounds,
    VarianceCertificate,
    _block_rows,
    check_variance_floor,
)
from .isotonic import _LOCKSTEP_N, pava_descending_rows, project_descending_batch
from .mechanism import _check_trials, _map_chunks, _mean_se

__all__ = [
    "LinearRamp",
    "PoolResample",
    "ExplicitScores",
    "EstimationPoint",
    "estimation_error_curve",
    "RatePoint",
    "RateReport",
    "rate_check",
    "LowerBoundConstruction",
    "build_lower_bound",
    "ReviewTable",
    "AuthorTable",
    "SurrogateRow",
    "SurrogateReport",
    "surrogate_eval",
]

logger = logging.getLogger(__name__)

# Memory the lower-bound construction may take, as ``_construction_bytes``
# counts it: the packer's linear code, the copies that weigh it and the
# verifier's span, the verifier's full-length probe rows, and a size x size
# term that sizes no array but caps the codeword count, and so the time of
# the O(codewords n) KL pass.  No mean vector is stored.
_CONSTRUCTION_MAX_BYTES = 1 << 30

# Members whose mean vectors the verifier gathers at full length n to
# cross-check its bookkeeping, and the float64 arrays of length n it holds
# per probe row at its peak: the mean vectors, their differences and the
# family's natural parameters and KL terms (Binomial's KL, the most, peaks
# at 7.1 per row).  One more row's worth covers the (n,) block indices and
# level picks of the build's KL pass.
_PROBE_ROWS = 32
_PROBE_ARRAYS = 8


# ---------------------------------------------------------------------------
# True-score generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearRamp:
    """Deterministic ramp mu_i = hi - (hi - lo) * (i - 1) / (n - 1)."""

    hi: float = 9.0
    lo: float = 3.0

    def draw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """The (n,) ramp, the same in every trial.  A ramp whose largest step
        (hi - lo) * (n - 1) overflows float64 raises InvalidParameterError."""
        if n < 2:
            raise ValidationError("linear ramp needs n >= 2")
        if not math.isfinite((self.hi - self.lo) * (n - 1)):
            raise InvalidParameterError(
                f"ramp from hi = {self.hi:.6g} to lo = {self.lo:.6g}: "
                f"(hi - lo) * (n - 1) overflows float64 at n = {n}"
            )
        return self.hi - (self.hi - self.lo) * np.arange(n) / (n - 1)


@dataclass(frozen=True)
class PoolResample:
    """True scores drawn with replacement from a fixed pool, per trial."""

    pool: tuple[float, ...]

    def draw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) true scores, fresh in every trial."""
        if not self.pool:
            raise ValidationError("score pool must be nonempty")
        return rng.choice(np.asarray(self.pool, dtype=float), size=(count, n), replace=True)


@dataclass(frozen=True)
class ExplicitScores:
    """A fixed, explicitly given true-score vector."""

    values: tuple[float, ...]

    def draw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """The (n,) vector, the same in every trial."""
        if len(self.values) != n:
            raise ValidationError(f"explicit scores have length {len(self.values)}, not {n}")
        return np.asarray(self.values, dtype=float)


ScoreGenerator = Union[LinearRamp, PoolResample, ExplicitScores]


# ---------------------------------------------------------------------------
# Monte-Carlo estimation error
# ---------------------------------------------------------------------------


def _mse_samples(
    family: Family,
    generator: ScoreGenerator,
    n: int,
    scores_per_item: int,
    trials: int,
    seed_seq: np.random.SeedSequence,
    max_workers: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial squared errors / n for adjusted and raw scores (truthful ranking).

    The generator gives one (n,) mean vector for every trial or a (count, n)
    array of them.  Items are exchangeable given their means, so sampling at
    the means sorted descending is the same as sampling and then sorting by
    the true order.  Shared means are drawn by ``family.row_sampler``, whose
    blocks of ``expfam._block_rows(n)`` rows are projected by
    ``project_descending_batch`` and reduced as they come, so a chunk holds
    one block of scores, never all its (count, n) scores.  Means that vary
    by trial are drawn by ``family.sample_mean`` in blocks of the same rows.
    """

    def one_chunk(count, rng):
        mu = np.asarray(generator.draw(count, n, rng), dtype=float)
        family.check_mean_hull(mu, "true score")
        mu = np.sort(mu, axis=-1)[..., ::-1]
        if mu.ndim == 1:
            blocks = family.row_sampler(mu, scores_per_item)(rng, count)
        else:
            step = _block_rows(n)
            blocks = (family.sample_mean(mu[lo : lo + step], rng, reps=scores_per_item)
                      for lo in range(0, count, step))
        im, raw = np.empty(count), np.empty(count)
        lo = 0
        for xb in blocks:
            rows = slice(lo, lo + len(xb))
            mb = mu if mu.ndim == 1 else mu[rows]
            fitted = project_descending_batch(xb)
            # both arrays belong to this chunk, so the residuals overwrite them;
            # a square that overflows is refused by estimation_error_curve
            with np.errstate(over="ignore"):
                fitted -= mb
                im[rows] = np.square(fitted, out=fitted).sum(axis=1)
                xb -= mb
                raw[rows] = np.square(xb, out=xb).sum(axis=1)
            lo += len(xb)
        return im / n, raw / n

    # the lockstep kernel holds the GIL, so its rows gain nothing from threads
    parts = _map_chunks(one_chunk, trials, seed_seq, max_workers if n >= _LOCKSTEP_N else None)
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


@dataclass(frozen=True)
class EstimationPoint:
    n: int
    mse_im: float
    mse_im_se: float
    mse_raw: float
    mse_raw_se: float
    trials: int

    @property
    def improvement(self) -> float:
        """Relative error saved by adjusting, (mse_raw - mse_im) / mse_raw; 0 without raw error."""
        return (self.mse_raw - self.mse_im) / self.mse_raw if self.mse_raw > 0 else 0.0


def estimation_error_curve(
    family: Family,
    n_grid: Sequence[int],
    generator: ScoreGenerator,
    scores_per_item: int = 3,
    trials: int = 1000,
    seed: int = 0,
    max_workers: Optional[int] = None,
) -> list[EstimationPoint]:
    """Per-coordinate estimation error of adjusted vs raw scores across n.

    For every n in the grid, Monte-Carlo means of |adjusted - truth|^2 / n
    under the truthful ranking, against |raw - truth|^2 / n.  A mean, standard
    error or improvement that overflows float64 raises ``ValidationError``.
    """
    if not n_grid or any(n < 1 for n in n_grid):
        raise ValidationError("n_grid must hold positive submission counts")
    if scores_per_item < 1:
        raise ValidationError(f"scores_per_item must be >= 1, got {scores_per_item}")
    if isinstance(generator, PoolResample):
        # the draws are checked too, but a pool value no trial draws must not slip through
        family.check_mean_hull(generator.pool, "true score")
    points = []
    for n, child in zip(n_grid, np.random.SeedSequence(seed).spawn(len(n_grid))):
        im, raw = _mse_samples(family, generator, n, scores_per_item, trials, child, max_workers)
        with np.errstate(over="ignore", invalid="ignore"):
            point = EstimationPoint(n, *_mean_se(im), *_mean_se(raw), trials)
            finite = np.isfinite([point.mse_im, point.mse_im_se, point.mse_raw,
                                  point.mse_raw_se, point.improvement]).all()
        if not finite:
            raise ValidationError(
                f"true scores or family spread too large for float64: the n = {n} squared "
                "errors, their standard errors or the improvement overflow"
            )
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# Minimax-rate slope check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatePoint:
    n: int
    risk: float
    risk_se: float


@dataclass(frozen=True)
class RateReport:
    slope: float
    intercept: float
    points: tuple[RatePoint, ...]


def _rate_grid(family: Family, bounds: ScoreBounds, n_grid: Sequence[int], trials: int) -> list[int]:
    """The sorted grid of ``rate_check``, after the refusals it can make
    before any draw: fewer than two counts or one below 2, bounds outside
    the mean hull or too far apart for the ramp's float64 arithmetic, fewer
    than one trial, and a first grid point whose ramp sits wholly on finite
    ends of the mean hull, where the family is a point mass, every score is
    exact and the risk is 0."""
    grid = sorted(set(int(n) for n in n_grid))
    if len(grid) < 2 or grid[0] < 2:
        raise ValidationError("rate check needs at least two submission counts >= 2")
    family.validate_bounds(bounds)
    if not math.isfinite(bounds.width * (grid[-1] - 1)):
        raise InvalidParameterError(
            f"score bounds v_min = {bounds.v_min:.6g} and v_max = {bounds.v_max:.6g} are too "
            f"far apart: the ramp's (v_max - v_min) * (n - 1) overflows float64 at n = {grid[-1]}"
        )
    _check_trials(trials)
    ends = [end for end in family.mean_hull() if math.isfinite(end)]
    if bounds.v_min in ends and bounds.v_max in ends and (grid[0] == 2 or bounds.width == 0):
        raise _zero_risk(family, grid[0])
    return grid


def _zero_risk(family: Family, n: int) -> ValidationError:
    return ValidationError(
        f"rate check: the risk at n = {n} is 0, every score being exact at its mean, "
        f"so log risk is undefined; drop n = {n} or keep the bounds off the ends of "
        f"the {family.kind} mean hull"
    )


def rate_check(
    family: Family,
    bounds: ScoreBounds,
    n_grid: Sequence[int],
    trials: int = 500,
    seed: int = 0,
    max_workers: Optional[int] = None,
) -> RateReport:
    """Least-squares slope of log total risk vs log n for the adjusted scores.

    This is ``estimation_error_curve`` on a linear ramp across the full score
    range, a worst-case style configuration, with one score per item; the
    total risk at n is n times its per-coordinate MSE.  In the regime where
    the cube-root term dominates, the fitted slope should sit near 1/3.  A
    grid point whose risk is 0, where every score is exact, has no log and
    raises ``ValidationError``, and bounds too far apart for the ramp's
    float64 arithmetic at the largest n raise ``InvalidParameterError``; the
    refusals that need no draw come first (``_rate_grid``).
    """
    grid = _rate_grid(family, bounds, n_grid, trials)
    ramp = LinearRamp(hi=bounds.v_max, lo=bounds.v_min)
    curve = estimation_error_curve(family, grid, ramp, 1, trials, seed, max_workers)
    points = tuple(RatePoint(p.n, p.n * p.mse_im, p.n * p.mse_im_se) for p in curve)
    zero = next((p.n for p in points if not p.risk > 0), None)
    if zero is not None:
        raise _zero_risk(family, zero)
    slope, intercept = np.polyfit(
        np.log([p.n for p in points]), np.log([p.risk for p in points]), deg=1
    )
    return RateReport(slope=float(slope), intercept=float(intercept), points=points)


# ---------------------------------------------------------------------------
# Minimax lower-bound construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundConstruction:
    """Packing-based family of perturbed mean vectors for the risk lower bound.

    ``codewords`` holds binary rows of k bits (the first all zeros), one per
    member; block j spans ``block_sizes[j]`` consecutive items.  Member i's
    mean vector is a staircase over the k blocks lifted by gamma where its
    codeword is 1: row 0 of the (2, k) ``levels`` holds each block's step,
    row 1 that step plus gamma, and every item of block j takes
    ``levels[bit, j]``.  The mean vectors are not stored; ``mean_rows``
    gathers those of the codewords asked for.  The codewords are the first
    ``size`` words of a linear code over GF(2), word i the sum of the words
    at the powers of 2 picked by the bits of i.  Every level stays inside the
    certified sub-interval, pairwise distances are bounded below, and every
    member's KL divergence to member 0 (``kl_values``) stays under an eighth
    of log |Omega|.  ``margins`` holds what ``verify`` returned when
    ``build_lower_bound`` checked the construction.
    """

    family: Family
    bounds: ScoreBounds
    certificate: VarianceCertificate
    n: int
    k: int
    c: float
    gamma: float
    block_sizes: tuple[int, ...]
    codewords: np.ndarray
    levels: np.ndarray
    kl_values: np.ndarray
    kl_bound: float
    margins: Optional[dict[str, float]] = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def kl_budget(self) -> float:
        return float(np.max(self.kl_values))

    def mean_rows(self, index) -> np.ndarray:
        """The mean vectors of the codewords ``codewords[index]`` picks: (n,)
        for one integer, (len, n) for a slice or an array of rows."""
        block_of = np.repeat(np.arange(self.k), self.block_sizes)
        return _pick(self.codewords[index], block_of, self.levels)

    def verify(self) -> dict[str, float]:
        """Re-check every invariant exactly; raises on any violation.

        With d = bit_length(size - 1), the codewords must be the first
        ``size`` words of the linear code that ``codewords[2^b]``, b < d,
        span (``_span``).  Rows i and j then differ where word i XOR j is
        1, and since size > 2^(d-1) the pairs i < j < size give every
        nonzero word of the span: v < 2^(d-1) as (0, v), any other v as
        (2^(d-1), v - 2^(d-1)).  So the smallest pairwise Hamming distance
        and the smallest block-weighted disagreement are the smallest
        weights of the span's nonzero words, exact integers.  Every
        coordinate of every member is one of the 2k ``levels``, so checking
        those checks the certified interval.  Probe rows, gathered by
        ``mean_rows``, cross-check the weighted distances to member 0
        against direct mean-vector norms and the stored KL values against
        the family's KL.  Fewer than 2 codewords make no packing.

        Returns the achieved margins (minimum Hamming distance, minimum
        pairwise squared mean distance, KL budget and its cap).
        """
        if self.size < 2:
            raise ConstructionFailedError(f"a packing needs at least 2 codewords, not {self.size}")
        d = (self.size - 1).bit_length()
        span = _span(self.codewords[[1 << b for b in range(d)]])
        if not np.array_equal(span[: self.size], self.codewords):
            raise ConstructionFailedError(
                f"the codewords are not the first {self.size} words of the linear code "
                f"that codewords 1, 2, ..., {1 << (d - 1)} span"
            )
        block_sizes = np.asarray(self.block_sizes)
        min_dh = float(span[1:].sum(axis=1).min())
        if min_dh < self.k / 8.0:
            raise ConstructionFailedError(
                f"pairwise Hamming distance {min_dh} below k/8 = {self.k / 8}"
            )

        lo, hi = self.certificate.v_tilde_min, self.certificate.v_tilde_max
        if self.levels.min() < lo - 1e-9 or self.levels.max() > hi + 1e-9:
            raise ConstructionFailedError("a mean level leaves the certified interval")

        g2 = self.gamma**2
        min_dist2 = g2 * int((span[1:] @ block_sizes).min())
        floor = (self.c**2 / 8.0) * self.certificate.sigma_sq * self.k
        if min_dist2 < floor - 1e-9 * max(1.0, floor):
            raise ConstructionFailedError(
                f"pairwise squared mean distance {min_dist2} below (c^2/8) sigma^2 k = {floor}"
            )
        # spot-check the weighted form against direct norms, and the stored
        # KL values against the family's KL, on rows spread over the packing
        probe = np.linspace(0, self.size - 1, num=min(self.size, _PROBE_ROWS), dtype=int)
        mu = self.mean_rows(probe)  # probe[0] is row 0
        direct = np.square(mu - mu[0]).sum(axis=1)
        if not np.allclose(direct, g2 * (self.codewords[probe] @ block_sizes), rtol=1e-8, atol=1e-8):
            raise ConstructionFailedError("mean-distance bookkeeping is inconsistent")
        theta = self.family.natural_param(mu)
        kl_direct = np.asarray(self.family.kl_divergence(theta, theta[0]), dtype=float).sum(axis=1)
        if not np.allclose(kl_direct, self.kl_values[probe], rtol=1e-8, atol=1e-8):
            raise ConstructionFailedError("KL bookkeeping is inconsistent")

        cap = math.log(self.size) / 8.0
        if not self.kl_budget < cap:
            raise ConstructionFailedError(
                f"KL budget {self.kl_budget} is not below (1/8) log|Omega| = {cap}"
            )
        if np.any(self.kl_values > self.kl_bound + 1e-9 * max(1.0, self.kl_bound)):
            raise ConstructionFailedError("a closed-form KL exceeds the analytic bound")
        return {
            "min_hamming": min_dh,
            "min_dist2": min_dist2,
            "dist2_floor": floor,
            "kl_budget": self.kl_budget,
            "kl_cap": cap,
            "kl_bound": self.kl_bound,
        }


def _packing_target(k: int) -> int:
    return max(2, math.ceil(2.0 ** (k / 8.0)))


def _construction_bytes(k: int, n: int) -> int:
    """Bytes the construction may take for k blocks, as three terms.

    * 2^d k: the packer's linear code of 2^d words (uint8), d =
      bit_length(size - 1).
    * 8 size (k + size): weighing the code by block size takes an int64
      copy of it (8 2^d k bytes, 2^d < 2 size), in the packer and again in
      the verifier, which also holds its span, a second uint8 copy, and a
      prefix mask.  The size^2 part sizes no array: it caps the packing
      at 10,624 codewords (k <= 107) up to n = 75,000, and at fewer
      beyond, where the probe rows take part of the budget.
    * The probe rows: no (size, n) array is built, so n enters through
      the at most ``_PROBE_ROWS`` mean vectors the verifier gathers, each
      with ``_PROBE_ARRAYS`` float64 arrays of length n, and one row more
      for the KL pass."""
    target = _packing_target(k)
    probe = _PROBE_ARRAYS * 8 * (min(target, _PROBE_ROWS) + 1) * n
    return (1 << (target - 1).bit_length()) * k + 8 * target * (k + target) + probe


def _span(gen: np.ndarray) -> np.ndarray:
    """The 2^d words of the linear code a (d, k) generator spans over GF(2):
    word i sums the rows of ``gen`` picked by the bits of i."""
    d, k = gen.shape
    code = np.zeros((1 << d, k), dtype=gen.dtype)
    for b in range(d):  # words with top bit b are the words below it plus gen[b]
        np.bitwise_xor(code[: 1 << b], gen[b], out=code[1 << b : 2 << b])
    return code


def _pick(words: np.ndarray, block_of: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Per coordinate j of each of ``words``, row 1 of the (2, k) ``pair`` at
    block ``block_of[j]`` where the word's bit is 1, else row 0."""
    bits = words[..., block_of].view(bool)  # the code's 0/1 bytes
    return np.where(bits, pair[1, block_of], pair[0, block_of])


def _pack_codewords(
    k: int,
    target: int,
    min_hamming: int,
    min_weighted: int,
    block_sizes: np.ndarray,
    seed_seq: np.random.SeedSequence,
    max_restarts: int = 100,
) -> np.ndarray:
    """``target`` words of a random linear code of length k, zero word first.

    Varshamov's construction: the ``_span`` of a random d x k generator,
    d = ceil(log2(target)).  Two codewords differ where their sum, a third
    codeword, is 1, so when every nonzero codeword clears both weight
    floors, every pair of rows does.
    """
    d = (target - 1).bit_length()
    for _ in range(max_restarts):  # a seed per restart; the first code usually passes
        rng = np.random.default_rng(seed_seq.spawn(1)[0])
        code = _span(rng.integers(0, 2, size=(d, k), dtype=np.uint8))
        if (code[1:].sum(axis=1).min() >= min_hamming
                and (code[1:] @ block_sizes).min() >= min_weighted):
            return code[:target]
    raise ConstructionFailedError(
        f"could not pack {target} codewords of length {k} after {max_restarts} restarts"
    )


def _member_kl(codewords: np.ndarray, block_of: np.ndarray, kl_level: np.ndarray) -> np.ndarray:
    """Each codeword's KL to member 0, summed over its n coordinates of the
    (2, k) ``kl_level`` that ``_pick`` chooses.  The picks are gathered a
    tile of rows at a time, so no (size, n) array is built."""
    kl_values = np.empty(len(codewords))
    step = _block_rows(block_of.size)
    for lo in range(0, len(codewords), step):
        kl_values[lo : lo + step] = _pick(codewords[lo : lo + step], block_of, kl_level).sum(axis=1)
    return kl_values


def build_lower_bound(
    family: Family,
    bounds: ScoreBounds,
    n: int,
    c: Optional[float] = None,
    seed: int = 0,
) -> LowerBoundConstruction:
    """Construct and verify the perturbed-mean family behind the lower bound.

    ``c`` scales the block count k = min(floor((n V~^2 / (c^2 sigma^2))^(1/3)), n)
    and the lift gamma = c sqrt(sigma^2 k / n); it defaults to c_var / 16,
    which keeps the KL budget under the cap with room to spare.  The packing
    target is 2^(k/8) codewords (at least two) at pairwise Hamming distance
    k/8 or more, taken from a random linear code as in Varshamov's proof of
    Varshamov-Gilbert (Tsybakov 2009, Lemma 2.9): each pairwise distance is
    a codeword's weight, so any subset keeps the floor.  When k does not
    divide n, the shorter blocks sit first and the code also clears the
    block-weighted separation, so the distance invariant holds exactly.

    Before packing, the code, the copies that weigh and verify it, a
    size x size term that caps the codeword count and the verifier's probe
    rows of length n are sized against a fixed budget (1 GiB).  An n whose
    probe rows alone exceed it raises InvalidParameterError at any c;
    otherwise a c whose k exceeds it raises InvalidParameterError naming
    the limit that binds (the codeword cap, if the arrays alone would fit)
    and the smallest c that fits,
    unless that c is at or past c_var sqrt(log 2 / 32): the analytic KL
    bound c^2 k / (2 c_var^2) can then reach the cap, which is at least
    k log 2 / 64, and the message says to lower n instead.  The guard only
    refuses work, it never samples pairs.
    """
    if n < 8:
        raise ValidationError("lower-bound construction needs n >= 8")
    # the closed-form checks come before the certificate's grid check, whose
    # b'' would overflow first on a family that fails them
    cert = family.variance_certificate(bounds)
    sigma_sq = cert.sigma_sq
    if c is None:
        c = cert.c_var / 16.0
    if not (c > 0 and math.isfinite(c)):
        raise InvalidParameterError("c must be positive and finite")
    v_tilde = cert.width
    if v_tilde <= 0:
        raise InvalidParameterError("certified interval has zero width")
    if not (0.0 < sigma_sq < math.inf):
        raise InvalidParameterError(
            f"{family._param_text()}: the variance bound sigma^2 = {sigma_sq:.6g} on "
            f"[{bounds.v_min:.6g}, {bounds.v_max:.6g}] is not a positive float64"
        )
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        blocks_real = (n * np.float64(v_tilde) ** 2 / (np.float64(c) ** 2 * sigma_sq)) ** (1.0 / 3.0)
    if not math.isfinite(blocks_real):
        raise InvalidParameterError(
            f"{family._param_text()}: the block count (n V~^2 / (c^2 sigma^2))^(1/3) "
            f"overflows float64 at n = {n}, V~ = {v_tilde:.6g}, c = {c:.6g} and "
            f"sigma^2 = {sigma_sq:.6g}"
        )
    check_variance_floor(family, cert)

    k = min(int(math.floor(blocks_real)), n)
    if k < 1:
        raise InvalidParameterError(
            f"{family._param_text()}: block count is zero: (n V~^2 / (c^2 sigma^2))^(1/3) "
            f"= {blocks_real:.3g} at n = {n}, V~ = {v_tilde:.6g}, c = {c:.6g} and "
            f"sigma^2 = {sigma_sq:.6g}; lower c or raise n"
        )
    k_max = 0
    while k_max < n and _construction_bytes(k_max + 1, n) <= _CONSTRUCTION_MAX_BYTES:
        k_max += 1
    if k > k_max:
        budget = f"the {_CONSTRUCTION_MAX_BYTES / 2**30:g} GiB budget of the construction"
        if k_max == 0:
            raise InvalidParameterError(f"n = {n} is too large for {budget}")
        over = _packing_target(k_max + 1)
        if _construction_bytes(k_max + 1, n) - 8 * over**2 <= _CONSTRUCTION_MAX_BYTES:
            budget = (f"the cap of {_packing_target(k_max):,} codewords at n = {n} that bounds "
                      f"the time of the O(codewords * n) KL pass")
        # k <= k_max  <=>  c > sqrt(n V~^2 / (sigma^2 (k_max + 1)^3)); round up at 3 digits
        c_min = math.sqrt(n * v_tilde**2 / (sigma_sq * (k_max + 1) ** 3))
        scale = 10.0 ** (2 - math.floor(math.log10(c_min)))
        c_fit = math.floor(c_min * scale + 1.0) / scale
        advice = f"use c >= {c_fit:.3g} (k <= {k_max})"
        c_kl = cert.c_var * math.sqrt(math.log(2.0) / 32.0)
        if c_fit >= c_kl:
            advice = (
                f"c >= {c_fit:.3g} fits it (k <= {k_max}), but from c = c_var sqrt(log 2 / 32) "
                f"= {c_kl:.3g} on the KL budget may reach its cap (1/8) log|Omega|; lower n"
            )
        raise InvalidParameterError(
            f"c = {c:.4g} gives k = {k} blocks and 2^({k}/8) codewords, beyond {budget}; {advice}"
        )
    gamma = c * math.sqrt(sigma_sq * k / n)

    base, rem = divmod(n, k)
    block_sizes = np.asarray([base] * (k - rem) + [base + 1] * rem, dtype=np.int64)

    codewords = _pack_codewords(
        k,
        _packing_target(k),
        min_hamming=math.ceil(k / 8.0),
        min_weighted=math.ceil(n / 8.0),
        block_sizes=block_sizes,
        seed_seq=np.random.SeedSequence(seed),
    )

    # Each block takes one of two means, its staircase step or that step
    # plus gamma, so the family's calculus runs on those (2, k) levels and
    # the members' KL values are picked from them by the codeword bits.
    blocks = np.arange(k)
    levels = (cert.v_tilde_min + blocks * (v_tilde / k)) + gamma * np.array([[0.0], [1.0]])
    theta = family.natural_param(levels)
    kl_level = np.asarray(
        family.kl_divergence(theta, theta[codewords[0], blocks]), dtype=float
    )
    kl_values = _member_kl(codewords, np.repeat(blocks, block_sizes), kl_level)
    kl_bound = gamma**2 * n / (2.0 * cert.c_var**2 * sigma_sq)

    construction = LowerBoundConstruction(
        family=family,
        bounds=bounds,
        certificate=cert,
        n=n,
        k=k,
        c=float(c),
        gamma=float(gamma),
        block_sizes=tuple(int(b) for b in block_sizes),
        codewords=codewords,
        levels=levels,
        kl_values=kl_values,
        kl_bound=float(kl_bound),
    )
    return replace(construction, margins=construction.verify())


# ---------------------------------------------------------------------------
# Surrogate ground-truth evaluation on review/author records
# ---------------------------------------------------------------------------


class ReviewTable:
    """Reviews as columns in file order, ids factorised once: ``ids`` holds
    the distinct ones in ``sorted`` order and ``codes`` each review's place
    there.  Scores are float64; a confidence outside int64 is refused."""

    def __init__(self, submission_ids: Sequence[str], scores, confidences):
        ids = sorted(set(submission_ids))
        code_of = dict(zip(ids, range(len(ids))))
        self._fill(ids, np.fromiter(map(code_of.__getitem__, submission_ids), dtype=np.intp,
                                    count=len(submission_ids)), scores, confidences)

    @classmethod
    def factorised(cls, ids: list[str], codes, scores, confidences) -> ReviewTable:
        """The table whose review i has the id ``ids[codes[i]]``, for
        ``ids`` distinct and in ``sorted`` order."""
        table = cls.__new__(cls)
        table._fill(ids, np.asarray(codes, dtype=np.intp), scores, confidences)
        return table

    def _fill(self, ids: list[str], codes: np.ndarray, scores, confidences) -> None:
        confidences = np.asarray(confidences)
        if confidences.size and confidences.dtype.kind not in "bi":
            raise ValidationError("review confidences must be 64-bit integers")
        self.scores = np.asarray(scores, dtype=float)
        self.confidences = confidences.astype(np.int64, copy=False)
        self.ids, self.codes = ids, codes
        if not len(self.codes) == len(self.scores) == len(self.confidences):
            raise ValidationError("review columns must have equal lengths")

    @property
    def submission_ids(self) -> tuple[str, ...]:
        """Each review's submission id, one string object per submission."""
        return tuple(map(self.ids.__getitem__, self.codes.tolist()))


class AuthorTable:
    """Authors as CSR columns: ``author_ids[i]`` ranks the submissions
    ``codes[offsets[i]:offsets[i + 1]]`` by that slice of ``ranks`` (1 = best).

    Built from CSR input: the flat submission ids with the count of each
    row, and the flat int64 ranks with theirs.  An id that no review holds
    gets a fresh code from ``len(reviews.ids)`` up.  The first row without
    submissions, with a rank count unlike its submission count or listing a
    submission twice (in that order) raises ``AuthorRowError``."""

    def __init__(self, reviews: ReviewTable, author_ids: Sequence[str],
                 submission_ids: Sequence[str], sizes, ranks, rank_counts):
        self.ranks = np.asarray(ranks, dtype=np.int64)
        lookup = dict(zip(reviews.ids, range(len(reviews.ids))))
        self.codes = np.fromiter(map(lookup.setdefault, submission_ids,
                                     itertools.count(len(reviews.ids))),
                                 dtype=np.intp, count=len(submission_ids))
        sizes = np.asarray(sizes, dtype=np.intp)
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        # above every code: keys sort by row, then code
        span = len(reviews.ids) + len(submission_ids)
        keys = np.sort(np.repeat(np.arange(sizes.size) * span, sizes) + self.codes)
        bad = (sizes == 0) | (np.asarray(rank_counts) != sizes)
        bad[keys[1:][np.diff(keys) == 0] // span] = True
        if bad.any():
            k = int(bad.argmax())
            who = f"author {author_ids[k]} lists"
            if not sizes[k]:
                raise AuthorRowError(f"{who} no submissions", k)
            if rank_counts[k] != sizes[k]:
                raise AuthorRowError(f"{who} {sizes[k]} submissions but {rank_counts[k]} ranks", k)
            ids = submission_ids[self.offsets[k]:self.offsets[k + 1]]
            repeated = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
            raise AuthorRowError(f"{who} submission {repeated!r} twice", k)
        self.author_ids = author_ids


@dataclass(frozen=True)
class SurrogateRow:
    n: int
    authors: int
    mse_raw: Optional[float]
    mse_im: Optional[float]
    improvement: Optional[float]


@dataclass(frozen=True)
class SurrogateReport:
    rows: tuple[SurrogateRow, ...]
    skipped_submissions: int
    skipped_authors: dict[str, int]
    tie_breaks: dict[str, int]
    seed: int


def _run_means(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean of each consecutive run of ``values``, rounded exactly as
    ``np.mean`` rounds the run on its own.

    numpy sums fewer than 8 values left to right from 0.0: such runs become
    the rows of a zero-padded matrix, summed column by column (adding 0.0
    to a sum that starts at 0.0 changes nothing).  Longer runs, which
    numpy sums pairwise, go to ``np.mean`` one at a time.
    """
    means = np.empty(lengths.size)
    short = lengths < 8
    if short.any():
        width = int(lengths[short].max())
        padded = np.zeros((int(short.sum()), width))
        padded[np.arange(width) < lengths[short, None]] = values[np.repeat(short, lengths)]
        total = np.zeros(len(padded))
        for column in padded.T:
            total += column
        means[short] = total / lengths[short]
    ends = np.cumsum(lengths)
    for i in np.flatnonzero(~short):
        means[i] = np.mean(values[ends[i] - lengths[i] : ends[i]])
    return means


def _held_out_reviews(
    table: ReviewTable, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int], int]:
    """(row of each code, surrogate truths, held-out scores, tie-breaks,
    submissions dropped), a row per submission with two or more reviews in
    code order; dropped codes and the extra last one, for ids no review
    holds, have row -1.  Groups keep file order.  All ties draw in one
    ``rng.integers`` call, the values of one scalar call per tied submission.
    """
    counts = np.bincount(table.codes, minlength=len(table.ids))
    kept = np.flatnonzero(counts >= 2)
    row_of = np.full(len(table.ids) + 1, -1, dtype=np.intp)
    row_of[kept] = np.arange(kept.size)
    # numpy's stable sort is a radix sort on keys of 16 bits or fewer
    order = np.argsort(table.codes.astype(np.min_scalar_type(len(table.ids))), kind="stable")
    order = order[row_of[table.codes[order]] >= 0]
    counts = counts[kept]
    starts = np.cumsum(counts) - counts
    scores = table.scores[order]
    confidences = table.confidences[order]

    least = confidences == np.repeat(np.minimum.reduceat(confidences, starts), counts)
    ties = np.add.reduceat(least, starts, dtype=np.intp)
    draws = np.zeros(kept.size, dtype=np.intp)
    tied = np.flatnonzero(ties > 1)
    if tied.size:
        draws[tied] = rng.integers(ties[tied])
    held = np.flatnonzero(least)[np.cumsum(ties) - ties + draws]
    tie_breaks = dict(zip(map(table.ids.__getitem__, kept[tied].tolist()),
                          (held - starts)[tied].tolist()))
    rest = np.ones(scores.size, dtype=bool)
    rest[held] = False
    skipped = len(table.ids) - kept.size
    return row_of, _run_means(scores[rest], counts - 1), scores[held], tie_breaks, skipped


# Finite scores near the float64 limit may sum or square to inf; the rows'
# means are checked once at the end, so the array passes run unchecked.
@np.errstate(over="ignore", invalid="ignore")
def surrogate_eval(
    table: ReviewTable,
    authors: AuthorTable,
    seed: int = 0,
) -> SurrogateReport:
    """Score each author's reported ranking against a held-out review.

    Per submission, the least-confident review plays the observed score and
    the mean of the remaining reviews plays the surrogate truth (submissions
    with fewer than two reviews are dropped and counted).  Confidence ties
    pick the held-out review uniformly at random from the tied set, seeded,
    and the chosen index is recorded for replay.  Authors whose sorted ranks
    differ from 1..n, or who list a submission without two reviews, are
    skipped, counted by reason and logged in file order.  Rows aggregate
    both MSEs over the authors of each submission count n, fitted together
    by ``pava_descending_rows`` in claimed order; counts without authors
    keep None cells.  Non-finite review scores, finite ones whose sums or
    squares overflow float64 and an improvement that overflows (a subnormal
    raw MSE) raise ``ValidationError``.
    """
    if not np.isfinite(table.scores).all():
        raise ValidationError("review scores must be finite (no NaN/inf)")
    row_of, truth, held_out, tie_breaks, skipped_submissions = _held_out_reviews(
        table, np.random.default_rng(seed)
    )
    if skipped_submissions:
        logger.info("dropped %d submissions with fewer than 2 reviews", skipped_submissions)

    sizes = np.diff(authors.offsets)
    author_of = np.repeat(np.arange(sizes.size), sizes)
    ranks = authors.ranks
    # a permutation puts every rank in 1..n and on a slot of its own
    inside = (ranks >= 1) & (ranks <= sizes[author_of])
    hit = np.zeros(ranks.size, dtype=bool)
    hit[authors.offsets[author_of[inside]] + ranks[inside] - 1] = True
    malformed = np.bincount(author_of[~(inside & hit)], minlength=sizes.size) > 0
    rows_used = row_of[np.minimum(authors.codes, row_of.size - 1)]
    missing = np.bincount(author_of[rows_used < 0], minlength=sizes.size) > 0
    skipped_authors: dict[str, int] = defaultdict(int)
    for k in np.flatnonzero(malformed | missing).tolist():
        who = authors.author_ids[k]
        if malformed[k]:
            skipped_authors["malformed_ranking"] += 1
            logger.info("author %s skipped: ranking is not a permutation", who)
        else:
            skipped_authors["missing_submission"] += 1
            logger.info("author %s skipped: submission without usable reviews", who)

    used = ~(malformed | missing)
    ns = set(sizes[used].tolist())
    rows = []
    for n in range(min(ns, default=1), max(ns, default=0) + 1):
        slots = authors.offsets[np.flatnonzero(used & (sizes == n)), None] + np.arange(n)
        if not slots.size:
            rows.append(SurrogateRow(n=n, authors=0, mse_raw=None, mse_im=None, improvement=None))
            continue
        position = ranks[slots] - 1  # claimed place of submission j
        mu, x = truth[rows_used[slots]], held_out[rows_used[slots]]
        claimed = np.argsort(position, axis=1)  # submission indices, claimed best first
        fitted = pava_descending_rows(np.take_along_axis(x, claimed, axis=1))
        adjusted = np.take_along_axis(fitted, position, axis=1)
        raws = float(np.mean(((x - mu) * (x - mu)).mean(axis=1)))
        ims = float(np.mean(((adjusted - mu) * (adjusted - mu)).mean(axis=1)))
        if not (math.isfinite(raws) and math.isfinite(ims)):
            raise ValidationError(
                f"review scores are too large to pool in float64: the n = {n} MSEs overflow"
            )
        improvement = (raws - ims) / raws if raws > 0 else 0.0
        if not math.isfinite(improvement):
            raise ValidationError(f"the n = {n} improvement overflows float64: raw MSE {raws!r}")
        rows.append(
            SurrogateRow(n=n, authors=len(slots), mse_raw=raws, mse_im=ims, improvement=improvement)
        )
    return SurrogateReport(
        rows=tuple(rows),
        skipped_submissions=skipped_submissions,
        skipped_authors=dict(skipped_authors),
        tie_breaks=tie_breaks,
        seed=seed,
    )

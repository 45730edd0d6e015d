"""End-to-end estimation studies.

Four drivers built on the isotonic machinery:

  * ``estimation_error_curve``  per-coordinate MSE of adjusted vs raw scores
    across a grid of submission counts,
  * ``rate_check``              log-log slope of the total risk against n,
    for comparison with the n^(1/3) minimax rate,
  * ``build_lower_bound``       the packing construction behind the minimax
    lower bound (codewords, perturbed mean vectors, KL budget), with an
    exhaustive verifier,
  * ``synthetic_icml_study`` / ``surrogate_eval``  conference-review style
    evaluations on synthetic pools and on review/author records.

``surrogate_eval`` takes reviews as columns (``ReviewTable``) and works on
whole arrays: submissions are split by a stable sort, ties are drawn in one
call, and the authors of each submission count are fitted together by the
lockstep PAVA ``pava_descending_rows``.

Every driver is a pure function of (config, seed).  The Monte-Carlo
drivers run on the core in ``mechanism`` that the truthfulness sweep also
uses: fixed-size chunks of trials on RNG substreams spawned from the seed
(identical results serially or on a thread pool), its one sampler
``sample_scores`` and its ``_mean_se``.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConstructionFailedError,
    InvalidParameterError,
    ValidationError,
)
from .expfam import (
    Family,
    Binomial,
    ScoreBounds,
    VarianceCertificate,
    verify_variance_assumption,
)
from .isotonic import pava_descending_rows, project_descending_batch
from .mechanism import _map_chunks, _mean_se, sample_scores

__all__ = [
    "LinearRamp",
    "PoolResample",
    "ExplicitScores",
    "EstimationConfig",
    "EstimationPoint",
    "estimation_error_curve",
    "RatePoint",
    "RateReport",
    "rate_check",
    "LowerBoundConstruction",
    "build_lower_bound",
    "SyntheticRow",
    "synthetic_icml_study",
    "ReviewTable",
    "AuthorRecord",
    "SurrogateRow",
    "SurrogateReport",
    "surrogate_eval",
]

logger = logging.getLogger(__name__)

# Memory the lower-bound construction may take for its linear code, its
# mean vectors and the verifier's size x size Gram matrix.
_CONSTRUCTION_MAX_BYTES = 1 << 30


# ---------------------------------------------------------------------------
# True-score generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearRamp:
    """Deterministic ramp mu_i = hi - (hi - lo) * (i - 1) / (n - 1)."""

    hi: float = 9.0
    lo: float = 3.0

    def draw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """The (n,) ramp, the same in every trial."""
        if n < 2:
            raise ValidationError("linear ramp needs n >= 2")
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


@dataclass(frozen=True)
class EstimationConfig:
    family: Family
    n_grid: tuple[int, ...]
    generator: ScoreGenerator
    scores_per_item: int = 3
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValidationError("n_grid must hold positive submission counts")
        if self.trials < 1 or self.scores_per_item < 1:
            raise ValidationError("trials and scores_per_item must be >= 1")


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
    the true order.
    """

    def one_chunk(count, rng):
        mu = np.asarray(generator.draw(count, n, rng), dtype=float)
        family.check_mean_hull(mu, "true score")
        mu = np.sort(mu, axis=-1)[..., ::-1]
        x = sample_scores(family, mu, scores_per_item, rng, count)
        fitted = project_descending_batch(x)
        mse_im = np.square(fitted - mu).sum(axis=1) / n
        mse_raw = np.square(x - mu).sum(axis=1) / n
        return mse_im, mse_raw

    parts = _map_chunks(one_chunk, trials, seed_seq, max_workers)
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


def estimation_error_curve(
    cfg: EstimationConfig, max_workers: Optional[int] = None
) -> list[EstimationPoint]:
    """Per-coordinate estimation error of adjusted vs raw scores across n.

    For every n in the grid, Monte-Carlo means of |adjusted - truth|^2 / n
    under the truthful ranking, against |raw - truth|^2 / n.
    """
    root = np.random.SeedSequence(cfg.seed)
    per_n = root.spawn(len(cfg.n_grid))
    points = []
    for n, child in zip(cfg.n_grid, per_n):
        im, raw = _mse_samples(
            cfg.family, cfg.generator, n, cfg.scores_per_item, cfg.trials,
            child, max_workers,
        )
        m_im, se_im = _mean_se(im)
        m_raw, se_raw = _mean_se(raw)
        points.append(EstimationPoint(n, m_im, se_im, m_raw, se_raw, cfg.trials))
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


def rate_check(
    family: Family,
    bounds: ScoreBounds,
    n_grid: Sequence[int],
    trials: int = 500,
    scores_per_item: int = 1,
    seed: int = 0,
    max_workers: Optional[int] = None,
) -> RateReport:
    """Least-squares slope of log total risk vs log n for the adjusted scores.

    The true scores ramp linearly across the full score range, a worst-case
    style configuration; in the regime where the cube-root term dominates,
    the fitted slope should sit near 1/3.
    """
    grid = sorted(set(int(n) for n in n_grid))
    if len(grid) < 2 or grid[0] < 2:
        raise ValidationError("rate check needs at least two submission counts >= 2")
    family.validate_bounds(bounds)
    gen = LinearRamp(hi=bounds.v_max, lo=bounds.v_min)
    root = np.random.SeedSequence(seed)
    points = []
    for n, child in zip(grid, root.spawn(len(grid))):
        im, _ = _mse_samples(family, gen, n, scores_per_item, trials, child, max_workers)
        total = im * n  # _mse_samples normalizes by n
        mean, se = _mean_se(total)
        points.append(RatePoint(n=n, risk=mean, risk_se=se))
    slope, intercept = np.polyfit(
        np.log([p.n for p in points]), np.log([p.risk for p in points]), deg=1
    )
    return RateReport(slope=float(slope), intercept=float(intercept), points=tuple(points))


# ---------------------------------------------------------------------------
# Minimax lower-bound construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundConstruction:
    """Packing-based family of perturbed mean vectors for the risk lower bound.

    ``codewords`` holds binary rows (the first all zeros); ``mu_rows[i]`` is
    the mean vector induced by codeword i: a staircase over k blocks lifted
    by gamma where the codeword is 1.  Mean vectors stay inside the certified
    sub-interval, pairwise distances are bounded below, and every member's KL
    divergence to member 0 stays under an eighth of log |Omega|.
    ``margins`` holds what ``verify`` returned when ``build_lower_bound``
    checked the construction.
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
    mu_rows: np.ndarray
    kl_values: np.ndarray
    kl_bound: float
    target_size: int
    margins: Optional[dict[str, float]] = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def kl_budget(self) -> float:
        return float(np.max(self.kl_values))

    def verify(self) -> dict[str, float]:
        """Exhaustively re-check every invariant; raises on any violation.

        Returns the achieved margins (minimum Hamming distance, minimum
        pairwise squared mean distance, KL budget and its cap).
        """
        # One size x size matrix at a time, built in place: pairwise Hamming
        # distances, then block-weighted disagreements.  Entries are small
        # integers, so the float arithmetic is exact.
        w = self.codewords.astype(np.float64)
        ones = w.sum(axis=1)
        m = w @ w.T
        m *= -2.0
        m += ones[:, None]
        m += ones[None, :]
        np.fill_diagonal(m, np.inf)
        min_dh = float(m.min())
        if min_dh < self.k / 8.0:
            raise ConstructionFailedError(
                f"pairwise Hamming distance {min_dh} below k/8 = {self.k / 8}"
            )

        lo, hi = self.certificate.v_tilde_min, self.certificate.v_tilde_max
        if self.mu_rows.min() < lo - 1e-9 or self.mu_rows.max() > hi + 1e-9:
            raise ConstructionFailedError("a mean vector leaves the certified interval")

        # exact pairwise squared distances via block-weighted disagreements
        wn = w * np.asarray(self.block_sizes, dtype=np.float64)
        sq = wn.sum(axis=1)
        np.matmul(wn, w.T, out=m)
        m *= -2.0
        m += sq[:, None]
        m += sq[None, :]
        m *= self.gamma**2
        column0 = m[:, 0].copy()
        np.fill_diagonal(m, np.inf)
        min_dist2 = float(m.min())
        floor = (self.c**2 / 8.0) * self.certificate.sigma_sq * self.k
        if min_dist2 < floor - 1e-9 * max(1.0, floor):
            raise ConstructionFailedError(
                f"pairwise squared mean distance {min_dist2} below (c^2/8) sigma^2 k = {floor}"
            )
        # spot-check the weighted form against direct norms
        probe = np.linspace(0, self.size - 1, num=min(self.size, 32), dtype=int)
        direct = np.square(self.mu_rows[probe] - self.mu_rows[0]).sum(axis=1)
        if not np.allclose(direct, column0[probe], rtol=1e-8, atol=1e-8):
            raise ConstructionFailedError("mean-distance bookkeeping is inconsistent")

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
    """Bytes of the linear code (uint8), mean vectors and Gram matrix for k blocks."""
    target = _packing_target(k)
    return (1 << (target - 1).bit_length()) * k + 8 * target * (n + target)


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

    Varshamov's construction: row i sums, over GF(2), the rows of a random
    d x k generator (d = ceil(log2(target))) picked by the bits of i.  Two
    codewords differ where their sum, a third codeword, is 1, so when every
    nonzero codeword clears both weight floors, every pair of rows does.
    """
    d = (target - 1).bit_length()
    bits = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(np.uint8)
    for child in seed_seq.spawn(max_restarts):
        gen = np.random.default_rng(child).integers(0, 2, size=(d, k), dtype=np.uint8)
        code = bits @ gen & 1  # entries sum at most d bits; their parity is the GF(2) sum
        if (code[1:].sum(axis=1).min() >= min_hamming
                and (code[1:] @ block_sizes).min() >= min_weighted):
            return code[:target]
    raise ConstructionFailedError(
        f"could not pack {target} codewords of length {k} after {max_restarts} restarts"
    )


def build_lower_bound(
    family: Family,
    bounds: ScoreBounds,
    n: int,
    c: Optional[float] = None,
    seed: int = 0,
    grid_points: int = 1024,
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

    Before packing, the code, mean vectors and the verifier's Gram matrix
    are sized against a fixed memory budget (1 GiB).  A c whose k exceeds
    it raises InvalidParameterError naming the smallest c that fits; the
    guard only refuses work, it never samples pairs.
    """
    if n < 8:
        raise ValidationError("lower-bound construction needs n >= 8")
    cert = verify_variance_assumption(family, bounds, grid_points)
    sigma_sq = cert.sigma_sq
    if c is None:
        c = cert.c_var / 16.0
    if not (c > 0 and math.isfinite(c)):
        raise InvalidParameterError("c must be positive and finite")
    v_tilde = cert.width
    if v_tilde <= 0:
        raise InvalidParameterError("certified interval has zero width")

    k = min(int(math.floor((n * v_tilde**2 / (c**2 * sigma_sq)) ** (1.0 / 3.0))), n)
    if k < 1:
        raise InvalidParameterError("perturbation scale c too large: block count is zero")
    k_max = 0
    while k_max < n and _construction_bytes(k_max + 1, n) <= _CONSTRUCTION_MAX_BYTES:
        k_max += 1
    if k > k_max:
        budget = f"the {_CONSTRUCTION_MAX_BYTES / 2**30:g} GiB budget of the construction"
        if k_max == 0:
            raise InvalidParameterError(f"n = {n} is too large for {budget}")
        # k <= k_max  <=>  c > sqrt(n V~^2 / (sigma^2 (k_max + 1)^3)); round up at 3 digits
        c_min = math.sqrt(n * v_tilde**2 / (sigma_sq * (k_max + 1) ** 3))
        scale = 10.0 ** (2 - math.floor(math.log10(c_min)))
        c_fit = math.floor(c_min * scale + 1.0) / scale
        raise InvalidParameterError(
            f"c = {c:.4g} gives k = {k} blocks and 2^({k}/8) codewords, beyond {budget}; "
            f"use c >= {c_fit:.3g} (k <= {k_max})"
        )
    gamma = c * math.sqrt(sigma_sq * k / n)

    base, rem = divmod(n, k)
    block_sizes = np.asarray([base] * (k - rem) + [base + 1] * rem, dtype=np.int64)

    target = _packing_target(k)
    codewords = _pack_codewords(
        k,
        target,
        min_hamming=math.ceil(k / 8.0),
        min_weighted=math.ceil(n / 8.0),
        block_sizes=block_sizes,
        seed_seq=np.random.SeedSequence(seed),
    )

    block_of = np.repeat(np.arange(k), block_sizes)
    staircase = cert.v_tilde_min + block_of * (v_tilde / k)
    mu_rows = staircase[None, :] + gamma * codewords[:, block_of].astype(float)

    theta_rows = family.natural_param(mu_rows)
    kl_values = np.asarray(
        family.kl_divergence(theta_rows, np.broadcast_to(theta_rows[0], theta_rows.shape)),
        dtype=float,
    ).sum(axis=1)
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
        mu_rows=mu_rows,
        kl_values=kl_values,
        kl_bound=float(kl_bound),
        target_size=target,
    )
    return replace(construction, margins=construction.verify())


# ---------------------------------------------------------------------------
# Synthetic conference-review study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticRow:
    n: int
    mse_im_mean: float
    mse_im_std: float
    mse_raw_mean: float
    mse_raw_std: float
    improvement: float
    trials: int


def synthetic_icml_study(
    score_pool: Sequence[float],
    n_grid: Sequence[int] = tuple(range(2, 18)),
    trials: int = 1000,
    seed: int = 0,
    max_workers: Optional[int] = None,
) -> list[SyntheticRow]:
    """Review-score simulation over a pool of plausible true scores.

    Per trial, n true scores are resampled from the pool; each observed score
    averages three Binomial(10, mu/10) draws; the truthful ranking adjusts
    them.  Rows report mean and standard deviation of both per-author MSEs
    plus the relative improvement of the adjusted scores (0 without raw error).
    """
    if not n_grid or any(n < 1 for n in n_grid):
        raise ValidationError("n_grid must hold positive submission counts")
    pool = np.asarray(list(score_pool), dtype=float)
    if pool.size == 0:
        raise ValidationError("score pool must be nonempty")
    if pool.min() < 0 or pool.max() > 10:
        raise InvalidParameterError("pool scores must lie in [0, 10]")
    family = Binomial(10)
    gen = PoolResample(pool=tuple(pool))
    root = np.random.SeedSequence(seed)
    rows = []
    for n, child in zip(n_grid, root.spawn(len(n_grid))):
        im, raw = _mse_samples(family, gen, int(n), 3, trials, child, max_workers)
        im_mean, raw_mean = im.mean(), raw.mean()
        improvement = float((raw_mean - im_mean) / raw_mean) if raw_mean > 0 else 0.0
        rows.append(
            SyntheticRow(
                n=int(n),
                mse_im_mean=float(im_mean),
                mse_im_std=float(im.std(ddof=1)) if trials > 1 else 0.0,
                mse_raw_mean=float(raw_mean),
                mse_raw_std=float(raw.std(ddof=1)) if trials > 1 else 0.0,
                improvement=improvement,
                trials=trials,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Surrogate ground-truth evaluation on review/author records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReviewTable:
    """Reviews as columns, one entry per review in file order.

    ``scores`` is stored as float64 and ``confidences`` as int64; a
    confidence that is not an integer in int64's range is refused.
    """

    submission_ids: Sequence[str]
    scores: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        confidences = np.asarray(self.confidences)
        if confidences.size and confidences.dtype.kind not in "bi":
            raise ValidationError("review confidences must be 64-bit integers")
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=float))
        object.__setattr__(self, "confidences", confidences.astype(np.int64, copy=False))
        if not len(self.submission_ids) == len(self.scores) == len(self.confidences):
            raise ValidationError("review columns must have equal lengths")


@dataclass(frozen=True)
class AuthorRecord:
    author_id: str
    submission_ids: tuple[str, ...]
    ranking: tuple[int, ...]  # ranking[j] = rank position of submission j, 1 = best


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


def _first_repeat(ids: Sequence[str]) -> Optional[str]:
    """The first id that ``ids`` lists a second time, or None."""
    if len(set(ids)) == len(ids):
        return None
    return next(sid for i, sid in enumerate(ids) if sid in ids[:i])


def _held_out_reviews(
    table: ReviewTable, rng: np.random.Generator
) -> tuple[list[str], np.ndarray, np.ndarray, dict[str, int], int]:
    """Per submission with two or more reviews, in sorted-id order: (ids,
    surrogate truths, held-out scores, tie-breaks, submissions dropped).

    Reviews are grouped by id with a stable sort, so each group keeps its
    file order; all confidence ties draw in one ``rng.integers`` call,
    which takes the same values from the stream as one scalar call per
    tied submission.  Ids are ranked with ``sorted`` (code-point order):
    numpy's fixed-width strings drop trailing NULs, which a CSV cell may
    hold.
    """
    code_of = dict.fromkeys(table.submission_ids)
    ids = sorted(code_of)
    code_of.update(zip(ids, range(len(ids))))
    codes = np.fromiter(map(code_of.__getitem__, table.submission_ids), dtype=np.intp,
                        count=len(table.submission_ids))
    counts = np.bincount(codes, minlength=len(ids))
    kept = counts >= 2
    skipped = len(ids) - int(kept.sum())
    if not kept.any():
        return [], np.empty(0), np.empty(0), {}, skipped
    ids = list(itertools.compress(ids, kept.tolist()))
    order = np.argsort(codes, kind="stable")
    order = order[kept[codes[order]]]
    counts = counts[kept]
    starts = np.cumsum(counts) - counts
    scores = table.scores[order]
    confidences = table.confidences[order]

    least = confidences == np.repeat(np.minimum.reduceat(confidences, starts), counts)
    ties = np.add.reduceat(least, starts, dtype=np.intp)
    draws = np.zeros(len(ids), dtype=np.intp)
    tied = np.flatnonzero(ties > 1)
    if tied.size:
        draws[tied] = rng.integers(ties[tied])
    held = np.flatnonzero(least)[np.cumsum(ties) - ties + draws]
    tie_breaks = dict(zip([ids[g] for g in tied], (held - starts)[tied].tolist()))
    rest = np.ones(scores.size, dtype=bool)
    rest[held] = False
    return ids, _run_means(scores[rest], counts - 1), scores[held], tie_breaks, skipped


# Finite scores near the float64 limit may sum or square to inf; the rows'
# means are checked once at the end, so the array passes run unchecked.
@np.errstate(over="ignore", invalid="ignore")
def surrogate_eval(
    table: ReviewTable,
    authors: Iterable[AuthorRecord],
    seed: int = 0,
) -> SurrogateReport:
    """Score each author's reported ranking against a held-out review.

    Per submission, the least-confident review plays the observed score and
    the mean of the remaining reviews plays the surrogate truth (submissions
    with fewer than two reviews are dropped and counted).  Confidence ties
    pick the held-out review uniformly at random from the tied set, seeded,
    and the chosen index is recorded for replay.  Authors whose rankings are
    not permutations, or who reference unknown or dropped submissions, are
    skipped and counted by reason.  Rows aggregate both MSEs over authors
    with the same submission count; counts without authors keep None cells.
    Non-finite review scores, finite ones whose sums or squares overflow
    float64, an improvement that overflows (a subnormal raw MSE), authors
    without submissions and authors who list a submission twice raise
    ``ValidationError``.

    Reviews arrive as columns (``ReviewTable``) and are split by submission
    with array operations.  The authors of each submission count n are
    fitted together: their held-out scores form an (authors, n) matrix in
    claimed order, which ``pava_descending_rows`` fits exactly as
    ``pava_descending`` fits one row.
    """
    if not np.isfinite(table.scores).all():
        raise ValidationError("review scores must be finite (no NaN/inf)")
    ids, truth, held_out, tie_breaks, skipped_submissions = _held_out_reviews(
        table, np.random.default_rng(seed)
    )
    if skipped_submissions:
        logger.info("dropped %d submissions with fewer than 2 reviews", skipped_submissions)

    row_of = dict(zip(ids, range(len(ids))))
    per_n: dict[int, tuple[list[list], list[tuple]]] = defaultdict(lambda: ([], []))
    skipped_authors: dict[str, int] = defaultdict(int)
    for author in authors:
        n = len(author.submission_ids)
        repeated = _first_repeat(author.submission_ids)
        if repeated is not None:
            raise ValidationError(f"author {author.author_id} lists submission {repeated!r} twice")
        if sorted(author.ranking) != list(range(1, n + 1)):
            skipped_authors["malformed_ranking"] += 1
            logger.info("author %s skipped: ranking is not a permutation", author.author_id)
            continue
        rows_used = [row_of.get(sid) for sid in author.submission_ids]
        if None in rows_used:
            skipped_authors["missing_submission"] += 1
            logger.info("author %s skipped: submission without usable reviews", author.author_id)
            continue
        if not n:
            raise ValidationError(f"author {author.author_id} lists no submissions")
        used, rankings = per_n[n]
        used.append(rows_used)
        rankings.append(author.ranking)

    per_author: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for n, (used, rankings) in per_n.items():
        used = np.asarray(used, dtype=np.intp)
        position = np.asarray(rankings, dtype=np.intp) - 1  # claimed place of submission j
        mu, x = truth[used], held_out[used]
        claimed = np.argsort(position, axis=1)  # submission indices, claimed best first
        fitted = pava_descending_rows(np.take_along_axis(x, claimed, axis=1))
        adjusted = np.take_along_axis(fitted, position, axis=1)
        lengths = np.full(len(used), n)
        per_author[n] = (
            _run_means(((x - mu) * (x - mu)).ravel(), lengths),
            _run_means(((adjusted - mu) * (adjusted - mu)).ravel(), lengths),
        )

    rows = []
    if per_author:
        for n in range(min(per_author), max(per_author) + 1):
            if n not in per_author:
                rows.append(SurrogateRow(n=n, authors=0, mse_raw=None, mse_im=None, improvement=None))
                continue
            mse_raw, mse_im = per_author[n]
            raws, ims = float(np.mean(mse_raw)), float(np.mean(mse_im))
            if not (math.isfinite(raws) and math.isfinite(ims)):
                raise ValidationError(
                    f"review scores are too large to pool in float64: the n = {n} MSEs overflow"
                )
            improvement = (raws - ims) / raws if raws > 0 else 0.0
            if not math.isfinite(improvement):
                raise ValidationError(f"the n = {n} improvement overflows float64: raw MSE {raws!r}")
            rows.append(
                SurrogateRow(n=n, authors=len(mse_raw), mse_raw=raws, mse_im=ims, improvement=improvement)
            )
    return SurrogateReport(
        rows=tuple(rows),
        skipped_submissions=skipped_submissions,
        skipped_authors=dict(skipped_authors),
        tie_breaks=tie_breaks,
        seed=seed,
    )

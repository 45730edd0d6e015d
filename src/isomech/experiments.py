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

Every driver is a pure function of (config, seed).  The Monte-Carlo
drivers run on the core in ``mechanism`` that the truthfulness sweep also
uses: fixed-size chunks of trials on RNG substreams spawned from the seed
(identical results serially or on a thread pool), its one sampler
``sample_scores`` and its ``_mean_se``.
"""

from __future__ import annotations

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
from .isotonic import pava_descending, project_descending_batch
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
    "ReviewRecord",
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
        if n < 2:
            raise ValidationError("linear ramp needs n >= 2")
        ramp = self.hi - (self.hi - self.lo) * np.arange(n) / (n - 1)
        return np.broadcast_to(ramp, (count, n))


@dataclass(frozen=True)
class PoolResample:
    """True scores drawn with replacement from a fixed pool, per trial."""

    pool: tuple[float, ...]

    def draw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        if not self.pool:
            raise ValidationError("score pool must be nonempty")
        return rng.choice(np.asarray(self.pool, dtype=float), size=(count, n), replace=True)


@dataclass(frozen=True)
class ExplicitScores:
    """A fixed, explicitly given true-score vector."""

    values: tuple[float, ...]

    def draw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        if len(self.values) != n:
            raise ValidationError(f"explicit scores have length {len(self.values)}, not {n}")
        return np.broadcast_to(np.asarray(self.values, dtype=float), (count, n))


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
    """Per-trial squared errors / n for adjusted and raw scores (truthful ranking)."""

    def one_chunk(count, rng):
        mu = np.asarray(generator.draw(count, n, rng), dtype=float)
        family.check_mean_hull(mu, "true score")
        x = sample_scores(family, mu, scores_per_item, rng)
        order = np.argsort(-mu, axis=1, kind="stable")
        mu_sorted = np.take_along_axis(mu, order, axis=1)
        x_sorted = np.take_along_axis(x, order, axis=1)
        fitted = project_descending_batch(x_sorted)
        mse_im = np.square(fitted - mu_sorted).sum(axis=1) / n
        mse_raw = np.square(x_sorted - mu_sorted).sum(axis=1) / n
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
class ReviewRecord:
    submission_id: str
    score: float
    confidence: int


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


def _mean(values: list[float]) -> float:
    """Mean of a list, rounded exactly as ``np.mean`` rounds it.

    numpy sums fewer than 8 values left to right from 0.0, which a plain
    loop repeats at a fraction of ``np.mean``'s call cost; longer lists go
    to numpy, whose pairwise sum rounds differently.  Builtin ``sum`` is
    not used: from Python 3.12 it compensates, so it rounds differently.
    """
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def surrogate_eval(
    reviews: Iterable[ReviewRecord],
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
    Non-finite review scores and authors without submissions raise
    ``ValidationError``.
    """
    rng = np.random.default_rng(seed)
    by_submission: dict[str, list[ReviewRecord]] = defaultdict(list)
    scores = []
    for record in reviews:
        by_submission[record.submission_id].append(record)
        scores.append(record.score)
    if not all(map(math.isfinite, scores)):
        raise ValidationError("review scores must be finite (no NaN/inf)")

    surrogate: dict[str, tuple[float, float]] = {}
    tie_breaks: dict[str, int] = {}
    skipped_submissions = 0
    for sid in sorted(by_submission):
        recs = by_submission[sid]
        if len(recs) < 2:
            skipped_submissions += 1
            continue
        confidences = [r.confidence for r in recs]
        low = min(confidences)
        if confidences.count(low) == 1:
            pick = confidences.index(low)
        else:
            pick = int(rng.choice([i for i, c in enumerate(confidences) if c == low]))
            tie_breaks[sid] = pick
        rest = [r.score for r in recs]
        held_out = rest.pop(pick)
        surrogate[sid] = (_mean(rest), float(held_out))
    if skipped_submissions:
        logger.info("dropped %d submissions with fewer than 2 reviews", skipped_submissions)

    per_author: dict[int, list[tuple[float, float]]] = defaultdict(list)
    skipped_authors: dict[str, int] = defaultdict(int)
    for author in authors:
        n = len(author.submission_ids)
        if sorted(author.ranking) != list(range(1, n + 1)):
            skipped_authors["malformed_ranking"] += 1
            logger.info("author %s skipped: ranking is not a permutation", author.author_id)
            continue
        pairs = [surrogate.get(sid) for sid in author.submission_ids]
        if None in pairs:
            skipped_authors["missing_submission"] += 1
            logger.info("author %s skipped: submission without usable reviews", author.author_id)
            continue
        if not n:
            raise ValidationError(f"author {author.author_id} lists no submissions")
        order = [0] * n  # submission indices, claimed best first
        for j, pos in enumerate(author.ranking):
            order[pos - 1] = j
        _, pools = pava_descending([pairs[j][1] for j in order])
        adjusted = [0.0] * n
        for start, stop, value in pools:
            for j in order[start:stop]:
                adjusted[j] = value
        mse_raw = _mean([(x - m) * (x - m) for m, x in pairs])
        mse_im = _mean([(a - m) * (a - m) for a, (m, _) in zip(adjusted, pairs)])
        per_author[n].append((mse_raw, mse_im))

    rows = []
    if per_author:
        for n in range(min(per_author), max(per_author) + 1):
            entries = per_author.get(n, [])
            if not entries:
                rows.append(SurrogateRow(n=n, authors=0, mse_raw=None, mse_im=None, improvement=None))
                continue
            raws = float(np.mean([e[0] for e in entries]))
            ims = float(np.mean([e[1] for e in entries]))
            improvement = (raws - ims) / raws if raws > 0 else 0.0
            rows.append(
                SurrogateRow(n=n, authors=len(entries), mse_raw=raws, mse_im=ims, improvement=improvement)
            )
    return SurrogateReport(
        rows=tuple(rows),
        skipped_submissions=skipped_submissions,
        skipped_authors=dict(skipped_authors),
        tie_breaks=tie_breaks,
        seed=seed,
    )

"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the library's own algorithms: the
projection oracle enumerates pooling patterns, KL oracles integrate or sum
densities, and derivatives come from finite differences.  The one exception
is ``reference_surrogate_eval``, a per-record restatement of the review
table's bookkeeping that is compared for exact equality, so it fits with the
library's own projection.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np
from scipy.integrate import quad

from isomech import Binomial, Gamma, Gaussian, Poisson, Ranking, isotonic_mechanism
from isomech.experiments import SurrogateReport, SurrogateRow


def compositions(n: int):
    """All contiguous block patterns of 1..n as tuples of block lengths."""
    for cuts in itertools.product((0, 1), repeat=n - 1):
        sizes = []
        run = 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        yield tuple(sizes)


def brute_force_project_descending(x) -> np.ndarray:
    """Exhaustive projection onto the descending cone (n <= ~12).

    Enumerates every contiguous pooling pattern, keeps the feasible
    candidates (nonincreasing block means), and returns the closest.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 1:
        return x.copy()
    best, best_dist = None, np.inf
    for sizes in compositions(n):
        vals = []
        pos = 0
        for size in sizes:
            vals.append(x[pos : pos + size].mean())
            pos += size
        if any(vals[i] < vals[i + 1] - 1e-12 for i in range(len(vals) - 1)):
            continue
        candidate = np.repeat(vals, sizes)
        dist = float(np.sum((candidate - x) ** 2))
        if dist < best_dist:
            best, best_dist = candidate, dist
    return best


def pattern_tensor(n: int) -> np.ndarray:
    """(patterns, n, n) stack of averaging matrices, one per pooling pattern."""
    mats = []
    for sizes in compositions(n):
        mat = np.zeros((n, n))
        pos = 0
        for size in sizes:
            mat[pos : pos + size, pos : pos + size] = 1.0 / size
            pos += size
        mats.append(mat)
    return np.stack(mats)


def batch_oracle_project(xs: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Vectorized pooling-pattern oracle over rows of ``xs``."""
    candidates = np.einsum("pij,tj->tpi", tensor, xs)
    feasible = np.all(np.diff(candidates, axis=2) <= 1e-12, axis=2)
    dists = np.sum((candidates - xs[:, None, :]) ** 2, axis=2)
    dists = np.where(feasible, dists, np.inf)
    pick = np.argmin(dists, axis=1)
    return candidates[np.arange(xs.shape[0]), pick]


def finite_difference_mean_slope(family, theta: float, h: float = 1e-5) -> float:
    """Central finite difference of b' = numerical b''."""
    return (family.mean(theta + h) - family.mean(theta - h)) / (2 * h)


def kl_oracle(family, theta1: float, theta2: float) -> float:
    """KL divergence by quadrature (continuous) or support sum (discrete)."""
    if isinstance(family, Binomial):
        xs = np.arange(family.trials + 1)
        lp1 = family.log_density(theta1, xs)
        lp2 = family.log_density(theta2, xs)
        return float(np.sum(np.exp(lp1) * (lp1 - lp2)))
    if isinstance(family, Poisson):
        lam = math.exp(theta1)
        cutoff = max(200, int(lam + 40 * math.sqrt(lam + 1) + 50))
        xs = np.arange(cutoff + 1)
        lp1 = family.log_density(theta1, xs)
        lp2 = family.log_density(theta2, xs)
        return float(np.sum(np.exp(lp1) * (lp1 - lp2)))
    if isinstance(family, Gaussian):
        mu = family.mean(theta1)
        sd = math.sqrt(family.variance_param)

        def integrand(x):
            lp1 = family.log_density(theta1, x)
            return math.exp(lp1) * (lp1 - family.log_density(theta2, x))

        val, _ = quad(integrand, mu - 14 * sd, mu + 14 * sd, limit=200)
        return float(val)
    if isinstance(family, Gamma):

        def integrand(x):
            lp1 = family.log_density(theta1, x)
            return math.exp(lp1) * (lp1 - family.log_density(theta2, x))

        val, _ = quad(integrand, 0.0, np.inf, limit=400)
        return float(val)
    raise TypeError(f"no oracle for {family!r}")


def majorizing_pair(rng: np.random.Generator, n: int):
    """(a, b) with a majorizing b: b is a mixture of permutations of a."""
    a = rng.normal(0, 3, size=n)
    weights = rng.dirichlet(np.ones(4))
    b = np.zeros(n)
    for w in weights:
        b += w * rng.permutation(a)
    return a, b


def natural_order_pair(rng: np.random.Generator, n: int):
    """(a, b) with a majorizing b in the natural order (no rearranging)."""
    b = rng.normal(0, 2, size=n)
    surplus = np.concatenate([rng.uniform(0, 1.5, size=n - 1), [0.0]])
    diff = np.diff(np.concatenate([[0.0], surplus]))
    return b + diff, b


ALL_FAMILIES = {
    "gaussian": Gaussian(1.5),
    "binomial": Binomial(10),
    "poisson": Poisson(),
    "gamma": Gamma(2.0),
}

# natural-parameter test windows (interior, family-appropriate)
THETA_WINDOWS = {
    "gaussian": (-3.0, 3.0),
    "binomial": (-2.5, 2.5),
    "poisson": (-1.0, 2.3),
    "gamma": (-4.0, -0.2),
}

# mean-scale windows strictly inside each family's image of b'
MU_WINDOWS = {
    "gaussian": (-8.0, 8.0),
    "binomial": (0.3, 9.7),
    "poisson": (0.2, 12.0),
    "gamma": (0.3, 12.0),
}


def reference_surrogate_eval(table, authors, seed: int = 0) -> SurrogateReport:
    """``experiments.surrogate_eval`` review by review, with numpy arrays and
    ``np.mean`` per submission and per author.  The library's version must
    match it exactly: same rows, tie-breaks and skip counts."""
    rng = np.random.default_rng(seed)
    by_submission = defaultdict(list)
    for sid, score, confidence in zip(
        table.submission_ids, table.scores.tolist(), table.confidences.tolist()
    ):
        by_submission[sid].append((score, confidence))

    surrogate = {}
    tie_breaks = {}
    skipped_submissions = 0
    for sid in sorted(by_submission):
        recs = by_submission[sid]
        if len(recs) < 2:
            skipped_submissions += 1
            continue
        confidences = np.asarray([confidence for _, confidence in recs])
        least = np.flatnonzero(confidences == confidences.min())
        pick = int(least[0]) if least.size == 1 else int(rng.choice(least))
        if least.size > 1:
            tie_breaks[sid] = pick
        held_out = recs[pick][0]
        rest = [score for i, (score, _) in enumerate(recs) if i != pick]
        surrogate[sid] = (float(np.mean(rest)), float(held_out))

    per_author = defaultdict(list)
    skipped_authors = defaultdict(int)
    for author in authors:
        n = len(author.submission_ids)
        if sorted(author.ranking) != list(range(1, n + 1)):
            skipped_authors["malformed_ranking"] += 1
            continue
        if any(sid not in surrogate for sid in author.submission_ids):
            skipped_authors["missing_submission"] += 1
            continue
        mu_tilde = np.asarray([surrogate[sid][0] for sid in author.submission_ids])
        x_tilde = np.asarray([surrogate[sid][1] for sid in author.submission_ids])
        perm = [0] * n
        for j, pos in enumerate(author.ranking):
            perm[pos - 1] = j + 1
        fit = isotonic_mechanism(x_tilde, Ranking(perm))
        mse_raw = float(np.mean(np.square(x_tilde - mu_tilde)))
        mse_im = float(np.mean(np.square(fit.mu_hat - mu_tilde)))
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

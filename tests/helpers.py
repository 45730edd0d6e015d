"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the library's own algorithms: the
projection oracle enumerates pooling patterns, the KL oracle integrates or
sums scipy.stats densities, and derivatives come from finite differences.
The one exception is ``reference_surrogate_eval``, a per-record restatement
of the review table's bookkeeping that is compared for exact equality, so it
fits with the library's own projection; ``author_tables`` builds its
per-record authors together with the library's author table.
``reference_csv_table`` is the CLI's former row-by-row table writer, which
``cli._write_table`` must match byte for byte.  ``reference_lower_bound`` is
the lower-bound construction as it was built elementwise over every
(codeword, coordinate) pair and checked with full size x size Gram matrices;
the gathered construction and the verifier must match it exactly.
``pairwise_minima`` compares every pair of a code's rows directly, the
exhaustive check the verifier's span weights must agree with.
``projection_certificate`` checks a descending fit by the optimality
conditions of the projection, not by a second fit.
``all_rankings`` and ``all_coarse_rankings`` list the full and coarse claims
that the truthfulness tests compare.  ``binomial_pmf``, ``sum_pmf`` and
``chi_square_p`` are the goodness-of-fit oracle for the samplers;
``binomial_rows_by_inversion`` is whole-array inversion from one uniform
draw, which the blocked Binomial sampler must equal bit for bit.
``traced_peak`` measures what a call allocates, by ``tracemalloc``, after
a warm-up call.
``reference_pava_two_stacks`` is the former single-vector PAVA loop, which
divides both pools' sums at every merge test; ``pava_descending`` must equal
it bit for bit.  ``reference_fit_from_table`` is the former per-ranking
max-min fit from a subset-mean table, and ``reference_sweep`` the former
all-rankings sweep built on it; ``rank_all_utilities`` must equal it bit for
bit.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import tracemalloc
from collections import defaultdict
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy import stats
from scipy.stats import chisquare

from isomech import (
    Binomial,
    CoarseRanking,
    Gamma,
    Gaussian,
    Poisson,
    Ranking,
    isotonic_mechanism,
)
from isomech.experiments import AuthorTable, SurrogateReport, SurrogateRow
from isomech.expfam import verify_variance_assumption
from isomech.mechanism import _SWEEP_CHUNK, _Moments, _subset_means, simulate_scores


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


def all_coarse_rankings(n: int, sizes):
    """Every ordered partition of {1..n} into blocks of the given sizes."""
    assert sum(sizes) == n, "block sizes must sum to n"

    def rec(remaining: frozenset[int], level: int):
        if level == len(sizes):
            yield ()
            return
        for combo in itertools.combinations(sorted(remaining), sizes[level]):
            for rest in rec(remaining - set(combo), level + 1):
                yield (combo,) + rest

    return [CoarseRanking(blocks) for blocks in rec(frozenset(range(1, n + 1)), 0)]


def all_rankings(n: int):
    """Every full ranking of {1..n}, in the lexicographic order of
    ``itertools.permutations``."""
    return [Ranking(perm) for perm in itertools.permutations(range(1, n + 1))]


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


def reference_pava_two_stacks(y) -> np.ndarray:
    """Descending PAVA on two stacks, pooled (sum, length): each merge test
    divides the left pool's sum and the new pool's sum by their lengths."""
    sums: list[float] = []
    lens: list[int] = []
    for s in np.asarray(y, dtype=float).tolist():
        ln = 1
        while sums and sums[-1] / lens[-1] < s / ln:
            s += sums.pop()
            ln += lens.pop()
        sums.append(s)
        lens.append(ln)
    return np.repeat(np.array(sums) / np.array(lens), lens)


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
    """KL divergence by quadrature (continuous) or support sum (discrete) of
    scipy.stats laws.  Each law is built here from the textbook map from theta
    to its usual parameters, so no family method is called: p = 1/(1+e^-theta)
    for Binomial(m, p), lambda = e^theta for Poisson, loc = v theta and scale
    sqrt(v) for a Gaussian of variance v, and shape m with scale -1/theta for a
    Gamma of shape m.  Both laws' log densities come from one call per node."""
    thetas = np.array([theta1, theta2], dtype=float)
    if isinstance(family, Binomial):
        xs = np.arange(family.trials + 1)[:, None]
        lp1, lp2 = stats.binom.logpmf(xs, family.trials, 1.0 / (1.0 + np.exp(-thetas))).T
        return float(np.sum(np.exp(lp1) * (lp1 - lp2)))
    if isinstance(family, Poisson):
        lam = math.exp(theta1)
        cutoff = max(200, int(lam + 40 * math.sqrt(lam + 1) + 50))
        xs = np.arange(cutoff + 1)[:, None]
        lp1, lp2 = stats.poisson.logpmf(xs, np.exp(thetas)).T
        return float(np.sum(np.exp(lp1) * (lp1 - lp2)))
    if isinstance(family, Gaussian):
        v = family.variance_param
        loc, sd = v * thetas, math.sqrt(v)

        def integrand(x):
            lp1, lp2 = stats.norm.logpdf(x, loc=loc, scale=sd)
            return math.exp(lp1) * (lp1 - lp2)

        val, _ = quad(integrand, loc[0] - 14 * sd, loc[0] + 14 * sd, limit=200)
        return float(val)
    if isinstance(family, Gamma):
        scale = -1.0 / thetas

        def integrand(x):
            lp1, lp2 = stats.gamma.logpdf(x, family.shape, scale=scale)
            return math.exp(lp1) * (lp1 - lp2)

        val, _ = quad(integrand, 0.0, np.inf, limit=400)
        return float(val)
    raise TypeError(f"no oracle for {family!r}")


def binomial_pmf(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) pmf on 0, ..., m from the binomial coefficients."""
    return np.array([math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(m + 1)])


def sum_pmf(pmf: np.ndarray, reps: int) -> np.ndarray:
    """pmf of the sum of ``reps`` iid draws on 0, 1, ..., by repeated convolution."""
    out = np.ones(1)
    for _ in range(reps):
        out = np.convolve(out, pmf)
    return out


def binomial_rows_by_inversion(m: int, reps: int, mu, rng: np.random.Generator,
                               trials: int) -> np.ndarray:
    """(trials, n) averages of ``reps`` Binomial(m) draws at the means ``mu``,
    all from one ``rng.random((trials, n))`` call: a draw counts the values
    F(0), ..., F(N - 1) of its item's CDF, N = reps * m, that its uniform
    clears.  The CDF is the running sum of the convolved pmf."""
    cdf = np.stack([np.cumsum(sum_pmf(binomial_pmf(m, q / m), reps))[: m * reps] for q in mu])
    u = rng.random((trials, len(mu)))
    return (u[:, :, None] >= cdf).sum(axis=2) / reps


def sampled_rows(family, mu, rng, trials: int, reps: int = 1) -> np.ndarray:
    """The (trials, n) rows of one ``family.row_sampler(mu, reps)`` draw on
    ``rng``, its blocks written in turn into one C-contiguous float64 array;
    the blocks must cover exactly ``trials`` rows."""
    out = np.empty((trials, np.size(mu)))
    lo = 0
    for block in family.row_sampler(mu, reps)(rng, trials):
        out[lo : lo + len(block)] = block
        lo += len(block)
    assert lo == trials
    return out


def reference_fit_from_table(table: np.ndarray, perm, fit: np.ndarray,
                             run: np.ndarray) -> np.ndarray:
    """Descending fit (n, t) of ranking ``perm`` from a ``_subset_means``
    table by the max-min formula, one ranking per call: for each start j,
    the running max over the segments j..k, folded into ``fit`` by min."""
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


def reference_sweep(family, mu_star, utility, scores_per_item: int, trials: int, seed: int):
    """{perm: (mean, std_error)} of every ranking, by the former sweep: each
    chunk's table, each ranking's fit by ``reference_fit_from_table``."""
    n = len(mu_star)
    scores = simulate_scores(family, mu_star, scores_per_item, trials, seed)
    perms = list(itertools.permutations(range(1, n + 1)))
    moments = _Moments(len(perms))
    chunk_mean, chunk_m2 = np.empty(len(perms)), np.empty(len(perms))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, trials, _SWEEP_CHUNK):
            chunk = scores[lo : lo + _SWEEP_CHUNK]
            t = chunk.shape[0]
            gains = _subset_means(chunk, np.empty((1 << n, t)))
            gains[...] = utility(gains)
            for r, perm in enumerate(perms):
                fit = reference_fit_from_table(gains, perm, np.empty((n, t)), np.empty(t))
                u = fit.sum(axis=0)
                chunk_mean[r] = u.sum() / t
                u -= chunk_mean[r]
                chunk_m2[r] = u @ u
            moments.add(t, chunk_mean, chunk_m2)
    means, ses = moments.mean_se()
    return {perm: (m, se) for perm, m, se in zip(perms, means, ses)}


def traced_peak(fn, *args, warm_up: bool = True):
    """``fn(*args)`` and the peak bytes ``tracemalloc`` traced while it ran.

    With ``warm_up``, ``fn(*args)`` first runs once untraced, so what a first
    call loads once (an import such as ``scipy.optimize``, numpy's caches)
    is not counted; pass False for a call too slow to make twice.
    """
    if warm_up:
        fn(*args)
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def chi_square_p(counts: np.ndarray, pmf: np.ndarray) -> float:
    """Pearson chi-square p-value of counts on 0, 1, ... against ``pmf``; cells
    expected below 5 are pooled into one, with the mass ``pmf`` leaves out."""
    total = counts.sum()
    expected = total * pmf
    keep = expected >= 5
    observed = np.append(counts[: pmf.size][keep], total - counts[: pmf.size][keep].sum())
    expected = np.append(expected[keep], total - expected[keep].sum())
    return float(chisquare(observed, expected).pvalue)


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


class AuthorRecord(NamedTuple):
    """One author row as ``reference_surrogate_eval`` reads it."""

    author_id: str
    submission_ids: tuple
    ranking: tuple  # ranking[j] = rank of submission j, 1 = best


def author_tables(reviews, rows):
    """Author rows ``(author_id, submission_ids, ranking)`` both as the
    per-record list ``reference_surrogate_eval`` reads and as the library's
    ``AuthorTable`` against ``reviews``, which refuses malformed rows."""
    records = [AuthorRecord(*row) for row in rows]
    table = AuthorTable(reviews, [r.author_id for r in records],
                        [sid for r in records for sid in r.submission_ids],
                        [len(r.submission_ids) for r in records],
                        [rank for r in records for rank in r.ranking],
                        [len(r.ranking) for r in records])
    return records, table


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


def reference_fmt(value) -> str:
    """A table cell as the CLI spells it: NA for None, 12 significant digits
    for a float, ``str`` for anything else."""
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def reference_csv_table(header, rows) -> bytes:
    """The bytes of a CSV table written row by row: every cell through
    ``reference_fmt``, every row through csv.writer."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([reference_fmt(value) for value in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def reference_lower_bound(family, bounds, n: int, c=None, seed: int = 0):
    """The lower-bound construction computed elementwise and verified with
    full Gram matrices.  Returns codewords, mean vectors, KL values and the
    verifier's margins; the memory guard is left out."""
    cert = verify_variance_assumption(family, bounds)
    sigma_sq = cert.sigma_sq
    if c is None:
        c = cert.c_var / 16.0
    v_tilde = cert.width
    k = min(int(math.floor((n * v_tilde**2 / (c**2 * sigma_sq)) ** (1.0 / 3.0))), n)
    gamma = c * math.sqrt(sigma_sq * k / n)
    base, rem = divmod(n, k)
    block_sizes = np.asarray([base] * (k - rem) + [base + 1] * rem, dtype=np.int64)
    target = max(2, math.ceil(2.0 ** (k / 8.0)))

    # packing: row i sums the generator rows picked by the bits of i
    d = (target - 1).bit_length()
    bits = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(np.uint8)
    for child in np.random.SeedSequence(seed).spawn(100):
        gen = np.random.default_rng(child).integers(0, 2, size=(d, k), dtype=np.uint8)
        code = bits @ gen & 1
        if (code[1:].sum(axis=1).min() >= math.ceil(k / 8.0)
                and (code[1:] @ block_sizes).min() >= math.ceil(n / 8.0)):
            codewords = code[:target]
            break
    else:
        raise AssertionError("reference packing failed")

    block_of = np.repeat(np.arange(k), block_sizes)
    staircase = cert.v_tilde_min + block_of * (v_tilde / k)
    mu_rows = staircase[None, :] + gamma * codewords[:, block_of].astype(float)
    theta_rows = family.natural_param(mu_rows)
    kl_values = np.asarray(
        family.kl_divergence(theta_rows, np.broadcast_to(theta_rows[0], theta_rows.shape)),
        dtype=float,
    ).sum(axis=1)
    kl_bound = gamma**2 * n / (2.0 * cert.c_var**2 * sigma_sq)

    # verifier: pairwise Hamming distances, then block-weighted disagreements
    w = codewords.astype(np.float64)
    ones = w.sum(axis=1)
    m = w @ w.T
    m *= -2.0
    m += ones[:, None]
    m += ones[None, :]
    np.fill_diagonal(m, np.inf)
    min_dh = float(m.min())
    assert min_dh >= k / 8.0
    lo, hi = cert.v_tilde_min, cert.v_tilde_max
    assert lo - 1e-9 <= mu_rows.min() and mu_rows.max() <= hi + 1e-9
    wn = w * np.asarray(block_sizes, dtype=np.float64)
    sq = wn.sum(axis=1)
    np.matmul(wn, w.T, out=m)
    m *= -2.0
    m += sq[:, None]
    m += sq[None, :]
    m *= gamma**2
    column0 = m[:, 0].copy()
    np.fill_diagonal(m, np.inf)
    min_dist2 = float(m.min())
    floor = (c**2 / 8.0) * cert.sigma_sq * k
    assert min_dist2 >= floor - 1e-9 * max(1.0, floor)
    probe = np.linspace(0, len(codewords) - 1, num=min(len(codewords), 32), dtype=int)
    direct = np.square(mu_rows[probe] - mu_rows[0]).sum(axis=1)
    assert np.allclose(direct, column0[probe], rtol=1e-8, atol=1e-8)
    cap = math.log(len(codewords)) / 8.0
    kl_budget = float(np.max(kl_values))
    assert kl_budget < cap
    assert not np.any(kl_values > kl_bound + 1e-9 * max(1.0, kl_bound))
    margins = {
        "min_hamming": min_dh,
        "min_dist2": min_dist2,
        "dist2_floor": floor,
        "kl_budget": kl_budget,
        "kl_cap": cap,
        "kl_bound": float(kl_bound),
    }
    return codewords, mu_rows, kl_values, margins


def pairwise_minima(codewords, block_sizes) -> tuple[int, int]:
    """The smallest Hamming distance and the smallest block-weighted
    disagreement sum_j block_sizes[j] [a_j != b_j] over every pair of
    distinct rows of ``codewords``, compared bit by bit, one row against the
    rows after it."""
    words = np.asarray(codewords) != 0
    sizes = np.asarray(block_sizes, dtype=np.int64)
    hamming = weighted = math.inf
    for i in range(len(words) - 1):
        diff = words[i + 1 :] != words[i]
        hamming = min(hamming, int(diff.sum(axis=1).min()))
        weighted = min(weighted, int((diff @ sizes).min()))
    return hamming, weighted


def projection_certificate(y, f) -> np.ndarray:
    """Whether each row of ``f`` is the nonincreasing least-squares fit of
    the same row of ``y``, by the optimality conditions (Barlow, Bartholomew,
    Bremner & Brunk 1972; Robertson, Wright & Dykstra 1988, ch. 1): f is
    nonincreasing, every prefix sum S_j of y - f is <= 0, and S_j = 0 at each
    strict drop f_j > f_(j+1) and at j = n.  Prefix sums are compared to 0
    within 64 n eps (max|y| + 1) per row.  Returns one bool per row."""
    y, f = np.atleast_2d(np.asarray(y, dtype=float)), np.atleast_2d(np.asarray(f, dtype=float))
    n = y.shape[-1]
    tol = 64 * n * np.finfo(float).eps * (np.abs(y).max(axis=-1, keepdims=True) + 1)
    prefix = np.cumsum(y - f, axis=-1)
    drop = np.ones(f.shape, dtype=bool)  # j = n closes the last pool
    drop[..., :-1] = f[..., :-1] > f[..., 1:]
    return ((f[..., 1:] <= f[..., :-1]).all(axis=-1)
            & (prefix <= tol).all(axis=-1)
            & ((np.abs(prefix) <= tol) | ~drop).all(axis=-1))

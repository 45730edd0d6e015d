"""Independent oracles for the benchmark's output checks.

Nothing here imports isomech.  Projections come from enumerating pooling
patterns, fits are judged by the optimality conditions of isotonic
regression, and the risk and lower-bound constants come from their closed
forms.  ``self_check`` tests each oracle against hand-computed cases.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BINOMIAL_M = 10


# ---------------------------------------------------------------------------
# Projection onto the descending cone by exhaustive pooling (n <= 8)
# ---------------------------------------------------------------------------


def compositions(n: int) -> list[tuple[int, ...]]:
    """Every split of 1..n into contiguous blocks, as tuples of block lengths."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes, run = [], 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        out.append(tuple(sizes))
    return out


def pattern_matrices(n: int) -> np.ndarray:
    """(2^(n-1), n, n) stack of block-averaging matrices, one per pooling pattern."""
    mats = np.zeros((2 ** (n - 1), n, n))
    for p, sizes in enumerate(compositions(n)):
        pos = 0
        for size in sizes:
            mats[p, pos : pos + size, pos : pos + size] = 1.0 / size
            pos += size
    return mats


def brute_force_project(rows) -> np.ndarray:
    """Row-wise projection of a (t, n) array onto x1 >= ... >= xn, n <= 8.

    The projection pools contiguous blocks to their means, so it is the
    nearest of the nonincreasing candidates among all 2^(n-1) pooling
    patterns.
    """
    x = np.asarray(rows, dtype=float)
    t, n = x.shape
    if n == 1:
        return x.copy()
    if n > 8:
        raise ValueError("brute-force projection is limited to n <= 8")
    mats = pattern_matrices(n)
    cand = (x @ mats.reshape(-1, n).T).reshape(t, mats.shape[0], n)
    feasible = np.all(np.diff(cand, axis=2) <= 1e-12, axis=2)
    dist = np.where(feasible, np.square(cand - x[:, None, :]).sum(axis=2), np.inf)
    return cand[np.arange(t), np.argmin(dist, axis=1)]


# ---------------------------------------------------------------------------
# Optimality conditions of the descending isotonic fit
# ---------------------------------------------------------------------------


def isotonic_violations(x, fit, rtol: float = 1e-9) -> list[str]:
    """Problems with ``fit`` as the descending projection of ``x`` (both in
    constraint order, best first); an empty list means optimal.

    The conditions are: the fit is nonincreasing; each pool (maximal run of
    equal fitted values) equals the mean of its scores; and inside each pool
    every prefix sum of the residual x - fit is <= 0 (no prefix could split
    off with a larger mean).  Tolerances scale with |x| and the pool length,
    so values printed at 12 significant digits pass.
    """
    x = np.asarray(x, dtype=float)
    fit = np.asarray(fit, dtype=float)
    if x.shape != fit.shape or x.ndim != 1 or x.size == 0:
        return [f"shape mismatch: scores {x.shape}, fit {fit.shape}"]
    scale = max(1.0, float(np.max(np.abs(x))))
    tol = rtol * scale
    problems = []
    rises = np.flatnonzero(np.diff(fit) > tol)
    if rises.size:
        i = int(rises[0])
        problems.append(f"fit rises at position {i + 1}: {fit[i]} -> {fit[i + 1]}")
    starts = np.flatnonzero(np.r_[True, fit[1:] != fit[:-1]])
    lengths = np.diff(np.r_[starts, x.size])
    means = np.add.reduceat(x, starts) / lengths
    off = np.abs(means - fit[starts]) > tol * lengths
    if np.any(off):
        j = int(np.flatnonzero(off)[0])
        problems.append(
            f"pool at position {starts[j] + 1} (length {lengths[j]}) has value "
            f"{fit[starts[j]]} but its scores average {means[j]}"
        )
    resid = np.cumsum(x - fit)
    before = np.r_[0.0, resid][starts]
    prefix = resid - np.repeat(before, lengths)
    bad = prefix > tol * np.repeat(lengths, lengths)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        problems.append(f"prefix-sum condition fails at position {i + 1}: {prefix[i]}")
    return problems


# ---------------------------------------------------------------------------
# Closed forms for the minimax workload (Binomial(m) on [0, m])
# ---------------------------------------------------------------------------


def ramp(n: int, lo: float = 0.0, hi: float = float(BINOMIAL_M)) -> np.ndarray:
    """The rate check's true scores: a linear ramp from hi down to lo."""
    return hi - (hi - lo) * np.arange(n) / (n - 1)


def raw_binomial_risk(mu, m: int = BINOMIAL_M, reviews: int = 1) -> float:
    """Total risk of the unadjusted scores: sum of Var(mean of reviews draws)."""
    mu = np.asarray(mu, dtype=float)
    return float(np.sum(mu * (m - mu) / m) / reviews)


def binomial_lower_bound_constants(n: int, c: float, m: int = BINOMIAL_M,
                                   v_min: float = 0.0, v_max: float = float(BINOMIAL_M)) -> dict:
    """Constants of the packing construction for Binomial(m) on [v_min, v_max].

    Closed-form variance certificate: b''(theta) = mu (m - mu) / m, so on
    [m/4, 3m/4] it is at least 0.75 of its peak sigma^2 at mu = m/2.  Then
    k = min(floor((n V~^2 / (c^2 sigma^2))^(1/3)), n), gamma = c sqrt(sigma^2 k / n),
    the packing target is ceil(2^(k/8)), distances must reach (c^2/8) sigma^2 k
    and every KL stays below gamma^2 n / (2 c_var^2 sigma^2).
    """
    lo, hi = max(v_min, m / 4.0), min(v_max, 3.0 * m / 4.0)
    mid = min(max(m / 2.0, v_min), v_max)
    sigma_sq = mid * (m - mid) / m
    c_var = 0.75
    width = hi - lo
    k = min(int(math.floor((n * width**2 / (c**2 * sigma_sq)) ** (1.0 / 3.0))), n)
    base, rem = divmod(n, k)
    gamma = c * math.sqrt(sigma_sq * k / n)
    return {
        "k": k,
        "target": max(2, math.ceil(2.0 ** (k / 8.0))),
        "gamma": gamma,
        "block_sizes": sorted({base, base + 1} if rem else {base}),
        "dist2_floor": (c**2 / 8.0) * sigma_sq * k,
        "kl_bound": gamma**2 * n / (2.0 * c_var**2 * sigma_sq),
        "sigma_sq": sigma_sq,
    }


# ---------------------------------------------------------------------------
# Self-check against hand-computed cases
# ---------------------------------------------------------------------------


def self_check() -> list[str]:
    """Run every oracle on cases worked out by hand; returns the failures."""
    failures = []

    def expect(label, ok):
        if not ok:
            failures.append(label)

    expect("compositions(3)", sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)])
    expect("pattern count n=5", pattern_matrices(5).shape == (16, 5, 5))
    cases = [
        ([2.0, 3.0, 1.0], [2.5, 2.5, 1.0]),
        ([9.0, 7.0, 4.0], [9.0, 7.0, 4.0]),
        ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]),
        ([3.0, 1.0, 2.0, 0.0], [3.0, 1.5, 1.5, 0.0]),
        ([0.0, 4.0, 4.0, -1.0, 5.0], [8 / 3, 8 / 3, 8 / 3, 2.0, 2.0]),
    ]
    for x, want in cases:
        got = brute_force_project(np.asarray([x]))[0]
        expect(f"brute_force_project({x})", np.allclose(got, want, atol=1e-12))
        expect(f"optimal fit accepted for {x}", isotonic_violations(x, want) == [])
    expect("n=1 projection is the identity",
           np.array_equal(brute_force_project(np.asarray([[4.0]])), [[4.0]]))
    # monotone, pool means right, but the prefix 3 > 2 could split off
    expect("prefix-sum violation caught", any(
        "prefix" in p for p in isotonic_violations([3.0, 1.0], [2.0, 2.0])))
    expect("rise caught", any(
        "rises" in p for p in isotonic_violations([1.0, 3.0], [1.0, 3.0])))
    expect("wrong pool mean caught", any(
        "average" in p for p in isotonic_violations([2.0, 3.0, 1.0], [2.4, 2.4, 1.0])))

    expect("ramp(3)", np.allclose(ramp(3), [10.0, 5.0, 0.0]))
    # sum mu (10 - mu) / 10 over mu = 10, 5, 0 is 0 + 2.5 + 0
    expect("raw risk of ramp(3)", abs(raw_binomial_risk(ramp(3)) - 2.5) < 1e-12)
    expect("raw risk, 3 reviews", abs(raw_binomial_risk([5.0, 5.0], reviews=3) - 5.0 / 3) < 1e-12)
    expect("raw risk at n=64 is about 105",
           abs(raw_binomial_risk(ramp(64)) - 105.0) < 0.5)
    # n = 512, c = 0.085: 512 * 25 / (0.085^2 * 2.5) = 708650.5..., cube root 89.1...
    lb = binomial_lower_bound_constants(512, 0.085)
    expect("k at n=512, c=0.085", lb["k"] == 89)
    expect("target 2^(89/8) rounded up", lb["target"] == 2234)
    expect("blocks of 5 and 6", lb["block_sizes"] == [5, 6])
    expect("sigma^2 = 2.5", lb["sigma_sq"] == 2.5)
    expect("distance floor", abs(lb["dist2_floor"] - 0.085**2 / 8 * 2.5 * 89) < 1e-15)
    return failures

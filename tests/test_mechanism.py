import itertools
import math
import tracemalloc

import numpy as np
import pytest

from isomech import Binomial, CoarseRanking, Gaussian, Poisson, Ranking, ValidationError
from isomech.errors import InvalidParameterError
from isomech.isotonic import project_descending_batch
from isomech.mechanism import (
    _SWEEP_CHUNK,
    UtilityFn,
    _check_sweep_budget,
    _mean_se,
    _Moments,
    _subset_means,
    _sweep_fits,
    _trial_utilities,
    rank_all_utilities,
    simulate_scores,
    utility_trials,
)
from isomech.order import is_upward_swap

from helpers import (
    all_coarse_rankings,
    all_rankings,
    binomial_pmf,
    brute_force_project_descending,
    chi_square_p,
    projection_certificate,
    reference_sweep,
    sampled_rows,
    sum_pmf,
    traced_peak,
)


def test_utility_kinds_are_nondecreasing_and_convex():
    grid = np.linspace(-4, 6, 201)
    h = grid[1] - grid[0]
    for u in (
        UtilityFn("relu_square"),
        UtilityFn("identity"),
        UtilityFn("exp", 0.4),
        UtilityFn("hinge", 1.5),
    ):
        values = u(grid)
        slopes = np.diff(values) / h
        assert np.all(slopes >= -1e-9)  # nondecreasing
        assert np.all(np.diff(slopes) >= -1e-9)  # convex


def test_utility_parsing_and_validation():
    assert UtilityFn.from_spec("exp:0.5") == UtilityFn("exp", 0.5)
    assert UtilityFn.from_spec("relu_square") == UtilityFn("relu_square")
    with pytest.raises(ValidationError):
        UtilityFn.from_spec("cubic")
    with pytest.raises(InvalidParameterError):
        UtilityFn("exp", -1.0)


def test_zero_variance_proxy_recovers_noiseless_utility():
    mu = [4.0, 3.0, 2.0, 1.0]
    samples = utility_trials(
        Gaussian(1e-12), mu, [Ranking([1, 2, 3, 4])], UtilityFn("relu_square"),
        scores_per_item=3, trials=200, seed=1,
    )
    mean, _ = _mean_se(samples[:, 0])
    assert mean == pytest.approx(sum(v**2 for v in mu), abs=1e-4)


def test_common_random_numbers_are_deterministic():
    args = (Binomial(10), [8, 7, 6, 4], [Ranking([2, 1, 3, 4])], UtilityFn("relu_square"))
    first = utility_trials(*args, trials=2000, seed=42)
    second = utility_trials(*args, trials=2000, seed=42)
    assert first.shape == (2000, 1)
    est1, est2 = _mean_se(first[:, 0]), _mean_se(second[:, 0])
    assert est1 == est2
    assert est1[1] > 0


def test_singleton_blocks_match_full_ranking_exactly():
    perm = Ranking([3, 1, 4, 2])
    args = (Poisson(), [8, 7, 6, 4])
    full = utility_trials(*args, [perm], UtilityFn("relu_square"), trials=3000, seed=9)
    coarse = utility_trials(*args, [CoarseRanking((i,) for i in perm)], UtilityFn("relu_square"),
                            trials=3000, seed=9)
    assert _mean_se(full[:, 0]) == _mean_se(coarse[:, 0])


def test_single_block_is_unconstrained():
    mu = [8.0, 7.0, 6.0, 4.0]
    seed, trials = 5, 4000
    samples = utility_trials(
        Binomial(10), mu, [CoarseRanking([(1, 2, 3, 4)])], UtilityFn("relu_square"),
        trials=trials, seed=seed,
    )
    mean, _ = _mean_se(samples[:, 0])
    scores = simulate_scores(Binomial(10), mu, 3, trials, seed)
    raw_utility = np.square(np.maximum(scores, 0)).sum(axis=1)
    assert mean == pytest.approx(raw_utility.mean(), rel=1e-12)


def test_truthful_beats_alternatives_quick():
    mu = [8.0, 7.0, 6.0, 4.0]
    results = rank_all_utilities(
        Binomial(10), mu, UtilityFn("relu_square"), trials=20_000, seed=3
    )
    assert results[0][0].perm == (1, 2, 3, 4)


def test_upward_swap_improves_utility():
    rng = np.random.default_rng(6)
    mu = [9.0, 6.5, 5.0, 3.0]
    for family in (Binomial(10), Poisson()):
        for _ in range(5):
            nu = Ranking(rng.permutation(4) + 1)
            swaps = [
                p for p in all_rankings(4) if is_upward_swap(p, nu)
            ]
            if not swaps:
                continue
            pi = swaps[int(rng.integers(len(swaps)))]
            samples = utility_trials(
                family, mu, [pi, nu], UtilityFn("relu_square"),
                trials=20_000, seed=int(rng.integers(1 << 30)),
            )
            gap = samples[:, 0] - samples[:, 1]
            se = gap.std(ddof=1) / math.sqrt(gap.size)
            assert gap.mean() >= -3 * se


def test_rank_all_utilities_guards():
    single = rank_all_utilities(
        Poisson(), [4.0], UtilityFn("identity"), trials=100, seed=0
    )
    assert len(single) == 1
    with pytest.raises(ValidationError):
        rank_all_utilities(
            Poisson(), list(range(1, 10)), UtilityFn("identity"), trials=10, seed=0
        )


def test_sample_scores_shapes():
    rng = np.random.default_rng(4)
    shared = sampled_rows(Poisson(), [4.0, 1.0, 0.0], rng, 7, 3)
    assert shared.shape == (7, 3) and shared.flags.c_contiguous
    assert np.all(shared[:, 2] == 0.0)  # a mean of 0 gives 0 in every trial
    own = Poisson().sample_mean(np.full((7, 3), 2.0), rng, reps=3)
    assert own.shape == (7, 3)


def test_items_drawn_in_one_chunk_are_uncorrelated():
    trials = 100_000
    scores = sampled_rows(Binomial(10), [8.0, 5.0, 5.0, 2.0], np.random.default_rng(2430), trials, 3)
    corr = np.corrcoef(scores, rowvar=False)
    off_diagonal = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off_diagonal) < 4.0 / math.sqrt(trials))


def test_support_above_the_inversion_cutoff_falls_back_and_fits_the_pmf():
    reps, mu = 13, np.array([0.05, 4.9, 9.95])
    assert reps * 10 > Binomial._MAX_INVERSION  # drawn by rng.binomial
    scores = sampled_rows(Binomial(10), mu, np.random.default_rng(2431), 4000, reps)
    assert scores.shape == (4000, 3) and scores.flags.c_contiguous
    for item, mean in enumerate(mu):
        pmf = sum_pmf(binomial_pmf(10, mean / 10), reps)
        counts = np.bincount(np.rint(scores[:, item] * reps).astype(int), minlength=pmf.size)
        assert chi_square_p(counts, pmf) > 1e-3


def test_sweep_budget_arithmetic():
    # n! * n^2 table rows per chunk of 4096 trials against 2^23
    _check_sweep_budget(5, 100_000)
    _check_sweep_budget(7, 100_000)
    _check_sweep_budget(8, 12288)
    _check_sweep_budget(8, 1)
    with pytest.raises(ValidationError, match=r"trials <= 12288"):
        _check_sweep_budget(8, 12289)
    for trials in (1, 512, 100_000):
        with pytest.raises(ValidationError, match="n is too large at any trial count"):
            _check_sweep_budget(9, trials)


def test_mu_star_validation():
    with pytest.raises(InvalidParameterError):
        utility_trials(
            Binomial(10), [8, 11], [Ranking([1, 2])], UtilityFn("identity"),
            trials=10, seed=0,
        )


def test_coarse_truthful_best_over_fixed_sizes():
    mu = [8.0, 7.0, 6.0, 4.0]
    coarse_rankings = all_coarse_rankings(4, (1, 3))
    assert len(coarse_rankings) == 4
    samples = utility_trials(
        Binomial(10), mu, coarse_rankings, UtilityFn("relu_square"),
        trials=100_000, seed=11,
    )
    assert samples.shape == (100_000, 4)
    means = samples.mean(axis=0)
    truthful = coarse_rankings.index(CoarseRanking([(1,), (2, 3, 4)]))
    assert means[truthful] == means.max()


def test_rank_all_utilities_holds_no_all_rankings_matrix():
    import scipy.optimize  # noqa: F401  (its import is not the sweep's memory)

    trials, n = 20_000, 5
    tracemalloc.start()
    try:
        results = rank_all_utilities(
            Binomial(10), [8.0, 7.0, 6.0, 5.0, 4.0], UtilityFn("relu_square"),
            trials=trials, seed=1,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == math.factorial(n)
    # the trials x n! float64 matrix of all utilities would take 4x this
    assert peak < 0.25 * trials * math.factorial(n) * 8


def test_overflowing_utility_is_refused():
    with pytest.raises(InvalidParameterError, match="exp:100.*smaller parameter"):
        rank_all_utilities(
            Binomial(10), [8.0, 7.0], UtilityFn("exp", 100.0), trials=50, seed=0
        )


@pytest.mark.filterwarnings("error")
def test_overflowing_utility_is_refused_per_claim():
    with pytest.raises(InvalidParameterError, match="exp:100.*smaller parameter"):
        utility_trials(Binomial(10), [8, 7], [Ranking([1, 2])],
                       UtilityFn("exp", 100.0), trials=50, seed=0)


def _table_fits(rows, ranking):
    """Fit of every row under ``ranking`` by the subset-mean table, (t, n)."""
    t, n = rows.shape
    table = _subset_means(rows, np.empty((1 << n, t)))
    # _sweep_fits visits the rankings in permutations order read back to front
    at = list(itertools.permutations(range(1, n + 1))).index(ranking.perm[::-1])
    return next(itertools.islice(_sweep_fits(table), at, None)).T.copy()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_fits_match_projection_and_oracle(n):
    rng = np.random.default_rng(600 + n)
    rows = np.concatenate([
        rng.normal(5.0, 2.0, size=(12, n)),
        rng.integers(12, 19, size=(12, n)) / 3.0,  # tie-heavy means of three reviews
        np.repeat(rng.integers(0, 31, size=(2, 1)) / 3.0, n, axis=1),  # constant rows
    ])
    # the kernel tests' bound: 1e-12 of the row's span, at least n ulps of its size
    tol = np.maximum(1e-12 * np.ptp(rows, axis=1), n * np.spacing(np.abs(rows).max(axis=1)))
    for ranking in all_rankings(n):
        claimed = rows[:, ranking.as_indices()]
        got = _table_fits(rows, ranking)
        assert np.all(np.diff(got, axis=1) <= 0)
        batch = project_descending_batch(claimed)
        assert np.all(np.abs(got - batch).max(axis=1) <= tol), ranking.perm
        oracle = np.stack([brute_force_project_descending(row) for row in claimed])
        assert np.all(np.abs(got - oracle).max(axis=1) <= tol), ranking.perm


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_sweep_fit_passes_the_projection_certificate(n):
    # 257 trials, most with ties; the k-th fit is that of the ranking read
    # back to front from the k-th permutations tuple, certified against the
    # chunk's scores in that ranking's claimed order
    rng = np.random.default_rng(700 + n)
    rows = np.concatenate([
        rng.integers(12, 19, size=(192, n)) / 3.0,  # means of three reviews
        rng.normal(5.0, 2.0, size=(64, n)),
        np.full((1, n), 4.0),
    ])
    table = _subset_means(rows, np.empty((1 << n, len(rows))))
    perms = itertools.permutations(range(1, n + 1))
    for perm, fit in zip(perms, _sweep_fits(table), strict=True):
        claimed = rows[:, Ranking(perm[::-1]).as_indices()]
        assert projection_certificate(claimed, fit.T).all(), perm


@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 3 * 4096 + 7])
def test_streamed_moments_match_mean_se(trials):
    rng = np.random.default_rng(trials)
    samples = rng.gamma(2.0, 40.0, size=trials) + 100.0
    moments = _Moments(1)
    for lo in range(0, trials, _SWEEP_CHUNK):
        part = samples[lo : lo + _SWEEP_CHUNK]
        centred = part - part.mean()
        moments.add(part.size, np.array([part.mean()]), np.array([centred @ centred]))
    (mean,), (se,) = moments.mean_se()
    want_mean, want_se = _mean_se(samples)
    assert mean == pytest.approx(want_mean, rel=1e-13)
    if trials == 1:
        assert se == want_se == 0.0
    else:
        assert se == pytest.approx(want_se, rel=1e-13)


@pytest.mark.parametrize("family, mu", [
    (Binomial(10), [8.0, 7.0, 6.0]),
    (Poisson(), [5.0, 5.0, 5.0, 5.0]),
])
def test_sweep_matches_projecting_each_ranking(family, mu):
    trials, seed = _SWEEP_CHUNK + 9, 17
    scores = simulate_scores(family, mu, 3, trials, seed)
    results = rank_all_utilities(family, mu, UtilityFn("relu_square"), trials=trials, seed=seed)
    assert len(results) == math.factorial(len(mu))
    for ranking, est in results:
        mean, se = _mean_se(_trial_utilities(scores, ranking, UtilityFn("relu_square")))
        assert est.mean == pytest.approx(mean, rel=1e-13)
        assert est.std_error == pytest.approx(se, rel=1e-12)
        assert (est.trials, est.seed) == (trials, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("spec", ["relu_square", "identity", "exp:0.3", "hinge:5"])
def test_sweep_equals_the_per_ranking_reference_bit_for_bit(n, spec):
    # 4,096 + 17 trials: one full chunk and a partial one
    mu, utility, trials = np.linspace(8.0, 3.0, n), UtilityFn.from_spec(spec), _SWEEP_CHUNK + 17
    want = reference_sweep(Binomial(10), mu, utility, 3, trials, 40 + n)
    results = rank_all_utilities(Binomial(10), mu, utility, trials=trials, seed=40 + n)
    assert sorted(ranking.perm for ranking, _ in results) == sorted(want)
    for ranking, est in results:
        got = np.array([est.mean, est.std_error])
        np.testing.assert_array_equal(got.view(np.int64), np.array(want[ranking.perm]).view(np.int64))


def test_one_chunk_sweep_of_eight_items_stays_near_its_former_peak():
    # the former per-ranking loop peaked at 29.4-30.2 MiB here: two 8 MiB
    # tables (the subset means and their utilities), 40,320 rankings and
    # their estimates
    mu = np.linspace(9.0, 2.0, 8)
    results, peak = traced_peak(rank_all_utilities, Binomial(10), mu, UtilityFn("relu_square"),
                                3, _SWEEP_CHUNK, 8, warm_up=False)
    assert len(results) == math.factorial(8)
    assert peak <= 32 << 20, peak / 2**20


def test_sweep_of_five_items_holds_no_trials_by_n_scores():
    # the 100k x 5 score matrix alone is 3.8 MiB; the parent's sweep peaked at 7.7 MiB
    results, peak = traced_peak(rank_all_utilities, Binomial(10), [8.0, 7.0, 6.0, 5.0, 4.0],
                                UtilityFn("relu_square"), 3, 100_000, 5)
    assert len(results) == 120
    assert peak < 4 << 20, peak / 2**20

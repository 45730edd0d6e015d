import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isomech import (
    Binomial,
    CoarseRanking,
    Gamma,
    Gaussian,
    InvalidParameterError,
    Poisson,
    Ranking,
    ValidationError,
    coarse_to_permutation,
    isotonic_mechanism,
    project_descending,
    ranking_constrained_mle,
)
from isomech import isotonic
from isomech.expfam import _block_rows
from isomech.isotonic import (
    _block_order,
    pava_descending,
    pava_descending_rows,
    project_descending_batch,
)

from helpers import (
    ALL_FAMILIES,
    MU_WINDOWS,
    brute_force_project_descending,
    reference_pava_two_stacks,
    traced_peak,
)


def test_project_examples():
    assert project_descending([3, 2, 1]).mu_hat.tolist() == [3, 2, 1]
    assert project_descending([2, 3, 1]).mu_hat.tolist() == [2.5, 2.5, 1]
    assert project_descending([1, 1, 1]).mu_hat.tolist() == [1, 1, 1]


def test_project_errors():
    with pytest.raises(ValidationError):
        project_descending([])
    with pytest.raises(ValidationError):
        project_descending([1.0, math.nan])
    with pytest.raises(ValidationError):
        project_descending([1.0, math.inf])


def test_pava_refuses_overflowing_pool():
    with pytest.raises(ValidationError, match="too large to pool in float64"):
        pava_descending([1e308, 1.7e308, 1.7e308])
    with pytest.raises(ValidationError, match="must be finite"):
        pava_descending([1.0, math.inf])
    fitted = pava_descending([1.7e308, 1e308, -1.7e308])
    assert fitted.tolist() == [1.7e308, 1e308, -1.7e308]


def test_mechanism_examples():
    assert isotonic_mechanism([1, 2, 3], Ranking([3, 2, 1])).mu_hat.tolist() == [1, 2, 3]
    assert isotonic_mechanism([1, 2, 3], Ranking([1, 2, 3])).mu_hat.tolist() == [2, 2, 2]
    fit = isotonic_mechanism([8, 7, 6, 4], Ranking([1, 2, 3, 4]))
    assert fit.mu_hat.tolist() == [8, 7, 6, 4]


def test_mechanism_length_mismatch():
    with pytest.raises(ValidationError):
        isotonic_mechanism([1, 2, 3], Ranking([1, 2]))


def test_ranking_validation():
    with pytest.raises(ValidationError):
        Ranking([1, 1, 3])
    with pytest.raises(ValidationError):
        Ranking([0, 1])
    with pytest.raises(ValidationError):
        Ranking([2, 3])
    assert Ranking.from_scores([5, 5, 9]).perm == (3, 1, 2)


@pytest.mark.parametrize("n", [3, 300])  # both sides of isotonic._ARRAY_CHECK_N
@pytest.mark.parametrize("spell", [
    tuple, np.array, lambda v: np.array(v, dtype=np.int32), lambda v: (i for i in v),
    lambda v: [str(i) for i in v], lambda v: [float(i) for i in v],
])
def test_rankings_take_any_iterable_that_int_reads(spell, n):
    perm = tuple(range(2, n + 1)) + (1,)
    assert Ranking(spell(perm)).perm == perm
    coarse = CoarseRanking(spell(block) for block in (perm[1:], perm[:1]))
    assert coarse.blocks == (tuple(sorted(perm[1:])), (2,))


@pytest.mark.parametrize("n", [3, 300])
def test_ranking_refusals_keep_their_messages(n):
    assert 3 < isotonic._ARRAY_CHECK_N <= 300
    good = list(range(1, n + 1))
    bad = [good[:-1] + [1], [0] + good[1:], [k + 1 for k in good], [2**70] + good[1:],
           [-2**70] + good[1:]]
    for perm in bad:
        with pytest.raises(ValidationError) as exc:
            Ranking(perm)
        assert str(exc.value) == f"not a permutation of 1..{n}: {tuple(perm)}"
        with pytest.raises(ValidationError) as exc:
            CoarseRanking([perm[1:], perm[:1]])
        blocks = (tuple(sorted(perm[1:])), tuple(perm[:1]))
        assert str(exc.value) == f"blocks do not partition 1..{n}: {blocks}"
    for blocks in ([], [(1,), ()]):
        with pytest.raises(ValidationError) as exc:
            CoarseRanking(blocks)
        assert str(exc.value) == "blocks must be nonempty"


def fit_blocks(x, coarse):
    """The fit ``isomech fit --blocks`` writes."""
    return isotonic_mechanism(x, coarse_to_permutation(coarse, x))


def test_coarse_examples():
    fit = fit_blocks([5, 4, 1], CoarseRanking([(1, 2), (3,)]))
    assert fit.mu_hat.tolist() == [5, 4, 1]
    fit = fit_blocks([1, 3], CoarseRanking([(1,), (2,)]))
    assert fit.mu_hat.tolist() == [2, 2]
    x = [3.0, 9.0, 1.0, 4.0]
    fit = fit_blocks(x, CoarseRanking([(1, 2, 3, 4)]))
    assert fit.mu_hat.tolist() == x


def test_coarse_to_permutation():
    assert coarse_to_permutation(CoarseRanking([(2,), (1,)]), [0.0, 9.0]).perm == (2, 1)
    assert coarse_to_permutation(CoarseRanking([(1, 2, 3)]), [1, 3, 2]).perm == (2, 3, 1)
    assert coarse_to_permutation(CoarseRanking([(1, 2), (3,)]), [5, 5, 0]).perm == (1, 2, 3)


def test_coarse_to_permutation_matches_per_block_sort():
    """The one lexsort against a stable argsort of each block in turn, on
    scores with many ties and signed zeros."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        x = rng.choice([-1.0, -0.0, 0.0, 2.5, 7.0], size=n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 5))),
                                  replace=False))
        coarse = CoarseRanking(np.split(rng.permutation(n) + 1, cuts))
        expected = []
        for block in coarse.blocks:
            items = np.asarray(block)
            expected += items[np.argsort(-x[items - 1], kind="stable")].tolist()
        assert coarse_to_permutation(coarse, x).perm == tuple(expected)
        # a matrix is ordered row by row as each row alone
        rows = np.stack([x, x[::-1], -x])
        assert np.array_equal(_block_order(coarse.blocks, rows),
                              [_block_order(coarse.blocks, row) for row in rows])


def test_coarse_validation():
    with pytest.raises(ValidationError):
        CoarseRanking([(1, 2), (2, 3)])
    with pytest.raises(ValidationError):
        CoarseRanking([(1,), ()])
    with pytest.raises(ValidationError):
        fit_blocks([1, 2, 3], CoarseRanking([(1,), (2,)]))


def test_coarse_tie_rule_does_not_change_fit():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = np.round(rng.normal(0, 1, size=n), 1)  # coarse grid forces ties
        sizes = []
        left = n
        while left:
            take = int(rng.integers(1, left + 1))
            sizes.append(take)
            left -= take
        blocks, pos = [], 0
        items = list(rng.permutation(n) + 1)
        for size in sizes:
            blocks.append(items[pos : pos + size])
            pos += size
        coarse = CoarseRanking(blocks)
        fit = fit_blocks(x, coarse)
        # alternative tie rule: descending index within blocks
        perm = []
        for block in coarse.blocks:
            block = sorted(block, key=lambda i: (-x[i - 1], -i))
            perm.extend(block)
        alt = isotonic_mechanism(x, Ranking(perm))
        assert np.allclose(fit.mu_hat, alt.mu_hat, atol=1e-12)


def test_singleton_blocks_reduce_to_ranking():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=n)
        perm = Ranking(rng.permutation(n) + 1)
        a = fit_blocks(x, CoarseRanking((i,) for i in perm))
        b = isotonic_mechanism(x, perm)
        assert np.array_equal(a.mu_hat, b.mu_hat)


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(200):
            x = rng.normal(0, 2, size=n)
            got = project_descending(x).mu_hat
            want = brute_force_project_descending(x)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_idempotence_exact():
    rng = np.random.default_rng(8)
    # the first three values pool to a mean that rounds below the last -0.2,
    # so a fit that did not pool all four would rise at its end
    cases = [[-0.9, -0.2, 0.5, -0.2]] + [rng.normal(size=int(rng.integers(1, 40))) for _ in range(300)]
    for x in cases:
        once = project_descending(x).mu_hat
        assert np.all(once[1:] <= once[:-1])
        twice = project_descending(once).mu_hat
        assert np.array_equal(once, twice)
    # the lockstep kernel pools the near tie the same way
    assert np.array_equal(pava_descending_rows([cases[0]]), [[-0.2] * 4])


def test_contraction():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        px = project_descending(x).mu_hat
        py = project_descending(y).mu_hat
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_sum_preservation():
    rng = np.random.default_rng(10)
    for _ in range(300):
        x = rng.normal(5, 3, size=int(rng.integers(1, 60)))
        fit = project_descending(x)
        assert fit.mu_hat.sum() == pytest.approx(x.sum(), rel=1e-10)


def test_feasible_input_is_fixed_point():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        perm = Ranking(rng.permutation(n) + 1)
        descending = np.sort(rng.normal(size=n))[::-1]
        x = np.empty(n)
        x[perm.as_indices()] = descending
        fit = isotonic_mechanism(x, perm)
        assert np.array_equal(fit.mu_hat, x)


def test_error_dominance_monte_carlo():
    rng = np.random.default_rng(15)
    mu = np.array([3.0, 2.0, 2.0, 1.0, 0.0, -1.0])
    trials = 10_000
    x = rng.normal(mu, 1.0, size=(trials, mu.size))
    fitted = project_descending_batch(x)
    err_im = np.square(fitted - mu).sum(axis=1)
    err_raw = np.square(x - mu).sum(axis=1)
    # projection onto a cone containing mu contracts trialwise, hence in mean
    assert np.all(err_im <= err_raw + 1e-9)
    gap = err_raw - err_im
    assert gap.mean() >= -3 * gap.std(ddof=1) / math.sqrt(trials)


def test_batch_matches_scalar():
    rng = np.random.default_rng(16)
    for n in [1, 2, 3, 5, 8, 13, 16, 17, 24, 32, 40, 70]:
        rows = rng.normal(size=(60, n))
        batch = project_descending_batch(rows)
        for row, got in zip(rows, batch):
            want = pava_descending(row)
            assert np.allclose(got, want, atol=1e-10), n


def test_mle_examples():
    fit = ranking_constrained_mle(Binomial(10), [4, 6], Ranking([1, 2]))
    assert fit.mu_hat.tolist() == [5, 5]
    assert fit.theta_hat.tolist() == [0, 0]

    g = Gaussian(1.0)
    fit = ranking_constrained_mle(g, [3.0, 1.0, 2.0], Ranking([1, 2, 3]))
    assert np.allclose(fit.theta_hat, fit.mu_hat)


def test_mle_matches_isotonic_mechanism():
    rng = np.random.default_rng(17)
    for name, family in ALL_FAMILIES.items():
        lo, hi = MU_WINDOWS[name]
        for _ in range(150):
            n = int(rng.integers(1, 12))
            x = rng.uniform(lo, hi, size=n)
            perm = Ranking(rng.permutation(n) + 1)
            mle = ranking_constrained_mle(family, x, perm)
            plain = isotonic_mechanism(x, perm)
            assert np.array_equal(mle.mu_hat, plain.mu_hat)
            interior = np.isfinite(mle.theta_hat)
            assert np.allclose(
                family.mean(mle.theta_hat[interior]), mle.mu_hat[interior], atol=1e-9
            )


def test_mle_boundary_sentinels():
    fit = ranking_constrained_mle(Binomial(10), [0.0, 0.0], Ranking([1, 2]))
    assert fit.mu_hat.tolist() == [0, 0]
    assert fit.theta_hat.tolist() == [-math.inf, -math.inf]
    fit = ranking_constrained_mle(Poisson(), [0.0, 2.0], Ranking([1, 2]))
    assert fit.mu_hat.tolist() == [1, 1]
    assert np.all(np.isfinite(fit.theta_hat))


def test_mle_keeps_boundary_sentinels_in_every_family():
    cases = [
        (Binomial(10), [10.0, 10.0, 3.0], [math.inf, math.inf]),
        (Binomial(10), [2.0, 0.0, 0.0], [-math.inf, -math.inf]),
        (Poisson(), [3.0, 0.0, 0.0], [-math.inf, -math.inf]),
        (Gamma(2.0), [3.0, 0.0, 0.0], [-math.inf, -math.inf]),
    ]
    for family, x, tail in cases:
        ranking = Ranking([1, 2, 3])
        fit = ranking_constrained_mle(family, x, ranking)
        assert np.array_equal(fit.mu_hat, isotonic_mechanism(x, ranking).mu_hat)
        boundary = [t for t in fit.theta_hat.tolist() if math.isinf(t)]
        assert boundary == tail, (family, fit.theta_hat)
    # Gaussian means have no boundary: theta stays finite
    fit = ranking_constrained_mle(Gaussian(2.0), [1.0, 3.0, -5.0], Ranking([1, 2, 3]))
    assert np.array_equal(fit.theta_hat, fit.mu_hat / 2.0)


def test_mle_rejects_values_outside_hull():
    with pytest.raises(InvalidParameterError):
        ranking_constrained_mle(Binomial(10), [4, 11], Ranking([1, 2]))
    with pytest.raises(InvalidParameterError):
        ranking_constrained_mle(Gamma(2.0), [-1.0, 2.0], Ranking([1, 2]))


# ---------------------------------------------------------------------------
# project_descending_batch against the per-row PAVA reference
# ---------------------------------------------------------------------------


def batch_tolerance(rows):
    """Per-row bound on the batch kernel's distance from ``pava_descending``.

    The reference accumulates running sums, so it rounds at about n ulps of
    the row's magnitude; scipy's PAVA, which fits the long rows, sums its
    pools in another order.
    """
    span = np.ptp(rows, axis=1)
    ulp = np.spacing(np.abs(rows).max(axis=1))
    return np.maximum(1e-12 * span, rows.shape[1] * ulp)


def assert_matches_reference(rows, got):
    want = np.stack([pava_descending(row) for row in rows])
    if rows.shape[1] < isotonic._LOCKSTEP_N:  # the lockstep route
        assert np.array_equal(got, want)
    assert np.all(got[:, 1:] <= got[:, :-1])
    err = np.abs(got - want).max(axis=1)
    assert np.all(err <= batch_tolerance(rows)), (err, batch_tolerance(rows))


# row lengths on both routes of project_descending_batch
MAX_N = 2 * isotonic._LOCKSTEP_N


@st.composite
def mixed_batches(draw, max_rows=24, max_n=MAX_N):
    """Batches whose rows mix spans from 1e-6 to 1e6 and offsets up to 1e8."""
    t = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_n))
    unit = draw(arrays(np.float64, (t, n), elements=st.floats(-1.0, 1.0)))
    span = 10.0 ** draw(arrays(np.int64, (t, 1), elements=st.integers(-6, 6)))
    offset = draw(arrays(np.float64, (t, 1), elements=st.floats(-1e8, 1e8)))
    return unit * span + offset


@st.composite
def tied_feasible_batches(draw, max_rows=24, max_n=MAX_N):
    """Nonincreasing rows with many ties, some of them constant."""
    t = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_n))
    levels = draw(arrays(np.int64, (t, n), elements=st.integers(-4, 4)))
    scale = draw(st.sampled_from([1.0, 0.1, 1e6]))
    rows = -np.sort(-levels, axis=1) * scale
    constant = draw(arrays(np.bool_, (t,)))
    rows[constant] = rows[constant, :1]
    return rows


@given(mixed_batches())
@settings(max_examples=200, deadline=None)
def test_batch_rows_match_reference(rows):
    assert_matches_reference(rows, project_descending_batch(rows))


@given(tied_feasible_batches(), mixed_batches())
@settings(max_examples=100, deadline=None)
def test_batch_returns_tied_and_constant_rows_exactly(feasible, noise):
    assert np.array_equal(project_descending_batch(feasible), feasible)
    # a constant row comes back unchanged whatever rows surround it
    rows = noise.copy()
    rows[::2] = rows[::2, :1]
    assert np.array_equal(project_descending_batch(rows)[::2], rows[::2])


@given(mixed_batches())
@settings(max_examples=200, deadline=None)
def test_batch_is_exactly_idempotent(rows):
    once = project_descending_batch(rows)
    assert np.array_equal(project_descending_batch(once), once)


@given(mixed_batches(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_batch_permuting_rows_permutes_output(rows, rnd):
    perm = np.asarray(rnd.sample(range(rows.shape[0]), rows.shape[0]))
    got = project_descending_batch(rows[perm])
    want = project_descending_batch(rows)[perm]
    assert np.all(np.abs(got - want).max(axis=1) <= batch_tolerance(rows[perm]))


@given(
    mixed_batches(),
    st.floats(1e-3, 1e3),
    st.floats(-1e6, 1e6),
)
@settings(max_examples=100, deadline=None)
def test_batch_shift_and_scale_equivariance(rows, scale, shift):
    moved = rows * scale + shift
    got = project_descending_batch(moved)
    want = project_descending_batch(rows) * scale + shift
    # rounding of the transformed input itself adds a few ulps of its magnitude
    tol = batch_tolerance(moved) + 4 * np.spacing(np.abs(moved).max(axis=1))
    assert np.all(np.abs(got - want).max(axis=1) <= tol)


def test_batch_crosses_chunk_boundary():
    rng = np.random.default_rng(18)
    rows = rng.normal(size=(1100, 9)) * 10.0 ** rng.integers(-6, 7, size=(1100, 1))
    rows[511:514] = rows[0]  # three copies of row 0 deep in the batch
    got = project_descending_batch(rows)
    assert_matches_reference(rows, got)
    assert np.array_equal(got[511], got[512]) and np.array_equal(got[512], got[513])


def test_block_rows_follow_the_element_budget():
    # 2^16 // n rows, and never fewer than one
    assert [_block_rows(n) for n in (1, 128, 129, 3000, 4096, 1 << 16, 1 << 20)] == [
        65536, 512, 508, 21, 16, 1, 1]


def test_batch_crosses_block_boundary_on_long_rows():
    rng = np.random.default_rng(19)
    rows = rng.normal(size=(70, 3000)) * 10.0 ** rng.integers(-6, 7, size=(70, 1))
    step = _block_rows(3000)
    assert step < 70 and 70 % step  # several blocks and a partial last one
    rows[step - 1 : step + 2] = rows[0]  # the same row on both sides of a block boundary
    got = project_descending_batch(rows)
    assert_matches_reference(rows, got)
    assert np.array_equal(got[step - 1], got[step]) and np.array_equal(got[step], got[step + 1])
    assert np.array_equal(project_descending_batch(got), got)


def test_batch_holds_no_full_size_temporary():
    rows = np.random.default_rng(20).binomial(10, np.linspace(1.0, 0.0, 4096), (500, 4096)) / 1.0
    got, peak = traced_peak(project_descending_batch, rows)
    assert peak <= got.nbytes + (8 << 20), peak - got.nbytes


def test_batch_rejects_non_finite():
    rows = np.zeros((3, 4))
    for bad in (math.nan, math.inf, -math.inf):
        rows[1, 2] = bad
        with pytest.raises(ValidationError):
            project_descending_batch(rows)
    with pytest.raises(ValidationError):
        project_descending_batch(np.full((2, 1), math.nan))


def test_batch_refuses_finite_rows_that_overflow():
    # a row whose max - min overflows but whose pooled sums do not is fitted
    # on both routes: [-a, a] pools to 0, and a nonincreasing row is kept
    long = isotonic._LOCKSTEP_N
    for row in ([-1.7e308, 1.7e308, 0.0], [1.7e308, 1e308, -1.7e308],
                [-1.7e308, 1.7e308] + [0.0] * long, [1.7e308] * long + [-1.7e308] * long):
        got = project_descending_batch(np.array([row]))
        assert np.array_equal(got[0], pava_descending(row))
    # a pooled sum that overflows is refused on both routes
    for n in (4, long):
        rows = np.zeros((600, n))
        rows[513, 1:] = 1e308
        with pytest.raises(ValidationError, match="too large to pool in float64: a pooled sum overflows"):
            project_descending_batch(rows)
        with pytest.raises(ValidationError, match="too large to pool in float64"):
            pava_descending(rows[513])


@st.composite
def single_vectors(draw):
    """1..200 scores: means of three integer reviews, so pools tie often, or
    floats of any sign and of magnitudes up to 1e6."""
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        return draw(arrays(np.int64, n, elements=st.integers(0, 30))) / 3
    return draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))


@given(single_vectors())
@example(np.array([-0.9, -0.2, 0.5, -0.2]))
@settings(max_examples=300, deadline=None)
def test_pava_equals_the_two_stack_loop_bit_for_bit(y):
    got = pava_descending(y)
    assert got.view(np.int64).tolist() == reference_pava_two_stacks(y).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# pava_descending_rows against pava_descending, row by row
# ---------------------------------------------------------------------------


@st.composite
def equal_length_rows(draw):
    """(m, n) rows, n = 1..10: tie-heavy levels, two-decimal scores, or
    values spanning 1e-6..1e8."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["ties", "decimal", "wide"]))
    if kind == "ties":
        return draw(arrays(np.int64, (m, n), elements=st.integers(1, 3))).astype(float)
    if kind == "decimal":
        return draw(arrays(np.int64, (m, n), elements=st.integers(-1000, 1000))) / 100
    sign = draw(arrays(np.bool_, (m, n)))
    power = draw(arrays(np.float64, (m, n), elements=st.floats(-6.0, 8.0)))
    return np.where(sign, -1.0, 1.0) * 10.0**power


@given(equal_length_rows())
@settings(max_examples=300, deadline=None)
def test_lockstep_rows_equal_pava_descending(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pava_descending_rows(rows)
    assert got.shape == rows.shape
    for row, fitted in zip(rows, got):
        assert np.array_equal(fitted, pava_descending(row))


def test_lockstep_rows_edge_shapes():
    assert pava_descending_rows(np.zeros((0, 4))).shape == (0, 4)
    assert np.array_equal(pava_descending_rows([[3.0], [-1.0]]), [[3.0], [-1.0]])
    with pytest.raises(ValidationError):
        pava_descending_rows([1.0, 2.0])

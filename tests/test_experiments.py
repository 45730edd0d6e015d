import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    author_tables,
    pairwise_minima,
    projection_certificate,
    reference_lower_bound,
    reference_surrogate_eval,
    traced_peak,
)
from isomech import (
    Binomial,
    ConstructionFailedError,
    Gamma,
    Gaussian,
    InvalidParameterError,
    Poisson,
    Ranking,
    ScoreBounds,
    ValidationError,
)
from isomech.isotonic import project_descending_batch
from isomech import experiments
from isomech.experiments import (
    ExplicitScores,
    LinearRamp,
    PoolResample,
    ReviewTable,
    _mse_samples,
    _pack_codewords,
    _packing_target,
    build_lower_bound,
    estimation_error_curve,
    rate_check,
    surrogate_eval,
)


def make_cfg(**kwargs):
    """Keyword arguments of ``estimation_error_curve``."""
    base = dict(
        family=Binomial(10),
        n_grid=(10, 40),
        generator=LinearRamp(9, 3),
        scores_per_item=3,
        trials=500,
        seed=3,
    )
    base.update(kwargs)
    return base


def test_noiseless_gaussian_curve_is_zero():
    cfg = make_cfg(family=Gaussian(1e-12), trials=100)
    for point in estimation_error_curve(**cfg):
        assert point.mse_im == pytest.approx(0.0, abs=1e-6)
        assert point.mse_raw == pytest.approx(0.0, abs=1e-6)


def test_binomial_raw_error_matches_variance_oracle():
    n = 40
    cfg = make_cfg(n_grid=(n,), trials=4000)
    point = estimation_error_curve(**cfg)[0]
    family, s = Binomial(10), 3
    ramp = 9 - 6 * np.arange(n) / (n - 1)
    expected = float(np.mean(family.variance(family.natural_param(ramp)) / s))
    assert point.mse_raw == pytest.approx(expected, abs=6 * point.mse_raw_se)


def test_adjusted_beats_raw_on_ramp():
    cfg = make_cfg(n_grid=(100,), trials=400)
    point = estimation_error_curve(**cfg)[0]
    gap_se = math.hypot(point.mse_im_se, point.mse_raw_se)
    assert point.mse_im < point.mse_raw - 5 * gap_se


def test_curve_deterministic_across_workers():
    cfg = make_cfg(trials=300)
    assert estimation_error_curve(**cfg) == estimation_error_curve(**cfg, max_workers=4)
    assert estimation_error_curve(**cfg) == estimation_error_curve(**cfg)


def test_curve_on_the_thread_pool_matches_serial():
    # 1,100 trials make three 512-trial chunks, so two workers really share them
    cfg = make_cfg(n_grid=(10,), trials=1100)
    assert estimation_error_curve(**cfg, max_workers=2) == estimation_error_curve(**cfg, max_workers=1)


def test_curve_ignores_the_order_of_explicit_scores():
    curves = [
        estimation_error_curve(**make_cfg(generator=ExplicitScores(values), n_grid=(3,), trials=700))
        for values in [(3.0, 9.0, 5.0), (9.0, 5.0, 3.0)]
    ]
    assert curves[0] == curves[1]
    assert curves[0][0].mse_raw > 0


def test_generator_validation():
    with pytest.raises(ValidationError):
        estimation_error_curve(**make_cfg(n_grid=(1,), trials=10))  # ramp needs n >= 2
    with pytest.raises(InvalidParameterError):
        estimation_error_curve(**make_cfg(generator=ExplicitScores((4.0, 12.0)), n_grid=(2,), trials=5))
    with pytest.raises(ValidationError):
        estimation_error_curve(Binomial(10), (), LinearRamp(), trials=10)
    with pytest.raises(ValidationError):
        estimation_error_curve(
            **make_cfg(generator=PoolResample(pool=()), n_grid=(3,), trials=5)
        )


def test_rate_check_slope_near_cube_root():
    report = rate_check(
        Binomial(10), ScoreBounds(0, 10), [64, 128, 256, 512, 1024],
        trials=150, seed=2,
    )
    assert 0.18 <= report.slope <= 0.48
    risks = [p.risk for p in report.points]
    assert all(a < b for a, b in zip(risks, risks[1:]))  # total risk grows


def test_mse_chunk_holds_only_its_scores():
    family, ramp = Binomial(10), LinearRamp(hi=10.0, lo=0.0)
    scores = 500 * 4096 * 8  # one 500-trial chunk of (500, 4096) float64 scores
    (im, raw), peak = traced_peak(_mse_samples, family, ramp, 4096, 1, 500, np.random.SeedSequence(5))
    assert im.shape == raw.shape == (500,) and np.all(im < raw)
    assert peak <= scores + (8 << 20), peak - scores


def test_rate_check_holds_a_block_of_scores_not_a_chunk():
    # one (500, 4096) chunk of scores is 15.6 MiB; the parent peaked at 17.1 MiB
    report, peak = traced_peak(rate_check, Binomial(10), ScoreBounds(0, 10), [2048, 4096], 500, 5)
    assert [p.n for p in report.points] == [2048, 4096]
    assert peak < 4 << 20, peak / 2**20


def test_rate_check_degenerate_grid_errors():
    with pytest.raises(ValidationError):
        rate_check(Binomial(10), ScoreBounds(0, 10), [64], trials=10)
    with pytest.raises(ValidationError):
        rate_check(Binomial(10), ScoreBounds(0, 10), [64, 64], trials=10)


def test_rate_check_constant_scores_logn_growth():
    # zero score range: total risk should track sigma^2 log n, calibrated at
    # the smallest grid point
    grid = [64, 256, 1024]
    report = rate_check(Gaussian(1.0), ScoreBounds(3, 3), grid, trials=400, seed=7)
    c1 = report.points[0].risk / math.log(grid[0])
    for point in report.points[1:]:
        assert point.risk <= 2 * c1 * math.log(point.n)


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("family, bounds, grid, first", [
    (Binomial(10), ScoreBounds(0, 10), [2, 8], 2),  # the n = 2 ramp is (10, 0)
    (Binomial(10), ScoreBounds(10, 10), [4, 8], 4),
    (Poisson(), ScoreBounds(0, 0), [4, 8], 4),
])
def test_rate_check_refuses_a_ramp_on_the_hull_ends_before_any_draw(
        family, bounds, grid, first, monkeypatch):
    def drawn(*args, **kwargs):
        raise _Drawn

    monkeypatch.setattr(experiments, "_mse_samples", drawn)
    with pytest.raises(ValidationError, match=f"the risk at n = {first} is 0"):
        rate_check(family, bounds, grid, trials=3)
    with pytest.raises(_Drawn):  # an interior ramp point is drawn
        rate_check(family, ScoreBounds(0, 10), [3, 8], trials=3)


def test_rate_check_refuses_a_risk_that_is_0_by_chance():
    # the n = 3 ramp (2, 1, 0) is exact when its middle draw hits 1, as the
    # one trial of seed 5 does; seed 0 misses
    with pytest.raises(ValidationError, match="the risk at n = 3 is 0"):
        rate_check(Binomial(2), ScoreBounds(0, 2), [3, 4], trials=1, seed=5)
    assert rate_check(Binomial(2), ScoreBounds(0, 2), [3, 4], trials=1, seed=0).points[0].risk > 0


def test_lower_bound_invariants_small():
    for family, bounds in ((Gaussian(1.0), ScoreBounds(0, 6)), (Binomial(10), ScoreBounds(0, 10))):
        built = build_lower_bound(family, bounds, 64, seed=5)
        margins = built.verify()
        assert built.size == _packing_target(built.k)
        assert margins["min_hamming"] >= built.k / 8
        assert margins["min_dist2"] >= margins["dist2_floor"]
        assert margins["kl_budget"] < margins["kl_cap"]
        assert np.all(built.codewords[0] == 0)


def test_lower_bound_kl_two_routes():
    built = build_lower_bound(Gaussian(1.0), ScoreBounds(0, 6), 64, seed=6)
    # closed form per member stays under the analytic budget
    assert np.all(built.kl_values <= built.kl_bound + 1e-12)
    # and the analytic budget under the packing cap
    assert built.kl_bound < math.log(built.size) / 8.0 + 1e-12


def test_lower_bound_uneven_blocks():
    built = build_lower_bound(Gaussian(1.0), ScoreBounds(0, 1.2), 20, seed=8)
    assert sum(built.block_sizes) == 20
    assert built.n % built.k != 0  # exercise the remainder path
    built.verify()


def test_lower_bound_minimum_size():
    # smallest admissible n pins k = n = 8 and a two-member family
    built = build_lower_bound(Gaussian(1.0), ScoreBounds(0, 2), 8, seed=9)
    assert built.k == 8
    assert built.size >= 2
    assert built.verify()["min_hamming"] >= 1


def test_lower_bound_preconditions():
    with pytest.raises(ValidationError):
        build_lower_bound(Gaussian(1.0), ScoreBounds(0, 6), 7)
    with pytest.raises(InvalidParameterError):
        build_lower_bound(Gaussian(1.0), ScoreBounds(0, 6), 64, c=-1.0)


def test_lower_bound_keeps_its_verified_margins():
    built = build_lower_bound(Binomial(10), ScoreBounds(0, 10), 64, seed=5)
    assert built.margins == built.verify()


def test_verify_rejects_duplicate_codeword_and_moved_mean():
    built = build_lower_bound(Gaussian(1.0), ScoreBounds(0, 6), 64, seed=5)
    dup = dataclasses.replace(
        built,
        codewords=np.vstack([built.codewords, built.codewords[-1:]]),
        kl_values=np.append(built.kl_values, built.kl_values[-1]),
    )
    with pytest.raises(ConstructionFailedError, match="Hamming"):
        dup.verify()

    moved = built.levels.copy()
    moved[1, -1] += built.certificate.width
    with pytest.raises(ConstructionFailedError, match="certified interval"):
        dataclasses.replace(built, levels=moved).verify()


def test_verify_checks_the_kl_bookkeeping():
    built = build_lower_bound(Binomial(10), ScoreBounds(0, 10), 64, seed=5)
    kl = built.kl_values.copy()
    kl[-1] /= 2  # the last row is always probed; half a KL stays under the bound
    with pytest.raises(ConstructionFailedError, match="KL bookkeeping is inconsistent"):
        dataclasses.replace(built, kl_values=kl).verify()


# (family, bounds, n, c); the n = 512 case holds 2,234 codewords, not a
# power of 2
LOWER_BOUND_ORACLE_CASES = [
    (Gaussian(1.0), ScoreBounds(0, 6), 64, None),
    (Gaussian(1.0), ScoreBounds(0, 1.2), 20, None),
    (Gaussian(1.0), ScoreBounds(0, 2), 8, None),
    (Binomial(10), ScoreBounds(0, 10), 64, None),
    (Binomial(10), ScoreBounds(0, 10), 512, 0.085),
    (Binomial(10), ScoreBounds(0, 10), 1000, 0.09),
    (Poisson(), ScoreBounds(1, 8), 300, 0.1),
    (Gamma(2.0), ScoreBounds(1, 8), 200, 0.1),
]


@pytest.mark.parametrize("family, bounds, n, c", LOWER_BOUND_ORACLE_CASES)
def test_lower_bound_matches_the_elementwise_reference(family, bounds, n, c):
    built = build_lower_bound(family, bounds, n, c=c, seed=11)
    codewords, mu_rows, kl_values, margins = reference_lower_bound(family, bounds, n, c=c, seed=11)
    assert np.array_equal(built.codewords, codewords)
    assert built.mean_rows(np.arange(built.size)).tobytes() == mu_rows.tobytes()
    assert built.kl_values.tobytes() == kl_values.tobytes()
    assert built.margins == margins


@pytest.fixture(scope="module")
def packing_512():
    # 2,234 codewords: the first rows of a 4,096-word linear code
    built = build_lower_bound(Binomial(10), ScoreBounds(0, 10), 512, c=0.085, seed=5)
    assert built.size == 2234
    return built


@pytest.mark.parametrize("row", [1, 63, 64, 255, 256, -1])
def test_verify_finds_a_repeated_codeword_across_tiles(packing_512, row):
    built = packing_512
    dup = dataclasses.replace(
        built,
        codewords=np.vstack([built.codewords, built.codewords[row]]),
        kl_values=np.append(built.kl_values, built.kl_values[row]),
    )
    with pytest.raises(ConstructionFailedError, match="not the first 2235 words of the linear code"):
        dup.verify()


def test_verify_holds_no_size_by_size_matrix(packing_512):
    tracemalloc.start()
    try:
        packing_512.verify()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < packing_512.size**2 * 8


@pytest.mark.parametrize("n, c, size", [(512, 0.085, 2234), (1024, 0.1, 5793)], ids=["n512", "n1024"])
def test_lower_bound_build_holds_no_size_by_n_array(n, c, size):
    # the build and its verifier hold the code, its span and the probe rows:
    # a (size, n) float64 array of mean vectors would take size n 8 bytes
    built, peak = traced_peak(build_lower_bound, Binomial(10), ScoreBounds(0, 10), n, c, 5)
    assert built.size == size
    assert peak < 0.5 * size * n * 8, peak / (size * n * 8)


def test_mean_rows_gather_the_levels_each_codeword_picks():
    built = build_lower_bound(Gaussian(1.0), ScoreBounds(0, 1.2), 20, seed=8)
    block_of = np.repeat(np.arange(built.k), built.block_sizes)
    for i in (0, built.size - 1):
        want = built.levels[built.codewords[i, block_of], block_of]
        assert built.mean_rows(i).tobytes() == want.tobytes()
    assert built.mean_rows([0, built.size - 1]).shape == (2, built.n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_minima_are_the_pairwise_minima_of_every_long_prefix(data):
    d, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 10))
    bit_rows = st.lists(st.integers(0, 1), min_size=k, max_size=k)
    gen = np.array(data.draw(st.lists(bit_rows, min_size=d, max_size=d)), dtype=np.uint8)
    if d >= 2 and data.draw(st.booleans()):  # a dependent row: the sum of two others
        gen[-1] = gen[0] ^ gen[data.draw(st.integers(0, d - 2))]
    block_sizes = np.array(data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
    span = experiments._span(gen)
    # row i sums, over GF(2), the generator rows picked by the bits of i
    bits = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(np.uint8)
    assert np.array_equal(span, bits @ gen & 1)
    minima = (int(span[1:].sum(axis=1).min()), int((span[1:] @ block_sizes).min()))
    for size in range((1 << (d - 1)) + 1, (1 << d) + 1):
        assert pairwise_minima(span[:size], block_sizes) == minima


def _with_codewords(built, codewords):
    """``built`` with other codewords and, so that only their distances can
    fail, the KL values of those codewords, computed coordinate by coordinate."""
    tampered = dataclasses.replace(built, codewords=np.asarray(codewords, dtype=np.uint8))
    theta = built.family.natural_param(tampered.mean_rows(slice(None)))
    kl = np.asarray(built.family.kl_divergence(theta, theta[0]), dtype=float).sum(axis=1)
    return dataclasses.replace(tampered, kl_values=kl)


def _tamperings(words, rng):
    """(name, codewords): rows duplicated, bits flipped, rows swapped and
    rows appended, at generator rows (powers of 2) and at other rows."""
    size, k = words.shape
    rows = sorted({0, 1, 2, 3, size // 2, size - 2, size - 1})
    for r in rows:
        yield f"append a copy of row {r}", np.vstack([words, words[r]])
        for other in (0, size - 1):
            if other != r:
                copied = words.copy()
                copied[other] = words[r]
                yield f"row {other} set to row {r}", copied
        for j in (0, k // 2, k - 1):
            flipped = words.copy()
            flipped[r, j] ^= 1
            yield f"bit {j} of row {r} flipped", flipped
        for other in rows:
            if other > r:
                swapped = words.copy()
                swapped[[r, other]] = words[[other, r]]
                yield f"rows {r} and {other} swapped", swapped
    yield "a random row appended", np.vstack([words, rng.integers(0, 2, size=k, dtype=np.uint8)])
    # the code's own next word keeps the rows a prefix of the linear code
    d = (size - 1).bit_length()
    nxt = np.bitwise_xor.reduce(words[[1 << b for b in range(d) if size >> b & 1]], axis=0)
    yield "the next word of the code appended", np.vstack([words, nxt])


@pytest.mark.parametrize("family, bounds, n, c, seed", [
    (Gaussian(1.0), ScoreBounds(0, 1.2), 20, None, 5),  # 6 codewords; the code's lightest word is not one
    (Poisson(), ScoreBounds(1, 8), 300, 0.1, 5),  # 30 codewords
    (Gamma(2.0), ScoreBounds(1, 8), 200, 0.1, 11),  # 7 codewords; the lightest word is the 8th
])
def test_verify_refuses_every_tampering_the_pairwise_check_refuses(family, bounds, n, c, seed):
    built = build_lower_bound(family, bounds, n, c=c, seed=seed)
    floor = (built.c**2 / 8.0) * built.certificate.sigma_sq * built.k
    outcomes = set()
    for name, words in _tamperings(built.codewords, np.random.default_rng(seed)):
        tampered = _with_codewords(built, words)
        hamming, weighted = pairwise_minima(words, built.block_sizes)
        dist2 = built.gamma**2 * weighted
        pairwise_ok = hamming >= built.k / 8.0 and dist2 >= floor - 1e-9 * max(1.0, floor)
        try:
            margins = tampered.verify()
        except ConstructionFailedError:
            outcomes.add(("refused", pairwise_ok))
            continue
        outcomes.add(("accepted", pairwise_ok))
        assert pairwise_ok, name
        # an accepted construction's margins are the exhaustive ones, exactly
        assert margins["min_hamming"] == hamming and margins["min_dist2"] == dist2, name
    # the pairwise check refuses some tamperings, and verify refuses more
    assert {("refused", False), ("refused", True)} <= outcomes


def test_verify_refuses_rows_out_of_the_codes_order(packing_512):
    built = packing_512
    words = built.codewords.copy()
    words[[5, 6]] = words[[6, 5]]  # every pairwise distance is kept
    kl = built.kl_values.copy()
    kl[[5, 6]] = kl[[6, 5]]
    swapped = dataclasses.replace(built, codewords=words, kl_values=kl)
    with pytest.raises(ConstructionFailedError, match="not the first 2234 words of the linear code"):
        swapped.verify()


def test_verify_refuses_a_single_codeword():
    built = build_lower_bound(Gaussian(1.0), ScoreBounds(0, 2), 8, seed=9)
    one = dataclasses.replace(built, codewords=built.codewords[:1], kl_values=built.kl_values[:1])
    with pytest.raises(ConstructionFailedError, match="at least 2 codewords"):
        one.verify()


def test_lower_bound_budget_guard(monkeypatch):
    family, bounds = Binomial(10), ScoreBounds(0, 10)
    # default c: 9.4e9 codewords at n = 4096 and a 69 GB Gram matrix at n = 512
    with pytest.raises(InvalidParameterError, match=r"use c >= "):
        build_lower_bound(family, bounds, 512)
    # what binds there is the codeword cap, not the arrays' memory
    with pytest.raises(InvalidParameterError,
                       match=r"cap of 10,624 codewords at n = 4096 .*; lower n$"):
        build_lower_bound(family, bounds, 4096)

    # the c named in the message fits; anything giving a larger k does not
    monkeypatch.setattr(experiments, "_CONSTRUCTION_MAX_BYTES", 1 << 20)
    with pytest.raises(InvalidParameterError) as info:
        build_lower_bound(family, bounds, 256, c=0.01)
    c_fit = float(re.search(r"use c >= (\S+) \(k <= (\d+)\)", str(info.value)).group(1))
    k_max = int(re.search(r"k <= (\d+)", str(info.value)).group(1))
    built = build_lower_bound(family, bounds, 256, c=c_fit, seed=3)
    assert built.k <= k_max
    assert experiments._construction_bytes(built.k, 256) <= 1 << 20
    assert experiments._construction_bytes(k_max + 1, 256) > 1 << 20
    with pytest.raises(InvalidParameterError):
        build_lower_bound(family, bounds, 256, c=c_fit * 0.99)



def _c_for_blocks(family, bounds, n, k):
    """A c whose block count (n V~^2 / (c^2 sigma^2))^(1/3) floors to k."""
    cert = family.variance_certificate(bounds)
    return math.sqrt(n * cert.width**2 / (cert.sigma_sq * (k + 0.5) ** 3))


@pytest.mark.parametrize("family, bounds", [
    (Binomial(10), ScoreBounds(0, 10)),
    (Gaussian(1.0), ScoreBounds(0, 6)),
    (Gamma(2.0), ScoreBounds(1, 6)),
    (Poisson(), ScoreBounds(1, 6)),
])
def test_lower_bound_budget_counts_the_verifiers_probe_rows(family, bounds):
    # k = 48 packs 64 codewords, so verify gathers all its probe rows at the
    # full n; whether or not its KL check then passes, the build holds no
    # more than the budget counts for this k and n
    n, k = 20_000, 48

    def build():
        try:
            return build_lower_bound(family, bounds, n, _c_for_blocks(family, bounds, n, k), 5).k
        except ConstructionFailedError:
            return None

    built_k, peak = traced_peak(build)
    assert built_k in (k, None)
    assert peak <= experiments._construction_bytes(k, n), peak / experiments._construction_bytes(k, n)


def test_lower_bound_refuses_an_n_too_large_before_allocating():
    # one float64 row of n = 2e7 takes 160 MB, and verify's probe rows and
    # their temporaries take dozens of them, so no c fits the budget: the
    # default c and one giving k = 48 (2.5 GB per probe array) are refused alike
    family, bounds, n = Binomial(10), ScoreBounds(0, 10), 20_000_000

    def refusal(c):
        with pytest.raises(InvalidParameterError) as info:
            build_lower_bound(family, bounds, n, c)
        return str(info.value)

    for c in (None, _c_for_blocks(family, bounds, n, 48)):
        message, peak = traced_peak(refusal, c)
        assert message == f"n = {n} is too large for the 1 GiB budget of the construction"
        assert peak < 1 << 20
    assert experiments._construction_bytes(1, n) > experiments._CONSTRUCTION_MAX_BYTES

@pytest.mark.parametrize("family, bounds, n, advice", [
    # c_var sqrt(log 2 / 32) is 0.110 for Binomial and 0.147 for Gaussian
    (Binomial(10), ScoreBounds(0, 10), 1024, r"; use c >= 0\.0902 \(k <= 107\)$"),
    (Binomial(10), ScoreBounds(0, 10), 4096,
     r"; c >= 0\.181 fits it \(k <= 107\), but from c = c_var sqrt\(log 2 / 32\) = 0\.11 "
     r"on the KL budget may reach its cap \(1/8\) log\|Omega\|; lower n$"),
    (Gaussian(1.0), ScoreBounds(0, 6), 512, r"; use c >= 0\.121 \(k <= 107\)$"),
    (Gaussian(1.0), ScoreBounds(0, 6), 1024, r"c >= 0\.172 fits it .* = 0\.147 on .*; lower n$"),
])
def test_lower_bound_budget_advice_stops_at_the_kl_limit(family, bounds, n, advice):
    # kl_bound = c^2 k / (2 c_var^2) and the cap is at least k log 2 / 64, so
    # only below c_var sqrt(log 2 / 32) is the KL check sure to pass
    with pytest.raises(InvalidParameterError, match=advice) as info:
        build_lower_bound(family, bounds, n, c=0.01)
    c_fit = float(re.search(r"c >= (\S+)", str(info.value)).group(1))
    past = c_fit >= family.variance_certificate(bounds).c_var * math.sqrt(math.log(2) / 32)
    assert past == str(info.value).endswith("lower n")


def test_packing_gives_up_when_impossible():
    with pytest.raises(ConstructionFailedError):
        _pack_codewords(
            3, 10, min_hamming=3, min_weighted=3,
            block_sizes=np.ones(3, dtype=np.int64),
            seed_seq=np.random.SeedSequence(0), max_restarts=2,
        )


def test_packing_restarts_until_a_code_clears_both_floors():
    block_sizes = np.asarray([1] * 8 + [2] * 8, dtype=np.int64)
    args = dict(min_hamming=5, min_weighted=9, block_sizes=block_sizes)
    # the first two generators of seed 4 miss a floor, the third clears both
    def pack(restarts):
        return _pack_codewords(16, 8, seed_seq=np.random.SeedSequence(4),
                               max_restarts=restarts, **args)

    for restarts in (1, 2):
        with pytest.raises(ConstructionFailedError):
            pack(restarts)
    words = pack(3)
    assert words.shape == (8, 16) and not words[0].any()
    diff = words[:, None, :] != words[None, :, :]
    off = ~np.eye(8, dtype=bool)
    assert diff.sum(axis=2)[off].min() >= 5
    assert (diff @ block_sizes)[off].min() >= 9


def test_synthetic_study_constant_pool():
    points = estimation_error_curve(Binomial(10), (2, 5), PoolResample((5.0,)), 3, 300, 4)
    for p in points:
        assert p.mse_im <= p.mse_raw
        assert p.improvement >= 0
    # trialwise: projection toward the feasible constant truth contracts
    rng = np.random.default_rng(0)
    x = Binomial(10).sample_mean(np.full((500, 5, 3), 5.0), rng).mean(axis=2)
    fitted = project_descending_batch(x)
    assert np.all(
        np.square(fitted - 5.0).sum(axis=1) <= np.square(x - 5.0).sum(axis=1) + 1e-9
    )


def test_synthetic_study_improvement_grows():
    rng = np.random.default_rng(12)
    pool = rng.uniform(3, 8, size=500)
    points = estimation_error_curve(
        Binomial(10), (2, 8, 17), PoolResample(tuple(pool)), 3, 400, 12
    )
    improvements = [p.improvement for p in points]
    assert improvements[0] > 0.05
    assert improvements[-1] > improvements[0] + 0.20


def test_synthetic_study_pool_validation():
    def study(pool, n_grid):
        return estimation_error_curve(Binomial(10), n_grid, PoolResample(pool), 3, 10)

    with pytest.raises(InvalidParameterError):
        study((5.0, 11.0), (2,))
    with pytest.raises(InvalidParameterError, match="mean hull"):
        study((5.0,) * 999 + (11.0,), (2,))  # refused even where no trial draws the 11
    with pytest.raises(ValidationError):
        study((), (2,))
    with pytest.raises(ValidationError, match="n_grid"):
        study((5.0,), (2, 0))


def test_synthetic_study_zero_raw_error_improves_by_zero():
    # a pool at the boundary mean 0 makes every score exact: no 0/0 improvement
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = estimation_error_curve(Binomial(10), (2, 3), PoolResample((0.0, 0.0)), 3, 50, 1)
        for p in points:
            assert p.mse_raw == 0.0 and p.mse_im == 0.0
            assert p.improvement == 0.0


# ---------------------------------------------------------------------------
# surrogate evaluation fixtures
# ---------------------------------------------------------------------------


def reviews_for(sid, scored):
    return [(sid, score, conf) for score, conf in scored]


def table_of(reviews):
    """(submission_id, score, confidence) rows as the columns the CLI reads."""
    ids, scores, confidences = zip(*reviews)
    return ReviewTable(ids, scores, confidences)


def test_surrogate_identical_scores_give_zero_error():
    reviews = reviews_for("a", [(6, 5), (6, 4), (6, 3)]) + reviews_for(
        "b", [(4, 5), (4, 2)]
    )
    table = table_of(reviews)
    _, authors = author_tables(table, [("alice", ("a", "b"), (1, 2))])
    report = surrogate_eval(table, authors, seed=0)
    row = next(r for r in report.rows if r.n == 2)
    assert row.authors == 1
    assert row.mse_raw == 0 and row.mse_im == 0


def test_surrogate_hand_computed_fixture():
    # held-out scores violate the reported order; pooling must help
    reviews = (
        reviews_for("a", [(8, 5), (8, 5), (4, 1)])
        + reviews_for("b", [(5, 5), (5, 5), (7, 1)])
    )
    table = table_of(reviews)
    _, authors = author_tables(table, [("alice", ("a", "b"), (1, 2))])
    report = surrogate_eval(table, authors, seed=0)
    row = next(r for r in report.rows if r.n == 2)
    # surrogates (8, 5); held-out (4, 7); fit of (4, 7) under a >= b: (5.5, 5.5)
    assert row.mse_raw == pytest.approx((16 + 4) / 2)
    assert row.mse_im == pytest.approx((6.25 + 0.25) / 2)
    assert row.improvement == pytest.approx(1 - 3.25 / 10)
    assert row.mse_im < row.mse_raw


def test_surrogate_filters_and_gaps():
    reviews = (
        reviews_for("a", [(6, 5), (7, 1)])
        + reviews_for("b", [(4, 5), (5, 1)])
        + reviews_for("single", [(9, 5)])  # only one review: dropped
        + reviews_for("c", [(5, 3), (6, 2)])
        + reviews_for("d", [(3, 3), (4, 2)])
        + reviews_for("e", [(8, 3), (7, 2)])
        + reviews_for("f", [(6, 3), (5, 2)])
    )
    table = table_of(reviews)
    _, authors = author_tables(table, [
        ("ok2", ("a", "b"), (1, 2)),
        ("ok4", ("c", "d", "e", "f"), (2, 4, 1, 3)),
        ("refs-dropped", ("a", "single"), (1, 2)),
        ("all-first", ("a", "b"), (1, 1)),
        ("unknown", ("a", "zzz"), (1, 2)),
    ])
    report = surrogate_eval(table, authors, seed=1)
    assert report.skipped_submissions == 1
    assert report.skipped_authors == {"missing_submission": 2, "malformed_ranking": 1}
    ns = {row.n: row for row in report.rows}
    assert set(ns) == {2, 3, 4}
    assert ns[2].authors == 1 and ns[4].authors == 1
    assert ns[3].authors == 0
    assert ns[3].mse_raw is None and ns[3].mse_im is None and ns[3].improvement is None


def test_surrogate_confidence_ties_seeded():
    reviews = reviews_for("a", [(2, 3), (9, 3), (5, 3)]) + reviews_for(
        "b", [(4, 2), (6, 1)]
    )
    table = table_of(reviews)
    _, authors = author_tables(table, [("alice", ("a", "b"), (1, 2))])
    first = surrogate_eval(table, authors, seed=11)
    again = surrogate_eval(table, authors, seed=11)
    assert first == again
    assert "a" in first.tie_breaks and "b" not in first.tie_breaks
    other = surrogate_eval(table, authors, seed=13)
    assert other.tie_breaks != first.tie_breaks or other == first


def test_surrogate_uses_reported_not_truthful_ranking():
    # a deliberately wrong report must be honored, not silently fixed
    reviews = reviews_for("a", [(9, 5), (9, 4), (9, 1)]) + reviews_for(
        "b", [(2, 5), (2, 4), (2, 1)]
    )
    table = table_of(reviews)
    _, wrong = author_tables(table, [("bob", ("a", "b"), (2, 1))])  # claims b is best
    report = surrogate_eval(table, wrong, seed=0)
    row = next(r for r in report.rows if r.n == 2)
    # held-out (9, 2) pooled under b >= a: (5.5, 5.5); surrogates (9, 2)
    assert row.mse_im == pytest.approx(((5.5 - 9) ** 2 + (5.5 - 2) ** 2) / 2)
    assert row.mse_raw == pytest.approx(0.0)


# two-decimal review scores, mostly on a 1-10 scale, some far off it
DECIMAL_SCORES = st.one_of(
    st.integers(100, 1000).map(lambda k: k / 100),
    st.integers(-10**6, 10**6).map(lambda k: k / 100),
)


@st.composite
def review_tables(draw):
    """Reviews (1-10 per submission, shuffled, confidences 1-3 so ties are
    common) and authors, each listing distinct submissions, some with
    malformed rankings or unknown or single-review submissions."""
    n_subs = draw(st.integers(1, 9))
    reviews = [
        (f"s{s}", draw(DECIMAL_SCORES), draw(st.integers(1, 3)))
        for s in range(n_subs)
        for _ in range(draw(st.integers(1, 10)))
    ]
    reviews = draw(st.permutations(reviews))
    ids = [f"s{s}" for s in range(n_subs)] + ["unknown"]
    authors = []
    for a in range(draw(st.integers(0, 8))):
        sids = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=10, unique=True))
        k = len(sids)
        if draw(st.integers(0, 4)):
            ranking = draw(st.permutations(range(1, k + 1)))
        else:
            ranking = draw(st.lists(st.integers(0, k + 1), min_size=k, max_size=k))
        authors.append((f"a{a}", tuple(sids), tuple(ranking)))
    table = table_of(reviews)
    return (table, *author_tables(table, authors))


@given(review_tables(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_surrogate_matches_per_record_reference(table, seed):
    reviews, records, authors = table
    got = surrogate_eval(reviews, authors, seed=seed)
    want = reference_surrogate_eval(reviews, records, seed=seed)
    assert got.rows == want.rows
    assert got.tie_breaks == want.tie_breaks
    assert got.skipped_submissions == want.skipped_submissions
    assert got.skipped_authors == want.skipped_authors


def large_review_table(seed):
    """About 3,000 submissions with 1-12 reviews each (confidences 1-3, so
    thousands of ties; some rest lists of 8 or more) and 1,200 authors of
    1-10 submissions, some with malformed rankings or missing submissions."""
    rng = np.random.default_rng(seed)
    n_subs = 3000
    counts = rng.choice([1, 2, 3, 4, 5, 9, 12], size=n_subs, p=[0.05, 0.2, 0.3, 0.25, 0.1, 0.05, 0.05])
    owner = rng.permutation(np.repeat(np.arange(n_subs), counts))
    ids = [f"s{i}" for i in owner]  # "s10" sorts before "s2"
    scores = rng.integers(100, 1001, owner.size) / 100
    confidences = rng.integers(1, 4, owner.size)
    table = ReviewTable(tuple(ids), scores, confidences)
    pool = [f"s{i}" for i in range(n_subs)] + ["unknown"]
    authors = []
    for a in range(1200):
        k = int(rng.integers(1, 11))
        sids = tuple(pool[i] for i in rng.choice(len(pool), size=k, replace=False))
        ranking = rng.permutation(np.arange(1, k + 1))
        if k > 1 and rng.random() < 0.05:
            ranking[0] = ranking[1]
        authors.append((f"a{a}", sids, tuple(int(r) for r in ranking)))
    return (table, *author_tables(table, authors))


@pytest.mark.parametrize("seed", [0, 1])
def test_surrogate_matches_reference_on_a_large_table(seed):
    table, records, authors = large_review_table(seed)
    got = surrogate_eval(table, authors, seed=seed)
    want = reference_surrogate_eval(table, records, seed=seed)
    assert got == want
    assert len(got.tie_breaks) > 1000
    assert min(got.skipped_authors.values()) > 10 and got.skipped_submissions > 100
    assert sum(row.authors for row in got.rows) > 600 and len(got.rows) == 10


@pytest.mark.parametrize("seed", [0, 1])
def test_every_surrogate_fit_passes_the_projection_certificate(monkeypatch, seed):
    # surrogate_eval fits the authors of each n together in one lockstep call;
    # every row must be the projection of its claimed-order held-out scores
    fits = []
    real = experiments.pava_descending_rows

    def recording(rows):
        fitted = real(rows)
        fits.append((rows.copy(), fitted))
        return fitted

    monkeypatch.setattr(experiments, "pava_descending_rows", recording)
    table, _, authors = large_review_table(seed)
    report = surrogate_eval(table, authors, seed=seed)
    assert [y.shape for y, _ in fits] == [(row.authors, row.n) for row in report.rows
                                          if row.authors]
    assert any((y != f).any() for y, f in fits)  # some rows pool
    for y, f in fits:
        assert projection_certificate(y, f).all()


def test_one_integers_call_draws_as_scalar_calls():
    # surrogate_eval draws every confidence tie in one call; replaying its
    # tie_breaks needs the same values as one scalar call per tie
    highs = np.random.default_rng(7).integers(2, 13, 5000)
    highs[::97] = 2**40  # a range beyond 32 bits takes numpy's 64-bit path
    one = np.random.default_rng(3).integers(highs)
    rng = np.random.default_rng(3)
    assert one.tolist() == [int(rng.integers(h)) for h in highs.tolist()]


@pytest.mark.parametrize("confidence", [2**63, -(2**64), 2.5])
def test_review_table_refuses_confidences_outside_int64(confidence):
    with pytest.raises(ValidationError, match="64-bit integers"):
        ReviewTable(("a", "a"), [5.0, 6.0], [1, confidence])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_surrogate_refuses_non_finite_review_scores(bad):
    # the bad score is kept in the surrogate truth, not held out
    reviews = reviews_for("a", [(6, 5), (bad, 4), (7, 1)]) + reviews_for("b", [(4, 5), (5, 1)])
    table = table_of(reviews)
    _, authors = author_tables(table, [("alice", ("a", "b"), (1, 2))])
    with pytest.raises(ValidationError, match="finite"):
        surrogate_eval(table, authors, seed=0)


def test_surrogate_refuses_repeated_submission():
    reviews = reviews_for("a", [(6, 5), (7, 1)]) + reviews_for("b", [(4, 5), (5, 1)])
    with pytest.raises(ValidationError, match="alice lists submission 'a' twice"):
        table = table_of(reviews)
        _, authors = author_tables(table, [("bob", ("b",), (1,)),
                                           ("alice", ("a", "b", "a"), (1, 2, 3))])
        surrogate_eval(table, authors, seed=0)


def test_surrogate_refuses_author_without_submissions():
    reviews = reviews_for("a", [(6, 5), (7, 1)])
    with pytest.raises(ValidationError, match="bob lists no submissions"):
        table = table_of(reviews)
        _, authors = author_tables(table, [("alice", ("a",), (1,)), ("bob", (), ())])
        surrogate_eval(table, authors, seed=0)


@pytest.mark.parametrize("family, bounds, named", [
    (Gamma(1e308), ScoreBounds(3, 8), r"gamma shape 1e\+308: the block count .* overflows"),
    (Gaussian(1e-300), ScoreBounds(0, 1e5), r"gaussian variance 1e-300: the block count .* overflows"),
    (Gamma(1.0), ScoreBounds(1e-200, 2e-200), r"gamma shape 1: the variance bound sigma\^2 = 0 "),
    (Gamma(1.0), ScoreBounds(1.0, 1e200), r"gamma shape 1: the variance bound sigma\^2 = inf "),
    (Gamma(1e-300), ScoreBounds(3, 8), r"gamma shape 1e-300: block count is zero: .* = 2.54e-99 at n = 16"),
])
def test_lower_bound_refuses_a_family_beyond_float64(family, bounds, named):
    # the pyproject filter turns a numpy RuntimeWarning into a failure here
    with pytest.raises(InvalidParameterError, match=named):
        build_lower_bound(family, bounds, 16)


def test_ramp_refuses_a_span_that_overflows_and_keeps_finite_ones():
    with pytest.raises(InvalidParameterError, match=r"hi = 1e\+308 to lo = 1e\+300: .* n = 4"):
        LinearRamp(hi=1e308, lo=1e300).draw(1, 4, None)
    with pytest.raises(InvalidParameterError, match=r"v_min = 1e\+300 and v_max = 1e\+308 .* n = 8"):
        rate_check(Gamma(1e300), ScoreBounds(1e300, 1e308), [4, 8], trials=5)
    # the widest span that still fits keeps the formula's bits
    hi, lo = 1e308, -7e307
    ramp = LinearRamp(hi=hi, lo=lo).draw(1, 2, None)
    assert ramp.tobytes() == (hi - (hi - lo) * np.arange(2) / 1).tobytes()
    with pytest.raises(InvalidParameterError, match="n = 3"):
        LinearRamp(hi=hi, lo=lo).draw(1, 3, None)
    assert LinearRamp().draw(1, 5, None).tolist() == [9.0, 7.5, 6.0, 4.5, 3.0]

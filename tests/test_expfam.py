import inspect
import json
import math
import types

import numpy as np
import pytest

from isomech import (
    AssumptionViolatedError,
    Binomial,
    Gamma,
    Gaussian,
    InvalidParameterError,
    Poisson,
    ScoreBounds,
    ValidationError,
    VarianceCertificate,
    family_from_dict,
    family_from_spec,
    verify_variance_assumption,
)
from isomech.expfam import _FAMILIES, Family, _block_rows, check_variance_floor

from helpers import (
    ALL_FAMILIES,
    MU_WINDOWS,
    THETA_WINDOWS,
    binomial_pmf,
    binomial_rows_by_inversion,
    chi_square_p,
    finite_difference_mean_slope,
    kl_oracle,
    sampled_rows,
    sum_pmf,
    traced_peak,
)


def test_log_partition_stability_at_large_theta():
    b = Binomial(10)
    # KL(theta || 0) = theta b'(theta) - b(theta) + b(0) -> m log 2 as |theta|
    # grows; b(theta) ~ m max(theta, 0) must not overflow, where a naive
    # m * log1p(e^theta) gives 8000 - inf = -inf at theta = 800
    assert b.kl_divergence(800.0, 0.0) == pytest.approx(10 * math.log(2), rel=1e-12)
    assert b.kl_divergence(-800.0, 0.0) == pytest.approx(10 * math.log(2), rel=1e-12)


def test_natural_param_closed_forms():
    assert Binomial(10).natural_param(5.0) == pytest.approx(0.0, abs=1e-12)
    assert Gamma(2.0).natural_param(4.0) == pytest.approx(-0.5, rel=1e-12)
    assert Gaussian(4.0).natural_param(2.0) == pytest.approx(0.5, rel=1e-12)


def test_variance_examples_against_finite_difference():
    assert Gaussian(2.0).variance(1.3) == pytest.approx(2.0, rel=1e-12)
    b = Binomial(10)
    assert b.variance(0.0) == pytest.approx(2.5, rel=1e-12)
    assert b.variance(0.0) == pytest.approx(finite_difference_mean_slope(b, 0.0), rel=1e-6)
    p = Poisson()
    assert p.variance(math.log(3)) == pytest.approx(3.0, rel=1e-12)
    assert p.variance(math.log(3)) == pytest.approx(
        finite_difference_mean_slope(p, math.log(3)), rel=1e-6
    )


def test_curvature_matches_finite_difference_on_grids():
    for name, family in ALL_FAMILIES.items():
        lo, hi = THETA_WINDOWS[name]
        for theta in np.linspace(lo, hi, 21):
            fd = finite_difference_mean_slope(family, float(theta))
            assert family.variance(float(theta)) == pytest.approx(fd, rel=1e-5)


def test_mean_natural_param_roundtrip():
    rng = np.random.default_rng(11)
    for name, family in ALL_FAMILIES.items():
        lo, hi = MU_WINDOWS[name]
        mus = rng.uniform(lo, hi, size=1000)
        back = family.mean(family.natural_param(mus))
        err = np.abs(back - mus) / np.maximum(1.0, np.abs(mus))
        assert err.max() <= 1e-9


def test_kl_zero_iff_equal():
    for name, family in ALL_FAMILIES.items():
        lo, hi = THETA_WINDOWS[name]
        mid = 0.5 * (lo + hi)
        assert family.kl_divergence(mid, mid) == pytest.approx(0.0, abs=1e-12)
        assert family.kl_divergence(lo, hi) > 0


def test_kl_known_values():
    assert Gaussian(1.0).kl_divergence(1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    p = Poisson()
    assert p.kl_divergence(math.log(2), 0.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
    # against the independent sum oracle, truncated far out
    assert p.kl_divergence(math.log(2), 0.0) == pytest.approx(
        kl_oracle(p, math.log(2), 0.0), abs=1e-9
    )


def test_kl_matches_oracle_spot_checks():
    rng = np.random.default_rng(4)
    for name, family in ALL_FAMILIES.items():
        lo, hi = THETA_WINDOWS[name]
        for _ in range(10):
            t1, t2 = rng.uniform(lo, hi, size=2)
            assert family.kl_divergence(t1, t2) == pytest.approx(
                kl_oracle(family, t1, t2), abs=1e-6
            )


def test_kl_oracle_calls_no_family_formula(monkeypatch):
    """The oracle builds its scipy.stats laws from theta alone: with every
    formula of the family classes raising, it returns the same values."""
    points = [(name, *THETA_WINDOWS[name]) for name in sorted(ALL_FAMILIES)]
    want = [kl_oracle(ALL_FAMILIES[name], lo, hi) for name, lo, hi in points]

    def refuse(*args, **kwargs):
        raise AssertionError("the KL oracle called a family formula")

    for family in ALL_FAMILIES.values():
        for name in ("_b", "_b1", "_b2", "_theta_of", "_check_theta"):
            monkeypatch.setattr(type(family), name, refuse)
    with pytest.raises(AssertionError, match="family formula"):
        Poisson().mean(0.0)
    assert [kl_oracle(ALL_FAMILIES[name], lo, hi) for name, lo, hi in points] == want


def test_sampling_is_seed_deterministic():
    for family in ALL_FAMILIES.values():
        lo, hi = THETA_WINDOWS[family.kind]
        theta = 0.5 * (lo + hi)
        a = family.sample_mean(family.mean(theta), np.random.default_rng(77), size=100)
        b = family.sample_mean(family.mean(theta), np.random.default_rng(77), size=100)
        assert np.array_equal(a, b)


def test_sampler_moments_rough():
    n = 200_000
    for name, family in ALL_FAMILIES.items():
        lo, hi = THETA_WINDOWS[name]
        theta = 0.6 * lo + 0.4 * hi
        draws = family.sample_mean(family.mean(theta), np.random.default_rng(5), size=n)
        mean_se = math.sqrt(family.variance(theta) / n)
        assert abs(draws.mean() - family.mean(theta)) <= 5 * mean_se
        m4 = np.mean((draws - draws.mean()) ** 4)
        var_se = math.sqrt(max(m4 - family.variance(theta) ** 2, 1e-12) / n)
        assert abs(draws.var(ddof=1) - family.variance(theta)) <= 5 * var_se


def test_boundary_means_reject_and_sentinel():
    b = Binomial(10)
    with pytest.raises(InvalidParameterError):
        b.natural_param(0.0)
    with pytest.raises(InvalidParameterError):
        b.natural_param(10.0)
    assert b.natural_param(0.0, allow_boundary=True) == -math.inf
    assert b.natural_param(10.0, allow_boundary=True) == math.inf
    with pytest.raises(InvalidParameterError):
        Poisson().natural_param(0.0)
    assert Poisson().natural_param(0.0, allow_boundary=True) == -math.inf
    # boundary means remain fine as data values
    assert b.sample_mean(0.0, np.random.default_rng(0), size=5).tolist() == [0] * 5
    assert b.sample_mean(10.0, np.random.default_rng(0), size=5).tolist() == [10] * 5


@pytest.mark.parametrize("family, mu, seed", [
    (Binomial(10), 6.2, 2401),
    (Poisson(), 2.5, 2402),
])
def test_average_of_reps_matches_the_convolved_pmf(family, mu, seed):
    reps, n = 3, 200_000
    averages = family.sample_mean(mu, np.random.default_rng(seed), size=n, reps=reps)
    sums = np.rint(averages * reps)
    assert np.all(np.abs(averages * reps - sums) < 1e-9)  # averages sit on the 1/reps lattice
    k = np.arange(61)
    if isinstance(family, Binomial):
        one = binomial_pmf(10, mu / 10)
    else:
        one = np.array([math.exp(-mu) * mu**j / math.factorial(j) for j in k])
    pmf = sum_pmf(one, reps)[: k.size]
    counts = np.bincount(sums.astype(int), minlength=pmf.size)
    assert chi_square_p(counts, pmf) > 1e-3


# p = 0.005, 0.49 and 0.995; 4,000 rows leave a pooled tail cell at every p
@pytest.mark.parametrize("reps, seed", [(1, 2411), (3, 2413)])
def test_sample_rows_match_the_exact_pmf_item_by_item(reps, seed):
    family, trials, mu = Binomial(10), 4000, np.array([0.05, 4.9, 9.95])
    rows = sampled_rows(family, mu, np.random.default_rng(seed), trials, reps)
    for item, mean in enumerate(mu):
        pmf = sum_pmf(binomial_pmf(10, mean / 10), reps)
        counts = np.bincount(np.rint(rows[:, item] * reps).astype(int), minlength=pmf.size)
        assert chi_square_p(counts, pmf) > 1e-3


@pytest.mark.parametrize("reps", [1, 3, 12])
def test_sample_rows_layout_and_lattice(reps):
    mu = np.linspace(10.0, 0.0, 41)  # a ramp with both ends of the hull
    rows = sampled_rows(Binomial(10), mu, np.random.default_rng(2420 + reps), 300, reps)
    assert rows.shape == (300, 41) and rows.dtype == np.float64 and rows.flags.c_contiguous
    assert rows.min() >= 0.0 and rows.max() <= 10.0
    np.testing.assert_array_equal(rows * reps, np.rint(rows * reps))
    assert np.all(rows[:, 0] == 10.0) and np.all(rows[:, -1] == 0.0)


@pytest.mark.parametrize("reps", [1, 3])
def test_sample_rows_are_exact_at_the_hull_ends_for_extreme_uniforms(reps):
    # u = 0.0 and the largest u below 1 still give N at p = 1 and 0 at p = 0
    for u in (0.0, np.nextafter(1.0, 0.0)):
        fixed = types.SimpleNamespace(random=lambda shape, u=u: np.full(shape, u))
        rows = sampled_rows(Binomial(10), [10.0, 0.0], fixed, 4, reps)
        assert rows.tolist() == [[10.0, 0.0]] * 4


@pytest.mark.parametrize("reps", [1, 3])
def test_sample_rows_blocks_equal_one_whole_array_inversion(reps):
    n, trials = 3000, 50
    step = _block_rows(n)
    assert trials > 2 * step and trials % step  # several blocks and a partial last one
    mu = np.linspace(10.0, 0.0, n)
    rows = sampled_rows(Binomial(10), mu, np.random.default_rng(2430 + reps), trials, reps)
    want = binomial_rows_by_inversion(10, reps, mu, np.random.default_rng(2430 + reps), trials)
    np.testing.assert_array_equal(rows, want)


def test_sample_rows_hold_no_full_size_temporary():
    for n, trials in ((4096, 500), (5, 100_000)):  # wide rows, then narrow ones
        mu = np.linspace(10.0, 0.0, n)
        rows, peak = traced_peak(sampled_rows, Binomial(10), mu, np.random.default_rng(2440),
                                  trials)
        assert peak <= rows.nbytes + (4 << 20), peak - rows.nbytes


def test_wide_rows_are_exact_at_the_hull_ends_for_extreme_uniforms():
    # eight items on 0..10 count threshold by threshold (3 n >= 2 N), while
    # the two items of the test above count by binary search
    for u in (0.0, np.nextafter(1.0, 0.0)):
        fixed = types.SimpleNamespace(random=lambda shape, u=u: np.full(shape, u))
        rows = sampled_rows(Binomial(10), [10.0, 0.0] * 4, fixed, 4)
        assert rows.tolist() == [[10.0, 0.0] * 4] * 4


# n = 1, then the last n that counts by binary search (3 n < 2 N) and the
# first that counts threshold by threshold, at supports N = 10, 30 and 120
@pytest.mark.parametrize("reps, n", [
    (1, 1), (1, 6), (1, 7), (3, 1), (3, 19), (3, 20), (12, 1), (12, 79), (12, 80),
])
def test_sample_rows_equal_whole_array_inversion_on_both_routes(reps, n):
    trials = 2 * _block_rows(n) + 7  # two full blocks and a partial last one
    mu = np.linspace(10.0, 0.0, n) if n > 1 else np.array([6.5])
    rows = sampled_rows(Binomial(10), mu, np.random.default_rng(2450 + n), trials, reps)
    want = binomial_rows_by_inversion(10, reps, mu, np.random.default_rng(2450 + n), trials)
    np.testing.assert_array_equal(rows.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("reps", [0, -1, 1.5, "3"])
def test_sample_mean_refuses_bad_reps(reps):
    for family in (Gaussian(1.0), Binomial(10), Poisson(), Gamma(2.0)):
        with pytest.raises(InvalidParameterError, match="reps"):
            family.sample_mean(2.0, np.random.default_rng(0), size=3, reps=reps)


@pytest.mark.parametrize("trials, reps", [(10**20, 1), (4 * 10**18, 3)])
def test_binomial_draw_count_beyond_int64_is_refused(trials, reps):
    family, rng = Binomial(trials), np.random.default_rng(0)
    with pytest.raises(InvalidParameterError, match="int64"):
        family.sample_mean(trials / 2, rng, size=3, reps=reps)
    with pytest.raises(InvalidParameterError, match="int64"):
        sampled_rows(family, [trials / 2, trials / 4], rng, 4, reps)


def test_poisson_draws_up_to_the_sampler_limit():
    # rng.poisson takes a mean up to int64 max less 10 standard deviations
    family, rng = Poisson(), np.random.default_rng(0)
    limit = 9.223372006484771e18
    assert family.sample_mean(limit, rng, size=2).shape == (2,)
    for mu, reps in [(np.nextafter(limit, np.inf), 1), (limit / 2, 3), (1e308, 3)]:
        with pytest.raises(InvalidParameterError, match="Poisson mean"):
            family.sample_mean(mu, rng, size=2, reps=reps)
        with pytest.raises(InvalidParameterError, match="Poisson mean"):
            sampled_rows(family, [1.0, mu], rng, 4, reps)


@pytest.mark.parametrize("shape, what", [(1e-320, "the scale"), (1e308, "reps \\* shape")])
def test_gamma_shape_whose_draw_overflows_is_refused(shape, what):
    # the pyproject filter turns a numpy RuntimeWarning into a failure here
    family, rng = Gamma(shape), np.random.default_rng(0)
    with pytest.raises(InvalidParameterError, match=f"Gamma shape .* reps = 3, {what}"):
        family.sample_mean(3.0, rng, size=2, reps=3)
    with pytest.raises(InvalidParameterError, match=f"Gamma shape .* reps = 3, {what}"):
        sampled_rows(family, [3.0, 2.0], rng, 4, 3)


@pytest.mark.parametrize("shape, mu", [(1e-300, 4.0), (1e308, 3.0)])
def test_gamma_curvature_is_mu_squared_over_shape_where_theta_squared_leaves_float64(shape, mu):
    # theta^2 overflows (1e-300) or underflows to 0 (1e308); b'' itself is normal
    family = Gamma(shape)
    assert family.variance(family.natural_param(mu)) == mu * mu / shape


def test_domain_errors():
    with pytest.raises(InvalidParameterError):
        Gamma(2.0).kl_divergence(0.0, -1.0)
    with pytest.raises(InvalidParameterError):
        Gamma(2.0).variance(1.0)
    with pytest.raises(InvalidParameterError):
        Gaussian(1.0).mean(math.nan)
    with pytest.raises(InvalidParameterError):
        Binomial(10).natural_param(11.0)
    with pytest.raises(InvalidParameterError):
        Gaussian(0.0)
    with pytest.raises(InvalidParameterError):
        Binomial(0)
    with pytest.raises(InvalidParameterError):
        Gamma(-1.0)


def test_sigma_max_closed_forms():
    assert Binomial(10).sigma_max(ScoreBounds(0, 10)) == pytest.approx(2.5)
    assert Poisson().sigma_max(ScoreBounds(1, 9)) == pytest.approx(9.0)
    assert Gamma(4.0).sigma_max(ScoreBounds(1, 8)) == pytest.approx(16.0)
    assert Gaussian(3.0).sigma_max(ScoreBounds(-2, 2)) == pytest.approx(3.0)
    # binomial peak clamps to the nearer endpoint when m/2 is outside
    assert Binomial(10).sigma_max(ScoreBounds(6, 9)) == pytest.approx(6 * 4 / 10)


def test_variance_certificates():
    cert = verify_variance_assumption(Binomial(10), ScoreBounds(0, 10))
    assert (cert.v_tilde_min, cert.v_tilde_max) == (2.5, 7.5)
    assert (cert.c_int, cert.c_var) == (0.5, 0.75)

    cert = verify_variance_assumption(Gaussian(1.0), ScoreBounds(2, 6))
    assert (cert.v_tilde_min, cert.v_tilde_max) == (2, 6)
    assert (cert.c_int, cert.c_var) == (1.0, 1.0)

    cert = verify_variance_assumption(Poisson(), ScoreBounds(1, 8))
    assert (cert.v_tilde_min, cert.v_tilde_max) == (4.0, 8)
    assert (cert.c_int, cert.c_var) == (0.5, 0.5)

    cert = verify_variance_assumption(Gamma(2.0), ScoreBounds(1, 8))
    assert (cert.c_int, cert.c_var) == (0.5, 0.25)


def test_variance_floor_violation_carries_mu():
    b = Binomial(10)
    bogus = VarianceCertificate(
        v_tilde_min=2.5, v_tilde_max=7.5, c_int=0.5, c_var=1.5, sigma_sq=2.5
    )
    with pytest.raises(AssumptionViolatedError) as excinfo:
        check_variance_floor(b, bogus)
    assert 2.5 <= excinfo.value.mu <= 7.5


def test_certificate_unavailable_for_edge_bounds():
    with pytest.raises(InvalidParameterError):
        Binomial(10).variance_certificate(ScoreBounds(9, 10))


def test_bounds_validation():
    with pytest.raises(InvalidParameterError):
        ScoreBounds(3, 2)
    with pytest.raises(InvalidParameterError):
        Binomial(10).sigma_max(ScoreBounds(0, 11))


def test_family_serialization_roundtrip():
    for family in (Gaussian(2.5), Binomial(10), Poisson(), Gamma(3.5)):
        clone = family_from_dict(family.to_dict())
        assert clone == family
    assert family_from_spec("binomial:10") == Binomial(10)
    assert family_from_spec('{"kind":"binomial","m":10}') == Binomial(10)
    assert family_from_spec("gaussian:2.0") == Gaussian(2.0)
    assert family_from_spec("poisson") == Poisson()
    assert family_from_spec("gamma:4") == Gamma(4.0)
    assert family_from_dict({"kind": "binomial", "m": 10.0}) == Binomial(10)


# -- the contract every family shares ---------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_scalar_inputs_give_python_floats(name):
    family = ALL_FAMILIES[name]
    lo, hi = THETA_WINDOWS[name]
    theta = 0.5 * (lo + hi)
    values = [
        family.mean(theta),
        family.variance(theta),
        family.natural_param(family.mean(theta)),
        family.kl_divergence(theta, lo),
    ]
    assert [type(v) for v in values] == [float] * len(values)


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_finite_hull_ends_are_the_boundary_means(name):
    family = ALL_FAMILIES[name]
    for end, sentinel in zip(family.mean_hull(), (-math.inf, math.inf)):
        if not math.isfinite(end):
            continue
        with pytest.raises(InvalidParameterError, match="boundary"):
            family.natural_param(end)
        theta = family.natural_param(end, allow_boundary=True)
        assert type(theta) is float and theta == sentinel
        inner = MU_WINDOWS[name][0]
        row = family.natural_param(np.array([end, inner]), allow_boundary=True)
        assert row[0] == sentinel and row[1] == family.natural_param(inner)


SERIALIZED = [Gaussian(2), Gaussian(2.5), Binomial(10), Binomial(np.int64(3)), Poisson(),
              Gamma(4), Gamma(3.5)]


def test_every_registered_kind_is_serialized_below():
    assert {f.kind for f in SERIALIZED} == set(_FAMILIES)


@pytest.mark.parametrize("family", SERIALIZED, ids=repr)
def test_json_and_spec_forms_build_the_same_family(family):
    data = family.to_dict()
    assert family_from_dict(data) == family
    assert family_from_spec(data) == family
    assert family_from_spec(json.dumps(data)) == family
    if family.param is None:
        assert data == {"kind": family.kind}
        assert family_from_spec(family.kind) == family
    else:
        value = data[family.param.key]
        assert type(value) is family.param.type
        assert family_from_spec(f"{family.kind}:{value}") == family
        assert repr(family) == f"{type(family).__name__}({family.param.key}={value})"


def test_json_form_defaults_the_gaussian_variance_only():
    assert family_from_dict({"kind": "gaussian"}) == Gaussian(1.0)
    assert family_from_spec({"kind": "Gaussian"}) == Gaussian(1.0)
    assert family_from_spec("gaussian") == family_from_spec(" Gaussian ") == Gaussian(1.0)
    for kind in ("binomial", "gamma"):
        with pytest.raises(ValidationError, match="needs a parameter"):
            family_from_dict({"kind": kind})
        with pytest.raises(ValidationError, match=f"needs a parameter, e.g. '{kind}:10'"):
            family_from_spec(kind)


def test_registry_lists_every_concrete_family():
    concrete = {cls for cls in Family.__subclasses__() if not inspect.isabstract(cls)}
    assert set(_FAMILIES.values()) == concrete
    assert all(_FAMILIES[cls.kind] is cls for cls in concrete)


@pytest.mark.parametrize("family, mu, named", [
    (Gaussian(1e-300), 1e308, "gaussian variance 1e-300"),
    (Gamma(1e10), 1e-300, r"gamma shape 1e\+10"),
])
def test_natural_param_refuses_an_interior_mean_whose_theta_overflows(family, mu, named):
    # the pyproject filter turns a numpy RuntimeWarning into a failure here
    for allow_boundary in (False, True):
        with pytest.raises(InvalidParameterError, match=f"{named}: the natural parameter of the mean"):
            family.natural_param([3.0, mu], allow_boundary=allow_boundary)
        with pytest.raises(InvalidParameterError, match=named):
            family.natural_param(mu, allow_boundary=allow_boundary)
    lo = family.mean_hull()[0]
    if math.isfinite(lo):  # a boundary mean keeps its sentinel
        assert family.natural_param(lo, allow_boundary=True) == -math.inf

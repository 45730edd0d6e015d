"""Canonical-form exponential families: Gaussian, Binomial, Poisson, Gamma.

Each family fixes its nuisance shape parameter (variance, trial count, shape)
of the law p_theta(x) = exp(theta * x - b(theta)) c(x) and exposes its
natural-parameter calculus

    mean           mu = b'(theta)
    variance       b''(theta)
    inverse        theta = (b')^{-1}(mu)

together with seeded sampling, of one draw or of the exact average of several,
and the KL divergence in closed form.  The mechanism never needs the form of
the law, so no family writes its density or carrier c(x); the log-partition
b enters only the KL formula.  All math methods accept scalars or numpy
arrays and broadcast elementwise; a scalar input gives a Python float.

``Family`` writes the shared contract once: the input checks, the +/-inf
natural parameters of boundary means, the float return for scalar input, the
variance certificate, and the JSON and spec forms of the one shape parameter
a class declares.  A family supplies only its formulas and constants.
``_FAMILIES`` registers the concrete classes by kind.

Import policy: of the package this module imports only ``errors``, so it
also holds ``_block_rows``, the row blocks in which ``Family.row_sampler``
yields its draws and the Monte-Carlo loops walk (trials, n) passes.  It
imports numpy and no scipy module.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import AssumptionViolatedError, InvalidParameterError, ValidationError

__all__ = [
    "Family",
    "Gaussian",
    "Binomial",
    "Poisson",
    "Gamma",
    "ScoreBounds",
    "VarianceCertificate",
    "family_from_dict",
    "family_from_spec",
    "verify_variance_assumption",
]

# float64 values per row block of a Monte-Carlo (trials, n) pass: 512 KiB,
# so a block and its temporaries stay in a 2 MiB L2 cache.
_BLOCK_ELEMENTS = 1 << 16


def _block_rows(n: int) -> int:
    """Rows per block of a (trials, n) pass: ``_BLOCK_ELEMENTS // n``, at
    least one row."""
    return max(1, _BLOCK_ELEMENTS // n)


def _fill_rows(blocks: Iterable[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out`` filled with the consecutive row ``blocks``, which must cover it."""
    lo = 0
    for block in blocks:
        out[lo : lo + len(block)] = block
        lo += len(block)
    return out


def _as_number(value, kind: type = float):
    """``kind(value)`` for a parameter read from text or JSON, refusing what
    int() or float() would bend: a bool, and a fractional float where an int
    is asked for.  Raises TypeError, ValueError or OverflowError."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(value)
    return kind(value)


def _as_float(x) -> np.ndarray | float:
    """``x`` as a float array, or as a Python float when it is a scalar."""
    arr = np.asarray(x, dtype=float)
    return arr if arr.ndim else float(arr)


@dataclass(frozen=True)
class ScoreBounds:
    """Closed mean-scale interval [v_min, v_max] the true scores live in."""

    v_min: float
    v_max: float

    def __post_init__(self):
        if not (math.isfinite(self.v_min) and math.isfinite(self.v_max)):
            raise InvalidParameterError("score bounds must be finite")
        if self.v_min > self.v_max:
            raise InvalidParameterError(
                f"v_min={self.v_min} exceeds v_max={self.v_max}"
            )

    @property
    def width(self) -> float:
        return self.v_max - self.v_min


@dataclass(frozen=True)
class VarianceCertificate:
    """Variance-floor certificate on a mean sub-interval.

    Guarantees b''((b')^{-1}(mu)) >= c_var * sigma_sq for every mu in
    [v_tilde_min, v_tilde_max], an interval covering at least a c_int
    fraction of the full score range.
    """

    v_tilde_min: float
    v_tilde_max: float
    c_int: float
    c_var: float
    sigma_sq: float

    @property
    def width(self) -> float:
        return self.v_tilde_max - self.v_tilde_min


class _Param(NamedTuple):
    key: str  # JSON key, and the value of the 'kind:param' spec form
    field: str  # dataclass field that holds it
    type: type  # int or float, the type to_dict writes
    required: bool  # if False, a JSON form without the key takes the field's default


class Family(ABC):
    """One canonical exponential family with its shape parameter fixed.

    Immutable and safe to share across threads.  Sampling always goes
    through an explicit ``numpy.random.Generator`` so that replaying a seed
    reproduces bit-identical draws.

    The public methods run every check and conversion.  A subclass supplies
    its constants: ``kind``, ``param`` (its shape parameter, or None),
    ``mean_hull()``, and the ``c_int`` and ``c_var`` of its certificate.  It
    also supplies its formulas, called on checked input: ``_b``, ``_b1`` and
    ``_b2`` (b, b', b'' at theta); ``_theta_of`` ((b')^{-1} inside the hull);
    ``_draw_average`` (the average of ``reps`` draws); ``_sigma_max`` (max of
    b'' over the bounds); ``_cert_window`` (where b'' >= c_var * sigma_max).
    ``row_sampler``, the one draw hook for (trials, n) rows at shared means
    (``sample_rows`` and the Monte-Carlo core read it), may be overridden by
    a faster exact sampler that draws block by block.
    """

    kind: ClassVar[str]
    param: ClassVar[_Param | None] = None

    # -- natural-parameter calculus -----------------------------------

    def mean(self, theta):
        """b'(theta)."""
        return _as_float(self._b1(self._check_theta(theta)))

    def variance(self, theta):
        """b''(theta) > 0."""
        return _as_float(self._b2(self._check_theta(theta)))

    def natural_param(self, mu, *, allow_boundary: bool = False):
        """(b')^{-1}(mu).

        A finite end of ``mean_hull()`` is a boundary mean, where theta would
        be infinite: it raises InvalidParameterError unless ``allow_boundary``
        is set, in which case the low end gives -inf and the high end +inf.
        """
        arr = self.check_mean_hull(mu, "mean")
        lo, hi = self.mean_hull()
        at_lo, at_hi = arr == lo, arr == hi
        boundary = at_lo | at_hi
        if boundary.any() and not allow_boundary:
            raise InvalidParameterError(
                f"mean on the boundary of the {self.kind} mean hull [{lo}, {hi}] "
                "has no finite theta"
            )
        with np.errstate(divide="ignore", over="ignore"):
            theta = self._theta_of(arr)
        overflow = ~(np.isfinite(theta) | boundary)
        if overflow.any():
            raise InvalidParameterError(
                f"{self._param_text()}: the natural parameter of the mean "
                f"{float(arr[overflow].flat[0]):.6g} overflows float64"
            )
        if not boundary.any():
            return _as_float(theta)
        return _as_float(np.where(at_lo, -np.inf, np.where(at_hi, np.inf, theta)))

    def kl_divergence(self, theta1, theta2):
        """KL(p_theta1 || p_theta2) = (theta1-theta2) b'(theta1) - b(theta1) + b(theta2)."""
        t1 = self._check_theta(theta1)
        t2 = self._check_theta(theta2)
        return _as_float((t1 - t2) * self._b1(t1) - self._b(t1) + self._b(t2))

    # -- sampling ------------------------------------------------------

    def sample_mean(self, mu, rng: np.random.Generator, size=None, reps: int = 1):
        """Draw variates with mean ``mu``, each the average of ``reps`` iid draws.

        Every family here is closed under averaging, so one draw from the
        average's own law stands in for ``reps`` draws and their mean, exact
        in distribution.  Accepts the closed mean hull, including boundary
        means where the natural parameter would be infinite (the draw is then
        degenerate).
        """
        reps = self._check_reps(reps)
        return self._draw_average(self.check_mean_hull(mu, "mean"), rng, size, reps)

    def sample_rows(self, mu, rng: np.random.Generator, trials: int, reps: int = 1) -> np.ndarray:
        """C-contiguous float64 (trials, n) ``sample_mean`` draws at the (n,)
        means ``mu`` that every row shares: the blocks of one
        ``row_sampler(mu, reps)`` draw, filled into one array."""
        return _fill_rows(self.row_sampler(mu, reps)(rng, trials), np.empty((trials, np.size(mu))))

    def row_sampler(
        self, mu, reps: int = 1
    ) -> Callable[[np.random.Generator, int], Iterator[np.ndarray]]:
        """The draw plan at the (n,) means ``mu`` that every row shares, built
        once: ``draw(rng, trials)`` yields the (trials, n) ``sample_mean``
        rows in consecutive fresh C-contiguous float64 blocks of
        ``_block_rows(n)`` rows (the last may be shorter), so a consumer that
        reduces each block as it comes holds one block, not all the rows.

        This one draws the whole call item-major, so numpy sets a sampler up
        once per item, not per draw, and copies each block to row-major; a
        family may override it with a sampler that draws block by block.
        """
        reps = self._check_reps(reps)
        mu = self.check_mean_hull(mu, "mean")
        step = _block_rows(mu.size)

        def draw(rng: np.random.Generator, trials: int) -> Iterator[np.ndarray]:
            items = self._draw_average(mu[:, None], rng, (mu.size, trials), reps)
            for lo in range(0, trials, step):
                yield np.ascontiguousarray(items[:, lo : lo + step].T)

        return draw

    # -- ranges ----------------------------------------------------------

    @abstractmethod
    def mean_hull(self) -> tuple[float, float]:
        """Closed hull of admissible data values on the mean scale."""

    def check_mean_hull(self, x, what: str = "value") -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.size and not np.all(np.isfinite(arr)):
            raise InvalidParameterError(f"{what} must be finite")
        lo, hi = self.mean_hull()
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise InvalidParameterError(
                f"{what} outside the {self.kind} mean hull [{lo}, {hi}]"
            )
        return arr

    # -- score-bounds helpers ---------------------------------------------

    def validate_bounds(self, bounds: ScoreBounds) -> None:
        lo, hi = self.mean_hull()
        if bounds.v_min < lo or bounds.v_max > hi:
            raise InvalidParameterError(
                f"bounds [{bounds.v_min}, {bounds.v_max}] leave the "
                f"{self.kind} mean hull [{lo}, {hi}]"
            )

    def sigma_max(self, bounds: ScoreBounds) -> float:
        """max of b'' over the natural parameters matching ``bounds`` (closed form)."""
        self.validate_bounds(bounds)
        return self._sigma_max(bounds)

    def variance_certificate(self, bounds: ScoreBounds) -> VarianceCertificate:
        """Closed-form variance-floor certificate for ``bounds`` (not yet grid-checked).

        The certified interval is ``bounds`` cut to the family's
        ``_cert_window``; it is refused when it covers less than a ``c_int``
        share of the range.
        """
        self.validate_bounds(bounds)
        lo, hi = self._cert_window(bounds)
        cert = VarianceCertificate(
            v_tilde_min=max(bounds.v_min, lo),
            v_tilde_max=min(bounds.v_max, hi),
            c_int=self.c_int,
            c_var=self.c_var,
            sigma_sq=self._sigma_max(bounds),
        )
        _require_certificate_interval(cert, bounds)
        return cert

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON form, e.g. {"kind": "binomial", "m": 10}; see ``family_from_dict``."""
        out: dict[str, Any] = {"kind": self.kind}
        if self.param is not None:
            out[self.param.key] = self.param.type(getattr(self, self.param.field))
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.to_dict().items() if k != "kind")
        return f"{type(self).__name__}({inner})"

    def _param_text(self) -> str:
        """The family and its parameter for a message, e.g. 'gamma shape 1e+308'."""
        if self.param is None:
            return self.kind
        return f"{self.kind} {self.param.key} {getattr(self, self.param.field):.6g}"

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_reps(reps) -> int:
        if not (isinstance(reps, (int, np.integer)) and reps >= 1):
            raise InvalidParameterError(f"reps must be a positive integer, got {reps!r}")
        return int(reps)

    def _check_theta(self, theta):
        arr = _as_float(theta)
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError(f"theta must be finite, got {theta!r}")
        return arr


@dataclass(frozen=True, repr=False)
class Gaussian(Family):
    """N(mu, variance) with fixed variance; theta = mu / variance."""

    variance_param: float = 1.0
    kind = "gaussian"
    param = _Param("variance", "variance_param", float, required=False)
    c_int = c_var = 1.0

    def __post_init__(self):
        if not (self.variance_param > 0 and math.isfinite(self.variance_param)):
            raise InvalidParameterError("Gaussian variance must be positive and finite")

    def _b(self, t):
        return self.variance_param * t * t / 2.0

    def _b1(self, t):
        return self.variance_param * t

    def _b2(self, t):
        return np.full(np.shape(t), self.variance_param, dtype=float)

    def _theta_of(self, mu):
        return mu / self.variance_param

    def _draw_average(self, mu, rng, size, reps):
        # the mean of r draws is N(mu, sigma^2 / r)
        return rng.normal(mu, math.sqrt(self.variance_param / reps), size=size)

    def mean_hull(self):
        return (-math.inf, math.inf)

    def _sigma_max(self, bounds):
        return self.variance_param

    def _cert_window(self, bounds):
        return (-math.inf, math.inf)


def _sigmoid(t):
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))  # never overflows
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True, repr=False)
class Binomial(Family):
    """Binomial(m, p) counts on {0, ..., m}; theta = log(p / (1 - p)), mu = m p."""

    trials: int = 1
    kind = "binomial"
    param = _Param("m", "trials", int, required=True)
    c_int = 0.5
    c_var = 0.75
    _MAX_INVERSION = 127  # int8 count limit; rng.binomial + copy wins from N ~ 135-150

    def __post_init__(self):
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise InvalidParameterError("Binomial trial count must be a positive integer")

    def _b(self, t):
        # m * log(1 + e^t), evaluated as m * (max(t, 0) + log1p(e^{-|t|}))
        return self.trials * (np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))))

    def _b1(self, t):
        return self.trials * _sigmoid(t)

    def _b2(self, t):
        s = _sigmoid(t)
        return self.trials * s * (1.0 - s)

    def _theta_of(self, mu):
        return np.log(mu) - np.log(float(self.trials) - mu)

    def _draw_average(self, mu, rng, size, reps):
        # r draws of Binomial(m, p) sum to one Binomial(r m, p); numpy takes an int64 count
        count = reps * self.trials
        if count > np.iinfo(np.int64).max:
            raise InvalidParameterError(
                f"Binomial draw count reps * m = {count} exceeds the int64 range of the sampler"
            )
        return rng.binomial(count, mu / self.trials, size=size) / reps

    def row_sampler(self, mu, reps=1):
        """Inversion (Devroye 1986, ch. III): a draw counts the thresholds
        F(0..N-1) of its item's CDF, N = reps * m, that its uniform clears, by
        a binary search per item in narrow rows, else a pass per threshold.
        The CDF is built once here; each block of ``_block_rows(n)`` rows is
        drawn only when it is consumed, from one ``rng.random`` call, so the
        uniforms are those of one ``rng.random((trials, n))`` call."""
        support = self._check_reps(reps) * self.trials
        if support > self._MAX_INVERSION:
            return super().row_sampler(mu, reps)
        p = self.check_mean_hull(mu, "mean") / self.trials
        k = np.arange(support)[:, None]
        comb = np.array([math.comb(support, j) for j in range(support)], dtype=float)
        cdf = np.cumsum(comb[:, None] * p**k * (1.0 - p) ** (support - k), axis=0)
        step = _block_rows(p.size)
        # narrow: 3 n < 2 N.  Per 512-row chunk, search vs loop on 2 cores:
        # N = 10, 51 vs 109 us at n = 5, 112 vs 68 at 8; N = 30, 46 vs 177 at
        # 5, 329 vs 339 at 19, 430 vs 359 at 20; N = 120, faster at n = 1..32
        narrow = 3 * p.size < 2 * support

        def draw(rng, trials):
            for lo in range(0, trials, step):
                u = rng.random((min(step, trials - lo), p.size))
                if narrow:  # a cumsum never decreases; counts F <= u
                    block = np.empty(u.shape)
                    for j, column in enumerate(cdf.T):
                        np.divide(column.searchsorted(u[:, j], side="right"), reps, out=block[:, j])
                    yield block
                    continue
                count = np.zeros(u.shape, np.int8)
                for threshold in cdf:
                    count += u >= threshold  # >=, so p = 1 gives N even at u = 0.0
                yield np.divide(count, reps)

        return draw

    def mean_hull(self):
        return (0.0, float(self.trials))

    def _sigma_max(self, bounds):
        m = float(self.trials)
        # b'' = mu (m - mu) / m is concave with peak at mu = m/2
        mu_star = min(max(m / 2.0, bounds.v_min), bounds.v_max)
        return mu_star * (m - mu_star) / m

    def _cert_window(self, bounds):
        m = float(self.trials)
        return (m / 4.0, 3.0 * m / 4.0)


@dataclass(frozen=True, repr=False)
class Poisson(Family):
    """Poisson(lambda) counts; theta = log(lambda), b(theta) = e^theta."""

    kind = "poisson"
    c_int = c_var = 0.5

    def _b(self, t):
        return np.exp(t)

    _b1 = _b2 = _b  # b = b' = b'' = e^theta

    def _theta_of(self, mu):
        return np.log(mu)

    # the largest mean rng.poisson draws: int64 max less 10 standard deviations
    _MAX_DRAW_MEAN = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)

    def _draw_average(self, mu, rng, size, reps):
        # r draws of Poisson(mu) sum to one Poisson(r mu)
        with np.errstate(over="ignore"):
            lam = reps * mu
        if np.any(lam > self._MAX_DRAW_MEAN):
            raise InvalidParameterError(
                f"Poisson mean {float(mu.max()):.6g} times reps = {reps} exceeds "
                f"{self._MAX_DRAW_MEAN:.6g}, the largest mean the sampler draws"
            )
        return rng.poisson(lam, size=size) / reps

    def mean_hull(self):
        return (0.0, math.inf)

    def _sigma_max(self, bounds):
        return bounds.v_max

    def _cert_window(self, bounds):
        return (bounds.v_max / 2.0, math.inf)


@dataclass(frozen=True, repr=False)
class Gamma(Family):
    """Gamma with fixed shape m and free scale; theta = -1/scale < 0, mu = m * scale."""

    shape: float = 1.0
    kind = "gamma"
    param = _Param("shape", "shape", float, required=True)
    c_int = 0.5
    c_var = 0.25

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise InvalidParameterError("Gamma shape must be positive and finite")

    def _check_theta(self, theta):
        arr = super()._check_theta(theta)
        if not np.all(np.asarray(arr) < 0):
            raise InvalidParameterError("Gamma natural parameter must be negative")
        return arr

    def _b(self, t):
        return -self.shape * np.log(-t)

    def _b1(self, t):
        return -self.shape / t

    def _b2(self, t):
        return self.shape / (t * t)

    def _theta_of(self, mu):
        return -self.shape / mu

    def _draw_average(self, mu, rng, size, reps):
        # the mean of r draws of Gamma(a, scale s) is Gamma(r a, scale s / r)
        if np.any(mu <= 0):
            raise InvalidParameterError("Gamma sampling needs a strictly positive mean")
        shape = reps * self.shape
        with np.errstate(over="ignore"):
            scale = mu / shape
        if not (math.isfinite(shape) and np.all(np.isfinite(scale))):
            what = "the scale mean / (reps * shape)" if math.isfinite(shape) else "reps * shape"
            raise InvalidParameterError(
                f"Gamma shape {self.shape:.6g} cannot be sampled: at reps = {reps}, {what} "
                "overflows"
            )
        return rng.gamma(shape, scale=scale, size=size)

    def mean_hull(self):
        # x = 0 has probability zero but is harmless as a data value
        return (0.0, math.inf)

    def _sigma_max(self, bounds):
        return bounds.v_max * bounds.v_max / self.shape  # inf, not OverflowError, past float64

    def _cert_window(self, bounds):
        return (bounds.v_max / 2.0, math.inf)


# Every concrete family, by kind: the JSON and spec parsers read this table.
_FAMILIES: dict[str, type[Family]] = {
    cls.kind: cls for cls in (Gaussian, Binomial, Poisson, Gamma)
}


def _require_certificate_interval(cert: VarianceCertificate, bounds: ScoreBounds) -> None:
    if cert.v_tilde_min > cert.v_tilde_max:
        raise InvalidParameterError(
            "no variance certificate available: the certified sub-interval "
            f"[{cert.v_tilde_min}, {cert.v_tilde_max}] is empty for bounds "
            f"[{bounds.v_min}, {bounds.v_max}]"
        )
    if cert.width < cert.c_int * bounds.width - 1e-12:
        raise InvalidParameterError(
            "no variance certificate available: certified sub-interval of width "
            f"{cert.width} is narrower than c_int * range = {cert.c_int * bounds.width}"
        )


_FLOOR_GRID_POINTS = 1024  # means on the grid that check_variance_floor checks


def check_variance_floor(family: Family, cert: VarianceCertificate) -> None:
    """Confirm b'' >= c_var * sigma_sq on a uniform grid of
    ``_FLOOR_GRID_POINTS`` means over the certificate.

    Raises AssumptionViolatedError carrying the first offending mean, and
    InvalidParameterError where b'' at a finite theta overflows or vanishes
    in float64, which no floor comparison can use.
    """
    grid = np.linspace(cert.v_tilde_min, cert.v_tilde_max, _FLOOR_GRID_POINTS)
    theta = family.natural_param(grid, allow_boundary=True)
    finite = np.isfinite(theta)
    floor = cert.c_var * cert.sigma_sq
    curvature = np.full(grid.shape, -np.inf)
    if np.any(finite):
        with np.errstate(over="ignore", divide="ignore"):
            curvature[finite] = np.asarray(family.variance(theta[finite]), dtype=float)
        lost = finite & ~((curvature > 0) & (curvature < np.inf))
        if np.any(lost):
            raise InvalidParameterError(
                f"{family._param_text()}: b'' at the mean {float(grid[np.argmax(lost)]):.6g} "
                "is not a positive float64, so the variance floor cannot be checked"
            )
    bad = curvature < floor - 1e-12 * max(1.0, floor)
    if np.any(bad):
        mu_bad = float(grid[np.argmax(bad)])
        raise AssumptionViolatedError(
            f"variance floor violated at mean {mu_bad}: "
            f"b''={curvature[np.argmax(bad)]:.6g} < {floor:.6g}",
            mu=mu_bad,
        )


def verify_variance_assumption(family: Family, bounds: ScoreBounds) -> VarianceCertificate:
    """Certificate for the variance floor on a sub-interval of ``bounds``.

    Returns the family's closed-form certificate after ``check_variance_floor``
    confirms the floor inequality on its mean grid.
    """
    cert = family.variance_certificate(bounds)
    check_variance_floor(family, cert)
    return cert


def family_from_dict(spec: dict[str, Any]) -> Family:
    """Build a family from its JSON form, e.g. {"kind": "binomial", "m": 10}.

    Keys other than ``kind`` and the family's declared parameter are refused.
    """
    cls = _FAMILIES.get(str(spec.get("kind", "")).lower())
    if cls is None:
        raise ValidationError(f"unknown family kind {spec.get('kind')!r}")
    param = cls.param
    keys = ("kind",) if param is None else ("kind", param.key)
    unknown = [key for key in spec if key not in keys]
    if unknown:
        raise ValidationError(f"family {cls.kind!r} takes no parameter {unknown[0]!r}")
    if param is None or (param.key not in spec and not param.required):
        return cls()
    if param.key not in spec:
        raise ValidationError(f"{cls.kind} family needs a parameter {param.key!r}")
    try:
        value = _as_number(spec[param.key], param.type)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if param.type is int else "a number"
        raise ValidationError(
            f"{cls.kind} family: {param.key} must be {what}, got {spec[param.key]!r}"
        ) from None
    return cls(**{param.field: value})


def family_from_spec(spec: str | dict[str, Any]) -> Family:
    """Parse 'poisson', 'gaussian:2.0', 'binomial:10', 'gamma:4', or the JSON form
    (a dict, or its text)."""
    if isinstance(spec, dict):
        return family_from_dict(spec)
    text = str(spec).strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"family spec is not valid JSON ({exc})") from None
        return family_from_dict(data)
    kind, _, param = text.partition(":")
    kind = kind.strip().lower()
    cls = _FAMILIES.get(kind)
    if cls is not None and cls.param is None and param.strip():
        raise ValidationError(f"family {kind!r} takes no parameter")
    if cls is None or cls.param is None:
        return family_from_dict({"kind": kind})
    if not param:
        raise ValidationError(f"family {kind!r} needs a parameter, e.g. '{kind}:10'")
    return family_from_dict({"kind": kind, cls.param.key: param.strip()})

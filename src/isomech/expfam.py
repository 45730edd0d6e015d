"""Canonical-form exponential families: Gaussian, Binomial, Poisson, Gamma.

Each family fixes its nuisance shape parameter (variance, trial count, shape)
and exposes the natural-parameter calculus

    density        p_theta(x) = exp(theta * x - b(theta)) * c(x)
    log-partition  b(theta)
    mean           mu = b'(theta)
    variance       b''(theta)

together with seeded sampling, of one draw or of the exact average of several,
and the KL divergence in closed form.  All math methods accept scalars or numpy
arrays and broadcast elementwise.  The carrier c(x) never needs a standalone
representation; it is folded into log_density.

Import policy: the package loads numpy and no scipy module at import.  Only
``log_density`` evaluates a density, and it loads ``scipy.special`` on first
use (see ``_gammaln``); ``scipy.optimize`` is loaded only by
``isotonic.project_descending_batch``.  Projection, the MLE, sampling, the
sweep and the review table never need either.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

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
    "kl_divergence_product",
]


def _gammaln(x):
    """log|Gamma(x)| by ``scipy.special.gammaln``, imported on first call."""
    from scipy.special import gammaln

    return gammaln(x)


def _as_float(x) -> np.ndarray | float:
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


class Family(ABC):
    """One canonical exponential family with its shape parameter fixed.

    Immutable and safe to share across threads.  Sampling always goes
    through an explicit ``numpy.random.Generator`` so that replaying a seed
    reproduces bit-identical draws.
    """

    kind: str

    # -- natural-parameter calculus -----------------------------------

    @abstractmethod
    def log_partition(self, theta):
        """b(theta); raises InvalidParameterError outside the domain."""

    @abstractmethod
    def mean(self, theta):
        """b'(theta)."""

    @abstractmethod
    def variance(self, theta):
        """b''(theta) > 0."""

    @abstractmethod
    def natural_param(self, mu, *, allow_boundary: bool = False):
        """(b')^{-1}(mu).

        Boundary means (where theta would be infinite) raise
        InvalidParameterError unless ``allow_boundary`` is set, in which
        case +/-inf sentinels are returned.
        """

    @abstractmethod
    def log_density(self, theta, x):
        """log p_theta(x); -inf for x outside the support (not an error)."""

    def kl_divergence(self, theta1, theta2):
        """KL(p_theta1 || p_theta2) = (theta1-theta2) b'(theta1) - b(theta1) + b(theta2)."""
        t1 = self._check_theta(theta1)
        t2 = self._check_theta(theta2)
        return (t1 - t2) * self.mean(t1) - self.log_partition(t1) + self.log_partition(t2)

    # -- sampling ------------------------------------------------------

    @abstractmethod
    def sample_mean(self, mu, rng: np.random.Generator, size=None, reps: int = 1):
        """Draw variates with mean ``mu``, each the average of ``reps`` iid draws.

        Every family here is closed under averaging, so one draw from the
        average's own law stands in for ``reps`` draws and their mean, exact
        in distribution.  Accepts the closed mean hull, including boundary
        means where the natural parameter would be infinite (the draw is then
        degenerate).
        """

    def sample(self, theta, rng: np.random.Generator, size=None):
        """Draw variates at natural parameter ``theta``."""
        return self.sample_mean(self.mean(self._check_theta(theta)), rng, size)

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

    @abstractmethod
    def sigma_max(self, bounds: ScoreBounds) -> float:
        """max of b'' over the natural parameters matching ``bounds`` (closed form)."""

    @abstractmethod
    def variance_certificate(self, bounds: ScoreBounds) -> VarianceCertificate:
        """Closed-form variance-floor certificate for ``bounds`` (not yet grid-checked)."""

    # -- serialization -----------------------------------------------------

    @abstractmethod
    def to_dict(self) -> dict[str, Any]: ...

    def __repr__(self) -> str:
        fields = {k: v for k, v in self.to_dict().items() if k != "kind"}
        inner = ", ".join(f"{k}={v}" for k, v in fields.items())
        return f"{type(self).__name__}({inner})"

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

    def __post_init__(self):
        if not (self.variance_param > 0 and math.isfinite(self.variance_param)):
            raise InvalidParameterError("Gaussian variance must be positive and finite")

    def log_partition(self, theta):
        t = self._check_theta(theta)
        return self.variance_param * t * t / 2.0

    def mean(self, theta):
        return self.variance_param * self._check_theta(theta)

    def variance(self, theta):
        t = self._check_theta(theta)
        if np.ndim(t):
            return np.full(np.shape(t), self.variance_param)
        return self.variance_param

    def natural_param(self, mu, *, allow_boundary: bool = False):
        arr = _as_float(mu)
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("mean must be finite")
        return arr / self.variance_param

    def log_density(self, theta, x):
        t = self._check_theta(theta)
        xv = _as_float(x)
        mu = self.variance_param * t
        return -((xv - mu) ** 2) / (2.0 * self.variance_param) - 0.5 * math.log(
            2.0 * math.pi * self.variance_param
        )

    def sample_mean(self, mu, rng, size=None, reps=1):
        # the mean of r draws is N(mu, sigma^2 / r)
        reps = self._check_reps(reps)
        arr = self.check_mean_hull(mu, "mean")
        return rng.normal(arr, math.sqrt(self.variance_param / reps), size=size)

    def mean_hull(self):
        return (-math.inf, math.inf)

    def sigma_max(self, bounds):
        self.validate_bounds(bounds)
        return self.variance_param

    def variance_certificate(self, bounds):
        self.validate_bounds(bounds)
        return VarianceCertificate(
            v_tilde_min=bounds.v_min,
            v_tilde_max=bounds.v_max,
            c_int=1.0,
            c_var=1.0,
            sigma_sq=self.sigma_max(bounds),
        )

    def to_dict(self):
        return {"kind": "gaussian", "variance": self.variance_param}


def _sigmoid(t):
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))  # never overflows
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True, repr=False)
class Binomial(Family):
    """Binomial(m, p) counts on {0, ..., m}; theta = log(p / (1 - p)), mu = m p."""

    trials: int = 1
    kind = "binomial"

    def __post_init__(self):
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise InvalidParameterError("Binomial trial count must be a positive integer")

    def log_partition(self, theta):
        t = np.asarray(self._check_theta(theta), dtype=float)
        # m * log(1 + e^t), evaluated as m * (max(t, 0) + log1p(e^{-|t|}))
        val = self.trials * (np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))))
        return val if val.ndim else float(val)

    def mean(self, theta):
        t = self._check_theta(theta)
        val = self.trials * _sigmoid(t)
        return val if np.ndim(t) else float(val)

    def variance(self, theta):
        t = self._check_theta(theta)
        s = _sigmoid(t)
        val = self.trials * s * (1.0 - s)
        return val if np.ndim(t) else float(val)

    def natural_param(self, mu, *, allow_boundary: bool = False):
        arr = np.asarray(self.check_mean_hull(mu, "mean"), dtype=float)
        m = float(self.trials)
        boundary = (arr == 0.0) | (arr == m)
        if np.any(boundary) and not allow_boundary:
            raise InvalidParameterError(
                f"mean on the boundary of (0, {self.trials}) has no finite theta"
            )
        with np.errstate(divide="ignore"):
            val = np.where(boundary, np.where(arr == 0.0, -np.inf, np.inf),
                           np.log(arr) - np.log(m - arr))
        return val if np.ndim(mu) else float(val)

    def log_density(self, theta, x):
        t = np.asarray(self._check_theta(theta), dtype=float)
        xv = np.asarray(x, dtype=float)
        support = (xv >= 0) & (xv <= self.trials) & (np.floor(xv) == xv)
        xs = np.where(support, xv, 0.0)
        m = float(self.trials)
        logpmf = (
            _gammaln(m + 1.0)
            - _gammaln(xs + 1.0)
            - _gammaln(m - xs + 1.0)
            + xs * t
            - self.trials * (np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))))
        )
        out = np.where(support, logpmf, -np.inf)
        return out if out.ndim else float(out)

    def sample_mean(self, mu, rng, size=None, reps=1):
        # r draws of Binomial(m, p) sum to one Binomial(r m, p)
        reps = self._check_reps(reps)
        arr = self.check_mean_hull(mu, "mean")
        p = np.asarray(arr, dtype=float) / self.trials
        return rng.binomial(reps * self.trials, p, size=size) / reps

    def mean_hull(self):
        return (0.0, float(self.trials))

    def sigma_max(self, bounds):
        self.validate_bounds(bounds)
        m = float(self.trials)
        # b'' = mu (m - mu) / m is concave with peak at mu = m/2
        mu_star = min(max(m / 2.0, bounds.v_min), bounds.v_max)
        return mu_star * (m - mu_star) / m

    def variance_certificate(self, bounds):
        self.validate_bounds(bounds)
        m = float(self.trials)
        lo = max(bounds.v_min, m / 4.0)
        hi = min(bounds.v_max, 3.0 * m / 4.0)
        cert = VarianceCertificate(
            v_tilde_min=lo, v_tilde_max=hi, c_int=0.5, c_var=0.75,
            sigma_sq=self.sigma_max(bounds),
        )
        _require_certificate_interval(cert, bounds)
        return cert

    def to_dict(self):
        return {"kind": "binomial", "m": int(self.trials)}


@dataclass(frozen=True, repr=False)
class Poisson(Family):
    """Poisson(lambda) counts; theta = log(lambda), b(theta) = e^theta."""

    kind = "poisson"

    def log_partition(self, theta):
        t = self._check_theta(theta)
        return np.exp(t)

    def mean(self, theta):
        return np.exp(self._check_theta(theta))

    def variance(self, theta):
        return np.exp(self._check_theta(theta))

    def natural_param(self, mu, *, allow_boundary: bool = False):
        arr = np.asarray(self.check_mean_hull(mu, "mean"), dtype=float)
        boundary = arr == 0.0
        if np.any(boundary) and not allow_boundary:
            raise InvalidParameterError("mean 0 has no finite theta for Poisson")
        with np.errstate(divide="ignore"):
            val = np.log(arr)
        return val if np.ndim(mu) else float(val)

    def log_density(self, theta, x):
        t = np.asarray(self._check_theta(theta), dtype=float)
        xv = np.asarray(x, dtype=float)
        support = (xv >= 0) & (np.floor(xv) == xv)
        xs = np.where(support, xv, 0.0)
        out = np.where(support, xs * t - np.exp(t) - _gammaln(xs + 1.0), -np.inf)
        return out if out.ndim else float(out)

    def sample_mean(self, mu, rng, size=None, reps=1):
        # r draws of Poisson(mu) sum to one Poisson(r mu)
        reps = self._check_reps(reps)
        arr = self.check_mean_hull(mu, "mean")
        return rng.poisson(reps * arr, size=size) / reps

    def mean_hull(self):
        return (0.0, math.inf)

    def sigma_max(self, bounds):
        self.validate_bounds(bounds)
        return bounds.v_max

    def variance_certificate(self, bounds):
        self.validate_bounds(bounds)
        cert = VarianceCertificate(
            v_tilde_min=max(bounds.v_min, bounds.v_max / 2.0),
            v_tilde_max=bounds.v_max,
            c_int=0.5, c_var=0.5,
            sigma_sq=self.sigma_max(bounds),
        )
        _require_certificate_interval(cert, bounds)
        return cert

    def to_dict(self):
        return {"kind": "poisson"}


@dataclass(frozen=True, repr=False)
class Gamma(Family):
    """Gamma with fixed shape m and free scale; theta = -1/scale < 0, mu = m * scale."""

    shape: float = 1.0
    kind = "gamma"

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise InvalidParameterError("Gamma shape must be positive and finite")

    def _check_theta(self, theta):
        arr = super()._check_theta(theta)
        if not np.all(np.asarray(arr) < 0):
            raise InvalidParameterError("Gamma natural parameter must be negative")
        return arr

    def log_partition(self, theta):
        t = self._check_theta(theta)
        val = -self.shape * np.log(-np.asarray(t, dtype=float))
        return val if np.ndim(t) else float(val)

    def mean(self, theta):
        t = self._check_theta(theta)
        return -self.shape / t

    def variance(self, theta):
        t = self._check_theta(theta)
        return self.shape / (t * t)

    def natural_param(self, mu, *, allow_boundary: bool = False):
        arr = np.asarray(self.check_mean_hull(mu, "mean"), dtype=float)
        boundary = arr == 0.0
        if np.any(boundary) and not allow_boundary:
            raise InvalidParameterError("mean 0 has no finite theta for Gamma")
        with np.errstate(divide="ignore"):
            val = np.where(boundary, -np.inf, -self.shape / np.where(boundary, 1.0, arr))
        return val if np.ndim(mu) else float(val)

    def log_density(self, theta, x):
        t = np.asarray(self._check_theta(theta), dtype=float)
        xv = np.asarray(x, dtype=float)
        support = xv > 0
        xs = np.where(support, xv, 1.0)
        out = np.where(
            support,
            (self.shape - 1.0) * np.log(xs) + t * xs
            + self.shape * np.log(-t) - _gammaln(self.shape),
            -np.inf,
        )
        return out if out.ndim else float(out)

    def sample_mean(self, mu, rng, size=None, reps=1):
        # the mean of r draws of Gamma(a, scale s) is Gamma(r a, scale s / r)
        reps = self._check_reps(reps)
        arr = np.asarray(self.check_mean_hull(mu, "mean"), dtype=float)
        if np.any(arr <= 0):
            raise InvalidParameterError("Gamma sampling needs a strictly positive mean")
        shape = reps * self.shape
        return rng.gamma(shape, scale=arr / shape, size=size)

    def mean_hull(self):
        # x = 0 is measure-zero but harmless as a data value (log-density -inf)
        return (0.0, math.inf)

    def sigma_max(self, bounds):
        self.validate_bounds(bounds)
        return bounds.v_max**2 / self.shape

    def variance_certificate(self, bounds):
        self.validate_bounds(bounds)
        cert = VarianceCertificate(
            v_tilde_min=max(bounds.v_min, bounds.v_max / 2.0),
            v_tilde_max=bounds.v_max,
            c_int=0.5, c_var=0.25,
            sigma_sq=self.sigma_max(bounds),
        )
        _require_certificate_interval(cert, bounds)
        return cert

    def to_dict(self):
        return {"kind": "gamma", "shape": float(self.shape)}


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


def check_variance_floor(
    family: Family, cert: VarianceCertificate, grid_points: int = 1024
) -> None:
    """Confirm b'' >= c_var * sigma_sq on a uniform mean grid over the certificate.

    Raises AssumptionViolatedError carrying the first offending mean.
    """
    if grid_points < 2:
        raise InvalidParameterError("grid_points must be at least 2")
    grid = np.linspace(cert.v_tilde_min, cert.v_tilde_max, grid_points)
    theta = family.natural_param(grid, allow_boundary=True)
    finite = np.isfinite(theta)
    floor = cert.c_var * cert.sigma_sq
    curvature = np.full(grid.shape, -np.inf)
    if np.any(finite):
        curvature[finite] = np.asarray(family.variance(theta[finite]), dtype=float)
    bad = curvature < floor - 1e-12 * max(1.0, floor)
    if np.any(bad):
        mu_bad = float(grid[np.argmax(bad)])
        raise AssumptionViolatedError(
            f"variance floor violated at mean {mu_bad}: "
            f"b''={curvature[np.argmax(bad)]:.6g} < {floor:.6g}",
            mu=mu_bad,
        )


def verify_variance_assumption(
    family: Family, bounds: ScoreBounds, grid_points: int = 1024
) -> VarianceCertificate:
    """Certificate for the variance floor on a sub-interval of ``bounds``.

    Returns the family's closed-form certificate after confirming the floor
    inequality on a uniform grid of ``grid_points`` means.
    """
    cert = family.variance_certificate(bounds)
    check_variance_floor(family, cert, grid_points)
    return cert


def kl_divergence_product(family: Family, theta1, theta2):
    """KL divergence between product distributions with per-coordinate parameters.

    Exactly the coordinate-wise sum, since KL is additive over independent
    coordinates.
    """
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    if t1.shape != t2.shape:
        raise ValidationError("parameter vectors must have equal length")
    return float(np.sum(family.kl_divergence(t1, t2)))


# Key of the parameter that the 'kind:param' spec form sets, per family kind.
_SPEC_PARAMS = {"gaussian": "variance", "binomial": "m", "poisson": None, "gamma": "shape"}


def _family_number(kind: str, key: str, value: Any, convert: type):
    try:
        return convert(value)
    except (TypeError, ValueError):
        what = "an integer" if convert is int else "a number"
        raise ValidationError(f"{kind} family: {key} must be {what}, got {value!r}") from None


def family_from_dict(spec: dict[str, Any]) -> Family:
    """Build a family from its JSON form, e.g. {"kind": "binomial", "m": 10}."""
    kind = str(spec.get("kind", "")).lower()
    if kind == "gaussian":
        variance = _family_number(kind, "variance", spec.get("variance", 1.0), float)
        return Gaussian(variance_param=variance)
    if kind == "binomial":
        if "m" not in spec:
            raise ValidationError("binomial family needs a trial count 'm'")
        return Binomial(trials=_family_number(kind, "m", spec["m"], int))
    if kind == "poisson":
        return Poisson()
    if kind == "gamma":
        if "shape" not in spec:
            raise ValidationError("gamma family needs a 'shape' parameter")
        return Gamma(shape=_family_number(kind, "shape", spec["shape"], float))
    raise ValidationError(f"unknown family kind {spec.get('kind')!r}")


def family_from_spec(spec: str) -> Family:
    """Parse 'poisson', 'gaussian:2.0', 'binomial:10', 'gamma:4', or a JSON object."""
    text = spec.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"family spec is not valid JSON ({exc})") from None
        return family_from_dict(data)
    kind, _, param = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _SPEC_PARAMS:
        raise ValidationError(f"unknown family kind {kind!r}")
    key = _SPEC_PARAMS[kind]
    if key is None:
        return Poisson()
    if not param:
        raise ValidationError(f"family {kind!r} needs a parameter, e.g. '{kind}:10'")
    return family_from_dict({"kind": kind, key: param.strip()})

"""Parametric sampling models: exponential families and finite categoricals.

Exponential families are parametrized in natural form,

    p_theta(x) = exp(theta * t(x) - C(theta))     w.r.t. a base measure,

so log-density ratios are affine in the sufficient statistic and moments of
ratio powers reduce to evaluations of the log-normalizer ``C``.  That closed
route is cross-checked against generic quadrature in the test suite.

The categorical model puts its mass on the atoms ``0, ..., k - 1``; its
parameter is the first ``k - 1`` masses directly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IntegrationError, ValidationError

INF = math.inf

#: subdivision cap for adaptive quadrature
QUAD_LIMIT = 200

#: absolute and relative tolerance of ``integrate_under``
INTEGRATE_TOL = 1e-10

#: hard ceiling for series summation over count supports
SERIES_CAP = 100_000


def _param_text(theta) -> str:
    """``theta`` in plain floats for a message: ``0.5`` or ``(1.0, 0.0)``."""
    values = np.asarray(theta, dtype=float)
    if values.ndim == 0:
        return repr(float(values))
    return repr(tuple(values.ravel().tolist()))


def _as_rng(seed_or_rng) -> np.random.Generator:
    return np.random.default_rng(seed_or_rng)


class ParametricModel:
    """Common interface of the shipped sampling models."""

    param_dim: int = 1

    def in_domain(self, theta) -> bool:
        raise NotImplementedError

    def check_domain(self, theta) -> None:
        if not self.in_domain(theta):
            raise DomainError(f"parameter {_param_text(theta)} outside the domain of the {self.token} model")

    def sample(self, theta, n: int, seed_or_rng) -> np.ndarray:
        raise NotImplementedError


class ExponentialFamilyModel(ParametricModel):
    """Natural exponential family with scalar parameter and statistic.

    A family writes its cumulant once, in ``cumulant``: ``C``, ``C'``,
    ``C''`` and the inverse of ``C'``, each a function ``f(theta, m)`` of a
    parameter (a mean for the inverse) and a module ``m``.  The scalar
    methods pass ``math`` and floats, the array methods ``numpy`` and
    arrays, so both evaluate one expression with their own arithmetic.
    """

    #: ``(C, C', C'', inverse of C')`` as functions ``f(theta, m)``
    cumulant: tuple

    #: open natural-parameter interval; the array mask tests only its upper
    #: end, the one end a shipped family (``exp_scale``) has finite
    theta_domain: tuple[float, float] = (-INF, INF)

    #: open range of ``C'``: the means ``solve_score`` accepts
    mean_range: tuple[float, float] = (-INF, INF)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # decided once per family: only a finite upper end of the domain
        # needs the masked array path, so whole-line families test nothing
        finite_end = math.isfinite(cls.theta_domain[1])
        cls._array = cls._masked_array if finite_end else cls._line_array

    def sufficient_stat(self, x):
        return np.asarray(x, dtype=float)

    def log_normalizer(self, theta) -> float:
        return self.cumulant[0](float(theta), math)

    def grad_log_normalizer(self, theta) -> float:
        return self.cumulant[1](float(theta), math)

    def hess_log_normalizer(self, theta) -> float:
        return self.cumulant[2](float(theta), math)

    def log_normalizer_array(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized ``C``; ``+inf`` outside the natural-parameter interval."""
        return self._array(0, theta)

    def grad_log_normalizer_array(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized ``grad C``; ``nan`` outside the natural-parameter interval."""
        return self._array(1, theta)

    def _line_array(self, form: int, theta) -> np.ndarray:
        # a float becomes a 0-d array, so ``**`` takes numpy's arithmetic too
        return self.cumulant[form](np.asarray(theta, dtype=float), np)

    def _masked_array(self, form: int, theta) -> np.ndarray:
        # the masked evaluation costs several times the plain one on the 0-d
        # values of the scalar criterion, so it runs only when some theta is
        # at or above the upper end (or NaN); a 0-d value skips the reduction
        theta = np.asarray(theta, dtype=float)
        hi = self.theta_domain[1]
        formula = self.cumulant[form]
        if float(theta) < hi if theta.ndim == 0 else (theta < hi).all():
            return formula(theta, np)
        out = np.full(theta.shape, INF if form == 0 else np.nan)
        inside = theta < hi
        out[inside] = formula(theta[inside], np)
        return out

    def in_domain(self, theta) -> bool:
        lo, hi = self.theta_domain
        return lo < float(theta) < hi

    def default_box(self, pilot):
        """Search box: half-width 3 around the pilot, clipped to 1e-8 inside
        the domain; elementwise, as two arrays, on an array of pilots."""
        pilot = np.asarray(pilot, dtype=float)
        if not np.all(pilot - 3.0 < pilot + 3.0):
            raise ValidationError(
                f"search box collapses: pilot {float(pilot[~(pilot - 3.0 < pilot + 3.0)][0])!r} +/- 3"
                " rounds to one float (the half-width is below the float resolution there)"
            )
        lo = np.maximum(pilot - 3.0, self.theta_domain[0] + 1e-8)
        hi = np.minimum(pilot + 3.0, self.theta_domain[1] - 1e-8)
        if not np.all(lo < hi):
            raise ValidationError("empty search box after clipping to the domain")
        return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)

    def log_density_ratio(self, theta, alpha, x):
        self.check_domain(theta)
        self.check_domain(alpha)
        t = self.sufficient_stat(np.asarray(x, dtype=float))
        return (theta - alpha) * t - self.log_normalizer(theta) + self.log_normalizer(alpha)

    def fisher_information(self, theta):
        self.check_domain(theta)
        return np.array([[self.hess_log_normalizer(theta)]])

    def solve_score(self, target: float) -> float:
        """Solve ``grad C(theta) = target`` in closed form.

        A target outside the open range of ``grad C`` (NaN, an infinity, a
        mean <= 0 for the positive families), or one whose parameter leaves
        the domain in floating point, raises ``DomainError``.
        """
        m = float(target)
        lo, hi = self.mean_range
        if not lo < m < hi:
            raise DomainError(f"mean {m!r} outside the range {self.mean_range} of the {self.token} model")
        theta = self.cumulant[3](m, math)
        self.check_domain(theta)
        return theta

    def pilot_estimate(self, points):
        """The moment estimate ``solve_score(mean t)``, a centre for search boxes."""
        return self.solve_score(float(np.mean(self.sufficient_stat(np.asarray(points, dtype=float)))))


class GaussianLocation(ExponentialFamilyModel):
    """Unit-variance Gaussian with unknown location.

    Natural form: ``t(x) = x`` and ``C(theta) = theta**2 / 2`` relative to
    the standard normal base measure.
    """

    token = "gauss_loc"
    cumulant = (
        lambda th, m: 0.5 * th ** 2,
        lambda th, m: th,
        lambda th, m: 1.0,
        lambda mean, m: mean,
    )

    def sample(self, theta, n, seed_or_rng):
        self.check_domain(theta)
        return _as_rng(seed_or_rng).normal(float(theta), 1.0, size=int(n))

    def integrate_under(self, theta, f):
        self.check_domain(theta)
        th = float(theta)

        def integrand(x):
            return f(x) * math.exp(-0.5 * (x - th) ** 2) / math.sqrt(2.0 * math.pi)

        return _quad(integrand, -INF)


class PoissonNatural(ExponentialFamilyModel):
    """Poisson counts in natural parametrization: intensity ``exp(theta)``."""

    token = "poisson"
    mean_range = (0.0, INF)
    cumulant = (
        lambda th, m: m.exp(th),
        lambda th, m: m.exp(th),
        lambda th, m: m.exp(th),
        lambda mean, m: m.log(mean),
    )

    def sample(self, theta, n, seed_or_rng):
        self.check_domain(theta)
        return _as_rng(seed_or_rng).poisson(math.exp(float(theta)), size=int(n)).astype(float)

    def integrate_under(self, theta, f):
        self.check_domain(theta)
        lam = math.exp(float(theta))
        log_mass = -lam
        acc = 0.0
        quiet = 0
        j = 0
        while j <= SERIES_CAP:
            term = f(float(j)) * math.exp(log_mass)
            acc += term
            if j > lam and abs(term) < INTEGRATE_TOL * max(1.0, abs(acc)):
                quiet += 1
                if quiet >= 8:
                    return acc
            else:
                quiet = 0
            j += 1
            log_mass += math.log(lam) - math.log(j)
        raise IntegrationError("Poisson series did not settle below tolerance", acc)


class ExponentialScale(ExponentialFamilyModel):
    """Exponential lifetimes in natural parametrization.

    Density ``-theta * exp(theta * x)`` on the positive half-line for
    ``theta < 0``; ``C(theta) = -log(-theta)`` and the mean is ``-1/theta``.
    """

    token = "exp_scale"
    theta_domain = (-INF, 0.0)
    mean_range = (0.0, INF)
    cumulant = (
        lambda th, m: -m.log(-th),
        lambda th, m: -1.0 / th,
        lambda th, m: 1.0 / th ** 2,
        lambda mean, m: -1.0 / mean,
    )

    def sample(self, theta, n, seed_or_rng):
        self.check_domain(theta)
        return _as_rng(seed_or_rng).exponential(-1.0 / float(theta), size=int(n))

    def integrate_under(self, theta, f):
        self.check_domain(theta)
        th = float(theta)

        def integrand(x):
            return f(x) * (-th) * math.exp(th * x)

        return _quad(integrand, 0.0)


class Categorical(ParametricModel):
    """Finite support model on the atoms ``0, ..., k - 1``.

    ``theta`` holds the first ``k - 1`` masses and the last mass is the
    complement.
    """

    token = "categorical"

    def __init__(self, k: int):
        if k < 2:
            raise ValidationError("categorical model needs at least two atoms")
        self.k = int(k)
        self.atoms = tuple(range(self.k))
        self._index = {a: i for i, a in enumerate(self.atoms)}
        self.param_dim = self.k - 1

    def __repr__(self):
        return f"Categorical(k={self.k})"

    def _theta_vec(self, theta) -> np.ndarray:
        vec = np.atleast_1d(np.asarray(theta, dtype=float))
        if vec.shape != (self.param_dim,):
            raise ValidationError(
                f"parameter must have length {self.param_dim}, got shape {vec.shape}"
            )
        return vec

    def probs(self, theta) -> np.ndarray:
        vec = self._theta_vec(theta)
        p = np.append(vec, 1.0 - vec.sum())
        # written so that a NaN entry fails both tests
        if not ((p > 0.0).all() and abs(p.sum() - 1.0) <= 1e-9):
            raise DomainError(f"parameter {_param_text(theta)} does not map to an interior probability vector")
        return p

    def in_domain(self, theta) -> bool:
        try:
            self.probs(theta)
            return True
        except (DomainError, ValidationError):
            return False

    def atom_index(self, x):
        x_arr = np.atleast_1d(x)
        try:
            idx = np.array([self._index[v] for v in x_arr.tolist()], dtype=int)
        except KeyError as err:
            raise ValidationError(f"point {err.args[0]!r} is not an atom of {self!r}") from None
        return idx if np.ndim(x) else int(idx[0])

    def sample(self, theta, n, seed_or_rng):
        p = self.probs(theta)
        rng = _as_rng(seed_or_rng)
        idx = rng.choice(self.k, size=int(n), p=p)
        return np.asarray(self.atoms, dtype=float)[idx]


def _quad(integrand, lower: float):
    """Adaptive quadrature of ``integrand`` from ``lower`` to ``+inf``."""
    from scipy import integrate

    tol = INTEGRATE_TOL
    value, err = integrate.quad(
        integrand, lower, np.inf, epsabs=tol, epsrel=tol, limit=QUAD_LIMIT, full_output=1
    )[:2]
    if err > max(tol, 1e-8 * max(1.0, abs(value))) * 10.0:
        raise IntegrationError(f"quadrature error estimate {err} above tolerance", value)
    return value


_MODEL_TOKENS = {
    "gauss_loc": GaussianLocation,
    "poisson": PoissonNatural,
    "exp_scale": ExponentialScale,
}


def make_model(token: str, **kwargs) -> ParametricModel:
    """Instantiate a model from its registry token."""
    if token == "categorical":
        if "k" not in kwargs:
            raise ValidationError("categorical model requires 'k'")
        return Categorical(**kwargs)
    try:
        cls = _MODEL_TOKENS[token]
    except KeyError:
        raise ValidationError(
            f"unknown model {token!r}; expected one of {sorted(_MODEL_TOKENS) + ['categorical']}"
        ) from None
    if kwargs:
        raise ValidationError(f"model {token!r} takes no extra parameters")
    return cls()

"""Parametric sampling models: exponential families and finite categoricals.

Exponential families are parametrized in natural form,

    p_theta(x) = exp(theta * t(x) - C(theta))     w.r.t. a base measure,

so log-density ratios are affine in the sufficient statistic and moments of
ratio powers reduce to evaluations of the log-normalizer ``C``.  That closed
route is cross-checked against generic quadrature in the test suite.

The categorical model carries ``k`` labelled atoms and a map from a
parameter vector to a strictly positive probability vector; by default the
parameter is the first ``k - 1`` masses directly.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    IntegrationError,
    ValidationError,
)

INF = math.inf

#: subdivision cap for adaptive quadrature
QUAD_LIMIT = 200

#: hard ceiling for series summation over count supports
SERIES_CAP = 100_000


def _as_rng(seed_or_rng) -> np.random.Generator:
    return np.random.default_rng(seed_or_rng)


class ParametricModel:
    """Common interface of the shipped sampling models."""

    param_dim: int = 1

    def in_domain(self, theta) -> bool:
        raise NotImplementedError

    def check_domain(self, theta) -> None:
        if not self.in_domain(theta):
            raise DomainError(f"parameter {theta!r} outside the domain of {self!r}")

    def log_density_ratio(self, theta, alpha, x):
        """``log(p_theta / p_alpha)`` at ``x`` (vectorized over ``x``)."""
        raise NotImplementedError

    def sample(self, theta, n: int, seed_or_rng) -> np.ndarray:
        raise NotImplementedError

    def integrate_under(self, theta, f: Callable, tol: float = 1e-10) -> float:
        """Integral of ``f`` against ``P_theta``."""
        raise NotImplementedError

    def fisher_information(self, theta) -> np.ndarray:
        raise NotImplementedError

    def pilot_estimate(self, points: np.ndarray, weights: np.ndarray | None = None):
        """Moment-based starting value for optimization boxes."""
        raise NotImplementedError

    def default_box(self, pilot):
        """Search box: half-width 3 around the pilot, clipped to the domain."""
        lo = float(pilot) - 3.0
        hi = float(pilot) + 3.0
        return self.clip_box(lo, hi)

    def clip_box(self, lo: float, hi: float):
        return (lo, hi)


class ExponentialFamilyModel(ParametricModel):
    """Natural exponential family with scalar parameter and statistic."""

    def sufficient_stat(self, x):
        raise NotImplementedError

    def log_normalizer(self, theta) -> float:
        raise NotImplementedError

    def grad_log_normalizer(self, theta) -> float:
        raise NotImplementedError

    def hess_log_normalizer(self, theta) -> float:
        raise NotImplementedError

    def log_normalizer_array(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized ``C``; ``+inf`` outside the natural-parameter interval."""
        raise NotImplementedError

    def grad_log_normalizer_array(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized ``grad C``; ``nan`` outside the natural-parameter interval."""
        raise NotImplementedError

    #: open natural-parameter interval
    theta_domain: tuple[float, float] = (-INF, INF)

    def in_domain(self, theta) -> bool:
        lo, hi = self.theta_domain
        return lo < float(theta) < hi

    def clip_box(self, lo, hi):
        dlo, dhi = self.theta_domain
        margin = 1e-8
        lo = max(lo, dlo + margin if math.isfinite(dlo) else lo)
        hi = min(hi, dhi - margin if math.isfinite(dhi) else hi)
        if not lo < hi:
            raise ValidationError("empty search box after clipping to the domain")
        return (lo, hi)

    def log_density_ratio(self, theta, alpha, x):
        self.check_domain(theta)
        self.check_domain(alpha)
        t = self.sufficient_stat(np.asarray(x, dtype=float))
        return (theta - alpha) * t - self.log_normalizer(theta) + self.log_normalizer(alpha)

    def fisher_information(self, theta):
        self.check_domain(theta)
        return np.array([[self.hess_log_normalizer(theta)]])

    def solve_score(self, target: float, tol: float = 1e-10, max_iter: int = 100) -> float:
        """Solve ``grad C(theta) = target`` by damped Newton."""
        theta = self.score_init(float(target))
        for _ in range(max_iter):
            g = self.grad_log_normalizer(theta) - target
            if abs(g) <= tol:
                return theta
            step = g / self.hess_log_normalizer(theta)
            new = theta - step
            # keep iterates inside the open natural-parameter interval
            while not self.in_domain(new):
                step *= 0.5
                new = theta - step
            theta = new
        g = self.grad_log_normalizer(theta) - target
        if abs(g) <= tol:
            return theta
        raise IntegrationError(f"score equation solve stalled at residual {g}", theta)

    def score_init(self, target: float) -> float:
        raise NotImplementedError

    def pilot_estimate(self, points, weights=None):
        points = np.asarray(points, dtype=float)
        t = self.sufficient_stat(points)
        if weights is None:
            mean_t = float(np.mean(t))
        else:
            weights = np.asarray(weights, dtype=float)
            total = float(np.sum(weights))
            # a nearly cancelled weight sum gives a useless ratio; fall back
            # to the unweighted moment
            if abs(total) < 0.1 * len(weights):
                mean_t = float(np.mean(t))
            else:
                mean_t = float(np.sum(weights * t) / total)
        try:
            return self.solve_score(self.project_mean(mean_t))
        except (DomainError, ValidationError):
            return self.solve_score(self.project_mean(float(np.mean(t))))

    def project_mean(self, m: float) -> float:
        """Clip a raw moment into the open range of ``grad C``."""
        return m


class GaussianLocation(ExponentialFamilyModel):
    """Unit-variance Gaussian with unknown location.

    Natural form: ``t(x) = x`` and ``C(theta) = theta**2 / 2`` relative to
    the standard normal base measure.
    """

    token = "gauss_loc"

    def sufficient_stat(self, x):
        return np.asarray(x, dtype=float)

    def log_normalizer(self, theta):
        return 0.5 * float(theta) ** 2

    def grad_log_normalizer(self, theta):
        return float(theta)

    def hess_log_normalizer(self, theta):
        return 1.0

    def log_normalizer_array(self, theta):
        return 0.5 * np.square(theta)

    def grad_log_normalizer_array(self, theta):
        return np.asarray(theta, dtype=float)

    def score_init(self, target):
        return target

    def sample(self, theta, n, seed_or_rng):
        self.check_domain(theta)
        return _as_rng(seed_or_rng).normal(float(theta), 1.0, size=int(n))

    def integrate_under(self, theta, f, tol=1e-10):
        self.check_domain(theta)
        th = float(theta)

        def integrand(x):
            return f(x) * math.exp(-0.5 * (x - th) ** 2) / math.sqrt(2.0 * math.pi)

        return _quad_real_line(integrand, tol)

    def cdf(self, theta, x):
        from scipy.special import ndtr

        self.check_domain(theta)
        return ndtr(np.asarray(x, dtype=float) - float(theta))


class PoissonNatural(ExponentialFamilyModel):
    """Poisson counts in natural parametrization: intensity ``exp(theta)``."""

    token = "poisson"

    def sufficient_stat(self, x):
        return np.asarray(x, dtype=float)

    def log_normalizer(self, theta):
        return math.exp(float(theta))

    def grad_log_normalizer(self, theta):
        return math.exp(float(theta))

    def hess_log_normalizer(self, theta):
        return math.exp(float(theta))

    def log_normalizer_array(self, theta):
        return np.exp(theta)

    grad_log_normalizer_array = log_normalizer_array

    def score_init(self, target):
        if target <= 0.0:
            raise DomainError("Poisson score target must be positive")
        return math.log(target)

    def project_mean(self, m):
        if m <= 0.0:
            raise DomainError("Poisson moment target must be positive")
        return m

    def sample(self, theta, n, seed_or_rng):
        self.check_domain(theta)
        return _as_rng(seed_or_rng).poisson(math.exp(float(theta)), size=int(n)).astype(float)

    def integrate_under(self, theta, f, tol=1e-10):
        self.check_domain(theta)
        lam = math.exp(float(theta))
        log_mass = -lam
        acc = 0.0
        quiet = 0
        j = 0
        while j <= SERIES_CAP:
            term = f(float(j)) * math.exp(log_mass)
            acc += term
            if j > lam and abs(term) < tol * max(1.0, abs(acc)):
                quiet += 1
                if quiet >= 8:
                    return acc
            else:
                quiet = 0
            j += 1
            log_mass += math.log(lam) - math.log(j)
        raise IntegrationError("Poisson series did not settle below tolerance", acc)

    def cdf(self, theta, x):
        from scipy.special import gammaincc

        self.check_domain(theta)
        lam = math.exp(float(theta))
        x = np.asarray(x, dtype=float)
        # regularized upper incomplete gamma gives the Poisson cdf exactly
        return np.where(x < 0.0, 0.0, gammaincc(np.floor(x) + 1.0, lam))


def _all_negative(theta: np.ndarray) -> bool:
    """``all(theta < 0)``, false for NaN; a 0-d value skips the array reduction."""
    return float(theta) < 0.0 if theta.ndim == 0 else bool((theta < 0.0).all())


class ExponentialScale(ExponentialFamilyModel):
    """Exponential lifetimes in natural parametrization.

    Density ``-theta * exp(theta * x)`` on the positive half-line for
    ``theta < 0``; ``C(theta) = -log(-theta)`` and the mean is ``-1/theta``.
    """

    token = "exp_scale"
    theta_domain = (-INF, 0.0)

    def sufficient_stat(self, x):
        return np.asarray(x, dtype=float)

    def log_normalizer(self, theta):
        return -math.log(-float(theta))

    def grad_log_normalizer(self, theta):
        return -1.0 / float(theta)

    def hess_log_normalizer(self, theta):
        return 1.0 / float(theta) ** 2

    # The masked ufuncs cost several times the plain ones on the 0-d values
    # of the scalar criterion, so they run only when some theta is outside.

    def log_normalizer_array(self, theta):
        theta = np.asarray(theta, dtype=float)
        if _all_negative(theta):
            return -np.log(-theta)
        return -np.log(-theta, out=np.full(theta.shape, -INF), where=theta < 0.0)

    def grad_log_normalizer_array(self, theta):
        theta = np.asarray(theta, dtype=float)
        if _all_negative(theta):
            return -1.0 / theta
        return np.divide(-1.0, theta, out=np.full(theta.shape, np.nan), where=theta < 0.0)

    def score_init(self, target):
        if target <= 0.0:
            raise DomainError("exponential-scale score target must be positive")
        return -1.0 / target

    def project_mean(self, m):
        if m <= 0.0:
            raise DomainError("exponential-scale moment target must be positive")
        return m

    def sample(self, theta, n, seed_or_rng):
        self.check_domain(theta)
        return _as_rng(seed_or_rng).exponential(-1.0 / float(theta), size=int(n))

    def integrate_under(self, theta, f, tol=1e-10):
        self.check_domain(theta)
        th = float(theta)

        def integrand(x):
            return f(x) * (-th) * math.exp(th * x)

        return _quad_half_line(integrand, tol)

    def cdf(self, theta, x):
        self.check_domain(theta)
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return np.where(x <= 0.0, 0.0, -np.expm1(float(theta) * x))


class Categorical(ParametricModel):
    """Finite support model with ``k`` labelled atoms.

    With the default direct parametrization ``theta`` holds the first
    ``k - 1`` masses and the last mass is the complement.  A custom
    ``prob_map`` may supply any smooth map from parameters to a strictly
    positive probability vector.
    """

    token = "categorical"

    def __init__(
        self,
        k: int,
        atoms: Sequence | None = None,
        prob_map: Callable | None = None,
        param_dim: int | None = None,
    ):
        if k < 2:
            raise ValidationError("categorical model needs at least two atoms")
        self.k = int(k)
        self.atoms = tuple(atoms) if atoms is not None else tuple(range(self.k))
        if len(self.atoms) != self.k:
            raise ValidationError("atom list length must equal k")
        if len(set(self.atoms)) != self.k:
            raise ValidationError("atoms must be distinct")
        self._index = {a: i for i, a in enumerate(self.atoms)}
        self._prob_map = prob_map
        self.param_dim = int(param_dim) if param_dim is not None else self.k - 1
        if prob_map is None and self.param_dim != self.k - 1:
            raise ValidationError("direct parametrization requires param_dim = k - 1")

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
        if self._prob_map is not None:
            p = np.asarray(self._prob_map(vec), dtype=float)
            if p.shape != (self.k,):
                raise ValidationError("prob_map must return a length-k vector")
        else:
            p = np.concatenate([vec, [1.0 - float(np.sum(vec))]])
        if np.any(p <= 0.0) or abs(float(np.sum(p)) - 1.0) > 1e-9:
            raise DomainError(f"parameter {theta!r} does not map to an interior probability vector")
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

    def log_density_ratio(self, theta, alpha, x):
        lp = np.log(self.probs(theta)) - np.log(self.probs(alpha))
        idx = self.atom_index(x)
        return lp[idx]

    def sample(self, theta, n, seed_or_rng):
        p = self.probs(theta)
        rng = _as_rng(seed_or_rng)
        idx = rng.choice(self.k, size=int(n), p=p)
        return np.asarray(self.atoms, dtype=float)[idx]

    def integrate_under(self, theta, f, tol=1e-10):
        p = self.probs(theta)
        return float(math.fsum(f(a) * pi for a, pi in zip(self.atoms, p)))

    def fisher_information(self, theta, step: float = 1e-6):
        """Information matrix of the probability map, by central differences."""
        vec = self._theta_vec(theta)
        p = self.probs(vec)
        jac = np.empty((self.k, self.param_dim))
        for a in range(self.param_dim):
            up = vec.copy()
            dn = vec.copy()
            up[a] += step
            dn[a] -= step
            jac[:, a] = (self.probs(up) - self.probs(dn)) / (2.0 * step)
        return jac.T @ (jac / p[:, None])

    def pilot_estimate(self, points, weights=None):
        idx = self.atom_index(np.asarray(points))
        if weights is None:
            weights = np.ones(len(idx))
        weights = np.asarray(weights, dtype=float)
        masses = np.zeros(self.k)
        np.add.at(masses, idx, weights)
        total = float(np.sum(masses))
        if total <= 0.0:
            masses = np.ones(self.k)
            total = float(self.k)
        freq = masses / total
        # keep the pilot strictly inside the simplex
        freq = np.clip(freq, 1e-3, None)
        freq = freq / np.sum(freq)
        if self._prob_map is not None:
            return np.zeros(self.param_dim)
        return freq[:-1]

    def default_box(self, pilot):
        pilot = np.atleast_1d(np.asarray(pilot, dtype=float))
        lo = np.clip(pilot - 3.0, 1e-6, 1.0 - 1e-6)
        hi = np.clip(pilot + 3.0, 1e-6, 1.0 - 1e-6)
        return (lo, hi)


def _quad_real_line(integrand, tol):
    from scipy import integrate

    value, err, info = integrate.quad(
        integrand, -np.inf, np.inf, epsabs=tol, epsrel=tol, limit=QUAD_LIMIT, full_output=1
    )[:3]
    if err > max(tol, 1e-8 * max(1.0, abs(value))) * 10.0:
        raise IntegrationError(f"quadrature error estimate {err} above tolerance", value)
    return value


def _quad_half_line(integrand, tol):
    from scipy import integrate

    value, err = integrate.quad(
        integrand, 0.0, np.inf, epsabs=tol, epsrel=tol, limit=QUAD_LIMIT
    )
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

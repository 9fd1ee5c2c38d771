"""Unit-mean, unit-variance weight laws and their Chernoff transforms.

Sampling statisticians replace the i.i.d. empirical measure by a weighted
one, ``(1/n) * sum_i W_i * delta_{x_i}``, with nonnegative-or-real weights
``W_i`` drawn independently with ``E W = Var W = 1``.  The large-deviation
behaviour of such weighted sums is governed by the Fenchel-Legendre
(Chernoff) transform of the cumulant generating function ``M(t) = log E
exp(t W)``:

    M*(x) = sup_t { t*x - M(t) }

Under the normalization ``E W = Var W = 1`` this transform is itself a
divergence generator: ``M*(1) = 0``, ``(M*)'(1) = 0`` and ``(M*)''(1) = 1``.
Three shipped laws reproduce power-family generators exactly:

    Poisson(1)     ->  x*log(x) - x + 1          (index 1)
    Exponential(1) ->  -log(x) + x - 1           (index 0)
    Normal(1, 1)   ->  (x - 1)**2 / 2            (index 2)

The fourth shipped law is a two-point law (shifted Bernoulli normalized to
mean 1 and variance 1) whose transform has a bounded domain; it exercises
the purely numerical code paths.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from ._optim import golden_max
from .divergences import INF, ConjugateSpec, CressieRead, DivergenceSpec, _check_order
from .errors import RootFindError, ValidationError

# Cumulant arguments beyond this magnitude overflow exp; the cgf is treated
# as +inf there.
CGF_TRUNCATION = 700.0

_NEWTON_MAX_ITER = 200


class WeightLaw(abc.ABC):
    """A weight distribution with unit mean and unit variance."""

    token: str

    #: open interval on which the cgf is finite
    cgf_domain: tuple[float, float]

    #: essential infimum and supremum of the weight variable
    support_bounds: tuple[float, float]

    @abc.abstractmethod
    def cgf(self, t: float) -> float:
        """Cumulant generating function; ``+inf`` outside ``cgf_domain``."""

    @abc.abstractmethod
    def cgf_prime(self, t: float) -> float:
        ...

    @abc.abstractmethod
    def cgf_second(self, t: float) -> float:
        ...

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. weights as a fresh float array.

        Draws split the stream: drawing ``a`` values and then ``b`` values
        from one generator gives the same values as drawing ``a + b`` at
        once, so a caller may draw one block in several consecutive calls.
        """

    @abc.abstractmethod
    def sample_sum(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw ``sum of count_i i.i.d. weights`` for each entry of ``counts``."""

    def boundary_log_mass(self, x: float) -> float | None:
        """``log P(W = x)`` at a support endpoint, ``None`` for zero mass."""
        return None

    def closed_form_induced(self) -> DivergenceSpec | None:
        """Power-family generator equal to the transform, when one exists."""
        return None

    def __repr__(self):  # tokens identify laws in configs and reports
        return f"{type(self).__name__}()"


class PoissonOne(WeightLaw):
    """Poisson weights with intensity 1."""

    token = "poisson1"
    cgf_domain = (-INF, CGF_TRUNCATION)
    support_bounds = (0.0, INF)

    def cgf(self, t):
        if t >= CGF_TRUNCATION:
            return INF
        return math.expm1(t)

    def cgf_prime(self, t):
        return math.exp(min(t, CGF_TRUNCATION))

    def cgf_second(self, t):
        return math.exp(min(t, CGF_TRUNCATION))

    def sample(self, n, rng):
        return rng.poisson(1.0, size=n).astype(float)

    def sample_sum(self, counts, rng):
        # a sum of m unit-intensity Poissons is Poisson(m)
        return rng.poisson(np.asarray(counts, dtype=float)).astype(float)

    def boundary_log_mass(self, x):
        return -1.0 if x == 0.0 else None

    def closed_form_induced(self):
        return CressieRead(1.0)


class ExponentialOne(WeightLaw):
    """Exponential weights with unit rate."""

    token = "exp1"
    cgf_domain = (-INF, 1.0)
    support_bounds = (0.0, INF)

    def cgf(self, t):
        if t >= 1.0:
            return INF
        return -math.log1p(-t)

    def cgf_prime(self, t):
        return 1.0 / (1.0 - t)

    def cgf_second(self, t):
        return 1.0 / (1.0 - t) ** 2

    def sample(self, n, rng):
        return rng.exponential(1.0, size=n)

    def sample_sum(self, counts, rng):
        # a sum of m unit-rate exponentials is Gamma(m, 1)
        return rng.gamma(np.asarray(counts, dtype=float))

    def closed_form_induced(self):
        return CressieRead(0.0)


class NormalOneOne(WeightLaw):
    """Gaussian weights with mean 1 and variance 1 (signed weights)."""

    token = "normal11"
    cgf_domain = (-INF, INF)
    support_bounds = (-INF, INF)

    def cgf(self, t):
        return t + 0.5 * t * t

    def cgf_prime(self, t):
        return 1.0 + t

    def cgf_second(self, t):
        return 1.0

    def sample(self, n, rng):
        return rng.normal(1.0, 1.0, size=n)

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts, dtype=float)
        return counts + np.sqrt(counts) * rng.standard_normal(counts.shape)

    def closed_form_induced(self):
        return CressieRead(2.0)


class ShiftedBernoulli(WeightLaw):
    """Two-point weights: 0 or 2 with probability 1/2 each.

    This is a fair Bernoulli shifted and scaled to mean 1 and variance 1.
    The Chernoff transform has the bounded domain ``[0, 2]`` and no
    power-family closed form, which makes this law the stress test for the
    numerical transform path.
    """

    token = "twopoint"
    cgf_domain = (-INF, INF)
    support_bounds = (0.0, 2.0)
    # the log mass of either point; math.log1p(-0.5) is the same double
    _LOG_HALF = math.log(0.5)

    def cgf(self, t):
        w0, w1 = self.support_bounds
        return np.logaddexp(self._LOG_HALF + t * w0, self._LOG_HALF + t * w1)

    def cgf_prime(self, t):
        w0, w1 = self.support_bounds
        a = self._LOG_HALF + t * w0
        b = self._LOG_HALF + t * w1
        m = max(a, b)
        ea, eb = math.exp(a - m), math.exp(b - m)
        return (w0 * ea + w1 * eb) / (ea + eb)

    def cgf_second(self, t):
        w0, w1 = self.support_bounds
        a = self._LOG_HALF + t * w0
        b = self._LOG_HALF + t * w1
        m = max(a, b)
        ea, eb = math.exp(a - m), math.exp(b - m)
        mean = (w0 * ea + w1 * eb) / (ea + eb)
        second = (w0 * w0 * ea + w1 * w1 * eb) / (ea + eb)
        return second - mean * mean

    def sample(self, n, rng):
        w0, w1 = self.support_bounds
        return np.where(rng.random(n) < 0.5, w1, w0)

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts)
        w0, w1 = self.support_bounds
        high = rng.binomial(counts.astype(np.int64), 0.5)
        return counts * w0 + (w1 - w0) * high

    def boundary_log_mass(self, x):
        w0, w1 = self.support_bounds
        if x == w0 or x == w1:
            return self._LOG_HALF
        return None


_LAWS = {
    "poisson1": PoissonOne,
    "exp1": ExponentialOne,
    "normal11": NormalOneOne,
    "twopoint": ShiftedBernoulli,
}


def weight_law(token: str) -> WeightLaw:
    """Instantiate a shipped weight law from its registry token."""
    try:
        return _LAWS[token]()
    except KeyError:
        raise ValidationError(
            f"unknown weight law {token!r}; expected one of {sorted(_LAWS)}"
        ) from None


def cgf(law: WeightLaw, t: float) -> float:
    """Cumulant generating function of ``law`` at ``t`` (``+inf`` off-domain)."""
    lo, hi = law.cgf_domain
    if not lo < t < hi:
        return INF
    return float(law.cgf(t))


def _bracket_mean(law: WeightLaw, x: float) -> tuple[float, float]:
    """Find ``[t_lo, t_hi]`` with ``M'(t_lo) <= x <= M'(t_hi)``."""
    lo_dom = max(law.cgf_domain[0], -CGF_TRUNCATION)
    hi_dom = min(law.cgf_domain[1], CGF_TRUNCATION)
    t = 0.0
    if law.cgf_prime(t) == x:
        return t, t
    if law.cgf_prime(t) < x:
        step = 1.0
        t_lo = t
        while True:
            t_hi = t_lo + step
            if t_hi >= hi_dom:
                # approach an open right endpoint geometrically
                t_hi = hi_dom - (hi_dom - t_lo) * 0.5 if hi_dom < CGF_TRUNCATION else hi_dom
            if law.cgf_prime(t_hi) >= x:
                return t_lo, t_hi
            t_lo = t_hi
            step *= 2.0
            if t_hi >= hi_dom - 1e-13 * max(1.0, abs(hi_dom)):
                raise RootFindError(f"M' never reaches {x} inside the cgf domain")
    step = 1.0
    t_hi = t
    while True:
        t_lo = max(t_hi - step, lo_dom)
        if law.cgf_prime(t_lo) <= x:
            return t_lo, t_hi
        t_hi = t_lo
        step *= 2.0
        if t_lo <= lo_dom:
            raise RootFindError(f"M' never reaches {x} inside the cgf domain")


def chernoff_argmax(law: WeightLaw, x: float) -> tuple[float, float]:
    """Return ``(M*(x), t*)`` with ``t*`` the maximizing cumulant argument.

    Safeguarded Newton on ``M'(t) = x`` inside a monotone bracket, with
    bisection steps whenever Newton leaves the bracket; golden-section on
    ``t*x - M(t)`` as a last resort.  Arguments outside the closed convex
    hull of the support give ``+inf``; at a support endpoint the supremum
    is the boundary limit ``-log P(W = x)`` (``+inf`` when the endpoint
    carries no mass).  NaN is invalid input.
    """
    if math.isnan(x):
        raise ValidationError(f"Chernoff transform of {law.token} needs a number, got {x!r}")
    w_min, w_max = law.support_bounds
    if x < w_min or x > w_max:
        return INF, INF if x > w_max else -INF
    if x == w_min or x == w_max:
        lm = law.boundary_log_mass(x)
        t_limit = -INF if x == w_min else INF
        return (INF, t_limit) if lm is None else (-lm, t_limit)

    t_lo, t_hi = _bracket_mean(law, x)
    t = 0.5 * (t_lo + t_hi)
    tol = 1e-10 * max(1.0, abs(x))
    for _ in range(_NEWTON_MAX_ITER):
        g = law.cgf_prime(t) - x
        if abs(g) <= tol:
            return t * x - cgf(law, t), t
        if g > 0.0:
            t_hi = t
        else:
            t_lo = t
        h = law.cgf_second(t)
        t_new = t - g / h if h > 0.0 else INF
        if not t_lo < t_new < t_hi:
            t_new = 0.5 * (t_lo + t_hi)
        t = t_new
    # Newton/bisection budget exhausted: fall back to a direct search of the
    # concave objective.
    t, _ = golden_max(lambda s: s * x - cgf(law, s), t_lo, t_hi, xtol=1e-13)
    if abs(law.cgf_prime(t) - x) > 1e-6 * max(1.0, abs(x)):
        raise RootFindError(f"Chernoff solve failed for {law.token} at x={x}")
    return t * x - cgf(law, t), t


def chernoff(law: WeightLaw, x: float) -> float:
    """Chernoff transform ``M*(x) = sup_t (t*x - M(t))`` of the weight law."""
    return chernoff_argmax(law, float(x))[0]


@dataclass(frozen=True)
class WeightInducedDivergence(DivergenceSpec):
    """Divergence generator realized as a numerical Chernoff transform.

    Derivatives come from the standard conjugacy identities: ``(M*)'(x)``
    is the maximizing argument ``t(x)`` and ``(M*)''(x) = 1 / M''(t(x))``.
    The sharp transform simplifies to ``M(t(x))``.
    """

    law: WeightLaw

    def value(self, x: float, order: int = 0) -> float:
        _check_order(order)
        val, t = chernoff_argmax(self.law, x)
        if order == 0:
            return val
        if math.isinf(val):
            return INF
        if order == 1:
            return t
        if math.isinf(t):
            return INF
        second = self.law.cgf_second(t)
        return INF if second == 0.0 else 1.0 / second

    def conjugate(self) -> DivergenceSpec:
        return ConjugateSpec(self)

    def sharp(self, x: float) -> float:
        return self._prime_sharp(x)[1]

    def prime_sharp_array(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(value_array(x, 1), sharp_array(x))`` from one Chernoff solve per point."""
        # transposed and copied, so each array is contiguous: BLAS rounds a strided dot differently
        pairs = np.array([self._prime_sharp(float(v)) for v in np.ravel(x)], dtype=float).reshape(-1, 2).T.copy()
        return pairs[0].reshape(np.shape(x)), pairs[1].reshape(np.shape(x))

    def _prime_sharp(self, x: float) -> tuple[float, float]:
        val, t = chernoff_argmax(self.law, x)
        if math.isinf(val):
            return INF, INF
        if math.isinf(t):
            # boundary atom: x*phi'(x) - phi(x) degenerates to M at the limit
            return t, (x * t - val if x != 0.0 else -val)
        return t, cgf(self.law, t)


def induced_divergence(law: WeightLaw) -> DivergenceSpec:
    """Divergence generator whose values equal the law's Chernoff transform.

    Laws with a power-family closed form return the exact
    :class:`CressieRead` member; the others the transform-based
    :class:`WeightInducedDivergence`.
    """
    closed = law.closed_form_induced()
    if closed is not None:
        return closed
    return WeightInducedDivergence(law)


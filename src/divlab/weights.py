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
Every shipped law has its transform in closed form:

    Poisson(1)     ->  x*log(x) - x + 1          (power index 1)
    Exponential(1) ->  -log(x) + x - 1           (power index 0)
    Normal(1, 1)   ->  (x - 1)**2 / 2            (power index 2)
    two-point      ->  (x/2)*log(x) + (1 - x/2)*log(2 - x)

The two-point law puts mass 1/2 on 0 and on 2.  Its transform is the
Bernoulli relative entropy ``KL(Bern(x/2) || Bern(1/2))`` (Cramer's
theorem), finite only on the bounded domain ``[0, 2]``.  The maximizing
argument ``t(x)`` of the supremum is the generator's derivative.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .divergences import INF, CressieRead, DivergenceSpec
from .errors import ValidationError

_LOG2 = math.log(2.0)


def _near_far(near, far):
    """One table form from a near and a far expression in x, u = x - 1 and ``m``.

    The near one holds for |u| < 1/2: there u is exact and the log forms in x
    cancel.  The far one holds elsewhere: there u drops the low bits of x or 2 - x.
    """
    def form(x, m):
        u = x - 1.0
        if m is math:
            return (near if abs(u) < 0.5 else far)(x, u, m)
        # each expression is finite on its own half, whose values are kept
        return np.where(np.abs(u) < 0.5, near(x, u, m), far(x, u, m))
    return form


# phi, phi', phi'' and phi# of the two-point transform on (0, 2)
_TWO_POINT_FORMS = (
    _near_far(
        lambda x, u, m: 0.5 * (u * m.log1p(2.0 * u / (1.0 - u)) + m.log1p(-u * u)),
        lambda x, u, m: 0.5 * (x * m.log(x) + (2.0 - x) * m.log(2.0 - x)),
    ),
    _near_far(
        lambda x, u, m: 0.5 * m.log1p(2.0 * u / (1.0 - u)),
        lambda x, u, m: 0.5 * (m.log(x) - m.log(2.0 - x)),
    ),
    # phi'' overflows to +inf below about 1e-308, in both paths
    lambda x, m: 1.0 / (x * (2.0 - x)),
    lambda x, m: -m.log1p(1.0 - x),
)
# (phi, phi', phi'', phi#) at the domain ends 0 and 2 by continuity
_TWO_POINT_ENDS = {0.0: (_LOG2, -INF, INF, -_LOG2), 2.0: (_LOG2, INF, INF, INF)}


@dataclass(frozen=True)
class TwoPointTransform(DivergenceSpec):
    """The two-point law's transform ``KL(Bern(x/2) || Bern(1/2))`` as a generator.

    ``phi'(x) = atanh(x - 1)``, ``phi''(x) = 1 / (x (2 - x))`` and
    ``phi#(x) = -log(2 - x)`` on ``(0, 2)``; ``phi = log 2`` at both ends,
    and every form is ``+inf`` outside ``[0, 2]``.
    """

    def __post_init__(self):
        # the open interval (0, 2) between its nearest floats
        self._set_table(_TWO_POINT_FORMS, math.ulp(0.0), math.nextafter(2.0, 0.0), _TWO_POINT_ENDS)


class WeightLaw(abc.ABC):
    """A weight distribution with unit mean and unit variance."""

    token: str

    #: essential infimum and supremum of the weight variable
    support_bounds: tuple[float, float]

    #: the Chernoff transform of the law as a divergence generator
    induced: DivergenceSpec

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

    def __repr__(self):  # tokens identify laws in configs and reports
        return f"{type(self).__name__}()"


class PoissonOne(WeightLaw):
    """Poisson weights with intensity 1."""

    token = "poisson1"
    support_bounds = (0.0, INF)
    induced = CressieRead(1.0)

    def sample(self, n, rng):
        return rng.poisson(1.0, size=n).astype(float)

    def sample_sum(self, counts, rng):
        # a sum of m unit-intensity Poissons is Poisson(m)
        return rng.poisson(np.asarray(counts, dtype=float)).astype(float)


class ExponentialOne(WeightLaw):
    """Exponential weights with unit rate."""

    token = "exp1"
    support_bounds = (0.0, INF)
    induced = CressieRead(0.0)

    def sample(self, n, rng):
        return rng.exponential(1.0, size=n)

    def sample_sum(self, counts, rng):
        # a sum of m unit-rate exponentials is Gamma(m, 1)
        return rng.gamma(np.asarray(counts, dtype=float))


class NormalOneOne(WeightLaw):
    """Gaussian weights with mean 1 and variance 1 (signed weights)."""

    token = "normal11"
    support_bounds = (-INF, INF)
    induced = CressieRead(2.0)

    def sample(self, n, rng):
        return rng.normal(1.0, 1.0, size=n)

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts, dtype=float)
        return counts + np.sqrt(counts) * rng.standard_normal(counts.shape)


class ShiftedBernoulli(WeightLaw):
    """Two-point weights: 0 or 2 with probability 1/2 each.

    This is a fair Bernoulli shifted and scaled to mean 1 and variance 1.
    Its Chernoff transform has the bounded domain ``[0, 2]``.
    """

    token = "twopoint"
    support_bounds = (0.0, 2.0)
    induced = TwoPointTransform()

    def sample(self, n, rng):
        w0, w1 = self.support_bounds
        return np.where(rng.random(n) < 0.5, w1, w0)

    def sample_sum(self, counts, rng):
        counts = np.asarray(counts)
        w0, w1 = self.support_bounds
        high = rng.binomial(counts.astype(np.int64), 0.5)
        return counts * w0 + (w1 - w0) * high


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


def chernoff_argmax(law: WeightLaw, x: float) -> tuple[float, float]:
    """Return ``(M*(x), t*)`` with ``t*`` the maximizing cumulant argument.

    Both come from the closed form: ``M*`` is the induced generator and
    ``t* = (M*)'(x)``.  Arguments outside the closed convex hull of the
    support give ``M* = +inf``; at or below the support's lower end the
    supremum is approached as ``t -> -inf``.  NaN is invalid input.
    """
    if math.isnan(x):
        raise ValidationError(f"Chernoff transform of {law.token} needs a number, got {x!r}")
    phi = law.induced
    t_star = -INF if x <= law.support_bounds[0] else phi.value(x, 1)
    return phi.value(x), t_star


def chernoff(law: WeightLaw, x: float) -> float:
    """Chernoff transform ``M*(x) = sup_t (t*x - M(t))`` of the weight law."""
    return chernoff_argmax(law, float(x))[0]


def induced_divergence(law: WeightLaw) -> DivergenceSpec:
    """Divergence generator whose values equal the law's Chernoff transform:
    the exact :class:`CressieRead` member for the three power-family laws,
    :class:`TwoPointTransform` for the two-point law."""
    return law.induced

"""Power-type divergence generators and divergences between cell masses.

The central object is a convex ``generator`` function ``phi`` on an interval,
normalized so that ``phi(1) = phi'(1) = 0`` and ``phi''(1) > 0``.  A generator
induces a (pseudo)distance between a measure ``Q`` and a reference measure
``P`` with ``Q`` absolutely continuous w.r.t. ``P``:

    D_phi(Q, P) = sum_x phi(dQ/dP(x)) P(x)        (finite supports)

The one-parameter power family implemented here is, for index ``g`` outside
``{0, 1}``,

    phi_g(x) = (x**g - g*x + g - 1) / (g * (g - 1))

with the continuous limits ``phi_0(x) = -log(x) + x - 1`` (likelihood
divergence) and ``phi_1(x) = x*log(x) - x + 1`` (Kullback-Leibler).  The
index ``g = 2`` gives the half chi-square ``(x - 1)**2 / 2``, the only member
extended to arguments of arbitrary sign; ``g = 1/2`` is self-conjugate
(Hellinger-type).  The L1 distance is excluded: it does not arise from a
smooth generator of this family.

Conjugation maps a generator to ``x * phi(1/x)`` and swaps the two arguments
of the induced divergence.  On the power family it acts as ``g -> 1 - g``.

The ``sharp`` transform ``phi#(x) = x * phi'(x) - phi(x)`` is the building
block of the dual (variational) representation used by the estimation module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
import numpy as np

from .errors import ValidationError

INF = math.inf

# Indices closer than this to 0 or 1 are evaluated with the exact limit
# branch; the power form is numerically dead there.
GAMMA_LIMIT_TOL = 1e-9

_ORDERS = (0, 1, 2)
_SHARP = 3  # index of phi# in a table's forms

# Each branch's phi, phi', phi'' and phi# (in that order) given the index
# ``g``, each ``f(x, m)`` with ``m`` the math module for a float and numpy for
# an array: the float and array paths evaluate one expression with their own
# arithmetic.
_FORMULAS = {
    "log": lambda g: (
        lambda x, m: -m.log(x) + x - 1.0,
        lambda x, m: 1.0 - 1.0 / x,
        lambda x, m: 1.0 / (x * x),
        lambda x, m: m.log(x),
    ),
    "xlogx": lambda g: (
        lambda x, m: x * m.log(x) - x + 1.0,
        lambda x, m: m.log(x),
        lambda x, m: 1.0 / x,
        lambda x, m: x - 1.0,
    ),
    "chi2": lambda g: (
        lambda x, m: 0.5 * (x - 1.0) ** 2,
        lambda x, m: x - 1.0,
        lambda x, m: x ** 0,  # 1.0, shaped like x
        lambda x, m: 0.5 * (x * x - 1.0),
    ),
    "power": lambda g: (
        lambda x, m: (x ** g - g * x + g - 1.0) / (g * (g - 1.0)),
        lambda x, m: (x ** (g - 1.0) - 1.0) / (g - 1.0),
        lambda x, m: x ** (g - 2.0),
        lambda x, m: (x ** g - 1.0) / g,
    ),
}


class DivergenceSpec:
    """Abstract convex generator with evaluation up to second order.

    A generator is its table, set at construction by :meth:`_set_table`:
    its forms phi, phi', phi'' and phi#, each ``f(x, m)`` as in ``_FORMULAS``;
    the closed float interval ``[lo, hi]`` where they hold (an open end is
    its nearest float inside); and ``ends``, the four values by continuity
    at each point outside it where the generator has them.  Every form is
    ``+inf`` elsewhere, NaN included, rather than raising; the optimizers in
    this package treat infinite objective values as rejected points.  Where
    float arithmetic raises or gives NaN (overflow, a square underflowing to
    zero, ``inf - inf``), the float path returns the array path's value,
    where a NaN maps to ``+inf``, its limit.
    """

    def value(self, x: float, order: int = 0) -> float:
        if order not in _ORDERS:  # checked inline: scalar calls are hot loops
            _check_order(order)
        return self._scalar(x, order)

    def conjugate(self) -> "DivergenceSpec":
        """The generator ``x * phi(1/x)``, which swaps the divergence's arguments."""
        return ConjugateSpec(self)

    def sharp(self, x: float) -> float:
        """Return ``x * phi'(x) - phi(x)``, ``+inf`` outside the domain."""
        return self._scalar(x, _SHARP)

    def value_array(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        _check_order(order)
        return self._array(x, order)

    def sharp_array(self, x: np.ndarray) -> np.ndarray:
        return self._array(x, _SHARP)

    def prime_sharp_array(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(value_array(x, 1), sharp_array(x))``, for callers that need both."""
        return self.value_array(x, 1), self.sharp_array(x)

    def _set_table(self, forms: tuple, lo: float, hi: float, ends: dict) -> None:
        # on the instance, where the float path reads it faster than on the
        # class; as no dataclass field, unseen by equality, hashing and repr
        for name, entry in zip(("_forms", "_lo", "_hi", "_ends"), (forms, lo, hi, ends)):
            object.__setattr__(self, name, entry)

    def __reduce__(self):
        # the forms are lambdas, which pickle cannot name: rebuild from the fields
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def _scalar(self, x: float, form: int) -> float:
        if self._lo <= x <= self._hi:
            try:
                v = self._forms[form](x, math)
                if v == v:
                    return v
            except (OverflowError, ZeroDivisionError):
                pass
            return float(self._array(np.array([x]), form)[0])
        end = self._ends.get(x)
        return INF if end is None else end[form]

    def _array(self, x: np.ndarray, form: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, INF)
        inside = (x >= self._lo) & (x <= self._hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[inside] = self._forms[form](x[inside], np)
        out[np.isnan(out)] = INF
        for end, values in self._ends.items():
            out[x == end] = values[form]
        return out


def _check_order(order: int) -> None:
    if order not in _ORDERS:
        raise ValidationError(f"derivative order must be one of {_ORDERS}, got {order}")


@dataclass(frozen=True)
class CressieRead(DivergenceSpec):
    """Power-family generator with a finite index ``gamma``.

    Domain: positive reals for every index, with 0 included when the
    generator stays finite there (indices above 0); all reals for the
    half chi-square index 2.  ``branch`` names the evaluation branch the
    index selects ("log", "xlogx", "chi2" or "power"), decided once at
    construction.
    """

    gamma: float

    def __post_init__(self):
        # "log" and "xlogx" are the exact limits at 0 and 1.  "chi2"'s forms
        # hold on the whole extended line; every other branch's hold on x > 0,
        # +inf included, and take (phi, phi', phi'', phi#) at 0 by continuity.
        # ``branch`` is not a dataclass field, so equality, hashing and repr
        # see only the index.
        g = self.gamma
        if not math.isfinite(g):
            raise ValidationError(f"the power index must be finite, got {g!r}")
        if abs(g) < GAMMA_LIMIT_TOL:
            branch, ends = "log", {0.0: (INF, INF, INF, INF)}
        elif abs(g - 1.0) < GAMMA_LIMIT_TOL:
            branch, ends = "xlogx", {0.0: (1.0, -INF, INF, -1.0)}
        elif g == 2.0:
            branch, ends = "chi2", {}
        else:
            branch, ends = "power", {0.0: (
                1.0 / g if g > 0.0 else INF,
                -1.0 / (g - 1.0) if g > 1.0 else -INF,
                0.0 if g > 2.0 else INF,
                -1.0 / g if g > 0.0 else INF,
            )}
        object.__setattr__(self, "branch", branch)
        self._set_table(_FORMULAS[branch](g), -INF if branch == "chi2" else math.ulp(0.0), INF, ends)

    def conjugate(self) -> "CressieRead":
        return CressieRead(1.0 - self.gamma)


@dataclass(frozen=True)
class ConjugateSpec(DivergenceSpec):
    """Generic conjugate ``x * base(1/x)`` of a generator without closed form.

    Its table reads the base's own evaluator at ``y = 1/x``: ``x base(y)``,
    ``-base#(y)``, ``base''(y) y**3`` and ``-base'(y)``, on the ``x > 0``
    whose ``y`` lies in the base's domain, its ends included.  Where the base
    is finite at 0, ``x = +inf`` takes the limits ``(+inf, -base#(0), 0,
    -base'(0))``.
    """

    base: DivergenceSpec

    def __post_init__(self):
        b = self.base

        def at(x, m, k):  # the base's form k at y = 1/x, through its own evaluator
            return (b._scalar if m is math else b._array)(1.0 / x, k)

        # the base's domain: its interval and the ends where it is finite
        ys = [b._lo, b._hi, *(y for y, end in b._ends.items() if end[0] < INF)]
        lo = max(1.0 / max(ys), math.ulp(0.0))
        hi = min(1.0 / max(min(ys), math.ulp(0.0)), math.nextafter(INF, 0.0))
        while 1.0 / lo > max(ys):  # where 1/x rounds back across an end
            lo = math.nextafter(lo, INF)
        while 1.0 / hi < min(ys):
            hi = math.nextafter(hi, 0.0)
        self._set_table((
            lambda x, m: x * at(x, m, 0),
            lambda x, m: -at(x, m, _SHARP),
            lambda x, m: at(x, m, 2) * (y := 1.0 / x) * y * y,  # y**3 overflows above 5.6e102
            lambda x, m: -at(x, m, 1),
        ), lo, hi, {INF: (INF, -b._scalar(0.0, _SHARP), 0.0, -b._scalar(0.0, 1))} if min(ys) <= 0.0 else {})

    def conjugate(self) -> DivergenceSpec:
        return self.base


def cell_divergence(spec: DivergenceSpec, q, p) -> float:
    """``sum_j p_j phi(q_j / p_j)`` over aligned cell masses ``q`` and ``p``.

    A null cell of ``p`` adds the limit ``0 * phi(q_j / 0) = q_j phi'(inf)``
    (Liese & Vajda, *Convex Statistical Distances*, 1987), where ``phi'(inf) =
    spec.value(INF, 1)``: nothing for ``q_j = 0``, ``+inf`` for ``q_j < 0``.
    A ratio outside the generator's domain, or an infinite term, makes the
    divergence ``+inf``.  Terms are summed in cell order.
    """
    total = 0.0
    for qj, pj in zip(q, p):
        if pj == 0.0:
            v = 0.0 if qj == 0.0 else qj * spec.value(INF, 1) if qj > 0.0 else INF
        else:
            v = pj * spec.value(qj / pj, 0)
        if math.isinf(v):
            return INF
        total += v
    return float(total)

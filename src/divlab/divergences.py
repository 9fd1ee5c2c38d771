"""Power-type divergence generators and finite-support divergence values.

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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

INF = math.inf

# Indices closer than this to 0 or 1 are evaluated with the exact limit
# branch; the power form is numerically dead there.
GAMMA_LIMIT_TOL = 1e-9

_ORDERS = (0, 1, 2)

# Each branch's phi, phi', phi'' and phi# (in that order) on the branch's
# open domain: x > 0, or every real for "chi2".  ``log`` is math.log for a
# float and np.log for an array, so the scalar and array paths evaluate the
# same expression with their own arithmetic.
_FORMULAS = {
    "log": (
        lambda x, g, log: -log(x) + x - 1.0,
        lambda x, g, log: 1.0 - 1.0 / x,
        lambda x, g, log: 1.0 / (x * x),
        lambda x, g, log: log(x),
    ),
    "xlogx": (
        lambda x, g, log: x * log(x) - x + 1.0,
        lambda x, g, log: log(x),
        lambda x, g, log: 1.0 / x,
        lambda x, g, log: x - 1.0,
    ),
    "chi2": (
        lambda x, g, log: 0.5 * (x - 1.0) ** 2,
        lambda x, g, log: x - 1.0,
        lambda x, g, log: x ** 0,  # 1.0, shaped like x
        lambda x, g, log: 0.5 * (x * x - 1.0),
    ),
    "power": (
        lambda x, g, log: (x ** g - g * x + g - 1.0) / (g * (g - 1.0)),
        lambda x, g, log: (x ** (g - 1.0) - 1.0) / (g - 1.0),
        lambda x, g, log: x ** (g - 2.0),
        lambda x, g, log: (x ** g - 1.0) / g,
    ),
}

_SHARP = 3  # index of phi# in a _FORMULAS row


class DivergenceSpec:
    """Abstract convex generator with evaluation up to second order.

    Out-of-domain evaluations return ``+inf`` rather than raising; the
    optimizers in this package treat infinite objective values as rejected
    points.
    """

    def value(self, x: float, order: int = 0) -> float:
        raise NotImplementedError

    def conjugate(self) -> "DivergenceSpec":
        raise NotImplementedError

    def sharp(self, x: float) -> float:
        """Return ``x * phi'(x) - phi(x)``, ``+inf`` outside the domain."""
        raise NotImplementedError

    def prime_inverse(self, y: float) -> float:
        """Inverse of ``phi'``.

        Values of ``y`` at or beyond the range of ``phi'`` map to the
        corresponding domain endpoint (0 or ``+inf``); callers clip the
        result to their feasible box.
        """
        lo, hi = 1e-12, 1e12
        f = lambda x: self.value(x, order=1) - y
        flo, fhi = f(lo), f(hi)
        if flo >= 0.0:
            return 0.0
        if fhi <= 0.0:
            return INF
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * max(1.0, lo):
                break
        return 0.5 * (lo + hi)

    # Vector helpers used by the estimation hot loops.  Subclasses with
    # closed forms override these with array arithmetic.
    def value_array(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        return np.array([self.value(float(v), order) for v in np.ravel(x)]).reshape(np.shape(x))

    def sharp_array(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.sharp(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))

    def prime_sharp_array(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(value_array(x, 1), sharp_array(x))``, for callers that need both."""
        return self.value_array(x, 1), self.sharp_array(x)


def _check_order(order: int) -> None:
    if order not in _ORDERS:
        raise ValidationError(f"derivative order must be one of {_ORDERS}, got {order}")


@dataclass(frozen=True)
class CressieRead(DivergenceSpec):
    """Power-family generator with index ``gamma``.

    Domain: positive reals for every index, with 0 included when the
    generator stays finite there (indices above 0); all reals for the
    half chi-square index 2.  ``branch`` names the evaluation branch the
    index selects ("log", "xlogx", "chi2" or "power"), decided once at
    construction.

    Scalar and array evaluation share one formula per branch and form.
    Where float arithmetic raises or gives NaN (overflow, a square
    underflowing to zero, ``inf - inf``), the scalar returns what the array
    path returns; there ``phi`` maps an ``inf - inf`` to ``+inf``, its limit.
    """

    gamma: float

    def __post_init__(self):
        # "log" and "xlogx" are the exact limits at 0 and 1.  ``at_zero``
        # holds (phi, phi', phi'', phi#) at x = 0 by continuity; "chi2"
        # needs none, its formulas hold on the whole line.  None of the
        # attributes set here is a dataclass field, so equality, hashing
        # and repr see only the index.
        g = self.gamma
        if abs(g) < GAMMA_LIMIT_TOL:
            branch, at_zero = "log", (INF, INF, INF, INF)
        elif abs(g - 1.0) < GAMMA_LIMIT_TOL:
            branch, at_zero = "xlogx", (1.0, -INF, INF, -1.0)
        elif g == 2.0:
            branch, at_zero = "chi2", None
        else:
            branch, at_zero = "power", (
                1.0 / g if g > 0.0 else INF,
                -1.0 / (g - 1.0) if g > 1.0 else -INF,
                0.0 if g > 2.0 else INF,
                -1.0 / g if g > 0.0 else INF,
            )
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "_at_zero", at_zero)
        object.__setattr__(self, "_forms", _FORMULAS[branch])

    def __reduce__(self):
        # ``_forms`` holds lambdas, which pickle cannot name: rebuild from the index
        return CressieRead, (self.gamma,)

    def value(self, x: float, order: int = 0) -> float:
        if order not in _ORDERS:  # checked inline: scalar calls are hot loops
            _check_order(order)
        return self._scalar(x, order)

    def conjugate(self) -> "CressieRead":
        return CressieRead(1.0 - self.gamma)

    def sharp(self, x: float) -> float:
        return self._scalar(x, _SHARP)

    def prime_inverse(self, y: float) -> float:
        g = self.gamma
        branch = self.branch
        if branch == "chi2":
            return y + 1.0
        if branch == "log":
            return 1.0 / (1.0 - y) if y < 1.0 else INF
        if branch == "xlogx":
            return math.exp(min(y, 700.0))
        base = 1.0 + (g - 1.0) * y
        if base <= 0.0:
            return 0.0 if g > 1.0 else INF
        try:
            return base ** (1.0 / (g - 1.0))
        except OverflowError:
            return INF

    def value_array(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        _check_order(order)
        return self._array(x, order)

    def sharp_array(self, x: np.ndarray) -> np.ndarray:
        return self._array(x, _SHARP)

    def _scalar(self, x: float, form: int) -> float:
        at_zero = self._at_zero
        if x > 0.0 or at_zero is None:
            try:
                v = self._forms[form](x, self.gamma, math.log)
                if v == v:
                    return v
            except (OverflowError, ZeroDivisionError):
                pass
            return float(self._array(np.array([x]), form)[0])
        return at_zero[form] if x == 0.0 else INF

    def _array(self, x: np.ndarray, form: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        formula = self._forms[form]
        at_zero = self._at_zero
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if at_zero is None:
                out = formula(x, self.gamma, np.log)
            else:
                out = np.full_like(x, INF)
                pos = x > 0.0
                out[pos] = formula(x[pos], self.gamma, np.log)
                out[x == 0.0] = at_zero[form]
        if form == 0:
            out = np.where(np.isnan(out), INF, out)
        return out


@dataclass(frozen=True)
class ConjugateSpec(DivergenceSpec):
    """Generic conjugate ``x * base(1/x)`` of a generator without closed form.

    Derivatives follow from the product rule:

        conj'(x)  = base(1/x) - (1/x) * base'(1/x)
        conj''(x) = base''(1/x) / x**3
        conj#(x)  = -base'(1/x)
    """

    base: DivergenceSpec

    def value(self, x: float, order: int = 0) -> float:
        _check_order(order)
        if not x > 0.0:
            return INF
        inv = 1.0 / x
        if order == 0:
            return x * self.base.value(inv)
        if order == 1:
            if inv == 0.0:
                # x = inf: inv * base'(inv) is 0 * (-inf) when base'(0) = -inf,
                # but for a convex base finite at 0 it tends to 0
                return self.base.value(0.0)
            return self.base.value(inv) - inv * self.base.value(inv, 1)
        # one factor 1/x at a time: x**3 overflows above about 5.6e102, and
        # inf * 0 at x = inf maps to +inf as phi's NaN does
        v = self.base.value(inv, 2) * inv * inv * inv
        return INF if v != v else v

    def conjugate(self) -> DivergenceSpec:
        return self.base

    def sharp(self, x: float) -> float:
        if not x > 0.0:
            return INF
        return -self.base.value(1.0 / x, 1)


def eval_phi(spec: DivergenceSpec, x: float, order: int = 0) -> float:
    """Evaluate the generator or one of its first two derivatives at ``x``."""
    _check_order(order)
    return spec.value(float(x), order)


def conjugate(spec: DivergenceSpec) -> DivergenceSpec:
    """Return the conjugate generator ``x * phi(1/x)``."""
    return spec.conjugate()


def phi_sharp(spec: DivergenceSpec, x: float) -> float:
    """Return ``x * phi'(x) - phi(x)`` at ``x`` (``+inf`` outside the domain)."""
    return spec.sharp(float(x))


@dataclass(frozen=True)
class FiniteMeasure:
    """Finitely supported measure with labelled atoms.

    Masses are kept exactly as given; no hidden normalization.  Signed
    masses are allowed (weighted empirical measures produce them), but
    several consumers require nonnegative reference masses and validate
    on entry.
    """

    support: tuple
    masses: tuple

    def __post_init__(self):
        support = tuple(self.support)
        masses = tuple(float(m) for m in self.masses)
        if len(support) != len(masses):
            raise ValidationError("support and masses must have equal length")
        if len(set(support)) != len(support):
            raise ValidationError("support labels must be distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def from_probs(cls, probs: Iterable[float]) -> "FiniteMeasure":
        """Masses ``probs`` on the atoms ``0, ..., len(probs) - 1``."""
        probs = tuple(float(p) for p in probs)
        return cls(tuple(range(len(probs))), probs)

    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def mass(self, label) -> float:
        try:
            return self.masses[self.support.index(label)]
        except ValueError:
            return 0.0

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.masses))


def cell_divergence(spec: DivergenceSpec, q, p) -> float:
    """``sum_j p_j phi(q_j / p_j)`` over aligned cell masses ``q`` and ``p``.

    A shared null cell (``q_j = p_j = 0``) contributes nothing; mass of
    ``q`` on a null cell of ``p``, or a ratio outside the generator's
    domain, makes the divergence ``+inf``.  Terms are summed in cell order.
    """
    total = 0.0
    for qj, pj in zip(q, p):
        if pj == 0.0:
            if qj != 0.0:
                return INF
            continue
        v = spec.value(qj / pj, 0)
        if math.isinf(v):
            return INF
        total += pj * v
    return float(total)


def divergence_finite(spec: DivergenceSpec, q: FiniteMeasure, p: FiniteMeasure) -> float:
    """Divergence ``sum phi(q_i/p_i) p_i`` of ``q`` from reference ``p``.

    Supports are unioned and follow :func:`cell_divergence`'s conventions.
    Negative reference masses are rejected.
    """
    if any(m < 0.0 for m in p.masses):
        raise ValidationError("reference measure must have nonnegative masses")
    pd, qd = p.as_dict(), q.as_dict()
    labels = list(pd) + [label for label in qd if label not in pd]
    return cell_divergence(spec, [qd.get(a, 0.0) for a in labels], [pd.get(a, 0.0) for a in labels])

"""Dual (variational) divergence estimation from weighted samples.

For a generator ``phi`` and model densities ``p_theta``, the divergence of
``P_theta`` from the sampling distribution admits the dual representation

    D_phi(P_theta, P) = sup_alpha  int h(theta, alpha, x) dP(x)

with the integrand built from the first derivative and the sharp transform
of the generator:

    h(theta, alpha, x) = int phi'(p_theta/p_alpha) dP_theta
                         - phi#((p_theta/p_alpha)(x)).

Substituting a weighted empirical measure ``(1/n) sum W_i delta_{x_i}``
for ``P`` gives a plug-in estimator of the divergence; its minimizer over
``theta`` is the minimum dual divergence estimator.  That minimizer is the
root of the weighted score equation, the maximum likelihood estimate under
weighted sampling (Broniatowski & Keziou, JMVA 2009), so it is taken in
closed form and certified by the inner supremum at the root: in closed form
on a finite support, by the one golden-section search otherwise.  For the
weighted maximum likelihood pipeline the generator passed in must be the
conjugate of the generator induced by the weight law, so that the estimated
quantity is the divergence of the sampling distribution from ``P_theta``.

Signed weights are allowed; evaluations that escape the generator's domain
contribute through the extended-real convention: a value that overflows
towards ``+inf`` scores, so a search finds where the supremum is infinite,
while NaN, ``-inf`` and an ``alpha`` whose lead integral diverges are
rejected points, counted in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import BRACKET, batch_golden_max, maximize_scalar, stencil
from .divergences import INF, CressieRead, DivergenceSpec, cell_divergence
from .errors import DomainError, NumericError, ValidationError
from .models import Categorical, ExponentialFamilyModel, ParametricModel
from .reporting import Record

#: inner-gradient norm below which a categorical estimate counts as converged
_GRAD_TOL = 1e-6

#: largest inner supremum, in absolute value, that certifies an estimate:
#: the criterion is 0 at ``alpha = theta``, and at a saddle that is its
#: supremum, up to rounding
_SUP_TOL = 1e-9


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """``(1/n) sum_i W_i delta_{x_i}``; not necessarily a probability measure.

    The integral of ``f`` is exactly ``(1/n) sum_i W_i f(x_i)``.  Unit
    weights recover the ordinary empirical measure.
    """

    points: tuple
    weights: tuple

    def __post_init__(self):
        points = tuple(float(p) for p in self.points)
        weights = tuple(float(w) for w in self.weights)
        if len(points) != len(weights):
            raise ValidationError("points and weights must have equal length")
        if len(points) < 1:
            raise ValidationError("a weighted empirical measure needs at least one point")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def plain(cls, points) -> "WeightedEmpiricalMeasure":
        points = tuple(float(p) for p in points)
        return cls(points, (1.0,) * len(points))

    @property
    def n(self) -> int:
        return len(self.points)

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class EstimateReport(Record):
    """Result of a minimum dual divergence estimation."""

    theta_hat: float | tuple
    alpha_hat: float | tuple
    value: float
    converged: bool
    inner_grad_norm: float
    rejected_evaluations: int = 0


def divergence_between(model: ParametricModel, spec: DivergenceSpec, theta, theta_prime) -> float:
    """Population divergence ``int phi(p_theta / p_theta') dP_theta'``.

    Closed forms cover finite supports and power generators on
    exponential families; anything else integrates numerically under
    ``theta_prime``.
    """
    if isinstance(model, Categorical):
        return cell_divergence(spec, model.probs(theta), model.probs(theta_prime))
    if isinstance(spec, CressieRead) and isinstance(model, ExponentialFamilyModel):
        model.check_domain(theta)
        model.check_domain(theta_prime)
        if spec.branch == "log":
            # the likelihood divergence is Kullback-Leibler with the
            # arguments swapped (index 0 is the conjugate of index 1)
            spec, theta, theta_prime = spec.conjugate(), theta_prime, theta
        # int phi_g(r) dP_theta' = lead_g(theta, theta') / g, and the
        # Kullback-Leibler divergence is the index-1 lead itself
        lead, _ = _expfam_power_dual(model, spec, theta, theta_prime)
        return float(lead if spec.branch == "xlogx" else lead / spec.gamma)

    def integrand(x):
        return _guarded_ratio_eval(model, spec, theta, theta_prime, x, 0)

    try:
        return model.integrate_under(theta_prime, integrand)
    except _InfiniteIntegrand:
        return INF


class _InfiniteIntegrand(Exception):
    """Raised inside quadrature when the generator is infinite on a
    probed region, signalling an infinite integral."""


def _guarded_ratio_eval(model, spec, theta, alpha, x, order: int) -> float:
    lr = float(model.log_density_ratio(theta, alpha, x))
    # Ratios beyond e^150 or below e^-150 sit where a density has already
    # underflowed to zero, so a finite clamp keeps the quadrature product at
    # zero (a zero ratio would meet phi'(0) = -inf); bounded-domain generators
    # still evaluate to +inf at the clamp and flag a truly infinite integral.
    r = math.exp(min(max(lr, -150.0), 150.0))
    v = spec.value(r, order)
    if math.isinf(v):
        raise _InfiniteIntegrand
    return v


def _expfam_power_dual(model: ExponentialFamilyModel, spec: CressieRead, theta, alpha, t=None):
    """Closed-form pieces ``(lead, sharp)`` of the dual criterion.

    For a natural exponential family the log ratio ``log(p_theta/p_alpha)``
    is affine in the sufficient statistic, and

        int (p_theta/p_alpha)**u dP_theta
            = exp(u*(C(alpha) - C(theta)) + C(theta + u*(theta - alpha)) - C(theta)),

    so for the power generator of index ``g`` the lead
    ``int phi_g'(p_theta/p_alpha) dP_theta`` and the sharp transform
    ``phi_g#((p_theta/p_alpha)(x))`` at sufficient statistics ``t`` are
    both functions of ``C``.  ``theta`` and ``alpha`` broadcast against
    ``t``.  The lead is infinite when the tilted parameter leaves the
    natural domain or its integral overflows; ``sharp`` is ``None``
    without ``t``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lead, C_t, C_a = _power_lead(model, spec, theta, alpha)
        if t is None:
            return lead, None
        lr = (theta - alpha) * t - C_t + C_a
        if spec.branch == "log":
            sharp = lr
        elif spec.branch == "xlogx":
            sharp = np.expm1(lr)
        else:
            sharp = np.expm1(spec.gamma * lr) / spec.gamma
    return lead, sharp


def _power_lead(model: ExponentialFamilyModel, spec: CressieRead, theta, alpha):
    """The lead of :func:`_expfam_power_dual` and the normalizers ``C(theta)``,
    ``C(alpha)`` it is built from, as ``(lead, C_t, C_a)``, under the
    caller's error state."""
    C_t = model.log_normalizer_array(theta)
    C_a = model.log_normalizer_array(alpha)
    if spec.branch == "xlogx":
        lead = (theta - alpha) * model.grad_log_normalizer_array(theta) - C_t + C_a
    elif spec.branch == "log":
        # int (1 - p_alpha/p_theta) dP_theta = 0 on a common support
        lead = 0.0
    else:
        u = spec.gamma - 1.0
        expo = u * (C_a - C_t) + model.log_normalizer_array(theta + u * (theta - alpha)) - C_t
        lead = np.expm1(expo) / u
    return lead, C_t, C_a


def _phi_prime_mean(model: ExponentialFamilyModel, spec: DivergenceSpec, theta, alpha) -> float:
    """``int phi'(p_theta/p_alpha) dP_theta`` by quadrature: the lead of a
    generator without closed form (the ``"expfam"`` criterion kind)."""

    def integrand(x):
        return _guarded_ratio_eval(model, spec, theta, alpha, x, 1)

    try:
        return model.integrate_under(theta, integrand)
    except _InfiniteIntegrand:
        return INF


def _categorical_dual(model: Categorical, spec: DivergenceSpec, theta, alpha, masses: np.ndarray, wbar) -> float:
    """Categorical dual criterion at ``(theta, alpha)`` against cell masses
    ``masses`` with mean weight ``wbar``: ``wbar lead - sum_j masses_j phi#(ratio_j)``.

    A parameter off the simplex interior, an infinite lead or a non-finite
    value gives ``-inf``, a rejected point.
    """
    try:
        p_t = model.probs(theta)
        p_a = model.probs(alpha)
    except DomainError:
        return -INF
    prime, sharp = spec.prime_sharp_array(p_t / p_a)
    if not np.all(np.isfinite(prime)):
        return -INF
    with np.errstate(invalid="ignore", over="ignore"):
        # the lead is sum_j phi'(ratio_j) p_theta_j; an einsum or the written-out
        # sum of the tail differs from np.dot in the last bit
        value = wbar * float(np.sum(prime * p_t)) - float(np.dot(masses, sharp))
    return value if math.isfinite(value) else -INF


class _DualCriterion:
    """Precomputed objective ``(theta, alpha) -> int h d(mu)`` for one measure.

    The integral splits as ``mu(S) * mean-phi'(theta, alpha) - (1/n) sum
    W_i phi#(ratio_i)``; the second term is vectorized over the sample.
    A closed-form value that is not finite takes its extended value from
    :func:`_extended`.  A quadrature lead that is not finite diverged and
    is rejected, as a diverging closed-form lead is; any other value that
    is not finite is rejected (``-inf``) and counted unless ``+inf``.  On a
    categorical model the criterion is :func:`_categorical_dual`.
    """

    def __init__(self, model: ParametricModel, spec: DivergenceSpec, mu: WeightedEmpiricalMeasure):
        self.model = model
        self.spec = spec
        self.mu = mu
        self.rejected = 0
        self.w = mu.weights_array()
        self.wbar = float(np.mean(self.w))
        if isinstance(model, Categorical):
            idx = model.atom_index(mu.points_array())
            masses = np.zeros(model.k)
            np.add.at(masses, idx, self.w)
            self.atom_masses = masses / mu.n
            self._kind = "categorical"
        elif isinstance(model, ExponentialFamilyModel):
            self.t_stat = model.sufficient_stat(mu.points_array())
            self._kind = "power" if isinstance(spec, CressieRead) else "expfam"
        else:  # pragma: no cover - no other shipped model kinds
            raise ValidationError(f"unsupported model {model!r}")

    def __call__(self, theta, alpha) -> float:
        kind = self._kind
        if kind == "categorical":
            value = _categorical_dual(self.model, self.spec, theta, alpha, self.atom_masses, self.wbar)
            self.rejected += int(value == -INF)
            return value
        if kind == "power":
            lead, sharp = _expfam_power_dual(self.model, self.spec, theta, alpha, self.t_stat)
        else:
            lead = _phi_prime_mean(self.model, self.spec, theta, alpha)
            if not math.isfinite(lead):
                self.rejected += 1
                return -INF
            lr = (
                (theta - alpha) * self.t_stat
                - self.model.log_normalizer(theta)
                + self.model.log_normalizer(alpha)
            )
            sharp = self.spec.sharp_array(np.exp(lr))
        # np.mean's bits (pairwise sum, then divide) without its overhead; a
        # zero weight on an infinite term is NaN, a rejected point, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            tail = float(np.add.reduce(self.w * sharp)) / self.mu.n
            value = self.wbar * lead - tail
        if math.isfinite(value):
            return value
        if kind == "power":
            value = float(_extended(self.model, self.spec, np.array([theta]), np.array([alpha]),
                                    self.t_stat[None, :], self.w[None, :], np.array([value]), np.array([lead]))[0])
        if value != INF:
            self.rejected += 1
            return -INF
        return value

    def root(self):
        """The weighted score root: ``solve_score(sum w t / sum w)`` on an
        exponential family, the weighted cell masses over their sum (all but
        the last) on a categorical model.

        Raises :class:`NumericError` when the model holds no root: a weight
        sum <= 0, a weighted mean outside the range of ``C'``, or a cell
        whose weighted mass is not positive.
        """
        if self._kind == "categorical":
            masses = self.atom_masses
            if not (masses > 0.0).all():
                raise NumericError(
                    f"weighted cell masses {tuple(masses.tolist())} are not all positive:"
                    " no weighted root inside the simplex"
                )
            return (masses / np.sum(masses))[:-1]
        total = np.sum(self.w)
        if not total > 0.0:
            raise NumericError(f"weight sum {float(total)!r} is not positive: no weighted score root")
        try:
            return self.model.solve_score(float(np.sum(self.w * self.t_stat) / total))
        except DomainError as err:
            raise NumericError(f"no weighted score root in the model: {err}") from None


def _extended(model: ExponentialFamilyModel, spec: CressieRead, theta, alpha, t, w, value, lead) -> np.ndarray:
    """The extended-real criterion of rows whose float ``value`` is not
    finite, one row of ``t`` and ``w`` each: ``+inf``, or ``-inf`` for a
    rejected point (a parameter outside the domain, a lead integral that
    diverges, or NaN).  The lead ``wbar (e^E - 1) / (g - 1)`` (index ``g``
    outside {0, 1}, ``E`` the exponent of :func:`_power_lead`) diverges
    where the tilted parameter ``theta + (g - 1)(theta - alpha)`` leaves the
    domain, so ``E`` is not finite: such an ``alpha`` lies outside the set
    on which the dual criterion is defined (Broniatowski & Keziou, JMVA
    2009), and is rejected.  A finite ``E`` past the float range overflowed;
    against the tail ``sum_i w_i (e^(g l_i) - 1) / (n g)``, ``l_i = log
    r_i``, the ``- 1`` terms are then negligible, and the sign is that of
    both terms scaled by ``e^-M``, ``M`` the larger of ``E`` and the largest
    weighted ``g l_i``."""
    with np.errstate(all="ignore"):
        C_t = model.log_normalizer_array(theta)
        C_a = model.log_normalizer_array(alpha)
        if spec.branch not in ("log", "xlogx"):
            g = spec.gamma
            u = g - 1.0
            expo = u * (C_a - C_t) + model.log_normalizer_array(theta + u * (theta - alpha)) - C_t
            glr = np.where(w != 0.0, g * ((theta - alpha)[:, None] * t + (C_a - C_t)[:, None]), -INF)
            top = np.max(glr, axis=1)
            d = expo - top
            scaled = (np.mean(w, axis=1) / u * np.exp(np.minimum(d, 0.0))
                      - np.mean(w * np.exp(glr - top[:, None]), axis=1) / g * np.exp(np.minimum(-d, 0.0)))
            value = np.where(np.isinf(lead), np.where(np.isfinite(expo), np.sign(scaled) * INF, -INF), value)
        return np.where(np.isfinite(C_t) & np.isfinite(C_a) & ~np.isnan(value), value, -INF)


def _stated_set(model: ExponentialFamilyModel, spec: DivergenceSpec, theta):
    """The alpha set of the certificate at the root ``theta``, elementwise:
    ``default_box(theta)``, searched where the criterion is defined, in
    ``Theta_theta``, the parameters whose lead integral is finite
    (Broniatowski & Keziou, JMVA 2009).  For a power index ``g`` outside
    {0, 1} the tilted parameter ``theta + (g - 1)(theta - alpha)`` must lie
    in the domain; an end of ``Theta_theta`` inside the box becomes an end
    of the searched set, 1e-8 inside as the box's ends are, so the search
    evaluates the criterion next to it (on exp_scale at ``g > 1`` the
    criterion grows without bound as alpha falls to ``g theta / (g - 1)``)."""
    lo, hi = model.default_box(theta)
    if isinstance(spec, CressieRead) and spec.branch not in ("log", "xlogx"):
        u = spec.gamma - 1.0
        ends = [((1.0 + u) * theta - end) / u for end in model.theta_domain]
        lo = np.maximum(lo, np.minimum(*ends) + 1e-8)
        hi = np.minimum(hi, np.maximum(*ends) - 1e-8)
    return lo, hi


def _certified(alpha, sup, lo, hi):
    """The one certificate of an exponential-family estimate, elementwise:
    ``sup``, the largest criterion value :func:`batch_golden_max` evaluated
    at ``theta_hat`` over ``[lo, hi]``, the :func:`_stated_set` of
    ``theta_hat``, is within ``_SUP_TOL`` of 0, and its argument ``alpha``
    is off the set's edge, more than the search's final bracket from ``lo``
    and ``hi``."""
    reach = BRACKET * (hi - lo)
    return (np.abs(sup) <= _SUP_TOL) & (alpha - lo > reach) & (hi - alpha > reach)


def _categorical_sup(crit: _DualCriterion, theta):
    """``(sup_alpha h(theta, alpha), argmax alpha)`` on a categorical model.

    With cell masses ``m``, ``wbar = sum m`` and ``p = p_theta``, cell ``j``
    adds ``wbar p_j phi'(r_j) - m_j phi#(r_j)``, ``r_j = p_j / alpha_j``.  For
    ``m_j > 0`` it peaks at ``alpha_j = m_j / wbar`` with the value ``m_j
    phi(wbar p_j / m_j)``; those alphas sum to one, so the supremum is ``wbar
    cell_divergence(spec, p, m / wbar)`` (Broniatowski & Keziou, JMVA 2009),
    an empty cell included: it rises towards ``wbar p_j phi'(inf)`` as
    ``alpha_j`` falls to 0, :func:`cell_divergence`'s null-cell term.  A
    negative cell rises towards ``wbar p_j phi'(inf) - m_j phi#(inf)``,
    ``+inf`` when a limit it uses is; finite limits, or ``wbar <= 0``, have
    no closed form and raise :class:`NumericError`.
    """
    p, m = crit.model.probs(theta), crit.atom_masses
    wbar, charged = float(np.sum(m)), m > 0.0
    if wbar > 0.0:
        alpha = np.where(charged, m, 0.0) / float(np.sum(m[charged]))
        if not np.any(m < 0.0):
            return wbar * cell_divergence(crit.spec, p, alpha), alpha[:-1]
        if math.isinf(crit.spec.value(INF, 1)) or math.isinf(crit.spec.sharp(INF)):
            return INF, alpha[:-1]
    raise NumericError(f"weighted cell masses {tuple(m.tolist())}: no closed-form dual supremum")


def estimate_phi_dual(
    model: ParametricModel,
    spec: DivergenceSpec,
    theta,
    mu: WeightedEmpiricalMeasure,
):
    """Plug-in dual divergence estimate at fixed ``theta``.

    Returns ``(sup_alpha int h(theta, alpha, .) dmu, argmax alpha)``.  On a
    categorical model the supremum is in closed form (:func:`_categorical_sup`).
    On an exponential family it is searched over the model's box around the
    weighted score root; when the weights nearly cancel (``|sum w| < 0.1
    n``) or the model holds no weighted root, the box is centred on the
    unweighted moment estimate, so a fixed-``theta`` estimate never needs a
    root.
    """
    crit = _DualCriterion(model, spec, mu)
    if crit._kind == "categorical":
        return _categorical_sup(crit, theta)
    centre = None
    if abs(np.sum(crit.w)) >= 0.1 * mu.n:
        try:
            centre = crit.root()
        except NumericError:
            pass
    lo, hi = model.default_box(model.pilot_estimate(mu.points_array()) if centre is None else centre)
    alpha, value = maximize_scalar(lambda a: crit(float(theta), a), lo, hi)
    return value, alpha


def minimum_dual_estimator(
    model: ParametricModel,
    spec: DivergenceSpec,
    mu: WeightedEmpiricalMeasure,
) -> EstimateReport:
    """The minimum dual divergence estimate: the weighted score root, certified.

    The estimate is :meth:`_DualCriterion.root`, raising
    :class:`NumericError` when the model holds no root.  The criterion is 0
    at ``alpha = theta`` and stationary in ``alpha`` there exactly at the
    root, so the inner supremum at the root certifies it: on an exponential
    family :func:`_certified` judges :func:`maximize_scalar` over the
    :func:`_stated_set`, as for a batched row, and the inner gradient
    (a central difference) is a diagnostic; on a categorical model the
    supremum is one criterion call at ``alpha = theta``
    (:func:`_categorical_sup`), and the closed-form inner gradient norm must
    be at most ``_GRAD_TOL``.  A root that is not a saddle is reported with
    ``converged`` false, never raised.
    """
    crit = _DualCriterion(model, spec, mu)
    theta = crit.root()
    if crit._kind == "categorical":
        # in cell coordinates the inner gradient at alpha = theta is
        # phi''(1) (m_j - wbar p_j) / p_j; a parameter coordinate is its
        # cell's term less the last cell's
        p, m = model.probs(theta), crit.atom_masses
        g = spec.value(1.0, 2) * (m - float(np.sum(m)) * p) / p
        alpha, value, grad_norm = theta, crit(theta, theta), float(np.linalg.norm(g[:-1] - g[-1]))
        converged = abs(value) <= _SUP_TOL and grad_norm <= _GRAD_TOL
    else:
        lo, hi = _stated_set(model, spec, theta)
        alpha, value = maximize_scalar(lambda a: crit(theta, a), lo, hi)
        converged = _certified(alpha, value, lo, hi)
        # a central difference at alpha, its stencil kept inside the box
        c, h = stencil(alpha, lo, hi)
        f_up, f_dn = crit(theta, c + h), crit(theta, c - h)
        grad_norm = abs((f_up - f_dn) / (2.0 * h)) if math.isfinite(f_up) and math.isfinite(f_dn) else INF
    return EstimateReport(
        theta_hat=_reported(theta),
        alpha_hat=_reported(alpha),
        value=float(value) + 0.0,  # -0.0 + 0.0 is +0.0: reports print 0, never -0
        converged=bool(converged),
        inner_grad_norm=float(grad_norm),
        rejected_evaluations=crit.rejected,
    )


def _reported(x) -> float | tuple:
    """A parameter as reports print it: a float, or a tuple of two or more."""
    if isinstance(x, np.ndarray):
        return float(x[0]) if x.shape == (1,) else tuple(x.tolist())
    return x


# ---------------------------------------------------------------------------
# Batched variant for Monte Carlo studies.
# ---------------------------------------------------------------------------


def _line_aligned_empty(shape) -> np.ndarray:
    """An uninitialised float64 array whose data starts on a 64-byte cache line.

    The batched criterion streams through its rows on every call.  Left
    where malloc puts them, their offset follows the heap's history; at 142
    calls per spread comparison, plain ``np.empty`` buffers made it about 3%
    slower (six alternated 20-second ``estimator_spread`` pairs).
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip:skip + size].reshape(shape)


def _aligned_rows(a: np.ndarray) -> np.ndarray:
    """``a``, a (rows, n) array, from a line-aligned copy of its distinct rows.

    A row every row shares (stride 0, as ``np.broadcast_to`` makes) is
    stored once.
    """
    distinct = a[:1] if a.strides[0] == 0 else a
    buf = _line_aligned_empty(distinct.shape)
    buf[...] = distinct
    return np.broadcast_to(buf, a.shape)


class _BatchCriterion:
    """Vectorized dual criterion for many weight/data rows at once.

    Restricted to scalar-parameter exponential families with power-family
    generators, which covers the Monte Carlo studies; each call evaluates
    the criterion at one ``(theta_r, alpha_r)`` pair for each row ``r`` of a
    chosen subset.

    Row ``r`` is ``wbar_r * lead - (1/n) sum_i w_ri phi#(r_ri)`` with
    ``log r_ri = delta_r t_ri + C(alpha_r) - C(theta_r)``.  For the
    likelihood index ``g = 0``, ``phi#`` is the log itself, so the tail is
    ``delta_r mean(w t)_r - (C(theta_r) - C(alpha_r)) wbar_r``: two weighted
    sums fixed at construction, and no pass over the sample per call.  For
    other indices ``g phi#(r) = expm1(g log r)``: ``g log r`` is written into
    one work array by a multiply and an add, exponentiated in place and
    summed against ``w`` in one pass.  A row's arithmetic is the same
    whichever rows share its call.  The sums run in another order than
    those of the scalar :class:`_DualCriterion`, which stays the bit-exact
    reference; a row differs from it by rounding only, and takes the same
    :func:`_extended` value where not finite.
    """

    def __init__(self, model: ExponentialFamilyModel, spec: CressieRead,
                 points: np.ndarray, weights: np.ndarray):
        if not isinstance(model, ExponentialFamilyModel):
            raise ValidationError("batched estimation requires an exponential family model")
        if not isinstance(spec, CressieRead):
            raise ValidationError("batched estimation requires a power-family generator")
        self.model = model
        self.spec = spec
        points = np.atleast_2d(points)
        weights = np.atleast_2d(weights)
        shape = np.broadcast_shapes(points.shape, weights.shape)
        self.t = np.broadcast_to(model.sufficient_stat(points), shape)
        self.w = np.broadcast_to(weights, shape)
        self.wbar = np.mean(self.w, axis=1)
        if spec.branch == "log":
            self._wt_mean = np.mean(self.w * self.t, axis=1)
            return
        # the rows every call streams, one (rows, n) work array and one
        # gather buffer for all calls: fresh temporaries of this size can go
        # back to the OS when freed and fault in again on the next call
        # (about 7% of a spread comparison's time, measured as above)
        self.t, self.w = _aligned_rows(self.t), _aligned_rows(self.w)
        self._work = _line_aligned_empty(shape)
        self._gather = None if self.w.strides[0] == 0 else _line_aligned_empty(shape)

    def value(self, theta: np.ndarray, alpha: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Criterion of the rows ``rows`` (an index array), ``theta[j]`` and
        ``alpha[j]`` belonging to row ``rows[j]``, as a fresh array (callers
        keep earlier results).  The caller sets the error state."""
        k = rows.shape[0]
        if self.spec.branch == "log":
            # one normalizer call for both parameters: this branch is a few
            # operations on k numbers, so each call's overhead counts
            C = self.model.log_normalizer_array(np.concatenate((theta, alpha)))
            out = (C[:k] - C[k:]) * self.wbar[rows] - (theta - alpha) * self._wt_mean[rows]
            lead = 0.0  # as in _power_lead: this branch's lead vanishes
        else:
            lead, C_t, C_a = _power_lead(self.model, self.spec, theta, alpha)
            g = self.spec.gamma
            work = self._work[:k]
            slope = (g * (theta - alpha))[:, None]
            if self.t.strides[0] == 0:
                np.multiply(slope, self.t[:k], out=work)
            else:
                np.take(self.t, rows, axis=0, out=work, mode="clip")
                work *= slope
            work += (g * (C_a - C_t))[:, None]
            np.expm1(work, out=work)
            if self._gather is None:
                w = self.w[:k]
            else:
                w = np.take(self.w, rows, axis=0, out=self._gather[:k], mode="clip")
            tail = np.einsum("ij,ij->i", work, w) / (work.shape[1] * g)
            out = self.wbar[rows] * lead - tail
        # a non-finite row makes the sum of squares non-finite: one dot
        # product costs less than masking the rows of every call
        if math.isfinite(out.dot(out)):
            return out
        bad = (~np.isfinite(out)).nonzero()[0]
        out[bad] = _extended(self.model, self.spec, theta[bad], alpha[bad], self.t[rows[bad]], self.w[rows[bad]],
                             out[bad], np.broadcast_to(lead, k)[bad])
        return out


def minimum_dual_estimator_batch(
    model: ExponentialFamilyModel,
    spec: CressieRead,
    points: np.ndarray,
    weights: np.ndarray,
    box: tuple[float, float],
) -> np.ndarray:
    """Row-wise minimum dual estimates for a matrix of replications.

    ``points`` and ``weights`` broadcast against each other; one estimate
    is produced per row.  Row ``r``'s estimate is its weighted score root,
    bit for bit the ``theta_hat`` of :func:`minimum_dual_estimator` on that
    row, certified as the scalar path certifies it: one batched search over
    ``alpha`` in each row's :func:`_stated_set` at ``theta = theta_hat``,
    judged by :func:`_certified`.  A row is NaN when it has no
    root in ``box`` (a weight sum <= 0, a weighted mean outside the range of
    ``C'``, or a root outside ``box``) or its certificate fails.  The search
    runs a fixed schedule, so results do not depend on chunking.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    rows = max(points.shape[0], weights.shape[0])
    crit = _BatchCriterion(model, spec,
                           np.broadcast_to(points, (rows, points.shape[1])),
                           np.broadcast_to(weights, (rows, weights.shape[1])))
    lo, hi = float(box[0]), float(box[1])
    # the sums of _DualCriterion.root, row by row: a pairwise sum along each row
    total = np.sum(crit.w, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.sum(crit.w * crit.t, axis=1) / total
    theta = np.full(rows, np.nan)
    for r in (total > 0.0).nonzero()[0]:
        try:
            root = model.solve_score(float(means[r]))
        except DomainError:
            continue
        if lo <= root <= hi:
            theta[r] = root
    held = np.isfinite(theta).nonzero()[0]
    at = theta[held]
    a_lo, a_hi = _stated_set(model, spec, at)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, sup = batch_golden_max(lambda alpha, sub: crit.value(at[sub], alpha, held[sub]), a_lo, a_hi)
    theta[held[~_certified(alpha, sup, a_lo, a_hi)]] = np.nan
    return theta

"""Dual (variational) divergence estimation from weighted samples.

For a generator ``phi`` and model densities ``p_theta``, the divergence of
``P_theta`` from the sampling distribution admits the dual representation

    D_phi(P_theta, P) = sup_alpha  int h(theta, alpha, x) dP(x)

with the integrand built from the first derivative and the sharp transform
of the generator:

    h(theta, alpha, x) = int phi'(p_theta/p_alpha) dP_theta
                         - phi#((p_theta/p_alpha)(x)).

Substituting a weighted empirical measure ``(1/n) sum W_i delta_{x_i}``
for ``P`` gives a plug-in estimator of the divergence; minimizing it over
``theta`` gives the minimum dual divergence estimator.  For the weighted
maximum likelihood pipeline the generator passed in must be the conjugate
of the generator induced by the weight law, so that the estimated quantity
is the divergence of the sampling distribution from ``P_theta``.

Signed weights are allowed; evaluations that escape the generator's domain
contribute through the extended-real convention and the optimizers treat
non-finite objective values as rejected points (counted in the report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import maximize_scalar, nelder_mead_multistart, batch_golden_max, stencil
from .divergences import INF, CressieRead, DivergenceSpec, FiniteMeasure, cell_divergence
from .errors import ValidationError
from .models import Categorical, ExponentialFamilyModel, ParametricModel
from .reporting import Record
from .weights import WeightLaw, sample_weights

#: scan points of the scalar searches
_N_SCAN = 11

#: argument tolerances of the inner (alpha) and outer (theta) searches
_INNER_XTOL = 1e-9
_OUTER_XTOL = 1e-8

#: inner-gradient norm below which an estimate counts as converged
_GRAD_TOL = 1e-6

#: fixed golden-section schedule of the batched estimator: scan points and
#: iterations of each of the inner and outer searches
_BATCH_SCAN = 5
_BATCH_ITERS = 32


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """``(1/n) sum_i W_i delta_{x_i}``; not necessarily a probability measure.

    The integral of ``f`` is exactly ``(1/n) sum_i W_i f(x_i)``.  Unit
    weights recover the ordinary empirical measure; exact finite measures
    embed via :meth:`from_finite_measure`.
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

    @classmethod
    def from_finite_measure(cls, fm: FiniteMeasure) -> "WeightedEmpiricalMeasure":
        # weights n * mass_i make the plug-in integral reproduce the measure
        n = len(fm.support)
        return cls(tuple(float(s) for s in fm.support), tuple(n * m for m in fm.masses))

    @property
    def n(self) -> int:
        return len(self.points)

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def total_mass(self) -> float:
        return math.fsum(self.weights) / self.n

    def integrate(self, f: Callable) -> float:
        x = self.points_array()
        w = self.weights_array()
        return float(np.mean(w * np.asarray(f(x), dtype=float)))


def build_weighted_empirical(points, law: WeightLaw, seed) -> WeightedEmpiricalMeasure:
    """Attach freshly sampled weights from ``law`` to fixed points."""
    points = tuple(float(p) for p in points)
    w = sample_weights(law, len(points), seed)
    return WeightedEmpiricalMeasure(points, tuple(w))


@dataclass(frozen=True)
class EstimateReport(Record):
    """Result of a minimum dual divergence estimation."""

    theta_hat: float | tuple
    alpha_hat: float | tuple
    value: float
    converged: bool
    iterations: int
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
    # Ratios beyond e^150 sit where the reference density has already
    # underflowed to zero, so a finite clamp keeps the quadrature product
    # at zero; generators with a bounded domain still evaluate to +inf at
    # the clamp and flag the genuinely infinite integral.
    r = math.exp(min(lr, 150.0))
    v = spec.value(r, order)
    if math.isinf(v):
        raise _InfiniteIntegrand
    return v


def _expfam_power_dual(model: ExponentialFamilyModel, spec: CressieRead, theta, alpha, t=None, out=None):
    """Closed-form pieces ``(lead, sharp)`` of the dual criterion.

    For a natural exponential family the log ratio ``log(p_theta/p_alpha)``
    is affine in the sufficient statistic, and

        int (p_theta/p_alpha)**u dP_theta
            = exp(u*(C(alpha) - C(theta)) + C(theta + u*(theta - alpha)) - C(theta)),

    so for the power generator of index ``g`` the lead
    ``int phi_g'(p_theta/p_alpha) dP_theta`` and the sharp transform
    ``phi_g#((p_theta/p_alpha)(x))`` at sufficient statistics ``t`` are
    both functions of ``C``.  ``theta`` and ``alpha`` broadcast against
    ``t``: scalars for one criterion, a column per row for a batch.  The
    lead is infinite when the tilted parameter leaves the natural domain
    or its integral overflows; ``sharp`` is ``None`` without ``t``.  Given
    ``out``, an array of the broadcast shape, ``sharp`` is written into it
    instead of fresh temporaries, with the same ufuncs in the same order.
    """
    branch = spec.branch
    with np.errstate(over="ignore", invalid="ignore"):
        C_t = model.log_normalizer_array(theta)
        C_a = model.log_normalizer_array(alpha)
        delta = theta - alpha
        if branch == "xlogx":
            lead = delta * model.grad_log_normalizer_array(theta) - C_t + C_a
        elif branch == "log":
            # int (1 - p_alpha/p_theta) dP_theta = 0 on a common support
            lead = 0.0
        else:
            u = spec.gamma - 1.0
            expo = u * (C_a - C_t) + model.log_normalizer_array(theta + u * delta) - C_t
            lead = np.expm1(expo) / u
        if t is None:
            return lead, None
        lr = np.multiply(delta, t, out=out)
        lr -= C_t
        lr += C_a
        if branch == "log":
            sharp = lr
        elif branch == "xlogx":
            sharp = np.expm1(lr, out=lr)
        else:
            lr *= spec.gamma
            sharp = np.expm1(lr, out=lr)
            sharp /= spec.gamma
    return lead, sharp


def _phi_prime_mean(model: ParametricModel, spec: DivergenceSpec, theta, alpha) -> float:
    """``int phi'(p_theta/p_alpha) dP_theta`` with closed forms where possible."""
    if isinstance(model, Categorical):
        p_t = model.probs(theta)
        return _categorical_lead(spec, p_t, p_t / model.probs(alpha))
    if isinstance(spec, CressieRead) and isinstance(model, ExponentialFamilyModel):
        model.check_domain(theta)
        model.check_domain(alpha)
        return float(_expfam_power_dual(model, spec, theta, alpha)[0])

    def integrand(x):
        return _guarded_ratio_eval(model, spec, theta, alpha, x, 1)

    try:
        return model.integrate_under(theta, integrand)
    except _InfiniteIntegrand:
        return INF


def _categorical_lead(spec: DivergenceSpec, p_t: np.ndarray, ratios: np.ndarray) -> float:
    """``sum_j phi'(ratio_j) p_theta_j``, ``+inf`` when any term is."""
    vals = spec.value_array(ratios, 1)
    if not np.all(np.isfinite(vals)):
        return INF
    return float(np.sum(vals * p_t))


def h_value(model: ParametricModel, spec: DivergenceSpec, theta, alpha, x) -> float:
    """Dual integrand ``h(theta, alpha, x)``.

    The constant-in-``x`` part is the mean of ``phi'`` of the density ratio
    under ``P_theta``; the ``x`` part subtracts the sharp transform of the
    ratio at ``x``.
    """
    lead = _phi_prime_mean(model, spec, theta, alpha)
    if math.isinf(lead):
        return INF
    r = math.exp(float(model.log_density_ratio(theta, alpha, x)))
    tail = spec.sharp(r)
    if math.isinf(tail):
        return -tail
    return lead - tail


class _DualCriterion:
    """Precomputed objective ``(theta, alpha) -> int h d(mu)`` for one measure.

    The integral splits as ``mu(S) * mean-phi'(theta, alpha) - (1/n) sum
    W_i phi#(ratio_i)``; the second term is vectorized over the sample.
    Non-finite evaluations are rejected (returned as ``-inf`` to the
    maximizer) and counted.
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
        if kind == "power":
            lead, sharp = _expfam_power_dual(self.model, self.spec, theta, alpha, self.t_stat)
        elif kind == "categorical":
            # one probability-ratio pass feeds both the lead and the tail
            p_t = self.model.probs(theta)
            ratios = p_t / self.model.probs(alpha)
            lead = _categorical_lead(self.spec, p_t, ratios)
        else:
            lead = _phi_prime_mean(self.model, self.spec, theta, alpha)
        if not math.isfinite(lead):
            self.rejected += 1
            return -INF
        if kind == "categorical":
            tail = float(np.dot(self.atom_masses, self.spec.sharp_array(ratios)))
        else:
            if kind == "expfam":
                lr = (
                    (theta - alpha) * self.t_stat
                    - self.model.log_normalizer(theta)
                    + self.model.log_normalizer(alpha)
                )
                sharp = self.spec.sharp_array(np.exp(lr))
            # np.mean's bits (pairwise sum, then divide) without its overhead
            tail = float(np.add.reduce(self.w * sharp)) / self.mu.n
        value = self.wbar * lead - tail
        if not math.isfinite(value):
            self.rejected += 1
            return -INF
        return value


def _resolve_box(model: ParametricModel, mu: WeightedEmpiricalMeasure):
    pilot = model.pilot_estimate(mu.points_array(), mu.weights_array())
    lo, hi = model.default_box(pilot)
    return np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float))


def _inner_max(crit: _DualCriterion, theta, lo, hi):
    if lo.shape[0] == 1:
        x, v = maximize_scalar(
            lambda a: crit(theta, a),
            float(lo[0]),
            float(hi[0]),
            n_scan=_N_SCAN,
            xtol=_INNER_XTOL,
        )
        return x, v
    x, negv = nelder_mead_multistart(
        lambda a: -crit(theta, a),
        lo,
        hi,
        xatol=_INNER_XTOL,
    )
    return x, -negv


def estimate_phi_dual(
    model: ParametricModel,
    spec: DivergenceSpec,
    theta,
    mu: WeightedEmpiricalMeasure,
):
    """Plug-in dual divergence estimate at fixed ``theta``.

    Returns ``(sup_alpha int h(theta, alpha, .) dmu, argmax alpha)``.
    """
    crit = _DualCriterion(model, spec, mu)
    lo, hi = _resolve_box(model, mu)
    alpha, value = _inner_max(crit, _scalar_or_vec(theta, lo), lo, hi)
    return value, _scalar_or_vec(alpha, lo)


def _scalar_or_vec(x, lo):
    if lo.shape[0] == 1 and np.ndim(x) == 0:
        return float(x)
    if lo.shape[0] == 1 and np.ndim(x) > 0:
        return float(np.atleast_1d(x)[0])
    return np.atleast_1d(np.asarray(x, dtype=float))


def _inner_grad_norm(crit: _DualCriterion, theta, alpha, lo, hi) -> float:
    """Central-difference gradient norm of the inner objective at alpha."""
    alpha_vec = np.atleast_1d(np.asarray(alpha, dtype=float))
    grads = []
    for a in range(alpha_vec.shape[0]):
        c, h = stencil(alpha_vec[a], lo[a], hi[a])
        up = alpha_vec.copy()
        dn = alpha_vec.copy()
        up[a] = c + h
        dn[a] = c - h
        f_up = crit(theta, up if alpha_vec.shape[0] > 1 else float(up[0]))
        f_dn = crit(theta, dn if alpha_vec.shape[0] > 1 else float(dn[0]))
        if not (math.isfinite(f_up) and math.isfinite(f_dn)):
            return INF
        grads.append((f_up - f_dn) / (2.0 * h))
    return float(np.linalg.norm(grads))


def minimum_dual_estimator(
    model: ParametricModel,
    spec: DivergenceSpec,
    mu: WeightedEmpiricalMeasure,
) -> EstimateReport:
    """Minimize the dual divergence estimate over the parameter box.

    Non-convergence is reported through the ``converged`` flag, never
    raised: the flag requires first-order stationarity of the inner
    problem at the reported maximizer.
    """
    crit = _DualCriterion(model, spec, mu)
    lo, hi = _resolve_box(model, mu)
    evals = 0

    def outer(theta):
        nonlocal evals
        evals += 1
        theta_arg = theta if lo.shape[0] > 1 else float(np.atleast_1d(theta)[0])
        _, v = _inner_max(crit, theta_arg, lo, hi)
        return v

    if lo.shape[0] == 1:
        theta_hat, _ = maximize_scalar(
            lambda th: -outer(th),
            float(lo[0]),
            float(hi[0]),
            n_scan=_N_SCAN,
            xtol=_OUTER_XTOL,
        )
    else:
        theta_hat, _ = nelder_mead_multistart(
            outer,
            lo,
            hi,
            xatol=_OUTER_XTOL,
        )
    theta_out = _scalar_or_vec(theta_hat, lo)
    alpha_hat, value = _inner_max(crit, theta_out, lo, hi)
    alpha_out = _scalar_or_vec(alpha_hat, lo)
    grad_norm = _inner_grad_norm(crit, theta_out, alpha_out, lo, hi)
    converged = math.isfinite(value) and grad_norm <= _GRAD_TOL
    if isinstance(theta_out, np.ndarray):
        theta_rep: float | tuple = tuple(theta_out.tolist())
        alpha_rep: float | tuple = tuple(np.atleast_1d(alpha_out).tolist())
    else:
        theta_rep = theta_out
        alpha_rep = float(np.atleast_1d(alpha_out)[0])
    return EstimateReport(
        theta_hat=theta_rep,
        alpha_hat=alpha_rep,
        value=float(value) + 0.0,  # -0.0 + 0.0 is +0.0: reports print 0, never -0
        converged=bool(converged),
        iterations=evals,
        inner_grad_norm=float(grad_norm),
        rejected_evaluations=crit.rejected,
    )


# ---------------------------------------------------------------------------
# Batched variant for Monte Carlo studies.
# ---------------------------------------------------------------------------


class _BatchCriterion:
    """Vectorized dual criterion for many weight/data rows at once.

    Restricted to scalar-parameter exponential families with power-family
    generators, which covers the Monte Carlo studies; each call evaluates
    the criterion at one ``(theta_r, alpha_r)`` pair per row.
    """

    def __init__(self, model: ExponentialFamilyModel, spec: CressieRead,
                 points: np.ndarray, weights: np.ndarray):
        if not isinstance(model, ExponentialFamilyModel):
            raise ValidationError("batched estimation requires an exponential family model")
        if not isinstance(spec, CressieRead):
            raise ValidationError("batched estimation requires a power-family generator")
        self.model = model
        self.spec = spec
        self.t = np.atleast_2d(model.sufficient_stat(points))
        self.w = np.atleast_2d(weights)
        self.wbar = np.mean(self.w, axis=1, keepdims=True)
        # one (rows, n) work array for all calls: fresh temporaries of this
        # size can go back to the OS when freed and fault in again on the
        # next call (about a million minor faults per spread comparison)
        self._work = np.empty(np.broadcast_shapes(self.t.shape, self.w.shape))

    def value(self, theta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Criterion per row, as a fresh array (callers keep earlier results)."""
        lead, sharp = _expfam_power_dual(
            self.model, self.spec, theta[:, None], alpha[:, None], self.t, self._work
        )
        with np.errstate(over="ignore", invalid="ignore"):
            sharp *= self.w
            out = self.wbar * lead - np.mean(sharp, axis=1, keepdims=True)
        return np.where(np.isfinite(out), out, -INF)[:, 0]


def minimum_dual_estimator_batch(
    model: ExponentialFamilyModel,
    spec: CressieRead,
    points: np.ndarray,
    weights: np.ndarray,
    box: tuple[float, float],
) -> np.ndarray:
    """Row-wise minimum dual estimates for a matrix of replications.

    ``points`` and ``weights`` broadcast against each other; one estimate
    is produced per row.  The search runs a fixed golden-section schedule
    so results do not depend on chunking.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    rows = max(points.shape[0], weights.shape[0])
    crit = _BatchCriterion(model, spec,
                           np.broadcast_to(points, (rows, points.shape[1])),
                           np.broadcast_to(weights, (rows, weights.shape[1])))
    lo = np.full(rows, float(box[0]))
    hi = np.full(rows, float(box[1]))

    def inner_value(theta_vec: np.ndarray) -> np.ndarray:
        _, val = batch_golden_max(
            lambda a: crit.value(theta_vec, a), lo, hi, n_scan=_BATCH_SCAN, iters=_BATCH_ITERS
        )
        return val

    theta_hat, _ = batch_golden_max(
        lambda th: -inner_value(th), lo, hi, n_scan=_BATCH_SCAN, iters=_BATCH_ITERS
    )
    return theta_hat

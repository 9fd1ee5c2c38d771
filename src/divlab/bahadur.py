"""Exponential efficiency (slope) comparison of test statistics.

The slope of a test statistic is the exponential decay rate of its
p-value along a fixed alternative; more negative means fewer
observations for the same evidence.  For the plug-in divergence
statistic the slope is minus twice the weight-induced divergence between
the hypothesized and alternative models; for a generic continuous
functional of the empirical cell masses it is minus twice a constrained
infimum of the same divergence.  The divergence statistic therefore
attains the most negative slope, and the routines here compute both
sides and probe the hypothesized tail rate by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import PENALTY, nelder_mead
from .divergences import DivergenceSpec, FiniteMeasure, INF, cell_divergence
from .errors import ValidationError
from .estimation import (
    WeightedEmpiricalMeasure,
    divergence_between,
    estimate_phi_dual_rows,
)
from .models import Categorical, ParametricModel
from .reporting import Record
from .sanov import log_rate
from .seeding import derived_rng
from .weights import WeightLaw, induced_divergence

#: simplex scan resolution for the constrained infimum
GRID_STEP = 1e-3

#: local refinements launched from the best scan points
REFINE_STARTS = 3


@dataclass(frozen=True)
class FunctionalStatistic:
    """Continuous functional ``psi(theta, cell_masses)`` with ``psi(theta, P_theta) = 0``."""

    evaluator: Callable
    name: str


def slope_min_divergence(model: ParametricModel, law: WeightLaw, theta, theta_prime) -> float:
    """Slope of the divergence statistic: minus twice the induced
    divergence of ``P_theta`` from ``P_theta_prime``."""
    spec = induced_divergence(law)
    value = divergence_between(model, spec, theta, theta_prime)
    if math.isinf(value):
        return -INF
    return -2.0 * value


def _cell_divergence_rows(spec: DivergenceSpec, p_theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`cell_divergence` of ``p_theta`` from each row, vectorized.

    Each cell's term is evaluated once per distinct positive mass in its
    column: a simplex grid repeats each mass across many rows.
    """
    terms = np.empty(rows.shape)
    for j, pj in enumerate(p_theta):
        masses, inverse = np.unique(rows[:, j], return_inverse=True)
        charged = masses > 0.0
        column = np.full(masses.shape, INF if pj > 0.0 else 0.0)
        column[charged] = masses[charged] * spec.value_array(pj / masses[charged])
        terms[:, j] = column[inverse]
    out = np.sum(terms, axis=1)
    return np.where(np.isfinite(out), out, INF)


def _simplex_grid(k: int, step: float) -> np.ndarray:
    m = int(round(1.0 / step))
    if k == 2:
        q1 = np.arange(m + 1) / m
        return np.stack([q1, 1.0 - q1], axis=1)
    if k == 3:
        a, b = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        mask = a + b <= m
        a, b = a[mask], b[mask]
        return np.stack([a / m, b / m, (m - a - b) / m], axis=1)
    raise ValidationError("constrained slopes support at most three cells")


@dataclass(frozen=True)
class GenericSlopeRecord(Record):
    """Constrained-infimum slope and its minimizing cell masses."""

    slope: float
    minimizer: tuple
    constraint_level: float
    statistic_name: str


def slope_generic(
    model: Categorical,
    law: WeightLaw,
    stat: FunctionalStatistic,
    theta,
    theta_prime,
) -> GenericSlopeRecord:
    """Slope of a generic functional statistic on a finite support.

    Minus twice the infimum of the induced divergence of ``P_theta`` over
    probability vectors whose functional value reaches the alternative's,
    found by a dense simplex scan refined with local descent.
    """
    if not isinstance(model, Categorical):
        raise ValidationError("generic slopes require a finite-support model")
    spec = induced_divergence(law)
    p = model.probs(theta)
    p_alt = model.probs(theta_prime)
    level = float(stat.evaluator(theta, p_alt))
    _check_functional_zero(stat, theta, p)

    grid = _simplex_grid(model.k, GRID_STEP)
    psi_vals = np.array([stat.evaluator(theta, q) for q in grid])
    feasible = psi_vals >= level - 1e-12
    if not np.any(feasible):
        raise ValidationError("no probability vector satisfies the slope constraint")
    div_vals = _cell_divergence_rows(spec, p, grid[feasible])
    cand = grid[feasible]
    order = np.argsort(div_vals, kind="stable")
    starts = []
    for idx in order:
        q = cand[idx]
        if all(np.max(np.abs(q - s)) > 5 * GRID_STEP for s in starts):
            starts.append(q)
        if len(starts) == REFINE_STARTS:
            break

    best_q = cand[order[0]]
    best_v = float(div_vals[order[0]])
    for q0 in starts:
        q_ref, v_ref = _refine_constrained(spec, p, stat, theta, level, q0)
        if v_ref < best_v - 1e-12 or (
            v_ref <= best_v + 1e-12 and tuple(q_ref) < tuple(best_q)
        ):
            best_q, best_v = q_ref, v_ref
    slope = -2.0 * best_v if math.isfinite(best_v) else -INF
    return GenericSlopeRecord(
        slope=slope,
        minimizer=tuple(float(v) for v in best_q),
        constraint_level=level,
        statistic_name=stat.name,
    )


def _refine_constrained(spec, p, stat, theta, level, q0) -> tuple[np.ndarray, float]:
    """Nelder-Mead on the first ``k - 1`` cell masses from the scan point ``q0``."""
    k = p.shape[0]

    def simplex_point(free):
        return np.concatenate([free, [1.0 - float(np.sum(free))]])

    def objective(free):
        q = simplex_point(free)
        if q[-1] < 0.0 or q[-1] > 1.0 or float(stat.evaluator(theta, q)) < level - 1e-12:
            return INF
        return cell_divergence(spec, p, q)

    free, v = nelder_mead(
        objective, q0[: k - 1], np.zeros(k - 1), np.ones(k - 1), xatol=1e-9, fatol=1e-12, max_iter=400
    )
    if v >= PENALTY:
        return np.asarray(q0, dtype=float), cell_divergence(spec, p, np.asarray(q0))
    return simplex_point(free), v


def _check_functional_zero(stat: FunctionalStatistic, theta, p_theta: np.ndarray):
    at_null = float(stat.evaluator(theta, p_theta))
    if abs(at_null) > 1e-8:
        raise ValidationError(
            f"functional statistic {stat.name!r} must vanish at the model point, got {at_null}"
        )


@dataclass(frozen=True)
class EfficiencyRecord(Record):
    """Both slopes with the ordering stated in each sign convention."""

    slope_min_divergence: float
    slope_generic: float
    minimizer: tuple
    ordering_holds: bool
    signed_statement: str
    magnitude_statement: str
    statistic_name: str


def efficiency_compare(
    model: Categorical,
    law: WeightLaw,
    stat: FunctionalStatistic,
    theta,
    theta_prime,
) -> EfficiencyRecord:
    """Compare the divergence statistic's slope to a functional statistic's.

    As signed reals the generic slope is never more negative; in
    magnitude the divergence statistic's slope is the largest.  Both
    phrasings are recorded.
    """
    e_min = slope_min_divergence(model, law, theta, theta_prime)
    rec = slope_generic(model, law, stat, theta, theta_prime)
    holds = rec.slope >= e_min - 1e-9
    return EfficiencyRecord(
        slope_min_divergence=e_min,
        slope_generic=rec.slope,
        minimizer=rec.minimizer,
        ordering_holds=holds,
        signed_statement="slope_generic >= slope_min_divergence",
        magnitude_statement="|slope_generic| <= |slope_min_divergence|",
        statistic_name=stat.name,
    )


# ---------------------------------------------------------------------------
# Monte Carlo probe of the null tail rate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailTrendRow(Record):
    n: int
    threshold: float
    hits: int
    reps: int
    slope_estimate: float
    slope_target: float
    ci_lo: float
    ci_hi: float
    one_sided: bool


@dataclass(frozen=True)
class TailTrendTable(Record):
    rows: tuple


def _count_statistics(model: Categorical, spec: DivergenceSpec, theta, n_grid) -> list:
    """Exact statistic value for every first-cell count ``c <= n``, one array
    per ``n`` of the grid (two cells only).

    One row search covers the distinct fractions ``c / n`` of the whole grid:
    ``c / n`` is correctly rounded, so 1/10 and 2/20 are one row.
    """
    fractions = sorted({c / n for n in n_grid for c in range(n + 1)})
    measures = [
        WeightedEmpiricalMeasure.from_finite_measure(FiniteMeasure(model.atoms, (f, 1.0 - f)))
        for f in fractions
    ]
    statistic, _ = estimate_phi_dual_rows(model, spec, theta, measures)
    row = {f: r for r, f in enumerate(fractions)}
    return [statistic[[row[c / n] for c in range(n + 1)]] for n in n_grid]


def check_trend(model: Categorical, reps: int) -> None:
    """The exact tail scan needs two cells and 1000 replications per size."""
    if reps < 1000:
        raise ValidationError("tail trends need at least 1000 replications per sample size")
    if model.k != 2:
        raise ValidationError("the exact tail scan supports two cells")


def empirical_slope_trend(
    model: Categorical,
    law: WeightLaw,
    theta,
    theta_prime,
    n_grid,
    reps: int,
    seed: int,
) -> TailTrendTable:
    """Null tail frequencies of the divergence statistic across sample sizes.

    The threshold sits at half the alternative drift, inside the
    large-deviation regime; each row reports twice the normalized log
    tail frequency against minus twice the threshold.  This is a trend
    probe, not a convergence assertion.
    """
    check_trend(model, reps)
    spec = induced_divergence(law)
    drift = divergence_between(model, spec, theta, theta_prime)
    t = 0.5 * drift
    target = -2.0 * t
    p1 = float(model.probs(theta)[0])
    n_grid = [int(n) for n in n_grid]
    rows = []
    for n, stat_of_count in zip(n_grid, _count_statistics(model, spec, theta, n_grid)):
        rng = derived_rng(seed, "tail", n)
        counts = rng.binomial(n, p1, size=int(reps))
        hits = int(np.sum(stat_of_count[counts] >= t))
        # a slope is twice the log rate; doubling is exact in floating point
        est, ci_lo, ci_hi, one_sided = log_rate(hits, int(reps), n)
        rows.append(
            TailTrendRow(
                n=n,
                threshold=t,
                hits=hits,
                reps=int(reps),
                slope_estimate=2.0 * est,
                slope_target=target,
                ci_lo=2.0 * ci_lo,
                ci_hi=2.0 * ci_hi,
                one_sided=one_sided,
            )
        )
    return TailTrendTable(rows=tuple(rows))


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
from itertools import repeat
from typing import Callable

import numpy as np

from ._optim import PENALTY, nelder_mead
from .divergences import DivergenceSpec, INF, cell_divergence
from .errors import ValidationError
from .estimation import divergence_between
from .models import Categorical, ParametricModel
from .reporting import Record
from .sanov import check_sample_sizes, log_rate
from .seeding import derived_rng
from .weights import WeightLaw, induced_divergence

#: simplex scan resolution for the constrained infimum
GRID_STEP = 1e-3

#: local refinements launched from the best scan points
REFINE_STARTS = 3

#: scan points ranked by a partial selection before the start walk falls
#: back to a full sort; a walk reads about a dozen
_START_BLOCK = 256


@dataclass(frozen=True)
class FunctionalStatistic:
    """Continuous functional ``psi(p_null, q)`` of the null's cell masses, a
    tuple of floats, and a probability vector, with ``psi(p_null, p_null) = 0``."""

    evaluator: Callable
    name: str


def slope_min_divergence(model: ParametricModel, law: WeightLaw, theta, theta_prime) -> float:
    """Slope of the divergence statistic: minus twice the induced
    divergence of ``P_theta`` from ``P_theta_prime``."""
    spec = induced_divergence(law)
    value = divergence_between(model, spec, theta, theta_prime)
    if math.isinf(value):
        return -INF
    return -2.0 * value + 0.0  # -0.0 + 0.0 is +0.0: a null alternative prints 0, never -0


def _cell_divergence_rows(spec: DivergenceSpec, p_theta: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """:func:`cell_divergence` of ``p_theta`` from each row, vectorized.

    Every mass in ``rows`` lies on the lattice ``i / m``, as a simplex
    grid's do.  Each cell's term is evaluated once per distinct positive
    mass in its column, in ascending order, and looked up by the count
    ``i``; a column whose counts do not give back its masses bit for bit
    raises ``ValueError``.
    """
    out = None
    for j, pj in enumerate(p_theta):
        column = rows[:, j]
        codes = np.rint(column * m).astype(np.intp)
        if codes.size and (codes.min() < 0 or codes.max() > m):
            raise ValueError(f"cell {j} holds masses outside [0, 1]")
        masses = np.zeros(m + 1)
        masses[codes] = column
        if not np.array_equal(masses[codes].view(np.int64), column.view(np.int64)):
            raise ValueError(f"cell {j} holds masses off the lattice i / {m}")
        present = np.zeros(m + 1, dtype=bool)
        present[codes] = True
        charged = present & (masses > 0.0)
        terms = np.full(m + 1, INF if pj > 0.0 else 0.0)
        terms[charged] = masses[charged] * spec.value_array(pj / masses[charged])
        # the first cell's terms as they are, the others added in cell order:
        # the rounding of ``np.sum`` over a row
        if out is None:
            out = terms[codes]
        else:
            out += terms[codes]
    out[~np.isfinite(out)] = INF
    return out


def _simplex_grid(k: int, step: float) -> np.ndarray:
    """Cell masses ``(a, b, m - a - b) / m`` with ``m = 1 / step`` (``(a, m - a) / m``
    for two cells), ``a`` outer and ``b`` inner, both ascending.

    :func:`check_slopes` bounds ``k``.
    """
    m = int(round(1.0 / step))
    if k == 2:
        q1 = np.arange(m + 1) / m
        return np.stack([q1, 1.0 - q1], axis=1)
    # block a holds the m + 1 - a rows b = 0 .. m - a
    lengths = np.arange(m + 1, 0, -1)
    a = np.repeat(np.arange(m + 1), lengths)
    b = np.arange(a.shape[0])
    b -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    grid = np.empty((a.shape[0], 3))
    np.divide(a, m, out=grid[:, 0])
    np.divide(b, m, out=grid[:, 1])
    a += b
    np.subtract(m, a, out=a)
    np.divide(a, m, out=grid[:, 2])
    return grid


def _ascending(values: np.ndarray, head: int):
    """Indices of ``values`` in ``np.argsort(values, kind="stable")`` order.

    The first ``head`` come from a partial selection of the smallest
    values, ranked by (value, index); only a caller that reads past them
    pays for the full sort.  ``values`` holds no NaN.
    """
    if head < values.shape[0]:
        kth = np.partition(values, head - 1)[head - 1]
        below = np.flatnonzero(values < kth)
        block = np.concatenate([below, np.flatnonzero(values == kth)[: head - below.shape[0]]])
        # ``below`` is in index order and every value in it is under ``kth``
        yield from block[np.argsort(values[block], kind="stable")]
    else:
        head = 0
    yield from np.argsort(values, kind="stable")[head:]


def _start_indices(cand: np.ndarray, values: np.ndarray, head: int = _START_BLOCK) -> list:
    """Up to :data:`REFINE_STARTS` rows of ``cand`` to refine from.

    Rows are read by ascending ``values``, ties by index; each start is
    more than five grid steps, in some cell, from every earlier one.
    """
    starts = []
    for idx in _ascending(values, head):
        q = cand[idx]
        if all(np.max(np.abs(q - cand[s])) > 5 * GRID_STEP for s in starts):
            starts.append(idx)
            if len(starts) == REFINE_STARTS:
                break
    return starts


def check_slopes(model: ParametricModel) -> None:
    """Constrained slopes scan the simplex of a categorical model with two or three cells."""
    if not isinstance(model, Categorical):
        raise ValidationError("generic slopes require a finite-support model")
    if model.k > 3:
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
    check_slopes(model)
    spec = induced_divergence(law)
    p = model.probs(theta)
    # one tuple for every evaluator call: Python floats read faster than an array's
    p_null = tuple(p.tolist())
    level = float(stat.evaluator(p_null, model.probs(theta_prime)))
    _check_functional_zero(stat, p_null, p)

    m = int(round(1.0 / GRID_STEP))
    grid = _simplex_grid(model.k, GRID_STEP)
    psi_vals = np.fromiter(map(stat.evaluator, repeat(p_null), grid), float, count=grid.shape[0])
    feasible = psi_vals >= level - 1e-12
    del psi_vals
    if not np.any(feasible):
        raise ValidationError("no probability vector satisfies the slope constraint")
    cand = grid[feasible]
    # released before the divergence pass, which reads only the feasible rows
    del grid, feasible
    div_vals = _cell_divergence_rows(spec, p, cand, m)
    starts = _start_indices(cand, div_vals)
    best_q, best_v = cand[starts[0]], float(div_vals[starts[0]])
    for i in starts:
        q_ref, v_ref = _refine_constrained(spec, p_null, stat, level, cand[i])
        if v_ref < best_v - 1e-12 or (
            v_ref <= best_v + 1e-12 and tuple(q_ref) < tuple(best_q)
        ):
            best_q, best_v = q_ref, v_ref
    # -0.0 + 0.0 is +0.0: a null alternative prints 0, never -0
    slope = -2.0 * best_v + 0.0 if math.isfinite(best_v) else -INF
    return GenericSlopeRecord(
        slope=slope,
        minimizer=tuple(float(v) for v in best_q),
        constraint_level=level,
        statistic_name=stat.name,
    )


def _refine_constrained(spec, p_null, stat, level, q0) -> tuple[np.ndarray, float]:
    """Nelder-Mead on the first ``k - 1`` cell masses from the scan point ``q0``."""
    k = len(p_null)

    def simplex_point(free):
        return np.concatenate([free, [1.0 - float(np.sum(free))]])

    def objective(free):
        q = simplex_point(free)
        if q[-1] < 0.0 or q[-1] > 1.0 or float(stat.evaluator(p_null, q)) < level - 1e-12:
            return INF
        return cell_divergence(spec, p_null, q)

    free, v = nelder_mead(
        objective, q0[: k - 1], np.zeros(k - 1), np.ones(k - 1), xatol=1e-9, fatol=1e-12, max_iter=400
    )
    if v >= PENALTY:
        return np.asarray(q0, dtype=float), cell_divergence(spec, p_null, np.asarray(q0))
    return simplex_point(free), v


def _check_functional_zero(stat: FunctionalStatistic, p_null: tuple, p_theta: np.ndarray):
    at_null = float(stat.evaluator(p_null, p_theta))
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


def check_trend(model: Categorical, n_grid, reps: int) -> None:
    """The exact tail scan needs two cells, positive sample sizes and 1000
    replications per size."""
    check_sample_sizes(n_grid)
    if reps < 1000:
        raise ValidationError("tail trends need at least 1000 replications per sample size")
    if model.k != 2:
        raise ValidationError("the exact tail scan supports two cells")


def trend_threshold(model: Categorical, spec: DivergenceSpec, theta, theta_prime) -> float:
    """Half the drift, the divergence of ``P_theta`` from ``P_theta_prime``.

    A trend needs it finite: at ``+inf`` every hit is a count whose
    statistic is ``+inf`` too, held against a ``-inf`` target.
    """
    t = 0.5 * divergence_between(model, spec, theta, theta_prime)
    if math.isinf(t):
        raise ValidationError(
            "the trend threshold is +inf: the divergence of theta from theta_prime is infinite"
        )
    return t


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

    The statistic of a sample with ``c`` first-cell counts is the plug-in
    cell divergence at the masses ``(c / n, 1 - c / n)``: on a finite
    support that is the supremum of the dual criterion.  It is ``+inf``
    where a cell leaves the generator's domain.  At ``theta_prime = theta``
    the threshold is 0, so every replication hits.
    """
    check_trend(model, n_grid, reps)
    spec = induced_divergence(law)
    t = trend_threshold(model, spec, theta, theta_prime)
    target = -2.0 * t + 0.0  # -0.0 + 0.0 is +0.0: a null target prints 0, never -0
    p = model.probs(theta)
    rows = []
    for n in (int(n) for n in n_grid):
        # one row per first-cell count c: the masses (c / n, 1 - c / n)
        stat_of_count = _cell_divergence_rows(spec, p, _simplex_grid(2, 1.0 / n), n)
        rng = derived_rng(seed, "tail", n)
        counts = rng.binomial(n, float(p[0]), size=int(reps))
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


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
from .sanov import check_sample_sizes, log_rate, simplex_counts
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
    tuple of floats, and a probability vector, with ``psi(p_null, p_null) = 0``.

    An ``infimum(p_null, q_alt)`` gives the minimizer and value of the
    induced divergence over ``psi(p_null, q) >= psi(p_null, q_alt)`` in closed form."""

    evaluator: Callable
    name: str
    infimum: Callable | None = None


def slope_min_divergence(model: ParametricModel, law: WeightLaw, theta, theta_prime) -> float:
    """Slope of the divergence statistic: minus twice the induced
    divergence of ``P_theta`` from ``P_theta_prime``."""
    spec = induced_divergence(law)
    value = divergence_between(model, spec, theta, theta_prime)
    if math.isinf(value):
        return -INF
    return -2.0 * value + 0.0  # -0.0 + 0.0 is +0.0: a null alternative prints 0, never -0


def _cell_divergence_rows(spec: DivergenceSpec, p_theta, counts: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """:func:`cell_divergence` of ``p_theta`` from each row of ``counts``,
    vectorized; cell ``j`` at count ``i`` holds the mass ``masses[j, i]``.

    Each cell's term is evaluated once per distinct count in its column
    whose mass is positive, in ascending order, and looked up by count.
    """
    slope = spec.value(INF, 1)  # phi'(inf): mass 0 adds cell_divergence's null-cell term p_j phi'(inf)
    out = None
    for j, pj in enumerate(p_theta):
        column = counts[:, j]
        charged = np.zeros(masses.shape[1], dtype=bool)
        charged[column] = True
        charged &= masses[j] > 0.0
        terms = np.full(masses.shape[1], pj * slope if pj > 0.0 else 0.0)
        terms[charged] = masses[j, charged] * spec.value_array(pj / masses[j, charged])
        # the first cell's terms as they are, the others added in cell order:
        # the rounding of ``np.sum`` over a row
        if out is None:
            out = terms[column]
        else:
            out += terms[column]
    out[~np.isfinite(out)] = INF
    return out


def _simplex_grid(k: int, step: float) -> np.ndarray:
    """The scan's count vectors over ``m = 1 / step``; :func:`check_slopes` bounds ``k``."""
    return simplex_counts(k, int(round(1.0 / step)))


def _lattice_masses(k: int, m: int) -> np.ndarray:
    """Cell ``j``'s mass at count ``i`` in row ``j``: ``i / m``, but ``1 - (m - i) / m``
    for the second of two cells, which differs from ``i / m`` in the last bit at many ``i``."""
    masses = np.tile(np.arange(m + 1) / m, (k, 1))
    if k == 2:
        masses[1] = 1.0 - masses[0, ::-1]
    return masses


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


def _start_indices(cand: np.ndarray, masses: np.ndarray, values: np.ndarray, head=_START_BLOCK) -> list:
    """Up to :data:`REFINE_STARTS` rows of the counts ``cand`` to refine from.

    Rows are read by ascending ``values``, ties by index; each start's
    masses are more than five grid steps, in some cell, from every earlier one's.
    """
    cells = np.arange(masses.shape[0])
    starts = []
    for idx in _ascending(values, head):
        q = masses[cells, cand[idx]]
        if all(np.max(np.abs(q - masses[cells, cand[s]])) > 5 * GRID_STEP for s in starts):
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
    probability vectors whose functional value reaches the alternative's:
    the statistic's own ``infimum`` when it has one, else on two cells the
    exact boundary search of :func:`_two_cell_infimum`, and on three a dense
    simplex scan refined with local descent.
    """
    check_slopes(model)
    p = model.probs(theta)
    # one tuple for every evaluator call: Python floats read faster than an array's
    p_null = tuple(p.tolist())
    q_alt = model.probs(theta_prime)
    level = float(stat.evaluator(p_null, q_alt))
    _check_functional_zero(stat, p_null, p)
    if stat.infimum is not None:
        best_q, best_v = stat.infimum(p_null, q_alt)
    elif model.k == 2:
        best_q, best_v = _two_cell_infimum(induced_divergence(law), p_null, stat, level)
    else:
        best_q, best_v = _scan_infimum(induced_divergence(law), p, p_null, stat, level)
    # -0.0 + 0.0 is +0.0: a null alternative prints 0, never -0
    slope = -2.0 * best_v + 0.0 if math.isfinite(best_v) else -INF
    return GenericSlopeRecord(
        slope=slope,
        minimizer=tuple(float(v) for v in best_q),
        constraint_level=level,
        statistic_name=stat.name,
    )


def _two_cell_infimum(spec: DivergenceSpec, p_null: tuple, stat: FunctionalStatistic, level: float):
    """The constrained infimum's minimizer and value on two cells, exactly.

    The divergence is convex in ``q_1`` with its minimum at ``p_1``, so each
    side's best is its feasible point nearest ``p_1``: the first point with
    ``psi >= level`` on the scan's lattice, walking outward from ``p_1``,
    moved by at most 60 bisection steps towards its infeasible neighbour
    (``p_1`` for the first lattice point).  The left side wins a tie.
    """

    def feasible(x):
        return float(stat.evaluator(p_null, np.array([x, 1.0 - x]))) >= level

    p1 = p_null[0]
    if feasible(p1):
        return np.array(p_null), 0.0
    xs, found = _lattice_masses(2, int(round(1.0 / GRID_STEP)))[0], []
    for side in (xs[xs < p1][::-1], xs[xs > p1]):
        near = p1
        for x in side.tolist():
            if feasible(x):
                for _ in range(60):
                    mid = 0.5 * (near + x)
                    if mid in (near, x):
                        break
                    near, x = (near, mid) if feasible(mid) else (mid, x)
                found.append(np.array([x, 1.0 - x]))
                break
            near = x
    if not found:
        raise ValidationError("no probability vector satisfies the slope constraint")
    return min(((q, cell_divergence(spec, p_null, q)) for q in found), key=lambda qv: qv[1])


def _scan_infimum(spec: DivergenceSpec, p: np.ndarray, p_null: tuple, stat: FunctionalStatistic, level: float):
    """The constrained infimum's minimizer and value from the simplex scan and its refinements."""
    lattice = _simplex_grid(p.shape[0], GRID_STEP)
    masses = _lattice_masses(p.shape[0], int(round(1.0 / GRID_STEP)))
    cells = np.arange(p.shape[0])
    # float rows built a block at a time: the scan never holds the float grid
    rows = (q for lo in range(0, lattice.shape[0], 4096) for q in masses[cells, lattice[lo : lo + 4096]])
    psi_vals = np.fromiter(map(stat.evaluator, repeat(p_null), rows), float, count=lattice.shape[0])
    feasible = psi_vals >= level - 1e-12
    del psi_vals
    if not np.any(feasible):
        raise ValidationError("no probability vector satisfies the slope constraint")
    cand = lattice[feasible]
    del lattice, feasible
    div_vals = _cell_divergence_rows(spec, p, cand, masses)
    starts = _start_indices(cand, masses, div_vals)
    start_rows = masses[cells, cand[starts]]
    best_q, best_v = start_rows[0], float(div_vals[starts[0]])
    for q0 in start_rows:
        q_ref, v_ref = _refine_constrained(spec, p_null, stat, level, q0)
        if v_ref < best_v - 1e-12 or (
            v_ref <= best_v + 1e-12 and tuple(q_ref) < tuple(best_q)
        ):
            best_q, best_v = q_ref, v_ref
    return best_q, best_v


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
    cell divergence at the masses ``(c / n, 1 - c / n)``, the dual supremum
    on a finite support at every count: an empty cell adds ``p_j phi'(inf)``,
    and a ratio outside the generator's domain reads ``+inf``.  At ``theta_prime = theta``
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
        stat_of_count = _cell_divergence_rows(spec, p, _simplex_grid(2, 1.0 / n), _lattice_masses(2, n))
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


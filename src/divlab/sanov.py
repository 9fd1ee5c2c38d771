"""Large-deviation laboratory for empirical and weighted empirical measures.

Everything here works on the cells of a categorical model, one per atom: exact
multinomial occupation probabilities, divergences between cell-mass
vectors, infima over max-deviation neighborhoods, the exact sandwich
between log-likelihood of a neighborhood and its rate surrogate, and a
conditional Monte Carlo probe of the weighted large-deviation rate.

Exact computations run in log-space with log-factorials.  A neighborhood
infimum is a separable convex program whose minimizer has a closed form for
every generator: the reference scaled by one factor and clipped to the box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergences import CressieRead, DivergenceSpec, INF, cell_divergence
from .errors import EnumerationLimitError, ValidationError
from .models import Categorical, ParametricModel
from .reporting import Record
from .seeding import chunked, derived_rng
from .weights import WeightLaw, induced_divergence

#: enumeration caps for exact multinomial scans
MAX_CELLS_EXACT = 3
MAX_N_EXACT = 300

KL = CressieRead(1.0)


# ---------------------------------------------------------------------------
# Partitions and neighborhoods.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """The atoms of a ``k``-cell categorical model, one cell each."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("a partition needs at least two cells")

    @classmethod
    def atoms(cls, k: int) -> "Partition":
        """One cell per atom."""
        return cls(int(k))


def cell_probabilities(model: ParametricModel, theta, part: Partition) -> np.ndarray:
    """Model probabilities of the partition cells."""
    if not isinstance(model, Categorical):
        raise ValidationError("partitions require a categorical model")
    if part.k != model.k:
        raise ValidationError(f"a {part.k}-cell partition does not fit a {model.k}-atom model")
    return model.probs(theta)


def check_radius(epsilon: float) -> None:
    """A neighborhood radius must be positive."""
    if not epsilon > 0.0:
        raise ValidationError("neighborhood radius must be positive")


def check_radius_grid(eps_grid: Sequence[float]) -> list:
    """The radii of a shrinking grid, checked nonempty, positive and strictly decreasing."""
    eps = [float(e) for e in eps_grid]
    if not eps:
        raise ValidationError("the radius grid must hold at least one radius")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("the radius grid must be strictly decreasing")
    for e in eps:
        check_radius(e)
    return eps


@dataclass(frozen=True)
class PartitionNeighborhood:
    """Max-cell-deviation ball around a cell-mass vector.

    Membership is strict (``max_j |q_j - c_j| < epsilon``); with
    ``zero_cells`` set, members must also vanish on every cell where the
    center vanishes.
    """

    center: tuple
    epsilon: float
    zero_cells: bool = True

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        if len(center) < 2:
            raise ValidationError("a neighborhood needs at least two cells")
        if any(c < 0.0 for c in center):
            raise ValidationError("center masses must be nonnegative")
        check_radius(self.epsilon)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def k(self) -> int:
        return len(self.center)

    def contains(self, masses) -> bool:
        return bool(self.contains_rows(np.asarray(masses, dtype=float)[None, :])[0])

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValidationError(f"rows must hold {self.k} cell masses each, got shape {rows.shape}")
        # one cell column at a time: a max over the short cell axis of a
        # (rows, k) temporary costs several times more; NaN fails every test
        ok = np.ones(len(rows), dtype=bool)
        for j, c in enumerate(self.center):
            ok &= np.abs(rows[:, j] - c) < self.epsilon
            if c == 0.0 and self.zero_cells:
                ok &= rows[:, j] == 0.0
        return ok

    def closed_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh bounds of the closure, clipped to [0, 1]."""
        c = np.asarray(self.center)
        lo = np.maximum(c - self.epsilon, 0.0)
        hi = np.minimum(c + self.epsilon, 1.0)
        if self.zero_cells:
            null = c == 0.0
            lo[null] = 0.0
            hi[null] = 0.0
        return lo, hi


# ---------------------------------------------------------------------------
# Exact occupation probabilities.
# ---------------------------------------------------------------------------


def _check_prob_vector(p: np.ndarray):
    if np.any(p < 0.0):
        raise ValidationError("probabilities must be nonnegative")
    if abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise ValidationError("probabilities must sum to one")


def log_occupation_probability(p, counts) -> float:
    """Log multinomial probability of observing exactly ``counts``."""
    p = np.asarray(p, dtype=float)
    counts = np.asarray(counts)
    if counts.shape != p.shape:
        raise ValidationError("counts and probabilities must have equal length")
    if np.any(counts < 0):
        raise ValidationError("counts must be nonnegative")
    if not np.all(counts == np.round(counts)):
        raise ValidationError("counts must be integers")
    _check_prob_vector(p)
    return float(_log_probs_of_counts(counts.astype(np.int64)[None, :], p)[0])


# ---------------------------------------------------------------------------
# Neighborhood infima: separable convex programs on the cell box.
# ---------------------------------------------------------------------------


def _box_projection(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``clip(s * p, lo, hi)`` with unit mass, null cells of ``p`` held at 0.

    On the charged cells the mass is piecewise linear and nondecreasing in
    ``s``, with knots at the ratios ``lo_j / p_j`` and ``hi_j / p_j``.  Between
    the first knot where it reaches 1 and the knot before, each cell sits at
    a bound or equals ``s * p_j``, which fixes ``s``.  Cells are classified by
    comparing ratios with knots: a knot times ``p_j`` against a bound can be
    misread through rounding.
    """
    q = np.zeros_like(p)
    free = p > 0.0
    pf, lf, hf = p[free], lo[free], hi[free]
    a, b = lf / pf, hf / pf
    # equal knots carry equal masses, so the first to reach 1 follows a smaller one
    knots = np.sort(np.concatenate((a, b)))
    t = knots[:, None]
    mass = np.sum(np.where(t <= a, lf, np.where(t >= b, hf, t * pf)), axis=1)
    i = int(np.argmax(mass >= 1.0))
    if i == 0:
        # unit mass with every cell at its lower bound, or (by rounding) never reached
        q[free] = lf if mass[0] >= 1.0 else hf
    else:
        at_hi, at_lo = b <= knots[i - 1], a >= knots[i]
        s = (1.0 - float(np.sum(hf[at_hi])) - float(np.sum(lf[at_lo]))) / float(np.sum(pf[~(at_hi | at_lo)]))
        q[free] = np.where(at_hi, hf, np.where(at_lo, lf, np.clip(s * pf, lf, hf)))
    return q


def neighborhood_inf_divergence(spec: DivergenceSpec, neighborhood: PartitionNeighborhood, p) -> float:
    """Infimum of ``sum_j p_j phi(q_j / p_j)`` over the probability vectors
    in the closed cell box.

    The minimizer is :func:`_box_projection`, whatever the generator: by the
    KKT conditions of this separable convex program, every cell strictly
    inside its bounds has ``phi'(q_j / p_j)`` equal to the multiplier of the
    total mass, hence one common ratio ``s``, and a cell at a bound is one
    that ``s * p_j`` would cross (Csiszar, Ann. Probab. 1975, I-projections).
    A scale outside the generator's domain gives ``+inf``.  A reference
    inside the box is its own minimizer and is taken as it is: scaling it to
    unit float mass can move its ratios off 1 by an ulp, and a power of
    index 1e30 overflows there.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[0] != neighborhood.k:
        raise ValidationError(f"expected {neighborhood.k} cell masses, got {p.shape[0]}")
    _check_prob_vector(p)
    lo, hi = neighborhood.closed_box()
    null = p == 0.0
    # a cell that the reference never charges forces the candidate to zero
    if np.any(null & (lo > 0.0)):
        return INF
    hi[null] = 0.0
    if float(np.sum(lo)) > 1.0 + 1e-12 or float(np.sum(hi)) < 1.0 - 1e-12:
        raise ValidationError("no probability vector lies in the neighborhood box")
    q = p if np.all((lo <= p) & (p <= hi)) else _box_projection(p, lo, hi)
    # Python floats: an overflowing power raises and gives +inf, where numpy's warns
    return cell_divergence(spec, q.tolist(), p.tolist())


# ---------------------------------------------------------------------------
# Exact enumeration: sandwich between log-probability and rate.
# ---------------------------------------------------------------------------


def largest_remainder_counts(probs, n: int) -> np.ndarray:
    """Integer counts summing to ``n``, proportional to ``probs``."""
    p = np.asarray(probs, dtype=float)
    _check_prob_vector(p)
    raw = p * n
    counts = np.floor(raw).astype(np.int64)
    short = int(n - np.sum(counts))
    if short > 0:
        # hand the leftover units to the largest fractional parts;
        # ties resolve by lowest cell index for determinism
        order = np.lexsort((np.arange(p.shape[0]), -(raw - counts)))
        counts[order[:short]] += 1
    return counts


def check_sample_sizes(n_grid: Sequence[int]) -> list:
    """The sample sizes of a grid as ints, each checked to be at least 1."""
    sizes = [int(n) for n in n_grid]
    for n in sizes:
        if n < 1:
            raise ValidationError(f"sample sizes must be at least 1, got {n}")
    return sizes


def check_enumeration(k: int, n: int) -> None:
    """Exact enumeration of count vectors is capped in cells and sample size."""
    if k > MAX_CELLS_EXACT or n > MAX_N_EXACT:
        raise EnumerationLimitError(
            f"exact enumeration is capped at k <= {MAX_CELLS_EXACT}, n <= {MAX_N_EXACT}"
        )


def simplex_counts(k: int, n: int) -> np.ndarray:
    """Every count vector of two or three cells summing to ``n``, the types
    of a size-``n`` sample: rows ``(a, n - a)`` or ``(a, b, n - a - b)``,
    ``a`` outer and ``b`` inner, both ascending, in the smallest unsigned
    integer type that holds ``n``."""
    a = np.arange(n + 1, dtype=np.min_scalar_type(n))
    if k == 2:
        return np.stack([a, n - a], axis=1)
    # block a holds the n + 1 - a rows b = 0 .. n - a
    b = np.concatenate([a[: n + 1 - i] for i in range(n + 1)])
    a = np.repeat(a, np.arange(n + 1, 0, -1))
    return np.stack([a, b, n - a - b], axis=1)


def enumerate_count_vectors(k: int, n: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``k`` summing to ``n``."""
    check_enumeration(k, n)
    return simplex_counts(k, n).astype(np.int64)


#: coefficients of the cephes ``lgam`` Stirling correction, and log sqrt(2 pi)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def _log_gamma_of_integer(x: int) -> float:
    """log Gamma(x) for an integer ``x >= 1``: cephes ``lgam``, the routine
    behind ``scipy.special.gammaln``, with the same operations and so the
    same bits.  ``math.log`` is libm's, like cephes'; numpy's SIMD ``log``
    rounds some arguments differently."""
    if x < 13:
        return math.log(float(math.factorial(x - 1)))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    return q + poly / x


@functools.cache
def _log_factorial_table() -> np.ndarray:
    """Read-only ``log j!`` for ``j = 0..MAX_N_EXACT``, every count an exact
    enumeration can hold."""
    table = np.array([_log_gamma_of_integer(j + 1) for j in range(MAX_N_EXACT + 1)])
    table.setflags(write=False)
    return table


def _log_factorials(counts: np.ndarray) -> np.ndarray:
    """``log j!`` for each entry ``j`` of an integer array: looked up in the
    table, or computed entry by entry when some count lies past it (only a
    single count vector, whose size is not capped, can)."""
    table = _log_factorial_table()
    if np.max(counts) < table.shape[0]:
        return table[counts]
    return np.array([_log_gamma_of_integer(j + 1) for j in np.ravel(counts).tolist()]).reshape(np.shape(counts))


def _logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a 1-D array, as ``scipy.special.logsumexp``
    computes it in scipy 1.17: the ``m`` tied maxima split off, then
    ``log1p(s/m) + log(m) + max`` with ``s`` the sum over the rest, falling
    back to the direct sum where that is not finite (every entry ``-inf``)."""
    a_max = np.max(a)
    tied = a == a_max
    m = np.sum(tied, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(tied, -np.inf, a) - a_max)) / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _log_probs_of_counts(counts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Log multinomial probability of each row of ``counts`` (equal row sums).

    A charged cell of zero probability gives ``-inf``; an empty one adds
    nothing.
    """
    n = np.sum(counts[0])
    logcoef = _log_factorials(n) - np.sum(_log_factorials(counts), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log(p), 0.0)
    return logcoef + np.sum(terms, axis=1)


@dataclass(frozen=True)
class SandwichReport(Record):
    """Exact check of the per-parameter likelihood/rate sandwich."""

    n: int
    epsilon: float
    k: int
    log_prob_rate: float
    neg_inf_divergence: float
    lower_bound: float
    gap: float
    holds: bool
    n_members: int


def _idealized_members(model, thetaT, part, epsilon, n, zero_cells):
    """The neighborhood of the idealized counts under ``thetaT``, and every
    count vector of size ``n`` whose empirical masses lie inside it."""
    check_sample_sizes([n])
    pT = cell_probabilities(model, thetaT, part)
    center = largest_remainder_counts(pT, n) / n
    V = PartitionNeighborhood(tuple(center), epsilon, zero_cells)
    counts = enumerate_count_vectors(part.k, n)
    return V, counts[V.contains_rows(counts / n)]


def sandwich_check(
    model: ParametricModel,
    theta,
    thetaT,
    part: Partition,
    epsilon: float,
    n: int,
    zero_cells: bool = True,
) -> SandwichReport:
    """Exactly enumerate the neighborhood mass under ``theta`` and compare
    its normalized log to the negative neighborhood infimum.

    The reported inequality is ``-(k/n) log(n+1) <= L - K <= 0`` where
    ``L`` is the exact normalized log-probability and ``K`` the negative
    infimum of the cell divergence over the closed neighborhood box.
    """
    k = part.k
    V, members = _idealized_members(model, thetaT, part, epsilon, n, zero_cells)
    p = cell_probabilities(model, theta, part)
    if members.shape[0]:
        L = _logsumexp(_log_probs_of_counts(members, p)) / n
    else:
        L = -INF
    K = -neighborhood_inf_divergence(KL, V, p)
    lower = -(k / n) * math.log(n + 1.0)
    gap = L - K
    holds = (lower - 1e-12 <= gap <= 1e-12) if math.isfinite(gap) else False
    return SandwichReport(
        n=int(n),
        epsilon=float(epsilon),
        k=k,
        log_prob_rate=L,
        neg_inf_divergence=K,
        lower_bound=lower,
        gap=gap,
        holds=holds,
        n_members=int(members.shape[0]),
    )


@dataclass(frozen=True)
class MLLDPReport(Record):
    """Gap between the exact and rate-surrogate maximizers."""

    n: int
    epsilon: float
    k: int
    theta_ml: tuple
    theta_ldp: tuple
    log_prob_at_ml: float
    log_prob_at_ldp: float
    gap: float
    plateau_gap: float
    bound: float
    holds: bool


#: EM step cap of :func:`_em_max`
_EM_MAX_ITER = 10_000


def _em_max(members: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """``(p, (1/n) log P_p(counts in members))`` at the EM maximizer started at ``p``.

    A count vector known only to lie in ``members`` is missing data, so EM
    (Dempster, Laird & Rubin, JRSS-B 1977) climbs its log-likelihood: ``p <-
    sum_c r_c c / n`` with posteriors ``r_c`` proportional to ``Mult(c; p)``.
    It stops at the first step that does not raise the log-likelihood, or
    after ``_EM_MAX_ITER`` steps, and returns the best iterate.
    """
    counts = members.astype(float)
    n = float(np.sum(counts[0]))
    log_probs = _log_probs_of_counts(members, p)
    best = (p, _logsumexp(log_probs))
    for _ in range(_EM_MAX_ITER):
        r = np.exp(log_probs - np.max(log_probs))
        p = (r @ counts) / (float(np.sum(r)) * n)
        log_probs = _log_probs_of_counts(members, p)
        value = _logsumexp(log_probs)
        if not value > best[1]:
            break
        best = (p, value)
    return best[0], best[1] / n


def _box_simplex_vertices(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The vertices of ``{q in [lo, hi] : sum q = 1}``, one per row (some
    repeated): every cell but one at a bound, the last one holding the rest
    of the mass within its own bounds (clipped to them against rounding)."""
    k = lo.shape[0]
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, k)
    rest = 1.0 - (np.sum(corners, axis=1, keepdims=True) - corners)
    rows, cells = ((rest >= lo - 1e-12) & (rest <= hi + 1e-12)).nonzero()
    vertices = corners[rows]
    vertices[np.arange(rows.shape[0]), cells] = np.clip(rest[rows, cells], lo[cells], hi[cells])
    return vertices


def ml_ldp_gap(
    model: Categorical,
    thetaT,
    part: Partition,
    epsilon: float,
    n: int,
    zero_cells: bool = True,
) -> MLLDPReport:
    """Compare the exact neighborhood log-probability ``L`` at its maximizer
    and on the plateau where its rate surrogate ``K`` is maximal.

    ``theta_ml`` maximizes ``L(theta) = (1/n) log P_theta(masses in V)`` by
    EM (:func:`_em_max`) from ``V``'s centre ``c0``, the idealized masses of
    ``thetaT`` (from the members' mean when ``c0`` leaves empty a cell some
    member charges, which EM from ``c0`` could never charge).  ``K(theta) =
    -inf KL(q || p_theta)`` over ``V``'s closed box is 0 on every parameter
    inside that box, and ``theta_ldp`` is ``c0``.  The sandwich ``-(k/n)
    log(n+1) <= L - K <= 0`` puts ``L(theta_ml) - L(theta)`` in ``[0, (k/n)
    log(n+1)]`` on the whole plateau: ``gap`` is that difference at ``c0``,
    ``plateau_gap`` its largest value at the vertices of the box cut by the
    simplex, and ``holds`` checks the bounds at all of them.
    """
    k = part.k
    V, members = _idealized_members(model, thetaT, part, epsilon, n, zero_cells)
    if not members.shape[0]:
        raise ValidationError("the neighborhood contains no empirical measure on this grid")

    def L(p) -> float:
        return _logsumexp(_log_probs_of_counts(members, p)) / n

    centre = np.asarray(V.center)
    p_ml, L_ml = _em_max(members, members.mean(axis=0) / n if members[:, centre == 0.0].any() else centre)
    L_ldp = L(centre)
    gaps = [L_ml - L_ldp] + [L_ml - L(v) for v in _box_simplex_vertices(*V.closed_box())]
    bound = (k / n) * math.log(n + 1.0)
    return MLLDPReport(
        n=int(n),
        epsilon=float(epsilon),
        k=k,
        theta_ml=tuple(p_ml[:-1].tolist()),
        theta_ldp=tuple(centre[:-1].tolist()),
        log_prob_at_ml=L_ml,
        log_prob_at_ldp=L_ldp,
        gap=gaps[0],
        plateau_gap=max(gaps),
        bound=bound,
        holds=-1e-9 <= min(gaps) and max(gaps) <= bound + 1e-9,
    )


# ---------------------------------------------------------------------------
# Rate convergence along idealized count sequences.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateRow(Record):
    n: int
    rate_estimate: float
    rate_target: float
    gap: float


@dataclass(frozen=True)
class RateTable(Record):
    rows: tuple
    fitted_constant: float


def sanov_rate_convergence(model: Categorical, theta, thetaT, n_grid: Sequence[int]) -> RateTable:
    """Normalized exact log-occupation probabilities along idealized
    counts, against the negative cell divergence of the two parameters.
    """
    p = model.probs(theta)
    pT = model.probs(thetaT)
    target = -cell_divergence(KL, pT, p)
    rows = []
    gaps_scaled = []
    for n in check_sample_sizes(n_grid):
        counts = largest_remainder_counts(pT, n)
        rate = log_occupation_probability(p, counts) / n
        gap = abs(rate - target)
        rows.append(RateRow(n=n, rate_estimate=rate, rate_target=target, gap=gap))
        if n > 1:
            gaps_scaled.append(gap * n / math.log(n))
    fitted = max(gaps_scaled) if gaps_scaled else 0.0
    return RateTable(rows=tuple(rows), fitted_constant=fitted)


# ---------------------------------------------------------------------------
# Conditional Monte Carlo for weighted empirical measures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalRateRecord(Record):
    """Monte Carlo estimate of the conditional neighborhood rate."""

    n: int
    epsilon: float
    reps: int
    hits: int
    frequency: float
    rate_estimate: float
    rate_target: float
    ci_lo: float
    ci_hi: float
    one_sided: bool
    seed: int
    law: str


def wilson_interval(hits: int, reps: int) -> tuple[float, float]:
    """95% Wilson score interval of a hit frequency; ``(0, 3/reps)`` without hits."""
    if hits == 0:
        return 0.0, 3.0 / reps
    z = 1.959963984540054  # two-sided 95% normal quantile
    phat = hits / reps
    denom = 1.0 + z * z / reps
    center = (phat + z * z / (2.0 * reps)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / reps + z * z / (4.0 * reps * reps)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def log_rate(hits: int, reps: int, n: int) -> tuple[float, float, float, bool]:
    """``(log(hits/reps) / n, ci_lo, ci_hi, one_sided)`` of a hit count.

    The interval is the Wilson interval on the same scale; without hits
    the estimate and the lower end are ``-inf`` and the interval is
    one-sided.
    """
    lo_f, hi_f = wilson_interval(hits, reps)
    ci_hi = math.log(hi_f) / n
    if hits == 0:
        return -INF, -INF, ci_hi, True
    ci_lo = math.log(lo_f) / n if lo_f > 0.0 else -INF
    return math.log(hits / reps) / n, ci_lo, ci_hi, False


def check_mc_reps(reps: int) -> None:
    """The conditional Monte Carlo needs at least 100 replications."""
    if reps < 100:
        raise ValidationError("at least 100 replications are required")


def conditional_ldp_mc(
    model: ParametricModel,
    theta,
    thetaT,
    law: WeightLaw,
    part: Partition,
    epsilon: float,
    n: int,
    reps: int,
    seed: int,
    zero_cells: bool = True,
) -> ConditionalRateRecord:
    """Estimate the conditional rate of landing in a neighborhood of the
    observed weighted empirical measure.

    One sample is drawn under the data-generating parameter and weighted
    once; the replications then redraw both data (under ``theta``) and
    weights, and the hit frequency of the neighborhood is converted to a
    rate and compared to the negative neighborhood infimum of the
    weight-induced divergence around the idealized cell probabilities.
    """
    check_sample_sizes([n])
    check_mc_reps(reps)
    n = int(n)
    reps = int(reps)
    p = cell_probabilities(model, theta, part)
    pT = cell_probabilities(model, thetaT, part)
    k = part.k

    data_rng = derived_rng(seed, "data")
    points = model.sample(thetaT, n, data_rng)
    cells = model.atom_index(points)
    w_rng = derived_rng(seed, "weights")
    w_obs = law.sample(n, w_rng)
    center = np.zeros(k)
    np.add.at(center, cells, w_obs)
    center /= n
    # signed weights can push a cell mass below zero; the neighborhood
    # center clips at zero like any measure boundary
    center = np.maximum(center, 0.0)
    V = PartitionNeighborhood(tuple(center), epsilon, zero_cells)

    def chunk_hits(rng, size: int) -> int:
        counts = rng.multinomial(n, p, size=size)
        masses = law.sample_sum(counts, rng) / n
        return int(np.count_nonzero(V.contains_rows(masses)))

    hits = sum(chunked(seed, "rep", reps, chunk_hits))
    rate, ci_lo, ci_hi, one_sided = log_rate(hits, reps, n)
    ideal = PartitionNeighborhood(tuple(pT), epsilon, zero_cells)
    target = -neighborhood_inf_divergence(induced_divergence(law), ideal, p)
    return ConditionalRateRecord(
        n=n,
        epsilon=float(epsilon),
        reps=reps,
        hits=hits,
        frequency=hits / reps,
        rate_estimate=rate,
        rate_target=target,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        one_sided=one_sided,
        seed=int(seed),
        law=law.token,
    )


# ---------------------------------------------------------------------------
# Shrinking neighborhoods.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkRow(Record):
    epsilon: float
    inf_value: float


@dataclass(frozen=True)
class ShrinkTable(Record):
    rows: tuple
    limit_value: float
    converged: bool
    monotone: bool


def shrink_epsilon_limit(
    spec: DivergenceSpec,
    center,
    p,
    eps_grid: Sequence[float],
    zero_cells: bool = True,
) -> ShrinkTable:
    """Neighborhood infima along a shrinking radius grid.

    As the radius shrinks the infimum grows to the point divergence of
    the center from the reference; convergence is checked at the last
    grid entry within 1e-6.
    """
    eps = check_radius_grid(eps_grid)
    c = np.asarray(center, dtype=float)
    pv = np.asarray(p, dtype=float)
    _check_prob_vector(pv)
    rows = []
    for e in eps:
        v = neighborhood_inf_divergence(spec, PartitionNeighborhood(tuple(c), e, zero_cells), pv)
        rows.append(ShrinkRow(epsilon=e, inf_value=v))
    limit = cell_divergence(spec, c.tolist(), pv.tolist())
    vals = [r.inf_value for r in rows]
    monotone = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    converged = math.isfinite(vals[-1]) and abs(vals[-1] - limit) <= 1e-6
    return ShrinkTable(rows=tuple(rows), limit_value=limit, converged=converged, monotone=monotone)

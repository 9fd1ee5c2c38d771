"""Large-deviation laboratory for empirical and weighted empirical measures.

Everything here works on a finite partition of the sample space: exact
multinomial occupation probabilities, divergences between cell-mass
vectors, infima over max-deviation neighborhoods, the exact sandwich
between log-likelihood of a neighborhood and its rate surrogate, and a
conditional Monte Carlo probe of the weighted large-deviation rate.

Exact computations run in log-space with log-factorials; neighborhood
infima are solved as separable convex programs by bisection on the
Lagrange multiplier of the total-mass constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergences import CressieRead, DivergenceSpec, FiniteMeasure, INF, cell_divergence, divergence_finite
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
    """Disjoint cells covering the support.

    Exactly one representation is set: ``groups`` partitions the atom
    indices of a finite model; ``edges`` holds increasing interior
    breakpoints splitting the real line into ``len(edges) + 1`` intervals
    (left-open, right-closed at each edge).
    """

    groups: tuple | None = None
    edges: tuple | None = None

    def __post_init__(self):
        if (self.groups is None) == (self.edges is None):
            raise ValidationError("a partition needs exactly one of groups or edges")
        if self.groups is not None:
            groups = tuple(tuple(int(i) for i in g) for g in self.groups)
            seen: set[int] = set()
            for g in groups:
                if not g:
                    raise ValidationError("partition cells must be nonempty")
                if seen.intersection(g):
                    raise ValidationError("partition cells must be disjoint")
                seen.update(g)
            if min(seen) != 0 or max(seen) != len(seen) - 1:
                raise ValidationError("partition groups must cover atom indices 0..m-1")
            object.__setattr__(self, "groups", groups)
        else:
            edges = tuple(float(e) for e in self.edges)
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValidationError("partition edges must be strictly increasing")
            object.__setattr__(self, "edges", edges)
        if self.k < 2:
            raise ValidationError("a partition needs at least two cells")

    @property
    def k(self) -> int:
        if self.groups is not None:
            return len(self.groups)
        return len(self.edges) + 1

    @classmethod
    def atoms(cls, k: int) -> "Partition":
        """One cell per atom."""
        return cls(groups=tuple((i,) for i in range(int(k))))

    @classmethod
    def from_edges(cls, edges: Sequence[float]) -> "Partition":
        return cls(edges=tuple(edges))

    @classmethod
    def equal_mass(cls, points: Sequence[float], k: int | None = None) -> "Partition":
        """Interval cells with equal empirical mass; default cell count
        grows like the cube root of the sample size."""
        pts = np.sort(np.asarray(points, dtype=float))
        n = pts.shape[0]
        if k is None:
            k = max(2, math.ceil(n ** (1.0 / 3.0)))
        if n < k:
            raise ValidationError("not enough points for the requested cell count")
        qs = np.arange(1, k) / k
        edges = np.quantile(pts, qs)
        edges = np.unique(edges)
        if edges.shape[0] + 1 < 2:
            raise ValidationError("degenerate sample: all points equal")
        return cls(edges=tuple(edges))

    def cell_index(self, model: ParametricModel, points) -> np.ndarray:
        """Cell number of each point."""
        if self.edges is not None:
            return np.searchsorted(np.asarray(self.edges), np.asarray(points, dtype=float), side="left")
        if not isinstance(model, Categorical):
            raise ValidationError("group partitions require a finite-support model")
        lookup = np.empty(sum(len(g) for g in self.groups), dtype=int)
        for c, g in enumerate(self.groups):
            lookup[list(g)] = c
        return lookup[model.atom_index(np.asarray(points))]


def cell_probabilities(model: ParametricModel, theta, part: Partition) -> np.ndarray:
    """Model probabilities of the partition cells."""
    if part.groups is not None:
        if not isinstance(model, Categorical):
            raise ValidationError("group partitions require a finite-support model")
        if sum(len(g) for g in part.groups) != model.k:
            raise ValidationError("partition groups must cover every atom of the model")
        p = model.probs(theta)
        return np.array([float(np.sum(p[list(g)])) for g in part.groups])
    cdf_vals = np.concatenate([[0.0], np.asarray(model.cdf(theta, np.asarray(part.edges)), dtype=float), [1.0]])
    return np.diff(cdf_vals)


def project_masses(part: Partition, atom_masses: Sequence[float]) -> np.ndarray:
    """Aggregate atom masses into partition cells (group partitions only)."""
    if part.groups is None:
        raise ValidationError("mass projection requires a group partition")
    m = np.asarray(atom_masses, dtype=float)
    return np.array([float(np.sum(m[list(g)])) for g in part.groups])


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
        if not self.epsilon > 0.0:
            raise ValidationError("neighborhood radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def k(self) -> int:
        return len(self.center)

    def contains(self, masses) -> bool:
        return bool(self.contains_rows(np.asarray(masses, dtype=float)[None, :])[0])

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        ok = np.max(np.abs(rows - c), axis=1) < self.epsilon
        if self.zero_cells:
            null = c == 0.0
            if np.any(null):
                ok &= np.all(rows[:, null] == 0.0, axis=1)
        return ok

    def closed_box(self, cap_at_one: bool) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        lo = np.maximum(c - self.epsilon, 0.0)
        hi = c + self.epsilon
        if cap_at_one:
            hi = np.minimum(hi, 1.0)
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
    from scipy.special import gammaln

    p = np.asarray(p, dtype=float)
    counts = np.asarray(counts)
    if counts.shape != p.shape:
        raise ValidationError("counts and probabilities must have equal length")
    if np.any(counts < 0):
        raise ValidationError("counts must be nonnegative")
    if not np.all(counts == np.round(counts)):
        raise ValidationError("counts must be integers")
    _check_prob_vector(p)
    counts = counts.astype(np.int64)
    n = int(np.sum(counts))
    if np.any((counts > 0) & (p == 0.0)):
        return -INF
    pos = counts > 0
    return float(
        gammaln(n + 1)
        - np.sum(gammaln(counts + 1))
        + np.sum(counts[pos] * np.log(p[pos]))
    )


def exact_occupation_probability(p, counts) -> float:
    """Multinomial probability that the empirical counts equal ``counts``."""
    lp = log_occupation_probability(p, counts)
    return math.exp(lp) if lp > -INF else 0.0


def _as_cell_vector(measure, k: int | None = None) -> np.ndarray:
    if isinstance(measure, FiniteMeasure):
        vec = np.asarray(measure.masses, dtype=float)
    else:
        vec = np.asarray(measure, dtype=float)
    if k is not None and vec.shape[0] != k:
        raise ValidationError(f"expected {k} cell masses, got {vec.shape[0]}")
    return vec


def kl_on_partition(q, p, part: Partition | None = None) -> float:
    """``sum_j q_j log(q_j / p_j)`` over cells, with ``0 log 0 = 0``."""
    k = part.k if part is not None else None
    qv = _as_cell_vector(q, k)
    pv = _as_cell_vector(p, qv.shape[0])
    total = 0.0
    for qj, pj in zip(qv, pv):
        if qj == 0.0:
            continue
        if pj == 0.0:
            return INF
        total += qj * math.log(qj / pj)
    return total


# ---------------------------------------------------------------------------
# Neighborhood infima: separable convex programs on the cell box.
# ---------------------------------------------------------------------------


def _waterfill_sum(spec: DivergenceSpec, lam: float, p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    inv = spec.prime_inverse(lam)
    return np.clip(p * inv, lo, hi)


def neighborhood_inf_divergence(
    spec: DivergenceSpec,
    neighborhood: PartitionNeighborhood,
    p,
    simplex: bool = True,
    tol: float = 1e-9,
    return_minimizer: bool = False,
):
    """Infimum of ``sum_j p_j phi(q_j / p_j)`` over the closed cell box.

    With ``simplex`` set the candidates are probability vectors; without
    it each cell mass moves freely inside the box.  The sum constraint is
    handled by bisection on the multiplier of the total mass, exact for
    this separable convex objective.
    """
    p = _as_cell_vector(p, neighborhood.k)
    lo, hi = neighborhood.closed_box(cap_at_one=simplex)

    null = p == 0.0
    # a cell that the reference never charges forces the candidate to zero
    if np.any(null & (lo > 0.0)):
        value = INF
        q = None
    elif not simplex:
        q = np.clip(p, lo, hi)
        q[null] = 0.0
        value = cell_divergence(spec, q, p)
    else:
        lo = lo.copy()
        hi = hi.copy()
        hi[null] = 0.0
        if float(np.sum(lo)) > 1.0 + 1e-12 or float(np.sum(hi)) < 1.0 - 1e-12:
            raise ValidationError("no probability vector lies in the neighborhood box")
        free = ~null
        target = 1.0
        pf, lf, hf = p[free], lo[free], hi[free]

        def total(lam: float) -> float:
            return float(np.sum(_waterfill_sum(spec, lam, pf, lf, hf)))

        lam_lo, lam_hi = -1.0, 1.0
        for _ in range(200):
            if total(lam_lo) <= target:
                break
            lam_lo *= 2.0
        for _ in range(200):
            if total(lam_hi) >= target:
                break
            lam_hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lam_lo + lam_hi)
            if total(mid) < target:
                lam_lo = mid
            else:
                lam_hi = mid
            if lam_hi - lam_lo < 1e-15 * max(1.0, abs(lam_hi)):
                break
        q = np.zeros_like(p)
        q[free] = _waterfill_sum(spec, 0.5 * (lam_lo + lam_hi), pf, lf, hf)
        value = cell_divergence(spec, q, p)
    if return_minimizer:
        return value, q
    return value


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


def enumerate_count_vectors(k: int, n: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``k`` summing to ``n``."""
    if k > MAX_CELLS_EXACT or n > MAX_N_EXACT:
        raise EnumerationLimitError(
            f"exact enumeration is capped at k <= {MAX_CELLS_EXACT}, n <= {MAX_N_EXACT}"
        )
    if k == 2:
        j = np.arange(n + 1, dtype=np.int64)
        return np.stack([j, n - j], axis=1)
    a, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    mask = a + b <= n
    a, b = a[mask], b[mask]
    return np.stack([a, b, n - a - b], axis=1).astype(np.int64)


def _log_probs_of_counts(counts: np.ndarray, p: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln

    n = int(np.sum(counts[0]))
    logcoef = gammaln(n + 1) - np.sum(gammaln(counts + 1), axis=1)
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    terms = np.where(counts > 0, counts * logp, 0.0)
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


def _neighborhood_from_idealized(model, thetaT, part, epsilon, n, zero_cells):
    pT = cell_probabilities(model, thetaT, part)
    counts_T = largest_remainder_counts(pT, n)
    center = counts_T / n
    return PartitionNeighborhood(tuple(center), epsilon, zero_cells)


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
    from scipy.special import logsumexp

    k = part.k
    V = _neighborhood_from_idealized(model, thetaT, part, epsilon, n, zero_cells)
    p = cell_probabilities(model, theta, part)
    counts = enumerate_count_vectors(k, n)
    member = V.contains_rows(counts / n)
    if np.any(member):
        L = float(logsumexp(_log_probs_of_counts(counts[member], p))) / n
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
        n_members=int(np.sum(member)),
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
    bound: float
    holds: bool


def ml_ldp_gap(
    model: Categorical,
    thetaT,
    part: Partition,
    epsilon: float,
    n: int,
    zero_cells: bool = True,
    box: tuple | None = None,
) -> MLLDPReport:
    """Maximize the exact neighborhood log-probability and its rate
    surrogate over the parameter; their exact-likelihood gap obeys
    ``0 <= L(theta_exact) - L(theta_rate) <= (k/n) log(n+1)``.
    """
    from scipy.special import gammaln, logsumexp

    from ._optim import maximize_scalar, nelder_mead_multistart

    k = part.k
    V = _neighborhood_from_idealized(model, thetaT, part, epsilon, n, zero_cells)
    counts = enumerate_count_vectors(k, n)
    member = V.contains_rows(counts / n)
    if not np.any(member):
        raise ValidationError("the neighborhood contains no empirical measure on this grid")
    counts_m = counts[member]
    logcoef = gammaln(n + 1) - np.sum(gammaln(counts_m + 1), axis=1)

    def cell_probs(theta_vec):
        return cell_probabilities(model, theta_vec, part)

    def L(theta_vec) -> float:
        try:
            p = cell_probs(theta_vec)
        except Exception:
            return -INF
        if np.any(p <= 0.0):
            return -INF
        return float(logsumexp(logcoef + counts_m @ np.log(p))) / n

    def K(theta_vec) -> float:
        try:
            p = cell_probs(theta_vec)
        except Exception:
            return -INF
        return -neighborhood_inf_divergence(KL, V, p)

    dim = model.param_dim
    if box is None:
        lo = np.full(dim, 1e-3)
        hi = np.full(dim, 1.0 - 1e-3)
    else:
        lo = np.atleast_1d(np.asarray(box[0], dtype=float))
        hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    if dim == 1:
        theta_ml, _ = maximize_scalar(lambda t: L(np.array([t])), float(lo[0]), float(hi[0]), n_scan=33)
        theta_ldp, _ = maximize_scalar(lambda t: K(np.array([t])), float(lo[0]), float(hi[0]), n_scan=33)
        theta_ml = np.array([theta_ml])
        theta_ldp = np.array([theta_ldp])
    else:
        theta_ml, _ = nelder_mead_multistart(lambda t: -L(t), lo, hi)
        theta_ldp, _ = nelder_mead_multistart(lambda t: -K(t), lo, hi)
    L_ml = L(theta_ml)
    L_ldp = L(theta_ldp)
    bound = (k / n) * math.log(n + 1.0)
    gap = L_ml - L_ldp
    holds = -1e-9 <= gap <= bound + 1e-9
    return MLLDPReport(
        n=int(n),
        epsilon=float(epsilon),
        k=k,
        theta_ml=tuple(np.atleast_1d(theta_ml).tolist()),
        theta_ldp=tuple(np.atleast_1d(theta_ldp).tolist()),
        log_prob_at_ml=L_ml,
        log_prob_at_ldp=L_ldp,
        gap=gap,
        bound=bound,
        holds=holds,
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
    target = -kl_on_partition(pT, p)
    rows = []
    gaps_scaled = []
    for n in n_grid:
        n = int(n)
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
    threads: int = 1,
) -> ConditionalRateRecord:
    """Estimate the conditional rate of landing in a neighborhood of the
    observed weighted empirical measure.

    One sample is drawn under the data-generating parameter and weighted
    once; the replications then redraw both data (under ``theta``) and
    weights, and the hit frequency of the neighborhood is converted to a
    rate and compared to the negative neighborhood infimum of the
    weight-induced divergence around the idealized cell probabilities.
    """
    if reps < 100:
        raise ValidationError("at least 100 replications are required")
    n = int(n)
    reps = int(reps)
    p = cell_probabilities(model, theta, part)
    pT = cell_probabilities(model, thetaT, part)
    k = part.k

    data_rng = derived_rng(seed, "data")
    points = model.sample(thetaT, n, data_rng)
    cells = part.cell_index(model, points)
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
        return int(np.sum(V.contains_rows(masses)))

    hits = sum(chunked(seed, "rep", reps, chunk_hits, threads))
    freq = hits / reps
    lo_f, hi_f = wilson_interval(hits, reps)
    ideal = PartitionNeighborhood(tuple(pT), epsilon, zero_cells)
    target = -neighborhood_inf_divergence(induced_divergence(law), ideal, p)
    if hits == 0:
        rate = -INF
        ci_lo, ci_hi = -INF, math.log(hi_f) / n
        one_sided = True
    else:
        rate = math.log(freq) / n
        ci_lo = math.log(lo_f) / n if lo_f > 0.0 else -INF
        ci_hi = math.log(hi_f) / n
        one_sided = False
    return ConditionalRateRecord(
        n=n,
        epsilon=float(epsilon),
        reps=reps,
        hits=hits,
        frequency=freq,
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
    part: Partition | None,
    eps_grid: Sequence[float],
    zero_cells: bool = True,
) -> ShrinkTable:
    """Neighborhood infima along a shrinking radius grid.

    As the radius shrinks the infimum grows to the point divergence of
    the center from the reference; convergence is checked at the last
    grid entry within 1e-6.
    """
    eps = [float(e) for e in eps_grid]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("the radius grid must be strictly decreasing")
    k = part.k if part is not None else None
    c = _as_cell_vector(center, k)
    pv = _as_cell_vector(p, c.shape[0])
    rows = []
    for e in eps:
        v = neighborhood_inf_divergence(spec, PartitionNeighborhood(tuple(c), e, zero_cells), pv)
        rows.append(ShrinkRow(epsilon=e, inf_value=v))
    limit = divergence_finite(
        spec,
        FiniteMeasure(tuple(range(c.shape[0])), tuple(c)),
        FiniteMeasure(tuple(range(pv.shape[0])), tuple(pv)),
    )
    vals = [r.inf_value for r in rows]
    monotone = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    converged = math.isfinite(vals[-1]) and abs(vals[-1] - limit) <= 1e-6
    return ShrinkTable(rows=tuple(rows), limit_value=limit, converged=converged, monotone=monotone)

"""Monte Carlo harness for weak-convergence behaviour of weighted statistics.

Conditionally on a fixed point set, a weighted linear statistic
``U = (1/n) sum_i W_i f(x_i)`` has exact mean ``mu1 = (1/n) sum f(x_i)``
and exact variance ``mu2 / n`` with ``mu2 = (1/n) sum f(x_i)**2``, because
the weights have unit mean and unit variance.  The harness checks those
moments, gates the standardized statistic against normality, and compares
the spread of the weighted estimator (weights random, points fixed) with
the plain-sampling estimator (points random, weights one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import CressieRead, DivergenceSpec
from .errors import DomainError, NumericError, ValidationError
from .estimation import minimum_dual_estimator_batch
from .models import ExponentialFamilyModel
from .sanov import check_sample_sizes
from .seeding import chunked, derived_rng
from .weights import WeightLaw

#: values per row block of a moment harness draw, about 256 KB of doubles
ROW_BLOCK_VALUES = 32768

STATISTIC_MAP = {
    "identity": lambda x: np.asarray(x, dtype=float),
    "square": lambda x: np.asarray(x, dtype=float) ** 2,
    "cosine": lambda x: np.cos(np.asarray(x, dtype=float)),
}


@dataclass(frozen=True)
class MCReport:
    """Moments, gates, and per-replication values of one experiment."""

    kind: str
    n: int
    reps: int
    seed: int
    moments: dict
    targets: dict
    checks: dict
    values: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "moments": self.moments,
            "targets": self.targets,
            "checks": self.checks,
            "passed": self.passed,
            "details": self.details,
        }


def check_sizes(n: int, reps: int) -> None:
    """The harnesses need at least one point and two replications, the
    fewest that form a sample variance."""
    check_sample_sizes([n])
    if reps < 2:
        raise ValidationError(f"at least 2 replications are required to form a variance, got {reps}")


def _weighted_sums(fv: np.ndarray, law: WeightLaw, reps: int, seed: int, tag: str) -> np.ndarray:
    """Per-replication values of ``(1/n) sum_i W_i f(x_i)`` for ``fv = f(x)``.

    Each ``chunked`` block draws its weights ``ROW_BLOCK_VALUES // n`` rows
    at a time from the block's generator.  By the split-stream property of
    ``WeightLaw.sample`` the weights, and so each row's pairwise mean, are
    those of one ``size x n`` draw, without that matrix in memory.
    """
    n = fv.shape[0]
    rows = max(1, ROW_BLOCK_VALUES // n)

    def draw(rng, size):
        out = np.empty(size)
        for start in range(0, size, rows):
            block = out[start:start + rows]
            w = law.sample(block.size * n, rng).reshape(block.size, n)
            w *= fv
            np.mean(w, axis=1, out=block)
        return out

    return np.concatenate(chunked(seed, tag, reps, draw))


def _fixed_point_moments(fv: np.ndarray) -> tuple[float, float]:
    if not np.all(np.isfinite(fv)):
        raise ValidationError("the statistic must be finite on every point")
    mu1 = float(np.mean(fv))
    mu2 = float(np.mean(fv * fv))
    return mu1, mu2


def weighted_lln_check(points, law: WeightLaw, f, reps: int, seed: int) -> MCReport:
    """Exact-moment check of the weighted mean on fixed points.

    The Monte Carlo mean of the weighted statistic must match the plain
    average of the statistic, and its variance the second moment over
    ``n``, both within four standard errors.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    check_sizes(n, reps)
    reps = int(reps)
    fv = np.asarray(f(points), dtype=float)
    mu1, mu2 = _fixed_point_moments(fv)
    u = _weighted_sums(fv, law, reps, seed, "lln")

    mean = float(np.mean(u))
    var = float(np.var(u, ddof=1))
    centered = u - mean
    m4 = float(np.mean(centered**4))
    se_mean = math.sqrt(max(var, 1e-300) / reps)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / reps) + 1e-300
    target_var = mu2 / n
    checks = {
        "mean_within_4se": abs(mean - mu1) <= 4.0 * se_mean,
        "variance_within_4se": abs(var - target_var) <= 4.0 * se_var,
    }
    return MCReport(
        kind="lln",
        n=n,
        reps=reps,
        seed=int(seed),
        moments={"mean": mean, "variance": var},
        targets={"mean": mu1, "variance": target_var},
        checks=checks,
        values=tuple(u.tolist()),
        details={"se_mean": se_mean, "se_variance": se_var, "law": law.token},
    )


def _skew_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Biased sample skewness and excess kurtosis of a 1-d array.

    The operations are those of ``scipy.stats.skew`` and
    ``scipy.stats.kurtosis`` in the same order, so the bits agree; both are
    NaN when the centered second moment vanishes relative to the mean.
    """
    mean = np.mean(x, keepdims=True)
    d = x - mean
    d2 = d**2
    m2 = np.mean(d2)
    if m2 <= (np.finfo(float).eps * mean[0]) ** 2:
        return math.nan, math.nan
    return float(np.mean(d2 * d) / m2**1.5), float(np.mean(d2**2) / m2**2.0 - 3)


def weighted_clt_check(
    points,
    law: WeightLaw,
    f,
    reps: int,
    seed: int,
) -> MCReport:
    """Normality gates for the standardized weighted mean.

    The statistic is standardized with the centered second moment of the
    point values; a spread of point values is therefore required.  The
    gates bound ``|skewness|`` by 0.15, ``|excess kurtosis|`` by 0.3, and
    the tail frequencies at -1.645 and 1.645 within 0.02 of 0.05 and 0.95.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    check_sizes(n, reps)
    reps = int(reps)
    fv = np.asarray(f(points), dtype=float)
    mu1, mu2 = _fixed_point_moments(fv)
    spread = mu2 - mu1 * mu1
    if spread <= 1e-12 * max(1.0, abs(mu2)):
        raise DomainError("the statistic is constant on the points; nothing to standardize")
    u = _weighted_sums(fv, law, reps, seed, "clt")
    t_vals = math.sqrt(n) * (u - mu1) / math.sqrt(spread)

    skew, kurt = _skew_kurtosis(t_vals)
    lower_frac = float(np.mean(t_vals <= -1.645))
    upper_frac = float(np.mean(t_vals <= 1.645))
    checks = {
        "skewness": abs(skew) <= 0.15,
        "excess_kurtosis": abs(kurt) <= 0.3,
        "lower_tail": abs(lower_frac - 0.05) <= 0.02,
        "upper_tail": abs(upper_frac - 0.95) <= 0.02,
    }
    return MCReport(
        kind="clt",
        n=n,
        reps=reps,
        seed=int(seed),
        moments={
            "mean": float(np.mean(t_vals)),
            "variance": float(np.var(t_vals, ddof=1)),
            "skewness": skew,
            "excess_kurtosis": kurt,
            "lower_tail_frequency": lower_frac,
            "upper_tail_frequency": upper_frac,
        },
        targets={
            "skewness": 0.0,
            "excess_kurtosis": 0.0,
            "lower_tail_frequency": 0.05,
            "upper_tail_frequency": 0.95,
        },
        checks=checks,
        values=tuple(t_vals.tolist()),
        details={"law": law.token, "mu1": mu1, "mu2": mu2},
    )


def estimator_distribution_compare(
    model: ExponentialFamilyModel,
    law: WeightLaw,
    spec: DivergenceSpec,
    thetaT: float,
    n: int,
    reps: int,
    seed: int,
) -> MCReport:
    """Spread of the weighted estimator against the plain-sampling one.

    The weighted branch fixes one point draw and randomizes weights; its
    estimates are centered at the conditional center, the score solution
    of the fixed points.  The plain branch redraws points with unit
    weights.  Both normalized variances must agree within the stated
    band and sit near the inverse information.
    """
    if not isinstance(spec, CressieRead):
        raise ValidationError("the batched comparison needs a power-family generator")
    check_sizes(n, reps)
    n = int(n)
    reps = int(reps)

    points = model.sample(thetaT, n, derived_rng(seed, "points"))
    pilot = model.pilot_estimate(points)
    lo, hi = model.default_box(pilot)
    box = (float(np.atleast_1d(lo)[0]), float(np.atleast_1d(hi)[0]))

    w = np.concatenate(
        chunked(seed, "weights", reps, lambda rng, size: law.sample(size * n, rng).reshape(size, n))
    )
    theta_w = minimum_dual_estimator_batch(model, spec, points[None, :], w, box)

    data = np.concatenate(
        chunked(seed, "plain", reps, lambda rng, size: model.sample(thetaT, size * n, rng).reshape(size, n))
    )
    theta_p = minimum_dual_estimator_batch(model, spec, data, np.ones((1, n)), box)

    edge = 1e-6 * (box[1] - box[0])
    fail_w = int(np.sum(~np.isfinite(theta_w) | (theta_w < box[0] + edge) | (theta_w > box[1] - edge)))
    fail_p = int(np.sum(~np.isfinite(theta_p) | (theta_p < box[0] + edge) | (theta_p > box[1] - edge)))
    for name, count in (("weighted", fail_w), ("plain", fail_p)):
        if count > 0.05 * reps:
            raise NumericError(
                f"{name} estimator failed on {count} of {reps} replications"
            )

    scaled_w = math.sqrt(n) * (theta_w - pilot)
    scaled_p = math.sqrt(n) * (theta_p - float(thetaT))
    var_w = float(np.var(scaled_w, ddof=1))
    var_p = float(np.var(scaled_p, ddof=1))
    # a zero range, not a zero variance: the variance of equal values can round above 0
    flat = [name for name, vals in (("weighted", scaled_w), ("plain", scaled_p)) if np.ptp(vals) == 0.0]
    if flat:
        raise NumericError(f"{' and '.join(flat)} estimates have zero variance over {reps} replications")
    ratio = var_w / var_p
    inv_info = 1.0 / float(model.fisher_information(thetaT)[0, 0])
    checks = {
        "variance_ratio_in_band": 0.8 <= ratio <= 1.25,
        "weighted_near_inverse_information": abs(var_w - inv_info) <= 0.35 * inv_info,
        "plain_near_inverse_information": abs(var_p - inv_info) <= 0.35 * inv_info,
    }
    return MCReport(
        kind="estimator_compare",
        n=n,
        reps=reps,
        seed=int(seed),
        moments={"variance_weighted": var_w, "variance_plain": var_p, "ratio": ratio},
        targets={"ratio": 1.0, "inverse_information": inv_info},
        checks=checks,
        values=tuple(scaled_w.tolist()),
        details={
            "law": law.token,
            "conditional_center": float(pilot),
            "failures_weighted": fail_w,
            "failures_plain": fail_p,
            "plain_values": tuple(scaled_p.tolist()),
        },
    )

"""Deterministic scalar and simplex search routines used by the labs.

All searches are derivative-free at the top level: a coarse deterministic
scan locates the best bracket, golden-section contracts it, and a Newton
step on finite differences polishes the result.  Objectives may return
``-inf`` for rejected points; comparisons handle that naturally.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: values within this of the best one count as ties
_TIE_TOL = 1e-9

#: large but finite so the simplex spread stays arithmetically valid
PENALTY = 1e300


def golden_max(f, lo: float, hi: float, xtol: float):
    """Golden-section maximization on ``[lo, hi]``; returns ``(x, f(x))``.

    Stops when the bracket is below ``xtol`` relative, or after 200 steps.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= xtol * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def stencil(x: float, lo: float, hi: float) -> tuple[float, float]:
    """Centre ``c`` and step ``h`` of a central difference taken near ``x``.

    The step is ``1e-6 * max(1, |x|)``.  The centre is ``x`` itself unless
    ``x - h`` or ``x + h`` would leave ``[lo, hi]``; then it moves inward
    just far enough, so the objective is never probed outside its box.
    """
    h = 1e-6 * max(1.0, abs(x))
    return min(max(x, lo + h), hi - h), h


def _newton_polish_max(f, x0, fx0, lo, hi):
    """Up to four safeguarded Newton steps on central differences."""
    x, fx = x0, fx0
    for _ in range(4):
        c, h = stencil(x, lo, hi)
        fc = fx if c == x else f(c)
        f_up, f_dn = f(c + h), f(c - h)
        if not (math.isfinite(f_up) and math.isfinite(f_dn) and math.isfinite(fc)):
            break
        g = (f_up - f_dn) / (2.0 * h)
        curv = (f_up - 2.0 * fc + f_dn) / (h * h)
        if curv >= 0.0:
            break
        x_new = min(max(c - g / curv, lo), hi)
        f_new = f(x_new)
        if f_new <= fx:
            break
        x, fx = x_new, f_new
    return x, fx


def maximize_scalar(
    f,
    lo: float,
    hi: float,
    n_scan: int = 9,
    xtol: float = 1e-10,
):
    """Scan, contract, polish.  Returns ``(x, f(x))``.

    Ties within ``_TIE_TOL`` of the best value resolve to the smallest
    argument, which keeps reported optima deterministic in symmetric
    problems.
    """
    if not lo < hi:
        return lo, f(lo)
    xs = np.linspace(lo, hi, max(n_scan, 3))
    vals = [f(float(x)) for x in xs]
    best = int(np.argmax(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, len(xs) - 1)]
    x, fx = golden_max(f, float(a), float(b), xtol)
    x, fx = _newton_polish_max(f, x, fx, lo, hi)
    candidates = [(x, fx)] + [(float(xi), vi) for xi, vi in zip(xs, vals)]
    top = max(v for _, v in candidates)
    winners = [xi for xi, vi in candidates if vi >= top - _TIE_TOL]
    x_win = min(winners)
    return (x, fx) if x_win == x else (x_win, f(x_win))


def lattice_starts(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Five deterministic interior start points for multi-start descent."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    even = np.arange(lo.shape[0]) % 2 == 0
    fracs = [0.5, 0.25, 0.75, np.where(even, 0.25, 0.75), np.where(even, 0.75, 0.25)]
    return np.array([lo + fr * (hi - lo) for fr in fracs])


def nelder_mead(
    f_min,
    start,
    lo: np.ndarray,
    hi: np.ndarray,
    xatol: float = 1e-8,
    fatol: float = 1e-10,
    max_iter: int = 500,
):
    """Nelder-Mead from one start on ``f_min`` penalized outside ``[lo, hi]``.

    Points outside the box, and points where ``f_min`` is NaN, score a
    large finite penalty; infinite values are clamped to it.  Returns the
    final point and its penalized value, ``PENALTY`` when the search found
    no admissible point.
    """
    from scipy import optimize

    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def penalized(x):
        if np.any(x < lo) or np.any(x > hi):
            return PENALTY
        v = f_min(x)
        if math.isnan(v):
            return PENALTY
        return min(max(v, -PENALTY), PENALTY)

    res = optimize.minimize(
        penalized,
        np.asarray(start, dtype=float),
        method="Nelder-Mead",
        options={"xatol": xatol, "fatol": fatol, "maxiter": max_iter},
    )
    return np.asarray(res.x, dtype=float), float(res.fun)


def nelder_mead_multistart(
    f_min,
    lo: np.ndarray,
    hi: np.ndarray,
    xatol: float = 1e-8,
):
    """Bounded Nelder-Mead from a deterministic lattice of starts.

    Near-ties resolve to the lexicographically smallest point.
    """
    best = [nelder_mead(f_min, start, lo, hi, xatol) for start in lattice_starts(lo, hi)]
    top = min(v for _, v in best)
    winners = sorted((tuple(x), v) for x, v in best if v <= top + _TIE_TOL)
    x_win, v_win = winners[0]
    return np.array(x_win), v_win


def batch_golden_max(f_batch, lo, hi, n_scan: int = 7, iters: int = 50):
    """Vectorized golden-section maximization with per-row brackets.

    ``f_batch`` maps an argument vector (one entry per row) to a value
    vector.  Every row runs the same fixed iteration schedule, so the
    result is independent of how rows are grouped or threaded.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    grid = np.linspace(0.0, 1.0, n_scan)
    vals = np.stack([f_batch(lo + g * (hi - lo)) for g in grid])
    best = np.argmax(vals, axis=0)
    width = (hi - lo) / (n_scan - 1)
    a = lo + np.maximum(best - 1, 0) * width
    b = lo + np.minimum(best + 1, n_scan - 1) * width
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f_batch(c)
    fd = f_batch(d)
    for _ in range(iters):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_new = b - _INVPHI * (b - a)
        d_new = a + _INVPHI * (b - a)
        # only one interior point is fresh per row; evaluate both slots and
        # reuse is not worth the bookkeeping at these sizes
        fc = f_batch(c_new)
        fd = f_batch(d_new)
        c, d = c_new, d_new
    x = np.where(fc >= fd, c, d)
    fx = np.maximum(fc, fd)
    return x, fx

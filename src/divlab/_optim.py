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


def stencil(x, lo, hi):
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


#: the simplex moves of Nelder & Mead (Comput. J. 7, 1965): reflection,
#: expansion, contraction and shrink
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
#: the default initial simplex steps each coordinate by this fraction of
#: itself, or to ``_ZERO_STEP`` when it is zero
_STEP, _ZERO_STEP = 0.05, 0.00025


def _penalized(f_min, lo: np.ndarray, hi: np.ndarray):
    """``f_min`` scoring ``PENALTY`` outside ``[lo, hi]`` and at NaN, with
    infinite values clamped to it."""

    def penalized(x):
        if np.any(x < lo) or np.any(x > hi):
            return PENALTY
        v = f_min(x)
        if math.isnan(v):
            return PENALTY
        return min(max(v, -PENALTY), PENALTY)

    return penalized


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

    The steps are those of scipy 1.17's ``minimize(method="Nelder-Mead")``
    with ``xatol``, ``fatol`` and ``maxiter=max_iter``: the same initial
    simplex, moves, vertex order and stopping rule, so the iterates, the
    result and the number of evaluations agree bit for bit.
    """
    f = _penalized(f_min, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    x0 = np.asarray(start, dtype=float).ravel()
    n = x0.shape[0]
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + _STEP) * x0[k] if x0[k] != 0 else _ZERO_STEP
    fsim = np.array([f(row.copy()) for row in sim], dtype=float)
    # sorted twice, as the reference does: argsort is not stable, so the
    # second pass may reorder tied vertices
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < max_iter:
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction, kept unless worse than the reflection
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = f(xc)
                keep = fxc <= fxr
            else:
                # inside contraction, kept if better than the worst vertex
                xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    fsim[j] = f(sim[j].copy())
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim))


#: fixed schedule of ``batch_golden_max``: scan points, then golden
#: contractions; each call makes 5 + 2 + 2 * 32 = 71 calls of ``f_batch``
_BATCH_SCAN = 5
_BATCH_ITERS = 32
_BATCH_GRID = np.linspace(0.0, 1.0, _BATCH_SCAN)


def batch_golden_max(f_batch, lo, hi):
    """Vectorized golden-section maximization with per-row brackets.

    ``f_batch(x, rows)`` maps arguments ``x`` of the rows ``rows`` (an index
    array, ``x[j]`` belonging to row ``rows[j]``) to a fresh array of their
    values, which the search keeps and updates in place.  The scan
    and the first interior pair are evaluated on every row.  After that each
    contraction keeps one interior point and its value, moved bit for bit
    into the other slot (Kiefer 1953), and evaluates only the new one: the
    first call of an iteration gets the rows whose left point is new, the
    second those whose right point is new, either possibly none.  Every row
    runs the same fixed schedule of 71 calls and ``f_batch`` must not let a
    row's value depend on the rows that share its call, so a row's result
    does not depend on how rows are grouped.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    every = np.arange(lo.shape[0])
    scan = lo + _BATCH_GRID[:, None] * (hi - lo)
    best = np.argmax([f_batch(x, every) for x in scan], axis=0)
    width = (hi - lo) / (_BATCH_SCAN - 1)
    a = lo + np.maximum(best - 1, 0) * width
    b = lo + np.minimum(best + 1, _BATCH_SCAN - 1) * width
    step = _INVPHI * (b - a)
    c, d = b - step, a + step
    fc, fd = f_batch(c, every), f_batch(d, every)
    for _ in range(_BATCH_ITERS):
        left = fc >= fd
        new_c, new_d = left.nonzero()[0], (~left).nonzero()[0]
        # moving left, [a, d] keeps c as its d; moving right, [c, b] keeps d
        # as its c; the fresh point lies INVPHI times the old gap beyond it
        gap = _INVPHI * (d - c)
        kept_c, kept_d = c[new_c], d[new_d]
        d[new_c], fd[new_c] = kept_c, fc[new_c]
        c[new_d], fc[new_d] = kept_d, fd[new_d]
        c[new_c] = x_c = kept_c - gap[new_c]
        d[new_d] = x_d = kept_d + gap[new_d]
        fc[new_c] = f_batch(x_c, new_c)
        fd[new_d] = f_batch(x_d, new_d)
    x = np.where(fc >= fd, c, d)
    fx = np.maximum(fc, fd)
    return x, fx

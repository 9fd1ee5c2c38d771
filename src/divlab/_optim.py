"""Deterministic search routines used by the labs: the one golden-section
search over a scalar, :func:`batch_golden_max`, row by row (one row in
:func:`maximize_scalar`, which also serves the three-cell slope refine),
and the central-difference :func:`stencil`.  Objectives may return
``-inf`` for rejected points and ``+inf`` where they are unbounded;
comparisons handle both.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def stencil(x, lo, hi):
    """Centre ``c`` and step ``h`` of a central difference taken near ``x``.

    The step is ``1e-6 * max(1, |x|)``.  The centre is ``x`` itself unless
    ``x - h`` or ``x + h`` would leave ``[lo, hi]``; then it moves inward
    just far enough, so the objective is never probed outside its box.
    """
    h = 1e-6 * max(1.0, abs(x))
    return min(max(x, lo + h), hi - h), h


def maximize_scalar(f, lo: float, hi: float):
    """:func:`batch_golden_max` on the one row ``[lo, hi]``: ``(x, f(x))``."""
    x, fx = batch_golden_max(lambda x, rows: np.array([f(float(a)) for a in x]), np.array([lo]), np.array([hi]))
    return float(x[0]), float(fx[0])


#: fixed schedule of ``batch_golden_max``: scan points, then golden
#: contractions; each call makes 5 + 2 + 2 * 32 = 71 calls of ``f_batch``
_BATCH_SCAN = 5
_BATCH_ITERS = 32
_BATCH_GRID = np.linspace(0.0, 1.0, _BATCH_SCAN)

#: a row's final bracket spans at most this fraction of its ``hi - lo``
BRACKET = 2.0 / (_BATCH_SCAN - 1) * _INVPHI**_BATCH_ITERS


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
    does not depend on how rows are grouped.  It returns each row's largest
    value evaluated and its argument: the final pair holds the best
    contraction value (the kept point is the better of a pair), and a scan
    point replaces it only when strictly better.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    every = np.arange(lo.shape[0])
    scan = lo + _BATCH_GRID[:, None] * (hi - lo)
    scan[-1] = hi  # lo + (hi - lo) can round past hi
    scanned = np.array([f_batch(x, every) for x in scan])
    best = np.argmax(scanned, axis=0)
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
    top = scanned[best, every]
    scan_wins = top > fx
    return np.where(scan_wins, scan[best, every], x), np.where(scan_wins, top, fx)

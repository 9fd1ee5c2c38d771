"""Unit tests for the shared search routines."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlab._optim import PENALTY, maximize_rows, maximize_scalar, nelder_mead, stencil


class TestStencil:
    """Central-difference stencils stay inside the search box."""

    def test_interior_point_is_its_own_centre(self):
        """Away from the edges the stencil is centred on the point."""
        assert stencil(0.37, 0.0, 1.0) == (0.37, 1e-6)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_points_stay_in_box(self, x):
        """Both stencil points lie in the box, within rounding of its edges."""
        lo, hi = 1e-6, 1.0 - 1e-6
        c, h = stencil(x, lo, hi)
        assert c - h >= lo - 1e-15 and c + h <= hi + 1e-15

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=1e-3, max_value=5.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_maximize_scalar_never_probes_outside(self, lo, width, peak):
        """The scan, golden section and Newton polish only evaluate inside [lo, hi]."""
        hi = lo + width
        probes = []

        def f(x):
            probes.append(x)
            return -((x - peak) ** 2)

        x, fx = maximize_scalar(f, lo, hi)
        assert lo <= x <= hi and math.isfinite(fx)
        span = 1e-15 * max(1.0, abs(lo), abs(hi))
        assert all(lo - span <= p <= hi + span for p in probes)


def _row_objectives(kind, peak, scale, level):
    """Objective ``r`` of many, picked by ``kind[r]``, as ``f(rows, x)``.

    0: a smooth peak; 1: a ramp down from a cut, ``-inf`` left of it;
    2: a flat top (every scan point ties); 3: steps of ``1 / scale``, so scan
    points tie on a plateau; 4: a kink, where the Newton polish stops at once;
    5: a slope below the tie tolerance (every scan point ties within it);
    6: ``-inf`` everywhere.  Only exactly rounded arithmetic, so one entry
    evaluates alike alone and among many.
    """
    kind, peak, scale, level = map(np.asarray, (kind, peak, scale, level))

    def f(rows, x):
        k, d, c, v = kind[rows], x - peak[rows], scale[rows], level[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            return np.select(
                [k == 0, k == 1, k == 2, k == 3, k == 4, k == 5],
                [
                    v - c * d * d,
                    np.where(d < 0.0, -np.inf, v - c * d),
                    v + 0.0 * d,
                    v - np.floor(c * np.abs(d)),
                    v - c * np.abs(d),
                    v - 1e-11 * np.abs(d),
                ],
                -np.inf,
            )

    return f


#: one row: its objective's kind, peak, scale and level, and its box
ROW = st.tuples(
    st.integers(0, 6),
    st.floats(-3.0, 3.0),
    st.floats(0.01, 50.0),
    st.floats(-2.0, 2.0),
    st.sampled_from([-1e6, -2.0, -0.5, 0.0, 1e-3, 1e4]),
    st.sampled_from([0.0, 1e-12, 1e-3, 0.5, 2.0, 7.0]),
)


class TestMaximizeRows:
    """Each row of the row search is the scalar search on that row's objective."""

    @given(st.lists(ROW, min_size=1, max_size=10), st.integers(3, 12), st.sampled_from([1e-10, 1e-9, 1e-6]))
    # smooth peaks in boxes of widths 1e-3 and 7 stop at different golden steps
    @example([(0, 0.3, 1.0, 0.0, 0.0, 1e-3), (0, 0.3, 1.0, 0.0, -2.0, 7.0)], 11, 1e-9)
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_the_scalar_search(self, rows, n_scan, xtol):
        """Same argument and value with ``==``, and the same evaluations per row."""
        kind, peak, scale, level, lo, width = map(np.array, zip(*rows))
        hi = lo + width
        f = _row_objectives(kind, peak, scale, level)
        seen = []

        def counted(rows, x):
            seen.extend(rows.tolist())
            return f(rows, x)

        x, fx = maximize_rows(counted, lo, hi, n_scan=n_scan, xtol=xtol)
        assert x.shape == fx.shape == lo.shape
        for r in range(len(rows)):
            calls = []

            def one(a, r=r):
                calls.append(a)
                return float(f(np.array([r]), np.array([a]))[0])

            xs, fs = maximize_scalar(one, float(lo[r]), float(hi[r]), n_scan=n_scan, xtol=xtol)
            assert (x[r], fx[r]) == (xs, fs)
            assert seen.count(r) == len(calls)


class TestNelderMead:
    """The penalized single-start Nelder-Mead wrapper."""

    def test_finds_interior_minimum(self):
        """A quadratic bowl inside the box is located."""
        x, v = nelder_mead(lambda z: float(np.sum((z - 0.3) ** 2)), [0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
        assert x == pytest.approx([0.3, 0.3], abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_nothing_admissible_scores_the_penalty(self):
        """An objective that is infinite everywhere reports the penalty value."""
        _, v = nelder_mead(lambda z: math.inf, [0.5], [0.0], [1.0])
        assert v == PENALTY

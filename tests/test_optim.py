"""Unit tests for the shared search routines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from divlab import _optim
from divlab._optim import PENALTY, maximize_scalar, nelder_mead, stencil


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_steps_as_scipy(self, data):
        """Against scipy's Nelder-Mead under the same penalty: the same points
        evaluated in the same order, and the same ``x`` and ``fun``.  Starts
        with zero coordinates, objectives that are inf, NaN or flat, and runs
        cut at ``max_iter``."""
        d = data.draw(st.integers(1, 3), label="dim")
        coord = st.floats(-2.0, 2.0)
        start = np.array(data.draw(st.lists(st.one_of(st.just(0.0), coord), min_size=d, max_size=d)))
        centre = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
        lo = start - np.array(data.draw(st.lists(st.floats(1e-4, 3.0), min_size=d, max_size=d)))
        hi = start + np.array(data.draw(st.lists(st.floats(1e-4, 3.0), min_size=d, max_size=d)))
        cut = data.draw(coord, label="cut")
        kind = data.draw(st.sampled_from(["bowl", "inf", "nan", "kinked", "flat"]))
        max_iter = data.draw(st.sampled_from([1, 2, 7, 40, 500]))
        xatol, fatol = data.draw(st.sampled_from([(1e-8, 1e-10), (1e-4, 1e-4), (1e-9, 1e-12)]))

        def objective(x):
            if kind == "inf" and x[0] > cut:
                return math.inf
            if kind == "nan" and x[-1] < cut:
                return math.nan
            if kind == "kinked":
                return float(np.sum(np.abs(x - centre)))
            if kind == "flat":
                return 1.0
            return float(np.sum((x - centre) ** 2))

        def logged(f, log):
            def g(x):
                log.append(np.copy(x))
                return f(x)

            return g

        penalized = _optim._penalized
        ours, ref = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_optim, "_penalized", lambda f_min, a, b: logged(penalized(f_min, a, b), ours))
            x, v = nelder_mead(objective, start, lo, hi, xatol=xatol, fatol=fatol, max_iter=max_iter)
        res = optimize.minimize(
            logged(penalized(objective, lo, hi), ref), start, method="Nelder-Mead",
            options={"xatol": xatol, "fatol": fatol, "maxiter": max_iter},
        )
        assert np.array_equal(x, res.x) and v == res.fun
        assert len(ours) == len(ref) == res.nfev
        assert all(np.array_equal(a, b) for a, b in zip(ours, ref))

"""Unit tests for the shared search routines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from divlab import _optim
from divlab._optim import PENALTY, batch_golden_max, maximize_scalar, nelder_mead, stencil


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


def _recorded(f):
    """``f(x, rows)`` as a batched objective that logs each call's points and rows."""
    calls = []

    def f_batch(x, rows):
        calls.append((np.array(x), np.array(rows)))
        return f(x, rows)

    return f_batch, calls


class TestBatchGoldenMax:
    """The batched golden-section search: its fixed call schedule, the rows of
    each call, the values it carries and the bracket it ends in."""

    #: scan, first interior pair, two calls per contraction
    CALLS = 5 + 2 + 2 * 32

    @staticmethod
    def _bowls(peaks):
        return lambda x, rows: -((x - peaks[rows]) ** 2)

    @pytest.mark.parametrize("rows", [1, 64])
    def test_71_calls_for_any_row_count(self, rows):
        """One row or 64, the search makes 71 calls."""
        peaks = np.random.default_rng(rows).uniform(-1.0, 1.0, rows)
        f_batch, calls = _recorded(self._bowls(peaks))
        batch_golden_max(f_batch, np.full(rows, -2.0), np.full(rows, 2.0))
        assert len(calls) == self.CALLS

    def test_71_calls_when_every_row_moves_right(self):
        """An increasing objective moves every bracket right each time, so the
        first call of every contraction gets no rows, and is still made."""
        rows = 6
        f_batch, calls = _recorded(lambda x, rows: x.copy())
        x, _ = batch_golden_max(f_batch, np.zeros(rows), np.ones(rows))
        assert len(calls) == self.CALLS
        firsts = calls[7::2]
        assert len(firsts) == 32
        assert all(pts.shape == (0,) and ids.shape == (0,) for pts, ids in firsts)
        assert np.all(x > 1.0 - 1e-6)

    def test_each_contraction_splits_the_rows(self):
        """The scan and the first pair see every row; after that the two
        calls of a contraction split the rows between them."""
        rows = 40
        peaks = np.random.default_rng(3).uniform(-2.0, 2.0, rows)
        f_batch, calls = _recorded(self._bowls(peaks))
        batch_golden_max(f_batch, np.full(rows, -3.0), np.full(rows, 3.0))
        every = np.arange(rows)
        assert all(np.array_equal(ids, every) for _, ids in calls[:7])
        for (_, left), (_, right) in zip(calls[7::2], calls[8::2]):
            assert np.array_equal(np.sort(np.concatenate([left, right])), every)
        assert sum(0 < len(ids) < rows for _, ids in calls[7:]) > 0

    def test_kept_value_is_carried(self):
        """Each row is evaluated once per new point, 5 + 2 + 32 = 39 times,
        never twice at one point, and the value returned is that of the point
        returned, bit for bit."""
        rows = 24
        rng = np.random.default_rng(11)
        peaks = rng.uniform(-1.0, 1.0, rows)
        scale = rng.uniform(0.5, 2.0, rows)

        def bowls(x, ids):
            return -scale[ids] * np.expm1(np.abs(x - peaks[ids]))

        f_batch, calls = _recorded(bowls)
        x, fx = batch_golden_max(f_batch, np.full(rows, -1.5), np.full(rows, 1.5))
        seen = {r: [] for r in range(rows)}
        for pts, ids in calls:
            for p, r in zip(pts.tolist(), ids.tolist()):
                seen[r].append(p)
        for r, pts in seen.items():
            assert len(pts) == 39 and len(set(pts)) == 39
        assert fx.tobytes() == bowls(x, np.arange(rows)).tobytes()

    @given(
        rows=st.integers(1, 12),
        lo=st.floats(-50.0, 50.0),
        width=st.floats(1e-3, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_result_lies_in_the_final_bracket(self, rows, lo, width, seed):
        """On concave rows the result lies within the final bracket width,
        (hi - lo) / 2 * INVPHI**32, of each row's maximiser."""
        hi = lo + width
        peaks = lo + width * np.random.default_rng(seed).uniform(0.0, 1.0, rows)
        x, fx = batch_golden_max(self._bowls(peaks), np.full(rows, lo), np.full(rows, hi))
        bracket = width / 2.0 * ((math.sqrt(5.0) - 1.0) / 2.0) ** 32
        slack = 64 * np.finfo(float).eps * max(abs(lo), abs(hi))
        assert np.all(np.abs(x - peaks) <= bracket + slack)
        assert np.all((lo <= x) & (x <= hi))
        assert np.array_equal(fx, -((x - peaks) ** 2))

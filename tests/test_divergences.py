"""Unit tests for the power-family generators and cell-mass divergences."""

import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from divlab.divergences import (
    GAMMA_LIMIT_TOL,
    INF,
    ConjugateSpec,
    CressieRead,
    cell_divergence,
)
from divlab.errors import ValidationError
from divlab.weights import TwoPointTransform

GAMMAS = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]

#: arguments where float arithmetic overflows, underflows or meets inf - inf,
#: the domain ends 0 and 2 (the two-point transform's), 1 +- one ulp, and NaN
EXTREMES = [
    -INF, -1e300, -1.0, 0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-160, 1e-100, 1e-10,
    0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0,
    1e10, 1e100, 1e160, 1e200, 1e300, sys.float_info.max, INF, math.nan,
]

#: every table of forms the package evaluates, and both conjugate paths
GENERATORS = [CressieRead(g) for g in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)] + [
    TwoPointTransform(), TwoPointTransform().conjugate(), ConjugateSpec(CressieRead(0.0)),
]
GENERATOR_IDS = [str(spec.gamma) for spec in GENERATORS[:-3]] + ["twopoint", "twopoint_conjugate", "kl_as_conjugate"]

#: values a generator reads in both paths, as (x, order) -> value with order 3
#: for phi#: the two-point conjugate at its domain's end, and the
#: Kullback-Leibler generator as a conjugate far below 1, where 1/x nears the
#: largest float or overflows
KNOWN = {
    "twopoint_conjugate": {(0.5, 0): 0.5 * math.log(2.0)},
    "kl_as_conjugate": {(1e-300, 1): math.log(1e-300), (1e-310, 1): -INF, (1e-150, 2): 1e150},
}

#: points outside a generator's domain besides NaN: the two-point conjugate
#: is finite only on [1/2, inf]
OUTSIDE = {"twopoint_conjugate": [0.3]}


def _forms(spec, x):
    """phi, phi', phi'' and phi# at ``x``, in the float and in the array path."""
    xs = np.array([x])
    floats = [spec.value(x, order) for order in (0, 1, 2)] + [spec.sharp(x)]
    arrays = [spec.value_array(xs, order) for order in (0, 1, 2)] + [spec.sharp_array(xs)]
    return floats, [float(a[0]) for a in arrays]


@pytest.fixture
def grid():
    """Strictly positive evaluation points."""
    return np.array([0.05, 0.3, 0.7, 1.0, 1.4, 2.5, 6.0])


# =============================================================================
# Tests: generator values and derivatives
# =============================================================================


class TestPowerGenerator:
    """Pointwise values of the power-family generator."""

    def test_normalization_at_one(self):
        """Every index gives phi(1) = 0 and phi'(1) = 0."""
        for g in GAMMAS:
            spec = CressieRead(g)
            assert spec.value(1.0) == 0.0
            assert abs(spec.value(1.0, order=1)) == 0.0

    def test_likelihood_branch(self, grid):
        """Index 0 matches -log x + x - 1."""
        spec = CressieRead(0.0)
        for x in grid:
            assert spec.value(float(x)) == pytest.approx(-math.log(x) + x - 1.0, abs=1e-14)

    def test_kullback_branch(self, grid):
        """Index 1 matches x log x - x + 1."""
        spec = CressieRead(1.0)
        for x in grid:
            assert spec.value(float(x)) == pytest.approx(x * math.log(x) - x + 1.0, abs=1e-14)

    def test_half_chi_square_branch(self):
        """Index 2 matches (x-1)^2/2 on the whole real line."""
        spec = CressieRead(2.0)
        for x in [-3.0, -0.2, 0.0, 0.5, 1.0, 4.0]:
            assert spec.value(x) == pytest.approx(0.5 * (x - 1.0) ** 2, abs=1e-14)

    def test_general_power_value(self):
        """The generic branch reproduces its defining rational expression."""
        # Frozen: (2^0.5 - 0.5*2 + 0.5 - 1)/(0.5*(0.5 - 1)).
        assert CressieRead(0.5).value(2.0) == pytest.approx(0.34314575050761970, abs=1e-15)
        assert CressieRead(-1.0).value(2.0) == pytest.approx((0.5 + 2.0 - 2.0) / 2.0, abs=1e-15)

    def test_branch_fixed_at_construction(self):
        """The branch is an attribute; equality, hashing and repr see only the index."""
        assert [CressieRead(g).branch for g in (0.0, 1.0, 2.0, 0.5)] == ["log", "xlogx", "chi2", "power"]
        assert CressieRead(0.5) == CressieRead(0.5) and CressieRead(0.5) != CressieRead(0.25)
        assert hash(CressieRead(0.5)) == hash(CressieRead(0.5))
        assert repr(CressieRead(0.5)) == "CressieRead(gamma=0.5)"
        assert [f.name for f in dataclasses.fields(CressieRead)] == ["gamma"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            CressieRead(0.5).branch = "log"
        assert pickle.loads(pickle.dumps(CressieRead(0.0))).branch == "log"

    def test_limit_switch_near_special_indices(self, grid):
        """Indices within the switch tolerance use the limiting branch."""
        near_zero = CressieRead(GAMMA_LIMIT_TOL / 3.0)
        near_one = CressieRead(1.0 + GAMMA_LIMIT_TOL / 3.0)
        for x in grid:
            assert near_zero.value(float(x)) == CressieRead(0.0).value(float(x))
            assert near_one.value(float(x)) == CressieRead(1.0).value(float(x))

    def test_boundary_at_zero(self):
        """phi(0) is 1/gamma for positive indices and +inf otherwise."""
        assert CressieRead(0.5).value(0.0) == pytest.approx(2.0)
        assert CressieRead(1.0).value(0.0) == pytest.approx(1.0)
        assert CressieRead(0.0).value(0.0) == INF
        assert CressieRead(-1.0).value(0.0) == INF

    def test_negative_argument_outside_domain(self):
        """Negative arguments give +inf except for the half chi-square index."""
        for g in [-1.0, 0.0, 0.5, 1.0, 3.0]:
            assert CressieRead(g).value(-0.3) == INF
        assert CressieRead(2.0).value(-0.3) < INF

    def test_derivatives_match_finite_differences(self, grid):
        """Analytic first and second derivatives agree with central differences."""
        # Step sizes near the rounding-optimal eps^(1/3) and eps^(1/4).
        h1, h2 = 1e-6, 1e-4
        for g in GAMMAS:
            spec = CressieRead(g)
            for x in grid:
                x = float(x)
                fd1 = (spec.value(x + h1) - spec.value(x - h1)) / (2.0 * h1)
                fd2 = (spec.value(x + h2) - 2.0 * spec.value(x) + spec.value(x - h2)) / h2**2
                assert spec.value(x, order=1) == pytest.approx(fd1, rel=1e-6, abs=1e-6)
                assert spec.value(x, order=2) == pytest.approx(fd2, rel=1e-5, abs=1e-5)

    def test_invalid_order_rejected(self):
        """Derivative orders beyond the second are validation errors."""
        with pytest.raises(ValidationError):
            CressieRead(1.0).value(2.0, order=3)

    @given(st.floats(min_value=0.01, max_value=50.0), st.sampled_from(GAMMAS))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_everywhere(self, x, g):
        """The generator is nonnegative on its domain."""
        assert CressieRead(g).value(x) >= 0.0

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(GAMMAS),
    )
    @settings(max_examples=200, deadline=None)
    def test_midpoint_convexity(self, a, b, lam, g):
        """Convexity of the generator on random chords."""
        spec = CressieRead(g)
        left = spec.value(lam * a + (1.0 - lam) * b)
        right = lam * spec.value(a) + (1.0 - lam) * spec.value(b)
        assert left <= right + 1e-9 * (1.0 + abs(right))


class TestArrayPaths:
    """Vectorized evaluation agrees with the scalar loop."""

    def test_value_array_matches_scalar(self, grid):
        """value_array equals elementwise scalar evaluation for all orders."""
        for g in GAMMAS:
            spec = CressieRead(g)
            for order in (0, 1, 2):
                vec = spec.value_array(grid, order)
                ref = [spec.value(float(x), order) for x in grid]
                np.testing.assert_allclose(vec, ref, rtol=1e-13, atol=0.0)

    def test_value_array_keeps_its_bits(self):
        """Every order of the log, xlogx and power branches equals its numpy
        expression bit for bit on positive points, and the scalar ``value``
        at zero and below.  (Against the scalar on positive points only
        ``allclose`` holds: numpy's log and power round differently from
        the C library's on some inputs.)"""
        rng = np.random.default_rng(4)
        xp = np.concatenate([rng.uniform(0.0, 5.0, 200), rng.lognormal(0.0, 3.0, 200), [1.0]])
        edge = np.array([0.0, -0.5, -3.0])
        for g in (0.0, 1.0, -1.0, 0.5, 1.5, 3.0):
            spec = CressieRead(g)
            expect = {
                "log": (-np.log(xp) + xp - 1.0, 1.0 - 1.0 / xp, 1.0 / xp ** 2),
                "xlogx": (xp * np.log(xp) - xp + 1.0, np.log(xp), 1.0 / xp),
            }.get(spec.branch) or (
                (xp ** g - g * xp + g - 1.0) / (g * (g - 1.0)),
                (xp ** (g - 1.0) - 1.0) / (g - 1.0),
                xp ** (g - 2.0),
            )
            for order in (0, 1, 2):
                out = spec.value_array(np.concatenate([xp, edge]), order)
                assert np.array_equal(out[: xp.shape[0]], expect[order])
                assert out[xp.shape[0]:].tolist() == [spec.value(float(x), order) for x in edge]

    @pytest.mark.parametrize("spec, known", [(s, KNOWN.get(i, {})) for s, i in zip(GENERATORS, GENERATOR_IDS)], ids=GENERATOR_IDS)
    def test_scalar_and_array_agree_at_the_float_extremes(self, spec, known):
        """No form raises or is NaN at the float extremes, and each scalar value
        equals its array entry: the same infinity, or within 1e-13 relative.
        The ``KNOWN`` values hold in both paths within 1e-15 relative.

        Known defect (ROADMAP item 6): at 1 +- one ulp the power branch's forms
        cancel to their last bits, and where numpy's power rounds differently
        from the C library's (it does on AVX-512 hosts) the two paths differ
        there.  Such a difference is reported as an expected failure once
        every other point has passed."""
        xs = np.array(EXTREMES)
        forms = [(lambda x, o=o: spec.value(x, o), spec.value_array(xs, o)) for o in (0, 1, 2)]
        forms.append((spec.sharp, spec.sharp_array(xs)))
        next_to_one = []
        for scalar, array in forms:
            for x, a in zip(EXTREMES, array.tolist()):
                v = scalar(x)
                assert not (math.isnan(v) or math.isnan(a)), x
                if math.isinf(v) or math.isinf(a):
                    assert v == a, x
                elif v != pytest.approx(a, rel=1e-13, abs=0.0):
                    assert getattr(spec, "branch", None) == "power" and 0.0 < abs(x - 1.0) < 1e-15, (x, v, a)
                    next_to_one.append((x, v, a))
        for (x, order), expect in known.items():
            for path in _forms(spec, x):
                assert path[order] == pytest.approx(expect, rel=1e-15, abs=0.0), (x, order)
        if next_to_one:
            pytest.xfail(f"power forms cancel next to 1 (ROADMAP item 6): {next_to_one}")

    @pytest.mark.parametrize("spec, outside", [(s, OUTSIDE.get(i, [])) for s, i in zip(GENERATORS, GENERATOR_IDS)], ids=GENERATOR_IDS)
    def test_nan_lies_outside_every_domain(self, spec, outside):
        """Every form is +inf at NaN and at the ``OUTSIDE`` points, in the
        float and the array path (the two-point conjugate's phi# included)."""
        for x in [math.nan] + outside:
            floats, arrays = _forms(spec, x)
            assert floats + arrays == [INF] * 8, x

    def test_sharp_array_matches_scalar(self, grid):
        """sharp_array equals elementwise sharp evaluation."""
        for g in GAMMAS:
            spec = CressieRead(g)
            np.testing.assert_allclose(
                spec.sharp_array(grid), [spec.sharp(float(x)) for x in grid], rtol=1e-13
            )

    def test_array_domain_masks(self):
        """Out-of-domain entries map to +inf without warnings."""
        xs = np.array([-1.0, 0.0, 2.0])
        out = CressieRead(0.0).value_array(xs)
        assert out[0] == INF and out[1] == INF and np.isfinite(out[2])


# =============================================================================
# Tests: conjugation and the sharp transform
# =============================================================================


class TestConjugation:
    """Argument-swapping conjugation of generators."""

    def test_power_conjugate_is_index_reflection(self, grid):
        """The conjugate of index gamma is the index 1 - gamma generator."""
        for g in GAMMAS:
            left = CressieRead(g).conjugate()
            right = CressieRead(1.0 - g)
            for x in grid:
                assert left.value(float(x)) == pytest.approx(right.value(float(x)), abs=1e-13)

    def test_conjugate_defining_identity(self, grid):
        """conjugate(phi)(x) = x phi(1/x) pointwise."""
        for g in GAMMAS:
            spec = CressieRead(g)
            conj = spec.conjugate()
            for x in grid:
                x = float(x)
                assert conj.value(x) == pytest.approx(x * spec.value(1.0 / x), rel=1e-12, abs=1e-12)

    def test_double_conjugation_round_trip(self, grid):
        """Conjugating twice restores the original values."""
        spec = CressieRead(0.5)
        twice = spec.conjugate().conjugate()
        for x in grid:
            assert twice.value(float(x)) == pytest.approx(spec.value(float(x)), abs=1e-12)

    def test_generic_wrapper_matches_closed_form(self, grid):
        """ConjugateSpec on a power generator tracks the reflected index."""
        wrapped = ConjugateSpec(CressieRead(2.0))
        closed = CressieRead(-1.0)
        for x in grid:
            x = float(x)
            assert wrapped.value(x) == pytest.approx(closed.value(x), rel=1e-10, abs=1e-12)
            assert wrapped.value(x, order=1) == pytest.approx(
                closed.value(x, order=1), rel=1e-12, abs=1e-12
            )


class TestSharpTransform:
    """The x phi'(x) - phi(x) transform."""

    def test_defining_identity(self, grid):
        """sharp(x) equals x phi'(x) - phi(x) on the domain interior."""
        for g in GAMMAS:
            spec = CressieRead(g)
            for x in grid:
                x = float(x)
                expect = x * spec.value(x, order=1) - spec.value(x)
                assert spec.sharp(x) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_power_closed_form(self, grid):
        """For index gamma the transform is (x^gamma - 1)/gamma."""
        for g in [-1.0, 0.5, 2.0, 3.0]:
            spec = CressieRead(g)
            for x in grid:
                x = float(x)
                assert spec.sharp(x) == pytest.approx((x**g - 1.0) / g, rel=1e-12)

    def test_vanishes_at_one(self):
        """sharp(1) = 0 for every index."""
        for g in GAMMAS:
            assert CressieRead(g).sharp(1.0) == pytest.approx(0.0, abs=1e-15)


# =============================================================================
# Tests: finite-support divergences
# =============================================================================


class TestFiniteDivergence:
    """Divergence between aligned cell-mass vectors."""

    def test_identical_measures_are_at_zero(self):
        """The divergence of a measure from itself vanishes."""
        p = [0.3, 0.3, 0.4]
        for g in GAMMAS:
            assert cell_divergence(CressieRead(g), p, p) == pytest.approx(0.0, abs=1e-15)

    def test_kullback_value_against_scipy(self):
        """Index 1 reproduces the summed relative entropy."""
        q, p = [0.5, 0.3, 0.2], [0.2, 0.3, 0.5]
        expect = float(np.sum(rel_entr(q, p)))
        assert cell_divergence(CressieRead(1.0), q, p) == pytest.approx(expect, abs=1e-13)

    def test_mass_off_reference_support_is_infinite(self):
        """q-mass on a null reference cell makes the divergence infinite."""
        assert cell_divergence(CressieRead(1.0), [0.5, 0.5], [1.0, 0.0]) == INF

    def test_shared_null_atom_ignored(self):
        """A cell empty under both measures contributes nothing."""
        assert cell_divergence(CressieRead(1.0), [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]) == pytest.approx(0.0, abs=1e-15)

    @given(
        st.lists(st.sampled_from([0.0, 0.4]) | st.floats(min_value=0.05, max_value=3.0), min_size=3, max_size=3),
        st.lists(st.sampled_from([0.0, 0.4]) | st.floats(min_value=0.05, max_value=3.0), min_size=3, max_size=3),
        st.sampled_from(GAMMAS + ["twopoint"]),
    )
    @example([0.5, 0.5, 0.0], [1.0, 0.0, 0.0], 0.5)
    @settings(max_examples=300, deadline=None)
    def test_conjugation_swaps_arguments(self, qm, pm, g):
        """divergence(phi~; p, q) equals divergence(phi; q, p), null cells
        included: ``0 * phi(a / 0) = a phi'(inf)`` on one side is ``a *
        phi~(0)`` on the other."""
        spec = TwoPointTransform() if g == "twopoint" else CressieRead(g)
        direct = cell_divergence(spec, qm, pm)
        swapped = cell_divergence(spec.conjugate(), pm, qm)
        assert direct == pytest.approx(swapped, rel=1e-12, abs=1e-12)


MASSES = st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=4)

#: generators with their recession slopes phi'(inf) in closed form: 1 / (1 - gamma)
#: below index 1, log 2 for the two-point conjugate, +inf otherwise
RECESSION = [(CressieRead(g), 1.0 / (1.0 - g) if g < 1.0 else INF) for g in GAMMAS + [-0.5]] + [
    (TwoPointTransform(), INF), (TwoPointTransform().conjugate(), math.log(2.0)),
]


class TestCellDivergence:
    """Properties of the aligned cell-mass divergence."""

    @given(MASSES, MASSES, st.sampled_from(GAMMAS))
    @settings(max_examples=100, deadline=None)
    def test_shared_null_cell_adds_nothing(self, qm, pm, g):
        """Appending a cell empty under both measures leaves the value unchanged."""
        q, p = qm[: len(pm)], pm[: len(qm)]
        spec = CressieRead(g)
        assert cell_divergence(spec, q + [0.0], p + [0.0]) == cell_divergence(spec, q, p)

    @given(MASSES, MASSES, st.floats(min_value=-3.0, max_value=3.0).filter(bool), st.sampled_from(RECESSION))
    @settings(max_examples=200, deadline=None)
    def test_mass_on_reference_null_cell_takes_the_limit(self, qm, pm, extra, spec_slope):
        """Mass ``a`` of q on a cell where p vanishes adds the limit ``0 *
        phi(a / 0) = a phi'(inf)`` for ``a > 0``, and gives +inf for ``a < 0``."""
        q, p = qm[: len(pm)], pm[: len(qm)]
        spec, slope = spec_slope
        assert spec.value(INF, 1) == slope
        expect = cell_divergence(spec, q, p) + extra * slope if extra > 0.0 else INF
        assert cell_divergence(spec, q + [extra], p + [0.0]) == expect

    @given(MASSES, MASSES, st.floats(min_value=-3.0, max_value=-1e-3), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_out_of_domain_ratio_is_infinite(self, qm, pm, negative, g):
        """A negative ratio lies outside every index's domain but 2 and gives +inf."""
        q, p = qm[: len(pm)], pm[: len(qm)]
        assert cell_divergence(CressieRead(g), [negative] + q, [1.0] + p) == INF

    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=4), MASSES)
    @settings(max_examples=100, deadline=None)
    def test_signed_masses_accepted_by_index_two(self, qm, pm):
        """The half chi-square extends to signed q: sum (q - p)**2 / (2 p)."""
        q, p = qm[: len(pm)], pm[: len(qm)]
        expect = sum((a - b) ** 2 / (2.0 * b) for a, b in zip(q, p))
        assert cell_divergence(CressieRead(2.0), q, p) == pytest.approx(expect, rel=1e-12, abs=1e-12)

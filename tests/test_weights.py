"""Unit tests for weight laws, their transforms, and induced generators."""

import math

import numpy as np
import pytest

from divlab.divergences import INF, CressieRead
from divlab.errors import ValidationError
from divlab.weights import (
    ExponentialOne,
    NormalOneOne,
    PoissonOne,
    ShiftedBernoulli,
    chernoff,
    chernoff_argmax,
    induced_divergence,
    weight_law,
)

ALL_LAWS = [PoissonOne(), ExponentialOne(), NormalOneOne(), ShiftedBernoulli()]

#: each law's cumulant generating function ``M(t) = log E exp(tW)`` and ``M'``
#: on the cgf's domain; the two-point law's is ``log((1 + exp(2t)) / 2)``
CGF = {
    "poisson1": (math.expm1, math.exp),
    "exp1": (lambda t: -math.log1p(-t), lambda t: 1.0 / (1.0 - t)),
    "normal11": (lambda t: t + 0.5 * t * t, lambda t: 1.0 + t),
    "twopoint": (lambda t: t + math.log(math.cosh(t)), lambda t: 1.0 + math.tanh(t)),
}

#: an interval of t holding every maximizing argument the tests ask for
CGF_BRACKET = {"poisson1": (-50.0, 5.0), "exp1": (-1e3, 1.0), "normal11": (-50.0, 50.0), "twopoint": (-20.0, 20.0)}


@pytest.fixture
def rng():
    """Seeded generator for sampling checks."""
    return np.random.default_rng(1234)


# =============================================================================
# Tests: law registry and moments
# =============================================================================


class TestRegistry:
    """Token lookup for shipped laws."""

    def test_known_tokens(self):
        """Each registry token instantiates its law."""
        for token, cls in [
            ("poisson1", PoissonOne),
            ("exp1", ExponentialOne),
            ("normal11", NormalOneOne),
            ("twopoint", ShiftedBernoulli),
        ]:
            assert isinstance(weight_law(token), cls)

    def test_unknown_token_rejected(self):
        """Unregistered tokens are validation errors."""
        with pytest.raises(ValidationError):
            weight_law("cauchy")


class TestSampleSum:
    """Aggregated draws of weight sums."""

    def test_matches_loop_in_distribution(self, rng):
        """Closed-form aggregate draws have the mean and variance of m-fold sums."""
        counts = np.full(20000, 7)
        for law in ALL_LAWS:
            s = law.sample_sum(counts, rng)
            assert np.mean(s) == pytest.approx(7.0, abs=0.1)
            assert np.var(s) == pytest.approx(7.0, rel=0.1)

    def test_zero_count_gives_zero(self, rng):
        """An empty sum is exactly zero."""
        for law in ALL_LAWS:
            out = law.sample_sum(np.array([0, 0, 3]), rng)
            assert out[0] == 0.0 and out[1] == 0.0

    def test_two_point_lattice(self, rng):
        """Two-point sums live on the shifted binomial lattice."""
        law = ShiftedBernoulli()
        w0, w1 = law.support_bounds
        s = law.sample_sum(np.full(500, 4), rng)
        j = (s - 4 * w0) / (w1 - w0)
        np.testing.assert_allclose(j, np.round(j), atol=1e-12)
        assert np.all((0 <= j) & (j <= 4))

    def test_shape_preserved(self, rng):
        """Matrix-shaped count arrays come back with the same shape."""
        counts = np.arange(6).reshape(2, 3)
        assert PoissonOne().sample_sum(counts, rng).shape == (2, 3)


class TestSampleWeights:
    """Seeded weight draws."""

    def test_sample_moments(self, rng):
        """Monte Carlo mean and variance sit near one for every law."""
        for law in ALL_LAWS:
            w = law.sample(40000, rng)
            assert np.mean(w) == pytest.approx(1.0, abs=0.03)
            assert np.var(w) == pytest.approx(1.0, abs=0.05)

    def test_deterministic_given_seed(self):
        """Generators from equal seed sequences reproduce the same draw."""
        a = PoissonOne().sample(50, np.random.default_rng(np.random.SeedSequence(77)))
        b = PoissonOne().sample(50, np.random.default_rng(np.random.SeedSequence(77)))
        np.testing.assert_array_equal(a, b)

    def test_length_and_dtype(self):
        """Draws come back as float vectors of the requested length."""
        w = NormalOneOne().sample(17, np.random.default_rng(np.random.SeedSequence(3)))
        assert w.shape == (17,) and w.dtype == np.float64

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.token)
    @pytest.mark.parametrize("a, b", [(0, 5), (1, 1), (7, 300), (32500, 18500)])
    def test_consecutive_draws_split_one_draw(self, law, a, b):
        """Drawing a then b values from one generator gives the a + b values
        of a single draw, bit for bit."""
        whole = law.sample(a + b, np.random.default_rng(2024))
        rng = np.random.default_rng(2024)
        parts = np.concatenate([law.sample(a, rng), law.sample(b, rng)])
        assert parts.dtype == whole.dtype == np.float64
        np.testing.assert_array_equal(parts, whole)


# =============================================================================
# Tests: Chernoff transform
# =============================================================================


class TestChernoffClosedForms:
    """The transform against its three closed forms."""

    def test_poisson_transform(self):
        """Poisson weights give x log x - x + 1."""
        for x in np.linspace(0.1, 5.0, 23):
            x = float(x)
            expect = x * math.log(x) - x + 1.0
            assert chernoff(PoissonOne(), x) == pytest.approx(expect, abs=1e-10)

    def test_exponential_transform(self):
        """Exponential weights give x - 1 - log x."""
        for x in np.linspace(0.1, 5.0, 23):
            x = float(x)
            expect = x - 1.0 - math.log(x)
            assert chernoff(ExponentialOne(), x) == pytest.approx(expect, abs=1e-10)

    def test_gaussian_transform(self):
        """Gaussian weights give (x-1)^2/2."""
        for x in np.linspace(-2.0, 5.0, 23):
            x = float(x)
            assert chernoff(NormalOneOne(), x) == pytest.approx(0.5 * (x - 1.0) ** 2, abs=1e-10)

    def test_argmax_reported_with_value(self):
        """The maximizing cumulant argument satisfies M'(t*) = x."""
        for law in ALL_LAWS:
            cgf, cgf_prime = CGF[law.token]
            value, t_star = chernoff_argmax(law, 1.7)
            assert cgf_prime(t_star) == pytest.approx(1.7, rel=1e-12)
            assert value == pytest.approx(1.7 * t_star - cgf(t_star), rel=1e-12)


class TestChernoffBoundary:
    """Transform behavior at and beyond the support."""

    def test_nan_is_invalid_input(self):
        """NaN raises a validation error, not a numeric failure."""
        for law in [PoissonOne(), ExponentialOne(), ShiftedBernoulli()]:
            with pytest.raises(ValidationError):
                chernoff_argmax(law, math.nan)

    def test_outside_support_infinite(self):
        """Arguments outside the convex hull of the support give +inf."""
        law = ShiftedBernoulli()
        w0, w1 = law.support_bounds
        assert chernoff(law, w0 - 0.1) == INF
        assert chernoff(law, w1 + 0.1) == INF
        assert chernoff(PoissonOne(), -0.5) == INF

    def test_two_point_endpoints_carry_mass(self):
        """Support endpoints give -log of the point mass."""
        law = ShiftedBernoulli()
        w0, w1 = law.support_bounds
        assert chernoff(law, w0) == pytest.approx(-math.log(0.5), rel=1e-12)
        assert chernoff(law, w1) == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_poisson_endpoint_mass(self):
        """The Poisson atom at zero gives rate 1."""
        assert chernoff(PoissonOne(), 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_vanishes_at_mean(self):
        """The transform is zero at the mean weight."""
        for law in ALL_LAWS:
            assert chernoff(law, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_interior_convexity(self):
        """The transform of the two-point law is convex on its domain."""
        law = ShiftedBernoulli()
        xs = np.linspace(0.05, 1.95, 39)
        vals = np.array([chernoff(law, float(x)) for x in xs])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.all(second > -1e-8)


def _legendre_numeric(token, x):
    """``sup_t (t x - M(t))`` at the root of ``M'(t) = x``, found by bisection."""
    cgf, cgf_prime = CGF[token]
    lo, hi = CGF_BRACKET[token]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cgf_prime(mid) < x:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return t * x - cgf(t)


# (phi, phi', phi'' and phi#) of each law's transform, for mpmath numbers; the
# two-point forms are written in logs, as atanh(x - 1) would round x near 1e-50
MP_FORMS = {
    "poisson1": (lambda x, mp: x * mp.log(x) - x + 1, lambda x, mp: mp.log(x), lambda x, mp: 1 / x, lambda x, mp: x - 1),
    "exp1": (lambda x, mp: -mp.log(x) + x - 1, lambda x, mp: 1 - 1 / x, lambda x, mp: 1 / x**2, lambda x, mp: mp.log(x)),
    "normal11": (
        lambda x, mp: (x - 1) ** 2 / 2, lambda x, mp: x - 1, lambda x, mp: mp.mpf(1), lambda x, mp: (x * x - 1) / 2
    ),
    "twopoint": (
        lambda x, mp: x / 2 * mp.log(x) + (1 - x / 2) * mp.log(2 - x),
        lambda x, mp: (mp.log(x) - mp.log(2 - x)) / 2,
        lambda x, mp: 1 / (x * (2 - x)),
        lambda x, mp: -mp.log(2 - x),
    ),
}

#: 1 +- 1e-15 ... 1e-1, then the far ends of the double range, the smallest
#: subnormal included
REFERENCE_POINTS = [1.0 + s * 10.0 ** -e for e in range(1, 16) for s in (1, -1)] + [5e-324, 1e-300, 1e300]

# Forms of the power family written as a difference of unit-size terms: near
# 1 they cancel, and their error is an absolute rounding of those terms
CANCELLING = {("poisson1", 0), ("exp1", 0), ("exp1", 1), ("normal11", 3)}

# (phi, phi', phi'', phi#) at the support's ends, by continuity; exp1's phi is
# +inf at 0, so every form is
SUPPORT_ENDS = {
    "poisson1": {0.0: (1.0, -INF, INF, -1.0)},
    "exp1": {0.0: (INF, INF, INF, INF)},
    "normal11": {-INF: (INF, -INF, 1.0, INF), INF: (INF, INF, 1.0, INF)},
    "twopoint": {0.0: (math.log(2.0), -INF, INF, -math.log(2.0)), 2.0: (math.log(2.0), INF, INF, INF)},
}


def _forms(spec, x):
    return spec.value(x), spec.value(x, 1), spec.value(x, 2), spec.sharp(x)


class TestClosedFormReference:
    """Each law's generator against 50-digit references and a numerical Legendre transform."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.token)
    def test_forms_match_fifty_digit_reference(self, law):
        """phi, phi', phi'' and phi# lie within 1e-14 relative of mpmath, in the
        scalar and the array path, without a numpy warning; a cancelling power
        form near 1 within 1e-15 absolute."""
        mpmath = pytest.importorskip("mpmath")  # test-only reference
        spec = induced_divergence(law)
        points = [x for x in REFERENCE_POINTS if x < law.support_bounds[1]]
        arrays = [spec.value_array(np.array(points), order) for order in range(3)] + [spec.sharp_array(np.array(points))]
        with mpmath.workdps(50):
            for i, x in enumerate(points):
                for form, got in enumerate(_forms(spec, x)):
                    # the reference rounded to a double: 1/x**2 underflows at 1e300,
                    # 1/x overflows at 5e-324
                    ref = float(MP_FORMS[law.token][form](mpmath.mpf(x), mpmath))
                    for value in (got, float(arrays[form][i])):
                        if (law.token, form) in CANCELLING and abs(x - 1.0) < 0.5:
                            assert abs(value - ref) <= 1e-15, (law.token, form, x)
                        else:
                            assert value == pytest.approx(ref, rel=1e-14, abs=0.0), (law.token, form, x)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.token)
    def test_support_ends_take_the_limits(self, law):
        """At the ends of the support every form is its limit, in both paths."""
        spec = induced_divergence(law)
        for x, expect in SUPPORT_ENDS[law.token].items():
            assert _forms(spec, x) == expect
            arrays = [spec.value_array(np.array([x]), order)[0] for order in range(3)]
            assert tuple(arrays) + (spec.sharp_array(np.array([x]))[0],) == expect

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.token)
    def test_transform_is_the_numerical_supremum(self, law):
        """phi(x) is within 1e-10 of sup_t (t x - M(t)) computed from the cgf."""
        lo, hi = {"twopoint": (0.02, 1.98), "normal11": (-3.0, 5.0)}.get(law.token, (0.05, 5.0))
        for x in np.linspace(lo, hi, 25):
            x = float(x)
            assert chernoff(law, x) == pytest.approx(_legendre_numeric(law.token, x), abs=1e-10)


# =============================================================================
# Tests: induced divergence generators
# =============================================================================


class TestInducedDivergence:
    """Generators induced by weight laws through the transform."""

    def test_closed_forms_route_to_power_family(self):
        """The three closed-form laws induce power generators."""
        for law, g in [(PoissonOne(), 1.0), (ExponentialOne(), 0.0), (NormalOneOne(), 2.0)]:
            spec = induced_divergence(law)
            assert isinstance(spec, CressieRead) and spec.gamma == g

    def test_two_point_generator_is_bounded_domain(self):
        """The two-point induced generator is finite only on [w0, w1]."""
        law = ShiftedBernoulli()
        spec = induced_divergence(law)
        w0, w1 = law.support_bounds
        assert spec.value(0.5 * (w0 + w1)) < INF
        assert spec.value(w1 + 0.2) == INF
        assert spec.value(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_induced_conjugate_has_swapped_values(self):
        """Conjugating the induced generator applies x phi(1/x)."""
        spec = induced_divergence(ShiftedBernoulli())
        conj = spec.conjugate()
        for x in [0.6, 1.0, 1.7]:
            assert conj.value(x) == pytest.approx(x * spec.value(1.0 / x), rel=1e-9, abs=1e-10)

    def test_induced_conjugate_curvature_at_large_arguments(self):
        """conj''(x) = phi''(1/x) / x**3 stays defined where x**3 overflows:
        it underflows to 0 from 1e200 on, where phi''(1/x) = 1 / (x (2 - x))
        evaluated at 1/x is about x / 2 and finite up to the largest double,
        and x = inf (phi''(0) = inf times 0) gives +inf."""
        conj = induced_divergence(ShiftedBernoulli()).conjugate()
        tiny = conj.value(1e103, 2)
        assert 0.0 < tiny < 1e-200
        for x in (1e200, 1e300, 1.7976931348623157e308):
            assert conj.value(x, 2) == 0.0
        assert conj.value(INF, 2) == INF

    def test_induced_conjugate_slope_at_infinity(self):
        """conj'(inf) is its limit phi(0), not the NaN of 0 * phi'(0) = 0 * (-inf),
        and conj'(1e300) already agrees with it."""
        spec = induced_divergence(ShiftedBernoulli())
        conj = spec.conjugate()
        assert conj.value(INF, 1) == spec.value(0.0)
        assert conj.value(INF, 1) == pytest.approx(conj.value(1e300, 1), rel=1e-15)


class TestPrimeSharp:
    """``prime_sharp_array`` returns ``(value_array(x, 1), sharp_array(x))``."""

    def test_two_point_pair(self):
        """Inside the support [0, 2] the pair is ``(atanh(x - 1), -log(2 - x))``,
        ``(-inf, -log 2)`` at 0, and ``(+inf, +inf)`` at 2 and beyond the support;
        it matches the two separate evaluations."""
        spec = induced_divergence(ShiftedBernoulli())
        x = np.array([[0.0, 1e-12, 0.3, 1.0], [1.7, 2.0 - 1e-12, 2.0, 2.5], [-0.5, -1e-300, 1e300, INF]])
        prime, sharp = spec.prime_sharp_array(x)
        assert prime.shape == sharp.shape == x.shape
        assert np.array_equal(prime, spec.value_array(x, 1))
        assert np.array_equal(sharp, spec.sharp_array(x))
        # atanh(x - 1) in logs: x - 1 drops the low bits of x = 1e-12
        inner = [1e-12, 0.3, 1.0, 1.7, 2.0 - 1e-12]
        expect_prime = [-INF] + [0.5 * (math.log(v) - math.log(2.0 - v)) for v in inner] + [INF] * 6
        expect_sharp = [-math.log(2.0)] + [-math.log(2.0 - v) for v in inner] + [INF] * 6
        np.testing.assert_allclose(prime.ravel(), expect_prime, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(sharp.ravel(), expect_sharp, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, -1.0, 3.0])
    def test_power_generator_pair(self, gamma):
        """A power generator's pair is its two array forms, on and off its domain."""
        spec = CressieRead(gamma)
        x = np.array([-1.0, 0.0, 1e-300, 0.4, 1.0, 3.0, 1e300, INF])
        prime, sharp = spec.prime_sharp_array(x)
        assert np.array_equal(prime, spec.value_array(x, 1))
        assert np.array_equal(sharp, spec.sharp_array(x))

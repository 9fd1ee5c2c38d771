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


class TestCumulantFunction:
    """Cumulant generating functions of the laws."""

    def test_standardized_moments_at_zero(self):
        """M(0) = 0, M'(0) = 1 and M''(0) = 1 encode mean one, variance one."""
        for law in ALL_LAWS:
            assert law.cgf(0.0) == pytest.approx(0.0, abs=1e-15)
            assert law.cgf_prime(0.0) == pytest.approx(1.0, abs=1e-12)
            assert law.cgf_second(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        """M' and M'' agree with central differences inside the domain."""
        h = 1e-5
        for law in ALL_LAWS:
            for t in [-1.0, -0.2, 0.3, 0.8]:
                fd1 = (law.cgf(t + h) - law.cgf(t - h)) / (2.0 * h)
                fd2 = (law.cgf(t + h) - 2.0 * law.cgf(t) + law.cgf(t - h)) / h**2
                assert law.cgf_prime(t) == pytest.approx(fd1, rel=1e-6, abs=1e-6)
                assert law.cgf_second(t) == pytest.approx(fd2, rel=1e-4, abs=1e-4)

    def test_domain_truncation(self):
        """The exponential cgf blows up at the domain edge."""
        law = ExponentialOne()
        assert law.cgf(1.0) == INF
        assert law.cgf(0.999) < INF

    def test_sample_moments(self, rng):
        """Monte Carlo mean and variance sit near one for every law."""
        for law in ALL_LAWS:
            w = law.sample(40000, rng)
            assert np.mean(w) == pytest.approx(1.0, abs=0.03)
            assert np.var(w) == pytest.approx(1.0, abs=0.05)


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
        for law in [PoissonOne(), ExponentialOne(), NormalOneOne()]:
            value, t_star = chernoff_argmax(law, 1.7)
            assert law.cgf_prime(t_star) == pytest.approx(1.7, rel=1e-8)
            assert value == pytest.approx(1.7 * t_star - law.cgf(t_star), rel=1e-12)


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
        """Numeric transform of the two-point law is convex on its domain."""
        law = ShiftedBernoulli()
        xs = np.linspace(0.05, 1.95, 39)
        vals = np.array([chernoff(law, float(x)) for x in xs])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.all(second > -1e-8)


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

    def test_numeric_route_matches_closed_form(self):
        """Forcing the numeric route reproduces the closed-form values."""
        numeric = induced_divergence(PoissonOne(), force_numeric=True)
        closed = CressieRead(1.0)
        for x in [0.2, 0.7, 1.0, 1.9, 4.2]:
            assert numeric.value(x) == pytest.approx(closed.value(x), rel=1e-9, abs=1e-10)
            assert numeric.value(x, order=1) == pytest.approx(
                closed.value(x, order=1), rel=1e-7, abs=1e-7
            )
            assert numeric.sharp(x) == pytest.approx(closed.sharp(x), rel=1e-7, abs=1e-7)

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
        it underflows to 0 at 1e200, keeps phi's own inf from 1e300 on, and
        x = inf (an inf * 0) gives +inf."""
        conj = induced_divergence(ShiftedBernoulli()).conjugate()
        tiny = conj.value(1e103, 2)
        assert 0.0 < tiny < 1e-200
        assert conj.value(1e200, 2) == 0.0
        for x in (1e300, 1.7976931348623157e308, INF):
            assert conj.value(x, 2) == INF

    def test_induced_conjugate_slope_at_infinity(self):
        """conj'(inf) is its limit phi(0), not the NaN of 0 * phi'(0) = 0 * (-inf),
        and conj'(1e300) already agrees with it."""
        spec = induced_divergence(ShiftedBernoulli())
        conj = spec.conjugate()
        assert conj.value(INF, 1) == spec.value(0.0)
        assert conj.value(INF, 1) == pytest.approx(conj.value(1e300, 1), rel=1e-15)


class TestPrimeSharp:
    """``prime_sharp_array`` returns ``(value_array(x, 1), sharp_array(x))``."""

    def test_two_point_pair_from_one_solve_per_point(self, monkeypatch):
        """Inside the support [0, 2], at both endpoints and beyond them the pair
        matches the two separate evaluations, from one Chernoff solve per point."""
        from divlab import weights

        spec = induced_divergence(ShiftedBernoulli())
        x = np.array([[0.0, 1e-12, 0.3, 1.0], [1.7, 2.0 - 1e-12, 2.0, 2.5], [-0.5, -1e-300, 1e300, INF]])
        solves = []
        solve = weights.chernoff_argmax

        def counted(law, v):
            solves.append(v)
            return solve(law, v)

        monkeypatch.setattr(weights, "chernoff_argmax", counted)
        prime, sharp = spec.prime_sharp_array(x)
        assert solves == x.ravel().tolist()
        assert prime.shape == sharp.shape == x.shape
        assert np.array_equal(prime, spec.value_array(x, 1))
        assert np.array_equal(sharp, spec.sharp_array(x))
        assert np.all(np.isfinite(sharp[0])) and prime[1, 2] == INF and sharp[2, 0] == INF

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, -1.0, 3.0])
    def test_power_generator_pair(self, gamma):
        """A power generator's pair is its two array forms, on and off its domain."""
        spec = CressieRead(gamma)
        x = np.array([-1.0, 0.0, 1e-300, 0.4, 1.0, 3.0, 1e300, INF])
        prime, sharp = spec.prime_sharp_array(x)
        assert np.array_equal(prime, spec.value_array(x, 1))
        assert np.array_equal(sharp, spec.sharp_array(x))

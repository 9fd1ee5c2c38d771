"""Unit tests for the sampling models and their closed-form integrals."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from divlab.divergences import INF, CressieRead
from divlab.errors import DomainError, ValidationError
from divlab.estimation import _expfam_power_dual
from divlab.models import (
    Categorical,
    ExponentialScale,
    GaussianLocation,
    PoissonNatural,
    make_model,
)

SCALAR_MODELS = [GaussianLocation(), PoissonNatural(), ExponentialScale()]


@pytest.fixture
def rng():
    """Seeded generator for sampling checks."""
    return np.random.default_rng(808)


def _theta_pair(model):
    """Interior parameter pair for each scalar model."""
    if isinstance(model, ExponentialScale):
        return -1.3, -0.6
    return 0.7, 0.2


# =============================================================================
# Tests: densities and normalization
# =============================================================================


class TestNormalization:
    """Total mass one under every parameter."""

    def test_unit_mass_by_quadrature(self):
        """Integrating the constant 1 under each model returns one."""
        for model in SCALAR_MODELS:
            theta, _ = _theta_pair(model)
            assert model.integrate_under(theta, lambda x: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_log_normalizer_shape(self):
        """The Gaussian cumulant is quadratic with unit curvature."""
        model = GaussianLocation()
        for theta in [-2.0, 0.0, 1.3]:
            assert model.log_normalizer(theta) == pytest.approx(0.5 * theta**2, abs=1e-15)
            assert model.hess_log_normalizer(theta) == 1.0

    def test_cumulant_derivative_consistency(self):
        """grad and hess of the cumulant match central differences."""
        h = 1e-5
        for model in SCALAR_MODELS:
            theta, _ = _theta_pair(model)
            fd1 = (model.log_normalizer(theta + h) - model.log_normalizer(theta - h)) / (2.0 * h)
            fd2 = (
                model.log_normalizer(theta + h)
                - 2.0 * model.log_normalizer(theta)
                + model.log_normalizer(theta - h)
            ) / h**2
            assert model.grad_log_normalizer(theta) == pytest.approx(fd1, rel=1e-7)
            assert model.hess_log_normalizer(theta) == pytest.approx(fd2, rel=1e-4)

    def test_mean_matches_gradient(self):
        """The model mean equals the cumulant gradient."""
        for model in SCALAR_MODELS:
            theta, _ = _theta_pair(model)
            mean = model.integrate_under(theta, lambda x: x)
            assert mean == pytest.approx(model.grad_log_normalizer(theta), abs=1e-8)


class TestDomains:
    """Natural-parameter domains."""

    def test_exponential_scale_requires_negative(self):
        """Nonnegative parameters are outside the scale model's domain."""
        model = ExponentialScale()
        assert model.in_domain(-0.5)
        assert not model.in_domain(0.0)
        with pytest.raises(DomainError):
            model.check_domain(0.2)

    def test_clip_box_respects_domain(self):
        """Search boxes shrink to the open parameter interval."""
        lo, hi = ExponentialScale().clip_box(-5.0, 4.0)
        assert lo == -5.0 and hi < 0.0

    def test_empty_box_rejected(self):
        """A box entirely outside the domain fails validation."""
        with pytest.raises(ValidationError):
            ExponentialScale().clip_box(1.0, 2.0)


class TestArrayPaths:
    """Vectorized cumulant evaluation."""

    def test_log_normalizer_array_matches_scalar(self):
        """Array cumulants agree with the scalar method inside the domain."""
        for model in SCALAR_MODELS:
            theta, alt = _theta_pair(model)
            grid = np.array([theta, alt, 0.5 * (theta + alt)])
            out = model.log_normalizer_array(grid)
            ref = [model.log_normalizer(float(v)) for v in grid]
            np.testing.assert_allclose(out, ref, rtol=1e-13)

    def test_out_of_domain_masked_to_inf(self):
        """The scale model marks nonnegative (and NaN) parameters with +inf
        (nan gradient) in mixed, all-outside and 0-d input; inside values
        have the same bits as in an all-inside call."""
        out = ExponentialScale().log_normalizer_array(np.array([-1.0, 0.5]))
        assert np.isfinite(out[0]) and np.isinf(out[1])
        grad = ExponentialScale().grad_log_normalizer_array(np.array([-1.0, 0.0, 0.5]))
        assert grad[0] == 1.0 and np.all(np.isnan(grad[1:]))
        model = ExponentialScale()
        out = model.log_normalizer_array(np.array([-1.3, 0.5]))
        assert out[0] == model.log_normalizer_array(np.array([-1.3]))[0] and out[1] == INF
        grad = model.grad_log_normalizer_array(np.array([-1.3, 0.0]))
        assert grad[0] == model.grad_log_normalizer_array(-1.3)
        for outside in (np.array([0.0, 2.0]), np.array([-1.0, np.nan]), np.array(0.5), np.nan, 0.0):
            inside = np.asarray(outside) < 0.0
            assert np.all(model.log_normalizer_array(outside)[~inside] == INF)
            assert np.all(np.isnan(model.grad_log_normalizer_array(outside)[~inside]))

    def test_grad_array_matches_scalar(self):
        """Array gradients agree with the scalar method."""
        for model, grid in [
            (GaussianLocation(), np.array([-0.4, 0.0, 0.9])),
            (PoissonNatural(), np.array([-0.4, 0.0, 0.9])),
            (ExponentialScale(), np.array([-1.3, -0.6, -0.95])),
        ]:
            np.testing.assert_allclose(
                model.grad_log_normalizer_array(grid),
                [model.grad_log_normalizer(float(v)) for v in grid],
                rtol=1e-13,
            )


# =============================================================================
# Tests: ratio integrals against independent quadrature
# =============================================================================


def _ratio_power_integral(model, theta, alpha, u):
    """``int (p_theta/p_alpha)**u dP_theta`` as ``1 + u * lead`` of index ``u + 1``."""
    lead, _ = _expfam_power_dual(model, CressieRead(u + 1.0), theta, alpha)
    return 1.0 + u * lead


def _mean_log_ratio(model, theta, alpha):
    """``int log(p_theta/p_alpha) dP_theta``: the Kullback-Leibler lead."""
    lead, _ = _expfam_power_dual(model, CressieRead(1.0), theta, alpha)
    return lead


class TestRatioIntegrals:
    """The dual kernel's closed-form leads against direct numeric integrals."""

    def test_gaussian_power_integral_by_quadrature(self):
        """Gaussian tilted-ratio integral matches adaptive quadrature."""
        model = GaussianLocation()
        theta, alpha, u = 0.7, 0.2, -0.5

        def integrand(x):
            # log-space evaluation keeps the tails finite
            log_ratio = -0.5 * (x - theta) ** 2 + 0.5 * (x - alpha) ** 2
            log_val = u * log_ratio - 0.5 * (x - theta) ** 2 - 0.5 * math.log(2.0 * math.pi)
            return math.exp(log_val) if log_val > -700.0 else 0.0

        expect, _ = integrate.quad(integrand, -np.inf, np.inf)
        assert _ratio_power_integral(model, theta, alpha, u) == pytest.approx(expect, rel=1e-9)

    def test_poisson_power_integral_by_series(self):
        """Poisson tilted-ratio integral matches direct series summation."""
        model = PoissonNatural()
        theta, alpha, u = 0.3, -0.2, 1.0
        lam_t, lam_a = math.exp(theta), math.exp(alpha)
        expect = 0.0
        for j in range(200):
            ratio = math.exp(j * (theta - alpha) - lam_t + lam_a)
            expect += ratio**u * stats.poisson.pmf(j, lam_t)
        assert _ratio_power_integral(model, theta, alpha, u) == pytest.approx(expect, rel=1e-10)

    def test_mean_log_ratio_gaussian_closed_form(self):
        """The Gaussian mean log ratio is half the squared location gap."""
        model = GaussianLocation()
        assert _mean_log_ratio(model, 0.7, 0.2) == pytest.approx(0.5 * 0.25, abs=1e-13)

    def test_mean_log_ratio_by_quadrature(self):
        """The scale model's mean log ratio matches quadrature."""
        model = ExponentialScale()
        theta, alpha = -1.3, -0.6

        def integrand(x):
            log_ratio = math.log(-theta) + theta * x - math.log(-alpha) - alpha * x
            return log_ratio * (-theta) * math.exp(theta * x)

        expect, _ = integrate.quad(integrand, 0.0, np.inf)
        assert _mean_log_ratio(model, theta, alpha) == pytest.approx(expect, rel=1e-9)

    def test_out_of_domain_tilt_is_infinite(self):
        """Tilted parameters leaving the domain give +inf."""
        model = ExponentialScale()
        # theta + u*(theta - alpha) crosses zero for a large positive tilt.
        assert _ratio_power_integral(model, -0.3, -2.0, 1.0) == math.inf


class TestCdf:
    """Distribution functions against scipy references."""

    def test_gaussian_cdf(self):
        """Location-model cdf matches the shifted normal cdf."""
        xs = np.array([-1.0, 0.0, 0.4, 2.0])
        out = GaussianLocation().cdf(0.4, xs)
        np.testing.assert_allclose(out, stats.norm.cdf(xs, loc=0.4), atol=1e-12)

    def test_poisson_cdf(self):
        """Count-model cdf matches scipy at integer and fractional points."""
        theta = 0.3
        lam = math.exp(theta)
        xs = np.array([-0.5, 0.0, 0.7, 1.0, 3.2])
        out = PoissonNatural().cdf(theta, xs)
        np.testing.assert_allclose(out, stats.poisson.cdf(xs, lam), atol=1e-12)

    def test_exponential_cdf(self):
        """Scale-model cdf matches the exponential distribution."""
        theta = -1.3
        xs = np.array([-1.0, 0.0, 0.5, 2.0])
        out = ExponentialScale().cdf(theta, xs)
        np.testing.assert_allclose(out, stats.expon.cdf(xs, scale=-1.0 / theta), atol=1e-12)


# =============================================================================
# Tests: score solving and pilots
# =============================================================================


class TestScoreSolve:
    """Inverting the cumulant gradient."""

    def test_round_trip_through_gradient(self):
        """solve_score(grad C(theta)) returns theta."""
        for model in SCALAR_MODELS:
            theta, _ = _theta_pair(model)
            target = model.grad_log_normalizer(theta)
            assert model.solve_score(target) == pytest.approx(theta, abs=1e-9)

    def test_gaussian_identity(self):
        """The Gaussian score solution is the target itself."""
        assert GaussianLocation().solve_score(1.7) == pytest.approx(1.7, abs=1e-12)

    def test_poisson_log_solution(self):
        """The Poisson score solution is the log of the target."""
        assert PoissonNatural().solve_score(2.5) == pytest.approx(math.log(2.5), abs=1e-10)

    def test_invalid_target_rejected(self):
        """Nonpositive targets are outside the Poisson mean range."""
        with pytest.raises(DomainError):
            PoissonNatural().solve_score(-1.0)

    def test_pilot_matches_moment_equation(self, rng):
        """Unweighted pilots solve the score equation at the sample mean."""
        model = GaussianLocation()
        x = model.sample(0.4, 200, rng)
        assert model.pilot_estimate(x) == pytest.approx(float(np.mean(x)), abs=1e-10)

    def test_weighted_pilot_uses_weighted_mean(self, rng):
        """Weighted pilots solve the score equation at the weighted mean."""
        model = PoissonNatural()
        x = model.sample(0.3, 150, rng)
        w = rng.exponential(1.0, size=150)
        expect = math.log(float(np.sum(w * x) / np.sum(w)))
        assert model.pilot_estimate(x, w) == pytest.approx(expect, abs=1e-10)


class TestSampling:
    """Seeded sampling paths."""

    def test_deterministic_given_seed(self):
        """Equal seeds give equal draws for every model."""
        for model in SCALAR_MODELS:
            theta, _ = _theta_pair(model)
            a = model.sample(theta, 25, np.random.default_rng(5))
            b = model.sample(theta, 25, np.random.default_rng(5))
            np.testing.assert_array_equal(a, b)

    def test_sample_mean_near_model_mean(self, rng):
        """Large-sample means approach the cumulant gradient."""
        for model in SCALAR_MODELS:
            theta, _ = _theta_pair(model)
            x = model.sample(theta, 20000, rng)
            assert np.mean(x) == pytest.approx(model.grad_log_normalizer(theta), abs=0.05)


# =============================================================================
# Tests: categorical model
# =============================================================================


class TestCategorical:
    """Finite-support model with direct parametrization."""

    def test_probs_append_complement(self):
        """The last cell mass is one minus the free masses."""
        model = Categorical(3)
        np.testing.assert_allclose(model.probs((0.2, 0.3)), [0.2, 0.3, 0.5], atol=1e-15)

    def test_boundary_parameters_rejected(self):
        """Parameters mapping to a boundary cell are outside the domain."""
        model = Categorical(2)
        with pytest.raises(DomainError):
            model.probs((1.0,))
        assert not model.in_domain((0.0,))

    def test_atom_index_round_trip(self):
        """Sampled atoms map back to their indices."""
        model = Categorical(3)
        idx = model.atom_index(np.array([2.0, 0.0, 1.0]))
        np.testing.assert_array_equal(idx, [2, 0, 1])

    def test_non_atom_point_rejected(self):
        """Off-support points are validation errors."""
        with pytest.raises(ValidationError):
            Categorical(2).atom_index(0.5)

    def test_log_density_ratio_matches_probs(self):
        """The log ratio at an atom is the log of the cell-mass ratio."""
        model = Categorical(2)
        out = model.log_density_ratio((0.3,), (0.6,), 0.0)
        assert out == pytest.approx(math.log(0.3 / 0.6), abs=1e-12)

    def test_fisher_information_binomial_closed_form(self):
        """The k=2 information matches 1/(p(1-p))."""
        model = Categorical(2)
        info = model.fisher_information((0.3,))
        assert info[0, 0] == pytest.approx(1.0 / (0.3 * 0.7), rel=1e-5)

    def test_pilot_is_clipped_frequency_vector(self, rng):
        """Pilots are interior empirical frequencies."""
        model = Categorical(3)
        x = model.sample((0.5, 0.3), 300, rng)
        pilot = model.pilot_estimate(x)
        counts = np.array([np.sum(x == a) for a in (0.0, 1.0)])
        np.testing.assert_allclose(pilot, counts / 300.0, atol=1e-12)

    def test_small_k_rejected(self):
        """A single-cell model is a validation error."""
        with pytest.raises(ValidationError):
            Categorical(1)


class TestRegistryTokens:
    """Model construction from registry tokens."""

    def test_round_trip_tokens(self):
        """Each token yields the matching class."""
        assert isinstance(make_model("gauss_loc"), GaussianLocation)
        assert isinstance(make_model("poisson"), PoissonNatural)
        assert isinstance(make_model("exp_scale"), ExponentialScale)
        assert isinstance(make_model("categorical", k=3), Categorical)

    def test_unknown_token_rejected(self):
        """Unregistered tokens fail validation."""
        with pytest.raises(ValidationError):
            make_model("student_t")

    def test_categorical_requires_cell_count(self):
        """The finite model cannot be built without k."""
        with pytest.raises(ValidationError):
            make_model("categorical")

"""Unit tests for the sampling models and their closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    def test_unit_mass_by_series(self):
        """Summing the constant 1 under the Poisson model returns one: its
        series, the one numeric integral left in the package (the continuous
        models' closed forms keep their scipy.integrate references below)."""
        assert PoissonNatural().integrate_under(0.7, lambda x: 1.0) == pytest.approx(1.0, abs=1e-9)

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
        """The Poisson series' mean equals the cumulant gradient."""
        model = PoissonNatural()
        assert model.integrate_under(0.7, lambda x: x) == pytest.approx(model.grad_log_normalizer(0.7), abs=1e-8)


class TestDomains:
    """Natural-parameter domains."""

    def test_exponential_scale_requires_negative(self):
        """Nonnegative parameters are outside the scale model's domain."""
        model = ExponentialScale()
        assert model.in_domain(-0.5)
        assert not model.in_domain(0.0)
        with pytest.raises(DomainError):
            model.check_domain(0.2)

    def test_domain_message_prints_plain_floats(self):
        """Messages name the parameter as plain floats and the model by its
        token, never as numpy reprs or object addresses."""
        with pytest.raises(DomainError) as err:
            ExponentialScale().check_domain(np.float64(0.2))
        assert str(err.value) == "parameter 0.2 outside the domain of the exp_scale model"
        with pytest.raises(DomainError) as err:
            Categorical(2).probs((np.float64(1.0),))
        assert str(err.value) == "parameter (1.0,) does not map to an interior probability vector"

    def test_default_box_respects_domain(self):
        """Search boxes shrink to the open parameter interval, elementwise on arrays."""
        assert ExponentialScale().default_box(-2.0) == (-5.0, -1e-8)
        lo, hi = ExponentialScale().default_box(np.array([-2.0, -4.0]))
        assert lo.tolist() == [-5.0, -7.0] and hi.tolist() == [-1e-8, -1.0]

    def test_empty_box_rejected(self):
        """A box entirely outside the domain fails validation."""
        with pytest.raises(ValidationError, match="empty search box"):
            ExponentialScale().default_box(3.5)


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
        """NaN, infinite and (for the positive families) nonpositive targets
        are outside the mean range and raise DomainError at once."""
        for model in (ExponentialScale(), PoissonNatural(), GaussianLocation()):
            bad = [math.inf, -math.inf, math.nan]
            if not isinstance(model, GaussianLocation):
                bad += [0.0, -0.0, -1e-300, -1.0]
            for mean in bad:
                with pytest.raises(DomainError):
                    model.solve_score(mean)

    @pytest.mark.parametrize("model, thetas", [
        (GaussianLocation(), st.floats(-1e300, 1e300)),
        (PoissonNatural(), st.floats(-700.0, 700.0)),
        (ExponentialScale(), st.floats(-300.0, 300.0).map(lambda e: -(10.0 ** e))),
    ])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_round_trip_across_the_domain(self, model, thetas, data):
        """solve_score(grad C(theta)) returns theta within 1e-12 relative
        (1e-15 absolute near 0) wherever grad C is a finite positive float."""
        theta = data.draw(thetas)
        got = model.solve_score(model.grad_log_normalizer(theta))
        assert got == pytest.approx(theta, rel=1e-12, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SCALAR_MODELS), st.floats(-300.0, 300.0))
    def test_every_mean_gives_a_finite_parameter(self, model, log_mean):
        """Each mean in [1e-300, 1e300] maps to a finite parameter in the domain."""
        theta = model.solve_score(10.0 ** log_mean)
        assert math.isfinite(theta) and model.in_domain(theta)

    def test_pilot_matches_moment_equation(self, rng):
        """Unweighted pilots solve the score equation at the sample mean."""
        model = GaussianLocation()
        x = model.sample(0.4, 200, rng)
        assert model.pilot_estimate(x) == pytest.approx(float(np.mean(x)), abs=1e-10)


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

    def test_nan_rows_are_outside(self, rng):
        """A parameter holding NaN is outside; finite ones keep the complement-form test."""
        model = Categorical(3)
        finite = np.vstack([
            rng.uniform(-0.5, 1.5, size=(2000, 2)),
            [[0.2, 0.3], [0.0, 0.5], [0.5, 0.5], [1.0, 0.0], [1e17, 1.0], [-1e-300, 0.5]],
        ])
        p = np.column_stack([finite, 1.0 - finite.sum(axis=1)])
        reference = ~((p <= 0.0).any(axis=1) | (abs(p.sum(axis=1) - 1.0) > 1e-9))
        inside = np.array([model.in_domain(row) for row in finite])
        np.testing.assert_array_equal(inside, reference)
        assert inside.any() and not inside.all()
        for row, p_row in zip(finite[inside], p[inside]):
            np.testing.assert_array_equal(model.probs(row), p_row)
        for row in ([np.nan, 0.3], [0.2, np.nan], [np.nan, np.nan], [np.inf, 0.1]):
            with pytest.raises(DomainError):
                model.probs(row)
        with pytest.raises(DomainError):
            Categorical(2).probs((math.nan,))
        assert not Categorical(2).in_domain((math.nan,))

    def test_atom_index_round_trip(self):
        """Sampled atoms map back to their indices."""
        model = Categorical(3)
        idx = model.atom_index(np.array([2.0, 0.0, 1.0]))
        np.testing.assert_array_equal(idx, [2, 0, 1])

    def test_non_atom_point_rejected(self):
        """Off-support points are validation errors."""
        with pytest.raises(ValidationError):
            Categorical(2).atom_index(0.5)

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

"""Unit tests for weighted empirical measures and minimum dual estimation."""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import divlab.estimation as estimation
from divlab._optim import maximize_scalar
from divlab.divergences import INF, ConjugateSpec, CressieRead, cell_divergence
from divlab.errors import DomainError, NumericError, ValidationError
from divlab.estimation import (
    WeightedEmpiricalMeasure,
    _BatchCriterion,
    _DualCriterion,
    _categorical_dual,
    _expfam_power_dual,
    _power_lead,
    divergence_between,
    estimate_phi_dual,
    minimum_dual_estimator,
    minimum_dual_estimator_batch,
)
from divlab.models import Categorical, ExponentialScale, GaussianLocation, PoissonNatural, make_model
from divlab.reporting import read_data_csv
from divlab.weights import (
    ExponentialOne,
    NormalOneOne,
    PoissonOne,
    ShiftedBernoulli,
    induced_divergence,
)


DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def rng():
    """Seeded generator for data draws."""
    return np.random.default_rng(424)


@pytest.fixture
def gauss_sample(rng):
    """Gaussian location sample of moderate size."""
    model = GaussianLocation()
    return model, model.sample(0.4, 80, rng)


# =============================================================================
# Tests: weighted empirical measures
# =============================================================================


class TestWeightedEmpirical:
    """Weighted empirical measures (1/n) sum W_i delta_{x_i}."""

    def test_plain_constructor_unit_weights(self):
        """plain() attaches unit weight to every point."""
        mu = WeightedEmpiricalMeasure.plain((1.0, 2.0, 3.0))
        assert mu.weights == (1.0, 1.0, 1.0)

    def test_length_mismatch_rejected(self):
        """Points and weights must align."""
        with pytest.raises(ValidationError):
            WeightedEmpiricalMeasure((1.0,), (1.0, 2.0))

# =============================================================================
# Tests: divergence between model members
# =============================================================================


class TestDivergenceBetween:
    """Population divergences along parametric families."""

    def test_gaussian_kullback_closed_form(self):
        """Index 1 between Gaussian locations is half the squared gap."""
        model = GaussianLocation()
        out = divergence_between(model, CressieRead(1.0), 0.7, 0.2)
        assert out == pytest.approx(0.5 * 0.25, abs=1e-12)

    def test_gaussian_half_chi_square_closed_form(self):
        """Index 2 between Gaussian locations is (exp(gap^2) - 1)/2."""
        model = GaussianLocation()
        out = divergence_between(model, CressieRead(2.0), 0.7, 0.2)
        assert out == pytest.approx(0.5 * (math.exp(0.25) - 1.0), rel=1e-10)

    def test_likelihood_index_swaps_arguments(self):
        """Index 0 equals the index 1 divergence with swapped parameters."""
        model = ExponentialScale()
        out = divergence_between(model, CressieRead(0.0), -1.3, -0.6)
        swapped = divergence_between(model, CressieRead(1.0), -0.6, -1.3)
        assert out == pytest.approx(swapped, rel=1e-10)

    def test_categorical_reduces_to_finite_divergence(self):
        """Finite-support models route through the cell-mass formula."""
        model = Categorical(2)
        out = divergence_between(model, CressieRead(0.5), (0.3,), (0.6,))
        assert out == pytest.approx(cell_divergence(CressieRead(0.5), [0.3, 0.7], [0.6, 0.4]), abs=1e-13)

    def test_conjugate_of_index_0_is_kullback_leibler(self):
        """The Kullback-Leibler generator written as the conjugate of index 0
        takes the power closed form with the arguments swapped, bit for bit."""
        model = GaussianLocation()
        out = divergence_between(model, ConjugateSpec(CressieRead(0.0)), 0.6, 0.3)
        assert out == divergence_between(model, CressieRead(1.0), 0.6, 0.3)

    @settings(max_examples=150, deadline=None)
    @given(token=st.sampled_from(["gauss_loc", "poisson", "exp_scale"]),
           spec=st.sampled_from([induced_divergence(ShiftedBernoulli()), ConjugateSpec(CressieRead(0.0))]),
           theta=st.floats(0.05, 3.0), theta_prime=st.floats(0.05, 3.0))
    def test_conjugate_swaps_the_arguments(self, token, spec, theta, theta_prime):
        """A conjugate's divergence is its base's with theta and theta'
        swapped, +inf included, on every continuous model."""
        model = make_model(token)
        if token == "exp_scale":
            theta, theta_prime = -theta, -theta_prime
        else:
            theta, theta_prime = theta - 1.0, theta_prime - 1.0
        out = divergence_between(model, spec.conjugate(), theta, theta_prime)
        assert out == divergence_between(model, spec, theta_prime, theta)

    def test_bounded_generator_on_unbounded_ratio_is_infinite(self):
        """A bounded-domain generator meets an unbounded Gaussian ratio."""
        spec = induced_divergence(ShiftedBernoulli())
        out = divergence_between(GaussianLocation(), spec, 0.9, 0.1)
        assert out == INF

    def test_zero_at_equal_parameters(self):
        """The divergence vanishes on the diagonal."""
        for g in [0.0, 0.5, 1.0, 2.0]:
            out = divergence_between(GaussianLocation(), CressieRead(g), 0.4, 0.4)
            assert out == pytest.approx(0.0, abs=1e-12)


# =============================================================================
# Tests: the dual integrand
# =============================================================================


class TestDualIntegrand:
    """The dual criterion's term h = lead - phi#(ratio(x)), from the closed-form
    kernel :func:`_expfam_power_dual`."""

    @staticmethod
    def _h(model, spec, theta, alpha, x):
        lead, sharp = _expfam_power_dual(model, spec, theta, alpha, model.sufficient_stat(x))
        return float(lead - sharp)

    def test_worked_half_chi_square_value(self):
        """Frozen value of the index-2 term at the origin."""
        out = self._h(GaussianLocation(), CressieRead(2.0), 1.0, 0.0, 0.0)
        assert out == pytest.approx(2.034342107873324, abs=1e-12)

    def test_vanishes_on_diagonal_at_any_point(self):
        """With alpha = theta the lead and tail terms cancel."""
        for x in [-1.0, 0.3, 2.0]:
            out = self._h(GaussianLocation(), CressieRead(0.5), 0.8, 0.8, x)
            assert out == pytest.approx(0.0, abs=1e-10)

    def test_matches_direct_quadrature(self):
        """The closed-form lead reproduces a directly integrated expectation."""
        model = GaussianLocation()
        spec = CressieRead(2.0)
        theta, alpha = 0.9, 0.4

        def lead_integrand(y):
            # phi'(r) = r - 1 for index 2; expand in log space for the tails
            log_ratio = -0.5 * (y - theta) ** 2 + 0.5 * (y - alpha) ** 2
            log_dens = -0.5 * (y - theta) ** 2 - 0.5 * math.log(2.0 * math.pi)
            first = math.exp(log_ratio + log_dens) if log_ratio + log_dens > -700.0 else 0.0
            return first - math.exp(log_dens)

        expect, _ = integrate.quad(lead_integrand, -np.inf, np.inf)
        lead, _ = _expfam_power_dual(model, spec, theta, alpha)
        assert float(lead) == pytest.approx(expect, rel=1e-8)


# =============================================================================
# Tests: the two-point generator on continuous models, without quadrature
# =============================================================================


def _two_point_bands(theta):
    """``(form, alpha)`` pairs inside the exp_scale bands at ``theta``: the
    two-point lead and divergence for theta < alpha <= theta/2, the
    conjugate's lead for 2 theta <= alpha < theta; each band's inside, alpha
    within 1e-6 of its far end, and the end itself."""
    pairs = []
    for form in ("lead", "divergence"):
        pairs += [(form, theta * f) for f in (0.99, 0.8, 0.6)] + [(form, theta / 2 - 1e-6), (form, theta / 2)]
    pairs += [("conjugate_lead", theta * f) for f in (1.01, 1.3, 1.8)]
    return pairs + [("conjugate_lead", 2 * theta + 1e-6), ("conjugate_lead", 2 * theta)]


class TestTwoPointClosedForms:
    """The two-point transform's lead and divergence and its conjugate's lead
    (the criterion's "expfam" kind) in closed form on exp_scale, and +inf
    wherever the ratio p_theta/p_alpha leaves the generator's domain."""

    SPECS = {"lead": (induced_divergence(ShiftedBernoulli()), 1),
             "divergence": (induced_divergence(ShiftedBernoulli()), 0),
             "conjugate_lead": (induced_divergence(ShiftedBernoulli()).conjugate(), 1)}

    @staticmethod
    def _reference(form, theta, alpha):
        """The integral over x at 50 digits: the lead under P_theta, the
        divergence under P_alpha, with r = (theta/alpha) e^((theta - alpha) x)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            th, al = mpmath.mpf(theta), mpmath.mpf(alpha)
            law = al if form == "divergence" else th
            form_of_r = {
                "lead": lambda r: (mpmath.log(r) - mpmath.log(2 - r)) / 2,
                "divergence": lambda r: (r * mpmath.log(r) + (2 - r) * mpmath.log(2 - r)) / 2,
                "conjugate_lead": lambda r: mpmath.log(2 - 1 / r),
            }[form]
            return mpmath.quad(lambda x: -law * mpmath.exp(law * x) * form_of_r(th / al * mpmath.exp((th - al) * x)),
                               [0, 1, 10, mpmath.inf])

    @pytest.mark.parametrize("theta, form, alpha", [
        (theta, *pair) for theta in (-2.0, -0.5217391304347826) for pair in _two_point_bands(theta)])
    def test_matches_50_digit_integral(self, theta, form, alpha):
        """Within 1e-13 relative plus 4e-16 absolute across each band: the
        series of F below z = 3/4, its expansion about z = 1 above."""
        spec, order = self.SPECS[form]
        got = estimation._ratio_integral(ExponentialScale(), spec, theta, alpha, order)
        ref = self._reference(form, theta, alpha)
        assert abs(got - ref) <= 1e-13 * abs(ref) + 4e-16, (got, float(ref))

    @pytest.mark.parametrize("theta", [-2.0, -0.5217391304347826])
    def test_infinite_just_outside_each_band(self, theta):
        """One float past either end of a band the range of the ratio leaves
        the domain ([0, 2] for the two-point transform, [1/2, inf) for its
        conjugate), and at alpha = theta every form is 0."""
        model, outside = ExponentialScale(), {
            "lead": (math.nextafter(theta, -INF), math.nextafter(theta / 2, 0.0)),
            "divergence": (math.nextafter(theta, -INF), math.nextafter(theta / 2, 0.0)),
            "conjugate_lead": (math.nextafter(2 * theta, -INF), math.nextafter(theta, 0.0)),
        }
        for form, (spec, order) in self.SPECS.items():
            assert [estimation._ratio_integral(model, spec, theta, a, order) for a in outside[form]] == [INF, INF]
            assert estimation._ratio_integral(model, spec, theta, theta, order) == 0.0

    def test_gauss_loc_is_finite_only_at_alpha_theta(self):
        """On gauss_loc the ratio covers (0, inf) for every alpha != theta."""
        model = GaussianLocation()
        for spec, order in self.SPECS.values():
            for alpha in (-3.0, 0.3, math.nextafter(0.4, 0.0), math.nextafter(0.4, 1.0), 2.0):
                assert estimation._ratio_integral(model, spec, 0.4, alpha, order) == INF
            assert estimation._ratio_integral(model, spec, 0.4, 0.4, order) == 0.0

    def test_other_generators_have_no_continuous_lead(self):
        """A conjugate power generator built by hand has no lead on gauss_loc
        and exp_scale: its ratio stays in the domain, and only the two-point
        forms are closed there (``CressieRead(1 - g)`` is the same generator)."""
        spec = ConjugateSpec(CressieRead(0.0))
        for model, theta, alpha in ((GaussianLocation(), 0.4, 0.1), (ExponentialScale(), -1.0, -1.2)):
            with pytest.raises(ValidationError, match="no closed form"):
                estimation._ratio_integral(model, spec, theta, alpha, 1)

    @pytest.mark.parametrize("token, data, conjugate, converged", [
        ("gauss_loc", "regression_points.csv", False, False), ("gauss_loc", "regression_points.csv", True, False),
        ("exp_scale", "categorical_k5.csv", True, True),
    ])
    def test_estimates_on_the_data_files(self, token, data, conjugate, converged):
        """On gauss_loc no searched alpha but theta itself has a finite lead,
        so every evaluation is rejected and the root is not certified; on
        exp_scale the conjugate's band [2 theta, theta) holds a scan point and
        the root is certified."""
        points, _ = read_data_csv(DATA_DIR / data)
        spec = induced_divergence(ShiftedBernoulli())
        report = minimum_dual_estimator(make_model(token), spec.conjugate() if conjugate else spec,
                                        WeightedEmpiricalMeasure.plain(tuple(points)))
        assert report.converged is converged
        if not converged:
            assert report.value == -INF and report.rejected_evaluations == 41


# =============================================================================
# Tests: the dual estimator
# =============================================================================


class TestDualCriterion:
    """Inner maximization of the dual criterion."""

    def test_inner_maximizer_near_truth_for_unit_weights(self, gauss_sample):
        """The inner argmax sits near the outer parameter's best response."""
        model, x = gauss_sample
        mu = WeightedEmpiricalMeasure.plain(tuple(x))
        value, alpha = estimate_phi_dual(model, CressieRead(1.0), 0.4, mu)
        assert math.isfinite(value)
        assert alpha == pytest.approx(float(np.mean(x)), abs=0.05)

    @staticmethod
    def _sup_on_box(model, spec, theta, mu, centre):
        crit = _DualCriterion(model, spec, mu)
        lo, hi = model.default_box(centre)
        return maximize_scalar(lambda a: crit(theta, a), lo, hi)

    def test_fixed_theta_box_is_centred_on_the_weighted_root(self):
        """With weights summing well away from 0, the alpha box is centred on the weighted root."""
        model = GaussianLocation()
        x = np.array([0.0, 1.0, 2.0, 10.0])
        w = np.array([0.1, 0.1, 0.1, 3.7])
        mu = WeightedEmpiricalMeasure(tuple(x), tuple(w))
        spec = CressieRead(0.5)
        value, alpha = estimate_phi_dual(model, spec, 9.0, mu)
        centre = float(np.sum(w * x) / np.sum(w))
        assert (alpha, value) == self._sup_on_box(model, spec, 9.0, mu, centre)
        assert abs(alpha - float(np.mean(x))) > 3.0

    @pytest.mark.parametrize("weights", [
        (1.0, -1.0, 2.0, -2.0),  # sum 0: no root
        (-1.0, -1.0, -1.0, 1.0),  # sum -2: no root
        (1.0, -1.0, 2.0, -1.9),  # sum 0.1 < 0.1 n: a root far outside the points
    ])
    def test_fixed_theta_box_without_a_usable_root_is_centred_on_the_moment_estimate(self, weights):
        """A cancelled or non-positive weight sum gives the unweighted moment box, never an error."""
        model = GaussianLocation()
        x = (0.0, 1.0, 2.0, 3.0)
        mu = WeightedEmpiricalMeasure(x, weights)
        for spec in (CressieRead(1.0), CressieRead(0.5), induced_divergence(NormalOneOne()).conjugate()):
            value, alpha = estimate_phi_dual(model, spec, 1.0, mu)
            assert (alpha, value) == self._sup_on_box(model, spec, 1.0, mu, model.pilot_estimate(x))
            assert -1.5 <= alpha <= 4.5

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5])
    def test_fixed_theta_categorical_estimate_with_an_empty_cell(self, gamma):
        """A cell without weighted mass leaves no root, and the fixed-theta
        supremum is its limit at the simplex edge alpha_j -> 0: +inf at index
        1, and below it the empty cell adds wbar p_j phi'(inf) = wbar p_j / (1 -
        gamma) to the charged cells' closed form, a value the criterion
        approaches from below.  That is cell_divergence's null-cell term, so
        the supremum is wbar cell_divergence(spec, p, alpha), 0 on that cell."""
        model = Categorical(3)
        mu = WeightedEmpiricalMeasure((0.0, 0.0, 1.0, 1.0), (1.0, 2.0, 1.0, 0.5))
        with pytest.raises(NumericError):
            minimum_dual_estimator(model, CressieRead(1.0), mu)
        assert estimate_phi_dual(model, CressieRead(1.0), (0.3, 0.3), mu)[0] == INF
        spec = CressieRead(gamma)
        value, alpha = estimate_phi_dual(model, spec, (0.3, 0.3), mu)
        wbar = 3.0 / 4.0 + 1.5 / 4.0
        assert alpha.tolist() == [2.0 / 3.0, 1.0 / 3.0]
        assert value == pytest.approx(wbar * (cell_divergence(spec, (0.3, 0.3), alpha) + 0.4 / (1.0 - gamma)), rel=1e-15)
        assert value == wbar * cell_divergence(spec, model.probs((0.3, 0.3)), (*alpha, 0.0))
        crit = _DualCriterion(model, spec, mu)
        # the gap closes like alpha_j**(1 - gamma), between one and two times
        # t**(1 - gamma) at every t: below 0.02 at index 0 and t = 1e-2
        ts = (1e-2, 1e-4, 1e-6)
        near = [value - crit((0.3, 0.3), alpha * (1.0 - t)) for t in ts]
        assert 0.0 < near[2] < near[1] < near[0]
        assert all(t ** (1.0 - gamma) < gap < 2.0 * t ** (1.0 - gamma) for t, gap in zip(ts, near))

    @pytest.mark.parametrize("weights, spec, expect", [
        ((1.0, 1.0, -0.5), CressieRead(0.0), INF),
        ((1.0, 1.0, -0.5), CressieRead(-0.5), NumericError),
        ((1.0, -1.0, -0.5), CressieRead(1.0), NumericError),
    ], ids=["negative_cell_infinite_limit", "negative_cell_finite_limit", "mass_not_positive"])
    def test_fixed_theta_categorical_estimate_with_signed_masses(self, weights, spec, expect):
        """A negative cell mass sends the supremum to +inf when phi#(inf) or
        phi'(inf) is infinite; a finite limit or a total mass <= 0 has no
        closed form and raises NumericError."""
        mu = WeightedEmpiricalMeasure((0.0, 1.0, 2.0), weights)
        if expect is NumericError:
            with pytest.raises(NumericError, match="no closed-form dual supremum"):
                estimate_phi_dual(Categorical(3), spec, (0.3, 0.3), mu)
        else:
            assert estimate_phi_dual(Categorical(3), spec, (0.3, 0.3), mu)[0] == expect

    def test_parameters_off_the_simplex_are_rejected(self):
        """A categorical parameter off the simplex interior is a counted -inf, not an error."""
        mu = WeightedEmpiricalMeasure.plain((0.0, 1.0, 2.0, 0.0))
        crit = _DualCriterion(Categorical(3), CressieRead(1.0), mu)
        assert crit((0.5, 0.5), (0.3, 0.3)) == -INF
        assert crit((0.3, 0.3), (0.6, 0.5)) == -INF
        assert crit.rejected == 2
        assert math.isfinite(crit((0.3, 0.3), (0.4, 0.2)))
        assert crit.rejected == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_zero_weight_on_an_infinite_term_is_a_silent_rejection(self, gamma):
        """exp_scale tilted past its domain's end makes the sharp term of the
        point 1e300 infinite; its zero weight gives NaN, one rejection and no
        warning."""
        mu = WeightedEmpiricalMeasure((0.5, 1e300), (2.0, 0.0))
        crit = _DualCriterion(ExponentialScale(), CressieRead(gamma), mu)
        assert crit(-1.0, -2.0) == -INF
        assert crit.rejected == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize(
        "spec", [CressieRead(0.0), CressieRead(0.5), CressieRead(1.0), CressieRead(2.0),
                 induced_divergence(ShiftedBernoulli())], ids=repr,
    )
    def test_categorical_rows_round_as_the_written_out_criterion(self, k, spec):
        """The criterion is ``wbar * sum(phi'(r) p_theta) - dot(masses, phi#(r))``
        with numpy's own sum and BLAS dot, bit for bit, or -inf where that is
        not finite or alpha leaves the simplex; no warning either way."""
        rng = np.random.default_rng(k)
        model = Categorical(k)
        theta = rng.dirichlet(np.ones(k))[:-1]
        masses = rng.dirichlet(np.ones(k), size=200) * rng.choice([0.5, 1.0, 2.0], size=(200, 1))
        masses[::7, 0] = 0.0
        wbar = masses.sum(axis=1) * rng.uniform(0.5, 1.5, 200)
        p_t = model.probs(theta)
        # near theta, so most twopoint ratios stay in [0, 2]; every third row
        # scaled up, often off the simplex
        alpha = (0.6 * p_t + 0.4 * rng.dirichlet(np.ones(k), size=200))[:, :-1]
        alpha[::3] *= 1.5
        got = np.array([_categorical_dual(model, spec, theta, alpha[r], masses[r], wbar[r]) for r in range(200)])
        for r in range(200):
            want = -INF
            if model.in_domain(alpha[r]):
                ratios = p_t / model.probs(alpha[r])
                prime = spec.value_array(ratios, 1)
                if np.all(np.isfinite(prime)):
                    value = wbar[r] * float(np.sum(prime * p_t)) - float(np.dot(masses[r], spec.sharp_array(ratios)))
                    want = value if math.isfinite(value) else -INF
            assert got[r] == want and math.copysign(1.0, got[r]) == math.copysign(1.0, want)
        assert np.isfinite(got).sum() >= 50
        # first cells summing to 1 or more leave the last cell no mass
        assert _categorical_dual(model, spec, theta, np.ones(k - 1), masses[1], wbar[1]) == -INF


#: float64 machine epsilon
EPS = float(np.finfo(float).eps)


def _out_of_place_batch_value(crit, theta, alpha, rows):
    """The batched criterion of the rows ``rows`` written as the scalar
    criterion computes it, with fresh temporaries: each term's sharp
    transform, weighted, then a mean; a row that is not finite goes through
    the one overflow rule, ``_extended``."""
    model, spec = crit.model, crit.spec
    th, al = theta[:, None], alpha[:, None]
    lead, sharp = _expfam_power_dual(model, spec, th, al, crit.t[rows])
    with np.errstate(over="ignore", invalid="ignore"):
        out = (crit.wbar[rows, None] * lead - np.mean(crit.w[rows] * sharp, axis=1, keepdims=True))[:, 0]
    bad = ~np.isfinite(out)
    lead = np.broadcast_to(lead, th.shape)[bad, 0]
    out[bad] = estimation._extended(model, spec, theta[bad], alpha[bad], crit.t[rows][bad], crit.w[rows][bad],
                                    out[bad], lead)
    return out


def _batch_value(crit, theta, alpha, rows=None):
    """``crit.value`` under the error state the batched search sets, on every
    row unless ``rows`` is given."""
    rows = np.arange(len(theta)) if rows is None else np.asarray(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        return crit.value(theta, alpha, rows)


def _rounding_bound(crit, theta, alpha):
    """Per row, how far two evaluations of the criterion that differ only in
    the order and grouping of their roundings may lie apart.

    Each evaluation forms n terms ``w_i phi#(r_i)`` with a few roundings each
    and sums them, so to first order its error is at most ``(n + 8) u S``
    with ``u = eps / 2`` and ``S`` the mean magnitude of the terms plus
    ``|wbar lead|``.  A term's magnitude counts the error of its log ratio,
    of size ``|delta t_i| + |C(theta)| + |C(alpha)|``, grown by
    ``exp(g log r_i)`` through the exponential.  Two evaluations differ by at
    most twice one error: ``(n + 8) eps S``.
    """
    model, spec = crit.model, crit.spec
    th, al = theta[:, None], alpha[:, None]
    _, sharp = _expfam_power_dual(model, spec, th, al, crit.t)
    with np.errstate(over="ignore", invalid="ignore"):
        lead, C_t, C_a = _power_lead(model, spec, th, al)
        size = np.abs((th - al) * crit.t) + np.abs(C_t) + np.abs(C_a)
        growth = 1.0 if spec.branch == "log" else np.abs(1.0 + spec.gamma * sharp)
        terms = np.abs(crit.w) * (growth * size + np.abs(sharp))
        scale = np.abs(crit.wbar[:, None] * lead)[:, 0] + np.mean(terms, axis=1)
    return (crit.t.shape[1] + 8) * EPS * scale


def _assert_agree(got, ref, bound):
    """The same rows are the same infinity, and finite rows differ by at most ``bound``."""
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    assert np.array_equal(got[~np.isfinite(got)], ref[~np.isfinite(ref)])
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite]) <= bound[finite])


#: per model: the parameter the points are drawn at, and the draws of theta and
#: alpha (exp_scale's reach past the end of its domain at 0)
PARAMS = {
    "gauss_loc": (GaussianLocation(), 0.3, st.floats(-4.0, 4.0)),
    "poisson": (PoissonNatural(), 0.5, st.floats(-2.0, 2.0)),
    "exp_scale": (ExponentialScale(), -1.0, st.floats(-3.0, 0.5)),
}

#: weight rows: nonnegative with zeros, signed, all zero, and one shared unit row
WEIGHTS = {
    "poisson1": lambda rows, n, rng: PoissonOne().sample(rows * n, rng).reshape(rows, n),
    "normal11": lambda rows, n, rng: NormalOneOne().sample(rows * n, rng).reshape(rows, n),
    "zero": lambda rows, n, rng: np.zeros((rows, n)),
    "unit": lambda rows, n, rng: np.broadcast_to(np.ones(n), (rows, n)),
}


_CLOSED_FORM_SPECS = {
    "gamma_1": CressieRead(1.0), "gamma_0": CressieRead(0.0), "gamma_half": CressieRead(0.5),
    "gamma_2": CressieRead(2.0), "poisson1": induced_divergence(PoissonOne()),
    "twopoint": induced_divergence(ShiftedBernoulli()),
}


class TestCategoricalSupremum:
    """The categorical dual supremum in closed form, against the criterion."""

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(2, 12), name=st.sampled_from(sorted(_CLOSED_FORM_SPECS)),
           weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_no_alpha_beats_the_closed_form(self, k, name, weighted, seed):
        """At a random theta no random simplex alpha lifts the criterion above
        ``wbar cell_divergence(spec, p_theta, m / wbar)``; where that is
        finite, the criterion at the reported alpha = m / wbar is that value
        (twopoint's is +inf where a ratio leaves its domain [0, 2])."""
        spec, model = _CLOSED_FORM_SPECS[name], Categorical(k)
        rng = np.random.default_rng(seed)
        points = np.concatenate([np.arange(k), rng.integers(0, k, size=2 * k)])
        weights = rng.exponential(1.0, size=points.shape[0]) if weighted else np.ones(points.shape[0])
        mu = WeightedEmpiricalMeasure(tuple(points), tuple(weights))
        theta = rng.dirichlet(np.ones(k))[:-1]
        value, alpha = estimate_phi_dual(model, spec, theta, mu)
        crit = _DualCriterion(model, spec, mu)
        tol = 1e-12 * max(1.0, abs(value))
        for a in rng.dirichlet(np.ones(k), size=20)[:, :-1]:
            assert crit(theta, a) <= value + tol
        if math.isfinite(value):
            assert abs(crit(theta, alpha) - value) <= tol


class TestOneKernel:
    """The batched criterion agrees with the scalar one, its bit-exact reference."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, -0.5])
    @pytest.mark.parametrize(
        "model, theta, pairs",
        [
            (GaussianLocation(), 0.3, [(0.3, 0.3), (0.3, -0.4), (0.3, 1.1)]),
            (PoissonNatural(), 0.1, [(0.1, 0.1), (0.1, -0.5), (0.1, 0.6)]),
            # (-0.5, -2.0) tilts to 2*theta - alpha = 1 > 0 at index 2, where
            # the lead integral diverges: a rejected point
            (ExponentialScale(), -1.0, [(-1.0, -1.0), (-1.0, -0.6), (-0.5, -2.0)]),
        ],
    )
    def test_scalar_agrees_with_one_batch_row(self, model, theta, pairs, gamma):
        """The one-row batch is the scalar criterion up to rounding, the same infinity where it is one."""
        rng = np.random.default_rng(31)
        points = model.sample(theta, 40, rng)
        weights = PoissonOne().sample(40, rng)
        spec = CressieRead(gamma)
        scalar = _DualCriterion(model, spec, WeightedEmpiricalMeasure(tuple(points), tuple(weights)))
        batch = _BatchCriterion(model, spec, points[None, :], weights[None, :])
        for th, a in pairs:
            th, a = np.array([th]), np.array([a])
            row = _batch_value(batch, th, a)
            assert row.shape == (1,)
            _assert_agree(row, np.array([scalar(th[0], a[0])]), _rounding_bound(batch, th, a))
        if isinstance(model, ExponentialScale) and gamma == 2.0:
            assert scalar(-0.5, -2.0) == -INF

    @given(
        name=st.sampled_from(sorted(PARAMS)),
        law=st.sampled_from(sorted(WEIGHTS)),
        gamma=st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-1.0, 2.0),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_agree_with_scalar_and_reference(self, name, law, gamma, shared, seed, data):
        """Every row agrees with the scalar criterion and the out-of-place
        expression, on shared or per-row points, in and out of the domain."""
        model, theta0, param = PARAMS[name]
        rows, n = 4, 30
        rng = np.random.default_rng(seed)
        if shared:
            points = np.broadcast_to(model.sample(theta0, n, rng), (rows, n))
        else:
            points = model.sample(theta0, rows * n, rng).reshape(rows, n)
        weights = WEIGHTS[law](rows, n, rng)
        theta = np.array(data.draw(st.lists(param, min_size=rows, max_size=rows)))
        alpha = np.array(data.draw(st.lists(param, min_size=rows, max_size=rows)))
        spec = CressieRead(gamma)
        crit = _BatchCriterion(model, spec, points, weights)
        got = _batch_value(crit, theta, alpha)
        bound = _rounding_bound(crit, theta, alpha)
        _assert_agree(got, _out_of_place_batch_value(crit, theta, alpha, np.arange(rows)), bound)
        for r in range(rows):
            mu = WeightedEmpiricalMeasure(tuple(points[r]), tuple(weights[r]))
            scalar = _DualCriterion(model, spec, mu)(float(theta[r]), float(alpha[r]))
            _assert_agree(got[r:r + 1], np.array([scalar]), bound[r:r + 1])

    def test_zero_lead_is_positive_zero(self):
        """At alpha = theta the limit branches give +0.0 (a JSON ``0``, not ``-0``)."""
        points = np.array([-0.3, 0.4, 1.2])
        mu = WeightedEmpiricalMeasure.plain(tuple(points))
        for gamma in [0.0, 1.0]:
            value = _DualCriterion(GaussianLocation(), CressieRead(gamma), mu)(0.2, 0.2)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestBatchWorkArray:
    """The batched criterion writes into one work array and returns fresh rows."""

    # the last two rows overflow, or tilt out of the domain, for some indices;
    # at index 2 gauss_loc's lead overflows towards +inf on both, poisson's
    # lead on the first and its tail, larger, on the second, and exp_scale's
    # lead diverges on both, its tilt 2 theta - alpha leaving the domain, a
    # rejection
    CASES = [
        (GaussianLocation(), 0.3, [0.3, 0.3, -0.2, 0.9, 30.0, -40.0], [0.3, -0.4, 1.1, 0.2, -30.0, 40.0], [INF, INF]),
        (PoissonNatural(), 0.1, [0.1, 0.1, 0.6, -0.3, 8.0, 0.1], [0.1, -0.5, -0.2, 0.4, -30.0, 40.0], [INF, -INF]),
        (ExponentialScale(), -1.0, [-1.0, -1.0, -0.8, -1.4, -0.5, -0.05], [-1.0, -0.6, -1.2, -0.9, -2.0, -40.0],
         [-INF, -INF]),
    ]

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, -0.5])
    @pytest.mark.parametrize("model, theta0, theta, alpha, at_two", CASES)
    def test_agrees_with_out_of_place_expression(self, model, theta0, theta, alpha, at_two, gamma):
        """The out-of-place expression up to rounding, non-finite rows included."""
        rng = np.random.default_rng(12)
        rows, n = len(theta), 50
        points = np.broadcast_to(model.sample(theta0, n, rng), (rows, n))
        weights = np.vstack([PoissonOne().sample(n, rng) for _ in range(rows)])
        crit = _BatchCriterion(model, CressieRead(gamma), points, weights)
        theta, alpha = np.array(theta), np.array(alpha)
        got = _batch_value(crit, theta, alpha)
        ref = _out_of_place_batch_value(crit, theta, alpha, np.arange(rows))
        _assert_agree(got, ref, _rounding_bound(crit, theta, alpha))
        assert np.all(np.isfinite(got[:4]))
        if gamma == 2.0:
            assert got[4:].tolist() == at_two

    @pytest.mark.parametrize("gamma", [2.0, -0.5])
    @pytest.mark.parametrize("model, theta0, theta, alpha, at_two", CASES)
    def test_an_overflow_takes_the_sign_of_the_exact_value(self, model, theta0, theta, alpha, at_two, gamma):
        """A row that overflows inside the domain is the infinity of its
        50-digit value, which lies beyond the largest float; a row whose tilt
        leaves the domain has a divergent lead and is rejected, -inf."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        rows, n = len(theta), 50
        points = model.sample(theta0, n, rng)
        weights = np.vstack([PoissonOne().sample(n, rng) for _ in range(rows)])
        crit = _BatchCriterion(model, CressieRead(gamma), np.broadcast_to(points, (rows, n)), weights)
        got = _batch_value(crit, np.array(theta), np.array(alpha))
        C = model.cumulant[0]
        with mpmath.workdps(50):
            for r in (~np.isfinite(got)).nonzero()[0]:
                th, al, g = mpmath.mpf(theta[r]), mpmath.mpf(alpha[r]), mpmath.mpf(gamma)
                tilt = th + (g - 1) * (th - al)
                if not model.in_domain(float(tilt)):
                    assert got[r] == -INF
                    continue
                expo = (g - 1) * (C(al, mpmath) - C(th, mpmath)) + C(tilt, mpmath) - C(th, mpmath)
                lead = mpmath.fsum(weights[r]) / n * mpmath.expm1(expo) / (g - 1)
                log_ratios = [(th - al) * x - C(th, mpmath) + C(al, mpmath) for x in points]
                tail = mpmath.fsum(w * mpmath.expm1(g * lr) for lr, w in zip(log_ratios, weights[r])) / (n * g)
                exact = lead - tail
                assert abs(exact) > np.finfo(float).max
                assert got[r] == (INF if exact > 0 else -INF)

    def test_successive_calls_return_independent_arrays(self):
        """A result is no view of the work array: a later call leaves it intact."""
        model = GaussianLocation()
        rng = np.random.default_rng(5)
        points = np.broadcast_to(model.sample(0.0, 40, rng), (3, 40))
        weights = np.vstack([PoissonOne().sample(40, rng) for _ in range(3)])
        crit = _BatchCriterion(model, CressieRead(0.5), points, weights)
        first = _batch_value(crit, np.array([0.0, 0.1, 0.2]), np.array([0.1, 0.0, -0.1]))
        kept = first.copy()
        second = _batch_value(crit, np.array([0.5, -0.5, 0.3]), np.array([0.4, -0.2, 0.3]))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, crit._work)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_theta_terms_follow_each_new_theta(self, gamma):
        """A call keeps nothing of an earlier theta: a call with another
        array, equal or not, gets the bits of a fresh criterion."""
        model = PoissonNatural()
        rng = np.random.default_rng(8)
        points = np.broadcast_to(model.sample(0.1, 40, rng), (3, 40))
        weights = np.vstack([PoissonOne().sample(40, rng) for _ in range(3)])
        crit = _BatchCriterion(model, CressieRead(gamma), points, weights)
        alpha = np.array([0.0, 0.2, -0.1])
        thetas = [np.array([0.1, 0.3, -0.2]), np.array([0.4, -0.1, 0.0])]
        for theta in [thetas[0], thetas[0], thetas[1], thetas[0].copy(), thetas[0]]:
            fresh = _batch_value(_BatchCriterion(model, CressieRead(gamma), points, weights), theta, alpha)
            assert _batch_value(crit, theta, alpha).tobytes() == fresh.tobytes()

    def test_streamed_rows_start_on_a_cache_line(self):
        """A shared row is stored once, and every array a call streams or
        gathers into starts on a 64-byte line, wherever malloc put the
        caller's arrays."""
        model = GaussianLocation()
        rng = np.random.default_rng(6)
        raw = np.empty(40 + 1)
        raw[1:] = model.sample(0.0, 40, rng)
        points = np.broadcast_to(raw[1:], (3, 40))  # 8 bytes off the allocation's start
        weights = np.vstack([PoissonOne().sample(40, rng) for _ in range(3)])
        crit = _BatchCriterion(model, CressieRead(0.5), points, weights)
        assert crit.t.strides[0] == 0
        for arr in (crit.t, crit.w, crit._gather, crit._work):
            assert arr.ctypes.data % 64 == 0


class TestRowGrouping:
    """A row's criterion and estimate do not depend on the rows that share its call."""

    @given(
        name=st.sampled_from(sorted(PARAMS)),
        gamma=st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5]),
        shared=st.sampled_from(["points", "weights"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_value_bits_alone_in_a_subset_and_in_the_batch(self, name, gamma, shared, seed, data):
        """Each row gets the same bits alone, in a random subset in any order
        (one row included) and in the full batch, with shared points or shared
        weights, in and out of the domain."""
        model, theta0, param = PARAMS[name]
        rows, n = 7, data.draw(st.integers(1, 60), label="n")
        rng = np.random.default_rng(seed)
        weights = PoissonOne().sample(rows * n, rng).reshape(rows, n)
        if shared == "points":
            points = np.broadcast_to(model.sample(theta0, n, rng), (rows, n))
        else:
            points = model.sample(theta0, rows * n, rng).reshape(rows, n)
            weights = np.broadcast_to(weights[0], (rows, n))
        theta = np.array(data.draw(st.lists(param, min_size=rows, max_size=rows), label="theta"))
        alpha = np.array(data.draw(st.lists(param, min_size=rows, max_size=rows), label="alpha"))
        crit = _BatchCriterion(model, CressieRead(gamma), points, weights)
        full = _batch_value(crit, theta, alpha)
        order = data.draw(st.permutations(range(rows)), label="order")
        sub = np.array(order[:data.draw(st.integers(1, rows), label="size")])
        assert _batch_value(crit, theta[sub], alpha[sub], sub).tobytes() == full[sub].tobytes()
        for r in range(rows):
            alone = _batch_value(crit, theta[r:r + 1], alpha[r:r + 1], [r])
            assert alone.tobytes() == full[r:r + 1].tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("shared", ["points", "weights"])
    def test_estimate_alone_equals_the_batched_one(self, gamma, shared):
        """Each row's estimate alone is its estimate in the batch, bit for bit."""
        model = GaussianLocation()
        rng = np.random.default_rng(17)
        rows, n = 3, 40
        if shared == "points":
            points = model.sample(0.2, n, rng)[None, :]
            weights = PoissonOne().sample(rows * n, rng).reshape(rows, n)
        else:
            points = model.sample(0.2, rows * n, rng).reshape(rows, n)
            weights = np.ones((1, n))
        box = model.default_box(model.pilot_estimate(points[0]))
        spec = CressieRead(gamma)
        batch = minimum_dual_estimator_batch(model, spec, points, weights, box)
        for r in range(rows):
            one = minimum_dual_estimator_batch(
                model, spec, points[min(r, len(points) - 1)], weights[min(r, len(weights) - 1)], box
            )
            assert np.array_equal(one, batch[r:r + 1])


class TestMinimumDualEstimator:
    """The weighted score root, certified by one inner search."""

    def test_zero_value_is_reported_as_positive_zero(self):
        """An estimate whose criterion value is -0.0 reports +0.0 (JSON ``0``, not ``-0``)."""
        model, spec = GaussianLocation(), CressieRead(-0.5)
        points = model.sample(0.3, 60, np.random.default_rng(5))
        mu = WeightedEmpiricalMeasure.plain(tuple(points))
        # the inner search lands on alpha = theta, where the power lead is -0.0
        crit = _DualCriterion(model, spec, mu)
        theta = crit.root()
        _, raw = maximize_scalar(lambda a: crit(theta, a), *model.default_box(theta))
        assert raw == 0.0 and math.copysign(1.0, raw) == -1.0
        report = minimum_dual_estimator(model, spec, mu)
        assert report.value == 0.0
        assert math.copysign(1.0, report.value) == 1.0

    def test_score_identity_with_weights(self, gauss_sample):
        """The weighted estimate solves the self-normalized score equation."""
        model, x = gauss_sample
        mu = WeightedEmpiricalMeasure(tuple(x), PoissonOne().sample(len(x), np.random.default_rng(31)))
        w = np.asarray(mu.weights)
        target = float(np.sum(w * x) / np.sum(w))
        spec = induced_divergence(PoissonOne()).conjugate()
        report = minimum_dual_estimator(model, spec, mu)
        assert report.converged
        assert report.theta_hat == pytest.approx(model.solve_score(target), abs=1e-6)

    def test_index_invariance_under_unit_weights(self, gauss_sample):
        """Unit-weight estimates agree across generator indices."""
        model, x = gauss_sample
        mu = WeightedEmpiricalMeasure.plain(tuple(x))
        estimates = [
            minimum_dual_estimator(model, CressieRead(g), mu).theta_hat
            for g in (0.0, 0.5, 2.0)
        ]
        for est in estimates[1:]:
            assert est == pytest.approx(estimates[0], abs=1e-5)

    def test_poisson_weighted_estimate(self, rng):
        """Count-model weighted estimates solve the weighted score equation."""
        model = PoissonNatural()
        x = model.sample(0.3, 70, rng)
        mu = WeightedEmpiricalMeasure(tuple(x), NormalOneOne().sample(len(x), np.random.default_rng(8)))
        w = np.asarray(mu.weights)
        target = float(np.sum(w * x) / np.sum(w))
        spec = induced_divergence(NormalOneOne()).conjugate()
        report = minimum_dual_estimator(model, spec, mu)
        assert report.theta_hat == pytest.approx(model.solve_score(target), abs=1e-6)

    def test_sample_on_one_atom_has_no_root(self):
        """Every point on atom 1 leaves atom 0 without mass: the root lies on
        the simplex's edge, outside the model, and the estimate raises."""
        mu = WeightedEmpiricalMeasure.plain((1,) * 30)
        with pytest.raises(NumericError, match="not all positive"):
            minimum_dual_estimator(Categorical(2), CressieRead(1.0), mu)

    @pytest.mark.parametrize("model, points, weights, match", [
        (GaussianLocation(), (0.1, 0.2), (1.0, -1.0), "weight sum 0.0"),
        (GaussianLocation(), (0.1, 0.2), (-1.0, -0.5), "weight sum -1.5"),
        (PoissonNatural(), (0.0, 0.0, 0.0), (1.0, 2.0, 0.5), "outside the range"),
        (PoissonNatural(), (0.0, 3.0), (2.0, -0.5), "outside the range"),
        (ExponentialScale(), (0.5, 2.0), (3.0, -1.0), "outside the range"),
        (Categorical(3), (0.0, 1.0, 2.0), (1.0, 1.0, 0.0), "not all positive"),
        (Categorical(3), (0.0, 1.0, 2.0), (1.0, 1.0, -0.5), "not all positive"),
    ], ids=["gauss_zero_sum", "gauss_negative_sum", "poisson_zero_mean", "poisson_negative_mean",
            "exp_negative_mean", "categorical_zero_cell", "categorical_negative_cell"])
    def test_no_root_in_the_model_raises_numeric_error(self, model, points, weights, match):
        """A weight sum <= 0, a weighted mean outside the range of C' or a
        cell without positive mass leaves no root: NumericError (exit 3)."""
        mu = WeightedEmpiricalMeasure(points, weights)
        with pytest.raises(NumericError, match=match):
            minimum_dual_estimator(model, CressieRead(1.0), mu)

    @pytest.mark.parametrize("k", [2, 3])
    def test_twopoint_conjugate_categorical_returns_the_masses(self, k):
        """The twopoint-induced conjugate on cells of masses 1/3 (k = 2) or
        (1/3, 1/3, 1/3) returns those masses, certified, not the box edge
        0.999999 with an infinite gradient norm."""
        points = (0, 1, 1) * 20 if k == 2 else (0, 1, 2) * 20
        spec = induced_divergence(ShiftedBernoulli()).conjugate()
        report = minimum_dual_estimator(Categorical(k), spec, WeightedEmpiricalMeasure.plain(points))
        assert report.theta_hat == (1.0 / 3.0 if k == 2 else (1.0 / 3.0, 1.0 / 3.0))
        assert report.converged and abs(report.value) <= estimation._SUP_TOL
        assert report.inner_grad_norm <= estimation._GRAD_TOL

    @pytest.mark.parametrize("spec", [
        CressieRead(1.0), CressieRead(0.0), CressieRead(0.5), CressieRead(2.0),
        induced_divergence(ShiftedBernoulli()), induced_divergence(ShiftedBernoulli()).conjugate(),
    ], ids=["gamma_1", "gamma_0", "gamma_half", "gamma_2", "twopoint", "twopoint_conjugate"])
    def test_k3_file_certificate_rejects_no_evaluation(self, spec):
        """The 40-point 3-cell file certifies from one criterion call at
        alpha = theta, which no generator rejects."""
        points, _ = read_data_csv(DATA_DIR / "categorical_k3.csv")
        report = minimum_dual_estimator(Categorical(3), spec, WeightedEmpiricalMeasure.plain(tuple(points)))
        assert report.converged and report.rejected_evaluations == 0
        assert report.alpha_hat == report.theta_hat and report.value == 0.0

    @pytest.mark.parametrize("k", range(2, 51))
    def test_every_categorical_estimate_certifies(self, k):
        """20 k seeded points charging every cell certify at every k, in
        well under 0.1 s of CPU: the supremum at the root is h(theta, theta)
        = 0 and the inner gradient is in closed form."""
        points = np.random.default_rng(k).integers(0, k, size=20 * k)
        assert np.bincount(points, minlength=k).all()
        mu = WeightedEmpiricalMeasure.plain(tuple(points))
        start = time.process_time()
        report = minimum_dual_estimator(Categorical(k), CressieRead(1.0), mu)
        assert time.process_time() - start <= 0.1
        assert report.converged and report.value == 0.0 and report.rejected_evaluations == 0
        assert report.inner_grad_norm <= estimation._GRAD_TOL

    def test_root_with_a_cell_below_one_in_a_million_certifies(self):
        """A weighted root with a cell mass of 1.5e-7 certifies: no search box
        keeps alpha from reaching it."""
        mu = WeightedEmpiricalMeasure((0, 1, 1), (3e-7, 1.0, 1.0))
        report = minimum_dual_estimator(Categorical(2), CressieRead(1.0), mu)
        assert report.theta_hat == pytest.approx(1.5e-7, rel=1e-6)
        assert report.converged and report.alpha_hat == report.theta_hat

    @pytest.mark.parametrize("theta0, certified", [(-1.2, False), (-4.5, True)])
    def test_exp_scale_gamma_two_is_certified_where_its_set_stops_short_of_two_theta(self, theta0, certified):
        """At index 2 on exp_scale the lead, the integral of p_theta^2 /
        p_alpha, is finite only for alpha > 2 theta and grows without bound
        as alpha falls to 2 theta.  With theta_hat above -3, default_box
        (theta_hat) reaches past 2 theta_hat: the set searched ends 1e-8
        above it, where the criterion is far above 0, so the root is not
        certified.  Farther out the set stops short of 2 theta_hat and the
        root is a saddle.  The estimate is the root either way."""
        model = ExponentialScale()
        x = model.sample(theta0, 60, np.random.default_rng(102))
        report = minimum_dual_estimator(model, CressieRead(2.0), WeightedEmpiricalMeasure.plain(tuple(x)))
        assert report.theta_hat == model.solve_score(float(np.sum(x) / 60.0))
        assert (report.theta_hat > -3.0) is not certified
        assert report.converged is certified
        if certified:
            assert abs(report.value) <= estimation._SUP_TOL
        else:
            assert report.value > 1e6 and report.alpha_hat == 2.0 * report.theta_hat + 1e-8

    def test_poisson_gamma_two_root_is_not_certified(self):
        """At index 2 on poisson the inner supremum at the root is far above
        0: the root is not a saddle, and ``converged`` is false rather than
        true at some other theta."""
        model = PoissonNatural()
        x = model.sample(0.4, 60, np.random.default_rng(101))
        report = minimum_dual_estimator(model, CressieRead(2.0), WeightedEmpiricalMeasure.plain(tuple(x)))
        assert report.theta_hat == model.solve_score(float(np.sum(x) / 60.0))
        assert report.value > 1.0 and not report.converged

    def test_report_serialization_fields(self, gauss_sample):
        """Reports expose the convergence diagnostics."""
        model, x = gauss_sample
        mu = WeightedEmpiricalMeasure.plain(tuple(x))
        report = minimum_dual_estimator(model, CressieRead(1.0), mu)
        out = report.to_dict()
        assert list(out) == [
            "theta_hat", "alpha_hat", "value", "converged", "inner_grad_norm", "rejected_evaluations",
        ]


_SCALAR_MODELS = {"gauss_loc": (GaussianLocation(), 0.3), "poisson": (PoissonNatural(), 0.4),
                  "exp_scale": (ExponentialScale(), -1.2)}
_LAWS = {law.token: law for law in (PoissonOne(), ExponentialOne(), NormalOneOne(), ShiftedBernoulli())}


class TestWeightedRoot:
    """The estimate is the weighted score root, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(model_token=st.sampled_from(sorted(_SCALAR_MODELS)), law=st.sampled_from(sorted(_LAWS)),
           gamma=st.sampled_from([-0.5, 0.0, 0.5, 1.0]), n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    def test_exponential_family_estimate_is_solve_score_of_the_weighted_mean(self, model_token, law, gamma,
                                                                             n, seed):
        """theta_hat is ``solve_score(sum w t / sum w)``; without a root
        (signed weights) the estimate raises NumericError."""
        model, theta = _SCALAR_MODELS[model_token]
        rng = np.random.default_rng(seed)
        x = model.sample(theta, n, rng)
        w = _LAWS[law].sample(n, rng)
        mu = WeightedEmpiricalMeasure(tuple(x), tuple(w))
        try:
            expect = model.solve_score(float(np.sum(w * x) / np.sum(w))) if np.sum(w) > 0.0 else None
        except DomainError:
            expect = None
        if expect is None:
            with pytest.raises(NumericError):
                minimum_dual_estimator(model, CressieRead(gamma), mu)
        else:
            assert minimum_dual_estimator(model, CressieRead(gamma), mu).theta_hat == expect

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), law=st.sampled_from(sorted(_LAWS)),
           gamma=st.sampled_from([-0.5, 0.0, 0.5, 1.0]), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_categorical_estimate_is_the_normalised_masses(self, k, law, gamma, n, seed):
        """theta_hat is the weighted cell masses over their sum (all but the
        last); a cell without positive mass raises NumericError."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, k, size=n)
        w = _LAWS[law].sample(n, rng)
        masses = np.zeros(k)
        for cell, weight in zip(x, w):
            masses[cell] += weight
        masses /= n
        mu = WeightedEmpiricalMeasure(tuple(x), tuple(w))
        if not (masses > 0.0).all():
            with pytest.raises(NumericError):
                minimum_dual_estimator(Categorical(k), CressieRead(gamma), mu)
            return
        expect = (masses / np.sum(masses))[:-1]
        got = minimum_dual_estimator(Categorical(k), CressieRead(gamma), mu).theta_hat
        assert np.array_equal(np.atleast_1d(got), expect)


class TestBatchEstimator:
    """Vectorized replication estimates."""

    def test_matches_per_row_estimates(self, rng):
        """The batched solver tracks the scalar solver row by row."""
        model = GaussianLocation()
        spec = CressieRead(1.0)
        points = model.sample(0.2, 60, rng)
        weights = np.vstack([PoissonOne().sample(60, rng) for _ in range(3)])
        box = model.default_box(model.pilot_estimate(points))
        batch = minimum_dual_estimator_batch(model, spec, points, weights, box)
        for row in range(3):
            mu = WeightedEmpiricalMeasure(tuple(points), tuple(weights[row]))
            single = minimum_dual_estimator(model, spec, mu)
            assert batch[row] == pytest.approx(single.theta_hat, abs=5e-5)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_same_estimates_as_the_reference_expression(self, gamma, monkeypatch):
        """The fixed schedule run over the out-of-place expression lands on the
        same estimate bits, for shared points and for shared weights."""
        model = GaussianLocation()
        rng = np.random.default_rng(2024)
        rows, n = 16, 200
        points = model.sample(0.0, n, rng)
        weights = PoissonOne().sample(rows * n, rng).reshape(rows, n)
        data = model.sample(0.0, rows * n, rng).reshape(rows, n)
        box = model.default_box(model.pilot_estimate(points))
        spec = CressieRead(gamma)
        cases = [(points, weights), (data, np.ones((1, n)))]
        fast = [minimum_dual_estimator_batch(model, spec, p, w, box) for p, w in cases]
        monkeypatch.setattr(_BatchCriterion, "value", _out_of_place_batch_value)
        for (p, w), got in zip(cases, fast):
            assert np.array_equal(got, minimum_dual_estimator_batch(model, spec, p, w, box))

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 0.0, -0.5])
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_each_row_is_the_scalar_root_bit_for_bit(self, name, gamma):
        """Every row, with shared points and with shared unit weights, is
        ``minimum_dual_estimator``'s ``theta_hat`` on that row, bit for bit."""
        model, theta0, _ = PARAMS[name]
        spec = CressieRead(gamma)
        rng = np.random.default_rng(31)
        rows, n = 12, 150
        points = model.sample(theta0, n, rng)
        weights = PoissonOne().sample(rows * n, rng).reshape(rows, n)
        data = model.sample(theta0, rows * n, rng).reshape(rows, n)
        box = model.default_box(model.pilot_estimate(points))
        weighted = minimum_dual_estimator_batch(model, spec, points[None, :], weights, box)
        plain = minimum_dual_estimator_batch(model, spec, data, np.ones((1, n)), box)
        for r in range(rows):
            mus = (WeightedEmpiricalMeasure(tuple(points), tuple(weights[r])), WeightedEmpiricalMeasure.plain(data[r]))
            for batch, mu in zip((weighted, plain), mus):
                assert batch[r] == minimum_dual_estimator(model, spec, mu).theta_hat

    def test_rows_without_a_certified_root_are_nan(self):
        """A zero weight row has no root and a row with one large negative
        weight has a root the inner supremum does not certify: both are NaN,
        while the unit row is its mean."""
        model = GaussianLocation()
        points = model.sample(0.0, 200, np.random.default_rng(4))
        box = model.default_box(model.pilot_estimate(points))
        weights = np.ones((3, 200))
        weights[1] = 0.0
        weights[2, np.argmax(points)] = -50.0
        batch = minimum_dual_estimator_batch(model, CressieRead(1.0), points[None, :], weights, box)
        assert batch[0] == minimum_dual_estimator(model, CressieRead(1.0), WeightedEmpiricalMeasure.plain(points)).theta_hat
        assert np.isnan(batch[1:]).all()
        # the scalar path finds the root of the signed row and rejects it too
        signed = minimum_dual_estimator(model, CressieRead(1.0), WeightedEmpiricalMeasure(tuple(points), tuple(weights[2])))
        assert not signed.converged and signed.value > 1.0

    def test_root_outside_the_box_is_nan(self):
        """A row whose root lies outside the search box fails."""
        model = GaussianLocation()
        points = model.sample(0.0, 50, np.random.default_rng(9))
        weights = np.ones((2, 50))
        root = float(np.mean(points))
        batch = minimum_dual_estimator_batch(model, CressieRead(1.0), points[None, :], weights, (root + 0.5, root + 6.5))
        assert np.isnan(batch).all()

    def test_unit_weight_rows_recover_sample_mean(self, rng):
        """All-ones weight rows give the plain location estimate."""
        model = GaussianLocation()
        points = model.sample(0.0, 50, rng)
        weights = np.ones((2, 50))
        box = model.default_box(model.pilot_estimate(points))
        batch = minimum_dual_estimator_batch(model, CressieRead(2.0), points, weights, box)
        np.testing.assert_allclose(batch, float(np.mean(points)), atol=5e-5)


class TestOneCertificate:
    """One rule certifies the scalar and the batched estimate: the largest
    criterion value the golden-section search evaluates over the stated set
    default_box(theta_hat) is within _SUP_TOL of 0, and its argument is off
    the set's edge."""

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("regression_*.csv")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("name", sorted(_SCALAR_MODELS))
    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_no_alpha_of_the_stated_set_lifts_a_certified_criterion(self, path, name, gamma):
        """Every ``converged`` report has h <= 1e-9 on a 2,001-point grid
        over its whole stated set, edges included."""
        points, column = read_data_csv(path)
        weights = np.ones(points.shape[0]) if column is None else column
        mu = WeightedEmpiricalMeasure(tuple(map(float, points)), tuple(map(float, weights)))
        model, spec = _SCALAR_MODELS[name][0], CressieRead(gamma)
        report = minimum_dual_estimator(model, spec, mu)
        if report.converged:
            crit = _DualCriterion(model, spec, mu)
            grid = np.linspace(*model.default_box(report.theta_hat), 2001)
            assert max(crit(report.theta_hat, float(a)) for a in grid) <= 1e-9

    @pytest.mark.parametrize("law", ["exp1", "normal11", "poisson1"])
    @pytest.mark.parametrize("gamma", [1.0, 0.0, 2.0, -0.5])
    @pytest.mark.parametrize("name", sorted(_SCALAR_MODELS))
    def test_scalar_and_batched_verdicts_agree(self, name, gamma, law):
        """On 60 rows with shared points and 60 with shared unit weights, at
        n = 200, a batched row is the scalar root exactly where the scalar
        report is certified and the root lies in the comparison's box, and
        NaN everywhere else."""
        model, theta0 = _SCALAR_MODELS[name]
        spec = CressieRead(gamma)
        rng = np.random.default_rng(29)
        rows, n = 60, 200
        points = model.sample(theta0, n, rng)
        weights = _LAWS[law].sample(rows * n, rng).reshape(rows, n)
        data = model.sample(theta0, rows * n, rng).reshape(rows, n)
        box = model.default_box(model.pilot_estimate(points))
        cases = [(points[None, :], weights), (data, np.ones((1, n)))]
        for p, w in cases:
            batch = minimum_dual_estimator_batch(model, spec, p, w, box)
            for r in range(rows):
                mu = WeightedEmpiricalMeasure(tuple(p[min(r, len(p) - 1)]), tuple(w[min(r, len(w) - 1)]))
                try:
                    report = minimum_dual_estimator(model, spec, mu)
                except NumericError:
                    assert np.isnan(batch[r])
                    continue
                if report.converged and box[0] <= report.theta_hat <= box[1]:
                    assert batch[r] == report.theta_hat
                else:
                    assert np.isnan(batch[r])

    @pytest.mark.parametrize("name, gamma", [("poisson", 3.0), ("gauss_loc", 0.0), ("exp_scale", 0.5)])
    def test_no_evaluation_leaves_the_stated_set(self, name, gamma, monkeypatch):
        """The search and the inner-gradient stencil evaluate the criterion
        inside default_box(theta_hat) only, also when the maximizer is its
        edge (poisson at index 3) or the box ends next to the domain's end
        (exp_scale)."""
        points, weights = read_data_csv(DATA_DIR / "regression_poisson1.csv")
        mu = WeightedEmpiricalMeasure(tuple(map(float, points)), tuple(map(float, weights)))
        model = _SCALAR_MODELS[name][0]
        probes, call = [], _DualCriterion.__call__

        def recorded(crit, theta, alpha):
            probes.append(alpha)
            return call(crit, theta, alpha)

        monkeypatch.setattr(_DualCriterion, "__call__", recorded)
        report = minimum_dual_estimator(model, CressieRead(gamma), mu)
        lo, hi = model.default_box(report.theta_hat)
        assert len(probes) == 5 + 2 + 32 + 2 and lo <= min(probes) and max(probes) <= hi
        assert report.converged is (name != "poisson")

    def test_an_overflow_inside_the_stated_set_is_not_certified(self):
        """Counts near 100 at index 2: at alpha = theta_hat - 3 the lead's
        exponent is about 1,800, finite but past the largest float, so the
        criterion overflows towards +inf inside the stated set.  The
        supremum is +inf, not a rejection, and neither path certifies."""
        model, spec = PoissonNatural(), CressieRead(2.0)
        points = model.sample(math.log(100.0), 40, np.random.default_rng(6))
        mu = WeightedEmpiricalMeasure.plain(tuple(points))
        crit = _DualCriterion(model, spec, mu)
        theta = crit.root()
        lo, _ = model.default_box(theta)
        expo = model.log_normalizer(2.0 * theta - lo) + model.log_normalizer(lo) - 2.0 * model.log_normalizer(theta)
        assert 709.8 < expo < 1e4
        assert crit(theta, lo) == INF and crit.rejected == 0
        report = minimum_dual_estimator(model, spec, mu)
        assert report.value == INF and not report.converged
        box = model.default_box(model.pilot_estimate(points))
        assert np.isnan(minimum_dual_estimator_batch(model, spec, points, np.ones((1, 40)), box)).all()

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(_SCALAR_MODELS))
    def test_the_searched_set_is_the_box_where_the_lead_is_finite(self, name, gamma):
        """The searched set is default_box(theta_hat), cut 1e-8 inside an end
        of the alpha whose lead integral is finite: the criterion is defined
        on all of it and rejected on the rest of the box.  Only exp_scale,
        the family with a finite end, is cut: from below at g theta_hat /
        (g - 1) for the indices 2 and 3, from above at theta_hat / 2 for
        -1."""
        model, theta0 = _SCALAR_MODELS[name]
        points = model.sample(theta0, 40, np.random.default_rng(7))
        mu = WeightedEmpiricalMeasure.plain(tuple(points))
        crit = _DualCriterion(model, CressieRead(gamma), mu)
        theta = crit.root()
        lo, hi = estimation._stated_set(model, CressieRead(gamma), theta)
        box = model.default_box(theta)
        cuts = {2.0: (2.0 * theta + 1e-8, box[1]), 3.0: (1.5 * theta + 1e-8, box[1]),
                -1.0: (box[0], 0.5 * theta - 1e-8)}
        expected = cuts.get(gamma, box) if name == "exp_scale" else box
        assert (lo, hi) == pytest.approx(expected, rel=0.0, abs=1e-15)
        assert all(math.isfinite(crit(theta, float(a))) for a in np.linspace(lo, hi, 101))
        beyond = [a for a in np.linspace(*box, 101) if not lo <= a <= hi]
        assert all(crit(theta, float(a)) == -INF for a in beyond)
        assert crit.rejected == len(beyond)

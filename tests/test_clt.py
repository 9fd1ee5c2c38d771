"""Unit tests for the Monte Carlo moment and distribution harnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from divlab.clt import (
    STATISTIC_MAP,
    _skew_kurtosis,
    estimator_distribution_compare,
    weighted_clt_check,
    weighted_lln_check,
)
from divlab.divergences import CressieRead
from divlab.errors import DomainError, ValidationError
from divlab.models import GaussianLocation, PoissonNatural
from divlab.seeding import derived_rng
from divlab.weights import ExponentialOne, NormalOneOne, PoissonOne, ShiftedBernoulli

ALL_LAWS = [PoissonOne(), ExponentialOne(), NormalOneOne(), ShiftedBernoulli(0.5)]


@pytest.fixture
def fixed_points():
    """Deterministic Gaussian point draw shared across law checks."""
    return GaussianLocation().sample(0.0, 300, derived_rng(42, "points"))


# =============================================================================
# Tests: weighted law of large numbers
# =============================================================================


class TestWeightedMean:
    """Exact conditional moments of the weighted average."""

    def test_moment_gates_pass_for_all_laws(self, fixed_points):
        """Every shipped law matches the fixed-point moment targets."""
        f = STATISTIC_MAP["identity"]
        for law in ALL_LAWS:
            report = weighted_lln_check(fixed_points, law, f, 1500, seed=42)
            assert report.passed, law.token

    def test_mean_target_is_plain_average(self, fixed_points):
        """The conditional mean target is the unweighted statistic average."""
        report = weighted_lln_check(fixed_points, PoissonOne(), STATISTIC_MAP["identity"], 500, 1)
        assert report.targets["mean"] == pytest.approx(float(np.mean(fixed_points)), abs=1e-12)

    def test_variance_target_scales_with_second_moment(self, fixed_points):
        """The conditional variance target is the second moment over n."""
        report = weighted_lln_check(fixed_points, PoissonOne(), STATISTIC_MAP["square"], 500, 1)
        mu2 = float(np.mean(fixed_points**4))
        assert report.targets["variance"] == pytest.approx(mu2 / len(fixed_points), rel=1e-12)

    def test_deterministic_given_seed(self, fixed_points):
        """Equal seeds give identical replication values."""
        f = STATISTIC_MAP["identity"]
        a = weighted_lln_check(fixed_points, PoissonOne(), f, 400, seed=9)
        b = weighted_lln_check(fixed_points, PoissonOne(), f, 400, seed=9)
        assert a.values == b.values

    def test_report_serialization(self, fixed_points):
        """Reports carry moments, targets, and gate outcomes."""
        out = weighted_lln_check(
            fixed_points, PoissonOne(), STATISTIC_MAP["identity"], 400, 3
        ).to_dict()
        assert set(out) >= {"kind", "moments", "targets", "checks", "passed"}


# =============================================================================
# Tests: weighted central limit behavior
# =============================================================================


class TestWeightedNormality:
    """Normality gates of the standardized weighted mean."""

    def test_gates_pass_for_all_laws(self, fixed_points):
        """Skewness, kurtosis, and tail gates hold for every law."""
        f = STATISTIC_MAP["identity"]
        for law in ALL_LAWS:
            report = weighted_clt_check(fixed_points, law, f, 2000, seed=42)
            assert report.passed, law.token

    def test_nonlinear_statistic_supported(self, fixed_points):
        """The cosine statistic passes the scale-invariant gates."""
        # The quantile gates presume a near-centered statistic; cosine values
        # have mean ~0.6 on these points, so only the shape gates apply.
        report = weighted_clt_check(fixed_points, PoissonOne(), STATISTIC_MAP["cosine"], 2000, 11)
        assert report.checks["skewness"]
        assert report.checks["excess_kurtosis"]
        assert 0.0 < report.moments["lower_tail_frequency"] < 1.0
        assert 0.0 < report.moments["upper_tail_frequency"] < 1.0

    def test_degenerate_statistic_rejected(self, fixed_points):
        """A constant statistic has no spread to standardize."""
        constant = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(DomainError):
            weighted_clt_check(fixed_points, PoissonOne(), constant, 500, 1)

    def test_standardized_moments_reported(self, fixed_points):
        """Reports include skewness and tail frequencies against targets."""
        report = weighted_clt_check(fixed_points, PoissonOne(), STATISTIC_MAP["identity"], 800, 5)
        assert "skewness" in report.moments
        assert report.targets["lower_tail_frequency"] == pytest.approx(0.05)
        assert report.targets["upper_tail_frequency"] == pytest.approx(0.95)


class TestSkewKurtosisPort:
    """The numpy moments equal ``scipy.stats.skew``/``kurtosis`` bit for bit."""

    @staticmethod
    def _same(x):
        got = _skew_kurtosis(x)
        ref = (float(stats.skew(x)), float(stats.kurtosis(x)))
        for a, b in zip(got, ref):
            assert a == b or (math.isnan(a) and math.isnan(b))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=300))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_random_arrays(self, values):
        self._same(np.array(values))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_constant_and_near_constant(self):
        """A constant array gives NaN; a shifted near-constant one stays finite."""
        assert all(math.isnan(v) for v in _skew_kurtosis(np.full(40, 2.5)))
        self._same(np.full(40, 2.5))
        near = np.full(40, 1e6)
        near[3] += 1e-6
        assert all(math.isfinite(v) for v in _skew_kurtosis(near))
        self._same(near)

    def test_clt_report_moments_match_scipy(self, fixed_points):
        """The harness reports scipy's moments of its standardized values."""
        report = weighted_clt_check(fixed_points, ExponentialOne(), STATISTIC_MAP["identity"], 800, 3)
        t_vals = np.array(report.values)
        assert report.moments["skewness"] == float(stats.skew(t_vals))
        assert report.moments["excess_kurtosis"] == float(stats.kurtosis(t_vals))


# =============================================================================
# Tests: estimator distribution comparison
# =============================================================================


class TestEstimatorCompare:
    """Weighted versus plain-sampling estimator spread."""

    def test_small_case_passes_bands(self):
        """A compact configuration lands inside the variance bands."""
        report = estimator_distribution_compare(
            GaussianLocation(), PoissonOne(), CressieRead(1.0), 0.3, 150, 300, seed=21
        )
        assert report.passed
        assert 0.8 <= report.moments["ratio"] <= 1.25

    def test_conditional_center_is_score_solution(self):
        """The weighted branch centers at the fixed-point score solution."""
        model = GaussianLocation()
        report = estimator_distribution_compare(
            model, PoissonOne(), CressieRead(1.0), 0.3, 150, 300, seed=21
        )
        points = model.sample(0.3, 150, derived_rng(21, "points"))
        assert report.details["conditional_center"] == pytest.approx(
            float(np.mean(points)), abs=1e-9
        )

    def test_deterministic_given_seed(self):
        """Equal seeds reproduce both branches exactly."""
        args = (GaussianLocation(), PoissonOne(), CressieRead(1.0), 0.3, 120, 200)
        a = estimator_distribution_compare(*args, seed=33)
        b = estimator_distribution_compare(*args, seed=33)
        assert a.values == b.values
        assert a.details["plain_values"] == b.details["plain_values"]

    def test_count_model_supported(self):
        """The count model runs through the same comparison."""
        report = estimator_distribution_compare(
            PoissonNatural(), ExponentialOne(), CressieRead(0.0), 0.3, 150, 250, seed=14
        )
        assert report.moments["ratio"] > 0.0
        assert report.details["failures_weighted"] + report.details["failures_plain"] < 15

    def test_non_power_generator_rejected(self):
        """The batched comparison needs a power-family generator."""
        from divlab.weights import induced_divergence

        numeric = induced_divergence(ShiftedBernoulli(0.5))
        with pytest.raises(ValidationError):
            estimator_distribution_compare(
                GaussianLocation(), PoissonOne(), numeric, 0.3, 100, 200, seed=1
            )

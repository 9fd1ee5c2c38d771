"""Unit tests for the Monte Carlo moment and distribution harnesses."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from divlab.clt import (
    STATISTIC_MAP,
    _skew_kurtosis,
    _weighted_sums,
    estimator_distribution_compare,
    weighted_clt_check,
    weighted_lln_check,
)
from divlab.divergences import CressieRead
from divlab.errors import DomainError, NumericError, ValidationError
from divlab.models import ExponentialScale, GaussianLocation, PoissonNatural
from divlab.seeding import chunked, derived_rng
from divlab.weights import ExponentialOne, NormalOneOne, PoissonOne, ShiftedBernoulli

ALL_LAWS = [PoissonOne(), ExponentialOne(), NormalOneOne(), ShiftedBernoulli()]


@pytest.fixture
def fixed_points():
    """Deterministic Gaussian point draw shared across law checks."""
    return GaussianLocation().sample(0.0, 300, derived_rng(42, "points"))


# =============================================================================
# Tests: row-block weight draws
# =============================================================================


class TestWeightedSums:
    """The harnesses draw each block's weights a few rows at a time."""

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.token)
    @pytest.mark.parametrize("tag", ["lln", "clt"])
    # at n = 37 a row block holds 885 rows and at n = 500 it holds 65; 2,049
    # replications cross the 2,048-replication chunk
    @pytest.mark.parametrize("n, reps", [(1, 2049), (37, 2049), (500, 200), (500, 2049)])
    def test_bits_match_one_matrix_per_chunk(self, law, tag, n, reps):
        """Row-block means equal, bit for bit, the means of the whole
        chunk's weight matrix drawn at once."""
        fv = np.cos(np.arange(n) * 0.7) + 0.25
        reference = np.concatenate(
            chunked(5, tag, reps, lambda rng, size: np.mean(law.sample(size * n, rng).reshape(size, n) * fv, axis=1))
        )
        got = _weighted_sums(fv, law, reps, 5, tag)
        assert got.shape == (reps,)
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.token)
    def test_harness_peak_memory(self, law):
        """One lln and one clt check on 500 points and 2,000 replications
        each peak at 2 MB of traced allocations or less; a whole chunk's
        weight matrix alone would take 8 MB."""
        points = GaussianLocation().sample(0.0, 500, derived_rng(42, "points"))
        f = STATISTIC_MAP["identity"]
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            for check in (weighted_lln_check, weighted_clt_check):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                check(points, law, f, 2000, 1)
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak <= 2e6, (check.__name__, peak)
        finally:
            if not was_tracing:
                tracemalloc.stop()


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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_flat_branch_is_named(self, seed):
        """Both branches of exp_scale at gamma 2 give 64 equal estimates, and
        the error names both, whatever their sample variance rounds to."""
        with pytest.raises(NumericError, match="^weighted and plain estimates have zero variance"):
            estimator_distribution_compare(
                ExponentialScale(), PoissonOne(), CressieRead(2.0), -1.3, 500, 64, seed=seed
            )

    def test_non_power_generator_rejected(self):
        """The batched comparison needs a power-family generator."""
        from divlab.weights import induced_divergence

        numeric = induced_divergence(ShiftedBernoulli())
        with pytest.raises(ValidationError):
            estimator_distribution_compare(
                GaussianLocation(), PoissonOne(), numeric, 0.3, 100, 200, seed=1
            )

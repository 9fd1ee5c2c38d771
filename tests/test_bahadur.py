"""Unit tests for test-statistic slopes and the efficiency ordering."""

import math

import numpy as np
import pytest

from divlab.bahadur import (
    GRID_STEP,
    FunctionalStatistic,
    _cell_divergence_rows,
    _count_statistics,
    _simplex_grid,
    efficiency_compare,
    empirical_slope_trend,
    slope_generic,
    slope_min_divergence,
)
from divlab.divergences import INF, CressieRead, FiniteMeasure, cell_divergence
from divlab.errors import ValidationError
from divlab.estimation import WeightedEmpiricalMeasure, estimate_phi_dual
from divlab.models import Categorical, GaussianLocation
from divlab import weights
from divlab.sanov import kl_on_partition
from divlab.weights import ExponentialOne, NormalOneOne, PoissonOne, ShiftedBernoulli, induced_divergence


@pytest.fixture
def pair_model():
    """Two-cell model with the alternative and null of the shipped fixture."""
    return Categorical(2), (0.4,), (0.2,)


def _mass_gap_statistic(model):
    """First-cell mass deviation as a smooth functional."""

    def evaluator(theta, q):
        return abs(float(q[0]) - float(model.probs(theta)[0]))

    return FunctionalStatistic(evaluator, "first_cell_gap")


def _reference_cell_divergence(spec, p_theta, q):
    """The former scalar loop ``sum_j q_j phi(p_theta_j / q_j)``, kept as the reference."""
    total = 0.0
    for pj, qj in zip(p_theta, q):
        if pj == 0.0 and qj == 0.0:
            continue
        if qj == 0.0:
            return INF
        v = spec.value(pj / qj, 0)
        if math.isinf(v):
            return INF
        total += qj * v
    return total


# =============================================================================
# Tests: cell divergences on the simplex grid
# =============================================================================


class TestCellDivergenceRows:
    """The vectorized grid kernel against the scalar routine."""

    @pytest.mark.parametrize("law", [PoissonOne(), ExponentialOne(), ShiftedBernoulli(0.5)])
    @pytest.mark.parametrize("p_theta", [(0.3, 0.3, 0.4), (0.6, 0.4, 0.0)])
    def test_rows_match_scalar_routine_on_k3_grid_slice(self, law, p_theta):
        """Every row of a k=3 grid slice, boundary rows included, matches."""
        spec = induced_divergence(law)
        p = np.asarray(p_theta)
        rows = _simplex_grid(3, GRID_STEP)[::499]
        assert np.any(rows == 0.0)
        scalar = [cell_divergence(spec, p, q) for q in rows]
        assert scalar == [_reference_cell_divergence(spec, p, q) for q in rows]
        np.testing.assert_allclose(_cell_divergence_rows(spec, p, rows), scalar, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "spec",
        [induced_divergence(ShiftedBernoulli(0.5)), induced_divergence(PoissonOne(), force_numeric=True)],
        ids=["twopoint", "poisson1_numeric"],
    )
    @pytest.mark.parametrize("p_theta", [(0.3, 0.3, 0.4), (0.6, 0.4, 0.0)])
    def test_numeric_generator_rows_equal_scalar_routine_exactly(self, spec, p_theta):
        """Bit-equal to the scalar routine, rows that share a null cell with ``p_theta`` included."""
        p = np.asarray(p_theta)
        grid = _simplex_grid(3, GRID_STEP)
        rows = np.concatenate([grid[::499], grid[grid[:, 2] == 0.0][::97]])
        scalar = np.array([cell_divergence(spec, p, q) for q in rows])
        if p_theta[2] == 0.0:
            assert np.any(np.isfinite(scalar)) and np.any(np.isinf(scalar))
        np.testing.assert_array_equal(_cell_divergence_rows(spec, p, rows), scalar)

    def test_one_chernoff_solve_per_distinct_mass_of_each_cell(self, monkeypatch):
        """A full k=3 grid call solves each cell's term once per distinct positive mass.

        Each mass takes the 1,001 values ``i / 1000``, so the solves number
        3,000 instead of one per cell (1,501,503 cells).
        """
        calls = []
        solve = weights.chernoff_argmax

        def counted(law, x):
            calls.append(x)
            return solve(law, x)

        monkeypatch.setattr(weights, "chernoff_argmax", counted)
        grid = _simplex_grid(3, GRID_STEP)
        p = np.array([0.2, 0.4, 0.4])
        out = _cell_divergence_rows(induced_divergence(ShiftedBernoulli(0.5)), p, grid)
        assert out.shape == (501501,)
        masses = [np.unique(grid[:, j]) for j in range(3)]
        assert [m.size for m in masses] == [1001, 1001, 1001]
        assert calls == [x for pj, m in zip(p, masses) for x in (pj / m[m > 0.0]).tolist()]
        assert len(calls) == 3000

    def test_k3_grid_stays_on_the_simplex(self):
        """No mass is negative, and the 1,001 edge rows hold an exact zero third mass."""
        grid = _simplex_grid(3, GRID_STEP)
        assert np.all(grid >= 0.0)
        assert np.count_nonzero(grid[:, 2] == 0.0) == 1001
        np.testing.assert_array_equal(np.unique(grid[:, 2]), np.arange(1001) / 1000)


# =============================================================================
# Tests: divergence-statistic slope
# =============================================================================


class TestMinDivergenceSlope:
    """Slope of the plug-in divergence statistic."""

    def test_frozen_fixture_value(self, pair_model):
        """The shipped two-cell fixture reproduces its frozen slope."""
        model, theta, theta_prime = pair_model
        out = slope_min_divergence(model, PoissonOne(), theta, theta_prime)
        assert out == pytest.approx(-0.2092992575058193, abs=1e-12)

    def test_equals_twice_cell_relative_entropy(self, pair_model):
        """With Poisson weights the slope is minus twice the cell relative entropy."""
        model, theta, theta_prime = pair_model
        out = slope_min_divergence(model, PoissonOne(), theta, theta_prime)
        expect = -2.0 * kl_on_partition([0.4, 0.6], [0.2, 0.8])
        assert out == pytest.approx(expect, abs=1e-12)

    def test_exponential_weights_swap_the_arguments(self, pair_model):
        """The likelihood-type law reverses the relative entropy direction."""
        model, theta, theta_prime = pair_model
        out = slope_min_divergence(model, ExponentialOne(), theta, theta_prime)
        expect = -2.0 * kl_on_partition([0.2, 0.8], [0.4, 0.6])
        assert out == pytest.approx(expect, abs=1e-12)

    def test_no_separation_gives_zero(self, pair_model):
        """Coinciding parameters give slope zero."""
        model, theta, _ = pair_model
        assert slope_min_divergence(model, PoissonOne(), theta, theta) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unreachable_separation_is_negative_infinity(self):
        """A bounded generator on an unbounded ratio drops to -inf."""
        out = slope_min_divergence(GaussianLocation(), ShiftedBernoulli(0.5), 0.9, 0.1)
        assert out == -INF


# =============================================================================
# Tests: generic-statistic slope
# =============================================================================


class TestGenericSlope:
    """Constrained slope of an arbitrary continuous functional."""

    def test_frozen_cell_gap_value(self, pair_model):
        """The first-cell-gap statistic reproduces its frozen slope."""
        model, theta, theta_prime = pair_model
        rec = slope_generic(model, PoissonOne(), _mass_gap_statistic(model), theta, theta_prime)
        assert rec.slope == pytest.approx(-0.16218604324253733, abs=1e-9)

    def test_minimizer_attains_the_constraint(self, pair_model):
        """The reported minimizer reaches the alternative's statistic level."""
        model, theta, theta_prime = pair_model
        stat = _mass_gap_statistic(model)
        rec = slope_generic(model, PoissonOne(), stat, theta, theta_prime)
        level = stat.evaluator(theta, model.probs(theta_prime))
        attained = stat.evaluator(theta, np.asarray(rec.minimizer))
        assert attained >= level - 1e-6

    def test_divergence_functional_recovers_min_slope(self, pair_model):
        """Using the divergence itself as the functional closes the gap."""
        model, theta, theta_prime = pair_model
        spec = induced_divergence(PoissonOne())

        def evaluator(th, q):
            return cell_divergence(spec, model.probs(th), np.asarray(q, dtype=float))

        rec = slope_generic(
            model, PoissonOne(), FunctionalStatistic(evaluator, "divergence"), theta, theta_prime
        )
        expect = slope_min_divergence(model, PoissonOne(), theta, theta_prime)
        assert rec.slope == pytest.approx(expect, abs=2e-3)

    def test_nonvanishing_null_statistic_rejected(self, pair_model):
        """Functionals that do not vanish at the null fail validation."""
        model, theta, theta_prime = pair_model
        bad = FunctionalStatistic(lambda th, q: 1.0, "constant_one")
        with pytest.raises(ValidationError):
            slope_generic(model, PoissonOne(), bad, theta, theta_prime)


class TestEfficiencyComparison:
    """Ordering between the divergence statistic and competitors."""

    def test_ordering_statement_holds(self, pair_model):
        """The generic slope is never more negative than the divergence slope."""
        model, theta, theta_prime = pair_model
        rec = efficiency_compare(
            model, PoissonOne(), _mass_gap_statistic(model), theta, theta_prime
        )
        assert rec.ordering_holds
        assert rec.slope_generic >= rec.slope_min_divergence - 1e-9
        assert abs(rec.slope_generic) <= abs(rec.slope_min_divergence) + 1e-9

    def test_both_sign_conventions_recorded(self, pair_model):
        """The record states the ordering in signed and magnitude form."""
        model, theta, theta_prime = pair_model
        rec = efficiency_compare(
            model, PoissonOne(), _mass_gap_statistic(model), theta, theta_prime
        )
        assert "slope_generic >= slope_min_divergence" == rec.signed_statement
        assert "|slope_generic| <= |slope_min_divergence|" == rec.magnitude_statement

    def test_serialization_fields(self, pair_model):
        """Records expose both slopes and the minimizer."""
        model, theta, theta_prime = pair_model
        out = efficiency_compare(
            model, PoissonOne(), _mass_gap_statistic(model), theta, theta_prime
        ).to_dict()
        assert set(out) >= {"slope_min_divergence", "slope_generic", "minimizer", "ordering_holds"}


# =============================================================================
# Tests: empirical tail trends
# =============================================================================


class TestTailTrend:
    """Monte Carlo tail frequencies of the statistic under the null."""

    @pytest.mark.parametrize(
        "law", [PoissonOne(), ExponentialOne(), ShiftedBernoulli(), NormalOneOne()], ids=lambda law: law.token
    )
    def test_statistic_table_is_the_per_count_search(self, law):
        """The one row search over the grid's distinct fractions gives, for
        every count, exactly the scalar search on that count's measure."""
        model, spec, grid = Categorical(2), induced_divergence(law), [7, 10, 20, 77]
        tables = _count_statistics(model, spec, (0.4,), grid)
        for n, table in zip(grid, tables):
            per_count = [
                estimate_phi_dual(model, spec, (0.4,), WeightedEmpiricalMeasure.from_finite_measure(
                    FiniteMeasure(model.atoms, (c / n, 1.0 - c / n))
                ))[0]
                for c in range(n + 1)
            ]
            assert table.tolist() == per_count

    def test_estimates_approach_the_target(self):
        """Absolute rate errors shrink along the sample-size grid."""
        table = empirical_slope_trend(
            Categorical(2), PoissonOne(), (0.4,), (0.2,), [20, 40, 60], 3000, seed=2
        )
        errors = [abs(row.slope_estimate - row.slope_target) for row in table.rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert not any(row.one_sided for row in table.rows)

    def test_threshold_is_half_the_drift(self):
        """The tail threshold sits at half the alternative's statistic level."""
        table = empirical_slope_trend(
            Categorical(2), PoissonOne(), (0.4,), (0.2,), [20], 1000, seed=4
        )
        drift = cell_divergence(
            induced_divergence(PoissonOne()), np.array([0.4, 0.6]), np.array([0.2, 0.8])
        )
        assert table.rows[0].threshold == pytest.approx(0.5 * drift, abs=1e-12)
        assert table.rows[0].slope_target == pytest.approx(-drift, abs=1e-12)

    def test_unreached_threshold_reports_one_sided_row(self):
        """Sample sizes with no tail hits give one-sided bounds."""
        table = empirical_slope_trend(
            Categorical(2), PoissonOne(), (0.4,), (0.2,), [400], 1000, seed=6
        )
        row = table.rows[0]
        assert row.hits == 0
        assert row.one_sided
        assert row.slope_estimate == -INF

    def test_deterministic_given_seed(self):
        """Equal seeds reproduce the hit counts."""
        args = (Categorical(2), PoissonOne(), (0.4,), (0.2,), [30], 2000)
        a = empirical_slope_trend(*args, seed=11)
        b = empirical_slope_trend(*args, seed=11)
        assert a.rows[0].hits == b.rows[0].hits

    def test_small_replication_count_rejected(self):
        """Fewer than one thousand replications is a validation error."""
        with pytest.raises(ValidationError):
            empirical_slope_trend(
                Categorical(2), PoissonOne(), (0.4,), (0.2,), [30], 10, seed=0
            )

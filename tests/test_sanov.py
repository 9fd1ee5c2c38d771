"""Unit tests for exact occupation rates, neighborhoods, and conditional Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, logsumexp

from divlab import sanov
from divlab.divergences import INF, CressieRead, cell_divergence
from divlab.errors import EnumerationLimitError, ValidationError
from divlab.models import Categorical, GaussianLocation
from divlab.sanov import (
    MAX_N_EXACT,
    _box_projection,
    _box_simplex_vertices,
    _log_factorials,
    _log_probs_of_counts,
    _logsumexp,
    Partition,
    PartitionNeighborhood,
    conditional_ldp_mc,
    enumerate_count_vectors,
    largest_remainder_counts,
    log_occupation_probability,
    ml_ldp_gap,
    neighborhood_inf_divergence,
    sandwich_check,
    sanov_rate_convergence,
    shrink_epsilon_limit,
)
from divlab.weights import ExponentialOne, NormalOneOne, PoissonOne, ShiftedBernoulli, induced_divergence

KL = CressieRead(1.0)

#: generators of the box-projection property: power indices on both sides of
#: the saturation points, the twopoint rate (ratios in [0, 2]) and its conjugate
BOX_GENERATORS = [CressieRead(g) for g in (-3.0, 0.0, 0.5, 1.0, 2.0, 1e30)] + [
    induced_divergence(ShiftedBernoulli()),
    induced_divergence(ShiftedBernoulli()).conjugate(),
]


@st.composite
def prob_vectors(draw, k_values):
    """Probability vectors of a length from ``k_values``, some with null cells."""
    k = draw(st.sampled_from(k_values))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    null = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    null[draw(st.integers(0, k - 1))] = False
    raw[null] = 0.0
    return raw / np.sum(raw)


@st.composite
def box_cases(draw):
    """A generator, a centre, reference masses positive but on some null
    cells of the centre, a radius and a seed for convex combinations."""
    spec = draw(st.sampled_from(BOX_GENERATORS))
    center = draw(prob_vectors(range(2, 7)))
    k = center.shape[0]
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    raw[(center == 0.0) & np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))] = 0.0
    epsilon = draw(st.floats(0.005, 0.5))
    return spec, tuple(center), tuple(raw / np.sum(raw)), epsilon, draw(st.integers(0, 2**32 - 1))


# =============================================================================
# Tests: partitions and cell masses
# =============================================================================


class TestPartition:
    """Atom partitions of categorical models."""

    def test_atom_partition_fields(self):
        """An atom partition has one cell per atom."""
        assert Partition.atoms(3).k == 3

    def test_partition_must_fit_a_categorical_model(self):
        """A partition of another cell count, or a model that is not
        categorical, is a validation error."""
        for model, theta in ((Categorical(2), (0.4,)), (GaussianLocation(), 0.4)):
            with pytest.raises(ValidationError):
                conditional_ldp_mc(model, theta, theta, PoissonOne(), Partition.atoms(3), 0.05, 50, 200, seed=0)
            with pytest.raises(ValidationError):
                sandwich_check(model, theta, theta, Partition.atoms(3), 0.1, 20)


class TestNeighborhood:
    """Max-deviation balls on the simplex."""

    def test_strict_membership(self):
        """Membership compares the max deviation strictly."""
        # Radius 0.125 is exact in binary, so the boundary comparison is clean.
        ball = PartitionNeighborhood((0.5, 0.5), 0.125)
        assert ball.contains((0.55, 0.45))
        assert not ball.contains((0.625, 0.375))
        assert not ball.contains((0.7, 0.3))
        with pytest.raises(ValidationError):
            ball.contains((0.5, 0.3, 0.2))

    def test_zero_cell_constraint(self):
        """Null center cells force members to vanish there."""
        ball = PartitionNeighborhood((0.5, 0.5, 0.0), 0.2, zero_cells=True)
        assert not ball.contains((0.45, 0.45, 0.1))
        assert ball.contains((0.45, 0.55, 0.0))

    def test_closed_box_caps(self):
        """Box bounds clip to [0, 1] on the simplex."""
        ball = PartitionNeighborhood((0.05, 0.95), 0.1)
        lo, hi = ball.closed_box()
        assert lo[0] == 0.0 and hi[1] == 1.0

    def test_invalid_radius(self):
        """A nonpositive radius fails validation."""
        with pytest.raises(ValidationError):
            PartitionNeighborhood((0.5, 0.5), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(2, 5), zero_cells=st.booleans())
    def test_rows_match_the_max_deviation_rule(self, data, k, zero_cells):
        """Row membership is ``max_j |q_j - c_j| < epsilon``, plus zero rows
        on empty center cells under ``zero_cells``, for any row values."""
        center = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.125, 0.3, 0.5]) | st.floats(0.0, 1.0), min_size=k, max_size=k
        )))
        eps = data.draw(st.sampled_from([0.125, 0.05]) | st.floats(1e-6, 1.0))
        cells = [
            st.sampled_from([c, c + eps, c - eps, 0.0, -0.0, np.nan, np.inf, -np.inf])
            | st.floats(c - 2.0 * eps, c + 2.0 * eps)
            for c in center
        ]
        rows = np.array(data.draw(st.lists(st.tuples(*cells), min_size=1, max_size=20)), dtype=float)
        expected = np.max(np.abs(rows - center), axis=1) < eps
        if zero_cells:
            expected &= np.all(rows[:, center == 0.0] == 0.0, axis=1)
        ball = PartitionNeighborhood(tuple(center), eps, zero_cells)
        got = ball.contains_rows(rows)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, expected)


# =============================================================================
# Tests: exact occupation probabilities
# =============================================================================


class TestOccupation:
    """Multinomial log-mass of observed cell counts."""

    def test_matches_scipy_multinomial(self):
        """The log occupation probability is the multinomial log-pmf."""
        p = np.array([0.3, 0.45, 0.25])
        counts = np.array([3, 4, 3])
        expect = stats.multinomial.logpmf(counts, 10, p)
        assert log_occupation_probability(p, counts) == pytest.approx(float(expect), abs=1e-10)

    def test_exact_probability_exponentiates(self):
        """The plain probability is the exponential of the log form."""
        p = np.array([0.5, 0.5])
        counts = np.array([2, 2])
        assert math.exp(log_occupation_probability(p, counts)) == pytest.approx(6.0 / 16.0, abs=1e-12)

    def test_count_on_null_cell_impossible(self):
        """Counts on a zero-probability cell have log-mass -inf."""
        out = log_occupation_probability(np.array([1.0, 0.0]), np.array([1, 1]))
        assert out == -INF

    @settings(max_examples=80, deadline=None)
    @given(p=prob_vectors((2, 3)), n=st.integers(0, 60))
    def test_row_log_pmf_is_a_law(self, p, n):
        """Over every count vector the log-pmf sums to one, and exactly the
        vectors that charge a null cell get ``-inf``."""
        counts = enumerate_count_vectors(p.shape[0], n)
        lp = _log_probs_of_counts(counts, p)
        assert abs(float(logsumexp(lp))) <= 1e-12
        charged_null = np.any((counts > 0) & (p == 0.0), axis=1)
        assert np.all(lp[charged_null] == -INF)
        assert np.all(np.isfinite(lp[~charged_null]))

    @settings(max_examples=200, deadline=None)
    @given(p=prob_vectors(tuple(range(2, 8))), data=st.data())
    def test_scalar_log_pmf_is_the_row_routine(self, p, data):
        """Up to seven cells the scalar log-pmf equals, bit for bit, the row
        routine and the cell-by-cell sum over charged cells."""
        k = p.shape[0]
        counts = np.array(data.draw(st.lists(st.integers(0, 60), min_size=k, max_size=k)))
        out = log_occupation_probability(p, counts)
        assert out == _log_probs_of_counts(counts[None, :], p)[0]
        pos = counts > 0
        if np.any(pos & (p == 0.0)):
            assert out == -INF
        else:
            direct = gammaln(counts.sum() + 1) - np.sum(gammaln(counts + 1)) + np.sum(counts[pos] * np.log(p[pos]))
            assert out == direct


class TestScipyReferences:
    """The exact paths' log-factorials and log-sum-exp are scipy's, bit for bit."""

    @pytest.mark.parametrize("top", [MAX_N_EXACT, 200_000])
    def test_log_factorials_are_gammaln(self, top):
        """``log j!`` equals ``gammaln(j + 1)`` for j = 0..200,000, from the
        table up to the enumeration cap and computed entry by entry past it."""
        j = np.arange(top + 1)
        assert np.array_equal(_log_factorials(j), gammaln(j + 1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.floats(-800.0, 50.0), st.just(-INF), st.sampled_from([-2.5, 0.0, 3.0])),
                 min_size=1, max_size=40)
    )
    @example([-INF, -1.0, -2.5])
    @example([-3.0, -7.25, -3.0, -INF])
    @example([0.125])
    @example([-INF])
    @example([-INF, -INF, -INF])
    def test_logsumexp_is_scipys(self, values):
        """Arrays with ``-inf`` entries, tied maxima, one element, or only ``-inf``."""
        a = np.array(values)
        assert _logsumexp(a) == float(logsumexp(a))


class TestCountEnumeration:
    """Exhaustive composition enumeration for small cells."""

    def test_count_of_compositions(self):
        """k cells and n draws give binomial(n+k-1, k-1) count vectors."""
        out = enumerate_count_vectors(3, 7)
        assert out.shape == (36, 3)
        assert np.all(out.sum(axis=1) == 7)

    def test_pair_case_is_linear(self):
        """Two cells enumerate n+1 vectors."""
        out = enumerate_count_vectors(2, 5)
        assert out.shape == (6, 2)

    def test_cell_cap_enforced(self):
        """Beyond three cells the exact path refuses to enumerate."""
        with pytest.raises(EnumerationLimitError):
            enumerate_count_vectors(4, 10)

    def test_size_cap_enforced(self):
        """Over-large draw counts are refused."""
        with pytest.raises(EnumerationLimitError):
            enumerate_count_vectors(2, 100000)


class TestLargestRemainder:
    """Idealized integer counts along a probability vector."""

    def test_sums_to_n(self):
        """Rounded counts keep the total draw count."""
        counts = largest_remainder_counts([0.33, 0.33, 0.34], 10)
        assert counts.sum() == 10

    def test_exact_fractions_untouched(self):
        """Exact multiples round to themselves."""
        np.testing.assert_array_equal(largest_remainder_counts([0.5, 0.5], 4), [2, 2])

    def test_tie_breaks_to_lowest_index(self):
        """Equal remainders hand the spare unit to the first cell."""
        np.testing.assert_array_equal(largest_remainder_counts([0.5, 0.5], 5), [3, 2])


# =============================================================================
# Tests: neighborhood infima
# =============================================================================


class TestNeighborhoodInfimum:
    """Constrained divergence minimization over the cell box."""

    def test_center_inside_gives_zero(self):
        """A reference inside the ball has infimum zero."""
        ball = PartitionNeighborhood((0.5, 0.5), 0.3)
        assert neighborhood_inf_divergence(KL, ball, [0.4, 0.6]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_scan_on_pair(self):
        """The closed-form minimizer agrees with a dense scan of the k=2 simplex."""
        # The infimum runs over the closed box, so the scan includes the edges.
        ball = PartitionNeighborhood((0.5, 0.5), 0.05)
        p = np.array([0.3, 0.7])
        grid = np.linspace(0.45, 0.55, 3001)
        scan = min(
            q1 * math.log(q1 / 0.3) + (1 - q1) * math.log((1 - q1) / 0.7) for q1 in grid
        )
        out = neighborhood_inf_divergence(KL, ball, p)
        assert out == pytest.approx(scan, abs=1e-6)

    def test_reference_of_another_length_rejected(self):
        """The reference needs one mass per cell of the neighborhood."""
        with pytest.raises(ValidationError):
            neighborhood_inf_divergence(KL, PartitionNeighborhood((0.5, 0.5), 0.05), [0.3, 0.3, 0.4])

    def test_minimizer_is_probability_vector(self):
        """The box projection is feasible, sums to one and attains the infimum."""
        ball = PartitionNeighborhood((0.55, 0.45), 0.02)
        p = np.array([0.3, 0.7])
        q = _box_projection(p, *ball.closed_box())
        assert float(np.sum(q)) == pytest.approx(1.0, abs=1e-12)
        value = neighborhood_inf_divergence(KL, ball, p)
        assert value == pytest.approx(q[0] * math.log(q[0] / 0.3) + q[1] * math.log(q[1] / 0.7), abs=1e-12)

    def test_null_reference_cell_with_positive_lower_bound(self):
        """A forced positive mass on a null reference cell is infinitely far."""
        ball = PartitionNeighborhood((0.3, 0.3, 0.4), 0.05, zero_cells=False)
        out = neighborhood_inf_divergence(KL, ball, [0.5, 0.5, 0.0])
        assert out == INF

    def test_infeasible_box_rejected(self):
        """A box missing the simplex entirely fails validation."""
        ball = PartitionNeighborhood((0.05, 0.05), 0.02)
        with pytest.raises(ValidationError):
            neighborhood_inf_divergence(KL, ball, [0.5, 0.5])

    def test_other_generator_indices(self):
        """The closed form holds for non-logarithmic generators."""
        ball = PartitionNeighborhood((0.5, 0.5), 0.05)
        p = np.array([0.35, 0.65])
        for g in [0.0, 0.5, 2.0]:
            spec = CressieRead(g)
            grid = np.linspace(0.45, 0.55, 2001)
            scan = min(
                0.35 * spec.value(q1 / 0.35) + 0.65 * spec.value((1 - q1) / 0.65) for q1 in grid
            )
            out = neighborhood_inf_divergence(spec, ball, p)
            assert out == pytest.approx(scan, abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_power_is_infinite_without_a_warning(self):
        """At index 1e30 a cell ratio off 1 overflows its power: the term is
        ``+inf`` through the scalar path's OverflowError, not numpy's scalar
        power warning (the CLI's ``sanov --mode shrink --gamma=1e30``)."""
        spec, p = CressieRead(1e30), [0.5, 0.5]
        balls = [PartitionNeighborhood((0.4, 0.6), e) for e in (0.2, 0.1, 0.05)]
        # the two wider boxes hold p, the second at a corner
        for ball in balls[:2]:
            assert _box_projection(np.array(p), *ball.closed_box()).tolist() == p
        values = [neighborhood_inf_divergence(spec, ball, p) for ball in balls]
        assert values[:2] == [cell_divergence(spec, p, p)] * 2 and values[2] == INF

    def test_reference_off_the_simplex_rejected(self):
        """A reference that is not a probability vector is a validation
        error, here and along a shrinking grid."""
        ball = PartitionNeighborhood((0.5, 0.5), 0.05)
        for p in ([0.3, 0.3], [0.6, 0.6], [1.2, -0.2]):
            with pytest.raises(ValidationError):
                neighborhood_inf_divergence(KL, ball, p)
        with pytest.raises(ValidationError):
            shrink_epsilon_limit(KL, [0.5, 0.5], [0.3, 0.3], [0.1, 0.01])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reference_inside_its_box_is_its_own_minimizer(self):
        """At index 1e30 a reference inside its closed box reads the value at
        q = p, also when its float sum is not 1 (500 Dirichlet cases, k =
        2..6): scaled to unit mass, a ratio an ulp above 1 overflows."""
        spec = CressieRead(1e30)
        rng = np.random.default_rng(1030)
        inside = off_sum = 0
        for _ in range(500):
            k = int(rng.integers(2, 7))
            p, center = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            ball = PartitionNeighborhood(tuple(center.tolist()), float(rng.uniform(0.05, 0.6)))
            lo, hi = ball.closed_box()
            if not np.all((lo <= p) & (p <= hi)):
                continue
            inside += 1
            off_sum += float(np.sum(p)) != 1.0
            value = neighborhood_inf_divergence(spec, ball, p)
            assert value == cell_divergence(spec, p.tolist(), p.tolist()) and math.isfinite(value)
        # the draw holds both kinds of reference
        assert inside > off_sum > 0

    def test_twopoint_box_beyond_its_domain_is_infinite(self):
        """Every probability vector in these boxes needs a cell ratio above
        2, where the twopoint rate is infinite (the CLI's ``sanov --mode
        shrink --cells 3 --gamma induced --law twopoint``)."""
        table = shrink_epsilon_limit(
            induced_divergence(ShiftedBernoulli()), (0.45, 0.45, 0.1), (0.2, 0.2, 0.6), (0.07, 0.05)
        )
        assert [row.inf_value for row in table.rows] == [INF, INF] and not table.converged

    def test_conjugate_twopoint_matches_a_scan(self):
        """The conjugate twopoint generator, which has no closed form, gets
        the same closed-form minimizer: its infimum matches a 201 x 201 scan
        of the box, the third mass taking the rest."""
        spec = induced_divergence(ShiftedBernoulli()).conjugate()
        ball, p = PartitionNeighborhood((0.3, 0.3, 0.4), 0.05), [0.2, 0.2, 0.6]
        lo, hi = ball.closed_box()
        grid = np.linspace(lo[0], hi[0], 201)
        head = [0.2 * spec.value(q / 0.2) for q in grid]
        scan = min(
            head[i] + head[j] + 0.6 * spec.value((1.0 - q1 - q2) / 0.6)
            for i, q1 in enumerate(grid)
            for j, q2 in enumerate(grid)
            if lo[2] - 1e-12 <= 1.0 - q1 - q2 <= hi[2] + 1e-12
        )
        value = neighborhood_inf_divergence(spec, ball, p)
        assert math.isfinite(value) and value == pytest.approx(scan, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(box_cases())
    # the only feasible point, (1, 0, 0), scores +inf, while five of seed 0's
    # eight combinations of it land on (0.9999999999999998, 0, 0), off the
    # simplex, and score log 2
    @example((induced_divergence(ShiftedBernoulli()), (1.0, 0.0, 0.0), (0.4999999999999999, 0.0, 0.5), 0.5, 0))
    def test_box_projection_attains_the_infimum(self, case):
        """For every generator the box projection is a probability vector in
        the closed box, and neither a vertex of box ∩ simplex nor a convex
        combination of them has a smaller divergence.  Each candidate is
        renormalised onto the simplex first, since a vertex or combination
        can land an ulp off it, and candidates outside the box are dropped."""
        spec, center, p, epsilon, seed = case
        p = np.array(p)
        ball = PartitionNeighborhood(center, epsilon)
        lo, hi = ball.closed_box()
        q = _box_projection(p, lo, hi)
        assert np.all((lo <= q) & (q <= hi)) and abs(float(np.sum(q)) - 1.0) <= 1e-12
        value = neighborhood_inf_divergence(spec, ball, p)
        vertices = _box_simplex_vertices(lo, hi)
        weights = np.random.default_rng(seed).dirichlet(np.ones(len(vertices)), 8)
        candidates = np.vstack([vertices, weights @ vertices])
        candidates /= np.sum(candidates, axis=1, keepdims=True)
        candidates = candidates[np.all((lo <= candidates) & (candidates <= hi), axis=1)]
        assert candidates.shape[0] > 0
        # relative above 1: a vertex that is the minimizer up to rounding
        # differs from it by a few ulps of the value
        floor = value if math.isinf(value) else value - 1e-12 * max(1.0, value)
        for v in candidates:
            assert cell_divergence(spec, v.tolist(), p.tolist()) >= floor


# =============================================================================
# Tests: exact rate tables and sandwich bounds
# =============================================================================


class TestRateConvergence:
    """Normalized occupation rates against the cell divergence."""

    def test_gap_shrinks_along_sample_sizes(self):
        """The finite-n gap decreases monotonically on the shipped grid."""
        model = Categorical(2)
        table = sanov_rate_convergence(model, (0.3,), (0.5,), [50, 200, 800, 2000])
        gaps = [row.gap for row in table.rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.005

    def test_target_is_negative_cell_divergence(self):
        """The limit value equals minus the relative entropy of the idealized masses."""
        model = Categorical(2)
        table = sanov_rate_convergence(model, (0.3,), (0.5,), [100])
        expect = -(0.5 * math.log(0.5 / 0.3) + 0.5 * math.log(0.5 / 0.7))
        assert table.rows[0].rate_target == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("k, theta, thetaT", [
        (2, (0.3,), (0.5,)),
        (2, (0.37,), (0.5,)),
        (2, (0.9,), (0.05,)),
        (3, (0.2, 0.5), (0.4, 0.35)),
    ])
    def test_target_within_ulps_of_relative_entropy(self, k, theta, thetaT):
        """The target, the index-1 cell divergence sum_j p_j phi_1(q_j / p_j),
        lies within 1e-15 of minus sum_j q_j log(q_j / p_j)."""
        model = Categorical(k)
        p, q = model.probs(theta).tolist(), model.probs(thetaT).tolist()
        target = sanov_rate_convergence(model, theta, thetaT, [10]).rows[0].rate_target
        assert abs(target + math.fsum(qj * math.log(qj / pj) for qj, pj in zip(q, p))) <= 1e-15

    def test_fitted_constant_bounds_scaled_gaps(self):
        """The fitted constant dominates gap * n / log n on the grid."""
        model = Categorical(2)
        table = sanov_rate_convergence(model, (0.3,), (0.5,), [50, 200, 800])
        for row in table.rows:
            assert row.gap * row.n / math.log(row.n) <= table.fitted_constant + 1e-12


class TestSandwich:
    """Exact likelihood of a neighborhood against its rate surrogate."""

    def test_bounds_hold_on_small_case(self):
        """The normalized log-mass sits within the proved sandwich."""
        model = Categorical(2)
        report = sandwich_check(model, (0.3,), (0.5,), Partition.atoms(2), 0.1, 60)
        assert report.holds
        assert report.lower_bound <= report.gap <= 0.0
        assert report.n_members > 0

    def test_three_cell_case(self):
        """The sandwich also holds with three cells."""
        model = Categorical(3)
        report = sandwich_check(
            model, (0.3, 0.4), (0.4, 0.35), Partition.atoms(3), 0.1, 50
        )
        assert report.holds

    def test_serialization_round_trip(self):
        """Reports expose every bound component."""
        model = Categorical(2)
        report = sandwich_check(model, (0.3,), (0.5,), Partition.atoms(2), 0.1, 40)
        out = report.to_dict()
        assert set(out) >= {"n", "epsilon", "log_prob_rate", "neg_inf_divergence", "holds"}


class TestMLLDPGap:
    """Exact versus rate-surrogate maximizers."""

    def test_gap_within_proved_bound(self):
        """The likelihood gap lies in [0, (k/n) log(n+1)]."""
        model = Categorical(2)
        report = ml_ldp_gap(model, (0.5,), Partition.atoms(2), 0.1, 50)
        assert report.holds
        assert -1e-9 <= report.gap <= report.bound + 1e-9

    def test_maximizers_close_to_center(self):
        """Both maximizers sit near the neighborhood center."""
        model = Categorical(2)
        report = ml_ldp_gap(model, (0.5,), Partition.atoms(2), 0.05, 100)
        assert abs(report.theta_ml[0] - 0.5) < 0.1
        assert abs(report.theta_ldp[0] - 0.5) < 0.1

    @pytest.mark.parametrize("k, thetaT, n, eps, zero_cells", [
        (2, (0.5,), 50, 0.1, True), (2, (0.3,), 40, 0.05, True), (3, (0.4, 0.35), 50, 0.1, True),
        (3, (0.2, 0.5), 40, 0.15, True), (3, (0.7, 0.299), 30, 0.2, False),
    ])
    def test_em_reaches_the_grid_maximum(self, k, thetaT, n, eps, zero_cells):
        """No parameter of a dense grid over the simplex beats the EM
        maximizer's exact log-probability."""
        args = (Categorical(k), thetaT, Partition.atoms(k), eps, n, zero_cells)
        report = ml_ldp_gap(*args)
        _, members = sanov._idealized_members(*args)
        if k == 2:
            a = np.linspace(0.001, 0.999, 1999)
            grid = np.stack([a, 1.0 - a], axis=1)
        else:
            a, b = np.meshgrid(np.linspace(0.002, 0.998, 499), np.linspace(0.002, 0.998, 499))
            grid = np.stack([a.ravel(), b.ravel(), 1.0 - a.ravel() - b.ravel()], axis=1)
            grid = grid[grid[:, 2] > 0.0]
        logcoef = gammaln(n + 1.0) - np.sum(gammaln(members + 1.0), axis=1)
        log_probs = logcoef[:, None] + members @ np.log(grid).T
        best = float(np.max(logsumexp(log_probs, axis=0))) / n
        assert report.log_prob_at_ml >= best - 1e-12
        assert report.log_prob_at_ml <= best + 1e-3

    def test_gate_cases_put_theta_ldp_at_the_centre(self):
        """In the acceptance gate's twelve cases theta_ldp is the idealized
        centre c0, where the rate surrogate is 0, whatever the search would
        have stood on; the gap at c0 and the worst plateau-vertex gap lie
        within the bound."""
        for k, thetaT in ((2, (0.5,)), (3, (0.4, 0.35))):
            pT = Categorical(k).probs(thetaT)
            for n in (50, 100, 200):
                c0 = largest_remainder_counts(pT, n) / n
                for eps in (0.05, 0.1):
                    report = ml_ldp_gap(Categorical(k), thetaT, Partition.atoms(k), eps, n)
                    assert report.theta_ldp == tuple(c0[:-1].tolist())
                    assert 0.0 <= report.gap <= report.plateau_gap <= report.bound and report.holds
                    V = PartitionNeighborhood(tuple(c0), eps)
                    assert neighborhood_inf_divergence(KL, V, c0) == 0.0

    def test_centre_with_an_empty_cell(self):
        """The idealized counts of (0.7, 0.299, 0.001) at n = 30 are (21, 9, 0).
        With ``zero_cells`` every member leaves the last cell empty, and EM
        keeps its mass at exactly 0.  Without it EM, which never charges a
        cell its start leaves empty, starts at the members' mean and finds a
        maximizer that charges the cell, above the centre-started fixed point."""
        args = (Categorical(3), (0.7, 0.299), Partition.atoms(3), 0.2, 30)
        on_face, charged = ml_ldp_gap(*args), ml_ldp_gap(*args, zero_cells=False)
        assert on_face.theta_ldp == charged.theta_ldp == (0.7, 0.3)
        assert on_face.holds and charged.holds
        assert 1.0 - sum(on_face.theta_ml) == pytest.approx(0.0, abs=1e-15)
        assert 1.0 - sum(charged.theta_ml) > 0.02
        V, members = sanov._idealized_members(*args, zero_cells=False)
        _, stuck = sanov._em_max(members, np.asarray(V.center))
        assert charged.log_prob_at_ml > stuck + 1e-4

    def test_tiny_radius_keeps_lattice_center(self):
        """The idealized center is itself a member at any radius."""
        model = Categorical(2)
        report = ml_ldp_gap(model, (0.5,), Partition.atoms(2), 0.004, 7)
        # Idealized counts for (0.5, 0.5) at n=7 are (4, 3).
        assert report.theta_ml[0] == pytest.approx(4.0 / 7.0, abs=1e-6)
        assert report.holds


# =============================================================================
# Tests: conditional Monte Carlo
# =============================================================================


class TestConditionalMC:
    """Seeded weighted-neighborhood frequency estimates."""

    def test_frozen_small_record(self):
        """A pinned configuration reproduces its frozen estimate."""
        record = conditional_ldp_mc(
            Categorical(2), (0.37,), (0.5,), PoissonOne(), Partition.atoms(2),
            0.05, 60, 2000, seed=3,
        )
        assert record.hits == 187 and type(record.hits) is int
        assert record.rate_estimate == pytest.approx(-0.039496564044791599, abs=1e-14)
        assert not record.one_sided

    def test_zero_hits_reports_one_sided_bound(self):
        """Unreached neighborhoods give a one-sided confidence statement."""
        record = conditional_ldp_mc(
            Categorical(2), (0.1,), (0.9,), PoissonOne(), Partition.atoms(2),
            0.01, 400, 200, seed=1,
        )
        assert record.hits == 0
        assert record.one_sided
        assert record.rate_estimate == -INF
        assert record.ci_hi == pytest.approx(math.log(3.0 / 200) / 400, abs=1e-12)

    def test_confidence_interval_brackets_estimate(self):
        """Two-sided records keep the rate inside the interval."""
        record = conditional_ldp_mc(
            Categorical(2), (0.4,), (0.5,), PoissonOne(), Partition.atoms(2),
            0.08, 50, 3000, seed=9,
        )
        assert record.ci_lo <= record.rate_estimate <= record.ci_hi

    @pytest.mark.parametrize(
        "law, hits",
        [
            pytest.param(PoissonOne(), [1216, 643], id="poisson1"),
            pytest.param(ExponentialOne(), [92, 7059], id="exp1"),
            pytest.param(ShiftedBernoulli(), [178, 37], id="twopoint"),
            pytest.param(NormalOneOne(), [4450, 5261], id="normal11"),
        ],
    )
    def test_benchmark_shape_hits_are_pinned(self, law, hits):
        """The benchmark's shape (theta 0.37 against 0.5, radius 0.05,
        n = 400) keeps its hit counts at two seeds."""
        args = (Categorical(2), (0.37,), (0.5,), law, Partition.atoms(2), 0.05, 400, 200_000)
        assert [conditional_ldp_mc(*args, seed=s).hits for s in (5, 11)] == hits

    def test_empty_center_cell_hits_are_pinned(self):
        """A three-cell center with an empty cell keeps its hit counts; the
        empty-cell rule is what separates the two counts."""
        args = (Categorical(3), (0.55, 0.43), (0.6, 0.38), PoissonOne(), Partition.atoms(3), 0.1, 40, 20_000)
        assert conditional_ldp_mc(*args, seed=1, zero_cells=True).hits == 2154
        assert conditional_ldp_mc(*args, seed=1, zero_cells=False).hits == 3636

    def test_small_replication_count_rejected(self):
        """Fewer than one hundred replications is a validation error."""
        with pytest.raises(ValidationError):
            conditional_ldp_mc(
                Categorical(2), (0.4,), (0.5,), PoissonOne(), Partition.atoms(2),
                0.05, 50, 10, seed=0,
            )


class TestShrinkingRadius:
    """Neighborhood infima along a shrinking radius."""

    def test_monotone_growth_to_point_divergence(self):
        """Shrinking radii drive the infimum up to the center divergence."""
        table = shrink_epsilon_limit(
            KL, [0.5, 0.5], [0.3, 0.7], [0.2, 0.1, 0.05, 0.01, 1e-4, 1e-6]
        )
        values = [row.inf_value for row in table.rows]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert table.monotone
        assert table.converged
        expect = 0.5 * math.log(0.5 / 0.3) + 0.5 * math.log(0.5 / 0.7)
        assert table.limit_value == pytest.approx(expect, abs=1e-12)

    def test_negative_reference_rejected(self):
        """Signed reference masses are a validation error."""
        with pytest.raises(ValidationError):
            shrink_epsilon_limit(KL, [0.5, 0.5], [1.2, -0.2], [0.1, 0.01])

    def test_reference_of_another_length_rejected(self):
        """Center and reference must have one mass per cell each."""
        with pytest.raises(ValidationError):
            shrink_epsilon_limit(KL, [0.5, 0.5], [0.3, 0.3, 0.4], [0.1, 0.01])

    def test_non_decreasing_grid_rejected(self):
        """The radius grid must strictly decrease."""
        with pytest.raises(ValidationError):
            shrink_epsilon_limit(KL, [0.5, 0.5], [0.3, 0.7], [0.1, 0.1])

    @pytest.mark.parametrize("eps_grid", [[], ()], ids=["list", "tuple"])
    def test_empty_grid_rejected(self, eps_grid):
        """An empty radius grid is a validation error, not an IndexError of the empty table."""
        with pytest.raises(ValidationError, match="at least one radius"):
            shrink_epsilon_limit(KL, [0.5, 0.5], [0.3, 0.7], eps_grid)

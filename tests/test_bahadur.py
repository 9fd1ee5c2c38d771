"""Unit tests for test-statistic slopes and the efficiency ordering."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlab.bahadur import (
    GRID_STEP,
    REFINE_STARTS,
    FunctionalStatistic,
    _ascending,
    _cell_divergence_rows,
    _lattice_masses,
    _simplex_grid,
    _start_indices,
    efficiency_compare,
    empirical_slope_trend,
    slope_generic,
    slope_min_divergence,
)
from divlab.cli import _make_statistic
from divlab.divergences import INF, ConjugateSpec, CressieRead, cell_divergence
from divlab.errors import ValidationError
from divlab.estimation import WeightedEmpiricalMeasure, estimate_phi_dual
from divlab.models import Categorical, GaussianLocation
from divlab import bahadur
from divlab.sanov import enumerate_count_vectors
from divlab.weights import (
    ExponentialOne,
    NormalOneOne,
    PoissonOne,
    ShiftedBernoulli,
    induced_divergence,
    weight_law,
)


#: the scan's lattice: every grid mass is a count over ``M``
M = round(1 / GRID_STEP)

LAW_TOKENS = ("poisson1", "exp1", "twopoint", "normal11")


@pytest.fixture
def pair_model():
    """Two-cell model with the alternative and null of the shipped fixture."""
    return Categorical(2), (0.4,), (0.2,)


def _mass_gap_statistic():
    """First-cell mass deviation as a smooth functional."""

    def evaluator(p, q):
        return abs(float(q[0]) - float(p[0]))

    return FunctionalStatistic(evaluator, "first_cell_gap")


def _relative_entropy(q, p):
    """``sum_j q_j log(q_j / p_j)`` over cells with positive masses."""
    return math.fsum(qj * math.log(qj / pj) for qj, pj in zip(q, p))


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


def _reference_cell_divergence_rows(spec, p_theta, rows):
    """The per-column ``np.unique`` grid kernel, kept as the reference."""
    terms = np.empty(rows.shape)
    for j, pj in enumerate(p_theta):
        masses, inverse = np.unique(rows[:, j], return_inverse=True)
        charged = masses > 0.0
        column = np.full(masses.shape, INF if pj > 0.0 else 0.0)
        column[charged] = masses[charged] * spec.value_array(pj / masses[charged])
        terms[:, j] = column[inverse]
    out = np.sum(terms, axis=1)
    return np.where(np.isfinite(out), out, INF)


def _reference_simplex_grid(k, m):
    """The former float grid constructions, kept as the reference: meshgrid
    and mask for three cells, a mass and its complement for two."""
    if k == 2:
        q1 = np.arange(m + 1) / m
        return np.stack([q1, 1.0 - q1], axis=1)
    a, b = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    mask = a + b <= m
    a, b = a[mask], b[mask]
    return np.stack([a / m, b / m, (m - a - b) / m], axis=1)


def _float_rows(counts, m):
    """The cell masses of each row of ``counts`` on the lattice ``i / m``."""
    k = counts.shape[1]
    return _lattice_masses(k, m)[np.arange(k), counts]


def _reference_start_indices(cand, values):
    """The start walk over the float rows and a full stable argsort, kept as the reference."""
    starts = []
    for idx in np.argsort(values, kind="stable"):
        if all(np.max(np.abs(cand[idx] - cand[s])) > 5 * GRID_STEP for s in starts):
            starts.append(idx)
            if len(starts) == REFINE_STARTS:
                break
    return starts


@st.composite
def _scan_candidates(draw):
    """Candidate counts near a corner of the two-cell lattice, their values
    (ties and +inf likely) and a selection block that may be shorter than
    the walk."""
    n = draw(st.integers(1, 40))
    spread = draw(st.integers(0, 14))
    cells = draw(st.lists(st.integers(0, spread), min_size=2 * n, max_size=2 * n))
    cand = np.array(cells, dtype=np.uint16).reshape(n, 2)
    value = st.one_of(st.sampled_from([0.0, 0.25, 1.0, INF]), st.floats(0.0, 4.0))
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return cand, values, draw(st.integers(1, n + 2))


# =============================================================================
# Tests: the simplex scan's grid and start selection
# =============================================================================


class TestScanPieces:
    """The lattice and the refinement starts against their reference constructions."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10, 20, 40, 80, 255, 256, 1000])
    def test_lattice_masses_equal_the_float_grid(self, k, m):
        """The counts' masses are the former float grid's: same rows, same order, same bits."""
        rows, ref = _float_rows(_simplex_grid(k, 1.0 / m), m), _reference_simplex_grid(k, m)
        assert rows.shape == ref.shape and rows.dtype == ref.dtype
        assert rows.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 255, 256, 300])
    def test_scan_and_enumeration_share_one_lattice(self, k, n):
        """The scan's counts are the exact enumeration's, in a small unsigned type."""
        counts = _simplex_grid(k, 1.0 / n)
        assert counts.dtype.kind == "u" and counts.dtype.itemsize <= 2 and np.all(counts.sum(axis=1) == n)
        np.testing.assert_array_equal(counts, enumerate_count_vectors(k, n))

    @settings(max_examples=300, deadline=None)
    @given(_scan_candidates())
    # ties at the block's edge; +inf; one cluster, so fewer than three starts
    # and a walk through the whole order past a one-row block
    @example((np.zeros((5, 2), dtype=np.uint16), np.array([1.0, 0.0, 1.0, INF, 1.0]), 2))
    # three separated starts, the third found past a two-row block
    @example((np.array([[0, 0], [0, 1], [10, 0], [0, 10]], dtype=np.uint16), np.array([0.0, 0.0, 1.0, INF]), 2))
    def test_starts_follow_the_stable_argsort_order(self, case):
        """Partial selection yields the stable argsort order, so the walk picks the reference starts."""
        cand, values, head = case
        assert list(_ascending(values, head)) == np.argsort(values, kind="stable").tolist()
        masses = _lattice_masses(2, M)
        assert _start_indices(cand, masses, values, head) == _reference_start_indices(_float_rows(cand, M), values)


# =============================================================================
# Tests: cell divergences on the simplex grid
# =============================================================================


class TestCellDivergenceRows:
    """The vectorized count kernel against the scalar routine and the former float kernel."""

    @pytest.mark.parametrize("law", [PoissonOne(), ExponentialOne(), ShiftedBernoulli()])
    @pytest.mark.parametrize("p_theta", [(0.3, 0.3, 0.4), (0.6, 0.4, 0.0)])
    def test_rows_match_scalar_routine_on_k3_grid_slice(self, law, p_theta):
        """Every row of a k=3 lattice slice, boundary rows included, matches."""
        spec = induced_divergence(law)
        p = np.asarray(p_theta)
        counts = _simplex_grid(3, GRID_STEP)[::499]
        rows = _float_rows(counts, M)
        assert np.any(rows == 0.0)
        scalar = [cell_divergence(spec, p, q) for q in rows]
        assert scalar == [_reference_cell_divergence(spec, p, q) for q in rows]
        got = _cell_divergence_rows(spec, p, counts, _lattice_masses(3, M))
        np.testing.assert_allclose(got, scalar, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "spec",
        # generators without array forms: the two-point transform's conjugate,
        # and the Kullback-Leibler generator written as the conjugate of index 0
        [ConjugateSpec(induced_divergence(ShiftedBernoulli())), ConjugateSpec(CressieRead(0.0))],
        ids=["twopoint_conjugate", "kl_as_conjugate"],
    )
    @pytest.mark.parametrize("p_theta", [(0.3, 0.3, 0.4), (0.6, 0.4, 0.0)])
    def test_numeric_generator_rows_equal_scalar_routine_exactly(self, spec, p_theta):
        """Bit-equal to the scalar routine, rows that share a null cell with ``p_theta`` included."""
        p = np.asarray(p_theta)
        lattice = _simplex_grid(3, GRID_STEP)
        counts = np.concatenate([lattice[::499], lattice[lattice[:, 2] == 0][::97]])
        scalar = np.array([cell_divergence(spec, p, q) for q in _float_rows(counts, M)])
        if p_theta[2] == 0.0:
            assert np.any(np.isfinite(scalar)) and np.any(np.isinf(scalar))
        np.testing.assert_array_equal(_cell_divergence_rows(spec, p, counts, _lattice_masses(3, M)), scalar)

    @pytest.mark.parametrize("token", LAW_TOKENS)
    @pytest.mark.parametrize("p_theta", [(0.3, 0.3, 0.4), (0.6, 0.4, 0.0)], ids=["full", "empty_cell"])
    def test_count_lookup_equals_the_unique_kernel_on_the_k3_grid(self, token, p_theta):
        """Same bits as the ``np.unique`` kernel on the float rows of all 501,501 counts."""
        spec, p = induced_divergence(weight_law(token)), np.asarray(p_theta)
        lattice = _simplex_grid(3, GRID_STEP)
        got = _cell_divergence_rows(spec, p, lattice, _lattice_masses(3, M))
        assert got.tobytes() == _reference_cell_divergence_rows(spec, p, _float_rows(lattice, M)).tobytes()

    @pytest.mark.parametrize("token", LAW_TOKENS)
    @pytest.mark.parametrize(
        "theta, theta_prime", [((0.3, 0.3), (0.2, 0.4)), ((0.2, 0.4), (0.55, 0.225))], ids=["poisson1", "twopoint"]
    )
    def test_count_lookup_equals_the_unique_kernel_on_feasible_rows(self, token, theta, theta_prime):
        """Same bits on the counts the benchmark's k=3 cell-mass scans keep.

        The mask is the first-cell gap ``|q_0 - p_0| >= level``, the
        feasibility test of :func:`slope_generic`, written over the columns.
        """
        model = Categorical(3)
        spec, p = induced_divergence(weight_law(token)), model.probs(theta)
        level = abs(float(model.probs(theta_prime)[0]) - float(p[0]))
        lattice = _simplex_grid(3, GRID_STEP)
        cand = lattice[np.abs(lattice[:, 0] / M - p[0]) >= level - 1e-12]
        assert 0 < cand.shape[0] < lattice.shape[0]
        got = _cell_divergence_rows(spec, p, cand, _lattice_masses(3, M))
        assert got.tobytes() == _reference_cell_divergence_rows(spec, p, _float_rows(cand, M)).tobytes()

    @pytest.mark.parametrize("token", LAW_TOKENS)
    @pytest.mark.parametrize("p_theta", [(0.4, 0.6), (1.0, 0.0)], ids=["full", "empty_cell"])
    def test_count_lookup_equals_the_unique_kernel_on_k2_grids(self, token, p_theta):
        """Same bits on the tail trend's tables, looked up by the sample size."""
        spec, p = induced_divergence(weight_law(token)), np.asarray(p_theta)
        for n in [7, 10, 20, 40, 77, 80, 400, 1000]:
            counts = _simplex_grid(2, 1.0 / n)
            got = _cell_divergence_rows(spec, p, counts, _lattice_masses(2, n))
            assert got.tobytes() == _reference_cell_divergence_rows(spec, p, _float_rows(counts, n)).tobytes()

    def test_one_generator_value_per_distinct_count_of_each_cell(self, monkeypatch):
        """A full k=3 lattice call evaluates each cell's term once per distinct positive count.

        Each cell takes the 1,001 counts ``0 .. 1000``, so the generator sees
        3,000 points instead of one per cell (1,501,503 cells).
        """
        spec = induced_divergence(ShiftedBernoulli())
        points = []
        value_array = type(spec).value_array

        def counted(self, x, order=0):
            points.extend(np.ravel(x).tolist())
            return value_array(self, x, order)

        monkeypatch.setattr(type(spec), "value_array", counted)
        lattice, masses = _simplex_grid(3, GRID_STEP), _lattice_masses(3, M)
        p = np.array([0.2, 0.4, 0.4])
        out = _cell_divergence_rows(spec, p, lattice, masses)
        assert out.shape == (501501,)
        assert all(np.unique(lattice[:, j]).size == 1001 for j in range(3))
        assert points == [x for pj in p for x in (pj / masses[0, 1:]).tolist()]
        assert len(points) == 3000

    def test_k3_lattice_stays_on_the_simplex(self):
        """Every count vector sums to ``M``, and the 1,001 edge rows hold an exact zero third mass."""
        lattice = _simplex_grid(3, GRID_STEP)
        assert lattice.dtype == np.uint16 and np.all(lattice.sum(axis=1) == M)
        assert np.count_nonzero(lattice[:, 2] == 0) == 1001
        np.testing.assert_array_equal(np.unique(_float_rows(lattice, M)[:, 2]), np.arange(1001) / 1000)


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
        expect = -2.0 * _relative_entropy([0.4, 0.6], [0.2, 0.8])
        assert out == pytest.approx(expect, abs=1e-12)

    def test_exponential_weights_swap_the_arguments(self, pair_model):
        """The likelihood-type law reverses the relative entropy direction."""
        model, theta, theta_prime = pair_model
        out = slope_min_divergence(model, ExponentialOne(), theta, theta_prime)
        expect = -2.0 * _relative_entropy([0.2, 0.8], [0.4, 0.6])
        assert out == pytest.approx(expect, abs=1e-12)

    def test_no_separation_gives_zero(self, pair_model):
        """Coinciding parameters give slope zero."""
        model, theta, _ = pair_model
        assert slope_min_divergence(model, PoissonOne(), theta, theta) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unreachable_separation_is_negative_infinity(self):
        """A bounded generator on an unbounded ratio drops to -inf."""
        out = slope_min_divergence(GaussianLocation(), ShiftedBernoulli(), 0.9, 0.1)
        assert out == -INF


# =============================================================================
# Tests: generic-statistic slope
# =============================================================================


class TestGenericSlope:
    """Constrained slope of an arbitrary continuous functional."""

    def test_frozen_cell_gap_value(self, pair_model):
        """The first-cell-gap statistic reproduces its frozen slope."""
        model, theta, theta_prime = pair_model
        rec = slope_generic(model, PoissonOne(), _mass_gap_statistic(), theta, theta_prime)
        assert rec.slope == pytest.approx(-0.16218604324253733, abs=1e-9)

    def test_minimizer_attains_the_constraint(self, pair_model):
        """The reported minimizer reaches the alternative's statistic level."""
        model, theta, theta_prime = pair_model
        stat = _mass_gap_statistic()
        rec = slope_generic(model, PoissonOne(), stat, theta, theta_prime)
        p_null = tuple(model.probs(theta).tolist())
        level = stat.evaluator(p_null, model.probs(theta_prime))
        attained = stat.evaluator(p_null, np.asarray(rec.minimizer))
        assert attained >= level - 1e-6

    def test_divergence_functional_recovers_min_slope(self, pair_model):
        """Using the divergence itself as the functional closes the gap."""
        model, theta, theta_prime = pair_model
        spec = induced_divergence(PoissonOne())

        def evaluator(p, q):
            return cell_divergence(spec, p, np.asarray(q, dtype=float))

        rec = slope_generic(
            model, PoissonOne(), FunctionalStatistic(evaluator, "divergence"), theta, theta_prime
        )
        expect = slope_min_divergence(model, PoissonOne(), theta, theta_prime)
        assert rec.slope == pytest.approx(expect, abs=2e-3)

    @pytest.mark.parametrize("token", LAW_TOKENS)
    def test_closed_form_infimum_matches_the_k2_scan(self, token, pair_model):
        """The divergence statistic's closed-form infimum gives the slope the
        scan finds, the divergence statistic's own slope bit for bit, and
        the alternative as its minimizer."""
        model, theta, theta_prime = pair_model
        self._check_closed_form_against_the_scan(model, weight_law(token), theta, theta_prime)

    @pytest.mark.parametrize("token", ["poisson1", "exp1", "normal11"])
    def test_closed_form_infimum_matches_the_k3_scan(self, token, monkeypatch):
        """At k = 3 too, on a coarser scan that keeps the one-call-per-point
        divergence evaluator quick."""
        monkeypatch.setattr(bahadur, "GRID_STEP", 0.01)
        self._check_closed_form_against_the_scan(Categorical(3), weight_law(token), (0.3, 0.3), (0.2, 0.4))

    @staticmethod
    def _check_closed_form_against_the_scan(model, law, theta, theta_prime):
        stat = _make_statistic("divergence", model, law)
        assert stat.infimum is not None
        closed = slope_generic(model, law, stat, theta, theta_prime)
        scanned = slope_generic(model, law, FunctionalStatistic(stat.evaluator, stat.name), theta, theta_prime)
        assert closed.slope == pytest.approx(scanned.slope, abs=1e-11)
        assert closed.slope == slope_min_divergence(model, law, theta, theta_prime)
        assert closed.minimizer == tuple(model.probs(theta_prime).tolist())

    def test_k3_scan_peak_memory(self):
        """One k=3 cell-mass slope peaks at 15 MB of traced allocations or less.

        The scan holds integer counts (3 MB), never the float grid (12 MB):
        the evaluator reads float rows built a block at a time, and the
        divergence pass looks cell terms up by count.
        """
        model, law = Categorical(3), PoissonOne()
        stat = _make_statistic("cell_mass", model, law)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            slope_generic(model, law, stat, (0.3, 0.3), (0.2, 0.4))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 15e6

    def test_more_than_three_cells_rejected(self):
        """The scan covers the two- and three-cell simplex only."""
        model = Categorical(4)
        with pytest.raises(ValidationError, match="at most three cells"):
            slope_generic(model, PoissonOne(), _mass_gap_statistic(), (0.25,) * 3, (0.1, 0.2, 0.3))

    def test_nonvanishing_null_statistic_rejected(self, pair_model):
        """Functionals that do not vanish at the null fail validation."""
        model, theta, theta_prime = pair_model
        bad = FunctionalStatistic(lambda p, q: 1.0, "constant_one")
        with pytest.raises(ValidationError):
            slope_generic(model, PoissonOne(), bad, theta, theta_prime)


class TestEfficiencyComparison:
    """Ordering between the divergence statistic and competitors."""

    def test_ordering_statement_holds(self, pair_model):
        """The generic slope is never more negative than the divergence slope."""
        model, theta, theta_prime = pair_model
        rec = efficiency_compare(
            model, PoissonOne(), _mass_gap_statistic(), theta, theta_prime
        )
        assert rec.ordering_holds
        assert rec.slope_generic >= rec.slope_min_divergence - 1e-9
        assert abs(rec.slope_generic) <= abs(rec.slope_min_divergence) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        p1=st.floats(0.01, 0.99),
        p1_alt=st.floats(0.01, 0.99),
        token=st.sampled_from(LAW_TOKENS),
        psi=st.sampled_from(["cell_mass", "divergence"]),
    )
    # a Nelder-Mead refinement jumped the infeasible band here and missed the
    # near side, reading -3.0289e-4
    @example(p1=0.3333333333333333, p1_alt=0.3415033039250778, token="poisson1", psi="cell_mass")
    def test_ordering_holds_on_two_cells(self, p1, p1_alt, token, psi):
        """On two cells, neither CLI statistic's slope is more negative than
        the divergence statistic's, for any null and alternative and every
        weight law."""
        model, law = Categorical(2), weight_law(token)
        rec = slope_generic(model, law, _make_statistic(psi, model, law), (p1,), (p1_alt,))
        assert rec.slope >= slope_min_divergence(model, law, (p1,), (p1_alt,)) - 1e-9

    def test_both_sign_conventions_recorded(self, pair_model):
        """The record states the ordering in signed and magnitude form."""
        model, theta, theta_prime = pair_model
        rec = efficiency_compare(
            model, PoissonOne(), _mass_gap_statistic(), theta, theta_prime
        )
        assert "slope_generic >= slope_min_divergence" == rec.signed_statement
        assert "|slope_generic| <= |slope_min_divergence|" == rec.magnitude_statement

    def test_serialization_fields(self, pair_model):
        """Records expose both slopes and the minimizer."""
        model, theta, theta_prime = pair_model
        out = efficiency_compare(
            model, PoissonOne(), _mass_gap_statistic(), theta, theta_prime
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
    def test_statistic_table_is_the_dual_estimate(self, law):
        """Per count, the plug-in cell divergence equals the closed-form dual
        supremum on that count's measure, its +inf cells included.  The two
        counts that leave a cell empty differ for exp1 (index 0), where
        phi'(inf) = 1: there the supremum is the finite edge limit, the
        charged cell's term plus wbar p_j, while the table reads +inf."""
        model, spec = Categorical(2), induced_divergence(law)
        p = model.probs((0.4,))
        for n in [7, 10, 20, 77]:
            table = _cell_divergence_rows(spec, p, _simplex_grid(2, 1.0 / n), _lattice_masses(2, n))
            for c in range(n + 1):
                # weights 2 * mass reproduce the cell masses on the two atoms
                mu = WeightedEmpiricalMeasure(model.atoms, (2 * (c / n), 2 * (1.0 - c / n)))
                dual, _ = estimate_phi_dual(model, spec, (0.4,), mu)
                if c in (0, n) and law.token == "exp1":
                    charged = 0 if c == n else 1
                    assert dual == pytest.approx(spec.value(p[charged], 0) + p[1 - charged], rel=1e-15)
                else:
                    assert dual == pytest.approx(table[c], rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize(
        "law", [PoissonOne(), ExponentialOne(), ShiftedBernoulli(), NormalOneOne()], ids=lambda law: law.token
    )
    def test_null_alternative_hits_every_replication(self, law):
        """At theta_prime = theta the threshold is 0, which every value of the
        statistic reaches; the slope and its target are +0, never -0."""
        table = empirical_slope_trend(
            Categorical(2), law, (0.4,), (0.4,), [10, 20, 40, 80], 1000, seed=3
        )
        for row in table.rows:
            assert row.threshold == 0.0
            assert row.hits == row.reps
            assert row.slope_estimate == 0.0
            assert math.copysign(1.0, row.slope_target) == 1.0 and row.slope_target == 0.0

    @pytest.mark.parametrize(
        "law, hits",
        [
            pytest.param(PoissonOne(), [674, 385, 122, 11], id="poisson1"),
            pytest.param(ExponentialOne(), [674, 385, 122, 11], id="exp1"),
            pytest.param(ShiftedBernoulli(), [674, 233, 58, 2], id="twopoint"),
            pytest.param(NormalOneOne(), [674, 233, 80, 5], id="normal11"),
        ],
    )
    def test_benchmark_config_hits_are_pinned(self, law, hits):
        """The benchmark's trend (theta 0.4 against 0.2, n = 10 to 80, 2000
        replications) keeps its hit counts at a fixed seed."""
        table = empirical_slope_trend(
            Categorical(2), law, (0.4,), (0.2,), [10, 20, 40, 80], 2000, seed=5
        )
        assert [row.hits for row in table.rows] == hits

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

    def test_infinite_threshold_rejected(self):
        """A twopoint alternative with a cell under half the null's mass puts
        the threshold at +inf, which no trend can probe."""
        with pytest.raises(ValidationError, match=r"threshold is \+inf"):
            empirical_slope_trend(
                Categorical(2), ShiftedBernoulli(), (0.4,), (0.1,), [10, 20], 1000, seed=0
            )

    def test_small_replication_count_rejected(self):
        """Fewer than one thousand replications is a validation error."""
        with pytest.raises(ValidationError):
            empirical_slope_trend(
                Categorical(2), PoissonOne(), (0.4,), (0.2,), [30], 10, seed=0
            )

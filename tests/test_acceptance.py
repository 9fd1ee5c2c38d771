"""Acceptance gates: ten pinned behavioral checks, one verdict line each."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from divlab.bahadur import (
    FunctionalStatistic,
    slope_generic,
    slope_min_divergence,
)
from divlab.cli import main
from divlab.clt import (
    STATISTIC_MAP,
    estimator_distribution_compare,
    weighted_clt_check,
)
from divlab.divergences import (
    CressieRead,
    FiniteMeasure,
    cell_divergence,
    conjugate,
    divergence_finite,
)
from divlab.estimation import (
    WeightedEmpiricalMeasure,
    build_weighted_empirical,
    minimum_dual_estimator,
)
from divlab.models import Categorical, GaussianLocation, PoissonNatural
from divlab.reporting import read_data_csv
from divlab.sanov import (
    Partition,
    conditional_ldp_mc,
    ml_ldp_gap,
    sanov_rate_convergence,
)
from divlab.seeding import derive_seed, derived_rng
from divlab.weights import (
    ExponentialOne,
    NormalOneOne,
    PoissonOne,
    ShiftedBernoulli,
    chernoff,
    induced_divergence,
)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

GAMMAS = (-1.0, 0.0, 0.5, 1.0, 2.0)

GOLDEN_CONFIGS = (
    (
        ["chernoff", "--law", "poisson1", "--grid", "0.5:3:6"],
        "chernoff_poisson1",
        ("csv", "json"),
    ),
    (
        ["divergence", "--gamma", "0.5", "--grid", "0.5:2:4"],
        "divergence_gamma_half",
        ("csv", "json"),
    ),
    (
        ["estimate", "--model", "gauss_loc", "--gamma", "0",
         "--data", str(DATA_DIR / "regression_points.csv")],
        "estimate_gauss",
        ("json",),
    ),
    (
        ["sanov", "--mode", "mc", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5",
         "--epsilon", "0.05", "--n", "60", "--reps", "2000", "--seed", "3",
         "--law", "poisson1"],
        "sanov_mc_small",
        ("csv", "json"),
    ),
)


def _verdict(index: int, name: str, ok: bool) -> bool:
    print(f"[criterion {index:02d}] {'PASS' if ok else 'FAIL'} {name}")
    return ok


# =============================================================================
# Acceptance gates
# =============================================================================


class TestAcceptance:
    """End-to-end behavioral gates with pinned tolerances."""

    def test_01_chernoff_closed_forms(self):
        """Legendre rates match the three closed forms on a fixed grid."""
        t0 = time.perf_counter()
        xs = np.linspace(0.1, 5.0, 50)
        forms = (
            (PoissonOne(), lambda x: x * math.log(x) - x + 1.0),
            (ExponentialOne(), lambda x: x - 1.0 - math.log(x)),
            (NormalOneOne(), lambda x: 0.5 * (x - 1.0) ** 2),
        )
        worst = max(
            abs(chernoff(law, float(x)) - form(float(x)))
            for law, form in forms
            for x in xs
        )
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed < 1.0
        assert _verdict(1, "chernoff closed forms", ok), (worst, elapsed)

    def test_02_conjugation_duality(self):
        """Swapping measure arguments equals conjugating the generator."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            q = FiniteMeasure.from_probs(rng.uniform(0.05, 2.0, size=3))
            p = FiniteMeasure.from_probs(rng.uniform(0.05, 2.0, size=3))
            for g in GAMMAS:
                spec = CressieRead(g)
                gap = abs(
                    divergence_finite(spec, q, p)
                    - divergence_finite(conjugate(spec), p, q)
                )
                worst = max(worst, gap)
        ok = worst <= 1e-12
        assert _verdict(2, "conjugation duality", ok), worst

    def test_03_finite_occupation_rate(self):
        """Exact occupation rates converge monotonically to the cell score."""
        t0 = time.perf_counter()
        table = sanov_rate_convergence(Categorical(2), (0.3,), (0.5,), [50, 200, 800, 2000])
        gaps = [row.gap for row in table.rows]
        target = table.rows[-1].rate_target
        elapsed = time.perf_counter() - t0
        ok = (
            gaps[-1] <= 0.005
            and all(a > b for a, b in zip(gaps, gaps[1:]))
            and abs(target + 0.087176) <= 1e-5
            and elapsed < 5.0
        )
        assert _verdict(3, "finite occupation rate", ok), (gaps, target, elapsed)

    def test_04_exact_rate_sandwich(self):
        """Exact-likelihood and rate maximizers stay within the counting bound."""
        ok = True
        for k, thetaT in ((2, (0.5,)), (3, (0.4, 0.35))):
            for n in (50, 100, 200):
                for eps in (0.05, 0.1):
                    rep = ml_ldp_gap(Categorical(k), thetaT, Partition.atoms(k), eps, n)
                    ok &= rep.holds and 0.0 <= rep.gap <= rep.bound + 1e-12
        assert _verdict(4, "exact-rate sandwich", ok)

    def test_05_weighted_score_identity(self):
        """Dual estimates solve the self-normalized score equation."""
        models = (GaussianLocation(), PoissonNatural())
        laws = (PoissonOne(), ExponentialOne(), NormalOneOne())
        thetas = (0.4, 0.3)
        worst = 0.0
        converged = True
        for i in range(20):
            model = models[i % 2]
            law = laws[i % 3]
            x = model.sample(thetas[i % 2], 50, derived_rng(2025, "data", i))
            mu = build_weighted_empirical(
                tuple(map(float, x)), law, derive_seed(2025, "weights", i)
            )
            w = np.asarray(mu.weights)
            target = float(np.sum(w * np.asarray(x)) / np.sum(w))
            spec = conjugate(induced_divergence(law))
            rep = minimum_dual_estimator(model, spec, mu)
            converged &= rep.converged
            worst = max(worst, abs(rep.theta_hat - model.solve_score(target)))
        ok = converged and worst <= 1e-4
        assert _verdict(5, "weighted score identity", ok), worst

    def test_06_unit_coincidence_and_law_specificity(self):
        """Unit weights erase the index; stored weight draws do not."""
        pts, _ = read_data_csv(DATA_DIR / "regression_points.csv")
        mu = WeightedEmpiricalMeasure.plain(tuple(map(float, pts)))
        gauss = [
            minimum_dual_estimator(GaussianLocation(), CressieRead(g), mu).theta_hat
            for g in GAMMAS
        ]
        counts = PoissonNatural().sample(0.3, 50, derived_rng(2025, "counts"))
        mu_counts = WeightedEmpiricalMeasure.plain(tuple(map(float, counts)))
        poisson = [
            minimum_dual_estimator(PoissonNatural(), CressieRead(g), mu_counts).theta_hat
            for g in GAMMAS
        ]
        fixture_fits = {}
        for stem, law in (
            ("regression_poisson1", PoissonOne()),
            ("regression_normal11", NormalOneOne()),
        ):
            points, weights = read_data_csv(DATA_DIR / f"{stem}.csv")
            mu_fix = WeightedEmpiricalMeasure(
                tuple(map(float, points)), tuple(map(float, weights))
            )
            spec = conjugate(induced_divergence(law))
            fixture_fits[stem] = minimum_dual_estimator(
                GaussianLocation(), spec, mu_fix
            ).theta_hat
        ok = (
            max(gauss) - min(gauss) <= 1e-4
            and max(poisson) - min(poisson) <= 1e-4
            and abs(
                fixture_fits["regression_poisson1"]
                - fixture_fits["regression_normal11"]
            ) > 1e-3
        )
        assert _verdict(6, "unit coincidence and law specificity", ok)

    def test_07_conditional_rate_monte_carlo(self):
        """Weighted neighborhood frequencies track the induced rate target."""
        t0 = time.perf_counter()
        args = (Categorical(2), (0.37,), (0.5,), PoissonOne(), Partition.atoms(2), 0.05)
        r400 = conditional_ldp_mc(*args, 400, 100000, seed=11)
        r100 = conditional_ldp_mc(*args, 100, 100000, seed=11)
        rel400 = abs(r400.rate_estimate - r400.rate_target) / abs(r400.rate_target)
        rel100 = abs(r100.rate_estimate - r100.rate_target) / abs(r100.rate_target)
        elapsed = time.perf_counter() - t0
        ok = rel400 <= 0.25 and rel400 < rel100 and elapsed < 60.0
        assert _verdict(7, "conditional rate monte carlo", ok), (rel400, rel100, elapsed)

    def test_08_slope_ordering(self):
        """Generic functional slopes never beat the divergence statistic."""
        model, theta, theta_prime = Categorical(2), (0.4,), (0.2,)
        law = PoissonOne()
        smin = slope_min_divergence(model, law, theta, theta_prime)

        def gap_eval(th, q):
            return abs(float(q[0]) - float(model.probs(th)[0]))

        rec_gap = slope_generic(
            model, law, FunctionalStatistic(gap_eval, "first_cell_gap"), theta, theta_prime
        )
        spec = induced_divergence(law)

        def div_eval(th, q):
            return cell_divergence(spec, model.probs(th), np.asarray(q, dtype=float))

        rec_div = slope_generic(
            model, law, FunctionalStatistic(div_eval, "divergence"), theta, theta_prime
        )
        ok = rec_gap.slope >= smin and abs(rec_div.slope - smin) <= 2e-3
        assert _verdict(8, "slope ordering", ok), (smin, rec_gap.slope, rec_div.slope)

    def test_09_normality_and_variance_gates(self):
        """Standardized weighted means and estimator spreads pass their gates."""
        t0 = time.perf_counter()
        points = GaussianLocation().sample(0.0, 500, derived_rng(42, "points"))
        laws = (PoissonOne(), ExponentialOne(), NormalOneOne(), ShiftedBernoulli(0.5))
        gates = all(
            weighted_clt_check(points, law, STATISTIC_MAP["identity"], 2000, 42).passed
            for law in laws
        )
        compare = estimator_distribution_compare(
            GaussianLocation(), PoissonOne(), CressieRead(1.0), 0.0, 500, 1000, seed=7
        )
        elapsed = time.perf_counter() - t0
        ok = (
            gates
            and compare.passed
            and 0.8 <= compare.moments["ratio"] <= 1.25
            and elapsed < 300.0
        )
        assert _verdict(9, "normality and variance gates", ok), (
            gates, compare.moments, elapsed,
        )

    def test_10_cli_determinism(self, tmp_path):
        """Golden artifacts regenerate byte-identically across runs."""
        ok = True
        for tag in ("a", "b", "c"):
            for argv, label, _ in GOLDEN_CONFIGS:
                out = tmp_path / tag
                ok &= main(argv + ["--out", str(out), "--label", label]) == 0
        for _, label, suffixes in GOLDEN_CONFIGS:
            for suffix in suffixes:
                name = f"{label}.{suffix}"
                first = (tmp_path / "a" / name).read_bytes()
                rerun = (tmp_path / "b" / name).read_bytes()
                third = (tmp_path / "c" / name).read_bytes()
                stored = (GOLDEN_DIR / name).read_bytes()
                ok &= first == rerun == third == stored
        assert _verdict(10, "cli determinism", ok)

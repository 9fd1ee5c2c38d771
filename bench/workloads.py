"""The four benchmark workloads: inputs made from the seed, operations, checks.

``cli_mix`` is a list of ``python -m divlab.cli`` invocations that the parent
process launches one at a time.  The other three workloads run in one worker
interpreter; their operations are closures over inputs built from the seed.

Importing this module imports neither numpy nor divlab, so the parent stays
light; the in-process workload functions import divlab when called.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli_mix", "estimator_spread", "slope_scan", "tail_mc")

#: simplex resolution of the slope statistic (grid step 1e-3)
GRID_RESOLUTION = 1000


def grid_points(k: int, m: int = GRID_RESOLUTION) -> int:
    """Points of the k-cell simplex grid with step 1/m: C(m + k - 1, k - 1)."""
    return math.comb(m + k - 1, k - 1)


def _rng(workload: str, seed: int) -> random.Random:
    # a str seed goes through SHA-512, so the stream is stable across runs
    return random.Random(f"{workload}:{seed}")


def _pair(p: float) -> str:
    """Two cell masses that sum to one, as a CLI probability vector."""
    return f"{p!r},{1.0 - p!r}"


# ---------------------------------------------------------------------------
# cli_mix: one closed-loop cycle through the six subcommands.
# ---------------------------------------------------------------------------

@dataclass
class CliOp:
    """One CLI invocation and the check of what it wrote."""

    name: str
    argv: list
    label: str
    check: Callable[[Path, str], bool]
    twin: str | None = None  # name of an identical earlier run to diff against


def _golden(root: Path, suffixes):
    def check(out: Path, label: str) -> bool:
        return all(
            (out / f"{label}.{s}").read_bytes() == (root / "tests" / "golden" / f"{label}.{s}").read_bytes()
            for s in suffixes
        )

    return check


def _load(out: Path, label: str) -> dict:
    # the writers quote non-finite reals, so float() maps them back
    return json.loads((out / f"{label}.json").read_text(encoding="utf-8"))


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _flag(key: str, *finite_keys):
    def check(out: Path, label: str) -> bool:
        doc = _load(out, label)
        return doc[key] is True and _finite(*(doc[k] for k in finite_keys))

    return check


def _clt_moments_ok(out: Path, label: str) -> bool:
    doc = _load(out, label)
    return all(_finite(*part["moments"].values()) for part in (doc["lln"], doc["clt"]))


def _clt_estimator_ok(out: Path, label: str) -> bool:
    doc = _load(out, label)
    reps, det = doc["reps"], doc["details"]
    # the program's own rule: at most 5% of replications on the box boundary
    return (
        det["failures_weighted"] <= 0.05 * reps
        and det["failures_plain"] <= 0.05 * reps
        and _finite(*doc["moments"].values())
    )


def _estimate_ok(out: Path, label: str) -> bool:
    doc = _load(out, label)
    return _finite(doc["theta_hat"], doc["alpha_hat"], doc["value"])


def _trend_ok(out: Path, label: str) -> bool:
    rows = _load(out, label)["rows"]
    return bool(rows) and all(_finite(r["threshold"], r["slope_target"]) for r in rows)


def cli_ops(root: Path, seed: int, work: Path) -> list:
    """The cli_mix cycle; seeded inputs are drawn from ``seed``.

    Writes the data file of the ``estimate`` run into ``work``.
    """
    rng = _rng("cli_mix", seed)
    data = work / "points.csv"
    data.write_text(
        "x\n" + "".join(f"{rng.gauss(0.3, 1.0)!r}\n" for _ in range(200)), encoding="utf-8"
    )
    s = [rng.randrange(1, 1_000_000) for _ in range(5)]
    p_slope = 0.4 + rng.uniform(-0.02, 0.02)
    regression = str(root / "tests" / "data" / "regression_points.csv")

    golden = [
        ("chernoff_poisson1", ["chernoff", "--law", "poisson1", "--grid", "0.5:3:6"], ("csv", "json")),
        ("divergence_gamma_half", ["divergence", "--gamma", "0.5", "--grid", "0.5:2:4"], ("csv", "json")),
        ("estimate_gauss", ["estimate", "--model", "gauss_loc", "--gamma", "0", "--data", regression], ("json",)),
        (
            "sanov_mc_small",
            ["sanov", "--mode", "mc", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5", "--epsilon", "0.05",
             "--n", "60", "--reps", "2000", "--seed", "3", "--law", "poisson1"],
            ("csv", "json"),
        ),
    ]
    ops = [CliOp(f"golden_{label}", argv, label, _golden(root, sfx)) for label, argv, sfx in golden]
    trend = ["--theta", "0.4,0.6", "--theta_prime", "0.2,0.8", "--n_grid", "10,20,40", "--reps", "1000"]
    moments = ["clt", "--mode", "moments", "--law", "normal11", "--n", "500", "--reps", "2000", "--seed", str(s[0])]
    estimator = ["clt", "--mode", "estimator", "--law", "poisson1", "--n", "200", "--reps", "16", "--seed", str(s[1])]
    ops += [
        CliOp("bahadur_slopes", ["bahadur", "--mode", "slopes", "--theta", _pair(p_slope), "--theta_prime", "0.2,0.8",
                              "--law", "poisson1"], "slopes",
           _flag("ordering_holds", "slope_min_divergence", "slope_generic")),
        CliOp("sanov_sandwich", ["sanov", "--mode", "sandwich", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5",
                              "--epsilon", "0.05", "--n", "200"], "sandwich",
           _flag("holds", "log_prob_rate", "neg_inf_divergence")),
        CliOp("sanov_shrink", ["sanov", "--mode", "shrink", "--theta", "0.4,0.6", "--center", "0.5,0.5",
                            "--eps_grid", "0.1,0.01,0.001,0.0001,0.00001,0.000001,0.0000001"], "shrink",
           _flag("converged", "limit_value")),
        CliOp("clt_moments", moments, "moments", _clt_moments_ok),
        CliOp("clt_moments_again", moments, "moments", _clt_moments_ok, twin="clt_moments"),
        CliOp("clt_estimator", estimator, "estimator", _clt_estimator_ok),
        CliOp("clt_estimator_again", estimator, "estimator", _clt_estimator_ok, twin="clt_estimator"),
        CliOp("estimate_law_weights", ["estimate", "--model", "gauss_loc", "--data", str(data),
                                    "--weights", "poisson1", "--seed", str(s[2])], "estimate", _estimate_ok),
        CliOp("trend_poisson1", ["bahadur", "--mode", "trend", "--law", "poisson1", *trend, "--seed", str(s[3])],
           "trend", _trend_ok),
        CliOp("trend_exp1", ["bahadur", "--mode", "trend", "--law", "exp1", *trend, "--seed", str(s[4])],
           "trend", _trend_ok),
    ]
    return ops


# ---------------------------------------------------------------------------
# In-process workloads.
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One pipeline call.

    ``run(add)`` calls into divlab, reports completed work units through
    ``add`` as each call returns, and returns whether the outputs passed
    their checks.  An exception means the operation failed.
    """

    name: str
    run: Callable[[Callable[[int], None]], bool]


#: estimator_spread: n points, replications per comparison, generator indices
SPREAD_N = 500
SPREAD_REPS = 64
SPREAD_GAMMAS = (1.0, 0.5, 0.0)


def estimator_spread(seed: int) -> list:
    """``estimator_distribution_compare`` cycling the power index."""
    import divlab.clt as clt
    from divlab.divergences import CressieRead
    from divlab.models import make_model
    from divlab.weights import weight_law

    rng = _rng("estimator_spread", seed)
    model = make_model("gauss_loc")
    law = weight_law("poisson1")
    ops = []
    for gamma in SPREAD_GAMMAS:
        op_seed = rng.randrange(1, 1_000_000)

        def run(add, gamma=gamma, op_seed=op_seed):
            rep = clt.estimator_distribution_compare(
                model, law, CressieRead(gamma), 0.0, SPREAD_N, SPREAD_REPS, op_seed
            )
            add(SPREAD_REPS)
            det = rep.details
            return (
                det["failures_weighted"] <= 0.05 * SPREAD_REPS
                and det["failures_plain"] <= 0.05 * SPREAD_REPS
                and _finite(*rep.values, *det["plain_values"], *rep.moments.values())
            )

        ops.append(Op(f"compare_gamma_{gamma:g}", run))
    return ops


#: slope_scan: k=3 cases, one operation each, then the k=2 cases, which
#: together make one operation; each is (cells, law, theta, theta_prime)
SLOPE_K3 = (
    (3, "poisson1", (0.3, 0.3), (0.2, 0.4)),
    (3, "twopoint", (0.2, 0.4), (0.55, 0.225)),
)
SLOPE_K2 = tuple((2, law, (0.4,), (0.25,)) for law in ("poisson1", "twopoint", "exp1", "normal11"))
# twopoint weights take values in [0, 2], so its induced divergence is finite
# only while every cell ratio p/p' stays below 2; these cases keep it so.  The
# k=3 twopoint alternative also keeps the feasible share of the grid near 20%,
# which bounds the per-point Chernoff solves to a few seconds.  The k=2 cases
# take milliseconds each; grouping them keeps the median operation a k=3
# scan instead of a millisecond call at the mercy of timer noise.


def slope_scan(seed: int) -> list:
    """``efficiency_compare`` with the CLI's cell-mass statistic."""
    import divlab.bahadur as bahadur
    import divlab.cli as cli
    from divlab.models import make_model
    from divlab.weights import weight_law

    rng = _rng("slope_scan", seed)

    def case(k, token, theta, theta_prime):
        model = make_model("categorical", k=k)
        law = weight_law(token)
        # a small jitter keeps the feasible share of the grid, and so the
        # work, nearly the same for every seed
        theta = tuple(t + rng.uniform(-0.005, 0.005) for t in theta)
        theta_prime = tuple(t + rng.uniform(-0.005, 0.005) for t in theta_prime)
        return model, law, theta, theta_prime

    def run_cases(cases, add):
        ok = True
        for model, law, theta, theta_prime in cases:
            stat = cli._make_statistic("cell_mass", model, law)
            rec = bahadur.efficiency_compare(model, law, stat, theta, theta_prime)
            add(grid_points(model.k))
            ok = ok and rec.ordering_holds and _finite(
                rec.slope_min_divergence, rec.slope_generic, *rec.minimizer
            )
        return ok

    ops = []
    for spec in SLOPE_K3:
        cases = [case(*spec)]
        ops.append(Op(f"slope_k3_{spec[1]}", lambda add, cases=cases: run_cases(cases, add)))
    cases = [case(*spec) for spec in SLOPE_K2]
    ops.append(Op("slope_k2_all_laws", lambda add: run_cases(cases, add)))
    return ops


#: tail_mc: conditional Monte Carlo, tail trend and moment harness sizes
TAIL_LAWS = ("poisson1", "exp1", "twopoint", "normal11")
TAIL_MC_N = 400
TAIL_MC_REPS = 1_000_000
TAIL_TREND_GRID = (10, 20, 40, 80)
TAIL_TREND_REPS = 2000
TAIL_MOMENT_N = 500
TAIL_MOMENT_REPS = 2000


def tail_mc(seed: int) -> list:
    """Conditional LDP Monte Carlo, tail trend and moment checks per law."""
    import divlab.bahadur as bahadur
    import divlab.clt as clt
    import divlab.sanov as sanov
    from divlab.models import make_model
    from divlab.seeding import derived_rng
    from divlab.weights import weight_law

    rng = _rng("tail_mc", seed)
    cells = make_model("categorical", k=2)
    part = sanov.Partition.atoms(2)
    points = make_model("gauss_loc").sample(0.0, TAIL_MOMENT_N, derived_rng(rng.randrange(1, 1_000_000), "points"))
    identity = clt.STATISTIC_MAP["identity"]
    ops = []
    for token in TAIL_LAWS:
        law = weight_law(token)
        s = [rng.randrange(1, 1_000_000) for _ in range(3)]

        def run(add, law=law, s=s):
            rec = sanov.conditional_ldp_mc(
                cells, (0.37,), (0.5,), law, part, 0.05, TAIL_MC_N, TAIL_MC_REPS, s[0]
            )
            add(TAIL_MC_REPS)
            ok = 0 <= rec.hits <= rec.reps and _finite(rec.rate_target) and rec.ci_lo <= rec.ci_hi
            lln = clt.weighted_lln_check(points, law, identity, TAIL_MOMENT_REPS, s[1])
            add(TAIL_MOMENT_REPS)
            clt_rep = clt.weighted_clt_check(points, law, identity, TAIL_MOMENT_REPS, s[1])
            add(TAIL_MOMENT_REPS)
            ok = ok and _finite(*lln.moments.values(), *clt_rep.moments.values())
            table = bahadur.empirical_slope_trend(
                cells, law, (0.4,), (0.2,), TAIL_TREND_GRID, TAIL_TREND_REPS, s[2]
            )
            add(TAIL_TREND_REPS * len(TAIL_TREND_GRID))
            return ok and all(_finite(r.threshold, r.slope_target) for r in table.rows)

        ops.append(Op(f"tail_{token}", run))
    return ops


IN_PROCESS = {
    "estimator_spread": estimator_spread,
    "slope_scan": slope_scan,
    "tail_mc": tail_mc,
}

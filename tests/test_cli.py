"""End-to-end tests for the command-line pipelines."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divlab.bahadur as bahadur
import divlab.cli as cli
import divlab.clt
from divlab.bahadur import GRID_STEP, FunctionalStatistic, _simplex_grid, efficiency_compare, slope_generic
from divlab.cli import build_parser, main, parse_grid, resolve_config
from divlab.divergences import CressieRead
from divlab.errors import NumericError, ValidationError
from divlab.estimation import WeightedEmpiricalMeasure, minimum_dual_estimator, minimum_dual_estimator_batch
from divlab.models import make_model
from divlab.weights import weight_law

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

CHERNOFF_ARGS = ["chernoff", "--law", "poisson1", "--grid", "0.5:3:6"]
SANOV_MC_ARGS = [
    "sanov", "--mode", "mc", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5",
    "--epsilon", "0.05", "--n", "60", "--reps", "2000", "--seed", "3",
    "--law", "poisson1",
]

#: one small run of every subcommand and mode
RERUN_CONFIGS = {
    "divergence": ["divergence", "--gamma", "0.5", "--grid", "0.5:2:4"],
    "chernoff": CHERNOFF_ARGS,
    "estimate": ["estimate", "--model", "gauss_loc", "--gamma", "0", "--weights", "poisson1",
                 "--seed", "3", "--data", str(DATA_DIR / "regression_points.csv")],
    "sanov_rate": ["sanov", "--mode", "rate", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5",
                   "--n_grid", "10,20"],
    "sanov_sandwich": ["sanov", "--mode", "sandwich", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5",
                       "--n", "30", "--epsilon", "0.1"],
    "sanov_ml_gap": ["sanov", "--mode", "ml_gap", "--theta_T", "0.5,0.5", "--n", "30", "--epsilon", "0.1"],
    "sanov_mc": SANOV_MC_ARGS,
    "sanov_shrink": ["sanov", "--mode", "shrink", "--center", "0.4,0.6", "--theta", "0.5,0.5",
                     "--eps_grid", "0.2,0.1,0.05"],
    "bahadur_slopes": ["bahadur", "--mode", "slopes", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8"],
    "bahadur_trend": ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8",
                      "--n_grid", "10,20", "--reps", "1000", "--seed", "5"],
    "clt_moments": ["clt", "--mode", "moments", "--law", "normal11", "--n", "50", "--reps", "200",
                    "--seed", "1"],
    "clt_estimator": ["clt", "--mode", "estimator", "--law", "poisson1", "--n", "50", "--reps", "100",
                      "--seed", "1"],
}


def _run(argv, tmp_path, label):
    """Invoke the CLI into ``tmp_path`` and return the exit code."""
    return main(argv + ["--out", str(tmp_path), "--label", label])


# =============================================================================
# Tests: config plumbing
# =============================================================================


class TestParseGrid:
    """The start:stop:count grid syntax."""

    def test_linspace_semantics(self):
        """Endpoints are inclusive with evenly spaced interior points."""
        assert np.allclose(parse_grid("0.5:3:6"), np.linspace(0.5, 3.0, 6))

    def test_single_point(self):
        """A count of one collapses to the start value."""
        assert parse_grid("2:9:1").tolist() == [2.0]

    @pytest.mark.parametrize("text", ["1:2", "a:b:3", "1:2:0", "2:1:5", "1:2:2.5"])
    def test_malformed_rejected(self, text):
        """Wrong arity, order, or types raise a validation error."""
        with pytest.raises(ValidationError):
            parse_grid(text)


class TestResolveConfig:
    """Merging defaults, config files, and flag overrides."""

    def _args(self, argv):
        return build_parser().parse_args(argv)

    def test_defaults_applied(self):
        """Schema defaults fill every omitted field."""
        cfg = resolve_config("divergence", self._args(["divergence"]))
        assert cfg["gamma"] == 1.0
        assert cfg["conjugate"] is False
        assert cfg["out"] == "."

    def test_config_file_then_flags(self, tmp_path):
        """Flags take precedence over the config file over defaults."""
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"gamma": 0.5, "label": "fromfile"}))
        argv = ["divergence", "--config", str(f), "--label", "fromflag"]
        cfg = resolve_config("divergence", self._args(argv))
        assert cfg["gamma"] == 0.5
        assert cfg["label"] == "fromflag"

    def test_unknown_config_key_rejected(self, tmp_path):
        """Misspelled fields fail loudly instead of being ignored."""
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"gamm": 0.5}))
        with pytest.raises(ValidationError, match="unknown config keys: gamm"):
            resolve_config("divergence", self._args(["divergence", "--config", str(f)]))

    def test_missing_config_file_rejected(self):
        """A dangling --config path is a validation error."""
        with pytest.raises(ValidationError, match="not found"):
            resolve_config(
                "divergence", self._args(["divergence", "--config", "/nonexistent.json"])
            )

    def test_required_field_enforced(self):
        """Fields without defaults must come from the file or a flag."""
        with pytest.raises(ValidationError, match="'law' is required"):
            resolve_config("chernoff", self._args(["chernoff"]))


# =============================================================================
# Tests: exit codes
# =============================================================================


#: non-finite cell masses and power indices, each invalid input
NON_FINITE_INPUTS = {
    "sanov_rate_theta": ["sanov", "--mode", "rate", "--theta", "nan,nan", "--theta_T", "0.5,0.5",
                         "--n_grid", "10,20"],
    "sanov_rate_theta_T": ["sanov", "--mode", "rate", "--theta", "0.4,0.6", "--theta_T", "nan,nan",
                           "--n_grid", "10,20"],
    "sanov_sandwich_theta": ["sanov", "--mode", "sandwich", "--theta", "nan,nan", "--theta_T", "0.5,0.5",
                             "--n", "30"],
    "sanov_ml_gap_theta_T": ["sanov", "--mode", "ml_gap", "--theta_T", "nan,nan", "--n", "30"],
    "sanov_mc_theta": ["sanov", "--mode", "mc", "--theta", "nan,nan", "--theta_T", "0.5,0.5",
                       "--n", "60", "--reps", "2000"],
    "sanov_shrink_center": ["sanov", "--mode", "shrink", "--center", "nan,nan", "--theta", "0.5,0.5",
                            "--eps_grid", "0.2,0.1"],
    "sanov_shrink_theta": ["sanov", "--mode", "shrink", "--center", "0.4,0.6", "--theta", "nan,nan",
                           "--eps_grid", "0.2,0.1"],
    "bahadur_slopes_theta_prime": ["bahadur", "--mode", "slopes", "--theta", "0.4,0.6",
                                   "--theta_prime", "nan,nan"],
    "bahadur_trend_theta_prime": ["bahadur", "--mode", "trend", "--theta", "0.4,0.6",
                                  "--theta_prime", "nan,nan", "--n_grid", "10", "--reps", "1000"],
    "bahadur_trend_theta": ["bahadur", "--mode", "trend", "--theta", "nan,nan",
                            "--theta_prime", "0.2,0.8", "--n_grid", "10", "--reps", "1000"],
    "divergence_gamma_nan": ["divergence", "--gamma", "nan"],
    "divergence_gamma_inf": ["divergence", "--gamma", "inf"],
    "divergence_gamma_minus_inf": ["divergence", "--gamma=-inf", "--conjugate", "true"],
    "estimate_gamma_nan": ["estimate", "--model", "gauss_loc", "--gamma", "nan",
                           "--data", str(DATA_DIR / "regression_points.csv")],
    "estimate_gamma_inf": ["estimate", "--model", "gauss_loc", "--gamma", "inf",
                           "--data", str(DATA_DIR / "regression_points.csv")],
    "clt_estimator_gamma_nan": ["clt", "--mode", "estimator", "--law", "poisson1", "--gamma", "nan",
                                "--n", "50", "--reps", "100"],
    "clt_estimator_gamma_inf": ["clt", "--mode", "estimator", "--law", "poisson1", "--gamma", "inf",
                                "--n", "50", "--reps", "100"],
}


class TestExitCodes:
    """The 0/2/3 exit contract."""

    @pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
    def test_non_finite_input_exits_two(self, name, tmp_path, capsys):
        """A NaN or infinite cell mass or power index is invalid input: exit
        2 with one message line and no file, with and without --dry-run."""
        argv = NON_FINITE_INPUTS[name]
        out = tmp_path / "out"
        for flags in ([], ["--dry-run"]):
            assert main(argv + ["--out", str(out)] + flags) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"divlab {argv[0]}: ") and len(err.splitlines()) == 1
            assert "Traceback" not in err
        assert not out.exists()

    def test_no_subcommand_usage_error(self, capsys):
        """Bare invocation prints usage and exits 2."""
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_invalid_gamma_token(self, tmp_path, capsys):
        """A bad field value exits 2 and names the field."""
        code = _run(["divergence", "--gamma", "bad"], tmp_path, "x")
        assert code == 2
        assert "'gamma'" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        """Unknown config keys exit 2."""
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"lawx": "poisson1"}))
        assert main(["chernoff", "--config", str(f)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        """Omitting a required field exits 2."""
        assert _run(["estimate", "--model", "gauss_loc"], tmp_path, "x") == 2
        assert "'data'" in capsys.readouterr().err

    def test_nan_chernoff_point_exits_two(self, tmp_path, capsys):
        """A NaN evaluation point is invalid input, exit 2."""
        assert _run(["chernoff", "--law", "poisson1", "--points", "nan"], tmp_path, "x") == 2
        assert "nan" in capsys.readouterr().err

    def test_mean_beyond_float_resolution_exits_two(self, tmp_path, capsys):
        """A pilot whose +/- 3 box rounds to the pilot itself names the float
        resolution, not the domain, and exits 2."""
        data = tmp_path / "big.csv"
        data.write_text("x\n" + "4e16\n" * 4)
        assert _run(["estimate", "--model", "gauss_loc", "--data", str(data)], tmp_path, "x") == 2
        err = capsys.readouterr().err
        assert "float resolution" in err and "domain" not in err

    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        """Numeric breakdowns map to exit code 3."""

        def boom(cfg, dry_run):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setitem(cli.DISPATCH, "chernoff", boom)
        assert _run(CHERNOFF_ARGS, tmp_path, "x") == 3
        assert "synthetic numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, data", [
        (["--model", "categorical", "--cells", "3"], None),
        (["--model", "gauss_loc", "--weights", "column"], "value,weight\n0.1,1\n0.2,-1\n"),
    ], ids=["empty_cell", "zero_weight_sum"])
    def test_no_weighted_root_exits_three(self, argv, data, tmp_path, capsys):
        """Data that leave no weighted root inside the model fail in the
        computation: exit 3 and no file.  A dry run computes no estimate and
        exits 0."""
        path = DATA_DIR / "categorical_k3_empty_cell.csv"
        if data is not None:
            path = tmp_path / "data.csv"
            path.write_text(data)
        argv = ["estimate", *argv, "--data", str(path)]
        out = tmp_path / "out"
        assert _run(argv, out, "x") == 3
        assert "root" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []
        assert _run(argv + ["--dry-run"], out, "x") == 0

    def test_exp1_trend_at_the_box_edge_succeeds(self, tmp_path):
        """Estimates on the edge of the parameter box are valid input, exit 0."""
        argv = ["bahadur", "--mode", "trend", "--law", "exp1", "--theta", "0.4,0.6",
                "--theta_prime", "0.2,0.8", "--n_grid", "10,20,40", "--reps", "1000"]
        assert _run(argv, tmp_path, "trend") == 0
        rows = json.loads((tmp_path / "trend.json").read_text())["rows"]
        assert [row["n"] for row in rows] == [10, 20, 40]

    def test_constant_estimates_exit_three(self, tmp_path, capsys, monkeypatch):
        """Estimates with zero spread (an estimator stubbed to the box
        midpoint) make the variance ratio undefined: exit 3."""
        def constant_batch(model, spec, points, weights, box):
            return np.full(max(len(points), len(weights)), 0.5 * (box[0] + box[1]))

        monkeypatch.setattr(divlab.clt, "minimum_dual_estimator_batch", constant_batch)
        argv = ["clt", "--mode", "estimator", "--model", "exp_scale", "--theta_T", "-1.3",
                "--gamma", "2", "--law", "exp1", "--n", "200", "--reps", "16", "--seed", "3"]
        assert _run(argv, tmp_path, "x") == 3
        assert "zero variance" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_exp_scale_gamma_two_spread_is_the_estimate_roots(self, tmp_path, monkeypatch):
        """exp_scale at gamma 2 and theta_T -4 exits 0; each weighted row is
        the root that ``estimate`` reports for its weights, and a plain row is
        the ``estimate`` CLI's theta_hat on that row's data."""
        calls = []

        def recorded(model, spec, points, weights, box):
            calls.append((points, weights, minimum_dual_estimator_batch(model, spec, points, weights, box)))
            return calls[-1][2]

        monkeypatch.setattr(divlab.clt, "minimum_dual_estimator_batch", recorded)
        argv = ["clt", "--mode", "estimator", "--model", "exp_scale", "--theta_T", "-4", "--gamma", "2",
                "--law", "poisson1", "--n", "500", "--reps", "64", "--seed", "1"]
        assert _run(argv, tmp_path, "spread") == 0
        model, spec = make_model("exp_scale"), CressieRead(2.0)
        (points, weights, weighted), (data, _, plain) = calls
        assert np.isfinite(weighted).all() and np.isfinite(plain).all()
        for r in range(len(weighted)):
            mu = WeightedEmpiricalMeasure(tuple(points[0]), tuple(weights[r]))
            assert weighted[r] == minimum_dual_estimator(model, spec, mu).theta_hat
        (tmp_path / "row.csv").write_text("x\n" + "".join(f"{x!r}\n" for x in data[0].tolist()))
        argv = ["estimate", "--model", "exp_scale", "--gamma", "2", "--data", str(tmp_path / "row.csv")]
        assert _run(argv, tmp_path, "row") == 0
        assert json.loads((tmp_path / "row.json").read_text())["theta_hat"] == plain[0]

    def test_exp_scale_gamma_two_spread_near_minus_one_has_no_saddle(self, tmp_path, capsys):
        """At theta_T -1 every root's set reaches 2 theta_hat, next to which
        the criterion grows without bound: no row is certified, and the
        spread exits 3."""
        argv = ["clt", "--mode", "estimator", "--model", "exp_scale", "--theta_T", "-1", "--gamma", "2",
                "--law", "poisson1", "--n", "500", "--reps", "64", "--seed", "1"]
        assert _run(argv, tmp_path, "spread") == 3
        assert "failed on 64 of 64" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma,point", [("2", "1e300"), ("0", "1e-300")])
    def test_extreme_divergence_points_succeed(self, tmp_path, gamma, point):
        """Points where float arithmetic overflows or a square underflows still exit 0."""
        assert _run(["divergence", "--gamma", gamma, "--points", point], tmp_path, "x") == 0

    def test_induced_gamma_needs_law(self, tmp_path, capsys):
        """The induced generator token requires a weight law."""
        assert _run(["divergence", "--gamma", "induced"], tmp_path, "x") == 2
        assert "weight law" in capsys.readouterr().err


# =============================================================================
# Tests: dry-run planning
# =============================================================================

#: configurations a real run rejects while parsing: (argv, config file
#: contents or None, a fragment of the error message)
BAD_CONFIGS = {
    "sanov_rate_theta_off_simplex": (
        ["sanov", "--mode", "rate", "--theta", "0.9,0.9", "--theta_T", "0.5,0.5", "--n_grid", "10"],
        None, "'theta'"),
    "sanov_mc_theta_on_boundary": (
        ["sanov", "--mode", "mc", "--theta", "1,0", "--theta_T", "0.5,0.5", "--n", "60", "--reps", "2000"],
        None, "parameter (1.0,) does not map to an interior probability vector"),
    "sanov_rate_theta_on_boundary": (
        ["sanov", "--mode", "rate", "--theta", "1,0", "--theta_T", "0.5,0.5", "--n_grid", "10,20"],
        None, "parameter (1.0,) does not map to an interior probability vector"),
    "sanov_sandwich_theta_on_boundary": (
        ["sanov", "--mode", "sandwich", "--theta", "1,0", "--theta_T", "0.5,0.5", "--n", "20"],
        None, "parameter (1.0,) does not map to an interior probability vector"),
    "sanov_mc_theta_T_on_boundary": (
        ["sanov", "--mode", "mc", "--theta", "0.4,0.6", "--theta_T", "0,1", "--n", "60", "--reps", "2000"],
        None, "parameter (0.0,) does not map to an interior probability vector"),
    "sanov_ml_gap_theta_T_on_boundary": (
        ["sanov", "--mode", "ml_gap", "--cells", "3", "--theta_T", "0.5,0.5,0", "--n", "20", "--epsilon", "0.1"],
        None, "parameter (0.5, 0.5) does not map to an interior probability vector"),
    "bahadur_slopes_theta_on_boundary": (
        ["bahadur", "--mode", "slopes", "--theta", "1,0", "--theta_prime", "0.2,0.8"],
        None, "parameter (1.0,) does not map to an interior probability vector"),
    "bahadur_slopes_theta_prime_on_boundary": (
        ["bahadur", "--mode", "slopes", "--theta", "0.4,0.6", "--theta_prime", "0,1"],
        None, "parameter (0.0,) does not map to an interior probability vector"),
    "bahadur_trend_theta_prime_on_boundary": (
        ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "1,0", "--n_grid", "10"],
        None, "parameter (1.0,) does not map to an interior probability vector"),
    "bahadur_trend_infinite_threshold": (
        ["bahadur", "--mode", "trend", "--law", "twopoint", "--theta", "0.4,0.6", "--theta_prime", "0.1,0.9",
         "--n_grid", "10,20,40,80"],
        None, "the trend threshold is +inf"),
    "clt_moments_theta_T_outside_domain": (
        ["clt", "--mode", "moments", "--model", "exp_scale", "--theta_T", "1", "--law", "poisson1",
         "--n", "50", "--reps", "100"],
        None, "parameter 1.0 outside the domain of the exp_scale model"),
    "sanov_rate_no_theta_T": (
        ["sanov", "--mode", "rate", "--theta", "0.4,0.6", "--n_grid", "10"], None, "'theta_T'"),
    "sanov_rate_no_n_grid": (
        ["sanov", "--mode", "rate", "--theta", "0.4,0.6", "--theta_T", "0.5,0.5"], None, "'n_grid'"),
    "sanov_mc_unknown_law": (
        ["sanov", "--mode", "mc", "--theta", "0.4,0.6", "--theta_T", "0.5,0.5", "--law", "cauchy"],
        None, "unknown weight law"),
    "sanov_shrink_no_center": (
        ["sanov", "--mode", "shrink", "--theta", "0.5,0.5", "--eps_grid", "0.2,0.1"], None, "'center'"),
    "sanov_shrink_no_eps_grid": (
        ["sanov", "--mode", "shrink", "--center", "0.4,0.6", "--theta", "0.5,0.5"], None, "'eps_grid'"),
    "sanov_shrink_induced_without_law": (
        ["sanov", "--mode", "shrink", "--gamma", "induced", "--center", "0.4,0.6", "--theta", "0.5,0.5",
         "--eps_grid", "0.2,0.1"], {"law": None}, "weight law"),
    "bahadur_trend_no_n_grid": (
        ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8"], None, "'n_grid'"),
    "estimate_missing_data": (["estimate", "--model", "gauss_loc", "--data", "absent.csv"], None, "not found"),
    "sanov_shrink_grid_increasing": (
        ["sanov", "--mode", "shrink", "--theta", "0.4,0.6", "--center", "0.5,0.5", "--eps_grid", "0.1,0.2"],
        None, "strictly decreasing"),
    "bahadur_trend_three_cells": (
        ["bahadur", "--mode", "trend", "--cells", "3", "--theta", "0.3,0.3,0.4", "--theta_prime", "0.2,0.4,0.4",
         "--n_grid", "10"], None, "two cells"),
    "sanov_mc_few_reps": (
        ["sanov", "--mode", "mc", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5", "--reps", "50"],
        None, "100 replications"),
    "bahadur_slopes_four_cells": (
        ["bahadur", "--mode", "slopes", "--cells", "4", "--theta", "0.25,0.25,0.25,0.25",
         "--theta_prime", "0.1,0.2,0.3,0.4"], None, "constrained slopes support at most three cells"),
    "bahadur_trend_few_reps": (
        ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8", "--n_grid", "10",
         "--reps", "50"], None, "1000 replications"),
    "sanov_sandwich_four_cells": (
        ["sanov", "--mode", "sandwich", "--cells", "4", "--theta", "0.25,0.25,0.25,0.25",
         "--theta_T", "0.25,0.25,0.25,0.25"], None, "capped"),
    "sanov_sandwich_large_n": (
        ["sanov", "--mode", "sandwich", "--theta", "0.4,0.6", "--theta_T", "0.5,0.5", "--n", "400"],
        None, "capped"),
    "sanov_sandwich_zero_radius": (
        ["sanov", "--mode", "sandwich", "--theta", "0.4,0.6", "--theta_T", "0.5,0.5", "--epsilon", "0"],
        None, "radius must be positive"),
    "divergence_nan_point": (
        ["divergence", "--points=nan"], None, "field 'points': evaluation points must be numbers, got nan"),
    "divergence_nan_grid_start": (
        ["divergence", "--grid=nan:1:1"], None, "field 'grid': evaluation points must be numbers, got nan"),
    "chernoff_nan_point": (
        ["chernoff", "--law", "poisson1", "--points=nan"], None,
        "field 'points': evaluation points must be numbers, got nan"),
    "chernoff_nan_grid_start": (
        ["chernoff", "--law", "poisson1", "--grid=nan:1:1"], None,
        "field 'grid': evaluation points must be numbers, got nan"),
    "estimate_column_weights_one_column": (
        ["estimate", "--model", "gauss_loc", "--data", str(DATA_DIR / "regression_points.csv"),
         "--weights", "column"], None, "two-column"),
}

#: sample sizes and replication counts below what the computation divides
#: by or forms a variance from: (argv, a fragment of the error message)
BAD_SIZES = {
    "bahadur_trend_zero_n": (
        ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8", "--n_grid", "0"],
        "at least 1, got 0"),
    "bahadur_trend_negative_n": (
        ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8", "--n_grid=-3"],
        "at least 1, got -3"),
    "sanov_rate_zero_n": (
        ["sanov", "--mode", "rate", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5", "--n_grid", "0"],
        "at least 1, got 0"),
    "sanov_mc_zero_n": (
        ["sanov", "--mode", "mc", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5", "--n", "0"],
        "at least 1, got 0"),
    "sanov_sandwich_zero_n": (
        ["sanov", "--mode", "sandwich", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5", "--n", "0"],
        "at least 1, got 0"),
    "clt_moments_zero_n": (
        ["clt", "--mode", "moments", "--law", "normal11", "--n", "0", "--reps", "200"], "at least 1, got 0"),
    "clt_estimator_one_rep": (
        ["clt", "--mode", "estimator", "--law", "poisson1", "--n", "50", "--reps", "1"], "2 replications"),
    "bahadur_trend_negative_seed": (
        ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8", "--n_grid", "10",
         "--reps", "1000", "--seed", "-1"],
        "non-negative integer, got -1"),
    "sanov_mc_negative_seed": (
        ["sanov", "--mode", "mc", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5", "--n", "60", "--reps", "2000",
         "--seed", "-1"],
        "non-negative integer, got -1"),
    "clt_moments_negative_seed": (
        ["clt", "--mode", "moments", "--law", "normal11", "--n", "500", "--reps", "200", "--seed", "-1"],
        "non-negative integer, got -1"),
    "clt_estimator_negative_seed": (
        ["clt", "--mode", "estimator", "--law", "poisson1", "--n", "50", "--reps", "16", "--seed", "-1"],
        "non-negative integer, got -1"),
    "estimate_weights_negative_seed": (
        ["estimate", "--model", "gauss_loc", "--gamma", "0", "--data", str(DATA_DIR / "regression_points.csv"),
         "--weights", "poisson1", "--seed", "-1"],
        "non-negative integer, got -1"),
}


def test_domain_error_prints_plain_floats(tmp_path, capsys):
    """A parameter off the simplex interior exits 2 naming it in plain floats."""
    argv = ["sanov", "--mode", "mc", "--theta", "1,0", "--theta_T", "0.5,0.5", "--n", "60", "--reps", "2000"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "parameter (1.0,) does not map to an interior probability vector" in err
    assert "np.float64" not in err


#: values a field is set to, one field at a time; no huge integer, since
#: no ``--reps`` cap exists and such a run could go on without end
CONTRACT_VALUES = ("0", "-1", "1e30", "nan", "inf", "-inf", "")


def _one_field_changed():
    """Every ``RERUN_CONFIGS`` base with one schema field set to one edge
    value, and each list-valued field also to a one-element list: the base's
    first entry, or 1 where the base leaves the field out."""
    for base in RERUN_CONFIGS.values():
        schema = cli.SCHEMAS[base[0]]
        for field in sorted(set(schema) - {"out"}):
            flag = f"--{field}"
            argv, first = list(base), "1"
            if flag in argv:
                first = argv[argv.index(flag) + 1].split(",")[0]
                del argv[argv.index(flag):argv.index(flag) + 2]
            listed = schema[field][0] in (cli._as_floats, cli._as_ints)
            for value in CONTRACT_VALUES + ((first,) if listed else ()):
                # "--key=value" keeps argparse from reading "-1" or "-inf" as a flag
                yield argv + [f"{flag}={value}"]


def _nan_fields(path: Path) -> list:
    """The fields of a CSV or JSON artifact that hold ``nan``."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return [key for row in csv.DictReader(f) for key, value in row.items() if value == "nan"]
    found = []

    def pairs(items):
        found.extend(key for key, value in items if value == "nan" or (isinstance(value, list) and "nan" in value))
        return dict(items)

    json.loads(path.read_text(), object_pairs_hook=pairs)
    return found


class TestCliContract:
    """Any one field at an edge value exits 0, 2 or 3, never with a
    traceback, and a run that exits 0 writes no ``nan``: the README
    documents no artifact field as possibly NaN."""

    def test_one_edge_field_keeps_the_exit_contract(self, tmp_path):
        for i, argv in enumerate(_one_field_changed()):
            out = tmp_path / str(i)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv + ["--out", str(out)])
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            assert code in (0, 2, 3), (argv, code)
            assert "Traceback" not in err.getvalue(), argv
            if code == 0:
                assert [field for path in out.iterdir() for field in _nan_fields(path)] == [], argv


class TestDryRun:
    """Plan printing without computation."""

    def test_plan_printed_no_files(self, tmp_path, capsys):
        """Dry-run emits the resolved plan and writes nothing."""
        code = main(CHERNOFF_ARGS + ["--out", str(tmp_path), "--dry-run"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["subcommand"] == "chernoff"
        assert plan["config"]["law"] == "poisson1"
        assert len(plan["outputs"]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_rejects_what_the_run_rejects(self, name, tmp_path, capsys):
        """A bad configuration exits 2 with the same message with and without --dry-run."""
        argv, config, fragment = BAD_CONFIGS[name]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "out"
        errors = []
        for flags in ([], ["--dry-run"]):
            assert main(argv + ["--out", str(out)] + flags) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert fragment in errors[0] and len(errors[0].splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(BAD_SIZES))
    def test_sizes_out_of_range_exit_two(self, name, tmp_path, capsys):
        """A sample size below 1, a single replication where a variance is
        formed, or a negative seed exits 2 with one message line (no
        exception escapes), with and without --dry-run."""
        argv, fragment = BAD_SIZES[name]
        out = tmp_path / "out"
        for flags in ([], ["--dry-run"]):
            assert main(argv + ["--out", str(out)] + flags) == 2
            err = capsys.readouterr().err
            assert fragment in err and len(err.splitlines()) == 1
        assert not out.exists()


# =============================================================================
# Tests: pipeline output
# =============================================================================


class TestPipelines:
    """Numeric correctness of artifacts produced end to end."""

    def test_written_paths_printed(self, tmp_path, capsys):
        """Each artifact path is echoed on its own stdout line."""
        assert _run(CHERNOFF_ARGS, tmp_path, "run") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [str(tmp_path / "run.csv"), str(tmp_path / "run.json")]
        assert all(Path(line).is_file() for line in lines)

    def test_chernoff_closed_form(self, tmp_path):
        """Unit-Poisson rates reproduce x log x - x + 1 with argmax log x."""
        _run(CHERNOFF_ARGS, tmp_path, "rates")
        rows = (tmp_path / "rates.csv").read_text().splitlines()[1:]
        for row in rows:
            x, value, argmax = (float(c) for c in row.split(","))
            assert abs(value - (x * math.log(x) - x + 1.0)) <= 1e-12
            # t* is the generator's derivative, log x, and round-trips the file
            assert argmax == math.log(x)

    @pytest.mark.parametrize("law, x, value, argmax", [
        ("exp1", 1e300, 1e300, 1.0),
        ("exp1", 1e-300, 689.7755278982137, -1e300),
        ("normal11", 1e300, math.inf, 1e300),
        ("poisson1", 1e-300, 1.0, -690.7755278982137),
    ])
    def test_chernoff_far_from_the_mean(self, law, x, value, argmax, tmp_path):
        """At 1e-300 and 1e300 the rate and its argmax are the closed forms
        (normal11's rate 5e599 overflows to inf), and the run exits 0."""
        assert _run(["chernoff", "--law", law, "--points", repr(x)], tmp_path, "far") == 0
        row = (tmp_path / "far.csv").read_text().splitlines()[1]
        assert [float(c) for c in row.split(",")] == [x, pytest.approx(value, rel=1e-15), pytest.approx(argmax, rel=1e-15)]

    def test_estimate_recovers_sample_mean(self, tmp_path):
        """Gaussian location with unit weights estimates the data mean."""
        data = DATA_DIR / "regression_points.csv"
        argv = ["estimate", "--model", "gauss_loc", "--data", str(data)]
        assert _run(argv, tmp_path, "fit") == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        points = np.loadtxt(data, skiprows=1)
        assert abs(report["theta_hat"] - float(points.mean())) <= 1e-8
        assert report["converged"] is True
        assert report["weights"] == "unit"

    def test_estimate_weight_column(self, tmp_path):
        """A two-column file can drive column weights."""
        data = DATA_DIR / "regression_poisson1.csv"
        argv = [
            "estimate", "--model", "gauss_loc", "--data", str(data),
            "--weights", "column",
        ]
        assert _run(argv, tmp_path, "fit") == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["weights"] == "column"
        points, weights = np.loadtxt(data, delimiter=",", skiprows=1, unpack=True)
        target = float(np.sum(weights * points) / np.sum(weights))
        assert abs(report["theta_hat"] - target) <= 1e-8

    def test_induced_generator_matches_power_index(self, tmp_path):
        """Unit-Poisson induced divergence equals the index-one family."""
        _run(["divergence", "--gamma", "induced", "--law", "poisson1",
              "--grid", "0.5:2:4"], tmp_path, "induced")
        _run(["divergence", "--gamma", "1", "--grid", "0.5:2:4"], tmp_path, "power")
        induced = (tmp_path / "induced.csv").read_bytes()
        power = (tmp_path / "power.csv").read_bytes()
        assert induced == power

    def test_config_file_drives_run(self, tmp_path):
        """A pure config-file invocation produces the same artifact."""
        cfg = {
            "law": "poisson1", "grid": "0.5:3:6",
            "out": str(tmp_path), "label": "viafile",
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main(["chernoff", "--config", str(f)]) == 0
        _run(CHERNOFF_ARGS, tmp_path, "viaflags")
        assert (tmp_path / "viafile.csv").read_bytes() == (tmp_path / "viaflags.csv").read_bytes()

    def test_categorical_k5_estimate_is_certified(self, tmp_path):
        """A 5-cell estimate writes a real criterion value, not a 1e300
        sentinel, and converges."""
        argv = ["estimate", "--model", "categorical", "--cells", "5",
                "--data", str(DATA_DIR / "categorical_k5.csv")]
        assert _run(argv, tmp_path, "estimate_k5") == 0
        text = (tmp_path / "estimate_k5.json").read_text()
        doc = json.loads(text)
        assert doc["converged"] is True and doc["rejected_evaluations"] == 0 and "e+300" not in text

    def test_categorical_k12_estimate_is_certified(self, tmp_path):
        """240 seeded points on 12 cells certify: the supremum at the root is
        the criterion at alpha = theta, 0, with a closed-form gradient."""
        argv = ["estimate", "--model", "categorical", "--cells", "12",
                "--data", str(DATA_DIR / "categorical_k12.csv")]
        assert _run(argv, tmp_path, "estimate_k12") == 0
        doc = json.loads((tmp_path / "estimate_k12.json").read_text())
        assert doc["converged"] is True and doc["value"] == 0 and doc["alpha_hat"] == doc["theta_hat"]

    @pytest.mark.parametrize("weights, converged", [(["--weights", "poisson1", "--seed", "3"], False), ([], True)],
                             ids=["poisson1_weights", "unit_weights"])
    def test_poisson_index_two_certificate(self, tmp_path, weights, converged):
        """At index 2 on ``poisson`` the file's Poisson-weighted root is not a
        saddle (``converged: false``), while its unit-weight root is."""
        argv = ["estimate", "--model", "poisson", "--gamma", "2", *weights,
                "--data", str(DATA_DIR / "regression_poisson1.csv")]
        assert _run(argv, tmp_path, "estimate") == 0
        assert json.loads((tmp_path / "estimate.json").read_text())["converged"] is converged


# =============================================================================
# Tests: slope statistics
# =============================================================================


def _counted(fn, calls):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


class TestSlopeStatistics:
    """The statistics ``bahadur --mode slopes`` builds, and the slopes they give."""

    @pytest.mark.parametrize("token", ["cell_mass", "divergence"])
    def test_every_evaluator_call_gets_one_null_tuple(self, token, monkeypatch):
        """The level, the zero check and every point of the two-cell boundary
        search receive the same tuple of the null's cell masses; the
        divergence statistic's closed-form infimum receives it too.  No scan
        runs on two cells."""
        model, law = make_model("categorical", k=2), weight_law("poisson1")
        calls, scans = [], []
        monkeypatch.setattr(bahadur, "_simplex_grid", _counted(bahadur._simplex_grid, scans))
        stat = cli._make_statistic(token, model, law)
        infimum = stat.infimum and _counted(stat.infimum, calls)
        stat = FunctionalStatistic(_counted(stat.evaluator, calls), stat.name, infimum)
        slope_generic(model, law, stat, (0.4,), (0.2,))
        assert scans == []
        if token == "cell_mass":
            # the level, the zero check and p_1, then the lattice walks, at
            # most 1,001 points, and two bisections of at most 60 steps each
            assert 3 < len(calls) <= 3 + _simplex_grid(2, GRID_STEP).shape[0] + 2 * 60
        else:
            # the level, the zero check and the infimum
            assert len(calls) == 3
        p_null = calls[0][0]
        assert type(p_null) is tuple and p_null == tuple(model.probs((0.4,)).tolist())
        assert all(args[0] is p_null for args in calls)

    def test_k3_scan_calls_probs_a_bounded_number_of_times(self, monkeypatch):
        """One evaluator call per grid point, but only a handful of ``model.probs`` calls."""
        model, law = make_model("categorical", k=3), weight_law("poisson1")
        probs_calls, evaluator_calls = [], []
        monkeypatch.setattr(model, "probs", _counted(model.probs, probs_calls))
        stat = cli._make_statistic("cell_mass", model, law)
        stat = FunctionalStatistic(_counted(stat.evaluator, evaluator_calls), stat.name)
        slope_generic(model, law, stat, (0.3, 0.3), (0.2, 0.4))
        assert len(evaluator_calls) >= _simplex_grid(3, GRID_STEP).shape[0] == 501501
        assert len(probs_calls) <= 10

    @pytest.mark.parametrize("token", ["cell_mass", "divergence"])
    @pytest.mark.parametrize("theta", ["0.4,0.6", "0.3,0.3,0.4"], ids=["k2", "k3"])
    def test_null_alternative_slopes_print_zero(self, token, theta, tmp_path, monkeypatch):
        """At theta_prime = theta both slopes are written as 0, not -0.

        A coarser scan keeps the k=3 divergence statistic, one scalar cell
        divergence per point, quick; the sign does not depend on the step.
        """
        monkeypatch.setattr(bahadur, "GRID_STEP", 0.01)
        k = str(len(theta.split(",")))
        argv = ["bahadur", "--mode", "slopes", "--cells", k, "--psi", token, "--theta", theta,
                "--theta_prime", theta]
        assert _run(argv, tmp_path, "null") == 0
        # each slope is written as a bare integer token, "0" or "-0"
        record = json.loads((tmp_path / "null.json").read_text(), parse_int=str)
        assert record["slope_min_divergence"] == record["slope_generic"] == "0"

    @pytest.mark.parametrize(
        "law, theta, theta_prime, generic, min_div, minimizer",
        [
            ("poisson1", (0.3, 0.3), (0.2, 0.4), -0.043201708287093091, -0.07066982139383012,
             (0.39999999999999997, 0.25714285758661642, 0.34285714241338366)),
            ("twopoint", (0.2, 0.4), (0.55, 0.225), -0.55079223049754078, -0.55079223049754056,
             (0.55, 0.22500000134520101, 0.22499999865479894)),
        ],
    )
    def test_k3_cell_mass_slopes_are_pinned(self, law, theta, theta_prime, generic, min_div, minimizer):
        """k=3 cell-mass slopes keep the values of the scan and its ray refine;
        each minimizer's first cell is on the boundary |q_1 - p_1| = level."""
        model = make_model("categorical", k=3)
        stat = cli._make_statistic("cell_mass", model, weight_law(law))
        rec = efficiency_compare(model, weight_law(law), stat, theta, theta_prime)
        assert rec.slope_generic == pytest.approx(generic, abs=1e-12)
        assert rec.slope_min_divergence == pytest.approx(min_div, abs=1e-12)
        assert rec.minimizer == pytest.approx(minimizer, abs=1e-12)
        assert rec.ordering_holds


# =============================================================================
# Tests: reproducibility
# =============================================================================


class TestReproducibility:
    """Byte-identical artifacts across reruns and against the goldens."""

    def test_rerun_byte_identical(self, tmp_path):
        """Every subcommand and mode writes identical bytes twice."""
        for label, argv in RERUN_CONFIGS.items():
            a, b = tmp_path / "a" / label, tmp_path / "b" / label
            assert _run(argv, a, label) == 0, label
            assert _run(argv, b, label) == 0, label
            names = sorted(p.name for p in a.iterdir())
            assert names and names == sorted(p.name for p in b.iterdir()), label
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize(
        "argv, label, suffixes",
        [
            (CHERNOFF_ARGS, "chernoff_poisson1", ("csv", "json")),
            # the support's ends: log 2 with the argmax -inf at 0 and +inf at 2
            (["chernoff", "--law", "twopoint", "--grid", "0:2:5"], "chernoff_twopoint", ("csv", "json")),
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
            (SANOV_MC_ARGS, "sanov_mc_small", ("csv", "json")),
            (
                ["bahadur", "--mode", "slopes", "--cells", "3", "--theta", "0.3,0.3,0.4",
                 "--theta_prime", "0.2,0.4,0.4"],
                "slopes_k3_poisson1",
                ("json",),
            ),
            (
                ["bahadur", "--mode", "slopes", "--cells", "3", "--law", "twopoint",
                 "--theta", "0.2,0.4,0.4", "--theta_prime", "0.55,0.225,0.225"],
                "slopes_k3_twopoint",
                ("json",),
            ),
            (
                # 65 rows per weight block at n = 500: blocks of 65, 65, 65 and 5
                ["clt", "--mode", "moments", "--law", "normal11", "--n", "500", "--reps", "200", "--seed", "1"],
                "clt_moments_normal11",
                ("csv", "json"),
            ),
            (RERUN_CONFIGS["estimate"], "estimate_weights_poisson1", ("json",)),
            (
                ["sanov", "--mode", "shrink", "--theta", "0.4,0.6", "--center", "0.5,0.5",
                 "--eps_grid", "0.1,0.01,0.001,0.0001,0.00001,0.000001,0.0000001"],
                "sanov_shrink",
                ("csv", "json"),
            ),
            (
                ["divergence", "--gamma", "induced", "--law", "twopoint", "--conjugate", "true",
                 "--grid", "0.6:1.8:7"],
                "divergence_induced_twopoint_conj",
                ("csv", "json"),
            ),
            (
                ["sanov", "--mode", "rate", "--theta", "0.37,0.63", "--theta_T", "0.5,0.5",
                 "--n_grid", "10,20,40,80"],
                "sanov_rate",
                ("csv", "json"),
            ),
            # the k = 2 lattice: the 1,001-point slope scan and the trend's count tables
            (RERUN_CONFIGS["bahadur_slopes"], "slopes_k2", ("json",)),
            (
                ["bahadur", "--mode", "trend", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8",
                 "--n_grid", "10,20,40", "--reps", "1000"],
                "trend_poisson1",
                ("csv", "json"),
            ),
            (
                # twopoint's statistic table holds +inf cells (q_j < p_j/2)
                ["bahadur", "--mode", "trend", "--law", "twopoint", "--theta", "0.4,0.6", "--theta_prime", "0.2,0.8",
                 "--n_grid", "10,20,40", "--reps", "1000"],
                "trend_twopoint",
                ("csv", "json"),
            ),
        ],
        ids=["chernoff", "chernoff_twopoint", "divergence", "estimate", "sanov_mc", "slopes_k3_poisson1", "slopes_k3_twopoint",
             "clt_moments_normal11", "estimate_weights_poisson1", "sanov_shrink",
             "divergence_induced_twopoint_conj", "sanov_rate", "slopes_k2", "trend_poisson1", "trend_twopoint"],
    )
    def test_golden_artifacts_reproduced(self, tmp_path, argv, label, suffixes):
        """Stored golden artifacts regenerate byte for byte."""
        assert _run(argv, tmp_path, label) == 0
        for suffix in suffixes:
            produced = (tmp_path / f"{label}.{suffix}").read_bytes()
            stored = (GOLDEN_DIR / f"{label}.{suffix}").read_bytes()
            assert produced == stored, f"{label}.{suffix} drifted"


# =============================================================================
# Tests: which scipy modules each entry point loads
# =============================================================================


def _scipy_modules_after(code: str) -> set:
    """Names of the scipy modules loaded once ``code`` ran in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    # the CLI prints the paths it wrote; the module names are the last line
    return set(done.stdout.splitlines()[-1].split())


class TestImportHygiene:
    """scipy submodules load only on the paths that call them."""

    def test_import_and_chernoff_load_no_scipy(self, tmp_path):
        assert _scipy_modules_after("import divlab.cli") == set()
        run = f"import divlab.cli\nassert divlab.cli.main({CHERNOFF_ARGS + ['--out', str(tmp_path)]!r}) == 0"
        assert _scipy_modules_after(run) == set()

    def test_trend_loads_no_scipy(self, tmp_path):
        run = (f"import divlab.cli\nassert divlab.cli.main("
               f"{RERUN_CONFIGS['bahadur_trend'] + ['--law', 'twopoint', '--out', str(tmp_path)]!r}) == 0")
        assert _scipy_modules_after(run) == set()

    def test_categorical_k3_estimate_loads_no_scipy(self, tmp_path):
        """A 3-cell estimate on 40 points runs the closed-form root and its
        closed-form certificate, loads no scipy, and is certified."""
        argv = ["estimate", "--model", "categorical", "--cells", "3",
                "--data", str(DATA_DIR / "categorical_k3.csv"), "--out", str(tmp_path)]
        assert _scipy_modules_after(f"import divlab.cli\nassert divlab.cli.main({argv!r}) == 0") == set()
        doc = json.loads((tmp_path / "estimate.json").read_text())
        assert doc["theta_hat"] == [0.3, 0.325] and doc["converged"] is True

    @pytest.mark.parametrize("argv, golden", [
        (RERUN_CONFIGS["bahadur_slopes"], None),
        (["bahadur", "--mode", "slopes", "--cells", "3", "--psi", "divergence", "--theta", "0.3,0.3,0.4",
          "--theta_prime", "0.2,0.4,0.4", "--law", "twopoint"], "slopes_k3_divergence_twopoint"),
        (RERUN_CONFIGS["sanov_sandwich"], None),
        (RERUN_CONFIGS["sanov_rate"], None),
        (RERUN_CONFIGS["sanov_ml_gap"], None),
        (["estimate", "--model", "categorical", "--cells", "2", "--data", "cells.csv"], None),
        *([["estimate", "--model", model, "--gamma", "induced", "--law", "twopoint", "--conjugate", conjugate,
            "--data", str(DATA_DIR / data)], None]
          for model, data in (("gauss_loc", "regression_points.csv"), ("exp_scale", "categorical_k5.csv"))
          for conjugate in ("false", "true")),
    ], ids=["slopes_k2_cell_mass", "slopes_k3_divergence", "sandwich", "rate", "ml_gap", "categorical_k2",
            "twopoint_gauss_loc", "twopoint_conjugate_gauss_loc", "twopoint_exp_scale", "twopoint_conjugate_exp_scale"])
    def test_exact_and_search_paths_load_no_scipy(self, argv, golden, tmp_path):
        """The two-cell boundary search, the multinomial log-pmf and its
        log-sum-exp are in-package, as is the golden-section search that
        refines a k=3 scan along rays, and the two-point generator's leads on
        continuous models: +inf off alpha = theta on gauss_loc, closed form
        on exp_scale's bands (counts 0-4 are exp_scale points).

        The k=3 divergence-statistic run, whose infimum is closed form, also
        reproduces its golden record.
        """
        data = tmp_path / "cells.csv"
        data.write_text("x\n" + "0\n1\n1\n" * 20)
        argv = [str(data) if a == "cells.csv" else a for a in argv]
        run = f"import divlab.cli\nassert divlab.cli.main({argv + ['--out', str(tmp_path)]!r}) == 0"
        assert _scipy_modules_after(run) == set()
        if golden is not None:
            produced = (tmp_path / "bahadur_slopes.json").read_bytes()
            assert produced == (GOLDEN_DIR / f"{golden}.json").read_bytes(), f"{golden}.json drifted"

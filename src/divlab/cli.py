"""Command-line front end.

Six subcommands wrap the library modules: ``divergence`` (generator
tables), ``chernoff`` (transform tables), ``estimate`` (minimum dual
estimation on a data file), ``sanov`` (rate tables, sandwich checks,
conditional Monte Carlo, shrinking neighborhoods), ``bahadur`` (slope
comparisons and tail trends) and ``clt`` (moment and distribution
harnesses).

Configuration resolves in three layers: built-in defaults, then a JSON
config file (``--config``), then individual flags.  Unknown config keys
are rejected.  Every subcommand accepts ``--dry-run`` to print the
resolved plan without computing.  Exit codes: 0 success, 2 validation
failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bahadur import (
    FunctionalStatistic,
    check_slopes,
    check_trend,
    efficiency_compare,
    empirical_slope_trend,
    trend_threshold,
)
from .clt import (
    STATISTIC_MAP,
    check_sizes,
    estimator_distribution_compare,
    weighted_clt_check,
    weighted_lln_check,
)
from .divergences import CressieRead, cell_divergence
from .errors import DivlabError, NumericError, ValidationError
from .estimation import WeightedEmpiricalMeasure, minimum_dual_estimator
from .models import Categorical, make_model
from .reporting import read_data_csv, render_json, write_csv, write_json
from .sanov import (
    Partition,
    check_enumeration,
    check_mc_reps,
    check_radius,
    check_radius_grid,
    check_sample_sizes,
    conditional_ldp_mc,
    ml_ldp_gap,
    sandwich_check,
    sanov_rate_convergence,
    shrink_epsilon_limit,
)
from .seeding import derived_rng
from .weights import chernoff_argmax, induced_divergence, weight_law

__all__ = ["main", "parse_grid"]

_REQUIRED = object()


# ---------------------------------------------------------------------------
# Field coercion.  Each coercer accepts both native JSON values and the
# string form a flag delivers, and names the offending field on failure.
# ---------------------------------------------------------------------------


def _as_bool(value, key):
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        low = value.strip().lower()
        if low in {"true", "yes", "1"}:
            return True
        if low in {"false", "no", "0"}:
            return False
    raise ValidationError(f"field {key!r}: expected a boolean, got {value!r}")


def _as_int(value, key):
    if isinstance(value, bool):
        raise ValidationError(f"field {key!r}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValidationError(f"field {key!r}: expected an integer, got {value!r}")
    try:
        return int(str(value).strip())
    except ValueError:
        raise ValidationError(
            f"field {key!r}: expected an integer, got {value!r}"
        ) from None


def _as_seed(value, key):
    # numpy seeds only from non-negative entropy
    seed = _as_int(value, key)
    if seed < 0:
        raise ValidationError(f"field {key!r}: expected a non-negative integer, got {seed}")
    return seed


def _as_float(value, key):
    if isinstance(value, bool):
        raise ValidationError(f"field {key!r}: expected a real number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value).strip())
    except ValueError:
        raise ValidationError(
            f"field {key!r}: expected a real number, got {value!r}"
        ) from None


def _as_str(value, key):
    if isinstance(value, str) and value:
        return value
    raise ValidationError(f"field {key!r}: expected a non-empty string, got {value!r}")


def _as_list(coerce_item, noun):
    def coerce(value, key):
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)) or not value:
            raise ValidationError(
                f"field {key!r}: expected a comma-separated list of {noun}, got {value!r}"
            )
        return tuple(coerce_item(v, key) for v in value)

    return coerce


_as_floats = _as_list(_as_float, "reals")
_as_ints = _as_list(_as_int, "integers")


def _as_gamma(value, key):
    if isinstance(value, str) and value.strip().lower() == "induced":
        return "induced"
    return _as_float(value, key)


def _as_choice(options):
    def coerce(value, key):
        text = _as_str(value, key)
        if text not in options:
            raise ValidationError(
                f"field {key!r}: expected one of {sorted(options)}, got {text!r}"
            )
        return text

    return coerce


# ---------------------------------------------------------------------------
# Per-subcommand schemas: key -> (coercer, default).  A _REQUIRED default
# means the field must come from the config file or a flag; a None default
# marks a field that only some modes need, checked at dispatch.
# ---------------------------------------------------------------------------

_COMMON = {
    "out": (_as_str, "."),
    "label": (_as_str, None),
}

SCHEMAS = {
    "divergence": {
        "gamma": (_as_gamma, 1.0),
        "law": (_as_str, None),
        "conjugate": (_as_bool, False),
        "grid": (_as_str, "0.1:5:50"),
        "points": (_as_floats, None),
        **_COMMON,
    },
    "chernoff": {
        "law": (_as_str, _REQUIRED),
        "grid": (_as_str, "0.1:5:50"),
        "points": (_as_floats, None),
        **_COMMON,
    },
    "estimate": {
        "model": (_as_str, _REQUIRED),
        "cells": (_as_int, None),
        "gamma": (_as_gamma, 1.0),
        "conjugate": (_as_bool, False),
        "law": (_as_str, None),
        "data": (_as_str, _REQUIRED),
        "weights": (_as_str, "unit"),
        "seed": (_as_seed, 0),
        **_COMMON,
    },
    "sanov": {
        "mode": (_as_choice({"rate", "sandwich", "ml_gap", "mc", "shrink"}), _REQUIRED),
        "cells": (_as_int, 2),
        "theta": (_as_floats, None),
        "theta_T": (_as_floats, None),
        "epsilon": (_as_float, 0.05),
        "n": (_as_int, 100),
        "n_grid": (_as_ints, None),
        "law": (_as_str, "poisson1"),
        "reps": (_as_int, 10000),
        "seed": (_as_seed, 0),
        "zero_cells": (_as_bool, True),
        "gamma": (_as_gamma, 1.0),
        "center": (_as_floats, None),
        "eps_grid": (_as_floats, None),
        **_COMMON,
    },
    "bahadur": {
        "mode": (_as_choice({"slopes", "trend"}), _REQUIRED),
        "cells": (_as_int, 2),
        "theta": (_as_floats, _REQUIRED),
        "theta_prime": (_as_floats, _REQUIRED),
        "law": (_as_str, "poisson1"),
        "psi": (_as_choice({"cell_mass", "divergence"}), "cell_mass"),
        "n_grid": (_as_ints, None),
        "reps": (_as_int, 10000),
        "seed": (_as_seed, 0),
        **_COMMON,
    },
    "clt": {
        "mode": (_as_choice({"moments", "estimator"}), _REQUIRED),
        "model": (_as_str, "gauss_loc"),
        "law": (_as_str, _REQUIRED),
        "theta_T": (_as_float, 0.0),
        "statistic": (_as_choice(set(STATISTIC_MAP)), "identity"),
        "gamma": (_as_float, 1.0),
        "n": (_as_int, 500),
        "reps": (_as_int, 2000),
        "seed": (_as_seed, 0),
        **_COMMON,
    },
}


def resolve_config(subcommand: str, args: argparse.Namespace) -> dict:
    """Merge defaults, the JSON config file, and flag overrides."""
    schema = SCHEMAS[subcommand]
    merged = {key: default for key, (_, default) in schema.items()}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ValidationError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {path}: expected a JSON object")
        unknown = sorted(set(loaded) - set(schema))
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(loaded)
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    resolved = {}
    for key, (coerce, _) in schema.items():
        value = merged[key]
        if value is _REQUIRED:
            raise ValidationError(f"field {key!r} is required")
        resolved[key] = None if value is None else coerce(value, key)
    return resolved


def parse_grid(text: str, key: str = "grid") -> np.ndarray:
    """Parse 'start:stop:count' into an evenly spaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"field {key!r}: expected 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(
            f"field {key!r}: expected 'start:stop:count', got {text!r}"
        ) from None
    if count < 1:
        raise ValidationError(f"field {key!r}: count must be at least 1")
    if count > 1 and not stop > start:
        raise ValidationError(f"field {key!r}: stop must exceed start")
    return np.linspace(start, stop, count)


def _evaluation_points(cfg: dict) -> np.ndarray:
    if cfg.get("points") is not None:
        return np.asarray(cfg["points"], dtype=float)
    return parse_grid(cfg["grid"])


def _spec_from(gamma, law_token, conj: bool):
    """Build a divergence generator and its serializable description."""
    if gamma == "induced":
        if law_token is None:
            raise ValidationError("field 'gamma': 'induced' requires a weight law")
        spec = induced_divergence(weight_law(law_token))
        desc = {"family": "weight_induced", "law": law_token}
    else:
        spec = CressieRead(float(gamma))
        desc = {"family": "power", "index": float(gamma)}
    if conj:
        spec = spec.conjugate()
        desc = {"family": "conjugate", "base": desc}
    return spec, desc


def _probability_vector(cfg: dict, key: str, k: int) -> np.ndarray:
    value = cfg.get(key)
    if value is None:
        raise ValidationError(f"field {key!r} is required for mode {cfg.get('mode')!r}")
    vec = np.asarray(value, dtype=float)
    if vec.shape != (k,):
        raise ValidationError(f"field {key!r}: expected {k} cell masses, got {vec.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"field {key!r}: cell masses must be finite")
    if np.any(vec < 0.0) or abs(float(vec.sum()) - 1.0) > 1e-8:
        raise ValidationError(f"field {key!r}: cell masses must be nonnegative and sum to 1")
    return vec


def _model_parameter(cfg: dict, key: str, model: Categorical) -> tuple:
    """The free masses of ``key``, checked against the model's open simplex
    here, before the dry-run cut, so a dry run rejects what a run rejects."""
    theta = tuple(_probability_vector(cfg, key, model.k)[:-1])
    model.probs(theta)
    return theta


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValidationError(f"field {key!r} is required for mode {cfg.get('mode')!r}")
    return cfg[key]


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns (plan, writer) where the
# writer produces the artifact files only when not in dry-run mode.
# ---------------------------------------------------------------------------


def _out_paths(cfg: dict, default_label: str, suffixes) -> dict:
    label = cfg["label"] or default_label
    out = Path(cfg["out"])
    return {suffix: out / f"{label}.{suffix}" for suffix in suffixes}


def _run_divergence(cfg: dict, dry_run: bool) -> list:
    spec, desc = _spec_from(cfg["gamma"], cfg["law"], cfg["conjugate"])
    xs = _evaluation_points(cfg)
    paths = _out_paths(cfg, "divergence", ("csv", "json"))
    if dry_run:
        return _plan("divergence", cfg, paths)
    rows = []
    for x in xs:
        x = float(x)
        rows.append(
            {
                "x": x,
                "value": spec.value(x, 0),
                "first_derivative": spec.value(x, 1),
                "second_derivative": spec.value(x, 2),
                "sharp": spec.sharp(x),
            }
        )
    write_csv(paths["csv"], list(rows[0]) if rows else ["x", "value"], rows)
    write_json(
        paths["json"],
        {"generator": desc, "count": len(rows), "x_min": float(xs.min()), "x_max": float(xs.max())},
    )
    return [paths["csv"], paths["json"]]


def _run_chernoff(cfg: dict, dry_run: bool) -> list:
    law = weight_law(cfg["law"])
    xs = _evaluation_points(cfg)
    paths = _out_paths(cfg, "chernoff", ("csv", "json"))
    if dry_run:
        return _plan("chernoff", cfg, paths)
    rows = []
    for x in xs:
        x = float(x)
        value, t_star = chernoff_argmax(law, x)
        rows.append({"x": x, "value": value, "argmax": t_star})
    write_csv(paths["csv"], ["x", "value", "argmax"], rows)
    write_json(
        paths["json"],
        {"law": cfg["law"], "count": len(rows), "x_min": float(xs.min()), "x_max": float(xs.max())},
    )
    return [paths["csv"], paths["json"]]


def _resolve_weights(cfg: dict, n: int, column) -> tuple[np.ndarray, str]:
    token = cfg["weights"]
    if token == "unit":
        return np.ones(n), "unit"
    if token == "column":
        if column is None:
            raise ValidationError("field 'weights': 'column' needs a two-column data file")
        return np.asarray(column, dtype=float), "column"
    law = weight_law(token)
    return law.sample(n, derived_rng(cfg["seed"], "weights")), token


def _run_estimate(cfg: dict, dry_run: bool) -> list:
    spec, desc = _spec_from(cfg["gamma"], cfg["law"], cfg["conjugate"])
    if cfg["model"] == "categorical":
        model = make_model("categorical", k=_as_int(_require(cfg, "cells"), "cells"))
    else:
        model = make_model(cfg["model"])
    paths = _out_paths(cfg, "estimate", ("json",))
    data_path = Path(cfg["data"])
    if not data_path.is_file():
        raise ValidationError(f"field 'data': file not found: {data_path}")
    points, column = read_data_csv(data_path)
    weights, weight_mode = _resolve_weights(cfg, points.shape[0], column)
    if weights.shape[0] != points.shape[0]:
        raise ValidationError("weights and observations must have equal length")
    if dry_run:
        return _plan("estimate", cfg, paths)
    mu = WeightedEmpiricalMeasure(tuple(map(float, points)), tuple(map(float, weights)))
    report = minimum_dual_estimator(model, spec, mu)
    payload = {
        "model": cfg["model"],
        "generator": desc,
        "n": int(points.shape[0]),
        "weights": weight_mode,
        "seed": cfg["seed"],
    }
    payload.update(report.to_dict())
    write_json(paths["json"], payload)
    return [paths["json"]]


def _run_sanov(cfg: dict, dry_run: bool) -> list:
    mode = cfg["mode"]
    k = cfg["cells"]
    model = make_model("categorical", k=k)
    part = Partition.atoms(k)
    paths = _out_paths(cfg, f"sanov_{mode}", ("csv", "json") if mode != "sandwich" and mode != "ml_gap" else ("json",))
    # every field the mode reads is parsed, and checked by the library's own
    # checks, before the dry-run cut, in the order the mode reads it, so a
    # dry run rejects what a real run rejects
    if mode == "shrink":
        spec, _ = _spec_from(cfg["gamma"], cfg["law"], False)
        center = _probability_vector(cfg, "center", k)
        reference = _probability_vector(cfg, "theta", k)
        eps_grid = check_radius_grid(_require(cfg, "eps_grid"))
    else:
        if mode != "ml_gap":
            theta = _model_parameter(cfg, "theta", model)
        thetaT = _model_parameter(cfg, "theta_T", model)
        if mode == "rate":
            n_grid = check_sample_sizes(_require(cfg, "n_grid"))
        if mode == "mc":
            law = weight_law(cfg["law"])
            check_mc_reps(cfg["reps"])
        if mode != "rate":
            check_sample_sizes([cfg["n"]])
            check_radius(cfg["epsilon"])
        if mode in ("sandwich", "ml_gap"):
            check_enumeration(k, cfg["n"])
    if dry_run:
        return _plan("sanov", cfg, paths)
    if mode == "rate":
        table = sanov_rate_convergence(model, theta, thetaT, n_grid)
        write_csv(
            paths["csv"],
            ["n", "rate_estimate", "rate_target", "gap"],
            [r.to_dict() for r in table.rows],
        )
        write_json(paths["json"], table.to_dict())
        return [paths["csv"], paths["json"]]
    if mode == "sandwich":
        report = sandwich_check(
            model, theta, thetaT, part, cfg["epsilon"], cfg["n"], cfg["zero_cells"]
        )
        write_json(paths["json"], report.to_dict())
        return [paths["json"]]
    if mode == "ml_gap":
        report = ml_ldp_gap(model, thetaT, part, cfg["epsilon"], cfg["n"], cfg["zero_cells"])
        write_json(paths["json"], report.to_dict())
        return [paths["json"]]
    if mode == "mc":
        record = conditional_ldp_mc(
            model,
            theta,
            thetaT,
            law,
            part,
            cfg["epsilon"],
            cfg["n"],
            cfg["reps"],
            cfg["seed"],
            cfg["zero_cells"],
        )
        write_csv(
            paths["csv"],
            ["n", "epsilon", "rate_estimate", "rate_target", "ci_lo", "ci_hi"],
            [record.to_dict()],
        )
        write_json(paths["json"], record.to_dict())
        return [paths["csv"], paths["json"]]
    # mode == "shrink"
    table = shrink_epsilon_limit(spec, center, reference, eps_grid, cfg["zero_cells"])
    write_csv(
        paths["csv"], ["epsilon", "inf_value"], [r.to_dict() for r in table.rows]
    )
    write_json(paths["json"], table.to_dict())
    return [paths["csv"], paths["json"]]


def _make_statistic(token: str, model, law) -> FunctionalStatistic:
    """The ``--psi`` statistic, a function of the null cell masses ``p`` and
    a probability vector ``q``.  ``model`` is unused: the slope hands the
    null's masses to every call."""
    if token == "cell_mass":

        def first_cell_gap(p, q):
            return abs(float(q[0]) - p[0])

        return FunctionalStatistic(first_cell_gap, "first_cell_gap")
    spec = induced_divergence(law)

    def divergence_value(p, q):
        return cell_divergence(spec, p, q)

    return FunctionalStatistic(divergence_value, "induced_divergence")


def _run_bahadur(cfg: dict, dry_run: bool) -> list:
    mode = cfg["mode"]
    k = cfg["cells"]
    model = make_model("categorical", k=k)
    law = weight_law(cfg["law"])
    theta = _model_parameter(cfg, "theta", model)
    theta_prime = _model_parameter(cfg, "theta_prime", model)
    paths = _out_paths(cfg, f"bahadur_{mode}", ("json",) if mode == "slopes" else ("csv", "json"))
    if mode == "trend":
        n_grid = _require(cfg, "n_grid")
        check_trend(model, n_grid, cfg["reps"])
        trend_threshold(model, induced_divergence(law), theta, theta_prime)
    else:
        check_slopes(model)
    if dry_run:
        return _plan("bahadur", cfg, paths)
    if mode == "slopes":
        stat = _make_statistic(cfg["psi"], model, law)
        record = efficiency_compare(model, law, stat, theta, theta_prime)
        write_json(paths["json"], record.to_dict())
        return [paths["json"]]
    table = empirical_slope_trend(model, law, theta, theta_prime, n_grid, cfg["reps"], cfg["seed"])
    write_csv(
        paths["csv"],
        ["n", "threshold", "hits", "slope_estimate", "slope_target", "ci_lo", "ci_hi", "one_sided"],
        [row.to_dict() for row in table.rows],
    )
    write_json(paths["json"], table.to_dict())
    return [paths["csv"], paths["json"]]


def _run_clt(cfg: dict, dry_run: bool) -> list:
    mode = cfg["mode"]
    if cfg["model"] == "categorical":
        raise ValidationError("field 'model': the harness needs a scalar-parameter model")
    model = make_model(cfg["model"])
    law = weight_law(cfg["law"])
    model.check_domain(cfg["theta_T"])
    check_sizes(cfg["n"], cfg["reps"])
    if mode == "estimator":
        spec = CressieRead(cfg["gamma"])
    paths = _out_paths(cfg, f"clt_{mode}", ("csv", "json"))
    if dry_run:
        return _plan("clt", cfg, paths)
    if mode == "moments":
        points = model.sample(cfg["theta_T"], cfg["n"], derived_rng(cfg["seed"], "points"))
        f = STATISTIC_MAP[cfg["statistic"]]
        lln = weighted_lln_check(points, law, f, cfg["reps"], cfg["seed"])
        clt = weighted_clt_check(points, law, f, cfg["reps"], cfg["seed"])
        write_csv(
            paths["csv"],
            ["rep", "lln_value", "clt_value"],
            [
                {"rep": i, "lln_value": u, "clt_value": t}
                for i, (u, t) in enumerate(zip(lln.values, clt.values))
            ],
        )
        write_json(paths["json"], {"lln": lln.to_dict(), "clt": clt.to_dict()})
        return [paths["csv"], paths["json"]]
    # mode == "estimator"
    report = estimator_distribution_compare(
        model,
        law,
        spec,
        cfg["theta_T"],
        cfg["n"],
        cfg["reps"],
        cfg["seed"],
    )
    plain = report.details.get("plain_values", ())
    write_csv(
        paths["csv"],
        ["rep", "weighted", "plain"],
        [
            {"rep": i, "weighted": w, "plain": p}
            for i, (w, p) in enumerate(zip(report.values, plain))
        ],
    )
    write_json(paths["json"], report.to_dict())
    return [paths["csv"], paths["json"]]


DISPATCH = {
    "divergence": _run_divergence,
    "chernoff": _run_chernoff,
    "estimate": _run_estimate,
    "sanov": _run_sanov,
    "bahadur": _run_bahadur,
    "clt": _run_clt,
}


def _plan(subcommand: str, cfg: dict, paths: dict) -> list:
    plan = {
        "subcommand": subcommand,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()},
        "outputs": [str(p) for p in paths.values()],
    }
    sys.stdout.write(render_json(plan))
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divlab",
        description="Divergence estimation and large-deviation experiment toolkit.",
    )
    subparsers = parser.add_subparsers(dest="subcommand")
    for name, schema in SCHEMAS.items():
        sub = subparsers.add_parser(name, help=f"run the {name} pipeline")
        sub.add_argument("--config", default=None, help="JSON config file")
        sub.add_argument(
            "--dry-run",
            action="store_true",
            help="validate and print the resolved plan without computing",
        )
        for key in schema:
            sub.add_argument(f"--{key}", default=None, help=f"override config field {key!r}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = resolve_config(args.subcommand, args)
        written = DISPATCH[args.subcommand](cfg, bool(args.dry_run))
    except (DivlabError, OSError) as exc:
        sys.stderr.write(f"divlab {args.subcommand}: {exc}\n")
        return 3 if isinstance(exc, NumericError) else 2
    for path in written:
        sys.stdout.write(f"{path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

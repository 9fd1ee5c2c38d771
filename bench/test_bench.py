"""Self-checks of the benchmark's tracer and metric rules.

    python -m pytest bench -q

Traced programs run in child interpreters, because installing the tracer
rebinds divlab's functions for the rest of a process.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PRELUDE = """
import json, sys
sys.path.insert(0, {bench!r})
import divlab, spans
tracer = spans.Tracer()
spans.install(tracer)
"""


def traced(body: str, tmp_path: Path, tag: str) -> dict:
    """Run ``body`` in a fresh interpreter with the tracer installed."""
    stem = tmp_path / tag
    code = PRELUDE.format(bench=str(BENCH)) + textwrap.dedent(body) + f"\ntracer.write({str(stem)!r})\n"
    env = run.child_env(ROOT)
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=170)
    return json.loads(stem.with_suffix(".json").read_text())


def counts_only(summary: dict) -> dict:
    """Everything in a trace summary except the times."""
    return {
        "calls": {k: v["calls"] for k, v in summary["spans"].items()},
        **{k: summary[k] for k in ("counts", "parents", "sums", "observed", "span_count")},
    }


COMPARE = """
from divlab.clt import estimator_distribution_compare
from divlab.divergences import CressieRead
from divlab.models import make_model
from divlab.weights import weight_law
import divlab.clt as clt
clt.estimator_distribution_compare(make_model("gauss_loc"), weight_law("poisson1"), CressieRead(1.0), 0.0, 50, 8, 7)
"""

SLOPE = """
import divlab.bahadur as bahadur
import divlab.cli as cli
from divlab.models import make_model
from divlab.weights import weight_law
model, law = make_model("categorical", k=3), weight_law("poisson1")
bahadur.efficiency_compare(model, law, cli._make_statistic("cell_mass", model, law), (0.3, 0.3), (0.2, 0.4))
"""


def test_comparison_makes_10082_batch_calls_every_time(tmp_path):
    first = traced(COMPARE, tmp_path, "a")
    second = traced(COMPARE, tmp_path, "b")
    # 2 branches x 71 outer golden evaluations x 71 inner ones
    assert first["spans"]["estimation.batch_value"]["calls"] == 2 * 71 * 71 == 10082
    assert counts_only(first) == counts_only(second)


def test_k3_slope_scans_501501_points_every_time(tmp_path):
    first = traced(SLOPE, tmp_path, "a")
    second = traced(SLOPE, tmp_path, "b")
    assert first["sums"]["grid_points"] == workloads.grid_points(3) == 501501
    assert sum(first["counts"]["bahadur.evaluator"].values()) >= 501501
    assert counts_only(first) == counts_only(second)


def test_self_time_from_spans_matches_the_aggregate(tmp_path):
    summary = traced(COMPARE, tmp_path, "a")
    recomputed = spans.self_times_from_spans(tmp_path / "a.npz")
    for name, st in summary["spans"].items():
        assert recomputed[name] == pytest.approx(st["self_s"], rel=1e-9, abs=1e-9)


def test_install_rebinds_every_module_attribute(tmp_path):
    body = """
    import divlab.clt as clt, divlab.estimation as est, divlab.cli as cli, divlab.weights as w
    assert clt.minimum_dual_estimator_batch is est.minimum_dual_estimator_batch
    assert clt.minimum_dual_estimator_batch.__bench_traced__
    assert cli.chernoff_argmax is w.chernoff_argmax is divlab.chernoff_argmax
    assert w.chernoff_argmax.__bench_traced__
    """
    traced(body, tmp_path, "a")


def test_parse_importtime_splits_divlab_and_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.special",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        350 |   divlab.models",
        "import time:        10 |        400 | divlab",
        "import time:        30 |        430 | divlab.cli",
    ])
    got = spans.parse_importtime(text)
    assert got["import_s"] == pytest.approx(830e-6)
    assert got["import_scipy_s"] == pytest.approx(300e-6)
    assert got["import_divlab_self_s"] == pytest.approx(90e-6)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    empty = {"spans": {}, "counts": {}, "parents": {}, "sums": {}, "observed": {}, "span_count": 0}
    imports = dict.fromkeys(("import_s", "import_scipy_s", "import_divlab_self_s"), 0.0)
    assert set(run.layer_metrics(empty, imports, 0, 0.0)) == set(run.LAYER_UNITS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_p50_cpu_s", "work_per_cpu_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile([1.0] * 19) is None
    pct, value, n = run.tail_percentile([float(i) for i in range(100)])
    assert (pct, value, n) == (90.0, 89.0, 100)
    assert run.tail_percentile([1.0] * 10 + [math.inf] * 10) == (50.0, 1.0, 20)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tail_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=dict(os.environ),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

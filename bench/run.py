"""divlab benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli_mix, estimator_spread, slope_scan, tail_mc, or ``all``.
Run from the root of a divlab source tree: the program is imported from
``src/``.  With ``--trace 0`` the run prints every end-to-end metric by name
and unit; with ``--trace 1`` it prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload runs from this process with at most one child process at a
time, ``DIVLAB_THREADS=1`` and single-threaded BLAS, in closed loop.
Scratch files go to ``.bench_work/`` under the source tree.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent

#: fresh interpreters timed per run for ``setup_s``; the median is reported
SETUPS = 3

#: a child that runs longer than this is killed and counted as failed
CHILD_LIMIT_S = 170.0

#: the throughput each workload reports, by its name in the report
WORK_NAME = {
    "cli_mix": "runs_per_s",
    "estimator_spread": "reps_per_s",
    "slope_scan": "grid_points_per_s",
    "tail_mc": "reps_per_s",
}
THROUGHPUTS = ("runs_per_s", "reps_per_s", "grid_points_per_s")

#: thread caps handed to every child
THREAD_ENV = {
    "DIVLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: per-layer metrics of the traced run: name -> unit
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_divlab_self_s": "s",
    "cli.main_self_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes_written": "B",
    "reporting.nondeterministic_artifacts": "count",
    "estimation.batch_value_calls": "count",
    "estimation.batch_value_calls_per_compare": "count",
    "estimation.batch_value_s": "s",
    "estimation.batch_rows": "rows",
    "estimation.batch_value_bytes": "B",
    "optim.batch_golden_self_s": "s",
    "models.log_normalizer_array_calls": "count",
    "models.log_normalizer_array_s": "s",
    "estimation.dual_calls": "count",
    "estimation.dual_s": "s",
    "estimation.dual_rejected_frac": "frac",
    "estimation.estimate_phi_dual_calls": "count",
    "optim.maximize_scalar_calls": "count",
    "optim.scalar_evals_per_solve": "count",
    "weights.chernoff_argmax_calls": "count",
    "weights.chernoff_argmax_s": "s",
    "weights.cgf_prime_per_argmax": "count",
    "divergences.value_calls": "count",
    "divergences.value_array_s": "s",
    "bahadur.evaluator_calls": "count",
    "bahadur.grid_points": "count",
    "bahadur.slope_generic_self_s": "s",
    "bahadur.refine_s": "s",
    "bahadur.trend_self_s": "s",
    "weights.sample_s": "s",
    "weights.sample_sum_s": "s",
    "weights.values_drawn": "count",
    "models.sample_s": "s",
    "sanov.mc_self_s": "s",
    "sanov.mc_hit_frac": "frac",
    "sanov.inf_calls": "count",
    "sanov.inf_s": "s",
    "sanov.ci_covers_target_frac": "frac",
    "clt.gates_passed_frac": "frac",
    "clt.estimator_compare_self_s": "s",
    "clt.moments_s": "s",
    "seeding.streams": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here or cannot produce its metrics."""


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float  # user + system time of the whole child
    ready: dict | None  # wall and CPU seconds to the ``ready`` line
    rss_mb: float


def launch(argv, root: Path, env: dict, stderr=None, ready: bool = False) -> Child:
    """Run one child to completion and return its exit code, times and peak RSS.

    With ``ready`` the child's first output line must be ``ready <cpu>``,
    where ``<cpu>`` is its own CPU time so far; the wall time to that line
    and that CPU time are its set-up times.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if ready else subprocess.DEVNULL,
        stderr=stderr if stderr is not None else subprocess.DEVNULL,
    )
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    ready_times = None
    try:
        if ready:
            with proc.stdout:
                line = proc.stdout.readline().split()
                if len(line) == 2 and line[0] == b"ready":
                    ready_times = {"wall": time.perf_counter() - t0, "cpu": float(line[1])}
                proc.stdout.read()
        # wait4 reports this child's own peak resident set size
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(proc.returncode, wall, cpu, ready_times, usage.ru_maxrss / 1024.0)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


# ---------------------------------------------------------------------------
# Workload runners.  Each returns (setups, records, extra).
# ---------------------------------------------------------------------------

def _tail(path: Path, limit: int = 300) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return text[-1][:limit] if text else ""


def _diff_files(a: Path, b: Path) -> int:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return sum(
        not ((a / n).is_file() and (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes())
        for n in names
    )


def run_cli_mix(root: Path, seed: int, seconds: float, trace: bool, env: dict, work: Path):
    py = sys.executable
    probes = [launch([py, "-c", "import divlab.cli"], root, env) for _ in range(SETUPS)]
    setups = [{"wall": c.wall_s, "cpu": c.cpu_s} for c in probes]
    ops = workloads.cli_ops(root, seed, work)

    def invoke(index: int, op, tag: str, traced: bool) -> dict:
        out = work / tag / f"{index:02d}-{op.name}"
        stderr_path = out.with_suffix(".stderr")
        out.mkdir(parents=True)
        args = [*op.argv, "--out", str(out), "--label", op.label]
        if traced:
            argv = [py, "-X", "importtime", str(BENCH / "cli_shim.py"), str(out.with_suffix(".trace")),
                    str(index), *args]
        else:
            argv = [py, "-m", "divlab.cli", *args]
        with open(stderr_path, "wb") as stderr:
            child = launch(argv, root, env, stderr=stderr)
        error, ok = None, False
        if child.rc != 0:
            error = f"exit {child.rc}: {_tail(stderr_path)}"
        else:
            try:
                ok = op.check(out, op.label)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"output check: {type(exc).__name__}: {exc}"
        return {
            "name": op.name, "s": child.wall_s, "cpu": child.cpu_s, "units": int(error is None and ok),
            "failed": error is not None or not ok, "incorrect": error is None and not ok,
            "error": error, "rss_mb": child.rss_mb, "out": str(out),
            "stderr": str(stderr_path), "trace": str(out.with_suffix(".trace")) if traced else None,
        }

    def differing(records: list) -> int:
        """Artifact files that differ between runs of the same config."""
        outs = {r["name"]: Path(r["out"]) for r in records}
        return sum(_diff_files(outs[op.twin], outs[op.name]) for op in ops if op.twin is not None)

    if not trace:
        records = []
        t0 = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            tag = f"cycle{len(records) // len(ops)}"
            records += [invoke(i, op, tag, False) for i, op in enumerate(ops)]
            now = time.perf_counter()
            if now - t0 + (now - c0) > seconds:
                break
        return setups, records, {"nondeterministic": differing(records[-len(ops):])}

    # each traced invocation directly follows the same invocation untraced,
    # so that slow drift of the machine cancels out of the overhead
    untraced, traced = [], []
    for i, op in enumerate(ops):
        untraced.append(invoke(i, op, "untraced", False))
        traced.append(invoke(i, op, "traced", True))
    summaries = [json.loads(Path(r["trace"]).with_suffix(".json").read_text()) for r in traced
                 if Path(r["trace"]).with_suffix(".json").is_file()]
    imports = [spans.parse_importtime(Path(r["stderr"]).read_text(errors="replace")) for r in traced]
    extra = {
        "nondeterministic": differing(traced),
        "summary": merge_summaries(summaries),
        "imports": {k: statistics.median(i[k] for i in imports) for k in imports[0]},
        "untraced_s": sum(r["s"] for r in untraced),
        "traced_s": sum(r["s"] for r in traced),
    }
    return setups, untraced + traced, extra


def run_in_process(name: str, root: Path, seed: int, seconds: float, trace: bool, env: dict, work: Path):
    py = sys.executable
    worker = [str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUPS - 1):
        probe = launch([py, *worker, "--setup-only"], root, env, ready=True)
        if probe.rc != 0 or probe.ready is None:
            raise BenchError(f"{name}: set-up failed with exit {probe.rc}")
        setups.append(probe.ready)
    out = work / "result.json"
    stderr_path = work / "worker.stderr"
    flags = ["-X", "importtime"] if trace else []
    with open(stderr_path, "wb") as stderr:
        child = launch([py, *flags, *worker, "--seconds", str(seconds), "--trace", str(int(trace)),
                        "--out", str(out)], root, env, stderr=stderr, ready=True)
    if child.rc != 0 or child.ready is None or not out.is_file():
        raise BenchError(f"{name}: worker exit {child.rc}: {_tail(stderr_path)}")
    setups.append(child.ready)
    result = json.loads(out.read_text(encoding="utf-8"))
    extra = {"rss_mb": child.rss_mb}
    if trace:
        extra.update(
            summary=json.loads((work / result["trace"]).read_text(encoding="utf-8")),
            imports=spans.parse_importtime(stderr_path.read_text(errors="replace")),
            untraced_s=result["untraced_s"],
            traced_s=result["traced_s"],
        )
    return setups, result["records"], extra


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def merge_summaries(summaries: list) -> dict:
    """Sum the trace aggregates of several processes."""
    merged = {"spans": {}, "counts": {}, "parents": {}, "sums": {}, "observed": {}, "span_count": 0}
    for s in summaries:
        for name, st in s["spans"].items():
            acc = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for table in ("counts", "parents"):
            for name, by in s[table].items():
                acc = merged[table].setdefault(name, {})
                for under, n in by.items():
                    acc[under] = acc.get(under, 0) + n
        for key, v in s["sums"].items():
            merged["sums"][key] = merged["sums"].get(key, 0) + v
        for key, vals in s["observed"].items():
            merged["observed"].setdefault(key, []).extend(vals)
        merged["span_count"] += s["span_count"]
    return merged


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, imports: dict, nondeterministic: int, overhead_s: float) -> dict:
    """The per-layer metrics of one traced cycle.  Undefined ratios read 0."""
    spans, sums, obs = summary["spans"], summary["sums"], summary["observed"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def count(name, under=None):
        by = summary["counts"].get(name, {})
        return sum(by.values()) if under is None else by.get(under, 0)

    def parented(name, parent):
        return summary["parents"].get(name, {}).get(parent, 0)

    mc = obs.get("mc_records", [])
    gates = obs.get("gates", [])
    batch = calls("estimation.batch_value")
    argmax = calls("weights.chernoff_argmax")
    solves = calls("_optim.maximize_scalar")
    return {
        "cli.import_s": imports["import_s"],
        "cli.import_scipy_s": imports["import_scipy_s"],
        "cli.import_divlab_self_s": imports["import_divlab_self_s"],
        "cli.main_self_s": own("cli.main"),
        "reporting.write_s": total("reporting.write_json") + total("reporting.write_csv"),
        "reporting.bytes_written": int(sums.get("bytes_written", 0)),
        "reporting.nondeterministic_artifacts": int(nondeterministic),
        "estimation.batch_value_calls": batch,
        "estimation.batch_value_calls_per_compare": _ratio(batch, calls("clt.estimator_distribution_compare")),
        "estimation.batch_value_s": total("estimation.batch_value"),
        "estimation.batch_rows": _ratio(sums.get("batch_rows", 0), batch),
        "estimation.batch_value_bytes": _ratio(sums.get("batch_bytes", 0), batch),
        "optim.batch_golden_self_s": own("_optim.batch_golden_max"),
        "models.log_normalizer_array_calls": calls("models.log_normalizer_array"),
        "models.log_normalizer_array_s": total("models.log_normalizer_array"),
        "estimation.dual_calls": calls("estimation.dual"),
        "estimation.dual_s": total("estimation.dual"),
        "estimation.dual_rejected_frac": _ratio(sums.get("dual_rejected", 0), calls("estimation.dual")),
        "estimation.estimate_phi_dual_calls": calls("estimation.estimate_phi_dual"),
        "optim.maximize_scalar_calls": solves,
        "optim.scalar_evals_per_solve": _ratio(parented("estimation.dual", "_optim.maximize_scalar"), solves),
        "weights.chernoff_argmax_calls": argmax,
        "weights.chernoff_argmax_s": total("weights.chernoff_argmax"),
        "weights.cgf_prime_per_argmax": _ratio(count("weights.cgf_prime", "weights.chernoff_argmax"), argmax),
        "divergences.value_calls": count("divergences.value"),
        "divergences.value_array_s": total("divergences.value_array"),
        "bahadur.evaluator_calls": count("bahadur.evaluator"),
        "bahadur.grid_points": int(sums.get("grid_points", 0)),
        "bahadur.slope_generic_self_s": own("bahadur.slope_generic"),
        "bahadur.refine_s": total("bahadur.refine"),
        "bahadur.trend_self_s": own("bahadur.empirical_slope_trend"),
        "weights.sample_s": total("weights.sample"),
        "weights.sample_sum_s": total("weights.sample_sum"),
        "weights.values_drawn": int(sums.get("values_drawn", 0)),
        "models.sample_s": total("models.sample"),
        "sanov.mc_self_s": own("sanov.conditional_ldp_mc"),
        "sanov.mc_hit_frac": _ratio(sum(r["hits"] for r in mc), sum(r["reps"] for r in mc)),
        "sanov.inf_calls": calls("sanov.neighborhood_inf_divergence"),
        "sanov.inf_s": total("sanov.neighborhood_inf_divergence"),
        "sanov.ci_covers_target_frac": _ratio(
            sum(r["ci_lo"] <= r["target"] <= r["ci_hi"] for r in mc), len(mc)),
        "clt.gates_passed_frac": _ratio(sum(g[0] for g in gates), sum(g[1] for g in gates)),
        "clt.estimator_compare_self_s": own("clt.estimator_distribution_compare"),
        "clt.moments_s": total("clt.weighted_lln_check") + total("clt.weighted_clt_check"),
        "seeding.streams": len({tuple(s) for s in obs.get("streams", [])}),
        "trace.overhead_s": overhead_s,
        "trace.spans": int(summary["span_count"]),
    }


def tail_percentile(samples: list) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples above it, at or above p50."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1], n
    return None


def end_to_end(name: str, setups: list, records: list, extra: dict) -> dict:
    """Every end-to-end metric of the report, by name (None where it does not
    apply), and the CPU-time forms of set-up, median and throughput."""
    # a failed operation misses any latency limit: the tail counts it as
    # infinitely slow, the median is taken over the operations that succeeded
    latencies = [math.inf if r["failed"] else r["s"] for r in records]
    succeeded = [r for r in records if not r["failed"]]
    if not succeeded:
        raise BenchError(f"{name}: every operation failed")
    units = sum(r["units"] for r in records)
    rss = extra["rss_mb"] if "rss_mb" in extra else max(r["rss_mb"] for r in records)
    metrics = {
        "setup_s": statistics.median(s["wall"] for s in setups),
        "op_p50_s": statistics.median(r["s"] for r in succeeded),
        "op_tail_s": tail_percentile(latencies),
        **{t: None for t in THROUGHPUTS},
        "peak_rss_mb": rss,
        "failed_frac": sum(r["failed"] for r in records) / len(records),
        "setup_cpu_s": statistics.median(s["cpu"] for s in setups),
        "op_p50_cpu_s": statistics.median(r["cpu"] for r in succeeded),
        "work_per_cpu_s": units / sum(r["cpu"] for r in records),
    }
    metrics[WORK_NAME[name]] = units / sum(r["s"] for r in records)
    return metrics


# ---------------------------------------------------------------------------
# Machine facts.
# ---------------------------------------------------------------------------

def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches or {"unavailable": "no cache sizes under /sys"}


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _commit(root: Path) -> str:
    if (root / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    return "unavailable (not a git checkout)"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "divlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts(root: Path, seed: int, env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "caches_per_core": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "threads": {k: env.get(k) for k in THREAD_ENV},
        "seed": seed,
        "commit": _commit(root),
        "source_sha256_16": _source_digest(root),
    }


# ---------------------------------------------------------------------------
# Report.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_end_to_end(name: str, metrics: dict, records: list) -> list:
    n = len(records)
    failed = [r for r in records if r["failed"]]
    lines = [
        f"  setup_s            {_fmt(metrics['setup_s'])} s   (median of {SETUPS} fresh interpreters; "
        f"CPU {_fmt(metrics['setup_cpu_s'])} s)",
        f"  op_p50_s           {_fmt(metrics['op_p50_s'])} s   ({n - len(failed)} operations that succeeded; "
        f"CPU {_fmt(metrics['op_p50_cpu_s'])} s)",
    ]
    tail = metrics["op_tail_s"]
    if tail is None:
        lines.append(f"  op_tail_s          not reported: {n} operations leave fewer than ten above p50")
    else:
        lines.append(f"  op_tail_s          {_fmt(tail[1])} s   (p{tail[0]:g} of {tail[2]} samples)")
    for t in THROUGHPUTS:
        value = metrics[t]
        lines.append(f"  {t:<18} " + (
            f"{_fmt(value)} 1/s   (per CPU second {_fmt(metrics['work_per_cpu_s'])})"
            if value is not None else f"not applicable to {name}"
        ))
    lines.append(f"  peak_rss_mb        {_fmt(metrics['peak_rss_mb'])} MB")
    lines.append(f"  failed_frac        {_fmt(metrics['failed_frac'])}   ({len(failed)} of {n})")
    for r in failed:
        lines.append(f"    failed: {r['name']}: {r['error'] or 'output check'}")
    return lines


def report_layers(layers: dict, extra: dict) -> list:
    lines = [f"  {k:<44} {_fmt(v)} {LAYER_UNITS[k]}" for k, v in layers.items()]
    lines.append(
        f"  tracing overhead: traced cycle {_fmt(extra['traced_s'])} s - untraced cycle "
        f"{_fmt(extra['untraced_s'])} s = {_fmt(layers['trace.overhead_s'])} s"
    )
    lines.append("  wait time: not recorded; every layer runs on one thread, so none waits")
    lines.append("  estimation.batch_value_bytes is computed as rows x n x 8 B per call, "
                 "not measured; compare it with the L2 size above")
    return lines


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def run_one(name: str, root: Path, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    work = root / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if name == "cli_mix":
        setups, records, extra = run_cli_mix(root, seed, seconds, trace, env, work)
    else:
        setups, records, extra = run_in_process(name, root, seed, seconds, trace, env, work)
    facts = machine_facts(root, seed, env)
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
             "  machine " + json.dumps(facts, sort_keys=True)]
    e2e = end_to_end(name, setups, records, extra)
    if trace:
        # only cli_mix writes artifacts, so only it can have differing ones
        layers = layer_metrics(extra["summary"], extra["imports"], extra.get("nondeterministic", 0),
                               extra["traced_s"] - extra["untraced_s"])
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        lines += report_layers(layers, extra)
    else:
        # the benchmark's metrics are the CPU-time forms: on a shared host
        # the wall times also carry the time the hypervisor takes the CPU away
        metrics = {
            "setup_s": {"value": e2e["setup_cpu_s"], "unit": "s"},
            "op_p50_cpu_s": {"value": e2e["op_p50_cpu_s"], "unit": "s"},
            "work_per_cpu_s": {"value": e2e["work_per_cpu_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        }
        lines += report_end_to_end(name, e2e, records)
        lines.append(f"  benchmark metrics: setup_s is the set-up CPU time, work_per_cpu_s is "
                     f"{WORK_NAME[name]} per CPU second")
    result = {
        "correct": not any(r["incorrect"] for r in records),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    (work / "report.json").write_text(
        json.dumps({"facts": facts, "records": records, "end_to_end": e2e, **result}, default=str),
        encoding="utf-8",
    )
    print("\n".join(lines), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "divlab" / "__init__.py").is_file():
        print(f"bench: no divlab source tree under {root}; run from the repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src" / "divlab"), quiet=1)
    env = child_env(root)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_one(n, root, args.seed, args.seconds, bool(args.trace), env) for n in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer that wraps divlab's layer boundaries from outside the package.

Nothing under ``src/`` is edited: :func:`install` rebinds the public
functions, the kernel entry points and the methods of the model, law and
generator classes to timing wrappers at run time.  A function is rebound
at every module attribute that binds it, because several modules import
their helpers by name.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory in flat arrays and are written out once, at the end.
A span's self time is its duration minus the time its child spans cover.
Very hot leaf calls (the functional evaluator, scalar generator values,
``cgf_prime``) are counted rather than spanned, and each count is
attributed to the innermost open span.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._depth: list[int] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[tuple[int, int], int] = {}
        self.parents: dict[tuple[int, int], int] = {}
        self.sums: dict[str, float] = {}
        self.observed: dict[str, list] = {}
        self.op_id = -1

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self._depth.append(0)
        return nid

    def observe(self, key: str, value) -> None:
        """Keep ``value`` under ``key``; for small per-call records."""
        self.observed.setdefault(key, []).append(value)

    def tally(self, key: str, value) -> None:
        """Add ``value`` to the running sum under ``key``."""
        self.sums[key] = self.sums.get(key, 0) + value

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so every call records one span named ``name``.

        ``observe(args, kwargs, result)`` runs after a call that returned.
        """
        nid = self._id(name)
        clock = time.perf_counter
        stack, child, depth, parents = self._stack, self._child, self._depth, self.parents

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            parent = stack[-1] if stack else -1
            edge = (nid, self.span_name[parent] if stack else -1)
            parents[edge] = parents.get(edge, 0) + 1
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                depth[nid] -= 1
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.calls[nid] += 1
                self.self_time[nid] += dur - inner
                if depth[nid] == 0:
                    # recursion-safe inclusive time: outermost call only
                    self.total[nid] += dur
                if child:
                    child[-1] += dur
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def counter(self, name: str, fn, observe=None):
        """Wrap ``fn`` so every call is counted under the innermost open span."""
        cid = self._id(name)
        stack, counts, span_name = self._stack, self.counts, self.span_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (cid, span_name[stack[-1]] if stack else -1)
            counts[key] = counts.get(key, 0) + 1
            if observe is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            observe(args, kwargs, result)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def summary(self) -> dict:
        """JSON-ready aggregate: spans, counts and observations."""
        spans = {
            name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        return {
            "spans": spans,
            "counts": self._by_parent(self.counts),
            "parents": self._by_parent(self.parents),
            "sums": self.sums,
            "observed": self.observed,
            "span_count": len(self.span_start),
        }

    def _by_parent(self, table: dict) -> dict:
        out: dict[str, dict[str, int]] = {}
        for (nid, under), n in table.items():
            out.setdefault(self.names[nid], {})[self.names[under] if under >= 0 else ""] = n
        return out

    def write(self, stem: Path) -> None:
        """Write the aggregate as ``<stem>.json`` and the spans as ``<stem>.npz``."""
        import numpy as np

        stem = Path(stem)
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            stem.with_suffix(".npz"),
            names=np.array(self.names if self.names else [""]),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        stem.with_suffix(".json").write_text(json.dumps(self.summary()), encoding="utf-8")


def self_times_from_spans(path: Path) -> dict[str, float]:
    """Recompute per-name self time from a written span file."""
    import numpy as np

    data = np.load(path)
    names, name, parent = data["names"], data["name"], data["parent"]
    dur = data["end"] - data["start"]
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    own = dur - covered
    return {str(names[i]): float(own[name == i].sum()) for i in np.unique(name)}


# ---------------------------------------------------------------------------
# Layer boundaries.
# ---------------------------------------------------------------------------

def _rebind(original, wrapped) -> None:
    """Replace ``original`` by ``wrapped`` at every divlab module attribute."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "divlab" or modname.startswith("divlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _classes(module):
    return [
        obj for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]


def _wrap_methods(module, attr: str, make) -> None:
    """Wrap ``attr`` on every class of ``module`` that defines it itself."""
    for cls in _classes(module):
        fn = cls.__dict__.get(attr)
        if (
            inspect.isfunction(fn)
            and not getattr(fn, "__isabstractmethod__", False)
            and not getattr(fn, "__bench_traced__", False)
        ):
            setattr(cls, attr, make(fn))


def _record_batch_shape(tracer: Tracer):
    def observe(args, kwargs, result):
        crit, theta = args[0], args[1]
        rows = int(len(theta))
        tracer.tally("batch_rows", rows)
        tracer.tally("batch_bytes", rows * int(crit.t.shape[-1]) * 8)

    return observe


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported divlab modules."""
    import divlab.bahadur as bahadur
    import divlab.cli as cli
    import divlab.clt as clt
    import divlab.divergences as divergences
    import divlab.estimation as estimation
    import divlab.models as models
    import divlab.reporting as reporting
    import divlab.sanov as sanov
    import divlab.seeding as seeding
    import divlab.weights as weights
    from divlab import _optim

    def span_fn(module, attr, name, observe=None):
        original = getattr(module, attr)
        _rebind(original, tracer.span(name, original, observe))

    def count_fn(module, attr, name, observe=None):
        original = getattr(module, attr)
        _rebind(original, tracer.counter(name, original, observe))

    def record(key, pick):
        return lambda args, kwargs, result: tracer.observe(key, pick(args, kwargs, result))

    def tally(key, pick):
        return lambda args, kwargs, result: tracer.tally(key, pick(args, kwargs, result))

    # estimation: the batched and scalar dual criteria and the searches over them
    estimation._BatchCriterion.value = tracer.span(
        "estimation.batch_value", estimation._BatchCriterion.value, _record_batch_shape(tracer)
    )
    estimation._DualCriterion.__call__ = tracer.span(
        "estimation.dual",
        estimation._DualCriterion.__call__,
        tally("dual_rejected", lambda a, k, r: int(not math.isfinite(r))),
    )
    span_fn(estimation, "estimate_phi_dual", "estimation.estimate_phi_dual")
    span_fn(estimation, "minimum_dual_estimator", "estimation.minimum_dual_estimator")
    span_fn(estimation, "minimum_dual_estimator_batch", "estimation.minimum_dual_estimator_batch")

    # _optim: the scalar and batched golden-section searches
    span_fn(_optim, "maximize_scalar", "_optim.maximize_scalar")
    span_fn(_optim, "batch_golden_max", "_optim.batch_golden_max")

    # models: normalizers and samplers of every model class
    _wrap_methods(models, "log_normalizer_array", lambda f: tracer.span("models.log_normalizer_array", f))
    _wrap_methods(models, "sample", lambda f: tracer.span("models.sample", f))

    # weights: laws, their samplers and the Chernoff solve
    _wrap_methods(
        weights, "sample",
        lambda f: tracer.span("weights.sample", f, tally("values_drawn", lambda a, k, r: int(r.size))),
    )
    _wrap_methods(
        weights, "sample_sum",
        lambda f: tracer.span("weights.sample_sum", f, tally("values_drawn", lambda a, k, r: int(r.size))),
    )
    _wrap_methods(weights, "cgf_prime", lambda f: tracer.counter("weights.cgf_prime", f))
    span_fn(weights, "chernoff_argmax", "weights.chernoff_argmax")

    # divergences: scalar values are counted, array values are spanned
    for module in (divergences, weights):
        _wrap_methods(module, "value", lambda f: tracer.counter("divergences.value", f))
        _wrap_methods(module, "value_array", lambda f: tracer.span("divergences.value_array", f))

    # sanov: conditional Monte Carlo and the neighbourhood infimum
    span_fn(
        sanov, "conditional_ldp_mc", "sanov.conditional_ldp_mc",
        record("mc_records", lambda a, k, r: {
            "hits": r.hits, "reps": r.reps, "ci_lo": r.ci_lo, "ci_hi": r.ci_hi,
            "target": r.rate_target,
        }),
    )
    span_fn(sanov, "neighborhood_inf_divergence", "sanov.neighborhood_inf_divergence")

    # bahadur: slopes, the simplex grid, local refinement and tail trends
    span_fn(bahadur, "efficiency_compare", "bahadur.efficiency_compare")
    span_fn(bahadur, "slope_generic", "bahadur.slope_generic")
    span_fn(bahadur, "_refine_constrained", "bahadur.refine")
    span_fn(bahadur, "empirical_slope_trend", "bahadur.empirical_slope_trend")
    span_fn(
        bahadur, "_simplex_grid", "bahadur.simplex_grid",
        tally("grid_points", lambda a, k, r: int(r.shape[0])),
    )

    # clt: estimator spread and the moment harnesses
    gates = record("gates", lambda a, k, r: [sum(bool(v) for v in r.checks.values()), len(r.checks)])
    span_fn(clt, "estimator_distribution_compare", "clt.estimator_distribution_compare", gates)
    span_fn(clt, "weighted_lln_check", "clt.weighted_lln_check", gates)
    span_fn(clt, "weighted_clt_check", "clt.weighted_clt_check", gates)

    # seeding: every derived stream, identified by (root, tag, index)
    count_fn(
        seeding, "derive_seed", "seeding.derive_seed",
        record("streams", lambda a, k, r: [int(r.entropy), *map(int, r.spawn_key)]),
    )

    # reporting: artifact writers
    def written(args, kwargs, result):
        tracer.tally("bytes_written", Path(result).stat().st_size)

    span_fn(reporting, "write_json", "reporting.write_json", written)
    span_fn(reporting, "write_csv", "reporting.write_csv", written)

    # cli: the entry point, and the evaluator of every statistic it builds
    span_fn(cli, "main", "cli.main")
    make_statistic = cli._make_statistic

    @functools.wraps(make_statistic)
    def counted_statistic(*args, **kwargs):
        stat = make_statistic(*args, **kwargs)
        return dataclasses.replace(stat, evaluator=tracer.counter("bahadur.evaluator", stat.evaluator))

    cli._make_statistic = counted_statistic


# ---------------------------------------------------------------------------
# Import-time breakdown from ``python -X importtime``.
# ---------------------------------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing divlab, scipy under it, and divlab's own code.

    ``import_s`` sums the cumulative time of the top-level divlab imports,
    ``import_scipy_s`` the cumulative time of every outermost scipy import,
    and ``import_divlab_self_s`` the self time of all divlab modules.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        stripped = name.lstrip(" ")
        level = (len(name) - len(stripped) - 1) // 2
        rows.append((level, stripped.strip(), int(self_us), int(cum_us)))
    out = {"import_s": 0.0, "import_scipy_s": 0.0, "import_divlab_self_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    # children print before their parent, so walk backwards to see parents first
    for level, name, self_us, cum_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        is_divlab = name == "divlab" or name.startswith("divlab.")
        if is_divlab:
            out["import_divlab_self_s"] += self_us * 1e-6
            if level == 0:
                out["import_s"] += cum_us * 1e-6
        if (name == "scipy" or name.startswith("scipy.")) and not any(
            a == "scipy" or a.startswith("scipy.") for _, a in ancestors
        ):
            out["import_scipy_s"] += cum_us * 1e-6
        ancestors.append((level, name))
    return out

"""Per-layer tracing from outside the library.

While a ``Tracer`` is installed it replaces module attributes at the points
where one mfhjb module calls another (sliced_gauge -> transport1d,
variational -> sliced_gauge, control -> dynamics, MollifiedCoefficients ->
mollify) with wrappers that record a span (name, start, end, parent) and
update counters.  Spans stay in memory until the benchmark writes them out.
A probe whose attribute no longer exists is skipped and its metrics are
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
import tracemalloc
from collections import defaultdict

import numpy as np

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._warm_depth = 0
        self._quantile_depth = 0
        self._saved: list[tuple] = []
        self._cdf = None

    def reset_counters(self) -> None:
        self.counts.clear()
        self.maxima.clear()

    # spans -----------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed by
        name over spans[first:]."""
        spans = self.spans[first:]
        child = np.zeros(len(spans))
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(spans):
            out[name] += end - start - child[k]
        return out

    # probes ----------------------------------------------------------------
    def install(self) -> None:
        from mfhjb import transport1d

        # the unwrapped CDF, so residual checks add no counted passes
        self._cdf = getattr(transport1d, "_mixture_cdf", None)
        for module_name, attr, span_name, hooks in PROBES:
            owner = importlib.import_module(module_name.rsplit(":", 1)[0])
            if ":" in module_name:
                owner = getattr(owner, module_name.rsplit(":", 1)[1], None)
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                self.absent.add(span_name)
                continue
            self._saved.append((owner, attr, target))
            setattr(owner, attr, self._wrap(span_name, target, hooks))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, target = self._saved.pop()
            setattr(owner, attr, target)

    def _wrap(self, name, fn, hooks):
        before, after = hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(self, args, kwargs) if before else None
            idx = self.open(name)
            result = None  # what after() sees when the call raised
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if after:
                    after(self, state, args, kwargs, result)
            return result

        return wrapper


# hooks: before(tracer, args, kwargs) -> state; after(tracer, state, args,
# kwargs, result) also runs when the call raised, so it can undo before()


def _count(key, amount=None):
    def before(tr, args, kwargs):
        tr.counts[key] += 1 if amount is None else amount(args, kwargs)

    return before, None


def _quantile_before(tr, args, kwargs):
    values, p = args[0], _arg(args, kwargs, 2, "p")
    z0 = _arg(args, kwargs, 3, "z0")
    tr.counts["transport1d.quantile.calls"] += 1
    tr.counts["transport1d.quantile.points"] += np.size(p)
    if tr._warm_depth:
        tr.counts["transport1d.quantile.warm_fallbacks"] += 1
    warm = z0 is not None
    if warm:
        tr.counts["transport1d.quantile.warm_calls"] += 1
        tr._warm_depth += 1
    tr._quantile_depth += 1
    return warm


def _quantile_after(tr, warm, args, kwargs, z):
    tr._quantile_depth -= 1
    if warm:
        tr._warm_depth -= 1
    if tr._quantile_depth or tr._cdf is None or z is None:
        return  # a nested re-solve; the outer call's result is checked
    values, sigma, p = args[0], args[1], _arg(args, kwargs, 2, "p")
    from mfhjb import transport1d

    idx = tr.open("trace.residual")  # a child span, so callers' self time excludes it
    p = np.clip(np.asarray(p, dtype=float), transport1d.P_MIN, 1.0 - transport1d.P_MIN)
    resid = float(np.max(np.abs(tr._cdf(values, sigma, z) - p)))
    tr.close(idx)
    key = "transport1d.quantile.max_residual"
    tr.maxima[key] = max(tr.maxima[key], resid)


def _cdf_before(tr, args, kwargs):
    values, z = args[0], args[2]
    tr.counts["transport1d.cdf.passes"] += 1
    tr.counts["transport1d.cdf.atoms"] += np.size(z) * np.shape(values)[-1]


def _derivative_hooks(key):
    def before(tr, args, kwargs):
        x = np.asarray(_arg(args, kwargs, 4, "x"))
        tr.counts[key + ".eval_points"] += 1 if x.ndim == 1 else x.shape[0]
        tracemalloc.start()

    def after(tr, state, args, kwargs, result):
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        name = "sliced_gauge.derivatives.peak_rss_mb"
        tr.maxima[name] = max(tr.maxima[name], peak)

    return before, after


def _simulate_before(tr, args, kwargs):
    init, cfg = args[1], args[3]
    tr.counts["dynamics.simulate.calls"] += 1
    tr.counts["dynamics.simulate.particle_steps"] += init.n * cfg.steps
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _simulate_after(tr, faults0, args, kwargs, result):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    tr.counts["dynamics.simulate.minor_faults"] += faults


def _pairs(args, kwargs):
    return len(args[0].ensembles) ** 2


def _paths(args, kwargs):
    return _arg(args, kwargs, 4, "paths", 32)


def _mollified_before(tr, args, kwargs):
    tr.counts["mollify.mollified_all.calls"] += 1
    tr.counts["mollify.mollified_all.offset_evals"] += args[8].shape[0]  # z_off rows


# (module[:class], attribute, span name, (before, after))
PROBES = [
    ("mfhjb.transport1d", "_mixture_quantile", "transport1d.quantile", (_quantile_before, _quantile_after)),
    ("mfhjb.sliced_gauge", "_mixture_quantile", "transport1d.quantile", (_quantile_before, _quantile_after)),
    ("mfhjb.transport1d", "_mixture_cdf", "transport1d.cdf", (_cdf_before, None)),
    ("mfhjb.sliced_gauge", "_mixture_cdf", "transport1d.cdf", (_cdf_before, None)),
    ("mfhjb.transport1d", "_mixture_pdf", "transport1d.pdf", _count("transport1d.pdf.passes")),
    ("mfhjb.sliced_gauge", "sw2", "sliced_gauge.sw2", _count("sliced_gauge.sw2.calls")),
    ("mfhjb.sliced_gauge", "_stratified_quantiles", "sliced_gauge.stratified_quantiles",
     _count("sliced_gauge.stratified_quantiles.calls")),
    ("mfhjb.sliced_gauge", "dmu_gauge", "sliced_gauge.dmu_gauge", _derivative_hooks("sliced_gauge.dmu_gauge")),
    ("mfhjb.sliced_gauge", "dxdmu_gauge", "sliced_gauge.dxdmu_gauge",
     _derivative_hooks("sliced_gauge.dxdmu_gauge")),
    ("mfhjb.sliced_gauge", "lifted_gauge_fd_gradient", "sliced_gauge.fd_gradient", (None, None)),
    ("mfhjb.variational", "_pairwise_rho", "variational.pairwise_rho", _count("variational.pairwise_rho.pairs", _pairs)),
    ("mfhjb.variational", "_verify_certificate", "variational.verify_certificate", (None, None)),
    ("mfhjb.variational", "borwein_preiss", "variational.selection", (None, None)),
    ("mfhjb.control", "simulate", "dynamics.simulate", (_simulate_before, _simulate_after)),
    ("mfhjb.dynamics", "noise_block", "dynamics.noise_block", _count("dynamics.noise_block.calls")),
    ("mfhjb.measures:ParticleEnsemble", "__post_init__", "measures.ensemble", _count("measures.ensemble.constructions")),
    ("mfhjb.control", "cost_j", "control.cost_j", _count("control.cost_j.paths", _paths)),
    ("mfhjb.control", "value_estimate", "control.value_estimate", _count("control.value_estimate.calls")),
    ("mfhjb.control", "dpp_residual", "control.dpp_residual", (None, None)),
    ("mfhjb.mollify", "_mollified_all", "mollify.mollified_all", (_mollified_before, None)),
    ("mfhjb.mollify", "_draw_offsets", "mollify.draw_offsets", (None, None)),
]

#: Per-layer metric name -> (unit, span whose probe feeds it).
LAYER_METRICS = {
    "transport1d.quantile.calls": ("count", "transport1d.quantile"),
    "transport1d.quantile.points": ("count", "transport1d.quantile"),
    "transport1d.quantile.self_s": ("s", "transport1d.quantile"),
    "transport1d.quantile.warm_calls": ("count", "transport1d.quantile"),
    "transport1d.quantile.warm_fallbacks": ("count", "transport1d.quantile"),
    "transport1d.quantile.max_residual": ("1", "transport1d.quantile"),
    "transport1d.cdf.passes": ("count", "transport1d.cdf"),
    "transport1d.cdf.atoms": ("count", "transport1d.cdf"),
    "transport1d.cdf.self_s": ("s", "transport1d.cdf"),
    "transport1d.pdf.passes": ("count", "transport1d.pdf"),
    "transport1d.pdf.self_s": ("s", "transport1d.pdf"),
    "sliced_gauge.sw2.calls": ("count", "sliced_gauge.sw2"),
    "sliced_gauge.sw2.self_s": ("s", "sliced_gauge.sw2"),
    "sliced_gauge.stratified_quantiles.calls": ("count", "sliced_gauge.stratified_quantiles"),
    "sliced_gauge.stratified_quantiles.self_s": ("s", "sliced_gauge.stratified_quantiles"),
    "sliced_gauge.dmu_gauge.eval_points": ("count", "sliced_gauge.dmu_gauge"),
    "sliced_gauge.dmu_gauge.self_s": ("s", "sliced_gauge.dmu_gauge"),
    "sliced_gauge.dxdmu_gauge.eval_points": ("count", "sliced_gauge.dxdmu_gauge"),
    "sliced_gauge.dxdmu_gauge.self_s": ("s", "sliced_gauge.dxdmu_gauge"),
    "sliced_gauge.fd_gradient.self_s": ("s", "sliced_gauge.fd_gradient"),
    "sliced_gauge.derivatives.peak_rss_mb": ("MB", "sliced_gauge.dmu_gauge"),
    "variational.pairwise_rho.pairs": ("count", "variational.pairwise_rho"),
    "variational.pairwise_rho.self_s": ("s", "variational.pairwise_rho"),
    "variational.verify_certificate.self_s": ("s", "variational.verify_certificate"),
    "variational.selection.self_s": ("s", "variational.selection"),
    "dynamics.simulate.calls": ("count", "dynamics.simulate"),
    "dynamics.simulate.particle_steps": ("count", "dynamics.simulate"),
    "dynamics.simulate.self_s": ("s", "dynamics.simulate"),
    "dynamics.simulate.minor_faults": ("count", "dynamics.simulate"),
    "dynamics.noise_block.calls": ("count", "dynamics.noise_block"),
    "dynamics.noise_block.self_s": ("s", "dynamics.noise_block"),
    "measures.ensemble.constructions": ("count", "measures.ensemble"),
    "measures.ensemble.self_s": ("s", "measures.ensemble"),
    "control.cost_j.paths": ("count", "control.cost_j"),
    "control.cost_j.self_s": ("s", "control.cost_j"),
    "control.value_estimate.calls": ("count", "control.value_estimate"),
    "control.dpp_residual.self_s": ("s", "control.dpp_residual"),
    "mollify.mollified_all.calls": ("count", "mollify.mollified_all"),
    "mollify.mollified_all.offset_evals": ("count", "mollify.mollified_all"),
    "mollify.mollified_all.self_s": ("s", "mollify.mollified_all"),
    "mollify.draw_offsets.self_s": ("s", "mollify.draw_offsets"),
}

#: Counters that depend on the allocator and may differ between runs.
VARYING = {"dynamics.simulate.minor_faults"}


def round_metrics(tr: Tracer, first_span: int) -> dict[str, float]:
    """One traced round's per-layer values; spans[first_span:] are its own."""
    selfs = tr.self_times(first_span)
    out = {}
    for name, (unit, span) in LAYER_METRICS.items():
        if span in tr.absent or (name.endswith("max_residual") and tr._cdf is None):
            continue
        if name.endswith(".self_s"):
            out[name] = selfs.get(span, 0.0)
        elif unit in ("1", "MB"):
            out[name] = tr.maxima.get(name, 0.0)
        else:
            out[name] = int(tr.counts.get(name, 0))
    return out

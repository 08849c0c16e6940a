"""Out-of-tree tracing: wraps mktp2's public functions without editing them.

:func:`install` replaces each traced function in every ``mktp2`` module
namespace (and in module-level dispatch dicts such as ``_CHECKS``) by a
wrapper that records a span: name, start, end and the index of the
enclosing span.  Copula callables and generator/Pickands callables get
point counters instead of spans.  Everything stays in memory; the child
writes it out when the run ends.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans add up to the time covered by the
root spans.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

_MARK = "__perfbench_traced__"

# span name -> per-layer metric that reports its self time
SELF_TIME_METRICS = {
    "core.cdf": "core.cdf_s",
    "core.kernel": "core.kernel_s",
    "core.density": "core.density_s",
    "normal.bvn": "normal.bvn_s",
    "properties.pqd": "properties.pqd_s",
    "properties.ltd": "properties.ltd_s",
    "properties.si": "properties.si_s",
    "properties.tp2": "properties.tp2_s",
    "properties.mktp2": "properties.mktp2_s",
    "properties.dtp2": "properties.dtp2_s",
    "properties.search": "properties.search_s",
    "archimedean.make_generator": "archimedean.make_generator_s",
    "archimedean.classify": "archimedean.classify_s",
    "extreme_value.classify": "extreme_value.classify_s",
    "extreme_value.witness": "extreme_value.witness_s",
    "sampler.sample": "sampler.sample_s",
    "sampler.write_csv": "sampler.write_csv_s",
    "cli.main": "cli.self_s",
    "registry.build": "registry.build_s",
}

COUNT_METRICS = (
    "core.cdf_points",
    "core.kernel_points",
    "core.density_points",
    "normal.bvn_points",
    "properties.search_calls",
    "properties.rectangle_defect_calls",
    "archimedean.psi_calls",
    "archimedean.psi_points",
    "archimedean.d_minus_psi_calls",
    "archimedean.d_minus_psi_points",
    "extreme_value.A_points",
)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent]
        self.stack = []
        self.counts = Counter()
        self.grids = set()         # distinct (job, copula, quantity, inputs) evaluations
        self.grid_points = 0
        self.bvn_peak_bytes = 0
        self.csv_bytes = 0
        self.job = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            return out if after is None else after(out, args, kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- copula and spec callables ------------------------------------------

    def copula(self, cop):
        if cop is None or getattr(cop.cdf, _MARK, False):
            return cop
        changes = {}
        for quantity in ("cdf", "kernel", "density"):
            fn = getattr(cop, quantity)
            if fn is not None:
                changes[quantity] = self._evaluation(cop.label, quantity, fn)
        return dataclasses.replace(cop, **changes)

    def _evaluation(self, label, quantity, fn):
        name = f"core.{quantity}"

        @functools.wraps(fn)
        def wrapper(u, v):
            uu, vv = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
            self.counts[f"{name}_points"] += uu.size
            key = (self.job, label, quantity, uu.shape, _digest(uu), _digest(vv))
            if key not in self.grids:
                self.grids.add(key)
                self.grid_points += uu.size
            index = self.open(name)
            try:
                return fn(u, v)
            finally:
                self.close(index)

        setattr(wrapper, _MARK, True)
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            self.counts[f"{name}_calls"] += 1
            self.counts[f"{name}_points"] += np.size(x)
            return fn(x, *args, **kwargs)

        return wrapper

    def generator(self, spec):
        return dataclasses.replace(
            spec,
            psi=self.counted("archimedean.psi", spec.psi),
            d_minus_psi=self.counted("archimedean.d_minus_psi", spec.d_minus_psi),
        )

    def pickands(self, spec):
        return dataclasses.replace(spec, A=self.counted("extreme_value.A", spec.A))

    # -- aggregation -----------------------------------------------------------

    def self_times(self):
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def metrics(self):
        """Per-layer totals of the spans and counters recorded so far."""
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
        for name in COUNT_METRICS:
            out[name] = float(self.counts[name])
        evaluated = sum(self.counts[f"core.{q}_points"] for q in ("cdf", "kernel", "density"))
        out["core.points_per_grid"] = evaluated / self.grid_points if self.grid_points else 0.0
        out["normal.bvn_peak_mb"] = self.bvn_peak_bytes / 1e6
        calls = self.counts["extreme_value.witness_calls"]
        out["extreme_value.witness_success_frac"] = (
            self.counts["extreme_value.witness_success"] / calls if calls else 0.0
        )
        samples = self.counts["sampler.samples"]
        out["sampler.kernel_points_per_sample"] = (
            self.counts["sampler.kernel_points"] / samples if samples else 0.0
        )
        out["sampler.csv_mb"] = self.csv_bytes / 1e6
        out["trace.self_sum_s"] = sum(t for name, t in selfs.items() if name != "bench.job")
        return out


def _digest(arr):
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


def _replace_everywhere(original, replacement):
    """Point every mktp2 module global and dispatch-dict entry at the wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "mktp2" or mod_name.startswith("mktp2.")) or module is None:
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def install():
    """Wrap the public layer boundaries of an imported mktp2; returns the tracer."""
    from mktp2 import archimedean, cli, core, extreme_value, normal, properties, registry, sampler

    tr = Tracer()

    def patch(module, attr, wrapper):
        _replace_everywhere(getattr(module, attr), wrapper)

    patch(cli, "main", tr.span("cli.main", cli.main))
    patch(
        registry, "build",
        tr.span("registry.build", registry.build, lambda out, a, k: (out[0], out[1], tr.copula(out[2]))),
    )
    patch(archimedean, "arch_copula", _post(archimedean.arch_copula, tr.copula))
    patch(extreme_value, "evc_copula", _post(extreme_value.evc_copula, tr.copula))
    for maker in ("make_baseline", "make_frechet", "make_fgm", "make_gaussian"):
        patch(core, maker, _post(getattr(core, maker), tr.copula))

    def bvn(fn):
        @functools.wraps(fn)
        def wrapper(a, b, rho):
            tr.counts["normal.bvn_points"] += np.broadcast(np.asarray(a), np.asarray(b)).size
            was_tracing = tracemalloc.is_tracing()
            if not was_tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            index = tr.open("normal.bvn")
            try:
                return fn(a, b, rho)
            finally:
                tr.close(index)
                tr.bvn_peak_bytes = max(tr.bvn_peak_bytes, tracemalloc.get_traced_memory()[1])
                if not was_tracing:
                    tracemalloc.stop()

        return wrapper

    patch(normal, "bivariate_normal_cdf", bvn(normal.bivariate_normal_cdf))

    for prop in ("pqd", "ltd", "si", "tp2", "mktp2", "dtp2"):
        name = f"check_{prop}"
        patch(properties, name, tr.span(f"properties.{prop}", getattr(properties, name)))
    patch(properties, "counterexample_search",
          _count(tr, "properties.search_calls", tr.span("properties.search", properties.counterexample_search)))
    patch(properties, "rectangle_defect",
          _count(tr, "properties.rectangle_defect_calls", properties.rectangle_defect))

    patch(archimedean, "make_generator",
          tr.span("archimedean.make_generator", archimedean.make_generator, lambda out, a, k: tr.generator(out)))
    patch(archimedean, "builtin_archimedean", _post(archimedean.builtin_archimedean, tr.generator))
    patch(archimedean, "classify_archimedean", tr.span("archimedean.classify", archimedean.classify_archimedean))

    patch(extreme_value, "builtin_pickands", _post(extreme_value.builtin_pickands, tr.pickands))
    patch(extreme_value, "validate_pickands", _post(extreme_value.validate_pickands, tr.pickands))
    patch(extreme_value, "classify_evc", tr.span("extreme_value.classify", extreme_value.classify_evc))
    for builder in ("construct_witness_gradient", "construct_witness_jump", "construct_witness_constant"):
        patch(extreme_value, builder, _witness_builder(tr, getattr(extreme_value, builder)))

    def sample_wrapper(fn):
        traced = tr.span("sampler.sample", fn)

        @functools.wraps(fn)
        def wrapper(copula, n, seed):
            before = tr.counts["core.kernel_points"]
            out = traced(copula, n, seed)
            tr.counts["sampler.kernel_points"] += tr.counts["core.kernel_points"] - before
            tr.counts["sampler.samples"] += int(n)
            return out

        return wrapper

    patch(sampler, "sample", sample_wrapper(sampler.sample))

    def csv_wrapper(fn):
        traced = tr.span("sampler.write_csv", fn)

        @functools.wraps(fn)
        def wrapper(batch, path):
            traced(batch, path)
            tr.csv_bytes += os.path.getsize(path)

        return wrapper

    patch(sampler, "write_csv", csv_wrapper(sampler.write_csv))
    return tr


def _post(fn, transform):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return transform(fn(*args, **kwargs))

    return wrapper


def _count(tr, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _witness_builder(tr, fn):
    traced = tr.span("extreme_value.witness", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts["extreme_value.witness_calls"] += 1
        out = traced(*args, **kwargs)
        tr.counts["extreme_value.witness_success"] += 1
        return out

    return wrapper

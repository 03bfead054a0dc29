"""Spans and memory peaks around capdisc's public calls between modules.

Each wrapper replaces a name in the namespace of the module that calls it
(``cli.generate_qud``, ``densities.legendre_eval``, ...), so it sees exactly
the calls that module makes and nothing under ``src/`` changes.  Wrapped
functions run on the main thread only: the cap scan's worker threads run
numpy code and call nothing wrapped, so one span stack is enough.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from capdisc import cap_transform, cli, densities, discrepancy, orthopoly

# (module whose namespace is patched, name in it, span name).  A span's
# metrics are <span>_s (time including its child spans) and <span>_calls.
SPAN_TARGETS = (
    (cli, "generate_qud", "densities.generate_qud"),
    (cli, "save_points", "sphere.save_points"),
    (cli, "load_points", "sphere.load_points"),
    (cli, "freak_heights", "orthopoly.freak_heights"),
    (cli, "funk_hecke_lambda", "cap_transform.funk_hecke_lambda"),
    (cli, "zonal_cap_probability", "densities.zonal_cap_probability"),
    (cli, "cap_discrepancy_fixed_height", "discrepancy.cap_fixed"),
    (cli, "arc_discrepancy_fixed_length", "discrepancy.arc_sweep"),
    (cli, "circle_discrepancy", "discrepancy.circle"),
    (densities, "funk_hecke_lambda", "cap_transform.funk_hecke_lambda"),
    (densities, "legendre_eval", "orthopoly.legendre_eval"),
    (cap_transform, "legendre_eval", "orthopoly.legendre_eval"),
    (orthopoly, "legendre_roots", "orthopoly.legendre_roots"),
    (discrepancy, "fibonacci_sphere", "sphere.direction_grid"),
    (discrepancy, "generate_uniform", "sphere.direction_grid"),
)

TIMED = (
    "sphere.save_points", "sphere.load_points", "sphere.direction_grid",
    "orthopoly.freak_heights", "orthopoly.legendre_roots", "orthopoly.legendre_eval",
    "cap_transform.funk_hecke_lambda", "densities.generate_qud",
    "densities.zonal_cap_probability", "discrepancy.cap_fixed", "discrepancy.arc_sweep",
    "discrepancy.circle",
)
COUNTED = (
    "orthopoly.legendre_roots", "orthopoly.legendre_eval",
    "cap_transform.funk_hecke_lambda", "densities.zonal_cap_probability",
)

# Generated points whose transport residual |G(t_i) - y_i| is checked.
RESIDUAL_SAMPLE = 1000


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module, attr, name, after=None):
        """Replace module.attr by a spanned call; after(args, kwargs, result, seconds)."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, kwargs, result, rec[2] - rec[1])
            return result

        setattr(module, attr, functools.update_wrapper(wrapper, original))
        return original

    def totals(self):
        """Per span name: summed duration, call count and summed self time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive, calls, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child[i]
        return inclusive, calls, self_time

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]


class SpanProbe:
    """Span wrappers plus the counts taken at the same boundaries."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.eval_points = 0
        self.csv_bytes = 0
        self.transports = []  # (density, N, driver, sample index, sampled points)
        self.cap_calls = []  # (bound arguments, report, seconds)
        self.lambda_cached = cap_transform.funk_hecke_lambda
        hooks = {
            "orthopoly.legendre_eval": self._on_eval,
            "sphere.save_points": self._on_save,
            "densities.generate_qud": self._on_generate,
            "discrepancy.cap_fixed": self._on_cap,
        }
        self.originals = {
            name: tracer.wrap(module, attr, name, hooks.get(name))
            for module, attr, name in SPAN_TARGETS
        }

    def _on_eval(self, args, kwargs, result, seconds):
        self.eval_points += int(np.size(result))

    def _on_save(self, args, kwargs, result, seconds):
        path = _bind(self.originals["sphere.save_points"], args, kwargs)["path"]
        self.csv_bytes += os.path.getsize(path)

    def _on_generate(self, args, kwargs, ps, seconds):
        a = _bind(self.originals["densities.generate_qud"], args, kwargs)
        idx = np.unique(np.linspace(0, a["N"] - 1, RESIDUAL_SAMPLE).astype(np.int64))
        self.transports.append((a["d"], a["N"], a["driver"], idx, ps.coords[idx].copy()))

    def _on_cap(self, args, kwargs, report, seconds):
        a = _bind(self.originals["discrepancy.cap_fixed"], args, kwargs)
        self.cap_calls.append((a, report, seconds))

    def _transport_residual(self):
        worst = 0.0
        for d, n_pts, driver, idx, pts in self.transports:
            y = driver.values(n_pts)[idx]
            if isinstance(d, densities.PlanarRationalDensity):
                theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
                r = np.abs(d.cdf(theta) - y)
                r = np.minimum(r, 1.0 - r)  # turns: 0 and 1 are the same angle
            else:
                t = np.clip(pts @ d.axis, -1.0, 1.0)
                g = np.array([densities.marginal_cdf(d, float(ti)) for ti in t])
                r = np.abs(g - y[:, 0])
            worst = max(worst, float(r.max()))
        return worst

    def _cap_refine(self):
        refine_s, rounds, dots = 0.0, 0, 0
        for a, report, seconds in self.cap_calls:
            t0 = time.perf_counter()
            self.originals["discrepancy.cap_fixed"](**dict(a, refine=0))
            refine_s += seconds - (time.perf_counter() - t0)
            used = len(report.trace) - 1
            ps = a["ps"]
            m_dirs = a["M"] if a["directions"] is None else len(a["directions"])
            rounds += used
            dots += ps.size * (m_dirs + 2 * (ps.dim - 1) * used)
        return refine_s, rounds, dots

    def layer_metrics(self):
        # Span totals first: the extra calls below run through the wrappers.
        inclusive, calls, self_time = self.tracer.totals()
        m = {
            "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
            "cli.commands": sum(v for k, v in calls.items() if k.startswith("cli.")),
        }
        m.update({f"{name}_s": inclusive.get(name, 0.0) for name in TIMED})
        m.update({f"{name}_calls": calls.get(name, 0) for name in COUNTED})
        m["orthopoly.legendre_eval_points"] = self.eval_points
        m["sphere.csv_bytes"] = self.csv_bytes
        info = self.lambda_cached.cache_info()
        m["cap_transform.lambda_cache_hits"] = info.hits
        m["cap_transform.lambda_cache_misses"] = info.misses
        m["densities.transport_residual_max"] = self._transport_residual()
        (m["discrepancy.cap_refine_s"], m["discrepancy.refine_rounds"],
         m["discrepancy.cap_dot_products"]) = self._cap_refine()
        return m


class PeakProbe:
    """Peak traced allocation inside each call, tracemalloc on only meanwhile."""

    TARGETS = (
        (cli, "load_points", "sphere.load_points_peak_mb"),
        (cli, "generate_qud", "densities.generate_qud_peak_mb"),
        (cli, "cap_discrepancy_fixed_height", "discrepancy.cap_fixed_peak_mb"),
    )

    def __init__(self):
        self.peaks = {metric: 0.0 for _, _, metric in self.TARGETS}
        for module, attr, metric in self.TARGETS:
            self._wrap(module, attr, metric)

    def _wrap(self, module, attr, metric):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[metric] = max(self.peaks[metric], peak / 2**20)

        setattr(module, attr, functools.update_wrapper(wrapper, original))

    def layer_metrics(self):
        return dict(self.peaks)

"""Per-layer spans and counts, recorded by wrapping symplap functions from outside.

Every wrapper is installed where the caller looks the name up: ``pde_solver``
imports ``stress``, ``stress_derivative_apply``, ``phi`` and ``cg`` by name,
``regularity_analyzer`` imports ``_NormContext``, ``lp_norm``,
``raw_seminorm``, ``sym_gradient`` and ``v_map`` by name, and ``_NormContext``
is patched on the class itself.  The wrappers only time and count; they
change no argument except that ``cg`` gets a callback that counts its
iterations.  Everything is restored when the context manager exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

import symplap.corpus as corpus
import symplap.exponent_engine as ee
import symplap.function_spaces as fs
import symplap.pde_solver as ps
import symplap.regularity_analyzer as ra
import symplap.verify as vf

# (span name, [(owner, attribute), ...]); an owner is a module, a class or a dict
SPANNED = [
    ("pde_solver.solve", [(ps, "solve")]),
    ("pde_solver.step", [(ps, "step")]),
    ("pde_solver.sym_gradient", [(ps, "sym_gradient"), (ra, "sym_gradient")]),
    ("pde_solver.divergence", [(ps, "divergence")]),
    ("pde_solver.energy", [(ps, "energy")]),
    ("pde_solver.save_trajectory", [(ps, "save_trajectory")]),
    ("pde_solver.load_trajectory", [(ps, "load_trajectory")]),
    ("tensor_models.stress", [(ps, "stress")]),
    ("tensor_models.stress_derivative_apply", [(ps, "stress_derivative_apply")]),
    ("tensor_models.phi", [(ps, "phi"), (ra, "phi")]),
    ("tensor_models.v_map", [(ra, "v_map")]),
    ("function_spaces.norm_context", [(fs._NormContext, "__init__")]),
    ("function_spaces.difference_sample_norms", [(fs._NormContext, "difference_sample_norms")]),
    ("function_spaces.xnorms_over_time", [(fs, "xnorms_over_time")]),
    ("function_spaces.raw_seminorm", [(fs, "raw_seminorm"), (ra, "raw_seminorm")]),
    ("function_spaces.lp_norm", [(fs, "lp_norm"), (ra, "lp_norm")]),
    ("function_spaces.holder_seminorm", [(fs, "holder_seminorm")]),
    *[(f"function_spaces.check.{i}", [(fs._CHECKS, i)]) for i in fs.INEQUALITY_IDS],
    ("corpus.build_corpus", [(corpus, "build_corpus")]),
    ("corpus.lift_to_field", [(vf, "lift_to_field")]),
    ("verify.run_matrix", [(vf, "run_matrix")]),
    *[(f"regularity_analyzer.{f}", [(ra, f)]) for f in
      ("restrict", "seminorm_sweep", "check_seminorm_bounds", "check_caccioppoli", "sym_gradient4")],
    *[(f"exponent_engine.{f}", [(ee, f)]) for f, obj in vars(ee).items()
      if inspect.isfunction(obj) and obj.__module__ == ee.__name__ and not f.startswith("_")],
]

#: stages whose tracemalloc peak is reported as ``<stage>.peak_alloc_mb``
ALLOC_STAGES = [
    ("pde_solver.solve", ps, "solve"),
    ("regularity_analyzer.seminorm_sweep", ra, "seminorm_sweep"),
    ("regularity_analyzer.check_seminorm_bounds", ra, "check_seminorm_bounds"),
    ("regularity_analyzer.check_caccioppoli", ra, "check_caccioppoli"),
    ("verify.run_matrix", vf, "run_matrix"),
]

_CALLS_AND_SELF = [
    "tensor_models.stress_derivative_apply", "tensor_models.stress", "tensor_models.phi",
    "pde_solver.sym_gradient", "pde_solver.divergence", "pde_solver.energy", "pde_solver.step",
    "function_spaces.norm_context", "function_spaces.difference_sample_norms",
    "function_spaces.xnorms_over_time", "function_spaces.raw_seminorm",
    "function_spaces.lp_norm", "function_spaces.holder_seminorm",
    *[f"function_spaces.check.{i}" for i in fs.INEQUALITY_IDS],
    "corpus.lift_to_field",
    *[f"regularity_analyzer.{f}" for f in
      ("restrict", "seminorm_sweep", "check_seminorm_bounds", "check_caccioppoli")],
    "tensor_models.v_map", "exponent_engine",
]

#: every per-layer metric of a traced run: (name, unit, better)
PER_LAYER = [
    ("pde_solver.newton_iters", "count", "lower"),
    ("pde_solver.cg_iters", "count", "lower"),
    ("pde_solver.cg_per_newton", "ratio", "lower"),
    ("pde_solver.residual_evals_per_newton", "ratio", "lower"),
    ("pde_solver.step_ms.p50", "ms", "lower"),
    ("pde_solver.step_ms.p95", "ms", "lower"),
    *[m for name in _CALLS_AND_SELF
      for m in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))],
    *[(f"function_spaces.check.{i}.total_s", "s", "lower") for i in fs.INEQUALITY_IDS],
    ("pde_solver.solve.self_s", "s", "lower"),
    ("pde_solver.kernel_bytes_computed", "B", "lower"),
    ("pde_solver.kernel_gbps_computed", "GB/s", "higher"),
    ("regularity_analyzer.sym_gradient4.self_s", "s", "lower"),
    ("corpus.build_corpus.self_s", "s", "lower"),
    ("verify.pairs", "count", "higher"),
    ("verify.violations", "count", "lower"),
    ("verify.skipped", "count", "lower"),
    ("pde_solver.save_trajectory.self_s", "s", "lower"),
    ("pde_solver.save_trajectory.bytes", "B", "lower"),
    ("pde_solver.load_trajectory.self_s", "s", "lower"),
    *[(f"{stage}.peak_alloc_mb", "MB", "lower") for stage, _, _ in ALLOC_STAGES],
    ("solve_s", "s", "lower"),
    ("analyze_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory spans (name, start, end, parent) of one run, plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def counted_cg(self, cg):
        """``cg`` with an iteration-counting callback chained before the caller's."""
        counts = self.counts

        @functools.wraps(cg)
        def counted(*args, callback=None, **kwargs):
            def count(xk):
                counts["cg_iters"] += 1
                if callback is not None:
                    callback(xk)
            return cg(*args, callback=count, **kwargs)

        return counted

    def replacements(self):
        hooks = {
            "tensor_models.stress_derivative_apply": _kernel_bytes,
            "pde_solver.save_trajectory": _file_bytes,
            "verify.run_matrix": _matrix_counts,
        }
        out = []
        for name, sites in SPANNED:
            for owner, attr in sites:
                out.append((owner, attr, self.wrap(name, _get(owner, attr), hooks.get(name))))
        out.append((ps, "cg", self.wrap("pde_solver.cg", self.counted_cg(ps.cg), _newton_count)))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def self_times(self):
        """Per span name: (calls, summed self time, list of durations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, []])
        for (name, start, end, _), covered in zip(self.spans, child):
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start - covered
            rec[2].append(end - start)
        return out

    def layer_metrics(self) -> dict:
        """Every span and count metric of PER_LAYER; 0 for layers this run left idle."""
        agg = self.self_times()
        for name in [n for n in agg if n.startswith("exponent_engine.")]:
            calls, self_s, _ = agg[name]
            agg["exponent_engine"][0] += calls
            agg["exponent_engine"][1] += self_s
        m = {}
        for name in _CALLS_AND_SELF:
            m[f"{name}.calls"], m[f"{name}.self_s"] = agg[name][0], agg[name][1]
        for i in fs.INEQUALITY_IDS:  # a check's own code is thin: its children do the work
            m[f"function_spaces.check.{i}.total_s"] = sum(agg[f"function_spaces.check.{i}"][2])
        for name in ("pde_solver.solve", "regularity_analyzer.sym_gradient4", "corpus.build_corpus",
                     "pde_solver.save_trajectory", "pde_solver.load_trajectory"):
            m[f"{name}.self_s"] = agg[name][1]
        c = self.counts
        newton = c["newton_iters"]
        m["pde_solver.newton_iters"] = newton
        m["pde_solver.cg_iters"] = c["cg_iters"]
        m["pde_solver.cg_per_newton"] = c["cg_iters"] / newton if newton else 0.0
        m["pde_solver.residual_evals_per_newton"] = \
            agg["tensor_models.stress"][0] / newton if newton else 0.0
        steps_ms = 1e3 * np.array(agg["pde_solver.step"][2])
        m["pde_solver.step_ms.p50"] = float(np.percentile(steps_ms, 50)) if steps_ms.size else 0.0
        m["pde_solver.step_ms.p95"] = float(np.percentile(steps_ms, 95)) if steps_ms.size else 0.0
        kernel_calls, kernel_s = agg["tensor_models.stress_derivative_apply"][:2]
        m["pde_solver.kernel_bytes_computed"] = c["kernel_bytes"] / kernel_calls if kernel_calls else 0
        m["pde_solver.kernel_gbps_computed"] = c["kernel_bytes"] / kernel_s / 1e9 if kernel_s else 0.0
        m["pde_solver.save_trajectory.bytes"] = c["save_bytes"]
        for key in ("pairs", "violations", "skipped"):
            m[f"verify.{key}"] = c[f"verify.{key}"]
        return m


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _kernel_bytes(counts, args, kwargs, result):
    # inputs Q and H plus the output, as computed from array sizes
    counts["kernel_bytes"] += args[0].nbytes + args[1].nbytes + result.nbytes


def _file_bytes(counts, args, kwargs, result):
    path = args[1]
    counts["save_bytes"] += os.path.getsize(path) + os.path.getsize(f"{path}.meta")


def _matrix_counts(counts, args, kwargs, result):
    counts["verify.pairs"] += len(result.rows)
    counts["verify.violations"] += len(result.failures)
    counts["verify.skipped"] += len(result.skipped)


def _newton_count(counts, args, kwargs, result):
    counts["newton_iters"] += 1  # one linear solve per Newton iteration


@contextlib.contextmanager
def patched(replacements):
    """Install (owner, attribute, value) replacements; restore them on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, _get(owner, attr)))
            _set(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            _set(owner, attr, value)


def alloc_peaks(peaks: dict):
    """Replacements recording each stage's tracemalloc peak above its start, in MB."""

    def wrap(stage, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - start) / 2**20
                peaks[f"{stage}.peak_alloc_mb"] = max(peaks.get(f"{stage}.peak_alloc_mb", 0.0), peak)
        return measured

    return [(owner, attr, wrap(stage, getattr(owner, attr))) for stage, owner, attr in ALLOC_STAGES]

"""Span recording around calls into gawsim's modules, and per-layer metrics.

Nothing inside the package is edited.  ``install`` replaces module
attributes that one layer calls another through (``gawsim.cli.canonical_coefficients``,
``gawsim.dynamics.evolve_lindblad`` ...) with wrappers that record a span:
name, layer, start, end, parent span and job id.  Calls that resolve the
name at call time, including calls inside the defining module, go through
the wrapper.  ``uninstall`` puts the originals back, so untraced passes run
the unmodified program.

Spans are kept in memory for one pass and turned into per-layer metrics
afterwards.  Sweep worker processes inherit the wrappers through fork but
record nothing (the wrapper checks the process id); their time shows as
``cli.pool_wait_s``, the span around the CLI's process pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter

#: Atom counts for which per-M dense-Lindblad metrics are reported.
DENSE_M = (2, 3, 4, 5, 6)
#: Atom counts whose RK4 step is one dense (4**M x 4**M) complex matrix.
STEP_MATRIX_M = (2, 3, 4, 5)


class Tracer:
    """In-memory span store for one pass of a workload."""

    def __init__(self):
        self.pid = os.getpid()
        self.job = None
        self.spans = []  # [name, layer, start, end, parent, job]
        self.stack = []
        self.counts = Counter()
        self.rk4 = []  # (span id, n_atoms, n_steps) per evolve_lindblad call

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.job])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()


def _count_dfi_points(tracer, sid, bound, result):
    tracer.counts["dfi.points_found"] += len(result.theta_points)


def _count_rk4(tracer, sid, bound, result):
    # the program's own step rule: floor(t_max / dt + 1e-9) fixed steps
    args = bound.arguments
    n_steps = int(math.floor(args["t_max"] / args["dt"] + 1e-9))
    tracer.rk4.append((sid, args["coeffs"].n_atoms, n_steps))


# (module, attribute, layer, result hook).  The layer is the module that
# defines the function; the attribute is where callers look it up.
TARGETS = (
    ("gawsim.cli", "main", "cli", None),
    ("gawsim.cli", "canonical_coefficients", "coefficients", None),
    ("gawsim.cli", "general_coefficients", "coefficients", None),
    ("gawsim.cli", "build_canonical", "model", None),
    ("gawsim.cli", "layout_from_json", "model", None),
    ("gawsim.dfi", "scan_dfi", "dfi", _count_dfi_points),
    ("gawsim.dfi", "canonical_coefficients", "coefficients", None),
    ("gawsim.dfi", "canonical_decay_amplitudes", "coefficients", None),
    ("gawsim.analytic", "closed_form_concurrence_braided", "analytic", None),
    ("gawsim.analytic", "uses_ode_fallback", "analytic", None),
    ("gawsim.analytic", "closed_form_braided", "coefficients", None),
    ("gawsim.dynamics", "amplitude_trajectory", "dynamics.amplitude", None),
    ("gawsim.dynamics", "evolve_lindblad", "dynamics.lindblad", _count_rk4),
    ("gawsim.dynamics", "wootters_concurrence", "dynamics.concurrence", None),
    ("gawsim.dynamics", "recommended_timestep", "dynamics", None),
    ("gawsim.dynamics", "density_from_amplitudes", "dynamics", None),
    ("gawsim.slh", "build_network", "slh.build", None),
    ("gawsim.slh", "extract_coefficients", "slh.extract", None),
    ("gawsim.coefficients", "general_coefficients", "coefficients", None),
    ("gawsim.model", "build_custom", "model", None),
)

#: The CLI's sweep pool, wrapped so the time spent waiting on it is a span.
POOL_TARGET = ("gawsim.cli", "ProcessPoolExecutor")


def _wrap(tracer: Tracer, fn, name: str, layer: str, hook):
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return fn(*args, **kwargs)
        sid = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer, sid, signature.bind(*args, **kwargs), result)
        return result

    return traced


def _wrap_pool(tracer: Tracer, base):
    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._span = tracer.open("cli.ProcessPoolExecutor", "pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    tracer.close(self._span)
                    self._span = None

    return TracedPool


def _resolve(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def missing_targets(targets=TARGETS, pool_target=POOL_TARGET) -> list[str]:
    """Targets whose module or attribute no longer exists."""
    names = [(m, a) for m, a, _, _ in targets] + ([pool_target] if pool_target else [])
    return [f"{m}.{a}" for m, a in names if _resolve(m, a)[1] is None]


def install(tracer: Tracer, targets=TARGETS, pool_target=POOL_TARGET):
    """Wrap every target that exists and return the list ``uninstall`` takes.

    A target whose module or attribute is gone is skipped (see
    ``missing_targets``), so the benchmark keeps running across refactors.
    """
    restore = []
    for module_name, attr, layer, hook in targets:
        module, original = _resolve(module_name, attr)
        if original is not None:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, _wrap(tracer, original, name, layer, hook))
            restore.append((module, attr, original))
    if pool_target is not None:
        module, original = _resolve(*pool_target)
        if original is not None:
            setattr(module, pool_target[1], _wrap_pool(tracer, original))
            restore.append((module, pool_target[1], original))
    return restore


def uninstall(restore) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


def outermost(spans, prefix: str) -> list[int]:
    """Ids of spans in layers starting with ``prefix`` with no such ancestor."""
    keep = []
    for sid, s in enumerate(spans):
        if not s[1].startswith(prefix):
            continue
        parent = s[4]
        while parent is not None and not spans[parent][1].startswith(prefix):
            parent = spans[parent][4]
        if parent is None:
            keep.append(sid)
    return keep


def _busy(spans, prefix: str) -> float:
    return sum(spans[i][3] - spans[i][2] for i in outermost(spans, prefix))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_call") or ".us_per_rk4_step." in metric:
        return "us"
    if metric.endswith("bytes_written") or ".step_bytes_computed." in metric:
        return "B"
    return "count"


def layer_metrics(tracer: Tracer, io_counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``io_counts`` holds the bytes and data rows of the CLI artifacts, which
    the runner measures from the files.
    """
    spans = tracer.spans
    self_t = self_times(spans)

    def self_of(prefix):
        return sum(t for s, t in zip(spans, self_t) if s[1].startswith(prefix))

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    coeff_calls = len(outermost(spans, "coefficients"))
    coeff_busy = _busy(spans, "coefficients")
    metrics = {
        "coefficients.busy_s": coeff_busy,
        "coefficients.calls": coeff_calls,
        "coefficients.us_per_call": 1e6 * coeff_busy / coeff_calls if coeff_calls else 0.0,
        "dfi.self_s": self_of("dfi"),
        "dfi.objective_calls": count("dfi.canonical_decay_amplitudes"),
        "dfi.points_found": tracer.counts["dfi.points_found"],
        "cli.self_s": self_of("cli"),
        "cli.pool_wait_s": _busy(spans, "pool"),
        "cli.bytes_written": io_counts["bytes"],
        "cli.rows_written": io_counts["rows"],
        "dynamics.amplitude_busy_s": _busy(spans, "dynamics.amplitude"),
        "analytic.busy_s": _busy(spans, "analytic"),
        "analytic.calls": count("analytic.closed_form_concurrence_braided"),
        "dynamics.lindblad_busy_s": _busy(spans, "dynamics.lindblad"),
        "dynamics.rk4_steps": sum(n for _, _, n in tracer.rk4),
        "dynamics.concurrence_busy_s": _busy(spans, "dynamics.concurrence"),
        "slh.build_s": _busy(spans, "slh.build"),
        "slh.extract_s": _busy(spans, "slh.extract"),
        "slh.calls": count("slh.build_network") + count("slh.extract_coefficients"),
        "model.busy_s": _busy(spans, "model"),
    }
    # per-step cost: evolve_lindblad's own time (concurrence excluded),
    # step-matrix build included, over the steps it took
    seconds, steps = Counter(), Counter()
    for sid, m, n in tracer.rk4:
        seconds[m] += self_t[sid]
        steps[m] += n
    for m in DENSE_M:
        metrics[f"dynamics.us_per_rk4_step.M{m}"] = 1e6 * seconds[m] / steps[m] if steps[m] else 0.0
    for m in STEP_MATRIX_M:
        # computed from the array size, 16 bytes per complex entry; not measured
        metrics[f"dynamics.step_bytes_computed.M{m}"] = 16 * 4 ** (2 * m) if steps[m] else 0
    return metrics

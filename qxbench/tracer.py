"""Spans and counts at the boundaries of the centroqx layers.

The tracer replaces chosen package functions by wrappers. A wrapper is set
in every ``centroqx`` module that holds the function by name, so a call made
from inside the package (``bounds`` calling ``spectral_norm``) is traced as
well as a call made by the benchmark. Spans are kept in memory only while an
operation is active (``Tracer.op`` is not ``None``); warm-up and correctness
checks run through the same wrappers untraced.

A target that the package no longer defines is recorded as absent and its
metrics read 0; it does not stop the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Optional

import numpy as np

PACKAGE = "centroqx"

# Functions wrapped per module. Every public function defined in ``xops`` is
# wrapped as well (see ``default_targets``).
TARGETS: dict[str, tuple[str, ...]] = {
    "harness": ("run_trial",),
    "centro": ("random_centro", "toeplitz_centro", "random_centro_perturbation"),
    "qx": ("qx_decompose", "x_inverse"),
    "linalg": ("householder_qr", "triangular_solve", "spectral_norm", "operator_norm"),
    "bounds": (
        "bound_report",
        "min_sym_kappa",
        "min_q_product",
        "min_comp_product",
        "build_first_order_operators",
        "operator_norms",
        "comp_matvec_bounds",
        "tightness_check",
    ),
    "condnum": ("mixed_comp_cond", "cond_upper_bounds", "empirical_cond_probe"),
}

HASHED = frozenset({"linalg.spectral_norm"})  # operands hashed for distinct_ratio
OPERATOR_BUILDER = "bounds.build_first_order_operators"
OPERATOR_FIELDS = ("gx", "hx", "gq")

GENERATORS = ("centro.random_centro", "centro.toeplitz_centro", "centro.random_centro_perturbation")
SCALING_MIN = ("bounds.min_sym_kappa", "bounds.min_q_product", "bounds.min_comp_product")


def default_targets() -> list[tuple[str, str]]:
    """(module, function) pairs to wrap, with every public ``xops`` function."""
    targets = [(mod, fn) for mod, names in TARGETS.items() for fn in names]
    xops = sys.modules.get(f"{PACKAGE}.xops")
    if xops is not None:
        for name, obj in sorted(vars(xops).items()):
            if (
                not name.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == xops.__name__
            ):
                targets.append(("xops", name))
    return targets


def _package_modules() -> list[ModuleType]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _digest(operand) -> bytes:
    arr = np.ascontiguousarray(np.asarray(operand, dtype=float))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(arr.shape).encode())
    h.update(arr.data)
    return h.digest()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """Wraps package functions and records spans, counts and operand hashes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.absent: list[str] = []
        self.operator_bytes = 0
        self._stack: list[int] = []
        self._digests: dict[tuple[int, str], set[bytes]] = {}
        self._restore: list[tuple[ModuleType, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets: Optional[list[tuple[str, str]]] = None) -> None:
        modules = _package_modules()
        for mod_name, fn_name in targets if targets is not None else default_targets():
            label = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None or not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, label: str, fn: Callable) -> Callable:
        tracer = self
        hashed = label in HASHED
        builder = label == OPERATOR_BUILDER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            if hashed and args:
                tracer._digests.setdefault((op, label), set()).add(_digest(args[0]))
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(label, time.perf_counter(), 0.0, parent, op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if builder:
                for field in OPERATOR_FIELDS:
                    arr = getattr(result, field, None)
                    if isinstance(arr, np.ndarray):
                        tracer.operator_bytes += int(np.prod(arr.shape)) * arr.itemsize
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def distinct(self, label: str) -> int:
        return sum(len(v) for (_, name), v in self._digests.items() if name == label)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"span": i, "parent": s.parent, "op": s.op, "name": s.name,
                         "start": s.start, "end": s.end}
                    )
                    + "\n"
                )


class SpanStats:
    """Inclusive and self times, call counts and group totals over the spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                self.child_time[s.parent] += s.end - s.start

    def _has_ancestor_in(self, span: Span, names) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def calls(self, name: str, not_under: Optional[str] = None) -> int:
        return sum(
            1 for s in self.spans
            if s.name == name and (not_under is None or not self._under(s, not_under))
        )

    def _under(self, span: Span, name: str) -> bool:
        return span.parent is not None and self.spans[span.parent].name == name

    def inclusive(self, names, not_under: Optional[str] = None) -> float:
        """Seconds in calls to any of ``names``, counting nested calls once."""
        names = (names,) if isinstance(names, str) else tuple(names)
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name in names
            and not self._has_ancestor_in(s, names)
            and (not_under is None or not self._under(s, not_under))
        )

    def self_time(self, name: str) -> float:
        return sum(
            (s.end - s.start) - self.child_time[i]
            for i, s in enumerate(self.spans)
            if s.name == name
        )

    def prefix(self, prefix: str) -> tuple[str, ...]:
        return tuple(sorted({s.name for s in self.spans if s.name.startswith(prefix)}))


# Per-layer metrics: name -> (unit, the end-to-end metric it should move,
# on which workloads).
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "harness.run_trial.self_ms": ("ms/op", "latency_p50_ms", "trial-closed, trial-operator"),
    "centro.generate.ms": ("ms/op", "latency_p50_ms (small share)", "trial-closed, trial-operator"),
    "qx.qx_decompose.calls": ("calls/op", "throughput_ops_s", "trial-operator"),
    "qx.qx_decompose.self_ms": ("ms/op", "throughput_ops_s", "factor"),
    "qx.x_inverse.ms": ("ms/op", "throughput_ops_s", "factor"),
    "linalg.householder_qr.ms": ("ms/op", "throughput_ops_s, latency_p50_ms", "factor"),
    "linalg.triangular_solve.ms": ("ms/op", "throughput_ops_s", "factor"),
    "linalg.spectral_norm.calls": ("calls/op", "throughput_ops_s", "trial-closed, trial-operator"),
    "linalg.spectral_norm.distinct_ratio": ("ratio", "throughput_ops_s", "trial-closed, trial-operator"),
    "linalg.spectral_norm.ms": ("ms/op", "latency_p50_ms", "trial-closed"),
    "linalg.operator_norm.calls": ("calls/op", "throughput_ops_s", "trial-operator"),
    "linalg.operator_norm.ms": ("ms/op", "throughput_ops_s", "trial-operator"),
    "bounds.bound_report.self_ms": ("ms/op", "latency_p50_ms", "trial-closed"),
    "bounds.scaling_min.ms": ("ms/op", "latency_p50_ms", "trial-closed"),
    "bounds.build_first_order_operators.ms": ("ms/op", "throughput_ops_s", "trial-operator"),
    "bounds.operator_mb": ("MB/op", "peak_rss_mb", "trial-operator"),
    "bounds.operator_norms.ms": ("ms/op", "throughput_ops_s", "trial-operator"),
    "bounds.comp_matvec_bounds.ms": ("ms/op", "throughput_ops_s", "trial-operator"),
    "bounds.tightness_check.ms": ("ms/op", "throughput_ops_s", "trial-operator"),
    "condnum.mixed_comp_cond.ms": ("ms/op", "throughput_ops_s, peak_rss_mb", "trial-operator"),
    "condnum.cond_upper_bounds.ms": ("ms/op", "latency_p50_ms", "trial-closed, trial-operator"),
    "condnum.empirical_cond_probe.ms": ("ms/op", "throughput_ops_s", "trial-operator"),
    "xops.ms": ("ms/op", "latency_p50_ms (small share)", "trial-closed, trial-operator"),
}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation values of every metric in ``LAYER_METRICS``."""
    st = SpanStats(tracer.spans)
    per_op = 1.0 / max(ops, 1)
    ms = 1e3 * per_op
    sn = "linalg.spectral_norm"
    sn_calls = st.calls(sn)
    return {
        "harness.run_trial.self_ms": st.self_time("harness.run_trial") * ms,
        "centro.generate.ms": st.inclusive(GENERATORS) * ms,
        "qx.qx_decompose.calls": st.calls("qx.qx_decompose") * per_op,
        "qx.qx_decompose.self_ms": st.self_time("qx.qx_decompose") * ms,
        "qx.x_inverse.ms": st.inclusive("qx.x_inverse") * ms,
        "linalg.householder_qr.ms": st.inclusive("linalg.householder_qr") * ms,
        "linalg.triangular_solve.ms": st.inclusive("linalg.triangular_solve") * ms,
        "linalg.spectral_norm.calls": sn_calls * per_op,
        "linalg.spectral_norm.distinct_ratio": tracer.distinct(sn) / sn_calls if sn_calls else 0.0,
        "linalg.spectral_norm.ms": st.inclusive(sn) * ms,
        "linalg.operator_norm.calls": st.calls("linalg.operator_norm", not_under=sn) * per_op,
        "linalg.operator_norm.ms": st.inclusive("linalg.operator_norm", not_under=sn) * ms,
        "bounds.bound_report.self_ms": st.self_time("bounds.bound_report") * ms,
        "bounds.scaling_min.ms": st.inclusive(SCALING_MIN) * ms,
        "bounds.build_first_order_operators.ms": st.inclusive(OPERATOR_BUILDER) * ms,
        "bounds.operator_mb": tracer.operator_bytes / 1e6 * per_op,
        "bounds.operator_norms.ms": st.inclusive("bounds.operator_norms") * ms,
        "bounds.comp_matvec_bounds.ms": st.inclusive("bounds.comp_matvec_bounds") * ms,
        "bounds.tightness_check.ms": st.inclusive("bounds.tightness_check") * ms,
        "condnum.mixed_comp_cond.ms": st.inclusive("condnum.mixed_comp_cond") * ms,
        "condnum.cond_upper_bounds.ms": st.inclusive("condnum.cond_upper_bounds") * ms,
        "condnum.empirical_cond_probe.ms": st.inclusive("condnum.empirical_cond_probe") * ms,
        "xops.ms": st.inclusive(st.prefix("xops.")) * ms,
    }

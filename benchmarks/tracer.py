"""Span tracer installed from outside the program: wraps sympow's public
functions and methods in the benchmark process, so no file of the package
changes.

Each span records wall time (``time.perf_counter``) and the calling thread's
CPU time (``time.thread_time``).  A span's self time is its duration minus
the part of that interval its child spans cover.  Children on the same
thread nest and are subtracted directly; spans opened on a worker thread
(the trial pool of ``generic_homology``) take the innermost open span of
the main thread as their parent, and because they may overlap each other
the parent subtracts the union of their intervals.

Spans are aggregated per name in memory, and spans of at least
``KEEP_SPAN_S`` are also kept individually; ``Tracer.report`` returns both.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

KEEP_SPAN_S = 0.005

# (module, attribute, span name): module-level functions.  Every sympow
# module namespace that bound the same object by ``from .x import`` is
# patched as well.
FUNCTIONS = [
    ("groupring", "finite_quotient", "groupring.finite_quotient"),
    ("dga", "boundary", "dga.boundary"),
    ("dga", "dga_mul", "dga.dga_mul"),
    ("complexes", "operator_matrix", "complexes.operator_matrix"),
    ("complexes", "build_cover_complex", "complexes.build"),
    ("complexes", "build_wedge_complex", "complexes.build"),
    ("complexes", "build_Q_complex", "complexes.build"),
    ("complexes", "lambda_matrix", "complexes.build"),
    ("complexes", "exterior_boundary_matrix", "complexes.build"),
    ("complexes", "export_text", "complexes.export"),
    ("complexes", "export_json", "complexes.export"),
    ("homology", "modp_rank", "homology.modp_rank"),
    ("homology", "generic_homology", "homology.generic_homology"),
    ("homology", "generic_rank", "homology.generic_rank"),
    ("homology", "smith_normal_form", "homology.smith_normal_form"),
    ("homology", "integer_rank", "homology.integer_rank"),
    ("homology", "integer_matmul", "homology.integer_matmul"),
    ("homology", "integer_homology", "homology.integer_homology"),
    ("homology", "integer_free_ranks", "homology.integer_free_ranks"),
    ("homology", "modp_nullspace", "homology.modp_nullspace"),
    ("homology", "modp_matvec", "homology.modp_matvec"),
    ("homology", "modp_rank_of_columns", "homology.modp_rank_of_columns"),
    ("homology", "mod2_columns", "homology.mod2"),
    ("homology", "mod2_nullspace", "homology.mod2"),
    ("homology", "mod2_apply", "homology.mod2"),
    ("homology", "mod2_in_span", "homology.mod2"),
    ("homology", "kernel_basis", "homology.kernel_basis"),
    ("homology", "betti_symmetric_power", "homology.betti_symmetric_power"),
    ("verify", "verify_dga_suite", "verify.suite.dga"),
    ("verify", "verify_lemma_torus", "verify.suite.lemma-torus"),
    ("verify", "verify_lemma_q", "verify.suite.lemma-q"),
    ("verify", "verify_lemma_cohomology", "verify.suite.lemma-cohomology"),
    ("verify", "verify_theorem_main", "verify.suite.theorem-main"),
    ("verify", "verify_nonfg_all_choices", "verify.suite.nonfg"),
    ("verify", "verify_mattuck", "verify.suite.mattuck"),
    ("cli", "run", "cli.run"),
]

# (module, class, attribute, span name): methods.
METHODS = [
    ("groupring", "GroupRingElement", "__mul__", "groupring.mul"),
    ("groupring", "GroupRingElement", "__rmul__", "groupring.mul"),
    ("groupring", "GroupRingElement", "__add__", "groupring.add"),
    ("groupring", "GroupRingElement", "specialize", "groupring.specialize"),
    ("complexes", "SparseRingMatrix", "specialize", "complexes.specialize"),
    ("complexes", "SparseRingMatrix", "base_change", "complexes.base_change"),
    ("complexes", "SparseRingMatrix", "compose", "complexes.compose"),
]


def _dense_cells(M) -> int:
    return len(M) * (len(M[0]) if M else 0)


def _dense_nnz(M) -> int:
    return sum(len(row) - row.count(0) for row in M)


def _count_modp_rank(args, kwargs, result):
    M = args[0]
    return {"cells": _dense_cells(M), "nnz": _dense_nnz(M)}


def _count_dense_arg(args, kwargs, result):
    return {"cells": _dense_cells(args[0])}


def _count_dense_result(args, kwargs, result):
    return {"cells": _dense_cells(result)}


def _count_entries(args, kwargs, result):
    return {"entries": len(result.entries)}


def _count_trials(args, kwargs, result):
    return {"trials": result.trials or 0}


# Counters are computed after the call returns, outside the span's timing.
COUNTERS = {
    "homology.modp_rank": _count_modp_rank,
    "homology.smith_normal_form": _count_dense_arg,
    "homology.integer_rank": _count_dense_arg,
    "complexes.specialize": _count_dense_result,
    "complexes.base_change": _count_dense_result,
    "complexes.operator_matrix": _count_entries,
    "homology.generic_homology": _count_trials,
}


class _Frame:
    __slots__ = ("t0", "cpu0", "child_s", "foreign")

    def __init__(self, t0: float, cpu0: float):
        self.t0 = t0
        self.cpu0 = cpu0
        self.child_s = 0.0  # same-thread children, nested and disjoint
        self.foreign: list[tuple[float, float]] = []  # worker-thread children


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Aggregates spans by name; one instance per traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._main_thread = threading.main_thread()
        self._lock = threading.Lock()
        self.stats: dict[str, dict[str, float]] = {}
        self.kept: list[dict] = []
        self.top_level_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, wall: float, self_s: float, cpu: float,
                counts: dict | None, t0: float, top: bool) -> None:
        with self._lock:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "wait_s": 0.0}
            st["calls"] += 1
            st["self_s"] += self_s
            st["total_s"] += wall
            st["wait_s"] += max(wall - cpu, 0.0)
            for key, value in (counts or {}).items():
                st[key] = st.get(key, 0) + value
            if top:
                self.top_level_s += wall
            if wall >= KEEP_SPAN_S:
                self.kept.append({"name": name, "start": t0,
                                  "wall_s": wall, "self_s": self_s, "cpu_s": cpu,
                                  "thread": threading.get_ident(), **(counts or {})})

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        perf, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(0.0, thread_time())
            frame.t0 = perf()
            stack.append(frame)
            result = ok = None
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                cpu = thread_time() - frame.cpu0
                stack.pop()
                wall = t1 - frame.t0
                covered = frame.child_s + _union_length(frame.foreign, frame.t0, t1)
                # counting runs outside the span; the parent treats it as covered
                counts = counter(args, kwargs, result) if counter and ok else None
                t2 = perf()
                if stack:
                    stack[-1].child_s += t2 - frame.t0
                elif stack is not self._main_stack and self._main_stack:
                    self._main_stack[-1].foreign.append((frame.t0, t2))
                self._record(name, wall, wall - covered, cpu, counts, frame.t0,
                             top=not stack and stack is self._main_stack)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every listed function in each sympow namespace, and the methods."""
        import sympow  # noqa: F401  (loads every submodule)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sympow" or n.startswith("sympow.")]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"sympow.{modname}"], attr)
            wrapped = self.wrap(name, original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[f"sympow.{modname}"], clsname)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def report(self) -> dict:
        return {"stats": self.stats, "top_level_s": self.top_level_s, "spans": self.kept}

"""Outside-in span tracer for the benchmark's traced runs.

Nothing in the hypercf package is edited.  `Tracer.install` replaces each
traced name where its callers look it up: the operator methods on `Poly`
and `LaurentSeries`, and each module-level function in every hypercf
module that bound it by import.  `uninstall` puts the originals back.

Spans are kept in memory as records
`[name, start, end, parent index, coeff_ops, info]` and written out once,
by `write`, after the traced body has finished.  A span's self time is
its duration minus the durations of its direct children, so the self
times of all spans under one root sum to the root's duration.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import hypercf  # noqa: F401  (all of its modules must be loaded before patching)
from hypercf.algebra import Poly
from hypercf.series import LaurentSeries

__all__ = ["Tracer", "aggregate", "FIELDS", "SPAN_NAMES"]

FIELDS = ("name", "start", "end", "parent", "coeff_ops", "info")


def _size(x) -> int:
    return x.coeffs.size if isinstance(x, (Poly, LaurentSeries)) else 1


def _product_ops(a, b) -> int:
    # computed from operand sizes: len(a) * len(b) coefficient products
    return _size(a) * _size(b)


def _division_ops(a, b) -> int:
    # schoolbook long division: (len a - len b + 1) * len b
    la, lb = _size(a), _size(b)
    return (la - lb + 1) * lb if la >= lb else 0


def _window(s) -> int:
    return s.coeffs.size


def _expansion_info(result):
    return [len(result.quotients), result.max_coeff_degree, result.coeff_degree_bound]


# span name -> (class, method names, coeff_ops, info)
_METHODS = {
    "algebra.mul": (Poly, ("__mul__", "__rmul__"), _product_ops, None),
    "algebra.add": (Poly, ("__add__", "__radd__", "__sub__", "__rsub__"), None, None),
    "algebra.divmod": (Poly, ("__divmod__",), _division_ops, None),
    "algebra.pow": (Poly, ("__pow__",), None, None),
    "series.mul": (LaurentSeries, ("__mul__", "__rmul__"), _product_ops, _window),
    "series.add": (LaurentSeries, ("__add__", "__sub__"), None, _window),
    "series.div": (LaurentSeries, ("__truediv__",), None, _window),
    "series.frobenius": (LaurentSeries, ("frobenius",), None, _window),
}

# span name -> (defining module, function name, info)
_FUNCTIONS = {
    "series.from_rational": ("hypercf.series", "series_from_rational", _window),
    "cf.continuants": ("hypercf.cf", "continuants", None),
    "cf.cf_to_series": ("hypercf.cf", "cf_to_series", None),
    "expansion.expand": ("hypercf.expansion", "expand", _expansion_info),
    "expansion.eval_at_series": ("hypercf.expansion", "eval_at_series", None),
    "construction.pattern": ("hypercf.construction", "pattern", None),
    "construction.pattern_equation": ("hypercf.construction", "pattern_equation", None),
    "construction.build_spec": ("hypercf.construction", "build_spec", None),
    "construction.verify_pattern": ("hypercf.construction", "verify_pattern", None),
    "cli.main": ("hypercf.cli", "main", None),
}

SPAN_NAMES = (*_METHODS, *_FUNCTIONS)


class Tracer:
    """Records spans around calls into hypercf while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self._open: List[int] = []
        self._restore: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, ops: Optional[Callable], info: Optional[Callable]):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                   ops(*args[:2]) if ops else 0, None]
            open_spans.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_spans.pop()
            if info is not None:
                rec[5] = info(out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, (cls, attrs, ops, info) in _METHODS.items():
            for attr in attrs:
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, ops, info))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hypercf" or key.startswith("hypercf.")]
        for name, (home, attr, info) in _FUNCTIONS.items():
            orig = getattr(sys.modules[home], attr)
            wrapped = self._wrap(name, orig, None, info)
            for module in modules:
                if getattr(module, attr, None) is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "fields": FIELDS, "spans": self.spans}, fh)


def aggregate(spans: List[list]) -> Dict[str, dict]:
    """Per span name: calls, self_s, coeff_ops and the list of infos."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: Dict[str, dict] = {}
    for i, (name, start, end, _, ops, info) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "coeff_ops": 0, "infos": []})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_s[i]
        s["coeff_ops"] += ops
        if info is not None:
            s["infos"].append(info)
    return stats

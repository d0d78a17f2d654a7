"""Layer-by-layer tracing of exacteig from outside the package.

The source is never edited. While a :class:`Tracer` is bound, every
public function of every ``exacteig`` module is replaced, at every
module attribute it is bound to, by a wrapper that records a span
(name, start, end, parent span, analysis id). Calls from one layer into
another therefore nest. Unbinding restores the original objects.

A layer is a module, except that the scalar backend modules belong to
``scalars``. Spans stay in memory until :meth:`Tracer.write`.

:class:`ArithCounter` counts add/sub/mul/div calls on the scalar type in
a separate pass, without span timing, where the type allows its methods
to be replaced (a pure-Python class does; a compiled one does not).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("scalars", "matrices", "spectra", "charmatrix", "jordan",
          "factorizations", "verification", "io_json", "cli")
_BACKEND_MODULES = {"_kernel_py": "scalars", "_backend": "scalars",
                    "_kernel": "scalars"}
_ORIGINAL = "__perfbench_original__"
_SPAN_FIELDS = 6  # span id, parent span id, name id, start ns, end ns, analysis


def layer_of(module_name):
    short = module_name.rpartition(".")[2]
    return _BACKEND_MODULES.get(short, short)


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "exacteig" or name.startswith("exacteig."))]


def _public_functions():
    """{function: span name} for each public function defined in a layer
    module, named ``<layer>.<function>``."""
    found = {}
    for module in _package_modules():
        if module.__name__ == "exacteig":
            continue
        layer = layer_of(module.__name__)
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and not hasattr(obj, _ORIGINAL)
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{name}"
    return found


def installed_wrappers(scalar_type):
    """Names of package attributes and scalar methods that are wrappers
    at this moment; empty when nothing is installed."""
    names = [f"{module.__name__}.{attr}"
             for module in _package_modules()
             for attr, obj in list(vars(module).items())
             if hasattr(obj, _ORIGINAL)]
    names += [f"{scalar_type.__name__}.{attr}"
              for attr, obj in vars(scalar_type).items()
              if hasattr(obj, _ORIGINAL)]
    return names


class Tracer:
    """Span recorder over the package's public functions."""

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.analysis = -1
        self._stack = []
        self._next_id = 0
        self._wrappers = {
            id(f): (f, self._wrap(f, name))
            for f, name in _public_functions().items()}
        self._bound = []

    def _wrap(self, f, name):
        name_id = len(self.names)
        self.names.append(name)
        stack, spans, clock, tracer = (self._stack, self.spans,
                                       time.perf_counter_ns, self)

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return f(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((span_id, parent, name_id, start, end,
                              tracer.analysis))

        functools.update_wrapper(wrapper, f)
        setattr(wrapper, _ORIGINAL, f)
        return wrapper

    @contextlib.contextmanager
    def bound(self, analysis):
        """Record spans of ``analysis`` while the block runs."""
        self.analysis = analysis
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                pair = self._wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._bound.append((module, attr, obj))
        try:
            yield
        finally:
            for module, attr, obj in reversed(self._bound):
                setattr(module, attr, obj)
            self._bound.clear()
            self._stack.clear()

    def summary(self):
        """Totals per span name and the derived ratios.

        Returns ``(self_ns, calls, hits)``: self time and call count per
        span name, and ``hits`` with the counts behind
        ``factorizations.power_cache_hit_share`` (matrix_power calls and
        diagonalize spans under one, per analysis) and
        ``charmatrix.topup_share``.
        """
        spans = self.spans
        count = len(spans) // _SPAN_FIELDS
        parent_of, name_of = {}, {}
        for k in range(count):
            base = k * _SPAN_FIELDS
            parent_of[spans[base]] = spans[base + 1]
            name_of[spans[base]] = spans[base + 2]
        child_ns = Counter()
        self_ns, calls = Counter(), Counter()
        power_calls, power_diagonalize = Counter(), Counter()
        topped_up = set()
        names = self.names
        for k in range(count):
            span, parent, name_id, start, end, analysis = \
                spans[k * _SPAN_FIELDS:(k + 1) * _SPAN_FIELDS]
            name = names[name_id]
            duration = end - start
            self_ns[name] += duration - child_ns.pop(span, 0)
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += duration
            if name == "factorizations.matrix_power":
                power_calls[analysis] += 1
            elif name == "factorizations.diagonalize":
                up = parent
                while up >= 0:
                    if names[name_of[up]] == "factorizations.matrix_power":
                        power_diagonalize[analysis] += 1
                        break
                    up = parent_of[up]
            elif (name == "matrices.nullspace_basis" and parent >= 0
                  and names[name_of[parent]]
                  == "charmatrix.product_eigenvectors"):
                topped_up.add(parent)
        hits = {"power_calls": power_calls,
                "power_diagonalize": power_diagonalize,
                "topped_up": len(topped_up)}
        return self_ns, calls, hits

    def write(self, path):
        """Write every span once, as gzipped tab-separated text."""
        spans, names = self.spans, self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart_ns\tend_ns\tanalysis\n")
            for k in range(len(spans) // _SPAN_FIELDS):
                row = spans[k * _SPAN_FIELDS:(k + 1) * _SPAN_FIELDS]
                out.write(f"{row[0]}\t{row[1]}\t{names[row[2]]}\t"
                          f"{row[3]}\t{row[4]}\t{row[5]}\n")


_ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__")


class ArithCounter:
    """Counts arithmetic calls on ``scalar_type`` while bound.

    ``__rtruediv__`` is left alone: the pure type implements it by
    calling ``__truediv__``, which is counted.
    """

    def __init__(self, scalar_type):
        self.scalar_type = scalar_type
        self.count = 0
        self.countable = all(
            isinstance(vars(scalar_type).get(name), types.FunctionType)
            for name in _ARITH_METHODS)

    def _wrap(self, f):
        counter = self

        def wrapper(a, b):
            counter.count += 1
            return f(a, b)

        setattr(wrapper, _ORIGINAL, f)
        return wrapper

    @contextlib.contextmanager
    def bound(self):
        saved = {}
        try:
            if self.countable:
                for name in _ARITH_METHODS:
                    original = vars(self.scalar_type)[name]
                    setattr(self.scalar_type, name, self._wrap(original))
                    saved[name] = original
            yield
        finally:
            for name, original in saved.items():
                setattr(self.scalar_type, name, original)

"""Spans around the program's public functions, installed from outside it.

Every public function defined in the traced modules is replaced by a wrapper
in every ``cluster_reduce`` module that binds it (for example both
``pipelines.classify`` and ``covariant.classify``), so calls through any of
those names are seen. The program's source is not changed.

Spans are kept in memory as ``(id, parent, name, start, end, self)`` and
written out when the run ends. A span's self time is its duration minus the
time covered by its child spans and by the calibration kernel that
interrupted it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

TRACED_MODULES = ("cluster_core", "covariant", "lattice", "polyalg", "pipelines", "io")


def _degree(args, kwargs, result):
    coeffs = args[0] if args else kwargs["coeffs"]
    return len(coeffs) - 1


def _iterations(args, kwargs, result):
    return result.iterations


# extra counters: span name -> (counter name, value from args and result)
COUNTERS = {
    "polyalg.aberth_roots": ("aberth_roots.degree", _degree),
    "covariant.minimize": ("minimize.iterations", _iterations),
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [id, name, start, covered]
        self.spans = []
        self.counts = {}
        self._next_id = 0

    def on_kernel(self, seconds):
        if self.stack:
            self.stack[-1][3] += seconds

    def _open(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else None, frame[1], frame[2], end, duration - frame[3])
        )

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    @contextlib.contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "polyalg.resultant" and any(f[1] == "polyalg.curve_intersection" for f in self.stack):
                self.count("curve_intersection.attempts")
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if counter is not None:
                self.count(counter[0], counter[1](args, kwargs, result))
            return result

        return traced

    def install(self, package="cluster_reduce"):
        """Wrap the public functions of the traced modules wherever they are bound."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])

    def summary(self):
        """Calls and self seconds per span name."""
        out = {}
        for _, _, name, _, _, self_s in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + self_s)
        return out

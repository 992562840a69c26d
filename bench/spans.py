"""In-memory call spans at chebnash module boundaries, for the traced run.

Installing a :class:`Tracer` rebinds, in every chebnash module, each
function that the module imports from another chebnash module, so every
span marks a call across a module boundary.  The benchmark's own calls
into the public API are wrapped with :meth:`Tracer.wrap`.  Wrappers only
forward their arguments, so traced outputs are bitwise equal to untraced
ones.  Times are integer nanoseconds, so a span's self time plus its
children's durations equals its own duration exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "chebnash"
MODULES = ("cheb1d", "chebnd", "game", "oracle", "presets", "solver")

# Bindings the per-layer metrics read; one a later change deletes is
# reported as absent and its metrics read zero.
EXPECTED_BINDINGS = (
    ("solver", "_bind_diagonal"),
    ("solver", "_bind_rows"),
    ("solver", "_bind_shared"),
    ("solver", "_row_basis"),
    ("solver", "tensor_coeffs"),
    ("solver", "stack_coeffs"),
    ("solver", "derivative_array"),
    ("solver", "dynamics"),
    ("solver", "build_state_grid"),
    ("chebnd", "cheb_transform"),
    ("oracle", "lq_bellman_update"),
)

# Counted without a span: the oracle calls it within its own module.
COUNTED_ONLY = (("oracle", "lq_bellman_update"),)

BIND_KERNELS = ("_bind_diagonal", "_bind_rows", "_bind_shared")


def bind_work(kernel: str, B, A) -> tuple[int, int]:
    """Computed flops and bytes of one bind kernel call, from argument shapes.

    Counts one multiply and one add per term and 8-byte reads of both
    operands plus the write of the result; caching is ignored.
    """
    if kernel == "_bind_rows":                  # (k, d) x (d, rest) -> (k, rest)
        k, d = B.shape
        rest = A.size // d
        out, terms = k * rest, k * d * rest
    elif kernel == "_bind_diagonal":            # (M, d) x (M, d, rest) -> (M, rest)
        m, d = B.shape
        rest = A.size // (m * d)
        out, terms = m * rest, m * d * rest
    else:                                       # (k, d) x (M, d, rest) -> (M, k, rest)
        k, d = B.shape
        m = A.shape[0]
        rest = A.size // (m * d)
        out, terms = m * k * rest, m * k * d * rest
    return 2 * terms, 8 * (B.size + A.size + out)


class Tracer:
    """Records spans (name, parent, start, end) and call counts in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start_ns, end_ns]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        rec = [name, self._open[-1] if self._open else -1, 0, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        return rec

    def _end(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        kernel = name.rsplit(".", 1)[-1]
        work = kernel if kernel in BIND_KERNELS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                flops, nbytes = bind_work(work, args[0], args[1])
                self.counts["chebnd.bind.flops"] += flops
                self.counts["chebnd.bind.bytes"] += nbytes
            rec = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(rec)

        return traced

    def count(self, name: str, fn):
        """`fn` with a call counter and no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    @contextmanager
    def installed(self):
        """Rebind cross-module imports of chebnash while the block runs.

        Yields the list of EXPECTED_BINDINGS that are missing, as
        "module.name" strings; every rebinding is undone on exit.
        """
        saved = []
        absent = []
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                pass
        try:
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if not inspect.isfunction(val):
                        continue
                    owner = val.__module__
                    if owner == mod.__name__ or not owner.startswith(PACKAGE + "."):
                        continue
                    saved.append((mod, attr, val))
                    setattr(mod, attr, self.wrap(f"{owner.rsplit('.', 1)[-1]}.{val.__name__}", val))
            for short, attr in COUNTED_ONLY:
                fn = getattr(mods.get(short), attr, None)
                if fn is not None:
                    saved.append((mods[short], attr, fn))
                    setattr(mods[short], attr, self.count(f"{short}.{attr}", fn))
            absent = [f"{m}.{a}" for m, a in EXPECTED_BINDINGS if not hasattr(mods.get(m), a)]
            yield absent
        finally:
            for mod, attr, val in reversed(saved):
                setattr(mod, attr, val)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self nanoseconds."""
        child = [0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, int]] = {}
        for k, (name, parent, t0, t1) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["ns"] += t1 - t0
            s["self_ns"] += t1 - t0 - child[k]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line [index, parent, name, start_ns, end_ns]."""
        with gzip.open(path, "wt") as fh:
            for k, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([k, parent, name, t0, t1]) + "\n")

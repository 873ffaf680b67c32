"""Per-function call counts and times, gathered by wrapping from outside.

The tracer never edits the package.  It replaces bindings:

* each function one ``hypermoebius`` module imports from another, at the
  importing module's binding (``from .matrix2 import det`` in ``moebius``);
* a module imported whole (``from . import algebra``) by a view of it whose
  functions are wrapped, so ``algebra.number(...)`` is seen too;
* the arithmetic dunders of ``Hypercomplex`` and ``Mat2``;
* named functions at their own module's binding, so that calls from inside
  that module and from function-local imports are counted as well.

Classes are not wrapped: a function in place of a class binding would break
``isinstance``.  Time spent in a constructor is charged to its caller.

Each wrapped function keeps calls, total time and self time in memory.  Self
time is total time less the time of wrapped calls made beneath it.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager

PACKAGE = "hypermoebius"
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__neg__", "__matmul__")


def layer_of(fn) -> str | None:
    """The package module a function was defined in, or None."""
    module = getattr(fn, "__module__", None) or ""
    return module.rpartition(".")[2] if module.startswith(PACKAGE + ".") else None


class _ModuleView:
    """Stands in for a whole imported module; wrapped functions shadow it."""

    def __init__(self, module, wrapped: dict):
        self.__dict__.update(wrapped)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}   # (layer, name) -> [calls, total_s, self_s]
        self.active = False
        self._stack: list[float] = []                  # child time of each open call
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        stat = self.stats.setdefault((layer_of(fn), fn.__qualname__), [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap_bindings(self, modules) -> None:
        """Wrap cross-module imports in each module; call before wrap_home."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) \
                        and layer_of(value) not in (None, module.__name__.rpartition(".")[2]):
                    self._patch(module, name, self._wrap(value))
                elif isinstance(value, types.ModuleType) and value is not module \
                        and value.__name__.startswith(PACKAGE + "."):
                    wrapped = {n: self._wrap(v) for n, v in vars(value).items()
                               if isinstance(v, types.FunctionType) and layer_of(v)}
                    self._patch(module, name, _ModuleView(value, wrapped))

    def wrap_dunders(self, classes) -> None:
        for cls in classes:
            for name in _DUNDERS:
                if name in vars(cls):
                    self._patch(cls, name, self._wrap(vars(cls)[name]))

    def wrap_home(self, module, names) -> None:
        for name in names:
            self._patch(module, name, self._wrap(getattr(module, name)))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def __enter__(self):
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        self.restore()

    def by_layer(self) -> dict[str, tuple[int, float]]:
        """Calls and self time summed over each module's wrapped functions."""
        out: dict[str, tuple[int, float]] = {}
        for (layer, _), (calls, _total, self_s) in self.stats.items():
            c, s = out.get(layer, (0, 0.0))
            out[layer] = (c + calls, s + self_s)
        return out

    def calls(self, layer: str, name: str) -> int:
        return self.stats.get((layer, name), [0])[0]

    def table(self) -> list[dict]:
        return [{"layer": layer, "function": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (layer, name), (calls, total, self_s) in sorted(self.stats.items())
                if calls]

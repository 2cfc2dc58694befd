"""Per-layer tracing of dulac from outside the package.

The tracer replaces public functions of the dulac modules with timing
wrappers, in every dulac namespace that imported them (``compose`` lives
in ``poly``, ``normalform``, ``ideals`` and the package itself), and
restores the originals on ``uninstall``.  Methods of ``Scalar`` and
``Series`` are wrapped on their classes.

Each wrapped call pushes a frame on a stack, so a call's self time is its
duration minus the time of the wrapped calls made inside it.  Every name
gets a counter (calls, total seconds, self seconds).  Calls that are not
hot also get a span (id, parent span id, problem id, name, start, end,
self seconds), kept in memory and written out by ``dump``.  Hot entry
points, the scalar and series arithmetic, are counted only: a span per
call would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "exprs", "field", "poly", "linalg", "normalform", "ideals")

# Sort keys are bound at import time (default arguments, TERM_ORDERS), so
# a wrapper would see only some of their calls; console_main exits.
SKIP = {"poly.grlex_key", "poly.grevlex_key", "cli.console_main"}

# (layer, class name, attribute) -> trace name
METHODS = {
    ("field", "Scalar", "__add__"): "field.scalar_add",
    ("field", "Scalar", "__radd__"): "field.scalar_add",
    ("field", "Scalar", "__sub__"): "field.scalar_add",
    ("field", "Scalar", "__rsub__"): "field.scalar_add",
    ("field", "Scalar", "__mul__"): "field.scalar_mul",
    ("field", "Scalar", "__rmul__"): "field.scalar_mul",
    ("field", "Scalar", "inverse"): "field.scalar_inverse",
    ("field", "Scalar", "__truediv__"): "field.scalar_div",
    ("field", "Scalar", "__rtruediv__"): "field.scalar_div",
    ("field", "Scalar", "__neg__"): "field.scalar_neg",
    ("field", "Scalar", "__pow__"): "field.scalar_pow",
    ("poly", "Series", "__add__"): "poly.series_add",
    ("poly", "Series", "__sub__"): "poly.series_add",
    ("poly", "Series", "__neg__"): "poly.series_neg",
    ("poly", "Series", "__mul__"): "poly.series_mul",
    ("poly", "Series", "__rmul__"): "poly.series_mul",
    ("poly", "Series", "__pow__"): "poly.series_pow",
    ("poly", "VectorField", "from_components"): "poly.from_components",
    ("ideals", "IdealHandle", "normal_form"): "ideals.normal_form",
}

# Module-level functions that are called once per monomial or coefficient.
HOT_FUNCTIONS = {"poly.weight", "normalform.is_resonant"}


def _is_hot(name: str) -> bool:
    return (
        name.startswith("field.")
        or name.startswith("poly.series_")
        or name in HOT_FUNCTIONS
    )


class Tracer:
    """Install with ``install(package)``; set ``problem`` before each call."""

    def __init__(self) -> None:
        self.counters: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.problem: Optional[str] = None
        self.basis_size = 0
        self.closure_rounds = 0
        self.wrapped: List[str] = []
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._restore: List[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, name: str, func: Callable) -> Callable:
        counter = self.counters.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        hot = _is_hot(name)
        on_return = self._on_groebner if name == "ideals.groebner" else None
        ids = self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            # child seconds, span id (a hot call passes its parent's on), name
            frame = [0.0, parent if hot else next(ids), name]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                counter[0] += 1
                counter[1] += duration
                counter[2] += own
                if not hot:
                    spans.append((frame[1], parent, self.problem, name, start, end, own))
            if on_return is not None:
                on_return(result)
            return result

        return functools.update_wrapper(wrapper, func)

    def _on_groebner(self, basis) -> None:
        self.basis_size += len(basis.polys) + len(basis.monomials)
        if any(frame[2] == "ideals.close_under_lie" for frame in self._stack):
            self.closure_rounds += 1

    def install(self, package) -> None:
        """Wrap the public functions and the METHODS of the dulac modules."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = list(modules.values()) + [package]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                    or name in SKIP
                ):
                    continue
                wrapper = self._wrapper(name, obj)
                self.wrapped.append(name)
                for namespace in namespaces:
                    if vars(namespace).get(attr) is obj:
                        self._restore.append((namespace, attr, obj))
                        setattr(namespace, attr, wrapper)
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrapper(name, original.__func__))
            else:
                wrapped = self._wrapper(name, original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapped)
            if name not in self.wrapped:
                self.wrapped.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.counters.get(name, (0,))[0])

    def self_s(self, name: str) -> float:
        return self.counters.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(c[2] for n, c in self.counters.items() if n.startswith(layer + "."))

    def dump(self, path: str, meta: dict) -> None:
        """Write counters and spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "meta": meta,
                    "span_fields": ["id", "parent", "problem", "name", "start", "end", "self_s"],
                    "counters": {
                        n: {"calls": int(c[0]), "total_s": c[1], "self_s": c[2]}
                        for n, c in sorted(self.counters.items())
                    },
                    "spans": self.spans,
                },
                handle,
            )

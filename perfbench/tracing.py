"""Span tracer that wraps canonica's public functions from outside the package.

`Tracer.install()` replaces every public function of the seven library
modules, and every public method of the classes they define, with a wrapper
that records a span (name, start, end, parent) while the tracer is active.
Callers that bound a function by name (`from .fields import read_field`)
hold their own reference, so the wrapper is also written into every
`canonica.*` namespace that holds the original object.

Spans stay in memory; `layer_metrics()` turns them into per-layer self
times (span time minus child-span time) and `write_spans()` dumps them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict

LAYER_MODULES = ("symplectic", "specfun", "fields", "transforms", "appell", "verify", "cli")

# public transform engines; the other public functions of `transforms` are helpers
ENGINES = (
    "apply", "linear_ct", "geometric", "fresnel_propagate", "frft", "fr_laplace",
    "poisson_propagate", "hankel", "fr_hankel", "radial_ct", "radial_propagate",
    "hankel_type", "radial_laplace", "fr_radial_laplace", "bessel_exp",
    "bessel_exp_quarter_turn", "radial_heat_propagate", "barut_girardello",
)

# spans with their own per-layer metric; other spans fall into "<module>.other"
# (or the module's single bucket for symplectic, verify and cli)
_OWN_METRIC = {
    "specfun.bessel_j", "specfun.bessel_i_scaled",
    "fields.read_field", "fields.write_field", "fields.eval",
    "appell.image", "appell.appell_numeric",
} | {f"transforms.{e}" for e in ENGINES}
_SINGLE_BUCKET = {"symplectic", "verify", "cli"}

OP_SPAN = "harness.op"
CHECK_SPAN = "harness.check"


def metric_prefix(span_name: str) -> str | None:
    """Per-layer metric family a library span's self time is booked under."""
    if span_name.startswith("harness."):
        return None
    module = span_name.split(".", 1)[0]
    if module in _SINGLE_BUCKET:
        return module
    if span_name in _OWN_METRIC:
        return span_name
    return f"{module}.other"


def _size(value) -> int:
    return int(getattr(value, "size", 1))


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.transform_keys: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._transform_depth = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        """Root span of one timed operation; tracing is on inside it."""
        self.active = True
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self.active = False

    @contextlib.contextmanager
    def harness(self):
        """Reference and checking work: one span, library calls inside untraced."""
        was_active, self.active = self.active, False
        idx = self._open(CHECK_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self.active = was_active

    def _wrap(self, name, fn, name_of=None, counter=None, key_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name_of(args) if name_of else name
            if key_of is not None:
                if tracer._transform_depth == 0:  # only the caller's own transform calls
                    tracer.transform_keys.append(key_of(args, kwargs))
                tracer._transform_depth += 1
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if key_of is not None:
                    tracer._transform_depth -= 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the library modules and rebind callers."""
        import canonica  # noqa: F401  (loads every layer module)
        from canonica.fields import SampledField

        def transform_key(fn):
            sig = inspect.signature(fn)

            def key_of(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                parts = []
                for value in bound.arguments.values():
                    if isinstance(value, SampledField):
                        parts.append(("field", value.grid, value.geometry))
                    elif isinstance(value, (int, float, complex, str, type(None))) \
                            or dataclasses.is_dataclass(value):
                        parts.append(value)
                    else:  # callables and analytic fields: identity is not a kernel parameter
                        parts.append(type(value).__name__)
                return repr((fn.__name__, tuple(parts)))

            return key_of

        def count_points(key):
            def counter(counts, args, kwargs, result):
                counts[key] += _size(result)
            return counter

        def count_read(counts, args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            counts["fields.read_field.bytes"] += os.path.getsize(path)

        def count_write(counts, args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts["fields.write_field.bytes"] += os.path.getsize(path)

        def eval_name(args):
            module = type(args[0]).__module__
            if module == "canonica.appell":
                return "appell.image"
            if module.startswith("canonica.") and module != "canonica.fields":
                return module.split(".", 1)[1] + ".eval"
            return "fields.eval"

        counters = {
            "specfun.bessel_j": count_points("specfun.bessel_j.points"),
            "specfun.bessel_i_scaled": count_points("specfun.bessel_i_scaled.points"),
            "fields.read_field": count_read,
            "fields.write_field": count_write,
        }
        replaced = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"canonica.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    key_of = None
                    if short == "transforms" and attr in ENGINES:
                        key_of = transform_key(value)
                    wrapper = self._wrap(name, value, counter=counters.get(name), key_of=key_of)
                    replaced[id(value)] = (value, wrapper)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_methods(short, value, eval_name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "canonica" and not mod_name.startswith("canonica."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap_methods(self, short, cls, eval_name):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                wrapped = type(value)(self._wrap(name, value.__func__))
            elif isinstance(value, types.FunctionType):
                name_of = eval_name if (short, attr) == ("fields", "eval") else None
                wrapped = self._wrap(name, value, name_of=name_of)
            else:
                continue
            setattr(cls, attr, wrapped)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the duration of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and exact counters of the traced ops."""
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_times().items():
            prefix = metric_prefix(name)
            if prefix is not None:
                out[f"{prefix}.self_s"] += value
        for name, _, _, _ in self.spans:
            if name.startswith("transforms.") and name[len("transforms."):] in ENGINES:
                out[f"{name}.calls"] += 1
        ops = [s for s in self.spans if s[0] == OP_SPAN]
        checks = [s for s in self.spans if s[0] == CHECK_SPAN]
        traced_wall = sum(end - start for _, start, end, _ in ops)
        layer_sum = sum(v for k, v in out.items() if k.endswith(".self_s"))
        out["harness.traced_wall_s"] = traced_wall
        out["harness.untraced_s"] = traced_wall - layer_sum
        out["harness.check_s"] = sum(end - start for _, start, end, _ in checks)
        out.update(self.counts)
        points = out.get("specfun.bessel_j.points", 0.0)
        out["specfun.bessel_j.ns_per_point"] = (
            1e9 * out.get("specfun.bessel_j.self_s", 0.0) / points if points else 0.0)
        keys = self.transform_keys
        out["transforms.calls"] = len(keys)
        out["transforms.repeat_share"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

"""Spans around the calls into each relay_bounds layer, recorded from outside.

The program is not edited: `Tracer.install` replaces functions in the
package's module namespaces with timing wrappers and `uninstall` puts the
originals back.  A wrapper is placed

* in every module that imports a layer's public function by name (for
  example `gauss_gap_inverse` inside `gaussian_relay`), so each call that
  crosses from one layer into another is a span;
* in the layer's own namespace for its entry points, the public functions no
  other code of that layer calls, which `cli` and the benchmark reach as
  module attributes;
* in the layer's own namespace for the functions in ALWAYS, whose per-call
  cost the per-layer metrics name although the layer calls them itself.

Calls inside a layer to anything else stay unwrapped, so the inner loops of
the scalar solvers carry no tracing cost.  Spans are kept in memory in flat
arrays (name id, start, end, parent span, operation, tag, error) and written
out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = ("scalar_bounds", "gaussian_relay", "dmc_relay", "rhc_verify", "cli")
ALWAYS = {
    "rhc_verify": ("apply_semisimple", "brute_force_entropy_gap", "gaussian_quantizer_gap"),
    "cli": ("main",),
}


def _tag_of(args) -> int:
    """A small integer describing the call: input alphabet size or instance count."""
    if not args:
        return -1
    first = args[0]
    k = getattr(first, "n_inputs", None)
    if k is not None:
        return int(k)
    return first if type(first) is int else -1


def _names_used(code: types.CodeType, out: set) -> None:
    out.update(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _names_used(const, out)


def _called_inside(module: types.ModuleType) -> set:
    """Global names that the module's own functions and methods refer to."""
    used: set = set()
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            _names_used(value.__code__, used)
        elif isinstance(value, type):
            for member in vars(value).values():
                if isinstance(member, types.FunctionType):
                    _names_used(member.__code__, used)
    return used


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("H")
        self.start: array = array("q")
        self.end: array = array("q")
        self.parent: array = array("l")
        self.op: array = array("l")
        self.tag: array = array("l")
        self.errors: dict[int, str] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._wrappers: list = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        """A wrapper of fn that records a span named `name` around each call."""
        nid = len(self.names)
        self.names.append(name)
        ids, start, end, parent, ops, tags = self.name_id, self.start, self.end, self.parent, self.op, self.tag
        stack, errors = self._stack, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            tags.append(_tag_of(args))
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def _plan(self, package: types.ModuleType) -> list:
        """(namespace, name, wrapper) for every function the spans go around."""
        layers = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        namespaces = [package] + [m for name, m in sorted(sys.modules.items())
                                  if name.startswith(package.__name__ + ".") and m is not None]
        plan = []
        for lname, layer in layers.items():
            inside = _called_inside(layer)
            for attr, fn in list(vars(layer).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != layer.__name__):
                    continue
                wrapper = self.wrap(f"{lname}.{attr}", fn)
                if attr not in inside or attr in ALWAYS.get(lname, ()):
                    plan.append((layer, attr, wrapper))
                plan += [(ns, attr, wrapper) for ns in namespaces
                         if ns is not layer and getattr(ns, attr, None) is fn]
        return plan

    def install(self, package: types.ModuleType) -> None:
        if not self._wrappers:
            self._wrappers = self._plan(package)
        for module, attr, wrapper in self._wrappers:
            self._patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path, ops: dict) -> None:
        """Write the spans, with `ops` describing the operations their `op` column indexes."""
        cols = {"name": self.name_id, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "op": self.op, "tag": self.tag}
        doc = {"names": self.names, "errors": {str(k): v for k, v in self.errors.items()},
               "ops": ops, "columns": {k: v.tolist() for k, v in cols.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

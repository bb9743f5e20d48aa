"""Spans at the boundaries between ``monofloer`` modules, recorded from
outside the program.

``install`` replaces, in place, every function that one ``monofloer``
module imports from another (found by reading the ``from .x import y``
statements of each module, function-local ones included), the entry points
the benchmark calls, and the constructor and public methods of every class
the package defines.  A wrapper records a span only when its caller lives in
another module, so each span is one crossing of a layer boundary; a call
from the function's own module is only counted.  Spans stay in memory, in
flat arrays, until ``summary`` and ``dump`` run after the last operation.

Besides spans the tracer counts, where the work happens, the distinct
arguments of the kernel's factorizations (``intlinalg._Factorization``), of
``complexes._differential`` and of ``homology.presentation_at``, and the
largest matrix shape and entry bit length crossing into or out of the
kernel.  The kernel's intermediate reduction matrices stay inside
``intlinalg`` and are not seen.
"""

from __future__ import annotations

import ast
import enum
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "monofloer"
LAYERS = ("data", "intlinalg", "complexes", "homology", "actions",
          "sequences", "spectral", "duality", "cli")
ENTRY_POINTS = (("cli", "run"), ("data", "parse"), ("data", "validate"))

# the call each verify-all check makes into another layer
CHECKS = {
    "complexes.check_d_squared": "d-squared",
    "homology.graded_homology": "infinity-pattern",
    "sequences.check_les_main": "les-main",
    "sequences.hf_red": "reduced-comparison",
    "actions.verify_u_homotopy": "u-homotopy",
    "sequences.check_les_hat": "les-hat",
    "spectral.structure_theorem": "structure",
    "duality.duality_check": "duality",
}

# calls whose distinct arguments are counted
DISTINCT_SCOPES = ("intlinalg._Factorization", "complexes._differential",
                   "homology.presentation_at")


def _imported_names(module) -> set[tuple[str, str]]:
    """(source layer, name) for every relative import in the module."""
    tree = ast.parse(inspect.getsource(module))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module in LAYERS:
            found.update((node.module, alias.name) for alias in node.names)
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.caller = array("i")
        self.current_op = -1
        self._inner: list[int] = []
        self._stack: list[int] = []
        self._distinct: dict[str, set] = {s: set() for s in DISTINCT_SCOPES}
        self._scope_calls = dict.fromkeys(DISTINCT_SCOPES, 0)
        self.max_rows = 0
        self.max_cols = 0
        self.max_coeff_bits = 0
        self._matrix_type = None

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._inner.append(0)
        return self._name_ids[name]

    def _caller_id(self, frame) -> int:
        # a generator expression or comprehension stands for its function
        while frame.f_code.co_name.startswith("<") and frame.f_back:
            frame = frame.f_back
        return self._intern(frame.f_code.co_name)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        self._matrix_type = modules["intlinalg"].SparseIntMatrix
        wanted = set(ENTRY_POINTS)
        for module in modules.values():
            wanted |= _imported_names(module)
        wrapped: dict[int, object] = {}
        for layer, name in sorted(wanted):
            original = getattr(modules[layer], name)
            if isinstance(original, type) or not callable(original):
                continue  # classes are handled below; constants stay
            traced = self._wrap(original, layer, f"{layer}.{name}")
            wrapped[id(original)] = traced
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
        for layer, module in modules.items():
            for cls in list(vars(module).values()):
                if (isinstance(cls, type) and cls.__module__ == module.__name__
                        and not issubclass(cls, (BaseException, enum.Enum))):
                    self._wrap_class(cls, layer)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            label = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__":
                setattr(cls, attr,
                        self._wrap(value, layer, f"{layer}.{cls.__name__}",
                                   constructor=True))
            elif attr.startswith("_"):
                continue
            elif isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(
                    self._wrap(value.__func__, layer, label)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(value, layer, label))

    def _wrap(self, fn, layer: str, label: str, constructor: bool = False):
        home = f"{PACKAGE}.{layer}"
        name_id = self._intern(label)
        kernel = layer == "intlinalg"
        scope = label if label in self._distinct else None
        tracer = self
        inner = self._inner
        names, start, end = self.name, self.start, self.end
        parent, op, caller_arr = self.parent, self.op, self.caller
        stack = self._stack
        getframe = sys._getframe
        clock = time.perf_counter
        cli_home = f"{PACKAGE}.cli"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = getframe(1)
            caller = frame.f_globals.get("__name__")
            if caller == home:
                inner[name_id] += 1
                if scope is not None:
                    tracer._observe(scope, args[1:] if constructor else args,
                                    kwargs)
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            caller_arr.append(tracer._caller_id(frame)
                              if caller == cli_home else -1)
            if scope is not None:
                tracer._observe(scope, args[1:] if constructor else args,
                                kwargs)
            stack.append(index)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if kernel:
                tracer._measure(args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _observe(self, scope: str, args, kwargs) -> None:
        # every argument of the observed calls is hashable by value
        self._distinct[scope].add((args, tuple(sorted(kwargs.items()))))
        self._scope_calls[scope] += 1

    def _measure(self, args, result) -> None:
        for value in (*args, result):
            if isinstance(value, self._matrix_type):
                if value.rows > self.max_rows:
                    self.max_rows = value.rows
                if value.cols > self.max_cols:
                    self.max_cols = value.cols
                if value.entries:
                    bits = max(abs(e[2]) for e in value.entries).bit_length()
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds; per-layer totals;
        verify-all check seconds; distinct ratios and kernel maxima."""
        count = len(self.name)
        inside = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                inside[p] += self.end[i] - self.start[i]
        per_name = {label: {"calls": self._inner[i], "crossings": 0,
                            "total_s": 0.0, "self_s": 0.0}
                    for i, label in enumerate(self.names) if "." in label}
        checks = dict.fromkeys(CHECKS.values(), 0.0)
        verify_all = self._name_ids.get("verify_all")
        for i in range(count):
            label = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            entry = per_name[label]
            entry["calls"] += 1
            entry["crossings"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - inside[i]
            if self.caller[i] == verify_all and label in CHECKS:
                checks[CHECKS[label]] += duration
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for label, entry in per_name.items():
            layer = layers[label.split(".", 1)[0]]
            layer["calls"] += entry["crossings"]
            layer["self_s"] += entry["self_s"]
        distinct = {scope: (len(self._distinct[scope])
                            / self._scope_calls[scope]
                            if self._scope_calls[scope] else 0.0)
                    for scope in DISTINCT_SCOPES}
        return {"names": per_name, "layers": layers, "checks": checks,
                "distinct_ratio": distinct, "max_rows": self.max_rows,
                "max_cols": self.max_cols,
                "max_coeff_bits": self.max_coeff_bits}

    def dump(self, path) -> None:
        """Write every span as parallel arrays: name index, start, end,
        parent span (-1 at the top), operation index."""
        doc = {"names": self.names, "name": self.name.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "parent": self.parent.tolist(), "op": self.op.tolist()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))

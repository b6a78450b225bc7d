"""In-memory span tracer that wraps gammakde's public functions from outside.

Every public function of a layer module (a plain function named in the
module's ``__all__`` and defined there) is replaced by a recording wrapper
at each name under which some gammakde module can look it up: the module
attribute itself, which covers calls such as ``numerics.integrate_semi_infinite``
made through the module, and every ``from .x import f`` binding, such as
``estimator.log_gamma``. Nothing under ``src/`` is edited.

A span is (function id, parent span, start, end). Spans are kept in compact
arrays while the program runs and written out once, by ``dump``; the
analysis (self times, per-layer sums) runs afterwards in ``summarize``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "specfun",
    "kernels",
    "estimator",
    "refdens",
    "numerics",
    "asymptotics",
    "harness",
    "ioutil",
    "cli",
)

_NO_PARENT = -1


class Tracer:
    """Span recorder plus the work counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.fn_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        # Per-call evaluation counts of each quadrature, tagged with the
        # function that asked for it, in call order.
        self.quad_calls: list[list] = []
        self._stack = [_NO_PARENT]

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after(self, name: str, args, result) -> None:
        """Work counters derived from a completed call's arguments and result."""
        if name == "numerics.integrate_semi_infinite":
            self._record_quad(result.evaluations)
        elif name == "estimator.evaluate_on_grid":
            self._count("estimator.pairs", args[0].n * result.grid.size)
        elif name == "refdens.sample":
            self._count("refdens.draws", result.n)
            parent = self._stack[-1]
            if parent != _NO_PARENT and self.names[self.fn_ids[parent]].startswith("harness."):
                # Every harness task draws exactly one sample.
                self._count("harness.tasks")
        elif name == "asymptotics.refined_bandwidth":
            self._count("asymptotics.refined_bandwidth.roots", len(result.roots))

    def _record_quad(self, evaluations: int) -> None:
        parent = self._stack[-1]
        caller = self.names[self.fn_ids[parent]] if parent != _NO_PARENT else None
        self.quad_calls.append([caller, int(evaluations)])
        self._count("numerics.quad_evals", int(evaluations))

    def wrap(self, name: str, fn):
        fn_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.starts)
            self.fn_ids.append(fn_id)
            self.parents.append(stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                partial = getattr(exc, "partial", None)
                if name == "numerics.integrate_semi_infinite" and partial is not None:
                    self._record_quad(partial.evaluations)
                key = f"{name}:{type(exc).__name__}"
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                self.ends[index] = clock()
                self.starts[index] = start
                stack.pop()
            self._after(name, args, result)
            return result

        return traced

    def install(self, package: str = "gammakde") -> None:
        """Wrap every public layer function at every name it can be looked up by."""
        modules = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def dump(self, path: str | Path) -> None:
        """Write every span and counter; called once when the traced run ends."""
        path = Path(path)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.fn_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.starts),
            "counters": self.counters,
            "errors": self.errors,
            "quad_calls": self.quad_calls,
        }
        path.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")


def load(path: str | Path) -> tuple[dict, dict]:
    """Read a dump back as (metadata, column arrays)."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    count = meta["spans"]
    cols = {}
    with open(path.with_suffix(".bin"), "rb") as fh:
        for key, code in (("fn_ids", "i"), ("parents", "q"), ("starts", "d"), ("ends", "d")):
            arr = array(code)
            arr.fromfile(fh, count)
            cols[key] = arr
    return meta, cols


def summarize(meta: dict, cols: dict) -> dict:
    """Per-function call counts, inclusive and self seconds; per-layer self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which never overlap because the traced run is single-threaded.
    """
    names = meta["names"]
    fn_ids = np.frombuffer(cols["fn_ids"], dtype=np.int32)
    parents = np.frombuffer(cols["parents"], dtype=np.int64)
    dur = np.frombuffer(cols["ends"], dtype=float) - np.frombuffer(cols["starts"], dtype=float)
    has_parent = parents >= 0
    child_time = np.bincount(
        parents[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_time = dur - child_time
    calls = np.bincount(fn_ids, minlength=len(names))
    inclusive = np.bincount(fn_ids, weights=dur, minlength=len(names))
    own = np.bincount(fn_ids, weights=self_time, minlength=len(names))
    functions = {
        name: {"calls": int(calls[i]), "inclusive_s": float(inclusive[i]), "self_s": float(own[i])}
        for i, name in enumerate(names)
    }
    layers = {layer: 0.0 for layer in LAYERS}
    for name, row in functions.items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    return {"functions": functions, "layer_self_s": layers}

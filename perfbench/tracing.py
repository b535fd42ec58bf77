"""Spans and counters at the public-function boundary of each hexband module.

The tracer wraps every public function of the traced modules from outside,
in every module namespace that holds it (``cli``, ``bands`` and ``magnetic``
bind floquet functions with ``from .floquet import ...``).  Each call records
a span (name, start, end, parent span) in memory; a function's self time is
its span minus the spans of the calls it made.  The spans are written out
when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "lattice", "floquet", "bands", "magnetic", "hill", "svgplot")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._ids: dict[str, int] = {}
        self._discover()
        self.reset_counters()

    # -- installation -------------------------------------------------

    def _discover(self) -> None:
        """Find each public function once and every namespace that holds it."""
        import hexband  # noqa: F401  (loads the package and its modules)

        packages = [m for name, m in sorted(sys.modules.items())
                    if name == "hexband" or name.startswith("hexband.")]
        for layer in LAYERS:
            module = sys.modules[f"hexband.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in packages:
                    for key, value in vars(namespace).items():
                        if value is fn:
                            self._patches.append((namespace, key, fn, wrapper))

    def install(self) -> None:
        for namespace, key, _, wrapper in self._patches:
            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, fn, _ in self._patches:
            setattr(namespace, key, fn)

    def bindings(self) -> dict[str, list[str]]:
        """The namespaces in which each traced function is wrapped."""
        out: dict[str, list[str]] = {}
        for namespace, key, fn, _ in self._patches:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            out.setdefault(name, []).append(f"{namespace.__name__}.{key}")
        return out

    # -- spans --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        special = name in ("floquet.closed_form_roots", "bands.roots_at",
                           "bands.classify_touches", "hill.dirichlet_spectrum",
                           "cli.main")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if special:
                self._before(name, args, kwargs)
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            self.span_start.append(start)
            self.span_end.append(start)
            failed = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = time.perf_counter()
                self.span_end[index] = end
                self._stack.pop()
                duration = end - start
                self.self_s[nid] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[nid] += 1
                if special:
                    self._after(name, failed)

        return wrapper

    # -- counters at the same boundaries ------------------------------

    def reset_counters(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.closed_form_raised = 0
        self.closed_form_fallbacks = 0
        self.classify_depth = 0
        self.classify_evals = 0
        self.dirichlet_repeats = 0
        self._dirichlet_seen: dict = {}

    def _before(self, name: str, args, kwargs) -> None:
        if name == "cli.main":
            self._dirichlet_seen = {}
        elif name == "bands.classify_touches":
            self.classify_depth += 1
        elif name == "bands.roots_at" and self.classify_depth:
            self.classify_evals += 1
        elif name == "hill.dirichlet_spectrum":
            pot = args[0] if args else kwargs["pot"]
            lam_max = args[1] if len(args) > 1 else kwargs["lam_max"]
            # a scan repeats when an earlier scan of the same potential in
            # this job already covered [.., lam_max]
            key = (pot.kind, None if pot.x is None else pot.x.tobytes(),
                   None if pot.values is None else pot.values.tobytes())
            covered = self._dirichlet_seen.get(key)
            if covered is not None and lam_max <= covered:
                self.dirichlet_repeats += 1
            self._dirichlet_seen[key] = max(float(lam_max), covered or float("-inf"))

    def _after(self, name: str, failed) -> None:
        if name == "bands.classify_touches":
            self.classify_depth -= 1
        elif name == "floquet.closed_form_roots" and failed is not None:
            self.closed_form_raised += 1
            if type(failed).__name__ == "NoClosedFormError":
                self.closed_form_fallbacks += 1

    def counters(self) -> dict[str, float]:
        """Per-layer metrics since the last ``reset_counters``."""
        calls = {n: self.calls[i] for i, n in enumerate(self.names)}
        self_s = {n: self.self_s[i] for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        attempts = calls["floquet.closed_form_roots"]
        out["floquet.closed_form_roots.fallbacks"] = self.closed_form_fallbacks
        out["floquet.closed_form_roots.hit_ratio"] = (
            (attempts - self.closed_form_raised) / attempts if attempts else 0.0)
        classify = calls["bands.classify_touches"]
        out["bands.classify_touches.evals_per_call"] = (
            self.classify_evals / classify if classify else 0.0)
        scans = calls["hill.dirichlet_spectrum"]
        out["hill.dirichlet_spectrum.repeat_ratio"] = (
            self.dirichlet_repeats / scans if scans else 0.0)
        return out

    def write_spans(self, path: str) -> int:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
        return len(self.span_start)

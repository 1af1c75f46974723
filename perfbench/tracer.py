"""Span tracing of the ``toeplitzlda`` package from outside its source.

``Tracer.install`` replaces, for the duration of a traced pass:

* every public function defined in a traced module,
* every name another package module bound to one of those functions with
  ``from .x import y`` (``lda``, ``covest``, ``bench`` and ``cli`` call most
  stages through such names), and
* the ``__post_init__`` of the given classes (the validation and copy done
  by their constructors),

with a wrapper that records one span per call.  ``uninstall`` puts every
original back and reports whether each name again holds its original.

Span times are CPU time of the process (``time.process_time``), the clock
the benchmark's end-to-end times use.  Spans stay in a list in memory;
``write`` saves them as JSON.  With
``track_memory`` the tracer also records, per span, the ``tracemalloc`` peak
above the memory held when the span started.  That pass is slower, so self
times come from a pass without it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
import types

MIB = 1024.0 * 1024.0


class Tracer:
    """Wraps package functions; spans are ``[name, parent, start, end, error, peak, base]``."""

    def __init__(self, package: str, modules, classes=(), track_memory: bool = False):
        self.package = package
        self.modules = tuple(modules)
        self.classes = tuple(classes)
        self.track_memory = track_memory
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: Span names of every wrapped function, set by ``install``.
        self.names: list[str] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        base = 0
        if self.track_memory:
            base, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                outer = self.spans[parent]
                outer[5] = max(outer[5], peak)
            tracemalloc.reset_peak()
        rec = [name, parent, 0.0, 0.0, False, base, base]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.process_time()
        return rec

    def _exit(self, rec: list, error: bool) -> None:
        rec[3] = time.process_time()
        rec[4] = error
        self._stack.pop()
        if self.track_memory:
            _, peak = tracemalloc.get_traced_memory()
            rec[5] = max(rec[5], peak)
            if rec[1] >= 0:
                outer = self.spans[rec[1]]
                outer[5] = max(outer[5], rec[5])
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around benchmark code."""
        rec = self._enter(name)
        try:
            yield
        except BaseException:
            self._exit(rec, True)
            raise
        self._exit(rec, False)

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(rec, True)
                raise
            leave(rec, False)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        names = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        self.names = sorted(names.values())
        package_modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls in self.classes:
            short = cls.__module__.rsplit(".", 1)[-1]
            orig = vars(cls)["__post_init__"]
            self.names.append(f"{short}.{cls.__name__}")
            self._patched.append((cls, "__post_init__", orig))
            setattr(cls, "__post_init__", self._wrap(self.names[-1], orig))

    def uninstall(self) -> bool:
        """Restore every original; True when each name holds it again."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        restored = all(vars(owner)[attr] is orig for owner, attr, orig in self._patched)
        self._patched.clear()
        return restored

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors, self and total seconds, peak MiB.

        Self time is a span's duration minus the durations of its direct
        children.  The peak is the largest rise of traced memory over the
        memory held when a span started (only with ``track_memory``).
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, start, end, error, peak, base) in enumerate(self.spans):
            s = out.setdefault(
                name, {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0, "peak_mib": 0.0}
            )
            s["calls"] += 1
            s["errors"] += int(error)
            s["self_s"] += end - start - child[i]
            s["total_s"] += end - start
            s["peak_mib"] = max(s["peak_mib"], (peak - base) / MIB)
        return out

    def write(self, path, meta: dict) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, parent, round((start - t0) * 1e6, 3), round((end - t0) * 1e6, 3), error]
            for name, parent, start, end, error, _, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "columns": ["name", "parent", "start_us", "end_us", "error"],
                       "spans": rows}, fh)
            fh.write("\n")

"""In-memory span tracer that wraps the public functions of a package.

Each public function of every module in the package (the module's
``__all__``, or its non-underscore functions when it has none) gets one
wrapper, and that wrapper replaces the original in every module namespace
that imported the function by name, and in module-level dicts that hold
it (such as a command table), so a call is traced whichever module makes
it.  Functions a module imported by name from scipy are wrapped per
importing module and named after it (``timestep.cho_solve``), because the
same scipy call belongs to a different layer in each caller.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``attrs`` holds what an optional
extractor read from the call's arguments and result.  All spans of one
tracer share its run id.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time

EXTERNAL_PREFIXES = ("scipy.",)


class Tracer:
    def __init__(self, run_id, extractors=None):
        self.run_id = run_id
        self.spans = []
        self.external = set()
        self._stack = []
        self._extractors = extractors or {}
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = self._extractors.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of every loaded module of ``package``."""
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        wrappers = {}
        for name, mod in modules.items():
            layer = name.rpartition(".")[2]
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                obj = vars(mod).get(attr)
                if inspect.isfunction(obj) and obj.__module__ == name:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in modules.items():
            layer = name.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patched.append((obj, key, value))
                            obj[key] = wrappers[value]
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    replacement = wrappers[obj]
                elif (
                    name != package
                    and inspect.isfunction(obj)
                    and obj.__module__.startswith(EXTERNAL_PREFIXES)
                ):
                    span_name = f"{layer}.{attr}"
                    self.external.add(span_name)
                    replacement = self.wrap(span_name, obj)
                else:
                    continue
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, replacement)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "index", "name", "start", "end", "parent", "attrs"])
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                out.writerow([self.run_id, i, name, repr(start), repr(end), parent, attrs or ""])


def summarize(spans):
    """Per span: (duration, self time); self time is the duration minus the
    durations of the direct children, which nest inside it."""
    durations = [end - start for _, start, end, _, _ in spans]
    self_times = list(durations)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_times[parent] -= durations[i]
    return durations, self_times

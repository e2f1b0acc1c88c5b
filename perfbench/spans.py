"""Span tracing for the study benchmark, applied from outside the package.

``Tracer`` records one span per call of a wrapped function: its name, start
and end, and its self time, which is the span's duration minus the
durations of the spans it directly encloses in the same thread. Span stacks
are thread-local, so a span opened in a worker thread never counts as a child
of a span in the thread that submitted the work; its duration shows up as
busy time of its own name instead.

``patched`` wraps the package's public functions for the duration of a
``with`` block. The package binds names with ``from .x import y``, so every
module attribute that refers to a wrapped function is replaced, not just the
one in the defining module, and the block fails if a binding a study reaches
is left pointing at the original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    self_ns: int

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


class _Open:
    __slots__ = ("name", "start_ns", "child_ns")

    def __init__(self, name, start_ns):
        self.name = name
        self.start_ns = start_ns
        self.child_ns = 0


class Tracer:
    """In-memory span recorder; safe to use from several threads at once."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        frame = _Open(name, self._clock())
        stack.append(frame)
        try:
            yield
        finally:
            end = self._clock()
            stack.pop()
            duration = end - frame.start_ns
            if stack:
                stack[-1].child_ns += duration
            record = Span(name, frame.start_ns, end, duration - frame.child_ns)
            with self._lock:
                self.spans.append(record)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped_original__ = fn
        return traced

    def totals(self):
        """name -> (calls, total duration ns, total self ns)."""
        out = {}
        with self._lock:
            spans = list(self.spans)
        for s in spans:
            calls, dur, own = out.get(s.name, (0, 0, 0))
            out[s.name] = (calls + 1, dur + s.duration_ns, own + s.self_ns)
        return out

    def durations(self, name):
        """Durations of every span of this name, in the order they closed."""
        with self._lock:
            return [s.duration_ns for s in self.spans if s.name == name]


# (span name, defining module, attribute, keyword to inject an OpCounter as)
FUNCTIONS = [
    ("grids.resize_bilinear", "grids", "resize_bilinear", None),
    ("grids.downsample_avg", "grids", "downsample_avg", None),
    ("grids.load_container", "grids", "load_container", None),
    ("grids.save_container", "grids", "save_container", None),
    ("patcher.unfold", "patcher", "unfold", None),
    ("patcher.fold", "patcher", "fold", None),
    ("matcher.plmm_forward", "matcher", "plmm_forward", "counter"),
    ("matcher.patch_affinity", "matcher", "patch_affinity", None),
    ("matcher.topk_select", "matcher", "topk_select", None),
    ("matcher.dense_readout", "matcher", "dense_readout", "counter"),
    ("pyramid.match_multiscale", "pyramid", "match_multiscale", None),
    ("pyramid.lift_topk", "pyramid", "lift_topk", None),
    ("featurizer.encode_key", "featurizer", "encode_key", None),
    ("featurizer.encode_value", "featurizer", "encode_value", None),
    ("featurizer.decode", "featurizer", "decode", None),
    ("propagator.run_4d", "propagator", "run_4d", None),
    ("evalkit.report_by_region", "evalkit", "report_by_region", None),
    ("evalkit.hd95", "evalkit", "hd95", None),
    ("evalkit.dice", "evalkit", "dice", None),
    ("cli.propagate", "cli", "cmd_propagate", None),
    ("cli.eval", "cli", "cmd_eval", None),
]

# (span name, module, class, method); class attributes have a single binding.
METHODS = [
    ("grids.FeatureGrid", "grids", "FeatureGrid", "__init__"),
    ("propagator.build_bank", "propagator", "PropagationEngine", "build_bank"),
    ("propagator.segment_frame", "propagator", "PropagationEngine", "segment_frame"),
    ("propagator.collect_result", "propagator", "PropagationEngine", "collect_result"),
]

MODULES = ["grids", "patcher", "matcher", "pyramid", "featurizer",
           "propagator", "evalkit", "verification", "cli"]

# Bindings made with ``from .x import y`` that a study reaches; each must be
# wrapped or its calls would silently read zero.
REQUIRED_SITES = [
    "propagator.decode", "propagator.encode_key", "propagator.encode_value",
    "propagator.resize_bilinear", "propagator.plmm_forward",
    "propagator.dense_readout", "propagator.match_multiscale",
    "featurizer.resize_bilinear", "featurizer.downsample_avg",
    "pyramid.plmm_forward", "pyramid.lift_topk", "matcher.unfold", "matcher.fold",
    "cli.run_4d", "cli.load_container", "cli.save_container",
    "cli.report_by_region",
]


def _with_counter(fn, keyword, counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if kwargs.get(keyword) is None:
            kwargs[keyword] = counter
        return fn(*args, **kwargs)
    return counted


@contextlib.contextmanager
def patched(tracer, counter=None):
    """Wrap every binding of the traced functions while the block runs.

    When ``counter`` is given, calls of the matchers that pass no counter of
    their own receive it through their public ``counter=`` argument.
    """
    modules = {m: importlib.import_module(f"patchmem.{m}") for m in MODULES}
    undo = []
    try:
        originals = {}
        for name, home, attr, keyword in FUNCTIONS:
            fn = getattr(modules[home], attr)
            inner = fn if keyword is None or counter is None \
                else _with_counter(fn, keyword, counter)
            originals[id(fn)] = (fn, tracer.wrap(name, inner))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for name, home, cls_name, attr in METHODS:
            cls = getattr(modules[home], cls_name)
            fn = cls.__dict__[attr]
            undo.append((cls, attr, fn))
            setattr(cls, attr, tracer.wrap(name, fn))

        for site in REQUIRED_SITES:
            home, attr = site.split(".")
            if not hasattr(getattr(modules[home], attr), "__wrapped_original__"):
                raise RuntimeError(f"binding {site} is not wrapped")
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

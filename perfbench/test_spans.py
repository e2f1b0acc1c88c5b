"""Self-time accounting of the benchmark's tracer and its patching of patchmem.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import spans


class ThreadClock:
    """A clock per thread that moves only when the test advances it."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0)

    def advance(self, ns):
        self._local.now = self() + ns


def test_nested_self_time_subtracts_direct_children_only():
    clock = ThreadClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(5)

    def middle():
        clock.advance(10)
        traced_leaf()
        traced_leaf()
        clock.advance(1)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)

    def outer():
        clock.advance(100)
        traced_middle()
        traced_leaf()

    tracer.wrap("outer", outer)()
    totals = tracer.totals()
    assert totals["leaf"] == (3, 15, 15)
    assert totals["middle"] == (1, 21, 11)
    assert totals["outer"] == (1, 126, 100)


def test_worker_thread_spans_are_busy_time_not_children():
    clock = ThreadClock()
    tracer = spans.Tracer(clock=clock)

    def task(ns):
        clock.advance(ns)
        return ns

    traced_task = tracer.wrap("task", task)

    def parent():
        clock.advance(7)
        with ThreadPoolExecutor(max_workers=2) as pool:
            done = list(pool.map(traced_task, [10, 20, 30, 40]))
        clock.advance(3)
        return done

    assert tracer.wrap("parent", parent)() == [10, 20, 30, 40]
    totals = tracer.totals()
    # worker durations are summed as busy time and never subtracted from the
    # parent, whose own thread did not enter them
    assert totals["task"] == (4, 100, 100)
    assert totals["parent"] == (1, 10, 10)


def test_exception_closes_span_and_propagates():
    clock = ThreadClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.advance(4)
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    try:
        tracer.wrap("outer", lambda: traced())()
    except ValueError:
        pass
    assert tracer.totals() == {"boom": (1, 4, 4), "outer": (1, 4, 0)}


def test_patched_wraps_every_binding_and_restores_them():
    from patchmem import cli, featurizer, grids, matcher, propagator, pyramid
    from patchmem.matcher import OpCounter

    before = {site: getattr(sys.modules[f"patchmem.{site.split('.')[0]}"],
                            site.split(".")[1])
              for site in spans.REQUIRED_SITES}
    init = grids.FeatureGrid.__init__
    tracer, counter = spans.Tracer(), OpCounter()
    with spans.patched(tracer, counter):
        assert propagator.resize_bilinear is featurizer.resize_bilinear
        assert propagator.resize_bilinear is grids.resize_bilinear
        assert pyramid.plmm_forward is matcher.plmm_forward
        assert cli.run_4d is propagator.run_4d
        assert hasattr(propagator.decode, "__wrapped_original__")
        assert grids.FeatureGrid.__init__ is not init
        grids.FeatureGrid(np.zeros((1, 2, 2)))
    for site, fn in before.items():
        home, attr = site.split(".")
        assert getattr(sys.modules[f"patchmem.{home}"], attr) is fn
    assert grids.FeatureGrid.__init__ is init
    assert tracer.totals()["grids.FeatureGrid"][0] == 1

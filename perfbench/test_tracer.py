"""Tests for the benchmark's span tracer.

Run from the repository root: ``python3 -m pytest perfbench/test_tracer.py``.
"""
from __future__ import annotations

import importlib
import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from tracer import Tracer, percentile, tail_percentile  # noqa: E402


class FakeClock:
    """A clock that only moves when the code under test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_module(clock):
    module = types.ModuleType("synthetic")

    def inner():
        clock.advance(4.0)

    def outer():
        clock.advance(1.0)
        module.inner()
        clock.advance(2.0)

    module.inner = inner
    module.outer = outer
    return module


def test_self_time_excludes_nested_child_spans():
    clock = FakeClock()
    module = make_module(clock)
    with Tracer(clock=clock) as tracer:
        tracer.patch(module, "inner", "m.inner")
        tracer.patch(module, "outer", "m.outer")
        module.outer()
        module.outer()
    totals = tracer.totals()
    assert totals["m.outer"].calls == 2
    assert totals["m.outer"].total_s == 14.0
    assert totals["m.outer"].self_s == 6.0
    assert totals["m.inner"].total_s == totals["m.inner"].self_s == 8.0


def test_spans_record_their_parent():
    clock = FakeClock()
    module = make_module(clock)
    with Tracer(clock=clock, keep_spans=10) as tracer:
        tracer.patch(module, "inner", "m.inner")
        tracer.patch(module, "outer", "m.outer")
        module.outer()
    outer, inner = tracer.spans()
    assert (outer.name, outer.parent_id, outer.start, outer.end) == ("m.outer", None, 0.0, 7.0)
    assert (inner.name, inner.parent_id, inner.start, inner.end) == ("m.inner", outer.span_id,
                                                                      1.0, 5.0)


def test_a_call_from_a_second_thread_gets_its_own_stack():
    clock = FakeClock()
    module = types.ModuleType("threaded")

    def work():
        clock.advance(4.0)

    def outer():
        clock.advance(1.0)
        worker = threading.Thread(target=module.work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.advance(2.0)

    module.work = work
    module.outer = outer
    with Tracer(clock=clock, keep_spans=10) as tracer:
        tracer.patch(module, "work", "m.work")
        tracer.patch(module, "outer", "m.outer")
        module.outer()
    totals = tracer.totals()
    # The other thread's span is not a child, so it takes no self time away.
    assert totals["m.outer"].total_s == totals["m.outer"].self_s == 7.0
    assert totals["m.work"].self_s == 4.0
    outer, work = tracer.spans()
    assert work.parent_id is None
    assert work.thread_id != outer.thread_id


def test_restore_puts_back_every_patched_attribute():
    class Thing:
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return cls

        @staticmethod
        def helper():
            return "helper"

    home = types.ModuleType("home")
    user = types.ModuleType("user")

    def function():
        return "function"

    home.function = user.alias = function
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr in [(home, "function"), (user, "alias"), (Thing, "method"),
                                     (Thing, "build"), (Thing, "helper")]}
    tracer = Tracer()
    for (owner, attr) in originals:
        tracer.patch(owner, attr, f"x.{attr}")
    assert home.function is user.alias is not function  # aliases share one wrapper
    assert isinstance(vars(Thing)["build"], classmethod)
    assert isinstance(vars(Thing)["helper"], staticmethod)
    assert Thing().method() == "method" and Thing.build() is Thing
    assert Thing.helper() == "helper" and user.alias() == "function"
    tracer.restore()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    assert tracer.totals()["x.function"].calls == 1


def test_installing_the_layer_plan_and_restoring_leaves_statefuzz_unchanged():
    modules = [importlib.import_module(f"statefuzz.{name}") for name in layers.LAYERS]

    def snapshot():
        state = {}
        for module in modules:
            for attr, value in vars(module).items():
                state[(module.__name__, attr)] = value
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for name, raw in vars(value).items():
                        state[(module.__name__, attr, name)] = raw
        return state

    before = snapshot()
    tracer = Tracer()
    layers.install(tracer)
    patched = snapshot()
    assert patched["statefuzz.proxy", "encode"] is not before["statefuzz.proxy", "encode"]
    assert patched["statefuzz.cli", "wmethod_counterexample"] is \
        patched["statefuzz.learner", "wmethod_counterexample"]
    tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("count, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)

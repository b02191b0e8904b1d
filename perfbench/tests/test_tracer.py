"""Span bookkeeping, wrapping and restoring, metric-name validation."""

import sys
import types

import pytest

from sinanbench.tracer import SpanTarget, Tracer, validate_metric_name


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    tracer = Tracer(targets=(), clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.root("bench.unit"):
        a = tracer.enter("a")
        b = tracer.enter("b")
        tracer.exit(b)
        tracer.exit(a)
        c = tracer.enter("c")
        tracer.exit(c)
    table = tracer.layer_table()
    assert table == {"bench.unit": (1, 6.0), "a": (1, 2.0), "b": (1, 1.0), "c": (1, 1.0)}
    assert sum(self_s for _, self_s in table.values()) == tracer.wall_s() == 10.0
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_spans_carry_unit_and_interval():
    tracer = Tracer(targets=(), interval_span="step",
                    clock=FakeClock(range(100)))
    for _ in range(2):
        with tracer.root("bench.unit"):
            for _ in range(3):
                tracer.exit(tracer.enter("step"))
    steps = [(s.unit, s.interval) for s in tracer.spans if s.name == "step"]
    assert steps == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


@pytest.fixture
def fake_layers():
    module = types.ModuleType("fake_layers")

    class Base:
        def inherited(self, x):
            return x + 1

    class Engine(Base):
        def run(self, x):
            # Looked up at call time, as a caller in another module would.
            return sys.modules["fake_layers"].helper(x) * 2

    def helper(x):
        return [x] * 3

    module.Base, module.Engine, module.helper = Base, Engine, helper
    sys.modules["fake_layers"] = module
    yield module
    del sys.modules["fake_layers"]


def test_wrap_at_the_looked_up_name_and_restore(fake_layers):
    targets = (
        SpanTarget("engine.run", ("fake_layers:Engine.run",)),
        SpanTarget("helper", ("fake_layers:helper",), count=len),
        SpanTarget("inherited", ("fake_layers:Engine.inherited",)),
        SpanTarget("gone", ("fake_layers:Engine.renamed", "no_such_module:f")),
    )
    original_run = fake_layers.Engine.run
    tracer = Tracer(targets=targets)
    tracer.install()
    assert tracer.missing == ["gone"]
    engine = fake_layers.Engine()
    assert engine.run(1) == [1, 1, 1, 1, 1, 1]
    assert engine.inherited(1) == 2
    tracer.uninstall()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("engine.run", -1), ("helper", 0), ("inherited", -1)]
    assert tracer.items == {"helper": 3.0}
    assert fake_layers.Engine.run is original_run
    assert "inherited" not in vars(fake_layers.Engine)
    engine.run(2)
    assert len(tracer.spans) == 3


@pytest.mark.parametrize("name", ["wall_s", "sim.engine.run_interval.calls",
                                  "core.scheduler.decide_ms_p99", "a-b_c.9", "0x"])
def test_valid_metric_names(name):
    assert validate_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "wall s", "wall/s", ".calls", "_x", "x" * 65,
                                  "latency(ms)", "naïve", None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)

import sys

import pytest

import pillarkit
import pillarkit.graph as graph_mod
from pillarkit.generators import cycle_graph, path_graph
from tracing import Tracer, read_spans


def _pillarkit_bindings():
    mods = {k: m for k, m in sys.modules.items()
            if k == "pillarkit" or k.startswith("pillarkit.")}
    out = {(k, attr): obj for k, m in mods.items() for attr, obj in vars(m).items()}
    out[("Graph", "__init__")] = vars(pillarkit.Graph)["__init__"]
    out[("RunConfig", "resolve")] = vars(pillarkit.RunConfig)["resolve"]
    return out


def test_wrapped_function_returns_the_same_value():
    g = cycle_graph(12)
    original = graph_mod.ball
    expected = original(g, [0], 3)
    with Tracer() as tracer:
        assert graph_mod.ball is not original
        got = graph_mod.ball(g, [0], 3)
    assert got == expected
    rows, _ = tracer.analyse()
    assert rows["graph.ball"]["calls"] == 1
    assert rows["graph.ball"]["returns"] == 1


def test_exception_is_reraised_with_its_span_closed():
    tracer = Tracer()

    def boom(x):
        raise KeyError(x)

    wrapped = tracer.wrap(boom)
    with pytest.raises(KeyError) as info:
        wrapped(7)
    assert info.value.args == (7,)
    assert len(tracer) == 1
    assert tracer.ok[0] == 0
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._stack == []
    wrapped_ok = tracer.wrap(len)
    wrapped_ok("abc")
    assert tracer.parent[1] == -1  # the failed span no longer encloses anything


def test_everything_is_unbound_on_exit():
    before = _pillarkit_bindings()
    with Tracer():
        during = _pillarkit_bindings()
        assert graph_mod.induced_subgraph is not before[("pillarkit.graph", "induced_subgraph")]
        # a from-import elsewhere is rebound to the same wrapper
        assert sys.modules["pillarkit.kraken"].induced_subgraph is graph_mod.induced_subgraph
    after = _pillarkit_bindings()
    assert during.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exception_inside_with_still_unbinds():
    before = _pillarkit_bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("stop")
    after = _pillarkit_bindings()
    assert all(after[k] is before[k] for k in before)


def test_internal_calls_nest_and_self_times_add_up():
    g = pillarkit.Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    tracer = Tracer()
    with tracer:
        tracer.current_tag = 0
        h = graph_mod.largest_component(g)
    assert h.n == 4
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "graph.largest_component"
    assert "graph.induced_subgraph" in names and "graph.Graph" in names
    assert tracer.parent[names.index("graph.induced_subgraph")] == 0
    rows, covered = tracer.analyse()
    assert rows["graph.Graph"]["amount"] == 4  # vertices of the one graph built
    own = sum(row["self_s"] for row in rows.values())
    assert own == pytest.approx(covered[0], rel=1e-9, abs=1e-12)
    assert covered[0] == pytest.approx(tracer.end[0] - tracer.start[0])


def test_reentrant_spans_count_once_in_inclusive_time():
    tracer = Tracer()

    def rec(k):
        return 0 if k == 0 else 1 + wrapped(k - 1)

    wrapped = tracer.wrap(rec)
    assert wrapped(3) == 3
    rows, _ = tracer.analyse()
    row = next(iter(rows.values()))
    assert row["calls"] == 4
    assert row["s"] == pytest.approx(tracer.end[0] - tracer.start[0])


def test_spans_round_trip_through_a_file(tmp_path):
    tracer = Tracer()
    with tracer:
        path_graph(5)
    tracer.write(tmp_path / "t.spans")
    names, arrays, amounts = read_spans(tmp_path / "t.spans")
    assert names == tracer.names
    assert amounts == tracer.amount
    for field, arr in arrays.items():
        assert list(arr) == list(getattr(tracer, field))

import threading

import pytest

from measure import layer_table
from spans import STEP, Patcher, Span, Tracer, covered_time, self_times


def span(i, name, start, end, parent=-1, step=-1):
    return Span(i, name, start, end, parent, step, thread=0)


def test_self_time_subtracts_nested_children():
    # step 0..10 holds encode 1..4 and encode_backward 5..9; encode_backward
    # holds a child 6..7.  Self times: step 10-3-4, encode_backward 4-1.
    spans = [
        span(0, STEP, 0.0, 10.0, step=0),
        span(1, "encode", 1.0, 4.0, parent=0, step=0),
        span(2, "encode_backward", 5.0, 9.0, parent=0, step=0),
        span(3, "inner", 6.0, 7.0, parent=2, step=0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_are_clipped():
    parent = span(0, "main", 0.0, 10.0)
    kids = [span(1, "a", 2.0, 6.0, 0), span(2, "b", 4.0, 8.0, 0), span(3, "c", 9.0, 12.0, 0)]
    # Union of [2, 8] and [9, 10] after clipping to the parent.
    assert covered_time(parent, kids) == pytest.approx(7.0)


def test_layer_table_counts_steps_and_self_time():
    spans = [
        span(0, STEP, 0.0, 2.0, step=0),
        span(1, "sample", 0.5, 1.0, parent=0, step=0),
        span(2, STEP, 2.0, 5.0, step=1),
        span(3, "sample", 2.0, 4.0, parent=2, step=1),
    ]
    table, steps, step_wall = layer_table(spans)
    assert steps == 2
    assert step_wall == pytest.approx(5.0)
    assert table["sample"]["calls"] == 2
    assert table["sample"]["self_s"] == pytest.approx(2.5)
    assert table[STEP]["self_s"] == pytest.approx(2.5)


def test_tracer_nests_steps_and_closes_them_with_the_enclosing_span():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    with tracer.span("main"):
        for _ in range(3):
            tracer.step_boundary()
            work()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (main,) = by_name["main"]
    assert len(by_name[STEP]) == 3
    assert all(s.parent == main.id for s in by_name[STEP])
    step_ids = {s.id: s.step for s in by_name[STEP]}
    assert sorted(step_ids.values()) == [0, 1, 2]
    assert all(step_ids[w.parent] == w.step for w in by_name["work"])


def test_spans_on_other_threads_hang_under_the_open_root():
    tracer = Tracer()
    with tracer.span("main"):
        t = threading.Thread(target=tracer.wrap("worker", lambda: None))
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    main = next(s for s in tracer.spans if s.name == "main")
    worker = next(s for s in tracer.spans if s.name == "worker")
    assert worker.parent == main.id and worker.thread != main.thread


def test_patcher_restores_attributes_and_dict_entries():
    class Module:
        fn = staticmethod(lambda: 1)

    table = {"k": 1}
    patcher = Patcher()
    patcher.patch(Module, "fn", lambda f: lambda: f() + 1)
    patcher.patch(table, "k", lambda v: v + 1)
    assert Module.fn() == 2 and table["k"] == 2
    patcher.restore()
    assert Module.fn() == 1 and table["k"] == 1

import threading
import types

import pytest
from spans import Span, Target, Tracer, self_times, summarize

import run


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, None, 0)


def test_self_time_on_hand_built_tree():
    tree = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "a.child", 2.0, 3.0, parent=1),
        span(3, "b", 5.0, 6.5, parent=0),
        span(4, "late", 9.0, 12.0, parent=0),  # runs past its parent's end
        span(5, "other-root", 20.0, 21.0),
    ]
    own = self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5 - 1.0)  # grandchild not subtracted twice
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)

    table = summarize(tree)
    assert table["root"] == {"calls": 1, "total_s": pytest.approx(10.0), "self_s": pytest.approx(4.5)}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0 + 2.0 + 1.0)


def test_overlapping_children_are_counted_once():
    tree = [span(0, "p", 0.0, 10.0), span(1, "c", 1.0, 5.0, 0), span(2, "c", 3.0, 7.0, 0)]
    assert self_times(tree)[0] == pytest.approx(4.0)


box = types.ModuleType("box")
box.leaf = lambda x: x + 1
box.outer = lambda x: box.leaf(x) * 2


def test_spans_nest_per_thread_and_carry_the_example():
    tracer = Tracer()
    targets = [
        Target(box, "outer", "outer", example_of=lambda args: types.SimpleNamespace(id=f"ex{args[0]}")),
        Target(box, "leaf", "leaf"),
    ]
    with tracer.instrument(targets):
        tracer.phase = "p"
        workers = [threading.Thread(target=lambda i=i: [box.outer(i) for _ in range(200)]) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == 4 * 200 * 2
    for s in tracer.spans:
        if s.name == "leaf":
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread and parent.example == s.example
        else:
            assert s.parent is None and s.example.startswith("ex")
    assert tracer.counters["p/outer.calls"] == 800
    assert tracer.counters["p/leaf.calls"] == 800


def _originals(targets):
    return [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]


def test_traced_run_restores_every_rebound_function():
    sq = run.import_program()
    targets = run.trace_targets(sq)
    before = _originals(targets)
    assert len({(id(o), a) for o, a, _ in before}) == len(targets)

    tracer = Tracer()
    with tracer.instrument(targets):
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
    assert _originals(targets) == before

    with pytest.raises(RuntimeError):
        with tracer.instrument(targets):
            raise RuntimeError("boom")
    assert _originals(targets) == before


def test_calls_after_the_traced_block_record_nothing():
    sq = run.import_program()
    tracer = Tracer()
    with tracer.instrument(run.trace_targets(sq)):
        paragraph = sq.corpus.make_paragraph("p", "x y z")
        assert sq.pipeline.label_spans(paragraph, ["y"]) == [sq.corpus.SpanLabel(1, 1)]
    assert [s.name for s in tracer.spans] == ["corpus.label_spans"]
    sq.pipeline.label_spans(paragraph, ["y"])
    sq.pipeline.paragraph_label_table([sq.corpus.QAExample("q", ["y"], ["y"], [paragraph])])
    assert len(tracer.spans) == 1


def test_a_missing_attribute_leaves_nothing_patched():
    original = box.leaf
    with pytest.raises(KeyError):
        with Tracer().instrument([Target(box, "leaf", "leaf"), Target(box, "absent", "absent")]):
            pass
    assert box.leaf is original

"""The benchmark's tracer (perfbench/run.py) rebinds program functions by
name and raises on a missing one, so `--trace 1` breaks silently when a
traced name moves.  These tests pin what it looks up."""

import importlib.util
import inspect
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_bench(monkeypatch):
    # run.py puts its own directory on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_every_trace_target_resolves(monkeypatch):
    bench = load_bench(monkeypatch)
    sq = bench.import_program()
    targets = bench.trace_targets(sq)
    missing = [f"{t.name} ({t.owner.__name__}.{t.attr})" for t in targets if t.attr not in vars(t.owner)]
    assert targets and not missing
    # the beam counter reads k1 and k2 as positional arguments 3 and 4
    assert list(inspect.signature(sq.pipeline.beam_candidates).parameters)[3:5] == ["k1", "k2"]

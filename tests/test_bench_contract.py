"""The benchmark (perfbench/run.py) lives outside tier-1 and changes only
in its own changes, so these tests pin what it needs of the program.  Its
tracer rebinds program functions by name and raises on a missing one, so
`--trace 1` breaks silently when a traced name moves; and a tiny run goes
through every program call the benchmark makes, with its checks."""

import importlib.util
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("threads", [None, 1, 2, 3], ids=["serial", "threaded", "chunked", "chunked_uneven"])
def test_tiny_benchmark_run_passes_its_checks(monkeypatch, tmp_path, threads):
    """Every program call the benchmark makes, on a small `long` shape, with
    its checks (probabilities, argmax, repeat and reload reproduce, traced
    replay reproduces) and the per-layer trace.  The threaded cases predict
    through `predict_dataset`, as the `full` workload does, with `threads`
    examples per call: one with the desk config's one thread, and two or
    three, as `full` has on two or three cores, with a copy of it that asks
    for that many, so each call encodes a chunk of several examples.  Three
    does not divide the reload check's four examples, so that check sees
    the fourth example predicted alone on one side and in a chunk of three
    on the other.  The trace counts examples and paragraphs only where
    `predict_dataset` calls `pipeline.predict` by its module name."""
    bench = load_bench(monkeypatch)
    sq = bench.import_program()
    tiny = replace(
        bench.WORKLOADS["long"],
        paragraph_lengths=(20, 25, 30),
        train_examples=20,
        eval_examples=6,
        threaded=threads is not None,
    )
    if threads not in (None, 1):
        flat = json.loads((RUN.parents[1] / "configs" / tiny.config).read_text())
        config = tmp_path / "threads.json"
        config.write_text(json.dumps({**flat, "threads": threads}))
        tiny = replace(tiny, config=str(config))  # an absolute path replaces the configs/ directory
        monkeypatch.setattr(bench.os, "cpu_count", lambda: threads)  # the run caps threads at the core count
    result, report = bench.run(sq, tiny, seed=5, seconds=0.0, trace=1, workdir=tmp_path / "run")
    assert report["latency"]["examples_per_call"] == (threads or 1)
    assert result["correct"] and result["failed"] == 0
    assert set(report["end_to_end"]) == set(bench.END_TO_END)
    # the tracer still sees the recurrent kernel's calls and time steps
    assert result["metrics"]["diffmath.gru_sequence.calls"]["value"] > 0
    assert result["metrics"]["diffmath.gru_steps"]["value"] > 0
    assert result["metrics"]["pipeline.predict_dataset.parallel_efficiency"]["value"] > 0

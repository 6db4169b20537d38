import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from workloads import WORKLOADS

import run

ROOT = Path(__file__).resolve().parents[2]


def prediction(scores, probs=(0.25, 0.75), best=None):
    from spanqa.pipeline import Prediction

    best = best if best is not None else max(scores, key=scores.get)
    return Prediction("q", best, dict(scores), list(probs), [[], []])


def test_check_prediction_accepts_a_well_formed_prediction():
    run.check_prediction(prediction({"b": 0.5, "a": 0.5}, best="a"))


@pytest.mark.parametrize(
    "bad",
    [
        prediction({"a": 0.4}, probs=(0.5, 0.5 + 1e-9)),
        prediction({"a": 1.5}),
        prediction({"a": -0.1}),
        prediction({"a": math.nan}),
        prediction({"a": 0.2, "b": 0.7}, best="a"),
        prediction({"b": 0.5, "a": 0.5}, best="b"),  # ties go to the smaller string
    ],
)
def test_check_prediction_rejects(bad):
    with pytest.raises(run.CheckFailed):
        run.check_prediction(bad)


def test_tail_is_p95_or_the_highest_with_ten_samples_above():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
    assert run.tail([float(i) for i in range(1000)]) == (949.0, 95.0)
    assert run.tail([1.0, 2.0]) == (1.0, 50.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in run.PER_LAYER.items()}


def test_tiny_traced_run_end_to_end(tmp_path):
    sq = run.import_program()
    tiny = replace(WORKLOADS["long"], paragraph_lengths=(20, 25, 30), train_examples=20, eval_examples=6)
    result, report = run.run(sq, tiny, seed=5, seconds=0.0, trace=1, workdir=tmp_path / "run")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert set(report["end_to_end"]) == set(run.END_TO_END)
    assert set(report["ungated"]) == {"predict_p50_ms", "predict_tail_ms", "answer_em", "answer_f1", "error_rate"}
    assert len(report["setup_s_samples"]) == run.SETUP_REPEATS
    assert result["metrics"]["encoder.question_encodes_per_example"]["value"] == 3.0
    assert result["metrics"]["diffmath.adadelta_step.calls"]["value"] == 2
    assert (tmp_path / "trace-long-5.jsonl").is_file()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""

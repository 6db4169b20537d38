"""A fresh run of `parity_scenario` against its committed output
`tests/data/parity.json`: strings and argmaxes equal, floats within 1e-12
relative.  Hashes are not compared, since another BLAS build may differ in
the last bit.  A change that moves results on purpose regenerates the file
(`PYTHONPATH=src python tests/parity_scenario.py tests/data/parity.json`)."""

import json
from pathlib import Path

import numpy as np

import parity_scenario

FIXTURE = Path(__file__).parent / "data" / "parity.json"
REL = 1e-12
FLOAT_STRINGS = {"epoch_losses", "resume_losses"}  # lists of float reprs


def close(expected: float, actual: float) -> bool:
    return abs(actual - expected) <= REL * max(abs(expected), abs(actual))


def mismatches(expected, actual, path="", key=None):
    """The paths where `actual` differs from `expected`."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys differ"]
        return [
            bad
            for k in sorted(expected)
            if not k.endswith("sha256")
            for bad in mismatches(expected[k], actual[k], f"{path}/{k}", k)
        ]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: lengths differ"]
        return [bad for i, (e, a) in enumerate(zip(expected, actual)) for bad in mismatches(e, a, f"{path}/{i}", key)]
    if isinstance(expected, str) and key in FLOAT_STRINGS:
        return [] if close(float(expected), float(actual)) else [f"{path}: {actual} != {expected}"]
    if isinstance(expected, float):
        return [] if isinstance(actual, float) and close(expected, actual) else [f"{path}: {actual!r} != {expected!r}"]
    return [] if type(actual) is type(expected) and actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def test_scenario_matches_committed_output():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = json.loads(parity_scenario.render(parity_scenario.run()))
    assert mismatches(expected, actual) == []
    for exp_run, act_run in zip(expected["runs"], actual["runs"]):
        for exp, act in zip(exp_run["predictions"], act_run["predictions"]):
            assert np.argmax(act["paragraph_probs"]) == np.argmax(exp["paragraph_probs"])


def test_comparison_catches_a_moved_float():
    expected = {"runs": [{"epoch_losses": ["1.0"], "scores": {"a": 0.5}, "answer": "a", "x_sha256": "0"}]}
    assert mismatches(expected, json.loads(json.dumps(expected))) == []
    assert mismatches(expected, {**expected, "runs": [{**expected["runs"][0], "x_sha256": "1"}]}) == []
    moved = {"runs": [{**expected["runs"][0], "epoch_losses": ["1.000000000001"]}]}
    assert mismatches(expected, moved) == ["/runs/0/epoch_losses/0: 1.000000000001 != 1.0"]
    renamed = {"runs": [{**expected["runs"][0], "answer": "b"}]}
    assert mismatches(expected, renamed) == ["/runs/0/answer: 'b' != 'a'"]


def test_parity_cmp_names_each_exact_difference():
    from parity_cmp import differences

    def paths(a, b):
        return [path for path, _, _ in differences(a, b)]

    base = {"runs": [{"epoch_losses": ["1.0"], "scores": {"a": 0.5}, "x_sha256": "0"}]}
    assert paths(base, json.loads(json.dumps(base))) == []
    moved = {"runs": [{"epoch_losses": ["1.0"], "scores": {"a": 0.5000000000000001, "b": 0.1}, "x_sha256": "1"}]}
    assert list(differences(base, moved)) == [
        ("/runs/0/scores/a", 0.5, 0.5000000000000001),
        ("/runs/0/scores/b", None, 0.1),
        ("/runs/0/x_sha256", "0", "1"),
    ]
    assert paths(base, {"runs": []}) == ["/runs"]
    assert paths(1, 1.0) == ["/"]


def test_parity_cmp_reports_the_largest_relative_difference():
    from parity_cmp import summary

    base = {"runs": [{"epoch_losses": ["2.0", "4.0"], "scores": {"a": 0.5}, "x_sha256": "1e5", "skipped": [0]}]}
    # a float moved by one ulp, a loss string moved by 1e-12 relative, and
    # a hash that float() parses but that is no float's repr
    moved = {"runs": [{"epoch_losses": ["2.0", "4.000000000004"], "scores": {"a": 0.5000000000000001},
                       "x_sha256": "2e5", "skipped": [0]}]}
    assert summary(base, moved) == (
        "differ at /runs/0/epoch_losses/1 (3 differing leaves; largest relative difference 1e-12 over the 2 numeric ones)"
    )
    counted = {"runs": [{**base["runs"][0], "skipped": [2]}]}
    assert summary(base, counted) == (
        "differ at /runs/0/skipped/0 (1 differing leaves; largest relative difference 1 over the 1 numeric ones)"
    )
    renamed = {"runs": [{**base["runs"][0], "x_sha256": "ab"}]}
    assert summary(base, renamed) == "differ at /runs/0/x_sha256 (1 differing leaves)"
    assert summary(base, json.loads(json.dumps(base))) == "differ at (same JSON, different bytes)"

import json
import statistics

import pytest
from workloads import WORKLOADS, generate


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    workload = WORKLOADS[name]
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7)[0] != generate(workload, 8)[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_load_and_every_question_is_answerable(name, tmp_path):
    from spanqa.corpus import label_spans, load_dataset

    workload = WORKLOADS[name]
    train_bytes, heldout_bytes = generate(workload, 3)
    (tmp_path / "train.jsonl").write_bytes(train_bytes)
    (tmp_path / "heldout.jsonl").write_bytes(heldout_bytes)
    train = load_dataset(tmp_path / "train.jsonl")
    heldout = load_dataset(tmp_path / "heldout.jsonl")
    assert len(train) == workload.train_examples and len(heldout) == workload.eval_examples
    assert not {e.id for e in train} & {e.id for e in heldout}
    for example in train + heldout:
        lengths = sorted(len(p.tokens) for p in example.paragraphs)
        assert lengths == sorted(workload.paragraph_lengths)
        positives = [p for p in example.paragraphs if label_spans(p, example.answers)]
        assert 0 < len(positives) < len(example.paragraphs)


def test_long_paragraph_lengths_vary_around_100():
    lengths = WORKLOADS["long"].paragraph_lengths
    assert len(lengths) == 10 and statistics.mean(lengths) == 100 and len(set(lengths)) == 10


def test_records_are_canonical_json_lines():
    train_bytes, _ = generate(WORKLOADS["desk"], 1)
    for line in train_bytes.decode("utf-8").splitlines():
        assert json.dumps(json.loads(line), sort_keys=True) == line

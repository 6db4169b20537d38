"""Tokenization, weak span labeling, stats, synthetic data, JSONL round-trips."""

import json
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_tokenize
from spanqa.corpus import (
    QAExample,
    SpanLabel,
    SynthConfig,
    corpus_stats,
    generate_synthetic,
    label_spans,
    load_dataset,
    make_paragraph,
    normalize_token,
    save_dataset,
    tokenize,
)


def example_with(answer_texts, paragraph_texts, ex_id="x"):
    return QAExample(
        id=ex_id,
        question=["q"],
        answers=answer_texts,
        paragraphs=[make_paragraph(f"{ex_id}-p{i}", t) for i, t in enumerate(paragraph_texts)],
        question_text="q",
    )


# ---------------------------------------------------------------- tokenize


def test_tokenize_splits_trailing_punctuation():
    tokens, _ = tokenize("Camels store fat.")
    assert tokens == ["camels", "store", "fat", "."]


def test_tokenize_empty():
    assert tokenize("") == ([], [])


def test_tokenize_comma():
    tokens, _ = tokenize("fat,")
    assert tokens == ["fat", ","]


def test_tokenize_leading_and_nested_punctuation():
    tokens, _ = tokenize('("Fat!") stays')
    assert tokens == ["(", '"', "fat", "!", '"', ")", "stays"]


def test_tokenize_keeps_interior_punctuation():
    tokens, _ = tokenize("don't stop-gap")
    assert tokens == ["don't", "stop-gap"]


def test_tokenize_offsets_recover_source_substrings():
    text = "  The camel's hump, (mostly) FAT. "
    tokens, offsets = tokenize(text)
    for tok, (a, b) in zip(tokens, offsets):
        assert text[a:b].lower() == tok


# every whitespace character, all of string.punctuation, letters whose
# lowercase is longer (İ), final sigma, sharp s, digits and ASCII letters
TOKENIZER_ALPHABET = (
    "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    + string.punctuation
    + "İΣσςßẞ0123456789aZ"
)


@given(st.one_of(st.text(max_size=60), st.text(alphabet=TOKENIZER_ALPHABET, max_size=60)))
@settings(max_examples=200, deadline=None)
def test_tokenize_offsets_property(text):
    tokens, offsets = tokenize(text)
    assert (tokens, offsets) == loop_tokenize(text)
    assert len(tokens) == len(offsets)
    prev_end = 0
    for tok, (a, b) in zip(tokens, offsets):
        assert 0 <= a < b <= len(text)
        assert a >= prev_end or (a, b) != (prev_end, prev_end)  # monotone starts
        assert text[a:b].lower() == tok
        prev_end = b


# -------------------------------------------------------------- label_spans


def test_label_spans_all_occurrences():
    p = make_paragraph("p", "camels store fat, fat helps")
    assert label_spans(p, ["fat"]) == [SpanLabel(2, 2), SpanLabel(4, 4)]


def test_label_spans_absent_answer():
    p = make_paragraph("p", "camels store water")
    assert label_spans(p, ["fat"]) == []


def test_label_spans_overlapping_answers():
    p = make_paragraph("p", "new york city")
    assert label_spans(p, ["new york", "york"]) == [SpanLabel(0, 1), SpanLabel(1, 1)]


def test_label_spans_normalizes_case_and_punctuation():
    p = make_paragraph("p", "He said Fat. again")
    assert label_spans(p, ["fat"]) == [SpanLabel(2, 2)]


def test_label_spans_sorted_and_unique():
    p = make_paragraph("p", "a b a b a")
    spans = label_spans(p, ["a", "a b", "b a"])
    assert spans == sorted(spans)
    assert len(spans) == len(set(spans))


@given(
    st.lists(st.sampled_from(["red", "green", "blue", "ox", "hum"]), min_size=1, max_size=12),
    st.integers(0, 11),
    st.sampled_from(["wolf", "wolf den"]),
)
@settings(max_examples=80, deadline=None)
def test_label_spans_round_trip_property(words, pos, answer):
    answer_tokens = answer.split()
    pos = min(pos, len(words))
    planted = words[:pos] + answer_tokens + words[pos:]
    p = make_paragraph("p", " ".join(planted))
    spans = label_spans(p, [answer])
    assert spans, "planted answer must be found"
    for s in spans:
        got = [normalize_token(t) for t in p.tokens[s.start : s.end + 1]]
        assert got == answer_tokens


# ------------------------------------------------------------- corpus_stats


def test_corpus_stats_fixture():
    ex = example_with(
        ["fat"],
        ["fat cats eat fat", "fat cat", "dogs sleep here"],
    )
    stats = corpus_stats([ex])
    assert stats["neg_paragraph_ratio"] == pytest.approx(1 / 3)
    assert round(100 * stats["neg_paragraph_ratio"], 2) == 33.33
    assert stats["avg_answer_span_count"] == pytest.approx(1.5)
    assert stats["avg_answer_span_count_all"] == pytest.approx(1.0)


def test_corpus_stats_all_positive():
    ex = example_with(["fat"], ["the fat", "a fat one"])
    stats = corpus_stats([ex])
    assert stats["neg_paragraph_ratio"] == 0.0
    assert stats["avg_answer_span_count"] == 1.0


def test_corpus_stats_empty_rejected():
    with pytest.raises(ValueError):
        corpus_stats([])


def test_corpus_stats_union_is_weighted_combination():
    a = [example_with(["fat"], ["fat fat fat", "none here"], "a")]
    b = [example_with(["dog"], ["dog", "dog dog", "cat"], "b")]
    sa, sb, su = corpus_stats(a), corpus_stats(b), corpus_stats(a + b)
    assert su["paragraph_count"] == sa["paragraph_count"] + sb["paragraph_count"]
    assert su["negative_count"] == sa["negative_count"] + sb["negative_count"]
    assert su["positive_count"] == sa["positive_count"] + sb["positive_count"]
    assert su["span_total"] == sa["span_total"] + sb["span_total"]


def test_corpus_stats_no_positive_paragraphs():
    stats = corpus_stats([example_with(["fat"], ["dogs sleep", "cats nap"])])
    assert stats["avg_answer_span_count"] == 0.0


# --------------------------------------------------------- generate_synthetic


def test_synthetic_no_distractors_every_paragraph_positive():
    cfg = SynthConfig(num_examples=10, distractor_ratio=0.0, seed=5)
    for ex in generate_synthetic(cfg):
        for p in ex.paragraphs:
            assert label_spans(p, ex.answers)


def test_synthetic_distractor_count():
    cfg = SynthConfig(num_examples=10, paragraphs_per_question=3, distractor_ratio=1 / 3, seed=6)
    for ex in generate_synthetic(cfg):
        negatives = sum(1 for p in ex.paragraphs if not label_spans(p, ex.answers))
        assert negatives == 1


def test_synthetic_deterministic_bytes(tmp_path):
    cfg = SynthConfig(num_examples=8, seed=7)
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(generate_synthetic(cfg), f1)
    save_dataset(generate_synthetic(cfg), f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_synthetic_multi_span_prob_one_gives_three_spans_each():
    cfg = SynthConfig(num_examples=6, multi_span_prob=1.0, paragraph_len=20, distractor_ratio=0.0, seed=8)
    stats = corpus_stats(generate_synthetic(cfg))
    assert stats["avg_answer_span_count"] == pytest.approx(3.0)


def test_synthetic_answer_lengths_in_range():
    for ex in generate_synthetic(SynthConfig(num_examples=20, seed=9)):
        assert 1 <= len(ex.answers[0].split()) <= 2


def test_synthetic_infeasible_paragraph_len_rejected():
    with pytest.raises(ValueError, match="paragraph_len"):
        generate_synthetic(SynthConfig(paragraph_len=4))
    with pytest.raises(ValueError, match="paragraph_len"):
        generate_synthetic(SynthConfig(paragraph_len=10, multi_span_prob=0.5))


def test_synthetic_all_distractors_rejected():
    with pytest.raises(ValueError, match="distractor_ratio"):
        generate_synthetic(SynthConfig(distractor_ratio=1.0))


def test_synthetic_tiny_vocab_rejected():
    with pytest.raises(ValueError, match="vocab_size"):
        generate_synthetic(SynthConfig(vocab_size=5))


# ------------------------------------------------------------------- JSONL


def test_load_round_trip(tmp_path):
    path = tmp_path / "d.jsonl"
    record = {
        "id": "q1",
        "question": "Where do camels store fat?",
        "answers": ["hump"],
        "paragraphs": [{"id": "p1", "text": "In the hump."}],
    }
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    ds = load_dataset(path)
    assert len(ds) == 1
    ex = ds[0]
    assert ex.id == "q1"
    assert ex.question_text == record["question"]
    assert ex.question == ["where", "do", "camels", "store", "fat", "?"]
    assert ex.answers == ["hump"]
    assert ex.paragraphs[0].tokens == ["in", "the", "hump", "."]
    out = tmp_path / "out.jsonl"
    save_dataset(ds, out)
    assert json.loads(out.read_text()) == record


def test_load_truncates_paragraph_list(tmp_path):
    path = tmp_path / "d.jsonl"
    record = {
        "id": "q1",
        "question": "q",
        "answers": ["a"],
        "paragraphs": [{"id": f"p{i}", "text": "w " * 5} for i in range(4)],
    }
    path.write_text(json.dumps(record) + "\n")
    ds = load_dataset(path, max_paragraphs=1)
    assert len(ds[0].paragraphs) == 1
    assert ds[0].paragraphs[0].id == "p0"


def test_load_truncates_paragraph_tokens(tmp_path):
    path = tmp_path / "d.jsonl"
    text = " ".join(f"w{i}" for i in range(50))
    record = {"id": "q", "question": "q", "answers": ["a"], "paragraphs": [{"id": "p", "text": text}]}
    path.write_text(json.dumps(record) + "\n")
    ds = load_dataset(path, max_paragraph_tokens=10)
    assert len(ds[0].paragraphs[0].tokens) == 10


def test_load_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    good = {"id": "q", "question": "q", "answers": ["a"], "paragraphs": [{"id": "p", "text": "t"}]}
    path.write_text(json.dumps(good) + "\n{not json\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)


def test_load_missing_field_reports_name(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"id": "q", "question": "q", "answers": ["a"]}) + "\n")
    with pytest.raises(ValueError, match="paragraphs"):
        load_dataset(path)


def test_load_empty_paragraph_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    for question, paragraph, message in [
        ("q", "  ", "paragraph 'p' has no tokens"),
        ("  ", "camels store fat", "question has no tokens"),
    ]:
        rec = {"id": "q", "question": question, "answers": ["a"], "paragraphs": [{"id": "p", "text": paragraph}]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match=f"line 1: {message}"):
            load_dataset(path)


GOOD_RECORD = {"id": "q", "question": "what", "answers": ["fat"], "paragraphs": [{"id": "p", "text": "fat"}]}


@pytest.mark.parametrize(
    "record, message",
    [
        ("a string", "expected a JSON object"),
        ({**GOOD_RECORD, "answers": "fat"}, "field 'answers' must be a list of strings, got str"),
        ({**GOOD_RECORD, "answers": ["fat", 3]}, "field 'answers' item 1 must be a string, got int"),
        ({**GOOD_RECORD, "question": 7}, "field 'question' must be a string, got int"),
        ({**GOOD_RECORD, "id": True}, "field 'id' must be a string or an integer, got bool"),
        ({**GOOD_RECORD, "paragraphs": {"id": "p", "text": "fat"}}, "field 'paragraphs' must be a list, got dict"),
        ({**GOOD_RECORD, "paragraphs": ["fat"]}, "paragraph 0: expected a JSON object"),
        (
            {**GOOD_RECORD, "paragraphs": [{"id": "p", "text": 5}]},
            "paragraph 0: field 'text' must be a string, got int",
        ),
        (GOOD_RECORD, "duplicate id 'q'"),
    ],
    ids=[
        "string_record",
        "string_answers",
        "number_answer",
        "number_question",
        "bool_id",
        "dict_paragraphs",
        "string_paragraph",
        "number_text",
        "duplicate_id",
    ],
)
def test_load_rejects_wrongly_typed_record_naming_file_and_line(tmp_path, record, message):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line 2: {message}"

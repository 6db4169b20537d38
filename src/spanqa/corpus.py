"""Data model and dataset plumbing.

Covers tokenization (one regular expression: a token is a punctuation
character, or a whitespace-free run that starts and ends on a character
that is not punctuation), weak span labeling (every exact-match location of
any gold answer, found by scanning normalized tokens), corpus statistics (the
dict `spanqa stats` prints), a seeded synthetic dataset generator for fast
end-to-end checks, and JSONL load/save.

JSONL record shape, one object per line, UTF-8:
    {"id": ..., "question": ..., "answers": [...],
     "paragraphs": [{"id": ..., "text": ...}, ...]}
Paragraph order is meaningful (retrieval rank) and is preserved.
"""

import json
import re
import string
from dataclasses import dataclass

from .diffmath.rng import STREAM_SYNTH, make_rng
from .inputs import field, read_json_lines

_P = re.escape(string.punctuation)
_TOKEN = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")


def tokenize(text):
    """Lowercased whitespace tokens with leading/trailing punctuation peeled off.

    A token is a single punctuation character, or a whitespace-free run
    that starts and ends on a character that is not punctuation.  Returns
    (tokens, offsets) where offsets[i] = (start, end) such that
    text[start:end] is token i's exact source substring (pre-lowercasing).
    """
    matches = list(_TOKEN.finditer(text))
    return [m.group().lower() for m in matches], [m.span() for m in matches]


def normalize_token(token: str) -> str:
    """Matching form of a token: lowercase, punctuation stripped from both ends."""
    return token.lower().strip(string.punctuation)


def answer_token_seq(answer: str):
    """Normalized token sequence of a gold answer; pure-punctuation tokens drop out."""
    tokens, _ = tokenize(answer)
    return [t for t in (normalize_token(tok) for tok in tokens) if t]


@dataclass(frozen=True, order=True)
class SpanLabel:
    """Inclusive token span [start, end] within one paragraph."""

    start: int
    end: int


@dataclass
class Paragraph:
    id: str
    tokens: list
    text: str
    char_offsets: list

    def span_text(self, start: int, end: int) -> str:
        """Raw text covered by the inclusive token span [start, end]."""
        return self.text[self.char_offsets[start][0] : self.char_offsets[end][1]]


@dataclass
class QAExample:
    id: str
    question: list
    answers: list
    paragraphs: list
    question_text: str = ""


def make_paragraph(pid: str, text: str, max_tokens=None) -> Paragraph:
    tokens, offsets = tokenize(text)
    if max_tokens is not None:
        tokens, offsets = tokens[:max_tokens], offsets[:max_tokens]
    return Paragraph(id=pid, tokens=tokens, text=text, char_offsets=offsets)


def label_spans(paragraph: Paragraph, answers):
    """All token spans whose per-token normalized form equals a normalized answer.

    Matches are whole-token only, may overlap across different answers, and
    come back sorted by (start, end) with duplicates removed.  No match for
    any answer yields an empty list — such paragraphs stay in the dataset
    as negatives.
    """
    norm = [normalize_token(t) for t in paragraph.tokens]
    found = set()
    for answer in answers:
        seq = answer_token_seq(answer)
        width = len(seq)
        if width == 0:
            continue
        for s in range(len(norm) - width + 1):
            if norm[s : s + width] == seq:
                found.add(SpanLabel(s, s + width - 1))
    return sorted(found)


def corpus_stats(dataset) -> dict:
    """Paragraph and answer-span counts across a labeled dataset, with the
    negative-paragraph ratio, the mean span count over positive paragraphs
    (0.0 when there are none) and the same total averaged over every
    paragraph (secondary reading)."""
    counts = [len(label_spans(p, example.answers)) for example in dataset for p in example.paragraphs]
    if not counts:
        raise ValueError("corpus_stats needs at least one paragraph")
    paragraphs, positives, spans = len(counts), sum(1 for c in counts if c), sum(counts)
    return {
        "paragraph_count": paragraphs,
        "negative_count": paragraphs - positives,
        "positive_count": positives,
        "span_total": spans,
        "neg_paragraph_ratio": (paragraphs - positives) / paragraphs,
        "avg_answer_span_count": spans / positives if positives else 0.0,
        "avg_answer_span_count_all": spans / paragraphs,
    }


# --------------------------------------------------------------------------
# Synthetic data.
#
# Each question plants a 1-2 token answer inside "positive" paragraphs using
# a fixed cue pattern:  ... filler, CUE_A, CUE_B, <answer tokens>, CUE_C,
# filler ...  The cue tokens are reserved vocabulary entries that never occur
# as filler, so a model can learn "the span between CUE_B and CUE_C" and
# "paragraphs with cues are the good ones" from small data.  Distractor
# paragraphs are filler-only.  Filler never uses cue or answer tokens, so the
# planted occurrences are exactly the labeled ones.


# Upper bounds on the generator's sizes and on its total work in tokens (10^7
# take about 20 s on a 2-vCPU VM), so that a mistyped size fails by name
# instead of generating until it is killed.
SYNTH_MAX_SIZES = {"num_examples": 10**6, "vocab_size": 10**6, "paragraphs_per_question": 100, "paragraph_len": 10**4}
SYNTH_MAX_TOKENS = 10**7


@dataclass
class SynthConfig:
    num_examples: int = 100
    vocab_size: int = 100
    paragraphs_per_question: int = 3
    paragraph_len: int = 15
    distractor_ratio: float = 1 / 3
    multi_span_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_examples", "paragraphs_per_question"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name, bound in SYNTH_MAX_SIZES.items():
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be <= {bound}, got {getattr(self, name)!r}")
        tokens = self.num_examples * self.paragraphs_per_question * self.paragraph_len
        if tokens > SYNTH_MAX_TOKENS:
            raise ValueError(
                f"num_examples x paragraphs_per_question x paragraph_len must be <= {SYNTH_MAX_TOKENS}, got {tokens}"
            )
        if self.vocab_size < N_CUE_TOKENS + _MAX_ANSWER_LEN + 4:
            raise ValueError(f"vocab_size {self.vocab_size} too small to plant answers")
        if not 0.0 <= self.multi_span_prob <= 1.0:
            raise ValueError(f"multi_span_prob must be in [0, 1], got {self.multi_span_prob}")
        max_occurrences = 3 if self.multi_span_prob > 0 else 1
        need = max_occurrences * (_BLOCK_OVERHEAD + _MAX_ANSWER_LEN)
        if self.paragraph_len < need:
            raise ValueError(
                f"paragraph_len {self.paragraph_len} cannot hold {max_occurrences} "
                f"answer occurrence(s); need at least {need}"
            )
        # a ratio past 1 either way fails the range test anyway, and its product may not fit a float
        ratio, k = self.distractor_ratio, self.paragraphs_per_question
        if not (abs(ratio) <= 1 and 0 <= round(ratio * k) < k):
            raise ValueError(f"distractor_ratio {self.distractor_ratio} leaves no positive paragraph")


N_CUE_TOKENS = 3
_MAX_ANSWER_LEN = 2
_BLOCK_OVERHEAD = 3  # CUE_A, CUE_B, ..., CUE_C


def _vocab_word(i: int) -> str:
    """Distinct lowercase pseudo-word for vocabulary slot i ('aaa', 'aab', ...)."""
    s = ""
    while True:
        s = chr(ord("a") + i % 26) + s
        i //= 26
        if i == 0:
            return s.rjust(3, "a")


def synth_vocab(size: int):
    return [_vocab_word(i) for i in range(size)]


def generate_synthetic(config: SynthConfig):
    """Deterministic synthetic dataset; same config (incl. seed) → same records."""
    k = config.paragraphs_per_question
    n_distractors = int(round(config.distractor_ratio * k))

    vocab = synth_vocab(config.vocab_size)
    cue_a, cue_b, cue_c = vocab[:N_CUE_TOKENS]
    candidates = vocab[N_CUE_TOKENS:]
    rng = make_rng(config.seed, STREAM_SYNTH)

    dataset = []
    for ei in range(config.num_examples):
        answer_len = int(rng.integers(1, _MAX_ANSWER_LEN + 1))
        answer_tokens = list(rng.choice(candidates, size=answer_len, replace=False))
        filler = [w for w in candidates if w not in answer_tokens]
        question = list(rng.choice(filler, size=4, replace=True))
        distractor_at = set(rng.permutation(k)[:n_distractors].tolist())

        paragraphs = []
        for pi in range(k):
            pid = f"synth-{ei:04d}-p{pi}"
            if pi in distractor_at:
                tokens = list(rng.choice(filler, size=config.paragraph_len, replace=True))
            else:
                occurrences = 1 + int(rng.binomial(2, config.multi_span_prob))
                block = [cue_a, cue_b, *answer_tokens, cue_c]
                gap_total = config.paragraph_len - occurrences * len(block)
                gaps = rng.multinomial(gap_total, [1.0 / (occurrences + 1)] * (occurrences + 1))
                tokens = []
                for g in gaps[:-1]:
                    tokens.extend(rng.choice(filler, size=g, replace=True))
                    tokens.extend(block)
                tokens.extend(rng.choice(filler, size=gaps[-1], replace=True))
            paragraphs.append(make_paragraph(pid, " ".join(tokens)))

        dataset.append(
            QAExample(
                id=f"synth-{ei:04d}",
                question=question,
                answers=[" ".join(answer_tokens)],
                paragraphs=paragraphs,
                question_text=" ".join(question),
            )
        )
    return dataset


# --------------------------------------------------------------------------
# JSONL I/O.


def load_dataset(path, max_paragraphs: int = 20, max_paragraph_tokens: int = 400):
    """Read a JSONL dataset, truncating to the first `max_paragraphs` paragraphs
    and the first `max_paragraph_tokens` tokens of each paragraph.

    Each line is an object with an "id" (string or integer), a "question"
    string, a nonempty "answers" list of strings and a nonempty
    "paragraphs" list of {"id", "text"} objects, and no two records share
    an id; any other shape, a repeated id, and text that is not UTF-8 fail
    with a ValueError naming the file and the line.  Both limits must be at
    least 1.
    """
    for name, value in (("max_paragraphs", max_paragraphs), ("max_paragraph_tokens", max_paragraph_tokens)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    dataset, seen = [], set()
    for where, record in read_json_lines(path):
        ex_id = str(field(record, "id", (str, int), where))
        question_text = field(record, "question", str, where)
        answers = field(record, "answers", list, where, item=str)
        raw_paragraphs = field(record, "paragraphs", list, where)
        if not answers:
            raise ValueError(f"{where}: empty answers list")
        if not raw_paragraphs:
            raise ValueError(f"{where}: empty paragraphs list")
        paragraphs = []
        for k, p in enumerate(raw_paragraphs[:max_paragraphs]):
            at = f"{where}: paragraph {k}"
            paragraph = make_paragraph(
                str(field(p, "id", (str, int), at)), field(p, "text", str, at), max_tokens=max_paragraph_tokens
            )
            if not paragraph.tokens:
                raise ValueError(f"{where}: paragraph {paragraph.id!r} has no tokens")
            paragraphs.append(paragraph)
        question_tokens, _ = tokenize(question_text)
        if not question_tokens:
            raise ValueError(f"{where}: question has no tokens")
        if ex_id in seen:
            raise ValueError(f"{where}: duplicate id {ex_id!r}")
        seen.add(ex_id)
        dataset.append(
            QAExample(
                id=ex_id,
                question=question_tokens,
                answers=answers,
                paragraphs=paragraphs,
                question_text=question_text,
            )
        )
    return dataset


def save_dataset(dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for example in dataset:
            record = {
                "id": example.id,
                "question": example.question_text or " ".join(example.question),
                "answers": list(example.answers),
                "paragraphs": [{"id": p.id, "text": p.text} for p in example.paragraphs],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

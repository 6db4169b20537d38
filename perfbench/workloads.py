"""Benchmark workloads and their seeded input generator.

Inputs are generated here, from the workload seed alone, with the standard
library's `random.Random` (so they do not depend on the numpy version), and
written as JSONL.  The program under test only ever sees those files.

Every question follows the planted-answer scheme of the acceptance data: a
positive paragraph holds one to three copies of the block
`CUE_A CUE_B <answer> CUE_C` among filler words, and a distractor paragraph
holds filler only.  Filler never uses cue or answer words, so the planted
copies are exactly the labelled spans and every question is answerable.
"""

import json
import random
from dataclasses import dataclass

N_CUES = 3
MAX_ANSWER_LEN = 2
QUESTION_LEN = 4
VOCAB_SIZE = 100
DISTRACTOR_RATIO = 1 / 3
MULTI_SPAN_PROB = 0.35  # chance of each of two extra answer copies in a positive paragraph


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # model profile under configs/ in the checkout
    paragraph_lengths: tuple  # token counts of one question's paragraphs, shuffled per question
    train_share: float  # share of --seconds spent training; the rest predicts
    train_examples: int  # the fixed training pass that the quality metrics rest on
    eval_examples: int  # the fixed held-out pass that the quality metrics rest on
    threaded: bool  # predict through `predict_dataset` at min(config threads, nproc), else `predict` serially


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why=(
                "desk model on the acceptance data (3 paragraphs x 15 tokens), one thread: "
                "short sequences, so per-call overhead in diffmath, encoder and aggregation dominates"
            ),
            config="desk.json",
            paragraph_lengths=(15, 15, 15),
            train_share=0.5,
            train_examples=600,
            eval_examples=300,
            threaded=False,
        ),
        Workload(
            name="long",
            why=(
                "desk model on 10 paragraphs of 55..145 tokens (mean 100), one thread: "
                "the GRU time loop and the k1 end passes dominate; lengths vary, so padding pays"
            ),
            config="desk.json",
            paragraph_lengths=(55, 65, 75, 85, 95, 105, 115, 125, 135, 145),
            train_share=0.4,
            train_examples=60,
            eval_examples=30,
            threaded=False,
        ),
        Workload(
            name="full",
            why=(
                "full model (hidden 200, 6.3M parameters, dropout) on 5 paragraphs x 40 tokens, "
                "threaded predict_dataset: Adadelta, backward, checkpoint I/O and BLAS weigh in"
            ),
            config="full.json",
            paragraph_lengths=(40, 40, 40, 40, 40),
            train_share=0.5,
            train_examples=60,
            eval_examples=30,
            threaded=True,
        ),
    )
}


def vocab_word(i: int) -> str:
    """Distinct lowercase pseudo-word for slot i ('aaa', 'aab', ...)."""
    s = ""
    while True:
        s = chr(ord("a") + i % 26) + s
        i //= 26
        if i == 0:
            return s.rjust(3, "a")


def _paragraph(rng, length, filler, block, positive):
    if not positive:
        return [rng.choice(filler) for _ in range(length)]
    copies = 1 + sum(rng.random() < MULTI_SPAN_PROB for _ in range(2))
    gaps = [0] * (copies + 1)
    for _ in range(length - copies * len(block)):
        gaps[rng.randrange(copies + 1)] += 1
    tokens = []
    for gap in gaps[:-1]:
        tokens += [rng.choice(filler) for _ in range(gap)]
        tokens += block
    tokens += [rng.choice(filler) for _ in range(gaps[-1])]
    return tokens


def make_records(workload: Workload, n: int, rng: random.Random, prefix: str):
    """`n` JSONL-ready question records drawn from `rng`."""
    vocab = [vocab_word(i) for i in range(VOCAB_SIZE)]
    cue_a, cue_b, cue_c = vocab[:N_CUES]
    candidates = vocab[N_CUES:]
    k = len(workload.paragraph_lengths)
    n_distractors = round(DISTRACTOR_RATIO * k)
    if not 0 <= n_distractors < k:
        raise ValueError(f"{workload.name}: distractor ratio leaves no positive paragraph")
    if min(workload.paragraph_lengths) < 3 * (N_CUES + MAX_ANSWER_LEN):
        raise ValueError(f"{workload.name}: paragraphs too short to plant three answers")
    records = []
    for ei in range(n):
        answer = rng.sample(candidates, 1 + ei % MAX_ANSWER_LEN)
        filler = [w for w in candidates if w not in answer]
        question = [rng.choice(filler) for _ in range(QUESTION_LEN)]
        distractors = set(rng.sample(range(k), n_distractors))
        lengths = list(workload.paragraph_lengths)
        rng.shuffle(lengths)
        block = [cue_a, cue_b, *answer, cue_c]
        paragraphs = [
            {
                "id": f"{prefix}{ei:05d}-p{pi}",
                "text": " ".join(
                    _paragraph(rng, length, filler, block, pi not in distractors)
                ),
            }
            for pi, length in enumerate(lengths)
        ]
        records.append(
            {"id": f"{prefix}{ei:05d}", "question": " ".join(question), "answers": [" ".join(answer)], "paragraphs": paragraphs}
        )
    return records


def render(records) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode("utf-8")


def generate(workload: Workload, seed: int):
    """(train JSONL bytes, held-out JSONL bytes) for `seed`; the splits share no question."""
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    train = make_records(workload, workload.train_examples, rng, "train-")
    heldout = make_records(workload, workload.eval_examples, rng, "eval-")
    return render(train), render(heldout)

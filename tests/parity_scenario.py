"""A fixed training and prediction scenario whose output pins the program's
numbers.

Forty synthetic examples train a tiny model for three epochs under each
aggregation mode (max, sum, rand) with and without dropout (keep_prob 1.0
and 0.8).  For each of the six runs the scenario records the epoch losses
(as `repr`), a SHA-256 of every trained parameter, the predictions on ten
held-out examples from the checkpoint the run saved, and, after resuming
that checkpoint for a fourth epoch, the fourth epoch's loss and a SHA-256
of the resumed checkpoint's parameter payload.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/parity_scenario.py OUT.json

Two trees that compute the same numbers in the same order write
byte-identical files, so `cmp` of two outputs checks a change that claims
bit-identical results.  `tests/test_parity.py` compares a fresh run with the
committed `tests/data/parity.json`: strings and argmaxes exactly, floats
within 1e-12 relative; the hashes are informative only, since another BLAS
build may differ in the last bit.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from spanqa.aggregation import AggregationMode
from spanqa.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spanqa.config import split_config
from spanqa.corpus import SynthConfig, generate_synthetic
from spanqa.encoder import CharVocab, Vocab
from spanqa.model import QaModel
from spanqa.pipeline import predict_dataset, train

MODES = ("max", "sum", "rand")
KEEP_PROBS = (1.0, 0.8)
TRAIN = SynthConfig(num_examples=40, paragraph_len=15, multi_span_prob=0.35, seed=11)
HELDOUT = SynthConfig(num_examples=10, paragraph_len=15, multi_span_prob=0.35, seed=12)
MODEL = {"word_dim": 8, "char_dim": 4, "char_conv_width": 3, "char_out_dim": 4, "hidden_dim": 4}
TRAINING = {"epochs": 3, "batch_size": 8, "k1": 3, "k2": 2, "seed": 7}


def payload_sha256(path) -> str:
    """SHA-256 of a checkpoint file's parameter payload (what follows the manifest)."""
    raw = Path(path).read_bytes()
    at = len(MAGIC)
    length = int.from_bytes(raw[at : at + 8], "little")
    return hashlib.sha256(raw[at + 8 + length :]).hexdigest()


def run_one(mode: str, keep_prob: float, train_set, heldout, workdir: Path) -> dict:
    flat = {**MODEL, **TRAINING, "mode": mode, "keep_prob": keep_prob}
    encoder_config, train_config, _ = split_config(flat)
    vocab = Vocab.from_dataset(train_set)
    model = QaModel.create(encoder_config, vocab, CharVocab.from_vocab(vocab), seed=train_config.seed)
    history = train(model, train_set, train_config)
    params = {name: hashlib.sha256(t.data.tobytes()).hexdigest() for name, t in model.store.items()}

    ckpt = workdir / f"{mode}-{keep_prob}.ckpt"
    save_checkpoint(ckpt, model, flat, epoch=train_config.epochs, seed=train_config.seed)
    loaded, _ = load_checkpoint(ckpt)
    predictions = predict_dataset(
        loaded, heldout, AggregationMode.parse(mode), train_config.k1, train_config.k2, seed=train_config.seed
    )
    resume_flat = {**flat, "epochs": train_config.epochs + 1}
    _, resume_config, _ = split_config(resume_flat)
    resumed = train(loaded, train_set, resume_config, start_epoch=train_config.epochs)
    save_checkpoint(ckpt, loaded, resume_flat, epoch=resume_config.epochs, seed=resume_config.seed)
    return {
        "mode": mode,
        "keep_prob": keep_prob,
        "epoch_losses": [repr(s.mean_loss) for s in history],
        "skipped": [s.skipped for s in history],
        "params_sha256": params,
        "predictions": [
            {
                "id": p.example_id,
                "answer": p.best_answer,
                "scores": p.answer_scores,
                "paragraph_probs": p.paragraph_probs,
            }
            for p in predictions
        ],
        "resume_losses": [repr(s.mean_loss) for s in resumed],
        "resume_payload_sha256": payload_sha256(ckpt),
    }


def run() -> dict:
    train_set, heldout = generate_synthetic(TRAIN), generate_synthetic(HELDOUT)
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_one(mode, kp, train_set, heldout, Path(tmp)) for mode in MODES for kp in KEEP_PROBS]
    return {"runs": runs}


def render(result: dict) -> str:
    return json.dumps(result, indent=1, sort_keys=True) + "\n"


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/parity_scenario.py OUT.json", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(render(run()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

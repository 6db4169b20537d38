"""Command-line interface.

Subcommands: stats, make-synthetic, train, predict, evaluate.  Data goes to
files or standard output; progress logs go to standard error.  Every
command is deterministic given its config, seed, and inputs.  Failures
print a single-line JSON object {"error": ...} to standard error and exit
nonzero.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace

from .aggregation import AggregationMode
from .checkpoint import load_checkpoint, save_checkpoint
from .config import default_config, read_config_overrides, read_synth_config, split_config
from .corpus import SynthConfig, corpus_stats, generate_synthetic, load_dataset, save_dataset
from .encoder import CharVocab, Vocab, load_word_vectors
from .inputs import field, read_json_lines
from .model import QaModel
from .pipeline import Prediction, predict_dataset, score_predictions, train


def _log(message):
    print(message, file=sys.stderr)


def _add_data_flags(parser):
    parser.add_argument("--data", required=True, help="dataset JSONL path")
    parser.add_argument("--max-paragraphs", type=int, default=20, help="paragraphs kept per example")
    parser.add_argument("--max-tokens", type=int, default=400, help="tokens kept per paragraph")


def _load_data(args):
    return load_dataset(args.data, max_paragraphs=args.max_paragraphs, max_paragraph_tokens=args.max_tokens)


def _apply_overrides(flat, args):
    for key in ("mode", "k1", "k2", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            flat[key] = value
    return flat


def cmd_stats(args) -> int:
    print(json.dumps(corpus_stats(_load_data(args)), sort_keys=True))
    return 0


def cmd_make_synthetic(args) -> int:
    config = read_synth_config(args.config) if args.config else SynthConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    dataset = generate_synthetic(config)
    save_dataset(dataset, args.out)
    _log(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.checkpoint and args.word_vectors:
        raise ValueError(
            "--word-vectors cannot be combined with --checkpoint: a resume keeps the checkpoint's word vectors"
        )
    overrides = read_config_overrides(args.config) if args.config else {}
    if args.checkpoint:
        model, manifest = load_checkpoint(args.checkpoint)
        base, start_epoch = manifest["config"], manifest["epoch"]
    else:
        model, base, start_epoch = None, default_config(), 0
    flat = _apply_overrides({**base, **overrides}, args)
    encoder_config, train_config, grad_through_start = split_config(flat)
    dataset = _load_data(args)

    if model is not None:
        stored = {**asdict(model.config), "grad_through_start": model.grad_through_start}
        wanted = {**asdict(encoder_config), "grad_through_start": grad_through_start}
        clashes = [f"{key} {stored[key]!r} -> {wanted[key]!r}" for key in stored if wanted[key] != stored[key]]
        if clashes:
            raise ValueError(
                f"{args.config}: changes the model of checkpoint {args.checkpoint} "
                f"({', '.join(clashes)}); a resume keeps the checkpoint's model"
            )
        if train_config.epochs < start_epoch:
            raise ValueError(
                f"{args.checkpoint}: checkpoint is at epoch {start_epoch}, past the configured "
                f"{train_config.epochs} epochs; set epochs to at least {start_epoch}"
            )
        _log(f"resuming from {args.checkpoint} at epoch {start_epoch}")
    else:
        vocab = Vocab.from_dataset(dataset)
        char_vocab = CharVocab.from_vocab(vocab)
        word_init = None
        if args.word_vectors:
            from .diffmath import glorot_uniform
            from .diffmath.rng import STREAM_INIT, make_rng

            init = glorot_uniform(
                (len(vocab), encoder_config.word_dim), make_rng(train_config.seed, STREAM_INIT, 99)
            )
            word_init = load_word_vectors(args.word_vectors, vocab, encoder_config.word_dim, init)
        model = QaModel.create(
            encoder_config,
            vocab,
            char_vocab,
            seed=train_config.seed,
            word_init=word_init,
            grad_through_start=grad_through_start,
        )

    def log(stats):
        loss = "none" if stats.mean_loss is None else repr(stats.mean_loss)
        _log(f"epoch {stats.epoch + 1}/{train_config.epochs} loss {loss} skipped {stats.skipped}")

    train(model, dataset, train_config, start_epoch=start_epoch, log=log)
    save_checkpoint(args.out, model, flat, epoch=train_config.epochs, seed=train_config.seed)
    _log(f"saved checkpoint {args.out}")
    return 0


def cmd_predict(args) -> int:
    model, manifest = load_checkpoint(args.checkpoint)
    flat = _apply_overrides(dict(manifest["config"]), args)
    _, train_config, _ = split_config(flat)
    dataset = _load_data(args)
    predictions = predict_dataset(
        model,
        dataset,
        AggregationMode.parse(train_config.mode),
        train_config.k1,
        train_config.k2,
        seed=train_config.seed,
    )
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for pred in predictions:
            record = {
                "id": pred.example_id,
                "answer": pred.best_answer,
                "scores": pred.answer_scores,
                "paragraph_probs": pred.paragraph_probs,
            }
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if args.out:
            out.close()
    _log(f"predicted {len(predictions)} examples")
    return 0


def read_predictions(path) -> dict:
    """(where, Prediction) keyed by id, where `where` names the file and the
    line; each line is a JSON object with a unique string "id", a string
    "answer" and a "paragraph_probs" list of numbers."""
    predictions = {}
    for where, record in read_json_lines(path):
        ex_id = field(record, "id", str, where)
        answer = field(record, "answer", str, where)
        probs = field(record, "paragraph_probs", list, where, item=float)
        if ex_id in predictions:
            raise ValueError(f"{where}: duplicate id {ex_id!r}")
        prediction = Prediction(ex_id, answer, answer_scores={}, paragraph_probs=probs, paragraph_groups=[])
        predictions[ex_id] = (where, prediction)
    return predictions


def cmd_evaluate(args) -> int:
    dataset = _load_data(args)
    by_id = read_predictions(args.predictions)
    missing = [example.id for example in dataset if example.id not in by_id]
    if missing:
        raise ValueError(f"{args.predictions}: no prediction for example id {missing[0]!r}")
    predictions = []
    for example in dataset:
        where, pred = by_id[example.id]
        if len(pred.paragraph_probs) != len(example.paragraphs):
            raise ValueError(
                f"{where}: example {example.id!r}: {len(pred.paragraph_probs)} "
                f"paragraph probabilities for {len(example.paragraphs)} paragraphs"
            )
        predictions.append(pred)
    print(json.dumps(score_predictions(dataset, predictions), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanqa",
        description="Train, run, and evaluate an extractive QA model over retrieved paragraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print dataset statistics as JSON")
    _add_data_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("make-synthetic", help="generate a synthetic dataset")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--seed", type=int, help="override the generator seed")
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", help="JSON config file (defaults are desk-scale)")
    _add_data_flags(p)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--checkpoint", help="resume from this checkpoint")
    p.add_argument("--word-vectors", help="optional pretrained word vector text file (frozen)")
    p.add_argument("--mode", choices=[m.value for m in AggregationMode], help="aggregation mode")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predictions for a dataset")
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    _add_data_flags(p)
    p.add_argument("--out", help="predictions JSONL path (default: stdout)")
    p.add_argument("--mode", choices=[m.value for m in AggregationMode], help="aggregation mode")
    p.add_argument("--k1", type=int, help="beam width over start positions")
    p.add_argument("--k2", type=int, help="beam width over end positions")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against a dataset")
    p.add_argument("--predictions", required=True, help="predictions JSONL path")
    _add_data_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a single parsable line, exit nonzero
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

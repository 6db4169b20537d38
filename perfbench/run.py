"""spanqa benchmark: train, checkpoint, reload and predict one seeded workload.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One run, in one process:

1. generates the workload's train and held-out JSONL from `--seed` (twice,
   to check the bytes repeat) and writes them under `.perfbench/`; the
   model is initialised and trained with its profile's own seed;
2. sets up: `corpus.load_dataset`, vocabularies, `QaModel.create` and the
   label table, then trains a fixed pass of `pipeline.train_epoch` calls,
   one batch each, and saves the model with `checkpoint.save_checkpoint`;
3. keeps training until the train share of `--seconds` is used up;
4. repeats the set-up with `checkpoint.load_checkpoint`, and predicts the
   held-out split with the model it reloaded: a fixed first pass that
   `pipeline.evaluate_dataset(predictions=...)` scores, then more passes
   until the predict share of `--seconds` is used up;
5. reports as `setup_s` the median of eleven set-ups, each after a garbage
   collection, spread evenly over the predict phase's busy time: the
   machine's speed drifts within seconds, and back-to-back samples all
   fell in one state.

Every prediction is checked (see `check_prediction`), repeated passes must
reproduce the first byte for byte, and so must the in-memory model before
the checkpoint round trip.  An example that raises is counted as failed and
the run goes on.

With `--trace 1` the run above is followed by a replay of its fixed part
(set-up, fixed training, checkpoint, first predict pass) with the layers'
public functions wrapped by `spans.Tracer`; the per-layer metrics come from
that replay, its spans go to `.perfbench/trace-<workload>-<seed>.jsonl`,
and the replay's slowdown against the untraced fixed part is reported as
the tracing overhead.

Standard output ends with two JSON lines: a `report` with the environment,
per-phase counts and all measured numbers, then the result line.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 11
CHECK_EXAMPLES = 4  # held-out examples also predicted by the in-memory model
PROB_SUM_TOL = 1e-12
TAIL_CAP = 95.0  # percentile of the tail latency when the sample supports it

END_TO_END = {  # name: unit
    "setup_s": "s",
    "train_ex_per_s": "ex/s",
    "predict_ex_per_s": "ex/s",
    "peak_rss_mb": "MB",
    "train_loss": "nats",
    "paragraph_map": "ratio",
    "success_rate": "ratio",
}

# per-layer metric: (unit, source).  Sources: ("self", span) total self time,
# ("total", span) total time, ("calls", span) call count, ("counter", name)
# a counter summed over phases, ("ratio", a, b) counter a over counter b, or
# a key of the `computed` dict that `traced_replay` passes in.
PER_LAYER = {
    "diffmath.gru_sequence.self_s": ("s", ("self", "diffmath.gru_sequence")),
    "diffmath.gru_steps": ("count", ("counter", "gru_steps")),
    "diffmath.gru_sequence.calls": ("count", ("calls", "diffmath.gru_sequence")),
    "span_decoder.end_distribution.self_s": ("s", ("self", "span_decoder.end_distribution")),
    "span_decoder.end_distribution.calls_per_paragraph": (
        "calls/paragraph",
        ("ratio", "predict/span_decoder.end_distribution.calls", "predict/paragraphs"),
    ),
    "encoder.embed_tokens.self_s": ("s", ("self", "encoder.embed_tokens")),
    "encoder.question_encodes_per_example": (
        "count/example",
        ("ratio", "predict/question_encodes", "predict/examples"),
    ),
    "encoder.contextualize.self_s": ("s", ("self", "encoder.contextualize")),
    "encoder.bidaf_attention.self_s": ("s", ("self", "encoder.bidaf_attention")),
    "encoder.self_attend.self_s": ("s", ("self", "encoder.self_attend")),
    "span_decoder.start_distribution.self_s": ("s", ("self", "span_decoder.start_distribution")),
    "paragraph_quality.quality_logit.self_s": ("s", ("self", "paragraph_quality.quality_logit")),
    "diffmath.backward.self_s": ("s", ("self", "diffmath.backward")),
    "diffmath.adadelta_step.s": ("s", ("total", "diffmath.adadelta_step")),
    "diffmath.adadelta_step.calls": ("count", ("calls", "diffmath.adadelta_step")),
    "pipeline.predict_dataset.parallel_efficiency": ("ratio", "parallel_efficiency"),
    "pipeline.beam_candidates.self_s": ("s", ("self", "pipeline.beam_candidates")),
    "pipeline.beam_slot_yield": ("ratio", ("ratio", "predict/beam_candidates", "predict/beam_slots")),
    "aggregation.group_candidates.self_s": ("s", ("self", "aggregation.group_candidates")),
    "aggregation.spans_per_group": ("spans/group", ("ratio", "predict/grouped_spans", "predict/groups")),
    "pipeline.train.skipped": ("count", "train_skipped"),
    "corpus.load_dataset.s": ("s", ("total", "corpus.load_dataset")),
    "corpus.label_spans.s": ("s", ("total", "corpus.label_spans")),
    "checkpoint.save_checkpoint.s": ("s", ("total", "checkpoint.save_checkpoint")),
    "checkpoint.load_checkpoint.s": ("s", ("total", "checkpoint.load_checkpoint")),
    "checkpoint.bytes": ("bytes", "checkpoint_bytes"),
    "trace.overhead_train": ("ratio", "overhead_train"),
    "trace.overhead_predict": ("ratio", "overhead_predict"),
}


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------------ set-up


@dataclass
class Inputs:
    train: Path
    heldout: Path
    sha256: dict


def write_inputs(workload, seed, workdir: Path) -> Inputs:
    train_bytes, heldout_bytes = generate(workload, seed)
    if generate(workload, seed) != (train_bytes, heldout_bytes):
        raise CheckFailed(f"seed {seed} did not reproduce the {workload.name} input files")
    paths = Inputs(workdir / "train.jsonl", workdir / "heldout.jsonl", {})
    for path, blob in ((paths.train, train_bytes), (paths.heldout, heldout_bytes)):
        path.write_bytes(blob)
        paths.sha256[path.name] = hashlib.sha256(blob).hexdigest()
    return paths


@dataclass
class Setup:
    train_set: list
    heldout: list
    model: object  # fresh model, ready to train
    labels: list
    loaded: object  # model read back from the checkpoint, or None
    seconds: float


def set_up(sq, inputs: Inputs, flat, checkpoint_path=None) -> Setup:
    """What `spanqa train` and `spanqa predict` do before their first example."""
    start = time.perf_counter()
    encoder_config, train_config, grad_through_start = sq.config.split_config(flat)
    train_set = sq.corpus.load_dataset(inputs.train)
    heldout = sq.corpus.load_dataset(inputs.heldout)
    vocab = sq.encoder.Vocab.from_dataset(train_set)
    char_vocab = sq.encoder.CharVocab.from_vocab(vocab)
    model = sq.model.QaModel.create(
        encoder_config, vocab, char_vocab, seed=train_config.seed, grad_through_start=grad_through_start
    )
    labels = sq.pipeline.paragraph_label_table(train_set)
    loaded = sq.checkpoint.load_checkpoint(checkpoint_path)[0] if checkpoint_path else None
    return Setup(train_set, heldout, model, labels, loaded, time.perf_counter() - start)


# ---------------------------------------------------------------- training


@dataclass
class PhaseCount:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # time spent inside the program's calls
    fixed_busy_s: float = 0.0  # the part of busy_s spent on the fixed pass

    def record(self, examples: int, seconds: float):
        self.attempted += examples
        self.busy_s += seconds


@dataclass
class TrainResult:
    count: PhaseCount
    loss: float
    skipped: int


def train_phase(sq, setup: Setup, train_config, budget_s, after_fixed) -> TrainResult:
    """Batches of the training set through `pipeline.train_epoch`: one fixed
    pass, then more until `budget_s` of busy time (None: fixed pass only).
    `after_fixed(model)` runs, untimed, right after the fixed pass."""
    batch = train_config.batch_size
    chunks = [range(i, min(i + batch, len(setup.train_set))) for i in range(0, len(setup.train_set), batch)]
    count = PhaseCount()
    loss_sum, steps, skipped = 0.0, 0, 0
    step = 0
    while step < len(chunks) or (budget_s is not None and count.busy_s < budget_s):
        chunk = chunks[step % len(chunks)]
        examples = [setup.train_set[i] for i in chunk]
        labels = [setup.labels[i] for i in chunk]
        start = time.perf_counter()
        try:
            stats = sq.pipeline.train_epoch(setup.model, examples, labels, train_config, step)
        except Exception:
            count.failed += len(examples)
            _report_failure(f"train batch {step}")
            stats = None
        count.record(len(examples), time.perf_counter() - start)
        step += 1
        if step <= len(chunks) and stats is not None:
            skipped += stats.skipped
            if stats.mean_loss is not None:
                loss_sum += stats.mean_loss * stats.steps
                steps += stats.steps
        if step == len(chunks):
            count.fixed_busy_s = count.busy_s
            after_fixed(setup.model)
            if budget_s is None:
                break
    return TrainResult(count, loss_sum / steps if steps else math.nan, skipped)


# -------------------------------------------------------------- prediction


def canonical(pred) -> str:
    """Byte-exact rendering of a Prediction (floats via repr)."""
    groups = [
        [[g.answer_text, g.aggregated_prob, [[s.start, s.end, s.span_prob] for s in g.spans]] for g in groups]
        for groups in pred.paragraph_groups
    ]
    return json.dumps(
        [pred.example_id, pred.best_answer, pred.answer_scores, pred.paragraph_probs, groups], sort_keys=True
    )


def check_prediction(pred):
    """Raise CheckFailed unless the prediction is well formed."""
    total = math.fsum(pred.paragraph_probs)
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise CheckFailed(f"{pred.example_id}: paragraph_probs sum to {total!r}")
    for answer, score in pred.answer_scores.items():
        if not (math.isfinite(score) and 0.0 <= score <= 1.0):
            raise CheckFailed(f"{pred.example_id}: score {score!r} for {answer!r} outside [0, 1]")
    top = max(pred.answer_scores.values())
    expected = min(a for a, s in pred.answer_scores.items() if s == top)
    if pred.best_answer != expected:
        raise CheckFailed(f"{pred.example_id}: best_answer {pred.best_answer!r}, argmax is {expected!r}")


@dataclass
class PredictResult:
    count: PhaseCount
    first_pass: list  # (example, Prediction) of the fixed pass, in order
    latencies_s: list = field(default_factory=list)


def predict_units(workload, heldout, threads):
    """Index ranges predicted per call: one example on the serial path, a
    chunk of `threads` examples through `predict_dataset` otherwise."""
    size = threads if workload.threaded else 1
    return [range(i, min(i + size, len(heldout))) for i in range(0, len(heldout), size)]


def predict_unit(sq, model, workload, examples, offset, train_config, threads):
    mode = sq.aggregation.AggregationMode.parse(train_config.mode)
    k1, k2, seed = train_config.k1, train_config.k2, train_config.seed
    if workload.threaded:
        return sq.pipeline.predict_dataset(model, examples, mode, k1, k2, seed=seed, threads=threads)
    rng = sq.rng.make_rng(seed, sq.rng.STREAM_PREDICT, offset)
    return [sq.pipeline.predict(model, examples[0], mode, k1, k2, rng)]


def predict_phase(sq, model, workload, heldout, train_config, threads, budget_s, between=None) -> PredictResult:
    """A fixed pass over the held-out split, then more passes until
    `budget_s` of busy time (None: fixed pass only).  `between(busy_s)`
    runs, untimed, after each call."""
    units = predict_units(workload, heldout, threads)
    result = PredictResult(PhaseCount(), [])
    first = {}
    step = 0
    while step < len(units) or (budget_s is not None and result.count.busy_s < budget_s):
        unit = units[step % len(units)]
        examples = [heldout[i] for i in unit]
        start = time.perf_counter()
        try:
            preds = predict_unit(sq, model, workload, examples, unit.start, train_config, threads)
        except Exception:
            preds = None
            result.count.failed += len(examples)
            _report_failure(f"predict {examples[0].id}")
        elapsed = time.perf_counter() - start
        result.count.record(len(examples), elapsed)
        if between is not None:
            between(result.count.busy_s)
        if preds is not None:
            # every example in the call waited for all of it
            result.latencies_s.extend([elapsed] * len(preds))
            for example, pred in zip(examples, preds):
                check_prediction(pred)
                text = canonical(pred)
                if step < len(units):
                    first[example.id] = text
                    result.first_pass.append((example, pred))
                elif first.get(example.id, text) != text:
                    raise CheckFailed(f"{example.id}: a repeated prediction differs from the first")
        step += 1
        if step == len(units):
            result.count.fixed_busy_s = result.count.busy_s
            if budget_s is None:
                break
    return result


def _report_failure(what):
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}", file=sys.stderr)


# ----------------------------------------------------------------- metrics


def tail(latencies):
    """(value, percentile): the order statistic at TAIL_CAP, or, when fewer than
    ten samples lie above that, the highest one with ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(min(math.ceil(n * TAIL_CAP / 100.0) - 1, n - 11), 0)
    return ordered[index], 100.0 * (index + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_record():
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "name": info.get("name"),
        "version": info.get("version"),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads": None,
    }
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                return record
    return record


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_record(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "seed": seed,
    }


# ----------------------------------------------------------------- tracing


def trace_targets(sq):
    from spans import Target

    def on_predict(tracer, args, kwargs, result):
        tracer.add("examples")
        tracer.add("paragraphs", len(args[1].paragraphs))

    def on_embed(tracer, args, kwargs, result):
        example = tracer.example
        if example is not None and list(args[0]) == list(example.question):
            tracer.add("question_encodes")

    def on_gru(tracer, args, kwargs, result):
        tracer.add("gru_steps", args[0].data.shape[0])

    def on_beam(tracer, args, kwargs, result):
        k1, k2 = (args + (kwargs.get("k1"), kwargs.get("k2")))[3:5]
        tracer.add("beam_candidates", len(result))
        tracer.add("beam_slots", k1 * k2)

    def on_group(tracer, args, kwargs, result):
        tracer.add("groups", len(result))
        tracer.add("grouped_spans", sum(len(g.spans) for g in result))

    pipe, model = sq.pipeline, sq.model
    return [
        Target(sq.corpus, "load_dataset", "corpus.load_dataset"),
        Target(pipe, "label_spans", "corpus.label_spans"),
        Target(sq.checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
        Target(sq.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
        Target(pipe, "train_epoch", "pipeline.train_epoch"),
        Target(pipe, "example_loss", "pipeline.example_loss", example_of=lambda args: args[1]),
        Target(pipe, "backward", "diffmath.backward"),
        Target(sq.optim.ParameterStore, "adadelta_step", "diffmath.adadelta_step"),
        Target(pipe, "predict_dataset", "pipeline.predict_dataset"),
        Target(pipe, "predict", "pipeline.predict", example_of=lambda args: args[1], count=on_predict),
        Target(model.QaModel, "encode_paragraph", "model.encode_paragraph"),
        Target(model, "embed_tokens", "encoder.embed_tokens", count=on_embed),
        Target(model, "contextualize", "encoder.contextualize"),
        Target(model, "bidaf_attention", "encoder.bidaf_attention"),
        Target(model, "self_attend", "encoder.self_attend"),
        Target(pipe, "start_distribution", "span_decoder.start_distribution"),
        Target(pipe, "end_distribution", "span_decoder.end_distribution"),
        Target(pipe, "quality_logit", "paragraph_quality.quality_logit"),
        Target(pipe, "beam_candidates", "pipeline.beam_candidates", count=on_beam),
        Target(pipe, "group_candidates", "aggregation.group_candidates", count=on_group),
        Target(sq.rnn, "gru_sequence", "diffmath.gru_sequence", count=on_gru),
    ]


def per_layer_metrics(tracer, computed):
    from spans import summarize

    table = summarize(tracer.spans)
    counters = tracer.counters
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        if isinstance(source, str):
            value = computed[source]
        elif source[0] == "counter":
            value = sum(v for k, v in counters.items() if k.split("/", 1)[1] == source[1])
        elif source[0] == "ratio":
            value = counters.get(source[1], 0.0) / counters[source[2]]
        else:
            key = {"self": "self_s", "total": "total_s", "calls": "calls"}[source[0]]
            value = table.get(source[1], {key: 0})[key]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# -------------------------------------------------------------------- run


def import_program():
    """The program's modules, imported from the checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "spanqa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src}/spanqa; run from a source checkout")
    sys.path.insert(0, str(src))
    import types

    from spanqa import aggregation, checkpoint, config, corpus, encoder, model, pipeline
    from spanqa.diffmath import optim, rng, rnn

    return types.SimpleNamespace(
        aggregation=aggregation,
        checkpoint=checkpoint,
        config=config,
        corpus=corpus,
        encoder=encoder,
        model=model,
        pipeline=pipeline,
        optim=optim,
        rng=rng,
        rnn=rnn,
    )


def run(sq, workload, seed, seconds, trace, workdir: Path):
    config_path = ROOT / "configs" / workload.config
    flat = sq.config.load_config(config_path)
    threads = min(flat["threads"], os.cpu_count() or 1) if workload.threaded else 1
    flat["threads"] = threads  # the profile's own seed initialises and trains the model
    _, train_config, _ = sq.config.split_config(flat)
    train_budget = seconds * workload.train_share
    predict_budget = seconds - train_budget

    workdir.mkdir(parents=True)
    inputs = write_inputs(workload, seed, workdir)
    ckpt = workdir / "model.ckpt"
    setup = set_up(sq, inputs, flat)
    check_count = len(setup.heldout[:CHECK_EXAMPLES])
    in_memory = []

    def after_fixed(model):
        sq.checkpoint.save_checkpoint(ckpt, model, flat, epoch=1, seed=train_config.seed)
        result = predict_phase(sq, model, workload, setup.heldout[:check_count], train_config, threads, None)
        in_memory.extend(canonical(p) for _, p in result.first_pass)

    trained = train_phase(sq, setup, train_config, train_budget, after_fixed)
    setup = None  # release the trained model first
    setup_samples = []

    def sample_setup():
        gc.collect()
        sample = set_up(sq, inputs, flat, ckpt)
        setup_samples.append(sample.seconds)
        return sample

    def between(busy_s):  # spread the samples over the predict phase
        if len(setup_samples) < SETUP_REPEATS and busy_s >= len(setup_samples) * predict_budget / SETUP_REPEATS:
            sample_setup()

    setup = sample_setup()
    model = setup.loaded
    predicted = predict_phase(sq, model, workload, setup.heldout, train_config, threads, predict_budget, between)
    while len(setup_samples) < SETUP_REPEATS:
        sample_setup()

    if not predicted.first_pass:
        raise CheckFailed("no held-out example was predicted")
    reloaded = [canonical(p) for _, p in predicted.first_pass[:check_count]]
    if reloaded != in_memory:
        raise CheckFailed("predictions from the reloaded checkpoint differ from the in-memory model's")
    examples = [e for e, _ in predicted.first_pass]
    scores = sq.pipeline.evaluate_dataset(
        model,
        examples,
        sq.aggregation.AggregationMode.parse(train_config.mode),
        train_config.k1,
        train_config.k2,
        predictions=[p for _, p in predicted.first_pass],
    )
    tail_value, tail_pct = tail(predicted.latencies_s)
    attempted = trained.count.attempted + predicted.count.attempted
    failed = trained.count.failed + predicted.count.failed
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "train_ex_per_s": trained.count.attempted / trained.count.busy_s,
        "predict_ex_per_s": predicted.count.attempted / predicted.count.busy_s,
        "peak_rss_mb": peak_rss_mb(),
        "train_loss": trained.loss,
        "paragraph_map": scores["map"],
        "success_rate": 1.0 - failed / attempted,
    }
    report = {
        "workload": workload.name,
        "seconds": seconds,
        "threads": threads,
        "environment": environment(seed),
        "inputs_sha256": inputs.sha256,
        "phases": {
            "train": vars(trained.count) | {"skipped": trained.skipped},
            "predict": vars(predicted.count),
        },
        "latency": {
            "samples": len(predicted.latencies_s),
            "examples_per_call": threads if workload.threaded else 1,
            "tail_percentile": tail_pct,
            "deciles_ms": [1000.0 * q for q in statistics.quantiles(predicted.latencies_s, n=10)],
        },
        "setup_s_samples": setup_samples,
        "ungated": {  # asked for, but too noisy (or possibly 0) to carry a bound
            "predict_p50_ms": {"value": 1000.0 * statistics.median(predicted.latencies_s), "unit": "ms"},
            "predict_tail_ms": {"value": 1000.0 * tail_value, "unit": "ms"},
            "answer_em": {"value": scores["em"], "unit": "ratio"},
            "answer_f1": {"value": scores["f1"], "unit": "ratio"},
            "error_rate": {"value": failed / attempted, "unit": "ratio"},
        },
        "end_to_end": end_to_end,
    }
    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}

    if trace:
        metrics = traced_replay(sq, workload, seed, flat, inputs, threads, trained, predicted, report, workdir)
    correct = all(math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, report


def traced_replay(sq, workload, seed, flat, inputs, threads, trained, predicted, report, workdir):
    """Replay the fixed part with every layer wrapped; per-layer metrics."""
    from spans import Tracer

    _, train_config, _ = sq.config.split_config(flat)
    ckpt = workdir / "traced.ckpt"
    tracer = Tracer()
    with tracer.instrument(trace_targets(sq)):
        tracer.phase = "setup"
        setup = set_up(sq, inputs, flat)

        def after_fixed(model):
            tracer.phase = "setup"
            sq.checkpoint.save_checkpoint(ckpt, model, flat, epoch=1, seed=train_config.seed)
            tracer.phase = "train"

        tracer.phase = "train"
        replay_train = train_phase(sq, setup, train_config, None, after_fixed)
        tracer.phase = "setup"
        model = sq.checkpoint.load_checkpoint(ckpt)[0]
        tracer.phase = "predict"
        replay_predict = predict_phase(sq, model, workload, setup.heldout, train_config, threads, None)
    first = [canonical(p) for _, p in predicted.first_pass]
    if [canonical(p) for _, p in replay_predict.first_pass] != first:
        raise CheckFailed("traced replay predicted differently from the untraced run")
    if replay_train.loss != trained.loss and not (math.isnan(replay_train.loss) and math.isnan(trained.loss)):
        raise CheckFailed("traced replay trained to a different loss than the untraced run")

    predict_span_s = sum(s.duration for s in tracer.spans if s.name == "pipeline.predict")
    computed = {
        "parallel_efficiency": predict_span_s / (replay_predict.count.busy_s * threads),
        "train_skipped": replay_train.skipped,
        "checkpoint_bytes": ckpt.stat().st_size,
        "overhead_train": replay_train.count.busy_s / trained.count.fixed_busy_s - 1.0,
        "overhead_predict": replay_predict.count.busy_s / predicted.count.fixed_busy_s - 1.0,
    }
    metrics = per_layer_metrics(tracer, computed)
    spans_path = workdir.parent / f"trace-{workload.name}-{seed}.jsonl"
    tracer.write(spans_path)
    report["trace"] = {
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "traced_train_ex_per_s": replay_train.count.attempted / replay_train.count.busy_s,
        "traced_predict_ex_per_s": replay_predict.count.attempted / replay_predict.count.busy_s,
    }
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sq = import_program()
    workdir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, report = run(sq, WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Question-aware paragraph encoding.

The encoder turns a (question, paragraph) token pair into one vector per
paragraph token:

    embed -> contextual biGRU -> paragraph/question bidirectional attention
          -> diagonal-masked self-attention with residual -> biGRU projection

yielding C with shape (n, 2d), where d is the recurrent hidden size.  All
stages are pure functions over explicit parameter bundles so the same code
serves training (graphs recorded) and inference (inside no_grad).
"""

import math
from dataclasses import dataclass

import numpy as np

from .diffmath import (
    BiGruParams,
    Tensor,
    bigru_each,
    concat_cols,
    dropout,
    gather_rows,
    glorot_uniform,
    group_max_rows,
    init_bigru_params,
    matmul,
    relu,
    reshape,
    row_softmax,
    transpose,
)
from .inputs import read_lines


# Upper bound on every EncoderConfig size, so that a mistyped one fails by
# name before any weight is drawn; the paper's sizes are 300 and 200.
MAX_WIDTH = 2048


@dataclass
class EncoderConfig:
    """Sizes for the encoding stack; the output width r is always 2*hidden_dim.

    Defaults are desk-scale so the bundled configs and tests run fast;
    production-scale values (word_dim=300, hidden_dim=200, keep_prob=0.8)
    stay expressible through config files.
    """

    word_dim: int = 64
    char_dim: int = 20
    char_conv_width: int = 3
    char_out_dim: int = 16
    hidden_dim: int = 32
    keep_prob: float = 1.0

    def __post_init__(self):
        for name in ("word_dim", "char_dim", "char_conv_width", "char_out_dim", "hidden_dim"):
            if not 1 <= getattr(self, name) <= MAX_WIDTH:
                raise ValueError(f"{name} must be in [1, {MAX_WIDTH}], got {getattr(self, name)!r}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob!r}")

    @property
    def token_dim(self) -> int:
        return self.word_dim + self.char_out_dim


class Vocab:
    """Token -> id map with a shared unknown row at id 0; order is sorted, so
    the same token set always produces the same layout."""

    UNK = "<unk>"

    def __init__(self, tokens):
        self.tokens = [self.UNK] + sorted(set(tokens) - {self.UNK})
        self._index = {t: i for i, t in enumerate(self.tokens)}

    def id(self, token: str) -> int:
        return self._index.get(token, 0)

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_dataset(cls, dataset) -> "Vocab":
        seen = set()
        for example in dataset:
            seen.update(example.question)
            for paragraph in example.paragraphs:
                seen.update(paragraph.tokens)
        return cls(seen)


class CharVocab:
    """Character -> id map; id 0 pads short tokens, id 1 is unknown."""

    PAD, UNK = 0, 1

    def __init__(self, chars):
        self.chars = sorted(set(chars))
        self._index = {c: i + 2 for i, c in enumerate(self.chars)}

    def id(self, char: str) -> int:
        return self._index.get(char, self.UNK)

    def __len__(self) -> int:
        return len(self.chars) + 2

    @classmethod
    def from_vocab(cls, vocab: Vocab) -> "CharVocab":
        return cls({c for t in vocab.tokens for c in t})


@dataclass
class EncoderParams:
    word_emb: Tensor
    char_emb: Tensor
    char_conv_w: Tensor
    char_conv_b: Tensor
    q_ctx: BiGruParams
    p_ctx: BiGruParams
    att_w_p: Tensor
    att_w_q: Tensor
    att_w_pq: Tensor
    self_rnn: BiGruParams


def init_encoder_params(
    config: EncoderConfig, n_words: int, n_chars: int, rng, word_init=None
) -> EncoderParams:
    """Fresh parameters; `word_init` (an (n_words, word_dim) array) freezes the
    word table instead of training it: that tensor does not require
    gradients."""
    d = config.hidden_dim
    conv_in = config.char_conv_width * config.char_dim
    if word_init is not None:
        word_emb = Tensor(np.asarray(word_init, dtype=np.float64))
        if word_emb.data.shape != (n_words, config.word_dim):
            raise ValueError(
                f"word vector table shape {word_emb.data.shape} does not match "
                f"({n_words}, {config.word_dim})"
            )
    else:
        word_emb = Tensor(glorot_uniform((n_words, config.word_dim), rng), requires_grad=True)
    return EncoderParams(
        word_emb=word_emb,
        char_emb=Tensor(glorot_uniform((n_chars, config.char_dim), rng), requires_grad=True),
        char_conv_w=Tensor(glorot_uniform((conv_in, config.char_out_dim), rng), requires_grad=True),
        char_conv_b=Tensor(np.zeros(config.char_out_dim), requires_grad=True),
        q_ctx=init_bigru_params(config.token_dim, d, rng),
        p_ctx=init_bigru_params(config.token_dim, d, rng),
        att_w_p=Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True),
        att_w_q=Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True),
        att_w_pq=Tensor(glorot_uniform((2 * d, 1), rng), requires_grad=True),
        self_rnn=init_bigru_params(8 * d, d, rng),
    )


def embed_tokens(tokens, vocab: Vocab, char_vocab: CharVocab, params: EncoderParams) -> Tensor:
    """Word row plus character-convolution row per token: (n, word_dim + char_out_dim).

    Each token's characters are padded only up to the convolution width, so a
    token's vector never depends on other tokens in the batch.  Unknown words
    share the id-0 word row; unknown characters share the id-1 char row.
    """
    if not tokens:
        raise ValueError("embed_tokens needs at least one token")
    char_dim = params.char_emb.data.shape[1]
    width = params.char_conv_w.data.shape[0] // char_dim

    word_vecs = gather_rows(params.word_emb, [vocab.id(t) for t in tokens])

    counts, flat = [], []
    for token in tokens:
        ids = [char_vocab.id(c) for c in token]
        if len(ids) < width:
            ids += [char_vocab.PAD] * (width - len(ids))
        windows = len(ids) - width + 1
        counts.append(windows)
        for s in range(windows):
            flat.extend(ids[s : s + width])
    stacked = reshape(gather_rows(params.char_emb, flat), (sum(counts), width * char_dim))
    conv = relu(matmul(stacked, params.char_conv_w) + params.char_conv_b)
    char_vecs = group_max_rows(conv, counts)

    return concat_cols([word_vecs, char_vecs])


def contextualize(embedded, rnn: BiGruParams, keep_prob: float, rngs) -> list:
    """Dropout on each (n_i, k) embedding of the list in turn, the i-th
    drawing from rngs[i] (no dropout where that is None), then one
    bidirectional recurrent pass over them all: a list of (n_i, 2d)."""
    (states,) = bigru_each([dropout(x, keep_prob, rng) for x, rng in zip(embedded, rngs, strict=True)], rnn)
    return states


def bidaf_attention(para: Tensor, ques: Tensor, params: EncoderParams) -> Tensor:
    """Paragraph/question bidirectional attention, output (n, 8d).

    Similarity uses the trilinear form s[i, j] = w_p·p_i + w_q·q_j + w_pq·(p_i*q_j).
    Rows are [p; a; p*a; p*b] where a is the per-token attended question
    vector and b is the question-to-paragraph summary vector, one (1, 2d)
    row broadcast over every paragraph row.
    """
    sim = (
        matmul(para, params.att_w_p)
        + transpose(matmul(ques, params.att_w_q))
        + matmul(para * reshape(params.att_w_pq, (1, -1)), transpose(ques))
    )
    attended = matmul(row_softmax(sim), ques)
    # each paragraph token's best question match, as one (1, n) row
    column_focus = row_softmax(group_max_rows(transpose(sim), [ques.shape[0]]))
    summary = matmul(column_focus, para)
    return concat_cols([para, attended, para * attended, para * summary])


def self_attend(xs, params: EncoderParams) -> list:
    """Dot-product self-attention (a position never attends to itself) with a
    residual connection, per paragraph of the list; then one recurrent
    projection pass over them all: the context embedding (n_i, 2d) of each.

    A single-token paragraph has nobody to attend to, so its attention term
    is zero and the projection sees the input alone.
    """
    combined = []
    for x in xs:
        n = x.data.shape[0]
        if n == 1:
            combined.append(x)
        else:
            scores = matmul(x, transpose(x))
            off_diagonal = ~np.eye(n, dtype=bool)
            combined.append(x + matmul(row_softmax(scores, off_diagonal), x))
    (states,) = bigru_each(combined, params.self_rnn)
    return states


def load_word_vectors(path, vocab: Vocab, word_dim: int, init: np.ndarray) -> np.ndarray:
    """Overlay vectors from a text file (token then floats per line) onto `init`.

    Tokens absent from the file keep their `init` row; extra tokens in the
    file are ignored, but every line must be UTF-8 text holding word_dim
    finite numbers (an error names the file and line).  Returns a new (len(vocab), word_dim)
    array.
    """
    table = np.array(init, dtype=np.float64, copy=True)
    if table.shape != (len(vocab), word_dim):
        raise ValueError(f"init table shape {table.shape} != ({len(vocab)}, {word_dim})")
    for where, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if len(values) != word_dim:
            raise ValueError(f"{where}: expected {word_dim} values for {token!r}, got {len(values)}")
        try:
            row = [float(v) for v in values]
        except ValueError:
            raise ValueError(f"{where}: values for {token!r} must be numbers") from None
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{where}: values for {token!r} must be finite")
        idx = vocab.id(token)
        if idx != 0 or token == Vocab.UNK:
            table[idx] = row
    return table

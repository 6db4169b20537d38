"""Reverse-mode differentiation engine plus the recurrent kernels built on it."""

from .tensor import (
    Tensor,
    add,
    backward,
    clip_min,
    concat_cols,
    concat_rows,
    dropout,
    gather_rows,
    grad_enabled,
    group_max_rows,
    log,
    matmul,
    mul,
    no_grad,
    pick,
    relu,
    reshape,
    row_softmax,
    transpose,
    unstack,
)
from .rnn import BiGruParams, GruParams, bigru_each, bigru_rows, gru_sequence, init_bigru_params, init_gru_params
from .optim import ParameterStore, glorot_uniform, named_tensors
from .rng import make_rng


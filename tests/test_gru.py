"""Recurrent sequence kernel: cell fixtures, direction contract, BPTT gradients."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grads, copying_gru_pass, two_loop_bigru
from spanqa.diffmath import (
    BiGruParams,
    GruParams,
    Tensor,
    backward,
    bigru,
    gru_sequence,
    init_bigru_params,
    init_gru_params,
    make_rng,
    pad_stack,
    tsum,
    unstack,
)
from spanqa.diffmath.rnn import _REVERSE, _sigmoid


def random_params(in_dim, d, seed):
    return init_gru_params(in_dim, d, make_rng(seed, 2))


def zero_params(in_dim, d):
    return GruParams(
        w=Tensor(np.zeros((in_dim, 3 * d))),
        u_zr=Tensor(np.zeros((d, 2 * d))),
        u_h=Tensor(np.zeros((d, d))),
        b=Tensor(np.zeros(3 * d)),
    )


def test_zero_weights_halve_initial_state():
    # With only the candidate bias b_h nonzero, z = sigmoid(0) = 0.5 and the
    # candidate is c = tanh(b_h) at every step, so h' = (h + c) / 2: each step
    # halves the gap between the state and c, starting from the zero state.
    d = 3
    params = zero_params(2, d)
    params.b.data[2 * d :] = [2.0, -4.0, 0.5]
    c = np.tanh(params.b.data[2 * d :])
    out = gru_sequence(Tensor(np.ones((2, 2))), params)
    np.testing.assert_allclose(out.data[0], 0.5 * c, rtol=1e-15)
    np.testing.assert_allclose(out.data[1], 0.75 * c, rtol=1e-15)


def test_zero_weights_zero_init_gives_zeros():
    out = gru_sequence(Tensor(np.ones((4, 2))), zero_params(2, 3))
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))


def test_single_step_shape():
    out = gru_sequence(Tensor(np.ones((1, 2))), random_params(2, 4, 31))
    assert out.shape == (1, 4)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        gru_sequence(Tensor(np.zeros((0, 2))), random_params(2, 2, 32))


def test_input_width_mismatch_rejected():
    with pytest.raises(ValueError, match="width"):
        gru_sequence(Tensor(np.zeros((3, 5))), random_params(2, 2, 33))


def test_backward_direction_equals_reversed_forward():
    rng = make_rng(34, 1)
    x = Tensor(rng.standard_normal((6, 3)))
    params = random_params(3, 4, 34)
    rev = gru_sequence(x, params, direction="backward")
    manual = gru_sequence(Tensor(x.data[::-1]), params, direction="forward").data[::-1]
    np.testing.assert_array_equal(rev.data, manual)


def test_unknown_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        gru_sequence(Tensor(np.zeros((2, 2))), random_params(2, 2, 35), direction="up")


def test_gradients_match_finite_differences():
    rng = make_rng(36, 1)
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    params = random_params(2, 2, 36)
    w = Tensor(rng.standard_normal((3, 2)))

    def build():
        return tsum(gru_sequence(x, params) * w)

    check_grads(build, [x, params.w, params.u_zr, params.u_h, params.b])


def test_backward_direction_gradients():
    rng = make_rng(37, 1)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    params = random_params(3, 2, 37)
    w = Tensor(rng.standard_normal((4, 2)))

    def build():
        return tsum(gru_sequence(x, params, direction="backward") * w)

    check_grads(build, [x, params.w, params.u_zr, params.u_h, params.b])


def test_bigru_concatenates_directions():
    rng = make_rng(38, 1)
    x = Tensor(rng.standard_normal((5, 3)))
    params = init_bigru_params(3, 3, make_rng(38, 2))
    out = bigru(x, params)
    assert out.shape == (5, 6)
    fwd = gru_sequence(x, params.fwd, "forward")
    bwd = gru_sequence(x, params.bwd, "backward")
    np.testing.assert_array_equal(out.data[:, :3], fwd.data)
    np.testing.assert_array_equal(out.data[:, 3:], bwd.data)


def test_bigru_zero_weights_all_zeros():
    params = BiGruParams(fwd=zero_params(2, 3), bwd=zero_params(2, 3))
    out = bigru(Tensor(np.ones((4, 2))), params)
    np.testing.assert_array_equal(out.data, np.zeros((4, 6)))


def test_bigru_gradients():
    rng = make_rng(39, 1)
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    params = init_bigru_params(2, 2, make_rng(39, 2))
    w = Tensor(rng.standard_normal((3, 4)))
    leaves = [x] + [t for _, t in params.tensors()]
    check_grads(lambda: tsum(bigru(x, params) * w), leaves)


def test_param_registration_names():
    params = init_bigru_params(2, 2, make_rng(40, 2))
    names = [name for name, _ in params.tensors()]
    assert names == [
        "fwd/w", "fwd/u_zr", "fwd/u_h", "fwd/b",
        "bwd/w", "bwd/u_zr", "bwd/u_h", "bwd/b",
    ]


# ------------------------------------------------------------ sigmoid


def masked_sigmoid(x):
    """The former branching form: exp of -x where x >= 0, of x elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_form_without_warnings():
    # the kernel holds np.errstate(over="ignore") around its whole time loop,
    # so the bare sigmoid is called the same way here
    x = np.linspace(-700.0, 700.0, 200_001)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        got = _sigmoid(x)
        extremes = _sigmoid(np.array([-1e4, -800.0, 800.0, 1e4]))
    ref = masked_sigmoid(x)
    assert np.max(np.abs(got - ref) / ref) <= 1e-15
    np.testing.assert_array_equal(extremes, [0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("direction", ["forward", "backward", "both"])
def test_saturated_gates_stay_finite_without_warnings(direction):
    # gate pre-activations of +-1e4 overflow exp(-x) inside the time loop;
    # the loop's errstate must keep that silent under the suite's
    # error::RuntimeWarning filter, and the states must stay finite
    rng = make_rng(46, 1)
    x = Tensor(np.sign(rng.standard_normal((5, 3, 2))) * 1e4, requires_grad=True)
    bi = init_bigru_params(2, 3, make_rng(46, 2))
    params = bi if direction == "both" else bi.fwd
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gru_sequence(x, params, direction, lengths=[5, 2, 4])
        backward(tsum(out))
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
    assert all(np.isfinite(t.grad).all() for _, t in params.tensors())


# ------------------------------------------------------ packed batches


def rel_diff(a, b):
    """Largest absolute difference, relative to the reference's largest entry."""
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / scale) if scale > 0 else float(np.max(np.abs(a)))


def run_rows(layer, params, inputs, lengths, weights):
    """Outputs and gradients of every row, taken through one packed call of
    `layer` (backward once per row, so each gradient is that row's alone)."""
    xs = [Tensor(x, requires_grad=True) for x in inputs]
    leaves = [t for _, t in params.tensors()]
    outs = unstack(layer(pad_stack(xs), params, lengths), lengths)
    results = []
    for b, (out, w) in enumerate(zip(outs, weights)):
        backward(tsum(out * w))
        results.append((out.data, xs[b].grad, [t.grad for t in leaves]))
        for t in xs + leaves:
            t.zero_grad()
    return results


def run_single(layer, params, x, w):
    xt = Tensor(x, requires_grad=True)
    leaves = [t for _, t in params.tensors()]
    out = layer(xt, params)
    backward(tsum(out * w))
    result = (out.data, xt.grad, [t.grad for t in leaves])
    for t in [xt] + leaves:
        t.zero_grad()
    return result


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.sampled_from(["forward", "backward", "bi"]),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_packed_rows_match_single_sequence_calls(lengths, layer_name, seed):
    rng = make_rng(seed, 41)
    in_dim, d = 3, 4
    if layer_name == "bi":
        layer, params, width = bigru, init_bigru_params(in_dim, d, make_rng(seed, 42)), 2 * d
    else:
        params, width = random_params(in_dim, d, seed), d

        def layer(inputs, params, lengths=None):
            return gru_sequence(inputs, params, layer_name, lengths=lengths)

    inputs = [rng.standard_normal((n, in_dim)) for n in lengths]
    weights = [rng.standard_normal((n, width)) for n in lengths]
    packed = run_rows(layer, params, inputs, lengths, weights)
    for (out, dx, dparams), x, w in zip(packed, inputs, weights):
        ref_out, ref_dx, ref_dparams = run_single(layer, params, x, w)
        assert out.shape == ref_out.shape
        assert rel_diff(out, ref_out) <= 1e-12
        assert rel_diff(dx, ref_dx) <= 1e-12
        for got, ref in zip(dparams, ref_dparams):
            assert rel_diff(got, ref) <= 1e-12


def test_packed_gradients_match_finite_differences():
    rng = make_rng(43, 1)
    lengths = [2, 4, 3]
    xs = [Tensor(rng.standard_normal((n, 3)), requires_grad=True) for n in lengths]
    params = init_bigru_params(3, 2, make_rng(43, 2))
    weights = [Tensor(rng.standard_normal((n, 4))) for n in lengths]

    def build():
        outs = unstack(bigru(pad_stack(xs), params, lengths), lengths)
        loss = tsum(outs[0] * weights[0])
        for out, w in zip(outs[1:], weights[1:]):
            loss = loss + tsum(out * w)
        return loss

    check_grads(build, xs + [t for _, t in params.tensors()])


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.sampled_from([3, 8]),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_fused_bigru_matches_two_loop_reference(lengths, d, seed):
    """Both directions in one loop give the outputs and all gradients of a
    forward pass plus a separately reversed backward pass."""
    rng = make_rng(seed, 47)
    in_dim = 3
    params = init_bigru_params(in_dim, d, make_rng(seed, 48))
    inputs = [rng.standard_normal((n, in_dim)) for n in lengths]
    weights = [rng.standard_normal((n, 2 * d)) for n in lengths]
    got = run_rows(bigru, params, inputs, lengths, weights)
    ref = run_rows(two_loop_bigru, params, inputs, lengths, weights)
    for (out, dx, dparams), (ref_out, ref_dx, ref_dparams) in zip(got, ref):
        assert out.shape == ref_out.shape and len(dparams) == len(ref_dparams) == 8
        assert rel_diff(out, ref_out) <= 1e-12
        assert rel_diff(dx, ref_dx) <= 1e-12
        for g, r in zip(dparams, ref_dparams):
            assert rel_diff(g, r) <= 1e-12


def test_fused_bigru_packed_gradients_match_finite_differences():
    # every entry of the packed output, padded steps included, is a smooth
    # function of the packed input, so the whole (T, B, in) gradient is checked
    rng = make_rng(49, 1)
    lengths = [2, 4, 3]
    x = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
    params = init_bigru_params(3, 3, make_rng(49, 2))
    w = Tensor(rng.standard_normal((4, 3, 6)))
    check_grads(lambda: tsum(bigru(x, params, lengths) * w), [x] + [t for _, t in params.tensors()])


@pytest.mark.parametrize("direction", ["forward", "backward", "both"])
@pytest.mark.parametrize(
    "lengths, d",
    [([1], 2), ([6], 3), ([5, 2, 4], 2), ([5, 2, 4], 8), ([1, 7, 7, 3, 2], 3), ([4, 4], 32), ([5, 2, 4], 1)],
)
def test_shared_bptt_buffers_are_bit_exact(direction, lengths, d):
    """The kernel regathers the backward direction's input in BPTT and keeps
    the gate adjoints of all directions in one array; outputs and every
    gradient equal those of the kernel that held the reversed copy and
    concatenated per-direction arrays, bit for bit.  At hidden size 1 a
    parameter-gradient product reads a single strided column, which BLAS
    sums in another order, so there the bound is 1e-12 relative."""
    rng = make_rng(sum(lengths) * d, 50)
    bi = init_bigru_params(3, d, make_rng(d, 51))
    params = bi if direction == "both" else bi.fwd
    cells = (bi.fwd, bi.bwd) if direction == "both" else (bi.fwd,)
    x = rng.standard_normal((max(lengths), len(lengths), 3))
    w = rng.standard_normal((max(lengths), len(lengths), len(cells) * d))
    results = []
    for run in (
        lambda xt: gru_sequence(xt, params, direction, lengths),
        lambda xt: copying_gru_pass(xt, cells, _REVERSE[direction], lengths),
    ):
        xt = Tensor(x, requires_grad=True)
        out = run(xt)
        backward(tsum(out * w))
        results.append([out.data, xt.grad] + [t.grad for c in cells for _, t in c.tensors()])
        for c in cells:
            for _, t in c.tensors():
                t.zero_grad()
    for got, ref in zip(*results):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref) if d > 1 else rel_diff(got, ref) <= 1e-12


def test_packed_padding_does_not_leak_into_valid_steps():
    rng = make_rng(44, 1)
    params = random_params(3, 4, 44)
    short = rng.standard_normal((2, 3))
    packed = pad_stack([Tensor(short), Tensor(rng.standard_normal((5, 3)))]).data.copy()
    packed[2:, 0] = 1e3  # padding content must not matter
    out = gru_sequence(Tensor(packed), params, "backward", lengths=[2, 5])
    ref = gru_sequence(Tensor(short), params, "backward")
    assert rel_diff(out.data[:2, 0], ref.data) <= 1e-12


def test_lengths_must_fit_the_packed_input():
    params = random_params(3, 2, 45)
    with pytest.raises(ValueError, match="lengths"):
        gru_sequence(Tensor(np.zeros((4, 2, 3))), params, lengths=[4, 5])
    with pytest.raises(ValueError, match="lengths"):
        gru_sequence(Tensor(np.zeros((4, 2, 3))), params, lengths=[4])
    with pytest.raises(ValueError, match="lengths"):
        gru_sequence(Tensor(np.zeros((4, 3))), params, lengths=[4])
